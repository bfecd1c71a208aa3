//! GAMMA (Zhang et al., ASPLOS'21), throughput-aligned as in the paper.
//!
//! Dataflow: **Gustavson row-wise**, T3 = 16 x (8|4) x 1: for each K
//! position, the scalars of the full 16-row A column multiply a gathered
//! column group of the B row. The paper's documented weakness: GAMMA's
//! blocking "cannot bypass empty rows" — rows of the 16-row group with a
//! zero A scalar still occupy their lanes (Section VI-C.1).

use crate::util::chunks;
use simkit::{network, NetworkCosts, Precision, T1Result, T1Task, TileEngine};

/// The GAMMA baseline (performance comparison only, as in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gamma {
    precision: Precision,
}

impl Gamma {
    /// Creates the engine at the given precision.
    pub fn new(precision: Precision) -> Self {
        Gamma { precision }
    }

    /// Column-group width: 4 @FP64, 8 @FP32 (Table VI).
    fn group_width(&self) -> usize {
        match self.precision {
            Precision::Fp64 => 4,
            Precision::Fp32 => 8,
            Precision::Fp16 => 16,
        }
    }
}

impl Default for Gamma {
    fn default() -> Self {
        Gamma::new(Precision::Fp64)
    }
}

impl TileEngine for Gamma {
    fn name(&self) -> &str {
        "GAMMA"
    }

    fn lanes(&self) -> usize {
        self.precision.lanes()
    }

    fn execute(&self, task: &T1Task) -> T1Result {
        let mut r = T1Result::new(self.lanes());
        let w = self.group_width();
        let a_cols = task.a.transpose();
        for k in 0..16 {
            let na = a_cols.row_mask(k).count_ones() as usize;
            let nb = task.b.row_mask(k).count_ones() as usize;
            if na == 0 || nb == 0 {
                continue;
            }
            r.events.a_elems += na as u64;
            r.events.b_elems += nb as u64;
            for cw in chunks(nb, w) {
                // All 16 row lanes are held by the group whether or not
                // their A scalar is nonzero: empty rows are not bypassed.
                let used = na * cw;
                r.record_cycle(used);
                r.useful += used as u64;
                // K = 1 per task: each product is its own partial.
                r.events.partial_updates += used as u64;
            }
            r.events.sched_ops += 1;
        }
        r.events.c_writes = u64::from(task.c_nnz());
        r
    }

    fn network_costs(&self) -> NetworkCosts {
        NetworkCosts {
            a: network::crossbar_energy_per_elem(16, 8),
            b: network::crossbar_energy_per_elem(16, 8),
            c_partial: network::crossbar_energy_per_elem(64, 128),
            c_final: network::crossbar_energy_per_elem(64, 128),
        }
    }

    fn area_mm2(&self) -> f64 {
        simkit::area::GENERIC_STC_AREA_MM2
    }

    fn c_network_ports(&self) -> u64 {
        64 * 128
    }
}

/// The schedule as first written, one `col_mask` per K position: the frozen
/// reference the transposed masks must match.
#[cfg(test)]
mod reference {
    use super::*;

    pub(super) fn execute(e: &Gamma, task: &T1Task) -> T1Result {
        let mut r = T1Result::new(e.lanes());
        let w = e.group_width();
        for k in 0..16 {
            let na = task.a.col_mask(k).count_ones() as usize;
            let nb = task.b.row_mask(k).count_ones() as usize;
            if na == 0 || nb == 0 {
                continue;
            }
            r.events.a_elems += na as u64;
            r.events.b_elems += nb as u64;
            for cw in chunks(nb, w) {
                // All 16 row lanes are held by the group whether or not
                // their A scalar is nonzero: empty rows are not bypassed.
                let used = na * cw;
                r.record_cycle(used);
                r.useful += used as u64;
                // K = 1 per task: each product is its own partial.
                r.events.partial_updates += used as u64;
            }
            r.events.sched_ops += 1;
        }
        r.events.c_writes = task.c_structure().nnz() as u64;
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::Block16;

    #[test]
    fn matches_frozen_reference() {
        crate::util::assert_matches_reference(Gamma::new, reference::execute);
    }

    #[test]
    fn dense_block_full_utilisation() {
        let e = Gamma::default();
        let r = e.execute(&T1Task::mm(Block16::dense(), Block16::dense()));
        // 16 k x 4 column groups = 64 cycles.
        assert_eq!(r.cycles, 64);
        assert_eq!(r.useful, 4096);
        assert!((r.util.mean_utilisation() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_rows_not_bypassed() {
        // Only 2 of 16 A rows populated: utilisation capped at 2/16.
        let a = Block16::from_fn(|r, _| r < 2);
        let e = Gamma::default();
        let r = e.execute(&T1Task::mm(a, Block16::dense()));
        assert!(r.util.mean_utilisation() <= 2.0 / 16.0 + 1e-12);
        assert_eq!(r.useful, 2 * 16 * 16);
    }

    #[test]
    fn mv_single_column_group() {
        let e = Gamma::default();
        let r = e.execute(&T1Task::mv(Block16::dense(), u16::MAX));
        // nb = 1 per k: one group per k, 16 lanes of 64.
        assert_eq!(r.cycles, 16);
        assert_eq!(r.useful, 256);
        assert!((r.util.mean_utilisation() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn useful_matches_products() {
        let a = Block16::from_fn(|r, c| (r * 3 + c) % 4 == 0);
        let b = Block16::from_fn(|r, c| (r + c) % 3 == 0);
        let t = T1Task::mm(a, b);
        let r = Gamma::default().execute(&t);
        assert_eq!(r.useful, t.products());
    }
}
