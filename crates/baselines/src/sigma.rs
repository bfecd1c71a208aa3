//! SIGMA (Qin et al., HPCA'20), throughput-aligned as in the paper.
//!
//! Dataflow: **flexible dot product** with a rigid T3 quantum of
//! 1 x (8|4) x 16 (Table VI): each cycle, the Benes distribution network
//! maps one A row's nonzeros across the K-deep lane array against a group
//! of (8|4) B columns, and the forwarding adder network (FAN) reduces
//! them. Two documented weaknesses (Section VI-C.1 / Fig. 21):
//!
//! * the dataflow is **single-sided** — B operands are broadcast by K
//!   position whether or not they are zero, so sparse B wastes lanes and
//!   transmission energy;
//! * the 1-row T3 quantum leaves most lanes idle on short rows, which is
//!   why SIGMA is "impeded" on SpMV and achieves "only marginal SpGEMM
//!   improvements" in the AMG study.

use crate::util::nibble_counts;
use simkit::{network, NetworkCosts, Precision, T1Result, T1Task, TileEngine};

/// The SIGMA baseline (performance comparison only, as in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sigma {
    precision: Precision,
}

impl Sigma {
    /// Creates the engine at the given precision.
    pub fn new(precision: Precision) -> Self {
        Sigma { precision }
    }

    /// N-group width: 4 @FP64, 8 @FP32 (Table VI).
    fn group_width(&self) -> usize {
        match self.precision {
            Precision::Fp64 => 4,
            Precision::Fp32 => 8,
            Precision::Fp16 => 16,
        }
    }
}

impl Default for Sigma {
    fn default() -> Self {
        Sigma::new(Precision::Fp64)
    }
}

impl TileEngine for Sigma {
    fn name(&self) -> &str {
        "SIGMA"
    }

    fn lanes(&self) -> usize {
        self.precision.lanes()
    }

    fn execute(&self, task: &T1Task) -> T1Result {
        let mut r = T1Result::new(self.lanes());
        let w = self.group_width();
        // `n_cols` outside its documented 1..=16 is clamped into it.
        let n_total = task.n_cols.clamp(1, 16);
        let n_keep = ((1u32 << n_total) - 1) as u16;
        // Lane `l` of `b_counts[k]`: B row k's nonzeros in columns 4l..4l+4.
        let b_counts: [u64; 16] =
            std::array::from_fn(|k| nibble_counts(task.b.row_mask(k) & n_keep));
        let group = ((1u32 << w) - 1) as u16;

        for row in 0..16 {
            let arow = task.a.row_mask(row);
            let nk = u64::from(arow.count_ones());
            if nk == 0 {
                continue;
            }
            r.events.a_elems += nk; // A row fetched once, stationary

            // Output column c of the row meets |A row ∩ B col c| products:
            // `counts` sums them per nibble of columns, and `c_row` (the
            // OR of the B rows the A row selects) marks the columns where
            // they are nonzero.
            let (mut counts, mut c_row) = (0u64, 0u16);
            let mut ks = arow;
            while ks != 0 {
                let k = ks.trailing_zeros() as usize;
                counts += b_counts[k];
                c_row |= task.b.row_mask(k);
                ks &= ks - 1;
            }
            r.events.c_writes += u64::from(c_row.count_ones());
            let outputs = c_row & n_keep;
            for g0 in (0..n_total).step_by(w) {
                let width = w.min(n_total - g0);
                let useful: u64 = (g0 / 4..(g0 + w) / 4).map(|l| counts >> (16 * l) & 0xFFFF).sum();
                if useful == 0 {
                    // The bitmap front-end drops fully-mismatched groups.
                    continue;
                }
                // One rigid 1 x w x 16 T3 quantum per cycle: B values are
                // broadcast into nk x width lanes regardless of B zeros
                // (the single-sided transmission overhead).
                r.events.b_elems += nk * width as u64;
                r.events.partial_updates += u64::from((outputs >> g0 & group).count_ones());
                r.events.sched_ops += 1;
                r.record_cycle(useful as usize);
                r.useful += useful;
            }
        }
        r
    }

    fn network_costs(&self) -> NetworkCosts {
        NetworkCosts {
            // Benes distribution network over the full lane array.
            a: network::crossbar_energy_per_elem(16, 64),
            b: network::crossbar_energy_per_elem(16, 64),
            c_partial: network::crossbar_energy_per_elem(64, 64),
            c_final: network::crossbar_energy_per_elem(64, 64),
        }
    }

    fn area_mm2(&self) -> f64 {
        simkit::area::GENERIC_STC_AREA_MM2
    }

    fn c_network_ports(&self) -> u64 {
        64 * 64
    }
}

/// The schedule as first written, one `col_mask` per column of every
/// group: the frozen reference the per-row window counts must match.
#[cfg(test)]
mod reference {
    use super::*;

    pub(super) fn execute(e: &Sigma, task: &T1Task) -> T1Result {
        let mut r = T1Result::new(e.lanes());
        let w = e.group_width();
        let n_total = task.n_cols.max(1);

        for row in 0..16 {
            let arow = task.a.row_mask(row);
            let nk = arow.count_ones() as usize;
            if nk == 0 {
                continue;
            }
            r.events.a_elems += nk as u64; // A row fetched once, stationary
            for g0 in (0..n_total).step_by(w) {
                let width = w.min(n_total - g0);
                let mut useful = 0usize;
                let mut outputs = 0usize;
                for c in g0..g0 + width {
                    let matched = (arow & task.b.col_mask(c)).count_ones() as usize;
                    useful += matched;
                    if matched > 0 {
                        outputs += 1;
                    }
                }
                if useful == 0 {
                    // The bitmap front-end drops fully-mismatched groups.
                    continue;
                }
                // One rigid 1 x w x 16 T3 quantum per cycle: B values are
                // broadcast into nk x width lanes regardless of B zeros
                // (the single-sided transmission overhead).
                r.events.b_elems += (nk * width) as u64;
                r.events.partial_updates += outputs as u64;
                r.events.sched_ops += 1;
                r.record_cycle(useful);
                r.useful += useful as u64;
            }
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
        crate::util::assert_matches_reference(Sigma::new, reference::execute);
    }

    #[test]
    fn dense_block_full_throughput() {
        let e = Sigma::default();
        let r = e.execute(&T1Task::mm(Block16::dense(), Block16::dense()));
        // 16 rows x 4 column groups = 64 cycles, full utilisation.
        assert_eq!(r.cycles, 64);
        assert_eq!(r.useful, 4096);
        assert!((r.util.mean_utilisation() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn short_rows_leave_lanes_idle() {
        // One nonzero per row: each 1 x 4 x 16 quantum carries 4 useful
        // products on 64 lanes.
        let a = Block16::from_fn(|r, c| c == r);
        let e = Sigma::default();
        let r = e.execute(&T1Task::mm(a, Block16::dense()));
        assert_eq!(r.useful, 256);
        assert_eq!(r.cycles, 64); // 16 rows x 4 groups, one per cycle
        assert!(r.util.mean_utilisation() < 0.07);
    }

    #[test]
    fn sparse_b_wastes_transmission() {
        let b = Block16::from_fn(|_, c| c == 0);
        let e = Sigma::default();
        let r = e.execute(&T1Task::mm(Block16::dense(), b));
        assert_eq!(r.useful, 256);
        // Only the first group of each row survives the bitmap check.
        assert_eq!(r.cycles, 16);
        // B broadcast counts the zero lanes: 16 k x 4 cols per quantum.
        assert_eq!(r.events.b_elems, 16 * 64);
    }

    #[test]
    fn mv_is_one_row_per_cycle() {
        let e = Sigma::default();
        let r = e.execute(&T1Task::mv(Block16::dense(), u16::MAX));
        assert_eq!(r.useful, 256);
        // 16 rows, one rigid quantum each: the Fig. 21 SpMV weakness.
        assert_eq!(r.cycles, 16);
        assert!((r.util.mean_utilisation() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn useful_matches_products() {
        let a = Block16::from_fn(|r, c| (r + 2 * c) % 5 == 0);
        let b = Block16::from_fn(|r, c| (3 * r + c) % 4 == 0);
        let t = T1Task::mm(a, b);
        let r = Sigma::default().execute(&t);
        assert_eq!(r.useful, t.products());
    }
}
