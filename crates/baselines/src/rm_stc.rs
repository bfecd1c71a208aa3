//! RM-STC: the row-merge sparse tensor core (Huang et al., MICRO'23), as
//! characterised in the paper.
//!
//! Dataflow: **row-row**. Per cycle it executes a T3 task of
//! (8|16) x 4 x 2: scalars from an 8-row x 2-k window of `A` multiply
//! gathered 4-column groups of the two matching `B` rows, and the <= 2
//! products landing on the same output element are merged before write-out.
//! Its documented weaknesses (Figs. 4, 6, 14):
//!
//! * concatenation is possible only along the N dimension, so sparse `A`
//!   windows leave scalar lanes idle ("particularly sensitive to the
//!   sparsity of matrix A");
//! * MV tasks have a single N column, capping utilisation at 25 % (@FP64).

use crate::util::lowest_bits;
use simkit::{network, NetworkCosts, Precision, T1Result, T1Task, TileEngine};

/// The row-merge sparse tensor core baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RmStc {
    precision: Precision,
}

impl RmStc {
    /// Creates the engine at the given precision.
    pub fn new(precision: Precision) -> Self {
        RmStc { precision }
    }

    /// Rows and gathered-column-group width of the T3 window:
    /// 8x4 @FP64, 16x4 @FP32 (Table VI); 16x8 extrapolated @FP16.
    fn window_dims(&self) -> (usize, usize) {
        match self.precision {
            Precision::Fp64 => (8, 4),
            Precision::Fp32 => (16, 4),
            Precision::Fp16 => (16, 8),
        }
    }
}

impl Default for RmStc {
    fn default() -> Self {
        RmStc::new(Precision::Fp64)
    }
}

impl TileEngine for RmStc {
    fn name(&self) -> &str {
        "RM-STC"
    }

    fn lanes(&self) -> usize {
        self.precision.lanes()
    }

    fn execute(&self, task: &T1Task) -> T1Result {
        let mut r = T1Result::new(self.lanes());
        let (rows_per_group, group_width) = self.window_dims();
        let group_rows = ((1u32 << rows_per_group) - 1) as u16;
        let a_cols = task.a.transpose();
        for kp in 0..8 {
            let (k0, k1) = (2 * kp, 2 * kp + 1);
            let b0 = task.b.row_mask(k0);
            let b1 = task.b.row_mask(k1);
            let union = b0 | b1;
            if union == 0 {
                continue;
            }
            r.events.sched_ops += 1;
            let (a0, a1) = (a_cols.row_mask(k0), a_cols.row_mask(k1));
            if a0 | a1 == 0 {
                continue; // no A scalar meets the pair: no row group runs
            }
            // Gathered column groups of 4 over the union of the two B rows
            // (concatenation along N only — the Fig. 6 restriction).
            let mut cols = union;
            let mut b_fetched = false;
            while cols != 0 {
                let gmask = lowest_bits(cols, group_width);
                cols &= !gmask;
                let nb0 = u64::from((b0 & gmask).count_ones());
                let nb1 = u64::from((b1 & gmask).count_ones());
                for rlo in (0..16).step_by(rows_per_group) {
                    // The row group's A scalars at k0, at k1, and rows
                    // holding both.
                    let rows = group_rows << rlo;
                    let n0 = u64::from((a0 & rows).count_ones());
                    let n1 = u64::from((a1 & rows).count_ones());
                    let both = u64::from((a0 & a1 & rows).count_ones());
                    let lanes_used = n0 * nb0 + n1 * nb1;
                    if lanes_used == 0 {
                        continue;
                    }
                    b_fetched = true;
                    r.record_cycle(lanes_used as usize);
                    r.useful += lanes_used;
                    r.events.a_elems += n0 + n1;
                    // Products on the same output element merge (<= 2,
                    // one per k) before the write: a row with both scalars
                    // writes every column of the group, a row with one
                    // writes that k's B nonzeros.
                    r.events.partial_updates += both * u64::from(gmask.count_ones())
                        + (n0 - both) * nb0
                        + (n1 - both) * nb1;
                }
            }
            if b_fetched {
                // B row data for this K pair is fetched once and
                // broadcast to all scalar lanes / row groups.
                r.events.b_elems += u64::from(b0.count_ones() + b1.count_ones());
            }
        }
        r.events.c_writes = u64::from(task.c_nnz());
        r
    }

    fn network_costs(&self) -> NetworkCosts {
        NetworkCosts {
            a: network::crossbar_energy_per_elem(16, 8),
            b: network::crossbar_energy_per_elem(16, 4),
            // Row-merged partials travel a mid-scale output network.
            c_partial: network::crossbar_energy_per_elem(64, 64),
            c_final: network::crossbar_energy_per_elem(64, 64),
        }
    }

    fn area_mm2(&self) -> f64 {
        simkit::area::RM_STC_AREA_MM2
    }

    fn c_network_ports(&self) -> u64 {
        64 * 64
    }
}

/// The schedule as first written, probing A bit by bit per row of every
/// row group: the frozen reference the popcount form must match.
#[cfg(test)]
mod reference {
    use super::*;
    use crate::util::bits;

    pub(super) fn execute(e: &RmStc, task: &T1Task) -> T1Result {
        let mut r = T1Result::new(e.lanes());
        let (rows_per_group, group_width) = e.window_dims();
        let n_groups = 16 / rows_per_group;
        for kp in 0..8 {
            let (k0, k1) = (2 * kp, 2 * kp + 1);
            let b0 = task.b.row_mask(k0);
            let b1 = task.b.row_mask(k1);
            let union = b0 | b1;
            if union == 0 {
                continue;
            }
            // Gathered column groups of 4 over the union of the two B rows
            // (concatenation along N only — the Fig. 6 restriction).
            let mut cols = union;
            let mut b_fetched = false;
            while cols != 0 {
                let gmask: u16 = bits(cols).take(group_width).map(|c| 1u16 << c).sum();
                cols &= !gmask;
                let nb0 = (b0 & gmask).count_ones() as usize;
                let nb1 = (b1 & gmask).count_ones() as usize;
                let mut group_used = false;
                for rg in 0..n_groups {
                    let rlo = rg * rows_per_group;
                    let mut lanes_used = 0usize;
                    let mut scalars = 0u64;
                    let mut outputs = 0u64;
                    for row in rlo..rlo + rows_per_group {
                        let a0 = task.a.get(row, k0);
                        let a1 = task.a.get(row, k1);
                        if !a0 && !a1 {
                            continue;
                        }
                        scalars += a0 as u64 + a1 as u64;
                        let prods = if a0 { nb0 } else { 0 } + if a1 { nb1 } else { 0 };
                        lanes_used += prods;
                        // Products on the same output element merge (<= 2,
                        // one per k) before the write: distinct outputs.
                        let row_out = (if a0 { b0 } else { 0 } | if a1 { b1 } else { 0 }) & gmask;
                        outputs += row_out.count_ones() as u64;
                    }
                    if lanes_used == 0 {
                        continue;
                    }
                    group_used = true;
                    r.record_cycle(lanes_used);
                    r.useful += lanes_used as u64;
                    r.events.a_elems += scalars;
                    r.events.partial_updates += outputs;
                }
                if group_used && !b_fetched {
                    // B row data for this K pair is fetched once and
                    // broadcast to all scalar lanes / row groups.
                    r.events.b_elems += (b0.count_ones() + b1.count_ones()) as u64;
                    b_fetched = true;
                }
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
        crate::util::assert_matches_reference(RmStc::new, reference::execute);
    }

    #[test]
    fn dense_block_runs_at_full_utilisation() {
        let e = RmStc::default();
        let r = e.execute(&T1Task::mm(Block16::dense(), Block16::dense()));
        // 8 k-pairs x 4 column groups x 2 row groups = 64 cycles.
        assert_eq!(r.cycles, 64);
        assert_eq!(r.useful, 4096);
        assert!((r.util.mean_utilisation() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mv_utilisation_capped_at_quarter() {
        let e = RmStc::default();
        let r = e.execute(&T1Task::mv(Block16::dense(), u16::MAX));
        assert_eq!(r.useful, 256);
        // Single N column: at most 8 rows x 2 k = 16 of 64 lanes.
        assert!(r.util.mean_utilisation() <= 0.25 + 1e-12);
        assert_eq!(r.cycles, 16);
    }

    #[test]
    fn sparse_a_wastes_scalar_lanes() {
        // One A row only: 7 of 8 scalar rows idle.
        let a = Block16::from_fn(|r, _| r == 0);
        let e = RmStc::default();
        let r = e.execute(&T1Task::mm(a, Block16::dense()));
        assert_eq!(r.useful, 16 * 16);
        assert!(r.util.mean_utilisation() <= 0.125 + 1e-12);
    }

    #[test]
    fn merges_pairs_before_write() {
        // Both k's of a pair hit the same outputs: partials = half the
        // products.
        let a = Block16::from_fn(|r, c| r == 0 && c < 2);
        let b = Block16::from_fn(|r, c| r < 2 && c < 4);
        let e = RmStc::default();
        let r = e.execute(&T1Task::mm(a, b));
        assert_eq!(r.useful, 8);
        assert_eq!(r.events.partial_updates, 4);
    }

    #[test]
    fn empty_k_pairs_skipped() {
        let a = Block16::from_fn(|r, c| r == 0 && c == 0);
        let b = Block16::from_fn(|r, c| r == 0 && c == 0);
        let e = RmStc::default();
        let r = e.execute(&T1Task::mm(a, b));
        assert_eq!(r.cycles, 1);
        assert_eq!(r.useful, 1);
    }

    #[test]
    fn fp32_uses_sixteen_row_window() {
        let e = RmStc::new(Precision::Fp32);
        let r = e.execute(&T1Task::mm(Block16::dense(), Block16::dense()));
        // 8 k-pairs x 4 column groups x 1 row group = 32 cycles @128 lanes.
        assert_eq!(r.cycles, 32);
        assert_eq!(r.useful, 4096);
    }

    #[test]
    fn b_fetched_once_per_k_pair() {
        let e = RmStc::default();
        let r = e.execute(&T1Task::mm(Block16::dense(), Block16::dense()));
        // 8 k-pairs x 32 B elements.
        assert_eq!(r.events.b_elems, 256);
    }
}
