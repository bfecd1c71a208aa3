//! DS-STC: the dual-side sparse tensor core (Wang et al., ISCA'21 /
//! Zhang et al., TC'24), as characterised in the paper.
//!
//! Dataflow: **outer product**. For each K position, DS-STC multiplies a
//! *half-column* access window of A with a *half-row* window of B in T3
//! tiles of 8x8x1 (@FP64; 8x16x1 @FP32). Three properties drive its
//! inefficiencies (Figs. 4, 6 and 14):
//!
//! * the rigid positional windows waste lanes whenever nonzeros scatter
//!   across windows (the paper's red-slashed "ineffective accesses");
//! * tasks at different K positions cannot be concatenated, so every
//!   occupied K slice costs at least one full cycle;
//! * every intermediate product is scattered across a full-scale output
//!   network toward the C accumulator (no pre-merging), which dominates
//!   its energy (Fig. 18).

use simkit::{network, NetworkCosts, Precision, T1Result, T1Task, TileEngine};

/// The dual-side sparse tensor core baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DsStc {
    precision: Precision,
}

impl DsStc {
    /// Creates the engine at the given precision.
    pub fn new(precision: Precision) -> Self {
        DsStc { precision }
    }

    /// Access-window widths: T3 = 8 x (16|8) x 1 (Table VI); the FP16
    /// tier extrapolates to a full 16 x 16 x 1 slice per cycle.
    fn chunk_dims(&self) -> (usize, usize) {
        match self.precision {
            Precision::Fp64 => (8, 8),
            Precision::Fp32 => (8, 16),
            Precision::Fp16 => (16, 16),
        }
    }
}

/// The nonzero counts of the occupied positional `width`-wide windows of
/// `mask`, lowest window first.
fn window_counts(mask: u16, width: usize) -> impl Iterator<Item = usize> + Clone {
    (0..16)
        .step_by(width)
        .map(move |lo| (mask >> lo & ((1u32 << width) - 1) as u16).count_ones() as usize)
        .filter(|&n| n > 0)
}

impl Default for DsStc {
    fn default() -> Self {
        DsStc::new(Precision::Fp64)
    }
}

impl TileEngine for DsStc {
    fn name(&self) -> &str {
        "DS-STC"
    }

    fn lanes(&self) -> usize {
        self.precision.lanes()
    }

    fn execute(&self, task: &T1Task) -> T1Result {
        let mut r = T1Result::new(self.lanes());
        let (wa, wb) = self.chunk_dims();
        let a_cols = task.a.transpose();
        for k in 0..16 {
            let acol = a_cols.row_mask(k);
            let brow = task.b.row_mask(k);
            if acol == 0 || brow == 0 {
                // The bitmap front-end skips empty K slices.
                continue;
            }
            // Fig. 4: per cycle DS-STC forms an outer product from a
            // *half-column of A* and a *half-row of B* — positional access
            // windows, not perfectly gathered nonzeros. Sparsity scattered
            // across windows causes the paper's "ineffective accesses".
            let a_wins = window_counts(acol, wa);
            let b_wins = window_counts(brow, wb);
            // The A window is buffered once per K slice; the B windows are
            // re-streamed for every A window.
            let na = acol.count_ones() as usize;
            let nb = brow.count_ones() as usize;
            r.events.a_elems += na as u64;
            r.events.b_elems += (nb * a_wins.clone().count()) as u64;
            for ca in a_wins {
                for cb in b_wins.clone() {
                    r.record_cycle(ca * cb);
                    r.useful += (ca * cb) as u64;
                }
            }
            // Outer product: every partial product is scattered toward the
            // C accumulator individually (no merge before write).
            r.events.partial_updates += (na * nb) as u64;
        }
        r.events.c_writes = u64::from(task.c_nnz());
        r.events.sched_ops = 16; // one window decision per K slice
        r
    }

    fn network_costs(&self) -> NetworkCosts {
        NetworkCosts {
            a: network::crossbar_energy_per_elem(16, 8),
            b: network::crossbar_energy_per_elem(16, 8),
            // Scatter across the full-scale output crossbar.
            c_partial: network::flat_network_cost(),
            c_final: network::flat_network_cost(),
        }
    }

    fn area_mm2(&self) -> f64 {
        simkit::area::DS_STC_AREA_MM2
    }

    fn c_network_ports(&self) -> u64 {
        64 * 256
    }
}

/// The schedule as first written, one `col_mask` per K slice: the frozen
/// reference the transposed masks must match.
#[cfg(test)]
mod reference {
    use super::*;

    pub(super) fn execute(e: &DsStc, task: &T1Task) -> T1Result {
        let mut r = T1Result::new(e.lanes());
        let (wa, wb) = e.chunk_dims();
        for k in 0..16 {
            let acol = task.a.col_mask(k);
            let brow = task.b.row_mask(k);
            if acol == 0 || brow == 0 {
                // The bitmap front-end skips empty K slices.
                continue;
            }
            // Fig. 4: per cycle DS-STC forms an outer product from a
            // *half-column of A* and a *half-row of B* — positional access
            // windows, not perfectly gathered nonzeros. Sparsity scattered
            // across windows causes the paper's "ineffective accesses".
            let a_wins = window_counts(acol, wa);
            let b_wins = window_counts(brow, wb);
            // The A window is buffered once per K slice; the B windows are
            // re-streamed for every A window.
            let na = acol.count_ones() as usize;
            let nb = brow.count_ones() as usize;
            r.events.a_elems += na as u64;
            r.events.b_elems += (nb * a_wins.clone().count()) as u64;
            for ca in a_wins {
                for cb in b_wins.clone() {
                    r.record_cycle(ca * cb);
                    r.useful += (ca * cb) as u64;
                }
            }
            // Outer product: every partial product is scattered toward the
            // C accumulator individually (no merge before write).
            r.events.partial_updates += (na * nb) as u64;
        }
        r.events.c_writes = task.c_structure().nnz() as u64;
        r.events.sched_ops = 16; // one window decision per K slice
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::Block16;

    #[test]
    fn matches_frozen_reference() {
        crate::util::assert_matches_reference(DsStc::new, reference::execute);
    }

    #[test]
    fn dense_block_runs_at_full_utilisation() {
        let e = DsStc::default();
        let r = e.execute(&T1Task::mm(Block16::dense(), Block16::dense()));
        // 16 K slices x ceil(16/8)^2 = 64 cycles.
        assert_eq!(r.cycles, 64);
        assert_eq!(r.useful, 4096);
        assert!((r.util.mean_utilisation() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn spmv_utilisation_capped_at_one_eighth() {
        // Dense A, dense x: per K slice nb = 1 -> at most 8 of 64 lanes.
        let e = DsStc::default();
        let r = e.execute(&T1Task::mv(Block16::dense(), u16::MAX));
        assert_eq!(r.useful, 256);
        assert!(r.util.mean_utilisation() <= 0.125 + 1e-12);
        assert_eq!(r.cycles, 32); // 16 k x 2 A half-windows
    }

    #[test]
    fn empty_k_slices_are_skipped() {
        // A uses only k = 0; B provides k = 0 and k = 5.
        let a = Block16::from_fn(|_, c| c == 0);
        let b = Block16::from_fn(|r, _| r == 0 || r == 5);
        let e = DsStc::default();
        let r = e.execute(&T1Task::mm(a, b));
        // Only k = 0 is occupied on both sides: 16 A nnz x 16 B nnz.
        assert_eq!(r.useful, 256);
        assert_eq!(r.cycles, 4);
    }

    #[test]
    fn scattered_windows_waste_lanes() {
        // 8 nonzeros split across both A half-windows: twice the cycles of
        // the same nonzeros packed into one window (Fig. 4's red slashes).
        let packed = Block16::from_fn(|r, c| c == 0 && r < 8);
        let scattered = Block16::from_fn(|r, c| c == 0 && r % 2 == 0);
        let b = Block16::from_fn(|r, c| r == 0 && c < 8);
        let e = DsStc::default();
        let rp = e.execute(&T1Task::mm(packed, b));
        let rs = e.execute(&T1Task::mm(scattered, b));
        assert_eq!(rp.useful, rs.useful);
        assert_eq!(rp.cycles, 1);
        assert_eq!(rs.cycles, 2);
        assert!(rs.util.mean_utilisation() < rp.util.mean_utilisation());
    }

    #[test]
    fn no_k_concatenation_single_products_cost_full_cycles() {
        // One product in each of 16 K slices: 16 cycles at 1/64 utilisation
        // (the Fig. 6 restriction).
        let diag = Block16::from_fn(|r, c| r == c);
        let e = DsStc::default();
        let r = e.execute(&T1Task::mm(diag, diag));
        assert_eq!(r.useful, 16);
        assert_eq!(r.cycles, 16);
        assert!(r.util.mean_utilisation() < 0.02);
    }

    #[test]
    fn partials_scatter_every_product() {
        let e = DsStc::default();
        let t = T1Task::mm(Block16::dense(), Block16::dense());
        let r = e.execute(&t);
        assert_eq!(r.events.partial_updates, 4096);
        assert_eq!(r.events.c_writes, 256);
    }

    #[test]
    fn fp32_widens_b_chunks() {
        let e = DsStc::new(Precision::Fp32);
        let r = e.execute(&T1Task::mm(Block16::dense(), Block16::dense()));
        // 16 k x ceil(16/8) x ceil(16/16) = 32 cycles at 128 lanes.
        assert_eq!(r.cycles, 32);
        assert_eq!(r.useful, 4096);
    }
}
