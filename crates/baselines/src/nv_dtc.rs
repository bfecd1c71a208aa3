//! NV-DTC: the NVIDIA A100 dense tensor core (Table VI row "NV-DTC").
//!
//! The dense tensor core has no unstructured-sparsity adaptation: every T1
//! task executes a fixed schedule of dense T3 boxes ((8 or 4)x4x4), so the
//! cycle count is independent of operand sparsity and utilisation collapses
//! on sparse inputs (the paper measures < 25 % utilisation in 84.34 % of
//! cycles on real matrices, Fig. 5).

use crate::util::nibble_counts;
use simkit::{network, NetworkCosts, Precision, T1Result, T1Task, TileEngine};

/// The dense-tensor-core baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NvDtc {
    precision: Precision,
}

impl NvDtc {
    /// Creates the engine at the given precision (64 or 128 MAC lanes).
    pub fn new(precision: Precision) -> Self {
        NvDtc { precision }
    }

    /// T3 box M dimension: 4 @FP64, 8 @FP32 (Table VI).
    fn box_m(&self) -> usize {
        self.precision.lanes() / 16
    }
}

impl Default for NvDtc {
    fn default() -> Self {
        NvDtc::new(Precision::Fp64)
    }
}

impl TileEngine for NvDtc {
    fn name(&self) -> &str {
        "NV-DTC"
    }

    fn lanes(&self) -> usize {
        self.precision.lanes()
    }

    fn execute(&self, task: &T1Task) -> T1Result {
        let mut r = T1Result::new(self.lanes());
        let m0 = self.box_m();
        // `n_cols` outside its documented 1..=16 is clamped into it.
        let n_total = task.n_cols.clamp(1, 16);
        let n_keep = ((1u32 << n_total) - 1) as u16;
        // Lane `w` of `b_counts[k]`: B row k's nonzeros in n-window `w`.
        let b_counts: [u64; 16] =
            std::array::from_fn(|k| nibble_counts(task.b.row_mask(k) & n_keep));
        let a_cols = task.a.transpose();
        let box_rows = ((1u32 << m0) - 1) as u16;
        // Fixed dense schedule: every box takes one cycle, sparse or not.
        for mi in (0..16).step_by(m0) {
            // A box's useful products are the sum over its four K
            // positions of (A column k in the box rows) x (B row k in the
            // n-window); lane `w` of `k_boxes[ki]` sums the box (mi, w, ki).
            let rows = box_rows << mi;
            let mut k_boxes = [0u64; 4];
            for (k, &counts) in b_counts.iter().enumerate() {
                k_boxes[k / 4] += u64::from((a_cols.row_mask(k) & rows).count_ones()) * counts;
            }
            for w in 0..n_total.div_ceil(4) {
                for &boxes in &k_boxes {
                    let useful = boxes >> (16 * w) & 0xFFFF;
                    r.record_cycle(useful as usize);
                    r.useful += useful;
                }
            }
        }
        // Dense operand fetch and dense result writeback: the tensor core
        // moves full tiles regardless of their content.
        r.events.a_elems = 256;
        r.events.b_elems = (16 * n_total) as u64;
        r.events.c_writes = (16 * n_total) as u64;
        // Accumulation happens in the register tile across K boxes; no
        // scattered partial traffic.
        r.events.partial_updates = 0;
        r
    }

    fn network_costs(&self) -> NetworkCosts {
        // Static operand delivery: small fixed-function networks.
        let fixed = network::crossbar_energy_per_elem(16, 16);
        NetworkCosts { a: fixed, b: fixed, c_partial: fixed, c_final: fixed }
    }

    fn area_mm2(&self) -> f64 {
        // The dense tensor core is the zero-overhead reference point: every
        // STC's "dedicated modules" are measured on top of it. Use a small
        // epsilon to keep EED ratios finite.
        0.001
    }

    fn c_network_ports(&self) -> u64 {
        64 * 16
    }
}

/// The schedule as first written, one bit test per (row, k, column) of
/// every box: the frozen reference the window counts must match.
#[cfg(test)]
mod reference {
    use super::*;

    pub(super) fn execute(e: &NvDtc, task: &T1Task) -> T1Result {
        let mut r = T1Result::new(e.lanes());
        let (m0, n0, k0) = (e.box_m(), 4usize, 4usize);
        let n_total = task.n_cols.max(1);
        for mi in (0..16).step_by(m0) {
            for ni in (0..n_total).step_by(n0) {
                for ki in (0..16).step_by(k0) {
                    let mut useful = 0usize;
                    for r_ in mi..mi + m0 {
                        let arow = task.a.row_mask(r_);
                        for k in ki..ki + k0 {
                            if arow >> k & 1 == 1 {
                                let brow = task.b.row_mask(k);
                                for c in ni..(ni + n0).min(n_total) {
                                    if brow >> c & 1 == 1 {
                                        useful += 1;
                                    }
                                }
                            }
                        }
                    }
                    r.record_cycle(useful);
                    r.useful += useful as u64;
                }
            }
        }
        r.events.a_elems = 256;
        r.events.b_elems = (16 * n_total) as u64;
        r.events.c_writes = (16 * n_total) as u64;
        r.events.partial_updates = 0;
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::Block16;

    #[test]
    fn matches_frozen_reference() {
        crate::util::assert_matches_reference(NvDtc::new, reference::execute);
    }

    #[test]
    fn dense_task_is_64_cycles_full_util() {
        let e = NvDtc::default();
        let r = e.execute(&T1Task::mm(Block16::dense(), Block16::dense()));
        assert_eq!(r.cycles, 64);
        assert_eq!(r.useful, 4096);
        assert!((r.util.mean_utilisation() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sparse_task_same_cycles_low_util() {
        let e = NvDtc::default();
        let diag = Block16::from_fn(|r, c| r == c);
        let r = e.execute(&T1Task::mm(diag, diag));
        // Fixed schedule: still 64 cycles for only 16 products.
        assert_eq!(r.cycles, 64);
        assert_eq!(r.useful, 16);
        assert!(r.util.mean_utilisation() < 0.01);
    }

    #[test]
    fn mv_task_uses_16_cycles() {
        let e = NvDtc::default();
        let r = e.execute(&T1Task::mv(Block16::dense(), u16::MAX));
        // 16 (M) x 1 (N ceil to one 4-wide box) x 16 (K) / boxes of 4x4x4.
        assert_eq!(r.cycles, 16);
        assert_eq!(r.useful, 256);
        // MV caps utilisation at 25 %: each 4-wide N box has 1 useful col.
        assert!((r.util.mean_utilisation() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn fp32_uses_bigger_boxes() {
        let e = NvDtc::new(Precision::Fp32);
        let r = e.execute(&T1Task::mm(Block16::dense(), Block16::dense()));
        // 2 x 4 x 4 = 32 boxes of 8x4x4.
        assert_eq!(r.cycles, 32);
        assert_eq!(r.useful, 4096);
    }

    #[test]
    fn dense_traffic_is_structure_independent() {
        let e = NvDtc::default();
        let sparse = e.execute(&T1Task::mm(Block16::from_fn(|r, c| r + c == 3), Block16::dense()));
        assert_eq!(sparse.events.a_elems, 256);
        assert_eq!(sparse.events.c_writes, 256);
    }
}
