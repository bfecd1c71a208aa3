//! The stream model: the verifier's intermediate representation of one
//! kernel invocation.
//!
//! A [`StreamModel`] is the task hierarchy a kernel run *would* enqueue —
//! one [`T1Node`] per issued T1 task, each holding its TMS-ordered T3
//! tasks with an explicit DPG route — built without executing anything.
//! The constructors mirror the enumeration order of the `simkit::driver`
//! kernels exactly, so a model check is a static proof about the stream
//! the simulator will consume.
//!
//! Routing is built the way the hardware routes: T3 tasks issue in windows
//! of `n_dpg` consecutive queue entries; the power-gating look-ahead
//! ([`uni_stc::power::dpgs_required`]) picks the active DPG count per
//! window, and tasks round-robin over the active slots. Hand-crafted
//! models are free to carry any routing — that is what the verifier's
//! routing checks are for.

use simkit::driver::Kernel;
use simkit::Block16;
use sparse::{BbcMatrix, SparseVector};
use uni_stc::power::dpgs_required;
use uni_stc::tms::{generate_t3_tasks, T3Task};
use uni_stc::UniStcConfig;

// The capacities the verifier proves are the ones that size the
// pipeline's fixed-capacity queues.
pub use uni_stc::pipeline::{DOT_QUEUE_CAP, TILE_QUEUE_CAP};

/// One T3 task together with the DPG slot it is routed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct T3Node {
    /// The tile-multiplication task.
    pub task: T3Task,
    /// DPG slot index (`0..n_dpg`) consuming this task.
    pub dpg: usize,
}

/// One issued T1 task and its TMS-ordered T3 expansion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct T1Node {
    /// BBC block index of operand A for matrix-derived models (spans).
    pub block: Option<usize>,
    /// The T3 tasks, in TMS issue order, with their DPG routes.
    pub t3: Vec<T3Node>,
}

/// The static model of one kernel invocation's task stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamModel {
    /// Which kernel the stream belongs to.
    pub kernel: Kernel,
    /// One node per issued (non-trivial) T1 task, in issue order.
    pub t1: Vec<T1Node>,
}

/// Active DPG count for one issue window of T3 tasks, as the TMS
/// look-ahead would gate it.
pub fn active_dpgs(cfg: &UniStcConfig, window: &[T3Task]) -> usize {
    if !cfg.power_gating {
        return cfg.n_dpg;
    }
    let products: Vec<u32> = window.iter().map(|t| t.products).collect();
    dpgs_required(cfg, &products).clamp(1, cfg.n_dpg)
}

/// Routes a TMS-ordered T3 task list onto DPG slots: windows of `n_dpg`
/// consecutive tasks, round-robin over the window's active DPGs.
pub fn route_tasks(cfg: &UniStcConfig, tasks: &[T3Task]) -> Vec<T3Node> {
    let mut out = Vec::with_capacity(tasks.len());
    for window in tasks.chunks(cfg.n_dpg.max(1)) {
        let active = active_dpgs(cfg, window);
        for (idx, &task) in window.iter().enumerate() {
            out.push(T3Node { task, dpg: idx % active });
        }
    }
    out
}

fn push_node(
    cfg: &UniStcConfig,
    t1: &mut Vec<T1Node>,
    block: Option<usize>,
    a: &Block16,
    b: &Block16,
) {
    let tasks = generate_t3_tasks(a, b, cfg.ordering);
    if tasks.is_empty() {
        return; // trivial T1 tasks never reach the engine
    }
    t1.push(T1Node { block, t3: route_tasks(cfg, &tasks) });
}

impl StreamModel {
    /// SpMV (`y = A x`, dense `x`): one T1 node per stored block of `A`.
    pub fn spmv(cfg: &UniStcConfig, a: &BbcMatrix) -> Self {
        let mut t1 = Vec::new();
        let x = Block16::from_vector_mask(u16::MAX);
        for bi in 0..a.block_count() {
            let bits = Block16::from_bbc(&a.block(bi));
            push_node(cfg, &mut t1, Some(bi), &bits, &x);
        }
        StreamModel { kernel: Kernel::SpMV, t1 }
    }

    /// SpMSpV: one T1 node per stored block whose 16-element `x` segment
    /// carries a nonzero.
    pub fn spmspv(cfg: &UniStcConfig, a: &BbcMatrix, x: &SparseVector) -> Self {
        let mut t1 = Vec::new();
        for bi in 0..a.block_count() {
            let blk = a.block(bi);
            let mask = x.segment_mask16(blk.block_col);
            if mask == 0 {
                continue;
            }
            let bits = Block16::from_bbc(&blk);
            push_node(cfg, &mut t1, Some(bi), &bits, &Block16::from_vector_mask(mask));
        }
        StreamModel { kernel: Kernel::SpMSpV, t1 }
    }

    /// SpMM (`C = A B`, dense `B` with `n_cols` columns): `ceil(n_cols /
    /// 16)` T1 nodes per stored block of `A`.
    pub fn spmm(cfg: &UniStcConfig, a: &BbcMatrix, n_cols: usize) -> Self {
        let mut t1 = Vec::new();
        if n_cols == 0 {
            return StreamModel { kernel: Kernel::SpMM, t1 };
        }
        let col_blocks = n_cols.div_ceil(16);
        let tail = n_cols - (col_blocks - 1) * 16;
        for bi in 0..a.block_count() {
            let bits = Block16::from_bbc(&a.block(bi));
            for cb in 0..col_blocks {
                let width = if cb + 1 == col_blocks { tail } else { 16 };
                push_node(cfg, &mut t1, Some(bi), &bits, &Block16::dense().keep_cols(width));
            }
        }
        StreamModel { kernel: Kernel::SpMM, t1 }
    }

    /// SpGEMM (`C = A B`): the block-level outer-product walk of Algorithm
    /// 2; `block` spans carry the A-block index.
    ///
    /// # Panics
    ///
    /// Panics if the block grids do not conform.
    pub fn spgemm(cfg: &UniStcConfig, a: &BbcMatrix, b: &BbcMatrix) -> Self {
        assert_eq!(a.block_cols(), b.block_rows(), "SpGEMM block grids do not conform");
        let mut t1 = Vec::new();
        for bi in 0..a.block_rows() {
            for ai in a.blocks_in_row(bi) {
                let a_blk = a.block(ai);
                let a_bits = Block16::from_bbc(&a_blk);
                for bj in b.blocks_in_row(a_blk.block_col) {
                    let b_bits = Block16::from_bbc(&b.block(bj));
                    push_node(cfg, &mut t1, Some(ai), &a_bits, &b_bits);
                }
            }
        }
        StreamModel { kernel: Kernel::SpGEMM, t1 }
    }

    /// Total T3 tasks across the stream.
    pub fn total_t3(&self) -> usize {
        self.t1.iter().map(|n| n.t3.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse::{CooMatrix, CsrMatrix};
    use uni_stc::tms::TaskOrdering;

    fn bbc(n: usize, entries: impl IntoIterator<Item = (usize, usize)>) -> BbcMatrix {
        let mut coo = CooMatrix::new(n, n);
        for (r, c) in entries {
            coo.push(r, c, 1.0);
        }
        BbcMatrix::from_csr(&CsrMatrix::try_from(coo).unwrap())
    }

    #[test]
    fn spmv_model_mirrors_driver_task_count() {
        let a = bbc(64, (0..64).map(|i| (i, i)));
        let cfg = UniStcConfig::default();
        let m = StreamModel::spmv(&cfg, &a);
        assert_eq!(m.kernel, Kernel::SpMV);
        assert_eq!(m.t1.len(), a.block_count());
        assert!(m.total_t3() > 0);
        for (i, node) in m.t1.iter().enumerate() {
            assert_eq!(node.block, Some(i));
        }
    }

    #[test]
    fn spmspv_model_skips_masked_blocks() {
        let a = bbc(32, [(0, 0), (0, 20)]);
        let x = SparseVector::try_new(32, vec![20], vec![1.0]).unwrap();
        let cfg = UniStcConfig::default();
        let m = StreamModel::spmspv(&cfg, &a, &x);
        assert_eq!(m.t1.len(), 1);
    }

    #[test]
    fn spmm_model_scales_with_column_blocks() {
        let a = bbc(16, [(0, 0)]);
        let cfg = UniStcConfig::default();
        assert_eq!(StreamModel::spmm(&cfg, &a, 64).t1.len(), 4);
        assert_eq!(StreamModel::spmm(&cfg, &a, 20).t1.len(), 2);
        assert!(StreamModel::spmm(&cfg, &a, 0).t1.is_empty());
    }

    #[test]
    fn spgemm_model_drops_trivial_pairs() {
        let a = bbc(16, [(0, 0)]);
        let b = bbc(16, [(5, 0)]);
        let cfg = UniStcConfig::default();
        assert!(StreamModel::spgemm(&cfg, &a, &b).t1.is_empty());
        let sq = StreamModel::spgemm(&cfg, &a, &a);
        assert_eq!(sq.t1.len(), 1);
    }

    #[test]
    fn routing_stays_inside_active_window() {
        let cfg = UniStcConfig::default();
        // Dense supply: the look-ahead activates two DPGs per window.
        let dense = generate_t3_tasks(
            &Block16::dense(),
            &Block16::dense(),
            TaskOrdering::OuterProduct,
        );
        let routed = route_tasks(&cfg, &dense);
        assert_eq!(routed.len(), 64);
        for window in routed.chunks(cfg.n_dpg) {
            let tasks: Vec<T3Task> = window.iter().map(|n| n.task).collect();
            let active = active_dpgs(&cfg, &tasks);
            assert_eq!(active, 2);
            assert!(window.iter().all(|n| n.dpg < active));
        }
    }

    #[test]
    fn gating_off_routes_over_all_dpgs() {
        let cfg = UniStcConfig { power_gating: false, ..UniStcConfig::default() };
        let dense = generate_t3_tasks(
            &Block16::dense(),
            &Block16::dense(),
            TaskOrdering::OuterProduct,
        );
        let routed = route_tasks(&cfg, &dense);
        assert!(routed.iter().any(|n| n.dpg == cfg.n_dpg - 1));
    }
}
