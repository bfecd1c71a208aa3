//! The stream model: the verifier's intermediate representation of one
//! kernel invocation's task hierarchy.
//!
//! A [`StreamModel`] holds one [`T1Node`] per issued T1 task, each with
//! its TMS-ordered T3 tasks and an explicit DPG route, built without
//! executing anything. Models are hand-crafted: the verifier checks the
//! streams of real kernel invocations over their counted
//! `simkit::TaskStream` instead (see [`Verifier::verify_stream`]), so a
//! task stream is enumerated only by `simkit::driver`. For one derived
//! task, [`route_tasks`] gives the routing a real invocation would carry.
//!
//! Routing is built the way the hardware routes: T3 tasks issue in windows
//! of `n_dpg` consecutive queue entries; the power-gating look-ahead
//! ([`uni_stc::check::route_window`]) picks the active DPG count per
//! window, and tasks round-robin over the active slots. Hand-crafted
//! models are free to carry any routing — that is what the verifier's
//! routing checks are for.
//!
//! [`Verifier::verify_stream`]: crate::Verifier::verify_stream

use simkit::driver::Kernel;
use uni_stc::check::route_window;
use uni_stc::tms::T3Task;
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
    let products: Vec<u32> = window.iter().map(|t| t.products).collect();
    route_window(cfg, &products)
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

#[cfg(test)]
pub(crate) mod reference;

impl StreamModel {
    /// Total T3 tasks across the stream.
    pub fn total_t3(&self) -> usize {
        self.t1.iter().map(|n| n.t3.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::Block16;
    use sparse::{BbcMatrix, CooMatrix, CsrMatrix, SparseVector};
    use uni_stc::tms::{generate_t3_tasks, TaskOrdering};

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
        let m = reference::spmv(&cfg, &a);
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
        let m = reference::spmspv(&cfg, &a, &x);
        assert_eq!(m.t1.len(), 1);
    }

    #[test]
    fn spmm_model_scales_with_column_blocks() {
        let a = bbc(16, [(0, 0)]);
        let cfg = UniStcConfig::default();
        assert_eq!(reference::spmm(&cfg, &a, 64).t1.len(), 4);
        assert_eq!(reference::spmm(&cfg, &a, 20).t1.len(), 2);
        assert!(reference::spmm(&cfg, &a, 0).t1.is_empty());
    }

    #[test]
    fn spgemm_model_drops_trivial_pairs() {
        let a = bbc(16, [(0, 0)]);
        let b = bbc(16, [(5, 0)]);
        let cfg = UniStcConfig::default();
        assert!(reference::spgemm(&cfg, &a, &b).t1.is_empty());
        let sq = reference::spgemm(&cfg, &a, &a);
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
