//! The [`TileEngine`] trait — the contract every simulated STC implements.

use crate::{NetworkCosts, T1Result, T1Task};

/// Arithmetic precision of an STC configuration.
///
/// The paper evaluates the four sparse kernels at "64 MAC@FP64" and DNN
/// inference at "128 MAC@FP32" (Fig. 17 caption); the MAC lane count is a
/// function of precision within the same hardware footprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Precision {
    /// Double precision: 64 MAC lanes.
    #[default]
    Fp64,
    /// Single precision: 128 MAC lanes.
    Fp32,
    /// Half precision: 256 MAC lanes (the paper: "Uni-STC can flexibly
    /// scale its precision from 256 MACs@FP16 to 64 MACs@FP64 within the
    /// same hardware footprint").
    Fp16,
}

impl Precision {
    /// MAC lane count of this precision.
    pub const fn lanes(self) -> usize {
        match self {
            Precision::Fp64 => crate::LANES_FP64,
            Precision::Fp32 => crate::LANES_FP32,
            Precision::Fp16 => crate::LANES_FP16,
        }
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Precision::Fp64 => write!(f, "FP64"),
            Precision::Fp32 => write!(f, "FP32"),
            Precision::Fp16 => write!(f, "FP16"),
        }
    }
}

/// A simulated sparse tensor core.
///
/// An engine receives one T1 task at a time (a 16x16x16 block matmul, or a
/// 16x1x16 MV slice) and schedules it according to its own dataflow,
/// reporting cycles, per-cycle MAC-lane occupancy and hardware events.
/// Engines are stateless across tasks (architectural accumulators are
/// modelled inside a task; cross-task state lives in the kernel drivers),
/// which mirrors the synchronous UWMMA execution lifecycle of Section IV-G.
///
/// # Purity contract
///
/// [`TileEngine::execute`] must be a pure function of the task's
/// `(a, b, n_cols)`: the same task always yields the same [`T1Result`],
/// whatever ran before it and however often it is called. The drivers rely
/// on this. They collapse a stream into its distinct tasks
/// ([`TaskStream`](crate::TaskStream)), so an engine sees **one call per
/// distinct task** and the result is scaled by the task's multiplicity.
/// An engine that counts its calls, or keeps state across them, would
/// report different totals counted than ordered. Only a traced run
/// ([`driver::run_traced`](crate::driver::run_traced) with an
/// enabled sink) still calls the engine once per task, in stream order.
///
/// The trait is object-safe: kernel drivers take `&dyn TileEngine`.
pub trait TileEngine {
    /// Short display name ("Uni-STC", "DS-STC", ...).
    fn name(&self) -> &str;

    /// Number of MAC lanes (64 @FP64, 128 @FP32).
    fn lanes(&self) -> usize;

    /// Schedules and executes one T1 task.
    fn execute(&self, task: &T1Task) -> T1Result;

    /// Like [`TileEngine::execute`], additionally streaming pipeline trace
    /// events into `sink` (timestamps are task-local cycles; the kernel
    /// drivers re-base them onto the global timeline).
    ///
    /// The default implementation ignores the sink, so engines without
    /// internal instrumentation still work with the traced drivers; the
    /// Uni-STC engine overrides this to emit its full pipeline trace. An
    /// implementation must produce exactly the same [`T1Result`] as
    /// `execute` — tracing observes the schedule, it never alters it.
    fn execute_traced(&self, task: &T1Task, sink: &mut dyn obs::TraceSink) -> T1Result {
        let _ = sink;
        self.execute(task)
    }

    /// The engine's per-element network transfer costs.
    fn network_costs(&self) -> NetworkCosts;

    /// Dedicated-module area overhead of one engine instance in mm^2
    /// (beyond the dense MAC array all designs share).
    fn area_mm2(&self) -> f64 {
        crate::area::GENERIC_STC_AREA_MM2
    }

    /// Static scale (port count) of the engine's output network, used when
    /// the engine does not report dynamic `c_ports_cycles`.
    fn c_network_ports(&self) -> u64 {
        64 * 256
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Block16;

    struct Fixed;

    impl TileEngine for Fixed {
        fn name(&self) -> &str {
            "fixed"
        }
        fn lanes(&self) -> usize {
            64
        }
        fn execute(&self, task: &T1Task) -> T1Result {
            let mut r = T1Result::new(self.lanes());
            let p = task.products();
            let mut left = p;
            while left > 0 {
                let used = left.min(64) as usize;
                r.record_cycle(used);
                left -= used as u64;
            }
            r.useful = p;
            r
        }
        fn network_costs(&self) -> NetworkCosts {
            NetworkCosts::flat()
        }
    }

    #[test]
    fn trait_is_object_safe() {
        let e: &dyn TileEngine = &Fixed;
        let t = T1Task::mm(Block16::dense(), Block16::dense());
        let r = e.execute(&t);
        assert_eq!(r.cycles, 64);
        assert_eq!(r.useful, 4096);
        assert!((r.util.mean_utilisation() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn precision_lanes() {
        assert_eq!(Precision::Fp64.lanes(), 64);
        assert_eq!(Precision::Fp32.lanes(), 128);
        assert_eq!(Precision::Fp16.lanes(), 256);
        assert_eq!(Precision::Fp64.to_string(), "FP64");
        assert_eq!(Precision::Fp16.to_string(), "FP16");
    }

    #[test]
    fn default_area_is_generic() {
        assert!((Fixed.area_mm2() - crate::area::GENERIC_STC_AREA_MM2).abs() < 1e-12);
    }
}
