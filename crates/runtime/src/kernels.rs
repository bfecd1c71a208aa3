//! Sharded kernel execution with bit-identical report merging.
//!
//! Every quantity in a [`KernelReport`] is an order-independent
//! aggregate: `cycles`, `useful` and `t1_tasks` are sums over tasks,
//! [`EventCounts`](simkit::EventCounts) adds field-wise,
//! [`UtilHistogram`](simkit::UtilHistogram) merges by adding bucket
//! counts, and energy is a *function of the merged events*, recomputed
//! once at the end rather than summed. Sharding a counted [`TaskStream`]
//! over its distinct entries, running each shard through the untouched
//! serial driver ([`simkit::driver::run_stream`]), and folding the shard
//! reports in shard order ([`KernelReport::try_merge_scaled`] with a
//! factor of 1) therefore reproduces the serial report **bit for bit** —
//! the conformance golden counter snapshots pin this.
//! [`run_stream_planned`] is that parallel executor: it takes a kernel's
//! stream from the driver's one walk
//! ([`Invocation::stream`](simkit::driver::Invocation::stream)) and splits
//! it itself with [`ShardPlan::contiguous`], a plan legal by construction
//! (one shard on a single worker), so it fails only as
//! [`ShardedRunError`] says. [`ShardPlan::contiguous`] is the only way to
//! build a plan, so no plan can overlap, leave a gap, or hold an empty or
//! out-of-range shard. [`run_tasks_planned`], the one entry point that
//! takes a caller's plan, checks the one thing a caller can still get
//! wrong: a plan built for a stream of another length
//! ([`PlannedRunError::StalePlan`]).
//!
//! The shards execute on the [`pool`], so they inherit its
//! resilience: a shard whose execution panics is retried and, past the
//! budget, surfaces as [`ShardedRunError::RetriesExhausted`]; injected
//! chaos can never change the merged counters, only how long the run
//! takes.

use simkit::driver::{self, Kernel, KernelReport};
use simkit::{CounterOverflow, EnergyModel, T1Task, TaskStream, TileEngine};

use crate::pool::{self, RuntimeConfig, TaskOutcome};

/// A sharded kernel run: the merged report plus what the scheduler saw.
#[derive(Debug, Clone)]
pub struct ShardedRun {
    /// The merged kernel report — bit-identical to the serial driver's.
    pub report: KernelReport,
    /// Scheduler statistics (steals, retries, crashes, ...).
    pub stats: pool::RunStats,
    /// Present iff the pool fell below quorum and finished serially.
    pub degraded: Option<pool::DegradedReport>,
}

/// How a task stream is split across pool workers: non-empty, ascending,
/// adjacent index ranges that cover `0..tasks` exactly once.
///
/// [`ShardPlan::contiguous`] is the only constructor and the fields are
/// private, so every plan is legal by construction: no two shards
/// overlap, no task is left out, and no shard is empty or out of range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    tasks: usize,
    shards: Vec<std::ops::Range<usize>>,
}

impl ShardPlan {
    /// Contiguous chunks targeting ~4 shards per worker, so steals have
    /// something to rebalance without shrinking shards into scheduling
    /// overhead, and one shard at `threads <= 1`, where nobody steals.
    /// The plan [`run_stream_planned`] builds for itself.
    pub fn contiguous(tasks: usize, threads: usize) -> Self {
        let chunk = if threads <= 1 { tasks } else { tasks / (threads * 4) }.max(1);
        let mut shards = Vec::new();
        let mut start = 0;
        while start < tasks {
            let end = (start + chunk).min(tasks);
            shards.push(start..end);
            start = end;
        }
        ShardPlan { tasks, shards }
    }

    /// Length of the task stream the plan covers.
    pub(crate) fn tasks(&self) -> usize {
        self.tasks
    }

    /// The shard ranges, in execution-submission order.
    pub(crate) fn shards(&self) -> &[std::ops::Range<usize>] {
        &self.shards
    }
}

/// Why a sharded run produced no merged report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardedRunError {
    /// A shard failed intrinsically (its engine panicked) on every attempt
    /// of its retry budget. Injected chaos is drained onto the supervisor
    /// instead, so this always points at the shard's own work.
    RetriesExhausted {
        /// Index of the failing shard in the plan.
        shard: usize,
        /// Attempts made before giving up (initial try + retries).
        attempts: u32,
    },
    /// A merged report counter would exceed `u64::MAX`; the exact report
    /// is not representable.
    Overflow(CounterOverflow),
}

impl std::fmt::Display for ShardedRunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardedRunError::RetriesExhausted { shard, attempts } => {
                write!(f, "shard {shard} failed on all {attempts} attempts; retry budget exhausted")
            }
            ShardedRunError::Overflow(e) => write!(f, "sharded run failed: {e}"),
        }
    }
}

impl std::error::Error for ShardedRunError {}

/// Why a run under a caller's plan produced no merged report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlannedRunError {
    /// The plan was built for a stream of another length; no worker was
    /// spawned and no task executed.
    StalePlan {
        /// The stream length the plan was built for.
        planned: usize,
        /// The length of the stream it was asked to run.
        tasks: usize,
    },
    /// The plan matched the stream but its run failed.
    Run(ShardedRunError),
}

impl std::fmt::Display for PlannedRunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlannedRunError::StalePlan { planned, tasks } => write!(
                f,
                "shard plan rejected: it covers {planned} tasks but the stream holds {tasks}"
            ),
            PlannedRunError::Run(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for PlannedRunError {}

/// Runs a materialised task list sharded under `plan`: each shard is
/// collapsed into a [`TaskStream`] and runs through
/// [`driver::run_stream`]. A plan built for a stream of another length
/// is rejected *before any worker is spawned*, and zero tasks execute.
/// The merged report is bit-identical to the serial driver over the same
/// tasks.
///
/// Prefer [`run_stream_planned`], which collapses the stream once
/// instead of once per shard; this entry point serves callers that hold
/// a `Vec<T1Task>`.
///
/// # Errors
///
/// [`PlannedRunError::StalePlan`] when the plan covers another number of
/// tasks; [`PlannedRunError::Run`] when the run fails as
/// [`run_stream_planned`] can.
pub fn run_tasks_planned(
    cfg: &RuntimeConfig,
    plan: &ShardPlan,
    engine: &(dyn TileEngine + Sync),
    energy_model: &EnergyModel,
    kernel: Kernel,
    tasks: &[T1Task],
) -> Result<ShardedRun, PlannedRunError> {
    if plan.tasks() != tasks.len() {
        return Err(PlannedRunError::StalePlan { planned: plan.tasks(), tasks: tasks.len() });
    }
    run_shards(cfg, plan, engine, energy_model, kernel, |range| {
        driver::run_stream(engine, energy_model, kernel, &TaskStream::from(&tasks[range]))
    })
    .map_err(PlannedRunError::Run)
}

/// Runs a counted [`TaskStream`] sharded across the pool under the
/// contiguous plan over its *distinct entries*
/// (`ShardPlan::contiguous(stream.len(), cfg.threads)`), not the tasks
/// they stand for: one shard at `cfg.threads <= 1`. That plan is legal by
/// construction, so nothing here can reject it. The merged report is
/// bit-identical to [`driver::run_stream`] over the whole stream.
///
/// # Errors
///
/// [`ShardedRunError::RetriesExhausted`] when a shard failed
/// intrinsically past the retry budget; [`ShardedRunError::Overflow`]
/// when a report counter would exceed `u64::MAX`.
pub fn run_stream_planned(
    cfg: &RuntimeConfig,
    engine: &(dyn TileEngine + Sync),
    energy_model: &EnergyModel,
    kernel: Kernel,
    stream: &TaskStream,
) -> Result<ShardedRun, ShardedRunError> {
    let plan = ShardPlan::contiguous(stream.len(), cfg.threads);
    run_shards(cfg, &plan, engine, energy_model, kernel, |range| {
        driver::run_stream(engine, energy_model, kernel, &stream[range])
    })
}

/// Executes a plan: one pool task per shard, fold in shard order,
/// energy recomputed once from the merged events.
fn run_shards<F>(
    cfg: &RuntimeConfig,
    plan: &ShardPlan,
    engine: &(dyn TileEngine + Sync),
    energy_model: &EnergyModel,
    kernel: Kernel,
    run_shard: F,
) -> Result<ShardedRun, ShardedRunError>
where
    F: Fn(std::ops::Range<usize>) -> Result<KernelReport, CounterOverflow> + Sync,
{
    let run = pool::run(cfg, plan.shards(), |_, range| Ok(run_shard(range.clone())));
    let mut report = KernelReport::start(engine, kernel);
    for (shard, outcome) in run.outcomes.iter().enumerate() {
        match outcome {
            TaskOutcome::Done(result) => result
                .as_ref()
                .map_err(|e| *e)
                .and_then(|result| report.try_merge_scaled(result, 1))
                .map_err(ShardedRunError::Overflow)?,
            TaskOutcome::Failed { attempts, .. } => {
                return Err(ShardedRunError::RetriesExhausted { shard, attempts: *attempts })
            }
        }
    }
    Ok(ShardedRun {
        report: report.finish(engine, energy_model),
        stats: run.stats,
        degraded: run.degraded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::driver::Invocation;
    use simkit::{NetworkCosts, T1Result};
    use sparse::{BbcMatrix, SparseVector};

    fn spmv_stream(a: &BbcMatrix) -> TaskStream {
        Invocation::SpMV(a).stream().expect("one task per block")
    }

    /// The reference engine from the driver tests: perfect packing.
    struct Ideal;

    impl TileEngine for Ideal {
        fn name(&self) -> &str {
            "ideal"
        }
        fn lanes(&self) -> usize {
            64
        }
        fn execute(&self, task: &T1Task) -> T1Result {
            let mut r = T1Result::new(64);
            let mut left = task.products();
            while left > 0 {
                let used = left.min(64) as usize;
                r.record_cycle(used);
                left -= used as u64;
            }
            r.useful = task.products();
            r
        }
        fn network_costs(&self) -> NetworkCosts {
            NetworkCosts::flat()
        }
    }

    fn demo_matrix(seed: u64) -> BbcMatrix {
        BbcMatrix::from_csr(&workloads::gen::random_uniform(96, 0.08, seed))
    }

    fn demo_vector(dim: usize, density: f64, seed: u64) -> SparseVector {
        let mut rng = sparse::rng::Rng64::new(seed);
        let mut idx = Vec::new();
        let mut vals = Vec::new();
        for i in 0..dim {
            if rng.next_f64() < density {
                idx.push(i as u32);
                vals.push(rng.next_f64());
            }
        }
        SparseVector::try_new(dim, idx, vals).expect("indices sorted by construction")
    }

    #[test]
    fn sharded_spmv_matches_serial_bit_for_bit() {
        let a = demo_matrix(1);
        let em = EnergyModel::default();
        let serial = driver::run_spmv(&Ideal, &em, &a);
        let stream = spmv_stream(&a);
        for threads in [1, 2, 8] {
            let cfg = RuntimeConfig::with_threads(threads);
            let sharded =
                run_stream_planned(&cfg, &Ideal, &em, Kernel::SpMV, &stream).expect("no failures");
            assert_eq!(
                sharded.report.counter_signature(),
                serial.counter_signature(),
                "threads={threads}"
            );
            assert_eq!(sharded.report, serial, "full report, threads={threads}");
        }
    }

    #[test]
    fn all_four_kernels_match_serial() {
        let a = demo_matrix(2);
        let b = demo_matrix(3);
        let x = demo_vector(96, 0.25, 9);
        let em = EnergyModel::default();
        let cfg = RuntimeConfig::with_threads(4);
        let cases = [
            (driver::run_spmv(&Ideal, &em, &a), Invocation::SpMV(&a)),
            (driver::run_spmspv(&Ideal, &em, &a, &x), Invocation::SpMSpV(&a, &x)),
            (driver::run_spmm(&Ideal, &em, &a, 40), Invocation::SpMM(&a, 40)),
            (driver::run_spgemm(&Ideal, &em, &a, &b), Invocation::SpGEMM(&a, &b)),
        ];
        for (serial, inv) in cases {
            let stream = inv.stream().expect("fits");
            let run =
                run_stream_planned(&cfg, &Ideal, &em, serial.kernel, &stream).expect("no failures");
            assert_eq!(serial.counter_signature(), run.report.counter_signature());
        }
    }

    #[test]
    fn empty_stream_matches_serial() {
        let em = EnergyModel::default();
        let cfg = RuntimeConfig::with_threads(2);
        let sharded = run_stream_planned(&cfg, &Ideal, &em, Kernel::SpMM, &TaskStream::default())
            .expect("empty");
        let serial = driver::run_stream(&Ideal, &em, Kernel::SpMM, &[]).expect("no counters");
        assert_eq!(sharded.report, serial);
        assert_eq!(sharded.report.t1_tasks, 0);
    }

    #[test]
    fn chaos_does_not_change_the_merged_counters() {
        let a = demo_matrix(4);
        let em = EnergyModel::default();
        let serial = driver::run_spmv(&Ideal, &em, &a);
        let chaos = crate::chaos::ChaosPlan::new(77, 0.05, 0.0, 0.1, 0).expect("valid rates");
        let cfg = RuntimeConfig {
            backoff: crate::pool::Backoff::none(),
            ..RuntimeConfig::with_threads(2).with_chaos(chaos)
        };
        let sharded = run_stream_planned(&cfg, &Ideal, &em, Kernel::SpMV, &spmv_stream(&a))
            .expect("chaos is survivable");
        assert_eq!(sharded.report, serial);
    }

    #[test]
    fn panicking_engine_surfaces_retries_exhausted() {
        struct Grenade;
        impl TileEngine for Grenade {
            fn name(&self) -> &str {
                "grenade"
            }
            fn lanes(&self) -> usize {
                64
            }
            fn execute(&self, _task: &T1Task) -> T1Result {
                panic!("engine exploded")
            }
            fn network_costs(&self) -> NetworkCosts {
                NetworkCosts::flat()
            }
        }
        let a = demo_matrix(5);
        let cfg = RuntimeConfig {
            max_retries: 1,
            backoff: crate::pool::Backoff::none(),
            ..RuntimeConfig::with_threads(2)
        };
        let em = EnergyModel::default();
        match run_stream_planned(&cfg, &Grenade, &em, Kernel::SpMV, &spmv_stream(&a)) {
            Err(e @ ShardedRunError::RetriesExhausted { shard, attempts }) => {
                assert_eq!(attempts, 2, "first try + one retry");
                // Every shard fails; the fold stops at the first, in plan order.
                assert_eq!(shard, 0);
                assert!(e.to_string().starts_with("shard 0 failed on all 2 attempts"), "{e}");
            }
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
    }

    #[test]
    fn planned_stream_matches_serial_at_any_thread_count() {
        use workloads::stencil::{lower, GridShape, Ordering, StencilKind};
        let a = lower(StencilKind::Star5, GridShape::D2 { nx: 40, ny: 40 }, Ordering::Tiled16).bbc;
        let em = EnergyModel::default();
        let stream = spmv_stream(&a);
        assert!(stream.len() * 4 < a.block_count(), "stencil blocks repeat");
        let serial = driver::run_spmv(&Ideal, &em, &a);
        for threads in [1, 2, 8] {
            let cfg = RuntimeConfig::with_threads(threads);
            let run = run_stream_planned(&cfg, &Ideal, &em, Kernel::SpMV, &stream)
                .expect("the runtime's own plan executes");
            assert_eq!(run.report, serial, "threads={threads}");
        }
    }

    #[test]
    fn planned_stream_reports_overflow() {
        let a = demo_matrix(8);
        let em = EnergyModel::default();
        let stream = Invocation::SpMM(&a, usize::MAX / 64).stream().expect("under 2^64 tasks");
        let cfg = RuntimeConfig::with_threads(2);
        let err = run_stream_planned(&cfg, &Ideal, &em, Kernel::SpMM, &stream)
            .expect_err("36 meta words per task pass 2^64");
        assert!(matches!(err, ShardedRunError::Overflow(_)), "{err}");
    }

    #[test]
    fn shard_len_scales_with_threads() {
        let first_len = |tasks, threads| ShardPlan::contiguous(tasks, threads).shards()[0].len();
        assert_eq!(first_len(100, 1), 100, "one worker, one shard");
        assert_eq!(first_len(1000, 8), 31);
        assert_eq!(first_len(3, 8), 1);
        assert!(ShardPlan::contiguous(0, 4).shards().is_empty());
    }

    #[test]
    fn contiguous_plans_are_legal_by_construction() {
        for tasks in [0, 1, 3, 17, 100, 1000] {
            for threads in [0, 1, 2, 8, 64] {
                let plan = ShardPlan::contiguous(tasks, threads);
                assert_eq!(plan.tasks(), tasks);
                // Non-empty shards, each starting where the last ended:
                // ascending, adjacent, and so covering `0..tasks` once.
                let mut next = 0;
                for shard in plan.shards() {
                    assert!(!shard.is_empty(), "tasks={tasks} threads={threads}: {shard:?}");
                    assert_eq!(shard.start, next, "tasks={tasks} threads={threads}");
                    next = shard.end;
                }
                assert_eq!(next, tasks, "tasks={tasks} threads={threads}");
            }
        }
    }

    #[test]
    fn legal_custom_plan_matches_serial_bit_for_bit() {
        let a = demo_matrix(7);
        let em = EnergyModel::default();
        let tasks = driver::spmv_tasks(&a);
        let serial = driver::run_spmv(&Ideal, &em, &a);
        // A caller's plan need not fit the pool: one shard in all, or
        // one per task (planned for 64 workers), on three workers.
        let cfg = RuntimeConfig::with_threads(3);
        for planned_threads in [1, 3, 64] {
            let plan = ShardPlan::contiguous(tasks.len(), planned_threads);
            let run = run_tasks_planned(&cfg, &plan, &Ideal, &em, Kernel::SpMV, &tasks)
                .expect("a plan for this stream executes");
            assert_eq!(run.report, serial, "planned for {planned_threads} threads");
        }
    }

    #[test]
    fn planned_run_rejects_before_spawning_workers() {
        use std::sync::atomic::{AtomicU64, Ordering};
        static EXECUTED: AtomicU64 = AtomicU64::new(0);
        struct Counting;
        impl TileEngine for Counting {
            fn name(&self) -> &str {
                "counting"
            }
            fn lanes(&self) -> usize {
                64
            }
            fn execute(&self, task: &T1Task) -> T1Result {
                EXECUTED.fetch_add(1, Ordering::SeqCst);
                let mut r = T1Result::new(64);
                r.useful = task.products();
                r
            }
            fn network_costs(&self) -> NetworkCosts {
                NetworkCosts::flat()
            }
        }
        let tasks = driver::spmv_tasks(&demo_matrix(6));
        let stale = ShardPlan::contiguous(tasks.len() + 3, 2);
        let cfg = RuntimeConfig::with_threads(2);
        let em = EnergyModel::default();
        let err = run_tasks_planned(&cfg, &stale, &Counting, &em, Kernel::SpMV, &tasks)
            .expect_err("a stale plan must be rejected");
        assert!(matches!(err, PlannedRunError::StalePlan { .. }), "{err}");
        assert_eq!(EXECUTED.load(Ordering::SeqCst), 0, "no task may have executed");
    }

    #[test]
    fn planned_run_rejects_a_stale_plan_for_the_wrong_stream() {
        let tasks = driver::spmv_tasks(&demo_matrix(6));
        let cfg = RuntimeConfig::with_threads(2);
        let em = EnergyModel::default();
        for planned in [tasks.len() + 3, tasks.len() - 1] {
            let stale = ShardPlan::contiguous(planned, 2);
            let err = run_tasks_planned(&cfg, &stale, &Ideal, &em, Kernel::SpMV, &tasks)
                .expect_err("plan length must match the stream");
            assert_eq!(err, PlannedRunError::StalePlan { planned, tasks: tasks.len() });
            assert!(err.to_string().contains(&format!("covers {planned} tasks")), "{err}");
        }
    }
}
