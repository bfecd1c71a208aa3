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
//! [`ShardedRunError`] says. [`run_tasks_planned`] is the one entry point
//! that takes a caller's plan, and it proves that plan legal before any
//! worker spawns; only it can answer [`PlannedRunError::Rejected`].
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

/// Why a [`ShardPlan`] is illegal to execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPlanError {
    /// A shard's range is empty (`start >= end`): it would produce a
    /// report for no tasks and signals a broken planner.
    EmptyShard {
        /// Index of the degenerate shard.
        shard: usize,
    },
    /// A shard's range extends past the end of the task stream.
    OutOfRange {
        /// Index of the offending shard.
        shard: usize,
        /// The shard's (exclusive) end.
        end: usize,
        /// The stream length it overruns.
        tasks: usize,
    },
    /// Two shards both claim the same task index — executing the plan
    /// would double-count that task's contribution to every counter.
    Overlap {
        /// The later of the two claiming shards.
        shard: usize,
        /// The earlier claiming shard.
        other: usize,
        /// The doubly-claimed task index.
        task: usize,
    },
    /// A task index is claimed by no shard — executing the plan would
    /// silently drop that task from the merged report.
    Gap {
        /// The first unclaimed task index.
        task: usize,
    },
}

impl std::fmt::Display for ShardPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardPlanError::EmptyShard { shard } => {
                write!(f, "shard {shard} is empty")
            }
            ShardPlanError::OutOfRange { shard, end, tasks } => {
                write!(f, "shard {shard} ends at {end}, past the {tasks}-task stream")
            }
            ShardPlanError::Overlap { shard, other, task } => {
                write!(f, "shards {other} and {shard} both claim task {task}")
            }
            ShardPlanError::Gap { task } => {
                write!(f, "task {task} is claimed by no shard")
            }
        }
    }
}

impl std::error::Error for ShardPlanError {}

/// How a task stream is split across pool workers: a list of contiguous
/// index ranges over `0..tasks`.
///
/// A plan is *legal* when its shards are pairwise disjoint, cover every
/// task index exactly once, and none is empty or out of range —
/// [`ShardPlan::verify_before_run`] proves this before any worker is
/// spawned, and `analysis::concurrency::verify_shard_plan` turns the
/// same checks into `USTC014`–`USTC016` diagnostics. Plans built by
/// [`ShardPlan::contiguous`] are legal by construction; hand-built plans
/// ([`ShardPlan::from_ranges`]) carry whatever the caller put in them —
/// that is what the verifier is for.
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

    /// An arbitrary plan over a `tasks`-long stream. Nothing is checked
    /// here — run [`ShardPlan::verify_before_run`] (or the analysis
    /// verifier) before executing it.
    pub fn from_ranges(tasks: usize, shards: Vec<std::ops::Range<usize>>) -> Self {
        ShardPlan { tasks, shards }
    }

    /// Length of the task stream the plan covers.
    pub fn tasks(&self) -> usize {
        self.tasks
    }

    /// The shard ranges, in execution-submission order.
    pub fn shards(&self) -> &[std::ops::Range<usize>] {
        &self.shards
    }

    /// Proves the plan safe to execute: every shard in range and
    /// non-empty, shards pairwise disjoint, every task covered.
    ///
    /// This is the gate [`run_tasks_planned`] applies before spawning a
    /// single worker; the first violation (in shard order, then gap
    /// order) is returned.
    ///
    /// # Errors
    ///
    /// Returns the first [`ShardPlanError`] the plan violates.
    pub fn verify_before_run(&self) -> Result<(), ShardPlanError> {
        self.verify_for(self.tasks)
    }

    /// [`ShardPlan::verify_before_run`] against a `tasks`-long stream. A
    /// plan sized for another stream that passes still leaves a gap.
    fn verify_for(&self, tasks: usize) -> Result<(), ShardPlanError> {
        // `owner[i]` = 1 + index of the shard that claimed task i.
        let mut owner = vec![0usize; tasks];
        for (s, range) in self.shards.iter().enumerate() {
            if range.start >= range.end {
                return Err(ShardPlanError::EmptyShard { shard: s });
            }
            if range.end > tasks {
                return Err(ShardPlanError::OutOfRange { shard: s, end: range.end, tasks });
            }
            for task in range.clone() {
                if owner[task] != 0 {
                    return Err(ShardPlanError::Overlap {
                        shard: s,
                        other: owner[task] - 1,
                        task,
                    });
                }
                owner[task] = s + 1;
            }
        }
        match owner.iter().position(|&o| o == 0) {
            Some(task) => Err(ShardPlanError::Gap { task }),
            None if tasks != self.tasks => Err(ShardPlanError::Gap { task: self.tasks.min(tasks) }),
            None => Ok(()),
        }
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
    /// The plan failed [`ShardPlan::verify_before_run`]; no worker was
    /// spawned and no task executed.
    Rejected(ShardPlanError),
    /// The plan was legal but its run failed.
    Run(ShardedRunError),
}

impl std::fmt::Display for PlannedRunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlannedRunError::Rejected(e) => write!(f, "shard plan rejected: {e}"),
            PlannedRunError::Run(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for PlannedRunError {}

/// Runs a materialised task list sharded under `plan`: each shard is
/// collapsed into a [`TaskStream`] and runs through
/// [`driver::run_stream`]. The plan covers task indices and is verified
/// *before any worker is spawned*: an illegal plan (overlap, gap, empty
/// or out-of-range shard) is rejected with [`PlannedRunError::Rejected`]
/// and zero tasks execute. The merged report is bit-identical to the
/// serial driver over the same tasks.
///
/// Prefer [`run_stream_planned`], which collapses the stream once
/// instead of once per shard; this entry point serves callers that hold
/// a `Vec<T1Task>`.
///
/// # Errors
///
/// [`PlannedRunError::Rejected`] when the plan fails
/// [`ShardPlan::verify_before_run`]; [`PlannedRunError::Run`] when the
/// run fails as [`run_stream_planned`] can.
pub fn run_tasks_planned(
    cfg: &RuntimeConfig,
    plan: &ShardPlan,
    engine: &(dyn TileEngine + Sync),
    energy_model: &EnergyModel,
    kernel: Kernel,
    tasks: &[T1Task],
) -> Result<ShardedRun, PlannedRunError> {
    plan.verify_for(tasks.len()).map_err(PlannedRunError::Rejected)?;
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

/// Executes a legal plan: one pool task per shard, fold in shard order,
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
            for threads in [1, 2, 8, 64] {
                let plan = ShardPlan::contiguous(tasks, threads);
                assert_eq!(plan.tasks(), tasks);
                assert!(plan.verify_before_run().is_ok(), "tasks={tasks} threads={threads}");
                let covered: usize = plan.shards().iter().map(|r| r.len()).sum();
                assert_eq!(covered, tasks);
            }
        }
    }

    #[test]
    fn illegal_plans_are_rejected_with_the_specific_violation() {
        let overlap = ShardPlan::from_ranges(8, vec![0..5, 4..8]);
        assert_eq!(
            overlap.verify_before_run(),
            Err(ShardPlanError::Overlap { shard: 1, other: 0, task: 4 })
        );
        let gap = ShardPlan::from_ranges(8, vec![0..3, 5..8]);
        assert_eq!(gap.verify_before_run(), Err(ShardPlanError::Gap { task: 3 }));
        let empty = ShardPlan::from_ranges(4, vec![0..4, 2..2]);
        assert_eq!(empty.verify_before_run(), Err(ShardPlanError::EmptyShard { shard: 1 }));
        let oob = ShardPlan::from_ranges(4, std::iter::once(0..6).collect());
        assert_eq!(
            oob.verify_before_run(),
            Err(ShardPlanError::OutOfRange { shard: 0, end: 6, tasks: 4 })
        );
        for e in [
            overlap.verify_before_run().unwrap_err(),
            gap.verify_before_run().unwrap_err(),
        ] {
            assert!(!e.to_string().is_empty());
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
        let bad = ShardPlan::from_ranges(tasks.len(), vec![0..tasks.len(), 0..1]);
        let cfg = RuntimeConfig::with_threads(2);
        let em = EnergyModel::default();
        let before = EXECUTED.load(Ordering::SeqCst);
        let err = run_tasks_planned(&cfg, &bad, &Counting, &em, Kernel::SpMV, &tasks)
            .expect_err("overlapping plan must be rejected");
        assert!(matches!(err, PlannedRunError::Rejected(ShardPlanError::Overlap { .. })), "{err}");
        assert_eq!(EXECUTED.load(Ordering::SeqCst), before, "no task may have executed");
    }

    #[test]
    fn planned_run_rejects_a_stale_plan_for_the_wrong_stream() {
        let tasks = driver::spmv_tasks(&demo_matrix(6));
        let stale = ShardPlan::contiguous(tasks.len() + 3, 2);
        let cfg = RuntimeConfig::with_threads(2);
        let em = EnergyModel::default();
        let err = run_tasks_planned(&cfg, &stale, &Ideal, &em, Kernel::SpMV, &tasks)
            .expect_err("plan length must match the stream");
        assert!(matches!(err, PlannedRunError::Rejected(_)), "{err}");
    }

    #[test]
    fn legal_custom_plan_matches_serial_bit_for_bit() {
        let a = demo_matrix(7);
        let em = EnergyModel::default();
        let tasks = driver::spmv_tasks(&a);
        let serial = driver::run_spmv(&Ideal, &em, &a);
        // A lopsided but legal plan: one big shard plus singletons.
        let mut ranges: Vec<_> = std::iter::once(0..tasks.len() / 2).collect();
        for t in tasks.len() / 2..tasks.len() {
            ranges.push(t..t + 1);
        }
        let plan = ShardPlan::from_ranges(tasks.len(), ranges);
        let cfg = RuntimeConfig::with_threads(3);
        let run = run_tasks_planned(&cfg, &plan, &Ideal, &em, Kernel::SpMV, &tasks)
            .expect("legal plan executes");
        assert_eq!(run.report, serial);
    }
}
