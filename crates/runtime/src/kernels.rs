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
//! [`run_stream_planned`] is that parallel executor; a kernel's stream
//! comes from `driver::<kernel>_stream`, and
//! [`ShardPlan::contiguous`] splits it.
//!
//! The shards execute on the [`pool`], so they inherit its
//! resilience: a shard whose execution panics is retried and, past the
//! budget, surfaces as [`PlannedRunError::Execution`] carrying
//! [`DegradedError::RetriesExhausted`](uni_stc::multi::DegradedError);
//! injected chaos can never change the merged counters, only how long the
//! run takes.
//!
//! Worker threads also inherit the process-wide `sparse::kernels`
//! backend selection (`USTC_BACKEND` / `sparse::kernels::set_backend`)
//! — the choice is an ambient atomic, so no per-shard plumbing exists
//! and a sharded run under any backend folds to the same bit-identical
//! report as the serial driver.

use simkit::driver::{self, Kernel, KernelReport};
use simkit::{CounterOverflow, EnergyModel, T1Task, TaskStream, TileEngine};
use uni_stc::multi::DegradedError;

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
    /// Scheduler lifecycle trace (µs timestamps since the run started).
    pub trace: Vec<obs::TraceEvent>,
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
    /// overhead. The plan the service and the bench harness run.
    pub fn contiguous(tasks: usize, threads: usize) -> Self {
        let chunk = (tasks / (threads.max(1) * 4)).max(1);
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
        // `owner[i]` = 1 + index of the shard that claimed task i.
        let mut owner = vec![0usize; self.tasks];
        for (s, range) in self.shards.iter().enumerate() {
            if range.start >= range.end {
                return Err(ShardPlanError::EmptyShard { shard: s });
            }
            if range.end > self.tasks {
                return Err(ShardPlanError::OutOfRange {
                    shard: s,
                    end: range.end,
                    tasks: self.tasks,
                });
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
        if let Some(task) = owner.iter().position(|&o| o == 0) {
            return Err(ShardPlanError::Gap { task });
        }
        Ok(())
    }
}

/// Why a planned run produced no merged report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlannedRunError {
    /// The plan failed [`ShardPlan::verify_before_run`]; no worker was
    /// spawned and no task executed.
    Rejected(ShardPlanError),
    /// The plan was legal but a shard kept failing intrinsically past the
    /// retry budget.
    Execution(DegradedError),
    /// A merged report counter would exceed `u64::MAX`; the exact report
    /// is not representable.
    Overflow(CounterOverflow),
}

impl std::fmt::Display for PlannedRunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlannedRunError::Rejected(e) => write!(f, "shard plan rejected: {e}"),
            PlannedRunError::Execution(e) => write!(f, "planned run failed: {e}"),
            PlannedRunError::Overflow(e) => write!(f, "planned run failed: {e}"),
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
/// [`ShardPlan::verify_before_run`]; [`PlannedRunError::Execution`] when
/// a shard failed intrinsically past the retry budget.
pub fn run_tasks_planned(
    cfg: &RuntimeConfig,
    plan: &ShardPlan,
    engine: &(dyn TileEngine + Sync),
    energy_model: &EnergyModel,
    kernel: Kernel,
    tasks: &[T1Task],
) -> Result<ShardedRun, PlannedRunError> {
    verify_plan_for(plan, tasks.len())?;
    run_shards(cfg, plan, engine, energy_model, kernel, |range| {
        driver::run_stream(engine, energy_model, kernel, &TaskStream::from(&tasks[range]))
    })
}

/// Runs a counted [`TaskStream`] sharded across the pool. `plan` covers
/// the stream's *distinct entries* (`stream.len()`), not the tasks they
/// stand for; it is verified before any worker is spawned, exactly as in
/// [`run_tasks_planned`]. The merged report is bit-identical to
/// [`driver::run_stream`] over the whole stream.
///
/// # Errors
///
/// As [`run_tasks_planned`], plus [`PlannedRunError::Overflow`] when a
/// report counter would exceed `u64::MAX`.
pub fn run_stream_planned(
    cfg: &RuntimeConfig,
    plan: &ShardPlan,
    engine: &(dyn TileEngine + Sync),
    energy_model: &EnergyModel,
    kernel: Kernel,
    stream: &TaskStream,
) -> Result<ShardedRun, PlannedRunError> {
    verify_plan_for(plan, stream.len())?;
    run_shards(cfg, plan, engine, energy_model, kernel, |range| {
        driver::run_stream(engine, energy_model, kernel, &stream[range])
    })
}

/// Proves `plan` legal for a stream of `len` entries.
fn verify_plan_for(plan: &ShardPlan, len: usize) -> Result<(), PlannedRunError> {
    if plan.tasks() != len {
        // A plan for the wrong stream length is a coverage violation of
        // one kind or the other; surface it through the same gate.
        let stale = ShardPlan::from_ranges(len, plan.shards().to_vec());
        return match stale.verify_before_run() {
            Err(e) => Err(PlannedRunError::Rejected(e)),
            // Every shard fits inside the (longer) actual stream: the
            // plan still leaves the tail uncovered.
            Ok(()) => Err(PlannedRunError::Rejected(ShardPlanError::Gap {
                task: plan.tasks().min(len),
            })),
        };
    }
    plan.verify_before_run().map_err(PlannedRunError::Rejected)
}

/// Executes an already-verified plan: one pool task per shard, fold in
/// shard order, energy recomputed once from the merged events.
fn run_shards<F>(
    cfg: &RuntimeConfig,
    plan: &ShardPlan,
    engine: &(dyn TileEngine + Sync),
    energy_model: &EnergyModel,
    kernel: Kernel,
    run_shard: F,
) -> Result<ShardedRun, PlannedRunError>
where
    F: Fn(std::ops::Range<usize>) -> Result<KernelReport, CounterOverflow> + Sync,
{
    let run = pool::run(cfg, plan.shards(), |_, range| Ok(run_shard(range.clone())));
    // Seed the accumulator with the empty-stream report so the engine
    // name, kernel tag, lane count and zero counters match the serial
    // driver even when there are no tasks at all.
    let mut report =
        driver::run_stream(engine, energy_model, kernel, &[]).map_err(PlannedRunError::Overflow)?;
    for (index, outcome) in run.outcomes.iter().enumerate() {
        match outcome {
            TaskOutcome::Done(shard) => shard
                .as_ref()
                .map_err(|e| *e)
                .and_then(|shard| report.try_merge_scaled(shard, 1))
                .map_err(PlannedRunError::Overflow)?,
            TaskOutcome::Failed { attempts, .. } => {
                return Err(PlannedRunError::Execution(DegradedError::RetriesExhausted {
                    task: index as u64,
                    attempts: *attempts,
                }))
            }
        }
    }
    report.energy = energy_model.energy(&report.events, &engine.network_costs());
    Ok(ShardedRun {
        report,
        stats: run.stats,
        degraded: run.degraded,
        trace: run.trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::{NetworkCosts, T1Result};
    use sparse::{BbcMatrix, SparseVector};

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

    /// The parallel path the service runs: a contiguous plan over the
    /// stream's distinct entries, then [`run_stream_planned`].
    fn sharded(
        cfg: &RuntimeConfig,
        engine: &(dyn TileEngine + Sync),
        kernel: Kernel,
        stream: &TaskStream,
    ) -> Result<ShardedRun, PlannedRunError> {
        let plan = ShardPlan::contiguous(stream.len(), cfg.threads);
        run_stream_planned(cfg, &plan, engine, &EnergyModel::default(), kernel, stream)
    }

    #[test]
    fn sharded_spmv_matches_serial_bit_for_bit() {
        let a = demo_matrix(1);
        let em = EnergyModel::default();
        let serial = driver::run_spmv(&Ideal, &em, &a);
        let stream = driver::spmv_stream(&a);
        for threads in [1, 2, 8] {
            let cfg = RuntimeConfig::with_threads(threads);
            let sharded = sharded(&cfg, &Ideal, Kernel::SpMV, &stream).expect("no failures");
            assert_eq!(
                sharded.report.counter_signature(),
                serial.counter_signature(),
                "threads={threads}"
            );
            assert_eq!(sharded.report, serial, "full report, threads={threads}");
        }
    }

    #[test]
    fn sharded_run_inherits_ambient_backend() {
        // Worker threads read the process-wide backend selection; a
        // sharded run under any backend must fold to the serial
        // bitwise report bit for bit.
        use sparse::kernels::{with_backend, BackendKind};
        let a = demo_matrix(5);
        let em = EnergyModel::default();
        let serial = driver::run_spmv(&Ideal, &em, &a);
        for &kind in BackendKind::ALL {
            let sharded = with_backend(kind, || {
                let cfg = RuntimeConfig::with_threads(4);
                sharded(&cfg, &Ideal, Kernel::SpMV, &driver::spmv_stream(&a)).expect("no failures")
            });
            assert_eq!(
                sharded.report.counter_signature(),
                serial.counter_signature(),
                "backend={}",
                kind.name()
            );
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
            (driver::run_spmv(&Ideal, &em, &a), driver::spmv_stream(&a)),
            (driver::run_spmspv(&Ideal, &em, &a, &x), driver::spmspv_stream(&a, &x)),
            (driver::run_spmm(&Ideal, &em, &a, 40), driver::spmm_stream(&a, 40).expect("fits")),
            (driver::run_spgemm(&Ideal, &em, &a, &b), driver::spgemm_stream(&a, &b)),
        ];
        for (serial, stream) in cases {
            let run = sharded(&cfg, &Ideal, serial.kernel, &stream).expect("no failures");
            assert_eq!(serial.counter_signature(), run.report.counter_signature());
        }
    }

    #[test]
    fn empty_stream_matches_serial() {
        let em = EnergyModel::default();
        let cfg = RuntimeConfig::with_threads(2);
        let sharded =
            sharded(&cfg, &Ideal, Kernel::SpMM, &TaskStream::default()).expect("empty");
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
        let sharded = sharded(&cfg, &Ideal, Kernel::SpMV, &driver::spmv_stream(&a))
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
        match sharded(&cfg, &Grenade, Kernel::SpMV, &driver::spmv_stream(&a)) {
            Err(PlannedRunError::Execution(DegradedError::RetriesExhausted { attempts, .. })) => {
                assert_eq!(attempts, 2, "first try + one retry");
            }
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
    }

    #[test]
    fn planned_stream_matches_serial_at_any_thread_count() {
        use workloads::stencil::{lower, GridShape, Ordering, StencilKind};
        let a = lower(StencilKind::Star5, GridShape::D2 { nx: 40, ny: 40 }, Ordering::Tiled16).bbc;
        let em = EnergyModel::default();
        let stream = driver::spmv_stream(&a);
        assert!(stream.len() * 4 < a.block_count(), "stencil blocks repeat");
        let serial = driver::run_spmv(&Ideal, &em, &a);
        for threads in [1, 2, 8] {
            let cfg = RuntimeConfig::with_threads(threads);
            let plan = ShardPlan::contiguous(stream.len(), threads);
            let run = run_stream_planned(&cfg, &plan, &Ideal, &em, Kernel::SpMV, &stream)
                .expect("legal plan executes");
            assert_eq!(run.report, serial, "threads={threads}");
        }
        // A plan sized for the expanded task list is stale for the stream.
        let cfg = RuntimeConfig::with_threads(2);
        let stale = ShardPlan::contiguous(a.block_count(), 2);
        let err = run_stream_planned(&cfg, &stale, &Ideal, &em, Kernel::SpMV, &stream)
            .expect_err("plan covers entries, not tasks");
        assert!(matches!(err, PlannedRunError::Rejected(_)), "{err}");
    }

    #[test]
    fn planned_stream_reports_overflow() {
        let a = demo_matrix(8);
        let em = EnergyModel::default();
        let stream = driver::spmm_stream(&a, usize::MAX / 64).expect("under 2^64 tasks");
        let cfg = RuntimeConfig::with_threads(2);
        let plan = ShardPlan::contiguous(stream.len(), 2);
        let err = run_stream_planned(&cfg, &plan, &Ideal, &em, Kernel::SpMM, &stream)
            .expect_err("36 meta words per task pass 2^64");
        assert!(matches!(err, PlannedRunError::Overflow(_)), "{err}");
    }

    #[test]
    fn shard_len_scales_with_threads() {
        let first_len = |tasks, threads| ShardPlan::contiguous(tasks, threads).shards()[0].len();
        assert_eq!(first_len(100, 1), 25);
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
