//! Kernel drivers: walk a BBC matrix and feed every engine the same stream
//! of T1 tasks for the four sparse kernels.
//!
//! These are the simulator-side equivalents of the paper's Algorithms 1
//! (SpMV / SpMSpV) and 2 (SpMM / SpGEMM): the software level enumerates the
//! nonzero 16x16 blocks via the BBC outer CSR, performs the top-level
//! bitmap check (Algorithm 2 line 13) and issues one UWMMA T1 task per
//! surviving block pair. That walk is written once, as [`Invocation`];
//! the `run_<kernel>` and `<kernel>_tasks` entry points compose it.
//!
//! The bitmap algebra behind task generation (block decode,
//! [`Block16::products_with`], [`Block16::mul_structure`]) runs on
//! `sparse::kernels::BitwiseKernels`, whose every op the conformance
//! backend-equivalence sweep checks against the scalar reference.

use sparse::{BbcMatrix, SparseVector};

use crate::result::add_scaled;
use crate::stream::StreamBuilder;
use crate::{
    Block16, CounterOverflow, EnergyBreakdown, EnergyModel, EventCounts, T1Result, T1Task,
    TaskStream, TileEngine, UtilHistogram,
};

/// Metadata words fetched per issued T1 task: two 16-row operand bitmaps
/// plus pointer words (Meta Buffer traffic of Stage 1).
const META_WORDS_PER_TASK: u64 = 36;

/// A static-verification rejection: the stream verifier refused to let a
/// kernel invocation reach the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// The stable diagnostic code, e.g. `"USTC012"`.
    pub code: String,
    /// The full rendered diagnostic.
    pub message: String,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "stream rejected [{}]: {}", self.code, self.message)
    }
}

impl std::error::Error for VerifyError {}

/// A static checker a caller consults before simulating a stream.
///
/// Implementations prove stream legality without executing anything; the
/// `analysis` crate provides the canonical implementation
/// (`analysis::UstcVerifier`), which the service's admission gate runs.
/// A clean result (`Ok`) means the invocation may proceed; an error
/// carries the first error-severity diagnostic.
pub trait StreamVerifier {
    /// Statically checks an SpMV invocation on `a`.
    fn verify_spmv(&self, a: &BbcMatrix) -> Result<(), VerifyError>;
    /// Statically checks an SpMSpV invocation on `a` and `x`.
    fn verify_spmspv(&self, a: &BbcMatrix, x: &SparseVector) -> Result<(), VerifyError>;
    /// Statically checks an SpMM invocation on `a` with `n_cols` columns.
    fn verify_spmm(&self, a: &BbcMatrix, n_cols: usize) -> Result<(), VerifyError>;
    /// Statically checks an SpGEMM invocation on `a` and `b`.
    fn verify_spgemm(&self, a: &BbcMatrix, b: &BbcMatrix) -> Result<(), VerifyError>;
}

/// The four sparse kernels (Fig. 2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Sparse matrix x dense vector.
    SpMV,
    /// Sparse matrix x sparse vector.
    SpMSpV,
    /// Sparse matrix x dense matrix.
    SpMM,
    /// Sparse matrix x sparse matrix.
    SpGEMM,
}

impl std::fmt::Display for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Kernel::SpMV => write!(f, "SpMV"),
            Kernel::SpMSpV => write!(f, "SpMSpV"),
            Kernel::SpMM => write!(f, "SpMM"),
            Kernel::SpGEMM => write!(f, "SpGEMM"),
        }
    }
}

/// Aggregated result of running one kernel on one engine.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelReport {
    /// Engine display name.
    pub engine: String,
    /// Which kernel ran.
    pub kernel: Kernel,
    /// Total cycles.
    pub cycles: u64,
    /// Total useful MAC operations.
    pub useful: u64,
    /// Number of issued T1 tasks.
    pub t1_tasks: u64,
    /// Merged per-cycle lane occupancy.
    pub util: UtilHistogram,
    /// Summed hardware events.
    pub events: EventCounts,
    /// Energy under the engine's network costs.
    pub energy: EnergyBreakdown,
}

impl KernelReport {
    /// Average intermediate products per T1 task (Fig. 20's density axis).
    pub fn avg_products_per_t1(&self) -> f64 {
        if self.t1_tasks == 0 {
            0.0
        } else {
            self.useful as f64 / self.t1_tasks as f64
        }
    }

    /// Average enabled output-network scale (ports) per cycle — Fig. 19.
    pub fn avg_c_network_scale(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.events.c_ports_cycles as f64 / self.cycles as f64
        }
    }

    /// Mean MAC utilisation in `[0, 1]`.
    pub fn mean_utilisation(&self) -> f64 {
        self.util.mean_utilisation()
    }

    /// Adds `times` copies of `other`'s counters — cycles, useful MACs, T1
    /// tasks, the utilisation histogram and the events — with checked
    /// arithmetic. Energy and the name/kernel tags are left untouched:
    /// energy is recomputed once from the merged events.
    ///
    /// With `times == 1` this is the fold the runtime applies to shard
    /// reports. [`run_stream`] scales a distinct task's result by its
    /// multiplicity with the same checked adds, counter for counter.
    /// Scaling once equals folding `times` times
    /// (`analysis::concurrency::verify_scaling` checks it).
    ///
    /// # Errors
    ///
    /// [`CounterOverflow`] if a counter would exceed `u64::MAX`; the report
    /// is then partially merged and must be discarded.
    pub fn try_merge_scaled(
        &mut self,
        other: &KernelReport,
        times: u64,
    ) -> Result<(), CounterOverflow> {
        self.cycles = add_scaled(self.cycles, other.cycles, times, "cycles")?;
        self.useful = add_scaled(self.useful, other.useful, times, "useful")?;
        self.t1_tasks = add_scaled(self.t1_tasks, other.t1_tasks, times, "t1_tasks")?;
        self.util.try_merge_scaled(&other.util, times)?;
        self.events.try_add_scaled(&other.events, times)
    }

    /// The report every run starts from: the engine's name, the kernel
    /// tag, a histogram over the engine's lanes and zero counters.
    /// Runners add tasks ([`run_stream`]) or shard reports
    /// ([`KernelReport::try_merge_scaled`]) to it, then
    /// [`finish`](KernelReport::finish) it.
    pub fn start(engine: &dyn TileEngine, kernel: Kernel) -> Self {
        KernelReport {
            engine: engine.name().to_owned(),
            kernel,
            cycles: 0,
            useful: 0,
            t1_tasks: 0,
            util: UtilHistogram::new(engine.lanes()),
            events: EventCounts::default(),
            energy: EnergyBreakdown::default(),
        }
    }

    /// The report with its energy computed, once, from the merged events
    /// under the engine's network costs: every runner's last step.
    pub fn finish(mut self, engine: &dyn TileEngine, energy_model: &EnergyModel) -> Self {
        self.energy = energy_model.energy(&self.events, &engine.network_costs());
        self
    }

    /// Adds `times` copies of one non-trivial task's engine result, with
    /// the driver's per-task fix-ups: the Meta Buffer traffic of issuing
    /// the task, and the static output-network scale of engines without
    /// dynamic gating. Every counter is checked. This is the one per-task
    /// step of the counted and the traced runner.
    fn try_add_task(
        &mut self,
        engine: &dyn TileEngine,
        r: &T1Result,
        times: u64,
    ) -> Result<(), CounterOverflow> {
        let mut events = r.events;
        events.meta_words = add_scaled(events.meta_words, META_WORDS_PER_TASK, 1, "meta_words")?;
        if events.c_ports_cycles == 0 {
            // Engines without dynamic gating pay their static network scale.
            events.c_ports_cycles =
                add_scaled(0, r.cycles, engine.c_network_ports(), "c_ports_cycles")?;
        }
        self.cycles = add_scaled(self.cycles, r.cycles, times, "cycles")?;
        self.useful = add_scaled(self.useful, r.useful, times, "useful")?;
        self.t1_tasks = add_scaled(self.t1_tasks, 1, times, "t1_tasks")?;
        self.util.try_merge_scaled(&r.util, times)?;
        self.events.try_add_scaled(&events, times)
    }

    /// A stable one-line signature of the report's deterministic counters,
    /// suitable for golden-file snapshots: engine, kernel, cycles, useful
    /// MACs, T1 tasks and the event counters that drive the energy model.
    /// Floating-point quantities (energy, utilisation) are deliberately
    /// excluded so the signature is exact across platforms.
    pub fn counter_signature(&self) -> String {
        format!(
            "{} {} cycles={} useful={} t1={} meta={} mac={} sched={} cports={}",
            self.engine,
            self.kernel,
            self.cycles,
            self.useful,
            self.t1_tasks,
            self.events.meta_words,
            self.events.mac_issued,
            self.events.sched_ops,
            self.events.c_ports_cycles,
        )
    }
}

/// Runs an invocation through an engine task by task, in issue order,
/// streaming [`obs::TraceEvent`]s into `sink` as the stream executes.
/// Trivial tasks (zero intermediate products) are filtered out by the
/// software-level bitmap check and never reach the engine.
///
/// With an enabled sink the runner visits the walk's blocks in order
/// ([`Invocation::visit_block`]) and issues each entry `count` times
/// without building the task list. It keeps a global cycle cursor (tasks
/// retire back-to-back, matching the synchronous UWMMA lifecycle the
/// cycle totals assume) and re-bases each task's task-local engine trace
/// onto it, bracketing it with [`TaskIssue`](obs::TraceEvent::TaskIssue) /
/// [`TaskRetire`](obs::TraceEvent::TaskRetire) markers. With a disabled
/// sink ([`obs::NoopSink`]) it runs the counted stream, exactly as
/// `run_<kernel>`. Both paths add each task through the same checked step
/// and compute energy once from the summed events, so reports are
/// bit-identical whether or not a trace is attached.
///
/// # Panics
///
/// Panics if a report counter overflows `u64`, or if the operand shapes
/// do not conform ([`Invocation::check_shape`]); [`Invocation::stream`]
/// plus [`run_stream`] reports an overflow as an error instead.
pub fn run_traced(
    engine: &dyn TileEngine,
    energy_model: &EnergyModel,
    inv: Invocation<'_>,
    sink: &mut dyn obs::TraceSink,
) -> KernelReport {
    let kernel = inv.kernel();
    if !sink.enabled() {
        return run_counted(engine, energy_model, inv);
    }
    let mut report = KernelReport::start(engine, kernel);
    for bi in 0..inv.a().block_count() {
        inv.visit_block(bi, |task, count, _| {
            if task.is_trivial() {
                return;
            }
            for _ in 0..count {
                let (issued, start) = (report.t1_tasks, report.cycles);
                sink.record(obs::TraceEvent::TaskIssue {
                    task: issued,
                    cycle: start,
                    products: task.products(),
                });
                let r = engine.execute_traced(&task, &mut obs::OffsetSink::new(sink, start));
                assert_fits(kernel, engine, &report.try_add_task(engine, &r, 1));
                sink.record(obs::TraceEvent::TaskRetire {
                    task: issued,
                    cycle: report.cycles,
                    cycles: r.cycles,
                    useful: r.useful,
                });
            }
        });
    }
    report.finish(engine, energy_model)
}

/// Executes a counted task stream: each non-trivial distinct task runs
/// once and its result is added `multiplicity` times, with checked
/// arithmetic. Energy is computed once from the merged events.
///
/// Takes the `(task, multiplicity)` slice a [`TaskStream`] dereferences
/// to, so `&stream` and a shard `&stream[range]` both work. The report is
/// bit-identical to [`run_traced`] over the same invocation with any sink
/// (DESIGN.md §17).
///
/// # Errors
///
/// [`CounterOverflow`] if a report counter would exceed `u64::MAX`: the
/// exact report is not representable, and no wrapped value is returned.
pub fn run_stream(
    engine: &dyn TileEngine,
    energy_model: &EnergyModel,
    kernel: Kernel,
    stream: &[(T1Task, u64)],
) -> Result<KernelReport, CounterOverflow> {
    let mut report = KernelReport::start(engine, kernel);
    for (task, times) in stream {
        if !task.is_trivial() {
            report.try_add_task(engine, &engine.execute(task), *times)?;
        }
    }
    Ok(report.finish(engine, energy_model))
}

/// Panics with the overflow `run` carries, naming the kernel and the
/// engine: how the infallible runners end on an unrepresentable report.
fn assert_fits<T>(kernel: Kernel, engine: &dyn TileEngine, run: &Result<T, CounterOverflow>) {
    let overflow = run.as_ref().err();
    assert!(
        overflow.is_none(),
        "{kernel} on {}: {}",
        engine.name(),
        overflow.map_or_else(String::new, ToString::to_string)
    );
}

/// Runs an invocation's counted stream for the infallible entry points.
///
/// # Panics
///
/// Panics if building or running the stream overflows a report counter.
/// Only an SpMM whose `n_cols` is near `usize::MAX / 16` can get there;
/// the fallible path is [`Invocation::stream`] plus [`run_stream`].
fn run_counted(
    engine: &dyn TileEngine,
    energy_model: &EnergyModel,
    inv: Invocation<'_>,
) -> KernelReport {
    let kernel = inv.kernel();
    let run = inv.stream().and_then(|s| run_stream(engine, energy_model, kernel, &s));
    assert_fits(kernel, engine, &run);
    run.unwrap_or_else(|_| KernelReport::start(engine, kernel))
}

/// The operands of one kernel invocation: everything that fixes its T1
/// task stream.
///
/// Its walk is the software level of Algorithms 1 and 2: the stored
/// 16x16 blocks of `A` in storage (row-major) order, each issuing its T1
/// tasks ([`Invocation::visit_block`]). It is the one place that knows
/// which tasks, with which counts, a kernel issues, and which B block
/// each reads. The counted stream ([`Invocation::stream`]), the task list
/// ([`Invocation::tasks`]), the verifier, the UWMMA compiler, multi-unit
/// replay, the service and the numeric dataflow (`uni_stc::kernels`) all
/// read it.
#[derive(Debug, Clone, Copy)]
pub enum Invocation<'a> {
    /// SpMV (`y = A x`, dense `x`): one MV task per stored block.
    SpMV(&'a BbcMatrix),
    /// SpMSpV (`y = A x`, sparse `x`): one MV task per stored block whose
    /// 16-element `x` segment holds at least one nonzero.
    SpMSpV(&'a BbcMatrix, &'a SparseVector),
    /// SpMM (`C = A B`, dense `B` with this many columns):
    /// `ceil(n_cols / 16)` MM tasks per stored block, each against a dense
    /// B block. A zero-column `B` is a degenerate but valid request: it
    /// issues no tasks.
    SpMM(&'a BbcMatrix, usize),
    /// SpGEMM (`C = A B`, both sparse): for every stored `A(i, k)`, one MM
    /// task per stored `B(k, j)`, in B-row order. The engine-side bitmap
    /// check (Algorithm 2 line 13) drops the trivial pairs.
    SpGEMM(&'a BbcMatrix, &'a BbcMatrix),
}

impl<'a> Invocation<'a> {
    /// The kernel this invocation runs.
    pub fn kernel(&self) -> Kernel {
        match self {
            Invocation::SpMV(_) => Kernel::SpMV,
            Invocation::SpMSpV(..) => Kernel::SpMSpV,
            Invocation::SpMM(..) => Kernel::SpMM,
            Invocation::SpGEMM(..) => Kernel::SpGEMM,
        }
    }

    /// The sparse matrix `A` whose stored blocks the walk visits.
    pub fn a(&self) -> &'a BbcMatrix {
        match *self {
            Invocation::SpMV(a)
            | Invocation::SpMSpV(a, _)
            | Invocation::SpMM(a, _)
            | Invocation::SpGEMM(a, _) => a,
        }
    }

    /// The walk's shape precondition. SpGEMM needs conforming block grids
    /// (`a.block_cols() == b.block_rows()`): otherwise `B` has no block row
    /// for some block column of `A`, and the walk panics. SpMSpV needs
    /// `x.dim() == a.ncols()`: an `x` of another length would mask blocks
    /// against segments `x` does not have, so the walk panics on it too.
    /// SpMV and SpMM always conform.
    ///
    /// # Errors
    ///
    /// The message of the `USTC012` rejection that the verifier and the
    /// service report.
    pub fn check_shape(&self) -> Result<(), String> {
        match *self {
            Invocation::SpMSpV(a, x) if x.dim() != a.ncols() => Err(format!(
                "SpMSpV operand shapes do not conform: x has length {} but A is {}x{}",
                x.dim(),
                a.nrows(),
                a.ncols()
            )),
            Invocation::SpGEMM(a, b) if a.block_cols() != b.block_rows() => Err(format!(
                "SpGEMM block grids do not conform ({}x{} blocks vs {}x{})",
                a.block_rows(),
                a.block_cols(),
                b.block_rows(),
                b.block_cols()
            )),
            _ => Ok(()),
        }
    }

    /// Calls `f(task, count, b_block)` on the T1 tasks that stored block
    /// `bi` of `A` issues, in issue order. Every count is at least 1: an
    /// SpMM block issues its full-width B blocks as one entry and the
    /// narrower tail as a second, so a visit costs the same at any
    /// `n_cols`; every other task has count 1. Trivial tasks are not
    /// filtered out: the engine-side bitmap check drops them.
    ///
    /// `b_block` names the B operand block the entry reads: for SpMV and
    /// SpMSpV the `x` segment (the A block's column); for SpMM the first
    /// of the entry's `count` consecutive 16-column blocks of `B` (0 for
    /// the full-width entry, `n_cols / 16` for the tail); for SpGEMM the
    /// stored block index of `B`.
    ///
    /// # Panics
    ///
    /// Panics if `bi >= a.block_count()`, or if the operand shapes do not
    /// conform ([`Invocation::check_shape`]).
    pub fn visit_block(&self, bi: usize, mut f: impl FnMut(T1Task, u64, usize)) {
        let blk = self.a().block(bi);
        match *self {
            Invocation::SpMV(_) => {
                f(T1Task::mv(Block16::from_bbc(&blk), u16::MAX), 1, blk.block_col);
            }
            Invocation::SpMSpV(a, x) => {
                assert_eq!(x.dim(), a.ncols(), "SpMSpV operand shapes do not conform");
                let mask = x.segment_mask16(blk.block_col);
                if mask != 0 {
                    f(T1Task::mv(Block16::from_bbc(&blk), mask), 1, blk.block_col);
                }
            }
            Invocation::SpMM(_, n_cols) => {
                let a_bits = Block16::from_bbc(&blk);
                let (full, tail) = (n_cols / 16, n_cols % 16);
                if full > 0 {
                    f(T1Task::mm(a_bits, Block16::dense()), full as u64, 0);
                }
                if tail > 0 {
                    f(T1Task::mm(a_bits, Block16::dense().keep_cols(tail)), 1, full);
                }
            }
            Invocation::SpGEMM(a, b) => {
                assert_eq!(a.block_cols(), b.block_rows(), "SpGEMM block grids do not conform");
                let a_bits = Block16::from_bbc(&blk);
                for bj in b.blocks_in_row(blk.block_col) {
                    f(T1Task::mm(a_bits, Block16::from_bbc(&b.block(bj))), 1, bj);
                }
            }
        }
    }

    /// The invocation's counted stream: each distinct T1 task once, at its
    /// first appearance in issue order, with its multiplicity. This is the
    /// stream [`run_stream`] executes, the verifier checks and the service
    /// caches; it is built without materialising the task list, in
    /// O(blocks) host memory for any `n_cols`.
    ///
    /// # Errors
    ///
    /// [`CounterOverflow`] if the stream stands for more than `u64::MAX`
    /// tasks (SpMM only).
    ///
    /// # Panics
    ///
    /// As [`Invocation::visit_block`], for operand shapes that do not
    /// conform.
    pub fn stream(&self) -> Result<TaskStream, CounterOverflow> {
        self.stream_of(0..self.a().block_count())
    }

    /// [`Invocation::stream`] over the stored blocks `blocks` only, in the
    /// order given (the blocks one multi-unit replay unit owns). Errors
    /// and panics as `stream`, and panics on a block index out of range.
    pub fn stream_of(
        &self,
        blocks: impl IntoIterator<Item = usize>,
    ) -> Result<TaskStream, CounterOverflow> {
        let mut stream = StreamBuilder::default();
        let mut built = Ok(());
        for bi in blocks {
            self.visit_block(bi, |task, count, _| {
                built = built.and_then(|()| stream.push(task, count));
            });
        }
        built.map(|()| stream.finish())
    }

    /// The invocation's T1 tasks one by one, in issue order: the
    /// expansion of [`Invocation::stream`], for a caller that shards the
    /// task list itself (`runtime::run_tasks_planned`) or checks a stream
    /// against it.
    ///
    /// # Panics
    ///
    /// As [`Invocation::stream`].
    pub fn tasks(&self) -> Vec<T1Task> {
        let mut tasks = Vec::new();
        for bi in 0..self.a().block_count() {
            self.visit_block(bi, |task, count, _| {
                tasks.extend(std::iter::repeat_n(task, count as usize));
            });
        }
        tasks
    }
}

/// SpMV (`y = A x`, dense `x`): the counted stream of
/// [`Invocation::SpMV`].
pub fn run_spmv(
    engine: &dyn TileEngine,
    energy_model: &EnergyModel,
    a: &BbcMatrix,
) -> KernelReport {
    run_counted(engine, energy_model, Invocation::SpMV(a))
}

/// The tasks of [`Invocation::SpMV`] ([`Invocation::tasks`]).
pub fn spmv_tasks(a: &BbcMatrix) -> Vec<T1Task> {
    Invocation::SpMV(a).tasks()
}

/// SpMV under a fault plan: injects bit flips into a copy of `a`, checks
/// the damage, and runs the kernel on the corrupted copy *unless*
/// validation caught the corruption — in which case the run falls back to
/// the pristine matrix (modelling a re-read from protected storage, which
/// corrects every detected fault; `faults_uncorrected` therefore stays 0
/// here). Undetected faults flow into the run silently, exactly as real
/// soft errors would.
///
/// The fault counters land in the report's [`EventCounts`].
pub fn run_spmv_faulted(
    engine: &dyn TileEngine,
    energy_model: &EnergyModel,
    a: &BbcMatrix,
    plan: &crate::fault::FaultPlan,
) -> KernelReport {
    let (corrupted, outcome) = plan.inject_into(a);
    let src = if outcome.structure_corrupt { a } else { &corrupted };
    let mut rep = run_spmv(engine, energy_model, src);
    rep.events.faults_injected = outcome.log.injected();
    rep.events.faults_detected = outcome.detected;
    rep
}

/// SpMSpV (`y = A x`, sparse `x`): the counted stream of
/// [`Invocation::SpMSpV`].
///
/// # Panics
///
/// Panics if `x.dim() != a.ncols()` ([`Invocation::check_shape`]).
pub fn run_spmspv(
    engine: &dyn TileEngine,
    energy_model: &EnergyModel,
    a: &BbcMatrix,
    x: &SparseVector,
) -> KernelReport {
    run_counted(engine, energy_model, Invocation::SpMSpV(a, x))
}

/// The tasks of [`Invocation::SpMSpV`] ([`Invocation::tasks`]).
///
/// # Panics
///
/// Panics if `x.dim() != a.ncols()` ([`Invocation::check_shape`]).
pub fn spmspv_tasks(a: &BbcMatrix, x: &SparseVector) -> Vec<T1Task> {
    Invocation::SpMSpV(a, x).tasks()
}

/// SpMM (`C = A B`, dense `B` with `n_cols` columns): the counted stream
/// of [`Invocation::SpMM`].
///
/// # Panics
///
/// Panics if a report counter overflows `u64` (an `n_cols` in the order
/// of `usize::MAX / 16`); [`Invocation::stream`] with [`run_stream`]
/// reports it as an error instead.
pub fn run_spmm(
    engine: &dyn TileEngine,
    energy_model: &EnergyModel,
    a: &BbcMatrix,
    n_cols: usize,
) -> KernelReport {
    run_counted(engine, energy_model, Invocation::SpMM(a, n_cols))
}

/// The tasks of [`Invocation::SpMM`] ([`Invocation::tasks`]).
pub fn spmm_tasks(a: &BbcMatrix, n_cols: usize) -> Vec<T1Task> {
    Invocation::SpMM(a, n_cols).tasks()
}

/// SpGEMM (`C = A B`, both sparse): the counted stream of
/// [`Invocation::SpGEMM`].
///
/// # Panics
///
/// Panics if the block grids do not conform (`a.block_cols() !=
/// b.block_rows()`).
pub fn run_spgemm(
    engine: &dyn TileEngine,
    energy_model: &EnergyModel,
    a: &BbcMatrix,
    b: &BbcMatrix,
) -> KernelReport {
    run_counted(engine, energy_model, Invocation::SpGEMM(a, b))
}

/// The tasks of [`Invocation::SpGEMM`] ([`Invocation::tasks`]).
///
/// # Panics
///
/// Panics if the block grids do not conform.
pub fn spgemm_tasks(a: &BbcMatrix, b: &BbcMatrix) -> Vec<T1Task> {
    Invocation::SpGEMM(a, b).tasks()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetworkCosts;
    use sparse::{CooMatrix, CsrMatrix};

    /// A reference engine: perfect packing, one write per output.
    struct Ideal;

    impl TileEngine for Ideal {
        fn name(&self) -> &str {
            "ideal"
        }
        fn lanes(&self) -> usize {
            64
        }
        fn execute(&self, task: &T1Task) -> T1Result {
            let mut r = crate::T1Result::new(64);
            let mut left = task.products();
            while left > 0 {
                let used = left.min(64) as usize;
                r.record_cycle(used);
                left -= used as u64;
            }
            r.useful = task.products();
            r.events.c_writes = task.c_nnz() as u64;
            r
        }
        fn network_costs(&self) -> NetworkCosts {
            NetworkCosts::flat()
        }
    }

    use crate::T1Result;

    fn bbc_from(entries: &[(usize, usize)], n: usize) -> BbcMatrix {
        let mut coo = CooMatrix::new(n, n);
        for &(r, c) in entries {
            coo.push(r, c, 1.0);
        }
        BbcMatrix::from_csr(&CsrMatrix::try_from(coo).unwrap())
    }

    #[test]
    fn spmv_issues_one_task_per_block() {
        let a = bbc_from(&[(0, 0), (20, 20), (40, 0)], 48);
        let rep = run_spmv(&Ideal, &EnergyModel::default(), &a);
        assert_eq!(rep.t1_tasks, 3);
        assert_eq!(rep.useful, 3); // one product per single-nonzero block
        assert_eq!(rep.cycles, 3);
        assert_eq!(rep.kernel, Kernel::SpMV);
    }

    #[test]
    fn spmspv_skips_masked_blocks() {
        let a = bbc_from(&[(0, 0), (0, 20)], 32);
        // x nonzero only in segment 1 (indices 16..32).
        let x = SparseVector::try_new(32, vec![20], vec![1.0]).unwrap();
        let rep = run_spmspv(&Ideal, &EnergyModel::default(), &a, &x);
        assert_eq!(rep.t1_tasks, 1);
        assert_eq!(rep.useful, 1);
    }

    #[test]
    fn spmspv_mask_drops_products() {
        let a = bbc_from(&[(0, 0), (0, 5)], 16);
        let x = SparseVector::try_new(16, vec![5], vec![1.0]).unwrap();
        let rep = run_spmspv(&Ideal, &EnergyModel::default(), &a, &x);
        // Only the (0,5) entry meets a nonzero x element.
        assert_eq!(rep.useful, 1);
    }

    #[test]
    fn spmm_scales_with_column_blocks() {
        let a = bbc_from(&[(0, 0)], 16);
        let r64 = run_spmm(&Ideal, &EnergyModel::default(), &a, 64);
        assert_eq!(r64.t1_tasks, 4);
        assert_eq!(r64.useful, 4 * 16);
        let r20 = run_spmm(&Ideal, &EnergyModel::default(), &a, 20);
        assert_eq!(r20.t1_tasks, 2);
        assert_eq!(r20.useful, 16 + 4);
    }

    #[test]
    fn spmm_zero_columns_yields_empty_report() {
        let a = bbc_from(&[(0, 0), (5, 5)], 16);
        let rep = run_spmm(&Ideal, &EnergyModel::default(), &a, 0);
        assert_eq!(rep.t1_tasks, 0);
        assert_eq!(rep.cycles, 0);
        assert_eq!(rep.useful, 0);
        assert_eq!(rep.kernel, Kernel::SpMM);
    }

    #[test]
    fn spgemm_enumerates_block_pairs() {
        // A = identity-ish blocks at (0,0) and (1,1); squaring it yields one
        // task per diagonal block.
        let a = bbc_from(&[(0, 0), (17, 17)], 32);
        let rep = run_spgemm(&Ideal, &EnergyModel::default(), &a, &a);
        assert_eq!(rep.t1_tasks, 2);
        assert_eq!(rep.useful, 2);
    }

    #[test]
    fn spgemm_drops_trivial_pairs() {
        // A(0,0) uses k-column 0 only; B(0,0) provides k-row 5 only: the
        // block pair survives the block enumeration but the bitmap check
        // kills it.
        let a = bbc_from(&[(0, 0)], 16);
        let b = bbc_from(&[(5, 0)], 16);
        let rep = run_spgemm(&Ideal, &EnergyModel::default(), &a, &b);
        assert_eq!(rep.t1_tasks, 0);
        assert_eq!(rep.cycles, 0);
    }

    #[test]
    fn report_averages() {
        let a = bbc_from(&[(0, 0), (0, 1), (1, 0)], 16);
        let rep = run_spmv(&Ideal, &EnergyModel::default(), &a);
        assert!((rep.avg_products_per_t1() - 3.0).abs() < 1e-12);
        assert!(rep.mean_utilisation() > 0.0);
        // Static network scale: 64x256 ports per cycle.
        assert!((rep.avg_c_network_scale() - 16384.0).abs() < 1e-9);
    }

    #[test]
    fn counter_signature_is_stable_and_exact() {
        let a = bbc_from(&[(0, 0), (20, 20)], 32);
        let rep = run_spmv(&Ideal, &EnergyModel::default(), &a);
        let sig = rep.counter_signature();
        assert_eq!(sig, rep.counter_signature());
        assert!(sig.starts_with("ideal SpMV "), "{sig}");
        assert!(sig.contains("useful=2"), "{sig}");
        assert!(sig.contains("t1=2"), "{sig}");
    }

    #[test]
    fn traced_run_brackets_every_task() {
        let a = bbc_from(&[(0, 0), (20, 20), (40, 0)], 48);
        let mut trace: Vec<obs::TraceEvent> = Vec::new();
        let em = EnergyModel::default();
        let rep = run_traced(&Ideal, &em, Invocation::SpMV(&a), &mut trace);
        let issues = trace
            .iter()
            .filter(|e| matches!(e, obs::TraceEvent::TaskIssue { .. }))
            .count();
        let retires: Vec<u64> = trace
            .iter()
            .filter_map(|e| match e {
                obs::TraceEvent::TaskRetire { cycle, .. } => Some(*cycle),
                _ => None,
            })
            .collect();
        assert_eq!(issues as u64, rep.t1_tasks);
        assert_eq!(retires.len() as u64, rep.t1_tasks);
        // The last retire lands exactly on the report's cycle total.
        assert_eq!(retires.last().copied(), Some(rep.cycles));
        // Retires are on the monotone global timeline.
        assert!(retires.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn noop_sink_report_matches_untraced_run() {
        let a = bbc_from(&[(0, 0), (0, 1), (20, 20)], 32);
        let plain = run_spmv(&Ideal, &EnergyModel::default(), &a);
        let em = EnergyModel::default();
        let noop = &mut obs::NoopSink;
        let traced = run_traced(&Ideal, &em, Invocation::SpMV(&a), noop);
        assert_eq!(plain, traced);
    }

    /// Every task of the ordered path, with a recording sink.
    fn ordered(inv: Invocation<'_>) -> KernelReport {
        let mut trace: Vec<obs::TraceEvent> = Vec::new();
        let rep = run_traced(&Ideal, &EnergyModel::default(), inv, &mut trace);
        assert!(!trace.is_empty() || rep.t1_tasks == 0);
        rep
    }

    /// An engine whose every task takes half of the `u64` cycle range,
    /// with a one-port output network so that only `cycles` can overflow.
    struct Huge;

    impl TileEngine for Huge {
        fn name(&self) -> &str {
            "huge"
        }
        fn lanes(&self) -> usize {
            64
        }
        fn execute(&self, _task: &T1Task) -> T1Result {
            T1Result { cycles: u64::MAX / 2 + 1, ..T1Result::new(64) }
        }
        fn network_costs(&self) -> NetworkCosts {
            NetworkCosts::flat()
        }
        fn c_network_ports(&self) -> u64 {
            1
        }
    }

    #[test]
    #[should_panic(expected = "SpMV on huge: report counter `cycles` overflows u64")]
    fn traced_run_panics_on_overflow_instead_of_wrapping() {
        // Two distinct blocks: the second task's cycles pass 2^64.
        let a = bbc_from(&[(0, 0), (20, 20)], 32);
        let (inv, em) = (Invocation::SpMV(&a), EnergyModel::default());
        let err = run_stream(&Huge, &em, Kernel::SpMV, &inv.stream().unwrap()).unwrap_err();
        assert_eq!(err, CounterOverflow { counter: "cycles" });
        run_traced(&Huge, &em, inv, &mut Vec::<obs::TraceEvent>::new());
    }

    #[test]
    fn counted_run_equals_ordered_run() {
        // Repeated block patterns: four identical diagonal blocks, two
        // identical single-entry blocks and one dense row block.
        let mut entries = Vec::new();
        for b in 0..4 {
            entries.extend((0..16).map(|i| (16 * b + i, 16 * b + i)));
        }
        entries.extend([(64, 0), (80, 16)]);
        entries.extend((0..16).map(|c| (96, c)));
        let a = bbc_from(&entries, 112);
        let x = SparseVector::try_new(112, vec![0, 16, 32, 48, 96], vec![1.0; 5]).unwrap();
        let em = EnergyModel::default();
        let cases = [
            Invocation::SpMV(&a),
            Invocation::SpMSpV(&a, &x),
            Invocation::SpMM(&a, 40),
            Invocation::SpGEMM(&a, &a),
        ];
        for inv in cases {
            let (kernel, tasks, stream) = (inv.kernel(), inv.tasks(), inv.stream().unwrap());
            assert_eq!(stream, TaskStream::from(&tasks[..]), "{kernel}");
            assert!(stream.len() < tasks.len(), "{kernel}: patterns repeat");
            let counted = run_stream(&Ideal, &em, kernel, &stream).unwrap();
            assert_eq!(counted, ordered(inv), "{kernel}");
        }
    }

    #[test]
    fn spmm_stream_matches_the_task_list_at_every_width() {
        let a = bbc_from(&[(0, 0), (0, 1), (20, 20), (40, 3)], 48);
        for n_cols in [0, 1, 15, 16, 17, 32, 33, 100] {
            let inv = Invocation::SpMM(&a, n_cols);
            let stream = inv.stream().unwrap();
            assert_eq!(stream, TaskStream::from(&inv.tasks()[..]), "n_cols={n_cols}");
            assert!(stream.len() <= 2 * a.block_count(), "n_cols={n_cols}");
        }
    }

    /// A block holding the single entry `(r, c)`.
    fn one(r: usize, c: usize) -> Block16 {
        Block16::from_fn(|i, j| (i, j) == (r, c))
    }

    #[test]
    fn every_kernel_issues_its_tasks_in_the_pinned_order() {
        // Stored blocks in issue order: A(0,0) = p, A(0,2) = p, A(1,1) = q,
        // A(2,0) = p, A(2,1) = q.
        let a = bbc_from(&[(0, 0), (0, 32), (17, 17), (32, 0), (33, 17)], 48);
        let (p, q) = (one(0, 0), one(1, 1));
        let stream = |inv: Invocation<'_>| inv.stream().unwrap().to_vec();
        // The `(count, b_block)` of every entry of the walk, in issue order.
        let b_blocks = |inv: Invocation<'_>| {
            let mut entries = Vec::new();
            for bi in 0..inv.a().block_count() {
                inv.visit_block(bi, |_, count, b| entries.push((count, b)));
            }
            entries
        };

        // Repeats merge at their first appearance.
        let dense_x = |bits| T1Task::mv(bits, u16::MAX);
        assert_eq!(stream(Invocation::SpMV(&a)), [(dense_x(p), 3), (dense_x(q), 2)]);
        // Each block reads the x segment of its own block column.
        assert_eq!(b_blocks(Invocation::SpMV(&a)), [(1, 0), (1, 2), (1, 1), (1, 0), (1, 1)]);

        // x is nonzero at 0 and 17 only: A(0,2) meets an empty segment
        // and issues nothing.
        let x = SparseVector::try_new(48, vec![0, 17], vec![1.0, 1.0]).unwrap();
        let (px, qx) = (T1Task::mv(p, 0b01), T1Task::mv(q, 0b10));
        assert_eq!(Invocation::SpMSpV(&a, &x).tasks(), [px, qx, px, qx]);
        assert_eq!(stream(Invocation::SpMSpV(&a, &x)), [(px, 2), (qx, 2)]);
        assert_eq!(b_blocks(Invocation::SpMSpV(&a, &x)), [(1, 0), (1, 1), (1, 0), (1, 1)]);

        // SpMM: full-width B blocks, then the tail, per A block.
        let mm = |bits, width| T1Task::mm(bits, Block16::dense().keep_cols(width));
        assert_eq!(stream(Invocation::SpMM(&a, 0)), []);
        assert_eq!(stream(Invocation::SpMM(&a, 16)), [(mm(p, 16), 3), (mm(q, 16), 2)]);
        assert_eq!(
            Invocation::SpMM(&a, 17).tasks(),
            [mm(p, 16), mm(p, 1), mm(p, 16), mm(p, 1), mm(q, 16), mm(q, 1)]
                .into_iter()
                .chain([mm(p, 16), mm(p, 1), mm(q, 16), mm(q, 1)])
                .collect::<Vec<_>>()
        );
        assert_eq!(
            stream(Invocation::SpMM(&a, 17)),
            [(mm(p, 16), 3), (mm(p, 1), 3), (mm(q, 16), 2), (mm(q, 1), 2)]
        );
        assert_eq!(
            stream(Invocation::SpMM(&a, 40)),
            [(mm(p, 16), 6), (mm(p, 8), 3), (mm(q, 16), 4), (mm(q, 8), 2)]
        );
        // The full-width entry starts at B column block 0, the tail at
        // `n_cols / 16`.
        assert_eq!(b_blocks(Invocation::SpMM(&a, 0)), []);
        assert_eq!(b_blocks(Invocation::SpMM(&a, 16)), [(1, 0); 5]);
        assert_eq!(b_blocks(Invocation::SpMM(&a, 17)), [(1, 0), (1, 1)].repeat(5));
        assert_eq!(b_blocks(Invocation::SpMM(&a, 40)), [(2, 0), (1, 2)].repeat(5));

        // SpGEMM: A blocks row-major, each against its B row in order.
        // B(0,0) = r1, B(0,1) = r2, B(1,0) = r3, B(2,2) = r4.
        let b = bbc_from(&[(2, 2), (3, 19), (20, 4), (37, 37)], 48);
        let (r1, r2, r3, r4) = (one(2, 2), one(3, 3), one(4, 4), one(5, 5));
        let pair = T1Task::mm;
        assert_eq!(
            Invocation::SpGEMM(&a, &b).tasks(),
            [pair(p, r1), pair(p, r2), pair(p, r4), pair(q, r3)]
                .into_iter()
                .chain([pair(p, r1), pair(p, r2), pair(q, r3)])
                .collect::<Vec<_>>()
        );
        assert_eq!(
            stream(Invocation::SpGEMM(&a, &b)),
            [(pair(p, r1), 2), (pair(p, r2), 2), (pair(p, r4), 1), (pair(q, r3), 2)]
        );
        // B's stored block indices: B(0,0) = 0, B(0,1) = 1, B(1,0) = 2,
        // B(2,2) = 3.
        assert_eq!(
            b_blocks(Invocation::SpGEMM(&a, &b)),
            [(1, 0), (1, 1), (1, 3), (1, 2), (1, 0), (1, 1), (1, 2)]
        );
    }

    #[test]
    #[should_panic(expected = "SpMSpV operand shapes do not conform")]
    fn spmspv_with_a_short_x_panics() {
        // x covers segment 0 only: the block in column 1 would be masked
        // against a segment x does not have.
        let a = bbc_from(&[(0, 0), (20, 20)], 32);
        let x = SparseVector::try_new(16, vec![0], vec![1.0]).unwrap();
        run_spmspv(&Ideal, &EnergyModel::default(), &a, &x);
    }

    #[test]
    fn huge_spmm_overflows_as_a_typed_error() {
        let n_cols = usize::MAX / 2;
        let a = bbc_from(&[(0, 0)], 16);
        // Two entries (full width and tail) stand for ~2^59 tasks.
        let stream = Invocation::SpMM(&a, n_cols).stream().unwrap();
        assert_eq!(stream.len(), 2);
        assert_eq!(stream.total(), n_cols.div_ceil(16) as u64);
        let err = run_stream(&Ideal, &EnergyModel::default(), Kernel::SpMM, &stream).unwrap_err();
        assert_eq!(err.counter, "meta_words", "36 words per task pass 2^64 first");

        // 64 blocks of one pattern: the multiplicities alone pass 2^64.
        let wide: Vec<(usize, usize)> = (0..64).map(|b| (16 * b, 16 * b)).collect();
        let err = Invocation::SpMM(&bbc_from(&wide, 1024), n_cols).stream().unwrap_err();
        assert_eq!(err.counter, "t1_tasks");
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn infallible_spmm_panics_instead_of_wrapping() {
        run_spmm(&Ideal, &EnergyModel::default(), &bbc_from(&[(0, 0)], 16), usize::MAX / 2);
    }

    #[test]
    fn meta_words_accumulate_per_task() {
        let a = bbc_from(&[(0, 0), (20, 20)], 32);
        let rep = run_spmv(&Ideal, &EnergyModel::default(), &a);
        assert_eq!(rep.events.meta_words, 2 * META_WORDS_PER_TASK);
    }
}
