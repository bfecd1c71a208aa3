//! Kernel drivers: walk a BBC matrix and feed every engine the same stream
//! of T1 tasks for the four sparse kernels.
//!
//! These are the simulator-side equivalents of the paper's Algorithms 1
//! (SpMV / SpMSpV) and 2 (SpMM / SpGEMM): the software level enumerates the
//! nonzero 16x16 blocks via the BBC outer CSR, performs the top-level
//! bitmap check (Algorithm 2 line 13) and issues one UWMMA T1 task per
//! surviving block pair.
//!
//! The bitmap algebra behind task generation (block decode,
//! [`Block16::products_with`], [`Block16::mul_structure`]) dispatches
//! through the process-wide `sparse::kernels` backend (`USTC_BACKEND`
//! env / `sparse::kernels::set_backend`). Backends change only host
//! wall-clock: every counter a driver reports — cycles, products, task
//! counts, event traffic — is bit-identical across backends, which the
//! conformance backend-equivalence sweep pins.

use sparse::{BbcMatrix, SparseVector};

use crate::result::add_scaled;
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
    /// reports; with the multiplicity of a distinct task it is the scaling
    /// [`run_stream`] applies. Scaling once equals folding `times` times
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

/// Runs a stream of T1 tasks through an engine in order, streaming
/// [`obs::TraceEvent`]s into `sink` as the stream executes. Trivial tasks
/// (zero intermediate products) are filtered out by the software-level
/// bitmap check and never reach the engine.
///
/// The driver maintains a global cycle cursor (tasks retire back-to-back,
/// matching the synchronous UWMMA lifecycle the cycle totals assume) and
/// re-bases each task's task-local engine trace onto it, bracketing it with
/// [`TaskIssue`](obs::TraceEvent::TaskIssue) /
/// [`TaskRetire`](obs::TraceEvent::TaskRetire) markers. This ordered,
/// task-by-task path runs only when the sink is enabled, because it needs
/// a timestamp per task. With a disabled sink ([`obs::NoopSink`]) the
/// stream is collapsed into a [`TaskStream`] and runs counted
/// ([`run_stream`]); every field of the report is an integer sum (energy
/// is computed once from the summed events), so reports are bit-identical
/// whether or not a trace is attached.
///
/// # Panics
///
/// Panics if a report counter overflows `u64`. That takes upwards of
/// 2^40 tasks, far more than any task list holds or an iterator yields in
/// practice; [`run_stream`] reports it as an error instead.
pub fn run_tasks_traced<I>(
    engine: &dyn TileEngine,
    energy_model: &EnergyModel,
    kernel: Kernel,
    tasks: I,
    sink: &mut dyn obs::TraceSink,
) -> KernelReport
where
    I: IntoIterator<Item = T1Task>,
{
    if !sink.enabled() {
        let stream: TaskStream = tasks.into_iter().collect();
        return fitted(engine, energy_model, kernel, Ok(stream));
    }
    let mut report = empty_report(engine, energy_model, kernel);
    for task in tasks {
        if task.is_trivial() {
            continue;
        }
        sink.record(obs::TraceEvent::TaskIssue {
            task: report.t1_tasks,
            cycle: report.cycles,
            products: task.products(),
        });
        let shifted = &mut obs::OffsetSink::new(sink, report.cycles);
        let r = fix_up(engine, engine.execute_traced(&task, shifted));
        report.cycles += r.cycles;
        report.useful += r.useful;
        sink.record(obs::TraceEvent::TaskRetire {
            task: report.t1_tasks,
            cycle: report.cycles,
            cycles: r.cycles,
            useful: r.useful,
        });
        report.t1_tasks += 1;
        report.util.merge(&r.util);
        report.events += r.events;
    }
    report.energy = energy_model.energy(&report.events, &engine.network_costs());
    report
}

/// Executes a counted task stream: each non-trivial distinct task runs
/// once and its result is added `multiplicity` times, with checked
/// arithmetic ([`KernelReport::try_merge_scaled`]). Energy is computed
/// once from the merged events.
///
/// Takes the `(task, multiplicity)` slice a [`TaskStream`] dereferences
/// to, so `&stream` and a shard `&stream[range]` both work. The report is
/// bit-identical to [`run_tasks_traced`] over the expanded task list with
/// any sink (DESIGN.md §17).
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
    let mut report = empty_report(engine, energy_model, kernel);
    for (task, times) in stream {
        if task.is_trivial() {
            continue;
        }
        let r = fix_up(engine, engine.execute(task));
        let single = KernelReport {
            engine: String::new(),
            kernel,
            cycles: r.cycles,
            useful: r.useful,
            t1_tasks: 1,
            util: r.util,
            events: r.events,
            energy: EnergyBreakdown::default(),
        };
        report.try_merge_scaled(&single, *times)?;
    }
    report.energy = energy_model.energy(&report.events, &engine.network_costs());
    Ok(report)
}

/// The driver's per-task fix-ups to an engine result: the Meta Buffer
/// traffic of issuing the task, and the static output-network scale of
/// engines without dynamic gating.
fn fix_up(engine: &dyn TileEngine, mut r: T1Result) -> T1Result {
    r.events.meta_words += META_WORDS_PER_TASK;
    if r.events.c_ports_cycles == 0 {
        // Engines without dynamic gating pay their static network scale.
        r.events.c_ports_cycles = r.cycles * engine.c_network_ports();
    }
    r
}

/// The report of an empty stream: the engine's name, the kernel tag, zero
/// counters and the energy of zero events.
fn empty_report(
    engine: &dyn TileEngine,
    energy_model: &EnergyModel,
    kernel: Kernel,
) -> KernelReport {
    let events = EventCounts::default();
    KernelReport {
        engine: engine.name().to_owned(),
        kernel,
        cycles: 0,
        useful: 0,
        t1_tasks: 0,
        util: UtilHistogram::new(engine.lanes()),
        events,
        energy: energy_model.energy(&events, &engine.network_costs()),
    }
}

/// Runs a counted stream for the infallible `run_*` entry points.
///
/// # Panics
///
/// Panics if building or running the stream overflows a report counter.
/// Only an SpMM whose `n_cols` is near `usize::MAX / 16` can get there;
/// the fallible path is [`spmm_stream`] plus [`run_stream`].
fn fitted(
    engine: &dyn TileEngine,
    energy_model: &EnergyModel,
    kernel: Kernel,
    stream: Result<TaskStream, CounterOverflow>,
) -> KernelReport {
    let run = stream.and_then(|s| run_stream(engine, energy_model, kernel, &s));
    assert!(
        run.is_ok(),
        "{kernel} on {}: {}",
        engine.name(),
        run.as_ref().map_or_else(ToString::to_string, |_| String::new())
    );
    run.unwrap_or_else(|_| empty_report(engine, energy_model, kernel))
}

/// The T1 task stream of an SpMV invocation, in stored-block order: one MV
/// task per stored 16x16 block of `A`.
///
/// This is the task list [`run_spmv`] executes (in counted form,
/// [`spmv_stream`]); materialising it lets a scheduler shard the same
/// tasks across workers and still merge a bit-identical [`KernelReport`].
pub fn spmv_tasks(a: &BbcMatrix) -> Vec<T1Task> {
    spmv_iter(a).collect()
}

/// [`spmv_tasks`] in counted form.
pub fn spmv_stream(a: &BbcMatrix) -> TaskStream {
    spmv_iter(a).collect()
}

fn spmv_iter(a: &BbcMatrix) -> impl Iterator<Item = T1Task> + '_ {
    a.blocks().map(|blk| T1Task::mv(Block16::from_bbc(&blk), u16::MAX))
}

/// SpMV (`y = A x`, dense `x`): one MV task per stored 16x16 block of `A`.
pub fn run_spmv(
    engine: &dyn TileEngine,
    energy_model: &EnergyModel,
    a: &BbcMatrix,
) -> KernelReport {
    fitted(engine, energy_model, Kernel::SpMV, Ok(spmv_stream(a)))
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

/// SpMSpV (`y = A x`, sparse `x`): one MV task per stored block whose
/// 16-element x-segment holds at least one nonzero.
pub fn run_spmspv(
    engine: &dyn TileEngine,
    energy_model: &EnergyModel,
    a: &BbcMatrix,
    x: &SparseVector,
) -> KernelReport {
    fitted(engine, energy_model, Kernel::SpMSpV, Ok(spmspv_stream(a, x)))
}

/// The T1 task stream of an SpMSpV invocation (see [`spmv_tasks`]): stored
/// blocks whose 16-element x-segment holds at least one nonzero.
pub fn spmspv_tasks(a: &BbcMatrix, x: &SparseVector) -> Vec<T1Task> {
    spmspv_iter(a, x).collect()
}

/// [`spmspv_tasks`] in counted form.
pub fn spmspv_stream(a: &BbcMatrix, x: &SparseVector) -> TaskStream {
    spmspv_iter(a, x).collect()
}

fn spmspv_iter<'a>(a: &'a BbcMatrix, x: &'a SparseVector) -> impl Iterator<Item = T1Task> + 'a {
    a.blocks().filter_map(|blk| {
        let mask = x.segment_mask16(blk.block_col);
        if mask == 0 {
            None
        } else {
            Some(T1Task::mv(Block16::from_bbc(&blk), mask))
        }
    })
}

/// SpMM (`C = A B`, dense `B` with `n_cols` columns): `ceil(n_cols / 16)`
/// MM tasks per stored block of `A`, each against a dense B block.
///
/// A zero-column `B` is a degenerate but valid request (the product has
/// zero columns): the report simply carries no tasks, matching the numeric
/// dataflow's treatment of an empty `B`.
///
/// # Panics
///
/// Panics if a report counter overflows `u64` (an `n_cols` in the order
/// of `usize::MAX / 16`); [`spmm_stream`] with [`run_stream`] reports it
/// as an error instead.
pub fn run_spmm(
    engine: &dyn TileEngine,
    energy_model: &EnergyModel,
    a: &BbcMatrix,
    n_cols: usize,
) -> KernelReport {
    fitted(engine, energy_model, Kernel::SpMM, spmm_stream(a, n_cols))
}

/// The T1 task stream of an SpMM invocation (see [`spmv_tasks`]):
/// `ceil(n_cols / 16)` MM tasks per stored block of `A`. Empty when
/// `n_cols == 0`.
pub fn spmm_tasks(a: &BbcMatrix, n_cols: usize) -> Vec<T1Task> {
    let (col_blocks, tail) = spmm_col_blocks(n_cols);
    a.blocks()
        .flat_map(move |blk| {
            let a_bits = Block16::from_bbc(&blk);
            (0..col_blocks).map(move |cb| {
                let width = if cb + 1 == col_blocks { tail } else { 16 };
                T1Task::mm(a_bits, Block16::dense().keep_cols(width))
            })
        })
        .collect()
}

/// [`spmm_tasks`] in counted form, built without materialising the task
/// list: at most two entries per stored block of `A` (full-width B blocks
/// and the narrower tail), so host memory is O(blocks) for any `n_cols`.
///
/// # Errors
///
/// [`CounterOverflow`] if the stream stands for more than `u64::MAX`
/// tasks.
pub fn spmm_stream(a: &BbcMatrix, n_cols: usize) -> Result<TaskStream, CounterOverflow> {
    let (col_blocks, tail) = spmm_col_blocks(n_cols);
    let full = if tail == 16 { col_blocks } else { col_blocks.saturating_sub(1) };
    let tail_count = u64::from(tail < 16 && col_blocks > 0);
    TaskStream::try_from_counted(a.blocks().flat_map(|blk| {
        let a_bits = Block16::from_bbc(&blk);
        [
            (T1Task::mm(a_bits, Block16::dense()), full as u64),
            (T1Task::mm(a_bits, Block16::dense().keep_cols(tail)), tail_count),
        ]
    }))
}

/// `(ceil(n_cols / 16), width of the last column block)`; `(0, 0)` for
/// `n_cols == 0`.
fn spmm_col_blocks(n_cols: usize) -> (usize, usize) {
    let col_blocks = n_cols.div_ceil(16);
    (col_blocks, n_cols - col_blocks.saturating_sub(1) * 16)
}

/// SpGEMM (`C = A B`, both sparse): the block-level outer-product walk of
/// Algorithm 2 — for every stored `A(i, k)` and every stored `B(k, j)`,
/// issue one MM task (the top-level bitmap product check drops trivial
/// pairs).
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
    fitted(engine, energy_model, Kernel::SpGEMM, Ok(spgemm_stream(a, b)))
}

/// The T1 task stream of an SpGEMM invocation (see [`spmv_tasks`]): the
/// block-level outer-product walk of Algorithm 2.
///
/// # Panics
///
/// Panics if the block grids do not conform (`a.block_cols() !=
/// b.block_rows()`).
pub fn spgemm_tasks(a: &BbcMatrix, b: &BbcMatrix) -> Vec<T1Task> {
    spgemm_iter(a, b).collect()
}

/// [`spgemm_tasks`] in counted form, built without materialising the task
/// list.
///
/// # Panics
///
/// As [`spgemm_tasks`].
pub fn spgemm_stream(a: &BbcMatrix, b: &BbcMatrix) -> TaskStream {
    spgemm_iter(a, b).collect()
}

fn spgemm_iter<'a>(a: &'a BbcMatrix, b: &'a BbcMatrix) -> impl Iterator<Item = T1Task> + 'a {
    assert_eq!(
        a.block_cols(),
        b.block_rows(),
        "SpGEMM block grids do not conform"
    );
    (0..a.block_rows()).flat_map(move |bi| {
        a.blocks_in_row(bi).flat_map(move |ai| {
            let a_blk = a.block(ai);
            let a_bits = Block16::from_bbc(&a_blk);
            let k = a_blk.block_col;
            b.blocks_in_row(k).map(move |bj| {
                let b_blk = b.block(bj);
                T1Task::mm(a_bits, Block16::from_bbc(&b_blk))
            })
        })
    })
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
        let rep = run_tasks_traced(&Ideal, &em, Kernel::SpMV, spmv_tasks(&a), &mut trace);
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
        let traced = run_tasks_traced(&Ideal, &em, Kernel::SpMV, spmv_tasks(&a), noop);
        assert_eq!(plain, traced);
    }

    /// Every task of the ordered path, with a recording sink.
    fn ordered(kernel: Kernel, tasks: Vec<T1Task>) -> KernelReport {
        let mut trace: Vec<obs::TraceEvent> = Vec::new();
        let rep = run_tasks_traced(&Ideal, &EnergyModel::default(), kernel, tasks, &mut trace);
        assert!(!trace.is_empty() || rep.t1_tasks == 0);
        rep
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
            (Kernel::SpMV, spmv_tasks(&a), spmv_stream(&a)),
            (Kernel::SpMSpV, spmspv_tasks(&a, &x), spmspv_stream(&a, &x)),
            (Kernel::SpMM, spmm_tasks(&a, 40), spmm_stream(&a, 40).unwrap()),
            (Kernel::SpGEMM, spgemm_tasks(&a, &a), spgemm_stream(&a, &a)),
        ];
        for (kernel, tasks, stream) in cases {
            assert_eq!(stream, TaskStream::from(&tasks[..]), "{kernel}");
            assert!(stream.len() < tasks.len(), "{kernel}: patterns repeat");
            let counted = run_stream(&Ideal, &em, kernel, &stream).unwrap();
            assert_eq!(counted, ordered(kernel, tasks), "{kernel}");
        }
    }

    #[test]
    fn spmm_stream_matches_the_task_list_at_every_width() {
        let a = bbc_from(&[(0, 0), (0, 1), (20, 20), (40, 3)], 48);
        for n_cols in [0, 1, 15, 16, 17, 32, 33, 100] {
            let stream = spmm_stream(&a, n_cols).unwrap();
            assert_eq!(stream, TaskStream::from(&spmm_tasks(&a, n_cols)[..]), "n_cols={n_cols}");
            assert!(stream.len() <= 2 * a.block_count(), "n_cols={n_cols}");
        }
    }

    #[test]
    fn huge_spmm_overflows_as_a_typed_error() {
        let n_cols = usize::MAX / 2;
        let a = bbc_from(&[(0, 0)], 16);
        // Two entries (full width and tail) stand for ~2^59 tasks.
        let stream = spmm_stream(&a, n_cols).unwrap();
        assert_eq!(stream.len(), 2);
        assert_eq!(stream.total(), n_cols.div_ceil(16) as u64);
        let err = run_stream(&Ideal, &EnergyModel::default(), Kernel::SpMM, &stream).unwrap_err();
        assert_eq!(err.counter, "meta_words", "36 words per task pass 2^64 first");

        // 64 blocks of one pattern: the multiplicities alone pass 2^64.
        let wide: Vec<(usize, usize)> = (0..64).map(|b| (16 * b, 16 * b)).collect();
        let err = spmm_stream(&bbc_from(&wide, 1024), n_cols).unwrap_err();
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
