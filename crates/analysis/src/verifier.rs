//! The static stream verifier: proves UWMMA/schedule invariants over
//! programs, compiled kernels and stream models without executing them.
//!
//! Checks and their codes (full table in DESIGN.md §9):
//!
//! * **Lifecycle legality** over [`Program`] instruction sequences —
//!   `USTC001` numeric without a batch, `USTC002` overlapping task_gen,
//!   `USTC003` cost outside Table V, `USTC004` dead batch, `USTC005`
//!   mv/mm kind mismatch.
//! * **Lane feasibility** of T4 segments against the SDPU allocator —
//!   `USTC006`.
//! * **Queue occupancy bounds** — `USTC007` (Tile queue), `USTC008`
//!   (Dot-product queue).
//! * **Write-conflict freedom** of the T3 order — `USTC009`.
//! * **Routing and power-gating soundness** — `USTC010`, `USTC011`.
//! * **BBC metadata consistency** via [`BbcMatrix::validate`] — `USTC012`.
//! * **Stream/metadata agreement** by recompilation diff — `USTC013`.
//!
//! A kernel invocation ([`Invocation`]) is checked over its counted
//! [`TaskStream`], once per distinct T1 task: see [`Verifier::verify`].

use simkit::driver::Invocation;
use simkit::{T1Task, TaskStream};
use sparse::{BbcMatrix, SparseVector};
use uni_stc::check::check_expansion;
use uni_stc::compiler::{block_program, compile, CompiledKernel};
use uni_stc::dpg::expand_t3;
use uni_stc::isa::{Instruction, Program, Uwmma};
use uni_stc::pipeline::expand;
use uni_stc::tms::generate_t3_tasks;
use uni_stc::{Expansions, UniStcConfig, T4_MAX_LEN};

use crate::diag::{Code, Diagnostic, Report, Span};
use crate::model::{active_dpgs, route_tasks, StreamModel, T3Node, DOT_QUEUE_CAP, TILE_QUEUE_CAP};

/// The stored block of `A` at which `task` first appears in the issue
/// order: the first block whose walk issues it. Spans only: a linear
/// search, run for a task that failed a check.
fn first_block(inv: Invocation<'_>, task: &T1Task) -> Option<usize> {
    (0..inv.a().block_count()).find(|&bi| {
        let mut issued = false;
        inv.visit_block(bi, |t, _, _| issued |= t == *task);
        issued
    })
}

/// Task-batch kind tracked by the lifecycle walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BatchKind {
    Mv,
    Mm,
}

impl BatchKind {
    fn name(self) -> &'static str {
        match self {
            BatchKind::Mv => "mv",
            BatchKind::Mm => "mm",
        }
    }
}

/// The largest instruction costs of a per-task UWMMA sequence: a T1 task
/// holds at most 64 T3 tasks and 4096 products, so its task-generation
/// cost `t3.div_ceil(8)` is at most 8 and its numeric cost
/// `products.div_ceil(64)` at most 64.
const MAX_TASK_GEN_COST: usize = 8;
const MAX_NUMERIC_COST: usize = 64;

/// The UWMMA lifecycle verdicts reached in one stream. A per-task
/// sequence ([`Program::spmv_block`], [`Program::spgemm_block`]) is a
/// function of its two instruction costs alone, so the verdicts sit in a
/// table indexed by them, on the stack, and each distinct cost pair is
/// checked once.
struct LifecycleMemo {
    /// Per `[task-gen cost][numeric cost]`: `None` until checked, then the
    /// failing sequence length, or `None` inside for a clean sequence.
    verdicts: [[Option<Option<usize>>; MAX_NUMERIC_COST + 1]; MAX_TASK_GEN_COST + 1],
}

impl LifecycleMemo {
    fn new() -> Self {
        LifecycleMemo { verdicts: [[None; MAX_NUMERIC_COST + 1]; MAX_TASK_GEN_COST + 1] }
    }

    /// The length of the pair's UWMMA sequence if it fails the lifecycle
    /// check, else `None`; `check` decides a cost pair not seen before.
    fn verdict(
        &mut self,
        t3_tasks: u32,
        products: u64,
        check: impl FnOnce() -> Option<usize>,
    ) -> Option<usize> {
        let row = self.verdicts.get_mut(t3_tasks.div_ceil(8) as usize);
        let numeric = usize::try_from(products.div_ceil(64)).ok();
        let slot = row.and_then(|row| row.get_mut(numeric?));
        match slot {
            Some(slot) => *slot.get_or_insert_with(check),
            // Costs beyond any T1 task's are decided, not memoised.
            None => check(),
        }
    }
}

/// The static verifier, parameterised by one Uni-STC configuration.
///
/// A kernel invocation is verified over its counted task stream, each
/// distinct T1 task once; a finding of a task that repeats is reported
/// once, at the task's first appearance ([`Verifier::verify_stream`]).
#[derive(Debug, Clone)]
pub struct Verifier {
    cfg: UniStcConfig,
}

impl Verifier {
    /// A verifier for the given configuration.
    pub fn new(cfg: UniStcConfig) -> Self {
        Verifier { cfg }
    }

    /// The configuration the verifier checks against.
    pub fn config(&self) -> &UniStcConfig {
        &self.cfg
    }

    /// Lifecycle-checks one instruction stream (`USTC001`–`USTC005`).
    /// Spans carry instruction indices resolvable against
    /// [`Program::listing`].
    pub fn verify_program(&self, program: &Program) -> Report {
        self.program_report(None, program)
    }

    /// Lifecycle-checks every warp of a compiled kernel, attributing
    /// findings to `(warp, instr)` spans.
    pub fn verify_kernel(&self, kernel: &CompiledKernel) -> Report {
        let mut report = Report::new();
        for w in &kernel.warps {
            report.merge(self.program_report(Some(w.warp), &w.program));
        }
        report
    }

    fn program_report(&self, warp: Option<usize>, program: &Program) -> Report {
        let mut report = Report::new();
        let span = |instr: usize| Span { warp, instr: Some(instr), ..Span::default() };
        let mut batch: Option<(BatchKind, usize)> = None;
        for (i, instr) in program.instructions().iter().enumerate() {
            let (lo, hi) = instr.op.cycle_range();
            if instr.cost < lo || instr.cost > hi {
                report.push(Diagnostic::new(
                    Code::CostOutOfRange,
                    span(i),
                    format!(
                        "{} cost {} outside Table V range {lo}..={hi}",
                        instr.op.mnemonic(),
                        instr.cost
                    ),
                ));
            }
            let kind = match instr.op {
                Uwmma::LoadMetaMv | Uwmma::LoadMetaMm | Uwmma::LoadA => continue,
                Uwmma::TaskGenMv | Uwmma::NumericMv => BatchKind::Mv,
                Uwmma::TaskGenMm | Uwmma::NumericMm => BatchKind::Mm,
            };
            match instr.op {
                Uwmma::TaskGenMv | Uwmma::TaskGenMm => {
                    if let Some((_, at)) = batch {
                        report.push(Diagnostic::new(
                            Code::OverlappingTaskGen,
                            span(i),
                            format!(
                                "{} overlaps the unconsumed batch generated at instr {at}",
                                instr.op.mnemonic()
                            ),
                        ));
                    }
                    batch = Some((kind, i));
                }
                Uwmma::NumericMv | Uwmma::NumericMm => match batch.take() {
                    None => report.push(Diagnostic::new(
                        Code::NumericWithoutBatch,
                        span(i),
                        format!("{} issued with no task batch in flight", instr.op.mnemonic()),
                    )),
                    Some((k, at)) if k != kind => report.push(Diagnostic::new(
                        Code::KindMismatch,
                        span(i),
                        format!(
                            "{} consumes a {} batch generated at instr {at}",
                            instr.op.mnemonic(),
                            k.name()
                        ),
                    )),
                    Some(_) => {}
                },
                _ => {}
            }
        }
        if let Some((k, at)) = batch {
            report.push(Diagnostic::new(
                Code::UnconsumedBatch,
                span(at),
                format!("stc.task_gen.{} batch generated here is never consumed", k.name()),
            ));
        }
        report
    }

    /// Checks a raw T4 segment stream for SDPU lane feasibility
    /// (`USTC006`): every segment must be atomic and 1..=4 lanes, or
    /// [`LaneAllocator::try_place`] would reject it.
    ///
    /// [`LaneAllocator::try_place`]: uni_stc::sdpu::LaneAllocator::try_place
    pub fn verify_segments(&self, segments: &[u8]) -> Report {
        let mut report = Report::new();
        for (i, &seg) in segments.iter().enumerate() {
            if !(1..=T4_MAX_LEN).contains(&(seg as usize)) {
                report.push(Diagnostic::new(
                    Code::SegmentTooLong,
                    Span { task: Some(i), ..Span::default() },
                    format!("segment length {seg} outside 1..={T4_MAX_LEN} lanes"),
                ));
            }
        }
        report
    }

    /// Checks claimed queue occupancies against the hardware capacities
    /// (`USTC007` / `USTC008`): `tile_entries` is one T1 task's Tile-queue
    /// load; `dot_entries[d]` is one T3 task's Dot-product-queue load.
    pub fn verify_queues(&self, tile_entries: usize, dot_entries: &[usize]) -> Report {
        let mut report = Report::new();
        if tile_entries > TILE_QUEUE_CAP {
            report.push(Diagnostic::new(
                Code::TileQueueOverflow,
                Span::none(),
                format!("{tile_entries} T3 tasks exceed the {TILE_QUEUE_CAP}-entry Tile queue"),
            ));
        }
        for (i, &n) in dot_entries.iter().enumerate() {
            if n > DOT_QUEUE_CAP {
                report.push(Diagnostic::new(
                    Code::DotQueueOverflow,
                    Span { task: Some(i), ..Span::default() },
                    format!("{n} T4 codes exceed the {DOT_QUEUE_CAP}-entry Dot-product queue"),
                ));
            }
        }
        report
    }

    /// Verifies a stream model: queue bounds, segment feasibility of every
    /// T3 expansion, write-conflict freedom of the task order, and routing
    /// / power-gating soundness (`USTC006`–`USTC011`).
    pub fn verify_model(&self, model: &StreamModel) -> Report {
        let mut report = Report::new();
        for (ni, node) in model.t1.iter().enumerate() {
            self.check_node(&mut report, node.block.unwrap_or(ni), &node.t3);
        }
        report
    }

    /// The `USTC006`–`USTC011` checks of one T1 node, spanned at `block`.
    fn check_node(&self, report: &mut Report, block: usize, t3: &[T3Node]) {
        if t3.len() > TILE_QUEUE_CAP {
            report.push(Diagnostic::new(
                Code::TileQueueOverflow,
                Span::at_block(block),
                format!("{} T3 tasks exceed the {TILE_QUEUE_CAP}-entry Tile queue", t3.len()),
            ));
        }
        self.check_t3_expansions(report, block, t3);
        self.check_write_conflicts(report, block, t3);
        self.check_routing(report, block, t3);
    }

    /// Per-T3 checks: Dot-product-queue load and segment lengths.
    fn check_t3_expansions(&self, report: &mut Report, block: usize, t3: &[T3Node]) {
        for (ti, node) in t3.iter().enumerate() {
            let codes = expand_t3(node.task.a_tile, node.task.b_tile, self.cfg.fill_order);
            if codes.len() > DOT_QUEUE_CAP {
                report.push(Diagnostic::new(
                    Code::DotQueueOverflow,
                    Span::at_task(block, ti),
                    format!(
                        "{} T4 codes exceed the {DOT_QUEUE_CAP}-entry Dot-product queue",
                        codes.len()
                    ),
                ));
            }
            for code in &codes {
                let len = code.len() as usize;
                if !(1..=T4_MAX_LEN).contains(&len) {
                    report.push(Diagnostic::new(
                        Code::SegmentTooLong,
                        Span::at_task(block, ti),
                        format!("segment length {len} outside 1..={T4_MAX_LEN} lanes"),
                    ));
                }
            }
        }
    }

    /// Within every run of consecutive same-K tasks, each output tile may
    /// appear at most once: a duplicate means the TMS would issue two
    /// same-layer writes to one accumulator entry (`USTC009`).
    fn check_write_conflicts(&self, report: &mut Report, block: usize, t3: &[T3Node]) {
        let mut run_k: Option<u8> = None;
        let mut seen = [false; 16];
        for (ti, node) in t3.iter().enumerate() {
            if run_k != Some(node.task.k) {
                run_k = Some(node.task.k);
                seen = [false; 16];
            }
            let id = node.task.output_id() as usize & 0xF;
            if seen[id] {
                report.push(Diagnostic::new(
                    Code::WriteConflict,
                    Span::at_task(block, ti),
                    format!(
                        "output tile ({}, {}) written twice within K layer {}",
                        node.task.i, node.task.j, node.task.k
                    ),
                ));
            }
            seen[id] = true;
        }
    }

    /// Routing checks per issue window (`USTC010` / `USTC011`).
    fn check_routing(&self, report: &mut Report, block: usize, t3: &[T3Node]) {
        for (wi, window) in t3.chunks(self.cfg.n_dpg.max(1)).enumerate() {
            let tasks: Vec<_> = window.iter().map(|n| n.task).collect();
            let active = active_dpgs(&self.cfg, &tasks);
            for (i, node) in window.iter().enumerate() {
                let ti = wi * self.cfg.n_dpg.max(1) + i;
                if node.dpg >= self.cfg.n_dpg {
                    report.push(Diagnostic::new(
                        Code::DpgRouteOutOfRange,
                        Span::at_task(block, ti),
                        format!("DPG slot {} outside the {}-DPG array", node.dpg, self.cfg.n_dpg),
                    ));
                } else if self.cfg.power_gating && node.dpg >= active {
                    report.push(Diagnostic::new(
                        Code::GatedDpgRoute,
                        Span::at_task(block, ti),
                        format!(
                            "DPG slot {} is power-gated (window activates {active} of {})",
                            node.dpg, self.cfg.n_dpg
                        ),
                    ));
                }
            }
        }
    }

    /// Deep-validates BBC metadata (`USTC012`), reusing
    /// [`BbcMatrix::validate`]'s bitmap/ValPtr popcount cross-checks.
    pub fn verify_matrix(&self, a: &BbcMatrix) -> Report {
        let mut report = Report::new();
        if let Err(e) = a.validate() {
            report.push(Diagnostic::new(
                Code::CorruptMetadata,
                Span::none(),
                format!("BBC validation failed: {e}"),
            ));
        }
        report
    }

    /// The operand checks of an invocation (`USTC012`): BBC metadata of
    /// every matrix, then the walk's shape precondition
    /// ([`Invocation::check_shape`]).
    pub fn verify_operands(&self, inv: Invocation<'_>) -> Report {
        let mut report = self.verify_matrix(inv.a());
        if let Invocation::SpGEMM(_, b) = inv {
            report.merge(self.verify_matrix(b));
        }
        if let Err(message) = inv.check_shape() {
            report.push(Diagnostic::new(Code::CorruptMetadata, Span::none(), message));
        }
        report
    }

    /// Checks an invocation's counted task stream, which must be the one
    /// [`Invocation::stream`] builds for operands that passed
    /// [`Verifier::verify_operands`].
    ///
    /// Every check is a pure function of one T1 task, so each distinct
    /// task is checked once, whatever its multiplicity: the
    /// `USTC006`–`USTC011` schedule checks ([`check_expansion`], read off
    /// the task's TMS/DPG expansion, [`expand`]), then the UWMMA lifecycle of
    /// the sequence the compiler emits for it (`USTC001`–`USTC005`, SpMV
    /// and SpGEMM). **A failing distinct task reports once, at its first
    /// appearance:** its schedule findings are spanned at the first A
    /// block that issues it, and a failing UWMMA sequence at the first
    /// `(warp, instr)` of the compiled kernel that carries it. Those
    /// positions are looked up only when a check fails. The findings are
    /// therefore the per-issued-task findings with repeats dropped: the
    /// same first error and the same set of codes.
    pub fn verify_stream(
        &self,
        inv: Invocation<'_>,
        stream: &TaskStream,
        n_warps: usize,
    ) -> Report {
        self.check_stream(inv, stream, n_warps, None)
    }

    /// [`Verifier::verify_stream`], keeping the expansion each distinct
    /// non-trivial task was checked over. The arena comes back only when
    /// the report holds no error, the whole stream accepted, for a
    /// [`Staged`](uni_stc::Staged) run of the same stream to pack from.
    pub fn verify_stream_staged(
        &self,
        inv: Invocation<'_>,
        stream: &TaskStream,
        n_warps: usize,
    ) -> (Report, Option<Expansions>) {
        let mut arena = Expansions::with_capacity(self.cfg, stream.len());
        let report = self.check_stream(inv, stream, n_warps, Some(&mut arena));
        let accepted = !report.has_errors();
        (report, accepted.then_some(arena))
    }

    /// [`Verifier::verify_stream`], keeping each sound expansion in
    /// `arena` when one is given.
    fn check_stream(
        &self,
        inv: Invocation<'_>,
        stream: &TaskStream,
        n_warps: usize,
        mut arena: Option<&mut Expansions>,
    ) -> Report {
        let mut report = Report::new();
        // The length of a per-task UWMMA sequence with a lifecycle finding.
        let mut failing_len = None;
        let mut lifecycle = LifecycleMemo::new();
        for (task, _) in stream.iter() {
            let expansion = expand(&self.cfg, &task.a, &task.b);
            let check = check_expansion(&self.cfg, &expansion);
            if check.t3_tasks == 0 {
                continue; // trivial T1 tasks never reach the engine
            }
            if !check.sound {
                let tasks = generate_t3_tasks(&task.a, &task.b, self.cfg.ordering);
                let block = first_block(inv, task).unwrap_or(0);
                self.check_node(&mut report, block, &route_tasks(&self.cfg, &tasks));
            } else if let Some(arena) = arena.as_mut() {
                arena.insert(&task.a, &task.b, &expansion);
            }
            let failing = lifecycle.verdict(check.t3_tasks, check.products, || {
                let program = block_program(inv.kernel())?(check.t3_tasks.into(), check.products);
                let clean = self.program_report(None, &program).is_clean();
                (!clean).then(|| program.instructions().len())
            });
            if failing.is_some() {
                failing_len = failing;
            }
        }
        if let Some(block_len) = failing_len {
            // Only now is the kernel compiled, to locate the findings.
            if let Some(kernel) = compile(&self.cfg, inv, n_warps.max(1)) {
                report.merge(self.kernel_report_once(&kernel, block_len));
            }
        }
        report
    }

    /// [`Verifier::verify_kernel`] for a kernel made of `block_len`-long
    /// per-task sequences, each distinct sequence reported once: only the
    /// findings inside a sequence's first appearance, in warp order and
    /// then instruction order, are kept.
    fn kernel_report_once(&self, kernel: &CompiledKernel, block_len: usize) -> Report {
        let mut report = Report::new();
        let mut seen: Vec<&[Instruction]> = Vec::new();
        for w in &kernel.warps {
            let first: Vec<bool> = w
                .program
                .instructions()
                .chunks(block_len)
                .map(|chunk| {
                    let fresh = !seen.contains(&chunk);
                    if fresh {
                        seen.push(chunk);
                    }
                    fresh
                })
                .collect();
            for d in self.program_report(Some(w.warp), &w.program).diagnostics() {
                if d.span.instr.is_none_or(|i| first.get(i / block_len) == Some(&true)) {
                    report.push(d.clone());
                }
            }
        }
        report
    }

    /// Full static check of one invocation: [`Verifier::verify_operands`],
    /// then, unless that found an error (a corrupt or non-conforming
    /// structure cannot be safely walked), [`Verifier::verify_stream`]
    /// over the stream the driver would run. `n_warps` is the warp count
    /// of the compiled streams a lifecycle finding is spanned in. A
    /// stream standing for more than `u64::MAX` tasks cannot be run and
    /// is left to the runner to reject.
    pub fn verify(&self, inv: Invocation<'_>, n_warps: usize) -> Report {
        let mut report = self.verify_operands(inv);
        if report.has_errors() {
            return report;
        }
        if let Ok(stream) = inv.stream() {
            report.merge(self.verify_stream(inv, &stream, n_warps));
        }
        report
    }

    /// Diffs a caller-supplied SpMV kernel against the stream the verifier
    /// recompiles from the matrix metadata (`USTC013`), on top of the full
    /// SpMV check.
    pub fn verify_spmv_against(&self, a: &BbcMatrix, kernel: &CompiledKernel) -> Report {
        let mut report = self.verify_matrix(a);
        report.merge(self.verify_kernel(kernel));
        if report.has_errors() {
            return report;
        }
        if let Some(expected) = compile(&self.cfg, Invocation::SpMV(a), kernel.warps.len().max(1)) {
            report.merge(diff_kernels(&expected, kernel));
        }
        report
    }
}

/// Emits one `USTC013` per warp whose stream diverges from the expected
/// recompilation (first divergent instruction named in the span).
fn diff_kernels(expected: &CompiledKernel, actual: &CompiledKernel) -> Report {
    let mut report = Report::new();
    if expected.warps.len() != actual.warps.len() {
        report.push(Diagnostic::new(
            Code::CostMismatch,
            Span::none(),
            format!(
                "kernel has {} warps, metadata-derived recompilation has {}",
                actual.warps.len(),
                expected.warps.len()
            ),
        ));
        return report;
    }
    for (e, a) in expected.warps.iter().zip(&actual.warps) {
        let ei = e.program.instructions();
        let ai = a.program.instructions();
        let divergence = ei
            .iter()
            .zip(ai)
            .position(|(x, y)| x != y)
            .or(if ei.len() != ai.len() { Some(ei.len().min(ai.len())) } else { None });
        if let Some(at) = divergence {
            let detail = match (ei.get(at), ai.get(at)) {
                (Some(x), Some(y)) => format!(
                    "expected {} cost {}, found {} cost {}",
                    x.op.mnemonic(),
                    x.cost,
                    y.op.mnemonic(),
                    y.cost
                ),
                _ => format!("stream lengths differ ({} vs {})", ai.len(), ei.len()),
            };
            report.push(Diagnostic::new(
                Code::CostMismatch,
                Span::at_instr(a.warp, at),
                format!("stream disagrees with metadata-derived recompilation: {detail}"),
            ));
        }
    }
    report
}

/// [`simkit::driver::StreamVerifier`] adapter: reduces a [`Verifier`]
/// report to its first `USTC` error code, so a caller (the service's
/// admission gate) can reject an illegal stream before simulating it.
#[derive(Debug, Clone)]
pub struct UstcVerifier {
    verifier: Verifier,
}

impl UstcVerifier {
    /// The warp count the adapter compiles kernels with.
    pub const DEFAULT_WARPS: usize = 4;

    /// An adapter over the given configuration.
    pub fn new(cfg: UniStcConfig) -> Self {
        UstcVerifier { verifier: Verifier::new(cfg) }
    }

    /// The wrapped verifier.
    pub fn verifier(&self) -> &Verifier {
        &self.verifier
    }

    /// [`Verifier::verify_operands`], reduced to its first error: what a
    /// caller checks before it builds the invocation's stream.
    pub fn verify_operands(
        &self,
        inv: Invocation<'_>,
    ) -> Result<(), simkit::driver::VerifyError> {
        to_result(self.verifier.verify_operands(inv))
    }

    /// [`Verifier::verify_stream`], reduced to its first error, for a
    /// stream built after [`UstcVerifier::verify_operands`] passed. A
    /// caller that caches streams verifies the instance it caches.
    pub fn verify_stream(
        &self,
        inv: Invocation<'_>,
        stream: &TaskStream,
    ) -> Result<(), simkit::driver::VerifyError> {
        to_result(self.verifier.verify_stream(inv, stream, Self::DEFAULT_WARPS))
    }

    /// [`Verifier::verify_stream_staged`], reduced to its first error: on
    /// acceptance, the expansions of the stream's distinct non-trivial
    /// tasks, for a [`Staged`](uni_stc::Staged) run of that stream.
    pub fn verify_stream_staged(
        &self,
        inv: Invocation<'_>,
        stream: &TaskStream,
    ) -> Result<Expansions, simkit::driver::VerifyError> {
        let mut arena = Expansions::with_capacity(self.verifier.cfg, stream.len());
        let report = self.verifier.check_stream(inv, stream, Self::DEFAULT_WARPS, Some(&mut arena));
        to_result(report).map(|()| arena)
    }

    fn verify(&self, inv: Invocation<'_>) -> Result<(), simkit::driver::VerifyError> {
        to_result(self.verifier.verify(inv, Self::DEFAULT_WARPS))
    }
}

pub(crate) fn to_result(report: Report) -> Result<(), simkit::driver::VerifyError> {
    match report.first_error() {
        None => Ok(()),
        Some(d) => Err(simkit::driver::VerifyError {
            code: d.code.as_str().to_owned(),
            message: d.to_string(),
        }),
    }
}

impl simkit::driver::StreamVerifier for UstcVerifier {
    fn verify_spmv(&self, a: &BbcMatrix) -> Result<(), simkit::driver::VerifyError> {
        self.verify(Invocation::SpMV(a))
    }

    fn verify_spmspv(
        &self,
        a: &BbcMatrix,
        x: &SparseVector,
    ) -> Result<(), simkit::driver::VerifyError> {
        self.verify(Invocation::SpMSpV(a, x))
    }

    fn verify_spmm(&self, a: &BbcMatrix, n_cols: usize) -> Result<(), simkit::driver::VerifyError> {
        self.verify(Invocation::SpMM(a, n_cols))
    }

    fn verify_spgemm(
        &self,
        a: &BbcMatrix,
        b: &BbcMatrix,
    ) -> Result<(), simkit::driver::VerifyError> {
        self.verify(Invocation::SpGEMM(a, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::reference;
    use sparse::{CooMatrix, CsrMatrix};
    use uni_stc::check::check_t1;
    use uni_stc::tms::T3Task;

    fn bbc(n: usize, entries: impl IntoIterator<Item = (usize, usize)>) -> BbcMatrix {
        let mut coo = CooMatrix::new(n, n);
        for (r, c) in entries {
            coo.push(r, c, 1.0);
        }
        BbcMatrix::from_csr(&CsrMatrix::try_from(coo).unwrap())
    }

    fn dense_task(k: u8, i: u8, j: u8) -> T3Task {
        T3Task { i, j, k, a_tile: u16::MAX, b_tile: u16::MAX, products: 64 }
    }

    #[test]
    fn spmspv_with_a_short_x_is_ustc012() {
        use simkit::driver::StreamVerifier;
        let a = bbc(1024, (0..1024).map(|i| (i, i)));
        let v = UstcVerifier::new(UniStcConfig::default());
        let short = SparseVector::try_new(3, vec![0, 2], vec![1.0, 1.0]).unwrap();
        let err = v.verify_spmspv(&a, &short).unwrap_err();
        assert_eq!(err.code, "USTC012");
        assert!(err.message.contains("length 3"), "{}", err.message);
        let fits = SparseVector::try_new(1024, vec![0, 700], vec![1.0, 1.0]).unwrap();
        assert!(v.verify_spmspv(&a, &fits).is_ok());
    }

    #[test]
    fn legal_program_is_clean() {
        let v = Verifier::new(UniStcConfig::default());
        assert!(v.verify_program(&Program::spmv_block(8, 64)).is_clean());
        assert!(v.verify_program(&Program::spgemm_block(64, 4096)).is_clean());
        assert!(v.verify_program(&Program::new()).is_clean());
    }

    #[test]
    fn lifecycle_codes_match_program_run_errors() {
        let v = Verifier::new(UniStcConfig::default());
        // Anything verify_program flags as an error must also fail run(),
        // and vice versa, on these seeded streams.
        let mut numeric_first = Program::new();
        numeric_first.push(Uwmma::NumericMm, 4);
        let r = v.verify_program(&numeric_first);
        assert!(r.has_code(Code::NumericWithoutBatch));
        assert!(numeric_first.run().is_err());

        let mut double_gen = Program::new();
        double_gen.push(Uwmma::TaskGenMm, 2).push(Uwmma::TaskGenMv, 2);
        let r = v.verify_program(&double_gen);
        assert!(r.has_code(Code::OverlappingTaskGen));
        assert!(double_gen.run().is_err());
    }

    #[test]
    fn kind_mismatch_flagged() {
        let v = Verifier::new(UniStcConfig::default());
        let mut p = Program::new();
        p.push(Uwmma::TaskGenMv, 2).push(Uwmma::NumericMm, 4);
        let r = v.verify_program(&p);
        assert!(r.has_code(Code::KindMismatch));
        assert!(r.has_errors());
    }

    #[test]
    fn cost_and_dead_batch_are_warnings() {
        let v = Verifier::new(UniStcConfig::default());
        let mut p = Program::new();
        p.push(Uwmma::LoadMetaMv, 9); // clamped by hardware: warning
        p.push(Uwmma::TaskGenMv, 2); // never consumed: warning
        let r = v.verify_program(&p);
        assert!(r.has_code(Code::CostOutOfRange));
        assert!(r.has_code(Code::UnconsumedBatch));
        assert!(!r.has_errors());
        assert!(p.run().is_ok(), "warnings must not reject an executable stream");
    }

    #[test]
    fn segments_checked_against_lane_allocator_domain() {
        let v = Verifier::new(UniStcConfig::default());
        assert!(v.verify_segments(&[1, 2, 3, 4]).is_clean());
        let r = v.verify_segments(&[4, 5, 0]);
        let codes: Vec<_> = r.diagnostics().iter().map(|d| d.code).collect();
        assert_eq!(codes, vec![Code::SegmentTooLong, Code::SegmentTooLong]);
    }

    #[test]
    fn queue_bounds_enforced() {
        let v = Verifier::new(UniStcConfig::default());
        assert!(v.verify_queues(64, &[16, 16]).is_clean());
        let r = v.verify_queues(65, &[17]);
        assert!(r.has_code(Code::TileQueueOverflow));
        assert!(r.has_code(Code::DotQueueOverflow));
    }

    #[test]
    fn derived_models_verify_clean() {
        let cfg = UniStcConfig::default();
        let v = Verifier::new(cfg);
        let a = bbc(64, (0..64).flat_map(|i| [(i, i), (i, (i * 7) % 64)]));
        assert!(v.verify_model(&reference::spmv(&cfg, &a)).is_clean());
        assert!(v.verify_model(&reference::spmm(&cfg, &a, 40)).is_clean());
        assert!(v.verify_model(&reference::spgemm(&cfg, &a, &a)).is_clean());
        assert!(v.verify(Invocation::SpMV(&a), 4).is_clean());
        assert!(v.verify(Invocation::SpGEMM(&a, &a), 4).is_clean());
    }

    #[test]
    fn a_failing_distinct_task_reports_once_at_its_first_block() {
        // Four identical diagonal blocks, and no DPG to route their T3
        // tasks to. At 40 columns each block issues two full-width tasks
        // (16 T3 tasks each) and one 8-column tail (8 T3 tasks): two
        // distinct tasks, each reported once, at block 0.
        let cfg = UniStcConfig { n_dpg: 0, ..UniStcConfig::default() };
        let v = Verifier::new(cfg);
        let a = bbc(64, (0..64).map(|i| (i, i)));
        assert_eq!(Invocation::SpMM(&a, 40).stream().map(|s| s.len()), Ok(2));
        let r = v.verify(Invocation::SpMM(&a, 40), 1);
        assert!(r.diagnostics().iter().all(|d| d.code == Code::DpgRouteOutOfRange));
        let blocks: Vec<_> = r.diagnostics().iter().map(|d| d.span.block).collect();
        assert_eq!(blocks, vec![Some(0); 16 + 8], "one finding per T3 task of block 0");
        assert_eq!(r.diagnostics()[0].message, "DPG slot 0 outside the 0-DPG array");
        // Under SpMSpV the first block that issues the task is the first
        // whose `x` segment is nonzero.
        let x = SparseVector::try_new(64, vec![40], vec![1.0]).unwrap();
        let r = v.verify(Invocation::SpMSpV(&a, &x), 1);
        assert_eq!(r.first_error().map(|d| d.span.block), Some(Some(2)));
    }

    #[test]
    fn staged_verification_keeps_each_distinct_task_of_an_accepted_stream() {
        // A band plus a strip of block row 0: SpMM with an 8-column tail
        // and SpGEMM, both accepted.
        let a = bbc(64, (0..64).flat_map(|i| [(i, i), (i, (i + 1) % 64), (i % 16, 40 + i % 8)]));
        let cfg = UniStcConfig::default();
        let v = Verifier::new(cfg);
        for inv in [Invocation::SpMM(&a, 40), Invocation::SpGEMM(&a, &a)] {
            let stream = inv.stream().unwrap();
            let (report, arena) = v.verify_stream_staged(inv, &stream, 4);
            assert_eq!(report, v.verify_stream(inv, &stream, 4));
            let arena = arena.expect("an accepted stream hands back its expansions");
            let kept: Vec<_> = stream.iter().filter(|(t, _)| !t.is_trivial()).collect();
            assert!(!kept.is_empty());
            assert_eq!(arena.len(), kept.len());
            for (t, _) in kept {
                let want = expand(&cfg, &t.a, &t.b);
                assert_eq!(arena.get(&t.a, &t.b), Some(want.queue()), "{t:?}");
            }
            let adapter = UstcVerifier::new(cfg);
            assert_eq!(adapter.verify_stream_staged(inv, &stream).map(|e| e.len()), Ok(arena.len()));
        }
    }

    #[test]
    fn a_rejected_stream_hands_back_no_expansions() {
        // No DPG to route to: every non-trivial task fails USTC010.
        let cfg = UniStcConfig { n_dpg: 0, ..UniStcConfig::default() };
        let a = bbc(64, (0..64).map(|i| (i, i)));
        let inv = Invocation::SpMM(&a, 40);
        let stream = inv.stream().unwrap();
        let (report, arena) = Verifier::new(cfg).verify_stream_staged(inv, &stream, 1);
        assert_eq!(report, Verifier::new(cfg).verify_stream(inv, &stream, 1));
        assert!(report.has_code(Code::DpgRouteOutOfRange));
        assert!(arena.is_none());
        let adapter = UstcVerifier::new(cfg);
        let rejection = adapter.verify_stream(inv, &stream).expect_err("no DPG");
        assert_eq!(adapter.verify_stream_staged(inv, &stream).map(|e| e.len()), Err(rejection));
    }

    #[test]
    fn a_failing_uwmma_sequence_reports_once_at_its_first_instr() {
        // Every block's metadata load claims 9 cycles: a warning per issued
        // task per warp, but one per distinct sequence once deduplicated.
        let cfg = UniStcConfig::default();
        let v = Verifier::new(cfg);
        let a = bbc(64, (0..64).map(|i| (i, i)));
        let mut kernel = compile(&cfg, Invocation::SpMV(&a), 2).unwrap();
        for w in &mut kernel.warps {
            let mut rebuilt = Program::new();
            for instr in w.program.instructions() {
                let cost = if instr.op == Uwmma::LoadMetaMv { 9 } else { instr.cost };
                rebuilt.push(instr.op, cost);
            }
            w.program = rebuilt;
        }
        assert_eq!(v.verify_kernel(&kernel).diagnostics().len(), 4);
        let once = v.kernel_report_once(&kernel, 4);
        let spans: Vec<_> =
            once.diagnostics().iter().map(|d| (d.span.warp, d.span.instr)).collect();
        assert_eq!(spans, vec![(Some(0), Some(0))]);
        assert_eq!(once.diagnostics()[0].code, Code::CostOutOfRange);
    }

    #[test]
    fn hand_crafted_route_violations_flagged() {
        let cfg = UniStcConfig::default();
        let v = Verifier::new(cfg);
        // Window of three dense tasks: the look-ahead activates 2 DPGs.
        let t3 = vec![
            T3Node { task: dense_task(0, 0, 0), dpg: 0 },
            T3Node { task: dense_task(0, 0, 1), dpg: 9 },  // outside the array
            T3Node { task: dense_task(0, 0, 2), dpg: 7 },  // gated
        ];
        let model = StreamModel {
            kernel: simkit::driver::Kernel::SpMV,
            t1: vec![crate::model::T1Node { block: Some(3), t3 }],
        };
        let r = v.verify_model(&model);
        assert!(r.has_code(Code::DpgRouteOutOfRange));
        assert!(r.has_code(Code::GatedDpgRoute));
        let oob = r.diagnostics().iter().find(|d| d.code == Code::DpgRouteOutOfRange);
        assert_eq!(oob.map(|d| d.span.block), Some(Some(3)));
    }

    #[test]
    fn same_layer_duplicate_output_is_conflict() {
        let cfg = UniStcConfig::default();
        let v = Verifier::new(cfg);
        let t3 = crate::model::route_tasks(
            &cfg,
            &[dense_task(0, 1, 1), dense_task(0, 1, 1)],
        );
        let model = StreamModel {
            kernel: simkit::driver::Kernel::SpMV,
            t1: vec![crate::model::T1Node { block: None, t3 }],
        };
        let r = v.verify_model(&model);
        assert!(r.has_code(Code::WriteConflict));
        assert!(!r.has_errors(), "write conflicts stall, they do not fault");
    }

    #[test]
    fn corrupt_matrix_flagged_before_model_walk() {
        let v = Verifier::new(UniStcConfig::default());
        let a = bbc(32, (0..32).map(|i| (i, i)));
        let mut bad = a.clone();
        bad.flip_bit(sparse::BbcField::BitmapLv2, 0, 3);
        let r = v.verify(Invocation::SpMV(&bad), 2);
        assert!(r.has_code(Code::CorruptMetadata));
        assert!(r.has_errors());
        assert!(v.verify(Invocation::SpMV(&a), 2).is_clean());
    }

    #[test]
    fn recompilation_diff_catches_tampered_costs() {
        let cfg = UniStcConfig::default();
        let v = Verifier::new(cfg);
        let a = bbc(48, (0..48).map(|i| (i, (i * 3) % 48)));
        let kernel = compile(&cfg, Invocation::SpMV(&a), 2).unwrap();
        assert!(v.verify_spmv_against(&a, &kernel).is_clean());
        let mut tampered = kernel.clone();
        let program = &mut tampered.warps[0].program;
        let mut rebuilt = Program::new();
        for (i, instr) in program.instructions().iter().enumerate() {
            // Inflate the first numeric cost: the stream now claims more
            // cycles than the metadata supports.
            let cost = if i == 3 { instr.cost + 1 } else { instr.cost };
            rebuilt.push(instr.op, cost);
        }
        *program = rebuilt;
        let r = v.verify_spmv_against(&a, &tampered);
        assert!(r.has_code(Code::CostMismatch));
        assert_eq!(r.diagnostics().len(), 1);
    }

    #[test]
    fn lifecycle_checks_once_per_distinct_pair() {
        // Sixteen diagonal blocks, each holding one entry at a different
        // position of its first tile: sixteen distinct T1 tasks, all with
        // one T3 task of one product.
        let a = bbc(256, (0..16).map(|b| (16 * b + b / 4, 16 * b + b % 4)));
        let v = Verifier::new(UniStcConfig::default());
        let inv = Invocation::SpMV(&a);
        let stream = inv.stream().unwrap();
        assert_eq!(stream.len(), 16);
        let mut memo = LifecycleMemo::new();
        let mut checks = 0;
        for (task, _) in stream.iter() {
            let c = check_t1(v.config(), &task.a, &task.b);
            assert_eq!((c.t3_tasks, c.products), (1, 1));
            assert_eq!(memo.verdict(c.t3_tasks, c.products, || { checks += 1; None }), None);
        }
        assert_eq!(checks, 1);
        assert!(v.verify_stream(inv, &stream, 2).is_clean());

        // A failing verdict replays with its sequence length, also for a
        // pair with the same costs; a pair with new costs is checked on
        // its own.
        let mut memo = LifecycleMemo::new();
        assert_eq!(memo.verdict(40, 9, || Some(4)), Some(4));
        assert_eq!(memo.verdict(40, 9, || unreachable!("memoised")), Some(4));
        assert_eq!(memo.verdict(40, 10, || unreachable!("same costs")), Some(4));
        assert_eq!(memo.verdict(40, 65, || None), None);
    }

    #[test]
    fn lifecycle_memo_past_capacity_still_answers_exactly() {
        // Over every (T3 count, products) pair a T1 task can have, the
        // block programs, and so their verdicts, depend on the two costs
        // alone.
        let costs = |t3: u32, products: u64| (t3.div_ceil(8), products.div_ceil(64));
        for t3 in 1..=64u32 {
            for products in 1..=4096u64 {
                let (task_gen, numeric) = costs(t3, products);
                let (t3_at, products_at) = (u64::from(task_gen) * 8, numeric * 64);
                let spmv = Program::spmv_block(t3_at, products_at);
                assert_eq!(Program::spmv_block(t3.into(), products), spmv);
                let spgemm = Program::spgemm_block(t3_at, products_at);
                assert_eq!(Program::spgemm_block(t3.into(), products), spgemm);
            }
        }

        // A verdict failing on a third of the cost pairs: each pair is
        // checked once, and every later pair with its costs answers the
        // same; the memo has no capacity to run past.
        let verdict = |(task_gen, numeric): (u32, u64)| {
            (u64::from(task_gen) + numeric).is_multiple_of(3).then_some(4)
        };
        let mut memo = LifecycleMemo::new();
        let mut checks = 0;
        for t3 in 1..=64u32 {
            for products in 1..=4096u64 {
                let got = memo.verdict(t3, products, || {
                    checks += 1;
                    verdict(costs(t3, products))
                });
                assert_eq!(got, verdict(costs(t3, products)), "({t3}, {products})");
            }
        }
        assert_eq!(checks, MAX_TASK_GEN_COST * MAX_NUMERIC_COST);

        // Costs no T1 task reaches are still answered exactly, unmemoised.
        for _ in 0..2 {
            assert_eq!(memo.verdict(72, 9, || Some(7)), Some(7));
            assert_eq!(memo.verdict(1, 4097, || None), None);
        }
    }
}
