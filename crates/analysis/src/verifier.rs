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

use sparse::{BbcMatrix, SparseVector};
use uni_stc::compiler::{compile_spgemm, compile_spmv, CompiledKernel};
use uni_stc::dpg::expand_t3;
use uni_stc::isa::{Program, Uwmma};
use uni_stc::{UniStcConfig, T4_MAX_LEN};

use crate::diag::{Code, Diagnostic, Report, Span};
use crate::model::{active_dpgs, StreamModel, T3Node, DOT_QUEUE_CAP, TILE_QUEUE_CAP};

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

/// The static verifier, parameterised by one Uni-STC configuration.
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
            let block = node.block.unwrap_or(ni);
            if node.t3.len() > TILE_QUEUE_CAP {
                report.push(Diagnostic::new(
                    Code::TileQueueOverflow,
                    Span::at_block(block),
                    format!(
                        "{} T3 tasks exceed the {TILE_QUEUE_CAP}-entry Tile queue",
                        node.t3.len()
                    ),
                ));
            }
            self.check_t3_expansions(&mut report, block, &node.t3);
            self.check_write_conflicts(&mut report, block, &node.t3);
            self.check_routing(&mut report, block, &node.t3);
        }
        report
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

    /// Full static check of an SpMV invocation: metadata, stream model and
    /// the compiled per-warp UWMMA streams. Stops after the metadata check
    /// when the matrix is corrupt (a corrupt structure cannot be safely
    /// walked).
    pub fn verify_spmv(&self, a: &BbcMatrix, n_warps: usize) -> Report {
        let mut report = self.verify_matrix(a);
        if report.has_errors() {
            return report;
        }
        report.merge(self.verify_model(&StreamModel::spmv(&self.cfg, a)));
        report.merge(self.verify_kernel(&compile_spmv(&self.cfg, a, n_warps.max(1))));
        report
    }

    /// Full static check of an SpMSpV invocation (operand shapes, metadata
    /// and model; the compiler has no SpMSpV entry point). An `x` whose
    /// length is not `a.ncols()` is `USTC012`: the stream would mask
    /// blocks against segments `x` does not have.
    pub fn verify_spmspv(&self, a: &BbcMatrix, x: &SparseVector) -> Report {
        let mut report = self.verify_matrix(a);
        if x.dim() != a.ncols() {
            report.push(Diagnostic::new(
                Code::CorruptMetadata,
                Span::none(),
                spmspv_shape_message(a, x),
            ));
        }
        if report.has_errors() {
            return report;
        }
        report.merge(self.verify_model(&StreamModel::spmspv(&self.cfg, a, x)));
        report
    }

    /// Full static check of an SpMM invocation (metadata + model).
    pub fn verify_spmm(&self, a: &BbcMatrix, n_cols: usize) -> Report {
        let mut report = self.verify_matrix(a);
        if report.has_errors() {
            return report;
        }
        report.merge(self.verify_model(&StreamModel::spmm(&self.cfg, a, n_cols)));
        report
    }

    /// Full static check of an SpGEMM invocation: both operands' metadata,
    /// the block-grid shapes, the stream model, and the compiled streams.
    /// Non-conforming grids (`a.block_cols() != b.block_rows()`) are
    /// `USTC012`: the block outer-product walk cannot represent them.
    pub fn verify_spgemm(&self, a: &BbcMatrix, b: &BbcMatrix, n_warps: usize) -> Report {
        let mut report = self.verify_matrix(a);
        report.merge(self.verify_matrix(b));
        if a.block_cols() != b.block_rows() {
            report.push(Diagnostic::new(
                Code::CorruptMetadata,
                Span::none(),
                spgemm_shape_message(a, b),
            ));
        }
        if report.has_errors() {
            return report;
        }
        report.merge(self.verify_model(&StreamModel::spgemm(&self.cfg, a, b)));
        report.merge(self.verify_kernel(&compile_spgemm(&self.cfg, a, b, n_warps.max(1))));
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
        let expected = compile_spmv(&self.cfg, a, kernel.warps.len().max(1));
        report.merge(diff_kernels(&expected, kernel));
        report
    }
}

/// The `USTC012` message for an SpMSpV whose `x` does not match the
/// operator's column count; shared by the verifier and the service's
/// always-on shape gate.
pub fn spmspv_shape_message(a: &BbcMatrix, x: &SparseVector) -> String {
    format!(
        "SpMSpV operand shapes do not conform: x has length {} but A is {}x{}",
        x.dim(),
        a.nrows(),
        a.ncols()
    )
}

/// The `USTC012` message for an SpGEMM whose block grids do not conform;
/// shared by the verifier and the service's always-on shape gate.
pub fn spgemm_shape_message(a: &BbcMatrix, b: &BbcMatrix) -> String {
    format!(
        "SpGEMM block grids do not conform ({}x{} blocks vs {}x{})",
        a.block_rows(),
        a.block_cols(),
        b.block_rows(),
        b.block_cols()
    )
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
    n_warps: usize,
}

impl UstcVerifier {
    /// Default warp count the adapter compiles kernels with.
    pub const DEFAULT_WARPS: usize = 4;

    /// An adapter over the given configuration.
    pub fn new(cfg: UniStcConfig) -> Self {
        UstcVerifier { verifier: Verifier::new(cfg), n_warps: Self::DEFAULT_WARPS }
    }

    /// Overrides the warp count used for kernel compilation checks.
    pub fn with_warps(mut self, n_warps: usize) -> Self {
        self.n_warps = n_warps.max(1);
        self
    }

    /// The wrapped verifier.
    pub fn verifier(&self) -> &Verifier {
        &self.verifier
    }
}

fn to_result(report: Report) -> Result<(), simkit::driver::VerifyError> {
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
        to_result(self.verifier.verify_spmv(a, self.n_warps))
    }

    fn verify_spmspv(
        &self,
        a: &BbcMatrix,
        x: &SparseVector,
    ) -> Result<(), simkit::driver::VerifyError> {
        to_result(self.verifier.verify_spmspv(a, x))
    }

    fn verify_spmm(&self, a: &BbcMatrix, n_cols: usize) -> Result<(), simkit::driver::VerifyError> {
        to_result(self.verifier.verify_spmm(a, n_cols))
    }

    fn verify_spgemm(
        &self,
        a: &BbcMatrix,
        b: &BbcMatrix,
    ) -> Result<(), simkit::driver::VerifyError> {
        to_result(self.verifier.verify_spgemm(a, b, self.n_warps))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse::{CooMatrix, CsrMatrix};
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
        assert!(v.verify_model(&StreamModel::spmv(&cfg, &a)).is_clean());
        assert!(v.verify_model(&StreamModel::spmm(&cfg, &a, 40)).is_clean());
        assert!(v.verify_model(&StreamModel::spgemm(&cfg, &a, &a)).is_clean());
        assert!(v.verify_spmv(&a, 4).is_clean());
        assert!(v.verify_spgemm(&a, &a, 4).is_clean());
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
        let r = v.verify_spmv(&bad, 2);
        assert!(r.has_code(Code::CorruptMetadata));
        assert!(r.has_errors());
        assert!(v.verify_spmv(&a, 2).is_clean());
    }

    #[test]
    fn recompilation_diff_catches_tampered_costs() {
        let cfg = UniStcConfig::default();
        let v = Verifier::new(cfg);
        let a = bbc(48, (0..48).map(|i| (i, (i * 3) % 48)));
        let kernel = compile_spmv(&cfg, &a, 2);
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
}
