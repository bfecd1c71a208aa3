//! The diagnostics engine: stable `USTC` codes, severities, spans into
//! program listings, and human / JSON renderers.
//!
//! Every invariant the static verifier proves has one stable code, so test
//! suites, CI gates and downstream tooling can match on `USTC007` rather
//! than on message text. Codes are append-only: a code is never renumbered
//! or reused once it has shipped in a golden snapshot. A code whose
//! invariant can no longer be broken is retired, and its number stays
//! unused: `USTC014`–`USTC016` proved shard plans disjoint, covering and
//! well-formed, which `runtime::ShardPlan::contiguous`, the only plan
//! constructor, now guarantees.

use std::fmt;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but executable: the hardware would run the stream,
    /// possibly at degraded fidelity (e.g. a clamped cycle cost).
    Warning,
    /// The stream is illegal: executing it would fault the lifecycle state
    /// machine, overflow a queue, or feed a unit an impossible operand.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// The stable diagnostic codes of the static verifier.
///
/// The full table lives in DESIGN.md §9; the variant doc comments here are
/// the normative one-line summaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Code {
    /// `USTC001` — `stc.numeric.*` issued with no task batch in flight
    /// (the lifecycle state machine is IDLE).
    NumericWithoutBatch,
    /// `USTC002` — `stc.task_gen.*` issued while a previous batch is still
    /// in flight (BUSY/READY).
    OverlappingTaskGen,
    /// `USTC003` — instruction cost outside its Table V cycle range (the
    /// hardware clamps, so the stream's cost model is lying).
    CostOutOfRange,
    /// `USTC004` — a generated task batch is never consumed by a
    /// `stc.numeric.*` (dead task generation at stream end).
    UnconsumedBatch,
    /// `USTC005` — MV/MM kind mismatch between `stc.task_gen.*` and the
    /// `stc.numeric.*` that consumes its batch.
    KindMismatch,
    /// `USTC006` — a T4 segment length outside `1..=4` lanes; the SDPU
    /// lane allocator would reject (panic on) it.
    SegmentTooLong,
    /// `USTC007` — Tile-queue occupancy above the 64 T3 tasks one T1 task
    /// can legally produce (4x4x4 outer-product grid).
    TileQueueOverflow,
    /// `USTC008` — Dot-product-queue occupancy above the 16 T4 codes one
    /// T3 task can legally produce (4x4 output tile).
    DotQueueOverflow,
    /// `USTC009` — TMS write conflict: two T3 tasks in the same issue
    /// window target the same output tile.
    WriteConflict,
    /// `USTC010` — a T3 task routed to a DPG slot outside the configured
    /// `n_dpg` array.
    DpgRouteOutOfRange,
    /// `USTC011` — a T3 task routed to a DPG the power-gating look-ahead
    /// has gated off for its issue window.
    GatedDpgRoute,
    /// `USTC012` — BBC metadata fails deep structural validation
    /// (bitmap/ValPtr popcount cross-checks).
    CorruptMetadata,
    /// `USTC013` — an instruction stream disagrees with the stream the
    /// verifier recompiles from the operand metadata.
    CostMismatch,
    /// `USTC017` — the per-shard report fold is not commutative: folding
    /// the same shard reports in a different order changes the merged
    /// counters, so the parallel schedule leaks into the result.
    NonCommutativeFold,
    /// `USTC018` — the fold accumulates energy per shard instead of
    /// leaving it to be recomputed exactly once from the merged events.
    EnergyRefold,
    /// `USTC019` — schedule divergence: an explored pool schedule lost a
    /// task, executed one twice, or produced a merged counter signature
    /// different from the serial reference.
    ScheduleDivergence,
}

impl Code {
    /// Every live code, in numeric order (for docs and exhaustiveness
    /// tests).
    pub const ALL: [Code; 16] = [
        Code::NumericWithoutBatch,
        Code::OverlappingTaskGen,
        Code::CostOutOfRange,
        Code::UnconsumedBatch,
        Code::KindMismatch,
        Code::SegmentTooLong,
        Code::TileQueueOverflow,
        Code::DotQueueOverflow,
        Code::WriteConflict,
        Code::DpgRouteOutOfRange,
        Code::GatedDpgRoute,
        Code::CorruptMetadata,
        Code::CostMismatch,
        Code::NonCommutativeFold,
        Code::EnergyRefold,
        Code::ScheduleDivergence,
    ];

    /// The stable code string, e.g. `"USTC007"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::NumericWithoutBatch => "USTC001",
            Code::OverlappingTaskGen => "USTC002",
            Code::CostOutOfRange => "USTC003",
            Code::UnconsumedBatch => "USTC004",
            Code::KindMismatch => "USTC005",
            Code::SegmentTooLong => "USTC006",
            Code::TileQueueOverflow => "USTC007",
            Code::DotQueueOverflow => "USTC008",
            Code::WriteConflict => "USTC009",
            Code::DpgRouteOutOfRange => "USTC010",
            Code::GatedDpgRoute => "USTC011",
            Code::CorruptMetadata => "USTC012",
            Code::CostMismatch => "USTC013",
            Code::NonCommutativeFold => "USTC017",
            Code::EnergyRefold => "USTC018",
            Code::ScheduleDivergence => "USTC019",
        }
    }

    /// The code's fixed severity.
    pub fn severity(self) -> Severity {
        match self {
            Code::CostOutOfRange
            | Code::UnconsumedBatch
            | Code::WriteConflict
            | Code::CostMismatch => Severity::Warning,
            Code::NumericWithoutBatch
            | Code::OverlappingTaskGen
            | Code::KindMismatch
            | Code::SegmentTooLong
            | Code::TileQueueOverflow
            | Code::DotQueueOverflow
            | Code::DpgRouteOutOfRange
            | Code::GatedDpgRoute
            | Code::CorruptMetadata
            | Code::NonCommutativeFold
            | Code::EnergyRefold
            | Code::ScheduleDivergence => Severity::Error,
        }
    }

    /// One-line normative summary (the DESIGN.md table entry).
    pub fn summary(self) -> &'static str {
        match self {
            Code::NumericWithoutBatch => "numeric issued with no task batch in flight",
            Code::OverlappingTaskGen => "task_gen issued while a batch is in flight",
            Code::CostOutOfRange => "instruction cost outside its Table V cycle range",
            Code::UnconsumedBatch => "generated task batch never consumed",
            Code::KindMismatch => "mv/mm kind mismatch between task_gen and numeric",
            Code::SegmentTooLong => "T4 segment length outside 1..=4 lanes",
            Code::TileQueueOverflow => "Tile-queue occupancy above 64 T3 tasks",
            Code::DotQueueOverflow => "Dot-product-queue occupancy above 16 T4 codes",
            Code::WriteConflict => "write conflict inside one issue window",
            Code::DpgRouteOutOfRange => "T3 task routed outside the DPG array",
            Code::GatedDpgRoute => "T3 task routed to a power-gated DPG",
            Code::CorruptMetadata => "BBC metadata fails structural validation",
            Code::CostMismatch => "stream disagrees with metadata-derived recompilation",
            Code::NonCommutativeFold => "shard-report fold is order-dependent",
            Code::EnergyRefold => "fold accumulates energy instead of recomputing it once",
            Code::ScheduleDivergence => "a pool schedule loses, repeats, or re-merges a task",
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Where in the verified artifact a diagnostic points.
///
/// All components are optional: a lifecycle finding carries a warp and an
/// instruction index (resolvable against [`Program::listing`]); a model
/// finding carries a T1 (block) index and a task index within it.
///
/// [`Program::listing`]: uni_stc::isa::Program::listing
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// Warp index within a [`CompiledKernel`](uni_stc::compiler::CompiledKernel).
    pub warp: Option<usize>,
    /// Instruction index within the warp's program listing.
    pub instr: Option<usize>,
    /// T1 node index (for matrix-derived models, the BBC block index).
    pub block: Option<usize>,
    /// T3 task index within the T1 node.
    pub task: Option<usize>,
}

impl Span {
    /// A span with no location (whole-artifact findings).
    pub fn none() -> Self {
        Span::default()
    }

    /// A span pointing at one instruction of one warp's listing.
    pub fn at_instr(warp: usize, instr: usize) -> Self {
        Span { warp: Some(warp), instr: Some(instr), ..Span::default() }
    }

    /// A span pointing at one T3 task of one T1 node.
    pub fn at_task(block: usize, task: usize) -> Self {
        Span { block: Some(block), task: Some(task), ..Span::default() }
    }

    /// A span pointing at a whole T1 node.
    pub fn at_block(block: usize) -> Self {
        Span { block: Some(block), ..Span::default() }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts: Vec<String> = Vec::new();
        if let Some(w) = self.warp {
            parts.push(format!("warp {w}"));
        }
        if let Some(i) = self.instr {
            parts.push(format!("instr {i}"));
        }
        if let Some(b) = self.block {
            parts.push(format!("t1 {b}"));
        }
        if let Some(t) = self.task {
            parts.push(format!("t3 {t}"));
        }
        if parts.is_empty() {
            write!(f, "<stream>")
        } else {
            f.write_str(&parts.join(", "))
        }
    }
}

/// One verifier finding: a code, a location and a specific message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The stable code.
    pub code: Code,
    /// Where it points.
    pub span: Span,
    /// The instance-specific message (values, indices, limits).
    pub message: String,
}

impl Diagnostic {
    /// Creates a diagnostic.
    pub fn new(code: Code, span: Span, message: impl Into<String>) -> Self {
        Diagnostic { code, span, message: message.into() }
    }

    /// The code's severity.
    pub fn severity(&self) -> Severity {
        self.code.severity()
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]: {} ({})",
            self.severity(),
            self.code,
            self.message,
            self.span
        )
    }
}

/// An ordered collection of diagnostics from one verification run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    diags: Vec<Diagnostic>,
}

impl Report {
    /// An empty (clean) report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Appends a finding.
    pub fn push(&mut self, d: Diagnostic) {
        self.diags.push(d);
    }

    /// Appends every finding of another report.
    pub fn merge(&mut self, other: Report) {
        self.diags.extend(other.diags);
    }

    /// All findings, in emission order.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diags
    }

    /// Whether the run produced no findings at all.
    pub fn is_clean(&self) -> bool {
        self.diags.is_empty()
    }

    /// Whether any finding is an [`Severity::Error`].
    pub fn has_errors(&self) -> bool {
        self.diags.iter().any(|d| d.severity() == Severity::Error)
    }

    /// The first error-severity finding, if any (what a driver reports when
    /// it refuses to simulate a stream).
    pub fn first_error(&self) -> Option<&Diagnostic> {
        self.diags.iter().find(|d| d.severity() == Severity::Error)
    }

    /// Whether any finding carries `code`.
    pub fn has_code(&self, code: Code) -> bool {
        self.diags.iter().any(|d| d.code == code)
    }

    /// Human-readable rendering: one line per finding plus a summary line.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in &self.diags {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        let errors = self.diags.iter().filter(|d| d.severity() == Severity::Error).count();
        let warnings = self.diags.len() - errors;
        out.push_str(&format!("{errors} error(s), {warnings} warning(s)\n"));
        out
    }

    /// JSON rendering (an array of finding objects), hand-rolled so the
    /// workspace stays dependency-free.
    pub fn render_json(&self) -> String {
        let mut out = String::from("[");
        for (i, d) in self.diags.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"code\":\"");
            out.push_str(d.code.as_str());
            out.push_str("\",\"severity\":\"");
            out.push_str(&d.severity().to_string());
            out.push_str("\",\"span\":\"");
            out.push_str(&json_escape(&d.span.to_string()));
            out.push_str("\",\"message\":\"");
            out.push_str(&json_escape(&d.message));
            out.push_str("\"}");
        }
        out.push(']');
        out
    }
}

/// Escapes a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_dense() {
        // Retired codes keep their numbers; no live code may take one.
        const RETIRED: [&str; 3] = ["USTC014", "USTC015", "USTC016"];
        let mut numbered: Vec<&str> = Code::ALL.iter().map(|c| c.as_str()).collect();
        numbered.extend(RETIRED);
        numbered.sort_unstable();
        for (i, code) in numbered.iter().enumerate() {
            assert_eq!(*code, format!("USTC{:03}", i + 1));
        }
        for pair in Code::ALL.windows(2) {
            assert!(pair[0].as_str() < pair[1].as_str(), "ALL in numeric order");
        }
        for code in Code::ALL {
            assert!(!code.summary().is_empty());
        }
    }

    #[test]
    fn severity_ordering_puts_errors_above_warnings() {
        assert!(Severity::Error > Severity::Warning);
        assert_eq!(Code::TileQueueOverflow.severity(), Severity::Error);
        assert_eq!(Code::WriteConflict.severity(), Severity::Warning);
    }

    #[test]
    fn span_renders_all_components() {
        assert_eq!(Span::none().to_string(), "<stream>");
        assert_eq!(Span::at_instr(2, 7).to_string(), "warp 2, instr 7");
        assert_eq!(Span::at_task(3, 5).to_string(), "t1 3, t3 5");
    }

    #[test]
    fn report_tracks_errors_and_codes() {
        let mut r = Report::new();
        assert!(r.is_clean());
        assert!(!r.has_errors());
        r.push(Diagnostic::new(Code::CostOutOfRange, Span::at_instr(0, 1), "cost 99"));
        assert!(!r.has_errors());
        r.push(Diagnostic::new(Code::NumericWithoutBatch, Span::at_instr(0, 2), "idle"));
        assert!(r.has_errors());
        assert!(r.has_code(Code::NumericWithoutBatch));
        assert!(!r.has_code(Code::CorruptMetadata));
        assert_eq!(r.first_error().map(|d| d.code), Some(Code::NumericWithoutBatch));
    }

    #[test]
    fn human_rendering_is_line_per_finding() {
        let mut r = Report::new();
        r.push(Diagnostic::new(Code::SegmentTooLong, Span::at_task(0, 0), "len 5"));
        let h = r.render_human();
        assert!(h.contains("error[USTC006]: len 5 (t1 0, t3 0)"));
        assert!(h.ends_with("1 error(s), 0 warning(s)\n"));
    }

    #[test]
    fn json_rendering_escapes_and_wraps() {
        let mut r = Report::new();
        r.push(Diagnostic::new(Code::CorruptMetadata, Span::none(), "bad \"quote\"\n"));
        let j = r.render_json();
        assert!(j.starts_with('[') && j.ends_with(']'));
        assert!(j.contains("\\\"quote\\\"\\n"));
        assert!(j.contains("\"code\":\"USTC012\""));
        assert_eq!(Report::new().render_json(), "[]");
    }

    #[test]
    fn json_escape_controls() {
        assert_eq!(json_escape("a\u{1}b"), "a\\u0001b");
        assert_eq!(json_escape("t\tr\r"), "t\\tr\\r");
    }
}
