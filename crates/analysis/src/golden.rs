//! Golden-diagnostics snapshot: the exact rendering of every `USTC` code.
//!
//! The stream verifier's value is its *stability*: downstream tooling and
//! CI gates match on `USTC007`, severities and span shapes. This module
//! runs a fixed suite of seeded illegal (and legal) artifacts through the
//! verifier and snapshots the human rendering of every report against
//! `golden/diagnostics.txt`. Any change to a code, severity, message shape
//! or span rendering shows up as a reviewable diff instead of silently
//! breaking consumers.
//!
//! Update flow: `ANALYSIS_BLESS=1 cargo test -p analysis` rewrites the
//! snapshot; the diff then documents the diagnostics change.

use std::path::PathBuf;

use simkit::driver::{Kernel, KernelReport};
use simkit::{EventCounts, UtilHistogram};
use sparse::{BbcField, BbcMatrix, CooMatrix, CsrMatrix};
use uni_stc::compiler::compile_spmv;
use uni_stc::isa::{Program, Uwmma};
use uni_stc::tms::T3Task;
use uni_stc::UniStcConfig;

use crate::concurrency::{verify_fold, verify_model_plan, verify_runtime_fold, verify_shard_plan};
use crate::diag::Report;
use crate::model::{route_tasks, StreamModel, T1Node, T3Node};
use crate::schedule::{explore, ModelBug, ModelConfig};
use crate::verifier::Verifier;

/// A deterministic diagonal-plus-stride BBC matrix (the snapshot pins it).
fn seeded_matrix(n: usize) -> BbcMatrix {
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        coo.push(i, i, 1.0);
        coo.push(i, (i * 7) % n, 2.0);
    }
    BbcMatrix::from_csr(&CsrMatrix::try_from(coo).expect("seeded coordinates are in range"))
}

fn dense_task(k: u8, i: u8, j: u8) -> T3Task {
    T3Task { i, j, k, a_tile: u16::MAX, b_tile: u16::MAX, products: 64 }
}

/// A deterministic per-shard [`KernelReport`] for the fold sections.
fn shard_report(cycles: u64, useful: u64, t1_tasks: u64) -> KernelReport {
    KernelReport {
        engine: "seeded".to_owned(),
        kernel: Kernel::SpMV,
        cycles,
        useful,
        t1_tasks,
        util: UtilHistogram::new(4),
        events: EventCounts::default(),
        energy: Default::default(),
    }
}

/// The seeded artifact suite: every `USTC` code exercised at least once,
/// plus one clean run, each paired with a stable snapshot section name.
pub fn seeded_suite() -> Vec<(&'static str, Report)> {
    let cfg = UniStcConfig::default();
    let v = Verifier::new(cfg);
    let mut suite = Vec::new();

    // USTC001: numeric with the lifecycle still IDLE.
    let mut p = Program::new();
    p.push(Uwmma::NumericMm, 4);
    suite.push(("numeric-without-batch", v.verify_program(&p)));

    // USTC002 (+004): overlapping task generation, batch never consumed.
    let mut p = Program::new();
    p.push(Uwmma::TaskGenMm, 2).push(Uwmma::TaskGenMv, 2);
    suite.push(("overlapping-task-gen", v.verify_program(&p)));

    // USTC005: mv batch consumed by an mm numeric.
    let mut p = Program::new();
    p.push(Uwmma::TaskGenMv, 2).push(Uwmma::NumericMm, 4);
    suite.push(("kind-mismatch", v.verify_program(&p)));

    // USTC003 + USTC004: lying cost model and a dead batch.
    let mut p = Program::new();
    p.push(Uwmma::LoadMetaMv, 9).push(Uwmma::TaskGenMv, 2);
    suite.push(("cost-out-of-range", v.verify_program(&p)));

    // USTC006: segments the SDPU lane allocator would reject.
    suite.push(("segment-overflow", v.verify_segments(&[4, 5, 0])));

    // USTC007 + USTC008: claimed occupancies above the queue capacities.
    suite.push(("queue-overflow", v.verify_queues(65, &[17])));

    // USTC010 + USTC011: routes outside the array and into a gated DPG.
    let routed = vec![
        T3Node { task: dense_task(0, 0, 0), dpg: 0 },
        T3Node { task: dense_task(0, 0, 1), dpg: 9 },
        T3Node { task: dense_task(0, 0, 2), dpg: 7 },
    ];
    let model = StreamModel {
        kernel: Kernel::SpMV,
        t1: vec![T1Node { block: Some(3), t3: routed }],
    };
    suite.push(("bad-routing", v.verify_model(&model)));

    // USTC009: same output tile twice within one K layer.
    let t3 = route_tasks(&cfg, &[dense_task(0, 1, 1), dense_task(0, 1, 1)]);
    let model = StreamModel { kernel: Kernel::SpMV, t1: vec![T1Node { block: None, t3 }] };
    suite.push(("write-conflict", v.verify_model(&model)));

    // USTC012: one flipped metadata bit, caught before any model walk.
    let mut corrupt = seeded_matrix(32);
    corrupt.flip_bit(BbcField::BitmapLv2, 0, 3);
    suite.push(("corrupt-metadata", v.verify_spmv(&corrupt, 2)));

    // USTC013: a stream whose numeric cost disagrees with the metadata.
    let a = seeded_matrix(48);
    let kernel = compile_spmv(&cfg, &a, 2);
    let mut tampered = kernel.clone();
    let mut rebuilt = Program::new();
    for (i, instr) in tampered.warps[0].program.instructions().iter().enumerate() {
        rebuilt.push(instr.op, if i == 3 { instr.cost + 1 } else { instr.cost });
    }
    tampered.warps[0].program = rebuilt;
    suite.push(("cost-mismatch", v.verify_spmv_against(&a, &tampered)));

    // Clean control: a real compiled SpMV stream verifies clean end-to-end.
    suite.push(("clean-spmv", v.verify_spmv(&seeded_matrix(64), 4)));

    // USTC014 + USTC015 + USTC016: one plan that overlaps (3..6 after
    // 0..4), leaves tasks 6..8 uncovered, and carries an empty shard and
    // an out-of-range shard.
    let plan = runtime::ShardPlan::from_ranges(10, vec![0..4, 3..6, 8..10, 4..4, 9..12]);
    suite.push(("shard-plan-violations", verify_shard_plan(&plan)));

    // USTC016 (model form): a plan sized for the wrong stream.
    let empty_model = StreamModel { kernel: Kernel::SpMV, t1: Vec::new() };
    let stale_plan = runtime::ShardPlan::contiguous(3, 1);
    suite.push(("stale-model-plan", verify_model_plan(&stale_plan, &empty_model)));

    // USTC017: a fold whose counters depend on shard encounter order.
    let shards: Vec<KernelReport> = (0..4).map(|i| shard_report(i + 1, 0, 1)).collect();
    let order_dependent = |acc: &mut KernelReport, next: &KernelReport| {
        acc.cycles = acc.cycles * 2 + next.cycles;
        acc.t1_tasks += next.t1_tasks;
        Ok(())
    };
    suite.push(("order-dependent-fold", verify_fold(&shard_report(0, 0, 0), &shards, &order_dependent)));

    // USTC018: a fold that accumulates energy per shard instead of
    // leaving it for the single post-merge recomputation.
    let mut energetic: Vec<KernelReport> = (0..3).map(|i| shard_report(i, i, 1)).collect();
    for s in &mut energetic {
        s.energy.compute = 1.5;
    }
    let energy_refolding = |acc: &mut KernelReport, next: &KernelReport| {
        acc.try_merge_scaled(next, 1)?;
        acc.energy.compute += next.energy.compute;
        Ok(())
    };
    suite.push((
        "energy-refolding-fold",
        verify_fold(&shard_report(0, 0, 0), &energetic, &energy_refolding),
    ));

    // USTC019: the schedule explorer catching an injected lost-steal bug.
    let lost = explore(&ModelConfig::clean(2, 3).with_bug(ModelBug::DropStolenTask), 50_000);
    suite.push(("lost-task-schedule", lost.report()));

    // Clean concurrency control: the real contiguous planner, the real
    // runtime fold and the faithful pool model all verify clean.
    let mut clean = verify_shard_plan(&runtime::ShardPlan::contiguous(97, 8));
    clean.merge(verify_runtime_fold(&shard_report(0, 0, 0), &shards));
    clean.merge(explore(&ModelConfig::clean(2, 4), 20_000).report());
    suite.push(("clean-concurrency", clean));

    suite
}

/// Renders the full diagnostics snapshot: one `##`-headed section per
/// seeded artifact, each holding the report's human rendering.
pub fn diagnostics_snapshot() -> String {
    let mut out = String::new();
    out.push_str("# analysis diagnostics snapshot (ANALYSIS_BLESS=1 to update)\n");
    for (name, report) in seeded_suite() {
        out.push_str("## ");
        out.push_str(name);
        out.push('\n');
        out.push_str(&report.render_human());
    }
    out
}

/// Path of the blessed snapshot file (inside the crate, so it is versioned
/// with the diagnostics it pins).
pub fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden").join("diagnostics.txt")
}

/// Compares the current snapshot against the blessed file — or rewrites
/// the file when `ANALYSIS_BLESS=1` is set in the environment.
///
/// # Errors
///
/// Returns a description of the first diverging line (with its line
/// number) when the snapshot and the blessed file disagree, or an IO error
/// description when the file is missing and blessing is off.
pub fn check_or_bless() -> Result<(), String> {
    let current = diagnostics_snapshot();
    let path = golden_path();
    if std::env::var_os("ANALYSIS_BLESS").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().expect("golden path has a parent"))
            .map_err(|e| format!("creating {}: {e}", path.display()))?;
        std::fs::write(&path, &current)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        return Ok(());
    }
    let blessed = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "reading {}: {e}\nrun `ANALYSIS_BLESS=1 cargo test -p analysis` to create it",
            path.display()
        )
    })?;
    if blessed == current {
        return Ok(());
    }
    let mut blessed_lines = blessed.lines();
    let mut current_lines = current.lines();
    let mut lineno = 0usize;
    loop {
        lineno += 1;
        match (blessed_lines.next(), current_lines.next()) {
            (Some(b), Some(c)) if b == c => continue,
            (b, c) => {
                return Err(format!(
                    "diagnostics snapshot diverges from {} at line {lineno}:\n  blessed: {}\n  current: {}\n\
                     re-bless with ANALYSIS_BLESS=1 if the diagnostics change is intentional",
                    path.display(),
                    b.unwrap_or("<missing>"),
                    c.unwrap_or("<missing>"),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Code;

    #[test]
    fn snapshot_is_deterministic() {
        assert_eq!(diagnostics_snapshot(), diagnostics_snapshot());
    }

    #[test]
    fn suite_exercises_every_code() {
        let suite = seeded_suite();
        for code in Code::ALL {
            assert!(
                suite.iter().any(|(_, r)| r.has_code(code)),
                "{} not exercised by the seeded suite",
                code.as_str()
            );
        }
        let clean = suite.iter().find(|(n, _)| *n == "clean-spmv").expect("clean control");
        assert!(clean.1.is_clean(), "the clean control must stay clean");
    }

    #[test]
    fn snapshot_names_every_code_string() {
        let snap = diagnostics_snapshot();
        for code in Code::ALL {
            assert!(snap.contains(code.as_str()), "{} missing from snapshot", code.as_str());
        }
    }

    #[test]
    fn golden_matches_or_blesses() {
        if let Err(e) = check_or_bless() {
            panic!("{e}");
        }
    }

    #[test]
    fn golden_path_is_inside_the_crate() {
        let p = golden_path();
        assert!(p.ends_with("golden/diagnostics.txt"));
        assert!(p.starts_with(env!("CARGO_MANIFEST_DIR")));
    }
}
