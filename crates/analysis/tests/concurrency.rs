//! Caught-defect tests for the concurrency verifier: each classic
//! parallel-runtime bug, injected deliberately, must be rejected with its
//! exact stable `USTC` code — in both the human and the JSON renderings.

use analysis::schedule::{explore, ModelBug, ModelConfig};
use analysis::{verify_fold, verify_runtime_fold, Code};
use simkit::driver::{Kernel, KernelReport};
use simkit::{EventCounts, UtilHistogram};

fn shard_report(cycles: u64, useful: u64, t1_tasks: u64) -> KernelReport {
    KernelReport {
        engine: "test".to_owned(),
        kernel: Kernel::SpMV,
        cycles,
        useful,
        t1_tasks,
        util: UtilHistogram::new(4),
        events: EventCounts::default(),
        energy: Default::default(),
    }
}

/// Asserts `code` appears in both renderers of `report`.
fn assert_code_in_both_renderings(report: &analysis::Report, code: Code) {
    assert!(report.has_code(code), "expected {}:\n{}", code.as_str(), report.render_human());
    let human = report.render_human();
    let json = report.render_json();
    assert!(human.contains(code.as_str()), "{} missing from human rendering:\n{human}", code.as_str());
    assert!(json.contains(code.as_str()), "{} missing from JSON rendering:\n{json}", code.as_str());
}

#[test]
fn injected_non_commutative_fold_is_rejected_as_ustc017() {
    let shards: Vec<KernelReport> = (0..5).map(|i| shard_report(3 * i + 1, i, 1)).collect();
    let order_dependent = |acc: &mut KernelReport, next: &KernelReport| {
        acc.cycles = acc.cycles * 2 + next.cycles;
        acc.t1_tasks += next.t1_tasks;
        Ok(())
    };
    let report = verify_fold(&shard_report(0, 0, 0), &shards, &order_dependent);
    assert_code_in_both_renderings(&report, Code::NonCommutativeFold);

    // The runtime's real fold stays a commutative monoid on the same shards.
    assert!(verify_runtime_fold(&shard_report(0, 0, 0), &shards).is_clean());
}

#[test]
fn injected_lost_task_schedule_is_rejected_as_ustc019() {
    let buggy = ModelConfig::clean(2, 3).with_bug(ModelBug::DropStolenTask);
    let exploration = explore(&buggy, 50_000);
    assert!(!exploration.is_clean(), "the dropped-steal defect must be caught");
    let report = exploration.report();
    assert_code_in_both_renderings(&report, Code::ScheduleDivergence);
}

#[test]
fn explorer_covers_a_thousand_interleavings_with_zero_divergence() {
    let mut total = 0u64;
    for (name, cfg, budget) in analysis::schedule::default_suite() {
        let e = explore(&cfg, budget);
        assert!(e.is_clean(), "{name} diverged: {:?}", e.violations);
        assert_eq!(e.signatures.len(), 1, "{name} produced multiple signatures");
        total += e.schedules;
    }
    assert!(total >= 1_000, "only {total} distinct interleavings explored");
}
