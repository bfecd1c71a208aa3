//! Concurrency verification: static proofs over shard plans and the
//! shard-report fold.
//!
//! The parallel runtime's headline claim — a sharded run folds to a
//! report **bit-identical** to the serial driver's — rests on exactly
//! three properties, and this module proves each one statically, before
//! a single worker is spawned:
//!
//! 1. **Disjointness** — no two shards claim the same T1 task
//!    (`USTC014`), or the task would be double-counted.
//! 2. **Coverage** — every task is claimed by some shard (`USTC015`),
//!    and every shard is well-formed: non-empty, in range, planned for
//!    the right stream length (`USTC016`).
//! 3. **Commutative-monoid fold** — folding the per-shard
//!    [`KernelReport`]s is order-independent (`USTC017`) and leaves the
//!    energy field untouched so it is recomputed exactly once from the
//!    merged events (`USTC018`), never summed per shard.
//!
//! [`verify_shard_plan`] and [`verify_model_plan`] walk a
//! [`runtime::ShardPlan`] (optionally against the [`StreamModel`] whose
//! T1 list it shards) and report *every* violation, where the runtime's
//! own [`runtime::ShardPlan::verify_before_run`] gate stops at the
//! first. [`verify_fold`] takes the fold as a function and tests it over
//! deterministic permutations of the shard reports, so injected-defect
//! tests can hand it a broken fold and assert the exact code.
//!
//! Spans reuse the model vocabulary: `block` is the shard index, `task`
//! the T1 task index.

use simkit::driver::KernelReport;
use simkit::CounterOverflow;
use sparse::rng::Rng64;

use crate::diag::{Code, Diagnostic, Report, Span};
use crate::model::StreamModel;

/// Seed for the deterministic fold permutations; fixed so the golden
/// snapshot pins the exact shuffles [`verify_fold`] exercises.
const FOLD_SHUFFLE_SEED: u64 = 0x5EED_F01D;

/// How many seeded shuffles [`verify_fold`] tries on top of the identity
/// and reversed orders.
const FOLD_SHUFFLES: usize = 3;

/// Verifies a shard plan in isolation: disjointness, coverage and shard
/// well-formedness. Reports every violation (`USTC014`–`USTC016`), not
/// just the first.
pub fn verify_shard_plan(plan: &runtime::ShardPlan) -> Report {
    let mut report = Report::new();
    let tasks = plan.tasks();
    // `owner[i]` = 1 + index of the first shard that claimed task i.
    let mut owner = vec![0usize; tasks];
    for (s, range) in plan.shards().iter().enumerate() {
        if range.start >= range.end {
            report.push(Diagnostic::new(
                Code::ShardMalformed,
                Span::at_block(s),
                format!("shard {s} is empty ({}..{})", range.start, range.end),
            ));
            continue;
        }
        if range.end > tasks {
            report.push(Diagnostic::new(
                Code::ShardMalformed,
                Span::at_block(s),
                format!("shard {s} ends at {}, past the {tasks}-task stream", range.end),
            ));
        }
        let claim = range.start..range.end.min(tasks);
        for (task, slot) in owner.iter_mut().enumerate().take(claim.end).skip(claim.start) {
            if *slot != 0 {
                report.push(Diagnostic::new(
                    Code::ShardOverlap,
                    Span::at_task(s, task),
                    format!("shards {} and {s} both claim task {task}", *slot - 1),
                ));
            } else {
                *slot = s + 1;
            }
        }
    }
    for (task, &o) in owner.iter().enumerate() {
        if o == 0 {
            report.push(Diagnostic::new(
                Code::ShardGap,
                Span { task: Some(task), ..Span::default() },
                format!("task {task} is claimed by no shard"),
            ));
        }
    }
    report
}

/// Verifies a shard plan *against the stream it claims to shard*: the
/// plan must be sized for the model's T1 list (`USTC016` otherwise) and
/// pass every [`verify_shard_plan`] check.
pub fn verify_model_plan(plan: &runtime::ShardPlan, model: &StreamModel) -> Report {
    let mut report = Report::new();
    if plan.tasks() != model.t1.len() {
        report.push(Diagnostic::new(
            Code::ShardMalformed,
            Span::none(),
            format!(
                "plan shards a {}-task stream but the {} model issues {} T1 tasks",
                plan.tasks(),
                model.kernel,
                model.t1.len()
            ),
        ));
    }
    report.merge(verify_shard_plan(plan));
    report
}

/// A shard-report fold: merges the second report into the first, or
/// reports that a merged counter is not representable.
pub type Fold<'a> = &'a dyn Fn(&mut KernelReport, &KernelReport) -> Result<(), CounterOverflow>;

/// A scaled merge: adds the second report's counters the given number of
/// times to the first.
pub type Scale<'a> =
    &'a dyn Fn(&mut KernelReport, &KernelReport, u64) -> Result<(), CounterOverflow>;

/// Folds `shards` into a copy of `seed` in the index order given by
/// `order`.
fn fold_in_order(
    seed: &KernelReport,
    shards: &[KernelReport],
    fold: Fold<'_>,
    order: &[usize],
) -> Result<KernelReport, CounterOverflow> {
    let mut acc = seed.clone();
    for &i in order {
        fold(&mut acc, &shards[i])?;
    }
    Ok(acc)
}

/// Whether two folded reports agree on every order-sensitive counter
/// (everything except the energy field, which `USTC018` checks
/// separately).
fn counters_agree(a: &KernelReport, b: &KernelReport) -> bool {
    a.cycles == b.cycles
        && a.useful == b.useful
        && a.t1_tasks == b.t1_tasks
        && a.util == b.util
        && a.events == b.events
}

/// Describes a permutation compactly for diagnostics.
fn order_label(order: &[usize]) -> String {
    let parts: Vec<String> = order.iter().map(usize::to_string).collect();
    parts.join(",")
}

/// Verifies that `fold` merges shard reports as a commutative monoid
/// with `seed` (the empty-stream report) as identity:
///
/// * folding in the identity order, the reversed order and
///   `FOLD_SHUFFLES` seeded shuffles must agree on every counter —
///   a divergence is `USTC017`;
/// * the fold must leave `seed`'s energy untouched (energy is a
///   function of the *merged* events, recomputed exactly once by the
///   caller) — a fold that accumulates energy is `USTC018`.
///
/// A fold that cannot represent the merged counters in some order
/// (`CounterOverflow`) is `USTC017` as well: no order may yield a report.
pub fn verify_fold(seed: &KernelReport, shards: &[KernelReport], fold: Fold<'_>) -> Report {
    let mut report = Report::new();
    let identity: Vec<usize> = (0..shards.len()).collect();
    let base = match fold_in_order(seed, shards, fold, &identity) {
        Ok(base) => base,
        Err(e) => {
            report.push(overflow_diagnostic(shards.len(), &identity, e));
            return report;
        }
    };

    let mut orders: Vec<Vec<usize>> = Vec::new();
    let mut reversed = identity.clone();
    reversed.reverse();
    orders.push(reversed);
    let mut rng = Rng64::new(FOLD_SHUFFLE_SEED);
    for _ in 0..FOLD_SHUFFLES {
        let mut order = identity.clone();
        // Fisher–Yates with the fixed seed: the same shuffles every run.
        for i in (1..order.len()).rev() {
            let j = rng.next_range(i + 1);
            order.swap(i, j);
        }
        orders.push(order);
    }

    for order in &orders {
        let alt = match fold_in_order(seed, shards, fold, order) {
            Ok(alt) => alt,
            Err(e) => {
                report.push(overflow_diagnostic(shards.len(), order, e));
                break;
            }
        };
        if !counters_agree(&base, &alt) {
            report.push(Diagnostic::new(
                Code::NonCommutativeFold,
                Span::none(),
                format!(
                    "folding {} shard reports in order [{}] diverges from shard order: \
                     {} vs {}",
                    shards.len(),
                    order_label(order),
                    alt.counter_signature(),
                    base.counter_signature()
                ),
            ));
            break; // one witness is enough; more orders add no information
        }
    }

    if base.energy != seed.energy {
        report.push(Diagnostic::new(
            Code::EnergyRefold,
            Span::none(),
            "fold accumulates energy per shard; energy must be recomputed exactly once \
             from the merged events"
                .to_owned(),
        ));
    }
    report
}

/// The `USTC017` finding for a fold that overflowed in `order`.
fn overflow_diagnostic(shards: usize, order: &[usize], e: CounterOverflow) -> Diagnostic {
    Diagnostic::new(
        Code::NonCommutativeFold,
        Span::none(),
        format!("folding {shards} shard reports in order [{}] fails: {e}", order_label(order)),
    )
}

/// The fold every sharded kernel run applies to its shard reports:
/// [`KernelReport::try_merge_scaled`] with a factor of 1.
fn fold_once(acc: &mut KernelReport, next: &KernelReport) -> Result<(), CounterOverflow> {
    acc.try_merge_scaled(next, 1)
}

/// [`verify_fold`] over the runtime's real fold,
/// [`KernelReport::try_merge_scaled`] with a factor of 1. Clean by
/// construction; the golden suite pins that this stays true.
pub fn verify_runtime_fold(seed: &KernelReport, shards: &[KernelReport]) -> Report {
    verify_fold(seed, shards, &fold_once)
}

/// Verifies that `scale` adds `times` copies of a single-task report
/// exactly as `times` applications of `fold` do — the identity a counted
/// task stream rests on (DESIGN.md §17):
///
/// * folding `single` into `seed` `times` times and scaling it once must
///   agree on every counter, and must both succeed or both overflow; a
///   divergence is `USTC017`;
/// * `scale` must leave `seed`'s energy untouched, as the fold does;
///   otherwise `USTC018`.
///
/// The fold side runs `times` steps, so witnesses use small factors.
pub fn verify_scaling(
    seed: &KernelReport,
    single: &KernelReport,
    times: u64,
    fold: Fold<'_>,
    scale: Scale<'_>,
) -> Report {
    let mut report = Report::new();
    let mut folded = Ok(seed.clone());
    for _ in 0..times {
        folded = folded.and_then(|mut acc| fold(&mut acc, single).map(|()| acc));
    }
    let mut scaled = seed.clone();
    let scaled = scale(&mut scaled, single, times).map(|()| scaled);
    let agree = match (&folded, &scaled) {
        (Ok(f), Ok(s)) => counters_agree(f, s),
        (Err(_), Err(_)) => true,
        _ => false,
    };
    if !agree {
        let render = |r: &Result<KernelReport, CounterOverflow>| match r {
            Ok(r) => r.counter_signature(),
            Err(e) => e.to_string(),
        };
        report.push(Diagnostic::new(
            Code::NonCommutativeFold,
            Span::none(),
            format!(
                "scaling a single-task report by {times} diverges from folding it {times} times: \
                 {} vs {}",
                render(&scaled),
                render(&folded)
            ),
        ));
    }
    if scaled.is_ok_and(|s| s.energy != seed.energy) {
        report.push(Diagnostic::new(
            Code::EnergyRefold,
            Span::none(),
            "scaling accumulates energy; energy must be recomputed exactly once from the \
             merged events"
                .to_owned(),
        ));
    }
    report
}

/// [`verify_scaling`] over the real pair: the runtime's shard fold and
/// [`KernelReport::try_merge_scaled`], the scaling `driver::run_stream`
/// applies to each distinct task.
pub fn verify_runtime_scaling(seed: &KernelReport, single: &KernelReport, times: u64) -> Report {
    verify_scaling(seed, single, times, &fold_once, &KernelReport::try_merge_scaled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::driver::Kernel;
    use simkit::{EventCounts, UtilHistogram};

    fn shard_report(cycles: u64, useful: u64, t1: u64) -> KernelReport {
        KernelReport {
            engine: "seeded".to_owned(),
            kernel: Kernel::SpMV,
            cycles,
            useful,
            t1_tasks: t1,
            util: UtilHistogram::new(4),
            events: EventCounts::default(),
            energy: Default::default(),
        }
    }

    fn seed_report() -> KernelReport {
        shard_report(0, 0, 0)
    }

    #[test]
    fn clean_contiguous_plan_verifies_clean() {
        for (tasks, threads) in [(10, 2), (0, 4), (97, 8)] {
            let plan = runtime::ShardPlan::contiguous(tasks, threads);
            assert!(verify_shard_plan(&plan).is_clean(), "tasks={tasks} threads={threads}");
        }
    }

    #[test]
    fn overlap_gap_and_malformed_each_get_their_code() {
        let plan = runtime::ShardPlan::from_ranges(10, vec![0..4, 3..6, 8..10, 4..4, 9..12]);
        let r = verify_shard_plan(&plan);
        assert!(r.has_code(Code::ShardOverlap), "{}", r.render_human());
        assert!(r.has_code(Code::ShardGap), "tasks 6,7 uncovered: {}", r.render_human());
        assert!(r.has_code(Code::ShardMalformed), "{}", r.render_human());
        assert!(r.has_errors());
    }

    #[test]
    fn runtime_fold_is_a_commutative_monoid() {
        let shards: Vec<KernelReport> =
            (0..6).map(|i| shard_report(10 + i, 5 * i, 1)).collect();
        let r = verify_runtime_fold(&seed_report(), &shards);
        assert!(r.is_clean(), "{}", r.render_human());
    }

    #[test]
    fn order_dependent_fold_is_ustc017() {
        let shards: Vec<KernelReport> = (0..4).map(|i| shard_report(i + 1, 0, 1)).collect();
        // A "max so far" fold depends on encounter order via saturating_sub.
        let bad = |acc: &mut KernelReport, next: &KernelReport| {
            acc.cycles = acc.cycles * 2 + next.cycles;
            acc.t1_tasks += next.t1_tasks;
            Ok(())
        };
        let r = verify_fold(&seed_report(), &shards, &bad);
        assert!(r.has_code(Code::NonCommutativeFold), "{}", r.render_human());
    }

    #[test]
    fn energy_accumulating_fold_is_ustc018() {
        let mut shards: Vec<KernelReport> =
            (0..3).map(|i| shard_report(i, i, 1)).collect();
        for s in &mut shards {
            s.energy.compute = 1.5;
        }
        let bad = |acc: &mut KernelReport, next: &KernelReport| {
            fold_once(acc, next)?;
            acc.energy.compute += next.energy.compute;
            Ok(())
        };
        let r = verify_fold(&seed_report(), &shards, &bad);
        assert!(r.has_code(Code::EnergyRefold), "{}", r.render_human());
        assert!(!r.has_code(Code::NonCommutativeFold), "{}", r.render_human());
    }

    #[test]
    fn overflowing_fold_is_ustc017() {
        let shards = [shard_report(u64::MAX, 0, 1), shard_report(1, 0, 1)];
        let r = verify_runtime_fold(&seed_report(), &shards);
        assert!(r.has_code(Code::NonCommutativeFold), "{}", r.render_human());
        assert!(r.render_human().contains("overflows u64"), "{}", r.render_human());
    }

    /// A real single-task report: one Uni-STC SpMM task.
    fn single_task() -> (KernelReport, KernelReport) {
        let engine = uni_stc::UniStc::default();
        let em = simkit::EnergyModel::default();
        let task = simkit::T1Task::mm(
            simkit::Block16::from_fn(|r, c| (r * 3 + c) % 5 == 0),
            simkit::Block16::dense().keep_cols(9),
        );
        let seed = simkit::driver::run_stream(&engine, &em, Kernel::SpMM, &[]).unwrap();
        let single = simkit::driver::run_stream(&engine, &em, Kernel::SpMM, &[(task, 1)]).unwrap();
        assert_eq!(single.t1_tasks, 1);
        (seed, single)
    }

    #[test]
    fn runtime_scaling_equals_repeated_folding() {
        let (seed, single) = single_task();
        for times in [0, 1, 2, 7, 100] {
            let r = verify_runtime_scaling(&seed, &single, times);
            assert!(r.is_clean(), "times={times}: {}", r.render_human());
        }
        // Both sides overflow together, so an unrepresentable scale is
        // consistent rather than divergent.
        let huge = shard_report(u64::MAX / 2 + 1, 0, 1);
        assert!(verify_runtime_scaling(&seed_report(), &huge, 2).is_clean());
    }

    #[test]
    fn scaling_that_skips_a_counter_is_ustc017() {
        let (seed, single) = single_task();
        let forgets_util = |acc: &mut KernelReport, next: &KernelReport, times: u64| {
            let mut no_util = next.clone();
            no_util.util = UtilHistogram::new(next.util.lanes());
            acc.try_merge_scaled(&no_util, times)?;
            acc.util.merge(&next.util);
            Ok(())
        };
        let r = verify_scaling(&seed, &single, 5, &fold_once, &forgets_util);
        assert!(r.has_code(Code::NonCommutativeFold), "{}", r.render_human());
        let r = verify_scaling(&seed, &single, 1, &fold_once, &forgets_util);
        assert!(r.is_clean(), "a factor of 1 hides the defect: {}", r.render_human());
    }

    #[test]
    fn scaling_that_accumulates_energy_is_ustc018() {
        let (seed, mut single) = single_task();
        single.energy.compute = 2.0;
        let energetic = |acc: &mut KernelReport, next: &KernelReport, times: u64| {
            acc.try_merge_scaled(next, times)?;
            acc.energy.compute += next.energy.compute * times as f64;
            Ok(())
        };
        let r = verify_scaling(&seed, &single, 3, &fold_once, &energetic);
        assert!(r.has_code(Code::EnergyRefold), "{}", r.render_human());
        assert!(!r.has_code(Code::NonCommutativeFold), "{}", r.render_human());
    }

    #[test]
    fn model_plan_length_mismatch_is_ustc016() {
        let model = StreamModel { kernel: Kernel::SpMV, t1: Vec::new() };
        let plan = runtime::ShardPlan::contiguous(3, 1);
        let r = verify_model_plan(&plan, &model);
        assert!(r.has_code(Code::ShardMalformed), "{}", r.render_human());
    }
}
