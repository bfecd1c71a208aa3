//! Concurrency verification: static proofs over the shard-report fold.
//!
//! The parallel runtime's headline claim — a sharded run folds to a
//! report **bit-identical** to the serial driver's — rests on two
//! properties:
//!
//! 1. **Every task in exactly one shard.** `runtime::ShardPlan` has one
//!    constructor, `ShardPlan::contiguous`, whose shards are non-empty,
//!    ascending and adjacent over `0..tasks`; no plan can overlap, leave a
//!    gap or hold a malformed shard, so there is nothing left to prove
//!    per plan (`USTC014`–`USTC016` are retired).
//! 2. **Commutative-monoid fold** — folding the per-shard
//!    [`KernelReport`]s is order-independent (`USTC017`) and leaves the
//!    energy field untouched so it is recomputed exactly once from the
//!    merged events (`USTC018`), never summed per shard.
//!
//! This module proves the second. [`verify_fold`] takes the fold as a
//! function and tests it over deterministic permutations of the shard
//! reports, so injected-defect tests can hand it a broken fold and assert
//! the exact code; [`verify_scaling`] does the same for the scaled merge
//! a counted stream rests on.

use simkit::driver::KernelReport;
use simkit::CounterOverflow;
use sparse::rng::Rng64;

use crate::diag::{Code, Diagnostic, Report, Span};

/// Seed for the deterministic fold permutations; fixed so the golden
/// snapshot pins the exact shuffles [`verify_fold`] exercises.
const FOLD_SHUFFLE_SEED: u64 = 0x5EED_F01D;

/// How many seeded shuffles [`verify_fold`] tries on top of the identity
/// and reversed orders.
const FOLD_SHUFFLES: usize = 3;

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
/// [`KernelReport::try_merge_scaled`], whose checked adds
/// `driver::run_stream` applies to each distinct task.
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

    /// The SpMV tasks of a 160x160 operand whose 100 blocks all hold
    /// nonzeros, cut to the first `n`.
    fn spmv_tasks(n: usize) -> Vec<simkit::T1Task> {
        let mut coo = sparse::CooMatrix::new(160, 160);
        for r in 0..160 {
            for c in (0..160).filter(|c| (r * 31 + c * 17) % 13 == 0) {
                coo.push(r, c, 1.0);
            }
        }
        let a = sparse::CsrMatrix::try_from(coo).expect("entries in range");
        let mut tasks = simkit::driver::spmv_tasks(&sparse::BbcMatrix::from_csr(&a));
        assert!(tasks.len() >= n, "{} tasks, {n} wanted", tasks.len());
        tasks.truncate(n);
        tasks
    }

    #[test]
    fn clean_contiguous_plan_verifies_clean() {
        // Every plan is contiguous, so each task lands in exactly one
        // shard: the sharded run folds to the serial report.
        let engine = uni_stc::UniStc::default();
        let em = simkit::EnergyModel::default();
        for (tasks, threads) in [(10, 2), (0, 4), (97, 8)] {
            let tasks = spmv_tasks(tasks);
            let serial = simkit::driver::run_stream(
                &engine,
                &em,
                Kernel::SpMV,
                &simkit::TaskStream::from(&tasks[..]),
            )
            .expect("no overflow");
            let plan = runtime::ShardPlan::contiguous(tasks.len(), threads);
            let cfg = runtime::RuntimeConfig::with_threads(threads);
            let run = runtime::run_tasks_planned(&cfg, &plan, &engine, &em, Kernel::SpMV, &tasks)
                .expect("a contiguous plan for this stream executes");
            assert_eq!(run.report, serial, "tasks={} threads={threads}", tasks.len());
        }
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
            acc.util.try_merge_scaled(&next.util, 1)
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
        // USTC016 is retired: a plan sized for another stream is refused
        // by the runtime itself, before any worker spawns.
        assert!(Code::ALL.iter().all(|c| c.as_str() != "USTC016"));
        let model = crate::model::StreamModel { kernel: Kernel::SpMV, t1: Vec::new() };
        let plan = runtime::ShardPlan::contiguous(3, 1);
        let cfg = runtime::RuntimeConfig::with_threads(1);
        let err = runtime::run_tasks_planned(
            &cfg,
            &plan,
            &uni_stc::UniStc::default(),
            &simkit::EnergyModel::default(),
            model.kernel,
            &spmv_tasks(model.t1.len()),
        )
        .expect_err("a 3-task plan cannot run an empty stream");
        assert_eq!(err, runtime::PlannedRunError::StalePlan { planned: 3, tasks: 0 });
    }
}
