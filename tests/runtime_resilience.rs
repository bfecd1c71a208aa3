//! Resilience of the parallel runtime: fixed-seed chaos sweeps, panic
//! isolation, thread-count bit-identity across all four kernels, and
//! quorum-loss degradation to serial.
//!
//! Every test here is deterministic: chaos draws are pure functions of
//! `(seed, task, attempt)`, task functions are pure, and the merged
//! `KernelReport` counters are schedule-independent sums — so a failure is
//! a real scheduler bug, never flakiness.

use std::time::Duration;

use bench::{headline_engines, MatrixCtx, KERNELS};
use runtime::{Backoff, ChaosPlan, RuntimeConfig, ShardedRunError, TaskOutcome};
use simkit::driver::{self, Invocation};
use simkit::{EnergyModel, Precision};
use uni_stc::{UniStc, UniStcConfig};
use workloads::representative::representative_matrices;

/// A fast retry schedule for tests.
fn fast(cfg: RuntimeConfig) -> RuntimeConfig {
    RuntimeConfig { backoff: Backoff::none(), ..cfg }
}

fn rep_contexts() -> Vec<MatrixCtx> {
    representative_matrices()
        .into_iter()
        .map(|r| MatrixCtx::new(r.name, r.matrix, 5))
        .collect()
}

// ---------------------------------------------------------------------
// Fixed-seed chaos sweeps: crash / stall / flake at {0, 1e-2, 1e-1}.
// ---------------------------------------------------------------------

/// Runs a 300-task workload under `chaos` and asserts every outcome is
/// the correct value regardless of what was injected.
fn sweep_under(chaos: ChaosPlan) -> runtime::RunStats {
    let items: Vec<u64> = (0..300).collect();
    let cfg = fast(RuntimeConfig::with_threads(2).with_chaos(chaos));
    let report = runtime::run(&cfg, &items, |_, &x| Ok(x.wrapping_mul(31).wrapping_add(7)));
    for (i, o) in report.outcomes.iter().enumerate() {
        let want = (i as u64).wrapping_mul(31).wrapping_add(7);
        assert_eq!(*o, TaskOutcome::Done(want), "task {i} under {chaos:?}");
    }
    report.stats
}

#[test]
fn chaos_sweep_crash_rates() {
    for (seed, rate) in [(41, 0.0), (42, 1e-2), (43, 1e-1)] {
        let stats = sweep_under(ChaosPlan::new(seed, rate, 0.0, 0.0, 0).expect("valid"));
        if rate == 0.0 {
            assert_eq!(stats.crashes, 0);
        }
    }
}

#[test]
fn chaos_sweep_stall_rates() {
    for (seed, rate) in [(51, 0.0), (52, 1e-2), (53, 1e-1)] {
        // 1 ms injected stalls; generous deadline so stalls complete
        // normally here (the watchdog path has its own test below).
        let chaos = ChaosPlan::new(seed, 0.0, rate, 0.0, 1_000).expect("valid");
        let stats = sweep_under(chaos);
        if rate == 0.0 {
            assert_eq!(stats.stalls_detected, 0);
        }
    }
}

#[test]
fn chaos_sweep_flake_rates() {
    for (seed, rate) in [(61, 0.0), (62, 1e-2), (63, 1e-1)] {
        let stats = sweep_under(ChaosPlan::new(seed, 0.0, 0.0, rate, 0).expect("valid"));
        if rate == 0.0 {
            assert_eq!(stats.flakes, 0);
        } else if rate >= 1e-1 {
            assert!(stats.flakes > 0, "10 % flake rate over 300 tasks must fire");
        }
    }
}

#[test]
fn chaos_campaigns_are_reproducible() {
    // Flake draws are pure functions of (seed, task, attempt), so a
    // crash-free campaign replays its injection count exactly. (Crash
    // campaigns keep deterministic *outcomes* but not deterministic
    // stats: once the pool dies, the chaos-free serial drain skips the
    // remaining tasks' draws, and which tasks those are depends on
    // scheduling.)
    let chaos = ChaosPlan::new(99, 0.0, 0.0, 0.05, 0).expect("valid");
    let a = sweep_under(chaos);
    let b = sweep_under(chaos);
    assert!(a.flakes > 0, "5 % flake rate over 300 tasks must fire");
    assert_eq!(a.flakes, b.flakes);
}

// ---------------------------------------------------------------------
// Panic isolation.
// ---------------------------------------------------------------------

#[test]
fn panic_isolation_is_deterministic() {
    let items: Vec<u32> = (0..60).collect();
    let run_once = || {
        let cfg = fast(RuntimeConfig::with_threads(4));
        runtime::run(&cfg, &items, |_, &x| {
            if x % 13 == 5 {
                panic!("injected panic on {x}");
            }
            Ok(x * 2)
        })
    };
    let a = run_once();
    let b = run_once();
    assert_eq!(a.outcomes, b.outcomes, "outcomes are schedule-independent");
    for (i, o) in a.outcomes.iter().enumerate() {
        if (i as u32) % 13 == 5 {
            assert!(!o.is_done(), "task {i} must fail by panic");
        } else {
            assert_eq!(*o, TaskOutcome::Done(i as u32 * 2));
        }
    }
    // Panics cost attempts, never workers: no degradation, no crashes.
    assert!(a.degraded.is_none());
    assert_eq!(a.stats.crashes, 0);
}

#[test]
fn panicking_engine_fails_the_kernel_not_the_process() {
    struct Grenade;
    impl simkit::TileEngine for Grenade {
        fn name(&self) -> &str {
            "grenade"
        }
        fn lanes(&self) -> usize {
            64
        }
        fn execute(&self, _t: &simkit::T1Task) -> simkit::T1Result {
            panic!("engine exploded")
        }
        fn network_costs(&self) -> simkit::NetworkCosts {
            simkit::NetworkCosts::flat()
        }
    }
    let ctx = &rep_contexts()[0];
    let cfg = fast(RuntimeConfig { max_retries: 1, ..RuntimeConfig::with_threads(2) });
    let em = EnergyModel::default();
    match ctx.run_sharded(&cfg, &Grenade, &em, driver::Kernel::SpMV) {
        Err(ShardedRunError::RetriesExhausted { attempts, .. }) => {
            assert_eq!(attempts, 2, "first try + one retry");
        }
        other => panic!("expected RetriesExhausted, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Thread-count matrix: {1, 2, 8} bit-identical across all four kernels.
// ---------------------------------------------------------------------

#[test]
fn thread_matrix_is_bit_identical_across_kernels() {
    let ctx = &rep_contexts()[0];
    let em = EnergyModel::default();
    for engine in headline_engines(Precision::Fp64) {
        for kernel in KERNELS {
            let serial = ctx.run(engine.as_ref(), &em, kernel);
            for threads in [1, 2, 8] {
                let threaded = ctx.run_threaded(engine.as_ref(), &em, kernel, threads);
                assert_eq!(
                    threaded.counter_signature(),
                    serial.counter_signature(),
                    "{} {kernel} threads={threads}",
                    engine.name()
                );
                assert_eq!(threaded, serial, "full report equality");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Quorum loss → graceful degradation to serial.
// ---------------------------------------------------------------------

#[test]
fn quorum_loss_degrades_to_serial_and_still_completes() {
    let items: Vec<u64> = (0..500).collect();
    // 25 % crash rate with a full-pool quorum: losing any worker degrades.
    let chaos = ChaosPlan::new(13, 0.25, 0.0, 0.0, 0).expect("valid");
    let cfg = fast(RuntimeConfig { quorum: 4, ..RuntimeConfig::with_threads(4).with_chaos(chaos) });
    let report = runtime::run(&cfg, &items, |_, &x| Ok(x + 1));
    let deg = report.degraded.expect("quorum 4 of 4 under 25 % crashes must degrade");
    assert!(deg.live_workers < 4);
    assert_eq!(deg.quorum, 4);
    assert!(deg.tasks_drained > 0);
    for (i, o) in report.outcomes.iter().enumerate() {
        assert_eq!(*o, TaskOutcome::Done(i as u64 + 1), "degraded run completes task {i}");
    }
    let degrade_events = report
        .trace
        .iter()
        .filter(|e| matches!(e, obs::TraceEvent::RuntimeDegrade { .. }))
        .count();
    assert_eq!(degrade_events, 1, "exactly one degrade event in the trace");
}

#[test]
fn degraded_kernel_report_stays_bit_identical() {
    let ctx = &rep_contexts()[1];
    let em = EnergyModel::default();
    let engine = UniStc::new(UniStcConfig::with_precision(Precision::Fp64));
    let serial = ctx.run(&engine, &em, driver::Kernel::SpMV);
    // Aggressive crashes with full-pool quorum: the run will degrade, and
    // the merged counters must not move.
    let chaos = ChaosPlan::new(29, 0.3, 0.0, 0.0, 0).expect("valid");
    let cfg = fast(RuntimeConfig { quorum: 2, ..RuntimeConfig::with_threads(2).with_chaos(chaos) });
    let sharded = ctx.run_sharded(&cfg, &engine, &em, driver::Kernel::SpMV).expect("completes");
    assert!(sharded.degraded.is_some(), "30 % crash rate must cost the pool its quorum");
    assert_eq!(sharded.report, serial);
}

// ---------------------------------------------------------------------
// Watchdog under injected stalls.
// ---------------------------------------------------------------------

#[test]
fn watchdog_survives_stall_storms() {
    let items: Vec<u64> = (0..80).collect();
    // Stalls 25x the deadline at a 10 % rate.
    let chaos = ChaosPlan::new(17, 0.0, 0.1, 0.0, 250_000).expect("valid");
    let cfg = fast(RuntimeConfig {
        task_deadline: Duration::from_millis(10),
        ..RuntimeConfig::with_threads(2).with_chaos(chaos)
    });
    let report = runtime::run(&cfg, &items, |_, &x| Ok(x * 5));
    assert!(report.stats.stalls_detected > 0, "stall storm must trip the watchdog");
    for (i, o) in report.outcomes.iter().enumerate() {
        assert_eq!(*o, TaskOutcome::Done(i as u64 * 5));
    }
}

// ---------------------------------------------------------------------
// Acceptance: chaos campaign over the representative corpus.
// ---------------------------------------------------------------------

#[test]
fn acceptance_chaos_corpus_matches_serial_on_all_kernels() {
    // The ISSUE's acceptance campaign: crash 1e-1, stall 1e-2, fixed
    // seed, representative matrix, all four kernels, Uni-STC — every
    // merged report bit-identical to the serial driver.
    let ctx = &rep_contexts()[0];
    let em = EnergyModel::default();
    let engine = UniStc::new(UniStcConfig::with_precision(Precision::Fp64));
    let chaos = ChaosPlan::new(7, 1e-1, 1e-2, 0.0, 1_000).expect("valid");
    for kernel in KERNELS {
        let serial = ctx.run(&engine, &em, kernel);
        let cfg = fast(RuntimeConfig::with_threads(2).with_chaos(chaos));
        let sharded = ctx.run_sharded(&cfg, &engine, &em, kernel).expect("chaos is survivable");
        assert_eq!(
            sharded.report.counter_signature(),
            serial.counter_signature(),
            "{kernel} under chaos"
        );
        assert_eq!(sharded.report, serial);
    }
}

// ---------------------------------------------------------------------
// Two-thread conformance smoke: the golden-counter regimes.
// ---------------------------------------------------------------------

#[test]
fn two_thread_conformance_smoke() {
    // The conformance golden snapshot pins serial counter signatures at
    // GOLDEN_SEED over the generator regimes; the sharded runtime must
    // reproduce them exactly.
    use conformance::generators::{sparse_vector, Regime};
    use sparse::BbcMatrix;
    let em = EnergyModel::default();
    let cfg = RuntimeConfig::with_threads(2);
    for regime in [Regime::ALL[0], Regime::ALL[3], Regime::ALL[7]] {
        let a = regime.generate(conformance::golden::GOLDEN_SEED);
        let bbc = BbcMatrix::from_csr(&a);
        let sx = sparse_vector(a.ncols(), conformance::golden::GOLDEN_SEED);
        let bt = a.transpose();
        let bbc_b = BbcMatrix::from_csr(&bt);
        let engine = UniStc::new(UniStcConfig::with_precision(Precision::Fp64));
        let cases = [
            (driver::run_spmv(&engine, &em, &bbc), Invocation::SpMV(&bbc)),
            (driver::run_spmspv(&engine, &em, &bbc, &sx), Invocation::SpMSpV(&bbc, &sx)),
            (driver::run_spmm(&engine, &em, &bbc, 20), Invocation::SpMM(&bbc, 20)),
            (driver::run_spgemm(&engine, &em, &bbc, &bbc_b), Invocation::SpGEMM(&bbc, &bbc_b)),
        ];
        for (s, inv) in cases {
            let stream = inv.stream().expect("fits");
            // The service's parallel path: the runtime shards the counted
            // stream's distinct entries.
            let p = runtime::run_stream_planned(&cfg, &engine, &em, s.kernel, &stream)
                .unwrap_or_else(|e| panic!("{}: {e}", s.kernel));
            assert_eq!(
                s.counter_signature(),
                p.report.counter_signature(),
                "{} under regime {}",
                s.kernel,
                regime.name()
            );
        }
    }
}

// ---------------------------------------------------------------------
// Scheduler trace lands on the Chrome exporter's runtime track.
// ---------------------------------------------------------------------

#[test]
fn scheduler_trace_exports_to_chrome() {
    let items: Vec<u64> = (0..40).collect();
    let chaos = ChaosPlan::new(3, 0.0, 0.0, 0.3, 0).expect("valid");
    let cfg = fast(RuntimeConfig::with_threads(2).with_chaos(chaos));
    let report = runtime::run(&cfg, &items, |_, &x| Ok(x));
    assert!(report.stats.flakes > 0);
    let mut sink: Vec<obs::TraceEvent> = Vec::new();
    report.replay_trace(&mut sink);
    let json = obs::chrome::export(&sink);
    assert!(json.contains("runtime scheduler"), "runtime track must be present");
    assert!(json.contains("retry #"), "retry instants must be exported");
}
