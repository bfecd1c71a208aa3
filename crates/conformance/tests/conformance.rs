//! The conformance suite's integration surface.
//!
//! `cargo test -p conformance` runs the full fixed-seed sweep; export
//! `CONFORMANCE_SEED=<n>` to replay a randomized run, and
//! `CONFORMANCE_BLESS=1` to re-bless the counter snapshot after an
//! intentional perf-model change.

use conformance::compare::Tolerance;
use conformance::generators::Regime;
use conformance::oracle::{self, NumericEngine, ScalarOps};
use conformance::runner::{run_sweep, sweep_numeric_engine, SweepConfig};
use sparse::{CsrMatrix, DenseMatrix, FormatError, SparseVector};

/// The headline check: every regime, every law, every engine, under the
/// session seed (fixed by default, overridable for smoke runs). A failure
/// panics with a shrunk, replayable counterexample.
#[test]
fn full_sweep_under_session_seed() {
    let seed = conformance::conformance_seed();
    let summary = run_sweep(seed, &SweepConfig::default())
        .unwrap_or_else(|ce| panic!("seed {seed}:\n{ce}"));
    assert_eq!(summary.cases, Regime::ALL.len() * 3);
    assert!(summary.laws >= 4, "issue requires at least 4 metamorphic laws");
    assert_eq!(summary.counter_engines, 7, "six baselines plus Uni-STC");
}

/// The backend-equivalence sweep from the issue: all regimes x 4 kernels
/// through scalar vs bitwise, demanding
/// bit-identical counter signatures and EXACT numerics. Failures shrink
/// and replay exactly like the main sweep.
#[test]
fn backend_equivalence_sweep_under_session_seed() {
    let seed = conformance::conformance_seed();
    let cfg = SweepConfig::default();
    let cases = conformance::backend_equivalence::run_backend_sweep(seed, &cfg)
        .unwrap_or_else(|ce| panic!("seed {seed}:\n{ce}"));
    let pairs = conformance::backend_equivalence::backend_pairs().len();
    assert_eq!(cases, Regime::ALL.len() * cfg.seeds_per_regime as usize * pairs);
}

/// Counter snapshots against the blessed golden file (see
/// `golden/counters.txt`; re-bless with `CONFORMANCE_BLESS=1`).
#[test]
fn golden_counters_match_blessed_snapshot() {
    conformance::golden::check_or_bless().unwrap_or_else(|e| panic!("{e}"));
}

/// The sweep result is a pure function of the seed.
#[test]
fn sweep_is_deterministic() {
    let cfg = SweepConfig { seeds_per_regime: 1, ..SweepConfig::default() };
    assert_eq!(run_sweep(1234, &cfg).unwrap(), run_sweep(1234, &cfg).unwrap());
}

/// An engine that drops the last partial product of every SpMV row —
/// the classic "forgot the tail of the reduction" kernel bug the issue
/// requires the suite to catch and shrink.
struct DropsLastPartial;

impl NumericEngine for DropsLastPartial {
    fn name(&self) -> &str {
        "drops-last-partial"
    }

    fn spmv(&self, a: &CsrMatrix, x: &[f64]) -> Result<Vec<f64>, FormatError> {
        let entries: Vec<(usize, usize, f64)> = a.iter().collect();
        let mut y = vec![0.0; a.nrows()];
        for (i, &(r, c, v)) in entries.iter().enumerate() {
            let last_of_row = entries.get(i + 1).is_none_or(|&(r2, _, _)| r2 != r);
            if !last_of_row {
                y[r] += v * x[c];
            }
        }
        Ok(y)
    }

    fn spmspv(&self, a: &CsrMatrix, x: &SparseVector) -> Result<Vec<f64>, FormatError> {
        ScalarOps.spmspv(a, x)
    }

    fn spmm(&self, a: &CsrMatrix, b: &DenseMatrix) -> Result<DenseMatrix, FormatError> {
        ScalarOps.spmm(a, b)
    }

    fn spgemm(&self, a: &CsrMatrix, b: &CsrMatrix) -> Result<DenseMatrix, FormatError> {
        ScalarOps.spgemm(a, b)
    }
}

/// Acceptance check from the issue: a deliberately injected dropped-partial
/// bug is caught by the sweep and the counterexample shrinks to a near
/// minimal matrix, re-emitted with its replay seed.
#[test]
fn injected_dropped_partial_is_caught_and_shrunk() {
    let seed = conformance::DEFAULT_SEED;
    let ce = sweep_numeric_engine(&DropsLastPartial, seed, &SweepConfig::default())
        .expect_err("a dropped partial product must not survive the sweep");
    assert_eq!(ce.law, "dense-oracle");
    assert!(ce.detail.contains("spmv"), "{}", ce.detail);
    assert!(ce.detail.contains("drops-last-partial"), "{}", ce.detail);
    // The raw counterexamples have up to ~2300 entries; the shrinker must
    // get this bug down to a handful.
    assert!(
        ce.shrunk.nnz() <= 4,
        "expected a near-minimal counterexample, got {} nnz",
        ce.shrunk.nnz()
    );
    // The re-emitted snippet is standalone: seed plus COO pushes.
    let text = ce.to_string();
    assert!(text.contains(&format!("CONFORMANCE_SEED={seed}")), "{text}");
    assert!(text.contains("CooMatrix::new"), "{text}");
    // And the shrunk matrix still witnesses the bug.
    let still = oracle::check_dense_oracle(
        &DropsLastPartial,
        &ce.shrunk,
        seed,
        Tolerance::FP64_KERNEL,
    );
    assert!(still.is_err(), "shrunk counterexample no longer fails");
}

/// A broken *counter* (an engine lying about useful work) is caught by the
/// differential layer even when the numbers it computes are right.
#[test]
fn differential_layer_rejects_inflated_counters() {
    use simkit::{EnergyModel, T1Task, TileEngine};

    struct Inflated(uni_stc::UniStc);
    impl TileEngine for Inflated {
        fn name(&self) -> &str {
            "inflated"
        }
        fn lanes(&self) -> usize {
            self.0.lanes()
        }
        fn execute(&self, task: &T1Task) -> simkit::T1Result {
            let mut r = self.0.execute(task);
            r.useful += 1;
            r
        }
        fn network_costs(&self) -> simkit::NetworkCosts {
            self.0.network_costs()
        }
    }

    let a = Regime::Banded.generate(3);
    let bbc = sparse::BbcMatrix::from_csr(&a);
    let rep = simkit::driver::run_spmv(&Inflated(uni_stc::UniStc::default()), &EnergyModel::default(), &bbc);
    let want = conformance::differential::expected_spmv_products(&a);
    assert_ne!(rep.useful, want, "inflation must be visible in the counter");
}
