//! Differential backend-equivalence suite.
//!
//! `sparse::kernels` ships interchangeable bit-manipulation backends
//! (`scalar` and `bitwise`). They are *supposed* to be
//! observationally identical: same BBC encodings, same simulator counters,
//! same numeric results to the last ULP — the bitwise tricks only change
//! how index math is computed, never what is computed. This module turns
//! that contract into a sweep: for every generator regime and seed it runs
//! the whole stack (BBC encode, all seven counter engines x four kernels,
//! the scalar `sparse::ops` reference and the `uni_stc::kernels` dataflow)
//! under each backend pair and demands bit-identical
//! [`counter_signature`](simkit::driver::KernelReport::counter_signature) strings,
//! structurally equal sparse outputs and [`Tolerance::EXACT`] numerics.
//!
//! Failures shrink through the same ddmin delta-debugger as the rest of
//! the conformance suite and replay with `CONFORMANCE_SEED=<n>`.

use simkit::{driver, EnergyModel};
use sparse::kernels::{with_backend, BackendKind};
use sparse::{BbcMatrix, CsrMatrix};
use uni_stc::UniStcConfig;

use crate::compare::{compare_slices, Tolerance};
use crate::differential::all_engines;
use crate::generators::{dense_operand, dense_vector, sparse_vector, Regime};
use crate::oracle::spgemm_rhs;
use crate::runner::SweepConfig;
use crate::shrink::{shrink_matrix, Counterexample};

/// Everything the stack computes for one `(matrix, seed)` case under one
/// backend, flattened into comparable channels.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// The BBC encoding of the input (compared structurally via
    /// `PartialEq`, which covers bitmaps, pointers and value order).
    pub bbc: BbcMatrix,
    /// Labelled `KernelReport::counter_signature()` strings, one per
    /// `(engine, kernel)` — the bit-identity oracle for the cycle models.
    pub signatures: Vec<(String, String)>,
    /// Labelled exact-integer channels (output structure, product counts).
    pub ints: Vec<(String, Vec<u64>)>,
    /// Labelled floating-point channels, compared at [`Tolerance::EXACT`].
    pub floats: Vec<(String, Vec<f64>)>,
}

/// Collects the full stack snapshot for `a` under the *currently active*
/// backend, deriving operands from `seed` exactly as
/// [`check_counters`](crate::differential::check_counters) does.
///
/// # Errors
///
/// Propagates operand-validation errors from the kernels as strings.
pub fn snapshot(a: &CsrMatrix, seed: u64) -> Result<Snapshot, String> {
    let bbc = BbcMatrix::from_csr(a);
    let sx = sparse_vector(a.ncols(), seed);
    let n_cols = 1 + (seed as usize % 21);
    let bt = spgemm_rhs(a);
    let bbc_b = BbcMatrix::from_csr(&bt);
    let energy = EnergyModel::default();

    let mut signatures = Vec::new();
    for engine in all_engines() {
        let e = engine.as_ref();
        let runs = [
            ("spmv", driver::run_spmv(e, &energy, &bbc)),
            ("spmspv", driver::run_spmspv(e, &energy, &bbc, &sx)),
            ("spmm", driver::run_spmm(e, &energy, &bbc, n_cols)),
            ("spgemm", driver::run_spgemm(e, &energy, &bbc, &bbc_b)),
        ];
        for (kernel, report) in runs {
            signatures.push((format!("{}/{kernel}", e.name()), report.counter_signature()));
        }
    }

    let mut ints = Vec::new();
    let mut floats = Vec::new();

    // The scalar reference path (`sparse::ops`).
    let x = dense_vector(a.ncols(), seed);
    let y = sparse::ops::spmv(a, &x).map_err(|e| e.to_string())?;
    floats.push(("ops/spmv".to_owned(), y));
    let sy = sparse::ops::spmspv(a, &sx).map_err(|e| e.to_string())?;
    ints.push(("ops/spmspv indices".to_owned(), widen(sy.indices())));
    floats.push(("ops/spmspv values".to_owned(), sy.values().to_vec()));
    let b = dense_operand(a.ncols(), n_cols, seed);
    let c = sparse::ops::spmm(a, &b).map_err(|e| e.to_string())?;
    floats.push(("ops/spmm".to_owned(), c.as_slice().to_vec()));
    let g = sparse::ops::spgemm(a, &bt).map_err(|e| e.to_string())?;
    ints.push((
        "ops/spgemm row_ptr".to_owned(),
        g.row_ptr().iter().map(|&p| p as u64).collect(),
    ));
    ints.push(("ops/spgemm col_idx".to_owned(), widen(g.col_idx())));
    floats.push(("ops/spgemm values".to_owned(), g.values().to_vec()));

    // The Uni-STC numeric dataflow.
    let cfg = UniStcConfig::default();
    let (y, s) = uni_stc::kernels::spmv(&cfg, &bbc, &x).map_err(|e| e.to_string())?;
    ints.push(("dataflow/spmv products".to_owned(), vec![s.products]));
    floats.push(("dataflow/spmv".to_owned(), y));
    let (sy, s) = uni_stc::kernels::spmspv(&cfg, &bbc, &sx).map_err(|e| e.to_string())?;
    ints.push(("dataflow/spmspv products".to_owned(), vec![s.products]));
    ints.push(("dataflow/spmspv indices".to_owned(), widen(sy.indices())));
    floats.push(("dataflow/spmspv values".to_owned(), sy.values().to_vec()));
    let (c, s) = uni_stc::kernels::spmm(&cfg, &bbc, &b).map_err(|e| e.to_string())?;
    ints.push(("dataflow/spmm products".to_owned(), vec![s.products]));
    floats.push(("dataflow/spmm".to_owned(), c.as_slice().to_vec()));
    let (g, s) = uni_stc::kernels::spgemm(&cfg, &bbc, &bbc_b).map_err(|e| e.to_string())?;
    ints.push(("dataflow/spgemm products".to_owned(), vec![s.products]));
    floats.push(("dataflow/spgemm".to_owned(), g.to_dense().as_slice().to_vec()));

    Ok(Snapshot { bbc, signatures, ints, floats })
}

/// Widens a `u32` index slice into the snapshot's `u64` channel type.
fn widen(idx: &[u32]) -> Vec<u64> {
    idx.iter().map(|&i| u64::from(i)).collect()
}

/// Compares two snapshots channel by channel, naming the first divergence.
///
/// # Errors
///
/// Returns a message naming the channel, both backends and the mismatch.
pub fn diff_snapshots(
    reference: &str,
    want: &Snapshot,
    candidate: &str,
    got: &Snapshot,
) -> Result<(), String> {
    if got.bbc != want.bbc {
        return Err(format!(
            "backend-equivalence: BBC encoding differs between `{reference}` and `{candidate}`"
        ));
    }
    for ((label, want_sig), (_, got_sig)) in want.signatures.iter().zip(&got.signatures) {
        if got_sig != want_sig {
            return Err(format!(
                "backend-equivalence/{label}: counter signature differs\n  {reference}: \
                 {want_sig}\n  {candidate}: {got_sig}"
            ));
        }
    }
    for ((label, want_ints), (_, got_ints)) in want.ints.iter().zip(&got.ints) {
        if got_ints != want_ints {
            return Err(format!(
                "backend-equivalence/{label}: integer channel differs between `{reference}` \
                 and `{candidate}` ({} vs {} entries)",
                want_ints.len(),
                got_ints.len()
            ));
        }
    }
    for ((label, want_vals), (_, got_vals)) in want.floats.iter().zip(&got.floats) {
        if let Err(m) = compare_slices(got_vals, want_vals, Tolerance::EXACT) {
            return Err(format!(
                "backend-equivalence/{label}: `{candidate}` diverges from `{reference}`: {m}"
            ));
        }
    }
    Ok(())
}

/// Runs the full stack under `reference` and `candidate` and demands
/// observational equality (see [`diff_snapshots`]).
///
/// # Errors
///
/// Returns a message naming the diverging channel and both backends.
pub fn check_backend_pair(
    a: &CsrMatrix,
    seed: u64,
    reference: BackendKind,
    candidate: BackendKind,
) -> Result<(), String> {
    let want = with_backend(reference, || snapshot(a, seed))?;
    let got = with_backend(candidate, || snapshot(a, seed))?;
    diff_snapshots(reference.name(), &want, candidate.name(), &got)
}

/// The backend pairs under test: `scalar` is the reference; every other
/// backend (`bitwise`) is a candidate.
pub fn backend_pairs() -> Vec<(BackendKind, BackendKind)> {
    BackendKind::ALL
        .iter()
        .filter(|&&k| k != BackendKind::Scalar)
        .map(|&k| (BackendKind::Scalar, k))
        .collect()
}

fn shrunk_failure(
    regime: Regime,
    law: String,
    seed: u64,
    detail: String,
    a: &CsrMatrix,
    still_fails: &dyn Fn(&CsrMatrix) -> bool,
) -> Box<Counterexample> {
    Box::new(Counterexample {
        regime: regime.name(),
        law,
        seed,
        detail,
        shrunk: shrink_matrix(a, still_fails),
    })
}

/// Sweeps every generator regime x seed through every backend pair.
///
/// Returns the number of `(regime, seed, pair)` cases checked.
///
/// # Errors
///
/// The first divergence is ddmin-shrunk and returned as a
/// [`Counterexample`] carrying its `CONFORMANCE_SEED` replay line.
pub fn run_backend_sweep(
    base_seed: u64,
    cfg: &SweepConfig,
) -> Result<usize, Box<Counterexample>> {
    let pairs = backend_pairs();
    let mut cases = 0usize;
    for regime in Regime::ALL {
        for s in 0..cfg.seeds_per_regime {
            let seed = base_seed.wrapping_add(s);
            let a = regime.generate(seed);
            for &(reference, candidate) in &pairs {
                cases += 1;
                if let Err(detail) = check_backend_pair(&a, seed, reference, candidate) {
                    let law = format!(
                        "backend-equivalence {} vs {}",
                        reference.name(),
                        candidate.name()
                    );
                    return Err(shrunk_failure(regime, law, seed, detail, &a, &|m| {
                        check_backend_pair(m, seed, reference, candidate).is_err()
                    }));
                }
            }
        }
    }
    Ok(cases)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DEFAULT_SEED;

    #[test]
    fn scalar_vs_bitwise_single_seed_sweep_is_clean() {
        let cfg = SweepConfig { seeds_per_regime: 1, ..SweepConfig::default() };
        let cases = run_backend_sweep(DEFAULT_SEED, &cfg)
            .unwrap_or_else(|ce| panic!("seed {DEFAULT_SEED}:\n{ce}"));
        assert_eq!(cases, Regime::ALL.len() * backend_pairs().len());
    }

    #[test]
    fn snapshot_is_deterministic_per_backend() {
        let a = Regime::Banded.generate(7);
        for &kind in sparse::kernels::BackendKind::ALL {
            let s1 = with_backend(kind, || snapshot(&a, 7)).expect("snapshot");
            let s2 = with_backend(kind, || snapshot(&a, 7)).expect("snapshot");
            assert_eq!(s1, s2, "snapshot under {kind} must be pure");
        }
    }

    #[test]
    fn diff_catches_a_corrupted_signature() {
        let a = Regime::BlockAligned16.generate(3);
        let want = with_backend(BackendKind::Scalar, || snapshot(&a, 3)).expect("snapshot");
        let mut got = want.clone();
        got.signatures[0].1.push('!');
        let err = diff_snapshots("scalar", &want, "sabotaged", &got)
            .expect_err("a corrupted counter signature must be flagged");
        assert!(err.contains("counter signature differs"), "{err}");
        assert!(err.contains("sabotaged"), "{err}");
    }

    #[test]
    fn diff_catches_a_one_ulp_numeric_nudge() {
        let a = Regime::BlockAligned16.generate(3);
        let want = with_backend(BackendKind::Scalar, || snapshot(&a, 3)).expect("snapshot");
        let mut got = want.clone();
        let nudged: Option<&mut f64> = got
            .floats
            .iter_mut()
            .flat_map(|(_, vs)| vs.iter_mut())
            .find(|v| **v != 0.0);
        let v = nudged.expect("snapshot has nonzero numerics");
        *v = f64::from_bits(v.to_bits() ^ 1);
        let err = diff_snapshots("scalar", &want, "nudged", &got)
            .expect_err("EXACT tolerance must flag a single-ULP change");
        assert!(err.contains("ulps"), "{err}");
    }

    #[test]
    fn failing_pair_shrinks_and_carries_the_replay_seed() {
        // An always-failing predicate exercises the shrink + replay
        // plumbing without needing a genuinely broken backend.
        let regime = Regime::Banded;
        let seed = 11u64;
        let a = regime.generate(seed);
        let ce = shrunk_failure(
            regime,
            "backend-equivalence scalar vs bitwise".to_owned(),
            seed,
            "synthetic divergence".to_owned(),
            &a,
            &|m| m.nnz() > 0,
        );
        let text = ce.to_string();
        assert!(text.contains(&format!("CONFORMANCE_SEED={seed}")), "{text}");
        assert!(ce.shrunk.nnz() <= a.nnz(), "shrinking must not grow the witness");
    }
}
