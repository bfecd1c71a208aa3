//! Differential conformance testing for the Uni-STC stack.
//!
//! This crate is the repo's answer to "how do we know the simulator is
//! computing the right thing?" — a self-contained, offline property-testing
//! engine (no external fuzzing dependencies) that checks every kernel three
//! independent ways:
//!
//! 1. **Dense-oracle equivalence** ([`oracle`]): each kernel against a
//!    maximally boring densified loop, compared ULP-aware ([`compare`]).
//! 2. **Metamorphic laws** ([`metamorphic`]): linearity, column slicing,
//!    SpGEMM-vs-iterated-SpMV, transpose duality, identity and permutation
//!    invariants — relations any correct implementation satisfies.
//! 3. **Cross-engine differentials** ([`differential`]): the six baseline
//!    cycle models, the Uni-STC engine and the numeric dataflow must all
//!    count exactly the same useful work.
//! 4. **Backend equivalence** ([`backend_equivalence`]): the scalar and
//!    bit-parallel `sparse::kernels` backends must be observationally
//!    identical — bit-identical counter signatures and EXACT-tolerance
//!    numerics on every regime.
//!
//! Inputs come from structured sparsity [`generators`] (block-aligned,
//! banded, pruning-mask, adversarial dense-row/column regimes), failures
//! are minimized by the [`shrink`] delta-debugger into standalone
//! counterexamples, and simulator counters are pinned by [`golden`]
//! snapshots with an explicit `CONFORMANCE_BLESS=1` update flow.
//!
//! Entry point: [`runner::run_sweep`], driven from `tests/conformance.rs`.
//! Override the sweep seed with `CONFORMANCE_SEED=<n>` to replay a failure
//! printed by a randomized smoke run.

#![forbid(unsafe_code)]

// The matrix types the whole public API traffics in, re-exported so
// downstream tests can name them without a direct `sparse` dependency.
pub use sparse::{CsrMatrix, DenseMatrix, SparseVector};

pub mod backend_equivalence;
pub mod compare;
pub mod differential;
pub mod generators;
pub mod golden;
pub mod metamorphic;
pub mod oracle;
pub mod runner;
pub mod shrink;

/// Default seed of the fixed conformance sweep.
pub const DEFAULT_SEED: u64 = 0xC0FFEE;

/// The sweep seed: `CONFORMANCE_SEED` from the environment when set (any
/// `u64`, decimal), otherwise [`DEFAULT_SEED`]. A failing randomized run
/// prints its seed so `CONFORMANCE_SEED=<n>` reproduces it exactly.
pub fn conformance_seed() -> u64 {
    match std::env::var("CONFORMANCE_SEED") {
        Ok(v) => v
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("CONFORMANCE_SEED must be a u64, got `{v}`")),
        Err(_) => DEFAULT_SEED,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn default_seed_when_env_unset() {
        // The test harness does not set CONFORMANCE_SEED by default; if the
        // caller exported one, honour it (both paths are valid).
        let seed = super::conformance_seed();
        if std::env::var("CONFORMANCE_SEED").is_err() {
            assert_eq!(seed, super::DEFAULT_SEED);
        }
    }
}
