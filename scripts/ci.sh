#!/usr/bin/env bash
# Offline CI gate: lints and the full test suite.
#
# The workspace has zero external dependencies, so this script must work
# with no network access at all (no registry, no index update).
set -euo pipefail

cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustdoc (deny warnings) =="
# A deleted or private symbol must not leave a dangling intra-doc link.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== workspace source lint =="
# Robustness rules over library code (no-unwrap/no-panic/float-eq/...),
# with stable per-rule allowlists; see crates/analysis/src/lint.rs.
cargo run -p analysis --bin lint

echo "== golden diagnostics snapshot =="
# The USTC diagnostic renderings are pinned; re-bless deliberate changes
# with ANALYSIS_BLESS=1 cargo test -p analysis.
cargo test -p analysis -q

echo "== cargo test =="
cargo test --workspace -q

echo "== engine suites in release =="
# Release builds wrap on integer overflow where debug builds panic, so the
# engines' packed byte-lane arithmetic (Trapezoid's SWAR row-cycle counts
# and byte-lane window sums, Uni-STC Stage 3's widened-nibble prefix cut),
# simkit's word-parallel tile extraction, the verifier's per-distinct-task
# pass, the runtime's checked shard fold, multi-unit replay's checked
# counted fold (uni_stc::multi), their frozen-reference differentials and
# the exhaustive helper tests (trapezoid
# row_cycles_match_the_reference_schedule_for_every_row_mask, pipeline
# prefix_cut_equals_a_per_segment_loop_at_every_budget), the Stage 1-2 /
# Stage 3 split (pipeline pack_over_expand_is_execute_t1) and the
# service's handoff of admission's expansions to the run (service
# cold_uni_stc_jobs_pack_admissions_expansions) must also pass with
# release arithmetic.
cargo test --release -p simkit -p baselines -p uni-stc -p analysis -p runtime -p service -q

echo "== figures byte-identical =="
# Fig. 16 and Fig. 17 print every engine's simulated utilisation,
# performance and energy; the Uni-STC ablation covers T3 orderings, both
# DPG fill orders, power gating and the DPG count; Fig. 14 is the 8x8x8
# case study; roofline runs all four kernels through bench::MatrixCtx and
# is the one binary that drives uni_stc::multi; validate_dataflow runs the
# numeric dataflow (uni_stc::kernels) on the corpus. A host-side rewrite
# of an engine must leave them byte for byte as pinned in tests/golden/;
# a deliberate model change re-pins them by writing the new output there.
cargo run --release -q -p bench --bin fig16_random_util | diff -u tests/golden/fig16.txt -
cargo run --release -q -p bench --bin fig17_kernels | diff -u tests/golden/fig17.txt -
cargo run --release -q -p bench --bin ablation_uni_stc | diff -u tests/golden/ablation_uni_stc.txt -
cargo run --release -q -p bench --bin fig14_case_study | diff -u tests/golden/fig14_case_study.txt -
cargo run --release -q -p bench --bin roofline | diff -u tests/golden/roofline.txt -
cargo run --release -q -p bench --bin validate_dataflow | diff -u tests/golden/validate_dataflow.txt -

echo "== conformance sweep (fixed seed) =="
# Includes the per-op kernel equivalence sweep (`backend_equivalence`):
# every bitmap and numeric op call the stack makes on each regime,
# scalar reference vs bitwise. The randomized smoke below reruns it.
cargo test -p conformance -q

echo "== conformance smoke (randomized seed) =="
# A fresh seed per run widens coverage beyond the fixed sweep. On failure
# the harness prints `replay: CONFORMANCE_SEED=<n> ...` inside the test
# output; we echo the seed again here so it survives terse CI logs.
SMOKE_SEED="${CONFORMANCE_SMOKE_SEED:-$(date +%s)}"
echo "CONFORMANCE_SEED=${SMOKE_SEED}"
if ! CONFORMANCE_SEED="${SMOKE_SEED}" cargo test -p conformance -q --test conformance; then
    echo "conformance smoke FAILED — replay with:" >&2
    echo "    CONFORMANCE_SEED=${SMOKE_SEED} cargo test -p conformance" >&2
    exit 1
fi

echo "== concurrency verify =="
# Static fold proofs plus the deterministic schedule explorer:
# >=1000 distinct pool interleavings, every one merging to the serial
# signature with no task lost or repeated, and the two injected defects
# (non-commutative fold, lost-task schedule) each rejected with their
# exact USTC code.
cargo test -p analysis -q --test concurrency

echo "== runtime chaos =="
# Fixed-seed chaos campaigns (crash/stall/flake injection), panic
# isolation, thread-count bit-identity, and quorum-loss degradation —
# plus a 2-thread conformance smoke over the golden generator regimes.
cargo test -p runtime -q
cargo test -p bench -q --test runtime_resilience

echo "== perf smoke =="
# Runs the representative corpus across the headline engines, writes
# BENCH_ci-smoke.json at the repo root, then re-runs and gates on >5 %
# simulated-cycle regressions against that fresh baseline. The baseline
# is collected serially and the comparison run sharded over 2 threads,
# so the gate doubles as a serial-vs-parallel cycle bit-identity check
# (simulated cycles are thread-count-invariant; only wall-clock may move).
cargo run --release -p bench --bin perf_regression -- \
    --label ci-smoke
cargo run --release -p bench --bin perf_regression -- \
    --label ci-check --threads 2 --compare BENCH_ci-smoke.json

echo "== service smoke =="
# Drives the batch job service over the representative corpus cold then
# warm, writes the BENCH_ci-service-{cold,warm}.json pair, and gates on
# bit-identical counter signatures, a 100 % warm-pass hit rate on both
# fingerprint caches, a live queue-depth histogram, and every job being
# answered (DESIGN.md §15).
cargo run --release -p bench --bin service_bench -- \
    --label ci-service --threads 2 --assert

echo "== stencil smoke =="
# The stencil workload family (DESIGN.md §16): block-density assertions
# for the 16-aligned tile ordering plus the 8-iteration
# service-vs-direct signature-identity suite, then the time-stepped
# stencil_bench gates — per-step bit-identity against the serial driver,
# 100 % stream-cache hits after each operator's first step, and nonzero
# eviction pressure in the multi-operator sweep.
cargo test -p workloads -q stencil
cargo test -p service -q --test stencil_determinism
cargo run --release -p bench --bin stencil_bench -- \
    --label ci-stencil --steps 8 --threads 2 --assert

echo "== perfbench self-check =="
# perfbench/ is a separate package that builds against the crates by path
# and is frozen between benchmark changes: its self-tests (mirror
# fidelity, seeded workloads) catch a library API change that would break
# the benchmark harness here rather than in the benchmark run.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "CI OK"
