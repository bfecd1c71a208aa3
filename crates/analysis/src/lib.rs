//! # ustc-verify: static analysis for Uni-STC streams and sources
//!
//! Two independent static-analysis surfaces over the workspace:
//!
//! 1. **The stream verifier** ([`Verifier`]) — proves UWMMA lifecycle
//!    legality, SDPU lane feasibility, Tile/Dot-product queue occupancy
//!    bounds, TMS write-conflict freedom, routing / power-gating soundness
//!    and BBC metadata consistency over [`uni_stc::isa::Program`]s,
//!    [`uni_stc::compiler::CompiledKernel`]s and [`StreamModel`]s —
//!    *without executing anything*. Findings carry stable `USTC001`..
//!    diagnostic codes ([`Code`]) with severities and spans, rendered
//!    human-readable or as JSON ([`Report`]). [`UstcVerifier`] reduces a
//!    report to its first error code ([`simkit::StreamVerifier`]), so
//!    illegal streams are rejected before a single cycle is simulated.
//! 2. **The concurrency verifier** ([`concurrency`], [`schedule`]) —
//!    proves the parallel runtime's determinism claims statically:
//!    the shard-report fold is a commutative monoid that never re-folds
//!    energy (`USTC017`–`USTC018`), and a loom-style schedule explorer
//!    enumerates the pool's queue/steal/retry/degrade interleavings
//!    asserting every schedule merges to the serial signature with no
//!    task lost or repeated (`USTC019`). Shard plans need no proof:
//!    `runtime::ShardPlan::contiguous` is their only constructor, so the
//!    plan codes `USTC014`–`USTC016` are retired.
//! 3. **The source lint** ([`lint`]) — a dependency-free scanner over the
//!    workspace's library code enforcing the repo's robustness rules
//!    (no panicking calls outside tests, no ad-hoc float equality, no
//!    direct event-counter mutation outside the accounting layers, and
//!    the determinism lints: no hash-order iteration, no wall-clock
//!    reads, no interior mutability, no order-sensitive float folds
//!    outside the sanctioned sites), run in CI via
//!    `cargo run -p analysis --bin lint`.
//!
//! The golden-diagnostics snapshot ([`golden`]) pins the exact rendering
//! of every code against `golden/diagnostics.txt` (bless with
//! `ANALYSIS_BLESS=1`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod concurrency;
pub mod diag;
pub mod golden;
pub mod lint;
pub mod model;
pub mod schedule;
pub mod verifier;

pub use concurrency::{verify_fold, verify_runtime_fold, verify_runtime_scaling, verify_scaling};
pub use diag::{Code, Diagnostic, Report, Severity, Span};
pub use model::{StreamModel, T1Node, T3Node, DOT_QUEUE_CAP, TILE_QUEUE_CAP};
pub use schedule::{explore, Exploration, ModelBug, ModelConfig, Violation};
pub use verifier::{UstcVerifier, Verifier};
