//! Cycle-approximate simulator framework for sparse tensor cores (STCs).
//!
//! The paper evaluates Uni-STC and six baselines inside a GPU simulator.
//! This crate is the reproduction's equivalent substrate: it defines
//!
//! * [`Block16`] — the 16x16 structural bitmap an STC sees for one operand
//!   block, with tile- and vector-level queries;
//! * the **T1–T4 task hierarchy** of the paper's Table III
//!   ([`T1Task`], [`TaskLevel`], [`TaskSize`]);
//! * [`TileEngine`] — the trait every simulated STC implements: it
//!   schedules one T1 task (a 16x16x16 block matmul) and reports cycles,
//!   per-cycle MAC-lane occupancy and hardware events;
//! * the **energy model** ([`EnergyModel`], [`EnergyBreakdown`]) following
//!   the Sparseloop counted-events methodology the paper uses, with
//!   crossbar network costs from [`network`];
//! * the **area model** ([`area`]) reproducing Table IX and the EED metric
//!   of Section VI-E;
//! * **kernel drivers** ([`driver`]) that walk a BBC matrix and feed every
//!   engine the same stream of T1 tasks for SpMV, SpMSpV, SpMM and SpGEMM,
//!   executed in counted form ([`TaskStream`]: each distinct task once,
//!   scaled by its multiplicity);
//! * summary [`metrics`] (geometric means, utilisation bands, density
//!   binning) used by the experiment harness.
//!
//! # Example
//!
//! A trivial engine that claims one cycle per T1 task:
//!
//! ```
//! use simkit::{Block16, T1Task, T1Result, TileEngine, NetworkCosts};
//!
//! struct OneShot;
//! impl TileEngine for OneShot {
//!     fn name(&self) -> &str { "oneshot" }
//!     fn lanes(&self) -> usize { 64 }
//!     fn execute(&self, task: &T1Task) -> T1Result {
//!         let mut r = T1Result::new(64);
//!         r.record_cycle(task.products().min(64) as usize);
//!         r.useful = task.products();
//!         r
//!     }
//!     fn network_costs(&self) -> NetworkCosts { NetworkCosts::flat() }
//! }
//!
//! let a = Block16::dense();
//! let task = T1Task::mm(a, Block16::dense());
//! let res = OneShot.execute(&task);
//! assert_eq!(res.cycles, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod area;
mod bitmap;
pub mod driver;
pub mod geometry;
mod energy;
mod engine;
pub mod fault;
pub mod memory;
pub mod metrics;
pub mod network;
pub mod report;
mod result;
mod stream;
mod task;

pub use bitmap::{delta_swap, transpose_nibbles, transpose_tile, Block16};
pub use driver::{StreamVerifier, VerifyError};
pub use energy::{EnergyBreakdown, EnergyModel, NetworkCosts};
pub use engine::{Precision, TileEngine};
pub use result::{CounterOverflow, EventCounts, T1Result, UtilHistogram};
pub use stream::TaskStream;
pub use task::{T1Task, TaskLevel, TaskSize};

/// Dimension of a T1 task (one block matmul edge): 16.
pub const T1_DIM: usize = 16;

/// MAC lanes of an FP64 STC (the paper's "64 MAC@FP64").
pub const LANES_FP64: usize = 64;

/// MAC lanes of an FP32 STC (the paper's "128 MAC@FP32").
pub const LANES_FP32: usize = 128;

/// MAC lanes of an FP16 STC (the paper's "256 MACs@FP16").
pub const LANES_FP16: usize = 256;
