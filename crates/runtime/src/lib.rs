//! Resilient parallel runtime for the Uni-STC reproduction.
//!
//! The simulator's corpus sweeps are embarrassingly parallel — every T1
//! task and every corpus matrix is independent — but a naive thread pool
//! would trade away the two properties the repo is built on:
//! **bit-exact determinism** (the conformance golden snapshots pin every
//! counter) and **robustness** (a panicking engine must cost one report,
//! not the process). This crate provides a scheduler that keeps both
//! while the machinery underneath it is actively failing:
//!
//! * [`pool`] — a supervised work-stealing pool over `std::thread` (no
//!   external dependencies). Per-attempt panic isolation via
//!   `catch_unwind`, bounded retry with exponential [`Backoff`], a
//!   watchdog that reassigns attempts past their deadline, and graceful
//!   degradation: when crashes push the pool below
//!   [`RuntimeConfig::quorum`], the supervisor drains the remaining work
//!   serially and reports a [`DegradedReport`] instead of erroring.
//! * [`chaos`] — a seeded [`ChaosPlan`] (the scheduler-level sibling of
//!   `simkit::fault::FaultPlan`) that deterministically injects worker
//!   crashes, stalls and transient task failures, so the resilience
//!   paths above are exercised by fixed-seed tests rather than trusted.
//! * [`kernels`] — sharded kernel execution: a counted
//!   `simkit::TaskStream` split over its distinct entries
//!   ([`run_stream_planned`]), each shard run through the untouched serial
//!   driver, and the shard reports folded into a
//!   [`simkit::driver::KernelReport`] that is bit-identical to the serial
//!   one (every counter is an order-independent sum; energy is recomputed
//!   from the merged events).
//!
//! Scheduler lifecycle (worker spawn / steal / retry / crash / degrade)
//! is recorded as [`obs::TraceEvent`]s and can be replayed into any
//! `obs::TraceSink` — including the Chrome-trace exporter, which gives
//! the scheduler its own track in Perfetto.
//!
//! # Example
//!
//! ```
//! use runtime::{run, RuntimeConfig, TaskOutcome, ChaosPlan, Backoff};
//!
//! let inputs: Vec<u64> = (0..64).collect();
//! // Two workers, deterministic 5 % transient-failure injection.
//! let chaos = ChaosPlan::new(7, 0.0, 0.0, 0.05, 0).unwrap();
//! let cfg = RuntimeConfig {
//!     backoff: Backoff::none(),
//!     ..RuntimeConfig::with_threads(2).with_chaos(chaos)
//! };
//! let report = run(&cfg, &inputs, |_, &x| Ok(x * x));
//! for (i, outcome) in report.outcomes.iter().enumerate() {
//!     assert_eq!(*outcome, TaskOutcome::Done((i as u64) * (i as u64)));
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod kernels;
pub mod pool;

pub use chaos::{ChaosPlan, InvalidChaosRate};
pub use kernels::{
    run_stream_planned, run_tasks_planned, PlannedRunError, ShardPlan, ShardPlanError, ShardedRun,
};
pub use pool::{
    run, Backoff, DegradedReport, RunReport, RunStats, RuntimeConfig, TaskError, TaskOutcome,
};

#[cfg(test)]
mod tests {
    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<crate::ChaosPlan>();
        assert_send_sync::<crate::RuntimeConfig>();
        assert_send_sync::<crate::RunStats>();
        assert_send_sync::<crate::DegradedReport>();
        assert_send_sync::<crate::TaskError>();
    }
}
