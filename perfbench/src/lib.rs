//! Benchmark of the batch job service (`crates/service`): three seeded
//! workloads driven through `service::Service`, end-to-end metrics from
//! an untraced pass, and a per-layer split from a traced replay that
//! calls each layer's public function in the dispatcher's order.
//!
//! All timing is done here, around calls into the layers; the program
//! under test is unchanged and its `obs` histograms are not read.

#![forbid(unsafe_code)]

pub mod mirror;
pub mod pass;
pub mod probe;
pub mod roster;
pub mod workload;
