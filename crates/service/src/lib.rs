//! Long-lived batch job service in front of the Uni-STC engines.
//!
//! The crates below this one answer one question per call: *what does
//! this kernel cost on this engine?* This crate turns that into a
//! serving layer (DESIGN.md §15): a [`Service`] owns a bounded request
//! queue and a dispatcher thread; clients submit matrices and kernel
//! requests from any thread and stream back
//! [`KernelReport`](simkit::driver::KernelReport)s. In between sit the
//! pieces a real deployment needs:
//!
//! * [`fingerprint`] — stable 128-bit content hashes over operand data
//!   (CSR arrays, canonical BBC2 stream, sparse-vector contents), the
//!   key every cache uses. The dispatcher hashes each operand `Arc`
//!   once and confirms every cache hit against the operands the entry
//!   was built from, so a collision is answered uncached, never served
//!   (DESIGN.md §18).
//! * [`cache`] — deterministic LRU caches (logical ticks, no wall
//!   clock) for BBC encodings and compiled counted `TaskStream`s, with
//!   exact hit/miss/eviction statistics.
//! * [`service`] — admission control (`analysis::UstcVerifier`: the
//!   operands' metadata and shapes, then the counted stream once per
//!   distinct T1 task, with verdicts memoised per stream key),
//!   same-stream batching, execution on the resilient `runtime` pool, and
//!   live metrics in an [`obs::MetricsRegistry`]. On a Uni-STC job whose
//!   own admission ran, the TMS/DPG expansions the check walked are
//!   handed to the run ([`uni_stc::Staged`]), so Stage 3 packs them
//!   instead of expanding each distinct task a second time.
//!
//! The headline invariant: a warm-cache response is **bit-identical** to
//! a cold one and to the serial driver — same
//! `counter_signature()` — because the caches store exactly what the
//! driver would deterministically recompute. The service chaos suite
//! and the committed `BENCH_pr9-cold` / `BENCH_pr9-warm` pair pin this.
//!
//! # Example
//!
//! ```
//! use service::{JobRequest, KernelRequest, Service, ServiceConfig};
//! use sparse::{CooMatrix, CsrMatrix};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut coo = CooMatrix::new(32, 32);
//! coo.push(0, 0, 1.0);
//! coo.push(17, 3, -2.5);
//! let a = CsrMatrix::try_from(coo)?;
//!
//! let svc = Service::start(ServiceConfig::default());
//! let cold = svc.submit(JobRequest::new(KernelRequest::SpMV { a: a.clone().into() })).wait()?;
//! let warm = svc.submit(JobRequest::new(KernelRequest::SpMV { a: a.into() })).wait()?;
//! // Bit-identical counters; the second run reused the cached encoding
//! // and compiled stream.
//! assert_eq!(cold.report.counter_signature(), warm.report.counter_signature());
//! assert!(warm.encoding_cached && warm.stream_cached);
//! let metrics = svc.shutdown();
//! assert_eq!(metrics.counter("service/jobs_completed"), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod fingerprint;
mod identity;
pub mod request;
pub mod service;

pub use cache::{CacheStats, LruCache, SharedCache};
pub use fingerprint::{fingerprint_bbc, fingerprint_csr, fingerprint_vector, Fingerprint};
pub use request::{JobError, JobRequest, JobResponse, KernelRequest, Operand};
pub use service::{JobHandle, Service, ServiceConfig, DEFAULT_ENGINE};
