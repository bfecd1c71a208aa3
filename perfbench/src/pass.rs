//! One untraced pass through a live service, the serial reference it is
//! checked against, and the order statistics the metrics are read from.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use obs::MetricsRegistry;
use service::{JobRequest, KernelRequest, Operand, Service, ServiceConfig, DEFAULT_ENGINE};
use simkit::driver::{self, KernelReport};
use simkit::EnergyModel;
use sparse::BbcMatrix;

use crate::workload::Workload;
use crate::{probe, roster};

/// What one untraced pass observed.
pub struct Pass {
    /// First submit to last reply, less the probe slices run in between.
    pub wall: Duration,
    /// Submit-to-reply time per job, in submission order.
    pub latencies: Vec<Duration>,
    /// Reply per job, in submission order.
    pub outcomes: Vec<Result<KernelReport, String>>,
    /// The service's metrics after the pass.
    pub metrics: MetricsRegistry,
    /// Host slowdown during the pass against the reference host
    /// ([`probe::slowdown`] of the slices run between its envelopes).
    pub slowdown: f64,
}

/// Submits every envelope to `svc` and waits for all its replies before
/// the next (closed loop, one client), then shuts the service down.
/// Between envelopes, after every [`probe::EVERY`] of envelope time, it
/// runs one probe slice, outside every job's latency.
///
/// Handles are awaited in submission order; the paper-sweep envelopes
/// list engines in the dispatcher's group order, so each wait returns as
/// its reply is sent.
pub fn run(svc: Service, workload: &Workload) -> Pass {
    let envelopes = workload.envelopes.clone();
    let mut latencies = Vec::with_capacity(workload.jobs());
    let mut replies = Vec::with_capacity(workload.jobs());
    let mut slices = Vec::new();
    let mut unprobed = Duration::ZERO;
    let start = Instant::now();
    for envelope in envelopes {
        let submitted = Instant::now();
        for handle in svc.submit_batch(envelope) {
            let reply = handle.wait();
            latencies.push(submitted.elapsed());
            replies.push(reply);
        }
        unprobed += submitted.elapsed();
        if unprobed >= probe::EVERY {
            unprobed = Duration::ZERO;
            slices.push(probe::slice());
        }
    }
    let wall = start.elapsed() - slices.iter().sum::<Duration>();
    let metrics = svc.shutdown();
    let outcomes = replies
        .into_iter()
        .map(|r| r.map(|ok| ok.report).map_err(|e| e.to_string()))
        .collect();
    Pass {
        wall,
        latencies,
        outcomes,
        metrics,
        slowdown: probe::slowdown(&slices),
    }
}

/// The serial driver's `counter_signature()` for every job of `workload`,
/// in submission order: `driver::run_*` on a fresh encoding of the same
/// operands with the engines of a service started with `cfg`, and no
/// service, cache or pool in the path.
pub fn reference_signatures(workload: &Workload, cfg: &ServiceConfig) -> Vec<String> {
    let engines = roster::engines(cfg.precision);
    let em = EnergyModel::default();
    // Repeated (engine, request) pairs share one serial run.
    let mut memo: BTreeMap<(String, RequestId), String> = BTreeMap::new();
    let mut out = Vec::with_capacity(workload.jobs());
    for job in workload.envelopes.iter().flatten() {
        let name = job
            .engine
            .clone()
            .unwrap_or_else(|| DEFAULT_ENGINE.to_owned());
        let signature = memo
            .entry((name.clone(), RequestId::of(job)))
            .or_insert_with(|| {
                let Some(engine) = engines.get(&name) else {
                    return format!("unknown engine `{name}`");
                };
                let engine = engine.as_ref();
                let report = match &job.kernel {
                    KernelRequest::SpMV { a } => driver::run_spmv(engine, &em, &encode(a)),
                    KernelRequest::SpMSpV { a, x } => {
                        driver::run_spmspv(engine, &em, &encode(a), x)
                    }
                    KernelRequest::SpMM { a, n_cols } => {
                        driver::run_spmm(engine, &em, &encode(a), *n_cols)
                    }
                    KernelRequest::SpGEMM { a, b } => {
                        driver::run_spgemm(engine, &em, &encode(a), &encode(b))
                    }
                };
                report.counter_signature()
            });
        out.push(signature.clone());
    }
    out
}

fn encode(op: &Operand) -> BbcMatrix {
    match op {
        Operand::Csr(m) => BbcMatrix::from_csr(m),
        Operand::Bbc(m) => (**m).clone(),
    }
}

/// A request's identity by operand allocation: the workloads share one
/// `Arc` per operand, so equal ids mean equal operands.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct RequestId(&'static str, [usize; 2], usize);

impl RequestId {
    fn of(job: &JobRequest) -> Self {
        fn ptr(op: &Operand) -> usize {
            match op {
                Operand::Csr(m) => Arc::as_ptr(m) as usize,
                Operand::Bbc(m) => Arc::as_ptr(m) as usize,
            }
        }
        match &job.kernel {
            KernelRequest::SpMV { a } => RequestId("SpMV", [ptr(a), 0], 0),
            KernelRequest::SpMSpV { a, x } => {
                RequestId("SpMSpV", [ptr(a), Arc::as_ptr(x) as usize], 0)
            }
            KernelRequest::SpMM { a, n_cols } => RequestId("SpMM", [ptr(a), 0], *n_cols),
            KernelRequest::SpGEMM { a, b } => RequestId("SpGEMM", [ptr(a), ptr(b)], 0),
        }
    }
}

/// Counts outcomes that are errors or whose signature differs from
/// `reference` (same order).
pub fn mismatches(outcomes: &[Result<KernelReport, String>], reference: &[String]) -> usize {
    let wrong = outcomes
        .iter()
        .zip(reference)
        .filter(|(o, r)| {
            o.as_ref()
                .map_or(true, |rep| rep.counter_signature() != **r)
        })
        .count();
    wrong + outcomes.len().abs_diff(reference.len())
}

/// The exact `q`-quantile of `samples` by nearest rank: the smallest
/// sample with at least `q · n` samples at or below it.
///
/// # Panics
///
/// Panics on an empty sample set.
pub fn order_statistic(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// The median of `samples` (the nearest-rank 0.5 quantile).
pub fn median(samples: &[f64]) -> f64 {
    order_statistic(samples, 0.5)
}

/// The process's peak resident set (`VmHWM`), in MB; 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics_are_samples_by_nearest_rank() {
        let samples: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(order_statistic(&samples, 0.5), 10.0);
        assert_eq!(order_statistic(&samples, 0.9), 18.0);
        assert_eq!(order_statistic(&samples, 1.0), 20.0);
        assert_eq!(order_statistic(&[3.5], 0.9), 3.5);
        assert_eq!(median(&[2.0, 1.0, 3.0]), 2.0);
    }
}
