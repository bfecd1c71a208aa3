//! Service load generator: drives the batch job service over the
//! representative corpus twice — a **cold** pass against empty caches,
//! then a **warm** pass replaying the identical requests — and writes
//! one `BENCH_<label>-cold.json` / `BENCH_<label>-warm.json` pair
//! (schema `ustc-bench-v1`) at the repository root.
//!
//! The two documents must agree on every counter signature: a cached
//! response is bit-identical to a cold one, and this binary exits
//! nonzero the moment that stops being true. Wall-clock columns are the
//! measurable payoff — the warm pass skips CSR→BBC encoding and task
//! stream compilation.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p bench --bin service_bench -- --label pr9
//! cargo run --release -p bench --bin service_bench -- \
//!     --label ci-service --threads 2 --assert
//! ```
//!
//! `--assert` adds the CI gates: a 100 % warm-pass cache-hit rate and a
//! live queue-depth histogram in the final metrics snapshot.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

use bench::output::{Report, Section};
use bench::perf::{BenchDoc, BenchEntry, SCHEMA};
use bench::{sparse_vector, KERNELS, SPMM_N_COLS, SPMSPV_X_SPARSITY};
use obs::WallSpan;
use runtime::RuntimeConfig;
use service::{JobRequest, JobResponse, KernelRequest, Service, ServiceConfig};
use simkit::driver::Kernel;
use sparse::{CsrMatrix, SparseVector};
use workloads::representative::representative_matrices;

struct Args {
    label: String,
    threads: usize,
    assert: bool,
    slo_p99_us: Option<u64>,
}

fn parse_args() -> Args {
    let mut args = Args { label: "local".to_owned(), threads: 1, assert: false, slo_p99_us: None };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--label" => args.label = it.next().expect("--label needs a value"),
            "--threads" => {
                args.threads = it
                    .next()
                    .expect("--threads needs a value")
                    .parse::<usize>()
                    .expect("--threads must be a number")
                    .max(1)
            }
            "--assert" => args.assert = true,
            "--slo-p99-us" => {
                args.slo_p99_us = Some(
                    it.next()
                        .expect("--slo-p99-us needs a value")
                        .parse::<u64>()
                        .expect("--slo-p99-us must be a number of microseconds"),
                )
            }
            "--json" | "--full" => {} // shared-mode flags, handled by the serializer
            other => {
                eprintln!("unknown flag {other}");
                eprintln!(
                    "usage: service_bench [--label L] [--threads N] [--assert] \
                     [--slo-p99-us U] [--json]"
                );
                std::process::exit(2);
            }
        }
    }
    args
}

/// The repository root (two levels above the bench crate).
fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("bench crate lives at <repo>/crates/bench")
}

/// One corpus matrix with the operands every kernel request needs.
struct Workload {
    name: String,
    csr: CsrMatrix,
    x: Arc<SparseVector>,
}

fn workloads() -> Vec<Workload> {
    let mut loads: Vec<Workload> = representative_matrices()
        .into_iter()
        .map(|r| {
            let x = Arc::new(sparse_vector(r.matrix.ncols(), SPMSPV_X_SPARSITY, 5));
            Workload { name: r.name.to_owned(), csr: r.matrix, x }
        })
        .collect();
    // The stencil corpus section: lowered structured-grid operators under
    // the 16-aligned tile ordering (see `bench::stencil_lowerings`).
    loads.extend(bench::stencil_lowerings().into_iter().map(|l| {
        let x = Arc::new(sparse_vector(l.csr.ncols(), SPMSPV_X_SPARSITY, 5));
        Workload { name: l.name(), csr: l.csr, x }
    }));
    loads
}

fn request_for(w: &Workload, kernel: Kernel) -> JobRequest {
    let a: service::Operand = w.csr.clone().into();
    JobRequest::new(match kernel {
        Kernel::SpMV => KernelRequest::SpMV { a },
        Kernel::SpMSpV => KernelRequest::SpMSpV { a, x: Arc::clone(&w.x) },
        Kernel::SpMM => KernelRequest::SpMM { a, n_cols: SPMM_N_COLS },
        Kernel::SpGEMM => {
            KernelRequest::SpGEMM { a, b: w.csr.clone().into() }
        }
    })
}

/// Runs one full pass over the corpus, returning the bench entries and
/// the per-job responses in submission order.
fn run_pass(svc: &Service, loads: &[Workload]) -> (Vec<BenchEntry>, Vec<JobResponse>) {
    let mut entries = Vec::new();
    let mut responses = Vec::new();
    for w in loads {
        for kernel in KERNELS {
            let span = WallSpan::start();
            let resp = svc
                .submit(request_for(w, kernel))
                .wait()
                .unwrap_or_else(|e| panic!("{} {kernel}: {e}", w.name));
            let wall = span.elapsed();
            entries.push(BenchEntry {
                matrix: w.name.clone(),
                engine: resp.report.engine.clone(),
                kernel: kernel.to_string(),
                cycles: resp.report.cycles,
                useful: resp.report.useful,
                t1_tasks: resp.report.t1_tasks,
                mac_utilisation: resp.report.mean_utilisation(),
                wall_ms: wall.as_secs_f64() * 1e3,
                signature: resp.report.counter_signature(),
            });
            responses.push(resp);
        }
    }
    (entries, responses)
}

fn write_doc(label: &str, entries: Vec<BenchEntry>, metrics: obs::json::Value) -> PathBuf {
    let doc = BenchDoc {
        label: label.to_owned(),
        entries,
        metrics,
    };
    let path = repo_root().join(format!("BENCH_{label}.json"));
    std::fs::write(&path, doc.to_json().to_json_pretty()).expect("write BENCH json");
    path
}

fn main() -> ExitCode {
    let args = parse_args();
    let loads = workloads();
    let svc = Service::start(ServiceConfig {
        exec: RuntimeConfig::with_threads(args.threads),
        // The corpus re-uses each matrix across four kernels and both
        // passes; size the caches so nothing is evicted mid-measurement.
        encoding_cache_capacity: 2 * loads.len(),
        stream_cache_capacity: 8 * loads.len(),
        ..ServiceConfig::default()
    });

    let cold_span = WallSpan::start();
    let (cold_entries, _) = run_pass(&svc, &loads);
    let cold_wall = cold_span.elapsed();
    let cold_path = write_doc(&format!("{}-cold", args.label), cold_entries.clone(), svc.metrics().to_json());

    let warm_span = WallSpan::start();
    let (warm_entries, warm_responses) = run_pass(&svc, &loads);
    let warm_wall = warm_span.elapsed();
    let metrics = svc.shutdown();
    let warm_path = write_doc(&format!("{}-warm", args.label), warm_entries.clone(), metrics.to_json());

    let mut failed = false;
    let mut report = Report::new(format!(
        "service_bench — label `{}` ({} exec thread{}, schema `{SCHEMA}`)",
        args.label,
        args.threads,
        if args.threads == 1 { "" } else { "s" },
    ));

    let mut identity = Section::new(
        "cold vs warm bit-identity (counter signatures)",
        &["matrix", "kernel", "cycles", "identical"],
    );
    for (c, w) in cold_entries.iter().zip(&warm_entries) {
        let same = c.signature == w.signature;
        if !same {
            failed = true;
        }
        identity.row(vec![
            c.matrix.clone(),
            c.kernel.clone(),
            c.cycles.to_string(),
            if same { "yes".to_owned() } else { format!("NO ({} vs {})", c.signature, w.signature) },
        ]);
    }
    identity.note(if failed {
        "FAIL: a cached response diverged from its cold run".to_owned()
    } else {
        format!("all {} entries bit-identical", cold_entries.len())
    });
    report.push(identity);

    let warm_hits = warm_responses.iter().filter(|r| r.stream_cached).count();
    let warm_encoded = warm_responses.iter().filter(|r| r.encoding_cached).count();
    let speedup = cold_wall.as_secs_f64() / warm_wall.as_secs_f64().max(1e-9);
    let mut summary = Section::new("cache effectiveness", &["metric", "value"]);
    summary.row(vec!["cold pass wall_ms".to_owned(), format!("{:.2}", cold_wall.as_secs_f64() * 1e3)]);
    summary.row(vec!["warm pass wall_ms".to_owned(), format!("{:.2}", warm_wall.as_secs_f64() * 1e3)]);
    summary.row(vec!["warm/cold speedup".to_owned(), format!("{speedup:.2}x")]);
    summary.row(vec![
        "warm stream-cache hit rate".to_owned(),
        format!("{}/{}", warm_hits, warm_responses.len()),
    ]);
    summary.row(vec![
        "warm encoding-cache hit rate".to_owned(),
        format!("{}/{}", warm_encoded, warm_responses.len()),
    ]);
    summary.row(vec![
        "stream cache hits/misses".to_owned(),
        format!(
            "{}/{}",
            metrics.counter("service/stream_cache_hits"),
            metrics.counter("service/stream_cache_misses")
        ),
    ]);
    summary.row(vec![
        "jobs completed".to_owned(),
        metrics.counter("service/jobs_completed").to_string(),
    ]);
    summary.note(format!("documents: {} / {}", cold_path.display(), warm_path.display()));
    report.push(summary);

    let mut latency = Section::new(
        "per-kernel latency quantiles (bucket upper bounds)",
        &["kernel", "p50_us", "p99_us"],
    );
    for kernel in KERNELS {
        let p50 = metrics.gauge(&format!("service/latency_p50_us/{kernel}"));
        let p99 = metrics.gauge(&format!("service/latency_p99_us/{kernel}"));
        let render = |v: Option<f64>| v.map_or_else(|| "-".to_owned(), |v| format!("{v:.0}"));
        latency.row(vec![kernel.to_string(), render(p50), render(p99)]);
    }
    if let Some(slo) = args.slo_p99_us {
        latency.note(format!("SLO: p99 <= {slo} us per kernel (gated under --assert)"));
    }
    report.push(latency);

    if args.assert {
        let queue_depths = metrics
            .histogram("service/queue_depth_hist")
            .map(|h| h.count())
            .unwrap_or(0);
        let mut gates = Section::new("CI gates (--assert)", &["gate", "status"]);
        let mut gate = |name: &str, ok: bool| {
            if !ok {
                failed = true;
            }
            gates.row(vec![name.to_owned(), if ok { "ok".to_owned() } else { "FAIL".to_owned() }]);
        };
        gate("warm stream-cache hit rate is 100 %", warm_hits == warm_responses.len());
        gate("warm encoding-cache hit rate is 100 %", warm_encoded == warm_responses.len());
        gate("queue-depth histogram is live", queue_depths > 0);
        gate(
            "every job was answered",
            metrics.counter("service/jobs_completed")
                == (cold_entries.len() + warm_entries.len()) as u64,
        );
        if let Some(slo) = args.slo_p99_us {
            for kernel in KERNELS {
                let p99 = metrics.gauge(&format!("service/latency_p99_us/{kernel}"));
                gate(
                    &format!("{kernel} p99 <= {slo} us"),
                    p99.is_some_and(|v| v <= slo as f64),
                );
            }
        }
        report.push(gates);
    }

    report.emit();
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
