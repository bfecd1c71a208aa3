//! Time-stepped stencil solver benchmark: the same multi-iteration
//! solves run **direct** (stateless — zero-capacity operand caches, so
//! every SpMV step re-encodes the operator and recompiles its task
//! stream, the cost a job service without the PR 9 caches pays per
//! step) and **through the service** (caches on: one cold step, then
//! every further step answered from the fingerprint-keyed stream
//! cache). Both passes run the identical submit/dispatch/execute
//! machinery, so the wall-clock delta isolates exactly what the caches
//! save. Writes a `BENCH_<label>-direct.json` /
//! `BENCH_<label>-service.json` pair (schema `ustc-bench-v1`) at the
//! repository root quantifying the warm-cache payoff, plus a
//! multi-operator eviction-pressure sweep against a deliberately
//! undersized stream cache.
//!
//! Per-step counter signatures must be bit-identical between the two
//! passes — the binary exits nonzero the moment they are not.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p bench --bin stencil_bench -- --label pr10
//! cargo run --release -p bench --bin stencil_bench -- \
//!     --label ci-stencil --steps 8 --threads 2 --assert
//! ```
//!
//! `--assert` adds the CI gates: signature identity, a 100 % stream-cache
//! hit rate after each operator's first step, one operand hash per
//! operator in the cached pass, nonzero eviction pressure in the sweep,
//! and (with `--slo-p99-us`) a p99 latency ceiling.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

use bench::output::{Report, Section};
use bench::perf::{BenchDoc, BenchEntry, SCHEMA};
use obs::WallSpan;
use runtime::RuntimeConfig;
use service::{JobRequest, KernelRequest, Service, ServiceConfig};
use simkit::driver::KernelReport;
use simkit::{driver, EnergyModel, Precision};
use sparse::{BbcMatrix, CsrMatrix};
use uni_stc::{UniStc, UniStcConfig};
use workloads::stencil::{heat, lower, solver, GridShape, Lowering, Ordering, StencilKind};

struct Args {
    label: String,
    threads: usize,
    steps: usize,
    assert: bool,
    slo_p99_us: Option<u64>,
}

fn parse_args() -> Args {
    let mut args =
        Args { label: "pr10".to_owned(), threads: 1, steps: 8, assert: false, slo_p99_us: None };
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
            "--steps" => {
                args.steps = it
                    .next()
                    .expect("--steps needs a value")
                    .parse::<usize>()
                    .expect("--steps must be a number")
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
                    "usage: stencil_bench [--label L] [--steps N] [--threads N] \
                     [--assert] [--slo-p99-us U] [--json]"
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

/// One time-stepped solve: a lowered operator plus the solver that
/// iterates it and the exact SpMV replay count the solve performed.
struct SolveCase {
    lowering: Lowering,
    solver: &'static str,
    /// Headline scalar of the solve (final residual or final energy).
    figure: f64,
    spmv_count: usize,
}

impl SolveCase {
    fn name(&self) -> String {
        format!("{}/{}", self.lowering.name(), self.solver)
    }
}

/// Runs the three solver families, one per structural family: damped
/// Jacobi on an unaligned star grid, CG on a 16-aligned box grid, heat
/// stepping on a 3-D box grid. The instances are larger than the
/// perf-corpus section (`bench::stencil_lowerings`) so the per-step
/// encode + compile cost the caches remove stands clear of the fixed
/// per-job dispatch cost both passes pay. Solver numerics are identical
/// in both passes (computed locally, exactly as
/// `service/tests/stencil_determinism.rs` pins); what differs is how
/// each SpMV the solver performed is replayed for cycle accounting.
fn solve_cases(steps: usize) -> Vec<SolveCase> {
    [
        lower(StencilKind::Star5, GridShape::D2 { nx: 150, ny: 150 }, Ordering::Tiled16),
        lower(StencilKind::Box9, GridShape::D2 { nx: 128, ny: 128 }, Ordering::Tiled16),
        lower(StencilKind::Box27, GridShape::D3 { nx: 24, ny: 24, nz: 24 }, Ordering::Tiled16),
    ]
    .into_iter()
        .map(|l| {
            let b: Vec<f64> = (0..l.csr.nrows()).map(|i| ((i % 17) as f64) - 8.0).collect();
            let (solver, figure, spmv_count) = match l.kind {
                StencilKind::Star5 | StencilKind::Star7 => {
                    let t = solver::jacobi(&l.csr, &b, solver::JACOBI_WEIGHT, steps);
                    ("jacobi", t.final_residual(), t.spmv_count)
                }
                StencilKind::Box9 => {
                    let t = solver::cg_trace(&l.csr, &b, 1e-12, steps);
                    ("cg", t.final_residual(), t.spmv_count)
                }
                StencilKind::Box27 => {
                    let params = heat::HeatParams::stable_for(l.kind, steps);
                    let r = heat::run(&l.csr, &heat::initial_condition(&l), params);
                    ("heat", r.final_energy(), r.spmv_count)
                }
            };
            SolveCase { lowering: l, solver, figure, spmv_count }
        })
        .collect()
}

fn entry(case: &SolveCase, step: usize, report: &KernelReport, wall: std::time::Duration) -> BenchEntry {
    BenchEntry {
        matrix: format!("{}#{step:02}", case.name()),
        engine: report.engine.clone(),
        kernel: "SpMV".to_owned(),
        cycles: report.cycles,
        useful: report.useful,
        t1_tasks: report.t1_tasks,
        mac_utilisation: report.mean_utilisation(),
        wall_ms: wall.as_secs_f64() * 1e3,
        signature: report.counter_signature(),
    }
}

/// The serial reference signature for one operator: what the plain
/// driver, with no service in the path, charges for one SpMV.
fn serial_signature(case: &SolveCase) -> String {
    let engine = UniStc::new(UniStcConfig::with_precision(Precision::Fp64));
    driver::run_spmv(&engine, &EnergyModel::default(), &BbcMatrix::from_csr(&case.lowering.csr))
        .counter_signature()
}

/// One replay pass: submit each case's SpMV steps in solve order,
/// recording per-step wall clock and how many steps answered from the
/// stream cache. With zero-capacity caches this is the stateless
/// "direct" pass (every step encodes and compiles anew); with real
/// capacities step 0 is cold and steps 1.. are warm.
fn run_pass(
    svc: &Service,
    cases: &[SolveCase],
) -> (Vec<BenchEntry>, Vec<(String, usize, usize)>) {
    let mut entries = Vec::new();
    let mut hits = Vec::new();
    for case in cases {
        let a = Arc::new(case.lowering.csr.clone());
        let mut stream_hits = 0usize;
        for step in 0..case.spmv_count {
            let span = WallSpan::start();
            let resp = svc
                .submit(JobRequest::new(KernelRequest::SpMV { a: Arc::clone(&a).into() }))
                .wait()
                .unwrap_or_else(|e| panic!("{} step {step}: {e}", case.name()));
            let wall = span.elapsed();
            if resp.stream_cached {
                stream_hits += 1;
            }
            entries.push(entry(case, step, &resp.report, wall));
        }
        hits.push((case.name(), stream_hits, case.spmv_count));
    }
    (entries, hits)
}

/// The eviction-pressure sweep: more distinct operators than the stream
/// cache holds, replayed twice, so the LRU must evict on every round and
/// the pressure gauge reads nonzero.
fn eviction_sweep(threads: usize) -> (obs::MetricsRegistry, usize) {
    let sweep: Vec<CsrMatrix> = StencilKind::ALL
        .iter()
        .flat_map(|&kind| {
            [Ordering::Natural, Ordering::Tiled16].into_iter().map(move |ordering| {
                let shape = match kind.dims() {
                    2 => GridShape::D2 { nx: 20, ny: 20 },
                    _ => GridShape::D3 { nx: 7, ny: 7, nz: 7 },
                };
                lower(kind, shape, ordering).csr
            })
        })
        .collect();
    let capacity = sweep.len() / 2;
    let svc = Service::start(ServiceConfig {
        exec: RuntimeConfig::with_threads(threads),
        encoding_cache_capacity: capacity,
        stream_cache_capacity: capacity,
        ..ServiceConfig::default()
    });
    for _round in 0..2 {
        for m in &sweep {
            svc.submit(JobRequest::new(KernelRequest::SpMV { a: m.clone().into() }))
                .wait()
                .expect("sweep job");
        }
    }
    (svc.shutdown(), sweep.len())
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
    let cases = solve_cases(args.steps);

    // The stateless pass: the same dispatch/execute machinery with
    // zero-capacity caches, so every step pays encode + compile.
    let direct_svc = Service::start(ServiceConfig {
        exec: RuntimeConfig::with_threads(args.threads),
        encoding_cache_capacity: 0,
        stream_cache_capacity: 0,
        ..ServiceConfig::default()
    });
    let direct_span = WallSpan::start();
    let (direct_entries, direct_hits) = run_pass(&direct_svc, &cases);
    let direct_wall = direct_span.elapsed();
    let mut direct_metrics = direct_svc.shutdown();
    direct_metrics.set_gauge("direct/wall_ms", direct_wall.as_secs_f64() * 1e3);
    direct_metrics.set_gauge("corpus/solve_cases", cases.len() as f64);
    let direct_path =
        write_doc(&format!("{}-direct", args.label), direct_entries.clone(), direct_metrics.to_json());

    // The service sized so the whole corpus stays resident — eviction
    // behaviour is measured separately by the sweep below.
    let svc = Service::start(ServiceConfig {
        exec: RuntimeConfig::with_threads(args.threads),
        encoding_cache_capacity: 2 * cases.len(),
        stream_cache_capacity: 2 * cases.len(),
        ..ServiceConfig::default()
    });
    let service_span = WallSpan::start();
    let (service_entries, hits) = run_pass(&svc, &cases);
    let service_wall = service_span.elapsed();
    let mut metrics = svc.shutdown();
    metrics.set_gauge("service/wall_ms", service_wall.as_secs_f64() * 1e3);

    let (sweep_metrics, sweep_operators) = eviction_sweep(args.threads);
    let stream_pressure = sweep_metrics.gauge("service/stream_cache_pressure").unwrap_or(0.0);
    let encoding_pressure = sweep_metrics.gauge("service/encoding_cache_pressure").unwrap_or(0.0);
    metrics.set_gauge("sweep/operators", sweep_operators as f64);
    metrics.set_gauge("sweep/stream_cache_pressure", stream_pressure);
    metrics.set_gauge("sweep/encoding_cache_pressure", encoding_pressure);
    let service_path =
        write_doc(&format!("{}-service", args.label), service_entries.clone(), metrics.to_json());

    let mut failed = false;
    let mut report = Report::new(format!(
        "stencil_bench — label `{}` ({} steps, {} exec thread{}, schema `{SCHEMA}`)",
        args.label,
        args.steps,
        args.threads,
        if args.threads == 1 { "" } else { "s" },
    ));

    let mut solves = Section::new(
        "time-stepped solves (numerics identical in both passes)",
        &["case", "spmv steps", "headline figure"],
    );
    for case in &cases {
        solves.row(vec![
            case.name(),
            case.spmv_count.to_string(),
            format!("{:.3e}", case.figure),
        ]);
    }
    solves.note("figure: final relative residual (jacobi/cg) or final thermal energy (heat)");
    report.push(solves);

    let mut identity = Section::new(
        "direct vs service vs serial bit-identity (counter signatures)",
        &["step", "cycles", "identical"],
    );
    let serial: std::collections::BTreeMap<String, String> =
        cases.iter().map(|c| (c.name(), serial_signature(c))).collect();
    let mut diverged = 0usize;
    for (d, s) in direct_entries.iter().zip(&service_entries) {
        let case = d.matrix.rsplit_once('#').map_or(d.matrix.as_str(), |(c, _)| c);
        let reference = serial.get(case).map(String::as_str).unwrap_or("");
        if d.signature != s.signature || d.signature != reference {
            diverged += 1;
            failed = true;
            identity.row(vec![
                d.matrix.clone(),
                d.cycles.to_string(),
                format!("NO (direct {} / service {} / serial {reference})", d.signature, s.signature),
            ]);
        }
    }
    identity.note(if diverged == 0 {
        format!(
            "all {} per-step signatures bit-identical to the serial driver",
            direct_entries.len()
        )
    } else {
        format!("FAIL: {diverged} steps diverged")
    });
    report.push(identity);

    let mut cache = Section::new(
        "warm-cache payoff",
        &["metric", "value"],
    );
    let speedup = direct_wall.as_secs_f64() / service_wall.as_secs_f64().max(1e-9);
    cache.row(vec!["direct pass wall_ms".to_owned(), format!("{:.2}", direct_wall.as_secs_f64() * 1e3)]);
    cache.row(vec!["service pass wall_ms".to_owned(), format!("{:.2}", service_wall.as_secs_f64() * 1e3)]);
    cache.row(vec!["direct/service speedup".to_owned(), format!("{speedup:.2}x")]);
    for (name, stream_hits, spmv_count) in &hits {
        cache.row(vec![
            format!("{name} warm stream hits"),
            format!("{stream_hits}/{spmv_count} (cold step 0, then all warm)"),
        ]);
    }
    cache.row(vec![
        "stream cache hits/misses".to_owned(),
        format!(
            "{}/{}",
            metrics.counter("service/stream_cache_hits"),
            metrics.counter("service/stream_cache_misses")
        ),
    ]);
    cache.row(vec![
        "resident stream-cache pressure".to_owned(),
        format!("{:.2}", metrics.gauge("service/stream_cache_pressure").unwrap_or(0.0)),
    ]);
    cache.note(format!("documents: {} / {}", direct_path.display(), service_path.display()));
    report.push(cache);

    let mut sweep = Section::new(
        "eviction-pressure sweep (undersized stream cache)",
        &["metric", "value"],
    );
    sweep.row(vec!["distinct operators".to_owned(), sweep_operators.to_string()]);
    sweep.row(vec![
        "stream cache capacity".to_owned(),
        (sweep_operators / 2).to_string(),
    ]);
    sweep.row(vec![
        "stream cache pressure (evictions/insert)".to_owned(),
        format!("{stream_pressure:.2}"),
    ]);
    sweep.row(vec![
        "encoding cache pressure (evictions/insert)".to_owned(),
        format!("{encoding_pressure:.2}"),
    ]);
    sweep.row(vec![
        "sweep stream hits/misses".to_owned(),
        format!(
            "{}/{}",
            sweep_metrics.counter("service/stream_cache_hits"),
            sweep_metrics.counter("service/stream_cache_misses")
        ),
    ]);
    report.push(sweep);

    if args.assert {
        let mut gates = Section::new("CI gates (--assert)", &["gate", "status"]);
        let mut gate = |name: &str, ok: bool| {
            if !ok {
                failed = true;
            }
            gates.row(vec![name.to_owned(), if ok { "ok".to_owned() } else { "FAIL".to_owned() }]);
        };
        gate("per-step signatures are bit-identical", diverged == 0);
        gate(
            "direct pass never hit a cache (capacity 0)",
            direct_hits.iter().all(|(_, stream_hits, _)| *stream_hits == 0),
        );
        for (name, stream_hits, spmv_count) in &hits {
            gate(
                &format!("{name}: 100 % stream hits after step 1"),
                *stream_hits == spmv_count - 1,
            );
        }
        // `run_pass` submits one `Arc` per case for every step, so the
        // service hashes each operator on its first step only.
        gate(
            "cached pass hashed each operator once",
            metrics.counter("service/fingerprint_hashes") == cases.len() as u64,
        );
        gate(
            "resident corpus suffered no evictions",
            metrics.gauge("service/stream_cache_pressure") == Some(0.0),
        );
        gate("sweep eviction pressure is nonzero", stream_pressure > 0.0);
        if let Some(slo) = args.slo_p99_us {
            let p99 = metrics.gauge("service/latency_p99_us/SpMV");
            gate(&format!("SpMV p99 <= {slo} us"), p99.is_some_and(|v| v <= slo as f64));
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
