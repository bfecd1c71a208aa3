//! Perf-regression runner: executes the representative corpus across the
//! headline engines and writes `BENCH_<label>.json` at the repository
//! root (schema `ustc-bench-v1`, see DESIGN.md §10).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p bench --bin perf_regression -- --label pr5
//! cargo run --release -p bench --bin perf_regression -- \
//!     --label pr6 --compare BENCH_pr5.json --threshold 5
//! cargo run --release -p bench --bin perf_regression -- \
//!     --label pr5 --trace trace_spmv.json
//! ```
//!
//! `--compare <prev.json>` diffs the fresh run against a previous document
//! and exits nonzero if any (matrix, engine, kernel) entry's simulated
//! cycle count regressed by more than `--threshold` percent (default 5).
//! `--trace <out.json>` additionally records a traced Uni-STC SpMV run on
//! the first representative matrix and writes its Chrome trace (open in
//! Perfetto or `chrome://tracing`).
//! `--backend <name>` selects the `sparse::kernels` backend (scalar |
//! bitwise, default bitwise) before collection; the choice is
//! recorded in the document's `backend` field. Simulated cycles are
//! backend-invariant, so comparing documents collected under different
//! backends doubles as a cross-backend bit-identity check — only the
//! wall-clock columns should move.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;

use bench::output::{Report, Section};
use bench::perf::{self, BenchDoc};
use bench::MatrixCtx;
use simkit::driver::{run_tasks_traced, spmv_tasks, Kernel};
use simkit::{EnergyModel, Precision};
use uni_stc::{UniStc, UniStcConfig};
use workloads::representative::representative_matrices;

struct Args {
    label: String,
    compare: Option<PathBuf>,
    threshold: f64,
    trace: Option<PathBuf>,
    threads: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        label: "local".to_owned(),
        compare: None,
        threshold: 5.0,
        trace: None,
        threads: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--label" => args.label = it.next().expect("--label needs a value"),
            "--compare" => {
                args.compare = Some(PathBuf::from(it.next().expect("--compare needs a path")))
            }
            "--threshold" => {
                args.threshold = it
                    .next()
                    .expect("--threshold needs a value")
                    .parse()
                    .expect("--threshold must be a number")
            }
            "--trace" => {
                args.trace = Some(PathBuf::from(it.next().expect("--trace needs a path")))
            }
            "--threads" => {
                args.threads = it
                    .next()
                    .expect("--threads needs a value")
                    .parse::<usize>()
                    .expect("--threads must be a number")
                    .max(1)
            }
            "--backend" => {
                let name = it.next().expect("--backend needs a value");
                match sparse::kernels::BackendKind::parse(&name) {
                    Some(kind) => sparse::kernels::set_backend(kind),
                    None => {
                        eprintln!(
                            "unknown backend `{name}` (available: {})",
                            sparse::kernels::BackendKind::ALL
                                .iter()
                                .map(|k| k.name())
                                .collect::<Vec<_>>()
                                .join(", ")
                        );
                        std::process::exit(2);
                    }
                }
            }
            "--json" | "--full" => {} // shared-mode flags, handled by the serializer
            other => {
                eprintln!("unknown flag {other}");
                eprintln!("usage: perf_regression [--label L] [--backend scalar|bitwise] [--compare PREV.json] [--threshold PCT] [--trace OUT.json] [--threads N] [--json]");
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

fn write_chrome_trace(path: &Path) {
    let rep = representative_matrices()
        .into_iter()
        .next()
        .expect("representative corpus is non-empty");
    let ctx = MatrixCtx::new(rep.name, rep.matrix, 5);
    let engine = UniStc::new(UniStcConfig::with_precision(Precision::Fp64));
    let mut events: Vec<obs::TraceEvent> = Vec::new();
    let em = EnergyModel::default();
    let report = run_tasks_traced(&engine, &em, Kernel::SpMV, spmv_tasks(&ctx.bbc), &mut events);
    std::fs::write(path, obs::chrome::export_pretty(&events)).expect("write chrome trace");
    eprintln!(
        "wrote {} ({} events, {} cycles on {})",
        path.display(),
        events.len(),
        report.cycles,
        rep.name
    );
}

fn main() -> ExitCode {
    let args = parse_args();
    let doc = perf::collect_threaded(&args.label, args.threads);

    let out_path = repo_root().join(format!("BENCH_{}.json", args.label));
    std::fs::write(&out_path, doc.to_json().to_json_pretty()).expect("write BENCH json");
    eprintln!("wrote {} ({} entries)", out_path.display(), doc.entries.len());

    if let Some(trace_path) = &args.trace {
        write_chrome_trace(trace_path);
    }

    let mut report = Report::new(format!(
        "perf_regression — label `{}` ({} thread{}, backend `{}`)",
        args.label,
        args.threads,
        if args.threads == 1 { "" } else { "s" },
        doc.backend,
    ));
    let mut summary = Section::new(
        "corpus summary (simulated cycles, Uni-STC)",
        &["matrix", "kernel", "cycles", "util", "wall_ms"],
    );
    for e in doc.entries.iter().filter(|e| e.engine == "Uni-STC") {
        summary.row(vec![
            e.matrix.clone(),
            e.kernel.clone(),
            e.cycles.to_string(),
            format!("{:.3}", e.mac_utilisation),
            format!("{:.2}", e.wall_ms),
        ]);
    }
    summary.note(format!("document: {}", out_path.display()));
    report.push(summary);

    let mut failed = false;
    if let Some(prev_path) = &args.compare {
        let text = std::fs::read_to_string(prev_path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", prev_path.display()));
        let prev = BenchDoc::from_str(&text)
            .unwrap_or_else(|e| panic!("cannot parse {}: {e}", prev_path.display()));
        let cmp = perf::compare(&prev, &doc, args.threshold).unwrap_or_else(|e| {
            eprintln!("cannot compare against {}: {e}", prev_path.display());
            std::process::exit(2);
        });
        let mut section = Section::new(
            format!(
                "cycle regressions vs `{}` (threshold {:.1} %)",
                prev.label, args.threshold
            ),
            &["entry", "prev", "new", "slowdown"],
        );
        for r in &cmp.regressions {
            section.row(vec![
                r.key.clone(),
                r.prev_cycles.to_string(),
                r.new_cycles.to_string(),
                format!("+{:.1} %", r.pct),
            ]);
        }
        if cmp.regressions.is_empty() {
            section.note("no regressions");
        } else {
            section.note(format!("{} entries regressed", cmp.regressions.len()));
            failed = true;
        }
        if cmp.only_in_prev + cmp.only_in_new > 0 {
            section.note(format!(
                "unmatched keys: {} only in `{}`, {} only in `{}` (not gated)",
                cmp.only_in_prev, prev.label, cmp.only_in_new, doc.label
            ));
        }
        report.push(section);
    }

    report.emit();
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
