//! Integration tests for the observability subsystem (`crates/obs`):
//! trace-disabled runs must be bit-identical to untraced ones, bounded
//! ring capture must preserve reports, the Chrome-trace export must stay
//! valid JSON, and the fixed-seed SpMV trace is pinned as a golden
//! snapshot (re-bless with `OBS_BLESS=1 cargo test -p bench --test
//! observability`).

use std::path::{Path, PathBuf};
use std::str::FromStr;

use bench::perf::{self, BenchDoc, BenchEntry};
use obs::json::Value;
use simkit::driver::{run_spmv, run_tasks_traced, spmv_tasks, Kernel};
use simkit::{EnergyModel, Precision};
use sparse::BbcMatrix;
use uni_stc::{UniStc, UniStcConfig};

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("bench crate lives at <repo>/crates/bench")
}

fn golden_path() -> PathBuf {
    repo_root().join("tests/golden/chrome_spmv.json")
}

/// The fixed-seed SpMV workload every trace test runs: a small 2-D Poisson
/// stencil, fully deterministic.
fn fixture() -> (UniStc, BbcMatrix) {
    let csr = workloads::gen::poisson_2d(4);
    let engine = UniStc::new(UniStcConfig::with_precision(Precision::Fp64));
    (engine, BbcMatrix::from_csr(&csr))
}

#[test]
fn disabled_trace_is_bit_identical_to_untraced_run() {
    let (engine, bbc) = fixture();
    let em = EnergyModel::default();
    let plain = run_spmv(&engine, &em, &bbc);
    let noop = run_tasks_traced(&engine, &em, Kernel::SpMV, spmv_tasks(&bbc), &mut obs::NoopSink);
    // KernelReport's PartialEq covers cycles, useful, util histogram and
    // the full EventCounts — any divergence is a real behaviour change.
    assert_eq!(plain, noop);
    assert_eq!(plain.counter_signature(), noop.counter_signature());
}

#[test]
fn enabled_trace_never_changes_the_report() {
    let (engine, bbc) = fixture();
    let em = EnergyModel::default();
    let plain = run_spmv(&engine, &em, &bbc);
    let mut events: Vec<obs::TraceEvent> = Vec::new();
    let traced = run_tasks_traced(&engine, &em, Kernel::SpMV, spmv_tasks(&bbc), &mut events);
    assert_eq!(plain, traced);
    assert!(!events.is_empty());
    // The driver's retire markers land exactly on the report totals.
    let last_retire = events
        .iter()
        .rev()
        .find_map(|e| match e {
            obs::TraceEvent::TaskRetire { cycle, .. } => Some(*cycle),
            _ => None,
        })
        .expect("trace contains retire events");
    assert_eq!(last_retire, traced.cycles);
    let issues = events.iter().filter(|e| e.kind() == "task_issue").count() as u64;
    assert_eq!(issues, traced.t1_tasks);
}

#[test]
fn ring_sink_bounds_memory_and_keeps_the_tail() {
    let (engine, bbc) = fixture();
    let em = EnergyModel::default();

    // Unbounded reference capture.
    let mut full: Vec<obs::TraceEvent> = Vec::new();
    let reference = run_tasks_traced(&engine, &em, Kernel::SpMV, spmv_tasks(&bbc), &mut full);

    // A ring far smaller than the trace: the report is unaffected and the
    // retained events are exactly the trace's tail.
    let mut ring = obs::RingSink::new(8);
    let ringed = run_tasks_traced(&engine, &em, Kernel::SpMV, spmv_tasks(&bbc), &mut ring);
    assert_eq!(reference, ringed);
    assert_eq!(ring.len(), 8);
    assert_eq!(ring.recorded() as usize, full.len());
    assert!(ring.overwritten() > 0);
    assert_eq!(ring.events(), full[full.len() - 8..]);
}

#[test]
fn chrome_export_is_valid_trace_event_json() {
    let (engine, bbc) = fixture();
    let mut events: Vec<obs::TraceEvent> = Vec::new();
    let em = EnergyModel::default();
    run_tasks_traced(&engine, &em, Kernel::SpMV, spmv_tasks(&bbc), &mut events);
    let doc = obs::json::parse(&obs::chrome::export(&events)).expect("export parses");
    let evs = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array");
    assert!(evs.len() > 2, "expected payload beyond thread metadata");
    for ev in evs {
        let ph = ev.get("ph").and_then(Value::as_str).expect("event has ph");
        assert!(
            ["X", "C", "i", "M"].contains(&ph),
            "unexpected phase {ph}"
        );
        assert!(ev.get("name").and_then(Value::as_str).is_some());
    }
    // At least one task slice and one counter series must be present.
    assert!(evs.iter().any(|e| e.get("ph").and_then(Value::as_str) == Some("X")));
    assert!(evs.iter().any(|e| e.get("ph").and_then(Value::as_str) == Some("C")));
}

#[test]
fn golden_chrome_trace_snapshot() {
    let (engine, bbc) = fixture();
    let mut events: Vec<obs::TraceEvent> = Vec::new();
    let em = EnergyModel::default();
    run_tasks_traced(&engine, &em, Kernel::SpMV, spmv_tasks(&bbc), &mut events);
    let rendered = obs::chrome::export_pretty(&events);

    let path = golden_path();
    if std::env::var_os("OBS_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir has a parent"))
            .expect("create golden dir");
        std::fs::write(&path, &rendered).expect("write golden snapshot");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); generate it with OBS_BLESS=1 cargo test -p bench --test observability",
            path.display()
        )
    });
    assert!(
        rendered == golden,
        "Chrome trace of the fixed-seed SpMV changed; if intentional, re-bless with \
         OBS_BLESS=1 cargo test -p bench --test observability"
    );
}

#[test]
fn bench_doc_file_round_trip_and_compare_gate() {
    // Build a miniature document, write it, read it back, then inject a
    // 10 % cycle slowdown and check the comparator flags exactly that.
    let entry = |matrix: &str, cycles: u64| BenchEntry {
        matrix: matrix.to_owned(),
        engine: "Uni-STC".to_owned(),
        kernel: "SpMV".to_owned(),
        cycles,
        useful: 64,
        t1_tasks: 4,
        mac_utilisation: 0.5,
        wall_ms: 0.25,
        signature: format!("Uni-STC SpMV cycles={cycles}"),
    };
    let prev = BenchDoc {
        label: "prev".to_owned(),
        backend: "bitwise".to_owned(),
        entries: vec![entry("m1", 1000), entry("m2", 400)],
        metrics: Value::Null,
    };

    let dir = std::env::temp_dir().join("ustc-obs-test");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("BENCH_prev.json");
    std::fs::write(&path, prev.to_json().to_json_pretty()).expect("write doc");
    let loaded =
        BenchDoc::from_str(&std::fs::read_to_string(&path).expect("read doc")).expect("parse doc");
    assert_eq!(loaded.entries, prev.entries);

    let mut slowed = prev.clone();
    slowed.entries[0].cycles = 1100; // injected 10 % slowdown
    let cmp = perf::compare(&loaded, &slowed, 5.0).expect("well-formed documents");
    assert_eq!(cmp.regressions.len(), 1, "exactly the slowed entry must be flagged");
    assert!(cmp.regressions[0].key.contains("m1"));
    assert!((cmp.regressions[0].pct - 10.0).abs() < 1e-9);
    assert_eq!((cmp.only_in_prev, cmp.only_in_new), (0, 0), "same corpus on both sides");
    let clean = perf::compare(&loaded, &prev, 5.0).expect("well-formed documents");
    assert!(clean.regressions.is_empty());
}
