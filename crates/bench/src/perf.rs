//! The perf-regression corpus runner behind `cargo run -p bench --bin
//! perf_regression`.
//!
//! [`collect`] runs the eight representative matrices across the headline
//! engines and all four kernels, recording simulated cycles, MAC
//! utilisation, wall-clock time and the deterministic counter signature of
//! every run into a [`BenchDoc`]. The document serialises to
//! `BENCH_<label>.json` (schema [`SCHEMA`]) and [`compare`] diffs two such
//! documents, flagging entries whose simulated cycle count regressed by
//! more than a threshold. Cycle counts are deterministic, so any cycle
//! regression is a real scheduling change — wall-clock numbers are
//! recorded for trend-watching but never gated on.

use obs::json::Value;
use obs::{MetricsRegistry, WallSpan};
use simkit::{EnergyModel, Precision};
use workloads::representative::representative_matrices;

use crate::{headline_engines, MatrixCtx, KERNELS};

/// Schema identifier written into every `BENCH_*.json` document.
pub const SCHEMA: &str = "ustc-bench-v1";

/// Histogram bounds (cycles per T1 task) for the `t1/avg_cycles_per_task`
/// metric.
const T1_CYCLE_BOUNDS: [u64; 7] = [1, 2, 4, 8, 16, 32, 64];

/// One (matrix, engine, kernel) measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// Matrix display name.
    pub matrix: String,
    /// Engine display name.
    pub engine: String,
    /// Kernel display name.
    pub kernel: String,
    /// Simulated cycles (deterministic — the regression gate).
    pub cycles: u64,
    /// Useful MAC operations.
    pub useful: u64,
    /// Issued T1 tasks.
    pub t1_tasks: u64,
    /// Mean MAC utilisation in `[0, 1]`.
    pub mac_utilisation: f64,
    /// Host wall-clock milliseconds for this run (informational only).
    pub wall_ms: f64,
    /// The report's deterministic counter signature.
    pub signature: String,
}

impl BenchEntry {
    /// The comparison key: entries match across documents when matrix,
    /// engine and kernel all agree.
    pub fn key(&self) -> String {
        format!("{} / {} / {}", self.matrix, self.engine, self.kernel)
    }

    fn to_json(&self) -> Value {
        Value::object(vec![
            ("matrix", Value::Str(self.matrix.clone())),
            ("engine", Value::Str(self.engine.clone())),
            ("kernel", Value::Str(self.kernel.clone())),
            ("cycles", Value::from(self.cycles)),
            ("useful", Value::from(self.useful)),
            ("t1_tasks", Value::from(self.t1_tasks)),
            ("mac_utilisation", Value::from(self.mac_utilisation)),
            ("wall_ms", Value::from(self.wall_ms)),
            ("signature", Value::Str(self.signature.clone())),
        ])
    }

    fn from_json(v: &Value) -> Result<BenchEntry, String> {
        let str_field = |name: &str| -> Result<String, String> {
            v.get(name)
                .and_then(Value::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("entry is missing string field `{name}`"))
        };
        let u64_field = |name: &str| -> Result<u64, String> {
            v.get(name)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("entry is missing integer field `{name}`"))
        };
        let f64_field = |name: &str| -> Result<f64, String> {
            v.get(name)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("entry is missing number field `{name}`"))
        };
        Ok(BenchEntry {
            matrix: str_field("matrix")?,
            engine: str_field("engine")?,
            kernel: str_field("kernel")?,
            cycles: u64_field("cycles")?,
            useful: u64_field("useful")?,
            t1_tasks: u64_field("t1_tasks")?,
            mac_utilisation: f64_field("mac_utilisation")?,
            wall_ms: f64_field("wall_ms")?,
            signature: str_field("signature")?,
        })
    }
}

/// A full perf-regression document: label, per-run entries and the
/// aggregated metrics-registry export.
#[derive(Debug, Clone)]
pub struct BenchDoc {
    /// Run label (becomes the `BENCH_<label>.json` filename).
    pub label: String,
    /// One entry per (matrix, engine, kernel).
    pub entries: Vec<BenchEntry>,
    /// The [`MetricsRegistry`] export of the collection run.
    pub metrics: Value,
}

impl BenchDoc {
    /// Serialises the document (schema [`SCHEMA`]).
    pub fn to_json(&self) -> Value {
        Value::object(vec![
            ("schema", Value::from(SCHEMA)),
            ("label", Value::Str(self.label.clone())),
            (
                "entries",
                Value::Array(self.entries.iter().map(BenchEntry::to_json).collect()),
            ),
            ("metrics", self.metrics.clone()),
        ])
    }

    /// Parses a document previously written by [`BenchDoc::to_json`].
    /// Keys it does not read are ignored, such as the `backend` field
    /// that documents written before the kernels had one implementation
    /// carry.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem: wrong
    /// schema, missing fields, or mistyped entries.
    pub fn from_json(v: &Value) -> Result<BenchDoc, String> {
        let schema = v
            .get("schema")
            .and_then(Value::as_str)
            .ok_or_else(|| "document has no `schema` field".to_owned())?;
        if schema != SCHEMA {
            return Err(format!("schema mismatch: expected `{SCHEMA}`, found `{schema}`"));
        }
        let label = v
            .get("label")
            .and_then(Value::as_str)
            .ok_or_else(|| "document has no `label` field".to_owned())?
            .to_owned();
        let entries = v
            .get("entries")
            .and_then(Value::as_array)
            .ok_or_else(|| "document has no `entries` array".to_owned())?
            .iter()
            .map(BenchEntry::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let metrics = v.get("metrics").cloned().unwrap_or(Value::Null);
        Ok(BenchDoc { label, entries, metrics })
    }

}

impl std::str::FromStr for BenchDoc {
    type Err = String;

    /// Parses a document from its JSON text, reporting the first
    /// syntactic or structural problem.
    fn from_str(text: &str) -> Result<BenchDoc, String> {
        let v = obs::json::parse(text).map_err(|e| e.to_string())?;
        BenchDoc::from_json(&v)
    }
}

/// Runs the representative corpus (eight matrices, headline engines, four
/// kernels) and collects the perf document on the serial driver path.
pub fn collect(label: &str) -> BenchDoc {
    collect_threaded(label, 1)
}

/// [`collect`] over `threads` runtime workers. Simulated cycle counts and
/// counter signatures are bit-identical to the serial collection at any
/// thread count (the regression gate depends on this); only the wall-clock
/// numbers move. The metrics export records the worker count and total
/// collection wall time under `runtime/`.
pub fn collect_threaded(label: &str, threads: usize) -> BenchDoc {
    let em = EnergyModel::default();
    let mut reg = MetricsRegistry::new();
    let mut contexts: Vec<MatrixCtx> = representative_matrices()
        .into_iter()
        .map(|r| MatrixCtx::new(r.name, r.matrix, 5))
        .collect();
    // The stencil corpus section (ROADMAP item 4): lowered structured-grid
    // operators under the 16-aligned tile ordering.
    let stencil = crate::stencil_contexts();
    reg.set_gauge("corpus/stencil_matrices", stencil.len() as f64);
    contexts.extend(stencil);
    reg.set_gauge("corpus/matrices", contexts.len() as f64);
    reg.set_gauge("runtime/threads", threads.max(1) as f64);
    let total_span = WallSpan::start();

    let mut entries = Vec::new();
    for ctx in &contexts {
        for engine in headline_engines(Precision::Fp64) {
            for kernel in KERNELS {
                let span = WallSpan::start();
                let rep =
                    ctx.run_threaded_observed(engine.as_ref(), &em, kernel, threads, &mut reg);
                let wall = span.elapsed();
                reg.record_span(&format!("kernel/{kernel}"), wall);
                reg.inc_counter("driver/t1_tasks", rep.t1_tasks);
                reg.inc_counter("driver/useful_macs", rep.useful);
                reg.inc_counter("driver/sim_cycles", rep.cycles);
                if let Some(avg) = rep.cycles.checked_div(rep.t1_tasks) {
                    reg.observe("t1/avg_cycles_per_task", &T1_CYCLE_BOUNDS, avg);
                }
                entries.push(BenchEntry {
                    matrix: ctx.name.clone(),
                    engine: engine.name().to_owned(),
                    kernel: kernel.to_string(),
                    cycles: rep.cycles,
                    useful: rep.useful,
                    t1_tasks: rep.t1_tasks,
                    mac_utilisation: rep.mean_utilisation(),
                    wall_ms: wall.as_secs_f64() * 1e3,
                    signature: rep.counter_signature(),
                });
            }
        }
    }
    reg.set_gauge("runtime/total_wall_ms", total_span.elapsed().as_secs_f64() * 1e3);
    BenchDoc {
        label: label.to_owned(),
        entries,
        metrics: reg.to_json(),
    }
}

/// One flagged cycle regression from [`compare`].
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// The entry's comparison key (`matrix / engine / kernel`).
    pub key: String,
    /// Cycles in the previous document.
    pub prev_cycles: u64,
    /// Cycles in the new document.
    pub new_cycles: u64,
    /// Relative slowdown in percent (positive = slower).
    pub pct: f64,
}

/// The outcome of diffing two well-formed documents: the flagged
/// regressions plus how many keys failed to pair up on each side.
///
/// Unmatched keys are not regressions (corpus membership changes are
/// legitimate), but they are no longer silent either — `--compare`
/// output reports both counts so a half-empty baseline can't masquerade
/// as a clean run.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Entries whose cycle count grew past the threshold, in `new` order.
    pub regressions: Vec<Regression>,
    /// Keys present in the previous document but absent from the new one.
    pub only_in_prev: usize,
    /// Keys present in the new document but absent from the previous one.
    pub only_in_new: usize,
}

/// Indexes a document's entries by comparison key, failing on the first
/// duplicate: two entries with the same `(matrix, engine, kernel)` make
/// the diff ambiguous (which one is *the* baseline?), so a malformed
/// document is an error, not a silent first-match-wins.
fn index_entries(doc: &BenchDoc) -> Result<std::collections::BTreeMap<String, &BenchEntry>, String> {
    let mut map = std::collections::BTreeMap::new();
    for entry in &doc.entries {
        if map.insert(entry.key(), entry).is_some() {
            return Err(format!(
                "document `{}` has duplicate entry key `{}`",
                doc.label,
                entry.key()
            ));
        }
    }
    Ok(map)
}

/// Diffs `new` against `prev`, returning every entry whose simulated cycle
/// count grew by more than `threshold_pct` percent plus the unmatched-key
/// counts. Wall-clock and energy numbers are never gated on.
///
/// # Errors
///
/// Returns a description of the problem if either document carries
/// duplicate `(matrix, engine, kernel)` keys — a duplicate makes the
/// pairing ambiguous, so it fails loudly instead of matching whichever
/// entry happens to come first.
pub fn compare(prev: &BenchDoc, new: &BenchDoc, threshold_pct: f64) -> Result<Comparison, String> {
    let prev_map = index_entries(prev)?;
    let new_map = index_entries(new)?;
    let mut regressions = Vec::new();
    let mut only_in_new = 0;
    for entry in &new.entries {
        let key = entry.key();
        let Some(old) = prev_map.get(&key) else {
            only_in_new += 1;
            continue;
        };
        if old.cycles == 0 {
            continue;
        }
        let pct = (entry.cycles as f64 / old.cycles as f64 - 1.0) * 100.0;
        if pct > threshold_pct {
            regressions.push(Regression {
                key,
                prev_cycles: old.cycles,
                new_cycles: entry.cycles,
                pct,
            });
        }
    }
    let only_in_prev = prev_map.keys().filter(|k| !new_map.contains_key(*k)).count();
    Ok(Comparison { regressions, only_in_prev, only_in_new })
}

#[cfg(test)]
mod tests {
    use std::str::FromStr;

    use super::*;

    fn entry(matrix: &str, cycles: u64) -> BenchEntry {
        BenchEntry {
            matrix: matrix.to_owned(),
            engine: "Uni-STC".to_owned(),
            kernel: "SpMV".to_owned(),
            cycles,
            useful: 10,
            t1_tasks: 2,
            mac_utilisation: 0.5,
            wall_ms: 0.1,
            signature: format!("sig {cycles}"),
        }
    }

    fn doc(label: &str, entries: Vec<BenchEntry>) -> BenchDoc {
        BenchDoc {
            label: label.to_owned(),
            entries,
            metrics: Value::Null,
        }
    }

    #[test]
    fn document_round_trips_through_json() {
        let d = doc("t", vec![entry("m1", 100), entry("m2", 250)]);
        let text = d.to_json().to_json_pretty();
        let back = BenchDoc::from_str(&text).expect("round-trip parses");
        assert_eq!(back.label, "t");
        assert_eq!(back.entries, d.entries);
    }

    #[test]
    fn committed_documents_parse_with_or_without_a_backend_key() {
        // Every BENCH document at the repository root: those written by
        // `perf_regression`, `service_bench` and `stencil_bench`, older
        // ones without a `backend` key and newer ones with it.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let (mut with_key, mut without_key) = (0, 0);
        for dirent in std::fs::read_dir(&root).expect("read repository root") {
            let path = dirent.expect("directory entry").path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default();
            let Some(label) = name.strip_prefix("BENCH_").and_then(|n| n.strip_suffix(".json"))
            else {
                continue;
            };
            let text = std::fs::read_to_string(&path).expect("read BENCH document");
            let d = BenchDoc::from_str(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(d.label, label, "{name}");
            assert!(!d.entries.is_empty(), "{name}");
            if text.contains("\"backend\"") {
                with_key += 1;
            } else {
                without_key += 1;
            }
        }
        assert!(with_key > 0 && without_key > 0, "{with_key} with, {without_key} without");
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let d = doc("t", vec![]);
        let text = d.to_json().to_json().replace(SCHEMA, "other-schema");
        let err = BenchDoc::from_str(&text).expect_err("wrong schema must fail");
        assert!(err.contains("schema mismatch"), "{err}");
    }

    #[test]
    fn compare_flags_ten_percent_slowdown() {
        let prev = doc("prev", vec![entry("m1", 100), entry("m2", 200)]);
        let mut slow = prev.clone();
        slow.entries[1].cycles = 220; // +10 %
        let cmp = compare(&prev, &slow, 5.0).expect("well-formed documents");
        assert_eq!(cmp.regressions.len(), 1);
        assert_eq!(cmp.regressions[0].prev_cycles, 200);
        assert_eq!(cmp.regressions[0].new_cycles, 220);
        assert!((cmp.regressions[0].pct - 10.0).abs() < 1e-9);
        assert_eq!((cmp.only_in_prev, cmp.only_in_new), (0, 0));
        // A looser threshold lets it pass.
        assert!(compare(&prev, &slow, 15.0).expect("well-formed").regressions.is_empty());
        // Identical documents never regress.
        assert!(compare(&prev, &prev, 5.0).expect("well-formed").regressions.is_empty());
    }

    #[test]
    fn compare_counts_membership_changes_and_ignores_speedups() {
        let prev = doc("prev", vec![entry("m1", 100), entry("m-gone", 70)]);
        let new = doc("new", vec![entry("m1", 50), entry("m-new", 9999)]);
        let cmp = compare(&prev, &new, 5.0).expect("well-formed documents");
        assert!(cmp.regressions.is_empty(), "speedups and new entries never regress");
        assert_eq!(cmp.only_in_prev, 1, "m-gone vanished from the new document");
        assert_eq!(cmp.only_in_new, 1, "m-new has no baseline");
    }

    #[test]
    fn compare_rejects_duplicate_keys_in_either_document() {
        let clean = doc("clean", vec![entry("m1", 100)]);
        // Same (matrix, engine, kernel) twice with different cycles: the
        // old linear scan silently matched whichever came first.
        let dupes = doc("dupes", vec![entry("m1", 100), entry("m1", 900)]);
        let err = compare(&dupes, &clean, 5.0).expect_err("duplicate baseline must fail");
        assert!(err.contains("dupes") && err.contains("m1"), "{err}");
        let err = compare(&clean, &dupes, 5.0).expect_err("duplicate new doc must fail");
        assert!(err.contains("dupes") && err.contains("m1"), "{err}");
    }

    #[test]
    fn threaded_collection_matches_serial_signatures() {
        let serial = collect("serial");
        let threaded = collect_threaded("threaded", 2);
        assert_eq!(serial.entries.len(), threaded.entries.len());
        for (a, b) in serial.entries.iter().zip(&threaded.entries) {
            assert_eq!(a.key(), b.key());
            assert_eq!(a.signature, b.signature, "{}", a.key());
            assert_eq!(a.cycles, b.cycles, "{}", a.key());
        }
        // The pool's health surfaces in the threaded document's metrics
        // export (and only there: the serial path never touches the pool).
        let gauges = threaded.metrics.get("gauges").expect("gauges in metrics export");
        assert_eq!(gauges.get("runtime/pool_workers").and_then(Value::as_f64), Some(2.0));
        let counters = threaded.metrics.get("counters").expect("counters in metrics export");
        assert!(counters.get("runtime/crashes").is_some(), "pool counters exported");
        let serial_gauges = serial.metrics.get("gauges").expect("gauges");
        assert!(serial_gauges.get("runtime/pool_workers").is_none());
    }

    #[test]
    fn collect_is_cycle_deterministic() {
        let a = collect("a");
        let b = collect("b");
        assert!(!a.entries.is_empty());
        assert_eq!(a.entries.len(), b.entries.len());
        for (ea, eb) in a.entries.iter().zip(&b.entries) {
            assert_eq!(ea.key(), eb.key());
            assert_eq!(ea.cycles, eb.cycles, "{}", ea.key());
            assert_eq!(ea.signature, eb.signature, "{}", ea.key());
        }
        // (8 representative + 3 stencil) matrices x 3 engines x 4 kernels.
        assert_eq!(a.entries.len(), (8 + 3) * 3 * 4);
        assert!(
            a.entries.iter().any(|e| e.matrix.starts_with("stencil-")),
            "stencil corpus section present"
        );
    }
}
