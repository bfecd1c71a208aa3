//! Records a traced Uni-STC SpMV run and exports it as a Chrome trace.
//!
//! ```text
//! cargo run --release -p bench --example trace_spmv -- trace.json
//! ```
//!
//! Open the output in Perfetto (<https://ui.perfetto.dev>) or
//! `chrome://tracing`: T1 tasks appear as slices, DPG power gating, SDPU
//! lane occupancy and queue depths as counter tracks. One trace
//! microsecond equals one simulated cycle. Without an output path, the
//! example prints an event-count summary instead.

use simkit::driver::{run_traced, Invocation};
use simkit::{EnergyModel, Precision};
use uni_stc::{UniStc, UniStcConfig};
use workloads::representative::representative_matrices;

fn main() {
    let rep = representative_matrices()
        .into_iter()
        .next()
        .expect("representative corpus is non-empty");
    let bbc = sparse::BbcMatrix::from_csr(&rep.matrix);
    let engine = UniStc::new(UniStcConfig::with_precision(Precision::Fp64));

    // A bounded ring keeps long traces from growing without limit; 1 << 20
    // events is plenty for the representative matrices.
    let mut ring = obs::RingSink::new(1 << 20);
    let em = EnergyModel::default();
    let report = run_traced(&engine, &em, Invocation::SpMV(&bbc), &mut ring);

    println!(
        "{}: SpMV on {} — {} cycles, {} T1 tasks, utilisation {:.3}",
        engine_name(&engine),
        rep.name,
        report.cycles,
        report.t1_tasks,
        report.mean_utilisation()
    );
    println!(
        "captured {} trace events ({} overwritten)",
        ring.len(),
        ring.overwritten()
    );

    let events = ring.events();
    for kind in ["task_issue", "task_retire", "tms_generate", "dpg_expand", "dpg_power_gate", "sdpu_pack", "queue_depth", "stall"] {
        let n = events.iter().filter(|e| e.kind() == kind).count();
        println!("  {kind:<15} {n}");
    }

    if let Some(path) = std::env::args().nth(1) {
        std::fs::write(&path, obs::chrome::export(&events)).expect("write trace file");
        println!("wrote Chrome trace to {path} — open in https://ui.perfetto.dev");
    }
}

fn engine_name(e: &dyn simkit::TileEngine) -> String {
    e.name().to_owned()
}
