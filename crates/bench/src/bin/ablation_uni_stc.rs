//! Ablation study of Uni-STC's design choices (the Section IV decisions
//! DESIGN.md calls out):
//!
//! 1. **Task ordering** (Fig. 10's conclusion): outer-product vs
//!    dot-product vs row-row T3 ordering, effect on cycles via conflicts.
//! 2. **Fill order** (Section IV-A.2): Z-shaped vs N-shaped dot-product
//!    queue fill, effect on operand broadcast ranges.
//! 3. **Dynamic DPG power gating** (Section IV-C): gated vs always-on
//!    datapath energy.
//! 4. **DPG count** (Fig. 22's knob): 4 / 8 / 16.
//!
//! Run on the eight representative matrices, SpGEMM (C = A^2), FP64.

use bench::{print_table, MatrixCtx};
use simkit::driver::Kernel;
use simkit::metrics::geomean;
use simkit::EnergyModel;
use uni_stc::dpg::{broadcast_gaps, expand_t3, FillOrder};
use uni_stc::{TaskOrdering, UniStc, UniStcConfig};
use workloads::representative::representative_matrices;

fn main() {
    let em = EnergyModel::default();
    let reps: Vec<MatrixCtx> = representative_matrices()
        .into_iter()
        .map(|r| MatrixCtx::new(r.name, r.matrix, 5))
        .collect();
    let run = |cfg: UniStcConfig, ctx: &MatrixCtx| ctx.run(&UniStc::new(cfg), &em, Kernel::SpGEMM);

    // --- 1. Task ordering ---
    println!("ablation 1: T3 task ordering (cycles relative to outer-product)\n");
    let base: Vec<u64> =
        reps.iter().map(|ctx| run(UniStcConfig::default(), ctx).cycles).collect();
    let mut rows = Vec::new();
    for ordering in [TaskOrdering::OuterProduct, TaskOrdering::DotProduct, TaskOrdering::RowRow]
    {
        let cfg = UniStcConfig { ordering, ..Default::default() };
        let rel: Vec<f64> = reps
            .iter()
            .zip(&base)
            .map(|(ctx, &b)| run(cfg, ctx).cycles as f64 / b as f64)
            .collect();
        rows.push(vec![
            ordering.to_string(),
            format!("{:.3}x", geomean(rel.iter().copied()).unwrap_or(0.0)),
            format!("{:.3}x", rel.iter().copied().fold(f64::MIN, f64::max)),
        ]);
    }
    print_table(&["ordering", "geomean cycles", "worst case"], &rows);
    println!("(paper: outer-product ordering minimises write conflicts, Fig. 10)\n");

    // --- 2. Fill order: broadcast ranges ---
    println!("ablation 2: dot-product queue fill order (operand broadcast gaps)\n");
    let mut rows = Vec::new();
    for fill in [FillOrder::ZShape, FillOrder::NShape] {
        // Measure max queue-distance between codes sharing an operand over
        // the representative blocks' tiles.
        let mut max_a = 0usize;
        let mut max_b = 0usize;
        for ctx in &reps {
            for blk in ctx.bbc.blocks().take(64) {
                for t in simkit::Block16::from_bbc(&blk).tiles() {
                    if t == 0 {
                        continue;
                    }
                    let codes = expand_t3(t, t, fill);
                    let (a, b) = broadcast_gaps(&codes);
                    max_a = max_a.max(a);
                    max_b = max_b.max(b);
                }
            }
        }
        rows.push(vec![
            format!("{fill:?}"),
            max_a.to_string(),
            max_b.to_string(),
        ]);
    }
    print_table(&["fill order", "max A gap (tasks)", "max B gap (tasks)"], &rows);
    println!("(paper: Z-shaped fill bounds A broadcast to 5 multipliers, B to 9)\n");

    // --- 3. Power gating ---
    println!("ablation 3: dynamic DPG power gating (energy, SpGEMM)\n");
    let mut rows = Vec::new();
    for (label, gating) in [("gated (default)", true), ("always-on", false)] {
        let cfg = UniStcConfig { power_gating: gating, ..Default::default() };
        let energies: Vec<f64> = reps.iter().map(|ctx| run(cfg, ctx).energy.total()).collect();
        rows.push(vec![
            label.to_owned(),
            format!("{:.3e}", energies.iter().sum::<f64>()),
        ]);
    }
    let gated: f64 = reps
        .iter()
        .map(|ctx| run(UniStcConfig::default(), ctx).energy.total())
        .sum();
    let hot_cfg = UniStcConfig { power_gating: false, ..Default::default() };
    let hot: f64 = reps.iter().map(|ctx| run(hot_cfg, ctx).energy.total()).sum();
    print_table(&["configuration", "total energy"], &rows);
    // The paper's "up to 2.83x" bounds the *gated datapath component*
    // alone; report both views.
    let datapath: Vec<f64> = reps
        .iter()
        .map(|ctx| {
            let r = run(UniStcConfig::default(), ctx);
            uni_stc::power::gating_savings(8, r.cycles, r.events.unit_cycles)
        })
        .collect();
    println!(
        "gating saves {:.2}x total energy; gated-datapath activation savings: geomean {:.2}x, max {:.2}x",
        hot / gated,
        geomean(datapath.iter().copied()).unwrap_or(1.0),
        datapath.iter().copied().fold(f64::MIN, f64::max)
    );
    println!("(paper: up to 2.83x on the gated networks alone)\n");

    // --- 4. DPG count ---
    println!("ablation 4: DPG count (cycles and energy relative to 8 DPGs)\n");
    let base8: Vec<(u64, f64)> = reps
        .iter()
        .map(|ctx| {
            let r = run(UniStcConfig::default(), ctx);
            (r.cycles, r.energy.total())
        })
        .collect();
    let mut rows = Vec::new();
    for n in [4usize, 8, 16] {
        let cfg = UniStcConfig::with_dpgs(n);
        let rel_c: Vec<f64> = reps
            .iter()
            .zip(&base8)
            .map(|(ctx, &(bc, _))| run(cfg, ctx).cycles as f64 / bc as f64)
            .collect();
        let rel_e: Vec<f64> = reps
            .iter()
            .zip(&base8)
            .map(|(ctx, &(_, be))| run(cfg, ctx).energy.total() / be)
            .collect();
        rows.push(vec![
            format!("{n} DPGs"),
            format!("{:.3}x", geomean(rel_c.iter().copied()).unwrap_or(0.0)),
            format!("{:.3}x", geomean(rel_e.iter().copied()).unwrap_or(0.0)),
        ]);
    }
    print_table(&["config", "cycles vs 8", "energy vs 8"], &rows);
}
