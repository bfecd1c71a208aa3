//! Fig. 17 — speedup, energy reduction and energy efficiency of RM-STC
//! and Uni-STC (normalised to DS-STC) on the eight representative
//! matrices across the four sparse kernels (64 MAC@FP64), plus ResNet-50
//! and Transformer inference layers (128 MAC@FP32).
//!
//! Paper reference points (geomean over the eight matrices): Uni-STC over
//! DS-STC reaches 5.21x (SpMV) and 5.25x (SpMSpV) speedup; over RM-STC
//! 2.74x / 5.50x; energy-efficiency gains over RM-STC of 1.74x (SpMV-ish
//! tier) up to 2.21x (SpGEMM).
//!
//! Pass `--json` for the machine-readable rendering and `--threads N` to
//! shard the kernel runs over the resilient parallel runtime (reports are
//! bit-identical at any thread count).

use bench::output::{Report, Section};
use bench::{headline_engines, threads_arg, MatrixCtx, KERNELS};
use simkit::driver::{self, Kernel};
use simkit::metrics::{geomean, Comparison};
use simkit::{EnergyModel, Precision};
use workloads::dlmc::{layers, DnnModel};
use workloads::representative::representative_matrices;

/// Rectangular random matrix at a target density (deterministic).
fn rectangular_random(rows: usize, cols: usize, density: f64, seed: u64) -> sparse::CsrMatrix {
    let mut coo = sparse::CooMatrix::new(rows, cols);
    for r in 0..rows {
        for c in 0..cols {
            let h = ((r * cols + c) as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(seed.wrapping_mul(0xD134_2543_DE82_EF95));
            let h = (h ^ (h >> 31)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            if ((h >> 32) as f64) < density * u32::MAX as f64 {
                coo.push(r, c, 0.5);
            }
        }
    }
    sparse::CsrMatrix::try_from(coo).expect("coordinates in range")
}

fn comparison_cell(c: &Comparison) -> String {
    format!("P={:.2} E={:.2} ExP={:.2}", c.speedup, c.energy_reduction, c.efficiency())
}

fn geomean_note(name: &str, cs: &[Comparison]) -> String {
    format!(
        "geomean {name}: P={:.2} E={:.2} ExP={:.2}",
        geomean(cs.iter().map(|c| c.speedup)).unwrap_or(0.0),
        geomean(cs.iter().map(|c| c.energy_reduction)).unwrap_or(0.0),
        geomean(cs.iter().map(|c| c.efficiency())).unwrap_or(0.0),
    )
}

fn main() {
    let em = EnergyModel::default();
    let threads = threads_arg();
    let mut report = Report::new(
        "Fig. 17: representative matrices (64 MAC@FP64) and DNN inference (128 MAC@FP32), normalised to DS-STC",
    );

    let reps: Vec<MatrixCtx> = representative_matrices()
        .into_iter()
        .map(|r| MatrixCtx::new(r.name, r.matrix, 5))
        .collect();

    for kernel in KERNELS {
        let mut section =
            Section::new(kernel.to_string(), &["matrix", "RM-STC vs DS", "Uni-STC vs DS"]);
        let mut per_engine: Vec<(String, Vec<Comparison>)> = Vec::new();
        for ctx in &reps {
            let engines = headline_engines(Precision::Fp64);
            let baseline = ctx.run_threaded(engines[0].as_ref(), &em, kernel, threads);
            let mut row = vec![ctx.name.clone()];
            for e in &engines[1..] {
                let r = ctx.run_threaded(e.as_ref(), &em, kernel, threads);
                let c = Comparison::of(&r, &baseline);
                row.push(comparison_cell(&c));
                match per_engine.iter_mut().find(|(n, _)| n == e.name()) {
                    Some((_, v)) => v.push(c),
                    None => per_engine.push((e.name().to_owned(), vec![c])),
                }
            }
            section.row(row);
        }
        for (name, cs) in &per_engine {
            section.note(geomean_note(name, cs));
        }
        report.push(section);
    }

    for model in [DnnModel::ResNet50, DnnModel::Transformer] {
        let mut section = Section::new(
            format!("DNN inference: {model}"),
            &["layer", "RM-STC vs DS", "Uni-STC vs DS"],
        );
        let mut uni_cs = Vec::new();
        // ResNet-50 activations are "usually sparse after preprocessing";
        // Transformer activations are dense-ish (Section VI-C.2).
        let act_sparsity = match model {
            DnnModel::ResNet50 => 0.5,
            DnnModel::Transformer => 0.05,
        };
        for layer in layers(model) {
            for (label, sparsity, kernel) in [
                ("SpMM", 0.70, Kernel::SpMM),
                ("SpGEMM", 0.98, Kernel::SpGEMM),
            ] {
                let w = layer.weight(sparsity, 11);
                let w_bbc = sparse::BbcMatrix::from_csr(&w);
                // Rectangular activation matrix (cols x batch) at the
                // model's activation sparsity.
                let act = rectangular_random(
                    layer.cols,
                    layer.batch_cols,
                    1.0 - act_sparsity,
                    layer.index as u64,
                );
                let act_bbc = sparse::BbcMatrix::from_csr(&act);
                let engines = headline_engines(Precision::Fp32);
                // Weight x dense activation block (dense inference), or
                // conv treated as SpGEMM: sparse weight x sparse
                // activation matrix.
                let stream = match kernel {
                    Kernel::SpMM => driver::spmm_stream(&w_bbc, layer.batch_cols)
                        .expect("layer widths keep every counter far below 2^64"),
                    _ => driver::spgemm_stream(&w_bbc, &act_bbc),
                };
                let cfg = runtime::RuntimeConfig::with_threads(threads);
                let plan = runtime::ShardPlan::contiguous(stream.len(), threads);
                let run = |e: &(dyn simkit::TileEngine + Sync)| {
                    if threads <= 1 {
                        driver::run_stream(e, &em, kernel, &stream)
                            .expect("layer widths keep every counter far below 2^64")
                    } else {
                        runtime::run_stream_planned(&cfg, &plan, e, &em, kernel, &stream)
                            .expect("production engines never fail a shard")
                            .report
                    }
                };
                let baseline = run(engines[0].as_ref());
                let mut row = vec![format!("{} {label} s={sparsity:.2}", layer.label())];
                for e in &engines[1..] {
                    let r = run(e.as_ref());
                    let c = Comparison::of(&r, &baseline);
                    row.push(comparison_cell(&c));
                    if e.name() == "Uni-STC" {
                        uni_cs.push(c);
                    }
                }
                section.row(row);
            }
        }
        section.note(geomean_note("Uni-STC", &uni_cs));
        report.push(section);
    }

    report.emit();
}
