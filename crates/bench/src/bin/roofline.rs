//! Roofline and multi-unit scaling study.
//!
//! Extends the paper's compute-side evaluation with the memory axis its
//! Accel-Sim host provided: per kernel and engine, is the run compute- or
//! DRAM-bound at A100-class bandwidth? And how does Uni-STC scale across
//! the 4-units-per-SM deployment of Table IX?

use bench::{headline_engines, print_table, MatrixCtx, KERNELS};
use simkit::driver::Kernel;
use simkit::memory::{CompulsoryTraffic, MemoryModel};
use sparse::StorageSize;
use simkit::{EnergyModel, Precision};
use uni_stc::multi::parallel_kernel;
use uni_stc::UniStc;
use workloads::gen;

fn main() {
    let em = EnergyModel::default();
    let mem = MemoryModel::default();
    // L2-resident operands: ~16x the per-unit HBM share.
    let l2 = MemoryModel { bytes_per_cycle: 40.0 };
    let matrices = vec![
        ("poisson2d-48", gen::poisson_2d(48)),
        ("banded-1024", gen::banded(1024, 16, 0.5, 7)),
        ("rmat-1024", gen::rmat(1024, 8192, 9)),
    ];

    println!(
        "roofline at {:.1} DRAM bytes/cycle/unit (A100-class HBM share)\n",
        mem.bytes_per_cycle
    );
    for (name, m) in &matrices {
        println!("--- {name} ---");
        let ctx = MatrixCtx::new(*name, m.clone(), 3);
        // Compulsory DRAM traffic per kernel: matrix once, operands and
        // results once (perfect on-chip reuse).
        let matrix_bytes = ctx.bbc.total_bytes() as f64;
        let n = m.nrows() as f64;
        let traffic = |kernel: Kernel| -> CompulsoryTraffic {
            match kernel {
                Kernel::SpMV => CompulsoryTraffic {
                    matrix_bytes,
                    operand_bytes: n * 8.0,
                    result_bytes: n * 8.0,
                },
                Kernel::SpMSpV => CompulsoryTraffic {
                    matrix_bytes,
                    operand_bytes: ctx.x_sparse.nnz() as f64 * 12.0,
                    result_bytes: n * 8.0,
                },
                Kernel::SpMM => CompulsoryTraffic {
                    matrix_bytes,
                    operand_bytes: n * 64.0 * 8.0,
                    result_bytes: n * 64.0 * 8.0,
                },
                Kernel::SpGEMM => {
                    let c = sparse::ops::spgemm_structure(m, m).expect("square");
                    CompulsoryTraffic {
                        matrix_bytes: 2.0 * matrix_bytes,
                        operand_bytes: 0.0,
                        result_bytes: c.nnz() as f64 * 12.0,
                    }
                }
            }
        };
        let mut rows = Vec::new();
        for kernel in KERNELS {
            for e in headline_engines(Precision::Fp64) {
                let r = ctx.run(e.as_ref(), &em, kernel);
                let rl = mem.roofline(&r, traffic(kernel));
                let rl2 = l2.roofline(&r, traffic(kernel));
                rows.push(vec![
                    kernel.to_string(),
                    e.name().to_owned(),
                    rl.compute_cycles.to_string(),
                    rl.memory_cycles.to_string(),
                    format!("{:?}", rl.bound),
                    format!("{:?}", rl2.bound),
                    format!("{:.3}", rl.intensity),
                ]);
            }
        }
        print_table(
            &["kernel", "engine", "compute cyc", "memory cyc", "bound@HBM", "bound@L2", "MACs/byte"],
            &rows,
        );
        println!();
    }
    println!("finding: at a single unit's HBM share every sparse kernel is DRAM-bound —");
    println!("the textbook result for sparse linear algebra. With operands L2-resident");
    println!("(the paper's per-T1 invocation methodology), the slower engines become");
    println!("compute-bound first: exactly the regime where the paper's STC comparison");
    println!("is decisive.\n");

    // Multi-unit scaling.
    println!("multi-unit SpMV scaling (Uni-STC, warp-balanced, banded-1024):");
    let a = sparse::BbcMatrix::from_csr(&matrices[1].1);
    let uni = UniStc::default();
    let mut rows = Vec::new();
    for n_units in [1usize, 2, 4, 8, 16, 32] {
        let rep = parallel_kernel(&uni, &a, Kernel::SpMV, 1, n_units)
            .expect("one-column SpMV cycles stay far below 2^64");
        rows.push(vec![
            n_units.to_string(),
            rep.makespan.to_string(),
            format!("{:.2}x", rep.speedup()),
            format!("{:.1}%", rep.efficiency() * 100.0),
        ]);
    }
    print_table(&["units", "makespan", "speedup", "efficiency"], &rows);
}
