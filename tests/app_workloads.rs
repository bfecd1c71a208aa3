//! Application-level integration: BFS, GCN, CG, AMG and DNN workloads run
//! end to end, their kernel mixes replay through the simulated engines,
//! and the cross-application claims of the paper's Table II hold.

use baselines::DsStc;
use simkit::driver::{run_spgemm, run_spmm, run_spmspv, Kernel};
use simkit::memory::{CompulsoryTraffic, MemoryModel};
use simkit::{EnergyModel, Precision, TileEngine};
use sparse::{BbcMatrix, StorageSize};
use uni_stc::multi::parallel_kernel;
use uni_stc::UniStc;
use workloads::{bfs, cg, dlmc, dnn, gen, gnn};

#[test]
fn bfs_replay_uni_beats_ds() {
    let adj = gen::rmat(512, 4096, 11);
    let (res, steps) = bfs::bfs(&adj, 0);
    assert!(res.reached > 10, "degenerate traversal");
    let bbc = BbcMatrix::from_csr(&adj.transpose());
    let em = EnergyModel::default();
    let uni = bfs::replay_cycles(&UniStc::default(), &em, &bbc, &steps);
    let ds = bfs::replay_cycles(&DsStc::new(Precision::Fp64), &em, &bbc, &steps);
    assert!(uni < ds, "Uni {uni} vs DS {ds}");
}

#[test]
fn gcn_kernel_mix_matches_table_ii() {
    // GNN row of Table II: SpMM + SpGEMM, no MV kernels.
    let adj = gen::rmat(128, 800, 3);
    let model = gnn::GcnModel::build(&adj, 3, 4, 16);
    assert!(!model.spmm_trace().is_empty());
    assert!(!model.spgemm_pairs().is_empty());
    let em = EnergyModel::default();
    let uni = UniStc::default();
    let ds = DsStc::new(Precision::Fp64);
    let cycles = |e: &dyn TileEngine| -> u64 {
        let mm: u64 = model
            .spmm_trace()
            .iter()
            .map(|(m, f)| run_spmm(e, &em, &BbcMatrix::from_csr(m), *f).cycles)
            .sum();
        let gg: u64 = model
            .spgemm_pairs()
            .iter()
            .map(|(a, b)| {
                run_spgemm(e, &em, &BbcMatrix::from_csr(a), &BbcMatrix::from_csr(b)).cycles
            })
            .sum();
        mm + gg
    };
    assert!(cycles(&uni) < cycles(&ds));
}

#[test]
fn cg_and_amg_solve_the_same_system() {
    let a = gen::poisson_2d(16);
    let b: Vec<f64> = (0..256).map(|i| ((i % 5) as f64) - 2.0).collect();
    let (x_cg, r_cg) = cg::solve(&a, &b, 1e-10, 2000);
    let h = workloads::amg::build_hierarchy(&a, workloads::amg::AmgOptions::default());
    let (x_amg, r_amg) = h.solve(&b, 1e-10, 200);
    assert!(r_cg.converged && r_amg.converged);
    let diff: f64 = x_cg
        .iter()
        .zip(&x_amg)
        .map(|(p, q)| (p - q) * (p - q))
        .sum::<f64>()
        .sqrt();
    let norm: f64 = x_cg.iter().map(|v| v * v).sum::<f64>().sqrt();
    assert!(diff / norm < 1e-6, "solvers disagree by {}", diff / norm);
}

#[test]
fn dnn_inference_prefers_uni_stc_in_both_regimes() {
    let em = EnergyModel::default();
    let uni = UniStc::new(uni_stc::UniStcConfig::with_precision(Precision::Fp32));
    let ds = DsStc::new(Precision::Fp32);
    for mode in [dnn::ActivationMode::Dense, dnn::ActivationMode::Sparse(0.5)] {
        let ru = dnn::run_inference(&uni, &em, dlmc::DnnModel::Transformer, 0.7, mode, 3);
        let rd = dnn::run_inference(&ds, &em, dlmc::DnnModel::Transformer, 0.7, mode, 3);
        assert!(ru.speedup_over(&rd) > 1.0, "mode {mode:?}");
        assert!(ru.energy_reduction_over(&rd) > 1.0, "mode {mode:?}");
    }
}

#[test]
fn spmspv_frontier_sparsity_lowers_work() {
    // Later BFS frontiers are denser: their SpMSpV costs more cycles.
    let adj = gen::rmat(512, 6000, 4);
    let (_, steps) = bfs::bfs(&adj, 0);
    assert!(steps.len() >= 3);
    let bbc = BbcMatrix::from_csr(&adj.transpose());
    let em = EnergyModel::default();
    let uni = UniStc::default();
    let first = run_spmspv(&uni, &em, &bbc, &steps[0].frontier).cycles;
    let densest = steps
        .iter()
        .max_by(|a, b| a.density.partial_cmp(&b.density).expect("finite"))
        .expect("nonempty");
    let peak = run_spmspv(&uni, &em, &bbc, &densest.frontier).cycles;
    assert!(peak > first, "peak {peak} vs first {first}");
}

#[test]
fn multi_unit_replay_consistent_with_roofline() {
    let a = gen::banded(512, 8, 0.6, 5);
    let bbc = BbcMatrix::from_csr(&a);
    let em = EnergyModel::default();
    let uni = UniStc::default();
    let rep = parallel_kernel(&uni, &bbc, Kernel::SpMV, 1, 4);
    assert!(rep.speedup() > 2.0);
    // Roofline on the serial run: SpMV streams the matrix once.
    let serial = simkit::driver::run_spmv(&uni, &em, &bbc);
    let traffic = CompulsoryTraffic {
        matrix_bytes: bbc.total_bytes() as f64,
        operand_bytes: a.ncols() as f64 * 8.0,
        result_bytes: a.nrows() as f64 * 8.0,
    };
    let rl = MemoryModel::default().roofline(&serial, traffic);
    // SpMV at single-unit HBM share is memory-bound, as on real GPUs.
    assert_eq!(rl.bound, simkit::memory::Bound::Memory);
}

#[test]
fn mtx_roundtrip_feeds_the_simulator() {
    // End-to-end: generate -> write .mtx -> read -> BBC -> simulate.
    let a = gen::rmat(256, 1500, 9);
    let mut buf = Vec::new();
    sparse::mtx::write_matrix_market(&a, &mut buf).expect("in-memory write");
    let back = sparse::mtx::read_matrix_market(buf.as_slice()).expect("parse own output");
    assert_eq!(back, a);
    let em = EnergyModel::default();
    let r = simkit::driver::run_spmv(&UniStc::default(), &em, &BbcMatrix::from_csr(&back));
    assert!(r.cycles > 0);
}
