//! Shared harness utilities for the per-figure experiment binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md for the experiment index). This library provides the
//! common plumbing: engine rosters, prepared matrix contexts, kernel
//! dispatch and plain-text table printing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod output;
pub mod perf;

use baselines::{DsStc, Gamma, NvDtc, RmStc, Sigma, Trapezoid};
use simkit::driver::{self, Invocation, Kernel, KernelReport};
use simkit::{EnergyModel, Precision, TileEngine};
use sparse::{BbcMatrix, CsrMatrix, SparseVector};
use uni_stc::{UniStc, UniStcConfig};

/// Sparsity of the SpMSpV input vector (Section VI-A: 50 %).
pub const SPMSPV_X_SPARSITY: f64 = 0.5;

/// Number of B columns for SpMM (Section VI-A: 64).
pub const SPMM_N_COLS: usize = 64;

/// The three STCs of the paper's headline comparison (Figs. 17, 18, 20).
///
/// Engines carry no interior mutability, so the roster is `Send + Sync`
/// and a single boxed engine can be shared across the parallel runtime's
/// workers.
pub fn headline_engines(precision: Precision) -> Vec<Box<dyn TileEngine + Send + Sync>> {
    vec![
        Box::new(DsStc::new(precision)),
        Box::new(RmStc::new(precision)),
        Box::new(UniStc::new(UniStcConfig::with_precision(precision))),
    ]
}

/// All seven engines (Fig. 16 and the AMG study add GAMMA, SIGMA,
/// Trapezoid and NV-DTC).
pub fn all_engines(precision: Precision) -> Vec<Box<dyn TileEngine + Send + Sync>> {
    vec![
        Box::new(NvDtc::new(precision)),
        Box::new(Gamma::new(precision)),
        Box::new(Sigma::new(precision)),
        Box::new(Trapezoid::new(precision)),
        Box::new(DsStc::new(precision)),
        Box::new(RmStc::new(precision)),
        Box::new(UniStc::new(UniStcConfig::with_precision(precision))),
    ]
}

/// A matrix prepared for all four kernels: CSR + BBC + a 50 %-sparse x.
#[derive(Debug, Clone)]
pub struct MatrixCtx {
    /// Display name.
    pub name: String,
    /// The matrix in CSR form.
    pub csr: CsrMatrix,
    /// The matrix in BBC form (the simulator's operand format).
    pub bbc: BbcMatrix,
    /// A 50 %-sparse input vector for SpMSpV.
    pub x_sparse: SparseVector,
}

impl MatrixCtx {
    /// Prepares a matrix context (deterministic x from `seed`).
    pub fn new(name: impl Into<String>, csr: CsrMatrix, seed: u64) -> Self {
        let bbc = BbcMatrix::from_csr(&csr);
        let x_sparse = sparse_vector(csr.ncols(), SPMSPV_X_SPARSITY, seed);
        MatrixCtx { name: name.into(), csr, bbc, x_sparse }
    }

    /// The invocation of `kernel` on this matrix, the one operand choice
    /// [`MatrixCtx::run`] and [`MatrixCtx::run_sharded`] share: `x` is
    /// the 50 %-sparse vector, `B` has [`SPMM_N_COLS`] dense columns, and
    /// SpGEMM squares the matrix.
    fn invocation(&self, kernel: Kernel) -> Invocation<'_> {
        match kernel {
            Kernel::SpMV => Invocation::SpMV(&self.bbc),
            Kernel::SpMSpV => Invocation::SpMSpV(&self.bbc, &self.x_sparse),
            Kernel::SpMM => Invocation::SpMM(&self.bbc, SPMM_N_COLS),
            Kernel::SpGEMM => Invocation::SpGEMM(&self.bbc, &self.bbc),
        }
    }

    /// Runs one kernel on one engine through the serial driver.
    pub fn run(&self, engine: &dyn TileEngine, em: &EnergyModel, kernel: Kernel) -> KernelReport {
        self.invocation(kernel)
            .stream()
            .and_then(|stream| driver::run_stream(engine, em, kernel, &stream))
            .expect("a 64-column SpMM keeps every counter far below 2^64")
    }

    /// Runs one kernel through the resilient parallel runtime, sharded
    /// under `cfg` exactly as the service shards a job: a contiguous plan
    /// over the counted stream's distinct entries. The merged report is
    /// bit-identical to [`MatrixCtx::run`].
    ///
    /// # Errors
    ///
    /// Returns [`runtime::ShardedRunError::RetriesExhausted`] if a shard
    /// failed intrinsically past the retry budget (only possible with a
    /// panicking engine).
    pub fn run_sharded(
        &self,
        cfg: &runtime::RuntimeConfig,
        engine: &(dyn TileEngine + Sync),
        em: &EnergyModel,
        kernel: Kernel,
    ) -> Result<runtime::ShardedRun, runtime::ShardedRunError> {
        let stream =
            self.invocation(kernel).stream().map_err(runtime::ShardedRunError::Overflow)?;
        runtime::run_stream_planned(cfg, engine, em, kernel, &stream)
    }

    /// Runs one kernel on `threads` workers — the serial driver at 1
    /// thread (the default path, byte-for-byte the pre-runtime behavior),
    /// the sharded runtime above that. Reports are bit-identical across
    /// all thread counts.
    pub fn run_threaded(
        &self,
        engine: &(dyn TileEngine + Sync),
        em: &EnergyModel,
        kernel: Kernel,
        threads: usize,
    ) -> KernelReport {
        let mut unused = obs::MetricsRegistry::new();
        self.run_threaded_observed(engine, em, kernel, threads, &mut unused)
    }

    /// [`MatrixCtx::run_threaded`] that also exports the pool's scheduler
    /// statistics (worker count, steals, retries, crashes, degraded-run
    /// details) into `reg`, so threaded perf collections surface the
    /// runtime's health next to the kernel counters. At 1 thread the
    /// serial driver runs and no runtime metrics are touched.
    pub fn run_threaded_observed(
        &self,
        engine: &(dyn TileEngine + Sync),
        em: &EnergyModel,
        kernel: Kernel,
        threads: usize,
        reg: &mut obs::MetricsRegistry,
    ) -> KernelReport {
        if threads <= 1 {
            return self.run(engine, em, kernel);
        }
        let cfg = runtime::RuntimeConfig::with_threads(threads);
        let run = self
            .run_sharded(&cfg, engine, em, kernel)
            .expect("production engines never fail a shard intrinsically");
        run.stats.export_metrics(reg);
        if let Some(degraded) = &run.degraded {
            degraded.export_metrics(reg);
        }
        run.report
    }
}

/// Deterministic sparse vector with the given zero fraction.
pub fn sparse_vector(dim: usize, sparsity: f64, seed: u64) -> SparseVector {
    // Simple multiplicative hash keeps this dependency-free and stable.
    let mut idx = Vec::new();
    let mut values = Vec::new();
    let threshold = ((1.0 - sparsity) * u32::MAX as f64) as u32;
    for i in 0..dim {
        let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(seed.wrapping_mul(0xD134_2543_DE82_EF95));
        let h = (h ^ (h >> 29)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        if ((h >> 32) as u32) < threshold {
            idx.push(i as u32);
            values.push(((h & 0xFF) as f64 - 127.5) / 64.0);
        }
    }
    SparseVector::try_new(dim, idx, values).expect("indices are sorted by construction")
}

/// The four kernels in paper order.
pub const KERNELS: [Kernel; 4] = [Kernel::SpMV, Kernel::SpMSpV, Kernel::SpMM, Kernel::SpGEMM];

/// Prints a plain-text table with aligned columns.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:<w$}  ", c, w = widths[i.min(widths.len() - 1)]));
        }
        println!("{}", s.trim_end());
    };
    line(headers.iter().map(|s| s.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Whether `--full` was passed (full corpus instead of the fast sample).
pub fn full_mode() -> bool {
    std::env::args().any(|a| a == "--full")
}

/// Worker count from `--threads N` (default 1 — the serial driver path).
///
/// A missing or malformed value keeps the serial default rather than
/// aborting, matching the loose flag handling of the other shared modes;
/// `0` is clamped to 1.
pub fn threads_arg() -> usize {
    threads_from(std::env::args())
}

/// [`threads_arg`] over an explicit argument stream (testable core).
pub fn threads_from(args: impl Iterator<Item = String>) -> usize {
    let mut it = args;
    while let Some(a) = it.next() {
        if a == "--threads" {
            return it.next().and_then(|v| v.parse::<usize>().ok()).map_or(1, |n| n.max(1));
        }
        if let Some(v) = a.strip_prefix("--threads=") {
            return v.parse::<usize>().ok().map_or(1, |n| n.max(1));
        }
    }
    1
}

/// Corpus stride for the current mode: 1 in `--full`, 5 otherwise.
pub fn corpus_stride() -> usize {
    if full_mode() {
        1
    } else {
        5
    }
}

/// Skip threshold for SpGEMM intermediate products in fast mode (keeps the
/// default run laptop-fast; `--full` removes the cap).
pub fn spgemm_flops_cap() -> u64 {
    if full_mode() {
        u64::MAX
    } else {
        20_000_000
    }
}

/// Builds matrix contexts for the corpus at the current mode's stride.
pub fn corpus_contexts() -> Vec<MatrixCtx> {
    workloads::corpus::corpus_sample(corpus_stride())
        .into_iter()
        .enumerate()
        .map(|(i, e)| MatrixCtx::new(e.name.clone(), e.build(), i as u64))
        .collect()
}

/// Whether a context's SpGEMM is within the current mode's work cap.
pub fn spgemm_within_cap(ctx: &MatrixCtx) -> bool {
    sparse::ops::spgemm_flops(&ctx.csr, &ctx.csr).is_ok_and(|f| f <= spgemm_flops_cap())
}

/// The stencil corpus section: one representative of each structural
/// family under the production 16-aligned tile ordering — an unaligned
/// 2-D star grid (where the ordering cuts T1 tasks), a 16-aligned 2-D
/// box grid, and a 3-D box grid (where diagonal blocks turn half-dense).
/// Used by `perf_regression`, `service_bench` and `stencil_bench`.
pub fn stencil_lowerings() -> Vec<workloads::stencil::Lowering> {
    use workloads::stencil::{lower, GridShape, Ordering, StencilKind};
    vec![
        lower(StencilKind::Star5, GridShape::D2 { nx: 50, ny: 50 }, Ordering::Tiled16),
        lower(StencilKind::Box9, GridShape::D2 { nx: 48, ny: 48 }, Ordering::Tiled16),
        lower(StencilKind::Box27, GridShape::D3 { nx: 12, ny: 12, nz: 12 }, Ordering::Tiled16),
    ]
}

/// [`stencil_lowerings`] as prepared kernel contexts for corpus sweeps.
pub fn stencil_contexts() -> Vec<MatrixCtx> {
    stencil_lowerings()
        .into_iter()
        .enumerate()
        .map(|(i, l)| MatrixCtx::new(l.name(), l.csr, 0x057E_4C11 + i as u64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_vector_hits_target() {
        let x = sparse_vector(4096, 0.5, 3);
        let density = x.nnz() as f64 / 4096.0;
        assert!((density - 0.5).abs() < 0.05, "density {density}");
        assert_eq!(sparse_vector(4096, 0.5, 3), x);
    }

    #[test]
    fn engine_rosters() {
        assert_eq!(headline_engines(Precision::Fp64).len(), 3);
        assert_eq!(all_engines(Precision::Fp64).len(), 7);
        let names: Vec<String> =
            all_engines(Precision::Fp64).iter().map(|e| e.name().to_owned()).collect();
        assert!(names.contains(&"Uni-STC".to_owned()));
        assert!(names.contains(&"NV-DTC".to_owned()));
    }

    #[test]
    fn matrix_ctx_runs_all_kernels() {
        let csr = workloads::gen::poisson_2d(8);
        let ctx = MatrixCtx::new("p2d-8", csr, 1);
        let em = EnergyModel::default();
        for engine in headline_engines(Precision::Fp64) {
            for kernel in KERNELS {
                let rep = ctx.run(engine.as_ref(), &em, kernel);
                assert!(rep.cycles > 0, "{} {}", engine.name(), kernel);
                assert!(rep.energy.total() > 0.0);
            }
        }
    }

    #[test]
    fn threads_flag_parses_loosely() {
        let parse = |args: &[&str]| threads_from(args.iter().map(|s| (*s).to_owned()));
        assert_eq!(parse(&[]), 1);
        assert_eq!(parse(&["--full"]), 1);
        assert_eq!(parse(&["--threads", "8"]), 8);
        assert_eq!(parse(&["--threads=4"]), 4);
        assert_eq!(parse(&["--threads", "zero"]), 1, "malformed keeps the serial default");
        assert_eq!(parse(&["--threads", "0"]), 1, "clamped");
        assert_eq!(parse(&["--threads"]), 1, "dangling flag keeps the default");
    }

    #[test]
    fn run_threaded_is_bit_identical_to_serial() {
        let csr = workloads::gen::poisson_2d(10);
        let ctx = MatrixCtx::new("p2d-10", csr, 2);
        let em = EnergyModel::default();
        for engine in headline_engines(Precision::Fp64) {
            for kernel in KERNELS {
                let serial = ctx.run(engine.as_ref(), &em, kernel);
                for threads in [1, 2, 8] {
                    let threaded = ctx.run_threaded(engine.as_ref(), &em, kernel, threads);
                    assert_eq!(
                        threaded.counter_signature(),
                        serial.counter_signature(),
                        "{} {} threads={threads}",
                        engine.name(),
                        kernel
                    );
                }
            }
        }
    }

    #[test]
    fn spmv_work_is_engine_invariant() {
        let csr = workloads::gen::banded(64, 3, 1.0, 2);
        let ctx = MatrixCtx::new("b", csr, 1);
        let em = EnergyModel::default();
        let useful: Vec<u64> = all_engines(Precision::Fp64)
            .iter()
            .map(|e| ctx.run(e.as_ref(), &em, Kernel::SpMV).useful)
            .collect();
        assert!(useful.windows(2).all(|w| w[0] == w[1]), "useful {useful:?}");
    }
}
