//! The three seeded workloads. Each is a fixed sequence of envelopes; the
//! client submits one envelope with `Service::submit_batch`, waits for
//! every reply, then submits the next (closed loop, one client).
//!
//! The seed picks operand *content* (values, block positions, grid
//! extents within a few points, right-hand sides); it never changes the
//! number of envelopes, the jobs in each, or their kernels and engines.

use std::collections::BTreeSet;
use std::sync::Arc;

use service::{JobRequest, KernelRequest, Operand};
use sparse::rng::Rng64;
use sparse::{CooMatrix, CsrMatrix, SparseVector};
use workloads::gen;
use workloads::stencil::{heat, lower, solver, GridShape, Ordering, StencilKind};

use crate::roster::ENGINE_NAMES;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["stencil_timestep", "paper_sweep", "cold_ingest"];

/// Dense operand width of every SpMM job (the paper's SpMM setting).
pub const SPMM_N_COLS: usize = 64;

/// Instance size: `Full` is what the benchmark measures, `Tiny` is the
/// same job structure on small operands, for the self-check tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured instance.
    Full,
    /// A small instance with the same envelope and job layout rules.
    Tiny,
}

/// One workload's request stream.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Envelopes in submission order.
    pub envelopes: Vec<Vec<JobRequest>>,
}

impl Workload {
    /// Total jobs across all envelopes.
    pub fn jobs(&self) -> usize {
        self.envelopes.iter().map(Vec::len).sum()
    }
}

/// Builds a workload from its name and seed.
///
/// # Errors
///
/// An unknown workload name.
pub fn build(name: &str, seed: u64, scale: Scale) -> Result<Workload, String> {
    match name {
        "stencil_timestep" => Ok(stencil_timestep(seed, scale)),
        "paper_sweep" => Ok(paper_sweep(seed, scale)),
        "cold_ingest" => Ok(cold_ingest(seed, scale)),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {NAMES:?})"
        )),
    }
}

/// A stream seed for one use of the workload seed, so that changing one
/// salt's draws never shifts another's.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn seeded_values(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = Rng64::new(seed);
    (0..n).map(|_| rng.next_f64_range(-1.0, 1.0)).collect()
}

/// A half-dense sparse vector with seeded positions and values.
fn seeded_sparse_vector(dim: usize, seed: u64) -> Arc<SparseVector> {
    let mut rng = Rng64::new(seed);
    let (mut idx, mut values) = (Vec::new(), Vec::new());
    for i in 0..dim {
        if rng.next_bool(0.5) {
            idx.push(i as u32);
            values.push(rng.next_f64_range(-1.0, 1.0));
        }
    }
    Arc::new(SparseVector::try_new(dim, idx, values).expect("indices ascend by construction"))
}

/// A grid extent pair `(base + d, base - d)` with `d` drawn from
/// `-spread..=spread`: the point count stays within `spread²` of `base²`,
/// so seeds move content, not cost.
fn extents(rng: &mut Rng64, base: usize, spread: usize) -> (usize, usize) {
    let d = rng.next_range(2 * spread + 1);
    (base + d - spread, base + spread - d)
}

/// Jacobi on a 5-point star, CG on a 9-point box and explicit heat on a
/// 27-point box, all under the Tiled16 ordering. Every solver step is one
/// single-job SpMV envelope on the step's operator, because each step
/// needs the previous one's result.
fn stencil_timestep(seed: u64, scale: Scale) -> Workload {
    let mut rng = Rng64::new(mix(seed, 1));
    // (star5 side, box9 side, box27 side, jacobi iters, cg iters, heat steps)
    let (s5, b9, b27, jacobi_iters, cg_iters, heat_steps) = match scale {
        Scale::Full => (150, 128, 24, 24, 40, 16),
        Scale::Tiny => (20, 16, 6, 2, 3, 2),
    };
    let (nx, ny) = extents(&mut rng, s5, 2);
    let star5 = lower(
        StencilKind::Star5,
        GridShape::D2 { nx, ny },
        Ordering::Tiled16,
    );
    let (nx, ny) = extents(&mut rng, b9, 2);
    let box9 = lower(
        StencilKind::Box9,
        GridShape::D2 { nx, ny },
        Ordering::Tiled16,
    );
    let (nx, ny) = extents(&mut rng, b27, 1);
    let box27 = lower(
        StencilKind::Box27,
        GridShape::D3 { nx, ny, nz: b27 },
        Ordering::Tiled16,
    );

    let rhs = seeded_values(star5.csr.nrows(), mix(seed, 2));
    let jacobi = solver::jacobi(&star5.csr, &rhs, solver::JACOBI_WEIGHT, jacobi_iters);
    let rhs = seeded_values(box9.csr.nrows(), mix(seed, 3));
    // A zero tolerance never stops CG early, so the step count is fixed.
    let cg = solver::cg_trace(&box9.csr, &rhs, 0.0, cg_iters);
    let u0 = seeded_values(box27.csr.nrows(), mix(seed, 4));
    let params = heat::HeatParams::stable_for(StencilKind::Box27, heat_steps);
    let heat = heat::run(&box27.csr, &u0, params);

    // The three solves advance side by side, each at its own rate, so all
    // three end together: step k of a solve with s steps goes at (k + ½)/s
    // of the pass. Run one after another, each operator's latencies would
    // all fall in one stretch of the pass, and the quantiles would follow
    // whatever the host did during that stretch.
    let mut steps: Vec<(f64, usize)> = Vec::new();
    let mut operators = Vec::new();
    for (op, (csr, count)) in [
        (star5.csr, jacobi.spmv_count),
        (box9.csr, cg.spmv_count),
        (box27.csr, heat.spmv_count),
    ]
    .into_iter()
    .enumerate()
    {
        steps.extend((0..count).map(|k| ((k as f64 + 0.5) / count as f64, op)));
        operators.push(Arc::new(csr));
    }
    steps.sort_by(|x, y| x.0.total_cmp(&y.0));
    let envelopes = steps
        .into_iter()
        .map(|(_, op)| {
            vec![JobRequest::new(KernelRequest::SpMV {
                a: Operand::Csr(Arc::clone(&operators[op])),
            })]
        })
        .collect();
    Workload { envelopes }
}

/// One of the eight Table VII analogues: generator family and shape,
/// exactly as `workloads::representative` builds them, with the content
/// seed left to the workload seed.
#[derive(Clone, Copy)]
enum Analogue {
    Banded {
        n: usize,
        half_bandwidth: usize,
        fill: f64,
    },
    BlockDense {
        n: usize,
        block: usize,
        blocks: usize,
    },
    Arrow {
        n: usize,
        half_bandwidth: usize,
        dense_rows: usize,
    },
}

const TABLE_VII: [Analogue; 8] = [
    Analogue::Banded {
        n: 1024,
        half_bandwidth: 24,
        fill: 0.30,
    }, // consph
    Analogue::Banded {
        n: 1536,
        half_bandwidth: 20,
        fill: 0.38,
    }, // shipsec1
    Analogue::Banded {
        n: 1024,
        half_bandwidth: 22,
        fill: 0.35,
    }, // crankseg_2
    Analogue::Banded {
        n: 1024,
        half_bandwidth: 14,
        fill: 0.42,
    }, // cant
    Analogue::BlockDense {
        n: 512,
        block: 8,
        blocks: 300,
    }, // opt1
    Analogue::Banded {
        n: 768,
        half_bandwidth: 16,
        fill: 0.50,
    }, // pdb1HYS
    Analogue::Banded {
        n: 1536,
        half_bandwidth: 16,
        fill: 0.52,
    }, // pwtk
    Analogue::Arrow {
        n: 768,
        half_bandwidth: 4,
        dense_rows: 6,
    }, // gupta3
];

impl Analogue {
    /// The matrix, with dimensions divided by `shrink` (at least 32).
    fn generate(self, shrink: usize, seed: u64) -> CsrMatrix {
        let dim = |n: usize| (n / shrink).max(32);
        match self {
            Analogue::Banded {
                n,
                half_bandwidth,
                fill,
            } => gen::banded(dim(n), half_bandwidth, fill, seed),
            Analogue::BlockDense { n, block, blocks } => {
                gen::block_dense(dim(n), block, blocks / shrink, seed)
            }
            Analogue::Arrow {
                n,
                half_bandwidth,
                dense_rows,
            } => gen::arrow(dim(n), half_bandwidth, dense_rows, seed),
        }
    }
}

/// The paper's comparison (Figs. 16–17): every Table VII analogue × the
/// four kernels × all seven engines. One envelope per (matrix, kernel)
/// holds one job per engine, so the dispatcher compiles each stream once
/// and runs it for seven engine groups.
fn paper_sweep(seed: u64, scale: Scale) -> Workload {
    let shrink = match scale {
        Scale::Full => 1,
        Scale::Tiny => 8,
    };
    let mut envelopes = Vec::new();
    for (i, analogue) in TABLE_VII.iter().enumerate() {
        let salt = 100 + i as u64;
        let a = Arc::new(analogue.generate(shrink, mix(seed, salt)));
        let x = seeded_sparse_vector(a.ncols(), mix(seed, salt + 1000));
        let op = || Operand::Csr(Arc::clone(&a));
        let kernels = [
            KernelRequest::SpMV { a: op() },
            KernelRequest::SpMSpV {
                a: op(),
                x: Arc::clone(&x),
            },
            KernelRequest::SpMM {
                a: op(),
                n_cols: SPMM_N_COLS,
            },
            KernelRequest::SpGEMM { a: op(), b: op() },
        ];
        for kernel in kernels {
            envelopes.push(
                ENGINE_NAMES
                    .iter()
                    .map(|e| JobRequest::on_engine(*e, kernel.clone()))
                    .collect(),
            );
        }
    }
    Workload { envelopes }
}

/// The block structure of a `cold_ingest` operand, on its grid of 16×16
/// blocks. Every operand holds the diagonal blocks.
#[derive(Clone, Copy)]
enum Region {
    /// Block-tridiagonal.
    Banded,
    /// Half as many blocks again, scattered at random.
    BlockDense,
    /// The first block row and block column.
    Arrow,
}

/// An operand whose entries inside its region's blocks are each kept with
/// probability ¼ (the diagonal always). Each block then draws from 2^256
/// patterns, so blocks are almost never repeated within or across
/// operands, and a per-task memo has nothing to reuse.
fn ingest_operand(region: Region, n: usize, seed: u64) -> CsrMatrix {
    let mut rng = Rng64::new(seed);
    let nb = n / 16;
    let mut blocks: BTreeSet<(usize, usize)> = (0..nb).map(|b| (b, b)).collect();
    match region {
        Region::Banded => blocks.extend((1..nb).flat_map(|b| [(b - 1, b), (b, b - 1)])),
        Region::BlockDense => {
            for _ in 0..nb / 2 {
                blocks.insert((rng.next_range(nb), rng.next_range(nb)));
            }
        }
        Region::Arrow => blocks.extend((1..nb).flat_map(|b| [(0, b), (b, 0)])),
    }
    let mut coo = CooMatrix::new(n, n);
    for (br, bc) in blocks {
        for r in 16 * br..16 * br + 16 {
            for c in 16 * bc..16 * bc + 16 {
                if r == c || rng.next_bool(0.25) {
                    coo.push(r, c, rng.next_f64_range(-1.0, 1.0));
                }
            }
        }
    }
    CsrMatrix::try_from(coo).expect("coordinates are in range")
}

/// Distinct operands, each submitted once as SpMV and then once as SpMSpV
/// (two single-job envelopes), against the default cache capacities.
/// Regions and sizes follow a fixed cycle; only content is seeded.
fn cold_ingest(seed: u64, scale: Scale) -> Workload {
    const SIZES: [usize; 5] = [512, 768, 1024, 1280, 1536];
    const REGIONS: [Region; 3] = [Region::Banded, Region::BlockDense, Region::Arrow];
    let (operands, shrink) = match scale {
        Scale::Full => (400, 1),
        Scale::Tiny => (12, 8),
    };
    let mut envelopes = Vec::with_capacity(2 * operands);
    for i in 0..operands {
        let n = SIZES[(i / 3) % SIZES.len()] / shrink;
        let a = Arc::new(ingest_operand(
            REGIONS[i % 3],
            n,
            mix(seed, 10_000 + i as u64),
        ));
        let x = seeded_sparse_vector(a.ncols(), mix(seed, 20_000 + i as u64));
        envelopes.push(vec![JobRequest::new(KernelRequest::SpMV {
            a: Operand::Csr(Arc::clone(&a)),
        })]);
        envelopes.push(vec![JobRequest::new(KernelRequest::SpMSpV {
            a: Operand::Csr(a),
            x,
        })]);
    }
    Workload { envelopes }
}
