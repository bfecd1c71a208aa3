//! Counted-stream conformance: executing each distinct T1 task once and
//! scaling by its multiplicity (`driver::run_stream`), serially and
//! sharded over two pool workers (`runtime::run_stream_planned`), must
//! reproduce the ordered task-by-task path — the one a traced run takes —
//! exactly: every counter, the utilisation histogram and the energy bits.

use conformance::differential::all_engines;
use conformance::generators::{sparse_vector, Regime};
use conformance::oracle::spgemm_rhs;
use runtime::{run_stream_planned, RuntimeConfig};
use simkit::driver::{self, Invocation, KernelReport};
use simkit::{EnergyModel, TileEngine};
use sparse::{BbcMatrix, SparseVector};
use workloads::representative::representative_matrices;

/// Seeds per regime; the Empty regime rotates its four shapes over them.
const SEEDS: u64 = 6;

/// The four kernels' operands on `a`, derived from `seed` as the
/// differential sweep derives them.
struct Operands {
    a: BbcMatrix,
    x: SparseVector,
    n_cols: usize,
    b: BbcMatrix,
}

impl Operands {
    fn new(a: &sparse::CsrMatrix, seed: u64) -> Self {
        Operands {
            a: BbcMatrix::from_csr(a),
            x: sparse_vector(a.ncols(), seed),
            n_cols: 1 + (seed as usize % 21),
            b: BbcMatrix::from_csr(&spgemm_rhs(a)),
        }
    }

    fn invocations(&self) -> [Invocation<'_>; 4] {
        [
            Invocation::SpMV(&self.a),
            Invocation::SpMSpV(&self.a, &self.x),
            Invocation::SpMM(&self.a, self.n_cols),
            Invocation::SpGEMM(&self.a, &self.b),
        ]
    }
}

/// Asserts `counted` equals `ordered` field for field, energy bits
/// included.
fn assert_identical(counted: &KernelReport, ordered: &KernelReport, ctx: &str) {
    assert_eq!(counted, ordered, "{ctx}");
    let bits = |r: &KernelReport| {
        [r.energy.fetch, r.energy.schedule, r.energy.compute, r.energy.total()].map(f64::to_bits)
    };
    assert_eq!(bits(counted), bits(ordered), "{ctx}: energy bits");
}

/// Runs `inv` three ways on `engine` — ordered, counted, and counted
/// over the runtime's 2-thread shard plan — and compares, with `sink`
/// recording the ordered run.
fn check(
    engine: &(dyn TileEngine + Sync),
    inv: Invocation<'_>,
    sink: &mut dyn obs::TraceSink,
    ctx: &str,
) {
    let em = EnergyModel::default();
    assert!(sink.enabled(), "the ordered path needs an enabled sink");
    let ordered = driver::run_traced(engine, &em, inv, sink);
    let stream = inv.stream().unwrap_or_else(|e| panic!("{ctx}: {e}"));
    assert_eq!(stream.total(), inv.tasks().len() as u64, "{ctx}");
    let counted = driver::run_stream(engine, &em, inv.kernel(), &stream)
        .unwrap_or_else(|e| panic!("{ctx}: {e}"));
    assert_identical(&counted, &ordered, ctx);
    let cfg = RuntimeConfig::with_threads(2);
    let sharded = run_stream_planned(&cfg, engine, &em, inv.kernel(), &stream)
        .unwrap_or_else(|e| panic!("{ctx}: {e}"));
    assert_identical(&sharded.report, &ordered, &format!("{ctx} (2 threads)"));
}

#[test]
fn counted_streams_match_the_ordered_path_on_every_regime() {
    let engines = all_engines();
    assert_eq!(engines.len(), 7);
    for regime in Regime::ALL {
        for seed in 0..SEEDS {
            let operands = Operands::new(&regime.generate(seed), seed);
            for inv in operands.invocations() {
                for engine in &engines {
                    let mut trace: Vec<obs::TraceEvent> = Vec::new();
                    let kernel = inv.kernel();
                    let ctx = format!("{} seed {seed} {kernel} {}", regime.name(), engine.name());
                    check(engine.as_ref(), inv, &mut trace, &ctx);
                }
            }
        }
    }
}

#[test]
fn representative_analogues_without_repeats_stay_bit_identical() {
    let engines = all_engines();
    for rep in representative_matrices()
        .into_iter()
        .filter(|r| ["consph", "cant", "pdb1HYS", "pwtk"].contains(&r.name))
    {
        let a = BbcMatrix::from_csr(&rep.matrix);
        let inv = Invocation::SpMV(&a);
        assert_eq!(
            inv.stream().expect("one task per block").len(),
            a.block_count(),
            "{}: every task distinct, so counting saves nothing",
            rep.name
        );
        for engine in &engines {
            // A one-slot ring keeps the ordered run's trace memory flat.
            let mut ring = obs::RingSink::new(1);
            let ctx = format!("{} SpMV {}", rep.name, engine.name());
            check(engine.as_ref(), inv, &mut ring, &ctx);
        }
    }
}
