//! Counted-stream conformance: executing each distinct T1 task once and
//! scaling by its multiplicity (`driver::run_stream`) must reproduce the
//! ordered task-by-task path — the one a traced run takes — exactly:
//! every counter, the utilisation histogram and the energy bits.

use conformance::differential::all_engines;
use conformance::generators::{sparse_vector, Regime};
use conformance::oracle::spgemm_rhs;
use simkit::driver::{self, Kernel, KernelReport};
use simkit::{EnergyModel, T1Task, TaskStream, TileEngine};
use sparse::BbcMatrix;
use workloads::representative::representative_matrices;

/// Seeds per regime; the Empty regime rotates its four shapes over them.
const SEEDS: u64 = 6;

/// The four kernels' task lists on `a`, with operands derived from `seed`
/// as the differential sweep derives them.
fn kernel_tasks(a: &sparse::CsrMatrix, seed: u64) -> Vec<(Kernel, Vec<T1Task>)> {
    let bbc = BbcMatrix::from_csr(a);
    let x = sparse_vector(a.ncols(), seed);
    let n_cols = 1 + (seed as usize % 21);
    let b = BbcMatrix::from_csr(&spgemm_rhs(a));
    vec![
        (Kernel::SpMV, driver::spmv_tasks(&bbc)),
        (Kernel::SpMSpV, driver::spmspv_tasks(&bbc, &x)),
        (Kernel::SpMM, driver::spmm_tasks(&bbc, n_cols)),
        (Kernel::SpGEMM, driver::spgemm_tasks(&bbc, &b)),
    ]
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

/// Runs `tasks` both ways on `engine` and compares, with `sink` recording
/// the ordered run.
fn check(
    engine: &dyn TileEngine,
    kernel: Kernel,
    tasks: &[T1Task],
    sink: &mut dyn obs::TraceSink,
    ctx: &str,
) {
    let em = EnergyModel::default();
    assert!(sink.enabled(), "the ordered path needs an enabled sink");
    let ordered = driver::run_tasks_traced(engine, &em, kernel, tasks.iter().copied(), sink);
    let stream = TaskStream::from(tasks);
    assert_eq!(stream.total(), tasks.len() as u64, "{ctx}");
    let counted = driver::run_stream(engine, &em, kernel, &stream)
        .unwrap_or_else(|e| panic!("{ctx}: {e}"));
    assert_identical(&counted, &ordered, ctx);
}

#[test]
fn counted_streams_match_the_ordered_path_on_every_regime() {
    let engines = all_engines();
    assert_eq!(engines.len(), 7);
    for regime in Regime::ALL {
        for seed in 0..SEEDS {
            let a = regime.generate(seed);
            for (kernel, tasks) in kernel_tasks(&a, seed) {
                for engine in &engines {
                    let mut trace: Vec<obs::TraceEvent> = Vec::new();
                    let ctx = format!("{} seed {seed} {kernel} {}", regime.name(), engine.name());
                    check(engine.as_ref(), kernel, &tasks, &mut trace, &ctx);
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
        let tasks = driver::spmv_tasks(&BbcMatrix::from_csr(&rep.matrix));
        assert_eq!(
            TaskStream::from(&tasks[..]).len(),
            tasks.len(),
            "{}: every task distinct, so counting saves nothing",
            rep.name
        );
        for engine in &engines {
            // A one-slot ring keeps the ordered run's trace memory flat.
            let mut ring = obs::RingSink::new(1);
            let ctx = format!("{} SpMV {}", rep.name, engine.name());
            check(engine.as_ref(), Kernel::SpMV, &tasks, &mut ring, &ctx);
        }
    }
}
