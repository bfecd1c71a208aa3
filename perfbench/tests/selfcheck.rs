//! Self-checks of the benchmark itself, on tiny instances of every
//! workload: the traced replay runs each layer exactly when the service
//! does, and the seed changes content but not structure.

use perfbench::mirror::{fidelity_errors, Mirror};
use perfbench::pass;
use perfbench::workload::{self, Scale, Workload, NAMES};
use service::{
    fingerprint_csr, fingerprint_vector, Fingerprint, JobRequest, KernelRequest, Operand, Service,
    ServiceConfig,
};
use simkit::driver::Kernel;

fn tiny(name: &str, seed: u64) -> Workload {
    workload::build(name, seed, Scale::Tiny).expect("known workload")
}

/// The default service, and one whose caches are small enough that
/// every tiny workload evicts.
fn configs() -> [ServiceConfig; 2] {
    [
        ServiceConfig::default(),
        ServiceConfig {
            encoding_cache_capacity: 2,
            stream_cache_capacity: 3,
            ..ServiceConfig::default()
        },
    ]
}

#[test]
fn traced_layer_calls_equal_service_cache_misses() {
    for name in NAMES {
        for cfg in configs() {
            let wl = tiny(name, 7);
            let untraced = pass::run(Service::start(cfg.clone()), &wl);
            let mut mirror = Mirror::new(&cfg);
            let traced: Vec<_> = wl.envelopes.iter().flat_map(|e| mirror.replay(e)).collect();

            let ctx = format!(
                "{name}, caches {}/{}",
                cfg.encoding_cache_capacity, cfg.stream_cache_capacity
            );
            let errors = fidelity_errors(&mirror.stages, &mirror.cache_stats(), &untraced.metrics);
            assert!(errors.is_empty(), "{ctx}: {errors:?}");

            let reference = pass::reference_signatures(&wl, &cfg);
            assert_eq!(
                pass::mismatches(&untraced.outcomes, &reference),
                0,
                "{ctx}: service vs serial"
            );
            let replayed: Vec<_> = traced.into_iter().map(|j| j.outcome).collect();
            assert_eq!(
                pass::mismatches(&replayed, &reference),
                0,
                "{ctx}: traced vs serial"
            );
        }
    }
}

#[test]
fn small_caches_evict_in_the_fidelity_check() {
    let cfg = &configs()[1];
    for name in NAMES {
        let mut mirror = Mirror::new(cfg);
        for envelope in &tiny(name, 7).envelopes {
            mirror.replay(envelope);
        }
        let evictions: u64 = mirror.cache_stats().iter().map(|s| s.evictions).sum();
        assert!(evictions > 0, "{name}: the eviction path is not exercised");
    }
}

/// Per job: engine, kernel and SpMM width.
fn structure(wl: &Workload) -> Vec<Vec<(Option<String>, Kernel, usize)>> {
    let job = |j: &JobRequest| {
        let n_cols = match &j.kernel {
            KernelRequest::SpMM { n_cols, .. } => *n_cols,
            _ => 0,
        };
        (j.engine.clone(), j.kernel.kernel(), n_cols)
    };
    wl.envelopes
        .iter()
        .map(|e| e.iter().map(job).collect())
        .collect()
}

/// Per job: the content fingerprint of every operand.
fn content(wl: &Workload) -> Vec<Vec<Fingerprint>> {
    let matrix = |op: &Operand| match op {
        Operand::Csr(m) => fingerprint_csr(m),
        Operand::Bbc(m) => service::fingerprint_bbc(m),
    };
    wl.envelopes
        .iter()
        .flatten()
        .map(|j| match &j.kernel {
            KernelRequest::SpMV { a } | KernelRequest::SpMM { a, .. } => vec![matrix(a)],
            KernelRequest::SpMSpV { a, x } => vec![matrix(a), fingerprint_vector(x)],
            KernelRequest::SpGEMM { a, b } => vec![matrix(a), matrix(b)],
        })
        .collect()
}

#[test]
fn seeds_change_content_not_structure() {
    for name in NAMES {
        let (a, b) = (tiny(name, 1), tiny(name, 2));
        assert_eq!(
            structure(&a),
            structure(&b),
            "{name}: structure depends on the seed"
        );
        assert_ne!(
            content(&a),
            content(&b),
            "{name}: the seed does not reach the operands"
        );
    }
}

#[test]
fn one_seed_is_reproducible() {
    for name in NAMES {
        assert_eq!(content(&tiny(name, 3)), content(&tiny(name, 3)), "{name}");
    }
}

#[test]
fn full_instances_keep_their_job_counts_across_seeds() {
    // The end-to-end latency quantiles assume these counts: p90 needs at
    // least ten samples above it in a single pass.
    let stencil = [
        workload::build("stencil_timestep", 1, Scale::Full),
        workload::build("stencil_timestep", 2, Scale::Full),
    ];
    for wl in stencil {
        assert_eq!(wl.expect("known workload").jobs(), 104);
    }
}
