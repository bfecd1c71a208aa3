//! The traced replay: every envelope goes through the public function of
//! each layer the service's dispatcher calls, in the dispatcher's order,
//! and each call is timed.
//!
//! The order follows `service::service::run_batch`: first every job of
//! the drain is prepared in submission order (`fingerprint_*`, then
//! `BbcMatrix::from_csr` on an encoding-cache miss, then the verifier on
//! an admission-cache miss), then the admitted jobs run group by group in
//! ascending `(engine, stream key)` order (`driver::*_tasks` on a
//! stream-cache miss, then `run_tasks_planned`). The three caches are
//! `service::SharedCache` mirrors at the service's capacities, keyed the
//! way the service keys them, so a layer runs exactly when the service
//! would run it. In a closed loop with one client, one envelope is one
//! dispatcher drain.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use analysis::UstcVerifier;
use runtime::{run_tasks_planned, RuntimeConfig, ShardPlan};
use service::{
    fingerprint_bbc, fingerprint_csr, fingerprint_vector, CacheStats, Fingerprint, JobRequest,
    KernelRequest, Operand, ServiceConfig, SharedCache, DEFAULT_ENGINE,
};
use simkit::driver::{self, Kernel, KernelReport, StreamVerifier, VerifyError};
use simkit::{Block16, EnergyModel, T1Task};
use sparse::{BbcMatrix, CsrMatrix, SparseVector};
use uni_stc::UniStcConfig;

use crate::roster::{self, Engine};

/// The service's stream identity, with the same variants in the same
/// order so that the derived ordering groups jobs as the dispatcher does.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum StreamKey {
    Spmv { a: Fingerprint },
    Spmspv { a: Fingerprint, x: Fingerprint },
    Spmm { a: Fingerprint, n_cols: usize },
    Spgemm { a: Fingerprint, b: Fingerprint },
}

struct Prepared {
    engine: String,
    key: StreamKey,
    kernel: Kernel,
    a: Arc<BbcMatrix>,
    x: Option<Arc<SparseVector>>,
    b: Option<Arc<BbcMatrix>>,
    n_cols: usize,
}

/// Time and work per layer, summed over every call of a pass.
#[derive(Debug, Default, Clone)]
pub struct Stages {
    /// Time in `fingerprint_csr` / `fingerprint_vector`.
    pub fingerprint: Duration,
    /// Operand bytes those calls hashed.
    pub fingerprint_bytes: u64,
    /// Time in `BbcMatrix::from_csr`.
    pub encode: Duration,
    /// Calls to `BbcMatrix::from_csr`.
    pub encode_calls: u64,
    /// Time in `UstcVerifier::verify_*`.
    pub verify: Duration,
    /// Calls to `UstcVerifier::verify_*`.
    pub verify_calls: u64,
    /// Time in `driver::*_tasks`.
    pub compile: Duration,
    /// Calls to `driver::*_tasks`.
    pub compile_calls: u64,
    /// Tasks those calls produced.
    pub compile_tasks: u64,
    /// Time in `run_tasks_planned`.
    pub simulate: Duration,
    /// Tasks handed to an engine (trivial tasks never reach one).
    pub simulate_tasks: u64,
    /// Distinct `(engine, a, b, n_cols)` among those tasks.
    pub distinct_tasks: u64,
    /// `simulate` split by engine display name.
    pub simulate_by_engine: BTreeMap<String, Duration>,
}

impl Stages {
    /// Time in all timed layers together.
    pub fn total(&self) -> Duration {
        self.fingerprint + self.encode + self.verify + self.compile + self.simulate
    }
}

/// One replayed job: the time of the layer calls the dispatcher made
/// between the job's submission and its reply, and its outcome.
pub struct TracedJob {
    /// Sum of timed layer calls up to this job's reply.
    pub stage_time: Duration,
    /// The report, or the rejection the service would send.
    pub outcome: Result<KernelReport, String>,
}

/// Traced replay state for one pass: caches start empty, like a freshly
/// started service.
pub struct Mirror {
    engines: BTreeMap<String, Engine>,
    verifier: Option<UstcVerifier>,
    em: EnergyModel,
    exec: RuntimeConfig,
    encodings: SharedCache<Fingerprint, BbcMatrix>,
    streams: SharedCache<StreamKey, Vec<T1Task>>,
    verdicts: SharedCache<StreamKey, Result<(), VerifyError>>,
    /// Streams whose tasks are already in `seen_tasks` for an engine.
    seen_streams: BTreeSet<(String, StreamKey)>,
    /// Distinct `(a, b, n_cols)` tasks executed, per engine.
    seen_tasks: BTreeMap<String, HashSet<(Block16, Block16, usize)>>,
    /// Per-layer totals so far.
    pub stages: Stages,
}

impl Mirror {
    /// A mirror of a service started with `cfg`.
    pub fn new(cfg: &ServiceConfig) -> Self {
        Mirror {
            engines: roster::engines(cfg.precision),
            verifier: cfg
                .admission
                .then(|| UstcVerifier::new(UniStcConfig::with_precision(cfg.precision))),
            em: EnergyModel::default(),
            exec: cfg.exec,
            encodings: SharedCache::new(cfg.encoding_cache_capacity),
            streams: SharedCache::new(cfg.stream_cache_capacity),
            verdicts: SharedCache::new(cfg.stream_cache_capacity),
            seen_streams: BTreeSet::new(),
            seen_tasks: BTreeMap::new(),
            stages: Stages::default(),
        }
    }

    /// Hit/miss/eviction tallies of the encoding, stream and admission
    /// mirrors, in that order.
    pub fn cache_stats(&self) -> [CacheStats; 3] {
        [
            self.encodings.stats(),
            self.streams.stats(),
            self.verdicts.stats(),
        ]
    }

    /// Replays one envelope as one dispatcher drain; results are in
    /// submission order.
    pub fn replay(&mut self, envelope: &[JobRequest]) -> Vec<TracedJob> {
        let start = self.stages.total();
        let mut out: Vec<Option<TracedJob>> = envelope.iter().map(|_| None).collect();
        let mut groups: BTreeMap<(String, StreamKey), Vec<(Prepared, usize)>> = BTreeMap::new();
        for (i, job) in envelope.iter().enumerate() {
            match self.prepare(job) {
                Ok(p) => groups
                    .entry((p.engine.clone(), p.key.clone()))
                    .or_default()
                    .push((p, i)),
                Err(e) => {
                    out[i] = Some(TracedJob {
                        stage_time: self.stages.total() - start,
                        outcome: Err(e),
                    })
                }
            }
        }
        for ((engine_name, key), members) in groups {
            let first = &members[0].0;
            let (tasks, _) = self.streams.get_or_insert_with(&key, || {
                let t = Instant::now();
                let tasks = compile(first);
                self.stages.compile += t.elapsed();
                self.stages.compile_calls += 1;
                self.stages.compile_tasks += tasks.len() as u64;
                tasks
            });
            let outcome = self.simulate(&engine_name, &key, first.kernel, &tasks);
            let stage_time = self.stages.total() - start;
            for (_, i) in members {
                out[i] = Some(TracedJob {
                    stage_time,
                    outcome: outcome.clone(),
                });
            }
        }
        out.into_iter()
            .map(|j| j.expect("every job is answered once"))
            .collect()
    }

    fn simulate(
        &mut self,
        engine_name: &str,
        key: &StreamKey,
        kernel: Kernel,
        tasks: &[T1Task],
    ) -> Result<KernelReport, String> {
        let engine = self
            .engines
            .get(engine_name)
            .ok_or_else(|| format!("unknown engine `{engine_name}`"))?;
        let plan = ShardPlan::contiguous(tasks.len(), self.exec.threads);
        let t = Instant::now();
        let run = run_tasks_planned(&self.exec, &plan, engine.as_ref(), &self.em, kernel, tasks);
        let elapsed = t.elapsed();
        self.stages.simulate += elapsed;
        *self
            .stages
            .simulate_by_engine
            .entry(engine_name.to_owned())
            .or_default() += elapsed;

        // Task accounting, outside the timed call: a stream's tasks join
        // its engine's distinct set once.
        let executed = tasks.iter().filter(|t| !t.is_trivial());
        self.stages.simulate_tasks += executed.clone().count() as u64;
        if self
            .seen_streams
            .insert((engine_name.to_owned(), key.clone()))
        {
            let seen = self.seen_tasks.entry(engine_name.to_owned()).or_default();
            seen.extend(executed.map(|t| (t.a, t.b, t.n_cols)));
            self.stages.distinct_tasks = self.seen_tasks.values().map(|s| s.len() as u64).sum();
        }
        run.map(|r| r.report).map_err(|e| format!("{e:?}"))
    }

    fn fingerprint_matrix(&mut self, op: &Operand) -> Fingerprint {
        let t = Instant::now();
        let fp = match op {
            Operand::Csr(m) => fingerprint_csr(m),
            Operand::Bbc(m) => fingerprint_bbc(m),
        };
        self.stages.fingerprint += t.elapsed();
        // The workloads submit CSR only; a BBC operand's hashed length is
        // its serialized stream, which is not counted.
        if let Operand::Csr(m) = op {
            self.stages.fingerprint_bytes += csr_hashed_bytes(m);
        }
        fp
    }

    fn fingerprint_x(&mut self, x: &SparseVector) -> Fingerprint {
        let t = Instant::now();
        let fp = fingerprint_vector(x);
        self.stages.fingerprint += t.elapsed();
        // Tag, dim, two lengths, u32 indices, f64 values.
        self.stages.fingerprint_bytes += 3 + 3 * 8 + 12 * x.nnz() as u64;
        fp
    }

    /// `service::service::resolve`.
    fn resolve(&mut self, op: &Operand) -> (Arc<BbcMatrix>, Fingerprint) {
        let fp = self.fingerprint_matrix(op);
        match op {
            Operand::Bbc(m) => (Arc::clone(m), fp),
            Operand::Csr(m) => {
                let (bbc, _) = self.encodings.get_or_insert_with(&fp, || {
                    let t = Instant::now();
                    let bbc = BbcMatrix::from_csr(m);
                    self.stages.encode += t.elapsed();
                    self.stages.encode_calls += 1;
                    bbc
                });
                (bbc, fp)
            }
        }
    }

    /// `service::service::admit`: the verdict memo in front of the verifier.
    fn admit(
        &mut self,
        key: &StreamKey,
        verify: impl FnOnce(&UstcVerifier) -> Result<(), VerifyError>,
    ) -> Result<(), String> {
        let Some(v) = &self.verifier else {
            return Ok(());
        };
        let (verdict, _) = self.verdicts.get_or_insert_with(key, || {
            let t = Instant::now();
            let verdict = verify(v);
            self.stages.verify += t.elapsed();
            self.stages.verify_calls += 1;
            verdict
        });
        verdict
            .as_ref()
            .clone()
            .map_err(|e| format!("rejected [{}]: {}", e.code, e.message))
    }

    /// `service::service::prepare`.
    fn prepare(&mut self, req: &JobRequest) -> Result<Prepared, String> {
        let engine = req
            .engine
            .clone()
            .unwrap_or_else(|| DEFAULT_ENGINE.to_owned());
        if !self.engines.contains_key(&engine) {
            return Err(format!("unknown engine `{engine}`"));
        }
        let prepared = |key, kernel, a, x, b, n_cols| Prepared {
            engine: engine.clone(),
            key,
            kernel,
            a,
            x,
            b,
            n_cols,
        };
        match &req.kernel {
            KernelRequest::SpMV { a } => {
                let (a, fp_a) = self.resolve(a);
                let key = StreamKey::Spmv { a: fp_a };
                self.admit(&key, |v| v.verify_spmv(&a))?;
                Ok(prepared(key, Kernel::SpMV, a, None, None, 0))
            }
            KernelRequest::SpMSpV { a, x } => {
                let (a, fp_a) = self.resolve(a);
                let key = StreamKey::Spmspv {
                    a: fp_a,
                    x: self.fingerprint_x(x),
                };
                self.admit(&key, |v| v.verify_spmspv(&a, x))?;
                Ok(prepared(
                    key,
                    Kernel::SpMSpV,
                    a,
                    Some(Arc::clone(x)),
                    None,
                    0,
                ))
            }
            KernelRequest::SpMM { a, n_cols } => {
                let (a, fp_a) = self.resolve(a);
                let key = StreamKey::Spmm {
                    a: fp_a,
                    n_cols: *n_cols,
                };
                self.admit(&key, |v| v.verify_spmm(&a, *n_cols))?;
                Ok(prepared(key, Kernel::SpMM, a, None, None, *n_cols))
            }
            KernelRequest::SpGEMM { a, b } => {
                let (a, fp_a) = self.resolve(a);
                let (b, fp_b) = self.resolve(b);
                let key = StreamKey::Spgemm { a: fp_a, b: fp_b };
                self.admit(&key, |v| v.verify_spgemm(&a, &b))?;
                if a.block_cols() != b.block_rows() {
                    return Err("rejected [USTC012]: SpGEMM block grids do not conform".to_owned());
                }
                Ok(prepared(key, Kernel::SpGEMM, a, None, Some(b), 0))
            }
        }
    }
}

/// Every way the replay's layer calls and cache tallies differ from the
/// service's cache counters after the same pass; empty when each layer
/// ran exactly when the service ran it. `caches` is
/// [`Mirror::cache_stats`].
pub fn fidelity_errors(
    stages: &Stages,
    caches: &[CacheStats; 3],
    service: &obs::MetricsRegistry,
) -> Vec<String> {
    let [enc, streams, verdicts] = caches;
    let layers = [
        ("encode", stages.encode_calls, "encoding_cache", enc),
        ("compile", stages.compile_calls, "stream_cache", streams),
        ("verify", stages.verify_calls, "admission_cache", verdicts),
    ];
    let mut errors = Vec::new();
    for (layer, calls, cache, mirror) in layers {
        let counter = |what: &str| service.counter(&format!("service/{cache}_{what}"));
        let (hits, misses, evictions) = (counter("hits"), counter("misses"), counter("evictions"));
        if calls != misses
            || (mirror.hits, mirror.misses, mirror.evictions) != (hits, misses, evictions)
        {
            errors.push(format!(
                "{layer}: {calls} traced calls, mirror {}/{}/{} vs service {hits}/{misses}/{evictions} \
                 {cache} hits/misses/evictions",
                mirror.hits, mirror.misses, mirror.evictions
            ));
        }
    }
    errors
}

/// `service::service::compile`: the stream the serial driver would run.
fn compile(p: &Prepared) -> Vec<T1Task> {
    match (p.kernel, &p.x, &p.b) {
        (Kernel::SpMV, _, _) => driver::spmv_tasks(&p.a),
        (Kernel::SpMSpV, Some(x), _) => driver::spmspv_tasks(&p.a, x),
        (Kernel::SpMM, _, _) => driver::spmm_tasks(&p.a, p.n_cols),
        (Kernel::SpGEMM, _, Some(b)) => driver::spgemm_tasks(&p.a, b),
        _ => Vec::new(),
    }
}

/// Bytes `fingerprint_csr` feeds its hasher: tag, shape, then each array
/// with its length (`row_ptr` as u64 words, `col_idx` as u32, values as
/// f64 bits).
fn csr_hashed_bytes(m: &CsrMatrix) -> u64 {
    let words = 2 + 3 + m.row_ptr().len() as u64;
    3 + 8 * words + 4 * m.col_idx().len() as u64 + 8 * m.values().len() as u64
}
