//! The batch job service: a long-lived dispatcher in front of the
//! engines.
//!
//! Clients [`submit`](Service::submit) jobs from any thread; a single
//! dispatcher thread drains the bounded queue, batches jobs that share a
//! compiled task stream, and executes each batch once on the resilient
//! [`runtime`] pool. Three properties the rest of the repo is built on
//! are preserved end to end:
//!
//! * **Bit-identity** — a cached response is byte-for-byte the serial
//!   driver's report: the encoding cache stores the deterministic
//!   CSR→BBC encoding, the stream cache stores the counted
//!   [`TaskStream`] the driver would regenerate (each distinct T1 task
//!   once, with its multiplicity), and the runtime's fold is the proven
//!   commutative monoid. Warm, cold, batched and degraded runs all
//!   produce the same [`counter_signature`](simkit::driver::KernelReport::counter_signature).
//!   Caches are keyed by content fingerprints, but an entry keeps the
//!   operands it was computed from and is served only to a request whose
//!   operands are confirmed the same (DESIGN.md §18); a job that
//!   collides with another operand's key is answered without any cache.
//! * **Admission control** — with [`ServiceConfig::admission`] on,
//!   every stream passes `analysis::UstcVerifier` before it is
//!   scheduled, so illegal work is rejected with its `USTC` code instead
//!   of being simulated; the shard plan is additionally proven legal by
//!   [`ShardPlan::verify_before_run`] before any worker spawns.
//!   Non-conforming SpGEMM grids and SpMSpV vectors whose length is not
//!   the operator's column count are rejected (`USTC012`) even with
//!   admission off, because the task compiler cannot represent them. A
//!   request whose exact report would overflow a `u64` counter (an SpMM
//!   with an astronomically wide `B`) is rejected with `USTC017`: the
//!   counted fold cannot represent it.
//! * **Observability** — queue depth, batch sizes, cache hit/miss/
//!   eviction tallies, operand hashes, identity hits and collisions,
//!   per-kernel latency histograms, simulated total and distinct T1
//!   tasks, runtime scheduler stats and the degraded-run counter all land
//!   in one
//!   [`MetricsRegistry`] snapshot ([`Service::metrics`]).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};

use analysis::UstcVerifier;
use obs::MetricsRegistry;
use runtime::{run_stream_planned, PlannedRunError, RuntimeConfig, ShardPlan, ShardPlanError};
use simkit::driver::{self, Kernel, StreamVerifier, VerifyError};
use simkit::{CounterOverflow, EnergyModel, Precision, TaskStream, TileEngine};
use sparse::{BbcMatrix, CsrMatrix};
use uni_stc::{UniStc, UniStcConfig};

use crate::cache::{CacheStats, Outcome, SharedCache};
use crate::fingerprint::Fingerprint;
use crate::identity::{Identities, Tally};
use crate::request::{JobError, JobRequest, JobResponse, KernelRequest, Operand};

/// The engine jobs run on when [`JobRequest::engine`] is `None`.
pub const DEFAULT_ENGINE: &str = "Uni-STC";

/// Upper-inclusive bounds for the per-kernel latency histograms
/// (`service/latency_us/<kernel>`), in microseconds: log-linear, eight
/// sub-buckets per power of two from 8 µs to about 16.8 s
/// ([`obs::log_linear_bounds`]), so a derived quantile gauge overstates
/// the true quantile by less than 12.5 %.
pub const LATENCY_BOUNDS_US: &[u64] = &obs::log_linear_bounds::<176>();

/// Upper-inclusive bounds for the queue-depth histogram
/// (`service/queue_depth_hist`), observed at every batch dequeue.
pub const QUEUE_DEPTH_BOUNDS: &[u64] = &[1, 2, 4, 8, 16, 32, 64, 128];

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// How batches execute on the runtime pool (threads, retries,
    /// chaos, quorum). The default is serial execution.
    pub exec: RuntimeConfig,
    /// Numeric precision the engine roster is built for.
    pub precision: Precision,
    /// Capacity of the CSR→BBC encoding cache (entries; 0 disables).
    pub encoding_cache_capacity: usize,
    /// Capacity of the compiled-task-stream cache (entries; 0 disables).
    pub stream_cache_capacity: usize,
    /// Whether to statically verify every stream with
    /// `analysis::UstcVerifier` before scheduling it.
    pub admission: bool,
    /// Most jobs the dispatcher folds into one batch drain.
    pub max_batch: usize,
    /// Bounded queue length, in envelopes; a full queue blocks
    /// [`Service::submit`] (backpressure, never loss).
    pub queue_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            exec: RuntimeConfig::serial(),
            precision: Precision::Fp64,
            encoding_cache_capacity: 64,
            stream_cache_capacity: 128,
            admission: true,
            max_batch: 32,
            queue_capacity: 64,
        }
    }
}

/// The compiled-stream identity of a request: kernel plus the content
/// fingerprints of every operand that shapes the task stream. Two jobs
/// with equal keys execute the identical [`TaskStream`].
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum StreamKey {
    Spmv { a: Fingerprint },
    Spmspv { a: Fingerprint, x: Fingerprint },
    Spmm { a: Fingerprint, n_cols: usize },
    Spgemm { a: Fingerprint, b: Fingerprint },
}

/// An admitted job, ready to batch: encoded operands plus its stream key.
struct Prepared {
    engine: String,
    key: StreamKey,
    kernel: Kernel,
    encoding_cached: bool,
    a: Arc<BbcMatrix>,
    b: Option<Arc<BbcMatrix>>,
    /// A detected fingerprint collision: the job runs alone, past every
    /// cache.
    collided: bool,
}

/// A cached value with the request it was computed from; it is served
/// only to requests whose operands are confirmed the same.
type Sourced<V> = (KernelRequest, V);

type JobResult = Result<JobResponse, JobError>;

struct QueuedJob {
    request: JobRequest,
    reply: mpsc::Sender<JobResult>,
    submitted: obs::WallSpan,
}

struct Envelope {
    jobs: Vec<QueuedJob>,
}

/// State shared between client threads and the dispatcher.
struct Shared {
    metrics: Mutex<MetricsRegistry>,
    /// BBC encodings, each with the CSR operand it encodes.
    encodings: SharedCache<Fingerprint, (Arc<CsrMatrix>, Arc<BbcMatrix>)>,
    /// Compiled counted streams, or the overflow that makes a key's
    /// report unrepresentable (a deterministic verdict, cached alike).
    streams: SharedCache<StreamKey, Sourced<Result<TaskStream, CounterOverflow>>>,
    /// Memoized admission verdicts: static verification is a pure
    /// function of the operand content a [`StreamKey`] names, so a
    /// repeated key replays the recorded verdict (accept *or* reject)
    /// instead of re-walking the encoded operands on every submission.
    /// This is what lets one operator fingerprint serve N solver
    /// iterations at cache-hit cost without weakening admission: every
    /// distinct content is still verified exactly once.
    verdicts: SharedCache<StreamKey, Sourced<Result<(), VerifyError>>>,
    queue_depth: AtomicU64,
}

impl Shared {
    fn metrics(&self) -> std::sync::MutexGuard<'_, MetricsRegistry> {
        self.metrics.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A pending job's receive side; [`JobHandle::wait`] blocks until the
/// dispatcher answers.
#[derive(Debug)]
pub struct JobHandle {
    rx: mpsc::Receiver<JobResult>,
}

impl JobHandle {
    /// Blocks until the job completes (or the service stops).
    ///
    /// # Errors
    ///
    /// Propagates the dispatcher's [`JobError`];
    /// [`JobError::ServiceStopped`] if the service shut down first.
    pub fn wait(self) -> JobResult {
        self.rx.recv().unwrap_or(Err(JobError::ServiceStopped))
    }
}

/// A running batch job service. Dropping it (or calling
/// [`Service::shutdown`]) drains the queue and joins the dispatcher.
pub struct Service {
    tx: Option<mpsc::SyncSender<Envelope>>,
    dispatcher: Option<std::thread::JoinHandle<()>>,
    shared: Arc<Shared>,
}

impl Service {
    /// Starts the dispatcher thread and returns the client handle.
    pub fn start(cfg: ServiceConfig) -> Self {
        let ids = Identities::new(cfg.encoding_cache_capacity, cfg.stream_cache_capacity);
        Service::start_with(cfg, ids)
    }

    /// [`Service::start`] with the given operand identity tables.
    fn start_with(cfg: ServiceConfig, ids: Identities) -> Self {
        let shared = Arc::new(Shared {
            metrics: Mutex::new(MetricsRegistry::new()),
            encodings: SharedCache::new(cfg.encoding_cache_capacity),
            streams: SharedCache::new(cfg.stream_cache_capacity),
            // Verdicts share the stream cache's working set: one entry
            // per distinct stream key, far smaller than its payload.
            verdicts: SharedCache::new(cfg.stream_cache_capacity),
            queue_depth: AtomicU64::new(0),
        });
        let (tx, rx) = mpsc::sync_channel(cfg.queue_capacity.max(1));
        let worker_shared = Arc::clone(&shared);
        let dispatcher = std::thread::Builder::new()
            .name("service-dispatcher".to_owned())
            .spawn(move || dispatch_loop(cfg, rx, worker_shared, ids));
        // Spawn failure leaves a service whose submits all answer
        // `ServiceStopped` — degraded but well-defined.
        Service { tx: Some(tx), dispatcher: dispatcher.ok(), shared }
    }

    /// Submits one job. Blocks while the queue is full (backpressure).
    pub fn submit(&self, request: JobRequest) -> JobHandle {
        let mut handles = self.submit_batch(vec![request]);
        // submit_batch returns exactly one handle per request.
        match handles.pop() {
            Some(h) => h,
            None => closed_handle(),
        }
    }

    /// Submits several jobs as one envelope: the dispatcher sees them
    /// together, so same-stream requests are guaranteed to share a batch
    /// (and its single execution).
    pub fn submit_batch(&self, requests: Vec<JobRequest>) -> Vec<JobHandle> {
        let mut handles = Vec::with_capacity(requests.len());
        let mut jobs = Vec::with_capacity(requests.len());
        for request in requests {
            let (reply, rx) = mpsc::channel();
            handles.push(JobHandle { rx });
            jobs.push(QueuedJob { request, reply, submitted: obs::WallSpan::start() });
        }
        let n = jobs.len() as u64;
        self.shared.metrics().inc_counter("service/jobs_submitted", n);
        self.shared.queue_depth.fetch_add(n, Ordering::Relaxed);
        let sent = match &self.tx {
            Some(tx) => tx.send(Envelope { jobs }).is_ok(),
            None => false,
        };
        if !sent {
            // The dispatcher is gone; the dropped reply senders make
            // every handle report `ServiceStopped`.
            self.shared.queue_depth.fetch_sub(n, Ordering::Relaxed);
        }
        handles
    }

    /// A point-in-time metrics snapshot: dispatcher counters and
    /// histograms (among them `service/sim_tasks_total`, the T1 tasks the
    /// executed streams stand for, and `service/sim_tasks_distinct`, the
    /// distinct ones actually simulated; `service/fingerprint_hashes`,
    /// the operands hashed, `service/operand_identity_hits`, the operand
    /// references resolved by allocation without hashing, and
    /// `service/fingerprint_collisions`, the cache entries or batch-mates
    /// that shared a job's fingerprint but not its content, so that the
    /// job was answered uncached) plus the caches' hit/miss/eviction tallies and
    /// eviction-pressure gauges (`service/encoding_cache_*`,
    /// `service/stream_cache_*`, `service/admission_cache_*`), and
    /// per-kernel latency quantile gauges
    /// (`service/latency_p50_us/<kernel>`,
    /// `service/latency_p99_us/<kernel>`) derived from the latency
    /// histograms at snapshot time.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut m = self.shared.metrics().clone();
        export_cache(&mut m, "service/encoding_cache", self.shared.encodings.stats());
        export_cache(&mut m, "service/stream_cache", self.shared.streams.stats());
        export_cache(&mut m, "service/admission_cache", self.shared.verdicts.stats());
        export_latency_quantiles(&mut m);
        m
    }

    /// Stops accepting work, drains the queue, joins the dispatcher and
    /// returns the final metrics snapshot.
    pub fn shutdown(mut self) -> MetricsRegistry {
        self.stop();
        self.metrics()
    }

    fn stop(&mut self) {
        self.tx.take();
        if let Some(handle) = self.dispatcher.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A handle whose reply channel is already closed: waiting on it yields
/// `ServiceStopped`.
fn closed_handle() -> JobHandle {
    let (_tx, rx) = mpsc::channel();
    JobHandle { rx }
}

fn export_identity(m: &mut MetricsRegistry, t: Tally) {
    m.inc_counter("service/fingerprint_hashes", t.hashes);
    m.inc_counter("service/operand_identity_hits", t.identity_hits);
    m.inc_counter("service/fingerprint_collisions", t.collisions);
}

fn export_cache(m: &mut MetricsRegistry, prefix: &str, s: CacheStats) {
    m.inc_counter(&format!("{prefix}_hits"), s.hits);
    m.inc_counter(&format!("{prefix}_misses"), s.misses);
    m.inc_counter(&format!("{prefix}_evictions"), s.evictions);
    m.inc_counter(&format!("{prefix}_inserts"), s.inserts);
    m.set_gauge(&format!("{prefix}_pressure"), s.pressure());
}

/// Derives p50/p99 gauges from every `service/latency_us/<kernel>`
/// histogram present in the snapshot. Quantiles are conservative bucket
/// upper bounds (see `obs::Histogram::quantile`), less than 12.5 % above
/// the true value on the [`LATENCY_BOUNDS_US`] grid; a tail that escaped
/// the bucket range reports as `u64::MAX` and fails any finite SLO gate.
fn export_latency_quantiles(m: &mut MetricsRegistry) {
    const PREFIX: &str = "service/latency_us/";
    let mut quantiles = Vec::new();
    for kernel in ["SpMV", "SpMSpV", "SpMM", "SpGEMM"] {
        if let Some(h) = m.histogram(&format!("{PREFIX}{kernel}")) {
            for (tag, q) in [("p50", 0.50), ("p99", 0.99)] {
                if let Some(v) = h.quantile(q) {
                    quantiles
                        .push((format!("service/latency_{tag}_us/{kernel}"), v as f64));
                }
            }
        }
    }
    for (name, v) in quantiles {
        m.set_gauge(&name, v);
    }
}

/// The engine roster the service dispatches to: all seven engines of the
/// paper's comparison, keyed by display name.
fn engine_roster(precision: Precision) -> Engines {
    let engines: Vec<Box<dyn TileEngine + Send + Sync>> = vec![
        Box::new(baselines::NvDtc::new(precision)),
        Box::new(baselines::Gamma::new(precision)),
        Box::new(baselines::Sigma::new(precision)),
        Box::new(baselines::Trapezoid::new(precision)),
        Box::new(baselines::DsStc::new(precision)),
        Box::new(baselines::RmStc::new(precision)),
        Box::new(UniStc::new(UniStcConfig::with_precision(precision))),
    ];
    engines.into_iter().map(|e| (e.name().to_owned(), e)).collect()
}

fn dispatch_loop(
    cfg: ServiceConfig,
    rx: mpsc::Receiver<Envelope>,
    shared: Arc<Shared>,
    mut ids: Identities,
) {
    let engines = engine_roster(cfg.precision);
    let verifier = cfg
        .admission
        .then(|| UstcVerifier::new(UniStcConfig::with_precision(cfg.precision)));
    let em = EnergyModel::default();
    while let Ok(first) = rx.recv() {
        let mut jobs = first.jobs;
        // Opportunistically fold queued envelopes into this drain, up to
        // the batch cap: jobs that share a stream key then execute once.
        while jobs.len() < cfg.max_batch.max(1) {
            match rx.try_recv() {
                Ok(env) => jobs.extend(env.jobs),
                Err(_) => break,
            }
        }
        shared.queue_depth.fetch_sub(jobs.len() as u64, Ordering::Relaxed);
        let depth_after = shared.queue_depth.load(Ordering::Relaxed);
        {
            let mut m = shared.metrics();
            m.inc_counter("service/batches", 1);
            m.set_gauge("service/queue_depth", depth_after as f64);
            m.observe("service/queue_depth_hist", QUEUE_DEPTH_BOUNDS, depth_after);
        }
        run_batch(&cfg, &engines, verifier.as_ref(), &em, &shared, &mut ids, jobs);
    }
}

type Engines = BTreeMap<String, Box<dyn TileEngine + Send + Sync>>;

/// A prepared job with its queue entry.
type Member = (Prepared, QueuedJob);

/// Admits, groups and executes one drained batch, answering every job.
fn run_batch(
    cfg: &ServiceConfig,
    engines: &Engines,
    verifier: Option<&UstcVerifier>,
    em: &EnergyModel,
    shared: &Shared,
    ids: &mut Identities,
    jobs: Vec<QueuedJob>,
) {
    // Group admitted jobs by (engine, stream key). A key is a hash, so a
    // job joins a group only if its operands are confirmed the same as
    // the group's first job's; otherwise it collided and, like a job
    // that collided with a cache entry, runs alone. Rejections answer now.
    let mut groups: BTreeMap<(String, StreamKey), Vec<Member>> = BTreeMap::new();
    let mut alone = Vec::new();
    for job in jobs {
        let mut p = match prepare(&job.request, engines, verifier, shared, ids) {
            Ok(p) => p,
            Err(e) => {
                shared.metrics().inc_counter("service/jobs_rejected", 1);
                answer(job, Err(e));
                continue;
            }
        };
        if !p.collided {
            let members = groups.entry((p.engine.clone(), p.key.clone())).or_default();
            let same = members
                .first()
                .is_none_or(|(_, head)| ids.same_request(&head.request.kernel, &job.request.kernel));
            if same {
                members.push((p, job));
                continue;
            }
            ids.collision();
            p.collided = true;
        }
        alone.push(vec![(p, job)]);
    }
    export_identity(&mut shared.metrics(), ids.take_tally());
    for members in groups.into_values().chain(alone) {
        execute(cfg, engines, em, shared, ids, members);
    }
}

/// Runs one group of jobs that share a stream once and answers each job.
fn execute(
    cfg: &ServiceConfig,
    engines: &Engines,
    em: &EnergyModel,
    shared: &Shared,
    ids: &mut Identities,
    members: Vec<Member>,
) {
    let batch_size = members.len();
    let (first, first_job) = &members[0];
    let (kernel, engine_name) = (first.kernel, first.engine.clone());
    let Some(engine) = engines.get(&engine_name) else {
        // Unreachable: `prepare` validated the name. Answer anyway.
        for (_, job) in members {
            answer(job, Err(JobError::UnknownEngine { name: engine_name.clone() }));
        }
        return;
    };
    let sources = &first_job.request.kernel;
    let mut lookups = Lookups { ids, collided: first.collided };
    let (stream, stream_cached) = lookups.get(
        &shared.streams,
        &first.key,
        |ids, (held, _)| ids.same_request(held, sources),
        || (sources.clone(), compile(first, sources)),
    );
    shared
        .metrics()
        .observe("service/batch_size", &[1, 2, 4, 8, 16, 32], batch_size as u64);
    let run = match &stream.1 {
        Ok(stream) => {
            {
                let mut m = shared.metrics();
                m.inc_counter("service/sim_tasks_total", stream.total());
                m.inc_counter("service/sim_tasks_distinct", stream.len() as u64);
            }
            let plan = ShardPlan::contiguous(stream.len(), cfg.exec.threads);
            run_stream_planned(&cfg.exec, &plan, engine.as_ref(), em, kernel, stream)
        }
        Err(overflow) => Err(PlannedRunError::Overflow(*overflow)),
    };
    // Release every reference to the clients' operands before replying.
    drop(stream);
    let replies: Vec<_> = members
        .into_iter()
        .map(|(p, job)| (p.encoding_cached, job.submitted, job.reply))
        .collect();
    let result = run.map_err(|e| match e {
        PlannedRunError::Rejected(p) => {
            JobError::Rejected { code: shard_plan_code(&p).to_owned(), message: p.to_string() }
        }
        PlannedRunError::Execution(d) => JobError::Execution(d.to_string()),
        // The counted fold cannot represent the exact report.
        PlannedRunError::Overflow(o) => JobError::Rejected {
            code: "USTC017".to_owned(),
            message: format!("{kernel} on {engine_name}: {o}"),
        },
    });
    {
        let mut m = shared.metrics();
        export_identity(&mut m, ids.take_tally());
        match &result {
            Ok(run) => {
                run.stats.export_metrics(&mut m);
                if let Some(d) = &run.degraded {
                    d.export_metrics(&mut m);
                    m.inc_counter("service/degraded_jobs", batch_size as u64);
                }
                m.inc_counter("service/jobs_completed", batch_size as u64);
            }
            Err(_) => m.inc_counter("service/jobs_rejected", batch_size as u64),
        }
    }
    for (encoding_cached, submitted, reply) in replies {
        let response = match &result {
            Ok(run) => {
                let latency = submitted.elapsed().as_micros().min(u128::from(u64::MAX));
                shared.metrics().observe(
                    &format!("service/latency_us/{kernel}"),
                    LATENCY_BOUNDS_US,
                    latency as u64,
                );
                Ok(JobResponse {
                    report: run.report.clone(),
                    encoding_cached,
                    stream_cached,
                    batch_size,
                    degraded: run.degraded.is_some(),
                })
            }
            Err(e) => Err(e.clone()),
        };
        let _ = reply.send(response);
    }
}

/// Answers a job, dropping its request first so that the service holds
/// no reference to the job's operands by the time the reply arrives.
fn answer(job: QueuedJob, result: JobResult) {
    let QueuedJob { request, reply, .. } = job;
    drop(request);
    let _ = reply.send(result);
}

/// The `analysis::concurrency` diagnostic code for a shard-plan
/// violation: overlap `USTC014`, gap `USTC015`, malformed `USTC016`.
fn shard_plan_code(e: &ShardPlanError) -> &'static str {
    match e {
        ShardPlanError::Overlap { .. } => "USTC014",
        ShardPlanError::Gap { .. } => "USTC015",
        ShardPlanError::EmptyShard { .. } | ShardPlanError::OutOfRange { .. } => "USTC016",
    }
}

/// One job's access to the caches: confirmed lookups until a collision
/// is detected, and none after it.
struct Lookups<'a> {
    ids: &'a mut Identities,
    collided: bool,
}

impl Lookups<'_> {
    /// The value cached under `key` if `confirm` accepts the entry;
    /// otherwise `compute()`, stored after a miss but never after a
    /// collision, which also marks the job. The flag reports a hit.
    fn get<K: Ord + Clone, V>(
        &mut self,
        cache: &SharedCache<K, V>,
        key: &K,
        mut confirm: impl FnMut(&mut Identities, &V) -> bool,
        compute: impl FnOnce() -> V,
    ) -> (Arc<V>, bool) {
        if self.collided {
            return (Arc::new(compute()), false);
        }
        let ids = &mut *self.ids;
        let (v, outcome) = cache.get_confirmed_or_insert_with(key, |v| confirm(ids, v), compute);
        if outcome == Outcome::Collision {
            self.collided = true;
            self.ids.collision();
        }
        (v, outcome == Outcome::Hit)
    }
}

/// Resolves an operand to its BBC encoding through the encoding cache.
/// Returns the encoding, the *submitted representation's* fingerprint
/// (the cache and stream keys), and whether no fresh encoding work ran
/// (a confirmed cache hit, or a client-supplied BBC that needs none).
fn resolve(
    op: &Operand,
    shared: &Shared,
    job: &mut Lookups<'_>,
) -> (Arc<BbcMatrix>, Fingerprint, bool) {
    let fp = job.ids.operand(op);
    match op {
        Operand::Bbc(m) => (Arc::clone(m), fp, true),
        Operand::Csr(m) => {
            let (entry, hit) = job.get(
                &shared.encodings,
                &fp,
                |ids, (source, _)| ids.same_csr(source, m),
                || (Arc::clone(m), Arc::new(BbcMatrix::from_csr(m))),
            );
            (Arc::clone(&entry.1), fp, hit)
        }
    }
}

fn reject(e: VerifyError) -> JobError {
    JobError::Rejected { code: e.code, message: e.message }
}

/// Runs admission control through the verdict memo: on the first
/// sighting of `key` the verifier walks the operands and the verdict —
/// accept or reject — is recorded; every repeat with confirmed operands
/// replays it without re-verification. No-op when admission is off.
fn admit(
    verifier: Option<&UstcVerifier>,
    shared: &Shared,
    job: &mut Lookups<'_>,
    key: &StreamKey,
    req: &KernelRequest,
    verify: impl FnOnce(&UstcVerifier) -> Result<(), VerifyError>,
) -> Result<(), JobError> {
    let Some(v) = verifier else { return Ok(()) };
    let (verdict, _) = job.get(
        &shared.verdicts,
        key,
        |ids, (held, _)| ids.same_request(held, req),
        || (req.clone(), verify(v)),
    );
    verdict.1.clone().map_err(reject)
}

/// Validates, encodes and admits one request.
fn prepare(
    req: &JobRequest,
    engines: &Engines,
    verifier: Option<&UstcVerifier>,
    shared: &Shared,
    ids: &mut Identities,
) -> Result<Prepared, JobError> {
    let engine = req.engine.clone().unwrap_or_else(|| DEFAULT_ENGINE.to_owned());
    if !engines.contains_key(&engine) {
        return Err(JobError::UnknownEngine { name: engine });
    }
    let mut job = Lookups { ids, collided: false };
    let sources = &req.kernel;
    let (key, a, b, encoding_cached) = match sources {
        KernelRequest::SpMV { a } => {
            let (a, fp, hit) = resolve(a, shared, &mut job);
            let key = StreamKey::Spmv { a: fp };
            admit(verifier, shared, &mut job, &key, sources, |v| v.verify_spmv(&a))?;
            (key, a, None, hit)
        }
        KernelRequest::SpMSpV { a, x } => {
            let (a, fp, hit) = resolve(a, shared, &mut job);
            let key = StreamKey::Spmspv { a: fp, x: job.ids.vector(x) };
            admit(verifier, shared, &mut job, &key, sources, |v| v.verify_spmspv(&a, x))?;
            // Like the SpGEMM grid gate below, this holds with admission
            // off: a mismatched `x` would silently mask blocks.
            if x.dim() != a.ncols() {
                return Err(JobError::Rejected {
                    code: "USTC012".to_owned(),
                    message: analysis::spmspv_shape_message(&a, x),
                });
            }
            (key, a, None, hit)
        }
        KernelRequest::SpMM { a, n_cols } => {
            let (a, fp, hit) = resolve(a, shared, &mut job);
            let key = StreamKey::Spmm { a: fp, n_cols: *n_cols };
            admit(verifier, shared, &mut job, &key, sources, |v| v.verify_spmm(&a, *n_cols))?;
            (key, a, None, hit)
        }
        KernelRequest::SpGEMM { a, b } => {
            let (a, fp_a, hit_a) = resolve(a, shared, &mut job);
            let (b, fp_b, hit_b) = resolve(b, shared, &mut job);
            let key = StreamKey::Spgemm { a: fp_a, b: fp_b };
            admit(verifier, shared, &mut job, &key, sources, |v| v.verify_spgemm(&a, &b))?;
            // The task compiler cannot represent a non-conforming grid
            // (it would panic), so this gate holds even with admission
            // off — the same `USTC012` the verifier reports.
            if a.block_cols() != b.block_rows() {
                return Err(JobError::Rejected {
                    code: "USTC012".to_owned(),
                    message: analysis::spgemm_shape_message(&a, &b),
                });
            }
            (key, a, Some(b), hit_a && hit_b)
        }
    };
    Ok(Prepared {
        engine,
        key,
        kernel: sources.kernel(),
        encoding_cached,
        a,
        b,
        collided: job.collided,
    })
}

/// Compiles the counted task stream for an admitted job — exactly the
/// stream the serial driver would run, so caching it preserves
/// bit-identity.
fn compile(p: &Prepared, req: &KernelRequest) -> Result<TaskStream, CounterOverflow> {
    match (req, &p.b) {
        (KernelRequest::SpMV { .. }, _) => Ok(driver::spmv_stream(&p.a)),
        (KernelRequest::SpMSpV { x, .. }, _) => Ok(driver::spmspv_stream(&p.a, x)),
        (KernelRequest::SpMM { n_cols, .. }, _) => driver::spmm_stream(&p.a, *n_cols),
        (KernelRequest::SpGEMM { .. }, Some(b)) => Ok(driver::spgemm_stream(&p.a, b)),
        (KernelRequest::SpGEMM { .. }, None) => Ok(TaskStream::default()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::identity::tests::degenerate;
    use sparse::CooMatrix;

    /// A service whose operand fingerprints all collide, so only
    /// confirmation tells its operands apart.
    fn colliding(cfg: ServiceConfig) -> Service {
        let ids = degenerate(cfg.encoding_cache_capacity, cfg.stream_cache_capacity);
        Service::start_with(cfg, ids)
    }

    fn csr(entries: &[(usize, usize, f64)]) -> Arc<CsrMatrix> {
        let mut coo = CooMatrix::new(32, 32);
        for &(r, c, v) in entries {
            coo.push(r, c, v);
        }
        Arc::new(CsrMatrix::try_from(coo).expect("valid test matrix"))
    }

    fn serial_spmv(a: &CsrMatrix) -> String {
        let engine = UniStc::new(UniStcConfig::with_precision(Precision::Fp64));
        driver::run_spmv(&engine, &EnergyModel::default(), &BbcMatrix::from_csr(a))
            .counter_signature()
    }

    fn spmv(a: &Arc<CsrMatrix>) -> JobRequest {
        JobRequest::new(KernelRequest::SpMV { a: Arc::clone(a).into() })
    }

    fn run(svc: &Service, a: &Arc<CsrMatrix>) -> JobResponse {
        svc.submit(spmv(a)).wait().expect("legal stream")
    }

    #[test]
    fn a_forced_collision_is_answered_uncached() {
        let one = csr(&[(0, 0, 1.0), (17, 3, -2.5)]);
        let two = csr(&[(0, 0, 1.0), (17, 20, -2.5), (30, 30, 4.0)]);
        assert_ne!(serial_spmv(&one), serial_spmv(&two), "the operands run different streams");
        let svc = colliding(ServiceConfig::default());
        let first = run(&svc, &one);
        let second = run(&svc, &two);
        assert_eq!(first.report.counter_signature(), serial_spmv(&one));
        assert_eq!(second.report.counter_signature(), serial_spmv(&two));
        assert!(!second.encoding_cached && !second.stream_cached, "nothing served across content");
        // The dispatcher still serves, and the first operand's entries
        // were neither replaced nor disturbed.
        let again = run(&svc, &one);
        assert!(again.encoding_cached && again.stream_cached);
        assert_eq!(again.report.counter_signature(), serial_spmv(&one));
        let m = svc.shutdown();
        assert_eq!(m.counter("service/fingerprint_collisions"), 1);
        assert_eq!(m.counter("service/encoding_cache_inserts"), 1);
        assert_eq!(m.counter("service/jobs_completed"), 3);
    }

    #[test]
    fn colliding_jobs_in_one_drain_never_share_a_stream() {
        // With no caches, only the batch grouping could merge the two.
        let one = csr(&[(0, 0, 1.0)]);
        let two = csr(&[(0, 0, 1.0), (31, 31, 2.0)]);
        let svc = colliding(ServiceConfig {
            encoding_cache_capacity: 0,
            stream_cache_capacity: 0,
            ..ServiceConfig::default()
        });
        let replies: Vec<_> = svc
            .submit_batch(vec![spmv(&one), spmv(&two), spmv(&one)])
            .into_iter()
            .map(|h| h.wait().expect("legal stream"))
            .collect();
        let sigs: Vec<_> = replies.iter().map(|r| r.report.counter_signature()).collect();
        assert_eq!(sigs, [serial_spmv(&one), serial_spmv(&two), serial_spmv(&one)]);
        assert_eq!(replies.iter().map(|r| r.batch_size).collect::<Vec<_>>(), [2, 1, 2]);
        assert_eq!(svc.shutdown().counter("service/fingerprint_collisions"), 1);
    }

    #[test]
    fn confirmation_compares_value_bits_not_floats() {
        // 0.0 == -0.0 as floats, yet the operands are different content:
        // the second must not be served the first's entries.
        let svc = colliding(ServiceConfig::default());
        run(&svc, &csr(&[(0, 0, 0.0), (5, 5, 1.0)]));
        let signed = run(&svc, &csr(&[(0, 0, -0.0), (5, 5, 1.0)]));
        assert!(!signed.encoding_cached && !signed.stream_cached);
        assert_eq!(svc.shutdown().counter("service/fingerprint_collisions"), 1);

        // NaN != NaN as floats, yet a NaN-valued operand in a fresh
        // allocation is the same content and must hit: its encoding and
        // its memoized admission verdict (non-finite values are USTC012).
        let svc = colliding(ServiceConfig::default());
        let nan = csr(&[(0, 0, f64::NAN), (5, 5, 1.0)]);
        let twin = Arc::new(CsrMatrix::clone(&nan));
        for a in [&nan, &twin] {
            let err = svc.submit(spmv(a)).wait().expect_err("non-finite values are rejected");
            assert!(matches!(err, JobError::Rejected { ref code, .. } if code == "USTC012"));
        }
        let m = svc.shutdown();
        assert_eq!(m.counter("service/encoding_cache_hits"), 1);
        assert_eq!(m.counter("service/admission_cache_hits"), 1);
        assert_eq!(m.counter("service/fingerprint_collisions"), 0);
    }

    /// The p50/p99 gauges a snapshot derives from `samples_us`.
    fn gauges(samples_us: impl IntoIterator<Item = u64>) -> (f64, f64) {
        let mut m = MetricsRegistry::new();
        for v in samples_us {
            m.observe("service/latency_us/SpMV", LATENCY_BOUNDS_US, v);
        }
        export_latency_quantiles(&mut m);
        let g = |tag: &str| m.gauge(&format!("service/latency_{tag}_us/SpMV")).unwrap();
        (g("p50"), g("p99"))
    }

    #[test]
    fn latency_quantiles_resolve_within_an_eighth() {
        // ~2 ms and ~20 ms populations, 100 samples each, spread ±10 %.
        let population = |centre: u64| (0..100).map(move |i| centre * (90 + i / 5) / 100);
        let (fast_p50, fast_p99) = gauges(population(2_000));
        let (slow_p50, slow_p99) = gauges(population(20_000));
        for (gauge, truth) in [
            (fast_p50, 1_980.0),
            (fast_p99, 2_180.0),
            (slow_p50, 19_800.0),
            (slow_p99, 21_800.0),
        ] {
            assert!(gauge >= truth && gauge < truth * 1.125, "{gauge} vs {truth}");
        }
        assert!(fast_p50 < fast_p99 && slow_p50 < slow_p99, "quantiles within a population");
        assert!(fast_p99 < slow_p50, "the populations do not share a bucket");

        // Both populations in one histogram: p50 from the fast one, p99
        // from the slow one.
        let (p50, p99) = gauges(population(2_000).chain(population(20_000)).take(190));
        assert!(p50 < 2_500.0 && p99 > 19_000.0, "p50={p50} p99={p99}");
    }
}
