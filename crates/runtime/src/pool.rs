//! The supervised work-stealing pool.
//!
//! [`run`] executes `n` independent tasks over a fixed worker set and
//! returns one [`TaskOutcome`] per task plus scheduler statistics, a
//! possible [`DegradedReport`], and the scheduler's lifecycle trace.
//!
//! # Supervision model
//!
//! A supervisor (the calling thread) owns all mutable bookkeeping; workers
//! only pull `Attempt`s from deques and report what happened over a
//! channel. Per-attempt faults are isolated with
//! [`std::panic::catch_unwind`], so a panicking task function costs one
//! attempt, never a worker. Failures split into two classes:
//!
//! * **infrastructure** — injected worker crashes, watchdog-detected
//!   stalls, transient flakes. These requeue the task with exponential
//!   backoff; once a task has burned its infrastructure budget the
//!   supervisor executes it *inline, chaos-free* (the serial fallback), so
//!   no amount of injected chaos can fail a healthy task.
//! * **intrinsic** — the task function itself panicked or returned an
//!   error. These retry up to [`RuntimeConfig::max_retries`] times and then
//!   surface as [`TaskOutcome::Failed`].
//!
//! When crashes shrink the pool below [`RuntimeConfig::quorum`], the
//! supervisor stops dispatching, drains every unfinished task serially on
//! its own thread, and reports the downgrade as a [`DegradedReport`]
//! instead of an error.
//!
//! # Determinism
//!
//! Task functions are required to be pure (same `(index, item)` in, same
//! value out). Outcomes are keyed by task index and the first delivered
//! result wins, so the *values* in [`RunReport::outcomes`] are independent
//! of worker count, steal order, chaos plan and wall-clock timing — only
//! the statistics and the trace vary. The kernel layer builds its
//! bit-identical report merging on exactly this property.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::chaos::ChaosPlan;

/// Exponential retry backoff: attempt `k` waits
/// `base * growth^k` microseconds, capped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backoff {
    /// Delay before the first retry, in microseconds.
    pub base_micros: u64,
    /// Multiplier applied per retry.
    pub growth: u64,
    /// Upper bound on any single delay, in microseconds.
    pub cap_micros: u64,
}

impl Backoff {
    /// No delay between retries.
    pub fn none() -> Self {
        Backoff { base_micros: 0, growth: 1, cap_micros: 0 }
    }

    /// Doubling backoff from `base_micros` up to `cap_micros`.
    pub fn exponential(base_micros: u64, cap_micros: u64) -> Self {
        Backoff { base_micros, growth: 2, cap_micros }
    }

    /// The delay before retry number `retry` (0-based).
    pub fn delay(&self, retry: u32) -> Duration {
        let mut d = self.base_micros;
        for _ in 0..retry {
            d = d.saturating_mul(self.growth);
            if d >= self.cap_micros {
                d = self.cap_micros;
                break;
            }
        }
        Duration::from_micros(d.min(self.cap_micros))
    }
}

/// Scheduler configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuntimeConfig {
    /// Worker threads; `1` executes on the calling thread with no pool.
    pub threads: usize,
    /// Retry budget per failure class (intrinsic and infrastructure each
    /// get `max_retries` retries beyond the first attempt).
    pub max_retries: u32,
    /// Delay schedule between retries.
    pub backoff: Backoff,
    /// Per-attempt watchdog deadline; an attempt running longer is
    /// presumed stalled and reassigned.
    pub task_deadline: Duration,
    /// Minimum live workers; below this the pool degrades to serial.
    pub quorum: usize,
    /// Chaos injection plan ([`ChaosPlan::none`] for production runs).
    pub chaos: ChaosPlan,
}

impl RuntimeConfig {
    /// Single-threaded execution on the calling thread.
    pub fn serial() -> Self {
        Self::with_threads(1)
    }

    /// A pool of `threads` workers with default resilience parameters:
    /// 3 retries, 50 µs doubling backoff capped at 5 ms, a 5 s watchdog,
    /// and quorum at half the pool (rounded up).
    pub fn with_threads(threads: usize) -> Self {
        let threads = threads.max(1);
        RuntimeConfig {
            threads,
            max_retries: 3,
            backoff: Backoff::exponential(50, 5_000),
            task_deadline: Duration::from_secs(5),
            quorum: threads.div_ceil(2),
            chaos: ChaosPlan::none(0),
        }
    }

    /// This configuration with a chaos plan attached.
    pub fn with_chaos(mut self, chaos: ChaosPlan) -> Self {
        self.chaos = chaos;
        self
    }
}

/// Why a task failed for good (intrinsic failure, budget exhausted).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskError {
    /// The task function panicked; the payload message is preserved.
    Panicked(String),
    /// The task function returned an error.
    Failed(String),
}

impl std::fmt::Display for TaskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaskError::Panicked(msg) => write!(f, "task panicked: {msg}"),
            TaskError::Failed(msg) => write!(f, "task failed: {msg}"),
        }
    }
}

impl std::error::Error for TaskError {}

/// Final state of one task.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskOutcome<R> {
    /// The task produced a value.
    Done(R),
    /// The task failed intrinsically on every attempt.
    Failed {
        /// Attempts consumed (first try plus retries).
        attempts: u32,
        /// The last intrinsic error observed.
        error: TaskError,
    },
}

impl<R> TaskOutcome<R> {
    /// Whether the task produced a value.
    pub fn is_done(&self) -> bool {
        matches!(self, TaskOutcome::Done(_))
    }
}

/// Scheduler statistics for one [`run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStats {
    /// Worker threads spawned (0 in serial mode).
    pub workers: usize,
    /// Successful steals between worker deques.
    pub steals: u64,
    /// Requeues of any kind (intrinsic retries and infrastructure
    /// requeues).
    pub retries: u64,
    /// Injected transient failures observed.
    pub flakes: u64,
    /// Worker threads lost to injected crashes.
    pub crashes: u64,
    /// Attempts the watchdog declared stalled and reassigned.
    pub stalls_detected: u64,
    /// Tasks the supervisor executed inline after their infrastructure
    /// budget ran out.
    pub drained_inline: u64,
}

impl RunStats {
    /// Accumulates the scheduler counters into `reg` (under `runtime/`),
    /// and records the worker count as a gauge. Degradation events and
    /// scheduler health thereby surface in any metrics export — e.g. the
    /// `perf_regression` BENCH documents — instead of living only in the
    /// Chrome trace track.
    pub fn export_metrics(&self, reg: &mut obs::MetricsRegistry) {
        reg.set_gauge("runtime/pool_workers", self.workers as f64);
        reg.inc_counter("runtime/steals", self.steals);
        reg.inc_counter("runtime/retries", self.retries);
        reg.inc_counter("runtime/flakes", self.flakes);
        reg.inc_counter("runtime/crashes", self.crashes);
        reg.inc_counter("runtime/stalls_detected", self.stalls_detected);
        reg.inc_counter("runtime/drained_inline", self.drained_inline);
    }
}

/// The pool fell below quorum and finished the run serially.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradedReport {
    /// Workers still alive when the pool degraded.
    pub live_workers: usize,
    /// The quorum that was no longer met.
    pub quorum: usize,
    /// Tasks the supervisor drained serially after degrading.
    pub tasks_drained: usize,
}

impl DegradedReport {
    /// Exposes the degradation event as gauges (under `runtime/`) and
    /// bumps the `runtime/degraded_runs` counter, so quorum losses are
    /// visible in metrics exports, not only in the trace.
    pub fn export_metrics(&self, reg: &mut obs::MetricsRegistry) {
        reg.inc_counter("runtime/degraded_runs", 1);
        reg.set_gauge("runtime/degraded_live_workers", self.live_workers as f64);
        reg.set_gauge("runtime/degraded_quorum", self.quorum as f64);
        reg.inc_counter("runtime/degraded_tasks_drained", self.tasks_drained as u64);
    }
}

impl std::fmt::Display for DegradedReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "pool degraded to serial: {} live workers < quorum {}; drained {} tasks",
            self.live_workers, self.quorum, self.tasks_drained
        )
    }
}

/// Everything one [`run`] produced.
#[derive(Debug, Clone)]
pub struct RunReport<R> {
    /// One outcome per input task, in input order.
    pub outcomes: Vec<TaskOutcome<R>>,
    /// Scheduler statistics.
    pub stats: RunStats,
    /// Present iff the pool fell below quorum and degraded to serial.
    pub degraded: Option<DegradedReport>,
    /// Scheduler lifecycle events (spawn / steal / retry / crash /
    /// degrade), timestamped in microseconds since the run started.
    pub trace: Vec<obs::TraceEvent>,
}

impl<R> RunReport<R> {
    /// Tasks that failed for good, as `(index, attempts, error)`.
    pub fn failures(&self) -> Vec<(usize, u32, &TaskError)> {
        self.outcomes
            .iter()
            .enumerate()
            .filter_map(|(i, o)| match o {
                TaskOutcome::Done(_) => None,
                TaskOutcome::Failed { attempts, error } => Some((i, *attempts, error)),
            })
            .collect()
    }

    /// Replays the scheduler lifecycle trace into `sink`.
    pub fn replay_trace(&self, sink: &mut dyn obs::TraceSink) {
        if !sink.enabled() {
            return;
        }
        for ev in &self.trace {
            sink.record(*ev);
        }
    }
}

/// One unit of queued work: which task, which attempt, and the earliest
/// instant it may execute (backoff).
#[derive(Debug, Clone, Copy)]
struct Attempt {
    index: usize,
    attempt: u32,
    not_before: Instant,
}

/// What a worker observed executing one attempt.
enum Fault {
    /// Injected transient failure; the task function never ran.
    Flaked,
    /// The task function returned an error.
    Errored(String),
    /// The task function panicked (caught).
    Panicked(String),
}

/// Worker-to-supervisor messages.
enum Msg<R> {
    Started { index: usize, attempt: u32 },
    Finished { index: usize, result: Result<R, Fault> },
    Stole { worker: u32, victim: u32 },
    Crashed { worker: u32, index: usize },
}

/// State shared between workers and supervisor.
struct Shared {
    /// One deque per worker; workers pop their own front, steal others'
    /// back. A crashed worker's leftover deque stays stealable.
    queues: Vec<Mutex<VecDeque<Attempt>>>,
    /// Overflow queue for requeued work; any worker may pull from it.
    injector: Mutex<VecDeque<Attempt>>,
    /// Set by the supervisor when the run is over (or degraded).
    shutdown: AtomicBool,
}

/// How long an idle worker naps before re-polling the queues.
const IDLE_NAP: Duration = Duration::from_micros(200);

fn lock(q: &Mutex<VecDeque<Attempt>>) -> std::sync::MutexGuard<'_, VecDeque<Attempt>> {
    // A worker panicking while holding a queue lock is impossible (pushes
    // and pops don't panic), but recover rather than propagate anyway.
    q.lock().unwrap_or_else(|e| e.into_inner())
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_owned()
    }
}

/// Executes one attempt of task `index` with panic isolation.
fn execute_once<T, R, F>(index: usize, items: &[T], f: &F) -> Result<R, TaskError>
where
    F: Fn(usize, &T) -> Result<R, String>,
{
    match catch_unwind(AssertUnwindSafe(|| f(index, &items[index]))) {
        Ok(Ok(r)) => Ok(r),
        Ok(Err(e)) => Err(TaskError::Failed(e)),
        Err(payload) => Err(TaskError::Panicked(panic_message(payload.as_ref()))),
    }
}

/// Pulls the next attempt for worker `id`: own deque, then the injector,
/// then stealing from the other deques (reporting the steal).
fn pop_work<R>(shared: &Shared, id: usize, tx: &mpsc::Sender<Msg<R>>) -> Option<Attempt> {
    if let Some(att) = lock(&shared.queues[id]).pop_front() {
        return Some(att);
    }
    if let Some(att) = lock(&shared.injector).pop_front() {
        return Some(att);
    }
    for offset in 1..shared.queues.len() {
        let victim = (id + offset) % shared.queues.len();
        if let Some(att) = lock(&shared.queues[victim]).pop_back() {
            let _ = tx.send(Msg::Stole { worker: id as u32, victim: victim as u32 });
            return Some(att);
        }
    }
    None
}

/// The worker thread body. Returns when the supervisor signals shutdown —
/// or early, if the chaos plan crashes this worker.
fn worker_loop<T, R, F>(
    id: u32,
    shared: &Shared,
    items: &[T],
    f: &F,
    chaos: ChaosPlan,
    tx: &mpsc::Sender<Msg<R>>,
) where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> Result<R, String> + Sync,
{
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let Some(att) = pop_work(shared, id as usize, tx) else {
            std::thread::sleep(IDLE_NAP);
            continue;
        };
        let now = Instant::now();
        if att.not_before > now {
            // Backoff not elapsed: park it on the injector and nap.
            lock(&shared.injector).push_back(att);
            std::thread::sleep(IDLE_NAP.min(att.not_before - now));
            continue;
        }
        let _ = tx.send(Msg::Started { index: att.index, attempt: att.attempt });
        if chaos.crashes(att.index as u64, att.attempt) {
            // Simulated hard crash: this thread leaves the pool for good.
            let _ = tx.send(Msg::Crashed { worker: id, index: att.index });
            return;
        }
        if chaos.stalls(att.index as u64, att.attempt) {
            std::thread::sleep(Duration::from_micros(chaos.stall_micros));
        }
        let result = if chaos.flakes(att.index as u64, att.attempt) {
            Err(Fault::Flaked)
        } else {
            match catch_unwind(AssertUnwindSafe(|| f(att.index, &items[att.index]))) {
                Ok(Ok(r)) => Ok(r),
                Ok(Err(e)) => Err(Fault::Errored(e)),
                Err(payload) => Err(Fault::Panicked(panic_message(payload.as_ref()))),
            }
        };
        let _ = tx.send(Msg::Finished { index: att.index, result });
    }
}

/// Supervisor-side per-run bookkeeping.
struct Supervisor<R> {
    start: Instant,
    outcomes: Vec<Option<TaskOutcome<R>>>,
    /// Next attempt number to hand out per task (attempt 0 is seeded).
    next_attempt: Vec<u32>,
    /// Infrastructure failures charged per task.
    infra_used: Vec<u32>,
    /// Intrinsic failures charged per task.
    intrinsic_used: Vec<u32>,
    last_error: Vec<Option<TaskError>>,
    /// Watchdog state: `(attempt, deadline)` for the attempt believed to be
    /// running.
    in_flight: Vec<Option<(u32, Instant)>>,
    completed: usize,
    stats: RunStats,
    trace: Vec<obs::TraceEvent>,
}

impl<R> Supervisor<R> {
    fn new(n: usize, start: Instant) -> Self {
        Supervisor {
            start,
            outcomes: (0..n).map(|_| None).collect(),
            next_attempt: vec![1; n],
            infra_used: vec![0; n],
            intrinsic_used: vec![0; n],
            last_error: (0..n).map(|_| None).collect(),
            in_flight: vec![None; n],
            completed: 0,
            stats: RunStats::default(),
            trace: Vec::new(),
        }
    }

    /// Microseconds since the run started (the trace clock).
    fn now_us(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    fn record_done(&mut self, index: usize, value: R) {
        if self.outcomes[index].is_none() {
            self.outcomes[index] = Some(TaskOutcome::Done(value));
            self.completed += 1;
        }
        self.in_flight[index] = None;
    }

    fn record_failed(&mut self, index: usize, error: TaskError) {
        if self.outcomes[index].is_none() {
            let attempts = self.intrinsic_used[index].max(1);
            self.outcomes[index] = Some(TaskOutcome::Failed { attempts, error });
            self.completed += 1;
        }
        self.in_flight[index] = None;
    }

    /// Requeues task `index` on the injector with `delay` backoff.
    fn requeue(&mut self, index: usize, delay: Duration, injector: &Mutex<VecDeque<Attempt>>) {
        let attempt = self.next_attempt[index];
        self.next_attempt[index] += 1;
        self.stats.retries += 1;
        self.trace.push(obs::TraceEvent::TaskRetry {
            cycle: self.now_us(),
            task: index as u64,
            attempt,
        });
        let not_before = Instant::now() + delay;
        lock(injector).push_back(Attempt { index, attempt, not_before });
    }

    /// Charges an infrastructure failure: requeue with backoff, or — once
    /// the budget is spent — execute inline, chaos-free.
    fn infra_failure<T, F>(
        &mut self,
        index: usize,
        cfg: &RuntimeConfig,
        injector: &Mutex<VecDeque<Attempt>>,
        items: &[T],
        f: &F,
    ) where
        F: Fn(usize, &T) -> Result<R, String>,
    {
        self.in_flight[index] = None;
        if self.outcomes[index].is_some() {
            return;
        }
        self.infra_used[index] += 1;
        if self.infra_used[index] > cfg.max_retries {
            // The scheduler keeps sabotaging this task; run it ourselves
            // with no chaos in the way.
            self.stats.drained_inline += 1;
            match execute_once(index, items, f) {
                Ok(r) => self.record_done(index, r),
                Err(e) => {
                    self.intrinsic_used[index] += 1;
                    self.record_failed(index, e);
                }
            }
        } else {
            let delay = cfg.backoff.delay(self.infra_used[index] - 1);
            self.requeue(index, delay, injector);
        }
    }

    /// Charges an intrinsic failure: retry with backoff until the budget
    /// is spent, then fail the task.
    fn intrinsic_failure(
        &mut self,
        index: usize,
        error: TaskError,
        cfg: &RuntimeConfig,
        injector: &Mutex<VecDeque<Attempt>>,
    ) {
        self.in_flight[index] = None;
        if self.outcomes[index].is_some() {
            return;
        }
        self.intrinsic_used[index] += 1;
        if self.intrinsic_used[index] > cfg.max_retries {
            self.record_failed(index, error);
        } else {
            self.last_error[index] = Some(error);
            let delay = cfg.backoff.delay(self.intrinsic_used[index] - 1);
            self.requeue(index, delay, injector);
        }
    }

    /// Scans the watchdog table; reassigns attempts past their deadline.
    fn watchdog<T, F>(
        &mut self,
        cfg: &RuntimeConfig,
        injector: &Mutex<VecDeque<Attempt>>,
        items: &[T],
        f: &F,
    ) where
        F: Fn(usize, &T) -> Result<R, String>,
    {
        let now = Instant::now();
        for index in 0..self.in_flight.len() {
            if self.outcomes[index].is_some() {
                continue;
            }
            if let Some((_, deadline)) = self.in_flight[index] {
                if now >= deadline {
                    self.stats.stalls_detected += 1;
                    self.infra_failure(index, cfg, injector, items, f);
                }
            }
        }
    }

    /// Serially executes (chaos-free) every task without an outcome.
    /// Returns how many it drained.
    fn drain_serially<T, F>(&mut self, items: &[T], f: &F) -> usize
    where
        F: Fn(usize, &T) -> Result<R, String>,
    {
        let mut drained = 0;
        for index in 0..self.outcomes.len() {
            if self.outcomes[index].is_some() {
                continue;
            }
            drained += 1;
            match execute_once(index, items, f) {
                Ok(r) => self.record_done(index, r),
                Err(e) => {
                    self.intrinsic_used[index] += 1;
                    self.record_failed(index, e);
                }
            }
        }
        drained
    }
}

/// Runs `items` through `f` under `cfg`, returning one outcome per item.
///
/// `f` must be pure: given the same `(index, item)` it must return the
/// same value regardless of which thread runs it or how many attempts it
/// takes — that is what makes the outcome vector schedule-independent.
/// With `cfg.threads <= 1` everything runs on the calling thread; the
/// retry, backoff and chaos semantics still apply (an injected "crash"
/// merely costs an attempt, since there is no worker to lose).
pub fn run<T, R, F>(cfg: &RuntimeConfig, items: &[T], f: F) -> RunReport<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> Result<R, String> + Sync,
{
    if cfg.threads <= 1 {
        run_serial(cfg, items, &f)
    } else {
        run_parallel(cfg, items, &f)
    }
}

/// Single-threaded executor: same retry / backoff / chaos semantics as the
/// pool, minus workers, channels and the watchdog.
fn run_serial<T, R, F>(cfg: &RuntimeConfig, items: &[T], f: &F) -> RunReport<R>
where
    F: Fn(usize, &T) -> Result<R, String>,
{
    let start = Instant::now();
    let mut sup: Supervisor<R> = Supervisor::new(items.len(), start);
    let chaos = cfg.chaos;
    for index in 0..items.len() {
        let mut attempt = 0u32;
        let mut infra = 0u32;
        let mut intrinsic = 0u32;
        loop {
            if infra > cfg.max_retries {
                // Infrastructure budget spent: run once, chaos-free.
                sup.stats.drained_inline += 1;
                match execute_once(index, items, f) {
                    Ok(r) => sup.record_done(index, r),
                    Err(e) => {
                        sup.intrinsic_used[index] = intrinsic + 1;
                        sup.record_failed(index, e);
                    }
                }
                break;
            }
            let infra_hit = if chaos.crashes(index as u64, attempt) {
                // No worker to lose in serial mode; costs the attempt.
                sup.stats.crashes += 1;
                true
            } else if chaos.flakes(index as u64, attempt) {
                sup.stats.flakes += 1;
                true
            } else {
                false
            };
            if infra_hit {
                infra += 1;
                sup.stats.retries += 1;
                sup.trace.push(obs::TraceEvent::TaskRetry {
                    cycle: sup.now_us(),
                    task: index as u64,
                    attempt: attempt + 1,
                });
                std::thread::sleep(cfg.backoff.delay(infra - 1));
                attempt += 1;
                continue;
            }
            if chaos.stalls(index as u64, attempt) {
                std::thread::sleep(Duration::from_micros(chaos.stall_micros));
            }
            match execute_once(index, items, f) {
                Ok(r) => {
                    sup.record_done(index, r);
                    break;
                }
                Err(e) => {
                    intrinsic += 1;
                    sup.intrinsic_used[index] = intrinsic;
                    if intrinsic > cfg.max_retries {
                        sup.record_failed(index, e);
                        break;
                    }
                    sup.stats.retries += 1;
                    sup.trace.push(obs::TraceEvent::TaskRetry {
                        cycle: sup.now_us(),
                        task: index as u64,
                        attempt: attempt + 1,
                    });
                    std::thread::sleep(cfg.backoff.delay(intrinsic - 1));
                    attempt += 1;
                }
            }
        }
    }
    let outcomes = finalize(sup.outcomes);
    RunReport { outcomes, stats: sup.stats, degraded: None, trace: sup.trace }
}

/// Converts the supervisor's outcome table into the final vector. Every
/// slot is filled by construction; an empty slot (unreachable) is reported
/// as a zero-attempt failure rather than panicking.
fn finalize<R>(outcomes: Vec<Option<TaskOutcome<R>>>) -> Vec<TaskOutcome<R>> {
    outcomes
        .into_iter()
        .map(|o| {
            o.unwrap_or_else(|| TaskOutcome::Failed {
                attempts: 0,
                error: TaskError::Failed("task was never completed by the scheduler".to_owned()),
            })
        })
        .collect()
}

fn run_parallel<T, R, F>(cfg: &RuntimeConfig, items: &[T], f: &F) -> RunReport<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> Result<R, String> + Sync,
{
    let n = items.len();
    let threads = cfg.threads;
    let quorum = cfg.quorum.clamp(1, threads);
    let start = Instant::now();
    let shared = Shared {
        queues: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
        injector: Mutex::new(VecDeque::new()),
        shutdown: AtomicBool::new(false),
    };
    // Round-robin initial distribution; steals rebalance from there.
    for index in 0..n {
        lock(&shared.queues[index % threads]).push_back(Attempt {
            index,
            attempt: 0,
            not_before: start,
        });
    }
    let (tx, rx) = mpsc::channel::<Msg<R>>();
    let mut sup: Supervisor<R> = Supervisor::new(n, start);
    let mut live = threads;
    let mut degraded: Option<DegradedReport> = None;
    // Tick fast enough to catch deadlines promptly without spinning.
    let tick = (cfg.task_deadline / 4)
        .max(Duration::from_millis(1))
        .min(Duration::from_millis(50));

    let shared_ref = &shared;
    std::thread::scope(|scope| {
        for id in 0..threads {
            let worker_tx = tx.clone();
            let chaos = cfg.chaos;
            scope.spawn(move || {
                worker_loop(id as u32, shared_ref, items, f, chaos, &worker_tx);
            });
            sup.stats.workers += 1;
            sup.trace.push(obs::TraceEvent::WorkerSpawn {
                cycle: sup.now_us(),
                worker: id as u32,
            });
        }
        // Only workers hold senders now: when every worker has exited the
        // channel disconnects and the supervisor notices.
        drop(tx);

        while sup.completed < n {
            match rx.recv_timeout(tick) {
                Ok(Msg::Started { index, attempt }) => {
                    if sup.outcomes[index].is_none() {
                        sup.in_flight[index] = Some((attempt, Instant::now() + cfg.task_deadline));
                    }
                }
                Ok(Msg::Finished { index, result }) => match result {
                    Ok(r) => sup.record_done(index, r),
                    Err(Fault::Flaked) => {
                        sup.stats.flakes += 1;
                        sup.infra_failure(index, cfg, &shared.injector, items, f);
                    }
                    Err(Fault::Errored(e)) => {
                        sup.intrinsic_failure(index, TaskError::Failed(e), cfg, &shared.injector);
                    }
                    Err(Fault::Panicked(msg)) => {
                        sup.intrinsic_failure(
                            index,
                            TaskError::Panicked(msg),
                            cfg,
                            &shared.injector,
                        );
                    }
                },
                Ok(Msg::Stole { worker, victim }) => {
                    sup.stats.steals += 1;
                    sup.trace.push(obs::TraceEvent::WorkerSteal {
                        cycle: sup.now_us(),
                        worker,
                        victim,
                    });
                }
                Ok(Msg::Crashed { worker, index }) => {
                    live -= 1;
                    sup.stats.crashes += 1;
                    sup.trace.push(obs::TraceEvent::WorkerCrash { cycle: sup.now_us(), worker });
                    sup.infra_failure(index, cfg, &shared.injector, items, f);
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    // Every worker is gone; whatever remains is ours.
                    live = 0;
                }
            }
            sup.watchdog(cfg, &shared.injector, items, f);
            if live < quorum && degraded.is_none() && sup.completed < n {
                sup.trace.push(obs::TraceEvent::RuntimeDegrade {
                    cycle: sup.now_us(),
                    live: live as u32,
                    quorum: quorum as u32,
                });
                shared.shutdown.store(true, Ordering::Release);
                let drained = sup.drain_serially(items, f);
                degraded =
                    Some(DegradedReport { live_workers: live, quorum, tasks_drained: drained });
                break;
            }
        }
        shared.shutdown.store(true, Ordering::Release);
        // Scope joins the surviving workers here; they exit on the flag
        // within one idle nap.
    });

    let outcomes = finalize(sup.outcomes);
    RunReport { outcomes, stats: sup.stats, degraded, trace: sup.trace }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn double(cfg: &RuntimeConfig, n: usize) -> RunReport<usize> {
        let items: Vec<usize> = (0..n).collect();
        run(cfg, &items, |_, &x| Ok(x * 2))
    }

    #[test]
    fn serial_runs_every_task_in_order() {
        let rep = double(&RuntimeConfig::serial(), 100);
        assert!(rep.degraded.is_none());
        assert_eq!(rep.stats.workers, 0);
        for (i, o) in rep.outcomes.iter().enumerate() {
            assert_eq!(*o, TaskOutcome::Done(i * 2));
        }
    }

    #[test]
    fn pool_matches_serial_outcomes() {
        let serial = double(&RuntimeConfig::serial(), 200);
        for threads in [2, 4, 8] {
            let pooled = double(&RuntimeConfig::with_threads(threads), 200);
            assert_eq!(pooled.outcomes, serial.outcomes, "threads={threads}");
            assert_eq!(pooled.stats.workers, threads);
            assert!(pooled.degraded.is_none());
        }
    }

    #[test]
    fn empty_input_is_fine() {
        let rep = double(&RuntimeConfig::with_threads(4), 0);
        assert!(rep.outcomes.is_empty());
        assert!(rep.degraded.is_none());
    }

    #[test]
    fn panics_are_isolated_and_bounded() {
        let items: Vec<u32> = (0..20).collect();
        let cfg = RuntimeConfig {
            backoff: Backoff::none(),
            ..RuntimeConfig::with_threads(4)
        };
        let rep = run(&cfg, &items, |_, &x| {
            if x == 7 {
                panic!("boom on 7");
            }
            Ok(x + 1)
        });
        for (i, o) in rep.outcomes.iter().enumerate() {
            if i == 7 {
                match o {
                    TaskOutcome::Failed { attempts, error: TaskError::Panicked(msg) } => {
                        assert_eq!(*attempts, cfg.max_retries + 1);
                        assert!(msg.contains("boom on 7"), "{msg}");
                    }
                    other => panic!("task 7 should fail by panic, got {other:?}"),
                }
            } else {
                assert_eq!(*o, TaskOutcome::Done(i as u32 + 1));
            }
        }
        assert_eq!(rep.failures().len(), 1);
    }

    #[test]
    fn intrinsic_errors_exhaust_the_retry_budget() {
        let items = [0u8];
        let cfg = RuntimeConfig {
            max_retries: 2,
            backoff: Backoff::none(),
            ..RuntimeConfig::serial()
        };
        let rep: RunReport<u8> = run(&cfg, &items, |_, _| Err("always".to_owned()));
        match &rep.outcomes[0] {
            TaskOutcome::Failed { attempts, error: TaskError::Failed(msg) } => {
                assert_eq!(*attempts, 3, "first try + 2 retries");
                assert_eq!(msg, "always");
            }
            other => panic!("expected failure, got {other:?}"),
        }
        assert_eq!(rep.stats.retries, 2);
    }

    #[test]
    fn flakes_retry_and_recover() {
        let items: Vec<usize> = (0..300).collect();
        let chaos = ChaosPlan::new(11, 0.0, 0.0, 0.2, 0).unwrap();
        let cfg = RuntimeConfig {
            backoff: Backoff::none(),
            ..RuntimeConfig::with_threads(2).with_chaos(chaos)
        };
        let rep = run(&cfg, &items, |_, &x| Ok(x * 3));
        assert!(rep.stats.flakes > 0, "20 % flake rate over 300 tasks must fire");
        for (i, o) in rep.outcomes.iter().enumerate() {
            assert_eq!(*o, TaskOutcome::Done(i * 3));
        }
    }

    #[test]
    fn crashes_degrade_to_serial_below_quorum() {
        let items: Vec<usize> = (0..400).collect();
        // Crash rate high enough to take out both workers almost surely.
        let chaos = ChaosPlan::new(5, 0.2, 0.0, 0.0, 0).unwrap();
        let cfg = RuntimeConfig {
            quorum: 2,
            backoff: Backoff::none(),
            ..RuntimeConfig::with_threads(2).with_chaos(chaos)
        };
        let rep = run(&cfg, &items, |_, &x| Ok(x + 10));
        let deg = rep.degraded.expect("two workers at 20 % crash rate must degrade");
        assert!(deg.live_workers < 2);
        assert_eq!(deg.quorum, 2);
        assert!(rep.stats.crashes > 0);
        for (i, o) in rep.outcomes.iter().enumerate() {
            assert_eq!(*o, TaskOutcome::Done(i + 10), "degraded run still completes all tasks");
        }
    }

    #[test]
    fn watchdog_reassigns_stalled_attempts() {
        let items: Vec<usize> = (0..40).collect();
        // Stalls far longer than the deadline: the watchdog must fire.
        let chaos = ChaosPlan::new(3, 0.0, 0.15, 0.0, 200_000).unwrap();
        let cfg = RuntimeConfig {
            task_deadline: Duration::from_millis(20),
            backoff: Backoff::none(),
            ..RuntimeConfig::with_threads(2).with_chaos(chaos)
        };
        let rep = run(&cfg, &items, |_, &x| Ok(x));
        assert!(rep.stats.stalls_detected > 0, "stall injection must trip the watchdog");
        for (i, o) in rep.outcomes.iter().enumerate() {
            assert_eq!(*o, TaskOutcome::Done(i));
        }
    }

    #[test]
    fn trace_records_lifecycle_events() {
        let rep = double(&RuntimeConfig::with_threads(3), 50);
        let spawns = rep
            .trace
            .iter()
            .filter(|e| matches!(e, obs::TraceEvent::WorkerSpawn { .. }))
            .count();
        assert_eq!(spawns, 3);
        let mut sink: Vec<obs::TraceEvent> = Vec::new();
        rep.replay_trace(&mut sink);
        assert_eq!(sink.len(), rep.trace.len());
    }

    #[test]
    fn backoff_schedule_is_bounded() {
        let b = Backoff::exponential(100, 1_000);
        assert_eq!(b.delay(0), Duration::from_micros(100));
        assert_eq!(b.delay(1), Duration::from_micros(200));
        assert_eq!(b.delay(4), Duration::from_micros(1_000), "capped");
        assert_eq!(b.delay(63), Duration::from_micros(1_000), "no overflow");
        assert_eq!(Backoff::none().delay(9), Duration::ZERO);
    }

    #[test]
    fn config_defaults_are_sane() {
        let cfg = RuntimeConfig::with_threads(8);
        assert_eq!(cfg.threads, 8);
        assert_eq!(cfg.quorum, 4);
        assert_eq!(RuntimeConfig::with_threads(0).threads, 1, "clamped");
        assert_eq!(RuntimeConfig::serial().quorum, 1);
    }
}
