//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Repeats set-up (generate the workload, start a fresh service) and one
//! closed-loop pass until `--seconds` have elapsed, then checks every
//! reply against the serial driver. `--trace 0` reports the end-to-end
//! metrics, scaled to the reference host by the probe slices run between
//! envelopes (`perfbench::probe`); `--trace 1` additionally replays each
//! pass through the layers with a timer around every call and reports
//! the per-layer split. The last line of standard output is one JSON
//! object; the exit code is nonzero when any reply was wrong.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use perfbench::mirror::{fidelity_errors, Mirror, Stages, TracedJob};
use perfbench::pass::{self, median, order_statistic, Pass};
use perfbench::roster::ENGINE_NAMES;
use perfbench::workload::{self, Scale, Workload};
use service::{CacheStats, KernelRequest, Operand, Service, ServiceConfig};

/// Fewest passes a run makes, however short `--seconds` is.
const MIN_PASSES: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workload::NAMES.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {:?}", workload::NAMES));
    }
    Ok(args)
}

/// One traced replay of a pass.
struct Traced {
    stages: Stages,
    jobs: Vec<TracedJob>,
    /// Encoding, stream and admission mirrors.
    caches: [CacheStats; 3],
    /// Fingerprint, encode, verify, compile and simulate time per envelope.
    per_envelope: Vec<[Duration; 5]>,
}

fn split(s: &Stages) -> [Duration; 5] {
    [s.fingerprint, s.encode, s.verify, s.compile, s.simulate]
}

fn trace(cfg: &ServiceConfig, workload: &Workload) -> Traced {
    let mut mirror = Mirror::new(cfg);
    let mut jobs = Vec::with_capacity(workload.jobs());
    let mut per_envelope = Vec::with_capacity(workload.envelopes.len());
    for envelope in &workload.envelopes {
        let before = split(&mirror.stages);
        jobs.extend(mirror.replay(envelope));
        let after = split(&mirror.stages);
        per_envelope.push(std::array::from_fn(|i| after[i] - before[i]));
    }
    Traced {
        caches: mirror.cache_stats(),
        stages: mirror.stages,
        jobs,
        per_envelope,
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn hit_ratio(m: &obs::MetricsRegistry, cache: &str) -> f64 {
    let hits = m.counter(&format!("service/{cache}_hits")) as f64;
    ratio(
        hits,
        hits + m.counter(&format!("service/{cache}_misses")) as f64,
    )
}

/// A metric in the output: name, value, unit, and how it was read.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(
    name: impl Into<String>,
    value: f64,
    unit: &'static str,
    note: impl Into<String>,
) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
        note: note.into(),
    }
}

/// Median over passes of a per-pass quantity.
fn per_pass<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>())
}

fn end_to_end(
    passes: &[Pass],
    setups: &[Duration],
    failed: usize,
    attempted: usize,
    rss: f64,
) -> Vec<Metric> {
    // Every pass submits the same jobs, so each has `n` samples; a
    // quantile is the median over passes of each pass's order statistic,
    // so a pass the host slowed moves it no more than it moves jobs_per_s.
    // Each pass's times, and the set-up before it, are scaled by the host
    // slowdown its probe slices measured (see `perfbench::probe`).
    let n = passes[0].latencies.len();
    let k = passes.len();
    let quantile = |q: f64| {
        per_pass(passes, |p| {
            order_statistic(&p.latencies.iter().map(|d| ms(*d)).collect::<Vec<_>>(), q) / p.slowdown
        })
    };
    let unscaled = per_pass(passes, |p| ratio(n as f64, p.wall.as_secs_f64()));
    let slowdown = per_pass(passes, |p| p.slowdown);
    let setup: Vec<f64> = setups
        .iter()
        .zip(passes)
        .map(|(s, p)| s.as_secs_f64() / p.slowdown)
        .collect();
    vec![
        metric(
            "setup_s",
            median(&setup),
            "s",
            format!("median of {k} set-ups, scaled"),
        ),
        metric(
            "jobs_per_s",
            per_pass(passes, |p| {
                ratio(n as f64, p.wall.as_secs_f64()) * p.slowdown
            }),
            "1/s",
            format!(
                "median of {k} passes, scaled; unscaled {unscaled:.4}, host slowdown {slowdown:.3}"
            ),
        ),
        metric(
            "latency_p50_ms",
            quantile(0.50),
            "ms",
            format!("median of {k} passes' order statistics of {n} samples, scaled"),
        ),
        metric(
            "latency_p90_ms",
            quantile(0.90),
            "ms",
            format!(
                "median of {k} passes' order statistics of {n} samples, {} above, scaled",
                n - (0.9 * n as f64).ceil() as usize
            ),
        ),
        metric(
            "failed_share",
            ratio(failed as f64, attempted as f64),
            "ratio",
            format!("{failed} of {attempted} jobs"),
        ),
        metric("peak_rss_mb", rss, "MB", "VmHWM after the first pass"),
    ]
}

fn per_layer(passes: &[Pass], traced: &[Traced], generates: &[Duration]) -> Vec<Metric> {
    let k = traced.len();
    let note = format!("median of {k} traced passes");
    let stage = |f: &dyn Fn(&Stages) -> f64| per_pass(traced, |t| f(&t.stages));
    let m = &passes.last().expect("at least one pass").metrics;
    let evictions: u64 = ["encoding_cache", "stream_cache", "admission_cache"]
        .iter()
        .map(|c| m.counter(&format!("service/{c}_evictions")))
        .sum();
    let batch_mean = m
        .histogram("service/batch_size")
        .map_or(0.0, |h| ratio(h.sum() as f64, h.count() as f64));
    // Per job: untraced latency minus the traced layer time up to its
    // reply, each the median over its passes.
    let jobs = passes[0].latencies.len();
    let self_ms: Vec<f64> = (0..jobs)
        .map(|j| {
            median(
                &passes
                    .iter()
                    .map(|p| ms(p.latencies[j]))
                    .collect::<Vec<_>>(),
            ) - median(
                &traced
                    .iter()
                    .map(|t| ms(t.jobs[j].stage_time))
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    let mut out = vec![
        metric(
            "service.fingerprint.ms",
            stage(&|s| ms(s.fingerprint)),
            "ms",
            note.clone(),
        ),
        metric(
            "service.fingerprint.mb_per_s",
            stage(&|s| {
                ratio(
                    s.fingerprint_bytes as f64 / 1e6,
                    s.fingerprint.as_secs_f64(),
                )
            }),
            "MB/s",
            note.clone(),
        ),
        metric(
            "service.encoding_cache.hit_ratio",
            hit_ratio(m, "encoding_cache"),
            "ratio",
            "Service::metrics()",
        ),
        metric(
            "service.stream_cache.hit_ratio",
            hit_ratio(m, "stream_cache"),
            "ratio",
            "Service::metrics()",
        ),
        metric(
            "service.admission_cache.hit_ratio",
            hit_ratio(m, "admission_cache"),
            "ratio",
            "Service::metrics()",
        ),
        metric(
            "service.cache.evictions",
            evictions as f64,
            "count",
            "Service::metrics(), three caches",
        ),
        metric(
            "service.batches",
            m.counter("service/batches") as f64,
            "count",
            "Service::metrics()",
        ),
        metric(
            "service.batch_size.mean",
            batch_mean,
            "jobs",
            "Service::metrics()",
        ),
        metric(
            "service.self.ms_p50",
            median(&self_ms),
            "ms",
            format!("median over {jobs} jobs"),
        ),
        metric(
            "sparse.encode.ms",
            stage(&|s| ms(s.encode)),
            "ms",
            note.clone(),
        ),
        metric(
            "sparse.encode.calls",
            stage(&|s| s.encode_calls as f64),
            "count",
            note.clone(),
        ),
        metric(
            "analysis.verify.ms",
            stage(&|s| ms(s.verify)),
            "ms",
            note.clone(),
        ),
        metric(
            "analysis.verify.calls",
            stage(&|s| s.verify_calls as f64),
            "count",
            note.clone(),
        ),
        metric(
            "simkit.compile.ms",
            stage(&|s| ms(s.compile)),
            "ms",
            note.clone(),
        ),
        metric(
            "simkit.compile.tasks",
            stage(&|s| s.compile_tasks as f64),
            "count",
            note.clone(),
        ),
        metric(
            "runtime.simulate.ms",
            stage(&|s| ms(s.simulate)),
            "ms",
            note.clone(),
        ),
        metric(
            "runtime.simulate.tasks_per_s",
            stage(&|s| ratio(s.simulate_tasks as f64, s.simulate.as_secs_f64())),
            "1/s",
            note.clone(),
        ),
        metric(
            "core.distinct_task_ratio",
            stage(&|s| ratio(s.distinct_tasks as f64, s.simulate_tasks as f64)),
            "ratio",
            note.clone(),
        ),
    ];
    // Each engine's share of `runtime.simulate.ms`: an engine a workload
    // never calls reads 0 on every run, which is a share, not a time.
    for engine in ENGINE_NAMES {
        let engine_ms = |s: &Stages| s.simulate_by_engine.get(engine).map_or(0.0, |d| ms(*d));
        out.push(metric(
            format!("simulate.ms.{}", engine.to_ascii_lowercase()),
            stage(&|s| ratio(engine_ms(s), ms(s.simulate))),
            "ratio",
            format!(
                "share of runtime.simulate.ms; {:.1} ms, {note}",
                stage(&engine_ms)
            ),
        ));
    }
    out.push(metric(
        "workloads.generate.ms",
        median(&generates.iter().map(|d| ms(*d)).collect::<Vec<_>>()),
        "ms",
        format!("median of {} set-ups", generates.len()),
    ));
    out
}

/// Per operator of a single-operator-per-envelope workload: the stage
/// split of its first (cold) step and the mean of its later (warm) steps.
fn operator_stages(workload: &Workload, traced: &[Traced]) -> Vec<String> {
    let operator = |e: &[service::JobRequest]| match e.first().map(|j| &j.kernel) {
        Some(KernelRequest::SpMV { a: Operand::Csr(m) }) => {
            Some((Arc::as_ptr(m) as usize, m.nrows()))
        }
        _ => None,
    };
    // (operator, rows, its envelopes), in order of first submission.
    let mut runs: Vec<(usize, usize, Vec<usize>)> = Vec::new();
    for (i, env) in workload.envelopes.iter().enumerate() {
        let Some((ptr, rows)) = operator(env) else {
            return Vec::new();
        };
        match runs.iter_mut().find(|(p, _, _)| *p == ptr) {
            Some((_, _, idx)) => idx.push(i),
            None => runs.push((ptr, rows, vec![i])),
        }
    }
    let cell = |envs: &[usize]| -> String {
        let mean: Vec<f64> = (0..5)
            .map(|s| {
                per_pass(traced, |t| {
                    envs.iter().map(|&e| ms(t.per_envelope[e][s])).sum::<f64>()
                        / envs.len().max(1) as f64
                })
            })
            .collect();
        format!(
            "fingerprint {:.3} encode {:.3} verify {:.3} compile {:.3} simulate {:.3} ms",
            mean[0], mean[1], mean[2], mean[3], mean[4]
        )
    };
    runs.iter()
        .map(|(_, rows, envs)| {
            format!(
                "operator n={rows} steps={}: cold {} | warm {}",
                envs.len(),
                cell(&envs[..1]),
                cell(&envs[1..])
            )
        })
        .collect()
}

fn json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Binds the process, and so every thread it starts later, to the vCPU
/// it is running on. The client and the dispatcher never compute at the
/// same time (closed loop, one client), so this costs no parallelism; it
/// makes the probe slices run on the vCPU the program runs on, which the
/// host slows independently of the other one. Without it the slices'
/// time correlated with the pass time at 0.2–0.5 instead of 0.85–0.95.
/// On failure the process stays unbound and says so.
fn pin_to_current_cpu() {
    // SAFETY: both are plain libc calls; the mask is a `cpu_set_t`-sized
    // (1024-bit) buffer that outlives the call.
    let status = unsafe {
        let cpu = sched_getcpu();
        if !(0..1024).contains(&cpu) {
            -1
        } else {
            let mut mask = [0u64; 16];
            mask[cpu as usize / 64] |= 1 << (cpu % 64);
            sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr())
        }
    };
    if status != 0 {
        eprintln!("perfbench: could not bind to one CPU; probe scaling is weaker");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    pin_to_current_cpu();
    let cfg = ServiceConfig::default();
    let budget = Duration::from_secs(args.seconds);
    let begun = Instant::now();
    let (mut setups, mut generates, mut passes, mut traced) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut rss = 0.0;
    let mut last: Option<Workload> = None;
    while passes.len() < MIN_PASSES || begun.elapsed() < budget {
        // Only one pass's operands are alive at a time.
        drop(last.take());
        let t = Instant::now();
        let wl = match workload::build(&args.workload, args.seed, Scale::Full) {
            Ok(wl) => wl,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::from(2);
            }
        };
        generates.push(t.elapsed());
        let svc = Service::start(cfg.clone());
        setups.push(t.elapsed());
        passes.push(pass::run(svc, &wl));
        // Later passes would add the allocator's cross-thread
        // fragmentation, which depends on the seed but not on the work.
        if passes.len() == 1 {
            rss = pass::peak_rss_mb();
        }
        if args.trace {
            traced.push(trace(&cfg, &wl));
        }
        last = Some(wl);
    }
    let wl = last.expect("at least one pass ran");

    // Correctness, outside every timed window.
    let reference = pass::reference_signatures(&wl, &cfg);
    let mut attempted = 0;
    let mut failed = 0;
    for p in &passes {
        attempted += p.outcomes.len();
        failed += pass::mismatches(&p.outcomes, &reference);
    }
    let mut fidelity = Vec::new();
    for (t, p) in traced.iter().zip(&passes) {
        let outcomes: Vec<_> = t.jobs.iter().map(|j| j.outcome.clone()).collect();
        attempted += outcomes.len();
        failed += pass::mismatches(&outcomes, &reference);
        fidelity.extend(fidelity_errors(&t.stages, &t.caches, &p.metrics));
    }
    let correct = failed == 0 && fidelity.is_empty();

    println!(
        "perfbench workload={} seed={} passes={} jobs/pass={}",
        args.workload,
        args.seed,
        passes.len(),
        wl.jobs()
    );
    let e2e = end_to_end(&passes, &setups, failed, attempted, rss);
    for m in &e2e {
        println!(
            "  {:<36} {:>14.4} {:<6} ({})",
            m.name, m.value, m.unit, m.note
        );
    }
    let reported: Vec<Metric> = if args.trace {
        let layers = per_layer(&passes, &traced, &generates);
        println!("per-layer split ({} traced passes):", traced.len());
        for m in &layers {
            println!(
                "  {:<36} {:>14.4} {:<6} ({})",
                m.name, m.value, m.unit, m.note
            );
        }
        if args.workload == "stencil_timestep" {
            for line in operator_stages(&wl, &traced) {
                println!("  {line}");
            }
        }
        layers
    } else {
        // `failed_share` is carried by `attempted`/`failed`; a metric that
        // is 0 on every correct run has no spread to bound.
        e2e.into_iter()
            .filter(|m| m.name != "failed_share")
            .collect()
    };
    for f in &fidelity {
        eprintln!("perfbench: mirror fidelity: {f}");
    }
    if failed > 0 {
        eprintln!("perfbench: {failed} of {attempted} replies were wrong");
    }
    println!("{}", json(correct, attempted, failed, &reported));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
