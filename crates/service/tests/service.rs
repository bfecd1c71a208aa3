//! Integration tests for the batch job service: responses must be
//! bit-identical to the serial driver, the caches must actually serve
//! warm requests, batching must coalesce same-stream jobs, and
//! admission control must reject illegal work with its `USTC` code
//! before anything is scheduled.

use std::sync::Arc;

use runtime::RuntimeConfig;
use service::{JobError, JobRequest, KernelRequest, Service, ServiceConfig};
use simkit::{driver, EnergyModel, Precision};
use sparse::{BbcField, BbcMatrix, CooMatrix, CsrMatrix, SparseVector};
use uni_stc::{UniStc, UniStcConfig};
use workloads::representative::representative_matrices;

fn csr(n: usize, entries: &[(usize, usize, f64)]) -> CsrMatrix {
    let mut coo = CooMatrix::new(n, n);
    for &(r, c, v) in entries {
        coo.push(r, c, v);
    }
    CsrMatrix::try_from(coo).expect("valid test matrix")
}

fn diag_csr(n: usize) -> CsrMatrix {
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        coo.push(i, i, 1.0 + i as f64);
        coo.push(i, (i * 7 + 3) % n, -0.5);
    }
    CsrMatrix::try_from(coo).expect("valid test matrix")
}

#[test]
fn spmv_response_matches_serial_driver_bit_for_bit() {
    let a = diag_csr(64);
    let expected = driver::run_spmv(
        &UniStc::new(UniStcConfig::with_precision(Precision::Fp64)),
        &EnergyModel::default(),
        &BbcMatrix::from_csr(&a),
    );

    let svc = Service::start(ServiceConfig::default());
    let got = svc
        .submit(JobRequest::new(KernelRequest::SpMV { a: a.into() }))
        .wait()
        .expect("legal stream must be admitted");
    assert_eq!(got.report.counter_signature(), expected.counter_signature());
    assert_eq!(got.report, expected);
}

#[test]
fn all_four_kernels_match_the_serial_driver() {
    let a = diag_csr(48);
    let bbc = BbcMatrix::from_csr(&a);
    let x = SparseVector::try_new(48, vec![0, 17, 40], vec![1.0, -2.0, 0.5])
        .expect("sorted indices");
    let engine = UniStc::new(UniStcConfig::with_precision(Precision::Fp64));
    let em = EnergyModel::default();

    let svc = Service::start(ServiceConfig::default());
    let cases: Vec<(KernelRequest, String)> = vec![
        (
            KernelRequest::SpMV { a: a.clone().into() },
            driver::run_spmv(&engine, &em, &bbc).counter_signature(),
        ),
        (
            KernelRequest::SpMSpV { a: a.clone().into(), x: Arc::new(x.clone()) },
            driver::run_spmspv(&engine, &em, &bbc, &x).counter_signature(),
        ),
        (
            KernelRequest::SpMM { a: a.clone().into(), n_cols: 40 },
            driver::run_spmm(&engine, &em, &bbc, 40).counter_signature(),
        ),
        (
            KernelRequest::SpGEMM { a: a.clone().into(), b: a.clone().into() },
            driver::run_spgemm(&engine, &em, &bbc, &bbc).counter_signature(),
        ),
    ];
    for (req, expected_sig) in cases {
        let got = svc
            .submit(JobRequest::new(req))
            .wait()
            .expect("legal stream must be admitted");
        assert_eq!(got.report.counter_signature(), expected_sig);
    }
}

#[test]
fn warm_cache_responses_are_bit_identical_and_flagged() {
    let a = diag_csr(64);
    let svc = Service::start(ServiceConfig::default());
    let cold = svc
        .submit(JobRequest::new(KernelRequest::SpMV { a: a.clone().into() }))
        .wait()
        .expect("cold run");
    assert!(!cold.encoding_cached, "first submission must encode");
    assert!(!cold.stream_cached, "first submission must compile");
    let warm = svc
        .submit(JobRequest::new(KernelRequest::SpMV { a: a.into() }))
        .wait()
        .expect("warm run");
    assert!(warm.encoding_cached, "identical operand must hit the encoding cache");
    assert!(warm.stream_cached, "identical request must hit the stream cache");
    assert_eq!(
        cold.report.counter_signature(),
        warm.report.counter_signature(),
        "cached results must be bit-identical to cold ones"
    );
    assert_eq!(cold.report, warm.report);

    let m = svc.shutdown();
    assert_eq!(m.counter("service/jobs_completed"), 2);
    assert_eq!(m.counter("service/stream_cache_hits"), 1);
    assert_eq!(m.counter("service/stream_cache_misses"), 1);
    assert_eq!(m.counter("service/encoding_cache_hits"), 1);
    assert_eq!(m.counter("service/encoding_cache_misses"), 1);
}

#[test]
fn submit_batch_coalesces_same_stream_jobs() {
    let a = diag_csr(64);
    let svc = Service::start(ServiceConfig::default());
    let reqs = vec![
        JobRequest::new(KernelRequest::SpMV { a: a.clone().into() }),
        JobRequest::new(KernelRequest::SpMV { a: a.clone().into() }),
        JobRequest::new(KernelRequest::SpMV { a: a.into() }),
    ];
    let responses: Vec<_> = svc
        .submit_batch(reqs)
        .into_iter()
        .map(|h| h.wait().expect("legal stream"))
        .collect();
    let sigs: Vec<String> =
        responses.iter().map(|r| r.report.counter_signature()).collect();
    assert!(sigs.windows(2).all(|w| w[0] == w[1]), "batched jobs share one report");
    for r in &responses {
        assert_eq!(r.batch_size, 3, "all three jobs share one stream, hence one batch");
    }
    let m = svc.shutdown();
    // One compiled stream served all three jobs.
    assert_eq!(m.counter("service/stream_cache_misses"), 1);
    assert_eq!(m.counter("service/jobs_completed"), 3);
    // The CSR operand was fingerprint-deduplicated down to one encoding.
    assert_eq!(m.counter("service/encoding_cache_misses"), 1);
    assert_eq!(m.counter("service/encoding_cache_hits"), 2);
}

#[test]
fn admission_rejects_corrupt_metadata_with_ustc012() {
    let clean = BbcMatrix::from_csr(&diag_csr(32));
    let mut bad = clean.clone();
    bad.flip_bit(BbcField::BitmapLv2, 0, 3);

    let svc = Service::start(ServiceConfig::default());
    let err = svc
        .submit(JobRequest::new(KernelRequest::SpMV { a: bad.into() }))
        .wait()
        .expect_err("corrupt metadata must be rejected");
    match err {
        JobError::Rejected { code, message } => {
            assert_eq!(code, "USTC012");
            assert!(message.contains("USTC012"), "{message}");
        }
        other => panic!("expected Rejected, got {other:?}"),
    }
    let m = svc.shutdown();
    assert_eq!(m.counter("service/jobs_rejected"), 1);
    assert_eq!(m.counter("service/jobs_completed"), 0);
}

#[test]
fn admission_verdicts_are_memoized_per_fingerprint() {
    // Accepting path: ten identical submissions walk the verifier once;
    // the other nine replay the recorded verdict.
    let a = diag_csr(64);
    let svc = Service::start(ServiceConfig::default());
    for _ in 0..10 {
        svc.submit(JobRequest::new(KernelRequest::SpMV { a: a.clone().into() }))
            .wait()
            .expect("legal stream must be admitted");
    }
    let m = svc.shutdown();
    assert_eq!(m.counter("service/admission_cache_misses"), 1, "one content, one verification");
    assert_eq!(m.counter("service/admission_cache_hits"), 9);

    // Rejecting path: the recorded verdict replays the rejection too —
    // repeated bad submissions never reach the verifier twice.
    let clean = BbcMatrix::from_csr(&diag_csr(32));
    let mut bad = clean.clone();
    bad.flip_bit(BbcField::BitmapLv2, 0, 3);
    let svc = Service::start(ServiceConfig::default());
    let codes: Vec<String> = (0..2)
        .map(|_| {
            match svc
                .submit(JobRequest::new(KernelRequest::SpMV { a: bad.clone().into() }))
                .wait()
                .expect_err("corrupt metadata must be rejected")
            {
                JobError::Rejected { code, .. } => code,
                other => panic!("expected Rejected, got {other:?}"),
            }
        })
        .collect();
    assert_eq!(codes, ["USTC012", "USTC012"], "cached rejection must match the fresh one");
    let m = svc.shutdown();
    assert_eq!(m.counter("service/admission_cache_misses"), 1);
    assert_eq!(m.counter("service/admission_cache_hits"), 1);
    assert_eq!(m.counter("service/jobs_rejected"), 2);
}

#[test]
fn admission_off_still_rejects_nonconforming_spgemm() {
    // 32x32 (2x2 blocks) times 64x64 (4x4 blocks): the grids do not
    // conform, so the task walk cannot even represent the stream. One
    // shape check, ahead of admission, answers with the same message
    // with admission on and off alike.
    let a = diag_csr(32);
    let b = diag_csr(64);
    let (bbc_a, bbc_b) = (BbcMatrix::from_csr(&a), BbcMatrix::from_csr(&b));
    let shape = driver::Invocation::SpGEMM(&bbc_a, &bbc_b).check_shape().unwrap_err();
    assert_eq!(shape, "SpGEMM block grids do not conform (2x2 blocks vs 4x4)");
    for admission in [true, false] {
        let svc = Service::start(ServiceConfig { admission, ..ServiceConfig::default() });
        let err = svc
            .submit(JobRequest::new(KernelRequest::SpGEMM {
                a: a.clone().into(),
                b: b.clone().into(),
            }))
            .wait()
            .expect_err("non-conforming grids must be rejected even without admission");
        match err {
            JobError::Rejected { code, message } => {
                assert_eq!(code, "USTC012", "admission={admission}");
                assert_eq!(message, shape, "admission={admission}");
            }
            other => panic!("admission={admission}: expected Rejected, got {other:?}"),
        }
        let m = svc.shutdown();
        assert_eq!(m.counter("service/jobs_rejected"), 1, "admission={admission}");
    }
}

#[test]
fn spmspv_shape_mismatch_is_rejected_with_and_without_admission() {
    // x of length 3 against a 1024-column operator: the walk would mask
    // 63 of 64 block columns against segments x does not have. The shape
    // check answers ahead of admission, so the admission cache is never
    // consulted.
    let a = diag_csr(1024);
    let x = Arc::new(SparseVector::try_new(3, vec![0, 2], vec![1.0, -1.0]).expect("sorted"));
    for admission in [true, false] {
        let svc = Service::start(ServiceConfig { admission, ..ServiceConfig::default() });
        let err = svc
            .submit(JobRequest::new(KernelRequest::SpMSpV {
                a: a.clone().into(),
                x: Arc::clone(&x),
            }))
            .wait()
            .expect_err("mismatched SpMSpV shapes must be rejected");
        match err {
            JobError::Rejected { code, message } => {
                assert_eq!(code, "USTC012", "admission={admission}");
                assert_eq!(
                    message,
                    "SpMSpV operand shapes do not conform: x has length 3 but A is 1024x1024",
                    "admission={admission}"
                );
            }
            other => panic!("admission={admission}: expected Rejected, got {other:?}"),
        }
        let m = svc.shutdown();
        assert_eq!(m.counter("service/jobs_rejected"), 1, "admission={admission}");
        assert_eq!(m.counter("service/jobs_completed"), 0, "admission={admission}");
        assert_eq!(m.counter("service/admission_cache_misses"), 0, "admission={admission}");
    }
}

#[test]
fn overflowing_spmm_is_a_typed_rejection_and_the_service_survives() {
    // ~2^59 column blocks: the counted stream holds two entries per A
    // block, but the exact report's counters would pass 2^64. With
    // admission on the same job is answered as quickly (see below).
    let a = diag_csr(64);
    let svc = Service::start(ServiceConfig { admission: false, ..ServiceConfig::default() });
    let err = svc
        .submit(JobRequest::new(KernelRequest::SpMM {
            a: a.clone().into(),
            n_cols: usize::MAX / 2,
        }))
        .wait()
        .expect_err("an unrepresentable report must not be returned");
    match err {
        JobError::Rejected { code, message } => {
            assert_eq!(code, "USTC017");
            assert!(message.contains("overflows u64"), "{message}");
        }
        other => panic!("expected Rejected, got {other:?}"),
    }
    // The dispatcher is alive and still bit-identical to the serial driver.
    let expected = driver::run_spmm(
        &UniStc::new(UniStcConfig::with_precision(Precision::Fp64)),
        &EnergyModel::default(),
        &BbcMatrix::from_csr(&a),
        40,
    );
    let got = svc
        .submit(JobRequest::new(KernelRequest::SpMM { a: a.into(), n_cols: 40 }))
        .wait()
        .expect("legal request after the rejection");
    assert_eq!(got.report, expected);
}

#[test]
fn wide_spmm_under_admission_is_answered_promptly() {
    // Admission verifies each distinct T1 task once, so its work is
    // bounded by the stored blocks, not by the column blocks of `B`.
    let a = csr(16, &(0..16).map(|i| (i, i, 1.0)).collect::<Vec<_>>());
    let bbc = BbcMatrix::from_csr(&a);
    let engine = UniStc::new(UniStcConfig::with_precision(Precision::Fp64));
    let em = EnergyModel::default();
    let svc = Service::start(ServiceConfig::default());
    for n_cols in [1 << 24, 1 << 28, usize::MAX / 2] {
        let started = std::time::Instant::now();
        let got = svc
            .submit(JobRequest::new(KernelRequest::SpMM { a: a.clone().into(), n_cols }))
            .wait();
        assert!(started.elapsed().as_secs_f64() < 1.0, "n_cols {n_cols}: {:?}", started.elapsed());
        let expected = driver::Invocation::SpMM(&bbc, n_cols)
            .stream()
            .and_then(|s| driver::run_stream(&engine, &em, driver::Kernel::SpMM, &s));
        match (got, expected) {
            (Ok(got), Ok(expected)) => assert_eq!(got.report, expected, "n_cols {n_cols}"),
            (Err(JobError::Rejected { code, .. }), Err(_)) => assert_eq!(code, "USTC017"),
            (got, expected) => panic!("n_cols {n_cols}: {got:?} vs driver {expected:?}"),
        }
    }
    let got = svc
        .submit(JobRequest::new(KernelRequest::SpMV { a: diag_csr(64).into() }))
        .wait()
        .expect("the dispatcher still serves a normal job");
    assert!(got.report.cycles > 0);
}

#[test]
fn metrics_count_total_and_distinct_simulated_tasks() {
    // A block-diagonal operator of one repeated 16x16 pattern.
    let n = 256;
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        coo.push(i, i, 2.0);
        coo.push(i, i - i % 16 + (i + 1) % 16, -1.0);
    }
    let a = CsrMatrix::try_from(coo).expect("valid test matrix");
    let svc = Service::start(ServiceConfig::default());
    for _ in 0..3 {
        svc.submit(JobRequest::new(KernelRequest::SpMV { a: a.clone().into() }))
            .wait()
            .expect("legal stream");
    }
    let m = svc.shutdown();
    assert_eq!(m.counter("service/sim_tasks_total"), 3 * 16, "16 blocks per step");
    assert_eq!(m.counter("service/sim_tasks_distinct"), 3, "one pattern per step");
}

/// The four kernels over `a` (SpMM with a 4-column tail), each with the
/// serial driver's signature for it and its non-trivial distinct tasks.
fn staged_cases(a: &CsrMatrix) -> Vec<(KernelRequest, String, u64)> {
    let bbc = BbcMatrix::from_csr(a);
    let x = SparseVector::try_new(a.ncols(), vec![0, 5, 17, 40, 63], vec![1.0, -2.0, 0.5, 3.0, 1.5])
        .expect("sorted indices");
    let engine = UniStc::new(UniStcConfig::with_precision(Precision::Fp64));
    let invocations = [
        (KernelRequest::SpMV { a: a.clone().into() }, driver::Invocation::SpMV(&bbc)),
        (
            KernelRequest::SpMSpV { a: a.clone().into(), x: Arc::new(x.clone()) },
            driver::Invocation::SpMSpV(&bbc, &x),
        ),
        (KernelRequest::SpMM { a: a.clone().into(), n_cols: 20 }, driver::Invocation::SpMM(&bbc, 20)),
        (
            KernelRequest::SpGEMM { a: a.clone().into(), b: a.clone().into() },
            driver::Invocation::SpGEMM(&bbc, &bbc),
        ),
    ];
    invocations
        .into_iter()
        .map(|(req, inv)| {
            let stream = inv.stream().expect("countable stream");
            let report = driver::run_stream(&engine, &EnergyModel::default(), inv.kernel(), &stream)
                .expect("representable report");
            let distinct = stream.iter().filter(|(t, _)| !t.is_trivial()).count() as u64;
            (req, report.counter_signature(), distinct)
        })
        .collect()
}

#[test]
fn cold_uni_stc_jobs_pack_admissions_expansions() {
    let a = diag_csr(64);
    for (req, want, distinct) in staged_cases(&a) {
        let svc = Service::start(ServiceConfig::default());
        let got = svc.submit(JobRequest::new(req.clone())).wait().expect("legal stream");
        assert_eq!(got.report.counter_signature(), want, "{:?}", req.kernel());
        let m = svc.shutdown();
        assert!(distinct > 0);
        assert_eq!(m.counter("service/sim_tasks_staged"), distinct, "{:?}", req.kernel());
    }
}

#[test]
fn only_a_uni_stc_jobs_own_admission_stages() {
    let a = diag_csr(64);
    for (req, want, _) in staged_cases(&a) {
        // A baseline engine, then Uni-STC on the same stream: its
        // verdict is a cache hit, so nothing was expanded for it to keep.
        let svc = Service::start(ServiceConfig::default());
        let ds = svc.submit(JobRequest::on_engine("DS-STC", req.clone())).wait().expect("legal");
        assert_eq!(ds.report.engine, "DS-STC");
        let uni = svc.submit(JobRequest::new(req.clone())).wait().expect("legal stream");
        assert_eq!(uni.report.counter_signature(), want, "{:?}", req.kernel());
        let m = svc.shutdown();
        assert_eq!(m.counter("service/admission_cache_hits"), 1);
        assert_eq!(m.counter("service/sim_tasks_staged"), 0, "{:?}", req.kernel());

        // Admission off: no check, so no expansion to keep.
        let svc = Service::start(ServiceConfig { admission: false, ..ServiceConfig::default() });
        let uni = svc.submit(JobRequest::new(req.clone())).wait().expect("legal stream");
        assert_eq!(uni.report.counter_signature(), want, "{:?}", req.kernel());
        assert_eq!(svc.shutdown().counter("service/sim_tasks_staged"), 0);
    }
}

#[test]
fn unknown_engine_is_a_typed_error() {
    let a = csr(16, &[(0, 0, 1.0)]);
    let svc = Service::start(ServiceConfig::default());
    let err = svc
        .submit(JobRequest::on_engine("No-Such-STC", KernelRequest::SpMV { a: a.into() }))
        .wait()
        .expect_err("unknown engine");
    assert_eq!(err, JobError::UnknownEngine { name: "No-Such-STC".to_owned() });
}

#[test]
fn every_roster_engine_serves_jobs() {
    let a = diag_csr(32);
    let svc = Service::start(ServiceConfig::default());
    for engine in ["NV-DTC", "GAMMA", "SIGMA", "Trapezoid", "DS-STC", "RM-STC", "Uni-STC"] {
        let got = svc
            .submit(JobRequest::on_engine(engine, KernelRequest::SpMV { a: a.clone().into() }))
            .wait()
            .unwrap_or_else(|e| panic!("engine {engine} failed: {e}"));
        assert_eq!(got.report.engine, engine);
    }
}

#[test]
fn zero_column_spmm_yields_an_empty_report() {
    let a = diag_csr(32);
    let svc = Service::start(ServiceConfig::default());
    let got = svc
        .submit(JobRequest::new(KernelRequest::SpMM { a: a.into(), n_cols: 0 }))
        .wait()
        .expect("degenerate but legal request");
    assert_eq!(got.report.t1_tasks, 0);
    assert_eq!(got.report.cycles, 0);
}

#[test]
fn representative_corpus_roundtrips_through_the_service() {
    let svc = Service::start(ServiceConfig {
        exec: RuntimeConfig::with_threads(2),
        ..ServiceConfig::default()
    });
    let engine = UniStc::new(UniStcConfig::with_precision(Precision::Fp64));
    let em = EnergyModel::default();
    for rep in representative_matrices() {
        let expected =
            driver::run_spmv(&engine, &em, &BbcMatrix::from_csr(&rep.matrix)).counter_signature();
        let got = svc
            .submit(JobRequest::new(KernelRequest::SpMV { a: rep.matrix.into() }))
            .wait()
            .unwrap_or_else(|e| panic!("{} failed: {e}", rep.name));
        assert_eq!(got.report.counter_signature(), expected, "{}", rep.name);
    }
}

#[test]
fn metrics_snapshot_records_queue_and_latency() {
    let a = diag_csr(32);
    let svc = Service::start(ServiceConfig::default());
    svc.submit(JobRequest::new(KernelRequest::SpMV { a: a.into() }))
        .wait()
        .expect("legal stream");
    let m = svc.metrics();
    assert!(m.gauge("service/queue_depth").is_some(), "queue depth gauge must be live");
    let depth = m.histogram("service/queue_depth_hist").expect("queue depth histogram");
    assert!(depth.count() >= 1);
    let lat = m.histogram("service/latency_us/SpMV").expect("latency histogram");
    assert_eq!(lat.count(), 1);
    assert_eq!(m.counter("service/batches"), 1);
}

#[test]
fn shutdown_then_wait_reports_service_stopped() {
    let a = csr(16, &[(0, 0, 1.0)]);
    let svc = Service::start(ServiceConfig::default());
    // Answer one job so the dispatcher is provably alive first.
    svc.submit(JobRequest::new(KernelRequest::SpMV { a: a.clone().into() }))
        .wait()
        .expect("legal stream");
    let m = svc.shutdown();
    assert_eq!(m.counter("service/jobs_completed"), 1);
}

#[test]
fn wait_timeout_expires_on_a_slow_job_then_the_handle_gets_its_report() {
    // A banded SpGEMM: about four thousand dense-ish block pairs to
    // verify, compile and simulate, far longer than the first wait allows
    // even with release arithmetic.
    let n: usize = 4096;
    let band: Vec<_> = (0..n)
        .flat_map(|i| (i.saturating_sub(24)..(i + 25).min(n)).map(move |j| (i, j, 1.0)))
        .collect();
    let a = csr(n, &band);
    let bbc = BbcMatrix::from_csr(&a);
    let svc = Service::start(ServiceConfig::default());
    let handle =
        svc.submit(JobRequest::new(KernelRequest::SpGEMM { a: a.clone().into(), b: a.into() }));
    assert!(handle.wait_timeout(std::time::Duration::from_millis(1)).is_none());
    let got = handle
        .wait_timeout(std::time::Duration::from_secs(600))
        .expect("answered within the second wait")
        .expect("legal stream");
    let engine = UniStc::new(UniStcConfig::with_precision(Precision::Fp64));
    let expected = driver::run_spgemm(&engine, &EnergyModel::default(), &bbc, &bbc);
    assert_eq!(got.report, expected);
}

#[test]
fn encoding_cache_eviction_still_serves_correct_results() {
    // Capacity 1: the second matrix evicts the first; resubmitting the
    // first must re-encode and still be bit-identical.
    let a = diag_csr(32);
    let b = diag_csr(64);
    let cfg = ServiceConfig {
        encoding_cache_capacity: 1,
        stream_cache_capacity: 1,
        ..ServiceConfig::default()
    };
    let svc = Service::start(cfg);
    let first = svc
        .submit(JobRequest::new(KernelRequest::SpMV { a: a.clone().into() }))
        .wait()
        .expect("legal");
    svc.submit(JobRequest::new(KernelRequest::SpMV { a: b.into() }))
        .wait()
        .expect("legal");
    let again = svc
        .submit(JobRequest::new(KernelRequest::SpMV { a: a.into() }))
        .wait()
        .expect("legal");
    assert!(!again.encoding_cached, "the entry was evicted, so this is a fresh encode");
    assert_eq!(first.report.counter_signature(), again.report.counter_signature());
    let m = svc.shutdown();
    assert!(m.counter("service/encoding_cache_evictions") >= 1);
    assert!(m.counter("service/stream_cache_evictions") >= 1);
}

#[test]
fn resubmitting_one_arc_hashes_it_once() {
    let a = Arc::new(diag_csr(64));
    let svc = Service::start(ServiceConfig::default());
    for _ in 0..1000 {
        svc.submit(JobRequest::new(KernelRequest::SpMV { a: Arc::clone(&a).into() }))
            .wait()
            .expect("legal stream");
    }
    let m = svc.shutdown();
    assert_eq!(m.counter("service/fingerprint_hashes"), 1);
    assert_eq!(m.counter("service/operand_identity_hits"), 999);
    assert_eq!(m.counter("service/fingerprint_collisions"), 0);
    assert_eq!(m.counter("service/stream_cache_hits"), 999);
}

#[test]
fn the_service_keeps_no_operand_alive_past_its_caches() {
    let a = Arc::new(diag_csr(48));
    let x = Arc::new(
        SparseVector::try_new(48, vec![0, 17, 40], vec![1.0, -2.0, 0.5]).expect("sorted indices"),
    );
    let b = Arc::new(BbcMatrix::from_csr(&diag_csr(48)));
    let request = |kernel| {
        JobRequest::new(match kernel {
            0 => KernelRequest::SpMV { a: Arc::clone(&a).into() },
            1 => KernelRequest::SpMSpV { a: Arc::clone(&a).into(), x: Arc::clone(&x) },
            _ => KernelRequest::SpGEMM { a: Arc::clone(&b).into(), b: Arc::clone(&b).into() },
        })
    };
    // Without caches nothing may outlive the reply: the identity tables
    // hold only weak references.
    let svc = Service::start(ServiceConfig {
        encoding_cache_capacity: 0,
        stream_cache_capacity: 0,
        ..ServiceConfig::default()
    });
    for kernel in 0..3 {
        svc.submit(request(kernel)).wait().expect("legal stream");
        assert_eq!(
            (Arc::strong_count(&a), Arc::strong_count(&x), Arc::strong_count(&b)),
            (1, 1, 1)
        );
    }
    drop(svc);
    // With caches, their entries hold the operands until the service goes.
    let svc = Service::start(ServiceConfig::default());
    for kernel in 0..3 {
        svc.submit(request(kernel)).wait().expect("legal stream");
    }
    assert!(Arc::strong_count(&a) > 1);
    drop(svc);
    assert_eq!((Arc::strong_count(&a), Arc::strong_count(&x), Arc::strong_count(&b)), (1, 1, 1));
}
