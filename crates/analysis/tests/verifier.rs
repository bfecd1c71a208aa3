//! Integration tests for the static stream verifier: seeded illegal
//! streams must be flagged with their exact stable `USTC` codes, every
//! conformance generator regime must verify clean, and the
//! `StreamVerifier` adapter must reject corrupted streams before a cycle
//! is simulated.

use analysis::{Code, StreamModel, T1Node, T3Node, UstcVerifier, Verifier};
use conformance::generators::{sparse_vector, Regime};
use simkit::driver::{Invocation, Kernel};
use simkit::fault::FaultPlan;
use simkit::{driver, EnergyModel, StreamVerifier};
use sparse::{BbcField, BbcMatrix, CooMatrix, CsrMatrix};
use uni_stc::isa::{Program, Uwmma};
use uni_stc::tms::T3Task;
use uni_stc::{UniStc, UniStcConfig};

fn bbc(n: usize, entries: impl IntoIterator<Item = (usize, usize)>) -> BbcMatrix {
    let mut coo = CooMatrix::new(n, n);
    for (r, c) in entries {
        coo.push(r, c, 1.0);
    }
    BbcMatrix::from_csr(&CsrMatrix::try_from(coo).expect("in-range coordinates"))
}

fn dense_task(k: u8, i: u8, j: u8) -> T3Task {
    T3Task { i, j, k, a_tile: u16::MAX, b_tile: u16::MAX, products: 64 }
}

#[test]
fn out_of_order_uwmma_gets_exact_codes() {
    let v = Verifier::new(UniStcConfig::default());
    // Numeric before any task_gen: exactly USTC001.
    let mut p = Program::new();
    p.push(Uwmma::LoadMetaMv, 1).push(Uwmma::NumericMv, 4);
    let r = v.verify_program(&p);
    let codes: Vec<&str> = r.diagnostics().iter().map(|d| d.code.as_str()).collect();
    assert_eq!(codes, vec!["USTC001"]);
    // Overlapping task generation: USTC002 (plus the dead batch, USTC004).
    let mut p = Program::new();
    p.push(Uwmma::TaskGenMv, 2).push(Uwmma::TaskGenMv, 2);
    let r = v.verify_program(&p);
    assert_eq!(r.first_error().map(|d| d.code.as_str()), Some("USTC002"));
}

#[test]
fn five_lane_segment_is_ustc006() {
    let v = Verifier::new(UniStcConfig::default());
    let r = v.verify_segments(&[1, 5]);
    let codes: Vec<&str> = r.diagnostics().iter().map(|d| d.code.as_str()).collect();
    assert_eq!(codes, vec!["USTC006"]);
}

#[test]
fn queue_overflows_are_ustc007_and_008() {
    let v = Verifier::new(UniStcConfig::default());
    let r = v.verify_queues(65, &[16, 17]);
    let codes: Vec<&str> = r.diagnostics().iter().map(|d| d.code.as_str()).collect();
    assert_eq!(codes, vec!["USTC007", "USTC008"]);
}

#[test]
fn task_to_gated_dpg_is_ustc011() {
    let cfg = UniStcConfig::default();
    let v = Verifier::new(cfg);
    // Three dense tasks: the power-gating look-ahead activates 2 DPGs, so
    // slot 7 is gated even though it exists.
    let t3 = vec![
        T3Node { task: dense_task(0, 0, 0), dpg: 0 },
        T3Node { task: dense_task(0, 0, 1), dpg: 1 },
        T3Node { task: dense_task(0, 0, 2), dpg: 7 },
    ];
    let model =
        StreamModel { kernel: Kernel::SpMV, t1: vec![T1Node { block: Some(0), t3 }] };
    let r = v.verify_model(&model);
    let codes: Vec<&str> = r.diagnostics().iter().map(|d| d.code.as_str()).collect();
    assert_eq!(codes, vec!["USTC011"]);
    // With gating disabled in the config, the same route is legal.
    let open = UniStcConfig { power_gating: false, ..UniStcConfig::default() };
    assert!(Verifier::new(open).verify_model(&model).is_clean());
}

#[test]
fn every_conformance_regime_verifies_clean() {
    const SEED: u64 = 7;
    let v = Verifier::new(UniStcConfig::default());
    for regime in Regime::ALL {
        let a_csr = regime.generate(SEED);
        let a = BbcMatrix::from_csr(&a_csr);
        let x = sparse_vector(a_csr.ncols(), SEED);
        let b = BbcMatrix::from_csr(&a_csr.transpose());
        for (kernel, r) in [
            ("spmv", v.verify(Invocation::SpMV(&a), 4)),
            ("spmspv", v.verify(Invocation::SpMSpV(&a, &x), 1)),
            ("spmm", v.verify(Invocation::SpMM(&a, 20), 1)),
            ("spgemm", v.verify(Invocation::SpGEMM(&a, &b), 4)),
        ] {
            assert!(
                r.is_clean(),
                "{} {kernel} not clean:\n{}",
                regime.name(),
                r.render_human()
            );
        }
    }
}

#[test]
fn driver_gate_passes_clean_streams_unchanged() {
    let a = bbc(64, (0..64).flat_map(|i| [(i, i), (i, (i * 7) % 64)]));
    let engine = UniStc::default();
    let energy = EnergyModel::default();
    let verifier = UstcVerifier::new(UniStcConfig::default());
    verifier.verify_spmv(&a).expect("clean stream must pass the gate");
    let rep = driver::run_spmv(&engine, &energy, &a);
    let stream = Invocation::SpMV(&a).stream().expect("fits");
    let counted = driver::run_stream(&engine, &energy, Kernel::SpMV, &stream).expect("fits");
    assert_eq!(rep.counter_signature(), counted.counter_signature());
}

#[test]
fn driver_gate_rejects_corrupt_metadata_with_ustc012() {
    let a = bbc(32, (0..32).map(|i| (i, i)));
    let mut bad = a.clone();
    bad.flip_bit(BbcField::BitmapLv2, 0, 3);
    let engine = UniStc::default();
    let energy = EnergyModel::default();
    let verifier = UstcVerifier::new(UniStcConfig::default());
    let err = verifier.verify_spmv(&bad).expect_err("corrupt metadata must be rejected");
    assert_eq!(err.code, "USTC012");
    assert!(err.to_string().contains("USTC012"), "{err}");
    // Without the gate, the driver happily simulates the corrupted stream.
    assert!(driver::run_spmv(&engine, &energy, &bad).t1_tasks > 0);
}

#[test]
fn fault_bridge_catches_bit_flips_before_execution() {
    let a = bbc(48, (0..48).flat_map(|i| [(i, i), (i, (i * 5) % 48)]));
    let engine = UniStc::default();
    let energy = EnergyModel::default();
    let verifier = UstcVerifier::new(UniStcConfig::default());
    // A saturating fault plan flips metadata bits with certainty; the
    // static gate must catch the corruption before any cycle is simulated.
    let plan = FaultPlan::uniform(0xF00D, 1.0);
    let (corrupted, _) = plan.inject_into(&a);
    let err = verifier.verify_spmv(&corrupted).expect_err("metadata corruption must be caught");
    assert_eq!(err.code, "USTC012");
    // The empty plan injects nothing: the gate passes and the faulted run
    // matches the plain one.
    let none = FaultPlan::none(0xF00D);
    let (untouched, _) = none.inject_into(&a);
    verifier.verify_spmv(&untouched).expect("no faults, no rejection");
    let rep = driver::run_spmv_faulted(&engine, &energy, &a, &none);
    assert_eq!(rep.events.faults_injected, 0);
    assert_eq!(
        rep.counter_signature(),
        driver::run_spmv(&engine, &energy, &a).counter_signature()
    );
}

#[test]
fn nonconforming_spgemm_grids_are_ustc012() {
    // 32x32 (2x2 blocks) times 64x64 (4x4 blocks): the block
    // outer-product walk cannot represent the stream.
    let a = bbc(32, (0..32).map(|i| (i, i)));
    let b = bbc(64, (0..64).map(|i| (i, i)));
    let r = Verifier::new(UniStcConfig::default()).verify(Invocation::SpGEMM(&a, &b), 4);
    let codes: Vec<&str> = r.diagnostics().iter().map(|d| d.code.as_str()).collect();
    assert_eq!(codes, vec!["USTC012"]);
    let message = &r.diagnostics()[0].message;
    assert_eq!(message, "SpGEMM block grids do not conform (2x2 blocks vs 4x4)");
    assert_eq!(Invocation::SpGEMM(&a, &b).check_shape().as_ref(), Err(message));
    let err = UstcVerifier::new(UniStcConfig::default())
        .verify_spgemm(&a, &b)
        .expect_err("the adapter rejects what the verifier flags");
    assert_eq!(err.code, "USTC012");
}

#[test]
fn compiled_kernel_verify_bridges_to_stable_codes() {
    let cfg = UniStcConfig::default();
    let a = bbc(64, (0..64).map(|i| (i, (i * 3) % 64)));
    let kernel = uni_stc::compiler::compile(&cfg, Invocation::SpMV(&a), 2).expect("compiles");
    assert!(kernel.verify().is_ok());
    // The analysis verifier agrees, and resolves spans into the listings.
    let v = Verifier::new(cfg);
    let r = v.verify_kernel(&kernel);
    assert!(r.is_clean(), "{}", r.render_human());
    // Tamper a warp: both the kernel self-check and the verifier object.
    let mut tampered = kernel;
    let mut p = Program::new();
    p.push(Uwmma::NumericMm, 4);
    tampered.warps[0].program = p;
    let diags = tampered.verify().expect_err("illegal stream");
    assert_eq!(diags[0].warp, 0);
    let r = v.verify_kernel(&tampered);
    assert!(r.has_code(Code::NumericWithoutBatch));
    let d = r.first_error().expect("error present");
    assert_eq!(d.span.warp, Some(0));
    assert_eq!(d.span.instr, Some(0));
    // The span resolves against the listing's instruction index.
    let listing = tampered.warps[0].program.listing();
    assert!(listing.contains("   0:  stc.numeric.mm"));
}

#[test]
fn engine_reference_drive_matches_verifier_verdict() {
    // End-to-end: a stream the verifier calls clean must actually execute
    // (lifecycle-legal), and one it rejects must fail execution too.
    let cfg = UniStcConfig::default();
    let v = Verifier::new(cfg);
    let a = bbc(96, (0..96).flat_map(|i| [(i, i), (i, (i * 11) % 96)]));
    let kernel = uni_stc::compiler::compile(&cfg, Invocation::SpMV(&a), 3).expect("compiles");
    assert!(v.verify_kernel(&kernel).is_clean());
    assert!(kernel.run().is_ok());
    let mut bad = Program::new();
    bad.push(Uwmma::TaskGenMv, 2).push(Uwmma::TaskGenMv, 2);
    assert!(v.verify_program(&bad).has_errors());
    assert!(bad.run().is_err());
}
