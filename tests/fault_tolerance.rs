//! Tier-1 fault-tolerance sweep (robustness acceptance criteria).
//!
//! Sweeps bit-flip fault rates over BBC operands and asserts the three
//! pillars of the fault model:
//!
//! 1. **Detection** — every injected *metadata* fault (bitmaps and value
//!    pointers) is detected by [`BbcMatrix::validate`]; stream-level
//!    corruption is caught by the BBC2 section CRCs.
//! 2. **Degradation** — multi-unit runs that lose units to uncorrected
//!    faults requeue the lost work onto healthy units and produce results
//!    bitwise identical to the fault-free reference.
//! 3. **No panics** — corrupted operands and corrupted streams surface as
//!    `Err`, never as a panic.

use simkit::fault::{FaultOutcome, FaultPlan};
use simkit::driver::Kernel;
use sparse::rng::Rng64;
use sparse::{BbcMatrix, CooMatrix, CsrMatrix};
use uni_stc::multi::{degraded_spmv, parallel_kernel_degraded};
use uni_stc::UniStc;

/// The swept per-bit fault rates from the issue's acceptance criteria.
const RATES: [f64; 3] = [1e-4, 1e-3, 1e-2];

/// A seeded random CSR matrix sized to give every fault class a healthy
/// number of target bits.
fn random_matrix(seed: u64) -> CsrMatrix {
    let mut rng = Rng64::new(seed);
    let n = 24 + rng.next_range(56);
    let nnz = 40 + rng.next_range(300);
    let mut coo = CooMatrix::new(n, n);
    for _ in 0..nnz {
        let v = rng.next_f64_range(-4.0, 4.0);
        if v != 0.0 {
            coo.push(rng.next_range(n), rng.next_range(n), v);
        }
    }
    CsrMatrix::try_from(coo).unwrap()
}

fn inject(seed: u64, rate: f64, value_rate: f64) -> (BbcMatrix, BbcMatrix, FaultOutcome) {
    let clean = BbcMatrix::from_csr(&random_matrix(seed));
    let plan = FaultPlan {
        seed: seed ^ 0xFA17,
        bitmap_rate: rate,
        pointer_rate: rate,
        value_rate,
    };
    let (corrupted, outcome) = plan.inject_into(&clean);
    (clean, corrupted, outcome)
}

#[test]
fn metadata_fault_detection_is_total_across_rates() {
    // 100% of metadata corruptions must be detected by validate(): the
    // detected count can only fall short of the injected count by the
    // finite FP value flips, which no structural check can see.
    for (si, &rate) in RATES.iter().enumerate() {
        for seed in 0..24u64 {
            let seed = seed * RATES.len() as u64 + si as u64;
            let (_, corrupted, outcome) = inject(seed, rate, rate);
            let metadata = outcome.log.metadata_faults();
            assert!(
                outcome.detected >= metadata,
                "rate {rate} seed {seed}: {} of {metadata} metadata faults detected",
                outcome.detected
            );
            if metadata > 0 {
                assert!(
                    corrupted.validate().is_err(),
                    "rate {rate} seed {seed}: corrupted matrix passed validate()"
                );
            }
        }
    }
}

#[test]
fn stream_corruption_is_detected_by_crc() {
    // Serialize a clean matrix, flip bits in the byte stream at each swept
    // rate: read_bbc must reject every corrupted stream (CRC mismatch or
    // post-decode validation) without ever panicking.
    for &rate in &RATES {
        for seed in 0..12u64 {
            let clean = BbcMatrix::from_csr(&random_matrix(seed));
            let mut buf = Vec::new();
            clean.write_bbc(&mut buf).unwrap();
            let mut rng = Rng64::new(seed ^ 0xC4C);
            let mut flipped = 0u32;
            for byte in buf.iter_mut().skip(4) {
                for bit in 0..8 {
                    if rng.next_bool(rate) {
                        *byte ^= 1 << bit;
                        flipped += 1;
                    }
                }
            }
            let back = sparse::bbc::read_bbc(buf.as_slice());
            if flipped == 0 {
                assert_eq!(back.unwrap(), clean, "rate {rate} seed {seed}");
            } else {
                assert!(back.is_err(), "rate {rate} seed {seed}: {flipped} flips undetected");
            }
        }
    }
}

#[test]
fn degraded_runs_are_bitwise_identical_to_reference() {
    let engine = UniStc::default();
    for (si, &rate) in RATES.iter().enumerate() {
        for seed in 0..8u64 {
            let seed = seed * RATES.len() as u64 + si as u64;
            let a = BbcMatrix::from_csr(&random_matrix(seed));
            let mut rng = Rng64::new(seed ^ 0xDE6);
            let x: Vec<f64> = (0..a.ncols()).map(|_| rng.next_f64_range(-2.0, 2.0)).collect();
            let n_units = 4;
            // Metadata-only plans: finite FP value flips are physically
            // undetectable without ECC, so bitwise identity is only
            // promised for pointer/bitmap corruption.
            let plans: Vec<FaultPlan> = (0..n_units as u64)
                .map(|u| FaultPlan {
                    seed: seed ^ (u << 8),
                    bitmap_rate: rate,
                    pointer_rate: rate,
                    value_rate: 0.0,
                })
                .collect();
            let reference = degraded_spmv(&engine, &a, &x, n_units, &[]);
            let (y_ref, rep_ref) = reference.expect("fault-free run cannot lose units");
            assert!(rep_ref.faulty_units.is_empty());
            match degraded_spmv(&engine, &a, &x, n_units, &plans) {
                Ok((y, rep)) => {
                    for (i, (got, want)) in y.iter().zip(&y_ref).enumerate() {
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "rate {rate} seed {seed} row {i}: degraded result differs"
                        );
                    }
                    assert_eq!(
                        rep.events.faults_detected, rep.events.faults_injected,
                        "rate {rate} seed {seed}: metadata-only plan must detect all faults"
                    );
                    if !rep.faulty_units.is_empty() {
                        assert!(rep.retried_blocks > 0 || rep.serial_cycles == 0);
                    }
                }
                Err(e) => {
                    // All units lost: legal outcome at high rates, but it
                    // must be the typed error, not a panic.
                    let msg = e.to_string();
                    assert!(msg.contains("units lost"), "rate {rate} seed {seed}: {msg}");
                }
            }
        }
    }
}

#[test]
fn degraded_cycle_reports_stay_consistent() {
    let engine = UniStc::default();
    for &rate in &RATES {
        for seed in 0..6u64 {
            let a = BbcMatrix::from_csr(&random_matrix(seed ^ 0x90));
            let plans: Vec<FaultPlan> = (0..4u64)
                .map(|u| FaultPlan {
                    seed: seed ^ (u << 12),
                    bitmap_rate: rate,
                    pointer_rate: rate,
                    value_rate: 0.0,
                })
                .collect();
            let clean = parallel_kernel_degraded(&engine, &a, Kernel::SpMV, 1, 4, &[])
                .expect("fault-free run cannot lose units");
            match parallel_kernel_degraded(&engine, &a, Kernel::SpMV, 1, 4, &plans) {
                Ok(rep) => {
                    // Work conservation: requeueing moves cycles between
                    // units but the serial total is invariant.
                    assert_eq!(rep.serial_cycles, clean.serial_cycles, "rate {rate} seed {seed}");
                    assert_eq!(rep.unit_cycles.iter().sum::<u64>(), rep.serial_cycles);
                    assert!(rep.makespan <= rep.serial_cycles);
                    for &w in &rep.faulty_units {
                        assert_eq!(rep.unit_cycles[w], 0, "offline unit {w} billed cycles");
                    }
                    assert!(rep.events.faults_uncorrected <= rep.events.faults_detected);
                    assert!(rep.events.faults_detected <= rep.events.faults_injected);
                }
                Err(e) => {
                    assert!(e.to_string().contains("units lost"));
                }
            }
        }
    }
}
