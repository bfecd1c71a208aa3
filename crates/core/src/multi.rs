//! Multi-unit execution: Table IX projects 432 Uni-STC units (4 per SM x
//! 108 SMs). This module replays a kernel over `n_units` parallel units
//! using the warp-level static load balancing of [`crate::schedule`]: each
//! unit owns one warp quota of stored blocks, and the kernel finishes when
//! the slowest unit does (the makespan).
//!
//! # Degraded mode
//!
//! Each unit operates on its own local copy of the operand (its share of
//! the on-chip buffers). [`parallel_kernel_degraded`] injects a per-unit
//! [`FaultPlan`] into those copies before execution: a unit whose copy
//! fails [`BbcMatrix::validate`] has suffered an *uncorrected* fault — it
//! cannot repair its buffers locally — and is taken offline. Its block
//! ranges are requeued exactly once onto the surviving units, which
//! re-fetch the affected blocks from the pristine source (protected global
//! memory). When every unit is lost the run returns [`DegradedError`]
//! instead of panicking. [`degraded_spmv`] additionally produces the
//! numeric result: partial contributions are reduced in stored-block-index
//! order — never in unit-completion order — so a degraded run is bitwise
//! identical to the fault-free reference.

use simkit::fault::FaultPlan;
use simkit::{driver::Kernel, Block16, EventCounts, T1Task, TileEngine};
use sparse::BbcMatrix;

use crate::schedule::{balance_warps, warp_loads};

/// Result of a multi-unit replay.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiUnitReport {
    /// Cycles per unit (warp), in warp order.
    pub unit_cycles: Vec<u64>,
    /// Makespan: the slowest unit's cycles.
    pub makespan: u64,
    /// Single-unit (serial) cycles for the same work.
    pub serial_cycles: u64,
    /// Units taken offline after an uncorrected fault in their local copy.
    pub faulty_units: Vec<usize>,
    /// Stored blocks requeued from faulty units onto healthy ones.
    pub retried_blocks: u64,
    /// Aggregated events; the fault counters (`faults_injected`,
    /// `faults_detected`, `faults_uncorrected`) record the injection
    /// campaign across all unit copies.
    pub events: EventCounts,
}

impl MultiUnitReport {
    /// Parallel speedup over one unit.
    ///
    /// Returns 1.0 when no work was performed.
    pub fn speedup(&self) -> f64 {
        if self.makespan == 0 {
            1.0
        } else {
            self.serial_cycles as f64 / self.makespan as f64
        }
    }

    /// Parallel efficiency in `(0, 1]`: speedup over unit count.
    ///
    /// Returns 1.0 when no units ran.
    pub fn efficiency(&self) -> f64 {
        if self.unit_cycles.is_empty() {
            1.0
        } else {
            self.speedup() / self.unit_cycles.len() as f64
        }
    }
}

/// A degraded-mode run could not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DegradedError {
    /// Every unit's local copy suffered an uncorrected fault: there is no
    /// healthy unit left to requeue work onto.
    NoHealthyUnits {
        /// Number of units lost.
        faulty: usize,
    },
    /// A task kept failing intrinsically (panicking or returning an error
    /// on every attempt) until its bounded retry budget ran out. Used by
    /// the `runtime` crate's supervised scheduler: infrastructure faults
    /// (worker crashes, stalls, injected flakes) are drained onto the
    /// supervisor instead, so this variant always points at the task
    /// itself.
    RetriesExhausted {
        /// Index of the failing task within the sharded stream.
        task: u64,
        /// Attempts made before giving up (initial try + retries).
        attempts: u32,
    },
}

impl std::fmt::Display for DegradedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DegradedError::NoHealthyUnits { faulty } => {
                write!(f, "all {faulty} units lost to uncorrected faults")
            }
            DegradedError::RetriesExhausted { task, attempts } => {
                write!(f, "task {task} failed on all {attempts} attempts; retry budget exhausted")
            }
        }
    }
}

impl std::error::Error for DegradedError {}

/// Cycles one engine spends on one stored block under `kernel`.
fn block_cycles(
    engine: &dyn TileEngine,
    bits: Block16,
    kernel: Kernel,
    n_cols: usize,
) -> u64 {
    match kernel {
        Kernel::SpMV => {
            let t = T1Task::mv(bits, u16::MAX);
            if t.is_trivial() {
                0
            } else {
                engine.execute(&t).cycles
            }
        }
        _ => {
            let col_blocks = n_cols.div_ceil(16).max(1);
            (0..col_blocks)
                .map(|cb| {
                    let width = 16.min(n_cols - cb * 16).max(1);
                    let t = T1Task::mm(bits, Block16::dense().keep_cols(width));
                    if t.is_trivial() {
                        0
                    } else {
                        engine.execute(&t).cycles
                    }
                })
                .sum()
        }
    }
}

/// Replays SpMV (dense `x`) or SpMM over `n_units` parallel units with the
/// static warp balancing of Section V-A.
///
/// # Panics
///
/// Panics if `n_units == 0` or `kernel` is not SpMV / SpMM (block pairs of
/// SpGEMM need a different partitioning axis).
pub fn parallel_kernel(
    engine: &dyn TileEngine,
    a: &BbcMatrix,
    kernel: Kernel,
    n_cols: usize,
    n_units: usize,
) -> MultiUnitReport {
    parallel_kernel_degraded(engine, a, kernel, n_cols, n_units, &[])
        .expect("no fault plans, so no unit can be lost")
}

/// Internal state of one degraded run: per-unit health, sources and the
/// block-to-unit assignment after requeueing.
struct DegradedState {
    /// Per-warp local copy when the unit's plan left undetected damage
    /// (`None` = the pristine source is representative).
    unit_src: Vec<Option<BbcMatrix>>,
    /// Warps taken offline.
    faulty: Vec<bool>,
    /// For every stored block: `(executing_warp, requeued)`.
    assignment: Vec<(usize, bool)>,
    events: EventCounts,
    n_warps: usize,
}

fn plan_degraded(
    a: &BbcMatrix,
    n_units: usize,
    plans: &[FaultPlan],
) -> Result<(Vec<crate::schedule::WarpRange>, DegradedState), DegradedError> {
    assert!(n_units > 0, "need at least one unit");
    let ranges = balance_warps(a, n_units);
    let n_warps = warp_loads(&ranges).len();
    let slots = n_warps.max(1);

    let mut events = EventCounts::default();
    let mut faulty = vec![false; slots];
    let mut unit_src: Vec<Option<BbcMatrix>> = vec![None; slots];
    for (w, plan) in plans.iter().enumerate().take(n_warps) {
        let (corrupted, outcome) = plan.inject_into(a);
        events.faults_injected += outcome.log.injected();
        events.faults_detected += outcome.detected;
        if outcome.structure_corrupt {
            // Detected but locally uncorrectable: the unit goes offline and
            // its work is requeued from the pristine source.
            events.faults_uncorrected += outcome.detected;
            faulty[w] = true;
        } else if outcome.log.injected() > 0 {
            // Undetected damage (finite value flips) stays in the unit's
            // buffers and flows into its results silently.
            unit_src[w] = Some(corrupted);
        }
    }

    let healthy: Vec<usize> = (0..n_warps).filter(|&w| !faulty[w]).collect();
    if !ranges.is_empty() && healthy.is_empty() {
        return Err(DegradedError::NoHealthyUnits { faulty: n_warps });
    }

    // One requeue round: blocks of faulty warps move round-robin onto the
    // healthy warps. The assignment is per stored block so the numeric
    // reduction below can stay in block-index order.
    let mut assignment = vec![(0usize, false); a.block_count()];
    let mut rr = 0usize;
    for range in &ranges {
        for slot in assignment.iter_mut().take(range.end).skip(range.start) {
            *slot = if faulty[range.warp] {
                let w = healthy[rr % healthy.len()];
                rr += 1;
                (w, true)
            } else {
                (range.warp, false)
            };
        }
    }
    Ok((ranges, DegradedState { unit_src, faulty, assignment, events, n_warps }))
}

/// [`parallel_kernel`] under per-unit fault injection.
///
/// `plans[w]` corrupts the local operand copy of unit `w` (missing entries
/// inject nothing). Units whose copy fails validation are taken offline and
/// their blocks are requeued once onto the surviving units, which re-fetch
/// them from the pristine source; the requeue is visible as
/// [`MultiUnitReport::faulty_units`] / [`MultiUnitReport::retried_blocks`]
/// and in the report's fault counters.
///
/// # Errors
///
/// Returns [`DegradedError::NoHealthyUnits`] when there is work but every
/// unit was lost.
///
/// # Panics
///
/// Panics if `n_units == 0` or `kernel` is not SpMV / SpMM.
pub fn parallel_kernel_degraded(
    engine: &dyn TileEngine,
    a: &BbcMatrix,
    kernel: Kernel,
    n_cols: usize,
    n_units: usize,
    plans: &[FaultPlan],
) -> Result<MultiUnitReport, DegradedError> {
    assert!(
        matches!(kernel, Kernel::SpMV | Kernel::SpMM),
        "parallel replay supports SpMV and SpMM"
    );
    let (_, state) = plan_degraded(a, n_units, plans)?;
    let mut unit_cycles = vec![0u64; state.n_warps.max(1)];
    let mut serial_cycles = 0u64;
    let mut retried_blocks = 0u64;
    for (bi, &(w, requeued)) in state.assignment.iter().enumerate() {
        // Requeued blocks re-fetch pristine data; a healthy unit executes
        // from its own (possibly silently damaged) copy. Either way the
        // validated structure is identical, so the task geometry is too.
        let src = if requeued { a } else { state.unit_src[w].as_ref().unwrap_or(a) };
        let bits = Block16::from_bbc(&src.block(bi));
        let cycles = block_cycles(engine, bits, kernel, n_cols);
        unit_cycles[w] += cycles;
        serial_cycles += cycles;
        if requeued {
            retried_blocks += 1;
        }
    }
    let makespan = unit_cycles.iter().copied().max().unwrap_or(0);
    Ok(MultiUnitReport {
        unit_cycles,
        makespan,
        serial_cycles,
        faulty_units: (0..state.n_warps).filter(|&w| state.faulty[w]).collect(),
        retried_blocks,
        events: state.events,
    })
}

/// Numeric SpMV (`y = A x`) over `n_units` degraded units.
///
/// Every stored block's contribution is computed from the copy of the unit
/// that executed it (pristine for requeued blocks) and reduced **in
/// stored-block-index order**, independent of the unit assignment — so as
/// long as no *undetected* fault reaches a value, the degraded result is
/// bitwise identical to the fault-free reference.
///
/// # Errors
///
/// Returns [`DegradedError::NoHealthyUnits`] when there is work but every
/// unit was lost.
///
/// # Panics
///
/// Panics if `n_units == 0` or `x.len() != a.ncols()`.
pub fn degraded_spmv(
    engine: &dyn TileEngine,
    a: &BbcMatrix,
    x: &[f64],
    n_units: usize,
    plans: &[FaultPlan],
) -> Result<(Vec<f64>, MultiUnitReport), DegradedError> {
    assert_eq!(x.len(), a.ncols(), "x length must match a.ncols()");
    let (_, state) = plan_degraded(a, n_units, plans)?;
    let mut unit_cycles = vec![0u64; state.n_warps.max(1)];
    let mut serial_cycles = 0u64;
    let mut retried_blocks = 0u64;
    let mut y = vec![0.0f64; a.nrows()];
    for (bi, &(w, requeued)) in state.assignment.iter().enumerate() {
        let src = if requeued { a } else { state.unit_src[w].as_ref().unwrap_or(a) };
        let blk = src.block(bi);
        for (r, c, v) in blk.iter() {
            y[r] += v * x[c];
        }
        let cycles = block_cycles(engine, Block16::from_bbc(&blk), Kernel::SpMV, 1);
        unit_cycles[w] += cycles;
        serial_cycles += cycles;
        if requeued {
            retried_blocks += 1;
        }
    }
    let makespan = unit_cycles.iter().copied().max().unwrap_or(0);
    let report = MultiUnitReport {
        unit_cycles,
        makespan,
        serial_cycles,
        faulty_units: (0..state.n_warps).filter(|&w| state.faulty[w]).collect(),
        retried_blocks,
        events: state.events,
    };
    Ok((y, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UniStc;
    use sparse::{CooMatrix, CsrMatrix};

    fn bbc(n: usize, entries: impl IntoIterator<Item = (usize, usize)>) -> BbcMatrix {
        let mut coo = CooMatrix::new(n, n);
        for (r, c) in entries {
            coo.push(r, c, 1.0);
        }
        BbcMatrix::from_csr(&CsrMatrix::try_from(coo).unwrap())
    }

    #[test]
    fn makespan_bounded_by_serial_and_ideal() {
        let a = bbc(256, (0..256).map(|i| (i, (i * 11) % 256)));
        let uni = UniStc::default();
        for n_units in [1usize, 2, 4, 8] {
            let rep = parallel_kernel(&uni, &a, Kernel::SpMV, 1, n_units);
            assert!(rep.makespan <= rep.serial_cycles);
            assert!(rep.makespan * n_units as u64 >= rep.serial_cycles);
            assert!(rep.speedup() >= 1.0);
            assert!(rep.efficiency() <= 1.0 + 1e-12);
            assert!(rep.faulty_units.is_empty());
            assert_eq!(rep.retried_blocks, 0);
        }
    }

    #[test]
    fn one_unit_equals_serial() {
        let a = bbc(128, (0..128).map(|i| (i, i)));
        let rep = parallel_kernel(&UniStc::default(), &a, Kernel::SpMV, 1, 1);
        assert_eq!(rep.makespan, rep.serial_cycles);
        assert!((rep.speedup() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn balanced_work_scales_nearly_linearly() {
        // 32 identical diagonal blocks across 8 units.
        let a = bbc(512, (0..512).map(|i| (i, i)));
        let rep = parallel_kernel(&UniStc::default(), &a, Kernel::SpMV, 1, 8);
        assert!(rep.efficiency() > 0.9, "efficiency {}", rep.efficiency());
    }

    #[test]
    fn spmm_replay_works() {
        let a = bbc(64, (0..64).map(|i| (i, (i * 3) % 64)));
        let rep = parallel_kernel(&UniStc::default(), &a, Kernel::SpMM, 64, 4);
        assert!(rep.makespan > 0);
        assert!(rep.speedup() > 1.0);
    }

    #[test]
    #[should_panic(expected = "SpMV and SpMM")]
    fn spgemm_rejected() {
        let a = bbc(16, [(0, 0)]);
        parallel_kernel(&UniStc::default(), &a, Kernel::SpGEMM, 1, 2);
    }

    #[test]
    fn faulty_unit_requeues_onto_healthy_ones() {
        let a = bbc(512, (0..512).map(|i| (i, i)));
        // Unit 0 gets certain metadata corruption; the rest stay clean.
        let plans = [FaultPlan { seed: 1, bitmap_rate: 0.3, pointer_rate: 0.0, value_rate: 0.0 }];
        let rep = parallel_kernel_degraded(&UniStc::default(), &a, Kernel::SpMV, 1, 4, &plans)
            .unwrap();
        assert_eq!(rep.faulty_units, vec![0]);
        assert!(rep.retried_blocks > 0);
        assert_eq!(rep.unit_cycles[0], 0, "offline unit must do no work");
        assert!(rep.events.faults_injected > 0);
        assert_eq!(rep.events.faults_detected, rep.events.faults_injected);
        assert_eq!(rep.events.faults_uncorrected, rep.events.faults_detected);
        // The same total work is still performed.
        let clean = parallel_kernel(&UniStc::default(), &a, Kernel::SpMV, 1, 4);
        assert_eq!(rep.serial_cycles, clean.serial_cycles);
    }

    #[test]
    fn all_units_faulty_is_an_error_not_a_panic() {
        let a = bbc(128, (0..128).map(|i| (i, i)));
        let plans: Vec<FaultPlan> = (0..4)
            .map(|s| FaultPlan { seed: s, bitmap_rate: 0.4, pointer_rate: 0.0, value_rate: 0.0 })
            .collect();
        let err = parallel_kernel_degraded(&UniStc::default(), &a, Kernel::SpMV, 1, 4, &plans)
            .unwrap_err();
        assert!(matches!(err, DegradedError::NoHealthyUnits { .. }));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn degraded_error_implements_error_and_display() {
        let errs = [
            DegradedError::NoHealthyUnits { faulty: 4 },
            DegradedError::RetriesExhausted { task: 17, attempts: 3 },
        ];
        for err in errs {
            let dyn_err: &dyn std::error::Error = &err;
            assert!(!dyn_err.to_string().is_empty());
        }
        let msg = DegradedError::RetriesExhausted { task: 17, attempts: 3 }.to_string();
        assert!(msg.contains("task 17"), "{msg}");
        assert!(msg.contains("3 attempts"), "{msg}");
    }

    #[test]
    fn degraded_spmv_is_bitwise_identical_to_reference() {
        let a = bbc(256, (0..256).flat_map(|i| [(i, i), (i, (i * 7) % 256)]));
        let x: Vec<f64> = (0..256).map(|i| ((i % 13) as f64) - 6.0).collect();
        let uni = UniStc::default();
        let (y_ref, _) = degraded_spmv(&uni, &a, &x, 4, &[]).unwrap();
        let plans = [
            FaultPlan { seed: 5, bitmap_rate: 0.2, pointer_rate: 0.1, value_rate: 0.0 },
            FaultPlan::none(6),
        ];
        let (y, rep) = degraded_spmv(&uni, &a, &x, 4, &plans).unwrap();
        assert_eq!(rep.faulty_units, vec![0]);
        assert!(y.iter().zip(&y_ref).all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn degraded_spmv_matches_csr_reference() {
        let a = bbc(96, (0..96).map(|i| (i, (i * 5) % 96)));
        let x: Vec<f64> = (0..96).map(|i| 1.0 + (i % 3) as f64).collect();
        let (y, _) =
            degraded_spmv(&UniStc::default(), &a, &x, 3, &[]).unwrap();
        let want = sparse::ops::spmv(&a.to_csr(), &x).unwrap();
        for (g, w) in y.iter().zip(&want) {
            assert!((g - w).abs() < 1e-12);
        }
    }
}
