//! Global-memory bandwidth model and roofline analysis.
//!
//! The paper integrates its STC models into Accel-Sim "with added support
//! for asynchronous memory access": kernel runtime is the maximum of the
//! STC's compute time and the time to stream operands through the memory
//! system. This module adds that second axis: DRAM traffic is derived from
//! the same counted events the energy model uses, and a kernel lands on
//! the compute- or memory-bound side of the roofline.

use crate::driver::KernelReport;
use crate::EventCounts;

/// Bytes per stored value (FP64 operands).
pub const VALUE_BYTES: f64 = 8.0;

/// Bytes per metadata word (bitmaps/pointers are 16-bit words).
pub const META_BYTES: f64 = 2.0;

/// A DRAM bandwidth model, normalised to one STC unit's clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryModel {
    /// Sustained DRAM bytes available per STC cycle per unit.
    ///
    /// The default follows the A100 deployment of Table IX: ~1555 GB/s of
    /// HBM across 108 SMs at 1.41 GHz with 4 STC units per SM gives
    /// ~2.5 B/cycle/unit.
    pub bytes_per_cycle: f64,
}

impl Default for MemoryModel {
    fn default() -> Self {
        MemoryModel { bytes_per_cycle: 2.5 }
    }
}

/// Which side of the roofline a kernel lands on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// The MAC array limits runtime.
    Compute,
    /// DRAM bandwidth limits runtime.
    Memory,
}

/// Roofline assessment of one kernel run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Roofline {
    /// Compute cycles (the engine's scheduled cycles).
    pub compute_cycles: u64,
    /// Cycles to stream the DRAM traffic at the model bandwidth.
    pub memory_cycles: u64,
    /// Effective runtime: `max(compute, memory)`.
    pub bound_cycles: u64,
    /// The binding side.
    pub bound: Bound,
    /// DRAM bytes moved.
    pub dram_bytes: f64,
    /// Arithmetic intensity: useful MACs per DRAM byte.
    pub intensity: f64,
}

/// On-chip operand traffic implied by an event aggregate (operand
/// fetches, result writes, metadata words). This is *buffer* traffic —
/// operands are re-fetched per T1 task — and upper-bounds the DRAM
/// traffic, which caching reduces to the compulsory volume below.
pub fn buffer_bytes(ev: &EventCounts) -> f64 {
    (ev.a_elems + ev.b_elems + ev.c_writes) as f64 * VALUE_BYTES
        + ev.meta_words as f64 * META_BYTES
}

/// Compulsory DRAM traffic of one kernel invocation: every operand and
/// result byte streamed exactly once (perfect on-chip reuse — the standard
/// roofline assumption).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CompulsoryTraffic {
    /// Sparse-matrix bytes (values + metadata) read.
    pub matrix_bytes: f64,
    /// Dense/sparse operand bytes read (x, B, ...).
    pub operand_bytes: f64,
    /// Result bytes written (y, C, ...).
    pub result_bytes: f64,
}

impl CompulsoryTraffic {
    /// Total DRAM bytes.
    pub fn total(&self) -> f64 {
        self.matrix_bytes + self.operand_bytes + self.result_bytes
    }
}

impl MemoryModel {
    /// Assesses one kernel report against the roofline, with the
    /// compulsory DRAM volume supplied by the caller (it depends on the
    /// kernel's operands, which the report does not carry).
    pub fn roofline(&self, report: &KernelReport, traffic: CompulsoryTraffic) -> Roofline {
        let bytes = traffic.total();
        let memory_cycles = (bytes / self.bytes_per_cycle).ceil() as u64;
        let compute_cycles = report.cycles;
        let bound_cycles = compute_cycles.max(memory_cycles);
        Roofline {
            compute_cycles,
            memory_cycles,
            bound_cycles,
            bound: if memory_cycles > compute_cycles { Bound::Memory } else { Bound::Compute },
            dram_bytes: bytes,
            intensity: if bytes > 0.0 { report.useful as f64 / bytes } else { 0.0 },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{run_stream, Kernel};
    use crate::{Block16, EnergyModel, NetworkCosts, T1Result, T1Task, TaskStream, TileEngine};

    struct OnePerCycle;

    impl TileEngine for OnePerCycle {
        fn name(&self) -> &str {
            "one"
        }
        fn lanes(&self) -> usize {
            64
        }
        fn execute(&self, task: &T1Task) -> T1Result {
            let mut r = T1Result::new(64);
            let mut left = task.products();
            while left > 0 {
                let u = left.min(64) as usize;
                r.record_cycle(u);
                left -= u as u64;
            }
            r.useful = task.products();
            r.events.a_elems = task.a.nnz() as u64;
            r.events.b_elems = task.b.nnz() as u64;
            r.events.c_writes = task.c_nnz() as u64;
            r
        }
        fn network_costs(&self) -> NetworkCosts {
            NetworkCosts::flat()
        }
    }

    fn report(tasks: Vec<T1Task>) -> KernelReport {
        let stream = TaskStream::from(&tasks[..]);
        run_stream(&OnePerCycle, &EnergyModel::default(), Kernel::SpGEMM, &stream).unwrap()
    }

    fn traffic(bytes: f64) -> CompulsoryTraffic {
        CompulsoryTraffic { matrix_bytes: bytes, ..Default::default() }
    }

    #[test]
    fn buffer_bytes_counts_values_and_meta() {
        let ev = EventCounts {
            a_elems: 10,
            b_elems: 20,
            c_writes: 5,
            meta_words: 8,
            ..Default::default()
        };
        assert!((buffer_bytes(&ev) - (35.0 * 8.0 + 16.0)).abs() < 1e-12);
    }

    #[test]
    fn compulsory_traffic_sums_components() {
        let t = CompulsoryTraffic {
            matrix_bytes: 100.0,
            operand_bytes: 10.0,
            result_bytes: 5.0,
        };
        assert!((t.total() - 115.0).abs() < 1e-12);
    }

    #[test]
    fn dense_blocks_are_compute_bound() {
        // 4096 MACs on 64 lanes (64 cycles) vs ~6 KB of traffic at
        // generous bandwidth.
        let r = report(vec![T1Task::mm(Block16::dense(), Block16::dense())]);
        let rl = MemoryModel { bytes_per_cycle: 256.0 }.roofline(&r, traffic(6144.0));
        assert_eq!(rl.bound, Bound::Compute);
        assert_eq!(rl.bound_cycles, rl.compute_cycles);
        assert!(rl.intensity > 0.5);
    }

    #[test]
    fn sparse_mv_is_memory_bound() {
        // One product per 16 bytes streamed: intensity ~ 1/16 MAC/byte.
        let diag = Block16::from_fn(|r, c| r == c);
        let r = report(vec![T1Task::mv(diag, u16::MAX)]);
        let rl = MemoryModel::default().roofline(&r, traffic(16.0 * 16.0));
        assert_eq!(rl.bound, Bound::Memory);
        assert!(rl.memory_cycles > rl.compute_cycles);
        assert!(rl.intensity < 0.2, "intensity {}", rl.intensity);
    }

    #[test]
    fn higher_bandwidth_shifts_the_crossover() {
        let diag = Block16::from_fn(|r, c| r == c);
        let r = report(vec![T1Task::mv(diag, u16::MAX)]);
        let slow = MemoryModel { bytes_per_cycle: 0.5 }.roofline(&r, traffic(256.0));
        let fast = MemoryModel { bytes_per_cycle: 1e6 }.roofline(&r, traffic(256.0));
        assert!(slow.memory_cycles > fast.memory_cycles);
        assert_eq!(fast.bound, Bound::Compute);
    }

    #[test]
    fn empty_report_is_degenerate_but_finite() {
        let r = report(vec![]);
        let rl = MemoryModel::default().roofline(&r, CompulsoryTraffic::default());
        assert_eq!(rl.bound_cycles, 0);
        assert_eq!(rl.intensity, 0.0);
    }
}
