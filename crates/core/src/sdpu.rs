//! SDPU — the segmented dot-product unit (Section IV-B, Fig. 11).
//!
//! The SDPU packs T4 segments (1..=4 lanes each) from multiple concurrent
//! T3 tasks onto the MAC lane array. Its merge-forward structure can
//! configure **any four adjacent multipliers** into a complete binary
//! tree, so segments pack contiguously with no alignment constraint, and
//! up to four partial products are pre-merged before the single write
//! toward the accumulation buffer.

use sparse::kernels::{BitKernels, BitwiseKernels};

/// A per-cycle lane allocator modelling the SDPU's packing capacity.
///
/// # Example
///
/// ```
/// use uni_stc::sdpu::LaneAllocator;
///
/// let mut lanes = LaneAllocator::new(8);
/// assert!(lanes.try_place(4));
/// assert!(lanes.try_place(3));
/// assert!(!lanes.try_place(2)); // only 1 lane left, segment is atomic
/// assert_eq!(lanes.used(), 7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneAllocator {
    lanes: usize,
    used: usize,
}

impl LaneAllocator {
    /// Creates an allocator over `lanes` MAC lanes.
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0`.
    pub fn new(lanes: usize) -> Self {
        assert!(lanes > 0, "SDPU needs at least one lane");
        LaneAllocator { lanes, used: 0 }
    }

    /// Attempts to place an atomic segment of `len` lanes; segments never
    /// split across cycles.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0` or `len > 4` (T4 segments are 1..=4 lanes —
    /// longer segments would need a second merge-forward level, which the
    /// 4x4x4 T3 size rules out, Table IV).
    pub fn try_place(&mut self, len: usize) -> bool {
        assert!((1..=crate::T4_MAX_LEN).contains(&len), "segment length {len} out of range");
        if self.used + len > self.lanes {
            return false;
        }
        self.used += len;
        true
    }

    /// Lanes used so far this cycle.
    pub fn used(&self) -> usize {
        self.used
    }

    /// Lanes still free this cycle.
    pub fn free(&self) -> usize {
        self.lanes - self.used
    }

    /// Total lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Resets the allocator for the next cycle.
    pub fn reset(&mut self) {
        self.used = 0;
    }
}

/// Statistics of packing a segment stream into SDPU cycles, for the
/// dataflow case study (Fig. 14) and unit validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PackStats {
    /// Cycles needed.
    pub cycles: u64,
    /// Lanes carrying useful products.
    pub useful_lanes: u64,
    /// Partial-product writes after pre-merging (one per segment).
    pub merged_writes: u64,
}

impl PackStats {
    /// Mean utilisation of the packing in `[0, 1]`.
    pub fn utilisation(&self, lanes: usize) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.useful_lanes as f64 / (self.cycles * lanes as u64) as f64
        }
    }
}

/// Packs a stream of segments greedily, in order, onto `lanes`-wide cycles
/// (first-fit without reordering — the hardware consumes the dot-product
/// queue in fill order).
pub fn pack_segments<I: IntoIterator<Item = u8>>(segments: I, lanes: usize) -> PackStats {
    pack_segments_traced(segments, lanes, &mut obs::NoopSink)
}

/// [`pack_segments`] with instrumentation: records one
/// [`SdpuPack`](obs::TraceEvent::SdpuPack) event per packed cycle with the
/// segment count and lane occupancy of that cycle.
pub fn pack_segments_traced<I: IntoIterator<Item = u8>>(
    segments: I,
    lanes: usize,
    sink: &mut dyn obs::TraceSink,
) -> PackStats {
    let mut alloc = LaneAllocator::new(lanes);
    let mut stats = PackStats::default();
    let mut open = false;
    let mut cycle_segments = 0u32;
    for seg in segments {
        let len = seg as usize;
        if !alloc.try_place(len) {
            if sink.enabled() {
                sink.record(obs::TraceEvent::SdpuPack {
                    cycle: stats.cycles,
                    segments: cycle_segments,
                    lanes_used: alloc.used() as u32,
                    lanes: lanes as u32,
                });
            }
            stats.cycles += 1;
            alloc.reset();
            cycle_segments = 0;
            let placed = alloc.try_place(len);
            debug_assert!(placed, "segment must fit in an empty cycle");
        }
        open = true;
        cycle_segments += 1;
        stats.useful_lanes += len as u64;
        stats.merged_writes += 1;
    }
    if open {
        if sink.enabled() {
            sink.record(obs::TraceEvent::SdpuPack {
                cycle: stats.cycles,
                segments: cycle_segments,
                lanes_used: alloc.used() as u32,
                lanes: lanes as u32,
            });
        }
        stats.cycles += 1;
    }
    stats
}

/// One segmented dot product on the SDPU datapath: for each set bit
/// `kk` of `pattern & 0xF` in ascending order, accumulates
/// `a_tile[m * 4 + kk] * b_tile[kk * 4 + n]`. Returns the sum and the
/// number of products (lanes) consumed.
///
/// Runs [`BitwiseKernels::segment_dot`], which evaluates the products
/// in the same ascending-`kk` order as the scalar reference, so the f64
/// sum is bit-identical to it (the bitwise kernel only replaces the
/// per-bit skip test with `trailing_zeros` iteration).
pub fn segment_dot(
    pattern: u8,
    a_tile: &[f64; 16],
    b_tile: &[f64; 16],
    m: usize,
    n: usize,
) -> (f64, u32) {
    BitwiseKernels.segment_dot(pattern, a_tile, b_tile, m, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocator_places_until_full() {
        let mut a = LaneAllocator::new(64);
        for _ in 0..16 {
            assert!(a.try_place(4));
        }
        assert_eq!(a.used(), 64);
        assert_eq!(a.free(), 0);
        assert!(!a.try_place(1));
        a.reset();
        assert!(a.try_place(1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_segment_rejected() {
        LaneAllocator::new(64).try_place(5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_segment_rejected() {
        LaneAllocator::new(64).try_place(0);
    }

    #[test]
    fn pack_full_segments_perfectly() {
        // 32 segments of length 4 on 64 lanes: 2 cycles at 100 %.
        let stats = pack_segments(std::iter::repeat_n(4u8, 32), 64);
        assert_eq!(stats.cycles, 2);
        assert_eq!(stats.useful_lanes, 128);
        assert_eq!(stats.merged_writes, 32);
        assert!((stats.utilisation(64) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pack_mixed_segments_wastes_boundary_lanes() {
        // Segments 3,3,3 on 8 lanes: cycle1 = 3+3 (2 free), cycle2 = 3.
        let stats = pack_segments([3u8, 3, 3], 8);
        assert_eq!(stats.cycles, 2);
        assert_eq!(stats.useful_lanes, 9);
        assert!((stats.utilisation(8) - 9.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn merge_writes_one_per_segment() {
        // The merge-forward tree pre-merges up to 4 partials per segment.
        let stats = pack_segments([4u8, 2, 1, 4], 64);
        assert_eq!(stats.merged_writes, 4);
        assert_eq!(stats.useful_lanes, 11);
        assert_eq!(stats.cycles, 1);
    }

    #[test]
    fn traced_pack_emits_one_event_per_cycle() {
        let mut events: Vec<obs::TraceEvent> = Vec::new();
        let stats = pack_segments_traced([3u8, 3, 3], 8, &mut events);
        assert_eq!(stats, pack_segments([3u8, 3, 3], 8));
        assert_eq!(events.len() as u64, stats.cycles);
        let (used, segs): (u64, u64) = events
            .iter()
            .filter_map(|e| match e {
                obs::TraceEvent::SdpuPack { segments, lanes_used, .. } => {
                    Some((u64::from(*lanes_used), u64::from(*segments)))
                }
                _ => None,
            })
            .fold((0, 0), |(u, s), (du, ds)| (u + du, s + ds));
        assert_eq!(used, stats.useful_lanes);
        assert_eq!(segs, stats.merged_writes);
    }

    #[test]
    fn empty_stream_is_zero_cycles() {
        let stats = pack_segments(std::iter::empty(), 64);
        assert_eq!(stats, PackStats::default());
        assert_eq!(stats.utilisation(64), 0.0);
    }
}
