//! Per-task and aggregated execution results: cycles, lane occupancy and
//! hardware event counts.

/// Histogram of MAC-lane occupancy: `counts[l]` is the number of cycles in
/// which exactly `l` lanes carried useful products.
///
/// This is the raw data behind the paper's Fig. 5 (colour-coded utilisation
/// bands) and Fig. 16 (average MAC utilisation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UtilHistogram {
    lanes: usize,
    counts: Vec<u64>,
}

impl UtilHistogram {
    /// Creates an empty histogram for an engine with `lanes` MAC lanes.
    pub fn new(lanes: usize) -> Self {
        UtilHistogram { lanes, counts: vec![0; lanes + 1] }
    }

    /// Number of MAC lanes of the engine this histogram describes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Records one cycle with `used` useful lanes.
    ///
    /// # Panics
    ///
    /// Panics if `used > self.lanes()`.
    pub fn record(&mut self, used: usize) {
        assert!(used <= self.lanes, "lane occupancy {used} exceeds {} lanes", self.lanes);
        self.counts[used] += 1;
    }

    /// Total recorded cycles.
    pub fn cycles(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Total useful lane-operations across all cycles.
    pub fn useful_ops(&self) -> u64 {
        self.counts.iter().enumerate().map(|(l, &c)| l as u64 * c).sum()
    }

    /// Mean utilisation in `[0, 1]` (useful lane-ops over issued capacity).
    pub fn mean_utilisation(&self) -> f64 {
        let cycles = self.cycles();
        if cycles == 0 {
            return 0.0;
        }
        self.useful_ops() as f64 / (cycles * self.lanes as u64) as f64
    }

    /// Fraction of cycles whose utilisation falls in `[lo, hi)` (with the
    /// top band closed at 1.0).
    pub fn band_fraction(&self, lo: f64, hi: f64) -> f64 {
        let cycles = self.cycles();
        if cycles == 0 {
            return 0.0;
        }
        let mut n = 0u64;
        for (l, &c) in self.counts.iter().enumerate() {
            let u = l as f64 / self.lanes as f64;
            if u >= lo && (u < hi || (hi >= 1.0 && u <= 1.0)) {
                n += c;
            }
        }
        n as f64 / cycles as f64
    }

    /// The four quartile band fractions `[0,25), [25,50), [50,75), [75,100]`
    /// used by the paper's Fig. 5.
    pub fn quartile_bands(&self) -> [f64; 4] {
        [
            self.band_fraction(0.0, 0.25),
            self.band_fraction(0.25, 0.50),
            self.band_fraction(0.50, 0.75),
            self.band_fraction(0.75, 1.01),
        ]
    }

    /// Merges `times` copies of `other`, a histogram of the same lane
    /// count, into this one with checked arithmetic: every bucket gains
    /// `times` times `other`'s count, or an error names the overflow. On
    /// error the histogram is partially merged and must be discarded.
    ///
    /// # Errors
    ///
    /// [`CounterOverflow`] if a bucket count would exceed `u64::MAX`.
    ///
    /// # Panics
    ///
    /// Panics if the lane counts differ.
    pub fn try_merge_scaled(
        &mut self,
        other: &UtilHistogram,
        times: u64,
    ) -> Result<(), CounterOverflow> {
        assert_eq!(self.lanes, other.lanes, "cannot merge histograms of different lane counts");
        // One overflow check after the loop, not one early exit per bucket,
        // and no multiply for the common factor of 1: the loop stays
        // branch-free and vectorises.
        let mut overflowed = false;
        for (a, &b) in self.counts.iter_mut().zip(&other.counts) {
            let (scaled, o1) = if times == 1 { (b, false) } else { b.overflowing_mul(times) };
            let (sum, o2) = a.overflowing_add(scaled);
            *a = sum;
            overflowed |= o1 | o2;
        }
        if overflowed {
            Err(CounterOverflow { counter: "util" })
        } else {
            Ok(())
        }
    }
}

/// A report counter that would exceed `u64::MAX`: the exact result is not
/// representable, so the run reports this instead of a wrapped value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterOverflow {
    /// The counter that overflowed (`"cycles"`, `"util"`, `"mac_issued"`, ...).
    pub counter: &'static str,
}

impl std::fmt::Display for CounterOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "report counter `{}` overflows u64", self.counter)
    }
}

impl std::error::Error for CounterOverflow {}

/// `acc + value * times`, or the overflow of `counter`.
pub(crate) fn add_scaled(
    acc: u64,
    value: u64,
    times: u64,
    counter: &'static str,
) -> Result<u64, CounterOverflow> {
    value
        .checked_mul(times)
        .and_then(|v| acc.checked_add(v))
        .ok_or(CounterOverflow { counter })
}

/// Counted hardware events of one task (or an aggregate of tasks), in the
/// style of the Sparseloop methodology the paper's energy model follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EventCounts {
    /// Operand-A elements fetched from buffers/registers.
    pub a_elems: u64,
    /// Operand-B elements fetched from buffers/registers.
    pub b_elems: u64,
    /// Intermediate partial products transferred toward accumulation.
    pub partial_updates: u64,
    /// Final C elements written back.
    pub c_writes: u64,
    /// Metadata words (bitmaps, pointers) fetched.
    pub meta_words: u64,
    /// Scheduling operations (task codes generated at any level).
    pub sched_ops: u64,
    /// Active scheduling-unit cycles (e.g. DPG-cycles for Uni-STC); drives
    /// the power-gating term of the energy model.
    pub unit_cycles: u64,
    /// Issued MAC lane-operations, including lanes wasted on zeros.
    pub mac_issued: u64,
    /// Sum over cycles of the number of *enabled* output-network ports
    /// (Fig. 19's "average network scale" = this / cycles).
    pub c_ports_cycles: u64,
    /// Bit flips injected into operand storage by the fault-injection
    /// subsystem ([`crate::fault`]).
    pub faults_injected: u64,
    /// Injected faults caught by structural validation or stream checksums
    /// before (or instead of) silently corrupting results.
    pub faults_detected: u64,
    /// Detected faults for which no recovery path succeeded (no pristine
    /// copy, or no healthy unit to re-execute on).
    pub faults_uncorrected: u64,
}

impl EventCounts {
    /// Adds `times` copies of `o` field by field with checked arithmetic,
    /// or an error where a field would overflow. On error the counts are
    /// partially updated and must be discarded.
    ///
    /// # Errors
    ///
    /// [`CounterOverflow`] naming the first field that would exceed
    /// `u64::MAX`.
    pub fn try_add_scaled(&mut self, o: &EventCounts, times: u64) -> Result<(), CounterOverflow> {
        let fields: [(&mut u64, u64, &'static str); 12] = [
            (&mut self.a_elems, o.a_elems, "a_elems"),
            (&mut self.b_elems, o.b_elems, "b_elems"),
            (&mut self.partial_updates, o.partial_updates, "partial_updates"),
            (&mut self.c_writes, o.c_writes, "c_writes"),
            (&mut self.meta_words, o.meta_words, "meta_words"),
            (&mut self.sched_ops, o.sched_ops, "sched_ops"),
            (&mut self.unit_cycles, o.unit_cycles, "unit_cycles"),
            (&mut self.mac_issued, o.mac_issued, "mac_issued"),
            (&mut self.c_ports_cycles, o.c_ports_cycles, "c_ports_cycles"),
            (&mut self.faults_injected, o.faults_injected, "faults_injected"),
            (&mut self.faults_detected, o.faults_detected, "faults_detected"),
            (&mut self.faults_uncorrected, o.faults_uncorrected, "faults_uncorrected"),
        ];
        let mut overflow = None;
        for (acc, value, counter) in fields {
            let (scaled, o1) =
                if times == 1 { (value, false) } else { value.overflowing_mul(times) };
            let (sum, o2) = acc.overflowing_add(scaled);
            *acc = sum;
            if o1 | o2 {
                overflow = overflow.or(Some(CounterOverflow { counter }));
            }
        }
        overflow.map_or(Ok(()), Err)
    }
}

/// The result of executing one T1 task on a [`TileEngine`].
///
/// [`TileEngine`]: crate::TileEngine
#[derive(Debug, Clone, PartialEq)]
pub struct T1Result {
    /// Cycles spent on the task.
    pub cycles: u64,
    /// Useful MAC operations performed (= the task's intermediate-product
    /// count when the engine computes everything exactly once).
    pub useful: u64,
    /// Per-cycle lane occupancy.
    pub util: UtilHistogram,
    /// Counted hardware events.
    pub events: EventCounts,
}

impl T1Result {
    /// Creates an empty result for an engine with `lanes` MAC lanes.
    pub fn new(lanes: usize) -> Self {
        T1Result {
            cycles: 0,
            useful: 0,
            util: UtilHistogram::new(lanes),
            events: EventCounts::default(),
        }
    }

    /// Records one execution cycle with `used` useful lanes, bumping the
    /// cycle counter and the issued-lane event count.
    pub fn record_cycle(&mut self, used: usize) {
        self.cycles += 1;
        self.util.record(used);
        self.events.mac_issued += self.util.lanes() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_records_and_averages() {
        let mut h = UtilHistogram::new(64);
        h.record(64);
        h.record(32);
        h.record(0);
        assert_eq!(h.cycles(), 3);
        assert_eq!(h.useful_ops(), 96);
        assert!((h.mean_utilisation() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn histogram_rejects_overflow() {
        let mut h = UtilHistogram::new(4);
        h.record(5);
    }

    #[test]
    fn quartile_bands_partition() {
        let mut h = UtilHistogram::new(64);
        h.record(10); // 15.6% -> band 0
        h.record(20); // 31.2% -> band 1
        h.record(40); // 62.5% -> band 2
        h.record(64); // 100%  -> band 3
        let b = h.quartile_bands();
        for f in b {
            assert!((f - 0.25).abs() < 1e-12);
        }
        assert!((b.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn band_edges_are_half_open() {
        let mut h = UtilHistogram::new(4);
        h.record(1); // exactly 25%
        assert_eq!(h.band_fraction(0.0, 0.25), 0.0);
        assert_eq!(h.band_fraction(0.25, 0.5), 1.0);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = UtilHistogram::new(8);
        a.record(8);
        let mut b = UtilHistogram::new(8);
        b.record(4);
        a.try_merge_scaled(&b, 1).unwrap();
        assert_eq!(a.cycles(), 2);
        assert_eq!(a.useful_ops(), 12);
    }

    #[test]
    #[should_panic(expected = "different lane counts")]
    fn merge_rejects_mismatched_lanes() {
        let mut a = UtilHistogram::new(8);
        let _ = a.try_merge_scaled(&UtilHistogram::new(4), 1);
    }

    #[test]
    fn scaled_merges_equal_repeated_merges() {
        let mut one = UtilHistogram::new(8);
        one.record(8);
        one.record(3);
        let mut folded = UtilHistogram::new(8);
        for _ in 0..5 {
            folded.try_merge_scaled(&one, 1).unwrap();
        }
        let mut scaled = UtilHistogram::new(8);
        scaled.try_merge_scaled(&one, 5).unwrap();
        assert_eq!(scaled, folded);

        let e =
            EventCounts { a_elems: 3, mac_issued: 64, faults_detected: 1, ..Default::default() };
        let mut folded = EventCounts::default();
        for _ in 0..7 {
            folded.try_add_scaled(&e, 1).unwrap();
        }
        let mut scaled = EventCounts::default();
        scaled.try_add_scaled(&e, 7).unwrap();
        assert_eq!(scaled, folded);
    }

    #[test]
    fn scaled_merges_report_overflow_instead_of_wrapping() {
        let mut h = UtilHistogram::new(4);
        h.record(2);
        let mut acc = UtilHistogram::new(4);
        assert_eq!(
            acc.try_merge_scaled(&h, u64::MAX).and_then(|()| acc.try_merge_scaled(&h, 1)),
            Err(CounterOverflow { counter: "util" })
        );
        let e = EventCounts { mac_issued: 2, ..Default::default() };
        let err = EventCounts::default().try_add_scaled(&e, u64::MAX / 2 + 1).unwrap_err();
        assert_eq!(err.counter, "mac_issued");
        assert!(err.to_string().contains("mac_issued"), "{err}");
    }

    #[test]
    fn events_add_field_wise() {
        let mut a = EventCounts { a_elems: 1, c_writes: 2, ..Default::default() };
        let b = EventCounts { a_elems: 10, mac_issued: 5, ..Default::default() };
        a.try_add_scaled(&b, 1).unwrap();
        assert_eq!(a.a_elems, 11);
        assert_eq!(a.c_writes, 2);
        assert_eq!(a.mac_issued, 5);
    }

    #[test]
    fn record_cycle_tracks_issued_lanes() {
        let mut r = T1Result::new(64);
        r.record_cycle(10);
        r.record_cycle(64);
        assert_eq!(r.cycles, 2);
        assert_eq!(r.events.mac_issued, 128);
        assert_eq!(r.util.useful_ops(), 74);
    }

    #[test]
    fn empty_histogram_is_zero_util() {
        let h = UtilHistogram::new(64);
        assert_eq!(h.mean_utilisation(), 0.0);
        assert_eq!(h.band_fraction(0.0, 1.01), 0.0);
    }
}
