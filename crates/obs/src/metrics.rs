//! The metrics registry: counters, gauges, fixed-bucket histograms and
//! wall-clock spans.
//!
//! Metric names are flat strings, conventionally `component/metric`
//! (`driver/t1_tasks`, `kernel/spmv`). Registries serialise to JSON with
//! keys in sorted order, so exports are deterministic given deterministic
//! inputs (wall-clock span *durations* are of course not deterministic —
//! the perf-regression comparator only gates on cycle counts).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::json::Value;

/// `N` upper-inclusive bounds on a log-linear (HDR-style) grid: `1..=8`
/// exactly, then eight equal steps per power of two (`9, 10, .., 16, 18,
/// 20, .., 32, 36, ..`). A value's bucket bound exceeds the value by less
/// than an eighth of it, so [`Histogram::quantile`] overstates by less
/// than 12.5 %. `N = 176` reaches `2^24`.
///
/// ```
/// let b = obs::log_linear_bounds::<20>();
/// assert_eq!(&b[6..20], &[7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 18, 20, 22, 24]);
/// ```
pub const fn log_linear_bounds<const N: usize>() -> [u64; N] {
    let mut bounds = [0u64; N];
    let mut bound = 0u64;
    let mut i = 0;
    while i < N {
        bound += if bound < 8 { 1 } else { (1 << (63 - bound.leading_zeros())) / 8 };
        bounds[i] = bound;
        i += 1;
    }
    bounds
}

/// A fixed-bucket histogram over `u64` observations.
///
/// Bucket `i` counts observations `v` with `v <= bounds[i]` (and greater
/// than the previous bound); one implicit overflow bucket counts
/// everything above the last bound. Upper-inclusive bounds make the
/// mapping exact for integer observations: `bounds = [1, 4, 16]` yields
/// the intervals `[0,1]`, `(1,4]`, `(4,16]`, `(16,∞)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bounds: Vec<u64>,
    /// `bounds.len() + 1` counts; the last is the overflow bucket.
    counts: Vec<u64>,
    sum: u64,
    /// Set once the running `sum` has clamped at `u64::MAX`: from that
    /// point on, any mean derived from `sum / count` under-reports, so
    /// consumers must check this flag before trusting it.
    saturated: bool,
}

impl Histogram {
    /// Creates a histogram with the given upper-inclusive bucket bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly increasing.
    pub fn with_bounds(bounds: &[u64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0,
            saturated: false,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, v: u64) {
        let idx = self.bounds.partition_point(|&b| b < v);
        self.counts[idx] += 1;
        match self.sum.checked_add(v) {
            Some(s) => self.sum = s,
            None => {
                self.sum = u64::MAX;
                self.saturated = true;
            }
        }
    }

    /// The configured upper-inclusive bounds.
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket counts; the final entry is the overflow bucket.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Sum of all observed values. Clamped at `u64::MAX` once the true
    /// total overflows — check [`Histogram::saturated`] before deriving a
    /// mean from it.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Whether the running sum ever overflowed and clamped at
    /// `u64::MAX`. While set, `sum()` (and any mean derived from it)
    /// under-reports the true total.
    pub fn saturated(&self) -> bool {
        self.saturated
    }

    /// The `q`-quantile as an upper bound: the smallest bucket upper
    /// bound below which at least `ceil(q * count)` observations fall.
    ///
    /// Fixed buckets cannot recover exact order statistics, so the
    /// estimate is conservative (never below the true quantile).
    /// Returns `None` when the histogram is empty, and `Some(u64::MAX)`
    /// when the quantile lands in the overflow bucket — an SLO gate on
    /// the result then fails, which is the right default for "the tail
    /// escaped the instrumented range".
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < q <= 1.0`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!(q > 0.0 && q <= 1.0, "quantile must be in (0, 1]");
        let total = self.count();
        if total == 0 {
            return None;
        }
        // ceil(q * total) without floating-point edge surprises at q=1.
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(self.bounds.get(i).copied().unwrap_or(u64::MAX));
            }
        }
        Some(u64::MAX)
    }

    fn to_json(&self) -> Value {
        Value::object(vec![
            ("bounds", Value::Array(self.bounds.iter().map(|&b| Value::from(b)).collect())),
            ("counts", Value::Array(self.counts.iter().map(|&c| Value::from(c)).collect())),
            ("count", Value::from(self.count())),
            ("sum", Value::from(self.sum)),
            ("saturated", Value::Bool(self.saturated)),
        ])
    }
}

/// Aggregated wall-clock span statistics for one name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanStats {
    /// Completed spans recorded.
    pub count: u64,
    /// Total time across spans.
    pub total: Duration,
    /// Shortest span.
    pub min: Duration,
    /// Longest span.
    pub max: Duration,
}

impl SpanStats {
    fn record(&mut self, d: Duration) {
        self.count += 1;
        self.total += d;
        self.min = self.min.min(d);
        self.max = self.max.max(d);
    }

    fn to_json(self) -> Value {
        Value::object(vec![
            ("count", Value::from(self.count)),
            ("total_ms", Value::from(self.total.as_secs_f64() * 1e3)),
            ("min_ms", Value::from(self.min.as_secs_f64() * 1e3)),
            ("max_ms", Value::from(self.max.as_secs_f64() * 1e3)),
        ])
    }
}

/// A running wall-clock measurement, recorded into a registry on
/// completion via [`MetricsRegistry::record_span`].
///
/// # Example
///
/// ```
/// use obs::{MetricsRegistry, WallSpan};
///
/// let mut reg = MetricsRegistry::new();
/// let span = WallSpan::start();
/// // ... the work being measured ...
/// reg.record_span("kernel/spmv", span.elapsed());
/// assert_eq!(reg.span("kernel/spmv").map(|s| s.count), Some(1));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct WallSpan {
    start: Instant,
}

impl WallSpan {
    /// Starts the clock.
    pub fn start() -> Self {
        WallSpan { start: Instant::now() }
    }

    /// Time elapsed since [`WallSpan::start`].
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

/// A registry of named counters, gauges, histograms and wall-clock spans.
///
/// Names are sorted in every accessor and in the JSON export, so output
/// ordering never depends on insertion order.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
    spans: BTreeMap<String, SpanStats>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `by` to the named counter (created at zero), saturating at
    /// `u64::MAX` rather than wrapping.
    pub fn inc_counter(&mut self, name: &str, by: u64) {
        let c = self.counters.entry(name.to_owned()).or_insert(0);
        *c = c.saturating_add(by);
    }

    /// The counter's current value (zero if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets the named gauge to `v`.
    pub fn set_gauge(&mut self, name: &str, v: f64) {
        self.gauges.insert(name.to_owned(), v);
    }

    /// The gauge's current value, if ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Records `v` into the named histogram, creating it with `bounds` on
    /// first use.
    ///
    /// # Panics
    ///
    /// Panics if the histogram exists with different bounds (two call
    /// sites disagreeing about a metric's buckets is a bug), or if a new
    /// `bounds` is empty or unsorted.
    pub fn observe(&mut self, name: &str, bounds: &[u64], v: u64) {
        let h = self
            .histograms
            .entry(name.to_owned())
            .or_insert_with(|| Histogram::with_bounds(bounds));
        assert_eq!(h.bounds(), bounds, "histogram {name} re-registered with different bounds");
        h.observe(v);
    }

    /// The named histogram, if any observation was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Records one completed wall-clock span under `name`.
    pub fn record_span(&mut self, name: &str, d: Duration) {
        self.spans
            .entry(name.to_owned())
            .or_insert(SpanStats {
                count: 0,
                total: Duration::ZERO,
                min: Duration::MAX,
                max: Duration::ZERO,
            })
            .record(d);
    }

    /// The aggregated span statistics for `name`, if any were recorded.
    pub fn span(&self, name: &str) -> Option<&SpanStats> {
        self.spans.get(name)
    }

    /// Serialises the whole registry: `{"counters": {..}, "gauges": {..},
    /// "histograms": {..}, "spans": {..}}` with sorted keys.
    pub fn to_json(&self) -> Value {
        let counters =
            self.counters.iter().map(|(k, &v)| (k.clone(), Value::from(v))).collect();
        let gauges = self.gauges.iter().map(|(k, &v)| (k.clone(), Value::from(v))).collect();
        let histograms =
            self.histograms.iter().map(|(k, h)| (k.clone(), h.to_json())).collect();
        let spans = self.spans.iter().map(|(k, s)| (k.clone(), s.to_json())).collect();
        Value::Object(vec![
            ("counters".to_owned(), Value::Object(counters)),
            ("gauges".to_owned(), Value::Object(gauges)),
            ("histograms".to_owned(), Value::Object(histograms)),
            ("spans".to_owned(), Value::Object(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_linear_quantiles_stay_within_an_eighth() {
        let bounds = log_linear_bounds::<176>();
        assert_eq!(bounds[175], 1 << 24);
        assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        for v in (1..5_000_000u64).step_by(997) {
            let mut h = Histogram::with_bounds(&bounds);
            h.observe(v);
            let q = h.quantile(0.5).unwrap();
            assert!(q >= v && (q - v) * 8 < v.max(8), "v={v} q={q}");
        }
    }

    #[test]
    fn counters_saturate() {
        let mut m = MetricsRegistry::new();
        m.inc_counter("c", u64::MAX - 1);
        m.inc_counter("c", 5);
        assert_eq!(m.counter("c"), u64::MAX);
    }

    #[test]
    fn histogram_bucket_boundaries_are_upper_inclusive() {
        let mut h = Histogram::with_bounds(&[1, 4, 16]);
        // Exactly on each bound lands in that bound's bucket.
        h.observe(0); // [0,1] -> bucket 0
        h.observe(1); // bucket 0 (inclusive upper bound)
        h.observe(2); // (1,4] -> bucket 1
        h.observe(4); // bucket 1
        h.observe(5); // (4,16] -> bucket 2
        h.observe(16); // bucket 2
        h.observe(17); // overflow
        h.observe(u64::MAX); // overflow
        assert_eq!(h.bucket_counts(), &[2, 2, 2, 2]);
        assert_eq!(h.count(), 8);
    }

    #[test]
    fn histogram_sum_saturates() {
        let mut h = Histogram::with_bounds(&[10]);
        h.observe(u64::MAX);
        assert_eq!(h.sum(), u64::MAX);
        assert!(!h.saturated(), "an exact u64::MAX sum is not an overflow");
        h.observe(u64::MAX);
        assert_eq!(h.sum(), u64::MAX);
        assert!(h.saturated(), "the second observation overflowed the sum");
        // The flag is sticky and surfaces in the JSON export.
        h.observe(1);
        assert!(h.saturated());
        let v = h.to_json();
        assert_eq!(v.get("saturated"), Some(&Value::Bool(true)));
    }

    #[test]
    fn histogram_export_reports_unsaturated_sums() {
        let mut h = Histogram::with_bounds(&[10]);
        h.observe(3);
        h.observe(4);
        assert_eq!(h.sum(), 7);
        assert!(!h.saturated());
        let v = h.to_json();
        assert_eq!(v.get("saturated"), Some(&Value::Bool(false)));
        assert_eq!(v.get("sum").and_then(Value::as_u64), Some(7));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_bounds_rejected() {
        Histogram::with_bounds(&[4, 4]);
    }

    #[test]
    #[should_panic(expected = "at least one bound")]
    fn empty_bounds_rejected() {
        Histogram::with_bounds(&[]);
    }

    #[test]
    fn quantiles_report_bucket_upper_bounds() {
        let mut h = Histogram::with_bounds(&[1, 4, 16]);
        assert_eq!(h.quantile(0.5), None, "empty histogram has no quantiles");
        for v in [0, 1, 2, 3, 5, 6, 7, 8, 9, 10] {
            h.observe(v);
        }
        // 10 observations: 2 in [0,1], 2 in (1,4], 6 in (4,16].
        assert_eq!(h.quantile(0.2), Some(1));
        assert_eq!(h.quantile(0.4), Some(4));
        assert_eq!(h.quantile(0.5), Some(16));
        assert_eq!(h.quantile(0.99), Some(16));
        assert_eq!(h.quantile(1.0), Some(16));
        h.observe(1_000);
        assert_eq!(h.quantile(1.0), Some(u64::MAX), "tail escaped the bucket range");
        assert_eq!(h.quantile(0.5), Some(16));
    }

    #[test]
    #[should_panic(expected = "quantile must be in (0, 1]")]
    fn quantile_rejects_zero() {
        let _ = Histogram::with_bounds(&[1]).quantile(0.0);
    }

    #[test]
    fn counters_and_gauges() {
        let mut r = MetricsRegistry::new();
        assert_eq!(r.counter("x"), 0);
        r.inc_counter("x", 2);
        r.inc_counter("x", 3);
        assert_eq!(r.counter("x"), 5);
        assert_eq!(r.gauge("g"), None);
        r.set_gauge("g", 0.75);
        assert_eq!(r.gauge("g"), Some(0.75));
    }

    #[test]
    fn registry_histograms_share_bounds() {
        let mut r = MetricsRegistry::new();
        r.observe("lat", &[1, 2], 1);
        r.observe("lat", &[1, 2], 3);
        let h = r.histogram("lat").expect("histogram exists");
        assert_eq!(h.bucket_counts(), &[1, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "different bounds")]
    fn registry_rejects_bound_mismatch() {
        let mut r = MetricsRegistry::new();
        r.observe("lat", &[1, 2], 1);
        r.observe("lat", &[1, 3], 1);
    }

    #[test]
    fn spans_aggregate_min_max() {
        let mut r = MetricsRegistry::new();
        r.record_span("k", Duration::from_millis(4));
        r.record_span("k", Duration::from_millis(2));
        r.record_span("k", Duration::from_millis(6));
        let s = r.span("k").expect("span exists");
        assert_eq!(s.count, 3);
        assert_eq!(s.total, Duration::from_millis(12));
        assert_eq!(s.min, Duration::from_millis(2));
        assert_eq!(s.max, Duration::from_millis(6));
    }

    #[test]
    fn wall_span_measures_something() {
        let mut r = MetricsRegistry::new();
        let t = WallSpan::start();
        r.record_span("w", t.elapsed());
        let s = r.span("w").expect("span exists");
        assert_eq!(s.count, 1);
        assert!(s.max >= s.min);
    }

    #[test]
    fn json_export_has_sorted_sections() {
        let mut r = MetricsRegistry::new();
        r.inc_counter("z", 1);
        r.inc_counter("a", 2);
        r.set_gauge("util", 0.5);
        r.observe("h", &[8], 3);
        r.record_span("s", Duration::from_millis(1));
        let v = r.to_json();
        let counters = v.get("counters").and_then(Value::as_object).expect("counters");
        let keys: Vec<&str> = counters.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["a", "z"]);
        assert!(v.get("histograms").and_then(|h| h.get("h")).is_some());
        assert!(v.get("spans").and_then(|s| s.get("s")).is_some());
        // The export parses back.
        assert!(crate::json::parse(&v.to_json_pretty()).is_ok());
    }
}
