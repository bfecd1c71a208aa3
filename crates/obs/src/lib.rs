//! Observability for the Uni-STC reproduction: pipeline tracing, a metrics
//! registry, and Chrome-trace export.
//!
//! The paper's whole evaluation is cycle-level performance comparison
//! (Figs. 17–22, Tables VIII–IX), and the ROADMAP's north star — "as fast
//! as the hardware allows" — needs a way to see *where* a kernel spends its
//! cycles before any optimisation can prove itself. This crate provides the
//! plumbing, with zero external dependencies:
//!
//! * [`TraceEvent`] — the timestamped event vocabulary instrumented
//!   components emit: T1 task issue/retire (driver), TMS task generation,
//!   DPG expansion and power-gate transitions, SDPU segment packing and
//!   per-cycle Tile/Dot queue occupancy (pipeline).
//! * [`TraceSink`] — the consumer trait. [`NoopSink`] is the zero-overhead
//!   disabled path (`enabled()` is `false`, so instrumentation points skip
//!   event construction entirely); [`RingSink`] is a bounded ring buffer
//!   that keeps the most recent events and counts what it overwrote.
//! * [`chrome`] — a Chrome-trace-event JSON exporter: any traced kernel run
//!   opens in Perfetto or `chrome://tracing`.
//! * [`MetricsRegistry`] — counters, gauges, fixed-bucket histograms and
//!   wall-clock spans, exportable as JSON.
//! * [`json`] — the minimal JSON value model, writer and parser the
//!   exporters and the perf-regression runner share.
//!
//! Tracing is strictly observational: a run with [`NoopSink`] is
//! bit-identical (cycles, `EventCounts`, numeric results) to the same run
//! through the untraced entry points — the repo's observability tests pin
//! this.
//!
//! # Example
//!
//! ```
//! use obs::{RingSink, TraceEvent, TraceSink};
//!
//! let mut ring = RingSink::new(4);
//! for c in 0..6 {
//!     ring.record(TraceEvent::QueueDepth { cycle: c, tile: 1, dot: 2 });
//! }
//! assert_eq!(ring.len(), 4);        // bounded
//! assert_eq!(ring.overwritten(), 2); // oldest two dropped
//! assert_eq!(ring.events()[0].cycle(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
mod event;
pub mod json;
mod metrics;
mod ring;

pub use event::TraceEvent;
pub use metrics::{log_linear_bounds, Histogram, MetricsRegistry, SpanStats, WallSpan};
pub use ring::RingSink;

/// A consumer of [`TraceEvent`]s.
///
/// Instrumentation points call [`TraceSink::enabled`] before building an
/// event whose construction costs anything (a queue-depth sum, a product
/// count), so the disabled path stays zero-overhead.
pub trait TraceSink {
    /// Records one event.
    fn record(&mut self, ev: TraceEvent);

    /// Whether this sink wants events at all. Instrumentation may skip
    /// event construction entirely when this is `false`.
    fn enabled(&self) -> bool {
        true
    }
}

/// The zero-overhead disabled sink: drops everything, reports
/// `enabled() == false` so instrumentation points skip event construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopSink;

impl TraceSink for NoopSink {
    #[inline(always)]
    fn record(&mut self, _ev: TraceEvent) {}

    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }
}

/// Collecting sink: every event, unbounded, in order.
impl TraceSink for Vec<TraceEvent> {
    fn record(&mut self, ev: TraceEvent) {
        self.push(ev);
    }
}

/// A sink adaptor that shifts event timestamps by a base cycle.
///
/// Engines trace in task-local cycles (each T1 task starts at cycle 0);
/// the kernel driver wraps its sink in an `OffsetSink` at the task's
/// global start cycle so the merged stream forms one coherent timeline.
pub struct OffsetSink<'a> {
    inner: &'a mut dyn TraceSink,
    base: u64,
}

impl<'a> OffsetSink<'a> {
    /// Wraps `inner`, adding `base` to every recorded event's cycle.
    pub fn new(inner: &'a mut dyn TraceSink, base: u64) -> Self {
        OffsetSink { inner, base }
    }
}

impl TraceSink for OffsetSink<'_> {
    fn record(&mut self, ev: TraceEvent) {
        self.inner.record(ev.at_offset(self.base));
    }

    fn enabled(&self) -> bool {
        self.inner.enabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_sink_is_disabled() {
        let mut s = NoopSink;
        assert!(!s.enabled());
        s.record(TraceEvent::Stall { cycle: 0, dpgs: 1 }); // no-op
    }

    #[test]
    fn vec_sink_collects_in_order() {
        let mut v: Vec<TraceEvent> = Vec::new();
        v.record(TraceEvent::Stall { cycle: 3, dpgs: 1 });
        v.record(TraceEvent::Stall { cycle: 5, dpgs: 2 });
        assert!(v.enabled());
        assert_eq!(v.len(), 2);
        assert_eq!(v[1].cycle(), 5);
    }

    #[test]
    fn offset_sink_shifts_timestamps() {
        let mut v: Vec<TraceEvent> = Vec::new();
        {
            let mut off = OffsetSink::new(&mut v, 100);
            assert!(off.enabled());
            off.record(TraceEvent::QueueDepth { cycle: 7, tile: 1, dot: 2 });
        }
        assert_eq!(v[0].cycle(), 107);
    }

    #[test]
    fn offset_sink_propagates_enabled() {
        let mut noop = NoopSink;
        let off = OffsetSink::new(&mut noop, 10);
        assert!(!off.enabled());
    }
}
