//! Rendering utilities for kernel reports: ASCII utilisation histograms,
//! CSV rows and aligned summary tables, shared by the experiment binaries.

use crate::driver::KernelReport;
use crate::UtilHistogram;

/// Renders a utilisation histogram as an ASCII bar chart over `bins`
/// utilisation bands, `width` characters tall bars.
///
/// # Panics
///
/// Panics if `bins == 0` or `width == 0`.
pub fn ascii_histogram(util: &UtilHistogram, bins: usize, width: usize) -> String {
    assert!(bins > 0 && width > 0, "bins and width must be positive");
    let cycles = util.cycles();
    let mut out = String::new();
    for b in 0..bins {
        let lo = b as f64 / bins as f64;
        let hi = (b + 1) as f64 / bins as f64;
        let frac = if b + 1 == bins {
            util.band_fraction(lo, 1.01)
        } else {
            util.band_fraction(lo, hi)
        };
        let bar = "#".repeat((frac * width as f64).round() as usize);
        out.push_str(&format!(
            "[{:>3.0}%,{:>3.0}%{} {:>5.1}% {}\n",
            lo * 100.0,
            hi * 100.0,
            if b + 1 == bins { "]" } else { ")" },
            frac * 100.0,
            bar
        ));
    }
    if cycles == 0 {
        out.push_str("(no cycles recorded)\n");
    }
    out
}

/// The CSV header matching [`csv_row`].
pub const CSV_HEADER: &str = "engine,kernel,cycles,useful,t1_tasks,mean_util,\
a_elems,b_elems,partial_updates,c_writes,energy_fetch,energy_schedule,energy_compute,energy_total,\
faults_injected,faults_detected,faults_uncorrected";

/// One CSV row for a kernel report (no trailing newline).
pub fn csv_row(r: &KernelReport) -> String {
    format!(
        "{},{},{},{},{},{:.6},{},{},{},{},{:.3},{:.3},{:.3},{:.3},{},{},{}",
        r.engine,
        r.kernel,
        r.cycles,
        r.useful,
        r.t1_tasks,
        r.mean_utilisation(),
        r.events.a_elems,
        r.events.b_elems,
        r.events.partial_updates,
        r.events.c_writes,
        r.energy.fetch,
        r.energy.schedule,
        r.energy.compute,
        r.energy.total(),
        r.events.faults_injected,
        r.events.faults_detected,
        r.events.faults_uncorrected
    )
}

/// A one-line human summary of a report.
pub fn summary_line(r: &KernelReport) -> String {
    format!(
        "{:10} {:7} {:>10} cycles  {:>6.1}% util  {:>12.0} energy  ({} T1 tasks)",
        r.engine,
        r.kernel.to_string(),
        r.cycles,
        r.mean_utilisation() * 100.0,
        r.energy.total(),
        r.t1_tasks
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{run_stream, Kernel};
    use crate::{Block16, EnergyModel, NetworkCosts, T1Result, T1Task, TaskStream, TileEngine};

    struct Simple;

    impl TileEngine for Simple {
        fn name(&self) -> &str {
            "simple"
        }
        fn lanes(&self) -> usize {
            64
        }
        fn execute(&self, task: &T1Task) -> T1Result {
            let mut r = T1Result::new(64);
            r.record_cycle(task.products().min(64) as usize);
            r.useful = task.products().min(64);
            r
        }
        fn network_costs(&self) -> NetworkCosts {
            NetworkCosts::flat()
        }
    }

    fn report() -> KernelReport {
        let tasks = [
            T1Task::mm(Block16::dense(), Block16::dense()),
            T1Task::mm(Block16::from_fn(|r, c| r == c), Block16::dense()),
        ];
        let stream = TaskStream::from(&tasks[..]);
        run_stream(&Simple, &EnergyModel::default(), Kernel::SpGEMM, &stream).unwrap()
    }

    #[test]
    fn histogram_renders_all_bins() {
        let r = report();
        let s = ascii_histogram(&r.util, 4, 20);
        assert_eq!(s.lines().count(), 4);
        assert!(s.contains("100%]"));
        assert!(s.contains('#'));
    }

    #[test]
    fn empty_histogram_notes_no_cycles() {
        let u = UtilHistogram::new(64);
        let s = ascii_histogram(&u, 4, 10);
        assert!(s.contains("no cycles"));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bins_rejected() {
        ascii_histogram(&UtilHistogram::new(64), 0, 10);
    }

    #[test]
    fn csv_row_matches_header_arity() {
        let r = report();
        let row = csv_row(&r);
        assert_eq!(row.split(',').count(), CSV_HEADER.split(',').count());
        assert!(row.starts_with("simple,SpGEMM,"));
    }

    #[test]
    fn summary_line_mentions_engine_and_kernel() {
        let r = report();
        let s = summary_line(&r);
        assert!(s.contains("simple"));
        assert!(s.contains("SpGEMM"));
        assert!(s.contains("cycles"));
    }
}
