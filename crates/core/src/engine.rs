//! The [`UniStc`] engine: `simkit::TileEngine` implementation.

use simkit::{area::UniStcArea, NetworkCosts, T1Result, T1Task, TileEngine};

use crate::{pipeline, UniStcConfig};

/// A Uni-STC instance.
///
/// # Example
///
/// ```
/// use uni_stc::{UniStc, UniStcConfig};
/// use simkit::{Block16, T1Task, TileEngine};
///
/// let engine = UniStc::new(UniStcConfig::default());
/// let task = T1Task::mm(Block16::dense(), Block16::dense());
/// let result = engine.execute(&task);
/// assert_eq!(result.cycles, 64); // 4096 products on 64 lanes
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UniStc {
    config: UniStcConfig,
}

impl UniStc {
    /// Creates an engine with the given configuration.
    ///
    /// # Example
    ///
    /// ```
    /// use uni_stc::{UniStc, UniStcConfig};
    /// use simkit::{Precision, TileEngine};
    ///
    /// let engine = UniStc::new(UniStcConfig {
    ///     n_dpg: 16,
    ///     ..UniStcConfig::with_precision(Precision::Fp32)
    /// });
    /// assert_eq!(engine.lanes(), 128);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `config.n_dpg == 0`, matching [`UniStcConfig::with_dpgs`]:
    /// a config may name zero DPGs for the verifier to flag, but an
    /// engine needs one to route T3 tasks to.
    pub fn new(config: UniStcConfig) -> Self {
        assert!(config.n_dpg > 0, "at least one DPG is required");
        UniStc { config }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &UniStcConfig {
        &self.config
    }
}

impl TileEngine for UniStc {
    fn name(&self) -> &str {
        "Uni-STC"
    }

    fn lanes(&self) -> usize {
        self.config.lanes()
    }

    fn execute(&self, task: &T1Task) -> T1Result {
        pipeline::execute_t1(&self.config, task)
    }

    fn execute_traced(&self, task: &T1Task, sink: &mut dyn obs::TraceSink) -> T1Result {
        pipeline::execute_t1_with_sink(&self.config, task, sink)
    }

    fn network_costs(&self) -> NetworkCosts {
        NetworkCosts::uni_stc()
    }

    fn area_mm2(&self) -> f64 {
        UniStcArea::with_dpgs(self.config.n_dpg).total_mm2()
    }

    fn c_network_ports(&self) -> u64 {
        // Static upper bound; the pipeline reports dynamic gated ports.
        (self.config.n_dpg * 256) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use baselines::{DsStc, RmStc};
    use simkit::{Block16, Precision};

    #[test]
    #[should_panic(expected = "at least one DPG")]
    fn builder_rejects_zero_dpgs() {
        // A config literal handed to `new` is how an engine is built.
        let _ = UniStc::new(UniStcConfig { n_dpg: 0, ..UniStcConfig::default() });
    }

    #[test]
    fn area_follows_dpg_count() {
        let a8 = UniStc::default().area_mm2();
        let a4 = UniStc::new(UniStcConfig::with_dpgs(4)).area_mm2();
        let a16 = UniStc::new(UniStcConfig::with_dpgs(16)).area_mm2();
        assert!(a4 < a8 && a8 < a16);
        assert!((a8 - 0.0425).abs() < 1e-9);
    }

    #[test]
    fn fig14_case_study_utilisation_ordering() {
        // Fig. 14's qualitative outcome on an irregular task: Uni-STC
        // utilisation > RM-STC > DS-STC.
        let a = Block16::from_fn(|r, c| (r * 7 + c * 3) % 6 < 2);
        let b = Block16::from_fn(|r, c| (r * 5 + c) % 7 < 2);
        let t = T1Task::mm(a, b);
        let uni = UniStc::default().execute(&t);
        let rm = RmStc::new(Precision::Fp64).execute(&t);
        let ds = DsStc::new(Precision::Fp64).execute(&t);
        assert!(uni.util.mean_utilisation() > rm.util.mean_utilisation());
        assert!(uni.util.mean_utilisation() > ds.util.mean_utilisation());
        assert_eq!(uni.useful, t.products());
    }

    #[test]
    fn spmv_dominates_baselines() {
        // Paper: SpMV utilisation caps — DS-STC 12.5 %, RM-STC 25 %,
        // Uni-STC packs fine-grained tasks.
        let a = Block16::dense();
        let t = T1Task::mv(a, u16::MAX);
        let uni = UniStc::default().execute(&t);
        let rm = RmStc::new(Precision::Fp64).execute(&t);
        let ds = DsStc::new(Precision::Fp64).execute(&t);
        assert!(uni.cycles < rm.cycles);
        assert!(rm.cycles < ds.cycles);
        // 256 products / 64 lanes = 4 cycles: speedup 8x over DS-STC.
        assert_eq!(ds.cycles / uni.cycles, 8);
    }

    #[test]
    fn c_write_traffic_far_below_ds_stc() {
        // Fig. 18/19: pre-merging plus the accumulation buffer cut write
        // traffic massively vs. DS-STC's per-product scatter.
        let a = Block16::from_fn(|r, c| (r + 2 * c) % 3 != 0);
        let b = Block16::from_fn(|r, c| (2 * r + c) % 3 != 0);
        let t = T1Task::mm(a, b);
        let uni = UniStc::default().execute(&t);
        let ds = DsStc::new(Precision::Fp64).execute(&t);
        let uni_traffic = uni.events.partial_updates + uni.events.c_writes;
        let ds_traffic = ds.events.partial_updates + ds.events.c_writes;
        assert!(
            (ds_traffic as f64) / (uni_traffic as f64) > 1.5,
            "write-traffic reduction only {}x",
            ds_traffic as f64 / uni_traffic as f64
        );
        // On denser tasks the pre-merge approaches its 4:1 bound.
        let td = T1Task::mm(Block16::dense(), Block16::dense());
        let unid = UniStc::default().execute(&td);
        let dsd = DsStc::new(Precision::Fp64).execute(&td);
        let ratio = (dsd.events.partial_updates + dsd.events.c_writes) as f64
            / (unid.events.partial_updates + unid.events.c_writes) as f64;
        assert!(ratio > 3.0, "dense write-traffic reduction only {ratio}x");
    }

    #[test]
    fn dynamic_network_scale_below_static() {
        let a = Block16::from_fn(|r, c| r == c || c == 0);
        let t = T1Task::mm(a, a);
        let uni = UniStc::default();
        let r = uni.execute(&t);
        let avg_ports = r.events.c_ports_cycles as f64 / r.cycles as f64;
        assert!(avg_ports <= uni.c_network_ports() as f64);
        assert!(avg_ports < 16384.0); // far below the flat 64x256
    }
}
