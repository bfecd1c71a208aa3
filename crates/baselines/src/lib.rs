//! Baseline sparse-tensor-core models for the Uni-STC evaluation.
//!
//! Each baseline implements [`simkit::TileEngine`] with the dataflow and
//! task geometry the paper documents for it (Tables III and VI, Figs. 4, 6
//! and 14):
//!
//! | Engine | Dataflow | T3 task (64-MAC config) | Key restriction |
//! |---|---|---|---|
//! | [`NvDtc`] | dense | 4x4x4 boxes | no sparsity adaptation |
//! | [`DsStc`] | outer product | 8x8x1 (gathered) | no concatenation across K; every partial scattered |
//! | [`RmStc`] | row-row | 8x4x2 (gathered) | concatenation only along N; sensitive to sparse A |
//! | [`Gamma`] | Gustavson row-wise | 16x4x1 | cannot bypass empty rows in a 16-row group |
//! | [`Sigma`] | flexible dot product | 1x4x16 | single-sided: B zeros occupy lanes |
//! | [`Trapezoid`] | grouped dot product | best of TrIP/TrGT/TrGS | per-row load imbalance inside a group |
//!
//! GAMMA, SIGMA and Trapezoid are throughput-aligned adaptations (the paper
//! does the same and compares them on performance only, Section VI-C).
//!
//! # Example
//!
//! ```
//! use baselines::{DsStc, RmStc};
//! use simkit::{driver, EnergyModel, Precision, TileEngine};
//! use sparse::{BbcMatrix, CsrMatrix, CooMatrix};
//!
//! # fn main() -> Result<(), sparse::FormatError> {
//! let mut coo = CooMatrix::new(32, 32);
//! for i in 0..32 { coo.push(i, i, 1.0); }
//! let a = BbcMatrix::from_csr(&CsrMatrix::try_from(coo)?);
//! let em = EnergyModel::default();
//! let ds = driver::run_spmv(&DsStc::new(Precision::Fp64), &em, &a);
//! let rm = driver::run_spmv(&RmStc::new(Precision::Fp64), &em, &a);
//! assert!(ds.cycles > 0 && rm.cycles > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ds_stc;
mod gamma;
mod nv_dtc;
mod rm_stc;
mod sigma;
mod trapezoid;
pub(crate) mod util;

pub use ds_stc::DsStc;
pub use gamma::Gamma;
pub use nv_dtc::NvDtc;
pub use rm_stc::RmStc;
pub use sigma::Sigma;
pub use trapezoid::Trapezoid;

use simkit::{Precision, TileEngine};

/// All six baseline engines at the given precision, boxed for driver loops.
pub fn all_baselines(precision: Precision) -> Vec<Box<dyn TileEngine + Send + Sync>> {
    vec![
        Box::new(NvDtc::new(precision)),
        Box::new(DsStc::new(precision)),
        Box::new(RmStc::new(precision)),
        Box::new(Gamma::new(precision)),
        Box::new(Sigma::new(precision)),
        Box::new(Trapezoid::new(precision)),
    ]
}

#[cfg(test)]
mod conformance {
    //! Cross-engine conformance: every baseline must (a) account for every
    //! intermediate product exactly once and (b) never exceed its lane
    //! budget in any cycle — checked by construction of `UtilHistogram` —
    //! across randomized task structures.

    use super::*;
    use simkit::{Block16, Precision, T1Task};
    use sparse::rng::Rng64;

    /// Deterministic replacement for the old proptest strategy: a seeded
    /// random block with up to `max_nnz` set positions.
    fn random_block(rng: &mut Rng64, max_nnz: usize) -> Block16 {
        let nnz = rng.next_range(max_nnz + 1);
        let mut b = Block16::empty();
        for _ in 0..nnz {
            b.set(rng.next_range(16), rng.next_range(16));
        }
        b
    }

    const CASES: u64 = 64;

    #[test]
    fn engines_cover_all_products_mm() {
        for seed in 0..CASES {
            let mut rng = Rng64::new(seed);
            let task = T1Task::mm(random_block(&mut rng, 48), random_block(&mut rng, 48));
            if task.is_trivial() {
                continue;
            }
            for engine in all_baselines(Precision::Fp64) {
                let r = engine.execute(&task);
                assert_eq!(
                    r.useful,
                    task.products(),
                    "{} lost or duplicated products (seed {seed})",
                    engine.name()
                );
                assert_eq!(r.util.useful_ops(), r.useful, "{}", engine.name());
                assert!(r.cycles > 0, "{} took zero cycles", engine.name());
            }
        }
    }

    #[test]
    fn engines_cover_all_products_mv() {
        for seed in 0..CASES {
            let mut rng = Rng64::new(seed ^ 0x11);
            let mask = rng.next_u64() as u16;
            let task = T1Task::mv(random_block(&mut rng, 48), mask);
            if task.is_trivial() {
                continue;
            }
            for engine in all_baselines(Precision::Fp64) {
                let r = engine.execute(&task);
                assert_eq!(r.useful, task.products(), "{} (seed {seed})", engine.name());
                assert!(r.cycles > 0, "{}", engine.name());
            }
        }
    }

    #[test]
    fn fp32_doubles_lanes() {
        for seed in 0..CASES {
            let mut rng = Rng64::new(seed ^ 0x22);
            let task = T1Task::mm(random_block(&mut rng, 32), random_block(&mut rng, 32));
            if task.is_trivial() {
                continue;
            }
            for engine in all_baselines(Precision::Fp32) {
                let r = engine.execute(&task);
                assert_eq!(engine.lanes(), 128, "{}", engine.name());
                assert_eq!(r.useful, task.products(), "{} (seed {seed})", engine.name());
            }
        }
    }

    #[test]
    fn fp16_quadruples_lanes() {
        for seed in 0..CASES {
            let mut rng = Rng64::new(seed ^ 0x33);
            let task = T1Task::mm(random_block(&mut rng, 32), random_block(&mut rng, 32));
            if task.is_trivial() {
                continue;
            }
            for engine in all_baselines(Precision::Fp16) {
                let r = engine.execute(&task);
                assert_eq!(engine.lanes(), 256, "{}", engine.name());
                assert_eq!(r.useful, task.products(), "{} (seed {seed})", engine.name());
            }
        }
    }

    #[test]
    fn dense_mm_cycle_counts() {
        let task = T1Task::mm(Block16::dense(), Block16::dense());
        // The dense floor per precision: 4096 products / lanes. Every
        // baseline's dense schedule reaches it (full utilisation).
        for (precision, floor) in
            [(Precision::Fp64, 64u64), (Precision::Fp32, 32), (Precision::Fp16, 16)]
        {
            for engine in all_baselines(precision) {
                let r = engine.execute(&task);
                assert!(
                    r.cycles >= floor,
                    "{} broke the {floor}-cycle floor at {precision}",
                    engine.name()
                );
                assert!(
                    r.cycles <= floor + 16,
                    "{} needs {} cycles on a dense block at {precision}",
                    engine.name(),
                    r.cycles
                );
            }
        }
    }

    #[test]
    fn n_cols_outside_one_to_sixteen_is_clamped_without_panic() {
        let mut rng = Rng64::new(0x44);
        let a = random_block(&mut rng, 96);
        let b = random_block(&mut rng, 96);
        for precision in [Precision::Fp64, Precision::Fp32, Precision::Fp16] {
            for engine in all_baselines(precision) {
                let run = |n_cols| engine.execute(&T1Task { a, b, n_cols });
                assert_eq!(run(0), run(1), "{} n_cols = 0", engine.name());
                for n_cols in [17, 33, usize::MAX] {
                    assert_eq!(run(n_cols), run(16), "{} n_cols = {n_cols}", engine.name());
                }
            }
        }
    }

    #[test]
    fn names_are_distinct() {
        let names: Vec<String> =
            all_baselines(Precision::Fp64).iter().map(|e| e.name().to_owned()).collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }
}
