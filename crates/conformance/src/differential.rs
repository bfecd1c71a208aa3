//! Cross-engine differential counter checks.
//!
//! The six baseline tile engines and Uni-STC are *counter* models: they
//! agree on what work exists (the intermediate products of a T1 task) and
//! differ only in how many cycles and events that work costs. The
//! differential check exploits this: for every kernel, every engine's
//! `useful` MAC count must equal the exact product count derivable from
//! the operands by scalar bookkeeping — and the numeric dataflow's
//! [`DataflowStats::products`](uni_stc::kernels::DataflowStats) must land
//! on the same number. Any engine disagreeing with the closed form (or,
//! transitively, with any other engine) is flagged with the kernel and
//! engine named.

use baselines::all_baselines;
use simkit::{driver, EnergyModel, Precision, TileEngine};
use sparse::{BbcMatrix, CsrMatrix, SparseVector};
use uni_stc::{UniStc, UniStcConfig};

use crate::generators::{dense_operand, sparse_vector};
use crate::oracle::spgemm_rhs;

/// Every counter-model engine under differential test: the six baselines
/// plus Uni-STC itself, all at FP64.
pub fn all_engines() -> Vec<Box<dyn TileEngine + Send + Sync>> {
    let mut engines = all_baselines(Precision::Fp64);
    engines.push(Box::new(UniStc::default()));
    engines
}

/// Exact SpMV product count: one MAC per stored entry of `A`.
pub fn expected_spmv_products(a: &CsrMatrix) -> u64 {
    a.nnz() as u64
}

/// Exact SpMSpV product count: one MAC per stored entry of `A` whose
/// column lies in the stored support of `x`.
pub fn expected_spmspv_products(a: &CsrMatrix, x: &SparseVector) -> u64 {
    let mut support = vec![false; a.ncols()];
    for &i in x.indices() {
        support[i as usize] = true;
    }
    a.iter().filter(|&(_, c, _)| support[c]).count() as u64
}

/// Exact SpMM product count: every stored entry of `A` meets every one of
/// the `n_cols` dense `B` columns.
pub fn expected_spmm_products(a: &CsrMatrix, n_cols: usize) -> u64 {
    a.nnz() as u64 * n_cols as u64
}

/// Exact SpGEMM product count (Gustavson flops), via the scalar path.
///
/// # Errors
///
/// Propagates the dimension-mismatch error for non-conforming operands.
pub fn expected_spgemm_products(a: &CsrMatrix, b: &CsrMatrix) -> Result<u64, String> {
    sparse::ops::spgemm_flops(a, b).map_err(|e| e.to_string())
}

/// Runs all four kernels on every engine and checks each report's `useful`
/// counter against the closed-form product count; then pins the numeric
/// dataflow's `DataflowStats::products` to the same numbers.
///
/// Operands are derived deterministically from `seed` exactly as in the
/// dense-oracle check.
///
/// # Errors
///
/// Returns a message naming the kernel, the engine and both counts.
pub fn check_counters(a: &CsrMatrix, seed: u64) -> Result<(), String> {
    let bbc = BbcMatrix::from_csr(a);
    let sx = sparse_vector(a.ncols(), seed);
    let n_cols = 1 + (seed as usize % 21);
    let bt = spgemm_rhs(a);
    let bbc_b = BbcMatrix::from_csr(&bt);
    let energy = EnergyModel::default();

    let want_spmv = expected_spmv_products(a);
    let want_spmspv = expected_spmspv_products(a, &sx);
    let want_spmm = expected_spmm_products(a, n_cols);
    let want_spgemm = expected_spgemm_products(a, &bt)?;

    let fail = |kernel: &str, engine: &str, got: u64, want: u64| {
        Err(format!(
            "differential/{kernel}: engine `{engine}` counted {got} useful products, \
             scalar bookkeeping says {want}"
        ))
    };

    for engine in all_engines() {
        let e = engine.as_ref();
        let r = driver::run_spmv(e, &energy, &bbc);
        if r.useful != want_spmv {
            return fail("spmv", e.name(), r.useful, want_spmv);
        }
        let r = driver::run_spmspv(e, &energy, &bbc, &sx);
        if r.useful != want_spmspv {
            return fail("spmspv", e.name(), r.useful, want_spmspv);
        }
        let r = driver::run_spmm(e, &energy, &bbc, n_cols);
        if r.useful != want_spmm {
            return fail("spmm", e.name(), r.useful, want_spmm);
        }
        let r = driver::run_spgemm(e, &energy, &bbc, &bbc_b);
        if r.useful != want_spgemm {
            return fail("spgemm", e.name(), r.useful, want_spgemm);
        }
    }

    // The numeric dataflow must evaluate exactly the same products the
    // cycle models charge for.
    let cfg = UniStcConfig::default();
    let dataflow = "uni-stc-dataflow";
    let x = crate::generators::dense_vector(a.ncols(), seed);
    let (_, s) = uni_stc::kernels::spmv(&cfg, &bbc, &x).map_err(|e| e.to_string())?;
    if s.products != want_spmv {
        return fail("spmv", dataflow, s.products, want_spmv);
    }
    let (_, s) = uni_stc::kernels::spmspv(&cfg, &bbc, &sx).map_err(|e| e.to_string())?;
    if s.products != want_spmspv {
        return fail("spmspv", dataflow, s.products, want_spmspv);
    }
    let b = dense_operand(a.ncols(), n_cols, seed);
    let (_, s) = uni_stc::kernels::spmm(&cfg, &bbc, &b).map_err(|e| e.to_string())?;
    if s.products != want_spmm {
        return fail("spmm", dataflow, s.products, want_spmm);
    }
    let (_, s) = uni_stc::kernels::spgemm(&cfg, &bbc, &bbc_b).map_err(|e| e.to_string())?;
    if s.products != want_spgemm {
        return fail("spgemm", dataflow, s.products, want_spgemm);
    }

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::Regime;
    use sparse::CooMatrix;

    #[test]
    fn seven_engines_under_test() {
        let engines = all_engines();
        assert_eq!(engines.len(), 7);
        let mut names: Vec<String> =
            engines.iter().map(|e| e.name().to_owned()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 7, "engine names must be distinct");
    }

    #[test]
    fn counters_agree_on_all_regimes() {
        for regime in Regime::ALL {
            for seed in 0..2 {
                let a = regime.generate(seed);
                check_counters(&a, seed)
                    .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", regime.name()));
            }
        }
    }

    #[test]
    fn expected_counts_by_hand() {
        let mut coo = CooMatrix::new(4, 4);
        coo.push(0, 0, 1.0);
        coo.push(0, 2, 2.0);
        coo.push(3, 1, -1.0);
        let a = CsrMatrix::try_from(coo).unwrap();
        assert_eq!(expected_spmv_products(&a), 3);
        assert_eq!(expected_spmm_products(&a, 5), 15);
        let x = SparseVector::try_new(4, vec![2], vec![1.0]).unwrap();
        assert_eq!(expected_spmspv_products(&a, &x), 1);
        // B = Aᵀ has one stored entry in each of rows 0, 1 and 2, so each
        // of A's three entries meets exactly one B-row entry.
        let bt = a.transpose();
        assert_eq!(expected_spgemm_products(&a, &bt).unwrap(), 3);
    }

    #[test]
    fn spgemm_flops_reject_mismatched_shapes() {
        let a = CsrMatrix::identity(4);
        let b = CsrMatrix::identity(5);
        assert!(expected_spgemm_products(&a, &b).is_err());
    }
}
