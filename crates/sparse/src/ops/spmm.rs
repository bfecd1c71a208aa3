//! Sparse matrix x dense matrix (SpMM) reference kernel.

use crate::kernels::{BitKernels, BitwiseKernels};
use crate::{CsrMatrix, DenseMatrix, FormatError};

use super::dim_err;

/// Computes `C = A * B` for a CSR matrix `A` and a dense matrix `B`.
///
/// The paper's SpMM evaluation fixes `B` to 64 columns (Section VI-A); this
/// reference accepts any width.
///
/// # Errors
///
/// Returns [`FormatError::DimensionMismatch`] if `a.ncols() != b.nrows()`.
///
/// # Example
///
/// ```
/// use sparse::{CsrMatrix, DenseMatrix, ops::spmm};
///
/// # fn main() -> Result<(), sparse::FormatError> {
/// let a = CsrMatrix::try_new(2, 2, vec![0, 1, 2], vec![1, 0], vec![2.0, 1.0])?;
/// let b = DenseMatrix::from_row_major(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
/// let c = spmm(&a, &b)?;
/// assert_eq!(c[(0, 1)], 8.0);
/// # Ok(())
/// # }
/// ```
pub fn spmm(a: &CsrMatrix, b: &DenseMatrix) -> Result<DenseMatrix, FormatError> {
    if a.ncols() != b.nrows() {
        return Err(dim_err(format!(
            "spmm: a.ncols() = {} but b.nrows() = {}",
            a.ncols(),
            b.nrows()
        )));
    }
    // Row updates run through `axpy`; each output element sees the
    // same sequence of additions as the scalar reference loop.
    let mut c = DenseMatrix::zeros(a.nrows(), b.ncols());
    for r in 0..a.nrows() {
        let (cols, vals) = a.row(r);
        for (&k, &v) in cols.iter().zip(vals) {
            BitwiseKernels.axpy(c.row_mut(r), v, b.row(k as usize));
        }
    }
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_copies_b() {
        let a = CsrMatrix::identity(3);
        let b = DenseMatrix::from_row_major(3, 2, vec![1., 2., 3., 4., 5., 6.]);
        let c = spmm(&a, &b).unwrap();
        assert_eq!(c, b);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let a = CsrMatrix::identity(3);
        let b = DenseMatrix::zeros(2, 2);
        assert!(spmm(&a, &b).is_err());
    }

    #[test]
    fn empty_a_gives_zero_c() {
        let a = CsrMatrix::zeros(2, 3);
        let b = DenseMatrix::from_row_major(3, 1, vec![1.0, 2.0, 3.0]);
        let c = spmm(&a, &b).unwrap();
        assert_eq!(c, DenseMatrix::zeros(2, 1));
    }
}
