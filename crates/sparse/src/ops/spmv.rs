//! Sparse matrix x dense vector (SpMV) reference kernel.

use crate::kernels::{BitKernels, BitwiseKernels};
use crate::{CsrMatrix, FormatError};

use super::dim_err;

/// Computes `y = A * x` for a CSR matrix and a dense vector.
///
/// # Errors
///
/// Returns [`FormatError::DimensionMismatch`] if `x.len() != a.ncols()`.
///
/// # Example
///
/// ```
/// use sparse::{CsrMatrix, ops::spmv};
///
/// # fn main() -> Result<(), sparse::FormatError> {
/// let a = CsrMatrix::try_new(2, 2, vec![0, 1, 2], vec![1, 0], vec![2.0, 3.0])?;
/// let y = spmv(&a, &[10.0, 20.0])?;
/// assert_eq!(y, vec![40.0, 30.0]);
/// # Ok(())
/// # }
/// ```
pub fn spmv(a: &CsrMatrix, x: &[f64]) -> Result<Vec<f64>, FormatError> {
    if x.len() != a.ncols() {
        return Err(dim_err(format!(
            "spmv: x.len() = {} but a.ncols() = {}",
            x.len(),
            a.ncols()
        )));
    }
    // Per-row gathers accumulate left to right into a single
    // accumulator, exactly as the scalar reference loop does.
    let mut y = vec![0.0; a.nrows()];
    for (r, yr) in y.iter_mut().enumerate() {
        let (cols, vals) = a.row(r);
        *yr = BitwiseKernels.dot_gather(cols, vals, x);
    }
    Ok(y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;

    #[test]
    fn identity_is_noop() {
        let a = CsrMatrix::identity(4);
        let x = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(spmv(&a, &x).unwrap(), x.to_vec());
    }

    #[test]
    fn empty_rows_give_zero() {
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 1, 2.0);
        let a = CsrMatrix::try_from(coo).unwrap();
        let y = spmv(&a, &[1.0, 1.0, 1.0]).unwrap();
        assert_eq!(y, vec![2.0, 0.0, 0.0]);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let a = CsrMatrix::identity(3);
        assert!(spmv(&a, &[1.0]).is_err());
    }
}
