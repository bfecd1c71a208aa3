//! Sparse matrix x sparse vector (SpMSpV) reference kernel.

use crate::kernels::{BitKernels, BitwiseKernels};
use crate::{CscMatrix, CsrMatrix, FormatError, SparseVector};

use super::dim_err;

/// Computes `y = A * x` for a CSR matrix and a sparse vector, returning a
/// sparse result.
///
/// The implementation follows the column-driven SpMSpV formulation: only the
/// columns of `A` selected by the nonzeros of `x` are visited, which is the
/// work the paper's SpMSpV dataflow performs in hardware (Algorithm 1 with a
/// sparse `rxb` mask).
///
/// # Errors
///
/// Returns [`FormatError::DimensionMismatch`] if `x.dim() != a.ncols()`.
///
/// # Example
///
/// ```
/// use sparse::{CsrMatrix, SparseVector, ops::spmspv};
///
/// # fn main() -> Result<(), sparse::FormatError> {
/// let a = CsrMatrix::try_new(2, 3, vec![0, 2, 3], vec![0, 2, 1], vec![1.0, 2.0, 3.0])?;
/// let x = SparseVector::try_new(3, vec![2], vec![10.0])?;
/// let y = spmspv(&a, &x)?;
/// assert_eq!(y.to_dense(), vec![20.0, 0.0]);
/// # Ok(())
/// # }
/// ```
pub fn spmspv(a: &CsrMatrix, x: &SparseVector) -> Result<SparseVector, FormatError> {
    if x.dim() != a.ncols() {
        return Err(dim_err(format!(
            "spmspv: x.dim() = {} but a.ncols() = {}",
            x.dim(),
            a.ncols()
        )));
    }
    // Column-driven: transpose once, then accumulate the selected columns.
    let at: CscMatrix = a.to_csc();
    let mut acc = vec![0.0; a.nrows()];
    // Structural touch marks as a word bitset: value-independent, so
    // entries that cancel to an exact 0.0 stay structurally present
    // (hardware-accumulator semantics) without any float comparison.
    // Walking the bitset in ascending bit order replaces the old
    // touch-list sort.
    let mut is_touched = vec![0u64; a.nrows().div_ceil(64)];
    for (col, xv) in x.iter() {
        let (rows, vals) = at.col(col);
        for (&r, &v) in rows.iter().zip(vals) {
            let ri = r as usize;
            is_touched[ri / 64] |= 1u64 << (ri % 64);
            acc[ri] += v * xv;
        }
    }
    let mut touched = Vec::new();
    BitwiseKernels.collect_set_bits(&is_touched, a.nrows(), &mut touched);
    let mut values = Vec::with_capacity(touched.len());
    for &r in &touched {
        // Keep exact zeros produced by cancellation out of the result only
        // when they were never touched; touched-but-cancelled entries stay,
        // matching the structural semantics of the hardware accumulator.
        values.push(acc[r as usize]);
    }
    SparseVector::try_new(a.nrows(), touched, values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;

    #[test]
    fn empty_x_gives_empty_y() {
        let a = CsrMatrix::identity(4);
        let x = SparseVector::zeros(4);
        let y = spmspv(&a, &x).unwrap();
        assert_eq!(y.nnz(), 0);
    }

    #[test]
    fn selects_columns() {
        // A = [[1, 2], [0, 3]]; x = (0: 5) -> y = (5, 0)
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(0, 1, 2.0);
        coo.push(1, 1, 3.0);
        let a = CsrMatrix::try_from(coo).unwrap();
        let x = SparseVector::try_new(2, vec![0], vec![5.0]).unwrap();
        let y = spmspv(&a, &x).unwrap();
        assert_eq!(y.to_dense(), vec![5.0, 0.0]);
        assert_eq!(y.nnz(), 1);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let a = CsrMatrix::identity(3);
        let x = SparseVector::zeros(2);
        assert!(spmspv(&a, &x).is_err());
    }

    #[test]
    fn cancellation_keeps_structural_nonzero() {
        // Row 0 receives +5 and -5: the entry cancels to an exact 0.0 but
        // stays structurally present, as in the hardware accumulator.
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(0, 1, -1.0);
        coo.push(1, 1, 2.0);
        let a = CsrMatrix::try_from(coo).unwrap();
        let x = SparseVector::try_new(2, vec![0, 1], vec![5.0, 5.0]).unwrap();
        let y = spmspv(&a, &x).unwrap();
        assert_eq!(y.get(0), Some(0.0), "cancelled entry stays structural");
        assert_eq!(y.get(1), Some(10.0));
        assert_eq!(y.nnz(), 2);
    }

    #[test]
    fn accumulates_across_columns() {
        // Row 0 receives contributions from two x entries.
        let mut coo = CooMatrix::new(1, 2);
        coo.push(0, 0, 1.0);
        coo.push(0, 1, 1.0);
        let a = CsrMatrix::try_from(coo).unwrap();
        let x = SparseVector::try_new(2, vec![0, 1], vec![3.0, 4.0]).unwrap();
        let y = spmspv(&a, &x).unwrap();
        assert_eq!(y.get(0), Some(7.0));
    }
}
