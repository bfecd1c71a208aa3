//! Sparse matrix x sparse matrix (SpGEMM) reference kernel.

use crate::kernels::{BitKernels, BitwiseKernels};
use crate::{CsrMatrix, FormatError};

use super::dim_err;

/// Computes `C = A * B` for two CSR matrices using Gustavson's row-wise
/// algorithm with a dense accumulator per row.
///
/// The paper evaluates SpGEMM as `C = A^2` on square matrices (Section
/// VI-A); this reference accepts any conforming pair.
///
/// # Errors
///
/// Returns [`FormatError::DimensionMismatch`] if `a.ncols() != b.nrows()`.
///
/// # Example
///
/// ```
/// use sparse::{CsrMatrix, ops::spgemm};
///
/// # fn main() -> Result<(), sparse::FormatError> {
/// let a = CsrMatrix::try_new(2, 2, vec![0, 1, 2], vec![1, 0], vec![1.0, 1.0])?;
/// let c = spgemm(&a, &a)?; // permutation squared = identity
/// assert_eq!(c.get(0, 0), Some(1.0));
/// assert_eq!(c.get(1, 1), Some(1.0));
/// # Ok(())
/// # }
/// ```
pub fn spgemm(a: &CsrMatrix, b: &CsrMatrix) -> Result<CsrMatrix, FormatError> {
    if a.ncols() != b.nrows() {
        return Err(dim_err(format!(
            "spgemm: a.ncols() = {} but b.nrows() = {}",
            a.ncols(),
            b.nrows()
        )));
    }
    // Occupancy marks live in a word bitset; emission walks set bits
    // in ascending order (`collect_set_bits`), replacing the old
    // per-row touch-list sort. Accumulation order is untouched (still
    // the Gustavson visit order), so values are bit-identical to the
    // original formulation.
    let n = b.ncols();
    let mut acc = vec![0.0f64; n];
    let mut mark = vec![0u64; n.div_ceil(64)];
    let mut touched: Vec<u32> = Vec::new();

    let mut row_ptr = vec![0usize; a.nrows() + 1];
    let mut col_idx: Vec<u32> = Vec::new();
    let mut values: Vec<f64> = Vec::new();

    for r in 0..a.nrows() {
        touched.clear();
        let (acols, avals) = a.row(r);
        for (&k, &av) in acols.iter().zip(avals) {
            let (bcols, bvals) = b.row(k as usize);
            for (&c, &bv) in bcols.iter().zip(bvals) {
                mark[c as usize / 64] |= 1u64 << (c % 64);
                acc[c as usize] += av * bv;
            }
        }
        BitwiseKernels.collect_set_bits(&mark, n, &mut touched);
        for &c in &touched {
            col_idx.push(c);
            values.push(acc[c as usize]);
            acc[c as usize] = 0.0;
            mark[c as usize / 64] = 0;
        }
        row_ptr[r + 1] = col_idx.len();
    }

    CsrMatrix::try_new(a.nrows(), n, row_ptr, col_idx, values)
}

/// Computes only the structural (symbolic) product: the sparsity pattern of
/// `C = A * B` with all stored values set to 1.0.
///
/// Structural products never drop entries through numerical cancellation,
/// which makes this the right input for hardware-traffic accounting.
///
/// # Errors
///
/// Returns [`FormatError::DimensionMismatch`] if `a.ncols() != b.nrows()`.
pub fn spgemm_structure(a: &CsrMatrix, b: &CsrMatrix) -> Result<CsrMatrix, FormatError> {
    if a.ncols() != b.nrows() {
        return Err(dim_err(format!(
            "spgemm_structure: a.ncols() = {} but b.nrows() = {}",
            a.ncols(),
            b.nrows()
        )));
    }
    // The symbolic product is pure mask algebra: precompute one bitset
    // per B row, then row r of C is the word-at-a-time OR overlay of
    // the B-row bitsets selected by row r of A. The dense B-row table
    // costs nrows(B) x ncols(B) bits, so huge shapes fall back to the
    // per-entry mark loop.
    let n = b.ncols();
    let words = n.div_ceil(64);
    let mut touched: Vec<u32> = Vec::new();
    let mut row_ptr = vec![0usize; a.nrows() + 1];
    let mut col_idx: Vec<u32> = Vec::new();

    const OVERLAY_BIT_LIMIT: usize = 1 << 28; // 32 MiB of B-row bitsets
    if b.nrows().saturating_mul(words).saturating_mul(64) <= OVERLAY_BIT_LIMIT {
        let mut brows = vec![0u64; b.nrows() * words];
        for k in 0..b.nrows() {
            let (bcols, _) = b.row(k);
            for &c in bcols {
                brows[k * words + c as usize / 64] |= 1u64 << (c % 64);
            }
        }
        let mut rowmask = vec![0u64; words];
        for r in 0..a.nrows() {
            rowmask.fill(0);
            touched.clear();
            let (acols, _) = a.row(r);
            for &k in acols {
                let k = k as usize;
                BitwiseKernels.or_into(&mut rowmask, &brows[k * words..(k + 1) * words]);
            }
            BitwiseKernels.collect_set_bits(&rowmask, n, &mut touched);
            col_idx.extend_from_slice(&touched);
            row_ptr[r + 1] = col_idx.len();
        }
    } else {
        let mut mark = vec![0u64; words];
        for r in 0..a.nrows() {
            touched.clear();
            let (acols, _) = a.row(r);
            for &k in acols {
                let (bcols, _) = b.row(k as usize);
                for &c in bcols {
                    mark[c as usize / 64] |= 1u64 << (c % 64);
                }
            }
            BitwiseKernels.collect_set_bits(&mark, n, &mut touched);
            for &c in &touched {
                col_idx.push(c);
                mark[c as usize / 64] = 0;
            }
            row_ptr[r + 1] = col_idx.len();
        }
    }
    let nnz = col_idx.len();
    CsrMatrix::try_new(a.nrows(), n, row_ptr, col_idx, vec![1.0; nnz])
}

/// Number of intermediate products (multiply operations) of `C = A * B`,
/// i.e. `sum over nonzeros A[r,k] of nnz(B row k)`.
///
/// This is the "#inter-prod" quantity the paper aggregates per T1 task in
/// Table VII and uses as the density axis of Fig. 20.
///
/// # Errors
///
/// Returns [`FormatError::DimensionMismatch`] if `a.ncols() != b.nrows()`.
pub fn spgemm_flops(a: &CsrMatrix, b: &CsrMatrix) -> Result<u64, FormatError> {
    if a.ncols() != b.nrows() {
        return Err(dim_err(format!(
            "spgemm_flops: a.ncols() = {} but b.nrows() = {}",
            a.ncols(),
            b.nrows()
        )));
    }
    let mut flops = 0u64;
    for r in 0..a.nrows() {
        let (acols, _) = a.row(r);
        for &k in acols {
            flops += b.row_nnz(k as usize) as u64;
        }
    }
    Ok(flops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;

    fn small() -> CsrMatrix {
        // [ 1 2 0 ]
        // [ 0 0 3 ]
        // [ 4 0 0 ]
        let mut coo = CooMatrix::new(3, 3);
        for (r, c, v) in [(0, 0, 1.0), (0, 1, 2.0), (1, 2, 3.0), (2, 0, 4.0)] {
            coo.push(r, c, v);
        }
        CsrMatrix::try_from(coo).unwrap()
    }

    #[test]
    fn squares_correctly() {
        let a = small();
        let c = spgemm(&a, &a).unwrap();
        // C = A^2:
        // row0 = row(A,0)*A = 1*[1,2,0] + 2*[0,0,3] = [1,2,6]
        // row1 = 3*[4,0,0] = [12,0,0]
        // row2 = 4*[1,2,0] = [4,8,0]
        assert_eq!(c.get(0, 0), Some(1.0));
        assert_eq!(c.get(0, 1), Some(2.0));
        assert_eq!(c.get(0, 2), Some(6.0));
        assert_eq!(c.get(1, 0), Some(12.0));
        assert_eq!(c.get(2, 0), Some(4.0));
        assert_eq!(c.get(2, 1), Some(8.0));
        assert_eq!(c.nnz(), 6);
    }

    #[test]
    fn flops_counts_products() {
        let a = small();
        // row0: k=0 -> 2, k=1 -> 1; row1: k=2 -> 1; row2: k=0 -> 2. total 6.
        assert_eq!(spgemm_flops(&a, &a).unwrap(), 6);
    }

    #[test]
    fn structure_matches_numeric_without_cancellation() {
        let a = small();
        let c = spgemm(&a, &a).unwrap();
        let s = spgemm_structure(&a, &a).unwrap();
        assert_eq!(s.nnz(), c.nnz());
    }

    #[test]
    fn structure_keeps_cancelled_entries() {
        // A*B where numeric product cancels: [1, -1] * [[1],[1]] = 0
        let mut ca = CooMatrix::new(1, 2);
        ca.push(0, 0, 1.0);
        ca.push(0, 1, -1.0);
        let a = CsrMatrix::try_from(ca).unwrap();
        let mut cb = CooMatrix::new(2, 1);
        cb.push(0, 0, 1.0);
        cb.push(1, 0, 1.0);
        let b = CsrMatrix::try_from(cb).unwrap();
        let c = spgemm(&a, &b).unwrap();
        let s = spgemm_structure(&a, &b).unwrap();
        // The numeric kernel stores the explicit zero (touched entry)...
        assert_eq!(c.nnz(), 1);
        assert_eq!(c.get(0, 0), Some(0.0));
        // ...and the structural kernel records the position.
        assert_eq!(s.get(0, 0), Some(1.0));
    }

    #[test]
    fn identity_is_neutral() {
        let a = small();
        let i = CsrMatrix::identity(3);
        assert_eq!(spgemm(&a, &i).unwrap(), a);
        assert_eq!(spgemm(&i, &a).unwrap(), a);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let a = small();
        let b = CsrMatrix::zeros(2, 2);
        assert!(spgemm(&a, &b).is_err());
        assert!(spgemm_structure(&a, &b).is_err());
        assert!(spgemm_flops(&a, &b).is_err());
    }
}
