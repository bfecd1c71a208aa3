//! Compressed sparse row (CSR) format.

use crate::{CooMatrix, CscMatrix, DenseMatrix, FormatError, StorageSize, INDEX_BYTES, VALUE_BYTES};

/// A sparse matrix in compressed sparse row (CSR) form.
///
/// CSR is the baseline format of the paper's storage study (Fig. 15) and the
/// input to BBC construction. Invariants (enforced by [`CsrMatrix::try_new`]
/// and preserved by every constructor):
///
/// * `row_ptr.len() == nrows + 1`, `row_ptr[0] == 0`, non-decreasing, and
///   `row_ptr[nrows] == col_idx.len() == values.len()`;
/// * column indices within each row are strictly increasing and `< ncols`.
///
/// # Example
///
/// ```
/// use sparse::CsrMatrix;
///
/// # fn main() -> Result<(), sparse::FormatError> {
/// // [ 1 0 2 ]
/// // [ 0 3 0 ]
/// let m = CsrMatrix::try_new(2, 3, vec![0, 2, 3], vec![0, 2, 1], vec![1.0, 2.0, 3.0])?;
/// assert_eq!(m.get(0, 2), Some(2.0));
/// assert_eq!(m.get(1, 0), None);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix after validating every invariant.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError`] if pointers are malformed, array lengths
    /// disagree, column indices are out of range, or indices within a row
    /// are not strictly increasing.
    pub fn try_new(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        values: Vec<f64>,
    ) -> Result<Self, FormatError> {
        if row_ptr.len() != nrows + 1 {
            return Err(FormatError::MalformedPointers { detail: "row_ptr.len() != nrows + 1" });
        }
        if row_ptr[0] != 0 {
            return Err(FormatError::MalformedPointers { detail: "row_ptr[0] != 0" });
        }
        if row_ptr.windows(2).any(|w| w[0] > w[1]) {
            return Err(FormatError::MalformedPointers { detail: "row_ptr not non-decreasing" });
        }
        if *row_ptr.last().expect("row_ptr nonempty") != col_idx.len() {
            return Err(FormatError::MalformedPointers {
                detail: "row_ptr[nrows] != col_idx.len()",
            });
        }
        if col_idx.len() != values.len() {
            return Err(FormatError::LengthMismatch { detail: "col_idx.len() != values.len()" });
        }
        for r in 0..nrows {
            let cols = &col_idx[row_ptr[r]..row_ptr[r + 1]];
            for w in cols.windows(2) {
                if w[0] >= w[1] {
                    return Err(FormatError::UnsortedIndices { outer: r });
                }
            }
            if let Some(&c) = cols.last() {
                if c as usize >= ncols {
                    return Err(FormatError::IndexOutOfBounds {
                        row: r,
                        col: c as usize,
                        nrows,
                        ncols,
                    });
                }
            }
        }
        Ok(CsrMatrix { nrows, ncols, row_ptr, col_idx, values })
    }

    /// Creates an empty matrix with no stored entries.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        CsrMatrix {
            nrows,
            ncols,
            row_ptr: vec![0; nrows + 1],
            col_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        CsrMatrix {
            nrows: n,
            ncols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n as u32).collect(),
            values: vec![1.0; n],
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The row-pointer array (`nrows + 1` entries).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// The column-index array, one entry per nonzero.
    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    /// The value array, one entry per nonzero.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable access to the value array (structure is immutable).
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Bitwise equality: the same shape and structure arrays, and values
    /// with the same IEEE-754 bit patterns. Unlike the derived
    /// `PartialEq` (float `==`), `0.0` and `-0.0` differ and a NaN equals
    /// itself, so equal matrices feed every kernel the same bits.
    pub fn bit_eq(&self, other: &Self) -> bool {
        self.nrows == other.nrows
            && self.ncols == other.ncols
            && self.row_ptr == other.row_ptr
            && self.col_idx == other.col_idx
            && crate::bits_eq(&self.values, &other.values)
    }

    /// The `(col_idx, values)` slices of one row.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.nrows()`.
    pub fn row(&self, row: usize) -> (&[u32], &[f64]) {
        let lo = self.row_ptr[row];
        let hi = self.row_ptr[row + 1];
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// Number of nonzeros stored in `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.nrows()`.
    pub fn row_nnz(&self, row: usize) -> usize {
        self.row_ptr[row + 1] - self.row_ptr[row]
    }

    /// The stored value at `(row, col)`, or `None` when the entry is
    /// structurally zero.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.nrows()`.
    pub fn get(&self, row: usize, col: usize) -> Option<f64> {
        let (cols, vals) = self.row(row);
        cols.binary_search(&(col as u32)).ok().map(|i| vals[i])
    }

    /// Iterates over all `(row, col, value)` entries in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.nrows).flat_map(move |r| {
            let (cols, vals) = self.row(r);
            cols.iter().zip(vals).map(move |(&c, &v)| (r, c as usize, v))
        })
    }

    /// Returns the transpose as a new CSR matrix.
    pub fn transpose(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.ncols + 1];
        for &c in &self.col_idx {
            counts[c as usize + 1] += 1;
        }
        for i in 0..self.ncols {
            counts[i + 1] += counts[i];
        }
        let row_ptr = counts.clone();
        let mut col_idx = vec![0u32; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        let mut cursor = counts;
        for (r, c, v) in self.iter() {
            let dst = cursor[c];
            col_idx[dst] = r as u32;
            values[dst] = v;
            cursor[c] += 1;
        }
        CsrMatrix { nrows: self.ncols, ncols: self.nrows, row_ptr, col_idx, values }
    }

    /// Converts to compressed sparse column form.
    pub fn to_csc(&self) -> CscMatrix {
        let t = self.transpose();
        CscMatrix::from_transposed_csr(t)
    }

    /// Materialises the matrix densely (row-major).
    pub fn to_dense(&self) -> DenseMatrix {
        let mut d = DenseMatrix::zeros(self.nrows, self.ncols);
        for (r, c, v) in self.iter() {
            d[(r, c)] = v;
        }
        d
    }

    /// Mean number of nonzeros per row.
    pub fn avg_row_nnz(&self) -> f64 {
        if self.nrows == 0 {
            0.0
        } else {
            self.nnz() as f64 / self.nrows as f64
        }
    }

    /// Fraction of entries that are structurally zero, in `[0, 1]`.
    pub fn sparsity(&self) -> f64 {
        let cells = self.nrows as f64 * self.ncols as f64;
        if cells == 0.0 {
            0.0
        } else {
            1.0 - self.nnz() as f64 / cells
        }
    }
}

impl TryFrom<CooMatrix> for CsrMatrix {
    type Error = FormatError;

    /// Compresses a COO matrix (sorting entries and summing duplicates).
    fn try_from(mut coo: CooMatrix) -> Result<Self, FormatError> {
        coo.compress();
        let nrows = coo.nrows();
        let ncols = coo.ncols();
        let mut row_ptr = vec![0usize; nrows + 1];
        let mut col_idx = Vec::with_capacity(coo.nnz());
        let mut values = Vec::with_capacity(coo.nnz());
        for (r, c, v) in coo.iter() {
            if r >= nrows || c >= ncols {
                return Err(FormatError::IndexOutOfBounds { row: r, col: c, nrows, ncols });
            }
            row_ptr[r + 1] += 1;
            col_idx.push(c as u32);
            values.push(v);
        }
        for i in 0..nrows {
            row_ptr[i + 1] += row_ptr[i];
        }
        Ok(CsrMatrix { nrows, ncols, row_ptr, col_idx, values })
    }
}

impl From<&CsrMatrix> for CooMatrix {
    fn from(csr: &CsrMatrix) -> Self {
        let mut coo = CooMatrix::with_capacity(csr.nrows(), csr.ncols(), csr.nnz());
        coo.extend(csr.iter());
        coo
    }
}

impl StorageSize for CsrMatrix {
    fn metadata_bytes(&self) -> usize {
        INDEX_BYTES * (self.nrows + 1) + INDEX_BYTES * self.nnz()
    }

    fn value_bytes(&self) -> usize {
        VALUE_BYTES * self.nnz()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        // [ 1 0 2 0 ]
        // [ 0 0 0 3 ]
        // [ 4 0 0 5 ]
        CsrMatrix::try_new(
            3,
            4,
            vec![0, 2, 3, 5],
            vec![0, 2, 3, 0, 3],
            vec![1.0, 2.0, 3.0, 4.0, 5.0],
        )
        .unwrap()
    }

    #[test]
    fn bit_eq_compares_structure_and_value_bits() {
        let m = sample();
        assert!(m.bit_eq(&m.clone()));
        let mut signed = m.clone();
        signed.values_mut()[0] = -0.0;
        let mut zero = m.clone();
        zero.values_mut()[0] = 0.0;
        assert!(signed == zero && !signed.bit_eq(&zero), "float == hides the sign of zero");
        let mut nan = m.clone();
        nan.values_mut()[4] = f64::NAN;
        assert!(nan != nan.clone() && nan.bit_eq(&nan.clone()), "float == never equals a NaN");
        let bbc = crate::BbcMatrix::from_csr(&m);
        assert!(bbc.bit_eq(&crate::BbcMatrix::from_csr(&m)));
        assert!(!bbc.bit_eq(&crate::BbcMatrix::from_csr(&zero)));
    }

    #[test]
    fn try_new_accepts_valid() {
        let m = sample();
        assert_eq!(m.nnz(), 5);
        assert_eq!(m.row_nnz(2), 2);
    }

    #[test]
    fn try_new_rejects_bad_pointer_length() {
        let err = CsrMatrix::try_new(2, 2, vec![0, 1], vec![0], vec![1.0]).unwrap_err();
        assert!(matches!(err, FormatError::MalformedPointers { .. }));
    }

    #[test]
    fn try_new_rejects_decreasing_pointers() {
        let err = CsrMatrix::try_new(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 2.0]).unwrap_err();
        assert!(matches!(err, FormatError::MalformedPointers { .. }));
    }

    #[test]
    fn try_new_rejects_unsorted_columns() {
        let err =
            CsrMatrix::try_new(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 2.0]).unwrap_err();
        assert!(matches!(err, FormatError::UnsortedIndices { outer: 0 }));
    }

    #[test]
    fn try_new_rejects_out_of_range_column() {
        let err = CsrMatrix::try_new(1, 2, vec![0, 1], vec![5], vec![1.0]).unwrap_err();
        assert!(matches!(err, FormatError::IndexOutOfBounds { .. }));
    }

    #[test]
    fn try_new_rejects_length_mismatch() {
        let err = CsrMatrix::try_new(1, 2, vec![0, 1], vec![0], vec![]).unwrap_err();
        assert!(matches!(err, FormatError::LengthMismatch { .. }));
    }

    #[test]
    fn get_finds_stored_and_missing() {
        let m = sample();
        assert_eq!(m.get(0, 2), Some(2.0));
        assert_eq!(m.get(1, 0), None);
        assert_eq!(m.get(2, 3), Some(5.0));
    }

    #[test]
    fn coo_roundtrip_preserves_entries() {
        let m = sample();
        let coo = CooMatrix::from(&m);
        let back = CsrMatrix::try_from(coo).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn transpose_is_involution() {
        let m = sample();
        let tt = m.transpose().transpose();
        assert_eq!(tt, m);
    }

    #[test]
    fn transpose_moves_entries() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.nrows(), 4);
        assert_eq!(t.ncols(), 3);
        assert_eq!(t.get(3, 1), Some(3.0));
        assert_eq!(t.get(0, 2), Some(4.0));
    }

    #[test]
    fn identity_has_unit_diagonal() {
        let i = CsrMatrix::identity(5);
        assert_eq!(i.nnz(), 5);
        for k in 0..5 {
            assert_eq!(i.get(k, k), Some(1.0));
        }
    }

    #[test]
    fn to_dense_matches_entries() {
        let m = sample();
        let d = m.to_dense();
        assert_eq!(d[(2, 0)], 4.0);
        assert_eq!(d[(1, 1)], 0.0);
    }

    #[test]
    fn sparsity_and_avg_row_nnz() {
        let m = sample();
        assert!((m.sparsity() - (1.0 - 5.0 / 12.0)).abs() < 1e-12);
        assert!((m.avg_row_nnz() - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn storage_size_matches_formula() {
        let m = sample();
        assert_eq!(m.metadata_bytes(), 4 * 4 + 4 * 5);
        assert_eq!(m.value_bytes(), 8 * 5);
    }

    #[test]
    fn zeros_has_valid_structure() {
        let z = CsrMatrix::zeros(3, 3);
        assert_eq!(z.nnz(), 0);
        assert_eq!(z.row_nnz(2), 0);
    }
}
