//! Sparse vector, the second operand of SpMSpV.

use crate::{FormatError, StorageSize, INDEX_BYTES, VALUE_BYTES};

/// A sparse vector: sorted indices plus matching values.
///
/// This is the `x` operand of SpMSpV (Fig. 2 of the paper); the evaluation
/// generates it at 50 % density (Section VI-A).
///
/// # Example
///
/// ```
/// use sparse::SparseVector;
///
/// # fn main() -> Result<(), sparse::FormatError> {
/// let x = SparseVector::try_new(8, vec![1, 5], vec![2.0, -1.0])?;
/// assert_eq!(x.get(5), Some(-1.0));
/// assert_eq!(x.get(0), None);
/// assert_eq!(x.to_dense()[1], 2.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SparseVector {
    dim: usize,
    idx: Vec<u32>,
    values: Vec<f64>,
}

impl SparseVector {
    /// Builds a sparse vector after validating sortedness and bounds.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError`] if lengths disagree, indices are out of range,
    /// or indices are not strictly increasing.
    pub fn try_new(dim: usize, idx: Vec<u32>, values: Vec<f64>) -> Result<Self, FormatError> {
        if idx.len() != values.len() {
            return Err(FormatError::LengthMismatch { detail: "idx.len() != values.len()" });
        }
        for w in idx.windows(2) {
            if w[0] >= w[1] {
                return Err(FormatError::UnsortedIndices { outer: 0 });
            }
        }
        if let Some(&last) = idx.last() {
            if last as usize >= dim {
                return Err(FormatError::IndexOutOfBounds {
                    row: last as usize,
                    col: 0,
                    nrows: dim,
                    ncols: 1,
                });
            }
        }
        Ok(SparseVector { dim, idx, values })
    }

    /// Creates an empty vector of dimension `dim`.
    pub fn zeros(dim: usize) -> Self {
        SparseVector { dim, idx: Vec::new(), values: Vec::new() }
    }

    /// Builds a sparse vector from a dense slice, dropping `|v| <= eps`.
    pub fn from_dense(dense: &[f64], eps: f64) -> Self {
        let mut idx = Vec::new();
        let mut values = Vec::new();
        for (i, &v) in dense.iter().enumerate() {
            if v.abs() > eps {
                idx.push(i as u32);
                values.push(v);
            }
        }
        SparseVector { dim: dense.len(), idx, values }
    }

    /// Dimension of the vector.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Fraction of entries that are zero.
    pub fn sparsity(&self) -> f64 {
        if self.dim == 0 {
            0.0
        } else {
            1.0 - self.nnz() as f64 / self.dim as f64
        }
    }

    /// Sorted index slice.
    pub fn indices(&self) -> &[u32] {
        &self.idx
    }

    /// Value slice, parallel to [`SparseVector::indices`].
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Bitwise equality: the same dimension and indices, and values with
    /// the same IEEE-754 bit patterns (`0.0` and `-0.0` differ, a NaN
    /// equals itself), unlike the derived float `PartialEq`.
    pub fn bit_eq(&self, other: &Self) -> bool {
        self.dim == other.dim && self.idx == other.idx && crate::bits_eq(&self.values, &other.values)
    }

    /// The stored value at `i`, or `None` if structurally zero.
    pub fn get(&self, i: usize) -> Option<f64> {
        self.idx.binary_search(&(i as u32)).ok().map(|p| self.values[p])
    }

    /// Iterates over `(index, value)` pairs in increasing index order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.idx.iter().zip(&self.values).map(|(&i, &v)| (i as usize, v))
    }

    /// Materialises the vector densely.
    pub fn to_dense(&self) -> Vec<f64> {
        let mut d = vec![0.0; self.dim];
        for (i, v) in self.iter() {
            d[i] = v;
        }
        d
    }

    /// Bitmask of the nonzero positions within the 16-element segment
    /// starting at `seg * 16` (bit `k` set means position `seg*16 + k` is
    /// nonzero). Used by the simulator's MV task drivers.
    pub fn segment_mask16(&self, seg: usize) -> u16 {
        let lo = (seg * 16) as u32;
        let hi = lo + 16;
        let start = self.idx.partition_point(|&i| i < lo);
        let mut mask = 0u16;
        for &i in &self.idx[start..] {
            if i >= hi {
                break;
            }
            mask |= 1 << (i - lo);
        }
        mask
    }
}

impl StorageSize for SparseVector {
    fn metadata_bytes(&self) -> usize {
        INDEX_BYTES * self.nnz()
    }

    fn value_bytes(&self) -> usize {
        VALUE_BYTES * self.nnz()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn try_new_validates_sorting() {
        let err = SparseVector::try_new(4, vec![2, 1], vec![1.0, 2.0]).unwrap_err();
        assert!(matches!(err, FormatError::UnsortedIndices { .. }));
    }

    #[test]
    fn try_new_validates_bounds() {
        let err = SparseVector::try_new(4, vec![4], vec![1.0]).unwrap_err();
        assert!(matches!(err, FormatError::IndexOutOfBounds { .. }));
    }

    #[test]
    fn bit_eq_compares_value_bits() {
        let v = |x: f64| SparseVector::try_new(4, vec![1], vec![x]).unwrap();
        assert!(v(1.5).bit_eq(&v(1.5)));
        assert!(!v(0.0).bit_eq(&v(-0.0)), "signed zeros are different content");
        assert!(v(f64::NAN).bit_eq(&v(f64::NAN)), "a NaN is its own content");
        assert!(!v(1.0).bit_eq(&SparseVector::try_new(4, vec![2], vec![1.0]).unwrap()));
    }

    #[test]
    fn from_dense_roundtrip() {
        let d = vec![0.0, 1.0, 0.0, -2.0];
        let s = SparseVector::from_dense(&d, 0.0);
        assert_eq!(s.nnz(), 2);
        assert_eq!(s.to_dense(), d);
    }

    #[test]
    fn sparsity_fraction() {
        let s = SparseVector::try_new(4, vec![0, 1], vec![1.0, 1.0]).unwrap();
        assert!((s.sparsity() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn segment_mask_extracts_window() {
        let s = SparseVector::try_new(40, vec![0, 15, 16, 20, 39], vec![1.0; 5]).unwrap();
        assert_eq!(s.segment_mask16(0), 0b1000_0000_0000_0001);
        assert_eq!(s.segment_mask16(1), 0b0000_0000_0001_0001);
        assert_eq!(s.segment_mask16(2), 1 << 7);
    }

    #[test]
    fn get_hits_and_misses() {
        let s = SparseVector::try_new(4, vec![1], vec![9.0]).unwrap();
        assert_eq!(s.get(1), Some(9.0));
        assert_eq!(s.get(2), None);
    }
}
