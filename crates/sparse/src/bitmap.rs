//! Flat bitmap sparse format (the paper's Fig. 1).

use crate::kernels::{BitKernels, BitwiseKernels};
use crate::{CsrMatrix, FormatError, StorageSize, VALUE_BYTES};

/// A sparse matrix stored as one flat bitmask plus a packed value array
/// (the bitmap format of the paper's Fig. 1).
///
/// Bit `r * ncols + c` of the mask is set when entry `(r, c)` is nonzero;
/// values are stored in row-major order of their set bits. The format is
/// compact for small, moderately dense matrices and is the conceptual
/// ancestor of BBC's per-tile level-2 bitmaps.
///
/// # Example
///
/// ```
/// use sparse::{BitmapMatrix, CsrMatrix};
///
/// # fn main() -> Result<(), sparse::FormatError> {
/// let csr = CsrMatrix::try_new(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0, 2.0])?;
/// let bm = BitmapMatrix::from_csr(&csr);
/// assert_eq!(bm.get(0, 0), Some(1.0));
/// assert_eq!(bm.to_csr()?, csr);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BitmapMatrix {
    nrows: usize,
    ncols: usize,
    mask: Vec<u64>,
    values: Vec<f64>,
}

impl BitmapMatrix {
    /// Converts a CSR matrix into bitmap form.
    pub fn from_csr(csr: &CsrMatrix) -> Self {
        let nrows = csr.nrows();
        let ncols = csr.ncols();
        let bits = nrows * ncols;
        let mut mask = vec![0u64; bits.div_ceil(64)];
        let mut values = Vec::with_capacity(csr.nnz());
        for (r, c, v) in csr.iter() {
            let bit = r * ncols + c;
            mask[bit / 64] |= 1u64 << (bit % 64);
            values.push(v);
        }
        BitmapMatrix { nrows, ncols, mask, values }
    }

    /// Builds a bitmap matrix from raw parts.
    ///
    /// `mask` holds `nrows * ncols` bits (little-endian within each word);
    /// `values` holds one value per set bit, in bit order.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::LengthMismatch`] if `mask` has the wrong word
    /// count or the popcount of `mask` disagrees with `values.len()`.
    pub fn try_from_parts(
        nrows: usize,
        ncols: usize,
        mask: Vec<u64>,
        values: Vec<f64>,
    ) -> Result<Self, FormatError> {
        let bits = nrows * ncols;
        if mask.len() != bits.div_ceil(64) {
            return Err(FormatError::LengthMismatch { detail: "mask word count" });
        }
        // Bits beyond nrows*ncols must be clear.
        if !bits.is_multiple_of(64) {
            if let Some(&last) = mask.last() {
                if last >> (bits % 64) != 0 {
                    return Err(FormatError::LengthMismatch { detail: "mask has stray bits" });
                }
            }
        }
        let pop: u32 = mask.iter().map(|w| w.count_ones()).sum();
        if pop as usize != values.len() {
            return Err(FormatError::LengthMismatch { detail: "mask popcount != values.len()" });
        }
        Ok(BitmapMatrix { nrows, ncols, mask, values })
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

    /// Whether entry `(row, col)` is structurally nonzero.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    pub fn is_set(&self, row: usize, col: usize) -> bool {
        assert!(row < self.nrows && col < self.ncols, "index out of bounds");
        let bit = row * self.ncols + col;
        self.mask[bit / 64] >> (bit % 64) & 1 == 1
    }

    /// The stored value at `(row, col)`, or `None` when structurally zero.
    ///
    /// Retrieval counts the set bits before the queried position (the rank
    /// operation the paper's hardware performs with a popcount unit).
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    pub fn get(&self, row: usize, col: usize) -> Option<f64> {
        if !self.is_set(row, col) {
            return None;
        }
        let bit = row * self.ncols + col;
        Some(self.values[BitwiseKernels.rank(&self.mask, bit)])
    }

    /// Converts back to CSR form.
    ///
    /// Walks the mask word-at-a-time with
    /// [`BitwiseKernels::collect_set_bits`] (set bits come back in
    /// ascending order, which is exactly the row-major value order)
    /// instead of probing every cell; the mask's
    /// tail word is masked to `nrows * ncols` bits so ragged widths —
    /// total bit counts that are not a multiple of 64 — cannot leak
    /// stray positions.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError`] if the CSR constructor rejects the emitted
    /// coordinates — impossible for a structurally valid bitmap, but
    /// surfaced as a typed error rather than a panic.
    pub fn to_csr(&self) -> Result<CsrMatrix, FormatError> {
        let mut coo = crate::CooMatrix::with_capacity(self.nrows, self.ncols, self.nnz());
        let mut set_bits = Vec::with_capacity(self.nnz());
        BitwiseKernels.collect_set_bits(&self.mask, self.nrows * self.ncols, &mut set_bits);
        for (&bit, &v) in set_bits.iter().zip(self.values.iter()) {
            let bit = bit as usize;
            coo.push(bit / self.ncols, bit % self.ncols, v);
        }
        CsrMatrix::try_from(coo)
    }
}

impl StorageSize for BitmapMatrix {
    fn metadata_bytes(&self) -> usize {
        (self.nrows * self.ncols).div_ceil(8)
    }

    fn value_bytes(&self) -> usize {
        VALUE_BYTES * self.nnz()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig1_matrix() -> CsrMatrix {
        // The paper's Fig. 1 example:
        // [ a 0 b 0 ]
        // [ 0 c 0 0 ]
        // [ 0 0 0 d ]
        // [ e 0 0 f ]
        CsrMatrix::try_new(
            4,
            4,
            vec![0, 2, 3, 4, 6],
            vec![0, 2, 1, 3, 0, 3],
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        )
        .unwrap()
    }

    #[test]
    fn fig1_mask_matches_paper() {
        let bm = BitmapMatrix::from_csr(&fig1_matrix());
        // Paper mask (row-major): 1010 0100 0001 1001
        let expect = [1, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 1, 1, 0, 0, 1];
        for (bit, &e) in expect.iter().enumerate() {
            assert_eq!(bm.is_set(bit / 4, bit % 4), e == 1, "bit {bit}");
        }
    }

    #[test]
    fn roundtrip_preserves_matrix() {
        let csr = fig1_matrix();
        assert_eq!(BitmapMatrix::from_csr(&csr).to_csr().unwrap(), csr);
    }

    #[test]
    fn to_csr_returns_typed_result() {
        // Degenerate shapes convert without panicking.
        let empty = BitmapMatrix::from_csr(&CsrMatrix::identity(0));
        assert_eq!(empty.to_csr().unwrap().nnz(), 0);
    }

    #[test]
    fn get_uses_rank() {
        let bm = BitmapMatrix::from_csr(&fig1_matrix());
        assert_eq!(bm.get(0, 0), Some(1.0));
        assert_eq!(bm.get(3, 3), Some(6.0));
        assert_eq!(bm.get(2, 0), None);
    }

    #[test]
    fn try_from_parts_validates_popcount() {
        let err = BitmapMatrix::try_from_parts(2, 2, vec![0b11], vec![1.0]).unwrap_err();
        assert!(matches!(err, FormatError::LengthMismatch { .. }));
    }

    #[test]
    fn try_from_parts_rejects_stray_bits() {
        let err = BitmapMatrix::try_from_parts(2, 2, vec![1 << 10], vec![1.0]).unwrap_err();
        assert!(matches!(err, FormatError::LengthMismatch { .. }));
    }

    #[test]
    fn storage_is_one_bit_per_cell() {
        let bm = BitmapMatrix::from_csr(&fig1_matrix());
        assert_eq!(bm.metadata_bytes(), 2); // 16 cells -> 2 bytes
        assert_eq!(bm.value_bytes(), 48);
    }

    /// One-row matrix with every cell set, at a given total bit width.
    fn ragged_full(ncols: usize) -> CsrMatrix {
        let values: Vec<f64> = (0..ncols).map(|c| c as f64 + 1.0).collect();
        let col_idx: Vec<u32> = (0..ncols as u32).collect();
        CsrMatrix::try_new(1, ncols, vec![0, ncols], col_idx, values).unwrap()
    }

    #[test]
    fn roundtrip_at_ragged_widths() {
        // Total bit counts straddling the word boundaries: the tail
        // word is empty, one bit, one-short, exactly full, one-over.
        for ncols in [0usize, 1, 63, 64, 65, 255, 256] {
            let csr = ragged_full(ncols);
            let bm = BitmapMatrix::from_csr(&csr);
            assert_eq!(bm.nnz(), ncols, "ncols={ncols}");
            assert_eq!(bm.to_csr().unwrap(), csr, "ncols={ncols}");
        }
    }

    #[test]
    fn rank_at_ragged_widths() {
        for ncols in [1usize, 63, 64, 65, 255, 256] {
            let bm = BitmapMatrix::from_csr(&ragged_full(ncols));
            assert_eq!(bm.get(0, 0), Some(1.0), "ncols={ncols}");
            assert_eq!(bm.get(0, ncols - 1), Some(ncols as f64), "ncols={ncols}");
        }
    }

    #[test]
    fn ragged_multirow_tail_straddles_rows() {
        // 3 rows x 43 cols = 129 bits: rows straddle word boundaries so
        // a tail-masking bug would drop or duplicate entries.
        let mut coo = crate::CooMatrix::new(3, 43);
        for (i, &(r, c)) in [(0, 0), (0, 42), (1, 20), (2, 0), (2, 42)].iter().enumerate() {
            coo.push(r, c, i as f64 + 0.5);
        }
        let csr = CsrMatrix::try_from(coo).unwrap();
        let bm = BitmapMatrix::from_csr(&csr);
        assert_eq!(bm.get(2, 42), Some(4.5));
        assert_eq!(bm.get(1, 19), None);
        assert_eq!(bm.to_csr().unwrap(), csr);
    }

    #[test]
    fn backends_agree_on_bitmap_paths() {
        // `get` and `to_csr` run the bitwise rank and set-bit walk; the
        // scalar reference must find the same positions and ranks on a
        // ragged mask (3 x 43 = 129 bits).
        use crate::kernels::ScalarKernels;
        let mut coo = crate::CooMatrix::new(3, 43);
        for i in 0..129usize {
            if i % 3 == 0 || i % 7 == 1 {
                coo.push(i / 43, i % 43, i as f64 - 60.5);
            }
        }
        let csr = CsrMatrix::try_from(coo).unwrap();
        let bm = BitmapMatrix::from_csr(&csr);
        let mut bits = Vec::new();
        ScalarKernels.collect_set_bits(&bm.mask, 129, &mut bits);
        assert_eq!(bits.len(), csr.nnz());
        for (i, &bit) in bits.iter().enumerate() {
            let bit = bit as usize;
            assert_eq!(ScalarKernels.rank(&bm.mask, bit), i);
            assert_eq!(bm.get(bit / 43, bit % 43), Some(bm.values[i]), "bit {bit}");
        }
        assert_eq!(bm.to_csr().unwrap(), csr);
    }
}
