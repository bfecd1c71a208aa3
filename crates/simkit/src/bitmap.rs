//! 16x16 structural block bitmaps and 4x4 tile-mask helpers.

use sparse::kernels::{BitKernels, BitwiseKernels};
use sparse::BbcBlock;

/// The structural bitmap of one 16x16 operand block: sixteen row masks,
/// bit `c` of `rows[r]` marking element `(r, c)` as nonzero.
///
/// This is the view an STC's scheduler has of a T1 operand — it drives
/// every dataflow decision while values flow through a separate datapath.
///
/// # Example
///
/// ```
/// use simkit::Block16;
///
/// let b = Block16::from_fn(|r, c| r == c);
/// assert_eq!(b.nnz(), 16);
/// assert_eq!(b.col_mask(3), 1 << 3);
/// assert_eq!(b.tile(1, 1), 0b1000_0100_0010_0001);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Block16 {
    rows: [u16; 16],
}

impl Block16 {
    /// An all-zero block.
    pub const fn empty() -> Self {
        Block16 { rows: [0; 16] }
    }

    /// A fully dense block.
    pub const fn dense() -> Self {
        Block16 { rows: [u16::MAX; 16] }
    }

    /// Builds a block from sixteen row masks.
    pub const fn from_rows(rows: [u16; 16]) -> Self {
        Block16 { rows }
    }

    /// Builds a block from a predicate over `(row, col)`.
    pub fn from_fn<F: FnMut(usize, usize) -> bool>(mut f: F) -> Self {
        let mut rows = [0u16; 16];
        for (r, row) in rows.iter_mut().enumerate() {
            for c in 0..16 {
                if f(r, c) {
                    *row |= 1 << c;
                }
            }
        }
        Block16 { rows }
    }

    /// Extracts the structural bitmap of a stored BBC block.
    pub fn from_bbc(block: &BbcBlock<'_>) -> Self {
        Block16 { rows: block.element_rows() }
    }

    /// Builds the 16x1 operand block of an MV task: `B[k][0] = bit k` of
    /// `k_mask` (the dense-x mask is `0xFFFF`).
    pub fn from_vector_mask(k_mask: u16) -> Self {
        let mut rows = [0u16; 16];
        for (k, row) in rows.iter_mut().enumerate() {
            if k_mask >> k & 1 == 1 {
                *row = 1;
            }
        }
        Block16 { rows }
    }

    /// The sixteen row masks packed into two words (rows 0–7, then rows
    /// 8–15): the same content as a key that compares in two steps
    /// instead of sixteen.
    pub(crate) fn packed(&self) -> [u128; 2] {
        let mut words = [0u128; 2];
        for (r, &row) in self.rows.iter().enumerate() {
            words[r / 8] |= u128::from(row) << (16 * (r % 8));
        }
        words
    }

    /// The mask of row `r` (bit `c` = element `(r, c)`).
    ///
    /// # Panics
    ///
    /// Panics if `r >= 16`.
    #[inline]
    pub fn row_mask(&self, r: usize) -> u16 {
        self.rows[r]
    }

    /// The mask of column `c` (bit `r` = element `(r, c)`).
    ///
    /// # Panics
    ///
    /// Panics if `c >= 16`.
    #[inline]
    pub fn col_mask(&self, c: usize) -> u16 {
        assert!(c < 16, "column index out of bounds");
        let mut m = 0u16;
        for (r, &row) in self.rows.iter().enumerate() {
            m |= ((row >> c) & 1) << r;
        }
        m
    }

    /// Whether element `(r, c)` is set.
    ///
    /// # Panics
    ///
    /// Panics if `r >= 16` or `c >= 16`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> bool {
        assert!(c < 16, "column index out of bounds");
        self.rows[r] >> c & 1 == 1
    }

    /// Sets element `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= 16` or `c >= 16`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize) {
        assert!(c < 16, "column index out of bounds");
        self.rows[r] |= 1 << c;
    }

    /// Number of set elements.
    pub fn nnz(&self) -> u32 {
        self.rows.iter().map(|r| r.count_ones()).sum()
    }

    /// Whether the block is entirely zero.
    pub fn is_empty(&self) -> bool {
        self.rows.iter().all(|&r| r == 0)
    }

    /// The sixteen 4x4 tile masks in one pass: entry `tr * 4 + tc` is
    /// the mask of tile `(tr, tc)`, bit `er * 4 + ec` marking tile-local
    /// element `(er, ec)`.
    ///
    /// Each tile row's four row masks, packed into one word, form a 4x4
    /// matrix of nibbles (element row x tile column); transposing it
    /// leaves tile `tc`'s mask in 16-bit lane `tc`.
    pub fn tiles(&self) -> [u16; 16] {
        let mut out = [0u16; 16];
        for (rows, tiles) in self.rows.chunks_exact(4).zip(out.chunks_exact_mut(4)) {
            let packed = rows
                .iter()
                .enumerate()
                .fold(0u64, |w, (er, &row)| w | u64::from(row) << (16 * er));
            let by_tile = transpose_nibbles(packed);
            for (tc, tile) in tiles.iter_mut().enumerate() {
                *tile = (by_tile >> (16 * tc)) as u16;
            }
        }
        out
    }

    /// The 4x4 tile mask at tile coordinates `(tr, tc)`: bit `er * 4 + ec`
    /// marks tile-local element `(er, ec)`.
    ///
    /// # Panics
    ///
    /// Panics if `tr >= 4` or `tc >= 4`.
    pub fn tile(&self, tr: usize, tc: usize) -> u16 {
        assert!(tr < 4 && tc < 4, "tile index out of bounds");
        self.tiles()[tr * 4 + tc]
    }

    /// The level-1 tile bitmap: bit `tr * 4 + tc` set when tile `(tr, tc)`
    /// holds at least one element.
    pub fn tile_bitmap(&self) -> u16 {
        self.tiles()
            .iter()
            .enumerate()
            .fold(0, |m, (t, &tile)| m | u16::from(tile != 0) << t)
    }

    /// Number of intermediate products of `self x other` (16x16x16):
    /// `sum over k of nnz(col k of self) * nnz(row k of other)`.
    ///
    /// Runs [`BitwiseKernels::block_products`]: it packs the rows
    /// 4-per-u64 and uses SWAR popcounts instead of the 16x16 per-bit
    /// column probe.
    pub fn products_with(&self, other: &Block16) -> u64 {
        BitwiseKernels.block_products(&self.rows, &other.rows)
    }

    /// The structural product bitmap of `self x other`.
    ///
    /// Runs [`BitwiseKernels::block_mul_structure`]: it iterates only
    /// the set bits of each row (`trailing_zeros`) rather than probing
    /// all 16 contraction indices.
    pub fn mul_structure(&self, other: &Block16) -> Block16 {
        Block16 { rows: BitwiseKernels.block_mul_structure(&self.rows, &other.rows) }
    }

    /// Transposed bitmap: row `c` of the result is [`Block16::col_mask`]
    /// `(c)`, so one call yields all sixteen column masks.
    ///
    /// The rows, packed four to a word, are transposed by swapping the
    /// off-diagonal 8x8 blocks, then the off-diagonal 4x4, 2x2 and 1x1
    /// blocks inside each: two delta swaps across word pairs (rows 8
    /// and 4 apart) and two inside each word (rows 2 and 1 apart).
    pub fn transpose(&self) -> Block16 {
        let mut w = [0u64; 4];
        for (r, &row) in self.rows.iter().enumerate() {
            w[r / 4] |= u64::from(row) << (16 * (r % 4));
        }
        for (lo, hi, mask, shift) in [
            (0, 2, 0x00FF_00FF_00FF_00FF, 8),
            (1, 3, 0x00FF_00FF_00FF_00FF, 8),
            (0, 1, 0x0F0F_0F0F_0F0F_0F0F, 4),
            (2, 3, 0x0F0F_0F0F_0F0F_0F0F, 4),
        ] {
            // Columns `shift..` of the rows in `w[lo]` trade places with
            // columns `..shift` of the rows `shift` below, in `w[hi]`.
            let t = (w[lo] >> shift ^ w[hi]) & mask;
            w[hi] ^= t;
            w[lo] ^= t << shift;
        }
        let w = w.map(|word| {
            let word = delta_swap(word, 0x0000_0000_CCCC_CCCC, 30);
            delta_swap(word, 0x0000_AAAA_0000_AAAA, 15)
        });
        Block16 { rows: std::array::from_fn(|r| (w[r / 4] >> (16 * (r % 4))) as u16) }
    }

    /// Restricts the block to its first `n` columns (used to model MV and
    /// narrow-N tasks).
    pub fn keep_cols(&self, n: usize) -> Block16 {
        let mask = if n >= 16 { u16::MAX } else { (1u16 << n) - 1 };
        let mut rows = self.rows;
        for r in rows.iter_mut() {
            *r &= mask;
        }
        Block16 { rows }
    }
}

/// Swaps the bits of `x` selected by `mask` with the bits `shift` places
/// above them (a delta swap; `mask` and `mask << shift` must not overlap).
pub const fn delta_swap(x: u64, mask: u64, shift: u32) -> u64 {
    let t = (x ^ (x >> shift)) & mask;
    x ^ t ^ (t << shift)
}

/// The transpose of a 4x4 tile mask: bit `c * 4 + r` of the result is bit
/// `r * 4 + c` of `mask`, so nibble `c` of the result is column `c` of the
/// tile (bit `r` set when element `(r, c)` is set).
///
/// Two delta swaps: the off-diagonal 2x2 blocks, then the off-diagonal
/// elements inside every 2x2 block.
pub const fn transpose_tile(mask: u16) -> u16 {
    let x = delta_swap(mask as u64, 0x00CC, 6);
    delta_swap(x, 0x0A0A, 3) as u16
}

/// The transpose of a 4x4 matrix of nibbles packed as 16-bit rows: the
/// nibble at bits `16 * r + 4 * c` moves to bits `16 * c + 4 * r`.
pub const fn transpose_nibbles(x: u64) -> u64 {
    let x = delta_swap(x, 0x0000_0000_FF00_FF00, 24);
    delta_swap(x, 0x0000_F0F0_0000_F0F0, 12)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse::{BbcMatrix, CooMatrix, CsrMatrix};

    #[test]
    fn dense_block_counts() {
        let d = Block16::dense();
        assert_eq!(d.nnz(), 256);
        assert!(!d.is_empty());
        assert_eq!(d.tile_bitmap(), u16::MAX);
        assert_eq!(d.tile(2, 3), u16::MAX);
    }

    #[test]
    fn empty_block_counts() {
        let e = Block16::empty();
        assert_eq!(e.nnz(), 0);
        assert!(e.is_empty());
        assert_eq!(e.tile_bitmap(), 0);
    }

    #[test]
    fn row_and_col_masks_agree_with_get() {
        let b = Block16::from_fn(|r, c| (r * 31 + c * 7) % 5 == 0);
        for r in 0..16 {
            for c in 0..16 {
                let bit = b.get(r, c);
                assert_eq!(b.row_mask(r) >> c & 1 == 1, bit);
                assert_eq!(b.col_mask(c) >> r & 1 == 1, bit);
            }
        }
    }

    #[test]
    fn transpose_matches_col_masks_on_seeded_blocks() {
        let mut rng = sparse::rng::Rng64::new(0xB17_7A05);
        for density in [0.0, 0.05, 0.3, 0.5, 0.9, 1.0] {
            for _ in 0..32 {
                let b = Block16::from_fn(|_, _| rng.next_bool(density));
                let t = b.transpose();
                for c in 0..16 {
                    assert_eq!(t.row_mask(c), b.col_mask(c), "{b:?} column {c}");
                }
            }
        }
    }

    #[test]
    fn transpose_swaps_masks() {
        let b = Block16::from_fn(|r, c| c == 2 * r % 16);
        let t = b.transpose();
        for i in 0..16 {
            assert_eq!(b.row_mask(i), t.col_mask(i));
        }
        assert_eq!(t.transpose(), b);
    }

    #[test]
    fn tile_extraction_matches_elements() {
        let b = Block16::from_fn(|r, c| r == 5 && c == 9);
        // (5, 9) -> tile (1, 2), tile-local (1, 1) -> bit 5
        assert_eq!(b.tile(1, 2), 1 << 5);
        assert_eq!(b.tile_bitmap(), 1 << (4 + 2));
    }

    #[test]
    fn vector_mask_block_has_one_column() {
        let b = Block16::from_vector_mask(0b1010);
        assert_eq!(b.nnz(), 2);
        assert!(b.get(1, 0));
        assert!(b.get(3, 0));
        assert_eq!(b.col_mask(0), 0b1010);
        assert_eq!(b.col_mask(1), 0);
    }

    #[test]
    fn products_diag_times_dense() {
        let diag = Block16::from_fn(|r, c| r == c);
        let dense = Block16::dense();
        // Each k: 1 x 16 = 16 products, 16 k's.
        assert_eq!(diag.products_with(&dense), 256);
        assert_eq!(dense.products_with(&diag), 256);
        assert_eq!(dense.products_with(&dense), 4096);
    }

    #[test]
    fn mul_structure_matches_reference() {
        let a = Block16::from_fn(|r, c| (r + c) % 3 == 0);
        let b = Block16::from_fn(|r, c| (r * c) % 7 == 1);
        let s = a.mul_structure(&b);
        for r in 0..16 {
            for c in 0..16 {
                let expect = (0..16).any(|k| a.get(r, k) && b.get(k, c));
                assert_eq!(s.get(r, c), expect, "({r},{c})");
            }
        }
    }

    #[test]
    fn products_counts_match_structure_flops() {
        let a = Block16::from_fn(|r, c| (r ^ c) & 3 == 0);
        let b = Block16::from_fn(|r, c| (r + 2 * c) % 5 == 0);
        let mut expect = 0u64;
        for r in 0..16 {
            for c in 0..16 {
                for k in 0..16 {
                    if a.get(r, k) && b.get(k, c) {
                        expect += 1;
                    }
                }
            }
        }
        assert_eq!(a.products_with(&b), expect);
    }

    #[test]
    fn tiles_match_elements() {
        let b = Block16::from_fn(|r, c| (r * 31 + c * 7) % 5 < 2);
        let tiles = b.tiles();
        for (t, &tile) in tiles.iter().enumerate() {
            let (tr, tc) = (t / 4, t % 4);
            assert_eq!(b.tile(tr, tc), tile);
            for er in 0..4 {
                for ec in 0..4 {
                    let bit = tile >> (er * 4 + ec) & 1 == 1;
                    assert_eq!(bit, b.get(tr * 4 + er, tc * 4 + ec), "tile {t} ({er},{ec})");
                }
            }
            assert_eq!(b.tile_bitmap() >> t & 1 == 1, tile != 0);
        }
    }

    #[test]
    fn tile_helpers_roundtrip() {
        let mask: u16 = 0b0110_1001_0011_1100;
        let t = transpose_tile(mask);
        let words = 0x0123_4567_89AB_CDEFu64;
        let nt = transpose_nibbles(words);
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(t >> (c * 4 + r) & 1, mask >> (r * 4 + c) & 1);
                assert_eq!(nt >> (16 * c + 4 * r) & 0xF, words >> (16 * r + 4 * c) & 0xF);
            }
        }
        assert_eq!(transpose_tile(t), mask);
        assert_eq!(transpose_nibbles(nt), words);
    }

    #[test]
    fn from_bbc_matches_matrix() {
        let mut coo = CooMatrix::new(16, 16);
        coo.push(0, 0, 1.0);
        coo.push(7, 14, 2.0);
        coo.push(15, 15, 3.0);
        let bbc = BbcMatrix::from_csr(&CsrMatrix::try_from(coo).unwrap());
        let blk = bbc.block(0);
        let bm = Block16::from_bbc(&blk);
        assert_eq!(bm.nnz(), 3);
        assert!(bm.get(0, 0));
        assert!(bm.get(7, 14));
        assert!(bm.get(15, 15));
    }

    #[test]
    fn keep_cols_restricts() {
        let d = Block16::dense();
        let narrow = d.keep_cols(4);
        assert_eq!(narrow.nnz(), 64);
        assert_eq!(narrow.row_mask(0), 0xF);
        assert_eq!(d.keep_cols(16), d);
    }
}
