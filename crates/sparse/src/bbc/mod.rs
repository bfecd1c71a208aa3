//! BBC (Bitmap-Bitmap-CSR): the unified sparse format of the paper
//! (Section IV-D, Fig. 13).
//!
//! The format is hierarchical:
//!
//! * **Outer layer** — CSR over structurally nonzero 16x16 *blocks*
//!   (`RowPtr` / `ColIdx`). A block is the operand of one T1 task.
//! * **Inner layer** — a two-level bitmap per block: `BitMap_Lv1` (16 bits)
//!   marks which of the block's sixteen 4x4 *tiles* hold nonzeros, and one
//!   `BitMap_Lv2` word (16 bits) per stored tile marks the nonzero elements
//!   inside it.
//! * **Value pointers** — `ValPtr_Lv1` gives each block's base offset into
//!   the flat `Value` array; `ValPtr_Lv2` gives each stored tile's offset
//!   from that base. The paper offloads this indexing to a one-time software
//!   encoding so the hardware needs no decoder.
//!
//! Values are stored tile-by-tile (tiles in row-major order over the 4x4
//! tile grid) and row-major within each tile.

mod build;
mod io;
pub mod profile;
mod validate;

use crate::kernels::{BitKernels, BitwiseKernels};
use crate::{CsrMatrix, StorageSize, INDEX_BYTES, VALUE_BYTES};

pub use io::read_bbc;
pub use profile::BlockDensityProfile;
pub use validate::BbcField;

/// Edge length of a BBC block (= the T1 task dimension, 16).
pub const BLOCK_DIM: usize = 16;

/// Edge length of a BBC tile (= the T3 task dimension, 4).
pub const TILE_DIM: usize = 4;

/// Number of tiles in one block (`(BLOCK_DIM / TILE_DIM)^2`).
pub const TILES_PER_BLOCK: usize = 16;

/// A sparse matrix in the paper's BBC format.
///
/// # Example
///
/// ```
/// use sparse::{BbcMatrix, CooMatrix, CsrMatrix};
///
/// # fn main() -> Result<(), sparse::FormatError> {
/// let mut coo = CooMatrix::new(32, 32);
/// coo.push(0, 0, 1.0);
/// coo.push(17, 30, 2.0);
/// let csr = CsrMatrix::try_from(coo)?;
/// let bbc = BbcMatrix::from_csr(&csr);
/// assert_eq!(bbc.block_count(), 2);
/// assert_eq!(bbc.to_csr(), csr);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BbcMatrix {
    pub(crate) nrows: usize,
    pub(crate) ncols: usize,
    /// Number of block rows (`ceil(nrows / 16)`).
    pub(crate) block_rows: usize,
    /// Number of block columns (`ceil(ncols / 16)`).
    pub(crate) block_cols: usize,
    /// Outer CSR row pointer over blocks (`block_rows + 1` entries).
    pub(crate) row_ptr: Vec<usize>,
    /// Block-column index per stored block.
    pub(crate) col_idx: Vec<u32>,
    /// Level-1 bitmap per stored block: bit `tr * 4 + tc` marks tile
    /// `(tr, tc)` as structurally nonzero.
    pub(crate) bitmap_lv1: Vec<u16>,
    /// Start of each block's tile records in `bitmap_lv2` / `valptr_lv2`
    /// (`block_count + 1` entries; derived metadata, equal to the running
    /// popcount of `bitmap_lv1`).
    pub(crate) tile_ptr: Vec<usize>,
    /// Level-2 bitmap per stored tile: bit `er * 4 + ec` marks element
    /// `(er, ec)` of the tile as nonzero.
    pub(crate) bitmap_lv2: Vec<u16>,
    /// Base offset of each stored block in `values`.
    pub(crate) valptr_lv1: Vec<u32>,
    /// Offset of each stored tile's first value from its block base.
    pub(crate) valptr_lv2: Vec<u16>,
    /// All nonzero values, block-by-block, tile-by-tile, row-major in tile.
    pub(crate) values: Vec<f64>,
}

/// A borrowed view of one stored BBC block — the operand of one T1 task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BbcBlock<'a> {
    /// Block-row coordinate in the block grid.
    pub block_row: usize,
    /// Block-column coordinate in the block grid.
    pub block_col: usize,
    /// Level-1 bitmap (nonzero 4x4 tiles).
    pub bitmap_lv1: u16,
    /// Level-2 bitmaps, one per stored tile, in tile-index order.
    pub bitmap_lv2: &'a [u16],
    /// Per-tile value offsets from the block base.
    pub valptr_lv2: &'a [u16],
    /// The block's values.
    pub values: &'a [f64],
}

impl BbcMatrix {
    /// Number of rows of the logical matrix.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns of the logical matrix.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of block rows in the 16x16 block grid.
    pub fn block_rows(&self) -> usize {
        self.block_rows
    }

    /// Number of block columns in the 16x16 block grid.
    pub fn block_cols(&self) -> usize {
        self.block_cols
    }

    /// Number of stored (structurally nonzero) 16x16 blocks.
    pub fn block_count(&self) -> usize {
        self.col_idx.len()
    }

    /// Number of stored (structurally nonzero) 4x4 tiles.
    pub fn tile_count(&self) -> usize {
        self.bitmap_lv2.len()
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Mean number of nonzeros per stored block ("NnzPB" over 16x16 blocks).
    pub fn nnz_per_block(&self) -> f64 {
        if self.block_count() == 0 {
            0.0
        } else {
            self.nnz() as f64 / self.block_count() as f64
        }
    }

    /// Mean number of nonzeros per stored 4x4 tile (the NnzPB granularity
    /// used on the x-axis of the paper's Fig. 15).
    pub fn nnz_per_tile(&self) -> f64 {
        if self.tile_count() == 0 {
            0.0
        } else {
            self.nnz() as f64 / self.tile_count() as f64
        }
    }

    /// The outer CSR row pointer over blocks.
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// The block-column index array.
    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    /// The range of stored-block indices belonging to `block_row`.
    ///
    /// # Panics
    ///
    /// Panics if `block_row >= self.block_rows()`.
    pub fn blocks_in_row(&self, block_row: usize) -> std::ops::Range<usize> {
        self.row_ptr[block_row]..self.row_ptr[block_row + 1]
    }

    /// A view of the `i`-th stored block.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.block_count()`.
    pub fn block(&self, i: usize) -> BbcBlock<'_> {
        let block_row = match self.row_ptr.binary_search(&i) {
            // `i` may coincide with the start of several empty rows; pick the
            // last row whose range actually contains `i`.
            Ok(mut r) => {
                while r + 1 < self.row_ptr.len() && self.row_ptr[r + 1] == i {
                    r += 1;
                }
                r
            }
            Err(r) => r - 1,
        };
        let tiles = self.tile_ptr[i]..self.tile_ptr[i + 1];
        let vlo = self.valptr_lv1[i] as usize;
        let vhi = if i + 1 < self.valptr_lv1.len() {
            self.valptr_lv1[i + 1] as usize
        } else {
            self.values.len()
        };
        BbcBlock {
            block_row,
            block_col: self.col_idx[i] as usize,
            bitmap_lv1: self.bitmap_lv1[i],
            bitmap_lv2: &self.bitmap_lv2[tiles.clone()],
            valptr_lv2: &self.valptr_lv2[tiles],
            values: &self.values[vlo..vhi],
        }
    }

    /// Finds the stored-block index at grid position `(block_row,
    /// block_col)`, or `None` if that block is structurally zero.
    ///
    /// # Panics
    ///
    /// Panics if `block_row >= self.block_rows()`.
    pub fn find_block(&self, block_row: usize, block_col: usize) -> Option<usize> {
        let range = self.blocks_in_row(block_row);
        let cols = &self.col_idx[range.clone()];
        cols.binary_search(&(block_col as u32)).ok().map(|p| range.start + p)
    }

    /// Iterates over all stored blocks.
    pub fn blocks(&self) -> impl Iterator<Item = BbcBlock<'_>> + '_ {
        (0..self.block_count()).map(|i| self.block(i))
    }

    /// Bitwise equality over every array, derived metadata included, with
    /// values compared by IEEE-754 bit pattern (`0.0` and `-0.0` differ,
    /// a NaN equals itself), unlike the derived float `PartialEq`.
    pub fn bit_eq(&self, other: &Self) -> bool {
        self.nrows == other.nrows
            && self.ncols == other.ncols
            && self.block_rows == other.block_rows
            && self.block_cols == other.block_cols
            && self.row_ptr == other.row_ptr
            && self.col_idx == other.col_idx
            && self.bitmap_lv1 == other.bitmap_lv1
            && self.tile_ptr == other.tile_ptr
            && self.bitmap_lv2 == other.bitmap_lv2
            && self.valptr_lv1 == other.valptr_lv1
            && self.valptr_lv2 == other.valptr_lv2
            && crate::bits_eq(&self.values, &other.values)
    }

    /// Converts back to CSR form.
    pub fn to_csr(&self) -> CsrMatrix {
        let mut coo = crate::CooMatrix::with_capacity(self.nrows, self.ncols, self.nnz());
        for b in self.blocks() {
            for (r, c, v) in b.iter() {
                coo.push(r, c, v);
            }
        }
        CsrMatrix::try_from(coo).expect("BBC coordinates are always in range")
    }

    /// The stored value at `(row, col)`, or `None` when structurally zero.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates lie outside the matrix.
    pub fn get(&self, row: usize, col: usize) -> Option<f64> {
        assert!(row < self.nrows && col < self.ncols, "index out of bounds");
        let i = self.find_block(row / BLOCK_DIM, col / BLOCK_DIM)?;
        self.block(i).get(row % BLOCK_DIM, col % BLOCK_DIM)
    }
}

impl BbcBlock<'_> {
    /// Number of nonzeros stored in this block.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Number of stored tiles in this block.
    pub fn tile_count(&self) -> usize {
        self.bitmap_lv1.count_ones() as usize
    }

    /// The level-2 bitmap of tile `(tile_row, tile_col)`, or 0 when the
    /// tile is structurally empty.
    ///
    /// # Panics
    ///
    /// Panics if `tile_row` or `tile_col` is `>= 4`.
    pub fn tile_mask(&self, tile_row: usize, tile_col: usize) -> u16 {
        assert!(tile_row < TILE_DIM && tile_col < TILE_DIM, "tile index out of bounds");
        let bit = tile_row * TILE_DIM + tile_col;
        if self.bitmap_lv1 >> bit & 1 == 0 {
            return 0;
        }
        let rank = (self.bitmap_lv1 & ((1u16 << bit) - 1)).count_ones() as usize;
        self.bitmap_lv2[rank]
    }

    /// Expands the two-level bitmap into sixteen per-row 16-bit masks
    /// (bit `c` of `rows[r]` set means element `(r, c)` is nonzero).
    ///
    /// Decoding runs through [`BitwiseKernels::decode_block`]: it packs
    /// the rows as 4×u64 and spreads each tile with one shift-or cascade
    /// (the scalar reference replays the original per-tile nibble-spread
    /// loop).
    pub fn element_rows(&self) -> [u16; BLOCK_DIM] {
        BitwiseKernels.decode_block(self.bitmap_lv1, self.bitmap_lv2)
    }

    /// The stored value at block-local coordinates `(lr, lc)`, or `None`
    /// when structurally zero.
    ///
    /// # Panics
    ///
    /// Panics if `lr` or `lc` is `>= 16`.
    pub fn get(&self, lr: usize, lc: usize) -> Option<f64> {
        assert!(lr < BLOCK_DIM && lc < BLOCK_DIM, "block-local index out of bounds");
        let (tr, tc) = (lr / TILE_DIM, lc / TILE_DIM);
        let bit = tr * TILE_DIM + tc;
        if self.bitmap_lv1 >> bit & 1 == 0 {
            return None;
        }
        let rank = (self.bitmap_lv1 & ((1u16 << bit) - 1)).count_ones() as usize;
        let mask = self.bitmap_lv2[rank];
        let ebit = (lr % TILE_DIM) * TILE_DIM + (lc % TILE_DIM);
        if mask >> ebit & 1 == 0 {
            return None;
        }
        let erank = (mask & ((1u16 << ebit) - 1)).count_ones() as usize;
        Some(self.values[self.valptr_lv2[rank] as usize + erank])
    }

    /// The packed values of tile `(tile_row, tile_col)` in row-major
    /// element order (empty when the tile is structurally zero).
    ///
    /// This is the access the hardware performs through `ValPtr_Lv2`.
    ///
    /// # Panics
    ///
    /// Panics if `tile_row` or `tile_col` is `>= 4`.
    pub fn tile_values(&self, tile_row: usize, tile_col: usize) -> &[f64] {
        assert!(tile_row < TILE_DIM && tile_col < TILE_DIM, "tile index out of bounds");
        let bit = tile_row * TILE_DIM + tile_col;
        if self.bitmap_lv1 >> bit & 1 == 0 {
            return &[];
        }
        let rank = (self.bitmap_lv1 & ((1u16 << bit) - 1)).count_ones() as usize;
        let start = self.valptr_lv2[rank] as usize;
        let len = self.bitmap_lv2[rank].count_ones() as usize;
        &self.values[start..start + len]
    }

    /// Expands tile `(tile_row, tile_col)` into a dense 4x4 row-major
    /// value array (zeros where structurally empty) — the DPG's conversion
    /// of a submatrix "into four row or column vectors" (Section IV-D).
    ///
    /// # Panics
    ///
    /// Panics if `tile_row` or `tile_col` is `>= 4`.
    pub fn dense_tile(&self, tile_row: usize, tile_col: usize) -> [f64; 16] {
        let mut out = [0.0; 16];
        let mask = self.tile_mask(tile_row, tile_col);
        if mask == 0 {
            return out;
        }
        let vals = self.tile_values(tile_row, tile_col);
        let mut vi = 0usize;
        for (e, slot) in out.iter_mut().enumerate() {
            if mask >> e & 1 == 1 {
                *slot = vals[vi];
                vi += 1;
            }
        }
        out
    }

    /// Iterates over the block's `(global_row, global_col, value)` entries.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        let base_r = self.block_row * BLOCK_DIM;
        let base_c = self.block_col * BLOCK_DIM;
        let lv1 = self.bitmap_lv1;
        (0..TILES_PER_BLOCK)
            .filter(move |&bit| lv1 >> bit & 1 == 1)
            .enumerate()
            .flat_map(move |(rank, bit)| {
                let (tr, tc) = (bit / TILE_DIM, bit % TILE_DIM);
                let mask = self.bitmap_lv2[rank];
                let vbase = self.valptr_lv2[rank] as usize;
                (0..16u16).filter(move |&e| mask >> e & 1 == 1).enumerate().map(
                    move |(erank, e)| {
                        let (er, ec) = (e as usize / TILE_DIM, e as usize % TILE_DIM);
                        (
                            base_r + tr * TILE_DIM + er,
                            base_c + tc * TILE_DIM + ec,
                            self.values[vbase + erank],
                        )
                    },
                )
            })
    }
}

impl StorageSize for BbcMatrix {
    fn metadata_bytes(&self) -> usize {
        // RowPtr + ColIdx (outer CSR), per block: BitMap_Lv1 (2B) +
        // ValPtr_Lv1 (4B), per stored tile: BitMap_Lv2 (2B) + ValPtr_Lv2
        // (2B). `tile_ptr` is derived (running popcount) and not stored.
        INDEX_BYTES * (self.block_rows + 1)
            + INDEX_BYTES * self.block_count()
            + 2 * self.block_count()
            + 4 * self.block_count()
            + 2 * self.tile_count()
            + 2 * self.tile_count()
    }

    fn value_bytes(&self) -> usize {
        VALUE_BYTES * self.nnz()
    }
}

impl From<&CsrMatrix> for BbcMatrix {
    fn from(csr: &CsrMatrix) -> Self {
        BbcMatrix::from_csr(csr)
    }
}

#[cfg(test)]
mod tests;
