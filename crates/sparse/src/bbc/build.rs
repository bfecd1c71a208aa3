//! One-time software encoding of a matrix into BBC form.
//!
//! The paper stresses that BBC indexing is "offloaded to a one-time software
//! encoding" whose cost is amortised across kernel invocations (Section
//! IV-D / VI-B). This module is that encoder. It has two strategies, and
//! [`BbcMatrix::from_csr`] picks one by the matrix's width alone:
//!
//! * **packed** (the default) — each touched block accumulates a 256-bit
//!   occupancy mask (4×u64, bit `tile * 16 + elem`) plus a
//!   direct-indexed value scratch; metadata falls out of
//!   [`BitwiseKernels::encode_block`] (SWAR lane extraction +
//!   `count_ones` prefix sums) and values are emitted by ascending
//!   set-bit iteration — no sorting, no binary-search inserts.
//! * **per-entry** ([`BbcMatrix::from_csr_per_entry`]) — the original
//!   path: bucket entries into per-block vectors, sort by (tile, elem),
//!   emit. It runs above `PACKED_BLOCK_COL_LIMIT` (8192) block
//!   columns, where the packed scratch would be too large, and is the
//!   reference the packed path is tested against.
//!
//! Both paths produce identical `BbcMatrix` contents (ascending bit
//! order *is* the (tile, elem) sort order); the tests below and the
//! conformance backend-equivalence sweep assert this with `PartialEq`.

use super::{BbcMatrix, BLOCK_DIM, TILE_DIM, TILES_PER_BLOCK};
use crate::kernels::{BitKernels, BitwiseKernels};
use crate::CsrMatrix;

/// The packed encoder keeps ~2 KiB of scratch per block column; above
/// this many block columns (≈16 MiB) it falls back to the per-entry
/// path, whose scratch is proportional to the block row's nonzeros instead.
const PACKED_BLOCK_COL_LIMIT: usize = 1 << 13;

/// Bits in a block occupancy mask (16 tiles × 16 elements).
const BLOCK_BITS: usize = TILES_PER_BLOCK * TILES_PER_BLOCK;

impl BbcMatrix {
    /// Encodes a CSR matrix into BBC form: the packed encoder, or the
    /// per-entry one for matrices wider than 8192 block columns
    /// (131 072 columns). Both produce identical output.
    pub fn from_csr(csr: &CsrMatrix) -> Self {
        if csr.ncols().div_ceil(BLOCK_DIM) > PACKED_BLOCK_COL_LIMIT {
            Self::from_csr_per_entry(csr)
        } else {
            Self::from_csr_packed(csr)
        }
    }

    /// The original per-entry encoder: a single pass per block row;
    /// entries are bucketed into 16x16 blocks, each block's two-level
    /// bitmap is derived, and values are re-ordered tile-by-tile.
    /// Output equals [`BbcMatrix::from_csr`], which calls this for wide
    /// matrices; it is public as the reference the packed encoder is
    /// checked against.
    pub fn from_csr_per_entry(csr: &CsrMatrix) -> Self {
        let nrows = csr.nrows();
        let ncols = csr.ncols();
        let block_rows = nrows.div_ceil(BLOCK_DIM).max(1);
        let block_cols = ncols.div_ceil(BLOCK_DIM).max(1);

        let mut row_ptr = vec![0usize; block_rows + 1];
        let mut col_idx: Vec<u32> = Vec::new();
        let mut bitmap_lv1: Vec<u16> = Vec::new();
        let mut tile_ptr: Vec<usize> = vec![0];
        let mut bitmap_lv2: Vec<u16> = Vec::new();
        let mut valptr_lv1: Vec<u32> = Vec::new();
        let mut valptr_lv2: Vec<u16> = Vec::new();
        let mut values: Vec<f64> = Vec::with_capacity(csr.nnz());

        // Scratch: per block in this block-row, the block column plus its
        // entries keyed by (tile_bit, elem_bit) for ordering.
        type BlockEntries = (u32, Vec<(u8, u8, f64)>);
        let mut scratch: Vec<BlockEntries> = Vec::new();

        for br in 0..block_rows {
            scratch.clear();
            let r_lo = br * BLOCK_DIM;
            let r_hi = ((br + 1) * BLOCK_DIM).min(nrows);
            for r in r_lo..r_hi {
                let (cols, vals) = csr.row(r);
                for (&c, &v) in cols.iter().zip(vals) {
                    let bc = c / BLOCK_DIM as u32;
                    let pos = match scratch.binary_search_by_key(&bc, |e| e.0) {
                        Ok(p) => p,
                        Err(p) => {
                            scratch.insert(p, (bc, Vec::new()));
                            p
                        }
                    };
                    let lr = r - r_lo;
                    let lc = c as usize - bc as usize * BLOCK_DIM;
                    let tile_bit = (lr / TILE_DIM) * TILE_DIM + lc / TILE_DIM;
                    let elem_bit = (lr % TILE_DIM) * TILE_DIM + lc % TILE_DIM;
                    scratch[pos].1.push((tile_bit as u8, elem_bit as u8, v));
                }
            }
            for (bc, entries) in scratch.iter_mut() {
                let mut entries = std::mem::take(entries);
                entries.sort_unstable_by_key(|&(t, e, _)| (t, e));
                col_idx.push(*bc);
                valptr_lv1.push(values.len() as u32);
                let mut lv1 = 0u16;
                let block_base = values.len();
                let mut cur_tile: Option<u8> = None;
                for (t, e, v) in entries {
                    debug_assert!(e < 16);
                    if cur_tile != Some(t) {
                        cur_tile = Some(t);
                        lv1 |= 1 << t;
                        bitmap_lv2.push(0);
                        valptr_lv2.push((values.len() - block_base) as u16);
                    }
                    *bitmap_lv2.last_mut().expect("tile record pushed above") |= 1 << e;
                    values.push(v);
                }
                bitmap_lv1.push(lv1);
                tile_ptr.push(bitmap_lv2.len());
            }
            row_ptr[br + 1] = col_idx.len();
        }

        BbcMatrix {
            nrows,
            ncols,
            block_rows,
            block_cols,
            row_ptr,
            col_idx,
            bitmap_lv1,
            tile_ptr,
            bitmap_lv2,
            valptr_lv1,
            valptr_lv2,
            values,
        }
    }

    /// The packed encoder: per block row, entries set bits in a 256-bit
    /// occupancy mask (one per touched block column) and drop their
    /// value into a direct-indexed slot; emission walks the touched
    /// columns in ascending order (a word bitset), derives metadata via
    /// `encode_block`, and streams values out by ascending set bit.
    fn from_csr_packed(csr: &CsrMatrix) -> Self {
        let nrows = csr.nrows();
        let ncols = csr.ncols();
        let block_rows = nrows.div_ceil(BLOCK_DIM).max(1);
        let block_cols = ncols.div_ceil(BLOCK_DIM).max(1);

        let mut row_ptr = vec![0usize; block_rows + 1];
        let mut col_idx: Vec<u32> = Vec::new();
        let mut bitmap_lv1: Vec<u16> = Vec::new();
        let mut tile_ptr: Vec<usize> = vec![0];
        let mut bitmap_lv2: Vec<u16> = Vec::new();
        let mut valptr_lv1: Vec<u32> = Vec::new();
        let mut valptr_lv2: Vec<u16> = Vec::new();
        let mut values: Vec<f64> = Vec::with_capacity(csr.nnz());

        // Per-block-column scratch, reused across block rows. Value
        // slots are only read where the (freshly cleared) mask has a
        // bit set, so they never need zeroing.
        let mut masks: Vec<[u64; 4]> = vec![[0u64; 4]; block_cols];
        let mut slot_vals: Vec<f64> = vec![0.0; block_cols * BLOCK_BITS];
        let mut touched = vec![0u64; block_cols.div_ceil(64)];
        let mut touched_cols: Vec<u32> = Vec::new();
        let mut block_bits: Vec<u32> = Vec::with_capacity(BLOCK_BITS);

        for br in 0..block_rows {
            let r_lo = br * BLOCK_DIM;
            let r_hi = ((br + 1) * BLOCK_DIM).min(nrows);
            for r in r_lo..r_hi {
                let (cols, vals) = csr.row(r);
                for (&c, &v) in cols.iter().zip(vals) {
                    let bc = (c / BLOCK_DIM as u32) as usize;
                    let lr = r - r_lo;
                    let lc = c as usize - bc * BLOCK_DIM;
                    let tile_bit = (lr / TILE_DIM) * TILE_DIM + lc / TILE_DIM;
                    let elem_bit = (lr % TILE_DIM) * TILE_DIM + lc % TILE_DIM;
                    let bit = tile_bit * TILES_PER_BLOCK + elem_bit;
                    masks[bc][bit / 64] |= 1u64 << (bit % 64);
                    slot_vals[bc * BLOCK_BITS + bit] = v;
                    touched[bc / 64] |= 1u64 << (bc % 64);
                }
            }

            touched_cols.clear();
            BitwiseKernels.collect_set_bits(&touched, block_cols, &mut touched_cols);
            for &bc in &touched_cols {
                let bc = bc as usize;
                let meta = BitwiseKernels.encode_block(&masks[bc]);
                col_idx.push(bc as u32);
                valptr_lv1.push(values.len() as u32);
                bitmap_lv1.push(meta.lv1);
                bitmap_lv2.extend_from_slice(&meta.lv2[..meta.tiles]);
                valptr_lv2.extend_from_slice(&meta.valptr[..meta.tiles]);
                tile_ptr.push(bitmap_lv2.len());

                // Ascending (tile*16 + elem) bit order == the (tile,
                // elem) sort order of the per-entry path.
                block_bits.clear();
                BitwiseKernels.collect_set_bits(&masks[bc], BLOCK_BITS, &mut block_bits);
                let base = bc * BLOCK_BITS;
                values.extend(block_bits.iter().map(|&b| slot_vals[base + b as usize]));

                masks[bc] = [0u64; 4];
            }
            for w in touched.iter_mut() {
                *w = 0;
            }
            row_ptr[br + 1] = col_idx.len();
        }

        BbcMatrix {
            nrows,
            ncols,
            block_rows,
            block_cols,
            row_ptr,
            col_idx,
            bitmap_lv1,
            tile_ptr,
            bitmap_lv2,
            valptr_lv1,
            valptr_lv2,
            values,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;

    fn sample(seed: u64) -> CsrMatrix {
        let mut rng = crate::rng::Rng64::new(seed);
        let mut coo = CooMatrix::new(70, 53);
        for _ in 0..400 {
            let r = (rng.next_u64() % 70) as usize;
            let c = (rng.next_u64() % 53) as usize;
            coo.push(r, c, (rng.next_u64() % 1000) as f64 - 500.0);
        }
        CsrMatrix::try_from(coo).expect("valid sample")
    }

    #[test]
    fn packed_encoder_matches_scalar_encoder() {
        for seed in 0..6 {
            let csr = sample(seed);
            let per_entry = BbcMatrix::from_csr_per_entry(&csr);
            assert_eq!(per_entry, BbcMatrix::from_csr_packed(&csr), "seed {seed}");
            assert_eq!(per_entry, BbcMatrix::from_csr(&csr), "seed {seed}");
        }
    }

    #[test]
    fn packed_encoder_matches_on_degenerate_shapes() {
        for csr in [
            CsrMatrix::identity(0),
            CsrMatrix::identity(1),
            CsrMatrix::identity(16),
            CsrMatrix::identity(17),
        ] {
            assert_eq!(
                BbcMatrix::from_csr_per_entry(&csr),
                BbcMatrix::from_csr_packed(&csr),
            );
        }
    }

    #[test]
    fn wide_matrix_falls_back_to_the_per_entry_encoder() {
        // Two block columns past the packed limit, a few rows, nonzeros
        // scattered across the whole width (both ends included).
        let ncols = BLOCK_DIM * PACKED_BLOCK_COL_LIMIT + 17;
        assert!(ncols.div_ceil(BLOCK_DIM) > PACKED_BLOCK_COL_LIMIT);
        let mut rng = crate::rng::Rng64::new(0x51DE);
        let mut coo = CooMatrix::new(5, ncols);
        coo.push(0, 0, 1.0);
        coo.push(4, ncols - 1, -2.0);
        for i in 0..300 {
            let r = (rng.next_u64() % 5) as usize;
            let c = (rng.next_u64() % ncols as u64) as usize;
            coo.push(r, c, i as f64 * 0.5 - 70.0);
        }
        let csr = CsrMatrix::try_from(coo).expect("valid wide matrix");
        let wide = BbcMatrix::from_csr(&csr);
        assert_eq!(wide, BbcMatrix::from_csr_packed(&csr));
        assert_eq!(wide.nnz(), csr.nnz());
    }
}
