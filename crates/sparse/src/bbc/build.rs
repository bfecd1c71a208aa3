//! One-time software encoding of a matrix into BBC form.
//!
//! The paper stresses that BBC indexing is "offloaded to a one-time software
//! encoding" whose cost is amortised across kernel invocations (Section
//! IV-D / VI-B). This module is that encoder.
//!
//! Two encoding strategies exist, selected by the active kernel backend
//! (see [`crate::kernels`]):
//!
//! * **scalar** — the original per-entry path: bucket entries into
//!   per-block vectors, sort by (tile, elem), emit.
//! * **bitwise** — a packed path: each touched block accumulates
//!   a 256-bit occupancy mask (4×u64, bit `tile * 16 + elem`) plus a
//!   direct-indexed value scratch; metadata falls out of
//!   [`crate::kernels::BitKernels::encode_block`] (SWAR lane extraction +
//!   `count_ones` prefix sums) and values are emitted by ascending
//!   set-bit iteration — no sorting, no binary-search inserts.
//!
//! Both paths produce identical `BbcMatrix` contents (ascending bit
//! order *is* the (tile, elem) sort order); the conformance
//! backend-equivalence sweep asserts this with `PartialEq`.

use super::{BbcMatrix, BLOCK_DIM, TILE_DIM, TILES_PER_BLOCK};
use crate::kernels::{self, BackendKind, BitKernels};
use crate::CsrMatrix;

/// The packed encoder keeps ~2 KiB of scratch per block column; above
/// this many block columns (≈16 MiB) it falls back to the scalar path,
/// whose scratch is proportional to the block row's nonzeros instead.
const PACKED_BLOCK_COL_LIMIT: usize = 1 << 13;

/// Bits in a block occupancy mask (16 tiles × 16 elements).
const BLOCK_BITS: usize = TILES_PER_BLOCK * TILES_PER_BLOCK;

impl BbcMatrix {
    /// Encodes a CSR matrix into BBC form using the active kernel
    /// backend (see [`crate::kernels::active_kind`]).
    pub fn from_csr(csr: &CsrMatrix) -> Self {
        Self::from_csr_with(csr, kernels::active_kind())
    }

    /// Encodes a CSR matrix into BBC form with an explicit backend
    /// choice. All backends produce identical output; they differ only
    /// in how the per-block bitmaps and value order are derived.
    pub fn from_csr_with(csr: &CsrMatrix, kind: BackendKind) -> Self {
        let block_cols = csr.ncols().div_ceil(BLOCK_DIM).max(1);
        match kind {
            BackendKind::Scalar => Self::from_csr_scalar(csr),
            _ if block_cols > PACKED_BLOCK_COL_LIMIT => Self::from_csr_scalar(csr),
            kind => Self::from_csr_packed(csr, kernels::backend_for(kind)),
        }
    }

    /// The original per-entry encoder: a single pass per block row;
    /// entries are bucketed into 16x16 blocks, each block's two-level
    /// bitmap is derived, and values are re-ordered tile-by-tile.
    fn from_csr_scalar(csr: &CsrMatrix) -> Self {
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
    fn from_csr_packed(csr: &CsrMatrix, be: &dyn BitKernels) -> Self {
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
            be.collect_set_bits(&touched, block_cols, &mut touched_cols);
            for &bc in &touched_cols {
                let bc = bc as usize;
                let meta = be.encode_block(&masks[bc]);
                col_idx.push(bc as u32);
                valptr_lv1.push(values.len() as u32);
                bitmap_lv1.push(meta.lv1);
                bitmap_lv2.extend_from_slice(&meta.lv2[..meta.tiles]);
                valptr_lv2.extend_from_slice(&meta.valptr[..meta.tiles]);
                tile_ptr.push(bitmap_lv2.len());

                // Ascending (tile*16 + elem) bit order == the (tile,
                // elem) sort order of the scalar path.
                block_bits.clear();
                be.collect_set_bits(&masks[bc], BLOCK_BITS, &mut block_bits);
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
            let scalar = BbcMatrix::from_csr_with(&csr, BackendKind::Scalar);
            let bitwise = BbcMatrix::from_csr_with(&csr, BackendKind::Bitwise);
            assert_eq!(scalar, bitwise, "seed {seed}");
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
                BbcMatrix::from_csr_with(&csr, BackendKind::Scalar),
                BbcMatrix::from_csr_with(&csr, BackendKind::Bitwise),
            );
        }
    }
}
