//! u64 word-at-a-time bit-trick kernels: the implementation production
//! code calls.
//!
//! Structural work runs whole-word: `count_ones` for popcount prefix
//! sums and rank, `trailing_zeros` + `m &= m - 1` for ascending set-bit
//! iteration, and SWAR lane tricks over 16×16 blocks packed as 4×u64
//! (word `w` holds tiles `4w..4w+4` as 16-bit lanes, so a block's
//! 256-bit occupancy mask is exactly four words).
//!
//! Numeric methods keep single-accumulator, left-to-right evaluation —
//! bit tricks select *which* products to form, never reorder the f64
//! additions — so results are bit-identical to the scalar reference.

use super::{BitKernels, BlockMeta};

/// Mask with the low `bits % 64` bits set (all bits for a full word).
#[inline]
fn tail_mask(bits: usize) -> u64 {
    if bits.is_multiple_of(64) {
        u64::MAX
    } else {
        (1u64 << (bits % 64)) - 1
    }
}

/// Every 16th bit set: one unit per 16-bit lane of a packed block word.
const LANE_LSB: u64 = 0x0001_0001_0001_0001;

/// The word-parallel kernels every production call site uses.
#[derive(Debug, Clone, Copy, Default)]
pub struct BitwiseKernels;

impl BitKernels for BitwiseKernels {
    fn rank(&self, words: &[u64], bit: usize) -> usize {
        let bit = bit.min(words.len() * 64);
        let (full, rem) = (bit / 64, bit % 64);
        let mut count: u32 = words[..full].iter().map(|w| w.count_ones()).sum();
        if rem != 0 {
            count += (words[full] & ((1u64 << rem) - 1)).count_ones();
        }
        count as usize
    }

    fn or_into(&self, acc: &mut [u64], src: &[u64]) {
        assert_eq!(acc.len(), src.len(), "or_into operand length mismatch");
        for (a, &s) in acc.iter_mut().zip(src.iter()) {
            *a |= s;
        }
    }

    fn collect_set_bits(&self, words: &[u64], len_bits: usize, out: &mut Vec<u32>) {
        let len_bits = len_bits.min(words.len() * 64);
        let nwords = len_bits.div_ceil(64);
        for (i, &word) in words[..nwords].iter().enumerate() {
            let mut w = if i == nwords - 1 {
                word & tail_mask(len_bits)
            } else {
                word
            };
            let base = (i * 64) as u32;
            while w != 0 {
                out.push(base + w.trailing_zeros());
                w &= w - 1;
            }
        }
    }

    fn decode_block(&self, lv1: u16, lv2: &[u16]) -> [u16; 16] {
        // Pack the 16 element rows as 4×u64: word `tr` holds rows
        // 4tr..4tr+4 as 16-bit lanes. A tile's 16-bit level-2 mask
        // spreads into its word with one shift-or cascade (nibble er
        // lands in lane er at column offset tc*4) — no per-row loop.
        let mut packed = [0u64; 4];
        let mut rest = lv1;
        let mut rank = 0usize;
        while rest != 0 {
            let tile = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            let m = u64::from(lv2[rank]);
            rank += 1;
            let spread = (m & 0xF)
                | ((m & 0xF0) << 12)
                | ((m & 0xF00) << 24)
                | ((m & 0xF000) << 36);
            packed[tile / 4] |= spread << ((tile % 4) * 4);
        }
        let mut rows = [0u16; 16];
        for (r, row) in rows.iter_mut().enumerate() {
            *row = (packed[r / 4] >> ((r % 4) * 16)) as u16;
        }
        rows
    }

    fn encode_block(&self, mask: &[u64; 4]) -> BlockMeta {
        let mut meta = BlockMeta {
            lv1: 0,
            tiles: 0,
            lv2: [0u16; 16],
            valptr: [0u16; 16],
        };
        let mut offset = 0u16;
        for (w, &word) in mask.iter().enumerate() {
            let mut rest = word;
            while rest != 0 {
                // Lowest non-empty lane: its tile index and 16-bit mask.
                let lane = (rest.trailing_zeros() / 16) as usize;
                let tile_mask = (word >> (lane * 16)) as u16;
                rest &= !(0xFFFFu64 << (lane * 16));
                meta.lv1 |= 1 << (w * 4 + lane);
                meta.lv2[meta.tiles] = tile_mask;
                meta.valptr[meta.tiles] = offset;
                meta.tiles += 1;
                offset += tile_mask.count_ones() as u16;
            }
        }
        meta
    }

    fn block_products(&self, a: &[u16; 16], b: &[u16; 16]) -> u64 {
        // Pack a's rows 4-per-word; column k's popcount over 16 rows is
        // then four SWAR popcounts of (word >> k) & LANE_LSB. 64 word
        // ops replace the scalar 16×16 bit probe.
        let mut packed = [0u64; 4];
        for (r, &row) in a.iter().enumerate() {
            packed[r / 4] |= u64::from(row) << ((r % 4) * 16);
        }
        let mut products = 0u64;
        for (k, &brow) in b.iter().enumerate() {
            let mut col = 0u32;
            for &word in &packed {
                col += ((word >> k) & LANE_LSB).count_ones();
            }
            products += u64::from(col) * u64::from(brow.count_ones());
        }
        products
    }

    fn block_mul_structure(&self, a: &[u16; 16], b: &[u16; 16]) -> [u16; 16] {
        let mut rows = [0u16; 16];
        for (r, &arow) in a.iter().enumerate() {
            let mut m = arow;
            while m != 0 {
                rows[r] |= b[m.trailing_zeros() as usize];
                m &= m - 1;
            }
        }
        rows
    }

    fn segment_dot(
        &self,
        pattern: u8,
        a_tile: &[f64; 16],
        b_tile: &[f64; 16],
        m: usize,
        n: usize,
    ) -> (f64, u32) {
        // Ascending set-bit iteration reproduces the scalar kk order,
        // so the f64 sum is bit-identical; only the skip logic changes.
        let mut bits = pattern & 0xF;
        let products = bits.count_ones();
        let mut sum = 0.0;
        while bits != 0 {
            let kk = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            sum += a_tile[m * 4 + kk] * b_tile[kk * 4 + n];
        }
        (sum, products)
    }

    fn dot_gather(&self, cols: &[u32], vals: &[f64], x: &[f64]) -> f64 {
        // Single accumulator, strictly left to right (bit-identical to
        // scalar); the win is hoisting bounds work out of the gather.
        let mut acc = 0.0;
        let n = cols.len().min(vals.len());
        let mut i = 0;
        while i + 4 <= n {
            acc += vals[i] * x[cols[i] as usize];
            acc += vals[i + 1] * x[cols[i + 1] as usize];
            acc += vals[i + 2] * x[cols[i + 2] as usize];
            acc += vals[i + 3] * x[cols[i + 3] as usize];
            i += 4;
        }
        while i < n {
            acc += vals[i] * x[cols[i] as usize];
            i += 1;
        }
        acc
    }

    fn axpy(&self, acc: &mut [f64], scale: f64, b: &[f64]) {
        // Per-element updates are independent, so chunked evaluation
        // cannot change any individual result.
        let n = acc.len().min(b.len());
        let (ah, at) = acc[..n].split_at_mut(n - n % 4);
        let (bh, bt) = b[..n].split_at(n - n % 4);
        for (ac, bc) in ah.chunks_exact_mut(4).zip(bh.chunks_exact(4)) {
            ac[0] += scale * bc[0];
            ac[1] += scale * bc[1];
            ac[2] += scale * bc[2];
            ac[3] += scale * bc[3];
        }
        for (aj, &bj) in at.iter_mut().zip(bt.iter()) {
            *aj += scale * bj;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_mask_edges() {
        assert_eq!(tail_mask(0), u64::MAX);
        assert_eq!(tail_mask(1), 1);
        assert_eq!(tail_mask(63), u64::MAX >> 1);
        assert_eq!(tail_mask(64), u64::MAX);
        assert_eq!(tail_mask(65), 1);
    }

    #[test]
    fn rank_counts_strictly_below() {
        let words = [0b1011u64, u64::MAX];
        let k = BitwiseKernels;
        assert_eq!(k.rank(&words, 0), 0);
        assert_eq!(k.rank(&words, 1), 1);
        assert_eq!(k.rank(&words, 4), 3);
        assert_eq!(k.rank(&words, 64), 3);
        assert_eq!(k.rank(&words, 65), 4);
        assert_eq!(k.rank(&words, 128), 67);
        // Clamped past the end.
        assert_eq!(k.rank(&words, 1000), 67);
    }

    #[test]
    fn collect_set_bits_masks_stray_tail() {
        // Bits at or past len_bits must be ignored even if set.
        let words = [u64::MAX];
        let mut out = Vec::new();
        BitwiseKernels.collect_set_bits(&words, 3, &mut out);
        assert_eq!(out, [0, 1, 2]);
    }

    #[test]
    fn encode_block_single_elements() {
        // Element (tile 5, elem 7): bit 5*16+7 = 87 -> word 1, lane 1.
        let mut mask = [0u64; 4];
        mask[1] |= 1u64 << (16 + 7);
        let meta = BitwiseKernels.encode_block(&mask);
        assert_eq!(meta.lv1, 1 << 5);
        assert_eq!(meta.tiles, 1);
        assert_eq!(meta.lv2[0], 1 << 7);
        assert_eq!(meta.valptr[0], 0);
    }

    #[test]
    fn decode_matches_encode_on_full_block() {
        let mask = [u64::MAX; 4];
        let meta = BitwiseKernels.encode_block(&mask);
        assert_eq!(meta.lv1, u16::MAX);
        assert_eq!(meta.tiles, 16);
        let rows = BitwiseKernels.decode_block(meta.lv1, &meta.lv2[..meta.tiles]);
        assert_eq!(rows, [u16::MAX; 16]);
    }
}
