//! Element-at-a-time reference kernels.
//!
//! These are the loops the bitwise kernels were extracted from — each
//! method walks bits and elements one at a time with no word-level
//! tricks. Deliberately boring: they are the oracle the differential
//! harness and the conformance backend-equivalence sweep measure
//! [`BitwiseKernels`](super::BitwiseKernels) against, so clarity beats
//! speed here.

use super::{BitKernels, BlockMeta};

/// The scalar reference kernels (test-only; no production path calls them).
#[derive(Debug, Clone, Copy, Default)]
pub struct ScalarKernels;

impl BitKernels for ScalarKernels {
    fn rank(&self, words: &[u64], bit: usize) -> usize {
        let mut count = 0;
        for i in 0..bit.min(words.len() * 64) {
            if words[i / 64] >> (i % 64) & 1 == 1 {
                count += 1;
            }
        }
        count
    }

    fn or_into(&self, acc: &mut [u64], src: &[u64]) {
        assert_eq!(acc.len(), src.len(), "or_into operand length mismatch");
        for i in 0..acc.len() * 64 {
            if src[i / 64] >> (i % 64) & 1 == 1 {
                acc[i / 64] |= 1 << (i % 64);
            }
        }
    }

    fn collect_set_bits(&self, words: &[u64], len_bits: usize, out: &mut Vec<u32>) {
        for bit in 0..len_bits.min(words.len() * 64) {
            if words[bit / 64] >> (bit % 64) & 1 == 1 {
                out.push(bit as u32);
            }
        }
    }

    fn decode_block(&self, lv1: u16, lv2: &[u16]) -> [u16; 16] {
        // The original `BbcBlock::element_rows` loop: per stored tile,
        // spread each 4-bit level-2 nibble into the element rows.
        let mut rows = [0u16; 16];
        let mut rank = 0usize;
        for tile in 0..16u16 {
            if lv1 >> tile & 1 == 0 {
                continue;
            }
            let mask = lv2[rank];
            rank += 1;
            let (tr, tc) = ((tile / 4) as usize, (tile % 4) as usize);
            for er in 0..4 {
                let nibble = (mask >> (er * 4)) & 0xF;
                rows[tr * 4 + er] |= nibble << (tc * 4);
            }
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
        for tile in 0..16usize {
            // Re-derive the tile's 16-bit lane one element at a time.
            let mut lane = 0u16;
            for e in 0..16usize {
                let bit = tile * 16 + e;
                if mask[bit / 64] >> (bit % 64) & 1 == 1 {
                    lane |= 1 << e;
                }
            }
            if lane != 0 {
                meta.lv1 |= 1 << tile;
                meta.lv2[meta.tiles] = lane;
                meta.valptr[meta.tiles] = offset;
                meta.tiles += 1;
                for e in 0..16 {
                    offset += lane >> e & 1;
                }
            }
        }
        meta
    }

    fn block_products(&self, a: &[u16; 16], b: &[u16; 16]) -> u64 {
        // The original `Block16::products_with`: per contraction index
        // k, (set bits in column k of a) × (set bits in row k of b).
        let mut products = 0u64;
        for (k, &brow) in b.iter().enumerate() {
            let mut col = 0u32;
            for row in a.iter() {
                col += u32::from(row >> k & 1);
            }
            products += u64::from(col) * u64::from(brow.count_ones());
        }
        products
    }

    fn block_mul_structure(&self, a: &[u16; 16], b: &[u16; 16]) -> [u16; 16] {
        // The original `Block16::mul_structure` r×k loop.
        let mut rows = [0u16; 16];
        for (r, &arow) in a.iter().enumerate() {
            for (k, &brow) in b.iter().enumerate() {
                if arow >> k & 1 == 1 {
                    rows[r] |= brow;
                }
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
        // The original SDPU T1 inner loop from `core::kernels::exec_t1`.
        let mut sum = 0.0;
        let mut products = 0u32;
        for kk in 0..4 {
            if pattern >> kk & 1 == 1 {
                sum += a_tile[m * 4 + kk] * b_tile[kk * 4 + n];
                products += 1;
            }
        }
        (sum, products)
    }

    fn dot_gather(&self, cols: &[u32], vals: &[f64], x: &[f64]) -> f64 {
        let mut acc = 0.0;
        for (&c, &v) in cols.iter().zip(vals.iter()) {
            acc += v * x[c as usize];
        }
        acc
    }

    fn axpy(&self, acc: &mut [f64], scale: f64, b: &[f64]) {
        for (aj, &bj) in acc.iter_mut().zip(b.iter()) {
            *aj += scale * bj;
        }
    }
}
