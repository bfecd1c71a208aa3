//! The bitmap hot paths: one implementation, one reference.
//!
//! The BBC format is bitmaps all the way down — encode/decode of 16×16
//! blocks, level-1/level-2 mask overlay products, rank and set-bit
//! walks, and the SDPU segment numeric loop. This module gathers those
//! primitives behind the [`BitKernels`] trait:
//!
//! * [`BitwiseKernels`] — u64 word-at-a-time bit tricks: whole-word OR
//!   overlays, `count_ones` ranks, SWAR encode/decode of a 16×16
//!   block packed as 4×u64. Every production call site (`bitmap`,
//!   `bbc`, `ops`, the simulator's `Block16` algebra and the SDPU
//!   segment dot) calls it directly, by static dispatch.
//! * [`ScalarKernels`] — the element-at-a-time code the bitwise
//!   kernels were extracted from. Slow, obvious, and the reference the
//!   bitwise kernels are tested against; nothing outside tests calls it.
//!
//! # Equivalence contract
//!
//! [`BitwiseKernels`] must be *bit-identical* to [`ScalarKernels`]: the
//! same structural outputs (masks, offsets, set-bit orders) and the
//! same floating-point results. f64 addition is not associative, so
//! numeric methods ([`BitKernels::segment_dot`],
//! [`BitKernels::dot_gather`], [`BitKernels::axpy`]) must preserve the
//! reference accumulation order exactly — bit tricks may only change
//! how indices and masks are *computed*, never the order values are
//! combined in. The contract is enforced twice: the word-boundary
//! differential harness here ([`differential_check`]), and the
//! `conformance::backend_equivalence` sweep, which compares the two on
//! every operand each op meets for every generator regime. Each op is a
//! pure function of its arguments, so agreement on every call site's
//! arguments is agreement of the whole stack.

mod bitwise;
mod scalar;

pub use bitwise::BitwiseKernels;
pub use scalar::ScalarKernels;

/// BBC metadata for one 16×16 block, derived from its 256-bit
/// (tile, element) occupancy mask by [`BitKernels::encode_block`].
///
/// Only the first `tiles` entries of `lv2` / `valptr` are meaningful.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockMeta {
    /// Level-1 bitmap: bit `tr * 4 + tc` set iff tile (tr, tc) stores
    /// at least one nonzero.
    pub lv1: u16,
    /// Number of stored tiles (`lv1.count_ones()`).
    pub tiles: usize,
    /// Level-2 bitmap per stored tile, in ascending tile-bit order.
    pub lv2: [u16; 16],
    /// Value offset of each stored tile from the block's value base —
    /// the popcount prefix sum over `lv2`.
    pub valptr: [u16; 16],
}

/// The bitmap/numeric primitives, implemented by [`BitwiseKernels`] and
/// its reference [`ScalarKernels`].
///
/// Structural methods operate on explicit bit widths (`len_bits`) so
/// tail-word handling is part of the contract: bit positions at or
/// beyond `len_bits` in the last word are ignored regardless of their
/// stored value. Numeric methods must combine values in exactly the
/// reference (scalar) order — see the module docs.
pub trait BitKernels {
    /// Number of set bits strictly below position `bit`.
    /// `bit` may be at most `words.len() * 64`.
    fn rank(&self, words: &[u64], bit: usize) -> usize;

    /// ORs `src` into `acc` word-by-word (`acc[i] |= src[i]`).
    /// Panics if the slices differ in length, mirroring a zip over
    /// equal-length operands in the reference code.
    fn or_into(&self, acc: &mut [u64], src: &[u64]);

    /// Appends the positions of all set bits below `len_bits` to
    /// `out`, in ascending order.
    fn collect_set_bits(&self, words: &[u64], len_bits: usize, out: &mut Vec<u32>);

    /// Expands a BBC block's two-level bitmaps into 16 element-row
    /// masks (bit `c` of `rows[r]` set iff element (r, c) is stored).
    /// `lv2[i]` is the level-2 bitmap of the i-th stored tile; indexes
    /// past `lv2.len()` panic, matching the reference decode on
    /// corrupt metadata.
    fn decode_block(&self, lv1: u16, lv2: &[u16]) -> [u16; 16];

    /// Derives BBC metadata from a 256-bit block occupancy mask packed
    /// as 4×u64: bit `t * 16 + e` of the mask (word `t / 4`, lane
    /// `t % 4`) set iff tile `t` stores element `e`.
    fn encode_block(&self, mask: &[u64; 4]) -> BlockMeta;

    /// Structural product count between two 16×16 element masks: the
    /// number of scalar multiplications `Σ_k colpop(a, k) · rowpop(b, k)`
    /// a dense-over-structure matmul would perform.
    fn block_products(&self, a: &[u16; 16], b: &[u16; 16]) -> u64;

    /// Structural product of two 16×16 element masks: row `r` of the
    /// result ORs together the rows of `b` selected by row `r` of `a`.
    fn block_mul_structure(&self, a: &[u16; 16], b: &[u16; 16]) -> [u16; 16];

    /// One SDPU T1 segment dot product: for each set bit `kk` of
    /// `pattern & 0xF` in ascending order, accumulates
    /// `a_tile[m * 4 + kk] * b_tile[kk * 4 + n]`. Returns the sum and
    /// the number of products performed.
    fn segment_dot(
        &self,
        pattern: u8,
        a_tile: &[f64; 16],
        b_tile: &[f64; 16],
        m: usize,
        n: usize,
    ) -> (f64, u32);

    /// Sparse dot product `Σ_i vals[i] * x[cols[i]]`, accumulated left
    /// to right into a single accumulator.
    fn dot_gather(&self, cols: &[u32], vals: &[f64], x: &[f64]) -> f64;

    /// Scaled row update `acc[j] += scale * b[j]` over
    /// `min(acc.len(), b.len())` elements.
    fn axpy(&self, acc: &mut [f64], scale: f64, b: &[f64]);
}

/// Bit widths exercised by [`differential_check`]: empty, single-bit,
/// and both sides of the 1-word and 4-word boundaries.
pub const BOUNDARY_WIDTHS: [usize; 7] = [0, 1, 63, 64, 65, 255, 256];

fn boundary_masks(len_bits: usize, seed: u64) -> Vec<Vec<u64>> {
    let words = len_bits.div_ceil(64);
    let tail = |mut v: Vec<u64>| {
        if !len_bits.is_multiple_of(64) {
            if let Some(last) = v.last_mut() {
                *last &= (1u64 << (len_bits % 64)) - 1;
            }
        }
        v
    };
    let mut rng = crate::rng::Rng64::new(seed ^ 0xB17_B0A7);
    vec![
        vec![0u64; words],
        tail(vec![u64::MAX; words]),
        tail(vec![0x5555_5555_5555_5555u64; words]),
        tail(vec![0xAAAA_AAAA_AAAA_AAAAu64; words]),
        tail((0..words).map(|_| rng.next_u64()).collect()),
    ]
}

fn check_eq<T: PartialEq + std::fmt::Debug>(
    what: &str,
    reference: &T,
    candidate: &T,
) -> Result<(), String> {
    if reference == candidate {
        Ok(())
    } else {
        Err(format!(
            "{what}: reference {reference:?} != candidate {candidate:?}"
        ))
    }
}

/// Differentially checks `candidate` against `reference` over the
/// word-boundary grid: widths [`BOUNDARY_WIDTHS`] × mask patterns
/// (all-zeros, all-ones, both alternating phases, seeded random) for
/// the word primitives, plus seeded block/numeric cases. Returns a
/// description of the first divergence found.
pub fn differential_check(
    reference: &dyn BitKernels,
    candidate: &dyn BitKernels,
) -> Result<(), String> {
    for &len_bits in &BOUNDARY_WIDTHS {
        for (mi, mask) in boundary_masks(len_bits, len_bits as u64).iter().enumerate() {
            let ctx = |what: &str| format!("{what} (len_bits={len_bits}, mask #{mi})");

            // rank at every interesting position, including the ends.
            let probes = [0, 1, len_bits / 2, len_bits.saturating_sub(1), len_bits];
            for &bit in &probes {
                check_eq(
                    &ctx(&format!("rank(bit={bit})")),
                    &reference.rank(mask, bit),
                    &candidate.rank(mask, bit),
                )?;
            }

            for other in boundary_masks(len_bits, len_bits as u64 ^ 0xFACE) {
                let mut ar = other.clone();
                let mut ac = other.clone();
                reference.or_into(&mut ar, mask);
                candidate.or_into(&mut ac, mask);
                check_eq(&ctx("or_into"), &ar, &ac)?;
            }

            let (mut sr, mut sc) = (Vec::new(), Vec::new());
            reference.collect_set_bits(mask, len_bits, &mut sr);
            candidate.collect_set_bits(mask, len_bits, &mut sc);
            check_eq(&ctx("collect_set_bits"), &sr, &sc)?;
        }
    }

    // Block primitives over seeded masks (including all-zeros/all-ones).
    let mut rng = crate::rng::Rng64::new(0xB10C_CA5E);
    let mut blocks: Vec<[u16; 16]> = vec![[0u16; 16], [u16::MAX; 16]];
    for _ in 0..8 {
        let mut b = [0u16; 16];
        for row in b.iter_mut() {
            *row = (rng.next_u64() & 0xFFFF) as u16;
        }
        blocks.push(b);
    }
    for a in &blocks {
        for b in &blocks {
            check_eq(
                "block_products",
                &reference.block_products(a, b),
                &candidate.block_products(a, b),
            )?;
            check_eq(
                "block_mul_structure",
                &reference.block_mul_structure(a, b),
                &candidate.block_mul_structure(a, b),
            )?;
        }
        // Round-trip encode/decode through the 4×u64 packing.
        let mut mask256 = [0u64; 4];
        for (t, tile) in tiles_of(a).into_iter().enumerate() {
            mask256[t / 4] |= u64::from(tile) << ((t % 4) * 16);
        }
        let mr = reference.encode_block(&mask256);
        let mc = candidate.encode_block(&mask256);
        check_eq("encode_block", &mr, &mc)?;
        check_eq(
            "decode_block",
            &reference.decode_block(mr.lv1, &mr.lv2[..mr.tiles]),
            &candidate.decode_block(mc.lv1, &mc.lv2[..mc.tiles]),
        )?;
    }

    // Numeric primitives: bit-exact f64 comparison via to_bits.
    let mut a_tile = [0.0f64; 16];
    let mut b_tile = [0.0f64; 16];
    for i in 0..16 {
        a_tile[i] = (rng.next_u64() % 1000) as f64 / 7.0 - 60.0;
        b_tile[i] = (rng.next_u64() % 1000) as f64 / 11.0 - 40.0;
    }
    for pattern in 0u8..16 {
        for m in 0..4 {
            for n in 0..4 {
                let (vr, cr) = reference.segment_dot(pattern, &a_tile, &b_tile, m, n);
                let (vc, cc) = candidate.segment_dot(pattern, &a_tile, &b_tile, m, n);
                check_eq(
                    &format!("segment_dot(pattern={pattern:#x}, m={m}, n={n})"),
                    &(vr.to_bits(), cr),
                    &(vc.to_bits(), cc),
                )?;
            }
        }
    }
    for len in [0usize, 1, 3, 4, 5, 17, 64] {
        let cols: Vec<u32> = (0..len).map(|_| (rng.next_u64() % 96) as u32).collect();
        let vals: Vec<f64> = (0..len).map(|i| a_tile[i % 16] + i as f64).collect();
        let x: Vec<f64> = (0..96).map(|i| b_tile[i % 16] * 0.5 + i as f64).collect();
        check_eq(
            &format!("dot_gather(len={len})"),
            &reference.dot_gather(&cols, &vals, &x).to_bits(),
            &candidate.dot_gather(&cols, &vals, &x).to_bits(),
        )?;

        let mut accr: Vec<f64> = (0..len).map(|i| i as f64 * 0.25).collect();
        let mut accc = accr.clone();
        let brow: Vec<f64> = (0..len).map(|i| b_tile[i % 16]).collect();
        reference.axpy(&mut accr, 1.75, &brow);
        candidate.axpy(&mut accc, 1.75, &brow);
        check_eq(
            &format!("axpy(len={len})"),
            &accr.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            &accc.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        )?;
    }

    Ok(())
}

/// The 16 4×4 tile masks of a 16×16 element mask, tile bit ascending.
fn tiles_of(rows: &[u16; 16]) -> [u16; 16] {
    let mut tiles = [0u16; 16];
    for (r, &row) in rows.iter().enumerate() {
        for c in 0..16 {
            if row >> c & 1 == 1 {
                let t = (r / 4) * 4 + c / 4;
                let e = (r % 4) * 4 + c % 4;
                tiles[t] |= 1 << e;
            }
        }
    }
    tiles
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitwise_matches_scalar_on_boundary_grid() {
        differential_check(&ScalarKernels, &BitwiseKernels)
            .unwrap_or_else(|e| panic!("bitwise diverges from scalar: {e}"));
    }

    /// An implementation with a deliberate off-by-one in its tail-word
    /// masking: `rank` and `collect_set_bits` include one bit past
    /// `len_bits`. Proves the differential harness catches exactly the
    /// class of bug the bitwise rewrite risks introducing.
    struct BuggyTail;

    impl BitKernels for BuggyTail {
        fn rank(&self, words: &[u64], bit: usize) -> usize {
            // Off-by-one: counts bits *at or below* `bit`.
            BitwiseKernels.rank(words, (bit + 1).min(words.len() * 64))
        }
        fn or_into(&self, acc: &mut [u64], src: &[u64]) {
            BitwiseKernels.or_into(acc, src);
        }
        fn collect_set_bits(&self, words: &[u64], len_bits: usize, out: &mut Vec<u32>) {
            let widened = (len_bits + 1).min(words.len() * 64);
            BitwiseKernels.collect_set_bits(words, widened, out);
        }
        fn decode_block(&self, lv1: u16, lv2: &[u16]) -> [u16; 16] {
            BitwiseKernels.decode_block(lv1, lv2)
        }
        fn encode_block(&self, mask: &[u64; 4]) -> BlockMeta {
            BitwiseKernels.encode_block(mask)
        }
        fn block_products(&self, a: &[u16; 16], b: &[u16; 16]) -> u64 {
            BitwiseKernels.block_products(a, b)
        }
        fn block_mul_structure(&self, a: &[u16; 16], b: &[u16; 16]) -> [u16; 16] {
            BitwiseKernels.block_mul_structure(a, b)
        }
        fn segment_dot(
            &self,
            pattern: u8,
            a_tile: &[f64; 16],
            b_tile: &[f64; 16],
            m: usize,
            n: usize,
        ) -> (f64, u32) {
            BitwiseKernels.segment_dot(pattern, a_tile, b_tile, m, n)
        }
        fn dot_gather(&self, cols: &[u32], vals: &[f64], x: &[f64]) -> f64 {
            BitwiseKernels.dot_gather(cols, vals, x)
        }
        fn axpy(&self, acc: &mut [f64], scale: f64, b: &[f64]) {
            BitwiseKernels.axpy(acc, scale, b);
        }
    }

    #[test]
    fn injected_tail_bug_is_caught() {
        let err = differential_check(&ScalarKernels, &BuggyTail)
            .expect_err("the off-by-one tail bug must be detected");
        assert!(
            err.contains("rank") || err.contains("collect_set_bits"),
            "divergence should name a tail-sensitive primitive, got: {err}"
        );
    }

    #[test]
    fn boundary_widths_cover_word_edges() {
        assert_eq!(BOUNDARY_WIDTHS, [0, 1, 63, 64, 65, 255, 256]);
    }

    #[test]
    fn tiles_of_matches_bit_definition() {
        let mut rows = [0u16; 16];
        rows[0] = 0b1; // element (0,0) -> tile 0, elem 0
        rows[5] = 1 << 7; // element (5,7) -> tile (1,1)=5, elem (1,3)=7
        rows[15] = 1 << 15; // element (15,15) -> tile 15, elem 15
        let tiles = tiles_of(&rows);
        assert_eq!(tiles[0], 1);
        assert_eq!(tiles[5], 1 << 7);
        assert_eq!(tiles[15], 1 << 15);
    }
}
