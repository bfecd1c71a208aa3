//! DPG — the dot-product generator (Section IV-A.2, Fig. 9).
//!
//! A DPG consumes one T3 task and produces T4 task codes. It (1) applies an
//! outer product to the bottom-level bitmaps, yielding four intermediate
//! bitmap layers, (2) overlays them into a map whose 4-bit value at output
//! position `(m, n)` encodes the index-matching pattern of that output's
//! sparse dot product, and (3) combines the map with tile C's structural
//! layout into 8-bit T4 codes — upper nibble: the accumulation target (the
//! output's nonzero index in tile C); lower nibble: the K-match pattern.
//! T4 codes fill the dot-product queue in a **Z-shaped** order that bounds
//! every operand's broadcast range (A: 5 multipliers, B: 9).

use simkit::{delta_swap, transpose_tile};

use crate::T4_MAX_LEN;

/// Fill order of the dot-product queue (Section IV-A.2, point 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FillOrder {
    /// Z-shaped traversal of 2x2 output sub-blocks (the paper's choice:
    /// minimises operand broadcast ranges).
    ZShape,
    /// N-shaped traversal (tested by the paper and "found to be inferior
    /// for most matrices").
    NShape,
}

/// One T4 task code: a segmented dot product of length 1..=4 updating one
/// scalar of tile C (the paper's 8-bit code, e.g. `0x49`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct T4Code {
    /// Output position `(m, n)` within the 4x4 tile C.
    pub m: u8,
    /// Output column within tile C.
    pub n: u8,
    /// Accumulation target: the output's nonzero index within tile C
    /// (upper nibble of the hardware code).
    pub c_index: u8,
    /// K-match pattern: bit `k` set when `A[m, k] * B[k, n]` contributes
    /// (lower nibble of the hardware code).
    pub pattern: u8,
}

impl T4Code {
    /// Segment length: number of products merged into this output (1..=4).
    pub fn len(&self) -> u8 {
        self.pattern.count_ones() as u8
    }

    /// T4 codes always carry at least one product.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The packed 8-bit hardware code (`c_index << 4 | pattern`).
    pub fn byte(&self) -> u8 {
        (self.c_index << 4) | self.pattern
    }
}

/// The identity nibble word: nibble `p` holds `p`.
const IDENTITY: u64 = 0xFEDC_BA98_7654_3210;

/// Moves the nibble of output position `p = m * 4 + n` (index bits
/// `m1 m0 n1 n0`) to its place in `fill`'s visit order. The visit walks
/// the 2x2 output sub-blocks of tile C in row-major order, so the Z fill
/// visits index `m1 n1 m0 n0`, which swaps index bits 2 and 1: nibbles
/// 2, 3 trade places with 4, 5 in each half of the word. The N fill
/// visits each sub-block column-first, `m1 n1 n0 m0`, which also swaps
/// index bits 1 and 0: odd nibbles with the even nibbles above them, in
/// each 2x2 sub-block.
const fn in_fill_order(x: u64, fill: FillOrder) -> u64 {
    let z = delta_swap(x, 0x0000_FF00_0000_FF00, 8);
    match fill {
        FillOrder::ZShape => z,
        FillOrder::NShape => delta_swap(z, 0x00F0_00F0_00F0_00F0, 4),
    }
}

/// Nibble `v`: the row-major position `m * 4 + n` of the `v`-th output
/// that `fill` visits.
const fn visit_positions(fill: FillOrder) -> u64 {
    in_fill_order(IDENTITY, fill)
}

/// The output-position visit order of a fill strategy over the 4x4 tile C.
pub fn visit_order(fill: FillOrder) -> [(u8, u8); 16] {
    let positions = visit_positions(fill);
    std::array::from_fn(|v| {
        let p = (positions >> (4 * v)) as u8 & 0xF;
        (p / 4, p % 4)
    })
}

/// The T4 segments one DPG expands a T3 task into, as lengths only: what
/// the pipeline packs into SDPU lanes and what admission checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Segments {
    /// Nibble `v` is the length (1..=4) of the `v`-th T4 code in fill
    /// order, 0 where that output has no code.
    pub(crate) lengths: u64,
    /// The structural C tile: bit `m * 4 + n` set when output `(m, n)`
    /// has a code.
    pub(crate) c_tile: u16,
}

impl Segments {
    /// The segments of the task whose K-match [`patterns`] are `patterns`:
    /// a SWAR popcount per nibble, moved into fill order.
    const fn of(patterns: u64, fill: FillOrder) -> Self {
        let x = patterns - (patterns >> 1 & 0x5555_5555_5555_5555);
        let lengths = (x & 0x3333_3333_3333_3333) + (x >> 2 & 0x3333_3333_3333_3333);
        Segments {
            lengths: in_fill_order(lengths, fill),
            c_tile: gather_nibble_flags(nonzero_nibbles(patterns)),
        }
    }

    /// Number of T4 codes.
    pub(crate) const fn count(&self) -> u32 {
        self.c_tile.count_ones()
    }

    /// Intermediate products of the T3 task: the sum of the lengths.
    pub(crate) const fn products(&self) -> u32 {
        nibble_sum(self.lengths)
    }
}

/// The T4 segment lengths of the T3 task `a_tile x b_tile` in `fill`
/// order: the lengths of the codes [`expand_t3`] returns, in a few word
/// operations instead of one step per code.
pub(crate) fn segment_lengths(a_tile: u16, b_tile: u16, fill: FillOrder) -> Segments {
    Segments::of(patterns(a_tile, b_tile), fill)
}

/// Whether no segment of a [`Segments::lengths`] word is longer than
/// [`T4_MAX_LEN`] SDPU lanes.
///
/// A nibble `v` of 8 or more has its top bit set; for `v < 8`,
/// `(v | 8) - (T4_MAX_LEN + 1)` keeps the top bit exactly when
/// `v > T4_MAX_LEN`, and never borrows from the next nibble.
pub(crate) const fn within_t4_max_len(lengths: u64) -> bool {
    const HIGH: u64 = 0x8888_8888_8888_8888;
    let bound = (T4_MAX_LEN as u64 + 1) * 0x1111_1111_1111_1111;
    (((lengths | HIGH) - bound) | lengths) & HIGH == 0
}

/// The number of nonzero nibbles of `lengths`: the segments a partly
/// emitted [`Segments::lengths`] word still holds.
pub(crate) const fn segment_count(lengths: u64) -> u32 {
    nonzero_nibbles(lengths).count_ones()
}

/// The sum of the sixteen nibbles of `x`.
pub(crate) const fn nibble_sum(x: u64) -> u32 {
    let bytes = (x & 0x0F0F_0F0F_0F0F_0F0F) + (x >> 4 & 0x0F0F_0F0F_0F0F_0F0F);
    (bytes.wrapping_mul(0x0101_0101_0101_0101) >> 56) as u32
}

/// Expands one T3 task (tile masks `a_tile`, `b_tile`) into its T4 codes
/// in the given fill order.
///
/// The overlay map value at `(m, n)` is `row_m(A) & col_n(B)`; positions
/// with an empty pattern produce no code. `c_index` ranks the outputs in
/// tile C's row-major structural order, matching the BBC value layout the
/// accumulation buffer uses.
pub fn expand_t3(a_tile: u16, b_tile: u16, fill: FillOrder) -> Vec<T4Code> {
    // A 4x4 tile C has at most 16 outputs, one code each.
    let mut out = Vec::with_capacity(16);
    visit_t4_codes(a_tile, b_tile, fill, &mut obs::NoopSink, |c| out.push(c));
    out
}

/// [`expand_t3`] without the `Vec`: calls `f` on each T4 code in fill
/// order, then records one [`DpgExpand`](obs::TraceEvent::DpgExpand)
/// event carrying the segment count and total intermediate products of
/// the expansion. Returns the structural C tile: bit `m * 4 + n` set when
/// output `(m, n)` has a code.
///
/// Walks the nonzero nibbles of the [`segment_lengths`] word, so the fill
/// order is applied in one place; output `p`'s `c_index` is the number of
/// nonzero pattern nibbles below nibble `p`.
pub(crate) fn visit_t4_codes(
    a_tile: u16,
    b_tile: u16,
    fill: FillOrder,
    sink: &mut dyn obs::TraceSink,
    mut f: impl FnMut(T4Code),
) -> u16 {
    let patterns = patterns(a_tile, b_tile);
    let segments = Segments::of(patterns, fill);
    // Nibble p: the outputs before p in row-major order, i.e. p's rank in
    // tile C (at most 15, so no nibble carries into the next).
    let ranks = (nonzero_nibbles(patterns) << 4).wrapping_mul(0x1111_1111_1111_1111);
    let positions = visit_positions(fill);
    let mut rest = nonzero_nibbles(segments.lengths);
    while rest != 0 {
        let p = (positions >> rest.trailing_zeros()) as u8 & 0xF;
        rest &= rest - 1;
        let at = 4 * p;
        let (c_index, pattern) = ((ranks >> at) as u8 & 0xF, (patterns >> at) as u8 & 0xF);
        f(T4Code { m: p / 4, n: p % 4, c_index, pattern });
    }
    if sink.enabled() {
        sink.record(obs::TraceEvent::DpgExpand {
            cycle: 0,
            segments: segments.count(),
            products: segments.products(),
        });
    }
    segments.c_tile
}

/// The sixteen K-match patterns of the T3 task `a_tile x b_tile`: nibble
/// `(m, n)` (bits `16m + 4n`) is `row_m(A) & col_n(B)` — row `m` of A
/// repeated across lane `m`, ANDed with column `n` of B in nibble `n` of
/// every lane.
pub(crate) const fn patterns(a_tile: u16, b_tile: u16) -> u64 {
    let a_rows = rows_to_lanes(a_tile) * LANE_NIBBLES;
    let b_cols = transpose_tile(b_tile) as u64 * EVERY_LANE;
    a_rows & b_cols
}

/// Multiplying a 16-bit lane's low nibble by this fills the lane's four
/// nibbles with it.
pub(crate) const LANE_NIBBLES: u64 = 0x1111;

/// Multiplying a `u16` by this copies it into all four 16-bit lanes.
pub(crate) const EVERY_LANE: u64 = 0x0001_0001_0001_0001;

/// Row `m` of a 4x4 tile mask moved to the low nibble of 16-bit lane `m`.
const fn rows_to_lanes(tile: u16) -> u64 {
    let x = tile as u64;
    let x = (x | x << 24) & 0x0000_00FF_0000_00FF;
    (x | x << 12) & 0x000F_000F_000F_000F
}

/// Bit `4p` set where nibble `p` of `x` is nonzero; every other bit clear.
pub(crate) const fn nonzero_nibbles(x: u64) -> u64 {
    let x = x | x >> 1;
    (x | x >> 2) & 0x1111_1111_1111_1111
}

/// Packs the flags of [`nonzero_nibbles`] (bit `4p`) into bit `p`.
pub(crate) const fn gather_nibble_flags(flags: u64) -> u16 {
    let x = (flags | flags >> 3) & 0x0303_0303_0303_0303;
    let x = (x | x >> 6) & 0x000F_000F_000F_000F;
    let x = (x | x >> 12) & 0x0000_00FF_0000_00FF;
    (x | x >> 24) as u16
}

/// The inverse of [`gather_nibble_flags`]: bit `p` of `bits` to bit `4p`.
pub(crate) const fn scatter_nibble_flags(bits: u16) -> u64 {
    let x = rows_to_lanes(bits);
    let x = (x | x << 6) & 0x0303_0303_0303_0303;
    (x | x << 3) & 0x1111_1111_1111_1111
}

/// Maximum distance (in queue positions) between two T4 codes that share
/// an operand, for broadcast-range analysis.
///
/// Returns `(max_a_gap, max_b_gap)`: the largest index gap between
/// consecutive codes sharing an A row (`m`) and a B column (`n`).
pub fn broadcast_gaps(codes: &[T4Code]) -> (usize, usize) {
    let mut max_a = 0usize;
    let mut max_b = 0usize;
    let mut last_m: [Option<usize>; 4] = [None; 4];
    let mut last_n: [Option<usize>; 4] = [None; 4];
    for (idx, c) in codes.iter().enumerate() {
        if let Some(prev) = last_m[c.m as usize] {
            max_a = max_a.max(idx - prev);
        }
        last_m[c.m as usize] = Some(idx);
        if let Some(prev) = last_n[c.n as usize] {
            max_b = max_b.max(idx - prev);
        }
        last_n[c.n as usize] = Some(idx);
    }
    (max_a, max_b)
}

#[cfg(test)]
mod tests {
    use super::*;

    const DENSE: u16 = u16::MAX;

    #[test]
    fn dense_tile_pair_yields_16_full_segments() {
        let codes = expand_t3(DENSE, DENSE, FillOrder::ZShape);
        assert_eq!(codes.len(), 16);
        assert!(codes.iter().all(|c| c.len() == 4));
        let total: u32 = codes.iter().map(|c| c.len() as u32).sum();
        assert_eq!(total, 64);
    }

    #[test]
    fn segment_lengths_match_products() {
        let a: u16 = 0b0011_0110_1001_1100;
        let b: u16 = 0b1010_0101_0011_1001;
        let codes = expand_t3(a, b, FillOrder::ZShape);
        let total: u32 = codes.iter().map(|c| c.len() as u32).sum();
        assert_eq!(total, crate::walk_reference::tile_products(a, b));
        for c in &codes {
            assert!((1..=4).contains(&c.len()));
            assert!(!c.is_empty());
        }
    }

    #[test]
    fn paper_example_code_49() {
        // Fig. 9: T4 task '49' = C tile nonzero #4, pattern 0x9 (0b1001):
        // C[0,0][4] += A[1,0] * B[0,3] + A[1,3] * B[3,3].
        // Construct tiles reproducing that code: output (m=1, n=3) with
        // pattern {k=0, k=3}, ranked 4th among tile C nonzeros. Four
        // outputs (0, 0..3) precede it, all matched through k = 1.
        let a: u16 = (1 << 1) | (1 << 4) | (1 << 7); // A[0,1], A[1,0], A[1,3]
        let b: u16 = 0xF0 | (1 << 3) | (1 << 15); // B row 1 dense, B[0,3], B[3,3]
        let codes = expand_t3(a, b, FillOrder::ZShape);
        let c13 = codes.iter().find(|c| c.m == 1 && c.n == 3).unwrap();
        assert_eq!(c13.c_index, 4);
        assert_eq!(c13.pattern, 0b1001);
        assert_eq!(c13.byte(), 0x49);
        assert_eq!(c13.len(), 2);
    }

    const FILLS: [FillOrder; 2] = [FillOrder::ZShape, FillOrder::NShape];

    #[test]
    fn segment_word_is_nibble_local() {
        // Output (m, n) reads only row m of A's tile and column n of B's:
        // every row and column nibble pair at every position, with the
        // rest of both tiles empty and then full. Alone, its length must
        // land in nibble v, its place in `visit_order`: this pins the fill
        // permutation, and `visit_order` is pinned by the walk reference.
        for fill in FILLS {
            for (v, (m, n)) in visit_order(fill).into_iter().enumerate() {
                for row in 0..16u16 {
                    for col in 0..16u16 {
                        let a_row = row << (4 * m);
                        let b_col = simkit::transpose_tile(col << (4 * n));
                        let len = u64::from((row & col).count_ones());
                        let alone = segment_lengths(a_row, b_col, fill);
                        let case = format!("{fill:?} ({m}, {n}) {row:#x} {col:#x}");
                        assert_eq!(alone.lengths, len << (4 * v), "{case}");
                        assert_eq!(alone.c_tile, u16::from(len > 0) << (4 * m + n), "{case}");
                        let others_a = DENSE & !(0xF << (4 * m));
                        let others_b = simkit::transpose_tile(DENSE & !(0xF << (4 * n)));
                        let crowded = segment_lengths(a_row | others_a, b_col | others_b, fill);
                        assert_eq!(crowded.lengths >> (4 * v) & 0xF, len, "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn segment_word_matches_the_code_walk() {
        let mut rng = sparse::rng::Rng64::new(0x5E6_2026);
        for _ in 0..4096 {
            let (a, b) = (rng.next_u64() as u16, rng.next_u64() as u16 & rng.next_u64() as u16);
            for fill in FILLS {
                let codes = crate::walk_reference::expand_t3(a, b, fill);
                let segments = segment_lengths(a, b, fill);
                let mut rest = segments.lengths;
                for c in &codes {
                    assert_ne!(rest, 0);
                    let at = rest.trailing_zeros() & !3;
                    assert_eq!((rest >> at) as u8 & 0xF, c.len(), "{a:#x} {b:#x} {fill:?}");
                    rest &= !(0xF << at);
                }
                assert_eq!(rest, 0);
                assert_eq!(segments.count() as usize, codes.len());
                assert_eq!(segments.products(), crate::walk_reference::tile_products(a, b));
                assert!(within_t4_max_len(segments.lengths));
            }
        }
    }

    #[test]
    fn within_t4_max_len_bounds_every_nibble() {
        for at in 0..16 {
            for len in 0..16u64 {
                let want = len <= crate::T4_MAX_LEN as u64;
                assert_eq!(within_t4_max_len(len << (4 * at)), want, "nibble {at} = {len}");
            }
        }
        assert!(within_t4_max_len(0x4444_4444_4444_4444));
        assert!(!within_t4_max_len(u64::MAX));
    }

    #[test]
    fn z_order_visits_2x2_blocks_row_wise() {
        let order = visit_order(FillOrder::ZShape);
        assert_eq!(&order[..4], &[(0, 0), (0, 1), (1, 0), (1, 1)]);
        assert_eq!(order[4], (0, 2));
        assert_eq!(order[15], (3, 3));
    }

    #[test]
    fn n_order_differs_within_blocks() {
        let order = visit_order(FillOrder::NShape);
        assert_eq!(&order[..4], &[(0, 0), (1, 0), (0, 1), (1, 1)]);
    }

    #[test]
    fn z_order_bounds_broadcast_ranges() {
        // Dense tiles: with the Z fill, two codes sharing an A row are at
        // distance <= 1 within a sub-block step (paper: A broadcasts to 5
        // adjacent multipliers = at most two consecutive vector tasks) and
        // two codes sharing a B column are separated by at most one
        // intervening task within a block pair (B range 9).
        let codes = expand_t3(DENSE, DENSE, FillOrder::ZShape);
        let (_, b_gap) = broadcast_gaps(&codes[..4]);
        assert_eq!(b_gap, 2); // B column reused with one task in between
        let (a_gap, _) = broadcast_gaps(&codes[..4]);
        assert_eq!(a_gap, 1); // A row reused consecutively
        // N order flips the trade-off inside a sub-block.
        let ncodes = expand_t3(DENSE, DENSE, FillOrder::NShape);
        let (na_gap, nb_gap) = broadcast_gaps(&ncodes[..4]);
        assert_eq!(na_gap, 2);
        assert_eq!(nb_gap, 1);
    }

    #[test]
    fn c_index_is_row_major_rank() {
        // Diagonal A, dense B: outputs form full rows? No — diagonal tile
        // A has one k per row, so every output (m, n) with B[k=m][n] set.
        let diag: u16 = 0b1000_0100_0010_0001;
        let codes = expand_t3(diag, DENSE, FillOrder::ZShape);
        assert_eq!(codes.len(), 16);
        // Row-major rank of (m, n) is m * 4 + n.
        for c in &codes {
            assert_eq!(c.c_index, c.m * 4 + c.n);
            assert_eq!(c.len(), 1);
        }
    }

    #[test]
    fn empty_tiles_produce_no_codes() {
        assert!(expand_t3(0, DENSE, FillOrder::ZShape).is_empty());
        assert!(expand_t3(DENSE, 0, FillOrder::ZShape).is_empty());
        // Mismatched K: A uses k=0 only, B provides k=3 only.
        let a = 0b0001_0001_0001_0001; // column 0 of the tile
        let b = 0b1111_0000_0000_0000; // row 3 of the tile
        let _sanity = (a, b);
        let a_col0_only: u16 = 0x1111;
        let b_row3_only: u16 = 0xF000;
        // A's k comes from its columns; col 0 => k = 0. B's k from rows;
        // row 3 => k = 3. No overlap.
        assert!(expand_t3(a_col0_only, b_row3_only, FillOrder::ZShape).is_empty());
    }
}
