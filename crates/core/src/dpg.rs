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

use simkit::transpose_tile;

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

/// A fill order as constant tables: its visit order over the 4x4 tile C,
/// and a byte-indexed lookup per half of a row-major C-tile mask (bit
/// `m * 4 + n`) that moves each output to its place in the visit order.
struct FillTables {
    order: [(u8, u8); 16],
    to_visit: [[u16; 256]; 2],
}

impl FillTables {
    /// The tables of visiting the 2x2 output sub-blocks of tile C in
    /// row-major order, each in the `inner` order.
    const fn new(inner: [(u8, u8); 4]) -> Self {
        let mut order = [(0u8, 0u8); 16];
        let mut place = [0u16; 16]; // place[m * 4 + n]: the visit index
        let mut idx = 0;
        while idx < 16 {
            let (block, (dm, dn)) = (idx / 4, inner[idx % 4]);
            let (m, n) = ((block / 2) as u8 * 2 + dm, (block % 2) as u8 * 2 + dn);
            order[idx] = (m, n);
            place[(m * 4 + n) as usize] = idx as u16;
            idx += 1;
        }
        let mut to_visit = [[0u16; 256]; 2];
        let mut byte = 0;
        while byte < 256 {
            let mut bit = 0;
            while bit < 8 {
                if byte >> bit & 1 == 1 {
                    to_visit[0][byte] |= 1 << place[bit];
                    to_visit[1][byte] |= 1 << place[bit + 8];
                }
                bit += 1;
            }
            byte += 1;
        }
        FillTables { order, to_visit }
    }

    /// The row-major C-tile mask `c_tile`, with bit `i` set when the
    /// `i`-th position of the visit order is set.
    fn in_visit_order(&self, c_tile: u16) -> u16 {
        self.to_visit[0][usize::from(c_tile & 0xFF)] | self.to_visit[1][usize::from(c_tile >> 8)]
    }
}

/// Z: left-right then next row (A row reused consecutively, B column at
/// distance 2).
const Z_FILL: FillTables = FillTables::new([(0, 0), (0, 1), (1, 0), (1, 1)]);

/// N: top-bottom then next column.
const N_FILL: FillTables = FillTables::new([(0, 0), (1, 0), (0, 1), (1, 1)]);

const fn fill_tables(fill: FillOrder) -> &'static FillTables {
    match fill {
        FillOrder::ZShape => &Z_FILL,
        FillOrder::NShape => &N_FILL,
    }
}

/// The output-position visit order of a fill strategy over the 4x4 tile C.
pub fn visit_order(fill: FillOrder) -> [(u8, u8); 16] {
    fill_tables(fill).order
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
/// Word-parallel: one word holds all sixteen [`patterns`]; output `p`'s
/// `c_index` is the number of nonzero pattern nibbles below nibble `p`.
pub(crate) fn visit_t4_codes(
    a_tile: u16,
    b_tile: u16,
    fill: FillOrder,
    sink: &mut dyn obs::TraceSink,
    mut f: impl FnMut(T4Code),
) -> u16 {
    let patterns = patterns(a_tile, b_tile);
    let outputs = nonzero_nibbles(patterns);
    // Nibble p: the outputs before p in row-major order, i.e. p's rank in
    // tile C (at most 15, so no nibble carries into the next).
    let ranks = (outputs << 4).wrapping_mul(0x1111_1111_1111_1111);
    let c_tile = gather_nibble_flags(outputs);
    let tables = fill_tables(fill);
    let mut rest = tables.in_visit_order(c_tile);
    while rest != 0 {
        let (m, n) = tables.order[rest.trailing_zeros() as usize];
        rest &= rest - 1;
        let at = 16 * m + 4 * n;
        let (c_index, pattern) = ((ranks >> at) as u8 & 0xF, (patterns >> at) as u8 & 0xF);
        f(T4Code { m, n, c_index, pattern });
    }
    if sink.enabled() {
        sink.record(obs::TraceEvent::DpgExpand {
            cycle: 0,
            segments: c_tile.count_ones(),
            products: patterns.count_ones(),
        });
    }
    c_tile
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
