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

use simkit::{tile_col, tile_row};

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

/// The output-position visit order of a fill strategy over the 4x4 tile C.
pub fn visit_order(fill: FillOrder) -> [(u8, u8); 16] {
    let mut order = [(0u8, 0u8); 16];
    let mut idx = 0;
    for bm in 0..2u8 {
        for bn in 0..2u8 {
            let (m0, n0) = (bm * 2, bn * 2);
            let inner: [(u8, u8); 4] = match fill {
                // Z: left-right then next row (A row reused consecutively,
                // B column at distance 2).
                FillOrder::ZShape => [(0, 0), (0, 1), (1, 0), (1, 1)],
                // N: top-bottom then next column.
                FillOrder::NShape => [(0, 0), (1, 0), (0, 1), (1, 1)],
            };
            for (dm, dn) in inner {
                order[idx] = (m0 + dm, n0 + dn);
                idx += 1;
            }
        }
    }
    order
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
/// the expansion.
pub(crate) fn visit_t4_codes(
    a_tile: u16,
    b_tile: u16,
    fill: FillOrder,
    sink: &mut dyn obs::TraceSink,
    mut f: impl FnMut(T4Code),
) {
    // Structural C tile: row-major ranks for the accumulation targets.
    let mut pattern = [[0u8; 4]; 4];
    let mut c_rank = [[0u8; 4]; 4];
    let mut rank = 0u8;
    for m in 0..4 {
        for n in 0..4 {
            let p = (tile_row(a_tile, m) & tile_col(b_tile, n)) as u8;
            pattern[m][n] = p;
            if p != 0 {
                c_rank[m][n] = rank;
                rank += 1;
            }
        }
    }
    let mut products = 0u32;
    for (m, n) in visit_order(fill) {
        let p = pattern[m as usize][n as usize];
        if p != 0 {
            products += p.count_ones();
            f(T4Code { m, n, c_index: c_rank[m as usize][n as usize], pattern: p });
        }
    }
    if sink.enabled() {
        sink.record(obs::TraceEvent::DpgExpand { cycle: 0, segments: u32::from(rank), products });
    }
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
        assert_eq!(total, simkit::tile_products(a, b));
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
