//! TMS — the tile multiply scheduler (Section IV-A.1, Fig. 8).
//!
//! The TMS turns a T1 task into T3 tasks by an outer product over the
//! operands' top-level (tile) bitmaps: position `(i, j)` of intermediate
//! bitmap layer `k` is a T3 task `C(i,j) += A(i,k) x B(k,j)` whenever both
//! tiles are structurally nonzero. Task *ordering* then determines data
//! reuse, parallelism, K-alignment and write conflicts — the Fig. 10
//! study — and the paper selects outer-product ordering with an adaptive
//! intra-layer row/column-major choice.

use simkit::{transpose_nibbles, transpose_tile, Block16};

use crate::dpg::{
    gather_nibble_flags, nonzero_nibbles, patterns, scatter_nibble_flags, EVERY_LANE,
    LANE_NIBBLES,
};

/// One T3 task: a 4x4x4 tile multiplication.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct T3Task {
    /// Output tile row (0..4).
    pub i: u8,
    /// Output tile column (0..4).
    pub j: u8,
    /// Reduction tile layer (0..4).
    pub k: u8,
    /// Element mask of tile `A(i, k)`.
    pub a_tile: u16,
    /// Element mask of tile `B(k, j)`.
    pub b_tile: u16,
    /// Intermediate products in this tile multiplication (1..=64).
    pub products: u32,
}

impl T3Task {
    /// Packed output-tile identifier (`i * 4 + j`), the write-conflict key.
    pub fn output_id(&self) -> u8 {
        self.i * 4 + self.j
    }
}

/// T3 task-ordering strategies compared in Fig. 10.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskOrdering {
    /// Dot-product order: group by output `(i, j)`, then K.
    DotProduct,
    /// Outer-product order: K layer by layer, adaptive order within a
    /// layer (the paper's choice).
    OuterProduct,
    /// Row-row order: by output row `i`, then K, then `j`.
    RowRow,
}

impl std::fmt::Display for TaskOrdering {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaskOrdering::DotProduct => write!(f, "dot-product"),
            TaskOrdering::OuterProduct => write!(f, "outer-product"),
            TaskOrdering::RowRow => write!(f, "row-row"),
        }
    }
}

/// Generates the T3 tasks of a T1 task in the given ordering.
///
/// Tile pairs whose structural product is empty are dropped (they would
/// occupy a DPG for zero work; the DPG's bitmap overlay detects this in
/// one cycle, which we fold into TMS generation).
pub fn generate_t3_tasks(a: &Block16, b: &Block16, ordering: TaskOrdering) -> Vec<T3Task> {
    let mut out = Vec::new();
    visit_t3_tasks(a, b, ordering, &mut obs::NoopSink, |t| out.push(t));
    out
}

/// [`generate_t3_tasks`] without the `Vec`: calls `f` on each T3 task in
/// order, then records one [`TmsGenerate`](obs::TraceEvent::TmsGenerate)
/// event carrying the batch size (timestamp 0 — generation latency is
/// hidden by the asynchronous `stc.task_gen` lifecycle, so the batch
/// materialises at task start).
///
/// Word-parallel: the presence layers come from [`presence_layers`]; each
/// ordering is one 64-bit key word whose set bits, in ascending order,
/// are the tasks in issue order (see [`issue_key`]).
///
/// Always inlined: a caller's callback then keeps its accumulators in
/// registers across the walk instead of behind the closure's pointer.
#[inline(always)]
pub(crate) fn visit_t3_tasks(
    a: &Block16,
    b: &Block16,
    ordering: TaskOrdering,
    sink: &mut dyn obs::TraceSink,
    mut f: impl FnMut(T3Task),
) {
    let (a_tiles, b_tiles) = (a.tiles(), b.tiles());
    let layers = presence_layers(&a_tiles, &b_tiles);
    let (key, col_major) = issue_key(layers, ordering);
    let mut rest = key;
    while rest != 0 {
        let bit = rest.trailing_zeros() as u8;
        rest &= rest - 1;
        let (hi, mid, lo) = (bit >> 4, bit >> 2 & 3, bit & 3);
        let (i, j, k) = match ordering {
            TaskOrdering::DotProduct => (hi, mid, lo),
            TaskOrdering::RowRow => (hi, lo, mid),
            TaskOrdering::OuterProduct if col_major >> hi & 1 == 1 => (lo, mid, hi),
            TaskOrdering::OuterProduct => (mid, lo, hi),
        };
        let a_tile = a_tiles[usize::from(i * 4 + k)];
        let b_tile = b_tiles[usize::from(k * 4 + j)];
        f(T3Task { i, j, k, a_tile, b_tile, products: tile_products(a_tile, b_tile) });
    }
    if sink.enabled() {
        sink.record(obs::TraceEvent::TmsGenerate { cycle: 0, t3_tasks: key.count_ones() });
    }
}

/// The presence layers of Fig. 8 (1) from the operands' tile masks
/// (`tiles()` order), layer `k` in 16-bit lane `k`: bit `i * 4 + j` is
/// set when `A(i,k) x B(k,j)` has a product, i.e. some tile-local `q`
/// has a nonzero column `q` in `A(i,k)` and a nonzero row `q` in
/// `B(k,j)`.
///
/// Per layer, lane `i` of one word holds `A(i,k)`'s nonzero columns
/// repeated in all four nibbles, nibble `j` of the other holds
/// `B(k,j)`'s nonzero rows in every lane; nibble `(i, j)` of their AND
/// is nonzero exactly where the task exists.
fn presence_layers(a_tiles: &[u16; 16], b_tiles: &[u16; 16]) -> u64 {
    let mut layers = 0u64;
    for k in 0..4 {
        // Lane i: A(i, k); lane j: B(k, j).
        let (mut a_col, mut b_row) = (0u64, 0u64);
        for t in 0..4 {
            a_col |= u64::from(a_tiles[t * 4 + k]) << (16 * t);
            b_row |= u64::from(b_tiles[k * 4 + t]) << (16 * t);
        }
        // Low nibble of lane i: A(i, k)'s nonzero columns.
        let a_cols = (a_col | a_col >> 4 | a_col >> 8 | a_col >> 12) & 0x000F_000F_000F_000F;
        // Nibble j: B(k, j)'s nonzero rows.
        let b_rows = u64::from(gather_nibble_flags(nonzero_nibbles(b_row)));
        let matched = (a_cols * LANE_NIBBLES) & (b_rows * EVERY_LANE);
        layers |= u64::from(gather_nibble_flags(nonzero_nibbles(matched))) << (16 * k);
    }
    layers
}

/// The issue-order key of `ordering` over `layers` (bit `16k + 4i + j`):
/// a word whose set bits, ascending, are the T3 tasks in issue order,
/// bit `16 hi + 4 mid + lo` decoding as
///
/// * dot product `(i, j, k)`: the layers interleaved per output;
/// * row-row `(i, k, j)`: the 4x4 matrix of layer rows, transposed;
/// * outer product `(k, i, j)`, or `(k, j, i)` for the layers whose bit
///   is set in the returned column-major mask: each such layer is
///   transposed (the adaptive intra-layer order: column-major when
///   nonzero rows outnumber nonzero columns).
fn issue_key(layers: u64, ordering: TaskOrdering) -> (u64, u8) {
    match ordering {
        TaskOrdering::DotProduct => {
            let key = (0..4).fold(0u64, |key, k| {
                key | scatter_nibble_flags((layers >> (16 * k)) as u16) << k
            });
            (key, 0)
        }
        TaskOrdering::RowRow => (transpose_nibbles(layers), 0),
        TaskOrdering::OuterProduct => {
            let (mut key, mut col_major) = (0u64, 0u8);
            for k in 0..4 {
                let layer = (layers >> (16 * k)) as u16;
                let nz_rows = nonzero_nibbles(u64::from(layer)).count_ones();
                let nz_cols = ((layer | layer >> 4 | layer >> 8 | layer >> 12) & 0xF).count_ones();
                let ordered = if nz_rows > nz_cols {
                    col_major |= 1 << k;
                    transpose_tile(layer)
                } else {
                    layer
                };
                key |= u64::from(ordered) << (16 * k);
            }
            (key, col_major)
        }
    }
}

/// Intermediate products of the 4x4x4 tile multiplication `a x b`:
/// `sum over q of nnz(col q of a) * nnz(row q of b)`, which is the number
/// of set bits over the DPG's sixteen K-match patterns (see
/// [`crate::dpg::patterns`]).
fn tile_products(a: u16, b: u16) -> u32 {
    patterns(a, b).count_ones()
}

/// The four intermediate-product bitmap layers of Fig. 8 (1): bit
/// `i * 4 + j` of `layers[k]` marks T3 task `C(i,j) += A(i,k) x B(k,j)`
/// as present (both tiles structurally nonzero with a nonzero product).
pub fn layer_bitmaps(a: &Block16, b: &Block16) -> [u16; 4] {
    let layers = presence_layers(&a.tiles(), &b.tiles());
    [0, 1, 2, 3].map(|k| (layers >> (16 * k)) as u16)
}

/// Fig. 10 metrics of one ordering on one T1 task, evaluated with
/// `tasks_per_cycle` parallel T3 slots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrderingStats {
    /// Data reuse rate for A tiles: `1 - actual / theoretical` accesses.
    pub reuse_a: f64,
    /// Data reuse rate for B tiles.
    pub reuse_b: f64,
    /// Average parallel tasks per cycle.
    pub avg_parallel_tasks: f64,
    /// Average K-aligned tasks per cycle (largest same-K group).
    pub avg_aligned_tasks: f64,
    /// Fraction of cycles with at least one write conflict (two tasks
    /// targeting the same output tile).
    pub write_conflict_rate: f64,
    /// Total T3 tasks analysed.
    pub tasks: usize,
}

/// Analyses an ordering on one T1 task (the Fig. 10 methodology: batches
/// of `tasks_per_cycle` consecutive tasks form one notional cycle).
///
/// Returns `None` when the task pair produces no T3 tasks.
///
/// # Panics
///
/// Panics if `tasks_per_cycle == 0`.
pub fn analyze_ordering(
    a: &Block16,
    b: &Block16,
    ordering: TaskOrdering,
    tasks_per_cycle: usize,
) -> Option<OrderingStats> {
    assert!(tasks_per_cycle > 0, "need at least one task slot per cycle");
    let tasks = generate_t3_tasks(a, b, ordering);
    if tasks.is_empty() {
        return None;
    }
    let mut cycles = 0usize;
    let mut conflict_cycles = 0usize;
    let mut a_fetches = 0usize;
    let mut b_fetches = 0usize;
    let mut aligned_sum = 0usize;
    for batch in tasks.chunks(tasks_per_cycle) {
        cycles += 1;
        let mut a_tiles: Vec<(u8, u8)> = batch.iter().map(|t| (t.i, t.k)).collect();
        a_tiles.sort_unstable();
        a_tiles.dedup();
        a_fetches += a_tiles.len();
        let mut b_tiles: Vec<(u8, u8)> = batch.iter().map(|t| (t.k, t.j)).collect();
        b_tiles.sort_unstable();
        b_tiles.dedup();
        b_fetches += b_tiles.len();
        let mut outputs: Vec<u8> = batch.iter().map(|t| t.output_id()).collect();
        outputs.sort_unstable();
        let had_conflict = outputs.windows(2).any(|w| w[0] == w[1]);
        if had_conflict {
            conflict_cycles += 1;
        }
        let aligned = (0..4u8)
            .map(|k| batch.iter().filter(|t| t.k == k).count())
            .max()
            .unwrap_or(0);
        aligned_sum += aligned;
    }
    let n = tasks.len() as f64;
    Some(OrderingStats {
        reuse_a: 1.0 - a_fetches as f64 / n,
        reuse_b: 1.0 - b_fetches as f64 / n,
        avg_parallel_tasks: n / cycles as f64,
        avg_aligned_tasks: aligned_sum as f64 / cycles as f64,
        write_conflict_rate: conflict_cycles as f64 / cycles as f64,
        tasks: tasks.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_generates_64_tasks() {
        let d = Block16::dense();
        for ordering in
            [TaskOrdering::DotProduct, TaskOrdering::OuterProduct, TaskOrdering::RowRow]
        {
            let tasks = generate_t3_tasks(&d, &d, ordering);
            assert_eq!(tasks.len(), 64, "{ordering}");
            assert!(tasks.iter().all(|t| t.products == 64));
        }
    }

    #[test]
    fn orderings_are_permutations_of_each_other() {
        let a = Block16::from_fn(|r, c| (r * 7 + c) % 3 == 0);
        let b = Block16::from_fn(|r, c| (r + c * 5) % 4 == 0);
        let mut sets: Vec<Vec<(u8, u8, u8)>> = Vec::new();
        for ordering in
            [TaskOrdering::DotProduct, TaskOrdering::OuterProduct, TaskOrdering::RowRow]
        {
            let mut v: Vec<(u8, u8, u8)> = generate_t3_tasks(&a, &b, ordering)
                .iter()
                .map(|t| (t.i, t.j, t.k))
                .collect();
            v.sort_unstable();
            sets.push(v);
        }
        assert_eq!(sets[0], sets[1]);
        assert_eq!(sets[1], sets[2]);
    }

    #[test]
    fn outer_product_orders_by_layer() {
        let d = Block16::dense();
        let tasks = generate_t3_tasks(&d, &d, TaskOrdering::OuterProduct);
        let ks: Vec<u8> = tasks.iter().map(|t| t.k).collect();
        assert!(ks.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn dot_product_orders_by_output() {
        let d = Block16::dense();
        let tasks = generate_t3_tasks(&d, &d, TaskOrdering::DotProduct);
        let ids: Vec<u8> = tasks.iter().map(|t| t.output_id()).collect();
        assert!(ids.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn trivial_tile_pairs_dropped() {
        // A(0,0) occupies only tile-column 0 of tile (0,0); B tile (0,0)
        // provides only tile-row 3: the product is structurally zero.
        let a = Block16::from_fn(|r, c| r == 0 && c == 0);
        let b = Block16::from_fn(|r, c| r == 3 && c == 0);
        let tasks = generate_t3_tasks(&a, &b, TaskOrdering::OuterProduct);
        assert!(tasks.is_empty());
    }

    #[test]
    fn products_sum_matches_block_products() {
        let a = Block16::from_fn(|r, c| (r * 3 + c) % 5 < 2);
        let b = Block16::from_fn(|r, c| (r + c) % 3 != 0);
        let tasks = generate_t3_tasks(&a, &b, TaskOrdering::OuterProduct);
        let sum: u64 = tasks.iter().map(|t| t.products as u64).sum();
        assert_eq!(sum, a.products_with(&b));
    }

    #[test]
    fn adaptive_order_prefers_column_major_for_tall_layers() {
        // A occupies all four tile-rows of tile-column 0; B occupies only
        // tile (0, 0): tasks form a 4-row x 1-col layer -> column-major.
        let a = Block16::from_fn(|_, c| c < 4);
        let b = Block16::from_fn(|r, c| r < 4 && c < 4);
        let tasks = generate_t3_tasks(&a, &b, TaskOrdering::OuterProduct);
        assert_eq!(tasks.len(), 4);
        let is_: Vec<u8> = tasks.iter().map(|t| t.i).collect();
        assert_eq!(is_, vec![0, 1, 2, 3]);
    }

    #[test]
    fn outer_product_wins_fig10_metrics_on_dense() {
        let d = Block16::dense();
        let outp = analyze_ordering(&d, &d, TaskOrdering::OuterProduct, 8).unwrap();
        let dotp = analyze_ordering(&d, &d, TaskOrdering::DotProduct, 8).unwrap();
        let rr = analyze_ordering(&d, &d, TaskOrdering::RowRow, 8).unwrap();
        // Outer-product ordering: no write conflicts, high K alignment.
        assert_eq!(outp.write_conflict_rate, 0.0);
        assert!(dotp.write_conflict_rate > 0.9);
        assert!(outp.avg_aligned_tasks >= rr.avg_aligned_tasks);
        assert!(outp.reuse_a > 0.0 && outp.reuse_b > 0.0);
        assert_eq!(outp.tasks, 64);
    }

    #[test]
    fn analyze_empty_pair_is_none() {
        let e = Block16::empty();
        assert!(analyze_ordering(&e, &e, TaskOrdering::OuterProduct, 8).is_none());
    }

    #[test]
    fn layer_bitmaps_match_fig8_outer_product() {
        // Dense operands: every position of every layer holds a task.
        let d = Block16::dense();
        assert_eq!(layer_bitmaps(&d, &d), [u16::MAX; 4]);
        // Diagonal-tile operands: layer k holds exactly task (k, k).
        let diag = Block16::from_fn(|r, c| r == c);
        let layers = layer_bitmaps(&diag, &diag);
        for (k, &l) in layers.iter().enumerate() {
            assert_eq!(l, 1 << (k * 4 + k), "layer {k}");
        }
        // Empty pair: no tasks anywhere.
        assert_eq!(layer_bitmaps(&Block16::empty(), &d), [0; 4]);
    }

    #[test]
    fn tile_products_dense() {
        assert_eq!(tile_products(u16::MAX, u16::MAX), 64);
        assert_eq!(tile_products(0, u16::MAX), 0);
        // Diagonal tile x dense tile: 4 k's, 1 x 4 each.
        let diag = 0b1000_0100_0010_0001;
        assert_eq!(tile_products(diag, u16::MAX), 16);
    }

    #[test]
    fn tile_products_match_frozen_reference() {
        for a in (0..=u16::MAX).step_by(97) {
            for b in (0..=u16::MAX).step_by(89) {
                assert_eq!(tile_products(a, b), crate::walk_reference::tile_products(a, b));
            }
        }
    }

    #[test]
    fn mv_tasks_confined_to_tile_column_zero() {
        let a = Block16::dense();
        let x = Block16::from_vector_mask(u16::MAX);
        let tasks = generate_t3_tasks(&a, &x, TaskOrdering::OuterProduct);
        assert_eq!(tasks.len(), 16);
        assert!(tasks.iter().all(|t| t.j == 0));
    }
}
