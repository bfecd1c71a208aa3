//! Trapezoid (Yang et al., ISCA'24), throughput-aligned as in the paper.
//!
//! Trapezoid is a versatile dense/sparse matrix engine with three modes
//! and rigid T3 geometries (Table VI, 64-MAC column):
//!
//! * **TrIP** (inner product): 16 x 2 x 2,
//! * **TrGT** (Gustavson, tall): 16 x 4 x 1,
//! * **TrGS** (Gustavson, square): 8 x 4 x 2.
//!
//! Each mode assigns one PE row per (compacted nonempty) A row; a PE row
//! processes a positional `k0`-wide K window against a positional `n0`-wide
//! B-column window per cycle, and a row group finishes when its *slowest*
//! row finishes — the
//! per-row **load imbalance** the paper blames for Trapezoid's modest
//! SpGEMM gains on irregular matrices (Section VI-D). Each T1 task runs
//! under every mode and the best is kept, matching the paper's
//! "best-performing configuration" methodology.

use crate::util::{bits, lowest_bits, nibble_counts};
use simkit::{network, NetworkCosts, Precision, T1Result, T1Task, TileEngine};

/// The Trapezoid baseline (performance comparison only, as in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trapezoid {
    precision: Precision,
    /// TrIP, TrGT and TrGS at this precision (Table VI).
    modes: [Geometry; 3],
    /// `timed_by[i]`: the first mode with mode `i`'s geometry. Equal
    /// geometries (TrIP and TrGT at FP32) time equally, so each distinct
    /// one is timed once.
    timed_by: [usize; 3],
}

impl Trapezoid {
    /// Creates the engine at the given precision.
    pub fn new(precision: Precision) -> Self {
        let modes = match precision {
            Precision::Fp64 => [(16, 2, 2), (16, 4, 1), (8, 4, 2)],
            Precision::Fp32 => [(16, 4, 2), (16, 4, 2), (8, 4, 4)],
            Precision::Fp16 => [(16, 4, 4), (16, 8, 2), (8, 8, 4)],
        }
        .map(|(m0, n0, k0)| Geometry { m0, n0, k0 });
        let timed_by =
            std::array::from_fn(|i| modes.iter().position(|g| *g == modes[i]).unwrap_or(i));
        Trapezoid { precision, modes, timed_by }
    }
}

/// Row-cycles of one PE row: at most `(16 / k0) * (16 / n0)` window pairs,
/// 64 for every Table VI geometry (`k0 * n0 >= 4`).
const MAX_ROW_CYCLES: usize = 64;

/// The low bit of each 16-bit lane of a `u64`: four A rows to a word.
const LANE_LSB: u64 = 0x0001_0001_0001_0001;

/// One mode's rigid T3 geometry: `m0` PE rows per group, each taking a
/// `k0`-wide K window against an `n0`-wide B-column window per cycle.
///
/// Each PE row runs one row-cycle per positional `k0`-wide K window x
/// `n0`-wide B-column window quantum that holds a useful product (the
/// rigid T3 geometry of Table VI: scattered nonzeros across windows waste
/// lanes, like the other fixed-shape designs). Nonempty rows are compacted
/// into groups of `m0`, and cycle `t` of a group sums the `t`-th row-cycle
/// of each of its rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Geometry {
    m0: usize,
    n0: usize,
    k0: usize,
}

/// One task as every mode reads it.
struct Operands {
    /// `n_cols` clamped into `1..=16`: columns past it hold no product.
    n_total: usize,
    a_rows: [u16; 16],
    /// A's rows four to a word, row `r` in 16-bit lane `r % 4` of word
    /// `r / 4`.
    a_words: [u64; 4],
    /// B's rows, cut to the first `n_total` columns.
    b_rows: [u16; 16],
    /// B's columns (the first `n_total`), as K masks.
    b_cols: [u16; 16],
    /// The K positions whose B row holds a product.
    useful_k: u16,
    /// The A rows with a useful product: the rows every mode schedules.
    live: u16,
    /// The task's products within the first `n_total` columns.
    products: u64,
}

impl Operands {
    fn new(task: &T1Task) -> Self {
        let n_total = task.n_cols.clamp(1, 16);
        let b = task.b.keep_cols(n_total);
        let b_rows: [u16; 16] = std::array::from_fn(|k| b.row_mask(k));
        let b_cols = b.transpose();
        let a_rows: [u16; 16] = std::array::from_fn(|row| task.a.row_mask(row));
        let useful_k = (0..16).fold(0, |any, k| any | u16::from(b_rows[k] != 0) << k);
        let live = (0..16).fold(0, |live, r| live | u16::from(a_rows[r] & useful_k != 0) << r);
        Operands {
            n_total,
            a_rows,
            a_words: std::array::from_fn(|q| {
                (0..4).fold(0, |word, i| word | u64::from(a_rows[4 * q + i]) << (16 * i))
            }),
            b_rows,
            b_cols: std::array::from_fn(|c| b_cols.row_mask(c)),
            useful_k,
            live,
            products: task.a.products_with(&b),
        }
    }

    /// The live rows compacted into groups of `m0`, in row order, each as
    /// the range of row indices it spans (rows in a range but outside
    /// `live` have no row-cycles).
    fn groups(&self, m0: usize) -> impl Iterator<Item = std::ops::Range<usize>> {
        let (mut rest, mut from) = (self.live, 0);
        std::iter::from_fn(move || {
            let group = lowest_bits(rest, m0);
            rest &= !group;
            let to = 16 - group.leading_zeros() as usize;
            let range = from..to;
            from = to;
            (group != 0).then_some(range)
        })
    }
}

impl Geometry {
    /// Folds each `k0`-wide K window of every 16-bit lane of `x` onto the
    /// window's lowest bit, clearing every other bit: bit `k` of a lane
    /// is set when the window starting at `k` meets the lane.
    fn fold(&self, x: u64) -> u64 {
        match self.k0 {
            1 => x,
            2 => (x | x >> 1) & (0x5555 * LANE_LSB),
            4 => {
                let pairs = x | x >> 1;
                (pairs | pairs >> 2) & (0x1111 * LANE_LSB)
            }
            k0 => (1..k0).fold(x, |any, s| any | x >> s) & (window_lows(k0) * LANE_LSB),
        }
    }

    /// Row-cycles of every A row: per n-window `w`, the k-windows in which
    /// the row meets `hit[w]`, the K positions whose B row has a nonzero
    /// in that window. All sixteen rows are counted at once, four to a
    /// word.
    ///
    /// A folded window keeps one bit per k-window, on every `k0`-th
    /// position, so the folds of `k0` n-windows, shifted by `0..k0`, fill
    /// one word without overlap, and one SWAR popcount counts them all.
    fn lens(&self, ops: &Operands) -> [u8; 16] {
        let mut hit = [0u16; 8];
        for c in 0..ops.n_total {
            hit[c / self.n0] |= ops.b_cols[c];
        }
        let hit = &hit[..ops.n_total.div_ceil(self.n0)];
        let words = ops.a_words.map(|rows| {
            let mut bytes = 0;
            for windows in hit.chunks(self.k0) {
                let mut slots = 0;
                for (s, &h) in windows.iter().enumerate() {
                    slots |= self.fold(rows & (u64::from(h) * LANE_LSB)) << s;
                }
                // At most 64 row-cycles per lane, so no byte carries.
                bytes += byte_popcounts(slots);
            }
            // Each lane's two byte counts, summed into its low byte.
            (bytes + (bytes << 8)) >> 8
        });
        std::array::from_fn(|row| (words[row / 4] >> (16 * (row % 4))) as u8)
    }

    /// Cycles of the whole mode: each group lasts as long as its longest
    /// row.
    fn cycles(&self, ops: &Operands, lens: &[u8; 16]) -> usize {
        ops.groups(self.m0).map(|rows| usize::from(longest(&lens[rows]))).sum()
    }

    /// Records the mode's cycles and scheduling decisions into `r`, given
    /// its per-row cycle counts `lens`: cycle `t` of a group sums the
    /// `t`-th row-cycle of each of its rows.
    ///
    /// A row's row-cycles are the nonzero lanes of its k-windows' summed
    /// [`window_counts`], in (k-window, n-window) order, so each adds into
    /// the row's next cycle of the group; a zero lane adds 0 to the cycle
    /// the next nonzero lane fills.
    fn record(&self, ops: &Operands, lens: &[u8; 16], r: &mut T1Result) {
        let lanes = r.util.lanes();
        let n_windows = ops.n_total.div_ceil(self.n0);
        let (lane_bits, lane_mask) = (4 * self.n0, (1u64 << (4 * self.n0)) - 1);
        let counts: [u64; 16] = std::array::from_fn(|k| match n_windows {
            // One window holds every product of the row.
            1 => u64::from(ops.b_rows[k].count_ones()),
            _ => window_counts(ops.b_rows[k], self.n0),
        });
        let lows = window_lows(self.k0) as u16;
        // `+ 1`: a row's zero lanes after its last row-cycle add 0 there.
        let mut sums = [0u16; MAX_ROW_CYCLES + 1];
        for rows in ops.groups(self.m0) {
            let group_cycles = usize::from(longest(&lens[rows.clone()]));
            for &arow in &ops.a_rows[rows] {
                let mut len = 0;
                let mut k_windows = self.fold(u64::from(arow & ops.useful_k)) as u16 & lows;
                while k_windows != 0 {
                    let k_lo = k_windows.trailing_zeros() as usize;
                    k_windows &= k_windows - 1;
                    let word: u64 = (k_lo..k_lo + self.k0)
                        .map(|k| counts[k] & 0u64.wrapping_sub(u64::from(arow >> k & 1)))
                        .sum();
                    for w in 0..n_windows {
                        let used = word >> (lane_bits * w) & lane_mask;
                        sums[len] += used as u16;
                        len += usize::from(used != 0);
                    }
                }
            }
            for used in &mut sums[..group_cycles] {
                r.record_cycle(usize::from(*used).min(lanes));
                *used = 0;
            }
            r.events.sched_ops += 1;
        }
    }
}

/// The longest row-cycle count among `lens` (0 for none).
fn longest(lens: &[u8]) -> u8 {
    lens.iter().copied().max().unwrap_or(0)
}

/// The lowest K position of every `k0`-wide k-window.
fn window_lows(k0: usize) -> u64 {
    (0..16).step_by(k0).fold(0, |lows, k| lows | 1 << k)
}

/// The popcount of each byte of `x`, in that byte.
fn byte_popcounts(x: u64) -> u64 {
    let pairs = x - (x >> 1 & 0x5555_5555_5555_5555);
    let nibbles = (pairs & 0x3333_3333_3333_3333) + (pairs >> 2 & 0x3333_3333_3333_3333);
    (nibbles + (nibbles >> 4)) & 0x0F0F_0F0F_0F0F_0F0F
}

/// The nonzeros of a B row in each `n0`-wide column window, window `w`
/// in the `4 * n0`-bit lane `w` of the result. A lane also holds a
/// k-window's sum of them: at most `k0 * n0 <= 32` products.
fn window_counts(brow: u16, n0: usize) -> u64 {
    match n0 {
        2 => {
            let pairs = u64::from(brow - (brow >> 1 & 0x5555));
            // Nibble `i` (windows 2i and 2i + 1) to 16-bit lane `i`, then
            // each window's 2-bit count to its own byte.
            let lanes =
                pairs & 0xF | (pairs & 0xF0) << 12 | (pairs & 0xF00) << 24 | (pairs & 0xF000) << 36;
            lanes & (0x3 * LANE_LSB) | (lanes & (0xC * LANE_LSB)) << 6
        }
        4 => nibble_counts(brow),
        _ => (0..16 / n0).fold(0, |lanes, w| {
            let window = brow >> (w * n0) & ((1u32 << n0) - 1) as u16;
            lanes | u64::from(window.count_ones()) << (4 * n0 * w)
        }),
    }
}

impl Default for Trapezoid {
    fn default() -> Self {
        Trapezoid::new(Precision::Fp64)
    }
}

impl TileEngine for Trapezoid {
    fn name(&self) -> &str {
        "Trapezoid"
    }

    fn lanes(&self) -> usize {
        self.precision.lanes()
    }

    fn execute(&self, task: &T1Task) -> T1Result {
        let ops = Operands::new(task);
        // Every mode is timed; the first with the fewest cycles is run.
        let mut lens = [[0u8; 16]; 3];
        let mut cycles = [0usize; 3];
        for (i, g) in self.modes.iter().enumerate() {
            let first = self.timed_by[i];
            if first == i {
                lens[i] = g.lens(&ops);
                cycles[i] = g.cycles(&ops, &lens[i]);
            } else {
                (lens[i], cycles[i]) = (lens[first], cycles[first]);
            }
        }
        let best = (0..3).min_by_key(|&i| cycles[i]).unwrap_or(0);
        let mut r = T1Result::new(self.lanes());
        self.modes[best].record(&ops, &lens[best], &mut r);
        // Every product within the columns is useful, and streams its B
        // element into a PE row; a live row fetches its whole A row.
        r.useful = ops.products;
        r.events.b_elems = r.useful;
        r.events.a_elems = bits(ops.live).map(|row| u64::from(ops.a_rows[row].count_ones())).sum();
        // Dot products accumulate inside the PE rows: one partial per
        // structurally nonzero output.
        r.events.partial_updates = u64::from(task.c_nnz());
        r.events.c_writes = r.events.partial_updates;
        r
    }

    fn network_costs(&self) -> NetworkCosts {
        NetworkCosts {
            a: network::crossbar_energy_per_elem(16, 8),
            b: network::crossbar_energy_per_elem(16, 16),
            c_partial: network::crossbar_energy_per_elem(64, 64),
            c_final: network::crossbar_energy_per_elem(64, 64),
        }
    }

    fn area_mm2(&self) -> f64 {
        simkit::area::GENERIC_STC_AREA_MM2
    }

    fn c_network_ports(&self) -> u64 {
        64 * 64
    }
}

/// The schedule as first written, one heap `Vec` per row and k-window:
/// the frozen reference the word-parallel [`Mode`] schedule must match
/// result for result.
#[cfg(test)]
mod reference {
    use super::*;

    impl Trapezoid {
        /// The `(m0, n0, k0)` geometries of TrIP / TrGT / TrGS (Table VI).
        pub(super) fn modes(&self) -> [(usize, usize, usize); 3] {
            self.modes.map(|g| (g.m0, g.n0, g.k0))
        }
    }

    pub(super) fn execute(e: &Trapezoid, task: &T1Task) -> T1Result {
        e.modes()
            .iter()
            .map(|&(m0, n0, k0)| run_mode(e.lanes(), task, m0, n0, k0))
            .min_by_key(|r| r.cycles)
            .expect("at least one mode")
    }

    fn run_mode(lanes: usize, task: &T1Task, m0: usize, n0: usize, k0: usize) -> T1Result {
        let mut r = T1Result::new(lanes);
        let mut rows: Vec<Vec<usize>> = Vec::new();
        let mut row_nnz: Vec<usize> = Vec::new();
        for row in 0..16 {
            let arow = task.a.row_mask(row);
            if arow == 0 {
                continue;
            }
            let sched = row_schedule(arow, task, n0, k0);
            if !sched.is_empty() {
                rows.push(sched);
                row_nnz.push(arow.count_ones() as usize);
            }
        }

        for (group, nnzs) in rows.chunks(m0).zip(row_nnz.chunks(m0)) {
            let group_cycles = group.iter().map(Vec::len).max().unwrap_or(0);
            for t in 0..group_cycles {
                let used: usize = group.iter().map(|s| s.get(t).copied().unwrap_or(0)).sum();
                r.record_cycle(used.min(lanes));
                r.useful += used as u64;
            }
            for (sched, &nnz) in group.iter().zip(nnzs) {
                r.events.a_elems += nnz as u64;
                r.events.b_elems += sched.iter().sum::<usize>() as u64;
            }
            r.events.sched_ops += 1;
        }
        r.events.partial_updates = task.c_structure().nnz() as u64;
        r.events.c_writes = task.c_structure().nnz() as u64;
        r
    }

    /// The row-cycles of A row `arow`, in schedule order.
    pub(super) fn row_schedule(arow: u16, task: &T1Task, n0: usize, k0: usize) -> Vec<usize> {
        let n_total = task.n_cols.max(1);
        let mut sched = Vec::new();
        for k0_lo in (0..16).step_by(k0) {
            let kwin: Vec<usize> =
                (k0_lo..k0_lo + k0).filter(|&k| arow >> k & 1 == 1).collect();
            if kwin.is_empty() {
                continue;
            }
            let union: u16 =
                kwin.iter().map(|&k| task.b.row_mask(k)).fold(0, |a, m| a | m);
            if union == 0 {
                continue;
            }
            for n_lo in (0..n_total).step_by(n0) {
                let width = n0.min(n_total - n_lo);
                let gmask = (((1u32 << width) - 1) as u16) << n_lo;
                let useful: usize = kwin
                    .iter()
                    .map(|&k| (task.b.row_mask(k) & gmask).count_ones() as usize)
                    .sum();
                if useful > 0 {
                    sched.push(useful);
                }
            }
        }
        sched
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::Block16;

    #[test]
    fn dense_block_full_throughput() {
        let e = Trapezoid::default();
        let r = e.execute(&T1Task::mm(Block16::dense(), Block16::dense()));
        // TrIP: 16 rows x (8 k-chunks x 8 col-chunks) balanced = 64 cycles.
        assert_eq!(r.cycles, 64);
        assert_eq!(r.useful, 4096);
        assert!((r.util.mean_utilisation() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mv_uses_k_pairs_per_cycle() {
        // Dense A, dense x: each row has 16 k's in chunks of 2 (TrIP),
        // one column: 8 row-cycles, 16 rows in one group -> 8 cycles.
        let e = Trapezoid::default();
        let r = e.execute(&T1Task::mv(Block16::dense(), u16::MAX));
        assert_eq!(r.useful, 256);
        assert_eq!(r.cycles, 8);
        // 2 useful lanes of the 4 per PE row (N = 1 wastes n0): 50 %.
        assert!((r.util.mean_utilisation() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn load_imbalance_stalls_group() {
        // One heavy row among light rows: the group waits for it.
        let a = Block16::from_fn(|r, c| r == 0 || (r < 8 && c == 0));
        let b = Block16::dense();
        let e = Trapezoid::default();
        let t = T1Task::mm(a, b);
        let r = e.execute(&t);
        assert_eq!(r.useful, t.products());
        // Row 0: 16 k in chunks of 2, x 8 col chunks = 64 row-cycles in
        // TrIP; the light rows idle after their first few.
        assert!(r.cycles >= 32);
        assert!(r.util.mean_utilisation() < 0.5);
    }

    #[test]
    fn empty_rows_are_bypassed() {
        // Unlike GAMMA, Trapezoid compacts nonempty rows into groups.
        let a = Block16::from_fn(|r, c| r == 3 && c < 4);
        let e = Trapezoid::default();
        let r = e.execute(&T1Task::mm(a, Block16::dense()));
        assert_eq!(r.useful, 64);
        // Single row, 2 k-chunks x 8 col-chunks (TrIP) or 1x(4) (TrGS).
        assert!(r.cycles <= 16);
    }

    #[test]
    fn best_mode_is_selected() {
        // A single-k task: TrGT (k0 = 1, n0 = 4) beats TrIP (k0 = 2).
        let a = Block16::from_fn(|_, c| c == 0);
        let b = Block16::from_fn(|r, _| r == 0);
        let e = Trapezoid::default();
        let t = T1Task::mm(a, b);
        let r = e.execute(&t);
        assert_eq!(r.useful, t.products());
        // 16 rows x ceil(16 cols / 4) = 4 row-cycles each, one group.
        assert_eq!(r.cycles, 4);
    }

    #[test]
    fn useful_matches_products() {
        let a = Block16::from_fn(|r, c| (r * 5 + c) % 3 == 0);
        let b = Block16::from_fn(|r, c| (r + c) % 2 == 0);
        let t = T1Task::mm(a, b);
        let r = Trapezoid::default().execute(&t);
        assert_eq!(r.useful, t.products());
    }

    #[test]
    fn mode_geometries_fit_the_fixed_schedule() {
        for p in [Precision::Fp64, Precision::Fp32, Precision::Fp16] {
            for (m0, n0, k0) in Trapezoid::new(p).modes() {
                let row_cycles = 16usize.div_ceil(k0) * 16usize.div_ceil(n0);
                assert!(row_cycles <= MAX_ROW_CYCLES, "{p:?} {m0}x{n0}x{k0}");
                // One byte lane per n-window, and no lane can carry.
                assert!(16usize.div_ceil(n0) <= 8 && k0 * n0 <= 0xFF);
                // `window_counts`: 16 / n0 lanes of 4 * n0 bits fill one
                // `u64`, and a k-window's sum fits its lane; a group's
                // cycle sum fits the `u16` accumulator.
                assert!(k0 * n0 < 1 << (4 * n0) && m0 * k0 * n0 <= usize::from(u16::MAX));
            }
        }
    }

    #[test]
    fn matches_frozen_reference() {
        crate::util::assert_matches_reference(Trapezoid::new, reference::execute);
    }

    #[test]
    fn row_cycles_match_the_reference_schedule_for_every_row_mask() {
        let mut rng = sparse::rng::Rng64::new(0x7A9E_0027);
        let sparse_b = Block16::from_fn(|_, _| rng.next_bool(0.3));
        let b_sides = [
            T1Task::mm(Block16::empty(), Block16::dense()),
            T1Task::mm(Block16::empty(), sparse_b),
            T1Task::mm(Block16::empty(), Block16::dense().keep_cols(5)),
            T1Task::mv(Block16::empty(), 0x5A5A),
        ];
        // Every mode of every precision; a row's length depends on `n0`
        // and `k0` alone, so each such pair is checked once.
        let mut modes: Vec<Geometry> = [Precision::Fp64, Precision::Fp32, Precision::Fp16]
            .into_iter()
            .flat_map(|p| Trapezoid::new(p).modes)
            .collect();
        modes.sort_by_key(|g| (g.n0, g.k0));
        modes.dedup_by_key(|g| (g.n0, g.k0));
        for g in modes {
            for side in b_sides {
                // Sixteen A row masks per task, every mask once.
                for first in (0..=u16::MAX).step_by(16) {
                    let rows = std::array::from_fn(|r| first + r as u16);
                    let task = T1Task { a: Block16::from_rows(rows), ..side };
                    let lens = g.lens(&Operands::new(&task));
                    for (row, &arow) in rows.iter().enumerate() {
                        let got = usize::from(lens[row]);
                        let want = reference::row_schedule(arow, &task, g.n0, g.k0).len();
                        assert_eq!(got, want, "{g:?} {arow:#06x} {task:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn n_cols_zero_runs_as_one_column() {
        let a = Block16::from_fn(|r, c| (r + 3 * c) % 4 == 0);
        for p in [Precision::Fp64, Precision::Fp32, Precision::Fp16] {
            let e = Trapezoid::new(p);
            for b in [Block16::dense(), Block16::from_vector_mask(0x5A5A), a.transpose()] {
                let task = T1Task { a, b, n_cols: 0 };
                assert_eq!(e.execute(&task), reference::execute(&e, &task), "{p:?}");
            }
        }
    }

    #[test]
    fn n_cols_beyond_sixteen_is_clamped_without_panic() {
        let e = Trapezoid::default();
        let dense = T1Task::mm(Block16::dense(), Block16::dense());
        for n_cols in [17, 33, usize::MAX] {
            assert_eq!(e.execute(&T1Task { n_cols, ..dense }), e.execute(&dense));
        }
    }
}
