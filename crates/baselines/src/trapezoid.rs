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

use crate::util::bits;
use simkit::{network, NetworkCosts, Precision, T1Result, T1Task, TileEngine};

/// The Trapezoid baseline (performance comparison only, as in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trapezoid {
    precision: Precision,
}

impl Trapezoid {
    /// Creates the engine at the given precision.
    pub fn new(precision: Precision) -> Self {
        Trapezoid { precision }
    }

    /// The `(m0, n0, k0)` geometries of TrIP / TrGT / TrGS (Table VI).
    fn modes(&self) -> [(usize, usize, usize); 3] {
        match self.precision {
            Precision::Fp64 => [(16, 2, 2), (16, 4, 1), (8, 4, 2)],
            Precision::Fp32 => [(16, 4, 2), (16, 4, 2), (8, 4, 4)],
            Precision::Fp16 => [(16, 4, 4), (16, 8, 2), (8, 8, 4)],
        }
    }
}

/// Row-cycles of one PE row: at most `(16 / k0) * (16 / n0)` window pairs,
/// 64 for every Table VI geometry (`k0 * n0 >= 4`).
const MAX_ROW_CYCLES: usize = 64;

/// One mode `(m0, n0, k0)` over one task, in word-parallel form.
///
/// Each PE row runs one row-cycle per positional `k0`-wide K window x
/// `n0`-wide B-column window quantum that holds a useful product (the
/// rigid T3 geometry of Table VI: scattered nonzeros across windows waste
/// lanes, like the other fixed-shape designs). Nonempty rows are compacted
/// into groups of `m0`, and cycle `t` of a group sums the `t`-th row-cycle
/// of each of its rows.
///
/// The B side of the schedule depends on `n0` alone, so it is packed
/// once per distinct `n0` ([`Windows`]) and shared by the modes that use
/// it. Timing a mode needs only which lanes are nonzero, which the
/// per-window `hit` masks give without any sums; only the winning mode is
/// recorded lane by lane.
struct Mode<'w> {
    m0: usize,
    k0: usize,
    windows: &'w Windows,
    /// The lowest K position of every k-window.
    window_lows: u16,
}

/// The B rows A reads, cut into `n0`-wide column windows.
///
/// Every B row's per-n-window product counts are packed into one `u64`,
/// one byte lane per window, so one add per set A bit sums a whole K
/// window. A lane holds at most `k0 * n0 <= 32` products, so no sum
/// carries into the next lane.
struct Windows {
    /// `packed[k]`: byte lane `w` counts B row `k`'s nonzeros in n-window `w`.
    packed: [u64; 16],
    /// `hit[w]`: the K positions whose B row has a nonzero in n-window `w`.
    hit: [u16; 8],
}

impl Windows {
    /// Packs the B rows in `a_cols`, the K positions A reads.
    fn new(task: &T1Task, a_cols: u16, n0: usize) -> Self {
        // `n_cols` outside its documented 1..=16 is clamped into it, so at
        // most 16 / n0 <= 8 windows (one byte lane each) exist.
        let n_total = task.n_cols.clamp(1, 16);
        let (mut packed, mut hit) = ([0u64; 16], [0u16; 8]);
        for k in bits(a_cols) {
            let brow = u32::from(task.b.row_mask(k));
            for (w, window_hit) in hit.iter_mut().enumerate().take(n_total.div_ceil(n0)) {
                let n_lo = w * n0;
                let count = (brow & ((1u32 << n0.min(n_total - n_lo)) - 1) << n_lo).count_ones();
                packed[k] |= u64::from(count) << (8 * w);
                *window_hit |= u16::from(count > 0) << k;
            }
        }
        Windows { packed, hit }
    }
}

impl<'w> Mode<'w> {
    fn new(m0: usize, k0: usize, windows: &'w Windows) -> Self {
        let window_lows = (0..16).step_by(k0).fold(0, |lows, k| lows | 1 << k);
        Mode { m0, k0, windows, window_lows }
    }

    /// Row-cycles of A row `arow`: per n-window, the k-windows in which
    /// `arow` meets a B row with a nonzero there.
    fn row_cycles(&self, arow: u16) -> usize {
        self.windows
            .hit
            .iter()
            .map(|&hit| {
                let meet = arow & hit;
                // Fold each k-window onto its lowest bit.
                let any = (1..self.k0).fold(meet, |any, s| any | meet >> s);
                (any & self.window_lows).count_ones() as usize
            })
            .sum()
    }

    /// Cycles of the whole mode: each group lasts as long as its longest row.
    fn cycles(&self, task: &T1Task) -> usize {
        let (mut total, mut rows, mut longest) = (0, 0, 0);
        for row in 0..16 {
            let len = self.row_cycles(task.a.row_mask(row));
            if len == 0 {
                continue;
            }
            longest = longest.max(len);
            rows += 1;
            if rows == self.m0 {
                total += longest;
                (rows, longest) = (0, 0);
            }
        }
        total + longest
    }

    /// Records the mode's cycles, useful products and fetches into `r`.
    fn record(&self, task: &T1Task, r: &mut T1Result) {
        let k_window = ((1u32 << self.k0) - 1) as u16;
        // K positions with no useful product add nothing to a window.
        let useful_k = self.windows.hit.iter().fold(0, |any, &hit| any | hit);
        let mut group = [0u16; MAX_ROW_CYCLES];
        let (mut rows, mut longest) = (0, 0);
        for row in 0..16 {
            let arow = task.a.row_mask(row);
            let mut len = 0;
            let mut rest = arow & useful_k;
            while rest != 0 {
                let k_lo = rest.trailing_zeros() as usize / self.k0 * self.k0;
                let mut ks = rest & k_window << k_lo;
                rest &= !ks;
                let mut word = 0u64;
                while ks != 0 {
                    word += self.windows.packed[ks.trailing_zeros() as usize];
                    ks &= ks - 1;
                }
                // The nonzero lanes, in window order, are this row's next
                // row-cycles.
                while word != 0 {
                    let shift = word.trailing_zeros() / 8 * 8;
                    group[len] += (word >> shift & 0xFF) as u16;
                    word &= !(0xFF << shift);
                    len += 1;
                }
            }
            if len == 0 {
                continue;
            }
            r.events.a_elems += u64::from(arow.count_ones());
            longest = longest.max(len);
            rows += 1;
            if rows == self.m0 {
                close_group(r, &mut group[..longest]);
                (rows, longest) = (0, 0);
            }
        }
        if rows > 0 {
            close_group(r, &mut group[..longest]);
        }
    }
}

/// Records one row group's cycles (one scheduling decision) and clears
/// its accumulator.
fn close_group(r: &mut T1Result, group: &mut [u16]) {
    let lanes = r.util.lanes();
    for used in group.iter_mut() {
        r.record_cycle(usize::from(*used).min(lanes));
        r.useful += u64::from(*used);
        *used = 0;
    }
    r.events.sched_ops += 1;
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
        // Every mode is timed; the first with the fewest cycles is run.
        let a_cols = (0..16).fold(0, |cols, row| cols | task.a.row_mask(row));
        let geometries = self.modes();
        // Modes with the same `n0` share one packing: the first of them
        // packs it.
        let first_with_n0 =
            geometries.map(|(_, n0, _)| geometries.iter().position(|g| g.1 == n0).unwrap_or(0));
        let windows: [Option<Windows>; 3] = std::array::from_fn(|i| {
            (first_with_n0[i] == i).then(|| Windows::new(task, a_cols, geometries[i].1))
        });
        let modes = std::array::from_fn::<_, 3, _>(|i| {
            let (m0, _, k0) = geometries[i];
            Mode::new(m0, k0, windows[first_with_n0[i]].as_ref().expect("packed by its first mode"))
        });
        // Equal geometries time equally (TrIP and TrGT at FP32): each
        // distinct one is timed once, by its first mode.
        let mut cycles = [0; 3];
        for i in 0..cycles.len() {
            let first = geometries.iter().position(|g| *g == geometries[i]).unwrap_or(i);
            cycles[i] = if first == i { modes[i].cycles(task) } else { cycles[first] };
        }
        let best = (0..modes.len()).min_by_key(|&i| cycles[i]).expect("at least one mode");
        let mut r = T1Result::new(self.lanes());
        modes[best].record(task, &mut r);
        // Every useful product streams its B element into a PE row.
        r.events.b_elems = r.useful;
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

    pub(super) fn execute(e: &Trapezoid, task: &T1Task) -> T1Result {
        e.modes()
            .iter()
            .map(|&(m0, n0, k0)| run_mode(e.lanes(), task, m0, n0, k0))
            .min_by_key(|r| r.cycles)
            .expect("at least one mode")
    }

    fn run_mode(lanes: usize, task: &T1Task, m0: usize, n0: usize, k0: usize) -> T1Result {
        let mut r = T1Result::new(lanes);
        let n_total = task.n_cols.max(1);
        let mut rows: Vec<Vec<usize>> = Vec::new();
        let mut row_nnz: Vec<usize> = Vec::new();
        for row in 0..16 {
            let arow = task.a.row_mask(row);
            if arow == 0 {
                continue;
            }
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
            }
        }
    }

    #[test]
    fn matches_frozen_reference() {
        crate::util::assert_matches_reference(Trapezoid::new, reference::execute);
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
