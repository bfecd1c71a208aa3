//! The T1–T4 task hierarchy (Table III of the paper).

use crate::Block16;

/// The four task levels of the paper's decomposition (Table III).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskLevel {
    /// T1 — one MMA-instruction task (16x16x16 on an A100 WMMA).
    T1,
    /// T2 — one machine-instruction (PTX) task; Uni-STC bypasses this level.
    T2,
    /// T3 — one per-cycle tile task sized to the STC's throughput.
    T3,
    /// T4 — one fine-grained vector task (Uni-STC: a 1x1x<=4 dot product).
    T4,
}

/// An `M x N x K` task size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaskSize {
    /// Output rows.
    pub m: usize,
    /// Output columns.
    pub n: usize,
    /// Reduction depth.
    pub k: usize,
}

impl TaskSize {
    /// Creates an `m x n x k` task size.
    pub const fn new(m: usize, n: usize, k: usize) -> Self {
        TaskSize { m, n, k }
    }

    /// Number of multiply-accumulate slots in the task (`m * n * k`).
    pub const fn macs(&self) -> usize {
        self.m * self.n * self.k
    }
}

impl std::fmt::Display for TaskSize {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}x{}", self.m, self.n, self.k)
    }
}

/// One T1 task: a 16 x `n_cols` x 16 block multiplication described by the
/// structural bitmaps of its operands.
///
/// * **MM tasks** (SpMM block column, SpGEMM block pair): `n_cols == 16`,
///   `b` is a full 16x16 block bitmap.
/// * **MV tasks** (SpMV / SpMSpV): `n_cols == 1`, `b` has the x-segment
///   mask in its single column (see [`Block16::from_vector_mask`]).
///
/// # Example
///
/// ```
/// use simkit::{Block16, T1Task};
///
/// let diag = Block16::from_fn(|r, c| r == c);
/// let mv = T1Task::mv(diag, 0xFFFF);
/// assert_eq!(mv.n_cols, 1);
/// assert_eq!(mv.products(), 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct T1Task {
    /// Structural bitmap of the A block.
    pub a: Block16,
    /// Structural bitmap of the B operand (block, or 16x1 vector segment).
    pub b: Block16,
    /// Logical N dimension, in `1..=16`: 16 for MM tasks, 1 for MV tasks.
    ///
    /// Every constructor yields 1 or 16; a narrower SpMM tail keeps 16 and
    /// narrows `b` with [`Block16::keep_cols`] instead. Engines are
    /// specified on `1..=16` only: those that read the field clamp it into
    /// that range, so 0 runs as 1 and a value above 16 as 16.
    pub n_cols: usize,
}

impl T1Task {
    /// Creates an MM task from two 16x16 block bitmaps.
    pub fn mm(a: Block16, b: Block16) -> Self {
        T1Task { a, b, n_cols: 16 }
    }

    /// Creates an MV task: `x_mask` bit `k` marks `x[k]` nonzero within the
    /// 16-element segment aligned to the A block's columns.
    pub fn mv(a: Block16, x_mask: u16) -> Self {
        T1Task { a, b: Block16::from_vector_mask(x_mask), n_cols: 1 }
    }

    /// Number of intermediate products (useful MAC operations) in the task.
    pub fn products(&self) -> u64 {
        self.a.products_with(&self.b)
    }

    /// Structural bitmap of the output block (MV outputs occupy column 0).
    pub fn c_structure(&self) -> Block16 {
        self.a.mul_structure(&self.b)
    }

    /// Number of structurally nonzero outputs: the `nnz` of
    /// [`T1Task::c_structure`], counted without building it.
    ///
    /// When every B row lies in column 0 (an MV task), an A row writes
    /// one output exactly when it meets the `x` mask, so the count is the
    /// number of such rows. Otherwise C is the OR of the outer products
    /// of A column k and B row k; with C's rows packed four to a word,
    /// each K position ORs its B row into the lanes of the rows whose A
    /// bit k is set.
    pub fn c_nnz(&self) -> u32 {
        const LANE_LSB: u64 = 0x0001_0001_0001_0001;
        let (mut x_mask, mut b_cols) = (0u16, 0u16);
        for k in 0..16 {
            let brow = self.b.row_mask(k);
            x_mask |= u16::from(brow != 0) << k;
            b_cols |= brow;
        }
        if b_cols <= 1 {
            return (0..16).filter(|&r| self.a.row_mask(r) & x_mask != 0).count() as u32;
        }
        let mut a_words = [0u64; 4];
        for r in 0..16 {
            a_words[r / 4] |= u64::from(self.a.row_mask(r)) << (16 * (r % 4));
        }
        let mut c_words = [0u64; 4];
        while x_mask != 0 {
            let k = x_mask.trailing_zeros();
            let brow = u64::from(self.b.row_mask(k as usize)) * LANE_LSB;
            for (c, a) in c_words.iter_mut().zip(&a_words) {
                let rows_with_k = (a >> k & LANE_LSB) * 0xFFFF;
                *c |= rows_with_k & brow;
            }
            x_mask &= x_mask - 1;
        }
        c_words.iter().map(|w| w.count_ones()).sum()
    }

    /// Whether the task produces no products at all (software-level bitmap
    /// check; such tasks are never issued — Algorithm 2 line 13).
    ///
    /// A product needs some K position where A has a nonzero column and B
    /// a nonzero row, so the task is trivial exactly when the OR of A's
    /// rows misses every nonzero row of B: no product is counted.
    pub fn is_trivial(&self) -> bool {
        let (mut a_cols, mut b_rows) = (0u16, 0u16);
        for k in 0..16 {
            a_cols |= self.a.row_mask(k);
            b_rows |= u16::from(self.b.row_mask(k) != 0) << k;
        }
        a_cols & b_rows == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_size_display_and_macs() {
        let s = TaskSize::new(4, 4, 4);
        assert_eq!(s.to_string(), "4x4x4");
        assert_eq!(s.macs(), 64);
    }

    #[test]
    fn mm_task_products_dense() {
        let t = T1Task::mm(Block16::dense(), Block16::dense());
        assert_eq!(t.products(), 4096);
        assert_eq!(t.c_nnz(), 256);
        assert!(!t.is_trivial());
    }

    #[test]
    fn mv_task_masks_k() {
        let a = Block16::dense();
        let t = T1Task::mv(a, 0x00FF);
        // Only 8 of 16 k positions active, each contributing 16 products.
        assert_eq!(t.products(), 8 * 16);
        assert_eq!(t.c_nnz(), 16);
    }

    #[test]
    fn trivial_task_detection() {
        let a = Block16::from_fn(|_, c| c == 0); // A only uses k = 0
        let b = Block16::from_fn(|r, _| r == 5); // B only provides k = 5
        let t = T1Task::mm(a, b);
        assert!(t.is_trivial());
    }

    #[test]
    fn is_trivial_is_products_zero() {
        let mut rng = sparse::rng::Rng64::new(0x7_21A1);
        let mut blocks = vec![Block16::empty(), Block16::dense(), Block16::from_fn(|r, c| r == c)];
        for density in [0.01, 0.03, 0.1, 0.3] {
            for _ in 0..24 {
                blocks.push(Block16::from_fn(|_, _| rng.next_bool(density)));
            }
        }
        let mut seen = [false; 2];
        for a in &blocks {
            for b in &blocks {
                let x_mask = rng.next_u64() as u16;
                let mut tasks = vec![
                    T1Task::mm(*a, *b),
                    T1Task::mv(*a, x_mask),
                    T1Task::mv(*a, b.row_mask(3)),
                    T1Task { a: *a, b: *b, n_cols: 0 },
                ];
                tasks.extend((1..=16).map(|width| T1Task::mm(*a, b.keep_cols(width))));
                for task in tasks {
                    assert_eq!(task.is_trivial(), task.products() == 0, "{task:?}");
                    seen[usize::from(task.is_trivial())] = true;
                }
            }
        }
        assert_eq!(seen, [true, true], "both verdicts are sampled");
    }

    #[test]
    fn c_nnz_counts_the_output_structure() {
        let mut rng = sparse::rng::Rng64::new(0xC_0C7);
        for density in [0.0, 0.05, 0.2, 0.5, 1.0] {
            for _ in 0..32 {
                let a = Block16::from_fn(|_, _| rng.next_bool(density));
                let b = Block16::from_fn(|_, _| rng.next_bool(density));
                let x_mask = rng.next_u64() as u16;
                for task in [
                    T1Task::mm(a, b),
                    T1Task::mm(a, b.keep_cols(1)),
                    T1Task::mm(a, b.keep_cols(5)),
                    T1Task::mv(a, x_mask),
                    T1Task::mv(a, b.row_mask(0)),
                ] {
                    assert_eq!(task.c_nnz(), task.c_structure().nnz(), "{task:?}");
                }
            }
        }
    }

    #[test]
    fn mv_output_in_column_zero() {
        let a = Block16::from_fn(|r, c| r == 3 && c == 7);
        let t = T1Task::mv(a, 1 << 7);
        let c = t.c_structure();
        assert!(c.get(3, 0));
        assert_eq!(c.nnz(), 1);
    }
}
