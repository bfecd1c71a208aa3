//! Per-op kernel equivalence sweep on real operands.
//!
//! Every bitmap and numeric primitive in the stack runs on
//! `sparse::kernels::BitwiseKernels`; `ScalarKernels` is the
//! element-at-a-time reference it was extracted from. Each op is a pure
//! function of its arguments, so the two agree on the whole stack exactly
//! when they agree on every argument list the stack hands them. This
//! module builds those argument lists: for every generator regime and
//! seed it derives the matrix and its operands the way the rest of the
//! conformance suite does ([`sparse_vector`], [`spgemm_rhs`],
//! [`dense_operand`]) and compares, bit for bit:
//!
//! * `BbcMatrix::from_csr` against the per-entry encoder, and
//!   `decode_block` / `encode_block` on every stored block;
//! * `block_products` and `block_mul_structure` on every `(a, b)` pair of
//!   the four kernels' counted task streams;
//! * `segment_dot` on every tile pair, pattern and `(m, n)` the Uni-STC
//!   numeric dataflow evaluates, on the tasks and tiles its walk
//!   (`uni_stc::kernels::walk`) hands it;
//! * `dot_gather`, `axpy`, `or_into` and `collect_set_bits` on the inputs
//!   the `sparse::ops` reference kernels give them.
//!
//! Failures shrink through the same ddmin delta-debugger as the rest of
//! the conformance suite and replay with `CONFORMANCE_SEED=<n>`.

use std::fmt::Debug;

use simkit::driver::Invocation;
use simkit::{Block16, TaskStream};
use sparse::kernels::{BitKernels, BitwiseKernels, ScalarKernels};
use sparse::{BbcMatrix, CsrMatrix, DenseMatrix, SparseVector};
use uni_stc::dpg::expand_t3;
use uni_stc::kernels::{self, NumericTask};
use uni_stc::tms::generate_t3_tasks;
use uni_stc::UniStcConfig;

use crate::generators::{dense_operand, dense_vector, sparse_vector, Regime};
use crate::oracle::spgemm_rhs;
use crate::runner::SweepConfig;
use crate::shrink::{shrink_matrix, Counterexample};

/// A reference and a candidate implementation, compared op by op.
struct Pair<'k, R, C> {
    reference: &'k R,
    candidate: &'k C,
}

/// `Ok` when `want == got`, else a message naming the op.
fn same<T: PartialEq + Debug>(
    what: impl FnOnce() -> String,
    want: T,
    got: T,
) -> Result<(), String> {
    if want == got {
        Ok(())
    } else {
        let what = what();
        Err(format!("backend-equivalence/{what}: reference {want:?} != candidate {got:?}"))
    }
}

fn f64_bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn block_rows(b: &Block16) -> [u16; 16] {
    std::array::from_fn(|r| b.row_mask(r))
}

impl<R: BitKernels, C: BitKernels> Pair<'_, R, C> {
    /// `decode_block` and `encode_block` on every stored block.
    fn blocks(&self, label: &str, m: &BbcMatrix) -> Result<(), String> {
        for (i, blk) in m.blocks().enumerate() {
            let (lv1, lv2) = (blk.bitmap_lv1, blk.bitmap_lv2);
            same(
                || format!("{label} decode_block #{i}"),
                self.reference.decode_block(lv1, lv2),
                self.candidate.decode_block(lv1, lv2),
            )?;
            let mut mask = [0u64; 4];
            let mut stored = lv2.iter();
            for t in (0..16).filter(|t| lv1 >> t & 1 == 1) {
                let lane = stored.next().copied().unwrap_or(0);
                mask[t / 4] |= u64::from(lane) << ((t % 4) * 16);
            }
            same(
                || format!("{label} encode_block #{i}"),
                self.reference.encode_block(&mask),
                self.candidate.encode_block(&mask),
            )?;
        }
        Ok(())
    }

    /// `block_products` and `block_mul_structure` on every distinct task.
    fn stream(&self, label: &str, stream: &TaskStream) -> Result<(), String> {
        for (i, (task, _)) in stream.iter().enumerate() {
            let (a, b) = (block_rows(&task.a), block_rows(&task.b));
            same(
                || format!("{label} block_products task #{i}"),
                self.reference.block_products(&a, &b),
                self.candidate.block_products(&a, &b),
            )?;
            same(
                || format!("{label} block_mul_structure task #{i}"),
                self.reference.block_mul_structure(&a, &b),
                self.candidate.block_mul_structure(&a, &b),
            )?;
        }
        Ok(())
    }

    /// `segment_dot` on every T4 code of one dataflow T1 task, with the
    /// A and B tiles the dataflow reads for it.
    fn segments(&self, label: &str, t: &NumericTask<'_>) -> Result<(), String> {
        let cfg = UniStcConfig::default();
        for t3 in generate_t3_tasks(&t.task.a, &t.task.b, cfg.ordering) {
            let (i, j, k) = (usize::from(t3.i), usize::from(t3.j), usize::from(t3.k));
            let (at, bt) = (t.a_tile(i, k), t.b_tile(k, j));
            for code in expand_t3(t3.a_tile, t3.b_tile, cfg.fill_order) {
                let (p, m, n) = (code.pattern, usize::from(code.m), usize::from(code.n));
                let (want, want_lanes) = self.reference.segment_dot(p, &at, &bt, m, n);
                let (got, got_lanes) = self.candidate.segment_dot(p, &at, &bt, m, n);
                let what = || format!("{label} segment_dot({p:#x}, m={m}, n={n}) tile {i}{j}{k}");
                same(what, (want.to_bits(), want_lanes), (got.to_bits(), got_lanes))?;
            }
        }
        Ok(())
    }

    /// Every `segment_dot` the numeric dataflow evaluates for `inv`, on
    /// the tasks and tiles its walk (`uni_stc::kernels::walk`) hands it.
    fn dataflow(&self, label: &str, inv: Invocation<'_>, dense: &[f64]) -> Result<(), String> {
        let mut first = Ok(());
        kernels::walk(inv, dense, |t| {
            if first.is_ok() {
                first = self.segments(label, t);
            }
        });
        first
    }

    /// The word and numeric primitives on the `sparse::ops` inputs:
    /// `dot_gather` per SpMV row, `axpy` per SpMM row update, and the
    /// SpMSpV touch set and the SpGEMM row overlays through `or_into`
    /// and `collect_set_bits`.
    fn sparse_ops(&self, ops: &Operands) -> Result<(), String> {
        let (a, bt) = (&ops.a, &ops.bt);
        for r in 0..a.nrows() {
            let (cols, vals) = a.row(r);
            same(
                || format!("dot_gather row {r}"),
                self.reference.dot_gather(cols, vals, &ops.x).to_bits(),
                self.candidate.dot_gather(cols, vals, &ops.x).to_bits(),
            )?;
            let (mut want, mut got) = (vec![0.0; ops.b.ncols()], vec![0.0; ops.b.ncols()]);
            for (&k, &v) in cols.iter().zip(vals) {
                self.reference.axpy(&mut want, v, ops.b.row(k as usize));
                self.candidate.axpy(&mut got, v, ops.b.row(k as usize));
                same(|| format!("axpy row {r}, k {k}"), f64_bits(&want), f64_bits(&got))?;
            }
        }

        let mut touched = vec![0u64; a.nrows().div_ceil(64)];
        let at = a.to_csc();
        for (col, _) in ops.sx.iter() {
            for &r in at.col(col).0 {
                touched[r as usize / 64] |= 1 << (r % 64);
            }
        }
        self.set_bits("spmspv touched rows", &touched, a.nrows())?;

        let n = bt.ncols();
        let words = n.div_ceil(64);
        let mut brows = vec![0u64; bt.nrows() * words];
        for k in 0..bt.nrows() {
            for &c in bt.row(k).0 {
                brows[k * words + c as usize / 64] |= 1 << (c % 64);
            }
        }
        for r in 0..a.nrows() {
            let (mut want, mut got) = (vec![0u64; words], vec![0u64; words]);
            for &k in a.row(r).0 {
                let src = &brows[k as usize * words..(k as usize + 1) * words];
                self.reference.or_into(&mut want, src);
                self.candidate.or_into(&mut got, src);
                same(|| format!("or_into row {r}, k {k}"), &want, &got)?;
            }
            self.set_bits(&format!("spgemm row {r}"), &want, n)?;
        }
        Ok(())
    }

    fn set_bits(&self, label: &str, words: &[u64], len_bits: usize) -> Result<(), String> {
        let (mut want, mut got) = (Vec::new(), Vec::new());
        self.reference.collect_set_bits(words, len_bits, &mut want);
        self.candidate.collect_set_bits(words, len_bits, &mut got);
        same(|| format!("{label} collect_set_bits"), want, got)
    }
}

/// One case's matrix and the operands every kernel derives from its seed.
struct Operands {
    a: CsrMatrix,
    bt: CsrMatrix,
    bbc: BbcMatrix,
    bbc_b: BbcMatrix,
    x: Vec<f64>,
    sx: SparseVector,
    b: DenseMatrix,
}

impl Operands {
    fn new(a: &CsrMatrix, seed: u64) -> Self {
        let n_cols = 1 + (seed as usize % 21);
        let bt = spgemm_rhs(a);
        Operands {
            bbc: BbcMatrix::from_csr(a),
            bbc_b: BbcMatrix::from_csr(&bt),
            x: dense_vector(a.ncols(), seed),
            sx: sparse_vector(a.ncols(), seed),
            b: dense_operand(a.ncols(), n_cols, seed),
            a: a.clone(),
            bt,
        }
    }
}

/// Compares `candidate` with `reference` on every op call the stack
/// makes for `a` and the operands derived from `seed`, bit for bit.
///
/// # Errors
///
/// Returns a message naming the first diverging op and its arguments.
pub fn check_kernels<R: BitKernels, C: BitKernels>(
    a: &CsrMatrix,
    seed: u64,
    reference: &R,
    candidate: &C,
) -> Result<(), String> {
    let ops = Operands::new(a, seed);
    let pair = Pair { reference, candidate };
    for (label, csr, bbc) in [("A", &ops.a, &ops.bbc), ("B", &ops.bt, &ops.bbc_b)] {
        if *bbc != BbcMatrix::from_csr_per_entry(csr) {
            return Err(format!(
                "backend-equivalence/{label}: from_csr differs from the per-entry encoder"
            ));
        }
        pair.blocks(label, bbc)?;
    }
    let sx = ops.sx.to_dense();
    for (inv, dense) in [
        (Invocation::SpMV(&ops.bbc), &ops.x[..]),
        (Invocation::SpMSpV(&ops.bbc, &ops.sx), &sx[..]),
        (Invocation::SpMM(&ops.bbc, ops.b.ncols()), ops.b.as_slice()),
        (Invocation::SpGEMM(&ops.bbc, &ops.bbc_b), &[][..]),
    ] {
        let label = inv.kernel().to_string().to_lowercase();
        let stream = inv.stream().map_err(|e| e.to_string())?;
        pair.stream(&label, &stream)?;
        pair.dataflow(&label, inv, dense)?;
    }
    pair.sparse_ops(&ops)
}

/// [`check_kernels`] with the scalar reference against the kernels
/// production code runs.
///
/// # Errors
///
/// As [`check_kernels`].
pub fn check_case(a: &CsrMatrix, seed: u64) -> Result<(), String> {
    check_kernels(a, seed, &ScalarKernels, &BitwiseKernels)
}

fn shrunk_failure(
    regime: Regime,
    law: String,
    seed: u64,
    detail: String,
    a: &CsrMatrix,
    still_fails: &dyn Fn(&CsrMatrix) -> bool,
) -> Box<Counterexample> {
    Box::new(Counterexample {
        regime: regime.name(),
        law,
        seed,
        detail,
        shrunk: shrink_matrix(a, still_fails),
    })
}

/// Sweeps every generator regime x seed through [`check_case`].
///
/// Returns the number of `(regime, seed)` cases checked.
///
/// # Errors
///
/// The first divergence is ddmin-shrunk and returned as a
/// [`Counterexample`] carrying its `CONFORMANCE_SEED` replay line.
pub fn run_backend_sweep(
    base_seed: u64,
    cfg: &SweepConfig,
) -> Result<usize, Box<Counterexample>> {
    let mut cases = 0usize;
    for regime in Regime::ALL {
        for s in 0..cfg.seeds_per_regime {
            let seed = base_seed.wrapping_add(s);
            let a = regime.generate(seed);
            cases += 1;
            if let Err(detail) = check_case(&a, seed) {
                let law = "backend-equivalence scalar vs bitwise".to_owned();
                return Err(shrunk_failure(regime, law, seed, detail, &a, &|m| {
                    check_case(m, seed).is_err()
                }));
            }
        }
    }
    Ok(cases)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DEFAULT_SEED;

    #[test]
    fn scalar_vs_bitwise_single_seed_sweep_is_clean() {
        let cfg = SweepConfig { seeds_per_regime: 1, ..SweepConfig::default() };
        let cases = run_backend_sweep(DEFAULT_SEED, &cfg)
            .unwrap_or_else(|ce| panic!("seed {DEFAULT_SEED}:\n{ce}"));
        assert_eq!(cases, Regime::ALL.len());
    }

    /// The bitwise kernels with every nonzero segment dot product one ULP
    /// off: the kind of drift a reordered f64 accumulation produces.
    struct OneUlpDot;

    impl BitKernels for OneUlpDot {
        fn rank(&self, words: &[u64], bit: usize) -> usize {
            BitwiseKernels.rank(words, bit)
        }
        fn or_into(&self, acc: &mut [u64], src: &[u64]) {
            BitwiseKernels.or_into(acc, src);
        }
        fn collect_set_bits(&self, words: &[u64], len_bits: usize, out: &mut Vec<u32>) {
            BitwiseKernels.collect_set_bits(words, len_bits, out);
        }
        fn decode_block(&self, lv1: u16, lv2: &[u16]) -> [u16; 16] {
            BitwiseKernels.decode_block(lv1, lv2)
        }
        fn encode_block(&self, mask: &[u64; 4]) -> sparse::kernels::BlockMeta {
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
            let (sum, lanes) = BitwiseKernels.segment_dot(pattern, a_tile, b_tile, m, n);
            let nudged = if sum == 0.0 { sum } else { f64::from_bits(sum.to_bits() ^ 1) };
            (nudged, lanes)
        }
        fn dot_gather(&self, cols: &[u32], vals: &[f64], x: &[f64]) -> f64 {
            BitwiseKernels.dot_gather(cols, vals, x)
        }
        fn axpy(&self, acc: &mut [f64], scale: f64, b: &[f64]) {
            BitwiseKernels.axpy(acc, scale, b);
        }
    }

    #[test]
    fn diff_catches_a_one_ulp_numeric_nudge() {
        let a = Regime::BlockAligned16.generate(3);
        check_kernels(&a, 3, &ScalarKernels, &BitwiseKernels).expect("bitwise is exact");
        let err = check_kernels(&a, 3, &ScalarKernels, &OneUlpDot)
            .expect_err("a one-ULP segment_dot drift must be flagged");
        assert!(err.contains("segment_dot"), "{err}");
    }

    #[test]
    fn failing_pair_shrinks_and_carries_the_replay_seed() {
        // An always-failing predicate exercises the shrink + replay
        // plumbing without needing a genuinely broken implementation.
        let regime = Regime::Banded;
        let seed = 11u64;
        let a = regime.generate(seed);
        let ce = shrunk_failure(
            regime,
            "backend-equivalence scalar vs bitwise".to_owned(),
            seed,
            "synthetic divergence".to_owned(),
            &a,
            &|m| m.nnz() > 0,
        );
        let text = ce.to_string();
        assert!(text.contains(&format!("CONFORMANCE_SEED={seed}")), "{text}");
        assert!(ce.shrunk.nnz() <= a.nnz(), "shrinking must not grow the witness");
    }
}
