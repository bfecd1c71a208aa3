//! Frozen copy of the verifier's kernel checks from before they ran over
//! counted streams: the derived [`StreamModel`] constructors, which
//! materialise one routed [`T1Node`] per *issued* T1 task, and the four
//! per-kernel checks built on them. Test-only; the differential tests
//! below pin [`Verifier::verify`] and [`UstcVerifier`] to it.

use simkit::driver::{Kernel, StreamVerifier, VerifyError};
use simkit::Block16;
use sparse::{BbcMatrix, SparseVector};
use simkit::driver::Invocation;
use uni_stc::compiler::compile;
use uni_stc::tms::generate_t3_tasks;
use uni_stc::UniStcConfig;

use crate::diag::{Code, Diagnostic, Report, Span};
use crate::model::{route_tasks, StreamModel, T1Node};
use crate::verifier::{to_result, Verifier};
use crate::UstcVerifier;

fn push_node(
    cfg: &UniStcConfig,
    t1: &mut Vec<T1Node>,
    block: Option<usize>,
    a: &Block16,
    b: &Block16,
) {
    let tasks = generate_t3_tasks(a, b, cfg.ordering);
    if tasks.is_empty() {
        return; // trivial T1 tasks never reach the engine
    }
    t1.push(T1Node { block, t3: route_tasks(cfg, &tasks) });
}

/// SpMV: one T1 node per stored block of `A`.
pub(crate) fn spmv(cfg: &UniStcConfig, a: &BbcMatrix) -> StreamModel {
    let mut t1 = Vec::new();
    let x = Block16::from_vector_mask(u16::MAX);
    for bi in 0..a.block_count() {
        let bits = Block16::from_bbc(&a.block(bi));
        push_node(cfg, &mut t1, Some(bi), &bits, &x);
    }
    StreamModel { kernel: Kernel::SpMV, t1 }
}

/// SpMSpV: one T1 node per stored block whose `x` segment has a nonzero.
pub(crate) fn spmspv(cfg: &UniStcConfig, a: &BbcMatrix, x: &SparseVector) -> StreamModel {
    let mut t1 = Vec::new();
    for bi in 0..a.block_count() {
        let blk = a.block(bi);
        let mask = x.segment_mask16(blk.block_col);
        if mask == 0 {
            continue;
        }
        let bits = Block16::from_bbc(&blk);
        push_node(cfg, &mut t1, Some(bi), &bits, &Block16::from_vector_mask(mask));
    }
    StreamModel { kernel: Kernel::SpMSpV, t1 }
}

/// SpMM: `ceil(n_cols / 16)` T1 nodes per stored block of `A`.
pub(crate) fn spmm(cfg: &UniStcConfig, a: &BbcMatrix, n_cols: usize) -> StreamModel {
    let mut t1 = Vec::new();
    if n_cols == 0 {
        return StreamModel { kernel: Kernel::SpMM, t1 };
    }
    let col_blocks = n_cols.div_ceil(16);
    let tail = n_cols - (col_blocks - 1) * 16;
    for bi in 0..a.block_count() {
        let bits = Block16::from_bbc(&a.block(bi));
        for cb in 0..col_blocks {
            let width = if cb + 1 == col_blocks { tail } else { 16 };
            push_node(cfg, &mut t1, Some(bi), &bits, &Block16::dense().keep_cols(width));
        }
    }
    StreamModel { kernel: Kernel::SpMM, t1 }
}

/// SpGEMM: the block-level outer-product walk of Algorithm 2.
pub(crate) fn spgemm(cfg: &UniStcConfig, a: &BbcMatrix, b: &BbcMatrix) -> StreamModel {
    assert_eq!(a.block_cols(), b.block_rows(), "SpGEMM block grids do not conform");
    let mut t1 = Vec::new();
    for bi in 0..a.block_rows() {
        for ai in a.blocks_in_row(bi) {
            let a_blk = a.block(ai);
            let a_bits = Block16::from_bbc(&a_blk);
            for bj in b.blocks_in_row(a_blk.block_col) {
                let b_bits = Block16::from_bbc(&b.block(bj));
                push_node(cfg, &mut t1, Some(ai), &a_bits, &b_bits);
            }
        }
    }
    StreamModel { kernel: Kernel::SpGEMM, t1 }
}

pub(crate) fn verify_spmv(v: &Verifier, a: &BbcMatrix, n_warps: usize) -> Report {
    let mut report = v.verify_matrix(a);
    if report.has_errors() {
        return report;
    }
    report.merge(v.verify_model(&spmv(v.config(), a)));
    if let Some(kernel) = compile(v.config(), Invocation::SpMV(a), n_warps.max(1)) {
        report.merge(v.verify_kernel(&kernel));
    }
    report
}

pub(crate) fn verify_spmspv(v: &Verifier, a: &BbcMatrix, x: &SparseVector) -> Report {
    let mut report = v.verify_matrix(a);
    if x.dim() != a.ncols() {
        report.push(Diagnostic::new(
            Code::CorruptMetadata,
            Span::none(),
            format!(
                "SpMSpV operand shapes do not conform: x has length {} but A is {}x{}",
                x.dim(),
                a.nrows(),
                a.ncols()
            ),
        ));
    }
    if report.has_errors() {
        return report;
    }
    report.merge(v.verify_model(&spmspv(v.config(), a, x)));
    report
}

pub(crate) fn verify_spmm(v: &Verifier, a: &BbcMatrix, n_cols: usize) -> Report {
    let mut report = v.verify_matrix(a);
    if report.has_errors() {
        return report;
    }
    report.merge(v.verify_model(&spmm(v.config(), a, n_cols)));
    report
}

pub(crate) fn verify_spgemm(v: &Verifier, a: &BbcMatrix, b: &BbcMatrix, n_warps: usize) -> Report {
    let mut report = v.verify_matrix(a);
    report.merge(v.verify_matrix(b));
    if a.block_cols() != b.block_rows() {
        report.push(Diagnostic::new(
            Code::CorruptMetadata,
            Span::none(),
            format!(
                "SpGEMM block grids do not conform ({}x{} blocks vs {}x{})",
                a.block_rows(),
                a.block_cols(),
                b.block_rows(),
                b.block_cols()
            ),
        ));
    }
    if report.has_errors() {
        return report;
    }
    report.merge(v.verify_model(&spgemm(v.config(), a, b)));
    if let Some(kernel) = compile(v.config(), Invocation::SpGEMM(a, b), n_warps.max(1)) {
        report.merge(v.verify_kernel(&kernel));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use conformance::generators::{sparse_vector, Regime};
    use sparse::{BbcField, CooMatrix, CsrMatrix};
    use uni_stc::tms::TaskOrdering;
    use uni_stc::FillOrder;

    const N_COLS: [usize; 7] = [0, 1, 15, 16, 17, 40, 64];

    /// Gating on and off under every ordering and fill order, plus a few
    /// DPG counts around the default's.
    fn configs() -> Vec<UniStcConfig> {
        let mut out = Vec::new();
        for power_gating in [true, false] {
            for ordering in
                [TaskOrdering::OuterProduct, TaskOrdering::DotProduct, TaskOrdering::RowRow]
            {
                for fill_order in [FillOrder::ZShape, FillOrder::NShape] {
                    out.push(UniStcConfig {
                        power_gating,
                        ordering,
                        fill_order,
                        ..Default::default()
                    });
                }
            }
        }
        for n_dpg in [1, 3, 16] {
            out.push(UniStcConfig { n_dpg, ..Default::default() });
        }
        out
    }

    fn csr(
        rows: usize,
        cols: usize,
        entries: impl IntoIterator<Item = (usize, usize)>,
    ) -> CsrMatrix {
        let mut coo = CooMatrix::new(rows, cols);
        for (r, c) in entries {
            coo.push(r, c, 1.0);
        }
        CsrMatrix::try_from(coo).expect("in-range coordinates")
    }

    /// Structured operators whose blocks repeat, so distinct tasks stand
    /// for many issued ones.
    fn repetitive() -> Vec<CsrMatrix> {
        let n = 24;
        let star5 = (0..n * n).flat_map(|i| {
            let (r, c) = (i / n, i % n);
            let mut e = vec![(i, i)];
            if r > 0 {
                e.push((i, i - n));
            }
            if r + 1 < n {
                e.push((i, i + n));
            }
            if c > 0 {
                e.push((i, i - 1));
            }
            if c + 1 < n {
                e.push((i, i + 1));
            }
            e
        });
        vec![
            csr(n * n, n * n, star5),
            csr(96, 96, (0..96).flat_map(|i| [(i, i), (i, (i * 7) % 96)])),
            csr(40, 72, (0..40).flat_map(|i| [(i, i), (i, i + 32)])),
        ]
    }

    /// Every operand set of the sweep: `(name, A, x, B)` with `B` = `Aᵀ`.
    fn operands() -> Vec<(String, BbcMatrix, SparseVector, BbcMatrix)> {
        let mut out = Vec::new();
        let mut add = |name: String, a: CsrMatrix, seed: u64| {
            let x = sparse_vector(a.ncols(), seed);
            let b = BbcMatrix::from_csr(&a.transpose());
            out.push((name, BbcMatrix::from_csr(&a), x, b));
        };
        for regime in Regime::ALL {
            for seed in 0..3 {
                add(format!("{}/{seed}", regime.name()), regime.generate(seed), seed);
            }
        }
        for (i, a) in repetitive().into_iter().enumerate() {
            add(format!("repetitive/{i}"), a, 11);
        }
        out
    }

    fn codes(r: &Report) -> std::collections::BTreeSet<&'static str> {
        r.diagnostics().iter().map(|d| d.code.as_str()).collect()
    }

    /// The counted verifier's report against the reference's: the same
    /// first error and code set, and each distinct finding reported once
    /// at its first appearance, so the new findings are the reference's
    /// in the same order with repeats dropped.
    fn assert_agrees(what: &str, new: &Report, old: &Report) {
        assert_eq!(new.first_error(), old.first_error(), "{what}: first error");
        assert_eq!(codes(new), codes(old), "{what}: codes");
        let mut rest = old.diagnostics().iter();
        for d in new.diagnostics() {
            assert!(rest.any(|o| o == d), "{what}: {d} is not a reference finding in order");
        }
    }

    fn assert_verdict(what: &str, new: Result<(), VerifyError>, old: Report) {
        assert_eq!(new, to_result(old), "{what}: UstcVerifier verdict");
    }

    #[test]
    fn counted_verifier_matches_the_frozen_reference() {
        let ops = operands();
        for cfg in configs() {
            let v = Verifier::new(cfg);
            let u = UstcVerifier::new(cfg);
            let warps = UstcVerifier::DEFAULT_WARPS;
            for (name, a, x, b) in &ops {
                let what = format!("{name} {cfg:?}");
                let old = verify_spmv(&v, a, 3);
                assert_agrees(&format!("spmv {what}"), &v.verify(Invocation::SpMV(a), 3), &old);
                assert_verdict(
                    &format!("spmv {what}"),
                    u.verify_spmv(a),
                    verify_spmv(&v, a, warps),
                );
                let old = verify_spmspv(&v, a, x);
                let new = v.verify(Invocation::SpMSpV(a, x), 1);
                assert_agrees(&format!("spmspv {what}"), &new, &old);
                assert_verdict(&format!("spmspv {what}"), u.verify_spmspv(a, x), old);
                for n_cols in N_COLS {
                    let old = verify_spmm(&v, a, n_cols);
                    let w = format!("spmm {n_cols} {what}");
                    assert_agrees(&w, &v.verify(Invocation::SpMM(a, n_cols), 1), &old);
                    assert_verdict(&w, u.verify_spmm(a, n_cols), old);
                }
                let old = verify_spgemm(&v, a, b, 3);
                let new = v.verify(Invocation::SpGEMM(a, b), 3);
                assert_agrees(&format!("spgemm {what}"), &new, &old);
                let old = verify_spgemm(&v, a, b, warps);
                assert_verdict(&format!("spgemm {what}"), u.verify_spgemm(a, b), old);
            }
        }
    }

    #[test]
    fn rejections_match_the_frozen_reference() {
        let cfg = UniStcConfig::default();
        let (v, u) = (Verifier::new(cfg), UstcVerifier::new(cfg));
        let warps = UstcVerifier::DEFAULT_WARPS;
        for (name, a, x, b) in operands() {
            // Corrupt metadata, in A and in B.
            if a.block_count() > 0 {
                let mut bad = a.clone();
                bad.flip_bit(BbcField::BitmapLv2, 0, 3);
                let what = format!("corrupt {name}");
                let new = v.verify(Invocation::SpMV(&bad), warps);
                assert_agrees(&what, &new, &verify_spmv(&v, &bad, warps));
                assert_verdict(&what, u.verify_spmv(&bad), verify_spmv(&v, &bad, warps));
                assert_verdict(&what, u.verify_spmspv(&bad, &x), verify_spmspv(&v, &bad, &x));
                assert_verdict(&what, u.verify_spmm(&bad, 40), verify_spmm(&v, &bad, 40));
                assert_verdict(
                    &what,
                    u.verify_spgemm(&bad, &b),
                    verify_spgemm(&v, &bad, &b, warps),
                );
                assert_verdict(
                    &what,
                    u.verify_spgemm(&b, &bad),
                    verify_spgemm(&v, &b, &bad, warps),
                );
            }
            // An `x` one element short (or long, for an empty operator).
            let dim = a.ncols().checked_sub(1).unwrap_or(1);
            let short = SparseVector::try_new(dim, Vec::new(), Vec::new()).expect("empty vector");
            let what = format!("short x {name}");
            let new = v.verify(Invocation::SpMSpV(&a, &short), 1);
            assert_agrees(&what, &new, &verify_spmspv(&v, &a, &short));
            assert_verdict(&what, u.verify_spmspv(&a, &short), verify_spmspv(&v, &a, &short));
            // A times A conforms only when A's block grid is square.
            if a.block_cols() != a.block_rows() {
                let what = format!("non-conforming {name}");
                let old = verify_spgemm(&v, &a, &a, warps);
                assert_agrees(&what, &v.verify(Invocation::SpGEMM(&a, &a), warps), &old);
                assert_verdict(&what, u.verify_spgemm(&a, &a), old);
            }
        }
    }

    #[test]
    fn reference_models_mirror_driver_task_counts() {
        let cfg = UniStcConfig::default();
        for (name, a, x, b) in operands() {
            let non_trivial =
                |tasks: Vec<simkit::T1Task>| tasks.iter().filter(|t| !t.is_trivial()).count();
            assert_eq!(
                spmv(&cfg, &a).t1.len(),
                non_trivial(simkit::driver::spmv_tasks(&a)),
                "{name}"
            );
            assert_eq!(
                spmspv(&cfg, &a, &x).t1.len(),
                non_trivial(simkit::driver::spmspv_tasks(&a, &x))
            );
            assert_eq!(
                spmm(&cfg, &a, 40).t1.len(),
                non_trivial(simkit::driver::spmm_tasks(&a, 40))
            );
            assert_eq!(
                spgemm(&cfg, &a, &b).t1.len(),
                non_trivial(simkit::driver::spgemm_tasks(&a, &b))
            );
        }
    }
}
