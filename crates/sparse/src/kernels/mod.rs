//! Kernel backends: swappable implementations of the bitmap hot paths.
//!
//! The BBC format is bitmaps all the way down — encode/decode of 16×16
//! blocks, level-1/level-2 mask overlay products, popcount prefix sums
//! for segment offsets, and the SDPU segment numeric loop. This module
//! extracts those hot paths behind the [`BitKernels`] trait so the same
//! structural semantics can be served by different host implementations:
//!
//! * [`scalar`] — the element-at-a-time reference code this layer was
//!   extracted from. Slow, obvious, and the oracle every other backend
//!   is differentially tested against.
//! * [`bitwise`] — u64 word-at-a-time bit tricks: whole-word AND/OR
//!   overlays, `count_ones` prefix sums, SWAR encode/decode of a 16×16
//!   block packed as 4×u64. The default.
//!
//! # Selection
//!
//! The active backend is a process-wide selection, read lazily from the
//! `USTC_BACKEND` environment variable (`scalar` | `bitwise`)
//! the first time [`active_kind`] runs, and overridable at runtime via
//! [`set_backend`]. Unknown names warn on stderr and fall back to the
//! default ([`BackendKind::Bitwise`]). Worker threads (e.g. the
//! `runtime` crate's shard pool) inherit the ambient selection — no
//! per-task plumbing is needed.
//!
//! # Equivalence contract
//!
//! Every backend must be *bit-identical* to the scalar reference: the
//! same structural outputs (masks, offsets, set-bit orders) and the
//! same floating-point results. f64 addition is not associative, so
//! numeric methods ([`BitKernels::segment_dot`],
//! [`BitKernels::dot_gather`], [`BitKernels::axpy`]) must preserve the
//! reference accumulation order exactly — bit tricks may only change
//! how indices and masks are *computed*, never the order values are
//! combined in. The contract is enforced three ways: the word-boundary
//! differential harness here ([`differential_check`]), the
//! `conformance::backend_equivalence` sweep (all generator regimes ×
//! all kernels, EXACT tolerance), and the CI backend matrix.

pub mod bitwise;
pub mod scalar;

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, PoisonError};

/// Identifier for a compiled-in kernel backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Element-at-a-time reference implementation.
    Scalar,
    /// u64 word-at-a-time bit-trick implementation (the default).
    Bitwise,
}

/// The backend used when nothing is selected.
pub const DEFAULT_BACKEND: BackendKind = BackendKind::Bitwise;

impl BackendKind {
    /// Every backend compiled into this build.
    pub const ALL: &'static [BackendKind] = &[BackendKind::Scalar, BackendKind::Bitwise];

    /// Stable lower-case name; also the accepted `USTC_BACKEND` value.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Scalar => "scalar",
            BackendKind::Bitwise => "bitwise",
        }
    }

    /// Parses a backend name as used by `USTC_BACKEND` and the bench
    /// `--backend` flag. Returns `None` for unknown names.
    pub fn parse(name: &str) -> Option<BackendKind> {
        match name.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(BackendKind::Scalar),
            "bitwise" => Some(BackendKind::Bitwise),
            _ => None,
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

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

/// The bitmap/numeric primitives every backend implements.
///
/// Structural methods operate on explicit bit widths (`len_bits`) so
/// tail-word handling is part of the contract: bit positions at or
/// beyond `len_bits` in the last word are ignored regardless of their
/// stored value. Numeric methods must combine values in exactly the
/// reference (scalar) order — see the module docs.
pub trait BitKernels: Sync {
    /// The backend's stable name (matches [`BackendKind::name`]).
    fn name(&self) -> &'static str;

    /// Number of set bits strictly below position `bit`.
    /// `bit` may be at most `words.len() * 64`.
    fn rank(&self, words: &[u64], bit: usize) -> usize;

    /// Exclusive prefix popcounts: `out[i]` = number of set bits in
    /// `words[..i]`. `out` is cleared and filled with
    /// `words.len() + 1` entries (the last is the total popcount).
    fn prefix_popcounts(&self, words: &[u64], out: &mut Vec<u32>);

    /// Popcount of `a & b` over the first `len_bits` bits.
    fn and_count(&self, a: &[u64], b: &[u64], len_bits: usize) -> u64;

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

static SCALAR: scalar::ScalarKernels = scalar::ScalarKernels;
static BITWISE: bitwise::BitwiseKernels = bitwise::BitwiseKernels;

/// The statically-allocated implementation of `kind`.
pub fn backend_for(kind: BackendKind) -> &'static dyn BitKernels {
    match kind {
        BackendKind::Scalar => &SCALAR,
        BackendKind::Bitwise => &BITWISE,
    }
}

/// 0 = not yet initialised; otherwise `encode_kind(kind)`.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

fn encode_kind(kind: BackendKind) -> u8 {
    match kind {
        BackendKind::Scalar => 1,
        BackendKind::Bitwise => 2,
    }
}

fn decode_kind(state: u8) -> BackendKind {
    match state {
        1 => BackendKind::Scalar,
        _ => BackendKind::Bitwise,
    }
}

fn kind_from_env() -> BackendKind {
    match std::env::var("USTC_BACKEND") {
        Ok(value) => BackendKind::parse(&value).unwrap_or_else(|| {
            eprintln!(
                "USTC_BACKEND={value:?} is not an available backend \
                 (expected one of: {}); using `{}`",
                BackendKind::ALL
                    .iter()
                    .map(|k| k.name())
                    .collect::<Vec<_>>()
                    .join(", "),
                DEFAULT_BACKEND.name(),
            );
            DEFAULT_BACKEND
        }),
        Err(_) => DEFAULT_BACKEND,
    }
}

/// The currently selected backend kind. On first use this reads
/// `USTC_BACKEND`; unknown values warn and fall back to
/// [`DEFAULT_BACKEND`].
pub fn active_kind() -> BackendKind {
    match ACTIVE.load(Ordering::Relaxed) {
        0 => {
            let kind = kind_from_env();
            // A racing first call may store a different freshly-parsed
            // kind; both parse the same environment, so the result is
            // identical either way.
            ACTIVE.store(encode_kind(kind), Ordering::Relaxed);
            kind
        }
        state => decode_kind(state),
    }
}

/// Selects the process-wide backend (builder-API counterpart of the
/// `USTC_BACKEND` environment variable).
pub fn set_backend(kind: BackendKind) {
    ACTIVE.store(encode_kind(kind), Ordering::Relaxed);
}

/// The active backend implementation. Hot paths call this once per
/// operation, not per element.
pub fn active() -> &'static dyn BitKernels {
    backend_for(active_kind())
}

/// Serialises [`with_backend`] flips so concurrently running tests
/// cannot interleave scoped selections.
static FLIP_LOCK: Mutex<()> = Mutex::new(());

struct RestoreGuard {
    prev: BackendKind,
}

impl Drop for RestoreGuard {
    fn drop(&mut self) {
        set_backend(self.prev);
    }
}

/// Runs `f` with `kind` as the active backend, restoring the previous
/// selection afterwards (also on panic). Scoped flips are serialised
/// process-wide by a mutex; because every backend is equivalence-tested
/// against the scalar reference, code on other threads observing the
/// temporary selection still computes bit-identical results.
pub fn with_backend<R>(kind: BackendKind, f: impl FnOnce() -> R) -> R {
    let _lock = FLIP_LOCK
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    let _restore = RestoreGuard { prev: active_kind() };
    set_backend(kind);
    f()
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

            let (mut pr, mut pc) = (Vec::new(), Vec::new());
            reference.prefix_popcounts(mask, &mut pr);
            candidate.prefix_popcounts(mask, &mut pc);
            check_eq(&ctx("prefix_popcounts"), &pr, &pc)?;

            for other in boundary_masks(len_bits, len_bits as u64 ^ 0xFACE) {
                check_eq(
                    &ctx("and_count"),
                    &reference.and_count(mask, &other, len_bits),
                    &candidate.and_count(mask, &other, len_bits),
                )?;

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
    fn parse_round_trips_names() {
        for &kind in BackendKind::ALL {
            assert_eq!(BackendKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(BackendKind::parse("Bitwise"), Some(BackendKind::Bitwise));
        assert_eq!(BackendKind::parse(" scalar "), Some(BackendKind::Scalar));
        assert_eq!(BackendKind::parse("quantum"), None);
        assert_eq!(BackendKind::parse("simd"), None);
    }

    #[test]
    fn with_backend_restores_previous_selection() {
        let before = active_kind();
        let inside = with_backend(BackendKind::Scalar, active_kind);
        assert_eq!(inside, BackendKind::Scalar);
        assert_eq!(active_kind(), before);
    }

    #[test]
    fn with_backend_nested_flips_restore_in_order() {
        with_backend(BackendKind::Bitwise, || {
            assert_eq!(active_kind(), BackendKind::Bitwise);
            // A nested flip would deadlock on a non-reentrant guard if
            // taken on the same thread; flips are scoped per closure,
            // so exercise sequential scopes instead.
        });
        with_backend(BackendKind::Scalar, || {
            assert_eq!(active().name(), "scalar");
        });
    }

    #[test]
    fn bitwise_matches_scalar_on_boundary_grid() {
        differential_check(&scalar::ScalarKernels, &bitwise::BitwiseKernels)
            .unwrap_or_else(|e| panic!("bitwise diverges from scalar: {e}"));
    }

    /// A backend with a deliberate off-by-one in its tail-word masking:
    /// `rank`, `and_count`, and `collect_set_bits` include one bit past
    /// `len_bits`. Proves the differential harness catches exactly the
    /// class of bug the bitwise rewrite risks introducing.
    struct BuggyTail;

    impl BitKernels for BuggyTail {
        fn name(&self) -> &'static str {
            "buggy-tail"
        }
        fn rank(&self, words: &[u64], bit: usize) -> usize {
            // Off-by-one: counts bits *at or below* `bit`.
            BitwiseKernels.rank(words, (bit + 1).min(words.len() * 64))
        }
        fn prefix_popcounts(&self, words: &[u64], out: &mut Vec<u32>) {
            BitwiseKernels.prefix_popcounts(words, out);
        }
        fn and_count(&self, a: &[u64], b: &[u64], len_bits: usize) -> u64 {
            let widened = (len_bits + 1).min(a.len() * 64);
            BitwiseKernels.and_count(a, b, widened)
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

    use bitwise::BitwiseKernels;

    #[test]
    fn injected_tail_bug_is_caught() {
        let err = differential_check(&scalar::ScalarKernels, &BuggyTail)
            .expect_err("the off-by-one tail bug must be detected");
        assert!(
            err.contains("rank") || err.contains("and_count") || err.contains("collect_set_bits"),
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
