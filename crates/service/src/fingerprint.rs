//! Stable content fingerprints for service operands.
//!
//! The operand caches are keyed by a 128-bit content hash over the exact
//! data that defines a matrix or vector: dimensions, structure arrays and
//! the IEEE-754 bit patterns of the values. Two submissions with
//! bit-identical content always map to the same fingerprint, across
//! processes and platforms (every word is absorbed in a fixed order,
//! little-endian where bytes are involved).
//!
//! A fingerprint is a cache *key*, not a proof of identity: every cache
//! entry also keeps the operands it was computed from, and the service
//! serves an entry only after confirming those are the request's own
//! allocation or bitwise equal to it (DESIGN.md §18). A collision, by
//! chance or forged, therefore costs an uncached answer, never a wrong
//! one. So the hash only has to spread keys well and be cheap.
//!
//! It absorbs one 64-bit word per step into two independent lanes
//! (multiply, rotate, different constants per lane), concatenated into
//! 128 bits after a final avalanche. `usize` values go in as `u64`, `u32`
//! arrays as packed pairs, `f64` values by `to_bits`, and every array is
//! preceded by its length, so adjacent arrays cannot alias across a
//! boundary shift. Each operand family absorbs a distinct domain tag
//! first, so a CSR matrix, a BBC matrix and a sparse vector never share a
//! key even if their raw arrays agree.

use sparse::{BbcMatrix, CsrMatrix, SparseVector};

const LANE_A_MUL: u64 = 0xFF51_AFD7_ED55_8CCD;
const LANE_B_MUL: u64 = 0x9E37_79B9_7F4A_7C15;
const LANE_A_SEED: u64 = 0xCBF2_9CE4_8422_2325;
const LANE_B_SEED: u64 = LANE_A_SEED ^ LANE_B_MUL;

/// A 128-bit content fingerprint (two independent 64-bit lanes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fingerprint(pub [u64; 2]);

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}{:016x}", self.0[0], self.0[1])
    }
}

/// Incremental two-lane word hasher.
#[derive(Debug, Clone)]
pub struct Hasher {
    a: u64,
    b: u64,
}

impl Default for Hasher {
    fn default() -> Self {
        Hasher::new()
    }
}

impl Hasher {
    /// A fresh hasher at the two lane seeds.
    pub fn new() -> Self {
        Hasher { a: LANE_A_SEED, b: LANE_B_SEED }
    }

    /// Absorbs one 64-bit word. Each lane step is a bijection of the
    /// lane state for a fixed word, and the rotation feeds the high
    /// product bits back into the next multiply.
    pub fn update_u64(&mut self, w: u64) {
        self.a = (self.a ^ w).wrapping_mul(LANE_A_MUL).rotate_left(29);
        self.b = (self.b ^ w).wrapping_mul(LANE_B_MUL).rotate_left(31);
    }

    /// Absorbs raw bytes: their length, then 8-byte little-endian words,
    /// the last one zero-padded.
    pub fn update(&mut self, bytes: &[u8]) {
        self.update_u64(bytes.len() as u64);
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.update_u64(u64::from_le_bytes(w.try_into().unwrap_or_default()));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut last = [0u8; 8];
            last[..tail.len()].copy_from_slice(tail);
            self.update_u64(u64::from_le_bytes(last));
        }
    }

    /// Absorbs a `usize` slice, one word per entry, length first.
    fn update_usizes(&mut self, vs: &[usize]) {
        self.update_u64(vs.len() as u64);
        for &v in vs {
            self.update_u64(v as u64);
        }
    }

    /// Absorbs a `u32` slice two entries per word, length first.
    fn update_u32s(&mut self, vs: &[u32]) {
        self.update_u64(vs.len() as u64);
        let mut pairs = vs.chunks_exact(2);
        for p in &mut pairs {
            self.update_u64(u64::from(p[0]) | u64::from(p[1]) << 32);
        }
        if let [last] = pairs.remainder() {
            self.update_u64(u64::from(*last));
        }
    }

    /// Absorbs f64 values by IEEE-754 bit pattern (exact, no rounding).
    fn update_f64s(&mut self, vs: &[f64]) {
        self.update_u64(vs.len() as u64);
        for &v in vs {
            self.update_u64(v.to_bits());
        }
    }

    /// The final 128-bit fingerprint: each lane through a 64-bit
    /// avalanche, so every output bit depends on every absorbed word.
    pub fn finish(&self) -> Fingerprint {
        fn avalanche(mut z: u64) -> u64 {
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        Fingerprint([avalanche(self.a), avalanche(self.b)])
    }
}

/// Fingerprints a CSR matrix: dimensions, row pointers, column indices
/// and value bit patterns, behind the `b"CSR"` domain tag.
pub fn fingerprint_csr(m: &CsrMatrix) -> Fingerprint {
    let mut h = Hasher::new();
    h.update(b"CSR");
    h.update_u64(m.nrows() as u64);
    h.update_u64(m.ncols() as u64);
    h.update_usizes(m.row_ptr());
    h.update_u32s(m.col_idx());
    h.update_f64s(m.values());
    h.finish()
}

/// Fingerprints a BBC matrix over its canonical `BBC2` byte stream (the
/// same bytes `BbcMatrix::write_bbc` persists), fed in 8-byte words,
/// behind the `b"BBC"` domain tag.
///
/// Note this is a *representation* fingerprint: a CSR operand and its
/// BBC encoding hash to different fingerprints even though they describe
/// the same matrix. The encoding cache keys on the submitted
/// representation, which is what makes a hit sound without decoding
/// anything.
pub fn fingerprint_bbc(m: &BbcMatrix) -> Fingerprint {
    /// Packs the stream's small writes into whole words.
    struct WordWriter<'a> {
        h: &'a mut Hasher,
        word: [u8; 8],
        filled: usize,
        total: u64,
    }
    impl std::io::Write for WordWriter<'_> {
        fn write(&mut self, mut buf: &[u8]) -> std::io::Result<usize> {
            let n = buf.len();
            self.total += n as u64;
            while !buf.is_empty() {
                let take = (8 - self.filled).min(buf.len());
                self.word[self.filled..self.filled + take].copy_from_slice(&buf[..take]);
                self.filled += take;
                buf = &buf[take..];
                if self.filled == 8 {
                    self.h.update_u64(u64::from_le_bytes(self.word));
                    self.filled = 0;
                }
            }
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let mut h = Hasher::new();
    h.update(b"BBC");
    let mut w = WordWriter { h: &mut h, word: [0; 8], filled: 0, total: 0 };
    // Writing into a hasher cannot fail; the matrix is already in memory.
    let _ = m.write_bbc(&mut w);
    let (tail, filled, total) = (w.word, w.filled, w.total);
    if filled > 0 {
        h.update(&tail[..filled]);
    }
    h.update_u64(total);
    h.finish()
}

/// Fingerprints a sparse vector: dimension, indices and value bit
/// patterns, behind the `b"SPV"` domain tag.
pub fn fingerprint_vector(x: &SparseVector) -> Fingerprint {
    let mut h = Hasher::new();
    h.update(b"SPV");
    h.update_u64(x.dim() as u64);
    h.update_u32s(x.indices());
    h.update_f64s(x.values());
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse::CooMatrix;

    fn csr(n: usize, entries: &[(usize, usize, f64)]) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for &(r, c, v) in entries {
            coo.push(r, c, v);
        }
        CsrMatrix::try_from(coo).expect("valid test matrix")
    }

    #[test]
    fn identical_content_identical_fingerprint() {
        let a = csr(32, &[(0, 0, 1.0), (17, 3, -2.5)]);
        let b = csr(32, &[(0, 0, 1.0), (17, 3, -2.5)]);
        assert_eq!(fingerprint_csr(&a), fingerprint_csr(&b));
        assert_eq!(
            fingerprint_bbc(&BbcMatrix::from_csr(&a)),
            fingerprint_bbc(&BbcMatrix::from_csr(&b))
        );
    }

    #[test]
    fn any_content_change_moves_the_fingerprint() {
        let base = csr(32, &[(0, 0, 1.0), (17, 3, -2.5)]);
        let fp = fingerprint_csr(&base);
        // Different value.
        assert_ne!(fp, fingerprint_csr(&csr(32, &[(0, 0, 1.0), (17, 3, -2.0)])));
        // Different position.
        assert_ne!(fp, fingerprint_csr(&csr(32, &[(0, 0, 1.0), (17, 4, -2.5)])));
        // Different dimensions, same entries.
        assert_ne!(fp, fingerprint_csr(&csr(48, &[(0, 0, 1.0), (17, 3, -2.5)])));
        // An extra entry.
        assert_ne!(
            fp,
            fingerprint_csr(&csr(32, &[(0, 0, 1.0), (17, 3, -2.5), (1, 1, 0.5)]))
        );
    }

    #[test]
    fn value_bits_are_exact() {
        // -0.0 and 0.0 compare equal as floats but are different content.
        let a = csr(16, &[(0, 0, 0.0)]);
        let b = csr(16, &[(0, 0, -0.0)]);
        assert_ne!(fingerprint_csr(&a), fingerprint_csr(&b));
    }

    #[test]
    fn domains_do_not_collide() {
        let m = csr(16, &[(0, 0, 1.0)]);
        let bbc = BbcMatrix::from_csr(&m);
        assert_ne!(fingerprint_csr(&m), fingerprint_bbc(&bbc));
        let x = SparseVector::try_new(16, vec![0], vec![1.0]).expect("sorted");
        assert_ne!(fingerprint_vector(&x), fingerprint_csr(&m));
    }

    #[test]
    fn vector_fingerprint_tracks_content() {
        let x = SparseVector::try_new(32, vec![1, 5], vec![1.0, 2.0]).expect("sorted");
        let same = SparseVector::try_new(32, vec![1, 5], vec![1.0, 2.0]).expect("sorted");
        let other = SparseVector::try_new(32, vec![1, 6], vec![1.0, 2.0]).expect("sorted");
        assert_eq!(fingerprint_vector(&x), fingerprint_vector(&same));
        assert_ne!(fingerprint_vector(&x), fingerprint_vector(&other));
    }

    #[test]
    fn display_is_32_hex_chars() {
        let s = fingerprint_csr(&csr(16, &[(0, 0, 1.0)])).to_string();
        assert_eq!(s.len(), 32);
        assert!(s.chars().all(|c| c.is_ascii_hexdigit()));
    }
}
