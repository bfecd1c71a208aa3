//! Operand identity at pointer cost (DESIGN.md §18).
//!
//! Clients resubmit the same `Arc` operand job after job, so the
//! dispatcher remembers, per allocation, the fingerprint its content
//! hashed to and hashes each allocation once. An entry is keyed by the
//! `Arc`'s address and holds a `Weak` to it: while the `Weak` lives the
//! allocation is not freed, so no other operand can take its address, and
//! a shared `Arc` cannot be mutated in place. A lookup still upgrades the
//! `Weak` and checks `Arc::ptr_eq`. The tables hold no strong reference.
//!
//! A fingerprint is only a key: the service confirms every cache hit
//! with [`Identities::same_request`] / [`Identities::same_csr`] — the
//! same allocation, a recorded alias, or bitwise-equal content (never
//! float `==`) — and treats a failed confirmation as a collision.

use std::sync::{Arc, Weak};

use sparse::{BbcMatrix, CsrMatrix, SparseVector};

use crate::cache::LruCache;
use crate::fingerprint::{fingerprint_bbc, fingerprint_csr, fingerprint_vector, Fingerprint};
use crate::request::{KernelRequest, Operand};

/// What the table knows about one allocation.
struct Known<T> {
    this: Weak<T>,
    fp: Fingerprint,
    /// An allocation confirmed bitwise equal to this one, if any.
    same_as: Weak<T>,
}

impl<T> Clone for Known<T> {
    fn clone(&self) -> Self {
        Known { this: Weak::clone(&self.this), fp: self.fp, same_as: Weak::clone(&self.same_as) }
    }
}

/// The identity table of one operand type: a deterministic LRU over
/// allocation addresses.
struct IdentityTable<T> {
    known: LruCache<usize, Known<T>>,
    hash: fn(&T) -> Fingerprint,
    bit_eq: fn(&T, &T) -> bool,
}

impl<T> IdentityTable<T> {
    fn new(capacity: usize, hash: fn(&T) -> Fingerprint, bit_eq: fn(&T, &T) -> bool) -> Self {
        IdentityTable { known: LruCache::new(capacity), hash, bit_eq }
    }

    /// `op`'s fingerprint, and whether computing it took a hash: an
    /// allocation the table knows is not hashed again.
    fn fingerprint(&mut self, op: &Arc<T>) -> (Fingerprint, bool) {
        let addr = Arc::as_ptr(op) as usize;
        if let Some(known) = self.known.lookup_mut(&addr) {
            if known.this.upgrade().is_some_and(|live| Arc::ptr_eq(&live, op)) {
                return (known.fp, false);
            }
        }
        let fp = (self.hash)(op);
        let known = Known { this: Arc::downgrade(op), fp, same_as: Weak::new() };
        self.known.insert_if_absent(addr, known);
        (fp, true)
    }

    /// Whether `held`, a source of a cache entry, has `req`'s content.
    fn same(&mut self, held: &Arc<T>, req: &Arc<T>) -> bool {
        if Arc::ptr_eq(held, req) {
            return true;
        }
        // The `Weak` pins the alias's address, so pointer equality with
        // a live `Arc` means the same allocation.
        let known = self.known.lookup_mut(&(Arc::as_ptr(req) as usize));
        if known.as_ref().is_some_and(|k| Weak::as_ptr(&k.same_as) == Arc::as_ptr(held)) {
            return true;
        }
        if !(self.bit_eq)(held, req) {
            return false;
        }
        if let Some(k) = known {
            k.same_as = Arc::downgrade(held);
        }
        true
    }
}

/// Identity work since the last [`Identities::take_tally`].
#[derive(Debug, Default)]
pub(crate) struct Tally {
    /// Operands hashed (one per allocation the tables did not know).
    pub hashes: u64,
    /// Operand references resolved by allocation, with no hash.
    pub identity_hits: u64,
    /// Confirmations that failed: fingerprint collisions detected.
    pub collisions: u64,
}

/// The dispatcher's operand identity tables, one per operand type.
pub(crate) struct Identities {
    csr: IdentityTable<CsrMatrix>,
    bbc: IdentityTable<BbcMatrix>,
    vectors: IdentityTable<SparseVector>,
    tally: Tally,
}

impl Identities {
    /// Tables sized from the cache capacities: a cache entry has at most
    /// one source operand in the encoding cache and two matrices plus a
    /// vector in the stream and verdict caches, so no more allocations
    /// than that can ever be confirmed against a resident entry.
    pub(crate) fn new(encoding_capacity: usize, stream_capacity: usize) -> Self {
        Identities::with_hashes(
            encoding_capacity,
            stream_capacity,
            fingerprint_csr,
            fingerprint_bbc,
            fingerprint_vector,
        )
    }

    fn with_hashes(
        encoding_capacity: usize,
        stream_capacity: usize,
        csr: fn(&CsrMatrix) -> Fingerprint,
        bbc: fn(&BbcMatrix) -> Fingerprint,
        vector: fn(&SparseVector) -> Fingerprint,
    ) -> Self {
        let matrices = encoding_capacity.saturating_add(stream_capacity.saturating_mul(2));
        Identities {
            csr: IdentityTable::new(matrices, csr, CsrMatrix::bit_eq),
            bbc: IdentityTable::new(matrices, bbc, BbcMatrix::bit_eq),
            vectors: IdentityTable::new(stream_capacity, vector, SparseVector::bit_eq),
            tally: Tally::default(),
        }
    }

    fn count(&mut self, (fp, hashed): (Fingerprint, bool)) -> Fingerprint {
        if hashed {
            self.tally.hashes += 1;
        } else {
            self.tally.identity_hits += 1;
        }
        fp
    }

    /// The fingerprint of a matrix operand's submitted representation.
    pub(crate) fn operand(&mut self, op: &Operand) -> Fingerprint {
        let found = match op {
            Operand::Csr(m) => self.csr.fingerprint(m),
            Operand::Bbc(m) => self.bbc.fingerprint(m),
        };
        self.count(found)
    }

    /// The fingerprint of an SpMSpV input vector.
    pub(crate) fn vector(&mut self, x: &Arc<SparseVector>) -> Fingerprint {
        let found = self.vectors.fingerprint(x);
        self.count(found)
    }

    /// Whether the CSR source of an encoding-cache entry has `req`'s
    /// content.
    pub(crate) fn same_csr(&mut self, held: &Arc<CsrMatrix>, req: &Arc<CsrMatrix>) -> bool {
        self.csr.same(held, req)
    }

    fn same_operand(&mut self, held: &Operand, req: &Operand) -> bool {
        match (held, req) {
            (Operand::Csr(h), Operand::Csr(r)) => self.csr.same(h, r),
            (Operand::Bbc(h), Operand::Bbc(r)) => self.bbc.same(h, r),
            _ => false,
        }
    }

    /// Whether two requests run the same stream: the same kernel and
    /// width on operands with the same content.
    pub(crate) fn same_request(&mut self, held: &KernelRequest, req: &KernelRequest) -> bool {
        use KernelRequest::{SpGEMM, SpMM, SpMSpV, SpMV};
        match (held, req) {
            (SpMV { a: ha }, SpMV { a: ra }) => self.same_operand(ha, ra),
            (SpMSpV { a: ha, x: hx }, SpMSpV { a: ra, x: rx }) => {
                self.same_operand(ha, ra) && self.vectors.same(hx, rx)
            }
            (SpMM { a: ha, n_cols: hn }, SpMM { a: ra, n_cols: rn }) => {
                hn == rn && self.same_operand(ha, ra)
            }
            (SpGEMM { a: ha, b: hb }, SpGEMM { a: ra, b: rb }) => {
                self.same_operand(ha, ra) && self.same_operand(hb, rb)
            }
            _ => false,
        }
    }

    /// Counts one detected collision.
    pub(crate) fn collision(&mut self) {
        self.tally.collisions += 1;
    }

    /// The work since the last call, resetting the tally.
    pub(crate) fn take_tally(&mut self) -> Tally {
        std::mem::take(&mut self.tally)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use sparse::CooMatrix;

    /// Tables whose fingerprints all collide: every matrix of a type, and
    /// every vector, hashes to the same key, so only confirmation keeps
    /// their cache entries apart.
    pub(crate) fn degenerate(encoding_capacity: usize, stream_capacity: usize) -> Identities {
        fn same_key<T>(_: &T) -> Fingerprint {
            Fingerprint([0, 0])
        }
        Identities::with_hashes(encoding_capacity, stream_capacity, same_key, same_key, same_key)
    }

    fn csr(v: f64) -> Arc<CsrMatrix> {
        let mut coo = CooMatrix::new(16, 16);
        coo.push(3, 5, v);
        Arc::new(CsrMatrix::try_from(coo).expect("valid test matrix"))
    }

    #[test]
    fn an_allocation_is_hashed_once() {
        let mut ids = Identities::new(4, 4);
        let a = Operand::Csr(csr(1.0));
        let fp = ids.operand(&a);
        for _ in 0..10 {
            assert_eq!(ids.operand(&a.clone()), fp);
        }
        let t = ids.take_tally();
        assert_eq!((t.hashes, t.identity_hits, t.collisions), (1, 10, 0));
        // Equal content in a new allocation hashes to the same key.
        assert_eq!(ids.operand(&Operand::Csr(csr(1.0))), fp);
        assert_eq!(ids.take_tally().hashes, 1);
    }

    #[test]
    fn confirmation_is_bitwise_and_records_aliases() {
        let mut ids = degenerate(4, 4);
        let (held, twin) = (csr(1.0), csr(1.0));
        ids.operand(&Operand::Csr(Arc::clone(&twin)));
        assert!(ids.same_csr(&held, &held));
        assert!(ids.same_csr(&held, &twin));
        assert!(
            Weak::as_ptr(&ids.csr.known.lookup_mut(&(Arc::as_ptr(&twin) as usize)).expect("known").same_as)
                == Arc::as_ptr(&held),
            "a confirmed twin aliases its source"
        );
        assert!(!ids.same_csr(&csr(0.0), &csr(-0.0)), "signed zeros are different content");
        assert!(ids.same_csr(&csr(f64::NAN), &csr(f64::NAN)), "a NaN operand is its own content");
        assert!(!ids.same_csr(&held, &csr(2.0)));
    }

    #[test]
    fn the_table_is_bounded_and_holds_no_strong_reference() {
        let mut ids = Identities::new(1, 0);
        let ops: Vec<_> = (0..3).map(|i| Operand::Csr(csr(f64::from(i)))).collect();
        for op in &ops {
            ids.operand(op);
        }
        assert_eq!(ids.csr.known.len(), 1, "capacity 1 + 2 x 0");
        for op in &ops {
            let Operand::Csr(m) = op else { unreachable!() };
            assert_eq!(Arc::strong_count(m), 1);
        }
        // The evicted allocations hash again; the resident one does not.
        for op in ops.iter().rev() {
            ids.operand(op);
        }
        assert_eq!(ids.take_tally().hashes, 3 + 2);
    }
}
