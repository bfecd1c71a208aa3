//! Deterministic, capacity-bounded caches for encoded operands and
//! compiled task streams.
//!
//! Eviction is least-recently-used over a logical tick counter — every
//! lookup or insert advances the tick, and the entry with the smallest
//! last-touch tick is evicted when the cache is full. No wall clock is
//! involved, so a fixed request sequence always produces the same hit /
//! miss / eviction trace, which is what lets the chaos suite assert cache
//! statistics exactly.
//!
//! [`SharedCache`] wraps the LRU in a mutex for the service's concurrent
//! submit path. The miss path computes the value *outside* the lock: two
//! racing misses on the same key may both compute, but only the first
//! insert wins and every caller observes the winning value. Encoded
//! matrices and compiled streams are pure functions of their operands,
//! so a losing double-compute is wasted work, never a wrong answer — the
//! concurrency race test pins this.
//!
//! A key is a content hash, which can collide. So the service looks up
//! through `SharedCache::get_confirmed_or_insert_with`: an entry is
//! served only if a confirmation predicate accepts it (the entry was
//! computed from the request's own operands), and a rejected entry is a
//! collision: the value is computed fresh and not stored.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Running hit/miss/eviction tallies for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries displaced by capacity pressure.
    pub evictions: u64,
    /// Entries actually stored (losing racers do not count).
    pub inserts: u64,
}

impl CacheStats {
    /// Eviction pressure: evictions per insert, in `[0, 1]`.
    ///
    /// 0 means every stored entry is still resident (the working set
    /// fits); values approaching 1 mean nearly every insert displaced
    /// something — the cache is thrashing and capacity, not traffic
    /// shape, is deciding the hit rate. Returns 0 when nothing was ever
    /// inserted. Surfaced in the metrics registry as
    /// `service/<cache>_pressure` and reported by the stencil
    /// multi-operator eviction study.
    pub fn pressure(&self) -> f64 {
        if self.inserts == 0 {
            0.0
        } else {
            self.evictions as f64 / self.inserts as f64
        }
    }
}

/// An LRU cache over a `BTreeMap`, evicting by logical tick.
///
/// Capacity 0 disables storage entirely: every lookup misses and every
/// insert is dropped (useful for cold-path measurement).
#[derive(Debug)]
pub struct LruCache<K: Ord + Clone, V: Clone> {
    capacity: usize,
    tick: u64,
    entries: BTreeMap<K, (V, u64)>,
    stats: CacheStats,
}

impl<K: Ord + Clone, V: Clone> LruCache<K, V> {
    /// An empty cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        LruCache { capacity, tick: 0, entries: BTreeMap::new(), stats: CacheStats::default() }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The running statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn lookup(&mut self, key: &K) -> Option<V> {
        self.lookup_mut(key).map(|v| v.clone())
    }

    /// Looks up `key` for in-place update, refreshing its recency on a
    /// hit; counted like [`LruCache::lookup`].
    pub(crate) fn lookup_mut(&mut self, key: &K) -> Option<&mut V> {
        match self.lookup_confirmed(key, |_| true) {
            Probe::Hit(v) => Some(v),
            Probe::Absent | Probe::Rejected => None,
        }
    }

    /// Looks up `key` and serves the entry only if `confirm` accepts it.
    /// An accepted entry counts as a hit and refreshes its recency; a
    /// rejected one counts as a miss and is left as it was.
    pub(crate) fn lookup_confirmed(
        &mut self,
        key: &K,
        confirm: impl FnOnce(&V) -> bool,
    ) -> Probe<&mut V> {
        self.tick += 1;
        let Some((v, touched)) = self.entries.get_mut(key) else {
            self.stats.misses += 1;
            return Probe::Absent;
        };
        if !confirm(v) {
            self.stats.misses += 1;
            return Probe::Rejected;
        }
        *touched = self.tick;
        self.stats.hits += 1;
        Probe::Hit(v)
    }

    /// Inserts `value` under `key` unless the key is already present
    /// (first writer wins; the racing loser's value is dropped). Returns
    /// whether the insert took effect. Evicts the least-recently-touched
    /// entry first when the cache is full.
    pub fn insert_if_absent(&mut self, key: K, value: V) -> bool {
        if self.capacity == 0 || self.entries.contains_key(&key) {
            return false;
        }
        if self.entries.len() >= self.capacity {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, (_, touched))| *touched)
                .map(|(k, _)| k.clone());
            if let Some(k) = victim {
                self.entries.remove(&k);
                self.stats.evictions += 1;
            }
        }
        self.tick += 1;
        self.entries.insert(key, (value, self.tick));
        self.stats.inserts += 1;
        true
    }
}

/// What [`LruCache::lookup_confirmed`] found under a key.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Probe<V> {
    /// An entry the confirmation accepted.
    Hit(V),
    /// No entry.
    Absent,
    /// An entry the confirmation rejected: a key collision.
    Rejected,
}

/// How [`SharedCache::get_confirmed_or_insert_with`] produced its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Outcome {
    /// Served from a confirmed entry.
    Hit,
    /// Computed (or adopted from a racing, confirmed insert) after a miss.
    Miss,
    /// Computed fresh and not stored: the entry under the key failed
    /// confirmation, so the key collides with another value's.
    Collision,
}

/// A thread-safe [`LruCache`] with a compute-outside-the-lock miss path.
#[derive(Debug)]
pub struct SharedCache<K: Ord + Clone, V> {
    inner: Mutex<LruCache<K, Arc<V>>>,
}

impl<K: Ord + Clone, V> SharedCache<K, V> {
    /// An empty shared cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        SharedCache { inner: Mutex::new(LruCache::new(capacity)) }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, LruCache<K, Arc<V>>> {
        // A poisoned lock means another thread panicked mid-operation;
        // the map itself is still structurally sound (every mutation is
        // a single BTreeMap call), so continue with the inner value.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// A snapshot of the running statistics.
    pub fn stats(&self) -> CacheStats {
        self.lock().stats()
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Looks up `key` without computing anything.
    pub fn lookup(&self, key: &K) -> Option<Arc<V>> {
        self.lock().lookup(key)
    }

    /// Returns the cached value for `key`, computing and inserting it on
    /// a miss. The second element reports whether this call was a hit.
    ///
    /// `compute` runs with no lock held. If two threads miss on the same
    /// key concurrently, both compute; the first to finish inserts and
    /// the loser adopts the winner's value (checked under the lock before
    /// inserting), so all callers agree on one cached value.
    pub fn get_or_insert_with(&self, key: &K, compute: impl FnOnce() -> V) -> (Arc<V>, bool) {
        let (v, outcome) = self.get_confirmed_or_insert_with(key, |_| true, compute);
        (v, outcome == Outcome::Hit)
    }

    /// [`SharedCache::get_or_insert_with`] for keys that can collide: an
    /// entry (cached, or inserted by a racer while `compute` ran) is
    /// served only if `confirm` accepts it. On a rejection the freshly
    /// computed value is returned and nothing is stored, so the entry
    /// under the key stays as it was.
    ///
    /// `confirm` runs under the cache lock; `compute` runs with no lock
    /// held.
    pub(crate) fn get_confirmed_or_insert_with(
        &self,
        key: &K,
        mut confirm: impl FnMut(&V) -> bool,
        compute: impl FnOnce() -> V,
    ) -> (Arc<V>, Outcome) {
        let rejected = match self.lock().lookup_confirmed(key, |v| confirm(v)) {
            Probe::Hit(v) => return (Arc::clone(v), Outcome::Hit),
            Probe::Rejected => true,
            Probe::Absent => false,
        };
        let fresh = Arc::new(compute());
        if rejected {
            return (fresh, Outcome::Collision);
        }
        let mut guard = self.lock();
        // Re-check: a racer may have inserted while we were computing.
        // This probe is a resolution step of *this* miss, not a second
        // lookup, so it must not touch the hit/miss tallies.
        if let Some((winner, _)) = guard.entries.get(key) {
            return if confirm(winner) {
                (Arc::clone(winner), Outcome::Miss)
            } else {
                (fresh, Outcome::Collision)
            };
        }
        guard.insert_if_absent(key.clone(), Arc::clone(&fresh));
        (fresh, Outcome::Miss)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_tracks_hits_and_misses() {
        let mut c: LruCache<u32, String> = LruCache::new(4);
        assert_eq!(c.lookup(&1), None);
        assert!(c.insert_if_absent(1, "one".to_owned()));
        assert_eq!(c.lookup(&1).as_deref(), Some("one"));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.inserts), (1, 1, 1));
    }

    #[test]
    fn pressure_is_evictions_per_insert() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        assert!(c.stats().pressure() == 0.0, "empty cache has no pressure");
        c.insert_if_absent(1, 10);
        c.insert_if_absent(2, 20);
        assert!(c.stats().pressure() == 0.0, "working set fits");
        c.insert_if_absent(3, 30);
        c.insert_if_absent(4, 40);
        let s = c.stats();
        assert_eq!((s.inserts, s.evictions), (4, 2));
        assert!(s.pressure() == 0.5);
    }

    #[test]
    fn first_writer_wins() {
        let mut c: LruCache<u32, u32> = LruCache::new(4);
        assert!(c.insert_if_absent(7, 70));
        assert!(!c.insert_if_absent(7, 71));
        assert_eq!(c.lookup(&7), Some(70));
        assert_eq!(c.stats().inserts, 1);
    }

    #[test]
    fn eviction_is_least_recently_used_and_deterministic() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.insert_if_absent(1, 10);
        c.insert_if_absent(2, 20);
        // Touch 1 so 2 becomes the LRU victim.
        assert_eq!(c.lookup(&1), Some(10));
        c.insert_if_absent(3, 30);
        assert_eq!(c.len(), 2);
        assert_eq!(c.lookup(&2), None, "2 was least recently used");
        assert_eq!(c.lookup(&1), Some(10));
        assert_eq!(c.lookup(&3), Some(30));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let mut c: LruCache<u32, u32> = LruCache::new(0);
        assert!(!c.insert_if_absent(1, 10));
        assert_eq!(c.lookup(&1), None);
        assert_eq!(c.stats().inserts, 0);
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn replaying_a_sequence_reproduces_the_stats() {
        let run = || {
            let mut c: LruCache<u32, u32> = LruCache::new(3);
            for &k in &[1, 2, 3, 1, 4, 2, 5, 1, 1, 6] {
                if c.lookup(&k).is_none() {
                    c.insert_if_absent(k, k * 10);
                }
            }
            c.stats()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn a_rejected_entry_is_a_collision_and_stays_put() {
        let c: SharedCache<u32, (char, u32)> = SharedCache::new(4);
        let (v, o) = c.get_confirmed_or_insert_with(&1, |_| true, || ('a', 10));
        assert_eq!((*v, o), (('a', 10), Outcome::Miss));
        let (v, o) = c.get_confirmed_or_insert_with(&1, |(src, _)| *src == 'b', || ('b', 20));
        assert_eq!((*v, o), (('b', 20), Outcome::Collision), "computed fresh, not served");
        let (v, o) = c.get_confirmed_or_insert_with(&1, |(src, _)| *src == 'a', || ('x', 0));
        assert_eq!((*v, o), (('a', 10), Outcome::Hit), "the original entry is still there");
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.inserts), (1, 2, 1));
    }

    #[test]
    fn shared_cache_get_or_insert_reports_hits() {
        let c: SharedCache<u32, u32> = SharedCache::new(4);
        let (v, hit) = c.get_or_insert_with(&3, || 30);
        assert_eq!((*v, hit), (30, false));
        let (v, hit) = c.get_or_insert_with(&3, || 31);
        assert_eq!((*v, hit), (30, true), "second call must hit the cached value");
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.inserts), (1, 1, 1));
    }
}
