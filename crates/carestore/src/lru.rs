//! A small, dependency-free LRU cache — the bound for careserve's
//! prepared-campaign cache (an unbounded `HashMap` before this existed:
//! an adversarial stream of distinct inline jobs grew it without limit).
//!
//! Recency is a monotone logical clock stamped on every hit/insert;
//! eviction scans for the minimum stamp. That is O(capacity), which is
//! the right trade at the capacities this serves (tens of multi-megabyte
//! prepared campaigns): the scan is nanoseconds against a cache entry
//! that took a golden run to build, and there is no intrusive list to
//! get wrong.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;

/// A capacity-bounded map with least-recently-used eviction.
#[derive(Debug)]
pub struct LruCache<K, V> {
    map: HashMap<K, (V, u64)>,
    clock: u64,
    cap: usize,
    evictions: u64,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// An empty cache holding at most `cap` entries (`cap` ≥ 1).
    pub fn new(cap: usize) -> LruCache<K, V> {
        LruCache { map: HashMap::new(), clock: 0, cap: cap.max(1), evictions: 0 }
    }

    /// Look up and touch (marks the entry most recently used).
    pub fn get<Q>(&mut self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        self.clock += 1;
        let clock = self.clock;
        self.map.get_mut(key).map(|(v, stamp)| {
            *stamp = clock;
            &*v
        })
    }

    /// Insert (touching the entry), evicting the least recently used
    /// entry first when at capacity with a new key.
    pub fn insert(&mut self, key: K, value: V) {
        self.insert_unpinned(key, value, |_| false);
    }

    /// [`LruCache::insert`], except that an entry `pinned` holds is never
    /// evicted: the least recently used unpinned entries go instead, down
    /// to the capacity, and while too few are unpinned the cache holds more
    /// (as many more as there are pinned entries).
    pub fn insert_unpinned(&mut self, key: K, value: V, pinned: impl Fn(&V) -> bool) {
        self.clock += 1;
        if !self.map.contains_key(&key) {
            while self.map.len() >= self.cap {
                let Some(oldest) = self
                    .map
                    .iter()
                    .filter(|(_, (v, _))| !pinned(v))
                    .min_by_key(|(_, (_, stamp))| *stamp)
                    .map(|(k, _)| k.clone())
                else {
                    break;
                };
                self.map.remove(&oldest);
                self.evictions += 1;
            }
        }
        self.map.insert(key, (value, self.clock));
    }

    /// Entries currently held (≤ capacity, unless pinned entries hold it
    /// past: [`LruCache::insert_unpinned`]).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The configured capacity bound.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Evictions performed since construction.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stays_within_cap_and_evicts_least_recent() {
        let mut c: LruCache<String, u32> = LruCache::new(2);
        c.insert("a".into(), 1);
        c.insert("b".into(), 2);
        assert_eq!(c.get("a"), Some(&1)); // touch a: b is now oldest
        c.insert("c".into(), 3);
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions(), 1);
        assert_eq!(c.get("b"), None, "least-recently-used entry survives eviction");
        assert_eq!(c.get("a"), Some(&1));
        assert_eq!(c.get("c"), Some(&3));
    }

    #[test]
    fn reinsert_updates_without_eviction_and_cap_is_floored() {
        let mut c: LruCache<u64, u64> = LruCache::new(0); // floored to 1
        assert_eq!(c.cap(), 1);
        c.insert(1, 10);
        c.insert(1, 11); // same key: update, no eviction
        assert_eq!((c.len(), c.evictions()), (1, 0));
        assert_eq!(c.get(&1), Some(&11));
        c.insert(2, 20);
        assert_eq!((c.len(), c.evictions()), (1, 1));
    }

    #[test]
    fn pinned_entries_outlive_eviction_and_the_cap_comes_back() {
        let mut c: LruCache<u64, bool> = LruCache::new(2);
        let pinned = |held: &bool| *held;
        c.insert_unpinned(1, true, pinned);
        c.insert_unpinned(2, false, pinned);
        c.insert_unpinned(3, false, pinned); // 1 is oldest but pinned: 2 goes
        assert_eq!((c.get(&1).copied(), c.get(&2).copied(), c.len()), (Some(true), None, 2));
        c.insert_unpinned(4, true, pinned); // 3 goes; 1 stays
        c.insert_unpinned(5, false, pinned); // 1 and 4 are pinned: 5 joins past the cap
        assert_eq!((c.len(), c.evictions()), (3, 2), "two pins hold one slot past the cap");
        c.insert(6, false); // unpinned again: evicts down to the cap
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&6), Some(&false));
    }

    #[test]
    fn thousand_distinct_inserts_stay_bounded() {
        let mut c: LruCache<u64, u64> = LruCache::new(16);
        for i in 0..1000 {
            c.insert(i, i);
            assert!(c.len() <= 16);
        }
        assert_eq!(c.len(), 16);
        assert_eq!(c.evictions(), 1000 - 16);
        // The survivors are exactly the 16 most recent.
        for i in 984..1000 {
            assert_eq!(c.get(&i), Some(&i));
        }
    }
}
