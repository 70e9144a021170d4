//! A fixed-capacity least-recently-used cache for hot pair embeddings,
//! their neighbour lists and their memoized scores.
//!
//! Query traffic is zipfian — the same records get resolved again and
//! again — so the embedding stage (tokenize → featurize → P matcher
//! forwards), the ANN localization and the GNN forward sit behind this
//! cache. The service keeps a memoized score only while the neighbour
//! lists it was computed over stay as they were (the invariant and the
//! clearing rule are the service's, on its `LocatedPair` value type); a
//! memo that grows is filled in the shared value, not re-inserted.
//! Recency is an index-linked list threaded through a slab of entries
//! (`prev`/`next` are slab positions, not pointers — no unsafe code to
//! audit), so a lookup, an insert and an eviction are each one hash probe
//! plus O(1) relinking: a cold resolve inserts ~130 entries, and a scan of
//! a full 16 384-entry cache per insert used to double its cost.
//!
//! The cache is generic over its key so the hot path can use a
//! fixed-width hashed key ([`Copy`], no heap) instead of an owned
//! `String`, and over the map's hasher `S` (std's SipHash
//! [`RandomState`] unless the caller names another, as [`HashMap`]
//! is): a key that already *is* unpredictable hashed bits needs no second
//! hash, so the service passes its keys through
//! ([`LruCache::with_hasher`]). It counts nothing: the service counts its
//! own lookups.

use std::borrow::Borrow;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash};

/// "No entry" in the recency list.
const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Entry<K, V> {
    key: K,
    value: V,
    /// Towards the most recently used entry.
    prev: usize,
    /// Towards the least recently used entry.
    next: usize,
}

/// Fixed-capacity LRU cache whose map hashes keys with `S`.
#[derive(Debug)]
pub struct LruCache<K, V, S = RandomState> {
    capacity: usize,
    /// Key → position in `entries`.
    map: HashMap<K, usize, S>,
    /// The slab: an entry keeps its position for life; eviction reuses the
    /// evicted entry's position, so the slab never holds a free slot.
    entries: Vec<Entry<K, V>>,
    /// Most recently used entry.
    head: usize,
    /// Least recently used entry — the next eviction.
    tail: usize,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Cache holding at most `capacity` entries (0 disables caching),
    /// its keys SipHashed under a random key.
    pub fn new(capacity: usize) -> Self {
        Self::with_hasher(capacity, RandomState::new())
    }
}

impl<K: Eq + Hash + Clone, V, S: BuildHasher> LruCache<K, V, S> {
    /// Cache holding at most `capacity` entries (0 disables caching),
    /// its keys hashed by `hasher`.
    pub fn with_hasher(capacity: usize, hasher: S) -> Self {
        Self {
            capacity,
            map: HashMap::with_capacity_and_hasher(capacity.min(1 << 16), hasher),
            // Grown on demand: a lightly used cache should not hold a
            // capacity-sized slab.
            entries: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Looks up `key`, refreshing its recency.
    pub fn get<Q>(&mut self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        let at = self.map.get(key).copied()?;
        self.touch(at);
        Some(&self.entries[at].value)
    }

    /// Inserts `key` as the most recently used entry (replacing its value
    /// if present), evicting the least-recently-used entry when full.
    pub fn insert(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&at) = self.map.get(&key) {
            self.entries[at].value = value;
            self.touch(at);
            return;
        }
        let entry = Entry { key: key.clone(), value, prev: NIL, next: NIL };
        let at = if self.entries.len() < self.capacity {
            self.entries.push(entry);
            self.entries.len() - 1
        } else {
            let at = self.tail;
            self.unlink(at);
            let evicted = std::mem::replace(&mut self.entries[at], entry);
            self.map.remove(&evicted.key);
            at
        };
        self.map.insert(key, at);
        self.link_front(at);
    }

    /// Makes the entry at `at` the most recently used.
    fn touch(&mut self, at: usize) {
        if self.head != at {
            self.unlink(at);
            self.link_front(at);
        }
    }

    fn unlink(&mut self, at: usize) {
        let Entry { prev, next, .. } = self.entries[at];
        match prev {
            NIL => self.head = next,
            p => self.entries[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.entries[n].prev = prev,
        }
    }

    fn link_front(&mut self, at: usize) {
        self.entries[at].prev = NIL;
        self.entries[at].next = self.head;
        match self.head {
            NIL => self.tail = at,
            h => self.entries[h].prev = at,
        }
        self.head = at;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn hit_miss_and_eviction() {
        let mut cache: LruCache<String, i32> = LruCache::new(2);
        cache.insert("a".into(), 1);
        cache.insert("b".into(), 2);
        assert_eq!(cache.get("a"), Some(&1)); // refresh a
        cache.insert("c".into(), 3); // evicts b (least recent)
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get("b"), None);
        assert_eq!(cache.get("a"), Some(&1));
        assert_eq!(cache.get("c"), Some(&3));
    }

    #[test]
    fn reinsert_updates_value_without_eviction() {
        let mut cache: LruCache<String, i32> = LruCache::new(2);
        cache.insert("a".into(), 1);
        cache.insert("b".into(), 2);
        cache.insert("a".into(), 10);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get("a"), Some(&10));
        assert_eq!(cache.get("b"), Some(&2));
    }

    #[test]
    fn zero_capacity_never_stores() {
        let mut cache: LruCache<String, i32> = LruCache::new(0);
        cache.insert("a".into(), 1);
        assert!(cache.is_empty());
        assert_eq!(cache.get("a"), None);
    }

    #[test]
    fn copy_keys_need_no_allocation() {
        // The serving tier's key shape: a fixed-width hashed id.
        let mut cache: LruCache<u128, &'static str> = LruCache::new(4);
        cache.insert(42, "hot");
        assert_eq!(cache.get(&42), Some(&"hot"));
        assert_eq!(cache.get(&43), None);
    }
    /// The previous implementation — a map of `(value, last-use tick)` with
    /// an O(capacity) minimum-tick eviction scan — kept as the model the
    /// linked list is checked against.
    struct TickScanLru {
        capacity: usize,
        tick: u64,
        map: HashMap<u8, (u32, u64)>,
    }

    impl TickScanLru {
        fn get(&mut self, key: u8) -> Option<u32> {
            self.tick += 1;
            let (v, used) = self.map.get_mut(&key)?;
            *used = self.tick;
            Some(*v)
        }

        fn insert(&mut self, key: u8, value: u32) {
            if self.capacity == 0 {
                return;
            }
            self.tick += 1;
            if !self.map.contains_key(&key) && self.map.len() >= self.capacity {
                // Ticks are unique, so the minimum is unambiguous.
                let oldest = *self.map.iter().min_by_key(|(_, (_, used))| *used).unwrap().0;
                self.map.remove(&oldest);
            }
            self.map.insert(key, (value, self.tick));
        }
    }

    proptest! {
        /// Random get/insert traces over a small key space (so hits,
        /// re-inserts and evictions all occur): every lookup and the length
        /// agree with the tick-scan model at every step,
        /// and so does the full content at the end.
        #[test]
        fn matches_the_tick_scan_model(
            capacity in 0usize..7,
            trace in prop::collection::vec((any::<bool>(), 0u8..10), 0..200),
        ) {
            let mut cache: LruCache<u8, u32> = LruCache::new(capacity);
            let mut model = TickScanLru { capacity, tick: 0, map: HashMap::new() };
            for (step, &(is_get, key)) in trace.iter().enumerate() {
                if is_get {
                    prop_assert_eq!(cache.get(&key).copied(), model.get(key), "step {}", step);
                } else {
                    cache.insert(key, step as u32);
                    model.insert(key, step as u32);
                }
                prop_assert_eq!(cache.len(), model.map.len(), "step {}", step);
            }
            let mut left: Vec<(u8, u32)> = model.map.iter().map(|(k, (v, _))| (*k, *v)).collect();
            left.sort_unstable();
            for (key, value) in left {
                prop_assert_eq!(cache.get(&key), Some(&value));
            }
        }
    }
}
