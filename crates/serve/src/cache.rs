//! Sharded scenario-hash LRU cache with request coalescing.
//!
//! The cache sits in front of the planner engine: the key is the scenario's
//! canonical text (see [`crate::spec::ScenarioSpec::canonical_key`]) and the
//! value is the finished JSON answer. The scenario hash picks the shard;
//! within a shard, entries are keyed by the full canonical string, so a
//! 64-bit hash collision costs at most a shard neighbor — never a wrong
//! answer.
//!
//! Misses are **coalesced** (single-flight): the first thread to miss a key
//! inserts a `Pending` marker and computes outside the shard lock; threads
//! that arrive while the computation is in flight park on the shard's
//! condvar and wake to the finished value instead of recomputing it. The
//! compute closure is deterministic, so whichever thread fills the entry,
//! every caller sees bit-identical bytes.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use ftsim_obs::Counter;

/// Multiply-xor hasher (the rustc-hash construction) for the shard maps and
/// the scenario hash ([`crate::spec::ScenarioSpec::hash`]). Keys are
/// canonical scenario strings on the cache-hit hot path, where the default
/// SipHash's per-call overhead is measurable. Bytes are mixed in 8-byte
/// words, so a ~150-byte key costs ~20 multiplies rather than ~150. A
/// collision never yields a wrong answer: entries are keyed by the full
/// canonical string.
#[derive(Default)]
pub(crate) struct FxHasher(u64);

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        let mut tail = words.remainder();
        if tail.len() >= 4 {
            self.add(u64::from(u32::from_le_bytes(
                tail[..4].try_into().expect("4 bytes"),
            )));
            tail = &tail[4..];
        }
        if tail.len() >= 2 {
            self.add(u64::from(u16::from_le_bytes(
                tail[..2].try_into().expect("2 bytes"),
            )));
            tail = &tail[2..];
        }
        if let Some(&b) = tail.first() {
            self.add(u64::from(b));
        }
    }
    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }
}

/// `BuildHasher` for [`FxHasher`]-keyed maps.
type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// One cached answer, or a marker that a thread is computing it.
enum Entry {
    /// A thread is computing this scenario; wait on the shard condvar.
    Pending,
    /// Finished answer plus its last-touched tick for LRU eviction.
    Ready { answer: Arc<str>, last_used: u64 },
}

struct Shard {
    map: HashMap<Arc<str>, Entry, FxBuildHasher>,
    /// Monotonic per-shard use counter; higher = more recently used.
    tick: u64,
    /// Number of `Ready` entries in `map`.
    ready: usize,
}

/// Point-in-time counter values, for stats queries and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from a `Ready` entry.
    pub hits: u64,
    /// Lookups that had to compute the answer.
    pub misses: u64,
    /// Lookups that parked behind another thread's in-flight compute.
    pub coalesced: u64,
    /// Entries discarded to stay within capacity.
    pub evictions: u64,
}

/// Sharded canonical-key → answer LRU cache.
pub struct ScenarioCache {
    shards: Vec<(Mutex<Shard>, Condvar)>,
    /// Max `Ready` entries per shard.
    per_shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    evictions: AtomicU64,
    obs: OnceLock<[Counter; 4]>,
}

impl ScenarioCache {
    /// A cache holding at most `capacity` answers spread over `shards`
    /// shards (both clamped to at least 1; shards rounded to a power of
    /// two so shard selection is a mask).
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1).next_power_of_two();
        let per_shard_capacity = capacity.max(1).div_ceil(shards);
        ScenarioCache {
            shards: (0..shards)
                .map(|_| {
                    (
                        Mutex::new(Shard {
                            map: HashMap::default(),
                            tick: 0,
                            ready: 0,
                        }),
                        Condvar::new(),
                    )
                })
                .collect(),
            per_shard_capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            obs: OnceLock::new(),
        }
    }

    /// Total `Ready` + `Pending` entries the cache may hold.
    pub fn capacity(&self) -> usize {
        self.per_shard_capacity * self.shards.len()
    }

    /// Number of shards (always a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Current number of `Ready` entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|(m, _)| m.lock().unwrap().ready)
            .sum()
    }

    /// True when no shard holds a finished answer.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn shard_for(&self, hash: u64) -> &(Mutex<Shard>, Condvar) {
        // Top bits: FxHash's final multiply mixes best into the high half.
        let idx = (hash >> 48) as usize & (self.shards.len() - 1);
        &self.shards[idx]
    }

    fn bump(&self, which: usize) {
        let [hits, misses, coalesced, evictions] = self.obs.get_or_init(|| {
            let reg = ftsim_obs::registry();
            [
                reg.counter("serve.cache.hits"),
                reg.counter("serve.cache.misses"),
                reg.counter("serve.cache.coalesced"),
                reg.counter("serve.cache.evictions"),
            ]
        });
        let (local, mirror) = match which {
            0 => (&self.hits, hits),
            1 => (&self.misses, misses),
            2 => (&self.coalesced, coalesced),
            _ => (&self.evictions, evictions),
        };
        local.fetch_add(1, Ordering::Relaxed);
        if ftsim_obs::enabled() {
            mirror.add(1);
        }
    }

    /// Looks up `key` (whose scenario hash is `hash`), computing the answer
    /// with `compute` on a miss. Concurrent misses on the same key coalesce
    /// onto one computation. `compute` runs outside all shard locks and
    /// must be deterministic for the key.
    pub fn get_or_compute(
        &self,
        key: &str,
        hash: u64,
        compute: impl FnOnce() -> String,
    ) -> Arc<str> {
        let (lock, cvar) = self.shard_for(hash);
        let mut shard = lock.lock().unwrap();
        loop {
            shard.tick += 1;
            let tick = shard.tick;
            match shard.map.get_mut(key) {
                Some(Entry::Ready { answer, last_used }) => {
                    *last_used = tick;
                    let out = Arc::clone(answer);
                    drop(shard);
                    self.bump(0);
                    return out;
                }
                Some(Entry::Pending) => {
                    self.bump(2);
                    shard = cvar.wait(shard).unwrap();
                    // Re-check: the filler may have finished, or (if it
                    // panicked and removed the marker) we take over the miss.
                }
                None => break,
            }
        }
        let key: Arc<str> = Arc::from(key);
        shard.map.insert(Arc::clone(&key), Entry::Pending);
        drop(shard);
        self.bump(1);
        // Remove the Pending marker even if compute panics, so parked
        // waiters retake the miss instead of sleeping forever.
        struct Unpark<'a> {
            cache: &'a ScenarioCache,
            hash: u64,
            key: Arc<str>,
            filled: bool,
        }
        impl Drop for Unpark<'_> {
            fn drop(&mut self) {
                if !self.filled {
                    let (lock, cvar) = self.cache.shard_for(self.hash);
                    lock.lock().unwrap().map.remove(&self.key);
                    cvar.notify_all();
                }
            }
        }
        let mut guard = Unpark {
            cache: self,
            hash,
            key: Arc::clone(&key),
            filled: false,
        };
        let answer: Arc<str> = Arc::from(compute());
        guard.filled = true;
        drop(guard);

        let mut shard = lock.lock().unwrap();
        shard.tick += 1;
        let tick = shard.tick;
        let replaced = shard.map.insert(
            key,
            Entry::Ready {
                answer: Arc::clone(&answer),
                last_used: tick,
            },
        );
        if !matches!(replaced, Some(Entry::Ready { .. })) {
            shard.ready += 1;
        }
        let mut evicted = 0u64;
        while shard.ready > self.per_shard_capacity {
            // The least recently used entry, found by borrowing; only the
            // victim's key is cloned, to remove it once the scan ends.
            let victim = shard
                .map
                .iter()
                .filter_map(|(k, e)| match e {
                    Entry::Ready { last_used, .. } => Some((*last_used, k)),
                    Entry::Pending => None,
                })
                .min_by_key(|(used, _)| *used)
                .map(|(_, k)| Arc::clone(k));
            let Some(victim) = victim else { break };
            shard.map.remove(&victim);
            shard.ready -= 1;
            evicted += 1;
        }
        drop(shard);
        cvar.notify_all();
        for _ in 0..evicted {
            self.bump(3);
        }
        answer
    }

    /// Returns the answer for `key` if already cached, without computing.
    /// Does not count as a hit or bump recency.
    pub fn peek(&self, key: &str, hash: u64) -> Option<Arc<str>> {
        let (lock, _) = self.shard_for(hash);
        let shard = lock.lock().unwrap();
        match shard.map.get(key) {
            Some(Entry::Ready { answer, .. }) => Some(Arc::clone(answer)),
            _ => None,
        }
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(key: &str) -> u64 {
        crate::spec::ScenarioSpec::key_hash(key)
    }

    fn get(cache: &ScenarioCache, key: &str) -> String {
        cache
            .get_or_compute(key, h(key), || format!("answer:{key}"))
            .to_string()
    }

    #[test]
    fn hasher_mixes_every_byte_of_word_and_tail() {
        // Every prefix length exercises a different word/4/2/1 split.
        let key = "q=plan;model=mixtral-8x7b;gpu=A40";
        let mut seen = std::collections::HashSet::new();
        for end in 0..=key.len() {
            assert!(seen.insert(h(&key[..end])), "prefix {end} collides");
        }
        for i in 0..key.len() {
            let mut flipped = key.as_bytes().to_vec();
            flipped[i] ^= 1;
            let flipped = String::from_utf8(flipped).unwrap();
            assert_ne!(h(&flipped), h(key), "byte {i} not mixed in");
        }
    }

    #[test]
    fn hit_returns_the_cached_bytes_without_recompute() {
        let cache = ScenarioCache::new(8, 1);
        let first = cache.get_or_compute("k", h("k"), || "v1".to_string());
        let second = cache.get_or_compute("k", h("k"), || unreachable!("must not recompute"));
        assert_eq!(&*first, "v1");
        assert!(Arc::ptr_eq(&first, &second), "hit shares the same bytes");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn evicts_least_recently_used_first() {
        let cache = ScenarioCache::new(2, 1);
        get(&cache, "a");
        get(&cache, "b");
        get(&cache, "a"); // refresh a: b is now the LRU entry
        get(&cache, "c"); // evicts b
        assert!(cache.peek("a", h("a")).is_some(), "a was refreshed");
        assert!(cache.peek("b", h("b")).is_none(), "b was the LRU victim");
        assert!(cache.peek("c", h("c")).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn capacity_bounds_hold_under_churn() {
        let cache = ScenarioCache::new(16, 4);
        for i in 0..1000 {
            get(&cache, &format!("key-{i}"));
        }
        assert!(
            cache.len() <= cache.capacity(),
            "len {} exceeds capacity {}",
            cache.len(),
            cache.capacity()
        );
        let s = cache.stats();
        assert_eq!(s.misses, 1000);
        assert_eq!(s.evictions, 1000 - cache.len() as u64);
    }

    #[test]
    fn concurrent_hits_and_misses_account_exactly() {
        // ≥8 threads hammer a small universe of keys; every lookup is either
        // a hit, a miss, or a coalesced wait that resolves to a hit.
        let cache = Arc::new(ScenarioCache::new(64, 8));
        let threads = 8;
        let per_thread = 500;
        let keys: Vec<String> = (0..32).map(|i| format!("scenario-{i}")).collect();
        std::thread::scope(|scope| {
            for t in 0..threads {
                let cache = Arc::clone(&cache);
                let keys = &keys;
                scope.spawn(move || {
                    for i in 0..per_thread {
                        let key = &keys[(i * 7 + t * 13) % keys.len()];
                        let got = cache.get_or_compute(key, h(key), || format!("answer:{key}"));
                        assert_eq!(&*got, &format!("answer:{key}"));
                    }
                });
            }
        });
        let s = cache.stats();
        assert_eq!(
            s.hits + s.misses,
            (threads * per_thread) as u64,
            "every lookup resolves as exactly one hit or one miss: {s:?}"
        );
        // Capacity (64) exceeds the key universe (32), so nothing evicts and
        // each key misses exactly once.
        assert_eq!(s.misses, keys.len() as u64);
        assert_eq!(s.evictions, 0);
    }

    #[test]
    fn coalesced_misses_compute_once() {
        use std::sync::atomic::AtomicUsize;
        let cache = Arc::new(ScenarioCache::new(8, 1));
        let computes = Arc::new(AtomicUsize::new(0));
        let gate = Arc::new(std::sync::Barrier::new(8));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let cache = Arc::clone(&cache);
                let computes = Arc::clone(&computes);
                let gate = Arc::clone(&gate);
                scope.spawn(move || {
                    gate.wait();
                    let got = cache.get_or_compute("hot", h("hot"), || {
                        computes.fetch_add(1, Ordering::SeqCst);
                        // Widen the in-flight window so peers park on it.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        "v".to_string()
                    });
                    assert_eq!(&*got, "v");
                });
            }
        });
        assert_eq!(
            computes.load(Ordering::SeqCst),
            1,
            "single-flight: one compute serves all callers"
        );
        let s = cache.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 7);
    }
}
