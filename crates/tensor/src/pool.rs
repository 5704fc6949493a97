//! Recycled `Vec<T>` storage, the tensor-buffer counter, and the
//! [`FxHasher`] shared by hot-path maps across the workspace.
//!
//! Tensors own plain `Vec<f32>` storage: nothing is recycled, so a
//! fine-tuning run holds no tensor memory once its tensors drop. [`stats`]
//! counts the buffers the current thread's tensor constructors create,
//! which keeps per-step allocation figures exact and deterministic.
//!
//! [`Pool`] recycles storage by **power-of-two capacity bucket** — a request
//! for `len` elements is served by any shelved buffer whose capacity reaches
//! the next power of two ≥ `len` — and counts fresh allocations, reuses,
//! returns, and discards. The simulator uses it for kernel-record scratch
//! on the sweep hot path (`sim.record_pool`).
//!
//! Buffers handed out by a pool are **empty** vectors the caller extends
//! ([`Pool::take`], [`Pool::take_copy`]) or fills ([`Pool::take_filled`]);
//! stale data from a previous tenant is never observable.

use std::cell::Cell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Multiply-xor hasher (the rustc-hash construction) for the shelf maps.
/// Shelf keys are tiny `usize` capacity buckets on the take/give hot path,
/// where the default SipHash's per-call overhead is measurable. Keys are
/// never adversarial, so DoS resistance is not needed.
///
/// Public because other crates reuse the same construction for hot-path
/// keys (e.g. the planner service's scenario-hash cache).
#[derive(Default)]
pub struct FxHasher(u64);

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
        for &b in bytes {
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
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

type FxMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// Maximum spare buffers kept per capacity bucket; returns beyond this are
/// dropped (and counted as discards) so a pool cannot grow without bound.
const SHELF_CAP: usize = 512;

/// Buffers larger than this many elements are never shelved: one-off giant
/// temporaries should not pin memory for the rest of the pool's life.
const MAX_POOLED_LEN: usize = 1 << 24;

/// Snapshot of a pool's event counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Buffers created with a fresh heap allocation (pool misses).
    pub fresh_allocs: u64,
    /// Buffers served from a shelf without allocating (pool hits).
    pub reuses: u64,
    /// Buffers accepted back onto a shelf.
    pub returns: u64,
    /// Buffers dropped instead of shelved (full shelf or oversized).
    pub discards: u64,
}

impl PoolStats {
    /// Fresh allocations that happened between `earlier` and `self`.
    pub fn allocs_since(&self, earlier: &PoolStats) -> u64 {
        self.fresh_allocs - earlier.fresh_allocs
    }
}

/// A thread-safe pool of `Vec<T>` storage keyed by power-of-two capacity
/// bucket.
///
/// Invariant: a shelved buffer sits in the bucket `B = floor_pow2(cap)`,
/// so its capacity is in `[B, 2B)`; a request for `len` elements looks in
/// bucket `ceil_pow2(len)`, and any buffer found there has `cap ≥ B ≥ len`.
/// Fresh allocations are rounded up to the full bucket
/// (`Vec::with_capacity(ceil_pow2(len))`) so a buffer returns to the same
/// bucket it was taken from; foreign buffers with non-power-of-two
/// capacities shelve into their floor bucket and stay usable.
///
/// When observability is on ([`ftsim_obs::enabled`]), every pool event is
/// mirrored into the global metrics registry under
/// `{label}.{fresh_allocs,reuses,returns,discards}` — the registry-facing
/// view of the same counters [`Pool::stats`] reports. The mirror costs one
/// relaxed atomic load per event while observability is off.
///
/// ```
/// use ftsim_tensor::pool::Pool;
/// let pool: Pool<u32> = Pool::with_label("doc.pool");
/// let mut buf = pool.take_filled(128, 0);
/// buf[0] = 42;
/// pool.give(buf);
/// // The next request of the same size reuses the storage, emptied.
/// let again = pool.take(128);
/// assert!(again.is_empty() && again.capacity() >= 128);
/// assert_eq!(pool.stats().reuses, 1);
/// ```
#[derive(Debug)]
pub struct Pool<T> {
    /// Spare buffers keyed by power-of-two capacity bucket.
    shelves: Mutex<FxMap<usize, Vec<Vec<T>>>>,
    fresh_allocs: AtomicU64,
    reuses: AtomicU64,
    returns: AtomicU64,
    discards: AtomicU64,
    /// Metric-name prefix for the obs mirror.
    label: &'static str,
    obs: OnceLock<[ftsim_obs::Counter; 4]>,
}

/// Shelf bucket a request for `len` elements draws from: the smallest power
/// of two ≥ `len`. Fresh allocations are sized to this bucket too, so a
/// pool-born buffer always returns to the bucket it was taken from.
#[inline]
fn bucket_for_len(len: usize) -> usize {
    len.next_power_of_two()
}

/// Shelf bucket a buffer of capacity `cap ≥ 1` is stored in: the largest
/// power of two ≤ `cap`. Guarantees every buffer in bucket `B` can serve
/// every request routed to `B` (`cap ≥ B ≥ len`), including foreign buffers
/// whose capacity is not a power of two.
#[inline]
fn bucket_for_cap(cap: usize) -> usize {
    debug_assert!(cap >= 1);
    1 << (usize::BITS - 1 - cap.leading_zeros())
}

/// Indices into the obs counter array.
const FRESH: usize = 0;
const REUSE: usize = 1;
const RETURN: usize = 2;
const DISCARD: usize = 3;

impl<T> Pool<T> {
    /// Creates an empty pool whose obs-mirrored counters are named
    /// `{label}.fresh_allocs` etc.
    pub fn with_label(label: &'static str) -> Self {
        Pool {
            shelves: Mutex::new(FxMap::default()),
            fresh_allocs: AtomicU64::new(0),
            reuses: AtomicU64::new(0),
            returns: AtomicU64::new(0),
            discards: AtomicU64::new(0),
            label,
            obs: OnceLock::new(),
        }
    }

    #[inline]
    fn bump(&self, counter: &AtomicU64, which: usize) {
        counter.fetch_add(1, Ordering::Relaxed);
        if ftsim_obs::enabled() {
            let handles = self.obs.get_or_init(|| {
                let registry = ftsim_obs::registry();
                [
                    registry.counter(&format!("{}.fresh_allocs", self.label)),
                    registry.counter(&format!("{}.reuses", self.label)),
                    registry.counter(&format!("{}.returns", self.label)),
                    registry.counter(&format!("{}.discards", self.label)),
                ]
            });
            handles[which].add(1);
        }
    }

    /// An **empty** vector with capacity at least `len`, reusing shelved
    /// storage when the matching power-of-two bucket holds a spare buffer.
    /// The caller must fill it (e.g. with `extend`) — length starts at
    /// zero, so stale contents are unreachable.
    pub fn take(&self, len: usize) -> Vec<T> {
        if len == 0 {
            return Vec::new();
        }
        let bucket = bucket_for_len(len);
        let reused = self
            .shelves
            .lock()
            .expect("pool mutex")
            .get_mut(&bucket)
            .and_then(Vec::pop);
        match reused {
            Some(mut v) => {
                debug_assert!(v.capacity() >= len, "bucket invariant violated");
                self.bump(&self.reuses, REUSE);
                v.clear();
                v
            }
            None => {
                self.bump(&self.fresh_allocs, FRESH);
                // Round fresh storage up to the full bucket so the buffer
                // returns to the bucket this request was routed to.
                Vec::with_capacity(bucket)
            }
        }
    }

    /// A vector of exactly `len` copies of `value`.
    pub fn take_filled(&self, len: usize, value: T) -> Vec<T>
    where
        T: Clone,
    {
        let mut v = self.take(len);
        v.resize(len, value);
        v
    }

    /// A vector holding a copy of `src`.
    pub fn take_copy(&self, src: &[T]) -> Vec<T>
    where
        T: Clone,
    {
        let mut v = self.take(src.len());
        v.extend_from_slice(src);
        v
    }

    /// Returns a buffer to its capacity bucket for reuse. Zero-capacity and
    /// oversized buffers, and returns to a full shelf, are dropped instead.
    /// The buffer is cleared first, so element destructors run now, not at
    /// reuse time.
    pub fn give(&self, mut buf: Vec<T>) {
        let cap = buf.capacity();
        if cap == 0 || cap > MAX_POOLED_LEN {
            if cap > 0 {
                self.bump(&self.discards, DISCARD);
            }
            return;
        }
        buf.clear();
        let mut shelves = self.shelves.lock().expect("pool mutex");
        let shelf = shelves.entry(bucket_for_cap(cap)).or_default();
        if shelf.len() >= SHELF_CAP {
            self.bump(&self.discards, DISCARD);
        } else {
            shelf.push(buf);
            self.bump(&self.returns, RETURN);
        }
    }

    /// Number of buffers currently shelved across all buckets.
    pub fn resident(&self) -> usize {
        self.shelves
            .lock()
            .expect("pool mutex")
            .values()
            .map(Vec::len)
            .sum()
    }

    /// Snapshot of the event counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            fresh_allocs: self.fresh_allocs.load(Ordering::Relaxed),
            reuses: self.reuses.load(Ordering::Relaxed),
            returns: self.returns.load(Ordering::Relaxed),
            discards: self.discards.load(Ordering::Relaxed),
        }
    }
}

thread_local! {
    static TENSOR_BUFFERS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one tensor buffer created on the current thread.
pub(crate) fn count_tensor_buffer() {
    let _ = TENSOR_BUFFERS.try_with(|c| c.set(c.get() + 1));
}

/// Tensor buffers the current thread's tensor constructors have created,
/// as `fresh_allocs`. Every tensor owns a fresh `Vec`, so nothing is
/// reused, returned, or discarded: the other fields read 0.
pub fn stats() -> PoolStats {
    PoolStats {
        fresh_allocs: TENSOR_BUFFERS.try_with(Cell::get).unwrap_or(0),
        ..PoolStats::default()
    }
}

/// Tensor buffers the current thread retains between uses: always 0, since
/// no storage is retained.
pub fn resident() -> usize {
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn pool<T>() -> Pool<T> {
        Pool::with_label("test.pool")
    }

    #[test]
    fn take_give_roundtrip_reuses_storage() {
        let pool = pool::<f32>();
        let mut a = pool.take_filled(64, 0.0);
        a.iter_mut().for_each(|x| *x = 7.0);
        let ptr = a.as_ptr();
        pool.give(a);
        let b = pool.take_filled(64, 0.0);
        assert_eq!(b.as_ptr(), ptr, "expected the same storage back");
        assert!(b.iter().all(|&x| x == 0.0), "stale data leaked");
        let s = pool.stats();
        assert_eq!((s.fresh_allocs, s.reuses, s.returns), (1, 1, 1));
    }

    #[test]
    fn mismatched_bucket_allocates_fresh() {
        // 8 and 16 land in different power-of-two buckets: no reuse.
        let pool = pool::<f32>();
        pool.give(pool.take_filled(8, 0.0));
        let v = pool.take_filled(16, 0.0);
        assert_eq!(v.len(), 16);
        assert_eq!(pool.stats().fresh_allocs, 2);
        assert_eq!(pool.stats().reuses, 0);
    }

    #[test]
    fn same_bucket_different_len_reuses_storage() {
        // 33..=64 all share the 64 bucket: a buffer taken for one length
        // serves any other.
        let pool = pool::<f32>();
        let a = pool.take_filled(33, 0.0);
        assert_eq!(a.capacity(), 64, "fresh allocs are rounded to the bucket");
        let ptr = a.as_ptr();
        pool.give(a);
        let b = pool.take_filled(64, 0.0);
        assert_eq!(b.as_ptr(), ptr, "expected the same storage back");
        pool.give(b);
        let c = pool.take_filled(40, 0.0);
        assert_eq!(c.as_ptr(), ptr, "expected the same storage back");
        let s = pool.stats();
        assert_eq!((s.fresh_allocs, s.reuses), (1, 2));
    }

    #[test]
    fn foreign_non_pow2_capacity_shelves_into_floor_bucket() {
        // A buffer the pool did not create (capacity 12) floors into bucket
        // 8 and can serve any request of len ≤ 8 — never one of len > 12.
        let pool: Pool<u8> = Pool::with_label("test.pool.foreign");
        let mut foreign = Vec::with_capacity(12);
        foreign.push(1u8);
        let ptr = foreign.as_ptr();
        pool.give(foreign);
        let v = pool.take(7);
        assert_eq!(v.as_ptr(), ptr, "expected the foreign storage back");
        assert!(v.capacity() >= 7);
        assert_eq!(pool.stats().reuses, 1);
    }

    #[test]
    fn shelf_cap_discards_excess() {
        let pool = pool::<f32>();
        let bufs: Vec<_> = (0..SHELF_CAP + 3)
            .map(|_| pool.take_filled(4, 0.0))
            .collect();
        for b in bufs {
            pool.give(b);
        }
        assert_eq!(pool.resident(), SHELF_CAP);
        assert_eq!(pool.stats().discards, 3);
    }

    #[test]
    fn zero_len_never_touches_shelves() {
        let pool = pool::<f32>();
        let v = pool.take(0);
        assert_eq!(v.capacity(), 0);
        pool.give(v);
        assert_eq!(pool.resident(), 0);
        assert_eq!(pool.stats().fresh_allocs, 0);
    }

    #[test]
    fn generic_pool_recycles_non_f32_storage() {
        let pool: Pool<String> = Pool::with_label("test.pool.generic");
        let mut v = pool.take(4);
        v.extend((0..4).map(|i| i.to_string()));
        let ptr = v.as_ptr();
        pool.give(v);
        let again: Vec<String> = pool.take(4);
        assert_eq!(again.as_ptr(), ptr, "expected the same storage back");
        assert!(again.is_empty(), "recycled buffer must arrive cleared");
        let s = pool.stats();
        assert_eq!((s.fresh_allocs, s.reuses, s.returns), (1, 1, 1));
    }

    #[test]
    fn obs_mirror_reports_pool_events_in_registry() {
        let pool: Pool<u32> = Pool::with_label("test.pool.mirror");
        ftsim_obs::enable();
        let v = pool.take(16);
        pool.give(v);
        let v = pool.take(16);
        ftsim_obs::disable();
        drop(v);
        let registry = ftsim_obs::registry();
        assert_eq!(registry.counter("test.pool.mirror.fresh_allocs").get(), 1);
        assert_eq!(registry.counter("test.pool.mirror.reuses").get(), 1);
        assert_eq!(registry.counter("test.pool.mirror.returns").get(), 1);
    }

    #[test]
    fn take_copy_is_exact() {
        let pool = pool::<f32>();
        let src = [1.0, -2.0, 3.5];
        let v = pool.take_copy(&src);
        assert_eq!(v.as_slice(), &src);
    }

    proptest! {
        #[test]
        fn prop_roundtrip_exact_len_and_no_stale_data(
            lens in proptest::collection::vec(1usize..200, 1..12),
            garbage in -100.0f32..100.0,
        ) {
            // Pollute the pool with garbage-filled buffers of every length,
            // then verify fresh requests are exact-length and fully zeroed.
            let pool = pool::<f32>();
            for &len in &lens {
                let mut v = pool.take_filled(len, 0.0);
                v.iter_mut().for_each(|x| *x = garbage);
                pool.give(v);
            }
            for &len in &lens {
                let v = pool.take_filled(len, 0.0);
                prop_assert_eq!(v.len(), len);
                prop_assert!(v.iter().all(|&x| x == 0.0));
                pool.give(v);
            }
        }

        #[test]
        fn prop_take_copy_roundtrip_matches_source(
            data in proptest::collection::vec(-1e6f32..1e6, 1..64),
        ) {
            let pool = pool::<f32>();
            // Prior tenant with different contents.
            let mut prior = pool.take_filled(data.len(), 0.0);
            prior.iter_mut().for_each(|x| *x = f32::NAN);
            pool.give(prior);
            let v = pool.take_copy(&data);
            prop_assert_eq!(v.len(), data.len());
            for (a, b) in v.iter().zip(&data) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}
