//! The sharded, optionally bounded memo table under both memo layers.
//!
//! [`crate::LatencyCache`] (layer costs) and
//! [`crate::incremental::KernelMemo`] (per-kernel engine costs) store
//! their entries in one [`ShardedMemo`]: 16 digest-keyed shards, each a
//! poison-recovering `Mutex` over digest buckets, plus the opt-in
//! per-shard bound and its *admit-if-smaller* eviction policy. The table
//! owns storage and policy only; callers own their keys' digests, their
//! counters and what an insert outcome means to them (see [`Inserted`]).
//!
//! # Bounded mode
//!
//! With a per-shard cap set, a fresh key is admitted to a full shard only
//! when its `(digest, key)` order key is smaller than the shard's current
//! maximum, which it displaces. Membership is therefore monotone toward
//! the `cap` order-smallest distinct keys ever offered — a pure function
//! of the key *set*, independent of arrival order and thread schedule.
//!
//! Each shard keeps its bucket digests in a max-heap beside the bucket
//! map, so the shard's largest order key sits in the bucket under the
//! heap's top. "Does the newcomer beat the maximum" reads that one bucket,
//! and evicting the maximum pops the heap only when its bucket empties: a
//! capped insert costs O(log n) instead of a scan of the whole shard, and
//! lookups stay one identity-hashed probe.

use std::cmp::Ordering as CmpOrdering;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Number of independently locked shards; a power of two so the shard
/// index is a cheap mask. 16 comfortably out-scales the worker counts the
/// sweep engine runs with.
pub(crate) const SHARDS: usize = 16;

/// SplitMix64 finalizer: cheap, high-quality 64-bit mixing (shared with
/// the fault-injection plan, whose decisions are pure hash functions).
pub(crate) fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The digest is already well-mixed, so bucket maps index by it directly
/// instead of re-hashing through SipHash.
#[derive(Default)]
pub(crate) struct IdentityHasher(u64);

impl std::hash::Hasher for IdentityHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = splitmix(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

/// The shard holding `digest`.
///
/// Shards on the *top* bits: the identity-hashed bucket maps consume the
/// low bits for their own indexing, and sharing those across the shard
/// split would cluster every shard's keys. Callers index their per-shard
/// counters with the same function.
pub(crate) fn shard_index(digest: u64) -> usize {
    (digest >> 60) as usize & (SHARDS - 1)
}

/// A memo key's structural total order, the eviction tie-break *within*
/// one digest bucket (cross-bucket order is by digest). It must have no
/// insertion-time or thread-schedule component, so bounded contents stay
/// a function of the key set alone.
pub(crate) trait MemoKey {
    /// Compares two keys structurally.
    fn order_cmp(&self, other: &Self) -> CmpOrdering;
}

/// What [`ShardedMemo::insert`] did with an offered entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Inserted {
    /// An equal key was already stored (a lost insert race, or a
    /// restored key); nothing changed.
    Present,
    /// The entry was stored; `displaced` when a full shard evicted its
    /// maximum to make room.
    Admitted {
        /// One entry was evicted to admit this one.
        displaced: bool,
    },
    /// A full shard refused the entry: every stored key orders below it.
    Rejected,
}

/// One shard: buckets keyed by digest, each holding the (rarely >1) exact
/// keys sharing that digest so hash collisions stay correct, every
/// bucket's digest once in a max-heap, and the number of entries across
/// all buckets.
#[derive(Debug)]
struct Shard<K, V> {
    map: HashMap<u64, Vec<(K, V)>, BuildHasherDefault<IdentityHasher>>,
    /// Only the maximum bucket ever empties (eviction is largest-first),
    /// so the heap needs no arbitrary removal.
    digests: BinaryHeap<u64>,
    len: usize,
}

impl<K, V> Default for Shard<K, V> {
    fn default() -> Self {
        Shard {
            map: HashMap::default(),
            digests: BinaryHeap::new(),
            len: 0,
        }
    }
}

impl<K: MemoKey, V> Shard<K, V> {
    /// The largest `(digest, key)` order key: the heap's top digest, and
    /// the index and key of the `order_cmp`-largest entry in its bucket.
    /// `None` on an empty shard.
    fn max_at(&self) -> Option<(u64, usize, &K)> {
        let digest = *self.digests.peek()?;
        let mut max_at: Option<(usize, &K)> = None;
        for (i, (key, _)) in self.map.get(&digest)?.iter().enumerate() {
            if max_at.is_none_or(|(_, incumbent)| key.order_cmp(incumbent) == CmpOrdering::Greater)
            {
                max_at = Some((i, key));
            }
        }
        max_at.map(|(i, key)| (digest, i, key))
    }

    /// `true` when the shard's largest `(digest, key)` order key is
    /// strictly greater than the candidate's.
    fn max_exceeds(&self, digest: u64, key: &K) -> bool {
        self.max_at().is_some_and(|(d, _, k)| {
            d.cmp(&digest).then_with(|| k.order_cmp(key)) == CmpOrdering::Greater
        })
    }

    /// Stores an entry whose key is known to be absent.
    fn push(&mut self, digest: u64, key: K, value: V) {
        let bucket = self.map.entry(digest).or_default();
        if bucket.is_empty() {
            self.digests.push(digest);
        }
        bucket.push((key, value));
        self.len += 1;
    }

    /// Removes the entry with the largest `(digest, key)` order key;
    /// `false` when there was none to remove.
    fn evict_max(&mut self) -> bool {
        let Some((digest, i, _)) = self.max_at() else {
            return false;
        };
        let Some(bucket) = self.map.get_mut(&digest) else {
            return false;
        };
        bucket.remove(i);
        self.len -= 1;
        if bucket.is_empty() {
            self.map.remove(&digest);
            self.digests.pop();
        }
        true
    }
}

/// A sharded, thread-safe, optionally bounded memo table.
#[derive(Debug)]
pub(crate) struct ShardedMemo<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    /// Opt-in per-shard entry bound; `0` means unbounded (the default).
    max_entries: AtomicUsize,
}

impl<K: MemoKey, V: Copy> ShardedMemo<K, V> {
    /// An empty, unbounded table.
    pub(crate) fn new() -> Self {
        ShardedMemo {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            max_entries: AtomicUsize::new(0),
        }
    }

    /// Locks the shard holding `digest`.
    ///
    /// Recovers from poisoning: entries are pure memoized values inserted
    /// whole under the lock, so a panicked holder cannot have left a torn
    /// state.
    fn lock_shard(&self, digest: u64) -> MutexGuard<'_, Shard<K, V>> {
        // lint: allow(index) — shard_index masks with SHARDS - 1, always in-bounds
        self.shards[shard_index(digest)]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The value stored under the key `matches` accepts, if any. The probe
    /// borrows the caller's parts, so a hit allocates nothing.
    pub(crate) fn lookup(&self, digest: u64, matches: impl Fn(&K) -> bool) -> Option<V> {
        let table = self.lock_shard(digest);
        table
            .map
            .get(&digest)
            .and_then(|bucket| bucket.iter().find(|(k, _)| matches(k)).map(|(_, v)| *v))
    }

    /// Offers one entry. `make_key` builds the owned key, and runs only
    /// when no stored key `matches`.
    pub(crate) fn insert(
        &self,
        digest: u64,
        matches: impl Fn(&K) -> bool,
        make_key: impl FnOnce() -> K,
        value: V,
    ) -> Inserted {
        let mut table = self.lock_shard(digest);
        let present = table
            .map
            .get(&digest)
            .is_some_and(|bucket| bucket.iter().any(|(k, _)| matches(k)));
        if present {
            return Inserted::Present;
        }
        let key = make_key();
        let cap = self.max_entries.load(Ordering::Relaxed);
        let full = cap > 0 && table.len >= cap;
        let mut displaced = false;
        if full {
            // Admit-if-smaller: displace the current maximum only when the
            // candidate orders below it, so membership converges to the
            // cap-smallest distinct keys regardless of arrival order.
            if !table.max_exceeds(digest, &key) {
                return Inserted::Rejected;
            }
            table.evict_max();
            displaced = true;
        }
        table.push(digest, key, value);
        Inserted::Admitted { displaced }
    }

    /// Bounds every shard to at most `cap` entries; `0` restores the
    /// unbounded default. Shrinking below the current occupancy trims each
    /// shard to `cap` immediately, largest order keys first; returns how
    /// many entries each shard dropped.
    pub(crate) fn set_max_entries_per_shard(&self, cap: usize) -> [u64; SHARDS] {
        self.max_entries.store(cap, Ordering::Relaxed);
        let mut dropped = [0u64; SHARDS];
        if cap == 0 {
            return dropped;
        }
        for (shard, n) in self.shards.iter().zip(&mut dropped) {
            let mut table = shard.lock().unwrap_or_else(PoisonError::into_inner);
            while table.len > cap && table.evict_max() {
                *n += 1;
            }
        }
        dropped
    }

    /// The configured per-shard bound (`0` = unbounded).
    pub(crate) fn max_entries_per_shard(&self) -> usize {
        self.max_entries.load(Ordering::Relaxed)
    }

    /// Entries currently stored in each shard, in shard order.
    pub(crate) fn shard_lens(&self) -> [usize; SHARDS] {
        let mut lens = [0usize; SHARDS];
        for (shard, n) in self.shards.iter().zip(&mut lens) {
            *n = shard.lock().unwrap_or_else(PoisonError::into_inner).len;
        }
        lens
    }

    /// Entries currently stored.
    pub(crate) fn len(&self) -> usize {
        self.shard_lens().iter().sum()
    }

    /// Drops every entry; returns how many each shard held.
    pub(crate) fn clear(&self) -> [u64; SHARDS] {
        let mut dropped = [0u64; SHARDS];
        for (shard, n) in self.shards.iter().zip(&mut dropped) {
            let mut table = shard.lock().unwrap_or_else(PoisonError::into_inner);
            *n = table.len as u64;
            table.map.clear();
            table.digests.clear();
            table.len = 0;
        }
        dropped
    }

    /// Every entry with its digest, in `(digest, order_cmp)` order — the
    /// same structural total order the bounded policy evicts by.
    pub(crate) fn sorted_entries(&self) -> Vec<(u64, K, V)>
    where
        K: Clone,
    {
        let mut entries: Vec<(u64, K, V)> = Vec::new();
        for shard in &self.shards {
            let table = shard.lock().unwrap_or_else(PoisonError::into_inner);
            for (&digest, bucket) in table.map.iter() {
                for (key, value) in bucket {
                    entries.push((digest, key.clone(), *value));
                }
            }
        }
        entries.sort_by(|(da, ka, _), (db, kb, _)| da.cmp(db).then_with(|| ka.order_cmp(kb)));
        entries
    }

    /// Deliberately poisons every shard lock: a scoped thread takes each
    /// lock and panics while holding it (the chaos harness's
    /// poisoned-lock fault; every accessor recovers).
    pub(crate) fn poison_all_shards(&self)
    where
        K: Send,
        V: Send,
    {
        for shard in &self.shards {
            let result = std::thread::scope(|scope| {
                scope
                    .spawn(|| {
                        let _guard = shard.lock().unwrap_or_else(PoisonError::into_inner);
                        panic!("deliberate shard poisoning");
                    })
                    .join()
            });
            debug_assert!(result.is_err(), "the poisoning thread must panic");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl MemoKey for u64 {
        fn order_cmp(&self, other: &Self) -> CmpOrdering {
            self.cmp(other)
        }
    }

    /// A digest spreading toy keys over every shard; `key % 4 == 0`
    /// collide on purpose, exercising multi-key buckets.
    fn digest(key: u64) -> u64 {
        if key.is_multiple_of(4) {
            0x5000_0000_0000_0000
        } else {
            splitmix(key)
        }
    }

    fn offer(memo: &ShardedMemo<u64, u64>, key: u64) -> Inserted {
        memo.insert(digest(key), |k| *k == key, || key, key * 10)
    }

    fn bounded(cap: usize) -> ShardedMemo<u64, u64> {
        let memo = ShardedMemo::new();
        memo.set_max_entries_per_shard(cap);
        memo
    }

    const KEYS: u64 = 200;

    #[test]
    fn bounded_contents_are_schedule_independent() {
        let forward = bounded(3);
        for key in 0..KEYS {
            offer(&forward, key);
        }
        let reverse = bounded(3);
        for key in (0..KEYS).rev() {
            offer(&reverse, key);
        }
        let racing = bounded(3);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let racing = &racing;
                s.spawn(move || {
                    // Each thread walks the keys from a different offset.
                    for i in 0..KEYS {
                        offer(racing, (i + t * 50) % KEYS);
                    }
                });
            }
        });
        let contents = forward.sorted_entries();
        assert_eq!(contents, reverse.sorted_entries());
        assert_eq!(contents, racing.sorted_entries());
        assert!(forward.shard_lens().iter().all(|&n| n <= 3));
        assert_eq!(forward.len(), 3 * SHARDS, "200 keys fill every shard");
        // Each shard keeps exactly its cap-smallest (digest, key) entries.
        let mut all: Vec<(u64, u64)> = (0..KEYS).map(|k| (digest(k), k)).collect();
        all.sort_unstable();
        for s in 0..SHARDS {
            let want: Vec<(u64, u64)> = all
                .iter()
                .filter(|(d, _)| shard_index(*d) == s)
                .take(3)
                .copied()
                .collect();
            let got: Vec<(u64, u64)> = contents
                .iter()
                .filter(|(d, _, _)| shard_index(*d) == s)
                .map(|&(d, k, _)| (d, k))
                .collect();
            assert_eq!(got, want, "shard {s}");
        }
    }

    #[test]
    fn insert_outcomes_account_every_offer() {
        let memo = bounded(1);
        // Keys 0 and 4 share one digest (one shard, one bucket).
        assert_eq!(offer(&memo, 4), Inserted::Admitted { displaced: false });
        assert_eq!(offer(&memo, 4), Inserted::Present);
        assert_eq!(offer(&memo, 8), Inserted::Rejected, "orders above 4");
        assert_eq!(offer(&memo, 0), Inserted::Admitted { displaced: true });
        assert_eq!(memo.lookup(digest(0), |k| *k == 0), Some(0));
        assert_eq!(memo.lookup(digest(4), |k| *k == 4), None, "displaced");
        assert_eq!(memo.len(), 1);

        // Unbounded: every distinct key is admitted, never displacing.
        let open = ShardedMemo::new();
        for key in 0..KEYS {
            assert_eq!(offer(&open, key), Inserted::Admitted { displaced: false });
        }
        assert_eq!(open.len(), KEYS as usize);
        assert_eq!(open.lookup(digest(7), |k| *k == 7), Some(70));
    }

    #[test]
    fn shrinking_the_cap_trims_to_the_smallest_keys() {
        let memo = ShardedMemo::new();
        for key in 0..KEYS {
            offer(&memo, key);
        }
        let before = memo.shard_lens();
        let dropped = memo.set_max_entries_per_shard(2);
        assert_eq!(memo.max_entries_per_shard(), 2);
        for s in 0..SHARDS {
            assert_eq!(dropped[s], before[s].saturating_sub(2) as u64);
        }
        // Trimming keeps what a cap-2 table fed the same keys would keep.
        let fresh = bounded(2);
        for key in 0..KEYS {
            offer(&fresh, key);
        }
        assert_eq!(memo.sorted_entries(), fresh.sorted_entries());
        // Lifting the cap trims nothing and lets fresh keys in again.
        assert_eq!(memo.set_max_entries_per_shard(0), [0; SHARDS]);
        assert!(matches!(offer(&memo, 999), Inserted::Admitted { .. }));
    }

    #[test]
    fn clear_reports_per_shard_occupancy() {
        let memo = ShardedMemo::new();
        for key in 0..KEYS {
            offer(&memo, key);
        }
        let lens = memo.shard_lens();
        let dropped = memo.clear();
        assert!(lens.iter().zip(&dropped).all(|(&l, &d)| l as u64 == d));
        assert_eq!(memo.len(), 0);
    }

    /// Every shard's entries, counted bucket by bucket.
    fn recount(memo: &ShardedMemo<u64, u64>) -> [usize; SHARDS] {
        let mut lens = [0usize; SHARDS];
        for (shard, n) in memo.shards.iter().zip(&mut lens) {
            let table = shard.lock().unwrap_or_else(PoisonError::into_inner);
            *n = table.map.values().map(Vec::len).sum();
        }
        lens
    }

    #[test]
    fn tracked_counts_match_a_recount() {
        let memo = bounded(2);
        let check = |memo: &ShardedMemo<u64, u64>, step: &str| {
            assert_eq!(memo.shard_lens(), recount(memo), "after {step}");
            assert_eq!(memo.len(), recount(memo).iter().sum::<usize>(), "{step}");
        };
        // Keys 0, 4, 8, … share one digest, so one shard sees all three
        // outcomes in turn.
        assert_eq!(offer(&memo, 8), Inserted::Admitted { displaced: false });
        assert_eq!(offer(&memo, 12), Inserted::Admitted { displaced: false });
        check(&memo, "admit");
        assert_eq!(offer(&memo, 4), Inserted::Admitted { displaced: true });
        check(&memo, "displace");
        assert_eq!(offer(&memo, 16), Inserted::Rejected);
        check(&memo, "reject");
        memo.set_max_entries_per_shard(0);
        for key in 0..KEYS {
            offer(&memo, key);
        }
        check(&memo, "unbounded admits");
        let dropped = memo.set_max_entries_per_shard(1);
        assert!(dropped.iter().any(|&n| n > 0));
        check(&memo, "trim");
        memo.poison_all_shards();
        check(&memo, "poisoning");
        offer(&memo, KEYS + 1);
        check(&memo, "admit after poisoning");
        memo.clear();
        check(&memo, "clear");
        assert_eq!(memo.len(), 0);
    }

    /// One shard of the linear-scan oracle: the bucket layout before the
    /// shards kept their digests ordered.
    struct LinearShard<K, V> {
        map: HashMap<u64, Vec<(K, V)>>,
        len: usize,
    }

    /// The bounded table as it was when every capped insert scanned its
    /// whole shard: `evict_max` and `shard_max_exceeds` are kept verbatim
    /// as the oracle for the ordered shards.
    struct LinearMemo {
        shards: Vec<LinearShard<u64, u64>>,
        max_entries: usize,
    }

    impl LinearMemo {
        fn new() -> Self {
            LinearMemo {
                shards: (0..SHARDS)
                    .map(|_| LinearShard {
                        map: HashMap::new(),
                        len: 0,
                    })
                    .collect(),
                max_entries: 0,
            }
        }

        fn insert(&mut self, digest: u64, key: u64, value: u64) -> Inserted {
            let cap = self.max_entries;
            let table = &mut self.shards[shard_index(digest)];
            let present = table
                .map
                .get(&digest)
                .is_some_and(|bucket| bucket.iter().any(|(k, _)| *k == key));
            if present {
                return Inserted::Present;
            }
            let full = cap > 0 && table.len >= cap;
            let mut displaced = false;
            if full {
                if !shard_max_exceeds(table, digest, &key) {
                    return Inserted::Rejected;
                }
                evict_max(table);
                displaced = true;
            }
            table.map.entry(digest).or_default().push((key, value));
            table.len += 1;
            Inserted::Admitted { displaced }
        }

        fn set_max_entries_per_shard(&mut self, cap: usize) -> [u64; SHARDS] {
            self.max_entries = cap;
            let mut dropped = [0u64; SHARDS];
            if cap == 0 {
                return dropped;
            }
            for (table, n) in self.shards.iter_mut().zip(&mut dropped) {
                while table.len > cap {
                    evict_max(table);
                    *n += 1;
                }
            }
            dropped
        }

        fn shard_lens(&self) -> [usize; SHARDS] {
            let mut lens = [0usize; SHARDS];
            for (table, n) in self.shards.iter().zip(&mut lens) {
                *n = table.len;
            }
            lens
        }

        fn sorted_entries(&self) -> Vec<(u64, u64, u64)> {
            let mut entries: Vec<(u64, u64, u64)> = Vec::new();
            for table in &self.shards {
                for (&digest, bucket) in table.map.iter() {
                    for (key, value) in bucket {
                        entries.push((digest, *key, *value));
                    }
                }
            }
            entries.sort_by(|(da, ka, _), (db, kb, _)| da.cmp(db).then_with(|| ka.order_cmp(kb)));
            entries
        }
    }

    /// Removes the entry with the largest `(digest, key)` order key from
    /// `table`. No-op on an empty table.
    fn evict_max<K: MemoKey, V>(table: &mut LinearShard<K, V>) {
        let mut max_at: Option<(u64, usize, &K)> = None;
        for (&digest, bucket) in table.map.iter() {
            for (i, (key, _)) in bucket.iter().enumerate() {
                let greater = match max_at {
                    None => true,
                    Some((d, _, incumbent)) => {
                        digest.cmp(&d).then_with(|| key.order_cmp(incumbent))
                            == CmpOrdering::Greater
                    }
                };
                if greater {
                    max_at = Some((digest, i, key));
                }
            }
        }
        let target = max_at.map(|(digest, i, _)| (digest, i));
        if let Some((digest, i)) = target {
            if let Some(bucket) = table.map.get_mut(&digest) {
                if i < bucket.len() {
                    bucket.remove(i);
                    table.len -= 1;
                }
                if bucket.is_empty() {
                    table.map.remove(&digest);
                }
            }
        }
    }

    /// `true` when some entry in `table` has a `(digest, key)` order key
    /// strictly greater than the candidate's.
    fn shard_max_exceeds<K: MemoKey, V>(table: &LinearShard<K, V>, digest: u64, key: &K) -> bool {
        table.map.iter().any(|(&d, bucket)| {
            bucket
                .iter()
                .any(|(k, _)| d.cmp(&digest).then_with(|| k.order_cmp(key)) == CmpOrdering::Greater)
        })
    }

    #[test]
    fn ordered_shards_match_the_linear_scan_oracle() {
        // Even keys crowd onto 12 digests (multi-key buckets, several per
        // shard); odd keys mostly get their own.
        let crowded = |key: u64| {
            if key.is_multiple_of(2) {
                splitmix(key % 24)
            } else {
                splitmix(key)
            }
        };
        let caps = [1usize, 2, 3, 7, 64];
        for seed in 0..8u64 {
            let mut rng = seed;
            let mut next = || {
                rng = rng.wrapping_add(1);
                splitmix(rng)
            };
            let memo = ShardedMemo::new();
            let mut oracle = LinearMemo::new();
            let cap = caps[seed as usize % caps.len()];
            assert_eq!(
                memo.set_max_entries_per_shard(cap),
                oracle.set_max_entries_per_shard(cap)
            );
            for step in 0..4000 {
                let roll = next() % 100;
                if roll < 2 {
                    // Shrink to (or lift past) another cap, or unbound.
                    let cap = match next() % 6 {
                        0 => 0,
                        i => caps[i as usize - 1],
                    };
                    let got = memo.set_max_entries_per_shard(cap);
                    assert_eq!(
                        got,
                        oracle.set_max_entries_per_shard(cap),
                        "seed {seed} step {step}"
                    );
                } else {
                    let key = next() % 1500;
                    let digest = crowded(key);
                    let got = memo.insert(digest, |k| *k == key, || key, key ^ seed);
                    let want = oracle.insert(digest, key, key ^ seed);
                    assert_eq!(got, want, "seed {seed} step {step} key {key}");
                }
                assert_eq!(
                    memo.shard_lens(),
                    oracle.shard_lens(),
                    "seed {seed} step {step}"
                );
                if step % 250 == 0 {
                    assert_eq!(
                        memo.sorted_entries(),
                        oracle.sorted_entries(),
                        "seed {seed} step {step}"
                    );
                }
            }
            assert_eq!(
                memo.sorted_entries(),
                oracle.sorted_entries(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn poisoned_shards_keep_their_entries() {
        let memo = ShardedMemo::new();
        for key in 0..KEYS {
            offer(&memo, key);
        }
        memo.poison_all_shards();
        assert_eq!(memo.len(), KEYS as usize);
        assert_eq!(memo.lookup(digest(9), |k| *k == 9), Some(90));
        assert_eq!(offer(&memo, KEYS), Inserted::Admitted { displaced: false });
    }
}
