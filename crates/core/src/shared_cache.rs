//! A sharded, read-mostly parent-cache shared across worker threads.
//!
//! A hot elite parent is bred against by most of a generation's children,
//! on every worker thread. [`SharedParentCache`], owned by the evaluator
//! (which every worker already borrows), holds one [`EvalCache`] per
//! parent: a parent is rebuilt **once**, its entry is immutable from then
//! on, and every thread prices children against it through the read-only,
//! cost-gated [`crate::encoded_size_probe`] with a per-thread
//! [`crate::PatchScratch`]. Edits the gate declines (a multi-chunk patch
//! estimated costlier than a rescan) fall back to the full kernel; the
//! entry stays as it was.
//!
//! # Design
//!
//! * **Content-keyed, hash-prefiltered.** Entries are keyed by the exact
//!   genome, so a hit is never a hash gamble and entries stay valid across
//!   generations however selection reshuffles the population. Each entry
//!   additionally stores its genome's [`content_hash`] (FNV-1a), which
//!   doubles as the shard index: probes compare one `u64` (plus the length)
//!   per candidate and touch the genome itself only for the entry actually
//!   returned, so a lookup no longer walks full-genome compares on the hot
//!   path. Lookups take one shard's read lock only — concurrent readers
//!   never block each other, and writes (first sighting of a parent) are
//!   rare by construction in the EA's steady state. Callers that hold on to a
//!   returned [`Arc<ParentEntry>`] (see `MvFitness`'s per-worker hot slots)
//!   price repeat children of the same parent with **no** locking at all —
//!   an entry is immutable and remains valid even after eviction.
//! * **Bounded.** Each shard holds at most `shard_capacity` entries; beyond
//!   that the entry with the oldest *use stamp* is evicted. The stamp is a
//!   generation counter bumped once per evaluation batch
//!   ([`SharedParentCache::bump_generation`]), so eviction discards parents
//!   that stopped breeding, and a long run's footprint stays flat at
//!   `shards × shard_capacity` entries no matter how many individuals it
//!   churns through (enforced by tests).
//! * **Observable, never semantic.** Hit/miss/fallback counters feed
//!   [`evotc_evo::CacheStats`] on the engine's per-generation stats. Under
//!   concurrent evaluation two workers can race to build the same parent —
//!   both count a miss, both build bit-identical entries, and the insert
//!   keeps one — so the counters are approximate under parallelism while
//!   scores remain exactly deterministic.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use evotc_bits::Trit;
use evotc_evo::CacheStats;

use crate::incremental::EvalCache;

/// One cached parent: the exact genome and its fully evaluated covering
/// state. Immutable after construction — the shared cache never mutates an
/// entry, it only inserts and evicts whole entries.
#[derive(Debug)]
pub struct ParentEntry {
    genome: Vec<Trit>,
    /// [`content_hash`] of `genome`, precomputed so probes prefilter on one
    /// `u64` compare instead of a full-genome compare.
    hash: u64,
    cache: EvalCache,
    /// Generation stamp of the last lookup that returned this entry.
    last_used: AtomicU64,
}

impl ParentEntry {
    /// The exact genome this entry was built from.
    pub fn genome(&self) -> &[Trit] {
        &self.genome
    }

    /// The precomputed [`content_hash`] of [`ParentEntry::genome`]. Callers
    /// keeping their own entry indexes (e.g. per-worker hot slots) prefilter
    /// on it the same way the shared store does.
    pub fn content_hash(&self) -> u64 {
        self.hash
    }

    /// The parent's covering state, for [`crate::encoded_size_probe`].
    pub fn cache(&self) -> &EvalCache {
        &self.cache
    }

    /// `true` exactly when this entry was built from `genome`: hash-and-
    /// length prefilter first (one `u64` and one `usize` compare — what
    /// every non-matching candidate stops at), full content compare only on
    /// a prefilter match, so a hit is still never a hash gamble.
    pub fn matches(&self, hash: u64, genome: &[Trit]) -> bool {
        // Fault injection: a forced mismatch is the "detected corruption"
        // answer — both the hot-slot scan and the shared-store probe funnel
        // through here, so one site covers every cache tier. The evaluator
        // must fall back to a full rebuild with unchanged scores.
        #[cfg(feature = "failpoints")]
        if evotc_evo::failpoints::hit(evotc_evo::failpoints::site::CORE_CACHE_PROBE) {
            return false;
        }
        self.hash == hash && same_genome(&self.genome, genome)
    }
}

/// Exact genome equality over the trit *indices*, as a branchless
/// OR-reduction of byte XORs. On a true hit every element matches, so the
/// early exit of the derived `[Trit]` slice compare buys nothing — while
/// the reduction form vectorizes. This sits on the hot path of every cache
/// hit.
fn same_genome(a: &[Trit], b: &[Trit]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .fold(0u8, |diff, (x, y)| diff | (x.index() ^ y.index()))
            == 0
}

/// Content fingerprint of a genome: the content key of the shared cache.
/// Both the shard index and the per-entry prefilter derive from it, so
/// callers compute it once per lookup ([`SharedParentCache::get_hashed`])
/// and reuse it across hot-slot scans and shard probes.
///
/// Two independent FNV-1a lanes over 8-trit *words* rather than single
/// trits: packing eight indices into one `u64` per mix makes the dependent
/// multiply chain an eighth as long, and striping alternate words across
/// two lanes halves it again (the lanes' multiplies overlap in the
/// pipeline). This matters because the EA hashes a parent genome on every
/// cache lookup. The function is an in-process key (entries store the hash
/// they were inserted under), never persisted, so its exact value is an
/// internal detail.
pub fn content_hash(genome: &[Trit]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut even = 0xcbf2_9ce4_8422_2325u64 ^ genome.len() as u64;
    let mut odd = 0x9e37_79b9_7f4a_7c15u64;
    let mut pairs = genome.chunks_exact(16);
    for pair in &mut pairs {
        let (a, b) = pair.split_at(8);
        let wa = a.iter().fold(0u64, |w, &t| (w << 8) | t.index() as u64);
        let wb = b.iter().fold(0u64, |w, &t| (w << 8) | t.index() as u64);
        even = (even ^ wa).wrapping_mul(PRIME);
        odd = (odd ^ wb).wrapping_mul(PRIME);
    }
    for &t in pairs.remainder() {
        even = (even ^ t.index() as u64).wrapping_mul(PRIME);
    }
    (even ^ odd.rotate_left(29)).wrapping_mul(PRIME)
}

/// Content fingerprint of a whole test set: [`content_hash`] over the
/// row-major flattening of every pattern's trits, with the pattern width
/// folded in (the flattening alone cannot tell a 4×8 set from an 8×4
/// reshape of the same trit stream). This generalizes the per-genome
/// content key to submissions: the service's cross-run result cache keys
/// on it, so two submissions of the same patterns dedupe to one EA run.
/// Like [`content_hash`], an in-process key — never persisted.
pub fn test_set_content_hash(set: &evotc_bits::TestSet) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let trits: Vec<Trit> = set.iter().flat_map(|pattern| pattern.iter()).collect();
    (content_hash(&trits) ^ set.width() as u64).wrapping_mul(PRIME)
}

/// A bounded, sharded, content-keyed store of parent [`EvalCache`]s shared
/// by every fitness worker thread. See the `shared_cache` module docs.
#[derive(Debug)]
pub struct SharedParentCache {
    shards: Box<[RwLock<Vec<Arc<ParentEntry>>>]>,
    shard_capacity: usize,
    /// Generation stamp driving eviction; bumped per evaluation batch.
    stamp: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    fallbacks: AtomicU64,
}

impl SharedParentCache {
    /// Creates a cache of `shards` independent shards holding at most
    /// `shard_capacity` entries each.
    ///
    /// # Panics
    ///
    /// Panics if either bound is zero.
    pub fn new(shards: usize, shard_capacity: usize) -> Self {
        assert!(shards > 0, "at least one shard is required");
        assert!(shard_capacity > 0, "shard capacity must be positive");
        SharedParentCache {
            shards: (0..shards).map(|_| RwLock::new(Vec::new())).collect(),
            shard_capacity,
            stamp: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            fallbacks: AtomicU64::new(0),
        }
    }

    /// Hard bound on retained entries: `shards × shard_capacity`. A run's
    /// cache footprint can never exceed it, plus up to a hot-slot's worth
    /// of evicted entries pinned per worker state (those `Arc`s live in the
    /// evaluator's worker pool until LRU-displaced) — still a constant,
    /// never proportional to the individuals a run churns through.
    pub fn capacity(&self) -> usize {
        self.shards.len() * self.shard_capacity
    }

    /// Number of entries currently retained, over all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().map(|shard| shard.len()).unwrap_or(0))
            .sum()
    }

    /// Returns `true` if no entries are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Advances the generation stamp. The evaluator calls this once per
    /// batch call, so eviction ranks parents by the last *generation*
    /// that bred from them rather than by raw lookup order.
    pub fn bump_generation(&self) {
        self.stamp.fetch_add(1, Ordering::Relaxed);
    }

    /// Looks up the entry for an exact genome, stamping it as used. Read
    /// lock only; `None` means no thread has built this parent yet (or it
    /// was evicted).
    pub fn get(&self, genome: &[Trit]) -> Option<Arc<ParentEntry>> {
        self.get_hashed(content_hash(genome), genome)
    }

    /// [`SharedParentCache::get`] with the genome's [`content_hash`]
    /// precomputed by the caller — the hot-path form: candidates are
    /// rejected on the hash prefilter (see [`ParentEntry::matches`]) and the
    /// full-genome compare runs only for the entry that is then returned.
    ///
    /// `hash` **must** equal `content_hash(genome)`; a mismatched pair
    /// probes the wrong shard and simply misses.
    pub fn get_hashed(&self, hash: u64, genome: &[Trit]) -> Option<Arc<ParentEntry>> {
        let shard = &self.shards[self.shard_of(hash)];
        let guard = shard.read().ok()?;
        let entry = guard.iter().find(|e| e.matches(hash, genome))?;
        entry
            .last_used
            .store(self.stamp.load(Ordering::Relaxed), Ordering::Relaxed);
        Some(Arc::clone(entry))
    }

    /// Inserts a freshly built parent cache, evicting the stalest entry if
    /// the shard is full, and returns the retained entry.
    ///
    /// If another thread inserted the same genome in the meantime the
    /// existing entry wins and `cache` is dropped — both are bit-identical
    /// by the incremental engine's equivalence guarantee, so which build
    /// survives is unobservable. Callers should build `cache` *before*
    /// calling (outside any lock).
    pub fn insert(&self, genome: &[Trit], cache: EvalCache) -> Arc<ParentEntry> {
        let stamp = self.stamp.load(Ordering::Relaxed);
        let hash = content_hash(genome);
        let entry = Arc::new(ParentEntry {
            genome: genome.to_vec(),
            hash,
            cache,
            last_used: AtomicU64::new(stamp),
        });
        let shard = &self.shards[self.shard_of(hash)];
        let mut guard = match shard.write() {
            Ok(guard) => guard,
            // A poisoned shard (a panicking worker) degrades to not
            // caching; the entry still serves this caller.
            Err(_) => return entry,
        };
        if let Some(existing) = guard.iter().find(|e| e.matches(hash, genome)) {
            existing.last_used.store(stamp, Ordering::Relaxed);
            return Arc::clone(existing);
        }
        if guard.len() >= self.shard_capacity {
            let stalest = guard
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
                .map(|(i, _)| i)
                .expect("full shard is non-empty");
            guard.swap_remove(stalest);
        }
        guard.push(Arc::clone(&entry));
        entry
    }

    /// Counts a child priced off a cached parent.
    pub fn record_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a parent cache built from scratch.
    pub fn record_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a child that fell back to the full kernel.
    pub fn record_fallback(&self) {
        self.fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of the cumulative counters (approximate under concurrent
    /// evaluation; see the `shared_cache` module docs).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
        }
    }

    /// Reduces a [`content_hash`] to a shard index.
    fn shard_of(&self, hash: u64) -> usize {
        (hash % self.shards.len() as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::encoded_size_rebuild;
    use evotc_bits::{BlockHistogram, SlicedHistogram, TestSet, TestSetString};

    fn sliced() -> SlicedHistogram {
        let set = TestSet::parse(&["1010", "0101", "1111"]).unwrap();
        let hist = BlockHistogram::from_string(&TestSetString::new(&set, 4));
        SlicedHistogram::from_histogram(&hist)
    }

    /// A deterministic family of distinct 8-gene genomes.
    fn genome(n: usize) -> Vec<Trit> {
        (0..8)
            .map(|j| Trit::from_index(((n >> j) % 3) as u8))
            .collect()
    }

    fn built(sliced: &SlicedHistogram, genes: &[Trit]) -> EvalCache {
        let mut cache = EvalCache::new();
        encoded_size_rebuild(sliced, genes, false, &mut cache);
        cache
    }

    #[test]
    fn get_after_insert_returns_the_same_entry() {
        let sliced = sliced();
        let shared = SharedParentCache::new(4, 4);
        let g = genome(1);
        assert!(shared.get(&g).is_none());
        let inserted = shared.insert(&g, built(&sliced, &g));
        let found = shared.get(&g).expect("entry is retained");
        assert!(Arc::ptr_eq(&inserted, &found));
        assert_eq!(found.genome(), &g[..]);
        assert!(found.cache().is_warm());
    }

    #[test]
    fn double_insert_keeps_one_entry() {
        let sliced = sliced();
        let shared = SharedParentCache::new(2, 4);
        let g = genome(2);
        let a = shared.insert(&g, built(&sliced, &g));
        let b = shared.insert(&g, built(&sliced, &g));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(shared.len(), 1);
    }

    #[test]
    fn footprint_stays_flat_over_a_long_run() {
        // The memory-hygiene bound: hundreds of distinct parents churn
        // through, the retained entry count never exceeds the capacity.
        let sliced = sliced();
        let shared = SharedParentCache::new(4, 2);
        assert_eq!(shared.capacity(), 8);
        for generation in 0..100 {
            shared.bump_generation();
            for c in 0..4 {
                let g = genome(3 * generation + c + 1);
                if shared.get(&g).is_none() {
                    shared.insert(&g, built(&sliced, &g));
                }
            }
            assert!(
                shared.len() <= shared.capacity(),
                "generation {generation}: {} entries > capacity {}",
                shared.len(),
                shared.capacity()
            );
        }
        assert!(!shared.is_empty());
    }

    #[test]
    fn eviction_discards_the_stalest_generation_first() {
        let sliced = sliced();
        // One shard, capacity 2: the entry untouched for the most
        // generations is evicted.
        let shared = SharedParentCache::new(1, 2);
        let (old, hot, new) = (genome(11), genome(22), genome(33));
        shared.insert(&old, built(&sliced, &old));
        shared.insert(&hot, built(&sliced, &hot));
        shared.bump_generation();
        let _ = shared.get(&hot).expect("hot entry present"); // re-stamped
        shared.bump_generation();
        shared.insert(&new, built(&sliced, &new)); // evicts `old`
        assert!(shared.get(&old).is_none(), "stale entry should be evicted");
        assert!(shared.get(&hot).is_some());
        assert!(shared.get(&new).is_some());
    }

    #[test]
    fn evicted_entries_stay_usable_through_held_arcs() {
        let sliced = sliced();
        let shared = SharedParentCache::new(1, 1);
        let g = genome(5);
        let held = shared.insert(&g, built(&sliced, &g));
        let other = genome(6);
        shared.insert(&other, built(&sliced, &other)); // evicts `g`
        assert!(shared.get(&g).is_none());
        // The held Arc is still a perfectly valid (immutable) parent cache.
        assert!(held.cache().is_warm());
        assert_eq!(held.genome(), &g[..]);
    }

    #[test]
    fn counters_accumulate_into_stats() {
        let shared = SharedParentCache::new(1, 1);
        shared.record_hit();
        shared.record_hit();
        shared.record_miss();
        shared.record_fallback();
        let stats = shared.stats();
        assert_eq!((stats.hits, stats.misses, stats.fallbacks), (2, 1, 1));
    }

    #[test]
    fn concurrent_get_and_insert_stay_bounded() {
        let sliced = sliced();
        let shared = SharedParentCache::new(4, 2);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let shared = &shared;
                let sliced = &sliced;
                scope.spawn(move || {
                    for n in 0..50 {
                        let g = genome(t * 7 + n);
                        let entry = match shared.get(&g) {
                            Some(entry) => entry,
                            None => shared.insert(&g, built(sliced, &g)),
                        };
                        assert_eq!(entry.genome(), &g[..]);
                        assert!(entry.cache().is_warm());
                    }
                });
            }
        });
        assert!(shared.len() <= shared.capacity());
    }

    #[test]
    fn content_hash_is_stable_and_discriminating() {
        let g = genome(9);
        assert_eq!(content_hash(&g), content_hash(&g.clone()));
        // The deterministic genome family is pairwise distinct; FNV-1a must
        // separate all of them (collisions would only cost a compare, but
        // for 8-trit inputs there should be none).
        let hashes: Vec<u64> = (0..64).map(|n| content_hash(&genome(n))).collect();
        let mut unique = hashes.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), hashes.len());
    }

    #[test]
    fn entries_expose_their_hash_and_match_by_prefilter() {
        let sliced = sliced();
        let shared = SharedParentCache::new(4, 4);
        let g = genome(7);
        let hash = content_hash(&g);
        let entry = shared.insert(&g, built(&sliced, &g));
        assert_eq!(entry.content_hash(), hash);
        assert!(entry.matches(hash, &g));
        assert!(!entry.matches(hash.wrapping_add(1), &g));
        assert!(!entry.matches(hash, &genome(8)));
        // The precomputed-hash lookup is the plain lookup.
        let found = shared.get_hashed(hash, &g).expect("entry is retained");
        assert!(Arc::ptr_eq(&entry, &found));
        assert!(shared
            .get_hashed(content_hash(&genome(8)), &genome(8))
            .is_none());
    }

    #[test]
    fn test_set_hash_tracks_content_and_shape() {
        use evotc_bits::TestSet;
        let a = TestSet::parse(&["1100XX10", "0X011010"]).unwrap();
        let same = TestSet::parse(&["1100XX10", "0X011010"]).unwrap();
        assert_eq!(test_set_content_hash(&a), test_set_content_hash(&same));
        let edited = TestSet::parse(&["1100XX10", "0X011011"]).unwrap();
        assert_ne!(test_set_content_hash(&a), test_set_content_hash(&edited));
        // The same trit stream reshaped to a different width must not
        // collide.
        let reshaped = TestSet::parse(&["1100", "XX10", "0X01", "1010"]).unwrap();
        assert_ne!(test_set_content_hash(&a), test_set_content_hash(&reshaped));
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_are_rejected() {
        let _ = SharedParentCache::new(0, 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_is_rejected() {
        let _ = SharedParentCache::new(1, 0);
    }
}
