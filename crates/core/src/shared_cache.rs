//! The evaluator's bounded, content-keyed store of parent caches.
//!
//! A hot elite parent is bred against by most of a generation's children.
//! [`SharedParentCache`], owned by [`crate::MvFitness`], holds one
//! [`EvalCache`] per parent: a parent is rebuilt **once**, its entry is
//! immutable from then on, and children are priced against it through the
//! read-only, cost-gated [`crate::encoded_size_probe`] with the caller's
//! [`crate::PatchScratch`]. Edits the gate declines (a multi-chunk patch
//! estimated costlier than a rescan) fall back to the full kernel; the
//! entry stays as it was.
//!
//! * **Content-keyed, hash-prefiltered.** Entries are keyed by the exact
//!   genome, so a hit is never a hash gamble and entries stay valid across
//!   generations however selection reshuffles the population. The store
//!   keeps each entry's [`content_hash`] inline, so a lookup scans one
//!   contiguous run of `u64`s and compares the full genome only for the
//!   entry it returns.
//! * **Bounded.** At most `capacity` entries are retained; beyond that the
//!   entry with the oldest *use stamp* is evicted. The stamp is a
//!   generation counter bumped once per evaluation batch
//!   ([`SharedParentCache::bump_generation`]), so eviction discards parents
//!   that stopped breeding, and a long run's footprint stays flat no matter
//!   how many individuals it churns through (enforced by tests).
//! * **Observable, never semantic.** Hit/miss/fallback counters feed
//!   [`evotc_evo::CacheStats`] on the engine's per-generation stats. The
//!   islands of an island run share one evaluator and may look up and
//!   insert concurrently (one mutex guards the store). Two islands can
//!   race to build the same parent — both count a miss, both build
//!   bit-identical entries, and the insert keeps one — so the counters are
//!   approximate under concurrency while scores remain exactly
//!   deterministic.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use evotc_bits::Trit;
use evotc_evo::CacheStats;

use crate::incremental::EvalCache;

/// One cached parent: the exact genome and its fully evaluated covering
/// state. Immutable after construction — the cache never mutates an entry,
/// it only inserts and evicts whole entries.
#[derive(Debug)]
pub(crate) struct ParentEntry {
    genome: Vec<Trit>,
    cache: EvalCache,
}

impl ParentEntry {
    /// The parent's covering state, for [`crate::encoded_size_probe`].
    pub(crate) fn cache(&self) -> &EvalCache {
        &self.cache
    }

    /// `true` exactly when this entry was built from `genome` — the full
    /// content compare behind a hash-prefilter match, so a hit is never a
    /// hash gamble.
    fn matches(&self, genome: &[Trit]) -> bool {
        // Fault injection: a forced mismatch is the "detected corruption"
        // answer — every prefilter match funnels through here. The
        // evaluator must fall back to a full rebuild with unchanged scores.
        #[cfg(feature = "failpoints")]
        if evotc_evo::failpoints::hit(evotc_evo::failpoints::site::CORE_CACHE_PROBE) {
            return false;
        }
        same_genome(&self.genome, genome)
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

/// Content fingerprint of a genome: the prefilter key of the parent cache,
/// computed once per lookup and compared against each entry's stored hash
/// before any genome compare.
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

/// One retained entry with its lookup prefilter and use stamp.
#[derive(Debug)]
struct Slot {
    /// [`content_hash`] of the entry's genome.
    hash: u64,
    /// Generation stamp of the last lookup that returned the entry.
    last_used: u64,
    entry: Arc<ParentEntry>,
}

/// A bounded, content-keyed store of parent [`EvalCache`]s. See the module
/// docs.
#[derive(Debug)]
pub(crate) struct SharedParentCache {
    slots: Mutex<Vec<Slot>>,
    capacity: usize,
    /// Generation stamp driving eviction; bumped per evaluation batch.
    stamp: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    fallbacks: AtomicU64,
}

impl SharedParentCache {
    /// Creates a cache retaining at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        SharedParentCache {
            slots: Mutex::new(Vec::new()),
            capacity,
            stamp: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            fallbacks: AtomicU64::new(0),
        }
    }

    /// Advances the generation stamp. The evaluator calls this once per
    /// batch call, so eviction ranks parents by the last *generation*
    /// that bred from them rather than by raw lookup order.
    pub(crate) fn bump_generation(&self) {
        self.stamp.fetch_add(1, Ordering::Relaxed);
    }

    /// Looks up the entry for an exact genome, stamping it as used. `None`
    /// means no batch has built this parent yet (or it was evicted).
    pub(crate) fn get(&self, genome: &[Trit]) -> Option<Arc<ParentEntry>> {
        let hash = content_hash(genome);
        let mut slots = self.slots.lock().ok()?;
        let slot = find(&mut slots, hash, genome)?;
        slot.last_used = self.stamp.load(Ordering::Relaxed);
        Some(Arc::clone(&slot.entry))
    }

    /// Inserts a freshly built parent cache, evicting the stalest entry if
    /// the store is full, and returns the retained entry.
    ///
    /// If another thread inserted the same genome in the meantime the
    /// existing entry wins and `cache` is dropped — both are bit-identical
    /// by the incremental engine's equivalence guarantee, so which build
    /// survives is unobservable. Callers should build `cache` *before*
    /// calling (outside the lock).
    pub(crate) fn insert(&self, genome: &[Trit], cache: EvalCache) -> Arc<ParentEntry> {
        let stamp = self.stamp.load(Ordering::Relaxed);
        let hash = content_hash(genome);
        let entry = Arc::new(ParentEntry {
            genome: genome.to_vec(),
            cache,
        });
        let mut slots = match self.slots.lock() {
            Ok(slots) => slots,
            // A poisoned store (a panicking island) degrades to not
            // caching; the entry still serves this caller.
            Err(_) => return entry,
        };
        if let Some(existing) = find(&mut slots, hash, genome) {
            existing.last_used = stamp;
            return Arc::clone(&existing.entry);
        }
        if slots.len() >= self.capacity {
            let stalest = slots
                .iter()
                .enumerate()
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(i, _)| i)
                .expect("a full store is non-empty");
            slots.swap_remove(stalest);
        }
        slots.push(Slot {
            hash,
            last_used: stamp,
            entry: Arc::clone(&entry),
        });
        entry
    }

    /// Counts a child priced off a cached parent.
    pub(crate) fn record_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a parent cache built from scratch.
    pub(crate) fn record_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a child that fell back to the full kernel.
    pub(crate) fn record_fallback(&self) {
        self.fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of the cumulative counters (approximate under concurrent
    /// evaluation; see the module docs).
    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
        }
    }

    /// Number of entries currently retained.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.slots.lock().map_or(0, |slots| slots.len())
    }
}

/// The slot holding exactly `genome`: candidates are rejected on the inline
/// hash, and only a hash match pays the full genome compare.
fn find<'s>(slots: &'s mut [Slot], hash: u64, genome: &[Trit]) -> Option<&'s mut Slot> {
    slots
        .iter_mut()
        .find(|slot| slot.hash == hash && slot.entry.matches(genome))
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
        let shared = SharedParentCache::new(4);
        let g = genome(1);
        assert!(shared.get(&g).is_none());
        let inserted = shared.insert(&g, built(&sliced, &g));
        let found = shared.get(&g).expect("entry is retained");
        assert!(Arc::ptr_eq(&inserted, &found));
        assert_eq!(found.genome, g);
        assert!(found.cache().is_warm());
        assert!(shared.get(&genome(2)).is_none());
    }

    #[test]
    fn double_insert_keeps_one_entry() {
        let sliced = sliced();
        let shared = SharedParentCache::new(4);
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
        let shared = SharedParentCache::new(8);
        for generation in 0..100 {
            shared.bump_generation();
            for c in 0..4 {
                let g = genome(3 * generation + c + 1);
                if shared.get(&g).is_none() {
                    shared.insert(&g, built(&sliced, &g));
                }
            }
            assert!(
                shared.len() <= 8,
                "generation {generation}: {} entries > capacity 8",
                shared.len()
            );
        }
        assert!(shared.len() > 0);
    }

    #[test]
    fn eviction_discards_the_stalest_generation_first() {
        let sliced = sliced();
        // Capacity 2: the entry untouched for the most generations is
        // evicted.
        let shared = SharedParentCache::new(2);
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
        let shared = SharedParentCache::new(1);
        let g = genome(5);
        let held = shared.insert(&g, built(&sliced, &g));
        let other = genome(6);
        shared.insert(&other, built(&sliced, &other)); // evicts `g`
        assert!(shared.get(&g).is_none());
        // The held Arc is still a perfectly valid (immutable) parent cache.
        assert!(held.cache().is_warm());
        assert_eq!(held.genome, g);
    }

    #[test]
    fn counters_accumulate_into_stats() {
        let shared = SharedParentCache::new(1);
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
        let shared = SharedParentCache::new(8);
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
                        assert_eq!(entry.genome, g);
                        assert!(entry.cache().is_warm());
                    }
                });
            }
        });
        assert!(shared.len() <= 8);
    }

    #[test]
    fn lookups_match_by_hash_prefilter_and_content() {
        let sliced = sliced();
        let shared = SharedParentCache::new(4);
        let g = genome(7);
        let entry = shared.insert(&g, built(&sliced, &g));
        assert!(entry.matches(&g));
        assert!(!entry.matches(&genome(8)));
        let mut slots = shared.slots.lock().unwrap();
        let hash = content_hash(&g);
        assert!(find(&mut slots, hash, &g).is_some());
        // A wrong prefilter never reaches the content compare.
        assert!(find(&mut slots, hash.wrapping_add(1), &g).is_none());
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
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_is_rejected() {
        let _ = SharedParentCache::new(0);
    }
}
