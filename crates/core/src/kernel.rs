//! The allocation-free, bit-sliced EA fitness kernel.
//!
//! The legacy fitness path ([`MvFitness::evaluate`](crate::MvFitness))
//! materializes an [`MvSet`](crate::MvSet), a [`Covering`](crate::Covering)
//! (two `Vec`s), a Huffman heap, canonical codewords and a
//! [`PrefixCode`](evotc_codes::PrefixCode) — per genome, thousands of times
//! per generation. This module computes the identical encoded size with zero
//! allocations after warm-up:
//!
//! 1. Genes are decoded straight into packed `(spec, value)` plane pairs in
//!    a reusable buffer, branchlessly — no `MatchingVector` vector, no
//!    `MvSet`.
//! 2. Covering order is the one canonical order of [`crate::covering_key`],
//!    realized by a stable counting sort over the tiny `N_U` key space;
//!    exact-duplicate MVs are skipped via a small open-addressing probe (a
//!    duplicate can never cover a block its earlier twin did not).
//! 3. Covering runs over a [`SlicedHistogram`]: one MV is matched against
//!    64 distinct blocks per word operation, uncovered blocks live in a
//!    bitset, and the scan stops as soon as everything is covered.
//! 4. The Huffman part of the size is priced with
//!    [`huffman_weighted_length`] — the sum-of-merge-weights identity — so
//!    no tree, codewords or prefix code ever exist.
//!
//! The result is **bit-identical** to the legacy path for every genome
//! (enforced by `tests/props_fitness_kernel.rs` and the determinism suite).

use evotc_bits::{SlicedHistogram, Trit};
use evotc_codes::{huffman_weighted_length, HuffmanScratch};

use crate::mvset::covering_key;

/// Reusable buffers for the scratch fitness kernel.
///
/// One `EvalScratch` serves any sequence of evaluations (shapes may vary
/// between calls); buffers grow to the largest shape seen and are reused.
/// Keep one per concurrent caller — the batch override of
/// [`MvFitness`](crate::MvFitness) checks one out of a pool per call.
///
/// # Example
///
/// ```
/// use evotc_bits::{BlockHistogram, SlicedHistogram, TestSet, TestSetString, Trit};
/// use evotc_core::{encoded_size, encoded_size_scratch, EvalScratch, MvSet};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let set = TestSet::parse(&["110100XX", "110000XX", "11010000"])?;
/// let hist = BlockHistogram::from_string(&TestSetString::new(&set, 4));
/// let sliced = SlicedHistogram::from_histogram(&hist);
/// let genes: Vec<Trit> = evotc_bits::parse_trits("110U0000UUUU")?;
/// let mut scratch = EvalScratch::new();
/// let fast = encoded_size_scratch(&sliced, &genes, false, &mut scratch);
/// let slow = encoded_size(&MvSet::from_genes(4, &genes, false)?, &hist);
/// assert_eq!(fast, slow);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct EvalScratch {
    /// Specified-position plane per MV, genome order.
    spec: Vec<u64>,
    /// Value plane per MV, genome order.
    value: Vec<u64>,
    /// MV indices in covering order (the one canonical order, realized by a
    /// stable counting sort on the `U` count — `N_U ≤ K ≤ 64` keys).
    order: Vec<u32>,
    /// Counting-sort buckets, one per possible `N_U` value.
    buckets: Vec<u32>,
    /// Open-addressing table of `(spec, value)` pairs already scanned, used
    /// to skip exact-duplicate MVs without a second sort.
    seen: Vec<(u64, u64)>,
    /// Occupancy bitmask for `seen` (one clear per evaluation).
    seen_used: Vec<u64>,
    /// Frequency of use per covering position.
    freqs: Vec<u64>,
    /// Bitset of distinct blocks not yet covered.
    uncovered: Vec<u64>,
    /// Bitset of blocks conflicting with the current MV.
    mismatch: Vec<u64>,
    /// Buffers for the length-only Huffman cost.
    huffman: HuffmanScratch,
    /// Scan-in transition count of the last evaluation (see
    /// [`EvalScratch::last_scan_transitions`]).
    scan_transitions: u64,
    /// Number of MVs with nonzero frequency in the last evaluation.
    used_mvs: usize,
}

impl EvalScratch {
    /// Creates empty scratch buffers; they size themselves on first use.
    pub fn new() -> Self {
        EvalScratch::default()
    }

    /// Scan-in transition count of the last [`encoded_size_scratch`] call:
    /// the number of adjacent bit flips inside each decoded block (the word
    /// the decoder shifts into the scan chain), summed over all blocks with
    /// multiplicity. A block owned by MV `i` decodes to
    /// `value_plane(i) | block_value(d)` — MV values at specified positions,
    /// the transmitted fill bits elsewhere. Only meaningful when that call
    /// returned `Some`; block order is not modelled (the histogram has
    /// none), so inter-block boundary flips are not counted.
    #[inline]
    pub fn last_scan_transitions(&self) -> u64 {
        self.scan_transitions
    }

    /// Number of MVs that covered at least one block in the last
    /// [`encoded_size_scratch`] call — the used-symbol count that sizes the
    /// decoder's MV table and FSM. Only meaningful when that call returned
    /// `Some`.
    #[inline]
    pub fn last_used_mvs(&self) -> usize {
        self.used_mvs
    }
}

/// Transitions of one decoded block: adjacent-bit XOR, masked to the `K-1`
/// in-block bit boundaries, popcounted. `K = 64` still works (`mask` keeps
/// bits `0..63`); `K ≤ 1` has no adjacent pair and counts zero.
#[inline]
pub(crate) fn block_transitions(x: u64, k: usize) -> u64 {
    let mask = if k <= 1 { 0 } else { (1u64 << (k - 1)) - 1 };
    ((x ^ (x >> 1)) & mask).count_ones() as u64
}

/// Computes the compressed size, in bits, of the MV set encoded by `genes`
/// over a bit-sliced histogram — the allocation-free equivalent of decoding
/// the genome with [`MvSet::from_genes`](crate::MvSet::from_genes) and
/// pricing it with [`encoded_size`](crate::encoded_size).
///
/// `K` is the histogram's block length; `genes` must hold `K·L` trits for
/// some `L ≥ 1`. With `force_all_u` the final MV is replaced by the all-`U`
/// vector, exactly as in the genome decoding of the paper's Section 4.
///
/// Returns `None` if some distinct block is matched by no MV (covering
/// impossible). The returned size is bit-identical to the legacy path for
/// every input.
///
/// # Panics
///
/// Panics if `genes` is empty or not a multiple of the block length
/// (mirroring `MvSet::from_genes`).
pub fn encoded_size_scratch(
    sliced: &SlicedHistogram,
    genes: &[Trit],
    force_all_u: bool,
    scratch: &mut EvalScratch,
) -> Option<u64> {
    let k = sliced.block_len();
    assert!(
        !genes.is_empty() && genes.len() % k == 0,
        "genome length {} is not a positive multiple of K={k}",
        genes.len()
    );
    let l = genes.len() / k;

    // 1. Decode genes into packed planes, genome order. Branchless: the
    // gene index (0 = `0`, 1 = `1`, 2 = `U`) maps to the two plane bits by
    // pure arithmetic, so random genomes cost no branch mispredictions.
    scratch.spec.clear();
    scratch.value.clear();
    for chunk in genes.chunks_exact(k) {
        let mut spec = 0u64;
        let mut value = 0u64;
        for (j, &t) in chunk.iter().enumerate() {
            let idx = t.index() as u64;
            value |= (idx & 1) << j; // 1 only for Trit::One
            spec |= ((idx >> 1) ^ 1) << j; // 1 for Zero/One, 0 for X
        }
        scratch.spec.push(spec);
        scratch.value.push(value);
    }
    if force_all_u {
        scratch.spec[l - 1] = 0;
        scratch.value[l - 1] = 0;
    }

    // 2. The one canonical covering order (see `MvSet`'s invariant and
    // `covering_key`): ascending N_U, ties by genome index. Keys are tiny
    // (N_U ≤ K ≤ 64), so a stable counting sort realizes the exact same
    // order as the comparison sort in `MvSet::new` at O(L + K).
    let num_u = |spec: u64| k - spec.count_ones() as usize;
    scratch.buckets.clear();
    scratch.buckets.resize(k + 1, 0);
    let (spec_planes, value_planes) = (&scratch.spec, &scratch.value);
    for &spec in spec_planes.iter() {
        scratch.buckets[num_u(spec)] += 1;
    }
    let mut start = 0u32;
    for bucket in scratch.buckets.iter_mut() {
        let here = *bucket;
        *bucket = start;
        start += here;
    }
    scratch.order.clear();
    scratch.order.resize(l, 0);
    for (i, &spec) in spec_planes.iter().enumerate() {
        let slot = &mut scratch.buckets[num_u(spec)];
        scratch.order[*slot as usize] = i as u32;
        *slot += 1;
    }
    debug_assert!(scratch.order.windows(2).all(|w| covering_key(
        num_u(spec_planes[w[0] as usize]),
        w[0] as usize
    ) < covering_key(
        num_u(spec_planes[w[1] as usize]),
        w[1] as usize
    )));

    // 3. Bit-sliced covering scan with inline duplicate skipping: an MV
    // whose exact (spec, value) pair was already scanned can never cover a
    // block (its twin took them all), so it keeps frequency 0 without
    // touching the histogram — precisely what the sequential first-match
    // rule assigns it. Duplicates are found with a small open-addressing
    // probe instead of a second sort.
    let words = sliced.words_per_column();
    scratch.uncovered.clear();
    scratch.uncovered.resize(words, u64::MAX);
    if let Some(last) = scratch.uncovered.last_mut() {
        *last = sliced.last_word_mask();
    }
    scratch.mismatch.clear();
    scratch.mismatch.resize(words, 0);
    scratch.freqs.clear();
    scratch.freqs.resize(l, 0);
    // The probe table only grows (len stays a power of two); resetting it is
    // one memset of the occupancy bitmask — slots are never read while their
    // `seen_used` bit is clear, so stale pairs can stay in place.
    let needed = (2 * l).next_power_of_two();
    if scratch.seen.len() < needed {
        scratch.seen.resize(needed, (0, 0));
        scratch.seen_used.resize(needed.div_ceil(64), 0);
    }
    scratch.seen_used.iter_mut().for_each(|w| *w = 0);

    let counts = sliced.counts();
    let mut blocks_left = sliced.num_distinct();
    let mut fill_bits = 0u64;
    scratch.scan_transitions = 0;
    scratch.used_mvs = 0;
    for (pos, &i) in scratch.order.iter().enumerate() {
        let i = i as usize;
        if blocks_left == 0 {
            // Everything is covered; the remaining MVs keep frequency 0.
            break;
        }
        let (spec, value) = (spec_planes[i], value_planes[i]);
        if probe_seen(spec, value, &mut scratch.seen, &mut scratch.seen_used) {
            continue; // exact duplicate of an earlier-in-covering-order MV
        }
        scratch.mismatch.iter_mut().for_each(|w| *w = 0);
        sliced.accumulate_mismatch(spec, value, &mut scratch.mismatch);
        let mut freq = 0u64;
        for (w, (unc, &mis)) in scratch
            .uncovered
            .iter_mut()
            .zip(&scratch.mismatch)
            .enumerate()
        {
            let mut matched = *unc & !mis;
            if matched != 0 {
                *unc &= mis;
                while matched != 0 {
                    let b = matched.trailing_zeros() as usize;
                    matched &= matched - 1;
                    let d = w * 64 + b;
                    freq += counts[d];
                    blocks_left -= 1;
                    // The decoded scan-in word of block `d`: MV values at
                    // specified positions (value ⊆ spec by construction),
                    // the block's transmitted fill bits at the MV's `U`s.
                    let (_, bv) = sliced.block_planes(d);
                    scratch.scan_transitions += counts[d] * block_transitions(value | bv, k);
                }
            }
        }
        scratch.freqs[pos] = freq;
        if freq > 0 {
            scratch.used_mvs += 1;
        }
        fill_bits += freq * num_u(spec) as u64;
    }
    if blocks_left > 0 {
        return None; // some block matches no MV — covering impossible
    }

    // 4. Length-only Huffman pricing of the codeword part.
    Some(fill_bits + huffman_weighted_length(&scratch.freqs, &mut scratch.huffman))
}

/// Returns `true` if `(spec, value)` is already in the table; inserts it
/// otherwise. Linear probing over a power-of-two table at most half full,
/// with occupancy in a separate bitmask so the table resets with one memset.
///
/// The sizing contract is enforced, not assumed: a non-power-of-two table
/// would probe a wrong (aliased) slot sequence, and a full table of
/// non-matching entries would loop forever — both fail loudly instead
/// (`debug_assert!` and a guaranteed-free-slot guard respectively).
#[inline]
fn probe_seen(spec: u64, value: u64, seen: &mut [(u64, u64)], used: &mut [u64]) -> bool {
    debug_assert!(
        seen.len().is_power_of_two(),
        "probe table length {} is not a power of two",
        seen.len()
    );
    let mask = seen.len() - 1;
    // Cheap two-word mix (SplitMix64-style odd constants); collisions only
    // cost probes, never correctness — slots are compared exactly.
    let mut h = (spec
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(value.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        >> 32) as usize
        & mask;
    for _ in 0..seen.len() {
        if used[h / 64] >> (h % 64) & 1 == 0 {
            used[h / 64] |= 1 << (h % 64);
            seen[h] = (spec, value);
            return false;
        }
        if seen[h] == (spec, value) {
            return true;
        }
        h = (h + 1) & mask;
    }
    panic!(
        "probe table has no free slot for a fresh pair (len {}): \
         the at-most-half-full sizing contract was violated",
        seen.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::encoded_size;
    use crate::mvset::MvSet;
    use evotc_bits::{BlockHistogram, TestSet, TestSetString};

    fn fixtures(rows: &[&str], k: usize) -> (BlockHistogram, SlicedHistogram) {
        let set = TestSet::parse(rows).unwrap();
        let hist = BlockHistogram::from_string(&TestSetString::new(&set, k));
        let sliced = SlicedHistogram::from_histogram(&hist);
        (hist, sliced)
    }

    fn genes(s: &str) -> Vec<Trit> {
        evotc_bits::parse_trits(&s.replace(' ', "")).unwrap()
    }

    fn both(
        hist: &BlockHistogram,
        sliced: &SlicedHistogram,
        g: &[Trit],
        force: bool,
        scratch: &mut EvalScratch,
    ) -> (Option<u64>, Option<u64>) {
        let k = sliced.block_len();
        let fast = encoded_size_scratch(sliced, g, force, scratch);
        let slow = MvSet::from_genes(k, g, force)
            .ok()
            .and_then(|mvs| encoded_size(&mvs, hist));
        (fast, slow)
    }

    #[test]
    fn matches_legacy_on_clustered_data() {
        let (hist, sliced) = fixtures(
            &["110100XX", "110000XX", "11010000", "110X00XX", "11010011"],
            8,
        );
        let mut scratch = EvalScratch::new();
        for g in [
            genes("110U00UU 00000000 UUUUUUUU"),
            genes("11010000 110000UU UUUUUUUU"),
            genes("UUUUUUUU UUUUUUUU UUUUUUUU"),
            genes("110U00UU 110U00UU UUUUUUUU"), // exact duplicate MVs
        ] {
            let (fast, slow) = both(&hist, &sliced, &g, false, &mut scratch);
            assert_eq!(fast, slow, "genome {g:?}");
            assert!(fast.is_some());
        }
    }

    #[test]
    fn uncoverable_genomes_return_none() {
        let (hist, sliced) = fixtures(&["1111", "0000"], 4);
        let mut scratch = EvalScratch::new();
        let g = genes("1111 1111");
        let (fast, slow) = both(&hist, &sliced, &g, false, &mut scratch);
        assert_eq!(fast, None);
        assert_eq!(slow, None);
        // The same genome with force_all_u is feasible again.
        let (fast, slow) = both(&hist, &sliced, &g, true, &mut scratch);
        assert_eq!(fast, slow);
        assert!(fast.is_some());
    }

    #[test]
    fn force_all_u_replaces_the_last_vector() {
        let (hist, sliced) = fixtures(&["10101010", "01010101"], 8);
        let mut scratch = EvalScratch::new();
        let g = genes("10101010 00000000");
        let (fast, slow) = both(&hist, &sliced, &g, true, &mut scratch);
        assert_eq!(fast, slow);
        assert!(fast.is_some());
    }

    #[test]
    fn scratch_is_reusable_across_shapes() {
        let (hist_a, sliced_a) = fixtures(&["110100XX", "11000000"], 8);
        let (hist_b, sliced_b) = fixtures(&["1010", "0101", "1111", "10X0"], 4);
        let mut scratch = EvalScratch::new();
        for _ in 0..3 {
            let g = genes("110U00UU UUUUUUUU");
            let (fast, slow) = both(&hist_a, &sliced_a, &g, false, &mut scratch);
            assert_eq!(fast, slow);
            let g = genes("1010 UUUU");
            let (fast, slow) = both(&hist_b, &sliced_b, &g, false, &mut scratch);
            assert_eq!(fast, slow);
        }
    }

    #[test]
    fn many_distinct_blocks_cross_word_boundaries() {
        // 96 distinct K=8 blocks: two words per column, partial last word.
        let rows: Vec<String> = (0..96u32).map(|i| format!("{i:08b}")).collect();
        let refs: Vec<&str> = rows.iter().map(String::as_str).collect();
        let (hist, sliced) = fixtures(&refs, 8);
        assert!(sliced.words_per_column() >= 2);
        let mut scratch = EvalScratch::new();
        for g in [
            genes("0000UUUU 0101UUUU UUUUUUUU"),
            genes("00000000 UUUUUUU0 UUUUUUUU"),
            genes("0U0U0U0U 1U1U1U1U UUUUUUUU"),
        ] {
            let (fast, slow) = both(&hist, &sliced, &g, false, &mut scratch);
            assert_eq!(fast, slow, "genome {g:?}");
        }
    }

    #[test]
    #[should_panic(expected = "not a positive multiple")]
    fn rejects_ragged_genomes() {
        let (_, sliced) = fixtures(&["1111"], 4);
        let _ = encoded_size_scratch(&sliced, &genes("111"), false, &mut EvalScratch::new());
    }

    #[test]
    #[should_panic(expected = "no free slot")]
    fn undersized_probe_table_fails_loudly_instead_of_hanging() {
        // A 2-slot table fed 3 distinct pairs must not spin forever hunting
        // for a free slot that does not exist.
        let mut seen = vec![(0u64, 0u64); 2];
        let mut used = vec![0u64; 1];
        for pair in 1..=3u64 {
            let fresh = !probe_seen(pair, pair, &mut seen, &mut used);
            assert!(fresh, "pair {pair} was never inserted before");
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not a power of two")]
    fn non_power_of_two_probe_table_is_rejected_in_debug() {
        let mut seen = vec![(0u64, 0u64); 3];
        let mut used = vec![0u64; 1];
        let _ = probe_seen(1, 1, &mut seen, &mut used);
    }
}
