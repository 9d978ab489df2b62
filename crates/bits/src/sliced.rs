//! Bit-sliced (column-major) views of a block histogram.

use crate::block::InputBlock;
use crate::histogram::BlockHistogram;

/// A column-major transposition of a [`BlockHistogram`]: for every trit
/// position `j` of the block, the *care* and *value* bits of all distinct
/// blocks are packed into `u64` words, one block per bit.
///
/// Where an [`InputBlock`] packs its `K` positions into one word (row-major),
/// the sliced layout packs 64 *blocks* into one word per position
/// (column-major), pre-resolved into per-position *conflict sets*. A
/// matching vector is then matched against 64 distinct blocks with one word
/// operation per *specified* MV position — the inner loop of the EA fitness
/// kernel:
///
/// ```text
/// mismatch |= conflict_col[j][mv_value[j]]   // zeros[j] or ones[j]
/// ```
///
/// The transposition is built once per run (per histogram) and shared
/// read-only by every evaluation and worker thread.
///
/// # Example
///
/// ```
/// use evotc_bits::{BlockHistogram, SlicedHistogram, TestSet, TestSetString};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let set = TestSet::parse(&["1010", "1010", "0101"])?;
/// let hist = BlockHistogram::from_string(&TestSetString::new(&set, 4));
/// let sliced = SlicedHistogram::from_histogram(&hist);
/// assert_eq!(sliced.num_distinct(), 2);
/// assert_eq!(sliced.counts(), &[2, 1]); // histogram order
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlicedHistogram {
    k: usize,
    num_distinct: usize,
    /// Words per column: `ceil(num_distinct / 64)`.
    words: usize,
    /// `k * words` words; column `j` occupies `ones[j*words .. (j+1)*words]`.
    /// Bit `d % 64` of word `d / 64` is set iff distinct block `d` holds a
    /// *specified `1`* at position `j` — i.e. the blocks conflicting with an
    /// MV that says `0` there. Bits at and above `num_distinct` are zero.
    ones: Vec<u64>,
    /// Same layout: blocks holding a *specified `0`* at position `j` — the
    /// blocks conflicting with an MV that says `1` there.
    zeros: Vec<u64>,
    /// Multiplicity of each distinct block, in histogram order.
    counts: Vec<u64>,
    /// Care plane of each distinct block (row-major), in histogram order.
    bcare: Vec<u64>,
    /// Value plane of each distinct block (row-major), in histogram order.
    bvalue: Vec<u64>,
    /// FNV-1a digest of `(K, counts, care planes, value planes)`, computed
    /// once at construction (see [`SlicedHistogram::content_id`]).
    content_id: u64,
}

/// FNV-1a over the words that define a histogram's content.
fn content_digest(k: usize, counts: &[u64], bcare: &[u64], bvalue: &[u64]) -> u64 {
    const OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let words = std::iter::once(k as u64)
        .chain(counts.iter().copied())
        .chain(bcare.iter().copied())
        .chain(bvalue.iter().copied());
    words.fold(OFFSET, |hash, word| {
        word.to_le_bytes()
            .iter()
            .fold(hash, |h, &b| (h ^ b as u64).wrapping_mul(PRIME))
    })
}

impl SlicedHistogram {
    /// Transposes a histogram into bit planes. Distinct-block index `d`
    /// follows the histogram's (deterministic) entry order.
    ///
    /// The columns are stored pre-resolved as *conflict sets* (`ones[j]` =
    /// blocks specified `1` at `j`, `zeros[j]` = blocks specified `0`), so
    /// the matching inner loop is a single load + OR per word instead of
    /// recombining care/value planes on every evaluation.
    pub fn from_histogram(histogram: &BlockHistogram) -> Self {
        let k = histogram.block_len();
        let n = histogram.num_distinct();
        let words = n.div_ceil(64);
        let mut ones = vec![0u64; k * words];
        let mut zeros = vec![0u64; k * words];
        let mut counts = Vec::with_capacity(n);
        let mut bcare = Vec::with_capacity(n);
        let mut bvalue = Vec::with_capacity(n);
        for (d, &(block, count)) in histogram.iter().enumerate() {
            let (w, b) = (d / 64, d % 64);
            let care_plane = block.care_plane();
            let value_plane = block.value_plane();
            bcare.push(care_plane);
            bvalue.push(value_plane);
            for j in 0..k {
                let care = (care_plane >> j) & 1;
                let value = (value_plane >> j) & 1;
                ones[j * words + w] |= (care & value) << b;
                zeros[j * words + w] |= (care & !value & 1) << b;
            }
            counts.push(count);
        }
        let content_id = content_digest(k, &counts, &bcare, &bvalue);
        SlicedHistogram {
            k,
            num_distinct: n,
            words,
            ones,
            zeros,
            counts,
            bcare,
            bvalue,
            content_id,
        }
    }

    /// A digest of the histogram's content — block length, and every
    /// distinct block's planes and multiplicity, in order — computed once at
    /// construction. Two transpositions of equal dimensions but different
    /// blocks or counts get different ids (up to 64-bit collisions), which
    /// is what lets a cache built against one histogram refuse to price
    /// against another.
    #[inline]
    pub fn content_id(&self) -> u64 {
        self.content_id
    }

    /// Block length `K`.
    #[inline]
    pub fn block_len(&self) -> usize {
        self.k
    }

    /// Number of distinct blocks (bits used per column).
    #[inline]
    pub fn num_distinct(&self) -> usize {
        self.num_distinct
    }

    /// Words per column (`ceil(num_distinct / 64)`) — the length callers
    /// must size their mismatch/uncovered bitset buffers to.
    #[inline]
    pub fn words_per_column(&self) -> usize {
        self.words
    }

    /// Multiplicities in histogram order; `counts()[d]` belongs to bit
    /// `d % 64` of word `d / 64` in every column.
    #[inline]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// A word whose low `num_distinct % 64` bits are set — the mask of valid
    /// bits in the *last* word of a column (all ones when the count is a
    /// multiple of 64). Returns `0` for an empty histogram.
    #[inline]
    pub fn last_word_mask(&self) -> u64 {
        match self.num_distinct % 64 {
            0 if self.num_distinct == 0 => 0,
            0 => u64::MAX,
            r => (1u64 << r) - 1,
        }
    }

    /// The pre-resolved conflict plane of one position: the bitset of
    /// distinct blocks that conflict with a matching vector specifying logic
    /// value `value_bit` at position `j` (an MV saying `1` conflicts with
    /// the blocks specified `0` there, and vice versa).
    ///
    /// This is the primitive behind [`SlicedHistogram::accumulate_mismatch`],
    /// exposed so incremental evaluators can patch a single MV's match set
    /// with a handful of word operations instead of rescanning the whole
    /// histogram.
    ///
    /// # Panics
    ///
    /// Panics if `j >= block_len()`.
    #[inline]
    pub fn conflict_column(&self, j: usize, value_bit: bool) -> &[u64] {
        assert!(j < self.k, "position {j} out of range {}", self.k);
        let table = if value_bit { &self.zeros } else { &self.ones };
        &table[j * self.words..(j + 1) * self.words]
    }

    /// ORs into `mismatch` the set of distinct blocks that **conflict** with
    /// a matching vector given by its raw planes (`spec` bit `j` set means
    /// position `j` is specified with logic value `value` bit `j`).
    ///
    /// A block conflicts iff at some specified MV position it cares and holds
    /// the opposite value. Blocks whose bit stays clear are matched by the
    /// MV. The cost is one pass of `words_per_column()` word operations per
    /// *specified* position — 64 blocks per word op.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `mismatch.len() != words_per_column()`.
    #[inline]
    pub fn accumulate_mismatch(&self, spec: u64, value: u64, mismatch: &mut [u64]) {
        debug_assert_eq!(mismatch.len(), self.words, "mismatch buffer length");
        let mut remaining = spec;
        while remaining != 0 {
            let j = remaining.trailing_zeros() as usize;
            remaining &= remaining - 1;
            let column = self.conflict_column(j, (value >> j) & 1 == 1);
            for (m, &c) in mismatch.iter_mut().zip(column) {
                *m |= c;
            }
        }
    }

    /// Batched form of [`SlicedHistogram::accumulate_mismatch`]: computes the
    /// conflict bitset of several matching vectors in one call, writing the
    /// mismatch plane of `planes[t]` into
    /// `mismatch[t * words_per_column() .. (t + 1) * words_per_column()]`.
    ///
    /// The output slices are fully overwritten (no OR-accumulation across
    /// calls, unlike the single-MV form), so callers need no clearing pass.
    /// Incremental evaluators use this to resolve every MV chunk a
    /// crossover/inversion window touched with one pass over the conflict
    /// planes per chunk, keeping the column loads hot in cache between
    /// consecutive chunks.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `mismatch` is not exactly
    /// `planes.len() * words_per_column()` words long.
    pub fn accumulate_mismatch_batch(&self, planes: &[(u64, u64)], mismatch: &mut [u64]) {
        debug_assert_eq!(
            mismatch.len(),
            planes.len() * self.words,
            "batched mismatch buffer length"
        );
        for (&(spec, value), out) in planes.iter().zip(mismatch.chunks_exact_mut(self.words)) {
            out.iter_mut().for_each(|w| *w = 0);
            self.accumulate_mismatch(spec, value, out);
        }
    }

    /// The row-major `(care, value)` planes of distinct block `d` — two
    /// array loads, for hot paths that match individual blocks against MV
    /// planes (the incremental evaluator's orphan re-flow).
    ///
    /// # Panics
    ///
    /// Panics if `d >= num_distinct()` (slice bounds).
    #[inline]
    pub fn block_planes(&self, d: usize) -> (u64, u64) {
        (self.bcare[d], self.bvalue[d])
    }

    /// Reconstructs distinct block `d` from the columns (for tests and
    /// debugging; the kernel never needs it).
    ///
    /// # Panics
    ///
    /// Panics if `d >= num_distinct()`.
    pub fn block(&self, d: usize) -> InputBlock {
        assert!(d < self.num_distinct, "block {d} out of range");
        let (w, b) = (d / 64, d % 64);
        let mut care_plane = 0u64;
        let mut value_plane = 0u64;
        for j in 0..self.k {
            let one = (self.ones[j * self.words + w] >> b) & 1;
            let zero = (self.zeros[j * self.words + w] >> b) & 1;
            care_plane |= (one | zero) << j;
            value_plane |= one << j;
        }
        InputBlock::from_planes(self.k, care_plane, value_plane).expect("k is valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_set::{TestSet, TestSetString};

    fn sliced(rows: &[&str], k: usize) -> (BlockHistogram, SlicedHistogram) {
        let set = TestSet::parse(rows).unwrap();
        let hist = BlockHistogram::from_string(&TestSetString::new(&set, k));
        let s = SlicedHistogram::from_histogram(&hist);
        (hist, s)
    }

    #[test]
    fn round_trips_blocks_and_counts() {
        let (hist, s) = sliced(&["110100XX", "110000XX", "110100XX"], 8);
        assert_eq!(s.num_distinct(), hist.num_distinct());
        for (d, &(block, count)) in hist.iter().enumerate() {
            assert_eq!(s.block(d), block, "block {d}");
            assert_eq!(s.counts()[d], count, "count {d}");
        }
    }

    #[test]
    fn content_id_tracks_content_not_dimensions() {
        let (_, a) = sliced(&["1111", "0000"], 4);
        let (_, again) = sliced(&["1111", "0000"], 4);
        let (_, b) = sliced(&["1010", "0101"], 4);
        let (_, recounted) = sliced(&["1111", "0000", "0000"], 4);
        assert_eq!(a.content_id(), again.content_id());
        assert_eq!(a.content_id(), a.clone().content_id());
        assert_eq!(a.num_distinct(), b.num_distinct());
        assert_ne!(a.content_id(), b.content_id(), "different blocks");
        assert_ne!(a.content_id(), recounted.content_id(), "different counts");
    }

    #[test]
    fn mismatch_agrees_with_row_major_matching() {
        let (hist, s) = sliced(&["1101", "1100", "0000", "1X01", "0X10"], 4);
        // Try every MV over a few spec/value combinations.
        for spec in 0..16u64 {
            for value in 0..16u64 {
                let value = value & spec;
                let mut mismatch = vec![0u64; s.words_per_column()];
                s.accumulate_mismatch(spec, value, &mut mismatch);
                for (d, &(block, _)) in hist.iter().enumerate() {
                    let row_major = spec & block.care_plane() & (value ^ block.value_plane()) == 0;
                    let sliced_match = (mismatch[d / 64] >> (d % 64)) & 1 == 0;
                    assert_eq!(
                        sliced_match, row_major,
                        "spec={spec:04b} value={value:04b} block {block}"
                    );
                }
            }
        }
    }

    #[test]
    fn mismatch_accumulates_across_calls() {
        let (_, s) = sliced(&["1111", "0000"], 4);
        let mut mismatch = vec![0u64; s.words_per_column()];
        // First MV 1111 mismatches 0000; second MV 0000 mismatches 1111.
        s.accumulate_mismatch(0b1111, 0b1111, &mut mismatch);
        let after_first = mismatch.clone();
        s.accumulate_mismatch(0b1111, 0b0000, &mut mismatch);
        assert_ne!(after_first, mismatch);
        // Every block now conflicts with one of the two MVs.
        assert_eq!(mismatch[0] & s.last_word_mask(), s.last_word_mask());
    }

    #[test]
    fn last_word_mask_covers_partial_and_full_words() {
        let (_, s) = sliced(&["10", "01", "11"], 2);
        assert_eq!(s.last_word_mask(), 0b111);
        // 64 distinct blocks of K=6 -> exactly one full word.
        let rows: Vec<String> = (0..64u32).map(|i| format!("{i:06b}")).collect();
        let refs: Vec<&str> = rows.iter().map(String::as_str).collect();
        let (_, full) = sliced(&refs, 6);
        assert_eq!(full.num_distinct(), 64);
        assert_eq!(full.words_per_column(), 1);
        assert_eq!(full.last_word_mask(), u64::MAX);
    }

    #[test]
    fn conflict_columns_compose_into_accumulate_mismatch() {
        let (_, s) = sliced(&["1101", "1100", "0000", "1X01", "0X10"], 4);
        for spec in 0..16u64 {
            for value in 0..16u64 {
                let value = value & spec;
                let mut via_accumulate = vec![0u64; s.words_per_column()];
                s.accumulate_mismatch(spec, value, &mut via_accumulate);
                let mut via_columns = vec![0u64; s.words_per_column()];
                for j in 0..4 {
                    if (spec >> j) & 1 == 1 {
                        for (m, &c) in via_columns
                            .iter_mut()
                            .zip(s.conflict_column(j, (value >> j) & 1 == 1))
                        {
                            *m |= c;
                        }
                    }
                }
                assert_eq!(via_columns, via_accumulate, "spec={spec:04b}");
            }
        }
    }

    #[test]
    fn batched_mismatch_matches_repeated_single_calls() {
        let (_, s) = sliced(&["1101", "1100", "0000", "1X01", "0X10"], 4);
        let planes: Vec<(u64, u64)> = (0..16u64)
            .flat_map(|spec| (0..16u64).map(move |value| (spec, value & spec)))
            .collect();
        let mut batched = vec![u64::MAX; planes.len() * s.words_per_column()];
        s.accumulate_mismatch_batch(&planes, &mut batched);
        for (t, &(spec, value)) in planes.iter().enumerate() {
            let mut single = vec![0u64; s.words_per_column()];
            s.accumulate_mismatch(spec, value, &mut single);
            let w = s.words_per_column();
            assert_eq!(&batched[t * w..(t + 1) * w], &single[..], "plane {t}");
        }
        // An empty batch is a no-op on an empty buffer.
        s.accumulate_mismatch_batch(&[], &mut []);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn conflict_column_rejects_out_of_range_positions() {
        let (_, s) = sliced(&["10", "01"], 2);
        let _ = s.conflict_column(2, false);
    }

    #[test]
    fn all_u_mv_mismatches_nothing() {
        let (_, s) = sliced(&["1X0X", "0101", "1111"], 4);
        let mut mismatch = vec![0u64; s.words_per_column()];
        s.accumulate_mismatch(0, 0, &mut mismatch);
        assert!(mismatch.iter().all(|&w| w == 0));
    }
}
