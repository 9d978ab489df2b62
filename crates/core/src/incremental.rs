//! Incremental fitness re-evaluation via parent→child provenance.
//!
//! The EA's operators edit a gene window, but the scratch kernel
//! ([`crate::encoded_size_scratch`]) re-prices the whole individual — decode
//! all `L` MVs, rescan the covering, rebuild the Huffman cost — on every
//! evaluation. This module keeps the parent's work in an [`EvalCache`] and
//! re-prices an arbitrary edit window from deltas:
//!
//! 1. The edited window is decoded into the (sorted) set of MV chunks whose
//!    planes actually changed; every unchanged plane pair is reused. A
//!    point mutation changes at most one chunk; crossover and inversion
//!    windows change several.
//! 2. The covering is *patched*, not rescanned — once per changed chunk.
//!    The cache stores the covering as per-MV **owned-block bitsets** (plus
//!    a per-block owner table), so a single-MV edit is bitset algebra:
//!    blocks move **to** the edited MV (the steal set is its new match set
//!    — one pass over the [`SlicedHistogram`]'s conflict planes — masked by
//!    the blocks of earlier-ranked owners, all word operations) or **away
//!    from** it (orphan candidates are exactly its owned bits, re-flowed to
//!    the first matching MV with the weave point found by one binary search
//!    in the key-sorted covering order). Blocks owned by MVs earlier in
//!    covering order are untouched by construction. Multi-chunk edits apply
//!    this same single-MV ownership patch sequentially, chunk by chunk,
//!    against one working copy of the parent's covering — each intermediate
//!    state is the consistent covering of an intermediate genome, so the
//!    single-MV invariants hold at every step.
//! 3. The Huffman part is re-priced from **one** accumulated frequency
//!    delta ([`evotc_codes::huffman_weighted_length_delta`]) against the
//!    parent's sorted leaf queue — not one rebuild per chunk: per-MV
//!    frequency changes are netted across all chunks first, and the delta
//!    state patches its queue with a single batched merge.
//!
//! Ownership is tracked by MV (genome index) and compared via the canonical
//! [`covering_key`], so an edit that changes an MV's `N_U` — and therefore
//! its *position* in covering order — is still a patch: the key comparison
//! re-ranks the moved MV without renumbering anything.
//!
//! The public pricing API is three functions. Pricing never writes to the
//! cache: a cached parent is rebuilt once and then only read, so one parent
//! prices any number of children, from any number of threads at once (see
//! [`crate::MvFitness`]). The two pricing functions share one
//! preamble (shape and histogram gate, lineage check, changed-chunk
//! detection) and keep their per-call working memory in a caller-owned
//! [`PatchScratch`]:
//!
//! * [`encoded_size_rebuild`] fully evaluates a genome into a cache;
//! * [`encoded_size_probe`] prices a child against a cached parent and
//!   declines multi-chunk edits whose estimated patch cost exceeds a full
//!   rescan — what the EA runs;
//! * [`encoded_size_incremental`] is the same price without that cost gate,
//!   so every window reaches the patch path (tests and benches use it).
//!
//! The incremental path is **bit-identical** to the full kernel for every
//! edit it prices (enforced by `tests/props_incremental.rs` and the CI
//! equivalence gate); it falls back (see [`IncrementalOutcome::NeedsFull`])
//! only when the cache is cold, was rebuilt against another histogram or
//! shape, or the probe's cost gate judges a rescan cheaper.

use std::ops::Range;

use evotc_bits::{SlicedHistogram, Trit};
use evotc_codes::{huffman_weighted_length_delta, HuffmanDeltaState};

use crate::kernel::block_transitions;
use crate::mvset::covering_key;

/// Sentinel in the per-block owner table: the block matches no MV.
const NO_MV: u32 = u32::MAX;

/// A parent genome's fully evaluated covering state, reusable to price
/// lightly edited children in time proportional to the edit.
///
/// Build it with [`encoded_size_rebuild`], then price children against it
/// with [`encoded_size_probe`] (or the ungated [`encoded_size_incremental`]).
/// Pricing only reads the cache, so one cached parent serves every thread
/// concurrently. One cache holds one genome; buffers are retained across
/// rebuilds, so recycling a cache for a different parent costs no
/// allocations after warm-up.
///
/// # Example
///
/// ```
/// use evotc_bits::{BlockHistogram, SlicedHistogram, TestSet, TestSetString, Trit};
/// use evotc_core::{
///     encoded_size_incremental, encoded_size_rebuild, encoded_size_scratch, EvalCache,
///     EvalScratch, IncrementalOutcome, PatchScratch,
/// };
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let set = TestSet::parse(&["110100XX", "110000XX", "11010000"])?;
/// let hist = BlockHistogram::from_string(&TestSetString::new(&set, 4));
/// let sliced = SlicedHistogram::from_histogram(&hist);
/// let parent: Vec<Trit> = evotc_bits::parse_trits("110U0000UUUU")?;
///
/// let mut cache = EvalCache::new();
/// let full = encoded_size_rebuild(&sliced, &parent, false, &mut cache);
///
/// // Mutate one gene and price the child against the cached parent.
/// let mut child = parent.clone();
/// child[5] = Trit::One;
/// let mut scratch = PatchScratch::new();
/// let inc = encoded_size_incremental(&sliced, &child, false, &(5..6), &cache, &mut scratch);
/// let reference = encoded_size_scratch(&sliced, &child, false, &mut EvalScratch::new());
/// assert_eq!(inc, IncrementalOutcome::Size(reference));
/// // The cache still holds the parent: an empty edit returns its size.
/// let cached = encoded_size_incremental(&sliced, &parent, false, &(0..0), &cache, &mut scratch);
/// assert_eq!(cached, IncrementalOutcome::Size(full));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct EvalCache {
    /// Whether the cache holds a complete evaluation.
    warm: bool,
    /// Shape tag of the held evaluation: `(K, L, distinct blocks, words per
    /// column, force_all_u)`. Incremental evaluation requires an exact match.
    shape: (usize, usize, usize, usize, bool),
    /// [`SlicedHistogram::content_id`] of the histogram the cache was
    /// rebuilt against; pricing against any other histogram needs the full
    /// kernel.
    histogram: u64,
    /// The exact genome the planes were decoded from, so chunk detection
    /// can skip trit-identical chunks with one byte compare instead of
    /// decoding them (an average crossover window spans dozens of chunks of
    /// which only a few differ).
    genes: Vec<Trit>,
    /// Specified-position plane per MV, genome order, post-`force_all_u`.
    spec: Vec<u64>,
    /// Value plane per MV, genome order, post-`force_all_u`.
    value: Vec<u64>,
    /// `N_U` per MV (redundant with `spec`, cached for the key compares).
    nu: Vec<u32>,
    /// Genome indices sorted by [`covering_key`] — covering order.
    order: Vec<u32>,
    /// Frequency of use per MV (genome index, **not** covering position —
    /// the Huffman cost only needs the multiset, and genome indexing
    /// survives order changes).
    freq: Vec<u64>,
    /// Owning MV (genome index) per distinct block, or [`NO_MV`].
    owner: Vec<u32>,
    /// Owned-block bitset per MV (`words` words per MV, MV-major): the
    /// inverse of `owner`, kept so the ownership patch is word operations
    /// instead of per-block scans.
    owned: Vec<u64>,
    /// Bitset of blocks owned by no MV (the uncovered set).
    unowned: Vec<u64>,
    /// MV-major transposition of the MV planes: for every block position
    /// `p`, a bitmask over MVs (`ceil(L/64)` words) of those specifying `p`
    /// with logic value 1. The orphan re-flow resolves "which MVs match
    /// this block" with one OR per cared position instead of a scan over
    /// the covering order.
    mv_ones: Vec<u64>,
    /// Same layout: MVs specifying `p` with logic value 0.
    mv_zeros: Vec<u64>,
    /// Number of blocks owned by no MV (`> 0` ⇔ covering impossible).
    uncovered: usize,
    /// Total fill bits: `Σ freq[j] · N_U(j)`, kept even while infeasible so
    /// a child that restores feasibility prices from it.
    fill_bits: u64,
    /// Scan-in transition count of the held genome (the power objective;
    /// see [`crate::EvalScratch::last_scan_transitions`] for the model).
    /// Kept — like `fill_bits` — even while infeasible; uncovered blocks
    /// contribute zero.
    scan_transitions: u64,
    /// Sorted nonzero-frequency leaf queue for Huffman delta re-pricing.
    huffman: HuffmanDeltaState,
    /// The held genome's encoded size (`None` ⇔ covering impossible).
    total: Option<u64>,
}

/// Per-call working memory of the incremental engine: mismatch planes, the
/// frequency-delta list, the multi-chunk working copy of the covering, and
/// the Huffman patch queue. Contents carry no meaning between calls, except
/// the side-channel objectives of the last priced child.
///
/// Threads pricing against a **shared** parent cache own one each. Buffers
/// grow to the largest shape seen and are reused, so steady-state probes
/// allocate nothing.
#[derive(Debug, Clone, Default)]
pub struct PatchScratch {
    /// Mismatch bitset of the edited MV (single-chunk path).
    mismatch: Vec<u64>,
    /// Changed chunks of the current edit: `(chunk, new spec, new value)`,
    /// ascending chunk order.
    edited: Vec<(u32, u64, u64)>,
    /// `(spec, value)` planes of the changed chunks, for the batched
    /// conflict-plane query.
    planes: Vec<(u64, u64)>,
    /// Per-chunk mismatch planes of the multi-chunk path, `words` words per
    /// changed chunk.
    multi_mismatch: Vec<u64>,
    /// Steal set of the current chunk (blocks moving to the edited MV).
    steal: Vec<u64>,
    /// Union buffer for the later-owners mask of the steal set.
    union_buf: Vec<u64>,
    /// Pre-steal snapshot of the edited MV's owned bits (the orphan
    /// re-flow candidates of the multi-chunk path).
    own_snap: Vec<u64>,
    /// `(MV, frequency delta)` of a single-chunk evaluation.
    deltas: Vec<(u32, i64)>,
    /// `(old, new)` frequency changes handed to the Huffman delta.
    changes: Vec<(u64, u64)>,
    /// Patched leaf queue produced by the Huffman delta.
    huff_scratch: HuffmanDeltaState,
    /// Multi-chunk working copies of the covering state.
    w_spec: Vec<u64>,
    w_value: Vec<u64>,
    w_nu: Vec<u32>,
    w_order: Vec<u32>,
    w_freq: Vec<u64>,
    w_owner: Vec<u32>,
    w_owned: Vec<u64>,
    w_unowned: Vec<u64>,
    w_mv_ones: Vec<u64>,
    w_mv_zeros: Vec<u64>,
    /// Conflict mask over MVs of the orphan being re-flowed (`ceil(L/64)`
    /// words).
    mvmask: Vec<u64>,
    /// `(MV, original frequency)` — first-touch log of the multi-chunk
    /// path, netting per-MV frequency changes across chunks into the single
    /// accumulated Huffman delta.
    touched: Vec<(u32, u64)>,
    /// Epoch stamp per MV: `touch_epoch[j] == epoch` ⇔ MV `j` is already in
    /// `touched` this evaluation — an `O(1)` first-touch test.
    touch_epoch: Vec<u64>,
    /// Current evaluation's epoch (monotone; never reset).
    epoch: u64,
    /// Transition count of the child priced by the last call (see
    /// [`PatchScratch::last_scan_transitions`]).
    last_transitions: u64,
    /// Used-MV count of the child priced by the last call.
    last_used: usize,
}

impl PatchScratch {
    /// Creates empty scratch buffers; they size themselves on first use.
    pub fn new() -> Self {
        PatchScratch::default()
    }

    /// Scan-in transition count of the child priced by the last call that
    /// answered [`IncrementalOutcome::Size`] through this scratch — the same
    /// model as [`crate::EvalScratch::last_scan_transitions`], bit-identical
    /// to what the full kernel reports for the same genome. Meaningless
    /// after a [`IncrementalOutcome::NeedsFull`] answer.
    #[inline]
    pub fn last_scan_transitions(&self) -> u64 {
        self.last_transitions
    }

    /// Number of MVs with nonzero frequency in the child priced by the last
    /// [`IncrementalOutcome::Size`] answer through this scratch — the
    /// used-symbol count that sizes the decoder.
    #[inline]
    pub fn last_used_mvs(&self) -> usize {
        self.last_used
    }
}

impl EvalCache {
    /// Creates a cold cache; buffers size themselves on first rebuild.
    pub fn new() -> Self {
        EvalCache::default()
    }

    /// Returns `true` if the cache holds a complete evaluation.
    pub fn is_warm(&self) -> bool {
        self.warm
    }

    /// The held genome's encoded size (`None` ⇔ covering impossible).
    ///
    /// # Panics
    ///
    /// Panics if the cache is cold.
    pub fn encoded_size(&self) -> Option<u64> {
        assert!(self.warm, "cache is cold");
        self.total
    }

    /// The held genome's scan-in transition count (the power objective; see
    /// [`crate::EvalScratch::last_scan_transitions`] for the model). Only
    /// meaningful while [`EvalCache::encoded_size`] is `Some`.
    ///
    /// # Panics
    ///
    /// Panics if the cache is cold.
    pub fn scan_transitions(&self) -> u64 {
        assert!(self.warm, "cache is cold");
        self.scan_transitions
    }

    /// Number of MVs with nonzero frequency in the held genome — the
    /// used-symbol count that sizes the decoder's MV table and FSM.
    ///
    /// # Panics
    ///
    /// Panics if the cache is cold.
    pub fn used_mvs(&self) -> usize {
        assert!(self.warm, "cache is cold");
        self.huffman.leaves().len()
    }
}

/// Outcome of [`encoded_size_incremental`] / [`encoded_size_probe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncrementalOutcome {
    /// The child was priced against the cache: its encoded size in bits,
    /// `None` if its covering is impossible — exactly what
    /// [`crate::encoded_size_scratch`] returns for the same genome.
    Size(Option<u64>),
    /// The edit cannot be applied incrementally (cold cache, a cache
    /// rebuilt against another histogram or shape, or — [`encoded_size_probe`]
    /// only — a patch estimated costlier than a full rescan); run the full
    /// kernel instead.
    NeedsFull,
}

/// Decodes one `K`-trit chunk into packed `(spec, value)` planes — the same
/// branchless mapping the scratch kernel uses.
#[inline]
fn decode_chunk(chunk: &[Trit]) -> (u64, u64) {
    let mut spec = 0u64;
    let mut value = 0u64;
    for (j, &t) in chunk.iter().enumerate() {
        let idx = t.index() as u64;
        value |= (idx & 1) << j;
        spec |= ((idx >> 1) ^ 1) << j;
    }
    (spec, value)
}

/// Fully evaluates `genes` and fills `cache` with its covering state.
///
/// Returns the encoded size, **bit-identical** to
/// [`crate::encoded_size_scratch`] over the same inputs (`None` ⇔ covering
/// impossible; the cache stays warm either way, so a child that restores
/// feasibility still prices against it).
///
/// # Panics
///
/// Panics if `genes` is empty or not a multiple of the block length
/// (mirroring the full kernel).
pub fn encoded_size_rebuild(
    sliced: &SlicedHistogram,
    genes: &[Trit],
    force_all_u: bool,
    cache: &mut EvalCache,
) -> Option<u64> {
    let k = sliced.block_len();
    assert!(
        !genes.is_empty() && genes.len() % k == 0,
        "genome length {} is not a positive multiple of K={k}",
        genes.len()
    );
    let l = genes.len() / k;
    let words = sliced.words_per_column();
    let n = sliced.num_distinct();
    let state = cache;

    state.warm = false;
    state.shape = (k, l, n, words, force_all_u);
    state.histogram = sliced.content_id();
    state.genes.clear();
    state.genes.extend_from_slice(genes);
    state.spec.clear();
    state.value.clear();
    state.nu.clear();
    for chunk in genes.chunks_exact(k) {
        let (spec, value) = decode_chunk(chunk);
        state.spec.push(spec);
        state.value.push(value);
    }
    if force_all_u {
        state.spec[l - 1] = 0;
        state.value[l - 1] = 0;
    }
    state.nu.extend(
        state
            .spec
            .iter()
            .map(|s| (k - s.count_ones() as usize) as u32),
    );
    let wl = l.div_ceil(64);
    state.mv_ones.clear();
    state.mv_ones.resize(k * wl, 0);
    state.mv_zeros.clear();
    state.mv_zeros.resize(k * wl, 0);
    for j in 0..l {
        let (jw, jbit) = (j / 64, 1u64 << (j % 64));
        let mut remaining = state.spec[j];
        while remaining != 0 {
            let p = remaining.trailing_zeros() as usize;
            remaining &= remaining - 1;
            if (state.value[j] >> p) & 1 == 1 {
                state.mv_ones[p * wl + jw] |= jbit;
            } else {
                state.mv_zeros[p * wl + jw] |= jbit;
            }
        }
    }

    // Covering order: the one canonical key. Keys are unique (index
    // tie-break), so the unstable sort is deterministic.
    state.order.clear();
    state.order.extend(0..l as u32);
    let nu = &state.nu;
    state
        .order
        .sort_unstable_by_key(|&j| covering_key(nu[j as usize] as usize, j as usize));

    // First-match covering scan over the bit planes, recording the owner of
    // every distinct block — as a per-block table *and* as per-MV bitsets
    // (the scratch kernel only needs frequencies; the incremental path
    // needs to know whose blocks an edit can move, in both directions).
    state.freq.clear();
    state.freq.resize(l, 0);
    state.owner.clear();
    state.owner.resize(n, NO_MV);
    state.owned.clear();
    state.owned.resize(l * words, 0);
    state.unowned.clear();
    state.unowned.resize(words, 0);
    for (w, slot) in state.unowned.iter_mut().enumerate() {
        *slot = if w == words - 1 {
            sliced.last_word_mask()
        } else {
            u64::MAX
        };
    }
    let mut mismatch = vec![0u64; words];
    let counts = sliced.counts();
    let mut blocks_left = n;
    let mut fill_bits = 0u64;
    let mut transitions = 0u64;
    for &j in &state.order {
        if blocks_left == 0 {
            break; // every block owned; the rest keep frequency 0
        }
        let j = j as usize;
        mismatch.iter_mut().for_each(|w| *w = 0);
        sliced.accumulate_mismatch(state.spec[j], state.value[j], &mut mismatch);
        let mut freq = 0u64;
        for (w, &mis) in mismatch.iter().enumerate() {
            let taken = state.unowned[w] & !mis;
            if taken == 0 {
                continue;
            }
            state.unowned[w] &= mis;
            state.owned[j * words + w] |= taken;
            let mut bits = taken;
            while bits != 0 {
                let d = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                state.owner[d] = j as u32;
                freq += counts[d];
                blocks_left -= 1;
                let (_, bv) = sliced.block_planes(d);
                transitions += counts[d] * block_transitions(state.value[j] | bv, k);
            }
        }
        state.freq[j] = freq;
        fill_bits += freq * state.nu[j] as u64;
    }
    state.uncovered = blocks_left;
    state.fill_bits = fill_bits;
    state.scan_transitions = transitions;
    state.huffman.reset(&state.freq);
    state.total = if blocks_left == 0 {
        Some(fill_bits + state.huffman.weighted_length())
    } else {
        None
    };
    state.warm = true;
    state.total
}

/// Prices `genes` — a copy of the cached genome except inside `edit` — by
/// patching a working copy of the cache's covering instead of rescanning
/// it. The cache is only read, so any number of children can be priced
/// against one parent; the per-call working memory lives in `scratch`,
/// which afterwards also holds the child's side-channel objectives
/// ([`PatchScratch::last_scan_transitions`], [`PatchScratch::last_used_mvs`]).
///
/// The contract on `edit` is the engine's lineage contract (see
/// `evotc_evo::Lineage`): every position **outside** the range equals the
/// cached genome's gene; positions inside may or may not differ. An empty
/// range means an exact copy. Any window is priceable — a point mutation, a
/// multi-chunk inversion window, or the whole genome (`0..genes.len()`,
/// used when the only cached parent is a crossover child's window-content
/// donor); the cost is proportional to the number of MV chunks whose
/// planes actually changed.
///
/// Returns [`IncrementalOutcome::NeedsFull`] when the edit is not
/// incrementally priceable: cold cache, a cache rebuilt against a
/// different histogram ([`SlicedHistogram::content_id`]), or mismatched
/// shape (block length, genome length, distinct-block count and word width,
/// `force_all_u`). Otherwise the returned size is **bit-identical** to
/// [`crate::encoded_size_scratch`] over `genes`.
///
/// Unlike [`encoded_size_probe`], this price is not cost-gated: every
/// multi-chunk window takes the patch path, however expensive. The EA uses
/// the gated probe; this is the reference that reaches every window.
pub fn encoded_size_incremental(
    sliced: &SlicedHistogram,
    genes: &[Trit],
    force_all_u: bool,
    edit: &Range<usize>,
    cache: &EvalCache,
    scratch: &mut PatchScratch,
) -> IncrementalOutcome {
    price(sliced, genes, force_all_u, edit, cache, scratch, None)
}

/// Cost-gated form of [`encoded_size_incremental`], and the one the EA
/// runs: any number of worker threads can probe the same `&EvalCache`
/// concurrently, each with its own scratch (see [`crate::MvFitness`]).
///
/// The multi-chunk path is **cost-gated**: when the estimated
/// ownership-patch work exceeds the estimated cost of a full rescan, the
/// probe answers [`IncrementalOutcome::NeedsFull`] up front instead of
/// paying patch overhead for no savings. The estimate comes from the
/// parent's owned-bitset popcounts: patching a chunk re-flows every block
/// the edited MV owned, and each orphan costs a mask OR over `K` MV-major
/// columns plus matcher key evaluations — for an inversion-scrambled parent
/// whose edited MVs own a large share of the blocks, that approaches (or
/// exceeds) the `L·(K+2)·words` word-ops of the full kernel. Empty and
/// single-chunk edits are never gated. Whenever the probe answers `Size`,
/// the result is bit-identical to [`encoded_size_incremental`] over the
/// same inputs (it runs the identical patch).
///
/// # Example
///
/// ```
/// use evotc_bits::{BlockHistogram, SlicedHistogram, TestSet, TestSetString, Trit};
/// use evotc_core::{
///     encoded_size_probe, encoded_size_rebuild, encoded_size_scratch, EvalCache, EvalScratch,
///     IncrementalOutcome, PatchScratch,
/// };
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let set = TestSet::parse(&["110100XX", "110000XX", "11010000"])?;
/// let hist = BlockHistogram::from_string(&TestSetString::new(&set, 4));
/// let sliced = SlicedHistogram::from_histogram(&hist);
/// let parent: Vec<Trit> = evotc_bits::parse_trits("110U0000UUUU")?;
/// let mut cache = EvalCache::new();
/// encoded_size_rebuild(&sliced, &parent, false, &mut cache);
///
/// // A one-chunk mutation, probed via `&EvalCache`: never gated.
/// let mut child = parent.clone();
/// child[5] = Trit::One;
/// let mut scratch = PatchScratch::new();
/// let probe = encoded_size_probe(&sliced, &child, false, &(5..6), &cache, &mut scratch);
/// let full = encoded_size_scratch(&sliced, &child, false, &mut EvalScratch::new());
/// assert_eq!(probe, IncrementalOutcome::Size(full));
///
/// // An inversion spanning two chunks may be gated: fall back to the kernel.
/// let mut child = parent.clone();
/// child[2..7].reverse();
/// let full = encoded_size_scratch(&sliced, &child, false, &mut EvalScratch::new());
/// match encoded_size_probe(&sliced, &child, false, &(2..7), &cache, &mut scratch) {
///     IncrementalOutcome::Size(size) => assert_eq!(size, full),
///     IncrementalOutcome::NeedsFull => {}
/// }
/// # Ok(())
/// # }
/// ```
pub fn encoded_size_probe(
    sliced: &SlicedHistogram,
    genes: &[Trit],
    force_all_u: bool,
    edit: &Range<usize>,
    cache: &EvalCache,
    scratch: &mut PatchScratch,
) -> IncrementalOutcome {
    let budget = Some(full_rescan_cost(cache));
    price(sliced, genes, force_all_u, edit, cache, scratch, budget)
}

/// The body of both pricing entry points: [`plan`], then the single- or
/// multi-chunk patch.
fn price(
    sliced: &SlicedHistogram,
    genes: &[Trit],
    force_all_u: bool,
    edit: &Range<usize>,
    cache: &EvalCache,
    scratch: &mut PatchScratch,
    budget: Option<u64>,
) -> IncrementalOutcome {
    let total = match plan(sliced, genes, force_all_u, edit, cache, scratch, budget) {
        Plan::NeedsFull => return IncrementalOutcome::NeedsFull,
        Plan::Unchanged => cache.total,
        Plan::Patch => match scratch.edited[..] {
            [(i, nspec, nvalue)] => probe_single(sliced, cache, scratch, i as usize, nspec, nvalue),
            _ => probe_multi(sliced, cache, scratch),
        },
    };
    IncrementalOutcome::Size(total)
}

/// What the shared preamble of both pricing entry points decided.
enum Plan {
    /// Not incrementally priceable: cold cache, another histogram or shape,
    /// or a multi-chunk patch estimated costlier than the budget.
    NeedsFull,
    /// No chunk's planes changed: the child prices as the cached parent
    /// (whose side-channel objectives are already in the scratch).
    Unchanged,
    /// `scratch.edited` holds the changed chunks (at least one).
    Patch,
}

/// The one preamble of [`encoded_size_incremental`] and
/// [`encoded_size_probe`]: the validity gate (warm cache, the histogram it
/// was rebuilt against, block length, genome length, distinct-block count
/// and word width, `force_all_u`, edit bounds), the lineage contract check,
/// and the chunk detection — the chunks the edit window overlaps are
/// decoded and those whose planes actually changed recorded into
/// `scratch.edited` (ascending chunk order). `force_all_u` pins the last
/// chunk to all-`U` regardless of its genes, so edits there are inert.
///
/// With a `budget` (in [`full_rescan_cost`] units), the patch-cost estimate
/// accumulates as changed chunks are found, and the walk stops the moment a
/// multi-chunk patch is already estimated costlier than the budget — the
/// rest of the window (for an inversion child, possibly dozens of chunks)
/// never gets decoded just to confirm a foregone answer.
fn plan(
    sliced: &SlicedHistogram,
    genes: &[Trit],
    force_all_u: bool,
    edit: &Range<usize>,
    state: &EvalCache,
    scratch: &mut PatchScratch,
    budget: Option<u64>,
) -> Plan {
    let k = sliced.block_len();
    let shapes_match = state.warm
        && state.histogram == sliced.content_id()
        && !genes.is_empty()
        && genes.len() % k == 0
        && state.shape
            == (
                k,
                genes.len() / k.max(1),
                sliced.num_distinct(),
                sliced.words_per_column(),
                force_all_u,
            )
        && edit.end <= genes.len()
        && edit.start <= edit.end;
    if !shapes_match {
        return Plan::NeedsFull;
    }
    debug_assert!(genome_matches_cache_outside(state, genes, k, edit));
    scratch.edited.clear();
    if edit.start < edit.end {
        let l = genes.len() / k;
        let mut cost = patch_copy_cost(state);
        for i in edit.start / k..=(edit.end - 1) / k {
            if trits_equal(&genes[i * k..(i + 1) * k], &state.genes[i * k..(i + 1) * k]) {
                continue; // identical trits decode to identical planes
            }
            let (spec, value) = if force_all_u && i == l - 1 {
                (0, 0)
            } else {
                decode_chunk(&genes[i * k..(i + 1) * k])
            };
            if (spec, value) == (state.spec[i], state.value[i]) {
                continue;
            }
            scratch.edited.push((i as u32, spec, value));
            if let Some(bound) = budget {
                cost += chunk_patch_cost(state, i);
                if scratch.edited.len() >= 2 && cost > bound {
                    return Plan::NeedsFull;
                }
            }
        }
    }
    if scratch.edited.is_empty() {
        scratch.last_transitions = state.scan_transitions;
        scratch.last_used = state.huffman.leaves().len();
        Plan::Unchanged
    } else {
        Plan::Patch
    }
}

/// Estimated cost of the full kernel over the cached shape: every MV
/// filters every block column, `L · (K + 2) · words` word operations. The
/// unit calibrates the patch-cost estimates below: one full-kernel word op.
fn full_rescan_cost(state: &EvalCache) -> u64 {
    let (k, l, _, words, _) = state.shape;
    (l * (k + 2) * words) as u64
}

/// Estimated cost of the working-copy memcpys a multi-chunk patch pays
/// once per probe, in [`full_rescan_cost`] units.
fn patch_copy_cost(state: &EvalCache) -> u64 {
    let (k, l, _, words, _) = state.shape;
    let wl = l.div_ceil(64);
    (l * words + 2 * k * wl + 5 * l + words) as u64
}

/// Estimated cost of patching one changed chunk, in [`full_rescan_cost`]
/// units: the mismatch/steal plane work plus — the dominant term — one
/// orphan re-flow per block the edited MV currently owns. Each orphan costs
/// a mask OR over `K` MV-major columns, matcher key evaluations, and a
/// rank lookup; measured against the bit-sliced full kernel's word ops that
/// comes to roughly `8 · (K · ceil(L/64) + 8)` units per orphan (the probe
/// runs ~0.8 µs per changed chunk on the paper shape where the full rescan
/// runs ~4.4 µs, so the break-even sits near four changed chunks).
fn chunk_patch_cost(state: &EvalCache, chunk: usize) -> u64 {
    let (k, l, _, words, _) = state.shape;
    let wl = l.div_ceil(64);
    let per_orphan = 8 * (k * wl + 8) as u64;
    let owned: u64 = state.owned[chunk * words..(chunk + 1) * words]
        .iter()
        .map(|w| w.count_ones() as u64)
        .sum();
    ((k + 4) * words) as u64 + owned * per_orphan
}

/// Branchless trit-slice equality (an OR-reduction of index XORs — the
/// chunk either matches fully or detection decodes it anyway, so the early
/// exit of the derived slice compare buys nothing here).
#[inline]
fn trits_equal(a: &[Trit], b: &[Trit]) -> bool {
    a.iter()
        .zip(b)
        .fold(0u8, |diff, (x, y)| diff | (x.index() ^ y.index()))
        == 0
}

/// Rank of the MV whose (unique) covering key is `key` in the key-sorted
/// `order` — a binary search instead of a linear position scan.
#[inline]
fn rank_of(order: &[u32], nu: &[u32], key: u64) -> usize {
    order.partition_point(|&j| covering_key(nu[j as usize] as usize, j as usize) < key)
}

/// Picks the new owner of an orphaned block of the edited MV `i`: the
/// minimum-covering-key MV (other than `i`) whose planes match the block,
/// competing against `i` at `new_key` when the edited MV's new planes still
/// match. The matching set comes from one OR over the MV-major planes per
/// cared block position — no covering-order scan; MVs ranked before `i`'s
/// old position never match an orphan (that is what made `i` the owner), so
/// the min-key pick over the few matchers *is* first-match covering.
#[allow(clippy::too_many_arguments)]
fn reflow_owner(
    bcare: u64,
    bvalue: u64,
    mv_ones: &[u64],
    mv_zeros: &[u64],
    wl: usize,
    l: usize,
    nu: &[u32],
    i: usize,
    new_key: u64,
    still_matched: bool,
    mvmask: &mut Vec<u64>,
) -> u32 {
    mvmask.clear();
    mvmask.resize(wl, 0);
    let mut remaining = bcare;
    while remaining != 0 {
        let p = remaining.trailing_zeros() as usize;
        remaining &= remaining - 1;
        // MVs conflicting at p: those specifying the opposite value.
        let col = if (bvalue >> p) & 1 == 1 {
            &mv_zeros[p * wl..(p + 1) * wl]
        } else {
            &mv_ones[p * wl..(p + 1) * wl]
        };
        for (m, &c) in mvmask.iter_mut().zip(col) {
            *m |= c;
        }
    }
    let (mut best, mut best_key) = if still_matched {
        (i as u32, new_key)
    } else {
        (NO_MV, u64::MAX)
    };
    for (w, &m) in mvmask.iter().enumerate() {
        let rem = l - w * 64;
        let valid = if rem >= 64 {
            u64::MAX
        } else {
            (1u64 << rem) - 1
        };
        let mut bits = !m & valid;
        if w == i / 64 {
            bits &= !(1u64 << (i % 64));
        }
        while bits != 0 {
            let j = w * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let key = covering_key(nu[j] as usize, j);
            if key < best_key {
                best_key = key;
                best = j as u32;
            }
        }
    }
    best
}

/// Updates the MV-major planes for MV `i` switching from `(old_spec,
/// old_value)` to `(new_spec, new_value)` — `O(K)` word updates.
#[allow(clippy::too_many_arguments)]
fn update_mv_columns(
    mv_ones: &mut [u64],
    mv_zeros: &mut [u64],
    wl: usize,
    i: usize,
    old_spec: u64,
    old_value: u64,
    new_spec: u64,
    new_value: u64,
) {
    let (jw, jbit) = (i / 64, 1u64 << (i % 64));
    let mut remaining = old_spec;
    while remaining != 0 {
        let p = remaining.trailing_zeros() as usize;
        remaining &= remaining - 1;
        if (old_value >> p) & 1 == 1 {
            mv_ones[p * wl + jw] &= !jbit;
        } else {
            mv_zeros[p * wl + jw] &= !jbit;
        }
    }
    let mut remaining = new_spec;
    while remaining != 0 {
        let p = remaining.trailing_zeros() as usize;
        remaining &= remaining - 1;
        if (new_value >> p) & 1 == 1 {
            mv_ones[p * wl + jw] |= jbit;
        } else {
            mv_zeros[p * wl + jw] |= jbit;
        }
    }
}

/// Computes the steal set of an edited MV into `steal`: the blocks its new
/// planes match (`mismatch` is the new planes' conflict set) that are
/// currently owned by an MV ranked *after* `new_key`, or by none. Pure
/// bitset algebra — the match set is masked by the owned bits of the
/// earlier-ranked MVs, walking whichever side of the covering order is
/// shorter; the edited MV's own blocks are excluded (the orphan re-flow
/// decides those).
#[allow(clippy::too_many_arguments)]
fn steal_candidates(
    sliced: &SlicedHistogram,
    order: &[u32],
    nu: &[u32],
    owned: &[u64],
    unowned: &[u64],
    i: usize,
    new_key: u64,
    mismatch: &[u64],
    steal: &mut Vec<u64>,
    union_buf: &mut Vec<u64>,
) {
    let words = sliced.words_per_column();
    steal.clear();
    steal.extend(mismatch.iter().enumerate().map(|(w, &mis)| {
        let valid = if w == words - 1 {
            sliced.last_word_mask()
        } else {
            u64::MAX
        };
        !mis & valid
    }));
    let pos = rank_of(order, nu, new_key);
    if pos <= order.len() / 2 {
        // Few earlier MVs: mask their owned blocks out directly.
        for &j in &order[..pos] {
            let j = j as usize;
            for (s, &o) in steal.iter_mut().zip(&owned[j * words..(j + 1) * words]) {
                *s &= !o;
            }
        }
    } else {
        // Few later MVs: keep only their blocks, plus the unowned ones.
        union_buf.clear();
        union_buf.extend_from_slice(unowned);
        for &j in &order[pos..] {
            let j = j as usize;
            for (u, &o) in union_buf.iter_mut().zip(&owned[j * words..(j + 1) * words]) {
                *u |= o;
            }
        }
        for (s, &u) in steal.iter_mut().zip(union_buf.iter()) {
            *s &= u;
        }
    }
    // The edited MV's current blocks are the re-flow's business either way
    // (it sits on one of the two sides above under its *old* key; this
    // final mask is what takes its blocks out regardless of which).
    for (s, &o) in steal.iter_mut().zip(&owned[i * words..(i + 1) * words]) {
        *s &= !o;
    }
}

/// Prices a single changed chunk against the cache without writing to it:
/// the steal set, orphan re-flow and Huffman delta are accumulated as
/// frequency deltas in the scratch. Kept next to [`probe_multi`] as the
/// fast path because it avoids the working-copy memcpys of the multi-chunk
/// path.
fn probe_single(
    sliced: &SlicedHistogram,
    state: &EvalCache,
    scratch: &mut PatchScratch,
    i: usize,
    nspec: u64,
    nvalue: u64,
) -> Option<u64> {
    let k = sliced.block_len();
    let words = sliced.words_per_column();
    let counts = sliced.counts();

    let nnu = (k - nspec.count_ones() as usize) as u32;
    let old_key = covering_key(state.nu[i] as usize, i);
    let new_key = covering_key(nnu as usize, i);

    // New match set of the edited MV: one pass over the conflict planes.
    scratch.mismatch.clear();
    scratch.mismatch.resize(words, 0);
    sliced.accumulate_mismatch(nspec, nvalue, &mut scratch.mismatch);

    scratch.deltas.clear();
    let mut uncovered = state.uncovered;
    // Transition deltas ride along with the ownership moves: every block
    // that changes owner (or stays with an owner whose value plane changed)
    // re-prices its decoded word. Signed accumulator: intermediate sums can
    // dip below the final value.
    let mut trans = state.scan_transitions as i64;
    let value_changed = nvalue != state.value[i];

    // Phase 1 — steal: blocks the new MV matches whose owner comes *after*
    // its new covering rank (or that no MV owns) move to i (first-match
    // covering). Blocks owned earlier are untouchable by construction:
    // their owners did not change. The steal set is bitset algebra over the
    // per-MV owned planes; only actual steals are visited.
    steal_candidates(
        sliced,
        &state.order,
        &state.nu,
        &state.owned,
        &state.unowned,
        i,
        new_key,
        &scratch.mismatch,
        &mut scratch.steal,
        &mut scratch.union_buf,
    );
    for (w, &st) in scratch.steal.iter().enumerate() {
        let mut bits = st;
        while bits != 0 {
            let d = w * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let a = state.owner[d];
            add_delta(&mut scratch.deltas, i as u32, counts[d] as i64);
            let (_, bv) = sliced.block_planes(d);
            trans += (counts[d] * block_transitions(nvalue | bv, k)) as i64;
            if a == NO_MV {
                uncovered -= 1;
            } else {
                add_delta(&mut scratch.deltas, a, -(counts[d] as i64));
                trans -= (counts[d] * block_transitions(state.value[a as usize] | bv, k)) as i64;
            }
        }
    }

    // Phase 2 — re-flow every block the old MV owned (its owned bitset,
    // directly): the new owner is the first MV in the *new* covering order
    // that matches it. MVs before the old rank are unchanged and already
    // failed to match (that is what made i the owner), so the scan covers
    // only the MVs after the old rank, with the edited MV woven in at its
    // new key. The old rank and the weave point are binary searches in the
    // key-sorted order, done once per edit, not once per block — and a
    // block that still matches with no MV ranked in between stays put with
    // no scan at all.
    if state.freq[i] > 0 {
        let l = state.shape.1;
        let wl = l.div_ceil(64);
        // O(1) stay test: every competing matcher has a key above the old
        // rank's successor (MVs before the old rank never match an orphan),
        // so when the new key still precedes that successor, a block the
        // new planes match cannot move.
        let old_rank = rank_of(&state.order, &state.nu, old_key);
        debug_assert_eq!(state.order[old_rank] as usize, i);
        let stays_fast = match state.order.get(old_rank + 1) {
            Some(&j) => new_key < covering_key(state.nu[j as usize] as usize, j as usize),
            None => true,
        };
        for (w, &ow) in state.owned[i * words..(i + 1) * words].iter().enumerate() {
            let mut cand = ow;
            while cand != 0 {
                let d = w * 64 + cand.trailing_zeros() as usize;
                cand &= cand - 1;
                let still_matched = (scratch.mismatch[w] >> (d % 64)) & 1 == 0;
                // A block staying with `i` still re-prices its transitions
                // when the edit changed `i`'s value plane — its decoded
                // word changed even though ownership did not.
                let stay_delta = |bvalue: u64| {
                    (counts[d] * block_transitions(nvalue | bvalue, k)) as i64
                        - (counts[d] * block_transitions(state.value[i] | bvalue, k)) as i64
                };
                if still_matched && stays_fast {
                    if value_changed {
                        let (_, bv) = sliced.block_planes(d);
                        trans += stay_delta(bv);
                    }
                    continue; // no competitor can rank before i's new key
                }
                let (bcare, bvalue) = sliced.block_planes(d);
                let new_owner = reflow_owner(
                    bcare,
                    bvalue,
                    &state.mv_ones,
                    &state.mv_zeros,
                    wl,
                    l,
                    &state.nu,
                    i,
                    new_key,
                    still_matched,
                    &mut scratch.mvmask,
                );
                if new_owner == i as u32 {
                    if value_changed {
                        trans += stay_delta(bvalue);
                    }
                    continue; // stays put
                }
                add_delta(&mut scratch.deltas, i as u32, -(counts[d] as i64));
                trans -= (counts[d] * block_transitions(state.value[i] | bvalue, k)) as i64;
                if new_owner == NO_MV {
                    uncovered += 1;
                } else {
                    add_delta(&mut scratch.deltas, new_owner, counts[d] as i64);
                    trans += (counts[d]
                        * block_transitions(state.value[new_owner as usize] | bvalue, k))
                        as i64;
                }
            }
        }
    }

    // Re-price: fill bits and Huffman cost from the frequency deltas.
    // fill' − fill = Σ_j Δ_j·N_U'(j) + freq(i)·(N_U'(i) − N_U(i)).
    let mut fill = state.fill_bits as i64;
    fill += state.freq[i] as i64 * (nnu as i64 - state.nu[i] as i64);
    scratch.changes.clear();
    for &(j, delta) in &scratch.deltas {
        if delta == 0 {
            continue;
        }
        let j = j as usize;
        let old = state.freq[j];
        let new = (old as i64 + delta) as u64;
        let nu_after = if j == i { nnu } else { state.nu[j] };
        fill += delta * nu_after as i64;
        scratch.changes.push((old, new));
    }
    let huffman_bits =
        huffman_weighted_length_delta(&state.huffman, &scratch.changes, &mut scratch.huff_scratch);
    let total = if uncovered == 0 {
        Some(fill as u64 + huffman_bits)
    } else {
        None
    };
    scratch.last_transitions = trans as u64;
    scratch.last_used = scratch.huff_scratch.leaves().len();
    total
}

/// Prices a multi-chunk edit (`scratch.edited`, two or more entries)
/// against the state without writing to it: copies the covering into the
/// scratch's working buffers, applies the single-MV ownership patch once
/// per changed chunk — each intermediate working state is the consistent
/// covering of an intermediate genome, so the per-chunk invariants hold —
/// and re-prices the Huffman cost through one netted frequency delta.
fn probe_multi(
    sliced: &SlicedHistogram,
    state: &EvalCache,
    scratch: &mut PatchScratch,
) -> Option<u64> {
    let k = sliced.block_len();
    let words = sliced.words_per_column();
    let counts = sliced.counts();
    let PatchScratch {
        edited,
        planes,
        multi_mismatch,
        steal,
        union_buf,
        own_snap,
        changes,
        huff_scratch,
        w_spec,
        w_value,
        w_nu,
        w_order,
        w_freq,
        w_owner,
        w_owned,
        w_unowned,
        w_mv_ones,
        w_mv_zeros,
        mvmask,
        touched,
        touch_epoch,
        epoch,
        last_transitions,
        last_used,
        ..
    } = scratch;

    // Working copy of the covering: a handful of memcpys, paid once per
    // child instead of a full rescan.
    w_spec.clear();
    w_spec.extend_from_slice(&state.spec);
    w_value.clear();
    w_value.extend_from_slice(&state.value);
    w_nu.clear();
    w_nu.extend_from_slice(&state.nu);
    w_order.clear();
    w_order.extend_from_slice(&state.order);
    w_freq.clear();
    w_freq.extend_from_slice(&state.freq);
    w_owner.clear();
    w_owner.extend_from_slice(&state.owner);
    w_owned.clear();
    w_owned.extend_from_slice(&state.owned);
    w_unowned.clear();
    w_unowned.extend_from_slice(&state.unowned);
    w_mv_ones.clear();
    w_mv_ones.extend_from_slice(&state.mv_ones);
    w_mv_zeros.clear();
    w_mv_zeros.extend_from_slice(&state.mv_zeros);
    touched.clear();
    if touch_epoch.len() != state.freq.len() {
        touch_epoch.clear();
        touch_epoch.resize(state.freq.len(), 0);
    }
    *epoch += 1;
    let epoch = *epoch;

    // All changed chunks' match sets in one batched conflict-plane pass.
    planes.clear();
    planes.extend(edited.iter().map(|&(_, spec, value)| (spec, value)));
    multi_mismatch.clear();
    multi_mismatch.resize(planes.len() * words, 0);
    sliced.accumulate_mismatch_batch(planes, multi_mismatch);

    let l = state.shape.1;
    let wl = l.div_ceil(64);
    let mut fill = state.fill_bits as i64;
    let mut trans = state.scan_transitions as i64;
    let mut uncovered = state.uncovered;

    for (t, &(ci, nspec, nvalue)) in edited.iter().enumerate() {
        let i = ci as usize;
        let mismatch = &multi_mismatch[t * words..(t + 1) * words];
        let nnu = (k - nspec.count_ones() as usize) as u32;
        let old_nu = w_nu[i];
        let old_key = covering_key(old_nu as usize, i);
        let new_key = covering_key(nnu as usize, i);
        let freq_before = w_freq[i];
        let value_changed = nvalue != w_value[i];

        // The blocks i already owns are re-priced at the new N_U up front;
        // every later freq change against i then uses nnu.
        fill += freq_before as i64 * (nnu as i64 - old_nu as i64);

        // The orphan re-flow candidates are i's owned bits *before* the
        // steal pass adds to them (a just-stolen block provably stays: its
        // former owner's key exceeded `new_key`, so no MV before the weave
        // point matches it).
        own_snap.clear();
        own_snap.extend_from_slice(&w_owned[i * words..(i + 1) * words]);

        // Phase 1 — steal (eager: ownership and frequencies are applied to
        // the working copy immediately, with first-touch originals logged
        // for the netted Huffman delta).
        steal_candidates(
            sliced, w_order, w_nu, w_owned, w_unowned, i, new_key, mismatch, steal, union_buf,
        );
        for (w, &st) in steal.iter().enumerate() {
            let mut bits = st;
            while bits != 0 {
                let d = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let bit = 1u64 << (d % 64);
                let a = w_owner[d];
                touch(touched, touch_epoch, epoch, w_freq, ci);
                w_owner[d] = ci;
                w_owned[i * words + w] |= bit;
                w_freq[i] += counts[d];
                fill += counts[d] as i64 * nnu as i64;
                let (_, bv) = sliced.block_planes(d);
                trans += (counts[d] * block_transitions(nvalue | bv, k)) as i64;
                if a == NO_MV {
                    w_unowned[w] &= !bit;
                    uncovered -= 1;
                } else {
                    touch(touched, touch_epoch, epoch, w_freq, a);
                    w_owned[a as usize * words + w] &= !bit;
                    w_freq[a as usize] -= counts[d];
                    fill -= counts[d] as i64 * w_nu[a as usize] as i64;
                    trans -= (counts[d] * block_transitions(w_value[a as usize] | bv, k)) as i64;
                }
            }
        }

        // Phase 2 — re-flow the blocks i owned before the steal pass; same
        // min-key matcher pick as the single-chunk path, against the
        // working copy's MV-major planes.
        let old_rank = rank_of(w_order, w_nu, old_key);
        debug_assert_eq!(w_order[old_rank] as usize, i);
        if freq_before > 0 {
            // O(1) stay test, as in the single-chunk path.
            let stays_fast = match w_order.get(old_rank + 1) {
                Some(&j) => new_key < covering_key(w_nu[j as usize] as usize, j as usize),
                None => true,
            };
            for (w, &ow) in own_snap.iter().enumerate() {
                let mut cand = ow;
                while cand != 0 {
                    let d = w * 64 + cand.trailing_zeros() as usize;
                    cand &= cand - 1;
                    let still_matched = (mismatch[w] >> (d % 64)) & 1 == 0;
                    // Same stay re-pricing as the single-chunk path, against
                    // the working copy's value planes.
                    let stay_delta = |bvalue: u64| {
                        (counts[d] * block_transitions(nvalue | bvalue, k)) as i64
                            - (counts[d] * block_transitions(w_value[i] | bvalue, k)) as i64
                    };
                    if still_matched && stays_fast {
                        if value_changed {
                            let (_, bv) = sliced.block_planes(d);
                            trans += stay_delta(bv);
                        }
                        continue; // no competitor can rank before i's new key
                    }
                    let (bcare, bvalue) = sliced.block_planes(d);
                    let new_owner = reflow_owner(
                        bcare,
                        bvalue,
                        w_mv_ones,
                        w_mv_zeros,
                        wl,
                        l,
                        w_nu,
                        i,
                        new_key,
                        still_matched,
                        mvmask,
                    );
                    if new_owner == ci {
                        if value_changed {
                            trans += stay_delta(bvalue);
                        }
                        continue; // stays put
                    }
                    let bit = 1u64 << (d % 64);
                    touch(touched, touch_epoch, epoch, w_freq, ci);
                    w_owner[d] = new_owner;
                    w_owned[i * words + w] &= !bit;
                    w_freq[i] -= counts[d];
                    fill -= counts[d] as i64 * nnu as i64;
                    trans -= (counts[d] * block_transitions(w_value[i] | bvalue, k)) as i64;
                    if new_owner == NO_MV {
                        w_unowned[w] |= bit;
                        uncovered += 1;
                    } else {
                        touch(touched, touch_epoch, epoch, w_freq, new_owner);
                        w_owned[new_owner as usize * words + w] |= bit;
                        w_freq[new_owner as usize] += counts[d];
                        fill += counts[d] as i64 * w_nu[new_owner as usize] as i64;
                        trans += (counts[d]
                            * block_transitions(w_value[new_owner as usize] | bvalue, k))
                            as i64;
                    }
                }
            }
        }

        // Commit this chunk's planes and covering rank to the working copy;
        // the next chunk patches against a fully consistent state.
        update_mv_columns(
            w_mv_ones, w_mv_zeros, wl, i, w_spec[i], w_value[i], nspec, nvalue,
        );
        w_spec[i] = nspec;
        w_value[i] = nvalue;
        w_nu[i] = nnu;
        if new_key != old_key {
            w_order.remove(old_rank);
            let nu = &*w_nu;
            let at = w_order
                .partition_point(|&j| covering_key(nu[j as usize] as usize, j as usize) < new_key);
            w_order.insert(at, ci);
        }
    }

    // One netted Huffman delta for the whole window: per-MV changes are
    // first-touch originals vs final working frequencies, so an MV bounced
    // through several chunks contributes one change (or none).
    changes.clear();
    for &(j, orig) in touched.iter() {
        let cur = w_freq[j as usize];
        if orig != cur {
            changes.push((orig, cur));
        }
    }
    let huffman_bits = huffman_weighted_length_delta(&state.huffman, changes, huff_scratch);
    let total = if uncovered == 0 {
        Some(fill as u64 + huffman_bits)
    } else {
        None
    };
    *last_transitions = trans as u64;
    *last_used = huff_scratch.leaves().len();
    total
}

/// Accumulates a frequency delta for one MV (tiny linear-probed list — a
/// single edit touches a handful of MVs).
#[inline]
fn add_delta(deltas: &mut Vec<(u32, i64)>, j: u32, delta: i64) {
    if let Some(entry) = deltas.iter_mut().find(|(jj, _)| *jj == j) {
        entry.1 += delta;
    } else {
        deltas.push((j, delta));
    }
}

/// Records MV `j`'s frequency before its first modification of this
/// evaluation (idempotent — later touches are no-ops, detected in `O(1)`
/// by the per-MV epoch stamp), feeding the netted Huffman delta.
#[inline]
fn touch(touched: &mut Vec<(u32, u64)>, touch_epoch: &mut [u64], epoch: u64, freq: &[u64], j: u32) {
    let slot = &mut touch_epoch[j as usize];
    if *slot != epoch {
        *slot = epoch;
        touched.push((j, freq[j as usize]));
    }
}

/// Debug-build check of the lineage contract: outside the edited chunks the
/// genome must decode to exactly the cached planes. A caller handing a
/// genome with undeclared differences would silently get the wrong fitness;
/// this makes it loud where tests run (release builds never call it).
fn genome_matches_cache_outside(
    state: &EvalCache,
    genes: &[Trit],
    k: usize,
    edit: &Range<usize>,
) -> bool {
    let force_all_u = state.shape.4;
    let l = genes.len() / k;
    let chunk_lo = edit.start / k;
    let chunk_hi = if edit.is_empty() {
        chunk_lo
    } else {
        (edit.end - 1) / k
    };
    for i in 0..l {
        if !edit.is_empty() && (chunk_lo..=chunk_hi).contains(&i) {
            continue;
        }
        let decoded = if force_all_u && i == l - 1 {
            (0, 0)
        } else {
            decode_chunk(&genes[i * k..(i + 1) * k])
        };
        if decoded != (state.spec[i], state.value[i]) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{encoded_size_scratch, EvalScratch};
    use evotc_bits::{BlockHistogram, TestSet, TestSetString};

    fn fixtures(rows: &[&str], k: usize) -> SlicedHistogram {
        let set = TestSet::parse(rows).unwrap();
        let hist = BlockHistogram::from_string(&TestSetString::new(&set, k));
        SlicedHistogram::from_histogram(&hist)
    }

    fn genes(s: &str) -> Vec<Trit> {
        evotc_bits::parse_trits(&s.replace(' ', "")).unwrap()
    }

    /// Prices `child` as an `edit` of the genome cached in `cache` through
    /// both entry points and checks them against the full kernel: the
    /// ungated price always answers with the kernel's size, the gated probe
    /// answers the same or declines — never for an edit inside one chunk —
    /// and whichever answers leaves the kernel's transition and used-MV
    /// counts in its scratch. Returns the kernel's size.
    fn check_child(
        sliced: &SlicedHistogram,
        cache: &EvalCache,
        child: &[Trit],
        force: bool,
        edit: &Range<usize>,
    ) -> Option<u64> {
        let mut kernel = EvalScratch::new();
        let expect = encoded_size_scratch(sliced, child, force, &mut kernel);
        let objectives = (kernel.last_scan_transitions(), kernel.last_used_mvs());
        let mut scratch = PatchScratch::new();
        let ungated = encoded_size_incremental(sliced, child, force, edit, cache, &mut scratch);
        assert_eq!(
            ungated,
            IncrementalOutcome::Size(expect),
            "ungated {edit:?}"
        );
        assert_eq!(
            (scratch.last_scan_transitions(), scratch.last_used_mvs()),
            objectives,
            "ungated objectives {edit:?}"
        );
        let mut scratch = PatchScratch::new();
        match encoded_size_probe(sliced, child, force, edit, cache, &mut scratch) {
            IncrementalOutcome::Size(got) => {
                assert_eq!(got, expect, "gated {edit:?}");
                assert_eq!(
                    (scratch.last_scan_transitions(), scratch.last_used_mvs()),
                    objectives,
                    "gated objectives {edit:?}"
                );
            }
            IncrementalOutcome::NeedsFull => {
                let k = sliced.block_len();
                assert!(
                    !edit.is_empty() && edit.start / k != (edit.end - 1) / k,
                    "gated a one-chunk edit {edit:?}"
                );
            }
        }
        expect
    }

    /// Applies every single-gene edit to `parent` and checks both prices of
    /// the child against the full kernel.
    fn exhaustive_single_gene_edits(sliced: &SlicedHistogram, parent: &[Trit], force: bool) {
        let mut cache = EvalCache::new();
        encoded_size_rebuild(sliced, parent, force, &mut cache);
        for pos in 0..parent.len() {
            for g in 0..3u8 {
                let mut child = parent.to_vec();
                child[pos] = Trit::from_index(g);
                check_child(sliced, &cache, &child, force, &(pos..pos + 1));
            }
        }
    }

    #[test]
    fn single_gene_edits_match_full_kernel() {
        let sliced = fixtures(
            &["110100XX", "110000XX", "11010000", "110X00XX", "11010011"],
            8,
        );
        for parent in [
            genes("110U00UU 00000000 UUUUUUUU"),
            genes("11010000 110000UU UUUUUUUU"),
            genes("110U00UU 110U00UU UUUUUUUU"), // duplicate MVs
        ] {
            exhaustive_single_gene_edits(&sliced, &parent, false);
            exhaustive_single_gene_edits(&sliced, &parent, true);
        }
    }

    /// Applies every `width`-gene window rewrite to `parent` and checks both
    /// prices of the child against the full kernel. Windows straddle chunk
    /// boundaries by construction whenever `width > 1` and the genome has
    /// several chunks.
    fn exhaustive_window_edits(
        sliced: &SlicedHistogram,
        parent: &[Trit],
        width: usize,
        force: bool,
    ) {
        let mut cache = EvalCache::new();
        encoded_size_rebuild(sliced, parent, force, &mut cache);
        for start in 0..=parent.len() - width {
            let mut child = parent.to_vec();
            for (offset, slot) in child[start..start + width].iter_mut().enumerate() {
                *slot = Trit::from_index(((start + 2 * offset) % 3) as u8);
            }
            check_child(sliced, &cache, &child, force, &(start..start + width));
        }
    }

    #[test]
    fn multi_chunk_window_edits_match_full_kernel() {
        let sliced = fixtures(
            &["110100XX", "110000XX", "11010000", "110X00XX", "11010011"],
            8,
        );
        for parent in [
            genes("110U00UU 00000000 11010011 UUUUUUUU"),
            genes("110U00UU 110U00UU 110U00UU UUUUUUUU"), // duplicate MVs
        ] {
            for width in [1, 7, 9, 12, 17, 19, parent.len()] {
                exhaustive_window_edits(&sliced, &parent, width, false);
                exhaustive_window_edits(&sliced, &parent, width, true);
            }
        }
    }

    /// Empty and single-chunk edits bypass the gate entirely: bit-identical
    /// behavior to the ungated price, `Size` always.
    #[test]
    fn bounded_probe_never_gates_cheap_edits() {
        let sliced = fixtures(&["110100XX", "110000XX", "11010000"], 8);
        let parent = genes("110U00UU 00000000 UUUUUUUU");
        let mut cache = EvalCache::new();
        encoded_size_rebuild(&sliced, &parent, false, &mut cache);
        let mut probe_scratch = PatchScratch::new();
        // Empty edit: the cached size.
        assert_eq!(
            encoded_size_probe(&sliced, &parent, false, &(3..3), &cache, &mut probe_scratch),
            IncrementalOutcome::Size(cache.encoded_size()),
        );
        // Every single-gene edit stays within one chunk and must be priced.
        let mut scratch = EvalScratch::new();
        for pos in 0..parent.len() {
            let mut child = parent.clone();
            child[pos] = Trit::from_index(((pos + 1) % 3) as u8);
            let expect = encoded_size_scratch(&sliced, &child, false, &mut scratch);
            let edit = pos..pos + 1;
            let bounded =
                encoded_size_probe(&sliced, &child, false, &edit, &cache, &mut probe_scratch);
            assert_eq!(bounded, IncrementalOutcome::Size(expect), "pos {pos}");
            let plain =
                encoded_size_incremental(&sliced, &child, false, &edit, &cache, &mut probe_scratch);
            assert_eq!(bounded, plain, "pos {pos}");
        }
    }

    /// A cold cache gives `NeedsFull` from the bounded probe too (shape
    /// gate ahead of the cost gate).
    #[test]
    fn bounded_probe_rejects_cold_cache() {
        let sliced = fixtures(&["110100XX", "110000XX"], 8);
        let child = genes("110U00UU UUUUUUUU");
        let cache = EvalCache::new();
        let mut probe_scratch = PatchScratch::new();
        assert_eq!(
            encoded_size_probe(&sliced, &child, false, &(0..4), &cache, &mut probe_scratch),
            IncrementalOutcome::NeedsFull,
        );
    }

    #[test]
    fn feasibility_flips_are_incremental() {
        let sliced = fixtures(&["1111", "0000"], 4);
        // Parent cannot cover 0000; flipping gene 4 to U widens the second
        // MV until it can.
        let parent = genes("1111 1110");
        exhaustive_single_gene_edits(&sliced, &parent, false);
        let mut cache = EvalCache::new();
        assert_eq!(
            encoded_size_rebuild(&sliced, &parent, false, &mut cache),
            None
        );
        // A 4-gene edit inside one chunk: still a single-MV patch.
        let child = genes("1111 UUUU");
        assert!(check_child(&sliced, &cache, &child, false, &(4..8)).is_some());
        // ...and back to infeasible, priced against the child.
        encoded_size_rebuild(&sliced, &child, false, &mut cache);
        assert_eq!(check_child(&sliced, &cache, &parent, false, &(4..8)), None);
    }

    #[test]
    fn multi_chunk_feasibility_flips_are_incremental() {
        let sliced = fixtures(&["1111", "0000", "1100"], 4);
        // No MV matches 0000 or 1100: infeasible until a whole-genome edit
        // widens two chunks at once.
        let parent = genes("1111 1110 0011");
        let mut cache = EvalCache::new();
        assert_eq!(
            encoded_size_rebuild(&sliced, &parent, false, &mut cache),
            None
        );
        let child = genes("1111 UUUU 110U");
        let mut scratch = PatchScratch::new();
        assert!(check_child(&sliced, &cache, &child, false, &(4..12)).is_some());
        // The ungated price reaches the multi-chunk patch.
        let expect = encoded_size_scratch(&sliced, &child, false, &mut EvalScratch::new());
        assert_eq!(
            encoded_size_incremental(&sliced, &child, false, &(4..12), &cache, &mut scratch),
            IncrementalOutcome::Size(expect)
        );
        // ...and back to infeasible through the same multi-chunk path.
        encoded_size_rebuild(&sliced, &child, false, &mut cache);
        assert_eq!(
            encoded_size_incremental(&sliced, &parent, false, &(4..12), &cache, &mut scratch),
            IncrementalOutcome::Size(None)
        );
    }

    #[test]
    fn probes_leave_the_parent_cache_intact() {
        let sliced = fixtures(&["110100XX", "110000XX", "11010000"], 8);
        let parent = genes("110U00UU 11010000 UUUUUUUU");
        let mut cache = EvalCache::new();
        let parent_size = encoded_size_rebuild(&sliced, &parent, false, &mut cache);
        let mut scratch = EvalScratch::new();
        let mut patch = PatchScratch::new();
        // Price many children off the same cache; each must match the full
        // kernel, and the parent must still price correctly afterwards.
        for pos in 0..parent.len() {
            let mut child = parent.clone();
            child[pos] = Trit::from_index((pos % 3) as u8);
            let expect = encoded_size_scratch(&sliced, &child, false, &mut scratch);
            let edit = pos..pos + 1;
            let got = encoded_size_incremental(&sliced, &child, false, &edit, &cache, &mut patch);
            assert_eq!(got, IncrementalOutcome::Size(expect), "pos {pos}");
        }
        // Multi-chunk prices reuse the same scratch.
        for start in 0..parent.len() - 10 {
            let mut child = parent.clone();
            child[start..start + 10].reverse();
            let expect = encoded_size_scratch(&sliced, &child, false, &mut scratch);
            let edit = start..start + 10;
            let got = encoded_size_incremental(&sliced, &child, false, &edit, &cache, &mut patch);
            assert_eq!(got, IncrementalOutcome::Size(expect), "window at {start}");
        }
        assert_eq!(cache.encoded_size(), parent_size);
        let again = encoded_size_incremental(&sliced, &parent, false, &(0..0), &cache, &mut patch);
        assert_eq!(again, IncrementalOutcome::Size(parent_size));
    }

    #[test]
    fn cold_cache_and_shape_mismatches_need_full() {
        let sliced = fixtures(&["1010", "0101"], 4);
        let g = genes("1010 UUUU");
        let mut cache = EvalCache::new();
        let mut scratch = PatchScratch::new();
        assert_eq!(
            encoded_size_incremental(&sliced, &g, false, &(0..1), &cache, &mut scratch),
            IncrementalOutcome::NeedsFull
        );
        assert_eq!(
            encoded_size_probe(&sliced, &g, false, &(0..1), &cache, &mut scratch),
            IncrementalOutcome::NeedsFull
        );
        encoded_size_rebuild(&sliced, &g, false, &mut cache);
        // Different genome length.
        let longer = genes("1010 UUUU 1111");
        assert_eq!(
            encoded_size_incremental(&sliced, &longer, false, &(8..9), &cache, &mut scratch),
            IncrementalOutcome::NeedsFull
        );
        // Different force flag.
        assert_eq!(
            encoded_size_incremental(&sliced, &g, true, &(0..1), &cache, &mut scratch),
            IncrementalOutcome::NeedsFull
        );
        // An edit spanning two changed chunks is *not* a fallback anymore:
        // the multi-chunk patch prices it.
        let mut two = g.clone();
        two[3] = Trit::X;
        two[4] = Trit::One;
        let expect = encoded_size_scratch(&sliced, &two, false, &mut EvalScratch::new());
        assert_eq!(
            encoded_size_incremental(&sliced, &two, false, &(3..5), &cache, &mut scratch),
            IncrementalOutcome::Size(expect)
        );
    }

    /// A cache remembers which histogram it was rebuilt against: pricing
    /// against another histogram of identical dimensions (same `K`,
    /// distinct-block count and word width) needs the full kernel, in
    /// release builds too, instead of patching a covering of the wrong
    /// blocks.
    #[test]
    fn another_histogram_of_equal_shape_needs_full() {
        let a = fixtures(&["1111", "0000"], 4);
        let b = fixtures(&["1010", "0101"], 4);
        assert_eq!(
            (a.block_len(), a.num_distinct(), a.words_per_column()),
            (b.block_len(), b.num_distinct(), b.words_per_column())
        );
        let parent = genes("1111 UUUU");
        let mut cache = EvalCache::new();
        encoded_size_rebuild(&a, &parent, false, &mut cache);
        // Over `b` this child covers nothing, but patching the covering of
        // `a` with the conflict planes of `b` prices it as feasible.
        let mut child = parent.clone();
        child[4] = Trit::One;
        check_child(&a, &cache, &child, false, &(4..5));
        assert_eq!(
            encoded_size_scratch(&b, &child, false, &mut EvalScratch::new()),
            None
        );
        let mut scratch = PatchScratch::new();
        for edit in [0..0, 4..5, 0..8] {
            let genome = if edit.is_empty() { &parent } else { &child };
            assert_eq!(
                encoded_size_incremental(&b, genome, false, &edit, &cache, &mut scratch),
                IncrementalOutcome::NeedsFull,
                "ungated {edit:?}"
            );
            assert_eq!(
                encoded_size_probe(&b, genome, false, &edit, &cache, &mut scratch),
                IncrementalOutcome::NeedsFull,
                "gated {edit:?}"
            );
        }
        // Rebuilt against `b`, the same cache prices `b` correctly.
        encoded_size_rebuild(&b, &parent, false, &mut cache);
        assert_eq!(check_child(&b, &cache, &child, false, &(4..5)), None);
    }

    #[test]
    fn force_all_u_makes_last_chunk_edits_inert() {
        let sliced = fixtures(&["10101010", "01010101"], 8);
        let parent = genes("10101010 00000000");
        let mut cache = EvalCache::new();
        let size = encoded_size_rebuild(&sliced, &parent, true, &mut cache);
        let mut child = parent.clone();
        child[12] = Trit::One; // inside the forced all-U chunk
        let mut scratch = PatchScratch::new();
        let got = encoded_size_incremental(&sliced, &child, true, &(12..13), &cache, &mut scratch);
        assert_eq!(got, IncrementalOutcome::Size(size));
    }

    #[test]
    fn rebuild_matches_scratch_kernel() {
        let sliced = fixtures(
            &["110100XX", "110000XX", "11010000", "110X00XX", "11010011"],
            8,
        );
        let mut scratch = EvalScratch::new();
        let mut cache = EvalCache::new();
        for g in [
            genes("110U00UU 00000000 UUUUUUUU"),
            genes("11010000 110000UU UUUUUUUU"),
            genes("UUUUUUUU UUUUUUUU UUUUUUUU"),
            genes("11111111 00000000 11110000"),
        ] {
            for force in [false, true] {
                assert_eq!(
                    encoded_size_rebuild(&sliced, &g, force, &mut cache),
                    encoded_size_scratch(&sliced, &g, force, &mut scratch),
                    "genome {g:?} force {force}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "not a positive multiple")]
    fn rebuild_rejects_ragged_genomes() {
        let sliced = fixtures(&["1111"], 4);
        let _ = encoded_size_rebuild(&sliced, &genes("111"), false, &mut EvalCache::new());
    }
}
