//! Property tests pinning the incremental fitness path to the full kernel:
//! an arbitrary chain of edits — single-gene mutations, multi-chunk
//! inversion windows straddling chunk boundaries, crossover children priced
//! against either parent's cache — where each step rebuilds an
//! [`EvalCache`] at its parent and prices the child read-only, must produce
//! the **bit-identical** encoded size / fitness that `encoded_size_scratch`
//! computes from scratch at every step — including edits that flip
//! feasibility (covering becomes/ceases to be possible) and edits that
//! create or remove duplicate MVs. The ungated price
//! (`encoded_size_incremental`), the cost-gated probe
//! ([`encoded_size_probe`]) and the concurrent shared-cache batch path of
//! `MvFitness` are pinned to the same oracle.

use evotc::bits::{BlockHistogram, SlicedHistogram, TestPattern, TestSet, TestSetString, Trit};
use evotc::core::{
    encoded_size_incremental, encoded_size_probe, encoded_size_rebuild, encoded_size_scratch,
    EvalCache, EvalScratch, IncrementalOutcome, MvFitness, PatchScratch,
};
use evotc::evo::{FitnessEval, Lineage, Objectives};
use proptest::prelude::*;
use std::ops::Range;

fn arb_trits(len: usize) -> impl Strategy<Value = Vec<Trit>> {
    proptest::collection::vec((0u8..3).prop_map(Trit::from_index), len..=len)
}

/// Specified-heavy rows: mostly 0/1, so small MV sets flip between feasible
/// and infeasible as genes mutate (no all-`U` safety net).
fn arb_dense_rows(width: usize) -> impl Strategy<Value = Vec<Vec<Trit>>> {
    proptest::collection::vec(
        proptest::collection::vec(any::<bool>(), width..=width)
            .prop_map(|bs| bs.into_iter().map(Trit::from_bool).collect::<Vec<_>>()),
        1..8,
    )
}

/// A mutation chain: `(gene position, new gene)` pairs applied in order.
fn arb_chain(genome_len: usize, steps: usize) -> impl Strategy<Value = Vec<(usize, Trit)>> {
    proptest::collection::vec(
        (0..genome_len, (0u8..3).prop_map(Trit::from_index)),
        1..=steps,
    )
}

fn histogram_for(rows: &[Vec<Trit>], k: usize) -> (BlockHistogram, f64) {
    let patterns: TestSet = rows.iter().map(|t| TestPattern::from_trits(t)).collect();
    let string = TestSetString::new(&patterns, k);
    let hist = BlockHistogram::from_string(&string);
    let bits = string.payload_bits() as f64;
    (hist, bits)
}

/// The gated probe's contract next to an exact price: it answers the same
/// `Size`, or `NeedsFull` — never for an edit window inside one `k`-gene
/// chunk (empty and one-chunk edits are not gated).
fn check_gated(
    probe: IncrementalOutcome,
    exact: IncrementalOutcome,
    edit: &Range<usize>,
    k: usize,
) {
    if probe == IncrementalOutcome::NeedsFull {
        assert!(
            !edit.is_empty() && edit.start / k != (edit.end - 1) / k,
            "gated probe declined a one-chunk edit {:?}",
            edit
        );
    } else {
        assert_eq!(probe, exact, "gated probe {:?}", edit);
    }
}

/// Runs one chain, checking every step against the full kernel: the cache
/// is rebuilt at the step's parent, and the child is priced through both
/// the ungated price and the gated probe (which never declines a
/// single-gene edit), side-channel objectives included. Returns how many
/// steps were feasible / infeasible so callers can sanity-check coverage.
fn check_chain(
    sliced: &SlicedHistogram,
    genome: &mut [Trit],
    chain: &[(usize, Trit)],
    force_all_u: bool,
) -> (usize, usize) {
    let mut cache = EvalCache::new();
    let mut scratch = EvalScratch::new();
    let mut patch = PatchScratch::new();
    let (mut feasible, mut infeasible) = (0, 0);
    for &(pos, gene) in chain {
        let built = encoded_size_rebuild(sliced, genome, force_all_u, &mut cache);
        assert_eq!(
            built,
            encoded_size_scratch(sliced, genome, force_all_u, &mut scratch),
            "rebuild diverged on the parent of the step at {pos}"
        );
        genome[pos] = gene;
        let full = encoded_size_scratch(sliced, genome, force_all_u, &mut scratch);
        let objectives = (scratch.last_scan_transitions(), scratch.last_used_mvs());
        let edit = pos..pos + 1;
        for gated in [false, true] {
            let price = if gated {
                encoded_size_probe(sliced, genome, force_all_u, &edit, &cache, &mut patch)
            } else {
                encoded_size_incremental(sliced, genome, force_all_u, &edit, &cache, &mut patch)
            };
            assert_eq!(
                price,
                IncrementalOutcome::Size(full),
                "chain step at {pos} -> {gene:?} (gated: {gated})"
            );
            if full.is_some() {
                assert_eq!(
                    (patch.last_scan_transitions(), patch.last_used_mvs()),
                    objectives,
                    "objectives at {pos} -> {gene:?} (gated: {gated})"
                );
            }
        }
        match full {
            Some(_) => feasible += 1,
            None => infeasible += 1,
        }
    }
    (feasible, infeasible)
}

/// Scores `genomes` through `MvFitness`'s one batch call, returning the
/// scores and objective vectors.
fn batch(
    fitness: &MvFitness<'_>,
    genomes: &[Vec<Trit>],
    lineage: &[Option<Lineage>],
    parents: &[&[Trit]],
) -> (Vec<f64>, Vec<Objectives>) {
    let mut scores = vec![f64::NAN; genomes.len()];
    let mut objectives = vec![Objectives::NAN; genomes.len()];
    fitness.evaluate_batch(genomes, lineage, parents, &mut scores, &mut objectives);
    (scores, objectives)
}

/// The same genomes without lineage: every one takes the full kernel.
fn plain_batch(fitness: &MvFitness<'_>, genomes: &[Vec<Trit>]) -> (Vec<f64>, Vec<Objectives>) {
    batch(fitness, genomes, &vec![None; genomes.len()], &[])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Mutation chains over X-rich rows for paper-adjacent shapes, with and
    /// without the forced all-`U` vector.
    #[test]
    fn mutation_chains_match_full_kernel(
        rows in proptest::collection::vec(arb_trits(12), 1..8),
        start in arb_trits(48),
        chain in arb_chain(48, 24),
    ) {
        for &(k, l) in &[(4usize, 12usize), (6, 8), (12, 4)] {
            let (hist, _) = histogram_for(&rows, k);
            let sliced = SlicedHistogram::from_histogram(&hist);
            for force in [false, true] {
                let mut genome = start[..k * l].to_vec();
                check_chain(&sliced, &mut genome, &chain, force);
            }
        }
    }

    /// Chains over dense rows with tiny MV budgets: feasibility flips both
    /// ways along the chain, and the incremental path must track it.
    #[test]
    fn feasibility_flipping_chains_match_full_kernel(
        rows in arb_dense_rows(8),
        start in arb_trits(8),
        chain in arb_chain(8, 32),
    ) {
        let (hist, _) = histogram_for(&rows, 4);
        let sliced = SlicedHistogram::from_histogram(&hist);
        let mut genome = start.clone();
        check_chain(&sliced, &mut genome, &chain, false);
    }

    /// Chains seeded with deliberate duplicate MVs (every chunk identical):
    /// mutations break duplicates apart and re-create them; the sequential
    /// first-match rule must price both transitions exactly.
    #[test]
    fn duplicate_mv_chains_match_full_kernel(
        rows in proptest::collection::vec(arb_trits(12), 1..6),
        chunk in arb_trits(6),
        chain in arb_chain(24, 24),
    ) {
        let (hist, _) = histogram_for(&rows, 6);
        let sliced = SlicedHistogram::from_histogram(&hist);
        let mut genome: Vec<Trit> = std::iter::repeat(chunk.iter().copied())
            .take(4)
            .flatten()
            .collect();
        check_chain(&sliced, &mut genome, &chain, false);
    }

    /// The read-only probe path: many children priced against one parent
    /// cache must match the full kernel, and the cache must still price the
    /// parent afterwards. This is exactly how `MvFitness`'s batch call uses
    /// the cache.
    #[test]
    fn sibling_probes_match_full_kernel_and_preserve_the_parent(
        rows in proptest::collection::vec(arb_trits(12), 1..8),
        parent in arb_trits(24),
        edits in arb_chain(24, 16),
    ) {
        let (hist, _) = histogram_for(&rows, 6);
        let sliced = SlicedHistogram::from_histogram(&hist);
        let mut cache = EvalCache::new();
        let mut scratch = EvalScratch::new();
        let mut patch = PatchScratch::new();
        let parent_size = encoded_size_rebuild(&sliced, &parent, false, &mut cache);
        for &(pos, gene) in &edits {
            let mut child = parent.clone();
            child[pos] = gene;
            let edit = pos..pos + 1;
            let probe = encoded_size_incremental(&sliced, &child, false, &edit, &cache, &mut patch);
            let full = encoded_size_scratch(&sliced, &child, false, &mut scratch);
            prop_assert_eq!(probe, IncrementalOutcome::Size(full));
        }
        // The probes left the cache on the parent.
        prop_assert_eq!(cache.encoded_size(), parent_size);
        let parent_again =
            encoded_size_incremental(&sliced, &parent, false, &(0..0), &cache, &mut patch);
        prop_assert_eq!(parent_again, IncrementalOutcome::Size(parent_size));
    }

    /// `MvFitness` end to end: the batch call must score children
    /// bit-identically with and without lineage, objective vectors
    /// included, whatever mix of provenance (true single-gene edits, exact
    /// copies, missing lineage) it is handed.
    #[test]
    fn mv_fitness_lineage_batch_matches_plain_batch(
        rows in proptest::collection::vec(arb_trits(12), 1..8),
        parent_genomes in proptest::collection::vec(arb_trits(24), 1..4),
        edits in arb_chain(24, 12),
    ) {
        let (hist, bits) = histogram_for(&rows, 6);
        let fitness = MvFitness::new(6, true, &hist, bits);
        let parents: Vec<&[Trit]> = parent_genomes.iter().map(Vec::as_slice).collect();
        let mut genomes = Vec::new();
        let mut lineage = Vec::new();
        for (n, &(pos, gene)) in edits.iter().enumerate() {
            let parent_idx = n % parents.len();
            let mut child = parent_genomes[parent_idx].clone();
            match n % 3 {
                0 => {
                    child[pos] = gene;
                    lineage.push(Some(Lineage::new(parent_idx, pos..pos + 1)));
                }
                1 => lineage.push(Some(Lineage::new(parent_idx, 0..0))), // copy
                _ => {
                    child[pos] = gene;
                    lineage.push(None); // provenance lost -> full path
                }
            }
            genomes.push(child);
        }
        let (with, with_objectives) = batch(&fitness, &genomes, &lineage, &parents);
        let (without, without_objectives) = plain_batch(&fitness, &genomes);
        for (i, (a, b)) in with.iter().zip(&without).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "genome {}", i);
        }
        prop_assert_eq!(with_objectives, without_objectives);
    }

    /// Multi-chunk inversion chains: windows straddling chunk boundaries,
    /// each step priced against a cache rebuilt at its parent, must price
    /// bit-identically to the full kernel — the ungated read-only price
    /// must agree at every step, and the gated probe must agree or decline.
    #[test]
    fn inversion_chains_straddling_chunks_match_full_kernel(
        rows in proptest::collection::vec(arb_trits(12), 1..8),
        start in arb_trits(36),
        windows in proptest::collection::vec((0..36usize, 2..20usize), 1..16),
    ) {
        for &(k, l) in &[(6usize, 6usize), (12, 3)] {
            let (hist, _) = histogram_for(&rows, k);
            let sliced = SlicedHistogram::from_histogram(&hist);
            for force in [false, true] {
                let mut genome = start[..k * l].to_vec();
                let mut cache = EvalCache::new();
                let mut scratch = EvalScratch::new();
                let mut probe_scratch = PatchScratch::new();
                for &(at, span) in &windows {
                    encoded_size_rebuild(&sliced, &genome, force, &mut cache);
                    let lo = at.min(genome.len() - 1);
                    let hi = (lo + span).min(genome.len());
                    genome[lo..hi].reverse();
                    let edit = lo..hi;
                    let expect = encoded_size_scratch(&sliced, &genome, force, &mut scratch);
                    let probe = encoded_size_incremental(
                        &sliced, &genome, force, &edit, &cache, &mut probe_scratch,
                    );
                    prop_assert_eq!(probe, IncrementalOutcome::Size(expect), "probe {:?}", &edit);
                    let gated = encoded_size_probe(
                        &sliced, &genome, force, &edit, &cache, &mut probe_scratch,
                    );
                    check_gated(gated, probe, &edit, k);
                }
            }
        }
    }

    /// Crossover children priced via the parent-diff path: against the
    /// outside parent through the swapped window, and against the
    /// window-content donor through a whole-genome diff — both must match
    /// the full kernel (the gated probe may decline instead), and
    /// `MvFitness`'s batch call with lineage (which picks whichever parent
    /// is cached) must match it without lineage.
    #[test]
    fn crossover_children_priced_by_parent_diff_match_plain_batch(
        rows in proptest::collection::vec(arb_trits(12), 1..8),
        parent_a in arb_trits(24),
        parent_b in arb_trits(24),
        windows in proptest::collection::vec((0..24usize, 1..24usize), 1..10),
    ) {
        let (hist, bits) = histogram_for(&rows, 6);
        let sliced = SlicedHistogram::from_histogram(&hist);
        let mut cache_a = EvalCache::new();
        let mut cache_b = EvalCache::new();
        encoded_size_rebuild(&sliced, &parent_a, true, &mut cache_a);
        encoded_size_rebuild(&sliced, &parent_b, true, &mut cache_b);
        let mut scratch = EvalScratch::new();
        let mut probe_scratch = PatchScratch::new();
        let mut genomes = Vec::new();
        let mut lineage = Vec::new();
        for &(at, span) in &windows {
            let lo = at.min(parent_a.len() - 1);
            let hi = (lo + span).min(parent_a.len());
            let mut child = parent_a.clone();
            child[lo..hi].copy_from_slice(&parent_b[lo..hi]);
            let expect = encoded_size_scratch(&sliced, &child, true, &mut scratch);
            // Outside parent: the swapped window is the edit.
            let via_a = encoded_size_incremental(
                &sliced, &child, true, &(lo..hi), &cache_a, &mut probe_scratch,
            );
            prop_assert_eq!(via_a, IncrementalOutcome::Size(expect), "via parent A {}..{}", lo, hi);
            let gated_a = encoded_size_probe(
                &sliced, &child, true, &(lo..hi), &cache_a, &mut probe_scratch,
            );
            check_gated(gated_a, via_a, &(lo..hi), 6);
            // Donor parent: the edit is conservatively the whole genome;
            // the probe diffs it chunk-wise.
            let whole = 0..child.len();
            let via_b = encoded_size_incremental(
                &sliced, &child, true, &whole, &cache_b, &mut probe_scratch,
            );
            prop_assert_eq!(via_b, IncrementalOutcome::Size(expect), "via parent B {}..{}", lo, hi);
            let gated_b = encoded_size_probe(
                &sliced, &child, true, &whole, &cache_b, &mut probe_scratch,
            );
            check_gated(gated_b, via_b, &whole, 6);
            lineage.push(Some(Lineage::crossover(0, lo..hi, 1)));
            genomes.push(child);
        }
        let fitness = MvFitness::new(6, true, &hist, bits);
        let parents: Vec<&[Trit]> = vec![&parent_a, &parent_b];
        let (with, with_objectives) = batch(&fitness, &genomes, &lineage, &parents);
        let (without, without_objectives) = plain_batch(&fitness, &genomes);
        for (i, (a, b)) in with.iter().zip(&without).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "genome {}", i);
        }
        prop_assert_eq!(with_objectives, without_objectives);
    }

    /// Concurrent probes against the shared parent cache: the same lineage
    /// batch evaluated by 1 and then 4 threads at once, all on one
    /// `&MvFitness` (one parent cache, one worker-state pool) — what the
    /// workers of an island run do — must match the plain batch
    /// bit-for-bit on every thread.
    #[test]
    fn shared_cache_concurrent_probes_match_plain_batch(
        rows in proptest::collection::vec(arb_trits(12), 1..6),
        parent_genomes in proptest::collection::vec(arb_trits(24), 2..4),
        edits in arb_chain(24, 24),
    ) {
        let (hist, bits) = histogram_for(&rows, 6);
        let fitness = MvFitness::new(6, true, &hist, bits);
        let parents: Vec<&[Trit]> = parent_genomes.iter().map(Vec::as_slice).collect();
        let mut genomes = Vec::new();
        let mut lineage = Vec::new();
        for (n, &(pos, gene)) in edits.iter().enumerate() {
            let parent_idx = n % parents.len();
            let mut child = parent_genomes[parent_idx].clone();
            match n % 3 {
                0 => {
                    child[pos] = gene;
                    lineage.push(Some(Lineage::new(parent_idx, pos..pos + 1)));
                }
                1 => {
                    // A multi-chunk window child of two parents.
                    let donor = (parent_idx + 1) % parents.len();
                    let hi = (pos + 13).min(child.len());
                    child[pos..hi].copy_from_slice(&parent_genomes[donor][pos..hi]);
                    lineage.push(Some(Lineage::crossover(parent_idx, pos..hi, donor)));
                }
                _ => lineage.push(Some(Lineage::new(parent_idx, 0..0))), // copy
            }
            genomes.push(child);
        }
        let (plain, plain_objectives) = plain_batch(&fitness, &genomes);
        for threads in [1, 4] {
            let results: Vec<(Vec<f64>, Vec<Objectives>)> = std::thread::scope(|scope| {
                let workers: Vec<_> = (0..threads)
                    .map(|_| scope.spawn(|| batch(&fitness, &genomes, &lineage, &parents)))
                    .collect();
                workers.into_iter().map(|w| w.join().unwrap()).collect()
            });
            for (scores, objectives) in &results {
                for (i, (a, b)) in scores.iter().zip(&plain).enumerate() {
                    prop_assert_eq!(a.to_bits(), b.to_bits(), "genome {} threads {}", i, threads);
                }
                prop_assert_eq!(objectives, &plain_objectives, "threads {}", threads);
            }
        }
    }

    /// `MvFitness` chains agree with the single-genome paths: the start
    /// genome arrives without lineage (full kernel), and every later step
    /// is a one-genome batch whose lineage names the previous genome as its
    /// parent, so the shared cache rebuilds at that parent and probes the
    /// child.
    #[test]
    fn evaluate_cached_chains_match_evaluate(
        rows in arb_dense_rows(8),
        start in arb_trits(12),
        chain in arb_chain(12, 16),
    ) {
        let (hist, bits) = histogram_for(&rows, 4);
        let fitness = MvFitness::new(4, false, &hist, bits);
        let mut genome = start.clone();
        let (cold, _) = plain_batch(&fitness, std::slice::from_ref(&genome));
        prop_assert_eq!(cold[0].to_bits(), fitness.evaluate(&genome).to_bits());
        for &(pos, gene) in &chain {
            let parent = genome.clone();
            genome[pos] = gene;
            let lineage = [Some(Lineage::new(0, pos..pos + 1))];
            let (inc, _) = batch(&fitness, std::slice::from_ref(&genome), &lineage, &[&parent]);
            prop_assert_eq!(inc[0].to_bits(), fitness.evaluate(&genome).to_bits());
        }
        let stats = fitness.cache_stats().expect("MvFitness counts cache events");
        prop_assert_eq!(stats.hits + stats.misses, chain.len() as u64, "{}", stats);
    }
}
