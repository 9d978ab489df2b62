//! Deterministic population-parallel fitness evaluation.
//!
//! The paper's EA spends essentially all of its wall-clock evaluating
//! fitness (the compression rate over the distinct-block histogram), so the
//! natural scaling move is population-level parallelism: split each batch of
//! genomes into contiguous chunks, evaluate the chunks on scoped worker
//! threads, and stitch the scores back together in input order.
//!
//! # Determinism contract
//!
//! [`evaluate`] is bit-identical for every thread count. Chunking changes
//! only *where* a genome is scored, never the order of the returned scores,
//! and the engine's RNG lives on the calling thread — worker threads get a
//! shared `&E` and never touch random state. The contract holds as long as
//! the evaluator is pure (see [`FitnessEval`]); it is enforced by
//! `tests/parallel_determinism.rs` and by CI running the whole suite under
//! [`THREADS_ENV`]` = 1`.
//!
//! # Example
//!
//! ```
//! use evotc_evo::parallel;
//!
//! let one_max = |genes: &[bool]| genes.iter().filter(|&&g| g).count() as f64;
//! let genomes: Vec<Vec<bool>> = (0..64).map(|i| vec![i % 3 == 0; 16]).collect();
//!
//! let serial = parallel::evaluate(&one_max, &genomes, 1);
//! let threaded = parallel::evaluate(&one_max, &genomes, 4);
//! assert_eq!(serial, threaded); // thread count never changes results
//! ```

use crate::fitness::{FitnessEval, Lineage};
use crate::objective::Objectives;

/// Environment variable overriding the automatic thread count (used when a
/// configuration asks for `threads = 0`). CI runs the test suite once
/// without it and once with `EVOTC_TEST_THREADS=1` to enforce the
/// determinism contract on every push.
pub const THREADS_ENV: &str = "EVOTC_TEST_THREADS";

/// Cap on the automatically resolved thread count. A panmictic batch is
/// the `C` children of one generation (the paper's default is `C = 5`) and
/// the engine never splits it wider than one genome per worker; an island
/// run uses at most one worker per island. Wider pools only add spawn
/// overhead.
const MAX_AUTO_THREADS: usize = 8;

/// Resolves a configured thread count to a concrete one.
///
/// `threads > 0` is taken literally. `threads = 0` means *auto*: the value
/// of [`THREADS_ENV`] when set to a positive integer, otherwise the
/// machine's available parallelism capped at 8.
pub fn resolve_threads(threads: usize) -> usize {
    if threads > 0 {
        return threads;
    }
    if let Some(n) = std::env::var(THREADS_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
    {
        return n;
    }
    std::thread::available_parallelism()
        .map(|n| n.get().min(MAX_AUTO_THREADS))
        .unwrap_or(1)
}

/// Scores a batch of genomes on up to `threads` scoped worker threads and
/// returns the scores — a scalar convenience over [`evaluate_into`] for
/// genomes without lineage.
///
/// The result is identical to a serial `eval.evaluate_batch` call for every
/// thread count (see the [module docs](self) for the contract).
pub fn evaluate<G, E>(eval: &E, genomes: &[Vec<G>], threads: usize) -> Vec<f64>
where
    G: Sync,
    E: FitnessEval<G> + Sync,
{
    let lineage = vec![None; genomes.len()];
    let (mut scores, mut objectives) = (Vec::new(), Vec::new());
    evaluate_into(
        eval,
        genomes,
        &lineage,
        &[],
        threads,
        &mut scores,
        &mut objectives,
    );
    scores
}

/// Scores a batch of genomes through [`FitnessEval::evaluate_batch`] on up
/// to `threads` scoped worker threads, writing into reusable buffers
/// (cleared and resized to `genomes.len()`), so a caller evaluating every
/// generation — the engine — allocates no output vectors after the first
/// call.
///
/// Each worker receives one contiguous chunk of the batch — genomes, their
/// lineage and both outputs chunked in lockstep, every worker seeing the
/// full `parents` slice — and exactly one `evaluate_batch` call writing
/// straight into its disjoint slices. That is what lets a batch override
/// keep a single scratch state per worker thread, and why no copying or
/// stitching happens afterwards. Chunking changes only *where* a genome is
/// scored, never the order of the outputs. Workers are spawned per call via
/// [`std::thread::scope`], so the evaluator only needs to borrow its shared
/// state (`E: Sync`), not own it.
///
/// Score slots are prefilled with `NaN` and objective slots with
/// [`Objectives::NAN`]; an override that skips a slot therefore leaves
/// `NaN` behind, which the engine's selection ranks last — the same
/// treatment a `NaN`-returning evaluator gets.
///
/// # Panics
///
/// Panics if `lineage.len() != genomes.len()`.
pub fn evaluate_into<G, E>(
    eval: &E,
    genomes: &[Vec<G>],
    lineage: &[Option<Lineage>],
    parents: &[&[G]],
    threads: usize,
    scores: &mut Vec<f64>,
    objectives: &mut Vec<Objectives>,
) where
    G: Sync,
    E: FitnessEval<G> + Sync,
{
    assert_eq!(genomes.len(), lineage.len(), "lineage slice length");
    scores.clear();
    scores.resize(genomes.len(), f64::NAN);
    objectives.clear();
    objectives.resize(genomes.len(), Objectives::NAN);
    let workers = threads.max(1).min(genomes.len());
    if workers <= 1 {
        eval.evaluate_batch(genomes, lineage, parents, scores, objectives);
        return;
    }
    let chunk = genomes.len().div_ceil(workers);
    std::thread::scope(|scope| {
        for (((slot, objs), batch), lin) in scores
            .chunks_mut(chunk)
            .zip(objectives.chunks_mut(chunk))
            .zip(genomes.chunks(chunk))
            .zip(lineage.chunks(chunk))
        {
            scope.spawn(move || eval.evaluate_batch(batch, lin, parents, slot, objs));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_max(genes: &[bool]) -> f64 {
        genes.iter().filter(|&&g| g).count() as f64
    }

    fn genomes(n: usize) -> Vec<Vec<bool>> {
        (0..n)
            .map(|i| (0..24).map(|j| (i + j) % 3 == 0).collect())
            .collect()
    }

    #[test]
    fn every_thread_count_matches_serial() {
        for n in [0, 1, 2, 5, 17, 64] {
            let g = genomes(n);
            let serial = evaluate(&one_max, &g, 1);
            for threads in [2, 3, 4, 8, 100] {
                assert_eq!(evaluate(&one_max, &g, threads), serial, "n={n} t={threads}");
            }
        }
    }

    #[test]
    fn scores_line_up_with_genomes() {
        let g = genomes(13);
        let scores = evaluate(&one_max, &g, 4);
        for (genome, &score) in g.iter().zip(&scores) {
            assert_eq!(score, one_max(genome));
        }
    }

    #[test]
    fn zero_threads_is_treated_as_one_worker_minimum() {
        let g = genomes(3);
        assert_eq!(evaluate(&one_max, &g, 0), evaluate(&one_max, &g, 1));
    }

    #[test]
    fn explicit_thread_counts_resolve_to_themselves() {
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(7), 7);
    }

    #[test]
    fn auto_resolves_to_a_positive_count() {
        assert!(resolve_threads(0) >= 1);
    }

    #[test]
    fn evaluate_into_reuses_and_resizes_the_buffers() {
        let (mut scores, mut objectives) = (vec![42.0; 100], vec![Objectives::NAN; 100]);
        let g = genomes(5);
        evaluate_into(
            &one_max,
            &g,
            &vec![None; 5],
            &[],
            2,
            &mut scores,
            &mut objectives,
        );
        assert_eq!(scores.len(), 5);
        assert_eq!(objectives.len(), 5);
        assert_eq!(scores, evaluate(&one_max, &g, 1));
        // Growing again after a smaller batch also works.
        let g = genomes(9);
        evaluate_into(
            &one_max,
            &g,
            &vec![None; 9],
            &[],
            3,
            &mut scores,
            &mut objectives,
        );
        assert_eq!(scores.len(), 9);
    }

    #[test]
    fn lineage_and_objectives_match_plain_for_every_thread_count() {
        let g = genomes(17);
        let parents = genomes(3);
        let parent_refs: Vec<&[bool]> = parents.iter().map(Vec::as_slice).collect();
        let lineage: Vec<Option<Lineage>> = (0..g.len())
            .map(|i| (i % 3 != 0).then(|| Lineage::new(i % parents.len(), 0..i % 5)))
            .collect();
        let plain = evaluate(&one_max, &g, 1);
        let (mut scores, mut objectives) = (Vec::new(), Vec::new());
        for threads in [1, 2, 4, 100] {
            evaluate_into(
                &one_max,
                &g,
                &lineage,
                &parent_refs,
                threads,
                &mut scores,
                &mut objectives,
            );
            assert_eq!(scores, plain, "t={threads}");
            for (&score, obj) in plain.iter().zip(&objectives) {
                assert_eq!(*obj, Objectives::from_fitness(score), "t={threads}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "lineage slice length")]
    fn lineage_length_mismatch_is_rejected() {
        let (mut scores, mut objectives) = (Vec::new(), Vec::new());
        evaluate_into(
            &one_max,
            &genomes(2),
            &[],
            &[],
            1,
            &mut scores,
            &mut objectives,
        );
    }

    #[test]
    fn batch_overrides_see_worker_sized_chunks() {
        // An override writing chunk lengths proves each worker gets exactly
        // one evaluate_batch call over its contiguous chunk.
        struct ChunkLen;
        impl FitnessEval<bool> for ChunkLen {
            fn evaluate(&self, _: &[bool]) -> f64 {
                1.0
            }
            fn evaluate_batch(
                &self,
                genomes: &[Vec<bool>],
                _: &[Option<Lineage>],
                _: &[&[bool]],
                out: &mut [f64],
                _: &mut [Objectives],
            ) {
                for slot in out.iter_mut() {
                    *slot = genomes.len() as f64;
                }
            }
        }
        let g = genomes(8);
        let scores = evaluate(&ChunkLen, &g, 4);
        assert_eq!(scores, vec![2.0; 8]); // 8 genomes over 4 workers = 2 each
    }
}
