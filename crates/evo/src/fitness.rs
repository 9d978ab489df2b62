//! Batch-oriented fitness evaluation.

use crate::objective::Objectives;
use crate::operators::GeneRange;
use crate::stats::CacheStats;

/// Parent→child provenance of one genome in a batch: which parent it was
/// derived from and which gene window the deriving operator may have edited.
///
/// The engine records a lineage for every child it breeds — crossover
/// children point at the parent that contributed the genes *outside* the
/// swapped window (with the window's *content donor* recorded as
/// [`Lineage::second_parent`]), mutation and inversion children at their
/// single parent, and reproduction children carry an **empty** edit range
/// (the child is a verbatim copy). The contract mirrors the operators' (see
/// [`crate::operators`]): every position outside `edit` equals the primary
/// parent's gene; positions inside may or may not differ.
///
/// Relative to the **second** parent the contract is the mirror image: the
/// child equals it at every position *inside* `edit` and may differ
/// anywhere outside. An evaluator holding only the second parent's partial
/// results can therefore still price the child — the edit window relative
/// to that parent is the window's complement (conservatively, the whole
/// genome, diffed at whatever granularity the evaluator patches at).
///
/// Evaluators that can reuse a parent's partial results (see
/// [`FitnessEval::evaluate_batch`]) use this to make a child's evaluation
/// proportional to the edit instead of the genome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lineage {
    /// Index of the primary parent in the `parents` slice handed to
    /// [`FitnessEval::evaluate_batch`] — the parent the child equals
    /// outside [`Lineage::edit`].
    pub parent_idx: usize,
    /// Gene window possibly differing from that parent (`start..end`,
    /// half-open). Empty means the child is an exact copy.
    pub edit: GeneRange,
    /// For crossover children, the index of the other parent — the one that
    /// contributed the genes **inside** [`Lineage::edit`]. `None` for
    /// single-parent operators (mutation, inversion, reproduction).
    pub second_parent: Option<usize>,
}

impl Lineage {
    /// Provenance of a single-parent child: equals `parents[parent_idx]`
    /// outside `edit`.
    pub fn new(parent_idx: usize, edit: GeneRange) -> Self {
        Lineage {
            parent_idx,
            edit,
            second_parent: None,
        }
    }

    /// Provenance of a crossover child: equals `parents[parent_idx]`
    /// outside `edit` and `parents[second_parent]` inside it.
    pub fn crossover(parent_idx: usize, edit: GeneRange, second_parent: usize) -> Self {
        Lineage {
            parent_idx,
            edit,
            second_parent: Some(second_parent),
        }
    }
}

/// Fitness of fixed-length genomes over gene type `G`; higher is better.
///
/// The engine hands whole batches to [`FitnessEval::evaluate_batch`] — the
/// initial population first, then every generation's children — which makes
/// the batch the natural unit of parallelism (see [`crate::parallel`]).
/// Scores are written into caller-provided slices, so the engine can reuse
/// its output buffers across generations and an override can keep per-batch
/// scratch state (buffers, histograms) alive for the whole batch — one
/// scratch per worker thread, since the parallel evaluator makes exactly one
/// `evaluate_batch` call per worker chunk.
///
/// Implementations must be *pure*: the fitness of a genome may depend only
/// on the genes (plus immutable shared state such as a precomputed
/// histogram), never on evaluation order, interior mutability, or randomness.
/// That purity is what lets the engine guarantee bit-identical results for
/// every thread count.
///
/// Infeasible genomes should be scored below every feasible one — exactly
/// how the paper handles individuals for which covering is impossible
/// (Section 3.1).
///
/// Any `Fn(&[G]) -> f64` closure implements this trait, so simple callers
/// never need to name it:
///
/// ```
/// use evotc_evo::{FitnessEval, Objectives};
///
/// let one_max = |genes: &[bool]| genes.iter().filter(|&&g| g).count() as f64;
/// assert_eq!(one_max.evaluate(&[true, false, true]), 2.0);
/// let mut scores = [0.0; 2];
/// let mut objectives = [Objectives::NAN; 2];
/// one_max.evaluate_batch(
///     &[vec![true], vec![false]],
///     &[None, None],
///     &[],
///     &mut scores,
///     &mut objectives,
/// );
/// assert_eq!(scores, [1.0, 0.0]);
/// assert_eq!(objectives[0], Objectives::from_fitness(1.0));
/// ```
pub trait FitnessEval<G> {
    /// Scores a single genome.
    fn evaluate(&self, genes: &[G]) -> f64;

    /// Scores a batch of genomes, writing the fitness of `genomes[i]` into
    /// `out[i]` and its minimized objective vector (see [`Objectives`]) into
    /// `objectives[i]`.
    ///
    /// `lineage[i]`, when present, names the parent genome in `parents`
    /// that `genomes[i]` was derived from and the gene window the deriving
    /// operator may have edited (see [`Lineage`]); the engine passes `None`
    /// for the initial population and `Some` for every bred child. Lineage
    /// is purely an optimization hint: an override may reuse work done for
    /// a parent (cached coverings, frequency vectors, …) to score a lightly
    /// edited child incrementally, but every score must stay
    /// **bit-identical** to [`FitnessEval::evaluate`] on the same genome.
    ///
    /// The default maps [`FitnessEval::evaluate`] over the batch in order
    /// and embeds each score via [`Objectives::from_fitness`], under which
    /// lexicographic ranking reproduces descending-fitness ranking exactly.
    /// An override must fill every slot of both outputs and must not depend
    /// on batch boundaries — the parallel evaluator splits batches into
    /// arbitrary contiguous chunks. Callers guarantee that `lineage`, `out`
    /// and `objectives` are as long as `genomes`, and that every
    /// `parent_idx` is in range of `parents`.
    fn evaluate_batch(
        &self,
        genomes: &[Vec<G>],
        lineage: &[Option<Lineage>],
        parents: &[&[G]],
        out: &mut [f64],
        objectives: &mut [Objectives],
    ) {
        debug_assert_eq!(genomes.len(), lineage.len(), "lineage slice length");
        let _ = parents;
        for ((genes, slot), vector) in genomes.iter().zip(out.iter_mut()).zip(objectives) {
            *slot = self.evaluate(genes);
            *vector = Objectives::from_fitness(*slot);
        }
    }

    /// Cumulative evaluation-cache counters, when this evaluator keeps a
    /// lineage cache (see [`CacheStats`]). The engine snapshots this after
    /// every generation into [`crate::GenerationStats::cache`], so cache
    /// effectiveness is observable per run, not just in micro-benchmarks.
    ///
    /// The default (evaluators without a cache) reports `None`. Counters
    /// must be monotone non-decreasing and must never influence scores —
    /// they are observability, like wall-clock time.
    fn cache_stats(&self) -> Option<CacheStats> {
        None
    }
}

/// Every plain fitness closure is a batch evaluator.
impl<G, F> FitnessEval<G> for F
where
    F: Fn(&[G]) -> f64,
{
    fn evaluate(&self, genes: &[G]) -> f64 {
        self(genes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct SumLen;

    impl FitnessEval<u8> for SumLen {
        fn evaluate(&self, genes: &[u8]) -> f64 {
            genes.iter().map(|&g| g as f64).sum()
        }
    }

    #[test]
    fn default_batch_maps_in_order_and_embeds_the_scalar_score() {
        let genomes = vec![vec![1u8, 2], vec![10], vec![]];
        let mut scores = vec![f64::NAN; genomes.len()];
        let mut objectives = vec![Objectives::NAN; genomes.len()];
        SumLen.evaluate_batch(
            &genomes,
            &[None, None, None],
            &[],
            &mut scores,
            &mut objectives,
        );
        assert_eq!(scores, vec![3.0, 10.0, 0.0]);
        for (&score, vector) in scores.iter().zip(&objectives) {
            assert_eq!(*vector, Objectives::from_fitness(score));
        }
    }

    #[test]
    fn default_batch_ignores_provenance() {
        let genomes = vec![vec![1u8, 2], vec![1, 3]];
        let parents: Vec<&[u8]> = vec![&[1, 2]];
        let lineage = vec![
            Some(Lineage::new(0, 0..0)),
            Some(Lineage::crossover(0, 1..2, 0)),
        ];
        let mut with = vec![f64::NAN; 2];
        let mut with_objectives = vec![Objectives::NAN; 2];
        SumLen.evaluate_batch(
            &genomes,
            &lineage,
            &parents,
            &mut with,
            &mut with_objectives,
        );
        let mut without = vec![f64::NAN; 2];
        let mut without_objectives = vec![Objectives::NAN; 2];
        SumLen.evaluate_batch(
            &genomes,
            &[None, None],
            &[],
            &mut without,
            &mut without_objectives,
        );
        assert_eq!(with, without);
        assert_eq!(with_objectives, without_objectives);
    }

    #[test]
    fn closures_implement_the_trait() {
        let f = |genes: &[bool]| genes.len() as f64;
        assert_eq!(f.evaluate(&[true, true]), 2.0);
        let mut scores = [f64::NAN; 2];
        let mut objectives = [Objectives::NAN; 2];
        f.evaluate_batch(
            &[vec![], vec![false]],
            &[None, None],
            &[],
            &mut scores,
            &mut objectives,
        );
        assert_eq!(scores, [0.0, 1.0]);
    }
}
