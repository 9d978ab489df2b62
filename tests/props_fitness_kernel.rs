//! Property tests pinning the allocation-free fitness kernel to the legacy
//! path: for every histogram, K/L shape, and genome — feasible or not —
//! `MvFitness::evaluate_scratch` must return the **bit-identical** `f64`
//! that the legacy `MvSet::from_genes` → `Covering` → `huffman_code` →
//! `encoded_size` pipeline produces.

use evotc::bits::{BlockHistogram, TestPattern, TestSet, TestSetString, Trit};
use evotc::core::{encoded_size, encoded_size_scratch, EvalScratch, MvFitness, MvSet};
use evotc::evo::{parallel, FitnessEval};
use proptest::prelude::*;

/// The K/L shapes the properties sweep: small and paper-adjacent, odd and
/// even K, L from tiny to wider than the distinct-block count.
const SHAPES: [(usize, usize); 4] = [(4, 3), (6, 5), (8, 4), (12, 4)];

fn arb_trits(len: usize) -> impl Strategy<Value = Vec<Trit>> {
    proptest::collection::vec((0u8..3).prop_map(Trit::from_index), len..=len)
}

/// Specified-heavy rows: mostly 0/1 so small MV sets are often *infeasible*
/// without a forced all-`U` vector.
fn arb_dense_rows(width: usize) -> impl Strategy<Value = Vec<Vec<Trit>>> {
    proptest::collection::vec(
        proptest::collection::vec(any::<bool>(), width..=width)
            .prop_map(|bs| bs.into_iter().map(Trit::from_bool).collect::<Vec<_>>()),
        1..10,
    )
}

fn histogram_for(rows: &[Vec<Trit>], k: usize) -> (BlockHistogram, f64) {
    let patterns: TestSet = rows.iter().map(|t| TestPattern::from_trits(t)).collect();
    let string = TestSetString::new(&patterns, k);
    let hist = BlockHistogram::from_string(&string);
    let bits = string.payload_bits() as f64;
    (hist, bits)
}

/// The legacy fitness computation, spelled out independently of `MvFitness`
/// so the property does not compare the kernel against itself.
fn legacy_fitness(
    k: usize,
    force_all_u: bool,
    hist: &BlockHistogram,
    bits: f64,
    g: &[Trit],
) -> f64 {
    MvSet::from_genes(k, g, force_all_u)
        .ok()
        .and_then(|mvs| encoded_size(&mvs, hist))
        .map_or(MvFitness::INFEASIBLE, |size| {
            100.0 * (bits - size as f64) / bits
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Kernel == legacy over X-rich random rows for every shape, with and
    /// without the forced all-`U` vector, through one reused scratch.
    #[test]
    fn kernel_matches_legacy_on_sparse_rows(
        rows in proptest::collection::vec(arb_trits(12), 1..10),
        genome_bits in proptest::collection::vec((0u8..3).prop_map(Trit::from_index), 48..=48),
    ) {
        let mut scratch = EvalScratch::new();
        for &(k, l) in &SHAPES {
            let (hist, bits) = histogram_for(&rows, k);
            let genes = &genome_bits[..k * l.min(48 / k)];
            for force in [false, true] {
                let fitness = MvFitness::new(k, force, &hist, bits);
                let fast = fitness.evaluate_scratch(genes, &mut scratch);
                let slow = legacy_fitness(k, force, &hist, bits, genes);
                prop_assert_eq!(
                    fast.to_bits(), slow.to_bits(),
                    "K={} L={} force={} fast={} slow={}", k, l, force, fast, slow
                );
                // The trait's single-genome path is the legacy one; the
                // batch path is the kernel. All three must agree.
                prop_assert_eq!(fitness.evaluate(genes).to_bits(), fast.to_bits());
            }
        }
    }

    /// Infeasible genomes (no all-`U` safety net over dense rows) take the
    /// sentinel on both paths; feasible ones agree bit-for-bit.
    #[test]
    fn kernel_matches_legacy_including_infeasible(
        rows in arb_dense_rows(8),
        genomes in proptest::collection::vec(arb_trits(4 * 3), 1..12),
    ) {
        let (hist, bits) = histogram_for(&rows, 4);
        let fitness = MvFitness::new(4, false, &hist, bits);
        let mut scratch = EvalScratch::new();
        let mut saw_infeasible = false;
        for g in &genomes {
            let fast = fitness.evaluate_scratch(g, &mut scratch);
            let slow = legacy_fitness(4, false, &hist, bits, g);
            prop_assert_eq!(fast.to_bits(), slow.to_bits());
            saw_infeasible |= fast == MvFitness::INFEASIBLE;
        }
        // Not an assertion — but the shape is chosen so both classes occur
        // across the run; the check below keeps the batch path honest.
        let _ = saw_infeasible;
        let scores = parallel::evaluate(&fitness, &genomes, 1);
        for (g, &s) in genomes.iter().zip(&scores) {
            prop_assert_eq!(s.to_bits(), fitness.evaluate(g).to_bits());
        }
    }

    /// The raw size kernel agrees with `encoded_size` on explicit MV sets
    /// (covering order already established by `MvSet`).
    #[test]
    fn size_kernel_matches_encoded_size(
        rows in proptest::collection::vec(arb_trits(12), 1..8),
        mvs in proptest::collection::vec(arb_trits(6), 1..6),
    ) {
        let (hist, _) = histogram_for(&rows, 6);
        let sliced = evotc::bits::SlicedHistogram::from_histogram(&hist);
        let vectors: Vec<evotc::core::MatchingVector> = mvs
            .iter()
            .map(|t| evotc::core::MatchingVector::from_trits(t).unwrap())
            .collect();
        let set = MvSet::new(6, vectors).unwrap().with_all_u();
        let genes = set.to_genes();
        let mut scratch = EvalScratch::new();
        let fast = encoded_size_scratch(&sliced, &genes, false, &mut scratch);
        let slow = encoded_size(&set, &hist);
        prop_assert_eq!(fast, slow);
    }
}
