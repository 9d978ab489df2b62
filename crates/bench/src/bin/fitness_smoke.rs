//! Quick fitness-kernel perf smoke: measures evaluations/second of the
//! legacy fitness path, the allocation-free bit-sliced kernel, and the
//! incremental path the EA runs — children priced read-only against one
//! cached parent — under single-gene, crossover and inversion child
//! streams, all at the paper-default shape (K=12, L=64, shared
//! `fitness_fixture` workload), plus the whole-run `evals/sec` of a real EA
//! and the multi-objective vector path (`multiobjective_evals_per_sec`),
//! and writes `BENCH_fitness.json` (with the host it ran on) so the repo
//! carries a perf trajectory across PRs. The correctness gates cover the
//! objective vector too: kernel side-channel objectives vs the covering
//! oracle on every genome, and the incrementally priced transition and
//! used-MV counts vs the full recompute on every child.
//!
//! Every child stream prices the children of one cached *evolved* parent
//! (a short deterministic EA run on the workload), which is what the
//! engine's shared parent cache does for a generation in its steady state.
//! The single-gene stream redraws one gene per child (one changed MV chunk)
//! and goes through the cost-gated `encoded_size_probe`, exactly as
//! `MvFitness` does. The multi-chunk streams are priced without the cost
//! gate (`encoded_size_incremental`), so every child reaches the patch
//! path: the mixed stream has crossover and inversion children 3:1 (the
//! paper's 0.30/0.10 operator probabilities) with edit windows spanning 2–5
//! MV chunks, crossover partners drawn from a converged population (the
//! evolved individual a few point mutations apart), which is what
//! selection actually breeds from after the first generations.
//! Pure-crossover and pure-inversion streams are measured separately as
//! well — inversion children genuinely rewrite every chunk their window
//! touches, so they bound the patch path's worst case, while crossover
//! children against converged parents bound its best.
//!
//! Runs in a few seconds ("quick mode"). In CI the correctness gate runs
//! gating (`--check-only`) and the timed run is a separate non-gating step:
//! a slow shared runner must not fail the build, but a bitwise divergence
//! between any two paths must. Locally:
//!
//! ```text
//! cargo run --release -p evotc_bench --bin fitness_smoke
//! ```
//!
//! Exits non-zero only if the paths disagree on any genome or child (a
//! correctness failure, not a perf one).

use std::ops::Range;
use std::time::{Duration, Instant};

use evotc_bench::fitness_fixture::{paper_histogram, random_genomes, BLOCK_LEN, NUM_MVS};
use evotc_bench::host_json_fields;
use evotc_bits::{SlicedHistogram, Trit};
use evotc_core::{
    encoded_size_incremental, encoded_size_probe, encoded_size_rebuild, encoded_size_scratch,
    EvalCache, EvalScratch, IncrementalOutcome, MvFitness, PatchScratch,
};
use evotc_core::{trit_checkpoint_from_bytes, trit_checkpoint_to_bytes};
use evotc_evo::{EaBuilder, EaCheckpoint, EaConfig, FitnessEval, Lineage, Objectives};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const GENOMES: usize = 128;
/// Children per stream workload (single-gene, crossover, inversion alike).
const STREAM_LEN: usize = 256;
/// Wall-clock budget per measured path; quick mode stays CI-friendly.
const MEASURE: Duration = Duration::from_millis(1500);
/// The fixture's genome length.
const GENOME_LEN: usize = BLOCK_LEN * NUM_MVS;

/// A deterministic stream of single-gene children of one fixed parent —
/// each the parent with one redrawn gene, paired with its edit window.
fn single_gene_children(
    parent: &[Trit],
    steps: usize,
    seed: u64,
) -> Vec<(Range<usize>, Vec<Trit>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..steps)
        .map(|_| {
            let pos = rng.gen_range(0..parent.len());
            let mut child = parent.to_vec();
            child[pos] = Trit::from_index(rng.gen_range(0..3u8));
            (pos..pos + 1, child)
        })
        .collect()
}

/// A random edit window spanning 2..=5 MV chunks (length `K+1 ..= 4K`
/// genes guarantees at least two chunks are overlapped, aligned or not) —
/// the multi-chunk shape the paper's crossover/inversion operators produce.
fn multichunk_window(rng: &mut StdRng) -> Range<usize> {
    let span = rng.gen_range(BLOCK_LEN + 1..=4 * BLOCK_LEN);
    let start = rng.gen_range(0..=GENOME_LEN - span);
    start..start + span
}

/// The operator of one multi-chunk stream child.
#[derive(Clone, Copy, PartialEq)]
enum MultiOp {
    /// Swap the window's content in from a partner (paper p = 0.30).
    Crossover,
    /// Reverse the window in place (paper p = 0.10).
    Inversion,
}

/// A deterministic stream of multi-chunk children of one fixed parent —
/// the genomes the engine probes read-only against the cached parent in
/// one steady-state generation. `ops` cycles over the operator pattern
/// (e.g. 3 crossovers per inversion, the paper's 0.30/0.10 ratio).
fn multichunk_children(
    parent: &[Trit],
    partners: &[Vec<Trit>],
    ops: &[MultiOp],
    steps: usize,
    seed: u64,
) -> Vec<(Range<usize>, Vec<Trit>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..steps)
        .map(|t| {
            let window = multichunk_window(&mut rng);
            let mut child = parent.to_vec();
            match ops[t % ops.len()] {
                MultiOp::Crossover => {
                    let partner = &partners[t % partners.len()];
                    child[window.clone()].copy_from_slice(&partner[window.clone()]);
                }
                MultiOp::Inversion => child[window.clone()].reverse(),
            }
            (window, child)
        })
        .collect()
}

/// The steady-state fixture: an individual evolved on the workload (a
/// short, deterministic EA run) plus a converged population around it —
/// the evolved genome a few point mutations apart, which is what `(S+C)`
/// truncation selection actually keeps after the first generations.
fn evolved_parent_and_partners(
    histogram: &evotc_bits::BlockHistogram,
    payload_bits: f64,
) -> (Vec<Trit>, Vec<Vec<Trit>>) {
    let fitness = MvFitness::new(BLOCK_LEN, true, histogram, payload_bits);
    let config = EaConfig::builder()
        .stagnation_limit(usize::MAX)
        .max_evaluations(4_000)
        .seed(5)
        .threads(1)
        .build();
    let evolved = EaBuilder::new(
        GENOME_LEN,
        |rng: &mut StdRng| Trit::from_index(rng.gen_range(0..3u8)),
        fitness,
    )
    .config(config)
    .run()
    .best_genome;
    let mut rng = StdRng::seed_from_u64(99);
    let partners = (0..7)
        .map(|_| {
            let mut g = evolved.clone();
            for _ in 0..6 {
                let pos = rng.gen_range(0..g.len());
                g[pos] = Trit::from_index(rng.gen_range(0..3u8));
            }
            g
        })
        .collect();
    (evolved, partners)
}

/// Runs `eval_all` (which claims `per_pass` evaluations) repeatedly for the
/// budget and returns evaluations/sec.
fn throughput(per_pass: u64, mut eval_all: impl FnMut() -> f64) -> f64 {
    // Warm-up pass (first-touch allocations, cold caches).
    std::hint::black_box(eval_all());
    let start = Instant::now();
    let mut evals = 0u64;
    while start.elapsed() < MEASURE {
        std::hint::black_box(eval_all());
        evals += per_pass;
    }
    evals as f64 / start.elapsed().as_secs_f64()
}

fn fail(message: &str) -> ! {
    eprintln!("FAIL: {message}");
    std::process::exit(1);
}

fn main() {
    let check_only = std::env::args().any(|a| a == "--check-only");
    let (histogram, payload_bits) = paper_histogram();
    let fitness = MvFitness::new(BLOCK_LEN, true, &histogram, payload_bits);
    let sliced = SlicedHistogram::from_histogram(&histogram);
    let genomes = random_genomes(GENOMES, GENOME_LEN, 42);

    // Correctness gate 1: bit-identical fitness, kernel vs legacy, on every
    // random genome — and the full objective vector (encoded bits, scan
    // transitions, decoder gate equivalents) must match between the
    // kernel's side-channels and the covering-based oracle.
    let mut scratch = EvalScratch::new();
    for g in &genomes {
        let (legacy, oracle_objectives) = fitness.evaluate_oracle(g);
        let (kernel, kernel_objectives) = fitness.evaluate_with_objectives(g, &mut scratch);
        if legacy.to_bits() != kernel.to_bits() {
            fail(&format!("kernel {kernel} != legacy {legacy}"));
        }
        if oracle_objectives != kernel_objectives {
            fail(&format!(
                "kernel objectives {kernel_objectives:?} != oracle {oracle_objectives:?}"
            ));
        }
    }

    // The steady-state fixture every child stream prices against: the
    // evolved parent, cached once, and its converged partners.
    let (evolved, partners) = evolved_parent_and_partners(&histogram, payload_bits);
    let mut parent_cache = EvalCache::new();
    encoded_size_rebuild(&sliced, &evolved, true, &mut parent_cache);
    let mut patch = PatchScratch::new();

    // Correctness gate 2: single-gene children of the cached evolved parent,
    // priced the way the EA prices them — through the gated probe, which
    // never declines a one-chunk edit, and through `MvFitness`'s batch call
    // with lineage — must match the full kernel bit-for-bit, transition and
    // used-MV counts included.
    let single = single_gene_children(&evolved, STREAM_LEN, 7);
    for (step, (window, child)) in single.iter().enumerate() {
        let full = encoded_size_scratch(&sliced, child, true, &mut scratch);
        let objectives = (scratch.last_scan_transitions(), scratch.last_used_mvs());
        let probe = encoded_size_probe(&sliced, child, true, window, &parent_cache, &mut patch);
        if probe != IncrementalOutcome::Size(full) {
            fail(&format!(
                "single-gene probe {probe:?} != full {full:?} at child {step} (window {window:?})"
            ));
        }
        if full.is_some() && (patch.last_scan_transitions(), patch.last_used_mvs()) != objectives {
            fail(&format!(
                "single-gene probe objectives (t={}, used={}) != full {objectives:?} at child {step}",
                patch.last_scan_transitions(),
                patch.last_used_mvs(),
            ));
        }
    }
    let (lineage, children): (Vec<_>, Vec<_>) = single
        .iter()
        .map(|(window, child)| (Some(Lineage::new(0, window.clone())), child.clone()))
        .unzip();
    let mut scores = vec![f64::NAN; children.len()];
    let mut vectors = vec![Objectives::NAN; children.len()];
    fitness.evaluate_batch(&children, &lineage, &[&evolved], &mut scores, &mut vectors);
    for (step, (child, (&score, &vector))) in
        children.iter().zip(scores.iter().zip(&vectors)).enumerate()
    {
        let (full, full_vector) = fitness.evaluate_with_objectives(child, &mut scratch);
        if score.to_bits() != full.to_bits() || vector != full_vector {
            fail(&format!(
                "lineage batch ({score}, {vector:?}) != full ({full}, {full_vector:?}) at child {step}"
            ));
        }
    }

    // Correctness gate 3: the multi-chunk patch path must match the full
    // kernel bit-for-bit on every child of the steady-state streams —
    // mixed crossover/inversion, pure crossover, and pure inversion —
    // priced without the cost gate against the cached evolved parent, with
    // the side-channel objectives read from the scratch. The gated probe,
    // which is how the engine's shared parent cache prices a generation,
    // must answer the same or decline the patch.
    let mixed_ops = [
        MultiOp::Crossover,
        MultiOp::Crossover,
        MultiOp::Crossover,
        MultiOp::Inversion,
    ];
    let mixed = multichunk_children(&evolved, &partners, &mixed_ops, STREAM_LEN, 11);
    let crossover = multichunk_children(&evolved, &partners, &[MultiOp::Crossover], STREAM_LEN, 13);
    let inversion = multichunk_children(&evolved, &partners, &[MultiOp::Inversion], STREAM_LEN, 17);
    for (name, stream) in [
        ("mixed", &mixed),
        ("crossover", &crossover),
        ("inversion", &inversion),
    ] {
        for (step, (window, child)) in stream.iter().enumerate() {
            let full = encoded_size_scratch(&sliced, child, true, &mut scratch);
            let objectives = (scratch.last_scan_transitions(), scratch.last_used_mvs());
            let ungated =
                encoded_size_incremental(&sliced, child, true, window, &parent_cache, &mut patch);
            if ungated != IncrementalOutcome::Size(full) {
                fail(&format!(
                    "{name} price {ungated:?} != full {full:?} at child {step} (window {window:?})"
                ));
            }
            if full.is_some()
                && (patch.last_scan_transitions(), patch.last_used_mvs()) != objectives
            {
                fail(&format!(
                    "{name} patched objectives (t={}, used={}) != full {objectives:?} \
                     at child {step}",
                    patch.last_scan_transitions(),
                    patch.last_used_mvs(),
                ));
            }
            // The gated probe: the same answer with the same objectives, or
            // `NeedsFull` — never for a window inside one chunk.
            let one_chunk = window.start / BLOCK_LEN == (window.end - 1) / BLOCK_LEN;
            match encoded_size_probe(&sliced, child, true, window, &parent_cache, &mut patch) {
                IncrementalOutcome::NeedsFull if one_chunk => fail(&format!(
                    "{name} gated probe declined a one-chunk edit at child {step}"
                )),
                IncrementalOutcome::NeedsFull => {}
                gated if gated != ungated => fail(&format!(
                    "{name} gated probe {gated:?} != full {full:?} at child {step}"
                )),
                _ if full.is_some()
                    && (patch.last_scan_transitions(), patch.last_used_mvs()) != objectives =>
                {
                    fail(&format!(
                        "{name} gated probe objectives differ from full at child {step}"
                    ))
                }
                _ => {}
            }
        }
    }
    // Correctness gate 4: an island-topology run must be byte-identical for
    // every thread count at a fixed seed — the engine's determinism contract
    // extended from fitness batches to whole runs.
    let island_run = |threads: usize| {
        let config = EaConfig::builder()
            .stagnation_limit(usize::MAX)
            .max_evaluations(3_000)
            .islands(4, 5, 2)
            .seed(3)
            .threads(threads)
            .build();
        EaBuilder::new(
            GENOME_LEN,
            |rng: &mut StdRng| Trit::from_index(rng.gen_range(0..3u8)),
            MvFitness::new(BLOCK_LEN, true, &histogram, payload_bits),
        )
        .config(config)
        .run()
    };
    let island_ref = island_run(1);
    for threads in [2, 4] {
        let other = island_run(threads);
        if other.best_genome != island_ref.best_genome
            || other.best_fitness.to_bits() != island_ref.best_fitness.to_bits()
            || other.generations != island_ref.generations
            || other.evaluations != island_ref.evaluations
        {
            fail(&format!(
                "island run diverged between threads=1 and threads={threads}"
            ));
        }
    }

    // Correctness gate 5: interrupting the island run at any periodic
    // checkpoint and resuming through the serialized trit byte codec must
    // reproduce the uninterrupted run exactly — the robustness contract
    // the engine's proptests gate, re-checked here on the paper workload.
    let ckpt_config = EaConfig::builder()
        .stagnation_limit(usize::MAX)
        .max_evaluations(3_000)
        .islands(4, 5, 2)
        .seed(3)
        .threads(2)
        .build();
    let ckpt_run = |resume: Option<evotc_evo::EaCheckpoint<Trit>>,
                    blobs: Option<&std::cell::RefCell<Vec<Vec<u8>>>>| {
        let mut builder = EaBuilder::new(
            GENOME_LEN,
            |rng: &mut StdRng| Trit::from_index(rng.gen_range(0..3u8)),
            MvFitness::new(BLOCK_LEN, true, &histogram, payload_bits),
        )
        .config(ckpt_config.clone());
        if let Some(checkpoint) = resume {
            builder = builder.resume_from(checkpoint);
        }
        if let Some(blobs) = blobs {
            builder = builder.checkpoint_every(5, move |cp: &EaCheckpoint<Trit>| {
                blobs.borrow_mut().push(trit_checkpoint_to_bytes(cp));
                Ok(())
            });
        }
        builder.run()
    };
    let blobs = std::cell::RefCell::new(Vec::new());
    let ckpt_reference = ckpt_run(None, Some(&blobs));
    let blobs = blobs.into_inner();
    if blobs.is_empty() {
        fail("island run produced no periodic checkpoints");
    }
    for (k, blob) in blobs.iter().enumerate() {
        let checkpoint = match trit_checkpoint_from_bytes(blob) {
            Ok(checkpoint) => checkpoint,
            Err(e) => fail(&format!("checkpoint {k} failed to round-trip: {e}")),
        };
        let resumed = ckpt_run(Some(checkpoint), None);
        if resumed.best_genome != ckpt_reference.best_genome
            || resumed.best_fitness.to_bits() != ckpt_reference.best_fitness.to_bits()
            || resumed.generations != ckpt_reference.generations
            || resumed.evaluations != ckpt_reference.evaluations
        {
            fail(&format!(
                "resume from checkpoint {k} diverged from the uninterrupted run"
            ));
        }
    }

    if check_only {
        println!(
            "fitness kernel == legacy on {GENOMES} genomes (objective vectors \
             included); incremental == full on {STREAM_LEN}-child single-gene \
             (gated probe and lineage batch) and multi-chunk crossover/inversion streams, \
             transition objective included; island runs thread-invariant and \
             checkpoint/resume-exact through the byte codec \
             (K={BLOCK_LEN}, L={NUM_MVS})"
        );
        return;
    }

    let legacy_eps = throughput(GENOMES as u64, || {
        genomes.iter().map(|g| fitness.evaluate(g)).sum()
    });
    let mut scratch = EvalScratch::new();
    let kernel_eps = throughput(GENOMES as u64, || {
        genomes
            .iter()
            .map(|g| fitness.evaluate_scratch(g, &mut scratch))
            .sum()
    });
    let speedup = kernel_eps / legacy_eps;

    // The multi-objective surface: same kernel pass, but returning the full
    // (encoded bits, transitions, area) vector. The transition and used-MV
    // side-channels ride the covering scan and area is a closed form, so
    // this should track `kernel_evals_per_sec` closely; the ratio makes the
    // overhead of the vector path visible across PRs.
    let multiobjective_eps = throughput(GENOMES as u64, || {
        genomes
            .iter()
            .map(|g| fitness.evaluate_with_objectives(g, &mut scratch).0)
            .sum()
    });
    let multiobjective_overhead = kernel_eps / multiobjective_eps;

    // The child streams: one parent rebuild, then STREAM_LEN children priced
    // read-only off the cached parent. The single-gene stream goes through
    // the gated probe the EA runs; the multi-chunk streams through the
    // ungated price, so every child takes the patch path (the cost gate's
    // fallbacks would only measure the kernel). The full-kernel reference
    // prices exactly the same genomes from scratch.
    let per_pass = (STREAM_LEN + 1) as u64;
    let measure_stream = |stream: &[(Range<usize>, Vec<Trit>)], gated: bool| {
        let mut scratch = EvalScratch::new();
        let full_eps = throughput(per_pass, || {
            let mut acc = encoded_size_scratch(&sliced, &evolved, true, &mut scratch)
                .unwrap_or_default() as f64;
            for (_, child) in stream {
                acc += encoded_size_scratch(&sliced, child, true, &mut scratch).unwrap_or_default()
                    as f64;
            }
            acc
        });
        let mut parent_cache = EvalCache::new();
        let mut patch = PatchScratch::new();
        let inc_eps = throughput(per_pass, || {
            let mut acc = encoded_size_rebuild(&sliced, &evolved, true, &mut parent_cache)
                .unwrap_or_default() as f64;
            for (window, child) in stream {
                let price = if gated {
                    encoded_size_probe(&sliced, child, true, window, &parent_cache, &mut patch)
                } else {
                    encoded_size_incremental(
                        &sliced,
                        child,
                        true,
                        window,
                        &parent_cache,
                        &mut patch,
                    )
                };
                if let IncrementalOutcome::Size(size) = price {
                    acc += size.unwrap_or_default() as f64;
                }
            }
            acc
        });
        (full_eps, inc_eps, inc_eps / full_eps)
    };
    let (single_full_eps, single_probe_eps, single_probe_speedup) = measure_stream(&single, true);
    let (mixed_full_eps, mixed_inc_eps, multichunk_speedup) = measure_stream(&mixed, false);
    let (cross_full_eps, cross_inc_eps, crossover_speedup) = measure_stream(&crossover, false);
    let (inv_full_eps, inv_inc_eps, inversion_speedup) = measure_stream(&inversion, false);

    // Whole-run throughput: a real EA over the same histogram, full
    // operator mix, incremental path and shared parent cache on — against
    // the identical run with the lineage dropped (full kernel for every
    // child). This is the number the stream microbenches exist to move.
    struct NoLineage<'a>(MvFitness<'a>);
    impl FitnessEval<Trit> for NoLineage<'_> {
        fn evaluate(&self, genes: &[Trit]) -> f64 {
            self.0.evaluate(genes)
        }
        fn evaluate_batch(
            &self,
            genomes: &[Vec<Trit>],
            _: &[Option<Lineage>],
            _: &[&[Trit]],
            out: &mut [f64],
            objectives: &mut [Objectives],
        ) {
            let none = vec![None; genomes.len()];
            self.0.evaluate_batch(genomes, &none, &[], out, objectives);
        }
    }
    let ea_config = EaConfig::builder()
        .population_size(10)
        .children_per_generation(5)
        .stagnation_limit(usize::MAX)
        .max_evaluations(20_000)
        .seed(3)
        .threads(1)
        .build();
    let sample = |rng: &mut StdRng| Trit::from_index(rng.gen_range(0..3u8));
    // Whole-run timings are single ~50 ms runs, so a noisy shared runner
    // can distort any one of them badly; each run is repeated and the best
    // throughput kept (the usual min-time estimator — the runs are
    // deterministic, so they only differ by scheduler interference).
    const EA_RUNS: usize = 5;
    let best_of = |run: &dyn Fn() -> evotc_evo::EaResult<Trit>| {
        let mut best = run();
        for _ in 1..EA_RUNS {
            let next = run();
            if next.evaluations_per_sec() > best.evaluations_per_sec() {
                best = next;
            }
        }
        best
    };
    let result = best_of(&|| {
        EaBuilder::new(GENOME_LEN, sample, fitness.clone())
            .config(ea_config.clone())
            .run()
    });
    let baseline = best_of(&|| {
        EaBuilder::new(GENOME_LEN, sample, NoLineage(fitness.clone()))
            .config(ea_config.clone())
            .run()
    });
    if result.best_fitness.to_bits() != baseline.best_fitness.to_bits() {
        fail("lineage cache changed the EA result");
    }
    let ea_eps = result.evaluations_per_sec();
    let ea_full_eps = baseline.evaluations_per_sec();
    let ea_speedup = ea_eps / ea_full_eps;
    let ea_cache = result.cache.unwrap_or_default();

    // Island-model scaling: one island config — four islands, ring
    // migration every 10 generations — at one thread and at the auto
    // thread count. Per-island breeding and evaluation are serial within
    // an island, so any speedup comes from islands running concurrently;
    // the two runs compute the identical trajectory.
    let island_threads = evotc_evo::parallel::resolve_threads(0);
    let island_run = |threads: usize| {
        let config = EaConfig::builder()
            .population_size(10)
            .children_per_generation(5)
            .stagnation_limit(usize::MAX)
            .max_evaluations(20_000)
            .islands(4, 10, 2)
            .seed(3)
            .threads(threads)
            .build();
        best_of(&|| {
            EaBuilder::new(GENOME_LEN, sample, fitness.clone())
                .config(config.clone())
                .run()
        })
    };
    let island_serial = island_run(1);
    let island = island_run(island_threads);
    if island.best_genome != island_serial.best_genome {
        fail("island run diverged between threads=1 and the auto thread count");
    }
    let ea_island_1t_eps = island_serial.evaluations_per_sec();
    let ea_island_eps = island.evaluations_per_sec();
    let ea_island_scaling = ea_island_eps / ea_island_1t_eps;

    // Checkpoint cost, on a real mid-run island checkpoint from gate 5:
    // serialize/deserialize latency through the trit byte codec (min-time
    // over repeats), and the steady-state overhead of running the EA with
    // `checkpoint_every(10)` and a serializing sink versus the identical
    // run without one.
    let min_time_us = |f: &mut dyn FnMut()| {
        f(); // warm-up
        let mut best = f64::INFINITY;
        for _ in 0..200 {
            let start = Instant::now();
            f();
            best = best.min(start.elapsed().as_secs_f64() * 1e6);
        }
        best
    };
    let sample_blob = blobs.last().expect("gate 5 checked blobs is non-empty");
    let sample_checkpoint =
        trit_checkpoint_from_bytes(sample_blob).expect("gate 5 round-tripped this blob");
    let checkpoint_save_us = min_time_us(&mut || {
        std::hint::black_box(trit_checkpoint_to_bytes(&sample_checkpoint));
    });
    let checkpoint_resume_us = min_time_us(&mut || {
        std::hint::black_box(trit_checkpoint_from_bytes(sample_blob).unwrap());
    });
    let checkpointed = best_of(&|| {
        EaBuilder::new(GENOME_LEN, sample, fitness.clone())
            .config(ea_config.clone())
            .checkpoint_every(10, |cp: &EaCheckpoint<Trit>| {
                std::hint::black_box(trit_checkpoint_to_bytes(cp));
                Ok(())
            })
            .run()
    });
    let checkpoint_overhead_pct = (ea_eps / checkpointed.evaluations_per_sec() - 1.0) * 100.0;

    println!("workload               : s953 (K={BLOCK_LEN}, L={NUM_MVS})");
    println!("distinct blocks        : {}", histogram.num_distinct());
    println!("legacy eval/s          : {legacy_eps:.0}");
    println!("kernel eval/s          : {kernel_eps:.0}");
    println!("speedup                : {speedup:.2}x");
    println!("multiobjective eval/s  : {multiobjective_eps:.0}");
    println!("multiobjective ovhd    : {multiobjective_overhead:.2}x");
    println!("stream length          : {STREAM_LEN}");
    println!("single-gene full eval/s: {single_full_eps:.0}");
    println!("single-gene probe ev/s : {single_probe_eps:.0}");
    println!("single-gene speedup    : {single_probe_speedup:.2}x");
    println!("multichunk full eval/s : {mixed_full_eps:.0}");
    println!("multichunk eval/s      : {mixed_inc_eps:.0}");
    println!("multichunk speedup     : {multichunk_speedup:.2}x");
    println!("crossover full eval/s  : {cross_full_eps:.0}");
    println!("crossover eval/s       : {cross_inc_eps:.0}");
    println!("crossover speedup      : {crossover_speedup:.2}x");
    println!("inversion full eval/s  : {inv_full_eps:.0}");
    println!("inversion eval/s       : {inv_inc_eps:.0}");
    println!("inversion speedup      : {inversion_speedup:.2}x");
    println!("EA eval/s (cache on)   : {ea_eps:.0}");
    println!("EA eval/s (cache off)  : {ea_full_eps:.0}");
    println!("EA whole-run speedup   : {ea_speedup:.2}x");
    println!("EA cache counters      : {ea_cache}");
    println!("EA island eval/s (1t)  : {ea_island_1t_eps:.0}");
    println!("EA island eval/s ({island_threads}t)  : {ea_island_eps:.0}");
    println!("EA island scaling      : {ea_island_scaling:.2}x (1 -> {island_threads} threads)");
    println!("checkpoint save        : {checkpoint_save_us:.1} us");
    println!("checkpoint resume      : {checkpoint_resume_us:.1} us");
    println!("checkpoint overhead    : {checkpoint_overhead_pct:.2}% (every 10 generations)");

    let json = format!(
        "{{\n  \"bench\": \"fitness_kernel\",\n  {host},\n  \
         \"workload\": \"s953\",\n  \"k\": {k},\n  \
         \"l\": {l},\n  \"distinct_blocks\": {distinct},\n  \"genomes\": {genomes},\n  \
         \"legacy_evals_per_sec\": {legacy:.0},\n  \"kernel_evals_per_sec\": {kernel:.0},\n  \
         \"speedup\": {speedup:.2},\n  \
         \"multiobjective_evals_per_sec\": {multiobjective:.0},\n  \
         \"multiobjective_overhead\": {multiobjective_overhead:.2},\n  \
         \"stream_len\": {stream_len},\n  \
         \"single_gene_full_evals_per_sec\": {single_full:.0},\n  \
         \"single_gene_probe_evals_per_sec\": {single_probe:.0},\n  \
         \"single_gene_probe_speedup\": {single_speedup:.2},\n  \
         \"multichunk_full_evals_per_sec\": {mixed_full:.0},\n  \
         \"multichunk_evals_per_sec\": {mixed_inc:.0},\n  \
         \"multichunk_speedup\": {mixed_speedup:.2},\n  \
         \"crossover_full_evals_per_sec\": {cross_full:.0},\n  \
         \"crossover_evals_per_sec\": {cross_inc:.0},\n  \
         \"crossover_speedup\": {cross_speedup:.2},\n  \
         \"inversion_full_evals_per_sec\": {inv_full:.0},\n  \
         \"inversion_evals_per_sec\": {inv_inc:.0},\n  \
         \"inversion_speedup\": {inv_speedup:.2},\n  \
         \"ea_evals_per_sec\": {ea_eps:.0},\n  \
         \"ea_full_evals_per_sec\": {ea_full_eps:.0},\n  \
         \"ea_speedup\": {ea_speedup:.2},\n  \
         \"ea_island_threads\": {island_threads},\n  \
         \"ea_island_1t_evals_per_sec\": {ea_island_1t_eps:.0},\n  \
         \"ea_island_evals_per_sec\": {ea_island_eps:.0},\n  \
         \"ea_island_scaling\": {ea_island_scaling:.2},\n  \
         \"checkpoint_save_us\": {ckpt_save:.1},\n  \
         \"checkpoint_resume_us\": {ckpt_resume:.1},\n  \
         \"checkpoint_overhead_pct\": {ckpt_ovhd:.2},\n  \
         \"ea_cache_hits\": {hits},\n  \"ea_cache_misses\": {misses},\n  \
         \"ea_cache_fallbacks\": {fallbacks}\n}}\n",
        host = host_json_fields(),
        k = BLOCK_LEN,
        l = NUM_MVS,
        distinct = histogram.num_distinct(),
        genomes = GENOMES,
        legacy = legacy_eps,
        kernel = kernel_eps,
        speedup = speedup,
        multiobjective = multiobjective_eps,
        multiobjective_overhead = multiobjective_overhead,
        stream_len = STREAM_LEN,
        single_full = single_full_eps,
        single_probe = single_probe_eps,
        single_speedup = single_probe_speedup,
        mixed_full = mixed_full_eps,
        mixed_inc = mixed_inc_eps,
        mixed_speedup = multichunk_speedup,
        cross_full = cross_full_eps,
        cross_inc = cross_inc_eps,
        cross_speedup = crossover_speedup,
        inv_full = inv_full_eps,
        inv_inc = inv_inc_eps,
        inv_speedup = inversion_speedup,
        ea_eps = ea_eps,
        ea_full_eps = ea_full_eps,
        ea_speedup = ea_speedup,
        ckpt_save = checkpoint_save_us,
        ckpt_resume = checkpoint_resume_us,
        ckpt_ovhd = checkpoint_overhead_pct,
        hits = ea_cache.hits,
        misses = ea_cache.misses,
        fallbacks = ea_cache.fallbacks,
    );
    let path = "BENCH_fitness.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e} (numbers are above)"),
    }
}
