//! The (S + C) evolutionary engine: one run loop for the panmictic and
//! island-model topologies.

use std::cmp::Ordering;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::checkpoint::{
    config_fingerprint, CheckpointError, CheckpointMember, EaCheckpoint, HistoryRecord,
    IslandCheckpoint,
};
use crate::config::{EaConfig, Ranking, Topology};
use crate::fitness::{FitnessEval, Lineage};
use crate::objective::{Objectives, ParetoArchive, ParetoPoint};
use crate::operators;
use crate::parallel;
use crate::stats::{GenerationEvent, GenerationStats};
use crate::supervisor::{CancelToken, EaError, IslandPanicPolicy, StopReason};

/// A checkpoint consumer installed via [`EaBuilder::checkpoint_every`]. A
/// sink failure is counted on [`EaResult::checkpoint_failures`] and the run
/// continues — losing a checkpoint must never lose the run.
type CheckpointSink<'s, G> = Box<dyn FnMut(&EaCheckpoint<G>) -> Result<(), CheckpointError> + 's>;

/// Composable builder for an evolutionary run over fixed-length genomes of
/// gene type `G`.
///
/// `sample_gene` draws a random gene (used for the initial population and by
/// the mutation operator); `fitness` is any [`FitnessEval`] — a plain
/// `Fn(&[G]) -> f64` closure works — that maps a genome to a score, higher
/// is better. Infeasible genomes should be given a fitness below every
/// feasible one — exactly how the paper handles individuals for which
/// covering is impossible (Section 3.1).
///
/// Breeding emits each generation's children and their [`Lineage`] into a
/// pooled per-population batch (no per-child allocation in the steady
/// state), and the whole batch is scored at once — on up to
/// [`EaConfig::threads`] worker threads for a panmictic run, or one island
/// per worker for an island run (see [`Topology`]). Both topologies run
/// through the same loop: a panmictic run is a one-island run with a
/// one-generation epoch and no migration, on the raw [`EaConfig::seed`]
/// RNG stream (an island run derives one stream per island from it).
/// Results are bit-identical for every thread count.
///
/// # Example
///
/// ```
/// use evotc_evo::{EaBuilder, EaConfig};
///
/// // Maximize the number of `true` genes (one-max).
/// let config = EaConfig::builder()
///     .population_size(8)
///     .children_per_generation(4)
///     .stagnation_limit(50)
///     .seed(1)
///     .build();
/// let result = EaBuilder::new(32, |rng| rand::Rng::gen::<bool>(rng), |genes: &[bool]| {
///     genes.iter().filter(|&&g| g).count() as f64
/// })
/// .config(config)
/// .run();
/// assert!(result.best_fitness >= 30.0);
/// ```
///
/// # Island model
///
/// An island topology evolves `count` subpopulations concurrently, each on
/// its own deterministic RNG stream derived from the run seed, and migrates
/// the rank-best `migrants` of every island to its ring successor every
/// `interval` generations. Same seed + same topology ⇒ byte-identical
/// results at *any* thread count:
///
/// ```
/// use evotc_evo::{EaBuilder, EaConfig, GenerationEvent};
///
/// let config = EaConfig::builder()
///     .islands(4, 5, 2) // 4 islands, migrate 2 by rank every 5 generations
///     .stagnation_limit(20)
///     .seed(1)
///     .build();
/// let mut merged_seen = 0;
/// let result = EaBuilder::new(32, |rng| rand::Rng::gen::<bool>(rng), |genes: &[bool]| {
///     genes.iter().filter(|&&g| g).count() as f64
/// })
/// .config(config)
/// .run_with_observer(|event| {
///     if let GenerationEvent::Merged(_) = event {
///         merged_seen += 1;
///     }
/// });
/// assert_eq!(merged_seen as usize, result.history.len());
/// assert!(result.best_fitness >= 30.0);
/// ```
pub struct EaBuilder<'s, G, SampleGene, F>
where
    SampleGene: Fn(&mut StdRng) -> G,
    F: FitnessEval<G>,
{
    config: EaConfig,
    genome_len: usize,
    sample_gene: SampleGene,
    fitness: F,
    seeds: Vec<Vec<G>>,
    cancel: CancelToken,
    checkpoint_every: u64,
    sink: Option<CheckpointSink<'s, G>>,
    resume: Option<EaCheckpoint<G>>,
}

/// Outcome of an EA run.
#[derive(Debug, Clone)]
pub struct EaResult<G> {
    /// The fittest genome found.
    pub best_genome: Vec<G>,
    /// Its fitness.
    pub best_fitness: f64,
    /// Number of generations executed (excluding the initial population).
    pub generations: u64,
    /// Total number of fitness evaluations (summed over islands).
    pub evaluations: u64,
    /// Merged statistics per generation (index 0 is the initial
    /// population). For island runs, per-island views are only available
    /// through the observer (see [`GenerationEvent`]).
    pub history: Vec<GenerationStats>,
    /// Wall-clock duration of the run (not part of the determinism
    /// contract).
    pub elapsed: Duration,
    /// Final evaluation-cache counters, when the fitness evaluator keeps a
    /// lineage cache (see [`FitnessEval::cache_stats`]). Observability only
    /// — like [`EaResult::elapsed`], not part of the determinism contract.
    pub cache: Option<crate::CacheStats>,
    /// The run's nondominated front over every evaluated genome, sorted by
    /// [`Objectives::lex_cmp`] and bounded by [`EaConfig::pareto_capacity`]
    /// (island runs merge their per-island archives in island order). Empty
    /// unless `pareto_capacity > 0`. Fully deterministic: same seed and
    /// config ⇒ byte-identical front at any thread count.
    pub pareto_front: Vec<ParetoPoint<G>>,
    /// Why the run stopped (see [`StopReason`]). The deterministic reasons
    /// are part of the determinism contract; [`StopReason::Deadline`] and
    /// [`StopReason::Cancelled`] depend on wall-clock but still come with
    /// well-formed best-so-far state.
    pub stop_reason: StopReason,
    /// Islands quarantined after a worker panic under
    /// [`IslandPanicPolicy::Quarantine`], in island order. Always empty
    /// under the default fail-fast policy (the run errors instead) and for
    /// panmictic runs.
    pub quarantined: Vec<usize>,
    /// Number of checkpoint captures whose sink returned an error (see
    /// [`EaBuilder::checkpoint_every`]). Sink failures never stop the run.
    pub checkpoint_failures: u64,
}

impl<G> EaResult<G> {
    /// Fitness-evaluation throughput of the whole run (evaluations per
    /// second). Returns `0.0` before any time has elapsed.
    pub fn evaluations_per_sec(&self) -> f64 {
        crate::stats::evals_per_sec(self.evaluations, self.elapsed)
    }
}

struct Individual<G> {
    genes: Vec<G>,
    fitness: f64,
    objectives: Objectives,
}

/// One generation's brood, bred into pooled buffers: `genomes`, `lineages`
/// and `scores` are parallel arrays refilled each generation, and retired
/// gene buffers return to `pool`, so steady-state breeding allocates
/// nothing.
struct ChildBatch<G> {
    genomes: Vec<Vec<G>>,
    lineages: Vec<Option<Lineage>>,
    scores: Vec<f64>,
    objectives: Vec<Objectives>,
    pool: Vec<Vec<G>>,
}

impl<G> Default for ChildBatch<G> {
    fn default() -> Self {
        ChildBatch {
            genomes: Vec::new(),
            lineages: Vec::new(),
            scores: Vec::new(),
            objectives: Vec::new(),
            pool: Vec::new(),
        }
    }
}

/// One subpopulation's complete evolutionary state. A panmictic run owns
/// one of these, run on the calling thread; an island run owns `count` of
/// them, distributed over worker threads epoch by epoch. Everything an island
/// touches during an epoch lives here, which is what makes island
/// parallelism deterministic by construction.
struct IslandState<G> {
    rng: StdRng,
    population: Vec<Individual<G>>,
    batch: ChildBatch<G>,
    /// This island's own cumulative evaluation count.
    evaluations: u64,
    /// Per-generation statistics of the epoch in flight (drained by the
    /// merge step between epochs).
    epoch_log: Vec<GenerationStats>,
    /// The island's own nondominated archive over everything it evaluated;
    /// `None` when the run has no Pareto mode. Purely observational — it
    /// never feeds back into breeding or selection.
    archive: Option<ParetoArchive<G>>,
}

impl<'s, G, SampleGene, F> EaBuilder<'s, G, SampleGene, F>
where
    G: Copy + Send + Sync,
    SampleGene: Fn(&mut StdRng) -> G + Sync,
    F: FitnessEval<G> + Sync,
{
    /// Starts a run description for genomes of length `genome_len` with the
    /// default [`EaConfig`] (the paper's settings).
    ///
    /// # Panics
    ///
    /// Panics if `genome_len` is zero.
    pub fn new(genome_len: usize, sample_gene: SampleGene, fitness: F) -> Self {
        assert!(genome_len > 0, "genome length must be positive");
        EaBuilder {
            config: EaConfig::default(),
            genome_len,
            sample_gene,
            fitness,
            seeds: Vec::new(),
            cancel: CancelToken::new(),
            checkpoint_every: 0,
            sink: None,
            resume: None,
        }
    }

    /// Replaces the run configuration (population sizes, operator
    /// probabilities, termination, seed, threads, topology).
    pub fn config(mut self, config: EaConfig) -> Self {
        self.config = config;
        self
    }

    /// Injects genomes into the initial population (e.g. the 9C matching-
    /// vector set, which the paper suggests seeding to rule out losses
    /// against the baseline on circuits like s838).
    ///
    /// At most `population_size` seeds are used; the rest of the initial
    /// population stays random. Island runs place the seeds on island 0.
    ///
    /// # Panics
    ///
    /// Panics if a seed genome has the wrong length.
    pub fn seed_population<I>(mut self, genomes: I) -> Self
    where
        I: IntoIterator<Item = Vec<G>>,
    {
        for g in genomes {
            assert_eq!(g.len(), self.genome_len, "seed genome length mismatch");
            self.seeds.push(g);
        }
        self
    }

    /// Installs a shared [`CancelToken`]: once any holder of a clone calls
    /// [`CancelToken::cancel`], the run finishes its current generation
    /// (epoch for island runs) and returns best-so-far state with
    /// [`StopReason::Cancelled`].
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// Captures an [`EaCheckpoint`] every `generations` generations and
    /// hands it to `sink`. Island runs capture at the first epoch boundary
    /// at which at least `generations` generations have passed since the
    /// last capture.
    ///
    /// The checkpoint is a point on the deterministic trajectory: feeding
    /// it to [`EaBuilder::resume_from`] on a fresh builder continues the
    /// run byte-identically to the uninterrupted one, at any thread count.
    /// A sink error is counted on [`EaResult::checkpoint_failures`] and the
    /// run continues — losing a checkpoint never loses the run.
    ///
    /// # Panics
    ///
    /// Panics if `generations` is zero.
    pub fn checkpoint_every(
        mut self,
        generations: u64,
        sink: impl FnMut(&EaCheckpoint<G>) -> Result<(), CheckpointError> + 's,
    ) -> Self {
        assert!(generations > 0, "checkpoint interval must be positive");
        self.checkpoint_every = generations;
        self.sink = Some(Box::new(sink));
        self
    }

    /// Resumes a run from a checkpoint instead of a fresh population.
    ///
    /// The builder's config and genome length must fingerprint-match the
    /// checkpoint (same seed, topology, ranking, budgets, operator
    /// probabilities — everything deterministic; `threads`, `deadline` and
    /// `panic_policy` may differ), or the run fails with
    /// [`EaError::InvalidCheckpoint`]. The restored history prefix is
    /// returned on [`EaResult::history`] with `elapsed`/`cache` cleared
    /// (both are outside the determinism contract) and is **not** replayed
    /// through the observer; population seeds from
    /// [`EaBuilder::seed_population`] are ignored — the checkpointed
    /// populations already embody them.
    pub fn resume_from(mut self, checkpoint: EaCheckpoint<G>) -> Self {
        self.resume = Some(checkpoint);
        self
    }

    /// Runs the algorithm to termination and returns the best individual.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`EaConfig`]) or the run
    /// fails (see [`EaBuilder::try_run`] for the non-panicking variant).
    pub fn run(self) -> EaResult<G> {
        self.run_with_observer(|_| {})
    }

    /// Runs the algorithm, invoking `observer` with per-generation
    /// [`GenerationEvent`]s: merged statistics for every generation, plus —
    /// on island topologies — one per-island event per generation, emitted
    /// before the merged one. Island runs deliver events in batches at
    /// epoch boundaries (generations are merged after all islands finish
    /// the epoch), always in deterministic island-then-generation order.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`EaConfig`]) or the run
    /// fails (see [`EaBuilder::try_run_with_observer`]).
    pub fn run_with_observer(self, observer: impl FnMut(&GenerationEvent<'_>)) -> EaResult<G> {
        match self.try_run_with_observer(observer) {
            Ok(result) => result,
            Err(err) => panic!("EA run failed: {err}"),
        }
    }

    /// Like [`EaBuilder::run`], but run failures — an island worker panic
    /// under the default [`IslandPanicPolicy::Fail`], an invalid resume
    /// checkpoint — come back as a typed [`EaError`] instead of a panic.
    /// Worker panics are contained with `catch_unwind`, so a poisoned
    /// evaluator never aborts the process and never stalls the epoch
    /// barrier: the remaining islands always finish their epoch first.
    ///
    /// # Panics
    ///
    /// Panics only if the configuration itself is invalid (a programming
    /// error, see [`EaConfig`]) — never for runtime failures.
    pub fn try_run(self) -> Result<EaResult<G>, EaError> {
        self.try_run_with_observer(|_| {})
    }

    /// [`EaBuilder::try_run`] with a per-generation observer (see
    /// [`EaBuilder::run_with_observer`] for the event order). On resume,
    /// the restored history prefix is not replayed through the observer.
    pub fn try_run_with_observer(
        self,
        mut observer: impl FnMut(&GenerationEvent<'_>),
    ) -> Result<EaResult<G>, EaError> {
        self.config.validate();
        let start = Instant::now();
        let threads = parallel::resolve_threads(self.config.threads);
        let EaBuilder {
            config,
            genome_len,
            sample_gene,
            fitness,
            mut seeds,
            cancel,
            checkpoint_every,
            mut sink,
            resume,
        } = self;
        let fingerprint = config_fingerprint(&config, genome_len);

        // The one run loop: `count` subpopulations evolve in lockstep
        // epochs of `interval` generations, then the rank-best `migrants`
        // of each island replace the worst of its ring successor. Each
        // island owns an RNG stream derived from the run seed, so the
        // trajectory is a pure function of (seed, topology, config) —
        // worker threads only decide which islands run concurrently, never
        // what they compute. A panmictic run is the one-island case with
        // interval 1 and no migrants, kept on the raw seed stream: it
        // spends its threads inside each generation's batch instead of
        // across islands, and reports only merged events.
        let panmictic = config.topology == Topology::Panmictic;
        let (count, interval, migrants) = match config.topology {
            Topology::Panmictic => (1, 1, 0),
            Topology::Islands {
                count,
                interval,
                migrants,
            } => (count, interval, migrants),
        };
        let (workers, eval_threads) = if panmictic {
            (1, threads)
        } else {
            (threads.min(count), 1)
        };

        let mut history: Vec<GenerationStats> = Vec::new();
        let mut quarantined = vec![false; count];
        let merge = |islands: &mut [IslandState<G>],
                     quarantined: &[bool],
                     observer: &mut dyn FnMut(&GenerationEvent<'_>),
                     history: &mut Vec<GenerationStats>| {
            // All healthy islands logged the same number of generations
            // this epoch; quarantined islands log nothing (a partial epoch
            // is discarded at quarantine time) but their frozen evaluation
            // counts stay in the merged totals, keeping them monotone.
            let logged = islands
                .iter()
                .zip(quarantined)
                .filter(|(_, &q)| !q)
                .map(|(island, _)| island.epoch_log.len())
                .max()
                .unwrap_or(0);
            let frozen: u64 = islands
                .iter()
                .zip(quarantined)
                .filter(|(_, &q)| q)
                .map(|(island, _)| island.evaluations)
                .sum();
            for g in 0..logged {
                let mut evaluations = frozen;
                let mut mean_sum = 0.0;
                // `NaN.max(x) == x`: the panmictic merge reports its one
                // population's best verbatim, NaN included.
                let mut best = if panmictic {
                    f64::NAN
                } else {
                    f64::NEG_INFINITY
                };
                let mut contributors = 0usize;
                let mut generation = 0;
                for (i, island) in islands.iter().enumerate() {
                    if quarantined[i] || island.epoch_log.len() <= g {
                        continue;
                    }
                    let stats = &island.epoch_log[g];
                    if contributors == 0 {
                        generation = stats.generation;
                    }
                    debug_assert_eq!(stats.generation, generation);
                    if !panmictic {
                        observer(&GenerationEvent::Island { island: i, stats });
                    }
                    evaluations += stats.evaluations;
                    mean_sum += stats.mean_fitness;
                    best = best.max(stats.best_fitness);
                    contributors += 1;
                }
                if contributors == 0 {
                    continue;
                }
                let merged = GenerationStats {
                    generation,
                    best_fitness: best,
                    mean_fitness: mean_sum / contributors as f64,
                    evaluations,
                    elapsed: start.elapsed(),
                    cache: fitness.cache_stats(),
                };
                observer(&GenerationEvent::Merged(&merged));
                history.push(merged);
            }
            for island in islands.iter_mut() {
                island.epoch_log.clear();
            }
        };

        let mut islands: Vec<IslandState<G>>;
        let mut best_so_far: f64;
        let mut stagnant: usize;
        let mut generation: u64;
        let mut total_evals: u64;

        if let Some(cp) = resume {
            validate_checkpoint(&cp, &config, genome_len, count)?;
            islands = cp
                .islands
                .iter()
                .map(|island| restore_island(island, &config))
                .collect();
            for (flag, island) in quarantined.iter_mut().zip(&cp.islands) {
                *flag = island.quarantined;
            }
            history = restore_history(&cp.history);
            best_so_far = cp.best_so_far;
            stagnant = cp.stagnant as usize;
            generation = cp.generation;
            total_evals = islands.iter().map(|i| i.evaluations).sum();
        } else {
            // Deterministic initialization: each island's RNG (and
            // therefore its random initial population) comes from its own
            // derived seed, computed here in island order. Seeds go to
            // island 0.
            islands = Vec::with_capacity(count);
            for i in 0..count {
                let rng = StdRng::seed_from_u64(if panmictic {
                    config.seed
                } else {
                    island_seed(config.seed, i as u64)
                });
                let mut island_seeds = if i == 0 {
                    std::mem::take(&mut seeds)
                } else {
                    Vec::new()
                };
                match catch_unwind(AssertUnwindSafe(|| {
                    init_island(
                        &config,
                        rng,
                        genome_len,
                        &mut island_seeds,
                        &sample_gene,
                        &fitness,
                        eval_threads,
                    )
                })) {
                    Ok(island) => islands.push(island),
                    // Initialization failures always fail the run: an
                    // uninitialized island has no healthy state to
                    // quarantine.
                    Err(payload) => {
                        return Err(EaError::IslandFailed {
                            island: i,
                            generation: 0,
                            message: panic_message(payload),
                        })
                    }
                }
            }

            // Initial populations (generation 0).
            for island in islands.iter_mut() {
                island.log_generation(0, start);
            }
            merge(&mut islands, &quarantined, &mut observer, &mut history);

            best_so_far = history[0].best_fitness;
            stagnant = 0;
            generation = 0;
            total_evals = history[0].evaluations;
        }

        let mut checkpoint_failures: u64 = 0;
        let mut last_checkpoint = generation;

        // Termination (stagnation of the merged best, the evaluation
        // budget, the generation cap) is checked at epoch boundaries; an
        // island run can overshoot the stagnation limit or the budget by up
        // to one epoch.
        let stop_reason = loop {
            if let Some(reason) =
                stop_reason_at(&config, &cancel, start, stagnant, total_evals, generation)
            {
                break reason;
            }
            let epoch_gens = interval.min(config.max_generations - generation);
            let failures = for_each_island(&mut islands, &quarantined, workers, |island| {
                for g in 0..epoch_gens {
                    step(&config, &sample_gene, &fitness, eval_threads, island);
                    island.log_generation(generation + g + 1, start);
                }
            });
            // A panmictic failure names the generation it broke in; an
            // island failure names the epoch boundary it surfaced at.
            let failed_at = generation + u64::from(panmictic);
            let mut last_failure: Option<(usize, String)> = None;
            for (i, failure) in failures.into_iter().enumerate() {
                let Some(message) = failure else { continue };
                match config.panic_policy {
                    IslandPanicPolicy::Fail => {
                        return Err(EaError::IslandFailed {
                            island: i,
                            generation: failed_at,
                            message,
                        });
                    }
                    IslandPanicPolicy::Quarantine => {
                        // The island's partial epoch is discarded — its
                        // state may be mid-generation — and it leaves the
                        // run: no more epochs, no migration, no say in the
                        // merged statistics or the final pick.
                        quarantined[i] = true;
                        islands[i].epoch_log.clear();
                        last_failure = Some((i, message));
                    }
                }
            }
            // Quarantining the last healthy island — a panmictic run's
            // only one — fails the run after all.
            if quarantined.iter().all(|&q| q) {
                let (island, message) =
                    last_failure.expect("all islands quarantined implies a failure this epoch");
                return Err(EaError::IslandFailed {
                    island,
                    generation: failed_at,
                    message,
                });
            }
            let merged_from = history.len();
            merge(&mut islands, &quarantined, &mut observer, &mut history);
            for merged in &history[merged_from..] {
                if merged.best_fitness > best_so_far {
                    best_so_far = merged.best_fitness;
                    stagnant = 0;
                } else {
                    stagnant += 1;
                }
            }
            generation += epoch_gens;
            total_evals = islands.iter().map(|i| i.evaluations).sum();

            // Migrate only between epochs: a run that terminates here (cap,
            // budget, or stagnation) never performs a trailing exchange, so
            // an interval beyond the generation cap really means "never".
            let continuing = stagnant < config.stagnation_limit
                && total_evals < config.max_evaluations
                && generation < config.max_generations;
            if continuing {
                migrate(&mut islands, &quarantined, migrants, config.ranking);
            }

            // Checkpoint at the epoch boundary, after migration: the
            // captured state is exactly what the next epoch starts from.
            if checkpoint_every > 0 && generation - last_checkpoint >= checkpoint_every {
                last_checkpoint = generation;
                save_checkpoint(&mut sink, &mut checkpoint_failures, || EaCheckpoint {
                    config_fingerprint: fingerprint,
                    genome_len,
                    generation,
                    stagnant: stagnant as u64,
                    best_so_far,
                    history: history_records(&history),
                    islands: islands
                        .iter()
                        .zip(&quarantined)
                        .map(|(island, &q)| capture_island(island, q))
                        .collect(),
                });
            }
        };

        // Best individual across healthy islands, by the run's ranking;
        // island order breaks exact ties, so the pick is deterministic.
        // Quarantined islands are out: their state may be mid-generation.
        let healthy: Vec<usize> = (0..islands.len()).filter(|&i| !quarantined[i]).collect();
        let best_island = healthy[1..].iter().fold(healthy[0], |best, &i| {
            let better = match config.ranking {
                Ranking::Fitness => {
                    islands[i].population[0].fitness > islands[best].population[0].fitness
                }
                Ranking::Lexicographic => {
                    islands[i].population[0]
                        .objectives
                        .lex_cmp(&islands[best].population[0].objectives)
                        == Ordering::Less
                }
            };
            if better {
                i
            } else {
                best
            }
        });
        // The run's front: healthy islands' archives merged in island order
        // (the merge re-runs nondomination, so the result is the exact
        // front of the union and independent of which island found a point
        // first).
        let pareto_front = if config.pareto_capacity > 0 {
            let mut merged = ParetoArchive::new(config.pareto_capacity);
            for &i in &healthy {
                if let Some(archive) = &islands[i].archive {
                    merged.merge_from(archive);
                }
            }
            merged.reported().to_vec()
        } else {
            Vec::new()
        };
        let best = &islands[best_island].population[0];
        Ok(EaResult {
            best_genome: best.genes.clone(),
            best_fitness: best.fitness,
            generations: generation,
            evaluations: total_evals,
            history,
            elapsed: start.elapsed(),
            cache: fitness.cache_stats(),
            pareto_front,
            stop_reason,
            quarantined: (0..count).filter(|&i| quarantined[i]).collect(),
            checkpoint_failures,
        })
    }
}

/// Derives island `i`'s RNG seed from the run seed: a splitmix64-style
/// mix, so islands get decorrelated streams and island 0 does not alias
/// the panmictic stream of the same seed.
fn island_seed(seed: u64, island: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(island.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The engine's one evaluation call, shared by the initial population
/// (all-`None` lineage) and every generation's children. Runs that neither
/// rank on objective vectors nor archive them (scalar runs) replace the
/// evaluator's vectors with [`Objectives::from_fitness`] of each score, so
/// their trajectories and checkpoints depend on the scalar fitness alone.
#[allow(clippy::too_many_arguments)]
fn evaluate<G, F>(
    config: &EaConfig,
    fitness: &F,
    genomes: &[Vec<G>],
    lineage: &[Option<Lineage>],
    parents: &[&[G]],
    threads: usize,
    scores: &mut Vec<f64>,
    objectives: &mut Vec<Objectives>,
) where
    G: Sync,
    F: FitnessEval<G> + Sync,
{
    parallel::evaluate_into(
        fitness, genomes, lineage, parents, threads, scores, objectives,
    );
    let needs_objectives = config.ranking == Ranking::Lexicographic || config.pareto_capacity > 0;
    if !needs_objectives {
        for (vector, &score) in objectives.iter_mut().zip(scores.iter()) {
            *vector = Objectives::from_fitness(score);
        }
    }
}

/// Stringifies a `catch_unwind` payload for [`EaError::IslandFailed`].
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The single stop check, evaluated at every epoch boundary (every
/// generation for a panmictic run). Conditions are checked in [`StopReason`]
/// declaration order, so the deterministic reasons always win over the
/// wall-clock ones when both hold at the same boundary.
fn stop_reason_at(
    config: &EaConfig,
    cancel: &CancelToken,
    start: Instant,
    stagnant: usize,
    evaluations: u64,
    generation: u64,
) -> Option<StopReason> {
    if stagnant >= config.stagnation_limit {
        Some(StopReason::Converged)
    } else if evaluations >= config.max_evaluations {
        Some(StopReason::EvaluationBudget)
    } else if generation >= config.max_generations {
        Some(StopReason::GenerationCap)
    } else if config.deadline.is_some_and(|d| start.elapsed() >= d) {
        Some(StopReason::Deadline)
    } else if cancel.is_cancelled() {
        Some(StopReason::Cancelled)
    } else {
        None
    }
}

/// Checks that a checkpoint can resume *this* run: same deterministic
/// config (by fingerprint), same genome length, the topology's island
/// count, internally consistent shapes, and at least one healthy island.
fn validate_checkpoint<G>(
    cp: &EaCheckpoint<G>,
    config: &EaConfig,
    genome_len: usize,
    expected_islands: usize,
) -> Result<(), CheckpointError> {
    if cp.config_fingerprint != config_fingerprint(config, genome_len) {
        return Err(CheckpointError::ConfigMismatch);
    }
    if cp.genome_len != genome_len {
        return Err(CheckpointError::Malformed("genome length mismatch"));
    }
    if cp.islands.len() != expected_islands {
        return Err(CheckpointError::Malformed("island count mismatch"));
    }
    if cp.history.len() as u64 != cp.generation + 1 {
        return Err(CheckpointError::Malformed("history length mismatch"));
    }
    if cp.islands.iter().all(|island| island.quarantined) {
        return Err(CheckpointError::Malformed("all islands quarantined"));
    }
    for island in &cp.islands {
        if island.population.len() != config.population_size {
            return Err(CheckpointError::Malformed("population size mismatch"));
        }
        if island
            .population
            .iter()
            .chain(&island.archive)
            .any(|m| m.genes.len() != genome_len)
        {
            return Err(CheckpointError::Malformed("member genome length mismatch"));
        }
    }
    Ok(())
}

/// Rehydrates one island from its checkpoint: exact RNG state, the sorted
/// population with its cached scores and objective vectors, the archive
/// (reinserting a stored front reproduces it exactly — the front is a pure
/// function of the inserted set), and the cumulative evaluation counter.
fn restore_island<G: Copy>(cp: &IslandCheckpoint<G>, config: &EaConfig) -> IslandState<G> {
    let population: Vec<Individual<G>> = cp
        .population
        .iter()
        .map(|m| Individual {
            genes: m.genes.clone(),
            fitness: m.fitness,
            objectives: Objectives(m.objectives),
        })
        .collect();
    let archive = (config.pareto_capacity > 0).then(|| {
        let mut archive = ParetoArchive::new(config.pareto_capacity);
        for m in &cp.archive {
            archive.insert(&m.genes, m.fitness, Objectives(m.objectives));
        }
        archive
    });
    IslandState {
        rng: StdRng::from_state(cp.rng_state),
        population,
        batch: ChildBatch::default(),
        evaluations: cp.evaluations,
        epoch_log: Vec::new(),
        archive,
    }
}

/// Snapshots one island into checkpoint form. The archive section stores
/// the *full* retained front ([`ParetoArchive::points`]), not the
/// capacity-bounded reported prefix, so restoring loses nothing.
fn capture_island<G: Copy>(island: &IslandState<G>, quarantined: bool) -> IslandCheckpoint<G> {
    let member = |genes: &[G], fitness: f64, objectives: Objectives| CheckpointMember {
        genes: genes.to_vec(),
        fitness,
        objectives: objectives.0,
    };
    IslandCheckpoint {
        rng_state: island.rng.to_state(),
        evaluations: island.evaluations,
        quarantined,
        population: island
            .population
            .iter()
            .map(|ind| member(&ind.genes, ind.fitness, ind.objectives))
            .collect(),
        archive: island.archive.as_ref().map_or_else(Vec::new, |archive| {
            archive
                .points()
                .iter()
                .map(|p| member(&p.genome, p.fitness, p.objectives))
                .collect()
        }),
    }
}

/// Projects the history onto its deterministic fields for checkpointing
/// (wall-clock and cache columns are observational, not state).
fn history_records(history: &[GenerationStats]) -> Vec<HistoryRecord> {
    history
        .iter()
        .map(|stats| HistoryRecord {
            generation: stats.generation,
            best_fitness: stats.best_fitness,
            mean_fitness: stats.mean_fitness,
            evaluations: stats.evaluations,
        })
        .collect()
}

/// Rebuilds the history prefix from checkpoint records. The elapsed and
/// cache columns are zero/`None` — a resumed run does not pretend to know
/// the original run's wall clock (documented on
/// [`crate::EaBuilder::resume_from`]).
fn restore_history(records: &[HistoryRecord]) -> Vec<GenerationStats> {
    records
        .iter()
        .map(|record| GenerationStats {
            generation: record.generation,
            best_fitness: record.best_fitness,
            mean_fitness: record.mean_fitness,
            evaluations: record.evaluations,
            elapsed: Duration::ZERO,
            cache: None,
        })
        .collect()
}

/// Builds a checkpoint and hands it to the sink, counting (never
/// propagating) sink failures: a flaky checkpoint store must not kill an
/// otherwise healthy run. The checkpoint is only built when a sink is
/// installed.
fn save_checkpoint<G: Copy>(
    sink: &mut Option<CheckpointSink<'_, G>>,
    failures: &mut u64,
    build: impl FnOnce() -> EaCheckpoint<G>,
) {
    let Some(sink) = sink.as_mut() else {
        return;
    };
    #[cfg(feature = "failpoints")]
    if crate::failpoints::hit(crate::failpoints::site::CHECKPOINT_SINK) {
        *failures += 1;
        return;
    }
    if sink(&build()).is_err() {
        *failures += 1;
    }
}

/// Builds and scores one initial population: injected seeds first, then
/// random individuals drawn from the island's own RNG.
fn init_island<G, SampleGene, F>(
    config: &EaConfig,
    mut rng: StdRng,
    genome_len: usize,
    seeds: &mut Vec<Vec<G>>,
    sample_gene: &SampleGene,
    fitness: &F,
    threads: usize,
) -> IslandState<G>
where
    G: Copy + Send + Sync,
    SampleGene: Fn(&mut StdRng) -> G,
    F: FitnessEval<G> + Sync,
{
    let s = config.population_size;
    let mut batch = ChildBatch::default();
    let mut genomes: Vec<Vec<G>> = seeds.drain(..).take(s).collect();
    while genomes.len() < s {
        genomes.push((0..genome_len).map(|_| sample_gene(&mut rng)).collect());
    }
    batch.lineages.clear();
    batch.lineages.resize(genomes.len(), None);
    evaluate(
        config,
        fitness,
        &genomes,
        &batch.lineages,
        &[],
        threads,
        &mut batch.scores,
        &mut batch.objectives,
    );
    let mut population: Vec<Individual<G>> = genomes
        .into_iter()
        .zip(batch.scores.iter().copied())
        .zip(batch.objectives.iter().copied())
        .map(|((genes, fitness), objectives)| Individual {
            genes,
            fitness,
            objectives,
        })
        .collect();
    let evaluations = population.len() as u64;
    sort_population(&mut population, config.ranking);
    let mut archive =
        (config.pareto_capacity > 0).then(|| ParetoArchive::new(config.pareto_capacity));
    if let Some(archive) = archive.as_mut() {
        for ind in &population {
            archive.insert(&ind.genes, ind.fitness, ind.objectives);
        }
    }
    IslandState {
        rng,
        population,
        batch,
        evaluations,
        epoch_log: Vec::new(),
        archive,
    }
}

impl<G> IslandState<G> {
    /// Logs the island's post-selection statistics for `generation` into
    /// its epoch log (the cache column is left to the merged view).
    fn log_generation(&mut self, generation: u64, start: Instant) {
        let population = &self.population;
        let best = population.first().map_or(f64::NEG_INFINITY, |i| i.fitness);
        let mean = population.iter().map(|i| i.fitness).sum::<f64>() / population.len() as f64;
        self.epoch_log.push(GenerationStats {
            generation,
            best_fitness: best,
            mean_fitness: mean,
            evaluations: self.evaluations,
            elapsed: start.elapsed(),
            cache: None,
        });
    }
}

/// One (S + C) generation: breed `C` children with their lineage into the
/// island's pooled batch, score the batch, then truncation-select the best
/// `S`. Losers donate their gene buffers back to the pool.
fn step<G, SampleGene, F>(
    config: &EaConfig,
    sample_gene: &SampleGene,
    fitness: &F,
    threads: usize,
    island: &mut IslandState<G>,
) where
    G: Copy + Send + Sync,
    SampleGene: Fn(&mut StdRng) -> G,
    F: FitnessEval<G> + Sync,
{
    let s = config.population_size;
    let c = config.children_per_generation;
    let IslandState {
        rng,
        population,
        batch,
        evaluations,
        archive,
        ..
    } = island;
    let ChildBatch {
        genomes: children,
        lineages,
        scores,
        objectives,
        pool,
    } = batch;

    children.clear();
    lineages.clear();
    while children.len() < c {
        let roll: f64 = rng.gen();
        let pa = rng.gen_range(0..s);
        if roll < config.crossover_probability {
            let pb = rng.gen_range(0..s);
            let mut x = pool.pop().unwrap_or_default();
            let mut y = pool.pop().unwrap_or_default();
            let window = operators::crossover_into(
                &population[pa].genes,
                &population[pb].genes,
                rng,
                &mut x,
                &mut y,
            );
            // Per-child edit contract: both children record the *same*
            // swapped window, and that is correct for each — child `x`
            // equals `pa` outside the window and `pb` inside it (child `y`
            // is the mirror image), so the window bounds every position
            // where a child can differ from its primary parent. The genes
            // that *actually* changed are only those where the parents
            // disagree inside the window; lineage deliberately does not
            // narrow to them — evaluators diff at their own patch
            // granularity (e.g. per MV chunk), which subsumes any
            // per-child trimming here. The window-content donor is
            // recorded as the second parent so an evaluator holding only
            // *its* partial results can still price the child (see
            // [`Lineage::second_parent`]).
            children.push(x);
            lineages.push(Some(Lineage::crossover(pa, window.clone(), pb)));
            if children.len() < c {
                children.push(y);
                lineages.push(Some(Lineage::crossover(pb, window, pa)));
            } else {
                pool.push(y);
            }
        } else if roll < config.crossover_probability + config.mutation_probability {
            let mut child = pool.pop().unwrap_or_default();
            let edit =
                operators::mutate_into(&population[pa].genes, rng, |r| sample_gene(r), &mut child);
            children.push(child);
            lineages.push(Some(Lineage::new(pa, edit)));
        } else if roll
            < config.crossover_probability
                + config.mutation_probability
                + config.inversion_probability
        {
            let mut child = pool.pop().unwrap_or_default();
            let edit = operators::invert_into(&population[pa].genes, rng, &mut child);
            children.push(child);
            lineages.push(Some(Lineage::new(pa, edit)));
        } else {
            // Reproduction: copy a parent unchanged. The empty edit range
            // tells the evaluator it is an exact copy.
            let mut child = pool.pop().unwrap_or_default();
            child.clear();
            child.extend_from_slice(&population[pa].genes);
            children.push(child);
            lineages.push(Some(Lineage::new(pa, 0..0)));
        }
    }
    *evaluations += children.len() as u64;
    let parent_genes: Vec<&[G]> = population.iter().map(|i| i.genes.as_slice()).collect();
    evaluate(
        config,
        fitness,
        children,
        lineages,
        &parent_genes,
        threads,
        scores,
        objectives,
    );
    drop(parent_genes);
    if let Some(archive) = archive.as_mut() {
        for ((genes, &score), &obj) in children.iter().zip(scores.iter()).zip(objectives.iter()) {
            archive.insert(genes, score, obj);
        }
    }
    population.extend(
        children
            .drain(..)
            .zip(scores.iter().copied())
            .zip(objectives.iter().copied())
            .map(|((genes, fitness), objectives)| Individual {
                genes,
                fitness,
                objectives,
            }),
    );
    sort_population(population, config.ranking);
    pool.extend(population.drain(s..).map(|individual| individual.genes));
}

/// Ring migration: the rank-best `migrants` of island `i` (post-selection,
/// so exactly its current elite) replace the worst `migrants` of island
/// `i + 1` (mod `count`). Emigrants are snapshotted before any island is
/// modified — migration is simultaneous, not sequential — and they carry
/// their fitness and objective vector (both pure functions of the genome),
/// so migration costs no evaluations. Rank — and therefore which
/// individuals count as "best" — follows the run's [`Ranking`], so
/// lexicographic runs migrate their lexicographic elite. No-op for a
/// single island or `migrants == 0`. Quarantined islands have left the
/// ring: the ring is formed over the healthy islands in index order, so a
/// quarantine neither receives immigrants nor feeds its (possibly
/// mid-generation) elite to a neighbour.
fn migrate<G: Copy>(
    islands: &mut [IslandState<G>],
    quarantined: &[bool],
    migrants: usize,
    ranking: Ranking,
) {
    if migrants == 0 {
        return;
    }
    let ring: Vec<usize> = (0..islands.len()).filter(|&i| !quarantined[i]).collect();
    let count = ring.len();
    if count < 2 {
        return;
    }
    let s = islands[ring[0]].population.len();
    let m = migrants.min(s);
    let outbound: Vec<Vec<(Vec<G>, f64, Objectives)>> = ring
        .iter()
        .map(|&i| {
            islands[i].population[..m]
                .iter()
                .map(|ind| (ind.genes.clone(), ind.fitness, ind.objectives))
                .collect()
        })
        .collect();
    for (pos, &dst) in ring.iter().enumerate() {
        let src = (pos + count - 1) % count;
        let island = &mut islands[dst];
        for (slot, (genes, fit, obj)) in island.population[s - m..].iter_mut().zip(&outbound[src]) {
            slot.genes.clear();
            slot.genes.extend_from_slice(genes);
            slot.fitness = *fit;
            slot.objectives = *obj;
        }
        sort_population(&mut island.population, ranking);
    }
}

/// Runs `f` once per non-skipped island, distributing contiguous island
/// chunks over at most `workers` scoped threads. Each island is touched by
/// exactly one thread and owns all of its state, so the result is
/// independent of the worker count — the same argument
/// [`parallel::evaluate_into`] makes for fitness batches, lifted to whole
/// subpopulations.
///
/// Each island body runs under `catch_unwind`: a panicking island never
/// takes down its worker thread (which may hold other islands of the same
/// chunk) and never stalls the epoch barrier — the scope join always
/// completes. The returned vector has one slot per island, `Some(message)`
/// where that island's body panicked.
fn for_each_island<G, FN>(
    islands: &mut [IslandState<G>],
    skip: &[bool],
    workers: usize,
    f: FN,
) -> Vec<Option<String>>
where
    G: Send,
    FN: Fn(&mut IslandState<G>) + Sync,
{
    let mut failures: Vec<Option<String>> = Vec::new();
    failures.resize_with(islands.len(), || None);
    let run_one = |island: &mut IslandState<G>, slot: &mut Option<String>| {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(island))) {
            *slot = Some(panic_message(payload));
        }
    };
    if workers <= 1 || islands.len() <= 1 {
        for ((island, &skipped), slot) in islands.iter_mut().zip(skip).zip(failures.iter_mut()) {
            if !skipped {
                run_one(island, slot);
            }
        }
        return failures;
    }
    let per = islands.len().div_ceil(workers.max(1));
    std::thread::scope(|scope| {
        for ((chunk, skips), slots) in islands
            .chunks_mut(per)
            .zip(skip.chunks(per))
            .zip(failures.chunks_mut(per))
        {
            let run_one = &run_one;
            scope.spawn(move || {
                for ((island, &skipped), slot) in chunk.iter_mut().zip(skips).zip(slots.iter_mut())
                {
                    if !skipped {
                        run_one(island, slot);
                    }
                }
            });
        }
    });
    failures
}

/// Ranks a population for truncation selection: descending fitness (the
/// scalar arm, where a NaN compares equal to everything) or ascending
/// objective vector (the lexicographic arm). Both sorts are stable, so
/// elders stay ahead of equally ranked children, making runs reproducible.
fn sort_population<G>(population: &mut [Individual<G>], ranking: Ranking) {
    match ranking {
        Ranking::Fitness => {
            population.sort_by(|a, b| b.fitness.partial_cmp(&a.fitness).unwrap_or(Ordering::Equal))
        }
        Ranking::Lexicographic => population.sort_by(|a, b| a.objectives.lex_cmp(&b.objectives)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_max_config(stagnation: usize, seed: u64) -> EaConfig {
        EaConfig::builder()
            .population_size(10)
            .children_per_generation(5)
            .stagnation_limit(stagnation)
            .seed(seed)
            .build()
    }

    fn one_max(genes: &[bool]) -> f64 {
        genes.iter().filter(|&&g| g).count() as f64
    }

    fn run_one_max(seed: u64) -> EaResult<bool> {
        EaBuilder::new(24, |rng| rng.gen::<bool>(), one_max)
            .config(one_max_config(100, seed))
            .run()
    }

    #[test]
    fn solves_one_max() {
        let result = run_one_max(1);
        assert!(
            result.best_fitness >= 22.0,
            "one-max only reached {}",
            result.best_fitness
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run_one_max(7);
        let b = run_one_max(7);
        assert_eq!(a.best_genome, b.best_genome);
        assert_eq!(a.evaluations, b.evaluations);
    }

    #[test]
    fn different_seeds_diverge() {
        let a = run_one_max(1);
        let b = run_one_max(2);
        // Either the genomes or the trajectories differ. `elapsed` differs
        // between any two runs, so compare only the deterministic fields.
        let trajectory = |r: &EaResult<bool>| {
            r.history
                .iter()
                .map(|s| (s.generation, s.best_fitness.to_bits(), s.evaluations))
                .collect::<Vec<_>>()
        };
        assert!(a.best_genome != b.best_genome || trajectory(&a) != trajectory(&b));
    }

    #[test]
    fn thread_count_never_changes_the_trajectory() {
        let run = |threads: usize| {
            let config = EaConfig::builder()
                .population_size(10)
                .children_per_generation(5)
                .stagnation_limit(40)
                .seed(9)
                .threads(threads)
                .build();
            EaBuilder::new(24, |rng| rng.gen::<bool>(), one_max)
                .config(config)
                .run()
        };
        let reference = run(1);
        for threads in [2, 3, 8] {
            let other = run(threads);
            assert_eq!(other.best_genome, reference.best_genome, "t={threads}");
            assert_eq!(other.best_fitness, reference.best_fitness);
            assert_eq!(other.generations, reference.generations);
            assert_eq!(other.evaluations, reference.evaluations);
        }
    }

    #[test]
    fn batch_evaluator_sees_whole_generations() {
        // A custom FitnessEval whose batch override must agree with the
        // closure path: the engine should hand it S first, then C per
        // generation.
        struct Counting;
        impl FitnessEval<bool> for Counting {
            fn evaluate(&self, genes: &[bool]) -> f64 {
                genes.iter().filter(|&&g| g).count() as f64
            }
        }
        let config = one_max_config(100, 7);
        let via_trait = EaBuilder::new(24, |rng| rng.gen::<bool>(), Counting)
            .config(config)
            .run();
        let via_closure = run_one_max(7);
        assert_eq!(via_trait.best_genome, via_closure.best_genome);
        assert_eq!(via_trait.evaluations, via_closure.evaluations);
    }

    #[test]
    fn lineage_names_a_parent_matching_outside_the_edit() {
        // An evaluator that enforces the provenance contract on every child:
        // the initial population (the first batch, the only one without
        // parents) carries no lineage; every batch after it carries lineage
        // on every genome, naming a parent that exists and agrees with the
        // child outside the edit window. Scoring stays one-max, so the run
        // must reproduce the closure path's trajectory exactly.
        struct Checking {
            bred: std::sync::atomic::AtomicBool,
        }
        impl FitnessEval<bool> for Checking {
            fn evaluate(&self, genes: &[bool]) -> f64 {
                genes.iter().filter(|&&g| g).count() as f64
            }
            fn evaluate_batch(
                &self,
                genomes: &[Vec<bool>],
                lineage: &[Option<Lineage>],
                parents: &[&[bool]],
                out: &mut [f64],
                objectives: &mut [Objectives],
            ) {
                use std::sync::atomic::Ordering::SeqCst;
                if parents.is_empty() {
                    assert!(!self.bred.load(SeqCst), "a parentless batch after breeding");
                    assert!(lineage.iter().all(Option::is_none), "initial lineage");
                } else {
                    self.bred.store(true, SeqCst);
                }
                for (((genes, lin), slot), vector) in genomes
                    .iter()
                    .zip(lineage)
                    .zip(out.iter_mut())
                    .zip(objectives)
                {
                    *slot = self.evaluate(genes);
                    *vector = Objectives::from_fitness(*slot);
                    if parents.is_empty() {
                        continue;
                    }
                    let lin = lin.as_ref().expect("engine children always have lineage");
                    let parent = parents[lin.parent_idx];
                    assert_eq!(genes.len(), parent.len(), "child/parent length");
                    assert!(lin.edit.end <= genes.len(), "edit range out of bounds");
                    for k in (0..genes.len()).filter(|k| !lin.edit.contains(k)) {
                        assert_eq!(genes[k], parent[k], "child differs outside {:?}", lin.edit);
                    }
                    // Crossover children name the window-content donor and
                    // must equal it at every position *inside* the window.
                    if let Some(second) = lin.second_parent {
                        let donor = parents[second];
                        for k in lin.edit.clone() {
                            assert_eq!(genes[k], donor[k], "child differs from donor inside");
                        }
                    }
                }
            }
        }
        let config = one_max_config(60, 11);
        let checking = Checking {
            bred: std::sync::atomic::AtomicBool::new(false),
        };
        let checked = EaBuilder::new(24, |rng| rng.gen::<bool>(), checking)
            .config(config.clone())
            .run();
        let plain = EaBuilder::new(24, |rng| rng.gen::<bool>(), one_max)
            .config(config)
            .run();
        assert_eq!(checked.best_genome, plain.best_genome);
        assert_eq!(checked.evaluations, plain.evaluations);
    }

    #[test]
    fn best_fitness_is_monotone_in_history() {
        let result = run_one_max(3);
        let mut prev = f64::NEG_INFINITY;
        for s in &result.history {
            assert!(s.best_fitness >= prev, "elitist selection lost the best");
            prev = s.best_fitness;
        }
    }

    #[test]
    fn history_elapsed_is_monotone_and_result_reports_throughput() {
        let result = run_one_max(2);
        let mut prev = Duration::ZERO;
        for s in &result.history {
            assert!(s.elapsed >= prev, "elapsed went backwards");
            prev = s.elapsed;
        }
        assert!(result.elapsed >= prev);
        assert!(result.evaluations_per_sec() >= 0.0);
    }

    #[test]
    fn respects_evaluation_budget() {
        let config = EaConfig::builder()
            .stagnation_limit(1_000_000)
            .max_evaluations(100)
            .seed(0)
            .build();
        let result = EaBuilder::new(8, |rng| rng.gen::<bool>(), |_: &[bool]| 0.0)
            .config(config)
            .run();
        // Budget may be exceeded by at most one generation's children.
        assert!(result.evaluations <= 105, "{} evals", result.evaluations);
    }

    #[test]
    fn stagnation_terminates_constant_fitness() {
        let result = EaBuilder::new(8, |rng| rng.gen::<bool>(), |_: &[bool]| 1.0)
            .config(one_max_config(5, 0))
            .run();
        assert_eq!(result.generations, 5);
    }

    #[test]
    fn seeding_injects_known_solution() {
        let perfect = vec![true; 24];
        let result = EaBuilder::new(24, |rng| rng.gen::<bool>(), one_max)
            .config(one_max_config(3, 0))
            .seed_population([perfect.clone()])
            .run();
        assert_eq!(result.best_genome, perfect);
        assert_eq!(result.best_fitness, 24.0);
    }

    #[test]
    fn observer_sees_every_generation() {
        let mut seen = 0u64;
        let result = EaBuilder::new(8, |rng| rng.gen::<bool>(), |_: &[bool]| 0.0)
            .config(one_max_config(4, 0))
            .run_with_observer(|event| {
                assert!(matches!(event, GenerationEvent::Merged(_)));
                seen += 1;
            });
        assert_eq!(seen as usize, result.history.len());
        assert_eq!(result.history.len() as u64, result.generations + 1);
    }

    #[test]
    fn infeasible_fitness_is_displaced_by_feasible() {
        // Fitness: -inf unless all genes true (simulating "covering
        // impossible" marking), otherwise 1.0. With an all-true seed the
        // population keeps the feasible individual on top.
        let result = EaBuilder::new(
            4,
            |rng| rng.gen::<bool>(),
            |genes: &[bool]| {
                if genes.iter().all(|&g| g) {
                    1.0
                } else {
                    f64::MIN
                }
            },
        )
        .config(one_max_config(3, 1))
        .seed_population([vec![true; 4]])
        .run();
        assert_eq!(result.best_fitness, 1.0);
    }

    // ---- island topology ----

    fn island_config(count: usize, interval: u64, migrants: usize, seed: u64) -> EaConfig {
        EaConfig::builder()
            .population_size(8)
            .children_per_generation(6)
            .stagnation_limit(25)
            .islands(count, interval, migrants)
            .seed(seed)
            .build()
    }

    fn run_islands_one_max(config: EaConfig) -> EaResult<bool> {
        EaBuilder::new(24, |rng| rng.gen::<bool>(), one_max)
            .config(config)
            .run()
    }

    #[test]
    fn islands_solve_one_max() {
        let result = run_islands_one_max(island_config(4, 5, 2, 1));
        assert!(
            result.best_fitness >= 22.0,
            "island one-max only reached {}",
            result.best_fitness
        );
    }

    #[test]
    fn islands_are_bit_identical_for_any_thread_count() {
        let run = |threads: usize| {
            let config = EaConfig::builder()
                .population_size(8)
                .children_per_generation(6)
                .stagnation_limit(15)
                .islands(4, 3, 2)
                .seed(5)
                .threads(threads)
                .build();
            run_islands_one_max(config)
        };
        let reference = run(1);
        for threads in [2, 3, 4, 8] {
            let other = run(threads);
            assert_eq!(other.best_genome, reference.best_genome, "t={threads}");
            assert_eq!(
                other.best_fitness.to_bits(),
                reference.best_fitness.to_bits()
            );
            assert_eq!(other.generations, reference.generations);
            assert_eq!(other.evaluations, reference.evaluations);
            assert_eq!(other.history.len(), reference.history.len());
            for (a, b) in other.history.iter().zip(&reference.history) {
                assert_eq!(a.generation, b.generation);
                assert_eq!(a.best_fitness.to_bits(), b.best_fitness.to_bits());
                assert_eq!(a.mean_fitness.to_bits(), b.mean_fitness.to_bits());
                assert_eq!(a.evaluations, b.evaluations);
            }
        }
    }

    #[test]
    fn island_events_cover_every_island_every_generation() {
        let count = 3;
        let mut island_events = Vec::new();
        let mut merged = Vec::new();
        let result = EaBuilder::new(24, |rng| rng.gen::<bool>(), one_max)
            .config(island_config(count, 4, 1, 2))
            .run_with_observer(|event| match event {
                GenerationEvent::Island { island, stats } => {
                    island_events.push((*island, stats.generation));
                    assert!(
                        stats.cache.is_none(),
                        "island events carry no cache snapshot"
                    );
                }
                GenerationEvent::Merged(stats) => merged.push(stats.generation),
            });
        // Per generation: one event per island (in island order), then the
        // merged event.
        assert_eq!(merged.len(), result.history.len());
        assert_eq!(island_events.len(), merged.len() * count);
        for (slot, &(island, generation)) in island_events.iter().enumerate() {
            assert_eq!(island, slot % count, "island order within a generation");
            assert_eq!(generation, merged[slot / count], "generation interleave");
        }
    }

    #[test]
    fn merged_evaluations_sum_over_islands() {
        let count = 3;
        let mut per_island_evals = vec![0u64; count];
        let mut merged_evals = 0;
        let result = EaBuilder::new(24, |rng| rng.gen::<bool>(), one_max)
            .config(island_config(count, 4, 1, 3))
            .run_with_observer(|event| match event {
                GenerationEvent::Island { island, stats } => {
                    per_island_evals[*island] = stats.evaluations;
                }
                GenerationEvent::Merged(stats) => merged_evals = stats.evaluations,
            });
        assert_eq!(merged_evals, per_island_evals.iter().sum::<u64>());
        assert_eq!(result.evaluations, merged_evals);
    }

    #[test]
    fn single_island_runs_without_migration() {
        // count = 1 must be well-defined: no migration partner, the island
        // just evolves alone in epochs.
        let result = run_islands_one_max(island_config(1, 5, 2, 4));
        assert!(result.best_fitness >= 20.0);
        let repeat = run_islands_one_max(island_config(1, 5, 2, 4));
        assert_eq!(result.best_genome, repeat.best_genome);
        assert_eq!(result.evaluations, repeat.evaluations);
    }

    #[test]
    fn interval_beyond_generation_cap_never_migrates() {
        // With max_generations < interval the single truncated epoch ends
        // the run before any migration: identical to migrants = 0.
        let run = |migrants: usize| {
            let config = EaConfig::builder()
                .population_size(6)
                .children_per_generation(4)
                .stagnation_limit(1_000)
                .max_generations(7)
                .islands(3, 100, migrants)
                .seed(6)
                .build();
            run_islands_one_max(config)
        };
        let with = run(3);
        let without = run(0);
        assert_eq!(with.best_genome, without.best_genome);
        assert_eq!(with.evaluations, without.evaluations);
        assert_eq!(with.generations, 7);
        let trajectories = |r: &EaResult<bool>| {
            r.history
                .iter()
                .map(|s| (s.generation, s.best_fitness.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(trajectories(&with), trajectories(&without));
    }

    #[test]
    fn migration_propagates_a_seeded_elite() {
        // Fitness rewards a specific planted pattern so strongly that only
        // the seeded individual (on island 0) and its descendants score
        // high; with migration every generation the elite must reach every
        // island, driving the merged mean far above the no-migration run.
        let target = [true, false, true, true, false, true, false, false];
        let fitness =
            move |genes: &[bool]| genes.iter().zip(&target).filter(|(g, t)| g == t).count() as f64;
        let run = |migrants: usize| {
            let config = EaConfig::builder()
                .population_size(6)
                .children_per_generation(4)
                .stagnation_limit(1_000)
                .max_generations(12)
                .islands(4, 1, migrants)
                .seed(0)
                .build();
            EaBuilder::new(8, |rng| rng.gen::<bool>(), fitness)
                .config(config)
                .seed_population([target.to_vec()])
                .run()
        };
        let migrating = run(2);
        // The seed is perfect; with migration the last generation's merged
        // mean approaches perfection as copies colonize every island.
        assert_eq!(migrating.best_fitness, 8.0);
        let final_mean = migrating.history.last().unwrap().mean_fitness;
        assert!(
            final_mean >= 7.0,
            "elite failed to colonize the ring: mean {final_mean}"
        );
    }

    #[test]
    fn epoch_termination_overshoots_at_most_one_epoch() {
        let config = EaConfig::builder()
            .population_size(4)
            .children_per_generation(4)
            .stagnation_limit(1_000_000)
            .max_evaluations(100)
            .islands(2, 5, 1)
            .seed(0)
            .build();
        let result = EaBuilder::new(8, |rng| rng.gen::<bool>(), |_: &[bool]| 0.0)
            .config(config)
            .run();
        // Budget + one epoch of children on both islands: 100 + 2*5*4.
        assert!(result.evaluations <= 140, "{} evals", result.evaluations);
    }

    // ---- multi-objective ----

    /// One-max with a second objective: minimize the number of 0→1/1→0
    /// boundaries in the genome ("transitions"), reported through the
    /// objectives hook. Scalar fitness stays plain one-max.
    struct TwoObjective;
    impl TwoObjective {
        fn objectives(genes: &[bool]) -> Objectives {
            let ones = genes.iter().filter(|&&g| g).count() as f64;
            let transitions = genes.windows(2).filter(|w| w[0] != w[1]).count() as f64;
            Objectives::new(-ones, transitions, 0.0)
        }
    }
    impl FitnessEval<bool> for TwoObjective {
        fn evaluate(&self, genes: &[bool]) -> f64 {
            genes.iter().filter(|&&g| g).count() as f64
        }
        fn evaluate_batch(
            &self,
            genomes: &[Vec<bool>],
            _lineage: &[Option<Lineage>],
            _parents: &[&[bool]],
            out: &mut [f64],
            objectives: &mut [Objectives],
        ) {
            for ((genes, slot), obj) in genomes.iter().zip(out.iter_mut()).zip(objectives) {
                *slot = self.evaluate(genes);
                *obj = Self::objectives(genes);
            }
        }
    }

    #[test]
    fn pareto_archive_never_changes_the_trajectory() {
        let config = |cap: usize| {
            EaConfig::builder()
                .population_size(10)
                .children_per_generation(5)
                .stagnation_limit(60)
                .seed(7)
                .pareto_archive(cap)
                .build()
        };
        let with = EaBuilder::new(24, |rng| rng.gen::<bool>(), one_max)
            .config(config(32))
            .run();
        let without = EaBuilder::new(24, |rng| rng.gen::<bool>(), one_max)
            .config(config(0))
            .run();
        assert_eq!(with.best_genome, without.best_genome);
        assert_eq!(with.evaluations, without.evaluations);
        assert_eq!(with.generations, without.generations);
        for (a, b) in with.history.iter().zip(&without.history) {
            assert_eq!(a.best_fitness.to_bits(), b.best_fitness.to_bits());
            assert_eq!(a.mean_fitness.to_bits(), b.mean_fitness.to_bits());
        }
        assert!(without.pareto_front.is_empty());
        // A scalar evaluator's objectives are the fitness embedding, so the
        // front is exactly one point: the best fitness seen.
        assert_eq!(with.pareto_front.len(), 1);
        assert_eq!(with.pareto_front[0].fitness, with.best_fitness);
    }

    #[test]
    fn lexicographic_ranking_of_scalar_objectives_matches_fitness_ranking() {
        let config = |ranking: Ranking| {
            EaConfig::builder()
                .population_size(10)
                .children_per_generation(5)
                .stagnation_limit(50)
                .seed(3)
                .ranking(ranking)
                .build()
        };
        let lex = EaBuilder::new(24, |rng| rng.gen::<bool>(), one_max)
            .config(config(Ranking::Lexicographic))
            .run();
        let scalar = EaBuilder::new(24, |rng| rng.gen::<bool>(), one_max)
            .config(config(Ranking::Fitness))
            .run();
        assert_eq!(lex.best_genome, scalar.best_genome);
        assert_eq!(lex.best_fitness, scalar.best_fitness);
        assert_eq!(lex.evaluations, scalar.evaluations);
        assert_eq!(lex.generations, scalar.generations);
    }

    #[test]
    fn multiobjective_front_is_nondominated_and_sorted() {
        let config = EaConfig::builder()
            .population_size(10)
            .children_per_generation(5)
            .stagnation_limit(40)
            .seed(11)
            .lexicographic()
            .pareto_archive(64)
            .build();
        let result = EaBuilder::new(24, |rng| rng.gen::<bool>(), TwoObjective)
            .config(config)
            .run();
        assert!(!result.pareto_front.is_empty());
        for p in &result.pareto_front {
            assert_eq!(p.objectives, TwoObjective::objectives(&p.genome));
            for q in &result.pareto_front {
                assert!(
                    !p.objectives.dominates(&q.objectives),
                    "front contains a dominated point"
                );
            }
        }
        for w in result.pareto_front.windows(2) {
            assert_eq!(
                w[0].objectives.lex_cmp(&w[1].objectives),
                Ordering::Less,
                "front is sorted lexicographically"
            );
        }
        // Lexicographic rank-best: no evaluated genome had more ones.
        assert_eq!(result.pareto_front[0].fitness, result.best_fitness);
    }

    #[test]
    fn multiobjective_islands_are_bit_identical_for_any_thread_count() {
        let run = |threads: usize| {
            let config = EaConfig::builder()
                .population_size(8)
                .children_per_generation(6)
                .stagnation_limit(15)
                .islands(4, 3, 2)
                .seed(5)
                .threads(threads)
                .lexicographic()
                .pareto_archive(32)
                .build();
            EaBuilder::new(24, |rng| rng.gen::<bool>(), TwoObjective)
                .config(config)
                .run()
        };
        let reference = run(1);
        assert!(!reference.pareto_front.is_empty());
        for threads in [2, 4, 8] {
            let other = run(threads);
            assert_eq!(other.best_genome, reference.best_genome, "t={threads}");
            assert_eq!(other.evaluations, reference.evaluations);
            assert_eq!(other.pareto_front.len(), reference.pareto_front.len());
            for (a, b) in other.pareto_front.iter().zip(&reference.pareto_front) {
                assert_eq!(a.genome, b.genome, "t={threads}");
                assert_eq!(a.fitness.to_bits(), b.fitness.to_bits());
                assert_eq!(a.objectives, b.objectives);
            }
        }
    }

    #[test]
    fn island_seed_streams_are_decorrelated() {
        let seeds: Vec<u64> = (0..8).map(|i| island_seed(42, i)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len(), "island seeds collide: {seeds:?}");
        // And distinct run seeds move every island stream.
        assert_ne!(island_seed(1, 0), island_seed(2, 0));
    }

    // ---- stop reasons, cancellation, deadlines ----

    #[test]
    fn stop_reasons_name_the_boundary_that_fired() {
        let converged = run_one_max(1);
        assert_eq!(converged.stop_reason, StopReason::Converged);
        assert!(converged.quarantined.is_empty());
        assert_eq!(converged.checkpoint_failures, 0);

        let budget = EaBuilder::new(8, |rng| rng.gen::<bool>(), |_: &[bool]| 0.0)
            .config(
                EaConfig::builder()
                    .stagnation_limit(1_000_000)
                    .max_evaluations(100)
                    .seed(0)
                    .build(),
            )
            .run();
        assert_eq!(budget.stop_reason, StopReason::EvaluationBudget);

        let capped = EaBuilder::new(8, |rng| rng.gen::<bool>(), |_: &[bool]| 0.0)
            .config(
                EaConfig::builder()
                    .stagnation_limit(1_000_000)
                    .max_generations(3)
                    .seed(0)
                    .build(),
            )
            .run();
        assert_eq!(capped.stop_reason, StopReason::GenerationCap);
        assert_eq!(capped.generations, 3);
    }

    #[test]
    fn cancelled_run_returns_best_so_far() {
        // A pre-cancelled token: the run stops at the very first boundary,
        // with the evaluated initial population as its best-so-far state.
        let token = CancelToken::new();
        token.cancel();
        for config in [one_max_config(100, 1), island_config(3, 4, 1, 1)] {
            let result = EaBuilder::new(24, |rng| rng.gen::<bool>(), one_max)
                .config(config)
                .cancel_token(token.clone())
                .run();
            assert_eq!(result.stop_reason, StopReason::Cancelled);
            assert_eq!(result.generations, 0);
            assert_eq!(result.history.len(), 1, "generation 0 is still reported");
            assert!(result.best_fitness.is_finite());
            assert!(!result.best_genome.is_empty());
        }
    }

    #[test]
    fn elapsed_deadline_stops_with_deadline_reason() {
        // Duration::ZERO has certainly elapsed by the first boundary; the
        // deterministic reasons are checked first but none of them holds.
        let config = EaConfig::builder()
            .population_size(6)
            .children_per_generation(4)
            .stagnation_limit(1_000)
            .seed(2)
            .deadline(Duration::ZERO)
            .build();
        let result = EaBuilder::new(16, |rng| rng.gen::<bool>(), one_max)
            .config(config)
            .run();
        assert_eq!(result.stop_reason, StopReason::Deadline);
        assert_eq!(result.generations, 0);
    }

    // ---- checkpoint / resume ----

    fn assert_same_run(resumed: &EaResult<bool>, reference: &EaResult<bool>, label: &str) {
        assert_eq!(resumed.best_genome, reference.best_genome, "{label}");
        assert_eq!(
            resumed.best_fitness.to_bits(),
            reference.best_fitness.to_bits(),
            "{label}"
        );
        assert_eq!(resumed.generations, reference.generations, "{label}");
        assert_eq!(resumed.evaluations, reference.evaluations, "{label}");
        assert_eq!(resumed.stop_reason, reference.stop_reason, "{label}");
        assert_eq!(resumed.quarantined, reference.quarantined, "{label}");
        assert_eq!(resumed.history.len(), reference.history.len(), "{label}");
        for (a, b) in resumed.history.iter().zip(&reference.history) {
            assert_eq!(a.generation, b.generation, "{label}");
            assert_eq!(
                a.best_fitness.to_bits(),
                b.best_fitness.to_bits(),
                "{label}"
            );
            assert_eq!(
                a.mean_fitness.to_bits(),
                b.mean_fitness.to_bits(),
                "{label}"
            );
            assert_eq!(a.evaluations, b.evaluations, "{label}");
        }
        assert_eq!(
            resumed.pareto_front.len(),
            reference.pareto_front.len(),
            "{label}"
        );
        for (a, b) in resumed.pareto_front.iter().zip(&reference.pareto_front) {
            assert_eq!(a.genome, b.genome, "{label}");
            assert_eq!(a.fitness.to_bits(), b.fitness.to_bits(), "{label}");
            assert_eq!(a.objectives, b.objectives, "{label}");
        }
    }

    /// Runs to completion capturing every periodic checkpoint, then treats
    /// each one as an interruption point: resuming from it must reproduce
    /// the uninterrupted run byte-for-byte (and the checkpoint must survive
    /// a round trip through its serialized form).
    fn interrupt_anywhere<F>(config: EaConfig, every: u64, make_fitness: impl Fn() -> F)
    where
        F: FitnessEval<bool> + Sync,
    {
        let checkpoints = std::cell::RefCell::new(Vec::new());
        let reference = EaBuilder::new(24, |rng| rng.gen::<bool>(), make_fitness())
            .config(config.clone())
            .checkpoint_every(every, |cp: &EaCheckpoint<bool>| {
                checkpoints.borrow_mut().push(cp.clone());
                Ok(())
            })
            .run();
        assert_eq!(reference.checkpoint_failures, 0);
        let checkpoints = checkpoints.into_inner();
        assert!(
            !checkpoints.is_empty(),
            "run too short to checkpoint: {} generations",
            reference.generations
        );
        for (k, cp) in checkpoints.iter().enumerate() {
            let bytes = cp.to_bytes();
            let reloaded = EaCheckpoint::<bool>::from_bytes(&bytes).expect("round trip");
            assert_eq!(&reloaded, cp);
            let resumed = EaBuilder::new(24, |rng| rng.gen::<bool>(), make_fitness())
                .config(config.clone())
                .resume_from(reloaded)
                .run();
            assert_same_run(&resumed, &reference, &format!("checkpoint {k}"));
        }
    }

    #[test]
    fn panmictic_resume_is_byte_identical_from_any_checkpoint() {
        interrupt_anywhere(one_max_config(30, 13), 2, || one_max);
    }

    #[test]
    fn island_resume_is_byte_identical_from_any_checkpoint() {
        interrupt_anywhere(island_config(3, 4, 1, 13), 4, || one_max);
    }

    #[test]
    fn multiobjective_island_resume_preserves_the_pareto_front() {
        let config = EaConfig::builder()
            .population_size(8)
            .children_per_generation(6)
            .stagnation_limit(20)
            .islands(3, 3, 2)
            .seed(17)
            .lexicographic()
            .pareto_archive(32)
            .build();
        interrupt_anywhere(config, 3, || TwoObjective);
    }

    #[test]
    fn resume_is_thread_count_invariant() {
        // Checkpoint under one thread count, resume under others: the
        // trajectory must not notice.
        let config = |threads: usize| {
            EaConfig::builder()
                .population_size(8)
                .children_per_generation(6)
                .stagnation_limit(15)
                .islands(4, 3, 2)
                .seed(23)
                .threads(threads)
                .build()
        };
        let checkpoints = std::cell::RefCell::new(Vec::new());
        let reference = EaBuilder::new(24, |rng| rng.gen::<bool>(), one_max)
            .config(config(1))
            .checkpoint_every(3, |cp: &EaCheckpoint<bool>| {
                checkpoints.borrow_mut().push(cp.clone());
                Ok(())
            })
            .run();
        let cp = checkpoints.into_inner().swap_remove(0);
        for threads in [2, 4] {
            let resumed = EaBuilder::new(24, |rng| rng.gen::<bool>(), one_max)
                .config(config(threads))
                .resume_from(cp.clone())
                .run();
            assert_same_run(&resumed, &reference, &format!("threads {threads}"));
        }
    }

    #[test]
    fn failing_sink_is_counted_not_fatal() {
        let result = EaBuilder::new(24, |rng| rng.gen::<bool>(), one_max)
            .config(one_max_config(20, 5))
            .checkpoint_every(2, |_: &EaCheckpoint<bool>| {
                Err(CheckpointError::Io("disk full".into()))
            })
            .run();
        assert!(result.checkpoint_failures > 0);
        assert_eq!(result.stop_reason, StopReason::Converged);
        assert!(result.best_fitness >= 20.0, "run degraded by sink failure");
    }

    #[test]
    fn resume_rejects_a_mismatched_config() {
        let checkpoints = std::cell::RefCell::new(Vec::new());
        EaBuilder::new(24, |rng| rng.gen::<bool>(), one_max)
            .config(one_max_config(20, 5))
            .checkpoint_every(2, |cp: &EaCheckpoint<bool>| {
                checkpoints.borrow_mut().push(cp.clone());
                Ok(())
            })
            .run();
        let cp = checkpoints.into_inner().swap_remove(0);
        // Different seed → different fingerprint.
        let err = EaBuilder::new(24, |rng| rng.gen::<bool>(), one_max)
            .config(one_max_config(20, 6))
            .resume_from(cp.clone())
            .try_run()
            .unwrap_err();
        assert_eq!(
            err,
            EaError::InvalidCheckpoint(CheckpointError::ConfigMismatch)
        );
        // Different topology → island count mismatch is caught even if the
        // fingerprint were somehow forged; here the fingerprint fires first.
        let err = EaBuilder::new(24, |rng| rng.gen::<bool>(), one_max)
            .config(island_config(3, 4, 1, 5))
            .resume_from(cp)
            .try_run()
            .unwrap_err();
        assert!(matches!(err, EaError::InvalidCheckpoint(_)));
    }

    // ---- panic isolation ----

    use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

    /// One-max that panics on its `trigger`-th evaluation (1-based), then
    /// never again — simulating a poisoned evaluator hitting one island.
    struct PanicOnce {
        calls: AtomicU64,
        trigger: u64,
    }
    impl PanicOnce {
        fn at(trigger: u64) -> Self {
            PanicOnce {
                calls: AtomicU64::new(0),
                trigger,
            }
        }
    }
    impl FitnessEval<bool> for PanicOnce {
        fn evaluate(&self, genes: &[bool]) -> f64 {
            if self.calls.fetch_add(1, AtomicOrdering::Relaxed) + 1 == self.trigger {
                panic!("poisoned evaluator");
            }
            genes.iter().filter(|&&g| g).count() as f64
        }
    }

    #[test]
    fn island_panic_fails_with_a_typed_error_and_no_deadlock() {
        // 4 islands × population 8 = 32 init evaluations; the panic lands
        // mid-epoch. With 4 worker threads the epoch barrier must still
        // complete before the error surfaces.
        let config = EaConfig::builder()
            .population_size(8)
            .children_per_generation(6)
            .stagnation_limit(25)
            .islands(4, 3, 1)
            .threads(4)
            .seed(1)
            .build();
        let err = EaBuilder::new(24, |rng| rng.gen::<bool>(), PanicOnce::at(40))
            .config(config)
            .try_run()
            .unwrap_err();
        let EaError::IslandFailed { message, .. } = err else {
            panic!("expected IslandFailed, got {err}");
        };
        assert_eq!(message, "poisoned evaluator");
    }

    #[test]
    fn quarantine_policy_degrades_instead_of_failing() {
        // threads(1): islands run their epochs in index order, so the 40th
        // evaluation deterministically lands on island 0's first epoch.
        let config = EaConfig::builder()
            .population_size(8)
            .children_per_generation(6)
            .stagnation_limit(25)
            .islands(4, 3, 1)
            .threads(1)
            .seed(1)
            .quarantine_on_panic()
            .build();
        let result = EaBuilder::new(24, |rng| rng.gen::<bool>(), PanicOnce::at(40))
            .config(config)
            .run();
        assert_eq!(result.quarantined, vec![0]);
        assert_eq!(result.stop_reason, StopReason::Converged);
        assert!(
            result.best_fitness >= 20.0,
            "healthy islands still optimized: {}",
            result.best_fitness
        );
        // The quarantined island's evaluations stay in the (monotone) total.
        let mut prev = 0;
        for s in &result.history {
            assert!(s.evaluations >= prev, "evaluations went backwards");
            prev = s.evaluations;
        }
    }

    #[test]
    fn panmictic_panic_fails_even_under_quarantine_policy() {
        let config = EaConfig::builder()
            .population_size(10)
            .children_per_generation(5)
            .stagnation_limit(50)
            .seed(1)
            .quarantine_on_panic()
            .build();
        let err = EaBuilder::new(24, |rng| rng.gen::<bool>(), PanicOnce::at(25))
            .config(config)
            .try_run()
            .unwrap_err();
        assert!(matches!(err, EaError::IslandFailed { island: 0, .. }));
    }

    #[test]
    fn init_panic_reports_the_failing_island() {
        // Trigger inside island 2's initial evaluation (threads 1: islands
        // initialize in order, 8 evaluations each).
        let config = EaConfig::builder()
            .population_size(8)
            .children_per_generation(6)
            .stagnation_limit(25)
            .islands(4, 3, 1)
            .threads(1)
            .seed(1)
            .quarantine_on_panic()
            .build();
        let err = EaBuilder::new(24, |rng| rng.gen::<bool>(), PanicOnce::at(20))
            .config(config)
            .try_run()
            .unwrap_err();
        assert!(
            matches!(
                err,
                EaError::IslandFailed {
                    island: 2,
                    generation: 0,
                    ..
                }
            ),
            "{err}"
        );
    }
}
