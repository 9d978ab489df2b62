//! Golden pins of the EA engine's deterministic output.
//!
//! The determinism suites check runs against each other (thread counts,
//! resume against uninterrupted). This suite pins a fixed list of runs to
//! absolute values instead, so a refactor of the run loop cannot shift a
//! trajectory in a way every comparison shares. Each run is folded into one
//! FNV-1a digest over:
//!
//! * the best genome, `best_fitness` bits, generation and evaluation
//!   counters, `stop_reason`, quarantined islands and the Pareto front;
//! * the deterministic history fields (generation, best and mean fitness
//!   bits, evaluations);
//! * the observer event sequence (event kind, island index, same fields);
//! * the final checkpoint bytes (and, for the resumed run, the mid-run
//!   checkpoint it resumes from).
//!
//! Wall-clock and shared-cache counters are outside the determinism
//! contract and never hashed. On a mismatch the assertion prints the new
//! digest; a change to it must be a deliberate change of the trajectory.

use std::cell::RefCell;

use evotc::bits::{BlockHistogram, TestSet, TestSetString, Trit};
use evotc::core::{
    trit_checkpoint_from_bytes, trit_checkpoint_to_bytes, CombineMode, EaCompressor, MvFitness,
    TestCompressor,
};
use evotc::evo::{
    EaBuilder, EaCheckpoint, EaConfig, EaError, EaResult, FitnessEval, GenerationEvent,
    GenerationStats, Topology,
};
use evotc::workloads::synth::{generate, SyntheticSpec};
use evotc::workloads::{tables, workload_with_limit};
use rand::Rng;

/// 64-bit FNV-1a over little-endian encodings.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn stats(&mut self, s: &GenerationStats) {
        self.u64(s.generation);
        self.f64(s.best_fitness);
        self.f64(s.mean_fitness);
        self.u64(s.evaluations);
    }

    fn event(&mut self, event: &GenerationEvent<'_>) {
        match event {
            GenerationEvent::Island { island, stats } => {
                self.u64(1);
                self.u64(*island as u64);
                self.stats(stats);
            }
            GenerationEvent::Merged(stats) => {
                self.u64(0);
                self.stats(stats);
            }
        }
    }

    fn result<G>(&mut self, r: &EaResult<G>, gene: impl Fn(&G) -> u8) {
        let genes: Vec<u8> = r.best_genome.iter().map(&gene).collect();
        self.bytes(&genes);
        self.f64(r.best_fitness);
        self.u64(r.generations);
        self.u64(r.evaluations);
        self.bytes(format!("{:?}", r.stop_reason).as_bytes());
        self.u64(r.history.len() as u64);
        for s in &r.history {
            self.stats(s);
        }
        self.u64(r.pareto_front.len() as u64);
        for p in &r.pareto_front {
            let genes: Vec<u8> = p.genome.iter().map(&gene).collect();
            self.bytes(&genes);
            self.f64(p.fitness);
            for &o in &p.objectives.0 {
                self.f64(o);
            }
        }
        self.u64(r.quarantined.len() as u64);
        for &i in &r.quarantined {
            self.u64(i as u64);
        }
        self.u64(r.checkpoint_failures);
    }
}

fn assert_golden(name: &str, digest: Digest, expected: u64) {
    assert_eq!(
        digest.0, expected,
        "{name}: digest is now {:#018x} (pinned {expected:#018x})",
        digest.0
    );
}

fn bool_gene(g: &bool) -> u8 {
    u8::from(*g)
}

fn trit_gene(t: &Trit) -> u8 {
    t.index()
}

fn one_max(genes: &[bool]) -> f64 {
    genes.iter().filter(|&&g| g).count() as f64
}

/// Runs one-max under `config` with the observer and a checkpoint sink
/// attached, digesting the result, the event sequence and the final
/// checkpoint bytes.
fn one_max_digest(config: EaConfig, checkpoint_every: u64) -> Digest {
    let events = RefCell::new(Digest::new());
    let mut last_checkpoint = Vec::new();
    let result = EaBuilder::new(40, |rng| rng.gen::<bool>(), one_max)
        .config(config)
        .checkpoint_every(checkpoint_every, |cp: &EaCheckpoint<bool>| {
            last_checkpoint = cp.to_bytes();
            Ok(())
        })
        .run_with_observer(|event| events.borrow_mut().event(event));
    let mut d = Digest::new();
    d.result(&result, bool_gene);
    d.u64(events.into_inner().0);
    d.bytes(&last_checkpoint);
    d
}

fn one_max_config() -> EaConfig {
    EaConfig::builder()
        .population_size(10)
        .children_per_generation(5)
        .stagnation_limit(60)
        .seed(11)
        .build()
}

#[test]
fn panmictic_one_max() {
    assert_golden(
        "panmictic one-max",
        one_max_digest(one_max_config(), 7),
        0xc7dc_5123_8c24_544e,
    );
}

#[test]
fn islands_4_5_2_one_max() {
    let config = EaConfig {
        topology: Topology::Islands {
            count: 4,
            interval: 5,
            migrants: 2,
        },
        ..one_max_config()
    };
    assert_golden(
        "islands(4, 5, 2)",
        one_max_digest(config, 10),
        0x8537_faa2_7a5e_8f1a,
    );
}

#[test]
fn single_island_one_max() {
    let config = EaConfig {
        topology: Topology::Islands {
            count: 1,
            interval: 3,
            migrants: 1,
        },
        ..one_max_config()
    };
    assert_golden(
        "Islands { count: 1 }",
        one_max_digest(config, 6),
        0xb940_ac8f_88fe_1264,
    );
}

/// Three Table 1 rows through the panmictic compressor at K = 12, L = 64:
/// the run summary plus the encoded result (MV set, per-MV frequencies,
/// rate bits).
#[test]
fn panmictic_compressor_on_table1_rows() {
    let mut d = Digest::new();
    for (i, circuit) in ["s349", "s208", "s420"].into_iter().enumerate() {
        let row = tables::stuck_at_row(circuit).expect("Table 1 row");
        let set = workload_with_limit(
            row.circuit,
            row.test_set_bits,
            row.rate_9c,
            3 + i as u64,
            1 << 12,
            1,
        );
        let compressor = EaCompressor::builder(12, 64)
            .seed(21 + i as u64)
            .stagnation_limit(40)
            .build();
        let (compressed, summary) = compressor.compress_with_summary(&set).expect("compresses");
        d.f64(summary.best_fitness);
        d.u64(summary.generations);
        d.u64(summary.evaluations);
        d.bytes(format!("{:?}", summary.stop_reason).as_bytes());
        for s in &summary.history {
            d.stats(s);
        }
        let genes: Vec<u8> = compressed
            .mv_set()
            .to_genes()
            .iter()
            .map(trit_gene)
            .collect();
        d.bytes(&genes);
        for &f in compressed.frequencies() {
            d.u64(f);
        }
        d.f64(compressed.rate_percent());
        assert_eq!(
            compressor
                .compress(&set)
                .expect("compresses")
                .rate_percent(),
            compressed.rate_percent()
        );
    }
    assert_golden(
        "panmictic EaCompressor, Table 1 rows",
        d,
        0x0897_bd56_7b9f_b61d,
    );
}

fn small_histogram() -> (BlockHistogram, f64) {
    let set: TestSet = generate(&SyntheticSpec {
        width: 16,
        total_bits: 16 * 48,
        specified_density: 0.4,
        ..SyntheticSpec::new(16, 16 * 48, 5)
    });
    let string = TestSetString::new(&set, 8);
    let bits = string.payload_bits() as f64;
    (BlockHistogram::from_string(&string), bits)
}

/// Runs `MvFitness` over the small histogram at K = 8, L = 16, capturing
/// every checkpoint's bytes, optionally resumed from `resume`.
fn mv_run(
    config: EaConfig,
    mode: CombineMode,
    checkpoint_every: u64,
    resume: Option<&[u8]>,
    events: &RefCell<Digest>,
) -> (EaResult<Trit>, Vec<Vec<u8>>) {
    let (hist, bits) = small_histogram();
    let fitness = MvFitness::new(8, false, &hist, bits).combine_mode(mode);
    let mut checkpoints = Vec::new();
    let mut ea = EaBuilder::new(
        8 * 16,
        |rng| Trit::from_index(rng.gen_range(0..3u8)),
        fitness,
    )
    .config(config)
    .checkpoint_every(checkpoint_every, |cp: &EaCheckpoint<Trit>| {
        checkpoints.push(trit_checkpoint_to_bytes(cp));
        Ok(())
    });
    if let Some(bytes) = resume {
        ea = ea.resume_from(trit_checkpoint_from_bytes(bytes).expect("checkpoint parses"));
    }
    let result = ea.run_with_observer(|event| events.borrow_mut().event(event));
    (result, checkpoints)
}

#[test]
fn lexicographic_mv_fitness_with_pareto_archive() {
    let config = EaConfig::builder()
        .stagnation_limit(40)
        .seed(17)
        .lexicographic()
        .pareto_archive(8)
        .build();
    let events = RefCell::new(Digest::new());
    let (result, checkpoints) = mv_run(config, CombineMode::Lexicographic, 5, None, &events);
    assert!(!result.pareto_front.is_empty());
    let mut d = Digest::new();
    d.result(&result, trit_gene);
    d.u64(events.into_inner().0);
    d.bytes(checkpoints.last().expect("at least one checkpoint"));
    assert_golden(
        "lexicographic MvFitness + Pareto archive",
        d,
        0xee31_76aa_516f_a46e,
    );
}

#[test]
fn panmictic_resume_from_mid_run_checkpoint() {
    let config = EaConfig::builder().stagnation_limit(40).seed(23).build();
    let full_events = RefCell::new(Digest::new());
    let (full, checkpoints) = mv_run(
        config.clone(),
        CombineMode::default(),
        10,
        None,
        &full_events,
    );
    assert!(checkpoints.len() >= 2, "run too short to resume mid-way");
    let mid = &checkpoints[checkpoints.len() / 2];
    let resumed_events = RefCell::new(Digest::new());
    let (resumed, resumed_checkpoints) = mv_run(
        config,
        CombineMode::default(),
        10,
        Some(mid),
        &resumed_events,
    );
    assert_eq!(resumed.best_genome, full.best_genome);
    assert_eq!(resumed_checkpoints.last(), checkpoints.last());
    let mut d = Digest::new();
    d.bytes(mid);
    d.result(&full, trit_gene);
    d.u64(full_events.into_inner().0);
    d.result(&resumed, trit_gene);
    d.u64(resumed_events.into_inner().0);
    d.bytes(resumed_checkpoints.last().expect("resumed run checkpoints"));
    assert_golden(
        "panmictic resume from a mid-run checkpoint",
        d,
        0x8d51_58db_5cf1_b875,
    );
}

/// One-max that panics on its `trigger`-th evaluation (1-based).
struct PanicAt {
    calls: std::sync::atomic::AtomicU64,
    trigger: u64,
}

impl FitnessEval<bool> for PanicAt {
    fn evaluate(&self, genes: &[bool]) -> f64 {
        let call = self
            .calls
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
            + 1;
        if call == self.trigger {
            panic!("poisoned evaluator at call {call}");
        }
        one_max(genes)
    }
}

#[test]
fn panicking_panmictic_run_reports_a_pinned_failure() {
    for quarantine in [false, true] {
        let mut builder = EaConfig::builder()
            .population_size(10)
            .children_per_generation(5)
            .stagnation_limit(60)
            .threads(1)
            .seed(11);
        if quarantine {
            builder = builder.quarantine_on_panic();
        }
        let events = RefCell::new(Digest::new());
        let err = EaBuilder::new(
            40,
            |rng| rng.gen::<bool>(),
            PanicAt {
                calls: Default::default(),
                trigger: 63,
            },
        )
        .config(builder.build())
        .try_run_with_observer(|event| events.borrow_mut().event(event))
        .unwrap_err();
        let EaError::IslandFailed {
            island,
            generation,
            message,
        } = err
        else {
            panic!("expected IslandFailed, got {err}");
        };
        assert_eq!(
            (island, generation, message.as_str()),
            (0, 11, "poisoned evaluator at call 63"),
            "quarantine policy: {quarantine}"
        );
        assert_golden(
            "events before the panmictic failure",
            events.into_inner(),
            0x7427_e98c_9d7f_b6f3,
        );
    }
}
