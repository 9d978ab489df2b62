//! `service`: many small compression jobs from three tenants through
//! `evotc_service`, a share of them repeating earlier jobs.
//!
//! A job's content is a Table 1 row: the calibrated test set of one of the
//! small circuits (`SMALL_BITS`), compressed at the paper's K = 12, L = 64
//! with `JobSpec`'s default budgets. The mix follows the repository's
//! `service_replay` bench: tenants take turns, and distinct jobs come in
//! waves that are each followed by a wave of exact duplicates (its fresh
//! and duplicate phases), so half the open-loop jobs repeat earlier ones.
//! The seed drives the set contents and each job's EA seed.
//!
//! A round starts a service with `nproc` workers and runs two phases:
//!
//! 1. an open loop at one fixed rate below capacity — each job is
//!    submitted at its due time whatever the backlog, and its latency is
//!    the generator's lag behind that due time plus the service's own
//!    submit-to-finish time, so a stall shows in later jobs too. Duplicates
//!    are answered from the result cache at admission; the latency figures
//!    are those of the jobs that ran;
//! 2. a saturating burst of distinct preemptible jobs submitted back to
//!    back, past the high-water mark, so the service sheds running jobs
//!    through checkpoints and resumes them (`service_replay`'s shed cycle).
//!
//! `latency_p50_ms` is the open-loop job latency; `throughput_per_s` is
//! completed jobs per second over the burst. Only one rate is run — no
//! rate sweep — to keep a run short.

use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

use evotc_bits::{BlockHistogram, TestSet, TestSetString, Trit};
use evotc_core::{trit_checkpoint_to_bytes, MvFitness};
use evotc_evo::{parallel::resolve_threads, EaBuilder, EaCheckpoint, EaConfig};
use evotc_service::{
    run_spec, JobOutcome, JobResultData, JobSpec, Provenance, Service, ServiceConfig, TenantId,
};
use evotc_workloads::tables::TABLE1;
use rand::Rng;

use crate::stats::{median, mix, quantile, ratio};
use crate::trace::Tracer;
use crate::{run_rounds, setup, Args, RoundResult, Run};

/// Table 1 rows whose whole test set is smaller than this are the small
/// circuits the jobs take in turn (28 rows, 624 to 8509 bits), so every
/// seed has the same mix of job sizes. The cut, below c3540's 10 kbit, is
/// an assumption that keeps a job at a few milliseconds.
const SMALL_BITS: usize = 10_000;
/// The paper's block length and matching-vector count.
const K: usize = 12;
const L: usize = 64;
const TENANTS: u64 = 3;
const OPEN_JOBS: usize = 168;
/// The open-loop rate, jobs per second. Fixed, not derived from the host.
/// No source gives a rate; this one is an assumption: about a quarter of
/// the burst throughput of a 2-core host (some 400 jobs/s), so a job's
/// latency is mostly its own service time and a slower program shows as
/// latency before it shows as backlog.
const OPEN_RATE: f64 = 100.0;
/// Distinct jobs per open-loop wave; each wave is followed by a wave of
/// its duplicates, which arrive after the originals have finished. The
/// open loop's 84 distinct jobs and the burst's 392 are whole turns over
/// the 28 rows.
const WAVE: usize = 14;
const BURST_JOBS: usize = 392;
/// Queue length past which admission sheds a running job: only the last
/// few burst submissions find that many jobs waiting.
const HIGH_WATER: usize = 368;
/// Specs behind `evo.checkpoint_*`, each run with and without capture.
const PROBE_SPECS: usize = 16;
const PROBE_REPEATS: usize = 5;

struct Input {
    seed: u64,
    /// The small rows' test sets.
    sets: Vec<TestSet>,
    /// Which distinct job each open-loop submission is, then each burst one.
    open: Vec<usize>,
    burst: Vec<usize>,
}

impl Input {
    /// Distinct job `n`: the rows and the tenants in turn, its own EA seed.
    fn spec(&self, n: usize) -> JobSpec {
        let tenant = TenantId((n as u64 % TENANTS) as u32);
        let set = self.sets[n % self.sets.len()].clone();
        JobSpec::new(tenant, set, K, L, mix(self.seed, n as u64))
    }
}

fn make_input(seed: u64) -> Input {
    let sets = TABLE1
        .iter()
        .filter(|row| row.test_set_bits < SMALL_BITS)
        .map(|row| {
            evotc_workloads::workload_with_limit(
                row.circuit,
                row.test_set_bits,
                row.rate_9c,
                seed,
                SMALL_BITS,
                1,
            )
        })
        .collect();
    let mut distinct = 0;
    let mut open = Vec::with_capacity(OPEN_JOBS);
    for i in 0..OPEN_JOBS {
        let job = if (i / WAVE) % 2 == 1 {
            open[i - WAVE]
        } else {
            distinct += 1;
            distinct - 1
        };
        open.push(job);
    }
    let burst = (distinct..distinct + BURST_JOBS).collect();
    Input {
        seed,
        sets,
        open,
        burst,
    }
}

/// The EA threads a service job evaluates on, from the engine
/// configuration the jobs run with.
pub fn ea_threads() -> usize {
    let set = TestSet::parse(&["0"]).expect("a one-bit set parses");
    resolve_threads(engine_config(&JobSpec::new(TenantId(0), set, K, L, 0)).threads)
}

pub fn run(args: &Args, tr: &mut Tracer) -> Run {
    let (input, setup_s) = setup(1, || make_input(args.seed));
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let config = ServiceConfig::builder()
        .workers(workers)
        .queue_capacity(2 * BURST_JOBS)
        .high_water(HIGH_WATER)
        .tenant_quota(2 * BURST_JOBS)
        .build();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut gates = Vec::new();
    // The result digest each spec completed with, to hold against the oracle.
    let mut digests: HashMap<usize, u64> = HashMap::new();

    let (rounds, measured) = run_rounds(args, tr, |tr, _| {
        let service = tr.span("service.start", || Service::start(config.clone()));
        // (spec, generator lag behind the due time) per job id; burst jobs
        // have no due time.
        let mut jobs: HashMap<u64, (usize, Option<Duration>)> = HashMap::new();
        let mut submit = |tr: &mut Tracer, spec: usize, lag: Option<Duration>| {
            let job = input.spec(spec);
            let outcome = tr.span("service.submit", || service.submit(job));
            match outcome {
                Ok(id) => {
                    jobs.insert(id.0, (spec, lag));
                }
                Err(rejected) => eprintln!("perfbench: service rejected a job: {rejected}"),
            }
            tr.max("service.backlog_max", service.queue_len() as f64);
        };

        let open_start = Instant::now();
        for (n, &spec) in input.open.iter().enumerate() {
            let due = open_start + Duration::from_secs_f64(n as f64 / OPEN_RATE);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let lag = due.elapsed();
            tr.max("service.generator_lag_ms_max", lag.as_secs_f64() * 1e3);
            submit(tr, spec, Some(lag));
        }
        tr.span("service.drain", || service.drain());

        let burst_start = Instant::now();
        for &spec in &input.burst {
            submit(tr, spec, None);
        }
        tr.span("service.drain", || service.drain());
        let burst_secs = burst_start.elapsed().as_secs_f64();
        let outcome = tr.span("service.shutdown", || service.shutdown());

        let stats = outcome.stats;
        attempted += stats.attempted;
        failed += stats.rejected_total() + stats.failed;
        if !stats.accounted() {
            gates.push(format!("service counters lost a job: {stats:?}"));
        }
        tr.add("service.sheds", stats.sheds as f64);
        tr.add("service.retries", stats.retries as f64);
        tr.add("service.rejected", stats.rejected_total() as f64);
        tr.add("service.failed", stats.failed as f64);
        tr.add("service.cache_hits", stats.cache_hits as f64);
        tr.add("service.completed_fresh", stats.completed_fresh as f64);

        let mut latencies_ms = Vec::with_capacity(OPEN_JOBS);
        let mut burst_done = 0.0;
        for report in &outcome.reports {
            let (spec, lag) = jobs[&report.id.0];
            let JobOutcome::Completed { data, provenance } = &report.outcome else {
                continue;
            };
            let digest = data.digest();
            if *digests.entry(spec).or_insert(digest) != digest {
                gates.push(format!("spec {spec} completed with two different results"));
            }
            match lag {
                Some(lag) => {
                    if *provenance == Provenance::Fresh {
                        latencies_ms.push((lag + report.latency()).as_secs_f64() * 1e3);
                    }
                }
                None => burst_done += 1.0,
            }
        }
        RoundResult {
            units: burst_done,
            secs: burst_secs,
            latencies_ms,
        }
    });

    // Every completed result must equal the single-attempt oracle.
    tr.set_on(args.trace);
    let gate = tr.enter("gate");
    let mut oracle_ms = Vec::new();
    let mut oracle = HashMap::new();
    for (&spec, &digest) in &digests {
        let t = Instant::now();
        match tr.span("service.run_spec", || run_spec(&input.spec(spec))) {
            Ok(data) => {
                oracle_ms.push(t.elapsed().as_secs_f64() * 1e3);
                oracle.insert(spec, data.digest());
                if data.digest() != digest {
                    gates.push(format!("spec {spec}: service result differs from run_spec"));
                }
            }
            Err(e) => gates.push(format!("spec {spec}: oracle failed: {e}")),
        }
    }
    tr.exit(gate);
    tr.set_on(false);

    let mut probes = BTreeMap::new();
    probes.insert("evo.threads", ea_threads() as f64);
    probes.insert("service.oracle_job_ms", median(&oracle_ms));
    probes.insert(
        "service.job_latency_p95_ms",
        quantile(&measured.latencies_ms, 0.95),
    );
    probes.insert(
        "service.latency_samples",
        measured.latencies_ms.len() as f64,
    );
    if args.trace {
        let specs: Vec<JobSpec> = (0..PROBE_SPECS).map(|n| input.spec(n)).collect();
        match checkpoint_cost(&specs, &oracle) {
            Ok((overhead_pct, bytes)) => {
                probes.insert("evo.checkpoint_overhead_pct", overhead_pct);
                probes.insert("evo.checkpoint_bytes", bytes);
            }
            Err(e) => gates.push(e),
        }
    }
    let samples = measured.latencies_ms.len();
    Run {
        setup_s,
        info: vec![
            ("jobs_per_s", median(&measured.rates), "jobs/s"),
            ("job_latency_p50_ms", median(&measured.latencies_ms), "ms"),
            (
                "job_latency_p95_ms",
                quantile(&measured.latencies_ms, 0.95),
                "ms",
            ),
            ("job_latency_samples", samples as f64, "count"),
            (
                "error_rate",
                ratio(failed as f64, attempted as f64),
                "ratio",
            ),
        ],
        rounds,
        attempted,
        failed,
        gates,
        probes,
        measured,
    }
}

/// The cost of preemption checkpoints at the engine: each spec runs as a
/// service job runs it (one thread, the spec's budgets and seed), with and
/// without a capture every service `checkpoint_interval` generations.
/// Returns the time overhead in percent and the serialized bytes of all
/// captures per job. Both runs must match the `run_spec` oracle.
fn checkpoint_cost(specs: &[JobSpec], oracle: &HashMap<usize, u64>) -> Result<(f64, f64), String> {
    let interval = ServiceConfig::default().checkpoint_interval;
    let (mut with, mut without, mut bytes) = (0.0, 0.0, 0.0);
    for _ in 0..PROBE_REPEATS {
        for (i, spec) in specs.iter().enumerate() {
            for capture in [false, true] {
                let t = Instant::now();
                let (data, captures) = run_engine(spec, capture.then_some(interval))?;
                let secs = t.elapsed().as_secs_f64();
                if oracle.get(&i).is_some_and(|&d| d != data.digest()) {
                    return Err(format!("checkpoint probe: spec {i} differs from run_spec"));
                }
                if capture {
                    with += secs;
                    bytes += captures
                        .iter()
                        .map(|cp| trit_checkpoint_to_bytes(cp).len() as f64)
                        .sum::<f64>();
                } else {
                    without += secs;
                }
            }
        }
    }
    let runs = (PROBE_REPEATS * specs.len()) as f64;
    Ok(((ratio(with, without) - 1.0) * 100.0, bytes / runs))
}

/// The engine configuration a service job runs with: the spec's budgets
/// and seed, evaluation pinned to one thread.
fn engine_config(spec: &JobSpec) -> EaConfig {
    EaConfig::builder()
        .stagnation_limit(spec.stagnation_limit)
        .max_evaluations(spec.max_evaluations)
        .max_generations(spec.max_generations)
        .seed(spec.seed)
        .threads(1)
        .build()
}

type Captures = Vec<EaCheckpoint<Trit>>;

fn run_engine(spec: &JobSpec, interval: Option<u64>) -> Result<(JobResultData, Captures), String> {
    let string = TestSetString::try_new(&spec.patterns, spec.k).map_err(|e| e.to_string())?;
    let histogram = BlockHistogram::from_string(&string);
    let fitness = MvFitness::new(spec.k, true, &histogram, string.payload_bits() as f64);
    let config = engine_config(spec);
    let mut captures = Vec::new();
    let mut ea = EaBuilder::new(
        spec.k * spec.l,
        |rng| Trit::from_index(rng.gen_range(0..3u8)),
        fitness,
    )
    .config(config);
    if let Some(interval) = interval {
        ea = ea.checkpoint_every(interval, |cp: &EaCheckpoint<Trit>| {
            captures.push(cp.clone());
            Ok(())
        });
    }
    let result = ea.run();
    let data = JobResultData {
        best_genome: result.best_genome,
        best_fitness: result.best_fitness,
        generations: result.generations,
        evaluations: result.evaluations,
        stop_reason: result.stop_reason,
    };
    Ok((data, captures))
}
