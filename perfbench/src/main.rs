//! The repository benchmark: one command that runs a named workload from a
//! seeded input, checks every output, and prints its metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload pipeline --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` they are the per-layer
//! ones, and the spans behind them are written to
//! `perfbench/out/trace-<workload>-<seed>.jsonl`. Any correctness-gate
//! divergence exits with code 1. See `perfbench/README.md`.

mod compress;
mod flow;
mod ingest;
mod pipeline;
mod report;
mod service;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::time::Instant;

use trace::Tracer;

/// Timed set-up samples per run (see [`setup`]).
const SETUP_SAMPLES: usize = 5;
const SETUP_SECS: f64 = 1.0;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// What one round measured for the end-to-end metrics.
pub struct RoundResult {
    /// Work units completed (circuits, test bits, jobs, gates).
    pub units: f64,
    /// The interval the units were completed in.
    pub secs: f64,
    /// Per-operation latencies in ms.
    pub latencies_ms: Vec<f64>,
}

/// The untraced rounds' figures: one work rate per round (units per
/// second) and every operation latency. End-to-end metrics are medians of
/// these, so a burst of host noise moves a sample, not the result.
#[derive(Default)]
pub struct Measured {
    pub rates: Vec<f64>,
    pub latencies_ms: Vec<f64>,
}

/// What a workload hands back to `main`.
pub struct Run {
    /// The median time of one input set-up.
    pub setup_s: f64,
    pub measured: Measured,
    pub rounds: Rounds,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness-gate failures; any entry fails the run.
    pub gates: Vec<String>,
    /// Per-layer values measured outside the rounds.
    pub probes: BTreeMap<&'static str, f64>,
    /// The workload's end-to-end figures under workload-specific names
    /// (`circuits_per_s`, `jobs_per_s`, ...), printed for people; the JSON
    /// line carries the shared metric names.
    pub info: Vec<(&'static str, f64, &'static str)>,
}

#[derive(Default)]
pub struct Rounds {
    pub untraced_s: Vec<f64>,
    pub traced_s: Vec<f64>,
}

impl Rounds {
    pub fn count(&self) -> f64 {
        (self.untraced_s.len() + self.traced_s.len()) as f64
    }
}

/// Builds a workload's input and times its set-up: one untimed warm-up,
/// then samples of `batch` set-ups each, at least `SETUP_SAMPLES` of them
/// and more until `SETUP_SECS` have passed, all before the first round. A
/// sample times a fixed batch so that a set-up of microseconds still times
/// a larger amount of work. Returns the last input and the median time of
/// one set-up.
pub fn setup<T>(batch: usize, mut make: impl FnMut() -> T) -> (T, f64) {
    let mut input = make();
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < SETUP_SAMPLES || start.elapsed().as_secs_f64() < SETUP_SECS {
        let t = Instant::now();
        for _ in 0..batch {
            input = std::hint::black_box(make());
        }
        times.push(t.elapsed().as_secs_f64() / batch as f64);
    }
    (input, stats::median(&times))
}

/// Repeats `round` until `args.seconds` have passed (at least once). A
/// traced run alternates untraced and traced rounds and ends on a traced
/// one, so both kinds ran; only untraced rounds feed end-to-end figures.
pub fn run_rounds(
    args: &Args,
    tr: &mut Tracer,
    mut round: impl FnMut(&mut Tracer, bool) -> RoundResult,
) -> (Rounds, Measured) {
    let start = Instant::now();
    let mut rounds = Rounds::default();
    let mut measured = Measured::default();
    loop {
        let traced = args.trace && rounds.traced_s.len() < rounds.untraced_s.len();
        tr.set_on(traced);
        let id = tr.enter("round");
        let t = Instant::now();
        let result = round(tr, traced);
        let secs = t.elapsed().as_secs_f64();
        tr.exit(id);
        tr.set_on(false);
        if traced {
            rounds.traced_s.push(secs);
        } else {
            rounds.untraced_s.push(secs);
            measured.rates.push(stats::ratio(result.units, result.secs));
            measured.latencies_ms.extend(result.latencies_ms);
        }
        let timed_out = start.elapsed().as_secs_f64() >= args.seconds;
        if timed_out && (!args.trace || rounds.traced_s.len() == rounds.untraced_s.len()) {
            return (rounds, measured);
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <pipeline|compress|service|ingest> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    // The EA threads the workload's timed runs evaluate on; `ingest` runs
    // no EA.
    let ea_threads = match args.workload.as_str() {
        "pipeline" | "compress" => Some(flow::ea_threads()),
        "service" => Some(service::ea_threads()),
        "ingest" => None,
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            std::process::exit(2);
        }
    };
    let host = report::host_record(&args, ea_threads);
    println!("{host}");

    let mut tr = Tracer::new();
    let run = match args.workload.as_str() {
        "pipeline" => pipeline::run(&args, &mut tr),
        "compress" => compress::run(&args, &mut tr),
        "service" => service::run(&args, &mut tr),
        "ingest" => ingest::run(&args, &mut tr),
        _ => unreachable!("the workload was checked above"),
    };

    let metrics = if args.trace {
        let path = std::path::Path::new("perfbench/out")
            .join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = tr.write_jsonl(&path, &args.workload, &host) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            std::process::exit(1);
        }
        report::per_layer(&tr, &run)
    } else {
        report::end_to_end(&run)
    };
    for (name, value, unit) in run.info.iter().chain(&metrics) {
        println!("metric {name} = {value} {unit}");
    }
    for gate in &run.gates {
        eprintln!("perfbench: GATE FAILED: {gate}");
    }
    let correct = run.gates.is_empty();
    println!("{}", report::result_line(correct, &run, &metrics));
    if !correct {
        std::process::exit(1);
    }
}
