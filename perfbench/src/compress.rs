//! `compress`: calibrated Table 1 test sets through the compression flow,
//! with no ATPG in front.
//!
//! All 39 rows run, from 624-bit sets to sets capped at 64 kbit, so the
//! distinct-block count — which drives the fitness kernel and its
//! incremental cache — varies by two orders of magnitude. The seed drives
//! the set contents (`workload_with_limit`) and the EA, which gets a fresh
//! seed for every set in every round so that a run averages over many EA
//! runs. A round is every set once, and `throughput_per_s` counts input
//! test bits.

use std::collections::BTreeMap;
use std::time::Instant;

use evotc_bits::TestSet;
use evotc_core::EaCompressor;
use evotc_workloads::tables;

use crate::flow::{compress_verified, compressor, ea_threads, same_stream, FlowError};
use crate::stats::{median, mix, ratio};
use crate::trace::Tracer;
use crate::{run_rounds, setup, Args, RoundResult, Run};

/// The size cap of the large sets.
const LIMIT_BITS: usize = 1 << 16;

/// Alternating 1-thread / n-thread EA runs behind `evo.scaling_1_to_n`.
const SCALING_REPEATS: usize = 3;

pub fn run(args: &Args, tr: &mut Tracer) -> Run {
    let (sets, setup_s) = setup(1, || {
        tables::TABLE1
            .iter()
            .map(|row| {
                evotc_workloads::workload_with_limit(
                    row.circuit,
                    row.test_set_bits,
                    row.rate_9c,
                    args.seed,
                    LIMIT_BITS,
                    1,
                )
            })
            .collect::<Vec<TestSet>>()
    });
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut gates = Vec::new();

    let (rounds, measured) = run_rounds(args, tr, |tr, _| {
        let start = Instant::now();
        let mut bits = 0.0;
        let mut latencies_ms = Vec::new();
        for (i, set) in sets.iter().enumerate() {
            let t = Instant::now();
            let op = tr.enter("op");
            attempted += 1;
            match compress_verified(tr, &compressor(mix(args.seed, attempted)), set) {
                Ok(_) => bits += set.total_bits() as f64,
                Err(FlowError::Failed(e)) => {
                    eprintln!("perfbench: {}: {e}", tables::TABLE1[i].circuit);
                    failed += 1;
                }
                Err(FlowError::Gate(e)) => {
                    gates.push(format!("{}: {e}", tables::TABLE1[i].circuit))
                }
            }
            tr.exit(op);
            latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        RoundResult {
            units: bits,
            secs: start.elapsed().as_secs_f64(),
            latencies_ms,
        }
    });

    let mut probes = BTreeMap::new();
    probes.insert("evo.threads", ea_threads() as f64);
    if args.trace {
        let largest = sets.len() - 1;
        match scaling(&sets[largest], mix(args.seed, largest as u64)) {
            Ok(s) => {
                probes.insert("evo.scaling_1_to_n", s);
            }
            Err(e) => gates.push(e),
        }
    }
    let rate = ratio(tr.counter("core.rate_pct_sum"), tr.counter("core.sets"));
    Run {
        setup_s,
        rounds,
        attempted,
        failed,
        info: vec![
            ("test_bits_per_s", median(&measured.rates), "bits/s"),
            ("compression_rate_pct", rate, "%"),
            (
                "error_rate",
                ratio(failed as f64, attempted as f64),
                "ratio",
            ),
        ],
        gates,
        probes,
        measured,
    }
}

/// Same-config EA throughput at `nproc` threads over 1 thread: evaluations
/// per second of the EA run alone, median of alternating repeats. The two
/// thread counts must produce the same stream.
fn scaling(set: &TestSet, seed: u64) -> Result<f64, String> {
    let n = std::thread::available_parallelism().map_or(1, |n| n.get());
    let run = |threads: usize| {
        EaCompressor::builder(12, 64)
            .seed(seed)
            .threads(threads)
            .build()
            .compress_with_summary(set)
            .map_err(|e| format!("scaling probe: {e}"))
    };
    let mut ratios = Vec::with_capacity(SCALING_REPEATS);
    for _ in 0..SCALING_REPEATS {
        let (one, one_summary) = run(1)?;
        let (many, many_summary) = run(n)?;
        if !same_stream(&one, &many) {
            return Err(format!("EA stream differs between 1 and {n} threads"));
        }
        ratios.push(ratio(
            many_summary.evaluations_per_sec(),
            one_summary.evaluations_per_sec(),
        ));
    }
    Ok(median(&ratios))
}
