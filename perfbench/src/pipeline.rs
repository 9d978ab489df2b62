//! `pipeline`: the paper's flows end to end on ISCAS-profile stand-ins.
//!
//! Each circuit goes `.bench` text → `parse_bench` → stuck-at ATPG (the
//! paper's Table 1) and robust path-delay ATPG (Table 2) → for each test
//! set the shared compression flow (`flow.rs`) → a verified stream. The circuits are the
//! fixed stand-ins of `evotc_workloads::atpg::circuit`, so the ATPG work is
//! the same on every seed; the seed drives the EA, which gets a fresh seed
//! for every circuit in every round so that a run averages over many EA
//! runs. A round is every circuit once, and `throughput_per_s` counts
//! circuits.

use std::time::Instant;

use evotc_atpg::{
    generate_path_delay_tests, generate_stuck_at_tests, PathDelayConfig, Podem, PodemResult,
    StuckAtConfig, StuckAtOutcome,
};
use evotc_bits::TestSet;
use evotc_netlist::{parse_bench, write_bench, Netlist};
use evotc_sim::{collapse_faults, detected_mask};

use crate::flow::{compress_verified, compressor, ea_threads, FlowError};
use crate::stats::{median, mix, ratio};
use crate::trace::Tracer;
use crate::{run_rounds, setup, Args, RoundResult, Run};

/// `c432` aborts faults at the default PODEM budget; `s298` does not;
/// `s344` yields no robust path-delay test, so its Table 2 set is empty
/// and compression is skipped for it.
const CIRCUITS: [&str; 3] = ["c432", "s298", "s344"];
/// Input set-ups timed together as one `setup_s` sample.
const SETUP_BATCH: usize = 32;

struct Circuit {
    name: &'static str,
    bench: String,
    /// The stuck-at outcome of the last untraced round, for the gates.
    stuck_at: Option<StuckAtOutcome>,
    /// The test set of the last traced (split-loop) round.
    split: Option<StuckAtOutcome>,
}

pub fn run(args: &Args, tr: &mut Tracer) -> Run {
    let (mut circuits, setup_s) = setup(SETUP_BATCH, || {
        CIRCUITS
            .iter()
            .map(|&name| Circuit {
                name,
                bench: write_bench(&evotc_workloads::atpg::circuit(name)),
                stuck_at: None,
                split: None,
            })
            .collect::<Vec<_>>()
    });
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut gates = Vec::new();
    let mut ea_runs = 0u64;

    let (rounds, measured) = run_rounds(args, tr, |tr, traced| {
        let start = Instant::now();
        let mut latencies_ms = Vec::new();
        for circuit in circuits.iter_mut() {
            let t = Instant::now();
            let op = tr.enter("op");
            attempted += 1;
            ea_runs += 1;
            match circuit_flow(tr, circuit, traced, mix(args.seed, ea_runs)) {
                Ok(()) => {}
                Err(FlowError::Failed(e)) => {
                    eprintln!("perfbench: {}: {e}", circuit.name);
                    failed += 1;
                }
                Err(FlowError::Gate(e)) => gates.push(format!("{}: {e}", circuit.name)),
            }
            tr.exit(op);
            latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        RoundResult {
            units: circuits.len() as f64,
            secs: start.elapsed().as_secs_f64(),
            latencies_ms,
        }
    });

    tr.set_on(args.trace);
    for circuit in &circuits {
        gates.extend(check_atpg(tr, circuit));
    }
    tr.set_on(false);

    let probes = std::collections::BTreeMap::from([("evo.threads", ea_threads() as f64)]);
    let coverage = ratio(
        tr.counter("atpg.coverage_pct_sum"),
        tr.counter("atpg.circuits"),
    );
    let rate = ratio(tr.counter("core.rate_pct_sum"), tr.counter("core.sets"));
    Run {
        setup_s,
        rounds,
        attempted,
        failed,
        info: vec![
            ("circuits_per_s", median(&measured.rates), "circuits/s"),
            ("compression_rate_pct", rate, "%"),
            ("fault_coverage_pct", coverage, "%"),
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

/// One circuit through both paper flows.
fn circuit_flow(
    tr: &mut Tracer,
    circuit: &mut Circuit,
    traced: bool,
    ea_seed: u64,
) -> Result<(), FlowError> {
    let netlist = tr
        .span("netlist.parse_bench", || parse_bench(&circuit.bench))
        .map_err(|e| FlowError::Failed(e.to_string()))?;
    tr.add("netlist.heap_bytes", netlist.heap_bytes() as f64);
    tr.add("netlist.gates", netlist.num_gates() as f64);

    // Untraced rounds call the library's generator; traced rounds run the
    // same loop over its public parts so each PODEM call gets a span.
    let stuck_at = if traced {
        split_stuck_at(tr, &netlist)
    } else {
        tr.span("atpg.stuck_at", || {
            generate_stuck_at_tests(&netlist, &StuckAtConfig::default())
        })
    };
    tr.add("atpg.faults", stuck_at.num_faults as f64);
    tr.add("atpg.detected", stuck_at.detected as f64);
    tr.add("atpg.untestable", stuck_at.untestable as f64);
    tr.add("atpg.aborted", stuck_at.aborted as f64);
    tr.add("atpg.patterns", stuck_at.tests.num_patterns() as f64);
    tr.add("atpg.coverage_pct_sum", stuck_at.fault_coverage() * 100.0);
    tr.add("atpg.circuits", 1.0);
    let compressor = compressor(ea_seed);
    compress_nonempty(tr, &compressor, &stuck_at.tests)?;
    if traced {
        circuit.split = Some(stuck_at);
    } else {
        circuit.stuck_at = Some(stuck_at);
    }

    let path_delay = tr.span("atpg.path_delay", || {
        generate_path_delay_tests(&netlist, &PathDelayConfig::default())
    });
    tr.add("atpg.robust_paths", path_delay.robust_tests as f64);
    compress_nonempty(tr, &compressor, &path_delay.tests)
}

/// An ATPG run that finds no test yields an empty set. That is a result,
/// not a failure: there is nothing to compress, and the EA would reject
/// the set with `CompressError::EmptyTestSet`.
fn compress_nonempty(
    tr: &mut Tracer,
    compressor: &evotc_core::EaCompressor,
    set: &TestSet,
) -> Result<(), FlowError> {
    if set.is_empty() {
        return Ok(());
    }
    compress_verified(tr, compressor, set).map(|_| ())
}

/// `generate_stuck_at_tests` rebuilt from public calls — `collapse_faults`,
/// `Podem::run` and `detected_mask` — with a span around each. The gate in
/// [`check_atpg`] holds it byte-identical to the library's generator.
fn split_stuck_at(tr: &mut Tracer, netlist: &Netlist) -> StuckAtOutcome {
    let outer = tr.enter("atpg.stuck_at");
    let faults = tr.span("sim.collapse_faults", || collapse_faults(netlist));
    let mut dropped = vec![false; faults.len()];
    let mut tests = TestSet::new(netlist.num_inputs());
    let (mut detected, mut untestable, mut aborted) = (0, 0, 0);
    let podem = Podem::new(netlist, StuckAtConfig::default().podem);
    for i in 0..faults.len() {
        if dropped[i] {
            continue;
        }
        dropped[i] = true;
        let call = tr.enter("atpg.podem");
        match podem.run(faults[i]) {
            PodemResult::Test(cube) => {
                tr.exit_as(call, Some("atpg.podem_test"));
                detected += 1;
                let inputs = zero_filled_words(std::slice::from_ref(&cube), netlist.num_inputs());
                for (j, &fault) in faults.iter().enumerate() {
                    if !dropped[j]
                        && tr.span("sim.fault_drop", || detected_mask(netlist, fault, &inputs)) & 1
                            == 1
                    {
                        dropped[j] = true;
                        detected += 1;
                    }
                }
                tests.push(cube).expect("cube width equals input count");
            }
            PodemResult::Untestable => {
                tr.exit_as(call, Some("atpg.podem_untestable"));
                untestable += 1;
            }
            PodemResult::Aborted => {
                tr.exit_as(call, Some("atpg.podem_aborted"));
                aborted += 1;
            }
        }
    }
    tr.exit(outer);
    StuckAtOutcome {
        tests,
        num_faults: faults.len(),
        detected,
        untestable,
        aborted,
    }
}

/// Packs up to 64 patterns, don't-cares filled with 0, into one word per
/// input (bit `p` = pattern `p`) — the fill the generator's fault dropping
/// uses.
fn zero_filled_words(patterns: &[evotc_bits::TestPattern], width: usize) -> Vec<u64> {
    let mut words = vec![0u64; width];
    for (p, pattern) in patterns.iter().enumerate() {
        let filled = pattern.fill_x(false);
        for (j, word) in words.iter_mut().enumerate() {
            if filled.try_trit(j).and_then(|t| t.to_bool()) == Some(true) {
                *word |= 1 << p;
            }
        }
    }
    words
}

/// The ATPG gates: the split loop reproduces the generator byte for byte,
/// and fault-simulating the generated set again detects at least the
/// faults the generator reported.
fn check_atpg(tr: &mut Tracer, circuit: &Circuit) -> Vec<String> {
    let mut failures = Vec::new();
    let Some(outcome) = &circuit.stuck_at else {
        return failures;
    };
    if let Some(split) = &circuit.split {
        let same = split.tests == outcome.tests
            && (
                split.num_faults,
                split.detected,
                split.untestable,
                split.aborted,
            ) == (
                outcome.num_faults,
                outcome.detected,
                outcome.untestable,
                outcome.aborted,
            );
        if !same {
            failures.push(format!(
                "{}: split PODEM loop differs from generate_stuck_at_tests",
                circuit.name
            ));
        }
    }
    let netlist = parse_bench(&circuit.bench).expect("parsed in every round");
    let gate = tr.enter("gate");
    // Unused lanes of the last word simulate the all-zero pattern; the
    // mask keeps them from counting.
    let words: Vec<(Vec<u64>, u64)> = outcome
        .tests
        .patterns()
        .chunks(64)
        .map(|chunk| {
            let lanes = u64::MAX >> (64 - chunk.len());
            (zero_filled_words(chunk, netlist.num_inputs()), lanes)
        })
        .collect();
    let redetected = collapse_faults(&netlist)
        .into_iter()
        .filter(|&fault| {
            words.iter().any(|(w, lanes)| {
                tr.span("sim.detected_mask", || detected_mask(&netlist, fault, w)) & lanes != 0
            })
        })
        .count();
    tr.exit(gate);
    if redetected < outcome.detected {
        failures.push(format!(
            "{}: fault simulation of the test set detects {redetected} faults, ATPG reported {}",
            circuit.name, outcome.detected
        ));
    }
    failures
}
