//! `ingest`: a generated `synth20k` netlist written and parsed as `.bench`
//! and as Yosys JSON, both parses simulated on random patterns, and
//! `detected_mask` over a fixed sample of collapsed faults.
//!
//! In `pipeline` the `netlist` and `sim` layers take microseconds per
//! circuit; this workload is where they are measured. The seed drives the
//! netlist and the patterns. A round is one pass, and `throughput_per_s`
//! counts the netlist's gates per pass.

use std::collections::BTreeMap;
use std::time::Instant;

use evotc_netlist::{
    generate, parse_bench, parse_yosys_json, write_bench, write_yosys_json, GeneratorConfig,
    Netlist,
};
use evotc_sim::{collapse_faults, detected_mask, simulate64};

use crate::stats::{median, mix, ratio};
use crate::trace::Tracer;
use crate::{run_rounds, setup, Args, RoundResult, Run};

const GATES: usize = 20_000;
/// 64-pattern words simulated on each parsed netlist per pass.
const PATTERN_WORDS: u64 = 4;
/// Collapsed faults fault-simulated per pass.
const FAULT_SAMPLE: usize = 64;

struct Input {
    netlist: Netlist,
    /// `PATTERN_WORDS` words per primary input.
    patterns: Vec<Vec<u64>>,
}

pub fn run(args: &Args, tr: &mut Tracer) -> Run {
    let (input, setup_s) = setup(1, || {
        let netlist = generate(&GeneratorConfig::synthetic(GATES, mix(args.seed, 0)));
        let patterns = (0..PATTERN_WORDS)
            .map(|w| {
                (0..netlist.num_inputs() as u64)
                    .map(|j| mix(args.seed, (w << 32) | j))
                    .collect()
            })
            .collect();
        Input { netlist, patterns }
    });
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut gates = Vec::new();

    let (rounds, measured) = run_rounds(args, tr, |tr, _| {
        let start = Instant::now();
        attempted += 1;
        let op = tr.enter("op");
        let units = match pass(tr, &input) {
            Ok(Ok(())) => input.netlist.num_gates() as f64,
            Ok(Err(gate)) => {
                gates.push(gate);
                0.0
            }
            Err(e) => {
                eprintln!("perfbench: ingest: {e}");
                failed += 1;
                0.0
            }
        };
        tr.exit(op);
        let secs = start.elapsed().as_secs_f64();
        RoundResult {
            units,
            secs,
            latencies_ms: vec![secs * 1e3],
        }
    });

    let probes = BTreeMap::new();
    Run {
        setup_s,
        rounds,
        attempted,
        failed,
        info: vec![
            ("gates_per_s", median(&measured.rates), "gates/s"),
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

/// One ingest pass. The outer error is a failed library call; the inner
/// one a correctness-gate divergence.
fn pass(tr: &mut Tracer, input: &Input) -> Result<Result<(), String>, String> {
    let netlist = &input.netlist;
    let bench = tr.span("netlist.write_bench", || write_bench(netlist));
    let from_bench = tr
        .span("netlist.parse_bench", || parse_bench(&bench))
        .map_err(|e| e.to_string())?;
    let yosys = tr.span("netlist.write_yosys", || write_yosys_json(netlist));
    let from_yosys = tr
        .span("netlist.parse_yosys", || parse_yosys_json(&yosys))
        .map_err(|e| e.to_string())?;
    tr.add("netlist.heap_bytes", from_bench.heap_bytes() as f64);
    tr.add("netlist.gates", from_bench.num_gates() as f64);
    if from_bench.num_gates() != netlist.num_gates()
        || from_yosys.num_gates() != netlist.num_gates()
    {
        return Ok(Err("a parse changed the gate count".into()));
    }

    for words in &input.patterns {
        let a = tr.span("sim.simulate64", || simulate64(&from_bench, words));
        let b = tr.span("sim.simulate64", || simulate64(&from_yosys, words));
        tr.add("sim.gate_evals", 2.0 * 64.0 * netlist.num_gates() as f64);
        let outputs = |n: &Netlist, v: &[u64]| -> Vec<u64> {
            n.outputs().iter().map(|o| v[o.index()]).collect()
        };
        if outputs(&from_bench, &a) != outputs(&from_yosys, &b) {
            return Ok(Err(
                "netlists parsed from .bench and Yosys JSON simulate differently".into(),
            ));
        }
    }

    let faults = tr.span("sim.collapse_faults", || collapse_faults(&from_bench));
    let stride = (faults.len() / FAULT_SAMPLE).max(1);
    for &fault in faults.iter().step_by(stride).take(FAULT_SAMPLE) {
        std::hint::black_box(tr.span("sim.detected_mask", || {
            detected_mask(&from_bench, fault, &input.patterns[0])
        }));
    }
    Ok(Ok(()))
}
