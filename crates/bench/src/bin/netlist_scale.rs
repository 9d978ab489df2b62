//! Netlist substrate scale benchmark: proves the million-gate claim with
//! numbers instead of assertions.
//!
//! For synthetic circuits at 10k, 100k and 1M gates, measures:
//!
//! * `build` — generator → validated, topologically sorted [`Netlist`]
//!   (gates/sec, includes the Kahn sort and CSR construction);
//! * `levelize` — `NetlistBuilder::finish()` alone on a pre-declared
//!   builder (gates/sec);
//! * `parse_bench` / `parse_yosys` — front-end throughput on the circuit's
//!   own serialized text (gates/sec; the Yosys JSON DOM is skipped at 1M
//!   where the document alone is hundreds of MB);
//! * `sim64` — 64-pattern bit-parallel simulation (gate-evals/sec);
//! * `bytes_per_gate` — [`Netlist::heap_bytes`] over gate count, the
//!   peak-RSS proxy for the representation itself.
//!
//! Writes `BENCH_netlist.json`, which also records the host it ran on. With `--check-only` it gates correctness
//! and scale instead of timing everything: the 100k-gate circuit must
//! build, levelize and bit-parallel-simulate inside a wall-clock budget,
//! and a 10k-gate circuit must survive `.bench` and Yosys-JSON round trips
//! structurally unchanged. Exits non-zero on any failure.
//!
//! ```text
//! cargo run --release -p evotc_bench --bin netlist_scale [-- --check-only]
//! ```

use std::time::{Duration, Instant};

use evotc_netlist::{
    generate, parse_bench, parse_yosys_json, write_bench, write_yosys_json, GateKind,
    GeneratorConfig, Netlist, NetlistBuilder,
};
use evotc_sim::simulate64;

/// Gate counts per scale step. The last is the million-gate target.
const SCALES: [usize; 3] = [10_000, 100_000, 1_000_000];
/// `--check-only` wall budget for build + levelize + simulate at 100k
/// gates. Generous for release builds on a loaded CI runner (locally the
/// three together run well under a second).
const CHECK_BUDGET: Duration = Duration::from_secs(30);

fn fail(msg: &str) -> ! {
    eprintln!("netlist_scale: FAIL: {msg}");
    std::process::exit(1);
}

/// Re-declares a finished netlist into a fresh builder (same declaration
/// order as the topological order), so `finish()` can be timed alone.
fn to_builder(n: &Netlist) -> NetlistBuilder {
    let mut b = NetlistBuilder::new(n.name());
    for id in n.node_ids() {
        if n.kind(id) == GateKind::Input {
            match n.net_name(id) {
                Some(name) => b.input(name),
                None => b.input_anon(),
            };
        } else {
            let fanins = n.fanins(id).to_vec();
            match n.net_name(id) {
                Some(name) => b.gate(name, n.kind(id), fanins),
                None => b.gate_anon(n.kind(id), fanins),
            }
            .expect("declarations copied from a valid netlist");
        }
    }
    for &o in n.outputs() {
        b.output(o);
    }
    b
}

/// Structural equality after a serialize → parse round trip.
fn assert_round_trip(a: &Netlist, b: &Netlist, what: &str) {
    if a.num_nodes() != b.num_nodes() || a.inputs() != b.inputs() || a.outputs() != b.outputs() {
        fail(&format!("{what}: interface changed across round trip"));
    }
    for id in a.node_ids() {
        if a.kind(id) != b.kind(id)
            || a.fanins(id) != b.fanins(id)
            || a.level(id) != b.level(id)
            || a.name_of(id).to_string() != b.name_of(id).to_string()
        {
            fail(&format!("{what}: node {id} changed across round trip"));
        }
    }
}

/// Deterministic pattern words for the simulation sweep.
fn input_words(n: &Netlist) -> Vec<u64> {
    (0..n.num_inputs() as u64)
        .map(|j| {
            0x9E37_79B9_7F4A_7C15u64
                .wrapping_mul(j + 1)
                .rotate_left((j % 63) as u32)
        })
        .collect()
}

struct ScaleRow {
    gates: usize,
    build_gps: f64,
    levelize_gps: f64,
    parse_bench_gps: f64,
    /// `None` where the DOM would dwarf the netlist (1M gates).
    parse_yosys_gps: Option<f64>,
    sim_gevals_per_sec: f64,
    bytes_per_gate: f64,
    depth: u32,
    edges: usize,
}

fn measure_scale(gates: usize) -> ScaleRow {
    let config = GeneratorConfig::synthetic(gates, 0xE07C);

    let t = Instant::now();
    let netlist = generate(&config);
    let build_s = t.elapsed().as_secs_f64();

    let builder = to_builder(&netlist);
    let t = Instant::now();
    let releveled = builder.finish().expect("valid declarations");
    let levelize_s = t.elapsed().as_secs_f64();
    if releveled.depth() != netlist.depth() {
        fail("re-levelized netlist changed depth");
    }

    let bench_text = write_bench(&netlist);
    let t = Instant::now();
    let reparsed = parse_bench(&bench_text).unwrap_or_else(|e| fail(&format!("parse_bench: {e}")));
    let parse_bench_s = t.elapsed().as_secs_f64();
    if reparsed.num_nodes() != netlist.num_nodes() {
        fail("parse_bench round trip changed node count");
    }
    drop(reparsed);
    drop(bench_text);

    let parse_yosys_gps = if gates <= 100_000 {
        let json = write_yosys_json(&netlist);
        let t = Instant::now();
        let reparsed =
            parse_yosys_json(&json).unwrap_or_else(|e| fail(&format!("parse_yosys_json: {e}")));
        let parse_yosys_s = t.elapsed().as_secs_f64();
        if reparsed.num_nodes() != netlist.num_nodes() {
            fail("parse_yosys_json round trip changed node count");
        }
        Some(gates as f64 / parse_yosys_s)
    } else {
        None
    };

    let words = input_words(&netlist);
    let t = Instant::now();
    let values = simulate64(&netlist, &words);
    let sim_s = t.elapsed().as_secs_f64();
    // Keep the simulation from being optimized out.
    if values.iter().all(|&w| w == 0) {
        fail("simulation produced all-zero values");
    }

    ScaleRow {
        gates,
        build_gps: gates as f64 / build_s,
        levelize_gps: gates as f64 / levelize_s,
        parse_bench_gps: gates as f64 / parse_bench_s,
        parse_yosys_gps,
        sim_gevals_per_sec: (netlist.num_gates() * 64) as f64 / sim_s,
        bytes_per_gate: netlist.heap_bytes() as f64 / gates as f64,
        depth: netlist.depth(),
        edges: netlist.num_edges(),
    }
}

fn check_only() {
    // Gate 1: 10k-gate circuit round-trips structurally unchanged through
    // both front-ends.
    let small = generate(&GeneratorConfig::synthetic(10_000, 0xE07C));
    let from_bench = parse_bench(&write_bench(&small))
        .unwrap_or_else(|e| fail(&format!("10k .bench round trip: {e}")));
    assert_round_trip(&small, &from_bench, ".bench round trip");
    let from_yosys = parse_yosys_json(&write_yosys_json(&small))
        .unwrap_or_else(|e| fail(&format!("10k yosys round trip: {e}")));
    assert_round_trip(&small, &from_yosys, "yosys round trip");

    // Gate 2: the 100k-gate circuit builds, levelizes and simulates inside
    // the wall budget — the "netlist layer invisible in a profile" floor.
    let t = Instant::now();
    let netlist = generate(&GeneratorConfig::synthetic(100_000, 0xE07C));
    let releveled = to_builder(&netlist).finish().expect("valid declarations");
    if releveled.depth() != netlist.depth() {
        fail("re-levelized netlist changed depth");
    }
    let values = simulate64(&netlist, &input_words(&netlist));
    let elapsed = t.elapsed();
    if values.iter().all(|&w| w == 0) {
        fail("simulation produced all-zero values");
    }
    if elapsed > CHECK_BUDGET {
        fail(&format!(
            "100k-gate build+levelize+simulate took {elapsed:?} (budget {CHECK_BUDGET:?})"
        ));
    }
    println!(
        "netlist_scale --check-only: OK (100k gates in {:.2}s, round trips clean)",
        elapsed.as_secs_f64()
    );
}

fn main() {
    if std::env::args().any(|a| a == "--check-only") {
        check_only();
        return;
    }

    let mut rows = Vec::new();
    for &gates in &SCALES {
        let row = measure_scale(gates);
        println!(
            "{:>9} gates: build {:>12.0}/s  levelize {:>12.0}/s  parse_bench {:>12.0}/s  \
             parse_yosys {:>12}  sim64 {:>13.0} gate-evals/s  {:>6.1} B/gate  depth {}  edges {}",
            row.gates,
            row.build_gps,
            row.levelize_gps,
            row.parse_bench_gps,
            row.parse_yosys_gps
                .map(|v| format!("{v:.0}/s"))
                .unwrap_or_else(|| "-".into()),
            row.sim_gevals_per_sec,
            row.bytes_per_gate,
            row.depth,
            row.edges,
        );
        rows.push(row);
    }

    let mut scales_json = String::new();
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            scales_json.push_str(",\n");
        }
        scales_json.push_str(&format!(
            "    {{\"gates\": {}, \"build_gates_per_sec\": {:.0}, \
             \"levelize_gates_per_sec\": {:.0}, \"parse_bench_gates_per_sec\": {:.0}, \
             \"parse_yosys_gates_per_sec\": {}, \"sim64_gate_evals_per_sec\": {:.0}, \
             \"bytes_per_gate\": {:.1}, \"depth\": {}, \"edges\": {}}}",
            r.gates,
            r.build_gps,
            r.levelize_gps,
            r.parse_bench_gps,
            r.parse_yosys_gps
                .map(|v| format!("{v:.0}"))
                .unwrap_or_else(|| "null".into()),
            r.sim_gevals_per_sec,
            r.bytes_per_gate,
            r.depth,
            r.edges,
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"netlist_scale\",\n  {},\n  \"scales\": [\n{scales_json}\n  ]\n}}\n",
        evotc_bench::host_json_fields()
    );
    let path = "BENCH_netlist.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e} (numbers are above)"),
    }
}
