//! The host record, the metric tables and the result line.

use crate::stats::{median, peak_rss_mb, ratio};
use crate::trace::{SpanTotals, Tracer};
use crate::{Args, Run};

pub type Metric = (&'static str, f64, &'static str);

/// Describes the host, toolchain and commit that produced a result, so
/// that figures from different hosts are never compared silently.
/// `ea_threads` is the thread count the workload's timed EA runs evaluate
/// on (`null` without an EA); `ea_threads_auto` is what `threads` auto
/// resolves to on this host.
pub fn host_record(args: &Args, ea_threads: Option<usize>) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let threads_env = std::env::var(evotc_evo::parallel::THREADS_ENV).ok();
    format!(
        "{{\"host\":{{\"nproc\":{nproc},\"cpu\":{},\"ea_threads\":{},\"ea_threads_auto\":{},\"evotc_test_threads\":{},\"rustc\":{},\"commit\":{},\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{}}}}}",
        json_str(&cpu),
        ea_threads.map_or("null".into(), |n| n.to_string()),
        evotc_evo::parallel::resolve_threads(0),
        threads_env.as_deref().map_or("null".into(), json_str),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(env!("PERFBENCH_COMMIT")),
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
    )
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The end-to-end metrics, the same four on every workload.
pub fn end_to_end(run: &Run) -> Vec<Metric> {
    vec![
        ("setup_s", run.setup_s, "s"),
        ("throughput_per_s", median(&run.measured.rates), "1/s"),
        ("latency_p50_ms", median(&run.measured.latencies_ms), "ms"),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
    ]
}

/// Every per-layer metric with its unit. Times and counts are per round;
/// a layer a workload does not call reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("atpg.self_s", "s"),
    ("atpg.stuck_at_s", "s"),
    ("atpg.path_delay_s", "s"),
    ("atpg.podem_test_s", "s"),
    ("atpg.podem_untestable_s", "s"),
    ("atpg.podem_aborted_s", "s"),
    ("atpg.fault_drop_s", "s"),
    ("atpg.faults", "count"),
    ("atpg.detected", "count"),
    ("atpg.untestable", "count"),
    ("atpg.aborted", "count"),
    ("atpg.patterns", "count"),
    ("atpg.robust_paths", "count"),
    ("atpg.useful_ratio", "ratio"),
    ("atpg.fault_coverage_pct", "%"),
    ("netlist.self_s", "s"),
    ("netlist.parse_bench_s", "s"),
    ("netlist.parse_yosys_s", "s"),
    ("netlist.write_s", "s"),
    ("netlist.bytes_per_gate", "B/gate"),
    ("sim.self_s", "s"),
    ("sim.simulate64_s", "s"),
    ("sim.gate_evals_per_s", "1/s"),
    ("sim.fault_sim_s", "s"),
    ("sim.faults_simulated", "count"),
    ("bits.self_s", "s"),
    ("bits.histogram_s", "s"),
    ("bits.distinct_blocks", "count"),
    ("core.self_s", "s"),
    ("core.ea_s", "s"),
    ("core.encode_s", "s"),
    ("core.evals", "count"),
    ("core.generations", "count"),
    ("core.evals_per_s", "1/s"),
    ("core.cache_hit_ratio", "ratio"),
    ("core.cache_fallback_ratio", "ratio"),
    ("core.compression_rate_pct", "%"),
    ("evo.threads", "count"),
    ("evo.scaling_1_to_n", "ratio"),
    ("evo.checkpoint_overhead_pct", "%"),
    ("evo.checkpoint_bytes", "B"),
    ("decoder.self_s", "s"),
    ("decoder.verify_s", "s"),
    ("decoder.cycles", "count"),
    ("decoder.cycles_per_s", "1/s"),
    ("service.self_s", "s"),
    ("service.submit_us_p50", "us"),
    ("service.oracle_job_ms", "ms"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.sheds", "count"),
    ("service.retries", "count"),
    ("service.rejected", "count"),
    ("service.failed", "count"),
    ("service.backlog_max", "count"),
    ("service.generator_lag_ms_max", "ms"),
    ("service.job_latency_p95_ms", "ms"),
    ("service.latency_samples", "count"),
    ("bench.self_s", "s"),
    ("trace_overhead_pct", "%"),
];

/// The per-layer metrics of a traced run: span totals of the traced
/// rounds, counters of all rounds (both per round), and the values the
/// workload measured outside its rounds.
pub fn per_layer(tr: &Tracer, run: &Run) -> Vec<Metric> {
    let spans = SpanTotals::of_rounds(tr);
    let rounds = run.rounds.count();
    let c = |name: &str| ratio(tr.counter(name), rounds);
    let traced = median(&run.rounds.traced_s);
    let untraced = median(&run.rounds.untraced_s);
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = if let Some(&v) = run.probes.get(name) {
                v
            } else {
                match name {
                    "atpg.useful_ratio" => ratio(
                        c("atpg.patterns"),
                        c("atpg.patterns") + c("atpg.untestable") + c("atpg.aborted"),
                    ),
                    "atpg.fault_coverage_pct" => {
                        ratio(c("atpg.coverage_pct_sum"), c("atpg.circuits"))
                    }
                    "atpg.fault_drop_s" => spans.secs("sim.fault_drop"),
                    "netlist.write_s" => {
                        spans.secs("netlist.write_bench") + spans.secs("netlist.write_yosys")
                    }
                    "netlist.bytes_per_gate" => ratio(c("netlist.heap_bytes"), c("netlist.gates")),
                    "sim.gate_evals_per_s" => {
                        ratio(c("sim.gate_evals"), spans.secs("sim.simulate64"))
                    }
                    "sim.fault_sim_s" => {
                        spans.secs("sim.fault_drop") + spans.secs("sim.detected_mask")
                    }
                    "sim.faults_simulated" => {
                        spans.calls("sim.fault_drop") + spans.calls("sim.detected_mask")
                    }
                    "core.evals_per_s" => ratio(c("core.evals"), c("core.ea_elapsed_s")),
                    "core.cache_hit_ratio" => ratio(
                        c("core.cache_hits"),
                        c("core.cache_hits") + c("core.cache_misses"),
                    ),
                    "core.cache_fallback_ratio" => {
                        ratio(c("core.cache_fallbacks"), c("core.evals"))
                    }
                    "core.compression_rate_pct" => ratio(c("core.rate_pct_sum"), c("core.sets")),
                    "decoder.cycles_per_s" => {
                        ratio(c("decoder.cycles"), spans.secs("decoder.verify"))
                    }
                    "service.submit_us_p50" => spans.median_secs("service.submit") * 1e6,
                    "service.cache_hit_ratio" => ratio(
                        c("service.cache_hits"),
                        c("service.cache_hits") + c("service.completed_fresh"),
                    ),
                    "service.backlog_max" | "service.generator_lag_ms_max" => tr.counter(name),
                    "trace_overhead_pct" => (ratio(traced, untraced) - 1.0) * 100.0,
                    _ => match name.strip_suffix(".self_s") {
                        Some(layer) => spans.self_secs(layer),
                        None => match name.strip_suffix("_s") {
                            Some(span) => spans.secs(span),
                            None => c(name),
                        },
                    },
                }
            };
            (name, value, unit)
        })
        .collect()
}

/// The last line of standard output.
pub fn result_line(correct: bool, run: &Run, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        run.attempted.max(1),
        run.failed,
        body.join(",")
    )
}
