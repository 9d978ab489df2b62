//! Experiment harness: regenerates every table and figure of the paper.
//!
//! The binaries in `src/bin/` print markdown tables with the same columns
//! as the paper's Tables 1 and 2, plus the ablations called out in
//! `DESIGN.md`:
//!
//! | binary      | experiment |
//! |-------------|------------|
//! | `table1`    | stuck-at: 9C / 9C+HC / EA / EA-Best |
//! | `table2`    | path-delay: 9C / 9C+HC / EA1 / EA2 |
//! | `sweep`     | Ablation A — compression rate over the (K, L) grid |
//! | `operators` | Ablation B — EA parameter sensitivity |
//! | `seeding`   | Ablation C — 9C-seeded initial population |
//! | `baselines` | Baseline F — run-length / Golomb / FDR / selective Huffman |
//! | `tradeoff`  | Multi-objective compression / scan-power / decoder-area fronts |
//!
//! Every binary accepts `--full` for paper-scale runs; the default *quick*
//! profile caps test-set sizes and EA budgets so the whole table finishes
//! in minutes (see [`RunProfile`]). `EXPERIMENTS.md` records which profile
//! produced the committed numbers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use evotc_bits::TestSet;
use evotc_core::{EaCompressor, NineCCompressor, NineCHuffmanCompressor, TestCompressor};
use evotc_workloads::tables::{PathDelayRow, StuckAtRow};
use evotc_workloads::workload_with_limit;

/// Execution profile of a harness run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunProfile {
    /// Cap on generated test-set bits (the rates are density-driven and not
    /// size-sensitive; see DESIGN.md §2.5).
    pub size_limit: usize,
    /// EA stagnation limit (paper: 500).
    pub stagnation_limit: usize,
    /// EA evaluation budget per run.
    pub max_evaluations: u64,
    /// Runs to average (paper: 5).
    pub runs: usize,
    /// (K, L) grid searched for the EA-Best column.
    pub grid: &'static [(usize, usize)],
    /// Fitness-evaluation threads per EA run, and worker threads for batch
    /// workload construction (`0` = auto; results are identical for every
    /// value — see `evotc_evo::parallel`).
    pub threads: usize,
}

impl RunProfile {
    /// The interactive profile used by default.
    pub fn quick() -> Self {
        RunProfile {
            size_limit: 1 << 15,
            stagnation_limit: 25,
            max_evaluations: 1_500,
            runs: 2,
            grid: &[(8, 16), (12, 32)],
            threads: 0,
        }
    }

    /// Paper-scale parameters (hours of compute on the larger circuits).
    pub fn full() -> Self {
        RunProfile {
            size_limit: usize::MAX,
            stagnation_limit: 500,
            max_evaluations: u64::MAX,
            runs: 5,
            grid: &[
                (4, 16),
                (6, 9),
                (8, 9),
                (8, 16),
                (8, 64),
                (12, 32),
                (12, 64),
                (16, 64),
            ],
            threads: 0,
        }
    }

    /// Parses `--full` and `--threads N` / `--threads=N` from CLI arguments.
    pub fn from_args<I: IntoIterator<Item = String>>(args: I) -> Self {
        let args: Vec<String> = args.into_iter().collect();
        let mut profile = if args.iter().any(|a| a == "--full") {
            RunProfile::full()
        } else {
            RunProfile::quick()
        };
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            let value = if let Some(v) = arg.strip_prefix("--threads=") {
                Some(v.to_string())
            } else if arg == "--threads" {
                iter.next().cloned()
            } else {
                None
            };
            if let Some(v) = value {
                profile.threads = v
                    .parse()
                    .unwrap_or_else(|_| panic!("--threads expects a number, got `{v}`"));
            }
        }
        profile
    }
}

/// Extracts the circuit-name filter from CLI arguments: everything that is
/// neither a `--flag` nor the value of a space-separated `--threads N`.
pub fn circuit_filter(args: &[String]) -> Vec<&String> {
    let mut filter = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--threads" {
            let _ = iter.next(); // the count, not a circuit name
        } else if !arg.starts_with("--") {
            filter.push(arg);
        }
    }
    filter
}

/// One regenerated row of Table 1 or Table 2.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasuredRow {
    /// Circuit name.
    pub circuit: String,
    /// Bits actually compressed (after the profile's size cap).
    pub bits: usize,
    /// Measured 9C rate (%).
    pub rate_9c: f64,
    /// Measured 9C+HC rate (%).
    pub rate_9c_hc: f64,
    /// Measured EA rate (%), averaged over the profile's runs.
    pub rate_ea: f64,
    /// Measured second EA column (% — EA-Best for Table 1, EA2 for Table 2).
    pub rate_ea2: f64,
}

/// Builds an EA compressor with the profile's budget and thread count.
pub fn ea_compressor(k: usize, l: usize, seed: u64, profile: &RunProfile) -> EaCompressor {
    EaCompressor::builder(k, l)
        .seed(seed)
        .stagnation_limit(profile.stagnation_limit)
        .max_evaluations(profile.max_evaluations)
        .threads(profile.threads)
        .build()
}

/// Average EA rate over the profile's run count.
pub fn ea_average(set: &TestSet, k: usize, l: usize, profile: &RunProfile) -> f64 {
    let mut total = 0.0;
    for seed in 0..profile.runs as u64 {
        let rate = ea_compressor(k, l, seed, profile)
            .compress(set)
            .map(|c| c.rate_percent())
            .unwrap_or(f64::NEG_INFINITY);
        total += rate;
    }
    total / profile.runs as f64
}

/// Best single-run EA rate over the profile's (K, L) grid.
pub fn ea_best(set: &TestSet, profile: &RunProfile) -> f64 {
    let mut best = f64::NEG_INFINITY;
    for &(k, l) in profile.grid {
        for seed in 0..profile.runs as u64 {
            let rate = ea_compressor(k, l, seed, profile)
                .compress(set)
                .map(|c| c.rate_percent())
                .unwrap_or(f64::NEG_INFINITY);
            best = best.max(rate);
        }
    }
    best
}

/// Regenerates one Table 1 row: 9C, 9C+HC, EA (K=12, L=64 average) and
/// EA-Best (grid maximum).
pub fn run_stuck_at_row(row: &StuckAtRow, profile: &RunProfile) -> MeasuredRow {
    let set = workload_with_limit(
        row.circuit,
        row.test_set_bits,
        row.rate_9c,
        1,
        profile.size_limit,
        1,
    );
    measure_row(row.circuit, &set, (12, 64), None, profile)
}

/// Regenerates one Table 2 row: 9C, 9C+HC, EA1 (K=8, L=9) and
/// EA2 (K=12, L=64).
pub fn run_path_delay_row(row: &PathDelayRow, profile: &RunProfile) -> MeasuredRow {
    let set = workload_with_limit(
        row.circuit,
        row.test_set_bits,
        row.rate_9c,
        1,
        profile.size_limit,
        2,
    );
    measure_row(row.circuit, &set, (8, 9), Some((12, 64)), profile)
}

/// Regenerates many Table 1 rows, building the calibrated workloads on the
/// profile's worker threads first (see `evotc_workloads::parallel`), then
/// measuring each row. Output order and values match calling
/// [`run_stuck_at_row`] per row.
pub fn run_stuck_at_rows(rows: &[&StuckAtRow], profile: &RunProfile) -> Vec<MeasuredRow> {
    let threads = evotc_evo::parallel::resolve_threads(profile.threads);
    let sets = evotc_workloads::stuck_at_workloads(rows, 1, profile.size_limit, threads);
    rows.iter()
        .zip(&sets)
        .map(|(row, set)| measure_row(row.circuit, set, (12, 64), None, profile))
        .collect()
}

/// Regenerates many Table 2 rows; the path-delay counterpart of
/// [`run_stuck_at_rows`].
pub fn run_path_delay_rows(rows: &[&PathDelayRow], profile: &RunProfile) -> Vec<MeasuredRow> {
    let threads = evotc_evo::parallel::resolve_threads(profile.threads);
    let sets = evotc_workloads::path_delay_workloads(rows, 1, profile.size_limit, threads);
    rows.iter()
        .zip(&sets)
        .map(|(row, set)| measure_row(row.circuit, set, (8, 9), Some((12, 64)), profile))
        .collect()
}

fn measure_row(
    circuit: &str,
    set: &TestSet,
    ea_params: (usize, usize),
    second_ea: Option<(usize, usize)>,
    profile: &RunProfile,
) -> MeasuredRow {
    let rate = |c: &dyn TestCompressor| {
        c.compress(set)
            .map(|r| r.rate_percent())
            .unwrap_or(f64::NEG_INFINITY)
    };
    let rate_9c = rate(&NineCCompressor::new(8));
    let rate_9c_hc = rate(&NineCHuffmanCompressor::new(8));
    let rate_ea = ea_average(set, ea_params.0, ea_params.1, profile);
    let rate_ea2 = match second_ea {
        Some((k, l)) => ea_average(set, k, l, profile),
        None => ea_best(set, profile).max(rate_ea),
    };
    MeasuredRow {
        circuit: circuit.to_string(),
        bits: set.total_bits(),
        rate_9c,
        rate_9c_hc,
        rate_ea,
        rate_ea2,
    }
}

/// Renders measured rows as a markdown table; `headers` names the last two
/// (EA) columns.
pub fn markdown_table(rows: &[MeasuredRow], headers: (&str, &str)) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "| circuit | bits | 9C | 9C+HC | {} | {} |",
        headers.0, headers.1
    );
    let _ = writeln!(out, "|---|---:|---:|---:|---:|---:|");
    for r in rows {
        let _ = writeln!(
            out,
            "| {} | {} | {:.1} | {:.1} | {:.1} | {:.1} |",
            r.circuit, r.bits, r.rate_9c, r.rate_9c_hc, r.rate_ea, r.rate_ea2
        );
    }
    let n = rows.len() as f64;
    let _ = writeln!(
        out,
        "| **average** | | **{:.1}** | **{:.1}** | **{:.1}** | **{:.1}** |",
        rows.iter().map(|r| r.rate_9c).sum::<f64>() / n,
        rows.iter().map(|r| r.rate_9c_hc).sum::<f64>() / n,
        rows.iter().map(|r| r.rate_ea).sum::<f64>() / n,
        rows.iter().map(|r| r.rate_ea2).sum::<f64>() / n,
    );
    out
}

/// The host a benchmark ran on, as JSON object members:
/// `"nproc": N, "cpu": "<model>"` — the available parallelism and the CPU
/// model name from `/proc/cpuinfo` (`"unknown"` where that file is absent).
/// Every `BENCH_*.json` writer embeds it, so a committed figure names the
/// machine that produced it and figures from different hosts are not
/// compared by mistake.
pub fn host_json_fields() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!("\"nproc\": {nproc}, \"cpu\": {cpu:?}")
}

/// Shared fixtures for the fitness-kernel measurements, used by both the
/// `fitness_kernel` criterion bench and the `fitness_smoke` binary so the
/// two can never drift apart on workload or genome recipe.
pub mod fitness_fixture {
    use evotc_bits::{BlockHistogram, TestSetString, Trit};
    use evotc_workloads::{synth, tables, workload_with_limit};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The paper-default shape: block length `K = 12`.
    pub const BLOCK_LEN: usize = 12;
    /// The paper-default shape: `L = 64` matching vectors.
    pub const NUM_MVS: usize = 64;

    /// Uniformly random genomes over `{0, 1, U}`, seeded — the population
    /// the EA's initial generation scores.
    pub fn random_genomes(n: usize, genome_len: usize, seed: u64) -> Vec<Vec<Trit>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                (0..genome_len)
                    .map(|_| Trit::from_index(rng.gen_range(0..3u8)))
                    .collect()
            })
            .collect()
    }

    /// The calibrated s953 stuck-at workload at `K = 12`: histogram plus
    /// uncompressed payload bits (the fitness denominator).
    pub fn paper_histogram() -> (BlockHistogram, f64) {
        let row = tables::stuck_at_row("s953").expect("s953 is a Table 1 row");
        let set = workload_with_limit(row.circuit, row.test_set_bits, row.rate_9c, 1, 1 << 14, 1);
        let string = TestSetString::try_new(&set, BLOCK_LEN).expect("K=12 fits the workload");
        let bits = string.payload_bits() as f64;
        (BlockHistogram::from_string(&string), bits)
    }

    /// A deliberately large synthetic set: many distinct blocks stress the
    /// bit-sliced covering scan rather than the Huffman tail.
    pub fn synthetic_histogram() -> (BlockHistogram, f64) {
        let mut spec = synth::SyntheticSpec::new(96, 1 << 17, 7);
        spec.specified_density = 0.7;
        let set = synth::generate(&spec);
        let string = TestSetString::try_new(&set, BLOCK_LEN).expect("K=12 fits the synth set");
        let bits = string.payload_bits() as f64;
        (BlockHistogram::from_string(&string), bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evotc_workloads::tables;

    fn tiny_profile() -> RunProfile {
        RunProfile {
            size_limit: 2_000,
            stagnation_limit: 10,
            max_evaluations: 300,
            runs: 1,
            grid: &[(8, 9)],
            threads: 0,
        }
    }

    #[test]
    fn stuck_at_row_produces_sane_rates() {
        let row = tables::stuck_at_row("s349").unwrap();
        let m = run_stuck_at_row(row, &tiny_profile());
        assert_eq!(m.circuit, "s349");
        assert!(m.rate_9c > -100.0 && m.rate_9c < 90.0);
        // Huffman can only help over the fixed code.
        assert!(m.rate_9c_hc >= m.rate_9c - 1e-9);
        // EA-Best includes the EA average as a lower bound.
        assert!(m.rate_ea2 >= m.rate_ea - 1e-9);
    }

    #[test]
    fn path_delay_row_runs() {
        let row = tables::path_delay_row("s27").unwrap();
        let m = run_path_delay_row(row, &tiny_profile());
        assert_eq!(m.bits % 14, 0); // width 2*7
    }

    #[test]
    fn markdown_has_header_and_average() {
        let rows = vec![MeasuredRow {
            circuit: "x".into(),
            bits: 100,
            rate_9c: 1.0,
            rate_9c_hc: 2.0,
            rate_ea: 3.0,
            rate_ea2: 4.0,
        }];
        let md = markdown_table(&rows, ("EA", "EA-Best"));
        assert!(md.contains("| circuit |"));
        assert!(md.contains("**average**"));
    }

    #[test]
    fn host_fields_name_the_core_count_and_cpu() {
        let fields = host_json_fields();
        assert!(fields.starts_with("\"nproc\": "), "{fields}");
        assert!(fields.contains(", \"cpu\": \""), "{fields}");
        assert!(fields.ends_with('"'), "{fields}");
    }

    #[test]
    fn profile_flag_parsing() {
        assert_eq!(
            RunProfile::from_args(vec!["--full".to_string()]),
            RunProfile::full()
        );
        assert_eq!(RunProfile::from_args(Vec::new()), RunProfile::quick());
        let threaded = RunProfile::from_args(vec!["--threads".into(), "4".into()]);
        assert_eq!(threaded.threads, 4);
        assert_eq!(
            RunProfile::from_args(vec!["--full".into(), "--threads=2".into()]).threads,
            2
        );
    }

    #[test]
    fn circuit_filter_skips_flags_and_thread_counts() {
        let args: Vec<String> = ["--full", "--threads", "4", "s349", "--threads=2", "s27"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let filter = circuit_filter(&args);
        assert_eq!(filter, [&"s349".to_string(), &"s27".to_string()]);
        assert!(circuit_filter(&["--threads".to_string(), "8".to_string()]).is_empty());
    }

    #[test]
    fn batch_row_runner_matches_per_row_runner() {
        let profile = tiny_profile();
        let rows: Vec<&tables::StuckAtRow> = tables::TABLE1[..2].iter().collect();
        let batch = run_stuck_at_rows(&rows, &profile);
        for (row, measured) in rows.iter().zip(&batch) {
            assert_eq!(measured, &run_stuck_at_row(row, &profile));
        }
    }
}
