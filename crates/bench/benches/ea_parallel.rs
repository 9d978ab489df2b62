//! Scaling of the island-model EA: the same island run (identical seed,
//! identical results — see `tests/island_determinism.rs`) at 1, 2, 4 and 8
//! threads on a calibrated synthetic workload.
//!
//! Threads parallelize at one level only — whole islands, one epoch at a
//! time — so the run uses four islands of the paper's `(S + C) = (10 + 5)`
//! migrating 2 individuals every 10 generations; each island evaluates its
//! own batches on the thread that runs it. Throughput can rise only up to
//! `min(islands, cores)` workers; eval/s lines make the runs comparable
//! across thread counts.

use criterion::{criterion_group, criterion_main, Criterion};
use evotc_bits::{BlockHistogram, TestSet, TestSetString};
use evotc_core::EaCompressor;
use evotc_evo::EaConfig;
use evotc_workloads::{tables, workload_with_limit};

const BLOCK_LEN: usize = 12;
const NUM_MVS: usize = 64;

fn calibrated_workload() -> (TestSet, BlockHistogram, usize) {
    let row = tables::stuck_at_row("s953").expect("s953 is a Table 1 row");
    let set = workload_with_limit(row.circuit, row.test_set_bits, row.rate_9c, 1, 1 << 14, 1);
    let string = TestSetString::try_new(&set, BLOCK_LEN).expect("K=12 fits the workload");
    let histogram = BlockHistogram::from_string(&string);
    let payload_bits = string.payload_bits();
    (set, histogram, payload_bits)
}

fn compressor(threads: usize) -> EaCompressor {
    // Four paper-shaped islands; budget-capped so one run is a stable unit
    // of work.
    let config = EaConfig::builder()
        .population_size(10)
        .children_per_generation(5)
        .stagnation_limit(1_000)
        .max_evaluations(4_000)
        .islands(4, 10, 2)
        .seed(1)
        .threads(threads)
        .build();
    EaCompressor::builder(BLOCK_LEN, NUM_MVS)
        .config(config)
        .build()
}

fn bench_ea_parallel(c: &mut Criterion) {
    let (set, histogram, payload_bits) = calibrated_workload();
    for threads in [1usize, 2, 4, 8] {
        let ea = compressor(threads);
        c.bench_function(&format!("ea_parallel_{threads}_threads"), |b| {
            b.iter(|| ea.optimize_histogram(&histogram, payload_bits))
        });
        let summary = ea
            .compress_with_summary(&set)
            .expect("calibrated workload compresses")
            .1;
        println!(
            "ea_parallel_{threads}_threads throughput: {:.0} eval/s ({} evals)",
            summary.evaluations_per_sec(),
            summary.evaluations
        );
    }
}

criterion_group!(benches, bench_ea_parallel);
criterion_main!(benches);
