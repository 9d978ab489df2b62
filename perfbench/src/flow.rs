//! The paper's compression flow on one test set, shared by the `pipeline`
//! and `compress` workloads: block histogram (`bits`) → EA, K = 12, L = 64,
//! default configuration on one thread (`core`, which runs `evo` and
//! `codes` inside) → encode
//! with the evolved matching vectors (`core`) → decoder FSM against the
//! reference decode (`decoder`) → refinement of the input set.

use evotc_bits::{BlockHistogram, TestSet, TestSetString};
use evotc_core::{encode_with_mvs, CompressedTestSet, EaCompressor, TestCompressor};
use evotc_decoder::DecoderFsm;

use crate::trace::Tracer;

/// Why a flow did not end in a verified stream.
pub enum FlowError {
    /// A library call returned an error: the operation failed.
    Failed(String),
    /// An output was wrong: a correctness gate tripped.
    Gate(String),
}

/// The paper's compressor (K = 12, L = 64, default EA configuration) on
/// the EA seed `seed`, evaluating on one thread.
///
/// One thread, not `threads` auto: on a shared 2-core host the same
/// 2-thread EA run took 383–1013 ms from one repeat to the next (1 thread:
/// 18–43 ms), which no run length here averages out. Results are
/// identical at every thread count; `evo.scaling_1_to_n` measures the
/// multi-thread path.
pub fn compressor(seed: u64) -> EaCompressor {
    EaCompressor::builder(12, 64).seed(seed).threads(1).build()
}

/// The EA threads the compressor evaluates on.
pub fn ea_threads() -> usize {
    evotc_evo::parallel::resolve_threads(compressor(0).config().threads)
}

/// Compresses `set` and verifies the stream; returns the compressed set.
pub fn compress_verified(
    tr: &mut Tracer,
    compressor: &EaCompressor,
    set: &TestSet,
) -> Result<CompressedTestSet, FlowError> {
    let k = compressor.block_len();
    let histogram = tr
        .span("bits.histogram", || {
            TestSetString::try_new(set, k).map(|s| BlockHistogram::from_string(&s))
        })
        .map_err(|e| FlowError::Failed(e.to_string()))?;
    tr.add("bits.distinct_blocks", histogram.num_distinct() as f64);

    let (compressed, summary) = tr
        .span("core.ea", || compressor.compress_with_summary(set))
        .map_err(|e| FlowError::Failed(e.to_string()))?;
    tr.add("core.evals", summary.evaluations as f64);
    tr.add("core.generations", summary.generations as f64);
    tr.add("core.ea_elapsed_s", summary.elapsed.as_secs_f64());
    if let Some(cache) = summary.cache {
        tr.add("core.cache_hits", cache.hits as f64);
        tr.add("core.cache_misses", cache.misses as f64);
        tr.add("core.cache_fallbacks", cache.fallbacks as f64);
    }
    tr.add("core.rate_pct_sum", compressed.rate_percent());
    tr.add("core.sets", 1.0);

    let encoded = tr
        .span("core.encode", || {
            encode_with_mvs(&compressor.name(), set, compressed.mv_set())
        })
        .map_err(|e| FlowError::Failed(e.to_string()))?;
    if !same_stream(&encoded, &compressed) {
        return Err(FlowError::Gate(
            "re-encoding with the evolved MV set changed the stream".into(),
        ));
    }

    let fsm = tr.span("decoder.verify", || {
        std::panic::catch_unwind(|| DecoderFsm::verify_against_reference(&compressed))
    });
    if fsm.is_err() {
        return Err(FlowError::Gate(
            "decoder FSM output differs from the reference decode".into(),
        ));
    }
    tr.add("decoder.cycles", compressed.compressed_bits as f64);

    let restored = tr
        .span("core.decompress", || compressed.decompress())
        .map_err(|e| FlowError::Gate(format!("reference decode failed: {e}")))?;
    if !tr.span("bits.refines", || set.is_refined_by(&restored)) {
        return Err(FlowError::Gate(
            "decompressed set does not refine the input set".into(),
        ));
    }
    Ok(compressed)
}

/// Byte-identity of two compressed streams and their code tables.
pub fn same_stream(a: &CompressedTestSet, b: &CompressedTestSet) -> bool {
    a.compressed_bits == b.compressed_bits
        && a.frequencies() == b.frequencies()
        && a.mv_set() == b.mv_set()
        && a.stream().eq(b.stream())
}
