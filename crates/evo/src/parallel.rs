//! The EA's thread count: how a configured `threads` value resolves.
//!
//! Parallelism lives at one level. An island run spreads its islands over
//! up to `threads` scoped worker threads, one epoch at a time; every
//! island's fitness batch — and therefore every panmictic run, which is a
//! single island — is evaluated whole on the thread that breeds it. The
//! paper's batches are the `C = 5` children of one generation, a few
//! microseconds of work each, so splitting them across threads costs more
//! in spawn and join than it saves.
//!
//! # Determinism contract
//!
//! Worker threads only decide which islands run concurrently, never what
//! they compute: each island owns its RNG stream and its whole state, so
//! results are bit-identical for every thread count. The contract is
//! enforced by `tests/parallel_determinism.rs`,
//! `tests/island_determinism.rs` and by CI running the whole suite under
//! several values of [`THREADS_ENV`].
//!
//! # Example
//!
//! ```
//! use evotc_evo::parallel;
//!
//! assert_eq!(parallel::resolve_threads(3), 3); // explicit counts are literal
//! assert!(parallel::resolve_threads(0) >= 1); // 0 = auto
//! ```

/// Environment variable overriding the automatic thread count (used when a
/// configuration asks for `threads = 0`). CI runs the test suite without it
/// and with several values of it, so auto-threaded island runs execute
/// both serially and concurrently on every push.
pub const THREADS_ENV: &str = "EVOTC_TEST_THREADS";

/// Cap on the automatically resolved thread count. An island run uses at
/// most one worker per island, and a panmictic run evaluates on the calling
/// thread whatever the count; wider pools only add spawn overhead.
const MAX_AUTO_THREADS: usize = 8;

/// Resolves a configured thread count to a concrete one.
///
/// `threads > 0` is taken literally. `threads = 0` means *auto*: the value
/// of [`THREADS_ENV`] when set to a positive integer, otherwise the
/// machine's available parallelism capped at 8.
pub fn resolve_threads(threads: usize) -> usize {
    if threads > 0 {
        return threads;
    }
    if let Some(n) = std::env::var(THREADS_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
    {
        return n;
    }
    std::thread::available_parallelism()
        .map(|n| n.get().min(MAX_AUTO_THREADS))
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_thread_counts_resolve_to_themselves() {
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(7), 7);
    }

    #[test]
    fn auto_resolves_to_a_positive_count() {
        assert!(resolve_threads(0) >= 1);
    }
}
