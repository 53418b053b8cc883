//! Thread-count knob shared by the study binaries.
//!
//! The parallel layer is deterministic — outputs are bit-identical at
//! any thread count — so this knob only trades wall-clock for cores.
//! Priority: an explicit `--threads N` flag beats the `MG_THREADS`
//! environment variable, which beats the machine's available
//! parallelism.

/// Applies a binary's `--threads` flag by pinning the global thread
/// pool. `None` leaves the environment-driven default in place.
pub fn init_threads(threads: Option<usize>) {
    if let Some(n) = threads {
        // First caller wins; a later Err only means the pool was
        // already pinned, which is fine for a best-effort knob.
        let _ = rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build_global();
    }
}

/// Number of threads the parallel layer will actually use.
#[expect(
    clippy::disallowed_methods,
    reason = "the study binaries report the pool width; no work is split by it"
)]
pub fn effective_threads() -> usize {
    rayon::current_num_threads()
}
