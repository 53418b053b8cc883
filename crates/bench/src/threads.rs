//! Thread-count knob shared by the study binaries.
//!
//! The parallel layer is deterministic — outputs are bit-identical at
//! any thread count — so this knob only trades wall-clock for cores.
//! Priority: an explicit `--threads N` flag beats the `MG_THREADS` /
//! `RAYON_NUM_THREADS` environment variables, which beat the machine's
//! available parallelism.

/// Applies a binary's `--threads` flag by pinning the global thread
/// pool. `None` leaves the environment-driven default in place. Without
/// the `parallel` feature this is a no-op: everything runs serially.
pub fn init_threads(threads: Option<usize>) {
    #[cfg(feature = "parallel")]
    if let Some(n) = threads {
        // First caller wins; a later Err only means the pool was
        // already pinned, which is fine for a best-effort knob.
        let _ = rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build_global();
    }
    #[cfg(not(feature = "parallel"))]
    let _ = threads;
}

/// Number of threads the parallel layer will actually use — `1` when
/// the `parallel` feature is off.
pub fn effective_threads() -> usize {
    #[cfg(feature = "parallel")]
    {
        rayon::current_num_threads()
    }
    #[cfg(not(feature = "parallel"))]
    {
        1
    }
}
