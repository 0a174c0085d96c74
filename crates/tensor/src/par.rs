//! The worker-thread cap of the workspace's job pools.
//!
//! The experiment harness (the scenario sweep and the tables) runs one
//! training per job on up to [`max_threads`] scoped threads.  No kernel in
//! this crate spawns threads: every product is one call of
//! [`crate::simd::matmul_block`] on the calling thread.

use std::sync::OnceLock;

/// Maximum number of worker threads of the job pools.
///
/// Defaults to `available_parallelism()`; the `LNCL_THREADS` environment
/// variable overrides it (values below 1 and unparsable values are ignored
/// with a warning on stderr).  The value is read once and cached for the
/// lifetime of the process.
pub fn max_threads() -> usize {
    static CACHE: OnceLock<usize> = OnceLock::new();
    *CACHE.get_or_init(|| {
        let hardware = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        crate::env::env_usize_at_least_one("LNCL_THREADS").unwrap_or(hardware)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_threads_is_at_least_one() {
        assert!(max_threads() >= 1);
    }
}
