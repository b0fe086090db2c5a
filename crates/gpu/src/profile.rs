//! The engine's host wall-clock counter.
//!
//! Every kernel launch adds its real elapsed time to one process-wide
//! counter, so `run_one --profile` can show how much of a cell's host
//! time the GPU engine took. It is observability only — nothing
//! simulated reads it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

static ENGINE_NS: AtomicU64 = AtomicU64::new(0);

/// Accumulated engine wall-clock, ns, since the last
/// [`reset_engine_ns`].
pub fn engine_ns() -> u64 {
    ENGINE_NS.load(Ordering::Relaxed)
}

/// Zeroes the engine-time counter (start of a profiled run).
pub fn reset_engine_ns() {
    ENGINE_NS.store(0, Ordering::Relaxed);
}

/// Charges one launch's wall-clock time (engine internal).
pub(crate) fn record_launch(elapsed: Duration) {
    let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
    ENGINE_NS.fetch_add(ns, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let before = engine_ns();
        record_launch(Duration::from_nanos(13));
        // Other tests' launches may add on top concurrently; the
        // counter must hold at least this test's contribution.
        assert!(engine_ns() >= before + 13);
    }
}
