//! The harness's typed error taxonomy and poison-tolerant locking.
//!
//! Before this module, the lock/IO paths held the sweep together with
//! `expect(...)`: a panic while holding a mutex (possible only through
//! a bug or an injected fault — worker panics are caught per-cell)
//! poisoned the lock and the *next* accessor killed the whole sweep.
//! Robustness inverts that: locks recover the inner value (every
//! protected structure is valid after any partial update we perform),
//! and fallible IO surfaces as a [`HarnessError`] the caller downgrades
//! to a warning plus degraded behaviour — an unusable cache runs
//! uncached, an unusable journal runs unjournaled, never a dead sweep.

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

/// Everything that can go wrong inside the harness itself (as opposed
/// to inside a cell, which is an [`crate::Outcome`]).
#[derive(Debug)]
pub enum HarnessError {
    /// An IO operation failed.
    Io {
        /// What the harness was doing, e.g. `"create cache dir"`.
        op: &'static str,
        /// The path involved.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
}

impl std::fmt::Display for HarnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HarnessError::Io { op, path, source } => {
                write!(f, "{op} at {}: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for HarnessError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HarnessError::Io { source, .. } => Some(source),
        }
    }
}

impl HarnessError {
    /// Wraps an IO error with its operation and path.
    pub fn io(op: &'static str, path: impl Into<PathBuf>, source: std::io::Error) -> Self {
        HarnessError::Io {
            op,
            path: path.into(),
            source,
        }
    }
}

/// Locks `mutex`, recovering the inner value if a previous holder
/// panicked. Safe for every harness lock: the protected structures
/// (ready queue, result slots, counters, registries, output files) are
/// each updated atomically from their own lock's perspective, so a
/// poisoned guard still protects a consistent value — degrading the
/// sweep beats killing it.
pub fn lock_unpoisoned<'a, T>(mutex: &'a Mutex<T>, what: &str) -> MutexGuard<'a, T> {
    mutex.lock().unwrap_or_else(|poisoned| {
        eprintln!("[scu-harness] {what} lock poisoned by an earlier panic; continuing");
        poisoned.into_inner()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn poisoned_lock_recovers_value() {
        let m = Arc::new(Mutex::new(7u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock().unwrap();
            panic!("poison it");
        })
        .join();
        assert!(m.lock().is_err(), "lock is poisoned");
        assert_eq!(*lock_unpoisoned(&m, "test"), 7);
    }

    #[test]
    fn display_includes_context() {
        let e = HarnessError::io(
            "create cache dir",
            "/tmp/x",
            std::io::Error::from(std::io::ErrorKind::PermissionDenied),
        );
        let text = e.to_string();
        assert!(text.contains("create cache dir") && text.contains("/tmp/x"));
    }
}
