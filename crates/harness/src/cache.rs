//! Content-addressed result cache — the harness-side front door to
//! [`scu_store::LsmStore`].
//!
//! Entries are keyed by the canonical JSON of a job's cache key and
//! live in the store's write-ahead log and memory-mapped segments. The
//! guarantees are the store's:
//!
//! - **Corruption-proof reads**: a truncated, flipped, or hand-edited
//!   record fails its CRC, is **quarantined** into `<dir>/quarantine/`
//!   (bounded — oldest evicted beyond a cap) and reads as a miss.
//!   Never a third outcome.
//! - **Atomic writes**: WAL append plus an atomic manifest swap.
//! - **Thread safety**: all methods take `&self`; one cache may be
//!   shared across worker threads and batches.
//! - **Fault injection**: the `cache-load` and `cache-store` failpoint
//!   sites fire inside the store.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use serde_json::Value;

use crate::error::HarnessError;
use crate::failpoint;

pub use scu_store::{GetResult, LsmStore, StoreStats};

/// Counters of one cache's activity within this process.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ResultCacheStats {
    /// Successful loads.
    pub hits: u64,
    /// Lookups that found nothing usable.
    pub misses: u64,
    /// Entries written.
    pub stores: u64,
    /// Corrupt entries quarantined by this process.
    pub quarantined: u64,
    /// Files currently retained in the quarantine directory (bounded
    /// by the store's cap; survives across processes).
    pub quarantined_total: u64,
}

/// A directory of content-addressed results, backed by an
/// [`LsmStore`].
#[derive(Debug, Clone)]
pub struct ResultCache {
    backend: Arc<LsmStore>,
}

impl ResultCache {
    /// Opens (creating or recovering) the store at `dir`. Loose files
    /// the store does not own, such as `*.json` blobs of the retired
    /// per-file layout, are ignored: such a directory opens empty.
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::Io`] if the directory cannot be created
    /// or the store cannot be recovered.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, HarnessError> {
        failpoint::install_store_hook();
        let dir = dir.into();
        let backend =
            LsmStore::open(&dir).map_err(|e| HarnessError::io("create cache dir", &dir, e))?;
        Ok(ResultCache {
            backend: Arc::new(backend),
        })
    }

    /// Wraps an already-open backend (how the server shares one store
    /// across its scheduler and every batch harness).
    pub fn from_backend(backend: Arc<LsmStore>) -> Self {
        failpoint::install_store_hook();
        ResultCache { backend }
    }

    /// The backend, for sharing (see [`crate::Harness::store_backend`])
    /// and for store-level statistics.
    pub fn backend(&self) -> Arc<LsmStore> {
        Arc::clone(&self.backend)
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        self.backend.dir()
    }

    /// Where corrupt entries are moved.
    pub fn quarantine_dir(&self) -> PathBuf {
        self.backend.quarantine_dir()
    }

    /// Loads the value stored for `key`, if present and intact. A
    /// corrupt entry is quarantined and reads as a miss.
    pub fn load(&self, key: &Value) -> Option<Value> {
        match self.backend.get(key) {
            GetResult::Hit(value) => Some(value),
            GetResult::Miss | GetResult::Corrupt => None,
        }
    }

    /// Stores `value` under `key`, atomically.
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::Io`] on write failure; callers treat a
    /// failed store as degraded caching, not a failed cell.
    pub fn store(&self, key: &Value, value: &Value) -> Result<(), HarnessError> {
        self.backend
            .put(key, value)
            .map_err(|e| HarnessError::io("store cache entry", self.backend.dir(), e))
    }

    /// This process's hit/miss/store/quarantine counts so far.
    pub fn stats(&self) -> ResultCacheStats {
        let s = self.backend.stats();
        ResultCacheStats {
            hits: s.hits,
            misses: s.misses,
            stores: s.stores,
            quarantined: s.quarantined,
            quarantined_total: s.quarantined_total,
        }
    }

    /// The backend's full counter set (WAL appends, segment reads,
    /// compactions, …) for `/metrics` and diagnostics.
    pub fn store_stats(&self) -> StoreStats {
        self.backend.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "scu-harness-cache-test-{}-{tag}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn key(n: u64) -> Value {
        Value::Object(vec![("cell".into(), Value::U64(n))])
    }

    #[test]
    fn round_trips_and_counts() {
        let dir = scratch_dir("round-trip");
        let cache = ResultCache::open(&dir).unwrap();
        assert_eq!(cache.load(&key(1)), None);
        cache.store(&key(1), &Value::Str("result".into())).unwrap();
        assert_eq!(cache.load(&key(1)), Some(Value::Str("result".into())));
        assert_eq!(
            cache.stats(),
            ResultCacheStats {
                hits: 1,
                misses: 1,
                stores: 1,
                quarantined: 0,
                quarantined_total: 0,
            }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn survives_reopen() {
        let dir = scratch_dir("reopen");
        ResultCache::open(&dir)
            .unwrap()
            .store(&key(7), &Value::U64(42))
            .unwrap();
        let cache = ResultCache::open(&dir).unwrap();
        assert_eq!(cache.load(&key(7)), Some(Value::U64(42)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_load_fault_on_lsm_misses_without_quarantine() {
        let dir = scratch_dir("fp-load-lsm");
        let cache = ResultCache::open(&dir).unwrap();
        cache.store(&key(5), &Value::U64(5)).unwrap();
        {
            let _fp = crate::failpoint::scoped("cache-load=io-error");
            assert_eq!(cache.load(&key(5)), None, "injected IO error is a miss");
        }
        assert_eq!(cache.stats().quarantined, 0, "nothing was actually corrupt");
        assert_eq!(cache.load(&key(5)), Some(Value::U64(5)), "entry intact");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_store_fault_is_typed_and_skips_write() {
        let cache = ResultCache::open(scratch_dir("fp-store-lsm")).unwrap();
        let _fp = crate::failpoint::scoped("cache-store=io-error");
        let err = cache.store(&key(6), &Value::U64(6)).unwrap_err();
        assert!(matches!(
            err,
            HarnessError::Io {
                op: "store cache entry",
                ..
            }
        ));
        assert_eq!(cache.stats().stores, 0);
        let _ = std::fs::remove_dir_all(cache.dir());
    }
}
