//! `scu-store`: the persistence layer behind SCU's result cache and
//! sweep journal.
//!
//! One trait, [`ResultStore`], captures the contract the harness and
//! server rely on — content-addressed get/put keyed by canonical JSON,
//! corruption is quarantined and reported as a miss (never served),
//! journal appends give crash-resume — and two backends implement it:
//!
//! - [`LsmStore`] (the default): an LSM-lite layout where a CRC-framed
//!   write-ahead log doubles as the journal, immutable sorted segments
//!   are memory-mapped for zero-copy point reads, a `CURRENT` manifest
//!   is swapped atomically, and background compaction merges segments
//!   without blocking readers or writers.
//! - [`LegacyStore`]: the historical one-JSON-blob-per-entry directory
//!   plus line-JSON journal, kept byte-compatible so existing result
//!   directories remain readable and `scu_store migrate` can convert
//!   them.
//!
//! [`open_dir`] auto-detects which layout a directory holds.
//!
//! The crate deliberately depends only on the workspace's vendored
//! `serde_json` — no external crates — and hosts the stable hashing
//! ([`stable_digest`]) that both backends and the harness share.

pub mod crc;
pub mod failpoints;
pub mod hash;
pub mod legacy;
pub mod lsm;
pub mod manifest;
pub mod migrate;
pub mod mmap;
pub mod quarantine;
pub mod record;
pub mod segment;
pub mod wal;

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use serde_json::Value;

pub use hash::{stable_addr, stable_digest};
pub use legacy::LegacyStore;
pub use lsm::{LsmOptions, LsmStore};
pub use record::JournalRecord;

/// What a cache lookup found.
#[derive(Debug, Clone, PartialEq)]
pub enum GetResult {
    /// The stored value, verified end to end.
    Hit(Value),
    /// Nothing stored for this key.
    Miss,
    /// Something was stored but failed verification; it has been
    /// quarantined and must be recomputed.
    Corrupt,
}

/// Everything a resumed sweep needs from the journal: completed values
/// keyed by resume key, plus outcome digests keyed by cell id.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResumeState {
    /// Completed cell values, keyed by [`JournalRecord::resume_key`].
    pub values: HashMap<String, Value>,
    /// Outcome digests keyed by cell id (for strict-resume checking).
    pub digests: HashMap<String, u64>,
}

/// Counters a backend exposes for `/metrics` and sweep summaries.
///
/// Legacy backends leave the LSM-specific fields at zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Verified cache hits.
    pub hits: u64,
    /// Lookups that found nothing (corrupt entries also count a miss).
    pub misses: u64,
    /// Successful stores.
    pub stores: u64,
    /// Entries quarantined since open.
    pub quarantined: u64,
    /// Files currently retained in the quarantine directory.
    pub quarantined_total: u64,
    /// WAL frames appended since open.
    pub wal_appends: u64,
    /// Segment point-reads served since open.
    pub segment_reads: u64,
    /// Background compaction passes completed.
    pub compactions: u64,
    /// Records replayed from the WAL at open.
    pub recovered_records: u64,
    /// Bytes cut off a torn WAL tail at open.
    pub truncated_tail_bytes: u64,
    /// Which backend produced these numbers.
    pub backend: &'static str,
}

/// The single persistence seam: result cache + sweep journal.
///
/// Implementations are internally synchronised — one instance is
/// shared across worker threads (and, in the server, across batches).
/// The contract every backend upholds:
///
/// - `get` never returns bytes that failed verification; corruption is
///   quarantined (kept for post-mortem, bounded by a cap) and surfaces
///   as [`GetResult::Corrupt`], which callers treat as a miss.
/// - `put` is atomic: a reader sees the old entry or the new one,
///   never a torn write.
/// - `journal_append` makes a completed cell durable for resume; after
///   a crash, `resume_state` returns every cell journaled in the
///   current sweep and nothing from older sweeps.
/// - A store directory has a single writing process at a time.
pub trait ResultStore: Send + Sync + std::fmt::Debug {
    /// The directory this store lives in.
    fn dir(&self) -> &Path;

    /// Where corrupt entries are kept for post-mortem.
    fn quarantine_dir(&self) -> PathBuf;

    /// A short name for summaries and `/metrics` (`"lsm"`, `"legacy"`).
    fn backend_name(&self) -> &'static str;

    /// Whether this backend journals through the store itself (the WAL
    /// *is* the journal). When false, the harness keeps writing its
    /// classic line-JSON manifest file alongside the cache.
    fn unified_journal(&self) -> bool {
        false
    }

    /// Looks up the value stored for `key`.
    fn get(&self, key: &Value) -> GetResult;

    /// Stores `value` under `key`.
    ///
    /// # Errors
    ///
    /// Returns IO failures (including injected ones); callers degrade
    /// to running uncached.
    fn put(&self, key: &Value, value: &Value) -> io::Result<()>;

    /// Journals a completed cell for crash-resume.
    ///
    /// # Errors
    ///
    /// Returns IO failures; callers degrade (the sweep continues, the
    /// journal is just shorter).
    fn journal_append(&self, rec: &JournalRecord) -> io::Result<()>;

    /// Marks a sweep boundary. `resume = false` starts a fresh sweep —
    /// prior completions no longer count for resume (though cached
    /// values remain readable); `resume = true` continues the
    /// interrupted sweep.
    ///
    /// # Errors
    ///
    /// Returns IO failures from recording the boundary.
    fn begin_sweep(&self, resume: bool) -> io::Result<()>;

    /// Every completion journaled in the current sweep.
    ///
    /// # Errors
    ///
    /// Returns IO failures from reading the journal.
    fn resume_state(&self) -> io::Result<ResumeState>;

    /// Current counters.
    fn stats(&self) -> StoreStats;

    /// Forces buffered state durable (for the LSM backend, flushes the
    /// memtable into a segment).
    ///
    /// # Errors
    ///
    /// Returns IO failures from the flush.
    fn flush(&self) -> io::Result<()>;
}

/// Opens the store at `dir`, auto-detecting the layout:
///
/// - a `CURRENT` manifest means LSM;
/// - otherwise any `*.json` blob directly in the directory means the
///   legacy per-file layout (pass `legacy_manifest` to also serve its
///   line journal through the trait);
/// - an empty or missing directory gets a fresh LSM store.
///
/// # Errors
///
/// Returns IO errors from opening the detected backend.
pub fn open_dir(
    dir: impl Into<PathBuf>,
    legacy_manifest: Option<PathBuf>,
) -> io::Result<Arc<dyn ResultStore>> {
    let dir = dir.into();
    if dir.join(manifest::CURRENT).exists() {
        return Ok(Arc::new(LsmStore::open(dir)?));
    }
    let has_blobs = std::fs::read_dir(&dir)
        .map(|entries| {
            entries.filter_map(Result::ok).any(|e| {
                e.path().extension().is_some_and(|ext| ext == "json")
                    && e.file_type().map(|t| t.is_file()).unwrap_or(false)
            })
        })
        .unwrap_or(false);
    if has_blobs {
        let mut store = LegacyStore::open(dir)?;
        if let Some(path) = legacy_manifest {
            store = store.with_manifest(path);
        }
        return Ok(Arc::new(store));
    }
    Ok(Arc::new(LsmStore::open(dir)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("scu-store-lib-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn key(n: u64) -> Value {
        Value::Object(vec![("cell".into(), Value::U64(n))])
    }

    #[test]
    fn fresh_directories_get_the_lsm_backend() {
        let dir = scratch("fresh");
        let store = open_dir(&dir, None).unwrap();
        assert_eq!(store.backend_name(), "lsm");
        assert!(store.unified_journal());
        // And a reopen sticks with it.
        store.put(&key(1), &Value::U64(1)).unwrap();
        store.flush().unwrap();
        drop(store);
        let store = open_dir(&dir, None).unwrap();
        assert_eq!(store.backend_name(), "lsm");
        assert!(matches!(store.get(&key(1)), GetResult::Hit(Value::U64(1))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn blob_directories_get_the_legacy_backend() {
        let dir = scratch("blobs");
        {
            let legacy = LegacyStore::open(&dir).unwrap();
            legacy.put(&key(7), &Value::U64(70)).unwrap();
        }
        let store = open_dir(&dir, None).unwrap();
        assert_eq!(store.backend_name(), "legacy");
        assert!(!store.unified_journal());
        assert!(matches!(store.get(&key(7)), GetResult::Hit(Value::U64(70))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn current_manifest_wins_over_stray_json() {
        let dir = scratch("mixed");
        {
            let store = LsmStore::open(&dir).unwrap();
            store.put(&key(1), &Value::U64(1)).unwrap();
            store.flush().unwrap();
        }
        // A stray .json (e.g. a half-migrated blob) must not flip the
        // detection back to legacy.
        std::fs::write(dir.join("stray.json"), "{}").unwrap();
        let store = open_dir(&dir, None).unwrap();
        assert_eq!(store.backend_name(), "lsm");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_default_is_all_zero() {
        let stats = StoreStats::default();
        assert_eq!(stats.hits + stats.misses + stats.stores, 0);
        assert_eq!(stats.backend, "");
    }
}
