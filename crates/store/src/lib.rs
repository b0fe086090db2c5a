//! `scu-store`: the persistence layer behind SCU's result cache and
//! sweep journal.
//!
//! [`LsmStore`] is the one store: content-addressed get/put keyed by
//! canonical JSON, where a CRC-framed write-ahead log doubles as the
//! crash-resume journal, immutable sorted segments are memory-mapped
//! for zero-copy point reads, a `CURRENT` manifest is swapped
//! atomically, and background compaction merges segments without
//! blocking readers or writers. Corruption is quarantined and reported
//! as a miss, never served.
//!
//! The crate deliberately depends only on the workspace's vendored
//! `serde_json` — no external crates — and hosts the stable hashing
//! ([`stable_digest`], [`stable_addr`]) the store and graph artifacts
//! share.

pub mod crc;
pub mod failpoints;
pub mod hash;
pub mod lsm;
pub mod manifest;
pub mod mmap;
pub mod quarantine;
pub mod record;
pub mod segment;
pub mod wal;

use std::collections::HashMap;

use serde_json::Value;

pub use hash::{stable_addr, stable_digest};
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

/// Counters the store exposes for `/metrics` and sweep summaries.
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_default_is_all_zero() {
        let stats = StoreStats::default();
        assert_eq!(stats.hits + stats.misses + stats.stores, 0);
    }
}
