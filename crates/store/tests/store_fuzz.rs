//! Property fuzzing of the store's crash and corruption recovery.
//!
//! Three invariants, hammered with random damage:
//!
//! 1. Truncating the WAL anywhere recovers exactly an intact prefix of
//!    the appended records — never a panic, never a partial record.
//! 2. Flipping any byte of the WAL still recovers a (possibly shorter)
//!    intact prefix — corrupt frames never decode to wrong values.
//! 3. Flipping any byte of a segment either fails open (structural
//!    damage) or isolates the damage: every readable address returns
//!    its original record, the damaged one reads as corrupt, and the
//!    whole store above it serves no corrupt value.

use proptest::prelude::*;
use scu_store::lsm::{LsmOptions, LsmStore};
use scu_store::record::{JournalRecord, Record, RecordKind};
use scu_store::segment::Segment;
use scu_store::wal::{Wal, WAL_MAGIC};
use scu_store::GetResult;
use serde_json::Value;
use std::path::{Path, PathBuf};

fn scratch(tag: &str, case: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "scu-store-fuzz-{}-{tag}-{case}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn put(n: u64) -> Record {
    Record {
        kind: RecordKind::Put,
        epoch: 1,
        rk: format!("key:{{\"cell\":{n}}}"),
        id: format!("cell-{n}"),
        digest: Some(n * 7 + 1),
        value: format!("{{\"out\":{n}}}").into_bytes(),
    }
}

fn key(n: u64) -> Value {
    Value::Object(vec![("cell".into(), Value::U64(n))])
}

fn wal_with(dir: &Path, count: u64) -> Vec<u8> {
    let path = dir.join("wal.log");
    let (wal, _) = Wal::open(&path, &dir.join("q"), 8).unwrap();
    for n in 0..count {
        wal.append(&put(n)).unwrap();
    }
    drop(wal);
    std::fs::read(&path).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn truncated_wal_recovers_an_intact_prefix(
        count in 1u64..8,
        cut_frac in 0u32..1000,
    ) {
        let dir = scratch("cut", count * 1000 + cut_frac as u64);
        let full = wal_with(&dir, count);
        let cut = WAL_MAGIC.len()
            + ((full.len() - WAL_MAGIC.len()) * cut_frac as usize) / 1000;
        std::fs::write(dir.join("wal.log"), &full[..cut]).unwrap();
        let (_, rec) = Wal::open(&dir.join("wal.log"), &dir.join("q"), 8).unwrap();
        prop_assert!(rec.records.len() as u64 <= count);
        for (i, r) in rec.records.iter().enumerate() {
            prop_assert_eq!(r, &put(i as u64), "prefix must be byte-exact");
        }
        // The cut bytes were physically removed: reopening is clean.
        let (_, again) = Wal::open(&dir.join("wal.log"), &dir.join("q"), 8).unwrap();
        prop_assert_eq!(again.truncated_tail_bytes, 0);
        prop_assert_eq!(again.records.len(), rec.records.len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flipped_wal_byte_never_yields_a_wrong_record(
        count in 1u64..6,
        pos_frac in 0u32..1000,
        mask in 1u8..=255,
    ) {
        let dir = scratch("flip", count * 1000 + pos_frac as u64);
        let mut bytes = wal_with(&dir, count);
        let pos = (bytes.len() - 1) * pos_frac as usize / 1000;
        bytes[pos] ^= mask;
        std::fs::write(dir.join("wal.log"), &bytes).unwrap();
        let (_, rec) = Wal::open(&dir.join("wal.log"), &dir.join("q"), 8).unwrap();
        // A flip inside the magic quarantines the file (empty replay);
        // anywhere else the replay stops at the damaged frame. Either
        // way: an intact prefix, nothing invented.
        prop_assert!(rec.records.len() as u64 <= count);
        for (i, r) in rec.records.iter().enumerate() {
            prop_assert_eq!(r, &put(i as u64), "no corrupt record may surface");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flipped_segment_byte_is_detected_or_isolated(
        count in 2u64..10,
        pos_frac in 0u32..1000,
        mask in 1u8..=255,
    ) {
        let dir = scratch("seg", count * 1000 + pos_frac as u64);
        let path = dir.join("seg-000001.seg");
        let mut records: Vec<_> = (0..count)
            .map(|n| {
                let rec = put(n);
                (scu_store::stable_addr(rec.rk.as_bytes()), rec)
            })
            .collect();
        Segment::write(&path, &mut records).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let pos = (bytes.len() - 1) * pos_frac as usize / 1000;
        bytes[pos] ^= mask;
        std::fs::write(&path, &bytes).unwrap();
        match Segment::open(&path) {
            // Structural damage: the whole file is refused, which the
            // store turns into quarantine-and-rebuild. Nothing to read.
            Err(_) => {}
            Ok(seg) => {
                let mut damaged = 0;
                for n in 0..count {
                    let rec = put(n);
                    let addr = scu_store::stable_addr(rec.rk.as_bytes());
                    match seg.get(addr) {
                        Some(Ok(read)) => prop_assert_eq!(read, rec, "cell {}", n),
                        Some(Err(_)) => damaged += 1,
                        None => prop_assert!(false, "index lost cell {n}"),
                    }
                }
                prop_assert!(damaged <= 1, "one flipped byte damages at most one record");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_reopen_after_random_wal_damage_serves_no_corrupt_value(
        cells in 3u64..12,
        cut_frac in 0u32..1000,
    ) {
        let dir = scratch("store", cells * 1000 + cut_frac as u64);
        let opts = LsmOptions {
            flush_records: 5,
            compact_min_segments: 100, // keep compaction out of this test
            quarantine_cap: 8,
        };
        {
            let store = LsmStore::open_with(&dir, opts.clone()).unwrap();
            store.begin_sweep(false).unwrap();
            for n in 0..cells {
                store
                    .journal_append(&JournalRecord {
                        key: Some(key(n)),
                        id: format!("cell-{n}"),
                        value: Value::U64(n * 10),
                        digest: Some(n),
                    })
                    .unwrap();
            }
        }
        // Tear the WAL at a random point (segments stay intact).
        let wal_path = dir.join("wal.log");
        let bytes = std::fs::read(&wal_path).unwrap();
        let cut = WAL_MAGIC.len().max(bytes.len() * cut_frac as usize / 1000);
        std::fs::write(&wal_path, &bytes[..cut]).unwrap();

        let store = LsmStore::open_with(&dir, opts).unwrap();
        let state = store.resume_state().unwrap();
        prop_assert!(state.values.len() as u64 <= cells);
        for (rk, value) in &state.values {
            // Every resumed value must be exactly what was journaled.
            let n: u64 = rk
                .trim_start_matches("key:{\"cell\":")
                .trim_end_matches('}')
                .parse()
                .unwrap();
            prop_assert_eq!(value, &Value::U64(n * 10), "rk {}", rk);
        }
        // Cache reads agree: hit with the true value or miss, never junk.
        for n in 0..cells {
            match store.get(&key(n)) {
                GetResult::Hit(v) => prop_assert_eq!(v, Value::U64(n * 10)),
                GetResult::Miss => {}
                GetResult::Corrupt => prop_assert!(false, "tearing the WAL is not corruption"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
