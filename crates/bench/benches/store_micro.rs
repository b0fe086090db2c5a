//! Criterion microbenchmarks of the result-store hot paths: WAL
//! appends (the per-finished-cell cost), point reads from a sealed
//! segment, and cold-open recovery (what `--resume` pays before the
//! first cell runs) at 10k and 100k records. `bench_gate` pins the
//! numbers in `BENCH_baseline.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::path::PathBuf;

use scu_store::lsm::{LsmOptions, LsmStore};
use scu_store::record::JournalRecord;
use serde_json::Value;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("scu-bench-store-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn key(n: u64) -> Value {
    Value::Object(vec![
        ("cell".to_string(), Value::U64(n)),
        ("model".to_string(), Value::Str("scu-sim-2".into())),
    ])
}

fn value(n: u64) -> Value {
    Value::Object(vec![
        ("metric".to_string(), Value::F64(n as f64 * 0.5)),
        ("count".to_string(), Value::U64(n * 37)),
        ("label".to_string(), Value::Str("BFS/kron/GTX980".into())),
    ])
}

fn record(n: u64) -> JournalRecord {
    JournalRecord {
        key: Some(key(n)),
        id: format!("cell-{n}"),
        value: value(n),
        digest: Some(n.wrapping_mul(0x9e37_79b9)),
    }
}

/// An LSM store holding `n` journaled records, sealed into segments
/// (WAL drained), reopened cold by the benchmark body.
fn sealed_lsm(tag: &str, n: u64) -> PathBuf {
    let dir = scratch(tag);
    let opts = LsmOptions {
        flush_records: usize::MAX,
        compact_min_segments: usize::MAX,
        ..LsmOptions::default()
    };
    let store = LsmStore::open_with(&dir, opts).unwrap();
    store.begin_sweep(false).unwrap();
    for i in 0..n {
        store.journal_append(&record(i)).unwrap();
    }
    store.flush().unwrap();
    dir
}

fn bench_append(c: &mut Criterion) {
    let mut g = c.benchmark_group("store_micro");
    g.sample_size(20);

    // One finished cell = one durable journal append: a CRC-framed
    // WAL write.
    g.bench_function(BenchmarkId::new("append", "wal"), |b| {
        let dir = scratch("append-wal");
        let opts = LsmOptions {
            flush_records: usize::MAX,
            compact_min_segments: usize::MAX,
            ..LsmOptions::default()
        };
        let store = LsmStore::open_with(&dir, opts).unwrap();
        store.begin_sweep(false).unwrap();
        let mut i = 0u64;
        b.iter(|| {
            // Rotate a bounded key set so the memtable stays small.
            i = (i + 1) % 1024;
            store.put(&key(i), &value(i)).unwrap();
        });
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    });

    g.finish();
}

fn bench_point_read(c: &mut Criterion) {
    let mut g = c.benchmark_group("store_micro");
    g.sample_size(20);

    g.bench_function(BenchmarkId::new("point-read", "lsm-10k"), |b| {
        let dir = sealed_lsm("read-lsm", 10_000);
        let store = LsmStore::open(&dir).unwrap();
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 7919) % 10_000;
            black_box(store.get(&key(i)));
        });
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    });

    g.finish();
}

fn bench_cold_open(c: &mut Criterion) {
    let mut g = c.benchmark_group("store_micro");
    // Whole-store opens are slow; keep the sample count low.
    g.sample_size(10);

    for n in [10_000u64, 100_000] {
        let short = n / 1000;
        let lsm_dir = sealed_lsm(&format!("cold-lsm-{n}"), n);
        g.bench_function(
            BenchmarkId::new("cold-open", format!("lsm-{short}k")),
            |b| {
                b.iter(|| {
                    let store = LsmStore::open(&lsm_dir).unwrap();
                    black_box(store.resume_state().unwrap().values.len())
                });
            },
        );
        let _ = std::fs::remove_dir_all(&lsm_dir);
    }

    g.finish();
}

criterion_group!(benches, bench_append, bench_point_read, bench_cold_open);
criterion_main!(benches);
