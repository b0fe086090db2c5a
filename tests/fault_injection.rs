//! Fault-injection integration tests: failpoints driving every
//! [`Outcome`] variant through the real harness, crash-resume through
//! the journal, and cache-corruption quarantine — including a property
//! test that no corrupted store segment is ever silently accepted.

use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};

use proptest::prelude::*;
use scu::bench::experiments::matrix::Matrix;
use scu::bench::ExperimentConfig;
use scu_algos::runner::Mode;
use scu_harness::{cancel, failpoint, Harness, Job, JobGraph, Outcome, ResultCache};
use serde_json::Value;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("scu-fault-it-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tiny() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::tiny();
    cfg.scale = 1.0 / 256.0;
    cfg
}

/// Tests arming the *global* `cell-run` site (or the global cancel
/// flag) serialise on this lock; tests using private site names run
/// freely in parallel.
fn global_sites() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|p| p.into_inner())
}

const MODES: [Mode; 2] = [Mode::GpuBaseline, Mode::ScuEnhanced];

fn matrix_fnvs(m: &Matrix) -> Vec<(String, u64)> {
    m.entries()
        .iter()
        .map(|e| {
            (
                format!(
                    "{}/{}/{}/{}",
                    e.algo.name(),
                    e.dataset.name(),
                    e.system.name(),
                    e.mode.name()
                ),
                e.values_fnv,
            )
        })
        .collect()
}

#[test]
fn failpoints_drive_every_outcome_variant() {
    let _fp = failpoint::scoped(
        "it-fail=panic(injected hard fault);it-flaky=panic(injected flake)@1;it-slow=delay(400)",
    );
    let mut g = JobGraph::new();
    g.push(Job::new("ok", || {
        failpoint::apply("it-ok-unarmed");
        Value::U64(1)
    }));
    let fail = g.push(Job::new("fail", || {
        failpoint::apply("it-fail");
        Value::U64(2)
    }));
    g.push(Job::new("flaky", || {
        failpoint::apply("it-flaky");
        Value::U64(3)
    }));
    g.push(Job::new("slow", || {
        failpoint::apply("it-slow");
        Value::U64(4)
    }));
    g.push(Job::new("dependent", move || Value::U64(5)).after(&[fail]));
    let sweep = Harness::new()
        .jobs(2)
        .retries(1)
        .backoff(
            std::time::Duration::from_millis(1),
            std::time::Duration::from_millis(10),
        )
        .timeout(std::time::Duration::from_millis(80))
        .run(&g);

    assert!(sweep.outcomes[0].is_done() && !sweep.outcomes[0].was_retried());
    // "fail" fires on every hit, so both attempts panic.
    match &sweep.outcomes[1] {
        Outcome::Failed { error, retries } => {
            assert!(error.contains("injected hard fault"));
            assert_eq!(retries.len(), 1, "the one allowed retry also failed");
        }
        other => panic!("fail: unexpected outcome {other:?}"),
    }
    // "flaky" fires on the first hit only: retried, then ok.
    assert!(sweep.outcomes[2].was_retried());
    assert_eq!(sweep.outcomes[2].value(), Some(&Value::U64(3)));
    // "slow" sleeps 400 ms against an 80 ms budget on every attempt.
    assert!(matches!(sweep.outcomes[3], Outcome::TimedOut { .. }));
    assert!(matches!(sweep.outcomes[4], Outcome::Skipped { .. }));
    assert_eq!(sweep.summary.retried, vec!["flaky".to_string()]);
    assert_eq!(sweep.summary.timed_out, vec!["slow".to_string()]);
}

#[test]
fn sigint_style_cancellation_drains_and_resume_finishes() {
    let _guard = global_sites();
    cancel::reset();
    let dir = scratch("cancel");

    // First sweep: the third cell raises the cancel flag mid-run, as
    // the SIGINT handler would; with one worker the rest never start.
    // The jobs carry no cache key, so only the journal (by job id) can
    // pre-resolve them on resume, never a cache hit.
    let build = |trigger: bool| {
        let mut g = JobGraph::new();
        for i in 0..6u64 {
            g.push(Job::new(format!("cell-{i}"), move || {
                if trigger && i == 2 {
                    cancel::cancel();
                }
                Value::U64(i * i)
            }));
        }
        g
    };
    let first = Harness::new()
        .jobs(1)
        .cache_dir(&dir)
        .handle_sigint(true)
        .run(&build(true));
    assert!(first.summary.was_interrupted());
    assert_eq!(first.summary.done, 3, "in-flight cells drained");
    assert_eq!(first.summary.cancelled.len(), 3);
    cancel::reset();

    // Resume: journaled cells are pre-resolved, the rest run now.
    let resumed = Harness::new()
        .jobs(1)
        .cache_dir(&dir)
        .resume(true)
        .run(&build(false));
    assert!(resumed.summary.all_done());
    assert_eq!(resumed.summary.cached, 3, "journaled cells not re-run");
    for (i, o) in resumed.outcomes.iter().enumerate() {
        assert_eq!(o.value(), Some(&Value::U64((i * i) as u64)));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn interrupted_matrix_resumes_to_byte_identical_results() {
    let _guard = global_sites();
    let dir = scratch("resume-matrix");
    let cfg = tiny();

    // Reference: one clean uninterrupted sweep.
    let (reference, s) = Matrix::collect_with(
        &cfg,
        &MODES,
        &Harness::new().jobs(2).retries(0),
        Some("BFS/"),
    );
    assert!(s.summary.all_done());

    // "Interrupted" sweep: every cell-run past the 4th panics, so the
    // journal holds only a prefix — the moral equivalent of a kill.
    {
        let _fp = failpoint::scoped("cell-run=panic(injected kill)@5+");
        let (_, broken) = Matrix::collect_with(
            &cfg,
            &MODES,
            &Harness::new().jobs(1).retries(0).cache_dir(&dir),
            Some("BFS/"),
        );
        assert!(!broken.summary.all_done());
        assert_eq!(broken.summary.done, 4);
    }

    // Resume with the fault gone: only the missing cells execute, and
    // the grid comes back identical to the uninterrupted reference.
    let (resumed, s2) = Matrix::collect_with(
        &cfg,
        &MODES,
        &Harness::new()
            .jobs(2)
            .retries(0)
            .cache_dir(&dir)
            .resume(true),
        Some("BFS/"),
    );
    assert!(s2.summary.all_done());
    assert_eq!(s2.summary.cached, 4, "journaled prefix served, not re-run");
    assert_eq!(
        s2.cache_stats.hits, 0,
        "served by the journal, not the cache"
    );
    assert_eq!(matrix_fnvs(&reference), matrix_fnvs(&resumed));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journal_append_fault_degrades_to_an_unjournaled_sweep() {
    let _guard = global_sites();
    let dir = scratch("journal-fault");
    let graph = || {
        let mut g = JobGraph::new();
        for i in 0..3u64 {
            g.push(Job::new(format!("cell-{i}"), move || Value::U64(i)));
        }
        g
    };
    {
        let _fp = failpoint::scoped("journal-append=io-error");
        let sweep = Harness::new().jobs(1).cache_dir(&dir).run(&graph());
        assert!(
            sweep.summary.all_done(),
            "a failed append never fails a cell"
        );
    }
    let resumed = Harness::new()
        .jobs(1)
        .cache_dir(&dir)
        .resume(true)
        .run(&graph());
    assert!(resumed.summary.all_done());
    assert_eq!(resumed.summary.cached, 0, "nothing was journaled to resume");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flaky_cell_run_recovers_via_retry() {
    let _guard = global_sites();
    let _fp = failpoint::scoped("cell-run=panic(transient cell fault)@1");
    let cfg = tiny();
    let (m, sweep) = Matrix::collect_with(
        &cfg,
        &MODES,
        &Harness::new().jobs(1).retries(2).backoff(
            std::time::Duration::from_millis(1),
            std::time::Duration::from_millis(10),
        ),
        Some("BFS/kron"),
    );
    assert!(sweep.summary.all_done(), "{}", sweep.summary.render());
    assert_eq!(sweep.summary.retried.len(), 1, "first cell flaked once");
    assert_eq!(m.entries().len(), 4);
}

/// Stores `value` under `key` in a fresh store at `dir` and seals it
/// into a segment; returns the segment's path.
fn sealed_entry(dir: &Path, key: &Value, value: &Value) -> PathBuf {
    let cache = ResultCache::open(dir).unwrap();
    cache.store(key, value).unwrap();
    cache.backend().flush().unwrap();
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|x| x == "seg"))
        .expect("the flush sealed a segment")
}

#[test]
fn corrupt_cache_blob_is_quarantined_and_recomputed() {
    let dir = scratch("quarantine");
    let key = Value::Object(vec![("cell".into(), Value::Str("q-test".into()))]);
    let value = Value::Object(vec![("metric".into(), Value::U64(42))]);
    let segment = sealed_entry(&dir, &key, &value);

    // Flip one byte in the middle of the segment's only record frame,
    // which spans from the 16-byte header to the index offset.
    let mut bytes = std::fs::read(&segment).unwrap();
    let footer = bytes.len() - 24;
    let index_off = u64::from_le_bytes(bytes[footer..footer + 8].try_into().unwrap()) as usize;
    bytes[(16 + index_off) / 2] ^= 0x20;
    std::fs::write(&segment, &bytes).unwrap();

    let cache = ResultCache::open(&dir).unwrap();
    assert_eq!(cache.load(&key), None, "corrupt record must read as a miss");
    let quarantined = std::fs::read_dir(cache.quarantine_dir()).unwrap().count();
    assert_eq!(quarantined, 1, "record bytes kept in quarantine");
    assert_eq!(cache.stats().quarantined, 1);

    // The cache stays usable: a fresh store round-trips again.
    cache.store(&key, &value).unwrap();
    assert_eq!(cache.load(&key), Some(value));
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Satellite property: a sealed segment put through a random
    /// truncation or byte-flip is either rejected (and quarantined) or
    /// read back identical — never silently accepted as a different
    /// value.
    #[test]
    fn cache_corruption_is_never_silently_accepted(
        cut in 0usize..400,
        flip_at in 0usize..400,
        flip_with in 1u8..=255,
        truncate in 0u8..2,
    ) {
        let dir = std::env::temp_dir().join(format!(
            "scu-fault-prop-{}-{cut}-{flip_at}-{flip_with}-{truncate}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let key = Value::Object(vec![("cell".into(), Value::U64(7))]);
        let value = Value::Object(vec![
            ("metric".into(), Value::F64(3.25)),
            ("count".into(), Value::U64(123_456)),
            ("label".into(), Value::Str("BFS/kron/TX1".into())),
        ]);
        let segment = sealed_entry(&dir, &key, &value);
        let mut mutated = std::fs::read(&segment).unwrap();
        if truncate == 1 {
            mutated.truncate(cut.min(mutated.len()));
        } else {
            let i = flip_at % mutated.len();
            mutated[i] ^= flip_with;
        }
        std::fs::write(&segment, &mutated).unwrap();

        let cache = ResultCache::open(&dir).unwrap();
        match cache.load(&key) {
            Some(v) => prop_assert_eq!(v, value.clone(), "accepted a different value"),
            None => prop_assert!(cache.stats().quarantined >= 1, "rejected without quarantine"),
        }
        // A re-store supersedes whatever the damage left behind.
        cache.store(&key, &value).unwrap();
        prop_assert_eq!(cache.load(&key), Some(value));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
