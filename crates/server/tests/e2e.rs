//! End-to-end tests for the sweep daemon: in-flight coalescing under
//! slow cells, byte-identical results across concurrent HTTP clients,
//! fault isolation (a panicking cell poisons only the sweeps that
//! asked for it), graceful drain, and warm restart from the cache.
//!
//! Failpoint sites are process-global, so every test that runs cells
//! holds [`lock`] — the suite serialises instead of interleaving
//! injected faults.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use scu_algos::cell::Cell;
use scu_algos::experiment::ExperimentConfig;
use scu_algos::runner::{Algorithm, Mode};
use scu_algos::SystemKind;
use scu_graph::Dataset;
use scu_harness::failpoint;
use scu_server::{Client, Scheduler, SchedulerConfig, Server, SweepState};
use serde_json::Value;

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A fresh scratch directory per test, so cache and journal state
/// never leaks between tests or runs.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("scu-server-e2e-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("creating the scratch dir");
    dir
}

/// Single-worker scheduler over the tiny experiment matrix: batch
/// order is submission order, which the timing-sensitive tests rely
/// on.
fn config(dir: &Path) -> SchedulerConfig {
    SchedulerConfig {
        experiment: ExperimentConfig::tiny(),
        jobs: 1,
        retries: 0,
        cache_dir: Some(dir.join("cache")),
        max_pending_cells: scu_server::DEFAULT_MAX_PENDING_CELLS,
        max_retained_sweeps: scu_server::DEFAULT_MAX_RETAINED_SWEEPS,
    }
}

fn bfs_cond_tx1(cfg: &ExperimentConfig) -> Cell {
    cfg.cell(
        Algorithm::Bfs,
        Dataset::Cond,
        SystemKind::Tx1,
        Mode::GpuBaseline,
    )
}

fn bfs_kron_tx1(cfg: &ExperimentConfig) -> Cell {
    cfg.cell(
        Algorithm::Bfs,
        Dataset::Kron,
        SystemKind::Tx1,
        Mode::GpuBaseline,
    )
}

fn cc_cond_tx1(cfg: &ExperimentConfig) -> Cell {
    cfg.cell(
        Algorithm::Cc,
        Dataset::Cond,
        SystemKind::Tx1,
        Mode::GpuBaseline,
    )
}

/// Pulls one cell's result value out of a sweep's results document.
fn value_of(sweep: &SweepState, cell_id: &str) -> Value {
    sweep
        .results()
        .get("results")
        .and_then(Value::as_array)
        .and_then(|rows| {
            rows.iter()
                .find(|r| r.get("cell").and_then(Value::as_str) == Some(cell_id))
                .and_then(|r| r.get("value").cloned())
        })
        .unwrap_or_else(|| panic!("sweep {} carries no value for {cell_id}", sweep.id))
}

fn text(value: &Value) -> String {
    serde_json::to_string(value).expect("serialising a Value cannot fail")
}

fn field_u64(doc: &Value, name: &str) -> u64 {
    doc.get(name)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("document carries no u64 field '{name}': {doc:?}"))
}

#[test]
fn overlapping_sweeps_coalesce_to_one_computation() {
    let _serial = lock();
    let dir = scratch("coalesce");
    let scheduler = Scheduler::new(config(&dir));
    let cfg = scheduler.experiment().clone();
    let (x, y, z) = (bfs_cond_tx1(&cfg), bfs_kron_tx1(&cfg), cc_cond_tx1(&cfg));

    // Slow every computation down so the second sweep reliably arrives
    // while the shared cell is still in flight.
    let fp = failpoint::scoped("cell-run=delay(150)");
    let a = scheduler
        .submit(vec![x.clone(), y.clone()], None)
        .expect("submit a");
    let b = scheduler
        .submit(vec![y.clone(), z.clone()], None)
        .expect("submit b");
    a.wait_done();
    b.wait_done();
    drop(fp);

    let c = scheduler.counters();
    assert_eq!(c.scheduled, 3, "three unique cells across both sweeps");
    assert_eq!(
        c.coalesced, 1,
        "the shared cell attached to the in-flight run"
    );
    assert_eq!(c.computed, 3, "each unique cell computed exactly once");
    assert_eq!(c.cache_hits, 0, "fresh cache directory");
    assert_eq!(c.failed, 0);

    // Both sweeps see byte-identical bytes for the shared cell, and
    // those bytes equal a local simulation of the same cell — the
    // run_one path.
    let shared = y.id();
    let via_a = text(&value_of(&a, &shared));
    let via_b = text(&value_of(&b, &shared));
    assert_eq!(via_a, via_b);
    assert_eq!(via_a, text(&y.run_value()));
    scheduler.shutdown();
}

/// A long-lived daemon must not pin every finished sweep's result
/// values and event log forever: past the retention cap, finished
/// sweeps are evicted oldest-first at the next submission, while open
/// sweeps and the on-disk cache are untouched.
#[test]
fn finished_sweeps_are_evicted_past_the_retention_cap() {
    let _serial = lock();
    let dir = scratch("retention");
    let mut sched_cfg = config(&dir);
    sched_cfg.max_retained_sweeps = 2;
    let scheduler = Scheduler::new(sched_cfg);
    let cfg = scheduler.experiment().clone();
    let (x, y) = (bfs_cond_tx1(&cfg), bfs_kron_tx1(&cfg));

    // The first sweep computes the cell; every later submission of it
    // is a pure cache hit that finishes at submission time — exactly
    // the traffic `max_pending_cells` cannot bound.
    let first = scheduler.submit(vec![x.clone()], None).expect("submit");
    first.wait_done();
    let first_id = first.id;
    drop(first);
    let flood_ids: Vec<u64> = (0..6)
        .map(|_| {
            let sweep = scheduler.submit(vec![x.clone()], None).expect("submit");
            sweep.wait_done();
            sweep.id
        })
        .collect();

    assert!(
        scheduler.sweep(first_id).is_none(),
        "the oldest finished sweep was evicted"
    );
    let last_two = &flood_ids[flood_ids.len() - 2..];
    for id in last_two {
        assert!(
            scheduler.sweep(*id).is_some(),
            "the {} most recent finished sweeps are retained",
            last_two.len()
        );
    }
    assert!(
        scheduler
            .cached_cell(&x.id())
            .expect("known cell")
            .is_some(),
        "eviction drops in-memory sweep state only; the cache survives"
    );

    // An open sweep is older than the whole flood but must survive it:
    // only finished sweeps are eviction candidates.
    let fp = failpoint::scoped("cell-run=delay(300)");
    let open = scheduler
        .submit(vec![y.clone()], None)
        .expect("submit open");
    for _ in 0..5 {
        let sweep = scheduler.submit(vec![x.clone()], None).expect("submit");
        sweep.wait_done();
    }
    assert!(
        scheduler.sweep(open.id).is_some(),
        "open sweeps are never evicted"
    );
    open.wait_done();
    drop(fp);
    scheduler.shutdown();
}

#[test]
fn http_clients_share_inflight_cells_and_get_identical_bytes() {
    let _serial = lock();
    let dir = scratch("http");
    let scheduler = Scheduler::new(config(&dir));
    let server = Server::bind("127.0.0.1:0", Arc::clone(&scheduler)).expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();
    let srv = std::thread::spawn(move || server.run());
    let client = Client::new(&format!("http://{addr}"));

    let fp = failpoint::scoped("cell-run=delay(150)");
    // Sweep A: BFS on cond, both systems, gpu mode — 2 cells.
    let a = client
        .submit(&Value::Object(vec![
            ("filter".to_string(), Value::Str("BFS/cond".to_string())),
            (
                "modes".to_string(),
                Value::Array(vec![Value::Str("gpu".to_string())]),
            ),
        ]))
        .expect("submit sweep a");
    // Sweep B: every algorithm on cond/TX1/gpu — 5 cells, overlapping
    // sweep A on BFS/cond/TX1/gpu while it is still in flight.
    let b = client
        .submit(&Value::Object(vec![(
            "filter".to_string(),
            Value::Str("cond/TX1/gpu".to_string()),
        )]))
        .expect("submit sweep b");

    // Two concurrent streaming clients, one per sweep.
    let streams: Vec<_> = [a, b]
        .into_iter()
        .map(|id| {
            let client = client.clone();
            std::thread::spawn(move || {
                let mut events = Vec::new();
                client
                    .stream_events(id, |e| events.push(e.clone()))
                    .expect("event stream");
                (id, events)
            })
        })
        .collect();
    let mut done = Vec::new();
    for stream in streams {
        done.push(stream.join().expect("streaming client"));
    }
    drop(fp);

    for (id, events) in &done {
        let labels: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("type").and_then(Value::as_str))
            .collect();
        assert_eq!(
            labels.last(),
            Some(&"done"),
            "sweep {id} stream must close with a done event: {labels:?}"
        );
        let status = client.sweep(*id).expect("status");
        assert_eq!(field_u64(&status, "failed"), 0, "sweep {id}");
        assert_eq!(
            field_u64(&status, "finished"),
            field_u64(&status, "total"),
            "sweep {id}"
        );
    }

    // Dedup proof over HTTP: 2 + 5 requested, 6 unique, 1 coalesced.
    let metrics = client.metrics().expect("metrics");
    assert_eq!(field_u64(&metrics, "cells_requested"), 7);
    assert_eq!(field_u64(&metrics, "scheduled"), 6);
    assert_eq!(field_u64(&metrics, "coalesced"), 1);
    assert_eq!(field_u64(&metrics, "computed"), 6);

    // The overlapping cell reads back from the cache byte-identical to
    // a local simulation — the `run_one --remote` contract.
    let shared = bfs_cond_tx1(scheduler.experiment());
    let entry = client
        .cell(&shared.id())
        .expect("cell read")
        .expect("computed cell is cached");
    let served = entry.get("value").expect("cell value");
    assert_eq!(text(served), text(&shared.run_value()));

    let (a_id, _) = done[0];
    let results = client.results(a_id).expect("results");
    let rows = results.get("results").and_then(Value::as_array).unwrap();
    let via_sweep = rows
        .iter()
        .find(|r| r.get("cell").and_then(Value::as_str) == Some(shared.id().as_str()))
        .and_then(|r| r.get("value"))
        .expect("sweep a carries the shared cell");
    assert_eq!(text(via_sweep), text(served));

    // Graceful shutdown: run() returns with every worker joined.
    handle.shutdown();
    srv.join().expect("server thread exits cleanly");
}

#[test]
fn a_panicking_cell_poisons_only_the_sweeps_that_asked_for_it() {
    let _serial = lock();
    let dir = scratch("poison");
    let scheduler = Scheduler::new(config(&dir));
    let cfg = scheduler.experiment().clone();
    let (x, y) = (bfs_cond_tx1(&cfg), bfs_kron_tx1(&cfg));

    // Only the first simulated cell panics; retries are off in
    // `config`, so the failure is permanent.
    let fp = failpoint::scoped("cell-run=panic(injected cell crash)@1");
    let a = scheduler.submit(vec![x.clone()], None).expect("submit a");
    a.wait_done();
    let status = a.status();
    assert_eq!(field_u64(&status, "failed"), 1);
    let error = status
        .get("cells")
        .and_then(Value::as_array)
        .and_then(|cells| cells.first())
        .and_then(|c| c.get("error"))
        .and_then(Value::as_str)
        .expect("failed cell carries its error");
    assert!(error.contains("injected cell crash"), "{error}");

    // The daemon survives: a later sweep on a healthy cell completes.
    let b = scheduler.submit(vec![y], None).expect("submit b");
    b.wait_done();
    drop(fp);
    let status = b.status();
    assert_eq!(field_u64(&status, "failed"), 0);
    assert_eq!(field_u64(&status, "finished"), 1);
    let c = scheduler.counters();
    assert_eq!(c.failed, 1);
    assert_eq!(c.computed, 1);
    scheduler.shutdown();
}

#[test]
fn shutdown_drains_and_a_restart_resumes_warm() {
    let _serial = lock();
    let dir = scratch("restart");
    let cfg = config(&dir);
    let cells = vec![
        bfs_cond_tx1(&cfg.experiment),
        bfs_kron_tx1(&cfg.experiment),
        cc_cond_tx1(&cfg.experiment),
    ];

    let finished_first = {
        let scheduler = Scheduler::new(cfg.clone());
        let fp = failpoint::scoped("cell-run=delay(300)");
        let sweep = scheduler.submit(cells.clone(), None).expect("submit");
        // Shut down mid-batch, after at least one cell completed.
        let (events, _) = sweep.wait_events(0);
        assert!(!events.is_empty());
        scheduler.shutdown();
        sweep.wait_done();
        drop(fp);
        let status = sweep.status();
        let finished = field_u64(&status, "finished");
        assert!(finished >= 1, "the running batch drains, not aborts");
        assert_eq!(field_u64(&status, "failed"), 0);
        assert_eq!(field_u64(&status, "resolved"), 3, "every cell resolves");
        finished
    };

    // A fresh scheduler over the same directories resumes from the
    // cache: drained cells are submission-time hits, never recomputed.
    let scheduler = Scheduler::new(cfg);
    let sweep = scheduler.submit(cells, None).expect("resubmit");
    sweep.wait_done();
    let status = sweep.status();
    assert_eq!(field_u64(&status, "finished"), 3);
    assert_eq!(field_u64(&status, "failed"), 0);
    let c = scheduler.counters();
    assert_eq!(c.cache_hits, finished_first, "drained cells came from disk");
    assert_eq!(c.scheduled, 3 - finished_first);
    scheduler.shutdown();
}

#[test]
fn cancelling_a_sweep_closes_its_stream() {
    let _serial = lock();
    let dir = scratch("cancel");
    let scheduler = Scheduler::new(config(&dir));
    let cfg = scheduler.experiment().clone();
    let fp = failpoint::scoped("cell-run=delay(200)");
    let sweep = scheduler
        .submit(vec![bfs_cond_tx1(&cfg), bfs_kron_tx1(&cfg)], None)
        .expect("submit");
    assert!(scheduler.cancel_sweep(sweep.id));
    sweep.wait_done();
    drop(fp);
    assert_eq!(
        sweep.status().get("cancelled").and_then(Value::as_bool),
        Some(true)
    );
    assert!(!scheduler.cancel_sweep(987_654), "unknown ids report false");
    scheduler.shutdown();
}

#[test]
fn submissions_outside_the_matrix_or_during_shutdown_are_rejected() {
    let dir = scratch("reject");
    let scheduler = Scheduler::new(config(&dir));
    // A cell built from a different experiment configuration shares an
    // id with a catalog cell but not its parameters.
    let foreign = ExperimentConfig::new();
    let err = scheduler
        .submit(vec![bfs_cond_tx1(&foreign)], None)
        .expect_err("foreign cells are rejected");
    assert!(err.contains("does not match"), "{err}");

    scheduler.shutdown();
    let cfg = scheduler.experiment().clone();
    let err = scheduler
        .submit(vec![bfs_cond_tx1(&cfg)], None)
        .expect_err("submissions after shutdown are rejected");
    assert!(err.contains("shutting down"), "{err}");
}
