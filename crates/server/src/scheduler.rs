//! The sweep scheduler: dedup, in-flight coalescing, batched
//! execution, and per-sweep event streams.
//!
//! Clients submit overlapping sets of matrix cells; the scheduler
//! guarantees each unique cell is computed **at most once** regardless
//! of how many sweeps want it:
//!
//! 1. **Cache dedup** — a cell already in the on-disk
//!    [`ResultCache`] resolves at submission time without touching the
//!    queue (`cache_hits`).
//! 2. **In-flight coalescing** — a cell already queued or running
//!    attaches the new sweep as a waiter on the existing computation
//!    (`coalesced`); only genuinely new cells are scheduled
//!    (`scheduled`).
//! 3. **Batched execution** — a single dispatcher thread drains the
//!    pending set into one [`JobGraph`] and runs it through one shared
//!    [`Harness`], inheriting its result cache, journal-backed resume,
//!    retries and fault isolation.
//!
//! Completions stream to every waiting sweep through the harness's
//! progress-observer hook; a panicking cell fails only the sweeps that
//! asked for it. Shutdown — and a batch whose every waiter cancelled,
//! disconnected, or ran out of deadline — raises that batch's drain
//! flag: in-flight cells finish and reach the journal, unstarted cells
//! report `cancelled`, and a restarted daemon resumes warm from the
//! cache and journal. Admission is bounded: a pending backlog past
//! `max_pending_cells` rejects new sweeps ("overloaded" → HTTP 429),
//! and each sweep may carry a wall-clock deadline enforced by a
//! watcher thread. Retention is bounded too: finished sweeps past
//! `max_retained_sweeps` are evicted oldest-first at submission, so a
//! long-lived daemon's in-memory sweep state cannot grow without
//! bound (results stay reachable through the on-disk cache).

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use scu_algos::cell::Cell;
use scu_algos::experiment::{plan_cells, ExperimentConfig, ALL_MODES};
use scu_harness::error::lock_unpoisoned;
use scu_harness::{CliArgs, Harness, Job, JobGraph, Outcome, ProgressEvent, ResultCache};
use serde_json::Value;

/// Everything the scheduler needs to build its matrix and harness.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// The experiment knobs (scale, seed, datasets, algorithms) — the
    /// served matrix is exactly this configuration's 240-cell plan.
    pub experiment: ExperimentConfig,
    /// Worker threads per batch.
    pub jobs: usize,
    /// Retries for failed cells.
    pub retries: u32,
    /// On-disk result store, which caches results and journals
    /// completions; `None` disables both dedup-by-cache and warm
    /// restarts.
    pub cache_dir: Option<PathBuf>,
    /// Admission cap: submissions are rejected (HTTP 429) while this
    /// many cells are already queued for the dispatcher. The running
    /// batch does not count — only the backlog behind it.
    pub max_pending_cells: usize,
    /// Retention cap: finished (done or cancelled) sweeps past this
    /// count are evicted oldest-first at the next submission, so a
    /// long-lived daemon's per-sweep state — result values and event
    /// logs — cannot grow without bound. Evicted ids answer 404;
    /// their results stay reachable through the on-disk cache
    /// (`GET /cells/{id}`). Open sweeps are never evicted.
    pub max_retained_sweeps: usize,
}

impl SchedulerConfig {
    /// Builds the configuration from the shared harness flags plus the
    /// `SCU_SCALE`/`SCU_SEED` environment, using the standard
    /// `results/` paths.
    pub fn from_cli(args: &CliArgs) -> Self {
        SchedulerConfig {
            experiment: ExperimentConfig::from_env(),
            jobs: args.jobs.max(1),
            retries: args.retries,
            cache_dir: (!args.no_cache)
                .then(|| PathBuf::from(scu_harness::session::DEFAULT_CACHE_DIR)),
            max_pending_cells: DEFAULT_MAX_PENDING_CELLS,
            max_retained_sweeps: DEFAULT_MAX_RETAINED_SWEEPS,
        }
    }
}

/// Default admission cap: several full matrices of backlog. Deep
/// enough that overlapping clients never see it, shallow enough that a
/// submission flood cannot grow the queue without bound.
pub const DEFAULT_MAX_PENDING_CELLS: usize = 4096;

/// Default retention cap for finished sweeps: generous for any client
/// that polls `GET /sweeps/{id}/results` after `done`, while bounding
/// what a submission flood can pin in memory.
pub const DEFAULT_MAX_RETAINED_SWEEPS: usize = 256;

/// Why a sweep was torn down before its cells resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReleaseReason {
    /// The client asked (`DELETE /sweeps/{id}`).
    Cancelled,
    /// The client vanished mid-event-stream.
    Disconnected,
    /// The sweep's wall-clock deadline expired.
    DeadlineExpired,
}

/// How one cell ended, as delivered to the sweeps waiting on it.
#[derive(Debug, Clone)]
enum CellOutcome {
    /// The result value, whether it came from cache/journal, and the
    /// compute duration in nanoseconds.
    Done(Value, bool, u64),
    /// The failure message.
    Failed(String),
    /// Never ran: the scheduler shut down or the sweep was cancelled.
    Cancelled,
}

/// Throughput attached to live completion events.
#[derive(Debug, Clone, Copy)]
struct Pace {
    cells_per_sec: f64,
    eta_ns: Option<u64>,
}

/// One submitted sweep: its planned cells and the event log clients
/// stream from.
pub struct SweepState {
    /// Server-assigned sweep id.
    pub id: u64,
    /// Planned cell ids, in request order.
    pub cells: Vec<String>,
    /// Wall-clock instant past which the sweep is force-cancelled.
    deadline: Option<Instant>,
    log: Mutex<SweepLog>,
    cond: Condvar,
}

#[derive(Default)]
struct SweepLog {
    /// Append-only JSON events; streaming clients replay from an index.
    events: Vec<Value>,
    /// Terminal state per resolved cell id.
    states: HashMap<String, CellOutcome>,
    /// Result values in resolution order (rendered in planned order).
    values: Vec<(String, Value)>,
    resolved: usize,
    done_cells: usize,
    cached_cells: usize,
    failed_cells: usize,
    cancelled_cells: usize,
    /// The whole sweep was cancelled by the client or shutdown.
    cancelled: bool,
    /// No more events will be appended.
    done: bool,
}

impl std::fmt::Debug for SweepState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepState")
            .field("id", &self.id)
            .field("cells", &self.cells)
            .finish_non_exhaustive()
    }
}

impl SweepState {
    fn new(id: u64, cells: Vec<String>, deadline: Option<Instant>) -> Arc<Self> {
        Arc::new(SweepState {
            id,
            cells,
            deadline,
            log: Mutex::new(SweepLog::default()),
            cond: Condvar::new(),
        })
    }

    /// Records one cell's terminal outcome, appends its event, and
    /// closes the sweep when it was the last. Late resolutions after a
    /// cancel are dropped.
    fn deliver(&self, cell_id: &str, outcome: &CellOutcome, pace: Option<Pace>) {
        let mut log = lock_unpoisoned(&self.log, "sweep log");
        if log.done || log.states.contains_key(cell_id) {
            return;
        }
        log.states.insert(cell_id.to_string(), outcome.clone());
        log.resolved += 1;
        let mut event = vec![
            ("type".to_string(), Value::Str("cell".to_string())),
            ("sweep".to_string(), Value::U64(self.id)),
            ("seq".to_string(), Value::U64(log.resolved as u64)),
            ("total".to_string(), Value::U64(self.cells.len() as u64)),
            ("cell".to_string(), Value::Str(cell_id.to_string())),
        ];
        match outcome {
            CellOutcome::Done(value, cached, duration_ns) => {
                log.done_cells += 1;
                if *cached {
                    log.cached_cells += 1;
                }
                log.values.push((cell_id.to_string(), value.clone()));
                event.push((
                    "label".to_string(),
                    Value::Str(if *cached { "cached" } else { "done" }.to_string()),
                ));
                event.push(("cached".to_string(), Value::Bool(*cached)));
                event.push(("duration_ns".to_string(), Value::U64(*duration_ns)));
            }
            CellOutcome::Failed(error) => {
                log.failed_cells += 1;
                event.push(("label".to_string(), Value::Str("FAILED".to_string())));
                event.push(("error".to_string(), Value::Str(error.clone())));
            }
            CellOutcome::Cancelled => {
                log.cancelled_cells += 1;
                event.push(("label".to_string(), Value::Str("cancelled".to_string())));
            }
        }
        if let Some(p) = pace {
            event.push(("cells_per_sec".to_string(), Value::F64(p.cells_per_sec)));
            if let Some(eta) = p.eta_ns {
                event.push(("eta_ns".to_string(), Value::U64(eta)));
            }
        }
        log.events.push(Value::Object(event));
        if log.resolved == self.cells.len() {
            log.done = true;
            let done = Value::Object(vec![
                ("type".to_string(), Value::Str("done".to_string())),
                ("sweep".to_string(), Value::U64(self.id)),
                ("total".to_string(), Value::U64(self.cells.len() as u64)),
                ("finished".to_string(), Value::U64(log.done_cells as u64)),
                ("cached".to_string(), Value::U64(log.cached_cells as u64)),
                ("failed".to_string(), Value::U64(log.failed_cells as u64)),
                (
                    "cancelled_cells".to_string(),
                    Value::U64(log.cancelled_cells as u64),
                ),
            ]);
            log.events.push(done);
        }
        self.cond.notify_all();
    }

    /// Marks the sweep cancelled, resolves every still-pending cell as
    /// `Cancelled`, and closes the stream through the normal done
    /// event — clients see a `cancelled` marker, one terminal event
    /// per remaining cell, then `done`. Late real resolutions are
    /// dropped by [`SweepState::deliver`]'s already-resolved guard.
    fn cancel(&self, reason: ReleaseReason) {
        {
            let mut log = lock_unpoisoned(&self.log, "sweep log");
            if log.done || log.cancelled {
                return;
            }
            log.cancelled = true;
            log.events.push(Value::Object(vec![
                ("type".to_string(), Value::Str("cancelled".to_string())),
                ("sweep".to_string(), Value::U64(self.id)),
                (
                    "reason".to_string(),
                    Value::Str(
                        match reason {
                            ReleaseReason::Cancelled => "client-request",
                            ReleaseReason::Disconnected => "client-disconnected",
                            ReleaseReason::DeadlineExpired => "deadline-expired",
                        }
                        .to_string(),
                    ),
                ),
            ]));
            self.cond.notify_all();
        }
        for cell_id in &self.cells {
            self.deliver(cell_id, &CellOutcome::Cancelled, None);
        }
    }

    /// Whether the sweep's event stream has closed — every cell
    /// resolved, by completion or cancellation. Finished sweeps are
    /// eligible for retention eviction.
    fn finished(&self) -> bool {
        lock_unpoisoned(&self.log, "sweep log").done
    }

    /// Whether the sweep's deadline has passed while it is still open.
    fn deadline_expired(&self, now: Instant) -> bool {
        let Some(deadline) = self.deadline else {
            return false;
        };
        if now < deadline {
            return false;
        }
        let log = lock_unpoisoned(&self.log, "sweep log");
        !log.done && !log.cancelled
    }

    /// The status document served at `GET /sweeps/{id}`.
    pub fn status(&self) -> Value {
        let log = lock_unpoisoned(&self.log, "sweep log");
        let cells: Vec<Value> = self
            .cells
            .iter()
            .map(|id| {
                let (state, cached, error) = match log.states.get(id) {
                    None => ("pending", false, None),
                    Some(CellOutcome::Done(_, cached, _)) => ("done", *cached, None),
                    Some(CellOutcome::Failed(e)) => ("failed", false, Some(e.clone())),
                    Some(CellOutcome::Cancelled) => ("cancelled", false, None),
                };
                let mut obj = vec![
                    ("id".to_string(), Value::Str(id.clone())),
                    ("state".to_string(), Value::Str(state.to_string())),
                    ("cached".to_string(), Value::Bool(cached)),
                ];
                if let Some(e) = error {
                    obj.push(("error".to_string(), Value::Str(e)));
                }
                Value::Object(obj)
            })
            .collect();
        Value::Object(vec![
            ("id".to_string(), Value::U64(self.id)),
            ("total".to_string(), Value::U64(self.cells.len() as u64)),
            ("resolved".to_string(), Value::U64(log.resolved as u64)),
            ("finished".to_string(), Value::U64(log.done_cells as u64)),
            ("cached".to_string(), Value::U64(log.cached_cells as u64)),
            ("failed".to_string(), Value::U64(log.failed_cells as u64)),
            ("done".to_string(), Value::Bool(log.done)),
            ("cancelled".to_string(), Value::Bool(log.cancelled)),
            ("cells".to_string(), Value::Array(cells)),
        ])
    }

    /// The results document served at `GET /sweeps/{id}/results`:
    /// resolved cell values in planned order. Byte-identical to what
    /// `run_one` prints from the cache, because both are the same
    /// [`Cell`] result serialisation.
    pub fn results(&self) -> Value {
        let log = lock_unpoisoned(&self.log, "sweep log");
        let rows: Vec<Value> = self
            .cells
            .iter()
            .filter_map(|id| {
                log.values.iter().find(|(vid, _)| vid == id).map(|(_, v)| {
                    Value::Object(vec![
                        ("cell".to_string(), Value::Str(id.clone())),
                        ("value".to_string(), v.clone()),
                    ])
                })
            })
            .collect();
        Value::Object(vec![
            ("id".to_string(), Value::U64(self.id)),
            ("results".to_string(), Value::Array(rows)),
        ])
    }

    /// Copies events starting at `from`, plus whether the stream is
    /// closed; blocks until at least one of the two is news.
    pub fn wait_events(&self, from: usize) -> (Vec<Value>, bool) {
        let mut log = lock_unpoisoned(&self.log, "sweep log");
        while !log.done && log.events.len() <= from {
            log = self
                .cond
                .wait(log)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
        let fresh = log.events.get(from..).unwrap_or_default().to_vec();
        (fresh, log.done)
    }

    /// Blocks until the sweep's event stream closes.
    pub fn wait_done(&self) {
        let mut log = lock_unpoisoned(&self.log, "sweep log");
        while !log.done {
            log = self
                .cond
                .wait(log)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }
}

/// One queued-or-running unique cell and the sweeps waiting on it.
struct Inflight {
    waiters: Vec<Arc<SweepState>>,
    outcome: Option<CellOutcome>,
}

/// Monotonic scheduling counters — the dedup proof `/metrics` exposes.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    /// Sweeps accepted.
    pub sweeps: u64,
    /// Cells requested across all sweeps (after per-sweep dedup).
    pub cells_requested: u64,
    /// Cells resolved from the on-disk cache at submission.
    pub cache_hits: u64,
    /// Cells attached to an already-queued-or-running computation.
    pub coalesced: u64,
    /// Unique cells scheduled for computation.
    pub scheduled: u64,
    /// Scheduled cells that completed.
    pub computed: u64,
    /// Scheduled cells that failed (after retries).
    pub failed: u64,
    /// Cells cancelled before running.
    pub cancelled: u64,
    /// Batches the dispatcher ran.
    pub batches: u64,
    /// Sum of per-cell compute time across batches, nanoseconds.
    pub cell_time_ns: u64,
    /// Sum of batch wall-clock, nanoseconds.
    pub wall_ns: u64,
    /// Submissions refused by the admission cap.
    pub rejected_sweeps: u64,
    /// Sweeps force-cancelled by their wall-clock deadline.
    pub deadline_expired: u64,
    /// Event streams whose client vanished mid-stream.
    pub disconnected_streams: u64,
    /// Timed-out worker threads abandoned across all batches
    /// (from [`scu_harness::SweepSummary::leaked_threads`]).
    pub leaked_threads: u64,
    /// Cells that needed at least one retry before resolving.
    pub retried_cells: u64,
    /// Total retry attempts across all cells and batches.
    pub retry_attempts: u64,
}

struct Inner {
    pending: Vec<String>,
    inflight: HashMap<String, Inflight>,
    sweeps: HashMap<u64, Arc<SweepState>>,
    next_id: u64,
    shutdown: bool,
    busy: bool,
    /// Drain flag for the batch the dispatcher is currently running;
    /// raised by shutdown or when every unresolved cell in the batch
    /// loses its last waiter (orphaned work).
    batch_cancel: Option<Arc<AtomicBool>>,
    counters: Counters,
}

/// The daemon's brain; shared by every connection handler.
pub struct Scheduler {
    cfg: SchedulerConfig,
    /// id → cell for the full matrix this server serves.
    catalog: HashMap<String, Cell>,
    cache: Option<ResultCache>,
    inner: Mutex<Inner>,
    /// Wakes the dispatcher when cells are queued or shutdown begins.
    wake: Condvar,
    /// Stops the deadline watcher thread.
    stopping: Arc<AtomicBool>,
    started: Instant,
    dispatcher: Mutex<Option<JoinHandle<()>>>,
    watcher: Mutex<Option<JoinHandle<()>>>,
}

impl Scheduler {
    /// Builds the catalog, opens the cache, and starts the dispatcher.
    pub fn new(cfg: SchedulerConfig) -> Arc<Self> {
        let catalog: HashMap<String, Cell> = plan_cells(&cfg.experiment, &ALL_MODES, None)
            .into_iter()
            .map(|c| (c.id(), c))
            .collect();
        let cache = cfg
            .cache_dir
            .as_ref()
            .and_then(|dir| match ResultCache::open(dir) {
                Ok(c) => Some(c),
                Err(e) => {
                    eprintln!(
                        "[scu-server] cannot open cache at {}: {e}; serving uncached",
                        dir.display()
                    );
                    None
                }
            });
        let scheduler = Arc::new(Scheduler {
            cfg,
            catalog,
            cache,
            inner: Mutex::new(Inner {
                pending: Vec::new(),
                inflight: HashMap::new(),
                sweeps: HashMap::new(),
                next_id: 1,
                shutdown: false,
                busy: false,
                batch_cancel: None,
                counters: Counters::default(),
            }),
            wake: Condvar::new(),
            stopping: Arc::new(AtomicBool::new(false)),
            started: Instant::now(),
            dispatcher: Mutex::new(None),
            watcher: Mutex::new(None),
        });
        let worker = Arc::clone(&scheduler);
        let handle = std::thread::Builder::new()
            .name("scu-dispatcher".to_string())
            .spawn(move || worker.dispatch_loop())
            .expect("spawning the dispatcher thread");
        *lock_unpoisoned(&scheduler.dispatcher, "dispatcher handle") = Some(handle);
        let sentry = Arc::clone(&scheduler);
        let handle = std::thread::Builder::new()
            .name("scu-deadline".to_string())
            .spawn(move || sentry.deadline_loop())
            .expect("spawning the deadline watcher thread");
        *lock_unpoisoned(&scheduler.watcher, "deadline watcher handle") = Some(handle);
        scheduler
    }

    /// The deadline watcher: force-cancels sweeps whose wall-clock
    /// budget ran out, ~20 ms granularity.
    fn deadline_loop(self: Arc<Self>) {
        while !self.stopping.load(Ordering::SeqCst) {
            let now = Instant::now();
            let expired: Vec<Arc<SweepState>> = {
                let inner = lock_unpoisoned(&self.inner, "scheduler");
                inner
                    .sweeps
                    .values()
                    .filter(|s| s.deadline_expired(now))
                    .cloned()
                    .collect()
            };
            for sweep in expired {
                self.release_sweep(&sweep, ReleaseReason::DeadlineExpired);
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
    }

    /// Cells this server can serve.
    pub fn matrix_size(&self) -> usize {
        self.catalog.len()
    }

    /// The experiment configuration requests are validated against.
    pub fn experiment(&self) -> &ExperimentConfig {
        &self.cfg.experiment
    }

    /// Accepts a sweep: dedups against the cache, coalesces against
    /// in-flight cells, queues the rest, and returns the sweep handle
    /// (failpoint site: `scheduler-enqueue`). `deadline` is a
    /// wall-clock budget for the whole sweep; when it expires the
    /// deadline watcher force-cancels whatever has not resolved.
    ///
    /// # Errors
    ///
    /// Rejects cells outside the catalog, submissions during shutdown,
    /// and submissions while the pending backlog is at the admission
    /// cap (the error contains "overloaded"; HTTP maps it to 429).
    pub fn submit(
        &self,
        cells: Vec<Cell>,
        deadline: Option<std::time::Duration>,
    ) -> Result<Arc<SweepState>, String> {
        scu_harness::failpoint::check("scheduler-enqueue").map_err(|e| e.to_string())?;
        for cell in &cells {
            match self.catalog.get(&cell.id()) {
                Some(known) if known == cell => {}
                Some(_) => {
                    return Err(format!(
                        "cell {} does not match this server's matrix configuration",
                        cell.id()
                    ))
                }
                None => {
                    return Err(format!(
                        "cell {} is not in this server's experiment matrix",
                        cell.id()
                    ))
                }
            }
        }
        // Disk reads happen outside the scheduler lock.
        let cached: Vec<Option<Value>> = cells
            .iter()
            .map(|cell| self.cache.as_ref().and_then(|c| c.load(&cell.cache_key())))
            .collect();

        let (sweep, resolutions) = {
            let mut inner = lock_unpoisoned(&self.inner, "scheduler");
            if inner.shutdown {
                return Err("server is shutting down".to_string());
            }
            if inner.pending.len() >= self.cfg.max_pending_cells {
                inner.counters.rejected_sweeps += 1;
                return Err(format!(
                    "server overloaded: {} cells already pending (cap {}); retry later",
                    inner.pending.len(),
                    self.cfg.max_pending_cells
                ));
            }
            let id = inner.next_id;
            inner.next_id += 1;
            let sweep = SweepState::new(
                id,
                cells.iter().map(Cell::id).collect(),
                deadline.map(|d| Instant::now() + d),
            );
            inner.sweeps.insert(id, Arc::clone(&sweep));
            Self::evict_finished_sweeps(&mut inner, self.cfg.max_retained_sweeps);
            inner.counters.sweeps += 1;
            inner.counters.cells_requested += cells.len() as u64;
            // Deferred deliveries: performed after the lock drops.
            let mut resolutions: Vec<(String, CellOutcome)> = Vec::new();
            let mut queued = false;
            for (cell, hit) in cells.iter().zip(cached) {
                let cell_id = cell.id();
                if let Some(value) = hit {
                    inner.counters.cache_hits += 1;
                    resolutions.push((cell_id, CellOutcome::Done(value, true, 0)));
                    continue;
                }
                if let Some(entry) = inner.inflight.get_mut(&cell_id) {
                    match &entry.outcome {
                        Some(outcome) => resolutions.push((cell_id, outcome.clone())),
                        None => entry.waiters.push(Arc::clone(&sweep)),
                    }
                    inner.counters.coalesced += 1;
                } else {
                    inner.counters.scheduled += 1;
                    inner.inflight.insert(
                        cell_id.clone(),
                        Inflight {
                            waiters: vec![Arc::clone(&sweep)],
                            outcome: None,
                        },
                    );
                    inner.pending.push(cell_id);
                    queued = true;
                }
            }
            if queued {
                self.wake.notify_all();
            }
            (sweep, resolutions)
        };
        for (cell_id, outcome) in resolutions {
            sweep.deliver(&cell_id, &outcome, None);
        }
        Ok(sweep)
    }

    /// Bounds per-sweep memory in a long-lived daemon: while more than
    /// `cap` sweeps are retained, evicts finished ones oldest-first.
    /// Evicted ids answer 404; the result values themselves survive in
    /// the on-disk cache. Open sweeps are never evicted, so `sweeps`
    /// can still exceed `cap` transiently when that many are live at
    /// once. Locks each sweep's log while holding the scheduler lock —
    /// the same inner → log order the deadline watcher uses.
    fn evict_finished_sweeps(inner: &mut Inner, cap: usize) {
        if inner.sweeps.len() <= cap {
            return;
        }
        let mut finished: Vec<u64> = inner
            .sweeps
            .iter()
            .filter(|(_, sweep)| sweep.finished())
            .map(|(id, _)| *id)
            .collect();
        finished.sort_unstable();
        let excess = inner.sweeps.len() - cap;
        for id in finished.into_iter().take(excess) {
            inner.sweeps.remove(&id);
        }
    }

    /// Looks up a sweep by id.
    pub fn sweep(&self, id: u64) -> Option<Arc<SweepState>> {
        lock_unpoisoned(&self.inner, "scheduler")
            .sweeps
            .get(&id)
            .cloned()
    }

    /// Cancels a sweep on client request (`DELETE /sweeps/{id}`):
    /// closes its event stream, detaches it from in-flight cells, and
    /// unschedules cells nobody else wants that have not started.
    /// Returns false for unknown ids.
    pub fn cancel_sweep(&self, id: u64) -> bool {
        match self.sweep(id) {
            Some(sweep) => {
                self.release_sweep(&sweep, ReleaseReason::Cancelled);
                true
            }
            None => false,
        }
    }

    /// Tears a sweep down after its event-stream client vanished:
    /// identical to a cancel, but counted separately. Orphaned cells
    /// stop consuming the harness; coalesced cells survive through
    /// their other waiters.
    pub fn client_disconnected(&self, id: u64) -> bool {
        match self.sweep(id) {
            Some(sweep) => {
                self.release_sweep(&sweep, ReleaseReason::Disconnected);
                true
            }
            None => false,
        }
    }

    /// The common teardown: detach the sweep from its cells, unschedule
    /// queue entries nobody else wants, raise the running batch's drain
    /// flag once every unresolved cell is orphaned, then resolve the
    /// sweep's own view as cancelled.
    fn release_sweep(&self, sweep: &Arc<SweepState>, reason: ReleaseReason) {
        let id = sweep.id;
        {
            let mut inner = lock_unpoisoned(&self.inner, "scheduler");
            match reason {
                ReleaseReason::Cancelled => {}
                ReleaseReason::Disconnected => inner.counters.disconnected_streams += 1,
                ReleaseReason::DeadlineExpired => inner.counters.deadline_expired += 1,
            }
            for cell_id in &sweep.cells {
                let orphaned = match inner.inflight.get_mut(cell_id) {
                    Some(entry) => {
                        entry.waiters.retain(|w| w.id != id);
                        entry.waiters.is_empty() && entry.outcome.is_none()
                    }
                    None => false,
                };
                // A cell nobody waits on anymore is dropped from the
                // queue if the dispatcher has not yet picked it up;
                // once batched it simply completes into the cache.
                if orphaned && inner.pending.iter().any(|p| p == cell_id) {
                    inner.pending.retain(|p| p != cell_id);
                    inner.inflight.remove(cell_id);
                    inner.counters.cancelled += 1;
                }
            }
            // If the running batch now computes exclusively for ghosts,
            // drain it: in-flight cells finish into the cache, the rest
            // report cancelled.
            let all_orphaned = inner
                .inflight
                .values()
                .filter(|e| e.outcome.is_none())
                .all(|e| e.waiters.is_empty());
            if inner.busy && all_orphaned {
                if let Some(flag) = &inner.batch_cancel {
                    flag.store(true, Ordering::SeqCst);
                }
            }
        }
        sweep.cancel(reason);
    }

    /// Resolves one unique cell and fans the outcome out to its
    /// waiters. Idempotent: only the first resolution counts.
    fn resolve_cell(&self, cell_id: &str, outcome: CellOutcome, pace: Option<Pace>) {
        let waiters = {
            let mut inner = lock_unpoisoned(&self.inner, "scheduler");
            let Some(entry) = inner.inflight.get_mut(cell_id) else {
                return;
            };
            if entry.outcome.is_some() {
                return;
            }
            entry.outcome = Some(outcome.clone());
            let waiters = entry.waiters.clone();
            match &outcome {
                CellOutcome::Done(..) => inner.counters.computed += 1,
                CellOutcome::Failed(_) => inner.counters.failed += 1,
                CellOutcome::Cancelled => inner.counters.cancelled += 1,
            }
            waiters
        };
        for sweep in waiters {
            sweep.deliver(cell_id, &outcome, pace);
        }
    }

    /// The dispatcher thread: drain pending cells into a batch, run it
    /// on the shared harness, resolve, repeat until shutdown.
    fn dispatch_loop(self: Arc<Self>) {
        loop {
            let (batch, batch_cancel): (Vec<String>, Arc<AtomicBool>) = {
                let mut inner = lock_unpoisoned(&self.inner, "scheduler");
                while inner.pending.is_empty() && !inner.shutdown {
                    inner = self
                        .wake
                        .wait(inner)
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                }
                if inner.shutdown {
                    break;
                }
                inner.busy = true;
                inner.counters.batches += 1;
                // The flag is installed under the same lock that
                // checked `shutdown`, so a concurrent shutdown always
                // either sees it here or the dispatcher sees the flag
                // before starting the next batch.
                let flag = Arc::new(AtomicBool::new(false));
                inner.batch_cancel = Some(Arc::clone(&flag));
                (std::mem::take(&mut inner.pending), flag)
            };
            Arc::clone(&self).run_batch(&batch, batch_cancel);
            let mut inner = lock_unpoisoned(&self.inner, "scheduler");
            inner.busy = false;
            inner.batch_cancel = None;
            for cell_id in &batch {
                inner.inflight.remove(cell_id);
            }
        }
        // Shutdown: everything still queued or unresolved is cancelled
        // so no client blocks on a stream that will never close.
        let leftovers: Vec<String> = {
            let mut inner = lock_unpoisoned(&self.inner, "scheduler");
            inner.pending.clear();
            inner
                .inflight
                .iter()
                .filter(|(_, e)| e.outcome.is_none())
                .map(|(id, _)| id.clone())
                .collect()
        };
        for cell_id in leftovers {
            self.resolve_cell(&cell_id, CellOutcome::Cancelled, None);
        }
    }

    /// Runs one batch of unique cells through the shared harness.
    /// `batch_cancel` drains the batch early (shutdown, or every
    /// waiter gone): in-flight cells finish into the cache, unstarted
    /// ones report cancelled.
    fn run_batch(self: Arc<Self>, batch: &[String], batch_cancel: Arc<AtomicBool>) {
        // Fresh values land here from the job closures, so the
        // observer can deliver them to waiters the moment the harness
        // reports the completion — mid-batch, not at batch end.
        let slots: Arc<Mutex<HashMap<String, Value>>> = Arc::new(Mutex::new(HashMap::new()));
        let mut graph = JobGraph::new();
        for cell_id in batch {
            let cell = self.catalog[cell_id].clone();
            let key = cell.cache_key();
            let slot = Arc::clone(&slots);
            let id_for_slot = cell_id.clone();
            graph.push(
                Job::new(cell_id.clone(), move || {
                    let value = cell.run_value();
                    lock_unpoisoned(&slot, "cell result slot")
                        .insert(id_for_slot.clone(), value.clone());
                    value
                })
                .with_cache_key(key),
            );
        }
        let observer_slots = Arc::clone(&slots);
        let scheduler = Arc::clone(&self);
        let observer = std::sync::Arc::new(move |event: &ProgressEvent| {
            let pace = Pace {
                cells_per_sec: event.cells_per_sec,
                eta_ns: event.eta.map(|d| d.as_nanos() as u64),
            };
            if event.label == "FAILED" {
                let error = event.error.clone().unwrap_or_else(|| "failed".to_string());
                scheduler.resolve_cell(&event.id, CellOutcome::Failed(error), Some(pace));
            } else if let Some(value) =
                lock_unpoisoned(&observer_slots, "cell result slot").remove(&event.id)
            {
                let duration = event.duration.as_nanos() as u64;
                scheduler.resolve_cell(
                    &event.id,
                    CellOutcome::Done(value, event.cached, duration),
                    Some(pace),
                );
            }
            // Other labels (cached/resumed from the journal, timed
            // out, cancelled) carry no value here; the post-run pass
            // resolves them from the outcome.
        });
        let mut harness = Harness::new()
            .jobs(self.cfg.jobs)
            .retries(self.cfg.retries)
            .observer(observer)
            .cancel_flag(batch_cancel);
        match &self.cache {
            // Share the scheduler's already-open store rather than
            // re-opening the directory: the LSM layout is
            // single-writer per directory, and sharing keeps
            // submission-time hits and batch-time stores on one set
            // of counters.
            Some(cache) => harness = harness.store_backend(cache.backend()),
            None => {
                if let Some(dir) = &self.cfg.cache_dir {
                    harness = harness.cache_dir(dir.clone());
                }
            }
        }
        // Always resume: the journal accumulates across batches and
        // daemon restarts, so completed cells never recompute.
        harness = harness.resume(true);
        let sweep = harness.run(&graph);
        for (cell_id, outcome) in batch.iter().zip(&sweep.outcomes) {
            let resolved = match outcome {
                Outcome::Done {
                    value,
                    cached,
                    duration,
                    ..
                } => CellOutcome::Done(value.clone(), *cached, duration.as_nanos() as u64),
                Outcome::Failed { error, .. } => CellOutcome::Failed(error.clone()),
                Outcome::TimedOut { limit, .. } => {
                    CellOutcome::Failed(format!("timed out after {limit:?}"))
                }
                Outcome::Skipped { failed_dep } => {
                    CellOutcome::Failed(format!("dependency '{failed_dep}' failed"))
                }
                Outcome::Cancelled => CellOutcome::Cancelled,
            };
            // Usually a no-op: the observer already resolved it live.
            self.resolve_cell(cell_id, resolved, None);
        }
        let mut inner = lock_unpoisoned(&self.inner, "scheduler");
        inner.counters.cell_time_ns += sweep.summary.cell_time.as_nanos() as u64;
        inner.counters.wall_ns += sweep.summary.wall.as_nanos() as u64;
        inner.counters.leaked_threads += sweep.summary.leaked_threads as u64;
        inner.counters.retried_cells += sweep.summary.retried.len() as u64;
        inner.counters.retry_attempts += sweep
            .outcomes
            .iter()
            .map(|o| o.retries().len() as u64)
            .sum::<u64>();
    }

    /// Serves `GET /cells/{id}` — a pure cache read, never a
    /// computation.
    ///
    /// # Errors
    ///
    /// Unknown cell ids are errors; a known-but-uncached cell returns
    /// `Ok(None)`.
    pub fn cached_cell(&self, cell_id: &str) -> Result<Option<Value>, String> {
        let cell = self
            .catalog
            .get(cell_id)
            .ok_or_else(|| format!("cell {cell_id} is not in this server's experiment matrix"))?;
        Ok(self.cache.as_ref().and_then(|c| c.load(&cell.cache_key())))
    }

    /// A snapshot of the scheduling counters.
    pub fn counters(&self) -> Counters {
        lock_unpoisoned(&self.inner, "scheduler").counters
    }

    /// The `GET /metrics` document.
    pub fn metrics(&self) -> Value {
        let inner = lock_unpoisoned(&self.inner, "scheduler");
        let c = inner.counters;
        let utilization = if c.wall_ns > 0 {
            c.cell_time_ns as f64 / (c.wall_ns as f64 * self.cfg.jobs.max(1) as f64)
        } else {
            0.0
        };
        let cache_stats = self.cache.as_ref().map(|c| c.stats()).unwrap_or_default();
        let graph_stats = scu_algos::graph_artifact::stats();
        let store_stats = self
            .cache
            .as_ref()
            .map(|c| c.store_stats())
            .unwrap_or_default();
        let load = Self::load_state_of(&inner, self.cfg.max_pending_cells);
        Value::Object(vec![
            (
                "uptime_secs".to_string(),
                Value::F64(self.started.elapsed().as_secs_f64()),
            ),
            (
                "matrix_cells".to_string(),
                Value::U64(self.catalog.len() as u64),
            ),
            ("workers".to_string(), Value::U64(self.cfg.jobs as u64)),
            ("busy".to_string(), Value::Bool(inner.busy)),
            (
                "queue_depth".to_string(),
                Value::U64(inner.pending.len() as u64),
            ),
            (
                "inflight".to_string(),
                Value::U64(inner.inflight.len() as u64),
            ),
            ("sweeps".to_string(), Value::U64(c.sweeps)),
            ("cells_requested".to_string(), Value::U64(c.cells_requested)),
            ("cache_hits".to_string(), Value::U64(c.cache_hits)),
            ("coalesced".to_string(), Value::U64(c.coalesced)),
            ("scheduled".to_string(), Value::U64(c.scheduled)),
            ("computed".to_string(), Value::U64(c.computed)),
            ("failed".to_string(), Value::U64(c.failed)),
            ("cancelled".to_string(), Value::U64(c.cancelled)),
            ("batches".to_string(), Value::U64(c.batches)),
            (
                "cache_loads".to_string(),
                Value::U64(cache_stats.hits + cache_stats.misses),
            ),
            (
                "quarantined".to_string(),
                Value::U64(cache_stats.quarantined),
            ),
            (
                "quarantined_total".to_string(),
                Value::U64(cache_stats.quarantined_total),
            ),
            ("store_backend".to_string(), Value::Str("lsm".to_string())),
            (
                "wal_appends".to_string(),
                Value::U64(store_stats.wal_appends),
            ),
            (
                "segment_reads".to_string(),
                Value::U64(store_stats.segment_reads),
            ),
            (
                "compactions".to_string(),
                Value::U64(store_stats.compactions),
            ),
            (
                "recovered_records".to_string(),
                Value::U64(store_stats.recovered_records),
            ),
            (
                "truncated_tail_bytes".to_string(),
                Value::U64(store_stats.truncated_tail_bytes),
            ),
            // Graph artifact store: mmap'd build-once CSR files. A
            // healthy warm daemon shows hits rising and builds flat;
            // quarantined > 0 means on-disk artifacts failed their
            // digest and were rebuilt (bytes unaffected, only time).
            (
                "graph_artifact_hits".to_string(),
                Value::U64(graph_stats.hits),
            ),
            (
                "graph_artifact_misses".to_string(),
                Value::U64(graph_stats.misses),
            ),
            (
                "graph_artifact_builds".to_string(),
                Value::U64(graph_stats.builds),
            ),
            (
                "graph_artifact_quarantined".to_string(),
                Value::U64(graph_stats.quarantined),
            ),
            ("worker_utilization".to_string(), Value::F64(utilization)),
            ("load".to_string(), Value::Str(load.to_string())),
            (
                "pending_cap".to_string(),
                Value::U64(self.cfg.max_pending_cells as u64),
            ),
            ("rejected_sweeps".to_string(), Value::U64(c.rejected_sweeps)),
            (
                "deadline_expired".to_string(),
                Value::U64(c.deadline_expired),
            ),
            (
                "disconnected_streams".to_string(),
                Value::U64(c.disconnected_streams),
            ),
            ("leaked_threads".to_string(), Value::U64(c.leaked_threads)),
            ("retried_cells".to_string(), Value::U64(c.retried_cells)),
            ("retry_attempts".to_string(), Value::U64(c.retry_attempts)),
        ])
    }

    /// Uptime for `GET /healthz`.
    pub fn uptime_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Coarse load state for `/healthz` and `/metrics`: `ok`, `busy`
    /// (a batch is running or cells are queued), `overloaded` (the
    /// admission cap is rejecting submissions), or `draining`
    /// (shutdown in progress).
    pub fn load_state(&self) -> &'static str {
        let inner = lock_unpoisoned(&self.inner, "scheduler");
        Self::load_state_of(&inner, self.cfg.max_pending_cells)
    }

    fn load_state_of(inner: &Inner, cap: usize) -> &'static str {
        if inner.shutdown {
            "draining"
        } else if inner.pending.len() >= cap {
            "overloaded"
        } else if inner.busy || !inner.pending.is_empty() {
            "busy"
        } else {
            "ok"
        }
    }

    /// Drains and stops the dispatcher: the running batch's in-flight
    /// cells finish (and reach the cache and journal), everything else
    /// resolves `cancelled`, and the dispatcher thread is joined.
    /// Idempotent.
    pub fn shutdown(&self) {
        {
            let mut inner = lock_unpoisoned(&self.inner, "scheduler");
            inner.shutdown = true;
            if let Some(flag) = &inner.batch_cancel {
                flag.store(true, Ordering::SeqCst);
            }
        }
        self.stopping.store(true, Ordering::SeqCst);
        self.wake.notify_all();
        let handle = lock_unpoisoned(&self.dispatcher, "dispatcher handle").take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
        let handle = lock_unpoisoned(&self.watcher, "deadline watcher handle").take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        // A dropped scheduler whose dispatcher still runs would leak
        // the thread; shutdown() is idempotent and joins it.
        self.shutdown();
    }
}
