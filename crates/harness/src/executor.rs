//! The parallel executor: a fixed pool of worker threads draining a
//! dependency-ordered ready queue.
//!
//! `crossbeam`/`parking_lot` are unavailable in this offline build, so
//! the pool is built on `std::sync` — one `Mutex<SchedState>` +
//! `Condvar` protects the ready queue, the indegree counts and the
//! unfinished counter together, which rules out the classic lost-
//! wakeup between "queue looked empty" and "last job finished".
//!
//! Determinism: each job owns its inputs and its work closure is pure,
//! so the *values* produced are independent of scheduling; outcomes
//! are recorded into a slot vector indexed by [`JobId`], so the
//! returned order is insertion order regardless of completion order.
//! Running with one worker or sixteen yields byte-identical results.
//!
//! Fault isolation and recovery, layered per job:
//!
//! 1. **Resume** — with a resume map (journaled completions from an
//!    interrupted sweep), a matching job is pre-resolved without
//!    running.
//! 2. **Cache** — a content-addressed hit short-circuits execution.
//! 3. **Retry** — a panicking or timed-out attempt is retried up to
//!    [`ExecOptions::retries`] times with capped exponential backoff;
//!    every failed attempt is recorded in the outcome's history.
//! 4. **Isolation** — the final panic is caught with `catch_unwind`
//!    and reported as [`Outcome::Failed`]; transitive dependents become
//!    [`Outcome::Skipped`]; everything else proceeds.
//!
//! Timeouts: with a configured budget the job runs on a dedicated
//! thread; on expiry the thread is *abandoned* (threads cannot be
//! killed safely) and the worker moves on — pool capacity is restored
//! immediately because the worker itself never ran the cell. Abandoned
//! threads are tracked: those that finish before the sweep ends are
//! joined (reclaimed), the rest are counted as
//! [`ExecResult::leaked_threads`] so a sweep that shed threads says so
//! in its summary instead of leaking silently.
//!
//! Cancellation: when the cancel flag rises (SIGINT), workers finish
//! their in-flight jobs — completions still reach the journal — and
//! stop drawing new ones; never-started jobs report
//! [`Outcome::Cancelled`].

use std::collections::HashMap;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use scu_store::{JournalRecord, LsmStore};
use serde_json::Value;

use crate::cache::ResultCache;
use crate::error::lock_unpoisoned;
use crate::job::{Attempt, Job, JobGraph, JobId, Outcome};
use crate::progress::Progress;

/// Executor knobs.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Worker threads; clamped to `1..=graph.len()`.
    pub jobs: usize,
    /// Per-job wall-clock budget; `None` disables the watchdog and
    /// runs jobs inline on the workers.
    pub timeout: Option<Duration>,
    /// Retries after a failed or timed-out attempt (0 = single shot).
    pub retries: u32,
    /// Base backoff slept after the first failed attempt; doubles per
    /// attempt, capped at [`ExecOptions::backoff_cap`].
    pub backoff: Duration,
    /// Upper bound on a single backoff sleep.
    pub backoff_cap: Duration,
    /// Treat a resumed cell's timeline-digest mismatch as a failure
    /// instead of a warning (the `--strict-resume` flag). CI uses this
    /// to turn silent model/config divergence into a non-zero exit.
    pub strict_resume: bool,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            jobs: default_jobs(),
            timeout: None,
            retries: 0,
            backoff: Duration::from_millis(100),
            backoff_cap: Duration::from_secs(2),
            strict_resume: false,
        }
    }
}

/// The sweep's retry pacing: `base · 2^prior`, saturating, never above
/// `cap`. `prior` is how many attempts have already failed (0 for the
/// first retry). Shared by the executor's cell retries and the HTTP
/// client's transient-error retries so both back off identically.
pub fn capped_backoff(base: Duration, cap: Duration, prior_attempts: usize) -> Duration {
    base.saturating_mul(1u32 << prior_attempts.min(16)).min(cap)
}

/// Everything the executor consults besides the graph itself.
#[derive(Default)]
pub struct ExecContext<'a> {
    /// Content-addressed result cache, if caching is on.
    pub cache: Option<&'a ResultCache>,
    /// Store whose write-ahead log journals each completion, if
    /// journaling is on.
    pub journal: Option<&'a LsmStore>,
    /// Journaled completions from an interrupted sweep, keyed by
    /// [`JournalRecord::resume_key`].
    pub resume: Option<&'a HashMap<String, Value>>,
    /// Timeline digests from the interrupted sweep's journal, keyed by
    /// job id. A cell that *re-runs* during a resumed sweep (its cache
    /// key changed, so the resume map missed it) is cross-checked
    /// against the digest journaled for the same id; a mismatch warns,
    /// or fails the cell under [`ExecOptions::strict_resume`].
    pub resume_digests: Option<&'a HashMap<String, u64>>,
    /// Rises when the sweep should drain and stop (SIGINT).
    pub cancel: Option<&'a AtomicBool>,
}

/// What a finished (or drained) execution produced.
#[derive(Debug)]
pub struct ExecResult {
    /// Per-job outcomes in insertion order.
    pub outcomes: Vec<Outcome>,
    /// Timed-out worker threads still running when the sweep ended.
    pub leaked_threads: usize,
}

/// The machine's available parallelism (1 if unknown).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The worker count for a sweep: `jobs`, clamped to `1..=graph_len`.
pub fn effective_workers(jobs: usize, graph_len: usize) -> usize {
    jobs.clamp(1, graph_len.max(1))
}

struct SchedState {
    ready: VecDeque<JobId>,
    indegree: Vec<usize>,
    unfinished: usize,
}

/// A cell thread abandoned by the timeout watchdog: joinable once
/// `finished` rises, leaked if the sweep ends first.
struct Abandoned {
    handle: std::thread::JoinHandle<()>,
    finished: Arc<AtomicBool>,
}

struct Scheduler<'g> {
    graph: &'g JobGraph,
    dependents: Vec<Vec<JobId>>,
    state: Mutex<SchedState>,
    cv: Condvar,
    results: Mutex<Vec<Option<Outcome>>>,
    abandoned: Mutex<Vec<Abandoned>>,
}

impl<'g> Scheduler<'g> {
    fn new(graph: &'g JobGraph) -> Self {
        let n = graph.len();
        let mut dependents = vec![Vec::new(); n];
        let mut indegree = vec![0usize; n];
        for (id, job) in graph.jobs().iter().enumerate() {
            indegree[id] = job.deps.len();
            for &d in &job.deps {
                dependents[d].push(id);
            }
        }
        let ready: VecDeque<JobId> = (0..n).filter(|&i| indegree[i] == 0).collect();
        Scheduler {
            graph,
            dependents,
            state: Mutex::new(SchedState {
                ready,
                indegree,
                unfinished: n,
            }),
            cv: Condvar::new(),
            results: Mutex::new(vec![None; n]),
            abandoned: Mutex::new(Vec::new()),
        }
    }

    /// Blocks until a job is ready, everything is finished, or the
    /// sweep is cancelled.
    fn next_job(&self, cancel: Option<&AtomicBool>) -> Option<JobId> {
        let cancelled = || cancel.is_some_and(|c| c.load(Ordering::SeqCst));
        let mut state = lock_unpoisoned(&self.state, "scheduler state");
        loop {
            if cancelled() {
                return None;
            }
            if let Some(id) = state.ready.pop_front() {
                return Some(id);
            }
            if state.unfinished == 0 {
                return None;
            }
            // A bounded wait keeps draining responsive to a cancel
            // raised while every worker is parked.
            let (guard, _timeout) = self
                .cv
                .wait_timeout(state, Duration::from_millis(50))
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            state = guard;
        }
    }

    /// Records an outcome and releases any newly-ready dependents.
    fn record(&self, id: JobId, outcome: Outcome) {
        // Results first: a dependent reading its deps must find them.
        lock_unpoisoned(&self.results, "results")[id] = Some(outcome);
        let mut state = lock_unpoisoned(&self.state, "scheduler state");
        state.unfinished -= 1;
        for &d in &self.dependents[id] {
            state.indegree[d] -= 1;
            if state.indegree[d] == 0 {
                state.ready.push_back(d);
            }
        }
        drop(state);
        self.cv.notify_all();
    }

    /// The id of the first dependency that did not complete, if any.
    fn failed_dep(&self, job: &Job) -> Option<String> {
        let results = lock_unpoisoned(&self.results, "results");
        for &d in &job.deps {
            let dep_done = results[d].as_ref().is_some_and(Outcome::is_done);
            if !dep_done {
                return Some(self.graph.jobs()[d].id.clone());
            }
        }
        None
    }

    /// Reclaims abandoned cell threads that finished on their own;
    /// returns how many are still running (leaked).
    fn sweep_abandoned(&self) -> usize {
        let mut abandoned = lock_unpoisoned(&self.abandoned, "abandoned threads");
        let mut leaked = 0usize;
        for a in abandoned.drain(..) {
            if a.finished.load(Ordering::SeqCst) {
                let _ = a.handle.join();
            } else {
                leaked += 1;
                // Dropping the handle detaches the thread; its closure
                // Arc keeps the environment alive until it returns.
            }
        }
        leaked
    }
}

/// Runs every job in `graph`, returning outcomes in insertion order
/// plus the count of threads the timeout watchdog had to shed.
pub fn execute(
    graph: &JobGraph,
    ctx: &ExecContext<'_>,
    opts: &ExecOptions,
    progress: &Progress,
) -> ExecResult {
    if graph.is_empty() {
        return ExecResult {
            outcomes: Vec::new(),
            leaked_threads: 0,
        };
    }
    let workers = effective_workers(opts.jobs, graph.len());
    let sched = Scheduler::new(graph);
    std::thread::scope(|scope| {
        for w in 0..workers {
            let sched = &sched;
            std::thread::Builder::new()
                .name(format!("scu-harness-{w}"))
                .spawn_scoped(scope, move || {
                    while let Some(id) = sched.next_job(ctx.cancel) {
                        let job = &sched.graph.jobs()[id];
                        let outcome = run_one(job, ctx, opts, sched);
                        progress.job_finished(&job.id, &outcome);
                        sched.record(id, outcome);
                    }
                })
                .expect("spawning worker thread");
        }
    });
    let leaked_threads = sched.sweep_abandoned();
    let outcomes = lock_unpoisoned(&sched.results, "results")
        .iter_mut()
        .map(|slot| slot.take().unwrap_or(Outcome::Cancelled))
        .collect();
    ExecResult {
        outcomes,
        leaked_threads,
    }
}

fn run_one(job: &Job, ctx: &ExecContext<'_>, opts: &ExecOptions, sched: &Scheduler<'_>) -> Outcome {
    if let Some(failed_dep) = sched.failed_dep(job) {
        return Outcome::Skipped { failed_dep };
    }
    let start = Instant::now();
    if let Some(resume) = ctx.resume {
        let rk = JournalRecord::resume_key(job.cache_key.as_ref(), &job.id);
        if let Some(value) = resume.get(&rk) {
            return Outcome::Done {
                value: value.clone(),
                duration: start.elapsed(),
                cached: true,
                retries: Vec::new(),
            };
        }
    }
    if let (Some(cache), Some(key)) = (ctx.cache, job.cache_key.as_ref()) {
        if let Some(value) = cache.load(key) {
            let outcome = Outcome::Done {
                value,
                duration: start.elapsed(),
                cached: true,
                retries: Vec::new(),
            };
            journal_done(ctx, job, &outcome);
            return outcome;
        }
    }
    let outcome = run_with_retries(job, opts, start, sched);
    if let (Some(digests), Outcome::Done { value, .. }) = (ctx.resume_digests, &outcome) {
        if let (Some(&journaled), Some(fresh)) = (digests.get(&job.id), timeline_digest(value)) {
            if journaled != fresh {
                if opts.strict_resume {
                    // Divergence is an error: the fresh value is
                    // neither cached nor journaled, so the sweep exits
                    // non-zero and nothing records the ambiguous run.
                    return Outcome::Failed {
                        error: format!(
                            "strict resume: re-ran with timeline digest {fresh:016x} but \
                             the interrupted sweep journaled {journaled:016x} (model or \
                             configuration changed between sweeps)"
                        ),
                        retries: Vec::new(),
                    };
                }
                eprintln!(
                    "[scu-harness] warning: cell '{}' re-ran with timeline digest \
                     {fresh:016x} but the interrupted sweep journaled {journaled:016x} \
                     (model or configuration changed between sweeps)",
                    job.id
                );
            }
        }
    }
    if let (Some(cache), Some(key), Outcome::Done { value, .. }) =
        (ctx.cache, job.cache_key.as_ref(), &outcome)
    {
        if let Err(e) = cache.store(key, value) {
            // A write failure degrades caching, not correctness.
            eprintln!("[scu-harness] cache store failed for '{}': {e}", job.id);
        }
    }
    journal_done(ctx, job, &outcome);
    outcome
}

/// The per-cell timeline digest, when the result value carries one.
fn timeline_digest(value: &Value) -> Option<u64> {
    value.get("timeline_digest").and_then(Value::as_u64)
}

/// Appends a completion to the journal, degrading on failure.
fn journal_done(ctx: &ExecContext<'_>, job: &Job, outcome: &Outcome) {
    let (Some(journal), Outcome::Done { value, .. }) = (ctx.journal, outcome) else {
        return;
    };
    let record = JournalRecord {
        key: job.cache_key.clone(),
        id: job.id.clone(),
        value: value.clone(),
        digest: timeline_digest(value),
    };
    if let Err(e) = journal.journal_append(&record) {
        // A short journal only costs recomputation on resume.
        eprintln!("[scu-harness] journal append failed for '{}': {e}", job.id);
    }
}

/// One attempt plus up to `opts.retries` retries with capped
/// exponential backoff; each failed attempt lands in the history.
fn run_with_retries(
    job: &Job,
    opts: &ExecOptions,
    start: Instant,
    sched: &Scheduler<'_>,
) -> Outcome {
    let mut history: Vec<Attempt> = Vec::new();
    loop {
        let attempt = match opts.timeout {
            None => run_inline(job, start),
            Some(limit) => run_with_watchdog(job, start, limit, Some(sched)),
        };
        let error = match &attempt {
            Outcome::Done {
                value,
                duration,
                cached,
                ..
            } => {
                return Outcome::Done {
                    value: value.clone(),
                    duration: *duration,
                    cached: *cached,
                    retries: history,
                };
            }
            Outcome::Failed { error, .. } => error.clone(),
            Outcome::TimedOut { limit, .. } => {
                format!("timed out after {:.3} s", limit.as_secs_f64())
            }
            Outcome::Skipped { .. } | Outcome::Cancelled => unreachable!("attempts run"),
        };
        if history.len() as u32 >= opts.retries {
            return match attempt {
                Outcome::Failed { error, .. } => Outcome::Failed {
                    error,
                    retries: history,
                },
                Outcome::TimedOut { limit, .. } => Outcome::TimedOut {
                    limit,
                    retries: history,
                },
                _ => unreachable!("non-done attempt"),
            };
        }
        let backoff = capped_backoff(opts.backoff, opts.backoff_cap, history.len());
        history.push(Attempt { error, backoff });
        std::thread::sleep(backoff);
    }
}

fn run_inline(job: &Job, start: Instant) -> Outcome {
    let work = &job.work;
    match catch_unwind(AssertUnwindSafe(|| work())) {
        Ok(value) => Outcome::Done {
            value,
            duration: start.elapsed(),
            cached: false,
            retries: Vec::new(),
        },
        Err(payload) => Outcome::Failed {
            error: panic_message(payload.as_ref()),
            retries: Vec::new(),
        },
    }
}

fn run_with_watchdog(
    job: &Job,
    start: Instant,
    limit: Duration,
    sched: Option<&Scheduler<'_>>,
) -> Outcome {
    let work = job.work.clone();
    let finished = Arc::new(AtomicBool::new(false));
    let done_flag = Arc::clone(&finished);
    let (tx, rx) = std::sync::mpsc::channel::<Result<Value, String>>();
    let spawned = std::thread::Builder::new()
        .name(format!("scu-cell-{}", job.id))
        .spawn(move || {
            let result =
                catch_unwind(AssertUnwindSafe(|| work())).map_err(|p| panic_message(p.as_ref()));
            // The receiver may have timed out and gone away.
            let _ = tx.send(result);
            done_flag.store(true, Ordering::SeqCst);
        });
    let handle = match spawned {
        Ok(h) => h,
        // Could not get a watchdog thread; run inline instead of
        // failing the cell (the timeout is advisory, the result not).
        Err(_) => return run_inline(job, start),
    };
    match rx.recv_timeout(limit) {
        Ok(Ok(value)) => {
            let _ = handle.join();
            Outcome::Done {
                value,
                duration: start.elapsed(),
                cached: false,
                retries: Vec::new(),
            }
        }
        Ok(Err(error)) => {
            let _ = handle.join();
            Outcome::Failed {
                error,
                retries: Vec::new(),
            }
        }
        Err(RecvTimeoutError::Timeout) => {
            // Abandon the cell thread — it cannot be killed — but track
            // it so the sweep can reclaim or count it at the end.
            if let Some(sched) = sched {
                lock_unpoisoned(&sched.abandoned, "abandoned threads")
                    .push(Abandoned { handle, finished });
            }
            Outcome::TimedOut {
                limit,
                retries: Vec::new(),
            }
        }
        Err(RecvTimeoutError::Disconnected) => Outcome::Failed {
            error: "cell thread vanished without reporting".to_string(),
            retries: Vec::new(),
        },
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Job;
    use crate::progress::Progress;
    use std::sync::atomic::AtomicU32;

    fn silent() -> Progress {
        Progress::silent(0)
    }

    fn run(graph: &JobGraph, jobs: usize) -> Vec<Outcome> {
        execute(
            graph,
            &ExecContext::default(),
            &ExecOptions {
                jobs,
                ..ExecOptions::default()
            },
            &silent(),
        )
        .outcomes
    }

    #[test]
    fn outcomes_are_in_insertion_order_regardless_of_parallelism() {
        let build = || {
            let mut g = JobGraph::new();
            for i in 0..40u64 {
                // Reverse sleep pattern: later jobs finish earlier.
                g.push(Job::new(format!("job-{i}"), move || {
                    std::thread::sleep(Duration::from_micros(40 - i));
                    Value::U64(i * i)
                }));
            }
            g
        };
        let seq: Vec<Outcome> = run(&build(), 1);
        let par: Vec<Outcome> = run(&build(), 8);
        let values = |v: &[Outcome]| -> Vec<Value> {
            v.iter().map(|o| o.value().unwrap().clone()).collect()
        };
        assert_eq!(values(&seq), values(&par));
        assert_eq!(values(&seq)[3], Value::U64(9));
    }

    #[test]
    fn panicking_job_fails_alone() {
        let mut g = JobGraph::new();
        g.push(Job::new("ok-1", || Value::U64(1)));
        g.push(Job::new("bad", || panic!("deliberate cell failure")));
        g.push(Job::new("ok-2", || Value::U64(2)));
        let out = run(&g, 4);
        assert!(out[0].is_done());
        assert!(matches!(&out[1], Outcome::Failed { error, .. } if error.contains("deliberate")));
        assert!(out[2].is_done());
    }

    #[test]
    fn dependencies_run_in_order_and_failures_cascade_to_skips() {
        let mut g = JobGraph::new();
        let a = g.push(Job::new("a", || Value::U64(1)));
        let b = g.push(Job::new("b", || panic!("boom")));
        let c = g.push(Job::new("c", move || Value::U64(3)).after(&[a]));
        let d = g.push(Job::new("d", move || Value::U64(4)).after(&[b]));
        let e = g.push(Job::new("e", move || Value::U64(5)).after(&[d]));
        let out = run(&g, 4);
        assert!(out[a].is_done() && out[c].is_done());
        assert!(matches!(out[b], Outcome::Failed { .. }));
        assert!(matches!(&out[d], Outcome::Skipped { failed_dep } if failed_dep == "b"));
        assert!(matches!(&out[e], Outcome::Skipped { failed_dep } if failed_dep == "d"));
    }

    #[test]
    fn timeout_marks_cell_without_aborting_sweep_and_counts_the_leak() {
        let mut g = JobGraph::new();
        g.push(Job::new("slow", || {
            std::thread::sleep(Duration::from_secs(5));
            Value::Null
        }));
        g.push(Job::new("fast", || Value::U64(7)));
        let opts = ExecOptions {
            jobs: 2,
            timeout: Some(Duration::from_millis(30)),
            ..ExecOptions::default()
        };
        let result = execute(&g, &ExecContext::default(), &opts, &silent());
        assert!(matches!(result.outcomes[0], Outcome::TimedOut { .. }));
        assert_eq!(result.outcomes[1].value(), Some(&Value::U64(7)));
        assert_eq!(
            result.leaked_threads, 1,
            "the abandoned 5 s cell thread outlives the sweep"
        );
    }

    #[test]
    fn abandoned_thread_that_finishes_is_reclaimed_not_leaked() {
        let mut g = JobGraph::new();
        g.push(Job::new("brief-overrun", || {
            std::thread::sleep(Duration::from_millis(60));
            Value::Null
        }));
        // Enough in-budget jobs to keep the sweep alive past the
        // abandoned cell's 60 ms, so it finishes and can be joined.
        for i in 0..10u64 {
            g.push(Job::new(format!("quick-{i}"), move || {
                std::thread::sleep(Duration::from_millis(15));
                Value::U64(i)
            }));
        }
        let opts = ExecOptions {
            jobs: 1,
            timeout: Some(Duration::from_millis(30)),
            ..ExecOptions::default()
        };
        let result = execute(&g, &ExecContext::default(), &opts, &silent());
        assert!(matches!(result.outcomes[0], Outcome::TimedOut { .. }));
        assert_eq!(result.leaked_threads, 0, "finished strays are joined");
    }

    #[test]
    fn transient_failure_is_retried_then_ok_with_history() {
        let flakes = Arc::new(AtomicU32::new(0));
        let f = Arc::clone(&flakes);
        let mut g = JobGraph::new();
        g.push(Job::new("flaky", move || {
            if f.fetch_add(1, Ordering::SeqCst) < 2 {
                panic!("transient fault");
            }
            Value::U64(42)
        }));
        let opts = ExecOptions {
            jobs: 1,
            retries: 3,
            backoff: Duration::from_millis(1),
            ..ExecOptions::default()
        };
        let out = execute(&g, &ExecContext::default(), &opts, &silent()).outcomes;
        assert!(out[0].was_retried());
        assert_eq!(out[0].value(), Some(&Value::U64(42)));
        let history = out[0].retries();
        assert_eq!(history.len(), 2);
        assert!(history.iter().all(|a| a.error.contains("transient")));
        // Exponential: second backoff doubles the first.
        assert_eq!(history[1].backoff, history[0].backoff * 2);
    }

    #[test]
    fn permanent_failure_exhausts_retries_and_keeps_history() {
        let mut g = JobGraph::new();
        g.push(Job::new("doomed", || panic!("always broken")));
        let opts = ExecOptions {
            jobs: 1,
            retries: 2,
            backoff: Duration::from_millis(1),
            ..ExecOptions::default()
        };
        let out = execute(&g, &ExecContext::default(), &opts, &silent()).outcomes;
        match &out[0] {
            Outcome::Failed { error, retries } => {
                assert!(error.contains("always broken"));
                assert_eq!(retries.len(), 2, "two failed attempts precede the verdict");
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn backoff_is_capped() {
        let opts = ExecOptions {
            backoff: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(2),
            retries: 6,
            jobs: 1,
            ..ExecOptions::default()
        };
        let mut g = JobGraph::new();
        g.push(Job::new("doomed", || panic!("nope")));
        let out = execute(&g, &ExecContext::default(), &opts, &silent()).outcomes;
        let history = out[0].retries();
        assert_eq!(history.len(), 6);
        assert!(history
            .iter()
            .all(|a| a.backoff <= Duration::from_millis(2)));
    }

    #[test]
    fn cancel_drains_in_flight_and_marks_the_rest_cancelled() {
        let cancel = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&cancel);
        let mut g = JobGraph::new();
        g.push(Job::new("trigger", move || {
            flag.store(true, Ordering::SeqCst);
            Value::U64(1)
        }));
        for i in 1..5u64 {
            g.push(Job::new(format!("never-{i}"), move || Value::U64(i)));
        }
        let ctx = ExecContext {
            cancel: Some(&cancel),
            ..ExecContext::default()
        };
        let out = execute(
            &g,
            &ctx,
            &ExecOptions {
                jobs: 1,
                ..ExecOptions::default()
            },
            &silent(),
        )
        .outcomes;
        assert!(out[0].is_done(), "in-flight job drains to completion");
        for o in &out[1..] {
            assert_eq!(o, &Outcome::Cancelled);
        }
    }

    #[test]
    fn resume_map_pre_resolves_without_running() {
        let ran = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&ran);
        let key = Value::Str("resume-key".into());
        let mut g = JobGraph::new();
        g.push(
            Job::new("resumable", move || {
                flag.store(true, Ordering::SeqCst);
                Value::U64(0)
            })
            .with_cache_key(key.clone()),
        );
        let mut resume = HashMap::new();
        resume.insert(
            JournalRecord::resume_key(Some(&key), "resumable"),
            Value::U64(99),
        );
        let ctx = ExecContext {
            resume: Some(&resume),
            ..ExecContext::default()
        };
        let out = execute(&g, &ctx, &ExecOptions::default(), &silent()).outcomes;
        assert_eq!(out[0].value(), Some(&Value::U64(99)));
        assert!(out[0].is_cached());
        assert!(!ran.load(Ordering::SeqCst), "journaled cell must not rerun");
    }

    #[test]
    fn rerun_cell_with_mismatched_journal_digest_warns_but_completes() {
        // The cell's cache key changed between sweeps (e.g. a model
        // bump), so the resume map misses and it re-runs; its fresh
        // digest disagrees with the journaled one. The outcome must
        // still be Done — the mismatch is diagnostic only.
        let mut g = JobGraph::new();
        g.push(
            Job::new("cell", || {
                Value::Object(vec![("timeline_digest".into(), Value::U64(0xbeef))])
            })
            .with_cache_key(Value::Str("new-model-key".into())),
        );
        let resume = HashMap::new(); // no resume match -> re-run
        let mut digests = HashMap::new();
        digests.insert("cell".to_string(), 0xdeadu64);
        let ctx = ExecContext {
            resume: Some(&resume),
            resume_digests: Some(&digests),
            ..ExecContext::default()
        };
        let out = execute(&g, &ctx, &ExecOptions::default(), &silent()).outcomes;
        assert!(out[0].is_done(), "digest mismatch must not fail the cell");
        assert!(!out[0].is_cached());
    }

    #[test]
    fn strict_resume_fails_the_cell_on_digest_mismatch() {
        let mut g = JobGraph::new();
        g.push(
            Job::new("cell", || {
                Value::Object(vec![("timeline_digest".into(), Value::U64(0xbeef))])
            })
            .with_cache_key(Value::Str("new-model-key".into())),
        );
        let resume = HashMap::new();
        let mut digests = HashMap::new();
        digests.insert("cell".to_string(), 0xdeadu64);
        let ctx = ExecContext {
            resume: Some(&resume),
            resume_digests: Some(&digests),
            ..ExecContext::default()
        };
        let opts = ExecOptions {
            strict_resume: true,
            ..ExecOptions::default()
        };
        let out = execute(&g, &ctx, &opts, &silent()).outcomes;
        match &out[0] {
            Outcome::Failed { error, .. } => {
                assert!(error.contains("strict resume"), "got: {error}");
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        // A matching digest passes untouched under strict mode.
        digests.insert("cell".to_string(), 0xbeefu64);
        let ctx = ExecContext {
            resume: Some(&resume),
            resume_digests: Some(&digests),
            ..ExecContext::default()
        };
        let out = execute(&g, &ctx, &opts, &silent()).outcomes;
        assert!(out[0].is_done());
    }

    #[test]
    fn capped_backoff_doubles_then_saturates() {
        let base = Duration::from_millis(100);
        let cap = Duration::from_secs(2);
        assert_eq!(capped_backoff(base, cap, 0), Duration::from_millis(100));
        assert_eq!(capped_backoff(base, cap, 1), Duration::from_millis(200));
        assert_eq!(capped_backoff(base, cap, 2), Duration::from_millis(400));
        assert_eq!(capped_backoff(base, cap, 5), cap);
        // The shift itself is clamped: absurd attempt counts stay at cap.
        assert_eq!(capped_backoff(base, cap, 10_000), cap);
    }

    #[test]
    fn cache_round_trip_through_executor() {
        let dir =
            std::env::temp_dir().join(format!("scu-harness-exec-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::open(&dir).unwrap();
        let key = Value::Str("cell-key".into());
        let build = |key: Value| {
            let mut g = JobGraph::new();
            g.push(Job::new("cell", || Value::U64(99)).with_cache_key(key));
            g
        };
        let ctx = ExecContext {
            cache: Some(&cache),
            ..ExecContext::default()
        };
        let first = execute(
            &build(key.clone()),
            &ctx,
            &ExecOptions::default(),
            &silent(),
        )
        .outcomes;
        assert!(first[0].is_done() && !first[0].is_cached());
        let second = execute(&build(key), &ctx, &ExecOptions::default(), &silent()).outcomes;
        assert!(second[0].is_cached());
        assert_eq!(second[0].value(), first[0].value());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_records_completions_as_they_happen() {
        let dir = std::env::temp_dir().join(format!("scu-harness-exec-jnl-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = LsmStore::open(&dir).unwrap();
        store.begin_sweep(false).unwrap();
        let mut g = JobGraph::new();
        g.push(Job::new("ok", || Value::U64(5)).with_cache_key(Value::U64(1)));
        g.push(Job::new("bad", || panic!("no journal entry for me")));
        let ctx = ExecContext {
            journal: Some(&store),
            ..ExecContext::default()
        };
        execute(&g, &ctx, &ExecOptions::default(), &silent());
        let values = store.resume_state().unwrap().values;
        assert_eq!(values.len(), 1, "only completions are journaled");
        assert_eq!(
            values.get(&JournalRecord::resume_key(Some(&Value::U64(1)), "ok")),
            Some(&Value::U64(5))
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_graph_is_a_no_op() {
        assert!(run(&JobGraph::new(), 4).is_empty());
    }

    #[test]
    fn effective_workers_clamps_to_graph_len() {
        assert_eq!(effective_workers(8, 100), 8);
        assert_eq!(effective_workers(8, 3), 3);
        assert_eq!(effective_workers(0, 3), 1);
        assert_eq!(effective_workers(4, 0), 1);
    }

    #[test]
    fn oversubscribed_execute_still_completes_all_jobs() {
        let mut g = JobGraph::new();
        for i in 0..6u64 {
            g.push(Job::new(format!("j{i}"), move || Value::U64(i)));
        }
        let opts = ExecOptions {
            jobs: usize::MAX,
            ..ExecOptions::default()
        };
        let out = execute(&g, &ExecContext::default(), &opts, &silent()).outcomes;
        assert_eq!(out.len(), 6);
        assert!(out.iter().all(Outcome::is_done));
    }
}
