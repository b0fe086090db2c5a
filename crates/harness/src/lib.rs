//! # scu-harness — parallel experiment orchestration
//!
//! The reproduction matrix (algorithm × dataset × platform × machine
//! mode) is 150+ independent, deterministic simulator cells. This
//! crate runs them concurrently while keeping the sequential path's
//! guarantees:
//!
//! - **Determinism** — each cell is a pure closure owning its
//!   configuration; outcomes are returned in submission order, so a
//!   run with `--jobs 16` is byte-identical to `--jobs 1`.
//! - **Content-addressed caching** — results are stored keyed by the
//!   canonical cell configuration plus a model-version string; after a
//!   code tweak that bumps the version, only invalidated cells
//!   recompute ([`cache::ResultCache`]). The store's write-ahead log
//!   doubles as the crash-resume journal.
//! - **Fault isolation** — a panicking cell is caught and reported
//!   `FAILED`, a cell over its wall-clock budget `TIMED-OUT`, and
//!   dependents of either are `skipped`; the sweep always completes
//!   and ends with a summary ([`progress::SweepSummary`]).
//!
//! The executor is a fixed worker pool over a single
//! `Mutex`+`Condvar`-protected ready queue (`crossbeam` and
//! `parking_lot` cannot be resolved in this offline environment, and
//! at ~150 cells of milliseconds-to-seconds each, queue contention is
//! noise — the work units dwarf the locking).
//!
//! ```
//! use scu_harness::{Harness, Job, JobGraph};
//! use serde_json::Value;
//!
//! let mut graph = JobGraph::new();
//! for i in 0..4u64 {
//!     graph.push(Job::new(format!("cell-{i}"), move || Value::U64(i * i)));
//! }
//! let sweep = Harness::new().jobs(2).run(&graph);
//! assert!(sweep.summary.all_done());
//! assert_eq!(sweep.outcomes[3].value(), Some(&Value::U64(9)));
//! ```

pub mod cache;
pub mod cancel;
pub mod cli;
pub mod error;
pub mod executor;
pub mod failpoint;
pub mod job;
pub mod progress;
pub mod session;

pub use cache::{GetResult, LsmStore, ResultCache, ResultCacheStats, StoreStats};
pub use cli::CliArgs;
pub use error::HarnessError;
pub use executor::{
    capped_backoff, default_jobs, effective_workers, ExecContext, ExecOptions, ExecResult,
};
pub use job::{Attempt, Job, JobGraph, JobId, Outcome};
pub use progress::{Progress, ProgressEvent, ProgressObserver, SweepSummary};

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything a finished sweep produced.
#[derive(Debug)]
pub struct Sweep {
    /// Per-job outcomes, in [`JobGraph`] insertion order.
    pub outcomes: Vec<Outcome>,
    /// Aggregate counts, failures and timings.
    pub summary: SweepSummary,
    /// Cache activity during the sweep (zeroes when caching is off).
    pub cache_stats: ResultCacheStats,
}

/// Builder-style front door: configure once, run a [`JobGraph`].
#[derive(Clone)]
pub struct Harness {
    jobs: usize,
    cache_dir: Option<PathBuf>,
    store_backend: Option<Arc<LsmStore>>,
    timeout: Option<Duration>,
    narrate: bool,
    progress_file: Option<PathBuf>,
    observer: Option<progress::ProgressObserver>,
    retries: u32,
    backoff: Duration,
    backoff_cap: Duration,
    resume: bool,
    strict_resume: bool,
    handle_sigint: bool,
    cancel_flag: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
}

impl std::fmt::Debug for Harness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Harness")
            .field("jobs", &self.jobs)
            .field("cache_dir", &self.cache_dir)
            .field("store_backend", &self.store_backend.is_some())
            .field("timeout", &self.timeout)
            .field("narrate", &self.narrate)
            .field("progress_file", &self.progress_file)
            .field("observer", &self.observer.is_some())
            .field("retries", &self.retries)
            .field("resume", &self.resume)
            .field("strict_resume", &self.strict_resume)
            .field("handle_sigint", &self.handle_sigint)
            .field("cancel_flag", &self.cancel_flag.is_some())
            .finish()
    }
}

impl Default for Harness {
    fn default() -> Self {
        Harness {
            jobs: default_jobs(),
            cache_dir: None,
            store_backend: None,
            timeout: None,
            narrate: false,
            progress_file: None,
            observer: None,
            retries: 0,
            backoff: Duration::from_millis(100),
            backoff_cap: Duration::from_secs(2),
            resume: false,
            strict_resume: false,
            handle_sigint: false,
            cancel_flag: None,
        }
    }
}

impl Harness {
    /// A harness with default options: all cores, no cache, no
    /// timeout, silent.
    pub fn new() -> Self {
        Harness::default()
    }

    /// Sets the worker-thread count (clamped to at least 1).
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Enables the on-disk result store rooted at `dir`: the result
    /// cache, and the journal that lets an interrupted sweep resume.
    pub fn cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Uses an already-open store as the result cache instead of
    /// opening [`Harness::cache_dir`]. This is how the sweep server
    /// shares one store between its scheduler and every batch harness
    /// — the LSM layout is single-writer per directory, so two
    /// independent opens of the same directory must not happen.
    /// Takes precedence over `cache_dir`.
    pub fn store_backend(mut self, backend: Arc<LsmStore>) -> Self {
        self.store_backend = Some(backend);
        self
    }

    /// Sets the per-cell wall-clock budget.
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Narrates per-cell completions on stderr.
    pub fn narrate(mut self, narrate: bool) -> Self {
        self.narrate = narrate;
        self
    }

    /// Mirrors progress lines into a file (e.g.
    /// `results/reproduce_progress.txt`).
    pub fn progress_file(mut self, path: impl Into<PathBuf>) -> Self {
        self.progress_file = Some(path.into());
        self
    }

    /// Delivers every per-job completion to `observer` as a structured
    /// [`ProgressEvent`], from worker threads — the hook the sweep
    /// server streams to its clients.
    pub fn observer(mut self, observer: progress::ProgressObserver) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Drains the sweep when `flag` rises, exactly like SIGINT does —
    /// in-flight cells finish and reach the journal, unstarted cells
    /// report [`Outcome::Cancelled`] — but scoped to this harness
    /// instead of the process-global signal flag. Takes precedence
    /// over [`Harness::handle_sigint`]'s flag when both are set.
    pub fn cancel_flag(mut self, flag: std::sync::Arc<std::sync::atomic::AtomicBool>) -> Self {
        self.cancel_flag = Some(flag);
        self
    }

    /// Retries failed or timed-out cells up to `retries` times with
    /// capped exponential backoff (library default: 0, single shot).
    pub fn retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// Sets the base backoff (doubles per attempt) and its cap.
    pub fn backoff(mut self, base: Duration, cap: Duration) -> Self {
        self.backoff = base;
        self.backoff_cap = cap;
        self
    }

    /// Pre-resolves jobs already journaled by an interrupted sweep
    /// instead of starting a fresh journal. Needs a mounted store
    /// ([`Harness::cache_dir`] or [`Harness::store_backend`]).
    pub fn resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// Fails (rather than warns) a resumed cell whose re-run timeline
    /// digest disagrees with the journaled one — divergence becomes a
    /// failed cell and a non-zero sweep exit.
    pub fn strict_resume(mut self, strict: bool) -> Self {
        self.strict_resume = strict;
        self
    }

    /// Installs a SIGINT handler for the run: the first Ctrl-C drains
    /// in-flight cells into the journal, the second kills.
    pub fn handle_sigint(mut self, handle: bool) -> Self {
        self.handle_sigint = handle;
        self
    }

    /// Applies the shared CLI flags (`--jobs`, `--no-cache`,
    /// `--timeout-secs`, `--retries`, `--resume`) on top of the current
    /// configuration. `default_cache_dir` is used unless `--no-cache`
    /// was given.
    pub fn apply_cli(mut self, args: &CliArgs, default_cache_dir: impl Into<PathBuf>) -> Self {
        self.jobs = args.jobs.max(1);
        self.timeout = args.timeout;
        self.retries = args.retries;
        self.resume = args.resume;
        self.strict_resume = args.strict_resume;
        self.cache_dir = (!args.no_cache).then(|| default_cache_dir.into());
        self
    }

    /// Runs the graph to completion (or to a drained cancellation).
    ///
    /// Every harness-side failure degrades rather than kills the
    /// sweep: an unusable store runs uncached and unjournaled, an
    /// unreadable resume journal resumes nothing.
    pub fn run(&self, graph: &JobGraph) -> Sweep {
        if self.handle_sigint {
            cancel::install_sigint_handler();
        }
        let cache = match &self.store_backend {
            Some(backend) => Some(ResultCache::from_backend(Arc::clone(backend))),
            None => self
                .cache_dir
                .as_ref()
                .and_then(|dir| match ResultCache::open(dir) {
                    Ok(c) => Some(c),
                    Err(e) => {
                        eprintln!(
                            "[scu-harness] cannot open cache at {}: {e}; running uncached",
                            dir.display()
                        );
                        None
                    }
                }),
        };
        // The store's write-ahead log is the journal: each finished
        // cell is one CRC-framed append, and resume state is replayed
        // from the same bytes as the cache.
        let store = cache.as_ref().map(ResultCache::backend);
        let (resume_map, resume_digests) = match (&store, self.resume) {
            (Some(store), true) => match store.resume_state() {
                Ok(state) => {
                    if !state.values.is_empty() {
                        eprintln!(
                            "[scu-harness] resuming: {} cell(s) already journaled in {}",
                            state.values.len(),
                            store.dir().display()
                        );
                    }
                    (Some(state.values), Some(state.digests))
                }
                Err(e) => {
                    eprintln!("[scu-harness] cannot resume: {e}; starting fresh");
                    (None, None)
                }
            },
            _ => (None, None),
        };
        // A fresh (non-resumed) sweep starts a new epoch, so the
        // journal only ever describes this sweep's completions.
        let journal = store.filter(|store| match store.begin_sweep(self.resume) {
            Ok(()) => true,
            Err(e) => {
                eprintln!("[scu-harness] cannot start the journal: {e}; running unjournaled");
                false
            }
        });
        let mut progress = if self.narrate {
            Progress::stderr(graph.len())
        } else {
            Progress::silent(graph.len())
        };
        if let Some(path) = &self.progress_file {
            match progress.with_file(path) {
                Ok(p) => progress = p,
                Err(e) => {
                    eprintln!(
                        "[scu-harness] cannot write progress to {}: {e}",
                        path.display()
                    );
                    progress = if self.narrate {
                        Progress::stderr(graph.len())
                    } else {
                        Progress::silent(graph.len())
                    };
                }
            }
        }
        if let Some(observer) = &self.observer {
            progress = progress.with_observer(std::sync::Arc::clone(observer));
        }
        let opts = ExecOptions {
            jobs: self.jobs,
            timeout: self.timeout,
            retries: self.retries,
            backoff: self.backoff,
            backoff_cap: self.backoff_cap,
            strict_resume: self.strict_resume,
        };
        let ctx = ExecContext {
            cache: cache.as_ref(),
            journal: journal.as_deref(),
            resume: resume_map.as_ref(),
            resume_digests: resume_digests.as_ref(),
            cancel: match (&self.cancel_flag, self.handle_sigint) {
                (Some(flag), _) => Some(flag.as_ref()),
                (None, true) => Some(cancel::flag()),
                (None, false) => None,
            },
        };
        let start = Instant::now();
        let result = executor::execute(graph, &ctx, &opts, &progress);
        let summary = SweepSummary::new(
            graph,
            &result.outcomes,
            start.elapsed(),
            result.leaked_threads,
        );
        let cache_stats = cache.map(|c| c.stats()).unwrap_or_default();
        Sweep {
            outcomes: result.outcomes,
            summary,
            cache_stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("scu-harness-lib-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn cell_graph() -> JobGraph {
        let mut g = JobGraph::new();
        for i in 0..6u64 {
            let key = Value::Object(vec![
                ("cell".to_string(), Value::U64(i)),
                ("model".to_string(), Value::Str("v1".into())),
            ]);
            g.push(Job::new(format!("cell-{i}"), move || Value::U64(i + 100)).with_cache_key(key));
        }
        g
    }

    #[test]
    fn warm_cache_serves_every_cell() {
        let dir = scratch("warm");
        let harness = Harness::new().jobs(4).cache_dir(&dir);
        let cold = harness.run(&cell_graph());
        assert!(cold.summary.all_done());
        assert_eq!(cold.summary.cached, 0);
        assert_eq!(cold.cache_stats.stores, 6);
        let warm = harness.run(&cell_graph());
        assert!(warm.summary.fully_cached());
        assert_eq!(warm.cache_stats.hits, 6);
        let values = |s: &Sweep| -> Vec<Value> {
            s.outcomes
                .iter()
                .map(|o| o.value().unwrap().clone())
                .collect()
        };
        assert_eq!(values(&cold), values(&warm));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let seq = Harness::new().jobs(1).run(&cell_graph());
        let par = Harness::new().jobs(6).run(&cell_graph());
        assert_eq!(seq.outcomes.len(), par.outcomes.len());
        for (a, b) in seq.outcomes.iter().zip(&par.outcomes) {
            assert_eq!(a.value(), b.value());
        }
    }

    #[test]
    fn apply_cli_respects_no_cache() {
        let args = CliArgs::parse([
            "--no-cache".to_string(),
            "--jobs".to_string(),
            "2".to_string(),
        ])
        .unwrap();
        let h = Harness::new().apply_cli(&args, "unused-cache-dir");
        assert_eq!(h.jobs, 2);
        assert!(h.cache_dir.is_none(), "--no-cache mounts no store");
        let with_cache =
            Harness::new().apply_cli(&CliArgs::parse(Vec::<String>::new()).unwrap(), "some-dir");
        assert_eq!(
            with_cache.cache_dir.as_deref(),
            Some(std::path::Path::new("some-dir"))
        );
    }

    #[test]
    fn manifest_then_resume_serves_journaled_cells() {
        let dir = scratch("resume");
        let first = Harness::new().jobs(2).cache_dir(&dir).run(&cell_graph());
        assert!(first.summary.all_done());
        let resumed = Harness::new()
            .jobs(2)
            .cache_dir(&dir)
            .resume(true)
            .run(&cell_graph());
        assert!(resumed.summary.fully_cached(), "all cells pre-resolved");
        assert_eq!(
            resumed.cache_stats.hits, 0,
            "served by the journal, not the cache"
        );
        let values = |s: &Sweep| -> Vec<Value> {
            s.outcomes
                .iter()
                .map(|o| o.value().unwrap().clone())
                .collect()
        };
        assert_eq!(values(&first), values(&resumed));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fresh_sweep_truncates_stale_manifest() {
        let dir = scratch("truncate");
        Harness::new().cache_dir(&dir).run(&cell_graph());
        let mut g = JobGraph::new();
        g.push(Job::new("only", || Value::U64(1)));
        Harness::new().cache_dir(&dir).run(&g);
        let state = LsmStore::open(&dir).unwrap().resume_state().unwrap();
        assert_eq!(state.values.len(), 1, "only the fresh sweep resumes");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shared_store_backend_is_used_for_caching() {
        let dir = scratch("shared-backend");
        let cache = ResultCache::open(&dir).unwrap();
        let warmup = Harness::new()
            .store_backend(cache.backend())
            .run(&cell_graph());
        assert_eq!(warmup.cache_stats.stores, 6);
        let warm = Harness::new()
            .store_backend(cache.backend())
            .run(&cell_graph());
        assert!(warm.summary.fully_cached());
        // Counters are store-wide: both sweeps hit the same backend.
        assert_eq!(cache.stats().stores, 6);
        assert_eq!(cache.stats().hits, 6);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn builder_retries_recover_a_flaky_cell() {
        use std::sync::atomic::{AtomicU32, Ordering};
        use std::sync::Arc;
        let flakes = Arc::new(AtomicU32::new(0));
        let f = Arc::clone(&flakes);
        let mut g = JobGraph::new();
        g.push(Job::new("flaky", move || {
            if f.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("first attempt flakes");
            }
            Value::U64(7)
        }));
        let sweep = Harness::new()
            .retries(2)
            .backoff(Duration::from_millis(1), Duration::from_millis(10))
            .run(&g);
        assert!(sweep.summary.all_done());
        assert_eq!(sweep.summary.retried, vec!["flaky".to_string()]);
        assert!(sweep.outcomes[0].was_retried());
    }

    #[test]
    fn doc_example_shape() {
        let mut graph = JobGraph::new();
        for i in 0..4u64 {
            graph.push(Job::new(format!("cell-{i}"), move || Value::U64(i * i)));
        }
        let sweep = Harness::new().jobs(2).run(&graph);
        assert!(sweep.summary.all_done());
        assert_eq!(sweep.outcomes[3].value(), Some(&Value::U64(9)));
    }
}
