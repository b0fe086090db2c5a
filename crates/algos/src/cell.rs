//! The pure experiment-cell entry point used by the parallel harness.
//!
//! One [`Cell`] is one point of the reproduction matrix: algorithm ×
//! dataset × platform × machine mode, plus the scaling knobs. A cell
//! owns its entire configuration, so running it is a pure function of
//! the struct — no globals, no environment reads — which is what lets
//! the harness run cells on worker threads and cache their results
//! content-addressed.
//!
//! The serialised cell configuration (plus [`MODEL_VERSION`]) *is* the
//! cache key; [`CellResult`] is the cached value. Raw per-node answer
//! vectors are too large to cache, so results carry their length and a
//! FNV-1a fingerprint instead — enough to assert cross-mode agreement.

use std::sync::{Arc, Mutex, OnceLock};

use scu_core::ScuConfig;
use scu_graph::{Csr, Dataset};
use scu_trace::{PhaseRow, Timeline};
use serde::{Deserialize, Serialize};
use serde_json::Value;

use crate::report::RunReport;
use crate::runner::{run_configured, Algorithm, Mode, RunOutput};
use crate::system::SystemKind;

/// Version tag of the simulator model, mixed into every cache key.
///
/// Bump this whenever a change alters any simulated metric or answer
/// (timing model, energy model, generators, algorithms); cached
/// results from older versions then simply stop matching and are
/// recomputed. Leave it alone for pure refactors.
pub const MODEL_VERSION: &str = "scu-sim-2";

/// One fully-specified point of the experiment matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cell {
    /// Graph primitive to run.
    pub algorithm: Algorithm,
    /// Input graph class.
    pub dataset: Dataset,
    /// Simulated platform.
    pub system: SystemKind,
    /// Machine variant (baseline GPU or an SCU configuration).
    pub mode: Mode,
    /// PageRank iteration cap (ignored by the other algorithms).
    pub pr_iters: u32,
    /// Dataset size as a fraction of the published node count.
    pub scale: f64,
    /// Seed for the synthetic graph generator.
    pub seed: u64,
    /// SCU parameter override for ablations; `None` means the
    /// platform's Table 2 configuration.
    pub scu_config: Option<ScuConfig>,
}

impl Cell {
    /// Stable human-readable identifier, used for progress lines and
    /// `--filter` matching: `BFS/cond/GTX980/scu-enhanced`.
    pub fn id(&self) -> String {
        format!(
            "{}/{}/{}/{}",
            self.algorithm.name(),
            self.dataset.name(),
            self.system.name(),
            self.mode.name()
        )
    }

    /// The content-addressed cache key: the full configuration plus the
    /// model version. Every knob participates, so any change —
    /// functional or timing — misses and recomputes. The byte layout of
    /// this key is load-bearing (it addresses persisted results); do
    /// not reorder or rename fields.
    pub fn cache_key(&self) -> Value {
        Value::Object(vec![
            ("model".to_string(), Value::Str(MODEL_VERSION.to_string())),
            ("cell".to_string(), serde_json::to_value(self)),
        ])
    }

    /// Runs the cell: builds (or reuses) the input graph, simulates,
    /// and summarises. Pure with respect to the configuration — equal
    /// cells produce equal results on any thread, in any order.
    pub fn run(&self) -> CellResult {
        // Failpoint site for fault-injection tests: with
        // `SCU_FAILPOINTS=cell-run=…` armed, a cell can be made to
        // panic, stall, or flake deterministically.
        scu_harness::failpoint::apply("cell-run");
        let g = shared_graph(self.dataset, self.scale, self.seed);
        let out = run_configured(
            self.algorithm,
            &g,
            self.system,
            self.mode,
            self.pr_iters,
            self.scu_config.as_ref(),
        );
        CellResult::new(self.id(), &out)
    }

    /// [`Cell::run`], also handing back the full event timeline the
    /// run recorded — for trace export, where the summary alone is
    /// not enough.
    pub fn run_traced(&self) -> (CellResult, Timeline) {
        scu_harness::failpoint::apply("cell-run");
        let g = shared_graph(self.dataset, self.scale, self.seed);
        let out = run_configured(
            self.algorithm,
            &g,
            self.system,
            self.mode,
            self.pr_iters,
            self.scu_config.as_ref(),
        );
        let result = CellResult::new(self.id(), &out);
        (result, out.timeline)
    }

    /// [`Cell::run`] as a JSON value — the closure body the harness
    /// executes and caches.
    pub fn run_value(&self) -> Value {
        serde_json::to_value(&self.run())
    }
}

/// What one cell produced: the measurement report plus a fingerprint
/// of the algorithm's answer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellResult {
    /// The cell's [`Cell::id`].
    pub id: String,
    /// Length of the per-node answer vector.
    pub values_len: u64,
    /// FNV-1a fingerprint of the answer values (little-endian u64s) —
    /// byte-identical answers across modes hash identically.
    pub values_fnv: u64,
    /// The full measurement report.
    pub report: RunReport,
    /// Order-sensitive digest of the run's event timeline. Two runs
    /// of the same cell on the same model version emit byte-identical
    /// event streams, so the digest doubles as a determinism check
    /// across threads, processes, and `--resume` boundaries.
    pub timeline_digest: u64,
    /// Per-iteration phase breakdown derived from the timeline —
    /// small enough to cache, unlike the raw event stream.
    pub phases: Vec<PhaseRow>,
}

impl CellResult {
    /// Summarises a raw [`RunOutput`].
    pub fn new(id: String, out: &RunOutput) -> Self {
        CellResult {
            id,
            values_len: out.values.len() as u64,
            values_fnv: fnv1a_u64s(&out.values),
            report: out.report.clone(),
            timeline_digest: out.timeline.digest(),
            phases: out.timeline.phase_breakdown(),
        }
    }

    /// Parses a cached value back into a result.
    ///
    /// # Errors
    ///
    /// Returns the underlying decode error if `value` does not have
    /// this shape (e.g. a cache blob from a foreign version).
    pub fn from_value(value: &Value) -> Result<Self, serde_json::Error> {
        serde_json::from_value(value)
    }
}

/// FNV-1a over the little-endian byte stream of the values.
fn fnv1a_u64s(values: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Graph key: scale participates via its exact bit pattern.
type GraphKey = (Dataset, u64, u64);

/// Most graphs the process-wide memo retains at once, by default.
/// Overridable via `SCU_GRAPH_MEMO_ENTRIES` (read once, at first use).
///
/// The default matrix touches 6 datasets at one (scale, seed), so a
/// full sweep stays fully memoised; multi-scale sweeps (ablation,
/// scaling studies) evict least-recently-used graphs instead of
/// accumulating every size ever built for the life of the process.
const GRAPH_MEMO_CAP: usize = 8;

/// The effective memo cap: `SCU_GRAPH_MEMO_ENTRIES` when set to a
/// positive integer, [`GRAPH_MEMO_CAP`] otherwise.
fn graph_memo_cap() -> usize {
    std::env::var("SCU_GRAPH_MEMO_ENTRIES")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&cap| cap > 0)
        .unwrap_or(GRAPH_MEMO_CAP)
}

/// How many evicted keys the memo remembers for thrash detection.
const EVICTED_KEYS_REMEMBERED: usize = 64;

/// LRU memo of built graphs: a linear table with a logical use clock.
/// At the default cap a scan beats hashing and keeps eviction order
/// fully deterministic (first-least-recent wins).
///
/// With the artifact store mounted the payload per entry is an mmap
/// handle (three `Arc`s over the same file), so even an evict/rebuild
/// cycle re-maps a verified file instead of re-generating the graph —
/// the memo then only amortises the digest check.
struct GraphMemo {
    cap: usize,
    tick: u64,
    entries: Vec<(GraphKey, Arc<Csr>, u64)>,
    /// Recently evicted keys (bounded); re-requesting one of these is
    /// eviction thrash — the cap is too small for the sweep's working
    /// set — and warns once per process.
    evicted: Vec<GraphKey>,
    warned_thrash: bool,
}

impl Default for GraphMemo {
    fn default() -> Self {
        GraphMemo::with_cap(graph_memo_cap())
    }
}

impl GraphMemo {
    fn with_cap(cap: usize) -> Self {
        GraphMemo {
            cap: cap.max(1),
            tick: 0,
            entries: Vec::new(),
            evicted: Vec::new(),
            warned_thrash: false,
        }
    }

    fn get(&mut self, key: &GraphKey) -> Option<Arc<Csr>> {
        self.tick += 1;
        let tick = self.tick;
        self.entries
            .iter_mut()
            .find(|(k, ..)| k == key)
            .map(|(_, g, last_use)| {
                *last_use = tick;
                Arc::clone(g)
            })
    }

    fn insert(&mut self, key: GraphKey, g: Arc<Csr>) -> Arc<Csr> {
        // Re-check under the lock: a concurrent builder of the same
        // key may have landed first, and its Arc must win so both
        // callers share one graph.
        if let Some(g) = self.get(&key) {
            return g;
        }
        if self.evicted.contains(&key) && !self.warned_thrash {
            self.warned_thrash = true;
            eprintln!(
                "[scu-algos] graph memo thrash: rebuilding a graph evicted earlier in this \
                 sweep (cap {}); raise SCU_GRAPH_MEMO_ENTRIES if memory allows",
                self.cap
            );
        }
        if self.entries.len() >= self.cap {
            let lru = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, (.., last_use))| *last_use)
                .map(|(i, _)| i)
                .expect("cap > 0, so a full memo has a least-recent entry");
            let (evicted_key, ..) = self.entries.swap_remove(lru);
            if self.evicted.len() >= EVICTED_KEYS_REMEMBERED {
                self.evicted.remove(0);
            }
            self.evicted.push(evicted_key);
        }
        self.entries.push((key, Arc::clone(&g), self.tick));
        g
    }
}

/// Builds `dataset` at (`scale`, `seed`), memoised process-wide.
///
/// Generation is deterministic, so sharing is purely an optimisation:
/// every cell of a sweep reads the same immutable [`Csr`] instead of
/// regenerating it per algorithm × platform × mode combination. The
/// memo is bounded (`SCU_GRAPH_MEMO_ENTRIES`, default
/// [`GRAPH_MEMO_CAP`]); least-recently-used graphs are dropped once
/// every cell holding them finishes.
///
/// When a graph artifact store is mounted ([`mount_graph_artifacts`])
/// a memo miss goes through it: a verified on-disk artifact is mmap'd
/// zero-copy (shared with every other process mapping it); only a
/// missing or corrupt artifact triggers an actual generator run, whose
/// output is published for every later process. Artifacts are keyed
/// outside `cache_key` — a hit serves the exact bytes the in-memory
/// build would produce, so results cannot depend on the store.
pub fn shared_graph(dataset: Dataset, scale: f64, seed: u64) -> Arc<Csr> {
    static CACHE: OnceLock<Mutex<GraphMemo>> = OnceLock::new();
    scu_harness::failpoint::apply("graph-build");
    let key = (dataset, scale.to_bits(), seed);
    let cache = CACHE.get_or_init(|| Mutex::new(GraphMemo::default()));
    // Poison-tolerant: a panic injected (or hit) between the lookup
    // and the insert leaves the memo consistent, so later cells can
    // keep using it instead of dying on a poisoned lock.
    if let Some(g) = scu_harness::error::lock_unpoisoned(cache, "graph cache").get(&key) {
        return g;
    }
    // Build outside the lock: different graphs may build concurrently,
    // and a duplicate build of the same key is deterministic anyway.
    let g = Arc::new(match scu_graph::artifact::active() {
        Some(store) => store
            .load_or_build(dataset, scale, seed, || dataset.try_build(scale, seed))
            .unwrap_or_else(|e| panic!("{e}")),
        None => dataset.build(scale, seed),
    });
    scu_harness::error::lock_unpoisoned(cache, "graph cache").insert(key, g)
}

/// Mounts the graph artifact store at `dir` (or unmounts it with
/// `None`) and wires its IO failpoints (`graph-artifact-load`,
/// `graph-artifact-store`) into the harness registry. Binaries call
/// this once at startup — library code and unit tests run with the
/// store unmounted and build in memory, exactly as before.
pub fn mount_graph_artifacts(dir: Option<std::path::PathBuf>) {
    scu_graph::artifact::install_io_hook(scu_harness::failpoint::io);
    scu_graph::artifact::install(dir.map(|d| Arc::new(scu_graph::artifact::GraphStore::new(d))));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cell(mode: Mode) -> Cell {
        Cell {
            algorithm: Algorithm::Bfs,
            dataset: Dataset::Cond,
            system: SystemKind::Tx1,
            mode,
            pr_iters: 3,
            scale: 1.0 / 256.0,
            seed: 11,
            scu_config: None,
        }
    }

    #[test]
    fn id_is_readable_and_filterable() {
        assert_eq!(
            tiny_cell(Mode::ScuEnhanced).id(),
            "BFS/cond/TX1/scu-enhanced"
        );
    }

    #[test]
    fn cache_key_distinguishes_configurations() {
        let a = tiny_cell(Mode::GpuBaseline).cache_key();
        let b = tiny_cell(Mode::ScuBasic).cache_key();
        let mut c = tiny_cell(Mode::GpuBaseline);
        c.seed = 12;
        assert_ne!(a, b);
        assert_ne!(a, c.cache_key());
        assert_eq!(a, tiny_cell(Mode::GpuBaseline).cache_key());
    }

    #[test]
    fn result_roundtrips_through_json() {
        let res = tiny_cell(Mode::ScuBasic).run();
        let value = serde_json::to_value(&res);
        let back = CellResult::from_value(&value).unwrap();
        assert_eq!(res, back);
        assert!(res.values_len > 0);
    }

    #[test]
    fn answers_agree_across_modes_via_fingerprint() {
        let base = tiny_cell(Mode::GpuBaseline).run();
        let scu = tiny_cell(Mode::ScuEnhanced).run();
        assert_eq!(base.values_len, scu.values_len);
        assert_eq!(base.values_fnv, scu.values_fnv);
    }

    #[test]
    fn shared_graph_is_memoised() {
        let a = shared_graph(Dataset::Cond, 1.0 / 256.0, 7);
        let b = shared_graph(Dataset::Cond, 1.0 / 256.0, 7);
        assert!(Arc::ptr_eq(&a, &b));
        let c = shared_graph(Dataset::Cond, 1.0 / 256.0, 8);
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn graph_memo_caps_and_evicts_least_recent() {
        // Explicit cap: the default reads SCU_GRAPH_MEMO_ENTRIES, and
        // process env must not leak into this test (or vice versa).
        let mut memo = GraphMemo::with_cap(GRAPH_MEMO_CAP);
        let g = Arc::new(Dataset::Ca.build(1.0 / 512.0, 1));
        let cap = GRAPH_MEMO_CAP as u64;
        for i in 0..cap + 3 {
            memo.insert((Dataset::Ca, i, 1), Arc::clone(&g));
        }
        assert_eq!(memo.entries.len(), GRAPH_MEMO_CAP);
        // The three oldest keys were evicted; the newest survive.
        assert!(memo.get(&(Dataset::Ca, 0, 1)).is_none());
        assert!(memo.get(&(Dataset::Ca, 2, 1)).is_none());
        assert!(memo.get(&(Dataset::Ca, cap + 2, 1)).is_some());
        // Touching the current least-recent key shields it from the
        // next eviction.
        let keep = (Dataset::Ca, 3, 1);
        assert!(memo.get(&keep).is_some());
        memo.insert((Dataset::Ca, 999, 1), Arc::clone(&g));
        assert_eq!(memo.entries.len(), GRAPH_MEMO_CAP);
        assert!(memo.get(&keep).is_some());
    }

    #[test]
    fn graph_memo_warns_once_on_eviction_thrash() {
        let mut memo = GraphMemo::with_cap(2);
        let g = Arc::new(Dataset::Ca.build(1.0 / 512.0, 1));
        for i in 0..3u64 {
            memo.insert((Dataset::Ca, i, 1), Arc::clone(&g));
        }
        // Key 0 was evicted; re-inserting it is thrash.
        assert!(!memo.warned_thrash);
        memo.insert((Dataset::Ca, 0, 1), Arc::clone(&g));
        assert!(memo.warned_thrash);
        // The evicted ring stays bounded under sustained cycling.
        for i in 10..10 + 2 * EVICTED_KEYS_REMEMBERED as u64 {
            memo.insert((Dataset::Ca, i, 1), Arc::clone(&g));
        }
        assert!(memo.evicted.len() <= EVICTED_KEYS_REMEMBERED);
    }

    #[test]
    fn graph_memo_cap_env_parsing() {
        // The default (no env contract in unit tests) is positive and
        // with_cap clamps zero to one.
        assert!(graph_memo_cap() >= 1);
        assert_eq!(GraphMemo::with_cap(0).cap, 1);
    }
}
