//! The benchmark's traced in-process run and its digest tool.
//!
//! ```text
//! scu-perfbench-tracer trace <workload> --jobs N --run-id ID --spans PATH
//!                            [--cells ID,ID,...] [--writes FILTER,FILTER,...]
//! scu-perfbench-tracer digest [--cells ID,ID,...]
//! ```
//!
//! Both run inside a benchmark work directory: like the repository's
//! binaries they keep results under `results/` relative to the current
//! directory and read `SCU_SCALE` / `SCU_SEED` from the environment.
//!
//! `trace` follows a workload's path through the same public calls the
//! binaries make, with the binaries' default settings, wrapping each
//! call in a span. It prints one JSON line with the per-layer metrics,
//! the traced wall time and `sim_digest`, and writes the spans as a
//! Chrome-trace file. `digest` opens the result store and prints
//! `sim_digest` over the stored results of the named cells (default:
//! the whole matrix).

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use scu_algos::cell::{Cell, CellResult};
use scu_algos::{plan_cells, shared_graph, ExperimentConfig, ALL_MODES};
use scu_graph::artifact::GraphStore;
use scu_graph::{Dataset, GraphStats};
use scu_harness::session::{standard_harness, DEFAULT_CACHE_DIR, DEFAULT_GRAPH_DIR};
use scu_harness::{CliArgs, Job, JobGraph, ResultCache};
use scu_perfbench_tracer::model::{sim_digest, ModelCounts};
use scu_perfbench_tracer::spans::{self, span, span_under, Span};
use scu_server::{Client, Scheduler, SchedulerConfig, Server};
use serde_json::Value;

/// Every per-layer metric the traced run reports. A layer the workload
/// does not exercise reports 0.
const METRICS: &[&str] = &[
    "graph.build_ms",
    "graph.load_ms",
    "graph.bytes",
    "algos.cell_ms_p50",
    "algos.cell_ms_max",
    "algos.ms.BFS",
    "algos.ms.SSSP",
    "algos.ms.PR",
    "algos.ms.CC",
    "algos.ms.KCORE",
    "algos.iterations",
    "algos.us_per_iteration",
    "algos.ns_per_warp_slot",
    "algos.sim_time_ns",
    "algos.energy_pj",
    "gpu.launches",
    "gpu.warp_slots",
    "gpu.thread_insts",
    "gpu.transactions",
    "mem.l1_accesses",
    "mem.l1_hit_rate",
    "mem.l2_accesses",
    "mem.l2_hit_rate",
    "mem.dram_bytes",
    "mem.dram_row_hit_rate",
    "core.ops",
    "core.data_elements",
    "core.requests_issued",
    "core.merge_ratio",
    "core.filter_drop_rate",
    "store.open_ms",
    "store.open_bytes",
    "store.get_us_p50",
    "store.get_us_p99",
    "store.gets",
    "store.hit_ratio",
    "store.put_us_p50",
    "store.puts",
    "store.end_bytes",
    "harness.busy_frac",
    "harness.tail_ms",
    "harness.decode_us_p50",
    "server.ready_s",
    "server.submit_ms_p50",
    "server.sweep_s_p50",
    "server.computed",
    "server.cache_hits",
    "server.coalesced",
    "server.rejected_sweeps",
    "bench.render_ms",
    "unattributed_frac",
];

/// Store gets that found a value.
static STORE_HITS: AtomicU64 = AtomicU64::new(0);
/// Bytes under the store directory when the run first opened it.
static OPEN_BYTES: AtomicU64 = AtomicU64::new(u64::MAX);
/// Operations of the traced run that failed their check.
static FAILED: AtomicU64 = AtomicU64::new(0);

struct Opts {
    workload: String,
    jobs: usize,
    run_id: String,
    spans_path: Option<String>,
    cells: Vec<String>,
    writes: Vec<String>,
}

const USAGE: &str =
    "usage: scu-perfbench-tracer trace <sweep_cold|cache_hit|daemon_mixed|big_cell> \
    --jobs N --run-id ID --spans PATH [--cells ID,...] [--writes FILTER,...]\n       \
    scu-perfbench-tracer digest [--cells ID,...]";

fn die(msg: &str) -> ! {
    eprintln!("{msg}\n{USAGE}");
    std::process::exit(2);
}

fn parse(args: &[String]) -> Opts {
    let mut opts = Opts {
        workload: String::new(),
        jobs: 1,
        run_id: "run".to_string(),
        spans_path: None,
        cells: Vec::new(),
        writes: Vec::new(),
    };
    let list = |v: &str| -> Vec<String> {
        v.split(',')
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect()
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .unwrap_or_else(|| die(&format!("{arg} expects a value")))
        };
        match arg.as_str() {
            "--jobs" => {
                opts.jobs = value()
                    .parse()
                    .unwrap_or_else(|_| die("--jobs expects a number"))
            }
            "--run-id" => opts.run_id = value(),
            "--spans" => opts.spans_path = Some(value()),
            "--cells" => opts.cells = list(&value()),
            "--writes" => opts.writes = list(&value()),
            w if opts.workload.is_empty() && !w.starts_with("--") => opts.workload = w.to_string(),
            other => die(&format!("unexpected argument '{other}'")),
        }
    }
    opts
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("trace") => trace(parse(&args[1..])),
        Some("digest") => digest(&parse(&args[1..])),
        _ => die("expected a command"),
    }
}

fn fail(what: &str) {
    eprintln!("check failed: {what}");
    FAILED.fetch_add(1, Ordering::Relaxed);
}

/// The planned cells named by `ids`, or the whole matrix when empty.
fn cells_named(cfg: &ExperimentConfig, ids: &[String]) -> Vec<Cell> {
    let plan = plan_cells(cfg, &ALL_MODES, None);
    if ids.is_empty() {
        return plan;
    }
    ids.iter()
        .map(|id| {
            plan.iter()
                .find(|c| &c.id() == id)
                .cloned()
                .unwrap_or_else(|| die(&format!("no cell '{id}' in the matrix")))
        })
        .collect()
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Stored results of `cells`, decoded, in the order given (untraced).
fn stored_results(cells: &[Cell]) -> Vec<CellResult> {
    let cache = ResultCache::open(DEFAULT_CACHE_DIR)
        .unwrap_or_else(|e| die(&format!("cannot open the result store: {e}")));
    cells
        .iter()
        .filter_map(|c| {
            let value = cache.load(&c.cache_key());
            let result = value.as_ref().and_then(|v| CellResult::from_value(v).ok());
            if result.is_none() {
                fail(&format!("{} is not in the result store", c.id()));
            }
            result
        })
        .collect()
}

fn digest(opts: &Opts) {
    let cfg = ExperimentConfig::from_env();
    let results = stored_results(&cells_named(&cfg, &opts.cells));
    println!(
        "{{\"sim_digest\":\"{:016x}\",\"cells\":{},\"failed\":{}}}",
        sim_digest(&results),
        results.len(),
        FAILED.load(Ordering::Relaxed)
    );
}

// ---------------------------------------------------------------------
// Traced calls into each layer.

/// Builds (or verifies) each dataset's graph artifact, as
/// `graph_store build` does.
fn prebuild_graphs(cfg: &ExperimentConfig, datasets: &[Dataset]) {
    let store = GraphStore::new(DEFAULT_GRAPH_DIR);
    for &d in datasets {
        let built = span("graph.artifact", || {
            store.load_or_build(d, cfg.scale, cfg.seed, || {
                span("graph.build", || d.try_build(cfg.scale, cfg.seed))
            })
        });
        if let Err(e) = built {
            fail(&format!("graph {d}: {e}"));
        }
    }
}

fn mount_graphs() {
    scu_algos::mount_graph_artifacts(Some(DEFAULT_GRAPH_DIR.into()));
}

fn open_store() -> ResultCache {
    let _ = OPEN_BYTES.compare_exchange(
        u64::MAX,
        dir_bytes(Path::new(DEFAULT_CACHE_DIR)),
        Ordering::Relaxed,
        Ordering::Relaxed,
    );
    span("store.open", || ResultCache::open(DEFAULT_CACHE_DIR))
        .unwrap_or_else(|e| die(&format!("cannot open the result store: {e}")))
}

/// The binaries' cache path for one cell: get (unless the caller just
/// missed), else simulate and put.
fn obtain(cell: &Cell, cache: &ResultCache, probe: bool) -> Value {
    let key = cell.cache_key();
    if probe {
        if let Some(value) = get(cache, &key) {
            return value;
        }
    }
    let value = span_under(spans::current(), "algos.cell", cell.id(), || {
        cell.run_value()
    });
    if let Err(e) = span("store.put", || cache.store(&key, &value)) {
        fail(&format!("store put for {}: {e}", cell.id()));
    }
    value
}

fn get(cache: &ResultCache, key: &Value) -> Option<Value> {
    let value = span("store.get", || cache.load(key));
    if value.is_some() {
        STORE_HITS.fetch_add(1, Ordering::Relaxed);
    }
    value
}

fn decode(value: &Value, id: &str) -> Option<CellResult> {
    match span("harness.decode", || CellResult::from_value(value)) {
        Ok(r) => Some(r),
        Err(e) => {
            fail(&format!("{id} decodes: {e:?}"));
            None
        }
    }
}

/// A sweep through the standard harness (the binaries' defaults) on an
/// already-open store: each job takes the cache path of [`obtain`].
/// Running cells through the harness also mounts the functional-trace
/// cache on the store, as every binary does by default.
fn sweep(cells: &[Cell], jobs: usize, cache: &ResultCache, probe: bool) -> Vec<CellResult> {
    let args = CliArgs::parse(["--jobs".to_string(), jobs.to_string()])
        .unwrap_or_else(|e| die(&format!("harness flags: {e}")));
    let harness = standard_harness(&args).store_backend(cache.backend());
    let outcomes = span("harness.run", || {
        let parent = spans::current();
        let mut graph = JobGraph::new();
        for cell in cells {
            let (cell, cache) = (cell.clone(), cache.clone());
            graph.push(Job::new(cell.id(), move || {
                span_under(parent, "harness.job", cell.id(), || {
                    obtain(&cell, &cache, probe)
                })
            }));
        }
        harness.run(&graph).outcomes
    });
    let mut results = Vec::new();
    for (cell, outcome) in cells.iter().zip(&outcomes) {
        match outcome.value() {
            Some(v) => results.extend(decode(v, &cell.id())),
            None => fail(&format!(
                "{} did not finish: {}",
                cell.id(),
                outcome.label()
            )),
        }
    }
    results
}

/// Export rows, as `export_json` prints them.
fn render_rows(results: &[CellResult]) -> usize {
    span("bench.render", || {
        let rows: Vec<Value> = results.iter().map(serde_json::to_value).collect();
        std::hint::black_box(serde_json::to_string_pretty(&rows).map_or(0, |s| s.len()))
    })
}

/// A cell report, with the lines `run_one` prints.
fn render_report(cell: &Cell, g: &scu_graph::Csr, r: &CellResult) -> usize {
    span("bench.render", || {
        let stats = GraphStats::of(g);
        let rep = &r.report;
        let text = format!(
            "{} on {} ({} nodes, {} edges, gini {:.2}) @ {} [{}]\n\
             iterations {}\ntotal time {:.1} us\nGPU processing {:.1} us\n\
             GPU compaction {:.1} us\nSCU operations {:.1} us ({} ops)\n\
             compaction fraction {:.1} %\nGPU thread insts {}\nGPU tx/mem-inst {:.2}\n\
             DRAM traffic {:.2} MB\nbandwidth util {:.1} %\nenergy {:.3} mJ\n\
             answer values {} (fnv {:016x})\n",
            cell.algorithm,
            cell.dataset,
            stats.nodes,
            stats.edges,
            stats.degree_gini,
            cell.system,
            cell.mode,
            rep.iterations,
            rep.total_time_ns() / 1e3,
            rep.gpu_processing.time_ns / 1e3,
            rep.gpu_compaction.time_ns / 1e3,
            rep.scu.time_ns / 1e3,
            rep.scu.ops,
            rep.compaction_fraction() * 100.0,
            rep.gpu_thread_insts(),
            rep.gpu_coalescing(),
            rep.dram_bytes() as f64 / 1e6,
            rep.bandwidth_utilization() * 100.0,
            rep.energy.total_mj(),
            r.values_len,
            r.values_fnv
        );
        std::hint::black_box(text.len())
    })
}

/// One `run_one` invocation: graph, store open, get, and on a miss the
/// simulation and put; then decode and report.
fn run_one(cfg: &ExperimentConfig, cell: &Cell) {
    span("bench.run_one", || {
        let g = span("graph.load", || {
            shared_graph(cell.dataset, cfg.scale, cfg.seed)
        });
        let cache = open_store();
        let results = match get(&cache, &cell.cache_key()) {
            Some(value) => decode(&value, &cell.id()).into_iter().collect(),
            None => sweep(std::slice::from_ref(cell), 1, &cache, false),
        };
        for r in &results {
            render_report(cell, &g, r);
        }
    });
}

// ---------------------------------------------------------------------
// Workloads.

fn sweep_cold(cfg: &ExperimentConfig, opts: &Opts) -> Vec<Cell> {
    prebuild_graphs(cfg, &cfg.datasets);
    mount_graphs();
    for &d in &cfg.datasets {
        span("graph.load", || shared_graph(d, cfg.scale, cfg.seed));
    }
    let plan = plan_cells(cfg, &ALL_MODES, None);
    let cache = open_store();
    let results = sweep(&plan, opts.jobs, &cache, true);
    render_rows(&results);
    plan
}

fn cache_hit(cfg: &ExperimentConfig, opts: &Opts) -> Vec<Cell> {
    mount_graphs();
    for cell in cells_named(cfg, &opts.cells) {
        run_one(cfg, &cell);
    }
    let plan = plan_cells(cfg, &ALL_MODES, None);
    span("bench.warm_sweep", || {
        let cache = open_store();
        let results = sweep(&plan, opts.jobs, &cache, true);
        render_rows(&results);
    });
    plan
}

fn big_cell(cfg: &ExperimentConfig, opts: &Opts) -> Vec<Cell> {
    let cells = cells_named(cfg, &opts.cells);
    let datasets: Vec<Dataset> = cells.iter().map(|c| c.dataset).collect();
    prebuild_graphs(cfg, &datasets);
    mount_graphs();
    for cell in &cells {
        run_one(cfg, cell);
    }
    cells
}

/// Fills `counters` with the daemon's `/metrics` counters after the run.
fn daemon_mixed(
    cfg: &ExperimentConfig,
    opts: &Opts,
    counters: &mut BTreeMap<&'static str, f64>,
) -> Vec<Cell> {
    mount_graphs();
    let reads = cells_named(cfg, &opts.cells);
    // Store reads as the daemon's store sees them, before it opens the
    // directory (one writer per store directory).
    span("bench.store_probe", || {
        let cache = open_store();
        for cell in &reads {
            if let Some(v) = get(&cache, &cell.cache_key()) {
                decode(&v, &cell.id());
            }
        }
    });
    let args = CliArgs::parse(["--jobs".to_string(), "1".to_string()])
        .unwrap_or_else(|e| die(&format!("server flags: {e}")));
    let server = span("server.start", || {
        Server::bind(
            "127.0.0.1:0",
            Scheduler::new(SchedulerConfig::from_cli(&args)),
        )
    })
    .unwrap_or_else(|e| die(&format!("cannot bind the daemon: {e}")));
    let url = format!("http://{}", server.local_addr());
    let handle = server.handle();
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(move || server.run());
        let client = Client::new(&url);
        span("server.health", || {
            while client.health().is_err() {
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        s.spawn(|| {
            let reader = Client::new(&url);
            for cell in reads.iter().cycle() {
                if done.load(Ordering::SeqCst) {
                    break;
                }
                match span("server.get", || reader.cell(&cell.id())) {
                    Ok(Some(body)) => {
                        if body.get("value").is_none() {
                            fail(&format!("GET {} carries no value", cell.id()));
                        }
                    }
                    Ok(None) => fail(&format!("GET {} is not cached", cell.id())),
                    Err(e) => fail(&format!("GET {}: {e:?}", cell.id())),
                }
            }
        });
        for filter in &opts.writes {
            let body: Value = serde_json::from_str(&format!("{{\"filter\":\"{filter}\"}}"))
                .unwrap_or_else(|e| die(&format!("bad filter '{filter}': {e:?}")));
            let id = match span("server.submit", || client.submit(&body)) {
                Ok(id) => id,
                Err(e) => {
                    fail(&format!("submit {filter}: {e:?}"));
                    continue;
                }
            };
            match span("server.sweep", || client.wait(id)) {
                Ok(status) => {
                    let count = |k: &str| status.get(k).and_then(Value::as_u64);
                    if count("finished") != count("total") {
                        fail(&format!("sweep {filter} finished {:?}", count("finished")));
                    }
                }
                Err(e) => fail(&format!("wait {filter}: {e:?}")),
            }
        }
        done.store(true, Ordering::SeqCst);
        if let Ok(m) = client.metrics() {
            for (name, key) in [
                ("server.computed", "computed"),
                ("server.cache_hits", "cache_hits"),
                ("server.coalesced", "coalesced"),
                ("server.rejected_sweeps", "rejected_sweeps"),
            ] {
                let v = m.get(key).and_then(Value::as_u64).unwrap_or(0);
                counters.insert(name, v as f64);
            }
        }
        handle.shutdown();
    });
    plan_cells(cfg, &ALL_MODES, None)
}

// ---------------------------------------------------------------------
// Metrics from spans.

fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .collect()
}

/// Nearest-rank percentile, `q` in [0, 1]; 0 for no samples.
fn percentile(mut v: Vec<f64>, q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Busy share and idle tail of every sweep, from its job spans.
fn sweep_shape(spans: &[Span], workers: usize) -> (f64, f64) {
    let (mut busy, mut capacity, mut tail) = (0.0, 0.0, 0.0);
    for run in spans.iter().filter(|s| s.name == "harness.run") {
        let jobs: Vec<&Span> = spans
            .iter()
            .filter(|s| s.name == "harness.job" && s.parent == run.id)
            .collect();
        busy += jobs.iter().map(|s| s.dur_ns() as f64).sum::<f64>();
        capacity += run.dur_ns() as f64 * workers as f64;
        // The last instant every worker was busy; after it, some idled.
        let mut edges: Vec<(u64, i64)> = jobs
            .iter()
            .flat_map(|s| [(s.start_ns, 1), (s.end_ns, -1)])
            .collect();
        edges.sort_unstable_by_key(|&(t, d)| (t, d));
        let (mut running, mut last_full) = (0i64, run.start_ns);
        for (t, d) in edges {
            if running >= workers as i64 && d < 0 {
                last_full = t;
            }
            running += d;
        }
        tail += run.end_ns.saturating_sub(last_full) as f64;
    }
    let frac = if capacity > 0.0 { busy / capacity } else { 0.0 };
    (frac, tail / 1e6)
}

fn trace(opts: Opts) {
    let cfg = ExperimentConfig::from_env();
    if let Err(e) = cfg.validate() {
        die(&e);
    }
    let mut counters = BTreeMap::new();
    let started = Instant::now();
    let cells = span("bench.root", || match opts.workload.as_str() {
        "sweep_cold" => sweep_cold(&cfg, &opts),
        "cache_hit" => cache_hit(&cfg, &opts),
        "daemon_mixed" => daemon_mixed(&cfg, &opts, &mut counters),
        "big_cell" => big_cell(&cfg, &opts),
        other => die(&format!("unknown workload '{other}'")),
    });
    let wall_s = started.elapsed().as_secs_f64();
    let spans = spans::take();
    let end_bytes = dir_bytes(Path::new(DEFAULT_CACHE_DIR));

    let mut m: BTreeMap<&'static str, f64> = METRICS.iter().map(|&n| (n, 0.0)).collect();
    let ms = |v: Vec<f64>| v.iter().sum::<f64>() / 1e6;
    m.insert("graph.build_ms", ms(durations(&spans, "graph.build")));
    m.insert("graph.load_ms", ms(durations(&spans, "graph.load")));
    m.insert(
        "graph.bytes",
        dir_bytes(Path::new(DEFAULT_GRAPH_DIR)) as f64,
    );

    let cell_ns = durations(&spans, "algos.cell");
    let simulated_ns: f64 = cell_ns.iter().sum();
    m.insert("algos.cell_ms_p50", percentile(cell_ns.clone(), 0.5) / 1e6);
    m.insert("algos.cell_ms_max", percentile(cell_ns, 1.0) / 1e6);
    for s in spans.iter().filter(|s| s.name == "algos.cell") {
        let algo = s.detail.split('/').next().unwrap_or("");
        if let Some(&name) = METRICS
            .iter()
            .find(|n| n.strip_prefix("algos.ms.") == Some(algo))
        {
            *m.entry(name).or_default() += s.dur_ns() as f64 / 1e6;
        }
    }

    let results = stored_results(&cells);
    let mut counts = ModelCounts::default();
    let mut simulated = ModelCounts::default();
    for (cell, r) in cells.iter().zip(&results) {
        counts.add(r);
        let id = cell.id();
        if spans
            .iter()
            .any(|s| s.name == "algos.cell" && s.detail == id)
        {
            simulated.add(r);
        }
    }
    counts.metrics(&mut m);
    if simulated.iterations > 0 {
        m.insert(
            "algos.us_per_iteration",
            simulated_ns / 1e3 / simulated.iterations as f64,
        );
    }
    if simulated.warp_slots > 0 {
        m.insert(
            "algos.ns_per_warp_slot",
            simulated_ns / simulated.warp_slots as f64,
        );
    }

    let gets = durations(&spans, "store.get");
    let puts = durations(&spans, "store.put");
    m.insert(
        "store.open_ms",
        percentile(durations(&spans, "store.open"), 0.5) / 1e6,
    );
    if OPEN_BYTES.load(Ordering::Relaxed) != u64::MAX {
        m.insert(
            "store.open_bytes",
            OPEN_BYTES.load(Ordering::Relaxed) as f64,
        );
    }
    m.insert("store.gets", gets.len() as f64);
    if !gets.is_empty() {
        m.insert(
            "store.hit_ratio",
            STORE_HITS.load(Ordering::Relaxed) as f64 / gets.len() as f64,
        );
    }
    m.insert("store.get_us_p50", percentile(gets.clone(), 0.5) / 1e3);
    m.insert("store.get_us_p99", percentile(gets, 0.99) / 1e3);
    m.insert("store.puts", puts.len() as f64);
    m.insert("store.put_us_p50", percentile(puts, 0.5) / 1e3);
    m.insert("store.end_bytes", end_bytes as f64);

    let (busy, tail_ms) = sweep_shape(&spans, opts.jobs);
    m.insert("harness.busy_frac", busy);
    m.insert("harness.tail_ms", tail_ms);
    m.insert(
        "harness.decode_us_p50",
        percentile(durations(&spans, "harness.decode"), 0.5) / 1e3,
    );

    // Ready: from opening the daemon to its first healthy answer.
    let ready_ms = ms(durations(&spans, "server.start")) + ms(durations(&spans, "server.health"));
    m.insert("server.ready_s", ready_ms / 1e3);
    m.insert(
        "server.submit_ms_p50",
        percentile(durations(&spans, "server.submit"), 0.5) / 1e6,
    );
    m.insert(
        "server.sweep_s_p50",
        percentile(durations(&spans, "server.sweep"), 0.5) / 1e9,
    );
    m.extend(counters);
    m.insert("bench.render_ms", ms(durations(&spans, "bench.render")));

    let root = spans
        .iter()
        .find(|s| s.name == "bench.root")
        .expect("the root span was recorded");
    let covered = spans::covered_ns(
        spans
            .iter()
            .filter(|s| s.id != root.id)
            .map(|s| (s.start_ns, s.end_ns))
            .collect(),
    );
    m.insert(
        "unattributed_frac",
        1.0 - covered as f64 / root.dur_ns().max(1) as f64,
    );

    // The per-layer budget: self time by layer, plus what no span covers.
    let own = spans::self_times(&spans);
    let mut budget: BTreeMap<&str, f64> = BTreeMap::new();
    for (s, t) in spans.iter().zip(&own) {
        if s.id != root.id {
            *budget.entry(s.layer()).or_default() += *t as f64 / 1e6;
        }
    }
    eprintln!("per-layer self time over {:.3} s traced wall:", wall_s);
    for (layer, t) in &budget {
        eprintln!("  {layer:<8} {t:>12.3} ms");
    }
    eprintln!(
        "  {:<8} {:>12.3} ms",
        "(none)",
        (root.dur_ns() - covered.min(root.dur_ns())) as f64 / 1e6
    );

    if let Some(path) = &opts.spans_path {
        if let Err(e) = std::fs::write(path, spans::chrome_trace(&spans, &opts.run_id)) {
            fail(&format!("writing spans to {path}: {e}"));
        }
    }
    let body: Vec<String> = m
        .iter()
        .map(|(k, v)| format!("\"{k}\":{}", if v.is_finite() { *v } else { 0.0 }))
        .collect();
    println!(
        "{{\"wall_s\":{wall_s},\"sim_digest\":\"{:016x}\",\"cells\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        sim_digest(&results),
        results.len(),
        FAILED.load(Ordering::Relaxed),
        body.join(",")
    );
}
