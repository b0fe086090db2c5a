//! Runs a single (algorithm, dataset, system, mode) combination and
//! prints the full report — the workhorse for ad-hoc investigation.
//!
//! ```text
//! run_one [BFS|SSSP|PR|CC|KCORE] [ca|cond|delaunay|human|kron|msdoor] \
//!         [GTX980|TX1] [gpu|scu-basic|scu-filtering|scu-enhanced]
//! ```
//!
//! Scale/seed come from `SCU_SCALE` / `SCU_SEED` as usual. The result
//! is cached under `results/cache` like the full sweep's cells; pass
//! `--no-cache` to force a fresh simulation without opening the store.
//!
//! With `--trace <path>` the cell always simulates fresh (a cached
//! result has no event stream) and its timeline is written as a
//! chrome://tracing JSON file, loadable in Perfetto or
//! `chrome://tracing`.
//!
//! With `--profile` the report is followed by a phase-time breakdown
//! derived from the same timeline: total processing/compaction/SCU
//! nanoseconds and the ten most expensive iterations — the quick
//! "where does this cell's time go" view without leaving the
//! terminal, plus the GPU engine's host wall-clock. Locally simulated
//! cells also get the graph artifact store's verdict (artifact key,
//! hit/built/rebuilt, bytes mapped, generator wall time; pass
//! `--no-graph-artifacts` to build in memory).
//!
//! With `--remote URL` the cell is obtained from a running `scu_serve`
//! daemon instead of simulated locally: a cached cell is fetched with
//! zero recompute, a cold one is submitted as a one-cell sweep and
//! awaited. The printed report is byte-identical to the local path —
//! both build the cell through the same `ExperimentConfig::cell` and
//! serialise the same `CellResult`.

use scu_algos::cell::{Cell, CellResult};
use scu_algos::runner::{Algorithm, Mode};
use scu_algos::SystemKind;
use scu_bench::ExperimentConfig;
use scu_graph::{Dataset, GraphStats};
use scu_harness::{CliArgs, ResultCache};
use scu_trace::chrome::chrome_trace_document;

fn parse_args(args: &[String]) -> Result<(Algorithm, Dataset, SystemKind, Mode), String> {
    // Flags the harness and this binary do not know, and positionals
    // past the four cell coordinates, are errors — never ignored.
    let unexpected: Vec<&str> = args
        .iter()
        .enumerate()
        .filter(|(i, a)| *i >= 4 || a.starts_with('-'))
        .map(|(_, a)| a.as_str())
        .collect();
    if !unexpected.is_empty() {
        return Err(format!("unexpected arguments: {unexpected:?}"));
    }
    let algo = match args.first().map(String::as_str) {
        None | Some("BFS") | Some("bfs") => Algorithm::Bfs,
        Some("SSSP") | Some("sssp") => Algorithm::Sssp,
        Some("PR") | Some("pr") => Algorithm::PageRank,
        Some("CC") | Some("cc") => Algorithm::Cc,
        Some("KCORE") | Some("kcore") => Algorithm::KCore,
        Some(x) => return Err(format!("unknown algorithm '{x}'")),
    };
    let dataset = match args.get(1).map(String::as_str) {
        None => Dataset::Kron,
        Some(name) => Dataset::ALL
            .into_iter()
            .find(|d| d.name() == name)
            .ok_or_else(|| format!("unknown dataset '{name}'"))?,
    };
    let system = match args.get(2).map(String::as_str) {
        None | Some("TX1") | Some("tx1") => SystemKind::Tx1,
        Some("GTX980") | Some("gtx980") => SystemKind::Gtx980,
        Some(x) => return Err(format!("unknown system '{x}'")),
    };
    let mode = match args.get(3).map(String::as_str) {
        None | Some("scu-enhanced") => Mode::ScuEnhanced,
        Some("gpu") => Mode::GpuBaseline,
        Some("scu-basic") => Mode::ScuBasic,
        Some("scu-filtering") => Mode::ScuFilteringOnly,
        Some(x) => return Err(format!("unknown mode '{x}'")),
    };
    Ok((algo, dataset, system, mode))
}

/// Runs (or recalls) the cell; returns the result and whether it came
/// from the cache.
fn obtain(cell: &Cell, no_cache: bool) -> (CellResult, bool) {
    if !no_cache {
        if let Ok(cache) = ResultCache::open("results/cache") {
            let key = cell.cache_key();
            if let Some(value) = cache.load(&key) {
                if let Ok(result) = CellResult::from_value(&value) {
                    return (result, true);
                }
            }
            let result = cell.run();
            let value = serde_json::to_value(&result);
            if let Err(e) = cache.store(&key, &value) {
                eprintln!("cache store failed: {e}");
            }
            return (result, false);
        }
    }
    (cell.run(), false)
}

/// Obtains the cell from a running `scu_serve` daemon. A warm cell is
/// a pure cache read; a cold one is submitted as a one-cell sweep,
/// awaited via the event stream, then fetched from the now-warm cache.
/// Both paths deserialise the same `CellResult` envelope the local
/// cache holds, so the printed report is byte-identical.
fn obtain_remote(cell: &Cell, url: &str) -> Result<(CellResult, bool), String> {
    use serde_json::Value;

    let client = scu_server::Client::new(url);
    let id = cell.id();
    let parse = |value: &Value| {
        let payload = value
            .get("value")
            .ok_or_else(|| format!("cell response for {id} carries no value"))?;
        CellResult::from_value(payload).map_err(|e| format!("cell {id} payload is malformed: {e}"))
    };
    if let Some(entry) = client.cell(&id).map_err(|e| e.to_string())? {
        return Ok((parse(&entry)?, true));
    }
    let spec = Value::Object(vec![
        (
            "algorithm".to_string(),
            Value::Str(cell.algorithm.name().to_string()),
        ),
        (
            "dataset".to_string(),
            Value::Str(cell.dataset.name().to_string()),
        ),
        (
            "system".to_string(),
            Value::Str(cell.system.name().to_string()),
        ),
        ("mode".to_string(), Value::Str(cell.mode.name().to_string())),
    ]);
    let body = Value::Object(vec![("cells".to_string(), Value::Array(vec![spec]))]);
    let sweep = client.submit(&body).map_err(|e| e.to_string())?;
    let status = client.wait(sweep).map_err(|e| e.to_string())?;
    let entry = client
        .cell(&id)
        .map_err(|e| e.to_string())?
        .ok_or_else(|| {
            let detail = status
                .get("cells")
                .and_then(Value::as_array)
                .and_then(|cells| cells.first())
                .and_then(|c| c.get("error"))
                .and_then(Value::as_str)
                .unwrap_or("cell did not complete");
            format!("remote simulation failed: {detail}")
        })?;
    Ok((parse(&entry)?, false))
}

const USAGE: &str = "usage: run_one [BFS|SSSP|PR|CC|KCORE] [dataset] [GTX980|TX1] [mode] \
     [--no-cache] [--no-graph-artifacts] [--trace PATH] [--profile] [--remote URL]";

fn main() {
    let args = CliArgs::from_env();
    let mut rest = args.rest.clone();
    let profile = match rest.iter().position(|a| a == "--profile") {
        Some(i) => {
            rest.remove(i);
            true
        }
        None => false,
    };
    let remote = match rest
        .iter()
        .position(|a| a == "--remote" || a.starts_with("--remote="))
    {
        Some(i) => {
            let url = match rest[i].split_once('=') {
                Some((_, v)) => v.to_string(),
                None => {
                    if i + 1 >= rest.len() {
                        eprintln!("--remote expects a server URL\n{USAGE}");
                        std::process::exit(2);
                    }
                    rest.remove(i + 1)
                }
            };
            rest.remove(i);
            Some(url)
        }
        None => None,
    };
    if remote.is_some() && args.trace.is_some() {
        eprintln!("--trace needs a local simulation; drop --remote to trace this cell");
        std::process::exit(2);
    }
    let (algo, dataset, system, mode) = match parse_args(&rest) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    let cfg = ExperimentConfig::from_env();
    if let Err(e) = dataset.validate_scale(cfg.scale) {
        eprintln!("{e}");
        std::process::exit(2);
    }
    scu_algos::mount_graph_artifacts(
        (!args.no_graph_artifacts && remote.is_none())
            .then(|| scu_harness::session::DEFAULT_GRAPH_DIR.into()),
    );
    // The same constructor the sweep binaries and the server use, so
    // every entry path shares cache keys and result bytes.
    let cell = cfg.cell(algo, dataset, system, mode);
    if profile {
        // The engine-time counter is process-global; zero it so the
        // profile below covers exactly this cell's simulation.
        scu_gpu::reset_engine_ns();
    }
    let g = scu_algos::shared_graph(dataset, cfg.scale, cfg.seed);
    let stats = GraphStats::of(&g);
    println!(
        "{algo} on {dataset} ({} nodes, {} edges, gini {:.2}) @ {system} [{mode}]",
        stats.nodes, stats.edges, stats.degree_gini
    );

    let (result, cached) = if let Some(url) = &remote {
        match obtain_remote(&cell, url) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(1);
            }
        }
    } else {
        match &args.trace {
            Some(path) => {
                // Tracing needs the event stream, so the cell simulates
                // fresh; the result cache is neither consulted nor written.
                let (result, timeline) = cell.run_traced();
                let doc = chrome_trace_document(&[(cell.id(), timeline)]);
                let text = serde_json::to_string(&doc).expect("serialising a Value cannot fail");
                match std::fs::write(path, text) {
                    Ok(()) => eprintln!(
                        "trace written to {} — load it in Perfetto (ui.perfetto.dev) \
                     or chrome://tracing",
                        path.display()
                    ),
                    Err(e) => eprintln!("cannot write trace to {}: {e}", path.display()),
                }
                (result, false)
            }
            None => obtain(&cell, args.no_cache),
        }
    };
    if cached {
        println!("(cached result — pass --no-cache to re-simulate)");
    }
    let r = &result.report;
    println!("\niterations           {}", r.iterations);
    println!(
        "total time           {:>12.1} us",
        r.total_time_ns() / 1000.0
    );
    println!(
        "  GPU processing     {:>12.1} us",
        r.gpu_processing.time_ns / 1000.0
    );
    println!(
        "  GPU compaction     {:>12.1} us",
        r.gpu_compaction.time_ns / 1000.0
    );
    println!(
        "  SCU operations     {:>12.1} us ({} ops)",
        r.scu.time_ns / 1000.0,
        r.scu.ops
    );
    println!(
        "compaction fraction  {:>12.1} %",
        r.compaction_fraction() * 100.0
    );
    println!("GPU thread insts     {:>12}", r.gpu_thread_insts());
    println!("GPU tx/mem-inst      {:>12.2}", r.gpu_coalescing());
    println!(
        "DRAM traffic         {:>12.2} MB",
        r.dram_bytes() as f64 / 1e6
    );
    println!(
        "bandwidth util       {:>12.1} %",
        r.bandwidth_utilization() * 100.0
    );
    println!("\nenergy               {:>12.3} mJ", r.energy.total_mj());
    println!(
        "  GPU dynamic        {:>12.3} mJ",
        r.energy.gpu_dynamic_pj / 1e9
    );
    println!(
        "  SCU dynamic        {:>12.3} mJ",
        r.energy.scu_dynamic_pj / 1e9
    );
    println!(
        "  DRAM dynamic       {:>12.3} mJ",
        r.energy.dram_dynamic_pj / 1e9
    );
    println!("  static             {:>12.3} mJ", r.energy.static_pj / 1e9);
    println!(
        "\nanswer values        {:>12} (fnv {:016x})",
        result.values_len, result.values_fnv
    );
    if mode.uses_scu() {
        println!("\nSCU pipeline elems   {:>12}", r.scu.data_elements);
        println!("SCU skipped elems    {:>12}", r.scu.skipped_elements);
        println!(
            "filter probes/drops  {:>12} / {}",
            r.scu.filter.probes, r.scu.filter.dropped
        );
        println!(
            "groups formed        {:>12} (mean size {:.1})",
            r.scu.group.groups,
            r.scu.group.mean_group_size()
        );
    }
    if profile {
        print_profile(&result.phases);
        print_engine_profile(cached);
        if remote.is_none() {
            print_graph_outcome();
        }
    }
}

/// Renders the graph artifact store's verdict for this process: which
/// artifact key the graph ran under, whether it was served zero-copy
/// (hit), built and published (built), or quarantined and rebuilt
/// (rebuilt), plus bytes mapped and the generator wall time.
fn print_graph_outcome() {
    println!("\n--- profile: graph artifact store ---");
    match scu_algos::graph_artifact::last_outcome() {
        None => {
            if scu_algos::graph_artifact::active().is_some() {
                println!("no artifact activity — graph came from the in-process memo");
            } else {
                println!("artifact store disabled — graph built in memory");
            }
        }
        Some(o) => {
            let verdict = match o.disposition {
                scu_algos::graph_artifact::ArtifactDisposition::Hit => {
                    "hit — mmap'd a verified artifact, zero-copy"
                }
                scu_algos::graph_artifact::ArtifactDisposition::Built => {
                    "built — no artifact yet; generated and published"
                }
                scu_algos::graph_artifact::ArtifactDisposition::Rebuilt => {
                    "rebuilt — artifact failed verification; quarantined, regenerated, republished"
                }
            };
            println!("artifact key     {}", o.key);
            println!("outcome          {verdict}");
            println!("bytes mapped     {:>12}", o.bytes_mapped);
            println!(
                "build wall       {:>12.1} ms",
                o.build_wall.as_secs_f64() * 1e3
            );
        }
    }
}

/// Renders the GPU engine's host wall-clock for this process.
fn print_engine_profile(cached: bool) {
    let ns = scu_gpu::engine_ns();
    println!("\n--- profile: engine wall-clock (host) ---");
    if ns > 0 {
        println!("GPU engine       {:>12.1} ms", ns as f64 / 1e6);
    } else if cached {
        println!("no engine time recorded — result came from the cache");
    } else {
        println!("no engine time recorded — no GPU kernels ran");
    }
}

/// Renders the `--profile` view: phase totals plus the heaviest
/// iterations, all derived from the cell's recorded timeline breakdown
/// (no extra instrumentation — cached results carry the same rows).
fn print_profile(phases: &[scu_trace::PhaseRow]) {
    if phases.is_empty() {
        println!("\nprofile: no phase rows recorded for this cell");
        return;
    }
    let sum = |f: fn(&scu_trace::PhaseRow) -> f64| phases.iter().map(f).sum::<f64>();
    let proc = sum(|p| p.processing_ns);
    let comp = sum(|p| p.compaction_ns);
    let scu = sum(|p| p.scu_ns);
    let total = (proc + comp + scu).max(f64::MIN_POSITIVE);

    println!("\n--- profile: phase totals ---");
    for (name, ns) in [
        ("GPU processing", proc),
        ("GPU compaction", comp),
        ("SCU operations", scu),
    ] {
        println!(
            "{name:<16} {:>12.1} us  {:>5.1} %",
            ns / 1000.0,
            100.0 * ns / total
        );
    }

    let mut by_time: Vec<&scu_trace::PhaseRow> = phases.iter().collect();
    by_time.sort_by(|a, b| {
        let ta = a.processing_ns + a.compaction_ns + a.scu_ns;
        let tb = b.processing_ns + b.compaction_ns + b.scu_ns;
        tb.partial_cmp(&ta)
            .expect("phase times are finite")
            .then(a.iter.cmp(&b.iter))
    });
    let top = by_time.len().min(10);
    println!(
        "\n--- profile: top {top} of {} iterations ---",
        by_time.len()
    );
    println!(
        "{:>5} {:>14} {:>14} {:>14} {:>14}",
        "iter", "total us", "processing us", "compaction us", "scu us"
    );
    for p in &by_time[..top] {
        let t = p.processing_ns + p.compaction_ns + p.scu_ns;
        println!(
            "{:>5} {:>14.1} {:>14.1} {:>14.1} {:>14.1}",
            p.iter,
            t / 1000.0,
            p.processing_ns / 1000.0,
            p.compaction_ns / 1000.0,
            p.scu_ns / 1000.0
        );
    }
}
