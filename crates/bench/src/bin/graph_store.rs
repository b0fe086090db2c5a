//! Graph artifact store tool: pre-build, inspect and verify the
//! build-once mmap'd CSR artifacts under `results/graphs`.
//!
//! ```text
//! graph_store build [dataset ...]   build-or-load artifacts (default: all six)
//! graph_store stat                  list artifacts with verification status
//!
//! options:
//!   --dir PATH    store directory (default: results/graphs)
//! ```
//!
//! `build` goes through the same `GraphStore::load_or_build` path the
//! sweeps use, so a warm artifact is a digest check + mmap and a cold
//! one is generated, published and reported. Scale and seed come from
//! `SCU_SCALE` / `SCU_SEED` as everywhere else; an out-of-range scale
//! is a one-line error, exit 2. The summary line reports the process
//! peak RSS (`VmHWM`), which is how the CI scale-22 smoke asserts the
//! streaming Kronecker builder's memory stays bounded by the output
//! CSR rather than an edge-triple list.

use std::sync::Arc;

use scu_algos::ExperimentConfig;
use scu_graph::artifact::{self, GraphStore};
use scu_graph::Dataset;
use scu_store::mmap::Mapped;

const USAGE: &str = "usage: graph_store <build|stat> [dataset ...] [--dir PATH]\n  \
    build   build-or-load artifacts for the named datasets (default: all six)\n          \
    at SCU_SCALE/SCU_SEED; prints one line per dataset plus peak RSS\n  \
    stat    list artifacts in the store with verification status\n  \
    --dir PATH   store directory (default: results/graphs)";

fn main() {
    let mut dir = scu_harness::session::DEFAULT_GRAPH_DIR.to_string();
    let mut command: Option<String> = None;
    let mut datasets: Vec<Dataset> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f.to_string(), Some(v.to_string())),
            None => (arg.clone(), None),
        };
        match flag.as_str() {
            "--dir" => {
                dir = inline.or_else(|| args.next()).unwrap_or_else(|| {
                    eprintln!("--dir expects a path\n{USAGE}");
                    std::process::exit(2);
                });
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            _ if command.is_none() => command = Some(arg),
            _ => match Dataset::from_name(&arg) {
                Some(d) => datasets.push(d),
                None => {
                    eprintln!("unknown dataset '{arg}'\n{USAGE}");
                    std::process::exit(2);
                }
            },
        }
    }
    if datasets.is_empty() {
        datasets = Dataset::ALL.to_vec();
    }
    match command.as_deref() {
        Some("build") => build(&dir, &datasets),
        Some("stat") => stat(&dir),
        Some(other) => {
            eprintln!("unknown command '{other}'\n{USAGE}");
            std::process::exit(2);
        }
        None => {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
}

fn build(dir: &str, datasets: &[Dataset]) {
    let cfg = ExperimentConfig::from_env();
    for &d in datasets {
        if let Err(e) = d.validate_scale(cfg.scale) {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
    let store = Arc::new(GraphStore::new(dir));
    for &d in datasets {
        let g = match store.load_or_build(d, cfg.scale, cfg.seed, || cfg_build(d, &cfg)) {
            Ok(g) => g,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(1);
            }
        };
        let o = artifact::last_outcome().expect("load_or_build records an outcome");
        println!(
            "{d:<9} {:<8} {:>10} nodes {:>11} edges  mapped {:>12} B  build {:>9.2} s  \
             publish {:>6.2} s  {}",
            o.disposition.label(),
            g.num_nodes(),
            g.num_edges(),
            o.bytes_mapped,
            o.build_wall.as_secs_f64(),
            o.publish_wall.as_secs_f64(),
            o.key,
        );
    }
    match peak_rss_kb() {
        Some(kb) => println!("peak RSS {:.1} MB", kb as f64 / 1024.0),
        None => println!("peak RSS unavailable (no /proc/self/status)"),
    }
}

fn cfg_build(d: Dataset, cfg: &ExperimentConfig) -> Result<scu_graph::Csr, String> {
    d.try_build(cfg.scale, cfg.seed)
}

fn stat(dir: &str) {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) => {
            println!("store {dir}: unreadable ({e})");
            return;
        }
    };
    let mut names: Vec<_> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "csr"))
        .collect();
    names.sort();
    if names.is_empty() {
        println!("store {dir}: no artifacts");
        return;
    }
    for path in names {
        let size = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        let verdict = verify(&path);
        println!(
            "{:<40} {:>12} B  {verdict}",
            path.file_name().and_then(|n| n.to_str()).unwrap_or("?"),
            size
        );
    }
    let q = scu_store::quarantine::retained(&GraphStore::new(dir).quarantine_dir());
    if q > 0 {
        println!("quarantine holds {q} file(s)");
    }
}

/// Verifies an artifact against its own embedded key (the digest and
/// layout checks are key-independent; the key check then just confirms
/// the embedded string round-trips). An intact artifact whose key was
/// written by a different `CSR_FORMAT_VERSION` is reported as stale,
/// not ok — every sweep would treat it as a key-mismatch miss, so a
/// store full of them yields zero hits despite verifying clean.
fn verify(path: &std::path::Path) -> String {
    let Ok(mut file) = std::fs::File::open(path) else {
        return "unreadable".to_string();
    };
    let Ok(map) = Mapped::of_file(&mut file) else {
        return "unreadable".to_string();
    };
    let map = Arc::new(map);
    let bytes: &[u8] = &map;
    let embedded = (|| {
        let len = u32::from_le_bytes(bytes.get(8..12)?.try_into().ok()?) as usize;
        String::from_utf8(bytes.get(12..12 + len)?.to_vec()).ok()
    })();
    let Some(key) = embedded else {
        return "corrupt (no readable key)".to_string();
    };
    match artifact::decode_artifact(&map, &key) {
        Ok(_) if !key.starts_with(&format!("{}|", artifact::CSR_FORMAT_VERSION)) => format!(
            "stale format (intact, but key {key:?} predates {}; sweeps will miss and rebuild)",
            artifact::CSR_FORMAT_VERSION
        ),
        Ok(g) => format!("ok ({} nodes, {} edges)", g.num_nodes(), g.num_edges()),
        Err(e) => format!("corrupt ({e})"),
    }
}

/// Peak resident set size in kB, from `/proc/self/status` (`VmHWM`).
fn peak_rss_kb() -> Option<u64> {
    std::fs::read_to_string("/proc/self/status")
        .ok()?
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}
