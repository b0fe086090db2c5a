//! The sweep daemon.
//!
//! ```text
//! scu_serve [--addr HOST] [--port N] [harness flags]
//! ```
//!
//! Binds `HOST:N` (default `127.0.0.1:7878`; port 0 asks the OS for an
//! ephemeral port) and prints the resolved address on stdout so
//! scripts can scrape it. The shared harness flags (`--jobs`,
//! `--no-cache`, `--retries`) configure the batch
//! harness; `SCU_SCALE`/`SCU_SEED` configure the served matrix exactly
//! like the CLI sweeps. `--no-cache` serves without the result store,
//! so the daemon neither dedups by cache nor restarts warm.
//!
//! Hardening knobs: `--max-pending N` caps queued cells (excess sweeps
//! get `429 Retry-After`), `--max-conns N` caps connections waiting
//! for a handler (excess get `503`), `--max-retained N` caps how many
//! finished sweeps stay queryable in memory (older ones evict;
//! results survive in the cache), and `--request-deadline SECS`
//! bounds how long one request may take to arrive in full (the
//! slowloris cutoff).
//!
//! The first SIGINT drains gracefully: new submissions are refused,
//! the running batch finishes and reaches the cache and journal, event
//! streams close, and the process exits 0. A second SIGINT kills
//! immediately (the handler re-arms the default disposition).

use scu_harness::CliArgs;
use scu_server::{Scheduler, SchedulerConfig, Server, ServerConfig};

const USAGE: &str = "scu_serve options:\n  \
    --addr HOST       bind address (default: 127.0.0.1)\n  \
    --port N          bind port (default: 7878; 0 = OS-assigned)\n  \
    --max-pending N   cap on queued cells before sweeps are shed with 429\n  \
    --max-conns N     cap on connections waiting for a handler (shed with 503)\n  \
    --max-retained N  cap on finished sweeps kept queryable in memory\n  \
    --request-deadline SECS\n                    \
    wall-clock budget for reading one request (slowloris cutoff)\n\
plus the shared harness flags (--jobs, --no-cache, --retries); --no-cache\n\
also disables warm restarts";

fn main() {
    let args = CliArgs::from_env();
    let mut addr = "127.0.0.1".to_string();
    let mut port = 7878u16;
    let mut scheduler_cfg = SchedulerConfig::from_cli(&args);
    let mut server_cfg = ServerConfig::default();
    let mut rest = args.rest.iter();
    while let Some(arg) = rest.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f, Some(v.to_string())),
            None => (arg.as_str(), None),
        };
        let mut value = |what: &str| -> String {
            inline
                .clone()
                .or_else(|| rest.next().cloned())
                .unwrap_or_else(|| {
                    eprintln!("{flag} expects {what}\n{USAGE}");
                    std::process::exit(2);
                })
        };
        match flag {
            "--addr" => addr = value("a bind address"),
            "--port" => {
                let v = value("a port number");
                port = v.parse().unwrap_or_else(|_| {
                    eprintln!("--port expects a number 0-65535, got '{v}'\n{USAGE}");
                    std::process::exit(2);
                });
            }
            "--max-pending" => {
                let v = value("a cell count");
                scheduler_cfg.max_pending_cells = parse_or_die(flag, &v, "a positive number");
            }
            "--max-conns" => {
                let v = value("a connection count");
                server_cfg.max_queued_conns = parse_or_die(flag, &v, "a positive number");
            }
            "--max-retained" => {
                let v = value("a sweep count");
                scheduler_cfg.max_retained_sweeps = parse_or_die(flag, &v, "a positive number");
            }
            "--request-deadline" => {
                let v = value("a number of seconds");
                let secs: f64 = parse_or_die(flag, &v, "a number of seconds");
                if !secs.is_finite() || secs <= 0.0 {
                    eprintln!("--request-deadline expects a positive number of seconds\n{USAGE}");
                    std::process::exit(2);
                }
                server_cfg.request_deadline = std::time::Duration::from_secs_f64(secs);
            }
            "--help" | "-h" => {
                println!("{USAGE}\n{}", scu_harness::cli::USAGE);
                return;
            }
            other => {
                eprintln!("unexpected argument '{other}'\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    if let Err(e) = scu_algos::ExperimentConfig::from_env().validate() {
        eprintln!("{e}");
        std::process::exit(2);
    }
    // Build-once graphs survive daemon restarts: the artifact store
    // mmaps the same files every sweep, every restart.
    scu_algos::mount_graph_artifacts(
        (!args.no_graph_artifacts).then(|| scu_harness::session::DEFAULT_GRAPH_DIR.into()),
    );
    let scheduler = Scheduler::new(scheduler_cfg);
    let server = match Server::bind_with(&format!("{addr}:{port}"), scheduler, server_cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind {addr}:{port}: {e}");
            std::process::exit(1);
        }
    };
    // Scraped by scripts and the CI smoke test; keep the shape stable,
    // and flush explicitly — stdout is block-buffered into a pipe.
    println!("scu-serve listening on http://{}", server.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    scu_harness::cancel::install_sigint_handler();
    let handle = server.handle();
    std::thread::Builder::new()
        .name("scu-sigint-watch".to_string())
        .spawn(move || {
            while !scu_harness::cancel::cancelled() {
                std::thread::sleep(std::time::Duration::from_millis(100));
            }
            eprintln!("scu-serve: SIGINT — draining in-flight cells");
            handle.shutdown();
        })
        .expect("spawning the SIGINT watcher");

    server.run();
    eprintln!("scu-serve: drained and journaled; goodbye");
}

fn parse_or_die<T: std::str::FromStr>(flag: &str, v: &str, what: &str) -> T {
    v.parse().unwrap_or_else(|_| {
        eprintln!("{flag} expects {what}, got '{v}'\n{USAGE}");
        std::process::exit(2);
    })
}
