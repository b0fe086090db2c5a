//! Exports the full measurement matrix as JSON for downstream
//! analysis/plotting tools.
//!
//! ```text
//! SCU_SCALE=0.0625 cargo run --release -p scu-bench --bin export_json > matrix.json
//! ```
//!
//! Accepts the shared harness flags: `--jobs N`, `--no-cache`,
//! `--filter SUBSTR`, `--timeout-secs N`, `--retries N`, `--resume`.
//! Completions are journaled in the result store (`results/cache`), so
//! a killed export rerun with `--resume` recomputes only the missing
//! cells and produces byte-identical JSON. The matrix covers the paper's three
//! primitives plus the CC and k-core extensions.

use scu_algos::runner::Mode;
use scu_bench::experiments::matrix::{Matrix, Measurement};
use scu_bench::ExperimentConfig;
use scu_harness::CliArgs;
use serde_json::Value;

fn row(e: &Measurement) -> Value {
    let s = |v: &str| Value::Str(v.to_string());
    Value::Object(vec![
        ("algorithm".into(), s(e.algo.name())),
        ("dataset".into(), s(e.dataset.name())),
        ("system".into(), s(e.system.name())),
        ("mode".into(), s(e.mode.name())),
        ("total_time_ns".into(), Value::F64(e.report.total_time_ns())),
        ("gpu_time_ns".into(), Value::F64(e.report.gpu_time_ns())),
        ("scu_time_ns".into(), Value::F64(e.report.scu.time_ns)),
        (
            "compaction_fraction".into(),
            Value::F64(e.report.compaction_fraction()),
        ),
        (
            "energy_total_pj".into(),
            Value::F64(e.report.energy.total_pj()),
        ),
        (
            "gpu_thread_insts".into(),
            Value::U64(e.report.gpu_thread_insts()),
        ),
        (
            "gpu_coalescing".into(),
            Value::F64(e.report.gpu_coalescing()),
        ),
        (
            "bandwidth_utilization".into(),
            Value::F64(e.report.bandwidth_utilization()),
        ),
        ("iterations".into(), Value::U64(e.report.iterations as u64)),
        ("values_fnv".into(), Value::U64(e.values_fnv)),
        ("report".into(), serde_json::to_value(&e.report)),
        ("phases".into(), serde_json::to_value(&e.phases)),
    ])
}

/// All four machine variants, in the paper's order.
const MODES: [Mode; 4] = [
    Mode::GpuBaseline,
    Mode::ScuBasic,
    Mode::ScuFilteringOnly,
    Mode::ScuEnhanced,
];

fn main() {
    let args = CliArgs::from_env();
    scu_harness::session::reject_unparsed_args(&args);
    if args.trace.is_some() {
        eprintln!("note: --trace is honoured by run_one and reproduce_all, not export_json");
    }
    let cfg = ExperimentConfig::from_env();
    if let Err(e) = cfg.validate() {
        eprintln!("{e}");
        std::process::exit(2);
    }
    scu_algos::mount_graph_artifacts(
        (!args.no_graph_artifacts).then(|| scu_harness::session::DEFAULT_GRAPH_DIR.into()),
    );
    if let Some(f) = args.filter.as_deref() {
        if Matrix::plan(&cfg, &MODES, Some(f)).is_empty() {
            eprintln!(
                "--filter '{f}' matches none of the {} cells in the matrix",
                Matrix::plan(&cfg, &MODES, None).len()
            );
            std::process::exit(2);
        }
    }
    let harness = scu_harness::session::standard_harness(&args);
    let (m, sweep) = Matrix::collect_with(&cfg, &MODES, &harness, args.filter.as_deref());
    let rows: Vec<Value> = m.entries().iter().map(row).collect();
    println!(
        "{}",
        serde_json::to_string_pretty(&Value::Array(rows)).expect("serialisable")
    );
    if !sweep.summary.all_done() {
        eprintln!("{}", sweep.summary.render());
    }
    scu_harness::session::exit_sweep(&sweep.summary);
}
