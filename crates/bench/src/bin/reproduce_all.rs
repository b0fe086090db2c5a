//! Runs every experiment — the one-shot paper reproduction.
//!
//! The measurement matrix fills through the parallel harness: cells
//! run on all cores (`--jobs N` to override), finished cells are
//! cached under `results/cache` (`--no-cache` to recompute), and
//! `--filter SUBSTR` narrows the sweep to matching cells. Output is
//! mirrored to `results/reproduce_output.txt`, live progress to
//! `results/reproduce_progress.txt`.
//!
//! Robustness: flaky cells are retried (`--retries N`, default 2);
//! completions are journaled in the result store as they land, so a
//! killed run restarts with `--resume` and re-executes only the cells
//! the journal missed. The first Ctrl-C drains in-flight cells into the
//! journal and exits 130; the second kills immediately.
//!
//! Scale with `SCU_SCALE` (default 1/16 of published dataset sizes).
//!
//! With `--trace <path>` the sweep also writes a chrome://tracing JSON
//! document covering every cell that simulated fresh (cached or
//! resumed cells have no event stream), loadable in Perfetto.

use std::fmt::Write as _;

use scu_algos::runner::Mode;
use scu_bench::experiments::{
    ablation, area, fig01, fig09, fig10, fig11, fig12, fig13, filtering, matrix::Matrix, tables,
    workload,
};
use scu_bench::ExperimentConfig;
use scu_harness::CliArgs;

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
    let harness = scu_harness::session::standard_harness(&args)
        .narrate(true)
        .progress_file("results/reproduce_progress.txt");
    let (m, sweep) = match &args.trace {
        Some(path) => {
            let (m, sweep, timelines) =
                Matrix::collect_traced(&cfg, &MODES, &harness, args.filter.as_deref());
            let doc = scu_trace::chrome::chrome_trace_document(&timelines);
            let text = serde_json::to_string(&doc).expect("serialising a Value cannot fail");
            match std::fs::write(path, text) {
                Ok(()) => eprintln!(
                    "trace: {} of {} cell(s) captured to {} (cached cells are not traced) — \
                     load it in Perfetto (ui.perfetto.dev) or chrome://tracing",
                    timelines.len(),
                    sweep.outcomes.len(),
                    path.display()
                ),
                Err(e) => eprintln!("cannot write trace to {}: {e}", path.display()),
            }
            (m, sweep)
        }
        None => Matrix::collect_with(&cfg, &MODES, &harness, args.filter.as_deref()),
    };

    let mut out = String::new();
    let _ = writeln!(
        out,
        "=== SCU reproduction: all tables and figures (scale {:.4}) ===\n",
        cfg.scale
    );
    if args.filter.is_some() {
        // A narrowed sweep cannot fill the figures; report the cells.
        render_cells(&mut out, &m);
    } else if sweep.summary.all_done() {
        render_figures(&mut out, &cfg, &m);
    } else {
        let _ = writeln!(
            out,
            "grid incomplete ({}/{} cells) — figures skipped, collected cells below\n",
            sweep.summary.done, sweep.summary.total
        );
        render_cells(&mut out, &m);
    }
    print!("{out}");
    eprintln!("{}", sweep.summary.render());

    if let Err(e) = std::fs::create_dir_all("results")
        .and_then(|()| std::fs::write("results/reproduce_output.txt", &out))
    {
        eprintln!("cannot write results/reproduce_output.txt: {e}");
    }
    scu_harness::session::exit_sweep(&sweep.summary);
}

/// The full paper reproduction: every table and figure.
fn render_figures(out: &mut String, cfg: &ExperimentConfig, m: &Matrix) {
    let sections = [
        tables::render_all(cfg),
        area::render(),
        workload::render(&workload::rows(cfg)),
        fig01::render(&fig01::rows(m)),
        fig09::render(&fig09::rows(m)),
        fig10::render(&fig10::rows(m)),
        fig11::render(&fig11::rows(m)),
        fig12::render(&fig12::rows(m)),
        fig13::render(&fig13::rows(m)),
        filtering::render(&filtering::rows(m)),
        ablation::render(cfg),
    ];
    *out += &sections.join("\n");
}

/// Per-cell headline metrics, for filtered or partial sweeps.
fn render_cells(out: &mut String, m: &Matrix) {
    let _ = writeln!(
        out,
        "{:<30} {:>14} {:>12} {:>12}",
        "cell", "total time us", "energy mJ", "iterations"
    );
    for e in m.entries() {
        let _ = writeln!(
            out,
            "{:<30} {:>14.1} {:>12.3} {:>12}",
            format!(
                "{}/{}/{}/{}",
                e.algo.name(),
                e.dataset.name(),
                e.system.name(),
                e.mode.name()
            ),
            e.report.total_time_ns() / 1000.0,
            e.report.energy.total_mj(),
            e.report.iterations,
        );
    }
}
