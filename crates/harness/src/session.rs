//! Standard sweep-binary wiring.
//!
//! `reproduce_all`, `export_json` and the sweep server (`scu_serve`)
//! all need the same glue around a [`Harness`]: reject leftover CLI
//! arguments with usage, cache and journal under `results/cache`, drain
//! on SIGINT, and translate the sweep summary into the conventional
//! exit code. This module is that glue, written once.

use crate::cli::{CliArgs, USAGE};
use crate::progress::SweepSummary;
use crate::Harness;

/// Where sweep binaries cache completed cells and journal them for
/// `--resume`.
pub const DEFAULT_CACHE_DIR: &str = "results/cache";

/// Where sweep binaries keep build-once mmap'd graph artifacts.
/// The harness only names the directory (it cannot mount the store —
/// the dependency arrow points from `scu-algos` down to here);
/// binaries pass it to `scu_algos::mount_graph_artifacts` unless
/// `--no-graph-artifacts` was given.
pub const DEFAULT_GRAPH_DIR: &str = "results/graphs";

/// Exits with code 2 and a one-line error + usage if `args` carries
/// positionals or unknown flags — for binaries that take flags only.
pub fn reject_unparsed_args(args: &CliArgs) {
    if !args.rest.is_empty() {
        eprintln!("unexpected arguments: {:?}\n{USAGE}", args.rest);
        std::process::exit(2);
    }
}

/// The standard sweep harness: shared CLI flags applied over the
/// default cache dir (which also journals completions), SIGINT
/// draining installed.
pub fn standard_harness(args: &CliArgs) -> Harness {
    Harness::new()
        .apply_cli(args, DEFAULT_CACHE_DIR)
        .handle_sigint(true)
}

/// The conventional exit code for a finished sweep: `130` when it was
/// interrupted (SIGINT drained; rerun with `--resume`), `1` when cells
/// failed or timed out, `0` when everything completed. Pure, so the
/// policy is testable; [`exit_sweep`] applies it.
pub fn sweep_exit_code(summary: &SweepSummary) -> i32 {
    if summary.was_interrupted() {
        130
    } else if !summary.all_done() {
        1
    } else {
        0
    }
}

/// Ends the process with [`sweep_exit_code`], printing the resume hint
/// for interrupted sweeps. Only returns when the sweep completed.
pub fn exit_sweep(summary: &SweepSummary) {
    match sweep_exit_code(summary) {
        0 => {}
        130 => {
            eprintln!("interrupted — rerun with --resume to finish the remaining cells");
            std::process::exit(130);
        }
        code => std::process::exit(code),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{Job, JobGraph, Outcome};
    use serde_json::Value;
    use std::time::Duration;

    fn summary_of(outcomes: Vec<Outcome>) -> SweepSummary {
        let mut g = JobGraph::new();
        for i in 0..outcomes.len() {
            g.push(Job::new(format!("job-{i}"), || Value::Null));
        }
        SweepSummary::new(&g, &outcomes, Duration::from_millis(1), 0)
    }

    fn done() -> Outcome {
        Outcome::Done {
            value: Value::Null,
            duration: Duration::ZERO,
            cached: false,
            retries: Vec::new(),
        }
    }

    #[test]
    fn complete_sweep_exits_zero() {
        assert_eq!(sweep_exit_code(&summary_of(vec![done(), done()])), 0);
    }

    #[test]
    fn failures_exit_one() {
        let s = summary_of(vec![
            done(),
            Outcome::Failed {
                error: "boom".into(),
                retries: Vec::new(),
            },
        ]);
        assert_eq!(sweep_exit_code(&s), 1);
    }

    #[test]
    fn interruption_exits_sigint_convention() {
        let s = summary_of(vec![done(), Outcome::Cancelled]);
        assert_eq!(sweep_exit_code(&s), 130);
    }

    #[test]
    fn standard_harness_honours_no_cache() {
        let args = CliArgs::parse(["--no-cache".to_string()]).unwrap();
        let h = standard_harness(&args);
        let text = format!("{h:?}");
        assert!(text.contains("cache_dir: None"));
        assert!(text.contains("handle_sigint: true"));
    }
}
