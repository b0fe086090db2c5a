//! Shared command-line surface for the experiment binaries:
//! `--jobs N`, `--no-cache`, `--no-graph-artifacts`, `--filter <substr>`,
//! `--timeout-secs N`, `--retries N`, `--resume`, `--strict-resume`,
//! `--trace <path>`.

use std::path::PathBuf;
use std::time::Duration;

use crate::executor::default_jobs;

/// Parsed harness flags plus whatever positional arguments remain.
#[derive(Debug, Clone)]
pub struct CliArgs {
    /// Worker threads (defaults to available cores).
    pub jobs: usize,
    /// Disable the on-disk result cache.
    pub no_cache: bool,
    /// Disable the graph artifact store (mmap'd build-once CSR files).
    /// Graphs are then regenerated in memory per process, exactly as
    /// before the store existed; results are byte-identical either
    /// way, only graph build wall-clock changes.
    pub no_graph_artifacts: bool,
    /// Only run cells whose id contains this substring.
    pub filter: Option<String>,
    /// Per-cell wall-clock budget.
    pub timeout: Option<Duration>,
    /// Retries for failed or timed-out cells (sweep binaries default
    /// to 2 so one flaky cell does not cost a rerun).
    pub retries: u32,
    /// Resume from the journal of an interrupted sweep instead of
    /// starting fresh. The journal lives in the result store, so this
    /// cannot be combined with [`CliArgs::no_cache`].
    pub resume: bool,
    /// Fail (non-zero exit) when a resumed cell re-runs and its
    /// timeline digest disagrees with the journaled one, instead of
    /// only warning. Lets CI treat model/config divergence as an error.
    pub strict_resume: bool,
    /// Write a chrome://tracing JSON file of the run's event timeline
    /// here (binaries that simulate fresh cells honour it; cached
    /// cells have no event stream to export).
    pub trace: Option<PathBuf>,
    /// Positional arguments, in order, with harness flags removed.
    pub rest: Vec<String>,
}

impl Default for CliArgs {
    fn default() -> Self {
        CliArgs {
            jobs: default_jobs(),
            no_cache: false,
            no_graph_artifacts: false,
            filter: None,
            timeout: None,
            retries: 2,
            resume: false,
            strict_resume: false,
            trace: None,
            rest: Vec::new(),
        }
    }
}

/// The usage block describing the shared flags, for `--help` output.
pub const USAGE: &str = "harness options:\n  \
    --jobs N          worker threads (default: available cores)\n  \
    --no-cache        recompute every cell without the result store (no cache,\n                    \
no journal)\n  \
    --no-graph-artifacts  rebuild graphs in memory instead of serving mmap'd\n                    \
artifacts (results are byte-identical either way)\n  \
    --filter SUBSTR   only run cells whose id contains SUBSTR\n  \
    --timeout-secs N  mark cells running longer than N seconds as timed out\n  \
    --retries N       retry failed/timed-out cells up to N times (default: 2)\n  \
    --resume          resume an interrupted sweep from its journal (the result\n                    \
store's write-ahead log; not with --no-cache)\n  \
    --strict-resume   fail (exit 1) if a resumed cell's timeline digest diverges\n                    \
    from the journaled one, instead of warning\n  \
    --trace PATH      write a chrome://tracing (Perfetto) JSON trace to PATH";

impl CliArgs {
    /// Parses `std::env::args().skip(1)`-style arguments. Unknown
    /// flags and positionals are collected into [`CliArgs::rest`] for
    /// the binary to interpret; malformed values for known flags are
    /// errors.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<CliArgs, String> {
        let mut out = CliArgs::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let (flag, inline) = match arg.split_once('=') {
                Some((f, v)) => (f.to_string(), Some(v.to_string())),
                None => (arg.clone(), None),
            };
            let mut value = |what: &str| -> Result<String, String> {
                inline
                    .clone()
                    .or_else(|| args.next())
                    .ok_or_else(|| format!("{flag} expects {what}"))
            };
            match flag.as_str() {
                "--jobs" | "-j" => {
                    let v = value("a thread count")?;
                    out.jobs =
                        v.parse::<usize>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                            format!("--jobs expects a positive integer, got '{v}'")
                        })?;
                }
                "--no-cache" => out.no_cache = true,
                "--no-graph-artifacts" => out.no_graph_artifacts = true,
                "--filter" => out.filter = Some(value("a substring")?),
                "--timeout-secs" => {
                    let v = value("a duration in seconds")?;
                    let secs = v.parse::<f64>().ok().filter(|s| *s > 0.0).ok_or_else(|| {
                        format!("--timeout-secs expects a positive number, got '{v}'")
                    })?;
                    out.timeout = Some(Duration::from_secs_f64(secs));
                }
                "--retries" => {
                    let v = value("a retry count")?;
                    out.retries = v.parse::<u32>().map_err(|_| {
                        format!("--retries expects a non-negative integer, got '{v}'")
                    })?;
                }
                "--resume" => out.resume = true,
                "--strict-resume" => out.strict_resume = true,
                "--trace" => out.trace = Some(PathBuf::from(value("a file path")?)),
                _ => out.rest.push(arg),
            }
        }
        if out.resume && out.no_cache {
            return Err(
                "--resume reads the journal in the result store, which --no-cache \
                        turns off; drop one of the two flags"
                    .to_string(),
            );
        }
        Ok(out)
    }

    /// Parses the process's own arguments, exiting with usage on error.
    pub fn from_env() -> CliArgs {
        match CliArgs::parse(std::env::args().skip(1)) {
            Ok(args) => args,
            Err(e) => {
                eprintln!("{e}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> CliArgs {
        CliArgs::parse(args.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn defaults_use_all_cores_and_cache() {
        let a = parse(&[]);
        assert!(a.jobs >= 1);
        assert!(!a.no_cache);
        assert!(a.filter.is_none() && a.timeout.is_none());
        assert_eq!(a.retries, 2);
        assert!(!a.resume);
    }

    #[test]
    fn retries_and_resume_parse() {
        let a = parse(&["--retries", "0", "--resume"]);
        assert_eq!(a.retries, 0);
        assert!(a.resume);
        assert!(!a.strict_resume);
        let s = parse(&["--resume", "--strict-resume"]);
        assert!(s.resume && s.strict_resume);
        let b = parse(&["--retries=5"]);
        assert_eq!(b.retries, 5);
        assert!(CliArgs::parse(["--retries".to_string(), "-1".to_string()]).is_err());
    }

    #[test]
    fn no_graph_artifacts_parses_and_defaults_off() {
        assert!(!parse(&[]).no_graph_artifacts);
        let a = parse(&["--no-graph-artifacts"]);
        assert!(a.no_graph_artifacts);
        assert!(!a.no_cache, "independent toggles");
    }

    #[test]
    fn trace_parses_in_both_spellings() {
        let a = parse(&["--trace", "out.json"]);
        assert_eq!(a.trace.as_deref(), Some(std::path::Path::new("out.json")));
        let b = parse(&["--trace=results/trace.json"]);
        assert_eq!(
            b.trace.as_deref(),
            Some(std::path::Path::new("results/trace.json"))
        );
        assert!(parse(&[]).trace.is_none());
        assert!(CliArgs::parse(["--trace".to_string()]).is_err());
    }

    #[test]
    fn flags_parse_in_both_spellings() {
        let a = parse(&[
            "--jobs",
            "3",
            "--filter=BFS",
            "--no-cache",
            "--timeout-secs",
            "2.5",
        ]);
        assert_eq!(a.jobs, 3);
        assert_eq!(a.filter.as_deref(), Some("BFS"));
        assert!(a.no_cache);
        assert_eq!(a.timeout, Some(Duration::from_secs_f64(2.5)));
        let b = parse(&["-j", "7"]);
        assert_eq!(b.jobs, 7);
    }

    #[test]
    fn positionals_pass_through_in_order() {
        let a = parse(&["BFS", "--jobs=2", "kron", "TX1"]);
        assert_eq!(a.rest, vec!["BFS", "kron", "TX1"]);
        assert_eq!(a.jobs, 2);
    }

    #[test]
    fn bad_values_error() {
        assert!(CliArgs::parse(["--jobs".to_string(), "zero".to_string()]).is_err());
        assert!(CliArgs::parse(["--jobs".to_string(), "0".to_string()]).is_err());
        assert!(CliArgs::parse(["--timeout-secs".to_string(), "-1".to_string()]).is_err());
        assert!(CliArgs::parse(["--filter".to_string()]).is_err());
        let err = CliArgs::parse(["--no-cache".to_string(), "--resume".to_string()]).unwrap_err();
        assert!(
            err.contains("--resume") && err.contains("--no-cache"),
            "{err}"
        );
    }
}
