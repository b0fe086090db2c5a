//! Bad command-line input must produce a one-line error and a
//! non-zero exit from every experiment binary — never a panic, a
//! usage dump with no diagnosis, or a silent no-op sweep.

use std::process::{Command, Output};

/// Runs a binary at tiny scale so even an accidental simulation could
/// not stall the suite.
fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .env("SCU_SCALE", "0.0078125")
        .output()
        .expect("binary spawns")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Asserts exit code 2 and that the FIRST stderr line carries the
/// diagnosis — the one-line-error contract.
fn assert_rejects(bin: &str, args: &[&str], needle: &str) {
    let out = run(bin, args);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{args:?} should exit 2; stderr: {}",
        stderr_of(&out)
    );
    let err = stderr_of(&out);
    let first = err.lines().next().unwrap_or_default();
    assert!(
        first.contains(needle),
        "{args:?}: first stderr line {first:?} should mention {needle:?}"
    );
}

#[test]
fn run_one_rejects_unknown_names() {
    let bin = env!("CARGO_BIN_EXE_run_one");
    assert_rejects(bin, &["NOPE"], "unknown algorithm 'NOPE'");
    assert_rejects(bin, &["BFS", "nope"], "unknown dataset 'nope'");
    assert_rejects(bin, &["BFS", "kron", "nope"], "unknown system 'nope'");
    assert_rejects(bin, &["BFS", "kron", "TX1", "nope"], "unknown mode 'nope'");
}

#[test]
fn run_one_rejects_malformed_remote_usage() {
    let bin = env!("CARGO_BIN_EXE_run_one");
    assert_rejects(bin, &["--remote"], "--remote expects a server URL");
    assert_rejects(
        bin,
        &["--remote", "localhost:1", "--trace", "t.json"],
        "--trace needs a local simulation",
    );
}

#[test]
fn run_one_rejects_bad_flag_values() {
    let bin = env!("CARGO_BIN_EXE_run_one");
    assert_rejects(
        bin,
        &["--jobs", "zero"],
        "--jobs expects a positive integer",
    );
    assert_rejects(bin, &["--timeout-secs", "-1"], "--timeout-secs expects");
}

#[test]
fn sweep_binaries_reject_unexpected_positionals() {
    for bin in [
        env!("CARGO_BIN_EXE_reproduce_all"),
        env!("CARGO_BIN_EXE_export_json"),
    ] {
        assert_rejects(bin, &["bogus"], "unexpected arguments");
        assert_rejects(bin, &["--bogus-flag"], "unexpected arguments");
        // Removed flags take the same unknown-flag path.
        assert_rejects(bin, &["--sim-threads", "2"], "unexpected arguments");
        assert_rejects(bin, &["--no-trace-cache"], "unexpected arguments");
    }
}

#[test]
fn run_one_rejects_unknown_flags_and_extra_positionals() {
    let bin = env!("CARGO_BIN_EXE_run_one");
    assert_rejects(bin, &["--bogus-flag"], "unexpected arguments");
    assert_rejects(
        bin,
        &["BFS", "kron", "TX1", "gpu", "extra"],
        "unexpected arguments",
    );
    // Removed flags take the same unknown-flag path.
    assert_rejects(
        bin,
        &["BFS", "kron", "TX1", "gpu", "--sim-threads", "2"],
        "unexpected arguments",
    );
    assert_rejects(
        bin,
        &["BFS", "kron", "TX1", "gpu", "--no-trace-cache"],
        "unexpected arguments",
    );
}

#[test]
fn sweep_binaries_reject_filters_matching_nothing() {
    for bin in [
        env!("CARGO_BIN_EXE_reproduce_all"),
        env!("CARGO_BIN_EXE_export_json"),
    ] {
        assert_rejects(
            bin,
            &["--filter", "no-such-cell"],
            "--filter 'no-such-cell' matches none",
        );
    }
}

#[test]
fn resume_without_the_store_is_rejected() {
    // The journal lives in the result store, which --no-cache turns
    // off, so the pair can only be a mistake.
    assert_rejects(
        env!("CARGO_BIN_EXE_export_json"),
        &["--no-cache", "--resume"],
        "--resume reads the journal in the result store, which --no-cache",
    );
}
