//! `--no-cache` means "do not read or write the result store": an
//! uncached run in an empty working directory must not even create
//! `results/cache`.

use std::path::PathBuf;
use std::process::Command;

/// A fresh, empty working directory for one binary run.
fn empty_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("scu-no-cache-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn assert_uncached_run_opens_no_store(tag: &str, bin: &str, args: &[&str]) {
    let dir = empty_dir(tag);
    let out = Command::new(bin)
        .args(args)
        .current_dir(&dir)
        .env("SCU_SCALE", "0.0078125")
        .output()
        .expect("binary spawns");
    assert!(
        out.status.success(),
        "{args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        !dir.join("results/cache").exists(),
        "{args:?} created a result store"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_one_no_cache_opens_no_store() {
    assert_uncached_run_opens_no_store(
        "run-one",
        env!("CARGO_BIN_EXE_run_one"),
        &["BFS", "cond", "TX1", "gpu", "--no-cache"],
    );
}

#[test]
fn export_json_no_cache_opens_no_store() {
    assert_uncached_run_opens_no_store(
        "export-json",
        env!("CARGO_BIN_EXE_export_json"),
        &["--no-cache", "--filter", "BFS/cond", "--jobs", "2"],
    );
}
