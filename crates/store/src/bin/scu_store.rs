//! `scu_store` — inspect a result-store directory.
//!
//! ```text
//! scu_store stat DIR
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use scu_store::LsmStore;

const USAGE: &str = "usage:
  scu_store stat DIR
      show a store directory's counters and resumable cells";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("stat") => run_stat(&args[1..]),
        Some("--help" | "-h") | None => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("scu_store: unknown command '{other}'\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run_stat(args: &[String]) -> ExitCode {
    let [dir] = args else {
        eprintln!("scu_store stat: exactly one directory expected\n{USAGE}");
        return ExitCode::from(2);
    };
    let dir = PathBuf::from(dir);
    match LsmStore::open(&dir) {
        Ok(store) => {
            let stats = store.stats();
            println!("dir:                  {}", dir.display());
            println!("quarantined (kept):   {}", stats.quarantined_total);
            println!("recovered records:    {}", stats.recovered_records);
            println!("truncated tail bytes: {}", stats.truncated_tail_bytes);
            match store.resume_state() {
                Ok(state) => println!("resumable cells:      {}", state.values.len()),
                Err(e) => println!("resumable cells:      unreadable ({e})"),
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("scu_store stat: cannot open {}: {e}", dir.display());
            ExitCode::FAILURE
        }
    }
}
