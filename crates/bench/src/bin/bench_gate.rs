//! Perf-regression gate over the criterion suite.
//!
//! ```text
//! bench_gate RESULTS.jsonl [--baseline PATH] [--tolerance PCT] [--update]
//! ```
//!
//! `RESULTS.jsonl` is the file a bench run appends via
//! `SCU_BENCH_JSON` (one JSON object per benchmark). The committed
//! baseline (`BENCH_baseline.json` by default) maps benchmark names to
//! reference timings; the gate fails (exit 1) when any benchmark's
//! best-of-run (`min_ns`, the noise-robust statistic) regresses more
//! than the tolerance (default 10%) over its baseline entry.
//!
//! `--update` rewrites the baseline's `benchmarks` section from the
//! results instead of comparing, preserving any other top-level keys
//! (e.g. the recorded `reproduce_all` wall-clock). Run it on the
//! reference machine after intentional perf changes and commit the
//! result; see `EXPERIMENTS.md` for the workflow.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::exit;

use serde_json::Value;

/// One benchmark measurement, from either side of the comparison.
#[derive(Debug, Clone, Copy)]
struct Sample {
    min_ns: f64,
    mean_ns: f64,
}

fn usage() -> ! {
    eprintln!("usage: bench_gate RESULTS.jsonl [--baseline PATH] [--tolerance PCT] [--update]");
    exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("bench_gate: {msg}");
    exit(2);
}

/// Parses the JSONL results file into name → sample (last write wins,
/// matching a rerun appending to the same file).
fn read_results(path: &PathBuf) -> BTreeMap<String, Sample> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("cannot read {}: {e}", path.display())));
    let mut out = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v: Value = serde_json::from_str(line).unwrap_or_else(|e| {
            fail(&format!(
                "{}:{}: bad JSON line: {e}",
                path.display(),
                lineno + 1
            ))
        });
        let name = v.get("name").and_then(Value::as_str).unwrap_or_else(|| {
            fail(&format!(
                "{}:{}: missing \"name\"",
                path.display(),
                lineno + 1
            ))
        });
        let num = |key: &str| {
            v.get(key).and_then(Value::as_f64).unwrap_or_else(|| {
                fail(&format!(
                    "{}:{}: missing numeric \"{key}\"",
                    path.display(),
                    lineno + 1
                ))
            })
        };
        out.insert(
            name.to_string(),
            Sample {
                min_ns: num("min_ns"),
                mean_ns: num("mean_ns"),
            },
        );
    }
    if out.is_empty() {
        fail(&format!("{}: no benchmark results", path.display()));
    }
    out
}

/// Loads the baseline document (or an empty object for `--update` on a
/// fresh repo).
fn read_baseline(path: &PathBuf, must_exist: bool) -> Value {
    match std::fs::read_to_string(path) {
        Ok(text) => serde_json::from_str(&text)
            .unwrap_or_else(|e| fail(&format!("{}: bad JSON: {e}", path.display()))),
        Err(_) if !must_exist => Value::Object(Vec::new()),
        Err(e) => fail(&format!("cannot read {}: {e}", path.display())),
    }
}

fn update_baseline(path: &PathBuf, results: &BTreeMap<String, Sample>) {
    let doc = read_baseline(path, false);
    let mut entries: Vec<(String, Value)> = doc
        .as_object()
        .map(<[(String, Value)]>::to_vec)
        .unwrap_or_default();
    // Stale copies of the sections this tool owns are replaced below.
    entries.retain(|(k, _)| k != "schema" && k != "benchmarks");

    let benches: Vec<(String, Value)> = results
        .iter()
        .map(|(name, s)| {
            (
                name.clone(),
                Value::Object(vec![
                    ("min_ns".to_string(), Value::F64(s.min_ns)),
                    ("mean_ns".to_string(), Value::F64(s.mean_ns)),
                ]),
            )
        })
        .collect();
    let mut out = vec![(
        "schema".to_string(),
        Value::Str("scu-bench-baseline-1".to_string()),
    )];
    out.extend(entries);
    out.push(("benchmarks".to_string(), Value::Object(benches)));

    let text =
        serde_json::to_string_pretty(&Value::Object(out)).expect("serialising a Value cannot fail");
    std::fs::write(path, text + "\n")
        .unwrap_or_else(|e| fail(&format!("cannot write {}: {e}", path.display())));
    println!(
        "baseline {} updated with {} benchmark(s)",
        path.display(),
        results.len()
    );
}

fn compare(path: &PathBuf, results: &BTreeMap<String, Sample>, tolerance_pct: f64) -> i32 {
    let doc = read_baseline(path, true);
    let Some(benches) = doc.get("benchmarks").and_then(Value::as_object) else {
        fail(&format!("{}: no \"benchmarks\" section", path.display()));
    };

    let limit = 1.0 + tolerance_pct / 100.0;
    let mut regressions = 0u32;
    let mut missing = 0u32;
    println!(
        "{:<48} {:>12} {:>12} {:>8}  verdict (tolerance {tolerance_pct}%)",
        "benchmark", "base min", "run min", "ratio"
    );
    for (name, base) in benches {
        let base_min = base
            .get("min_ns")
            .and_then(Value::as_f64)
            .unwrap_or_else(|| {
                fail(&format!(
                    "{}: benchmark {name} has no min_ns",
                    path.display()
                ))
            });
        let Some(cur) = results.get(name.as_str()) else {
            println!(
                "{name:<48} {base_min:>12.0} {:>12} {:>8}  MISSING from results",
                "-", "-"
            );
            missing += 1;
            continue;
        };
        let ratio = cur.min_ns / base_min.max(f64::MIN_POSITIVE);
        let verdict = if ratio > limit {
            regressions += 1;
            "REGRESSION"
        } else {
            "ok"
        };
        println!(
            "{name:<48} {base_min:>12.0} {:>12.0} {ratio:>8.3}  {verdict}",
            cur.min_ns
        );
    }
    for name in results.keys() {
        if !benches.iter().any(|(k, _)| k == name) {
            println!("{name:<48} not in baseline — run --update to record it");
        }
    }

    if regressions > 0 {
        eprintln!(
            "bench_gate: {regressions} benchmark(s) regressed beyond {tolerance_pct}% \
             — investigate or refresh the baseline with --update"
        );
        return 1;
    }
    if missing > 0 {
        eprintln!(
            "bench_gate: {missing} baseline benchmark(s) missing from the run \
             — did every bench target execute?"
        );
        return 1;
    }
    println!("bench_gate: all benchmarks within {tolerance_pct}% of baseline");
    0
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut results_path: Option<PathBuf> = None;
    let mut baseline = PathBuf::from("BENCH_baseline.json");
    let mut tolerance_pct = 10.0f64;
    let mut update = false;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--baseline" => {
                baseline = it.next().map(PathBuf::from).unwrap_or_else(|| usage());
            }
            "--tolerance" => {
                tolerance_pct = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|t: &f64| t.is_finite() && *t >= 0.0)
                    .unwrap_or_else(|| usage());
            }
            "--update" => update = true,
            "--help" | "-h" => usage(),
            other if !other.starts_with('-') && results_path.is_none() => {
                results_path = Some(PathBuf::from(other));
            }
            other => fail(&format!("unknown argument '{other}'")),
        }
    }
    let Some(results_path) = results_path else {
        usage();
    };

    let results = read_results(&results_path);
    if update {
        update_baseline(&baseline, &results);
    } else {
        exit(compare(&baseline, &results, tolerance_pct));
    }
}
