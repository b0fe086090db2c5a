//! Offline stand-in for `criterion`.
//!
//! The build environment has no network and no registry cache, so the
//! real criterion cannot be resolved. This crate keeps the calling
//! convention of the subset the workspace's benches use —
//! [`Criterion::benchmark_group`], `sample_size`, `bench_function`,
//! [`BenchmarkId::new`], [`criterion_group!`]/[`criterion_main!`] —
//! and reports min/mean/max wall-clock per iteration on stdout. No
//! statistical analysis or plots.
//!
//! Two environment variables make the stub scriptable for regression
//! gating (see `EXPERIMENTS.md`):
//!
//! - `SCU_BENCH_JSON=PATH` — append one JSON line per finished
//!   benchmark (`{"name", "min_ns", "mean_ns", "max_ns", "samples"}`)
//!   to `PATH`. Append-only so every bench binary of a `cargo bench`
//!   run can share one file.
//! - `SCU_BENCH_SAMPLES=N` — override every group's `sample_size`,
//!   letting CI run a fast smoke pass without editing the benches.

use std::io::Write as _;
use std::time::{Duration, Instant};

/// A two-part benchmark name (`function/parameter`).
#[derive(Debug, Clone)]
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// Joins a function name and parameter display.
    pub fn new(function: impl std::fmt::Display, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId(format!("{function}/{parameter}"))
    }
}

/// Anything usable as a benchmark name.
pub trait IntoBenchmarkId {
    /// The rendered name.
    fn into_id(self) -> String;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_id(self) -> String {
        self.0
    }
}

impl IntoBenchmarkId for &str {
    fn into_id(self) -> String {
        self.to_string()
    }
}

impl IntoBenchmarkId for String {
    fn into_id(self) -> String {
        self
    }
}

/// Per-iteration timer handed to the bench closure.
pub struct Bencher {
    samples: Vec<Duration>,
}

impl Bencher {
    /// Times one execution of `f` and records it as a sample.
    pub fn iter<T>(&mut self, mut f: impl FnMut() -> T) {
        let start = Instant::now();
        let out = f();
        self.samples.push(start.elapsed());
        drop(out);
    }
}

/// A named collection of benchmarks sharing a sample count.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets how many samples each benchmark takes
    /// (`SCU_BENCH_SAMPLES` overrides the requested count).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = sample_override().unwrap_or(n).max(1);
        self
    }

    /// Runs one benchmark: `f` is invoked once per sample with a
    /// [`Bencher`]; each `Bencher::iter` call contributes one sample.
    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkId, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id.into_id());
        let mut b = Bencher {
            samples: Vec::with_capacity(self.sample_size + 1),
        };
        // Warm-up sample, discarded.
        f(&mut b);
        b.samples.clear();
        for _ in 0..self.sample_size {
            f(&mut b);
        }
        report(&full, &b.samples);
        self
    }

    /// Ends the group (layout parity with real criterion).
    pub fn finish(self) {}
}

/// The benchmark driver.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Opens a named group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: 100,
            _criterion: self,
        }
    }

    /// Runs a single ungrouped benchmark with default sampling.
    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkId, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut g = self.benchmark_group("bench");
        g.sample_size(100).bench_function(id, f);
        g.finish();
        self
    }
}

/// The `SCU_BENCH_SAMPLES` override, if set to a positive integer.
fn sample_override() -> Option<usize> {
    std::env::var("SCU_BENCH_SAMPLES")
        .ok()?
        .parse::<usize>()
        .ok()
        .filter(|&n| n > 0)
}

fn report(name: &str, samples: &[Duration]) {
    if samples.is_empty() {
        println!("{name:<48} no samples recorded");
        return;
    }
    let min = samples.iter().min().expect("non-empty");
    let max = samples.iter().max().expect("non-empty");
    let mean = samples.iter().sum::<Duration>() / samples.len() as u32;
    println!(
        "{name:<48} {:>12} {:>12} {:>12}  ({} samples)",
        fmt_duration(*min),
        fmt_duration(mean),
        fmt_duration(*max),
        samples.len(),
    );
    if let Ok(path) = std::env::var("SCU_BENCH_JSON") {
        if !path.is_empty() {
            if let Err(e) = append_json_line(&path, name, *min, mean, *max, samples.len()) {
                eprintln!("SCU_BENCH_JSON: cannot append to {path}: {e}");
            }
        }
    }
}

/// Appends one benchmark result as a JSON line (the format
/// `bench_gate` consumes). Hand-rolled serialisation: the stub has no
/// serde, and the only string field needs just quote/backslash escapes.
fn append_json_line(
    path: &str,
    name: &str,
    min: Duration,
    mean: Duration,
    max: Duration,
    samples: usize,
) -> std::io::Result<()> {
    let escaped: String = name
        .chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            _ => vec![c],
        })
        .collect();
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(
        f,
        "{{\"name\":\"{escaped}\",\"min_ns\":{},\"mean_ns\":{},\"max_ns\":{},\"samples\":{samples}}}",
        min.as_nanos(),
        mean.as_nanos(),
        max.as_nanos(),
    )
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 10_000 {
        format!("{ns} ns")
    } else if ns < 10_000_000 {
        format!("{:.2} us", ns as f64 / 1e3)
    } else if ns < 10_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

/// Declares a bench group entry point: `criterion_group!(name, fns...)`
/// defines `fn name()` running each target against a fresh
/// [`Criterion`].
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares `main()` invoking each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            println!(
                "{:<48} {:>12} {:>12} {:>12}",
                "benchmark", "min", "mean", "max"
            );
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_collects_requested_samples() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("t");
        let mut calls = 0u32;
        g.sample_size(5).bench_function("count", |b| {
            b.iter(|| {
                calls += 1;
            });
        });
        g.finish();
        // 5 samples + 1 warm-up.
        assert_eq!(calls, 6);
    }

    #[test]
    fn benchmark_id_joins_parts() {
        assert_eq!(BenchmarkId::new("algo", 42).into_id(), "algo/42");
    }

    #[test]
    fn json_lines_append_and_escape() {
        let dir = std::env::temp_dir().join(format!("scu-criterion-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.jsonl");
        let p = path.to_str().unwrap();
        append_json_line(
            p,
            "grp/with \"quote\"",
            Duration::from_nanos(10),
            Duration::from_nanos(20),
            Duration::from_nanos(30),
            5,
        )
        .unwrap();
        append_json_line(
            p,
            "grp/second",
            Duration::from_nanos(1),
            Duration::from_nanos(2),
            Duration::from_nanos(3),
            1,
        )
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"name\":\"grp/with \\\"quote\\\"\",\"min_ns\":10,\"mean_ns\":20,\"max_ns\":30,\"samples\":5}"
        );
        assert!(lines[1].contains("\"name\":\"grp/second\""));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durations_format_by_magnitude() {
        assert_eq!(fmt_duration(Duration::from_nanos(50)), "50 ns");
        assert!(fmt_duration(Duration::from_micros(500)).ends_with("us"));
        assert!(fmt_duration(Duration::from_millis(500)).ends_with("ms"));
        assert!(fmt_duration(Duration::from_secs(20)).ends_with("s"));
    }
}
