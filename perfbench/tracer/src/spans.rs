//! In-memory span recorder for the traced benchmark run.
//!
//! Every call the benchmark makes into a crate's public API is wrapped
//! in a span: name (`<layer>.<what>`), optional detail (a cell id),
//! start, end, parent span and the run id. Spans stay in memory until
//! the run ends; then they are summarised into per-layer self times
//! and written as a Chrome-trace JSON document.
//!
//! A span's parent is the innermost open span on the same thread, or
//! an explicit id for work handed to another thread (a sweep worker
//! running a cell).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// Parent span id, 0 for a root.
    pub parent: u64,
    pub name: &'static str,
    pub detail: String,
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span belongs to: the name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

fn recorder() -> &'static Recorder {
    static REC: OnceLock<Recorder> = OnceLock::new();
    REC.get_or_init(|| Recorder {
        epoch: Instant::now(),
        spans: Mutex::new(Vec::new()),
    })
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

fn now_ns() -> u64 {
    recorder().epoch.elapsed().as_nanos() as u64
}

/// The innermost open span on this thread (0 when none).
pub fn current() -> u64 {
    STACK.with(|s| s.borrow().last().copied().unwrap_or(0))
}

/// Pops the span off the thread's stack and records it, also when the
/// traced call unwinds.
struct Open {
    id: u64,
    parent: u64,
    name: &'static str,
    detail: String,
    start_ns: u64,
}

impl Drop for Open {
    fn drop(&mut self) {
        let end_ns = now_ns();
        STACK.with(|s| s.borrow_mut().pop());
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            detail: std::mem::take(&mut self.detail),
            thread: THREAD.with(|t| *t),
            start_ns: self.start_ns,
            end_ns,
        };
        if let Ok(mut spans) = recorder().spans.lock() {
            spans.push(span);
        }
    }
}

/// Runs `f` inside a span whose parent is this thread's open span.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    span_under(current(), name, String::new(), f)
}

/// Runs `f` inside a span with an explicit parent and detail label.
pub fn span_under<T>(parent: u64, name: &'static str, detail: String, f: impl FnOnce() -> T) -> T {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    STACK.with(|s| s.borrow_mut().push(id));
    let _open = Open {
        id,
        parent,
        name,
        detail,
        start_ns: now_ns(),
    };
    f()
}

/// Every span recorded so far, ordered by start time.
pub fn take() -> Vec<Span> {
    let mut spans = std::mem::take(&mut *recorder().spans.lock().expect("span list poisoned"));
    spans.sort_by_key(|s| (s.start_ns, s.id));
    spans
}

/// Self time of every span: its duration minus the time covered by
/// its children. Children on other threads count too, by the union of
/// their intervals, so a span that waits on parallel workers keeps only
/// the time during which none of them ran.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: BTreeMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            let (a, b) = (spans[p].start_ns, spans[p].end_ns);
            children[p].push((s.start_ns.clamp(a, b), s.end_ns.clamp(a, b)));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, c)| s.dur_ns().saturating_sub(covered_ns(c)))
        .collect()
}

/// Length of the union of the given `[start, end)` intervals.
pub fn covered_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in intervals {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

fn json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The spans as a Chrome-trace (`chrome://tracing`, Perfetto) document.
pub fn chrome_trace(spans: &[Span], run_id: &str) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str("{\"name\":");
        json_str(&mut out, s.name);
        out.push_str(",\"cat\":");
        json_str(&mut out, s.layer());
        let _ = write!(
            out,
            ",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"run\":",
            s.thread,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.id,
            s.parent
        );
        json_str(&mut out, run_id);
        out.push_str(",\"detail\":");
        json_str(&mut out, &s.detail);
        out.push_str("}}");
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(covered_ns(vec![(0, 10), (5, 15), (20, 30)]), 25);
        assert_eq!(covered_ns(Vec::new()), 0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mk = |id, parent, thread, start_ns, end_ns| Span {
            id,
            parent,
            name: "bench.x",
            detail: String::new(),
            thread,
            start_ns,
            end_ns,
        };
        let spans = vec![mk(1, 0, 1, 0, 100), mk(2, 1, 1, 10, 40), mk(3, 1, 2, 0, 90)];
        assert_eq!(self_times(&spans), vec![10, 30, 90]);
    }
}
