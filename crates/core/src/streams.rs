//! Sequential stream readers/writers for the SCU pipeline model.
//!
//! The Address Generator walks its input vectors (data, bitmask,
//! indexes, count) strictly sequentially and the Data Store writes the
//! compacted output strictly sequentially (§3.2). At line granularity
//! that means each stream touches each cache line exactly once; these
//! helpers detect line crossings so the device model issues exactly one
//! memory transaction per line per stream.

use scu_mem::cache::AccessKind;
use scu_mem::line::{Addr, LineSize};
use scu_mem::system::{MemorySystem, TxRun};

/// Tracks a sequential stream and issues one memory access per new
/// line touched.
#[derive(Debug, Clone)]
pub struct SeqStream {
    kind: AccessKind,
    line_size: LineSize,
    last_line: Option<Addr>,
    accesses: u64,
    latency_ns: f64,
}

impl SeqStream {
    /// Creates a reader (`AccessKind::Read`) or writer
    /// (`AccessKind::Write`) stream at 128-byte line granularity.
    pub fn new(kind: AccessKind) -> Self {
        SeqStream {
            kind,
            line_size: LineSize::L128,
            last_line: None,
            accesses: 0,
            latency_ns: 0.0,
        }
    }

    /// Touches `bytes` bytes at `addr`; issues a transaction for each
    /// line not already in flight.
    ///
    /// Only the first line of a span can already be in flight (each
    /// access re-anchors the in-flight line), so after skipping it the
    /// remainder is a clean consecutive run, expressed as one [`TxRun`]
    /// and applied through the shared [`MemorySystem::apply_run`].
    pub fn touch(&mut self, mem: &mut MemorySystem, addr: Addr, bytes: u64) {
        if bytes == 0 {
            return;
        }
        let first = self.line_size.line_of(addr);
        let last = self.line_size.line_of(addr + bytes - 1);
        let step = self.line_size.bytes() as Addr;
        let start = if self.last_line == Some(first) {
            if first == last {
                return;
            }
            first + step
        } else {
            first
        };
        let lines = (last - start) / step + 1;
        let run = mem.apply_run(TxRun {
            addr: start,
            lines,
            kind: self.kind,
        });
        self.accesses += run.lines;
        self.latency_ns += run.latency_ns;
        self.last_line = Some(last);
    }

    /// Number of line transactions issued.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Sum of observed access latencies, ns.
    pub fn latency_ns(&self) -> f64 {
        self.latency_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scu_mem::system::MemorySystemConfig;

    fn mem() -> MemorySystem {
        MemorySystem::new(MemorySystemConfig::tx1())
    }

    #[test]
    fn sequential_words_touch_each_line_once() {
        let mut m = mem();
        let mut s = SeqStream::new(AccessKind::Read);
        for i in 0..256u64 {
            s.touch(&mut m, i * 4, 4);
        }
        // 1024 bytes = 8 lines.
        assert_eq!(s.accesses(), 8);
        assert_eq!(m.stats().l2.accesses, 8);
    }

    #[test]
    fn straddling_touch_accesses_both_lines() {
        let mut m = mem();
        let mut s = SeqStream::new(AccessKind::Read);
        s.touch(&mut m, 124, 8); // crosses 128-byte boundary
        assert_eq!(s.accesses(), 2);
    }

    #[test]
    fn zero_bytes_is_noop() {
        let mut m = mem();
        let mut s = SeqStream::new(AccessKind::Write);
        s.touch(&mut m, 0, 0);
        assert_eq!(s.accesses(), 0);
    }

    #[test]
    fn rereading_same_line_is_free() {
        let mut m = mem();
        let mut s = SeqStream::new(AccessKind::Read);
        s.touch(&mut m, 0, 4);
        s.touch(&mut m, 4, 4);
        s.touch(&mut m, 0, 4); // stream model: still on the same line
        assert_eq!(s.accesses(), 1);
    }

    #[test]
    fn writer_generates_write_traffic() {
        let mut m = mem();
        let mut s = SeqStream::new(AccessKind::Write);
        for i in 0..64u64 {
            s.touch(&mut m, i * 4, 4);
        }
        assert_eq!(m.stats().l2.writes, 2); // 256 B = 2 lines
    }

    #[test]
    fn latency_accumulates() {
        let mut m = mem();
        let mut s = SeqStream::new(AccessKind::Read);
        s.touch(&mut m, 0, 4);
        assert!(s.latency_ns() > 0.0);
    }

    #[test]
    fn large_touch_spans_many_lines() {
        let mut m = mem();
        let mut s = SeqStream::new(AccessKind::Read);
        s.touch(&mut m, 0, 128 * 10);
        assert_eq!(s.accesses(), 10);
    }
}
