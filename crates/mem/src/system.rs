//! Combined L2 + DRAM memory system.
//!
//! Both the GPU model (`scu-gpu`) and the SCU device model (`scu-core`)
//! issue line-granularity transactions into one shared
//! [`MemorySystem`], mirroring Figure 5 of the paper where the SCU sits
//! on the SM interconnect with access to the shared L2. Private L1
//! caches live in the GPU model; everything behind them is here.

use crate::cache::{AccessKind, Cache, CacheConfig};
use crate::dram::{Dram, DramConfig};
use crate::line::{Addr, LineSize};
use crate::stats::MemoryStats;
use scu_trace::{Event, MemSource, Probe};

/// Parameters of a [`MemorySystem`].
#[derive(Debug, Clone)]
pub struct MemorySystemConfig {
    /// Shared L2 geometry.
    pub l2: CacheConfig,
    /// DRAM device parameters.
    pub dram: DramConfig,
    /// L2 hit latency in nanoseconds (interconnect + array).
    pub l2_hit_latency_ns: f64,
    /// Peak L2 throughput in bytes per nanosecond, used as a service
    /// bound for traffic windows.
    pub l2_bw_bytes_per_ns: f64,
}

impl MemorySystemConfig {
    /// GTX 980 memory side: 2 MB 16-way L2, 4 GB GDDR5 @ 224 GB/s
    /// (paper Table 3).
    pub fn gtx980() -> Self {
        MemorySystemConfig {
            l2: CacheConfig::new(2 * 1024 * 1024, LineSize::L128, 16)
                .expect("static geometry is valid"),
            dram: DramConfig::gddr5_4gb(),
            l2_hit_latency_ns: 24.0,
            // L2 can source roughly 1 line / 2 core cycles @1.27 GHz.
            l2_bw_bytes_per_ns: 512.0,
        }
    }

    /// Tegra X1 memory side: 256 KB 16-way L2, 4 GB LPDDR4 @ 25.6 GB/s
    /// (paper Table 4).
    pub fn tx1() -> Self {
        MemorySystemConfig {
            l2: CacheConfig::new(256 * 1024, LineSize::L128, 16).expect("static geometry is valid"),
            dram: DramConfig::lpddr4_4gb(),
            l2_hit_latency_ns: 28.0,
            l2_bw_bytes_per_ns: 64.0,
        }
    }
}

/// Outcome of one memory-system access.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemOutcome {
    /// The access hit in the shared L2.
    pub l2_hit: bool,
    /// End-to-end latency observed by the requester, ns.
    pub latency_ns: f64,
}

/// Aggregate outcome of a batched [`MemorySystem::access_run`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunOutcome {
    /// Number of line accesses performed.
    pub lines: u64,
    /// How many of them hit in the shared L2.
    pub l2_hits: u64,
    /// Summed end-to-end latency over the run, ns.
    pub latency_ns: f64,
}

/// One L2-bound transaction run: `lines` consecutive line accesses
/// starting at `addr`, all of `kind`.
///
/// The SCU's sequential streams reduce to a sequence of `TxRun`s
/// applied through [`MemorySystem::apply_run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxRun {
    /// First line's address (any byte within the line).
    pub addr: Addr,
    /// Number of consecutive lines; must be at least 1.
    pub lines: u64,
    /// Read or write, applied to every line of the run.
    pub kind: AccessKind,
}

/// Shared L2 + DRAM.
///
/// ```
/// use scu_mem::{AccessKind, MemorySystem, MemorySystemConfig};
///
/// let mut mem = MemorySystem::new(MemorySystemConfig::tx1());
/// mem.access(0x0, AccessKind::Write);
/// let snap = mem.stats();
/// assert_eq!(snap.l2.accesses, 1);
/// assert_eq!(snap.dram.reads, 1); // write-allocate fill
/// ```
#[derive(Debug, Clone)]
pub struct MemorySystem {
    cfg: MemorySystemConfig,
    l2: Cache,
    dram: Dram,
    l2_bytes: u64,
    probe: Probe,
    window_anchor: MemoryStats,
}

impl MemorySystem {
    /// Creates a cold memory system.
    pub fn new(cfg: MemorySystemConfig) -> Self {
        let l2 = Cache::new(cfg.l2);
        let dram = Dram::new(cfg.dram.clone());
        MemorySystem {
            cfg,
            l2,
            dram,
            l2_bytes: 0,
            probe: Probe::off(),
            window_anchor: MemoryStats::default(),
        }
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &MemorySystemConfig {
        &self.cfg
    }

    /// Attaches (or detaches, with [`Probe::off`]) the trace probe and
    /// re-anchors the traffic window at the current counters.
    pub fn set_probe(&mut self, probe: Probe) {
        self.probe = probe;
        self.window_anchor = self.stats();
    }

    /// Emits an [`Event::MemWindow`] covering all traffic since the
    /// last window (or since [`MemorySystem::set_probe`]) attributed to
    /// `source`, and re-anchors the window.
    pub fn emit_window(&mut self, source: MemSource) {
        let now = self.stats();
        self.probe.emit_with(|| Event::MemWindow {
            source,
            stats: Box::new(now.since(&self.window_anchor)),
        });
        self.window_anchor = now;
    }

    /// Performs one line-granularity access.
    ///
    /// Misses fill from DRAM (write-allocate); dirty victims write back
    /// to DRAM. The returned latency covers L2 plus any DRAM fill; the
    /// write-back is charged to bandwidth, not the requester's latency.
    pub fn access(&mut self, addr: Addr, kind: AccessKind) -> MemOutcome {
        self.l2_bytes += self.cfg.l2.line_size.bytes() as u64;
        let out = self.l2.access(addr, kind);
        let mut latency = self.cfg.l2_hit_latency_ns;
        if !out.hit {
            let fill = self.dram.access(addr, AccessKind::Read);
            latency += fill.latency_ns;
        }
        if out.dirty_eviction {
            // Victim address is unknown at line granularity in a
            // tag-only model; charge the write-back at the accessed
            // address's bank neighbourhood, which preserves traffic and
            // approximate locality.
            self.dram.access(addr, AccessKind::Write);
        }
        if self.probe.wants_mem_access() {
            self.probe.emit(Event::MemAccess {
                addr,
                write: matches!(kind, AccessKind::Write),
                l2_hit: out.hit,
            });
        }
        MemOutcome {
            l2_hit: out.hit,
            latency_ns: latency,
        }
    }

    /// Performs `lines` consecutive line-granularity accesses starting
    /// at `addr`, one line apart — the batched fast path for coalesced
    /// runs (sequential stream reads/writes, warp-coalesced spans).
    ///
    /// Behaviour is access-for-access identical to calling
    /// [`MemorySystem::access`] once per line in ascending address
    /// order; only the per-access overhead is amortised: the L2
    /// bandwidth counter is bumped once for the whole run and the
    /// trace-probe branch is hoisted out of the loop. The returned
    /// outcome aggregates the run: `latency_ns` is the sum over the
    /// individual accesses and `l2_hits` counts how many of them hit.
    pub fn access_run(&mut self, addr: Addr, lines: u64, kind: AccessKind) -> RunOutcome {
        let line_bytes = self.cfg.l2.line_size.bytes() as u64;
        self.l2_bytes += line_bytes * lines;
        let is_write = matches!(kind, AccessKind::Write);
        let want_trace = self.probe.wants_mem_access();
        let mut hits = 0u64;
        let mut latency = 0.0;
        let mut a = addr;
        for _ in 0..lines {
            let out = self.l2.access(a, kind);
            latency += self.cfg.l2_hit_latency_ns;
            if out.hit {
                hits += 1;
            } else {
                let fill = self.dram.access(a, AccessKind::Read);
                latency += fill.latency_ns;
            }
            if out.dirty_eviction {
                self.dram.access(a, AccessKind::Write);
            }
            if want_trace {
                self.probe.emit(Event::MemAccess {
                    addr: a,
                    write: is_write,
                    l2_hit: out.hit,
                });
            }
            a += line_bytes;
        }
        RunOutcome {
            lines,
            l2_hits: hits,
            latency_ns: latency,
        }
    }

    /// Applies one [`TxRun`]: the single replay entry point for
    /// ordered transaction streams.
    ///
    /// Behaviour is exactly [`MemorySystem::access`] for a one-line
    /// run and [`MemorySystem::access_run`] otherwise — access for
    /// access, in ascending address order — so a stream replayed
    /// through `apply_run` drives the L2/DRAM through the identical
    /// state sequence as the loop that recorded it.
    pub fn apply_run(&mut self, run: TxRun) -> RunOutcome {
        if run.lines == 1 {
            let out = self.access(run.addr, run.kind);
            RunOutcome {
                lines: 1,
                l2_hits: out.l2_hit as u64,
                latency_ns: out.latency_ns,
            }
        } else {
            self.access_run(run.addr, run.lines, run.kind)
        }
    }

    /// A sector-granularity access (32 bytes of L2 bandwidth instead
    /// of a full line) — used for the SCU's hash-table probes, whose
    /// entries are 4-32 bytes ("bytes/line" in the paper's Table 2).
    /// DRAM behaviour on a miss is unchanged (a full line still
    /// fills), only the on-chip bandwidth accounting narrows.
    pub fn access_sector(&mut self, addr: Addr, kind: AccessKind) -> MemOutcome {
        self.l2_bytes += 32;
        let out = self.l2.access(addr, kind);
        let mut latency = self.cfg.l2_hit_latency_ns;
        if !out.hit {
            let fill = self.dram.access(addr, AccessKind::Read);
            latency += fill.latency_ns;
        }
        if out.dirty_eviction {
            self.dram.access(addr, AccessKind::Write);
        }
        if self.probe.wants_mem_access() {
            self.probe.emit(Event::MemAccess {
                addr,
                write: matches!(kind, AccessKind::Write),
                l2_hit: out.hit,
            });
        }
        MemOutcome {
            l2_hit: out.hit,
            latency_ns: latency,
        }
    }

    /// Reads the DRAM line behind the L2 without allocating — used for
    /// streaming traffic that the modelled hardware marks non-cacheable.
    pub fn access_uncached(&mut self, addr: Addr, kind: AccessKind) -> MemOutcome {
        let a = self.dram.access(addr, kind);
        if self.probe.wants_mem_access() {
            self.probe.emit(Event::MemAccess {
                addr,
                write: matches!(kind, AccessKind::Write),
                l2_hit: false,
            });
        }
        MemOutcome {
            l2_hit: false,
            latency_ns: a.latency_ns,
        }
    }

    /// Combined counters snapshot.
    pub fn stats(&self) -> MemoryStats {
        MemoryStats {
            l2: *self.l2.stats(),
            dram: *self.dram.stats(),
        }
    }

    /// Minimum service time for all traffic issued so far: the max of
    /// the DRAM bound and the L2 throughput bound, ns.
    pub fn service_time_ns(&self) -> f64 {
        let l2_time = self.l2_bytes as f64 / self.cfg.l2_bw_bytes_per_ns;
        self.dram.busy_time_ns().max(l2_time)
    }

    /// DRAM-only service bound, ns (used for Figure 13 bandwidth
    /// utilisation).
    pub fn dram_busy_time_ns(&self) -> f64 {
        self.dram.busy_time_ns()
    }

    /// Direct access to the L2 model (for probing in tests/ablation).
    pub fn l2(&self) -> &Cache {
        &self.l2
    }

    /// Direct access to the DRAM model.
    pub fn dram(&self) -> &Dram {
        &self.dram
    }

    /// Resets all statistics and busy time, keeping cache/row state.
    pub fn reset_stats(&mut self) {
        self.l2.reset_stats();
        self.dram.reset_stats();
        self.l2_bytes = 0;
    }

    /// Fully clears caches, rows and statistics.
    pub fn clear(&mut self) {
        self.l2.clear();
        self.dram.clear();
        self.l2_bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit() {
        let mut m = MemorySystem::new(MemorySystemConfig::gtx980());
        let first = m.access(0x4000, AccessKind::Read);
        assert!(!first.l2_hit);
        let second = m.access(0x4000, AccessKind::Read);
        assert!(second.l2_hit);
        assert!(second.latency_ns < first.latency_ns);
    }

    #[test]
    fn write_allocate_generates_fill() {
        let mut m = MemorySystem::new(MemorySystemConfig::tx1());
        m.access(0, AccessKind::Write);
        let s = m.stats();
        assert_eq!(s.dram.reads, 1);
        assert_eq!(s.dram.writes, 0);
    }

    #[test]
    fn dirty_eviction_writes_back() {
        let mut m = MemorySystem::new(MemorySystemConfig::tx1());
        let sets = m.config().l2.num_sets();
        let ways = m.config().l2.associativity as u64;
        let stride = sets * 128;
        // Fill one set with dirty lines, then one more to force a
        // dirty write-back.
        for i in 0..=ways {
            m.access(i * stride, AccessKind::Write);
        }
        assert!(m.stats().dram.writes >= 1);
    }

    #[test]
    fn uncached_bypasses_l2() {
        let mut m = MemorySystem::new(MemorySystemConfig::tx1());
        m.access_uncached(0, AccessKind::Read);
        assert_eq!(m.stats().l2.accesses, 0);
        assert_eq!(m.stats().dram.reads, 1);
        // Line is not resident afterwards.
        assert!(!m.l2().probe(0));
    }

    #[test]
    fn service_time_grows_with_traffic() {
        let mut m = MemorySystem::new(MemorySystemConfig::tx1());
        let t0 = m.service_time_ns();
        for i in 0..1000u64 {
            m.access(i * 128, AccessKind::Read);
        }
        assert!(m.service_time_ns() > t0);
    }

    #[test]
    fn reset_stats_zeroes_counters() {
        let mut m = MemorySystem::new(MemorySystemConfig::gtx980());
        m.access(0, AccessKind::Read);
        m.reset_stats();
        let s = m.stats();
        assert_eq!(s.l2.accesses, 0);
        assert_eq!(s.dram.reads, 0);
        assert_eq!(m.service_time_ns(), 0.0);
    }

    #[test]
    fn probe_windows_cover_traffic_since_anchor() {
        use scu_trace::{Probe, RecordingSink};
        use std::cell::RefCell;
        use std::rc::Rc;

        let mut m = MemorySystem::new(MemorySystemConfig::tx1());
        m.access(0, AccessKind::Read); // pre-probe traffic is excluded
        let sink = Rc::new(RefCell::new(RecordingSink::new("t", false)));
        m.set_probe(Probe::new(sink.clone()));
        m.access(128, AccessKind::Read);
        m.emit_window(MemSource::Gpu);
        m.access(256, AccessKind::Write);
        m.emit_window(MemSource::Scu);
        m.set_probe(Probe::off());
        let tl = Rc::try_unwrap(sink).unwrap().into_inner().finish();
        let windows: Vec<_> = tl
            .events
            .iter()
            .filter_map(|e| match &e.event {
                Event::MemWindow { source, stats } => Some((*source, **stats)),
                _ => None,
            })
            .collect();
        assert_eq!(windows.len(), 2);
        assert_eq!(windows[0].0, MemSource::Gpu);
        assert_eq!(windows[0].1.l2.accesses, 1);
        assert_eq!(windows[1].0, MemSource::Scu);
        assert_eq!(windows[1].1.l2.writes, 1);
    }

    #[test]
    fn mem_access_events_are_opt_in() {
        use scu_trace::{Probe, RecordingSink};
        use std::cell::RefCell;
        use std::rc::Rc;

        let quiet = Rc::new(RefCell::new(RecordingSink::new("t", false)));
        let mut m = MemorySystem::new(MemorySystemConfig::tx1());
        m.set_probe(Probe::new(quiet.clone()));
        m.access(0, AccessKind::Read);
        m.set_probe(Probe::off());
        let tl = Rc::try_unwrap(quiet).unwrap().into_inner().finish();
        assert!(tl.events.is_empty());

        let chatty = Rc::new(RefCell::new(
            RecordingSink::new("t", false).with_mem_access(true),
        ));
        let mut m = MemorySystem::new(MemorySystemConfig::tx1());
        m.set_probe(Probe::new(chatty.clone()));
        m.access(0, AccessKind::Read);
        m.access_uncached(128, AccessKind::Write);
        m.set_probe(Probe::off());
        let tl = Rc::try_unwrap(chatty).unwrap().into_inner().finish();
        let accesses: Vec<_> = tl
            .events
            .iter()
            .filter_map(|e| match e.event {
                Event::MemAccess {
                    addr,
                    write,
                    l2_hit,
                } => Some((addr, write, l2_hit)),
                _ => None,
            })
            .collect();
        assert_eq!(accesses, vec![(0, false, false), (128, true, false)]);
    }

    #[test]
    fn access_run_matches_sequential_accesses() {
        let mut batched = MemorySystem::new(MemorySystemConfig::tx1());
        let mut serial = MemorySystem::new(MemorySystemConfig::tx1());
        // Warm both with identical mixed traffic so the run starts from
        // non-trivial L2/DRAM state.
        for i in 0..200u64 {
            let kind = if i % 3 == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            batched.access(i * 37 * 128, kind);
            serial.access(i * 37 * 128, kind);
        }
        let base = 0x1_0000;
        let run = batched.access_run(base, 16, AccessKind::Write);
        let mut latency = 0.0;
        let mut hits = 0u64;
        for i in 0..16u64 {
            let out = serial.access(base + i * 128, AccessKind::Write);
            latency += out.latency_ns;
            hits += out.l2_hit as u64;
        }
        assert_eq!(run.lines, 16);
        assert_eq!(run.l2_hits, hits);
        assert!((run.latency_ns - latency).abs() < 1e-9);
        assert_eq!(batched.stats(), serial.stats());
        assert_eq!(batched.service_time_ns(), serial.service_time_ns());
    }

    #[test]
    fn apply_run_matches_both_underlying_paths() {
        let mut via_run = MemorySystem::new(MemorySystemConfig::tx1());
        let mut direct = MemorySystem::new(MemorySystemConfig::tx1());
        // Single line: identical to one access().
        let a = via_run.apply_run(TxRun {
            addr: 0x2000,
            lines: 1,
            kind: AccessKind::Read,
        });
        let b = direct.access(0x2000, AccessKind::Read);
        assert_eq!(a.lines, 1);
        assert_eq!(a.l2_hits, b.l2_hit as u64);
        assert!((a.latency_ns - b.latency_ns).abs() < 1e-12);
        // Multi-line: identical to one access_run().
        let a = via_run.apply_run(TxRun {
            addr: 0x8000,
            lines: 5,
            kind: AccessKind::Write,
        });
        let b = direct.access_run(0x8000, 5, AccessKind::Write);
        assert_eq!(a, b);
        assert_eq!(via_run.stats(), direct.stats());
        assert_eq!(via_run.service_time_ns(), direct.service_time_ns());
    }

    #[test]
    fn l2_hits_do_not_touch_dram() {
        let mut m = MemorySystem::new(MemorySystemConfig::gtx980());
        m.access(0, AccessKind::Read);
        let before = m.stats().dram;
        for _ in 0..10 {
            m.access(0, AccessKind::Read);
        }
        assert_eq!(m.stats().dram, before);
    }
}
