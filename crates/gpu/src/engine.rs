//! Warp-level kernel execution engine.
//!
//! Threads run sequentially (functional correctness is exact and
//! deterministic); timing is reconstructed warp-by-warp: the engine
//! aligns the j-th memory operation of each thread in a warp into one
//! SIMT memory instruction, coalesces its 32 addresses into line
//! transactions, and drives them through the per-SM L1 and the shared
//! L2/DRAM. Execution time is the max of throughput, bandwidth,
//! latency and atomic-serialisation bounds (see
//! [`crate::stats::TimeBounds`]).

use std::collections::HashMap;
use std::time::Instant;

use scu_mem::cache::{AccessKind, Cache};
use scu_mem::coalescer::WarpCoalescer;
use scu_mem::line::Addr;
use scu_mem::stats::CacheStats;
use scu_mem::system::MemorySystem;

use scu_trace::{Event, MemSource, Probe};

use crate::config::GpuConfig;
use crate::kernel::{MemOp, ThreadCtx};
use crate::stats::{KernelStats, TimeBounds};

/// Time charged per serialised same-address atomic at the L2, ns.
///
/// Maxwell-class GPUs retire one conflicting atomic every couple of
/// cycles at the L2; 2 ns is the GPGPU-Sim-class figure.
const ATOMIC_THROUGHPUT_NS: f64 = 2.0;

/// Reusable per-launch scratch buffers, kept on the engine so the
/// warp loop — the hottest loop in the simulator — allocates nothing.
#[derive(Debug, Default)]
struct RunScratch {
    /// Per-lane recorded memory traces (one buffer per warp lane).
    warp_traces: Vec<Vec<MemOp>>,
    loads: Vec<Addr>,
    stores: Vec<Addr>,
    atomics: Vec<Addr>,
    /// Coalesced line transactions of the current slot.
    tx: Vec<Addr>,
    atomic_counts: HashMap<Addr, u64>,
}

/// Per-SM tallies one launch's warp loop hands to the time bounds.
struct WarpTally {
    sm_slots: Vec<u64>,
    sm_l1_tx: Vec<u64>,
    total_latency_ns: f64,
}

/// The GPU execution engine: owns per-SM L1 caches and executes kernel
/// launches against a shared [`MemorySystem`].
#[derive(Debug)]
pub struct GpuEngine {
    cfg: GpuConfig,
    l1s: Vec<Cache>,
    coalescer: WarpCoalescer,
    probe: Probe,
    scratch: RunScratch,
}

impl GpuEngine {
    /// Creates an engine with cold L1 caches.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`GpuConfig::validate`].
    pub fn new(cfg: GpuConfig) -> Self {
        cfg.validate().expect("invalid GPU config");
        let l1s = (0..cfg.num_sms).map(|_| Cache::new(cfg.l1)).collect();
        let coalescer = WarpCoalescer::new(cfg.l1.line_size);
        GpuEngine {
            cfg,
            l1s,
            coalescer,
            probe: Probe::off(),
            scratch: RunScratch::default(),
        }
    }

    /// The configuration this engine was built with.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// Attaches (or detaches, with [`Probe::off`]) the trace probe
    /// through which launches emit [`Event::KernelLaunched`] /
    /// [`Event::KernelRetired`].
    pub fn set_probe(&mut self, probe: Probe) {
        self.probe = probe;
    }

    /// Invalidates all L1 caches (kernel-boundary behaviour of
    /// non-coherent GPU L1s can be approximated by calling this between
    /// launches; the default engine keeps them warm, which is the
    /// Maxwell behaviour for read-only data).
    pub fn flush_l1(&mut self) {
        for l1 in &mut self.l1s {
            l1.clear();
        }
    }

    /// Executes `threads` threads of `body` as one kernel launch.
    ///
    /// `name` labels the launch in debug output; it does not affect
    /// simulation. Returns the launch statistics including the
    /// execution-time estimate.
    pub fn run<F>(
        &mut self,
        mem: &mut MemorySystem,
        name: &str,
        threads: usize,
        mut body: F,
    ) -> KernelStats
    where
        F: FnMut(usize, &mut ThreadCtx),
    {
        if threads == 0 {
            return KernelStats::default();
        }
        self.probe.emit_with(|| Event::KernelLaunched {
            name: name.to_string(),
            threads: threads as u64,
        });

        let n_warps = threads.div_ceil(self.cfg.warp_size as usize);

        let l1_before: Vec<CacheStats> = self.l1s.iter().map(|c| *c.stats()).collect();
        let mem_before = mem.stats();
        let service_before = mem.service_time_ns();

        let mut stats = KernelStats {
            launches: 1,
            threads: threads as u64,
            warps: n_warps as u64,
            ..KernelStats::default()
        };

        let t0 = Instant::now();
        let tally = self.run_warps(mem, threads, &mut body, &mut stats);
        crate::profile::record_launch(t0.elapsed());

        // Assemble the time bounds.
        let cycle = self.cfg.cycle_ns();
        let max_sm_slots = tally.sm_slots.iter().copied().max().unwrap_or(0);
        let max_sm_tx = tally.sm_l1_tx.iter().copied().max().unwrap_or(0);

        let compute_ns = max_sm_slots as f64 * cycle / self.cfg.issue_width as f64;
        let l1_ns = max_sm_tx as f64 * cycle;
        let memory_ns =
            (mem.service_time_ns() - service_before).max(0.0) / self.cfg.dram_efficiency;
        let concurrency =
            (n_warps as f64).min(self.cfg.max_resident_warps() as f64) * self.cfg.mlp_per_warp;
        let latency_ns = tally.total_latency_ns / concurrency.max(1.0);
        let max_conflicts = self
            .scratch
            .atomic_counts
            .values()
            .copied()
            .max()
            .unwrap_or(0);
        let atomic_ns = max_conflicts as f64 * ATOMIC_THROUGHPUT_NS;

        stats.bounds = TimeBounds {
            compute_ns,
            l1_ns,
            memory_ns,
            latency_ns,
            atomic_ns,
        };
        stats.time_ns = stats.bounds.max_ns() + self.cfg.kernel_launch_ns;

        // Traffic windows.
        let mut l1_window = CacheStats::default();
        for (l1, before) in self.l1s.iter().zip(&l1_before) {
            l1_window.merge(&l1.stats().since(before));
        }
        stats.l1 = l1_window;
        stats.mem = mem.stats().since(&mem_before);

        if self.probe.is_on() {
            self.probe.emit(Event::KernelRetired {
                name: name.to_string(),
                stats: Box::new(stats),
            });
            mem.emit_window(MemSource::Gpu);
        }

        stats
    }

    /// The warp loop: runs thread bodies and drives the per-SM L1s and
    /// the shared memory system warp by warp, counting into `stats`.
    fn run_warps<F>(
        &mut self,
        mem: &mut MemorySystem,
        threads: usize,
        body: &mut F,
        stats: &mut KernelStats,
    ) -> WarpTally
    where
        F: FnMut(usize, &mut ThreadCtx),
    {
        let warp_size = self.cfg.warp_size as usize;
        let num_sms = self.cfg.num_sms as usize;
        let n_warps = threads.div_ceil(warp_size);
        let mut tally = WarpTally {
            sm_slots: vec![0; num_sms],
            sm_l1_tx: vec![0; num_sms],
            total_latency_ns: 0.0,
        };

        // Batched store runs are only valid when L1 lines and L2 lines
        // coincide (they do on both modelled platforms).
        let line_bytes = self.cfg.l1.line_size.bytes() as u64;
        let same_line_size = line_bytes == mem.config().l2.line_size.bytes() as u64;

        // Borrow the scratch buffers apart from `l1s`/`coalescer` so
        // the warp loop reuses them without fighting the borrow checker.
        let RunScratch {
            warp_traces,
            loads,
            stores,
            atomics,
            tx,
            atomic_counts,
        } = &mut self.scratch;
        if warp_traces.len() < warp_size {
            warp_traces.resize_with(warp_size, Vec::new);
        }
        atomic_counts.clear();

        let mut ctx = ThreadCtx::new();

        for w in 0..n_warps {
            let sm = w % num_sms;
            let first = w * warp_size;
            let last = ((w + 1) * warp_size).min(threads);
            let lanes = last - first;
            let mut alu_max = 0u64;
            let mut mem_slot_count = 0usize;
            for (k, tid) in (first..last).enumerate() {
                body(tid, &mut ctx);
                let alu = ctx.drain_trace_into(&mut warp_traces[k]);
                let mems = &warp_traces[k];
                for op in mems.iter() {
                    if op.atomic {
                        stats.atomics += 1;
                        *atomic_counts.entry(op.addr).or_insert(0) += 1;
                    } else if op.write {
                        stats.stores += 1;
                    } else {
                        stats.loads += 1;
                    }
                }
                alu_max = alu_max.max(alu);
                stats.thread_insts += alu + mems.len() as u64;
                mem_slot_count = mem_slot_count.max(mems.len());
            }

            // Simulate each aligned memory slot.
            let mut warp_tx = 0u64;
            for j in 0..mem_slot_count {
                // Gather the j-th op of each lane, grouped by kind.
                loads.clear();
                stores.clear();
                atomics.clear();
                for lane in &warp_traces[..lanes] {
                    if let Some(op) = lane.get(j) {
                        if op.atomic {
                            atomics.push(op.addr);
                        } else if op.write {
                            stores.push(op.addr);
                        } else {
                            loads.push(op.addr);
                        }
                    }
                }

                if !loads.is_empty() {
                    stats.mem_slots += 1;
                    self.coalescer.transactions_into(loads, tx);
                    for &line in tx.iter() {
                        warp_tx += 1;
                        let l1_out = self.l1s[sm].access(line, AccessKind::Read);
                        tally.total_latency_ns += self.cfg.l1_hit_latency_ns;
                        if !l1_out.hit {
                            let out = mem.access(line, AccessKind::Read);
                            tally.total_latency_ns += out.latency_ns;
                        }
                    }
                }
                if !stores.is_empty() {
                    stats.mem_slots += 1;
                    // Global stores are write-through, no-allocate on
                    // Maxwell: they bypass the L1 and go to the L2.
                    // Consecutive-line spans (the common coalesced
                    // case) go through the batched run fast path.
                    self.coalescer.transactions_into(stores, tx);
                    warp_tx += tx.len() as u64;
                    let mut i = 0;
                    while i < tx.len() {
                        let start = tx[i];
                        let mut len = 1u64;
                        if same_line_size {
                            while i + (len as usize) < tx.len()
                                && tx[i + len as usize] == start + len * line_bytes
                            {
                                len += 1;
                            }
                        }
                        if len == 1 {
                            mem.access(start, AccessKind::Write);
                        } else {
                            mem.access_run(start, len, AccessKind::Write);
                        }
                        i += len as usize;
                    }
                }
                if !atomics.is_empty() {
                    stats.mem_slots += 1;
                    // Atomics resolve at the L2.
                    self.coalescer.transactions_into(atomics, tx);
                    for &line in tx.iter() {
                        warp_tx += 1;
                        let out = mem.access(line, AccessKind::Write);
                        tally.total_latency_ns += self.cfg.atomic_latency_ns + out.latency_ns;
                    }
                }
            }

            stats.transactions += warp_tx;
            tally.sm_l1_tx[sm] += warp_tx;
            let slots = alu_max + mem_slot_count as u64;
            stats.warp_slots += slots;
            tally.sm_slots[sm] += slots;
        }
        tally
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scu_mem::buffer::{DeviceAllocator, DeviceArray};

    fn setup() -> (GpuEngine, MemorySystem, DeviceAllocator) {
        let cfg = GpuConfig::tx1();
        let mem = MemorySystem::new(cfg.memory.clone());
        (GpuEngine::new(cfg), mem, DeviceAllocator::new())
    }

    #[test]
    fn empty_launch_is_free() {
        let (mut eng, mut mem, _) = setup();
        let s = eng.run(&mut mem, "noop", 0, |_, _| {});
        assert_eq!(s.time_ns, 0.0);
        assert_eq!(s.threads, 0);
    }

    #[test]
    fn functional_result_is_exact() {
        let (mut eng, mut mem, mut alloc) = setup();
        let a = DeviceArray::from_vec(&mut alloc, (0u32..1000).collect());
        let mut b: DeviceArray<u32> = DeviceArray::zeroed(&mut alloc, 1000);
        eng.run(&mut mem, "copy", 1000, |tid, ctx| {
            let v = ctx.load(&a, tid);
            ctx.store(&mut b, tid, v + 1);
        });
        for i in 0..1000 {
            assert_eq!(b.get(i), i as u32 + 1);
        }
    }

    #[test]
    fn coalesced_access_issues_one_tx_per_line() {
        let (mut eng, mut mem, mut alloc) = setup();
        let a: DeviceArray<u32> = DeviceArray::zeroed(&mut alloc, 1024);
        let s = eng.run(&mut mem, "seq", 1024, |tid, ctx| {
            let _ = ctx.load(&a, tid);
        });
        // 1024 u32 = 4096 B = 32 lines; 32 warps x 1 tx each.
        assert_eq!(s.transactions, 32);
        assert_eq!(s.mem_slots, 32);
        assert!((s.transactions_per_mem_slot() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn scattered_access_diverges() {
        let (mut eng, mut mem, mut alloc) = setup();
        let a: DeviceArray<u32> = DeviceArray::zeroed(&mut alloc, 1 << 16);
        let s = eng.run(&mut mem, "scatter", 1024, |tid, ctx| {
            let idx = (tid * 7919) % (1 << 16);
            let _ = ctx.load(&a, idx);
        });
        assert!(
            s.transactions_per_mem_slot() > 16.0,
            "divergence {} too low",
            s.transactions_per_mem_slot()
        );
    }

    #[test]
    fn scattered_kernel_slower_than_sequential() {
        let (mut eng, mut mem, mut alloc) = setup();
        let a: DeviceArray<u32> = DeviceArray::zeroed(&mut alloc, 1 << 20);
        let n = 1 << 15;
        let seq = eng.run(&mut mem, "seq", n, |tid, ctx| {
            let _ = ctx.load(&a, tid);
        });
        let mut eng2 = GpuEngine::new(GpuConfig::tx1());
        let mut mem2 = MemorySystem::new(GpuConfig::tx1().memory);
        let scat = eng2.run(&mut mem2, "scat", n, |tid, ctx| {
            let _ = ctx.load(&a, (tid * 7919) % (1 << 20));
        });
        assert!(
            scat.time_ns > 2.0 * seq.time_ns,
            "scattered {} vs sequential {}",
            scat.time_ns,
            seq.time_ns
        );
    }

    #[test]
    fn atomics_to_same_address_serialize() {
        let (mut eng, mut mem, mut alloc) = setup();
        let mut acc: DeviceArray<u32> = DeviceArray::zeroed(&mut alloc, 1);
        let n = 4096;
        let s = eng.run(&mut mem, "atomic", n, |_, ctx| {
            ctx.atomic_rmw(&mut acc, 0, |v| v + 1);
        });
        assert_eq!(acc.get(0), n as u32);
        assert!(s.bounds.atomic_ns >= n as f64 * ATOMIC_THROUGHPUT_NS * 0.99);
        assert_eq!(s.bounds.binding(), "atomic");
    }

    #[test]
    fn divergent_loop_counts_serialize_in_slots() {
        let (mut eng, mut mem, mut alloc) = setup();
        let a: DeviceArray<u32> = DeviceArray::zeroed(&mut alloc, 64 * 32);
        // One thread in each warp does 64 loads, others do 1.
        let s = eng.run(&mut mem, "unbalanced", 64, |tid, ctx| {
            let n = if tid % 32 == 0 { 64 } else { 1 };
            for k in 0..n {
                let _ = ctx.load(&a, (tid * 64 + k) % (64 * 32));
            }
        });
        // 2 warps; each warp has 64 memory slots (max over lanes).
        assert_eq!(s.warps, 2);
        assert!(s.mem_slots >= 128);
    }

    #[test]
    fn thread_insts_counts_all_lanes() {
        let (mut eng, mut mem, mut alloc) = setup();
        let a: DeviceArray<u32> = DeviceArray::zeroed(&mut alloc, 32);
        let s = eng.run(&mut mem, "insts", 32, |tid, ctx| {
            ctx.alu(3);
            let _ = ctx.load(&a, tid);
        });
        assert_eq!(s.thread_insts, 32 * 4);
    }

    #[test]
    fn more_sms_speed_up_compute_bound_kernels() {
        let big = GpuConfig::gtx980();
        let small = GpuConfig::tx1();
        let mut mem_b = MemorySystem::new(big.memory.clone());
        let mut mem_s = MemorySystem::new(small.memory.clone());
        let mut eng_b = GpuEngine::new(big);
        let mut eng_s = GpuEngine::new(small);
        let work = |_tid: usize, ctx: &mut ThreadCtx| ctx.alu(100);
        let sb = eng_b.run(&mut mem_b, "alu", 1 << 16, work);
        let ss = eng_s.run(&mut mem_s, "alu", 1 << 16, work);
        assert!(sb.time_ns < ss.time_ns / 4.0);
    }

    #[test]
    fn traced_launch_emits_lifecycle_and_window() {
        use scu_trace::RecordingSink;
        use std::cell::RefCell;
        use std::rc::Rc;

        let (mut eng, mut mem, mut alloc) = setup();
        let a: DeviceArray<u32> = DeviceArray::zeroed(&mut alloc, 64);
        let sink = Rc::new(RefCell::new(RecordingSink::new("t", false)));
        eng.set_probe(Probe::new(sink.clone()));
        mem.set_probe(Probe::new(sink.clone()));
        let direct = eng.run(&mut mem, "probe-me", 64, |tid, ctx| {
            let _ = ctx.load(&a, tid);
        });
        eng.set_probe(Probe::off());
        mem.set_probe(Probe::off());
        let tl = Rc::try_unwrap(sink).unwrap().into_inner().finish();
        assert!(matches!(
            &tl.events[0].event,
            Event::KernelLaunched { name, threads: 64 } if name == "probe-me"
        ));
        let Event::KernelRetired { stats, .. } = &tl.events[1].event else {
            panic!("expected KernelRetired, got {:?}", tl.events[1].event);
        };
        assert_eq!(**stats, direct, "event payload matches returned stats");
        let Event::MemWindow { source, stats } = &tl.events[2].event else {
            panic!("expected MemWindow, got {:?}", tl.events[2].event);
        };
        assert_eq!(*source, MemSource::Gpu);
        assert_eq!(stats.l2.accesses, direct.mem.l2.accesses);
    }

    #[test]
    fn l1_hits_absorb_repeated_loads() {
        let (mut eng, mut mem, mut alloc) = setup();
        let a: DeviceArray<u32> = DeviceArray::zeroed(&mut alloc, 32);
        let s = eng.run(&mut mem, "reuse", 32, |tid, ctx| {
            for _ in 0..8 {
                let _ = ctx.load(&a, tid);
            }
        });
        // 8 slots x 1 line; only the first misses.
        assert_eq!(s.l1.misses, 1);
        assert_eq!(s.l1.hits, 7);
        assert_eq!(s.mem.l2.accesses, 1);
    }
}
