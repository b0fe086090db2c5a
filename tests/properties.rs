//! Property-based tests over cross-crate invariants: the SCU's
//! compaction operations against independent functional specifications,
//! filtering soundness, grouping permutations, and full-algorithm
//! agreement on random graphs.

use proptest::prelude::*;

use scu::algos::{bfs, cc, kcore, sssp, System, SystemKind};
use scu::graph::GraphBuilder;
use scu::mem::buffer::{DeviceAllocator, DeviceArray};
use scu::mem::cache::{AccessKind, Cache, CacheConfig};
use scu::mem::line::LineSize;
use scu::mem::system::{MemorySystem, MemorySystemConfig};
use scu::unit::cyclesim::{CycleSim, StreamWorkload};
use scu::unit::{CompareOp, FilterHash, FilterMode, GroupHash, ScuConfig, ScuDevice};

/// Reference LRU cache: per-set MRU-ordered lists of `(tag, dirty)`.
///
/// The production [`Cache`] stores all ways in one flat slice and picks
/// victims with a single timestamp scan; this model is the obviously
/// correct formulation (move-to-front on hit, pop-back on overflow)
/// that the flat layout must match access for access.
struct ModelLru {
    line: LineSize,
    sets: Vec<Vec<(u64, bool)>>,
    assoc: usize,
}

impl ModelLru {
    fn new(cfg: CacheConfig) -> Self {
        ModelLru {
            line: cfg.line_size,
            sets: vec![Vec::new(); cfg.num_sets() as usize],
            assoc: cfg.associativity as usize,
        }
    }

    /// Returns `(hit, dirty_eviction)`.
    fn access(&mut self, addr: u64, write: bool) -> (bool, bool) {
        let lines = self.line.index_of(addr);
        let num_sets = self.sets.len() as u64;
        let set = &mut self.sets[(lines % num_sets) as usize];
        let tag = lines / num_sets;
        if let Some(i) = set.iter().position(|&(t, _)| t == tag) {
            let (t, d) = set.remove(i);
            set.insert(0, (t, d || write));
            return (true, false);
        }
        let mut dirty_eviction = false;
        if set.len() == self.assoc {
            let (_, d) = set.pop().expect("full set is non-empty");
            dirty_eviction = d;
        }
        set.insert(0, (tag, write));
        (false, dirty_eviction)
    }

    fn resident(&self, addr: u64) -> bool {
        let lines = self.line.index_of(addr);
        let set = &self.sets[(lines % self.sets.len() as u64) as usize];
        let tag = lines / self.sets.len() as u64;
        set.iter().any(|&(t, _)| t == tag)
    }
}

fn fresh() -> (ScuDevice, MemorySystem, DeviceAllocator) {
    (
        ScuDevice::new(ScuConfig::tx1()),
        MemorySystem::new(MemorySystemConfig::tx1()),
        DeviceAllocator::new(),
    )
}

/// The reference cell the cache-key properties mutate away from. SCU
/// mode so hash-table geometry participates in the key.
fn base_cell() -> scu::algos::cell::Cell {
    use scu::algos::cell::Cell;
    use scu::algos::runner::{Algorithm, Mode};
    use scu::graph::Dataset;

    Cell {
        algorithm: Algorithm::Bfs,
        dataset: Dataset::Kron,
        system: SystemKind::Tx1,
        mode: Mode::ScuEnhanced,
        pr_iters: 3,
        scale: 1.0 / 256.0,
        seed: 7,
        scu_config: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Timing-only knobs (frequencies, buffer depths, issue costs, DRAM
    /// efficiency) change *when* things happen, not what the kernels
    /// compute — but they change the reported cycles, so each must move
    /// the result-cache key: cells differing in one may not share a
    /// cached result.
    #[test]
    fn timing_knobs_always_move_the_cache_key(knob in 0usize..10, delta in 1u32..64) {
        let base = base_cell();
        let mut cfg = base.system.scu_config();
        match knob {
            0 => cfg.freq_ghz += f64::from(delta) * 0.01,
            1 => cfg.pipeline_width += delta,
            2 => cfg.vector_buffer_bytes += delta * 128,
            3 => cfg.fifo_request_buffer_bytes += delta * 128,
            4 => cfg.hash_request_buffer_bytes += delta * 128,
            5 => cfg.coalescer_in_flight += delta,
            6 => cfg.coalescer_merge_window += delta,
            7 => cfg.op_setup_cycles += delta,
            8 => cfg.op_issue_ns += f64::from(delta),
            9 => cfg.dram_efficiency *= 1.0 - f64::from(delta) * 0.001,
            _ => unreachable!(),
        }
        let mut tweaked = base.clone();
        tweaked.scu_config = Some(cfg);
        prop_assert!(
            tweaked.cache_key() != base.cache_key(),
            "timing knob {} shares a key",
            knob
        );
    }

    /// Functional knobs — algorithm, dataset, graph scale/seed, system,
    /// hash-table geometry — change what the kernels compute, so each
    /// must move the result-cache key.
    #[test]
    fn functional_knobs_always_move_the_cache_key(knob in 0usize..6, pick in 0u64..1_000_000) {
        use scu::algos::runner::Algorithm;
        use scu::graph::Dataset;

        let base = base_cell();
        let mut c = base.clone();
        match knob {
            0 => c.seed = base.seed.wrapping_add(1 + pick),
            1 => c.scale = base.scale * (1.0 + (pick as f64 + 1.0) * 1e-6),
            2 => {
                let others = [
                    Algorithm::Sssp,
                    Algorithm::Cc,
                    Algorithm::KCore,
                    Algorithm::PageRank,
                ];
                c.algorithm = others[(pick % 4) as usize];
            }
            3 => {
                let others: Vec<Dataset> = Dataset::ALL
                    .into_iter()
                    .filter(|d| d.name() != base.dataset.name())
                    .collect();
                c.dataset = others[(pick as usize) % others.len()];
            }
            4 => {
                // Hash-table geometry is functional: eviction decides
                // which duplicates survive filtering.
                let mut cfg = base.system.scu_config();
                cfg.filter_bfs_hash.size_bytes *= 2;
                c.scu_config = Some(cfg);
            }
            5 => c.system = SystemKind::Gtx980,
            _ => unreachable!(),
        }
        prop_assert!(
            c.cache_key() != base.cache_key(),
            "functional knob {} shares a key",
            knob
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn data_compaction_equals_iterator_filter(
        data in prop::collection::vec(0u32..1000, 0..300),
        flags in prop::collection::vec(0u8..2, 300),
    ) {
        let (mut scu, mut mem, mut alloc) = fresh();
        let n = data.len();
        let src = DeviceArray::from_vec(&mut alloc, data.clone());
        let f = DeviceArray::from_vec(&mut alloc, flags[..n].to_vec());
        let mut dst: DeviceArray<u32> = DeviceArray::zeroed(&mut alloc, n.max(1));
        let op = scu.data_compaction_n(&mut mem, &src, n, Some(&f), None, &mut dst, 0);
        let expect: Vec<u32> = data.iter().zip(&flags[..n])
            .filter(|(_, &fl)| fl != 0).map(|(&d, _)| d).collect();
        prop_assert_eq!(op.elements_out as usize, expect.len());
        prop_assert_eq!(&dst.as_slice()[..expect.len()], &expect[..]);
    }

    #[test]
    fn bitmask_constructor_equals_comparison(
        data in prop::collection::vec(0u32..100, 1..200),
        reference in 0u32..100,
    ) {
        let (mut scu, mut mem, mut alloc) = fresh();
        let n = data.len();
        let src = DeviceArray::from_vec(&mut alloc, data.clone());
        let mut flags: DeviceArray<u8> = DeviceArray::zeroed(&mut alloc, n);
        scu.bitmask_construct(&mut mem, &src, n, CompareOp::Ge, reference, &mut flags);
        for (i, &d) in data.iter().enumerate() {
            prop_assert_eq!(flags.get(i) != 0, d >= reference);
        }
    }

    #[test]
    fn replication_equals_repeat_spec(
        pairs in prop::collection::vec((0u32..50, 0u32..5), 0..100),
    ) {
        let (mut scu, mut mem, mut alloc) = fresh();
        let n = pairs.len();
        let data: Vec<u32> = pairs.iter().map(|&(d, _)| d).collect();
        let counts: Vec<u32> = pairs.iter().map(|&(_, c)| c).collect();
        let total: usize = counts.iter().sum::<u32>() as usize;
        let src = DeviceArray::from_vec(&mut alloc, data.clone());
        let cnt = DeviceArray::from_vec(&mut alloc, counts.clone());
        let mut dst: DeviceArray<u32> = DeviceArray::zeroed(&mut alloc, total.max(1));
        let op = scu.replication_compaction(&mut mem, &src, &cnt, n, None, None, &mut dst);
        let expect: Vec<u32> = pairs.iter()
            .flat_map(|&(d, c)| std::iter::repeat_n(d, c as usize)).collect();
        prop_assert_eq!(op.elements_out as usize, expect.len());
        prop_assert_eq!(&dst.as_slice()[..expect.len()], &expect[..]);
    }

    #[test]
    fn expansion_equals_slice_concatenation(
        src_data in prop::collection::vec(0u32..1000, 32..256),
        slices in prop::collection::vec((0usize..16, 0usize..8), 0..40),
    ) {
        let (mut scu, mut mem, mut alloc) = fresh();
        let m = src_data.len();
        let valid: Vec<(u32, u32)> = slices.iter()
            .map(|&(s, l)| ((s % (m - 8)) as u32, l as u32)).collect();
        let src = DeviceArray::from_vec(&mut alloc, src_data.clone());
        let idx = DeviceArray::from_vec(&mut alloc, valid.iter().map(|&(s, _)| s).collect());
        let cnt = DeviceArray::from_vec(&mut alloc, valid.iter().map(|&(_, l)| l).collect());
        let total: usize = valid.iter().map(|&(_, l)| l as usize).sum();
        let mut dst: DeviceArray<u32> = DeviceArray::zeroed(&mut alloc, total.max(1));
        let op = scu.access_expansion_compaction(
            &mut mem, &src, &idx, &cnt, valid.len(), None, None, &mut dst);
        let expect: Vec<u32> = valid.iter()
            .flat_map(|&(s, l)| src_data[s as usize..s as usize + l as usize].to_vec())
            .collect();
        prop_assert_eq!(op.elements_out as usize, expect.len());
        prop_assert_eq!(&dst.as_slice()[..expect.len()], &expect[..]);
    }

    #[test]
    fn filtering_never_drops_first_occurrence_and_never_keeps_true_duplicates_adjacent(
        ids in prop::collection::vec(0u32..64, 1..300),
    ) {
        // Soundness: with a table far larger than the ID universe there
        // are no collisions, so the filter must keep exactly the first
        // occurrence of every ID.
        let (mut scu, mut mem, mut alloc) = fresh();
        let mut hash = FilterHash::new(&mut alloc, ScuConfig::tx1().filter_bfs_hash);
        let n = ids.len();
        let src = DeviceArray::from_vec(&mut alloc, ids.clone());
        let mut flags: DeviceArray<u8> = DeviceArray::zeroed(&mut alloc, n);
        scu.filter_pass_data(&mut mem, &src, n, None, FilterMode::Unique, None,
            &mut hash, &mut flags);
        let mut seen = std::collections::HashSet::new();
        for (i, &id) in ids.iter().enumerate() {
            let first = seen.insert(id);
            prop_assert_eq!(flags.get(i) != 0, first, "element {} id {}", i, id);
        }
    }

    #[test]
    fn grouping_is_always_a_permutation(
        ids in prop::collection::vec(0u32..512, 1..300),
    ) {
        let (mut scu, mut mem, mut alloc) = fresh();
        let mut hash = GroupHash::new(&mut alloc, ScuConfig::tx1().grouping_hash);
        let target: DeviceArray<u32> = DeviceArray::zeroed(&mut alloc, 512);
        let n = ids.len();
        let src = DeviceArray::from_vec(&mut alloc, ids.clone());
        let mut order: DeviceArray<u32> = DeviceArray::zeroed(&mut alloc, n);
        let op = scu.group_pass_data(&mut mem, &src, n, None, &target, &mut hash, &mut order);
        prop_assert_eq!(op.elements_out as usize, n);
        let mut positions: Vec<u32> = order.as_slice().to_vec();
        positions.sort_unstable();
        let expect: Vec<u32> = (0..n as u32).collect();
        prop_assert_eq!(positions, expect);
    }

    #[test]
    fn flat_cache_matches_reference_lru_model(
        line_shift in 5u32..8,          // 32/64/128-byte lines
        set_shift in 0u32..4,           // 1..8 sets
        assoc in 1u32..5,
        stream in prop::collection::vec((0u64..4096, 0u8..2), 1..400),
    ) {
        let line = LineSize::new(1 << line_shift).expect("power of two");
        let size = (1u64 << set_shift) * assoc as u64 * line.bytes() as u64;
        let cfg = CacheConfig::new(size, line, assoc).expect("valid geometry");
        let mut cache = Cache::new(cfg);
        let mut model = ModelLru::new(cfg);

        let mut writes = 0u64;
        let mut hits = 0u64;
        let mut writebacks = 0u64;
        for (i, &(addr, write_flag)) in stream.iter().enumerate() {
            let write = write_flag != 0;
            let kind = if write { AccessKind::Write } else { AccessKind::Read };
            let out = cache.access(addr, kind);
            let (hit, dirty_eviction) = model.access(addr, write);
            prop_assert_eq!(out.hit, hit, "access {} at {:#x}", i, addr);
            prop_assert_eq!(
                out.dirty_eviction, dirty_eviction,
                "access {} at {:#x}", i, addr
            );
            writes += write as u64;
            hits += hit as u64;
            writebacks += dirty_eviction as u64;
        }

        let stats = cache.stats();
        prop_assert_eq!(stats.accesses, stream.len() as u64);
        prop_assert_eq!(stats.writes, writes);
        prop_assert_eq!(stats.hits, hits);
        prop_assert_eq!(stats.misses, stream.len() as u64 - hits);
        prop_assert_eq!(stats.writebacks, writebacks);

        // Residency agrees line-for-line across the touched range.
        for addr in (0..4096u64).step_by(line.bytes() as usize) {
            prop_assert_eq!(cache.probe(addr), model.resident(addr), "probe {:#x}", addr);
        }
    }

    #[test]
    fn cyclesim_never_beats_the_analytic_bounds(
        elements in 1_000u64..50_000,
        width in 1u32..8,
        latency in 1u32..200,
        bw_centi in 5u64..400, // lines/cycle x100
    ) {
        // The cycle-stepped pipeline can never finish faster than the
        // analytic lower bounds the device model charges, and should
        // land within 40% of their max (slack covers ramp-up and the
        // bandwidth/latency interaction).
        let mut cfg = ScuConfig::tx1();
        cfg.pipeline_width = width;
        let bw = bw_centi as f64 / 100.0;
        let r = CycleSim::new(&cfg).run(StreamWorkload {
            elements,
            elem_bytes: 4,
            mem_latency_cycles: latency,
            lines_per_cycle: bw,
        });
        let lines = (elements * 4).div_ceil(128);
        let pipeline = elements.div_ceil(width as u64) as f64;
        let bandwidth = lines as f64 / bw;
        let littles_law = lines as f64 * latency as f64
            / cfg.coalescer_in_flight as f64;
        let mut bounds = [pipeline, bandwidth, littles_law];
        bounds.sort_by(|a, b| b.partial_cmp(a).expect("finite"));
        let bound = bounds[0];
        let ratio = r.cycles as f64 / bound;
        // Never faster than the max bound, never slower than their sum
        // (the regimes can alternate but not overlap-miss entirely).
        prop_assert!(
            ratio >= 0.99 && (r.cycles as f64) <= pipeline + bandwidth + littles_law + 64.0,
            "cycles {} vs bound {} (ratio {})",
            r.cycles, bound, ratio
        );
        // When one regime clearly dominates, the analytic bound must be
        // tight.
        if bounds[0] > 2.5 * bounds[1] {
            prop_assert!(
                ratio < 1.25,
                "dominant-regime cycles {} vs bound {} (ratio {})",
                r.cycles, bound, ratio
            );
        }
    }

    #[test]
    fn extension_algorithms_agree_on_random_graphs(
        edges in prop::collection::vec((0u32..30, 0u32..30, 1u32..10), 1..150),
    ) {
        let n = 30;
        let mut b = GraphBuilder::new(n);
        for &(s, d, w) in &edges {
            if s != d {
                b.add_edge(s, d, w);
            }
        }
        let g = b.build();

        let expect = cc::reference::labels(&g);
        let mut sys = System::with_scu(SystemKind::Tx1);
        let (got, _) = cc::scu::run(&mut sys, &g, true);
        prop_assert_eq!(&got, &expect);

        let expect = kcore::reference::coreness(&g);
        let mut sys = System::with_scu(SystemKind::Tx1);
        let (got, _) = kcore::scu::run(&mut sys, &g);
        prop_assert_eq!(&got, &expect);
    }

    #[test]
    fn random_graphs_agree_across_machines(
        edges in prop::collection::vec((0u32..40, 0u32..40, 1u32..10), 1..200),
    ) {
        let n = 40;
        let mut b = GraphBuilder::new(n);
        for &(s, d, w) in &edges {
            if s != d {
                b.add_edge(s, d, w);
            }
        }
        let g = b.build();

        let expect = bfs::reference::distances(&g, 0);
        let mut sys = System::with_scu(SystemKind::Tx1);
        let (got, _) = bfs::scu::run(&mut sys, &g, 0, true);
        prop_assert_eq!(&got, &expect);

        let expect = sssp::reference::distances(&g, 0);
        let mut sys = System::with_scu(SystemKind::Tx1);
        let (got, _) = sssp::scu::run(&mut sys, &g, 0, sssp::ScuVariant::enhanced());
        prop_assert_eq!(&got, &expect);
    }
}
