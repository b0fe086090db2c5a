//! Per-thread kernel execution context.
//!
//! A kernel body is a Rust closure `FnMut(tid, &mut ThreadCtx)`. The
//! closure performs its real computation on
//! [`DeviceArray`] contents; every device
//! memory operation goes through the [`ThreadCtx`] so the engine
//! observes the exact addresses the computation touched. This mirrors
//! how a CUDA thread both computes and generates a memory trace.
//!
//! The trace is recorded slot-major, in the shape the engine consumes:
//! the j-th memory op of a thread appends its address to slot j's
//! `loads`, `stores` or `atomics` list. One context serves every lane
//! of a warp in tid order, so each list holds the lane-ordered
//! addresses of one SIMT memory instruction and the engine coalesces
//! it as is — there is no per-thread trace to copy out or regroup.
//! ALU work, which only ever feeds a per-thread sum, is a plain
//! counter. Recording runs once per simulated op, so it stays at one
//! `Vec` push per memory op and one add per `alu()` call.

use scu_mem::buffer::DeviceArray;
use scu_mem::line::Addr;

/// One SIMT memory slot of a warp: the address of every lane's j-th
/// memory op, split by kind, each list in lane order.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct WarpSlot {
    pub(crate) loads: Vec<Addr>,
    pub(crate) stores: Vec<Addr>,
    /// Atomic read-modify-writes (serialise at the L2).
    pub(crate) atomics: Vec<Addr>,
}

/// What one thread recorded, returned by [`ThreadCtx::end_thread`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ThreadTally {
    /// ALU instructions.
    pub(crate) alu: u64,
    /// Memory operations (the slots this thread occupied).
    pub(crate) ops: u64,
}

/// Execution context handed to each simulated thread.
///
/// All `load`/`store`/`atomic_*` methods both perform the data movement
/// host-side and record the address for the timing model. Use
/// [`ThreadCtx::alu`] to account for arithmetic between memory
/// operations; graph kernels are memory-bound, so a coarse count is
/// sufficient.
///
/// The engine owns one context and reuses it across warps and
/// launches; slot storage grows only with the longest lane seen, so
/// steady-state launches allocate nothing.
#[derive(Debug, Default)]
pub struct ThreadCtx {
    /// ALU count of the current thread.
    alu: u64,
    /// Memory ops of the current thread so far: the index of its next slot.
    ops: usize,
    /// Slots in use by the current warp (the longest lane's op count).
    depth: usize,
    /// Slot storage; `slots[depth..]` are always empty.
    slots: Vec<WarpSlot>,
}

impl ThreadCtx {
    /// Records `n` ALU instructions.
    #[inline]
    pub fn alu(&mut self, n: u32) {
        self.alu += n as u64;
    }

    /// Loads element `i` of `arr`, recording the access.
    #[inline]
    pub fn load<T: Copy>(&mut self, arr: &DeviceArray<T>, i: usize) -> T {
        let addr = arr.addr(i);
        self.next_slot().loads.push(addr);
        arr.get(i)
    }

    /// Stores `v` into element `i` of `arr`, recording the access.
    #[inline]
    pub fn store<T: Copy>(&mut self, arr: &mut DeviceArray<T>, i: usize, v: T) {
        let addr = arr.addr(i);
        self.next_slot().stores.push(addr);
        arr.set(i, v);
    }

    /// Atomically applies `f` to element `i` of `arr`, returning the
    /// previous value.
    ///
    /// The simulation executes threads sequentially, so the composite
    /// read-modify-write is exact; the timing model charges atomic
    /// serialisation separately.
    #[inline]
    pub fn atomic_rmw<T: Copy>(
        &mut self,
        arr: &mut DeviceArray<T>,
        i: usize,
        f: impl FnOnce(T) -> T,
    ) -> T {
        let addr = arr.addr(i);
        self.next_slot().atomics.push(addr);
        let old = arr.get(i);
        arr.set(i, f(old));
        old
    }

    /// `atomicAdd` convenience over [`ThreadCtx::atomic_rmw`].
    #[inline]
    pub fn atomic_add(&mut self, arr: &mut DeviceArray<f64>, i: usize, v: f64) -> f64 {
        self.atomic_rmw(arr, i, |old| old + v)
    }

    /// `atomicMin` convenience over [`ThreadCtx::atomic_rmw`].
    #[inline]
    pub fn atomic_min_u32(&mut self, arr: &mut DeviceArray<u32>, i: usize, v: u32) -> u32 {
        self.atomic_rmw(arr, i, |old| old.min(v))
    }

    /// The slot the current thread's next memory op lands in.
    #[inline]
    fn next_slot(&mut self) -> &mut WarpSlot {
        let j = self.ops;
        self.ops += 1;
        if j == self.depth {
            self.open_slot();
        }
        &mut self.slots[j]
    }

    /// Extends the warp by one slot (the current lane is the longest
    /// so far), reusing cleared storage when there is some.
    #[cold]
    fn open_slot(&mut self) {
        if self.depth == self.slots.len() {
            self.slots.push(WarpSlot::default());
        }
        self.depth += 1;
    }

    /// Ends the current thread: returns its ALU and memory-op counts
    /// and resets both for the next lane. Its addresses stay in the
    /// warp's slots.
    pub(crate) fn end_thread(&mut self) -> ThreadTally {
        let tally = ThreadTally {
            alu: self.alu,
            ops: self.ops as u64,
        };
        self.alu = 0;
        self.ops = 0;
        tally
    }

    /// The current warp's slots, in program order.
    pub(crate) fn slots(&self) -> &[WarpSlot] {
        &self.slots[..self.depth]
    }

    /// Starts a new warp: empties the slots (allocations kept) and
    /// zeroes the thread counters.
    pub(crate) fn begin_warp(&mut self) {
        for slot in &mut self.slots[..self.depth] {
            slot.loads.clear();
            slot.stores.clear();
            slot.atomics.clear();
        }
        self.depth = 0;
        self.alu = 0;
        self.ops = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use scu_mem::buffer::DeviceAllocator;

    /// A memory op kind, for the test-local reference traces.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Kind {
        Load,
        Store,
        Atomic,
    }

    /// The per-lane reference: the slots a warp of `lanes` yields when
    /// the j-th op of every lane is gathered in lane order — the
    /// per-thread trace the slot-major recording replaces.
    fn transpose(lanes: &[Vec<(Kind, Addr)>]) -> Vec<WarpSlot> {
        let depth = lanes.iter().map(Vec::len).max().unwrap_or(0);
        (0..depth)
            .map(|j| {
                let mut slot = WarpSlot::default();
                for &(kind, addr) in lanes.iter().filter_map(|lane| lane.get(j)) {
                    match kind {
                        Kind::Load => slot.loads.push(addr),
                        Kind::Store => slot.stores.push(addr),
                        Kind::Atomic => slot.atomics.push(addr),
                    }
                }
                slot
            })
            .collect()
    }

    /// Records one warp of per-lane `(kind, element)` traces against
    /// `arr`; returns each lane's tally and its `(kind, addr)` trace.
    fn record_warp(
        ctx: &mut ThreadCtx,
        arr: &mut DeviceArray<u32>,
        lanes: &[Vec<(Kind, usize)>],
    ) -> (Vec<ThreadTally>, Vec<Vec<(Kind, Addr)>>) {
        ctx.begin_warp();
        let tallies = lanes
            .iter()
            .map(|lane| {
                for &(kind, i) in lane {
                    match kind {
                        Kind::Load => {
                            ctx.load(arr, i);
                        }
                        Kind::Store => ctx.store(arr, i, 1),
                        Kind::Atomic => {
                            ctx.atomic_rmw(arr, i, |v| v + 1);
                        }
                    }
                }
                ctx.end_thread()
            })
            .collect();
        let addrs = lanes
            .iter()
            .map(|lane| lane.iter().map(|&(k, i)| (k, arr.addr(i))).collect())
            .collect();
        (tallies, addrs)
    }

    fn array(n: usize) -> DeviceArray<u32> {
        DeviceArray::from_vec(&mut DeviceAllocator::new(), vec![0u32; n])
    }

    #[test]
    fn load_records_and_returns() {
        let mut alloc = DeviceAllocator::new();
        let arr = DeviceArray::from_vec(&mut alloc, vec![7u32, 8]);
        let mut ctx = ThreadCtx::default();
        assert_eq!(ctx.load(&arr, 1), 8);
        assert_eq!(ctx.end_thread(), ThreadTally { alu: 0, ops: 1 });
        assert_eq!(
            ctx.slots(),
            [WarpSlot {
                loads: vec![arr.addr(1)],
                ..WarpSlot::default()
            }]
        );
    }

    #[test]
    fn store_records_and_mutates() {
        let mut alloc = DeviceAllocator::new();
        let mut arr = DeviceArray::from_vec(&mut alloc, vec![0u64; 4]);
        let mut ctx = ThreadCtx::default();
        ctx.store(&mut arr, 2, 99);
        assert_eq!(arr.get(2), 99);
        assert_eq!(
            ctx.slots(),
            [WarpSlot {
                stores: vec![arr.addr(2)],
                ..WarpSlot::default()
            }]
        );
    }

    #[test]
    fn atomic_rmw_returns_old_value() {
        let mut alloc = DeviceAllocator::new();
        let mut arr = DeviceArray::from_vec(&mut alloc, vec![10u32]);
        let mut ctx = ThreadCtx::default();
        let old = ctx.atomic_min_u32(&mut arr, 0, 3);
        assert_eq!(old, 10);
        assert_eq!(arr.get(0), 3);
        let old = ctx.atomic_min_u32(&mut arr, 0, 5);
        assert_eq!(old, 3);
        assert_eq!(arr.get(0), 3);
        let atomic = || WarpSlot {
            atomics: vec![arr.addr(0)],
            ..WarpSlot::default()
        };
        assert_eq!(ctx.slots(), [atomic(), atomic()]);
    }

    #[test]
    fn atomic_add_accumulates() {
        let mut alloc = DeviceAllocator::new();
        let mut arr = DeviceArray::from_vec(&mut alloc, vec![1.5f64]);
        let mut ctx = ThreadCtx::default();
        ctx.atomic_add(&mut arr, 0, 2.5);
        assert!((arr.get(0) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn alu_accumulates_as_counter() {
        let mut ctx = ThreadCtx::default();
        ctx.alu(0);
        ctx.alu(3);
        ctx.alu(2);
        assert_eq!(ctx.end_thread(), ThreadTally { alu: 5, ops: 0 });
        assert!(ctx.slots().is_empty());
    }

    #[test]
    fn end_thread_resets_alu_and_op_count() {
        let mut alloc = DeviceAllocator::new();
        let arr = DeviceArray::from_vec(&mut alloc, vec![1u32, 2]);
        let mut ctx = ThreadCtx::default();
        ctx.alu(1);
        ctx.load(&arr, 0);
        assert_eq!(ctx.end_thread(), ThreadTally { alu: 1, ops: 1 });
        assert_eq!(ctx.end_thread(), ThreadTally { alu: 0, ops: 0 });
        // The next lane starts again at slot 0.
        ctx.load(&arr, 1);
        assert_eq!(ctx.slots().len(), 1);
        assert_eq!(ctx.slots()[0].loads, [arr.addr(0), arr.addr(1)]);
    }

    #[test]
    fn mixed_kinds_in_one_slot_stay_apart() {
        use Kind::*;
        let mut arr = array(8);
        let mut ctx = ThreadCtx::default();
        let lanes = [
            vec![(Load, 0), (Store, 1)],
            vec![(Store, 2)],
            vec![(Atomic, 3), (Load, 4)],
            vec![(Load, 5), (Atomic, 6)],
        ];
        let (tallies, addrs) = record_warp(&mut ctx, &mut arr, &lanes);
        let ops: Vec<u64> = tallies.iter().map(|t| t.ops).collect();
        assert_eq!(ops, [2, 1, 2, 2]);
        assert_eq!(ctx.slots(), transpose(&addrs));
        let a = |i| arr.addr(i);
        assert_eq!(ctx.slots()[0].loads, [a(0), a(5)]);
        assert_eq!(ctx.slots()[0].stores, [a(2)]);
        assert_eq!(ctx.slots()[0].atomics, [a(3)]);
    }

    #[test]
    fn lanes_with_no_ops_leave_no_trace() {
        use Kind::*;
        let mut arr = array(4);
        let mut ctx = ThreadCtx::default();
        let lanes = [vec![], vec![(Load, 1)], vec![], vec![(Load, 3)], vec![]];
        let (_, addrs) = record_warp(&mut ctx, &mut arr, &lanes);
        assert_eq!(ctx.slots(), transpose(&addrs));
        assert_eq!(ctx.slots()[0].loads, [arr.addr(1), arr.addr(3)]);
        // An all-idle warp has no slots at all.
        record_warp(&mut ctx, &mut arr, &[vec![], vec![]]);
        assert!(ctx.slots().is_empty());
    }

    #[test]
    fn one_long_lane_grows_slots_and_they_are_reused() {
        let mut arr = array(64);
        let mut ctx = ThreadCtx::default();
        let kinds = [Kind::Load, Kind::Store, Kind::Atomic];
        let long: Vec<(Kind, usize)> = (0..10_000).map(|k| (kinds[k % 3], k % 64)).collect();
        let lanes = [vec![(Kind::Load, 0)], long, vec![(Kind::Store, 1); 3]];
        let (tallies, addrs) = record_warp(&mut ctx, &mut arr, &lanes);
        assert_eq!(tallies[1].ops, 10_000);
        assert_eq!(ctx.slots().len(), 10_000);
        assert_eq!(ctx.slots(), transpose(&addrs));
        // The next warp starts from empty slots on the same storage.
        let (_, addrs) = record_warp(&mut ctx, &mut arr, &[vec![(Kind::Atomic, 2)]]);
        assert_eq!(ctx.slots().len(), 1);
        assert_eq!(ctx.slots(), transpose(&addrs));
        assert_eq!(ctx.slots.len(), 10_000);
        assert!(ctx.slots[1..].iter().all(|s| *s == WarpSlot::default()));
    }

    /// A warp of up to 32 lanes, each 0..12 `(kind, element)` ops over
    /// a 256-element array; kind 0/1/2 is load/store/atomic.
    fn warp() -> impl Strategy<Value = Vec<Vec<(u8, usize)>>> {
        prop::collection::vec(prop::collection::vec((0u8..3, 0usize..256), 0..12), 0..=32)
    }

    proptest! {
        #[test]
        fn slots_equal_the_per_lane_transposition(warps in prop::collection::vec(warp(), 1..4)) {
            let mut arr = array(256);
            let mut ctx = ThreadCtx::default();
            // Several warps through one context: reuse must not leak.
            for warp in &warps {
                let kinds = [Kind::Load, Kind::Store, Kind::Atomic];
                let lanes: Vec<Vec<(Kind, usize)>> = warp
                    .iter()
                    .map(|lane| lane.iter().map(|&(k, i)| (kinds[k as usize], i)).collect())
                    .collect();
                let (tallies, addrs) = record_warp(&mut ctx, &mut arr, &lanes);
                for (t, lane) in tallies.iter().zip(&lanes) {
                    prop_assert_eq!(t.ops, lane.len() as u64);
                    prop_assert_eq!(t.alu, 0);
                }
                prop_assert_eq!(ctx.slots(), transpose(&addrs).as_slice());
            }
        }
    }
}
