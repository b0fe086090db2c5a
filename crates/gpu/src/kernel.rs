//! Per-thread kernel execution context.
//!
//! A kernel body is a Rust closure `FnMut(tid, &mut ThreadCtx)`. The
//! closure performs its real computation on
//! [`DeviceArray`] contents; every device
//! memory operation goes through the [`ThreadCtx`] so the engine
//! observes the exact addresses the computation touched. This mirrors
//! how a CUDA thread both computes and generates a memory trace.
//!
//! The trace is split by what the engine needs: memory operations keep
//! their program order (SIMT slot alignment depends on it), while ALU
//! work — which only ever feeds a per-thread sum — is a plain counter.
//! Recording a thread therefore costs one `Vec` push per *memory* op
//! and a single add per `alu()` call, which matters: trace recording
//! and decoding is the hottest path in the whole simulator.

use scu_mem::buffer::DeviceArray;
use scu_mem::line::Addr;

/// One recorded per-thread memory operation, in program order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemOp {
    /// Byte address of the accessed element.
    pub addr: Addr,
    /// Store or atomic (writes a line) vs load.
    pub write: bool,
    /// Atomic read-modify-write (serialises at the L2).
    pub atomic: bool,
}

/// Execution context handed to each simulated thread.
///
/// All `load`/`store`/`atomic_*` methods both perform the data movement
/// host-side and record the address for the timing model. Use
/// [`ThreadCtx::alu`] to account for arithmetic between memory
/// operations; graph kernels are memory-bound, so a coarse count is
/// sufficient.
#[derive(Debug, Default)]
pub struct ThreadCtx {
    alu: u64,
    mems: Vec<MemOp>,
}

impl ThreadCtx {
    /// Creates an empty context (the engine does this per launch).
    pub fn new() -> Self {
        ThreadCtx::default()
    }

    /// Records `n` ALU instructions.
    #[inline]
    pub fn alu(&mut self, n: u32) {
        self.alu += n as u64;
    }

    /// Loads element `i` of `arr`, recording the access.
    #[inline]
    pub fn load<T: Copy>(&mut self, arr: &DeviceArray<T>, i: usize) -> T {
        self.mems.push(MemOp {
            addr: arr.addr(i),
            write: false,
            atomic: false,
        });
        arr.get(i)
    }

    /// Stores `v` into element `i` of `arr`, recording the access.
    #[inline]
    pub fn store<T: Copy>(&mut self, arr: &mut DeviceArray<T>, i: usize, v: T) {
        self.mems.push(MemOp {
            addr: arr.addr(i),
            write: true,
            atomic: false,
        });
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
        self.mems.push(MemOp {
            addr: arr.addr(i),
            write: true,
            atomic: true,
        });
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

    /// Number of memory operations recorded so far.
    pub fn op_count(&self) -> usize {
        self.mems.len()
    }

    /// Accumulated ALU instruction count.
    pub fn alu_count(&self) -> u64 {
        self.alu
    }

    /// Drains the recorded trace (the engine calls this after the
    /// thread body returns): the ordered memory ops move into `mems`
    /// (cleared first, allocation reused) and the ALU total is
    /// returned and reset.
    pub fn drain_trace_into(&mut self, mems: &mut Vec<MemOp>) -> u64 {
        mems.clear();
        mems.append(&mut self.mems);
        std::mem::take(&mut self.alu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scu_mem::buffer::DeviceAllocator;

    #[test]
    fn load_records_and_returns() {
        let mut alloc = DeviceAllocator::new();
        let arr = DeviceArray::from_vec(&mut alloc, vec![7u32, 8]);
        let mut ctx = ThreadCtx::new();
        assert_eq!(ctx.load(&arr, 1), 8);
        let mut ops = Vec::new();
        let alu = ctx.drain_trace_into(&mut ops);
        assert_eq!(alu, 0);
        assert_eq!(
            ops,
            vec![MemOp {
                addr: arr.addr(1),
                write: false,
                atomic: false
            }]
        );
    }

    #[test]
    fn store_records_and_mutates() {
        let mut alloc = DeviceAllocator::new();
        let mut arr = DeviceArray::from_vec(&mut alloc, vec![0u64; 4]);
        let mut ctx = ThreadCtx::new();
        ctx.store(&mut arr, 2, 99);
        assert_eq!(arr.get(2), 99);
        let mut ops = Vec::new();
        ctx.drain_trace_into(&mut ops);
        assert_eq!(
            ops[0],
            MemOp {
                addr: arr.addr(2),
                write: true,
                atomic: false
            }
        );
    }

    #[test]
    fn atomic_rmw_returns_old_value() {
        let mut alloc = DeviceAllocator::new();
        let mut arr = DeviceArray::from_vec(&mut alloc, vec![10u32]);
        let mut ctx = ThreadCtx::new();
        let old = ctx.atomic_min_u32(&mut arr, 0, 3);
        assert_eq!(old, 10);
        assert_eq!(arr.get(0), 3);
        let old = ctx.atomic_min_u32(&mut arr, 0, 5);
        assert_eq!(old, 3);
        assert_eq!(arr.get(0), 3);
        assert!(ctx.mems.iter().all(|m| m.write && m.atomic));
    }

    #[test]
    fn atomic_add_accumulates() {
        let mut alloc = DeviceAllocator::new();
        let mut arr = DeviceArray::from_vec(&mut alloc, vec![1.5f64]);
        let mut ctx = ThreadCtx::new();
        ctx.atomic_add(&mut arr, 0, 2.5);
        assert!((arr.get(0) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn alu_accumulates_as_counter() {
        let mut ctx = ThreadCtx::new();
        ctx.alu(0);
        ctx.alu(3);
        ctx.alu(2);
        assert_eq!(ctx.alu_count(), 5);
        assert_eq!(ctx.op_count(), 0);
    }

    #[test]
    fn drain_resets_both_halves() {
        let mut alloc = DeviceAllocator::new();
        let arr = DeviceArray::from_vec(&mut alloc, vec![1u32]);
        let mut ctx = ThreadCtx::new();
        ctx.alu(1);
        ctx.load(&arr, 0);
        let mut ops = Vec::new();
        assert_eq!(ctx.drain_trace_into(&mut ops), 1);
        assert_eq!(ops.len(), 1);
        assert_eq!(ctx.op_count(), 0);
        assert_eq!(ctx.alu_count(), 0);
    }
}
