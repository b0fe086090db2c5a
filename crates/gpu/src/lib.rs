//! # scu-gpu — warp-level GPGPU execution and timing model
//!
//! This crate replaces the paper's GPGPU-Sim substrate with a
//! warp-level, trace-as-you-execute model. Graph kernels are written as
//! per-thread Rust closures that perform their *real* computation on
//! [`scu_mem::buffer::DeviceArray`] data while recording every load, store,
//! atomic and ALU burst through a [`kernel::ThreadCtx`]. The
//! [`engine::GpuEngine`] groups threads into warps of 32, coalesces
//! each warp memory instruction into cache-line transactions, runs them
//! through per-SM L1 caches and the shared
//! [`scu_mem::MemorySystem`], and produces a
//! [`stats::KernelStats`] with an execution-time estimate.
//!
//! The time estimate is a max-of-bounds (roofline) model: issue
//! throughput, L1 throughput, L2/DRAM service time, latency divided by
//! warp-level parallelism, and atomic serialisation. This captures the
//! first-order behaviours the paper's evaluation turns on — memory
//! divergence, cache pressure, bandwidth saturation and low
//! compute-to-memory ratios — without per-pipeline-stage simulation
//! (see `DESIGN.md` for the substitution argument).
//!
//! ## Example
//!
//! ```
//! use scu_gpu::{DeviceAllocator, DeviceArray, GpuConfig, GpuEngine};
//! use scu_mem::MemorySystem;
//!
//! let cfg = GpuConfig::tx1();
//! let mut mem = MemorySystem::new(cfg.memory.clone());
//! let mut engine = GpuEngine::new(cfg);
//! let mut alloc = DeviceAllocator::new();
//! let a: DeviceArray<u32> = DeviceArray::from_vec(&mut alloc, (0..1024).collect());
//! let mut b: DeviceArray<u32> = DeviceArray::zeroed(&mut alloc, 1024);
//!
//! // b[i] = a[i] * 2, one thread per element.
//! let stats = engine.run(&mut mem, "double", 1024, |tid, ctx| {
//!     let v = ctx.load(&a, tid);
//!     ctx.alu(1);
//!     ctx.store(&mut b, tid, v * 2);
//! });
//! assert_eq!(b.as_slice()[10], 20);
//! assert!(stats.time_ns > 0.0);
//! ```

pub mod config;
pub mod engine;
pub mod kernel;
pub mod profile;
pub mod stats;

pub use config::GpuConfig;
pub use engine::GpuEngine;
pub use kernel::ThreadCtx;
pub use profile::{engine_ns, reset_engine_ns};
pub use scu_mem::buffer;
pub use scu_mem::buffer::{DeviceAllocator, DeviceArray};
pub use stats::{KernelStats, TimeBounds};
