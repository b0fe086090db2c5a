//! Library half of the benchmark's tracer: the span recorder and the
//! simulated-model digest, shared by the `scu-perfbench-tracer` binary
//! and its tests.

pub mod model;
pub mod spans;
