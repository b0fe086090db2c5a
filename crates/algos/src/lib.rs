//! # scu-algos — BFS, SSSP and PageRank on the simulated GPU ± SCU
//!
//! Implements the three graph primitives of the paper's evaluation
//! (§2) in three forms each:
//!
//! * **reference** — plain host Rust (exact answers for validation);
//! * **GPU baseline** — the CUDA implementations the paper builds on
//!   (Merrill's BFS, Davidson's near-far SSSP, Geil's PR), expressed
//!   as kernels on the simulated GPU, *including* the scan/scatter
//!   stream-compaction kernels that motivate Figure 1;
//! * **SCU-offloaded** — the same algorithms with every compaction
//!   offloaded to the [`scu_core::ScuDevice`] per Algorithms 1–3, and
//!   optionally the *enhanced* filtering/grouping passes per
//!   Algorithms 4–5.
//!
//! Two extension primitives beyond the paper — [`cc`] (connected
//! components) and [`kcore`] (k-core peeling) — show the same five SCU
//! operations covering other frontier algorithms unchanged.
//!
//! [`system::System`] bundles the GPU engine, optional SCU, shared
//! memory system and energy model; [`report::RunReport`] collects the
//! per-phase time/energy/traffic split every figure of §6 is built
//! from; [`runner`] provides the one-call entry points used by the
//! benches and examples.
//!
//! ## Example
//!
//! ```
//! use scu_algos::runner::{run, Algorithm, Mode};
//! use scu_algos::system::SystemKind;
//! use scu_graph::Dataset;
//!
//! let g = Dataset::Cond.build(1.0 / 128.0, 7);
//! let base = run(Algorithm::Bfs, &g, SystemKind::Tx1, Mode::GpuBaseline);
//! let scu = run(Algorithm::Bfs, &g, SystemKind::Tx1, Mode::ScuEnhanced);
//! assert!(scu.report.total_time_ns() > 0.0 && base.report.total_time_ns() > 0.0);
//! // Same answers, different machines.
//! assert_eq!(base.values, scu.values);
//! ```

pub mod bfs;
pub mod cc;
pub mod cell;
pub mod device_graph;
pub mod experiment;
pub mod kcore;
pub mod kernels;
pub mod pagerank;
pub mod report;
pub mod runner;
pub mod sssp;
pub mod system;

pub use cell::{mount_graph_artifacts, shared_graph, Cell, CellResult, MODEL_VERSION};
pub use experiment::{plan_cells, ExperimentConfig, ALL_MODES};
pub use report::{Phase, RunReport};
pub use runner::{run, Algorithm, Mode, RunOutput};
pub use scu_graph::artifact as graph_artifact;
pub use system::{System, SystemKind};
