//! # scu-server — simulation-as-a-service for the experiment matrix
//!
//! A persistent daemon that serves the reproduction's 240-cell
//! (algorithm × dataset × system × mode) matrix over HTTP, so repeated
//! and overlapping investigations share one simulator, one result
//! cache, and one journal instead of each CLI invocation paying cold
//! costs alone.
//!
//! The pieces:
//!
//! - [`scheduler`] — the new subsystem: dedups requested cells against
//!   the on-disk cache, **coalesces identical in-flight cells across
//!   clients** (N clients with overlapping matrices compute each
//!   unique cell exactly once), batches cold cells through one shared
//!   [`scu_harness::Harness`] (inheriting retries, fault isolation,
//!   and journaling), and streams
//!   per-cell completions to every waiting sweep.
//! - [`server`] — a hand-rolled HTTP/1.1 front end over
//!   [`std::net::TcpListener`] (the offline build has no hyper):
//!   sweep submission, status, chunked event streams, cache reads,
//!   metrics.
//! - [`client`] — the blocking client the CLI passthrough
//!   (`run_one --remote`) and the end-to-end tests use, with
//!   capped-exponential-backoff retries on transient errors.
//! - [`api`] / [`http`] — the JSON request surface and the protocol
//!   plumbing.
//!
//! The server is hardened for hostile and degraded conditions: socket
//! read/write timeouts plus a per-request wall-clock deadline
//! (slowloris-proof), a bounded connection queue and pending-cell
//! admission cap that shed overload with `503`/`429 Retry-After`,
//! per-sweep deadlines that cancel unresolved cells, and mid-stream
//! disconnect detection that releases orphaned sweeps. The failure
//! model and its failpoint sites are documented in DESIGN.md §3e.
//!
//! Results served over HTTP are byte-identical to `run_one`'s: both
//! paths build cells through
//! [`scu_algos::experiment::ExperimentConfig::cell`], so cache keys
//! and result serialisations are shared end to end.

pub mod api;
pub mod client;
pub mod http;
pub mod scheduler;
pub mod server;

pub use client::{Client, ClientError};
pub use http::ReadLimits;
pub use scheduler::{
    Counters, Scheduler, SchedulerConfig, SweepState, DEFAULT_MAX_PENDING_CELLS,
    DEFAULT_MAX_RETAINED_SWEEPS,
};
pub use server::{Server, ServerConfig, ServerHandle};
