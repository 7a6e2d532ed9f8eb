//! WCET-as-a-service: a persistent analysis daemon over the engine.
//!
//! A batch analyzer pays its warm-up — cache fixpoints, simplex bases,
//! block-cost tables — once per invocation and throws it away. This
//! crate keeps that state alive behind a socket: a framed JSON protocol
//! ([`frame`], [`proto`]), a worker pool sharing one warm-start
//! [`SolveContext`](wcet_core::SolveContext) and one bounded hot
//! [`MemoDomain`](wcet_core::MemoDomain) ([`server`]), and a thin
//! synchronous [`client`]. On shutdown the hot state drains into the
//! CRC-checkpointed disk memo, so a restarted server comes back warm.
//!
//! The load-bearing property is *equivalence*: served bounds are
//! byte-identical to what the in-process scenario runner produces,
//! because each submission is a one-worker run of that same runner
//! (`wcet_bench::scenario::run_campaign`, on the serving thread) with
//! the shared state passed in — pinned by the differential battery in
//! `tests/serve_equivalence.rs`.
//!
//! Overload is part of the contract, not an afterthought: admission
//! control sheds over-capacity connections with a typed, retryable
//! [`ErrorKind::Overloaded`] frame, per-request schema-2 limits become
//! the runner's per-cell budgets plus a run deadline, the [`client`]
//! retries with seeded backoff, and the open-system [`load`] harness
//! proves the whole loop degrades gracefully (see
//! `tests/serve_overload.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod frame;
pub mod load;
pub mod proto;
pub mod server;

pub use client::{request_with_retry, Client, ClientError, Retry, RetryStats};
pub use frame::{read_frame, write_frame, FrameError, FrameReader, MAX_FRAME};
pub use load::{run_load, LoadConfig};
pub use proto::{
    BoundRow, BoundsResponse, CellBounds, ErrorKind, Request, RequestLimits, RequestStats,
    Response, ServeError, StatsResponse, PROTO_SCHEMA,
};
pub use server::{start, ServerConfig, ServerHandle};
