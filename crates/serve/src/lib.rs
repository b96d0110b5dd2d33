//! Verification as a service: a resident daemon in front of the batch
//! engine.
//!
//! The paper's workflow is one-shot — encode, solve, print, exit — but a
//! production verifier is a process that stays up: dashboards re-ask the
//! same distance question, CI fleets submit bursts, operators attach with
//! `nc`. This crate wraps the [`veriqec::engine`] machinery behind a
//! hand-rolled newline-delimited-JSON line protocol over TCP
//! ([`std::net::TcpListener`], no external dependencies) with the three
//! subsystems a resident process needs:
//!
//! * **Result cache** ([`cache`]): verdicts are content-addressed by an
//!   FNV-1a hash of the canonical request (code × scenario × schedule ×
//!   budgets), so a repeated question is answered without touching a
//!   solver. Only conclusive outcomes are cached.
//! * **Warm sessions** ([`pool`]): the PR 3 incremental sessions
//!   ([`veriqec::engine::DetectionSession`],
//!   [`veriqec::engine::FaultToleranceSweep`]) are pooled by
//!   code + scenario + budget and reused across requests — repeat queries
//!   skip re-encoding entirely (the smoke pins this through the sessions'
//!   cumulative query counts).
//! * **Admission control** ([`server`]): a bounded pending queue sheds
//!   load with `"busy"` past the high-water mark, a per-request deadline
//!   rides in the [`veriqec_sat::Stop`] that the solver or the diagram
//!   compiler already polls, and shutdown (request, SIGTERM, or API)
//!   drains admitted work before the process exits.
//!
//! Each request runs the engine's own code for its job kind; the daemon
//! adds only pool checkout and checkin, the request's stop, the result
//! cache and the response envelope.
//!
//! Responses carry the job outcome plus solver/diagram statistics in the
//! existing `BatchReport` JSON vocabulary, wrapped in a small envelope
//! (`id` echo, `cached`, `session`, `queries`, `cache_key`). See
//! `DESIGN.md` ("Serving") for the protocol grammar and
//! [`smoke::run_smoke`] for a scripted end-to-end exchange — the same
//! script `tables serve --smoke` runs in CI.

#![deny(unsafe_code)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod cache;
pub mod pool;
pub mod protocol;
pub mod server;
pub mod smoke;

/// Kept at this path only for the benchmark's `veriqec_serve::json::Json`.
pub use veriqec_obs::json;

pub use cache::{fnv1a, ResultCache};
pub use pool::{SessionPool, WarmSession};
pub use protocol::{
    canonical_request, parse_request, resolve_code, Request, RequestError, VerifyRequest,
};
pub use server::{ServeConfig, ServeMetrics, Server, ServerHandle};
