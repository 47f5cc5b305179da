//! # usher-serve
//!
//! `usher serve` — a persistent, incremental analysis service.
//!
//! The crate wires four pieces together:
//!
//! - a JSON-lines request protocol ([`json`], [`server`]) served over
//!   stdin and an optional Unix socket to many concurrent clients;
//! - a two-tier artifact cache: the driver's in-memory
//!   [`usher_driver::ArtifactCache`] in front of an on-disk
//!   content-addressed [`store::DiskStore`] with digest-verified entries
//!   and size-capped LRU eviction;
//! - function-granular incremental re-analysis ([`engine`]): an `edit`
//!   that only changes one function's body recomputes that function's
//!   memory-SSA and VFG slice and splices it into retained module state,
//!   falling back soundly (and observably) to a full recompute whenever
//!   the edit could change signatures, globals, inlining or the shape of
//!   the points-to solution. Every full analysis (cold open, fallback,
//!   WAL replay) is a strict run of the driver's
//!   [`usher_driver::Pipeline::run_retained`]; serve runs no
//!   whole-program stage of its own;
//! - crash safety and overload resilience: a checksummed session WAL
//!   ([`wal`]) replayed on startup to reconstruct sessions
//!   byte-identically after a kill, bounded-queue load shedding with
//!   `retry_after_ms` hints, per-request deadlines, and an injectable
//!   I/O fault shim ([`faultio`]) that lets the chaos campaign prove
//!   every torn write / ENOSPC / kill-point either recovers exactly or
//!   degrades with a recorded reason.

#![warn(missing_docs)]

pub mod codec;
pub mod engine;
pub mod faultio;
pub mod json;
pub mod server;
pub mod store;
pub mod wal;

pub use engine::{
    plan_is_degraded, AnalyzeOutcome, Counters, EditOutcome, Engine, EngineConfig, EngineStats,
    QueryOutcome, ReplaySummary,
};
pub use faultio::{FaultIo, FaultKind, FaultSite, FaultSpec};
pub use json::Json;
pub use server::{run_server, Dispatcher, Handled, ServerConfig};
pub use store::{verify_dir, DiskStats, DiskStore, StoreKind};
pub use wal::{Wal, WalRecord, WalReplayInfo};
