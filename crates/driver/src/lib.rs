//! # usher-driver
//!
//! The pipeline driver of the Usher reproduction: the single entry point
//! that wires Parse → Lower → Inline → Mem2Reg → Opt → Pointer → MemSsa
//! → VfgBuild → Resolve → Instrument, with
//!
//! * a std-only thread-pool scheduler ([`parallel_map`]) giving batch
//!   parallelism across jobs and per-function parallelism inside memory
//!   SSA and full-instrumentation planning, with deterministic result
//!   ordering;
//! * an in-memory artifact cache keyed by stable content hashes of
//!   `(source, relevant options)`, so configuration sweeps recompute only
//!   the pipeline suffix each configuration changes;
//! * per-stage telemetry ([`PipelineReport`]) exportable as JSON lines.
//!
//! The CLI, benchmark binaries, examples and `usher serve` (through
//! [`Pipeline::run_retained`]) all route through [`Pipeline`];
//! hand-rolled stage wiring lives nowhere else.
//!
//! ```
//! use usher_driver::{Pipeline, PipelineOptions};
//! use usher_core::Config;
//!
//! let pipe = Pipeline::new();
//! let run = pipe
//!     .run_source(
//!         "demo",
//!         "def main() -> int { int x; if (x > 0) { print(1); } return 0; }",
//!         PipelineOptions::from_config(Config::USHER),
//!     )
//!     .unwrap();
//! assert!(run.plan.stats.checks > 0);
//! println!("{}", run.report.to_json_line());
//! ```

#![warn(missing_docs)]

mod cache;
mod fingerprint;
mod key;
mod options;
mod pipeline;
mod pool;
mod report;

pub use cache::{artifact_digest, Artifact, ArtifactCache, CacheStats, CACHE_FORMAT_VERSION};
pub use fingerprint::{gamma_fingerprint, plan_fingerprint};
pub use key::KeyWriter;
pub use options::{GuidedKnobs, PipelineOptions};
pub use pipeline::{
    analyze_pointer, tinyc_source_key, DriverError, Job, Pipeline, PipelineRun, RetainedRun,
    SourceInput,
};
pub use pool::{default_threads, parallel_map, parallel_map_catching};
pub use report::{
    json_escape, json_escape_into, BatchReport, DegradeEvent, PipelineReport, ServeHealth, Stage,
    StageTiming,
};
pub use usher_pointer::PointerStrategy;
