//! # telemetry — observability for the CARE stack, silent unless asked
//!
//! The paper's headline quantitative claims are *timing* claims: >98 % of a
//! recovery is preparation rather than kernel execution (§5.3), and a
//! dozens-of-milliseconds rank-0 recovery disappears into the next allreduce
//! barrier (Fig. 10). This crate turns those from single modelled numbers
//! into first-class measured artefacts — distributions, counters and a
//! machine-readable event stream — and computes none of it when nobody
//! listens.
//!
//! ## The hooks value
//!
//! Instrumented code takes `hooks: &dyn `[`Hooks`] instead of a concrete
//! recorder, and every call site is written as
//!
//! ```ignore
//! if hooks.enabled() {
//!     hooks.add("tlb.loads", stats.loads);
//! }
//! ```
//!
//! [`NoTelemetry`] answers `false`, so a plain campaign skips the branch and
//! never builds its operands; the enabled implementation is [`Recorder`]:
//! per-thread **shards** (uncontended mutexes reached through a thread-local
//! cache) accumulate counters, histograms and events, and
//! [`Recorder::drain`] merges them into a [`TelemetryReport`]. Every
//! instrumented site runs once per trap, injection, cursor hop or
//! campaign; the per-step loops (`simx`, `tinyir`) do not know this crate
//! exists, so the guard is never on a hot path, the campaign core is
//! compiled once, and a live recorder costs 1–4 % of a warm job (ROADMAP,
//! observability item). That the off path touches nothing is pinned by
//! `tests/telemetry.rs` with hooks that panic when reached.
//!
//! ## Primitives
//!
//! * [`Histogram`] — log2-bucketed value distribution with *exact*
//!   count/sum/min/max (buckets only approximate quantiles, never moments).
//! * sharded counters — `add(name, delta)`; per-shard subtotals survive the
//!   drain, so per-worker utilization falls out of the counter design.
//! * span timers — [`timed`] measures wall-clock nanoseconds around a
//!   closure; simulated-step "time" is recorded by passing step deltas to
//!   [`Hooks::record`] (both land in histograms, distinguished by the
//!   `_ns` / `_steps` name suffix convention).
//! * two sinks — [`TelemetryReport::to_jsonl`], a versioned structured
//!   event stream (one JSON object per line, `schema_version` =
//!   [`SCHEMA_VERSION`]), and [`TelemetryReport::summary_table`], the
//!   human-readable phase-latency/counter rendering.
//!
//! The JSONL stream can be checked without serde via
//! [`schema::validate_jsonl`], which parses every line with the reader in
//! [`json`] — the one home of the workspace's JSON dialect, shared with the
//! campaign server's frames and the record store's log lines — and returns
//! the per-kind line counts.

pub mod event;
pub mod hist;
pub mod json;
pub mod recorder;
pub mod report;
pub mod schema;

pub use event::{Event, Value};
pub use hist::Histogram;
pub use json::{parse_json, Json, JsonRef};
pub use recorder::{timed, Hooks, NoTelemetry, Recorder};
pub use report::TelemetryReport;
pub use schema::validate_jsonl;

/// Version of the JSONL event schema emitted by [`TelemetryReport::to_jsonl`].
/// Bump on any report-shape change; `tests/telemetry.rs` and the schema
/// validator pin it so changes are explicit instead of silent.
pub const SCHEMA_VERSION: u32 = 1;
