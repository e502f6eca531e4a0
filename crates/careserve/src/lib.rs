//! # careserve — the campaign engine as a long-running service
//!
//! The paper's evaluation is a batch of one-shot injection campaigns; the
//! production shape this repo grows toward is a persistent process serving
//! campaign jobs from many clients. This crate is that shape: a TCP server
//! speaking a versioned newline-delimited JSON protocol ([`proto`]),
//! running jobs on the existing [`faultsim::Campaign`] machinery, and
//! streaming back progress, records, telemetry, and the final report —
//! bit-identical to a local run of the same spec.
//!
//! Three properties define the design:
//!
//! * **Shared hot state.** All jobs from all clients share this server's
//!   prepared-campaign cache (golden run + snapshot trellis keyed by
//!   program + opt level, plus the campaign's compiled translation once a
//!   compiled job has built it), so the Nth job for a workload costs only
//!   its suffixes.
//! * **Explicit backpressure.** Budget-weighted admission against the pool
//!   width, a bounded wait queue, and typed `reject` frames
//!   ([`proto::RejectReason`]) — the server never buffers unboundedly and
//!   never dies on bad input.
//! * **One task per connection.** Each connection is a task on the
//!   process's parked threads ([`rayon::spawn`]); a job runs on the thread
//!   that reads its connection, and the campaign's own cancellation checks
//!   ([`faultsim::JobControl::watched`]) tend the socket: progress, mid-job
//!   `stats`, a refused second job, and a disconnect, which stops the job
//!   at its next check. A panicking job is contained to a `failed` frame.

pub mod client;
pub mod proto;
pub mod server;

pub use client::{fetch_stats, submit, ClientError, JobOutcome};
pub use proto::{JobSpec, RejectReason, StatsSnapshot, WorkloadSel, PROTO_VERSION};
pub use server::{CampaignServer, ServerConfig, ServerHandle};
