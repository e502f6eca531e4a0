//! # carestore — content-addressed, append-only campaign-result storage
//!
//! A production campaign service re-runs mostly unchanged work. This
//! crate makes every injection result addressable and persistent, so a
//! re-run only executes the delta and a killed campaign resumes from its
//! log:
//!
//! * [`hash`] — a stable, hand-rolled 128-bit content hash (no external
//!   dependencies; golden-pinned so stored keys never rot);
//! * [`key`] — campaign identity `(module_hash, opt, engine_version)`
//!   where `module_hash` covers the **canonical TinyIR printing** plus
//!   the golden-run invocation, and the canonical `care1:...` string
//!   encoding that replaces careserve's old `Debug`-formatted text keys;
//! * [`log`] — the append-only JSONL record log: [`LogLine`] (`run` /
//!   `record` / `complete`), written incrementally, read back by one
//!   reader that the scan and triage share;
//! * [`record`] — the record codec (which lives in [`faultsim::wire`],
//!   shared with the careserve wire protocol) under the names external
//!   tools build log lines with;
//! * [`store`] — [`Store::run_campaign`], the resume/residual
//!   orchestration around [`faultsim::Campaign::run_selected`], with
//!   `store.*` telemetry counters;
//! * [`cache`] — each store's bounded cache of the logs it has read or
//!   written (decoded lines and the bytes they came from, checked against
//!   the file on every scan), through which its writers append. A scan
//!   answers exactly what [`scan_log`] gives on the file's bytes now: a
//!   warm re-run decodes no line, a later run only the lines appended
//!   since, and a truncated, rewritten or deleted log is decoded whole
//!   once;
//! * [`lru`] — the capacity-bounded cache careserve uses for prepared
//!   campaigns;
//! * [`mod@triage`] — the cross-run dedup/clustering pass over a whole store
//!   by `(outcome kind, decline, fault site)`.

pub mod cache;
pub mod hash;
pub mod key;
pub mod log;
pub mod lru;
pub mod record;
pub mod store;
pub mod triage;

pub use cache::CACHED_LOGS;
pub use hash::ContentHash;
pub use key::{campaign_key, CampaignKey};
pub use log::{
    read_log, run_signature, scan_log, LogLine, LogScan, LogWriter, RunKey, STORE_VERSION,
};
pub use lru::LruCache;
pub use store::{Store, StoreRun, StoreStats};
pub use triage::{triage, TriageCluster};
