//! The careserve wire protocol: versioned newline-delimited JSON.
//!
//! Every frame is one JSON object on one line, always carrying a string
//! `"kind"`. [`ClientFrame`] and [`ServerFrame`] state the vocabulary, one
//! enum per direction with `encode` and `decode` side by side; nothing
//! else in the crate matches a kind or names a frame field. Client→server
//! frames additionally carry `"proto"` (the protocol version,
//! [`PROTO_VERSION`]); server→client frames are implied to match the
//! version the request carried.
//!
//! The JSON dialect — escaping, the `u64` spelling that survives an
//! f64-backed parser, shortest-round-trip floats, range-checked reads — is
//! [`telemetry::json`]'s, and the [`InjectionRecord`] and
//! [`CampaignReport`] field codecs are [`faultsim::wire`]'s, shared
//! verbatim with the store's on-disk record log: a streamed `record`
//! frame and a logged record line carry byte-identical fields and can
//! never drift.
//!
//! ## Stream order
//!
//! Server→client, for one job: `accepted`, zero or more `progress`, zero
//! or more `record` (when the spec asks for records), zero or more
//! `telemetry` (JSONL passthrough when asked), then exactly one of
//! `report` + `done`, `failed` (the job panicked), or `reject`
//! (admission/validation, with a typed [`RejectReason`]).

use faultsim::wire::{push_record_fields, push_report_fields, record_from_ref, report_from_ref};
use faultsim::{CampaignConfig, CampaignReport, FaultModel, InjectionRecord};
use opt::OptLevel;
use simx::EngineKind;
use telemetry::json::{push_int, push_str, push_u64, Json, JsonRef, Obj};
use workloads::Workload;

/// The decoders of an owned `record` / `report` frame payload
/// ([`parse_frame`]'s): the shared field codecs' owned-tree entry points,
/// under their wire-side names. [`ServerFrame::decode`] reads the borrowed
/// tree.
pub use faultsim::wire::{record_from_json as decode_record, report_from_json as decode_report};

/// Wire-protocol version. Mismatches are rejected with
/// [`RejectReason::UnsupportedProto`], never guessed at.
pub const PROTO_VERSION: u32 = 1;

/// Hard cap on one frame line (bytes, newline excluded). Longer lines are
/// rejected with [`RejectReason::Oversized`] and drained to the next
/// newline so the connection survives.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Cap on an inline TinyIR module's text within a job frame.
pub const MAX_MODULE_BYTES: usize = 256 << 10;

/// Cap on per-job injection count a server will accept.
pub const MAX_INJECTIONS: usize = 100_000;

/// Cap on a named workload's size parameters: keeps the builders' size
/// arithmetic (cubes and products of them) inside `i64`. It does not bound
/// the golden run — `hpccg [256, 4096]` passes and asks for ≈ 10¹² steps;
/// [`faultsim::MAX_GOLDEN_STEPS`] does.
pub const MAX_WORKLOAD_PARAM: i64 = 4096;

/// Why the server refused a frame or a job. The reason travels as a stable
/// snake_case wire name; `detail` (free text) rides alongside it in the
/// `reject` frame but is never part of the contract.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RejectReason {
    /// The line was not valid JSON.
    BadJson,
    /// Valid JSON, but not a recognisable frame (missing/unknown `kind`,
    /// or a field with the wrong shape).
    BadFrame,
    /// The frame's `proto` version is not [`PROTO_VERSION`].
    UnsupportedProto,
    /// The job spec doesn't resolve: unknown workload, bad params, an
    /// inline module that fails to parse or to verify
    /// ([`tinyir::verify::verify_module`]), or out-of-range settings.
    BadSpec,
    /// Frame or inline module over the size cap.
    Oversized,
    /// Admission control: the bounded wait queue is full.
    QueueFull,
    /// A second job arrived on a connection whose job is still in flight.
    ClientBusy,
    /// The server is shutting down and takes no new work.
    ShuttingDown,
}

impl RejectReason {
    /// Every reason, for table-driven tests and decoding.
    pub const ALL: [RejectReason; 8] = [
        RejectReason::BadJson,
        RejectReason::BadFrame,
        RejectReason::UnsupportedProto,
        RejectReason::BadSpec,
        RejectReason::Oversized,
        RejectReason::QueueFull,
        RejectReason::ClientBusy,
        RejectReason::ShuttingDown,
    ];

    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            RejectReason::BadJson => "bad_json",
            RejectReason::BadFrame => "bad_frame",
            RejectReason::UnsupportedProto => "unsupported_proto",
            RejectReason::BadSpec => "bad_spec",
            RejectReason::Oversized => "oversized",
            RejectReason::QueueFull => "queue_full",
            RejectReason::ClientBusy => "client_busy",
            RejectReason::ShuttingDown => "shutting_down",
        }
    }

    /// Inverse of [`name`](Self::name).
    pub fn parse(s: &str) -> Option<RejectReason> {
        RejectReason::ALL.into_iter().find(|r| r.name() == s)
    }
}

/// Which program a job runs.
#[derive(Clone, PartialEq, Debug)]
pub enum WorkloadSel {
    /// One of the built-in §2 workloads by name, with optional size
    /// parameters (empty = that workload's paper-scale default).
    Named {
        /// `hpccg`, `comd`, `minife`, `minimd` or `gtcp`.
        name: String,
        /// Builder parameters, arity-checked against the workload.
        params: Vec<i64>,
    },
    /// An inline TinyIR module shipped in the job frame.
    Inline {
        /// Module text (parsed with `tinyir::parser::parse_module`).
        text: String,
        /// Raw-bit arguments for `main`.
        args: Vec<u64>,
        /// Output regions `(global, bytes)` for SDC classification.
        outputs: Vec<(String, u64)>,
    },
}

/// One campaign job as it travels over the wire.
#[derive(Clone, PartialEq, Debug)]
pub struct JobSpec {
    /// What to run.
    pub workload: WorkloadSel,
    /// Campaign RNG seed.
    pub seed: u64,
    /// Number of injections.
    pub injections: usize,
    /// Bit-flip model.
    pub model: FaultModel,
    /// Execution backend.
    pub engine: EngineKind,
    /// Optimisation level for the compile.
    pub opt: OptLevel,
    /// Admission weight in pool threads (0 = whole pool). The job itself
    /// always runs on the shared process-wide pool; this is the slice of
    /// it the job *reserves* against the server's in-flight cap.
    pub threads: usize,
    /// Evaluate SIGSEGV injections under CARE.
    pub evaluate_care: bool,
    /// Restrict injections to the executable module.
    pub app_only: bool,
    /// Stream every `InjectionRecord` back (`record` frames).
    pub records: bool,
    /// Stream the job's telemetry JSONL back (`telemetry` frames).
    pub telemetry: bool,
}

impl Default for JobSpec {
    fn default() -> JobSpec {
        JobSpec {
            workload: WorkloadSel::Named { name: "hpccg".to_string(), params: vec![3, 2] },
            seed: 0xCA2E,
            injections: 40,
            model: FaultModel::SingleBit,
            engine: EngineKind::Interp,
            opt: OptLevel::O1,
            threads: 0,
            evaluate_care: true,
            app_only: true,
            records: true,
            telemetry: false,
        }
    }
}

fn parse_opt(s: &str) -> Option<OptLevel> {
    match s {
        "O0" | "o0" => Some(OptLevel::O0),
        "O1" | "o1" => Some(OptLevel::O1),
        _ => None,
    }
}

impl JobSpec {
    /// Render the `job` frame (no trailing newline).
    pub fn to_frame(&self) -> String {
        let mut o = Obj::new("job");
        o.u64("proto", PROTO_VERSION as u64);
        match &self.workload {
            WorkloadSel::Named { name, params } => {
                o.str("workload", name).arr("params", params, |s, p| push_int(s, *p));
            }
            WorkloadSel::Inline { text, args, outputs } => {
                o.str("workload", "inline")
                    .str("module", text)
                    .arr("args", args, |s, a| push_u64(s, *a))
                    .arr("outputs", outputs, |s, (name, bytes)| {
                        s.push('[');
                        push_str(s, name);
                        s.push(',');
                        push_u64(s, *bytes);
                        s.push(']');
                    });
            }
        }
        o.u64("seed", self.seed)
            .u64("injections", self.injections as u64)
            .str("model", self.model.name())
            .str("engine", self.engine.name())
            .str("opt", &self.opt.to_string())
            .u64("threads", self.threads as u64)
            .bool("evaluate_care", self.evaluate_care)
            .bool("app_only", self.app_only)
            .bool("records", self.records)
            .bool("telemetry", self.telemetry)
            .end()
    }

    /// [`from_ref`](Self::from_ref) of the owned tree.
    pub fn from_json(v: &Json) -> Result<JobSpec, (RejectReason, String)> {
        JobSpec::from_ref(&v.to_ref())
    }

    /// Decode and validate a parsed `job` frame. The error pairs the
    /// typed reason with human-readable detail for the `reject` frame.
    /// Unknown keys are ignored (older clients still send `"scheduler"`).
    fn from_ref(v: &JsonRef) -> Result<JobSpec, (RejectReason, String)> {
        let bad = |detail: String| (RejectReason::BadFrame, detail);
        let spec = |detail: String| (RejectReason::BadSpec, detail);
        let proto: u64 = v.req("proto", JsonRef::uint).map_err(bad)?;
        if proto != PROTO_VERSION as u64 {
            let detail = format!("proto {proto} (this server speaks {PROTO_VERSION})");
            return Err((RejectReason::UnsupportedProto, detail));
        }
        let name = v.req("workload", JsonRef::as_str).map_err(bad)?;
        let workload = if name == "inline" {
            let text = v.req("module", JsonRef::as_str).map_err(bad)?;
            if text.len() > MAX_MODULE_BYTES {
                let detail =
                    format!("inline module is {} bytes (cap {MAX_MODULE_BYTES})", text.len());
                return Err((RejectReason::Oversized, detail));
            }
            let output = |o: &JsonRef| match o {
                JsonRef::Arr(pair) if pair.len() == 2 => {
                    Some((pair[0].as_str()?.to_string(), pair[1].uint()?))
                }
                _ => None,
            };
            WorkloadSel::Inline {
                text: text.to_string(),
                args: v.opt("args", |a| a.list(JsonRef::uint)).map_err(bad)?.unwrap_or_default(),
                outputs: v.opt("outputs", |a| a.list(output)).map_err(bad)?.unwrap_or_default(),
            }
        } else {
            // Any integral number is a param; `resolve_workload` bounds it.
            let param = |p: &JsonRef| p.as_f64().filter(|n| n.fract() == 0.0).map(|n| n as i64);
            let params = v.opt("params", |a| a.list(param)).map_err(bad)?.unwrap_or_default();
            WorkloadSel::Named { name: name.to_string(), params }
        };
        let injections: usize = v.req("injections", JsonRef::uint).map_err(bad)?;
        if injections == 0 || injections > MAX_INJECTIONS {
            return Err(spec(format!("injections {injections} outside 1..={MAX_INJECTIONS}")));
        }
        // An absent key takes `JobSpec::default()`'s value: one list of
        // defaults, shared with every client that builds specs in code.
        let default = JobSpec::default();
        let name = |key| v.opt(key, JsonRef::as_str).map_err(bad);
        let flag =
            |key, absent| v.opt(key, JsonRef::as_bool).map(|b| b.unwrap_or(absent)).map_err(bad);
        Ok(JobSpec {
            workload,
            seed: v.opt("seed", JsonRef::uint).map_err(bad)?.unwrap_or(default.seed),
            injections,
            model: name("model")?.map_or(Ok(default.model), str::parse).map_err(spec)?,
            engine: name("engine")?.map_or(Ok(default.engine), str::parse).map_err(spec)?,
            opt: name("opt")?
                .map_or(Some(default.opt), parse_opt)
                .ok_or_else(|| spec("unknown opt level (O0|O1)".to_string()))?,
            threads: v.opt("threads", JsonRef::uint).map_err(bad)?.unwrap_or(default.threads),
            evaluate_care: flag("evaluate_care", default.evaluate_care)?,
            app_only: flag("app_only", default.app_only)?,
            records: flag("records", default.records)?,
            telemetry: flag("telemetry", default.telemetry)?,
        })
    }

    /// A stable cache key for the campaign this spec needs: everything
    /// [`faultsim::Campaign::prepare`] depends on (program + opt level),
    /// nothing it doesn't (seed, injections, engine).
    ///
    /// The key is the canonical content-addressed [`carestore::CampaignKey`]
    /// encoding, hashed over the **resolved module's canonical printing** —
    /// not over the spec text. The old key interpolated `{params:?}` /
    /// `{args:?}` `Debug` output and the raw inline text, so two
    /// formattings of the same program got distinct keys (cache misses,
    /// split store logs) while a `Debug`-format change could silently
    /// collide or rotate every key. Resolution can fail, so this returns
    /// the same error `resolve_workload` would.
    pub fn campaign_key(&self) -> Result<String, String> {
        let w = resolve_workload(&self.workload)?;
        Ok(campaign_key_for(&w, self.opt).encode())
    }

    /// The [`CampaignConfig`] this spec asks for — the one spec→config
    /// mapping, used by the server's job runs and by every local run a served
    /// job is compared against. Nothing in it depends on the pool width, so
    /// a served report equals a local one at any width.
    pub fn campaign_config(&self) -> CampaignConfig {
        CampaignConfig {
            injections: self.injections,
            model: self.model,
            seed: self.seed,
            evaluate_care: self.evaluate_care,
            app_only: self.app_only,
            keep_records: self.records,
            engine: self.engine,
            ..CampaignConfig::default()
        }
    }
}

/// The canonical campaign key for an already-resolved workload:
/// [`carestore::campaign_key`] over the module's canonical printing plus
/// the golden-run invocation. `.encode()` gives the `care1:...` string.
pub fn campaign_key_for(w: &Workload, opt: OptLevel) -> carestore::CampaignKey {
    carestore::campaign_key(&w.module, w.entry, &w.args, &w.outputs, &opt.to_string())
}

/// Resolve the spec's workload selector to a runnable [`Workload`].
/// Pure validation + construction — no compilation, no golden run — so
/// rejects are cheap and happen before admission.
pub fn resolve_workload(sel: &WorkloadSel) -> Result<Workload, String> {
    match sel {
        WorkloadSel::Named { name, params } => {
            if params.iter().any(|&p| !(1..=MAX_WORKLOAD_PARAM).contains(&p)) {
                return Err(format!("params {params:?} outside 1..={MAX_WORKLOAD_PARAM}"));
            }
            let arity_err = |want: usize| {
                format!("workload {name:?} takes {want} params (or none), got {}", params.len())
            };
            let p = |i: usize| params[i];
            match (name.as_str(), params.len()) {
                ("hpccg", 0) => Ok(workloads::hpccg::default()),
                ("hpccg", 2) => Ok(workloads::hpccg::build(p(0), p(1))),
                ("hpccg", _) => Err(arity_err(2)),
                ("comd", 0) => Ok(workloads::comd::default()),
                ("comd", 3) => Ok(workloads::comd::build(p(0), p(1), p(2))),
                ("comd", _) => Err(arity_err(3)),
                ("minife", 0) => Ok(workloads::minife::default()),
                ("minife", 2) => Ok(workloads::minife::build(p(0), p(1))),
                ("minife", _) => Err(arity_err(2)),
                ("minimd", 0) => Ok(workloads::minimd::default()),
                ("minimd", 2) => Ok(workloads::minimd::build(p(0), p(1))),
                ("minimd", _) => Err(arity_err(2)),
                ("gtcp", 0) => Ok(workloads::gtcp::default()),
                ("gtcp", 4) => Ok(workloads::gtcp::build(p(0), p(1), p(2), p(3))),
                ("gtcp", _) => Err(arity_err(4)),
                (other, _) => Err(format!(
                    "unknown workload {other:?} (hpccg|comd|minife|minimd|gtcp|inline)"
                )),
            }
        }
        WorkloadSel::Inline { text, args, outputs } => {
            let module =
                tinyir::parser::parse_module(text).map_err(|e| format!("inline module: {e}"))?;
            // The compiler and the simulator index by the ids a module
            // names, so one that parses but does not verify is refused here,
            // before admission.
            tinyir::verify::verify_module(&module).map_err(|e| format!("inline module: {e}"))?;
            if !module.funcs.iter().any(|f| f.name == "main") {
                return Err("inline module has no \"main\"".to_string());
            }
            Ok(Workload {
                name: "inline",
                module,
                entry: "main",
                args: args.clone(),
                outputs: outputs.clone(),
            })
        }
    }
}

// ---------------------------------------------------------------------------
// Frames.

/// A client→server frame.
#[derive(Clone, Debug, PartialEq)]
pub enum ClientFrame {
    /// Run one campaign job.
    Job(JobSpec),
    /// Ask for the server's counters (answered with [`ServerFrame::Stats`],
    /// also while a job is in flight on the connection).
    Stats,
}

impl ClientFrame {
    /// Render the frame (no trailing newline).
    pub fn encode(&self) -> String {
        match self {
            ClientFrame::Job(spec) => spec.to_frame(),
            ClientFrame::Stats => Obj::new("stats").u64("proto", PROTO_VERSION as u64).end(),
        }
    }

    /// Decode and validate one frame line; the error is the typed reject
    /// the server answers with.
    pub fn decode(line: &str) -> Result<ClientFrame, (RejectReason, String)> {
        let v = parse_frame_ref(line)?;
        match v.get("kind").and_then(JsonRef::as_str) {
            Some("job") => JobSpec::from_ref(&v).map(ClientFrame::Job),
            Some("stats") => Ok(ClientFrame::Stats),
            other => Err((RejectReason::BadFrame, format!("unknown frame kind {other:?}"))),
        }
    }
}

/// A server→client frame. Every frame of a job's stream leads with the
/// server-assigned job id.
#[derive(Clone, Debug, PartialEq)]
pub enum ServerFrame {
    /// The job was admitted under this id.
    Accepted(u64),
    /// Injections classified so far, then the requested total (the
    /// classified count can end below the total — unfired points yield no
    /// record, exactly as in local runs).
    Progress(u64, u64, u64),
    /// One record of the job, in report order.
    Record(u64, InjectionRecord),
    /// One JSONL line of the job's telemetry stream, shipped verbatim as a
    /// string payload.
    Telemetry(u64, String),
    /// The job's aggregate report; its `records` are empty (they travel as
    /// `record` frames and are re-attached by the client).
    Report(u64, CampaignReport),
    /// End of the job's stream.
    Done(u64),
    /// The job panicked with this message; the connection and the server
    /// keep serving.
    Failed(u64, String),
    /// A frame or job was refused: the reason as a stable wire name, and
    /// free-text detail that is never part of the contract.
    Reject(RejectReason, String),
    /// The server's counters.
    Stats(StatsSnapshot),
}

impl ServerFrame {
    /// Render the frame (no trailing newline).
    pub fn encode(&self) -> String {
        match self {
            ServerFrame::Accepted(job_id) => Obj::new("accepted").u64("job_id", *job_id).end(),
            ServerFrame::Progress(job_id, classified, total) => Obj::new("progress")
                .u64("job_id", *job_id)
                .u64("classified", *classified)
                .u64("total", *total)
                .end(),
            ServerFrame::Record(job_id, record) => encode_record(*job_id, record),
            ServerFrame::Telemetry(job_id, line) => {
                Obj::new("telemetry").u64("job_id", *job_id).str("line", line).end()
            }
            ServerFrame::Report(job_id, report) => encode_report(*job_id, report),
            ServerFrame::Done(job_id) => Obj::new("done").u64("job_id", *job_id).end(),
            ServerFrame::Failed(job_id, detail) => {
                Obj::new("failed").u64("job_id", *job_id).str("detail", detail).end()
            }
            ServerFrame::Reject(reason, detail) => {
                Obj::new("reject").str("reason", reason.name()).str("detail", detail).end()
            }
            ServerFrame::Stats(stats) => {
                let mut o = Obj::new("stats");
                stats.map(|name, count| {
                    o.u64(name, *count);
                });
                o.end()
            }
        }
    }

    /// Decode one frame line.
    pub fn decode(line: &str) -> Result<ServerFrame, String> {
        let v = parse_frame_ref(line).map_err(|(_, detail)| detail)?;
        let job_id = || v.req("job_id", JsonRef::uint);
        let text = |key| v.req(key, JsonRef::as_str).map(str::to_string);
        Ok(match v.req("kind", JsonRef::as_str)? {
            "accepted" => ServerFrame::Accepted(job_id()?),
            "progress" => ServerFrame::Progress(
                job_id()?,
                v.req("classified", JsonRef::uint)?,
                v.req("total", JsonRef::uint)?,
            ),
            "record" => ServerFrame::Record(job_id()?, record_from_ref(&v)?),
            "telemetry" => ServerFrame::Telemetry(job_id()?, text("line")?),
            "report" => ServerFrame::Report(job_id()?, report_from_ref(&v)?),
            "done" => ServerFrame::Done(job_id()?),
            "failed" => ServerFrame::Failed(job_id()?, text("detail")?),
            "reject" => {
                let reason = v.req("reason", |r| RejectReason::parse(r.as_str()?))?;
                ServerFrame::Reject(reason, text("detail")?)
            }
            "stats" => ServerFrame::Stats(
                StatsSnapshot::default().try_map(|name, _| v.req(name, JsonRef::uint))?,
            ),
            other => return Err(format!("unknown frame kind {other:?}")),
        })
    }
}

/// [`ServerFrame::Record`]'s encoding, for a caller that only borrows the
/// record. Exact: [`decode_record`] reproduces the record bit for bit.
pub fn encode_record(job_id: u64, r: &InjectionRecord) -> String {
    let mut o = Obj::new("record");
    push_record_fields(o.u64("job_id", job_id), r);
    o.end()
}

/// [`ServerFrame::Report`]'s encoding, for a caller that only borrows the
/// report (whose `records` it ignores).
pub fn encode_report(job_id: u64, r: &CampaignReport) -> String {
    let mut o = Obj::new("report");
    push_report_fields(o.u64("job_id", job_id), r);
    o.end()
}

/// Parse one frame line into its JSON value, classifying parse failures.
fn parse_frame_ref(line: &str) -> Result<JsonRef<'_>, (RejectReason, String)> {
    let v = JsonRef::parse(line).map_err(|e| (RejectReason::BadJson, e))?;
    if v.get("kind").and_then(JsonRef::as_str).is_none() {
        return Err((RejectReason::BadFrame, "frame missing string \"kind\"".to_string()));
    }
    Ok(v)
}

/// [`parse_frame_ref`]'s value as the owned tree.
pub fn parse_frame(line: &str) -> Result<Json, (RejectReason, String)> {
    parse_frame_ref(line).map(JsonRef::into_owned)
}

// ---------------------------------------------------------------------------
// Server stats.

/// The server's counters, one `T` each: `u64` as served by the `stats`
/// frame ([`StatsSnapshot`]), atomics as the live server keeps them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Stats<T> {
    /// Jobs admitted (sent `accepted`).
    pub jobs_accepted: T,
    /// Frames/jobs refused with a `reject`.
    pub jobs_rejected: T,
    /// Jobs that ran to completion.
    pub jobs_completed: T,
    /// Jobs that panicked (`failed` frame sent).
    pub jobs_failed: T,
    /// Jobs cancelled by client disconnect or server shutdown.
    pub jobs_cancelled: T,
    /// Jobs currently waiting for budget.
    pub queue_depth: T,
    /// Thread budget currently reserved by running jobs.
    pub inflight_budget: T,
    /// The server's global budget cap (pool width by default).
    pub budget_cap: T,
    /// Prepared-campaign cache hits across all jobs.
    pub cache_hits: T,
    /// Prepared-campaign cache misses (prepares actually run).
    pub cache_misses: T,
    /// Prepared campaigns evicted from the bounded cache (LRU order).
    pub cache_evictions: T,
    /// `record` frames streamed to clients.
    pub records_streamed: T,
}

/// A snapshot of the server's counters, as served by the `stats` frame.
pub type StatsSnapshot = Stats<u64>;

impl<T> Stats<T> {
    /// The one table of counter names: rebuild the struct with every
    /// counter passed through `f` under its wire name, in frame order.
    /// Encoding, decoding, the server's snapshot and its telemetry are all
    /// walks of this table.
    pub fn try_map<U, E>(
        &self,
        mut f: impl FnMut(&'static str, &T) -> Result<U, E>,
    ) -> Result<Stats<U>, E> {
        Ok(Stats {
            jobs_accepted: f("jobs_accepted", &self.jobs_accepted)?,
            jobs_rejected: f("jobs_rejected", &self.jobs_rejected)?,
            jobs_completed: f("jobs_completed", &self.jobs_completed)?,
            jobs_failed: f("jobs_failed", &self.jobs_failed)?,
            jobs_cancelled: f("jobs_cancelled", &self.jobs_cancelled)?,
            queue_depth: f("queue_depth", &self.queue_depth)?,
            inflight_budget: f("inflight_budget", &self.inflight_budget)?,
            budget_cap: f("budget_cap", &self.budget_cap)?,
            cache_hits: f("cache_hits", &self.cache_hits)?,
            cache_misses: f("cache_misses", &self.cache_misses)?,
            cache_evictions: f("cache_evictions", &self.cache_evictions)?,
            records_streamed: f("records_streamed", &self.records_streamed)?,
        })
    }

    /// [`try_map`](Self::try_map) for an `f` that cannot fail.
    pub fn map<U>(&self, mut f: impl FnMut(&'static str, &T) -> U) -> Stats<U> {
        let mapped = self.try_map(|name, v| Ok::<U, std::convert::Infallible>(f(name, v)));
        mapped.unwrap_or_else(|never| match never {})
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultsim::{CareResult, InjectedInto, InjectionPoint, Outcome, Signal, StepSplit};
    use safeguard::DeclineKind;
    use simx::ModuleId;
    use tinyir::FuncId;

    #[test]
    fn job_spec_round_trips_named_and_inline() {
        let named = JobSpec {
            seed: u64::MAX - 7,
            injections: 123,
            model: FaultModel::DoubleBit,
            engine: EngineKind::Compiled,
            opt: OptLevel::O0,
            threads: 3,
            evaluate_care: false,
            app_only: false,
            records: false,
            telemetry: true,
            ..JobSpec::default()
        };
        let v = parse_frame(&named.to_frame()).unwrap();
        assert_eq!(JobSpec::from_json(&v).unwrap(), named);

        let inline = JobSpec {
            workload: WorkloadSel::Inline {
                text: "module \"m\"\nweird text with \"quotes\"\n".to_string(),
                args: vec![7, u64::MAX],
                outputs: vec![("out".to_string(), 64)],
            },
            ..JobSpec::default()
        };
        let v = parse_frame(&inline.to_frame()).unwrap();
        assert_eq!(JobSpec::from_json(&v).unwrap(), inline);

        // Every key a frame leaves out takes `JobSpec::default()`'s value.
        let v =
            parse_frame(r#"{"kind":"job","proto":1,"workload":"gtcp","injections":5}"#).unwrap();
        let workload = WorkloadSel::Named { name: "gtcp".to_string(), params: vec![] };
        let minimal = JobSpec { workload, injections: 5, ..JobSpec::default() };
        assert_eq!(JobSpec::from_json(&v).unwrap(), minimal);
    }

    #[test]
    fn job_spec_rejects_are_typed() {
        let inline_frame = |field: &str| {
            format!(
                "{{\"kind\":\"job\",\"proto\":1,\"workload\":\"inline\",\"module\":\"m\",{field},\"injections\":5}}"
            )
        };
        let cases: Vec<(String, RejectReason)> = vec![
            // Wrong protocol version.
            (
                JobSpec::default().to_frame().replace("\"proto\":1", "\"proto\":99"),
                RejectReason::UnsupportedProto,
            ),
            // Frame-shape violation: params not an array.
            (
                "{\"kind\":\"job\",\"proto\":1,\"workload\":\"hpccg\",\"params\":3,\"injections\":1}"
                    .to_string(),
                RejectReason::BadFrame,
            ),
            // Spec violations.
            (
                "{\"kind\":\"job\",\"proto\":1,\"workload\":\"hpccg\",\"injections\":0}".to_string(),
                RejectReason::BadSpec,
            ),
            (
                "{\"kind\":\"job\",\"proto\":1,\"workload\":\"hpccg\",\"injections\":5,\"model\":\"triple\"}"
                    .to_string(),
                RejectReason::BadSpec,
            ),
            // Inline `args`/`outputs` entries no u64 names: beyond 2^53 as
            // a bare number, negative, fractional.
            (inline_frame("\"args\":[1e300]"), RejectReason::BadFrame),
            (inline_frame("\"args\":[-1]"), RejectReason::BadFrame),
            (inline_frame("\"args\":[1.5]"), RejectReason::BadFrame),
            (inline_frame("\"outputs\":[[\"out\",1e300]]"), RejectReason::BadFrame),
            // Oversized inline module.
            (
                format!(
                    "{{\"kind\":\"job\",\"proto\":1,\"workload\":\"inline\",\"module\":\"{}\",\"injections\":5}}",
                    "x".repeat(MAX_MODULE_BYTES + 1)
                ),
                RejectReason::Oversized,
            ),
        ];
        for (frame, want) in cases {
            let v = parse_frame(&frame).unwrap();
            let (got, detail) = JobSpec::from_json(&v).unwrap_err();
            assert_eq!(got, want, "frame {frame:.120}... → {detail}");
        }
    }

    /// A frame-sized string decodes in linear time: the bound holds even in
    /// a debug build, where a parser quadratic in the string takes minutes.
    #[test]
    fn frame_sized_module_string_decodes_in_linear_time() {
        let head = "{\"kind\":\"job\",\"proto\":1,\"workload\":\"inline\",\"module\":\"";
        let tail = "\",\"injections\":5}";
        let frame = format!("{head}{}{tail}", "x".repeat(MAX_FRAME_BYTES - 200));
        assert!(frame.len() <= MAX_FRAME_BYTES);
        let t0 = std::time::Instant::now();
        let reject = ClientFrame::decode(&frame).unwrap_err();
        assert_eq!(reject.0, RejectReason::Oversized, "{}", reject.1);
        let elapsed = t0.elapsed();
        assert!(elapsed < std::time::Duration::from_secs(2), "took {elapsed:?}");
    }

    #[test]
    fn workload_resolution_validates() {
        let named = |name: &str, params: &[i64]| WorkloadSel::Named {
            name: name.to_string(),
            params: params.to_vec(),
        };
        assert!(resolve_workload(&named("hpccg", &[3, 2])).is_ok());
        assert!(resolve_workload(&named("gtcp", &[4, 2, 16, 1])).is_ok());
        assert!(resolve_workload(&named("hpccg", &[])).is_ok());
        assert!(resolve_workload(&named("hpccg", &[3])).is_err());
        assert!(resolve_workload(&named("hpccg", &[0, 2])).is_err());
        assert!(resolve_workload(&named("hpccg", &[MAX_WORKLOAD_PARAM + 1, 2])).is_err());
        assert!(resolve_workload(&named("nope", &[])).is_err());
        let bad_inline =
            WorkloadSel::Inline { text: "not a module".to_string(), args: vec![], outputs: vec![] };
        assert!(resolve_workload(&bad_inline).is_err());
    }

    #[test]
    fn record_frames_round_trip_exactly() {
        let records = vec![
            InjectionRecord {
                point: InjectionPoint { module: ModuleId(1), func: FuncId(2), inst: 3, nth: 4 },
                target: InjectedInto::Mem(u64::MAX - 1),
                outcome: Outcome::SoftFailure(Signal::Segv),
                latency: Some(17),
                sim_steps: (1 << 53) + 99,
                split: StepSplit { prefix: 10, suffix: 20, care: 30 },
                care: Some(CareResult {
                    covered: false,
                    recoveries: 2,
                    recovery_ms: 0.1 + 0.2, // deliberately non-terminating in binary
                    decline: Some(DeclineKind::Hang),
                }),
            },
            InjectionRecord {
                point: InjectionPoint { module: ModuleId(0), func: FuncId(0), inst: 0, nth: 0 },
                target: InjectedInto::Skipped,
                outcome: Outcome::Benign,
                latency: None,
                sim_steps: 0,
                split: StepSplit::default(),
                care: None,
            },
        ];
        for r in &records {
            let v = parse_frame(&encode_record(9, r)).unwrap();
            assert_eq!(&decode_record(&v).unwrap(), r);
        }
        // A value that does not fit its field is refused, not truncated
        // (`module` 2³²+1 used to decode as `ModuleId(1)`, `target_val` 259
        // as `Reg(3)`), and `reg`/`mem` need their `target_val`.
        let reg = InjectionRecord { target: InjectedInto::Reg(3), ..records[1].clone() };
        let frame = encode_record(9, &reg);
        assert_eq!(decode_record(&parse_frame(&frame).unwrap()).unwrap(), reg);
        for (good, bad) in [
            ("\"module\":0", "\"module\":4294967297"),
            ("\"func\":0", "\"func\":4294967296"),
            ("\"target_val\":3", "\"target_val\":259"),
            ("\"target_val\":3", "\"was\":3"),
        ] {
            assert!(frame.contains(good), "{frame}");
            let v = parse_frame(&frame.replace(good, bad)).unwrap();
            assert!(decode_record(&v).is_err(), "{bad} decoded");
        }
    }

    #[test]
    fn report_frames_round_trip_exactly() {
        let mut r = CampaignReport {
            benign: 5,
            soft_failure: 3,
            sdc: 1,
            hang: 2,
            signals: [3, 0, 0, 0],
            latency_buckets: [1, 1, 1, 0],
            care_evaluated: 3,
            care_covered: 2,
            care_survived_with_sdc: 1,
            recovery_times_ms: vec![0.30000000000000004, 1.5, f64::MIN_POSITIVE],
            total_recoveries: 4,
            simulated_steps: (1 << 60) + 1,
            steps_prefix: 100,
            steps_suffix: 200,
            steps_care: 300,
            trellis_snapshots: 7,
            cursor_shards: 2,
            cancelled: true,
            ..CampaignReport::default()
        };
        r.declines.insert(DeclineKind::Hang, 1);
        r.declines.insert(DeclineKind::KernelFault, 2);
        let frame = encode_report(1, &r);
        let v = parse_frame(&frame).unwrap();
        assert_eq!(decode_report(&v).unwrap(), r);
        // Counts no u64 names are refused, not saturated.
        let hang = format!("\"{}\":1", DeclineKind::Hang.short_name());
        for count in ["\"signals\":[3", &hang] {
            assert!(frame.contains(count), "{frame}");
            let huge = frame.replace(count, &format!("{count}e300"));
            assert!(decode_report(&parse_frame(&huge).unwrap()).is_err(), "{count}e300 decoded");
        }
    }

    #[test]
    fn stats_and_control_frames_round_trip() {
        let snap = StatsSnapshot {
            jobs_accepted: 10,
            jobs_rejected: 2,
            jobs_completed: 8,
            jobs_failed: 1,
            jobs_cancelled: 1,
            queue_depth: 3,
            inflight_budget: 4,
            budget_cap: 8,
            cache_hits: 6,
            cache_misses: 4,
            cache_evictions: 2,
            records_streamed: 1234,
        };
        let frame = ServerFrame::Stats(snap);
        assert_eq!(ServerFrame::decode(&frame.encode()), Ok(frame));
        assert_eq!(ClientFrame::decode(&ClientFrame::Stats.encode()), Ok(ClientFrame::Stats));

        for reason in RejectReason::ALL {
            let frame = ServerFrame::Reject(reason, "why \"quoted\"".to_string());
            assert_eq!(ServerFrame::decode(&frame.encode()), Ok(frame));
        }
        assert!(RejectReason::parse("nonsense").is_none());
    }

    #[test]
    fn campaign_key_separates_programs_not_seeds() {
        let key = |s: &JobSpec| s.campaign_key().expect("spec resolves");
        let a = JobSpec::default();
        let b = JobSpec { seed: 1, injections: 999, ..JobSpec::default() };
        assert_eq!(key(&a), key(&b));
        let c = JobSpec { opt: OptLevel::O0, ..JobSpec::default() };
        assert_ne!(key(&a), key(&c));
        let d = JobSpec {
            workload: WorkloadSel::Named { name: "hpccg".to_string(), params: vec![2, 1] },
            ..JobSpec::default()
        };
        assert_ne!(key(&a), key(&d));
        // An unresolvable spec surfaces the resolution error instead of a
        // nonsense key (the old Debug-format key happily keyed garbage).
        let bad = JobSpec {
            workload: WorkloadSel::Named { name: "nope".to_string(), params: vec![] },
            ..JobSpec::default()
        };
        assert!(bad.campaign_key().is_err());
    }

    /// The campaign key is a *persistence contract*: stored log file names
    /// are derived from it, so the exact string for a fixed program must
    /// never change. If this pin breaks, existing stores silently go cold.
    #[test]
    fn campaign_key_golden_pin() {
        let key = JobSpec::default().campaign_key().expect("hpccg resolves");
        assert_eq!(key, "care1:266103adb46030c19fda97de31a19029:O1:e1");
    }

    /// The key hashes the canonical module printing, not the inline text:
    /// reformatting (comments, indentation, blank lines) must not change
    /// the key, while a one-instruction program change must.
    #[test]
    fn campaign_key_is_formatting_invariant_for_inline_modules() {
        let base = JobSpec::default();
        let canonical = resolve_workload(&base.workload).unwrap();
        let text = tinyir::display::print_module(&canonical.module);
        let inline = |text: String| JobSpec {
            workload: WorkloadSel::Inline {
                text,
                args: canonical.args.clone(),
                outputs: canonical.outputs.clone(),
            },
            ..JobSpec::default()
        };
        let reformatted: String =
            text.lines().map(|l| format!("  {l}   ; reformatted\n\n")).collect();
        let k1 = inline(text.clone()).campaign_key().unwrap();
        let k2 = inline(reformatted).campaign_key().unwrap();
        assert_eq!(k1, k2, "formatting leaked into the campaign key");
        // Same program text under a different entry invocation is a
        // different campaign.
        let mut other_args = inline(text);
        if let WorkloadSel::Inline { args, .. } = &mut other_args.workload {
            args.push(7);
        }
        assert_ne!(k1, other_args.campaign_key().unwrap());
    }
}
