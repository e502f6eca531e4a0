//! The careserve wire protocol: versioned newline-delimited JSON.
//!
//! Every frame is one JSON object on one line, always carrying a string
//! `"kind"`. Client→server frames additionally carry `"proto"` (the
//! protocol version, [`PROTO_VERSION`]); server→client frames are implied
//! to match the version the request carried. Rendering reuses the
//! telemetry crate's hand-rolled JSON escaper ([`telemetry::push_json_str`]
//! / [`telemetry::push_json_f64`]) and parsing reuses its recursive-descent
//! reader ([`telemetry::parse_json`]) — one JSON dialect for the whole
//! workspace, no serde.
//!
//! ## Integer fidelity
//!
//! [`telemetry::Json`] holds every number as `f64`, so integers above
//! 2⁵³ would silently lose bits through a naive round-trip. The protocol
//! therefore encodes `u64` values via [`push_u64`]: plain JSON numbers
//! while exactly representable, decimal *strings* beyond that; the dual
//! decoder [`json_u64`] accepts both (and nothing a cast would mangle).
//! `f64` payloads (modelled recovery times) are safe as-is: the emitter's
//! shortest-round-trip rendering parses back to identical bits.
//!
//! The `u64` convention and the whole [`InjectionRecord`] field codec
//! live in [`carestore::record`] and are shared verbatim with the store's
//! on-disk record log — one encoding, so a streamed `record` frame and a
//! logged record line carry byte-identical fields and can never drift.
//!
//! ## Frame vocabulary
//!
//! Client→server: `job` (a [`JobSpec`]), `stats` (server counters).
//! Server→client, in stream order for one job: `accepted`, zero or more
//! `progress`, zero or more `record` (when the spec asks for records),
//! zero or more `telemetry` (JSONL passthrough when asked), then exactly
//! one of `report` + `done`, `failed` (worker panic), or `reject`
//! (admission/validation, with a typed [`RejectReason`]).

use carestore::record::{
    parse_decline, push_field_bool, push_field_str, push_field_u64, push_record_fields,
    record_from_json,
};
use faultsim::{CampaignConfig, CampaignReport, FaultModel, InjectionRecord};
use opt::OptLevel;
use safeguard::DeclineKind;
use simx::EngineKind;
use std::collections::HashMap;
use telemetry::{parse_json, push_json_f64, push_json_str, Json};
use workloads::Workload;

pub use carestore::record::{get_u64, json_u64, push_u64};

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

/// Cap on a named workload's size parameters (keeps one job's golden run
/// bounded; the §2 defaults are far below it).
pub const MAX_WORKLOAD_PARAM: i64 = 4096;

fn get_usize(v: &Json, key: &str) -> Option<usize> {
    get_u64(v, key).map(|n| n as usize)
}

fn get_bool(v: &Json, key: &str) -> Option<bool> {
    match v.get(key)? {
        Json::Bool(b) => Some(*b),
        _ => None,
    }
}

fn get_str<'a>(v: &'a Json, key: &str) -> Option<&'a str> {
    v.get(key).and_then(Json::as_str)
}

fn frame_open(kind: &str) -> String {
    let mut s = String::with_capacity(96);
    s.push_str("{\"kind\":");
    push_json_str(&mut s, kind);
    s
}

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
    /// inline module that fails to parse, or out-of-range settings.
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
        let mut s = frame_open("job");
        push_field_u64(&mut s, "proto", PROTO_VERSION as u64);
        match &self.workload {
            WorkloadSel::Named { name, params } => {
                push_field_str(&mut s, "workload", name);
                s.push_str(",\"params\":[");
                for (i, p) in params.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    s.push_str(&p.to_string());
                }
                s.push(']');
            }
            WorkloadSel::Inline { text, args, outputs } => {
                push_field_str(&mut s, "workload", "inline");
                push_field_str(&mut s, "module", text);
                s.push_str(",\"args\":[");
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    push_u64(&mut s, *a);
                }
                s.push_str("],\"outputs\":[");
                for (i, (name, bytes)) in outputs.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    s.push('[');
                    push_json_str(&mut s, name);
                    s.push(',');
                    push_u64(&mut s, *bytes);
                    s.push(']');
                }
                s.push(']');
            }
        }
        push_field_u64(&mut s, "seed", self.seed);
        push_field_u64(&mut s, "injections", self.injections as u64);
        push_field_str(&mut s, "model", self.model.name());
        push_field_str(&mut s, "engine", self.engine.name());
        push_field_str(&mut s, "opt", &self.opt.to_string());
        push_field_u64(&mut s, "threads", self.threads as u64);
        push_field_bool(&mut s, "evaluate_care", self.evaluate_care);
        push_field_bool(&mut s, "app_only", self.app_only);
        push_field_bool(&mut s, "records", self.records);
        push_field_bool(&mut s, "telemetry", self.telemetry);
        s.push('}');
        s
    }

    /// Decode and validate a parsed `job` frame. The error pairs the
    /// typed reason with human-readable detail for the `reject` frame.
    /// Unknown keys are ignored (older clients still send `"scheduler"`).
    pub fn from_json(v: &Json) -> Result<JobSpec, (RejectReason, String)> {
        let bad = |msg: &str| (RejectReason::BadFrame, msg.to_string());
        let spec = |msg: String| (RejectReason::BadSpec, msg);
        match get_u64(v, "proto") {
            Some(p) if p == PROTO_VERSION as u64 => {}
            Some(p) => {
                return Err((
                    RejectReason::UnsupportedProto,
                    format!("proto {p} (this server speaks {PROTO_VERSION})"),
                ))
            }
            None => return Err(bad("missing numeric \"proto\"")),
        }
        let name = get_str(v, "workload").ok_or_else(|| bad("missing string \"workload\""))?;
        let workload = if name == "inline" {
            let text = get_str(v, "module")
                .ok_or_else(|| bad("inline workload missing string \"module\""))?;
            if text.len() > MAX_MODULE_BYTES {
                return Err((
                    RejectReason::Oversized,
                    format!("inline module is {} bytes (cap {MAX_MODULE_BYTES})", text.len()),
                ));
            }
            let args = match v.get("args") {
                Some(Json::Arr(items)) => items
                    .iter()
                    .map(json_u64)
                    .collect::<Option<Vec<u64>>>()
                    .ok_or_else(|| bad("non-integer entry in \"args\""))?,
                None => Vec::new(),
                _ => return Err(bad("\"args\" must be an array")),
            };
            let outputs = match v.get("outputs") {
                Some(Json::Arr(items)) => items
                    .iter()
                    .map(|o| match o {
                        Json::Arr(pair) if pair.len() == 2 => {
                            Some((pair[0].as_str()?.to_string(), json_u64(&pair[1])?))
                        }
                        _ => None,
                    })
                    .collect::<Option<Vec<(String, u64)>>>()
                    .ok_or_else(|| bad("\"outputs\" entries must be [name, bytes] pairs"))?,
                None => Vec::new(),
                _ => return Err(bad("\"outputs\" must be an array")),
            };
            WorkloadSel::Inline { text: text.to_string(), args, outputs }
        } else {
            let params = match v.get("params") {
                Some(Json::Arr(items)) => items
                    .iter()
                    .map(|p| match p {
                        Json::Num(n) if n.fract() == 0.0 => Some(*n as i64),
                        _ => None,
                    })
                    .collect::<Option<Vec<i64>>>()
                    .ok_or_else(|| bad("non-integer entry in \"params\""))?,
                None => Vec::new(),
                _ => return Err(bad("\"params\" must be an array")),
            };
            WorkloadSel::Named { name: name.to_string(), params }
        };
        let injections = get_usize(v, "injections").ok_or_else(|| bad("missing \"injections\""))?;
        if injections == 0 || injections > MAX_INJECTIONS {
            return Err(spec(format!("injections {injections} outside 1..={MAX_INJECTIONS}")));
        }
        let parse_enum = |key: &str, dflt: &str| -> Result<String, (RejectReason, String)> {
            match v.get(key) {
                Some(Json::Str(s)) => Ok(s.clone()),
                None => Ok(dflt.to_string()),
                _ => Err((RejectReason::BadFrame, format!("\"{key}\" must be a string"))),
            }
        };
        let model = parse_enum("model", "single")?
            .parse::<FaultModel>()
            .map_err(spec)?;
        let engine = parse_enum("engine", "interp")?
            .parse::<EngineKind>()
            .map_err(spec)?;
        let opt = parse_opt(&parse_enum("opt", "O1")?)
            .ok_or_else(|| spec("unknown opt level (O0|O1)".to_string()))?;
        Ok(JobSpec {
            workload,
            seed: get_u64(v, "seed").unwrap_or(0xCA2E),
            injections,
            model,
            engine,
            opt,
            threads: get_usize(v, "threads").unwrap_or(0),
            evaluate_care: get_bool(v, "evaluate_care").unwrap_or(true),
            app_only: get_bool(v, "app_only").unwrap_or(true),
            records: get_bool(v, "records").unwrap_or(true),
            telemetry: get_bool(v, "telemetry").unwrap_or(false),
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
    /// mapping, used by the server's worker and by every local run a served
    /// job is compared against. Shard count is left to the pool width.
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
                (other, _) => {
                    Err(format!("unknown workload {other:?} (hpccg|comd|minife|minimd|gtcp|inline)"))
                }
            }
        }
        WorkloadSel::Inline { text, args, outputs } => {
            let module = tinyir::parser::parse_module(text)
                .map_err(|e| format!("inline module: {e}"))?;
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
// Server→client frames.

/// `accepted` frame.
pub fn accepted_frame(job_id: u64) -> String {
    let mut s = frame_open("accepted");
    push_field_u64(&mut s, "job_id", job_id);
    s.push('}');
    s
}

/// `reject` frame.
pub fn reject_frame(reason: RejectReason, detail: &str) -> String {
    let mut s = frame_open("reject");
    push_field_str(&mut s, "reason", reason.name());
    push_field_str(&mut s, "detail", detail);
    s.push('}');
    s
}

/// `progress` frame: injections classified so far out of the requested
/// total (the classified count can end below the total — unfired points
/// yield no record, exactly as in local runs).
pub fn progress_frame(job_id: u64, classified: u64, total: u64) -> String {
    let mut s = frame_open("progress");
    push_field_u64(&mut s, "job_id", job_id);
    push_field_u64(&mut s, "classified", classified);
    push_field_u64(&mut s, "total", total);
    s.push('}');
    s
}

/// `telemetry` frame: one JSONL line of the job's telemetry stream,
/// shipped verbatim as a string payload.
pub fn telemetry_frame(job_id: u64, line: &str) -> String {
    let mut s = frame_open("telemetry");
    push_field_u64(&mut s, "job_id", job_id);
    push_field_str(&mut s, "line", line);
    s.push('}');
    s
}

/// `failed` frame (worker panic; the server keeps serving).
pub fn failed_frame(job_id: u64, detail: &str) -> String {
    let mut s = frame_open("failed");
    push_field_u64(&mut s, "job_id", job_id);
    push_field_str(&mut s, "detail", detail);
    s.push('}');
    s
}

/// `done` frame: end of one job's stream.
pub fn done_frame(job_id: u64) -> String {
    let mut s = frame_open("done");
    push_field_u64(&mut s, "job_id", job_id);
    s.push('}');
    s
}

// ---------------------------------------------------------------------------
// InjectionRecord round-trip.

/// Encode one record as a `record` frame. Exact: every integer goes
/// through [`push_u64`], every float through the shortest-round-trip
/// renderer, so [`decode_record`] reproduces the record bit for bit. The
/// field layout is [`carestore::record::push_record_fields`] — the same
/// bytes the store appends to its log.
pub fn encode_record(job_id: u64, r: &InjectionRecord) -> String {
    let mut s = frame_open("record");
    push_field_u64(&mut s, "job_id", job_id);
    push_record_fields(&mut s, r);
    s.push('}');
    s
}

/// Decode a `record` frame produced by [`encode_record`].
pub fn decode_record(v: &Json) -> Result<InjectionRecord, String> {
    record_from_json(v)
}

// ---------------------------------------------------------------------------
// CampaignReport round-trip (aggregates only; records travel as their own
// frames and are re-attached by the client).

/// Encode the aggregate report as a `report` frame.
pub fn encode_report(job_id: u64, r: &CampaignReport) -> String {
    let mut s = frame_open("report");
    push_field_u64(&mut s, "job_id", job_id);
    push_field_u64(&mut s, "benign", r.benign as u64);
    push_field_u64(&mut s, "soft_failure", r.soft_failure as u64);
    push_field_u64(&mut s, "sdc", r.sdc as u64);
    push_field_u64(&mut s, "hang", r.hang as u64);
    s.push_str(",\"signals\":[");
    for (i, n) in r.signals.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        push_u64(&mut s, *n as u64);
    }
    s.push_str("],\"latency_buckets\":[");
    for (i, n) in r.latency_buckets.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        push_u64(&mut s, *n as u64);
    }
    s.push(']');
    push_field_u64(&mut s, "care_evaluated", r.care_evaluated as u64);
    push_field_u64(&mut s, "care_covered", r.care_covered as u64);
    push_field_u64(&mut s, "care_survived_with_sdc", r.care_survived_with_sdc as u64);
    s.push_str(",\"recovery_times_ms\":[");
    for (i, t) in r.recovery_times_ms.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        push_json_f64(&mut s, *t);
    }
    s.push(']');
    push_field_u64(&mut s, "total_recoveries", r.total_recoveries);
    s.push_str(",\"declines\":{");
    // Deterministic frame bytes: emit in DeclineKind::ALL order.
    let mut first = true;
    for kind in DeclineKind::ALL {
        if let Some(&n) = r.declines.get(&kind) {
            if !first {
                s.push(',');
            }
            first = false;
            push_json_str(&mut s, kind.short_name());
            s.push(':');
            push_u64(&mut s, n as u64);
        }
    }
    s.push('}');
    push_field_u64(&mut s, "simulated_steps", r.simulated_steps);
    push_field_u64(&mut s, "steps_prefix", r.steps_prefix);
    push_field_u64(&mut s, "steps_suffix", r.steps_suffix);
    push_field_u64(&mut s, "steps_care", r.steps_care);
    push_field_u64(&mut s, "trellis_snapshots", r.trellis_snapshots as u64);
    push_field_u64(&mut s, "cursor_shards", r.cursor_shards as u64);
    push_field_bool(&mut s, "cancelled", r.cancelled);
    s.push('}');
    s
}

/// Decode a `report` frame into a [`CampaignReport`] with empty `records`
/// (the caller re-attaches the streamed record frames).
pub fn decode_report(v: &Json) -> Result<CampaignReport, String> {
    let want = |key: &str| format!("report frame missing {key:?}");
    let arr4 = |key: &str| -> Result<[usize; 4], String> {
        match v.get(key) {
            Some(Json::Arr(items)) if items.len() == 4 => {
                let mut out = [0usize; 4];
                for (slot, item) in out.iter_mut().zip(items) {
                    *slot = json_u64(item).ok_or_else(|| want(key))? as usize;
                }
                Ok(out)
            }
            _ => Err(want(key)),
        }
    };
    let recovery_times_ms = match v.get("recovery_times_ms") {
        Some(Json::Arr(items)) => items
            .iter()
            .map(|t| t.as_f64())
            .collect::<Option<Vec<f64>>>()
            .ok_or_else(|| want("recovery_times_ms"))?,
        _ => return Err(want("recovery_times_ms")),
    };
    let mut declines = HashMap::new();
    match v.get("declines") {
        Some(Json::Obj(map)) => {
            for (name, count) in map {
                let kind = parse_decline(name)
                    .ok_or_else(|| format!("unknown decline kind {name:?}"))?;
                let n = json_u64(count).ok_or_else(|| want("declines"))?;
                declines.insert(kind, n as usize);
            }
        }
        _ => return Err(want("declines")),
    }
    Ok(CampaignReport {
        benign: get_usize(v, "benign").ok_or_else(|| want("benign"))?,
        soft_failure: get_usize(v, "soft_failure").ok_or_else(|| want("soft_failure"))?,
        sdc: get_usize(v, "sdc").ok_or_else(|| want("sdc"))?,
        hang: get_usize(v, "hang").ok_or_else(|| want("hang"))?,
        signals: arr4("signals")?,
        latency_buckets: arr4("latency_buckets")?,
        care_evaluated: get_usize(v, "care_evaluated").ok_or_else(|| want("care_evaluated"))?,
        care_covered: get_usize(v, "care_covered").ok_or_else(|| want("care_covered"))?,
        care_survived_with_sdc: get_usize(v, "care_survived_with_sdc")
            .ok_or_else(|| want("care_survived_with_sdc"))?,
        recovery_times_ms,
        total_recoveries: get_u64(v, "total_recoveries").ok_or_else(|| want("total_recoveries"))?,
        declines,
        simulated_steps: get_u64(v, "simulated_steps").ok_or_else(|| want("simulated_steps"))?,
        steps_prefix: get_u64(v, "steps_prefix").ok_or_else(|| want("steps_prefix"))?,
        steps_suffix: get_u64(v, "steps_suffix").ok_or_else(|| want("steps_suffix"))?,
        steps_care: get_u64(v, "steps_care").ok_or_else(|| want("steps_care"))?,
        trellis_snapshots: get_usize(v, "trellis_snapshots")
            .ok_or_else(|| want("trellis_snapshots"))?,
        cursor_shards: get_usize(v, "cursor_shards").ok_or_else(|| want("cursor_shards"))?,
        cancelled: get_bool(v, "cancelled").unwrap_or(false),
        records: Vec::new(),
    })
}

// ---------------------------------------------------------------------------
// Server stats.

/// A snapshot of the server's counters, as served by the `stats` frame.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Jobs admitted (sent `accepted`).
    pub jobs_accepted: u64,
    /// Frames/jobs refused with a `reject`.
    pub jobs_rejected: u64,
    /// Jobs that ran to completion.
    pub jobs_completed: u64,
    /// Jobs whose worker panicked (`failed` frame sent).
    pub jobs_failed: u64,
    /// Jobs cancelled by client disconnect or server shutdown.
    pub jobs_cancelled: u64,
    /// Jobs currently waiting for budget.
    pub queue_depth: u64,
    /// Thread budget currently reserved by running jobs.
    pub inflight_budget: u64,
    /// The server's global budget cap (pool width by default).
    pub budget_cap: u64,
    /// Prepared-campaign cache hits across all jobs.
    pub cache_hits: u64,
    /// Prepared-campaign cache misses (prepares actually run).
    pub cache_misses: u64,
    /// Prepared campaigns evicted from the bounded cache (LRU order).
    pub cache_evictions: u64,
    /// `record` frames streamed to clients.
    pub records_streamed: u64,
}

/// Field names of the `stats` frame, in emission order.
const STATS_FIELDS: [&str; 12] = [
    "jobs_accepted",
    "jobs_rejected",
    "jobs_completed",
    "jobs_failed",
    "jobs_cancelled",
    "queue_depth",
    "inflight_budget",
    "budget_cap",
    "cache_hits",
    "cache_misses",
    "cache_evictions",
    "records_streamed",
];

impl StatsSnapshot {
    fn values(&self) -> [u64; 12] {
        [
            self.jobs_accepted,
            self.jobs_rejected,
            self.jobs_completed,
            self.jobs_failed,
            self.jobs_cancelled,
            self.queue_depth,
            self.inflight_budget,
            self.budget_cap,
            self.cache_hits,
            self.cache_misses,
            self.cache_evictions,
            self.records_streamed,
        ]
    }

    /// Encode as a `stats` frame.
    pub fn to_frame(&self) -> String {
        let mut s = frame_open("stats");
        for (name, val) in STATS_FIELDS.iter().zip(self.values()) {
            push_field_u64(&mut s, name, val);
        }
        s.push('}');
        s
    }

    /// Decode a `stats` frame.
    pub fn from_json(v: &Json) -> Result<StatsSnapshot, String> {
        let mut vals = [0u64; 12];
        for (slot, name) in vals.iter_mut().zip(STATS_FIELDS) {
            *slot = get_u64(v, name).ok_or_else(|| format!("stats frame missing {name:?}"))?;
        }
        let [jobs_accepted, jobs_rejected, jobs_completed, jobs_failed, jobs_cancelled, queue_depth, inflight_budget, budget_cap, cache_hits, cache_misses, cache_evictions, records_streamed] =
            vals;
        Ok(StatsSnapshot {
            jobs_accepted,
            jobs_rejected,
            jobs_completed,
            jobs_failed,
            jobs_cancelled,
            queue_depth,
            inflight_budget,
            budget_cap,
            cache_hits,
            cache_misses,
            cache_evictions,
            records_streamed,
        })
    }
}

/// The `stats` request frame.
pub fn stats_request_frame() -> String {
    let mut s = frame_open("stats");
    push_field_u64(&mut s, "proto", PROTO_VERSION as u64);
    s.push('}');
    s
}

/// Parse one frame line into its JSON value, classifying parse failures.
pub fn parse_frame(line: &str) -> Result<Json, (RejectReason, String)> {
    let v = parse_json(line).map_err(|e| (RejectReason::BadJson, e))?;
    if v.get("kind").and_then(Json::as_str).is_none() {
        return Err((RejectReason::BadFrame, "frame missing string \"kind\"".to_string()));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultsim::{CareResult, InjectedInto, InjectionPoint, Outcome, Signal, StepSplit};
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
        let bad_inline = WorkloadSel::Inline {
            text: "not a module".to_string(),
            args: vec![],
            outputs: vec![],
        };
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
        let v = parse_frame(&snap.to_frame()).unwrap();
        assert_eq!(StatsSnapshot::from_json(&v).unwrap(), snap);

        for reason in RejectReason::ALL {
            let v = parse_frame(&reject_frame(reason, "why \"quoted\"")).unwrap();
            assert_eq!(v.get("kind").unwrap().as_str(), Some("reject"));
            let name = v.get("reason").unwrap().as_str().unwrap();
            assert_eq!(RejectReason::parse(name), Some(reason));
            assert_eq!(v.get("detail").unwrap().as_str(), Some("why \"quoted\""));
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
        let reformatted: String = text
            .lines()
            .map(|l| format!("  {l}   ; reformatted\n\n"))
            .collect();
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
