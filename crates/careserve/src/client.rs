//! Blocking client for the campaign server.
//!
//! [`submit`] drives one job end to end over one connection and
//! reassembles the server's frame stream into the same shapes a local run
//! produces: a [`CampaignReport`] with its records re-attached in stream
//! order (which is record order — the server streams them in report
//! order), plus the job's telemetry JSONL if requested. The result of a
//! loopback submit is bit-identical to `Campaign::run` of the same spec.

use crate::proto::{
    ClientFrame, JobSpec, RejectReason, ServerFrame, StatsSnapshot, MAX_FRAME_BYTES,
};
use faultsim::CampaignReport;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Everything one completed job sent back.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// Server-assigned job id.
    pub job_id: u64,
    /// The campaign report, records re-attached (when the spec asked for
    /// records; empty otherwise).
    pub report: CampaignReport,
    /// The job's telemetry JSONL lines (when the spec asked for them).
    pub telemetry: Vec<String>,
    /// `progress` frames observed while the job ran.
    pub progress_frames: usize,
}

/// Why a submit did not produce a report.
#[derive(Debug)]
pub enum ClientError {
    /// Connect/read/write failure.
    Io(std::io::Error),
    /// The server refused the frame or the job.
    Rejected {
        /// Typed reason from the `reject` frame.
        reason: RejectReason,
        /// Free-text detail from the `reject` frame.
        detail: String,
    },
    /// The job panicked server-side.
    Failed(String),
    /// The server sent something this client cannot make sense of.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o: {e}"),
            ClientError::Rejected { reason, detail } => {
                write!(f, "rejected ({}): {detail}", reason.name())
            }
            ClientError::Failed(d) => write!(f, "job failed server-side: {d}"),
            ClientError::Protocol(d) => write!(f, "protocol error: {d}"),
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// Generous per-read timeout. A live server can be silent for long: a job
/// hears nothing while it waits in the admission queue, nor through a
/// cache-miss prepare, whose golden run may take up to
/// [`faultsim::MAX_GOLDEN_STEPS`] steps (about 10 s in a release build);
/// after that, `progress` goes out only when the classified count has
/// moved, at most once per server poll interval. Silence this long means
/// the server is gone.
const READ_TIMEOUT: Duration = Duration::from_secs(300);

/// Connect and send one encoded request frame, newline included, in one
/// write (one segment under `TCP_NODELAY`); the reader yields the replies.
fn request(addr: impl ToSocketAddrs, mut frame: String) -> std::io::Result<BufReader<TcpStream>> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    stream.set_nodelay(true)?;
    frame.push('\n');
    stream.write_all(frame.as_bytes())?;
    Ok(BufReader::new(stream))
}

/// Read and decode the next frame; `line` is the caller's buffer, reused
/// across frames, and the decoder borrows from it.
fn read_frame(
    reader: &mut BufReader<TcpStream>,
    line: &mut String,
) -> Result<ServerFrame, ClientError> {
    loop {
        line.clear();
        let n = reader.read_line(line)?;
        if n == 0 {
            return Err(ClientError::Protocol("server closed the connection".to_string()));
        }
        if line.len() > MAX_FRAME_BYTES + 1 {
            return Err(ClientError::Protocol("oversized frame from server".to_string()));
        }
        if line.trim().is_empty() {
            continue;
        }
        return ServerFrame::decode(line.trim_end_matches(['\r', '\n']))
            .map_err(ClientError::Protocol);
    }
}

/// Submit one job and collect its full response stream.
pub fn submit(addr: impl ToSocketAddrs, spec: &JobSpec) -> Result<JobOutcome, ClientError> {
    let mut reader = request(addr, spec.to_frame())?;
    let mut buf = String::with_capacity(256);
    let mut job_id = 0;
    let mut records = Vec::new();
    let mut telemetry = Vec::new();
    let mut progress_frames = 0;
    loop {
        match read_frame(&mut reader, &mut buf)? {
            ServerFrame::Accepted(id) => job_id = id,
            ServerFrame::Progress(..) => progress_frames += 1,
            ServerFrame::Record(_, record) => records.push(record),
            ServerFrame::Telemetry(_, line) => telemetry.push(line),
            ServerFrame::Report(_, mut report) => {
                report.records = records;
                return match read_frame(&mut reader, &mut buf)? {
                    ServerFrame::Done(_) => {
                        Ok(JobOutcome { job_id, report, telemetry, progress_frames })
                    }
                    _ => Err(ClientError::Protocol("expected done after report".to_string())),
                };
            }
            ServerFrame::Reject(reason, detail) => {
                return Err(ClientError::Rejected { reason, detail })
            }
            ServerFrame::Failed(_, detail) => return Err(ClientError::Failed(detail)),
            ServerFrame::Done(_) | ServerFrame::Stats(_) => {
                return Err(ClientError::Protocol("done or stats frame inside a job".to_string()))
            }
        }
    }
}

/// Fetch the server's counter snapshot.
pub fn fetch_stats(addr: impl ToSocketAddrs) -> Result<StatsSnapshot, ClientError> {
    let mut reader = request(addr, ClientFrame::Stats.encode())?;
    match read_frame(&mut reader, &mut String::new())? {
        ServerFrame::Stats(stats) => Ok(stats),
        ServerFrame::Reject(reason, detail) => Err(ClientError::Rejected { reason, detail }),
        _ => Err(ClientError::Protocol("expected a stats frame".to_string())),
    }
}
