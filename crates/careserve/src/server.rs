//! The long-running campaign server.
//!
//! One blocking accept loop; each connection is a task on the process's
//! parked threads ([`rayon::spawn`]), and runs its jobs there too, one at a
//! time: the thread that reads the connection runs the campaign, whose
//! *simulation* fan-out runs in work-stealing batches on the same threads.
//! The server owns no thread but the accept loop, so a served job spawns no
//! thread once the process is warm. Every client shares this server's
//! prepared-campaign cache, and with each cached campaign its translation.
//!
//! ## A running job's socket
//!
//! While its job runs, a connection is tended at the campaign's own
//! cancellation checks ([`faultsim::JobControl::watched`]), before each
//! cursor hop and each suffix, at most once per [`POLL`]: progress is
//! streamed, a `stats` frame is answered, a second job is refused with
//! [`RejectReason::ClientBusy`], and a disconnect or a shutdown cancels
//! the job. So these wait for the next check: during a cache-miss prepare
//! or one long suffix, they wait as long as cancellation does.
//!
//! ## Admission control
//!
//! Each job declares a thread *budget* (its `threads` field; 0 = the whole
//! pool). The server admits jobs while the sum of running budgets stays
//! within `budget_cap` (the pool width by default); beyond that, jobs wait
//! in a bounded queue (`max_queue`), and past the queue they are rejected
//! with [`RejectReason::QueueFull`] — explicit backpressure, never
//! unbounded buffering. The budget is an admission weight, not a width:
//! concurrent jobs each run their batches at the pool width, side by side,
//! so `budget_cap` bounds the jobs in flight, not the threads they occupy.
//!
//! ## Failure containment
//!
//! Malformed frames get typed `reject` responses and the connection keeps
//! serving. Oversized lines are drained to the next newline, rejected, and
//! the connection keeps serving. A client that disconnects mid-job cancels
//! the job cooperatively ([`faultsim::JobControl`]); the budget is
//! reclaimed as soon as the campaign observes the disconnect. A job that
//! panics is caught on its connection's thread, reported as a `failed`
//! frame, and the connection and the server keep serving.

use crate::proto::{
    self, ClientFrame, JobSpec, RejectReason, ServerFrame, Stats, StatsSnapshot, MAX_FRAME_BYTES,
};
use carestore::{CampaignKey, LruCache, Store};
use faultsim::{Campaign, CampaignConfig, CampaignReport, JobControl};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use telemetry::{Hooks, NoTelemetry, Recorder, TelemetryReport};

/// How the server is sized and bound.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks a free loopback port).
    pub addr: String,
    /// Global cap on the sum of running jobs' budgets; 0 = the pool width
    /// ([`rayon::current_num_threads`]).
    pub budget_cap: usize,
    /// Bounded admission queue: jobs waiting for budget beyond this are
    /// rejected with [`RejectReason::QueueFull`].
    pub max_queue: usize,
    /// Content-addressed result store directory. `Some` routes every job
    /// through [`carestore::Store::run_campaign`]: stored records are
    /// reused, only the residual executes, and fresh records are appended
    /// to the campaign's log. `None` (the default) runs jobs unbacked.
    pub store_dir: Option<PathBuf>,
}

/// Prepared-campaign cache bound in entries (LRU eviction beyond it).
/// Each entry is a compiled module plus its golden snapshot trellis (and
/// its translation, once a compiled job has run on it), so the bound is
/// what keeps a stream of distinct inline jobs from growing the server
/// without limit.
pub const DEFAULT_CACHE_CAP: usize = 32;

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            budget_cap: 0,
            max_queue: 8,
            store_dir: None,
        }
    }
}

/// Socket poll interval: bounds shutdown/cancel/progress latency.
const POLL: Duration = Duration::from_millis(10);

/// Admission state guarded by one mutex (the condvar's).
#[derive(Default)]
struct Admission {
    /// Budget currently reserved by running jobs.
    used: usize,
    /// Jobs waiting for budget.
    queued: usize,
}

/// Shared server state.
pub(crate) struct Srv {
    budget_cap: usize,
    max_queue: usize,
    shutdown: AtomicBool,
    admission: Mutex<Admission>,
    cv: Condvar,
    cache: Mutex<LruCache<String, Arc<Campaign>>>,
    store: Option<Store>,
    /// The one counter store: atomics, because the `stats` frame reads
    /// them without a lock. [`ServerHandle::telemetry`] derives the
    /// `server.*` counters from it.
    stats: Stats<AtomicU64>,
    /// Series the stats frame does not carry: `server.client_disconnects`,
    /// `server.store_*`, and the queue-depth and job-duration histograms.
    recorder: Recorder,
    next_job_id: AtomicU64,
}

impl Srv {
    pub(crate) fn new(cfg: &ServerConfig) -> std::io::Result<Srv> {
        let budget_cap =
            if cfg.budget_cap == 0 { rayon::current_num_threads().max(1) } else { cfg.budget_cap };
        let store = match &cfg.store_dir {
            Some(dir) => Some(Store::open(dir)?),
            None => None,
        };
        Ok(Srv {
            budget_cap,
            max_queue: cfg.max_queue,
            shutdown: AtomicBool::new(false),
            admission: Mutex::new(Admission::default()),
            cv: Condvar::new(),
            cache: Mutex::new(LruCache::new(DEFAULT_CACHE_CAP)),
            store,
            stats: Stats { budget_cap: AtomicU64::new(budget_cap as u64), ..Stats::default() },
            recorder: Recorder::new(),
            next_job_id: AtomicU64::new(1),
        })
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// Reserve `want` threads of budget, waiting in the bounded queue if
    /// the cap is reached. `Err` is the typed admission reject.
    pub(crate) fn acquire_budget(&self, want: usize) -> Result<(), RejectReason> {
        let mut adm = self.admission.lock().expect("admission lock");
        if self.shutting_down() {
            return Err(RejectReason::ShuttingDown);
        }
        if adm.used + want <= self.budget_cap {
            adm.used += want;
            self.stats.inflight_budget.store(adm.used as u64, Ordering::Relaxed);
            return Ok(());
        }
        if adm.queued >= self.max_queue {
            return Err(RejectReason::QueueFull);
        }
        adm.queued += 1;
        self.stats.queue_depth.store(adm.queued as u64, Ordering::Relaxed);
        self.recorder.record("server.queue_depth", adm.queued as u64);
        loop {
            let (guard, _) =
                self.cv.wait_timeout(adm, Duration::from_millis(50)).expect("admission wait");
            adm = guard;
            let fits = adm.used + want <= self.budget_cap;
            if fits || self.shutting_down() {
                adm.queued -= 1;
                self.stats.queue_depth.store(adm.queued as u64, Ordering::Relaxed);
                if !fits {
                    return Err(RejectReason::ShuttingDown);
                }
                adm.used += want;
                self.stats.inflight_budget.store(adm.used as u64, Ordering::Relaxed);
                return Ok(());
            }
        }
    }

    pub(crate) fn release_budget(&self, want: usize) {
        let mut adm = self.admission.lock().expect("admission lock");
        adm.used -= want;
        self.stats.inflight_budget.store(adm.used as u64, Ordering::Relaxed);
        self.cv.notify_all();
    }

    pub(crate) fn snapshot(&self) -> StatsSnapshot {
        self.stats.map(|_, count| count.load(Ordering::Relaxed))
    }

    fn reject(&self, out: &mut TcpStream, reason: RejectReason, detail: &str) {
        self.stats.jobs_rejected.fetch_add(1, Ordering::Relaxed);
        let _ = send(out, &ServerFrame::Reject(reason, detail.to_string()));
    }
}

/// A running server. Dropping the handle shuts the server down.
pub struct ServerHandle {
    addr: SocketAddr,
    srv: Arc<Srv>,
    accept: Option<JoinHandle<()>>,
    /// A token the accept loop and each connection task hold beside the
    /// server; shutdown waits until nothing holds it.
    tasks: Weak<()>,
}

/// The campaign server. [`start`](CampaignServer::start) binds, spawns the
/// accept loop, and returns a handle; everything else happens in
/// connection tasks.
pub struct CampaignServer;

impl CampaignServer {
    /// Bind and serve. Returns once the listener is live; jobs are
    /// serviced until the handle is shut down or dropped.
    pub fn start(cfg: ServerConfig) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let srv = Arc::new(Srv::new(&cfg)?);
        let (srv2, task) = (srv.clone(), Arc::new(()));
        let tasks = Arc::downgrade(&task);
        let accept = std::thread::spawn(move || {
            for conn in listener.incoming() {
                if srv2.shutting_down() {
                    break;
                }
                let Ok(stream) = conn else { continue };
                let (srv, task) = (srv2.clone(), task.clone());
                rayon::spawn(move || {
                    handle_conn(&srv, stream);
                    // The server goes first: once no task is left, none holds it.
                    drop((srv, task));
                });
            }
        });
        Ok(ServerHandle { addr, srv, accept: Some(accept), tasks })
    }
}

impl ServerHandle {
    /// The bound address (resolved port when bound to `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current counter snapshot (same numbers the `stats` frame serves).
    pub fn stats(&self) -> StatsSnapshot {
        self.srv.snapshot()
    }

    /// The server's `server.*` telemetry series: every stats counter under
    /// its frame name, plus what only the recorder holds (disconnect and
    /// store counters, the queue-depth/job-duration histograms).
    /// Non-destructive.
    pub fn telemetry(&self) -> TelemetryReport {
        let mut report = self.srv.recorder.drain();
        self.srv.stats.map(|name, count| {
            report.counters.insert(format!("server.{name}"), count.load(Ordering::Relaxed))
        });
        report
    }

    /// Stop accepting, cancel in-flight jobs, and wait until no connection
    /// task holds the server.
    pub fn shutdown(&mut self) {
        let Some(accept) = self.accept.take() else { return };
        self.srv.shutdown.store(true, Ordering::SeqCst);
        self.srv.cv.notify_all();
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let _ = accept.join();
        // A task between frames observes the flag within one poll interval,
        // one running a job at the campaign's next check, which cancels the
        // job; then it lets go. A task still busy at the deadline is left to
        // finish on its own.
        let deadline = Instant::now() + Duration::from_secs(30);
        while self.tasks.strong_count() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Write one frame line in one write.
fn send(stream: &mut TcpStream, frame: &ServerFrame) -> std::io::Result<()> {
    let mut line = frame.encode();
    line.push('\n');
    stream.write_all(line.as_bytes())
}

/// A received line, decoded: the frame, or the typed reject it earns (a
/// line over the frame cap is drained, discarded and `oversized`).
type Received = Result<ClientFrame, (RejectReason, String)>;

/// What one read attempt on the framed socket produced.
enum ReadOutcome {
    /// A complete frame line.
    Frame(Received),
    /// Nothing available right now.
    Idle,
    /// Peer closed the connection (or a hard read error).
    Disconnected,
}

/// Newline-framed reader over a timeout-polled blocking socket.
struct FrameReader {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Leading bytes of `buf` already searched for a newline: each byte
    /// is searched once, however many reads a line takes.
    scanned: usize,
    /// Discarding an over-cap line until its newline.
    draining: bool,
}

impl FrameReader {
    fn new(stream: TcpStream) -> FrameReader {
        FrameReader { stream, buf: Vec::new(), scanned: 0, draining: false }
    }

    /// One bounded poll: consume buffered bytes and at most one socket
    /// read (≤ [`POLL`] of blocking).
    fn poll_frame(&mut self) -> ReadOutcome {
        loop {
            match self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
                Some(at) => {
                    let pos = self.scanned + at;
                    // The cap binds however the bytes arrived: a line whose
                    // newline came in the same read as its tail is still over.
                    let frame = if std::mem::take(&mut self.draining) || pos > MAX_FRAME_BYTES {
                        let detail = "frame exceeds the line cap".to_string();
                        Err((RejectReason::Oversized, detail))
                    } else {
                        ClientFrame::decode(&String::from_utf8_lossy(&self.buf[..pos]))
                    };
                    self.buf.drain(..=pos);
                    self.scanned = 0;
                    return ReadOutcome::Frame(frame);
                }
                None if self.draining || self.buf.len() > MAX_FRAME_BYTES => {
                    self.draining = true;
                    self.buf.clear();
                    self.scanned = 0;
                }
                None => self.scanned = self.buf.len(),
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return ReadOutcome::Disconnected,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return ReadOutcome::Idle
                }
                Err(_) => return ReadOutcome::Disconnected,
            }
        }
    }

    /// [`poll_frame`](Self::poll_frame) with a read that does not block:
    /// what a running job's checks poll, so the campaign never waits out a
    /// read timeout. The write half shares the socket's flags, so writes
    /// block again once the poll is done.
    fn poll_frame_now(&mut self) -> ReadOutcome {
        let _ = self.stream.set_nonblocking(true);
        let outcome = self.poll_frame();
        let _ = self.stream.set_nonblocking(false);
        outcome
    }

    /// Poll until a frame arrives; `None` on disconnect or server shutdown.
    fn read_frame(&mut self, srv: &Srv) -> Option<Received> {
        loop {
            match self.poll_frame() {
                ReadOutcome::Frame(frame) => return Some(frame),
                ReadOutcome::Idle if !srv.shutting_down() => {}
                ReadOutcome::Idle | ReadOutcome::Disconnected => return None,
            }
        }
    }
}

fn handle_conn(srv: &Srv, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(POLL));
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else { return };
    let mut reader = FrameReader::new(read_half);
    let mut out = stream;
    while let Some(frame) = reader.read_frame(srv) {
        let served = match frame {
            Ok(ClientFrame::Stats) => send(&mut out, &ServerFrame::Stats(srv.snapshot())).is_ok(),
            Ok(ClientFrame::Job(spec)) => run_job(srv, &mut reader, &mut out, spec).is_ok(),
            Err((reason, detail)) => {
                srv.reject(&mut out, reason, &detail);
                true
            }
        };
        if !served {
            return;
        }
    }
}

/// A running job's hold on its connection, lent to the campaign's checks
/// (see the module docs): each check that finds [`POLL`] passed since the
/// last one streams progress and polls the socket.
struct Duties<'a> {
    srv: &'a Srv,
    reader: &'a mut FrameReader,
    out: &'a mut TcpStream,
    job_id: u64,
    total: u64,
    connected: bool,
    polled: Instant,
    /// The classified count last sent in a `progress` frame.
    progress: u64,
}

impl Duties<'_> {
    /// One check's share of the socket work; `false` stops the job: the
    /// server shuts down or the client is gone.
    fn tend(&mut self, classified: u64) -> bool {
        if self.polled.elapsed() < POLL {
            return true;
        }
        self.polled = Instant::now();
        let srv = self.srv;
        if srv.shutting_down() {
            return false;
        }
        if self.connected && classified != self.progress {
            self.progress = classified;
            let frame = ServerFrame::Progress(self.job_id, classified, self.total);
            self.connected = send(self.out, &frame).is_ok();
        }
        match self.reader.poll_frame_now() {
            ReadOutcome::Idle => {}
            ReadOutcome::Disconnected => {
                if self.connected {
                    self.connected = false;
                    srv.recorder.add("server.client_disconnects", 1);
                }
            }
            // One job per connection: any further job is refused, but
            // stats stay queryable mid-job.
            ReadOutcome::Frame(Ok(ClientFrame::Stats)) => {
                let _ = send(self.out, &ServerFrame::Stats(srv.snapshot()));
            }
            ReadOutcome::Frame(Ok(ClientFrame::Job(_))) => srv.reject(
                self.out,
                RejectReason::ClientBusy,
                "a job is already in flight on this connection",
            ),
            ReadOutcome::Frame(Err((reason, detail))) => srv.reject(self.out, reason, &detail),
        }
        self.connected
    }
}

fn run_job(
    srv: &Srv,
    reader: &mut FrameReader,
    out: &mut TcpStream,
    spec: JobSpec,
) -> Result<(), ()> {
    // Validation and cache probe first: a reject must not burn budget.
    // The content-addressed key hashes the resolved module's canonical
    // printing, so resolution (cheap: construction + parse, no compile)
    // happens before the probe; two spellings of one program share a key.
    let workload = match proto::resolve_workload(&spec.workload) {
        Ok(w) => w,
        Err(detail) => {
            srv.reject(out, RejectReason::BadSpec, &detail);
            return Ok(());
        }
    };
    let ckey = proto::campaign_key_for(&workload, spec.opt);
    let key = ckey.encode();
    let cached = srv.cache.lock().expect("cache lock").get(&key).cloned();
    if cached.is_some() {
        srv.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
    }
    let budget = if spec.threads == 0 { srv.budget_cap } else { spec.threads.min(srv.budget_cap) };
    if let Err(reason) = srv.acquire_budget(budget) {
        srv.reject(out, reason, "admission refused");
        return Ok(());
    }
    // Budget held from here: release on every path below.
    let job_id = srv.next_job_id.fetch_add(1, Ordering::Relaxed);
    srv.stats.jobs_accepted.fetch_add(1, Ordering::Relaxed);
    let t0 = Instant::now();
    let connected = send(out, &ServerFrame::Accepted(job_id)).is_ok();

    // The job runs here, and its checks tend the socket. Pool helpers
    // check too, concurrently at width > 1: a check that finds another
    // tending skips its turn.
    let duties = Mutex::new(Duties {
        srv,
        reader,
        out,
        job_id,
        total: spec.injections as u64,
        connected,
        polled: t0,
        progress: u64::MAX,
    });
    let watch = |classified| duties.try_lock().map_or(true, |mut d| d.tend(classified));
    let ctl = JobControl::watched(&watch);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let campaign = match cached {
            Some(c) => c,
            None => srv.prepare_campaign(&key, &spec, workload),
        };
        let cfg = spec.campaign_config();
        let rec = spec.telemetry.then(Recorder::new);
        let hooks: &dyn Hooks = match &rec {
            Some(r) => r,
            None => &NoTelemetry,
        };
        let report = run_backed(srv, &ckey, &campaign, &cfg, hooks, &ctl);
        (report, rec.map(|r| r.drain().to_jsonl()))
    }));
    // A job that panicked inside a check poisoned the lock; each of a
    // check's updates leaves the duties valid, so the connection goes on.
    let Duties { out, mut connected, .. } =
        duties.into_inner().unwrap_or_else(PoisonError::into_inner);
    srv.release_budget(budget);
    srv.recorder.record("server.job_ns", t0.elapsed().as_nanos() as u64);

    match outcome {
        Ok((report, jsonl)) => {
            if report.cancelled {
                srv.stats.jobs_cancelled.fetch_add(1, Ordering::Relaxed);
            } else {
                srv.stats.jobs_completed.fetch_add(1, Ordering::Relaxed);
            }
            // The rest of the stream, in one write: records, telemetry,
            // report, done.
            if connected {
                let mut tail = String::new();
                let mut line = |text: String| {
                    tail.push_str(&text);
                    tail.push('\n');
                };
                let records = if spec.records { &report.records[..] } else { &[] };
                for r in records {
                    line(proto::encode_record(job_id, r));
                }
                let jsonl = jsonl.as_deref().unwrap_or_default();
                for l in jsonl.lines().filter(|l| !l.trim().is_empty()) {
                    line(ServerFrame::Telemetry(job_id, l.to_string()).encode());
                }
                line(proto::encode_report(job_id, &report));
                line(ServerFrame::Done(job_id).encode());
                // Counted before the write, so a client that has read `done`
                // sees its records in the stats.
                let n = records.len() as u64;
                srv.stats.records_streamed.fetch_add(n, Ordering::Relaxed);
                connected = out.write_all(tail.as_bytes()).is_ok();
            }
        }
        Err(payload) => {
            srv.stats.jobs_failed.fetch_add(1, Ordering::Relaxed);
            if connected {
                connected = send(out, &ServerFrame::Failed(job_id, panic_message(payload))).is_ok();
            }
        }
    }
    if connected {
        Ok(())
    } else {
        Err(())
    }
}

/// Run one job's campaign, through the content-addressed store when the
/// server has one (warm records reused, only the residual executed, fresh
/// records appended), directly otherwise. A store I/O failure degrades to
/// a direct run — the job still completes, this run just isn't persisted.
fn run_backed(
    srv: &Srv,
    key: &CampaignKey,
    campaign: &Campaign,
    cfg: &CampaignConfig,
    hooks: &dyn Hooks,
    ctl: &JobControl,
) -> CampaignReport {
    if let Some(store) = &srv.store {
        match store.run_campaign(key, campaign, cfg, hooks, ctl) {
            Ok(run) => {
                srv.recorder.add("server.store_hits", run.stats.hits);
                srv.recorder.add("server.store_misses", run.stats.misses);
                return run.report;
            }
            Err(_) => srv.recorder.add("server.store_errors", 1),
        }
    }
    let all: Vec<usize> = (0..cfg.injections).collect();
    campaign.run_selected(cfg, &all, hooks, ctl, &faultsim::NoSink)
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("worker panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("worker panicked: {s}")
    } else {
        "worker panicked".to_string()
    }
}

impl Srv {
    /// Compile + prepare on a cache miss, then publish. Concurrent misses
    /// on the same key both prepare (identical, deterministic campaigns)
    /// and the first insert wins; the work the loser burned is bounded by
    /// one prepare. The prepare runs outside the cache lock so a slow
    /// golden run never blocks other clients' cache probes. Publishing may
    /// evict the least-recently-used campaign (the cache is bounded);
    /// evictions surface in the stats frame and `server.cache_evictions`.
    fn prepare_campaign(
        &self,
        key: &str,
        spec: &JobSpec,
        workload: workloads::Workload,
    ) -> Arc<Campaign> {
        self.stats.cache_misses.fetch_add(1, Ordering::Relaxed);
        let app = care::compile(&workload.module, spec.opt);
        let campaign = Arc::new(Campaign::prepare(&workload, app, vec![]));
        let mut map = self.cache.lock().expect("cache lock");
        let published = match map.get(key) {
            Some(winner) => winner.clone(),
            None => {
                map.insert(key.to_string(), campaign.clone());
                self.stats.cache_evictions.store(map.evictions(), Ordering::Relaxed);
                campaign
            }
        };
        published
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;
    use crate::proto::WorkloadSel;
    use std::io::{BufRead, BufReader};

    fn test_server(budget_cap: usize, max_queue: usize) -> ServerHandle {
        CampaignServer::start(ServerConfig { budget_cap, max_queue, ..ServerConfig::default() })
            .expect("bind loopback")
    }

    /// Send raw lines on one connection, reading one response frame per
    /// line sent; returns the `(kind, reason)` of each response.
    fn raw_exchange(addr: std::net::SocketAddr, lines: &[&str]) -> Vec<(String, String)> {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut out = Vec::new();
        for line in lines {
            // One write, so a line's tail and its newline reach the server
            // in the same read.
            stream.write_all(format!("{line}\n").as_bytes()).unwrap();
            let mut resp = String::new();
            reader.read_line(&mut resp).unwrap();
            let v = telemetry::JsonRef::parse(resp.trim()).expect("server speaks JSON");
            let field = |key| v.get(key).and_then(telemetry::JsonRef::as_str).unwrap_or("");
            let (kind, reason) = (field("kind").to_string(), field("reason").to_string());
            out.push((kind, reason));
        }
        out
    }

    #[test]
    fn admission_respects_cap_queue_and_shutdown() {
        let handle = test_server(2, 1);
        let srv = handle.srv.clone();
        // Fill the cap.
        assert!(srv.acquire_budget(2).is_ok());
        assert_eq!(srv.snapshot().inflight_budget, 2);
        // One waiter fits in the queue...
        let srv2 = srv.clone();
        let waiter = std::thread::spawn(move || srv2.acquire_budget(1));
        while srv.snapshot().queue_depth == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // ...and the queue is now full.
        assert_eq!(srv.acquire_budget(1), Err(RejectReason::QueueFull));
        // Releasing admits the waiter.
        srv.release_budget(2);
        assert_eq!(waiter.join().unwrap(), Ok(()));
        assert_eq!(srv.snapshot().inflight_budget, 1);
        assert_eq!(srv.snapshot().queue_depth, 0);
        srv.release_budget(1);
        // Shutdown unblocks queued waiters with a typed reject.
        assert!(srv.acquire_budget(2).is_ok());
        let srv3 = srv.clone();
        let waiter = std::thread::spawn(move || srv3.acquire_budget(2));
        while srv.snapshot().queue_depth == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        srv.shutdown.store(true, Ordering::SeqCst);
        srv.cv.notify_all();
        assert_eq!(waiter.join().unwrap(), Err(RejectReason::ShuttingDown));
        assert_eq!(srv.acquire_budget(1), Err(RejectReason::ShuttingDown));
    }

    #[test]
    fn every_malformed_frame_gets_a_typed_reject_and_the_connection_survives() {
        let mut handle = test_server(0, 4);
        let addr = handle.addr();
        let huge = format!("{{\"kind\":\"job\",\"pad\":\"{}\"}}", "x".repeat(2 * MAX_FRAME_BYTES));
        // The cap is exact: one byte over is refused, the cap itself is
        // served.
        let padded = |len: usize| {
            let open = "{\"kind\":\"stats\",\"proto\":1,\"pad\":\"";
            format!("{open}{}\"}}", "x".repeat(len - open.len() - 2))
        };
        let (over, at_cap) = (padded(MAX_FRAME_BYTES + 1), padded(MAX_FRAME_BYTES));
        assert_eq!((over.len(), at_cap.len()), (MAX_FRAME_BYTES + 1, MAX_FRAME_BYTES));
        let exchanges = raw_exchange(
            addr,
            &[
                "this is not json",
                "{\"no\":\"kind\"}",
                "{\"kind\":\"mystery\"}",
                "{\"kind\":\"job\",\"proto\":99,\"workload\":\"hpccg\",\"injections\":5}",
                "{\"kind\":\"job\",\"proto\":1,\"workload\":\"hpccg\",\"injections\":5,\"params\":\"3\"}",
                "{\"kind\":\"job\",\"proto\":1,\"workload\":\"nope\",\"injections\":5}",
                "{\"kind\":\"job\",\"proto\":1,\"workload\":\"hpccg\",\"injections\":0}",
                &huge,
                &over,
                &at_cap,
                // The connection still serves after all of the above.
                "{\"kind\":\"stats\",\"proto\":1}",
            ],
        );
        let want = [
            ("reject", "bad_json"),
            ("reject", "bad_frame"),
            ("reject", "bad_frame"),
            ("reject", "unsupported_proto"),
            ("reject", "bad_frame"),
            ("reject", "bad_spec"),
            ("reject", "bad_spec"),
            ("reject", "oversized"),
            ("reject", "oversized"),
            ("stats", ""),
            ("stats", ""),
        ];
        for ((kind, reason), (wk, wr)) in exchanges.iter().zip(want) {
            assert_eq!((kind.as_str(), reason.as_str()), (wk, wr));
        }
        assert_eq!(handle.stats().jobs_rejected, 9);
        assert_eq!(handle.stats().jobs_accepted, 0);
        handle.shutdown();
    }

    /// A tiny inline workload keeps the happy-path unit test fast and
    /// exercises the inline-module spec end to end.
    fn tiny_inline_spec() -> JobSpec {
        let mut mb = tinyir::builder::ModuleBuilder::new("tiny", "tiny.c");
        let out = mb.global_zeroed("out", tinyir::Ty::I64, 8);
        mb.define("main", vec![tinyir::Ty::I64], Some(tinyir::Ty::I64), |fb| {
            let acc = fb.alloca(tinyir::Ty::I64, 1);
            fb.store(tinyir::Value::i64(1), acc);
            let n = fb.arg(0);
            let outp = fb.global(out);
            fb.for_loop(tinyir::Value::i64(0), n, |fb, i| {
                let a = fb.load(acc, tinyir::Ty::I64);
                let s = fb.add(a, i, tinyir::Ty::I64);
                fb.store(s, acc);
                let slot = fb.srem(i, tinyir::Value::i64(8), tinyir::Ty::I64);
                fb.store_elem(s, outp, slot, tinyir::Ty::I64);
            });
            let r = fb.load(acc, tinyir::Ty::I64);
            fb.ret(Some(r));
        });
        let module = mb.finish();
        JobSpec {
            workload: WorkloadSel::Inline {
                text: tinyir::display::print_module(&module),
                args: vec![6],
                outputs: vec![("out".to_string(), 64)],
            },
            injections: 30,
            telemetry: true,
            ..JobSpec::default()
        }
    }

    #[test]
    fn loopback_inline_job_matches_local_run_and_reuses_the_cache() {
        let mut handle = test_server(0, 4);
        let spec = tiny_inline_spec();

        // Local baseline from the same spec.
        let workload = proto::resolve_workload(&spec.workload).unwrap();
        let app = care::compile(&workload.module, spec.opt);
        let campaign = Campaign::prepare(&workload, app, vec![]);
        let local = campaign.run(&spec.campaign_config());

        let first = client::submit(handle.addr(), &spec).expect("first submit");
        assert_eq!(first.report, local, "wire report diverged from the local run");
        assert!(!first.telemetry.is_empty(), "telemetry frames were requested");

        let second = client::submit(handle.addr(), &spec).expect("second submit");
        assert_eq!(second.report, local);
        let stats = handle.stats();
        assert_eq!(stats.jobs_completed, 2);
        assert_eq!(stats.cache_misses, 1, "second job must hit the campaign cache");
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.inflight_budget, 0, "budget leaked after completion");
        assert_eq!(stats.records_streamed, 2 * local.records.len() as u64);

        // The server.* series recorded the lifecycle.
        let report = handle.telemetry();
        assert_eq!(report.counters.get("server.jobs_accepted"), Some(&2));
        assert_eq!(report.counters.get("server.jobs_completed"), Some(&2));
        handle.shutdown();
    }

    /// A job spec small enough to run in a blink.
    fn quick_spec() -> JobSpec {
        JobSpec { injections: 4, telemetry: false, ..tiny_inline_spec() }
    }

    /// Shutdown ends the busy connection tasks and waits for them all: once
    /// it returns, no connection task holds the server.
    #[test]
    fn shutdown_waits_for_every_connection_task() {
        let mut handle = test_server(2, 2);
        let (addr, spec) = (handle.addr(), quick_spec());
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| client::submit(addr, &spec).expect("submit"));
            }
        });
        // An open connection keeps a task busy through the shutdown.
        let open = TcpStream::connect(addr).expect("connect");
        let srv = handle.srv.clone();
        handle.shutdown();
        // Every connection task held the server; none holds it now.
        assert_eq!(Arc::strong_count(&srv), 2, "a connection task outlived shutdown");
        drop(open);
    }

    /// Each byte of a line is searched for the newline once, however many
    /// reads the line takes: a multi-hundred-KiB inline job frame written
    /// in 4 KiB pieces decodes, and an over-cap line behind it is still
    /// drained and refused before the next frame reads.
    #[test]
    fn reader_decodes_a_large_frame_written_in_small_pieces() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
        let (conn, _) = listener.accept().expect("accept");
        conn.set_read_timeout(Some(POLL)).unwrap();
        let mut reader = FrameReader::new(conn);

        let mut spec = tiny_inline_spec();
        if let WorkloadSel::Inline { text, .. } = &mut spec.workload {
            // Up to the inline-module cap.
            let pad = "; a comment line that pads the module\n";
            while text.len() + pad.len() <= proto::MAX_MODULE_BYTES {
                text.push_str(pad);
            }
        }
        let job = spec.to_frame();
        assert!((200 << 10..MAX_FRAME_BYTES).contains(&job.len()), "{}", job.len());
        let over = "x".repeat(MAX_FRAME_BYTES + 1);
        let wire = format!("{job}\n{over}\n{}\n", ClientFrame::Stats.encode());
        let writer = std::thread::spawn(move || {
            for piece in wire.as_bytes().chunks(4096) {
                client.write_all(piece).unwrap();
            }
            client
        });
        let mut next = || loop {
            match reader.poll_frame() {
                ReadOutcome::Frame(frame) => return frame,
                ReadOutcome::Idle => {}
                ReadOutcome::Disconnected => panic!("peer closed mid-stream"),
            }
        };
        assert_eq!(next(), Ok(ClientFrame::Job(spec)));
        assert!(matches!(next(), Err((RejectReason::Oversized, _))));
        assert_eq!(next(), Ok(ClientFrame::Stats));
        drop(writer.join().unwrap());
    }

    /// The in-job poll returns at once on a quiet socket (the blocking
    /// poll waits out [`POLL`]), still reads what arrives and sees a
    /// close, and leaves the shared socket blocking for the writes.
    #[test]
    fn in_job_poll_does_not_block_and_restores_blocking_writes() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
        let (conn, _) = listener.accept().expect("accept");
        conn.set_read_timeout(Some(POLL)).unwrap();
        let mut out = conn.try_clone().unwrap();
        let mut reader = FrameReader::new(conn);

        let t0 = Instant::now();
        for _ in 0..10 {
            assert!(matches!(reader.poll_frame_now(), ReadOutcome::Idle));
        }
        assert!(t0.elapsed() < POLL, "ten quiet polls took {:?}", t0.elapsed());
        let t0 = Instant::now();
        assert!(matches!(reader.poll_frame(), ReadOutcome::Idle));
        assert!(t0.elapsed() >= POLL / 2, "the blocking poll returned after {:?}", t0.elapsed());

        // A write far larger than the socket buffers completes: blocking.
        let big = vec![b'x'; 8 << 20];
        let drain = std::thread::spawn(move || {
            let mut sink = vec![0u8; 1 << 16];
            let mut got = 0;
            while got < 8 << 20 {
                got += client.read(&mut sink).unwrap();
            }
            client.write_all(format!("{}\n", ClientFrame::Stats.encode()).as_bytes()).unwrap();
            client
        });
        out.write_all(&big).expect("a blocking write");
        let client = drain.join().unwrap();
        let frame = loop {
            match reader.poll_frame_now() {
                ReadOutcome::Frame(frame) => break frame,
                ReadOutcome::Idle => std::thread::sleep(Duration::from_millis(1)),
                ReadOutcome::Disconnected => panic!("peer closed early"),
            }
        };
        assert_eq!(frame, Ok(ClientFrame::Stats));
        drop(client);
        let closed = loop {
            match reader.poll_frame_now() {
                ReadOutcome::Idle => std::thread::sleep(Duration::from_millis(1)),
                other => break other,
            }
        };
        assert!(matches!(closed, ReadOutcome::Disconnected));
    }

    /// The acceptance property for the bounded cache: a stream of 1000
    /// jobs with distinct campaign keys (as an adversarial client sending
    /// ever-new inline programs would produce) never grows the cache past
    /// its bound, and every eviction is counted in the stats frame.
    #[test]
    fn cache_stays_bounded_under_a_stream_of_distinct_jobs() {
        let srv = Srv::new(&ServerConfig::default()).unwrap();
        let cap = DEFAULT_CACHE_CAP;
        let spec = tiny_inline_spec();
        let workload = proto::resolve_workload(&spec.workload).unwrap();
        for i in 0..1000u32 {
            // Distinct keys over one resolved workload: the cache keys on
            // the string alone, and reusing the program keeps 1000
            // prepares affordable.
            srv.prepare_campaign(&format!("care1:{i:032x}:O1:e1"), &spec, workload.clone());
            assert!(srv.cache.lock().unwrap().len() <= cap, "cache exceeded its bound at job {i}");
        }
        assert_eq!(srv.cache.lock().unwrap().len(), cap);
        let snap = srv.snapshot();
        assert_eq!(snap.cache_misses, 1000);
        assert_eq!(snap.cache_evictions, 1000 - cap as u64);
    }

    /// A store-backed server reuses stored records: the second identical
    /// job executes zero residual injections (nothing is appended to the
    /// log) and its report — records included — is byte-identical.
    #[test]
    fn store_backed_server_reuses_records_across_jobs() {
        let dir = std::env::temp_dir().join(format!("careserve-store-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut handle = CampaignServer::start(ServerConfig {
            store_dir: Some(dir.clone()),
            ..ServerConfig::default()
        })
        .expect("bind loopback");
        let spec = tiny_inline_spec();

        let first = client::submit(handle.addr(), &spec).expect("first submit");
        let logs: Vec<_> = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()).collect();
        assert_eq!(logs.len(), 1, "one campaign, one log");
        let after_first = std::fs::read(&logs[0]).unwrap();
        assert!(!after_first.is_empty());

        let second = client::submit(handle.addr(), &spec).expect("second submit");
        assert_eq!(second.report, first.report, "warm store re-run diverged from the cold run");
        let after_second = std::fs::read(&logs[0]).unwrap();
        assert_eq!(
            after_second, after_first,
            "warm re-run appended to the log: residual was not zero"
        );
        handle.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
