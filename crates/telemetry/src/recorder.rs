//! The hook trait and its two implementations: the silent [`NoTelemetry`]
//! and the sharded [`Recorder`].
//!
//! # Why a value and not a type parameter
//!
//! Instrumented functions take `hooks: &dyn Hooks` and guard every
//! telemetry statement with `if hooks.enabled() { ... }`, so operands,
//! `Instant::now()` calls and events are built only when someone listens.
//! Every such site runs once per trap, injection, cursor hop or campaign
//! — never per simulated step: the step loops and the memory hot path live
//! in `simx` and `tinyir`, which do not depend on this crate — so the off
//! path costs one predictable branch per site, and the campaign core is
//! compiled once instead of once per observer type. "Nothing observes when
//! nobody listens" is held by a test (`tests/telemetry.rs` drives every
//! instrumented entry point with hooks that panic when touched), not by
//! the optimizer.
//!
//! # Sharding
//!
//! `Recorder` is `Clone + Sync` and is shared by reference across campaign
//! worker threads. Each thread lazily allocates a private **shard**
//! (counters + histograms + events behind a mutex only that thread ever
//! contends on) found through a thread-local cache keyed by recorder;
//! [`Recorder::drain`](crate::Recorder::drain) merges every shard into one
//! [`TelemetryReport`](crate::TelemetryReport). Because shards are
//! per-thread, per-shard counter subtotals are per-*worker* measurements —
//! the trellis' `worker.busy_ns` utilization breakdown is just
//! the undrained view of an ordinary counter.

use crate::event::Event;
use crate::hist::Histogram;
use crate::report::TelemetryReport;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, Weak};
use std::time::Instant;

/// The telemetry hook surface instrumented code takes as `&dyn Hooks`.
///
/// The recording methods have empty defaults; implementations override what
/// they support. Call sites must guard with `if hooks.enabled()` so nothing
/// is computed for an observer that is not there (see module docs).
pub trait Hooks: Sync {
    /// Is anyone listening? `false` makes every guarded call site a skipped
    /// branch.
    fn enabled(&self) -> bool;

    /// Add `delta` to the named counter.
    fn add(&self, _name: &'static str, _delta: u64) {}

    /// Record one sample into the named histogram. By convention names end
    /// in `_ns` (wall-clock span), `_steps` (simulated-step span) or a unit
    /// suffix like `_bp` (basis points).
    fn record(&self, _name: &'static str, _value: u64) {}

    /// Emit a structured event. Build it inside the `enabled()` guard, so
    /// it costs nothing when nobody listens.
    fn emit(&self, _event: Event) {}
}

/// The disabled hooks: `enabled()` is `false` and nothing is recorded.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoTelemetry;

impl Hooks for NoTelemetry {
    fn enabled(&self) -> bool {
        false
    }
}

/// Time `f` and record the elapsed wall-clock nanoseconds into `name`
/// (which should end in `_ns`). With hooks disabled this is a plain call to
/// `f` — no clock reads.
pub fn timed<R>(hooks: &dyn Hooks, name: &'static str, f: impl FnOnce() -> R) -> R {
    if hooks.enabled() {
        let t0 = Instant::now();
        let r = f();
        hooks.record(name, t0.elapsed().as_nanos() as u64);
        r
    } else {
        f()
    }
}

/// One thread's private accumulation state. The mutexes exist only so the
/// draining thread can read concurrently with the owner; the owner never
/// contends with itself.
#[derive(Default)]
struct Shard {
    counters: Mutex<HashMap<&'static str, u64>>,
    hists: Mutex<HashMap<&'static str, Histogram>>,
    events: Mutex<Vec<Event>>,
}

struct RecorderInner {
    /// Creation instant — the zero of every stamped `t_ns`.
    start: Instant,
    /// Every shard ever handed to a thread (shards outlive their threads).
    shards: Mutex<Vec<Arc<Shard>>>,
}

thread_local! {
    /// Per-thread cache of (recorder → this thread's shard). Linear scan: a
    /// process holds a handful of *live* recorders at most, and the entries
    /// of dropped ones go at the next miss. A cached `Weak` keeps the dropped
    /// recorder's allocation from being reused, so an address names one
    /// recorder for as long as it is in the cache.
    static SHARD_CACHE: RefCell<Vec<(Weak<RecorderInner>, Arc<Shard>)>> =
        const { RefCell::new(Vec::new()) };
}

/// The enabled [`Hooks`] implementation: sharded per-thread accumulation,
/// merged on [`Recorder::drain`].
#[derive(Clone)]
pub struct Recorder {
    inner: Arc<RecorderInner>,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}

impl Recorder {
    /// A fresh recorder; `t_ns` stamps count from this moment.
    pub fn new() -> Recorder {
        Recorder {
            inner: Arc::new(RecorderInner {
                start: Instant::now(),
                shards: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Nanoseconds since the recorder was created.
    pub fn elapsed_ns(&self) -> u64 {
        self.inner.start.elapsed().as_nanos() as u64
    }

    /// The calling thread's shard, creating and registering it on first use.
    fn shard(&self) -> Arc<Shard> {
        SHARD_CACHE.with(|cache| {
            let mut cache = cache.borrow_mut();
            let me = Arc::as_ptr(&self.inner);
            if let Some((_, s)) = cache.iter().find(|(owner, _)| std::ptr::eq(owner.as_ptr(), me)) {
                return Arc::clone(s);
            }
            cache.retain(|(owner, _)| owner.strong_count() > 0);
            let shard = Arc::new(Shard::default());
            self.inner.shards.lock().unwrap().push(Arc::clone(&shard));
            cache.push((Arc::downgrade(&self.inner), Arc::clone(&shard)));
            shard
        })
    }

    /// Merge every shard into a report. Non-destructive: the recorder keeps
    /// accumulating, and a later drain sees the union again.
    pub fn drain(&self) -> TelemetryReport {
        let shards = self.inner.shards.lock().unwrap();
        let mut report = TelemetryReport {
            wall_s: self.inner.start.elapsed().as_secs_f64(),
            ..TelemetryReport::default()
        };
        for shard in shards.iter() {
            let counters = shard.counters.lock().unwrap();
            if !counters.is_empty() {
                let mut per_shard: Vec<(String, u64)> = Vec::new();
                for (&name, &v) in counters.iter() {
                    *report.counters.entry(name.to_string()).or_default() += v;
                    per_shard.push((name.to_string(), v));
                }
                per_shard.sort();
                report.per_shard_counters.push(per_shard.into_iter().collect());
            }
            for (&name, h) in shard.hists.lock().unwrap().iter() {
                report.hists.entry(name.to_string()).or_default().merge(h);
            }
            report.events.extend(shard.events.lock().unwrap().iter().cloned());
        }
        // Shard iteration order is registration order (thread-schedule
        // dependent); sort events by stamp so the stream reads as a
        // timeline regardless.
        report.events.sort_by_key(|e| {
            e.fields
                .iter()
                .find(|(n, _)| *n == "t_ns")
                .and_then(|(_, v)| match v {
                    crate::event::Value::U64(t) => Some(*t),
                    _ => None,
                })
                .unwrap_or(0)
        });
        report
    }
}

impl Hooks for Recorder {
    fn enabled(&self) -> bool {
        true
    }

    fn add(&self, name: &'static str, delta: u64) {
        let shard = self.shard();
        *shard.counters.lock().unwrap().entry(name).or_default() += delta;
    }

    fn record(&self, name: &'static str, value: u64) {
        let shard = self.shard();
        shard.hists.lock().unwrap().entry(name).or_default().record(value);
    }

    fn emit(&self, event: Event) {
        let ev = event.field("t_ns", self.elapsed_ns());
        self.shard().events.lock().unwrap().push(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_hists_accumulate() {
        let r = Recorder::new();
        r.add("c", 2);
        r.add("c", 3);
        r.record("h_ns", 10);
        r.record("h_ns", 1000);
        let rep = r.drain();
        assert_eq!(rep.counters["c"], 5);
        assert_eq!(rep.hists["h_ns"].count(), 2);
        assert_eq!(rep.hists["h_ns"].sum(), 1010);
    }

    #[test]
    fn shards_merge_across_threads() {
        let r = Recorder::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        r.add("worker.busy_ns", 1);
                        r.record("job_ns", 7);
                    }
                });
            }
        });
        let rep = r.drain();
        assert_eq!(rep.counters["worker.busy_ns"], 400);
        assert_eq!(rep.hists["job_ns"].count(), 400);
        // Four worker threads → four shards, each with its own subtotal.
        assert_eq!(rep.per_shard_counters.len(), 4);
        let per: u64 = rep.per_shard_counters.iter().map(|m| m["worker.busy_ns"]).sum();
        assert_eq!(per, 400);
    }

    #[test]
    fn events_are_stamped_and_time_ordered() {
        let r = Recorder::new();
        r.emit(Event::new("a"));
        r.emit(Event::new("b"));
        let rep = r.drain();
        assert_eq!(rep.events.len(), 2);
        let stamps: Vec<u64> = rep
            .events
            .iter()
            .map(|e| match e.fields.iter().find(|(n, _)| *n == "t_ns") {
                Some((_, crate::event::Value::U64(t))) => *t,
                other => panic!("missing t_ns: {other:?}"),
            })
            .collect();
        assert!(stamps[0] <= stamps[1]);
    }

    #[test]
    fn two_recorders_do_not_share_shards() {
        let a = Recorder::new();
        let b = Recorder::new();
        a.add("x", 1);
        b.add("x", 10);
        assert_eq!(a.drain().counters["x"], 1);
        assert_eq!(b.drain().counters["x"], 10);
    }

    /// The server makes a recorder per traced job; a long-lived thread must
    /// not keep a shard (and a slower lookup) for each one ever seen.
    #[test]
    fn shard_cache_forgets_dropped_recorders() {
        let keep = Recorder::new();
        keep.add("x", 1);
        for _ in 0..1_000 {
            let r = Recorder::new();
            r.add("x", 1);
            r.record("h_ns", 1);
        }
        let cached = SHARD_CACHE.with(|c| c.borrow().len());
        assert!(cached <= 2, "{cached} shards cached for one live recorder");
        keep.add("x", 1);
        assert_eq!(keep.drain().counters["x"], 2);
    }

    #[test]
    fn disabled_hooks_do_nothing_and_timed_passes_through() {
        let h = NoTelemetry;
        h.add("x", 1);
        h.record("y", 2);
        h.emit(Event::new("dropped"));
        assert_eq!(timed(&h, "z_ns", || 42), 42);
        let r = Recorder::new();
        assert_eq!(timed(&r, "z_ns", || 42), 42);
        assert_eq!(r.drain().hists["z_ns"].count(), 1);
    }

    #[test]
    fn drain_is_non_destructive() {
        let r = Recorder::new();
        r.add("c", 1);
        assert_eq!(r.drain().counters["c"], 1);
        r.add("c", 1);
        assert_eq!(r.drain().counters["c"], 2);
    }
}
