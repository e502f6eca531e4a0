//! The harness's own span recorder, used only in the traced pass.
//!
//! A span is recorded around each call the harness makes into a layer;
//! nothing inside the measured crates is instrumented. Spans stay in
//! memory and are written as JSONL when the run ends. A tracer belongs to
//! one thread; a multi-client workload gives each client its own and the
//! span lists are concatenated afterwards (ids carry the tracer's lane).

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span. `parent == 0` marks a root.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub job: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span names under `harness.` are the harness's own glue (rounds, jobs,
/// report comparison); everything else names the layer it was spent in.
pub fn is_layer(name: &str) -> bool {
    !name.starts_with("harness.")
}

pub struct Tracer {
    on: bool,
    lane: u64,
    epoch: Instant,
    next: Cell<u64>,
    job: Cell<u64>,
    stack: RefCell<Vec<u64>>,
    spans: RefCell<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records nothing: `span` is one branch and a call.
    pub fn off() -> Tracer {
        Tracer::new(false, 0, Instant::now())
    }

    /// A recording tracer. Tracers of one run share `epoch` so their
    /// timestamps line up; `lane` keeps their span ids apart.
    pub fn on(lane: u64, epoch: Instant) -> Tracer {
        Tracer::new(true, lane, epoch)
    }

    fn new(on: bool, lane: u64, epoch: Instant) -> Tracer {
        Tracer {
            on,
            lane,
            epoch,
            next: Cell::new(1),
            job: Cell::new(0),
            stack: RefCell::new(Vec::new()),
            spans: RefCell::new(Vec::new()),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// The instant this tracer's timestamps count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Take over spans another thread's tracer recorded.
    pub fn absorb(&self, spans: Vec<Span>) {
        self.spans.borrow_mut().extend(spans);
    }

    /// Label spans opened from now on with this job number.
    pub fn set_job(&self, job: u64) {
        self.job.set(job);
    }

    /// Run `f` inside a span named `name`, child of the innermost open span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let id = (self.lane << 32) | self.next.get();
        self.next.set(self.next.get() + 1);
        let parent = self.stack.borrow().last().copied().unwrap_or(0);
        self.stack.borrow_mut().push(id);
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.stack.borrow_mut().pop();
        self.spans.borrow_mut().push(Span {
            id,
            parent,
            job: self.job.get(),
            name,
            start_ns,
            end_ns,
        });
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

/// Self time per span name: each span's duration minus the durations of its
/// direct children (saturating, should clock reads ever cross).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_sum: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_sum.entry(s.parent).or_default() += s.dur_ns();
    }
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for s in spans {
        let own = s.dur_ns().saturating_sub(child_sum.get(&s.id).copied().unwrap_or(0));
        *out.entry(s.name).or_default() += own;
    }
    out
}

/// Share of root-span wall time that is self time of layer-named spans.
pub fn coverage_share(spans: &[Span]) -> f64 {
    let wall: u64 = spans.iter().filter(|s| s.parent == 0).map(Span::dur_ns).sum();
    let layers: u64 = self_times(spans).iter().filter(|(n, _)| is_layer(n)).map(|(_, v)| v).sum();
    if wall == 0 {
        0.0
    } else {
        layers as f64 / wall as f64
    }
}

/// One JSON object per span, one per line.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"job\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.job, s.name, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, job: 0, name, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            sp(1, 0, "harness.round", 0, 100),
            sp(2, 1, "faultsim.run", 10, 70),
            sp(3, 2, "simx.translate", 20, 30),
            sp(4, 1, "faultsim.run", 70, 90),
        ];
        let st = self_times(&spans);
        assert_eq!(st["harness.round"], 100 - 60 - 20);
        assert_eq!(st["faultsim.run"], (60 - 10) + 20);
        assert_eq!(st["simx.translate"], 10);
        // Self times partition the root's wall time exactly.
        assert_eq!(st.values().sum::<u64>(), 100);
        assert!((coverage_share(&spans) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_spans_and_off_records_nothing() {
        let t = Tracer::on(2, Instant::now());
        t.set_job(7);
        let v = t.span("harness.job", || t.span("opt.optimize", || 41) + 1);
        assert_eq!(v, 42);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        let (inner, outer) = (&spans[0], &spans[1]);
        assert_eq!((inner.name, outer.name), ("opt.optimize", "harness.job"));
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.job, 7);
        assert_eq!(outer.id >> 32, 2);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);

        let off = Tracer::off();
        assert_eq!(off.span("x.y", || 5), 5);
        assert!(off.into_spans().is_empty());
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let text = to_jsonl(&[sp(1, 0, "a.b", 5, 9), sp(2, 1, "c.d", 6, 7)]);
        assert_eq!(text.lines().count(), 2);
        assert!(text.starts_with(
            "{\"id\":1,\"parent\":0,\"job\":0,\"name\":\"a.b\",\"start_ns\":5,\"end_ns\":9}\n"
        ));
    }
}
