//! Campaign orchestration: prepare a workload once (golden run, template
//! process, recovery index), then run injections against it on the
//! **snapshot trellis**.
//!
//! All `N` injection points are sampled up front and grouped by the bracket
//! of the golden run's checkpoint trail ([`crate::trail`]) they fire in; one
//! cursor per populated bracket starts from the job's golden state at the
//! bracket's start and runs, concurrently with the others on the pool, until
//! its last pending `(I, n)` has fired ([`crate::cursor`]). At each firing
//! it CoW-forks the paused process for every injection that drew the point
//! and runs that injection's suffix (inject → classify → Safeguard on the
//! trapped process itself, [`crate::suffix`]) from the fork, which the
//! suffix uses up. Campaign-wide simulated instructions are at most
//! ~`L + Σ suffixes` instead of ~`N·L`: a cursor executes only its bracket
//! up to its last firing, and a suffix or a repaired run stops at the golden
//! state it has re-joined, the first at the end of its own bracket. What a
//! campaign executes and reports depends on the campaign and its config
//! alone, not on the pool width.

use crate::cursor::{plan_points, Hop, PlannedPoint};
use crate::injector::{FaultModel, InjectionPoint, PointTable};
use crate::report::CampaignReport;
use crate::suffix::{InjectionRecord, MAX_COMPARES};
use crate::trail::{Trail, MAX_GOLDEN_STEPS};
use care::{build_process, CompiledApp};
use rand::rngs::SmallRng;
use rayon::prelude::*;
use safeguard::RecoveryIndex;
use simx::{
    CompiledEngine, EngineKind, ExecutionEngine, InterpEngine, MInst, ModuleId, Process, Profile,
};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use telemetry::{timed, Hooks, NoTelemetry};
use workloads::Workload;

/// Observer of classified records as they are produced, keyed by injection
/// index — the hook a persistent result store uses to append records
/// incrementally (so a killed campaign can resume from whatever reached
/// the log). Called from pool workers concurrently, in completion order,
/// exactly once per produced record; implementations must be internally
/// synchronized. A sink never influences the records: a campaign run with
/// any sink is bit-identical to one run with [`NoSink`].
pub trait RecordSink: Sync {
    /// Observe the record produced for injection `index`.
    fn emit(&self, index: usize, record: &InjectionRecord);
}

/// The do-nothing sink used by the non-persistent entry points.
pub struct NoSink;

impl RecordSink for NoSink {
    fn emit(&self, _index: usize, _record: &InjectionRecord) {}
}

/// Cooperative cancellation plus coarse progress for service-shaped runs.
///
/// A campaign driven through [`Campaign::run_selected`] polls the flag between
/// trellis cursor firings and before every suffix/CARE job (one relaxed
/// atomic load — far below the cost of either), so a cancelled job stops
/// burning pool time within one injection's worth of work. The `classified`
/// counter ticks once per produced record, giving observers (a campaign
/// server streaming progress, a Ctrl-C handler in a local run) a live
/// done-so-far view without touching the record pipeline.
///
/// A control made [`watched`](Self::watched) also asks its watch at each of
/// those checks, handing it the classified count, and cancels when it
/// answers `false`: the campaign server tends its client's socket there,
/// on whichever thread makes the check.
///
/// A `JobControl` that is never cancelled is an observational no-op: the
/// records are bit-identical to [`Campaign::run`].
#[derive(Default)]
pub struct JobControl<'w> {
    cancelled: AtomicBool,
    classified: AtomicU64,
    watch: Option<&'w (dyn Fn(u64) -> bool + Sync)>,
}

impl<'w> JobControl<'w> {
    /// A fresh, uncancelled control block.
    pub fn new() -> JobControl<'w> {
        JobControl::default()
    }

    /// A fresh control block that asks `watch` at every check whether the
    /// job may go on; see the type's docs.
    pub fn watched(watch: &'w (dyn Fn(u64) -> bool + Sync)) -> JobControl<'w> {
        JobControl { watch: Some(watch), ..JobControl::default() }
    }

    /// Request cancellation; the campaign stops at its next check.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// Has [`cancel`](Self::cancel) been called, or does the watch refuse
    /// now?
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed) || self.watch.is_some_and(|w| self.refused(w))
    }

    /// Kept out of line, so an unwatched check stays one load.
    #[inline(never)]
    fn refused(&self, watch: &(dyn Fn(u64) -> bool + Sync)) -> bool {
        let refused = !watch(self.classified());
        if refused {
            self.cancel();
        }
        refused
    }

    /// Records produced so far (monotone during a run).
    pub fn classified(&self) -> u64 {
        self.classified.load(Ordering::Relaxed)
    }

    fn note_classified(&self) {
        self.classified.fetch_add(1, Ordering::Relaxed);
    }
}

/// Bound on Safeguard activations per protected run.
pub const MAX_RECOVERIES: u64 = 64;

/// Campaign parameters.
#[derive(Clone, Copy, Debug)]
pub struct CampaignConfig {
    /// Number of injections (one per run, as in the paper).
    pub injections: usize,
    /// Single- or double-bit-flip model.
    pub model: FaultModel,
    /// RNG seed (campaigns are fully reproducible).
    pub seed: u64,
    /// Re-run SIGSEGV injections under Safeguard to measure coverage.
    pub evaluate_care: bool,
    /// Restrict injections to the executable module (§5 methodology);
    /// `false` injects anywhere (§2 methodology).
    pub app_only: bool,
    /// Hang threshold: `fuel = golden_steps × hang_factor`.
    pub hang_factor: u64,
    /// Ablation: Safeguard patches the base register first.
    pub patch_base_first: bool,
    /// Ablation: disable the §5.2 address-equality guard.
    pub skip_equality_guard: bool,
    /// Retain every raw [`InjectionRecord`] in the report. Off by default:
    /// large campaigns only need the aggregates, and the records dominate
    /// the report's memory.
    pub keep_records: bool,
    /// Execution backend for the injected runs, suffix and CARE (records
    /// are bit-identical on either; `Compiled` is the direct-threaded
    /// translator behind [`simx::ExecutionEngine`]). The golden-side runs —
    /// the golden run and the cursor pass — always run on the campaign's
    /// own translation.
    pub engine: EngineKind,
    /// Read nowhere: the cursor pass runs one cursor per populated bracket
    /// whatever this holds. The field stays only because carebench's
    /// `adapter::job` still names it.
    pub cursor_shards: Option<usize>,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            injections: 1000,
            model: FaultModel::SingleBit,
            seed: 0xCA2E,
            evaluate_care: false,
            app_only: false,
            hang_factor: 20,
            patch_base_first: false,
            skip_equality_guard: false,
            keep_records: false,
            engine: EngineKind::Interp,
            cursor_shards: None,
        }
    }
}

/// A prepared campaign: golden data + the shared per-injection machinery
/// (a pristine started process template, its translation and the recovery
/// index), all built exactly once.
pub struct Campaign {
    pub(crate) outputs: Vec<(String, u64)>,
    /// Golden output snapshots.
    pub(crate) golden_outputs: Vec<Vec<u8>>,
    /// Golden dynamic instruction count.
    pub golden_steps: u64,
    /// Execution-count profile from the golden run.
    pub profile: Profile,
    /// The profile's injection targets laid out for sampling.
    pub(crate) targets: PointTable,
    /// The golden run's checkpoint trail: its brackets are the cursor
    /// pass's unit, one cursor per populated bracket.
    pub(crate) trail: Trail,
    /// A started-but-not-run process; every injection clones it (Arc-shared
    /// image, copy-on-write memory) instead of re-loading the modules.
    pub(crate) template: Process,
    /// The compiled engine over `template`'s image, built in `prepare`:
    /// every golden-side run executes on it whatever the engine a run
    /// selects — the golden run and every cursor pass — and the image is
    /// immutable, so this one translation also serves the injected runs of
    /// a compiled campaign and is dropped with it.
    pub(crate) compiled: CompiledEngine,
    /// Recovery artefacts, encoded and keyed once; shared read-only across
    /// the campaign's workers.
    pub(crate) recovery: Arc<RecoveryIndex>,
}

impl Campaign {
    /// Compile-independent preparation: run the workload once fault-free
    /// (with profiling), snapshot its outputs, and set up the shared
    /// injection machinery. Panics when the golden run traps or is still
    /// running after [`MAX_GOLDEN_STEPS`].
    pub fn prepare(workload: &Workload, exe: CompiledApp, libs: Vec<CompiledApp>) -> Campaign {
        let mut template = build_process(&exe, &libs);
        template.start(workload.entry, &workload.args);
        let compiled = CompiledEngine::for_image(&template.image);
        let (trail, golden, profile) =
            Trail::record(&template, &compiled, workload.name, MAX_GOLDEN_STEPS);
        let golden_outputs = workload
            .outputs
            .iter()
            .map(|(name, len)| {
                golden
                    .snapshot_global(name, *len)
                    .unwrap_or_else(|| panic!("output global {name} missing"))
            })
            .collect();
        let mut recovery = RecoveryIndex::new();
        recovery.add(ModuleId(0), &exe.armor);
        for (i, lib) in libs.iter().enumerate() {
            recovery.add(ModuleId(i as u32 + 1), &lib.armor);
        }
        let mut campaign = Campaign {
            outputs: workload.outputs.clone(),
            golden_outputs,
            golden_steps: golden.steps,
            profile,
            targets: Default::default(),
            trail,
            template,
            compiled,
            recovery: Arc::new(recovery),
        };
        // The paper's fault model corrupts *destination operands* (a
        // register or memory cell); control transfers have neither, so they
        // are not injection targets.
        let eligible = |m: usize, f: usize, i: usize| -> bool {
            campaign.inst_at(m, f, i).is_some_and(|inst| !inst.is_control())
        };
        campaign.targets = PointTable::new(&campaign.profile, &eligible);
        campaign
    }

    /// The campaign-wide instruction budget: a run (prefix *and* suffix
    /// together) exceeding it is classified as a hang.
    pub(crate) fn fuel_budget(&self, cfg: &CampaignConfig) -> u64 {
        self.golden_steps.saturating_mul(cfg.hang_factor).max(1_000_000)
    }

    /// The static instruction at profile coordinates `[module][func][inst]`,
    /// read from the template's image — the loaded module table.
    pub(crate) fn inst_at(&self, module: usize, func: usize, inst: usize) -> Option<&MInst> {
        let lm = self.template.image.modules.get(module)?;
        lm.module.funcs.get(func)?.instrs.get(inst)
    }

    /// The engine `cfg` selects for the suffix and CARE runs.
    pub(crate) fn engine(&self, cfg: &CampaignConfig) -> &dyn ExecutionEngine {
        match cfg.engine {
            EngineKind::Compiled => &self.compiled,
            EngineKind::Interp => &InterpEngine,
        }
    }

    /// The snapshot trellis: sample all points up front, then run one
    /// cursor per populated bracket, each running the suffixes of its
    /// points as they fire.
    fn run_trellis(
        &self,
        cfg: &CampaignConfig,
        indices: &[usize],
        hooks: &dyn Hooks,
        ctl: &JobControl,
        sink: &dyn RecordSink,
    ) -> CampaignReport {
        // Phase 1 — sampling. Same per-index RNG stream as `run_one`, so
        // every downstream bit-flip draw is identical — for any index
        // subset: a residual run samples exactly the points a full run
        // would have sampled at those indexes.
        let samples: Vec<(usize, InjectionPoint, SmallRng)> =
            timed(hooks, "trellis.sample_ns", || {
                indices
                    .iter()
                    .filter_map(|&i| self.sample_point(cfg, i).map(|(p, rng)| (i, p, rng)))
                    .collect()
            });

        // Phase 2 — planning: group the samples by point; injection
        // indexes that sampled the same `(I, n)` share one firing.
        let points = plan_points(&self.trail, samples.iter().map(|s| s.1));

        // Phase 3 — the job's golden states, rebuilt at every checkpoint
        // its points' brackets reach, for the cursors to hop from and the
        // suffixes to re-join at, and dropped with the job.
        let states = timed(hooks, "trellis.cursor_ns", || {
            self.trail.states(&self.template, state_brackets(&points))
        });

        // Phase 4 — one cursor per populated bracket, concurrently on the
        // pool; each runs inject → classify → CARE from every fork as its
        // point fires. The records come back in bracket order and are put
        // back in sample order, which is index order, so they match
        // per-index `run_one` calls element for element.
        let suffix = |pos: usize, p: Process| {
            let (index, point, rng) = &samples[pos];
            let record = timed(hooks, "trellis.suffixes_ns", || {
                self.run_suffix(cfg, *point, rng, p, &states, hooks)
            })?;
            sink.emit(*index, &record);
            ctl.note_classified();
            Some(record)
        };
        let brackets: Vec<&[PlannedPoint]> =
            points.chunk_by(|a, b| a.bracket == b.bracket).collect();
        let cursor_shards = brackets.len();
        let hops: Vec<Hop> = brackets
            .into_par_iter()
            .map(|points| self.run_hop(cfg, &states, points, hooks, ctl, &suffix))
            .collect();
        let cursor_steps: u64 = hops.iter().map(|h| h.steps).sum();
        let trellis_snapshots: usize = hops.iter().map(|h| h.forks).sum();
        let mut records: Vec<(usize, InjectionRecord)> =
            hops.into_iter().flat_map(|h| h.records).collect();
        records.sort_unstable_by_key(|r| r.0);

        let mut report = CampaignReport::from_records(records.into_iter().map(|r| r.1).collect());
        // The attributed per-record prefixes were simulated once or not at
        // all, by the cursors: report what actually executed (the armed
        // windows from each bracket start a hop cloned, summed over the
        // populated brackets).
        report.trellis_snapshots = trellis_snapshots;
        report.cursor_shards = cursor_shards;
        report.steps_prefix = cursor_steps;
        report.simulated_steps =
            cursor_steps.saturating_add(report.steps_suffix).saturating_add(report.steps_care);
        if hooks.enabled() {
            hooks.add("trellis.snapshots", trellis_snapshots as u64);
            hooks.add("trellis.cursor_steps", cursor_steps);
            hooks.add("trellis.shards", cursor_shards as u64);
        }
        report
    }

    /// Run the full campaign.
    pub fn run(&self, cfg: &CampaignConfig) -> CampaignReport {
        self.run_with_hooks(cfg, &NoTelemetry)
    }

    /// [`run`](Self::run) with telemetry hooks. The records and aggregates
    /// are bit-identical to the hook-free run (hooks only observe); what the
    /// hooks gain is the per-phase trellis timeline, per-job spans and
    /// queue-drain events, Safeguard's recovery-phase distributions, the
    /// campaign's TLB hit counters, its translation's `engine.*` counters
    /// (on either engine), instruction-mix counters derived from
    /// the golden profile, and the campaign-level step-split counters.
    pub fn run_with_hooks(&self, cfg: &CampaignConfig, hooks: &dyn Hooks) -> CampaignReport {
        let all: Vec<usize> = (0..cfg.injections).collect();
        self.run_selected(cfg, &all, hooks, &JobControl::new(), &NoSink)
    }

    /// The single campaign core: run only the listed injection indexes,
    /// under an external cancellation token, pushing every record through
    /// `sink`. [`run`](Self::run) is this over `0..cfg.injections` with a
    /// never-cancelled control and [`NoSink`]; the campaign server passes
    /// its job's control block, and a persistent result store passes the
    /// residual indexes left after loading already-known records from its
    /// log plus a sink that appends to it.
    ///
    /// Per-index determinism (every index's RNG stream is seeded from
    /// `(cfg.seed, index)` alone) means the records produced for a subset
    /// are bit-identical to the same indexes of a full run: the trellis
    /// samples only the subset's points and runs cursors in only their
    /// brackets, so a residual run also *executes* only the prefix windows
    /// it needs.
    ///
    /// `ctl` is polled before each cursor hop, between a cursor's firings
    /// and before each suffix; once [`JobControl::cancel`] is observed, no
    /// further suffix work starts and the report comes back partial with
    /// [`CampaignReport::cancelled`] set. A partial report holds the records
    /// of the points that fired first in each bracket visited, not those of
    /// the lowest indexes. `indices` should be strictly increasing (records
    /// come back in that order, matching a full run's element order) and
    /// each `< cfg.injections`. Every produced record is also pushed through
    /// `sink` with its index, from the pool worker running its bracket's
    /// cursor, as soon as it is classified — see [`RecordSink`].
    pub fn run_selected(
        &self,
        cfg: &CampaignConfig,
        indices: &[usize],
        hooks: &dyn Hooks,
        ctl: &JobControl,
        sink: &dyn RecordSink,
    ) -> CampaignReport {
        let pool0 = hooks.enabled().then(rayon::pool_stats);
        let mut report = self.run_trellis(cfg, indices, hooks, ctl, sink);
        report.cancelled = ctl.is_cancelled();
        if let Some(p0) = pool0 {
            // Work-stealing activity attributable to this campaign (the
            // counters are process-wide, so these are deltas).
            let p1 = rayon::pool_stats();
            hooks.add("pool.batches", p1.batches.saturating_sub(p0.batches));
            hooks.add("pool.chunks", p1.chunks.saturating_sub(p0.chunks));
            hooks.add("pool.steals", p1.steals.saturating_sub(p0.steals));
        }
        if hooks.enabled() {
            hooks.add("campaign.injections", indices.len() as u64);
            hooks.add("campaign.classified", report.total() as u64);
            hooks.add("steps.prefix", report.steps_prefix);
            hooks.add("steps.suffix", report.steps_suffix);
            hooks.add("steps.care", report.steps_care);
            let st = self.compiled.stats();
            hooks.add("engine.blocks", st.blocks);
            hooks.add("engine.ops", st.ops);
            hooks.add("engine.fused_cmp_br", st.fused_cmp_br);
            hooks.add("engine.fused_glo_load", st.fused_glo_load);
            hooks.add("engine.fused_mov_mov", st.fused_mov_mov);
            self.record_instruction_mix(hooks);
        }
        if !cfg.keep_records {
            report.records = Vec::new();
        }
        report
    }
}

/// The brackets at whose starts a job keeps its golden states, for
/// `points` in bracket order: from its first populated bracket, where its
/// first hop lands, to [`MAX_COMPARES`] past its last, so that a run
/// injected in any populated bracket first compares at that bracket's end
/// and finds a state at each checkpoint it may compare at after. A job with
/// no points keeps none.
pub(crate) fn state_brackets(points: &[PlannedPoint]) -> Range<usize> {
    match (points.first(), points.last()) {
        (Some(first), Some(last)) => first.bracket..last.bracket + MAX_COMPARES + 1,
        _ => 0..0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{cfg, hpccg_campaign, reference, tiny_campaign};

    /// The trellis report charges the shared cursor pass once: strictly
    /// fewer executed prefix instructions than the per-index reference
    /// re-simulates, with the identical suffix/CARE stages.
    #[test]
    fn trellis_executes_one_shared_prefix_pass() {
        let campaign = tiny_campaign();
        let config = cfg(40);
        let legacy = CampaignReport::from_records(reference(&campaign, &config));
        let trellis = campaign.run(&config);
        assert_eq!(legacy.records, trellis.records);
        assert_eq!(legacy.steps_suffix, trellis.steps_suffix);
        assert_eq!(legacy.steps_care, trellis.steps_care);
        assert!(
            trellis.steps_prefix < legacy.steps_prefix,
            "cursor pass ({}) must undercut per-index prefixes ({})",
            trellis.steps_prefix,
            legacy.steps_prefix
        );
        assert_eq!(
            trellis.simulated_steps,
            trellis.steps_prefix + trellis.steps_suffix + trellis.steps_care
        );
    }

    /// The job keeps what its runs need and no more: for every populated
    /// bracket `b`, the job's states hold one at each of the
    /// [`MAX_COMPARES`] checkpoints from `b`'s end on, and its hop starts
    /// from the job's state at `b`'s start; the states run from the first
    /// populated bracket's start to [`MAX_COMPARES`] checkpoints past the
    /// last one's end. A job with no points keeps none.
    #[test]
    fn job_states_hold_every_checkpoint_a_populated_bracket_compares_at() {
        let campaign = hpccg_campaign();
        let (trail, template) = (&campaign.trail, &campaign.template);
        let brackets = trail.brackets();
        assert!(trail.states(template, state_brackets(&[])).is_empty());
        // Points neither in bracket 0 nor within reach of the trail's end,
        // so that a range one short at either end leaves a state out.
        let config = cfg(60);
        let sampled = (0..60).filter_map(|i| campaign.sample_point(&config, i).map(|s| s.0));
        let inner_brackets = 2..brackets - MAX_COMPARES - 2;
        let inner = |p: &InjectionPoint| inner_brackets.contains(&trail.bracket_of(p));
        let points = plan_points(trail, sampled.filter(inner));
        let populated: std::collections::BTreeSet<_> = points.iter().map(|p| p.bracket).collect();
        assert!(populated.len() > 3, "test premise: populated brackets {populated:?}");
        let states = trail.states(template, state_brackets(&points));
        let job_state_at = |step: u64| states.iter().any(|s| s.steps == step);
        for &b in &populated {
            assert_eq!(trail.state_at(template, &states, b).steps, trail.bracket_step(b));
            for c in b + 1..=b + MAX_COMPARES {
                assert!(job_state_at(trail.bracket_step(c)), "bracket {b}: no state at {c}");
            }
        }
        let (&first, &last) = (populated.first().unwrap(), populated.last().unwrap());
        let kept: Vec<u64> = states.iter().map(|s| s.steps).collect();
        let want: Vec<u64> = (first..=last + MAX_COMPARES).map(|b| trail.bracket_step(b)).collect();
        assert_eq!(kept, want, "the walk kept more or less than the job's range");
    }

    /// A never-cancelled `JobControl` is an observational no-op:
    /// `run_selected` over every index reproduces `run` bit for bit, reports
    /// the classified count through the control block, and leaves the
    /// report's `cancelled` flag clear.
    #[test]
    fn uncancelled_job_control_is_a_no_op() {
        let campaign = tiny_campaign();
        let config = cfg(40);
        let all: Vec<usize> = (0..40).collect();
        let plain = campaign.run(&config);
        let ctl = JobControl::new();
        let job = campaign.run_selected(&config, &all, &NoTelemetry, &ctl, &NoSink);
        assert_eq!(plain, job);
        assert!(!job.cancelled);
        assert_eq!(ctl.classified(), job.total() as u64);
    }

    /// A control cancelled before the run starts yields an empty, flagged
    /// report — no suffix work runs — and the campaign object stays usable
    /// for a fresh, complete run afterwards.
    #[test]
    fn pre_cancelled_job_yields_empty_flagged_report() {
        let campaign = tiny_campaign();
        let config = cfg(40);
        let all: Vec<usize> = (0..40).collect();
        let ctl = JobControl::new();
        ctl.cancel();
        let report = campaign.run_selected(&config, &all, &NoTelemetry, &ctl, &NoSink);
        assert!(report.cancelled, "report not flagged cancelled");
        assert!(report.records.is_empty(), "ran suffixes after cancel");
        assert_eq!(report.total(), 0);
        assert_eq!(ctl.classified(), 0);
        // The cancel is scoped to the control block, not the campaign.
        let fresh = campaign.run(&config);
        assert!(!fresh.cancelled);
        assert_eq!(fresh.total(), fresh.records.len());
    }

    /// Keeps the index of every record a run emits.
    #[derive(Default)]
    struct Kept(std::sync::Mutex<Vec<usize>>);

    impl RecordSink for Kept {
        fn emit(&self, index: usize, _record: &InjectionRecord) {
            self.0.lock().unwrap().push(index);
        }
    }

    /// A watch is handed the classified count at every check, and its
    /// first `false` cancels: at width 1, where the checks run one after
    /// another, the job stops with exactly the records the watch allowed —
    /// those of the earliest firings, each the full run's record at its
    /// index, and reported in index order.
    #[test]
    fn a_watch_that_refuses_cancels_at_the_next_check() {
        let campaign = tiny_campaign();
        let config = cfg(40);
        let all: Vec<usize> = (0..40).collect();
        let allow = |classified: u64| classified < 5;
        let ctl = JobControl::watched(&allow);
        let kept = Kept::default();
        let report = rayon::with_threads(1, || {
            campaign.run_selected(&config, &all, &NoTelemetry, &ctl, &kept)
        });
        assert!(report.cancelled);
        assert_eq!((report.records.len(), ctl.classified()), (5, 5));
        let full = campaign.run(&config).records;
        assert_eq!(full.len(), all.len(), "test premise: every index has a record");
        let mut kept = kept.0.into_inner().unwrap();
        kept.sort_unstable();
        assert_eq!(report.records, kept.iter().map(|&i| full[i].clone()).collect::<Vec<_>>());
    }
}
