//! Campaign orchestration: golden runs, per-injection classification, and
//! the aggregate report that regenerates the paper's Tables 2–4, Figure 7,
//! Figure 9 and the Appendix tables.
//!
//! A campaign runs on the **snapshot trellis**: all `N` injection points
//! are sampled up front and partitioned into `K` disjoint, step-ordered
//! windows along the golden run's checkpoint trail; `K` *cursor* processes
//! then advance through their windows concurrently. A cursor *hops*: the
//! trail brackets every point between two checkpoints, so the cursor
//! replays uninstrumented (on the campaign's engine) to each bracket that
//! holds a point, runs instrumented only from there to the bracket's last
//! firing, and CoW-forks a paused snapshot each time a pending `(I, n)`
//! fires. Workers then run only the suffix (inject → classify → Safeguard
//! on the trapped process itself) from their snapshot, in parallel on the
//! same pool.
//! Campaign-wide simulated instructions are ~`L + Σ suffixes` instead of
//! ~`N·L`, and `K > 1` removes the serial-cursor Amdahl bottleneck (`K = 1`
//! is a single cursor).
//!
//! [`Campaign::run_one`] is the per-index reference: it re-simulates one
//! injection's own prefix from the template, and the trellis records must
//! equal `(0..n).filter_map(|i| campaign.run_one(&cfg, i))` bit for bit
//! (pinned by the unit tests below, `tests/golden.rs` and carefuzz).

use crate::injector::{
    inject, pick_injection_point, FaultModel, InjectedInto, InjectionPoint,
};
use care::{build_process, CompiledApp};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rayon::prelude::*;
use safeguard::{resume_protected, DeclineKind, ProtectedExit, RecoveryIndex, Safeguard};
use simx::{
    advance_to_step, BreakSet, CompiledEngine, EngineKind, ExecutionEngine, InterpEngine,
    ModuleId, Process, Profile, RunExit, TrapKind,
};
use tinyir::FuncId;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use telemetry::{timed, Event, Hooks, NoTelemetry};
use workloads::Workload;

/// Hardware-trap symptom classes of Table 3.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Signal {
    /// Invalid memory reference.
    Segv,
    /// Misaligned access.
    Bus,
    /// Failed assertion / abort.
    Abort,
    /// Anything else (SIGFPE, ...).
    Other,
}

/// Injection outcome classes of Table 2.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Outcome {
    /// No observable effect: outputs bit-identical to the golden run.
    Benign,
    /// The process died on a hardware trap.
    SoftFailure(Signal),
    /// Completed but with corrupted outputs.
    Sdc,
    /// No progress within the instruction budget.
    Hang,
}

impl Outcome {
    /// Static label for event streams (`job` events carry this).
    pub fn name(&self) -> &'static str {
        match self {
            Outcome::Benign => "benign",
            Outcome::Sdc => "sdc",
            Outcome::Hang => "hang",
            Outcome::SoftFailure(Signal::Segv) => "segv",
            Outcome::SoftFailure(Signal::Bus) => "bus",
            Outcome::SoftFailure(Signal::Abort) => "abort",
            Outcome::SoftFailure(Signal::Other) => "signal_other",
        }
    }
}

/// CARE's verdict on one SIGSEGV-producing injection (Figure 7 / 9 data).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct CareResult {
    /// True when the protected run completed with bit-clean outputs.
    pub covered: bool,
    /// Successful Safeguard activations.
    pub recoveries: u64,
    /// Total modelled recovery time.
    pub recovery_ms: f64,
    /// Decline reason kind when not covered.
    pub decline: Option<DeclineKind>,
}

/// Per-stage dynamic-instruction accounting for one injection. The three
/// stages partition the work the injection is *semantically responsible
/// for*; the prefix is attributed to every injection but executed once, by
/// the trellis cursor pass — see [`CampaignReport::steps_prefix`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct StepSplit {
    /// Instructions from process start to the injection point.
    pub prefix: u64,
    /// Instructions from the injection to the unprotected outcome.
    pub suffix: u64,
    /// Instructions of the CARE-protected run, counted from the injection
    /// point: the suffix up to the trap (executed once, by the unprotected
    /// run) plus everything from the first repair on.
    pub care: u64,
}

impl StepSplit {
    /// Total attributed instructions. Saturating: splits can come back
    /// from a persisted record log, where nothing bounds the components'
    /// sum (mirrors `telemetry::Histogram`'s saturating `sum`).
    pub fn total(&self) -> u64 {
        self.prefix.saturating_add(self.suffix).saturating_add(self.care)
    }
}

/// Everything recorded about one injection.
#[derive(Clone, PartialEq, Debug)]
pub struct InjectionRecord {
    /// Where and when the fault was injected.
    pub point: InjectionPoint,
    /// What the injector corrupted.
    pub target: InjectedInto,
    /// Unprotected-outcome classification.
    pub outcome: Outcome,
    /// Manifestation latency in dynamic instructions (soft failures only).
    pub latency: Option<u64>,
    /// Dynamic instructions attributed to this injection (prefix +
    /// unprotected suffix, plus the protected suffix for CARE evaluations).
    pub sim_steps: u64,
    /// The prefix/suffix/CARE breakdown of `sim_steps`.
    pub split: StepSplit,
    /// CARE evaluation (SIGSEGV injections when enabled).
    pub care: Option<CareResult>,
}

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
/// A `JobControl` that is never cancelled is an observational no-op: the
/// records are bit-identical to [`Campaign::run`].
#[derive(Debug, Default)]
pub struct JobControl {
    cancelled: AtomicBool,
    classified: AtomicU64,
}

impl JobControl {
    /// A fresh, uncancelled control block.
    pub fn new() -> JobControl {
        JobControl::default()
    }

    /// Request cancellation; the campaign stops at its next check.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// Has [`cancel`](Self::cancel) been called?
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }

    /// Records produced so far (monotone during a run).
    pub fn classified(&self) -> u64 {
        self.classified.load(Ordering::Relaxed)
    }

    fn note_classified(&self) {
        self.classified.fetch_add(1, Ordering::Relaxed);
    }
}

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
    /// Bound on Safeguard activations per run.
    pub max_recoveries: u64,
    /// Ablation: Safeguard patches the base register first.
    pub patch_base_first: bool,
    /// Ablation: disable the §5.2 address-equality guard.
    pub skip_equality_guard: bool,
    /// Retain every raw [`InjectionRecord`] in the report. Off by default:
    /// large campaigns only need the aggregates, and the records dominate
    /// the report's memory.
    pub keep_records: bool,
    /// Execution backend for the hot suffix/CARE runs (records are
    /// bit-identical on either; `Compiled` is the direct-threaded
    /// translator behind [`simx::ExecutionEngine`]).
    pub engine: EngineKind,
    /// Trellis cursor shard count: the pre-sampled injection points are
    /// split into this many disjoint step-ordered windows, each covered by
    /// its own cursor, concurrently. `None` (default) uses
    /// the pool width; records are bit-identical for every value.
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
            max_recoveries: 64,
            patch_base_first: false,
            skip_equality_guard: false,
            keep_records: false,
            engine: EngineKind::Interp,
            cursor_shards: None,
        }
    }
}

/// A step-indexed snapshot of the golden run's execution-count profile,
/// captured during [`Campaign::prepare`]: `counts` holds the per-static-
/// instruction execution totals of the first `step` dynamic instructions.
/// The trail is what lets a cursor (a) fast-replay to a checkpoint with no
/// instrumentation and (b) rebase its points' `nth` ordinals to breakpoint
/// ordinals counted from that checkpoint.
struct ProfileCheckpoint {
    step: u64,
    counts: Profile,
}

/// One cursor's work in the parallel cursor pass: the distinct injection
/// points it forks at, each with its *bracket* — how many trail checkpoints
/// the point's firing lies strictly past, so bracket `b > 0` starts at
/// `checkpoints[b - 1]` and bracket 0 at program start — in bracket order.
type CursorShard = Vec<(usize, InjectionPoint)>;

/// What one cursor shard produced.
struct ShardResult {
    /// Paused pre-injection snapshots, in firing (step) order.
    snapshots: Vec<(InjectionPoint, Process)>,
    /// Steps this cursor executed: replayed hops + instrumented brackets.
    steps: u64,
}

/// Executions of `point`'s static instruction recorded in `profile`.
fn count_at(profile: &Profile, module: ModuleId, func: FuncId, inst: usize) -> u64 {
    profile
        .get(module.0 as usize)
        .and_then(|fs| fs.get(func.0 as usize))
        .and_then(|is| is.get(inst))
        .copied()
        .unwrap_or(0)
}

/// A prepared campaign: compiled modules + golden data + the shared
/// per-injection machinery (a pristine started process template and the
/// recovery index), both built exactly once.
pub struct Campaign {
    exe: CompiledApp,
    libs: Vec<CompiledApp>,
    outputs: Vec<(String, u64)>,
    /// Golden output snapshots.
    golden_outputs: Vec<Vec<u8>>,
    /// Golden dynamic instruction count.
    pub golden_steps: u64,
    /// Execution-count profile from the golden run.
    pub profile: Profile,
    /// Evenly spaced mid-run profile checkpoints from the golden run: the
    /// brackets a cursor hops between and the shard-boundary candidates of
    /// the parallel cursor pass. Empty for programs shorter than the
    /// checkpoint quantum (one cursor shard, one bracket from program
    /// start).
    checkpoints: Vec<ProfileCheckpoint>,
    /// A started-but-not-run process; every injection clones it (Arc-shared
    /// image, copy-on-write memory) instead of re-loading the modules.
    template: Process,
    /// The compiled engine over `template`'s image, resolved by the first
    /// compiled run: the image is immutable, and resolving content-keys
    /// every module's full instruction stream.
    compiled: OnceLock<CompiledEngine>,
    /// Recovery artefacts, encoded and keyed once; shared read-only across
    /// the campaign's workers.
    recovery: Arc<RecoveryIndex>,
}

/// The longest golden run [`Campaign::prepare`] accepts, in dynamic
/// instructions (1 700× the longest bundled one, CoMD at `-O0`; ≈ 11 s of
/// profiled loop). A program still running there fails preparation like a
/// trapping one: nothing downstream can poll a cancel inside the golden run,
/// so this is what lets a server discard a job that would never finish.
pub const MAX_GOLDEN_STEPS: u64 = 1 << 30;

impl Campaign {
    /// Compile-independent preparation: run the workload once fault-free
    /// (with profiling), snapshot its outputs, and set up the shared
    /// injection machinery. Panics when the golden run traps or is still
    /// running after [`MAX_GOLDEN_STEPS`].
    pub fn prepare(workload: &Workload, exe: CompiledApp, libs: Vec<CompiledApp>) -> Campaign {
        Campaign::prepare_bounded(workload, exe, libs, MAX_GOLDEN_STEPS)
    }

    fn prepare_bounded(
        workload: &Workload,
        exe: CompiledApp,
        libs: Vec<CompiledApp>,
        max_golden_steps: u64,
    ) -> Campaign {
        let mut template = build_process(&exe, &libs);
        template.start(workload.entry, &workload.args);
        let mut p = template.clone();
        p.enable_profile();
        // Drive the golden run in fixed-step slices, snapshotting the
        // profile at each pause: the checkpoint trail the parallel cursor
        // pass cuts its shard boundaries from. The trail stays bounded for
        // any program length by halving (keep every second checkpoint,
        // double the quantum) whenever it fills.
        const MAX_CHECKPOINTS: usize = 96;
        let mut checkpoints: Vec<ProfileCheckpoint> = Vec::new();
        let mut quantum: u64 = 1 << 10;
        let exit = loop {
            p.fuel = quantum.min(max_golden_steps - p.steps);
            match p.run() {
                RunExit::Trapped(t) if t.kind == TrapKind::OutOfFuel => {
                    assert!(
                        p.steps < max_golden_steps,
                        "golden run of {} exceeds {max_golden_steps} steps",
                        workload.name
                    );
                    // The pause is bookkeeping, not an observed trap.
                    p.trap_count -= 1;
                    checkpoints.push(ProfileCheckpoint {
                        step: p.steps,
                        counts: p.profile.clone().expect("profile enabled"),
                    });
                    if checkpoints.len() == MAX_CHECKPOINTS {
                        let mut nth = 0;
                        checkpoints.retain(|_| {
                            nth += 1;
                            nth % 2 == 0
                        });
                        quantum *= 2;
                    }
                }
                other => break other,
            }
        };
        match exit {
            RunExit::Done(_) => {}
            other => panic!("golden run of {} failed: {other:?}", workload.name),
        }
        let golden_outputs = workload
            .outputs
            .iter()
            .map(|(name, len)| {
                p.snapshot_global(name, *len)
                    .unwrap_or_else(|| panic!("output global {name} missing"))
            })
            .collect();
        let mut recovery = RecoveryIndex::new();
        recovery.add(ModuleId(0), &exe.armor);
        for (i, lib) in libs.iter().enumerate() {
            recovery.add(ModuleId(i as u32 + 1), &lib.armor);
        }
        Campaign {
            exe,
            libs,
            outputs: workload.outputs.clone(),
            golden_outputs,
            golden_steps: p.steps,
            profile: p.profile.take().expect("profile enabled"),
            checkpoints,
            template,
            compiled: OnceLock::new(),
            recovery: Arc::new(recovery),
        }
    }

    fn outputs_clean(&self, p: &Process) -> bool {
        self.outputs
            .iter()
            .zip(&self.golden_outputs)
            .all(|((name, len), golden)| {
                p.snapshot_global(name, *len)
                    .map(|bytes| &bytes == golden)
                    .unwrap_or(false)
            })
    }

    /// The campaign-wide instruction budget: a run (prefix *and* suffix
    /// together) exceeding it is classified as a hang.
    fn fuel_budget(&self, cfg: &CampaignConfig) -> u64 {
        self.golden_steps.saturating_mul(cfg.hang_factor).max(1_000_000)
    }

    /// Sample injection `index`'s `(I, n)` point, deterministic in
    /// `(cfg.seed, index)`. Returns the point plus the RNG in the exact
    /// post-sampling state the bit-flip draws continue from, so the trellis'
    /// pre-sampling and [`Campaign::run_one`] yield identical records.
    fn sample_point(
        &self,
        cfg: &CampaignConfig,
        index: usize,
    ) -> Option<(InjectionPoint, SmallRng)> {
        let modules: Option<Vec<ModuleId>> = cfg.app_only.then(|| vec![ModuleId(0)]);
        let mut rng = SmallRng::seed_from_u64(cfg.seed ^ (index as u64).wrapping_mul(0x9e37));
        // The paper's fault model corrupts *destination operands* (a
        // register or memory cell); control transfers have neither, so they
        // are not injection targets.
        let mods: Vec<&simx::MachineModule> = std::iter::once(self.exe.machine.as_ref())
            .chain(self.libs.iter().map(|l| l.machine.as_ref()))
            .collect();
        let eligible = |m: usize, f: usize, i: usize| -> bool {
            mods.get(m)
                .and_then(|mm| mm.funcs.get(f))
                .and_then(|mf| mf.instrs.get(i))
                .map(|inst| !inst.is_control())
                .unwrap_or(false)
        };
        let point =
            pick_injection_point(&self.profile, &mut rng, modules.as_deref(), &eligible)?;
        Some((point, rng))
    }

    /// Inject into a process paused right after `point`'s `nth` execution
    /// and classify the fallout. `p` must carry the remaining fuel of the
    /// campaign budget (a fork inherits it; a fresh full budget would let
    /// late injection points overshoot the hang bound by nearly 2x) and the
    /// RNG must be in the post-[`Campaign::sample_point`] state.
    ///
    /// With hooks enabled this is also the per-*job* instrumentation site:
    /// a wall-clock span per job
    /// (`job.wall_ns`, accumulated into the `worker.busy_ns` counter —
    /// whose per-shard subtotals are the per-worker utilization view),
    /// simulated-step spans for the suffix and CARE stages, TLB counter
    /// deltas of the processes this job ran, and one `job` event whose
    /// `t_ns` stamp traces the queue drain. Hooks never influence the
    /// record: a telemetry-enabled campaign is bit-identical.
    fn run_suffix(
        &self,
        cfg: &CampaignConfig,
        point: InjectionPoint,
        rng: &SmallRng,
        mut p: Process,
        engine: &dyn ExecutionEngine,
        hooks: &dyn Hooks,
    ) -> Option<InjectionRecord> {
        let t0 = hooks.enabled().then(std::time::Instant::now);
        let base_stats = p.mem.stats;
        let prefix_steps = p.steps;
        let mut flip_rng = rng.clone();
        let target = inject(&mut p, point, cfg.model, &mut flip_rng);
        if target == InjectedInto::Skipped {
            if hooks.enabled() {
                hooks.add("campaign.skipped", 1);
            }
            return None;
        }
        let exit = engine.run(&mut p);
        let (outcome, latency) = match exit {
            RunExit::Done(_) => {
                if self.outputs_clean(&p) {
                    (Outcome::Benign, None)
                } else {
                    (Outcome::Sdc, None)
                }
            }
            RunExit::Trapped(t) => match t.kind {
                TrapKind::OutOfFuel => (Outcome::Hang, None),
                kind => (
                    Outcome::SoftFailure(signal_of(kind)),
                    Some(p.steps - prefix_steps),
                ),
            },
            RunExit::BreakHit => unreachable!("breakpoint already consumed"),
        };
        let suffix_steps = p.steps - prefix_steps;

        // --- protected run for SIGSEGV injections (§5 methodology). The
        // unprotected run is frozen on its trap with pre-fault registers,
        // exactly where a protected run of the same flip first reaches
        // Safeguard: recovery resumes from this process and this exit ------
        let mut care_steps = 0u64;
        let care = (cfg.evaluate_care && outcome == Outcome::SoftFailure(Signal::Segv)).then(|| {
            let mut sg = Safeguard::with_index(Arc::clone(&self.recovery));
            sg.patch_base_first = cfg.patch_base_first;
            sg.skip_equality_guard = cfg.skip_equality_guard;
            let end = resume_protected(engine, &mut p, exit, &mut sg, cfg.max_recoveries, hooks);
            let (recoveries, recovery_ms, decline) = match end {
                ProtectedExit::Completed { recoveries, recovery_ms, .. } => {
                    (recoveries, recovery_ms, None)
                }
                ProtectedExit::Crashed { reason, recoveries, .. } => {
                    (recoveries, 0.0, Some(reason.kind()))
                }
                ProtectedExit::Hung => (0, 0.0, Some(DeclineKind::Hang)),
            };
            // Covered: completed, after at least one repair, bit-clean.
            let covered = decline.is_none() && recoveries > 0 && self.outputs_clean(&p);
            // Attributed from the injection point, as a protected run of
            // its own would count it (the shared suffix included).
            care_steps = p.steps - prefix_steps;
            CareResult { covered, recoveries, recovery_ms, decline }
        });
        let tlb = p.mem.stats.since(&base_stats);

        if hooks.enabled() {
            let wall_ns = t0.expect("enabled").elapsed().as_nanos() as u64;
            hooks.add("worker.busy_ns", wall_ns);
            hooks.record("job.wall_ns", wall_ns);
            hooks.record("job.suffix_steps", suffix_steps);
            if care.is_some() {
                hooks.record("job.care_steps", care_steps);
            }
            hooks.add("tlb.loads", tlb.loads);
            hooks.add("tlb.stores", tlb.stores);
            hooks.add("tlb.read_misses", tlb.read_tlb_misses);
            hooks.add("tlb.write_misses", tlb.write_tlb_misses);
            hooks.emit(
                Event::new("job")
                    .field("outcome", outcome.name())
                    .field("func", point.func.0 as u64)
                    .field("inst", point.inst)
                    .field("nth", point.nth)
                    .field("suffix_steps", suffix_steps)
                    .field("care_steps", care_steps)
                    .field("wall_ns", wall_ns),
            );
        }

        let split = StepSplit { prefix: prefix_steps, suffix: suffix_steps, care: care_steps };
        Some(InjectionRecord {
            point,
            target,
            outcome,
            latency,
            sim_steps: split.total(),
            split,
            care,
        })
    }

    /// Run one injection end-to-end, re-simulating its own prefix from the
    /// template (deterministic in `(cfg.seed, index)`). This is the
    /// per-index reference the trellis is checked against.
    pub fn run_one(&self, cfg: &CampaignConfig, index: usize) -> Option<InjectionRecord> {
        let compiled = self.compiled_engine(cfg);
        let (point, rng) = self.sample_point(cfg, index)?;
        let mut p = self.template.clone();
        p.fuel = self.fuel_budget(cfg);
        p.break_at = Some((point.module, point.func, point.inst, point.nth));
        match p.run() {
            RunExit::BreakHit => {}
            // The breakpoint is derived from the profile, so this is
            // unreachable for deterministic programs; be safe anyway.
            _ => return None,
        }
        self.run_suffix(cfg, point, &rng, p, engine_ref(compiled), &NoTelemetry)
    }

    /// The configured compiled engine for this campaign's image (`None` →
    /// interpreter), resolved once per campaign. Translation hits the
    /// process-wide cache, so campaigns over the same module share it.
    fn compiled_engine(&self, cfg: &CampaignConfig) -> Option<&CompiledEngine> {
        (cfg.engine == EngineKind::Compiled).then(|| {
            self.compiled.get_or_init(|| CompiledEngine::for_image(&self.template.image))
        })
    }

    /// The snapshot trellis: sample all points up front, advance the
    /// cursors through the program, CoW-fork a snapshot at each distinct
    /// firing point, then run only the suffixes in parallel.
    fn run_trellis(
        &self,
        cfg: &CampaignConfig,
        indices: &[usize],
        engine: &dyn ExecutionEngine,
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

        // Phase 2 — shard planning: partition the *distinct* points
        // (injection indexes that sampled the same `(I, n)` share one
        // trellis snapshot) into disjoint step-ordered windows along the
        // golden checkpoint trail.
        let shards = self.plan_cursor_shards(cfg, &samples);
        let cursor_shards = shards.iter().filter(|s| !s.is_empty()).count();

        // Phase 3 — the cursor pass, one traversal *per shard*, run
        // concurrently on the pool. Each cursor hops along the brackets
        // that hold its points (see `run_cursor_shard`) and forks a paused
        // snapshot at every firing point, under the campaign fuel budget.
        // Deterministic execution makes every cursor's timeline *the*
        // golden timeline, so the snapshot forked for a point is
        // bit-identical for every shard count. A shard's cursor is dropped
        // as soon as its last pending point fires (the window tail past it
        // is never re-simulated), and empty shards never run.
        let shard_results: Vec<ShardResult> = timed(hooks, "trellis.cursor_ns", || {
            let work: Vec<(usize, CursorShard)> =
                shards.into_iter().enumerate().filter(|(_, s)| !s.is_empty()).collect();
            work.into_par_iter()
                .map(|(k, shard)| self.run_cursor_shard(cfg, k, &shard, engine, hooks, ctl))
                .collect()
        });
        let mut snapshots: Vec<Process> = Vec::new();
        let mut snapshot_of: HashMap<InjectionPoint, usize> = HashMap::new();
        let mut cursor_steps = 0u64;
        for res in shard_results {
            cursor_steps += res.steps;
            for (point, snap) in res.snapshots {
                snapshot_of.insert(point, snapshots.len());
                snapshots.push(snap);
            }
        }

        // Phase 4 — suffix scheduling: rayon-parallel over injection
        // indexes (order-preserving, so records match per-index `run_one`
        // calls element for element); each worker CoW-forks its
        // snapshot and runs inject → classify → CARE. The *last* consumer
        // of each snapshot takes ownership instead of cloning it — an
        // injection point sampled once (the common case) never pays a
        // fork at all.
        let trellis_snapshots = snapshots.len();
        let mut uses: Vec<usize> = vec![0; snapshots.len()];
        for (_, point, _) in &samples {
            if let Some(&slot) = snapshot_of.get(point) {
                uses[slot] += 1;
            }
        }
        let mut slots: Vec<Option<Process>> = snapshots.into_iter().map(Some).collect();
        let jobs: Vec<(usize, InjectionPoint, SmallRng, Option<Process>)> = samples
            .into_iter()
            .map(|(index, point, rng)| {
                let p = snapshot_of.get(&point).and_then(|&slot| {
                    uses[slot] -= 1;
                    if uses[slot] == 0 {
                        slots[slot].take()
                    } else {
                        slots[slot].clone()
                    }
                });
                (index, point, rng, p)
            })
            .collect();
        let records: Vec<InjectionRecord> = timed(hooks, "trellis.suffixes_ns", || {
            jobs.into_par_iter()
                .filter_map(|(index, point, rng, p)| {
                    if ctl.is_cancelled() {
                        return None;
                    }
                    let rec = self.run_suffix(cfg, point, &rng, p?, engine, hooks);
                    if let Some(r) = &rec {
                        sink.emit(index, r);
                        ctl.note_classified();
                    }
                    rec
                })
                .collect()
        });

        let mut report = CampaignReport::from_records(records);
        // The attributed per-record prefixes were simulated once, by the
        // cursor shards: report what actually executed (replayed hops +
        // instrumented brackets, summed over the shards that had points).
        report.trellis_snapshots = trellis_snapshots;
        report.cursor_shards = cursor_shards;
        report.steps_prefix = cursor_steps;
        report.simulated_steps = cursor_steps
            .saturating_add(report.steps_suffix)
            .saturating_add(report.steps_care);
        if hooks.enabled() {
            hooks.add("trellis.snapshots", trellis_snapshots as u64);
            hooks.add("trellis.cursor_steps", cursor_steps);
            hooks.add("trellis.shards", cursor_shards as u64);
        }
        report
    }

    /// The bracket `point` fires in: the number of trail checkpoints its
    /// firing lies strictly past. The firing is past checkpoint `c` iff
    /// `c.counts[point] < nth`, and the counts only grow along the trail.
    fn bracket_of(&self, point: &InjectionPoint) -> usize {
        self.checkpoints.partition_point(|c| {
            count_at(&c.counts, point.module, point.func, point.inst) < point.nth
        })
    }

    /// Where bracket `bracket` starts; `None` is program start (step 0,
    /// every count zero).
    fn bracket_start(&self, bracket: usize) -> Option<&ProfileCheckpoint> {
        bracket.checked_sub(1).map(|ci| &self.checkpoints[ci])
    }

    /// Split the sampled points into disjoint, step-ordered cursor shards.
    ///
    /// Shard `k` covers the golden-run window `(b_k, b_{k+1}]` between two
    /// checkpoint boundaries (shard 0 starts at step 0) — a contiguous
    /// range of brackets — and a point belongs to the shard its bracket
    /// ([`bracket_of`](Self::bracket_of)) falls in. Boundaries are cut from
    /// the checkpoints nearest the ideal `golden_steps / K` splits, so
    /// short programs (no checkpoints) or `K = 1` yield a single
    /// full-range shard.
    fn plan_cursor_shards(
        &self,
        cfg: &CampaignConfig,
        samples: &[(usize, InjectionPoint, SmallRng)],
    ) -> Vec<CursorShard> {
        let k = cfg.cursor_shards.unwrap_or_else(rayon::current_num_threads).max(1);
        // First bracket of each shard, strictly increasing.
        let mut bounds = vec![0usize];
        for j in 1..k as u64 {
            let ideal = (self.golden_steps / k as u64).saturating_mul(j);
            let bracket = self.checkpoints.partition_point(|c| c.step <= ideal);
            if bracket > *bounds.last().expect("shard 0") {
                bounds.push(bracket);
            }
        }
        let mut shards: Vec<CursorShard> = vec![Vec::new(); bounds.len()];
        let mut seen: std::collections::HashSet<InjectionPoint> = std::collections::HashSet::new();
        for (_, point, _) in samples {
            if !seen.insert(*point) {
                continue;
            }
            // Sampling draws `nth` from the final profile, so every point
            // fires within the golden run, inside its bracket.
            let bracket = self.bracket_of(point);
            let home = bounds.partition_point(|&first| first <= bracket) - 1;
            shards[home].push((bracket, *point));
        }
        for shard in &mut shards {
            shard.sort_by_key(|&(bracket, _)| bracket);
        }
        shards
    }

    /// Walk one cursor shard by hopping between the brackets that hold its
    /// points: replay to the bracket's checkpoint *uninstrumented* on the
    /// campaign's engine (translated ops on a compiled campaign), arm a
    /// [`BreakSet`] holding only that bracket's points, run instrumented
    /// until they have fired — forking a paused snapshot at each — then
    /// disarm and hop on. The instrumented stretches are at most one
    /// checkpoint interval per visited bracket; everything between is
    /// replay. A program too short for checkpoints is the one-bracket case.
    /// Returns the snapshots in firing order plus the steps this cursor
    /// actually executed, which end at its last firing.
    fn run_cursor_shard(
        &self,
        cfg: &CampaignConfig,
        shard_idx: usize,
        shard: &[(usize, InjectionPoint)],
        engine: &dyn ExecutionEngine,
        hooks: &dyn Hooks,
        ctl: &JobControl,
    ) -> ShardResult {
        let t0 = hooks.enabled().then(std::time::Instant::now);
        let mut cursor = self.template.clone();
        cursor.fuel = self.fuel_budget(cfg);
        let mut snapshots: Vec<(InjectionPoint, Process)> = Vec::new();
        let mut replay_steps = 0u64;
        'hops: for points in shard.chunk_by(|a, b| a.0 == b.0) {
            let start = self.bracket_start(points[0].0);
            let hop_from = cursor.steps;
            if ctl.is_cancelled()
                || !advance_to_step(engine, &mut cursor, start.map_or(0, |c| c.step))
            {
                // Cancelled — or a failed replay, unreachable for a
                // prepared campaign (the golden run passed and the budget
                // covers it): degrade like an unfired breakpoint, the
                // remaining indexes yield no record.
                break;
            }
            replay_steps += cursor.steps - hop_from;
            // Breakpoint ordinals count from arming: rebase the absolute
            // `nth` by the executions already behind the checkpoint.
            let base = |module: ModuleId, func: FuncId, inst: usize| {
                start.map_or(0, |c| count_at(&c.counts, module, func, inst))
            };
            let mut breaks = BreakSet::new();
            for (_, p) in points {
                breaks.add(p.module, p.func, p.inst, p.nth - base(p.module, p.func, p.inst));
            }
            while !breaks.is_empty() {
                if ctl.is_cancelled() {
                    break 'hops;
                }
                cursor.multi_break = Some(breaks);
                let exit = cursor.run();
                // Disarmed again: the fork below is a plain paused process
                // and the next hop replays uninstrumented.
                breaks = cursor.multi_break.take().expect("armed above");
                let (RunExit::BreakHit, Some((module, func, inst, rel))) =
                    (exit, breaks.take_fired())
                else {
                    // Completion (or a trap) with points still pending:
                    // those indexes yield no record, exactly like a
                    // `run_one` whose breakpoint never fired.
                    break 'hops;
                };
                let nth = rel + base(module, func, inst);
                snapshots.push((InjectionPoint { module, func, inst, nth }, cursor.clone()));
                if hooks.enabled() {
                    hooks.emit(
                        Event::new("trellis.fork")
                            .field("shard", shard_idx as u64)
                            .field("prefix_steps", cursor.steps),
                    );
                }
            }
        }
        if hooks.enabled() {
            hooks.add("cursor.replay_steps", replay_steps);
            hooks.add("cursor.window_steps", cursor.steps - replay_steps);
            hooks.record(
                "trellis.shard_ns",
                t0.expect("enabled").elapsed().as_nanos() as u64,
            );
            hooks.emit(
                Event::new("trellis.shard")
                    .field("shard", shard_idx as u64)
                    .field("start_step", self.bracket_start(shard[0].0).map_or(0, |c| c.step))
                    .field("window_steps", cursor.steps - replay_steps)
                    .field("snapshots", snapshots.len() as u64),
            );
        }
        ShardResult { snapshots, steps: cursor.steps }
    }

    /// Run the full campaign.
    pub fn run(&self, cfg: &CampaignConfig) -> CampaignReport {
        self.run_with_hooks(cfg, &NoTelemetry)
    }

    /// [`run`](Self::run) with telemetry hooks. The records and aggregates
    /// are bit-identical to the hook-free run (hooks only observe); what the
    /// hooks gain is the per-phase trellis timeline, per-job spans and
    /// queue-drain events, Safeguard's recovery-phase distributions, the
    /// campaign's TLB hit counters, instruction-mix counters derived from
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
    /// samples only the subset's points and plans its cursor shards from
    /// those, so a residual run also *executes* only the prefix windows it
    /// needs.
    ///
    /// `ctl` is polled between cursor-shard firings and before each suffix
    /// job; once [`JobControl::cancel`] is observed, no further suffix work
    /// starts and the report comes back partial with
    /// [`CampaignReport::cancelled`] set. `indices` should be strictly
    /// increasing (records come back in that order, matching a full run's
    /// element order) and each `< cfg.injections`. Every produced record is
    /// also pushed through `sink` with its index, from pool workers, as
    /// soon as it is classified — see [`RecordSink`].
    pub fn run_selected(
        &self,
        cfg: &CampaignConfig,
        indices: &[usize],
        hooks: &dyn Hooks,
        ctl: &JobControl,
        sink: &dyn RecordSink,
    ) -> CampaignReport {
        let cache = simx::TranslationCache::global();
        let (h0, m0) = (cache.hits(), cache.misses());
        let compiled = self.compiled_engine(cfg);
        if let (true, Some(eng)) = (hooks.enabled(), compiled) {
            hooks.add("engine.cache_hits", cache.hits().saturating_sub(h0));
            hooks.add("engine.cache_misses", cache.misses().saturating_sub(m0));
            let st = eng.stats();
            hooks.add("engine.blocks", st.blocks);
            hooks.add("engine.ops", st.ops);
            hooks.add("engine.fused_cmp_br", st.fused_cmp_br);
            hooks.add("engine.fused_load_bin", st.fused_load_bin);
            hooks.add("engine.fused_lea_load", st.fused_lea_load);
            hooks.add("engine.fused_glo_load", st.fused_glo_load);
            hooks.add("engine.fused_mov_mov", st.fused_mov_mov);
        }
        let engine = engine_ref(compiled);
        let pool0 = hooks.enabled().then(rayon::pool_stats);
        let mut report = self.run_trellis(cfg, indices, engine, hooks, ctl, sink);
        report.cancelled = ctl.is_cancelled();
        if let Some(p0) = pool0 {
            // Work-stealing pool activity attributable to this campaign
            // (the pool is process-wide, so these are deltas).
            let p1 = rayon::pool_stats();
            hooks.add("pool.batches", p1.batches.saturating_sub(p0.batches));
            hooks.add("pool.chunks", p1.chunks.saturating_sub(p0.chunks));
            hooks.add("pool.steals", p1.steals.saturating_sub(p0.steals));
            hooks.add("pool.workers", p1.workers as u64);
        }
        if hooks.enabled() {
            hooks.add("campaign.injections", indices.len() as u64);
            hooks.add("campaign.classified", report.total() as u64);
            hooks.add("steps.prefix", report.steps_prefix);
            hooks.add("steps.suffix", report.steps_suffix);
            hooks.add("steps.care", report.steps_care);
            self.record_instruction_mix(hooks);
        }
        if !cfg.keep_records {
            report.records = Vec::new();
        }
        report
    }

    /// Derive the golden run's instruction-mix counters from the execution
    /// profile — `mix.<mnemonic>` weighted by dynamic execution count. Done
    /// post-hoc against the already-collected [`Profile`], so the simulation
    /// loops are never instrumented for it.
    fn record_instruction_mix(&self, hooks: &dyn Hooks) {
        let mods: Vec<&simx::MachineModule> = std::iter::once(self.exe.machine.as_ref())
            .chain(self.libs.iter().map(|l| l.machine.as_ref()))
            .collect();
        for (m, funcs) in self.profile.iter().enumerate() {
            for (f, counts) in funcs.iter().enumerate() {
                for (i, &n) in counts.iter().enumerate() {
                    if n == 0 {
                        continue;
                    }
                    let Some(inst) =
                        mods.get(m).and_then(|mm| mm.funcs.get(f)).and_then(|mf| mf.instrs.get(i))
                    else {
                        continue;
                    };
                    hooks.add(mix_counter(inst.kind_name()), n);
                }
            }
        }
    }
}

/// View an optional compiled engine as the trait object the campaign
/// threads through (`None` → the interpreter).
fn engine_ref(compiled: Option<&CompiledEngine>) -> &dyn ExecutionEngine {
    match compiled {
        Some(c) => c,
        None => &InterpEngine,
    }
}

/// Static `mix.*` counter name for an [`MInst::kind_name`](simx::MInst)
/// mnemonic (hook names are `&'static str`; no formatting at record time).
fn mix_counter(kind: &'static str) -> &'static str {
    match kind {
        "mov" => "mix.mov",
        "store" => "mix.store",
        "lea" => "mix.lea",
        "bin" => "mix.bin",
        "icmp" => "mix.icmp",
        "fcmp" => "mix.fcmp",
        "cast" => "mix.cast",
        "select" => "mix.select",
        "jmp" => "mix.jmp",
        "jnz" => "mix.jnz",
        "getarg" => "mix.getarg",
        "call" => "mix.call",
        "callintr" => "mix.callintr",
        "ret" => "mix.ret",
        _ => "mix.other",
    }
}

fn signal_of(kind: TrapKind) -> Signal {
    match kind {
        TrapKind::Segv(_) => Signal::Segv,
        TrapKind::Bus(_) => Signal::Bus,
        TrapKind::Abort => Signal::Abort,
        TrapKind::Fpe => Signal::Other,
        TrapKind::OutOfFuel => Signal::Other,
    }
}

/// Aggregated campaign results — the raw material for Tables 2, 3, 4, 10,
/// 11 and Figures 7, 9, 12. `PartialEq` so the campaign server's wire
/// round-trip can be asserted bit-identical in one comparison.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CampaignReport {
    /// Table 2 row.
    pub benign: usize,
    /// Table 2 row.
    pub soft_failure: usize,
    /// Table 2 row.
    pub sdc: usize,
    /// Table 2 row.
    pub hang: usize,
    /// Table 3 row: `[SIGSEGV, SIGBUS, SIGABRT, Other]`.
    pub signals: [usize; 4],
    /// Table 4 row: latency buckets `≤10, 11–50, 51–400, >400`.
    pub latency_buckets: [usize; 4],
    /// Figure 7: SIGSEGV injections evaluated under CARE.
    pub care_evaluated: usize,
    /// Figure 7: of those, recovered with clean output.
    pub care_covered: usize,
    /// Runs that completed after repair but with corrupted output: the
    /// injected fault hit a value used both as an address (repaired
    /// exactly) and as data (corrupted before CARE was ever involved).
    /// These count as *not covered*; they are not repair-introduced SDCs.
    pub care_survived_with_sdc: usize,
    /// Figure 9: modelled recovery times (ms) of covered runs.
    pub recovery_times_ms: Vec<f64>,
    /// Safeguard activations across covered runs.
    pub total_recoveries: u64,
    /// Decline-reason histogram of uncovered runs.
    pub declines: std::collections::HashMap<DeclineKind, usize>,
    /// Total dynamic instructions of the campaign (the denominator of
    /// simulated-instructions/sec throughput): the sum of `steps_prefix`,
    /// `steps_suffix` and `steps_care` — the prefix as executed, the other
    /// two as attributed (a CARE evaluation's steps include the suffix up to
    /// its trap, which ran once, for the unprotected classification). A
    /// report built by [`from_records`](Self::from_records) alone (a store
    /// merge) is attributed throughout: every step field is the sum of the
    /// per-record splits.
    pub simulated_steps: u64,
    /// Prefix-stage instructions actually executed by the cursor pass
    /// (replayed hops + instrumented brackets, summed over the shards).
    pub steps_prefix: u64,
    /// Unprotected-suffix instructions.
    pub steps_suffix: u64,
    /// CARE-protected run instructions, each counted from its injection
    /// point ([`StepSplit::care`]).
    pub steps_care: u64,
    /// Distinct trellis snapshots forked by the cursor pass; strictly less
    /// than the classified total whenever injection indexes sampled
    /// duplicate points.
    pub trellis_snapshots: usize,
    /// Cursor shards that actually ran (had points) in the cursor pass.
    pub cursor_shards: usize,
    /// True when the run's [`JobControl`] was cancelled before completion:
    /// the aggregates and records cover only the injections classified
    /// before the cancel was observed.
    pub cancelled: bool,
    /// Raw records; populated only when [`CampaignConfig::keep_records`]
    /// is set.
    pub records: Vec<InjectionRecord>,
}

impl CampaignReport {
    /// Build the aggregate view from raw records.
    pub fn from_records(records: Vec<InjectionRecord>) -> CampaignReport {
        let mut r = CampaignReport::default();
        for rec in &records {
            match rec.outcome {
                Outcome::Benign => r.benign += 1,
                Outcome::Sdc => r.sdc += 1,
                Outcome::Hang => r.hang += 1,
                Outcome::SoftFailure(sig) => {
                    r.soft_failure += 1;
                    let si = match sig {
                        Signal::Segv => 0,
                        Signal::Bus => 1,
                        Signal::Abort => 2,
                        Signal::Other => 3,
                    };
                    r.signals[si] += 1;
                    if let Some(lat) = rec.latency {
                        let bi = match lat {
                            0..=10 => 0,
                            11..=50 => 1,
                            51..=400 => 2,
                            _ => 3,
                        };
                        r.latency_buckets[bi] += 1;
                    }
                }
            }
            // Saturating, not wrapping: records merged out of a persisted
            // store log are not bounded by one run's fuel budget, so the
            // step sums can exceed u64 in aggregate (mirrors the
            // `Histogram::sum` saturation pinned in crates/telemetry).
            r.simulated_steps = r.simulated_steps.saturating_add(rec.sim_steps);
            r.steps_prefix = r.steps_prefix.saturating_add(rec.split.prefix);
            r.steps_suffix = r.steps_suffix.saturating_add(rec.split.suffix);
            r.steps_care = r.steps_care.saturating_add(rec.split.care);
            if let Some(c) = &rec.care {
                r.care_evaluated += 1;
                if c.covered {
                    r.care_covered += 1;
                    r.recovery_times_ms.push(c.recovery_ms);
                    r.total_recoveries = r.total_recoveries.saturating_add(c.recoveries);
                } else if let Some(d) = c.decline {
                    *r.declines.entry(d).or_default() += 1;
                } else if c.recoveries > 0 {
                    r.care_survived_with_sdc += 1;
                }
            }
        }
        r.records = records;
        r
    }

    /// Total classified injections.
    pub fn total(&self) -> usize {
        self.benign + self.soft_failure + self.sdc + self.hang
    }

    /// Figure 7's coverage metric.
    pub fn coverage(&self) -> f64 {
        if self.care_evaluated == 0 {
            0.0
        } else {
            self.care_covered as f64 / self.care_evaluated as f64
        }
    }

    /// Mean modelled recovery time of covered runs (Figure 9).
    pub fn mean_recovery_ms(&self) -> f64 {
        if self.recovery_times_ms.is_empty() {
            0.0
        } else {
            self.recovery_times_ms.iter().sum::<f64>() / self.recovery_times_ms.len() as f64
        }
    }

    /// Fraction of soft failures manifesting within `n` dynamic
    /// instructions (Table 4 analysis).
    pub fn latency_fraction_within(&self, n: u64) -> f64 {
        let total: usize = self.latency_buckets.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let within: usize = match n {
            0..=10 => self.latency_buckets[0],
            11..=50 => self.latency_buckets[..2].iter().sum(),
            51..=400 => self.latency_buckets[..3].iter().sum(),
            _ => total,
        };
        within as f64 / total as f64
    }
}

#[cfg(test)]
mod trellis_tests {
    use super::*;
    use opt::OptLevel;

    /// `main(n)` runs `n` loop iterations.
    fn tiny_workload(n: u64) -> Workload {
        use tinyir::builder::ModuleBuilder;
        use tinyir::{Ty, Value};
        let mut mb = ModuleBuilder::new("tiny", "tiny.c");
        let out = mb.global_zeroed("out", Ty::I64, 8);
        mb.define("main", vec![Ty::I64], Some(Ty::I64), |fb| {
            let acc = fb.alloca(Ty::I64, 1);
            fb.store(Value::i64(1), acc);
            fb.for_loop(Value::i64(0), fb.arg(0), |fb, i| {
                let a = fb.load(acc, Ty::I64);
                let s = fb.add(a, i, Ty::I64);
                fb.store(s, acc);
                let slot = fb.srem(i, Value::i64(8), Ty::I64);
                fb.store_elem(s, fb.global(out), slot, Ty::I64);
            });
            let r = fb.load(acc, Ty::I64);
            fb.ret(Some(r));
        });
        Workload::new("tiny", mb.finish(), vec![n], vec![("out", 64)])
    }

    fn tiny_campaign() -> Campaign {
        // A deliberately short program: with ~tens of eligible dynamic
        // instructions and many injections, the pigeonhole principle
        // guarantees duplicate `(I, n)` samples.
        let w = tiny_workload(6);
        let app = care::compile(&w.module, OptLevel::O1);
        Campaign::prepare(&w, app, vec![])
    }

    /// A golden run that would never end fails preparation at the bound
    /// (like a trapping one) instead of spinning where no cancel is polled.
    #[test]
    #[should_panic(expected = "golden run of tiny exceeds 65536 steps")]
    fn golden_run_still_going_at_the_bound_fails_preparation() {
        let w = tiny_workload(i64::MAX as u64);
        let app = care::compile(&w.module, OptLevel::O1);
        Campaign::prepare_bounded(&w, app, vec![], 1 << 16);
    }

    /// HPCCG at the golden tests' size: long enough for a checkpoint trail.
    fn hpccg_campaign() -> Campaign {
        let w = workloads::hpccg::build(3, 2);
        let app = care::compile(&w.module, OptLevel::O1);
        let campaign = Campaign::prepare(&w, app, vec![]);
        assert!(
            campaign.checkpoints.len() >= 8,
            "test premise: hpccg(3,2) must leave a checkpoint trail"
        );
        campaign
    }

    fn cfg(injections: usize) -> CampaignConfig {
        CampaignConfig {
            injections,
            evaluate_care: true,
            app_only: true,
            keep_records: true,
            ..CampaignConfig::default()
        }
    }

    /// The per-index reference: every injection re-simulates its own prefix.
    fn reference(campaign: &Campaign, cfg: &CampaignConfig) -> Vec<InjectionRecord> {
        (0..cfg.injections).filter_map(|i| campaign.run_one(cfg, i)).collect()
    }

    /// Duplicate-point indexes must share one trellis snapshot — and the
    /// shared-snapshot path must still reproduce the per-index reference
    /// bit for bit (each index keeps its own RNG stream, so two injections
    /// at the same point can still flip different bits).
    #[test]
    fn duplicate_points_share_a_snapshot_with_identical_records() {
        let campaign = tiny_campaign();
        let n = 60;
        let base = cfg(n);
        // Establish that this configuration actually samples duplicates.
        let points: Vec<InjectionPoint> = (0..n)
            .filter_map(|i| campaign.sample_point(&base, i).map(|(p, _)| p))
            .collect();
        let distinct: std::collections::HashSet<_> = points.iter().copied().collect();
        assert!(
            distinct.len() < points.len(),
            "test premise: duplicates must occur ({} points, {} distinct)",
            points.len(),
            distinct.len()
        );

        let trellis = campaign.run(&base);
        // One snapshot per *distinct fired* point, not per injection.
        assert!(trellis.trellis_snapshots <= distinct.len());
        assert!(
            trellis.trellis_snapshots < points.len(),
            "duplicates forked extra snapshots: {} snapshots for {} sampled points",
            trellis.trellis_snapshots,
            points.len()
        );
        assert_eq!(
            reference(&campaign, &base),
            trellis.records,
            "shared-snapshot suffixes diverged from the per-index reference"
        );
    }

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

    /// The parallel cursor pass is invisible in the records: any explicit
    /// shard count reproduces the single cursor bit for bit, each shard
    /// replays its boundary prefix (so the executed-prefix accounting
    /// grows with K while attributed records stay fixed), and snapshots
    /// dedup across shards exactly as before.
    #[test]
    fn sharded_cursors_match_single_cursor_and_split_the_prefix() {
        let campaign = hpccg_campaign();
        let config = |shards| CampaignConfig { cursor_shards: Some(shards), ..cfg(60) };
        let single = campaign.run(&config(1));
        assert_eq!(single.cursor_shards, 1);
        for k in [2, 4, 16] {
            let sharded = campaign.run(&config(k));
            assert_eq!(single.records, sharded.records, "records diverged at {k} shards");
            assert_eq!(single.trellis_snapshots, sharded.trellis_snapshots);
            assert!(
                sharded.cursor_shards > 1 && sharded.cursor_shards <= k,
                "expected multiple populated shards at K={k}, got {}",
                sharded.cursor_shards
            );
            // Replayed boundary prefixes are extra *executed* steps, and
            // only they: the suffix/CARE stages are untouched.
            assert!(sharded.steps_prefix > single.steps_prefix);
            assert_eq!(single.steps_suffix, sharded.steps_suffix);
            assert_eq!(single.steps_care, sharded.steps_care);
        }
    }

    /// A single-cursor campaign on `engine`, wide enough to hold `indices`.
    fn one_cursor(engine: EngineKind, indices: &[usize]) -> CampaignConfig {
        let n = indices.iter().max().expect("indices") + 1;
        CampaignConfig { engine, cursor_shards: Some(1), ..cfg(n) }
    }

    /// One cursor, both engines: the trellis over exactly `indices` must
    /// reproduce those indexes' `run_one` records. Returns the report.
    fn hop_matches_run_one(campaign: &Campaign, indices: &[usize]) -> CampaignReport {
        let [interp, compiled] = [EngineKind::Interp, EngineKind::Compiled].map(|engine| {
            let config = one_cursor(engine, indices);
            let reference: Vec<InjectionRecord> =
                indices.iter().filter_map(|&i| campaign.run_one(&config, i)).collect();
            assert_eq!(reference.len(), indices.len(), "{engine:?}: a reference run skipped");
            let hop =
                campaign.run_selected(&config, indices, &NoTelemetry, &JobControl::new(), &NoSink);
            assert_eq!(reference, hop.records, "{engine:?}: hop diverged from run_one");
            hop
        });
        assert_eq!(interp, compiled, "engines disagree on the report");
        interp
    }

    /// The first `want` injection indexes (in index order, distinct points)
    /// whose sampled point — with its bracket — satisfies `pick`, which
    /// also sees the ones already chosen.
    fn find_indices(
        campaign: &Campaign,
        want: usize,
        pick: impl Fn(&[(usize, InjectionPoint)], usize, &InjectionPoint) -> bool,
    ) -> Vec<usize> {
        let mut chosen: Vec<(usize, InjectionPoint)> = Vec::new();
        let mut indices = Vec::new();
        for i in 0..200_000 {
            let (point, _) = campaign.sample_point(&cfg(1), i).expect("sample");
            let bracket = campaign.bracket_of(&point);
            if chosen.iter().all(|(_, p)| *p != point) && pick(&chosen, bracket, &point) {
                chosen.push((bracket, point));
                indices.push(i);
                if indices.len() == want {
                    return indices;
                }
            }
        }
        panic!("test premise: only {} of {want} wanted points were ever sampled", indices.len());
    }

    /// The mechanism, in exact counts: a cursor runs instrumented only
    /// inside the brackets that hold its points — at most one checkpoint
    /// interval each — and replays everything between uninstrumented; the
    /// two spans still add up to every prefix step the cursor executed.
    #[test]
    fn cursor_is_instrumented_only_inside_visited_brackets() {
        let campaign = hpccg_campaign();
        // `checkpoints[b]` ends bracket `b`; the last bracket runs to exit.
        let end_of =
            |b: usize| campaign.checkpoints.get(b).map_or(campaign.golden_steps, |c| c.step);
        for engine in [EngineKind::Interp, EngineKind::Compiled] {
            let config = one_cursor(engine, &[0, 1, 2, 3]);
            let visited: std::collections::BTreeSet<usize> = (0..4)
                .map(|i| campaign.bracket_of(&campaign.sample_point(&config, i).expect("sample").0))
                .collect();
            let bracket_steps: u64 = visited
                .iter()
                .map(|&b| end_of(b) - campaign.bracket_start(b).map_or(0, |c| c.step))
                .sum();
            let rec = telemetry::Recorder::new();
            let report = campaign.run_with_hooks(&config, &rec);
            let tel = rec.drain();
            let ctr = |n: &str| tel.counters.get(n).copied().unwrap_or(0);
            let (replay, window) = (ctr("cursor.replay_steps"), ctr("cursor.window_steps"));
            assert_eq!(report.cursor_shards, 1);
            assert_eq!(replay + window, report.steps_prefix, "{engine:?}: spans leak steps");
            assert!(
                window <= bracket_steps,
                "{engine:?}: {window} instrumented steps outgrew the {} visited brackets' \
                 {bracket_steps} (of {} executed)",
                visited.len(),
                report.steps_prefix
            );
            assert!(window > 0 && replay > 0, "{engine:?}: replay {replay}, window {window}");
        }
    }

    /// A point firing on the very step a checkpoint was taken at is counted
    /// *in* that checkpoint, so its bracket is the previous one: the cursor
    /// arms there and walks the whole interval to fire on its last step.
    #[test]
    fn point_firing_exactly_on_a_checkpoint_step_belongs_to_the_bracket_before() {
        let campaign = hpccg_campaign();
        // What the golden run executed as each checkpoint's last step.
        let on_checkpoint: Vec<InjectionPoint> = campaign
            .checkpoints
            .iter()
            .map(|c| {
                let mut p = campaign.template.clone();
                assert!(advance_to_step(&InterpEngine, &mut p, c.step - 1));
                let f = p.frame();
                let (module, func, inst) = (f.module, f.func, f.idx);
                InjectionPoint { module, func, inst, nth: count_at(&c.counts, module, func, inst) }
            })
            .collect();
        let indices = find_indices(&campaign, 1, |_, _, p| on_checkpoint.contains(p));
        let (point, _) = campaign.sample_point(&cfg(1), indices[0]).expect("sample");
        let ci = on_checkpoint.iter().position(|p| *p == point).expect("picked from the list");
        assert_eq!(campaign.bracket_of(&point), ci, "bracket must start one checkpoint earlier");
        let report = hop_matches_run_one(&campaign, &indices);
        assert_eq!(report.steps_prefix, campaign.checkpoints[ci].step);
        assert_eq!(report.records[0].split.prefix, campaign.checkpoints[ci].step);
    }

    /// Two points of one bracket share one hop and one armed set.
    #[test]
    fn two_points_in_one_bracket_fork_from_one_hop() {
        let campaign = hpccg_campaign();
        let indices = find_indices(&campaign, 2, |chosen, bracket, _| {
            bracket > 0 && chosen.iter().all(|&(b, _)| b == bracket)
        });
        let report = hop_matches_run_one(&campaign, &indices);
        assert_eq!(report.trellis_snapshots, 2);
    }

    /// One static instruction with ordinals in two brackets: each hop
    /// rebases its ordinal to its own checkpoint's count.
    #[test]
    fn one_instruction_with_ordinals_in_two_brackets_rebases_per_hop() {
        let campaign = hpccg_campaign();
        let indices = find_indices(&campaign, 2, |chosen, bracket, p| {
            bracket > 0
                && chosen.iter().all(|(b, q)| {
                    *b != bracket && (q.module, q.func, q.inst) == (p.module, p.func, p.inst)
                })
        });
        let report = hop_matches_run_one(&campaign, &indices);
        assert_eq!(report.trellis_snapshots, 2);
    }

    /// A cancel observed between hops stops the cursor where it stands: the
    /// brackets it has not reached are never visited, and nothing they hold
    /// is recorded.
    #[test]
    fn cancel_between_hops_leaves_later_brackets_unvisited() {
        /// Cancels the job at the cursor's first fork.
        struct CancelOnFork<'a>(&'a JobControl);
        impl Hooks for CancelOnFork<'_> {
            fn enabled(&self) -> bool {
                true
            }
            fn emit(&self, event: Event) {
                if event.kind == "trellis.fork" {
                    self.0.cancel();
                }
            }
        }
        let campaign = hpccg_campaign();
        let indices =
            find_indices(&campaign, 3, |chosen, bracket, _| chosen.iter().all(|&(b, _)| b != bracket));
        let first_firing = indices
            .iter()
            .map(|&i| campaign.run_one(&cfg(i + 1), i).expect("reference").split.prefix)
            .min()
            .expect("three points");
        for engine in [EngineKind::Interp, EngineKind::Compiled] {
            let config = one_cursor(engine, &indices);
            let ctl = JobControl::new();
            let report =
                campaign.run_selected(&config, &indices, &CancelOnFork(&ctl), &ctl, &NoSink);
            assert!(report.cancelled);
            assert_eq!(report.trellis_snapshots, 1, "{engine:?}: hopped on after the cancel");
            assert_eq!(report.steps_prefix, first_firing, "{engine:?}: cursor kept walking");
            assert!(report.records.is_empty() && ctl.classified() == 0);
        }
    }

    /// Sharding follows the pool width when `cursor_shards` is `None`.
    #[test]
    fn default_shard_count_tracks_the_pool_width() {
        let campaign = hpccg_campaign();
        let base = rayon::with_threads(1, || campaign.run(&cfg(40)));
        assert_eq!(base.cursor_shards, 1);
        let wide = rayon::with_threads(4, || campaign.run(&cfg(40)));
        assert!(wide.cursor_shards > 1, "4-thread run stayed single-sharded");
        assert_eq!(base.records, wide.records);
    }

    /// Suffix forks budget fuel against *remaining* steps: every record's
    /// prefix + suffix stays within the campaign hang bound, and a hang
    /// classified by the trellis engine burned exactly the remaining budget
    /// rather than a fresh full one.
    #[test]
    fn suffix_forks_respect_the_campaign_fuel_budget() {
        // hpccg(3,2) at the default seed is known to hang on some of the
        // first 100 injections (see tests/golden.rs), so the equality leg
        // below is actually exercised.
        let campaign = hpccg_campaign();
        let config = cfg(100);
        let budget = campaign.fuel_budget(&config);
        let r = campaign.run(&config);
        assert!(r.hang > 0, "test premise: need at least one hang");
        for rec in &r.records {
            assert!(
                rec.split.prefix + rec.split.suffix <= budget,
                "record at {:?} overshot the hang bound: {} + {} > {}",
                rec.point,
                rec.split.prefix,
                rec.split.suffix,
                budget
            );
            if rec.outcome == Outcome::Hang {
                assert_eq!(rec.split.prefix + rec.split.suffix, budget);
            }
        }
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

    /// Fault-model wire names round-trip through `FromStr`.
    #[test]
    fn fault_model_names_round_trip() {
        for m in [crate::FaultModel::SingleBit, crate::FaultModel::DoubleBit] {
            assert_eq!(m.name().parse::<crate::FaultModel>().unwrap(), m);
        }
        assert!("triple".parse::<crate::FaultModel>().is_err());
    }
}
