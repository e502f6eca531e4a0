//! The per-injection suffix: sample a point, inject into a process paused
//! right after it, run to an outcome, classify, and — for SIGSEGV outcomes
//! of a CARE campaign — resume the trapped process under Safeguard.
//!
//! A suffix need not run to its end to have an outcome. Most injections are
//! benign, and a benign run is mostly one whose corrupted value died: from
//! some step on it *is* the golden run. [`Campaign::run_suffix`] therefore
//! runs from one golden state to the next and compares
//! ([`Process::same_state`]). The golden states are those the job rebuilds
//! from the trail, one at every checkpoint its runs can reach; a program
//! too short for a checkpoint has none, and its runs run out. A run equal to
//! the golden run need not be so at the same step: a flipped bound that ran
//! a loop short leaves the run on the golden path ahead of it. So at the
//! first unequal comparison whose control differs, the golden run is
//! searched forward from that state for the paused run
//! ([`Campaign::shift_search`]), which does not move. On equality — at a
//! state or at a golden step `u` the search found — the rest is known:
//! `Benign`, at exactly `golden_steps − u` steps more, and the record is
//! written there, with the steps it would have executed attributed as if it
//! had. The protected run does the same after every repair — a correct
//! repair puts the process back on the golden run, one re-executed
//! instruction ahead of it per repair, which is a shift the comparisons
//! already expect — and on equality ends covered, with the golden run's
//! remaining steps added to its own in closed form. Both go through one
//! pause-and-compare loop, `Campaign::run_or_rejoin`; the trap loop stays
//! Safeguard's ([`resume_protected`]), which is handed that loop as its way
//! to resume.
//!
//! [`Campaign::run_suffix`] is what a trellis cursor runs from each fork
//! it takes at a fired point; [`Campaign::run_one`] is the per-index
//! reference: it re-simulates one injection's own prefix from the template,
//! consults no golden state and so runs every suffix and protected run out,
//! and the trellis records must equal
//! `(0..n).filter_map(|i| campaign.run_one(&cfg, i))` bit for bit (pinned
//! by the unit tests beside the trellis, `tests/golden.rs` and carefuzz).

use crate::campaign::{Campaign, CampaignConfig, MAX_RECOVERIES};
use crate::injector::{inject, InjectedInto, InjectionPoint};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use safeguard::{resume_protected, DeclineKind, ProtectedExit, Safeguard};
use simx::{run_to_step, ExecutionEngine, Instrument, ModuleId, Process, RunExit, TrapKind};
use std::sync::Arc;
use telemetry::{Event, Hooks, NoTelemetry};
use tinyir::FuncId;

/// Unequal comparisons with golden states after which a suffix stops
/// comparing and runs out: a run that has not re-joined by its third target
/// rarely does, and each comparison reads every page both runs wrote. It
/// also bounds a job's walk: the job keeps states this many checkpoints past
/// its last populated bracket (`campaign::state_brackets`). With a state at
/// every checkpoint a job's runs reach and the shift search, caps of 3 and 6
/// execute the same 1 971 771 suffix and CARE steps per round of
/// carebench's cov job set (the five O1 programs, one 16- and two
/// 4-injection jobs each), and caps of 12 and 96 execute 1.9 % fewer
/// (1 933 800), for four times the states past a job's last populated
/// bracket.
pub(crate) const MAX_COMPARES: usize = 3;

/// How far past a job state the golden run is searched for a run that
/// stands at a state further on ([`Campaign::shift_search`]). On the
/// `BENCH_steps.jsonl` setting (`repro --injections 100 --engine compiled
/// fig7 table2`), the runs found ahead of the golden run stand 21–376 steps
/// ahead at `-O1` and 32–898 at `-O0`; at 1 000 injections, 19–2 030 and
/// 26–2 337, 352 of 354 within 2 048. A window of 65 536 finds no more at
/// 100 injections, and 4 096 finds the same 33 for twice the searched steps.
pub(crate) const SHIFT_WINDOW: u64 = 2048;

/// What one run's comparisons and searches did, for telemetry.
#[derive(Default)]
struct Tally {
    /// Comparisons with job states.
    compares: u64,
    /// Searches of the golden run.
    searches: u64,
    /// Golden steps the searches executed.
    search_steps: u64,
    /// The run re-joined at a step no job state stands at.
    shifted: bool,
}

/// True when `p` and `g` stand at the same instruction of the same call
/// stack: a run that does is not shifted against `g`, it differs in data.
fn same_control(p: &Process, g: &Process) -> bool {
    p.frames.len() == g.frames.len()
        && p.frames
            .iter()
            .zip(&g.frames)
            .all(|(a, b)| (a.module, a.func, a.idx) == (b.module, b.func, b.idx))
}

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
/// the trellis cursor pass — see [`crate::CampaignReport::steps_prefix`].
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

impl Campaign {
    fn outputs_clean(&self, p: &Process) -> bool {
        self.outputs.iter().zip(&self.golden_outputs).all(|((name, len), golden)| {
            p.snapshot_global(name, *len).map(|bytes| &bytes == golden).unwrap_or(false)
        })
    }

    /// Sample injection `index`'s `(I, n)` point, deterministic in
    /// `(cfg.seed, index)`. Returns the point plus the RNG in the exact
    /// post-sampling state the bit-flip draws continue from, so the trellis'
    /// pre-sampling and [`Campaign::run_one`] yield identical records.
    pub(crate) fn sample_point(
        &self,
        cfg: &CampaignConfig,
        index: usize,
    ) -> Option<(InjectionPoint, SmallRng)> {
        let mut rng = SmallRng::seed_from_u64(cfg.seed ^ (index as u64).wrapping_mul(0x9e37));
        let point = self.targets.pick(&mut rng, cfg.app_only)?;
        Some((point, rng))
    }

    /// Inject into a process paused right after `point`'s `nth` execution
    /// and classify the fallout. `p` must carry the remaining fuel of the
    /// campaign budget (a fork inherits it; a fresh full budget would let
    /// late injection points overshoot the hang bound by nearly 2x) and the
    /// RNG must be in the post-[`Campaign::sample_point`] state.
    ///
    /// `golden` is the golden run's states the suffix may stop at, strictly
    /// increasing in step: the job's `Trail::states`, for the trellis; empty
    /// for the reference, which then runs out.
    /// The run pauses at each one past the injection, and where it
    /// equals that state, or a golden state the search from one finds —
    /// with fuel left for the rest of the golden run, without which it
    /// would end `Hang`, not `Benign` — the record is written as the
    /// run-out would have written it; a protected run does the same after
    /// each repair ([`Campaign::run_or_rejoin`]). The record is the same
    /// for any `golden`.
    ///
    /// With hooks enabled this is also the per-*job* instrumentation site:
    /// a wall-clock span per job
    /// (`job.wall_ns`, accumulated into the `worker.busy_ns` counter —
    /// whose per-shard subtotals are the per-worker utilization view),
    /// simulated-step spans for the suffix and CARE stages, TLB counter
    /// deltas of the processes this job ran, and one `job` event whose
    /// `t_ns` stamp traces the queue drain. The step spans are *attributed*;
    /// `suffix.pruned_steps` and `care.pruned_steps` are the parts of them no
    /// engine executed, `suffix.executed_steps.<outcome>`
    /// splits the rest of the suffix by its outcome, and the wall span and the
    /// TLB deltas cover executed work only. `suffix.shifted` and
    /// `care.shifted` count the runs that re-joined at a step the search
    /// found, and `suffix.shift_searches` and `suffix.shift_search_steps` the
    /// searches of both runs and the golden steps they executed, which no
    /// attributed span holds. Hooks never
    /// influence the record: a telemetry-enabled campaign is bit-identical.
    pub(crate) fn run_suffix(
        &self,
        cfg: &CampaignConfig,
        point: InjectionPoint,
        rng: &SmallRng,
        mut p: Process,
        golden: &[Process],
        hooks: &dyn Hooks,
    ) -> Option<InjectionRecord> {
        let t0 = hooks.enabled().then(std::time::Instant::now);
        let engine = self.engine(cfg);
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
        // `Ok(u)`: the run re-joined the golden run at its step `u` and was
        // left there.
        let mut tally = Tally::default();
        let run = self.run_or_rejoin(engine, &mut p, golden, 0, &mut tally);
        let (outcome, latency) = match run {
            Ok(_) => (Outcome::Benign, None),
            Err(RunExit::Done(_)) => {
                if self.outputs_clean(&p) {
                    (Outcome::Benign, None)
                } else {
                    (Outcome::Sdc, None)
                }
            }
            Err(RunExit::Trapped(t)) => match t.kind {
                TrapKind::OutOfFuel => (Outcome::Hang, None),
                kind => (Outcome::SoftFailure(signal_of(kind)), Some(p.steps - prefix_steps)),
            },
            Err(RunExit::BreakHit) => unreachable!("an uninstrumented run never stops"),
        };
        // Where the unprotected run ends: where it stopped, or — re-joined —
        // where the golden run did, the golden run's steps past that step on.
        let rest = |u: u64| self.golden_steps - u;
        let pruned_steps = run.map_or(0, rest);
        let suffix_steps = p.steps + pruned_steps - prefix_steps;

        // --- protected run for SIGSEGV injections (§5 methodology). The
        // unprotected run is frozen on its trap with pre-fault registers,
        // exactly where a protected run of the same flip first reaches
        // Safeguard: recovery resumes from this process and this exit. A
        // correct repair puts the process back on the golden run, so after
        // each one it runs on like the unprotected run did: to the golden
        // state it re-joins, a step late per repair --------------------------
        let mut care_steps = 0u64;
        let mut care_tally = Tally::default();
        // `Some(u)`: the protected run re-joined the golden run at its step
        // `u`, and was left there.
        let mut care_rejoined: Option<u64> = None;
        let care =
            (cfg.evaluate_care && outcome == Outcome::SoftFailure(Signal::Segv)).then(|| {
                let mut sg = Safeguard::with_index(Arc::clone(&self.recovery));
                sg.patch_base_first = cfg.patch_base_first;
                sg.skip_equality_guard = cfg.skip_equality_guard;
                let trapped = run.expect_err("a SIGSEGV outcome has its exit");
                let resume = |p: &mut Process, recoveries: u64| {
                    let run = self.run_or_rejoin(engine, p, golden, recoveries, &mut care_tally);
                    care_rejoined = run.ok();
                    run.err()
                };
                let end = resume_protected(resume, &mut p, trapped, &mut sg, MAX_RECOVERIES, hooks);
                let (recoveries, recovery_ms, decline) = match end {
                    ProtectedExit::Completed { recoveries, recovery_ms, .. }
                    | ProtectedExit::Stopped { recoveries, recovery_ms } => {
                        (recoveries, recovery_ms, None)
                    }
                    ProtectedExit::Crashed { reason, recoveries, .. } => {
                        (recoveries, 0.0, Some(reason.kind()))
                    }
                    ProtectedExit::Hung => (0, 0.0, Some(DeclineKind::Hang)),
                };
                // Covered: completed, after at least one repair, bit-clean. A
                // re-joined run ends as the golden run did; it was left short of
                // that end, so its own outputs are not the ones to read.
                let covered = decline.is_none()
                    && recoveries > 0
                    && (care_rejoined.is_some() || self.outputs_clean(&p));
                // Attributed from the injection point, as a protected run of
                // its own would count it (the shared suffix included), and to
                // the end: a re-joined run still has the golden run's remaining
                // steps to take — stated by those, not by the lead it is assumed
                // to have, so a repair that charged no step can only miss a
                // re-join, never misstate one.
                care_steps = p.steps - prefix_steps + care_rejoined.map_or(0, rest);
                CareResult { covered, recoveries, recovery_ms, decline }
            });
        let tlb = p.mem.stats.since(&base_stats);

        if hooks.enabled() {
            let wall_ns = t0.expect("enabled").elapsed().as_nanos() as u64;
            hooks.add("worker.busy_ns", wall_ns);
            hooks.record("job.wall_ns", wall_ns);
            hooks.record("job.suffix_steps", suffix_steps);
            hooks.add("suffix.pruned_steps", pruned_steps);
            hooks.add("suffix.compares", tally.compares);
            hooks.add("suffix.converged", run.is_ok() as u64);
            hooks.add("suffix.shifted", tally.shifted as u64);
            hooks.add("suffix.shift_searches", tally.searches + care_tally.searches);
            hooks.add("suffix.shift_search_steps", tally.search_steps + care_tally.search_steps);
            hooks.add(executed_counter(outcome), suffix_steps - pruned_steps);
            if care.is_some() {
                hooks.record("job.care_steps", care_steps);
                hooks.add("care.pruned_steps", care_rejoined.map_or(0, rest));
                hooks.add("care.compares", care_tally.compares);
                hooks.add("care.converged", care_rejoined.is_some() as u64);
                hooks.add("care.shifted", care_tally.shifted as u64);
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

    /// Run `p` on to its end, or to the golden state it re-joins. `p` stands
    /// `lead` steps ahead of the golden run at the same machine state: none
    /// for an unprotected run, one per repair for a protected one (a repair
    /// re-executes an instruction already charged a step). The run pauses
    /// `lead` steps past each of `golden`'s states still ahead of it and
    /// compares ([`Process::same_state`]). At the first unequal comparison
    /// whose control differs it also searches the golden run for the paused
    /// run ([`Campaign::shift_search`]): a run that ran a loop short stands
    /// at a golden state further on. Where it equals a golden state at step
    /// `u` with fuel left for the rest of the golden run — without which it
    /// would run dry, not end as the golden run does — it is left there:
    /// `Ok(u)`. Otherwise, and after [`MAX_COMPARES`] unequal comparisons,
    /// it runs out: `Err(exit)`. `tally` counts what it did.
    fn run_or_rejoin(
        &self,
        engine: &dyn ExecutionEngine,
        p: &mut Process,
        golden: &[Process],
        lead: u64,
        tally: &mut Tally,
    ) -> Result<u64, RunExit> {
        let from = p.steps;
        let mut searched = false;
        for state in golden.iter().filter(|g| g.steps + lead > from).take(MAX_COMPARES) {
            let at = state.steps + lead;
            // Until the search has run, pause one step short to learn the
            // instruction the run executes as its step `at`: where it is the
            // golden run shifted, the golden run has just executed it too.
            let mut last = None;
            if !searched {
                if let Some(exit) = run_to_step(engine, p, at - 1, None) {
                    return Err(exit);
                }
                last = p.frames.last().map(|f| (f.module, f.func, f.idx));
            }
            if let Some(exit) = run_to_step(engine, p, at, None) {
                return Err(exit);
            }
            tally.compares += 1;
            if p.same_state(state) {
                // Fuel falls as steps rise: short here is short at every
                // later state too.
                if p.fuel >= self.golden_steps - state.steps {
                    return Ok(state.steps);
                }
                break;
            }
            if let Some(last) = last.filter(|_| !same_control(p, state)) {
                searched = true;
                if let Some(u) = self.shift_search(p, state, last, tally) {
                    if p.fuel >= self.golden_steps - u {
                        tally.shifted = true;
                        return Ok(u);
                    }
                    break;
                }
            }
        }
        Err(engine.run(p))
    }

    /// Search the golden run from `g` on for the paused run `p`, which last
    /// executed the instruction `last`: a copy-on-write clone of `g` runs on
    /// the campaign's translation, whatever engine the run selects (as the
    /// cursor does), to [`SHIFT_WINDOW`] steps past `g`, pausing after every
    /// execution of `last` to compare with `p`. Returns the golden step `p`
    /// equals; `p` itself does not move.
    fn shift_search(
        &self,
        p: &Process,
        g: &Process,
        last: (ModuleId, FuncId, usize),
        tally: &mut Tally,
    ) -> Option<u64> {
        let (module, func, inst) = last;
        let mut q = g.clone();
        let mut instr = Instrument::default();
        tally.searches += 1;
        let found = loop {
            instr.stops.add(module, func, inst, 1);
            match run_to_step(&self.compiled, &mut q, g.steps + SHIFT_WINDOW, Some(&mut instr)) {
                Some(RunExit::BreakHit) if q.same_state(p) => break Some(q.steps),
                Some(RunExit::BreakHit) => {}
                _ => break None,
            }
        };
        tally.search_steps += q.steps - g.steps;
        found
    }

    /// Run one injection end-to-end, re-simulating its own prefix from the
    /// template on the campaign's translation (deterministic in `(cfg.seed,
    /// index)`): the per-index reference the trellis is checked against, as
    /// it plans nothing — no trail, hop or rebased ordinal.
    pub fn run_one(&self, cfg: &CampaignConfig, index: usize) -> Option<InjectionRecord> {
        let (point, rng) = self.sample_point(cfg, index)?;
        let mut p = self.template.clone();
        p.fuel = self.fuel_budget(cfg);
        let mut instr = Instrument::stop_after(point.module, point.func, point.inst, point.nth);
        match self.compiled.run_instrumented(&mut p, &mut instr) {
            RunExit::BreakHit => {}
            // The breakpoint is derived from the profile, so this is
            // unreachable for deterministic programs; be safe anyway.
            _ => return None,
        }
        self.run_suffix(cfg, point, &rng, p, &[], &NoTelemetry)
    }
}

/// Static `suffix.executed_steps.*` counter name for `outcome` (hook names
/// are `&'static str`, as `mix.*`'s are).
fn executed_counter(outcome: Outcome) -> &'static str {
    match outcome {
        Outcome::Benign => "suffix.executed_steps.benign",
        Outcome::Sdc => "suffix.executed_steps.sdc",
        Outcome::Hang => "suffix.executed_steps.hang",
        Outcome::SoftFailure(Signal::Segv) => "suffix.executed_steps.segv",
        Outcome::SoftFailure(Signal::Bus) => "suffix.executed_steps.bus",
        Outcome::SoftFailure(Signal::Abort) => "suffix.executed_steps.abort",
        Outcome::SoftFailure(Signal::Other) => "suffix.executed_steps.signal_other",
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{
        cfg, delay_workload, hpccg_campaign, reference, run_heard, tiny_workload,
    };
    use simx::EngineKind;

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

    /// A suffix that re-joins the golden run is left at the state it
    /// re-joined at, and its record is the one the run-out writes: the
    /// attributed steps do not move, the executed ones shrink by exactly
    /// what `suffix.pruned_steps` says was never run.
    #[test]
    fn a_suffix_that_rejoins_the_golden_run_stops_there_with_the_run_out_record() {
        let campaign = hpccg_campaign();
        for engine in [EngineKind::Interp, EngineKind::Compiled] {
            let config = CampaignConfig { engine, ..cfg(60) };
            let (report, ctr) = run_heard(&campaign, &config);
            assert_eq!(reference(&campaign, &config), report.records, "{engine:?}");
            let (converged, compares) = (ctr("suffix.converged"), ctr("suffix.compares"));
            assert!(converged > 0, "{engine:?}: no suffix re-joined the golden run");
            assert!(converged <= report.benign as u64, "{engine:?}: only benign runs re-join");
            assert!(converged <= compares && compares <= 60 * MAX_COMPARES as u64, "{engine:?}");
            assert_eq!(ctr("steps.suffix"), report.steps_suffix, "{engine:?}: attributed");
            let pruned = ctr("suffix.pruned_steps");
            assert!(0 < pruned && pruned < report.steps_suffix, "{engine:?}: pruned {pruned}");
        }
    }

    /// A run whose flip ends a loop early re-joins the golden run ahead of
    /// it: the search from the job state it first fails to equal finds it
    /// at a later golden step, and its record is the run-out's.
    #[test]
    fn a_run_that_ran_a_loop_short_rejoins_at_a_shifted_step() {
        let w = delay_workload(200, 8);
        let app = care::compile(&w.module, opt::OptLevel::O0);
        let campaign = Campaign::prepare(&w, app, vec![]);
        for engine in [EngineKind::Interp, EngineKind::Compiled] {
            let config = CampaignConfig { engine, ..cfg(200) };
            let (report, ctr) = run_heard(&campaign, &config);
            assert_eq!(reference(&campaign, &config), report.records, "{engine:?}");
            let (shifted, searches) = (ctr("suffix.shifted"), ctr("suffix.shift_searches"));
            assert!(shifted > 0, "{engine:?}: no run re-joined at a shifted step");
            assert!(shifted <= searches && shifted <= ctr("suffix.converged"), "{engine:?}");
            let searched = ctr("suffix.shift_search_steps");
            assert!(searched <= searches * SHIFT_WINDOW, "{engine:?}: searched {searched}");
        }
    }

    /// Re-joining at a shifted step means ending as the golden run did only
    /// with the fuel to get there: on a budget shorter than the golden run,
    /// a run the search finds ahead of the golden run still runs dry.
    #[test]
    fn a_shifted_run_short_of_fuel_for_the_rest_still_hangs() {
        let w = delay_workload(15_000, 8);
        let app = care::compile(&w.module, opt::OptLevel::O0);
        let campaign = Campaign::prepare(&w, app, vec![]);
        let starved = CampaignConfig { hang_factor: 0, ..cfg(24) };
        assert!(campaign.fuel_budget(&starved) < campaign.golden_steps, "test premise");
        for engine in [EngineKind::Interp, EngineKind::Compiled] {
            let config = CampaignConfig { engine, ..starved };
            let (report, ctr) = run_heard(&campaign, &config);
            assert_eq!(reference(&campaign, &config), report.records, "{engine:?}");
            assert!(report.hang > 0 && report.benign == 0, "{engine:?}: {report:?}");
            assert!(ctr("suffix.shift_searches") > 0, "{engine:?}: test premise: a search ran");
            assert_eq!(ctr("suffix.shifted"), 0, "{engine:?}");
            // The same injections on the default budget do re-join shifted.
            let fed = CampaignConfig { hang_factor: 20, ..config };
            assert!(run_heard(&campaign, &fed).1("suffix.shifted") > 0, "{engine:?}");
        }
    }

    /// The trellis records equal the per-index reference on every bundled
    /// program at both levels on both engines, at a size where runs re-join
    /// at shifted steps.
    #[test]
    fn shifted_rejoins_keep_the_records_of_the_reference_on_every_program() {
        let mut shifted = 0;
        for w in workloads::all() {
            for level in [opt::OptLevel::O0, opt::OptLevel::O1] {
                let campaign = Campaign::prepare(&w, care::compile(&w.module, level), vec![]);
                for engine in [EngineKind::Interp, EngineKind::Compiled] {
                    let config = CampaignConfig { engine, ..cfg(100) };
                    let (report, ctr) = run_heard(&campaign, &config);
                    let at = format!("{} {level:?} {engine:?}", w.name);
                    assert_eq!(reference(&campaign, &config), report.records, "{at}");
                    shifted += ctr("suffix.shifted") + ctr("care.shifted");
                }
            }
        }
        assert!(shifted > 0, "test premise: no run re-joined at a shifted step");
        eprintln!("shifted {shifted}");
    }

    /// A program too short for a checkpoint has no golden state to re-join
    /// at: its suffixes and repaired runs compare with nothing and run out,
    /// with the records of the reference.
    #[test]
    fn without_a_checkpoint_every_run_runs_out() {
        let w = tiny_workload(100);
        let app = care::compile(&w.module, opt::OptLevel::O1);
        let campaign = Campaign::prepare(&w, app, vec![]);
        assert_eq!(campaign.trail.brackets(), 1, "test premise: no checkpoint");
        for engine in [EngineKind::Interp, EngineKind::Compiled] {
            let config = CampaignConfig { engine, ..cfg(60) };
            let (report, ctr) = run_heard(&campaign, &config);
            assert_eq!(reference(&campaign, &config), report.records, "{engine:?}");
            assert!(report.benign > 0 && report.care_evaluated > 0, "{engine:?}: test premise");
            let counts = ["suffix.compares", "suffix.converged", "care.compares"].map(ctr);
            assert_eq!(counts, [0; 3], "{engine:?}: compared with a golden state");
        }
    }

    /// Re-joining the golden run means ending as it did only with the fuel
    /// to get there. On a budget shorter than the golden run none does (a run
    /// ends early or not at all): one that equals a golden state still runs
    /// dry, `Hang`.
    #[test]
    fn a_rejoined_run_short_of_fuel_for_the_rest_still_hangs() {
        let w = tiny_workload(150_000);
        let app = care::compile(&w.module, opt::OptLevel::O1);
        let campaign = Campaign::prepare(&w, app, vec![]);
        let starved = CampaignConfig { hang_factor: 0, ..cfg(16) };
        let budget = campaign.fuel_budget(&starved);
        assert!(budget < campaign.golden_steps, "test premise: the floor must not cover the run");
        let first = campaign.trail.bracket_step(1);
        assert!(first < budget / 2, "test premise: states inside the budget");
        for engine in [EngineKind::Interp, EngineKind::Compiled] {
            let config = CampaignConfig { engine, ..starved };
            let (report, ctr) = run_heard(&campaign, &config);
            assert_eq!(reference(&campaign, &config), report.records, "{engine:?}");
            assert!(report.hang > 0 && report.benign == 0, "{engine:?}: {report:?}");
            assert!(ctr("suffix.compares") > 0, "{engine:?}: test premise: a state was reached");
            assert_eq!(ctr("suffix.converged"), 0, "{engine:?}");
            assert_eq!(ctr("suffix.pruned_steps"), 0, "{engine:?}");
            // Nor does a repaired run: it reaches a state, runs on and dry.
            assert!(ctr("care.compares") > 0, "{engine:?}: test premise: a repaired run did too");
            assert_eq!((ctr("care.converged"), ctr("care.pruned_steps")), (0, 0), "{engine:?}");
            assert!(report.care_evaluated > 0 && report.care_covered == 0, "{engine:?}");
            assert_eq!(
                report.declines.get(&DeclineKind::Hang),
                Some(&report.care_evaluated),
                "{engine:?}: {:?}",
                report.declines
            );
            // The same injections on the default budget do re-join.
            let fed = CampaignConfig { hang_factor: 20, ..config };
            let (_, ctr) = run_heard(&campaign, &fed);
            assert!(ctr("suffix.converged") > 0 && ctr("care.converged") > 0, "{engine:?}");
        }
    }

    /// A protected run that re-joins the golden run after its repairs is
    /// left at that state, and its record is the one the run-out writes —
    /// `care` result and attributed `care` steps by the closed form — for a
    /// run that needed several repairs (it stands that many steps ahead of
    /// the golden run) and under the two ablations that change what
    /// Safeguard writes into the process.
    #[test]
    fn a_repaired_run_that_rejoins_the_golden_run_stops_there_with_the_run_out_record() {
        let campaign = hpccg_campaign();
        let ablations = [(false, false), (true, false), (false, true)];
        for engine in [EngineKind::Interp, EngineKind::Compiled] {
            for (patch_base_first, skip_equality_guard) in ablations {
                let config =
                    CampaignConfig { engine, patch_base_first, skip_equality_guard, ..cfg(60) };
                let at = format!(
                    "{engine:?}, base first {patch_base_first}, no guard {skip_equality_guard}"
                );
                let (report, ctr) = run_heard(&campaign, &config);
                assert_eq!(reference(&campaign, &config), report.records, "{at}");
                let (converged, compares) = (ctr("care.converged"), ctr("care.compares"));
                assert!(converged > 0, "{at}: no repaired run re-joined the golden run");
                assert!(
                    converged <= report.care_covered as u64,
                    "{at}: a re-joined run is covered"
                );
                assert!(converged <= compares, "{at}");
                assert_eq!(ctr("steps.care"), report.steps_care, "{at}: attributed");
                let pruned = ctr("care.pruned_steps");
                assert!(0 < pruned && pruned < report.steps_care, "{at}: pruned {pruned}");
            }
            // One injection of those, alone: repaired twice or more, heard
            // re-joining, equal to its reference field for field.
            let config = CampaignConfig { engine, ..cfg(60) };
            let rejoined_after_repairs = (0..60).any(|i| {
                let Some(reference) = campaign.run_one(&config, i) else { return false };
                if reference.care.is_none_or(|care| care.recoveries < 2) {
                    return false;
                }
                let rec = telemetry::Recorder::new();
                let ctl = crate::JobControl::new();
                let alone = campaign.run_selected(&config, &[i], &rec, &ctl, &crate::NoSink);
                assert_eq!(alone.records.len(), 1, "{engine:?}: injection {i}");
                assert_eq!(alone.records[0].care, reference.care, "{engine:?}: injection {i}");
                assert_eq!(alone.records[0].split.care, reference.split.care, "{engine:?}: {i}");
                assert_eq!(alone.records[0], reference, "{engine:?}: injection {i}");
                rec.drain().counters.get("care.converged") == Some(&1)
            });
            assert!(rejoined_after_repairs, "{engine:?}: test premise: a multi-repair re-join");
        }
    }
}
