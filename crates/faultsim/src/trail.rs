//! The golden trail: the fault-free profiling run, cut into *brackets* by
//! evenly spaced checkpoints, each holding what the golden run changed since
//! the one before.
//!
//! [`Trail::record`] drives the golden run in fixed-step slices, handing
//! each the one profiling [`Instrument`] the run counts into. The campaign
//! records on its compiled engine, which counts on translated code, whatever
//! engine its runs select: the profile, the counts and the states are the
//! same on either engine, and translated is the faster. At each pause
//! it keeps the counts so far — as one flat `u32` vector per checkpoint,
//! addressed through a per-`[module][func]` range table the trail holds
//! once — and the change since the last pause: the control state and the
//! 64-byte memory lines the run wrote ([`MemDelta`]), diffed against a
//! copy-on-write copy of the process taken there (incremental
//! checkpointing, as in Plank et al.'s *libckpt*). The counts are what let a
//! trellis cursor rebase its points' `nth` ordinals to stop ordinals
//! counted from a checkpoint, and the brackets between the checkpoints are
//! the cursor pass's unit: one cursor per populated bracket. The changes are
//! what the golden states are rebuilt from: each job walks them once from
//! the template, as far as its points need, and keeps the state at every
//! checkpoint of the bracket range it names ([`Trail::states`]); a cursor
//! hop starts from a clone of the one at its bracket's start
//! ([`Trail::state_at`]), standing exactly where a run to it would have. The states are also what a suffix
//! or a repaired run compares itself with: an injected run that equals the
//! golden run's state *is* the golden run from there on, and stops. With a
//! state at every checkpoint from a job's first populated bracket on, a run
//! first compares at the end of its own bracket. They are the only golden
//! states a run compares with: a program too short for any checkpoint has
//! none, and its runs run out.
//!
//! The checkpoint list, the flat counts, the range table and the changes
//! are private to this module: everything else asks in terms of brackets —
//! bracket `b > 0` starts at the `b`-th checkpoint, bracket 0 at program
//! start (step 0, every count zero) — so what a checkpoint *holds* can
//! change here alone. The golden profile's other derived view, the `mix.*`
//! telemetry counters, sits below the trail.

use crate::campaign::Campaign;
use crate::injector::InjectionPoint;
use simx::{run_to_step, ExecutionEngine, Frame, Instrument, Process, Profile, RunExit, TrapKind};
use std::ops::Range;
use telemetry::Hooks;
use tinyir::mem::MemDelta;

/// The longest golden run [`Campaign::prepare`](crate::Campaign::prepare)
/// accepts, in dynamic instructions (1 700× the longest bundled one, CoMD at
/// `-O0`; ≈ 11 s of profiled loop). A program still running there fails
/// preparation like a trapping one: nothing downstream can poll a cancel
/// inside the golden run, so this is what lets a server discard a job that
/// would never finish.
pub const MAX_GOLDEN_STEPS: u64 = 1 << 30;

// An execution count never exceeds the run's step count, so a checkpoint
// can hold its counts as `u32`.
const _: () = assert!(MAX_GOLDEN_STEPS <= u32::MAX as u64);

/// The trail holds fewer checkpoints than this for any program length.
const MAX_CHECKPOINTS: usize = 96;

/// What the golden run changed between two checkpoints: the control state
/// and the memory lines it wrote.
struct StateDelta {
    sp: u64,
    heap_ptr: u64,
    /// How many bottom frames the change leaves as they were.
    kept_frames: usize,
    /// The frames above them.
    frames: Box<[Frame]>,
    mem: MemDelta,
}

impl StateDelta {
    /// What turns `older` into `newer`.
    fn since(older: &Process, newer: &Process) -> StateDelta {
        let kept_frames =
            newer.frames.iter().zip(&older.frames).take_while(|(a, b)| a == b).count();
        StateDelta {
            sp: newer.sp,
            heap_ptr: newer.heap_ptr,
            kept_frames,
            frames: newer.frames[kept_frames..].into(),
            mem: newer.mem.delta_since(&older.mem),
        }
    }

    /// Bring `p` forward by this change.
    fn apply(&self, p: &mut Process) {
        p.sp = self.sp;
        p.heap_ptr = self.heap_ptr;
        p.frames.truncate(self.kept_frames);
        p.frames.extend_from_slice(&self.frames);
        p.mem.apply(&self.mem);
    }
}

/// A step-indexed snapshot of the golden run: `counts` holds the
/// per-static-instruction execution totals of the first `step` dynamic
/// instructions, flattened in `[module][func][inst]` order, and `delta`
/// what the run changed since the previous checkpoint (program start for
/// the first).
struct Checkpoint {
    step: u64,
    counts: Vec<u32>,
    delta: StateDelta,
}

/// The golden run's checkpoint trail. Empty for programs shorter than the
/// checkpoint quantum: one bracket from program start, one cursor.
pub(crate) struct Trail {
    /// Evenly spaced, in step order.
    checkpoints: Vec<Checkpoint>,
    /// Where `[module][func]`'s instructions sit in a checkpoint's `counts`.
    ranges: Vec<Vec<Range<usize>>>,
}

impl Trail {
    /// Run a clone of `template` fault-free and profiled on `engine`, to
    /// completion. Returns the trail, the finished process and its profile
    /// (the campaign's golden data). Panics when the run traps or is still
    /// going after `max_steps`; `name` labels the panic.
    pub(crate) fn record(
        template: &Process,
        engine: &dyn ExecutionEngine,
        name: &str,
        max_steps: u64,
    ) -> (Trail, Process, Profile) {
        assert!(max_steps <= MAX_GOLDEN_STEPS, "counts are kept as u32");
        let mut p = template.clone();
        p.fuel = max_steps;
        let mut instr = Instrument::profiling(&p.image);
        let mut end = 0;
        let mut range_of = |insts: &Vec<u64>| {
            let start = end;
            end += insts.len();
            start..end
        };
        let ranges = (instr.profile.iter().flatten())
            .map(|funcs| funcs.iter().map(&mut range_of).collect())
            .collect();
        // Pause every `quantum` steps and keep the profile and the change
        // since the last pause, diffed against a copy-on-write copy of the
        // process taken there. The trail stays bounded for any program
        // length by halving (keep every second checkpoint, double the
        // quantum) whenever it fills: the kept checkpoints' changes are
        // diffed afresh, along a walk of the old ones from the template.
        let mut checkpoints: Vec<Checkpoint> = Vec::new();
        let mut last = template.clone();
        let mut quantum: u64 = 1 << 10;
        let exit = loop {
            let target = p.steps + quantum;
            if let Some(exit) = run_to_step(engine, &mut p, target, Some(&mut instr)) {
                break exit;
            }
            // Sized exactly: a collected vector would keep up to twice its
            // length. One extend per function's slice: through a flattened
            // iterator the copy was ≈ 13× slower, a tenth of the golden run.
            let mut counts = Vec::with_capacity(end);
            let profile = instr.profile.as_ref().expect("profiled from the start");
            for insts in profile.iter().flatten() {
                counts.extend(insts.iter().map(|&n| n as u32));
            }
            let delta = StateDelta::since(&last, &p);
            last = p.clone();
            checkpoints.push(Checkpoint { step: p.steps, counts, delta });
            if checkpoints.len() == MAX_CHECKPOINTS {
                quantum *= 2;
                let (mut walked, mut kept) = (template.clone(), template.clone());
                checkpoints = (checkpoints.into_iter())
                    .filter_map(|mut c| {
                        c.delta.apply(&mut walked);
                        if !c.step.is_multiple_of(quantum) {
                            return None;
                        }
                        c.delta = StateDelta::since(&kept, &walked);
                        kept = walked.clone();
                        Some(c)
                    })
                    .collect();
                // An even count of multiples of the old quantum ends on one
                // of the new, where `last` stands: the next change goes on
                // from there.
                assert_eq!(checkpoints.last().map(|c| c.step), Some(p.steps), "last survives");
            }
        };
        match exit {
            RunExit::Done(_) => {}
            RunExit::Trapped(t) if t.kind == TrapKind::OutOfFuel => {
                panic!("golden run of {name} exceeds {max_steps} steps")
            }
            other => panic!("golden run of {name} failed: {other:?}"),
        }
        checkpoints.shrink_to_fit();
        let profile = instr.profile.expect("profiled from the start");
        (Trail { checkpoints, ranges }, p, profile)
    }

    /// The golden states at the starts of the brackets in `starts`, rebuilt
    /// from `template` in one walk over the checkpoints' changes that stops
    /// at the last of them, in step order. Bracket 0 starts at the template
    /// itself and brackets past the trail's last have no start, so neither
    /// is kept; an empty range walks nothing. They are where a cursor hop
    /// starts ([`Trail::state_at`]) and what a suffix or a repaired run may
    /// re-join at.
    pub(crate) fn states(&self, template: &Process, starts: Range<usize>) -> Vec<Process> {
        let (first, end) = (starts.start.max(1), starts.end.min(self.checkpoints.len() + 1));
        let mut states = Vec::with_capacity(end.saturating_sub(first));
        let mut p = template.clone();
        for (b, c) in (1..end).zip(&self.checkpoints) {
            c.delta.apply(&mut p);
            p.steps = c.step;
            if b >= first {
                states.push(p.clone());
            }
        }
        states
    }

    /// The golden process as it stands at the start of `bracket`: a clone of
    /// the one of `states` (the job's [`Trail::states`]) kept there, or of
    /// `template` for bracket 0. Panics when the job kept no state there.
    pub(crate) fn state_at(
        &self,
        template: &Process,
        states: &[Process],
        bracket: usize,
    ) -> Process {
        if bracket == 0 {
            return template.clone();
        }
        let step = self.bracket_step(bracket);
        let at = states.binary_search_by_key(&step, |s| s.steps);
        states[at.expect("the job keeps a state at every bracket it hops to")].clone()
    }

    /// Executions of `point`'s static instruction counted in `counts`.
    fn count_at(&self, counts: &[u32], point: &InjectionPoint) -> u64 {
        self.ranges
            .get(point.module.0 as usize)
            .and_then(|fs| fs.get(point.func.0 as usize))
            .and_then(|range| counts[range.clone()].get(point.inst))
            .map_or(0, |&n| n as u64)
    }

    /// The bracket `point` fires in: the number of checkpoints its firing
    /// lies strictly past. The firing is past a checkpoint iff the
    /// checkpoint counted fewer than `nth` executions of the instruction,
    /// and the counts only grow along the trail.
    pub(crate) fn bracket_of(&self, point: &InjectionPoint) -> usize {
        self.checkpoints.partition_point(|c| self.count_at(&c.counts, point) < point.nth)
    }

    /// The step `bracket` starts at.
    pub(crate) fn bracket_step(&self, bracket: usize) -> u64 {
        bracket.checked_sub(1).map_or(0, |ci| self.checkpoints[ci].step)
    }

    /// `point`'s ordinal counted from the start of `bracket`: its absolute
    /// `nth` less the executions already behind the bracket's checkpoint.
    pub(crate) fn ordinal_in(&self, bracket: usize, point: &InjectionPoint) -> u64 {
        let start = bracket.checked_sub(1).map(|ci| &self.checkpoints[ci].counts);
        point.nth - start.map_or(0, |counts| self.count_at(counts, point))
    }
}

impl Campaign {
    /// Derive the golden run's instruction-mix counters from the execution
    /// profile — `mix.<mnemonic>` weighted by dynamic execution count. Done
    /// post-hoc against the already-collected [`Profile`], so the simulation
    /// loops are never instrumented for it.
    pub(crate) fn record_instruction_mix(&self, hooks: &dyn Hooks) {
        for (m, funcs) in self.profile.iter().enumerate() {
            for (f, counts) in funcs.iter().enumerate() {
                for (i, &n) in counts.iter().enumerate() {
                    if n == 0 {
                        continue;
                    }
                    let Some(inst) = self.inst_at(m, f, i) else {
                        continue;
                    };
                    hooks.add(mix_counter(inst.kind_name()), n);
                }
            }
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::tiny_workload;
    use simx::{advance_to_step, CompiledEngine, InterpEngine, ModuleId};
    use tinyir::FuncId;

    impl Trail {
        /// Brackets the trail cuts the golden run into.
        pub(crate) fn brackets(&self) -> usize {
            self.checkpoints.len() + 1
        }
    }
    use opt::OptLevel;

    /// A golden run that would never end fails at the bound (like a
    /// trapping one) instead of spinning where no cancel is polled.
    #[test]
    #[should_panic(expected = "golden run of tiny exceeds 65536 steps")]
    fn golden_run_still_going_at_the_bound_fails() {
        let w = tiny_workload(i64::MAX as u64);
        let app = care::compile(&w.module, OptLevel::O1);
        let mut template = care::build_process(&app, &[]);
        template.start(w.entry, &w.args);
        let engine = CompiledEngine::for_image(&template.image);
        Trail::record(&template, &engine, w.name, 1 << 16);
    }

    /// What `record` leaves, stated on the trail itself — for the five
    /// default programs at both levels and a synthetic loop long enough to
    /// halve the trail at least twice.
    #[test]
    fn trail_invariants_hold_for_every_program_length() {
        let mut programs: Vec<(workloads::Workload, OptLevel)> = Vec::new();
        for level in [OptLevel::O0, OptLevel::O1] {
            programs.extend(workloads::all().into_iter().map(|w| (w, level)));
        }
        programs.push((tiny_workload(40_000), OptLevel::O1));
        for (w, level) in programs {
            let app = care::compile(&w.module, level);
            let campaign = Campaign::prepare(&w, app, vec![]);
            let (trail, golden) = (&campaign.trail, &campaign.profile);
            let at = format!("{} at {level:?}", w.name);
            // The campaign recorded on its compiled engine; the stepping
            // reference (the fast loop, one step at a time) records the same.
            let (interp, interp_golden, interp_profile) =
                Trail::record(&campaign.template, &InterpEngine, w.name, MAX_GOLDEN_STEPS);
            let want = (campaign.golden_steps, golden);
            assert_eq!((interp_golden.steps, &interp_profile), want, "{at}");
            assert_eq!(interp.checkpoints.len(), trail.checkpoints.len(), "{at}");
            for (a, b) in interp.checkpoints.iter().zip(&trail.checkpoints) {
                assert!(a.step == b.step && a.counts == b.counts, "{at}: counts at {}", b.step);
            }
            let template = &campaign.template;
            let brackets = trail.brackets();
            let states = trail.states(template, 0..brackets);
            let interp_states = interp.states(template, 0..brackets);
            assert_eq!(interp_states.len(), states.len(), "{at}");
            for (a, b) in interp_states.iter().zip(&states) {
                assert!(a.steps == b.steps && a.same_state(b), "{at}: state at {}", b.steps);
            }
            assert!(brackets <= MAX_CHECKPOINTS, "{at}: {} checkpoints", brackets - 1);
            for b in 1..brackets {
                assert!(trail.bracket_step(b - 1) < trail.bracket_step(b), "{at}: bracket {b}");
            }
            assert!(trail.bracket_step(brackets - 1) < campaign.golden_steps, "{at}: trail end");
            if w.name == "tiny" {
                // Each halving doubles the spacing from the 1 024-step quantum.
                assert!(trail.bracket_step(1) >= 4 << 10, "test premise: {at} halved twice");
            }
            // The walk keeps a state at exactly the starts of the brackets
            // it is given, bracket 0's (the template) and any past the
            // trail's last aside; every one stands at a checkpoint.
            let mid = brackets / 2;
            for starts in [0..brackets, 0..0, mid..mid, mid..mid + 3, 0..1, mid..brackets + 5] {
                let kept: Vec<u64> =
                    trail.states(template, starts.clone()).iter().map(|s| s.steps).collect();
                let held = starts.start.max(1)..starts.end.min(brackets);
                let want: Vec<u64> = held.map(|b| trail.bracket_step(b)).collect();
                assert_eq!(kept, want, "{at}: brackets {starts:?}");
            }
            // The state a hop starts from at every bracket's start is what a
            // plain replay of the template reaches there, on either engine:
            // the changes a halving diffed afresh included.
            let engines: [&dyn ExecutionEngine; 2] = [&InterpEngine, &campaign.compiled];
            for engine in engines {
                let mut replayed = template.clone();
                for b in 0..brackets {
                    let start = trail.bracket_step(b);
                    assert!(advance_to_step(engine, &mut replayed, start), "{at}: {b}");
                    let kept = trail.state_at(template, &states, b);
                    assert_eq!(kept.steps, start, "{at}: bracket {b}");
                    assert!(
                        kept.same_state(&replayed),
                        "{at}: bracket {b} kept unlike the replay on {}",
                        engine.name()
                    );
                }
            }
            for (m, funcs) in golden.iter().enumerate() {
                for (f, insts) in funcs.iter().enumerate() {
                    for (inst, &total) in insts.iter().enumerate() {
                        let (module, func) = (ModuleId(m as u32), FuncId(f as u32));
                        let last = InjectionPoint { module, func, inst, nth: total };
                        // Executions behind the start of bracket `b`; the
                        // end of the run closes the last bracket.
                        let behind = |b: usize| {
                            if b < brackets {
                                total - trail.ordinal_in(b, &last)
                            } else {
                                total
                            }
                        };
                        for b in 0..brackets {
                            let (from, to) = (behind(b), behind(b + 1));
                            assert!(from <= to && to <= total, "{at}: {last:?} shrinks in {b}");
                            if from == to {
                                continue;
                            }
                            // Executed inside bracket `b`: its first firing
                            // there is one execution past the bracket's
                            // checkpoint, its last is counted *in* the next.
                            for nth in [from + 1, to] {
                                let point = InjectionPoint { nth, ..last };
                                assert_eq!(trail.bracket_of(&point), b, "{at}: {point:?}");
                            }
                        }
                    }
                }
            }
        }
    }
}
