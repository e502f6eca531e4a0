//! The trellis cursor pass: group the sampled points once, then run one
//! cursor per populated bracket of the golden [`Trail`], forking the process
//! for each injection as its point fires and running that injection's
//! suffix from the fork there and then. A cursor runs only where it is
//! armed: it starts from a clone of the job's golden state at its bracket's
//! start, so the steps a pass *executes* — what `steps_prefix` reports —
//! are its armed windows, summed window by window, and the same at every
//! pool width.
//!
//! One list carries the pass: the *distinct* points in bracket order, each
//! with the injections that drew it. A cursor's points are a contiguous run
//! of that list, and a fork is used up by the suffix it starts, so there is
//! no point→snapshot map, no slot and no use count to keep.

use crate::campaign::{Campaign, CampaignConfig, JobControl};
use crate::injector::InjectionPoint;
use crate::suffix::InjectionRecord;
use crate::trail::Trail;
use simx::{ExecutionEngine, Instrument, Process, RunExit};
use telemetry::{timed, Event, Hooks};

/// One distinct injection point of a pass.
pub(crate) struct PlannedPoint {
    /// The trail bracket the point fires in.
    pub(crate) bracket: usize,
    point: InjectionPoint,
    /// The injections that sampled this point (they share its firing), as
    /// ascending positions in the pass's sample list.
    consumers: Vec<usize>,
}

/// Group `sampled` (one point per sample position) by point and tag each
/// distinct point with its bracket: the pass's work list, in bracket order
/// and in point order within a bracket.
pub(crate) fn plan_points(
    trail: &Trail,
    sampled: impl Iterator<Item = InjectionPoint>,
) -> Vec<PlannedPoint> {
    let mut by_point: Vec<(InjectionPoint, usize)> =
        sampled.enumerate().map(|(pos, point)| (point, pos)).collect();
    by_point.sort_unstable();
    // Sampling draws `nth` from the final profile, so every point fires
    // within the golden run, inside its bracket.
    let mut points: Vec<PlannedPoint> = by_point
        .chunk_by(|a, b| a.0 == b.0)
        .map(|same| PlannedPoint {
            bracket: trail.bracket_of(&same[0].0),
            point: same[0].0,
            consumers: same.iter().map(|&(_, pos)| pos).collect(),
        })
        .collect();
    points.sort_by_key(|p| p.bracket);
    points
}

/// What the cursor of one bracket did.
pub(crate) struct Hop {
    /// The steps the cursor executed.
    pub(crate) steps: u64,
    /// The points that fired.
    pub(crate) forks: usize,
    /// The records its suffixes produced, each with its sample position.
    pub(crate) records: Vec<(usize, InjectionRecord)>,
}

impl Campaign {
    /// Run the cursor of one bracket, which holds all of `points`, and the
    /// suffixes of the injections that drew them. The hop clones the job's
    /// golden state at the bracket's start ([`Trail::state_at`]) on the fuel
    /// a run to it would have left, and runs from there on the campaign's
    /// translation, whatever engine `cfg` selects, handed an [`Instrument`]
    /// whose stops are only the bracket's points, until they have fired; the
    /// stops stay with the instrument, so a fork is a plain paused process.
    /// Deterministic execution makes the cursor's timeline the golden one,
    /// so a fork is bit-identical whatever ran beside it. At each firing the
    /// hop hands every injection that drew the point, by sample position,
    /// to `suffix`, which returns its record (`None` when the injection was
    /// skipped): each gets a clone of the cursor, except the last one of the
    /// bracket's last firing, which gets the cursor itself — an injection
    /// point sampled once at the end of its bracket never pays a fork. So a
    /// cursor executes at most one checkpoint interval, and a program too
    /// short for checkpoints is the one-bracket case. The cursor's steps end
    /// at the bracket's last firing — the window tail past it is never
    /// simulated. `ctl` is checked before the hop, between firings and
    /// before each suffix.
    pub(crate) fn run_hop(
        &self,
        cfg: &CampaignConfig,
        states: &[Process],
        points: &[PlannedPoint],
        hooks: &dyn Hooks,
        ctl: &JobControl,
        suffix: &(dyn Fn(usize, Process) -> Option<InjectionRecord> + Sync),
    ) -> Hop {
        let bracket = points[0].bracket;
        let mut hop = Hop { steps: 0, forks: 0, records: Vec::new() };
        // A start past the budget is one a run from program start would
        // have run dry before reaching: the hop fails as that run did.
        let start_step = self.trail.bracket_step(bracket);
        let Some(fuel) = self.fuel_budget(cfg).checked_sub(start_step) else { return hop };
        if ctl.is_cancelled() {
            return hop;
        }
        let mut cursor = self.trail.state_at(&self.template, states, bracket);
        cursor.fuel = fuel;
        // Stop ordinals count from the first instrumented run: rebase the
        // absolute `nth` by the executions already behind the checkpoint
        // (a per-instruction shift, so `armed` stays sorted like `points`).
        let rebase = |p: &PlannedPoint| InjectionPoint {
            nth: self.trail.ordinal_in(bracket, &p.point),
            ..p.point
        };
        let armed: Vec<InjectionPoint> = points.iter().map(rebase).collect();
        let mut instr = Instrument::default();
        for p in &armed {
            instr.stops.add(p.module, p.func, p.inst, p.nth);
        }
        let mut run = |pos: usize, p: Process| {
            if let Some(record) = suffix(pos, p) {
                hop.records.push((pos, record));
            }
        };
        'walk: while !instr.stops.is_empty() && !ctl.is_cancelled() {
            let armed_at = cursor.steps;
            let exit = timed(hooks, "trellis.cursor_ns", || {
                self.compiled.run_instrumented(&mut cursor, &mut instr)
            });
            hop.steps += cursor.steps - armed_at;
            let (RunExit::BreakHit, Some((module, func, inst, nth))) =
                (exit, instr.stops.take_fired())
            else {
                // Completion (or a trap) with points still pending: those
                // indexes yield no record, exactly like a `run_one` whose
                // breakpoint never fired.
                break;
            };
            let fired = InjectionPoint { module, func, inst, nth };
            let slot = armed.binary_search(&fired).expect("fired what was armed");
            hop.forks += 1;
            if hooks.enabled() {
                hooks.emit(
                    Event::new("trellis.fork")
                        .field("bracket", bracket as u64)
                        .field("prefix_steps", cursor.steps),
                );
            }
            let (&last, rest) = points[slot].consumers.split_last().expect("a point was drawn");
            for &pos in rest {
                if ctl.is_cancelled() {
                    break 'walk;
                }
                run(pos, cursor.clone());
            }
            if ctl.is_cancelled() {
                break;
            }
            if instr.stops.is_empty() {
                run(last, cursor);
                break;
            }
            run(last, cursor.clone());
        }
        if hooks.enabled() {
            hooks.add("cursor.hops", (bracket > 0) as u64);
            hooks.add("cursor.window_steps", hop.steps);
            hooks.emit(
                Event::new("trellis.hop")
                    .field("bracket", bracket as u64)
                    .field("start_step", start_step)
                    .field("window_steps", hop.steps)
                    .field("snapshots", hop.forks as u64),
            );
        }
        hop
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::NoSink;
    use crate::fixtures::{
        cfg, hpccg_campaign, reference, run_heard, tiny_campaign, tiny_workload,
    };
    use crate::{CampaignReport, InjectionRecord};
    use simx::{advance_to_step, EngineKind, InterpEngine};
    use telemetry::NoTelemetry;

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
        let points: Vec<InjectionPoint> =
            (0..n).filter_map(|i| campaign.sample_point(&base, i).map(|(p, _)| p)).collect();
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

    /// The step the golden run stands at when `point` fires.
    fn firing_step(campaign: &Campaign, point: &InjectionPoint) -> u64 {
        let mut p = campaign.template.clone();
        let mut stop = Instrument::stop_after(point.module, point.func, point.inst, point.nth);
        let fired = InterpEngine.run_instrumented(&mut p, &mut stop);
        assert_eq!(fired, RunExit::BreakHit, "{point:?} never fired");
        p.steps
    }

    /// The hop rule as arithmetic: the steps the cursors execute to fire
    /// `fired` — each distinct point's bracket and firing step. Each bracket
    /// is reached from its start, where its hop lands, and its cursor runs
    /// from there to the bracket's last firing.
    fn modelled_prefix(trail: &Trail, fired: &[(usize, u64)]) -> u64 {
        let mut fired = fired.to_vec();
        fired.sort_unstable();
        (fired.chunk_by(|a, b| a.0 == b.0))
            .map(|hop| hop[hop.len() - 1].1 - trail.bracket_step(hop[0].0))
            .sum()
    }

    /// The parallel cursor pass is invisible in the report: at every pool
    /// width it is the same in full — records, snapshots deduplicated across
    /// brackets, one cursor per populated bracket — and the executed-prefix
    /// accounting is the hop rule's. Every hop lands on its bracket's start,
    /// so a cursor executes only its armed windows, wherever it runs.
    #[test]
    fn cursors_match_at_every_pool_width_and_split_the_prefix() {
        let campaign = hpccg_campaign();
        let trail = &campaign.trail;
        let config = cfg(60);
        let fired: Vec<(usize, u64)> = (0..60)
            .map(|i| campaign.sample_point(&config, i).expect("sample").0)
            .map(|point| (trail.bracket_of(&point), firing_step(&campaign, &point)))
            .collect();
        let populated: std::collections::BTreeSet<usize> = fired.iter().map(|f| f.0).collect();
        let (narrow, ctr) = rayon::with_threads(1, || run_heard(&campaign, &config));
        assert_eq!(narrow.cursor_shards, populated.len());
        // Held to the run-out reference by suffixes that did not run out.
        assert_eq!(reference(&campaign, &config), narrow.records);
        assert!(ctr("suffix.converged") > 0, "no suffix stopped at a golden state");
        assert!(ctr("care.converged") > 0, "no repaired run stopped at a golden state");
        assert!(ctr("cursor.hops") > 0, "the cursor never hopped to a checkpoint");
        assert_eq!(narrow.steps_prefix, modelled_prefix(trail, &fired));
        for width in [2, 4, 16] {
            let (wide, ctr) = rayon::with_threads(width, || run_heard(&campaign, &config));
            assert_eq!(narrow, wide, "the report moved at width {width}");
            assert!(ctr("suffix.converged") > 0, "no suffix stopped at a golden state at {width}");
        }
    }

    /// A campaign wide enough to hold `indices`. The cursors run on the
    /// campaign's translation whatever `engine` the config picks, so the
    /// tests of the cursors alone run them once.
    fn holding(indices: &[usize]) -> CampaignConfig {
        cfg(indices.iter().max().expect("indices") + 1)
    }

    /// Cursors, suffixes on both engines: the trellis over exactly
    /// `indices` must reproduce those indexes' `run_one` records. Returns
    /// the report and a reader of the counters a recorder heard (the same
    /// on both engines).
    fn hop_matches_run_one(
        campaign: &Campaign,
        indices: &[usize],
    ) -> (CampaignReport, impl Fn(&str) -> u64) {
        let [interp, compiled] = [EngineKind::Interp, EngineKind::Compiled].map(|engine| {
            let config = CampaignConfig { engine, ..holding(indices) };
            let reference: Vec<InjectionRecord> =
                indices.iter().filter_map(|&i| campaign.run_one(&config, i)).collect();
            assert_eq!(reference.len(), indices.len(), "{engine:?}: a reference run skipped");
            let rec = telemetry::Recorder::new();
            let hop = campaign.run_selected(&config, indices, &rec, &JobControl::new(), &NoSink);
            assert_eq!(reference, hop.records, "{engine:?}: hop diverged from run_one");
            let cursor: std::collections::BTreeMap<_, _> =
                rec.drain().counters.into_iter().filter(|c| c.0.starts_with("cursor.")).collect();
            (hop, cursor)
        });
        assert_eq!(interp, compiled, "engines disagree on the report or the cursor's counters");
        let (report, cursor) = interp;
        (report, move |name: &str| cursor.get(name).copied().unwrap_or(0))
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
            let bracket = campaign.trail.bracket_of(&point);
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

    /// The mechanism, in exact counts: the cursors run instrumented only
    /// inside the brackets that hold points — one cursor and at most one
    /// checkpoint interval each — and execute nothing else: every prefix
    /// step was armed, and each visited bracket past the first one of the
    /// program is one hop.
    #[test]
    fn cursor_runs_instrumented_only_inside_visited_brackets() {
        let campaign = hpccg_campaign();
        let trail = &campaign.trail;
        // The next bracket's start ends bracket `b`; the last runs to exit.
        let end_of = |b: usize| {
            if b + 1 < trail.brackets() {
                trail.bracket_step(b + 1)
            } else {
                campaign.golden_steps
            }
        };
        let config = holding(&[0, 1, 2, 3]);
        let visited: std::collections::BTreeSet<usize> = (0..4)
            .map(|i| trail.bracket_of(&campaign.sample_point(&config, i).expect("sample").0))
            .collect();
        let bracket_steps: u64 = visited.iter().map(|&b| end_of(b) - trail.bracket_step(b)).sum();
        let (report, ctr) = run_heard(&campaign, &config);
        let window = ctr("cursor.window_steps");
        assert_eq!(report.cursor_shards, visited.len());
        assert_eq!(window, report.steps_prefix, "a step ran unarmed");
        assert!(
            window <= bracket_steps,
            "{window} instrumented steps outgrew the {} visited brackets' {bracket_steps}",
            visited.len(),
        );
        assert!(window > 0, "nothing ran armed");
        assert_eq!(ctr("cursor.hops"), visited.iter().filter(|&&b| b > 0).count() as u64);
    }

    /// The hop rule, in exact counts: a hop lands on its bracket's start
    /// having executed nothing, so a cursor executes from the bracket's
    /// start to the firing; and a later bracket is hopped to as well, never
    /// walked to from an earlier one.
    #[test]
    fn a_hop_lands_on_its_bracket_start_and_a_later_bracket_hops_too() {
        let campaign = hpccg_campaign();
        let trail = &campaign.trail;
        let one = find_indices(&campaign, 1, |_, b, _| b > 0);
        let (point, _) = campaign.sample_point(&cfg(1), one[0]).expect("sample");
        let b = trail.bracket_of(&point);
        let (report, ctr) = hop_matches_run_one(&campaign, &one);
        assert_eq!(ctr("cursor.hops"), 1, "bracket {b}");
        assert_eq!(report.steps_prefix, firing_step(&campaign, &point) - trail.bracket_step(b));

        // Two brackets, with a bracket between them.
        let later = find_indices(&campaign, 2, |chosen, b, _| match chosen {
            [] => b > 0,
            [(first, _)] => first + 1 < b,
            _ => false,
        });
        let [first, second] =
            [0, 1].map(|at| campaign.sample_point(&cfg(1), later[at]).expect("sample").0);
        let (b1, b2) = (trail.bracket_of(&first), trail.bracket_of(&second));
        let (report, ctr) = hop_matches_run_one(&campaign, &later);
        assert_eq!(ctr("cursor.hops"), 2, "the second bracket was walked to");
        assert_eq!(
            report.steps_prefix,
            (firing_step(&campaign, &first) - trail.bracket_step(b1))
                + (firing_step(&campaign, &second) - trail.bracket_step(b2))
        );
    }

    /// A hop to a bracket that starts past the budget fails as a run to it
    /// would: on a budget short of the golden run, a point whose bracket
    /// starts past the budget never fires — no snapshot, no record, as
    /// `run_one` runs dry before its breakpoint.
    #[test]
    fn a_hop_to_a_bracket_past_the_budget_fails_like_a_run_to_it() {
        let w = tiny_workload(150_000);
        let app = care::compile(&w.module, opt::OptLevel::O1);
        let campaign = Campaign::prepare(&w, app, vec![]);
        let trail = &campaign.trail;
        let budget = campaign.fuel_budget(&CampaignConfig { hang_factor: 0, ..cfg(1) });
        assert!(budget < campaign.golden_steps, "test premise: the floor must not cover the run");
        let indices = find_indices(&campaign, 3, |_, b, _| trail.bracket_step(b) > budget);
        let starved = CampaignConfig { hang_factor: 0, ..holding(&indices) };
        assert!(indices.iter().all(|&i| campaign.run_one(&starved, i).is_none()));
        let hop =
            campaign.run_selected(&starved, &indices, &NoTelemetry, &JobControl::new(), &NoSink);
        assert_eq!(hop.trellis_snapshots, 0, "forked past the budget");
        assert!(hop.records.is_empty(), "{:?}", hop.records);
        assert_eq!(hop.steps_prefix, 0, "the failed hop executed nothing");
        // The same points on the default budget fire and are recorded.
        let fed = CampaignConfig { hang_factor: 20, ..starved };
        let hop = campaign.run_selected(&fed, &indices, &NoTelemetry, &JobControl::new(), &NoSink);
        assert_eq!(hop.trellis_snapshots, 3);
    }

    /// A point firing on the very step a checkpoint was taken at is counted
    /// *in* that checkpoint, so its bracket is the previous one: the cursor
    /// arms there and walks the whole interval to fire on its last step.
    #[test]
    fn point_firing_exactly_on_a_checkpoint_step_belongs_to_the_bracket_before() {
        let campaign = hpccg_campaign();
        let trail = &campaign.trail;
        // What the golden run executed as the last step before each bracket.
        let on_checkpoint: Vec<InjectionPoint> = (1..trail.brackets())
            .map(|b| {
                let mut p = campaign.template.clone();
                assert!(advance_to_step(&InterpEngine, &mut p, trail.bracket_step(b) - 1));
                let f = p.frame();
                let (module, func, inst) = (f.module, f.func, f.idx);
                // That execution's ordinal: every execution of the
                // instruction, less those from bracket `b` on.
                let total = campaign.profile[module.0 as usize][func.0 as usize][inst];
                let last = InjectionPoint { module, func, inst, nth: total };
                InjectionPoint { nth: total - trail.ordinal_in(b, &last), ..last }
            })
            .collect();
        let indices = find_indices(&campaign, 1, |_, _, p| on_checkpoint.contains(p));
        let (point, _) = campaign.sample_point(&cfg(1), indices[0]).expect("sample");
        let ci = on_checkpoint.iter().position(|p| *p == point).expect("picked from the list");
        assert_eq!(trail.bracket_of(&point), ci, "bracket must start one checkpoint earlier");
        let (report, _) = hop_matches_run_one(&campaign, &indices);
        // Attributed from the program's start, executed from the bracket's
        // start, where the hop cloned the job's golden state.
        assert_eq!(report.records[0].split.prefix, trail.bracket_step(ci + 1));
        assert_eq!(report.steps_prefix, trail.bracket_step(ci + 1) - trail.bracket_step(ci));
    }

    /// Two points of one bracket share one hop and one armed set.
    #[test]
    fn two_points_in_one_bracket_fork_from_one_hop() {
        let campaign = hpccg_campaign();
        let indices = find_indices(&campaign, 2, |chosen, bracket, _| {
            bracket > 0 && chosen.iter().all(|&(b, _)| b == bracket)
        });
        let (report, _) = hop_matches_run_one(&campaign, &indices);
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
        let (report, _) = hop_matches_run_one(&campaign, &indices);
        assert_eq!(report.trellis_snapshots, 2);
    }

    /// A cancel observed between hops stops the pass: at width 1, where the
    /// cursors run one after another in bracket order, the brackets after
    /// the cancel are never visited, and nothing they hold is recorded.
    #[test]
    fn cancel_between_hops_leaves_later_brackets_unvisited() {
        /// Cancels the job at the cursor's first fork.
        struct CancelOnFork<'a>(&'a JobControl<'a>);
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
        let indices = find_indices(&campaign, 3, |chosen, bracket, _| {
            chosen.iter().all(|&(b, _)| b != bracket)
        });
        // The first firing, and what the cursor ran to get there: from the
        // start of its bracket.
        let (first_firing, bracket) = indices
            .iter()
            .map(|&i| campaign.sample_point(&cfg(1), i).expect("sample").0)
            .map(|point| (firing_step(&campaign, &point), campaign.trail.bracket_of(&point)))
            .min()
            .expect("three points");
        let executed = first_firing - campaign.trail.bracket_step(bracket);
        let (config, ctl) = (holding(&indices), JobControl::new());
        let report = rayon::with_threads(1, || {
            campaign.run_selected(&config, &indices, &CancelOnFork(&ctl), &ctl, &NoSink)
        });
        assert!(report.cancelled);
        assert_eq!(report.trellis_snapshots, 1, "hopped on after the cancel");
        assert_eq!(report.steps_prefix, executed, "cursor kept walking");
        assert!(report.records.is_empty() && ctl.classified() == 0);
    }
}
