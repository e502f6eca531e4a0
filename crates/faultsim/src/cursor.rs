//! The trellis cursor pass: group the sampled points once, then run one
//! cursor per populated bracket of the golden [`Trail`], forking a snapshot
//! per point. A cursor runs only where it is armed: it starts from a clone
//! of the job's golden state at its bracket's start, so the steps a pass
//! *executes* — what `steps_prefix` reports — are its armed windows, summed
//! window by window, and the same at every pool width.
//!
//! One list carries the pass: the *distinct* points in bracket order, each
//! with the injections that drew it and the slot its snapshot lands in. A
//! cursor's points are a contiguous run of that list, so there is no
//! point→snapshot map and no use count to keep.

use crate::campaign::{Campaign, CampaignConfig, JobControl};
use crate::injector::InjectionPoint;
use crate::trail::Trail;
use rayon::prelude::*;
use simx::{ExecutionEngine, Instrument, Process, RunExit};
use telemetry::{Event, Hooks};

/// One distinct injection point of a pass.
pub(crate) struct PlannedPoint {
    /// The trail bracket the point fires in.
    pub(crate) bracket: usize,
    point: InjectionPoint,
    /// The injections that sampled this point (they share its snapshot), as
    /// ascending positions in the pass's sample list.
    consumers: Vec<usize>,
    /// The paused pre-injection process a cursor forks at the firing;
    /// stays `None` when the point never fires (cancel, or a program that
    /// ended with points pending).
    pub(crate) snapshot: Option<Process>,
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
            snapshot: None,
        })
        .collect();
    points.sort_by_key(|p| p.bracket);
    points
}

/// Give each job — one per sample position, in sample order — the paused
/// process its suffix starts from, in its own slot: no second list of
/// processes is built beside the jobs. The *last* consumer of a snapshot
/// takes ownership instead of cloning it — an injection point sampled once
/// (the common case) never pays a fork at all. A job whose point never
/// fired keeps `None`.
pub(crate) fn hand_out<T>(points: Vec<PlannedPoint>, jobs: &mut [(T, Option<Process>)]) {
    for PlannedPoint { consumers, snapshot, .. } in points {
        let (Some(snap), Some((&last, rest))) = (snapshot, consumers.split_last()) else {
            continue;
        };
        for &pos in rest {
            jobs[pos].1 = Some(snap.clone());
        }
        jobs[last].1 = Some(snap);
    }
}

impl Campaign {
    /// The cursor pass: one cursor per populated bracket of `points` (in
    /// bracket order), concurrently on the pool, under the campaign fuel
    /// budget, each starting from the job's golden `states`
    /// ([`Trail::states`], one at the start of every populated bracket);
    /// every point that fires gets its snapshot. Deterministic execution
    /// makes every cursor's timeline *the* golden timeline, so the snapshot
    /// forked for a point is bit-identical whatever ran beside it. Returns
    /// the steps the cursors executed and how many ran.
    pub(crate) fn run_cursors(
        &self,
        cfg: &CampaignConfig,
        states: &[Process],
        points: &mut [PlannedPoint],
        hooks: &dyn Hooks,
        ctl: &JobControl,
    ) -> (u64, usize) {
        let hops: Vec<&mut [PlannedPoint]> =
            points.chunk_by_mut(|a, b| a.bracket == b.bracket).collect();
        let ran = hops.len();
        let steps: u64 =
            hops.into_par_iter().map(|points| self.run_hop(cfg, states, points, hooks, ctl)).sum();
        (steps, ran)
    }

    /// Run the cursor of one bracket, which holds all of `points`. The hop
    /// clones the job's golden state at the bracket's start
    /// ([`Trail::state_at`]) on the fuel a run to it would have left, and
    /// runs from there on the campaign's translation, whatever engine `cfg`
    /// selects, handed an [`Instrument`] whose stops are only the bracket's
    /// points, until they have fired — forking a paused snapshot at each;
    /// the stops stay with the instrument, so a fork is a plain paused
    /// process. So a cursor executes at most one checkpoint interval. A
    /// program too short for checkpoints is the one-bracket case. Returns
    /// the steps the cursor executed: they end at the bracket's last firing,
    /// where the cursor is dropped — the window tail past it is never
    /// simulated.
    fn run_hop(
        &self,
        cfg: &CampaignConfig,
        states: &[Process],
        points: &mut [PlannedPoint],
        hooks: &dyn Hooks,
        ctl: &JobControl,
    ) -> u64 {
        let t0 = hooks.enabled().then(std::time::Instant::now);
        let bracket = points[0].bracket;
        // A start past the budget is one a run from program start would
        // have run dry before reaching: the hop fails as that run did.
        let start_step = self.trail.bracket_step(bracket);
        let Some(fuel) = self.fuel_budget(cfg).checked_sub(start_step) else { return 0 };
        if ctl.is_cancelled() {
            return 0;
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
        let mut window_steps = 0;
        while !instr.stops.is_empty() && !ctl.is_cancelled() {
            let armed_at = cursor.steps;
            let exit = self.compiled.run_instrumented(&mut cursor, &mut instr);
            window_steps += cursor.steps - armed_at;
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
            points[slot].snapshot = Some(cursor.clone());
            if hooks.enabled() {
                hooks.emit(
                    Event::new("trellis.fork")
                        .field("bracket", bracket as u64)
                        .field("prefix_steps", cursor.steps),
                );
            }
        }
        if hooks.enabled() {
            hooks.add("cursor.hops", (bracket > 0) as u64);
            hooks.add("cursor.window_steps", window_steps);
            hooks.record("trellis.hop_ns", t0.expect("enabled").elapsed().as_nanos() as u64);
            let snapshots = points.iter().filter(|p| p.snapshot.is_some()).count();
            hooks.emit(
                Event::new("trellis.hop")
                    .field("bracket", bracket as u64)
                    .field("start_step", start_step)
                    .field("window_steps", window_steps)
                    .field("snapshots", snapshots as u64),
            );
        }
        window_steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::NoSink;
    use crate::fixtures::{cfg, hpccg_campaign, reference, run_heard, tiny_campaign, tiny_workload};
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

    /// The step the golden run stands at when `point` fires.
    fn firing_step(campaign: &Campaign, point: &InjectionPoint) -> u64 {
        let mut p = campaign.template.clone();
        let mut stop = Instrument::stop_after(point.module, point.func, point.inst, point.nth);
        assert_eq!(p.run_instrumented(&mut stop), RunExit::BreakHit, "{point:?} never fired");
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
            if b + 1 < trail.brackets() { trail.bracket_step(b + 1) } else { campaign.golden_steps }
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
        let indices =
            find_indices(&campaign, 3, |chosen, bracket, _| chosen.iter().all(|&(b, _)| b != bracket));
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
