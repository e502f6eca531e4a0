//! The trellis cursor pass: group the sampled points once, then walk one
//! cursor per shard along the golden [`Trail`], forking a snapshot per point.
//!
//! One list carries the pass: the *distinct* points in bracket order, each
//! with the injections that drew it and the slot its snapshot lands in. A
//! shard is a contiguous run of that list, so there is no point→snapshot
//! map and no use count to keep.

use crate::campaign::{Campaign, CampaignConfig, JobControl};
use crate::injector::InjectionPoint;
use crate::trail::Trail;
use rayon::prelude::*;
use simx::{advance_to_step, BreakSet, ExecutionEngine, Process, RunExit};
use telemetry::{Event, Hooks};

/// One distinct injection point of a pass.
pub(crate) struct PlannedPoint {
    /// The trail bracket the point fires in.
    bracket: usize,
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

/// Give each of the `samples` positions the paused process its suffix
/// starts from. The *last* consumer of a snapshot takes ownership instead
/// of cloning it — an injection point sampled once (the common case) never
/// pays a fork at all. A position whose point never fired gets `None`.
pub(crate) fn hand_out(points: Vec<PlannedPoint>, samples: usize) -> Vec<Option<Process>> {
    let mut starts: Vec<Option<Process>> = (0..samples).map(|_| None).collect();
    for PlannedPoint { consumers, snapshot, .. } in points {
        let (Some(snap), Some((&last, rest))) = (snapshot, consumers.split_last()) else {
            continue;
        };
        for &pos in rest {
            starts[pos] = Some(snap.clone());
        }
        starts[last] = Some(snap);
    }
    starts
}

impl Campaign {
    /// The cursor pass: cut `points` at the trail's shard boundaries and
    /// walk one cursor per populated shard (empty ones never run),
    /// concurrently on the pool, under the campaign fuel budget; every
    /// point that fires gets its snapshot. Deterministic execution makes
    /// every cursor's timeline *the* golden timeline, so the snapshot forked
    /// for a point is bit-identical for every shard count. Returns the
    /// steps the cursors executed and how many ran.
    pub(crate) fn run_cursors(
        &self,
        cfg: &CampaignConfig,
        points: &mut [PlannedPoint],
        engine: &dyn ExecutionEngine,
        hooks: &dyn Hooks,
        ctl: &JobControl,
    ) -> (u64, usize) {
        let k = cfg.cursor_shards.unwrap_or_else(rayon::current_num_threads).max(1);
        let mut shards: Vec<(usize, &mut [PlannedPoint])> = Vec::new();
        let mut rest = points;
        for (j, end) in self.trail.shard_ends(k).into_iter().enumerate() {
            let at = rest.partition_point(|p| p.bracket < end);
            let (shard, tail) = std::mem::take(&mut rest).split_at_mut(at);
            rest = tail;
            if !shard.is_empty() {
                shards.push((j, shard));
            }
        }
        let ran = shards.len();
        let steps: Vec<u64> = shards
            .into_par_iter()
            .map(|(j, shard)| self.run_cursor_shard(cfg, j, shard, engine, hooks, ctl))
            .collect();
        (steps.iter().sum(), ran)
    }

    /// Walk one cursor shard by hopping between the brackets that hold its
    /// points: replay to the bracket's checkpoint *uninstrumented* on the
    /// campaign's engine (translated ops on a compiled campaign), arm a
    /// [`BreakSet`] holding only that bracket's points, run instrumented
    /// until they have fired — forking a paused snapshot at each — then
    /// disarm and hop on. The instrumented stretches are at most one
    /// checkpoint interval per visited bracket; everything between is
    /// replay. A program too short for checkpoints is the one-bracket case.
    /// Returns the steps this cursor actually executed, which end at its
    /// last firing: the cursor is dropped there, the window tail past it is
    /// never re-simulated.
    fn run_cursor_shard(
        &self,
        cfg: &CampaignConfig,
        shard_idx: usize,
        shard: &mut [PlannedPoint],
        engine: &dyn ExecutionEngine,
        hooks: &dyn Hooks,
        ctl: &JobControl,
    ) -> u64 {
        let t0 = hooks.enabled().then(std::time::Instant::now);
        let mut cursor = self.template.clone();
        cursor.fuel = self.fuel_budget(cfg);
        let mut replay_steps = 0u64;
        'hops: for points in shard.chunk_by_mut(|a, b| a.bracket == b.bracket) {
            let bracket = points[0].bracket;
            let hop_from = cursor.steps;
            if ctl.is_cancelled()
                || !advance_to_step(engine, &mut cursor, self.trail.bracket_step(bracket))
            {
                // Cancelled — or a failed replay, unreachable for a
                // prepared campaign (the golden run passed and the budget
                // covers it): degrade like an unfired breakpoint, the
                // remaining indexes yield no record.
                break;
            }
            replay_steps += cursor.steps - hop_from;
            // Breakpoint ordinals count from arming: rebase the absolute
            // `nth` by the executions already behind the checkpoint (a
            // per-instruction shift, so `armed` stays sorted like `points`).
            let rebase = |p: &PlannedPoint| InjectionPoint {
                nth: self.trail.ordinal_in(bracket, &p.point),
                ..p.point
            };
            let armed: Vec<InjectionPoint> = points.iter().map(rebase).collect();
            let mut breaks = BreakSet::new();
            for p in &armed {
                breaks.add(p.module, p.func, p.inst, p.nth);
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
                let (RunExit::BreakHit, Some((module, func, inst, nth))) =
                    (exit, breaks.take_fired())
                else {
                    // Completion (or a trap) with points still pending:
                    // those indexes yield no record, exactly like a
                    // `run_one` whose breakpoint never fired.
                    break 'hops;
                };
                let fired = InjectionPoint { module, func, inst, nth };
                let slot = armed.binary_search(&fired).expect("fired what was armed");
                points[slot].snapshot = Some(cursor.clone());
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
            let snapshots = shard.iter().filter(|p| p.snapshot.is_some()).count();
            hooks.emit(
                Event::new("trellis.shard")
                    .field("shard", shard_idx as u64)
                    .field("start_step", self.trail.bracket_step(shard[0].bracket))
                    .field("window_steps", cursor.steps - replay_steps)
                    .field("snapshots", snapshots as u64),
            );
        }
        cursor.steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::NoSink;
    use crate::fixtures::{cfg, hpccg_campaign, reference, run_heard, tiny_campaign};
    use crate::{CampaignReport, InjectionRecord};
    use simx::{EngineKind, InterpEngine};
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

    /// The parallel cursor pass is invisible in the records: any explicit
    /// shard count reproduces the single cursor bit for bit, each shard
    /// replays its boundary prefix (so the executed-prefix accounting
    /// grows with K while attributed records stay fixed), and snapshots
    /// dedup across shards exactly as before.
    #[test]
    fn sharded_cursors_match_single_cursor_and_split_the_prefix() {
        let campaign = hpccg_campaign();
        let config = |shards| CampaignConfig { cursor_shards: Some(shards), ..cfg(60) };
        let (single, ctr) = run_heard(&campaign, &config(1));
        assert_eq!(single.cursor_shards, 1);
        // Held to the run-out reference by suffixes that did not run out.
        assert_eq!(reference(&campaign, &config(1)), single.records);
        assert!(ctr("suffix.converged") > 0, "no suffix stopped at a golden state");
        for k in [2, 4, 16] {
            let (sharded, ctr) = run_heard(&campaign, &config(k));
            assert_eq!(single.records, sharded.records, "records diverged at {k} shards");
            assert!(ctr("suffix.converged") > 0, "no suffix stopped at a golden state at {k}");
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

    /// The mechanism, in exact counts: a cursor runs instrumented only
    /// inside the brackets that hold its points — at most one checkpoint
    /// interval each — and replays everything between uninstrumented; the
    /// two spans still add up to every prefix step the cursor executed.
    #[test]
    fn cursor_is_instrumented_only_inside_visited_brackets() {
        let campaign = hpccg_campaign();
        let trail = &campaign.trail;
        // The next bracket's start ends bracket `b`; the last runs to exit.
        let end_of = |b: usize| {
            if b + 1 < trail.brackets() { trail.bracket_step(b + 1) } else { campaign.golden_steps }
        };
        for engine in [EngineKind::Interp, EngineKind::Compiled] {
            let config = one_cursor(engine, &[0, 1, 2, 3]);
            let visited: std::collections::BTreeSet<usize> = (0..4)
                .map(|i| trail.bracket_of(&campaign.sample_point(&config, i).expect("sample").0))
                .collect();
            let bracket_steps: u64 = visited
                .iter()
                .map(|&b| end_of(b) - trail.bracket_step(b))
                .sum();
            let (report, ctr) = run_heard(&campaign, &config);
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
        let report = hop_matches_run_one(&campaign, &indices);
        assert_eq!(report.steps_prefix, trail.bracket_step(ci + 1));
        assert_eq!(report.records[0].split.prefix, trail.bracket_step(ci + 1));
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
}
