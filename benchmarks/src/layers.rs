//! The per-layer metrics of a traced run.
//!
//! Host times are floors of the probes in [`crate::adapter::probes`],
//! interleaved round-robin; counts are exact and come from reports, store
//! and server statistics and a telemetry recorder; the `harness.*` and
//! `trace.*` diagnostics describe the run itself and gate nothing.

use crate::adapter::probes::{probes, Fixture, Probe};
use crate::adapter::{self, CampaignReport};
use crate::meter::{Meter, Ops};
use crate::scenarios::{steps_and_injections, Scenario};
use crate::spans::{self, Span, Tracer};
use crate::stats::{floor3, median, round_robin, Role, MIN_SAMPLES};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// What the measured and traced passes hand to the layer pass.
pub struct PassResults<'a> {
    pub scenario: &'a dyn Scenario,
    pub measured: &'a Meter,
    pub traced: &'a Meter,
    pub spans: &'a [Span],
    /// Process CPU milliseconds per injection over the measured pass.
    pub cpu_ms_per_inj: f64,
}

/// Σ floors of the bulk series a meter holds (those with ≥3 samples).
fn bulk_floor_sum(m: &Meter) -> f64 {
    m.series
        .iter()
        .filter(|s| matches!(s.role, Role::Bulk { .. }))
        .filter_map(|s| floor3(&s.samples))
        .sum()
}

/// Cost of recording one span, from batches of empty ones.
fn span_cost_s() -> f64 {
    const BATCH: usize = 1000;
    let samples: Vec<f64> = (0..MIN_SAMPLES)
        .map(|_| {
            let tr = Tracer::on(0, Instant::now());
            let t0 = Instant::now();
            for _ in 0..BATCH {
                tr.span("harness.empty", || std::hint::black_box(0));
            }
            t0.elapsed().as_secs_f64() / BATCH as f64
        })
        .collect();
    floor3(&samples).expect("MIN_SAMPLES >= 3")
}

fn report_shares(reports: &[&CampaignReport], out: &mut BTreeMap<&'static str, f64>) {
    let sum = |f: fn(&CampaignReport) -> u64| reports.iter().map(|r| f(r)).sum::<u64>() as f64;
    let (steps, injections) = steps_and_injections(reports);
    let (steps, injections) = (steps.max(1) as f64, injections.max(1) as f64);
    out.insert("faultsim.prefix_share", sum(|r| r.steps_prefix) / steps);
    out.insert("faultsim.suffix_share", sum(|r| r.steps_suffix) / steps);
    out.insert("faultsim.care_share", sum(|r| r.steps_care) / steps);
    out.insert("faultsim.snapshots_per_inj", sum(|r| r.trellis_snapshots as u64) / injections);
    let evaluated = sum(|r| r.care_evaluated as u64).max(1.0);
    let covered = sum(|r| r.care_covered as u64);
    out.insert("faultsim.care_coverage", covered / evaluated);
    out.insert("safeguard.recoveries_per_covered", sum(|r| r.total_recoveries) / covered.max(1.0));
    out.insert("safeguard.decline_share", sum(|r| adapter::declined(r) as u64) / evaluated);
}

/// Run every probe `MIN_SAMPLES` times, interleaved, and floor each.
fn run_probes(fx: &mut Fixture, list: &[Probe]) -> BTreeMap<&'static str, f64> {
    let mut samples: Vec<Vec<f64>> = vec![Vec::with_capacity(MIN_SAMPLES); list.len()];
    for (_, k) in round_robin(MIN_SAMPLES, list.len()) {
        let (dt, units) = (list[k].run)(fx);
        samples[k].push(dt.as_secs_f64() / units);
    }
    list.iter()
        .zip(&samples)
        .map(|(p, s)| (p.metric, p.scale.apply(floor3(s).expect("MIN_SAMPLES >= 3"))))
        .collect()
}

/// Every per-layer metric by name. `scratch` is a directory of the
/// benchmark's own; the probes' files live and die under it.
pub fn measure(
    pass: &PassResults,
    scratch: &Path,
    ops: &mut Ops,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut fx = Fixture::new(&scratch.join("probes"))?;
    let list = probes();
    let mut out = run_probes(&mut fx, &list);
    ops.absorb((list.len() * MIN_SAMPLES) as u64, std::mem::take(&mut fx.failures));

    let served = out.remove("_served_job").unwrap_or(f64::NAN);
    let local = out.remove("_local_job").unwrap_or(f64::NAN);
    let pair = out.remove("_served_pair").unwrap_or(f64::NAN);
    out.insert("careserve.service_tax_ms", served - local);
    out.insert("careserve.pair_ratio", pair / served);

    out.insert("workloads.ir_insts", fx.ir_insts() as f64);
    out.insert("opt.ir_insts_after", fx.ir_insts_after_opt() as f64);
    out.insert("armor.kernels", fx.armor_kernels() as f64);
    out.insert("armor.table_bytes", fx.armor_table_bytes() as f64);
    out.insert("simx.fused_share", fx.fused_share());
    out.insert("carestore.bytes_per_rec", fx.bytes_per_record());
    let (hit_rate, miss_per_kstep) = fx.tlb();
    out.insert("tinyir.tlb_hit_rate", hit_rate);
    out.insert("tinyir.tlb_miss_per_kstep", miss_per_kstep);
    let stored = (fx.store_hits + fx.store_misses).max(1) as f64;
    out.insert("carestore.hit_share", fx.store_hits as f64 / stored);
    out.insert("rayon.steals_per_batch", fx.pool_steals as f64 / fx.pool_batches.max(1) as f64);
    let server = fx.server_stats();
    let probed = (server.cache_hits + server.cache_misses).max(1) as f64;
    out.insert("careserve.cache_hit_share", server.cache_hits as f64 / probed);
    out.insert("careserve.rejected", server.jobs_rejected as f64);
    drop(fx);

    report_shares(&pass.scenario.bulk_reports(), &mut out);
    // The workload's own store or server, where it has one, overrides the
    // probes' miniature.
    out.extend(pass.scenario.layer_extras(pass.measured));

    out.insert(
        "telemetry.on_overhead_share",
        bulk_floor_sum(pass.traced) / bulk_floor_sum(pass.measured) - 1.0,
    );

    let timed: Vec<_> = pass.measured.series.iter().filter(|s| s.samples.len() >= 3).collect();
    let p50: f64 = timed.iter().filter_map(|s| median(&s.samples)).sum();
    let floor: f64 = timed.iter().map(|s| s.floor()).sum();
    out.insert("harness.noise_ratio", p50 / floor);
    out.insert("harness.samples_min", pass.measured.samples_min() as f64);
    out.insert("harness.cpu_ms_per_inj", pass.cpu_ms_per_inj);

    let wall_ns: u64 = pass.spans.iter().filter(|s| s.parent == 0).map(Span::dur_ns).sum();
    out.insert("trace.coverage_share", spans::coverage_share(pass.spans));
    out.insert(
        "trace.overhead_share",
        pass.spans.len() as f64 * span_cost_s() / (wall_ns.max(1) as f64 / 1e9),
    );
    Ok(out)
}
