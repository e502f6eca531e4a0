//! Names, units and bounds: the benchmark's contract, mirrored by
//! `BENCHMARK.json` at the repository root (a test keeps the two equal).

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
    /// Measured rounds of a 20-second run on the 2-vCPU reference host.
    /// Fixed work: the count scales with `--seconds` and never with the
    /// clock, and never drops below the 30 samples the floor rule needs.
    pub rounds_at_20s: usize,
    /// Work-stealing pool width pinned for the run.
    pub pool_width: usize,
}

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "cov_interp",
        why: "local campaigns on the interpreter: suffix and CARE re-execution on simx::cpu and the tinyir TLB do the work; translation, wire and store do none",
        rounds_at_20s: 64,
        pool_width: 1,
    },
    WorkloadSpec {
        name: "cov_compiled",
        why: "same jobs and seeds on the compiled engine: a translator change shows only here, an interpreter change mostly on cov_interp; steps_per_inj must equal cov_interp's",
        rounds_at_20s: 90,
        pool_width: 1,
    },
    WorkloadSpec {
        name: "svc_mix",
        why: "the same engine behind the server: connection, admission, socket poll, frame codec and campaign cache from two clients, with cache-miss jobs on the request path; cov_* bypass all of it",
        rounds_at_20s: 160,
        pool_width: 1,
    },
    WorkloadSpec {
        name: "store_cycle",
        why: "store-backed runs: cold writes beside warm reads and a torn-log resume over one codec and log, so append and scan costs pull inj_per_s and job_ms apart; cov_* do no I/O",
        rounds_at_20s: 220,
        pool_width: 1,
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricSpec {
    MetricSpec { name, unit, better }
}

/// End-to-end metrics with the share of the parent's median each may
/// worsen by. The timed ones carry the widest bound the contract allows:
/// on the reference host ten-seed spreads of the floors run 3–8 % and a
/// sustained noisy phase moves a whole set's median by up to 10 %, so a
/// narrower gate would fire on the neighbours. `steps_per_inj` repeats
/// exactly; its bound is as small as a bound can usefully be.
pub const END_TO_END: [(MetricSpec, f64); 5] = [
    (m("inj_per_s", "1/s", "higher"), 0.25),
    (m("job_ms", "ms", "lower"), 0.25),
    (m("steps_per_inj", "steps", "lower"), 0.001),
    (m("peak_rss_mb", "MB", "lower"), 0.10),
    (m("setup_s", "s", "lower"), 0.25),
];

pub const PER_LAYER: [MetricSpec; 59] = [
    m("workloads.build_us", "us", "lower"),
    m("workloads.ir_insts", "count", "lower"),
    m("tinyir.print_us", "us", "lower"),
    m("tinyir.parse_us", "us", "lower"),
    m("tinyir.verify_us", "us", "lower"),
    m("tinyir.mem_clone_us", "us", "lower"),
    m("tinyir.tlb_hit_rate", "share", "higher"),
    m("tinyir.tlb_miss_per_kstep", "1/kstep", "lower"),
    m("analysis.liveness_us", "us", "lower"),
    m("opt.optimize_us", "us", "lower"),
    m("opt.ir_insts_after", "count", "lower"),
    m("armor.run_us", "us", "lower"),
    m("armor.kernels", "count", "higher"),
    m("armor.table_bytes", "bytes", "lower"),
    m("simx.codegen_us", "us", "lower"),
    m("simx.translate_us", "us", "lower"),
    m("simx.fused_share", "share", "higher"),
    m("simx.interp_ns_per_step", "ns/step", "lower"),
    m("simx.hooked_ns_per_step", "ns/step", "lower"),
    m("simx.compiled_ns_per_step", "ns/step", "lower"),
    m("simx.fork_us", "us", "lower"),
    m("safeguard.trap_us", "us", "lower"),
    m("safeguard.recoveries_per_covered", "count", "lower"),
    m("safeguard.decline_share", "share", "lower"),
    m("care.compile_us", "us", "lower"),
    m("faultsim.prepare_us", "us", "lower"),
    m("faultsim.prefix_share", "share", "lower"),
    m("faultsim.suffix_share", "share", "higher"),
    m("faultsim.care_share", "share", "lower"),
    m("faultsim.snapshots_per_inj", "count", "lower"),
    m("faultsim.care_coverage", "share", "higher"),
    m("faultsim.cursor_ms", "ms", "lower"),
    m("faultsim.suffix_ms", "ms", "lower"),
    m("rayon.dispatch_us", "us", "lower"),
    m("rayon.steals_per_batch", "count", "lower"),
    m("telemetry.on_overhead_share", "share", "lower"),
    m("telemetry.json_parse_mb_s", "MB/s", "higher"),
    m("carestore.hash_mb_s", "MB/s", "higher"),
    m("carestore.key_us", "us", "lower"),
    m("carestore.encode_ns_per_rec", "ns/rec", "lower"),
    m("carestore.decode_ns_per_rec", "ns/rec", "lower"),
    m("carestore.append_ns_per_rec", "ns/rec", "lower"),
    m("carestore.scan_us_per_krec", "us/krec", "lower"),
    m("carestore.resume_ms", "ms", "lower"),
    m("carestore.bytes_per_rec", "bytes/rec", "lower"),
    m("carestore.hit_share", "share", "higher"),
    m("careserve.spec_codec_us", "us", "lower"),
    m("careserve.record_codec_ns", "ns/rec", "lower"),
    m("careserve.report_codec_us", "us", "lower"),
    m("careserve.rtt_us", "us", "lower"),
    m("careserve.service_tax_ms", "ms", "lower"),
    m("careserve.pair_ratio", "ratio", "lower"),
    m("careserve.cache_hit_share", "share", "higher"),
    m("careserve.rejected", "count", "lower"),
    m("harness.cpu_ms_per_inj", "ms", "lower"),
    m("harness.noise_ratio", "ratio", "lower"),
    m("harness.samples_min", "count", "higher"),
    m("trace.coverage_share", "share", "higher"),
    m("trace.overhead_share", "share", "lower"),
];

/// `--seconds` to measured rounds: proportional to the 20-second count,
/// floored at the sample minimum.
pub fn rounds_for(w: &WorkloadSpec, seconds: u64) -> usize {
    (w.rounds_at_20s * seconds as usize / 20).max(crate::stats::MIN_SAMPLES)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::{parse_json, Json};

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    fn field<'a>(v: &'a Json, key: &str) -> &'a str {
        v.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("missing {key}"))
    }

    fn array<'a>(v: &'a Json, key: &str) -> &'a [Json] {
        match v.get(key) {
            Some(Json::Arr(a)) => a,
            _ => panic!("missing array {key}"),
        }
    }

    #[test]
    fn tables_are_well_formed() {
        assert_eq!(WORKLOADS.len(), 4);
        assert_eq!(END_TO_END.len(), 5);
        assert!(PER_LAYER.len() <= 128);
        let metrics = END_TO_END.iter().map(|(m, _)| m).chain(&PER_LAYER);
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        for m in metrics {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}: {}", m.name, m.unit);
            assert!(matches!(m.better, "higher" | "lower"), "{}", m.name);
            names.push(m.name);
        }
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for (m, bound) in &END_TO_END {
            assert!(*bound > 0.0 && *bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|(m, _)| m.name == "setup_s").expect("setup_s");
        assert_eq!((setup.0.unit, setup.0.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|(_, b)| *b <= setup.1), "setup_s has the largest bound");
        for w in &WORKLOADS {
            assert!(valid_name(w.name) && w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(w.rounds_at_20s >= crate::stats::MIN_SAMPLES);
        }
    }

    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let v = parse_json(&text).expect("BENCHMARK.json parses");
        let Json::Obj(top) = &v else { panic!("not an object") };
        let mut keys: Vec<&str> = top.keys().map(String::as_str).collect();
        keys.sort();
        assert_eq!(keys, ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]);
        assert_eq!(array(&v, "paths"), [Json::Str("benchmarks".into())]);

        let listed: Vec<(&str, &str)> =
            array(&v, "workloads").iter().map(|w| (field(w, "name"), field(w, "why"))).collect();
        let ours: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(listed, ours);

        let e2e = array(&v, "end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, (m, bound)) in e2e.iter().zip(&END_TO_END) {
            assert_eq!((field(j, "name"), field(j, "unit"), field(j, "better")), (m.name, m.unit, m.better));
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(*bound), "{}", m.name);
        }
        let layers = array(&v, "per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!((field(j, "name"), field(j, "unit"), field(j, "better")), (m.name, m.unit, m.better));
        }
    }

    #[test]
    fn seconds_scale_rounds_but_never_below_the_sample_minimum() {
        let w = workload("store_cycle").unwrap();
        assert_eq!(rounds_for(w, 20), w.rounds_at_20s);
        assert_eq!(rounds_for(w, 40), 2 * w.rounds_at_20s);
        assert_eq!(rounds_for(w, 1), crate::stats::MIN_SAMPLES);
        assert!(workload("nope").is_none());
    }
}
