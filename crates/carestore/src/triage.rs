//! Cross-run triage: dedup and cluster every outcome record in a store
//! by `(outcome kind, decline reason, fault site)`.
//!
//! A long-lived store accumulates records across many campaigns, seeds
//! and module versions; triage answers "what keeps happening, and
//! where?" without re-running anything. The fault *site* is the static
//! instruction `(module, func, inst)` — the `nth` execution ordinal is
//! deliberately dropped, because a thousand injections into different
//! iterations of one hot load are one cluster, not a thousand.

use crate::log::{read_log, LogLine};
use crate::store::Store;
use std::collections::{BTreeMap, HashSet};

/// One triage cluster: a distinct `(kind, decline, site)` with its
/// population. Counters saturate on merge — a store scan sums across
/// arbitrarily many runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TriageCluster {
    /// Outcome wire name (`benign`, `sdc`, `hang`, `segv`, ...).
    pub outcome: String,
    /// CARE decline short name, or `-` when covered / not evaluated.
    pub decline: String,
    /// Fault site `(module, func, inst)`.
    pub site: (u64, u64, u64),
    /// Records in this cluster.
    pub count: u64,
    /// Distinct campaign logs contributing.
    pub campaigns: u64,
}

/// Scan every log in the store and cluster its records. Clusters come
/// back most-populous first (ties broken by site for determinism).
/// Lines that do not decode are skipped, as in [`crate::log::scan_log`]:
/// both read through [`read_log`].
pub fn triage(store: &Store) -> std::io::Result<Vec<TriageCluster>> {
    type ClusterKey = (String, String, (u64, u64, u64));
    // key → (count, campaigns-seen-in)
    let mut clusters: BTreeMap<ClusterKey, (u64, u64)> = BTreeMap::new();
    for path in store.log_files()? {
        let mut seen_here: HashSet<ClusterKey> = HashSet::new();
        read_log(&path, |line| {
            let LogLine::Record(_, r) = line else { return };
            let decline = r.care.and_then(|c| c.decline).map_or("-", |d| d.short_name());
            let site = (r.point.module.0 as u64, r.point.func.0 as u64, r.point.inst as u64);
            let key = (r.outcome.name().to_string(), decline.to_string(), site);
            let entry = clusters.entry(key.clone()).or_insert((0, 0));
            entry.0 = entry.0.saturating_add(1);
            if seen_here.insert(key) {
                entry.1 = entry.1.saturating_add(1);
            }
        })?;
    }
    let mut out: Vec<TriageCluster> = clusters
        .into_iter()
        .map(|((outcome, decline, site), (count, campaigns))| TriageCluster {
            outcome,
            decline,
            site,
            count,
            campaigns,
        })
        .collect();
    out.sort_by(|a, b| b.count.cmp(&a.count).then_with(|| a.site.cmp(&b.site)));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultsim::{InjectedInto, InjectionPoint, InjectionRecord, Outcome, Signal, StepSplit};
    use simx::ModuleId;
    use tinyir::FuncId;

    fn rec(inst: usize, nth: u64, outcome: Outcome) -> InjectionRecord {
        InjectionRecord {
            point: InjectionPoint { module: ModuleId(0), func: FuncId(1), inst, nth },
            target: InjectedInto::Reg(0),
            outcome,
            latency: None,
            sim_steps: 1,
            split: StepSplit { prefix: 1, suffix: 0, care: 0 },
            care: None,
        }
    }

    fn line(index: usize, r: &InjectionRecord) -> String {
        LogLine::Record(index, r.clone()).encode() + "\n"
    }

    #[test]
    fn clusters_collapse_nth_and_count_across_files() {
        let dir =
            std::env::temp_dir().join(format!("carestore-triage-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir).unwrap();
        let segv = Outcome::SoftFailure(Signal::Segv);
        let mut a = String::new();
        a.push_str(&line(0, &rec(5, 1, segv)));
        a.push_str(&line(1, &rec(5, 9, segv))); // same site, different nth
        a.push_str(&line(2, &rec(6, 1, Outcome::Benign)));
        a.push_str("not json\n");
        std::fs::write(dir.join("a.jsonl"), a).unwrap();
        std::fs::write(dir.join("b.jsonl"), line(0, &rec(5, 3, segv))).unwrap();

        let clusters = triage(&store).unwrap();
        assert_eq!(clusters.len(), 2);
        assert_eq!(clusters[0].outcome, "segv");
        assert_eq!(clusters[0].site, (0, 1, 5));
        assert_eq!(clusters[0].count, 3, "nth must not split the cluster");
        assert_eq!(clusters[0].campaigns, 2);
        assert_eq!(clusters[1].outcome, "benign");
        assert_eq!(clusters[1].count, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
