//! # bench — experiment harness behind the `repro` binary.
//!
//! Each function here regenerates the data behind one table or figure of
//! the paper (see DESIGN.md §4 for the full index); the `repro` binary
//! formats them as the paper's rows, and `tests/experiments.rs` pins them.
//! Performance is measured by `carebench` (`benchmarks/`), not here.

use care::CompiledApp;
use faultsim::{Campaign, CampaignConfig, CampaignReport, EngineKind, FaultModel};
use opt::OptLevel;
use telemetry::{Hooks, NoTelemetry, Recorder};
use workloads::Workload;

/// Rows of a formatted text table.
pub struct Table {
    /// Table title (paper reference).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Create an empty table.
    pub fn new(title: &str, headers: &[&str]) -> Table {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(c.len());
                } else {
                    widths.push(c.len());
                }
            }
        }
        let mut out = format!("\n== {} ==\n", self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// A prepared (workload, campaign) pair, cached per opt level.
pub struct PreparedWorkload {
    /// Workload name.
    pub name: &'static str,
    /// The compiled application.
    pub app: CompiledApp,
    /// The ready-to-run campaign.
    pub campaign: Campaign,
    /// Content-addressed campaign key (canonical module hash + opt level).
    pub key: carestore::CampaignKey,
}

/// Compile a workload and prepare its campaign.
pub fn prepare(workload: &Workload, level: OptLevel) -> PreparedWorkload {
    let app = care::compile(&workload.module, level);
    let campaign = Campaign::prepare(workload, app.clone(), vec![]);
    // The server's key function, so `repro --store DIR` and
    // `repro serve --store DIR` share logs by construction.
    let key = careserve::proto::campaign_key_for(workload, level);
    PreparedWorkload { name: workload.name, app, campaign, key }
}

/// The §2-style campaign config (whole program, no CARE evaluation).
pub fn manifestation_cfg(
    injections: usize,
    model: FaultModel,
    seed: u64,
    engine: EngineKind,
) -> CampaignConfig {
    CampaignConfig { injections, model, seed, engine, ..CampaignConfig::default() }
}

/// The §5-style campaign config (application code only, CARE evaluated on
/// every SIGSEGV injection).
pub fn coverage_cfg(
    injections: usize,
    model: FaultModel,
    seed: u64,
    engine: EngineKind,
) -> CampaignConfig {
    CampaignConfig {
        evaluate_care: true,
        app_only: true,
        ..manifestation_cfg(injections, model, seed, engine)
    }
}

/// Run `cfg` on a prepared workload — the one campaign entry point of the
/// harness. A `recorder` attaches telemetry hooks (without one this
/// monomorphizes with [`NoTelemetry`] to exactly the plain campaign). A
/// `store` routes the run through the content-addressed record store:
/// records already in its log are reused, only the residual injections
/// execute, and the report is bit-identical to a fresh full run; the store's
/// hit/miss accounting comes back alongside. A store I/O failure falls back
/// to the unbacked run (`None` stats): persistence degrades, results do not.
pub fn run_campaign(
    prepared: &PreparedWorkload,
    cfg: &CampaignConfig,
    recorder: Option<&Recorder>,
    store: Option<&carestore::Store>,
) -> (CampaignReport, Option<carestore::StoreStats>) {
    fn go<H: Hooks>(
        p: &PreparedWorkload,
        cfg: &CampaignConfig,
        hooks: &H,
        store: Option<&carestore::Store>,
    ) -> (CampaignReport, Option<carestore::StoreStats>) {
        if let Some(s) = store {
            let ctl = faultsim::JobControl::new();
            match s.run_campaign(&p.key, &p.campaign, cfg, hooks, &ctl) {
                Ok(run) => return (run.report, Some(run.stats)),
                Err(e) => eprintln!("[bench] store error for {} ({e}); running unbacked", p.name),
            }
        }
        (p.campaign.run_with_hooks(cfg, hooks), None)
    }
    match recorder {
        Some(r) => go(prepared, cfg, r, store),
        None => go(prepared, cfg, &NoTelemetry, store),
    }
}

/// Decline-reason histogram of a campaign as deterministically-ordered
/// `(kind, count)` rows (declaration order of [`safeguard::DeclineKind`]),
/// skipping zero-count kinds.
pub fn decline_rows(report: &CampaignReport) -> Vec<(&'static str, usize)> {
    safeguard::DeclineKind::ALL
        .iter()
        .filter_map(|k| {
            report
                .declines
                .get(k)
                .filter(|&&n| n > 0)
                .map(|&n| (k.short_name(), n))
        })
        .collect()
}

/// Percentage formatting helper.
pub fn pct(x: f64) -> String {
    format!("{:.2}%", 100.0 * x)
}

/// The workload set used by the §2 tables (paper order).
pub fn section2_workloads() -> Vec<Workload> {
    workloads::all()
}

/// The workload set used by the §5 evaluation (paper skips miniFE there).
pub fn section5_workloads() -> Vec<Workload> {
    workloads::evaluated()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("Demo", &["a", "bb"]);
        t.row(vec!["1".into(), "22".into()]);
        t.row(vec!["333".into(), "4".into()]);
        let s = t.render();
        assert!(s.contains("Demo"));
        assert!(s.lines().count() >= 5);
    }

    #[test]
    fn prepare_yields_runnable_campaign() {
        let w = workloads::hpccg::build(3, 2);
        let p = prepare(&w, OptLevel::O0);
        let cfg = manifestation_cfg(10, FaultModel::SingleBit, 1, EngineKind::Interp);
        let (r, stats) = run_campaign(&p, &cfg, None, None);
        assert!(r.total() >= 8);
        assert!(stats.is_none(), "no store, no store stats");
        for w in section2_workloads() {
            for level in [OptLevel::O0, OptLevel::O1] {
                let served = careserve::proto::campaign_key_for(&w, level);
                assert_eq!(prepare(&w, level).key, served, "{} {level}", w.name);
            }
        }
    }

    #[test]
    fn stored_campaign_warm_run_executes_no_residual() {
        let dir = std::env::temp_dir().join(format!(
            "care-bench-lib-store-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = carestore::Store::open(&dir).expect("open store");
        let w = workloads::hpccg::build(3, 2);
        let p = prepare(&w, OptLevel::O0);
        let cfg = coverage_cfg(12, FaultModel::SingleBit, 7, EngineKind::Interp);
        let (cold_report, cold) = run_campaign(&p, &cfg, None, Some(&store));
        let (warm_report, warm) = run_campaign(&p, &cfg, None, Some(&store));
        let (cold, warm) = (cold.expect("cold run stored"), warm.expect("warm run stored"));
        assert_eq!((cold.misses, cold.hits), (12, 0));
        assert_eq!((warm.misses, warm.hits), (0, 12));
        assert_eq!(warm_report, cold_report);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
