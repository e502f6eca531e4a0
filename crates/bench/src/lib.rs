//! # bench — the experiment registry behind the `repro` binary.
//!
//! Every table, figure and ablation is one function `(&Session) -> Table`,
//! listed once in [`REGISTRY`] (DESIGN.md §4–5 index them against the
//! paper). A [`Session`] owns what an invocation fixes — injections, seed,
//! engine, recorder, store — and caches one campaign per program and level,
//! run once per fault model when a row first reads its report, so "which
//! campaign feeds which cell" is stated here only: `repro` prints the
//! selected rows, `tests/experiments.rs` pins them. §2's tables (2–4, 10,
//! 11) read the unprotected fields of the O0 reports §5's figures (7, 9,
//! 12) read. The paper drew §2's faults from the whole program and §5's
//! from application code only, but no program of [`workloads::all`] links
//! a library, so the two draws are one; `sblat1` (Table 9) links BLAS and
//! keeps a campaign of its own.
//! Performance is measured by `carebench` (`benchmarks/`), not here.

use care::CompiledApp;
use cluster::{simulate_fault_free, simulate_faulty, ClusterConfig, JobOutcome, Resilience};
use faultsim::{Campaign, CampaignConfig, CampaignReport, EngineKind, FaultModel};
use opt::OptLevel;
use std::cell::OnceCell;
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
        let mut widths: Vec<usize> = Vec::new();
        for cells in std::iter::once(&self.headers).chain(&self.rows) {
            widths.resize(widths.len().max(cells.len()), 0);
            for (w, c) in widths.iter_mut().zip(cells) {
                *w = (*w).max(c.len());
            }
        }
        let fmt_row = |cells: &Vec<String>| {
            let padded: Vec<_> =
                cells.iter().zip(&widths).map(|(c, w)| format!("{c:>w$}")).collect();
            padded.join("  ") + "\n"
        };
        let rule = "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len());
        let mut out = format!("\n== {} ==\n{}{rule}\n", self.title, fmt_row(&self.headers));
        out.extend(self.rows.iter().map(fmt_row));
        out
    }
}

/// A table row: each cell's `Display`.
macro_rules! row {
    ($($cell:expr),* $(,)?) => { vec![$($cell.to_string()),*] };
}

/// A prepared (workload, campaign) pair.
pub struct PreparedWorkload {
    /// Workload name.
    pub name: &'static str,
    /// The level `app` was compiled at.
    pub level: OptLevel,
    /// The compiled application.
    pub app: CompiledApp,
    /// The ready-to-run campaign.
    pub campaign: Campaign,
    /// Content-addressed campaign key (canonical module hash + opt level);
    /// `None` keeps a campaign that would not identify — linked libraries,
    /// a non-default Armor configuration — out of every store.
    pub key: Option<carestore::CampaignKey>,
}

/// Compile a workload and prepare its campaign.
pub fn prepare(workload: &Workload, level: OptLevel) -> PreparedWorkload {
    let app = care::compile(&workload.module, level);
    let campaign = Campaign::prepare(workload, app.clone(), vec![]);
    // The server's key function, so `repro --store DIR` and
    // `repro serve --store DIR` share logs by construction.
    let key = Some(careserve::proto::campaign_key_for(workload, level));
    PreparedWorkload { name: workload.name, level, app, campaign, key }
}

/// One campaign of a [`Session`] with its report.
pub type Run<'a> = (&'a PreparedWorkload, &'a CampaignReport);

/// A prepared campaign with its report per fault model, each run when a
/// row first reads it.
type Slot = (PreparedWorkload, [OnceCell<CampaignReport>; 2]);

/// What one `repro` invocation (or one test) fixes for every experiment it
/// regenerates, plus the campaigns the experiments share: one per program
/// and level, each run at most once per fault model under
/// [`campaign_cfg`](Self::campaign_cfg), for §2's and §5's rows alike.
#[derive(Default)]
pub struct Session {
    /// Injections per campaign.
    pub injections: usize,
    /// Campaign RNG seed.
    pub seed: u64,
    /// Execution backend.
    pub engine: EngineKind,
    /// `--telemetry`: one recorder spans every campaign and cluster
    /// simulation; the owner drains it at the end.
    pub recorder: Option<Recorder>,
    /// `--store DIR` / `--resume`: every keyed campaign consults it and
    /// appends its fresh records.
    pub store: Option<carestore::Store>,
    /// Per level: every program at O0 (paper order), the evaluated ones at
    /// O1 ([`workloads::evaluated`] order).
    campaigns: [OnceCell<Vec<Slot>>; 2],
}

impl Session {
    /// A session without recorder or store (set the fields to attach them).
    pub fn new(injections: usize, seed: u64, engine: EngineKind) -> Session {
        Session { injections, seed, engine, ..Session::default() }
    }

    /// The one campaign config (application code only, CARE evaluated on
    /// every SIGSEGV injection); the crate doc says why §2 reads it too.
    pub fn campaign_cfg(&self, model: FaultModel) -> CampaignConfig {
        let Session { injections, seed, engine, .. } = *self;
        let cfg = CampaignConfig { injections, model, seed, engine, ..CampaignConfig::default() };
        CampaignConfig { evaluate_care: true, app_only: true, ..cfg }
    }

    /// The session's telemetry hooks: the recorder when one is attached,
    /// [`NoTelemetry`] otherwise.
    pub fn hooks(&self) -> &dyn Hooks {
        match &self.recorder {
            Some(r) => r,
            None => &NoTelemetry,
        }
    }

    /// Run `cfg` on a prepared workload — the one campaign entry point of
    /// the harness, under the session's [`hooks`](Self::hooks). A
    /// store takes a keyed run through its record log: known records are
    /// reused, only the residual injections execute, the report is
    /// bit-identical to a fresh full run, and one stderr line says how warm
    /// it was. A store I/O failure falls back to the unbacked run:
    /// persistence degrades, results do not.
    pub fn run(&self, p: &PreparedWorkload, cfg: &CampaignConfig) -> CampaignReport {
        let hooks = self.hooks();
        if let (Some(store), Some(key)) = (&self.store, &p.key) {
            match store.run_campaign(key, &p.campaign, cfg, hooks, &faultsim::JobControl::new()) {
                Ok(carestore::StoreRun { report, stats }) => {
                    let carestore::StoreStats { hits, known_skips, misses, .. } = stats;
                    let residual = 100.0 * stats.residual_fraction(cfg.injections);
                    eprintln!(
                        "[repro]   {} {} {}: store reused {hits} records, skipped {known_skips} \
                         known-benign, executed {misses} residual ({residual:.0}% of {})",
                        p.name,
                        p.level,
                        cfg.model.name(),
                        cfg.injections,
                    );
                    return report;
                }
                Err(e) => eprintln!("[bench] store error for {} ({e}); running unbacked", p.name),
            }
        }
        p.campaign.run_with_hooks(cfg, hooks)
    }

    /// The campaigns at `level`, prepared together when a row first reads
    /// one of them.
    fn at(&self, level: OptLevel) -> &[Slot] {
        self.campaigns[level as usize].get_or_init(|| {
            let ws = if level == OptLevel::O0 { workloads::all() } else { workloads::evaluated() };
            let n = self.injections;
            eprintln!("[repro] preparing {} {level} campaigns ({n} injections each)...", ws.len());
            ws.iter().map(|w| (prepare(w, level), Default::default())).collect()
        })
    }

    /// The reports of `slots` under `model`: a campaign runs when its report
    /// is first pulled (under the recorder and store attached at that
    /// moment), so a row costs only the campaigns it reads.
    fn reports<'a>(
        &'a self,
        slots: impl Iterator<Item = &'a Slot> + 'a,
        model: FaultModel,
    ) -> impl Iterator<Item = Run<'a>> + 'a {
        let cfg = self.campaign_cfg(model);
        slots
            .map(move |(p, reports)| (p, reports[model as usize].get_or_init(|| self.run(p, &cfg))))
    }

    /// The §2 view under `model`: every workload (paper order) at O0 —
    /// Tables 2–4, and 10–11 under the double-bit model.
    pub fn manifestation(&self, model: FaultModel) -> impl Iterator<Item = Run<'_>> {
        self.reports(self.at(OptLevel::O0).iter(), model)
    }

    /// The evaluated workloads (the paper skips miniFE there) in
    /// [`workloads::evaluated`] order, each at O0 then O1.
    fn evaluated(&self) -> impl Iterator<Item = &Slot> {
        let o0 = self.at(OptLevel::O0);
        let o0 = move |name| o0.iter().find(|(p, _)| p.name == name).expect("an O0 campaign");
        self.at(OptLevel::O1).iter().flat_map(move |o1| [o0(o1.0.name), o1])
    }

    /// The §5 view under `model`: every evaluated workload at O0 then O1 —
    /// Figures 7, 9 and the decline table; Figure 12 under the double-bit
    /// model.
    pub fn coverage(&self, model: FaultModel) -> impl Iterator<Item = Run<'_>> {
        self.reports(self.evaluated(), model)
    }

    /// The single-bit §5 campaigns compiled at `level`, in workload order —
    /// the four ablations' baselines.
    fn coverage_at(&self, level: OptLevel) -> impl Iterator<Item = Run<'_>> {
        let at_level = self.evaluated().filter(move |(p, _)| p.level == level);
        self.reports(at_level, FaultModel::SingleBit)
    }
}

/// One row of the registry.
pub struct Experiment {
    /// The name `repro` accepts.
    pub name: &'static str,
    /// The group name that also selects it: `all` or `ablations`.
    pub group: &'static str,
    /// Regenerate the table.
    pub run: fn(&Session) -> Table,
}

impl Experiment {
    /// Does `arg` (an experiment or group name) select this row?
    pub fn selected_by(&self, arg: &str) -> bool {
        arg == self.name || arg == self.group
    }
}

/// Every experiment, in the order `repro` prints them.
pub const REGISTRY: &[Experiment] = &[
    Experiment { name: "table2", group: "all", run: |s| outcomes(s, FaultModel::SingleBit) },
    Experiment { name: "table3", group: "all", run: |s| signals(s, FaultModel::SingleBit) },
    Experiment { name: "table4", group: "all", run: latency },
    Experiment { name: "table5", group: "all", run: address_ops },
    Experiment { name: "table8", group: "all", run: kernel_stats },
    Experiment { name: "fig7", group: "all", run: |s| fault_coverage(s, FaultModel::SingleBit) },
    Experiment { name: "fig9", group: "all", run: recovery_time },
    Experiment { name: "declines", group: "all", run: declines },
    Experiment { name: "fig10", group: "all", run: cluster_job },
    Experiment { name: "table9", group: "all", run: blas_library },
    Experiment { name: "table10", group: "all", run: |s| outcomes(s, FaultModel::DoubleBit) },
    Experiment { name: "table11", group: "all", run: |s| signals(s, FaultModel::DoubleBit) },
    Experiment { name: "fig12", group: "all", run: |s| fault_coverage(s, FaultModel::DoubleBit) },
    Experiment { name: "ablate-liveness", group: "ablations", run: ablate_liveness },
    Experiment { name: "ablate-patch", group: "ablations", run: ablate_patch },
    Experiment { name: "ablate-guard", group: "ablations", run: ablate_guard },
    Experiment { name: "ablate-lazy", group: "ablations", run: ablate_lazy },
];

/// Every name `repro` accepts, in registry order: each group's members,
/// then the group's own name.
pub fn experiment_names() -> Vec<&'static str> {
    REGISTRY
        .chunk_by(|a, b| a.group == b.group)
        .flat_map(|g| g.iter().map(|e| e.name).chain([g[0].group]))
        .collect()
}

/// Tables 2 and 10.
fn outcomes(s: &Session, model: FaultModel) -> Table {
    let title = [
        "Table 2: overall outcomes of fault injections (single-bit)",
        "Table 10: overall outcomes (double-bit-flip model)",
    ][model as usize];
    let mut t = Table::new(title, &["Workload", "Benign", "SoftFailure", "SDC", "Hang"]);
    for (p, r) in s.manifestation(model) {
        t.row(row![p.name, r.benign, r.soft_failure, r.sdc, r.hang]);
    }
    t
}

/// Tables 3 and 11.
fn signals(s: &Session, model: FaultModel) -> Table {
    let title = [
        "Table 3: breakdown of soft failures by symptom",
        "Table 11: breakdown of soft failures (double-bit-flip model)",
    ][model as usize];
    let mut t = Table::new(title, &["Workload", "SIGSEGV", "SIGBUS", "SIGABRT", "Other"]);
    for (p, r) in s.manifestation(model) {
        t.row(row![p.name, r.signals[0], r.signals[1], r.signals[2], r.signals[3]]);
    }
    t
}

fn latency(s: &Session) -> Table {
    let mut t = Table::new(
        "Table 4: manifestation-latency distribution of soft failures",
        &["Workload", "<=10", "11~50", "51~400", ">400"],
    );
    for (p, r) in s.manifestation(FaultModel::SingleBit) {
        let total = r.latency_buckets.iter().sum::<usize>().max(1);
        let [a, b, c, d] = r.latency_buckets.map(|n| pct(n as f64 / total as f64));
        t.row(row![p.name, a, b, c, d]);
    }
    t
}

fn address_ops(_: &Session) -> Table {
    let ws = workloads::all();
    let headers: Vec<&str> = std::iter::once("").chain(ws.iter().map(|w| w.name)).collect();
    let mut t = Table::new("Table 5: memory accesses with multi-op address computations", &headers);
    // The paper's Table 5 counts address computations of the *real* data
    // accesses; measure on the optimised IR, where scalar stack-slot traffic
    // (an -O0 artefact) has been promoted away.
    let (mut frac, mut avg) = (row!["No. Insts"], row!["Avg. No. ops"]);
    for w in &ws {
        let a = care::compile(&w.module, OptLevel::O1).armor.stats;
        frac.push(pct(a.multi_op_fraction()));
        avg.push(format!("{:.2}", a.avg_addr_ops()));
    }
    t.row(frac);
    t.row(avg);
    t
}

fn kernel_stats(_: &Session) -> Table {
    let mut t = Table::new(
        "Table 8: statistics of recovery kernels",
        &[
            "",
            "Num. kernels",
            "Avg IR instrs",
            "Normal compile (s)",
            "Armor overhead (s)",
            "Liveness share",
        ],
    );
    for w in workloads::evaluated() {
        let app = care::compile(&w.module, OptLevel::O0);
        let a = &app.armor.stats;
        t.row(row![
            w.name,
            a.num_kernels,
            format!("{:.2}", a.avg_kernel_instrs()),
            format!("{:.4}", app.build.normal_compile_s),
            format!("{:.4}", a.pass_seconds),
            pct(a.liveness_seconds / a.pass_seconds.max(1e-12)),
        ]);
    }
    t
}

/// Figures 7 and 12.
fn fault_coverage(s: &Session, model: FaultModel) -> Table {
    let title = [
        "Figure 7: fault coverage of CARE (single-bit)",
        "Figure 12: fault coverage (double-bit-flip model)",
    ][model as usize];
    let mut t = Table::new(title, &["Workload", "Opt", "SIGSEGV evald", "Recovered", "Coverage"]);
    let (mut sum, mut campaigns) = (0.0, 0);
    for (p, r) in s.coverage(model) {
        t.row(row![p.name, p.level, r.care_evaluated, r.care_covered, pct(r.coverage())]);
        sum += r.coverage();
        campaigns += 1;
    }
    t.row(row!["average", "", "", "", pct(sum / campaigns.max(1) as f64)]);
    t
}

fn recovery_time(s: &Session) -> Table {
    let mut t = Table::new(
        "Figure 9: recovery time (modelled ms per recovered run)",
        &["Workload", "Opt", "Mean (ms)", "Activations/run"],
    );
    for (p, r) in s.coverage(FaultModel::SingleBit) {
        let per_run = r.total_recoveries as f64 / r.recovery_times_ms.len().max(1) as f64;
        let mean = format!("{:.1}", r.mean_recovery_ms());
        t.row(row![p.name, p.level, mean, format!("{per_run:.2}")]);
    }
    t
}

fn declines(s: &Session) -> Table {
    let mut t = Table::new(
        "Decline reasons: why uncovered SIGSEGV faults were not recovered",
        &["Workload", "Opt", "Decline kind", "Count"],
    );
    let mut total = 0usize;
    for (p, r) in s.coverage(FaultModel::SingleBit) {
        for (kind, n) in decline_rows(r) {
            t.row(row![p.name, p.level, kind, n]);
            total += n;
        }
    }
    t.row(row!["total", "", "", total]);
    t
}

fn cluster_job(s: &Session) -> Table {
    eprintln!("[repro] running rank-0 recovery + 512-rank BSP simulation...");
    let w = workloads::gtcp::default();
    let r0 = cluster::rank0::run_rank0_with_fault(&w, OptLevel::O0, s.seed, 200)
        .expect("a CARE-recoverable fault on rank 0");
    let cfg = ClusterConfig::default();
    let base = simulate_fault_free(&cfg);
    let care_res = Resilience::Care { events: vec![(cfg.timesteps / 2, r0.recovery_ms)] };
    let care_run = simulate_faulty(&cfg, cfg.timesteps / 2, &care_res, s.hooks());
    let mut t = Table::new(
        "Figure 10: 512-rank x 6-thread GTC-P job, fault on rank 0",
        &["Scenario", "Makespan (s)", "Overhead (s)", "Restart (s)"],
    );
    let sec = |ms: f64| format!("{:.2}", ms / 1000.0);
    t.row(row!["fault-free", sec(base.makespan_ms), "0.00", "0.00"]);
    t.row(row![
        format!("CARE ({} recoveries, {:.1} ms)", r0.recoveries, r0.recovery_ms),
        sec(care_run.makespan_ms),
        sec(care_run.overhead_ms),
        sec(care_run.restart_ms),
    ]);
    for interval in [20u64, 50, 75] {
        // Average over fault positions, as the paper's per-interval
        // recovery times are averages (14.4 / 25.9 / 37.6 s).
        let cr = Resilience::CheckpointRestart {
            interval,
            write_ms: 800.0,
            load_ms: 6600.0,
            requeue_ms: 0.0,
        };
        let runs: Vec<JobOutcome> = (0..cfg.timesteps)
            .step_by(7)
            .map(|step| simulate_faulty(&cfg, step, &cr, &NoTelemetry))
            .collect();
        let avg =
            |ms: fn(&JobOutcome) -> f64| sec(runs.iter().map(ms).sum::<f64>() / runs.len() as f64);
        let label = format!("C/R every {interval} steps (avg)");
        t.row(row![label, avg(|o| o.makespan_ms), avg(|o| o.overhead_ms), avg(|o| o.restart_ms)]);
    }
    t
}

/// sblat1 compiled at O0 with the BLAS library it links, and its campaign:
/// the one program whose whole-program draw is not its app-only draw.
pub fn sblat1() -> (PreparedWorkload, CompiledApp) {
    let setup = workloads::blas::setup();
    let lib = care::compile(&setup.lib, OptLevel::O0);
    let app = care::compile(&setup.driver.module, OptLevel::O0);
    let campaign = Campaign::prepare(&setup.driver, app.clone(), vec![lib.clone()]);
    (PreparedWorkload { name: "sblat1", level: OptLevel::O0, app, campaign, key: None }, lib)
}

fn blas_library(s: &Session) -> Table {
    eprintln!("[repro] running BLAS/sblat1 shared-library campaign...");
    let (p, lib) = sblat1();
    // Faults may land in the library too.
    let r = s.run(&p, &CampaignConfig { app_only: false, ..s.campaign_cfg(FaultModel::SingleBit) });
    let mut t = Table::new(
        "Table 9: statistics and performance for sblat1/BLAS",
        &["", "# Kernels", "Normal compile (s)", "Armor overhead (s)", "Coverage", "Recovery (ms)"],
    );
    let built = |label: &str, a: &CompiledApp, coverage: String, recovery: String| {
        let compile = format!("{:.4}", a.build.normal_compile_s);
        let armor = format!("{:.4}", a.armor.stats.pass_seconds);
        row![label, a.armor.stats.num_kernels, compile, armor, coverage, recovery]
    };
    t.row(built("BLAS", &lib, pct(r.coverage()), format!("{:.1}", r.mean_recovery_ms())));
    t.row(built("sblat1", &p.app, String::new(), String::new()));
    t
}

/// Ablation 1: drop the terminal-value liveness rule. Armor then emits
/// kernels whose parameters may be gone at runtime; coverage falls because
/// Safeguard must decline (or the kernel reads junk and the equality guard
/// kills the repair).
fn ablate_liveness(s: &Session) -> Table {
    let mut t = Table::new(
        "Ablation: terminal-value liveness rule (O1 coverage)",
        &["Workload", "strict (paper)", "relaxed"],
    );
    for (w, (_, strict)) in workloads::evaluated().iter().zip(s.coverage_at(OptLevel::O1)) {
        let relaxed = armor::ArmorConfig { strict_liveness: false };
        let app = care::compile_with(&w.module, OptLevel::O1, relaxed);
        let campaign = Campaign::prepare(w, app.clone(), vec![]);
        let p = PreparedWorkload { name: w.name, level: OptLevel::O1, app, campaign, key: None };
        let relaxed = s.run(&p, &s.campaign_cfg(FaultModel::SingleBit));
        t.row(row![w.name, pct(strict.coverage()), pct(relaxed.coverage())]);
    }
    t
}

/// Ablation 2: base-first instead of index-first patching.
fn ablate_patch(s: &Session) -> Table {
    let mut t = Table::new(
        "Ablation: operand patching strategy (O1 coverage)",
        &["Workload", "index-first (paper)", "base-first"],
    );
    let cfg = CampaignConfig { patch_base_first: true, ..s.campaign_cfg(FaultModel::SingleBit) };
    for (p, index_first) in s.coverage_at(OptLevel::O1) {
        let base_first = s.run(p, &cfg);
        t.row(row![p.name, pct(index_first.coverage()), pct(base_first.coverage())]);
    }
    t
}

/// Ablation 3: remove the §5.2 address-equality guard. Repairs of
/// contaminated-input kernels then "succeed" — and silently corrupt the
/// output, exactly the SDC substitution the paper criticises in RCV/LetGo.
fn ablate_guard(s: &Session) -> Table {
    let mut t = Table::new(
        "Ablation: address-equality guard (O0)",
        &["Workload", "guarded: covered", "unguarded: covered", "unguarded: survived w/ SDC"],
    );
    let cfg = CampaignConfig { skip_equality_guard: true, ..s.campaign_cfg(FaultModel::SingleBit) };
    let covered = |r: &CampaignReport| format!("{}/{}", r.care_covered, r.care_evaluated);
    for (p, guarded) in s.coverage_at(OptLevel::O0) {
        let unguarded = s.run(p, &cfg);
        let with_sdc = unguarded.care_survived_with_sdc;
        t.row(row![p.name, covered(guarded), covered(&unguarded), with_sdc]);
    }
    t
}

/// Ablation 4: eager vs lazy kernel-library loading — the paper's lazy
/// design trades recovery latency for a zero steady-state kernel footprint.
fn ablate_lazy(s: &Session) -> Table {
    let mut t = Table::new(
        "Ablation: lazy vs eager recovery-library loading",
        &[
            "Workload",
            "steady-state bytes (lazy)",
            "steady-state bytes (eager)",
            "recovery ms (lazy)",
            "recovery ms (eager)",
        ],
    );
    for (p, r) in s.coverage_at(OptLevel::O0) {
        let o = care::memory_overhead(&[&p.app]);
        // Eager loading pre-pays dlopen: subtract it from the recovery
        // path, add the kernels to the resident set.
        let cost = safeguard::CostModel::default();
        let dlopen =
            cost.dlopen_base_ms + p.app.armor.stats.num_kernels as f64 * cost.dlopen_per_kernel_ms;
        t.row(row![
            p.name,
            o.steady_state_bytes(),
            o.steady_state_bytes() + o.lazy_kernel_bytes,
            format!("{:.1}", r.mean_recovery_ms()),
            format!("{:.1}", (r.mean_recovery_ms() - dlopen).max(0.0)),
        ]);
    }
    t
}

/// Decline-reason histogram of a campaign as deterministically-ordered
/// `(kind, count)` rows (declaration order of [`safeguard::DeclineKind`]),
/// skipping zero-count kinds.
pub fn decline_rows(report: &CampaignReport) -> Vec<(&'static str, usize)> {
    let count = |k| report.declines.get(k).copied().filter(|&n| n > 0);
    safeguard::DeclineKind::ALL.iter().filter_map(|k| Some((k.short_name(), count(k)?))).collect()
}

/// Percentage formatting helper.
pub fn pct(x: f64) -> String {
    format!("{:.2}%", 100.0 * x)
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
        let s = Session::new(10, 1, EngineKind::Interp);
        let r = s.run(&p, &s.campaign_cfg(FaultModel::SingleBit));
        assert!(r.total() >= 8);
        for w in workloads::all() {
            for level in [OptLevel::O0, OptLevel::O1] {
                let served = careserve::proto::campaign_key_for(&w, level);
                assert_eq!(prepare(&w, level).key, Some(served), "{} {level}", w.name);
            }
        }
    }

    #[test]
    fn stored_campaign_warm_run_executes_no_residual() {
        let dir = std::env::temp_dir().join(format!("care-bench-lib-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut s = Session::new(12, 7, EngineKind::Interp);
        s.store = Some(carestore::Store::open(&dir).expect("open store"));
        s.recorder = Some(Recorder::new());
        let w = workloads::hpccg::build(3, 2);
        let p = prepare(&w, OptLevel::O0);
        let cfg = s.campaign_cfg(FaultModel::SingleBit);
        // Cumulative (runs, misses, hits) the store reported through `store.*`.
        let store_counts = || {
            let c = s.recorder.as_ref().expect("attached above").drain().counters;
            ["store.runs", "store.misses", "store.hits"].map(|k| c.get(k).copied().unwrap_or(0))
        };
        let cold_report = s.run(&p, &cfg);
        assert_eq!(store_counts(), [1, 12, 0]);
        let warm_report = s.run(&p, &cfg);
        assert_eq!(store_counts(), [2, 12, 12]);
        assert_eq!(warm_report, cold_report);
        // A campaign its key does not identify never touches the store.
        s.run(&PreparedWorkload { key: None, ..p }, &cfg);
        assert_eq!(store_counts(), [2, 12, 12]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
