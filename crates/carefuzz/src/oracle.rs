//! The differential oracle: run one program through every engine pair that
//! must agree, and report the first disagreement.
//!
//! Pairs (ISSUE 5 tentpole):
//! 1. **RoundTrip** — `display` → `parser` → `display` is a fixpoint and the
//!    reparse verifies, for the module as built and after O1.
//! 2. **FastSlow** — the interpreter's fast loop vs that loop stepped one
//!    instruction at a time (the instrumented-run reference), handed a
//!    profiling [`Instrument`] with one stop drawn from the program's own
//!    profile and resumed after it fires, at *every* fuel budget on short
//!    programs and a dense sample on long ones: exit state, step/trap
//!    accounting and all output globals must match. One sweep serves 2 and 7.
//! 3. **OptLevels** — the `opt` pipeline must preserve semantics: IR interp
//!    and SimISA machine at O0 and O1 all agree on result + output globals.
//! 4. **Trellis** — the snapshot-trellis campaign is record-level identical
//!    to the per-index reference (`Campaign::run_one` for every index) on
//!    the same seed, with a recorder listening or not. The trellis starts
//!    each hop from the job's golden state at its bracket, rebuilt from its
//!    trail, and stops runs at those golden states; `run_one` does
//!    neither. [`Reach`] counts
//!    how often a fuzzing run got that far, so a clean run can say what it
//!    held the pair to.
//! 5. **Kernel** — the paper §4 claim: every Armor recovery kernel, executed
//!    inline at its protected access during a fault-free run, recomputes
//!    exactly the address the access is about to use.
//! 6. **Liveness** — the §3.2 terminal-value rule: every `Die` kernel
//!    parameter is live (per `analysis::liveness`) at the faulting
//!    instruction or folded into its machine address operand.
//! 7. **Compiled** — the direct-threaded compiled engine vs the
//!    interpreter, at every fuel budget on short programs and a dense sample
//!    on long ones: its plain run vs the fast loop, and its instrumented run,
//!    armed with pair 2's stop, vs the stepping reference's — exit state,
//!    step/fuel/trap accounting, all output globals, the stop's leg and fired
//!    point, and the profile must match bit for bit.

use crate::spec::{build, ProgramSpec};
use analysis::{Cfg, Liveness};
use armor::{run_armor, ArmorOutput, ParamSpec, RecoveryKey};
use care::{BuildStats, CompiledApp};
use faultsim::{Campaign, CampaignConfig, InjectionRecord};
use opt::OptLevel;
use simx::{
    compile_module, CompiledEngine, ExecutionEngine, Instrument, InterpEngine, MInst,
    MachineModule, ModuleId, Process, Profile, RunExit,
};
use std::collections::HashMap;
use std::sync::Arc;
use tinyir::interp::{layout_globals, Interp};
use tinyir::mem::PagedMemory;
use tinyir::{
    display::print_module, parser::parse_module, verify::verify_module, Callee, CastOp, FuncId,
    Global, GlobalInit, ICmp, Instr, InstrId, InstrKind, Module, Ty, Value,
};
use workloads::Workload;

/// Which engine pair disagreed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Pair {
    /// print → parse → print fixpoint.
    RoundTrip,
    /// Fast interpreter loop vs that loop stepped, instrumented.
    FastSlow,
    /// Unoptimized vs `opt`-pipeline execution (interp + machine, O0 + O1).
    OptLevels,
    /// Trellis vs per-index `run_one` campaign records.
    Trellis,
    /// Armor kernel address vs fault-free ground truth.
    Kernel,
    /// Armor terminal-value liveness invariant.
    Liveness,
    /// Compiled direct-threaded engine vs interpreter fast loop.
    Compiled,
}

impl std::fmt::Display for Pair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

/// One oracle disagreement.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Which pair disagreed.
    pub pair: Pair,
    /// The `main` argument under which it manifested.
    pub arg: u64,
    /// Human-readable discrepancy.
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{:?} @ arg={}] {}", self.pair, self.arg, self.detail)
    }
}

/// Interp memory layout (matches `tests/properties.rs`).
const GLOBAL_BASE: u64 = 0x1000_0000;
const STACK_BASE: u64 = 0x7f00_0000_0000;
const STACK_LIMIT: u64 = STACK_BASE + 0x0100_0000;
const HEAP_BASE: u64 = 0x6000_0000_0000;
const INTERP_FUEL: u64 = 50_000_000;
/// Machine full-run fuel cap (generated programs are counted-loop bounded;
/// this is a safety net, not a hang oracle).
const MACHINE_FUEL: u64 = 10_000_000;

/// `main` arguments each program is exercised under.
pub const ORACLE_ARGS: [u64; 3] = [0, 3, 11];

/// What the trellis pair's campaigns exercised of the golden states, summed
/// over the programs checked. A program too short for a checkpoint (the
/// first sits 1 024 steps in) has no hop and no golden state to stop at: its
/// runs compare with nothing and run out.
#[derive(Clone, Copy, Default, Debug)]
pub struct Reach {
    /// Campaigns run by the trellis pair.
    pub campaigns: u64,
    /// Of those, campaigns that reached a golden state: a hop cloned one or
    /// a run paused at one to compare.
    pub reached_a_state: u64,
    /// Cursor hops to a bracket past program start, each starting from the
    /// job's golden state kept there.
    pub hops: u64,
    /// Unprotected suffixes that stopped at the golden state they re-joined.
    pub suffixes_rejoined: u64,
    /// Safeguard-repaired runs that did.
    pub repaired_rejoined: u64,
    /// Of the runs that re-joined, those that did at a step no job state
    /// stands at: found ahead of the golden run by the shift search.
    pub shifted: u64,
}

/// Check a spec across all pairs and arguments. Returns the first
/// divergence; `reach` accumulates what the trellis pair got to.
pub fn check_spec(spec: &ProgramSpec, reach: &mut Reach) -> Option<Divergence> {
    let m = build(spec);
    check_module(&m, spec.seed, reach)
}

/// Check an already-built module (also the `tests/regressions/` replay entry
/// point — reproducers are stored as `.tir` text and come back through the
/// parser). `salt` diversifies campaign seeds between programs; `reach`
/// accumulates what the trellis pair got to.
pub fn check_module(m: &Module, salt: u64, reach: &mut Reach) -> Option<Divergence> {
    if let Some(d) = roundtrip_check(m) {
        return Some(d);
    }
    // Compile both levels once; armor once.
    let mm0 = Arc::new(compile_module(m, false, &[]));
    let mut oir = m.clone();
    opt::optimize(&mut oir, OptLevel::O1);
    if let Some(d) = roundtrip_check(&oir) {
        return Some(d);
    }
    let armor_out = run_armor(&oir);
    let mm1 = Arc::new(compile_module(&oir, true, &armor_out.die_requests));
    let outputs = output_globals(m);

    if let Some(d) = liveness_check(&oir, &armor_out) {
        return Some(d);
    }

    // One compiled engine per module, shared by every argument.
    let engines = [&mm0, &mm1]
        .map(|mm| (mm, CompiledEngine::for_image(&Process::new(Arc::clone(mm), vec![]).image)));
    for &arg in &ORACLE_ARGS {
        // Pairs 2 and 7 first: they tolerate (and must agree on) trapping
        // programs.
        for (mm, compiled) in &engines {
            if let Some(d) = engine_pairs_check(mm, compiled, arg, &outputs, salt) {
                return Some(d);
            }
        }
        // The remaining pairs need a fault-free golden run.
        let golden = run_machine(&InterpEngine, &started(&mm0, arg), MACHINE_FUEL, &outputs);
        if !matches!(golden.exit, RunExit::Done(_)) {
            continue;
        }
        if let Some(d) = opt_levels_check(m, &oir, &mm0, &mm1, arg, &outputs) {
            return Some(d);
        }
        if let Some(d) = kernel_probe_check(&oir, &armor_out, arg) {
            return Some(d);
        }
    }

    // Pair 4 once per program (campaigns pick their own injection points).
    let arg = ORACLE_ARGS[1];
    let golden = run_machine(&InterpEngine, &started(&mm0, arg), MACHINE_FUEL, &outputs);
    if matches!(golden.exit, RunExit::Done(_)) {
        if let Some(d) = trellis_check(m, &armor_out, &mm1, arg, &outputs, salt, reach) {
            return Some(d);
        }
    }
    None
}

/// Output regions: every generated global array.
fn output_globals(m: &Module) -> Vec<(String, u64)> {
    m.globals.iter().map(|g| (g.name.clone(), g.count as u64 * g.elem_ty.size() as u64)).collect()
}

// ---------------------------------------------------------------- pair 1 --

fn roundtrip_check(m: &Module) -> Option<Divergence> {
    let t1 = print_module(m);
    let reparsed = match parse_module(&t1) {
        Ok(p) => p,
        Err(e) => {
            return Some(Divergence {
                pair: Pair::RoundTrip,
                arg: 0,
                detail: format!("printed module does not parse: {e}"),
            })
        }
    };
    if let Err(e) = verify_module(&reparsed) {
        return Some(Divergence {
            pair: Pair::RoundTrip,
            arg: 0,
            detail: format!("reparsed module does not verify: {e}"),
        });
    }
    let t2 = print_module(&reparsed);
    if t1 != t2 {
        let at = t1
            .lines()
            .zip(t2.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .map(|(i, (a, b))| format!("line {}: {a:?} vs {b:?}", i + 1))
            .unwrap_or_else(|| "length mismatch".into());
        return Some(Divergence {
            pair: Pair::RoundTrip,
            arg: 0,
            detail: format!("print→parse→print not a fixpoint at {at}"),
        });
    }
    None
}

// ------------------------------------------------------------- pairs 2+7 --

/// Everything observable about one machine run.
#[derive(Clone, PartialEq, Debug)]
struct RunState {
    exit: RunExit,
    steps: u64,
    fuel_left: u64,
    trap_count: u64,
    globals: Vec<Vec<u8>>,
}

/// A point of the executable module to stop after: `(func, inst, nth)`.
type Stop = (FuncId, usize, u64);

/// A stop that fired, as [`simx::BreakSet::take_fired`] names it.
type Fired = (ModuleId, FuncId, usize, u64);

/// What an armed run shows beyond its end state: the exit, steps and fired
/// point of its first leg, and the profile of the whole run.
#[derive(PartialEq, Debug)]
struct Armed {
    first: (RunExit, u64, Option<Fired>),
    profile: Option<Profile>,
}

/// `main(arg)` started and not run: the process every run of it forks.
fn started(mm: &Arc<MachineModule>, arg: u64) -> Process {
    let mut p = Process::new(Arc::clone(mm), vec![]);
    p.start("main", &[arg]);
    p
}

fn state_of(p: &Process, exit: RunExit, outputs: &[(String, u64)]) -> RunState {
    let globals = outputs
        .iter()
        .map(|(name, bytes)| p.snapshot_global(name, *bytes).unwrap_or_default())
        .collect();
    RunState { exit, steps: p.steps, fuel_left: p.fuel, trap_count: p.trap_count, globals }
}

/// Run a fork of `base` on `engine` with `fuel`.
fn run_machine(
    engine: &dyn ExecutionEngine,
    base: &Process,
    fuel: u64,
    outputs: &[(String, u64)],
) -> RunState {
    let mut p = base.clone();
    p.fuel = fuel;
    let exit = engine.run(&mut p);
    state_of(&p, exit, outputs)
}

/// [`run_machine`] armed: handed one profiling [`Instrument`] with `stop`,
/// and resumed after the stop fires, to the end the plain run reaches.
fn run_armed(
    engine: &dyn ExecutionEngine,
    base: &Process,
    fuel: u64,
    stop: Option<Stop>,
    outputs: &[(String, u64)],
) -> (RunState, Armed) {
    let mut p = base.clone();
    p.fuel = fuel;
    let mut instr = Instrument::profiling(&p.image);
    if let Some((func, inst, nth)) = stop {
        instr.stops.add(ModuleId(0), func, inst, nth);
    }
    let mut exit = engine.run_instrumented(&mut p, &mut instr);
    let first = (exit, p.steps, instr.stops.take_fired());
    while exit == RunExit::BreakHit {
        exit = engine.run_instrumented(&mut p, &mut instr);
    }
    (state_of(&p, exit, outputs), Armed { first, profile: instr.profile })
}

/// One stop drawn from a run's `profile`: an executed instruction of the
/// executable module, and one of its executions. `main`'s returns are left
/// out: a stop there ends the run with its value unseen, so the resumed run
/// could not end as the plain one does.
fn draw_stop(mm: &MachineModule, profile: &Profile, rng: &mut impl rand::Rng) -> Option<Stop> {
    let main = mm.func_by_name("main");
    let executed: Vec<Stop> = (profile[0].iter().enumerate())
        .flat_map(|(f, counts)| {
            let func = FuncId(f as u32);
            let is_main = Some(func) == main;
            (counts.iter().enumerate())
                .filter(move |&(i, &n)| {
                    n > 0 && !(is_main && matches!(mm.funcs[f].instrs[i], MInst::Ret { .. }))
                })
                .map(move |(i, &n)| (func, i, n))
        })
        .collect();
    if executed.is_empty() {
        return None;
    }
    let (func, inst, count) = executed[rng.gen_range(0..executed.len())];
    Some((func, inst, rng.gen_range(1..=count)))
}

/// Pairs 2 and 7 over one fuel sweep: every budget on short programs, the
/// edges plus a sample on long ones, so partial segments, mid-fusion
/// out-of-fuel exits and trap freezes are all exercised. At each budget the
/// interpreter's fast loop is the reference its stepped instrumented run,
/// armed with one stop drawn from the program's own profile, and `compiled`,
/// built over `mm`, must end like; and the compiled engine armed with the
/// same stop must match the stepped run leg for leg, profile included.
fn engine_pairs_check(
    mm: &Arc<MachineModule>,
    compiled: &CompiledEngine,
    arg: u64,
    outputs: &[(String, u64)],
    salt: u64,
) -> Option<Divergence> {
    use rand::{Rng, SeedableRng};
    let base = started(mm, arg);
    let (whole, profiled) = run_armed(&InterpEngine, &base, MACHINE_FUEL, None, outputs);
    let total = whole.steps;
    let mut rng = rand::rngs::SmallRng::seed_from_u64(salt ^ total ^ arg);
    let budgets: Vec<u64> = if total <= 256 {
        (0..=total + 1).collect()
    } else {
        let mut v: Vec<u64> = vec![0, 1, 2, total - 2, total - 1, total, total + 1];
        v.extend((0..24).map(|_| rng.gen_range(3..total.saturating_sub(2))));
        v
    };
    let stop = profiled.profile.and_then(|profile| draw_stop(mm, &profile, &mut rng));
    for b in budgets {
        let fast = run_machine(&InterpEngine, &base, b, outputs);
        let (slow, stepped) = run_armed(&InterpEngine, &base, b, stop, outputs);
        if fast != slow {
            return Some(Divergence {
                pair: Pair::FastSlow,
                arg,
                detail: format!(
                    "fuel budget {b}, stop {stop:?}: fast {:?} (steps {}, traps {}) vs slow {:?} \
                     (steps {}, traps {})",
                    fast.exit, fast.steps, fast.trap_count, slow.exit, slow.steps, slow.trap_count
                ),
            });
        }
        let comp = run_machine(compiled, &base, b, outputs);
        if fast != comp {
            return Some(Divergence {
                pair: Pair::Compiled,
                arg,
                detail: format!(
                    "fuel budget {b}: interp {:?} (steps {}, fuel {}, traps {}) vs \
                     compiled {:?} (steps {}, fuel {}, traps {})",
                    fast.exit,
                    fast.steps,
                    fast.fuel_left,
                    fast.trap_count,
                    comp.exit,
                    comp.steps,
                    comp.fuel_left,
                    comp.trap_count
                ),
            });
        }
        let (comp_slow, comp_armed) = run_armed(compiled, &base, b, stop, outputs);
        if (&slow, &stepped) != (&comp_slow, &comp_armed) {
            let same_profile = stepped.profile == comp_armed.profile;
            return Some(Divergence {
                pair: Pair::Compiled,
                arg,
                detail: format!(
                    "fuel budget {b}, stop {stop:?}: stepped first leg {:?}, end {:?} (steps {}) \
                     vs compiled first leg {:?}, end {:?} (steps {}); same profile: {same_profile}",
                    stepped.first,
                    slow.exit,
                    slow.steps,
                    comp_armed.first,
                    comp_slow.exit,
                    comp_slow.steps
                ),
            });
        }
    }
    None
}

// ---------------------------------------------------------------- pair 3 --

fn run_interp(m: &Module, arg: u64, outputs: &[(String, u64)]) -> Result<RunState, String> {
    let mut mem = PagedMemory::new();
    let gaddrs = layout_globals(m, &mut mem, GLOBAL_BASE);
    let main = m.func_by_name("main").ok_or("no main")?;
    let (ret, steps) = {
        let mut it =
            Interp::new(m, &mut mem, &gaddrs, STACK_BASE, STACK_LIMIT, HEAP_BASE, INTERP_FUEL);
        let ret = it.call(main, &[arg]).map_err(|e| format!("interp fault: {e:?}"))?;
        (ret, it.steps)
    };
    let mut globals = Vec::with_capacity(outputs.len());
    for (name, bytes) in outputs {
        let gid = m.global_by_name(name).ok_or("missing global")?;
        let base = gaddrs[gid.0 as usize];
        let mut buf = Vec::with_capacity(*bytes as usize);
        let mut off = 0u64;
        while off < *bytes {
            let w = mem.load(base + off, 1).map_err(|e| format!("{e:?}"))?;
            buf.push(w as u8);
            off += 1;
        }
        globals.push(buf);
    }
    Ok(RunState { exit: RunExit::Done(ret), steps, fuel_left: 0, trap_count: 0, globals })
}

fn opt_levels_check(
    m: &Module,
    oir: &Module,
    mm0: &Arc<MachineModule>,
    mm1: &Arc<MachineModule>,
    arg: u64,
    outputs: &[(String, u64)],
) -> Option<Divergence> {
    let diverge = |engine: &str, detail: String| {
        Some(Divergence { pair: Pair::OptLevels, arg, detail: format!("{engine}: {detail}") })
    };
    let i0 = match run_interp(m, arg, outputs) {
        Ok(r) => r,
        Err(e) => return diverge("interp O0", e),
    };
    let i1 = match run_interp(oir, arg, outputs) {
        Ok(r) => r,
        Err(e) => return diverge("interp O1", e),
    };
    let m0 = run_machine(&InterpEngine, &started(mm0, arg), MACHINE_FUEL, outputs);
    let m1 = run_machine(&InterpEngine, &started(mm1, arg), MACHINE_FUEL, outputs);
    let engines =
        [("interp O0", &i0), ("interp O1", &i1), ("machine O0", &m0), ("machine O1", &m1)];
    for (name, r) in &engines[1..] {
        if r.exit != i0.exit {
            return diverge(name, format!("result {:?}, expected {:?}", r.exit, i0.exit));
        }
        if r.globals != i0.globals {
            let which = outputs
                .iter()
                .zip(i0.globals.iter().zip(r.globals.iter()))
                .find(|(_, (a, b))| a != b)
                .map(|((n, _), _)| n.clone())
                .unwrap_or_default();
            return diverge(name, format!("output global {which} differs from interp O0"));
        }
    }
    None
}

// ---------------------------------------------------------------- pair 4 --

fn trellis_check(
    m: &Module,
    armor_out: &ArmorOutput,
    mm1: &Arc<MachineModule>,
    arg: u64,
    outputs: &[(String, u64)],
    salt: u64,
    reach: &mut Reach,
) -> Option<Divergence> {
    let out_refs: Vec<(&str, u64)> = outputs.iter().map(|(n, b)| (n.as_str(), *b)).collect();
    let w = Workload::new("fuzz", m.clone(), vec![arg], out_refs);
    let app = CompiledApp {
        machine: Arc::clone(mm1),
        armor: armor_out.clone(),
        opt_level: OptLevel::O1,
        build: BuildStats::default(),
    };
    let campaign = Campaign::prepare(&w, app, vec![]);
    let cfg = CampaignConfig {
        injections: 6,
        evaluate_care: true,
        app_only: true,
        keep_records: true,
        seed: salt.wrapping_mul(0x9E37_79B9).wrapping_add(arg),
        ..CampaignConfig::default()
    };
    let reference: Vec<InjectionRecord> =
        (0..cfg.injections).filter_map(|i| campaign.run_one(&cfg, i)).collect();
    let rec = telemetry::Recorder::new();
    let trellises = [
        ("trellis", campaign.run(&cfg).records),
        ("trellis with a recorder", campaign.run_with_hooks(&cfg, &rec).records),
    ];
    for (name, trellis) in trellises {
        if trellis != reference {
            let detail = trellis
                .iter()
                .zip(reference.iter())
                .enumerate()
                .find(|(_, (a, b))| a != b)
                .map(|(i, (a, b))| format!("injection {i}: {name} {a:?} vs run_one {b:?}"))
                .unwrap_or_else(|| {
                    format!("{name}: {} vs {} records", trellis.len(), reference.len())
                });
            return Some(Divergence { pair: Pair::Trellis, arg, detail });
        }
    }
    let heard = rec.drain().counters;
    let heard = |name: &str| heard.get(name).copied().unwrap_or(0);
    let hops = heard("cursor.hops");
    reach.campaigns += 1;
    reach.reached_a_state += (hops + heard("suffix.compares") + heard("care.compares") > 0) as u64;
    reach.hops += hops;
    reach.suffixes_rejoined += heard("suffix.converged");
    reach.repaired_rejoined += heard("care.converged");
    reach.shifted += heard("suffix.shifted") + heard("care.shifted");
    None
}

// ------------------------------------------------------------- pairs 5+6 --

/// One instrumentable protected access: the first access (in Armor's own
/// iteration order) carrying each recovery key, in the function whose values
/// the kernel's DIE parameters refer to.
struct ProbeSite {
    fid: usize,
    access: InstrId,
    /// Index of this site's counter slot in the probe global.
    slot: usize,
    /// Kernel function id *within the kernel module*.
    kernel: FuncId,
    /// Call arguments resolved to app-function values.
    args: Vec<Value>,
}

/// Locate every probe site. Mirrors `run_armor`'s iteration exactly so each
/// table entry is matched to the access its kernel was extracted from.
fn probe_sites(oir: &Module, out: &ArmorOutput) -> Vec<ProbeSite> {
    let by_name: HashMap<&str, &simx::DieRequest> =
        out.die_requests.iter().map(|r| (r.name.as_str(), r)).collect();
    let mut seen = std::collections::HashSet::new();
    let mut sites = Vec::new();
    for (fi, f) in oir.funcs.iter().enumerate() {
        if f.is_decl {
            continue;
        }
        for access in f.mem_access_instrs() {
            let Some(loc) = f.instr(access).loc else { continue };
            let key = RecoveryKey::for_loc(oir, loc);
            if !seen.insert(key) {
                continue; // only the first access per key owns the kernel
            }
            let Some(entry) = out.table.lookup(&key) else { continue };
            let mut args = Vec::with_capacity(entry.params.len());
            let mut ok = true;
            for spec in &entry.params {
                match spec {
                    ParamSpec::GlobalAddr { name } => match oir.global_by_name(name) {
                        Some(g) => args.push(Value::Global(g)),
                        None => ok = false,
                    },
                    ParamSpec::Die { name } => match by_name.get(name.as_str()) {
                        Some(r) if r.func.0 as usize == fi => args.push(r.value),
                        _ => ok = false, // kernel belongs to another function
                    },
                    // Constants never become parameters (extraction folds
                    // them); skip defensively if one ever appears.
                    ParamSpec::Const(_) => ok = false,
                }
            }
            if ok {
                sites.push(ProbeSite {
                    fid: fi,
                    access,
                    slot: sites.len(),
                    kernel: entry.kernel,
                    args,
                });
            }
        }
    }
    sites
}

/// Pair 5: clone the optimized module, append the kernel library, and insert
/// before every protected access: `probe[slot] += (kernel(args) != addr)`.
/// A fault-free run must leave every probe slot at zero — the kernel
/// recomputes exactly the address the access uses (paper §4).
fn kernel_probe_check(oir: &Module, out: &ArmorOutput, arg: u64) -> Option<Divergence> {
    let sites = probe_sites(oir, out);
    if sites.is_empty() {
        return None;
    }
    let mut pm = oir.clone();
    let kernel_base = pm.funcs.len();
    for kf in &out.kernel_module.funcs {
        pm.add_func(kf.clone());
    }
    let probe_gid = pm.add_global(Global {
        name: "care_probe".into(),
        elem_ty: Ty::I64,
        count: sites.len() as u32,
        init: GlobalInit::Zero,
    });

    for site in &sites {
        let f = &mut pm.funcs[site.fid];
        let Some(addr) = f.instr(site.access).addr_operand() else { continue };
        let kfid = FuncId((kernel_base + site.kernel.0 as usize) as u32);
        // Append the probe instructions to the arena, then splice their ids
        // into the block right before the access.
        let base_id = f.instrs.len() as u32;
        let id = |k: u32| Value::Instr(InstrId(base_id + k));
        let new_instrs = [
            InstrKind::Call {
                callee: Callee::Func(kfid),
                args: site.args.clone(),
                ret_ty: Some(Ty::Ptr),
            },
            InstrKind::Icmp { pred: ICmp::Ne, lhs: id(0), rhs: addr },
            InstrKind::Cast { op: CastOp::Zext, val: id(1), to: Ty::I64 },
            InstrKind::Gep {
                base: Value::Global(probe_gid),
                index: Value::i64(site.slot as i64),
                elem_size: 8,
            },
            InstrKind::Load { ptr: id(3), ty: Ty::I64 },
            InstrKind::Bin { op: tinyir::BinOp::Add, lhs: id(4), rhs: id(2), ty: Ty::I64 },
            InstrKind::Store { val: id(5), ptr: id(3) },
        ];
        for kind in new_instrs {
            f.instrs.push(Instr::new(kind));
        }
        let (bidx, pos) = f
            .blocks
            .iter()
            .enumerate()
            .find_map(|(bi, b)| b.instrs.iter().position(|&i| i == site.access).map(|p| (bi, p)))
            .expect("access is in some block");
        let ids: Vec<InstrId> = (0..7).map(|k| InstrId(base_id + k)).collect();
        f.blocks[bidx].instrs.splice(pos..pos, ids);
    }
    pm.rebuild_indexes();
    if let Err(e) = verify_module(&pm) {
        return Some(Divergence {
            pair: Pair::Kernel,
            arg,
            detail: format!("probe instrumentation does not verify: {e}"),
        });
    }

    let outputs = vec![("care_probe".to_string(), sites.len() as u64 * 8)];
    match run_interp(&pm, arg, &outputs) {
        Ok(state) => {
            let probe = &state.globals[0];
            for site in &sites {
                let off = site.slot * 8;
                let count = u64::from_le_bytes(probe[off..off + 8].try_into().unwrap());
                if count != 0 {
                    let f = &oir.funcs[site.fid];
                    return Some(Divergence {
                        pair: Pair::Kernel,
                        arg,
                        detail: format!(
                            "kernel for {} access {:?} in @{} recomputed a wrong address {count} time(s)",
                            site.slot, site.access, f.name
                        ),
                    });
                }
            }
            None
        }
        Err(e) => Some(Divergence {
            pair: Pair::Kernel,
            arg,
            detail: format!("instrumented run faulted (kernels must be transparent): {e}"),
        }),
    }
}

/// Pair 6 (satellite): the terminal-value invariant. Every `Die` parameter's
/// IR value is live at the protected access per `analysis::liveness`, or is
/// folded into the access's own machine address operand (gep + operands),
/// or is materialised storage (alloca).
pub fn liveness_check(oir: &Module, out: &ArmorOutput) -> Option<Divergence> {
    let sites = probe_sites(oir, out);
    let mut lv_cache: HashMap<usize, Liveness> = HashMap::new();
    for site in &sites {
        let f = &oir.funcs[site.fid];
        let lv = lv_cache.entry(site.fid).or_insert_with(|| Liveness::compute(f, &Cfg::new(f)));
        // Values folded into the access's address mode are operands of the
        // faulting instruction itself, live by construction.
        let mut folded = std::collections::HashSet::new();
        if let Some(addr) = f.instr(site.access).addr_operand() {
            folded.insert(addr);
            if let Value::Instr(g) = addr {
                if let InstrKind::Gep { base, index, .. } = f.instr(g).kind {
                    folded.insert(base);
                    folded.insert(index);
                }
            }
        }
        for v in &site.args {
            let live = match v {
                Value::Instr(id) => {
                    folded.contains(v)
                        || matches!(f.instr(*id).kind, InstrKind::Alloca { .. })
                        || lv.value_live_at(*v, site.access)
                }
                Value::Arg(_) => true,
                _ => true,
            };
            if !live {
                return Some(Divergence {
                    pair: Pair::Liveness,
                    arg: 0,
                    detail: format!(
                        "kernel param {v:?} for access {:?} in @{} is not live at the access",
                        site.access, oir.funcs[site.fid].name
                    ),
                });
            }
        }
    }
    None
}
