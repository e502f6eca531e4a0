//! The CARE build pipeline: TinyIR → optimisation → Armor → SimISA.
//!
//! [`compile`] is the analogue of `clang -fplugin=armor.so`: it runs the
//! optimisation level under evaluation, the Armor pass (recovery-kernel
//! extraction + recovery table + DIE requests) and the SimISA backend, and
//! returns everything a protected process needs. [`compile_baseline`] is the
//! plain compiler, used to measure the "normal compilation" column of
//! Table 8.

use armor::{run_armor_with, ArmorConfig, ArmorOutput};
use opt::{optimize, OptLevel, OptStats};
use safeguard::Safeguard;
use simx::{compile_module, MachineModule, ModuleId, Process};
use std::sync::Arc;
use std::time::Instant;
use tinyir::Module;

/// Build-time measurements (Table 8 columns).
#[derive(Clone, Copy, Debug, Default)]
pub struct BuildStats {
    /// Seconds for the plain compile (opt + codegen, no Armor).
    pub normal_compile_s: f64,
    /// Additional seconds spent in the Armor pass.
    pub armor_s: f64,
    /// Seconds of Armor spent in liveness analysis.
    pub armor_liveness_s: f64,
    /// Optimisation statistics.
    pub opt: OptStats,
}

/// A CARE-compiled application or library module.
///
/// The machine module sits behind an `Arc` so that every process built from
/// this app shares the one compiled copy — cloning a `CompiledApp` and
/// building processes from it never duplicates code, debug data or IR.
#[derive(Clone, Debug)]
pub struct CompiledApp {
    /// The machine code + debug data (shared, immutable).
    pub machine: Arc<MachineModule>,
    /// Armor's artefacts (kernel library, recovery table, stats).
    pub armor: ArmorOutput,
    /// The optimisation level used.
    pub opt_level: OptLevel,
    /// Build-time measurements.
    pub build: BuildStats,
}

/// Compile `module` at `level` with CARE protection (paper defaults).
pub fn compile(module: &Module, level: OptLevel) -> CompiledApp {
    compile_with(module, level, ArmorConfig::default())
}

/// Compile with an explicit Armor configuration (ablation studies).
pub fn compile_with(module: &Module, level: OptLevel, config: ArmorConfig) -> CompiledApp {
    let mut ir = module.clone();
    let t0 = Instant::now();
    let opt_stats = optimize(&mut ir, level);
    let armor_t = Instant::now();
    let armor_out = run_armor_with(&ir, config);
    let armor_s = armor_t.elapsed().as_secs_f64();
    let cg_t = Instant::now();
    let machine = compile_module(&ir, level == OptLevel::O1, &armor_out.die_requests);
    let cg_s = cg_t.elapsed().as_secs_f64();
    let normal_compile_s = (armor_t - t0).as_secs_f64() + cg_s;
    CompiledApp {
        machine: Arc::new(machine),
        armor: armor_out,
        opt_level: level,
        build: BuildStats { normal_compile_s, armor_s, armor_liveness_s: 0.0, opt: opt_stats },
    }
    .with_liveness_stat()
}

impl CompiledApp {
    fn with_liveness_stat(mut self) -> CompiledApp {
        self.build.armor_liveness_s = self.armor.stats.liveness_seconds;
        self
    }
}

/// Compile `module` at `level` without CARE (no Armor, no DIEs): the
/// baseline whose compile time Table 8 compares against.
pub fn compile_baseline(module: &Module, level: OptLevel) -> (MachineModule, f64) {
    let mut ir = module.clone();
    let t0 = Instant::now();
    optimize(&mut ir, level);
    let machine = compile_module(&ir, level == OptLevel::O1, &[]);
    (machine, t0.elapsed().as_secs_f64())
}

/// Build a (started-but-not-running) process from a compiled executable and
/// shared libraries. The single constructor every campaign, benchmark and
/// test goes through: it only bumps `Arc` refcounts on the compiled modules,
/// so per-injection process construction is O(globals + stack mapping).
pub fn build_process<'a>(
    exe: &CompiledApp,
    libs: impl IntoIterator<Item = &'a CompiledApp>,
) -> Process {
    Process::new(
        Arc::clone(&exe.machine),
        libs.into_iter().map(|l| Arc::clone(&l.machine)).collect(),
    )
}

/// Assemble a protected process from a compiled executable plus shared
/// libraries, registering every module's recovery artefacts with a fresh
/// Safeguard (the `LD_PRELOAD` moment).
pub fn protected_process(exe: &CompiledApp, libs: &[&CompiledApp]) -> (Process, Safeguard) {
    let process = build_process(exe, libs.iter().copied());
    let mut sg = Safeguard::new();
    sg.protect(ModuleId(0), &exe.armor);
    for (i, lib) in libs.iter().enumerate() {
        sg.protect(ModuleId(i as u32 + 1), &lib.armor);
    }
    (process, sg)
}

/// Memory-overhead accounting, reproducing the paper's "fixed 27 MB"
/// claim: Safeguard's resident footprint is constant (runtime libraries),
/// while kernels stay on disk until a fault and tables are compact.
#[derive(Clone, Copy, Debug)]
pub struct MemoryOverhead {
    /// Fixed resident bytes (27 MB in the paper; constant across apps).
    pub fixed_resident: u64,
    /// Encoded recovery-table bytes held in memory.
    pub tables: u64,
    /// Recovery-library bytes — loaded only during a recovery, then
    /// released (zero during normal execution).
    pub lazy_kernel_bytes: u64,
}

impl MemoryOverhead {
    /// Overhead during fault-free execution.
    pub fn steady_state_bytes(&self) -> u64 {
        self.fixed_resident + self.tables
    }
}

/// Compute the memory overhead of protecting the given modules.
pub fn memory_overhead(apps: &[&CompiledApp]) -> MemoryOverhead {
    MemoryOverhead {
        fixed_resident: safeguard::SAFEGUARD_RESIDENT_BYTES,
        tables: apps.iter().map(|a| a.armor.table.encoded_size()).sum(),
        lazy_kernel_bytes: apps
            .iter()
            .map(|a| {
                a.armor.kernel_module.funcs.iter().map(|f| f.instrs.len() as u64 * 16).sum::<u64>()
            })
            .sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safeguard::{run_protected, ProtectedExit};
    use tinyir::builder::ModuleBuilder;
    use tinyir::{Ty, Value};

    fn saxpy_like() -> Module {
        let mut mb = ModuleBuilder::new("app", "app.c");
        let x = mb.global_init(
            "x",
            Ty::F64,
            128,
            tinyir::GlobalInit::F64s((0..128).map(|i| i as f64).collect()),
        );
        let y = mb.global_zeroed("y", Ty::F64, 128);
        mb.define("main", vec![Ty::I64], Some(Ty::F64), |fb| {
            fb.for_loop(Value::i64(0), fb.arg(0), |fb, iv| {
                let xv = fb.load_elem(fb.global(x), iv, Ty::F64);
                let ax = fb.fmul(Value::f64(2.0), xv, Ty::F64);
                fb.store_elem(ax, fb.global(y), iv, Ty::F64);
            });
            let acc = fb.alloca(Ty::F64, 1);
            fb.store(Value::f64(0.0), acc);
            fb.for_loop(Value::i64(0), fb.arg(0), |fb, iv| {
                let yv = fb.load_elem(fb.global(y), iv, Ty::F64);
                let a = fb.load(acc, Ty::F64);
                let s = fb.fadd(a, yv, Ty::F64);
                fb.store(s, acc);
            });
            let r = fb.load(acc, Ty::F64);
            fb.ret(Some(r));
        });
        mb.finish()
    }

    #[test]
    fn o0_and_o1_produce_identical_results() {
        let m = saxpy_like();
        let expected: f64 = (0..100).map(|i| 2.0 * i as f64).sum();
        for level in [OptLevel::O0, OptLevel::O1] {
            let app = compile(&m, level);
            let (mut p, mut sg) = protected_process(&app, &[]);
            p.start("main", &[100]);
            match run_protected(&mut p, &mut sg, 8) {
                ProtectedExit::Completed { result, recoveries, .. } => {
                    assert_eq!(f64::from_bits(result.unwrap()), expected, "{level}");
                    assert_eq!(recoveries, 0);
                }
                other => panic!("{level}: {other:?}"),
            }
        }
    }

    #[test]
    fn care_artifacts_are_produced() {
        let m = saxpy_like();
        let app = compile(&m, OptLevel::O1);
        assert!(app.armor.stats.num_kernels >= 2);
        assert!(!app.armor.die_requests.is_empty());
        assert!(!app.machine.debug.line_table.is_empty());
        assert!(app.build.normal_compile_s >= 0.0);
        assert!(app.build.armor_s > 0.0);
    }

    #[test]
    fn steady_state_memory_overhead_is_fixed_plus_tables() {
        let m = saxpy_like();
        let app0 = compile(&m, OptLevel::O0);
        let app1 = compile(&m, OptLevel::O1);
        let o = memory_overhead(&[&app0, &app1]);
        assert_eq!(o.fixed_resident, 27 * 1024 * 1024);
        assert!(o.tables > 0);
        assert!(o.steady_state_bytes() >= o.fixed_resident);
        // Kernels are lazy: they do not count toward steady state.
        assert!(o.steady_state_bytes() < o.fixed_resident + o.tables + 1 + o.lazy_kernel_bytes);
    }

    #[test]
    fn baseline_compile_is_faster_than_care_compile() {
        let m = saxpy_like();
        let (machine, secs) = compile_baseline(&m, OptLevel::O1);
        assert!(machine.code_size > 0);
        assert!(secs >= 0.0);
        let app = compile(&m, OptLevel::O1);
        // Armor overhead is real extra work on top of the normal compile.
        assert!(app.build.armor_s > 0.0);
    }
}
