//! Property-based tests over the core substrates: random programs are
//! generated with the builder, then checked against the invariants the
//! pipeline relies on — printer/parser round-trip, interpreter ⟷ machine
//! equivalence at both optimisation levels, and recovery-kernel semantic
//! correctness.

use opt::OptLevel;
use proptest::prelude::*;
use tinyir::builder::{FuncBuilder, ModuleBuilder};
use tinyir::{BinOp, CastOp, ICmp, Module, Ty, Value};

/// A recipe for one random straight-line/looped program.
#[derive(Clone, Debug)]
struct ProgramSpec {
    ops: Vec<OpSpec>,
    loop_trip: u8,
    array_len: u8,
}

#[derive(Clone, Debug)]
enum OpSpec {
    /// acc = acc <op> (iv + k)
    IntOp(BinOp, i8),
    /// facc = facc <op> const
    FloatOp(BinOp, i16),
    /// store/load round-trip at (iv*a + b) % len
    Mem(u8, u8),
    /// acc = select(acc < k, acc*3, acc-1)
    Select(i8),
    /// facc += sqrt(|facc|)
    Sqrt,
}

fn op_strategy() -> impl Strategy<Value = OpSpec> {
    prop_oneof![
        (
            prop_oneof![
                Just(BinOp::Add),
                Just(BinOp::Sub),
                Just(BinOp::Mul),
                Just(BinOp::And),
                Just(BinOp::Or),
                Just(BinOp::Xor),
                Just(BinOp::Shl),
                Just(BinOp::LShr),
            ],
            any::<i8>()
        )
            .prop_map(|(op, k)| OpSpec::IntOp(op, k)),
        (
            prop_oneof![Just(BinOp::FAdd), Just(BinOp::FSub), Just(BinOp::FMul), Just(BinOp::FDiv)],
            any::<i16>()
        )
            .prop_map(|(op, k)| OpSpec::FloatOp(op, k)),
        (1u8..8, any::<u8>()).prop_map(|(a, b)| OpSpec::Mem(a, b)),
        any::<i8>().prop_map(OpSpec::Select),
        Just(OpSpec::Sqrt),
    ]
}

fn spec_strategy() -> impl Strategy<Value = ProgramSpec> {
    (proptest::collection::vec(op_strategy(), 1..12), 2u8..10, 8u8..32)
        .prop_map(|(ops, loop_trip, array_len)| ProgramSpec { ops, loop_trip, array_len })
}

/// Materialise the spec as a TinyIR module with one `main(i64) -> i64`.
fn build_program(spec: &ProgramSpec) -> Module {
    let mut mb = ModuleBuilder::new("prop", "prop.c");
    let arr = mb.global_zeroed("arr", Ty::I64, spec.array_len as u32);
    let len = spec.array_len as i64;
    let ops = spec.ops.clone();
    mb.define("main", vec![Ty::I64], Some(Ty::I64), |fb| {
        let acc = fb.alloca(Ty::I64, 1);
        let facc = fb.alloca(Ty::F64, 1);
        fb.store(fb.arg(0), acc);
        fb.store(Value::f64(1.5), facc);
        fb.for_loop(Value::i64(0), Value::i64(spec.loop_trip as i64), |fb, iv| {
            for op in &ops {
                apply_op(fb, op, acc, facc, iv, arr, len);
            }
        });
        // Fold the float accumulator into the integer result.
        let fv = fb.load(facc, Ty::F64);
        let guarded = guard_finite(fb, fv);
        let fi = fb.cast(CastOp::FpToSi, guarded, Ty::I64);
        let a = fb.load(acc, Ty::I64);
        let r = fb.add(a, fi, Ty::I64);
        fb.ret(Some(r));
    });
    mb.finish()
}

/// Clamp possibly-inf/nan floats so FpToSi stays well-defined across
/// backends.
fn guard_finite(fb: &mut FuncBuilder<'_>, v: Value) -> Value {
    let lo = fb.intrinsic(tinyir::Intrinsic::FMax, vec![v, Value::f64(-1e15)]);
    fb.intrinsic(tinyir::Intrinsic::FMin, vec![lo, Value::f64(1e15)])
}

fn apply_op(
    fb: &mut FuncBuilder<'_>,
    op: &OpSpec,
    acc: Value,
    facc: Value,
    iv: Value,
    arr: tinyir::GlobalId,
    len: i64,
) {
    match op {
        OpSpec::IntOp(bin, k) => {
            let a = fb.load(acc, Ty::I64);
            let operand = fb.add(iv, Value::i64(*k as i64), Ty::I64);
            let r = fb.bin(*bin, a, operand, Ty::I64);
            fb.store(r, acc);
        }
        OpSpec::FloatOp(bin, k) => {
            let a = fb.load(facc, Ty::F64);
            let c = Value::f64(*k as f64 / 16.0 + 0.5);
            let r = fb.bin(*bin, a, c, Ty::F64);
            fb.store(r, facc);
        }
        OpSpec::Mem(a, b) => {
            let scaled = fb.mul(iv, Value::i64(*a as i64), Ty::I64);
            let off = fb.add(scaled, Value::i64(*b as i64), Ty::I64);
            let idx = fb.srem(off, Value::i64(len), Ty::I64);
            let cur = fb.load_elem(fb.global(arr), idx, Ty::I64);
            let acc_v = fb.load(acc, Ty::I64);
            let nv = fb.add(cur, acc_v, Ty::I64);
            fb.store_elem(nv, fb.global(arr), idx, Ty::I64);
        }
        OpSpec::Select(k) => {
            let a = fb.load(acc, Ty::I64);
            let c = fb.icmp(ICmp::Slt, a, Value::i64(*k as i64));
            let t = fb.mul(a, Value::i64(3), Ty::I64);
            let f = fb.sub(a, Value::i64(1), Ty::I64);
            let r = fb.select(c, t, f, Ty::I64);
            fb.store(r, acc);
        }
        OpSpec::Sqrt => {
            let a = fb.load(facc, Ty::F64);
            let abs = fb.intrinsic(tinyir::Intrinsic::Fabs, vec![a]);
            let s = fb.sqrt(abs);
            let r = fb.fadd(a, s, Ty::F64);
            fb.store(r, facc);
        }
    }
}

fn run_interp(m: &Module, arg: u64) -> Result<Option<u64>, String> {
    let mut mem = tinyir::mem::PagedMemory::new();
    let globals = tinyir::interp::layout_globals(m, &mut mem, 0x1000_0000);
    let mut interp = tinyir::interp::Interp::new(
        m,
        &mut mem,
        &globals,
        0x7f00_0000_0000,
        0x7f00_0100_0000,
        0x6000_0000_0000,
        50_000_000,
    );
    interp.call(m.func_by_name("main").unwrap(), &[arg]).map_err(|e| format!("{e:?}"))
}

fn run_machine(m: &Module, arg: u64, regalloc: bool) -> Result<Option<u64>, String> {
    let mm = simx::compile_module(m, regalloc, &[]);
    let mut p = simx::Process::new(mm, vec![]);
    p.start("main", &[arg]);
    match p.run() {
        simx::RunExit::Done(v) => Ok(v),
        other => Err(format!("{other:?}")),
    }
}

/// Liveness by its definition: `v` is live before instruction `I` iff some
/// path from `I` reaches a use of `v` without executing `v`'s definition,
/// where a phi's use sits at the end of its incoming block. Searched per
/// value, backward from its uses over instruction points — no block
/// summaries, no bit rows. `live[b][i]` holds for the point before
/// instruction `i` of block `b`; `live[b][len]` is the block's end.
fn live_by_definition(f: &tinyir::Function, key: Value) -> Vec<Vec<bool>> {
    use tinyir::InstrKind;
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); f.blocks.len()];
    for (bid, block) in f.block_iter() {
        if let Some(&last) = block.instrs.last() {
            for s in f.instr(last).successors() {
                preds[s.0 as usize].push(bid.0 as usize);
            }
        }
    }
    let mut live: Vec<Vec<bool>> =
        f.blocks.iter().map(|b| vec![false; b.instrs.len() + 1]).collect();
    let mut work: Vec<(usize, usize)> = Vec::new();
    for (bid, block) in f.block_iter() {
        for (i, &iid) in block.instrs.iter().enumerate() {
            let instr = f.instr(iid);
            match &instr.kind {
                InstrKind::Phi { incomings, .. } => {
                    for (inb, v) in incomings {
                        if *v == key {
                            let p = inb.0 as usize;
                            work.push((p, f.blocks[p].instrs.len()));
                        }
                    }
                }
                _ => {
                    if instr.operands().contains(&key) {
                        work.push((bid.0 as usize, i));
                    }
                }
            }
        }
    }
    let defines =
        |iid: tinyir::InstrId| key == Value::Instr(iid) && f.instr(iid).result_ty().is_some();
    while let Some((b, i)) = work.pop() {
        if live[b][i] {
            continue;
        }
        live[b][i] = true;
        if i > 0 {
            // The point before instruction i-1 reaches here unless that
            // instruction is the definition.
            if !defines(f.blocks[b].instrs[i - 1]) {
                work.push((b, i - 1));
            }
        } else {
            for &p in &preds[b] {
                work.push((p, f.blocks[p].instrs.len()));
            }
        }
    }
    live
}

/// Hold `analysis::Liveness` to [`live_by_definition`] at every (value,
/// instruction) pair of every reachable block, and `has_nonlocal_use` to its
/// definition: a phi use, or a use outside the defining block (the entry
/// block for arguments). Unreachable blocks take no part in the block
/// dataflow, so they are not compared.
fn check_liveness(m: &Module) -> Result<usize, String> {
    let mut pairs = 0;
    for f in m.funcs.iter().filter(|f| !f.is_decl) {
        let cfg = analysis::Cfg::new(f);
        let lv = analysis::Liveness::compute(f, &cfg);
        let mut owner = vec![tinyir::BlockId(0); f.instrs.len()];
        for (bid, block) in f.block_iter() {
            for &i in &block.instrs {
                owner[i.0 as usize] = bid;
            }
        }
        let values = (0..f.instrs.len() as u32)
            .map(|i| Value::Instr(tinyir::InstrId(i)))
            .chain((0..f.params.len() as u32).map(Value::Arg));
        for v in values {
            let live = live_by_definition(f, v);
            let home = match v {
                Value::Instr(d) => owner[d.0 as usize],
                _ => tinyir::BlockId(0),
            };
            let mut nonlocal = false;
            for (bid, block) in f.block_iter() {
                for &iid in &block.instrs {
                    let instr = f.instr(iid);
                    let is_phi = matches!(instr.kind, tinyir::InstrKind::Phi { .. });
                    if instr.operands().contains(&v) && (is_phi || bid != home) {
                        nonlocal = true;
                    }
                }
                if !cfg.reachable[bid.0 as usize] {
                    continue;
                }
                for (i, &at) in block.instrs.iter().enumerate() {
                    let k = lv.key_of(v).expect("instructions and arguments have keys");
                    let (before, after) = (live[bid.0 as usize][i], live[bid.0 as usize][i + 1]);
                    if lv.live_at(k, at) != before || lv.value_live_at(v, at) != before {
                        return Err(format!("@{}: {v:?} live before {at}: want {before}", f.name));
                    }
                    if lv.live_after_instr(k, at) != after {
                        return Err(format!("@{}: {v:?} live after {at}: want {after}", f.name));
                    }
                    pairs += 1;
                }
            }
            if lv.value_has_nonlocal_use(v) != nonlocal {
                return Err(format!("@{}: {v:?} non-local use: want {nonlocal}", f.name));
            }
        }
    }
    Ok(pairs)
}

/// The five Table 1 programs, at O0 and after the O1 pipeline.
#[test]
fn liveness_matches_its_definition_on_the_workloads() {
    for w in workloads::all() {
        for level in [OptLevel::O0, OptLevel::O1] {
            let mut m = w.module.clone();
            opt::optimize(&mut m, level);
            let pairs = check_liveness(&m).unwrap_or_else(|e| panic!("{} {level}: {e}", w.name));
            assert!(pairs > 0, "{} {level}: nothing compared", w.name);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: if cfg!(debug_assertions) { 16 } else { 48 }, ..ProptestConfig::default() })]

    /// The printer and parser round-trip every generated module exactly,
    /// before and after O1.
    #[test]
    fn printer_parser_round_trip(spec in spec_strategy()) {
        let mut m = build_program(&spec);
        for level in [OptLevel::O0, OptLevel::O1] {
            opt::optimize(&mut m, level);
            let t1 = tinyir::display::print_module(&m);
            let parsed = tinyir::parser::parse_module(&t1).expect("parse");
            let t2 = tinyir::display::print_module(&parsed);
            prop_assert_eq!(t1, t2, "{}", level);
        }
    }

    /// Liveness matches its definition on generated modules, before and
    /// after O1.
    #[test]
    fn liveness_matches_its_definition(spec in spec_strategy()) {
        let mut m = build_program(&spec);
        if let Err(e) = check_liveness(&m) {
            prop_assert!(false, "O0: {}", e);
        }
        opt::optimize(&mut m, OptLevel::O1);
        if let Err(e) = check_liveness(&m) {
            prop_assert!(false, "O1: {}", e);
        }
    }

    /// Generated modules always verify, before and after O1.
    #[test]
    fn generated_modules_verify(spec in spec_strategy(), _arg in 0u64..64) {
        let mut m = build_program(&spec);
        tinyir::verify::verify_module(&m).expect("pre-opt");
        opt::optimize(&mut m, OptLevel::O1);
        tinyir::verify::verify_module(&m).expect("post-opt");
        for f in &m.funcs {
            prop_assert_eq!(f.instrs.len(), f.live_instr_count(), "@{}", f.name);
        }
    }

    /// Interpreter and machine agree bit-for-bit at O0 and O1.
    #[test]
    fn machine_matches_interpreter(spec in spec_strategy(), arg in 0u64..64) {
        let m = build_program(&spec);
        let golden = run_interp(&m, arg);
        prop_assert_eq!(&run_machine(&m, arg, false), &golden, "O0 codegen");

        let mut o1 = m.clone();
        opt::optimize(&mut o1, OptLevel::O1);
        prop_assert_eq!(&run_interp(&o1, arg), &golden, "O1 IR passes");
        prop_assert_eq!(&run_machine(&o1, arg, true), &golden, "O1 codegen");
    }

    /// For every kernel Armor builds, executing it with the *uncorrupted*
    /// parameter values at the protected access recomputes exactly the
    /// address the access dereferences (the paper's §5.2 exactness claim).
    #[test]
    fn recovery_kernels_recompute_exact_addresses(spec in spec_strategy(), arg in 0u64..32) {
        let mut m = build_program(&spec);
        opt::optimize(&mut m, OptLevel::O1);
        let app = care::compile(&m, OptLevel::O1);
        if app.armor.stats.num_kernels == 0 {
            return Ok(());
        }
        // Run under protection with NO faults: zero activations, exact
        // result — Safeguard must be invisible.
        let (mut p, mut sg) = care::protected_process(&app, &[]);
        p.start("main", &[arg]);
        let golden = run_interp(&m, arg);
        match safeguard::run_protected(&mut p, &mut sg, 4) {
            safeguard::ProtectedExit::Completed { result, recoveries, .. } => {
                prop_assert_eq!(recoveries, 0);
                prop_assert_eq!(Ok(result), golden);
            }
            other => prop_assert!(false, "unexpected exit: {:?}", other),
        }
    }

    /// Armor's terminal-value invariant (paper §3.2): every extracted kernel
    /// parameter is live per `analysis::liveness` at the faulting
    /// instruction — or is materialised storage / folded into the access's
    /// own machine address operand. A parameter that fails this may sit in a
    /// reused register at recovery time and feed garbage into the kernel.
    /// Uses the carefuzz generator, whose programs are much gnarlier (real
    /// diamonds, nested loops, inlined helpers) than this file's.
    #[test]
    fn armor_kernel_params_are_live_at_the_access(seed in 0u64..2048) {
        let spec = carefuzz::spec::ProgramSpec::generate(seed);
        let mut oir = carefuzz::spec::build(&spec);
        opt::optimize(&mut oir, OptLevel::O1);
        let out = armor::run_armor(&oir);
        if let Some(d) = carefuzz::oracle::liveness_check(&oir, &out) {
            prop_assert!(false, "seed {}: {}", seed, d);
        }
    }
}
