//! Seeded random program generation.
//!
//! Generation is two-phase so divergent programs can be *shrunk*: a seed
//! deterministically expands into a [`ProgramSpec`] (a small statement
//! tree), and [`build`] materialises any spec — original or shrunk — into a
//! verified TinyIR module. The spec grammar deliberately exercises the
//! shapes the engine pairs disagree on when they are wrong: nested counted
//! loops (phis + induction arithmetic), explicit if/else diamonds joined by
//! phis, GEP address arithmetic with one- and two-level indirection over
//! global arrays, f32/f64 float chains, helper calls (inlining fodder for
//! the `opt` pair) and optional guard-region loads that fault on purpose.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tinyir::builder::{FuncBuilder, ModuleBuilder};
use tinyir::verify::verify_module;
use tinyir::{BinOp, CastOp, GlobalId, ICmp, Module, Ty, Value};

/// One global array. Lengths are powers of two so every generated index can
/// be made in-bounds with a single `and` mask (totality by construction).
#[derive(Clone, Debug)]
pub struct ArraySpec {
    /// Element type (I32/I64/F32/F64).
    pub ty: Ty,
    /// log2 of the element count (3..=8).
    pub log2_len: u8,
}

impl ArraySpec {
    /// Element count (always ≥ 8, hence no `is_empty`).
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> i64 {
        1i64 << self.log2_len
    }

    /// In-bounds index mask.
    pub fn mask(&self) -> i64 {
        self.len() - 1
    }

    /// Byte size of the whole array.
    pub fn bytes(&self) -> u64 {
        self.len() as u64 * self.ty.size() as u64
    }
}

/// An integer-valued expression (always built as `i64`).
#[derive(Clone, Debug)]
pub enum IntExpr {
    /// A literal.
    Const(i64),
    /// `main`'s argument.
    N,
    /// The current integer accumulator value.
    Acc,
    /// The loop induction variable `depth` levels out (0 = innermost);
    /// falls back to [`IntExpr::N`] outside any loop.
    Iv(u8),
    /// A masked load from an integer array.
    Load { arr: usize, idx: Box<IntExpr> },
    /// Two-level indirection: `b[a[idx & ma] & mb]` (both masked).
    Indirect { a: usize, b: usize, idx: Box<IntExpr> },
    /// A binary operation (shift amounts are masked to 0..63 at build).
    Bin { op: BinOp, l: Box<IntExpr>, r: Box<IntExpr> },
    /// A float expression clamped to a finite range and truncated.
    FromFloat(Box<FloatExpr>),
    /// `cl <pred> cr ? t : f`.
    Select { pred: ICmp, cl: Box<IntExpr>, cr: Box<IntExpr>, t: Box<IntExpr>, f: Box<IntExpr> },
}

/// A float-valued expression (computed in `f64`; f32 arrays round-trip
/// through `fptrunc`/`fpext` at their loads and stores).
#[derive(Clone, Debug)]
pub enum FloatExpr {
    /// A literal (f64 bit pattern; the pool includes values that are not
    /// exactly representable in f32).
    Const(f64),
    /// The current float accumulator value.
    Facc,
    /// A masked load from a float array (F32 loads are `fpext`ed).
    Load { arr: usize, idx: Box<IntExpr> },
    /// A float binary operation.
    Bin { op: BinOp, l: Box<FloatExpr>, r: Box<FloatExpr> },
    /// `sitofp` of an integer expression.
    FromInt(Box<IntExpr>),
    /// `sqrt(|e|)`.
    Sqrt(Box<FloatExpr>),
}

/// One statement of the generated program body.
#[derive(Clone, Debug)]
pub enum Stmt {
    /// `acc = acc <op> e`.
    IntAcc { op: BinOp, e: IntExpr },
    /// `facc = facc <op> e`.
    FloatAcc { op: BinOp, e: FloatExpr },
    /// Masked store into an array (value coerced to the element type).
    Store { arr: usize, idx: IntExpr, val: IntExpr },
    /// An explicit diamond: `acc ^= phi(then_v, else_v)` — the two arms are
    /// evaluated in separate blocks and joined by a real phi node.
    If { pred: ICmp, l: IntExpr, r: IntExpr, then_v: IntExpr, else_v: IntExpr },
    /// A counted loop around a nested body (2–6 trips where generated
    /// inside a body; thousands around the whole body of a *long* program).
    Loop { trips: u32, body: Vec<Stmt> },
    /// `acc = acc + h<which>(arg)` — helper functions are inlining fodder.
    Call { which: u8, arg: IntExpr },
}

/// A deliberately-faulting load appended after the main body: the index
/// lands megabytes past every mapped global, in the guard region.
#[derive(Clone, Debug)]
pub struct TrapSpec {
    /// Which array's base address the wild load starts from.
    pub arr: usize,
}

/// A complete generated program.
#[derive(Clone, Debug)]
pub struct ProgramSpec {
    /// The seed this spec was expanded from (0 for hand-built specs).
    pub seed: u64,
    /// Global arrays `g0..gN`.
    pub arrays: Vec<ArraySpec>,
    /// Number of helper functions `h0..hK` (each takes and returns `i64`).
    pub helpers: u8,
    /// The body of `main`.
    pub stmts: Vec<Stmt>,
    /// When set, the program ends with a guard-region load and is only
    /// eligible for the trap-tolerant oracle pairs.
    pub trap: Option<TrapSpec>,
}

const INT_OPS: [BinOp; 8] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::And,
    BinOp::Or,
    BinOp::Xor,
    BinOp::Shl,
    BinOp::LShr,
];
const FLOAT_OPS: [BinOp; 4] = [BinOp::FAdd, BinOp::FSub, BinOp::FMul, BinOp::FDiv];
const PREDS: [ICmp; 6] = [ICmp::Eq, ICmp::Ne, ICmp::Slt, ICmp::Sle, ICmp::Sgt, ICmp::Uge];
/// Literal pool: includes values inexact in f32 (0.1), values that overflow
/// f32's exponent range (1e300) and negatives for the sqrt/fabs path.
const FCONSTS: [f64; 8] = [0.0, 1.0, -1.0, 0.5, 0.1, 3.25, 1e300, -2.75];

impl ProgramSpec {
    /// Expand `seed` into a program.
    pub fn generate(seed: u64) -> ProgramSpec {
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let n_arrays = rng.gen_range(2usize..=4);
        let mut arrays: Vec<ArraySpec> = Vec::with_capacity(n_arrays);
        // Always at least one integer and one float array so every expression
        // kind has a target.
        arrays.push(ArraySpec { ty: Ty::I64, log2_len: rng.gen_range(3u32..=8) as u8 });
        arrays.push(ArraySpec {
            ty: if rng.gen_range(0u32..2) == 0 { Ty::F64 } else { Ty::F32 },
            log2_len: rng.gen_range(3u32..=8) as u8,
        });
        for _ in 2..n_arrays {
            let ty = match rng.gen_range(0u32..4) {
                0 => Ty::I32,
                1 => Ty::I64,
                2 => Ty::F32,
                _ => Ty::F64,
            };
            arrays.push(ArraySpec { ty, log2_len: rng.gen_range(3u32..=8) as u8 });
        }
        let helpers = rng.gen_range(0u32..=2) as u8;
        let n_stmts = rng.gen_range(3usize..=9);
        let mut stmts = Vec::with_capacity(n_stmts);
        for _ in 0..n_stmts {
            stmts.push(gen_stmt(&mut rng, &arrays, helpers, 0));
        }
        // ~15% of programs fault on purpose; they exercise the trap paths of
        // the fast/slow interpreter pair only.
        let trap = if rng.gen_range(0u32..100) < 15 {
            Some(TrapSpec { arr: rng.gen_range(0usize..arrays.len()) })
        } else {
            None
        };
        let mut spec = ProgramSpec { seed, arrays, helpers, stmts, trap };
        // One fault-free program in 16 is *long*: its whole body runs inside
        // one more counted loop, with the trips for a golden run of 40–160 K
        // steps at `-O0`. A campaign's first checkpoint, and so the first
        // golden state a job can keep, sits 1 024 steps in and its trail
        // halves near 98 K, so these are the programs on which the trellis
        // pair reliably reaches states: a cursor hop clones one, a suffix or
        // a repaired run stops at one. (Drawn last: every other seed expands
        // as it did before the shape existed.)
        if spec.trap.is_none() && rng.gen_range(0u32..16) == 0 {
            let want = rng.gen_range(40_000u64..160_000);
            if let Some(once) = steps_of(&spec).filter(|&once| once < want) {
                let body = std::mem::take(&mut spec.stmts);
                spec.stmts = vec![Stmt::Loop { trips: (want / once) as u32, body }];
            }
        }
        spec
    }
}

/// Dynamic instructions of `spec`'s fault-free run at `-O0` under the
/// trellis pair's argument; `None` when it does not complete.
fn steps_of(spec: &ProgramSpec) -> Option<u64> {
    let mut p = simx::Process::new(simx::compile_module(&build(spec), false, &[]), vec![]);
    p.start("main", &[crate::oracle::ORACLE_ARGS[1]]);
    p.fuel = 1 << 20;
    matches!(p.run(), simx::RunExit::Done(_)).then_some(p.steps)
}

fn gen_stmt(rng: &mut SmallRng, arrays: &[ArraySpec], helpers: u8, depth: u8) -> Stmt {
    // Loops only at shallow depth; everything else anywhere.
    let top = if depth < 2 { 6 } else { 5 };
    match rng.gen_range(0u32..top) {
        0 => Stmt::IntAcc {
            op: INT_OPS[rng.gen_range(0usize..INT_OPS.len())],
            e: gen_int(rng, arrays, 0),
        },
        1 => Stmt::FloatAcc {
            op: FLOAT_OPS[rng.gen_range(0usize..FLOAT_OPS.len())],
            e: gen_float(rng, arrays, 0),
        },
        2 => Stmt::Store {
            arr: rng.gen_range(0usize..arrays.len()),
            idx: gen_int(rng, arrays, 1),
            val: gen_int(rng, arrays, 1),
        },
        3 => Stmt::If {
            pred: PREDS[rng.gen_range(0usize..PREDS.len())],
            l: gen_int(rng, arrays, 1),
            r: gen_int(rng, arrays, 1),
            then_v: gen_int(rng, arrays, 1),
            else_v: gen_int(rng, arrays, 1),
        },
        4 if helpers > 0 => Stmt::Call {
            which: rng.gen_range(0u32..helpers as u32) as u8,
            arg: gen_int(rng, arrays, 1),
        },
        4 => Stmt::IntAcc { op: BinOp::Xor, e: gen_int(rng, arrays, 0) },
        _ => {
            let n = rng.gen_range(1usize..=3);
            let body = (0..n).map(|_| gen_stmt(rng, arrays, helpers, depth + 1)).collect();
            Stmt::Loop { trips: rng.gen_range(2u32..=6), body }
        }
    }
}

fn gen_int(rng: &mut SmallRng, arrays: &[ArraySpec], depth: u8) -> IntExpr {
    let leaf = depth >= 3 || rng.gen_range(0u32..4) == 0;
    if leaf {
        return match rng.gen_range(0u32..4) {
            0 => IntExpr::Const(rng.gen_range(0u32..=128) as i64 - 64),
            1 => IntExpr::N,
            2 => IntExpr::Acc,
            _ => IntExpr::Iv(rng.gen_range(0u32..2) as u8),
        };
    }
    let int_arrays: Vec<usize> = arrays
        .iter()
        .enumerate()
        .filter(|(_, a)| matches!(a.ty, Ty::I32 | Ty::I64))
        .map(|(i, _)| i)
        .collect();
    match rng.gen_range(0u32..5) {
        0 if !int_arrays.is_empty() => IntExpr::Load {
            arr: int_arrays[rng.gen_range(0usize..int_arrays.len())],
            idx: Box::new(gen_int(rng, arrays, depth + 1)),
        },
        1 if int_arrays.len() >= 2 || (int_arrays.len() == 1) => {
            let a = int_arrays[rng.gen_range(0usize..int_arrays.len())];
            let b = int_arrays[rng.gen_range(0usize..int_arrays.len())];
            IntExpr::Indirect { a, b, idx: Box::new(gen_int(rng, arrays, depth + 1)) }
        }
        2 => IntExpr::FromFloat(Box::new(gen_float(rng, arrays, depth + 1))),
        3 => IntExpr::Select {
            pred: PREDS[rng.gen_range(0usize..PREDS.len())],
            cl: Box::new(gen_int(rng, arrays, depth + 1)),
            cr: Box::new(gen_int(rng, arrays, depth + 1)),
            t: Box::new(gen_int(rng, arrays, depth + 1)),
            f: Box::new(gen_int(rng, arrays, depth + 1)),
        },
        _ => IntExpr::Bin {
            op: INT_OPS[rng.gen_range(0usize..INT_OPS.len())],
            l: Box::new(gen_int(rng, arrays, depth + 1)),
            r: Box::new(gen_int(rng, arrays, depth + 1)),
        },
    }
}

fn gen_float(rng: &mut SmallRng, arrays: &[ArraySpec], depth: u8) -> FloatExpr {
    let leaf = depth >= 3 || rng.gen_range(0u32..3) == 0;
    if leaf {
        return match rng.gen_range(0u32..2) {
            0 => FloatExpr::Const(FCONSTS[rng.gen_range(0usize..FCONSTS.len())]),
            _ => FloatExpr::Facc,
        };
    }
    let f_arrays: Vec<usize> = arrays
        .iter()
        .enumerate()
        .filter(|(_, a)| matches!(a.ty, Ty::F32 | Ty::F64))
        .map(|(i, _)| i)
        .collect();
    match rng.gen_range(0u32..4) {
        0 if !f_arrays.is_empty() => FloatExpr::Load {
            arr: f_arrays[rng.gen_range(0usize..f_arrays.len())],
            idx: Box::new(gen_int(rng, arrays, depth + 1)),
        },
        1 => FloatExpr::FromInt(Box::new(gen_int(rng, arrays, depth + 1))),
        2 => FloatExpr::Sqrt(Box::new(gen_float(rng, arrays, depth + 1))),
        _ => FloatExpr::Bin {
            op: FLOAT_OPS[rng.gen_range(0usize..FLOAT_OPS.len())],
            l: Box::new(gen_float(rng, arrays, depth + 1)),
            r: Box::new(gen_float(rng, arrays, depth + 1)),
        },
    }
}

/// Build context while lowering a spec into IR.
struct Ctx {
    arrays: Vec<(GlobalId, ArraySpec)>,
    acc: Value,
    facc: Value,
    ivs: Vec<Value>,
    helper_ids: Vec<tinyir::FuncId>,
}

/// Materialise a spec into a verified TinyIR module with one
/// `main(i64) -> i64` plus its helper functions.
pub fn build(spec: &ProgramSpec) -> Module {
    let mut mb = ModuleBuilder::new("fuzz", "fuzz.c");
    let arrays: Vec<(GlobalId, ArraySpec)> = spec
        .arrays
        .iter()
        .enumerate()
        .map(|(i, a)| {
            let init = nonzero_init(a, spec.seed, i as u64);
            (mb.global_init(&format!("g{i}"), a.ty, a.len() as u32, init), a.clone())
        })
        .collect();

    // Helpers: h<k>(x) = (x * (2k+3)) + g0[x & mask]  — a real address
    // computation behind a call boundary, inlined at O1.
    let mut helper_ids = Vec::new();
    for k in 0..spec.helpers {
        helper_ids.push(mb.declare(&format!("h{k}"), vec![Ty::I64], Some(Ty::I64)));
    }
    for k in 0..spec.helpers as usize {
        let (g0, a0) = (arrays[0].0, arrays[0].1.clone());
        mb.define(&format!("h{k}"), vec![Ty::I64], Some(Ty::I64), |fb| {
            let scaled = fb.mul(fb.arg(0), Value::i64(2 * k as i64 + 3), Ty::I64);
            let idx = fb.bin(BinOp::And, fb.arg(0), Value::i64(a0.mask()), Ty::I64);
            let elem = load_elem_as_i64(fb, fb.global(g0), idx, a0.ty);
            let r = fb.add(scaled, elem, Ty::I64);
            fb.ret(Some(r));
        });
    }

    let stmts = spec.stmts.clone();
    let trap = spec.trap.clone();
    mb.define("main", vec![Ty::I64], Some(Ty::I64), |fb| {
        let acc = fb.alloca(Ty::I64, 1);
        let facc = fb.alloca(Ty::F64, 1);
        fb.store(fb.arg(0), acc);
        fb.store(Value::f64(1.5), facc);
        let mut cx = Ctx { arrays: arrays.clone(), acc, facc, ivs: Vec::new(), helper_ids };
        for s in &stmts {
            build_stmt(fb, &mut cx, s);
        }
        if let Some(t) = &trap {
            // A wild load far past every mapped global (they are at most
            // 2^8 elements): index 1<<21 is ≥ 16 MiB off the base.
            let (g, a) = &cx.arrays[t.arr % cx.arrays.len()];
            let wild = load_elem_as_i64(fb, fb.global(*g), Value::i64(1 << 21), a.ty);
            let cur = fb.load(cx.acc, Ty::I64);
            let upd = fb.add(cur, wild, Ty::I64);
            fb.store(upd, cx.acc);
        }
        let fv = fb.load(facc, Ty::F64);
        let fi = guarded_to_int(fb, fv);
        let a = fb.load(acc, Ty::I64);
        let r = fb.add(a, fi, Ty::I64);
        fb.ret(Some(r));
    });
    let m = mb.finish();
    if let Err(e) = verify_module(&m) {
        panic!("generator produced an invalid module (seed {}): {e}", spec.seed);
    }
    m
}

/// Deterministic non-zero initial data so loads see interesting values.
fn nonzero_init(a: &ArraySpec, seed: u64, gi: u64) -> tinyir::GlobalInit {
    let n = a.len() as u64;
    let s = seed ^ (gi << 32) ^ 0xD1F7;
    match a.ty {
        Ty::I32 => tinyir::GlobalInit::I32s(
            (0..n).map(|i| (workloads::spec::init_f64(s, i) * 100.0) as i32).collect(),
        ),
        Ty::I64 => tinyir::GlobalInit::I64s(
            (0..n).map(|i| (workloads::spec::init_f64(s, i) * 1000.0) as i64).collect(),
        ),
        Ty::F32 => {
            tinyir::GlobalInit::F32s((0..n).map(|i| workloads::spec::init_f32(s, i)).collect())
        }
        Ty::F64 => {
            tinyir::GlobalInit::F64s((0..n).map(|i| workloads::spec::init_f64(s, i)).collect())
        }
        _ => tinyir::GlobalInit::Zero,
    }
}

/// Load `base[idx]` of any element type widened to an `i64` value.
fn load_elem_as_i64(fb: &mut FuncBuilder<'_>, base: Value, idx: Value, ty: Ty) -> Value {
    match ty {
        Ty::I64 => fb.load_elem(base, idx, Ty::I64),
        Ty::I32 => {
            let v = fb.load_elem(base, idx, Ty::I32);
            fb.sext(v, Ty::I64)
        }
        Ty::F64 => {
            let v = fb.load_elem(base, idx, Ty::F64);
            guarded_to_int(fb, v)
        }
        Ty::F32 => {
            let v = fb.load_elem(base, idx, Ty::F32);
            let w = fb.cast(CastOp::FpExt, v, Ty::F64);
            guarded_to_int(fb, w)
        }
        _ => Value::i64(0),
    }
}

/// Clamp a float into `fptosi`'s well-defined range before converting (NaN
/// is flushed through fmin/fmax; infinities are clamped).
fn guarded_to_int(fb: &mut FuncBuilder<'_>, v: Value) -> Value {
    let lo = fb.intrinsic(tinyir::Intrinsic::FMax, vec![v, Value::f64(-1e15)]);
    let g = fb.intrinsic(tinyir::Intrinsic::FMin, vec![lo, Value::f64(1e15)]);
    fb.cast(CastOp::FpToSi, g, Ty::I64)
}

fn build_stmt(fb: &mut FuncBuilder<'_>, cx: &mut Ctx, s: &Stmt) {
    match s {
        Stmt::IntAcc { op, e } => {
            let v = build_int(fb, cx, e);
            let cur = fb.load(cx.acc, Ty::I64);
            let upd = int_bin(fb, *op, cur, v);
            fb.store(upd, cx.acc);
        }
        Stmt::FloatAcc { op, e } => {
            let v = build_float(fb, cx, e);
            let cur = fb.load(cx.facc, Ty::F64);
            let upd = fb.bin(*op, cur, v, Ty::F64);
            fb.store(upd, cx.facc);
        }
        Stmt::Store { arr, idx, val } => {
            let (g, a) = cx.arrays[*arr % cx.arrays.len()].clone();
            let iv = build_int(fb, cx, idx);
            let masked = fb.bin(BinOp::And, iv, Value::i64(a.mask()), Ty::I64);
            let vv = build_int(fb, cx, val);
            let base = fb.global(g);
            match a.ty {
                Ty::I64 => fb.store_elem(vv, base, masked, Ty::I64),
                Ty::I32 => {
                    let t = fb.cast(CastOp::Trunc, vv, Ty::I32);
                    fb.store_elem(t, base, masked, Ty::I32);
                }
                Ty::F64 => {
                    let t = fb.cast(CastOp::SiToFp, vv, Ty::F64);
                    fb.store_elem(t, base, masked, Ty::F64);
                }
                Ty::F32 => {
                    let t = fb.cast(CastOp::SiToFp, vv, Ty::F64);
                    let t32 = fb.cast(CastOp::FpTrunc, t, Ty::F32);
                    fb.store_elem(t32, base, masked, Ty::F32);
                }
                _ => {}
            }
        }
        Stmt::If { pred, l, r, then_v, else_v } => {
            let lv = build_int(fb, cx, l);
            let rv = build_int(fb, cx, r);
            let cond = fb.icmp(*pred, lv, rv);
            let then_bb = fb.new_block("fz.then");
            let else_bb = fb.new_block("fz.else");
            let join = fb.new_block("fz.join");
            fb.cond_br(cond, then_bb, else_bb);
            // Expression lowering is straight-line, so each arm stays in its
            // own single block and the phi incomings are exact.
            fb.switch_to(then_bb);
            let tv = build_int(fb, cx, then_v);
            fb.br(join);
            fb.switch_to(else_bb);
            let ev = build_int(fb, cx, else_v);
            fb.br(join);
            fb.switch_to(join);
            let p = fb.phi(vec![(then_bb, tv), (else_bb, ev)], Ty::I64);
            let cur = fb.load(cx.acc, Ty::I64);
            let upd = fb.bin(BinOp::Xor, cur, p, Ty::I64);
            fb.store(upd, cx.acc);
        }
        Stmt::Loop { trips, body } => {
            fb.for_loop(Value::i64(0), Value::i64(*trips as i64), |fb, iv| {
                cx.ivs.push(iv);
                for s in body {
                    build_stmt(fb, cx, s);
                }
                cx.ivs.pop();
            });
        }
        Stmt::Call { which, arg } => {
            if cx.helper_ids.is_empty() {
                return;
            }
            let hid = cx.helper_ids[*which as usize % cx.helper_ids.len()];
            let av = build_int(fb, cx, arg);
            let rv = fb.call(hid, vec![av]);
            let cur = fb.load(cx.acc, Ty::I64);
            let upd = fb.add(cur, rv, Ty::I64);
            fb.store(upd, cx.acc);
        }
    }
}

/// Shift amounts must be masked or the engines' UB conventions would differ.
fn int_bin(fb: &mut FuncBuilder<'_>, op: BinOp, l: Value, r: Value) -> Value {
    match op {
        BinOp::Shl | BinOp::LShr | BinOp::AShr => {
            let amt = fb.bin(BinOp::And, r, Value::i64(63), Ty::I64);
            fb.bin(op, l, amt, Ty::I64)
        }
        _ => fb.bin(op, l, r, Ty::I64),
    }
}

fn build_int(fb: &mut FuncBuilder<'_>, cx: &mut Ctx, e: &IntExpr) -> Value {
    match e {
        IntExpr::Const(k) => Value::i64(*k),
        IntExpr::N => fb.arg(0),
        IntExpr::Acc => fb.load(cx.acc, Ty::I64),
        IntExpr::Iv(d) => {
            if cx.ivs.is_empty() {
                fb.arg(0)
            } else {
                let i = cx.ivs.len().saturating_sub(1 + *d as usize);
                cx.ivs[i]
            }
        }
        IntExpr::Load { arr, idx } => {
            let (g, a) = cx.arrays[*arr % cx.arrays.len()].clone();
            let iv = build_int(fb, cx, idx);
            let masked = fb.bin(BinOp::And, iv, Value::i64(a.mask()), Ty::I64);
            load_elem_as_i64(fb, fb.global(g), masked, a.ty)
        }
        IntExpr::Indirect { a, b, idx } => {
            let (ga, sa) = cx.arrays[*a % cx.arrays.len()].clone();
            let (gb, sb) = cx.arrays[*b % cx.arrays.len()].clone();
            let iv = build_int(fb, cx, idx);
            let m1 = fb.bin(BinOp::And, iv, Value::i64(sa.mask()), Ty::I64);
            let first = load_elem_as_i64(fb, fb.global(ga), m1, sa.ty);
            let m2 = fb.bin(BinOp::And, first, Value::i64(sb.mask()), Ty::I64);
            load_elem_as_i64(fb, fb.global(gb), m2, sb.ty)
        }
        IntExpr::Bin { op, l, r } => {
            let lv = build_int(fb, cx, l);
            let rv = build_int(fb, cx, r);
            int_bin(fb, *op, lv, rv)
        }
        IntExpr::FromFloat(fe) => {
            let fv = build_float(fb, cx, fe);
            guarded_to_int(fb, fv)
        }
        IntExpr::Select { pred, cl, cr, t, f } => {
            let clv = build_int(fb, cx, cl);
            let crv = build_int(fb, cx, cr);
            let cond = fb.icmp(*pred, clv, crv);
            let tv = build_int(fb, cx, t);
            let fv = build_int(fb, cx, f);
            fb.select(cond, tv, fv, Ty::I64)
        }
    }
}

fn build_float(fb: &mut FuncBuilder<'_>, cx: &mut Ctx, e: &FloatExpr) -> Value {
    match e {
        FloatExpr::Const(x) => Value::f64(*x),
        FloatExpr::Facc => fb.load(cx.facc, Ty::F64),
        FloatExpr::Load { arr, idx } => {
            let (g, a) = cx.arrays[*arr % cx.arrays.len()].clone();
            let iv = build_int(fb, cx, idx);
            let masked = fb.bin(BinOp::And, iv, Value::i64(a.mask()), Ty::I64);
            match a.ty {
                Ty::F64 => fb.load_elem(fb.global(g), masked, Ty::F64),
                Ty::F32 => {
                    let v = fb.load_elem(fb.global(g), masked, Ty::F32);
                    fb.cast(CastOp::FpExt, v, Ty::F64)
                }
                // Integer arrays reached through a shrunk spec: convert.
                _ => {
                    let v = load_elem_as_i64(fb, fb.global(g), masked, a.ty);
                    fb.cast(CastOp::SiToFp, v, Ty::F64)
                }
            }
        }
        FloatExpr::Bin { op, l, r } => {
            let lv = build_float(fb, cx, l);
            let rv = build_float(fb, cx, r);
            fb.bin(*op, lv, rv, Ty::F64)
        }
        FloatExpr::FromInt(ie) => {
            let iv = build_int(fb, cx, ie);
            fb.cast(CastOp::SiToFp, iv, Ty::F64)
        }
        FloatExpr::Sqrt(fe) => {
            let fv = build_float(fb, cx, fe);
            let a = fb.intrinsic(tinyir::Intrinsic::Fabs, vec![fv]);
            fb.sqrt(a)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_programs_always_verify() {
        for seed in 0..200 {
            let spec = ProgramSpec::generate(seed);
            let m = build(&spec); // panics on verify failure
            assert!(m.func_by_name("main").is_some());
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = build(&ProgramSpec::generate(42));
        let b = build(&ProgramSpec::generate(42));
        assert_eq!(tinyir::display::print_module(&a), tinyir::display::print_module(&b));
    }

    /// The long shape is there, is one loop around the whole body, and is
    /// long enough to hold golden states without outgrowing the smoke run.
    #[test]
    fn long_programs_exist_and_are_sized_for_golden_states() {
        let long: Vec<u64> = (0..400)
            .map(ProgramSpec::generate)
            .filter(|s| matches!(s.stmts[..], [Stmt::Loop { trips, .. }] if trips > 6))
            .map(|s| steps_of(&s).expect("a long program completes"))
            .collect();
        assert!(long.len() >= 10, "{} long programs in 400 seeds", long.len());
        assert!(long.iter().all(|&steps| (20_000..170_000).contains(&steps)), "{long:?}");
    }

    #[test]
    fn trap_programs_exist() {
        let trapping = (0..100).filter(|&s| ProgramSpec::generate(s).trap.is_some()).count();
        assert!(trapping > 3, "{trapping} trapping programs in 100 seeds");
    }
}
