//! Delta-debugging shrinker.
//!
//! Works on the [`ProgramSpec`] grammar, not the IR: every candidate is a
//! strictly smaller spec, rebuilt and re-run through the oracle, and accepted
//! only if it still reproduces a divergence of the *same pair*. Greedy
//! first-improvement to a fixpoint — the strict size decrease guarantees
//! termination.

use crate::oracle::{check_spec, Pair, Reach};
use crate::spec::{FloatExpr, IntExpr, ProgramSpec, Stmt};

/// Minimise `spec` while it keeps diverging on `want`.
pub fn shrink(spec: &ProgramSpec, want: Pair) -> ProgramSpec {
    let mut cur = spec.clone();
    loop {
        let cur_size = size(&cur);
        let step = candidates(&cur)
            .into_iter()
            .filter(|c| size(c) < cur_size)
            .find(|c| check_spec(c, &mut Reach::default()).map(|d| d.pair) == Some(want));
        match step {
            Some(c) => cur = c,
            None => return cur,
        }
    }
}

/// Spec weight: grammar nodes dominate, loop trip counts and structural
/// extras break ties so trip reduction and trap/helper removal count as
/// progress.
fn size(s: &ProgramSpec) -> usize {
    fn stmt_w(s: &Stmt) -> usize {
        match s {
            Stmt::IntAcc { e, .. } => 10 + int_w(e),
            Stmt::FloatAcc { e, .. } => 10 + float_w(e),
            Stmt::Store { idx, val, .. } => 10 + int_w(idx) + int_w(val),
            Stmt::If { l, r, then_v, else_v, .. } => {
                10 + int_w(l) + int_w(r) + int_w(then_v) + int_w(else_v)
            }
            Stmt::Loop { trips, body } => {
                10 + *trips as usize + body.iter().map(stmt_w).sum::<usize>()
            }
            Stmt::Call { arg, .. } => 10 + int_w(arg),
        }
    }
    fn int_w(e: &IntExpr) -> usize {
        10 + match e {
            IntExpr::Load { idx, .. } => int_w(idx),
            IntExpr::Indirect { idx, .. } => 5 + int_w(idx),
            IntExpr::Bin { l, r, .. } => int_w(l) + int_w(r),
            IntExpr::FromFloat(f) => float_w(f),
            IntExpr::Select { cl, cr, t, f, .. } => int_w(cl) + int_w(cr) + int_w(t) + int_w(f),
            _ => 0,
        }
    }
    fn float_w(e: &FloatExpr) -> usize {
        10 + match e {
            FloatExpr::Load { idx, .. } => int_w(idx),
            FloatExpr::Bin { l, r, .. } => float_w(l) + float_w(r),
            FloatExpr::FromInt(i) => int_w(i),
            FloatExpr::Sqrt(f) => float_w(f),
            _ => 0,
        }
    }
    s.stmts.iter().map(stmt_w).sum::<usize>()
        + s.arrays.len()
        + s.helpers as usize
        + if s.trap.is_some() { 2 } else { 0 }
}

/// All one-step reductions of a spec.
fn candidates(s: &ProgramSpec) -> Vec<ProgramSpec> {
    let mut out = Vec::new();
    for stmts in stmt_list_variants(&s.stmts) {
        out.push(ProgramSpec { stmts, ..s.clone() });
    }
    if s.trap.is_some() {
        out.push(ProgramSpec { trap: None, ..s.clone() });
    }
    if s.helpers > 0 {
        out.push(ProgramSpec { helpers: 0, ..s.clone() });
    }
    // Array indices are reduced modulo the array count at build time, so
    // truncating the array list is always well-formed. Keep the int + float
    // pair the expression grammar assumes.
    if s.arrays.len() > 2 {
        out.push(ProgramSpec { arrays: s.arrays[..2].to_vec(), ..s.clone() });
    }
    out
}

/// Reductions of a statement list: drop any one statement, or reduce any one
/// statement in place (possibly splicing a loop body inline).
fn stmt_list_variants(stmts: &[Stmt]) -> Vec<Vec<Stmt>> {
    let mut out = Vec::new();
    for i in 0..stmts.len() {
        let mut v = stmts.to_vec();
        v.remove(i);
        out.push(v);
        for r in stmt_variants(&stmts[i]) {
            let mut v = stmts.to_vec();
            match r {
                Reduced::One(s) => v[i] = s,
                Reduced::Many(ss) => {
                    v.splice(i..=i, ss);
                }
            }
            out.push(v);
        }
    }
    out
}

enum Reduced {
    One(Stmt),
    Many(Vec<Stmt>),
}

fn stmt_variants(s: &Stmt) -> Vec<Reduced> {
    let mut out = Vec::new();
    match s {
        Stmt::IntAcc { op, e } => {
            for e2 in int_variants(e) {
                out.push(Reduced::One(Stmt::IntAcc { op: *op, e: e2 }));
            }
        }
        Stmt::FloatAcc { op, e } => {
            for e2 in float_variants(e) {
                out.push(Reduced::One(Stmt::FloatAcc { op: *op, e: e2 }));
            }
        }
        Stmt::Store { arr, idx, val } => {
            for i2 in int_variants(idx) {
                out.push(Reduced::One(Stmt::Store { arr: *arr, idx: i2, val: val.clone() }));
            }
            for v2 in int_variants(val) {
                out.push(Reduced::One(Stmt::Store { arr: *arr, idx: idx.clone(), val: v2 }));
            }
        }
        Stmt::If { pred, l, r, then_v, else_v } => {
            out.push(Reduced::One(Stmt::IntAcc { op: tinyir::BinOp::Xor, e: then_v.clone() }));
            out.push(Reduced::One(Stmt::IntAcc { op: tinyir::BinOp::Xor, e: else_v.clone() }));
            let mk = |l: IntExpr, r: IntExpr, t: IntExpr, f: IntExpr| {
                Reduced::One(Stmt::If { pred: *pred, l, r, then_v: t, else_v: f })
            };
            for e2 in int_variants(l) {
                out.push(mk(e2, r.clone(), then_v.clone(), else_v.clone()));
            }
            for e2 in int_variants(r) {
                out.push(mk(l.clone(), e2, then_v.clone(), else_v.clone()));
            }
            for e2 in int_variants(then_v) {
                out.push(mk(l.clone(), r.clone(), e2, else_v.clone()));
            }
            for e2 in int_variants(else_v) {
                out.push(mk(l.clone(), r.clone(), then_v.clone(), e2));
            }
        }
        Stmt::Loop { trips, body } => {
            out.push(Reduced::Many(body.clone()));
            // One trip, or half of them: a divergence that needs the run
            // long (a golden state to reach) survives some halvings, not the
            // cut to one.
            if *trips > 1 {
                out.push(Reduced::One(Stmt::Loop { trips: 1, body: body.clone() }));
            }
            if *trips > 3 {
                out.push(Reduced::One(Stmt::Loop { trips: *trips / 2, body: body.clone() }));
            }
            for b2 in stmt_list_variants(body) {
                out.push(Reduced::One(Stmt::Loop { trips: *trips, body: b2 }));
            }
        }
        Stmt::Call { which, arg } => {
            out.push(Reduced::One(Stmt::IntAcc { op: tinyir::BinOp::Add, e: arg.clone() }));
            for e2 in int_variants(arg) {
                out.push(Reduced::One(Stmt::Call { which: *which, arg: e2 }));
            }
        }
    }
    out
}

/// One-step reductions of an integer expression: collapse to a literal, hoist
/// a subexpression, or reduce a subexpression in place.
fn int_variants(e: &IntExpr) -> Vec<IntExpr> {
    let mut out = Vec::new();
    if !matches!(e, IntExpr::Const(_)) {
        out.push(IntExpr::Const(1));
    }
    match e {
        IntExpr::Load { arr, idx } => {
            out.push((**idx).clone());
            for i2 in int_variants(idx) {
                out.push(IntExpr::Load { arr: *arr, idx: Box::new(i2) });
            }
        }
        IntExpr::Indirect { a, b, idx } => {
            out.push(IntExpr::Load { arr: *b, idx: idx.clone() });
            out.push(IntExpr::Load { arr: *a, idx: idx.clone() });
            for i2 in int_variants(idx) {
                out.push(IntExpr::Indirect { a: *a, b: *b, idx: Box::new(i2) });
            }
        }
        IntExpr::Bin { op, l, r } => {
            out.push((**l).clone());
            out.push((**r).clone());
            for l2 in int_variants(l) {
                out.push(IntExpr::Bin { op: *op, l: Box::new(l2), r: r.clone() });
            }
            for r2 in int_variants(r) {
                out.push(IntExpr::Bin { op: *op, l: l.clone(), r: Box::new(r2) });
            }
        }
        IntExpr::FromFloat(f) => {
            for f2 in float_variants(f) {
                out.push(IntExpr::FromFloat(Box::new(f2)));
            }
        }
        IntExpr::Select { pred, cl, cr, t, f } => {
            out.push((**t).clone());
            out.push((**f).clone());
            for t2 in int_variants(t) {
                out.push(IntExpr::Select {
                    pred: *pred,
                    cl: cl.clone(),
                    cr: cr.clone(),
                    t: Box::new(t2),
                    f: f.clone(),
                });
            }
            for c2 in int_variants(cl) {
                out.push(IntExpr::Select {
                    pred: *pred,
                    cl: Box::new(c2),
                    cr: cr.clone(),
                    t: t.clone(),
                    f: f.clone(),
                });
            }
        }
        _ => {}
    }
    out
}

fn float_variants(e: &FloatExpr) -> Vec<FloatExpr> {
    let mut out = Vec::new();
    if !matches!(e, FloatExpr::Const(_)) {
        out.push(FloatExpr::Const(1.0));
    }
    match e {
        FloatExpr::Load { arr, idx } => {
            for i2 in int_variants(idx) {
                out.push(FloatExpr::Load { arr: *arr, idx: Box::new(i2) });
            }
        }
        FloatExpr::Bin { op, l, r } => {
            out.push((**l).clone());
            out.push((**r).clone());
            for l2 in float_variants(l) {
                out.push(FloatExpr::Bin { op: *op, l: Box::new(l2), r: r.clone() });
            }
            for r2 in float_variants(r) {
                out.push(FloatExpr::Bin { op: *op, l: l.clone(), r: Box::new(r2) });
            }
        }
        FloatExpr::FromInt(i) => {
            for i2 in int_variants(i) {
                out.push(FloatExpr::FromInt(Box::new(i2)));
            }
        }
        FloatExpr::Sqrt(f) => {
            out.push((**f).clone());
            for f2 in float_variants(f) {
                out.push(FloatExpr::Sqrt(Box::new(f2)));
            }
        }
        _ => {}
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ArraySpec;
    use tinyir::Ty;

    #[test]
    fn shrink_terminates_on_clean_specs() {
        // A spec with no divergence shrinks to itself (no candidate passes
        // the predicate).
        let spec = ProgramSpec::generate(7);
        let out = shrink(&spec, Pair::OptLevels);
        assert_eq!(size(&out), size(&spec));
    }

    #[test]
    fn candidates_strictly_shrink() {
        for seed in 0..30 {
            let spec = ProgramSpec::generate(seed);
            let s0 = size(&spec);
            for c in candidates(&spec).into_iter().filter(|c| size(c) < s0) {
                // Every accepted candidate must still build + verify.
                let m = crate::spec::build(&c);
                assert!(m.func_by_name("main").is_some());
            }
        }
    }

    /// A long program shrinks back: the loop around its body can be spliced
    /// away, cut to one trip or halved, and each is strictly smaller.
    #[test]
    fn a_long_loop_shrinks_by_splice_one_trip_or_half() {
        let long = (0..400)
            .map(ProgramSpec::generate)
            .find(|s| matches!(s.stmts[..], [Stmt::Loop { trips, .. }] if trips > 6))
            .expect("a long program in 400 seeds");
        let [Stmt::Loop { trips, body }] = &long.stmts[..] else { unreachable!() };
        let smaller: Vec<ProgramSpec> =
            candidates(&long).into_iter().filter(|c| size(c) < size(&long)).collect();
        let loops_of = |want: u32| {
            smaller
                .iter()
                .any(|c| matches!(c.stmts[..], [Stmt::Loop { trips, .. }] if trips == want))
        };
        assert!(loops_of(1) && loops_of(trips / 2), "trips {trips}");
        // The splice drops exactly the loop node: its 10 and its trips.
        let spliced = size(&long) - 10 - *trips as usize;
        assert!(smaller.iter().any(|c| c.stmts.len() == body.len() && size(c) == spliced));
    }

    #[test]
    fn loop_body_splice_is_a_candidate() {
        let spec = ProgramSpec {
            seed: 0,
            arrays: vec![
                ArraySpec { ty: Ty::I64, log2_len: 3 },
                ArraySpec { ty: Ty::F64, log2_len: 3 },
            ],
            helpers: 0,
            stmts: vec![Stmt::Loop {
                trips: 4,
                body: vec![Stmt::IntAcc { op: tinyir::BinOp::Add, e: IntExpr::N }],
            }],
            trap: None,
        };
        let has_splice =
            candidates(&spec).iter().any(|c| matches!(c.stmts.first(), Some(Stmt::IntAcc { .. })));
        assert!(has_splice);
    }
}
