//! Textual printer for TinyIR modules.
//!
//! The format is LLVM-flavoured and round-trips through [`crate::parser`]:
//!
//! ```text
//! module "gtcp"
//! file 0 "gtcp.c"
//! global @g0 "phitmp" f64 x 4096 zero
//! func @chargei(ptr %a0, i64 %a1) -> f64 {
//! bb0:
//!   %v0 = gep %a0, %a1, 8 !0:3:1
//!   %v1 = load f64, %v0 !0:4:1
//!   ret %v1 !0:5:1
//! }
//! ```

use crate::instr::{Callee, InstrKind};
use crate::module::{Function, GlobalInit, Module};
use crate::types::Ty;
use crate::value::Value;
use std::fmt::{self, Write};

// Every writer appends to the caller's `String`, so a module prints into
// one buffer with no intermediate string per operand or instruction.
// Writing to a `String` cannot fail: the public entry points drop the
// `fmt::Result` the writers thread through.

/// Render a value operand.
pub fn value_str(v: Value) -> String {
    let mut out = String::new();
    let _ = write_value(&mut out, v);
    out
}

fn write_value(out: &mut String, v: Value) -> fmt::Result {
    match v {
        Value::Instr(id) => write!(out, "%v{}", id.0),
        Value::Arg(i) => write!(out, "%a{i}"),
        Value::Global(g) => write!(out, "@g{}", g.0),
        Value::ConstInt(x, t) => write!(out, "{t} {x}"),
        Value::ConstFloat(x, t) => {
            // Hex bit pattern preserves exact values through round-trips.
            // The width must match the type: the parser decodes `f32 0fx…`
            // as 32 f32 bits, so printing the carrier f64's 64-bit pattern
            // here would corrupt every f32 constant on a round trip (found
            // by the carefuzz print→parse oracle).
            if t == Ty::F32 {
                write!(out, "{t} 0fx{:08x}", (x as f32).to_bits())
            } else {
                write!(out, "{t} 0fx{:016x}", x.to_bits())
            }
        }
        Value::ConstNull => out.write_str("null"),
    }
}

/// Append `items` with `put`, `sep` between consecutive ones.
fn write_sep<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    sep: &str,
    mut put: impl FnMut(&mut String, T) -> fmt::Result,
) -> fmt::Result {
    for (k, item) in items.into_iter().enumerate() {
        if k > 0 {
            out.write_str(sep)?;
        }
        put(out, item)?;
    }
    Ok(())
}

/// Append comma-separated operands.
fn write_operands(out: &mut String, vals: &[Value]) -> fmt::Result {
    write_sep(out, vals.iter().copied(), ", ", write_value)
}

/// Append a return type, `void` when absent.
fn write_ret_ty(out: &mut String, ty: Option<Ty>) -> fmt::Result {
    match ty {
        Some(t) => write!(out, "{t}"),
        None => out.write_str("void"),
    }
}

/// Render one instruction (without the leading result binding).
pub fn instr_body_str(i: &InstrKind) -> String {
    let mut out = String::new();
    let _ = write_instr_body(&mut out, i);
    out
}

fn write_instr_body(out: &mut String, i: &InstrKind) -> fmt::Result {
    match i {
        InstrKind::Alloca { elem_ty, count } => write!(out, "alloca {elem_ty}, {count}"),
        InstrKind::Load { ptr, ty } => {
            write!(out, "load {ty}, ")?;
            write_value(out, *ptr)
        }
        InstrKind::Store { val, ptr } => {
            out.write_str("store ")?;
            write_operands(out, &[*val, *ptr])
        }
        InstrKind::Gep { base, index, elem_size } => {
            out.write_str("gep ")?;
            write_operands(out, &[*base, *index])?;
            write!(out, ", {elem_size}")
        }
        InstrKind::Bin { op, lhs, rhs, ty } => {
            write!(out, "{} {ty} ", op.mnemonic())?;
            write_operands(out, &[*lhs, *rhs])
        }
        InstrKind::Icmp { pred, lhs, rhs } => {
            write!(out, "icmp {} ", pred.mnemonic())?;
            write_operands(out, &[*lhs, *rhs])
        }
        InstrKind::Fcmp { pred, lhs, rhs } => {
            write!(out, "fcmp {} ", pred.mnemonic())?;
            write_operands(out, &[*lhs, *rhs])
        }
        InstrKind::Cast { op, val, to } => {
            write!(out, "{} ", op.mnemonic())?;
            write_value(out, *val)?;
            write!(out, " to {to}")
        }
        InstrKind::Select { cond, t, f, ty } => {
            write!(out, "select {ty} ")?;
            write_operands(out, &[*cond, *t, *f])
        }
        InstrKind::Phi { incomings, ty } => {
            write!(out, "phi {ty} ")?;
            write_sep(out, incomings, ", ", |out, (b, v)| {
                write!(out, "[bb{}: ", b.0)?;
                write_value(out, *v)?;
                out.write_str("]")
            })
        }
        InstrKind::Call { callee, args, ret_ty } => {
            out.write_str("call ")?;
            write_ret_ty(out, *ret_ty)?;
            match callee {
                Callee::Func(f) => write!(out, " @f{}(", f.0)?,
                Callee::Intrinsic(i) => write!(out, " ${}(", i.name())?,
            }
            write_operands(out, args)?;
            out.write_str(")")
        }
        InstrKind::Br { target } => write!(out, "br bb{}", target.0),
        InstrKind::CondBr { cond, then_bb, else_bb } => {
            out.write_str("condbr ")?;
            write_value(out, *cond)?;
            write!(out, ", bb{}, bb{}", then_bb.0, else_bb.0)
        }
        InstrKind::Ret { val: Some(v) } => {
            out.write_str("ret ")?;
            write_value(out, *v)
        }
        InstrKind::Ret { val: None } => out.write_str("ret void"),
    }
}

fn write_function(out: &mut String, f: &Function) -> fmt::Result {
    let head = if f.is_decl { "declare" } else { "func" };
    write!(out, "{head} @{}(", f.name)?;
    write_sep(out, f.params.iter().enumerate(), ", ", |out, (i, t)| write!(out, "{t} %a{i}"))?;
    out.write_str(") -> ")?;
    write_ret_ty(out, f.ret_ty)?;
    if f.is_decl {
        return out.write_str("\n");
    }
    out.write_str(" {\n")?;
    for (bid, block) in f.block_iter() {
        writeln!(out, "bb{}:", bid.0)?;
        for &iid in &block.instrs {
            let instr = f.instr(iid);
            out.write_str("  ")?;
            if instr.result_ty().is_some() {
                write!(out, "%v{} = ", iid.0)?;
            }
            write_instr_body(out, &instr.kind)?;
            if let Some(l) = instr.loc {
                write!(out, " !{}:{}:{}", l.file.0, l.line, l.col)?;
            }
            out.write_str("\n")?;
        }
    }
    out.write_str("}\n")
}

/// Render a whole module in the round-trippable textual format.
pub fn print_module(m: &Module) -> String {
    let mut out = String::new();
    let _ = write_module(&mut out, m);
    out
}

fn write_module(out: &mut String, m: &Module) -> fmt::Result {
    writeln!(out, "module \"{}\"", m.name)?;
    for (i, file) in m.files.iter().enumerate() {
        writeln!(out, "file {i} \"{file}\"")?;
    }
    for (i, g) in m.globals.iter().enumerate() {
        write!(out, "global @g{i} \"{}\" {} x {} ", g.name, g.elem_ty, g.count)?;
        match &g.init {
            GlobalInit::Zero => out.write_str("zero")?,
            GlobalInit::I32s(v) => {
                out.write_str("i32s ")?;
                write_sep(out, v, " ", |out, x| write!(out, "{x}"))?;
            }
            GlobalInit::I64s(v) => {
                out.write_str("i64s ")?;
                write_sep(out, v, " ", |out, x| write!(out, "{x}"))?;
            }
            GlobalInit::F32s(v) => {
                out.write_str("f32s ")?;
                write_sep(out, v, " ", |out, x| write!(out, "0fx{:08x}", x.to_bits()))?;
            }
            GlobalInit::F64s(v) => {
                out.write_str("f64s ")?;
                write_sep(out, v, " ", |out, x| write!(out, "0fx{:016x}", x.to_bits()))?;
            }
        }
        out.write_str("\n")?;
    }
    for f in &m.funcs {
        write_function(out, f)?;
    }
    Ok(())
}

impl fmt::Display for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&print_module(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::types::Ty;

    #[test]
    fn printed_module_contains_structure() {
        let mut mb = ModuleBuilder::new("demo", "demo.c");
        let g = mb.global_zeroed("data", Ty::F64, 32);
        mb.define("touch", vec![Ty::I64], Some(Ty::F64), |fb| {
            let v = fb.load_elem(fb.global(g), fb.arg(0), Ty::F64);
            fb.ret(Some(v));
        });
        let m = mb.finish();
        let text = print_module(&m);
        assert!(text.contains("module \"demo\""));
        assert!(text.contains("global @g0 \"data\" f64 x 32 zero"));
        assert!(text.contains("func @touch(i64 %a0) -> f64 {"));
        assert!(text.contains("load f64, %v0"));
        assert!(text.contains("gep @g0"));
        // Debug locations are printed.
        assert!(text.contains(" !0:"));
    }

    #[test]
    fn float_constants_print_as_bit_patterns() {
        assert_eq!(value_str(Value::f64(1.0)), format!("f64 0fx{:016x}", 1.0f64.to_bits()));
    }

    #[test]
    fn f32_constants_print_f32_bit_patterns() {
        // An f32 constant must print the 32-bit pattern the parser decodes
        // (`0fx` + 8 hex digits), not the bits of its f64 carrier.
        assert_eq!(value_str(Value::f32(0.1)), format!("f32 0fx{:08x}", 0.1f32.to_bits()));
        // Round trip through the parser preserves the exact value.
        let printed = value_str(Value::f32(0.1));
        let mut mb = ModuleBuilder::new("m", "m.c");
        mb.define("f", vec![], Some(Ty::F32), |fb| {
            let s = fb.fadd(Value::f32(0.1), Value::f32(0.0), Ty::F32);
            fb.ret(Some(s));
        });
        let m = mb.finish();
        let t1 = print_module(&m);
        assert!(t1.contains(&printed), "{t1}");
        let parsed = crate::parser::parse_module(&t1).unwrap();
        assert_eq!(t1, print_module(&parsed), "f32 constants must round-trip");
    }
}
