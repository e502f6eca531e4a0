//! Parser for the textual TinyIR format produced by [`crate::display`].
//!
//! `parse_module(print_module(m))` reproduces a module that prints
//! identically — the round-trip property the test suite (and the proptest
//! suite in `tests/`) relies on.

use crate::debugloc::{DebugLoc, FileId};
use crate::instr::{BinOp, Callee, CastOp, FCmp, ICmp, Instr, InstrKind, Intrinsic};
use crate::module::{Block, Function, Global, GlobalInit, Module};
use crate::types::Ty;
use crate::value::{BlockId, FuncId, GlobalId, InstrId, Value};

/// A parse failure with a line number and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the failure.
    pub line: usize,
    /// Human-readable description.
    pub msg: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

type PResult<T> = Result<T, ParseError>;

struct Cursor<'a> {
    s: &'a str,
    pos: usize,
    line: usize,
}

impl<'a> Cursor<'a> {
    fn new(s: &'a str, line: usize) -> Cursor<'a> {
        Cursor { s, pos: 0, line }
    }

    fn err<T>(&self, msg: impl Into<String>) -> PResult<T> {
        Err(ParseError { line: self.line, msg: msg.into() })
    }

    fn rest(&self) -> &'a str {
        &self.s[self.pos..]
    }

    fn skip_ws(&mut self) {
        while self.rest().starts_with([' ', '\t']) {
            self.pos += 1;
        }
    }

    fn eof(&mut self) -> bool {
        self.skip_ws();
        self.rest().is_empty()
    }

    fn eat(&mut self, tok: &str) -> bool {
        self.skip_ws();
        if self.rest().starts_with(tok) {
            self.pos += tok.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: &str) -> PResult<()> {
        if self.eat(tok) {
            Ok(())
        } else {
            self.err(format!("expected `{tok}` at `{}`", truncate(self.rest())))
        }
    }

    fn word(&mut self) -> PResult<&'a str> {
        self.skip_ws();
        let start = self.pos;
        while self.rest().starts_with(|c: char| c.is_ascii_alphanumeric() || c == '_' || c == '.') {
            self.pos += 1;
        }
        if self.pos == start {
            self.err(format!("expected word at `{}`", truncate(self.rest())))
        } else {
            Ok(&self.s[start..self.pos])
        }
    }

    fn number<T: std::str::FromStr>(&mut self) -> PResult<T> {
        self.skip_ws();
        let start = self.pos;
        if self.rest().starts_with('-') {
            self.pos += 1;
        }
        while self.rest().starts_with(|c: char| {
            c.is_ascii_digit() || c == '.' || c == 'e' || c == '-' || c == '+'
        }) {
            self.pos += 1;
        }
        self.s[start..self.pos].parse().map_err(|_| ParseError {
            line: self.line,
            msg: format!("bad number `{}`", &self.s[start..self.pos]),
        })
    }

    fn quoted(&mut self) -> PResult<String> {
        self.expect("\"")?;
        let start = self.pos;
        match self.rest().find('"') {
            Some(end) => {
                let out = self.s[start..start + end].to_string();
                self.pos = start + end + 1;
                Ok(out)
            }
            None => self.err("unterminated string"),
        }
    }
}

fn truncate(s: &str) -> &str {
    &s[..s.len().min(24)]
}

fn parse_ty(c: &mut Cursor<'_>) -> PResult<Ty> {
    let w = c.word()?;
    Ty::parse(w).ok_or(ParseError { line: c.line, msg: format!("unknown type `{w}`") })
}

/// Parse a value operand: `%vN`, `%aN`, `@gN`, `null`, or `ty literal`.
fn parse_value(c: &mut Cursor<'_>) -> PResult<Value> {
    c.skip_ws();
    if c.eat("%v") {
        return Ok(Value::Instr(InstrId(c.number()?)));
    }
    if c.eat("%a") {
        return Ok(Value::Arg(c.number()?));
    }
    if c.eat("@g") {
        return Ok(Value::Global(GlobalId(c.number()?)));
    }
    if c.eat("null") {
        return Ok(Value::ConstNull);
    }
    // Typed constant.
    let ty = parse_ty(c)?;
    c.skip_ws();
    if c.eat("0fx") {
        let hex = c.word()?;
        let bits = u64::from_str_radix(hex, 16)
            .map_err(|_| ParseError { line: c.line, msg: format!("bad float bits `{hex}`") })?;
        let v = match ty {
            Ty::F32 => f32::from_bits(bits as u32) as f64,
            _ => f64::from_bits(bits),
        };
        return Ok(Value::ConstFloat(v, ty));
    }
    let n: i64 = c.number()?;
    if ty.is_float() {
        Ok(Value::ConstFloat(n as f64, ty))
    } else {
        Ok(Value::ConstInt(n, ty))
    }
}

fn parse_ret_ty(c: &mut Cursor<'_>) -> PResult<Option<Ty>> {
    c.skip_ws();
    if c.eat("void") {
        Ok(None)
    } else {
        Ok(Some(parse_ty(c)?))
    }
}

fn parse_bb(c: &mut Cursor<'_>) -> PResult<BlockId> {
    c.expect("bb")?;
    Ok(BlockId(c.number()?))
}

fn parse_loc(c: &mut Cursor<'_>) -> PResult<Option<DebugLoc>> {
    c.skip_ws();
    if !c.eat("!") {
        return Ok(None);
    }
    let file: u32 = c.number()?;
    c.expect(":")?;
    let line: u32 = c.number()?;
    c.expect(":")?;
    let col: u32 = c.number()?;
    Ok(Some(DebugLoc::new(FileId(file), line, col)))
}

fn parse_instr_body(c: &mut Cursor<'_>) -> PResult<InstrKind> {
    let op = c.word()?;
    let kind = match op {
        "alloca" => {
            let elem_ty = parse_ty(c)?;
            c.expect(",")?;
            let count: u32 = c.number()?;
            InstrKind::Alloca { elem_ty, count }
        }
        "load" => {
            let ty = parse_ty(c)?;
            c.expect(",")?;
            let ptr = parse_value(c)?;
            InstrKind::Load { ptr, ty }
        }
        "store" => {
            let val = parse_value(c)?;
            c.expect(",")?;
            let ptr = parse_value(c)?;
            InstrKind::Store { val, ptr }
        }
        "gep" => {
            let base = parse_value(c)?;
            c.expect(",")?;
            let index = parse_value(c)?;
            c.expect(",")?;
            let elem_size: u32 = c.number()?;
            InstrKind::Gep { base, index, elem_size }
        }
        "icmp" => {
            let p = c.word()?;
            let pred = ICmp::parse(p)
                .ok_or(ParseError { line: c.line, msg: format!("bad icmp pred `{p}`") })?;
            let lhs = parse_value(c)?;
            c.expect(",")?;
            let rhs = parse_value(c)?;
            InstrKind::Icmp { pred, lhs, rhs }
        }
        "fcmp" => {
            let p = c.word()?;
            let pred = FCmp::parse(p)
                .ok_or(ParseError { line: c.line, msg: format!("bad fcmp pred `{p}`") })?;
            let lhs = parse_value(c)?;
            c.expect(",")?;
            let rhs = parse_value(c)?;
            InstrKind::Fcmp { pred, lhs, rhs }
        }
        "select" => {
            let ty = parse_ty(c)?;
            let cond = parse_value(c)?;
            c.expect(",")?;
            let t = parse_value(c)?;
            c.expect(",")?;
            let f = parse_value(c)?;
            InstrKind::Select { cond, t, f, ty }
        }
        "phi" => {
            let ty = parse_ty(c)?;
            let mut incomings = Vec::new();
            loop {
                c.skip_ws();
                if !c.eat("[") {
                    break;
                }
                let bb = parse_bb(c)?;
                c.expect(":")?;
                let v = parse_value(c)?;
                c.expect("]")?;
                incomings.push((bb, v));
                if !c.eat(",") {
                    break;
                }
            }
            InstrKind::Phi { incomings, ty }
        }
        "call" => {
            let ret_ty = parse_ret_ty(c)?;
            c.skip_ws();
            let callee = if c.eat("@f") {
                Callee::Func(FuncId(c.number()?))
            } else if c.eat("$") {
                let name = c.word()?;
                Callee::Intrinsic(Intrinsic::parse(name).ok_or(ParseError {
                    line: c.line,
                    msg: format!("unknown intrinsic `{name}`"),
                })?)
            } else {
                return c.err("expected callee");
            };
            c.expect("(")?;
            let mut args = Vec::new();
            c.skip_ws();
            if !c.eat(")") {
                loop {
                    args.push(parse_value(c)?);
                    if c.eat(")") {
                        break;
                    }
                    c.expect(",")?;
                }
            }
            InstrKind::Call { callee, args, ret_ty }
        }
        "br" => InstrKind::Br { target: parse_bb(c)? },
        "condbr" => {
            let cond = parse_value(c)?;
            c.expect(",")?;
            let then_bb = parse_bb(c)?;
            c.expect(",")?;
            let else_bb = parse_bb(c)?;
            InstrKind::CondBr { cond, then_bb, else_bb }
        }
        "ret" => {
            c.skip_ws();
            if c.eat("void") {
                InstrKind::Ret { val: None }
            } else {
                InstrKind::Ret { val: Some(parse_value(c)?) }
            }
        }
        other => {
            if let Some(bin) = BinOp::parse(other) {
                let ty = parse_ty(c)?;
                let lhs = parse_value(c)?;
                c.expect(",")?;
                let rhs = parse_value(c)?;
                InstrKind::Bin { op: bin, lhs, rhs, ty }
            } else if let Some(cast) = CastOp::parse(other) {
                let val = parse_value(c)?;
                c.expect("to")?;
                let to = parse_ty(c)?;
                InstrKind::Cast { op: cast, val, to }
            } else {
                return c.err(format!("unknown instruction `{other}`"));
            }
        }
    };
    Ok(kind)
}

/// One parsed instruction line before arena placement.
struct PendingInstr {
    explicit_id: Option<u32>,
    instr: Instr,
    block: usize,
}

/// Parse a whole module from its textual form.
pub fn parse_module(text: &str) -> PResult<Module> {
    let mut module = Module::new("");
    let lines = text.lines().enumerate().peekable();
    let mut cur_func: Option<(String, Vec<Ty>, Option<Ty>)> = None;
    let mut pending: Vec<PendingInstr> = Vec::new();
    let mut blocks: Vec<Block> = Vec::new();

    for (idx, raw) in lines {
        let lineno = idx + 1;
        let stripped = match raw.find(';') {
            Some(p) => &raw[..p],
            None => raw,
        };
        let trimmed = stripped.trim();
        if trimmed.is_empty() {
            continue;
        }
        let mut c = Cursor::new(trimmed, lineno);
        if cur_func.is_none() {
            if c.eat("module") {
                module.name = c.quoted()?;
            } else if c.eat("file") {
                let _idx: u32 = c.number()?;
                let name = c.quoted()?;
                module.intern_file(&name);
            } else if c.eat("global") {
                c.expect("@g")?;
                let _gid: u32 = c.number()?;
                let name = c.quoted()?;
                let elem_ty = parse_ty(&mut c)?;
                c.expect("x")?;
                let count: u32 = c.number()?;
                let init = parse_global_init(&mut c)?;
                module.add_global(Global { name, elem_ty, count, init });
            } else if c.eat("declare") {
                c.expect("@")?;
                let name = c.word()?.to_string();
                let (params, ret_ty) = parse_signature(&mut c)?;
                let mut f = Function::new(name, params, ret_ty);
                f.is_decl = true;
                module.add_func(f);
            } else if c.eat("func") {
                c.expect("@")?;
                let name = c.word()?.to_string();
                let (params, ret_ty) = parse_signature(&mut c)?;
                c.expect("{")?;
                cur_func = Some((name, params, ret_ty));
                pending.clear();
                blocks.clear();
            } else {
                return c.err(format!("unexpected top-level line `{trimmed}`"));
            }
        } else if trimmed == "}" {
            let (name, params, ret_ty) = cur_func.take().unwrap();
            let func = assemble_function(name, params, ret_ty, &mut pending, &mut blocks, lineno)?;
            module.add_func(func);
        } else if trimmed.starts_with("bb") {
            let mut c2 = Cursor::new(trimmed, lineno);
            c2.expect("bb")?;
            let n: u32 = c2.number()?;
            c2.expect(":")?;
            if n as usize != blocks.len() {
                return c2.err("blocks must appear in order");
            }
            blocks.push(Block { name: format!("bb{n}"), instrs: Vec::new() });
        } else {
            if blocks.is_empty() {
                return c.err("instruction before first block label");
            }
            let explicit_id = if trimmed.starts_with("%v") {
                c.expect("%v")?;
                let n: u32 = c.number()?;
                c.expect("=")?;
                Some(n)
            } else {
                None
            };
            let kind = parse_instr_body(&mut c)?;
            let loc = parse_loc(&mut c)?;
            if !c.eof() {
                return c.err(format!("trailing input `{}`", truncate(c.rest())));
            }
            pending.push(PendingInstr {
                explicit_id,
                instr: Instr { kind, loc },
                block: blocks.len() - 1,
            });
        }
    }
    if cur_func.is_some() {
        return Err(ParseError { line: 0, msg: "unterminated function".into() });
    }
    module.rebuild_indexes();
    Ok(module)
}

fn parse_signature(c: &mut Cursor<'_>) -> PResult<(Vec<Ty>, Option<Ty>)> {
    c.expect("(")?;
    let mut params = Vec::new();
    c.skip_ws();
    if !c.eat(")") {
        loop {
            let ty = parse_ty(c)?;
            c.expect("%a")?;
            let _n: u32 = c.number()?;
            params.push(ty);
            if c.eat(")") {
                break;
            }
            c.expect(",")?;
        }
    }
    c.expect("->")?;
    let ret_ty = parse_ret_ty(c)?;
    Ok((params, ret_ty))
}

fn parse_global_init(c: &mut Cursor<'_>) -> PResult<GlobalInit> {
    let w = c.word()?;
    Ok(match w {
        "zero" => GlobalInit::Zero,
        "i32s" => {
            let mut v = Vec::new();
            while !c.eof() {
                v.push(c.number()?);
            }
            GlobalInit::I32s(v)
        }
        "i64s" => {
            let mut v = Vec::new();
            while !c.eof() {
                v.push(c.number()?);
            }
            GlobalInit::I64s(v)
        }
        "f32s" => {
            let mut v = Vec::new();
            while !c.eof() {
                c.expect("0fx")?;
                let hex = c.word()?;
                let bits = u32::from_str_radix(hex, 16)
                    .map_err(|_| ParseError { line: c.line, msg: "bad f32 bits".into() })?;
                v.push(f32::from_bits(bits));
            }
            GlobalInit::F32s(v)
        }
        "f64s" => {
            let mut v = Vec::new();
            while !c.eof() {
                c.expect("0fx")?;
                let hex = c.word()?;
                let bits = u64::from_str_radix(hex, 16)
                    .map_err(|_| ParseError { line: c.line, msg: "bad f64 bits".into() })?;
                v.push(f64::from_bits(bits));
            }
            GlobalInit::F64s(v)
        }
        other => {
            return Err(ParseError { line: c.line, msg: format!("unknown init kind `{other}`") })
        }
    })
}

/// Place parsed instructions into the arena so that `%vN` lands at
/// `InstrId(N)`; void instructions fill the remaining slots.
fn assemble_function(
    name: String,
    params: Vec<Ty>,
    ret_ty: Option<Ty>,
    pending: &mut Vec<PendingInstr>,
    blocks: &mut Vec<Block>,
    lineno: usize,
) -> PResult<Function> {
    let total = pending.len();
    let mut used = vec![false; total];
    for p in pending.iter() {
        if let Some(id) = p.explicit_id {
            let slot = id as usize;
            if slot >= total || used[slot] {
                return Err(ParseError {
                    line: lineno,
                    msg: format!("value id %v{id} out of range or duplicated in @{name}"),
                });
            }
            used[slot] = true;
        }
    }
    let mut free: Vec<usize> = (0..total).filter(|&i| !used[i]).collect();
    free.reverse(); // pop from the front in order

    let placeholder = Instr::new(InstrKind::Ret { val: None });
    let mut instrs = vec![placeholder; total];
    let mut final_blocks: Vec<Block> =
        blocks.iter().map(|b| Block { name: b.name.clone(), instrs: Vec::new() }).collect();
    for p in pending.drain(..) {
        let slot = match p.explicit_id {
            Some(id) => id as usize,
            None => free
                .pop()
                .ok_or(ParseError { line: lineno, msg: "internal: slot exhaustion".into() })?,
        };
        instrs[slot] = p.instr;
        final_blocks[p.block].instrs.push(InstrId(slot as u32));
    }
    blocks.clear();
    let mut f = Function::new(name, params, ret_ty);
    f.instrs = instrs;
    f.blocks = final_blocks;
    Ok(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::display::print_module;
    use crate::value::Value;

    fn round_trip(m: &Module) {
        let t1 = print_module(m);
        let parsed = parse_module(&t1).expect("parse");
        let t2 = print_module(&parsed);
        assert_eq!(t1, t2, "print->parse->print not idempotent");
    }

    #[test]
    fn round_trip_simple() {
        let mut mb = ModuleBuilder::new("m", "m.c");
        let g = mb.global_init("tab", Ty::I32, 3, GlobalInit::I32s(vec![1, -2, 3]));
        mb.define("f", vec![Ty::Ptr, Ty::I64], Some(Ty::F64), |fb| {
            let x = fb.load_elem(fb.arg(0), fb.arg(1), Ty::F64);
            let t = fb.load_elem(fb.global(g), fb.arg(1), Ty::I32);
            let ts = fb.sext(t, Ty::I64);
            let tf = fb.cast(CastOp::SiToFp, ts, Ty::F64);
            let s = fb.fadd(x, tf, Ty::F64);
            fb.ret(Some(s));
        });
        round_trip(&mb.finish());
    }

    #[test]
    fn round_trip_control_flow_and_calls() {
        let mut mb = ModuleBuilder::new("m", "m.c");
        let h = mb.declare("h", vec![Ty::F64], Some(Ty::F64));
        mb.define("g", vec![Ty::I64], Some(Ty::F64), |fb| {
            let acc = fb.alloca(Ty::F64, 1);
            fb.store(Value::f64(0.0), acc);
            fb.for_loop(Value::i64(0), fb.arg(0), |fb, iv| {
                let ivf = fb.cast(CastOp::SiToFp, iv, Ty::F64);
                let r = fb.call(h, vec![ivf]);
                let a = fb.load(acc, Ty::F64);
                let s = fb.fadd(a, r, Ty::F64);
                fb.store(s, acc);
            });
            let out = fb.load(acc, Ty::F64);
            fb.ret(Some(out));
        });
        mb.define("h", vec![Ty::F64], Some(Ty::F64), |fb| {
            let r = fb.sqrt(fb.arg(0));
            fb.ret(Some(r));
        });
        round_trip(&mb.finish());
    }

    #[test]
    fn round_trip_float_precision() {
        let mut mb = ModuleBuilder::new("m", "m.c");
        mb.define("c", vec![], Some(Ty::F64), |fb| {
            let v = fb.fadd(Value::f64(0.1), Value::f64(1.0 / 3.0), Ty::F64);
            fb.ret(Some(v));
        });
        round_trip(&mb.finish());
    }

    #[test]
    fn parse_error_reports_line() {
        let text = "module \"x\"\nbogus line here\n";
        let err = parse_module(text).unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn rejects_duplicate_value_ids() {
        let text = "module \"x\"\nfunc @f() -> i64 {\nbb0:\n  %v0 = add i64 i64 1, i64 2\n  %v0 = add i64 i64 1, i64 2\n  ret %v0\n}\n";
        assert!(parse_module(text).is_err());
    }

    #[test]
    fn parses_handwritten_module() {
        let text = r#"
module "hand"
file 0 "hand.c"
global @g0 "arr" f64 x 8 zero
func @get(i64 %a0) -> f64 {
bb0:
  %v0 = gep @g0, %a0, 8 !0:1:1
  %v1 = load f64, %v0 !0:2:1
  ret %v1
}
"#;
        let m = parse_module(text).unwrap();
        assert_eq!(m.funcs.len(), 1);
        assert_eq!(m.globals.len(), 1);
        assert_eq!(m.funcs[0].mem_access_instrs().len(), 1);
        assert_eq!(m.funcs[0].instr(InstrId(1)).loc.unwrap().line, 2);
    }
}
