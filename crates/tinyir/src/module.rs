//! Module, function, block and global-variable containers.

use crate::debugloc::FileId;
use crate::instr::Instr;
use crate::types::Ty;
use crate::value::{BlockId, FuncId, GlobalId, InstrId, Value};
use std::collections::HashMap;

/// Initial contents of a global variable.
#[derive(Clone, PartialEq, Debug)]
pub enum GlobalInit {
    /// All bytes zero.
    Zero,
    /// Repeated i32 values.
    I32s(Vec<i32>),
    /// Repeated i64 values.
    I64s(Vec<i64>),
    /// Repeated f32 values.
    F32s(Vec<f32>),
    /// Repeated f64 values.
    F64s(Vec<f64>),
}

impl GlobalInit {
    /// Encode the initialiser into little-endian bytes, padded/truncated to
    /// `size` bytes.
    pub fn to_bytes(&self, size: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(size);
        match self {
            GlobalInit::Zero => {}
            GlobalInit::I32s(v) => {
                for x in v {
                    out.extend_from_slice(&x.to_le_bytes());
                }
            }
            GlobalInit::I64s(v) => {
                for x in v {
                    out.extend_from_slice(&x.to_le_bytes());
                }
            }
            GlobalInit::F32s(v) => {
                for x in v {
                    out.extend_from_slice(&x.to_le_bytes());
                }
            }
            GlobalInit::F64s(v) => {
                for x in v {
                    out.extend_from_slice(&x.to_le_bytes());
                }
            }
        }
        out.resize(size, 0);
        out
    }
}

/// A module-level global variable: a named, fixed-size region in the data
/// section of the (simulated) process image.
#[derive(Clone, Debug)]
pub struct Global {
    /// Symbol name.
    pub name: String,
    /// Element type (determines alignment and the element size reported to
    /// address arithmetic).
    pub elem_ty: Ty,
    /// Number of elements.
    pub count: u32,
    /// Initialiser.
    pub init: GlobalInit,
}

impl Global {
    /// Total size in bytes.
    pub fn size(&self) -> u64 {
        self.elem_ty.size() as u64 * self.count as u64
    }
}

/// A basic block: an ordered list of instruction ids, the last of which is a
/// terminator once the function is complete.
#[derive(Clone, Default, Debug)]
pub struct Block {
    /// Optional label for printing.
    pub name: String,
    /// Instruction ids in execution order.
    pub instrs: Vec<InstrId>,
}

/// A function: argument signature, instruction arena and block list.
#[derive(Clone, Debug)]
pub struct Function {
    /// Symbol name.
    pub name: String,
    /// Argument types.
    pub params: Vec<Ty>,
    /// Optional argument names (for printing / DIE variable names).
    pub param_names: Vec<String>,
    /// Return type (`None` = void).
    pub ret_ty: Option<Ty>,
    /// Instruction arena; [`InstrId`] indexes into this. Every arena
    /// instruction sits in exactly one block ([`crate::verify`] rejects a
    /// function where one does not, and [`Function::compact`] restores the
    /// rule after a pass unlinks instructions from their blocks).
    pub instrs: Vec<Instr>,
    /// Basic blocks; block 0 is the entry.
    pub blocks: Vec<Block>,
    /// True for external declarations with no body.
    pub is_decl: bool,
}

impl Function {
    /// Create an empty function with a single (entry) block.
    pub fn new(name: impl Into<String>, params: Vec<Ty>, ret_ty: Option<Ty>) -> Function {
        Function {
            name: name.into(),
            param_names: (0..params.len()).map(|i| format!("arg{i}")).collect(),
            params,
            ret_ty,
            instrs: Vec::new(),
            blocks: vec![Block { name: "entry".into(), instrs: Vec::new() }],
            is_decl: false,
        }
    }

    /// Access an instruction by id.
    #[inline]
    pub fn instr(&self, id: InstrId) -> &Instr {
        &self.instrs[id.0 as usize]
    }

    /// Mutable access to an instruction by id.
    #[inline]
    pub fn instr_mut(&mut self, id: InstrId) -> &mut Instr {
        &mut self.instrs[id.0 as usize]
    }

    /// Access a block by id.
    #[inline]
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.0 as usize]
    }

    /// The entry block id.
    #[inline]
    pub fn entry(&self) -> BlockId {
        BlockId(0)
    }

    /// Append a new empty block and return its id.
    pub fn add_block(&mut self, name: impl Into<String>) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(Block { name: name.into(), instrs: Vec::new() });
        id
    }

    /// Append an instruction to a block and return its id.
    pub fn push_instr(&mut self, bb: BlockId, instr: Instr) -> InstrId {
        let id = InstrId(self.instrs.len() as u32);
        self.instrs.push(instr);
        self.blocks[bb.0 as usize].instrs.push(id);
        id
    }

    /// Iterate `(BlockId, &Block)` pairs.
    pub fn block_iter(&self) -> impl Iterator<Item = (BlockId, &Block)> {
        self.blocks.iter().enumerate().map(|(i, b)| (BlockId(i as u32), b))
    }

    /// Drop the arena instructions no block lists and renumber the rest in
    /// arena order, so every comparison between two kept ids keeps its
    /// result. Operands and block lists are rewritten.
    ///
    /// # Panics
    ///
    /// If a listed instruction uses a dropped one (a pass bug).
    pub fn compact(&mut self) {
        let mut new_id = vec![None; self.instrs.len()];
        for &i in self.blocks.iter().flat_map(|b| &b.instrs) {
            new_id[i.0 as usize] = Some(InstrId(0));
        }
        for (kept, id) in new_id.iter_mut().flatten().enumerate() {
            *id = InstrId(kept as u32);
        }
        let name = &self.name;
        let mut old = 0;
        self.instrs.retain_mut(|instr| {
            let user = InstrId(old);
            old += 1;
            new_id[user.0 as usize].is_some() && {
                instr.map_operands(|v| match v {
                    Value::Instr(d) => Value::Instr(new_id[d.0 as usize].unwrap_or_else(|| {
                        panic!("@{name}: {user} uses {d}, which no block lists")
                    })),
                    other => other,
                });
                true
            }
        });
        for i in self.blocks.iter_mut().flat_map(|b| &mut b.instrs) {
            *i = new_id[i.0 as usize].expect("listed");
        }
    }

    /// Ids of all memory-access instructions (loads and stores) in block
    /// order — the instruction population Armor builds kernels for.
    pub fn mem_access_instrs(&self) -> Vec<InstrId> {
        let mut out = Vec::new();
        for (_, b) in self.block_iter() {
            for &i in &b.instrs {
                if self.instr(i).is_mem_access() {
                    out.push(i);
                }
            }
        }
        out
    }

    /// Count the instructions the blocks list. On a verified function this
    /// equals `instrs.len()`.
    pub fn live_instr_count(&self) -> usize {
        self.blocks.iter().map(|b| b.instrs.len()).sum()
    }
}

/// A TinyIR module: globals, functions, and the file-name interner used by
/// debug locations.
#[derive(Clone, Default, Debug)]
pub struct Module {
    /// Module name (informational).
    pub name: String,
    /// Global variables.
    pub globals: Vec<Global>,
    /// Functions.
    pub funcs: Vec<Function>,
    /// Interned source-file names (index = [`FileId`]).
    pub files: Vec<String>,
    func_index: HashMap<String, FuncId>,
    global_index: HashMap<String, GlobalId>,
}

impl Module {
    /// Create an empty module.
    pub fn new(name: impl Into<String>) -> Module {
        Module { name: name.into(), ..Module::default() }
    }

    /// Intern a file name, returning its id.
    pub fn intern_file(&mut self, name: &str) -> FileId {
        if let Some(i) = self.files.iter().position(|f| f == name) {
            return FileId(i as u32);
        }
        self.files.push(name.to_string());
        FileId(self.files.len() as u32 - 1)
    }

    /// Look up an interned file name.
    pub fn file_name(&self, id: FileId) -> &str {
        &self.files[id.0 as usize]
    }

    /// Add a global variable; returns its id.
    pub fn add_global(&mut self, g: Global) -> GlobalId {
        let id = GlobalId(self.globals.len() as u32);
        self.global_index.insert(g.name.clone(), id);
        self.globals.push(g);
        id
    }

    /// Add a function; returns its id.
    pub fn add_func(&mut self, f: Function) -> FuncId {
        let id = FuncId(self.funcs.len() as u32);
        self.func_index.insert(f.name.clone(), id);
        self.funcs.push(f);
        id
    }

    /// Access a function by id.
    #[inline]
    pub fn func(&self, id: FuncId) -> &Function {
        &self.funcs[id.0 as usize]
    }

    /// Mutable access to a function by id.
    #[inline]
    pub fn func_mut(&mut self, id: FuncId) -> &mut Function {
        &mut self.funcs[id.0 as usize]
    }

    /// Access a global by id.
    #[inline]
    pub fn global(&self, id: GlobalId) -> &Global {
        &self.globals[id.0 as usize]
    }

    /// Find a function by name.
    pub fn func_by_name(&self, name: &str) -> Option<FuncId> {
        self.func_index.get(name).copied()
    }

    /// Find a global by name.
    pub fn global_by_name(&self, name: &str) -> Option<GlobalId> {
        self.global_index.get(name).copied()
    }

    /// Rebuild the name indexes (used by the parser after bulk insertion).
    pub fn rebuild_indexes(&mut self) {
        self.func_index = self
            .funcs
            .iter()
            .enumerate()
            .map(|(i, f)| (f.name.clone(), FuncId(i as u32)))
            .collect();
        self.global_index = self
            .globals
            .iter()
            .enumerate()
            .map(|(i, g)| (g.name.clone(), GlobalId(i as u32)))
            .collect();
    }

    /// Total number of memory-access instructions across all defined
    /// functions.
    pub fn mem_access_count(&self) -> usize {
        self.funcs.iter().filter(|f| !f.is_decl).map(|f| f.mem_access_instrs().len()).sum()
    }
}

/// Resolve the type of a [`Value`] in the context of a function.
pub fn value_ty(f: &Function, v: Value) -> Option<Ty> {
    match v {
        Value::Instr(id) => f.instr(id).result_ty(),
        Value::Arg(i) => f.params.get(i as usize).copied(),
        Value::Global(_) => Some(Ty::Ptr),
        Value::ConstInt(_, t) => Some(t),
        Value::ConstFloat(_, t) => Some(t),
        Value::ConstNull => Some(Ty::Ptr),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{BinOp, Instr, InstrKind};

    fn sample_function() -> Function {
        let mut f = Function::new("f", vec![Ty::Ptr, Ty::I64], Some(Ty::F64));
        let e = f.entry();
        let gep = f.push_instr(
            e,
            Instr::new(InstrKind::Gep { base: Value::Arg(0), index: Value::Arg(1), elem_size: 8 }),
        );
        let ld =
            f.push_instr(e, Instr::new(InstrKind::Load { ptr: Value::Instr(gep), ty: Ty::F64 }));
        let add = f.push_instr(
            e,
            Instr::new(InstrKind::Bin {
                op: BinOp::FAdd,
                lhs: Value::Instr(ld),
                rhs: Value::f64(1.0),
                ty: Ty::F64,
            }),
        );
        f.push_instr(e, Instr::new(InstrKind::Ret { val: Some(Value::Instr(add)) }));
        f
    }

    #[test]
    fn build_and_query() {
        let f = sample_function();
        assert_eq!(f.live_instr_count(), 4);
        assert_eq!(f.mem_access_instrs().len(), 1);
        assert_eq!(value_ty(&f, Value::Arg(0)), Some(Ty::Ptr));
        assert_eq!(value_ty(&f, Value::Instr(InstrId(1))), Some(Ty::F64));
    }

    #[test]
    fn module_name_lookup() {
        let mut m = Module::new("test");
        let g = m.add_global(Global {
            name: "data".into(),
            elem_ty: Ty::F64,
            count: 16,
            init: GlobalInit::Zero,
        });
        let fid = m.add_func(sample_function());
        assert_eq!(m.global_by_name("data"), Some(g));
        assert_eq!(m.func_by_name("f"), Some(fid));
        assert_eq!(m.global(g).size(), 128);
        assert_eq!(m.mem_access_count(), 1);
    }

    #[test]
    fn file_interning() {
        let mut m = Module::new("test");
        let a = m.intern_file("a.c");
        let b = m.intern_file("b.c");
        assert_ne!(a, b);
        assert_eq!(m.intern_file("a.c"), a);
        assert_eq!(m.file_name(b), "b.c");
    }

    #[test]
    fn global_init_bytes() {
        let init = GlobalInit::I32s(vec![1, -1]);
        let bytes = init.to_bytes(12);
        assert_eq!(&bytes[0..4], &1i32.to_le_bytes());
        assert_eq!(&bytes[4..8], &(-1i32).to_le_bytes());
        assert_eq!(&bytes[8..12], &[0, 0, 0, 0]);
    }

    fn add_arg(k: i64) -> Instr {
        Instr::new(InstrKind::Bin {
            op: BinOp::Add,
            lhs: Value::Arg(0),
            rhs: Value::i64(k),
            ty: Ty::I64,
        })
    }

    /// `bb0: %v6 = add %a0, 3; %v1 = add %a0, 1; br bb1` and
    /// `bb1: %v3 = phi [bb0: %v1]; %v4 = add %v3, %v1; ret %v4`, with
    /// `%v0 = add %a0, 2` unlinked from `bb0` and `%v6` listed first though
    /// it was created last.
    fn function_with_an_unlinked_instruction() -> Function {
        let mut f = Function::new("h", vec![Ty::I64], Some(Ty::I64));
        let (e, bb1) = (f.entry(), f.add_block("b"));
        f.push_instr(e, add_arg(2));
        let a = f.push_instr(e, add_arg(1));
        f.push_instr(e, Instr::new(InstrKind::Br { target: bb1 }));
        let phi = f.push_instr(
            bb1,
            Instr::new(InstrKind::Phi { incomings: vec![(e, Value::Instr(a))], ty: Ty::I64 }),
        );
        let sum = f.push_instr(
            bb1,
            Instr::new(InstrKind::Bin {
                op: BinOp::Add,
                lhs: Value::Instr(phi),
                rhs: Value::Instr(a),
                ty: Ty::I64,
            }),
        );
        f.push_instr(bb1, Instr::new(InstrKind::Ret { val: Some(Value::Instr(sum)) }));
        let first = f.push_instr(e, add_arg(3));
        let bb0 = &mut f.blocks[0].instrs;
        bb0.pop();
        bb0[0] = first;
        f
    }

    #[test]
    fn compact_renumbers_in_arena_order() {
        let mut f = function_with_an_unlinked_instruction();
        f.compact();
        assert_eq!((f.instrs.len(), f.live_instr_count()), (6, 6));
        let ids: Vec<Vec<u32>> =
            f.blocks.iter().map(|b| b.instrs.iter().map(|i| i.0).collect()).collect();
        assert_eq!(ids, [vec![5, 0, 1], vec![2, 3, 4]]);
        assert_eq!(f.instr(InstrId(5)), &add_arg(3));
        let InstrKind::Phi { incomings, .. } = &f.instr(InstrId(2)).kind else { panic!() };
        assert_eq!(incomings[0].1, Value::Instr(InstrId(0)));
        assert_eq!(
            f.instr(InstrId(3)).operands(),
            [Value::Instr(InstrId(2)), Value::Instr(InstrId(0))]
        );
        assert_eq!(f.instr(InstrId(4)).operands(), [Value::Instr(InstrId(3))]);
        // A compact function compacts to itself.
        let once = f.instrs.clone();
        f.compact();
        assert_eq!(f.instrs, once);
        assert_eq!(f.blocks[0].instrs, [InstrId(5), InstrId(0), InstrId(1)]);
    }

    #[test]
    #[should_panic(expected = "@h: %v4 uses %v0, which no block lists")]
    fn compact_panics_on_a_use_of_an_unlisted_instruction() {
        let mut f = function_with_an_unlinked_instruction();
        f.instr_mut(InstrId(4)).map_operands(|_| Value::Instr(InstrId(0)));
        f.compact();
    }
}
