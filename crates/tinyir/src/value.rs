//! Value references and entity ids.

use crate::types::Ty;
use std::fmt;

/// Index of an instruction within a function's instruction arena. In a
/// verified function the ids are exactly the instructions its blocks list,
/// each once, so an id-indexed table has no holes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct InstrId(pub u32);

/// Index of a basic block within a function.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct BlockId(pub u32);

/// Index of a function within a module.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct FuncId(pub u32);

/// Index of a global variable within a module.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct GlobalId(pub u32);

impl fmt::Display for InstrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%v{}", self.0)
    }
}
impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// An SSA operand: either the result of an instruction, a function argument,
/// the address of a global, or a constant.
///
/// This mirrors LLVM's `Value` hierarchy closely enough for the Armor
/// extraction algorithm (Figure 5 of the paper), which dispatches on exactly
/// these cases: `AllocaInst` / `GlobalVariable` / `Argument` / `PHINode` /
/// `CallInst` / constants / ordinary instructions.
#[derive(Clone, Copy, Debug)]
pub enum Value {
    /// Result of the instruction with the given id.
    Instr(InstrId),
    /// The `n`-th formal argument of the enclosing function.
    Arg(u32),
    /// Address of a module-level global variable (always of type `Ptr`).
    Global(GlobalId),
    /// Integer constant with its type (bits stored sign-extended in an `i64`).
    ConstInt(i64, Ty),
    /// Floating-point constant with its type.
    ConstFloat(f64, Ty),
    /// Null pointer constant.
    ConstNull,
}

impl Value {
    /// True if this operand is any kind of constant ("ConstantData" in the
    /// paper's pseudocode — constants never need to become kernel parameters).
    #[inline]
    pub fn is_const(&self) -> bool {
        matches!(self, Value::ConstInt(..) | Value::ConstFloat(..) | Value::ConstNull)
    }

    /// The instruction id if this operand is an instruction result.
    #[inline]
    pub fn as_instr(&self) -> Option<InstrId> {
        match self {
            Value::Instr(id) => Some(*id),
            _ => None,
        }
    }

    /// Convenience constructor for `i32` constants.
    #[inline]
    pub fn i32(v: i32) -> Value {
        Value::ConstInt(v as i64, Ty::I32)
    }

    /// Convenience constructor for `i64` constants.
    #[inline]
    pub fn i64(v: i64) -> Value {
        Value::ConstInt(v, Ty::I64)
    }

    /// Convenience constructor for `f64` constants.
    #[inline]
    pub fn f64(v: f64) -> Value {
        Value::ConstFloat(v, Ty::F64)
    }

    /// Convenience constructor for `f32` constants.
    #[inline]
    pub fn f32(v: f32) -> Value {
        Value::ConstFloat(v as f64, Ty::F32)
    }
}

// Hash/Eq: f64 is not Eq; we compare constants by bit pattern so values can
// be used as keys in CSE-style maps. PartialEq must agree with Hash (bitwise
// on floats, so -0.0 != 0.0 and NaN == NaN here) or hash-map dedup of float
// constants becomes dependent on hasher randomness.
impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Instr(a), Value::Instr(b)) => a == b,
            (Value::Arg(a), Value::Arg(b)) => a == b,
            (Value::Global(a), Value::Global(b)) => a == b,
            (Value::ConstInt(a, ta), Value::ConstInt(b, tb)) => a == b && ta == tb,
            (Value::ConstFloat(a, ta), Value::ConstFloat(b, tb)) => {
                a.to_bits() == b.to_bits() && ta == tb
            }
            (Value::ConstNull, Value::ConstNull) => true,
            _ => false,
        }
    }
}
impl Eq for Value {}
impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Instr(id) => {
                0u8.hash(state);
                id.hash(state);
            }
            Value::Arg(n) => {
                1u8.hash(state);
                n.hash(state);
            }
            Value::Global(g) => {
                2u8.hash(state);
                g.hash(state);
            }
            Value::ConstInt(v, t) => {
                3u8.hash(state);
                v.hash(state);
                t.hash(state);
            }
            Value::ConstFloat(v, t) => {
                4u8.hash(state);
                v.to_bits().hash(state);
                t.hash(state);
            }
            Value::ConstNull => 5u8.hash(state),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn const_predicates() {
        assert!(Value::i32(3).is_const());
        assert!(Value::f64(1.5).is_const());
        assert!(Value::ConstNull.is_const());
        assert!(!Value::Instr(InstrId(0)).is_const());
        assert!(!Value::Arg(0).is_const());
        assert!(!Value::Global(GlobalId(0)).is_const());
    }

    #[test]
    fn as_instr() {
        assert_eq!(Value::Instr(InstrId(7)).as_instr(), Some(InstrId(7)));
        assert_eq!(Value::Arg(1).as_instr(), None);
    }

    #[test]
    fn hashable_in_sets() {
        let mut s = HashSet::new();
        s.insert(Value::f64(1.0));
        s.insert(Value::f64(1.0));
        s.insert(Value::f64(-1.0));
        assert_eq!(s.len(), 2);
        // 0.0 and -0.0 have distinct bit patterns: distinct keys.
        s.insert(Value::f64(0.0));
        s.insert(Value::f64(-0.0));
        assert_eq!(s.len(), 4);
    }
}
