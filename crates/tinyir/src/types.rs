//! Scalar and pointer types for TinyIR values.

use std::fmt;

/// The type of a TinyIR value.
///
/// TinyIR models the subset of LLVM's first-class types that the CARE
/// pipeline needs: fixed-width integers, IEEE floats and opaque pointers.
/// Aggregates are modelled in memory (via [`crate::InstrKind::Gep`] address
/// arithmetic) rather than as SSA values, exactly like `-O0`/`-O1` LLVM IR
/// for C scientific codes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Ty {
    /// 1-bit boolean (result of comparisons).
    I1,
    /// 8-bit integer.
    I8,
    /// 16-bit integer.
    I16,
    /// 32-bit integer.
    I32,
    /// 64-bit integer.
    I64,
    /// IEEE-754 single precision.
    F32,
    /// IEEE-754 double precision.
    F64,
    /// Opaque pointer (64-bit on SimISA).
    Ptr,
}

impl Ty {
    /// Size of a value of this type in bytes when stored in memory.
    #[inline]
    pub fn size(self) -> u32 {
        match self {
            Ty::I1 | Ty::I8 => 1,
            Ty::I16 => 2,
            Ty::I32 | Ty::F32 => 4,
            Ty::I64 | Ty::F64 | Ty::Ptr => 8,
        }
    }

    /// Natural alignment in bytes (SimISA requires natural alignment;
    /// violating it raises a bus error, mirroring `SIGBUS`).
    #[inline]
    pub fn align(self) -> u32 {
        self.size()
    }

    /// True for `I1`/`I8`/`I16`/`I32`/`I64`.
    #[inline]
    pub fn is_int(self) -> bool {
        matches!(self, Ty::I1 | Ty::I8 | Ty::I16 | Ty::I32 | Ty::I64)
    }

    /// True for `F32`/`F64`.
    #[inline]
    pub fn is_float(self) -> bool {
        matches!(self, Ty::F32 | Ty::F64)
    }

    /// True for `Ptr`.
    #[inline]
    pub fn is_ptr(self) -> bool {
        matches!(self, Ty::Ptr)
    }

    /// Number of value bits (1 for `I1`, 64 for `Ptr`).
    #[inline]
    pub fn bits(self) -> u32 {
        match self {
            Ty::I1 => 1,
            _ => self.size() * 8,
        }
    }

    /// Mask selecting the valid low bits of an integer of this type.
    #[inline]
    pub fn mask(self) -> u64 {
        match self.bits() {
            64 => u64::MAX,
            b => (1u64 << b) - 1,
        }
    }

    /// Parse a type from its textual form (`"i32"`, `"f64"`, `"ptr"`, ...).
    pub fn parse(s: &str) -> Option<Ty> {
        Some(match s {
            "i1" => Ty::I1,
            "i8" => Ty::I8,
            "i16" => Ty::I16,
            "i32" => Ty::I32,
            "i64" => Ty::I64,
            "f32" => Ty::F32,
            "f64" => Ty::F64,
            "ptr" => Ty::Ptr,
            _ => return None,
        })
    }
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Ty::I1 => "i1",
            Ty::I8 => "i8",
            Ty::I16 => "i16",
            Ty::I32 => "i32",
            Ty::I64 => "i64",
            Ty::F32 => "f32",
            Ty::F64 => "f64",
            Ty::Ptr => "ptr",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_and_alignment() {
        assert_eq!(Ty::I1.size(), 1);
        assert_eq!(Ty::I8.size(), 1);
        assert_eq!(Ty::I16.size(), 2);
        assert_eq!(Ty::I32.size(), 4);
        assert_eq!(Ty::I64.size(), 8);
        assert_eq!(Ty::F32.size(), 4);
        assert_eq!(Ty::F64.size(), 8);
        assert_eq!(Ty::Ptr.size(), 8);
        for t in [Ty::I8, Ty::I32, Ty::F64, Ty::Ptr] {
            assert_eq!(t.align(), t.size());
        }
    }

    #[test]
    fn masks() {
        assert_eq!(Ty::I1.mask(), 1);
        assert_eq!(Ty::I8.mask(), 0xff);
        assert_eq!(Ty::I32.mask(), 0xffff_ffff);
        assert_eq!(Ty::I64.mask(), u64::MAX);
    }

    #[test]
    fn parse_round_trip() {
        for t in [Ty::I1, Ty::I8, Ty::I16, Ty::I32, Ty::I64, Ty::F32, Ty::F64, Ty::Ptr] {
            assert_eq!(Ty::parse(&t.to_string()), Some(t));
        }
        assert_eq!(Ty::parse("i128"), None);
    }

    #[test]
    fn kind_predicates() {
        assert!(Ty::I32.is_int() && !Ty::I32.is_float() && !Ty::I32.is_ptr());
        assert!(Ty::F32.is_float() && !Ty::F32.is_int());
        assert!(Ty::Ptr.is_ptr() && !Ty::Ptr.is_int());
    }
}
