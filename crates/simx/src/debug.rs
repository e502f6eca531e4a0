//! Simulated DWARF: line tables and variable location lists.
//!
//! CARE's runtime half depends on exactly two pieces of debug data
//! (paper §3.3–§3.4):
//!
//! * the **line table**, mapping a PC to the `(file, line, col)` tuple that
//!   keys the recovery table, and
//! * per-variable **location lists** (`DW_AT_location`), mapping a PC range
//!   to "in register r" (`DW_OP_reg*`) or "at frame offset o"
//!   (`DW_OP_breg* + off`), which Safeguard uses to fetch uncontaminated
//!   kernel parameters out of the stopped process.
//!
//! Both are emitted by the SimISA backend and consumed by `safeguard`.

use crate::isa::Reg;
use std::collections::HashMap;
use tinyir::DebugLoc;

/// Where a variable lives over some PC range.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VarPlace {
    /// In a register (`DW_OP_reg<r>`).
    Reg(Reg),
    /// At `FP + offset` on the stack (`DW_OP_breg<FP> <offset>`).
    FrameOffset(i64),
}

/// One `DW_AT_location` list entry: the variable is at `place` while the PC
/// is in `[lo, hi)`. Addresses are module-relative offsets (the same
/// convention the paper uses for shared libraries: `PC - base`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LocEntry {
    /// Inclusive start offset.
    pub lo: u64,
    /// Exclusive end offset.
    pub hi: u64,
    /// Register or frame slot.
    pub place: VarPlace,
}

/// A debug information entry for one variable (simplified DIE).
#[derive(Clone, Debug)]
pub struct VarDie {
    /// `DW_AT_name` — unique per recovery-kernel parameter.
    pub name: String,
    /// `DW_AT_location` list.
    pub locs: Vec<LocEntry>,
}

impl VarDie {
    /// Resolve the variable's place at a given module-relative PC offset.
    pub fn place_at(&self, offset: u64) -> Option<VarPlace> {
        self.locs.iter().find(|e| e.lo <= offset && offset < e.hi).map(|e| e.place)
    }
}

/// A request, produced by Armor, for the backend to emit a [`VarDie`]
/// describing where `value` of `func` lives ("Armor will create a variable
/// description for it by simply assigning a unique name").
#[derive(Clone, Debug)]
pub struct DieRequest {
    /// Function containing the value.
    pub func: tinyir::FuncId,
    /// The IR value to describe.
    pub value: tinyir::Value,
    /// Unique `DW_AT_name` to emit.
    pub name: String,
}

/// The debug data of one machine module: line table + variable DIEs.
#[derive(Clone, Debug, Default)]
pub struct DebugData {
    /// Sorted `(module_offset, loc)` pairs, one per machine instruction that
    /// has a source location.
    pub line_table: Vec<(u64, DebugLoc)>,
    /// Variable DIEs indexed by name.
    pub vars: HashMap<String, VarDie>,
}

impl DebugData {
    /// Look up the source location for a module-relative PC offset
    /// (exact-match: SimISA instructions are fixed width).
    pub fn loc_for_offset(&self, offset: u64) -> Option<DebugLoc> {
        match self.line_table.binary_search_by_key(&offset, |e| e.0) {
            Ok(i) => Some(self.line_table[i].1),
            Err(_) => None,
        }
    }

    /// Find the place of variable `name` at `offset`.
    pub fn var_place(&self, name: &str, offset: u64) -> Option<VarPlace> {
        self.vars.get(name)?.place_at(offset)
    }

    /// Insert a line-table row (rows must be appended in address order; the
    /// backend emits them that way).
    pub fn push_line(&mut self, offset: u64, loc: DebugLoc) {
        debug_assert!(self.line_table.last().map(|e| e.0 < offset).unwrap_or(true));
        self.line_table.push((offset, loc));
    }

    /// Approximate encoded size in bytes (used by the memory-overhead
    /// accounting that reproduces the paper's fixed 27 MB figure).
    pub fn encoded_size(&self) -> u64 {
        let lines = self.line_table.len() as u64 * 16;
        let vars: u64 =
            self.vars.values().map(|v| v.name.len() as u64 + 8 + v.locs.len() as u64 * 24).sum();
        lines + vars
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tinyir::FileId;

    #[test]
    fn line_lookup_is_exact_match() {
        let mut d = DebugData::default();
        let l1 = DebugLoc::new(FileId(0), 10, 1);
        let l2 = DebugLoc::new(FileId(0), 11, 1);
        d.push_line(0, l1);
        d.push_line(8, l2);
        assert_eq!(d.loc_for_offset(0), Some(l1));
        assert_eq!(d.loc_for_offset(8), Some(l2));
        assert_eq!(d.loc_for_offset(4), None);
    }

    #[test]
    fn location_list_ranges() {
        // Mirrors the paper's Table 7: a variable in a register for one PC
        // range and on the stack for the next.
        let die = VarDie {
            name: "zion3".into(),
            locs: vec![
                LocEntry { lo: 0x22cd4, hi: 0x22d3c, place: VarPlace::Reg(Reg(11)) },
                LocEntry { lo: 0x22d3c, hi: 0x22fe4, place: VarPlace::FrameOffset(4) },
            ],
        };
        assert_eq!(die.place_at(0x22cd4), Some(VarPlace::Reg(Reg(11))));
        assert_eq!(die.place_at(0x22d40), Some(VarPlace::FrameOffset(4)));
        assert_eq!(die.place_at(0x22fe4), None, "end is exclusive");
        assert_eq!(die.place_at(0x1), None);
    }

    #[test]
    fn var_place_via_debug_data() {
        let mut d = DebugData::default();
        d.vars.insert(
            "p0".into(),
            VarDie {
                name: "p0".into(),
                locs: vec![LocEntry { lo: 0, hi: 100, place: VarPlace::FrameOffset(16) }],
            },
        );
        assert_eq!(d.var_place("p0", 50), Some(VarPlace::FrameOffset(16)));
        assert_eq!(d.var_place("p0", 100), None);
        assert_eq!(d.var_place("nope", 50), None);
    }
}
