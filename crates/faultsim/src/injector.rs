//! The fault injector: `(I, n)` selection from a Pin-style profile and
//! bit-flips on destination operands.
//!
//! Methodology follows paper §2.1.1 and §5.1:
//!
//! * a profiling run counts executions of every static instruction;
//! * a static instruction is drawn weighted by its execution count, and an
//!   execution ordinal `n` uniformly within its count, approximating a
//!   uniformly-random *dynamic* instruction;
//! * the simulated ptrace-attach sets a breakpoint that stops **right after
//!   the n-th execution**, then flips one (or two, Appendix A) bits in the
//!   instruction's destination operand: the written register, the stored
//!   memory cell, or the PC for control transfers.

use rand::rngs::SmallRng;
use rand::Rng;
use simx::{DestRef, ModuleId, Process, Profile};
use tinyir::FuncId;

/// Single- or double-bit-flip fault model (paper §2 / Appendix A).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultModel {
    /// Flip one uniformly-chosen bit.
    SingleBit,
    /// Flip two distinct uniformly-chosen bits.
    DoubleBit,
}

impl FaultModel {
    /// Stable wire/CLI name; inverse of [`FromStr`](std::str::FromStr).
    pub fn name(self) -> &'static str {
        match self {
            FaultModel::SingleBit => "single",
            FaultModel::DoubleBit => "double",
        }
    }
}

impl std::str::FromStr for FaultModel {
    type Err = String;
    fn from_str(s: &str) -> Result<FaultModel, String> {
        match s {
            "single" => Ok(FaultModel::SingleBit),
            "double" => Ok(FaultModel::DoubleBit),
            other => Err(format!("unknown fault model {other:?} (single|double)")),
        }
    }
}

/// A chosen injection point: the `(I, n)` pair of §5.1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InjectionPoint {
    /// Module of the target instruction.
    pub module: ModuleId,
    /// Function of the target instruction.
    pub func: FuncId,
    /// Static instruction index.
    pub inst: usize,
    /// Stop after this many executions (1-based).
    pub nth: u64,
}

/// A profile's eligible executions laid out for sampling: every static
/// instruction with any, in profile order, beside the running total of
/// their counts. Built once per campaign; each draw is then a binary search
/// instead of two passes over the whole profile.
#[derive(Clone, Debug, Default)]
pub(crate) struct PointTable {
    /// Every instruction with eligible executions, in `[module][func][inst]`
    /// order.
    sites: Vec<(ModuleId, FuncId, u32)>,
    /// `ends[k]`: the counts of `sites[..=k]` summed.
    ends: Vec<u64>,
    /// How many of `sites` lie in the executable (module 0), which comes
    /// first.
    exe_sites: usize,
}

impl PointTable {
    /// The table of `profile`'s executions of instructions `eligible`
    /// accepts.
    pub(crate) fn new(
        profile: &Profile,
        eligible: &dyn Fn(usize, usize, usize) -> bool,
    ) -> PointTable {
        let mut table = PointTable::default();
        let mut total = 0u64;
        for (m, fs) in profile.iter().enumerate() {
            for (f, is) in fs.iter().enumerate() {
                for (i, &c) in is.iter().enumerate() {
                    if c > 0 && eligible(m, f, i) {
                        total += c;
                        let inst = u32::try_from(i).expect("instruction index fits u32");
                        table.sites.push((ModuleId(m as u32), FuncId(f as u32), inst));
                        table.ends.push(total);
                    }
                }
            }
            if m == 0 {
                table.exe_sites = table.sites.len();
            }
        }
        table
    }

    /// Draw an injection point: an eligible execution uniformly (a static
    /// instruction weighted by its count), then its ordinal uniformly within
    /// the count — two draws from `rng`. `exe_only` restricts the draw to
    /// the executable (the §5 campaigns inject only into application code).
    /// `None` when there is nothing to draw.
    pub(crate) fn pick(&self, rng: &mut SmallRng, exe_only: bool) -> Option<InjectionPoint> {
        let ends = if exe_only { &self.ends[..self.exe_sites] } else { &self.ends[..] };
        let r = rng.gen_range(0..*ends.last()?);
        let k = ends.partition_point(|&end| end <= r);
        let count = ends[k] - k.checked_sub(1).map_or(0, |j| ends[j]);
        let (module, func, inst) = self.sites[k];
        Some(InjectionPoint { module, func, inst: inst as usize, nth: rng.gen_range(1..=count) })
    }
}

/// Bits to flip for a destination of `width` bits under `model`.
pub fn pick_bits(model: FaultModel, width: u32, rng: &mut SmallRng) -> Vec<u32> {
    match model {
        FaultModel::SingleBit => vec![rng.gen_range(0..width)],
        FaultModel::DoubleBit => {
            let a = rng.gen_range(0..width);
            let mut b = rng.gen_range(0..width);
            while b == a {
                b = rng.gen_range(0..width);
            }
            vec![a, b]
        }
    }
}

/// What the injector actually corrupted (for post-hoc analysis).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InjectedInto {
    /// A register (id).
    Reg(u8),
    /// A memory cell (address).
    Mem(u64),
    /// The program counter.
    Pc,
    /// The destination no longer existed (e.g. unmapped store target after
    /// an earlier event) — injection skipped.
    Skipped,
}

/// Flip bits in the destination operand of the instruction the process just
/// executed (it must be stopped at a breakpoint hit on `point`). Returns
/// where the fault landed.
pub fn inject(
    process: &mut Process,
    point: InjectionPoint,
    model: FaultModel,
    rng: &mut SmallRng,
) -> InjectedInto {
    let lm = &process.image.modules[point.module.0 as usize];
    let inst = lm.module.funcs[point.func.0 as usize].instrs[point.inst].clone();
    let frame = process.frame().clone();
    match process.dest_of(&inst, &frame) {
        DestRef::Reg(r) => {
            let bits = pick_bits(model, 64, rng);
            let mut v = process.read_reg(r);
            for b in bits {
                v ^= 1u64 << b;
            }
            process.write_reg(r, v);
            InjectedInto::Reg(r.0)
        }
        DestRef::Mem(addr, size) => {
            let width = size as u32 * 8;
            let bits = pick_bits(model, width, rng);
            match process.mem.load(addr, size as u32) {
                Ok(mut v) => {
                    for b in bits {
                        v ^= 1u64 << b;
                    }
                    let _ = process.mem.store(addr, size as u32, v);
                    InjectedInto::Mem(addr)
                }
                Err(_) => InjectedInto::Skipped,
            }
        }
        DestRef::Pc => {
            // Flip low bits of the instruction index: small flips jump
            // within the function (possible SDC), large ones fetch from
            // nowhere (SIGSEGV on fetch).
            let bits = pick_bits(model, 20, rng);
            let mut idx = process.frame().idx as u64;
            for b in bits {
                idx ^= 1u64 << b;
            }
            process.frame_mut().idx = idx as usize;
            InjectedInto::Pc
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn weighted_selection_prefers_hot_instructions() {
        // func 0: inst 0 executed 990 times, inst 1 executed 10 times.
        let profile: Profile = vec![vec![vec![990, 10]]];
        let mut rng = SmallRng::seed_from_u64(7);
        let mut hot = 0;
        for _ in 0..1000 {
            let p = PointTable::new(&profile, &|_, _, _| true).pick(&mut rng, false).unwrap();
            if p.inst == 0 {
                hot += 1;
            }
            assert!(p.nth >= 1);
            assert!(p.nth <= if p.inst == 0 { 990 } else { 10 });
        }
        assert!(hot > 930, "hot instruction should dominate: {hot}");
    }

    #[test]
    fn module_filter_restricts_targets() {
        let profile: Profile = vec![vec![vec![100]], vec![vec![100]]];
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..100 {
            let p = PointTable::new(&profile, &|_, _, _| true).pick(&mut rng, true).unwrap();
            assert_eq!(p.module, ModuleId(0));
        }
    }

    #[test]
    fn empty_profile_yields_no_point() {
        let profile: Profile = vec![vec![vec![0, 0]]];
        let mut rng = SmallRng::seed_from_u64(1);
        assert!(PointTable::new(&profile, &|_, _, _| true).pick(&mut rng, false).is_none());
    }

    #[test]
    fn bit_pickers_respect_model_and_width() {
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..200 {
            let s = pick_bits(FaultModel::SingleBit, 32, &mut rng);
            assert_eq!(s.len(), 1);
            assert!(s[0] < 32);
            let d = pick_bits(FaultModel::DoubleBit, 8, &mut rng);
            assert_eq!(d.len(), 2);
            assert_ne!(d[0], d[1]);
            assert!(d.iter().all(|&b| b < 8));
        }
    }

    #[test]
    fn double_flip_is_involution() {
        // Flipping the same two bits twice restores the value — a sanity
        // property of the injector's XOR mechanics.
        let mut v = 0xdead_beef_u64;
        for b in [3u32, 17] {
            v ^= 1 << b;
        }
        for b in [3u32, 17] {
            v ^= 1 << b;
        }
        assert_eq!(v, 0xdead_beef);
    }

    /// Fault-model wire names round-trip through `FromStr`.
    #[test]
    fn fault_model_names_round_trip() {
        for m in [FaultModel::SingleBit, FaultModel::DoubleBit] {
            assert_eq!(m.name().parse::<FaultModel>().unwrap(), m);
        }
        assert!("triple".parse::<FaultModel>().is_err());
    }
}
