//! Liveness of SSA values, as bit rows per block.
//!
//! Armor's terminal-value rule (paper §3.2) needs two queries:
//!
//! 1. **is `v` live at instruction `I`?** — a value may only become a
//!    recovery-kernel parameter if it is still live (hence still present in
//!    a register or stack slot) when the protected memory access executes;
//! 2. **does `v` have a non-local use?** — the paper observes that a value
//!    that is live *and used outside its defining basic block* will not be
//!    folded away by machine-dependent lowering, so it is guaranteed to be
//!    addressable at recovery time.
//!
//! The backward dataflow runs over blocks only: `use`, `def`, `phi_out`,
//! `live_in` and `live_out` are one bit row per block, one bit per value,
//! combined a `u64` word at a time. A question about one instruction is
//! answered by walking its block backward from the block's `live_out` row
//! ([`Liveness::walk_block`], [`Liveness::live_before_into`]), so no row
//! or set is ever stored per instruction and memory stays
//! O(blocks × values) whatever the function's shape.
//!
//! Phi uses count at the end of the incoming block (the standard SSA
//! treatment). Only blocks reachable from the entry take part in the
//! dataflow: an unreachable block's `live_out` stays empty, so inside dead
//! code a value is live only up to its uses in the same block.

use crate::cfg::Cfg;
use tinyir::{BlockId, Function, InstrId, InstrKind, Value};

/// A set of liveness keys (see [`Liveness::key_of`]), one bit per key.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LiveSet {
    words: Vec<u64>,
}

impl LiveSet {
    /// Is key `k` in the set?
    pub fn contains(&self, k: InstrId) -> bool {
        bit(&self.words, k.0)
    }

    /// The keys in the set, ascending.
    pub fn iter(&self) -> impl Iterator<Item = InstrId> + '_ {
        ones(self.words.iter().copied())
    }

    /// The keys in `self` and not in `other`, ascending.
    pub fn minus<'a>(&'a self, other: &'a LiveSet) -> impl Iterator<Item = InstrId> + 'a {
        ones(self.words.iter().zip(&other.words).map(|(a, b)| a & !b))
    }

    fn load(&mut self, row: &[u64]) {
        self.words.clear();
        self.words.extend_from_slice(row);
    }
}

fn bit(words: &[u64], k: u32) -> bool {
    words.get(k as usize / 64).is_some_and(|w| w >> (k % 64) & 1 != 0)
}

/// The positions of the set bits of a word sequence, ascending.
fn ones(words: impl Iterator<Item = u64>) -> impl Iterator<Item = InstrId> {
    words.enumerate().flat_map(|(i, mut w)| {
        std::iter::from_fn(move || {
            (w != 0).then(|| {
                let b = w.trailing_zeros();
                w &= w - 1;
                InstrId(i as u32 * 64 + b)
            })
        })
    })
}

/// One bit row of `width` words per block, stored block-major.
#[derive(Clone, Debug)]
struct Rows {
    width: usize,
    words: Vec<u64>,
}

impl Rows {
    fn new(blocks: usize, width: usize) -> Rows {
        Rows { width, words: vec![0; blocks * width] }
    }

    fn row(&self, b: usize) -> &[u64] {
        &self.words[b * self.width..(b + 1) * self.width]
    }

    fn row_mut(&mut self, b: usize) -> &mut [u64] {
        &mut self.words[b * self.width..(b + 1) * self.width]
    }

    fn get(&self, b: usize, k: u32) -> bool {
        bit(self.row(b), k)
    }

    fn set(&mut self, b: usize, k: u32) {
        self.row_mut(b)[k as usize / 64] |= 1 << (k % 64);
    }
}

/// No key: the step defines nothing.
const NO_KEY: u32 = u32::MAX;

/// One instruction of a block walk: the key it defines and its non-phi
/// uses, `Liveness::uses[use_lo..use_hi]`.
#[derive(Clone, Copy, Debug)]
struct Step {
    instr: InstrId,
    def: u32,
    use_lo: u32,
    use_hi: u32,
}

/// Liveness facts for one function.
///
/// Function arguments are tracked alongside instruction-defined values via
/// pseudo-ids: argument `a` is keyed as `InstrId(n_instrs + a)` (see
/// [`Liveness::arg_key`]). Arguments are defined at function entry, so their
/// live range starts at the entry block.
#[derive(Debug, Clone)]
pub struct Liveness {
    /// Number of real (arena) instructions; pseudo-ids start here.
    n_instrs: u32,
    /// The values live at each block's end.
    live_out: Rows,
    /// Values used by at least one instruction outside their defining block.
    nonlocal: Vec<bool>,
    /// Block `b`'s instructions, in order, are
    /// `steps[block_start[b]..block_start[b + 1]]`.
    block_start: Vec<u32>,
    steps: Vec<Step>,
    /// The keys every step uses, concatenated.
    uses: Vec<u32>,
    /// `(block, index in block)` of each instruction.
    place: Vec<(BlockId, u32)>,
}

impl Liveness {
    /// Compute liveness for `f` over its CFG. `f` must be verified, so that
    /// each arena instruction sits in exactly one block.
    pub fn compute(f: &Function, cfg: &Cfg) -> Liveness {
        let n_real = f.instrs.len() as u32;
        let n_keys = f.instrs.len() + f.params.len();
        let width = n_keys.div_ceil(64);
        let n_block = f.blocks.len();
        let key_of = |v: Value| match v {
            Value::Instr(d) => Some(d.0),
            Value::Arg(a) => Some(n_real + a),
            _ => None,
        };
        let mut place = vec![(BlockId(0), 0); f.instrs.len()];
        for (bid, block) in f.block_iter() {
            for (i, &iid) in block.instrs.iter().enumerate() {
                place[iid.0 as usize] = (bid, i as u32);
            }
        }
        // Arguments are "defined" in the entry block.
        let owner_of = |k: u32| if k < n_real { place[k as usize].0 } else { BlockId(0) };

        // use[b], def[b] block summaries. Phi uses count as uses at the end
        // of the corresponding predecessor, via phi_out.
        let mut use_b = Rows::new(n_block, width);
        let mut def_b = Rows::new(n_block, width);
        let mut phi_out = Rows::new(n_block, width);
        let mut nonlocal = vec![false; n_keys];
        let mut block_start = Vec::with_capacity(n_block + 1);
        let mut steps = Vec::with_capacity(f.instrs.len());
        let mut uses = Vec::with_capacity(2 * f.instrs.len());

        for (bid, block) in f.block_iter() {
            let b = bid.0 as usize;
            block_start.push(steps.len() as u32);
            for &iid in &block.instrs {
                let instr = f.instr(iid);
                let use_lo = uses.len() as u32;
                if let InstrKind::Phi { incomings, .. } = &instr.kind {
                    for &(inb, v) in incomings {
                        if let Some(d) = key_of(v) {
                            phi_out.set(inb.0 as usize, d);
                            nonlocal[d as usize] = true;
                        }
                    }
                } else {
                    instr.for_each_operand(|v| {
                        if let Some(d) = key_of(v) {
                            if !def_b.get(b, d) {
                                use_b.set(b, d);
                            }
                            if owner_of(d) != bid {
                                nonlocal[d as usize] = true;
                            }
                            uses.push(d);
                        }
                    });
                }
                let def = if instr.result_ty().is_some() {
                    def_b.set(b, iid.0);
                    iid.0
                } else {
                    NO_KEY
                };
                steps.push(Step { instr: iid, def, use_lo, use_hi: uses.len() as u32 });
            }
        }
        block_start.push(steps.len() as u32);

        // Backward dataflow to fixpoint on block live-in/out, in reverse
        // RPO for fast convergence.
        let mut live_in = Rows::new(n_block, width);
        let mut live_out = Rows::new(n_block, width);
        let mut out = vec![0u64; width];
        let mut changed = true;
        while changed {
            changed = false;
            for &bid in cfg.rpo.iter().rev() {
                let b = bid.0 as usize;
                out.copy_from_slice(phi_out.row(b));
                for s in &cfg.succs[b] {
                    for (o, i) in out.iter_mut().zip(live_in.row(s.0 as usize)) {
                        *o |= i;
                    }
                }
                if live_out.row(b) != out.as_slice() {
                    live_out.row_mut(b).copy_from_slice(&out);
                    changed = true;
                }
                let (uses_b, defs_b) = (use_b.row(b), def_b.row(b));
                for (w, inn) in live_in.row_mut(b).iter_mut().enumerate() {
                    let new = uses_b[w] | (out[w] & !defs_b[w]);
                    if *inn != new {
                        *inn = new;
                        changed = true;
                    }
                }
            }
        }

        Liveness { n_instrs: n_real, live_out, nonlocal, block_start, steps, uses, place }
    }

    /// The pseudo-id under which argument `a` is tracked.
    pub fn arg_key(&self, a: u32) -> InstrId {
        InstrId(self.n_instrs + a)
    }

    /// Liveness key for any trackable value (`None` for constants/globals).
    pub fn key_of(&self, v: Value) -> Option<InstrId> {
        match v {
            Value::Instr(d) => Some(d),
            Value::Arg(a) => Some(InstrId(self.n_instrs + a)),
            _ => None,
        }
    }

    fn block_steps(&self, b: usize) -> &[Step] {
        &self.steps[self.block_start[b] as usize..self.block_start[b + 1] as usize]
    }

    /// Step `live` from after `st` to before it.
    fn step_back(&self, st: &Step, live: &mut LiveSet) {
        if st.def != NO_KEY {
            live.words[st.def as usize / 64] &= !(1 << (st.def % 64));
        }
        for &u in &self.uses[st.use_lo as usize..st.use_hi as usize] {
            live.words[u as usize / 64] |= 1 << (u % 64);
        }
    }

    /// Walk block `b` backward from its `live_out` row: for each
    /// instruction, last to first, `visit(instr, before, after)` sees the
    /// values live immediately before and immediately after it. `sets` is
    /// the walk's working memory, reusable from block to block.
    pub fn walk_block(
        &self,
        b: BlockId,
        sets: &mut [LiveSet; 2],
        mut visit: impl FnMut(InstrId, &LiveSet, &LiveSet),
    ) {
        let [before, after] = sets;
        after.load(self.live_out.row(b.0 as usize));
        for st in self.block_steps(b.0 as usize).iter().rev() {
            before.load(&after.words);
            self.step_back(st, before);
            visit(st.instr, before, after);
            std::mem::swap(before, after);
        }
    }

    /// The block that lists instruction `id`, and `id`'s position in it.
    pub fn place(&self, id: InstrId) -> (BlockId, usize) {
        let (b, i) = self.place[id.0 as usize];
        (b, i as usize)
    }

    /// `id`'s position in the function listed block after block: the
    /// instructions of the blocks before its own, plus its index in it.
    pub fn position(&self, id: InstrId) -> u32 {
        let (b, i) = self.place[id.0 as usize];
        self.block_start[b.0 as usize] + i
    }

    /// Fill `live` with the values live immediately before `at`: one
    /// backward walk of `at`'s block, from its end to `at`.
    pub fn live_before_into(&self, at: InstrId, live: &mut LiveSet) {
        let (b, i) = self.place(at);
        live.load(self.live_out.row(b.0 as usize));
        for st in self.block_steps(b.0 as usize)[i..].iter().rev() {
            self.step_back(st, live);
        }
    }

    /// Is key `k` live before the instruction `skip` places after `at`?
    /// A forward scan of `at`'s block: the first use or definition of `k`
    /// decides, and the block's `live_out` row when neither comes.
    fn live_from(&self, k: InstrId, at: InstrId, skip: usize) -> bool {
        let (b, i) = self.place(at);
        for st in &self.block_steps(b.0 as usize)[i + skip..] {
            if self.uses[st.use_lo as usize..st.use_hi as usize].contains(&k.0) {
                return true;
            }
            if st.def == k.0 {
                return false;
            }
        }
        self.live_out.get(b.0 as usize, k.0)
    }

    /// Is `v` (instruction result or argument) live immediately before `at`?
    /// Arguments with no remaining uses are dead like any other value.
    pub fn value_live_at(&self, v: Value, at: InstrId) -> bool {
        self.key_of(v).is_some_and(|k| self.live_at(k, at))
    }

    /// Non-local-use check for any trackable value.
    pub fn value_has_nonlocal_use(&self, v: Value) -> bool {
        self.key_of(v).is_some_and(|k| self.has_nonlocal_use(k))
    }

    /// Is instruction-defined value `v` live immediately **before** `at`
    /// executes? (This is the paper's "live at I" predicate: the input
    /// values of a recovery kernel must satisfy it.)
    pub fn live_at(&self, v: InstrId, at: InstrId) -> bool {
        self.live_from(v, at, 0)
    }

    /// Is `v` live immediately after `at`?
    pub fn live_after_instr(&self, v: InstrId, at: InstrId) -> bool {
        self.live_from(v, at, 1)
    }

    /// Does `v` have at least one use outside its defining block? Values
    /// with only block-local uses may be folded by instruction selection and
    /// are therefore not safe recovery-kernel parameters (paper §3.2).
    pub fn has_nonlocal_use(&self, v: InstrId) -> bool {
        self.nonlocal.get(v.0 as usize).copied().unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tinyir::builder::ModuleBuilder;
    use tinyir::{Ty, Value};

    /// Build: x = a+b; y = x*2; store y; z = a-b; store z.
    /// At the first store, `x` is dead (already consumed), `a`/`b` inputs
    /// are args (not tracked), and `y` is live.
    #[test]
    fn straight_line_liveness() {
        let mut mb = ModuleBuilder::new("m", "m.c");
        mb.define("f", vec![Ty::I64, Ty::I64, Ty::Ptr], None, |fb| {
            let x = fb.add(fb.arg(0), fb.arg(1), Ty::I64); // v0
            let y = fb.mul(x, Value::i64(2), Ty::I64); // v1
            fb.store_elem(y, fb.arg(2), Value::i64(0), Ty::I64); // v2 gep, v3 store
            let z = fb.sub(fb.arg(0), fb.arg(1), Ty::I64); // v4
            fb.store_elem(z, fb.arg(2), Value::i64(1), Ty::I64); // v5 gep, v6 store
            fb.ret(None);
        });
        let m = mb.finish();
        let f = &m.funcs[0];
        let cfg = Cfg::new(f);
        let lv = Liveness::compute(f, &cfg);
        let (x, y, store1) = (InstrId(0), InstrId(1), InstrId(3));
        assert!(!lv.live_at(x, store1), "x consumed by y already");
        assert!(lv.live_at(y, store1), "y is the stored value");
        assert!(!lv.live_after_instr(y, store1), "y dead after its only use");
    }

    /// The block walk, the per-access row and the single-value scans give
    /// one answer at every (value, instruction) pair.
    #[test]
    fn walks_rows_and_scans_agree() {
        let mut mb = ModuleBuilder::new("m", "m.c");
        mb.define("f", vec![Ty::Ptr, Ty::I64], Some(Ty::I64), |fb| {
            let stride = fb.mul(fb.arg(1), Value::i64(8), Ty::I64);
            fb.for_loop(Value::i64(0), fb.arg(1), |fb, iv| {
                let off = fb.mul(iv, stride, Ty::I64);
                fb.store_elem(Value::f64(1.0), fb.arg(0), off, Ty::F64);
            });
            fb.ret(Some(stride));
        });
        let m = mb.finish();
        let f = &m.funcs[0];
        let lv = Liveness::compute(f, &Cfg::new(f));
        let keys: Vec<InstrId> =
            (0..(f.instrs.len() + f.params.len()) as u32).map(InstrId).collect();
        let mut row = LiveSet::default();
        let mut sets = Default::default();
        let mut visited = 0;
        for (bid, _) in f.block_iter() {
            lv.walk_block(bid, &mut sets, |at, before, after| {
                visited += 1;
                lv.live_before_into(at, &mut row);
                assert_eq!(&row, before);
                for &k in &keys {
                    assert_eq!(before.contains(k), lv.live_at(k, at), "{k} before {at}");
                    assert_eq!(after.contains(k), lv.live_after_instr(k, at), "{k} after {at}");
                }
                let added: Vec<InstrId> = before.minus(after).collect();
                assert!(added.iter().all(|&k| before.contains(k) && !after.contains(k)));
            });
        }
        assert_eq!(visited, f.live_instr_count());
    }

    #[test]
    fn loop_carried_values_live_across_backedge() {
        let mut mb = ModuleBuilder::new("m", "m.c");
        mb.define("f", vec![Ty::Ptr, Ty::I64], None, |fb| {
            // Loop-invariant value computed in the preheader.
            let stride = fb.mul(fb.arg(1), Value::i64(8), Ty::I64); // v0
            fb.for_loop(Value::i64(0), fb.arg(1), |fb, iv| {
                let off = fb.mul(iv, stride, Ty::I64);
                fb.store_elem(Value::f64(1.0), fb.arg(0), off, Ty::F64);
            });
            fb.ret(None);
        });
        let m = mb.finish();
        let f = &m.funcs[0];
        let cfg = Cfg::new(f);
        let lv = Liveness::compute(f, &cfg);
        let stride = InstrId(0);
        // The store inside the loop body:
        let store = f
            .mem_access_instrs()
            .into_iter()
            .find(|&i| matches!(f.instr(i).kind, tinyir::InstrKind::Store { .. }))
            .unwrap();
        assert!(lv.live_at(stride, store), "loop-invariant stride live in body");
        assert!(lv.has_nonlocal_use(stride), "stride used outside its block");
    }

    #[test]
    fn local_only_values_are_not_nonlocal() {
        let mut mb = ModuleBuilder::new("m", "m.c");
        mb.define("f", vec![Ty::I64], Some(Ty::I64), |fb| {
            let t = fb.add(fb.arg(0), Value::i64(1), Ty::I64); // v0: local use only
            let u = fb.mul(t, Value::i64(3), Ty::I64);
            fb.ret(Some(u));
        });
        let m = mb.finish();
        let f = &m.funcs[0];
        let cfg = Cfg::new(f);
        let lv = Liveness::compute(f, &cfg);
        assert!(!lv.has_nonlocal_use(InstrId(0)));
    }

    #[test]
    fn phi_incomings_extend_liveness_to_pred_end() {
        let mut mb = ModuleBuilder::new("m", "m.c");
        mb.define("f", vec![Ty::I64], Some(Ty::I64), |fb| {
            // The loop phi uses its start value from the preheader; the
            // value feeding the phi must be live out of the preheader.
            let init = fb.mul(fb.arg(0), Value::i64(7), Ty::I64); // v0
            let acc = fb.alloca(Ty::I64, 1);
            fb.store(init, acc);
            fb.for_loop(init, fb.arg(0), |fb, iv| {
                let a = fb.load(acc, Ty::I64);
                let s = fb.add(a, iv, Ty::I64);
                fb.store(s, acc);
            });
            let r = fb.load(acc, Ty::I64);
            fb.ret(Some(r));
        });
        let m = mb.finish();
        let f = &m.funcs[0];
        let cfg = Cfg::new(f);
        let lv = Liveness::compute(f, &cfg);
        // init (v0) feeds the phi: it must be live at the preheader store.
        let store = f.mem_access_instrs()[0];
        assert!(lv.live_at(InstrId(0), store));
        assert!(lv.has_nonlocal_use(InstrId(0)));
    }
}
