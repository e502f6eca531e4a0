//! Dominator tree via the Cooper–Harvey–Kennedy iterative algorithm.

use crate::cfg::{Adjacency, Cfg};
use crate::BlockId;

/// Immediate-dominator tree for one function's CFG.
#[derive(Debug, Clone)]
pub struct DomTree {
    /// `idom[b]` = immediate dominator of block `b` (`None` for the entry
    /// and for unreachable blocks).
    pub idom: Vec<Option<BlockId>>,
    /// Children of each block in the tree, in ascending block order.
    pub children: Adjacency,
    /// Pre-order number of each block in the tree (`u32::MAX` when
    /// unreachable) and the largest number in its subtree, so a block's
    /// subtree is the interval `pre[b]..=last[b]`.
    pre: Vec<u32>,
    last: Vec<u32>,
}

impl DomTree {
    /// Compute the dominator tree over `cfg`.
    pub fn new(cfg: &Cfg) -> DomTree {
        let n = cfg.len();
        let rpo_idx = cfg.rpo_index();
        let mut idom: Vec<Option<BlockId>> = vec![None; n];
        let mut pre = vec![u32::MAX; n];
        let mut last = vec![0u32; n];
        let Some(&entry) = cfg.rpo.first() else {
            let children = Adjacency::group(0, std::iter::empty());
            return DomTree { idom, children, pre, last };
        };
        idom[entry.0 as usize] = Some(entry);

        let intersect = |idom: &[Option<BlockId>], mut a: BlockId, mut b: BlockId| -> BlockId {
            while a != b {
                while rpo_idx[a.0 as usize] > rpo_idx[b.0 as usize] {
                    a = idom[a.0 as usize].expect("processed");
                }
                while rpo_idx[b.0 as usize] > rpo_idx[a.0 as usize] {
                    b = idom[b.0 as usize].expect("processed");
                }
            }
            a
        };

        let mut changed = true;
        while changed {
            changed = false;
            for &b in cfg.rpo.iter().skip(1) {
                let mut new_idom: Option<BlockId> = None;
                for &p in &cfg.preds[b.0 as usize] {
                    if idom[p.0 as usize].is_none() {
                        continue;
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, cur, p),
                    });
                }
                if let Some(ni) = new_idom {
                    if idom[b.0 as usize] != Some(ni) {
                        idom[b.0 as usize] = Some(ni);
                        changed = true;
                    }
                }
            }
        }
        // Entry's self-idom becomes None for the public API.
        idom[entry.0 as usize] = None;

        let edges = (0..n).filter_map(|b| idom[b].map(|d| (d, BlockId(b as u32))));
        let children = Adjacency::group(n, edges);
        // A dominator precedes the blocks it dominates in reverse
        // postorder: subtree sizes accumulate backwards along it, and
        // pre-order numbers are handed out forwards.
        let mut size = vec![1u32; n];
        for &b in cfg.rpo.iter().rev() {
            if let Some(d) = idom[b.0 as usize] {
                size[d.0 as usize] += size[b.0 as usize];
            }
        }
        pre[entry.0 as usize] = 0;
        for &b in &cfg.rpo {
            let mut next = pre[b.0 as usize] + 1;
            for &c in &children[b.0 as usize] {
                pre[c.0 as usize] = next;
                next += size[c.0 as usize];
            }
            last[b.0 as usize] = pre[b.0 as usize] + size[b.0 as usize] - 1;
        }
        DomTree { idom, children, pre, last }
    }

    /// True if `a` dominates `b` (reflexive). An unreachable block
    /// dominates nothing and is dominated by nothing.
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        let (a, b) = (a.0 as usize, b.0 as usize);
        self.pre[a] <= self.pre[b] && self.pre[b] <= self.last[a]
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::instr::{Instr, InstrKind};
    use crate::{Function, Ty, Value};
    use proptest::prelude::*;

    /// A function of `succs.len()` blocks whose block `b` branches to
    /// `succs[b]`: nowhere (`ret`), one block, or two (possibly equal).
    pub(crate) fn cfg_function(succs: &[Vec<usize>]) -> Function {
        let bb = |b: usize| BlockId(b as u32);
        let mut f = Function::new("f", vec![Ty::I1], None);
        for (b, ss) in succs.iter().enumerate() {
            let kind = match ss[..] {
                [] => InstrKind::Ret { val: None },
                [t] => InstrKind::Br { target: bb(t) },
                [t, e, ..] => {
                    InstrKind::CondBr { cond: Value::Arg(0), then_bb: bb(t), else_bb: bb(e) }
                }
            };
            if b > 0 {
                f.add_block(format!("b{b}"));
            }
            f.push_instr(bb(b), Instr::new(kind));
        }
        f
    }

    /// Random successor lists over 1–12 blocks: self-loops, duplicate
    /// edges, edges back to the entry and unreachable blocks all occur.
    pub(crate) fn random_succs() -> impl Strategy<Value = Vec<Vec<usize>>> {
        proptest::collection::vec(proptest::collection::vec(0usize..64, 0..3), 1..13).prop_map(
            |raw| {
                let n = raw.len();
                raw.into_iter().map(|ss| ss.into_iter().map(|s| s % n).collect()).collect()
            },
        )
    }

    /// `dom[a][b]` by the definition of dominance: both blocks are
    /// reachable from the entry, and deleting `a` cuts `b` off from it.
    pub(crate) fn brute_dominance(succs: &[Vec<usize>]) -> Vec<Vec<bool>> {
        let reachable_without = |cut: usize| {
            let mut seen = vec![false; succs.len()];
            let mut work = vec![0];
            while let Some(b) = work.pop() {
                if b != cut && !seen[b] {
                    seen[b] = true;
                    work.extend(&succs[b]);
                }
            }
            seen
        };
        let reach = reachable_without(usize::MAX);
        let cut: Vec<Vec<bool>> = (0..succs.len()).map(reachable_without).collect();
        let n = succs.len();
        (0..n)
            .map(|a| (0..n).map(|b| reach[a] && reach[b] && (a == b || !cut[a][b])).collect())
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        /// Dominance is its definition, `idom(b)` is the strict dominator
        /// of `b` that every other strict dominator of `b` dominates, and
        /// each block's children are the blocks it is `idom` of, ascending.
        #[test]
        fn dominance_matches_its_definition(succs in random_succs()) {
            let n = succs.len();
            let dt = DomTree::new(&Cfg::new(&cfg_function(&succs)));
            let dom = brute_dominance(&succs);
            for (a, row) in dom.iter().enumerate() {
                for (b, &want) in row.iter().enumerate() {
                    let (ba, bb) = (BlockId(a as u32), BlockId(b as u32));
                    prop_assert_eq!(dt.dominates(ba, bb), want, "dominates(bb{}, bb{}) in {:?}", a, b, succs);
                }
            }
            for b in 0..n {
                let strict: Vec<usize> = (0..n).filter(|&a| a != b && dom[a][b]).collect();
                let want = strict.iter().copied().find(|&d| strict.iter().all(|&o| dom[o][d]));
                prop_assert_eq!(dt.idom[b].map(|d| d.0 as usize), want, "idom(bb{}) in {:?}", b, succs);
                let children: Vec<BlockId> =
                    (0..n as u32).map(BlockId).filter(|c| dt.idom[c.0 as usize] == Some(BlockId(b as u32))).collect();
                prop_assert_eq!(&dt.children[b], &children[..], "children of bb{} in {:?}", b, succs);
            }
        }
    }
}
