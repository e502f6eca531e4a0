//! Control-flow graph utilities: successor/predecessor maps and orderings.

use std::ops::Index;
use tinyir::{BlockId, Function};

/// One neighbour list per block, stored flat: block `b`'s neighbours are
/// `list[start[b]..start[b + 1]]`. Index it by block number.
#[derive(Debug, Clone)]
pub struct Adjacency {
    start: Vec<u32>,
    list: Vec<BlockId>,
}

impl Adjacency {
    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.start.len() - 1
    }

    /// True when there are no blocks.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Index<usize> for Adjacency {
    type Output = [BlockId];

    fn index(&self, b: usize) -> &[BlockId] {
        &self.list[self.start[b] as usize..self.start[b + 1] as usize]
    }
}

/// Predecessor/successor maps and traversal orders for one function.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Successors of each block (index = block id).
    pub succs: Adjacency,
    /// Predecessors of each block (index = block id).
    pub preds: Adjacency,
    /// Reverse postorder over reachable blocks, starting at entry.
    pub rpo: Vec<BlockId>,
    /// `true` for blocks reachable from the entry.
    pub reachable: Vec<bool>,
}

impl Cfg {
    /// Build the CFG of `f`.
    pub fn new(f: &Function) -> Cfg {
        let n = f.blocks.len();
        // Successors in block order; predecessors counted, then filled in
        // the same order.
        let mut succ_start = Vec::with_capacity(n + 1);
        let mut succ_list = Vec::with_capacity(2 * n);
        let mut pred_start = vec![0u32; n + 1];
        succ_start.push(0);
        for block in &f.blocks {
            if let Some(&last) = block.instrs.last() {
                f.instr(last).for_each_successor(|s| {
                    succ_list.push(s);
                    pred_start[s.0 as usize + 1] += 1;
                });
            }
            succ_start.push(succ_list.len() as u32);
        }
        for b in 1..=n {
            pred_start[b] += pred_start[b - 1];
        }
        let mut next = pred_start.clone();
        let mut pred_list = vec![BlockId(0); succ_list.len()];
        for b in 0..n {
            for &s in &succ_list[succ_start[b] as usize..succ_start[b + 1] as usize] {
                pred_list[next[s.0 as usize] as usize] = BlockId(b as u32);
                next[s.0 as usize] += 1;
            }
        }
        let succs = Adjacency { start: succ_start, list: succ_list };
        let preds = Adjacency { start: pred_start, list: pred_list };

        // Postorder DFS from entry.
        let mut visited = vec![false; n];
        let mut post = Vec::with_capacity(n);
        let mut stack: Vec<(BlockId, usize)> = vec![(f.entry(), 0)];
        visited[f.entry().0 as usize] = true;
        while let Some(&mut (b, ref mut i)) = stack.last_mut() {
            if *i < succs[b.0 as usize].len() {
                let s = succs[b.0 as usize][*i];
                *i += 1;
                if !visited[s.0 as usize] {
                    visited[s.0 as usize] = true;
                    stack.push((s, 0));
                }
            } else {
                post.push(b);
                stack.pop();
            }
        }
        post.reverse();
        Cfg { succs, preds, rpo: post, reachable: visited }
    }

    /// Number of blocks (including unreachable ones).
    pub fn len(&self) -> usize {
        self.succs.len()
    }

    /// True when the function has no blocks.
    pub fn is_empty(&self) -> bool {
        self.succs.is_empty()
    }

    /// Position of each block in the reverse postorder (`usize::MAX` for
    /// unreachable blocks).
    pub fn rpo_index(&self) -> Vec<usize> {
        let mut idx = vec![usize::MAX; self.len()];
        for (i, b) in self.rpo.iter().enumerate() {
            idx[b.0 as usize] = i;
        }
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tinyir::builder::ModuleBuilder;
    use tinyir::{Ty, Value};

    fn diamond() -> tinyir::Module {
        let mut mb = ModuleBuilder::new("m", "m.c");
        mb.define("d", vec![Ty::I64], Some(Ty::I64), |fb| {
            let out = fb.alloca(Ty::I64, 1);
            let c = fb.icmp(tinyir::ICmp::Slt, fb.arg(0), Value::i64(0));
            fb.if_then_else(
                c,
                |fb| fb.store(Value::i64(-1), out),
                |fb| fb.store(Value::i64(1), out),
            );
            let r = fb.load(out, Ty::I64);
            fb.ret(Some(r));
        });
        mb.finish()
    }

    #[test]
    fn diamond_shape() {
        let m = diamond();
        let cfg = Cfg::new(&m.funcs[0]);
        assert_eq!(cfg.len(), 4);
        // Entry has two successors, join has two predecessors.
        assert_eq!(cfg.succs[0].len(), 2);
        assert_eq!(cfg.preds[3].len(), 2);
        // RPO starts at the entry and covers all 4 blocks.
        assert_eq!(cfg.rpo[0], BlockId(0));
        assert_eq!(cfg.rpo.len(), 4);
        assert!(cfg.reachable.iter().all(|&r| r));
    }

    #[test]
    fn rpo_respects_topological_order_for_dags() {
        let m = diamond();
        let cfg = Cfg::new(&m.funcs[0]);
        let idx = cfg.rpo_index();
        // Entry before branches, branches before join.
        assert!(idx[0] < idx[1] && idx[0] < idx[2]);
        assert!(idx[1] < idx[3] && idx[2] < idx[3]);
    }

    #[test]
    fn unreachable_blocks_flagged() {
        let mut mb = ModuleBuilder::new("m", "m.c");
        mb.define("u", vec![], None, |fb| {
            fb.ret(None);
            let dead = fb.new_block("dead");
            fb.switch_to(dead);
            fb.ret(None);
        });
        let m = mb.finish();
        let cfg = Cfg::new(&m.funcs[0]);
        assert!(cfg.reachable[0]);
        assert!(!cfg.reachable[1]);
        assert_eq!(cfg.rpo.len(), 1);
    }
}
