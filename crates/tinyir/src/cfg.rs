//! Control-flow graph utilities: successor/predecessor maps and orderings.

use crate::{BlockId, Function};
use std::ops::Index;

/// One neighbour list per block, stored flat: block `b`'s neighbours are
/// `list[start[b]..start[b + 1]]`. Index it by block number.
#[derive(Debug, Clone)]
pub struct Adjacency {
    start: Vec<u32>,
    list: Vec<BlockId>,
}

impl Adjacency {
    /// Group `edges` (key, neighbour) into one list per key among `n`
    /// blocks, each list in `edges`' order (a counting sort).
    pub(crate) fn group(n: usize, edges: impl Iterator<Item = (BlockId, BlockId)> + Clone) -> Self {
        let mut start = vec![0u32; n + 1];
        for (k, _) in edges.clone() {
            start[k.0 as usize + 1] += 1;
        }
        for b in 1..=n {
            start[b] += start[b - 1];
        }
        let mut next = start.clone();
        let mut list = vec![BlockId(0); start[n] as usize];
        for (k, v) in edges {
            list[next[k.0 as usize] as usize] = v;
            next[k.0 as usize] += 1;
        }
        Adjacency { start, list }
    }

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
    /// Predecessors of each block (index = block id), in ascending block
    /// order; a block branching twice to the same successor is listed twice.
    pub preds: Adjacency,
    /// Reverse postorder over reachable blocks, starting at entry.
    pub rpo: Vec<BlockId>,
    /// `true` for blocks reachable from the entry.
    pub reachable: Vec<bool>,
}

impl Cfg {
    /// Build the CFG of `f`. Every successor must be a block of `f`.
    pub fn new(f: &Function) -> Cfg {
        let n = f.blocks.len();
        let mut succ_start = Vec::with_capacity(n + 1);
        let mut succ_list = Vec::with_capacity(2 * n);
        succ_start.push(0);
        for block in &f.blocks {
            if let Some(&last) = block.instrs.last() {
                f.instr(last).for_each_successor(|s| succ_list.push(s));
            }
            succ_start.push(succ_list.len() as u32);
        }
        let succs = Adjacency { start: succ_start, list: succ_list };
        let edges = (0..n).flat_map(|b| succs[b].iter().map(move |&s| (s, BlockId(b as u32))));
        let preds = Adjacency::group(n, edges);

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
    use crate::dom::tests::cfg_function;

    fn diamond() -> Function {
        cfg_function(&[vec![1, 2], vec![3], vec![3], vec![]])
    }

    #[test]
    fn diamond_shape() {
        let cfg = Cfg::new(&diamond());
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
        let idx = Cfg::new(&diamond()).rpo_index();
        // Entry before branches, branches before join.
        assert!(idx[0] < idx[1] && idx[0] < idx[2]);
        assert!(idx[1] < idx[3] && idx[2] < idx[3]);
    }

    #[test]
    fn unreachable_blocks_flagged() {
        let cfg = Cfg::new(&cfg_function(&[vec![], vec![]]));
        assert!(cfg.reachable[0]);
        assert!(!cfg.reachable[1]);
        assert_eq!(cfg.rpo.len(), 1);
    }
}
