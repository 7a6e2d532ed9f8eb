//! Control-flow graphs over basic blocks of [`Instr`]s.
//!
//! The CFG is the central object of static WCET analysis (paper §2.1): flow
//! analysis decorates it with loop bounds, low-level analysis computes block
//! costs over it, and IPET turns it into an integer linear program.

use std::fmt;

use crate::isa::{Cond, Instr, Operand, Reg};

/// Identifier of a basic block inside one [`Cfg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(u32);

impl BlockId {
    /// Creates a block id from a raw index.
    ///
    /// Mostly useful in tests; analyses should use ids handed out by
    /// [`CfgBuilder`](crate::builder::CfgBuilder).
    #[must_use]
    pub fn from_index(i: usize) -> BlockId {
        BlockId(u32::try_from(i).expect("block index exceeds u32"))
    }

    /// The raw index of this block in its CFG.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B{}", self.0)
    }
}

/// A directed CFG edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Edge {
    /// Source block.
    pub from: BlockId,
    /// Destination block.
    pub to: BlockId,
}

impl Edge {
    /// Creates the edge `from -> to`.
    #[must_use]
    pub fn new(from: BlockId, to: BlockId) -> Edge {
        Edge { from, to }
    }
}

impl fmt::Display for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}->{}", self.from, self.to)
    }
}

/// Block terminator: how control leaves a basic block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Terminator {
    /// Unconditional jump.
    Jump(BlockId),
    /// Two-way conditional branch on `lhs <cond> rhs`.
    Branch {
        /// Condition code.
        cond: Cond,
        /// Left comparison operand.
        lhs: Reg,
        /// Right comparison operand.
        rhs: Operand,
        /// Successor when the condition holds.
        taken: BlockId,
        /// Successor when the condition does not hold.
        not_taken: BlockId,
    },
    /// Task end.
    Return,
}

impl Terminator {
    /// The successor blocks of this terminator, in `(taken, not_taken)` order
    /// for branches.
    #[must_use]
    pub fn successors(&self) -> Vec<BlockId> {
        match *self {
            Terminator::Jump(t) => vec![t],
            Terminator::Branch {
                taken, not_taken, ..
            } => vec![taken, not_taken],
            Terminator::Return => Vec::new(),
        }
    }
}

impl fmt::Display for Terminator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Terminator::Jump(t) => write!(f, "jmp {t}"),
            Terminator::Branch {
                cond,
                lhs,
                rhs,
                taken,
                not_taken,
            } => {
                write!(f, "b{cond} {lhs}, {rhs} -> {taken} else {not_taken}")
            }
            Terminator::Return => f.write_str("ret"),
        }
    }
}

/// A basic block: straight-line instructions plus one terminator.
///
/// The terminator occupies one instruction slot for code-layout purposes, so
/// a block with `n` instructions covers `n + 1` fetch addresses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasicBlock {
    instrs: Vec<Instr>,
    term: Terminator,
}

impl BasicBlock {
    /// Creates a block from its instructions and terminator.
    #[must_use]
    pub fn new(instrs: Vec<Instr>, term: Terminator) -> BasicBlock {
        BasicBlock { instrs, term }
    }

    /// The block's straight-line instructions (terminator excluded).
    #[must_use]
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// The block terminator.
    #[must_use]
    pub fn terminator(&self) -> &Terminator {
        &self.term
    }

    /// Number of fetch slots: instructions plus the terminator.
    #[must_use]
    pub fn fetch_slots(&self) -> usize {
        self.instrs.len() + 1
    }
}

/// Errors produced by [`Cfg::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CfgError {
    /// The CFG has no blocks.
    Empty,
    /// A terminator names a block that does not exist.
    DanglingTarget {
        /// Offending block.
        block: BlockId,
        /// The non-existent target.
        target: BlockId,
    },
    /// A conditional branch has identical taken/not-taken targets, which
    /// would create an ambiguous duplicate edge.
    DuplicateEdge {
        /// Offending block.
        block: BlockId,
    },
    /// A block is not reachable from the entry.
    Unreachable {
        /// The unreachable block.
        block: BlockId,
    },
    /// No `Return` block is reachable from the entry (the task never ends).
    NoExit,
}

impl fmt::Display for CfgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CfgError::Empty => f.write_str("control-flow graph has no blocks"),
            CfgError::DanglingTarget { block, target } => {
                write!(f, "block {block} targets non-existent block {target}")
            }
            CfgError::DuplicateEdge { block } => {
                write!(
                    f,
                    "branch in block {block} has identical taken/not-taken targets"
                )
            }
            CfgError::Unreachable { block } => {
                write!(f, "block {block} is unreachable from the entry")
            }
            CfgError::NoExit => f.write_str("no return block is reachable from the entry"),
        }
    }
}

impl std::error::Error for CfgError {}

/// A validated control-flow graph.
///
/// Invariants established at construction:
/// * every terminator target exists,
/// * every block is reachable from the entry,
/// * at least one `Return` block exists,
/// * no duplicate edges (a branch's two targets differ).
#[derive(Clone, PartialEq, Eq)]
pub struct Cfg {
    blocks: Vec<BasicBlock>,
    entry: BlockId,
    preds: Vec<Vec<BlockId>>,
    succs: Vec<Vec<BlockId>>,
    exits: Vec<BlockId>,
    /// Reverse postorder, computed once at construction — it used to be
    /// recomputed by every analysis pass (cache fixpoint, dominators,
    /// loop discovery) over the same immutable graph.
    rpo: Vec<BlockId>,
}

/// Manual `Debug`: prints exactly the defining fields. The derived
/// caches (`succs`, `rpo`) are pure functions of `blocks` + `entry`;
/// keeping them out of the rendering keeps `Debug`-based structural
/// fingerprints (`wcet-core`'s memo keys and scenario-cell ids) stable
/// across representation changes.
impl fmt::Debug for Cfg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cfg")
            .field("blocks", &self.blocks)
            .field("entry", &self.entry)
            .field("preds", &self.preds)
            .field("exits", &self.exits)
            .finish()
    }
}

impl Cfg {
    /// Builds and validates a CFG.
    ///
    /// # Errors
    ///
    /// Returns a [`CfgError`] if any invariant listed on [`Cfg`] fails.
    pub fn new(blocks: Vec<BasicBlock>, entry: BlockId) -> Result<Cfg, CfgError> {
        if blocks.is_empty() {
            return Err(CfgError::Empty);
        }
        let n = blocks.len();
        let check = |b: BlockId, t: BlockId| -> Result<(), CfgError> {
            if t.index() >= n {
                Err(CfgError::DanglingTarget {
                    block: b,
                    target: t,
                })
            } else {
                Ok(())
            }
        };
        if entry.index() >= n {
            return Err(CfgError::DanglingTarget {
                block: entry,
                target: entry,
            });
        }
        for (i, blk) in blocks.iter().enumerate() {
            let id = BlockId::from_index(i);
            match *blk.terminator() {
                Terminator::Jump(t) => check(id, t)?,
                Terminator::Branch {
                    taken, not_taken, ..
                } => {
                    check(id, taken)?;
                    check(id, not_taken)?;
                    if taken == not_taken {
                        return Err(CfgError::DuplicateEdge { block: id });
                    }
                }
                Terminator::Return => {}
            }
        }
        // Reachability from entry.
        let mut seen = vec![false; n];
        let mut stack = vec![entry];
        seen[entry.index()] = true;
        while let Some(b) = stack.pop() {
            for s in blocks[b.index()].terminator().successors() {
                if !seen[s.index()] {
                    seen[s.index()] = true;
                    stack.push(s);
                }
            }
        }
        if let Some(i) = seen.iter().position(|&s| !s) {
            return Err(CfgError::Unreachable {
                block: BlockId::from_index(i),
            });
        }
        let exits: Vec<BlockId> = blocks
            .iter()
            .enumerate()
            .filter(|(_, b)| matches!(b.terminator(), Terminator::Return))
            .map(|(i, _)| BlockId::from_index(i))
            .collect();
        if exits.is_empty() {
            return Err(CfgError::NoExit);
        }
        let mut preds = vec![Vec::new(); n];
        let mut succs = vec![Vec::new(); n];
        for (i, blk) in blocks.iter().enumerate() {
            for s in blk.terminator().successors() {
                preds[s.index()].push(BlockId::from_index(i));
                succs[i].push(s);
            }
        }
        let rpo = compute_rpo(&succs, entry);
        Ok(Cfg {
            blocks,
            entry,
            preds,
            succs,
            exits,
            rpo,
        })
    }

    /// The entry block.
    #[must_use]
    pub fn entry(&self) -> BlockId {
        self.entry
    }

    /// All `Return` blocks.
    #[must_use]
    pub fn exits(&self) -> &[BlockId] {
        &self.exits
    }

    /// Number of blocks.
    #[must_use]
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// The block with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this CFG.
    #[must_use]
    pub fn block(&self, id: BlockId) -> &BasicBlock {
        &self.blocks[id.index()]
    }

    /// Iterator over `(BlockId, &BasicBlock)` in index order.
    pub fn iter(&self) -> impl Iterator<Item = (BlockId, &BasicBlock)> {
        self.blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (BlockId::from_index(i), b))
    }

    /// All block ids in index order.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> + '_ {
        (0..self.blocks.len()).map(BlockId::from_index)
    }

    /// Successor blocks of `id`.
    #[must_use]
    pub fn successors(&self, id: BlockId) -> &[BlockId] {
        &self.succs[id.index()]
    }

    /// Predecessor blocks of `id`.
    #[must_use]
    pub fn predecessors(&self, id: BlockId) -> &[BlockId] {
        &self.preds[id.index()]
    }

    /// All edges, in source-block order.
    #[must_use]
    pub fn edges(&self) -> Vec<Edge> {
        let mut out = Vec::new();
        for (i, blk) in self.blocks.iter().enumerate() {
            let from = BlockId::from_index(i);
            for to in blk.terminator().successors() {
                out.push(Edge::new(from, to));
            }
        }
        out
    }

    /// Blocks in reverse postorder of a depth-first search from the entry,
    /// computed once at construction.
    ///
    /// Reverse postorder visits every block before any of its successors,
    /// back edges aside, which makes data-flow fixpoints converge quickly.
    #[must_use]
    pub fn reverse_postorder(&self) -> &[BlockId] {
        &self.rpo
    }

    /// Immediate dominators, indexed by block. The entry's immediate
    /// dominator is itself.
    ///
    /// Computed as the textbook dominator dataflow —
    /// `Dom(b) = {b} ∪ ⋂ Dom(pred)`, greatest fixpoint over bitsets — on
    /// the reverse-postorder priority worklist
    /// ([`crate::fixpoint::Worklist`]): only blocks whose predecessors'
    /// dominator sets changed are re-evaluated. The block transfer reads
    /// *direct predecessors only*, which is exactly the locality the
    /// worklist's re-evaluate-on-change contract requires (the former
    /// Cooper–Harvey–Kennedy sweep walks idom *chains*, whose hidden
    /// non-local reads a changed-input worklist cannot track; it is
    /// preserved as [`Cfg::immediate_dominators_sweep`], the reference
    /// twin of the differential tests). Dominator trees are unique, so
    /// both produce identical results.
    #[must_use]
    pub fn immediate_dominators(&self) -> Vec<BlockId> {
        let n = self.blocks.len();
        let words = n.div_ceil(64);
        let entry = self.entry.index();
        let mut full = vec![u64::MAX; words];
        if !n.is_multiple_of(64) {
            full[words - 1] = (1u64 << (n % 64)) - 1;
        }
        // Greatest fixpoint: start every non-entry block at ⊤ (all blocks).
        let mut dom: Vec<Vec<u64>> = vec![full; n];
        dom[entry].fill(0);
        dom[entry][entry / 64] = 1u64 << (entry % 64);

        let mut wl = crate::fixpoint::Worklist::rpo(self);
        for &b in self.reverse_postorder().iter().skip(1) {
            wl.push(b);
        }
        let mut new = vec![0u64; words];
        while let Some(b) = wl.pop() {
            if b.index() == entry {
                continue; // the entry's set is an axiom, not an equation
            }
            crate::words::copy_into(&mut new, &dom[self.predecessors(b)[0].index()]);
            for &p in &self.predecessors(b)[1..] {
                crate::words::and_into(&mut new, &dom[p.index()]);
            }
            new[b.index() / 64] |= 1u64 << (b.index() % 64);
            if !crate::words::words_eq(&new, &dom[b.index()]) {
                crate::words::copy_into(&mut dom[b.index()], &new);
                for &s in self.successors(b) {
                    wl.push(s);
                }
            }
        }

        // Dominators of a block form a chain; the immediate dominator is
        // the deepest strict one — the chain member with the largest set.
        let sizes: Vec<u32> = dom
            .iter()
            .map(|set| set.iter().map(|w| w.count_ones()).sum())
            .collect();
        (0..n)
            .map(|b| {
                if b == entry {
                    return self.entry;
                }
                let mut best: Option<usize> = None;
                for (w, &word) in dom[b].iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        let d = w * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        if d != b && best.is_none_or(|cur| sizes[d] > sizes[cur]) {
                            best = Some(d);
                        }
                    }
                }
                BlockId::from_index(best.expect("non-entry block has a strict dominator"))
            })
            .collect()
    }

    /// The pre-worklist immediate-dominator computation: the
    /// Cooper–Harvey–Kennedy chain-intersection iterated in full
    /// reverse-postorder sweeps until stable. Kept verbatim as the
    /// reference twin for the differential property tests (dominator
    /// trees are unique, so [`Cfg::immediate_dominators`] must match it
    /// exactly).
    #[must_use]
    pub fn immediate_dominators_sweep(&self) -> Vec<BlockId> {
        let rpo = self.reverse_postorder();
        let n = self.blocks.len();
        let mut rpo_pos = vec![usize::MAX; n];
        for (pos, &b) in rpo.iter().enumerate() {
            rpo_pos[b.index()] = pos;
        }
        let mut idom: Vec<Option<BlockId>> = vec![None; n];
        idom[self.entry.index()] = Some(self.entry);
        let intersect = |idom: &[Option<BlockId>], mut a: BlockId, mut b: BlockId| -> BlockId {
            while a != b {
                while rpo_pos[a.index()] > rpo_pos[b.index()] {
                    a = idom[a.index()].expect("processed block must have idom");
                }
                while rpo_pos[b.index()] > rpo_pos[a.index()] {
                    b = idom[b.index()].expect("processed block must have idom");
                }
            }
            a
        };
        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let mut new_idom: Option<BlockId> = None;
                for &p in self.predecessors(b) {
                    if idom[p.index()].is_some() {
                        new_idom = Some(match new_idom {
                            None => p,
                            Some(cur) => intersect(&idom, cur, p),
                        });
                    }
                }
                let new_idom = new_idom.expect("reachable block must have processed pred");
                if idom[b.index()] != Some(new_idom) {
                    idom[b.index()] = Some(new_idom);
                    changed = true;
                }
            }
        }
        idom.into_iter()
            .map(|d| d.expect("all blocks reachable"))
            .collect()
    }

    /// True if `a` dominates `b` (reflexive).
    #[must_use]
    pub fn dominates(&self, idom: &[BlockId], a: BlockId, b: BlockId) -> bool {
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            let d = idom[cur.index()];
            if d == cur {
                return cur == a;
            }
            cur = d;
        }
    }

    /// The back edges of the CFG: edges `s -> h` where `h` dominates `s`.
    ///
    /// For reducible CFGs (the only kind the loop analysis accepts) these are
    /// exactly the loop-closing edges.
    #[must_use]
    pub fn back_edges(&self) -> Vec<Edge> {
        let idom = self.immediate_dominators();
        self.edges()
            .into_iter()
            .filter(|e| self.dominates(&idom, e.to, e.from))
            .collect()
    }
}

/// Reverse postorder of a depth-first search over `succs` from `entry`
/// (construction-time helper; every block is reachable by validation).
fn compute_rpo(succs: &[Vec<BlockId>], entry: BlockId) -> Vec<BlockId> {
    let n = succs.len();
    let mut visited = vec![false; n];
    let mut postorder = Vec::with_capacity(n);
    // Iterative DFS with an explicit "next successor" cursor per frame so
    // we can record postorder without recursion.
    let mut stack: Vec<(BlockId, usize)> = vec![(entry, 0)];
    visited[entry.index()] = true;
    while let Some(&(b, next)) = stack.last() {
        let ss = &succs[b.index()];
        if next < ss.len() {
            stack.last_mut().expect("stack non-empty").1 += 1;
            let s = ss[next];
            if !visited[s.index()] {
                visited[s.index()] = true;
                stack.push((s, 0));
            }
        } else {
            postorder.push(b);
            stack.pop();
        }
    }
    postorder.reverse();
    postorder
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::r;

    fn diamond() -> Cfg {
        // B0 -> B1 / B2 -> B3(ret)
        let b0 = BasicBlock::new(
            vec![Instr::LoadImm { dst: r(0), imm: 1 }],
            Terminator::Branch {
                cond: Cond::Eq,
                lhs: r(0),
                rhs: Operand::Imm(0),
                taken: BlockId::from_index(1),
                not_taken: BlockId::from_index(2),
            },
        );
        let b1 = BasicBlock::new(vec![Instr::Nop], Terminator::Jump(BlockId::from_index(3)));
        let b2 = BasicBlock::new(vec![Instr::Nop], Terminator::Jump(BlockId::from_index(3)));
        let b3 = BasicBlock::new(vec![], Terminator::Return);
        Cfg::new(vec![b0, b1, b2, b3], BlockId::from_index(0)).expect("valid diamond")
    }

    #[test]
    fn diamond_structure() {
        let cfg = diamond();
        assert_eq!(cfg.num_blocks(), 4);
        assert_eq!(cfg.successors(BlockId::from_index(0)).len(), 2);
        assert_eq!(cfg.predecessors(BlockId::from_index(3)).len(), 2);
        assert_eq!(cfg.exits(), &[BlockId::from_index(3)]);
        assert_eq!(cfg.edges().len(), 4);
        assert!(cfg.back_edges().is_empty());
    }

    #[test]
    fn rpo_visits_before_successors() {
        let cfg = diamond();
        let rpo = cfg.reverse_postorder();
        assert_eq!(rpo.len(), 4);
        assert_eq!(rpo[0], cfg.entry());
        let pos = |b: BlockId| rpo.iter().position(|&x| x == b).expect("all blocks in rpo");
        assert!(pos(BlockId::from_index(0)) < pos(BlockId::from_index(1)));
        assert!(pos(BlockId::from_index(1)) < pos(BlockId::from_index(3)));
        assert!(pos(BlockId::from_index(2)) < pos(BlockId::from_index(3)));
    }

    #[test]
    fn dominators_of_diamond() {
        let cfg = diamond();
        let idom = cfg.immediate_dominators();
        let b = BlockId::from_index;
        assert_eq!(idom[0], b(0));
        assert_eq!(idom[1], b(0));
        assert_eq!(idom[2], b(0));
        assert_eq!(idom[3], b(0));
        assert!(cfg.dominates(&idom, b(0), b(3)));
        assert!(!cfg.dominates(&idom, b(1), b(3)));
    }

    #[test]
    fn loop_back_edge_detected() {
        // B0 -> B1 <-> B2? No: B0 -> B1 -> B2 -> B1, B1 -> B3(ret)
        let b0 = BasicBlock::new(vec![], Terminator::Jump(BlockId::from_index(1)));
        let b1 = BasicBlock::new(
            vec![],
            Terminator::Branch {
                cond: Cond::Lt,
                lhs: r(1),
                rhs: Operand::Imm(4),
                taken: BlockId::from_index(2),
                not_taken: BlockId::from_index(3),
            },
        );
        let b2 = BasicBlock::new(vec![Instr::Nop], Terminator::Jump(BlockId::from_index(1)));
        let b3 = BasicBlock::new(vec![], Terminator::Return);
        let cfg = Cfg::new(vec![b0, b1, b2, b3], BlockId::from_index(0)).expect("valid loop");
        let back = cfg.back_edges();
        assert_eq!(
            back,
            vec![Edge::new(BlockId::from_index(2), BlockId::from_index(1))]
        );
    }

    #[test]
    fn rejects_unreachable_block() {
        let b0 = BasicBlock::new(vec![], Terminator::Return);
        let b1 = BasicBlock::new(vec![], Terminator::Return);
        let err = Cfg::new(vec![b0, b1], BlockId::from_index(0)).unwrap_err();
        assert_eq!(
            err,
            CfgError::Unreachable {
                block: BlockId::from_index(1)
            }
        );
    }

    #[test]
    fn rejects_dangling_target() {
        let b0 = BasicBlock::new(vec![], Terminator::Jump(BlockId::from_index(7)));
        let err = Cfg::new(vec![b0], BlockId::from_index(0)).unwrap_err();
        assert!(matches!(err, CfgError::DanglingTarget { .. }));
    }

    #[test]
    fn rejects_duplicate_branch_targets() {
        let b0 = BasicBlock::new(
            vec![],
            Terminator::Branch {
                cond: Cond::Eq,
                lhs: r(0),
                rhs: Operand::Imm(0),
                taken: BlockId::from_index(1),
                not_taken: BlockId::from_index(1),
            },
        );
        let b1 = BasicBlock::new(vec![], Terminator::Return);
        let err = Cfg::new(vec![b0, b1], BlockId::from_index(0)).unwrap_err();
        assert!(matches!(err, CfgError::DuplicateEdge { .. }));
    }

    #[test]
    fn rejects_no_exit() {
        let b0 = BasicBlock::new(vec![], Terminator::Jump(BlockId::from_index(0)));
        let err = Cfg::new(vec![b0], BlockId::from_index(0)).unwrap_err();
        assert_eq!(err, CfgError::NoExit);
    }
}
