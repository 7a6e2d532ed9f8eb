//! Flow facts: loop bounds and infeasible-path constraints.
//!
//! These are the results of the paper's "flow analysis" step (§2.1). In a
//! production tool they come from source analysis \[10, 15, 21\]; here the
//! workload generator emits them alongside the code, and the reference
//! interpreter can check them (`tests` + `interp`).

use std::collections::BTreeMap;
use std::fmt;

use crate::cfg::{BlockId, Cfg, Edge};
use crate::loops::LoopForest;

/// Maximum number of back-edge traversals per entry of a loop.
///
/// A counted loop whose body runs `n` times per entry has bound `n`: its
/// header executes `n + 1` times, its back edge is taken `n` times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LoopBound(pub u64);

impl fmt::Display for LoopBound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "≤{}", self.0)
    }
}

/// A pair of edges that can never both be taken in one execution
/// (mutually-exclusive paths); IPET adds `f(a) + f(b) <= max(count)` style
/// exclusion constraints for them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InfeasiblePair {
    /// First edge.
    pub a: Edge,
    /// Second edge.
    pub b: Edge,
}

/// Flow facts attached to a CFG.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlowFacts {
    bounds: BTreeMap<BlockId, LoopBound>,
    /// Minimum back-edge traversals per entry (0 if unknown): the BCET
    /// side of the flow facts. Counted loops have `min == max`.
    min_bounds: BTreeMap<BlockId, u64>,
    infeasible: Vec<InfeasiblePair>,
}

/// Errors from [`FlowFacts::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlowError {
    /// A loop header carries no bound.
    MissingBound {
        /// The unbounded loop's header.
        header: BlockId,
    },
    /// A bound refers to a block that is not a loop header.
    NotAHeader {
        /// The offending block.
        block: BlockId,
    },
    /// An infeasible pair names an edge that does not exist.
    UnknownEdge {
        /// The offending edge.
        edge: Edge,
    },
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::MissingBound { header } => {
                write!(f, "loop headed by {header} has no bound")
            }
            FlowError::NotAHeader { block } => {
                write!(f, "bound attached to {block}, which heads no loop")
            }
            FlowError::UnknownEdge { edge } => {
                write!(f, "infeasible-pair constraint names unknown edge {edge}")
            }
        }
    }
}

impl std::error::Error for FlowError {}

impl FlowFacts {
    /// Creates empty flow facts (valid only for loop-free CFGs).
    #[must_use]
    pub fn new() -> FlowFacts {
        FlowFacts::default()
    }

    /// Sets the bound for the loop headed by `header`, replacing any
    /// previous bound.
    pub fn set_bound(&mut self, header: BlockId, bound: LoopBound) -> &mut Self {
        self.bounds.insert(header, bound);
        self
    }

    /// Declares that the loop headed by `header` iterates *exactly*
    /// `iters` times per entry (a counted loop): sets both the upper and
    /// the lower bound. The lower bound feeds BCET analysis.
    pub fn set_exact_bound(&mut self, header: BlockId, iters: u64) -> &mut Self {
        self.bounds.insert(header, LoopBound(iters));
        self.min_bounds.insert(header, iters);
        self
    }

    /// The minimum back-edge traversals per entry of the loop headed by
    /// `header` (0 when unknown — always sound for a lower bound).
    #[must_use]
    pub fn min_bound(&self, header: BlockId) -> u64 {
        self.min_bounds.get(&header).copied().unwrap_or(0)
    }

    /// Declares two edges mutually exclusive within a single execution.
    pub fn add_infeasible_pair(&mut self, a: Edge, b: Edge) -> &mut Self {
        self.infeasible.push(InfeasiblePair { a, b });
        self
    }

    /// The bound of the loop headed by `header`, if declared.
    #[must_use]
    pub fn bound(&self, header: BlockId) -> Option<LoopBound> {
        self.bounds.get(&header).copied()
    }

    /// All declared bounds.
    #[must_use]
    pub fn bounds(&self) -> &BTreeMap<BlockId, LoopBound> {
        &self.bounds
    }

    /// All infeasible pairs.
    #[must_use]
    pub fn infeasible_pairs(&self) -> &[InfeasiblePair] {
        &self.infeasible
    }

    /// Checks the facts against a CFG and its loop forest.
    ///
    /// # Errors
    ///
    /// * [`FlowError::MissingBound`] if a loop has no bound — WCET would be
    ///   unbounded;
    /// * [`FlowError::NotAHeader`] if a bound names a non-header;
    /// * [`FlowError::UnknownEdge`] if an infeasible pair names an edge the
    ///   CFG does not contain.
    pub fn validate(&self, cfg: &Cfg, loops: &LoopForest) -> Result<(), FlowError> {
        for l in loops.loops() {
            if !self.bounds.contains_key(&l.header) {
                return Err(FlowError::MissingBound { header: l.header });
            }
        }
        for &h in self.bounds.keys() {
            if loops.headed_by(h).is_none() {
                return Err(FlowError::NotAHeader { block: h });
            }
        }
        for (&h, &min) in &self.min_bounds {
            match self.bounds.get(&h) {
                Some(b) if min <= b.0 => {}
                _ => return Err(FlowError::NotAHeader { block: h }),
            }
        }
        let edges: std::collections::BTreeSet<Edge> = cfg.edges().into_iter().collect();
        for p in &self.infeasible {
            for e in [p.a, p.b] {
                if !edges.contains(&e) {
                    return Err(FlowError::UnknownEdge { edge: e });
                }
            }
        }
        Ok(())
    }

    /// Worst-case execution count of a block: the product of the bounds of
    /// all enclosing loops (1 outside any loop).
    ///
    /// Used by the single-usage bypass analysis (paper §4.1, Hardy et al.)
    /// and by locking-content selection heuristics.
    ///
    /// # Panics
    ///
    /// Panics if an enclosing loop lacks a bound; call
    /// [`FlowFacts::validate`] first.
    #[must_use]
    pub fn max_block_count(&self, loops: &LoopForest, block: BlockId) -> u64 {
        let mut count: u64 = 1;
        for l in loops.containing(block) {
            let header = loops.loop_of(l).header;
            let b = self
                .bounds
                .get(&header)
                .unwrap_or_else(|| panic!("loop {header} has no bound"));
            // Header runs bound+1 times; body blocks run bound times. We use
            // the conservative bound+1 for the header itself.
            let factor = if block == header && loops.innermost(block) == Some(l) {
                b.0 + 1
            } else {
                b.0
            };
            count = count.saturating_mul(factor.max(1));
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CfgBuilder;
    use crate::cfg::Terminator;
    use crate::isa::{r, Cond, Operand};

    fn one_loop() -> (Cfg, BlockId) {
        let mut cb = CfgBuilder::new();
        let entry = cb.add_block();
        let header = cb.add_block();
        let body = cb.add_block();
        let exit = cb.add_block();
        cb.terminate(entry, Terminator::Jump(header));
        cb.terminate(
            header,
            Terminator::Branch {
                cond: Cond::Lt,
                lhs: r(1),
                rhs: Operand::Imm(10),
                taken: body,
                not_taken: exit,
            },
        );
        cb.terminate(body, Terminator::Jump(header));
        cb.terminate(exit, Terminator::Return);
        (cb.build(entry).expect("valid"), header)
    }

    #[test]
    fn validate_requires_bounds() {
        let (cfg, header) = one_loop();
        let loops = LoopForest::analyze(&cfg).expect("reducible");
        let mut facts = FlowFacts::new();
        assert_eq!(
            facts.validate(&cfg, &loops),
            Err(FlowError::MissingBound { header })
        );
        facts.set_bound(header, LoopBound(10));
        assert_eq!(facts.validate(&cfg, &loops), Ok(()));
    }

    #[test]
    fn validate_rejects_non_header_bound() {
        let (cfg, header) = one_loop();
        let loops = LoopForest::analyze(&cfg).expect("reducible");
        let mut facts = FlowFacts::new();
        facts.set_bound(header, LoopBound(10));
        facts.set_bound(cfg.entry(), LoopBound(3));
        assert_eq!(
            facts.validate(&cfg, &loops),
            Err(FlowError::NotAHeader { block: cfg.entry() })
        );
    }

    #[test]
    fn validate_rejects_unknown_edge() {
        let (cfg, header) = one_loop();
        let loops = LoopForest::analyze(&cfg).expect("reducible");
        let mut facts = FlowFacts::new();
        facts.set_bound(header, LoopBound(10));
        let bogus = Edge::new(cfg.entry(), cfg.entry());
        facts.add_infeasible_pair(bogus, bogus);
        assert!(matches!(
            facts.validate(&cfg, &loops),
            Err(FlowError::UnknownEdge { .. })
        ));
    }

    #[test]
    fn max_block_count_multiplies_nesting() {
        let (cfg, header) = one_loop();
        let loops = LoopForest::analyze(&cfg).expect("reducible");
        let mut facts = FlowFacts::new();
        facts.set_bound(header, LoopBound(10));
        // entry outside loop.
        assert_eq!(facts.max_block_count(&loops, cfg.entry()), 1);
        // header runs bound+1 times.
        assert_eq!(facts.max_block_count(&loops, header), 11);
        // body runs bound times.
        let body = cfg
            .block_ids()
            .find(|&b| {
                b != cfg.entry() && b != header && !cfg.successors(b).is_empty() && {
                    cfg.successors(b) == [header]
                }
            })
            .expect("body block");
        assert_eq!(facts.max_block_count(&loops, body), 10);
    }
}
