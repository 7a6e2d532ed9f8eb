//! Ergonomic construction of CFGs (C-BUILDER).

use crate::cfg::{BasicBlock, BlockId, Cfg, CfgError, Terminator};
use crate::isa::Instr;

/// Incremental CFG builder.
///
/// Blocks are allocated first (so they can reference each other in
/// terminators), then filled with instructions and terminated. Un-terminated
/// blocks default to `Return`.
///
/// ```
/// use wcet_ir::builder::CfgBuilder;
/// use wcet_ir::cfg::Terminator;
/// use wcet_ir::isa::Instr;
///
/// # fn main() -> Result<(), wcet_ir::cfg::CfgError> {
/// let mut cb = CfgBuilder::new();
/// let a = cb.add_block();
/// let b = cb.add_block();
/// cb.push(a, Instr::Nop);
/// cb.terminate(a, Terminator::Jump(b));
/// let cfg = cb.build(a)?;
/// assert_eq!(cfg.num_blocks(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct CfgBuilder {
    blocks: Vec<(Vec<Instr>, Option<Terminator>)>,
}

impl CfgBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> CfgBuilder {
        CfgBuilder::default()
    }

    /// Allocates a new, empty block and returns its id.
    pub fn add_block(&mut self) -> BlockId {
        self.blocks.push((Vec::new(), None));
        BlockId::from_index(self.blocks.len() - 1)
    }

    /// Appends an instruction to `block`.
    ///
    /// # Panics
    ///
    /// Panics if `block` was not allocated by this builder.
    pub fn push(&mut self, block: BlockId, instr: Instr) -> &mut Self {
        self.blocks[block.index()].0.push(instr);
        self
    }

    /// Appends several instructions to `block`.
    ///
    /// # Panics
    ///
    /// Panics if `block` was not allocated by this builder.
    pub fn extend<I: IntoIterator<Item = Instr>>(
        &mut self,
        block: BlockId,
        instrs: I,
    ) -> &mut Self {
        self.blocks[block.index()].0.extend(instrs);
        self
    }

    /// Sets the terminator of `block`, replacing any previous one.
    ///
    /// # Panics
    ///
    /// Panics if `block` was not allocated by this builder.
    pub fn terminate(&mut self, block: BlockId, term: Terminator) -> &mut Self {
        self.blocks[block.index()].1 = Some(term);
        self
    }

    /// Finalizes the CFG with the given entry block.
    ///
    /// Blocks without an explicit terminator become `Return` blocks.
    ///
    /// # Errors
    ///
    /// Propagates [`CfgError`] from [`Cfg::new`] validation.
    pub fn build(self, entry: BlockId) -> Result<Cfg, CfgError> {
        let blocks = self
            .blocks
            .into_iter()
            .map(|(instrs, term)| BasicBlock::new(instrs, term.unwrap_or(Terminator::Return)))
            .collect();
        Cfg::new(blocks, entry)
    }
}

#[cfg(test)]
impl crate::cfg::Cfg {
    /// Test helper: number of blocks (exercises the iterator API).
    fn block_len_check(&self) -> usize {
        self.iter().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{r, Cond, Operand};

    #[test]
    fn default_terminator_is_return() {
        let mut cb = CfgBuilder::new();
        let a = cb.add_block();
        let cfg = cb.build(a).expect("single return block is valid");
        assert!(matches!(cfg.block(a).terminator(), Terminator::Return));
    }

    #[test]
    fn chained_pushes() {
        let mut cb = CfgBuilder::new();
        let a = cb.add_block();
        let b = cb.add_block();
        cb.push(a, Instr::Nop).push(a, Instr::Nop).terminate(
            a,
            Terminator::Branch {
                cond: Cond::Eq,
                lhs: r(0),
                rhs: Operand::Imm(0),
                taken: b,
                not_taken: a,
            },
        );
        // Branch back to a makes a self-loop; b returns.
        // not_taken: a -> a is a back edge to a non-dominating ... actually a
        // dominates itself so this is a valid self loop.
        cb.terminate(b, Terminator::Return);
        let cfg = cb.build(a).expect("valid");
        assert_eq!(cfg.block(a).instrs().len(), 2);
        assert_eq!(cfg.block_len_check(), 2);
    }
}
