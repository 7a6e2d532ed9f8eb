//! A [`Program`] couples a CFG with its memory layout and flow facts.
//!
//! The layout assigns every instruction a fetch address (for
//! instruction-cache analysis) and records the data regions the program may
//! touch (for data-cache and shared-cache interference analysis). Multicore
//! experiments steer inter-task cache conflicts by choosing overlapping or
//! disjoint code/data bases for co-scheduled programs.

use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::cfg::{BlockId, Cfg};
use crate::flow::{FlowError, FlowFacts};
use crate::isa::{Addr, MemRef, INSTR_BYTES, NUM_REGS};
use crate::loops::{IrreducibleError, LoopForest};

/// A named contiguous data region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataRegion {
    /// Region name (for reports).
    pub name: String,
    /// First byte address.
    pub base: Addr,
    /// Region size in bytes.
    pub bytes: u64,
}

impl DataRegion {
    /// Creates a region.
    #[must_use]
    pub fn new(name: impl Into<String>, base: Addr, bytes: u64) -> DataRegion {
        DataRegion {
            name: name.into(),
            base,
            bytes,
        }
    }

    /// True if `addr` lies inside the region.
    #[must_use]
    pub fn contains(&self, addr: Addr) -> bool {
        addr >= self.base && addr.0 < self.base.0 + self.bytes
    }
}

/// Code/data placement for a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    /// Address of the first instruction of block 0.
    pub code_base: Addr,
}

impl Default for Layout {
    fn default() -> Self {
        Layout {
            code_base: Addr(0x1_0000),
        }
    }
}

/// Kind of a memory access, as seen by the cache hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AccessKind {
    /// Instruction fetch.
    Fetch,
    /// Data load.
    Load,
    /// Data store.
    Store,
}

impl AccessKind {
    /// True for [`AccessKind::Load`] and [`AccessKind::Store`].
    #[must_use]
    pub fn is_data(self) -> bool {
        !matches!(self, AccessKind::Fetch)
    }
}

/// The statically-known address set of one access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessAddrs {
    /// Exactly one address.
    Exact(Addr),
    /// Any address in `[base, base + bytes)` (stride-aligned).
    Range {
        /// Region start.
        base: Addr,
        /// Region length in bytes.
        bytes: u64,
    },
}

impl AccessAddrs {
    /// The single address if the set is a singleton.
    #[must_use]
    pub fn exact(&self) -> Option<Addr> {
        match *self {
            AccessAddrs::Exact(a) => Some(a),
            AccessAddrs::Range { base, bytes } if bytes <= 8 => Some(base),
            AccessAddrs::Range { .. } => None,
        }
    }
}

/// One memory access site inside a block, in program order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessSite {
    /// Containing block.
    pub block: BlockId,
    /// Position within the block's access sequence (fetches and data
    /// accesses interleaved in program order).
    pub seq: u32,
    /// Fetch / load / store.
    pub kind: AccessKind,
    /// Statically-known address set.
    pub addrs: AccessAddrs,
}

/// Errors from [`Program::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// Loop analysis failed (irreducible CFG).
    Irreducible(IrreducibleError),
    /// Flow facts are inconsistent with the CFG.
    Flow(FlowError),
    /// An indexed memory reference has zero stride or count.
    BadMemRef {
        /// Block containing the offending instruction.
        block: BlockId,
    },
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::Irreducible(e) => write!(f, "{e}"),
            ProgramError::Flow(e) => write!(f, "{e}"),
            ProgramError::BadMemRef { block } => {
                write!(
                    f,
                    "indexed memory reference in {block} has zero stride or count"
                )
            }
        }
    }
}

impl std::error::Error for ProgramError {}

impl From<IrreducibleError> for ProgramError {
    fn from(e: IrreducibleError) -> Self {
        ProgramError::Irreducible(e)
    }
}

impl From<FlowError> for ProgramError {
    fn from(e: FlowError) -> Self {
        ProgramError::Flow(e)
    }
}

/// A complete analysable program: CFG + loops + flow facts + layout +
/// initial machine state.
///
/// The content lives in one shared [`Arc`], so a clone is a reference
/// count bump and clones share the fingerprint cache. The consuming
/// `with_*` builders copy the content first when it is shared.
#[derive(Clone)]
pub struct Program {
    body: Arc<Body>,
}

/// The shared content of a [`Program`].
#[derive(Clone)]
struct Body {
    name: String,
    cfg: Cfg,
    loops: LoopForest,
    flow: FlowFacts,
    layout: Layout,
    block_addrs: Vec<Addr>,
    data_regions: Vec<DataRegion>,
    init_regs: [i64; NUM_REGS],
    init_mem: Vec<(Addr, i64)>,
    /// [`crate::fingerprint::program_fingerprint`], once computed. The
    /// content never changes after construction except through the
    /// consuming `with_*` builders, which reset it.
    fingerprint: OnceLock<(u64, u64)>,
}

/// Exactly the derived rendering of the content fields: fingerprints
/// hash this text, so the cache stays out of it.
impl fmt::Debug for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Body {
            name,
            cfg,
            loops,
            flow,
            layout,
            block_addrs,
            data_regions,
            init_regs,
            init_mem,
            fingerprint: _,
        } = &*self.body;
        f.debug_struct("Program")
            .field("name", name)
            .field("cfg", cfg)
            .field("loops", loops)
            .field("flow", flow)
            .field("layout", layout)
            .field("block_addrs", block_addrs)
            .field("data_regions", data_regions)
            .field("init_regs", init_regs)
            .field("init_mem", init_mem)
            .finish()
    }
}

/// Content equality: a filled fingerprint cache changes nothing.
impl PartialEq for Program {
    fn eq(&self, other: &Program) -> bool {
        let Body {
            name,
            cfg,
            loops,
            flow,
            layout,
            block_addrs,
            data_regions,
            init_regs,
            init_mem,
            fingerprint: _,
        } = &*self.body;
        let other = &*other.body;
        *name == other.name
            && *cfg == other.cfg
            && *loops == other.loops
            && *flow == other.flow
            && *layout == other.layout
            && *block_addrs == other.block_addrs
            && *data_regions == other.data_regions
            && *init_regs == other.init_regs
            && *init_mem == other.init_mem
    }
}

impl Program {
    /// Assembles a program.
    ///
    /// Runs loop analysis, validates the flow facts, and lays the code out
    /// from `layout.code_base` (blocks in id order, [`INSTR_BYTES`] per
    /// instruction slot, terminator included).
    ///
    /// # Errors
    ///
    /// Returns [`ProgramError`] if the CFG is irreducible, the flow facts do
    /// not cover every loop, or a memory reference is malformed.
    pub fn new(
        name: impl Into<String>,
        cfg: Cfg,
        flow: FlowFacts,
        layout: Layout,
    ) -> Result<Program, ProgramError> {
        let loops = LoopForest::analyze(&cfg)?;
        flow.validate(&cfg, &loops)?;
        for (id, blk) in cfg.iter() {
            for ins in blk.instrs() {
                if let Some(&MemRef::Indexed { stride, count, .. }) = ins.mem_ref() {
                    if stride == 0 || count == 0 {
                        return Err(ProgramError::BadMemRef { block: id });
                    }
                }
            }
        }
        let mut block_addrs = Vec::with_capacity(cfg.num_blocks());
        let mut cursor = layout.code_base;
        for (_, blk) in cfg.iter() {
            block_addrs.push(cursor);
            cursor = cursor.offset(blk.fetch_slots() as u64 * INSTR_BYTES);
        }
        Ok(Program {
            body: Arc::new(Body {
                name: name.into(),
                cfg,
                loops,
                flow,
                layout,
                block_addrs,
                data_regions: Vec::new(),
                init_regs: [0; NUM_REGS],
                init_mem: Vec::new(),
                fingerprint: OnceLock::new(),
            }),
        })
    }

    /// The content for a builder to change: copied first when shared
    /// (copy on write), with the fingerprint cache reset.
    fn edit(&mut self) -> &mut Body {
        let body = Arc::make_mut(&mut self.body);
        body.fingerprint.take();
        body
    }

    /// Adds a named data region (builder-style).
    #[must_use]
    pub fn with_data_region(mut self, region: DataRegion) -> Program {
        self.edit().data_regions.push(region);
        self
    }

    /// Sets an initial register value (builder-style).
    #[must_use]
    pub fn with_init_reg(mut self, reg: crate::isa::Reg, value: i64) -> Program {
        self.edit().init_regs[reg.index()] = value;
        self
    }

    /// Sets an initial memory word (builder-style).
    #[must_use]
    pub fn with_init_mem(mut self, addr: Addr, value: i64) -> Program {
        self.edit().init_mem.push((addr, value));
        self
    }

    /// The fingerprint cache shared by this program and its clones.
    pub(crate) fn fingerprint_cache(&self) -> &OnceLock<(u64, u64)> {
        &self.body.fingerprint
    }

    /// Program name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.body.name
    }

    /// The control-flow graph.
    #[must_use]
    pub fn cfg(&self) -> &Cfg {
        &self.body.cfg
    }

    /// The loop forest.
    #[must_use]
    pub fn loops(&self) -> &LoopForest {
        &self.body.loops
    }

    /// The flow facts.
    #[must_use]
    pub fn flow(&self) -> &FlowFacts {
        &self.body.flow
    }

    /// The code layout.
    #[must_use]
    pub fn layout(&self) -> Layout {
        self.body.layout
    }

    /// Declared data regions.
    #[must_use]
    pub fn data_regions(&self) -> &[DataRegion] {
        &self.body.data_regions
    }

    /// Initial register file.
    #[must_use]
    pub fn init_regs(&self) -> &[i64; NUM_REGS] {
        &self.body.init_regs
    }

    /// Initial memory contents, as `(address, value)` words.
    #[must_use]
    pub fn init_mem(&self) -> &[(Addr, i64)] {
        &self.body.init_mem
    }

    /// Start address of a block's first instruction slot.
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range.
    #[must_use]
    pub fn block_addr(&self, block: BlockId) -> Addr {
        self.body.block_addrs[block.index()]
    }

    /// Fetch address of instruction slot `slot` of `block` (the terminator
    /// occupies the last slot).
    ///
    /// # Panics
    ///
    /// Panics if `block` or `slot` is out of range.
    #[must_use]
    pub fn fetch_addr(&self, block: BlockId, slot: usize) -> Addr {
        assert!(
            slot < self.body.cfg.block(block).fetch_slots(),
            "slot out of range"
        );
        self.body.block_addrs[block.index()].offset(slot as u64 * INSTR_BYTES)
    }

    /// One byte past the end of the code.
    #[must_use]
    pub fn code_end(&self) -> Addr {
        let last = BlockId::from_index(self.body.cfg.num_blocks() - 1);
        self.body.block_addrs[last.index()]
            .offset(self.body.cfg.block(last).fetch_slots() as u64 * INSTR_BYTES)
    }

    /// All memory access sites of `block` in program order: one `Fetch` per
    /// instruction slot, with `Load`/`Store` sites interleaved right after
    /// the fetch of their instruction.
    #[must_use]
    pub fn accesses(&self, block: BlockId) -> Vec<AccessSite> {
        let blk = self.body.cfg.block(block);
        let mut out = Vec::with_capacity(blk.fetch_slots() + 4);
        let mut seq = 0u32;
        let mut push = |kind, addrs, seq: &mut u32| {
            out.push(AccessSite {
                block,
                seq: *seq,
                kind,
                addrs,
            });
            *seq += 1;
        };
        for (slot, ins) in blk.instrs().iter().enumerate() {
            push(
                AccessKind::Fetch,
                AccessAddrs::Exact(self.fetch_addr(block, slot)),
                &mut seq,
            );
            if let Some(mem) = ins.mem_ref() {
                let kind = if ins.is_store() {
                    AccessKind::Store
                } else {
                    AccessKind::Load
                };
                let addrs = match *mem {
                    MemRef::Static(a) => AccessAddrs::Exact(a),
                    MemRef::Indexed { .. } => {
                        let (base, bytes) = mem.touched_region();
                        if mem.is_singleton() {
                            AccessAddrs::Exact(base)
                        } else {
                            AccessAddrs::Range { base, bytes }
                        }
                    }
                };
                push(kind, addrs, &mut seq);
            }
        }
        // Terminator fetch.
        push(
            AccessKind::Fetch,
            AccessAddrs::Exact(self.fetch_addr(block, blk.fetch_slots() - 1)),
            &mut seq,
        );
        out
    }

    /// The worst-case execution count of `block` (product of enclosing loop
    /// bounds; see [`FlowFacts::max_block_count`]).
    #[must_use]
    pub fn max_block_count(&self, block: BlockId) -> u64 {
        self.body.flow.max_block_count(&self.body.loops, block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CfgBuilder;
    use crate::cfg::Terminator;
    use crate::fingerprint::program_fingerprint;
    use crate::isa::{r, Instr};

    fn two_block_program() -> Program {
        let mut cb = CfgBuilder::new();
        let a = cb.add_block();
        let b = cb.add_block();
        cb.push(a, Instr::Nop);
        cb.push(
            a,
            Instr::Load {
                dst: r(1),
                mem: MemRef::Static(Addr(0x8000)),
            },
        );
        cb.terminate(a, Terminator::Jump(b));
        cb.push(
            b,
            Instr::Store {
                src: r(1),
                mem: MemRef::Static(Addr(0x8008)),
            },
        );
        cb.terminate(b, Terminator::Return);
        let cfg = cb.build(a).expect("valid");
        Program::new(
            "t",
            cfg,
            FlowFacts::new(),
            Layout {
                code_base: Addr(0x100),
            },
        )
        .expect("valid program")
    }

    #[test]
    fn layout_is_contiguous() {
        let p = two_block_program();
        let a = BlockId::from_index(0);
        let b = BlockId::from_index(1);
        // Block a: 2 instrs + term = 3 slots = 12 bytes.
        assert_eq!(p.block_addr(a), Addr(0x100));
        assert_eq!(p.block_addr(b), Addr(0x10c));
        assert_eq!(p.fetch_addr(a, 2), Addr(0x108));
        assert_eq!(p.code_end(), Addr(0x10c + 8));
    }

    #[test]
    fn accesses_interleave_fetch_and_data() {
        let p = two_block_program();
        let a = BlockId::from_index(0);
        let acc = p.accesses(a);
        // fetch nop, fetch load, data load, fetch terminator.
        assert_eq!(acc.len(), 4);
        assert_eq!(acc[0].kind, AccessKind::Fetch);
        assert_eq!(acc[1].kind, AccessKind::Fetch);
        assert_eq!(acc[2].kind, AccessKind::Load);
        assert_eq!(acc[2].addrs, AccessAddrs::Exact(Addr(0x8000)));
        assert_eq!(acc[3].kind, AccessKind::Fetch);
        let seqs: Vec<u32> = acc.iter().map(|s| s.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
    }

    #[test]
    fn rejects_zero_stride() {
        let mut cb = CfgBuilder::new();
        let a = cb.add_block();
        cb.push(
            a,
            Instr::Load {
                dst: r(1),
                mem: MemRef::Indexed {
                    base: Addr(0),
                    stride: 0,
                    count: 4,
                    index: r(2),
                },
            },
        );
        cb.terminate(a, Terminator::Return);
        let cfg = cb.build(a).expect("valid cfg");
        let err = Program::new("bad", cfg, FlowFacts::new(), Layout::default()).unwrap_err();
        assert!(matches!(err, ProgramError::BadMemRef { .. }));
    }

    #[test]
    fn builder_style_extras() {
        let p = two_block_program()
            .with_data_region(DataRegion::new("buf", Addr(0x8000), 64))
            .with_init_reg(r(5), 42)
            .with_init_mem(Addr(0x8000), 7);
        assert_eq!(p.data_regions().len(), 1);
        assert!(p.data_regions()[0].contains(Addr(0x803f)));
        assert!(!p.data_regions()[0].contains(Addr(0x8040)));
        assert_eq!(p.init_regs()[5], 42);
        assert_eq!(p.init_mem(), &[(Addr(0x8000), 7)]);
    }

    /// Each builder, applied to a clone, resets the clone's cache and
    /// copies on write: the original keeps its content and its filled
    /// cache.
    #[test]
    fn builders_reset_the_fingerprint_cache() {
        let builders: [fn(Program) -> Program; 3] = [
            |p| p.with_data_region(DataRegion::new("buf", Addr(0x8000), 64)),
            |p| p.with_init_reg(r(5), 42),
            |p| p.with_init_mem(Addr(0x8000), 7),
        ];
        for extend in builders {
            let cached = two_block_program();
            let before = program_fingerprint(&cached);
            let extended = extend(cached.clone());
            assert_eq!(extended.fingerprint_cache().get(), None);
            let extended = program_fingerprint(&extended);
            assert_ne!(extended, before, "the builder changed the content");
            assert_eq!(extended, program_fingerprint(&extend(two_block_program())));
            assert_eq!(cached, two_block_program(), "the original kept its content");
            assert_eq!(cached.fingerprint_cache().get(), Some(&before));
        }
    }

    #[test]
    fn clones_carry_the_cache_and_eq_ignores_it() {
        let fresh = two_block_program();
        let cached = two_block_program();
        let fp = program_fingerprint(&cached);
        assert_eq!(fresh, cached);
        assert_eq!(format!("{fresh:?}"), format!("{cached:?}"));
        let copy = cached.clone();
        assert_eq!(copy.fingerprint_cache().get(), Some(&fp));
        assert_eq!(program_fingerprint(&fresh), fp);
    }
}
