//! The synthetic RISC instruction set used throughout the toolkit.
//!
//! Static WCET analysis (the paper's §2.1) consumes a control-flow graph and
//! the per-instruction *timing-relevant* attributes: execution latency and the
//! statically-describable set of memory addresses an access may touch. This
//! ISA keeps exactly that information and nothing more, which is what makes
//! the cache and pipeline analyses in the sibling crates exact within the
//! model.
//!
//! Every instruction occupies [`INSTR_BYTES`] bytes of code memory, so
//! instruction-fetch addresses (for instruction-cache analysis) follow
//! directly from the block layout performed by
//! [`Program`](crate::program::Program).

use std::fmt;

/// Number of architectural registers.
pub const NUM_REGS: usize = 32;

/// Size of one encoded instruction in bytes (fixed-width ISA).
pub const INSTR_BYTES: u64 = 4;

/// A byte address in the unified code/data address space.
///
/// Newtype per C-NEWTYPE: addresses are never confused with plain counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(pub u64);

impl Addr {
    /// Returns the address `bytes` bytes above `self`.
    #[must_use]
    pub fn offset(self, bytes: u64) -> Addr {
        Addr(self.0 + bytes)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u64> for Addr {
    fn from(v: u64) -> Self {
        Addr(v)
    }
}

/// An architectural register, `r0` .. `r31`.
///
/// `r0` is an ordinary register (not hard-wired to zero).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(u8);

impl Reg {
    /// Creates register `rN`.
    ///
    /// # Panics
    ///
    /// Panics if `n >= NUM_REGS`.
    #[must_use]
    pub fn new(n: u8) -> Reg {
        assert!(
            (n as usize) < NUM_REGS,
            "register index {n} out of range (max {})",
            NUM_REGS - 1
        );
        Reg(n)
    }

    /// The register's index, `0..NUM_REGS`.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Shorthand constructor for [`Reg`]; `r(3)` is register `r3`.
///
/// # Panics
///
/// Panics if `n >= NUM_REGS`.
#[must_use]
pub fn r(n: u8) -> Reg {
    Reg::new(n)
}

/// Arithmetic/logic operations, with fixed execution latencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Wrapping addition (1 cycle).
    Add,
    /// Wrapping subtraction (1 cycle).
    Sub,
    /// Bitwise and (1 cycle).
    And,
    /// Bitwise or (1 cycle).
    Or,
    /// Bitwise xor (1 cycle).
    Xor,
    /// Logical shift left by `rhs & 63` (1 cycle).
    Shl,
    /// Arithmetic shift right by `rhs & 63` (1 cycle).
    Shr,
    /// Signed set-less-than: `dst = (lhs < rhs) as i64` (1 cycle).
    Slt,
    /// Wrapping multiplication ([`MUL_LATENCY`] cycles).
    Mul,
    /// Signed division; division by zero yields 0 ([`DIV_LATENCY`] cycles).
    Div,
    /// Remainder; remainder by zero yields 0 ([`DIV_LATENCY`] cycles).
    Rem,
}

/// Execution latency of [`AluOp::Mul`] in cycles.
pub const MUL_LATENCY: u32 = 3;
/// Execution latency of [`AluOp::Div`] and [`AluOp::Rem`] in cycles.
pub const DIV_LATENCY: u32 = 12;

impl AluOp {
    /// Execution (EX-stage occupancy) latency in cycles.
    #[must_use]
    pub fn latency(self) -> u32 {
        match self {
            AluOp::Mul => MUL_LATENCY,
            AluOp::Div | AluOp::Rem => DIV_LATENCY,
            _ => 1,
        }
    }
}

impl fmt::Display for AluOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Shl => "shl",
            AluOp::Shr => "shr",
            AluOp::Slt => "slt",
            AluOp::Mul => "mul",
            AluOp::Div => "div",
            AluOp::Rem => "rem",
        };
        f.write_str(s)
    }
}

/// Second ALU/branch operand: a register or a signed immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// Register operand.
    Reg(Reg),
    /// Immediate operand.
    Imm(i64),
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(i) => write!(f, "{i}"),
        }
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

impl From<i64> for Operand {
    fn from(i: i64) -> Self {
        Operand::Imm(i)
    }
}

/// A statically-describable memory reference.
///
/// WCET data-cache analysis needs, for every access site, the set of memory
/// lines the access may touch. The two variants cover the patterns the
/// surveyed benchmarks need while keeping that set exactly computable:
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemRef {
    /// A scalar access to one fixed address.
    Static(Addr),
    /// An access into a dense table: the effective address is
    /// `base + stride * (index_reg mod count)` (with `index_reg` taken as
    /// unsigned), so the touched region is exactly
    /// `[base, base + stride*count)`.
    Indexed {
        /// Start of the table.
        base: Addr,
        /// Element stride in bytes (must be non-zero).
        stride: u32,
        /// Number of elements in the table (must be non-zero).
        count: u32,
        /// Register holding the element index; wrapped modulo `count`.
        index: Reg,
    },
}

impl MemRef {
    /// The byte region this reference may touch: `(base, length_in_bytes)`.
    #[must_use]
    pub fn touched_region(&self) -> (Addr, u64) {
        match *self {
            MemRef::Static(a) => (a, 8),
            MemRef::Indexed {
                base,
                stride,
                count,
                ..
            } => (base, u64::from(stride) * u64::from(count)),
        }
    }

    /// Concrete effective address for a given index-register value.
    ///
    /// For [`MemRef::Static`] the register value is ignored.
    #[must_use]
    pub fn effective_addr(&self, index_value: i64) -> Addr {
        match *self {
            MemRef::Static(a) => a,
            MemRef::Indexed {
                base,
                stride,
                count,
                ..
            } => {
                let idx = (index_value as u64) % u64::from(count);
                base.offset(idx * u64::from(stride))
            }
        }
    }

    /// True if the reference can only ever touch a single address.
    #[must_use]
    pub fn is_singleton(&self) -> bool {
        match *self {
            MemRef::Static(_) => true,
            MemRef::Indexed { count, .. } => count == 1,
        }
    }
}

impl fmt::Display for MemRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            MemRef::Static(a) => write!(f, "[{a}]"),
            MemRef::Indexed {
                base,
                stride,
                count,
                index,
            } => {
                write!(f, "[{base} + {stride}*({index} % {count})]")
            }
        }
    }
}

/// One non-terminator instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instr {
    /// `dst = lhs <op> rhs`.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination register.
        dst: Reg,
        /// First operand register.
        lhs: Reg,
        /// Second operand.
        rhs: Operand,
    },
    /// `dst = imm`.
    LoadImm {
        /// Destination register.
        dst: Reg,
        /// Immediate value.
        imm: i64,
    },
    /// `dst = mem[ref]` (8-byte load).
    Load {
        /// Destination register.
        dst: Reg,
        /// Memory reference.
        mem: MemRef,
    },
    /// `mem[ref] = src` (8-byte store).
    Store {
        /// Source register.
        src: Reg,
        /// Memory reference.
        mem: MemRef,
    },
    /// Cooperative yield point (fine-grained multithreading, paper §5.1).
    ///
    /// On a single-threaded core this is a 1-cycle no-op; on a
    /// yield-switching multithreaded core it is the only point where control
    /// may transfer to a co-routine thread.
    Yield,
    /// 1-cycle no-op (used for code-footprint padding).
    Nop,
}

impl Instr {
    /// EX-stage latency in cycles (memory penalties are *not* included; they
    /// are modelled by the cache/bus analyses and the simulator).
    #[must_use]
    pub fn exec_latency(&self) -> u32 {
        match self {
            Instr::Alu { op, .. } => op.latency(),
            _ => 1,
        }
    }

    /// The data-memory reference of this instruction, if any.
    #[must_use]
    pub fn mem_ref(&self) -> Option<&MemRef> {
        match self {
            Instr::Load { mem, .. } | Instr::Store { mem, .. } => Some(mem),
            _ => None,
        }
    }

    /// True for [`Instr::Store`].
    #[must_use]
    pub fn is_store(&self) -> bool {
        matches!(self, Instr::Store { .. })
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instr::Alu { op, dst, lhs, rhs } => write!(f, "{op} {dst}, {lhs}, {rhs}"),
            Instr::LoadImm { dst, imm } => write!(f, "li {dst}, {imm}"),
            Instr::Load { dst, mem } => write!(f, "ld {dst}, {mem}"),
            Instr::Store { src, mem } => write!(f, "st {src}, {mem}"),
            Instr::Yield => f.write_str("yield"),
            Instr::Nop => f.write_str("nop"),
        }
    }
}

/// Branch conditions for [`Terminator::Branch`](crate::cfg::Terminator).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cond {
    /// `lhs == rhs`.
    Eq,
    /// `lhs != rhs`.
    Ne,
    /// Signed `lhs < rhs`.
    Lt,
    /// Signed `lhs >= rhs`.
    Ge,
    /// Unsigned `lhs < rhs`.
    LtU,
    /// Unsigned `lhs >= rhs`.
    GeU,
}

impl Cond {
    /// Evaluates the condition on concrete values.
    #[must_use]
    pub fn eval(self, lhs: i64, rhs: i64) -> bool {
        match self {
            Cond::Eq => lhs == rhs,
            Cond::Ne => lhs != rhs,
            Cond::Lt => lhs < rhs,
            Cond::Ge => lhs >= rhs,
            Cond::LtU => (lhs as u64) < (rhs as u64),
            Cond::GeU => (lhs as u64) >= (rhs as u64),
        }
    }
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Cond::Eq => "eq",
            Cond::Ne => "ne",
            Cond::Lt => "lt",
            Cond::Ge => "ge",
            Cond::LtU => "ltu",
            Cond::GeU => "geu",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reg_roundtrip_and_display() {
        let reg = r(7);
        assert_eq!(reg.index(), 7);
        assert_eq!(reg.to_string(), "r7");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn reg_out_of_range_panics() {
        let _ = Reg::new(32);
    }

    #[test]
    fn alu_latencies() {
        assert_eq!(AluOp::Add.latency(), 1);
        assert_eq!(AluOp::Mul.latency(), MUL_LATENCY);
        assert_eq!(AluOp::Div.latency(), DIV_LATENCY);
        assert_eq!(Instr::Nop.exec_latency(), 1);
    }

    #[test]
    fn memref_static_region() {
        let m = MemRef::Static(Addr(0x100));
        assert_eq!(m.touched_region(), (Addr(0x100), 8));
        assert!(m.is_singleton());
        assert_eq!(m.effective_addr(999), Addr(0x100));
    }

    #[test]
    fn memref_indexed_wraps_modulo_count() {
        let m = MemRef::Indexed {
            base: Addr(0x1000),
            stride: 8,
            count: 4,
            index: r(1),
        };
        assert_eq!(m.touched_region(), (Addr(0x1000), 32));
        assert_eq!(m.effective_addr(0), Addr(0x1000));
        assert_eq!(m.effective_addr(3), Addr(0x1018));
        assert_eq!(m.effective_addr(4), Addr(0x1000));
        assert_eq!(
            m.effective_addr(-1),
            Addr(0x1000).offset(8 * ((-1i64 as u64) % 4))
        );
        assert!(!m.is_singleton());
    }

    #[test]
    fn cond_eval_and_negate() {
        assert!(Cond::Lt.eval(-1, 0));
        assert!(!Cond::LtU.eval(-1, 0)); // -1 as u64 is huge
        assert!(Cond::GeU.eval(-1, 0));
        // The conditions come in negated pairs.
        for (c, not_c) in [
            (Cond::Eq, Cond::Ne),
            (Cond::Lt, Cond::Ge),
            (Cond::LtU, Cond::GeU),
        ] {
            for (a, b) in [(0, 0), (1, 2), (-3, 7), (i64::MIN, i64::MAX)] {
                assert_ne!(c.eval(a, b), not_c.eval(a, b));
            }
        }
    }

    #[test]
    fn addr_display_is_hex() {
        assert_eq!(Addr(0x2a).to_string(), "0x2a");
        assert_eq!(Addr(16).offset(16), Addr(32));
    }
}
