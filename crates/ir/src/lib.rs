//! # wcet-ir — program representation for static WCET analysis
//!
//! This crate is the foundation of the `wcet-toolkit` workspace, a Rust
//! reproduction of the systems surveyed in *"An Overview of Approaches
//! Towards the Timing Analysability of Parallel Architectures"* (Christine
//! Rochange, PPES 2011). It provides:
//!
//! * a small synthetic RISC ISA ([`isa`]) whose memory references are
//!   statically describable — the property WCET cache analysis needs;
//! * validated control-flow graphs ([`mod@cfg`]), natural-loop detection
//!   ([`loops`]) and flow facts ([`flow`]) — the paper's §2.1 "flow
//!   analysis" artefacts;
//! * complete [`program::Program`]s with code layout and data regions,
//!   and the content [`fingerprint`]s that key every memo table;
//! * a seeded workload generator ([`synth`]) standing in for the Mälardalen
//!   benchmarks used by the surveyed papers;
//! * a reference interpreter ([`interp`]) used as the semantics oracle for
//!   the cycle-level simulator and for flow-fact checking.
//!
//! ## Example
//!
//! ```
//! use wcet_ir::synth::{matmul, Placement};
//! use wcet_ir::interp::execute;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = matmul(4, Placement::default());
//! let run = execute(&program, 1_000_000)?;
//! assert!(run.steps > 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod arena;
pub mod budget;
pub mod builder;
pub mod cfg;
pub mod fingerprint;
pub mod fixpoint;
pub mod flow;
pub mod interp;
pub mod isa;
pub mod loops;
pub mod pretty;
pub mod program;
pub mod synth;
pub mod words;

pub use cfg::{BasicBlock, BlockId, Cfg, Edge, Terminator};
pub use flow::{FlowFacts, LoopBound};
pub use isa::{Addr, AluOp, Cond, Instr, MemRef, Operand, Reg};
pub use program::{AccessAddrs, AccessKind, AccessSite, DataRegion, Layout, Program};
