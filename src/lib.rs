//! # wcet-toolkit — timing analysability of parallel architectures
//!
//! Umbrella crate of the workspace reproducing *"An Overview of Approaches
//! Towards the Timing Analysability of Parallel Architectures"*
//! (Christine Rochange, PPES 2011). It re-exports every member crate:
//!
//! | Crate | Role |
//! |---|---|
//! | [`ir`] | programs, CFGs, flow facts, workload generator, interpreter |
//! | [`ilp`] | exact rational simplex + branch & bound (IPET backend) |
//! | [`cache`] | must/may/persistence cache analyses, partitioning, locking, bypass |
//! | [`pipeline`] | the shared timing model and block-cost analysis |
//! | [`arbiter`] | bus arbiters and memory controller (bounds + cycle-level) |
//! | [`sim`] | deterministic cycle-level multicore/SMT simulator |
//! | [`sched`] | task sets, lifetime windows, WCET ⇄ schedule fixpoint |
//! | [`core`] | the WCET analyser: IPET + the paper's three approach families, plus the batch [`core::engine::AnalysisEngine`] |
//!
//! See `README.md` for a tour, `DESIGN.md` for the system inventory and
//! `EXPERIMENTS.md` for the regenerable experiment suite (E01–E12).
//!
//! ## Quickstart
//!
//! ```
//! use wcet_toolkit::core::analyzer::Analyzer;
//! use wcet_toolkit::ir::synth::{matmul, Placement};
//! use wcet_toolkit::sim::config::MachineConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let machine = MachineConfig::symmetric(4);
//! let task = matmul(8, Placement::slot(0));
//! let report = Analyzer::new(machine).wcet_isolated(&task, 0, 0)?;
//! println!("WCET({}) = {} cycles", report.task, report.wcet);
//! # Ok(())
//! # }
//! ```
//!
//! For many tasks (or many modes), analyse through the memoizing engine
//! instead — identical reports, with every shared fixpoint, cost table
//! and bound computed once:
//!
//! ```
//! use wcet_toolkit::core::engine::AnalysisEngine;
//! use wcet_toolkit::core::mode::Isolated;
//! use wcet_toolkit::ir::synth::{fir, matmul, Placement};
//! use wcet_toolkit::sim::config::MachineConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let engine = AnalysisEngine::new(MachineConfig::symmetric(4));
//! let (a, b) = (matmul(6, Placement::slot(0)), fir(4, 16, Placement::slot(1)));
//! for (task, core) in [(&a, 0), (&b, 1)] {
//!     let report = engine.analyze(task, core, 0, &Isolated)?;
//!     println!("WCET({}) = {} cycles", report.task, report.wcet);
//! }
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use wcet_arbiter as arbiter;
pub use wcet_cache as cache;
pub use wcet_core as core;
pub use wcet_ilp as ilp;
pub use wcet_ir as ir;
pub use wcet_pipeline as pipeline;
pub use wcet_sched as sched;
pub use wcet_sim as sim;
