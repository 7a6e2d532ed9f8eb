//! # wcet-core — static WCET analysis of parallel architectures
//!
//! The toolkit's synthesis of *"An Overview of Approaches Towards the
//! Timing Analysability of Parallel Architectures"* (Rochange, PPES 2011):
//! one [`Analyzer`] exposing the paper's three approach families over a
//! machine description shared with the cycle-level simulator —
//!
//! * **joint analysis** (§3.1): [`Analyzer::wcet_joint`] for shared-cache
//!   interference (Yan & Zhang; Li et al.; Hardy et al., optionally
//!   lifetime-refined via `wcet-sched`) and [`yieldgraph`] for
//!   cooperatively-multithreaded thread sets (Crowley & Baer);
//! * **statically-controlled sharing** (§3.2): [`static_ctrl`] —
//!   static/dynamic cache locking (Suhendra & Mitra) and TDMA
//!   offset-aware bus analysis with the offset-state-explosion measurement
//!   (Rosén et al. / Rochange's critique);
//! * **task isolation** (§3.3): [`Analyzer::wcet_isolated`] — partitioned
//!   storage plus workload-independent arbiter bounds (round-robin
//!   `N·L−1`, MBBA, CarCore fixed priority, PRET memory wheel).
//!
//! WCETs are computed by IPET ([`ipet`]) over exact rational ILP, and the
//! [`validate`] harness checks every bound against the simulator.
//!
//! ## Example
//!
//! ```
//! use wcet_core::analyzer::Analyzer;
//! use wcet_sim::config::MachineConfig;
//! use wcet_ir::synth::{fir, Placement};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let machine = MachineConfig::symmetric(4);
//! let analyzer = Analyzer::new(machine);
//! let task = fir(4, 16, Placement::slot(0));
//! let report = analyzer.wcet_isolated(&task, 0, 0)?;
//! assert!(report.wcet > 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analyzer;
pub mod bcet;
pub mod engine;
pub mod ipet;
pub mod mode;
pub mod report;
pub mod static_ctrl;
pub mod validate;
pub mod yieldgraph;

pub use analyzer::{AnalysisError, Analyzer, TaskContext, WcetReport};
pub use bcet::{bcet_ipet, best_block_costs};
pub use engine::{AnalysisEngine, MemoDomain, MemoStats, SolverStats, TaskArtifacts};
pub use ipet::{wcet_ipet, wcet_ipet_ctx, IpetError, IpetOptions, SolveContext, WcetBound};
pub use mode::{AnalysisMode, Footprint, Isolated, JointRefs, Solo};
pub use report::Table;
pub use validate::{observe, run_machine, Observation};
pub use wcet_ir::fingerprint::{self, debug_fingerprint, program_fingerprint};
pub use yieldgraph::{joint_yield_wcet, YieldReport};
