//! # wcet-cache — storage-resource analysis for WCET
//!
//! Cache behaviour prediction is half of the paper's "low-level analysis"
//! (§2.1) and the entire subject of its §4 (storage resource sharing). This
//! crate provides both the **abstract** side (what a static WCET analyser
//! computes) and the **concrete** side (what the cycle-level simulator
//! executes), so soundness — *every `ALWAYS_HIT` access hits in every run*
//! — is a testable property rather than an article of faith:
//!
//! * [`config`] / [`concrete`] — parametric set-associative LRU caches with
//!   locking and bypass;
//! * [`domain`] / [`analysis`] — must/may abstract interpretation and the
//!   AH/AM/PS/NC classification (Ferdinand & Wilhelm style);
//! * [`kernel`] — the unrolled word-chunk kernels of the fixpoint inner
//!   loop (fused join-and-changed-flag, aging, candidate masks);
//! * [`multilevel`] — L1→L2 analysis with reach filtering (Hardy & Puaut);
//! * [`shared`] — joint shared-L2 interference (Yan & Zhang; Li et al.;
//!   Hardy et al.) with lifetime refinement hooks;
//! * [`bypass`] — single-usage L2 bypass (Hardy et al.; Lesage et al.);
//! * [`partition`] — columnization/bankization and core-/task-based
//!   allocation (Paolieri et al.; Suhendra & Mitra);
//! * [`lock`] — static and dynamic lock-content selection.
//!
//! ## Example
//!
//! ```
//! use wcet_cache::analysis::{analyze, AnalysisInput, LevelKind};
//! use wcet_cache::config::CacheConfig;
//! use wcet_ir::synth::{fir, Placement};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = fir(4, 16, Placement::default());
//! let l1d = CacheConfig::new(16, 2, 32, 1)?;
//! let result = analyze(&program, &AnalysisInput::level1(l1d, LevelKind::Data));
//! let (ah, am, ps, nc) = result.histogram();
//! assert!(ah + am + ps + nc > 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod bypass;
pub mod concrete;
pub mod config;
pub mod domain;
pub mod kernel;
pub mod lock;
pub mod multilevel;
pub mod partition;
pub mod shared;

pub use analysis::{
    analyze, analyze_in, AnalysisArena, AnalysisInput, CacheAnalysis, Classification, LevelKind,
    Reach, SiteId,
};
pub use concrete::{AccessOutcome, ConcreteCache};
pub use config::{CacheConfig, ConfigError, LineAddr};
pub use domain::{AbsCacheState, CacheDomain, LineRef};
pub use multilevel::{analyze_hierarchy, reach_filter, HierarchyAnalysis, HierarchyConfig};
pub use partition::{AllocationPolicy, OwnerId, PartitionPlan};
pub use shared::InterferenceMap;
