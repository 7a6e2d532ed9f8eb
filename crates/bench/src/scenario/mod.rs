//! The declarative scenario subsystem (the growth engine for "as many
//! scenarios as you can imagine"):
//!
//! * [`spec`] — the `key = value` matrix format, [`ScenarioMatrix`]
//!   parsing, and cross-product expansion into concrete [`Scenario`]s;
//! * [`run`] — the per-cell steps: building a cell, its deduplication
//!   fingerprint, analysis through [`wcet_core::AnalysisEngine`] (one
//!   shared warm-start context across every machine of the run) or the
//!   statically-controlled path, and cycle-level cross-validation on
//!   `wcet-sim`;
//! * [`stream`] — the one scenario runner, from a single served cell to
//!   10⁵–10⁶-cell campaigns: lazy Gray-code expansion, work-stealing
//!   workers, neighbour-incremental analysis, per-cell supervision,
//!   deterministic seeded-sample validation, and collected
//!   (materialized) runs in expansion order;
//! * [`cache`] — the persistent (schema-versioned, checksummed,
//!   corruption-tolerant, checkpointed) fingerprint → bounds memo that
//!   lets repeated campaigns skip already-solved cells and interrupted
//!   campaigns resume;
//! * [`fault`] — the deterministic fault-injection plan driving the
//!   supervision test suite (inert without the `fault-inject` feature);
//! * [`report`] — the structured JSON report and the rendered Markdown
//!   table.
//!
//! The `wcet` binary (`wcet scenarios list|run|validate|report`) is the
//! CLI over this module; `exp02`/`exp05`/`exp08` are thin wrappers over
//! embedded matrix specs.

pub mod cache;
pub mod fault;
pub mod report;
pub mod run;
pub mod spec;
pub mod stream;

pub use cache::{CachedRow, DiskCache};
pub use fault::FaultPlan;
pub use report::{campaign_json, campaign_markdown, matrix_json, matrix_markdown};
pub use run::{CellFailure, CellOutcome, FailureKind, TaskRow};
pub use spec::{parse_matrix, L2Layout, ModeSpec, Scenario, ScenarioMatrix, SpecError};
pub use stream::{run_campaign, run_campaign_with, CampaignOptions, CampaignRun, CellBudget};
