//! # wcet-ilp — exact integer linear programming for IPET
//!
//! The Implicit Path Enumeration Technique (IPET, Li & Malik \[17\] in the
//! paper's bibliography) turns WCET computation into an ILP whose optimum is
//! the WCET bound. Because the bound must never be under-estimated, this
//! solver works over **exact rationals** ([`Rat`]) rather than floats:
//!
//! * [`simplex`] — the one **two-tier** LP path: a speculative f64
//!   eta-file simplex runs first and its terminal basis is certified by
//!   one exact pass (feasibility + optimality over [`Rat`]); refuted or
//!   ill-conditioned solves rerun on the exact sparse revised simplex
//!   (Dantzig pricing with a Bland anti-cycling fallback), always from a
//!   cold start, so every returned optimum is exact by construction —
//!   see [`solve_lp`] vs [`solve_lp_exact`];
//! * [`branch_bound`] — branch & bound whose every node, root or child
//!   (the model plus its branch trail as constraints), is one solve on
//!   that path;
//! * [`context`] — [`SolveContext`], a cross-solve cache of phase-1
//!   feasible bases for sweep workloads that re-solve one constraint
//!   system under many objectives;
//! * [`dag`] — longest-path fast path / oracle for loop-free instances;
//! * [`dense`] (feature `dense`, default on) — the pre-refactor dense
//!   tableau solver, kept as the differential-test oracle.
//!
//! ## Example
//!
//! ```
//! use wcet_ilp::{CmpOp, IlpConfig, LinExpr, LpModel, solve_ilp};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // max 5x + 4y  s.t.  6x + 5y <= 10  (x, y integer)
//! let mut m = LpModel::new();
//! let x = m.add_int_var();
//! let y = m.add_int_var();
//! m.add_constraint(LinExpr::new().with_term(x, 6).with_term(y, 5), CmpOp::Le, 10);
//! m.set_objective(LinExpr::new().with_term(x, 5).with_term(y, 4));
//! let (solution, _stats) = solve_ilp(&m, IlpConfig::default())?;
//! assert_eq!(solution.objective.to_integer(), Some(8));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod branch_bound;
pub mod budget;
mod certify;
pub mod context;
pub mod dag;
#[cfg(feature = "dense")]
pub mod dense;
mod fast;
pub mod model;
pub mod rational;
pub mod simplex;

pub use branch_bound::{solve_ilp, IlpConfig, IlpError, IlpStats};
pub use context::{SolveContext, SolveKey, SolverStats};
pub use dag::{longest_path, CycleError};
#[cfg(feature = "dense")]
pub use dense::solve_lp_dense;
pub use model::{CmpOp, Constraint, LinExpr, LpModel, Solution, SolveStats, SolveStatus, VarId};
pub use rational::Rat;
pub use simplex::{solve_lp, solve_lp_exact};
