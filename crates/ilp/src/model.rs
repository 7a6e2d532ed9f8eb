//! Linear/integer program model.
//!
//! All variables are non-negative (`x >= 0`), which matches IPET where
//! variables are execution counts. The objective is always *maximised* —
//! again the IPET convention (longest path).

use std::collections::BTreeMap;
use std::fmt;

use crate::rational::Rat;

/// Identifier of a model variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(usize);

impl VarId {
    /// Raw column index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A linear expression `Σ coeff·var`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LinExpr {
    terms: BTreeMap<VarId, Rat>,
}

impl LinExpr {
    /// The empty (zero) expression.
    #[must_use]
    pub fn new() -> LinExpr {
        LinExpr::default()
    }

    /// Adds `coeff·var` to the expression (accumulating).
    pub fn add_term(&mut self, var: VarId, coeff: impl Into<Rat>) -> &mut Self {
        let c = coeff.into();
        let e = self.terms.entry(var).or_insert(Rat::ZERO);
        *e += c;
        if e.is_zero() {
            self.terms.remove(&var);
        }
        self
    }

    /// Builder-style [`LinExpr::add_term`].
    #[must_use]
    pub fn with_term(mut self, var: VarId, coeff: impl Into<Rat>) -> LinExpr {
        self.add_term(var, coeff);
        self
    }

    /// The coefficient of `var` (zero if absent).
    #[must_use]
    pub fn coeff(&self, var: VarId) -> Rat {
        self.terms.get(&var).copied().unwrap_or(Rat::ZERO)
    }

    /// Iterator over `(var, coeff)` terms.
    pub fn terms(&self) -> impl Iterator<Item = (VarId, Rat)> + '_ {
        self.terms.iter().map(|(&v, &c)| (v, c))
    }

    /// Number of non-zero terms.
    #[must_use]
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True if the expression is zero.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Evaluates the expression at a point.
    ///
    /// # Panics
    ///
    /// Panics if a referenced variable index is out of range for `point`.
    #[must_use]
    pub fn eval(&self, point: &[Rat]) -> Rat {
        let mut acc = Rat::ZERO;
        for (v, c) in self.terms() {
            acc += c * point[v.index()];
        }
        acc
    }
}

impl FromIterator<(VarId, Rat)> for LinExpr {
    fn from_iter<T: IntoIterator<Item = (VarId, Rat)>>(iter: T) -> Self {
        let mut e = LinExpr::new();
        for (v, c) in iter {
            e.add_term(v, c);
        }
        e
    }
}

/// Constraint comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `expr <= rhs`.
    Le,
    /// `expr == rhs`.
    Eq,
    /// `expr >= rhs`.
    Ge,
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CmpOp::Le => "<=",
            CmpOp::Eq => "==",
            CmpOp::Ge => ">=",
        })
    }
}

/// One linear constraint `expr <op> rhs`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Constraint {
    /// Left-hand side.
    pub expr: LinExpr,
    /// Comparison.
    pub op: CmpOp,
    /// Right-hand side constant.
    pub rhs: Rat,
}

/// A linear/integer program: maximise `objective` subject to constraints,
/// `x >= 0`.
#[derive(Debug, Clone, Default)]
pub struct LpModel {
    /// Per variable: integral?
    integer: Vec<bool>,
    constraints: Vec<Constraint>,
    objective: LinExpr,
}

impl LpModel {
    /// Creates an empty model.
    #[must_use]
    pub fn new() -> LpModel {
        LpModel::default()
    }

    /// Adds a continuous variable (`x >= 0`).
    pub fn add_var(&mut self) -> VarId {
        self.integer.push(false);
        VarId(self.integer.len() - 1)
    }

    /// Adds an integer variable (`x >= 0`, integral).
    pub fn add_int_var(&mut self) -> VarId {
        let v = self.add_var();
        self.integer[v.index()] = true;
        v
    }

    /// Number of variables.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.integer.len()
    }

    /// Number of constraints.
    #[must_use]
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// True if the variable is integral.
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to this model.
    #[must_use]
    pub fn is_integer(&self, var: VarId) -> bool {
        self.integer[var.index()]
    }

    /// Adds `expr <op> rhs`.
    pub fn add_constraint(&mut self, expr: LinExpr, op: CmpOp, rhs: impl Into<Rat>) {
        self.constraints.push(Constraint {
            expr,
            op,
            rhs: rhs.into(),
        });
    }

    /// The constraints.
    #[must_use]
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Sets the (maximised) objective.
    pub fn set_objective(&mut self, objective: LinExpr) {
        self.objective = objective;
    }

    /// The objective expression.
    #[must_use]
    pub fn objective(&self) -> &LinExpr {
        &self.objective
    }

    /// All integer variables.
    pub fn integer_vars(&self) -> impl Iterator<Item = VarId> + '_ {
        self.integer
            .iter()
            .enumerate()
            .filter(|(_, &i)| i)
            .map(|(i, _)| VarId(i))
    }

    /// Checks whether a point satisfies every constraint (and non-negativity).
    #[must_use]
    pub fn is_feasible(&self, point: &[Rat]) -> bool {
        if point.len() != self.num_vars() {
            return false;
        }
        if point.iter().any(|&v| v < Rat::ZERO) {
            return false;
        }
        self.constraints.iter().all(|c| {
            let lhs = c.expr.eval(point);
            match c.op {
                CmpOp::Le => lhs <= c.rhs,
                CmpOp::Eq => lhs == c.rhs,
                CmpOp::Ge => lhs >= c.rhs,
            }
        })
    }
}

/// Result status of an LP/ILP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveStatus {
    /// An optimal solution was found.
    Optimal,
    /// The constraint system has no feasible point.
    Infeasible,
    /// The objective is unbounded above.
    Unbounded,
}

impl fmt::Display for SolveStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SolveStatus::Optimal => "optimal",
            SolveStatus::Infeasible => "infeasible",
            SolveStatus::Unbounded => "unbounded",
        })
    }
}

/// Solver-effort counters for one LP/ILP solve (accumulated over every
/// simplex phase and, for ILPs, every branch-and-bound node).
///
/// Statistics describe *how* the optimum was reached, not *what* it is:
/// two solves of the same model are equal ([`Solution`]'s `PartialEq`)
/// even when one was warm-started and pivoted less.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Total simplex pivots (all phases, both tiers).
    pub pivots: u64,
    /// Pivots spent in phase 1 (feasibility search).
    pub phase1_pivots: u64,
    /// Pivots taken under the Bland anti-cycling fallback.
    pub bland_pivots: u64,
    /// Solves that started from a reused basis instead of cold.
    pub warm_starts: u64,
    /// Solves that skipped phase 1 entirely thanks to a warm basis.
    pub phase1_skips: u64,
    /// Solves attempted on the speculative f64 fast path.
    pub f64_solves: u64,
    /// Fast-path solves whose terminal basis passed exact certification
    /// (the returned optimum came from the f64 simplex, proven exact).
    pub certified: u64,
    /// Fast-path solves rejected by the exact referee (or numerically
    /// abandoned) and re-run on the exact solver.
    pub fallbacks: u64,
    /// Eta-file refactorizations performed by the f64 simplex.
    pub eta_factors: u64,
    /// Exact basis factorizations the referee ran. A solve through a
    /// [`crate::SolveContext`] whose terminal basis was already proven
    /// nonsingular checks the f64 point instead and factorizes nothing.
    pub cert_factors: u64,
}

impl SolveStats {
    /// Adds `other`'s counters into `self`.
    pub fn absorb(&mut self, other: &SolveStats) {
        self.pivots += other.pivots;
        self.phase1_pivots += other.phase1_pivots;
        self.bland_pivots += other.bland_pivots;
        self.warm_starts += other.warm_starts;
        self.phase1_skips += other.phase1_skips;
        self.f64_solves += other.f64_solves;
        self.certified += other.certified;
        self.fallbacks += other.fallbacks;
        self.eta_factors += other.eta_factors;
        self.cert_factors += other.cert_factors;
    }
}

/// A solution (only meaningful when `status == Optimal`).
///
/// Equality compares the mathematical result (status, objective, values)
/// and deliberately ignores [`SolveStats`]: a warm-started solve that
/// found the same optimum with fewer pivots *is* the same solution.
#[derive(Debug, Clone)]
pub struct Solution {
    /// Solve status.
    pub status: SolveStatus,
    /// Objective value at the optimum.
    pub objective: Rat,
    /// Variable assignment.
    pub values: Vec<Rat>,
    /// Solver-effort counters (pivots, warm starts, phase-1 skips).
    pub stats: SolveStats,
}

impl PartialEq for Solution {
    fn eq(&self, other: &Solution) -> bool {
        self.status == other.status
            && self.objective == other.objective
            && self.values == other.values
    }
}

impl Eq for Solution {}

impl Solution {
    pub(crate) fn non_optimal(status: SolveStatus) -> Solution {
        Solution {
            status,
            objective: Rat::ZERO,
            values: Vec::new(),
            stats: SolveStats::default(),
        }
    }

    /// The value of `var` in the solution.
    ///
    /// # Panics
    ///
    /// Panics if the solution is not optimal or `var` is out of range.
    #[must_use]
    pub fn value(&self, var: VarId) -> Rat {
        assert_eq!(
            self.status,
            SolveStatus::Optimal,
            "no values in {} solution",
            self.status
        );
        self.values[var.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linexpr_accumulates_and_cancels() {
        let mut m = LpModel::new();
        let x = m.add_var();
        let y = m.add_var();
        let mut e = LinExpr::new();
        e.add_term(x, 2).add_term(y, 3).add_term(x, -2);
        assert_eq!(e.coeff(x), Rat::ZERO);
        assert_eq!(e.coeff(y), Rat::int(3));
        assert_eq!(e.len(), 1);
    }

    #[test]
    fn feasibility_check() {
        let mut m = LpModel::new();
        let x = m.add_var();
        let y = m.add_var();
        m.add_constraint(LinExpr::new().with_term(x, 1).with_term(y, 1), CmpOp::Le, 4);
        m.add_constraint(LinExpr::new().with_term(x, 1), CmpOp::Ge, 1);
        assert!(m.is_feasible(&[Rat::int(1), Rat::int(3)]));
        assert!(!m.is_feasible(&[Rat::int(0), Rat::int(3)])); // x >= 1 violated
        assert!(!m.is_feasible(&[Rat::int(2), Rat::int(3)])); // sum > 4
        assert!(!m.is_feasible(&[Rat::int(-1), Rat::int(0)])); // negativity
    }

    #[test]
    fn eval_matches_terms() {
        let mut m = LpModel::new();
        let x = m.add_var();
        let y = m.add_var();
        let e = LinExpr::new().with_term(x, 2).with_term(y, Rat::new(1, 2));
        assert_eq!(e.eval(&[Rat::int(3), Rat::int(4)]), Rat::int(8));
    }
}
