//! The pre-refactor dense-tableau two-phase primal simplex (Bland's
//! rule), preserved as the **differential-test oracle** for the sparse
//! revised solver in [`crate::simplex`].
//!
//! Behind the `dense` feature (on by default). Nothing in the production
//! path calls this; `tests/simplex_equivalence.rs` cross-checks every
//! proptest-generated model against it, and the `ilp` criterion bench
//! uses it as the cold baseline. Do not "improve" this module — its value
//! is being the unchanged reference implementation.

use crate::model::{CmpOp, LpModel, Solution, SolveStatus};
use crate::rational::Rat;

/// Solves the LP relaxation of `model` with the dense reference solver.
///
/// The returned [`Solution`] carries exact rational variable values; its
/// `status` distinguishes optimal / infeasible / unbounded.
#[must_use]
pub fn solve_lp_dense(model: &LpModel) -> Solution {
    Simplex::build(model).solve(model)
}

struct Simplex {
    /// Dense tableau rows (canonical form is maintained across pivots).
    a: Vec<Vec<Rat>>,
    /// Right-hand sides (kept non-negative).
    b: Vec<Rat>,
    /// Basic variable (column index) of each row.
    basis: Vec<usize>,
    /// Per-column: is this an artificial variable?
    artificial: Vec<bool>,
    /// Number of structural (model) variables; they occupy columns `0..n`.
    n_struct: usize,
}

impl Simplex {
    fn build(model: &LpModel) -> Simplex {
        let n = model.num_vars();
        let m = model.num_constraints();
        let mut rows: Vec<Vec<Rat>> = Vec::with_capacity(m);
        let mut b: Vec<Rat> = Vec::with_capacity(m);
        let mut ops: Vec<CmpOp> = Vec::with_capacity(m);
        for c in model.constraints() {
            let mut row = vec![Rat::ZERO; n];
            for (v, coeff) in c.expr.terms() {
                row[v.index()] = coeff;
            }
            let (row, rhs, op) = if c.rhs < Rat::ZERO {
                // Normalize to rhs >= 0.
                let flipped = match c.op {
                    CmpOp::Le => CmpOp::Ge,
                    CmpOp::Ge => CmpOp::Le,
                    CmpOp::Eq => CmpOp::Eq,
                };
                (row.iter().map(|&x| -x).collect(), -c.rhs, flipped)
            } else {
                (row, c.rhs, c.op)
            };
            rows.push(row);
            b.push(rhs);
            ops.push(op);
        }

        // Column layout: [structural | slacks/surplus | artificials].
        let mut extra_cols = 0usize;
        for op in &ops {
            extra_cols += match op {
                CmpOp::Le => 1, // slack
                CmpOp::Ge => 2, // surplus + artificial
                CmpOp::Eq => 1, // artificial
            };
        }
        let total = n + extra_cols;
        let mut a: Vec<Vec<Rat>> = rows
            .into_iter()
            .map(|mut r| {
                r.resize(total, Rat::ZERO);
                r
            })
            .collect();
        let mut artificial = vec![false; total];
        let mut basis = vec![usize::MAX; m];
        let mut next = n;
        for (i, op) in ops.iter().enumerate() {
            match op {
                CmpOp::Le => {
                    a[i][next] = Rat::ONE; // slack
                    basis[i] = next;
                    next += 1;
                }
                CmpOp::Ge => {
                    a[i][next] = -Rat::ONE; // surplus
                    next += 1;
                    a[i][next] = Rat::ONE; // artificial
                    artificial[next] = true;
                    basis[i] = next;
                    next += 1;
                }
                CmpOp::Eq => {
                    a[i][next] = Rat::ONE; // artificial
                    artificial[next] = true;
                    basis[i] = next;
                    next += 1;
                }
            }
        }
        debug_assert_eq!(next, total);
        Simplex {
            a,
            b,
            basis,
            artificial,
            n_struct: n,
        }
    }

    fn num_cols(&self) -> usize {
        self.artificial.len()
    }

    /// Reduced-cost row for cost vector `c`, canonicalized w.r.t. the
    /// current basis: `r_j = c_j - Σ_i c_{basis(i)} a_ij`.
    fn reduced_costs(&self, c: &[Rat]) -> Vec<Rat> {
        let mut r = c.to_vec();
        for (i, &bi) in self.basis.iter().enumerate() {
            let cb = c[bi];
            if !cb.is_zero() {
                for (rj, &aij) in r.iter_mut().zip(&self.a[i]) {
                    *rj -= cb * aij;
                }
            }
        }
        r
    }

    fn objective_value(&self, c: &[Rat]) -> Rat {
        let mut z = Rat::ZERO;
        for (i, &bi) in self.basis.iter().enumerate() {
            z += c[bi] * self.b[i];
        }
        z
    }

    fn pivot(&mut self, row: usize, col: usize) {
        let p = self.a[row][col];
        debug_assert!(!p.is_zero(), "pivot on zero element");
        let inv = p.recip();
        for j in 0..self.num_cols() {
            self.a[row][j] = self.a[row][j] * inv;
        }
        self.b[row] = self.b[row] * inv;
        for i in 0..self.a.len() {
            if i == row {
                continue;
            }
            let f = self.a[i][col];
            if f.is_zero() {
                continue;
            }
            for j in 0..self.num_cols() {
                let adj = f * self.a[row][j];
                self.a[i][j] -= adj;
            }
            let adj = f * self.b[row];
            self.b[i] -= adj;
        }
        self.basis[row] = col;
    }

    /// Runs primal simplex for cost vector `c` with Bland's rule.
    /// `allow(col)` filters candidate entering columns.
    /// Returns `false` if the problem is unbounded in this phase.
    fn optimize(&mut self, c: &[Rat], allow: impl Fn(usize) -> bool) -> bool {
        loop {
            let r = self.reduced_costs(c);
            // Bland: smallest-index column with positive reduced cost.
            let entering = (0..self.num_cols())
                .find(|&j| allow(j) && !self.basis.contains(&j) && r[j] > Rat::ZERO);
            let Some(col) = entering else {
                return true; // optimal
            };
            // Ratio test; Bland tie-break on smallest basis variable index.
            let mut best: Option<(usize, Rat)> = None;
            for i in 0..self.a.len() {
                if self.a[i][col] > Rat::ZERO {
                    let ratio = self.b[i] / self.a[i][col];
                    let better = match &best {
                        None => true,
                        Some((bi, br)) => {
                            ratio < *br || (ratio == *br && self.basis[i] < self.basis[*bi])
                        }
                    };
                    if better {
                        best = Some((i, ratio));
                    }
                }
            }
            let Some((row, _)) = best else {
                return false; // unbounded direction
            };
            self.pivot(row, col);
        }
    }

    fn solve(mut self, model: &LpModel) -> Solution {
        let total = self.num_cols();

        // Phase 1: maximize -(sum of artificials); feasible iff optimum 0.
        if self.artificial.iter().any(|&x| x) {
            let c1: Vec<Rat> = (0..total)
                .map(|j| {
                    if self.artificial[j] {
                        -Rat::ONE
                    } else {
                        Rat::ZERO
                    }
                })
                .collect();
            let ok = self.optimize(&c1, |_| true);
            debug_assert!(ok, "phase 1 is never unbounded (objective <= 0)");
            if self.objective_value(&c1) < Rat::ZERO {
                return Solution::non_optimal(SolveStatus::Infeasible);
            }
            // Drive remaining artificial basics (necessarily at 0) out, or
            // drop redundant rows.
            let mut row = 0;
            while row < self.a.len() {
                if self.artificial[self.basis[row]] {
                    let col =
                        (0..total).find(|&j| !self.artificial[j] && !self.a[row][j].is_zero());
                    match col {
                        Some(c) => self.pivot(row, c),
                        None => {
                            // Redundant constraint; remove the row.
                            self.a.remove(row);
                            self.b.remove(row);
                            self.basis.remove(row);
                            continue;
                        }
                    }
                }
                row += 1;
            }
        }

        // Phase 2: the real objective over structural columns only.
        let mut c2 = vec![Rat::ZERO; total];
        for (v, coeff) in model.objective().terms() {
            c2[v.index()] = coeff;
        }
        let artificial = self.artificial.clone();
        if !self.optimize(&c2, |j| !artificial[j]) {
            return Solution::non_optimal(SolveStatus::Unbounded);
        }

        let mut values = vec![Rat::ZERO; self.n_struct];
        for (i, &bi) in self.basis.iter().enumerate() {
            if bi < self.n_struct {
                values[bi] = self.b[i];
            }
        }
        let objective = model.objective().eval(&values);
        Solution {
            status: SolveStatus::Optimal,
            objective,
            values,
            stats: crate::model::SolveStats::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LinExpr, LpModel};

    fn expr(terms: &[(crate::model::VarId, i64)]) -> LinExpr {
        let mut e = LinExpr::new();
        for &(v, c) in terms {
            e.add_term(v, c);
        }
        e
    }

    #[test]
    fn oracle_still_solves_the_textbook_model() {
        // max 3x + 2y  s.t.  x + y <= 4,  x + 3y <= 6  → 12 at (4, 0).
        let mut m = LpModel::new();
        let x = m.add_var();
        let y = m.add_var();
        m.add_constraint(expr(&[(x, 1), (y, 1)]), CmpOp::Le, 4);
        m.add_constraint(expr(&[(x, 1), (y, 3)]), CmpOp::Le, 6);
        m.set_objective(expr(&[(x, 3), (y, 2)]));
        let s = solve_lp_dense(&m);
        assert_eq!(s.status, SolveStatus::Optimal);
        assert_eq!(s.objective, Rat::int(12));
    }
}
