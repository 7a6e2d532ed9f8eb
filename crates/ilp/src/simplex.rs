//! The one LP path of `wcet-ilp`, and its exact tier: a sparse revised
//! simplex over exact rationals.
//!
//! Every LP this crate solves — a bare [`solve_lp`], a branch-and-bound
//! root, or a child (the model plus its branch trail as constraints) —
//! takes one path:
//!
//! 1. the speculative f64 tier (the private `fast` module) proposes a
//!    terminal basis, skipping phase 1 when the caller hands it a cached
//!    feasible basis of the same constraint system;
//! 2. the exact referee (the private `certify` module) certifies it;
//! 3. when certification fails, the exact simplex below solves the
//!    model from a cold start.
//!
//! The exact simplex:
//!
//! * Constraint columns are stored sparsely (`Vec<(row, Rat)>`); the
//!   working state is the basis, an explicit `B⁻¹` maintained by
//!   product-form pivots, and the basic solution `x_B = B⁻¹b`.
//! * Pricing is Dantzig (most-positive reduced cost) with a **Bland
//!   fallback** that engages after `BLAND_STREAK` consecutive
//!   degenerate pivots and disengages only on a strict objective
//!   improvement. Termination: an infinite pivot sequence would have an
//!   infinite all-degenerate tail, in which the fallback engages
//!   permanently, and Bland's rule admits no cycle — contradiction.
//! * It always starts cold and never hands out its phase-1 basis, so
//!   every cached basis has f64-phase-1 provenance and a warm solve
//!   replays the cold solve's trajectory (see `solve_lp_proven`).
//!
//! Exactness is untouched: every pivot runs over [`Rat`]. The
//! pre-refactor dense solver survives in [`crate::dense`] as the
//! differential-test oracle (`tests/simplex_equivalence.rs`).

use crate::model::{CmpOp, LpModel, Solution, SolveStats, SolveStatus};
use crate::rational::Rat;

/// Degenerate-pivot streak after which pricing falls back to Bland's
/// rule (and stays there until a strict objective improvement).
const BLAND_STREAK: u32 = 12;

/// Solves the LP relaxation of `model` (integrality markers are ignored).
///
/// The returned [`Solution`] carries exact rational variable values; its
/// `status` distinguishes optimal / infeasible / unbounded.
#[must_use]
pub fn solve_lp(model: &LpModel) -> Solution {
    solve_lp_proven(model, None, None).solution
}

/// [`solve_lp`] restricted to the exact tier: no f64 speculation, every
/// pivot over [`Rat`]. This is the differential-test oracle for the
/// certified fast path, and what that path falls back to.
#[must_use]
pub fn solve_lp_exact(model: &LpModel) -> Solution {
    solve_exact(model).solution
}

/// A reusable simplex basis: the basic column of every constraint row,
/// plus the dimensions it was taken from (reuse is refused on mismatch).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct WarmBasis {
    pub(crate) cols: Vec<usize>,
    pub(crate) num_rows: usize,
    pub(crate) num_cols: usize,
}

/// The full outcome of an LP solve: the solution plus the bases a caller
/// can reuse on later solves of the same constraint system.
#[derive(Debug, Clone)]
pub(crate) struct LpSolve {
    /// The solution (status, objective, values, stats).
    pub(crate) solution: Solution,
    /// The f64 tier's feasible basis, captured right after phase 1 —
    /// objective independent, so reusing it on the *same* constraint
    /// system with a *different* objective reproduces a cold solve
    /// minus phase 1. `None` when the solve fell back to the exact tier.
    pub(crate) feasible_basis: Option<WarmBasis>,
    /// The optimal basis, nonsingular by construction. `None` unless
    /// the status is optimal.
    pub(crate) optimal_basis: Option<WarmBasis>,
}

/// The one LP path: the f64 tier proposes a terminal basis, the exact
/// referee certifies it, and a refuted or numerically abandoned attempt
/// reruns on the exact tier from a cold start. Either way the returned
/// optimum is exact.
///
/// `warm` is a phase-1 feasible basis of an identical constraint system
/// (typically [`LpSolve::feasible_basis`] of an earlier solve); an
/// incompatible or stale one silently degrades to a cold f64 solve.
/// `proven` is a basis an earlier solve of the same system returned as
/// optimal, so a terminal basis equal to it is checked instead of
/// factorized — see the private `certify` module. Neither changes the
/// result, bit for bit.
pub(crate) fn solve_lp_proven(
    model: &LpModel,
    warm: Option<&WarmBasis>,
    proven: Option<&WarmBasis>,
) -> LpSolve {
    let attempt = match crate::fast::solve_certified(model, warm, proven) {
        Ok(certified) => return certified,
        Err(attempt_stats) => attempt_stats,
    };
    let mut fell_back = solve_exact(model);
    fell_back.solution.stats.absorb(&attempt);
    fell_back
}

/// The exact tier, always cold: a cached basis of f64 provenance could
/// steer it to a different (equally optimal) vertex than a cold exact
/// solve, breaking warm == cold bit-identity. For the same reason it
/// reports no feasible basis: a later warm f64 solve adopting a basis of
/// exact provenance would pivot from a start a cold f64 solve never
/// produces. Fallback-prone systems simply stay cold (correct, just
/// slower).
fn solve_exact(model: &LpModel) -> LpSolve {
    let mut t = Revised::build(model);
    t.start_cold();
    let status = if !t.phase1() {
        SolveStatus::Infeasible
    } else if !t.primal(&t.phase2_costs(model), false) {
        SolveStatus::Unbounded
    } else {
        SolveStatus::Optimal
    };
    LpSolve {
        optimal_basis: (status == SolveStatus::Optimal).then(|| t.warm_basis()),
        solution: t.finish(status, model),
        feasible_basis: None,
    }
}

/// The revised-simplex working instance: sparse structure + basis state.
/// The standard-form fields (`cols`, `rhs`, `artificial`, `n_struct`,
/// `init_basis`) double as the shared description the speculative f64
/// solver ([`crate::fast`]) and the exact referee ([`crate::certify`])
/// both read.
pub(crate) struct Revised {
    /// Sparse columns: `cols[j]` lists `(row, coefficient)`.
    pub(crate) cols: Vec<Vec<(usize, Rat)>>,
    /// Right-hand sides, normalized to `rhs >= 0`.
    pub(crate) rhs: Vec<Rat>,
    /// Per-column artificial marker.
    pub(crate) artificial: Vec<bool>,
    /// Number of structural (model) variables, columns `0..n_struct`.
    pub(crate) n_struct: usize,
    /// The cold-start basic column of each row (slack or artificial).
    pub(crate) init_basis: Vec<usize>,
    /// Basic column of each row.
    basis: Vec<usize>,
    /// Per-column: currently basic?
    in_basis: Vec<bool>,
    /// Explicit basis inverse, row-major.
    binv: Vec<Vec<Rat>>,
    /// Basic solution `B⁻¹ b`.
    xb: Vec<Rat>,
    /// Effort counters for this instance.
    stats: SolveStats,
}

impl Revised {
    /// Builds the sparse standard form of `model`. Row/column layout
    /// matches the dense oracle: rows keep model order with `rhs`
    /// normalized non-negative, columns are `[structural | per-row
    /// slack/surplus/artificial]`. The basis state stays empty until
    /// [`Revised::start_cold`]: the f64 tier and the referee read only
    /// the standard form.
    pub(crate) fn build(model: &LpModel) -> Revised {
        let n = model.num_vars();
        let m = model.num_constraints();
        let mut cols: Vec<Vec<(usize, Rat)>> = vec![Vec::new(); n];
        let mut rhs: Vec<Rat> = Vec::with_capacity(m);
        let mut ops: Vec<CmpOp> = Vec::with_capacity(m);
        for (i, c) in model.constraints().iter().enumerate() {
            let flip = c.rhs < Rat::ZERO;
            let op = match (c.op, flip) {
                (CmpOp::Le, true) => CmpOp::Ge,
                (CmpOp::Ge, true) => CmpOp::Le,
                (op, _) => op,
            };
            for (v, coeff) in c.expr.terms() {
                cols[v.index()].push((i, if flip { -coeff } else { coeff }));
            }
            rhs.push(if flip { -c.rhs } else { c.rhs });
            ops.push(op);
        }

        let mut artificial = vec![false; n];
        let mut init_basis = Vec::with_capacity(m);
        for (i, op) in ops.iter().enumerate() {
            match op {
                CmpOp::Le => {
                    cols.push(vec![(i, Rat::ONE)]); // slack
                    artificial.push(false);
                    init_basis.push(cols.len() - 1);
                }
                CmpOp::Ge => {
                    cols.push(vec![(i, -Rat::ONE)]); // surplus
                    artificial.push(false);
                    cols.push(vec![(i, Rat::ONE)]); // artificial
                    artificial.push(true);
                    init_basis.push(cols.len() - 1);
                }
                CmpOp::Eq => {
                    cols.push(vec![(i, Rat::ONE)]); // artificial
                    artificial.push(true);
                    init_basis.push(cols.len() - 1);
                }
            }
        }

        Revised {
            cols,
            rhs,
            artificial,
            n_struct: n,
            init_basis,
            basis: Vec::new(),
            in_basis: Vec::new(),
            binv: Vec::new(),
            xb: Vec::new(),
            stats: SolveStats::default(),
        }
    }

    fn num_rows(&self) -> usize {
        self.rhs.len()
    }

    fn num_cols(&self) -> usize {
        self.cols.len()
    }

    fn has_artificials(&self) -> bool {
        self.artificial.iter().any(|&a| a)
    }

    /// Enters the cold-start state: unit basis, `B⁻¹ = I`, `x_B = b`.
    fn start_cold(&mut self) {
        let m = self.num_rows();
        self.basis = self.init_basis.clone();
        self.in_basis = vec![false; self.num_cols()];
        for &b in &self.basis {
            self.in_basis[b] = true;
        }
        self.binv = identity(m);
        self.xb = self.rhs.clone();
    }

    /// The current basis as a reusable [`WarmBasis`].
    fn warm_basis(&self) -> WarmBasis {
        WarmBasis {
            cols: self.basis.clone(),
            num_rows: self.num_rows(),
            num_cols: self.num_cols(),
        }
    }

    /// `B⁻¹ · a_col` via the sparse column.
    fn direction(&self, col: usize) -> Vec<Rat> {
        let m = self.num_rows();
        let mut w = vec![Rat::ZERO; m];
        for &(r, v) in &self.cols[col] {
            for (wi, bi) in w.iter_mut().zip(&self.binv) {
                let b = bi[r];
                if !b.is_zero() {
                    *wi += b * v;
                }
            }
        }
        w
    }

    /// Dual prices `y = c_B B⁻¹` for cost vector `c`.
    fn dual_prices(&self, c: &[Rat]) -> Vec<Rat> {
        let m = self.num_rows();
        let mut y = vec![Rat::ZERO; m];
        for (i, &bi) in self.basis.iter().enumerate() {
            let cb = c[bi];
            if cb.is_zero() {
                continue;
            }
            for (yk, &bk) in y.iter_mut().zip(&self.binv[i]) {
                if !bk.is_zero() {
                    *yk += cb * bk;
                }
            }
        }
        y
    }

    /// Reduced cost `c_j - y · a_j`.
    fn reduced_cost(&self, c: &[Rat], y: &[Rat], j: usize) -> Rat {
        let mut r = c[j];
        for &(row, v) in &self.cols[j] {
            let yv = y[row];
            if !yv.is_zero() {
                r -= yv * v;
            }
        }
        r
    }

    fn objective_of(&self, c: &[Rat]) -> Rat {
        let mut z = Rat::ZERO;
        for (i, &bi) in self.basis.iter().enumerate() {
            let cb = c[bi];
            if !cb.is_zero() {
                z += cb * self.xb[i];
            }
        }
        z
    }

    /// Product-form update of `B⁻¹` and `x_B` for a pivot on `row` with
    /// direction `w` (the entering column's `B⁻¹ a_j`).
    fn eta_update(&mut self, row: usize, w: &[Rat]) {
        let inv = w[row].recip();
        let m = self.num_rows();
        for k in 0..m {
            let v = self.binv[row][k];
            if !v.is_zero() {
                self.binv[row][k] = v * inv;
            }
        }
        self.xb[row] = self.xb[row] * inv;
        for i in 0..m {
            if i == row || w[i].is_zero() {
                continue;
            }
            let f = w[i];
            // Split borrows: the pivot row is read, row i is written.
            let (pivot_row, target_row) = if i < row {
                let (lo, hi) = self.binv.split_at_mut(row);
                (&hi[0], &mut lo[i])
            } else {
                let (lo, hi) = self.binv.split_at_mut(i);
                (&lo[row], &mut hi[0])
            };
            for (t, &p) in target_row.iter_mut().zip(pivot_row) {
                if !p.is_zero() {
                    *t -= f * p;
                }
            }
            let adj = f * self.xb[row];
            self.xb[i] -= adj;
        }
    }

    fn pivot(&mut self, row: usize, col: usize, w: &[Rat]) {
        crate::budget::charge_pivot();
        self.eta_update(row, w);
        self.in_basis[self.basis[row]] = false;
        self.in_basis[col] = true;
        self.basis[row] = col;
        self.stats.pivots += 1;
    }

    /// Primal simplex for cost vector `c`: Dantzig pricing with the
    /// Bland fallback. Artificial columns may enter only in phase 1.
    /// Returns `false` if the objective is unbounded above.
    fn primal(&mut self, c: &[Rat], phase1: bool) -> bool {
        let mut bland = false;
        let mut streak = 0u32;
        loop {
            let y = self.dual_prices(c);
            let mut entering: Option<(usize, Rat)> = None;
            for j in 0..self.num_cols() {
                if self.in_basis[j] || (!phase1 && self.artificial[j]) {
                    continue;
                }
                let r = self.reduced_cost(c, &y, j);
                if r > Rat::ZERO {
                    if bland {
                        entering = Some((j, r)); // smallest index: Bland
                        break;
                    }
                    // Dantzig: most positive, ties to the smaller index.
                    if entering.as_ref().is_none_or(|(_, br)| r > *br) {
                        entering = Some((j, r));
                    }
                }
            }
            let Some((col, _)) = entering else {
                return true; // optimal
            };
            let w = self.direction(col);
            // Ratio test; tie-break on smallest basic variable index
            // (with Bland entering this is exactly Bland's rule).
            let mut best: Option<(usize, Rat)> = None;
            for (i, wi) in w.iter().enumerate() {
                if *wi > Rat::ZERO {
                    let ratio = self.xb[i] / *wi;
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
            let Some((row, ratio)) = best else {
                return false; // unbounded direction
            };
            // Attribute the pivot to the rule that actually selected its
            // entering column (the streak update below only affects the
            // *next* iteration's pricing).
            if bland {
                self.stats.bland_pivots += 1;
            }
            if ratio.is_zero() {
                streak += 1;
                if streak >= BLAND_STREAK {
                    bland = true;
                }
            } else {
                streak = 0;
                bland = false;
            }
            if phase1 {
                self.stats.phase1_pivots += 1;
            }
            self.pivot(row, col, &w);
        }
    }

    /// Phase 1: drive the artificial variables to zero. Returns `false`
    /// if the model is infeasible. On success every remaining basic
    /// artificial sits in a redundant row (its transformed row is zero on
    /// all non-artificial columns), where it is provably inert: no later
    /// pivot can move it or its row (see `drive_out_artificials`).
    fn phase1(&mut self) -> bool {
        if !self.has_artificials() {
            return true;
        }
        let c1: Vec<Rat> = self
            .artificial
            .iter()
            .map(|&a| if a { -Rat::ONE } else { Rat::ZERO })
            .collect();
        let bounded = self.primal(&c1, true);
        debug_assert!(bounded, "phase 1 is never unbounded (objective <= 0)");
        if self.objective_of(&c1) < Rat::ZERO {
            return false;
        }
        self.drive_out_artificials();
        true
    }

    /// Pivots zero-level basic artificials out wherever their row has a
    /// nonzero transformed entry on a non-artificial column. Rows where
    /// it has none are redundant: for every non-artificial column `j`,
    /// `(B⁻¹a_j)` is zero in that position, and the product-form update
    /// preserves that zero under any pivot with a non-artificial entering
    /// column — the artificial stays basic at exactly zero forever.
    fn drive_out_artificials(&mut self) {
        for row in 0..self.num_rows() {
            if !self.artificial[self.basis[row]] {
                continue;
            }
            let col = (0..self.num_cols()).find(|&j| {
                if self.artificial[j] || self.in_basis[j] {
                    return false;
                }
                let mut alpha = Rat::ZERO;
                for &(r, v) in &self.cols[j] {
                    let b = self.binv[row][r];
                    if !b.is_zero() {
                        alpha += b * v;
                    }
                }
                !alpha.is_zero()
            });
            if let Some(col) = col {
                // Degenerate pivot (the row is at zero): swaps the basis
                // without moving x_B.
                let w = self.direction(col);
                self.pivot(row, col, &w);
            }
        }
    }

    /// The phase-2 cost vector: model objective over structural columns.
    pub(crate) fn phase2_costs(&self, model: &LpModel) -> Vec<Rat> {
        let mut c = vec![Rat::ZERO; self.num_cols()];
        for (v, coeff) in model.objective().terms() {
            c[v.index()] = coeff;
        }
        c
    }

    /// Packages the final state as a [`Solution`].
    fn finish(&self, status: SolveStatus, model: &LpModel) -> Solution {
        if status != SolveStatus::Optimal {
            let mut s = Solution::non_optimal(status);
            s.stats = self.stats;
            return s;
        }
        let mut values = vec![Rat::ZERO; self.n_struct];
        for (i, &bi) in self.basis.iter().enumerate() {
            if bi < self.n_struct {
                values[bi] = self.xb[i];
            }
        }
        let objective = model.objective().eval(&values);
        Solution {
            status: SolveStatus::Optimal,
            objective,
            values,
            stats: self.stats,
        }
    }
}

fn identity(m: usize) -> Vec<Vec<Rat>> {
    let mut id = vec![vec![Rat::ZERO; m]; m];
    for (i, row) in id.iter_mut().enumerate() {
        row[i] = Rat::ONE;
    }
    id
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
    fn textbook_max() {
        // max 3x + 2y  s.t.  x + y <= 4,  x + 3y <= 6,  x >= 0, y >= 0.
        // Optimum at (4, 0): objective 12.
        let mut m = LpModel::new();
        let x = m.add_var();
        let y = m.add_var();
        m.add_constraint(expr(&[(x, 1), (y, 1)]), CmpOp::Le, 4);
        m.add_constraint(expr(&[(x, 1), (y, 3)]), CmpOp::Le, 6);
        m.set_objective(expr(&[(x, 3), (y, 2)]));
        let s = solve_lp(&m);
        assert_eq!(s.status, SolveStatus::Optimal);
        assert_eq!(s.objective, Rat::int(12));
        assert_eq!(s.value(x), Rat::int(4));
        assert_eq!(s.value(y), Rat::ZERO);
        assert!(s.stats.pivots > 0);
    }

    #[test]
    fn fractional_optimum() {
        // max x + y  s.t.  2x + 2y <= 3 → obj 3/2 on the x+y=3/2 facet.
        let mut m = LpModel::new();
        let x = m.add_var();
        let y = m.add_var();
        m.add_constraint(expr(&[(x, 2), (y, 2)]), CmpOp::Le, 3);
        m.set_objective(expr(&[(x, 1), (y, 1)]));
        let s = solve_lp(&m);
        assert_eq!(s.status, SolveStatus::Optimal);
        assert_eq!(s.objective, Rat::new(3, 2));
    }

    #[test]
    fn detects_infeasible() {
        // x <= 1 and x >= 2.
        let mut m = LpModel::new();
        let x = m.add_var();
        m.add_constraint(expr(&[(x, 1)]), CmpOp::Le, 1);
        m.add_constraint(expr(&[(x, 1)]), CmpOp::Ge, 2);
        m.set_objective(expr(&[(x, 1)]));
        assert_eq!(solve_lp(&m).status, SolveStatus::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        let mut m = LpModel::new();
        let x = m.add_var();
        let y = m.add_var();
        m.add_constraint(expr(&[(y, 1)]), CmpOp::Le, 5);
        m.set_objective(expr(&[(x, 1)]));
        assert_eq!(solve_lp(&m).status, SolveStatus::Unbounded);
    }

    #[test]
    fn equality_constraints() {
        // max 2x + y  s.t.  x + y == 3, x <= 1  →  x=1, y=2.
        let mut m = LpModel::new();
        let x = m.add_var();
        let y = m.add_var();
        m.add_constraint(expr(&[(x, 1), (y, 1)]), CmpOp::Eq, 3);
        m.add_constraint(expr(&[(x, 1)]), CmpOp::Le, 1);
        m.set_objective(expr(&[(x, 2), (y, 1)]));
        let s = solve_lp(&m);
        assert_eq!(s.status, SolveStatus::Optimal);
        assert_eq!(s.objective, Rat::int(4));
        assert_eq!(s.value(x), Rat::int(1));
        assert_eq!(s.value(y), Rat::int(2));
    }

    #[test]
    fn negative_rhs_normalized() {
        // -x <= -2  ⇔  x >= 2; max -x  → x = 2, obj -2.
        let mut m = LpModel::new();
        let x = m.add_var();
        m.add_constraint(expr(&[(x, -1)]), CmpOp::Le, -2);
        m.add_constraint(expr(&[(x, 1)]), CmpOp::Le, 10);
        m.set_objective(expr(&[(x, -1)]));
        let s = solve_lp(&m);
        assert_eq!(s.status, SolveStatus::Optimal);
        assert_eq!(s.objective, Rat::int(-2));
    }

    #[test]
    fn degenerate_does_not_cycle() {
        // Classic degeneracy: redundant constraints through the optimum.
        let mut m = LpModel::new();
        let x = m.add_var();
        let y = m.add_var();
        m.add_constraint(expr(&[(x, 1), (y, 1)]), CmpOp::Le, 2);
        m.add_constraint(expr(&[(x, 1)]), CmpOp::Le, 2);
        m.add_constraint(expr(&[(y, 1)]), CmpOp::Le, 2);
        m.add_constraint(expr(&[(x, 2), (y, 2)]), CmpOp::Le, 4);
        m.set_objective(expr(&[(x, 1), (y, 1)]));
        let s = solve_lp(&m);
        assert_eq!(s.status, SolveStatus::Optimal);
        assert_eq!(s.objective, Rat::int(2));
    }

    #[test]
    fn redundant_equalities_kept_inert() {
        // x + y == 2 twice: the duplicate row keeps a zero-level
        // artificial basic; the solve must still reach the optimum.
        let mut m = LpModel::new();
        let x = m.add_var();
        let y = m.add_var();
        m.add_constraint(expr(&[(x, 1), (y, 1)]), CmpOp::Eq, 2);
        m.add_constraint(expr(&[(x, 1), (y, 1)]), CmpOp::Eq, 2);
        m.set_objective(expr(&[(x, 1)]));
        let s = solve_lp(&m);
        assert_eq!(s.status, SolveStatus::Optimal);
        assert_eq!(s.objective, Rat::int(2));
        assert!(m.is_feasible(&s.values));
    }

    #[test]
    fn solution_point_is_feasible() {
        let mut m = LpModel::new();
        let x = m.add_var();
        let y = m.add_var();
        let z = m.add_var();
        m.add_constraint(expr(&[(x, 1), (y, 2), (z, 1)]), CmpOp::Le, 10);
        m.add_constraint(expr(&[(x, 1), (y, -1)]), CmpOp::Ge, 1);
        m.add_constraint(expr(&[(z, 1)]), CmpOp::Eq, 2);
        m.set_objective(expr(&[(x, 1), (y, 1), (z, 1)]));
        let s = solve_lp(&m);
        assert_eq!(s.status, SolveStatus::Optimal);
        assert!(m.is_feasible(&s.values));
    }

    #[test]
    fn warm_start_skips_phase1_and_matches_cold() {
        // An equality-heavy model (phase 1 does real work), re-solved
        // with a different objective from the cached feasible basis.
        let mut m = LpModel::new();
        let x = m.add_var();
        let y = m.add_var();
        let z = m.add_var();
        m.add_constraint(expr(&[(x, 1), (y, 1), (z, 1)]), CmpOp::Eq, 6);
        m.add_constraint(expr(&[(x, 1), (y, -1)]), CmpOp::Ge, 1);
        m.add_constraint(expr(&[(z, 1)]), CmpOp::Le, 3);
        m.set_objective(expr(&[(x, 1), (y, 2), (z, 3)]));
        let first = solve_lp_proven(&m, None, None);
        assert_eq!(first.solution.status, SolveStatus::Optimal);
        let basis = first.feasible_basis.expect("feasible");

        // New objective, same constraints.
        m.set_objective(expr(&[(x, 5), (y, 1), (z, 1)]));
        let cold = solve_lp_proven(&m, None, None);
        let warm = solve_lp_proven(&m, Some(&basis), None);
        assert_eq!(warm.solution, cold.solution); // bit-identical result
        assert_eq!(warm.solution.stats.warm_starts, 1);
        assert_eq!(warm.solution.stats.phase1_skips, 1);
        assert_eq!(warm.solution.stats.phase1_pivots, 0);
        assert!(cold.solution.stats.phase1_pivots > 0);
    }

    #[test]
    fn stale_warm_basis_degrades_to_cold() {
        let mut m = LpModel::new();
        let x = m.add_var();
        m.add_constraint(expr(&[(x, 1)]), CmpOp::Le, 4);
        m.set_objective(expr(&[(x, 1)]));
        let bogus = WarmBasis {
            cols: vec![7, 9],
            num_rows: 2,
            num_cols: 11,
        };
        let s = solve_lp_proven(&m, Some(&bogus), None);
        assert_eq!(s.solution.status, SolveStatus::Optimal);
        assert_eq!(s.solution.objective, Rat::int(4));
        assert_eq!(s.solution.stats.warm_starts, 0);
    }

    #[test]
    fn stale_basis_cannot_smuggle_infeasibility_past_phase1() {
        // Cache the feasible basis of {x+y==2, x+y==2} — the redundant
        // row keeps an inert artificial basic at zero. Reusing it on the
        // dimension-compatible but infeasible {x+y==2, x+y==3} would put
        // that artificial at level 1; the warm start must be refused and
        // the cold solve must report infeasibility.
        let mut a = LpModel::new();
        let x = a.add_var();
        let y = a.add_var();
        a.add_constraint(expr(&[(x, 1), (y, 1)]), CmpOp::Eq, 2);
        a.add_constraint(expr(&[(x, 1), (y, 1)]), CmpOp::Eq, 2);
        a.set_objective(expr(&[(x, 1)]));
        let basis = solve_lp_proven(&a, None, None)
            .feasible_basis
            .expect("feasible");

        let mut b = LpModel::new();
        let x = b.add_var();
        let y = b.add_var();
        b.add_constraint(expr(&[(x, 1), (y, 1)]), CmpOp::Eq, 2);
        b.add_constraint(expr(&[(x, 1), (y, 1)]), CmpOp::Eq, 3);
        b.set_objective(expr(&[(x, 1)]));
        let s = solve_lp_proven(&b, Some(&basis), None);
        assert_eq!(s.solution.status, SolveStatus::Infeasible);
        assert_eq!(s.solution.stats.warm_starts, 0);
    }
}
