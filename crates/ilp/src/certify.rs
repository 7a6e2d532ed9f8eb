//! The exact referee of the two-tier LP kernel.
//!
//! [`certify_optimal`] takes the *terminal basis* proposed by the f64
//! tier ([`crate::fast`]) and proves, entirely over [`Rat`], that the
//! basis is an optimal basis of the model:
//!
//! 1. **invertibility** — a sparse product-form factorization of the
//!    basis columns succeeds (dependent column sets are refuted);
//! 2. **primal feasibility** — `x_B = B⁻¹b ≥ 0`, with every basic
//!    artificial exactly at zero (a nonzero artificial level means the
//!    basis does not represent a feasible point of the *model*);
//! 3. **dual optimality** — the reduced cost `c_j − yᵀa_j` of every
//!    nonbasic non-artificial column is `≤ 0`, where `y = c_B B⁻¹`.
//!
//! Those three facts imply the basic solution is an exact optimum: for
//! any feasible `x'` (artificials pinned at zero),
//! `cᵀx' = cᵀx_B + Σ_nonbasic r_j·x'_j ≤ cᵀx_B` since every admissible
//! nonbasic `x'_j ≥ 0` carries `r_j ≤ 0`. The returned point is computed
//! in exact arithmetic from the basis — no float ever reaches a result.
//!
//! Unlike the exact simplex's explicit dense `B⁻¹` (O(m²) per pivot),
//! the factorization here is a one-shot **sparse eta file**: columns are
//! eliminated in ascending (nnz, index) order with largest-free-row
//! pivoting, which keeps slack-heavy IPET bases near-triangular, so the
//! whole certificate costs roughly one sparse triangular solve instead
//! of a dense inversion.
//!
//! **Check first.** A sweep re-solves one constraint system under many
//! objectives and keeps landing on the same terminal basis. Once a
//! factorization has proven that basis nonsingular, [`check_proposal`]
//! certifies a later solve without factorizing: it rounds the f64
//! tier's own basic point `x̂_B` and duals `ŷ` to integers and checks,
//! exactly and in O(nnz), that `B·x̂_B = b`, `x̂_B ≥ 0`, every basic
//! artificial is zero, and `c_j − ŷᵀa_j` is zero on every basic column
//! and `≤ 0` on every nonbasic non-artificial one. By weak duality that
//! proves `x̂` optimal on its own: for any feasible `x'` (artificials at
//! zero), `cᵀx' ≤ ŷᵀAx' = ŷᵀb = ŷᵀB·x̂_B = cᵀx̂`. Nonsingularity adds
//! identity: `B·x̂_B = b` forces `x̂_B = B⁻¹b` and `ŷᵀB = c_B` forces
//! `ŷ = c_B B⁻¹`, so the check accepts exactly what the factorization
//! would and returns the same point.

use crate::rational::Rat;
use crate::simplex::Revised;

/// One exact product-form transformation (the `Rat` twin of the fast
/// tier's eta): `entries` holds the full eta column, pivot included.
struct Eta {
    row: usize,
    entries: Vec<(usize, Rat)>,
}

impl Eta {
    /// `w ← E·w` on a dense exact vector.
    fn ftran(&self, w: &mut [Rat]) {
        let wr = w[self.row];
        if wr.is_zero() {
            return;
        }
        for &(i, v) in &self.entries {
            if i == self.row {
                w[i] = v * wr;
            } else {
                w[i] += v * wr;
            }
        }
    }

    /// `zᵀ ← zᵀ·E` on a dense exact vector.
    fn btran(&self, z: &mut [Rat]) {
        let mut acc = Rat::ZERO;
        for &(i, v) in &self.entries {
            if !z[i].is_zero() && !v.is_zero() {
                acc += z[i] * v;
            }
        }
        z[self.row] = acc;
    }
}

/// The certified exact basic point: `x_basic[i]` is the value of the
/// basis column assigned to row `i` of the proposed basis (in the order
/// the basis was given).
pub(crate) struct CertifiedPoint {
    pub x_basic: Vec<Rat>,
}

/// Below this magnitude every integer is an exact `f64` (2⁵³).
const EXACT_F64_INT: f64 = 9_007_199_254_740_992.0;
/// How close (relative to `1 + |v|`) a float must lie to an integer to
/// be proposed as that integer. It only decides whether a proposal is
/// formed at all — the exact check decides everything else.
const ROUND_TOL: f64 = 1e-6;

/// Each value rounded to its nearest integer, or `None` if any value is
/// not within [`ROUND_TOL`] of one.
fn round_to_integers(values: &[f64]) -> Option<Vec<Rat>> {
    values
        .iter()
        .map(|&v| {
            let r = v.round();
            (r.abs() < EXACT_F64_INT && (v - r).abs() <= ROUND_TOL * (1.0 + v.abs()))
                .then(|| Rat::int(r as i128))
        })
        .collect()
}

/// The reduced cost `c_j − yᵀa_j` of the sparse column `col`.
fn reduced_cost(c_j: Rat, col: &[(usize, Rat)], y: &[Rat]) -> Rat {
    let mut r = c_j;
    for &(row, v) in col {
        if !y[row].is_zero() {
            r -= y[row] * v;
        }
    }
    r
}

/// Checks the f64 tier's proposal for `basis_cols` — its basic point
/// `xb` (indexed like `basis_cols`) and duals `y`, rounded to integers
/// — as a weak-duality certificate of optimality under the phase-2
/// costs `c` (see the module docs). Returns the exact basic point, or
/// `None` if a value does not round or any condition fails.
pub(crate) fn check_proposal(
    rev: &Revised,
    basis_cols: &[usize],
    c: &[Rat],
    xb: &[f64],
    y: &[f64],
) -> Option<CertifiedPoint> {
    let m = rev.rhs.len();
    if basis_cols.len() != m || xb.len() != m || y.len() != m {
        return None;
    }
    let mut in_basis = vec![false; rev.cols.len()];
    for &col in basis_cols {
        if col >= in_basis.len() || std::mem::replace(&mut in_basis[col], true) {
            return None;
        }
    }
    let x_basic = round_to_integers(xb)?;
    let y = round_to_integers(y)?;

    // Primal: x̂_B ≥ 0, basic artificials at zero, B·x̂_B = b.
    let mut residual = rev.rhs.clone();
    for (&col, &x) in basis_cols.iter().zip(&x_basic) {
        if x < Rat::ZERO || (rev.artificial[col] && !x.is_zero()) {
            return None;
        }
        if !x.is_zero() {
            for &(row, v) in &rev.cols[col] {
                residual[row] -= v * x;
            }
        }
    }
    if residual.iter().any(|r| !r.is_zero()) {
        return None;
    }

    // Dual: zero reduced cost on the basis, none positive off it
    // (nonbasic artificials are pinned at zero and need no price).
    for (j, col) in rev.cols.iter().enumerate() {
        if !in_basis[j] && rev.artificial[j] {
            continue;
        }
        let r = reduced_cost(c[j], col, &y);
        if r > Rat::ZERO || (in_basis[j] && !r.is_zero()) {
            return None;
        }
    }
    Some(CertifiedPoint { x_basic })
}

/// Certifies `basis_cols` as an optimal basis of the standard form in
/// `rev` under the phase-2 cost vector `c` (see the module docs).
/// Returns the exact basic point, or `None` if any check fails.
pub(crate) fn certify_optimal(
    rev: &Revised,
    basis_cols: &[usize],
    c: &[Rat],
) -> Option<CertifiedPoint> {
    let m = rev.rhs.len();
    if basis_cols.len() != m || basis_cols.iter().any(|&col| col >= rev.cols.len()) {
        return None;
    }

    // 1. Sparse exact factorization: eta file + row↔column assignment.
    //    (Column order by sparsity; deterministic, but correctness does
    //    not depend on the order — any successful elimination proves
    //    invertibility and yields the same B⁻¹.)
    let mut order: Vec<usize> = (0..m).collect();
    order.sort_by_key(|&i| (rev.cols[basis_cols[i]].len(), basis_cols[i]));
    let mut etas: Vec<Eta> = Vec::with_capacity(m);
    let mut assigned = vec![false; m];
    // `row_of_slot[i]` = the elimination row assigned to `basis_cols[i]`.
    let mut row_of_slot = vec![usize::MAX; m];
    for &slot in &order {
        let col = basis_cols[slot];
        let mut w = vec![Rat::ZERO; m];
        for &(r, v) in &rev.cols[col] {
            w[r] = v;
        }
        for e in &etas {
            e.ftran(&mut w);
        }
        // Deterministic free pivot: smallest unassigned row with a
        // nonzero transformed entry.
        let row = (0..m).find(|&i| !assigned[i] && !w[i].is_zero())?;
        assigned[row] = true;
        row_of_slot[slot] = row;
        let inv = w[row].recip();
        let mut entries = Vec::with_capacity(8);
        entries.push((row, inv));
        for (i, v) in w.iter().enumerate() {
            if i != row && !v.is_zero() {
                entries.push((i, -*v * inv));
            }
        }
        etas.push(Eta { row, entries });
    }

    // 2. Exact x_B = B⁻¹b, re-expressed in basis-slot order; feasibility
    //    plus zero-level basic artificials.
    let mut xb_rows = rev.rhs.clone();
    for e in &etas {
        e.ftran(&mut xb_rows);
    }
    let mut x_basic = vec![Rat::ZERO; m];
    for (slot, &row) in row_of_slot.iter().enumerate() {
        x_basic[slot] = xb_rows[row];
    }
    if x_basic.iter().any(|x| *x < Rat::ZERO) {
        return None;
    }
    if basis_cols
        .iter()
        .zip(&x_basic)
        .any(|(&col, x)| rev.artificial[col] && !x.is_zero())
    {
        return None;
    }

    // 3. Exact duals y = c_B B⁻¹ and the optimality check on every
    //    nonbasic non-artificial column.
    let mut z = vec![Rat::ZERO; m];
    for (slot, &row) in row_of_slot.iter().enumerate() {
        z[row] = c[basis_cols[slot]];
    }
    for e in etas.iter().rev() {
        e.btran(&mut z);
    }
    let mut in_basis = vec![false; rev.cols.len()];
    for &col in basis_cols {
        in_basis[col] = true;
    }
    for (j, col) in rev.cols.iter().enumerate() {
        if in_basis[j] || rev.artificial[j] {
            continue;
        }
        if reduced_cost(c[j], col, &z) > Rat::ZERO {
            return None;
        }
    }

    Some(CertifiedPoint { x_basic })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{CmpOp, LinExpr, LpModel};

    fn expr(terms: &[(crate::model::VarId, i64)]) -> LinExpr {
        let mut e = LinExpr::new();
        for &(v, c) in terms {
            e.add_term(v, c);
        }
        e
    }

    /// max 3x + 2y s.t. x + y <= 4, x + 3y <= 6. Optimum (4, 0): basis
    /// {x, slack of row 1}.
    fn textbook() -> LpModel {
        let mut m = LpModel::new();
        let x = m.add_var();
        let y = m.add_var();
        m.add_constraint(expr(&[(x, 1), (y, 1)]), CmpOp::Le, 4);
        m.add_constraint(expr(&[(x, 1), (y, 3)]), CmpOp::Le, 6);
        m.set_objective(expr(&[(x, 3), (y, 2)]));
        m
    }

    #[test]
    fn accepts_the_optimal_basis() {
        let m = textbook();
        let rev = Revised::build(&m);
        let c = rev.phase2_costs(&m);
        // Basis: x (col 0) in some row, slack of row 1 (col 3).
        let point = certify_optimal(&rev, &[0, 3], &c).expect("optimal basis certifies");
        // x = 4 in slot 0, slack = 2 in slot 1.
        assert_eq!(point.x_basic[0], Rat::int(4));
        assert_eq!(point.x_basic[1], Rat::int(2));
    }

    #[test]
    fn refutes_a_suboptimal_basis() {
        let m = textbook();
        let rev = Revised::build(&m);
        let c = rev.phase2_costs(&m);
        // The all-slack basis (origin) is feasible but not optimal.
        assert!(certify_optimal(&rev, &[2, 3], &c).is_none());
    }

    #[test]
    fn refutes_an_infeasible_basis() {
        let m = textbook();
        let rev = Revised::build(&m);
        let c = rev.phase2_costs(&m);
        // Basis {y, slack of row 0}: y = 2 from row 1... then row 0 slack
        // = 2 — feasible but suboptimal. Use {y (row 0), slack row 1}:
        // y = 4, row 1 then needs slack 6 - 12 = -6 < 0 — infeasible.
        assert!(certify_optimal(&rev, &[1, 3], &c).is_none());
    }

    /// The textbook optimum as the f64 tier proposes it: basis {x,
    /// slack of row 1} (slot order), `x̂_B = (4, 2)`, `ŷ = (3, 0)`.
    const OPT_BASIS: [usize; 2] = [0, 3];
    const OPT_XB: [f64; 2] = [4.0, 2.0];
    const OPT_Y: [f64; 2] = [3.0, 0.0];

    fn check(m: &LpModel, basis: &[usize], xb: &[f64], y: &[f64]) -> Option<Vec<Rat>> {
        let rev = Revised::build(m);
        let c = rev.phase2_costs(m);
        check_proposal(&rev, basis, &c, xb, y).map(|p| p.x_basic)
    }

    #[test]
    fn check_accepts_the_true_certificate() {
        let m = textbook();
        let exact = vec![Rat::int(4), Rat::int(2)];
        assert_eq!(check(&m, &OPT_BASIS, &OPT_XB, &OPT_Y), Some(exact.clone()));
        // Float noise rounds away; the returned point is exact.
        let noisy = [4.0 + 1e-9, 2.0 - 1e-9];
        assert_eq!(
            check(&m, &OPT_BASIS, &noisy, &[3.0 - 1e-10, 1e-12]),
            Some(exact)
        );
        // So is the factorization's point, slot for slot.
        let rev = Revised::build(&m);
        let c = rev.phase2_costs(&m);
        let factored = certify_optimal(&rev, &OPT_BASIS, &c).expect("optimal");
        assert_eq!(factored.x_basic, vec![Rat::int(4), Rat::int(2)]);
    }

    #[test]
    fn check_rejects_every_single_perturbation() {
        let m = textbook();
        for i in 0..2 {
            for d in [-1.0, 1.0] {
                let mut xb = OPT_XB;
                xb[i] += d;
                assert_eq!(check(&m, &OPT_BASIS, &xb, &OPT_Y), None, "x̂[{i}] {d:+}");
                let mut y = OPT_Y;
                y[i] += d;
                assert_eq!(check(&m, &OPT_BASIS, &OPT_XB, &y), None, "ŷ[{i}] {d:+}");
            }
        }
        // A value that rounds to no integer is no proposal.
        assert_eq!(check(&m, &OPT_BASIS, &[4.5, 2.0], &OPT_Y), None);
        assert_eq!(check(&m, &OPT_BASIS, &[f64::NAN, 2.0], &OPT_Y), None);

        // A positive nonbasic reduced cost alone: the all-slack basis is
        // primal feasible with zero duals, but x prices at +3.
        assert_eq!(check(&m, &[2, 3], &[4.0, 6.0], &[0.0, 0.0]), None);

        // A negative x̂ alone: with row 1's rhs at 2 the optimal basis
        // still solves B·x̂ = b with the same duals, at slack −2.
        let mut neg = LpModel::new();
        let x = neg.add_var();
        let y = neg.add_var();
        neg.add_constraint(expr(&[(x, 1), (y, 1)]), CmpOp::Le, 4);
        neg.add_constraint(expr(&[(x, 1), (y, 3)]), CmpOp::Le, 2);
        neg.set_objective(expr(&[(x, 3), (y, 2)]));
        assert_eq!(check(&neg, &OPT_BASIS, &[4.0, -2.0], &OPT_Y), None);

        // A nonzero basic artificial alone: max −x s.t. x = 3 with the
        // artificial basic at 3 satisfies B·x̂ = b and prices x at −1.
        let mut art = LpModel::new();
        let x = art.add_var();
        art.add_constraint(expr(&[(x, 1)]), CmpOp::Eq, 3);
        art.set_objective(expr(&[(x, -1)]));
        assert_eq!(check(&art, &[1], &[3.0], &[0.0]), None);
        // ... while the true optimum (x basic at 3, ŷ = −1) passes.
        assert_eq!(check(&art, &[0], &[3.0], &[-1.0]), Some(vec![Rat::int(3)]));
    }

    #[test]
    fn refutes_dependent_columns() {
        let m = textbook();
        let rev = Revised::build(&m);
        let c = rev.phase2_costs(&m);
        assert!(certify_optimal(&rev, &[0, 0], &c).is_none());
    }
}
