//! Differential test: the two-tier LP path (and the branch & bound that
//! solves every node on it) must agree **exactly** — status and
//! objective, over exact rationals — with the pre-refactor dense solver
//! preserved in `wcet_ilp::dense` (the `dense` feature, on by default).
//!
//! The dense ILP oracle below is a faithful reproduction of the old
//! branch-and-bound: bounds as constraints, a cold dense solve per node
//! — the shape `branch_bound` has too, with each node solved on the
//! sparse two-tier path instead. Its *vertex* choices may differ from
//! the sparse solver's among alternate optima, so only status and
//! objective are compared — those are unique.

#![cfg(feature = "dense")]

use proptest::prelude::*;
use wcet_ilp::solve_lp_dense;
use wcet_ilp::{
    solve_ilp, solve_lp, CmpOp, IlpConfig, LinExpr, LpModel, Rat, Solution, SolveContext,
    SolveStatus, VarId,
};

const BOX_BOUND: i64 = 8;

/// A random small model with `<=` / `>=` / `==` constraints (possibly
/// negative right-hand sides, so phase 1 and infeasibility are both
/// exercised), boxed so the ILP stays bounded and enumerable.
fn arb_model() -> impl Strategy<Value = LpModel> {
    let nvars = 1..=3usize;
    let ncons = 0..=4usize;
    (nvars, ncons).prop_flat_map(|(n, m)| {
        let coeffs = proptest::collection::vec(-4i64..=4, n * m);
        let ops = proptest::collection::vec(0usize..=2, m);
        let rhs = proptest::collection::vec(-6i64..=12, m);
        let obj = proptest::collection::vec(-3i64..=5, n);
        (Just(n), Just(m), coeffs, ops, rhs, obj).prop_map(|(n, m, coeffs, ops, rhs, obj)| {
            let mut model = LpModel::new();
            let vars: Vec<VarId> = (0..n).map(|_| model.add_int_var()).collect();
            for &v in &vars {
                model.add_constraint(LinExpr::new().with_term(v, 1), CmpOp::Le, BOX_BOUND);
            }
            for c in 0..m {
                let mut e = LinExpr::new();
                for (i, &v) in vars.iter().enumerate() {
                    e.add_term(v, coeffs[c * n + i]);
                }
                let op = [CmpOp::Le, CmpOp::Ge, CmpOp::Eq][ops[c]];
                model.add_constraint(e, op, rhs[c]);
            }
            let mut o = LinExpr::new();
            for (i, &v) in vars.iter().enumerate() {
                o.add_term(v, obj[i]);
            }
            model.set_objective(o);
            model
        })
    })
}

/// The old branch & bound, verbatim in structure: a stack of extra bound
/// constraints, every node cold-solved by the dense oracle.
fn dense_ilp_oracle(model: &LpModel) -> Solution {
    type Bounds = Vec<(LinExpr, CmpOp, Rat)>;
    let mut best: Option<Solution> = None;
    let mut stack: Vec<Bounds> = vec![Vec::new()];
    while let Some(bounds) = stack.pop() {
        let mut node = model.clone();
        for (e, op, r) in &bounds {
            node.add_constraint(e.clone(), *op, *r);
        }
        let relax = solve_lp_dense(&node);
        match relax.status {
            SolveStatus::Infeasible => continue,
            SolveStatus::Unbounded => return relax,
            SolveStatus::Optimal => {}
        }
        if let Some(b) = &best {
            if relax.objective <= b.objective {
                continue;
            }
        }
        let frac = model.integer_vars().find_map(|v| {
            let val = relax.values[v.index()];
            (!val.is_integer()).then_some((v, val))
        });
        match frac {
            None => best = Some(relax),
            Some((v, val)) => {
                let e = LinExpr::new().with_term(v, Rat::ONE);
                let mut down = bounds.clone();
                down.push((e.clone(), CmpOp::Le, Rat::int(val.floor())));
                let mut up = bounds;
                up.push((e, CmpOp::Ge, Rat::int(val.ceil())));
                stack.push(down);
                stack.push(up);
            }
        }
    }
    best.unwrap_or_else(|| {
        let mut s = solve_lp_dense(model);
        s.status = SolveStatus::Infeasible;
        s.objective = Rat::ZERO;
        s.values = Vec::new();
        s
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// LP relaxation: dense and sparse agree on status and objective.
    #[test]
    fn lp_sparse_equals_dense(model in arb_model()) {
        let dense = solve_lp_dense(&model);
        let sparse = solve_lp(&model);
        prop_assert_eq!(dense.status, sparse.status);
        if dense.status == SolveStatus::Optimal {
            prop_assert_eq!(dense.objective, sparse.objective);
            // Both points must be feasible (they may be different
            // vertices of the same optimal face).
            prop_assert!(model.is_feasible(&dense.values));
            prop_assert!(model.is_feasible(&sparse.values));
        }
    }

    /// ILP: the warm-started branch & bound agrees with the dense
    /// cold-per-node oracle on status and objective.
    #[test]
    fn ilp_sparse_equals_dense(model in arb_model()) {
        let dense = dense_ilp_oracle(&model);
        let (sparse, _) = solve_ilp(&model, IlpConfig::default()).expect("boxed model");
        prop_assert_eq!(dense.status, sparse.status);
        if dense.status == SolveStatus::Optimal {
            prop_assert_eq!(dense.objective, sparse.objective);
            prop_assert!(model.is_feasible(&sparse.values));
            for v in model.integer_vars() {
                prop_assert!(sparse.values[v.index()].is_integer());
            }
        }
    }

    /// Warm-started re-solves through a `SolveContext` are bit-identical
    /// to cold solves — same status, objective AND values — because the
    /// cached phase-1 basis is objective-independent.
    #[test]
    fn warm_resolve_is_bit_identical(model in arb_model(), flip in 0i64..=6) {
        let ctx = SolveContext::new();
        let key = (0xF00D, 0xBEEF);
        // Populate the cache with the original objective...
        let seed = ctx.solve_ilp(key, &model, IlpConfig::default()).expect("boxed");
        let cold_seed = solve_ilp(&model, IlpConfig::default()).expect("boxed");
        prop_assert_eq!(&seed.0.values, &cold_seed.0.values);
        // ...then perturb only the objective and re-solve warm.
        let mut perturbed = model.clone();
        let mut o = LinExpr::new();
        for (i, (v, c)) in model.objective().terms().enumerate() {
            o.add_term(v, c + Rat::int(i128::from(flip) * (i as i128 + 1)));
        }
        perturbed.set_objective(o);
        let warm = ctx.solve_ilp(key, &perturbed, IlpConfig::default()).expect("boxed");
        let cold = solve_ilp(&perturbed, IlpConfig::default()).expect("boxed");
        prop_assert_eq!(warm.0.status, cold.0.status);
        prop_assert_eq!(warm.0.objective, cold.0.objective);
        prop_assert_eq!(&warm.0.values, &cold.0.values);
    }
}
