//! Property-based cross-checks of the LP/ILP solvers against brute force.

use proptest::prelude::*;
use wcet_ilp::{solve_ilp, solve_lp, CmpOp, IlpConfig, LinExpr, LpModel, Rat, SolveStatus, VarId};

const BOX_BOUND: i64 = 8;

/// A random small model: `n` vars in `[0, BOX_BOUND]`, `m` random `<=`
/// constraints with small coefficients, random objective.
fn arb_model() -> impl Strategy<Value = LpModel> {
    let nvars = 1..=3usize;
    let ncons = 0..=4usize;
    (nvars, ncons).prop_flat_map(|(n, m)| {
        let coeffs = proptest::collection::vec(-4i64..=4, n * m);
        let rhs = proptest::collection::vec(0i64..=12, m);
        let obj = proptest::collection::vec(-3i64..=5, n);
        (Just(n), Just(m), coeffs, rhs, obj).prop_map(|(n, m, coeffs, rhs, obj)| {
            let mut model = LpModel::new();
            let vars: Vec<VarId> = (0..n).map(|_| model.add_int_var()).collect();
            // Box constraints keep everything bounded and enumerable.
            for &v in &vars {
                model.add_constraint(LinExpr::new().with_term(v, 1), CmpOp::Le, BOX_BOUND);
            }
            for c in 0..m {
                let mut e = LinExpr::new();
                for (i, &v) in vars.iter().enumerate() {
                    e.add_term(v, coeffs[c * n + i]);
                }
                model.add_constraint(e, CmpOp::Le, rhs[c]);
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

/// Exhaustive integer-point enumeration inside the box.
fn brute_force(model: &LpModel) -> Option<Rat> {
    let n = model.num_vars();
    let mut best: Option<Rat> = None;
    let mut point = vec![0i64; n];
    loop {
        let rats: Vec<Rat> = point.iter().map(|&p| Rat::from(p)).collect();
        if model.is_feasible(&rats) {
            let obj = model.objective().eval(&rats);
            if best.is_none_or(|b| obj > b) {
                best = Some(obj);
            }
        }
        // Odometer increment.
        let mut i = 0;
        loop {
            if i == n {
                return best;
            }
            point[i] += 1;
            if point[i] <= BOX_BOUND {
                break;
            }
            point[i] = 0;
            i += 1;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// ILP optimum equals exhaustive enumeration on small boxes.
    #[test]
    fn ilp_matches_brute_force(model in arb_model()) {
        let brute = brute_force(&model);
        let (sol, _) = solve_ilp(&model, IlpConfig::default()).expect("bounded box");
        match brute {
            None => prop_assert_eq!(sol.status, SolveStatus::Infeasible),
            Some(b) => {
                prop_assert_eq!(sol.status, SolveStatus::Optimal);
                prop_assert_eq!(sol.objective, b);
                // And the reported point must itself be feasible + integral.
                prop_assert!(model.is_feasible(&sol.values));
                for v in model.integer_vars() {
                    prop_assert!(sol.values[v.index()].is_integer());
                }
            }
        }
    }

    /// The LP relaxation never under-estimates the ILP optimum (soundness
    /// direction used by IPET pruning).
    #[test]
    fn lp_bounds_ilp_from_above(model in arb_model()) {
        let lp = solve_lp(&model);
        let (ilp, _) = solve_ilp(&model, IlpConfig::default()).expect("bounded box");
        if ilp.status == SolveStatus::Optimal {
            prop_assert_eq!(lp.status, SolveStatus::Optimal);
            prop_assert!(lp.objective >= ilp.objective);
            prop_assert!(model.is_feasible(&lp.values));
        }
    }
}
