//! Differential suite for the two-tier kernel: every model solved
//! through the default (f64-speculated, exactly certified) path must
//! agree with the exact tier — same status, same exact objective, and
//! the same ceiling (the WCET a caller would extract) — and a
//! pathologically conditioned model must actually trip the referee, not
//! slip a float optimum through.

use proptest::prelude::*;
use wcet_ilp::{
    solve_ilp, solve_lp, solve_lp_exact, CmpOp, IlpConfig, LinExpr, LpModel, Rat, SolveContext,
    SolveStatus, VarId,
};

const BOX_BOUND: i64 = 8;

/// Random small models with all three comparison operators and possibly
/// negative right-hand sides (phase 1, infeasibility and unboundedness
/// all reachable), boxed so ILP enumeration stays finite.
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

/// `model` with its objective replaced by `coeffs`, one per variable
/// (every `arb_model` variable is integral, so `integer_vars` lists
/// them all).
fn with_objective(model: &LpModel, coeffs: &[i64]) -> LpModel {
    let mut m = model.clone();
    m.set_objective(
        model
            .integer_vars()
            .zip(coeffs)
            .map(|(v, &c)| (v, Rat::from(c)))
            .collect(),
    );
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// One constraint system under four objectives through one context:
    /// warm starts and the check-first referee change nothing — every
    /// solve equals a context-free `solve_lp` value for value and the
    /// exact tier on the objective.
    #[test]
    fn context_solves_equal_context_free_ones(
        model in arb_model(),
        objectives in proptest::collection::vec(-3i64..=5, 12),
    ) {
        let ctx = SolveContext::new();
        for coeffs in objectives.chunks(3) {
            let m = with_objective(&model, coeffs);
            let through = ctx.solve_lp((1, 1), &m);
            let free = solve_lp(&m);
            prop_assert_eq!(&through, &free);
            prop_assert_eq!(&through.values, &free.values);
            let exact = solve_lp_exact(&m);
            prop_assert_eq!(through.status, exact.status);
            prop_assert_eq!(through.objective, exact.objective);
        }
    }

    /// LP: the certified path equals the exact tier on status, exact
    /// objective, and the WCET-style ceiling.
    #[test]
    fn certified_lp_equals_exact(model in arb_model()) {
        let exact = solve_lp_exact(&model);
        let fast = solve_lp(&model);
        prop_assert_eq!(exact.status, fast.status);
        if exact.status == SolveStatus::Optimal {
            prop_assert_eq!(exact.objective, fast.objective);
            prop_assert_eq!(exact.objective.ceil(), fast.objective.ceil());
            prop_assert!(model.is_feasible(&fast.values));
            // Every optimum either came certified off the f64 tier or
            // paid the fallback — never neither.
            prop_assert!(fast.stats.certified + fast.stats.fallbacks >= 1);
        }
    }

    /// ILP: branch & bound over certified node relaxations equals an
    /// exhaustive enumeration of the boxed lattice.
    #[test]
    fn certified_ilp_equals_brute_force(model in arb_model()) {
        let solved = solve_ilp(&model, IlpConfig::default()).expect("boxed model");
        let brute = brute_force(&model);
        match brute {
            None => prop_assert_eq!(solved.0.status, SolveStatus::Infeasible),
            Some(best) => {
                prop_assert_eq!(solved.0.status, SolveStatus::Optimal);
                prop_assert_eq!(solved.0.objective, best);
                prop_assert_eq!(solved.0.objective.ceil(), best.ceil());
                prop_assert!(model.is_feasible(&solved.0.values));
            }
        }
    }
}

/// Exhaustive integer enumeration inside the box (all variables are
/// integral in `arb_model`).
fn brute_force(model: &LpModel) -> Option<Rat> {
    let n = model.num_vars();
    let mut best: Option<Rat> = None;
    let mut point = vec![0i64; n];
    loop {
        let rats: Vec<Rat> = point.iter().map(|&v| Rat::int(i128::from(v))).collect();
        if model.is_feasible(&rats) {
            let obj = model.objective().eval(&rats);
            best = Some(best.map_or(obj, |b| if obj > b { obj } else { b }));
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

/// A model the f64 tier cannot price: the objective coefficient
/// `2⁻⁶⁰` vanishes below the float Dantzig tolerance, so the fast tier
/// claims the origin optimal — and the exact referee must refute that
/// basis (the true optimum is x = 1) and trigger the fallback.
#[test]
fn pathological_conditioning_forces_the_fallback() {
    let mut m = LpModel::new();
    let x = m.add_var();
    m.add_constraint(LinExpr::new().with_term(x, 1), CmpOp::Le, 1);
    m.set_objective(LinExpr::new().with_term(x, Rat::new(1, 1 << 60)));

    let exact = solve_lp_exact(&m);
    assert_eq!(exact.status, SolveStatus::Optimal);
    assert_eq!(exact.objective, Rat::new(1, 1 << 60));

    let s = solve_lp(&m);
    assert_eq!(s.status, SolveStatus::Optimal);
    assert_eq!(
        s.objective, exact.objective,
        "fallback must restore exactness"
    );
    assert_eq!(s.value(x), Rat::int(1));
    assert_eq!(s.stats.f64_solves, 1);
    assert_eq!(s.stats.certified, 0, "the refuted basis must not certify");
    assert_eq!(
        s.stats.fallbacks, 1,
        "the referee must have rejected the f64 basis"
    );
}

/// The mirror image: a well-conditioned model must come back certified
/// off the f64 tier, with no fallback.
#[test]
fn well_conditioned_model_certifies_without_fallback() {
    let mut m = LpModel::new();
    let x = m.add_var();
    let y = m.add_var();
    m.add_constraint(LinExpr::new().with_term(x, 1).with_term(y, 1), CmpOp::Le, 4);
    m.add_constraint(LinExpr::new().with_term(x, 1).with_term(y, 3), CmpOp::Le, 6);
    m.set_objective(LinExpr::new().with_term(x, 3).with_term(y, 2));
    let s = solve_lp(&m);
    assert_eq!(s.status, SolveStatus::Optimal);
    assert_eq!(s.objective, Rat::int(12));
    assert_eq!(s.stats.f64_solves, 1);
    assert_eq!(s.stats.certified, 1);
    assert_eq!(s.stats.fallbacks, 0);
    assert!(s.stats.eta_factors >= 1, "phase boundary refactorizes");
}
