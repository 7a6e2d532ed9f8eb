//! Integer optimisation via branch & bound on the LP relaxation.
//!
//! A node is the model plus its branch trail: one `x ≤ ⌊v⌋` or
//! `x ≥ ⌈v⌉` constraint per branching decision on the way down. Every
//! node, root or child, is solved by the one LP path of
//! [`crate::simplex`] — the f64 tier proposes a basis, the exact referee
//! certifies it, and a refuted basis reruns on the exact tier from a
//! cold start — so each node costs exactly one two-tier solve. Only the
//! root gets the caller's cached bases: a child is a different
//! constraint system, so it solves cold.

use std::fmt;

use crate::model::{CmpOp, LinExpr, LpModel, Solution, SolveStats, SolveStatus, VarId};
use crate::rational::Rat;
use crate::simplex::{solve_lp_proven, WarmBasis};

/// Branch-and-bound configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IlpConfig {
    /// Maximum number of explored nodes before giving up.
    pub max_nodes: usize,
}

impl Default for IlpConfig {
    fn default() -> Self {
        IlpConfig { max_nodes: 200_000 }
    }
}

/// Branch-and-bound failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IlpError {
    /// The node budget was exhausted before proving optimality.
    NodeLimit {
        /// The configured limit.
        limit: usize,
    },
    /// The relaxation (and hence the ILP) is unbounded above.
    Unbounded,
}

impl fmt::Display for IlpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IlpError::NodeLimit { limit } => {
                write!(f, "branch-and-bound exceeded {limit} nodes")
            }
            IlpError::Unbounded => f.write_str("integer program is unbounded above"),
        }
    }
}

impl std::error::Error for IlpError {}

/// Statistics of a completed ILP solve.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IlpStats {
    /// Branch-and-bound nodes explored (1 = relaxation was already integral).
    pub nodes: usize,
}

/// The full outcome of a (possibly warm-started) ILP solve.
pub(crate) struct IlpOutcome {
    pub solution: Solution,
    pub stats: IlpStats,
    /// The root relaxation's phase-1 feasible basis — what
    /// [`crate::context::SolveContext`] caches for the next solve of the
    /// same constraint system.
    pub root_feasible_basis: Option<WarmBasis>,
    /// Whether the supplied warm basis was actually adopted at the root.
    pub root_warm_used: bool,
    /// The root relaxation's optimal basis — nonsingular, so the
    /// context can hand it back as the next root solve's proven basis.
    pub root_optimal_basis: Option<WarmBasis>,
}

/// One branching decision: `var <= bound` (down, [`CmpOp::Le`]) or
/// `var >= bound` (up, [`CmpOp::Ge`]).
#[derive(Clone, Copy)]
struct Branch {
    var: VarId,
    op: CmpOp,
    bound: Rat,
}

/// Solves `model` to integer optimality (variables marked integral must take
/// integer values; continuous variables remain free).
///
/// # Errors
///
/// * [`IlpError::NodeLimit`] if the search exceeds `config.max_nodes`;
/// * [`IlpError::Unbounded`] if the relaxation is unbounded above.
pub fn solve_ilp(model: &LpModel, config: IlpConfig) -> Result<(Solution, IlpStats), IlpError> {
    let out = solve_ilp_warm(model, config, None, None)?;
    Ok((out.solution, out.stats))
}

/// [`solve_ilp`] with an optional warm basis and proven basis for the
/// root relaxation (the phase-1 feasible basis and a nonsingular
/// optimal basis of earlier solves of the *same* constraint system —
/// see [`crate::context::SolveContext`]).
pub(crate) fn solve_ilp_warm(
    model: &LpModel,
    config: IlpConfig,
    warm_root: Option<&WarmBasis>,
    proven_root: Option<&WarmBasis>,
) -> Result<IlpOutcome, IlpError> {
    let mut agg = SolveStats::default();
    let mut stats = IlpStats::default();
    let mut best: Option<Solution> = None;
    let mut root_feasible_basis = None;
    let mut root_warm_used = false;
    let mut root_optimal_basis = None;

    // Pending nodes, each as its branch trail; the root's is empty.
    let mut stack: Vec<Vec<Branch>> = vec![Vec::new()];

    while let Some(trail) = stack.pop() {
        if stats.nodes >= config.max_nodes {
            return Err(IlpError::NodeLimit {
                limit: config.max_nodes,
            });
        }
        stats.nodes += 1;

        let relax = if trail.is_empty() {
            let r = solve_lp_proven(model, warm_root, proven_root);
            root_warm_used = r.solution.stats.warm_starts > 0;
            root_feasible_basis = r.feasible_basis;
            root_optimal_basis = r.optimal_basis;
            r.solution
        } else {
            solve_lp_proven(&with_trail(model, &trail), None, None).solution
        };
        agg.absorb(&relax.stats);

        match relax.status {
            SolveStatus::Infeasible => continue,
            SolveStatus::Unbounded => {
                // Unbounded at the root means the ILP is unbounded; at a
                // child it cannot happen (children are restrictions).
                return Err(IlpError::Unbounded);
            }
            SolveStatus::Optimal => {}
        }
        if let Some(b) = &best {
            if relax.objective <= b.objective {
                continue; // cannot beat the incumbent
            }
        }
        // Most fractional integer variable.
        let frac_var = model
            .integer_vars()
            .filter_map(|v| {
                let val = relax.values[v.index()];
                if val.is_integer() {
                    None
                } else {
                    let f = val - Rat::int(val.floor());
                    // distance from 1/2, smaller = more fractional
                    let d = (f - Rat::new(1, 2)).abs();
                    Some((v, val, d))
                }
            })
            .min_by(|a, b| a.2.cmp(&b.2).then(a.0.cmp(&b.0)));

        match frac_var {
            None => {
                // Integral on all integer vars: candidate incumbent.
                let better = best
                    .as_ref()
                    .map(|b| relax.objective > b.objective)
                    .unwrap_or(true);
                if better {
                    best = Some(relax);
                }
            }
            Some((v, val, _)) => {
                let mut down = trail.clone();
                down.push(Branch {
                    var: v,
                    op: CmpOp::Le,
                    bound: Rat::int(val.floor()),
                });
                let mut up = trail;
                up.push(Branch {
                    var: v,
                    op: CmpOp::Ge,
                    bound: Rat::int(val.ceil()),
                });
                // Push "down" first so the "up" branch (usually better for
                // maximisation of counts) is explored first.
                stack.push(down);
                stack.push(up);
            }
        }
    }

    let mut solution = match best {
        Some(s) => s,
        None => Solution::non_optimal(SolveStatus::Infeasible),
    };
    solution.stats = agg;
    Ok(IlpOutcome {
        solution,
        stats,
        root_feasible_basis,
        root_warm_used,
        root_optimal_basis,
    })
}

/// A child node's model: `model` plus one bound constraint per branch.
fn with_trail(model: &LpModel, trail: &[Branch]) -> LpModel {
    let mut node = model.clone();
    for br in trail {
        node.add_constraint(LinExpr::new().with_term(br.var, Rat::ONE), br.op, br.bound);
    }
    node
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::VarId;

    fn expr(terms: &[(VarId, i64)]) -> LinExpr {
        let mut e = LinExpr::new();
        for &(v, c) in terms {
            e.add_term(v, c);
        }
        e
    }

    #[test]
    fn knapsack_like() {
        // max 5x + 4y  s.t.  6x + 5y <= 10, x,y integer >= 0.
        // LP optimum fractional; ILP optimum x=0,y=2 (8) or x=1,y=0 (5) →  8.
        let mut m = LpModel::new();
        let x = m.add_int_var();
        let y = m.add_int_var();
        m.add_constraint(expr(&[(x, 6), (y, 5)]), CmpOp::Le, 10);
        m.set_objective(expr(&[(x, 5), (y, 4)]));
        let (s, stats) = solve_ilp(&m, IlpConfig::default()).expect("solved");
        assert_eq!(s.status, SolveStatus::Optimal);
        assert_eq!(s.objective, Rat::int(8));
        assert!(stats.nodes >= 1);
        // Every node, root or child, is exactly one two-tier solve.
        assert_eq!(s.stats.f64_solves, stats.nodes as u64);
    }

    #[test]
    fn integral_relaxation_takes_one_node() {
        let mut m = LpModel::new();
        let x = m.add_int_var();
        m.add_constraint(expr(&[(x, 1)]), CmpOp::Le, 3);
        m.set_objective(expr(&[(x, 1)]));
        let (s, stats) = solve_ilp(&m, IlpConfig::default()).expect("solved");
        assert_eq!(s.objective, Rat::int(3));
        assert_eq!(stats.nodes, 1);
    }

    #[test]
    fn infeasible_ilp() {
        // 2x == 1 with x integer: LP feasible (x=1/2), ILP infeasible.
        let mut m = LpModel::new();
        let x = m.add_int_var();
        m.add_constraint(expr(&[(x, 2)]), CmpOp::Eq, 1);
        m.set_objective(expr(&[(x, 1)]));
        let (s, _) = solve_ilp(&m, IlpConfig::default()).expect("finished");
        assert_eq!(s.status, SolveStatus::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut m = LpModel::new();
        let x = m.add_int_var();
        m.set_objective(expr(&[(x, 1)]));
        assert_eq!(
            solve_ilp(&m, IlpConfig::default()).unwrap_err(),
            IlpError::Unbounded
        );
    }

    #[test]
    fn node_limit_enforced() {
        let mut m = LpModel::new();
        let vars: Vec<VarId> = (0..6).map(|_| m.add_int_var()).collect();
        // A system with many fractional vertices.
        for w in vars.windows(2) {
            m.add_constraint(expr(&[(w[0], 2), (w[1], 2)]), CmpOp::Le, 3);
        }
        let mut obj = LinExpr::new();
        for &v in &vars {
            obj.add_term(v, 1);
        }
        m.set_objective(obj);
        let res = solve_ilp(&m, IlpConfig { max_nodes: 1 });
        assert!(matches!(res, Err(IlpError::NodeLimit { limit: 1 })));
    }

    #[test]
    fn mixed_integer_continuous() {
        // max x + y, x integer, y continuous; x + y <= 5/2; y <= 1/2.
        // Optimum: y = 1/2, x = 2 → 5/2.
        let mut m = LpModel::new();
        let x = m.add_int_var();
        let y = m.add_var();
        let mut e = LinExpr::new();
        e.add_term(x, 1).add_term(y, 1);
        m.add_constraint(e, CmpOp::Le, Rat::new(5, 2));
        m.add_constraint(expr(&[(y, 2)]), CmpOp::Le, 1);
        m.set_objective(expr(&[(x, 1), (y, 1)]));
        let (s, _) = solve_ilp(&m, IlpConfig::default()).expect("solved");
        assert_eq!(s.objective, Rat::new(5, 2));
        assert_eq!(s.value(x), Rat::int(2));
        assert_eq!(s.value(y), Rat::new(1, 2));
    }

    #[test]
    fn deep_branching_with_equalities() {
        // Equalities force phase 1 at the root and at every child;
        // branching runs several levels deep.
        let mut m = LpModel::new();
        let x = m.add_int_var();
        let y = m.add_int_var();
        let z = m.add_int_var();
        m.add_constraint(expr(&[(x, 2), (y, 3), (z, 5)]), CmpOp::Eq, 17);
        m.add_constraint(expr(&[(x, 1), (y, 1), (z, 1)]), CmpOp::Le, 6);
        m.set_objective(expr(&[(x, 3), (y, 4), (z, 7)]));
        let (s, stats) = solve_ilp(&m, IlpConfig::default()).expect("solved");
        assert_eq!(s.status, SolveStatus::Optimal);
        // Exhaustive check: 2x+3y+5z=17, x+y+z<=6, all >= 0 integer.
        let mut brute = None::<i64>;
        for x0 in 0..=8i64 {
            for y0 in 0..=5i64 {
                for z0 in 0..=3i64 {
                    if 2 * x0 + 3 * y0 + 5 * z0 == 17 && x0 + y0 + z0 <= 6 {
                        let obj = 3 * x0 + 4 * y0 + 7 * z0;
                        brute = Some(brute.map_or(obj, |b: i64| b.max(obj)));
                    }
                }
            }
        }
        assert_eq!(s.objective, Rat::int(i128::from(brute.expect("feasible"))));
        assert!(stats.nodes >= 1);
    }
}
