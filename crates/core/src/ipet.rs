//! WCET computation by the Implicit Path Enumeration Technique
//! (Li & Malik \[17\]; paper §2.1).
//!
//! Execution counts of blocks (`x_b`) and edges (`f_e`) are ILP variables;
//! structural flow conservation, loop bounds and infeasible-path exclusions
//! are linear constraints; the WCET is the maximum of
//! `Σ cost_b · x_b + Σ persistence-extras · loop-entries + startup`.

use std::collections::BTreeMap;
use std::fmt;

use wcet_ilp::{
    solve_ilp, solve_lp, CmpOp, ContextStats, IlpConfig, IlpError, LinExpr, LpModel, Rat,
    SolveStats, SolveStatus, VarId,
};
use wcet_ir::fingerprint::program_fingerprint;
use wcet_ir::{BlockId, Edge, Program};
use wcet_pipeline::cost::BlockCosts;

/// A warm-start cache for the IPET hot path, keyed by program content.
///
/// Interference/partition/lock sweeps re-analyse one task under many
/// cost models. The flow-constraint system of the IPET ILP depends only
/// on the program (CFG, loop bounds, infeasible pairs) — costs shape the
/// *objective* alone — so every sweep point solves the same constraint
/// system. `SolveContext` caches its phase-1 feasible basis (via
/// [`wcet_ilp::SolveContext`]) and every re-solve skips phase 1.
/// Results are bit-identical to cold solves by construction; a context
/// is a pure accelerator and can be shared across threads.
#[derive(Debug, Default)]
pub struct SolveContext {
    inner: wcet_ilp::SolveContext,
}

impl SolveContext {
    /// Creates an empty context.
    #[must_use]
    pub fn new() -> SolveContext {
        SolveContext::default()
    }

    /// Warm-hit / cold-solve counters.
    #[must_use]
    pub fn stats(&self) -> ContextStats {
        self.inner.stats()
    }

    /// Summed per-solve effort counters (pivots, certified f64 solves,
    /// fallbacks, eta refactorizations…) of every IPET solve served
    /// through this context — engine-family *and* statically-controlled
    /// paths alike.
    #[must_use]
    pub fn totals(&self) -> SolveStats {
        self.inner.totals()
    }
}

/// IPET options.
#[derive(Debug, Clone, Copy)]
pub struct IpetOptions {
    /// Solve to integrality (exact) or accept the LP relaxation (faster,
    /// still a sound upper bound since relaxation ≥ ILP optimum).
    pub integer: bool,
    /// Branch-and-bound limits.
    pub ilp: IlpConfig,
}

impl Default for IpetOptions {
    fn default() -> Self {
        IpetOptions {
            integer: true,
            ilp: IlpConfig::default(),
        }
    }
}

/// IPET failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IpetError {
    /// The ILP solver failed (node limit / unbounded model).
    Ilp(IlpError),
    /// The flow system is infeasible (inconsistent flow facts).
    Infeasible,
    /// The model is unbounded (missing loop bound — cannot happen for
    /// validated programs).
    Unbounded,
}

impl fmt::Display for IpetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IpetError::Ilp(e) => write!(f, "{e}"),
            IpetError::Infeasible => f.write_str("IPET flow system is infeasible"),
            IpetError::Unbounded => {
                f.write_str("IPET objective is unbounded (missing loop bound?)")
            }
        }
    }
}

impl std::error::Error for IpetError {}

impl From<IlpError> for IpetError {
    fn from(e: IlpError) -> Self {
        IpetError::Ilp(e)
    }
}

/// A computed WCET bound with solution details.
///
/// Equality compares the bound itself (wcet, counts, model size, nodes)
/// and ignores [`solver`](WcetBound::solver): a warm-started solve that
/// pivoted less still produced the same bound.
#[derive(Debug, Clone)]
pub struct WcetBound {
    /// The bound, in cycles (startup included).
    pub wcet: u64,
    /// Worst-case execution counts per block (empty for LP relaxations
    /// with fractional optima).
    pub block_counts: BTreeMap<BlockId, u64>,
    /// Model size: variables.
    pub num_vars: usize,
    /// Model size: constraints.
    pub num_constraints: usize,
    /// Branch-and-bound nodes (1 when the relaxation was integral; 0 for
    /// pure LP solves).
    pub solver_nodes: usize,
    /// Solver-effort counters (pivots, warm starts, phase-1 skips).
    pub solver: SolveStats,
}

impl PartialEq for WcetBound {
    fn eq(&self, other: &WcetBound) -> bool {
        self.wcet == other.wcet
            && self.block_counts == other.block_counts
            && self.num_vars == other.num_vars
            && self.num_constraints == other.num_constraints
            && self.solver_nodes == other.solver_nodes
    }
}

impl Eq for WcetBound {}

/// Computes the WCET bound of `program` under the given block costs.
///
/// # Errors
///
/// Returns [`IpetError`] if the flow system is infeasible/unbounded or the
/// solver gives up.
pub fn wcet_ipet(
    program: &Program,
    costs: &BlockCosts,
    opts: &IpetOptions,
) -> Result<WcetBound, IpetError> {
    wcet_ipet_in(program, costs, opts, None)
}

/// [`wcet_ipet`] through a warm-start [`SolveContext`]: re-solves of the
/// same program (any cost model) skip simplex phase 1. Bit-identical
/// results to the cold path.
///
/// # Errors
///
/// See [`wcet_ipet`].
pub fn wcet_ipet_ctx(
    program: &Program,
    costs: &BlockCosts,
    opts: &IpetOptions,
    ctx: &SolveContext,
) -> Result<WcetBound, IpetError> {
    wcet_ipet_in(program, costs, opts, Some(ctx))
}

fn wcet_ipet_in(
    program: &Program,
    costs: &BlockCosts,
    opts: &IpetOptions,
    ctx: Option<&SolveContext>,
) -> Result<WcetBound, IpetError> {
    let cfg = program.cfg();
    let mut model = LpModel::new();

    // Variables.
    let x: BTreeMap<BlockId, VarId> = cfg
        .block_ids()
        .map(|b| (b, model.add_int_var(format!("x_{b}"))))
        .collect();
    let edges = cfg.edges();
    let f: BTreeMap<Edge, VarId> = edges
        .iter()
        .map(|&e| (e, model.add_int_var(format!("f_{e}"))))
        .collect();
    let f_entry = model.add_int_var("f_entry");
    let f_exit: BTreeMap<BlockId, VarId> = cfg
        .exits()
        .iter()
        .map(|&b| (b, model.add_int_var(format!("fx_{b}"))))
        .collect();

    // The task executes exactly once.
    model.add_constraint(LinExpr::new().with_term(f_entry, 1), CmpOp::Eq, 1);

    // Flow conservation: inflow = x_b = outflow.
    for b in cfg.block_ids() {
        let mut inflow = LinExpr::new();
        for &p in cfg.predecessors(b) {
            inflow.add_term(f[&Edge::new(p, b)], 1);
        }
        if b == cfg.entry() {
            inflow.add_term(f_entry, 1);
        }
        let mut outflow = LinExpr::new();
        for &s in cfg.successors(b) {
            outflow.add_term(f[&Edge::new(b, s)], 1);
        }
        if let Some(&fx) = f_exit.get(&b) {
            outflow.add_term(fx, 1);
        }
        let mut in_minus_x = inflow.clone();
        in_minus_x.add_term(x[&b], -1);
        model.add_constraint(in_minus_x, CmpOp::Eq, 0);
        let mut out_minus_x = outflow;
        out_minus_x.add_term(x[&b], -1);
        model.add_constraint(out_minus_x, CmpOp::Eq, 0);
    }

    // Loop bounds: Σ back-edge flow ≤ bound × Σ entry flow.
    let loops = program.loops();
    for l in loops.loops() {
        let bound = program
            .flow()
            .bound(l.header)
            .expect("validated program has bounds");
        let mut expr = LinExpr::new();
        for e in &l.back_edges {
            expr.add_term(f[e], 1);
        }
        for e in &l.entry_edges {
            expr.add_term(f[e], -Rat::from(bound.0));
        }
        if l.header == cfg.entry() {
            expr.add_term(f_entry, -Rat::from(bound.0));
        }
        model.add_constraint(expr, CmpOp::Le, 0);
    }

    // Infeasible pairs (only sound for once-per-run edges: both source
    // blocks outside all loops).
    for pair in program.flow().infeasible_pairs() {
        let once = |e: &Edge| program.max_block_count(e.from) <= 1;
        if once(&pair.a) && once(&pair.b) {
            let expr = LinExpr::new()
                .with_term(f[&pair.a], 1)
                .with_term(f[&pair.b], 1);
            model.add_constraint(expr, CmpOp::Le, 1);
        }
    }

    // Objective: block costs + persistence extras on loop entries.
    let mut obj = LinExpr::new();
    for (b, &v) in &x {
        obj.add_term(v, Rat::from(costs.cost(*b)));
    }
    for (&scope, &extra) in &costs.loop_entry_extras {
        if extra == 0 {
            continue;
        }
        match loops.headed_by(scope) {
            Some(l) => {
                for e in &loops.loop_of(l).entry_edges {
                    obj.add_term(f[e], Rat::from(extra));
                }
                if scope == cfg.entry() {
                    obj.add_term(f_entry, Rat::from(extra));
                }
            }
            None => {
                // Scope is not a loop header (residual region): charge once.
                obj.add_term(f_entry, Rat::from(extra));
            }
        }
    }
    model.set_objective(obj);

    let num_vars = model.num_vars();
    let num_constraints = model.num_constraints();

    let (solution, nodes) = match ctx {
        Some(ctx) => {
            let key = program_fingerprint(program);
            if opts.integer {
                let (s, stats) = ctx.inner.solve_ilp(key, &model, opts.ilp)?;
                (s, stats.nodes)
            } else {
                (ctx.inner.solve_lp(key, &model), 0)
            }
        }
        None => {
            if opts.integer {
                let (s, stats) = solve_ilp(&model, opts.ilp)?;
                (s, stats.nodes)
            } else {
                (solve_lp(&model), 0)
            }
        }
    };
    match solution.status {
        SolveStatus::Infeasible => return Err(IpetError::Infeasible),
        SolveStatus::Unbounded => return Err(IpetError::Unbounded),
        SolveStatus::Optimal => {}
    }

    // Sound rounding: the WCET is an upper bound, so take the ceiling.
    let obj = solution.objective;
    let wcet_path = u64::try_from(obj.ceil().max(0)).unwrap_or(u64::MAX);
    let block_counts = if opts.integer {
        x.iter()
            .map(|(&b, &v)| {
                let val = solution.value(v);
                (b, u64::try_from(val.to_integer().unwrap_or(0)).unwrap_or(0))
            })
            .collect()
    } else {
        BTreeMap::new()
    };

    Ok(WcetBound {
        wcet: wcet_path + costs.startup,
        block_counts,
        num_vars,
        num_constraints,
        solver_nodes: nodes,
        solver: solution.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcet_ilp::longest_path;
    use wcet_ir::interp::execute;
    use wcet_ir::synth::{bsort, crc, matmul, twin_diamonds, Placement};
    use wcet_pipeline::cost::BlockCosts;

    /// Unit-cost blocks, no extras.
    fn unit_costs(p: &Program) -> BlockCosts {
        BlockCosts {
            base: p.cfg().block_ids().map(|b| (b, 1)).collect(),
            loop_entry_extras: BTreeMap::new(),
            startup: 0,
        }
    }

    /// Per-block cost = number of fetch slots (so WCET ≈ instruction count
    /// on a perfect machine).
    fn slot_costs(p: &Program) -> BlockCosts {
        BlockCosts {
            base: p
                .cfg()
                .iter()
                .map(|(b, blk)| (b, blk.fetch_slots() as u64))
                .collect(),
            loop_entry_extras: BTreeMap::new(),
            startup: 0,
        }
    }

    #[test]
    fn loop_free_matches_dag_longest_path() {
        let p = twin_diamonds(6, Placement::default());
        // Slot costs: the heavy arms are genuinely heavier.
        let costs = slot_costs(&p);
        let bound = wcet_ipet(&p, &costs, &IpetOptions::default()).expect("solves");
        // Oracle: DAG longest path with unit node weights, ignoring the
        // infeasible-pair constraints (so oracle >= IPET).
        let cfg = p.cfg();
        let edges: Vec<(usize, usize, u64)> = cfg
            .edges()
            .into_iter()
            .map(|e| (e.from.index(), e.to.index(), 0))
            .collect();
        let weights: Vec<u64> = cfg.block_ids().map(|b| costs.cost(b)).collect();
        let sinks: Vec<usize> = cfg.exits().iter().map(|b| b.index()).collect();
        let oracle = longest_path(
            cfg.num_blocks(),
            &edges,
            &weights,
            cfg.entry().index(),
            &sinks,
        )
        .expect("acyclic")
        .expect("reachable");
        assert!(bound.wcet <= oracle);
        // twin_diamonds: both heavy arms lie on mutually-exclusive paths,
        // so IPET with exclusions must be strictly below the free longest
        // path.
        assert!(
            bound.wcet < oracle,
            "exclusion must bite: {} vs {oracle}",
            bound.wcet
        );
    }

    #[test]
    fn counts_respect_loop_bounds() {
        let p = matmul(3, Placement::default());
        let costs = unit_costs(&p);
        let bound = wcet_ipet(&p, &costs, &IpetOptions::default()).expect("solves");
        // kbody executes at most n^3 = 27 times.
        let kbody = BlockId::from_index(6);
        assert_eq!(bound.block_counts[&kbody], 27);
    }

    #[test]
    fn ipet_bounds_interpreter_slot_counts() {
        // With cost = fetch slots, the IPET bound must dominate the
        // interpreter's executed slots for every kernel.
        let pl = Placement::default();
        for p in [crc(16, pl), bsort(6, pl), matmul(3, pl)] {
            let costs = slot_costs(&p);
            let bound = wcet_ipet(&p, &costs, &IpetOptions::default()).expect("solves");
            let run = execute(&p, 5_000_000).expect("terminates");
            assert!(
                bound.wcet >= run.steps,
                "{}: bound {} < executed {}",
                p.name(),
                bound.wcet,
                run.steps
            );
        }
    }

    #[test]
    fn lp_relaxation_dominates_ilp() {
        let p = crc(16, Placement::default());
        let costs = slot_costs(&p);
        let ilp = wcet_ipet(&p, &costs, &IpetOptions::default()).expect("solves");
        let lp = wcet_ipet(
            &p,
            &costs,
            &IpetOptions {
                integer: false,
                ilp: IlpConfig::default(),
            },
        )
        .expect("solves");
        assert!(lp.wcet >= ilp.wcet);
        assert_eq!(lp.solver_nodes, 0);
    }

    #[test]
    fn startup_added() {
        let p = twin_diamonds(1, Placement::default());
        let mut costs = unit_costs(&p);
        costs.startup = 100;
        let with = wcet_ipet(&p, &costs, &IpetOptions::default()).expect("solves");
        costs.startup = 0;
        let without = wcet_ipet(&p, &costs, &IpetOptions::default()).expect("solves");
        assert_eq!(with.wcet, without.wcet + 100);
    }

    #[test]
    fn warm_context_is_bit_identical_to_cold() {
        // Same program, swept cost models — the second and later solves
        // hit the context's cached basis and must reproduce the cold
        // bound field-for-field (block counts included).
        let p = crc(16, Placement::default());
        let ctx = SolveContext::new();
        for scale in 1u64..=4 {
            let mut costs = slot_costs(&p);
            for c in costs.base.values_mut() {
                *c *= scale;
            }
            let warm = wcet_ipet_ctx(&p, &costs, &IpetOptions::default(), &ctx).expect("solves");
            let cold = wcet_ipet(&p, &costs, &IpetOptions::default()).expect("solves");
            assert_eq!(warm, cold);
            assert_eq!(warm.block_counts, cold.block_counts);
        }
        let stats = ctx.stats();
        assert_eq!(stats.cold_solves, 1);
        assert_eq!(stats.warm_hits, 3);
        // Warm solves really skipped phase 1.
        let mut costs = slot_costs(&p);
        for c in costs.base.values_mut() {
            *c *= 5;
        }
        let warm = wcet_ipet_ctx(&p, &costs, &IpetOptions::default(), &ctx).expect("solves");
        assert!(warm.solver.phase1_skips > 0);
        assert_eq!(warm.solver.phase1_pivots, 0);
    }

    #[test]
    fn persistence_extras_charged_per_entry() {
        let p = matmul(2, Placement::default());
        let mut costs = unit_costs(&p);
        // Attach an extra of 50 to the innermost loop header (kh = block 5);
        // it has n^2 = 4 entries.
        let kh = BlockId::from_index(5);
        costs.loop_entry_extras.insert(kh, 50);
        let with = wcet_ipet(&p, &costs, &IpetOptions::default()).expect("solves");
        costs.loop_entry_extras.clear();
        let without = wcet_ipet(&p, &costs, &IpetOptions::default()).expect("solves");
        assert_eq!(with.wcet, without.wcet + 4 * 50);
    }
}
