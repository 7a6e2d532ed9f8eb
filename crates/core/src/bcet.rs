//! Best-case execution time (BCET) lower bounds.
//!
//! Li et al.'s lifetime analysis (paper §4.1, experiment E03) needs
//! *lower* bounds on task start/finish times, which in turn need BCETs.
//! A sound BCET is the dual of IPET: **minimise** path cost over the flow
//! system, with minimum loop-iteration facts (`FlowFacts::min_bound`) as
//! lower-bound constraints and *best-case* block costs:
//!
//! * every access is charged its cheapest feasible outcome — the L1 hit
//!   path, except accesses the must/may analysis proves `ALWAYS_MISS`,
//!   which are charged the miss path at zero bus wait;
//! * execution latencies are exact; the pipeline fill is exact.
//!
//! Minimising over a superset of the feasible paths with per-access lower
//! bounds yields a value ≤ every concrete execution — tested end to end
//! against the simulator.

use wcet_cache::analysis::Classification;
use wcet_cache::multilevel::{analyze_hierarchy, HierarchyConfig};
use wcet_ilp::{solve_ilp, IlpConfig, LinExpr, LpModel, Rat, SolveStatus};
use wcet_ir::Program;
use wcet_pipeline::cost::{BlockCosts, CostInput};
use wcet_pipeline::timing::instr_time;

use crate::analyzer::{AnalysisError, Analyzer, TaskContext};
use crate::ipet::{FlowSystem, IpetError};

/// Best-case block costs: every access charged its cheapest outcome.
#[must_use]
pub fn best_block_costs(
    program: &Program,
    hierarchy: &wcet_cache::multilevel::HierarchyAnalysis,
    input: &CostInput,
) -> BlockCosts {
    let t = &input.timings;
    let base = program
        .cfg()
        .iter()
        .map(|(b, blk)| {
            let mut cost = 0u64;
            let mut sites = program.accesses(b).into_iter();
            let best_extra = |site: &wcet_ir::AccessSite, is_fetch: bool| -> u64 {
                let id = (site.block, site.seq);
                let l1 = if is_fetch {
                    &hierarchy.l1i
                } else {
                    &hierarchy.l1d
                };
                match l1.class(id) {
                    Some(Classification::AlwaysMiss) => {
                        // Guaranteed past L1; cheapest continuation: L2 hit
                        // if an L2 exists and the access *may* hit there,
                        // else memory at zero wait.
                        match (t.l2_hit, hierarchy.l2.as_ref().and_then(|a| a.class(id))) {
                            (Some(_), Some(Classification::AlwaysMiss)) => t.mem_extra(0),
                            (Some(_), _) => t.l2_hit_extra(),
                            (None, _) => t.mem_extra(0),
                        }
                    }
                    // AH / PS / NC / unknown: a hit is feasible.
                    _ => t.l1_hit_extra(),
                }
            };
            let blk_instrs = blk.instrs();
            for ins in blk_instrs {
                let fetch = sites.next().expect("fetch site per slot");
                let fe = best_extra(&fetch, true);
                let de = if ins.mem_ref().is_some() {
                    let d = sites.next().expect("data site");
                    best_extra(&d, false)
                } else {
                    0
                };
                // Best case is the single-threaded time even on SMT cores
                // (slots may align perfectly), so no K-stretch here.
                cost += instr_time(ins, fe, de);
            }
            let term = sites.next().expect("terminator fetch");
            cost += 1 + best_extra(&term, true);
            (b, cost)
        })
        .collect();
    BlockCosts {
        base,
        loop_entry_extras: std::collections::BTreeMap::new(),
        startup: input.pipeline.startup_cycles(),
    }
}

/// Minimum-path IPET: minimise `Σ cost_b · x_b` subject to flow
/// conservation, `f_back ≥ min · f_entry` and `f_back ≤ max · f_entry`.
///
/// # Errors
///
/// Returns [`IpetError`] if the flow system is infeasible or the solver
/// gives up.
pub fn bcet_ipet(program: &Program, costs: &BlockCosts, ilp: IlpConfig) -> Result<u64, IpetError> {
    let mut model = LpModel::new();
    let flow = FlowSystem::add(&mut model, program, true);
    // Minimise = maximise the negated objective.
    let mut obj = LinExpr::new();
    for (b, &v) in &flow.x {
        obj.add_term(v, -Rat::from(costs.cost(*b)));
    }
    model.set_objective(obj);
    let (solution, _) = solve_ilp(&model, ilp).map_err(IpetError::Ilp)?;
    match solution.status {
        SolveStatus::Infeasible => return Err(IpetError::Infeasible),
        SolveStatus::Unbounded => return Err(IpetError::Unbounded),
        SolveStatus::Optimal => {}
    }
    let min_path = (-solution.objective).floor().max(0);
    Ok(u64::try_from(min_path).unwrap_or(0) + costs.startup)
}

impl Analyzer {
    /// A sound BCET lower bound for the task on `(core, thread)`:
    /// best-case block costs (hits wherever a hit is feasible, zero bus
    /// waits) and minimum loop iterations.
    ///
    /// # Errors
    ///
    /// See [`AnalysisError`].
    pub fn bcet(
        &self,
        program: &Program,
        core: usize,
        thread: usize,
    ) -> Result<u64, AnalysisError> {
        let ctx: TaskContext = self.task_context(core, thread, Vec::new(), Some(Some(0)))?;
        let hier_cfg = HierarchyConfig {
            l1i: ctx.l1i,
            l1d: ctx.l1d,
            l2: ctx.l2.clone(),
        };
        let hierarchy = analyze_hierarchy(program, &hier_cfg);
        let input = CostInput {
            pipeline: self.machine().pipeline,
            timings: ctx.timings,
            bus_wait_bound: Some(0),
            mode: ctx.mode,
        };
        let costs = best_block_costs(program, &hierarchy, &input);
        Ok(bcet_ipet(program, &costs, wcet_ilp::IlpConfig::default())?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::run_machine;
    use wcet_ir::synth::{self, Placement};
    use wcet_sim::config::MachineConfig;

    #[test]
    fn bcet_below_observation_below_wcet() {
        let m = MachineConfig::symmetric(1);
        let an = Analyzer::new(m.clone());
        for p in [
            synth::matmul(5, Placement::slot(0)),
            synth::fir(4, 12, Placement::slot(0)),
            synth::crc(24, Placement::slot(0)),
            synth::bsort(8, Placement::slot(0)),
            synth::single_path(4, 20, Placement::slot(0)),
        ] {
            let bcet = an.bcet(&p, 0, 0).expect("analyses");
            let wcet = an.wcet_solo(&p, 0, 0).expect("analyses").wcet;
            let obs = run_machine(&m, vec![(0, 0, p.clone())], 100_000_000)
                .expect("runs")
                .cycles(0, 0);
            assert!(
                bcet <= obs,
                "{}: BCET {bcet} exceeds observation {obs}",
                p.name()
            );
            assert!(obs <= wcet, "{}: observation above WCET", p.name());
            assert!(bcet > 0);
        }
    }

    #[test]
    fn exact_loops_make_bcet_meaningful() {
        // With exact (min == max) counted loops the BCET must be a decent
        // fraction of the observation, not a trivial zero-iteration bound.
        let m = MachineConfig::symmetric(1);
        let an = Analyzer::new(m.clone());
        let p = synth::single_path(4, 20, Placement::slot(0));
        let bcet = an.bcet(&p, 0, 0).expect("analyses");
        let obs = run_machine(&m, vec![(0, 0, p)], 100_000_000)
            .expect("runs")
            .cycles(0, 0);
        assert!(bcet * 4 >= obs, "BCET {bcet} too weak vs observation {obs}");
    }

    #[test]
    fn bcet_never_exceeds_wcet_on_random_programs() {
        let m = MachineConfig::symmetric(1);
        let an = Analyzer::new(m);
        for seed in 0..15u64 {
            let p = synth::random_program(seed, synth::RandomParams::default(), Placement::slot(0));
            let bcet = an.bcet(&p, 0, 0).expect("analyses");
            let wcet = an.wcet_solo(&p, 0, 0).expect("analyses").wcet;
            assert!(bcet <= wcet, "seed {seed}: BCET {bcet} > WCET {wcet}");
        }
    }
}
