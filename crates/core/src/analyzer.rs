//! The task-level WCET analyser: one façade over the paper's three
//! approach families (§3).
//!
//! Given a [`MachineConfig`] (the same description the simulator runs),
//! [`Analyzer`] derives the per-task analysis inputs — effective cache
//! geometries under partitioning, arbiter delay bounds, SMT stretch
//! factors — and computes WCET bounds in three modes:
//!
//! * [`Analyzer::wcet_solo`] — the classic single-task assumption
//!   (paper §2.1). **Unsafe on shared hardware**; kept as the reference
//!   line and for experiment E12.
//! * [`Analyzer::wcet_isolated`] — task isolation (paper §3.3/§5.3): no
//!   knowledge of co-runners; partitions/locks give private storage,
//!   arbiters give workload-independent bus bounds. On an *unpartitioned*
//!   shared L2 this soundly assumes every L2 guarantee can be destroyed.
//! * [`Analyzer::wcet_joint`] — joint analysis (paper §3.1/§4.1): known
//!   co-runner footprints shift must-ages per set (Yan & Zhang; Li et
//!   al.; Hardy et al.), optionally restricted by lifetime analysis.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use wcet_cache::analysis::{AnalysisInput, LevelKind};
use wcet_cache::config::{CacheConfig, LineAddr};
use wcet_cache::multilevel::{analyze_hierarchy, HierarchyAnalysis, HierarchyConfig};
use wcet_cache::partition::{OwnerId, PartitionPlan};
use wcet_ir::Program;
use wcet_pipeline::cost::{block_costs, CoreMode, CostInput, UnboundedError};
use wcet_pipeline::smt::SmtPolicy;
use wcet_pipeline::timing::MemTimings;
use wcet_sim::config::{CoreKind, MachineConfig};

use crate::ipet::{wcet_ipet, IpetError, IpetOptions, WcetBound};
use crate::mode::{AnalysisMode, Isolated, JointRefs, Solo};

/// Analysis failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalysisError {
    /// The configuration admits no per-task bound (free-for-all SMT,
    /// shared unpartitioned L1, yield-switching core — use the joint
    /// analyses instead).
    Unanalysable(String),
    /// The bus gives this requester no delay bound.
    Unbounded,
    /// IPET failed.
    Ipet(IpetError),
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::Unanalysable(why) => write!(f, "not analysable in isolation: {why}"),
            AnalysisError::Unbounded => {
                f.write_str("no finite WCET: bus arbiter provides no delay bound")
            }
            AnalysisError::Ipet(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for AnalysisError {}

impl From<UnboundedError> for AnalysisError {
    fn from(_: UnboundedError) -> Self {
        AnalysisError::Unbounded
    }
}

impl From<IpetError> for AnalysisError {
    fn from(e: IpetError) -> Self {
        AnalysisError::Ipet(e)
    }
}

/// A WCET analysis result with its provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WcetReport {
    /// Task (program) name.
    pub task: String,
    /// Analysis mode ("solo", "isolated", "joint").
    pub mode: String,
    /// The WCET bound in cycles.
    pub wcet: u64,
    /// Bus waiting bound used per memory transaction.
    pub bus_wait_bound: Option<u64>,
    /// L1I classification histogram `(ah, am, ps, nc)`.
    pub l1i_hist: (usize, usize, usize, usize),
    /// L1D classification histogram.
    pub l1d_hist: (usize, usize, usize, usize),
    /// L2 classification histogram, if an L2 was analysed.
    pub l2_hist: Option<(usize, usize, usize, usize)>,
    /// IPET model size and solver effort.
    pub ipet: WcetBound,
}

/// The per-task analysis inputs derived from a machine description.
#[derive(Debug, Clone)]
pub struct TaskContext {
    /// Effective L1I geometry (SMT slices applied).
    pub l1i: CacheConfig,
    /// Effective L1D geometry.
    pub l1d: CacheConfig,
    /// L2 analysis input (effective geometry + locks/bypass +
    /// interference), if the machine has an L2.
    pub l2: Option<AnalysisInput>,
    /// Memory-system timing parameters.
    pub timings: MemTimings,
    /// Bus waiting bound per transaction.
    pub bus_wait_bound: Option<u64>,
    /// Core threading mode.
    pub mode: CoreMode,
}

/// WCET analyser over a machine description.
#[derive(Debug, Clone)]
pub struct Analyzer {
    machine: MachineConfig,
}

impl Analyzer {
    /// Creates an analyser for `machine`.
    #[must_use]
    pub fn new(machine: MachineConfig) -> Analyzer {
        Analyzer { machine }
    }

    /// The machine description.
    #[must_use]
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// Total bus-requester slots (hardware threads).
    #[must_use]
    pub fn total_slots(&self) -> usize {
        self.machine.total_threads()
    }

    /// The flattened bus slot of `(core, thread)`.
    #[must_use]
    pub fn bus_slot(&self, core: usize, thread: usize) -> usize {
        self.machine.cores[..core]
            .iter()
            .map(|c| c.kind.threads() as usize)
            .sum::<usize>()
            + thread
    }

    /// The effective per-thread L1s and core mode of `(core, thread)`.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::Unanalysable`] for configurations without a sound
    /// per-thread model.
    pub(crate) fn core_context(
        &self,
        core: usize,
    ) -> Result<(CacheConfig, CacheConfig, CoreMode), AnalysisError> {
        let cc = &self.machine.cores[core];
        match cc.kind {
            CoreKind::Scalar => Ok((cc.l1i, cc.l1d, CoreMode::Single)),
            CoreKind::Smt {
                threads,
                policy: SmtPolicy::PredictableRoundRobin,
                partitioned_l1,
            } => {
                if threads > 1 && !partitioned_l1 {
                    return Err(AnalysisError::Unanalysable(
                        "SMT threads share an unpartitioned L1".into(),
                    ));
                }
                let slice = |c: CacheConfig| {
                    let per = (c.ways() / threads.max(1)).max(1);
                    c.with_ways(per).expect("non-zero slice")
                };
                let (i, d) = if threads > 1 {
                    (slice(cc.l1i), slice(cc.l1d))
                } else {
                    (cc.l1i, cc.l1d)
                };
                Ok((i, d, CoreMode::PredictableSmt { threads }))
            }
            CoreKind::Smt {
                policy: SmtPolicy::FreeForAll,
                ..
            } => Err(AnalysisError::Unanalysable(
                "free-for-all SMT issue policy".into(),
            )),
            CoreKind::YieldMt { .. } => Err(AnalysisError::Unanalysable(
                "yield-switching core: use the joint yield-graph analysis".into(),
            )),
        }
    }

    fn mem_timings(&self, l1i: &CacheConfig, l1d: &CacheConfig) -> MemTimings {
        MemTimings {
            // A single L1 latency covers fetch and data; take the max for
            // soundness when they differ.
            l1_hit: l1i.hit_latency.max(l1d.hit_latency),
            l2_hit: self.machine.l2.as_ref().map(|l2| l2.cache.hit_latency),
            bus_transfer: self.machine.bus.transfer,
            mem_latency: wcet_arbiter::MemoryController::new(self.machine.memory)
                .worst_case_latency(),
        }
    }

    fn bus_bound(&self, core: usize, thread: usize) -> Option<u64> {
        let n = self.total_slots();
        let arb = self.machine.bus.arbiter.build(n);
        arb.worst_case_delay(self.bus_slot(core, thread), self.machine.bus.transfer)
    }

    /// The L2 analysis input for the task on `core`, under the given
    /// interference shift (empty = none).
    pub(crate) fn l2_input(&self, core: usize, shift: Vec<u32>) -> Option<AnalysisInput> {
        let l2 = self.machine.l2.as_ref()?;
        let effective = match &l2.partition {
            PartitionPlan::Shared => l2.cache,
            plan => plan
                .effective_config(&l2.cache, OwnerId(core as u32))
                .expect("machine partition covers every core"),
        };
        let mut input = AnalysisInput::level1(effective, LevelKind::Unified);
        // Mirror the concrete cache's lock rule exactly: lines are pinned
        // first-come in sorted order, at most `ways` per set, and each
        // pinned line consumes one way of the set's unlocked capacity.
        // Assuming more (overflow lines always-hit, or full associativity
        // left for unlocked lines) would be optimistic — i.e. unsound.
        let mut locked_per_set = vec![0u32; effective.sets() as usize];
        for &line in &l2.locked {
            let set = effective.set_of(line) as usize;
            if locked_per_set[set] < effective.ways() {
                locked_per_set[set] += 1;
                input.locked.insert(line);
            }
        }
        if locked_per_set.iter().any(|&n| n > 0) {
            input.set_ways = Some(
                locked_per_set
                    .iter()
                    .map(|&n| effective.ways() - n)
                    .collect(),
            );
        }
        input.bypass = l2.bypass.clone();
        input.interference_shift = shift;
        Some(input)
    }

    /// Builds the full per-task context for `(core, thread)` with an
    /// explicit L2 interference shift.
    ///
    /// # Errors
    ///
    /// See [`AnalysisError`].
    pub fn task_context(
        &self,
        core: usize,
        thread: usize,
        l2_shift: Vec<u32>,
        bus_bound: Option<Option<u64>>,
    ) -> Result<TaskContext, AnalysisError> {
        let (l1i, l1d, mode) = self.core_context(core)?;
        let l2 = self.l2_input(core, l2_shift);
        let timings = self.mem_timings(&l1i, &l1d);
        let bus_wait_bound = match bus_bound {
            Some(b) => b,
            None => self.bus_bound(core, thread),
        };
        Ok(TaskContext {
            l1i,
            l1d,
            l2,
            timings,
            bus_wait_bound,
            mode,
        })
    }

    /// Runs hierarchy analysis + cost computation + IPET for one context.
    ///
    /// # Errors
    ///
    /// See [`AnalysisError`].
    pub fn analyze_with_context(
        &self,
        program: &Program,
        ctx: &TaskContext,
        mode_name: &str,
    ) -> Result<WcetReport, AnalysisError> {
        let hier_cfg = HierarchyConfig {
            l1i: ctx.l1i,
            l1d: ctx.l1d,
            l2: ctx.l2.clone(),
        };
        let hierarchy = analyze_hierarchy(program, &hier_cfg);
        let cost_input = CostInput {
            pipeline: self.machine.pipeline,
            timings: ctx.timings,
            bus_wait_bound: ctx.bus_wait_bound,
            mode: ctx.mode,
        };
        let costs = block_costs(program, &hierarchy, &cost_input)?;
        let bound = wcet_ipet(program, &costs, &IpetOptions::default())?;
        Ok(build_report(
            program,
            mode_name,
            &hierarchy,
            ctx.bus_wait_bound,
            bound,
        ))
    }

    /// Analyses one task under any [`AnalysisMode`] strategy: the mode
    /// supplies the L2 interference shift and bus-bound policy, everything
    /// else (context derivation, hierarchy analysis, cost model, IPET) is
    /// shared.
    ///
    /// # Errors
    ///
    /// See [`AnalysisError`].
    pub fn wcet_with(
        &self,
        program: &Program,
        core: usize,
        thread: usize,
        mode: &dyn AnalysisMode,
    ) -> Result<WcetReport, AnalysisError> {
        let shift = mode.l2_shift(&self.machine);
        let bus = mode.bus_bound(self, core, thread);
        let ctx = self.task_context(core, thread, shift, bus)?;
        self.analyze_with_context(program, &ctx, mode.name())
    }

    /// Classic solo analysis: the task is assumed alone on the machine —
    /// full (partition-effective) L2, no bus *contention* (slot arbiters
    /// still charge their slot wait). **Unsafe** on
    /// shared hardware (paper §2.2); kept as the reference line.
    ///
    /// # Errors
    ///
    /// See [`AnalysisError`].
    pub fn wcet_solo(
        &self,
        program: &Program,
        core: usize,
        thread: usize,
    ) -> Result<WcetReport, AnalysisError> {
        self.wcet_with(program, core, thread, &Solo)
    }

    /// Task-isolation analysis (paper §3.3): sound with *no* knowledge of
    /// co-runners. Storage: partition-effective caches; an unpartitioned
    /// shared L2 is assumed fully corruptible (every set shifted by its
    /// associativity). Bandwidth: the arbiter's workload-independent
    /// bound.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::Unbounded`] if the arbiter cannot bound this
    /// requester (e.g. a best-effort thread under CarCore-style fixed
    /// priority), plus the general errors.
    pub fn wcet_isolated(
        &self,
        program: &Program,
        core: usize,
        thread: usize,
    ) -> Result<WcetReport, AnalysisError> {
        self.wcet_with(program, core, thread, &Isolated)
    }

    /// Joint analysis (paper §3.1/§4.1): co-runner footprints are known;
    /// their union shifts must-ages per set. Pass the refined footprints
    /// from [`Analyzer::l2_footprint`], restricted to tasks whose lifetime
    /// windows overlap if lifetime analysis is in use.
    ///
    /// # Errors
    ///
    /// See [`AnalysisError`].
    pub fn wcet_joint(
        &self,
        program: &Program,
        core: usize,
        thread: usize,
        corunner_footprints: &[&BTreeMap<u32, BTreeSet<LineAddr>>],
    ) -> Result<WcetReport, AnalysisError> {
        self.wcet_with(program, core, thread, &JointRefs(corunner_footprints))
    }

    /// The refined L2 footprint of a task (only lines whose accesses may
    /// reach the L2), for use as a co-runner footprint in
    /// [`Analyzer::wcet_joint`].
    ///
    /// # Errors
    ///
    /// See [`AnalysisError`].
    pub fn l2_footprint(
        &self,
        program: &Program,
        core: usize,
    ) -> Result<BTreeMap<u32, BTreeSet<LineAddr>>, AnalysisError> {
        let (l1i, l1d, _) = self.core_context(core)?;
        let hier_cfg = HierarchyConfig {
            l1i,
            l1d,
            l2: self.l2_input(core, Vec::new()),
        };
        let hierarchy: HierarchyAnalysis = analyze_hierarchy(program, &hier_cfg);
        Ok(hierarchy
            .l2
            .map(|a| a.footprint().clone())
            .unwrap_or_default())
    }
}

/// Assembles a [`WcetReport`] from the analysis intermediates (shared by
/// [`Analyzer::analyze_with_context`] and the memoizing engine).
pub(crate) fn build_report(
    program: &Program,
    mode_name: &str,
    hierarchy: &HierarchyAnalysis,
    bus_wait_bound: Option<u64>,
    bound: WcetBound,
) -> WcetReport {
    WcetReport {
        task: program.name().to_string(),
        mode: mode_name.to_string(),
        wcet: bound.wcet,
        bus_wait_bound,
        l1i_hist: hierarchy.l1i.histogram(),
        l1d_hist: hierarchy.l1d.histogram(),
        l2_hist: hierarchy.l2.as_ref().map(|a| a.histogram()),
        ipet: bound,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcet_arbiter::ArbiterKind;
    use wcet_ir::synth::{fir, matmul, Placement};

    #[test]
    fn solo_below_isolated_on_shared_l2() {
        let machine = MachineConfig::symmetric(4);
        let an = Analyzer::new(machine);
        let p = fir(4, 8, Placement::slot(0));
        let solo = an.wcet_solo(&p, 0, 0).expect("analyses");
        let iso = an.wcet_isolated(&p, 0, 0).expect("analyses");
        assert!(
            solo.wcet <= iso.wcet,
            "solo {} vs isolated {}",
            solo.wcet,
            iso.wcet
        );
        assert!(solo.wcet < iso.wcet, "isolation must cost something here");
    }

    #[test]
    fn joint_between_solo_and_isolated() {
        let machine = MachineConfig::symmetric(2);
        let an = Analyzer::new(machine);
        let victim = fir(4, 8, Placement::slot(0));
        let bully = matmul(6, Placement::slot(1));
        let fp = an.l2_footprint(&bully, 1).expect("analyses");
        let solo = an.wcet_solo(&victim, 0, 0).expect("analyses").wcet;
        let joint = an.wcet_joint(&victim, 0, 0, &[&fp]).expect("analyses").wcet;
        let iso = an.wcet_isolated(&victim, 0, 0).expect("analyses").wcet;
        assert!(solo <= joint, "solo {solo} <= joint {joint}");
        assert!(joint <= iso, "joint {joint} <= isolated {iso}");
    }

    #[test]
    fn partitioned_l2_makes_isolated_tighter() {
        let shared = MachineConfig::symmetric(4);
        let mut partitioned = shared.clone();
        {
            let l2 = partitioned.l2.as_mut().expect("has l2");
            l2.partition = PartitionPlan::even_columns(&l2.cache, 4).expect("fits");
        }
        let p = fir(8, 16, Placement::slot(0));
        let iso_shared = Analyzer::new(shared.clone())
            .wcet_isolated(&p, 0, 0)
            .expect("ok")
            .wcet;
        let iso_part = Analyzer::new(partitioned)
            .wcet_isolated(&p, 0, 0)
            .expect("ok")
            .wcet;
        assert!(
            iso_part <= iso_shared,
            "partitioning must help isolation: {iso_part} vs {iso_shared}"
        );
        let _ = shared;
    }

    #[test]
    fn fixed_priority_best_effort_is_unbounded() {
        let mut machine = MachineConfig::symmetric(2);
        machine.bus.arbiter = ArbiterKind::FixedPriority { hrt: 0 };
        let an = Analyzer::new(machine);
        let p = fir(2, 4, Placement::slot(0));
        // HRT core bounded…
        assert!(an.wcet_isolated(&p, 0, 0).is_ok());
        // …best-effort core not.
        assert_eq!(
            an.wcet_isolated(&p, 1, 0).unwrap_err(),
            AnalysisError::Unbounded
        );
    }

    #[test]
    fn free_for_all_smt_unanalysable() {
        let mut machine = MachineConfig::symmetric(1);
        machine.cores[0].kind = CoreKind::Smt {
            threads: 2,
            policy: SmtPolicy::FreeForAll,
            partitioned_l1: true,
        };
        let an = Analyzer::new(machine);
        let p = fir(2, 4, Placement::slot(0));
        assert!(matches!(
            an.wcet_isolated(&p, 0, 0),
            Err(AnalysisError::Unanalysable(_))
        ));
    }

    #[test]
    fn more_corunners_monotonically_raise_joint_wcet() {
        let machine = MachineConfig::symmetric(4);
        let an = Analyzer::new(machine);
        let victim = fir(4, 8, Placement::slot(0));
        let bullies: Vec<_> = (1..4).map(|i| matmul(6, Placement::slot(i))).collect();
        let fps: Vec<_> = bullies
            .iter()
            .enumerate()
            .map(|(i, b)| an.l2_footprint(b, i + 1).expect("ok"))
            .collect();
        let mut prev = 0;
        for k in 0..=fps.len() {
            let refs: Vec<&BTreeMap<u32, BTreeSet<LineAddr>>> = fps[..k].iter().collect();
            let w = an.wcet_joint(&victim, 0, 0, &refs).expect("ok").wcet;
            assert!(
                w >= prev,
                "adding a co-runner shrank the WCET: {w} < {prev}"
            );
            prev = w;
        }
    }
}
