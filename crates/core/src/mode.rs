//! Trait-based analysis-mode strategies.
//!
//! The paper's three approach families differ only in two per-task
//! decisions: how much of the shared L2 an unknown/known co-runner set may
//! corrupt (the per-set interference shift), and which bus-delay bound to
//! charge per memory transaction. [`AnalysisMode`] captures exactly those
//! two decisions; [`crate::analyzer::Analyzer::wcet_with`] and
//! [`crate::engine::AnalysisEngine`] are generic over them.
//!
//! * [`Solo`] — classic single-task assumption (paper §2.1, **unsafe** on
//!   shared hardware);
//! * [`Isolated`] — task isolation (paper §3.3): no co-runner knowledge;
//! * [`JointRefs`] — joint analysis (paper §3.1/§4.1): known co-runner
//!   footprints.

use std::collections::{BTreeMap, BTreeSet};

use wcet_cache::config::LineAddr;
use wcet_cache::partition::PartitionPlan;
use wcet_cache::shared::InterferenceMap;
use wcet_sim::config::MachineConfig;

use crate::analyzer::Analyzer;

/// An L2 footprint: the lines a co-runner may install, per set.
pub type Footprint = BTreeMap<u32, BTreeSet<LineAddr>>;

/// One of the paper's approach families, reduced to the two decisions the
/// per-task analysis actually varies on.
pub trait AnalysisMode {
    /// Mode label recorded in [`crate::analyzer::WcetReport::mode`].
    fn name(&self) -> &str;

    /// The per-set L2 must-age shift this mode assumes (empty = none).
    fn l2_shift(&self, machine: &MachineConfig) -> Vec<u32>;

    /// The bus-wait bound override: `Some(b)` forces `b` (including
    /// `Some(None)` = provably unbounded), `None` derives the bound from
    /// the machine's arbiter.
    fn bus_bound(&self, analyzer: &Analyzer, core: usize, thread: usize) -> Option<Option<u64>> {
        let _ = (analyzer, core, thread);
        None
    }
}

/// Classic solo analysis: the task is assumed alone on the machine.
#[derive(Debug, Clone, Copy, Default)]
pub struct Solo;

impl AnalysisMode for Solo {
    fn name(&self) -> &str {
        "solo"
    }

    fn l2_shift(&self, _machine: &MachineConfig) -> Vec<u32> {
        Vec::new()
    }

    fn bus_bound(&self, analyzer: &Analyzer, core: usize, thread: usize) -> Option<Option<u64>> {
        // "Alone" means zero *contention*, but a non-work-conserving
        // arbiter (TDMA/MBBA/wheel) makes a lone requester wait for its
        // slot anyway; that wait must be charged even in solo mode.
        let machine = analyzer.machine();
        let arb = machine.bus.arbiter.build(analyzer.total_slots());
        Some(if arb.work_conserving() {
            Some(0)
        } else {
            arb.worst_case_delay(analyzer.bus_slot(core, thread), machine.bus.transfer)
        })
    }
}

/// Task-isolation analysis: sound with no knowledge of co-runners.
#[derive(Debug, Clone, Copy, Default)]
pub struct Isolated;

impl AnalysisMode for Isolated {
    fn name(&self) -> &str {
        "isolated"
    }

    fn l2_shift(&self, machine: &MachineConfig) -> Vec<u32> {
        match &machine.l2 {
            Some(l2) if matches!(l2.partition, PartitionPlan::Shared) => {
                // Unknown co-runners can evict anything.
                vec![l2.cache.ways(); l2.cache.sets() as usize]
            }
            _ => Vec::new(),
        }
    }
}

/// Joint analysis over known co-runner L2 footprints (typically from
/// [`Analyzer::l2_footprint`]), borrowed: callers hold the footprints
/// and lend them per call.
#[derive(Debug, Clone, Copy)]
pub struct JointRefs<'a>(pub &'a [&'a Footprint]);

impl AnalysisMode for JointRefs<'_> {
    fn name(&self) -> &str {
        "joint"
    }

    fn l2_shift(&self, machine: &MachineConfig) -> Vec<u32> {
        match &machine.l2 {
            Some(l2) => {
                let im = InterferenceMap::from_footprints(self.0.iter().copied());
                im.shift_vector(l2.cache.sets(), l2.cache.ways())
            }
            None => Vec::new(),
        }
    }
}
