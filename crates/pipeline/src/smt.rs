//! SMT core policies (paper §4.2/§5.3: Barre et al. \[1\], Mische et al.
//! \[22\], Cazorla et al. \[5\]).
//!
//! A simultaneous-multithreaded core shares both storage resources
//! (instruction queues — partitioned here, following Barre et al.) and
//! bandwidth resources (issue slots — the policy below). Only the
//! *predictable* policy admits a per-thread WCET bound; the free-for-all
//! policy is provided so experiments can show the measured variance that
//! makes it unanalysable.

use std::fmt;

/// Issue-slot allocation policy of an SMT core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SmtPolicy {
    /// Strict round-robin issue slots + partitioned queues: thread `t` may
    /// use the pipeline only on cycles `≡ t (mod K)`. Analysable: each
    /// thread behaves like a `K×`-slower private core
    /// (see [`smt_instr_time`](crate::timing::smt_instr_time)).
    PredictableRoundRobin,
    /// Greedy issue: any ready thread may take any cycle (oldest-ready
    /// first). Better average throughput, but a thread's timing depends on
    /// its co-runners — no isolation, no per-thread bound.
    FreeForAll,
}

impl SmtPolicy {
    /// True if a thread's WCET can be computed without knowing the
    /// co-runners (the paper's task-isolation criterion, §3.3).
    #[must_use]
    pub fn isolates(self) -> bool {
        matches!(self, SmtPolicy::PredictableRoundRobin)
    }
}

impl fmt::Display for SmtPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SmtPolicy::PredictableRoundRobin => "predictable-rr",
            SmtPolicy::FreeForAll => "free-for-all",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_for_all_has_no_bound() {
        assert!(!SmtPolicy::FreeForAll.isolates());
        assert!(SmtPolicy::PredictableRoundRobin.isolates());
    }
}
