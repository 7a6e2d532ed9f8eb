//! Deterministic fault injection for the supervision layer's test
//! suite: a seeded [`FaultPlan`] decides — as a pure function of the
//! plan and a cell's lexicographic rank — which cells panic, which are
//! starved to an impossible budget, and after which sequenced chunks
//! the memo file is torn or poisoned.
//!
//! Every predicate is compiled to a constant `false` unless the crate
//! is built with the `fault-inject` feature, so release binaries can
//! carry a plan without ever acting on it; with the feature on, the
//! same seed always injects the same faults, which is what lets the
//! proptests assert that the surviving cells of a faulted campaign are
//! byte-identical to a fault-free run.

use crate::load::splitmix64;

/// The seeded fault schedule of one campaign run (inert unless built
/// with the `fault-inject` feature).
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultPlan {
    /// Seed of every per-rank decision below.
    pub seed: u64,
    /// Panic one cell in N on its first attempt (`0` = never). The
    /// retry attempt is not re-injected, so a retried cell models a
    /// transient, chain-poisoning fault.
    pub panic_one_in: u64,
    /// Starve one cell in N to a one-pivot, one-evaluation budget
    /// (`0` = never) — a deterministic `BudgetExceeded` failure.
    pub starve_one_in: u64,
    /// Tear the memo file's tail after this sequenced chunk is
    /// absorbed, simulating `kill -9` mid-append.
    pub torn_append_chunk: Option<usize>,
    /// Flip a byte of the memo's final line after this sequenced chunk
    /// is absorbed, simulating silent single-byte corruption.
    pub poison_chunk: Option<usize>,
}

const SALT_PANIC: u64 = 0x0070_616e_6963; // "panic"
const SALT_STARVE: u64 = 0x7374_6172_7665; // "starve"

impl FaultPlan {
    fn one_in(&self, salt: u64, one_in: u64, rank: u64) -> bool {
        cfg!(feature = "fault-inject")
            && one_in > 0
            && splitmix64(self.seed ^ salt ^ rank).is_multiple_of(one_in)
    }

    /// Does this cell's first attempt panic?
    #[must_use]
    pub fn injects_panic(&self, rank: u64) -> bool {
        self.one_in(SALT_PANIC, self.panic_one_in, rank)
    }

    /// Is this cell starved to a budget nothing real fits in?
    #[must_use]
    pub fn starves(&self, rank: u64) -> bool {
        self.one_in(SALT_STARVE, self.starve_one_in, rank)
    }

    /// Is the memo tail torn after absorbing this chunk?
    #[must_use]
    pub fn tears_after_chunk(&self, chunk: usize) -> bool {
        cfg!(feature = "fault-inject") && self.torn_append_chunk == Some(chunk)
    }

    /// Is the memo's final line poisoned after absorbing this chunk?
    #[must_use]
    pub fn poisons_after_chunk(&self, chunk: usize) -> bool {
        cfg!(feature = "fault-inject") && self.poison_chunk == Some(chunk)
    }
}

#[cfg(all(test, feature = "fault-inject"))]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_and_seed_sensitive() {
        let plan = FaultPlan {
            seed: 7,
            panic_one_in: 5,
            starve_one_in: 5,
            ..FaultPlan::default()
        };
        let panics: Vec<u64> = (0..200).filter(|&r| plan.injects_panic(r)).collect();
        assert!(!panics.is_empty(), "a 1-in-5 plan hits within 200 ranks");
        let again: Vec<u64> = (0..200).filter(|&r| plan.injects_panic(r)).collect();
        assert_eq!(panics, again, "same plan, same faults");
        let other = FaultPlan { seed: 8, ..plan };
        let moved: Vec<u64> = (0..200).filter(|&r| other.injects_panic(r)).collect();
        assert_ne!(panics, moved, "a new seed moves the faults");
        let starved: Vec<u64> = (0..200).filter(|&r| plan.starves(r)).collect();
        assert_ne!(
            panics, starved,
            "panic and starve schedules are salted apart"
        );
    }

    #[test]
    fn zero_rates_never_fire() {
        let plan = FaultPlan::default();
        assert!((0..100).all(|r| !plan.injects_panic(r) && !plan.starves(r)));
        assert!(!plan.tears_after_chunk(0));
    }
}
