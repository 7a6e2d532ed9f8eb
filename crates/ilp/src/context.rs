//! Cross-solve warm-start context.
//!
//! IPET sweeps (interference counts, partition shapes, lock budgets)
//! re-solve the *same flow-constraint system* under different cost
//! objectives. [`SolveContext`] caches, per caller-chosen key, the
//! **phase-1 feasible basis** of that system; every later solve under
//! the key skips phase 1 — typically half the pivots of an
//! equality-heavy IPET model.
//!
//! Why the *feasible* basis and not the last *optimal* basis: the
//! phase-1 basis depends only on the constraint system, never on the
//! objective, so a warm-started solve takes the exact pivot path a cold
//! solve would take after its own phase 1 — results are bit-identical
//! regardless of which solve populated the cache or in what order
//! concurrent solves interleave. An optimal basis from a *different*
//! objective would also be reusable, but would make the reported
//! solution (among alternate optima) depend on solve order — poison for
//! the engine's batch-equals-sequential guarantee.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crate::branch_bound::{solve_ilp_warm, IlpConfig, IlpError, IlpStats};
use crate::model::{LpModel, Solution, SolveStats};
use crate::simplex::{solve_lp_warm, WarmBasis};

/// Poison-tolerant lock accessor: a supervised caller that panics
/// mid-solve (budget abort, injected fault) never holds these locks at
/// the point of unwind, so the guarded state is consistent; recover
/// instead of wedging every other worker sharing the context.
fn lock_ok<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Key identifying one constraint system (callers typically use a task
/// content fingerprint — any stable 128-bit identity works; a mismatch
/// only costs the warm start, never correctness, because basis
/// dimensions are re-validated against the model on every use).
pub type SolveKey = (u64, u64);

/// A point-in-time view of ILP-solver effort: how many solves reused a
/// cached basis, how many ran cold, and every per-solve counter summed
/// over those same solves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Solves that reused a cached basis (phase 1 skipped).
    pub warm_hits: u64,
    /// Solves that ran cold (first sight of the key, or a stale basis).
    pub cold_solves: u64,
    /// Summed per-solve counters (pivots, certified fast solves,
    /// fallbacks…).
    pub totals: SolveStats,
}

impl SolverStats {
    /// Adds `other`'s counters into `self` (kept beside the struct so a
    /// new field can never be silently dropped from an aggregation).
    pub fn absorb(&mut self, other: &SolverStats) {
        self.warm_hits += other.warm_hits;
        self.cold_solves += other.cold_solves;
        self.totals.absorb(&other.totals);
    }
}

/// A thread-safe cache of phase-1 feasible bases, keyed by constraint
/// system. See the [module docs](self).
#[derive(Debug, Default)]
pub struct SolveContext {
    bases: Mutex<HashMap<SolveKey, Arc<WarmBasis>>>,
    /// Every solve served through this context, counted and summed —
    /// the one place a mixed engine/static-path workload can read its
    /// whole solver bill.
    stats: Mutex<SolverStats>,
}

impl SolveContext {
    /// Creates an empty context.
    #[must_use]
    pub fn new() -> SolveContext {
        SolveContext::default()
    }

    /// Counters so far. Lock poisoning is recovered from: the critical
    /// sections here are pure reads and absorbs, so a (supervised)
    /// panicking solver thread cannot leave the counters inconsistent.
    #[must_use]
    pub fn stats(&self) -> SolverStats {
        *lock_ok(&self.stats)
    }

    fn cached(&self, key: SolveKey) -> Option<Arc<WarmBasis>> {
        lock_ok(&self.bases).get(&key).cloned()
    }

    /// Records the outcome of one solve: count the hit/miss and, on a
    /// miss that produced a basis, populate the cache. `or_insert`
    /// (never overwrite): all solves under a key share one constraint
    /// system, so any produced basis is equally valid — and if a caller
    /// mis-keys two systems together, keeping the first avoids the two
    /// thrashing each other out of the cache forever.
    fn record(
        &self,
        key: SolveKey,
        warm_used: bool,
        feasible: Option<WarmBasis>,
        stats: &SolveStats,
    ) {
        lock_ok(&self.stats).absorb(&SolverStats {
            warm_hits: u64::from(warm_used),
            cold_solves: u64::from(!warm_used),
            totals: *stats,
        });
        if warm_used {
            return;
        }
        if let Some(basis) = feasible {
            lock_ok(&self.bases)
                .entry(key)
                .or_insert_with(|| Arc::new(basis));
        }
    }

    /// [`crate::solve_ilp`] through the warm-start cache.
    ///
    /// # Errors
    ///
    /// See [`IlpError`].
    pub fn solve_ilp(
        &self,
        key: SolveKey,
        model: &LpModel,
        config: IlpConfig,
    ) -> Result<(Solution, IlpStats), IlpError> {
        let warm = self.cached(key);
        let out = solve_ilp_warm(model, config, warm.as_deref())?;
        self.record(
            key,
            out.root_warm_used,
            out.root_feasible_basis,
            &out.solution.stats,
        );
        Ok((out.solution, out.stats))
    }

    /// [`crate::solve_lp`] through the warm-start cache.
    #[must_use]
    pub fn solve_lp(&self, key: SolveKey, model: &LpModel) -> Solution {
        let warm = self.cached(key);
        let out = solve_lp_warm(model, warm.as_deref());
        let warm_used = out.solution.stats.warm_starts > 0;
        self.record(key, warm_used, out.feasible_basis, &out.solution.stats);
        out.solution
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{CmpOp, LinExpr, SolveStatus};
    use crate::rational::Rat;

    /// An equality-heavy model whose objective is parameterized.
    fn model(obj: &[i64; 3]) -> LpModel {
        let mut m = LpModel::new();
        let x = m.add_int_var("x");
        let y = m.add_int_var("y");
        let z = m.add_var("z");
        m.add_constraint(
            LinExpr::new()
                .with_term(x, 1)
                .with_term(y, 1)
                .with_term(z, 1),
            CmpOp::Eq,
            7,
        );
        m.add_constraint(LinExpr::new().with_term(x, 2).with_term(y, 1), CmpOp::Le, 9);
        m.add_constraint(LinExpr::new().with_term(z, 1), CmpOp::Le, 3);
        let mut o = LinExpr::new();
        for (v, &c) in [x, y, z].into_iter().zip(obj) {
            o.add_term(v, c);
        }
        m.set_objective(o);
        m
    }

    #[test]
    fn repeat_solves_hit_and_match_cold() {
        let ctx = SolveContext::new();
        let key = (1, 2);
        for (i, obj) in [[3, 2, 1], [1, 5, 2], [2, 2, 9]].iter().enumerate() {
            let m = model(obj);
            let (warm, _) = ctx
                .solve_ilp(key, &m, IlpConfig::default())
                .expect("solves");
            let (cold, _) = crate::solve_ilp(&m, IlpConfig::default()).expect("solves");
            assert_eq!(warm, cold, "objective #{i} diverged");
            assert_eq!(warm.values, cold.values, "objective #{i} values diverged");
        }
        let stats = ctx.stats();
        assert_eq!(stats.cold_solves, 1);
        assert_eq!(stats.warm_hits, 2);
    }

    #[test]
    fn mismatched_key_degrades_to_cold() {
        let ctx = SolveContext::new();
        let key = (9, 9);
        let m = model(&[1, 1, 1]);
        let _ = ctx
            .solve_ilp(key, &m, IlpConfig::default())
            .expect("solves");
        // A structurally different model under the same key: dimensions
        // disagree, so the cached basis is rejected, not misused.
        let mut other = LpModel::new();
        let x = other.add_var("x");
        other.add_constraint(LinExpr::new().with_term(x, 1), CmpOp::Le, 4);
        other.set_objective(LinExpr::new().with_term(x, 1));
        let (s, _) = ctx
            .solve_ilp(key, &other, IlpConfig::default())
            .expect("solves");
        assert_eq!(s.objective, Rat::int(4));
        assert_eq!(ctx.stats().cold_solves, 2);
    }

    #[test]
    fn lp_path_shares_the_cache() {
        let ctx = SolveContext::new();
        let key = (4, 4);
        let a = ctx.solve_lp(key, &model(&[3, 2, 1]));
        assert_eq!(a.status, SolveStatus::Optimal);
        let b = ctx.solve_lp(key, &model(&[1, 4, 1]));
        assert_eq!(b.status, SolveStatus::Optimal);
        assert_eq!(b, crate::solve_lp(&model(&[1, 4, 1])));
        assert_eq!(ctx.stats().warm_hits, 1);
    }
}
