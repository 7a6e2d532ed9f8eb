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
//!
//! Beside it the context keeps the key's last **optimal** basis, but
//! only as the exact referee's memory, never as a start: every basis a
//! solve returns as optimal is nonsingular (the referee factorized it,
//! the exact tier pivoted to it through an explicit inverse, or it
//! equals an earlier such basis), so a later solve whose f64 tier ends
//! on the same basis is certified by an O(nnz) check of its own point
//! instead of a fresh factorization (see the private `certify`
//! module). Both are basis indices, O(m) words per key; no factor is
//! kept.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crate::branch_bound::{solve_ilp_warm, IlpConfig, IlpError, IlpStats};
use crate::model::{LpModel, Solution, SolveStats};
use crate::simplex::{solve_lp_proven, WarmBasis};

/// Poison-tolerant lock accessor: a supervised caller that panics
/// mid-solve (budget abort, injected fault) never holds these locks at
/// the point of unwind, so the guarded state is consistent; recover
/// instead of wedging every other worker sharing the context.
fn lock_ok<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Key identifying one constraint system (callers typically use a task
/// content fingerprint — any stable 128-bit identity works; a mismatch
/// only costs the warm start and the check-first shortcut, never
/// correctness, because basis dimensions are re-validated against the
/// model on every use and a proven basis is only ever a candidate that
/// the exact check or a fresh factorization decides).
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

/// What the context knows about one constraint system.
#[derive(Debug, Default)]
struct Bases {
    /// The phase-1 feasible basis warm starts adopt (the first one a
    /// solve produced; never overwritten).
    feasible: Option<Arc<WarmBasis>>,
    /// The last basis a solve returned as optimal — proven nonsingular,
    /// handed to the referee so it can check instead of factorize.
    proven: Option<Arc<WarmBasis>>,
}

/// A thread-safe cache of phase-1 feasible bases and proven optimal
/// bases, keyed by constraint system. See the [module docs](self).
#[derive(Debug, Default)]
pub struct SolveContext {
    bases: Mutex<HashMap<SolveKey, Bases>>,
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

    /// The key's feasible and proven bases.
    fn cached(&self, key: SolveKey) -> (Option<Arc<WarmBasis>>, Option<Arc<WarmBasis>>) {
        lock_ok(&self.bases)
            .get(&key)
            .map_or((None, None), |b| (b.feasible.clone(), b.proven.clone()))
    }

    /// Records the outcome of one solve: count the hit/miss, populate
    /// the feasible basis on a miss that produced one, and remember an
    /// optimal basis that differs from the `proven` one the solve was
    /// given. The feasible basis is never overwritten: all solves under
    /// a key share one constraint system, so any produced basis is
    /// equally valid — and if a caller mis-keys two systems together,
    /// keeping the first avoids the two thrashing each other out of the
    /// cache forever.
    fn record(
        &self,
        key: SolveKey,
        warm_used: bool,
        feasible: Option<WarmBasis>,
        optimal: Option<WarmBasis>,
        proven: Option<&WarmBasis>,
        stats: &SolveStats,
    ) {
        lock_ok(&self.stats).absorb(&SolverStats {
            warm_hits: u64::from(warm_used),
            cold_solves: u64::from(!warm_used),
            totals: *stats,
        });
        let feasible = feasible.filter(|_| !warm_used);
        let optimal = optimal.filter(|b| proven != Some(b));
        if feasible.is_none() && optimal.is_none() {
            return;
        }
        let mut bases = lock_ok(&self.bases);
        let entry = bases.entry(key).or_default();
        if let Some(basis) = feasible {
            entry.feasible.get_or_insert_with(|| Arc::new(basis));
        }
        if let Some(basis) = optimal {
            entry.proven = Some(Arc::new(basis));
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
        let (warm, proven) = self.cached(key);
        let out = solve_ilp_warm(model, config, warm.as_deref(), proven.as_deref())?;
        self.record(
            key,
            out.root_warm_used,
            out.root_feasible_basis,
            out.root_optimal_basis,
            proven.as_deref(),
            &out.solution.stats,
        );
        Ok((out.solution, out.stats))
    }

    /// [`crate::solve_lp`] through the warm-start cache.
    #[must_use]
    pub fn solve_lp(&self, key: SolveKey, model: &LpModel) -> Solution {
        let (warm, proven) = self.cached(key);
        let out = solve_lp_proven(model, warm.as_deref(), proven.as_deref());
        let warm_used = out.solution.stats.warm_starts > 0;
        self.record(
            key,
            warm_used,
            out.feasible_basis,
            out.optimal_basis,
            proven.as_deref(),
            &out.solution.stats,
        );
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
        let x = m.add_int_var();
        let y = m.add_int_var();
        let z = m.add_var();
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
        let x = other.add_var();
        other.add_constraint(LinExpr::new().with_term(x, 1), CmpOp::Le, 4);
        other.set_objective(LinExpr::new().with_term(x, 1));
        let (s, _) = ctx
            .solve_ilp(key, &other, IlpConfig::default())
            .expect("solves");
        assert_eq!(s.objective, Rat::int(4));
        assert_eq!(ctx.stats().cold_solves, 2);
    }

    /// `max (obj·x) s.t. x ≤ rhs, x + y ≤ 5` under two objective
    /// scales, both ending on the same terminal basis.
    fn one_row(obj: Rat, rhs: Rat) -> [LpModel; 2] {
        [1, 2].map(|scale| {
            let mut m = LpModel::new();
            let x = m.add_var();
            let y = m.add_var();
            m.add_constraint(LinExpr::new().with_term(x, 1), CmpOp::Le, rhs);
            m.add_constraint(LinExpr::new().with_term(x, 1).with_term(y, 1), CmpOp::Le, 5);
            m.set_objective(LinExpr::new().with_term(x, obj * Rat::int(scale)));
            m
        })
    }

    /// Solves both models through one context and returns the second
    /// solve, after checking that its terminal basis is the proven one
    /// (so its referee took the check-first branch).
    fn second_solve(models: &[LpModel; 2]) -> Solution {
        let ctx = SolveContext::new();
        let key = (7, 7);
        let first = ctx.solve_lp(key, &models[0]);
        assert_eq!(first.stats.cert_factors, 1, "first sight factorizes");
        let proven = ctx.cached(key).1.expect("an optimal basis is remembered");
        let cold = crate::simplex::solve_lp_proven(&models[1], None, None);
        assert_eq!(cold.optimal_basis.as_ref(), Some(&*proven));
        let second = ctx.solve_lp(key, &models[1]);
        assert_eq!(second.stats.certified, 1);
        assert_eq!(second.stats.fallbacks, 0);
        assert_eq!(second, cold.solution, "same point as a context-free solve");
        assert_eq!(second, crate::solve_lp(&models[1]));
        second
    }

    #[test]
    fn integral_proposals_certify_without_factorizing() {
        let second = second_solve(&one_row(Rat::int(3), Rat::int(4)));
        assert_eq!(second.stats.cert_factors, 0);
        assert_eq!(second.objective, Rat::int(24));
    }

    #[test]
    fn bad_proposals_fall_back_to_the_factorization() {
        let tiny = Rat::new(1, 1 << 40);
        for (what, obj, rhs) in [
            // x = 4/3 rounds to no integer: no proposal.
            ("fractional", Rat::int(3), Rat::new(4, 3)),
            // x = 4 + 2⁻⁴⁰ rounds to 4, and B·x̂ = b refutes it.
            ("mis-rounded primal", Rat::int(3), Rat::int(4) + tiny),
            // Row 0's dual is x's cost, (3 + 2⁻⁴⁰)·scale: it rounds to
            // an integer, and c_B − ŷᵀB ≠ 0 refutes it.
            ("mis-rounded dual", Rat::int(3) + tiny, Rat::int(4)),
        ] {
            let second = second_solve(&one_row(obj, rhs));
            assert_eq!(second.stats.cert_factors, 1, "{what} must factorize");
            assert_eq!(second.values[0], rhs, "{what}");
        }
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
