//! Cooperative per-cell budgets for simplex effort.
//!
//! The mirror of `wcet_ir::budget` for the solver layer: a campaign
//! worker arms a [`BudgetScope`] around one cell's analysis, and every
//! pivot of either simplex tier (exact rational or f64 fast path)
//! charges against it. Exhaustion — too many pivots, or the cell's
//! wall-clock deadline — aborts the solve by unwinding with a typed
//! [`BudgetExceeded`] payload that the supervisor catches at the cell
//! boundary. Solver objects are per-call locals, so the unwind cannot
//! corrupt shared state (the warm-start context records a basis only
//! after a solve returns).
//!
//! The two budget modules are deliberately separate: this crate is a
//! free-standing LP/ILP solver with no IR dependency, and each module
//! meters the resource its own crate owns.

use std::cell::Cell;
use std::fmt;
use std::time::Instant;

/// The unwind payload of an exhausted budget. Catch with
/// `std::panic::catch_unwind` and downcast to classify the abort.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetExceeded {
    /// What ran out (e.g. `"simplex pivots"`).
    pub resource: &'static str,
    /// The armed limit.
    pub limit: u64,
}

impl fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cell budget exceeded: over {} {}",
            self.limit, self.resource
        )
    }
}

#[derive(Clone, Copy)]
struct State {
    remaining: u64,
    limit: u64,
    deadline: Option<Instant>,
    wall_ms: u64,
    tick: u32,
}

const UNARMED: State = State {
    remaining: u64::MAX,
    limit: u64::MAX,
    deadline: None,
    wall_ms: 0,
    tick: 0,
};

thread_local! {
    static STATE: Cell<State> = const { Cell::new(UNARMED) };
}

/// An armed budget; dropping it restores whatever was armed before.
pub struct BudgetScope {
    prev: State,
}

impl BudgetScope {
    /// Arms this thread with a pivot budget and/or a wall-clock deadline
    /// (`(instant, limit_ms)`, the latter only for the abort message).
    /// `None`/`None` arms an infinite scope, which still shields the
    /// caller from any stale outer scope.
    #[must_use]
    pub fn arm(max_pivots: Option<u64>, deadline: Option<(Instant, u64)>) -> BudgetScope {
        let prev = STATE.get();
        STATE.set(State {
            remaining: max_pivots.unwrap_or(u64::MAX),
            limit: max_pivots.unwrap_or(u64::MAX),
            deadline: deadline.map(|(at, _)| at),
            wall_ms: deadline.map_or(0, |(_, ms)| ms),
            tick: 0,
        });
        BudgetScope { prev }
    }
}

impl Drop for BudgetScope {
    fn drop(&mut self) {
        STATE.set(self.prev);
    }
}

/// Charges one simplex pivot against the armed budget (no-op when
/// unarmed). Aborts by unwinding with [`BudgetExceeded`] on exhaustion;
/// the wall-clock deadline is probed every 64 charges (and on the
/// first), keeping the `Instant::now` cost off the pivot hot path.
#[inline]
pub(crate) fn charge_pivot() {
    let mut s = STATE.get();
    if s.remaining == u64::MAX && s.deadline.is_none() {
        return;
    }
    if s.remaining == 0 {
        std::panic::panic_any(BudgetExceeded {
            resource: "simplex pivots",
            limit: s.limit,
        });
    }
    if s.remaining != u64::MAX {
        s.remaining -= 1;
    }
    if let Some(at) = s.deadline {
        if s.tick.is_multiple_of(64) && Instant::now() >= at {
            std::panic::panic_any(BudgetExceeded {
                resource: "cell wall-clock ms",
                limit: s.wall_ms,
            });
        }
        s.tick = s.tick.wrapping_add(1);
    }
    STATE.set(s);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_charges_are_free_and_infallible() {
        for _ in 0..10_000 {
            charge_pivot();
        }
    }

    #[test]
    fn exhaustion_unwinds_with_a_typed_payload() {
        let _scope = BudgetScope::arm(Some(2), None);
        charge_pivot();
        charge_pivot();
        let err = std::panic::catch_unwind(charge_pivot).expect_err("third charge must abort");
        let payload = err
            .downcast::<BudgetExceeded>()
            .expect("typed BudgetExceeded payload");
        assert_eq!(payload.resource, "simplex pivots");
        assert_eq!(payload.limit, 2);
    }

    #[test]
    fn a_budgeted_solve_aborts_instead_of_spinning() {
        use crate::model::{CmpOp, LinExpr, LpModel};
        // max 3x + 2y s.t. x + y ≤ 4, x + 3y ≤ 6 pivots at least once;
        // a zero-pivot budget must abort it with the typed payload.
        let mut m = LpModel::new();
        let x = m.add_var();
        let y = m.add_var();
        m.add_constraint(LinExpr::new().with_term(x, 1).with_term(y, 1), CmpOp::Le, 4);
        m.add_constraint(LinExpr::new().with_term(x, 1).with_term(y, 3), CmpOp::Le, 6);
        m.set_objective(LinExpr::new().with_term(x, 3).with_term(y, 2));
        let _scope = BudgetScope::arm(Some(0), None);
        let caught = std::panic::catch_unwind(|| crate::simplex::solve_lp(&m));
        let err = caught.expect_err("budget must abort the solve");
        assert!(err.downcast_ref::<BudgetExceeded>().is_some());
    }
}
