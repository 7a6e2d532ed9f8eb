//! The shared bus: one outstanding request per core, pluggable arbiter,
//! per-transaction memory-controller latency.

use wcet_arbiter::{Arbiter, MemoryController};
use wcet_ir::Addr;

/// A granted transaction, to be applied to the requesting thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// Requesting core.
    pub core: usize,
    /// Requesting hardware thread on that core.
    pub thread: usize,
    /// Cycles the requester stalls from the grant: transfer + memory.
    pub stall: u64,
    /// Cycles the request waited between issue and grant.
    pub waited: u64,
}

/// Bus statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BusStats {
    /// Total transactions granted.
    pub transactions: u64,
    /// Sum of waiting times.
    pub total_wait: u64,
    /// Maximum waiting time observed (any core).
    pub max_wait: u64,
    /// Maximum waiting time observed per core.
    pub per_core_max_wait: Vec<u64>,
}

#[derive(Debug, Clone, Copy)]
struct PendingReq {
    thread: usize,
    addr: Addr,
    issued: u64,
}

/// The shared bus.
#[derive(Debug)]
pub struct Bus {
    arbiter: Box<dyn Arbiter>,
    /// Cached [`Arbiter::work_conserving`] (the event-skipping fast path
    /// asks every probe).
    work_conserving: bool,
    transfer: u64,
    pending: Vec<Option<PendingReq>>,
    busy_until: u64,
    stats: BusStats,
    /// Reusable pending-mask buffer (tick and skip probes run per cycle).
    mask: Vec<bool>,
}

impl Bus {
    /// Creates a bus for `n` cores.
    #[must_use]
    pub fn new(arbiter: Box<dyn Arbiter>, transfer: u64, n: usize) -> Bus {
        Bus {
            work_conserving: arbiter.work_conserving(),
            arbiter,
            transfer,
            pending: vec![None; n],
            busy_until: 0,
            stats: BusStats {
                per_core_max_wait: vec![0; n],
                ..BusStats::default()
            },
            mask: vec![false; n],
        }
    }

    /// Registers a memory request from `(core, thread)` at `cycle`.
    ///
    /// # Panics
    ///
    /// Panics if the core already has an outstanding request (cores are
    /// blocking) or is out of range.
    pub fn request(&mut self, core: usize, thread: usize, addr: Addr, cycle: u64) {
        assert!(
            self.pending[core].is_none(),
            "core {core} issued a bus request while one is outstanding"
        );
        self.pending[core] = Some(PendingReq {
            thread,
            addr,
            issued: cycle,
        });
    }

    /// True if any requester has an outstanding request.
    #[must_use]
    pub(crate) fn has_any_pending(&self) -> bool {
        self.pending.iter().any(Option::is_some)
    }

    /// The earliest cycle `≥ now` at which [`Bus::tick`] could grant a
    /// transaction for the *current* pending mask, or `None` when there
    /// is nothing pending or the arbiter can never serve this mask.
    /// Exactness is the arbiter's [`Arbiter::next_grant_opportunity`]
    /// contract; bus occupancy is folded in (ticks during `busy_until`
    /// return early without consulting the arbiter).
    #[must_use]
    pub(crate) fn next_opportunity(&mut self, now: u64) -> Option<u64> {
        if !self.has_any_pending() {
            return None;
        }
        let from = now.max(self.busy_until);
        if self.work_conserving {
            // Any pending request is granted the moment the bus frees up.
            return Some(from);
        }
        for (m, p) in self.mask.iter_mut().zip(&self.pending) {
            *m = p.is_some();
        }
        self.arbiter
            .next_grant_opportunity(from, &self.mask, self.transfer)
    }

    /// Advances the bus by one cycle: if free, arbitrates among pending
    /// requests; the winning transaction occupies the bus for `transfer`
    /// cycles and stalls its requester for `transfer + mem` cycles.
    pub fn tick(&mut self, cycle: u64, memctrl: &mut MemoryController) -> Option<Grant> {
        if cycle < self.busy_until {
            return None;
        }
        if !self.has_any_pending() {
            return None;
        }
        for (m, p) in self.mask.iter_mut().zip(&self.pending) {
            *m = p.is_some();
        }
        let winner = self.arbiter.grant(cycle, &self.mask, self.transfer)?;
        let req = self.pending[winner]
            .take()
            .expect("granted core had a request");
        self.busy_until = cycle + self.transfer;
        let mem = memctrl.access(req.addr.0);
        let waited = cycle - req.issued;
        self.stats.transactions += 1;
        self.stats.total_wait += waited;
        self.stats.max_wait = self.stats.max_wait.max(waited);
        self.stats.per_core_max_wait[winner] = self.stats.per_core_max_wait[winner].max(waited);
        Some(Grant {
            core: winner,
            thread: req.thread,
            stall: self.transfer + mem,
            waited,
        })
    }

    /// Bus statistics so far.
    #[must_use]
    pub fn stats(&self) -> &BusStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcet_arbiter::{ArbiterKind, MemoryKind};

    fn memctrl() -> MemoryController {
        MemoryController::new(MemoryKind::Predictable { latency: 10 })
    }

    #[test]
    fn single_request_granted_immediately() {
        let mut bus = Bus::new(ArbiterKind::RoundRobin.build(2), 4, 2);
        let mut mc = memctrl();
        bus.request(0, 0, Addr(0x100), 5);
        let g = bus.tick(5, &mut mc).expect("granted");
        assert_eq!(g.core, 0);
        assert_eq!(g.waited, 0);
        assert_eq!(g.stall, 14);
    }

    #[test]
    fn bus_occupancy_blocks_second_grant() {
        let mut bus = Bus::new(ArbiterKind::RoundRobin.build(2), 4, 2);
        let mut mc = memctrl();
        bus.request(0, 0, Addr(0x100), 0);
        bus.request(1, 0, Addr(0x200), 0);
        let g0 = bus.tick(0, &mut mc).expect("first");
        assert_eq!(g0.core, 0);
        for c in 1..4 {
            assert_eq!(bus.tick(c, &mut mc), None, "busy at {c}");
        }
        let g1 = bus.tick(4, &mut mc).expect("second");
        assert_eq!(g1.core, 1);
        assert_eq!(g1.waited, 4);
        assert_eq!(bus.stats().max_wait, 4);
    }

    #[test]
    #[should_panic(expected = "outstanding")]
    fn double_request_panics() {
        let mut bus = Bus::new(ArbiterKind::RoundRobin.build(1), 4, 1);
        bus.request(0, 0, Addr(0), 0);
        bus.request(0, 0, Addr(8), 1);
    }
}
