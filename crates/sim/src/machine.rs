//! The cycle-level multicore machine.
//!
//! Per-thread execution follows exactly the timing semantics of
//! `wcet-pipeline::timing` (see that module for the soundness argument):
//! in-order, stall-based, one instruction at a time, with memory stalls
//! resolved against the concrete hierarchy and the shared arbitrated bus.
//!
//! Within a cycle the order is: all cores act (in index order, threads in
//! slot order), then the bus arbitrates among requests — so a request
//! issued at cycle `t` with a free bus starts at `t` (wait 0), matching
//! the arbiter crate's replay semantics and bounds.

use std::collections::VecDeque;

use wcet_arbiter::MemoryController;
use wcet_ir::interp::ArchState;
use wcet_ir::program::AccessKind;
use wcet_ir::{Addr, BlockId, Instr, Program};
use wcet_pipeline::smt::SmtPolicy;

use crate::bus::{Bus, BusStats};
use crate::config::{CoreKind, MachineConfig, SimError};
use crate::hierarchy::Hierarchy;

/// Per-thread statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ThreadStats {
    /// Executed instruction slots (terminators included).
    pub instrs: u64,
    /// Bus transactions this thread performed.
    pub bus_transactions: u64,
    /// Maximum bus wait this thread observed.
    pub max_bus_wait: u64,
    /// Total cycles spent waiting for the bus.
    pub total_bus_wait: u64,
}

/// Result of one thread's execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadResult {
    /// Core index.
    pub core: usize,
    /// Hardware-thread index within the core.
    pub thread: usize,
    /// Name of the program that ran.
    pub program: String,
    /// Completion time in cycles (from machine start), if it finished.
    pub finished_at: Option<u64>,
    /// Statistics.
    pub stats: ThreadStats,
}

/// Event-skipping fast-forward counters (see [`Machine::run_watched`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SkipStats {
    /// Fast-forward jumps taken.
    pub fast_forwards: u64,
    /// Idle cycles skipped instead of stepped.
    pub skipped_cycles: u64,
}

impl SkipStats {
    /// Adds `other`'s counters into `self`.
    pub fn absorb(&mut self, other: &SkipStats) {
        self.fast_forwards += other.fast_forwards;
        self.skipped_cycles += other.skipped_cycles;
    }
}

/// Result of a machine run.
#[derive(Debug, Clone, Eq)]
pub struct RunResult {
    /// Per-thread results, in `(core, thread)` order.
    pub threads: Vec<ThreadResult>,
    /// Cycle at which the last loaded thread finished.
    pub makespan: u64,
    /// Bus statistics.
    pub bus: BusStats,
    /// Per-core `(l1i_hits, l1i_misses, l1d_hits, l1d_misses)`.
    pub l1_stats: Vec<(u64, u64, u64, u64)>,
    /// `(l2_hits, l2_misses)` summed over partitions.
    pub l2_stats: (u64, u64),
    /// Fast-forward effort. Excluded from `PartialEq`: the event-skipping
    /// and cycle-stepped runs produce identical *results* at different
    /// skip bills (the same convention `SolveStats` uses on solver
    /// results).
    pub skip: SkipStats,
}

impl PartialEq for RunResult {
    fn eq(&self, other: &RunResult) -> bool {
        self.threads == other.threads
            && self.makespan == other.makespan
            && self.bus == other.bus
            && self.l1_stats == other.l1_stats
            && self.l2_stats == other.l2_stats
    }
}

impl RunResult {
    /// The result of the thread loaded at `(core, thread)`.
    #[must_use]
    pub fn thread(&self, core: usize, thread: usize) -> Option<&ThreadResult> {
        self.threads
            .iter()
            .find(|t| t.core == core && t.thread == thread)
    }

    /// Cycles of `(core, thread)` — panics if absent or unfinished.
    ///
    /// # Panics
    ///
    /// Panics if the slot was never loaded or did not finish.
    #[must_use]
    pub fn cycles(&self, core: usize, thread: usize) -> u64 {
        self.thread(core, thread)
            .unwrap_or_else(|| panic!("no thread at ({core},{thread})"))
            .finished_at
            .expect("thread did not finish")
    }
}

/// What a thread does next once its current stall elapses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Segment {
    /// Resolve the fetch of the current slot (cache lookups now).
    FetchLookup,
    /// Resolve the current instruction's data access.
    DataLookup,
    /// Issue a bus request for `addr` (after lookups determined a miss).
    BusRequest(Addr, AccessKind),
    /// Occupy the pipeline for the instruction's execution latency
    /// (slot-gated on multithreaded cores).
    Exec(u64),
    /// Retire the current slot and move on.
    Advance,
}

#[derive(Debug)]
struct ThreadCtx {
    program: Program,
    arch: ArchState,
    block: BlockId,
    slot: usize,
    segments: VecDeque<Segment>,
    busy_until: u64,
    waiting_bus: bool,
    finished_at: Option<u64>,
    stats: ThreadStats,
    /// Set when the just-executed instruction was a `Yield` (cooperative
    /// multithreading switch point).
    yielded: bool,
}

impl ThreadCtx {
    fn new(program: Program, startup: u64) -> ThreadCtx {
        let arch = ArchState::for_program(&program);
        let entry = program.cfg().entry();
        ThreadCtx {
            program,
            arch,
            block: entry,
            slot: 0,
            segments: VecDeque::from([Segment::FetchLookup]),
            busy_until: startup,
            waiting_bus: false,
            finished_at: None,
            stats: ThreadStats::default(),
            yielded: false,
        }
    }

    fn current_instr(&self) -> Option<&Instr> {
        self.program.cfg().block(self.block).instrs().get(self.slot)
    }

    fn is_terminator_slot(&self) -> bool {
        self.slot == self.program.cfg().block(self.block).instrs().len()
    }
}

#[derive(Debug)]
struct Core {
    kind: CoreKind,
    threads: Vec<Option<ThreadCtx>>,
    /// Round-robin cursor for FreeForAll issue and YieldMt switching.
    active: usize,
}

impl Core {
    /// May `(thread)` start gated work (exec / instruction issue) at
    /// `cycle`? For FreeForAll this consumes the core's issue opportunity.
    fn slot_allows(&self, thread: usize, cycle: u64) -> bool {
        match self.kind {
            CoreKind::Scalar => true,
            CoreKind::Smt {
                threads,
                policy: SmtPolicy::PredictableRoundRobin,
                ..
            } => cycle % u64::from(threads.max(1)) == thread as u64,
            CoreKind::Smt {
                policy: SmtPolicy::FreeForAll,
                ..
            } => true,
            CoreKind::YieldMt { .. } => self.active == thread,
        }
    }
}

/// The machine: cores + hierarchy + bus + memory, stepped by cycle.
#[derive(Debug)]
pub struct Machine {
    config: MachineConfig,
    cores: Vec<Core>,
    /// First bus slot of each core (requester = slot_base[core] + thread).
    slot_base: Vec<usize>,
    hierarchy: Hierarchy,
    bus: Bus,
    memctrl: MemoryController,
    cycle: u64,
    skip: SkipStats,
}

impl Machine {
    /// Builds a machine (cold caches, idle bus).
    ///
    /// The bus requester granularity is the hardware *thread* (flattened
    /// `(core, thread)` slots): PRET's memory wheel assigns one window per
    /// thread, and CarCore's priority arbitration distinguishes the HRT
    /// thread — both need per-thread slots.
    #[must_use]
    pub fn new(config: MachineConfig) -> Machine {
        let cores: Vec<Core> = config
            .cores
            .iter()
            .map(|c| Core {
                kind: c.kind,
                threads: (0..c.kind.threads()).map(|_| None).collect(),
                active: 0,
            })
            .collect();
        let mut slot_base = Vec::with_capacity(cores.len());
        let mut total_slots = 0usize;
        for c in &cores {
            slot_base.push(total_slots);
            total_slots += c.threads.len();
        }
        let hierarchy = Hierarchy::new(&config);
        let bus = Bus::new(
            config.bus.arbiter.build(total_slots),
            config.bus.transfer,
            total_slots,
        );
        let memctrl = MemoryController::new(config.memory);
        Machine {
            config,
            cores,
            slot_base,
            hierarchy,
            bus,
            memctrl,
            cycle: 0,
            skip: SkipStats::default(),
        }
    }

    /// The flattened bus-requester slot of `(core, thread)` — the index to
    /// use when configuring per-thread arbiters (wheel windows, HRT
    /// priority, MBBA weights).
    #[must_use]
    pub fn bus_slot(&self, core: usize, thread: usize) -> usize {
        self.slot_base[core] + thread
    }

    /// The configuration this machine was built from.
    #[must_use]
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    fn unflatten(&self, slot: usize) -> (usize, usize) {
        // slot_base is sorted; find the owning core.
        let core = match self.slot_base.binary_search(&slot) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        (core, slot - self.slot_base[core])
    }

    /// Loads `program` onto hardware thread `(core, thread)`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoSuchSlot`] for an out-of-range slot.
    pub fn load(&mut self, core: usize, thread: usize, program: Program) -> Result<(), SimError> {
        let slot = self
            .cores
            .get_mut(core)
            .and_then(|c| c.threads.get_mut(thread))
            .ok_or(SimError::NoSuchSlot { core, thread })?;
        // Pipeline fill is paid at thread start (depth − 1 real cycles; the
        // analysis bound charges (depth − 1)·K which dominates, see
        // wcet-pipeline).
        let startup = self.config.pipeline.startup_cycles();
        *slot = Some(ThreadCtx::new(program, startup));
        Ok(())
    }

    /// Runs until every loaded thread finishes.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CycleLimit`] if the limit elapses first.
    pub fn run(&mut self, cycle_limit: u64) -> Result<RunResult, SimError> {
        self.run_watched(cycle_limit, &[])
    }

    /// [`Machine::run`] without the event-skipping fast-forward: every
    /// cycle is stepped individually. The reference twin for the
    /// differential property tests — results are byte-identical to
    /// [`Machine::run`] by construction (skipped cycles are provably
    /// no-ops), only [`RunResult::skip`] differs.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CycleLimit`] if the limit elapses first.
    pub fn run_stepped(&mut self, cycle_limit: u64) -> Result<RunResult, SimError> {
        self.run_watched_stepped(cycle_limit, &[])
    }

    /// [`Machine::run_watched`] without the event-skipping fast-forward
    /// (see [`Machine::run_stepped`]).
    ///
    /// # Errors
    ///
    /// See [`Machine::run_watched`].
    pub fn run_watched_stepped(
        &mut self,
        cycle_limit: u64,
        watched: &[(usize, usize)],
    ) -> Result<RunResult, SimError> {
        self.run_watched_inner(cycle_limit, watched, false)
    }

    /// Runs until every `watched` slot finishes (every loaded thread when
    /// `watched` is empty). Unwatched threads keep running — and keep
    /// interfering — until that point, then the run stops; their
    /// [`ThreadResult::finished_at`] may be `None`.
    ///
    /// Because the machine is deterministic and a finished thread's
    /// statistics are immutable, every metric *attributable to a watched
    /// thread* — its completion cycle, its [`ThreadStats`], the bus-wait
    /// statistics of its requester slot — is byte-identical to what a
    /// run-to-completion would report: the tail past the last watched
    /// retirement cannot reach back in time. Machine-wide aggregates
    /// (`makespan`, cache hit totals) and unwatched threads' statistics
    /// reflect only the truncated run; read them from [`Machine::run`].
    ///
    /// **Event skipping.** When every live thread is provably stalled
    /// until a known cycle — memory/transfer latency expiry, an SMT
    /// round-robin issue slot, the bus's next grant opportunity (TDMA /
    /// wheel slot, round-robin turn) — the run jumps time straight to the
    /// earliest wake-up instead of ticking through the idle cycles.
    /// Skipped cycles are provably no-ops (no core can act, the arbiter
    /// cannot grant, and `Arbiter::grant` is pure when it returns
    /// `None`), so results are byte-identical to the cycle-stepped
    /// reference [`Machine::run_watched_stepped`]; [`RunResult::skip`]
    /// counts the savings.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CycleLimit`] if the limit elapses first, or
    /// [`SimError::NoSuchSlot`] for a watched slot with no loaded thread
    /// (it would never finish).
    pub fn run_watched(
        &mut self,
        cycle_limit: u64,
        watched: &[(usize, usize)],
    ) -> Result<RunResult, SimError> {
        self.run_watched_inner(cycle_limit, watched, true)
    }

    fn run_watched_inner(
        &mut self,
        cycle_limit: u64,
        watched: &[(usize, usize)],
        event_skipping: bool,
    ) -> Result<RunResult, SimError> {
        for &(core, thread) in watched {
            let loaded = self
                .cores
                .get(core)
                .and_then(|c| c.threads.get(thread))
                .is_some_and(Option::is_some);
            if !loaded {
                return Err(SimError::NoSuchSlot { core, thread });
            }
        }
        let done = |m: &Machine| {
            if watched.is_empty() {
                m.all_finished()
            } else {
                watched.iter().all(|&(core, thread)| {
                    m.cores[core].threads[thread]
                        .as_ref()
                        .is_some_and(|t| t.finished_at.is_some())
                })
            }
        };
        // Probe for a fast-forward only after a *fruitless* step (no
        // segment processed, no grant): dense phases pay nothing for the
        // machinery, idle windows pay one no-op step before the jump.
        let mut probe_skip = false;
        while !done(self) {
            if self.cycle >= cycle_limit {
                return Err(SimError::CycleLimit { limit: cycle_limit });
            }
            if event_skipping && probe_skip {
                match self.next_event_cycle() {
                    // Something happens this cycle after all: step it.
                    Some(at) if at == self.cycle => {}
                    // Everything sleeps until `at`: jump there.
                    Some(at) => self.fast_forward(at.min(cycle_limit)),
                    // Nothing can ever happen again (e.g. a transfer no
                    // slot fits): idle straight to the limit, exactly
                    // where the stepped run ends up.
                    None => {
                        self.fast_forward(cycle_limit);
                        continue;
                    }
                }
            }
            probe_skip = !self.step() && event_skipping;
        }
        Ok(self.collect())
    }

    /// Jumps time to `target`, accounting the per-cycle state the skipped
    /// no-op cycles would have advanced (only the free-for-all rotation
    /// cursor moves unconditionally per cycle).
    fn fast_forward(&mut self, target: u64) {
        let delta = target - self.cycle;
        if delta == 0 {
            return;
        }
        for core in &mut self.cores {
            if matches!(
                core.kind,
                CoreKind::Smt {
                    policy: SmtPolicy::FreeForAll,
                    ..
                }
            ) {
                let n = core.threads.len().max(1);
                // step_core sets `active = (active % n) + 1` each cycle
                // regardless of activity; `delta` idle cycles advance it
                // `delta` times (mod n at the point of use).
                core.active = (core.active + delta as usize % n) % n;
            }
        }
        self.skip.fast_forwards += 1;
        self.skip.skipped_cycles += delta;
        self.cycle = target;
    }

    /// The earliest cycle `≥ self.cycle` at which any machine state can
    /// change: a thread acts (stall expired, issue slot reached) or the
    /// bus can grant. `None` when no future event exists for the current
    /// state (every pending transfer fits no slot and no thread will ever
    /// wake).
    fn next_event_cycle(&mut self) -> Option<u64> {
        let now = self.cycle;
        let mut wake: Option<u64> = None;
        let mut closest = |c: u64| match wake {
            Some(w) if w <= c => {}
            _ => wake = Some(c),
        };
        for core in &self.cores {
            let k = match core.kind {
                CoreKind::Smt {
                    threads,
                    policy: SmtPolicy::PredictableRoundRobin,
                    ..
                } => u64::from(threads.max(1)),
                _ => 1,
            };
            for (t, th) in core.threads.iter().enumerate() {
                let Some(th) = th else { continue };
                if th.finished_at.is_some() || th.waiting_bus {
                    continue; // woken by the bus side, if at all
                }
                // A yield-switching core runs only its active thread;
                // swapped-out threads do nothing until a rotation, which
                // only another thread's action can trigger.
                if matches!(core.kind, CoreKind::YieldMt { .. }) && core.active != t {
                    continue;
                }
                if th.busy_until > now {
                    closest(th.busy_until);
                    continue;
                }
                // Ready. Everything except `Exec` acts regardless of the
                // issue gate (lookups, bus requests, retirement), and
                // `Exec` is gated only on predictable-round-robin SMT.
                let gated = k > 1
                    && now % k != t as u64
                    && matches!(th.segments.front(), Some(Segment::Exec(_)));
                if !gated {
                    return Some(now);
                }
                // Next issue slot: the smallest c > now with c % k == t.
                closest(now + (t as u64 + k - now % k - 1) % k + 1);
            }
        }
        if let Some(c) = self.bus.next_opportunity(now) {
            if c == now {
                return Some(now);
            }
            closest(c);
        }
        wake
    }

    fn all_finished(&self) -> bool {
        self.cores.iter().all(|c| {
            c.threads
                .iter()
                .all(|t| t.as_ref().is_none_or(|t| t.finished_at.is_some()))
        })
    }

    /// Advances one cycle. Returns whether anything happened — a thread
    /// processed at least one segment or the bus granted — i.e. whether
    /// the cycle was *not* a pure no-op (the event-skipping probe's
    /// trigger).
    fn step(&mut self) -> bool {
        let now = self.cycle;
        let mut progressed = false;
        // Cores act first…
        for core_idx in 0..self.cores.len() {
            progressed |= self.step_core(core_idx, now);
        }
        // …then the bus arbitrates (a request issued this cycle can be
        // granted this cycle — wait 0, matching the replay semantics).
        if let Some(grant) = self.bus.tick(now, &mut self.memctrl) {
            let (core, thread) = self.unflatten(grant.core);
            let th = self.cores[core].threads[thread]
                .as_mut()
                .expect("granted thread exists");
            th.waiting_bus = false;
            th.busy_until = now + grant.stall;
            th.stats.bus_transactions += 1;
            th.stats.max_bus_wait = th.stats.max_bus_wait.max(grant.waited);
            th.stats.total_bus_wait += grant.waited;
            progressed = true;
        }
        self.cycle += 1;
        progressed
    }

    /// Steps one core; true if any of its threads processed a segment.
    fn step_core(&mut self, core_idx: usize, now: u64) -> bool {
        // FreeForAll: one instruction issue opportunity per cycle, offered
        // to threads in rotating order so no thread starves another.
        let mut issue_token = true;
        let n_threads = self.cores[core_idx].threads.len();
        let free_for_all = matches!(
            self.cores[core_idx].kind,
            CoreKind::Smt {
                policy: SmtPolicy::FreeForAll,
                ..
            }
        );
        let start = if free_for_all {
            self.cores[core_idx].active % n_threads.max(1)
        } else {
            0
        };
        let mut progressed = false;
        for i in 0..n_threads {
            let t = (start + i) % n_threads;
            // A yield-switching core runs only its active thread; swapped-out
            // threads do nothing at all (not even memory activity).
            if matches!(self.cores[core_idx].kind, CoreKind::YieldMt { .. })
                && self.cores[core_idx].active != t
            {
                continue;
            }
            let Some(th) = self.cores[core_idx].threads[t].as_ref() else {
                continue;
            };
            if th.finished_at.is_some() || th.waiting_bus || now < th.busy_until {
                continue;
            }
            let gated_ok = self.cores[core_idx].slot_allows(t, now);
            progressed |= self.act(core_idx, t, now, gated_ok, &mut issue_token);
        }
        if free_for_all {
            self.cores[core_idx].active = (start + 1) % n_threads.max(1);
        }
        // YieldMt: rotate when the active thread yielded or finished.
        if matches!(self.cores[core_idx].kind, CoreKind::YieldMt { .. }) {
            self.rotate_yield_core(core_idx);
        }
        progressed
    }

    fn rotate_yield_core(&mut self, core_idx: usize) {
        let core = &mut self.cores[core_idx];
        let n = core.threads.len();
        let active = core.active;
        let needs_switch = match core.threads[active].as_ref() {
            None => true,
            Some(th) => th.finished_at.is_some() || th.yielded,
        };
        if !needs_switch {
            return;
        }
        if let Some(th) = core.threads[active].as_mut() {
            th.yielded = false;
        }
        for i in 1..=n {
            let cand = (active + i) % n;
            let live = core.threads[cand]
                .as_ref()
                .is_some_and(|t| t.finished_at.is_none());
            if live {
                core.active = cand;
                return;
            }
        }
    }

    /// Processes segments of `(core_idx, t)` until the thread blocks
    /// (stall, bus wait or slot gate). Returns whether at least one
    /// segment was processed (false only for a gate refusal).
    fn act(
        &mut self,
        core_idx: usize,
        t: usize,
        now: u64,
        gated_ok: bool,
        issue_token: &mut bool,
    ) -> bool {
        let k = match self.cores[core_idx].kind {
            CoreKind::Smt {
                threads,
                policy: SmtPolicy::PredictableRoundRobin,
                ..
            } => u64::from(threads.max(1)),
            _ => 1,
        };
        let mut progressed = false;
        loop {
            let th = self.cores[core_idx].threads[t]
                .as_mut()
                .expect("thread exists");
            let Some(&seg) = th.segments.front() else {
                unreachable!("segment queue never empties without Advance")
            };
            match seg {
                Segment::FetchLookup => {
                    let addr = th.program.fetch_addr(th.block, th.slot);
                    th.segments.pop_front();
                    progressed = true;
                    // Queue what follows the fetch: data access (if any),
                    // exec, advance.
                    if th.is_terminator_slot() {
                        th.segments.push_front(Segment::Exec(1));
                    } else {
                        let ins = *th.current_instr().expect("instr slot");
                        let exec = u64::from(ins.exec_latency());
                        th.segments.push_front(Segment::Exec(exec));
                        if ins.mem_ref().is_some() {
                            th.segments.push_front(Segment::DataLookup);
                        }
                    }
                    let out = self.hierarchy.lookup(core_idx, t, true, addr);
                    let th = self.cores[core_idx].threads[t]
                        .as_mut()
                        .expect("thread exists");
                    if out.needs_bus {
                        th.segments
                            .push_front(Segment::BusRequest(addr, AccessKind::Fetch));
                    }
                    if out.extra > 0 {
                        th.busy_until = now + out.extra;
                        return progressed;
                    }
                }
                Segment::DataLookup => {
                    let ins = *th.current_instr().expect("data lookup implies instr");
                    // Resolve the effective address *now* (register state is
                    // final: the instruction's own write happens at retire).
                    let mem = ins.mem_ref().expect("data lookup implies mem ref");
                    let idx = match *mem {
                        wcet_ir::MemRef::Indexed { index, .. } => th.arch.reg(index),
                        wcet_ir::MemRef::Static(_) => 0,
                    };
                    let addr = mem.effective_addr(idx);
                    let kind = if ins.is_store() {
                        AccessKind::Store
                    } else {
                        AccessKind::Load
                    };
                    th.segments.pop_front();
                    progressed = true;
                    let out = self.hierarchy.lookup(core_idx, t, false, addr);
                    let th = self.cores[core_idx].threads[t]
                        .as_mut()
                        .expect("thread exists");
                    if out.needs_bus {
                        th.segments.push_front(Segment::BusRequest(addr, kind));
                    }
                    if out.extra > 0 {
                        th.busy_until = now + out.extra;
                        return progressed;
                    }
                }
                Segment::BusRequest(addr, _kind) => {
                    th.segments.pop_front();
                    th.waiting_bus = true;
                    let slot = self.slot_base[core_idx] + t;
                    self.bus.request(slot, t, addr, now);
                    return true;
                }
                Segment::Exec(n) => {
                    // Slot-gated: on multithreaded cores, execution consumes
                    // the thread's issue slots.
                    if !gated_ok {
                        return progressed;
                    }
                    if !*issue_token {
                        return progressed; // FreeForAll: another thread issued this cycle
                    }
                    *issue_token = matches!(self.cores[core_idx].kind, CoreKind::Scalar)
                        || !matches!(
                            self.cores[core_idx].kind,
                            CoreKind::Smt {
                                policy: SmtPolicy::FreeForAll,
                                ..
                            }
                        );
                    let th = self.cores[core_idx].threads[t]
                        .as_mut()
                        .expect("thread exists");
                    th.segments.pop_front();
                    th.segments.push_front(Segment::Advance);
                    th.busy_until = now + n * k;
                    return true;
                }
                Segment::Advance => {
                    th.segments.pop_front();
                    progressed = true;
                    th.stats.instrs += 1;
                    self.retire(core_idx, t, now);
                    let th = self.cores[core_idx].threads[t]
                        .as_ref()
                        .expect("thread exists");
                    if th.finished_at.is_some() {
                        return true;
                    }
                    // Yield switches relinquish the core immediately.
                    if th.yielded {
                        return true;
                    }
                }
            }
        }
    }

    /// Retires the current slot: applies architectural effects and moves
    /// to the next slot/block.
    fn retire(&mut self, core_idx: usize, t: usize, now: u64) {
        let th = self.cores[core_idx].threads[t]
            .as_mut()
            .expect("thread exists");
        if th.is_terminator_slot() {
            let term = *th.program.cfg().block(th.block).terminator();
            match th.arch.step_terminator(&term) {
                Some(next) => {
                    th.block = next;
                    th.slot = 0;
                    th.segments.push_back(Segment::FetchLookup);
                }
                None => {
                    // Retirement is free bookkeeping at the cycle the final
                    // instruction's execution completed.
                    th.finished_at = Some(now);
                }
            }
        } else {
            let ins = *th.current_instr().expect("instr slot");
            let _ = th.arch.step_instr(&ins);
            if matches!(ins, Instr::Yield) {
                th.yielded = true;
            }
            th.slot += 1;
            th.segments.push_back(Segment::FetchLookup);
        }
    }

    fn collect(&self) -> RunResult {
        let mut threads = Vec::new();
        let mut makespan = 0;
        for (ci, core) in self.cores.iter().enumerate() {
            for (ti, th) in core.threads.iter().enumerate() {
                if let Some(th) = th {
                    makespan = makespan.max(th.finished_at.unwrap_or(0));
                    threads.push(ThreadResult {
                        core: ci,
                        thread: ti,
                        program: th.program.name().to_string(),
                        finished_at: th.finished_at,
                        stats: th.stats.clone(),
                    });
                }
            }
        }
        let l1_stats = (0..self.cores.len())
            .map(|c| {
                let (ih, im) = self.hierarchy.l1i_stats(c);
                let (dh, dm) = self.hierarchy.l1d_stats(c);
                (ih, im, dh, dm)
            })
            .collect();
        RunResult {
            threads,
            makespan,
            bus: self.bus.stats().clone(),
            l1_stats,
            l2_stats: self.hierarchy.l2_stats(),
            skip: self.skip,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcet_ir::interp::execute;
    use wcet_ir::synth::{crc, fir, matmul, single_path, Placement};

    fn run_single(program: Program) -> RunResult {
        let mut m = Machine::new(MachineConfig::symmetric(1));
        m.load(0, 0, program).expect("slot exists");
        m.run(50_000_000).expect("finishes")
    }

    #[test]
    fn single_core_runs_to_completion() {
        let p = fir(4, 8, Placement::default());
        let interp = execute(&p, 1_000_000).expect("terminates");
        let res = run_single(p);
        assert_eq!(res.threads.len(), 1);
        let th = &res.threads[0];
        assert!(th.finished_at.is_some());
        // The simulator must execute exactly the interpreter's path.
        assert_eq!(th.stats.instrs, interp.steps);
    }

    #[test]
    fn cycle_limit_enforced() {
        let p = matmul(6, Placement::default());
        let mut m = Machine::new(MachineConfig::symmetric(1));
        m.load(0, 0, p).expect("slot exists");
        assert_eq!(m.run(10), Err(SimError::CycleLimit { limit: 10 }));
    }

    #[test]
    fn simulation_is_deterministic() {
        let mk = || {
            let mut m = Machine::new(MachineConfig::symmetric(2));
            m.load(0, 0, crc(16, Placement::slot(0))).expect("slot");
            m.load(1, 0, fir(4, 8, Placement::slot(1))).expect("slot");
            m.run(50_000_000).expect("finishes")
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn corunner_contention_slows_victim() {
        // Same victim, same machine; co-runner present vs absent.
        let victim = || single_path(4, 64, Placement::slot(0));
        let alone = {
            let mut m = Machine::new(MachineConfig::symmetric(2));
            m.load(0, 0, victim()).expect("slot");
            m.run(50_000_000).expect("finishes").cycles(0, 0)
        };
        let contended = {
            let mut m = Machine::new(MachineConfig::symmetric(2));
            m.load(0, 0, victim()).expect("slot");
            // A bus-hungry co-runner at a *disjoint* placement: interference
            // is destructive (evictions + bus contention), not constructive.
            m.load(1, 0, matmul(12, Placement::slot(1))).expect("slot");
            m.run(50_000_000).expect("finishes").cycles(0, 0)
        };
        assert!(
            contended >= alone,
            "contention can't speed the victim up ({contended} vs {alone})"
        );
    }

    #[test]
    fn smt_predictable_threads_progress_independently() {
        use wcet_pipeline::smt::SmtPolicy;
        let mut cfg = MachineConfig::symmetric(1);
        cfg.cores[0].kind = CoreKind::Smt {
            threads: 2,
            policy: SmtPolicy::PredictableRoundRobin,
            partitioned_l1: true,
        };
        let mut m = Machine::new(cfg);
        m.load(0, 0, single_path(2, 16, Placement::slot(0)))
            .expect("slot");
        m.load(0, 1, single_path(2, 16, Placement::slot(1)))
            .expect("slot");
        let res = m.run(50_000_000).expect("finishes");
        assert!(res.thread(0, 0).expect("t0").finished_at.is_some());
        assert!(res.thread(0, 1).expect("t1").finished_at.is_some());
    }

    #[test]
    fn yield_core_interleaves_threads() {
        use wcet_ir::builder::CfgBuilder;
        use wcet_ir::cfg::Terminator;
        use wcet_ir::flow::FlowFacts;
        use wcet_ir::isa::r;
        use wcet_ir::program::Layout;
        // Two tiny threads that yield once each.
        let mk = |base: u64| {
            let mut cb = CfgBuilder::new();
            let a = cb.add_block();
            cb.push(a, Instr::LoadImm { dst: r(1), imm: 1 });
            cb.push(a, Instr::Yield);
            cb.push(a, Instr::LoadImm { dst: r(2), imm: 2 });
            cb.terminate(a, Terminator::Return);
            let cfg = cb.build(a).expect("valid");
            Program::new(
                format!("y{base}"),
                cfg,
                FlowFacts::new(),
                Layout {
                    code_base: Addr(base),
                },
            )
            .expect("valid")
        };
        let mut cfg = MachineConfig::symmetric(1);
        cfg.cores[0].kind = CoreKind::YieldMt { threads: 2 };
        let mut m = Machine::new(cfg);
        m.load(0, 0, mk(0x1000)).expect("slot");
        m.load(0, 1, mk(0x2000)).expect("slot");
        let res = m.run(1_000_000).expect("finishes");
        assert!(res.thread(0, 0).expect("t0").finished_at.is_some());
        assert!(res.thread(0, 1).expect("t1").finished_at.is_some());
    }
}
