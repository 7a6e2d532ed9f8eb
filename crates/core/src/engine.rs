//! The batch analysis engine: memoized intermediates + parallel fan-out.
//!
//! [`crate::analyzer::Analyzer`] recomputes every intermediate — cache
//! hierarchy fixpoints ([`wcet_cache::multilevel::analyze_hierarchy`]),
//! block costs ([`wcet_pipeline::cost::block_costs`]) and the IPET solve —
//! on every call. Experiment drivers ask for the same task under several
//! modes, several co-runner sets and several machines, so whole fixpoints
//! are recomputed dozens of times; and a task *set* is embarrassingly
//! parallel across tasks.
//!
//! [`AnalysisEngine`] fixes both:
//!
//! * **Memoization** — shared intermediates are cached keyed by
//!   `(task fingerprint, effective cache geometry, interference)`:
//!   hierarchy fixpoints by `HierKey`-equivalence, block costs and IPET
//!   bounds additionally by the bus bound and core mode. Two modes that
//!   induce the same effective context (e.g. `solo` and `isolated` on a
//!   partitioned L2) share everything but the report label.
//! * **Parallelism** — [`AnalysisEngine::analyze_batch`] fans jobs out
//!   across `std::thread::scope` workers (default: one per available
//!   core), and [`AnalysisEngine::analyze_task_set`] does the same for a
//!   whole [`wcet_sched::TaskSet`] in one call.
//!
//! Results are byte-identical to the sequential [`Analyzer`] path: every
//! memoized function is deterministic in its key.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use wcet_cache::analysis::{AnalysisInput, CacheAnalysis};
use wcet_cache::config::{CacheConfig, LineAddr};
use wcet_cache::multilevel::{analyze_hierarchy, HierarchyAnalysis, HierarchyConfig};
use wcet_ilp::SolveStats;
use wcet_ir::fingerprint::{debug_fingerprint, program_fingerprint};
use wcet_ir::fixpoint::FixpointStats;
use wcet_ir::Program;
use wcet_pipeline::cost::{block_costs, BlockCosts, CoreMode, CostInput};
use wcet_pipeline::{MemTimings, PipelineConfig};
use wcet_sched::TaskSet;
use wcet_sim::config::MachineConfig;

use crate::analyzer::{build_report, AnalysisError, Analyzer, TaskContext, WcetReport};
use crate::ipet::{wcet_ipet_ctx, IpetOptions, SolveContext, WcetBound};
use crate::mode::AnalysisMode;

/// Poison-tolerant lock accessors. A supervised campaign cell that
/// panics is caught at its cell boundary, but the unwind may have
/// crossed a thread that once held one of the shared memo/stats locks —
/// and every critical section below is a pure insert/absorb that cannot
/// unwind half-way, so the guarded data is consistent even with the
/// poison flag set. Recover instead of wedging every other worker.
fn lock_ok<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn read_ok<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

fn write_ok<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

/// Memo key of one hierarchy fixpoint: the task's content fingerprint plus
/// everything [`analyze_hierarchy`] reads from the context. Deliberately
/// machine-independent (no arbiter, bus or memory timing members), so one
/// [`MemoDomain`] can serve engines over many machines.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct HierKey {
    task: (u64, u64),
    l1i: CacheConfig,
    l1d: CacheConfig,
    l2: Option<L2Key>,
}

/// Memo key of the private-L1 half of a hierarchy: interference sweeps
/// vary only the L2 input, so the L1 fixpoints are shared across every
/// [`HierKey`] that agrees on this prefix.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct L1Key {
    task: (u64, u64),
    l1i: CacheConfig,
    l1d: CacheConfig,
}

/// The L2 side of a [`HierKey`]: effective geometry, locking, bypass and
/// the mode-dependent interference shift.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct L2Key {
    cache: CacheConfig,
    set_ways: Option<Vec<u32>>,
    locked: Vec<LineAddr>,
    bypass: Vec<LineAddr>,
    shift: Vec<u32>,
}

impl L2Key {
    fn of(input: &AnalysisInput) -> L2Key {
        L2Key {
            cache: input.cache,
            set_ways: input.set_ways.clone(),
            locked: input.locked.iter().copied().collect(),
            bypass: input.bypass.iter().copied().collect(),
            shift: input.interference_shift.clone(),
        }
    }
}

/// Memo key of block costs: the hierarchy plus every remaining cost
/// input. Timing and pipeline members make the key machine-independent
/// (a [`MemoDomain`] shared across engines over different machines never
/// aliases two distinct cost tables); the hierarchy half rides behind an
/// `Arc` so cloning a key into the table is cheap.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CostKey {
    hier: Arc<HierKey>,
    bus_wait_bound: Option<u64>,
    mode: CoreMode,
    timings: MemTimings,
    pipeline: PipelineConfig,
}

/// Memo key of IPET bounds: the cost key plus the IPET options'
/// fingerprint (options change the solve, so engines with different
/// options sharing one [`MemoDomain`] must not alias bounds).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct BoundKey {
    cost: CostKey,
    options: (u64, u64),
}

/// Monotonic hit/miss/eviction counters for one memo table.
#[derive(Debug, Default)]
struct TableStats {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl TableStats {
    fn hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    fn miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    fn evict(&self) {
        self.evictions.fetch_add(1, Ordering::Relaxed);
    }
}

/// One resident memo entry plus its LRU stamp: the domain-clock tick of
/// the last hit or insert. An atomic so the hot read path can refresh
/// recency under the table's *read* lock.
#[derive(Debug)]
struct Stamped<V> {
    value: V,
    last_used: AtomicU64,
}

/// One memo table: a keyed map of deterministic intermediates plus its
/// counters. Lookups refresh the entry's LRU stamp; inserts evict the
/// least-recently-used entries whenever the owning [`MemoDomain`] caps
/// the table (see [`MemoDomain::with_budget`]).
#[derive(Debug)]
struct MemoTable<K, V> {
    map: RwLock<HashMap<K, Stamped<V>>>,
    stats: TableStats,
}

impl<K, V> Default for MemoTable<K, V> {
    fn default() -> MemoTable<K, V> {
        MemoTable {
            map: RwLock::new(HashMap::new()),
            stats: TableStats::default(),
        }
    }
}

impl<K: Eq + Hash + Clone, V: Clone> MemoTable<K, V> {
    /// Probes the table; a hit counts and refreshes the LRU stamp.
    fn lookup<Q>(&self, key: &Q, clock: &AtomicU64) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        let map = read_ok(&self.map);
        let entry = map.get(key)?;
        self.stats.hit();
        let stamp = clock.fetch_add(1, Ordering::Relaxed) + 1;
        entry.last_used.store(stamp, Ordering::Relaxed);
        Some(entry.value.clone())
    }

    /// Counts a miss and inserts `computed` with `or_insert` semantics: a
    /// racing insert wins and its value is returned (every memoized
    /// function is deterministic in its key, so either copy is correct).
    /// When `budget` caps the table, least-recently-used entries are then
    /// evicted down to the cap; the entry just touched carries the
    /// freshest stamp and is never the victim.
    fn insert(&self, key: K, computed: V, clock: &AtomicU64, budget: Option<NonZeroUsize>) -> V {
        self.stats.miss();
        let stamp = clock.fetch_add(1, Ordering::Relaxed) + 1;
        let mut map = write_ok(&self.map);
        let value = match map.entry(key) {
            std::collections::hash_map::Entry::Occupied(slot) => {
                slot.get().last_used.store(stamp, Ordering::Relaxed);
                slot.get().value.clone()
            }
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(Stamped {
                    value: computed.clone(),
                    last_used: AtomicU64::new(stamp),
                });
                computed
            }
        };
        if let Some(cap) = budget {
            // O(len) victim scan per over-budget insert: budgets exist to
            // keep `len` small, so a scan beats maintaining an intrusive
            // recency list under the same write lock.
            while map.len() > cap.get() {
                let victim = map
                    .iter()
                    .min_by_key(|(_, s)| s.last_used.load(Ordering::Relaxed))
                    .map(|(k, _)| k.clone());
                let Some(victim) = victim else { break };
                map.remove(&victim);
                self.stats.evict();
            }
        }
        value
    }

    fn len(&self) -> usize {
        read_ok(&self.map).len()
    }
}

/// A point-in-time view of the engine's memoization effectiveness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoStats {
    /// Cache-hierarchy fixpoints served from the memo.
    pub hierarchy_hits: u64,
    /// Cache-hierarchy fixpoints computed.
    pub hierarchy_misses: u64,
    /// Private-L1 fixpoint pairs served from the memo (hierarchy misses
    /// that still reused both L1 halves).
    pub l1_hits: u64,
    /// Private-L1 fixpoint pairs computed.
    pub l1_misses: u64,
    /// Block-cost tables served from the memo.
    pub cost_hits: u64,
    /// Block-cost tables computed.
    pub cost_misses: u64,
    /// IPET bounds served from the memo.
    pub bound_hits: u64,
    /// IPET bounds solved.
    pub bound_misses: u64,
    /// Hierarchy fixpoints evicted under a [`MemoDomain::with_budget`]
    /// cap (zero on unbounded domains).
    pub hierarchy_evictions: u64,
    /// Private-L1 fixpoint pairs evicted under a budget cap.
    pub l1_evictions: u64,
    /// Block-cost tables evicted under a budget cap.
    pub cost_evictions: u64,
    /// IPET bounds evicted under a budget cap.
    pub bound_evictions: u64,
    /// Hierarchy fixpoints reused straight from a neighbouring cell's
    /// [`TaskArtifacts`] — no re-fingerprinting, no key construction, no
    /// table probe (see [`AnalysisEngine::analyze_prior`]).
    pub neighbor_hits: u64,
}

impl MemoStats {
    /// Total lookups across all tables (neighbour reuses count: they
    /// answer the same question a hierarchy probe would).
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.hierarchy_hits
            + self.hierarchy_misses
            + self.l1_hits
            + self.l1_misses
            + self.cost_hits
            + self.cost_misses
            + self.bound_hits
            + self.bound_misses
            + self.neighbor_hits
    }

    /// Total hits across all tables, neighbour reuses included.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hierarchy_hits + self.l1_hits + self.cost_hits + self.bound_hits + self.neighbor_hits
    }

    /// Total evictions across all tables (always zero on unbounded
    /// domains).
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.hierarchy_evictions + self.l1_evictions + self.cost_evictions + self.bound_evictions
    }

    /// The counters accumulated since `baseline` was captured from the
    /// same domain — the per-request delta a long-lived service reports.
    /// Saturating, so a baseline from another domain never underflows.
    #[must_use]
    pub fn since(&self, baseline: &MemoStats) -> MemoStats {
        MemoStats {
            hierarchy_hits: self.hierarchy_hits.saturating_sub(baseline.hierarchy_hits),
            hierarchy_misses: self
                .hierarchy_misses
                .saturating_sub(baseline.hierarchy_misses),
            l1_hits: self.l1_hits.saturating_sub(baseline.l1_hits),
            l1_misses: self.l1_misses.saturating_sub(baseline.l1_misses),
            cost_hits: self.cost_hits.saturating_sub(baseline.cost_hits),
            cost_misses: self.cost_misses.saturating_sub(baseline.cost_misses),
            bound_hits: self.bound_hits.saturating_sub(baseline.bound_hits),
            bound_misses: self.bound_misses.saturating_sub(baseline.bound_misses),
            hierarchy_evictions: self
                .hierarchy_evictions
                .saturating_sub(baseline.hierarchy_evictions),
            l1_evictions: self.l1_evictions.saturating_sub(baseline.l1_evictions),
            cost_evictions: self.cost_evictions.saturating_sub(baseline.cost_evictions),
            bound_evictions: self
                .bound_evictions
                .saturating_sub(baseline.bound_evictions),
            neighbor_hits: self.neighbor_hits.saturating_sub(baseline.neighbor_hits),
        }
    }
}

/// One unit of batch work: a task placed at `(core, thread)`, analysed
/// under `mode`.
#[derive(Clone, Copy)]
pub struct Job<'a> {
    /// The task.
    pub program: &'a Program,
    /// Core index in the engine's machine.
    pub core: usize,
    /// Hardware-thread index within the core.
    pub thread: usize,
    /// The approach family to apply.
    pub mode: &'a dyn AnalysisMode,
}

impl<'a> Job<'a> {
    /// A job at thread slot 0 of `core`.
    #[must_use]
    pub fn new(program: &'a Program, core: usize, mode: &'a dyn AnalysisMode) -> Job<'a> {
        Job {
            program,
            core,
            thread: 0,
            mode,
        }
    }
}

impl std::fmt::Debug for Job<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job")
            .field("program", &self.program.name())
            .field("core", &self.core)
            .field("thread", &self.thread)
            .field("mode", &self.mode.name())
            .finish()
    }
}

/// A point-in-time view of the engine's ILP-solver effort: the warm-start
/// context counters plus every solver counter summed over the bounds the
/// engine actually solved (memo hits re-solve nothing and add nothing).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// IPET solves that reused a cached basis (phase 1 skipped).
    pub warm_hits: u64,
    /// IPET solves that ran cold (first sight of a task's flow system).
    pub cold_solves: u64,
    /// Summed per-solve counters (pivots, dual pivots, phase-1 skips…).
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

/// The shared memo tables of one or more [`AnalysisEngine`]s.
///
/// Every key is machine-independent (geometry, timings and interference
/// are key members, never implied by "the engine's machine"), so a
/// scenario sweep can hand one domain to an engine per machine and every
/// fixpoint, cost table and bound is computed once across the whole
/// sweep. A domain is internally locked; sharing is `Arc`-cheap.
///
/// A domain is unbounded by default; a long-lived service caps its
/// resident footprint with [`MemoDomain::with_budget`], which evicts in
/// least-recently-used order. Eviction never changes results — every
/// memoized function is deterministic in its key, so a re-miss recomputes
/// the identical value and only the hit/miss bill moves.
#[derive(Debug, Default)]
pub struct MemoDomain {
    hierarchies: MemoTable<Arc<HierKey>, Arc<HierarchyAnalysis>>,
    l1s: MemoTable<L1Key, Arc<(CacheAnalysis, CacheAnalysis)>>,
    costs: MemoTable<CostKey, Arc<BlockCosts>>,
    bounds: MemoTable<BoundKey, WcetBound>,
    /// Per-table entry cap; `None` = unbounded (the default).
    budget: Option<NonZeroUsize>,
    /// Logical LRU clock, bumped on every table hit and insert.
    clock: AtomicU64,
    neighbor_hits: AtomicU64,
    /// Worklist-fixpoint effort summed over every cache analysis computed
    /// into this domain (memo hits add nothing).
    fix_totals: Mutex<FixpointStats>,
}

impl MemoDomain {
    /// An empty, unbounded domain.
    #[must_use]
    pub fn new() -> MemoDomain {
        MemoDomain::default()
    }

    /// An empty domain whose four memo tables are each capped at
    /// `per_table` entries, evicted in least-recently-used order on
    /// insert. `0` means unbounded (same as [`MemoDomain::new`]).
    #[must_use]
    pub fn with_budget(per_table: usize) -> MemoDomain {
        MemoDomain {
            budget: NonZeroUsize::new(per_table),
            ..MemoDomain::default()
        }
    }

    /// The per-table entry cap, if any.
    #[must_use]
    pub fn budget(&self) -> Option<usize> {
        self.budget.map(NonZeroUsize::get)
    }

    /// Total entries currently resident across all four tables.
    #[must_use]
    pub fn entries(&self) -> usize {
        self.hierarchies.len() + self.l1s.len() + self.costs.len() + self.bounds.len()
    }

    /// Current memoization counters, summed over every engine feeding
    /// this domain.
    #[must_use]
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            hierarchy_hits: self.hierarchies.stats.hits.load(Ordering::Relaxed),
            hierarchy_misses: self.hierarchies.stats.misses.load(Ordering::Relaxed),
            l1_hits: self.l1s.stats.hits.load(Ordering::Relaxed),
            l1_misses: self.l1s.stats.misses.load(Ordering::Relaxed),
            cost_hits: self.costs.stats.hits.load(Ordering::Relaxed),
            cost_misses: self.costs.stats.misses.load(Ordering::Relaxed),
            bound_hits: self.bounds.stats.hits.load(Ordering::Relaxed),
            bound_misses: self.bounds.stats.misses.load(Ordering::Relaxed),
            hierarchy_evictions: self.hierarchies.stats.evictions.load(Ordering::Relaxed),
            l1_evictions: self.l1s.stats.evictions.load(Ordering::Relaxed),
            cost_evictions: self.costs.stats.evictions.load(Ordering::Relaxed),
            bound_evictions: self.bounds.stats.evictions.load(Ordering::Relaxed),
            neighbor_hits: self.neighbor_hits.load(Ordering::Relaxed),
        }
    }

    /// Worklist-fixpoint effort (blocks evaluated vs the naive-sweep
    /// equivalent) across every cache analysis computed into this domain.
    #[must_use]
    pub fn fixpoint_stats(&self) -> FixpointStats {
        *lock_ok(&self.fix_totals)
    }
}

/// The hierarchy-level intermediates of one analysed task, handed back by
/// [`AnalysisEngine::analyze_prior`] so a *neighbouring* cell (one whose
/// delta provably leaves the cache-hierarchy inputs unchanged — e.g. an
/// arbiter or memory-latency step) can reuse them without re-hashing the
/// program or re-probing the memo tables.
#[derive(Debug, Clone)]
pub struct TaskArtifacts {
    hier_key: Arc<HierKey>,
    hierarchy: Arc<HierarchyAnalysis>,
}

/// The memoizing, parallel batch analyser. See the [module docs](self).
#[derive(Debug)]
pub struct AnalysisEngine {
    analyzer: Analyzer,
    threads: Option<NonZeroUsize>,
    /// All memo tables live here; see [`MemoDomain`] for sharing.
    memo: Arc<MemoDomain>,
    /// Fingerprint of the analyser's IPET options, a [`BoundKey`] member.
    options_fp: (u64, u64),
    /// Warm-start basis cache threaded through every IPET solve. Keyed
    /// by task content only, so it survives `with_options` (options
    /// change the solve, never the constraint system the basis is for)
    /// and can be shared across engines (the constraint system is
    /// machine-independent, so a scenario sweep over many machines still
    /// warm-starts every re-solve of a known task).
    solve_ctx: Arc<SolveContext>,
    solver_totals: Mutex<SolveStats>,
}

impl AnalysisEngine {
    /// Creates an engine for `machine` with default IPET options and one
    /// worker per available hardware thread.
    #[must_use]
    pub fn new(machine: MachineConfig) -> AnalysisEngine {
        AnalysisEngine::from_analyzer(Analyzer::new(machine))
    }

    /// Wraps an existing analyser (keeping its IPET options).
    #[must_use]
    pub fn from_analyzer(analyzer: Analyzer) -> AnalysisEngine {
        let options_fp = debug_fingerprint(analyzer.options());
        AnalysisEngine {
            analyzer,
            threads: None,
            memo: Arc::new(MemoDomain::new()),
            options_fp,
            solve_ctx: Arc::new(SolveContext::new()),
            solver_totals: Mutex::new(SolveStats::default()),
        }
    }

    /// Replaces the warm-start context with a shared one (builder-style).
    /// Several engines — e.g. one per machine of a scenario matrix — can
    /// then feed one basis cache: results are unchanged (warm starts are
    /// bit-identical by construction), only the pivot bill shrinks.
    ///
    /// Note that [`AnalysisEngine::solver_stats`] reports the *context's*
    /// warm/cold counters, which become shared too; aggregate them once
    /// per shared context, not per engine.
    #[must_use]
    pub fn with_solve_context(mut self, ctx: Arc<SolveContext>) -> AnalysisEngine {
        self.solve_ctx = ctx;
        self
    }

    /// Replaces the memo domain with a shared one (builder-style), so
    /// several engines — e.g. one per machine of a scenario sweep —
    /// pool their fixpoints, cost tables and bounds. Results are
    /// unchanged (every key is machine-independent and deterministic);
    /// only repeated work disappears. Aggregate [`MemoDomain::stats`]
    /// once per shared domain, not per engine.
    #[must_use]
    pub fn with_memo(mut self, memo: Arc<MemoDomain>) -> AnalysisEngine {
        self.memo = memo;
        self
    }

    /// The engine's memo domain (shared or private).
    #[must_use]
    pub fn memo(&self) -> &Arc<MemoDomain> {
        &self.memo
    }

    /// Overrides the IPET options (builder-style). Memoized bounds are
    /// keyed by an options fingerprint, so previously cached bounds stay
    /// valid (and shared domains are never cross-contaminated).
    #[must_use]
    pub fn with_options(mut self, options: IpetOptions) -> AnalysisEngine {
        self.analyzer = self.analyzer.clone().with_options(options);
        self.options_fp = debug_fingerprint(self.analyzer.options());
        self
    }

    /// Overrides the worker count for batch calls (builder-style).
    /// `0` restores the default of one worker per available core.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> AnalysisEngine {
        self.threads = NonZeroUsize::new(threads);
        self
    }

    /// The wrapped sequential analyser.
    #[must_use]
    pub fn analyzer(&self) -> &Analyzer {
        &self.analyzer
    }

    /// The machine description.
    #[must_use]
    pub fn machine(&self) -> &MachineConfig {
        self.analyzer.machine()
    }

    /// Current memoization counters (of the engine's — possibly shared —
    /// [`MemoDomain`]).
    #[must_use]
    pub fn memo_stats(&self) -> MemoStats {
        self.memo.stats()
    }

    /// Current ILP-solver effort counters (warm-start hits, pivots,
    /// phase-1 skips) across every bound this engine has solved.
    #[must_use]
    pub fn solver_stats(&self) -> SolverStats {
        let ctx = self.solve_ctx.stats();
        SolverStats {
            warm_hits: ctx.warm_hits,
            cold_solves: ctx.cold_solves,
            totals: *lock_ok(&self.solver_totals),
        }
    }

    /// Worklist-fixpoint effort across every cache analysis computed
    /// into the engine's memo domain: blocks evaluated vs the
    /// naive-sweep equivalent, plus the schema-9 kernel counters —
    /// `kernel_words` (64-bit words the domain kernels walked, summed),
    /// `arena_bytes` (peak per-analysis arena footprint, maxed) and
    /// `arena_resets` (one per computed analysis; memo hits add
    /// nothing).
    #[must_use]
    pub fn fixpoint_stats(&self) -> FixpointStats {
        self.memo.fixpoint_stats()
    }

    /// Analyses one task under `mode`, reusing every memoized
    /// intermediate. Identical results to
    /// [`Analyzer::wcet_with`](crate::analyzer::Analyzer::wcet_with).
    ///
    /// # Errors
    ///
    /// See [`AnalysisError`].
    pub fn analyze(
        &self,
        program: &Program,
        core: usize,
        thread: usize,
        mode: &dyn AnalysisMode,
    ) -> Result<WcetReport, AnalysisError> {
        self.analyze_prior(program, core, thread, mode, None)
            .map(|(report, _)| report)
    }

    /// Like [`AnalysisEngine::analyze`], but additionally returns the
    /// task's [`TaskArtifacts`], and accepts the artifacts of a
    /// *neighbouring* analysis whose hierarchy inputs are known-identical.
    ///
    /// With `prior: Some(art)` the engine skips program fingerprinting,
    /// hierarchy-key construction and the hierarchy memo probe entirely
    /// and reuses `art`'s fixpoints — the caller asserts that nothing the
    /// hierarchy reads (task content, L1/L2 geometry, locking, bypass,
    /// interference shift, core mode's partition view) differs from the
    /// prior analysis; only bus/memory timings and the IPET side may
    /// differ. Debug builds verify the assertion by recomputing the key.
    ///
    /// # Errors
    ///
    /// See [`AnalysisError`].
    pub fn analyze_prior(
        &self,
        program: &Program,
        core: usize,
        thread: usize,
        mode: &dyn AnalysisMode,
        prior: Option<&TaskArtifacts>,
    ) -> Result<(WcetReport, TaskArtifacts), AnalysisError> {
        let shift = mode.l2_shift(self.machine());
        let bus = mode.bus_bound(&self.analyzer, core, thread);
        let ctx = self.analyzer.task_context(core, thread, shift, bus)?;
        self.analyze_ctx_prior(program, &ctx, mode.name(), prior)
    }

    /// The memoized equivalent of [`Analyzer::analyze_with_context`].
    ///
    /// # Errors
    ///
    /// See [`AnalysisError`].
    pub fn analyze_in_context(
        &self,
        program: &Program,
        ctx: &TaskContext,
        mode_name: &str,
    ) -> Result<WcetReport, AnalysisError> {
        self.analyze_ctx_prior(program, ctx, mode_name, None)
            .map(|(report, _)| report)
    }

    fn analyze_ctx_prior(
        &self,
        program: &Program,
        ctx: &TaskContext,
        mode_name: &str,
        prior: Option<&TaskArtifacts>,
    ) -> Result<(WcetReport, TaskArtifacts), AnalysisError> {
        let (hier_key, hierarchy) = match prior {
            Some(art) => {
                self.memo.neighbor_hits.fetch_add(1, Ordering::Relaxed);
                debug_assert_eq!(
                    *art.hier_key,
                    HierKey {
                        task: program_fingerprint(program),
                        l1i: ctx.l1i,
                        l1d: ctx.l1d,
                        l2: ctx.l2.as_ref().map(L2Key::of),
                    },
                    "neighbour reuse requires identical hierarchy inputs"
                );
                (Arc::clone(&art.hier_key), Arc::clone(&art.hierarchy))
            }
            None => {
                let key = Arc::new(HierKey {
                    task: program_fingerprint(program),
                    l1i: ctx.l1i,
                    l1d: ctx.l1d,
                    l2: ctx.l2.as_ref().map(L2Key::of),
                });
                let hierarchy = self.hierarchy(program, ctx, &key);
                (key, hierarchy)
            }
        };
        let cost_key = CostKey {
            hier: Arc::clone(&hier_key),
            bus_wait_bound: ctx.bus_wait_bound,
            mode: ctx.mode,
            timings: ctx.timings,
            pipeline: self.machine().pipeline,
        };
        let costs = self.block_costs(program, &hierarchy, ctx, &cost_key)?;
        let bound = self.bound(program, &costs, cost_key)?;
        let report = build_report(program, mode_name, &hierarchy, ctx.bus_wait_bound, bound);
        Ok((
            report,
            TaskArtifacts {
                hier_key,
                hierarchy,
            },
        ))
    }

    /// Analyses a batch of jobs across worker threads. Results are
    /// returned in job order; each job fails independently.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panicked (propagating the panic).
    pub fn analyze_batch(&self, jobs: &[Job<'_>]) -> Vec<Result<WcetReport, AnalysisError>> {
        let workers = self
            .threads
            .or_else(|| std::thread::available_parallelism().ok())
            .map_or(1, NonZeroUsize::get)
            .min(jobs.len());
        if workers <= 1 {
            return jobs
                .iter()
                .map(|j| self.analyze(j.program, j.core, j.thread, j.mode))
                .collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Result<WcetReport, AnalysisError>>>> =
            jobs.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = jobs.get(i) else { break };
                    let result = self.analyze(job.program, job.core, job.thread, job.mode);
                    *slots[i].lock().expect("result slot") = Some(result);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot")
                    .expect("every job slot is filled")
            })
            .collect()
    }

    /// Analyses a whole task set in one batch call: task `i` runs
    /// `programs[i]` on its mapped core (hardware-thread slot 0 — task
    /// sets model timesharing, not SMT placement), all under `mode`.
    ///
    /// # Panics
    ///
    /// Panics if `programs.len() != set.len()` or a worker panicked.
    pub fn analyze_task_set(
        &self,
        set: &TaskSet,
        programs: &[Program],
        mode: &dyn AnalysisMode,
    ) -> Vec<Result<WcetReport, AnalysisError>> {
        assert_eq!(
            programs.len(),
            set.len(),
            "one program per task: got {} programs for {} tasks",
            programs.len(),
            set.len()
        );
        let jobs: Vec<Job<'_>> = set
            .ids()
            .zip(programs)
            .map(|(id, program)| Job::new(program, set.task(id).core, mode))
            .collect();
        self.analyze_batch(&jobs)
    }

    /// The memoized refined L2 footprint of a task on `core` (see
    /// [`Analyzer::l2_footprint`]).
    ///
    /// # Errors
    ///
    /// See [`AnalysisError`].
    pub fn l2_footprint(
        &self,
        program: &Program,
        core: usize,
    ) -> Result<crate::mode::Footprint, AnalysisError> {
        let (l1i, l1d, _) = self.analyzer.core_context(core)?;
        let l2 = self.analyzer.l2_input(core, Vec::new());
        let hier_key = Arc::new(HierKey {
            task: program_fingerprint(program),
            l1i,
            l1d,
            l2: l2.as_ref().map(L2Key::of),
        });
        // Reuse the hierarchy memo via a synthetic context carrying only
        // the fields `hierarchy` reads.
        let hierarchy = self.hierarchy_from_parts(program, l1i, l1d, l2, &hier_key);
        Ok(hierarchy
            .l2
            .as_ref()
            .map(|a| a.footprint().clone())
            .unwrap_or_default())
    }

    fn hierarchy(
        &self,
        program: &Program,
        ctx: &TaskContext,
        key: &Arc<HierKey>,
    ) -> Arc<HierarchyAnalysis> {
        self.hierarchy_from_parts(program, ctx.l1i, ctx.l1d, ctx.l2.clone(), key)
    }

    fn hierarchy_from_parts(
        &self,
        program: &Program,
        l1i: CacheConfig,
        l1d: CacheConfig,
        l2: Option<AnalysisInput>,
        key: &Arc<HierKey>,
    ) -> Arc<HierarchyAnalysis> {
        let memo = &*self.memo;
        if let Some(hit) = memo.hierarchies.lookup(&**key, &memo.clock) {
            return hit;
        }
        // Compute outside the lock: fixpoints are slow, and duplicated
        // work on a race is benign (deterministic result). The private-L1
        // halves depend only on (task, L1 geometry) — an interference
        // sweep varies the L2 input alone, so they come from their own
        // memo and only the L2 fixpoint reruns per sweep point. This
        // composition is exactly [`analyze_hierarchy`] with the L1 work
        // lifted out (same reach filter, same inputs, same results).
        let l1 = self.l1_pair(program, l1i, l1d, key.task);
        let l2 = l2.map(|l2_input| {
            let mut input = l2_input;
            input.kind = wcet_cache::analysis::LevelKind::Unified;
            input.reach = Some(wcet_cache::multilevel::reach_filter(&[&l1.0, &l1.1]));
            let analysis = wcet_cache::analysis::analyze(program, &input);
            lock_ok(&memo.fix_totals).absorb(&analysis.fixpoint_stats());
            analysis
        });
        let computed = Arc::new(HierarchyAnalysis {
            l1i: l1.0.clone(),
            l1d: l1.1.clone(),
            l2,
        });
        memo.hierarchies
            .insert(Arc::clone(key), computed, &memo.clock, memo.budget)
    }

    /// The memoized private-L1 fixpoint pair `(l1i, l1d)`.
    fn l1_pair(
        &self,
        program: &Program,
        l1i: CacheConfig,
        l1d: CacheConfig,
        task: (u64, u64),
    ) -> Arc<(CacheAnalysis, CacheAnalysis)> {
        let memo = &*self.memo;
        let key = L1Key { task, l1i, l1d };
        if let Some(hit) = memo.l1s.lookup(&key, &memo.clock) {
            return hit;
        }
        let partial = analyze_hierarchy(program, &HierarchyConfig { l1i, l1d, l2: None });
        lock_ok(&memo.fix_totals).absorb(&partial.fixpoint_stats());
        let computed = Arc::new((partial.l1i, partial.l1d));
        memo.l1s.insert(key, computed, &memo.clock, memo.budget)
    }

    fn block_costs(
        &self,
        program: &Program,
        hierarchy: &HierarchyAnalysis,
        ctx: &TaskContext,
        key: &CostKey,
    ) -> Result<Arc<BlockCosts>, AnalysisError> {
        let memo = &*self.memo;
        if let Some(hit) = memo.costs.lookup(key, &memo.clock) {
            return Ok(hit);
        }
        let input = CostInput {
            pipeline: key.pipeline,
            timings: key.timings,
            bus_wait_bound: key.bus_wait_bound,
            mode: key.mode,
        };
        debug_assert_eq!(input.timings, ctx.timings);
        let computed = Arc::new(block_costs(program, hierarchy, &input)?);
        Ok(memo
            .costs
            .insert(key.clone(), computed, &memo.clock, memo.budget))
    }

    fn bound(
        &self,
        program: &Program,
        costs: &BlockCosts,
        cost_key: CostKey,
    ) -> Result<WcetBound, AnalysisError> {
        let memo = &*self.memo;
        let key = BoundKey {
            cost: cost_key,
            options: self.options_fp,
        };
        if let Some(hit) = memo.bounds.lookup(&key, &memo.clock) {
            return Ok(hit);
        }
        let computed = wcet_ipet_ctx(program, costs, self.analyzer.options(), &self.solve_ctx)?;
        lock_ok(&self.solver_totals).absorb(&computed.solver);
        Ok(memo.bounds.insert(key, computed, &memo.clock, memo.budget))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mode::{Isolated, Joint, Solo};
    use wcet_ir::synth::{fir, matmul, Placement};

    #[test]
    fn engine_matches_sequential_analyzer() {
        let machine = MachineConfig::symmetric(2);
        let engine = AnalysisEngine::new(machine.clone());
        let an = Analyzer::new(machine);
        let p = fir(4, 8, Placement::slot(0));
        for mode in [&Solo as &dyn AnalysisMode, &Isolated] {
            let seq = an.wcet_with(&p, 0, 0, mode).expect("analyses");
            let eng = engine.analyze(&p, 0, 0, mode).expect("analyses");
            assert_eq!(seq, eng);
        }
    }

    #[test]
    fn memo_hits_on_repeat_and_across_modes() {
        let mut machine = MachineConfig::symmetric(2);
        // Partitioned L2: solo and isolated induce the same context.
        let l2 = machine.l2.as_mut().expect("has l2");
        l2.partition =
            wcet_cache::partition::PartitionPlan::even_columns(&l2.cache, 2).expect("fits");
        let engine = AnalysisEngine::new(machine);
        let p = fir(4, 8, Placement::slot(0));
        let solo = engine.analyze(&p, 0, 0, &Solo).expect("analyses");
        let stats = engine.memo_stats();
        assert_eq!(stats.hits(), 0);
        // Same mode again: everything hits.
        let again = engine.analyze(&p, 0, 0, &Solo).expect("analyses");
        assert_eq!(solo, again);
        let stats = engine.memo_stats();
        assert_eq!(stats.hierarchy_hits, 1);
        assert_eq!(stats.bound_hits, 1);
        // Isolated on the partitioned L2 shares the hierarchy fixpoint
        // (same shift) even though the bus bound differs.
        let iso = engine.analyze(&p, 0, 0, &Isolated).expect("analyses");
        assert_eq!(iso.mode, "isolated");
        assert!(engine.memo_stats().hierarchy_hits >= 2);
    }

    #[test]
    fn batch_preserves_order_and_independent_failures() {
        let mut machine = MachineConfig::symmetric(4);
        // Only core 0 is the HRT bus requester: jobs on other cores have
        // no delay bound and must fail in isolation mode — alone.
        machine.bus.arbiter = wcet_arbiter::ArbiterKind::FixedPriority { hrt: 0 };
        let engine = AnalysisEngine::new(machine);
        let a = fir(4, 8, Placement::slot(0));
        let b = matmul(6, Placement::slot(1));
        let jobs = [
            Job::new(&a, 0, &Isolated),
            Job {
                program: &b,
                core: 1,
                thread: 0,
                mode: &Isolated,
            },
            Job::new(&b, 2, &Solo),
        ];
        let results = engine.analyze_batch(&jobs);
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].as_ref().expect("ok").task, a.name());
        assert_eq!(
            results[1]
                .as_ref()
                .expect_err("best-effort core must be unbounded"),
            &AnalysisError::Unbounded
        );
        assert_eq!(results[2].as_ref().expect("ok").task, b.name());
    }

    #[test]
    fn shared_context_warm_starts_across_engines() {
        // Two engines over *different* machines share one basis cache:
        // the task's flow system is machine-independent, so the second
        // engine's first solve is already warm — and both bounds equal
        // their sequential counterparts.
        let ctx = Arc::new(SolveContext::new());
        let m1 = MachineConfig::symmetric(2);
        let mut m2 = MachineConfig::symmetric(2);
        m2.l2 = None;
        let e1 = AnalysisEngine::new(m1.clone()).with_solve_context(Arc::clone(&ctx));
        let e2 = AnalysisEngine::new(m2.clone()).with_solve_context(Arc::clone(&ctx));
        let p = fir(4, 8, Placement::slot(0));
        let r1 = e1.analyze(&p, 0, 0, &Isolated).expect("analyses");
        let r2 = e2.analyze(&p, 0, 0, &Isolated).expect("analyses");
        assert_eq!(r1, Analyzer::new(m1).wcet_isolated(&p, 0, 0).expect("ok"));
        assert_eq!(r2, Analyzer::new(m2).wcet_isolated(&p, 0, 0).expect("ok"));
        let stats = ctx.stats();
        assert_eq!(stats.cold_solves, 1);
        assert_eq!(stats.warm_hits, 1);
    }

    #[test]
    fn joint_mode_through_engine_matches_analyzer() {
        let machine = MachineConfig::symmetric(2);
        let engine = AnalysisEngine::new(machine.clone());
        let an = Analyzer::new(machine);
        let victim = fir(4, 8, Placement::slot(0));
        let bully = matmul(6, Placement::slot(1));
        let fp = engine.l2_footprint(&bully, 1).expect("analyses");
        let fp_seq = an.l2_footprint(&bully, 1).expect("analyses");
        assert_eq!(fp, fp_seq);
        let joint = Joint::new([fp.clone()]);
        let eng = engine.analyze(&victim, 0, 0, &joint).expect("analyses");
        let seq = an.wcet_joint(&victim, 0, 0, &[&fp]).expect("analyses");
        assert_eq!(eng, seq);
    }
}
