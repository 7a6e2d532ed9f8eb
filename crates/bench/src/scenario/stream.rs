//! The scenario runner: lazy Gray-code expansion, work-stealing
//! execution, neighbour-incremental analysis and the persistent disk
//! memo. Every matrix run goes through it — the 10⁵–10⁶-cell campaigns
//! that stream their cells, and the small materialized runs (the
//! experiments, `wcet scenarios`, every served request) that collect
//! them with [`CampaignOptions::keep_cells`].
//!
//! * **Lazy expansion** — a mixed-radix *reflected Gray* odometer walks
//!   the cross product without materializing a `Vec<Scenario>`;
//!   consecutive positions differ in exactly one axis. The odometer's
//!   significance order puts the cheapest axes innermost (`cycle_limit`,
//!   then `mem_latency`/`transfer`/`arbiter`), so almost every step is a
//!   delta the analysis can exploit. Cell *names* still use the
//!   lexicographic rank ([`ScenarioMatrix::lex_rank`]), the ordinal
//!   [`ScenarioMatrix::expand`] gives the same cell.
//! * **Dedup** — the sequential producer fingerprints every cell and
//!   drops repeats through a fingerprint set. Programs (which carry
//!   their fingerprints) and builds are cached across the Gray run,
//!   where only one axis moves at a time; each build keeps its hashed
//!   `(machine, placement, ` fingerprint prefix, so a cell hashes only
//!   its short tail. Skipped cells fold their changed axes into the
//!   next emitted cell's delta, keeping the delta chain honest.
//! * **Work stealing** — `std::thread::scope` workers pull fixed-size
//!   chunks from the producer. The calling thread is worker 0, so a
//!   one-worker run (a served request) spawns no thread at all. Each
//!   worker owns its engines; all engines share one [`MemoDomain`] and
//!   one warm-start [`SolveContext`]. Finished chunks enter a sequencing
//!   sink that releases them in chunk order, so per-cell output and
//!   every order-sensitive aggregate are byte-stable for a given spec —
//!   regardless of worker count or scheduling.
//! * **Neighbour-incremental analysis** — within a chunk, a cell whose
//!   accumulated delta is `cycle_limit`-only reuses its predecessor's
//!   rows wholesale (nothing about the *analysis* changed), and a
//!   bus/timing-only delta threads the predecessor's
//!   [`wcet_core::engine::TaskArtifacts`] into
//!   [`AnalysisEngine::analyze_prior`], skipping re-fingerprinting and
//!   every hierarchy probe. Chunk boundaries reset the chain (the
//!   predecessor may live on another worker).
//! * **Disk memo** — fingerprints resolved by [`DiskCache`] skip
//!   analysis entirely. The worker probes the memo as it takes up the
//!   cell, off the producer's lock; the loaded entries never change
//!   during a run, so the answer is the one the producer would have
//!   got. A memo the run opens itself
//!   ([`CampaignOptions::cache`]) also takes every fresh fully-bounded
//!   cell as its chunk is sequenced (see [`super::cache`] for the format
//!   and corruption rules), so a killed campaign loses at most the
//!   in-flight chunks; a caller-owned memo ([`CampaignOptions::disk`])
//!   is only read.
//! * **Supervision** — every cell runs under `catch_unwind` with
//!   per-cell resource budgets ([`CellBudget`]: simplex pivots,
//!   fixpoint evaluations, wall clock): a panicking or runaway cell
//!   becomes a structured [`CellFailure`] (kind `Panic`, `Budget` or
//!   `Deadline`) and the run keeps going. A cell that first failed on
//!   inherited neighbour state is retried once, cold, in case the chain
//!   it inherited was poisoned. A run-level deadline is checked whenever
//!   a worker asks for a chunk; in-flight chunks still flush, so a
//!   deadline exit is clean and resumable.
//! * **Collected runs** — with [`CampaignOptions::keep_cells`] the run
//!   returns every cell in expansion (lex-rank) order, each duplicate
//!   class represented by its lexicographically first cell: exactly the
//!   cells, names and positions a materialized expansion has.
//! * **Resume** — [`CampaignOptions::resume`] replays the Gray odometer
//!   (builds, fingerprints and the dedup set, but no analysis) past the
//!   positions covered by the memo's newest trusted checkpoint; chunk
//!   boundaries and neighbour chains then line up with the original
//!   run's, so an interrupted-and-resumed campaign appends exactly the
//!   memo entries an uninterrupted run would have.

use std::cell::Cell;

use std::collections::{BTreeMap, HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, Once};
use std::time::{Duration, Instant};

use wcet_core::engine::{AnalysisEngine, MemoDomain, MemoStats, SolverStats};
use wcet_core::SolveContext;
use wcet_ir::fingerprint::{debug_fingerprint, program_fingerprint, TupleFingerprint};
use wcet_ir::fixpoint::{FixpointSink, FixpointStats};
use wcet_ir::Program;
use wcet_sim::machine::SkipStats;

use crate::load::splitmix64;

use super::cache::{CachedRow, DiskCache};
use super::fault::FaultPlan;
use super::run::{
    analyze_engine_incremental, analyze_static, build_with_programs, cell_fingerprint,
    fingerprint_unbuildable, parse_programs, validate_cell, BuiltScenario, CellArtifacts,
    CellFailure, CellOutcome, FailureKind, TaskBound, TaskRow,
};
use super::spec::{
    Scenario, ScenarioMatrix, AXES_BUS_ONLY, AXIS_ANALYZE, AXIS_ARBITER, AXIS_CORES,
    AXIS_CYCLE_LIMIT, AXIS_L1D, AXIS_L1I, AXIS_L2, AXIS_L2_GEOM, AXIS_MEM_LATENCY, AXIS_MODE,
    AXIS_SMT, AXIS_TASKS, AXIS_TRANSFER, BUILD_AXES, NUM_AXES,
};

/// Cells per work-stealing chunk: long enough to amortize the queue
/// lock and keep neighbour chains useful (several `cycle_limit` runs),
/// short enough to spread a small campaign across workers.
const CHUNK: usize = 64;

/// Sequenced chunks between memo checkpoint records: rare enough not to
/// bloat the file, frequent enough that a kill loses little coverage.
const CHECKPOINT_EVERY: usize = 16;

/// Delta mask: only the validation budget moved.
const CYCLE_MASK: u16 = 1 << AXIS_CYCLE_LIMIT;
/// Delta mask: at most the bus/timing axes (and the validation budget)
/// moved — every cache-hierarchy input is intact.
const BUS_MASK: u16 =
    CYCLE_MASK | (1 << AXES_BUS_ONLY[0]) | (1 << AXES_BUS_ONLY[1]) | (1 << AXES_BUS_ONLY[2]);
/// The "no usable predecessor" delta (first cell of a chunk).
const MASK_ALL: u16 = u16::MAX;

/// Gray-odometer significance order, fastest-moving axis first. The
/// cheaper a delta, the more often it should be the one that moves:
/// `cycle_limit` (row reuse), then the bus/timing axes (hierarchy
/// reuse), then the full-recompute axes.
const GRAY_ORDER: [usize; NUM_AXES] = [
    AXIS_CYCLE_LIMIT,
    AXIS_MEM_LATENCY,
    AXIS_TRANSFER,
    AXIS_ARBITER,
    AXIS_MODE,
    AXIS_ANALYZE,
    AXIS_L2,
    AXIS_L2_GEOM,
    AXIS_L1D,
    AXIS_L1I,
    AXIS_TASKS,
    AXIS_SMT,
    AXIS_CORES,
];

/// Options of one run.
#[derive(Debug, Default)]
pub struct CampaignOptions {
    /// Worker threads (`0` = one per available core). The calling thread
    /// is worker 0, so `1` runs every cell on the caller.
    pub threads: usize,
    /// Stop after consuming this many odometer positions (duplicates
    /// included) — the `--limit` smoke bound. `None` runs everything.
    pub limit: Option<usize>,
    /// Cross-validate every cell whose seeded hash satisfies
    /// `hash(seed, lex_rank) % sample_one_in == 0` on the cycle-level
    /// simulator. `0` disables validation.
    pub sample_one_in: u64,
    /// Seed of the deterministic validation sample.
    pub seed: u64,
    /// Persistent memo location (`None` = no disk cache): the run opens
    /// it, serves durable cells from it, and appends and checkpoints
    /// fresh ones.
    pub cache: Option<PathBuf>,
    /// Retain every [`CellOutcome`] in [`CampaignRun::cells`], in
    /// expansion order (materialized runs; campaigns should stream
    /// instead).
    pub keep_cells: bool,
    /// An external warm-start context: pass one context to several runs
    /// (as the experiment drivers and the analysis service do) to share
    /// cached bases across matrices. `None` creates a fresh context.
    /// Its counters are cumulative, so [`CampaignRun::solver`] then
    /// reflects the context's lifetime.
    pub ctx: Option<Arc<SolveContext>>,
    /// An external memo domain: a long-lived caller (the analysis
    /// service) passes its — possibly budgeted, see
    /// [`MemoDomain::with_budget`] — domain so hierarchy fixpoints, cost
    /// tables and bounds stay hot across runs. Results are unchanged
    /// (every memo key is deterministic and machine-independent);
    /// [`CampaignRun::memo`] and [`CampaignRun::fixpoint`] then reflect
    /// the domain's lifetime. `None` creates a fresh domain.
    pub memo: Option<Arc<MemoDomain>>,
    /// A caller-owned durable memo, read like the one [`Self::cache`]
    /// opens but never written: durable appends stay the caller's job
    /// (the analysis service flushes on shutdown). Takes precedence
    /// over [`Self::cache`].
    pub disk: Option<Arc<DiskCache>>,
    /// Per-cell resource budgets; an exhausted cell fails alone (a
    /// [`CellFailure`] of kind `Budget`, or `Deadline` for the wall
    /// clock) instead of stalling a worker.
    pub budget: CellBudget,
    /// Run-level wall-clock deadline, checked whenever a worker
    /// asks for a chunk: expired → no new work, in-flight chunks flush,
    /// the run reports [`CampaignRun::deadline_hit`] and remains
    /// resumable.
    pub deadline: Option<Duration>,
    /// Fast-forward past the memo's newest trusted checkpoint (of this
    /// same matrix) instead of recomputing from rank zero.
    pub resume: bool,
    /// Deterministic fault injection (tests only; inert unless built
    /// with the `fault-inject` feature).
    pub fault: Option<FaultPlan>,
}

/// Per-cell resource budgets of a supervised run. `None` fields are
/// unlimited. Exhaustion aborts the *cell* — the solvers unwind
/// with a typed payload that the supervisor catches and classifies —
/// never the campaign.
#[derive(Debug, Clone, Copy, Default)]
pub struct CellBudget {
    /// Simplex pivots per cell, across every solve the cell issues.
    pub max_pivots: Option<u64>,
    /// Worklist-fixpoint node evaluations per cell.
    pub max_fixpoint_evals: Option<u64>,
    /// Wall clock per cell, in milliseconds.
    pub max_cell_ms: Option<u64>,
}

/// The outcome of a run.
#[derive(Debug)]
pub struct CampaignRun {
    /// Matrix name.
    pub matrix: String,
    /// Full cross-product size (before `limit` and dedup).
    pub total_cells: usize,
    /// Odometer positions consumed (`≤ limit`, duplicates included).
    pub produced: usize,
    /// Cells analysed or served (post-dedup).
    pub unique: usize,
    /// Cells dropped because an earlier cell had the same fingerprint.
    pub duplicates: usize,
    /// Unbuildable cells among `unique`.
    pub errors: usize,
    /// Cells whose every row carries a bound.
    pub bounded: usize,
    /// Cells whose rows were copied from their in-chunk predecessor
    /// (`cycle_limit`-only delta: the analysis is untouched).
    pub rows_reused: usize,
    /// Cells served from the disk memo.
    pub disk_hits: usize,
    /// Fresh cells appended to the disk memo.
    pub disk_appended: usize,
    /// Unparseable memo lines skipped while loading (torn appends).
    pub disk_skipped: usize,
    /// Memo lines rejected for a CRC mismatch while loading.
    pub disk_crc_rejected: usize,
    /// Disk write-back failure, if any (the run itself is unaffected).
    pub cache_error: Option<String>,
    /// Cells abandoned by the supervisor (panic or exhausted budget),
    /// after any retry.
    pub failures: usize,
    /// Fresh-analysis retries spent on cells that first failed on
    /// inherited neighbour state (successful or not).
    pub retries: usize,
    /// The campaign deadline fired: coverage is partial but every
    /// finished chunk was flushed, and the memo supports `--resume`.
    pub deadline_hit: bool,
    /// Odometer positions fast-forwarded past a trusted checkpoint
    /// instead of recomputed (`--resume` only).
    pub resumed: usize,
    /// Cells replayed on the simulator.
    pub validated: usize,
    /// Replayed cells whose every observation satisfied its bound.
    pub sound: usize,
    /// Names of cells expected sound that broke their bound — a
    /// soundness bug if non-empty.
    pub violations: Vec<String>,
    /// Memo-table counters of the run's shared [`MemoDomain`] (including
    /// neighbour hits); the domain's lifetime view when it was passed in.
    pub memo: MemoStats,
    /// Solver effort from the (possibly shared) warm-start context.
    pub solver: SolverStats,
    /// Worklist-fixpoint effort across every cache analysis computed.
    pub fixpoint: FixpointStats,
    /// Event-skipping effort summed over every validation replay.
    pub sim_skip: SkipStats,
    /// Wall-clock time of the whole run.
    pub wall: Duration,
    /// Every cell outcome in expansion (lex-rank) order, each duplicate
    /// class under its lexicographically first cell
    /// ([`CampaignOptions::keep_cells`] only).
    pub cells: Vec<CellOutcome>,
}

impl CampaignRun {
    /// Unique cells per wall-clock second (the headline throughput).
    #[must_use]
    pub fn cells_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            #[allow(clippy::cast_precision_loss)] // report-only metric
            {
                self.unique as f64 / secs
            }
        } else {
            0.0
        }
    }
}

/// The mixed-radix *reflected Gray* odometer: every `step` moves exactly
/// one axis by ±1, visiting each position of the cross product exactly
/// once. Axes move in [`GRAY_ORDER`] significance.
struct GrayOdometer {
    radices: [usize; NUM_AXES],
    digits: [usize; NUM_AXES],
    descending: [bool; NUM_AXES],
    started: bool,
    done: bool,
}

impl GrayOdometer {
    fn new(radices: [usize; NUM_AXES]) -> GrayOdometer {
        GrayOdometer {
            radices,
            digits: [0; NUM_AXES],
            descending: [false; NUM_AXES],
            started: false,
            done: radices.contains(&0),
        }
    }

    /// The next position and the axis that moved (`None` for the first
    /// position); `None` overall once exhausted.
    fn step(&mut self) -> Option<([usize; NUM_AXES], Option<usize>)> {
        if self.done {
            return None;
        }
        if !self.started {
            self.started = true;
            return Some((self.digits, None));
        }
        for &axis in &GRAY_ORDER {
            if self.descending[axis] {
                if self.digits[axis] > 0 {
                    self.digits[axis] -= 1;
                    return Some((self.digits, Some(axis)));
                }
            } else if self.digits[axis] + 1 < self.radices[axis] {
                self.digits[axis] += 1;
                return Some((self.digits, Some(axis)));
            }
            // This axis is pinned at its reflected end: flip its
            // direction and carry on to the next-more-significant axis.
            self.descending[axis] = !self.descending[axis];
        }
        self.done = true;
        None
    }
}

/// One deduplicated cell, ready for a worker (which probes the disk
/// memo for it).
struct WorkItem {
    scenario: Scenario,
    built: Result<Arc<BuiltScenario>, String>,
    /// `debug_fingerprint` of the machine (engine cache key), for
    /// buildable cells.
    machine_fp: (u64, u64),
    fingerprint: (u64, u64),
    /// Axes changed since the previous item of the same chunk
    /// (accumulated over dedup-skips); [`MASK_ALL`] at chunk start.
    changed: u16,
    /// Replay this cell on the simulator.
    sample: bool,
    /// Lexicographic rank (the fault plan's and sampler's cell key).
    rank: u64,
}

/// Per-task-axis cached parse results (programs and their content
/// fingerprints are placement-stable across the whole campaign).
struct ProgramEntry {
    programs: Result<Vec<Program>, String>,
    task_fps: Vec<(u64, u64)>,
}

/// A cached build, keyed by the digits of the axes
/// [`build_with_programs`] reads.
struct CachedBuild {
    sig: [usize; BUILD_AXES.len()],
    built: Result<Arc<BuiltScenario>, String>,
    /// `debug_fingerprint` of the machine (zero when unbuildable).
    machine_fp: (u64, u64),
    /// The build's hashed `(machine, placement, ` prefix of
    /// [`cell_fingerprint`], when buildable.
    prefix: Option<TupleFingerprint>,
}

/// A first-seen cell: its description, build, machine fingerprint and
/// cell fingerprint.
type Visited = (
    Scenario,
    Result<Arc<BuiltScenario>, String>,
    (u64, u64),
    (u64, u64),
);

/// The sequential chunk producer behind a mutex: odometer + build cache
/// + fingerprint dedup. The disk-memo probe runs in the workers.
struct Producer<'m> {
    matrix: &'m ScenarioMatrix,
    odo: GrayOdometer,
    seen: HashSet<(u64, u64)>,
    /// Per fingerprint, the odometer digits of its lexicographically
    /// first cell so far ([`CampaignOptions::keep_cells`] runs only).
    lex_first: Option<HashMap<(u64, u64), [usize; NUM_AXES]>>,
    programs: HashMap<usize, Arc<ProgramEntry>>,
    /// Gray locality: the previous build, keyed by the digits of the
    /// axes [`build_with_programs`] reads. Most steps (cycle_limit,
    /// mode, analyze) leave it untouched.
    last_build: Option<CachedBuild>,
    pending: u16,
    produced: usize,
    duplicates: usize,
    limit: usize,
    next_chunk: usize,
    sample_one_in: u64,
    seed: u64,
    deadline: Option<Instant>,
    deadline_hit: bool,
    resumed: usize,
}

impl<'m> Producer<'m> {
    fn new(
        matrix: &'m ScenarioMatrix,
        opts: &CampaignOptions,
        cache: &DiskCache,
        matrix_fp: (u64, u64),
    ) -> Self {
        let mut producer = Producer {
            matrix,
            odo: GrayOdometer::new(matrix.radices()),
            seen: HashSet::new(),
            lex_first: opts.keep_cells.then(HashMap::new),
            programs: HashMap::new(),
            last_build: None,
            pending: MASK_ALL,
            produced: 0,
            duplicates: 0,
            limit: opts.limit.unwrap_or(usize::MAX),
            next_chunk: 0,
            sample_one_in: opts.sample_one_in,
            seed: opts.seed,
            deadline: opts.deadline.map(|d| Instant::now() + d),
            deadline_hit: false,
            resumed: 0,
        };
        if opts.resume {
            if let Some(ckpt) = cache.checkpoint() {
                if ckpt.matrix == matrix_fp {
                    producer.fast_forward(ckpt.produced);
                }
            }
        }
        producer
    }

    /// Replays the odometer past the positions a trusted checkpoint
    /// covers: builds, fingerprints and the dedup set are computed
    /// exactly as the original run computed them (so later chunk
    /// boundaries, dedup decisions and Gray deltas line up), but
    /// nothing is emitted — every bounded cell in this range is already
    /// durable in the memo.
    fn fast_forward(&mut self, skip: usize) {
        while self.produced < skip && self.produced < self.limit {
            let Some((digits, _)) = self.odo.step() else {
                break;
            };
            self.produced += 1;
            self.resumed += 1;
            let _ = self.visit(&digits);
        }
    }

    /// Builds and fingerprints the cell at `digits` and dedups it:
    /// `None` when an earlier cell had the same fingerprint, otherwise
    /// the cell, its build, machine fingerprint and cell fingerprint.
    fn visit(&mut self, digits: &[usize; NUM_AXES]) -> Option<Visited> {
        let scenario = self.matrix.cell_at(digits);
        let entry = self.programs_for(digits[AXIS_TASKS], &scenario);
        let build = self.build(digits, &scenario, &entry);
        let fingerprint = match &build.prefix {
            Some(prefix) => cell_fingerprint(prefix, &scenario, &entry.task_fps),
            None => fingerprint_unbuildable(&scenario),
        };
        let (built, machine_fp) = (build.built.clone(), build.machine_fp);
        if let Some(first) = &mut self.lex_first {
            let matrix = self.matrix;
            first
                .entry(fingerprint)
                .and_modify(|d| {
                    if matrix.lex_rank(digits) < matrix.lex_rank(d) {
                        *d = *digits;
                    }
                })
                .or_insert(*digits);
        }
        if !self.seen.insert(fingerprint) {
            self.duplicates += 1;
            return None;
        }
        Some((scenario, built, machine_fp, fingerprint))
    }

    /// The parsed programs of a tasks-axis value (`scn` is any cell
    /// carrying it), parsed and fingerprinted on first use. The
    /// programs keep their fingerprints, so every build cloned from
    /// them carries them to the engine.
    fn programs_for(&mut self, tasks_digit: usize, scn: &Scenario) -> Arc<ProgramEntry> {
        Arc::clone(self.programs.entry(tasks_digit).or_insert_with(|| {
            let programs = parse_programs(&scn.tasks);
            let task_fps = programs
                .as_deref()
                .map(|ps| ps.iter().map(program_fingerprint).collect())
                .unwrap_or_default();
            Arc::new(ProgramEntry { programs, task_fps })
        }))
    }

    /// The build of the cell at `digits`: the previous one when only
    /// axes it does not read moved (most steps: cycle_limit, mode,
    /// analyze), otherwise a fresh build with its fingerprint prefix
    /// and machine fingerprint, both from one rendering of the machine.
    fn build(
        &mut self,
        digits: &[usize; NUM_AXES],
        scn: &Scenario,
        entry: &ProgramEntry,
    ) -> &CachedBuild {
        let sig = BUILD_AXES.map(|axis| digits[axis]);
        if self.last_build.as_ref().is_none_or(|b| b.sig != sig) {
            let built = match &entry.programs {
                Ok(programs) => build_with_programs(scn, programs.clone()).map(Arc::new),
                Err(e) => Err(e.clone()),
            };
            let (machine_fp, prefix) = match &built {
                Ok(b) => {
                    let (prefix, machine_fp) =
                        TupleFingerprint::new().field_and_fingerprint(&b.machine);
                    (machine_fp, Some(prefix.field(&b.placement)))
                }
                Err(_) => ((0, 0), None),
            };
            self.last_build = Some(CachedBuild {
                sig,
                built,
                machine_fp,
                prefix,
            });
        }
        self.last_build.as_ref().expect("cached above")
    }

    /// The next chunk of deduplicated work plus the odometer position
    /// after it (the checkpoint coverage bound), or `None` when the
    /// campaign is exhausted (odometer done, `limit` reached, or the
    /// deadline fired).
    fn next_chunk(&mut self) -> Option<(usize, Vec<WorkItem>, usize)> {
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                // Chunk-boundary cancellation: hand out no new work and
                // let in-flight chunks flush. (A deadline that expires
                // in the instant after the true final chunk was handed
                // out still marks the run — harmlessly conservative.)
                self.deadline_hit = true;
                return None;
            }
        }
        let mut items = Vec::with_capacity(CHUNK);
        // A chunk may run on any worker: no cross-chunk neighbour chain.
        self.pending = MASK_ALL;
        while items.len() < CHUNK && self.produced < self.limit {
            let Some((digits, moved)) = self.odo.step() else {
                break;
            };
            self.produced += 1;
            if self.pending != MASK_ALL {
                match moved {
                    Some(axis) => self.pending |= 1 << axis,
                    None => self.pending = MASK_ALL,
                }
            }
            let Some((scenario, built, machine_fp, fingerprint)) = self.visit(&digits) else {
                continue;
            };
            let rank = self.matrix.lex_rank(&digits) as u64;
            let sample = self.sample_one_in > 0
                && splitmix64(self.seed ^ rank).is_multiple_of(self.sample_one_in);
            items.push(WorkItem {
                scenario,
                built,
                machine_fp,
                fingerprint,
                changed: std::mem::replace(&mut self.pending, 0),
                sample,
                rank,
            });
        }
        if items.is_empty() {
            return None;
        }
        let idx = self.next_chunk;
        self.next_chunk += 1;
        Some((idx, items, self.produced))
    }
}

/// One worker's finished chunk, handed to the sequencing sink.
struct ChunkResult {
    outcomes: Vec<CellOutcome>,
    /// Fresh `(fingerprint, compact rows)` pairs for disk write-back.
    fresh: Vec<((u64, u64), Vec<CachedRow>)>,
    /// Odometer positions consumed through the end of this chunk — once
    /// the sink has absorbed (and therefore flushed) every chunk up to
    /// and including this one, a checkpoint may claim this coverage.
    produced_after: usize,
    rows_reused: usize,
    disk_hits: usize,
    failures: usize,
    retries: usize,
    fixpoint: FixpointStats,
    sim_skip: SkipStats,
}

/// The per-cell streaming callback, boxed so the sink can hold it.
type OnCell<'f> = Box<dyn FnMut(&CellOutcome) + Send + 'f>;

/// The order-restoring sink: chunks arrive in any order, aggregates and
/// the per-cell stream advance strictly in chunk order.
struct Sink<'f> {
    next: usize,
    staged: BTreeMap<usize, ChunkResult>,
    on_cell: OnCell<'f>,
    keep_cells: bool,
    cells: Vec<CellOutcome>,
    /// The disk memo fresh cells are appended to — only one the run
    /// opened itself ([`CampaignOptions::cache`]).
    write_back: Option<Arc<DiskCache>>,
    /// The matrix fingerprint every checkpoint is stamped with.
    matrix_fp: (u64, u64),
    fault: Option<FaultPlan>,
    chunks_since_ckpt: usize,
    disk_appended: usize,
    cache_error: Option<String>,
    unique: usize,
    errors: usize,
    bounded: usize,
    failures: usize,
    retries: usize,
    rows_reused: usize,
    disk_hits: usize,
    validated: usize,
    sound: usize,
    violations: Vec<String>,
    fixpoint: FixpointStats,
    sim_skip: SkipStats,
}

impl Sink<'_> {
    fn push(&mut self, idx: usize, result: ChunkResult) {
        self.staged.insert(idx, result);
        while let Some(result) = self.staged.remove(&self.next) {
            self.next += 1;
            self.absorb(result);
        }
    }

    fn record_cache_error(&mut self, e: &std::io::Error) {
        if self.cache_error.is_none() {
            self.cache_error = Some(e.to_string());
        }
    }

    /// Durability before coverage: the chunk's entries flush now, and a
    /// checkpoint may only ever claim positions whose chunks were
    /// absorbed — so a kill between the two loses coverage (recomputed
    /// on resume), never correctness.
    fn flush(&mut self, cache: &DiskCache, result: &ChunkResult) {
        let absorbed_chunk = self.next - 1;
        match cache.append(&result.fresh) {
            Ok(n) => self.disk_appended += n,
            Err(e) => self.record_cache_error(&e),
        }
        if let Some(plan) = &self.fault {
            if plan.tears_after_chunk(absorbed_chunk) {
                cache.inject_torn_tail();
            }
            if plan.poisons_after_chunk(absorbed_chunk) {
                cache.inject_poisoned_line();
            }
        }
        self.chunks_since_ckpt += 1;
        if self.chunks_since_ckpt >= CHECKPOINT_EVERY {
            self.chunks_since_ckpt = 0;
            if let Err(e) = cache.write_checkpoint(self.matrix_fp, result.produced_after) {
                self.record_cache_error(&e);
            }
        }
    }

    fn absorb(&mut self, result: ChunkResult) {
        self.rows_reused += result.rows_reused;
        self.disk_hits += result.disk_hits;
        self.failures += result.failures;
        self.retries += result.retries;
        self.fixpoint.absorb(&result.fixpoint);
        self.sim_skip.absorb(&result.sim_skip);
        if let Some(cache) = self.write_back.clone() {
            self.flush(&cache, &result);
        }
        for outcome in result.outcomes {
            self.unique += 1;
            if outcome.error.is_some() {
                self.errors += 1;
            } else if outcome.all_bounded() {
                self.bounded += 1;
            }
            if let Some(v) = &outcome.validation {
                self.validated += 1;
                self.sound += usize::from(v.all_sound);
            }
            if violates(&outcome) {
                self.violations.push(outcome.scenario.name.clone());
            }
            (self.on_cell)(&outcome);
            if self.keep_cells {
                self.cells.push(outcome);
            }
        }
    }
}

/// A validated cell that broke its bound although its mode is sound by
/// construction (every mode but multi-task `solo`) — a soundness bug.
fn violates(outcome: &CellOutcome) -> bool {
    outcome.validation.as_ref().is_some_and(|v| !v.all_sound)
        && outcome
            .scenario
            .mode
            .expected_sound(outcome.scenario.tasks.len())
}

/// What every worker of one run shares.
struct Shared {
    /// The run's disk memo, probed for every buildable cell.
    disk: Arc<DiskCache>,
    memo: Arc<MemoDomain>,
    ctx: Arc<SolveContext>,
    budget: CellBudget,
    fault: Option<FaultPlan>,
    /// Collect fresh rows for the disk memo (the sink appends them).
    write_back: bool,
}

/// Runs a scenario matrix, discarding each cell after aggregation
/// unless [`CampaignOptions::keep_cells`] collects it.
#[must_use]
pub fn run_campaign(matrix: &ScenarioMatrix, opts: &CampaignOptions) -> CampaignRun {
    run_campaign_with(matrix, opts, |_| {})
}

/// Runs a scenario matrix, handing every cell outcome — in
/// deterministic emission order — to `on_cell` as soon as its chunk is
/// sequenced.
pub fn run_campaign_with(
    matrix: &ScenarioMatrix,
    opts: &CampaignOptions,
    on_cell: impl FnMut(&CellOutcome) + Send,
) -> CampaignRun {
    let start = Instant::now();
    let cache = match (&opts.disk, &opts.cache) {
        (Some(disk), _) => Arc::clone(disk),
        (None, Some(path)) => Arc::new(DiskCache::open(path)),
        (None, None) => Arc::new(DiskCache::disabled()),
    };
    let shared = Shared {
        disk: cache,
        memo: opts
            .memo
            .clone()
            .unwrap_or_else(|| Arc::new(MemoDomain::new())),
        ctx: opts
            .ctx
            .clone()
            .unwrap_or_else(|| Arc::new(SolveContext::new())),
        budget: opts.budget,
        fault: opts.fault,
        write_back: opts.disk.is_none() && opts.cache.is_some(),
    };
    let workers = match opts.threads {
        0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        n => n,
    };
    // Checkpoints bind to the matrix they measured: a memo shared
    // across specs never fast-forwards the wrong campaign. A run that
    // neither writes nor resumes from a checkpoint skips the hash.
    let matrix_fp = if shared.write_back || opts.resume {
        debug_fingerprint(matrix)
    } else {
        (0, 0)
    };
    install_supervised_panic_hook();
    let producer = Mutex::new(Producer::new(matrix, opts, &shared.disk, matrix_fp));
    let sink = Mutex::new(Sink {
        next: 0,
        staged: BTreeMap::new(),
        on_cell: Box::new(on_cell),
        keep_cells: opts.keep_cells,
        cells: Vec::new(),
        write_back: shared.write_back.then(|| Arc::clone(&shared.disk)),
        matrix_fp,
        fault: shared.fault,
        chunks_since_ckpt: 0,
        disk_appended: 0,
        cache_error: None,
        unique: 0,
        errors: 0,
        bounded: 0,
        failures: 0,
        retries: 0,
        rows_reused: 0,
        disk_hits: 0,
        validated: 0,
        sound: 0,
        violations: Vec::new(),
        fixpoint: FixpointStats::default(),
        sim_skip: SkipStats::default(),
    });

    let worker = || {
        let mut engines: HashMap<(u64, u64), AnalysisEngine> = HashMap::new();
        loop {
            let chunk = producer.lock().expect("producer lock").next_chunk();
            let Some((idx, items, produced_after)) = chunk else {
                break;
            };
            let result = process_chunk(items, produced_after, &shared, &mut engines);
            sink.lock().expect("sink lock").push(idx, result);
        }
    };
    std::thread::scope(|scope| {
        // The calling thread is worker 0: a one-worker run spawns
        // nothing, which keeps a served request off the thread spawner.
        for _ in 1..workers {
            scope.spawn(worker);
        }
        worker();
    });

    let producer = producer.into_inner().expect("producer lock");
    let mut sink = sink.into_inner().expect("sink lock");
    debug_assert!(sink.staged.is_empty(), "every chunk must have flushed");
    // The final checkpoint: every consumed position's chunk has been
    // absorbed and flushed, so coverage through `produced` is durable
    // (a later `--resume` of a finished run has nothing left to do).
    if let Some(cache) = &sink.write_back {
        if producer.produced > 0 {
            if let Err(e) = cache.write_checkpoint(matrix_fp, producer.produced) {
                sink.record_cache_error(&e);
            }
        }
    }
    if let Some(first) = &producer.lex_first {
        // Materialized order and names: each kept cell stands for the
        // lexicographically first cell of its duplicate class. Rows and
        // validation are unchanged — the class shares one fingerprint.
        if producer.duplicates > 0 {
            for cell in &mut sink.cells {
                cell.scenario = matrix.cell_at(&first[&cell.fingerprint]);
            }
            sink.violations = sink
                .cells
                .iter()
                .filter(|c| violates(c))
                .map(|c| c.scenario.name.clone())
                .collect();
        }
        sink.cells
            .sort_by_key(|c| matrix.lex_rank(&first[&c.fingerprint]));
    }
    let mut fixpoint = sink.fixpoint;
    fixpoint.absorb(&shared.memo.fixpoint_stats());
    CampaignRun {
        matrix: matrix.name.clone(),
        total_cells: matrix.num_cells(),
        produced: producer.produced,
        unique: sink.unique,
        duplicates: producer.duplicates,
        errors: sink.errors,
        bounded: sink.bounded,
        rows_reused: sink.rows_reused,
        disk_hits: sink.disk_hits,
        disk_appended: sink.disk_appended,
        disk_skipped: shared.disk.skipped,
        disk_crc_rejected: shared.disk.crc_rejected,
        cache_error: sink.cache_error,
        failures: sink.failures,
        retries: sink.retries,
        deadline_hit: producer.deadline_hit,
        resumed: producer.resumed,
        validated: sink.validated,
        sound: sink.sound,
        violations: sink.violations,
        memo: shared.memo.stats(),
        solver: shared.ctx.stats(),
        fixpoint,
        sim_skip: sink.sim_skip,
        wall: start.elapsed(),
        cells: sink.cells,
    }
}

thread_local! {
    /// True while a supervised cell runs: its panics are expected,
    /// caught and recorded, so the process-wide hook stays silent —
    /// a 10⁵-cell campaign must not print 10⁵ backtraces.
    static SUPPRESS_PANIC_OUTPUT: Cell<bool> = const { Cell::new(false) };
}

/// Installs — once, process-wide — a panic hook that is silent for
/// supervised cells and delegates to the previous hook otherwise (other
/// threads and unsupervised code keep their normal backtraces).
fn install_supervised_panic_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !SUPPRESS_PANIC_OUTPUT.get() {
                prev(info);
            }
        }));
    });
}

/// Runs one supervised attempt, catching its panic quietly.
fn supervised<T>(f: impl FnOnce() -> T) -> Result<T, Box<dyn std::any::Any + Send>> {
    let was = SUPPRESS_PANIC_OUTPUT.get();
    SUPPRESS_PANIC_OUTPUT.set(true);
    let result = catch_unwind(AssertUnwindSafe(f));
    SUPPRESS_PANIC_OUTPUT.set(was);
    result
}

/// Maps a caught panic payload to a failure class: typed budget
/// exhaustion from either solver crate (`Deadline` when the wall clock
/// ran out), or a plain panic.
fn classify_panic(payload: &(dyn std::any::Any + Send)) -> (FailureKind, String) {
    let budget = payload
        .downcast_ref::<wcet_ilp::budget::BudgetExceeded>()
        .map(|b| (b.resource, b.to_string()))
        .or_else(|| {
            payload
                .downcast_ref::<wcet_ir::budget::BudgetExceeded>()
                .map(|b| (b.resource, b.to_string()))
        });
    if let Some((resource, message)) = budget {
        let kind = if resource.contains("wall-clock") {
            FailureKind::Deadline
        } else {
            FailureKind::Budget
        };
        (kind, message)
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (FailureKind::Panic, (*s).to_string())
    } else if let Some(s) = payload.downcast_ref::<String>() {
        (FailureKind::Panic, s.clone())
    } else {
        (FailureKind::Panic, "non-string panic payload".to_string())
    }
}

/// What one successful supervised attempt computed.
struct CellAnalysis {
    outcome: CellOutcome,
    /// Engine artifacts for the next neighbour (`None` off the engine
    /// path; ignored by the caller when `rows_reused`, where the
    /// predecessor's artifacts stay valid).
    arts: Option<CellArtifacts>,
    disk_hit: bool,
    rows_reused: bool,
}

/// One attempt at a buildable cell: budgets armed, then disk memo →
/// row reuse → static path → engine path, plus sampled validation.
/// Runs inside [`supervised`]; may unwind at any point.
#[allow(clippy::too_many_arguments)]
fn analyze_cell(
    item: &WorkItem,
    built: &Arc<BuiltScenario>,
    budget: CellBudget,
    prior_rows: Option<&[TaskRow]>,
    prior_arts: Option<&CellArtifacts>,
    engines: &mut HashMap<(u64, u64), AnalysisEngine>,
    shared: &Shared,
    fix: &FixpointSink,
    sim_skip: &mut SkipStats,
) -> CellAnalysis {
    // Budgets live for exactly this attempt; unwinding (budget blown or
    // plain panic) restores the thread's previous budget via Drop.
    let wall = budget
        .max_cell_ms
        .map(|ms| (Instant::now() + Duration::from_millis(ms), ms));
    let _fix_budget = wcet_ir::budget::BudgetScope::arm(budget.max_fixpoint_evals, wall);
    let _lp_budget = wcet_ilp::budget::BudgetScope::arm(budget.max_pivots, wall);

    let scn = &item.scenario;
    let cached = shared.disk.lookup(item.fingerprint);
    let (rows, arts, disk_hit, rows_reused) = if let Some(cached) = cached {
        // Disk memo: rows are prefabricated (bounds only, no report).
        // The analysis chain breaks here — artifacts were never
        // computed — but row reuse stays valid.
        let rows = cached
            .iter()
            .map(|r| TaskRow {
                task: r.task.clone(),
                core: r.core,
                thread: r.thread,
                mode: r.mode.clone(),
                outcome: Ok(TaskBound {
                    wcet: r.wcet,
                    report: None,
                }),
            })
            .collect();
        (rows, None, true, false)
    } else if let Some(prev) = prior_rows {
        // Only the validation budget moved: the analysis — and
        // therefore every row — is the predecessor's. Artifacts stay
        // valid too (the machine is untouched).
        (prev.to_vec(), None, false, true)
    } else if scn.mode.is_static_family() {
        (
            analyze_static(scn, built, &shared.ctx, fix),
            None,
            false,
            false,
        )
    } else {
        let engine = engines.entry(item.machine_fp).or_insert_with(|| {
            AnalysisEngine::new(built.machine.clone())
                .with_solve_context(Arc::clone(&shared.ctx))
                .with_memo(Arc::clone(&shared.memo))
        });
        let (rows, arts) = analyze_engine_incremental(scn, built, engine, prior_arts);
        (rows, Some(arts), false, false)
    };
    let mut outcome = CellOutcome {
        scenario: scn.clone(),
        fingerprint: item.fingerprint,
        rows,
        validation: None,
        validation_skipped: None,
        error: None,
        failure: None,
    };
    if item.sample {
        validate_cell(built, &mut outcome, sim_skip);
    }
    CellAnalysis {
        outcome,
        arts,
        disk_hit,
        rows_reused,
    }
}

/// Runs one chunk's cells in order, threading the neighbour chain, each
/// cell under supervision (see the [module docs](self)).
fn process_chunk(
    items: Vec<WorkItem>,
    produced_after: usize,
    shared: &Shared,
    engines: &mut HashMap<(u64, u64), AnalysisEngine>,
) -> ChunkResult {
    let fix = FixpointSink::new();
    let mut result = ChunkResult {
        outcomes: Vec::with_capacity(items.len()),
        fresh: Vec::new(),
        produced_after,
        rows_reused: 0,
        disk_hits: 0,
        failures: 0,
        retries: 0,
        fixpoint: FixpointStats::default(),
        sim_skip: SkipStats::default(),
    };
    // The in-chunk neighbour chain: the previous cell (its rows stay
    // valid while only `cycle_limit` moves) and its engine artifacts
    // (valid while only bus/timing axes move).
    let mut last: Option<usize> = None;
    let mut last_arts: Option<CellArtifacts> = None;
    for item in items {
        let built = match &item.built {
            Ok(b) => b,
            Err(e) => {
                last = None;
                last_arts = None;
                result.outcomes.push(CellOutcome {
                    scenario: item.scenario,
                    fingerprint: item.fingerprint,
                    rows: Vec::new(),
                    validation: None,
                    validation_skipped: None,
                    error: Some(e.clone()),
                    failure: None,
                });
                continue;
            }
        };
        let rank = item.rank;
        let cell_budget = match &shared.fault {
            Some(plan) if plan.starves(rank) => CellBudget {
                max_pivots: Some(1),
                max_fixpoint_evals: Some(1),
                max_cell_ms: shared.budget.max_cell_ms,
            },
            _ => shared.budget,
        };
        let inject_panic = shared
            .fault
            .as_ref()
            .is_some_and(|plan| plan.injects_panic(rank));
        let prior_rows = last
            .filter(|_| (item.changed & !CYCLE_MASK) == 0)
            .map(|i| result.outcomes[i].rows.as_slice());
        let prior_arts = if (item.changed & !BUS_MASK) == 0 {
            last_arts.as_ref()
        } else {
            None
        };
        let used_neighbor = prior_rows.is_some() || prior_arts.is_some();
        let first = supervised(|| {
            assert!(!inject_panic, "injected fault: panic at cell rank {rank}");
            analyze_cell(
                &item,
                built,
                cell_budget,
                prior_rows,
                prior_arts,
                engines,
                shared,
                &fix,
                &mut result.sim_skip,
            )
        });
        let (analysis, retries) = match first {
            Ok(a) => (Ok(a), 0u32),
            Err(payload) => {
                let (kind, message) = classify_panic(&*payload);
                if kind == FailureKind::Panic && used_neighbor {
                    // The inherited chain may be poisoned (a neighbour
                    // left partial state behind): one cold retry.
                    // Budget and deadline failures never retry — a cold
                    // re-analysis only does more work, deterministically.
                    let second = supervised(|| {
                        analyze_cell(
                            &item,
                            built,
                            cell_budget,
                            None,
                            None,
                            engines,
                            shared,
                            &fix,
                            &mut result.sim_skip,
                        )
                    });
                    match second {
                        Ok(a) => (Ok(a), 1),
                        Err(p2) => (Err(classify_panic(&*p2)), 1),
                    }
                } else {
                    (Err((kind, message)), 0)
                }
            }
        };
        result.retries += retries as usize;
        let analysis = match analysis {
            Ok(a) => a,
            Err((kind, message)) => {
                // Give up on this cell alone; the chain resets so the
                // next cell analyses cold instead of inheriting state a
                // panic may have left half-updated.
                last = None;
                last_arts = None;
                result.failures += 1;
                result.outcomes.push(CellOutcome {
                    scenario: item.scenario,
                    fingerprint: item.fingerprint,
                    rows: Vec::new(),
                    validation: None,
                    validation_skipped: None,
                    error: None,
                    failure: Some(CellFailure {
                        kind,
                        message,
                        retries,
                    }),
                });
                continue;
            }
        };
        if analysis.disk_hit {
            result.disk_hits += 1;
        }
        if analysis.rows_reused {
            result.rows_reused += 1;
            // last_arts stays: the machine is untouched.
        } else {
            last_arts = analysis.arts;
        }
        let outcome = analysis.outcome;
        if shared.write_back && !analysis.disk_hit && outcome.all_bounded() {
            result.fresh.push((
                item.fingerprint,
                outcome
                    .rows
                    .iter()
                    .map(|r| CachedRow {
                        task: r.task.clone(),
                        core: r.core,
                        thread: r.thread,
                        mode: r.mode.clone(),
                        wcet: r.outcome.as_ref().expect("all_bounded").wcet,
                    })
                    .collect(),
            ));
        }
        last = Some(result.outcomes.len());
        result.outcomes.push(outcome);
    }
    result.fixpoint.absorb(&fix.total());
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axis_lists_cover_the_axes() {
        let mut order = GRAY_ORDER;
        order.sort_unstable();
        assert_eq!(order, std::array::from_fn(|axis| axis));
        let unread: Vec<usize> = (0..NUM_AXES)
            .filter(|axis| !BUILD_AXES.contains(axis))
            .collect();
        assert_eq!(unread, [AXIS_MODE, AXIS_ANALYZE, AXIS_CYCLE_LIMIT]);
    }

    #[test]
    fn gray_odometer_visits_every_cell_once_one_axis_at_a_time() {
        let mut radices = [1usize; NUM_AXES];
        radices[AXIS_CORES] = 2;
        radices[AXIS_MEM_LATENCY] = 3;
        radices[AXIS_MODE] = 2;
        radices[AXIS_CYCLE_LIMIT] = 4;
        let total: usize = radices.iter().product();
        let mut odo = GrayOdometer::new(radices);
        let mut seen = HashSet::new();
        let mut prev: Option<[usize; NUM_AXES]> = None;
        while let Some((digits, moved)) = odo.step() {
            assert!(seen.insert(digits), "position repeated: {digits:?}");
            match (prev, moved) {
                (None, None) => {}
                (Some(p), Some(axis)) => {
                    let diffs: Vec<usize> = (0..NUM_AXES).filter(|&a| p[a] != digits[a]).collect();
                    assert_eq!(diffs, vec![axis], "exactly the moved axis differs");
                    assert_eq!(
                        p[axis].abs_diff(digits[axis]),
                        1,
                        "axes move by single steps"
                    );
                }
                other => panic!("inconsistent step report: {other:?}"),
            }
            prev = Some(digits);
        }
        assert_eq!(seen.len(), total, "every cross-product position visited");
        assert!(odo.step().is_none(), "exhaustion is terminal");
    }

    #[test]
    fn one_worker_streams_every_cell_on_the_calling_thread() {
        // A served request is a one-worker run: it must not pay for a
        // thread spawn, so every cell is sequenced on the caller.
        let matrix = crate::scenario::spec::parse_matrix(
            "name = caller\narbiter = [rr, tdma:10]\nmode = [isolated, joint]\n\
             cycle_limit = [100000, 200000]\ntasks = \"fir:2x4 crc:16\"\n",
        )
        .expect("parses");
        let caller = std::thread::current().id();
        let mut seen_on = Vec::new();
        let run = run_campaign_with(
            &matrix,
            &CampaignOptions {
                threads: 1,
                ..CampaignOptions::default()
            },
            |_| seen_on.push(std::thread::current().id()),
        );
        assert_eq!(seen_on.len(), run.unique);
        assert!(
            seen_on.iter().all(|&t| t == caller),
            "on_cell ran off the calling thread"
        );
    }

    #[test]
    fn collected_runs_keep_each_duplicate_class_under_its_lex_first_cell() {
        // With `l2 = none` the geometry is irrelevant, so each task set
        // has one duplicate pair. The Gray walk reaches `crc` with the
        // geometry axis at its reflected end and meets #003 before #001;
        // a collected run still keeps what expansion keeps: #000, #001.
        let matrix = crate::scenario::spec::parse_matrix(
            "name = dup\nl2_geom = [64x4x32@4, 128x4x32@4]\nl2 = none\n\
             tasks = [fir:2x4, crc:16]\n",
        )
        .expect("parses");
        let mut streamed = Vec::new();
        let run = run_campaign_with(
            &matrix,
            &CampaignOptions {
                threads: 1,
                keep_cells: true,
                sample_one_in: 1,
                ..CampaignOptions::default()
            },
            |cell| streamed.push(cell.scenario.name.clone()),
        );
        assert_eq!(streamed, ["dup#000", "dup#003"], "Gray emission order");
        let kept: Vec<&str> = run.cells.iter().map(|c| c.scenario.name.as_str()).collect();
        assert_eq!(kept, ["dup#000", "dup#001"]);
        assert_eq!(run.cells[1].scenario.tasks, ["crc:16"]);
        assert_eq!(run.duplicates, 2);
        assert_eq!(run.sound, 2);
    }
}
