//! Per-task cache-behaviour analysis by abstract interpretation
//! (paper §2.1: the first half of low-level analysis).
//!
//! Produces, for every access site, one of the classic categories
//! `ALWAYS_HIT`, `ALWAYS_MISS`, `PERSISTENT`, `NOT_CLASSIFIED`, plus the
//! per-set *footprint* (distinct lines the task may install), which is the
//! input to shared-cache interference analysis (paper §4.1).
//!
//! Persistence uses the sound conflict-counting criterion: an access is
//! persistent in a loop if the total number of distinct lines mapping to
//! its set that can be touched inside the loop (plus any interference
//! allowance) fits in the set, so the line can never be evicted once
//! loaded. This is less precise than age-based persistence but is immune to
//! the known unsoundness of the classic formulation on nested loops.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use wcet_ir::arena::{Arena, Slab};
use wcet_ir::fixpoint::{FixpointStats, Worklist};
use wcet_ir::program::AccessAddrs;
use wcet_ir::{AccessKind, BlockId, Program};

use crate::config::{CacheConfig, LineAddr};
use crate::domain::{
    join_into_words, AbsCacheState, CacheDomain, CompiledStep, JoinScratch, LineRef,
};
use crate::kernel;

/// Identifier of an access site: block plus position in the block's access
/// sequence.
pub type SiteId = (BlockId, u32);

/// Access categories (paper §2.1 vocabulary).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Classification {
    /// Guaranteed hit.
    AlwaysHit,
    /// Guaranteed miss.
    AlwaysMiss,
    /// At most one miss per entry of the scope loop (header given).
    Persistent {
        /// Header of the loop within which the line persists.
        scope: BlockId,
    },
    /// Neither hit nor miss can be guaranteed.
    NotClassified,
}

impl fmt::Display for Classification {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Classification::AlwaysHit => f.write_str("AH"),
            Classification::AlwaysMiss => f.write_str("AM"),
            Classification::Persistent { scope } => write!(f, "PS({scope})"),
            Classification::NotClassified => f.write_str("NC"),
        }
    }
}

/// Does an access reach this cache level? (Cache access classification of
/// multi-level analysis, Hardy & Puaut \[13\].)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reach {
    /// The access always reaches this level.
    Always,
    /// The access may or may not reach this level.
    Uncertain,
}

/// Which access kinds a cache level serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LevelKind {
    /// Instruction cache: fetches only.
    Instruction,
    /// Data cache: loads and stores.
    Data,
    /// Unified cache: everything.
    Unified,
}

impl LevelKind {
    /// True if accesses of `kind` are served by this level.
    #[must_use]
    pub fn serves(self, kind: AccessKind) -> bool {
        match self {
            LevelKind::Instruction => kind == AccessKind::Fetch,
            LevelKind::Data => kind.is_data(),
            LevelKind::Unified => true,
        }
    }
}

/// Inputs of one cache-level analysis.
#[derive(Debug, Clone)]
pub struct AnalysisInput {
    /// Cache geometry.
    pub cache: CacheConfig,
    /// Which accesses this level serves.
    pub kind: LevelKind,
    /// Per-set effective way counts; `None` = all `cache.ways()`.
    pub set_ways: Option<Vec<u32>>,
    /// Lines locked at this level: always hit, never aged.
    pub locked: BTreeSet<LineAddr>,
    /// Lines bypassing this level: always miss here, never installed.
    pub bypass: BTreeSet<LineAddr>,
    /// Per-set age shift from co-runner interference (empty = no sharing).
    pub interference_shift: Vec<u32>,
    /// Reach filter from the previous level (`None` = every relevant access
    /// always reaches this level, i.e. this is L1). Sites absent from the
    /// map never reach this level.
    pub reach: Option<BTreeMap<SiteId, Reach>>,
}

impl AnalysisInput {
    /// L1-style input: every relevant access reaches the cache, no locking,
    /// no bypass, no interference.
    #[must_use]
    pub fn level1(cache: CacheConfig, kind: LevelKind) -> AnalysisInput {
        AnalysisInput {
            cache,
            kind,
            set_ways: None,
            locked: BTreeSet::new(),
            bypass: BTreeSet::new(),
            interference_shift: Vec::new(),
            reach: None,
        }
    }

    fn shift_of(&self, set: usize) -> u32 {
        self.interference_shift.get(set).copied().unwrap_or(0)
    }

    fn ways_vec(&self) -> Vec<u32> {
        self.set_ways
            .clone()
            .unwrap_or_else(|| vec![self.cache.ways(); self.cache.sets() as usize])
    }
}

/// One access as seen by this cache level. Line addresses are kept for
/// classification/footprint bookkeeping; the *interned* effective lines
/// (locked/bypassed filtered out, resolved against the analysis's
/// [`CacheDomain`]) are what the fixpoint transfer actually touches —
/// the filter and the map lookups run once here, not once per state
/// application.
#[derive(Debug, Clone)]
struct LevelAccess {
    site: SiteId,
    /// Dense per-analysis site index (classification is accumulated in a
    /// flat vector keyed by this, not a per-site tree).
    site_idx: u32,
    lines: Vec<LineAddr>, // singleton or range
    /// Interned non-locked, non-bypassed lines.
    effective: Vec<LineRef>,
    reach: Reach,
}

/// Result of one cache-level analysis.
#[derive(Debug, Clone)]
pub struct CacheAnalysis {
    classes: BTreeMap<SiteId, Classification>,
    footprint: BTreeMap<u32, BTreeSet<LineAddr>>,
    sets: u32,
    /// Classification counts `(ah, am, ps, nc)`, accumulated during the
    /// classification pass (the public map is never re-walked for them).
    hist: (usize, usize, usize, usize),
    /// Fixpoint effort (excluded from any result comparison — the
    /// worklist and the sweep produce identical classifications at
    /// different bills).
    stats: FixpointStats,
}

impl CacheAnalysis {
    /// Classification of `site`, if the site reaches this level.
    #[must_use]
    pub fn class(&self, site: SiteId) -> Option<Classification> {
        self.classes.get(&site).copied()
    }

    /// All classified sites.
    pub fn iter(&self) -> impl Iterator<Item = (SiteId, Classification)> + '_ {
        self.classes.iter().map(|(&s, &c)| (s, c))
    }

    /// Per-set footprint map (set → lines).
    #[must_use]
    pub fn footprint(&self) -> &BTreeMap<u32, BTreeSet<LineAddr>> {
        &self.footprint
    }

    /// Number of sets of the analysed cache.
    #[must_use]
    pub fn num_sets(&self) -> u32 {
        self.sets
    }

    /// Counts classifications: `(ah, am, ps, nc)` — a stored counter
    /// filled during classification, not a walk over the site map.
    #[must_use]
    pub fn histogram(&self) -> (usize, usize, usize, usize) {
        self.hist
    }

    /// The fixpoint-iteration effort behind this analysis.
    #[must_use]
    pub fn fixpoint_stats(&self) -> FixpointStats {
        self.stats
    }
}

/// The reusable per-analysis workspace: one bump [`Arena`] owning every
/// per-analysis allocation shape (block in-state slabs, compiled
/// transfer programs with their candidate masks) plus the reused state
/// and scratch buffers of the fixpoint loop. [`analyze`] borrows a
/// thread-local instance, so after the first analysis on a thread warms
/// the buffers up, an analysis allocates only its result containers;
/// [`analyze_in`] takes an explicit workspace (campaign drivers, the
/// arena-reuse differential test).
#[derive(Default)]
pub struct AnalysisArena {
    /// State slabs + compiled candidate masks; reset once per analysis.
    arena: Arena<u64>,
    /// Per-block in-state handles into `arena`.
    slots: Vec<Option<Slab>>,
    /// Compiled transfer programs, all blocks flattened (slots stay
    /// aligned with each block's access list; `None` = the access
    /// cannot disturb the state).
    steps: Vec<Option<CompiledStep>>,
    /// Per-block `[start, end)` ranges into `steps`.
    ranges: Vec<(u32, u32)>,
    /// Fixpoint out-state buffer.
    out: AbsCacheState,
    /// Snapshot buffer for may-or-may-not-happen steps.
    tmp: AbsCacheState,
    /// Classification-pass state buffer.
    cls: AbsCacheState,
    /// Join scratch rows.
    scratch: JoinScratch,
}

impl AnalysisArena {
    /// An empty workspace; buffers grow to fit on first use.
    #[must_use]
    pub fn new() -> AnalysisArena {
        AnalysisArena::default()
    }

    /// Re-targets the workspace at one analysis: resets the arena (one
    /// reset per analysis) and resizes every buffer for `dom`, reusing
    /// capacity.
    fn begin(&mut self, dom: &CacheDomain, num_blocks: usize) {
        self.arena.reset();
        self.slots.clear();
        self.slots.resize(num_blocks, None);
        self.steps.clear();
        self.ranges.clear();
        self.out.resize_cold(dom);
        self.tmp.resize_cold(dom);
        self.cls.resize_cold(dom);
        self.scratch.ensure(dom);
    }

    /// Compiles each block's access sequence into the flattened transfer
    /// program (masks bump-allocated from the arena).
    fn compile(&mut self, prep: &Prepared) {
        for block in &prep.accesses {
            let start = self.steps.len() as u32;
            for acc in block {
                let certain = acc.effective.len() == 1 && acc.lines.len() == 1;
                self.steps.push(prep.dom.compile_step(
                    acc.reach == Reach::Always,
                    certain,
                    &acc.effective,
                    &mut self.arena,
                ));
            }
            self.ranges.push((start, self.steps.len() as u32));
        }
    }
}

thread_local! {
    /// The default workspace of [`analyze`] / [`analyze_sweep`]: every
    /// analysis on a thread reuses one arena and one set of buffers.
    static WORKSPACE: RefCell<AnalysisArena> = RefCell::new(AnalysisArena::new());
}

/// Runs `f` on the thread's workspace (fresh fallback on re-entrancy,
/// which plain analysis call chains never hit).
pub(crate) fn with_workspace<R>(f: impl FnOnce(&mut AnalysisArena) -> R) -> R {
    WORKSPACE.with(|w| match w.try_borrow_mut() {
        Ok(mut ws) => f(&mut ws),
        Err(_) => f(&mut AnalysisArena::new()),
    })
}

/// Runs the must/may fixpoint and classifies every access of `program`
/// relevant to this level.
///
/// The fixpoint is driven by the shared loop-nest-aware worklist
/// ([`wcet_ir::fixpoint::Worklist`]) over *precompiled block transfers*:
/// each block's access sequence is compiled once into a flat word-op
/// program and applied as a unit, and only blocks whose in-state actually
/// changed are re-evaluated. Per-analysis storage comes from a
/// thread-local [`AnalysisArena`]. Results are bit-identical to the
/// preserved sweep ([`analyze_sweep`]): both converge to the same least
/// fixpoint of the same monotone transfer system (pinned by the
/// differential property tests).
#[must_use]
pub fn analyze(program: &Program, input: &AnalysisInput) -> CacheAnalysis {
    with_workspace(|ws| analyze_in(ws, program, input))
}

/// [`analyze`] on an explicit workspace. Reusing one workspace across
/// analyses amortizes every per-analysis allocation; results are
/// identical to fresh-workspace runs (pinned by the arena-reuse test).
#[must_use]
pub fn analyze_in(
    ws: &mut AnalysisArena,
    program: &Program,
    input: &AnalysisInput,
) -> CacheAnalysis {
    let kw0 = kernel::words_total();
    let prep = prepare(program, input);
    let cfg = program.cfg();
    let dom = &prep.dom;
    ws.begin(dom, cfg.num_blocks());
    ws.compile(&prep);
    let AnalysisArena {
        arena,
        slots,
        steps,
        ranges,
        out,
        tmp,
        cls,
        scratch,
    } = ws;

    // Worklist fixpoint over block in-states (arena slabs): stabilize
    // inner loops before re-entering outer ones.
    let state_words = 2 * dom.total_words();
    slots[cfg.entry().index()] = Some(arena.alloc_zeroed(state_words)); // cold = all-zero
    let mut wl = Worklist::nested(cfg, program.loops());
    wl.push(cfg.entry());
    while let Some(b) = wl.pop() {
        let slab = slots[b.index()].expect("popped block has in-state");
        out.load_words(dom, arena.get(slab));
        let (s0, s1) = ranges[b.index()];
        out.apply_transfer(dom, &steps[s0 as usize..s1 as usize], arena, tmp, scratch);
        for &succ in cfg.successors(b) {
            let changed = match slots[succ.index()] {
                None => {
                    let slab = arena.alloc_zeroed(state_words);
                    out.store_words(dom, arena.get_mut(slab));
                    slots[succ.index()] = Some(slab);
                    true
                }
                Some(slab) => join_into_words(dom, arena.get_mut(slab), out, scratch),
            };
            if changed {
                wl.push(succ);
            }
        }
    }

    let mut stats = wl.stats();
    stats.kernel_words = kernel::words_total() - kw0;
    stats.arena_bytes = arena.high_water_bytes();
    stats.arena_resets = 1;
    finish(
        program, input, &prep, arena, steps, ranges, slots, cls, tmp, scratch, stats,
    )
}

/// The preserved naive fixpoint: full reverse-postorder sweeps,
/// re-interpreting every access of every block per round, until a whole
/// round changes nothing. This is the reference twin of [`analyze`] for
/// the differential property tests and the worklist-vs-sweep benchmark;
/// production callers use [`analyze`].
#[must_use]
pub fn analyze_sweep(program: &Program, input: &AnalysisInput) -> CacheAnalysis {
    with_workspace(|ws| analyze_sweep_in(ws, program, input))
}

fn analyze_sweep_in(
    ws: &mut AnalysisArena,
    program: &Program,
    input: &AnalysisInput,
) -> CacheAnalysis {
    let kw0 = kernel::words_total();
    let prep = prepare(program, input);
    let cfg = program.cfg();
    let dom = &prep.dom;
    ws.begin(dom, cfg.num_blocks());
    let AnalysisArena {
        arena,
        slots,
        steps,
        ranges,
        out,
        tmp,
        cls,
        scratch,
    } = ws;

    let state_words = 2 * dom.total_words();
    slots[cfg.entry().index()] = Some(arena.alloc_zeroed(state_words)); // cold = all-zero
    let rpo = cfg.reverse_postorder();
    let mut stats = FixpointStats::default();
    let mut changed = true;
    while changed {
        changed = false;
        stats.max_trips += 1; // one full sweep
        for &b in rpo {
            let Some(slab) = slots[b.index()] else {
                continue;
            };
            stats.evaluated += 1;
            out.load_words(dom, arena.get(slab));
            for acc in &prep.accesses[b.index()] {
                apply_access(out, dom, acc, scratch);
            }
            for &succ in cfg.successors(b) {
                match slots[succ.index()] {
                    None => {
                        let slab = arena.alloc_zeroed(state_words);
                        out.store_words(dom, arena.get_mut(slab));
                        slots[succ.index()] = Some(slab);
                        changed = true;
                    }
                    Some(slab) => {
                        if join_into_words(dom, arena.get_mut(slab), out, scratch) {
                            changed = true;
                        }
                    }
                }
            }
        }
    }
    stats.sweep_evals = stats.evaluated; // this *is* the sweep bill

    // Compile the transfers only now: the classification replay uses
    // them, the sweep itself interprets accesses directly.
    let mut compile_ws = CompileView {
        arena,
        steps,
        ranges,
    };
    compile_ws.compile(&prep);
    stats.kernel_words = kernel::words_total() - kw0;
    stats.arena_bytes = arena.high_water_bytes();
    stats.arena_resets = 1;
    finish(
        program, input, &prep, arena, steps, ranges, slots, cls, tmp, scratch, stats,
    )
}

/// A borrow-splitting view for compiling transfers after the workspace
/// has been destructured (the sweep path compiles late).
struct CompileView<'a> {
    arena: &'a mut Arena<u64>,
    steps: &'a mut Vec<Option<CompiledStep>>,
    ranges: &'a mut Vec<(u32, u32)>,
}

impl CompileView<'_> {
    fn compile(&mut self, prep: &Prepared) {
        for block in &prep.accesses {
            let start = self.steps.len() as u32;
            for acc in block {
                let certain = acc.effective.len() == 1 && acc.lines.len() == 1;
                self.steps.push(prep.dom.compile_step(
                    acc.reach == Reach::Always,
                    certain,
                    &acc.effective,
                    self.arena,
                ));
            }
            self.ranges.push((start, self.steps.len() as u32));
        }
    }
}

/// Shared preparation: access collection plus the interned line universe.
struct Prepared {
    accesses: Vec<Vec<LevelAccess>>,
    sites: Vec<SiteId>,
    dom: CacheDomain,
}

fn prepare(program: &Program, input: &AnalysisInput) -> Prepared {
    let (mut accesses, sites) = collect_accesses(program, input);
    let ways = input.ways_vec();

    // Intern the universe: every effective (non-locked, non-bypassed)
    // line the program can touch, grouped by set.
    let mut per_set: Vec<Vec<LineAddr>> = vec![Vec::new(); ways.len()];
    for block in &accesses {
        for acc in block {
            for &line in &acc.lines {
                if !input.locked.contains(&line) && !input.bypass.contains(&line) {
                    per_set[input.cache.set_of(line) as usize].push(line);
                }
            }
        }
    }
    let dom = CacheDomain::new(ways, per_set);
    for block in &mut accesses {
        for acc in block {
            acc.effective = acc
                .lines
                .iter()
                .filter(|l| !input.locked.contains(l) && !input.bypass.contains(l))
                .map(|&l| dom.intern(l).expect("line is in the interned universe"))
                .collect();
        }
    }
    Prepared {
        accesses,
        sites,
        dom,
    }
}

/// Shared epilogue: loop pressure, classification, footprint, histogram.
/// Replays each block's compiled transfer one access at a time so the
/// per-site classification sees the exact pre-access state.
#[allow(clippy::too_many_arguments)] // destructured AnalysisArena halves
fn finish(
    program: &Program,
    input: &AnalysisInput,
    prep: &Prepared,
    arena: &Arena<u64>,
    steps: &[Option<CompiledStep>],
    ranges: &[(u32, u32)],
    slots: &[Option<Slab>],
    cls: &mut AbsCacheState,
    tmp: &mut AbsCacheState,
    scratch: &mut JoinScratch,
    stats: FixpointStats,
) -> CacheAnalysis {
    let cfg = program.cfg();
    let dom = &prep.dom;
    let num_sets = dom.num_sets();

    // Loop pressure per (loop, set): distinct installable lines, counted
    // as bitsets over the interned universe (one row of words per set)
    // instead of per-line `BTreeSet` insertions.
    let loops = program.loops();
    let mut row_off = vec![0usize; num_sets];
    let mut row_words = 0usize;
    for (set, off) in row_off.iter_mut().enumerate() {
        *off = row_words;
        row_words += dom.words_of(set);
    }
    let mut pressure: Vec<Vec<u32>> = vec![vec![0; num_sets]; loops.len()];
    if !loops.is_empty() && row_words > 0 {
        let mut bits = vec![0u64; row_words];
        for l in loops.ids() {
            bits.fill(0);
            for &b in &loops.loop_of(l).blocks {
                for acc in &prep.accesses[b.index()] {
                    for r in &acc.effective {
                        bits[row_off[r.set as usize] + (r.bit / 64) as usize] |=
                            1u64 << (r.bit % 64);
                    }
                }
            }
            for set in 0..num_sets {
                pressure[l.index()][set] = bits[row_off[set]..row_off[set] + dom.words_of(set)]
                    .iter()
                    .map(|w| w.count_ones())
                    .sum();
            }
        }
    }

    // Footprint: the distinct effective lines any access may install —
    // by construction exactly the interned universe (both are built from
    // the same locked/bypass-filtered access lines, and every block is
    // reachable), read off the domain in one sorted pass instead of
    // re-inserting every access's line list.
    let mut footprint: BTreeMap<u32, BTreeSet<LineAddr>> = BTreeMap::new();
    for set in 0..num_sets {
        let lines = dom.lines_of_set(set);
        if !lines.is_empty() {
            footprint.insert(set as u32, lines.iter().copied().collect());
        }
    }

    // Classification pass (classes accumulate in a flat site-indexed
    // vector; the public BTreeMap is built once at the end).
    let mut class_by_site: Vec<Option<Classification>> = vec![None; prep.sites.len()];
    let mut hist = (0usize, 0usize, 0usize, 0usize);
    for (b, _) in cfg.iter() {
        let Some(slab) = slots[b.index()] else {
            continue;
        };
        cls.load_words(dom, arena.get(slab));
        let (s0, _) = ranges[b.index()];
        for (i, acc) in prep.accesses[b.index()].iter().enumerate() {
            let class = classify(cls, dom, acc, input, program, &pressure);
            class_by_site[acc.site_idx as usize] = Some(class);
            match class {
                Classification::AlwaysHit => hist.0 += 1,
                Classification::AlwaysMiss => hist.1 += 1,
                Classification::Persistent { .. } => hist.2 += 1,
                Classification::NotClassified => hist.3 += 1,
            }
            if let Some(step) = &steps[s0 as usize + i] {
                cls.apply_step(dom, step, arena, tmp, scratch);
            }
        }
    }
    let classes = prep
        .sites
        .iter()
        .zip(&class_by_site)
        .filter_map(|(&site, class)| class.map(|c| (site, c)))
        .collect();

    CacheAnalysis {
        classes,
        footprint,
        sets: input.cache.sets(),
        hist,
        stats,
    }
}

/// Collects the accesses this level serves, block by block, assigning
/// each a dense site index. Returns the per-block lists plus the
/// site-index → [`SiteId`] table.
fn collect_accesses(
    program: &Program,
    input: &AnalysisInput,
) -> (Vec<Vec<LevelAccess>>, Vec<SiteId>) {
    let cfg = program.cfg();
    let mut out = vec![Vec::new(); cfg.num_blocks()];
    let mut sites = Vec::new();
    for (b, _) in cfg.iter() {
        for site in program.accesses(b) {
            if !input.kind.serves(site.kind) {
                continue;
            }
            let id = (site.block, site.seq);
            let reach = match &input.reach {
                None => Reach::Always,
                Some(map) => match map.get(&id) {
                    None => continue, // never reaches this level
                    Some(&r) => r,
                },
            };
            let lines = match site.addrs {
                AccessAddrs::Exact(a) => vec![input.cache.line_of(a)],
                AccessAddrs::Range { base, bytes } => input.cache.lines_of_range(base, bytes),
            };
            let site_idx = sites.len() as u32;
            sites.push(id);
            out[b.index()].push(LevelAccess {
                site: id,
                site_idx,
                lines,
                effective: Vec::new(), // interned once the domain exists
                reach,
            });
        }
    }
    (out, sites)
}

fn apply_access(
    state: &mut AbsCacheState,
    dom: &CacheDomain,
    acc: &LevelAccess,
    scratch: &mut JoinScratch,
) {
    if acc.effective.is_empty() {
        return; // locked/bypassed accesses don't disturb the state
    }
    match (acc.reach, acc.effective.len()) {
        (Reach::Always, 1) if acc.lines.len() == 1 => {
            state.access(dom, acc.effective[0]);
        }
        (Reach::Always, _) => {
            state.access_unknown(dom, &acc.effective);
        }
        (Reach::Uncertain, _) => {
            // The access may or may not happen: join both worlds. The
            // two states differ only on the touched sets, so the join is
            // restricted to them.
            let mut updated = state.clone();
            if acc.effective.len() == 1 && acc.lines.len() == 1 {
                updated.access(dom, acc.effective[0]);
            } else {
                updated.access_unknown(dom, &acc.effective);
            }
            let mut sets: Vec<usize> = acc.effective.iter().map(|r| r.set as usize).collect();
            sets.sort_unstable();
            state.join_sets_in(dom, &updated, &sets, scratch);
        }
    }
}

fn classify(
    state: &AbsCacheState,
    dom: &CacheDomain,
    acc: &LevelAccess,
    input: &AnalysisInput,
    program: &Program,
    pressure: &[Vec<u32>],
) -> Classification {
    // Locked lines always hit (all range lines must be locked).
    if acc.lines.iter().all(|l| input.locked.contains(l)) {
        return Classification::AlwaysHit;
    }
    // Bypassed lines always miss at this level.
    if acc.lines.iter().all(|l| input.bypass.contains(l)) {
        return Classification::AlwaysMiss;
    }
    if acc.lines.len() != 1 {
        return Classification::NotClassified;
    }
    let line = acc.lines[0];
    let set = input.cache.set_of(line);
    let shift = input.shift_of(set as usize);
    let ways = dom.ways(set as usize);
    let line_ref = acc.effective[0];

    if let Some(age) = state.must_age(dom, line_ref) {
        if age.saturating_add(shift) < ways {
            return Classification::AlwaysHit;
        }
    }
    if !state.may_contain(dom, line_ref) && shift == 0 && acc.reach == Reach::Always {
        // Guaranteed absent (cold start; no co-runner can have loaded it
        // because interference is zero on this set).
        return Classification::AlwaysMiss;
    }
    // Persistence: outermost loop whose pressure on this set fits.
    let loops = program.loops();
    let containing = loops.containing(acc.site.0); // innermost first
    for l in containing.into_iter().rev() {
        let own = pressure[l.index()][set as usize];
        if own.saturating_add(shift) <= ways {
            return Classification::Persistent {
                scope: loops.loop_of(l).header,
            };
        }
    }
    Classification::NotClassified
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcet_ir::builder::CfgBuilder;
    use wcet_ir::cfg::Terminator;
    use wcet_ir::flow::{FlowFacts, LoopBound};
    use wcet_ir::isa::{r, Addr, Cond, Instr, MemRef, Operand};
    use wcet_ir::program::Layout;
    use wcet_ir::synth::{matmul, Placement};

    /// A loop re-loading the same two scalars each iteration.
    fn reuse_loop(words_apart: u64) -> Program {
        let mut cb = CfgBuilder::new();
        let entry = cb.add_block();
        let header = cb.add_block();
        let body = cb.add_block();
        let exit = cb.add_block();
        cb.push(entry, Instr::LoadImm { dst: r(1), imm: 0 });
        cb.terminate(entry, Terminator::Jump(header));
        cb.terminate(
            header,
            Terminator::Branch {
                cond: Cond::Lt,
                lhs: r(1),
                rhs: Operand::Imm(8),
                taken: body,
                not_taken: exit,
            },
        );
        cb.push(
            body,
            Instr::Load {
                dst: r(2),
                mem: MemRef::Static(Addr(0x8000)),
            },
        );
        cb.push(
            body,
            Instr::Load {
                dst: r(3),
                mem: MemRef::Static(Addr(0x8000 + words_apart * 8)),
            },
        );
        cb.push(
            body,
            Instr::Alu {
                op: wcet_ir::AluOp::Add,
                dst: r(1),
                lhs: r(1),
                rhs: 1.into(),
            },
        );
        cb.terminate(body, Terminator::Jump(header));
        cb.terminate(exit, Terminator::Return);
        let cfg = cb.build(entry).expect("valid");
        let mut facts = FlowFacts::new();
        facts.set_bound(BlockId::from_index(1), LoopBound(8));
        Program::new("reuse", cfg, facts, Layout::default()).expect("valid")
    }

    fn dcache(sets: u32, ways: u32) -> CacheConfig {
        CacheConfig::new(sets, ways, 32, 1).expect("valid")
    }

    #[test]
    fn repeated_scalar_loads_become_persistent_or_hit() {
        let p = reuse_loop(0); // both loads to the same line
        let input = AnalysisInput::level1(dcache(4, 2), LevelKind::Data);
        let res = analyze(&p, &input);
        let body = BlockId::from_index(2);
        // Data accesses in `body`: the two loads. Find their sites.
        let sites: Vec<SiteId> = p
            .accesses(body)
            .iter()
            .filter(|a| a.kind.is_data())
            .map(|a| (a.block, a.seq))
            .collect();
        assert_eq!(sites.len(), 2);
        // First load: miss on first iteration, hit after → PS (or NC on
        // first fixpoint but with 1 line vs 2 ways it must be PS at worst).
        let c0 = res.class(sites[0]).expect("classified");
        assert!(
            matches!(
                c0,
                Classification::Persistent { .. } | Classification::AlwaysHit
            ),
            "unexpected class {c0}"
        );
        // Second load same line: always hit (just loaded by first).
        assert_eq!(res.class(sites[1]), Some(Classification::AlwaysHit));
    }

    #[test]
    fn deterministic_thrash_is_always_miss() {
        // Two lines mapping to the same set of a direct-mapped cache,
        // alternately accessed in a loop: each load deterministically
        // evicts the other, so the may analysis proves ALWAYS_MISS.
        let p = reuse_loop(4); // 4 words * 8 = 32 bytes apart = next line
                               // sets=1 → both lines in set 0 of a 1-set 1-way cache.
        let input = AnalysisInput::level1(dcache(1, 1), LevelKind::Data);
        let res = analyze(&p, &input);
        let body = BlockId::from_index(2);
        let sites: Vec<SiteId> = p
            .accesses(body)
            .iter()
            .filter(|a| a.kind.is_data())
            .map(|a| (a.block, a.seq))
            .collect();
        for s in sites {
            assert_eq!(res.class(s), Some(Classification::AlwaysMiss));
        }
    }

    #[test]
    fn first_fetch_is_always_miss_cold() {
        let p = reuse_loop(0);
        let input = AnalysisInput::level1(
            CacheConfig::new(16, 2, 16, 1).expect("ok"),
            LevelKind::Instruction,
        );
        let res = analyze(&p, &input);
        // The very first fetch of the entry block misses (cold cache).
        let entry_sites: Vec<SiteId> = p
            .accesses(p.cfg().entry())
            .iter()
            .filter(|a| a.kind == AccessKind::Fetch)
            .map(|a| (a.block, a.seq))
            .collect();
        assert_eq!(res.class(entry_sites[0]), Some(Classification::AlwaysMiss));
    }

    #[test]
    fn loop_fetches_hit_when_code_fits() {
        let p = reuse_loop(0);
        // Big I-cache: whole loop fits easily → header/body fetches AH or PS.
        let input = AnalysisInput::level1(
            CacheConfig::new(64, 4, 32, 1).expect("ok"),
            LevelKind::Instruction,
        );
        let res = analyze(&p, &input);
        let body = BlockId::from_index(2);
        let (_ah, am, _ps, nc) = res.histogram();
        // Nothing in a fitting loop should be NC.
        assert_eq!(nc, 0, "unexpected NC fetches");
        assert!(am >= 1); // cold-start first fetches
        let body_sites: Vec<SiteId> = p
            .accesses(body)
            .iter()
            .filter(|a| a.kind == AccessKind::Fetch)
            .map(|a| (a.block, a.seq))
            .collect();
        for s in body_sites {
            let c = res.class(s).expect("classified");
            assert!(
                matches!(
                    c,
                    Classification::AlwaysHit
                        | Classification::Persistent { .. }
                        | Classification::AlwaysMiss
                ),
                "body fetch {c} should be AH/PS/AM"
            );
        }
    }

    #[test]
    fn locked_lines_classified_hit() {
        let p = reuse_loop(0);
        let cache = dcache(4, 2);
        let line = cache.line_of(Addr(0x8000));
        let mut input = AnalysisInput::level1(cache, LevelKind::Data);
        input.locked.insert(line);
        let res = analyze(&p, &input);
        let body = BlockId::from_index(2);
        for a in p.accesses(body).iter().filter(|a| a.kind.is_data()) {
            assert_eq!(res.class((a.block, a.seq)), Some(Classification::AlwaysHit));
        }
        // Locked lines are excluded from the footprint.
        assert!(!res.footprint().values().any(|lines| lines.contains(&line)));
    }

    #[test]
    fn bypassed_lines_classified_miss() {
        let p = reuse_loop(0);
        let cache = dcache(4, 2);
        let line = cache.line_of(Addr(0x8000));
        let mut input = AnalysisInput::level1(cache, LevelKind::Data);
        input.bypass.insert(line);
        let res = analyze(&p, &input);
        let body = BlockId::from_index(2);
        for a in p.accesses(body).iter().filter(|a| a.kind.is_data()) {
            assert_eq!(
                res.class((a.block, a.seq)),
                Some(Classification::AlwaysMiss)
            );
        }
    }

    #[test]
    fn interference_shift_degrades_hits() {
        let p = reuse_loop(0);
        let cache = dcache(4, 2);
        let line = cache.line_of(Addr(0x8000));
        let set = cache.set_of(line) as usize;
        let mut input = AnalysisInput::level1(cache, LevelKind::Data);
        let baseline = analyze(&p, &input);
        // With a shift of 2 (= ways), nothing can be guaranteed to survive.
        let mut shift = vec![0u32; 4];
        shift[set] = 2;
        input.interference_shift = shift;
        let degraded = analyze(&p, &input);
        let (ah0, ..) = baseline.histogram();
        let (ah1, ..) = degraded.histogram();
        assert!(ah1 < ah0, "interference must remove hits ({ah0} -> {ah1})");
    }

    #[test]
    fn footprint_covers_matmul_tables() {
        let p = matmul(4, Placement::default());
        let cache = dcache(8, 2);
        let input = AnalysisInput::level1(cache, LevelKind::Data);
        let res = analyze(&p, &input);
        let total: usize = res.footprint().values().map(BTreeSet::len).sum();
        // 3 matrices × 16 words × 8 B = 384 B = 12 lines of 32 B.
        assert_eq!(total, 12);
    }
}
