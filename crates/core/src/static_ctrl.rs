//! Statically-controlled resource sharing (paper §3.2, §4.2, §5.2):
//! TDMA offset-aware analysis, offset-state explosion measurement, and
//! static/dynamic cache-locking WCET assembly.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use wcet_arbiter::Tdma;
use wcet_cache::analysis::{AnalysisInput, LevelKind};
use wcet_cache::concrete::ConcreteCache;
use wcet_cache::config::CacheConfig;
use wcet_cache::lock::{select_dynamic, select_static, DynamicLockPlan, LockPlan};
use wcet_cache::multilevel::{analyze_hierarchy, HierarchyConfig};
use wcet_ir::fixpoint::FixpointSink;
use wcet_ir::interp::execute;
use wcet_ir::program::AccessKind;
use wcet_ir::{BlockId, Program};
use wcet_pipeline::cost::{block_costs, BlockCosts, CoreMode, CostInput};
use wcet_pipeline::timing::{MemTimings, PipelineConfig};

use wcet_sim::config::MachineConfig;

use crate::analyzer::{AnalysisError, Analyzer};
use crate::ipet::{wcet_ipet_in, IpetOptions, SolveContext};

/// One IPET solve, warm-started through `ctx` when provided. Sweep
/// drivers (exp05/exp06) re-analyse each task under many cache shapes;
/// the flow system is per-task, so a shared context skips phase 1 on
/// every re-solve.
fn ipet_wcet(
    program: &Program,
    costs: &BlockCosts,
    ctx: Option<&SolveContext>,
) -> Result<u64, AnalysisError> {
    Ok(wcet_ipet_in(program, costs, &IpetOptions::default(), ctx)?.wcet)
}

/// Parameters of a statically-controlled single-task study (the task's
/// private view of the machine: its L1s, its L2 slice, its bus slot).
#[derive(Debug, Clone)]
pub struct StaticParams {
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// The task's (partition-effective) L2 slice, if any.
    pub l2: Option<CacheConfig>,
    /// Memory-system latencies.
    pub timings: MemTimings,
    /// Bus waiting bound per transaction.
    pub bus_wait_bound: Option<u64>,
    /// Pipeline geometry.
    pub pipeline: PipelineConfig,
    /// Core threading mode.
    pub mode: CoreMode,
}

impl StaticParams {
    /// Derives a task's statically-controlled parameters from a machine
    /// description, exactly as [`crate::analyzer::Analyzer`] would see the
    /// task at `(core, thread)`: effective (partition-sliced) cache
    /// geometries, the memory timing ladder, and the arbiter's
    /// workload-independent bus bound. This is how scenario matrices
    /// route their `static-ctrl` / lock-mode cells through one shared
    /// machine description.
    ///
    /// # Errors
    ///
    /// See [`AnalysisError`] — notably `Unanalysable` for cores without a
    /// sound per-thread model and `Unbounded` when the arbiter cannot
    /// bound this requester. (An unbounded bus is an error here because a
    /// statically-controlled study charges a finite wait per transaction.)
    pub fn from_machine(
        machine: &MachineConfig,
        core: usize,
        thread: usize,
    ) -> Result<StaticParams, AnalysisError> {
        let analyzer = Analyzer::new(machine.clone());
        let ctx = analyzer.task_context(core, thread, Vec::new(), None)?;
        if ctx.bus_wait_bound.is_none() {
            return Err(AnalysisError::Unbounded);
        }
        Ok(StaticParams {
            l1i: ctx.l1i,
            l1d: ctx.l1d,
            l2: ctx.l2.as_ref().map(|input| input.cache),
            timings: ctx.timings,
            bus_wait_bound: ctx.bus_wait_bound,
            pipeline: machine.pipeline,
            mode: ctx.mode,
        })
    }

    fn hierarchy_with_l2(&self, l2_input: Option<AnalysisInput>) -> HierarchyConfig {
        HierarchyConfig {
            l1i: self.l1i,
            l1d: self.l1d,
            l2: l2_input,
        }
    }

    fn cost_input(&self) -> CostInput {
        CostInput {
            pipeline: self.pipeline,
            timings: self.timings,
            bus_wait_bound: self.bus_wait_bound,
            mode: self.mode,
        }
    }

    fn plain_l2_input(&self) -> Option<AnalysisInput> {
        self.l2
            .map(|c| AnalysisInput::level1(c, LevelKind::Unified))
    }
}

/// Baseline: no locking.
///
/// `ctx` warm-starts the IPET solve (bit-identical results, fewer simplex
/// pivots across a sweep; `None` solves cold); `fix` collects the cache
/// fixpoints' effort counters.
///
/// # Errors
///
/// See [`AnalysisError`].
pub fn wcet_unlocked(
    program: &Program,
    params: &StaticParams,
    ctx: Option<&SolveContext>,
    fix: Option<&FixpointSink>,
) -> Result<u64, AnalysisError> {
    let hierarchy = analyze_hierarchy(program, &params.hierarchy_with_l2(params.plain_l2_input()));
    if let Some(fix) = fix {
        fix.absorb(hierarchy.fixpoint_stats());
    }
    let costs = block_costs(program, &hierarchy, &params.cost_input())?;
    ipet_wcet(program, &costs, ctx)
}

/// Static locking (Puaut & Decotigny \[27\]; Suhendra & Mitra \[37\]): lock
/// the globally hottest lines into `lock_ways` ways of the L2 slice; the
/// preload pass is charged at task start. `ctx` and `fix` as in
/// [`wcet_unlocked`].
///
/// # Errors
///
/// See [`AnalysisError`].
///
/// # Panics
///
/// Panics if `params.l2` is `None` (locking studies need an L2 slice).
pub fn wcet_static_lock(
    program: &Program,
    params: &StaticParams,
    lock_ways: u32,
    ctx: Option<&SolveContext>,
    fix: Option<&FixpointSink>,
) -> Result<(u64, LockPlan), AnalysisError> {
    let l2 = params.l2.expect("static locking needs an L2 slice");
    let plan = select_static(program, &l2, lock_ways);
    let mut input = AnalysisInput::level1(l2, LevelKind::Unified);
    input.locked = plan.lines.clone();
    input.set_ways = Some(locked_ways_vector(&l2, &plan.lines));
    let hierarchy = analyze_hierarchy(program, &params.hierarchy_with_l2(Some(input)));
    if let Some(fix) = fix {
        fix.absorb(hierarchy.fixpoint_stats());
    }
    let mut costs = block_costs(program, &hierarchy, &params.cost_input())?;
    // Preload: one memory fetch per locked line at task start.
    let preload =
        plan.preload_lines() as u64 * params.timings.mem_extra(params.bus_wait_bound.unwrap_or(0));
    costs.startup += preload;
    Ok((ipet_wcet(program, &costs, ctx)?, plan))
}

/// Dynamic locking (Suhendra & Mitra \[37\]): per-region (outermost loop)
/// lock contents, reloaded at each region entry. `ctx` and `fix` as in
/// [`wcet_unlocked`].
///
/// Each block's cost comes from the hierarchy analysis matching its
/// region's lock contents; reload costs are charged on the region's loop
/// entries (residual region: at task start).
///
/// # Errors
///
/// See [`AnalysisError`].
///
/// # Panics
///
/// Panics if `params.l2` is `None`.
pub fn wcet_dynamic_lock(
    program: &Program,
    params: &StaticParams,
    lock_ways: u32,
    ctx: Option<&SolveContext>,
    fix: Option<&FixpointSink>,
) -> Result<(u64, DynamicLockPlan), AnalysisError> {
    let l2 = params.l2.expect("dynamic locking needs an L2 slice");
    let plan = select_dynamic(program, &l2, lock_ways);
    let mem_path = params.timings.mem_extra(params.bus_wait_bound.unwrap_or(0));

    // One hierarchy analysis per region; assemble per-block costs from the
    // analysis of the block's own region.
    let mut base: BTreeMap<BlockId, u64> = BTreeMap::new();
    let mut loop_entry_extras: BTreeMap<BlockId, u64> = BTreeMap::new();
    let mut startup = params.pipeline.startup_cycles()
        * match params.mode {
            CoreMode::Single => 1,
            CoreMode::PredictableSmt { threads } => u64::from(threads.max(1)),
        };
    for region in &plan.regions {
        let mut input = AnalysisInput::level1(l2, LevelKind::Unified);
        input.locked = region.lines.clone();
        input.set_ways = Some(locked_ways_vector(&l2, &region.lines));
        let hierarchy = analyze_hierarchy(program, &params.hierarchy_with_l2(Some(input)));
        if let Some(fix) = fix {
            fix.absorb(hierarchy.fixpoint_stats());
        }
        let costs = block_costs(program, &hierarchy, &params.cost_input())?;
        for &b in &region.blocks {
            base.insert(b, costs.cost(b));
        }
        // Persistence extras whose scope lies in this region.
        for (&scope, &extra) in &costs.loop_entry_extras {
            if region.blocks.contains(&scope) {
                *loop_entry_extras.entry(scope).or_insert(0) += extra;
            }
        }
        // Reload cost at each region entry.
        let reload = region.lines.len() as u64 * mem_path;
        match region.scope {
            Some(header) => {
                *loop_entry_extras.entry(header).or_insert(0) += reload;
            }
            None => startup += reload,
        }
    }
    let costs = BlockCosts {
        base,
        loop_entry_extras,
        startup,
    };
    Ok((ipet_wcet(program, &costs, ctx)?, plan))
}

fn locked_ways_vector(
    l2: &CacheConfig,
    locked: &BTreeSet<wcet_cache::config::LineAddr>,
) -> Vec<u32> {
    let mut per_set = vec![0u32; l2.sets() as usize];
    for &line in locked {
        per_set[l2.set_of(line) as usize] += 1;
    }
    per_set
        .into_iter()
        .map(|locked_in_set| l2.ways().saturating_sub(locked_in_set))
        .collect()
}

/// Offset-aware TDMA timing walk (Rosén et al. \[33\], paper §5.2).
///
/// Replays the task's **unique** execution path with concrete private
/// caches, charging each memory transaction the *exact* TDMA wait at its
/// issue offset. The result is a true WCET **only for single-path
/// programs** (the paper's point: this is where static bus scheduling is
/// analysable; on multi-path code the start-time states explode — see
/// [`offset_state_sizes`]).
///
/// # Errors
///
/// Returns [`AnalysisError::Unbounded`] if a transfer fits no slot of this
/// owner.
///
/// # Panics
///
/// Panics if the program does not terminate within an internal step limit.
pub fn tdma_offset_aware_wcet(
    program: &Program,
    params: &StaticParams,
    tdma: &Tdma,
    slot_owner: usize,
) -> Result<u64, AnalysisError> {
    let run = execute(program, 50_000_000).expect("program must terminate");
    let mut l1i = ConcreteCache::new(params.l1i);
    let mut l1d = ConcreteCache::new(params.l1d);
    let mut l2 = params.l2.map(ConcreteCache::new);
    let k = match params.mode {
        CoreMode::Single => 1,
        CoreMode::PredictableSmt { threads } => u64::from(threads.max(1)),
    };
    let mut t: u64 = params.pipeline.startup_cycles() * k;

    // Walk accesses in program order; charge exec latencies per slot.
    let mut trace_pos = 0usize;
    for &block in &run.block_trace {
        let blk = program.cfg().block(block);
        let mut slot_idx = 0usize;
        while slot_idx < blk.fetch_slots() {
            // Fetch access.
            let acc = run.accesses[trace_pos];
            debug_assert_eq!(acc.kind, AccessKind::Fetch);
            t += access_time(
                acc.addr, true, &mut l1i, &mut l1d, &mut l2, params, tdma, slot_owner, t,
            )?;
            trace_pos += 1;
            // Optional data access.
            let is_term = slot_idx + 1 == blk.fetch_slots();
            let exec: u64 = if is_term {
                1
            } else {
                let ins = &blk.instrs()[slot_idx];
                if ins.mem_ref().is_some() {
                    let dacc = run.accesses[trace_pos];
                    debug_assert!(dacc.kind.is_data());
                    t += access_time(
                        dacc.addr, false, &mut l1i, &mut l1d, &mut l2, params, tdma, slot_owner, t,
                    )?;
                    trace_pos += 1;
                }
                u64::from(ins.exec_latency())
            };
            t += exec * k;
            slot_idx += 1;
        }
    }
    Ok(t)
}

#[allow(clippy::too_many_arguments)]
fn access_time(
    addr: wcet_ir::Addr,
    is_fetch: bool,
    l1i: &mut ConcreteCache,
    l1d: &mut ConcreteCache,
    l2: &mut Option<ConcreteCache>,
    params: &StaticParams,
    tdma: &Tdma,
    slot_owner: usize,
    now: u64,
) -> Result<u64, AnalysisError> {
    let l1 = if is_fetch { l1i } else { l1d };
    let line = l1.config().line_of(addr);
    let l1_extra = u64::from(l1.config().hit_latency.max(1)) - 1;
    if l1.access(line).is_hit() {
        return Ok(l1_extra);
    }
    let mut extra = l1_extra;
    if let Some(l2c) = l2.as_mut() {
        let l2_line = l2c.config().line_of(addr);
        extra += u64::from(l2c.config().hit_latency);
        if l2c.access(l2_line).is_hit() {
            return Ok(extra);
        }
    }
    // Memory transaction at the current offset.
    let wait = tdma
        .delay_at_offset(
            slot_owner,
            (now + extra) % tdma.period(),
            params.timings.bus_transfer,
        )
        .ok_or(AnalysisError::Unbounded)?;
    Ok(extra + wait + params.timings.bus_transfer + params.timings.mem_latency)
}

/// Sizes of the per-block *start-offset state sets* a TDMA-offset-precise
/// analysis would have to track within one loop iteration: the set of
/// possible `time mod period` values at each block's start, propagated
/// with the given block costs along forward edges (back edges cut).
///
/// Single-path programs keep singleton sets; multi-path programs multiply
/// states at every join — Rochange's §5.2 critique, quantified
/// (experiment E08). A full analysis would additionally track
/// cross-iteration offsets, which is strictly worse.
#[must_use]
pub fn offset_state_sizes(
    program: &Program,
    costs: &BlockCosts,
    period: u64,
) -> BTreeMap<BlockId, usize> {
    let cfg = program.cfg();
    let back: BTreeSet<wcet_ir::Edge> = cfg.back_edges().into_iter().collect();
    let mut states: Vec<BTreeSet<u64>> = vec![BTreeSet::new(); cfg.num_blocks()];
    states[cfg.entry().index()].insert(costs.startup % period);
    let mut work: VecDeque<BlockId> = VecDeque::from([cfg.entry()]);
    while let Some(b) = work.pop_front() {
        let outs: Vec<u64> = states[b.index()]
            .iter()
            .map(|&o| (o + costs.cost(b)) % period)
            .collect();
        for &s in cfg.successors(b) {
            if back.contains(&wcet_ir::Edge::new(b, s)) {
                continue;
            }
            let before = states[s.index()].len();
            states[s.index()].extend(outs.iter().copied());
            if states[s.index()].len() != before {
                work.push_back(s);
            }
        }
    }
    cfg.block_ids()
        .map(|b| (b, states[b.index()].len()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcet_arbiter::Slot;
    use wcet_ir::synth::{bsort, single_path, Placement};

    fn params() -> StaticParams {
        StaticParams {
            l1i: CacheConfig::new(32, 2, 16, 1).expect("valid"),
            l1d: CacheConfig::new(16, 2, 32, 1).expect("valid"),
            l2: Some(CacheConfig::new(64, 4, 32, 4).expect("valid")),
            timings: MemTimings {
                l1_hit: 1,
                l2_hit: Some(4),
                bus_transfer: 8,
                mem_latency: 30,
            },
            bus_wait_bound: Some(0),
            pipeline: PipelineConfig::default(),
            mode: CoreMode::Single,
        }
    }

    #[test]
    fn from_machine_matches_hand_built_params() {
        // The exp05 machine shape: two scalar cores with tiny L1s over a
        // shared 4-way L2, a round-robin bus (bound N·L−1 = 15) and a
        // 30-cycle predictable memory.
        let mut m = MachineConfig::symmetric(2);
        for c in &mut m.cores {
            c.l1i = CacheConfig::new(8, 1, 16, 1).expect("valid");
            c.l1d = CacheConfig::new(2, 1, 32, 1).expect("valid");
        }
        m.l2.as_mut().expect("has L2").cache = CacheConfig::new(64, 4, 32, 4).expect("valid");
        let derived = StaticParams::from_machine(&m, 0, 0).expect("derives");
        assert_eq!(derived.l1i, CacheConfig::new(8, 1, 16, 1).expect("valid"));
        assert_eq!(derived.l1d, CacheConfig::new(2, 1, 32, 1).expect("valid"));
        assert_eq!(
            derived.l2,
            Some(CacheConfig::new(64, 4, 32, 4).expect("valid"))
        );
        assert_eq!(derived.bus_wait_bound, Some(2 * 8 - 1));
        assert_eq!(
            derived.timings,
            MemTimings {
                l1_hit: 1,
                l2_hit: Some(4),
                bus_transfer: 8,
                mem_latency: 30,
            }
        );
        assert_eq!(derived.mode, CoreMode::Single);
        // And the derived parameters drive the same unlocked analysis.
        let p = bsort(10, Placement::slot(0));
        let direct = wcet_unlocked(&p, &derived, None, None).expect("analyses");
        assert!(direct > 0);
        // An arbiter that cannot bound the requester is an error.
        let mut unbounded = m.clone();
        unbounded.bus.arbiter = wcet_arbiter::ArbiterKind::FixedPriority { hrt: 0 };
        assert_eq!(
            StaticParams::from_machine(&unbounded, 1, 0).unwrap_err(),
            AnalysisError::Unbounded
        );
    }

    fn tdma2(slot_len: u64) -> Tdma {
        Tdma::new(
            2,
            vec![
                Slot {
                    owner: 0,
                    len: slot_len,
                },
                Slot {
                    owner: 1,
                    len: slot_len,
                },
            ],
        )
        .expect("valid")
    }

    #[test]
    fn offset_aware_beats_offset_blind_on_single_path() {
        let p = single_path(4, 16, Placement::default());
        let mut pr = params();
        let tdma = tdma2(16);
        // Offset-blind: every transaction charged the worst wait.
        pr.bus_wait_bound = tdma.worst_delay(0, pr.timings.bus_transfer);
        let blind = wcet_unlocked(&p, &pr, None, None).expect("ok");
        let aware = tdma_offset_aware_wcet(&p, &pr, &tdma, 0).expect("ok");
        assert!(
            aware <= blind,
            "offset-aware {aware} must not exceed offset-blind {blind}"
        );
        assert!(aware < blind, "should be strictly tighter here");
    }

    #[test]
    fn single_path_offsets_stay_singleton() {
        let p = single_path(3, 8, Placement::default());
        let pr = params();
        let hierarchy = analyze_hierarchy(&p, &pr.hierarchy_with_l2(pr.plain_l2_input()));
        let costs = block_costs(&p, &hierarchy, &pr.cost_input()).expect("bounded");
        let sizes = offset_state_sizes(&p, &costs, 32);
        // Loop header gets offsets from entry AND from each iteration:
        // blocks may see a handful, but a *multi-path* program sees many
        // more; compare against bsort below.
        let max_single: usize = *sizes.values().max().expect("non-empty");
        let pb = bsort(8, Placement::default());
        let hierarchy_b = analyze_hierarchy(&pb, &pr.hierarchy_with_l2(pr.plain_l2_input()));
        let costs_b = block_costs(&pb, &hierarchy_b, &pr.cost_input()).expect("bounded");
        let sizes_b = offset_state_sizes(&pb, &costs_b, 32);
        let max_multi: usize = *sizes_b.values().max().expect("non-empty");
        assert!(
            max_multi > max_single,
            "multi-path must track more offset states ({max_multi} vs {max_single})"
        );
    }

    #[test]
    fn static_locking_helps_thrashing_task() {
        // A tiny L2 slice that thrashes: locking the hottest lines must
        // not hurt, and usually helps.
        let p = single_path(6, 32, Placement::default());
        let mut pr = params();
        pr.l2 = Some(CacheConfig::new(4, 2, 32, 4).expect("valid"));
        pr.l1d = CacheConfig::new(1, 1, 32, 1).expect("valid"); // force L2 traffic
        pr.l1i = CacheConfig::new(2, 1, 16, 1).expect("valid");
        let unlocked = wcet_unlocked(&p, &pr, None, None).expect("ok");
        let (locked, plan) = wcet_static_lock(&p, &pr, 1, None, None).expect("ok");
        assert!(!plan.lines.is_empty());
        assert!(
            locked <= unlocked + plan.preload_lines() as u64 * 50,
            "locking should be competitive: {locked} vs {unlocked}"
        );
    }

    #[test]
    fn dynamic_lock_regions_cover_program() {
        let p = bsort(6, Placement::default());
        let pr = params();
        let (wcet, plan) = wcet_dynamic_lock(&p, &pr, 2, None, None).expect("ok");
        assert!(wcet > 0);
        for b in p.cfg().block_ids() {
            assert!(plan.region_of(b).is_some());
        }
    }
}
