//! The traced layer replay. It re-runs a workload's cells through each
//! layer's public entry point, one layer at a time —
//! `build_scenario` → fingerprint → disk memo → `Analyzer::task_context`
//! → `analyze_hierarchy` → `block_costs` → `wcet_ipet_ctx` →
//! `observe_all` — with a span around every call.
//!
//! Each layer is called once per distinct memo key, keyed exactly as the
//! engine's memo keys its tables (task content, effective L1/L2 inputs,
//! then bus bound, core mode, timings and pipeline), so the replay's call
//! counts must equal the untraced run's `MemoStats` misses. Rows and
//! bounds must equal the untraced run's; any difference is a failure.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

use wcet_bench::load::splitmix64;
use wcet_bench::scenario::run::{build_scenario, BuiltScenario};
use wcet_bench::scenario::spec::AnalyzeSpec;
use wcet_bench::scenario::{CachedRow, DiskCache, ModeSpec, Scenario};
use wcet_cache::analysis::AnalysisInput;
use wcet_cache::config::CacheConfig;
use wcet_cache::multilevel::{analyze_hierarchy, HierarchyAnalysis, HierarchyConfig};
use wcet_core::validate::observe_all;
use wcet_core::{
    debug_fingerprint, program_fingerprint, wcet_ipet_ctx, AnalysisError, AnalysisMode, Analyzer,
    Footprint, IpetOptions, Isolated, JointRefs, Solo, SolveContext,
};
use wcet_ir::Program;
use wcet_pipeline::cost::{block_costs, BlockCosts, CostInput};
use wcet_serve::{BoundRow, CellBounds};

use crate::trace::Tracer;

/// Cells per disk-memo append, as in the streaming runner.
const CHUNK: usize = 64;
/// Appends between memo checkpoints, as in the streaming runner.
const CHECKPOINT_EVERY: usize = 16;

/// What the replay counted, for the consistency checks.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub cells: u64,
    pub hierarchy_calls: u64,
    pub cost_calls: u64,
    pub ipet_solves: u64,
    pub replays: u64,
    pub unsound: u64,
    pub mismatches: u64,
}

/// Fresh cells waiting for the next disk-memo append.
struct Writer {
    cache: DiskCache,
    matrix_fp: (u64, u64),
    pending: Vec<((u64, u64), Vec<CachedRow>)>,
    cells: usize,
    appends: usize,
}

/// The replay's memo tables and counters.
pub struct Layers {
    hierarchies: HashMap<(u64, u64), Arc<HierarchyAnalysis>>,
    costs: HashMap<(u64, u64), Arc<BlockCosts>>,
    bounds: HashMap<(u64, u64), u64>,
    /// Program fingerprints per task set, cached as the campaign
    /// producer caches them per task-set axis value.
    task_fps: HashMap<Vec<String>, Vec<(u64, u64)>>,
    solve: SolveContext,
    ipet: IpetOptions,
    /// `(seed, one_in)` of the seeded validation sample.
    sample: (u64, u64),
    disk: Option<DiskCache>,
    writer: Option<Writer>,
    pub counts: Counts,
}

impl Layers {
    pub fn new(sample_seed: u64, sample_one_in: u64) -> Layers {
        Layers {
            hierarchies: HashMap::new(),
            costs: HashMap::new(),
            bounds: HashMap::new(),
            task_fps: HashMap::new(),
            solve: SolveContext::new(),
            ipet: IpetOptions::default(),
            sample: (sample_seed, sample_one_in),
            disk: None,
            writer: None,
            counts: Counts::default(),
        }
    }

    /// Forgets every memoized intermediate (a fresh memo domain).
    pub fn reset_memo(&mut self) {
        self.hierarchies.clear();
        self.costs.clear();
        self.bounds.clear();
        self.solve = SolveContext::new();
    }

    /// Serves cells from the disk memo at `path`, opened inside a span.
    pub fn open_disk(&mut self, t: &mut Tracer, path: &Path) {
        self.disk = Some(t.span("scenario.cache.open", 0, |_| DiskCache::open(path)));
    }

    /// Appends fresh bounded cells to a new disk memo at `path`, in
    /// chunks, with periodic checkpoints, as a cold campaign does.
    pub fn write_disk(&mut self, path: &Path, matrix_fp: (u64, u64)) {
        let _ = std::fs::remove_file(path);
        let cache = DiskCache::open(path);
        self.writer = Some(Writer {
            cache,
            matrix_fp,
            pending: Vec::new(),
            cells: 0,
            appends: 0,
        });
        if self.disk.is_none() {
            // Lookups probe the (empty) memo being written, as the
            // campaign's producer does.
            self.disk = Some(DiskCache::open(path));
        }
    }

    /// Flushes the last partial chunk and the final checkpoint.
    pub fn finish_disk(&mut self, t: &mut Tracer) {
        if let Some(w) = &mut self.writer {
            flush(t, w, true);
        }
    }

    /// Replays one cell and compares it with the untraced run's result.
    pub fn cell(&mut self, t: &mut Tracer, id: u64, scn: &Scenario, expected: &CellBounds) {
        let got = t.span("cell", id, |t| self.cell_inner(t, id, scn));
        self.counts.cells += 1;
        if got != *expected {
            self.counts.mismatches += 1;
            if self.counts.mismatches <= 3 {
                eprintln!(
                    "traced replay differs on {}:\n  traced   {got:?}\n  untraced {expected:?}",
                    scn.name
                );
            }
        }
    }

    fn cell_inner(&mut self, t: &mut Tracer, id: u64, scn: &Scenario) -> CellBounds {
        let built = t.span("scenario.build", id, |_| build_scenario(scn));
        let built = match built {
            Ok(b) => b,
            Err(e) => {
                let fp = t.span("scenario.fingerprint", id, |_| {
                    debug_fingerprint(&(
                        scn.cores,
                        scn.smt_threads,
                        &scn.arbiter,
                        scn.bus_transfer,
                        scn.mem_latency,
                        scn.l1i,
                        scn.l1d,
                        scn.l2_geom,
                        scn.l2_layout,
                        scn.mode,
                        scn.analyze,
                        &scn.tasks,
                    ))
                });
                return CellBounds {
                    cell: scn.name.clone(),
                    fingerprint: fp,
                    rows: Vec::new(),
                    error: Some(e),
                };
            }
        };
        let (fp, task_fps) = t.span("scenario.fingerprint", id, |_| {
            let task_fps = self
                .task_fps
                .entry(scn.tasks.clone())
                .or_insert_with(|| built.programs.iter().map(program_fingerprint).collect())
                .clone();
            let fp = debug_fingerprint(&(
                &built.machine,
                &built.placement,
                scn.mode.label(),
                scn.analyze,
                &task_fps,
                scn.cycle_limit,
            ));
            (fp, task_fps)
        });
        let cached = match &self.disk {
            Some(disk) => t.span("scenario.cache.lookup", id, |_| {
                disk.lookup(fp).map(<[CachedRow]>::to_vec)
            }),
            None => None,
        };
        let disk_hit = cached.is_some();
        let rows: Vec<BoundRow> = match cached {
            Some(rows) => rows
                .into_iter()
                .map(|r| BoundRow {
                    task: r.task,
                    core: r.core as u64,
                    thread: r.thread as u64,
                    mode: r.mode,
                    outcome: Ok(r.wcet),
                })
                .collect(),
            None => self.analyze(t, id, scn, &built, &task_fps),
        };
        let bounded: Option<Vec<(usize, usize, u64)>> = rows
            .iter()
            .map(|r| {
                r.outcome
                    .as_ref()
                    .ok()
                    .map(|&w| (r.core as usize, r.thread as usize, w))
            })
            .collect();
        if self.sampled(scn) && !scn.mode.is_lock_mode() {
            if let Some(watched) = &bounded {
                let loads: Vec<(usize, usize, Program)> = built
                    .placement
                    .iter()
                    .zip(&built.programs)
                    .map(|(&(c, th), p)| (c, th, p.clone()))
                    .collect();
                let run = t.span("sim.replay", id, |_| {
                    observe_all(&built.machine, loads, watched, scn.cycle_limit)
                });
                if let Ok(run) = run {
                    self.counts.replays += 1;
                    let sound = run.observations.iter().all(wcet_core::Observation::sound);
                    if !sound && scn.mode.expected_sound(scn.tasks.len()) {
                        self.counts.unsound += 1;
                    }
                }
            }
        }
        if let Some(w) = &mut self.writer {
            if !disk_hit && bounded.is_some() {
                w.pending.push((
                    fp,
                    rows.iter()
                        .map(|r| CachedRow {
                            task: r.task.clone(),
                            core: r.core as usize,
                            thread: r.thread as usize,
                            mode: r.mode.clone(),
                            wcet: *r.outcome.as_ref().expect("bounded row"),
                        })
                        .collect(),
                ));
            }
            w.cells += 1;
            if w.cells.is_multiple_of(CHUNK) {
                flush(t, w, false);
            }
        }
        CellBounds {
            cell: scn.name.clone(),
            fingerprint: fp,
            rows,
            error: None,
        }
    }

    /// Whether the seeded sample validates this cell (the rank is the
    /// suffix of the cell name).
    fn sampled(&self, scn: &Scenario) -> bool {
        let (seed, one_in) = self.sample;
        one_in > 0 && {
            let rank = scn
                .name
                .rsplit('#')
                .next()
                .and_then(|r| r.parse::<u64>().ok())
                .expect("cell names end in #<rank>");
            splitmix64(seed ^ rank).is_multiple_of(one_in)
        }
    }

    /// Engine-family analysis of the cell's analysed tasks.
    fn analyze(
        &mut self,
        t: &mut Tracer,
        id: u64,
        scn: &Scenario,
        built: &BuiltScenario,
        task_fps: &[(u64, u64)],
    ) -> Vec<BoundRow> {
        let analyzer = Analyzer::new(built.machine.clone());
        // Joint mode: every task's refined L2 footprint, through the
        // same hierarchy memo (empty interference shift).
        let footprints: Vec<Option<Footprint>> = if scn.mode == ModeSpec::Joint {
            built
                .programs
                .iter()
                .zip(&built.placement)
                .zip(task_fps)
                .map(|((p, &(core, _)), &task_fp)| {
                    t.span("core.footprint", id, |t| {
                        let ctx = analyzer
                            .task_context(core, 0, Vec::new(), Some(None))
                            .ok()?;
                        let (_, h) = self.hierarchy(t, id, p, task_fp, ctx.l1i, ctx.l1d, ctx.l2);
                        Some(
                            h.l2.as_ref()
                                .map(|a| a.footprint().clone())
                                .unwrap_or_default(),
                        )
                    })
                })
                .collect()
        } else {
            Vec::new()
        };
        let analyzed = match scn.analyze {
            AnalyzeSpec::All => built.programs.len(),
            AnalyzeSpec::Victim => built.programs.len().min(1),
        };
        (0..analyzed)
            .map(|i| {
                let p = &built.programs[i];
                let (core, thread) = built.placement[i];
                let refs: Vec<&Footprint> = footprints
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .filter_map(|(_, f)| f.as_ref())
                    .collect();
                let joint = JointRefs(&refs);
                let mode: &dyn AnalysisMode = match scn.mode {
                    ModeSpec::Solo => &Solo,
                    ModeSpec::Isolated => &Isolated,
                    ModeSpec::Joint => &joint,
                    _ => {
                        return BoundRow {
                            task: p.name().to_string(),
                            core: core as u64,
                            thread: thread as u64,
                            mode: scn.mode.label(),
                            outcome: Err("statically-controlled modes are not replayed".into()),
                        }
                    }
                };
                let outcome = t.span("core.task", id, |t| {
                    self.task(t, id, p, task_fps[i], core, thread, mode, built, &analyzer)
                });
                BoundRow {
                    task: p.name().to_string(),
                    core: core as u64,
                    thread: thread as u64,
                    mode: scn.mode.label(),
                    outcome,
                }
            })
            .collect()
    }

    /// One task: context, hierarchy, block costs and IPET, each through
    /// its memo table.
    #[allow(clippy::too_many_arguments)]
    fn task(
        &mut self,
        t: &mut Tracer,
        id: u64,
        p: &Program,
        task_fp: (u64, u64),
        core: usize,
        thread: usize,
        mode: &dyn AnalysisMode,
        built: &BuiltScenario,
        analyzer: &Analyzer,
    ) -> Result<u64, String> {
        let shift = mode.l2_shift(&built.machine);
        let bus = mode.bus_bound(analyzer, core, thread);
        let ctx = analyzer
            .task_context(core, thread, shift, bus)
            .map_err(|e| e.to_string())?;
        let (hier_key, hierarchy) =
            self.hierarchy(t, id, p, task_fp, ctx.l1i, ctx.l1d, ctx.l2.clone());
        let cost_key = debug_fingerprint(&(
            hier_key,
            ctx.bus_wait_bound,
            ctx.mode,
            ctx.timings,
            built.machine.pipeline,
        ));
        let costs = match self.costs.get(&cost_key) {
            Some(c) => Arc::clone(c),
            None => {
                let input = CostInput {
                    pipeline: built.machine.pipeline,
                    timings: ctx.timings,
                    bus_wait_bound: ctx.bus_wait_bound,
                    mode: ctx.mode,
                };
                let costs = t
                    .span("pipeline.block_costs", id, |_| {
                        block_costs(p, &hierarchy, &input)
                    })
                    .map_err(|e| AnalysisError::from(e).to_string())?;
                self.counts.cost_calls += 1;
                let costs = Arc::new(costs);
                self.costs.insert(cost_key, Arc::clone(&costs));
                costs
            }
        };
        if let Some(&wcet) = self.bounds.get(&cost_key) {
            return Ok(wcet);
        }
        let bound = t
            .span("ilp.ipet", id, |_| {
                wcet_ipet_ctx(p, &costs, &self.ipet, &self.solve)
            })
            .map_err(|e| AnalysisError::from(e).to_string())?;
        self.counts.ipet_solves += 1;
        self.bounds.insert(cost_key, bound.wcet);
        Ok(bound.wcet)
    }

    /// The memoized cache hierarchy of one task under one L1/L2 input.
    #[allow(clippy::too_many_arguments)]
    fn hierarchy(
        &mut self,
        t: &mut Tracer,
        id: u64,
        p: &Program,
        task_fp: (u64, u64),
        l1i: CacheConfig,
        l1d: CacheConfig,
        l2: Option<AnalysisInput>,
    ) -> ((u64, u64), Arc<HierarchyAnalysis>) {
        let key = debug_fingerprint(&(
            task_fp,
            l1i,
            l1d,
            l2.as_ref().map(|i| {
                (
                    i.cache,
                    &i.set_ways,
                    &i.locked,
                    &i.bypass,
                    &i.interference_shift,
                )
            }),
        ));
        if let Some(h) = self.hierarchies.get(&key) {
            return (key, Arc::clone(h));
        }
        let h = Arc::new(t.span("cache.hierarchy", id, |_| {
            analyze_hierarchy(p, &HierarchyConfig { l1i, l1d, l2 })
        }));
        self.counts.hierarchy_calls += 1;
        self.hierarchies.insert(key, Arc::clone(&h));
        (key, h)
    }
}

fn flush(t: &mut Tracer, w: &mut Writer, last: bool) {
    let fresh = std::mem::take(&mut w.pending);
    t.span("scenario.cache.append", 0, |_| {
        let _ = w.cache.append(&fresh);
        w.appends += 1;
        if last || w.appends.is_multiple_of(CHECKPOINT_EVERY) {
            let _ = w.cache.write_checkpoint(w.matrix_fp, w.cells);
        }
    });
}
