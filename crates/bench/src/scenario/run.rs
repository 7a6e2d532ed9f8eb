//! The per-cell building blocks of the scenario runner
//! ([`super::stream`]): building each cell's machine and task set, its
//! semantic deduplication fingerprint, analysis of every task through
//! [`AnalysisEngine`] (engines share one warm-start [`SolveContext`], so
//! objective-only neighbour cells skip simplex phase 1) or the
//! [`wcet_core::static_ctrl`] path, and cross-validation of a concrete
//! cell on the `wcet-sim` cycle-level machine via
//! [`wcet_core::validate::observe_all`].

use std::sync::Arc;

use wcet_cache::bypass::single_usage_lines;
use wcet_cache::lock::select_static;
use wcet_cache::partition::PartitionPlan;
use wcet_core::engine::{AnalysisEngine, TaskArtifacts};
use wcet_core::mode::{Footprint, Isolated, JointRefs, Solo};
use wcet_core::static_ctrl::{wcet_dynamic_lock, wcet_static_lock, wcet_unlocked, StaticParams};
use wcet_core::validate::{observe_all, Observation};
use wcet_core::{SolveContext, WcetReport};
use wcet_ir::fingerprint::{debug_fingerprint, TupleFingerprint};
use wcet_ir::fixpoint::FixpointSink;
use wcet_ir::synth::{parse_kernel, Placement};
use wcet_ir::Program;
use wcet_sched::TaskSet;
use wcet_sim::config::{L2Config, MachineConfig};
use wcet_sim::machine::SkipStats;

use super::spec::{AnalyzeSpec, L2Layout, ModeSpec, Scenario};

/// A concrete, buildable cell: machine + programs + placement.
#[derive(Debug, Clone)]
pub struct BuiltScenario {
    /// The machine description shared by analysis and simulation.
    pub machine: MachineConfig,
    /// One program per task, placed at address slot = task index.
    pub programs: Vec<Program>,
    /// `(core, thread)` per task.
    pub placement: Vec<(usize, usize)>,
}

/// One task's analysis outcome within a cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskRow {
    /// Program name.
    pub task: String,
    /// Core index.
    pub core: usize,
    /// Hardware-thread index.
    pub thread: usize,
    /// Mode label (from [`ModeSpec::label`]).
    pub mode: String,
    /// The WCET bound, or the per-task analysis error.
    pub outcome: Result<TaskBound, String>,
}

/// A successful per-task bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskBound {
    /// The WCET bound in cycles.
    pub wcet: u64,
    /// The full engine report (engine-family modes only; the
    /// statically-controlled path reports the bound alone).
    pub report: Option<WcetReport>,
}

/// The simulator cross-check of one cell: all tasks loaded together, one
/// observation per task against its own bound.
#[derive(Debug, Clone, PartialEq)]
pub struct CellValidation {
    /// Per-task observations, aligned with the cell's rows.
    pub observations: Vec<Observation>,
    /// True if every observation satisfied `observed <= bound`.
    pub all_sound: bool,
}

/// Why a supervised cell was abandoned by the runner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The cell's analysis (or validation) panicked.
    Panic,
    /// The cell exhausted a counted resource budget (simplex pivots or
    /// fixpoint evaluations).
    Budget,
    /// The cell exhausted its wall-clock budget.
    Deadline,
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FailureKind::Panic => "panic",
            FailureKind::Budget => "budget",
            FailureKind::Deadline => "deadline",
        })
    }
}

/// A supervised cell's failure record: the campaign kept running, this
/// cell alone was given up on (possibly after a retry).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellFailure {
    /// What class of failure this was.
    pub kind: FailureKind,
    /// The panic payload or exhausted-budget description.
    pub message: String,
    /// Fresh-analysis retries spent before giving up (0 or 1: a cell
    /// that first failed on neighbour-incremental state is re-analysed
    /// cold once, in case the inherited chain was poisoned).
    pub retries: u32,
}

/// One cell's complete outcome.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// The cell description.
    pub scenario: Scenario,
    /// Semantic fingerprint (machine + placed task contents + mode), the
    /// deduplication key.
    pub fingerprint: (u64, u64),
    /// Per-task analysis rows (empty when the cell failed to build).
    pub rows: Vec<TaskRow>,
    /// Simulator cross-check, when run.
    pub validation: Option<CellValidation>,
    /// Why validation was skipped, when it was.
    pub validation_skipped: Option<String>,
    /// Build failure (unplaceable tasks, inconsistent machine…).
    pub error: Option<String>,
    /// Supervision failure (panic, or an exhausted budget or deadline).
    pub failure: Option<CellFailure>,
}

impl CellOutcome {
    /// True if every task row carries a bound.
    #[must_use]
    pub fn all_bounded(&self) -> bool {
        self.error.is_none()
            && self.failure.is_none()
            && self.rows.iter().all(|r| r.outcome.is_ok())
    }
}

/// Builds a cell's machine, programs and placement.
///
/// # Errors
///
/// Returns a human-readable description for unbuildable cells (more
/// tasks than hardware threads, partition over-commit, arbiter/requester
/// mismatch…).
pub fn build_scenario(scn: &Scenario) -> Result<BuiltScenario, String> {
    build_with_programs(scn, parse_programs(&scn.tasks)?)
}

/// Parses a cell's kernel specs into placed programs (task *i* at
/// address slot *i*). Factored out of [`build_scenario`] so the
/// runner's producer can cache programs per task-set axis value.
pub(crate) fn parse_programs(tasks: &[String]) -> Result<Vec<Program>, String> {
    tasks
        .iter()
        .enumerate()
        .map(|(i, spec)| parse_kernel(spec, Placement::slot(i as u32)))
        .collect()
}

/// The machine/placement half of [`build_scenario`], for callers that
/// already hold the cell's parsed programs.
pub(crate) fn build_with_programs(
    scn: &Scenario,
    programs: Vec<Program>,
) -> Result<BuiltScenario, String> {
    // Placement: round-robin over cores (the validated TaskSet builder),
    // then hardware threads for the overflow.
    let set = TaskSet::round_robin(programs.iter().map(|p| p.name().to_string()), scn.cores);
    let threads_per_core = scn.smt_threads.unwrap_or(1) as usize;
    let placement: Vec<(usize, usize)> = set
        .ids()
        .enumerate()
        .map(|(i, id)| (set.task(id).core, i / scn.cores))
        .collect();
    if let Some(&(core, thread)) = placement.iter().find(|&&(_, t)| t >= threads_per_core) {
        return Err(format!(
            "unplaceable: {} tasks need thread {thread} of core {core}, but cores have \
             {threads_per_core} hardware thread(s)",
            programs.len()
        ));
    }

    let mut machine = match scn.smt_threads {
        Some(t) => MachineConfig::symmetric_smt(scn.cores, t),
        None => MachineConfig::symmetric(scn.cores),
    };
    for core in &mut machine.cores {
        core.l1i = scn.l1i;
        core.l1d = scn.l1d;
    }
    machine.bus.transfer = scn.bus_transfer;
    machine.bus.arbiter = scn.arbiter.clone();
    machine.memory = wcet_arbiter::MemoryKind::Predictable {
        latency: scn.mem_latency,
    };
    machine.l2 = match scn.l2_geom {
        None => None,
        Some(geom) => {
            let mut l2 = L2Config::plain(geom);
            match scn.l2_layout {
                L2Layout::Shared => {}
                L2Layout::Partitioned => {
                    l2.partition = PartitionPlan::even_columns(&geom, scn.cores as u32)
                        .map_err(|e| format!("partitioned L2: {e}"))?;
                }
                L2Layout::Locked { ways } => {
                    for p in &programs {
                        l2.locked.extend(select_static(p, &geom, ways).lines);
                    }
                }
                L2Layout::Bypass => {
                    for p in &programs {
                        l2.bypass.extend(single_usage_lines(p, &geom).lines);
                    }
                }
            }
            Some(l2)
        }
    };

    // Arbiter/requester consistency (`ArbiterKind::build` would panic).
    let slots = machine.total_threads();
    match &machine.bus.arbiter {
        wcet_arbiter::ArbiterKind::Mbba { weights, .. } if weights.len() != slots => {
            return Err(format!(
                "mbba needs one weight per hardware thread: {} weights for {slots} threads",
                weights.len()
            ));
        }
        wcet_arbiter::ArbiterKind::FixedPriority { hrt } if *hrt >= slots => {
            return Err(format!(
                "fixed-priority HRT index {hrt} out of range for {slots} threads"
            ));
        }
        wcet_arbiter::ArbiterKind::Tdma { slots: table } => {
            if let Some(&(owner, _)) = table.iter().find(|&&(owner, _)| owner >= slots) {
                return Err(format!(
                    "tdma-table slot owner {owner} out of range for {slots} threads"
                ));
            }
        }
        _ => {}
    }

    Ok(BuiltScenario {
        machine,
        programs,
        placement,
    })
}

/// The deduplication fingerprint of a buildable cell:
/// `debug_fingerprint(&(&machine, &placement, mode label, analyze,
/// task_fps, cycle_limit))`, computed from `prefix`, the build's
/// `(machine, placement, ` fed once per build by the runner's producer.
/// The mode label carries the mode parameters; the per-task content
/// fingerprints are supplied by the caller, which caches them per
/// task-set axis value.
pub(crate) fn cell_fingerprint(
    prefix: &TupleFingerprint,
    scn: &Scenario,
    task_fps: &[(u64, u64)],
) -> (u64, u64) {
    prefix
        .clone()
        .field(&scn.mode.label())
        .field(&scn.analyze)
        .field(task_fps)
        .field(&scn.cycle_limit)
        .finish()
}

/// Unbuildable cells: fingerprint the raw description (sans name).
pub(crate) fn fingerprint_unbuildable(scn: &Scenario) -> (u64, u64) {
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
}

/// The task indices a cell analyses: all of them, or just the victim.
pub(crate) fn analyzed_range(scn: &Scenario, built: &BuiltScenario) -> std::ops::Range<usize> {
    match scn.analyze {
        AnalyzeSpec::All => 0..built.programs.len(),
        AnalyzeSpec::Victim => 0..1.min(built.programs.len()),
    }
}

/// The engine-level leftovers of one analysed cell, fed back in by the
/// streaming runner when the next cell's delta is bus/timing-only (see
/// [`wcet_core::engine::TaskArtifacts`] for what that buys).
#[derive(Debug, Clone, Default)]
pub(crate) struct CellArtifacts {
    /// One entry per analysed row, `None` for failed rows.
    tasks: Vec<Option<TaskArtifacts>>,
    /// Joint-mode co-runner footprints (empty for other modes). Like the
    /// task artifacts, these depend only on cache geometry and task
    /// content — never on bus or memory timing — so a bus-delta
    /// neighbour reuses them wholesale.
    footprints: Arc<Vec<Option<Footprint>>>,
}

/// Engine-family analysis (`solo` / `isolated` / `joint`) of the cell's
/// analysed tasks, threading neighbour artifacts: with
/// `prior: Some(...)` from a cell whose delta provably left every
/// hierarchy input unchanged (only `arbiter` / `transfer` /
/// `mem_latency` / `cycle_limit` moved), each task reuses its
/// predecessor's fixpoints without re-keying. Rows are identical either
/// way — the artifacts only skip work, never change it.
pub(crate) fn analyze_engine_incremental(
    scn: &Scenario,
    built: &BuiltScenario,
    engine: &AnalysisEngine,
    prior: Option<&CellArtifacts>,
) -> (Vec<TaskRow>, CellArtifacts) {
    // Joint mode: each task is analysed against the footprints of every
    // *other* task in the cell (including non-analysed ones). A neighbour
    // cell's footprints are reused as-is — they are geometry/content
    // functions, unaffected by any bus-only delta.
    let footprints: Arc<Vec<Option<Footprint>>> = match prior {
        Some(c) if scn.mode == ModeSpec::Joint && !c.footprints.is_empty() => {
            Arc::clone(&c.footprints)
        }
        _ if scn.mode == ModeSpec::Joint => Arc::new(
            built
                .programs
                .iter()
                .zip(&built.placement)
                .map(|(p, &(core, _))| engine.l2_footprint(p, core).ok())
                .collect(),
        ),
        _ => Arc::new(Vec::new()),
    };
    let mut artifacts = CellArtifacts {
        tasks: Vec::new(),
        footprints: Arc::clone(&footprints),
    };
    let rows = analyzed_range(scn, built)
        .map(|i| {
            let p = &built.programs[i];
            let (core, thread) = built.placement[i];
            let prior_task = prior.and_then(|c| c.tasks.get(i)).and_then(Option::as_ref);
            let result = match scn.mode {
                ModeSpec::Solo => engine.analyze_prior(p, core, thread, &Solo, prior_task),
                ModeSpec::Isolated => engine.analyze_prior(p, core, thread, &Isolated, prior_task),
                ModeSpec::Joint => {
                    let refs: Vec<&Footprint> = footprints
                        .iter()
                        .enumerate()
                        .filter(|&(j, _)| j != i)
                        .filter_map(|(_, fp)| fp.as_ref())
                        .collect();
                    engine.analyze_prior(p, core, thread, &JointRefs(&refs), prior_task)
                }
                _ => unreachable!("static modes route through analyze_static"),
            };
            let (outcome, art) = match result {
                Ok((report, art)) => (
                    Ok(TaskBound {
                        wcet: report.wcet,
                        report: Some(report),
                    }),
                    Some(art),
                ),
                Err(e) => (Err(e.to_string()), None),
            };
            artifacts.tasks.push(art);
            TaskRow {
                task: p.name().to_string(),
                core,
                thread,
                mode: scn.mode.label(),
                outcome,
            }
        })
        .collect();
    (rows, artifacts)
}

/// Statically-controlled analysis (`static-ctrl` / lock modes) of every
/// task, with machine-derived [`StaticParams`].
pub(crate) fn analyze_static(
    scn: &Scenario,
    built: &BuiltScenario,
    ctx: &SolveContext,
    fix: &FixpointSink,
) -> Vec<TaskRow> {
    analyzed_range(scn, built)
        .map(|i| {
            let p = &built.programs[i];
            let (core, thread) = built.placement[i];
            let wcet = StaticParams::from_machine(&built.machine, core, thread)
                .and_then(|params| match scn.mode {
                    ModeSpec::StaticCtrl => wcet_unlocked(p, &params, Some(ctx), Some(fix)),
                    ModeSpec::StaticLock { ways } => {
                        if params.l2.is_none() {
                            return Err(missing_l2(scn));
                        }
                        wcet_static_lock(p, &params, ways, Some(ctx), Some(fix)).map(|(w, _)| w)
                    }
                    ModeSpec::DynamicLock { ways } => {
                        if params.l2.is_none() {
                            return Err(missing_l2(scn));
                        }
                        wcet_dynamic_lock(p, &params, ways, Some(ctx), Some(fix)).map(|(w, _)| w)
                    }
                    _ => unreachable!("engine modes route through analyze_engine_incremental"),
                })
                .map_err(|e| e.to_string());
            TaskRow {
                task: p.name().to_string(),
                core,
                thread,
                mode: scn.mode.label(),
                outcome: wcet.map(|wcet| TaskBound { wcet, report: None }),
            }
        })
        .collect()
}

fn missing_l2(scn: &Scenario) -> wcet_core::AnalysisError {
    wcet_core::AnalysisError::Unanalysable(format!(
        "{} needs an L2 (cell has l2 = none)",
        scn.mode.label()
    ))
}

/// Replays the cell on the simulator, or records why it cannot be.
pub(crate) fn validate_cell(
    built: &BuiltScenario,
    outcome: &mut CellOutcome,
    sim_skip: &mut SkipStats,
) {
    if outcome.scenario.mode.is_lock_mode() {
        outcome.validation_skipped = Some(
            "lock contents are an analysis assumption the simulated machine does not load"
                .to_string(),
        );
        return;
    }
    // One watched slot per analysed row; every task is loaded regardless
    // (non-analysed tasks are pure interference sources).
    let watched: Vec<(usize, usize, u64)> = match outcome
        .rows
        .iter()
        .map(|r| r.outcome.as_ref().map(|b| (r.core, r.thread, b.wcet)))
        .collect::<Result<_, _>>()
    {
        Ok(w) => w,
        Err(e) => {
            outcome.validation_skipped = Some(format!("unbounded row: {e}"));
            return;
        }
    };
    let loads: Vec<(usize, usize, Program)> = built
        .placement
        .iter()
        .zip(&built.programs)
        .map(|(&(core, thread), p)| (core, thread, p.clone()))
        .collect();
    match observe_all(
        &built.machine,
        loads,
        &watched,
        outcome.scenario.cycle_limit,
    ) {
        Ok(run) => {
            sim_skip.absorb(&run.skip);
            let all_sound = run.observations.iter().all(Observation::sound);
            outcome.validation = Some(CellValidation {
                observations: run.observations,
                all_sound,
            });
        }
        Err(e) => outcome.validation_skipped = Some(format!("simulation failed: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use crate::scenario::spec::{parse_matrix, ScenarioMatrix};
    use crate::scenario::stream::{run_campaign, CampaignOptions, CampaignRun};

    /// A materialized run: one worker, every cell kept in expansion
    /// order, each one validated when asked.
    fn collect(m: &ScenarioMatrix, validate: bool) -> CampaignRun {
        run_campaign(
            m,
            &CampaignOptions {
                threads: 1,
                keep_cells: true,
                sample_one_in: u64::from(validate),
                ..CampaignOptions::default()
            },
        )
    }

    #[test]
    fn duplicate_cells_are_dropped_by_fingerprint() {
        // `l2 = none` makes the geometry irrelevant, so both l2_geom
        // values collapse to the same machine — one cell survives.
        let m = parse_matrix(
            "name = dup\nl2_geom = [64x4x32@4, 128x4x32@4]\nl2 = none\ntasks = fir:2x4\n",
        )
        .expect("parses");
        assert_eq!(m.num_cells(), 2);
        let run = collect(&m, false);
        assert_eq!(run.cells.len(), 1);
        assert_eq!(run.duplicates, 1);
    }

    #[test]
    fn unplaceable_cells_fail_independently() {
        let m = parse_matrix("name = tight\ncores = 1\ntasks = [\"fir:2x4 crc:16\", fir:2x4]\n")
            .expect("parses");
        let run = collect(&m, true);
        assert_eq!(run.cells.len(), 2);
        assert!(run.cells[0]
            .error
            .as_ref()
            .expect("unplaceable")
            .contains("unplaceable"));
        assert!(run.cells[1].error.is_none());
        assert!(
            run.cells[1]
                .validation
                .as_ref()
                .expect("validated")
                .all_sound
        );
    }

    #[test]
    fn smt_overflow_placement_works() {
        // 3 tasks on 2 cores need a second hardware thread on core 0.
        let m =
            parse_matrix("name = smt\ncores = 2\nsmt = 2\ntasks = \"fir:2x4 crc:16 bsort:4\"\n")
                .expect("parses");
        let run = collect(&m, true);
        let cell = &run.cells[0];
        assert!(cell.error.is_none(), "{:?}", cell.error);
        let placements: Vec<(usize, usize)> =
            cell.rows.iter().map(|r| (r.core, r.thread)).collect();
        assert_eq!(placements, vec![(0, 0), (1, 0), (0, 1)]);
        assert!(cell.all_bounded());
        assert!(cell.validation.as_ref().expect("validated").all_sound);
    }

    #[test]
    fn victim_mode_bounds_only_task_zero_and_still_validates() {
        let m = parse_matrix(
            "name = v\ncores = 2\nmode = joint\nanalyze = victim\n\
             tasks = \"fir:2x4 crc:16\"\n",
        )
        .expect("parses");
        let run = collect(&m, true);
        let cell = &run.cells[0];
        assert_eq!(cell.rows.len(), 1, "victim mode bounds one task");
        assert_eq!(cell.rows[0].task, "fir2x4");
        let v = cell.validation.as_ref().expect("validated");
        assert_eq!(v.observations.len(), 1);
        assert!(v.all_sound);
        // The victim's joint bound equals the all-tasks run's first row:
        // analyze=victim changes what is *bounded*, never the bound.
        let m_all = parse_matrix("name = v\ncores = 2\nmode = joint\ntasks = \"fir:2x4 crc:16\"\n")
            .expect("parses");
        let run_all = collect(&m_all, false);
        assert_eq!(
            cell.rows[0].outcome.as_ref().expect("bounded").wcet,
            run_all.cells[0].rows[0]
                .outcome
                .as_ref()
                .expect("bounded")
                .wcet
        );
    }

    #[test]
    fn oversubscribed_locked_layout_stays_sound() {
        // The locked-union regression: two tasks each locking 2 ways of a
        // tiny 2-way L2 over-commit every set; the analysis must mirror
        // the machine's first-come lock rule, not assume the whole union.
        let m = parse_matrix(
            "name = lockfull\ncores = 2\nl2_geom = 4x2x32@4\nl2 = locked:2\n\
             mode = isolated\ntasks = \"spath:2x200 spath:2x200\"\n",
        )
        .expect("parses");
        let run = collect(&m, true);
        let cell = &run.cells[0];
        assert!(cell.error.is_none(), "{:?}", cell.error);
        let v = cell.validation.as_ref().expect("validated");
        assert!(
            v.all_sound,
            "over-committed locked layout broke soundness: {:?}",
            v.observations
        );
    }

    #[test]
    fn tdma_table_owner_out_of_range_fails_the_cell() {
        let m = parse_matrix("name = t\ncores = 2\narbiter = tdma-table:2@8\ntasks = fir:2x4\n")
            .expect("parses");
        let run = collect(&m, false);
        assert!(run.cells[0]
            .error
            .as_ref()
            .expect("bad owner must fail the cell, not panic")
            .contains("out of range"));
    }

    #[test]
    fn lock_modes_are_analysis_only() {
        let m = parse_matrix(
            "name = lock\nl2_geom = 64x4x32@4\nmode = static-lock:2\ntasks = bsort:8\n",
        )
        .expect("parses");
        let run = collect(&m, true);
        let cell = &run.cells[0];
        assert!(cell.all_bounded());
        assert!(cell.validation.is_none());
        assert!(cell
            .validation_skipped
            .as_ref()
            .expect("skipped")
            .contains("analysis"));
    }
}
