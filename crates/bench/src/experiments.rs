//! In-process experiments on the [`wcet_core::AnalysisEngine`] API.
//!
//! Each function here is the body of one `exp*` binary, ported from
//! per-call [`wcet_core::Analyzer`] use to the batch engine: it prints
//! the same tables the binary always printed **and** returns its
//! measurements as structured [`WcetRow`]s, so `run_all` can execute it
//! in-process, time it, and emit `BENCH_results.json` without scraping
//! stdout. Experiments not yet ported stay subprocess-driven.

use std::sync::Arc;

use std::collections::BTreeMap;

use wcet_arbiter::{ArbiterKind, RoundRobin, Slot, Tdma};
use wcet_cache::config::CacheConfig;
use wcet_cache::multilevel::{analyze_hierarchy, HierarchyConfig};
use wcet_cache::partition::{policy_partition, AllocationPolicy, PartitionPlan};
use wcet_core::analyzer::AnalysisError;
use wcet_core::engine::{AnalysisEngine, Job, SolverStats};
use wcet_core::mode::{Isolated, JointRefs, Solo};
use wcet_core::report::Table;
use wcet_core::static_ctrl::{offset_state_sizes, tdma_offset_aware_wcet, StaticParams};
use wcet_core::validate::{run_machine_watched, Observation};
use wcet_core::SolveContext;
use wcet_ir::fixpoint::FixpointStats;
use wcet_ir::synth::{
    self, bsort, crc, matmul, pointer_chase_stride, random_program, single_path, twin_diamonds,
    Placement, RandomParams,
};
use wcet_ir::Program;
use wcet_pipeline::cost::{block_costs, CoreMode, CostInput};
use wcet_pipeline::smt::SmtPolicy;
use wcet_pipeline::timing::{MemTimings, PipelineConfig};
use wcet_sched::{lifetime_fixpoint, Task, TaskId, TaskSet};
use wcet_sim::config::{CoreKind, MachineConfig};
use wcet_sim::machine::SkipStats;

use crate::scenario::{parse_matrix, run_campaign, CampaignOptions, CellOutcome};
use crate::{bully, l2_bound_machine, l2_bound_victim, machine, suite};

/// One machine-readable measurement: a task analysed under a mode within
/// a named scenario of an experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WcetRow {
    /// Scenario label within the experiment (e.g. `"E02a k=3"`).
    pub scenario: String,
    /// Task name.
    pub task: String,
    /// Analysis mode label.
    pub mode: String,
    /// The WCET bound in cycles.
    pub wcet: u64,
}

/// The structured outcome of one in-process experiment.
#[derive(Debug, Clone)]
pub struct ExperimentRun {
    /// Binary-style experiment id (e.g. `"exp01_singlecore"`).
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// Per-scenario measurements.
    pub rows: Vec<WcetRow>,
    /// ILP-solver effort summed over every engine the experiment ran
    /// (warm-start hits, pivots, phase-1 skips) — lands in
    /// `BENCH_results.json` so the warm-start payoff is tracked per run.
    pub solver: SolverStats,
    /// Worklist-fixpoint effort summed over every cache analysis the
    /// experiment computed (schema 5: blocks evaluated vs the
    /// naive-sweep equivalent).
    pub fixpoint: FixpointStats,
    /// Event-skipping effort summed over the experiment's simulator
    /// replays (schema 5).
    pub sim_skip: SkipStats,
}

/// Sums the solver counters of several engines.
fn solver_totals<'a>(engines: impl IntoIterator<Item = &'a AnalysisEngine>) -> SolverStats {
    let mut acc = SolverStats::default();
    for e in engines {
        acc.absorb(&e.solver_stats());
    }
    acc
}

/// Sums the fixpoint counters of several engines.
fn fixpoint_totals<'a>(engines: impl IntoIterator<Item = &'a AnalysisEngine>) -> FixpointStats {
    let mut acc = FixpointStats::default();
    for e in engines {
        acc.absorb(&e.fixpoint_stats());
    }
    acc
}

/// [`observe`] that also banks the replay's event-skipping counters.
fn observe_skip(
    config: &wcet_sim::config::MachineConfig,
    task: (usize, usize, Program),
    corunners: Vec<(usize, usize, Program)>,
    bound: u64,
    cycle_limit: u64,
    skip: &mut SkipStats,
) -> Observation {
    let (core, thread, program) = task;
    let mut loads = vec![(core, thread, program)];
    loads.extend(corunners);
    let run = run_machine_watched(config, loads, &[(core, thread)], cycle_limit).expect("runs");
    skip.absorb(&run.skip);
    Observation {
        observed: run.cycles(core, thread),
        bound,
    }
}

fn row(
    scenario: impl Into<String>,
    task: impl Into<String>,
    mode: impl Into<String>,
    wcet: u64,
) -> WcetRow {
    WcetRow {
        scenario: scenario.into(),
        task: task.into(),
        mode: mode.into(),
        wcet,
    }
}

/// A labelled co-runner mix: `(label, [(core, thread, program)])`.
type Mix = (&'static str, Vec<(usize, usize, Program)>);

/// An in-process experiment entry point.
pub type Runner = fn() -> ExperimentRun;

/// E01 (paper §2.1): solo WCET on a predictable single core, validated
/// against simulation. The whole suite is analysed in one engine batch.
///
/// # Panics
///
/// Panics if analysis or simulation fails, or a bound is unsound.
#[must_use]
pub fn exp01() -> ExperimentRun {
    let m = machine(1);
    let engine = AnalysisEngine::new(m.clone());
    let tasks = suite(0);
    let jobs: Vec<Job<'_>> = tasks.iter().map(|p| Job::new(p, 0, &Solo)).collect();
    let reports = engine.analyze_batch(&jobs);

    let mut t = Table::new(
        "E01 — solo WCET vs simulated time, single predictable core",
        &[
            "task",
            "WCET bound",
            "observed",
            "bound/observed",
            "L1I (AH,AM,PS,NC)",
        ],
    );
    let mut rows = Vec::new();
    let mut skip = SkipStats::default();
    for (p, rep) in tasks.iter().zip(reports) {
        let rep = rep.expect("analyses");
        let obs = observe_skip(
            &m,
            (0, 0, p.clone()),
            vec![],
            rep.wcet,
            500_000_000,
            &mut skip,
        );
        assert!(obs.sound(), "{}: solo bound violated alone", p.name());
        t.row([
            p.name().to_string(),
            rep.wcet.to_string(),
            obs.observed.to_string(),
            format!("{:.2}×", obs.ratio()),
            format!("{:?}", rep.l1i_hist),
        ]);
        rows.push(row("single-core", p.name(), &rep.mode, rep.wcet));
    }
    t.note("bound/observed > 1 is required (soundness); the gap is analysis pessimism,");
    t.note("dominated by range-indexed loads classified NOT_CLASSIFIED (matmul, chase).");
    println!("{t}");
    ExperimentRun {
        id: "exp01_singlecore",
        title: "solo WCET, single predictable core",
        rows,
        solver: solver_totals([&engine]),
        fixpoint: fixpoint_totals([&engine]),
        sim_skip: skip,
    }
}

/// The E02 task-set axis: the victim plus `k` matmul bullies per value
/// (task *i* lands on core *i*, exactly the old per-experiment layout).
fn e02_task_axis(ks: &[usize]) -> String {
    ks.iter()
        .map(|&k| {
            let mut tasks = vec!["switchy:16x50x20"];
            tasks.extend((0..k).map(|_| "matmul:16"));
            format!("\"{}\"", tasks.join(" "))
        })
        .collect::<Vec<_>>()
        .join(",\n  ")
}

/// The E02 machine/mode preamble over a given L2 geometry. Only the
/// victim (task 0) is bounded — the bullies are pure interference
/// sources, exactly the pre-matrix experiment's shape and cost.
fn e02_spec(name: &str, l2_geom: &str, ks: &[usize]) -> String {
    format!(
        "name = {name}\ncores = 8\nl1i = 8x1x16@1\nl1d = 2x1x32@1\n\
         l2_geom = {l2_geom}\nmode = joint\nanalyze = victim\ntasks = [\n  {}\n]\n",
        e02_task_axis(ks)
    )
}

/// The victim's bound within one E02 cell (task 0 by construction).
fn e02_victim(cell: &CellOutcome) -> (u64, String, String) {
    let r = &cell.rows[0];
    let b = r.outcome.as_ref().expect("analyses");
    let hist = b
        .report
        .as_ref()
        .and_then(|rep| rep.l2_hist)
        .map(|h| format!("{h:?}"))
        .unwrap_or_default();
    (b.wcet, r.task.clone(), hist)
}

/// E02 (paper §4.1, Yan & Zhang; Li et al.): joint analysis of a shared
/// L2 — WCET inflates with co-runner count; direct-mapped degrades
/// catastrophically. Since PR 3 the k-sweep is a declarative scenario
/// matrix (the co-runner count is the `tasks` axis), run through the
/// scenario runner with one shared warm-start context.
///
/// # Panics
///
/// Panics if the embedded specs fail to parse or analysis fails.
#[must_use]
pub fn exp02() -> ExperimentRun {
    let ctx = Arc::new(SolveContext::new());
    let opts = materialized(&ctx);
    let mut rows = Vec::new();

    // E02a: 4-way shared L2, k = 0..=7 co-runners.
    let spec_a = e02_spec("E02a", "64x4x32@4", &[0, 1, 2, 3, 4, 5, 6, 7]);
    let run_a = run_campaign(&parse_matrix(&spec_a).expect("spec parses"), &opts);
    let mut t = Table::new(
        "E02a — victim WCET vs co-runner count, 4-way shared L2 (64 sets)",
        &["co-runners", "WCET", "vs alone", "L2 (AH,AM,PS,NC)"],
    );
    let alone = e02_victim(&run_a.cells[0]).0;
    for (k, cell) in run_a.cells.iter().enumerate() {
        let (wcet, task, hist) = e02_victim(cell);
        t.row([
            k.to_string(),
            wcet.to_string(),
            format!("{:.2}×", wcet as f64 / alone as f64),
            hist,
        ]);
        rows.push(row(format!("E02a k={k}"), task, "joint", wcet));
    }
    t.note("inflation saturates once interference shifts reach the associativity —");
    t.note("beyond that, every L2 guarantee in a conflicted set is already gone.");
    println!("{t}");

    // E02b: direct-mapped variant (Yan & Zhang's setting): 1 way, same
    // capacity.
    let ks_dm = [0usize, 1, 2, 4, 7];
    let spec_b = e02_spec("E02b", "256x1x32@4", &ks_dm);
    let run_b = run_campaign(&parse_matrix(&spec_b).expect("spec parses"), &opts);
    let mut t2 = Table::new(
        "E02b — same, direct-mapped shared L2 (256 sets × 1 way)",
        &["co-runners", "WCET", "vs alone"],
    );
    let alone_dm = e02_victim(&run_b.cells[0]).0;
    for (&k, cell) in ks_dm.iter().zip(&run_b.cells) {
        let (wcet, task, _) = e02_victim(cell);
        t2.row([
            k.to_string(),
            wcet.to_string(),
            format!("{:.2}×", wcet as f64 / alone_dm as f64),
        ]);
        rows.push(row(format!("E02b k={k}"), task, "joint", wcet));
    }
    t2.note("direct-mapped: a single conflicting line kills the whole set (ways = 1),");
    t2.note("so degradation hits its ceiling with the very first co-runner.");
    println!("{t2}");
    let mut fixpoint = run_a.fixpoint;
    fixpoint.absorb(&run_b.fixpoint);
    ExperimentRun {
        id: "exp02_shared_l2",
        title: "joint analysis of a shared L2",
        rows,
        solver: run_b.solver,
        fixpoint,
        sim_skip: SkipStats::default(),
    }
}

/// The options of an experiment's matrix runs: one worker, every cell
/// kept in expansion order, all runs sharing `ctx`. Each run's
/// [`crate::scenario::CampaignRun::solver`] is then the shared context's
/// cumulative view, so the *last* run carries the whole solver bill
/// (summing the runs would double-count).
fn materialized(ctx: &Arc<SolveContext>) -> CampaignOptions {
    CampaignOptions {
        threads: 1,
        keep_cells: true,
        ctx: Some(Arc::clone(ctx)),
        ..CampaignOptions::default()
    }
}

/// E03 (paper §4.1, Li et al. \[41\]): the iterative WCET ⇄ schedule
/// fixpoint removes interference between tasks whose lifetime windows
/// cannot overlap — staggered releases and precedence chains win back
/// the all-overlap pessimism. Ported in-process onto the engine: the
/// fixpoint re-analyses the same (task, interference-set) pairs across
/// schedules, which the engine's memo tables serve instead of
/// recomputing (bit-identical to the per-call `Analyzer` path).
///
/// # Panics
///
/// Panics if analysis fails.
#[must_use]
pub fn exp03() -> ExperimentRun {
    let m = l2_bound_machine(4);
    let engine = AnalysisEngine::new(m);
    let victim = l2_bound_victim(0);
    let bullies: Vec<_> = (1..4u32).map(|i| matmul(16, Placement::slot(i))).collect();
    let programs: Vec<_> = std::iter::once(&victim).chain(bullies.iter()).collect();
    // One footprint per task (victim included: bullies see it too).
    let fps: Vec<_> = programs
        .iter()
        .enumerate()
        .map(|(core, p)| engine.l2_footprint(p, core).expect("analyses"))
        .collect();

    let analyze = |task: TaskId, interfering: &std::collections::BTreeSet<TaskId>| {
        let idx = task.0 as usize;
        let refs: Vec<_> = interfering.iter().map(|o| &fps[o.0 as usize]).collect();
        engine
            .analyze(programs[idx], idx, 0, &JointRefs(&refs))
            .expect("analyses")
            .wcet
    };

    let mut t = Table::new(
        "E03 — lifetime refinement (Li et al.): victim WCET under three schedules",
        &["schedule", "victim interferers", "victim WCET", "rounds"],
    );
    // Honest lower bounds for the lifetime windows: the BCET analysis
    // (best-case costs + minimum loop iterations).
    let bcets: Vec<u64> = programs
        .iter()
        .enumerate()
        .map(|(core, p)| engine.analyzer().bcet(p, core, 0).expect("analyses"))
        .collect();

    let mk_ts = |releases: [u64; 3]| {
        let mut tasks = vec![Task {
            name: victim.name().into(),
            core: 0,
            priority: 1,
            release: 0,
            predecessors: vec![],
        }];
        for (i, b) in bullies.iter().enumerate() {
            tasks.push(Task {
                name: b.name().into(),
                core: i + 1,
                priority: 1,
                release: releases[i],
                predecessors: vec![],
            });
        }
        TaskSet::new(tasks).expect("valid")
    };
    let bcet = |ts: &TaskSet| -> BTreeMap<TaskId, u64> {
        ts.ids().map(|t| (t, bcets[t.0 as usize])).collect()
    };

    let mut rows = Vec::new();
    for (label, releases) in [
        ("all released at 0 (full overlap)", [0u64, 0, 0]),
        ("one bully staggered past victim", [0, 10_000_000, 0]),
        (
            "all bullies staggered",
            [10_000_000, 10_000_000, 10_000_000],
        ),
    ] {
        let ts = mk_ts(releases);
        let res = lifetime_fixpoint(&ts, &bcet(&ts), analyze, 8);
        t.row([
            label.to_string(),
            res.interference[&TaskId(0)].len().to_string(),
            res.wcet[&TaskId(0)].to_string(),
            res.iterations.to_string(),
        ]);
        rows.push(row(
            format!("E03 {label}"),
            victim.name(),
            "joint",
            res.wcet[&TaskId(0)],
        ));
    }
    t.note("fewer feasible overlaps ⇒ smaller interference set ⇒ tighter WCET;");
    t.note("the iteration is monotone and converges in a couple of rounds.");
    println!("{t}");
    ExperimentRun {
        id: "exp03_lifetime",
        title: "lifetime refinement",
        rows,
        solver: solver_totals([&engine]),
        fixpoint: fixpoint_totals([&engine]),
        sim_skip: SkipStats::default(),
    }
}

/// E09 (paper §5.3): the round-robin bound `D = N·L − 1`. The per-task
/// WCET scales linearly in the core count, and the bound is near-tight:
/// adversarial traffic drives observed waits close to it. Ported
/// in-process: one engine per core count, all sharing one warm-start
/// context (the victim's flow system is machine-independent), and the
/// adversarial replays stop once the watched victim retires.
///
/// # Panics
///
/// Panics if analysis/simulation fails or a bound is violated.
#[must_use]
pub fn exp09() -> ExperimentRun {
    let transfer = 8u64;
    let ctx = Arc::new(SolveContext::new());
    let mut t = Table::new(
        "E09 — round-robin bus: bound D = N·L − 1 vs observed worst wait",
        &[
            "cores N",
            "bound N·L−1",
            "max observed wait",
            "victim WCET",
            "WCET vs N=1",
        ],
    );
    let mut rows = Vec::new();
    let mut base_wcet = 0u64;
    let mut skip = SkipStats::default();
    let mut fixpoint = FixpointStats::default();
    for n in [1usize, 2, 4, 6, 8] {
        let mut m = MachineConfig::symmetric(n);
        // Fast memory so the bus saturates (see E12's rationale).
        m.memory = wcet_arbiter::MemoryKind::Predictable { latency: 8 };
        let engine = AnalysisEngine::new(m.clone()).with_solve_context(Arc::clone(&ctx));
        let victim = pointer_chase_stride(4096, 300, 32, Placement::slot(0));
        let victim_name = victim.name().to_string();
        let rep = engine.analyze(&victim, 0, 0, &Isolated).expect("analyses");
        if n == 1 {
            base_wcet = rep.wcet;
        }
        let mut loads = vec![(0, 0, victim)];
        for c in 1..n {
            loads.push((c, 0, bully(c as u32)));
        }
        let run = run_machine_watched(&m, loads, &[(0, 0)], 500_000_000).expect("runs");
        skip.absorb(&run.skip);
        let max_wait = run.bus.per_core_max_wait[0];
        let bound = RoundRobin::bound(n as u64, transfer);
        assert!(max_wait <= bound, "observed wait exceeds the bound");
        t.row([
            n.to_string(),
            bound.to_string(),
            max_wait.to_string(),
            rep.wcet.to_string(),
            format!("{:.2}×", rep.wcet as f64 / base_wcet as f64),
        ]);
        rows.push(row(format!("E09 N={n}"), victim_name, &rep.mode, rep.wcet));
        fixpoint.absorb(&engine.fixpoint_stats());
    }
    t.note("the WCET of a memory-bound task grows ≈ linearly with N (each transaction");
    t.note("charged N·L−1); observed waits approach the bound under saturation.");
    println!("{t}");
    ExperimentRun {
        id: "exp09_rr_bound",
        title: "round-robin bound tightness",
        rows,
        solver: SolverStats {
            warm_hits: ctx.stats().warm_hits,
            cold_solves: ctx.stats().cold_solves,
            totals: ctx.totals(),
        },
        fixpoint,
        sim_skip: skip,
    }
}

/// The E05 kernel axis: the standard suite plus `extra`.
fn e05_tasks(extra: &str) -> String {
    [
        "matmul:8",
        "fir:6x24",
        "crc:48",
        "bsort:10",
        "switchy:8x40x8",
        "spath:6x40",
        "chase:64x200",
        extra,
    ]
    .join(", ")
}

/// The per-cell bound of a single-task E05 cell.
fn e05_wcet(cell: &CellOutcome) -> (u64, String) {
    let r = &cell.rows[0];
    (r.outcome.as_ref().expect("analyses").wcet, r.task.clone())
}

/// E05 (paper §4.2, Suhendra & Mitra): locking × partitioning design
/// space. Expected shape: (i) core-based partitioning beats task-based
/// when tasks outnumber cores; (ii) dynamic locking beats static locking
/// when loop nests have different hot sets. Since PR 3 both sweeps are
/// declarative scenario matrices (the effective cache is the `l2_geom`
/// axis, the lock mode is the `mode` axis) sharing one warm-start
/// context.
///
/// # Panics
///
/// Panics if the embedded specs fail to parse or analysis fails.
#[must_use]
pub fn exp05() -> ExperimentRun {
    let base_l2 = CacheConfig::new(64, 8, 32, 4).expect("valid");
    let (n_cores, n_tasks) = (2, 8);
    let (_, core_eff) =
        policy_partition(&base_l2, AllocationPolicy::CoreBased, n_cores, n_tasks).expect("fits");
    let (_, task_eff) =
        policy_partition(&base_l2, AllocationPolicy::TaskBased, n_cores, n_tasks).expect("fits");
    let ctx = Arc::new(SolveContext::new());
    let opts = materialized(&ctx);
    let mut rows = Vec::new();
    let preamble = "cores = 2\nl1i = 8x1x16@1\nl1d = 2x1x32@1\n";

    // (i) Core-based vs task-based partitioning: the per-task effective
    // cache is the whole core share (core-based, tasks run sequentially
    // on their core) vs a 1/n_tasks sliver (task-based).
    let spec_a = format!(
        "name = E05a\n{preamble}l2_geom = [{}, {}]\nmode = static-ctrl\ntasks = [{}]\n",
        core_eff.spec(),
        task_eff.spec(),
        e05_tasks("switchy:32x40x40"),
    );
    let run_a = run_campaign(&parse_matrix(&spec_a).expect("spec parses"), &opts);
    let policy_total = run_a.cells.len() / 2;
    let mut t1 = Table::new(
        "E05a — allocation policy (8 tasks on 2 cores, 8-way L2): per-task WCET",
        &[
            "task",
            "core-based (4 ways)",
            "task-based (1 way)",
            "task-based penalty",
        ],
    );
    let mut worse = 0usize;
    for i in 0..policy_total {
        let (wc, task) = e05_wcet(&run_a.cells[i]);
        let (wt, _) = e05_wcet(&run_a.cells[policy_total + i]);
        if wt >= wc {
            worse += 1;
        }
        t1.row([
            task.clone(),
            wc.to_string(),
            wt.to_string(),
            format!("{:.2}×", wt as f64 / wc as f64),
        ]);
        rows.push(row("E05a core-based", task.clone(), "static-ctrl", wc));
        rows.push(row("E05a task-based", task, "static-ctrl", wt));
    }
    t1.note(format!(
        "core-based ≥ task-based on {worse}/{policy_total} tasks; the code-heavy task \
         (switchy32) is crushed by the 1-way sliver (Suhendra & Mitra's finding (i))"
    ));
    println!("{t1}");

    // (ii) Locking modes within a core partition.
    let spec_b = format!(
        "name = E05b\n{preamble}l2_geom = {}\n\
         mode = [static-ctrl, static-lock:3, dynamic-lock:3]\ntasks = [{}]\n",
        core_eff.spec(),
        e05_tasks("twophase:512x8"),
    );
    let run_b = run_campaign(&parse_matrix(&spec_b).expect("spec parses"), &opts);
    let total_tasks = run_b.cells.len() / 3;
    let mut t2 = Table::new(
        "E05b — locking mode within a 4-way core partition: per-task WCET",
        &[
            "task",
            "no lock",
            "static lock (3 ways)",
            "dynamic lock (3 ways)",
            "best",
        ],
    );
    let mut dyn_wins = 0usize;
    for i in 0..total_tasks {
        let (none, task) = e05_wcet(&run_b.cells[i]);
        let (stat, _) = e05_wcet(&run_b.cells[total_tasks + i]);
        let (dynm, _) = e05_wcet(&run_b.cells[2 * total_tasks + i]);
        if dynm <= stat {
            dyn_wins += 1;
        }
        let best = if dynm <= stat && dynm <= none {
            "dynamic"
        } else if stat <= none {
            "static"
        } else {
            "none"
        };
        t2.row([
            task.clone(),
            none.to_string(),
            stat.to_string(),
            dynm.to_string(),
            best.to_string(),
        ]);
        rows.push(row("E05b no lock", task.clone(), "static-ctrl", none));
        rows.push(row("E05b static lock", task.clone(), "static-lock:3", stat));
        rows.push(row("E05b dynamic lock", task, "dynamic-lock:3", dynm));
    }
    t2.note(format!(
        "dynamic ≤ static on {dyn_wins}/{total_tasks} tasks; the multi-phase workload \
         (twophase) is where per-region contents pay (finding (ii))"
    ));
    println!("{t2}");
    let s = ctx.stats();
    println!(
        "solver context: {} warm-started solves, {} cold (phase 1 runs once per task)",
        s.warm_hits, s.cold_solves
    );
    let mut fixpoint = run_a.fixpoint;
    fixpoint.absorb(&run_b.fixpoint);
    ExperimentRun {
        id: "exp05_partition_lock",
        title: "locking × partitioning design space",
        rows,
        solver: run_b.solver,
        fixpoint,
        sim_skip: SkipStats::default(),
    }
}

/// The E08 blind-bound parameters, shared with the offset-aware walk.
fn e08_params() -> StaticParams {
    StaticParams {
        l1i: CacheConfig::new(32, 2, 16, 1).expect("valid"),
        l1d: CacheConfig::new(4, 1, 32, 1).expect("valid"),
        l2: None,
        timings: MemTimings {
            l1_hit: 1,
            l2_hit: None,
            bus_transfer: 8,
            mem_latency: 30,
        },
        bus_wait_bound: Some(0),
        pipeline: PipelineConfig::default(),
        mode: CoreMode::Single,
    }
}

/// E08 (paper §5.2, Rosén et al. + Rochange's critique): TDMA bus
/// scheduling. Offset-precise analysis is exact for single-path
/// programs; on multi-path programs the offset-state sets explode,
/// forcing the offset-blind bound — which degrades with slot length.
/// Since PR 3 the blind-bound sweep is a declarative scenario matrix
/// (the slot length is the `arbiter` axis); the offset-aware column and
/// the state-explosion measurement stay bespoke.
///
/// # Panics
///
/// Panics if the embedded spec fails to parse, analysis/simulation
/// fails, or the soundness spot-check breaks.
#[must_use]
pub fn exp08() -> ExperimentRun {
    let n = 4usize;
    let transfer = 8u64;
    let task = single_path(6, 32, Placement::slot(0));
    let slot_lens = [transfer, 2 * transfer, 4 * transfer, 8 * transfer];
    let mut rows = Vec::new();

    // (a) Offset-aware vs offset-blind per slot length (single-path
    // task): the blind bound comes from the matrix (the machine-derived
    // bus bound of a TDMA cell *is* the offset-blind wait).
    let arbiter_axis: Vec<String> = slot_lens.iter().map(|s| format!("tdma:{s}")).collect();
    let spec = format!(
        "name = E08a\ncores = 4\nl1i = 32x2x16@1\nl1d = 4x1x32@1\nl2 = none\n\
         arbiter = [{}]\nmode = static-ctrl\ntasks = spath:6x32\n",
        arbiter_axis.join(", ")
    );
    let run = run_campaign(
        &parse_matrix(&spec).expect("spec parses"),
        &materialized(&Arc::new(SolveContext::new())),
    );
    let mut t1 = Table::new(
        "E08a — single-path task on a 4-core TDMA bus: bound vs slot length",
        &[
            "slot len",
            "blind wait bound",
            "blind WCET",
            "offset-aware WCET",
            "aware/blind",
        ],
    );
    for (&slot_len, cell) in slot_lens.iter().zip(&run.cells) {
        let slots: Vec<Slot> = (0..n)
            .map(|owner| Slot {
                owner,
                len: slot_len,
            })
            .collect();
        let tdma = Tdma::new(n, slots).expect("valid");
        let blind_wait = tdma.worst_delay(0, transfer).expect("fits");
        let blind = cell.rows[0].outcome.as_ref().expect("analyses").wcet;
        let aware = tdma_offset_aware_wcet(&task, &e08_params(), &tdma, 0).expect("analyses");
        t1.row([
            slot_len.to_string(),
            blind_wait.to_string(),
            blind.to_string(),
            aware.to_string(),
            format!("{:.2}×", aware as f64 / blind as f64),
        ]);
        rows.push(row(
            format!("E08a slot={slot_len} blind"),
            task.name(),
            "static-ctrl",
            blind,
        ));
        rows.push(row(
            format!("E08a slot={slot_len} aware"),
            task.name(),
            "tdma-offset-aware",
            aware,
        ));
    }
    t1.note("the offset-blind bound grows with slot length even though the bandwidth");
    t1.note("share is constant — Rochange's §5.2 objection to coarse TDMA slots.");
    println!("{t1}");

    let mut fixpoint = run.fixpoint;
    let mut skip = SkipStats::default();

    // (b) Offset-state explosion: single-path vs multi-path programs.
    let mut t2 = Table::new(
        "E08b — per-block offset-state sets (period 64): path multiplicity",
        &[
            "program",
            "paths",
            "max offsets/block",
            "blocks with >1 offset",
        ],
    );
    let period = 64u64;
    for (p, label) in [
        (single_path(6, 32, Placement::slot(0)), "single-path"),
        (crc(24, Placement::slot(0)), "branchy, equal-cost arms"),
        (bsort(10, Placement::slot(0)), "branchy, unequal arms"),
        (
            twin_diamonds(8, Placement::slot(0)),
            "two sequential diamonds",
        ),
        (
            random_program(3, RandomParams::default(), Placement::slot(0)),
            "random structured",
        ),
    ] {
        let pr = e08_params();
        let h = analyze_hierarchy(
            &p,
            &HierarchyConfig {
                l1i: pr.l1i,
                l1d: pr.l1d,
                l2: None,
            },
        );
        fixpoint.absorb(&h.fixpoint_stats());
        let input = CostInput {
            pipeline: pr.pipeline,
            timings: pr.timings,
            bus_wait_bound: Some(0),
            mode: CoreMode::Single,
        };
        let costs = block_costs(&p, &h, &input).expect("bounded");
        let sizes = offset_state_sizes(&p, &costs, period);
        let max = sizes.values().max().copied().unwrap_or(0);
        let multi = sizes.values().filter(|&&s| s > 1).count();
        t2.row([
            p.name().to_string(),
            label.to_string(),
            max.to_string(),
            format!("{multi}/{}", sizes.len()),
        ]);
    }
    t2.note("single-path code keeps singleton offset sets (Rosén's analysis applies);");
    t2.note("each branch multiplies the offsets a precise analysis must track.");
    println!("{t2}");

    // (c) Soundness spot-check of the blind bound on the simulator.
    let m = {
        let mut m = machine(n);
        m.bus.arbiter = ArbiterKind::TdmaEqual {
            slot_len: transfer + 2,
        };
        m
    };
    // Through the engine (identical to the sequential Analyzer by the
    // engine≡analyzer invariant) so the spot-check's cache analyses are
    // counted in the experiment's fixpoint block.
    let engine_c = AnalysisEngine::new(m.clone());
    let rep = engine_c.analyze(&task, 0, 0, &Isolated).expect("analyses");
    let obs = observe_skip(
        &m,
        (0, 0, task.clone()),
        vec![(1, 0, bully(1)), (2, 0, bully(2)), (3, 0, bully(3))],
        rep.wcet,
        500_000_000,
        &mut skip,
    );
    assert!(obs.sound());
    println!(
        "E08c — blind TDMA bound {} vs observed-with-bullies {} ({:.2}× margin): sound\n",
        obs.bound,
        obs.observed,
        obs.ratio()
    );
    rows.push(row("E08c spot-check", task.name(), "isolated", rep.wcet));
    fixpoint.absorb(&engine_c.fixpoint_stats());
    ExperimentRun {
        id: "exp08_tdma",
        title: "TDMA bus scheduling",
        rows,
        solver: run.solver,
        fixpoint,
        sim_skip: skip,
    }
}

/// E11 (paper §5.3, CarCore; PRET): full task isolation across three
/// slot-isolating machines, bounds from the engine, timing from the
/// simulator.
///
/// # Panics
///
/// Panics if analysis/simulation fails or isolation is violated.
#[must_use]
pub fn exp11() -> ExperimentRun {
    let mut rows = Vec::new();
    let mut skip = SkipStats::default();

    // (a) Multicore isolation: partitioned L2 + TDMA bus.
    let mut mc = MachineConfig::symmetric(4);
    {
        let l2 = mc.l2.as_mut().expect("has L2");
        l2.partition = PartitionPlan::even_columns(&l2.cache, 4).expect("fits");
    }
    mc.bus.arbiter = ArbiterKind::TdmaEqual {
        slot_len: mc.bus.transfer,
    };
    let engine = AnalysisEngine::new(mc.clone());
    let victim = synth::fir(6, 24, Placement::slot(0));
    let rep = engine.analyze(&victim, 0, 0, &Isolated).expect("analyses");
    rows.push(row(
        "E11a multicore TDMA",
        victim.name(),
        &rep.mode,
        rep.wcet,
    ));
    let bound = rep.wcet;

    let mut t = Table::new(
        "E11a — multicore isolation (partitioned L2 + TDMA): victim timing per mix",
        &["co-runner mix", "observed", "bound", "identical to alone"],
    );
    let mixes: Vec<Mix> = vec![
        ("alone", vec![]),
        ("one bully", vec![(1, 0, bully(1))]),
        (
            "three bullies",
            vec![(1, 0, bully(1)), (2, 0, bully(2)), (3, 0, bully(3))],
        ),
    ];
    let mut alone_cycles = None;
    for (label, others) in mixes {
        let mut loads = vec![(0, 0, victim.clone())];
        loads.extend(others);
        let replay = run_machine_watched(&mc, loads, &[(0, 0)], 500_000_000).expect("runs");
        skip.absorb(&replay.skip);
        let cycles = replay.cycles(0, 0);
        let identical = *alone_cycles.get_or_insert(cycles) == cycles;
        assert!(cycles <= bound);
        assert!(identical, "slot-isolated machine must be cycle-exact");
        t.row([
            label.to_string(),
            cycles.to_string(),
            bound.to_string(),
            "yes".into(),
        ]);
    }
    println!("{t}");

    // (b) CarCore-style SMT: HRT thread bounded, best-effort not.
    let mut smt = MachineConfig::symmetric(1);
    smt.cores[0].kind = CoreKind::Smt {
        threads: 4,
        policy: SmtPolicy::PredictableRoundRobin,
        partitioned_l1: true,
    };
    smt.bus.arbiter = ArbiterKind::FixedPriority { hrt: 0 };
    let engine2 = AnalysisEngine::new(smt.clone());
    let hrt = synth::crc(32, Placement::slot(0));
    let hrt_rep = engine2.analyze(&hrt, 0, 0, &Isolated).expect("analyses");
    rows.push(row(
        "E11b CarCore SMT hrt",
        hrt.name(),
        &hrt_rep.mode,
        hrt_rep.wcet,
    ));
    let hrt_bound = hrt_rep.wcet;
    let be = matches!(
        engine2.analyze(&synth::crc(16, Placement::slot(1)), 0, 1, &Isolated),
        Err(AnalysisError::Unbounded)
    );
    let mut loads = vec![(0, 0, hrt.clone())];
    for th in 1..4usize {
        loads.push((0, th, synth::bsort(8, Placement::slot(th as u32))));
    }
    let smt_replay = run_machine_watched(&smt, loads, &[(0, 0)], 500_000_000).expect("runs");
    skip.absorb(&smt_replay.skip);
    let observed = smt_replay.cycles(0, 0);
    assert!(observed <= hrt_bound);
    println!(
        "E11b — CarCore-style SMT: HRT bound {hrt_bound}, observed-with-siblings {observed} \
         (sound), best-effort thread unbounded: {be}\n"
    );

    // (c) PRET: 6-thread interleave + wheel, no shared L2 — repeatable.
    let mut pret = MachineConfig::symmetric(1);
    pret.cores[0].kind = CoreKind::Smt {
        threads: 6,
        policy: SmtPolicy::PredictableRoundRobin,
        partitioned_l1: true,
    };
    pret.bus.arbiter = ArbiterKind::MemoryWheel {
        window: pret.bus.transfer,
    };
    pret.l2 = None;
    let engine3 = AnalysisEngine::new(pret.clone());
    let th0 = synth::fir(4, 12, Placement::slot(0));
    let pret_rep = engine3.analyze(&th0, 0, 0, &Isolated).expect("analyses");
    rows.push(row(
        "E11c PRET wheel",
        th0.name(),
        &pret_rep.mode,
        pret_rep.wcet,
    ));
    let pret_bound = pret_rep.wcet;
    let alone_replay =
        run_machine_watched(&pret, vec![(0, 0, th0.clone())], &[(0, 0)], 500_000_000)
            .expect("runs");
    skip.absorb(&alone_replay.skip);
    let alone = alone_replay.cycles(0, 0);
    let mut full = vec![(0, 0, th0.clone())];
    for th in 1..6usize {
        full.push((
            0,
            th,
            synth::pointer_chase(32, 100, Placement::slot(th as u32)),
        ));
    }
    let busy_replay = run_machine_watched(&pret, full, &[(0, 0)], 500_000_000).expect("runs");
    skip.absorb(&busy_replay.skip);
    let busy = busy_replay.cycles(0, 0);
    assert_eq!(alone, busy, "PRET must be repeatable");
    assert!(busy <= pret_bound);
    println!(
        "E11c — PRET wheel: thread-0 timing {alone} cycles alone and {busy} under a full \
         house (bit-identical), bound {pret_bound} holds\n"
    );
    ExperimentRun {
        id: "exp11_isolation",
        title: "full task isolation",
        rows,
        solver: solver_totals([&engine, &engine2, &engine3]),
        fixpoint: fixpoint_totals([&engine, &engine2, &engine3]),
        sim_skip: skip,
    }
}

/// E12 (paper §2.2/§6): the unsafe solo assumption, measured — solo and
/// isolation bounds come from one engine (shared task fingerprint and L1
/// work in the memo).
///
/// # Panics
///
/// Panics if analysis/simulation fails or the demonstration breaks.
#[must_use]
pub fn exp12() -> ExperimentRun {
    let mut m = MachineConfig::symmetric(4);
    m.memory = wcet_arbiter::MemoryKind::Predictable { latency: 8 };
    let engine = AnalysisEngine::new(m.clone());
    // Memory-bound victim: ring larger than the L2, every hop over the bus.
    let victim = pointer_chase_stride(4096, 400, 32, Placement::slot(0));
    let reports =
        engine.analyze_batch(&[Job::new(&victim, 0, &Solo), Job::new(&victim, 0, &Isolated)]);
    let solo = reports[0].as_ref().expect("analyses").wcet;
    let iso = reports[1].as_ref().expect("analyses").wcet;
    let rows = vec![
        row("E12 shared bus", victim.name(), "solo", solo),
        row("E12 shared bus", victim.name(), "isolated", iso),
    ];

    let mut t = Table::new(
        "E12 — the unsafe solo assumption on shared hardware",
        &["scenario", "bound", "observed", "sound?"],
    );
    let mut skip = SkipStats::default();
    let alone = observe_skip(
        &m,
        (0, 0, victim.clone()),
        vec![],
        solo,
        500_000_000,
        &mut skip,
    );
    t.row([
        "solo bound, run alone".into(),
        solo.to_string(),
        alone.observed.to_string(),
        if alone.sound() {
            "yes".into()
        } else {
            "NO".to_string()
        },
    ]);
    let hostile = vec![(1, 0, bully(1)), (2, 0, bully(2)), (3, 0, bully(3))];
    let contended = observe_skip(
        &m,
        (0, 0, victim.clone()),
        hostile.clone(),
        solo,
        500_000_000,
        &mut skip,
    );
    t.row([
        "solo bound, 3 bus hogs".into(),
        solo.to_string(),
        contended.observed.to_string(),
        if contended.sound() {
            "yes".into()
        } else {
            "NO — bound violated".to_string()
        },
    ]);
    let iso_obs = observe_skip(&m, (0, 0, victim), hostile, iso, 500_000_000, &mut skip);
    t.row([
        "isolation bound, 3 bus hogs".into(),
        iso.to_string(),
        iso_obs.observed.to_string(),
        if iso_obs.sound() {
            "yes".into()
        } else {
            "NO".to_string()
        },
    ]);
    assert!(alone.sound());
    assert!(!contended.sound(), "the demonstration requires a violation");
    assert!(iso_obs.sound());
    t.note("the same binary, the same hardware: only the analysis assumption differs.");
    t.note("isolation charges N·L−1 per transaction and survives; solo does not.");
    println!("{t}");
    ExperimentRun {
        id: "exp12_unsafe_solo",
        title: "the unsafe solo assumption",
        rows,
        solver: solver_totals([&engine]),
        fixpoint: fixpoint_totals([&engine]),
        sim_skip: skip,
    }
}

/// The experiments `run_all` executes in-process on the engine API
/// (id → runner). The rest still run as subprocesses.
pub const IN_PROCESS: &[(&str, Runner)] = &[
    ("exp01_singlecore", exp01),
    ("exp02_shared_l2", exp02),
    ("exp03_lifetime", exp03),
    ("exp05_partition_lock", exp05),
    ("exp08_tdma", exp08),
    ("exp09_rr_bound", exp09),
    ("exp11_isolation", exp11),
    ("exp12_unsafe_solo", exp12),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_process_registry_is_consistent() {
        for (id, _) in IN_PROCESS {
            assert!(id.starts_with("exp"), "bad id {id}");
        }
    }

    #[test]
    fn exp02_k_sweep_warm_starts_the_solver() {
        // The acceptance bar for the warm-start layers: the interference
        // k-sweep must actually hit the basis cache, not just run.
        let run = exp02();
        assert!(
            run.solver.warm_hits > 0,
            "E02 k-sweep produced no warm-start hits: {:?}",
            run.solver
        );
        assert!(run.solver.totals.phase1_skips > 0);
    }

    #[test]
    fn exp12_rows_order_solo_below_isolated() {
        let run = exp12();
        assert_eq!(run.rows.len(), 2);
        assert!(
            run.rows[0].wcet <= run.rows[1].wcet,
            "solo must not exceed isolated"
        );
    }
}
