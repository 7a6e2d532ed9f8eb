//! Pin tests for the in-process experiment ports. `exp03`, `exp04`,
//! `exp09` and `exp10` must reproduce their per-call `Analyzer`
//! implementations byte for byte — and (for E09) the same observed bus
//! waits whether the adversarial replay runs to completion or stops at
//! the watched victim's retirement. `exp06`, `exp07` and `exp13` are
//! pinned to the tables their standalone binaries printed before the
//! port, and `exp12`'s rows and effort counters must equal a direct
//! engine run's, whatever the host's CPU count.

use std::collections::BTreeMap;

use wcet_arbiter::{ArbiterKind, RoundRobin};
use wcet_bench::experiments::{self, ExperimentRun};
use wcet_bench::{bully, l2_bound_machine, l2_bound_victim};
use wcet_cache::bypass::single_usage_lines;
use wcet_core::analyzer::Analyzer;
use wcet_core::engine::AnalysisEngine;
use wcet_core::mode::{AnalysisMode, Isolated, Solo};
use wcet_core::validate::{run_machine, run_machine_watched};
use wcet_ir::synth::{crc, matmul, pointer_chase_stride, single_path, twin_diamonds, Placement};
use wcet_sched::{lifetime_fixpoint, Task, TaskId, TaskSet};
use wcet_sim::config::MachineConfig;

fn wcets(run: &ExperimentRun) -> Vec<u64> {
    run.rows.iter().map(|r| r.wcet).collect()
}

/// The pre-port exp03 body, verbatim: per-call `Analyzer`, no engine
/// memo, no shared warm-start context.
fn exp03_direct() -> Vec<u64> {
    let m = l2_bound_machine(4);
    let an = Analyzer::new(m);
    let victim = l2_bound_victim(0);
    let bullies: Vec<_> = (1..4u32).map(|i| matmul(16, Placement::slot(i))).collect();
    let programs: Vec<_> = std::iter::once(&victim).chain(bullies.iter()).collect();
    let fps: Vec<_> = programs
        .iter()
        .enumerate()
        .map(|(core, p)| an.l2_footprint(p, core).expect("analyses"))
        .collect();
    let analyze = |task: TaskId, interfering: &std::collections::BTreeSet<TaskId>| {
        let idx = task.0 as usize;
        let refs: Vec<_> = interfering.iter().map(|o| &fps[o.0 as usize]).collect();
        an.wcet_joint(programs[idx], idx, 0, &refs)
            .expect("analyses")
            .wcet
    };
    let bcets: Vec<u64> = programs
        .iter()
        .enumerate()
        .map(|(core, p)| an.bcet(p, core, 0).expect("analyses"))
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
    [
        [0u64, 0, 0],
        [0, 10_000_000, 0],
        [10_000_000, 10_000_000, 10_000_000],
    ]
    .into_iter()
    .map(|releases| {
        let ts = mk_ts(releases);
        let bcet: BTreeMap<TaskId, u64> = ts.ids().map(|t| (t, bcets[t.0 as usize])).collect();
        let res = lifetime_fixpoint(&ts, &bcet, analyze, 8);
        res.wcet[&TaskId(0)]
    })
    .collect()
}

#[test]
fn exp03_rows_equal_the_direct_analyzer_fixpoint() {
    let run = experiments::exp03();
    let got: Vec<u64> = run.rows.iter().map(|r| r.wcet).collect();
    assert_eq!(got, exp03_direct(), "E03 diverged from the pre-port path");
    // The engine actually served the repeated (task, interference) pairs
    // from its warm-start layers rather than re-solving cold.
    assert!(run.solver.warm_hits > 0, "E03 fixpoint never warm-started");
}

#[test]
fn exp09_rows_equal_the_direct_analyzer_sweep() {
    let run = experiments::exp09();
    let expected: Vec<u64> = [1usize, 2, 4, 6, 8]
        .into_iter()
        .map(|n| {
            let mut m = MachineConfig::symmetric(n);
            m.memory = wcet_arbiter::MemoryKind::Predictable { latency: 8 };
            let an = Analyzer::new(m);
            let victim = pointer_chase_stride(4096, 300, 32, Placement::slot(0));
            an.wcet_isolated(&victim, 0, 0).expect("analyses").wcet
        })
        .collect();
    let got: Vec<u64> = run.rows.iter().map(|r| r.wcet).collect();
    assert_eq!(got, expected, "E09 diverged from the pre-port path");
}

#[test]
fn watched_replay_observes_exactly_what_a_full_run_does() {
    // The early-stopped adversarial replay (what the ported E09 prints)
    // must report the same victim completion cycle and the same per-core
    // max bus wait as the old run-to-completion — the tail past the
    // victim's retirement cannot reach back in time.
    for n in [2usize, 4, 8] {
        let mut m = MachineConfig::symmetric(n);
        m.memory = wcet_arbiter::MemoryKind::Predictable { latency: 8 };
        let victim = pointer_chase_stride(4096, 300, 32, Placement::slot(0));
        let mut loads = vec![(0, 0, victim)];
        for c in 1..n {
            loads.push((c, 0, bully(c as u32)));
        }
        let full = run_machine(&m, loads.clone(), 500_000_000).expect("runs");
        let watched = run_machine_watched(&m, loads, &[(0, 0)], 500_000_000).expect("runs");
        assert_eq!(full.cycles(0, 0), watched.cycles(0, 0));
        assert_eq!(
            full.bus.per_core_max_wait[0],
            watched.bus.per_core_max_wait[0]
        );
        let bound = RoundRobin::bound(n as u64, 8);
        assert!(watched.bus.per_core_max_wait[0] <= bound);
    }
}

#[test]
fn exp04_rows_equal_the_direct_analyzer_joint_bounds() {
    let m = l2_bound_machine(2);
    let l2cfg = m.l2.as_ref().expect("has L2").cache;
    let an = Analyzer::new(m);
    let victim = l2_bound_victim(0);
    let polluter = twin_diamonds(1500, Placement::slot(1));
    let plan = single_usage_lines(&polluter, &l2cfg);
    let full_fp = an.l2_footprint(&polluter, 1).expect("analyses");
    let mut bypassed_fp = full_fp.clone();
    for lines in bypassed_fp.values_mut() {
        lines.retain(|l| !plan.lines.contains(l));
    }
    let expected: Vec<u64> = [vec![], vec![&full_fp], vec![&bypassed_fp]]
        .iter()
        .map(|fps| an.wcet_joint(&victim, 0, 0, fps).expect("analyses").wcet)
        .collect();
    assert_eq!(wcets(&experiments::exp04()), expected, "E04 diverged");
    // Bypassing the single-usage lines removes the interference entirely.
    assert_eq!(expected[0], expected[2]);
    assert!(expected[1] > expected[0]);
}

#[test]
fn exp10_rows_equal_the_direct_analyzer_isolated_bounds() {
    let tasks = [
        pointer_chase_stride(4096, 300, 32, Placement::slot(0)),
        crc(48, Placement::slot(1)),
        single_path(6, 40, Placement::slot(2)),
        crc(24, Placement::slot(3)),
    ];
    let mk = |arbiter: ArbiterKind| {
        let mut m = MachineConfig::symmetric(4);
        m.memory = wcet_arbiter::MemoryKind::Predictable { latency: 8 };
        m.bus.arbiter = arbiter;
        Analyzer::new(m)
    };
    let rr = mk(ArbiterKind::RoundRobin);
    let mbba = mk(ArbiterKind::Mbba {
        weights: vec![5, 1, 1, 1],
        slot_len: 8,
    });
    // Rows interleave RR and MBBA per task, in task order.
    let expected: Vec<u64> = tasks
        .iter()
        .enumerate()
        .flat_map(|(core, p)| {
            [&rr, &mbba].map(|an| an.wcet_isolated(p, core, 0).expect("analyses").wcet)
        })
        .collect();
    assert_eq!(wcets(&experiments::exp10()), expected, "E10 diverged");
}

#[test]
fn exp06_rows_equal_the_pre_port_table() {
    let run = experiments::exp06();
    // (columnization, bankization) per task: only the column-strided
    // sweep separates the two partitionings.
    let expected = [
        ("matmul8", 89609, 89609),
        ("fir6x24", 24927, 24927),
        ("crc48", 8152, 8152),
        ("bsort10", 25108, 25108),
        ("switchy8x40", 5102, 5102),
        ("spath6x40", 2372, 2372),
        ("chase64x200", 15628, 15628),
        ("colsweep5x40", 15493, 2038),
    ];
    let got: Vec<(&str, u64, u64)> = run
        .rows
        .chunks(2)
        .map(|pair| (pair[0].task.as_str(), pair[0].wcet, pair[1].wcet))
        .collect();
    assert_eq!(got, expected);
    assert!(
        run.solver.warm_hits > 0,
        "the bankized solves never warm-started"
    );
    assert!(run.fixpoint.evaluated > 0);
}

#[test]
fn exp07_rows_equal_the_pre_port_joint_bounds() {
    let run = experiments::exp07();
    assert_eq!(wcets(&run), [548, 820, 1092, 1364]);
    assert!(run.fixpoint.evaluated > 0);
    assert!(run.sim_skip.fast_forwards > 0);
}

#[test]
fn exp13_rows_equal_the_pre_port_wcrts() {
    let run = experiments::exp13();
    // (general, dedicated) per slot length 8, 16, 32, 64.
    assert_eq!(
        wcets(&run),
        [5328, 4815, 7056, 4663, 10512, 4679, 17424, 4679]
    );
    assert_eq!(run.fixpoint.evaluated, 0, "E13 runs no cache analysis");
}

#[test]
fn exp12_effort_is_independent_of_the_cpu_count() {
    let run = experiments::exp12();
    let mut m = MachineConfig::symmetric(4);
    m.memory = wcet_arbiter::MemoryKind::Predictable { latency: 8 };
    let victim = pointer_chase_stride(4096, 400, 32, Placement::slot(0));
    let engine = AnalysisEngine::new(m);
    let expected: Vec<u64> = [&Solo as &dyn AnalysisMode, &Isolated]
        .into_iter()
        .map(|mode| engine.analyze(&victim, 0, 0, mode).expect("analyses").wcet)
        .collect();
    assert_eq!(wcets(&run), expected);
    assert_eq!(run.solver, engine.solver_stats());
    assert_eq!(run.fixpoint, engine.fixpoint_stats());
}
