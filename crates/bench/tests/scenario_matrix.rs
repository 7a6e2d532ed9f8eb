//! Scenario-layer guarantees:
//!
//! 1. the checked-in example matrix expands to ≥ 24 cells, runs through
//!    the engine + simulator validation, and every cell is sound;
//! 2. (proptest) random small matrices produce cells that are (a) sound
//!    whenever validated, (b) deduplicated like a lexicographic
//!    expansion, and (c) byte-identical to running the same cells
//!    through the per-experiment code paths (`Analyzer` / `static_ctrl`
//!    direct calls, cold-solved — the shared oracle in `common`);
//! 3. the matrix-ported experiments (E02/E05/E08) reproduce the WCETs of
//!    their pre-matrix implementations exactly.

mod common;

use proptest::prelude::*;
use wcet_bench::experiments;
use wcet_bench::scenario::{
    parse_matrix, run_campaign, CampaignOptions, CampaignRun, ScenarioMatrix,
};
use wcet_bench::{l2_bound_machine, l2_bound_victim};
use wcet_core::engine::AnalysisEngine;
use wcet_core::mode::{Footprint, JointRefs};
use wcet_core::static_ctrl::{wcet_unlocked, StaticParams};
use wcet_ir::synth::{matmul, Placement};

/// A materialized run with every cell validated on the simulator.
fn validated_run(matrix: &ScenarioMatrix) -> CampaignRun {
    run_campaign(
        matrix,
        &CampaignOptions {
            threads: 1,
            keep_cells: true,
            sample_one_in: 1,
            ..CampaignOptions::default()
        },
    )
}

#[test]
fn example_matrix_expands_validates_and_is_sound() {
    let matrix = parse_matrix(include_str!("../../../scenarios/example.scn")).expect("parses");
    assert!(
        matrix.num_cells() >= 24,
        "the example matrix must expand to at least 24 cells, got {}",
        matrix.num_cells()
    );
    let run = validated_run(&matrix);
    assert_eq!(
        run.validated,
        run.cells.len(),
        "every example cell must be validated"
    );
    assert_eq!(run.sound, run.validated, "every example cell must be sound");
    assert!(run.violations.is_empty());
    // The sweep's objective-only neighbours actually warm-started.
    assert!(run.solver.warm_hits > 0);
}

#[test]
fn solo_mode_breaks_under_sharing_through_the_matrix() {
    // E12 through the scenario layer: a memory-bound victim analysed
    // `solo` among three bus hogs on a fast memory. The cell must
    // validate UNSOUND — and must NOT count as a soundness violation,
    // because multi-task solo is the paper's unsafe reference line.
    let spec = "name = unsafe-solo\ncores = 4\nmem_latency = 8\nmode = solo\n\
                tasks = \"chase:4096x400x32 chase:4096x4000x32 chase:4096x4000x32 \
                chase:4096x4000x32\"\n";
    let run = validated_run(&parse_matrix(spec).expect("parses"));
    let cell = &run.cells[0];
    let v = cell.validation.as_ref().expect("validated");
    assert!(
        !v.observations[0].sound(),
        "the solo bound must break: {:?}",
        v.observations[0]
    );
    assert!(!v.all_sound);
    assert!(run.violations.is_empty());
}

const ARBS: [&str; 3] = ["rr", "tdma:10", "wheel:8"];
const L2S: [&str; 5] = ["shared", "partitioned", "locked:2", "bypass", "none"];
const MODES: [&str; 4] = ["isolated", "joint", "static-ctrl", "solo"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random small matrices: every validated cell is sound, and every
    /// row is byte-identical to the per-experiment code path.
    #[test]
    fn random_matrices_sound_and_equal_direct(
        seed in 0u64..500,
        cores in 1usize..=2,
        arb in 0usize..ARBS.len(),
        l2a in 0usize..L2S.len(),
        l2b in 0usize..L2S.len(),
        mode_idx in 0usize..MODES.len(),
    ) {
        let mode = MODES[mode_idx];
        // Multi-task solo is deliberately unsound; keep solo single-task.
        let tasks = if mode == "solo" {
            format!("rand:{seed}")
        } else {
            format!("\"rand:{seed} crc:16\"")
        };
        let spec = format!(
            "name = prop\ncores = {cores}\narbiter = {}\nl2_geom = 64x4x32@4\n\
             l2 = [{}, {}]\nmode = {mode}\ntasks = {tasks}\n",
            ARBS[arb], L2S[l2a], L2S[l2b],
        );
        let matrix = parse_matrix(&spec).expect("spec parses");
        let run = validated_run(&matrix);
        prop_assert!(run.cells.len() + run.duplicates == matrix.num_cells());
        let names: Vec<String> = run.cells.iter().map(|c| c.scenario.name.clone()).collect();
        prop_assert_eq!(names, common::lex_first_names(&matrix));
        for cell in &run.cells {
            // (a) Soundness of every validated cell (no multi-task solo
            // here by construction).
            if let Some(v) = &cell.validation {
                prop_assert!(
                    v.all_sound,
                    "{} must be sound: {:?}",
                    cell.scenario.name,
                    v.observations
                );
            }
            // (c) Byte-identity with the per-experiment code paths.
            common::assert_cell_matches_oracle(cell);
        }
    }
}

#[test]
fn exp02_matrix_rows_equal_the_direct_engine_sweep() {
    // The pre-matrix exp02 body, replayed verbatim: one engine per L2
    // shape, JointRefs over growing bully-footprint prefixes.
    let run = experiments::exp02();
    let n = 8;
    let victim = l2_bound_victim(0);
    let bullies: Vec<_> = (1..n as u32)
        .map(|i| matmul(16, Placement::slot(i)))
        .collect();

    let direct_sweep = |machine: wcet_sim::config::MachineConfig, ks: &[usize]| -> Vec<u64> {
        let engine = AnalysisEngine::new(machine);
        let fps: Vec<Footprint> = bullies
            .iter()
            .enumerate()
            .map(|(i, b)| engine.l2_footprint(b, i + 1).expect("analyses"))
            .collect();
        ks.iter()
            .map(|&k| {
                let refs: Vec<&Footprint> = fps[..k].iter().collect();
                engine
                    .analyze(&victim, 0, 0, &JointRefs(&refs))
                    .expect("analyses")
                    .wcet
            })
            .collect()
    };

    let expected_a = direct_sweep(l2_bound_machine(n), &[0, 1, 2, 3, 4, 5, 6, 7]);
    let mut mdm = l2_bound_machine(n);
    mdm.l2.as_mut().expect("has L2").cache =
        wcet_cache::config::CacheConfig::new(256, 1, 32, 4).expect("valid");
    let expected_b = direct_sweep(mdm, &[0, 1, 2, 4, 7]);

    let got = |prefix: &str| -> Vec<u64> {
        run.rows
            .iter()
            .filter(|r| r.scenario.starts_with(prefix))
            .map(|r| r.wcet)
            .collect()
    };
    assert_eq!(got("E02a"), expected_a, "E02a diverged from the old path");
    assert_eq!(got("E02b"), expected_b, "E02b diverged from the old path");
}

#[test]
fn exp05_matrix_rows_equal_the_direct_static_sweep() {
    // The pre-matrix exp05 body, replayed verbatim: explicit
    // `StaticParams` per effective cache, cold static_ctrl solves.
    use wcet_cache::config::CacheConfig;
    use wcet_cache::partition::{policy_partition, AllocationPolicy};
    use wcet_core::static_ctrl::{wcet_dynamic_lock, wcet_static_lock};
    use wcet_ir::synth::{switchy, two_phase};
    use wcet_pipeline::cost::CoreMode;
    use wcet_pipeline::timing::{MemTimings, PipelineConfig};

    let params = |l2: CacheConfig| StaticParams {
        l1i: CacheConfig::new(8, 1, 16, 1).expect("valid"),
        l1d: CacheConfig::new(2, 1, 32, 1).expect("valid"),
        l2: Some(l2),
        timings: MemTimings {
            l1_hit: 1,
            l2_hit: Some(4),
            bus_transfer: 8,
            mem_latency: 30,
        },
        bus_wait_bound: Some(8 * 2 - 1),
        pipeline: PipelineConfig::default(),
        mode: CoreMode::Single,
    };
    let base_l2 = CacheConfig::new(64, 8, 32, 4).expect("valid");
    let (_, core_eff) =
        policy_partition(&base_l2, AllocationPolicy::CoreBased, 2, 8).expect("fits");
    let (_, task_eff) =
        policy_partition(&base_l2, AllocationPolicy::TaskBased, 2, 8).expect("fits");
    let run = experiments::exp05();
    let mut policy_tasks = wcet_bench::suite(0);
    policy_tasks.push(switchy(32, 40, 40, Placement::slot(0)));
    let row_wcets = |scenario: &str| -> Vec<u64> {
        run.rows
            .iter()
            .filter(|r| r.scenario == scenario)
            .map(|r| r.wcet)
            .collect()
    };
    let core_based = row_wcets("E05a core-based");
    let task_based = row_wcets("E05a task-based");
    assert_eq!(core_based.len(), policy_tasks.len());
    for (i, p) in policy_tasks.iter().enumerate() {
        let wc = wcet_unlocked(p, &params(core_eff), None, None).expect("analyses");
        let wt = wcet_unlocked(p, &params(task_eff), None, None).expect("analyses");
        assert_eq!(core_based[i], wc, "{}: core-based diverged", p.name());
        assert_eq!(task_based[i], wt, "{}: task-based diverged", p.name());
    }

    let mut lock_tasks = wcet_bench::suite(0);
    lock_tasks.push(two_phase(512, 8, Placement::slot(0)));
    let none = row_wcets("E05b no lock");
    let stat = row_wcets("E05b static lock");
    let dynm = row_wcets("E05b dynamic lock");
    for (i, p) in lock_tasks.iter().enumerate() {
        let pr = params(core_eff);
        assert_eq!(
            none[i],
            wcet_unlocked(p, &pr, None, None).expect("analyses")
        );
        assert_eq!(
            stat[i],
            wcet_static_lock(p, &pr, 3, None, None).expect("analyses").0,
            "{}: static lock diverged",
            p.name()
        );
        assert_eq!(
            dynm[i],
            wcet_dynamic_lock(p, &pr, 3, None, None)
                .expect("analyses")
                .0,
            "{}: dynamic lock diverged",
            p.name()
        );
    }
}

#[test]
fn exp08_blind_rows_equal_the_direct_unlocked_sweep() {
    // The pre-matrix exp08 part (a): explicit TDMA blind bounds into
    // cold `wcet_unlocked` solves.
    use wcet_arbiter::{Slot, Tdma};
    use wcet_cache::config::CacheConfig;
    use wcet_ir::synth::single_path;
    use wcet_pipeline::cost::CoreMode;
    use wcet_pipeline::timing::{MemTimings, PipelineConfig};

    let run = experiments::exp08();
    let task = single_path(6, 32, Placement::slot(0));
    let (n, transfer) = (4usize, 8u64);
    for slot_len in [8u64, 16, 32, 64] {
        let slots: Vec<Slot> = (0..n)
            .map(|owner| Slot {
                owner,
                len: slot_len,
            })
            .collect();
        let tdma = Tdma::new(n, slots).expect("valid");
        let blind_wait = tdma.worst_delay(0, transfer).expect("fits");
        let pr = StaticParams {
            l1i: CacheConfig::new(32, 2, 16, 1).expect("valid"),
            l1d: CacheConfig::new(4, 1, 32, 1).expect("valid"),
            l2: None,
            timings: MemTimings {
                l1_hit: 1,
                l2_hit: None,
                bus_transfer: 8,
                mem_latency: 30,
            },
            bus_wait_bound: Some(blind_wait),
            pipeline: PipelineConfig::default(),
            mode: CoreMode::Single,
        };
        let expected = wcet_unlocked(&task, &pr, None, None).expect("analyses");
        let got = run
            .rows
            .iter()
            .find(|r| r.scenario == format!("E08a slot={slot_len} blind"))
            .expect("has the blind row")
            .wcet;
        assert_eq!(got, expected, "slot {slot_len}: blind bound diverged");
    }
}
