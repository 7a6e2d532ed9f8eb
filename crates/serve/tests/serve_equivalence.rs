//! The differential battery: bounds served through a real socket are
//! byte-identical to the in-process matrix runner.
//!
//! 1. every cell of the checked-in example matrix, submitted through a
//!    live server, answers exactly what a cold in-process run computes —
//!    same cells, same fingerprints, same per-task bounds;
//! 2. resubmitting rides the hot memo: hit counters strictly increase
//!    and the bounds do not move;
//! 3. (proptest) the same identity holds on random small matrices.

use proptest::prelude::*;
use wcet_bench::scenario::{parse_matrix, run_campaign, CampaignOptions};
use wcet_serve::{CellBounds, Client, Response, ServerConfig};

const EXAMPLE: &str = include_str!("../../../scenarios/example.scn");

/// What the in-process runner would put on the wire for this spec.
fn in_process_cells(spec: &str) -> (Vec<CellBounds>, usize) {
    let matrix = parse_matrix(spec).expect("spec parses");
    let run = run_campaign(
        &matrix,
        &CampaignOptions {
            threads: 1,
            keep_cells: true,
            ..CampaignOptions::default()
        },
    );
    (
        run.cells.iter().map(CellBounds::of).collect(),
        run.duplicates,
    )
}

fn expect_bounds(response: Response) -> wcet_serve::BoundsResponse {
    match response {
        Response::Bounds(b) => b,
        other => panic!("expected a bounds response, got {other:?}"),
    }
}

#[test]
fn example_matrix_served_identical_to_in_process() {
    let (reference, duplicates) = in_process_cells(EXAMPLE);
    let handle = wcet_serve::start(&ServerConfig::default()).expect("server starts");
    let mut client = Client::connect(handle.addr()).expect("connects");

    let served = expect_bounds(client.submit_matrix(EXAMPLE).expect("answers"));
    assert_eq!(
        served.cells, reference,
        "served bounds must be byte-identical to the in-process run"
    );
    assert!(
        served.cells.iter().all(|c| c.error.is_none()),
        "every example cell is sound and must serve without error"
    );
    assert_eq!(served.duplicates as usize, duplicates);
    assert_eq!(served.disk_hits, 0, "no disk memo was configured");

    drop(client);
    handle.stop();
}

#[test]
fn resubmission_is_served_from_hot_memos_with_unchanged_bounds() {
    let handle = wcet_serve::start(&ServerConfig::default()).expect("server starts");
    let mut client = Client::connect(handle.addr()).expect("connects");

    let cold = expect_bounds(client.submit_matrix(EXAMPLE).expect("answers"));
    let hot = expect_bounds(client.submit_matrix(EXAMPLE).expect("answers"));

    assert_eq!(hot.cells, cold.cells, "hot bounds must not move");
    // Strictly increasing hit counters: the second pass found every
    // bound resident, so its cumulative totals exceed the first pass's.
    assert!(
        hot.stats.memo_total.hits() > cold.stats.memo_total.hits(),
        "hot hits {} must exceed cold hits {}",
        hot.stats.memo_total.hits(),
        cold.stats.memo_total.hits()
    );
    // And the per-request delta view agrees: the hot pass answered
    // every unique cell row straight from the bound table.
    let unique_rows: u64 = hot.cells.iter().map(|c| c.rows.len() as u64).sum();
    assert_eq!(
        hot.stats.memo.bound_hits, unique_rows,
        "every hot row must come from the bound memo"
    );
    assert_eq!(hot.stats.memo.bound_misses, 0, "nothing recomputes hot");
    assert_eq!(
        hot.stats.solver_cold_solves, 0,
        "a fully-hot pass never reaches the solver"
    );

    drop(client);
    handle.stop();
}

const ARBS: [&str; 3] = ["rr", "tdma:10", "wheel:8"];
const L2S: [&str; 5] = ["shared", "partitioned", "locked:2", "bypass", "none"];
const MODES: [&str; 4] = ["isolated", "joint", "static-ctrl", "solo"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random small matrices: socket and in-process answers coincide.
    #[test]
    fn random_matrices_served_identical_to_in_process(
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
        let (reference, duplicates) = in_process_cells(&spec);
        let handle = wcet_serve::start(&ServerConfig::default()).expect("server starts");
        let mut client = Client::connect(handle.addr()).expect("connects");
        let served = expect_bounds(client.submit_matrix(&spec).expect("answers"));
        prop_assert_eq!(served.cells, reference);
        prop_assert_eq!(served.duplicates as usize, duplicates);
        drop(client);
        handle.stop();
    }
}
