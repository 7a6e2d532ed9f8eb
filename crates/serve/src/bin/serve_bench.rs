//! The `run_all` serving pass, as a standalone binary (the bench-side
//! driver cannot link this crate — the dependency points the other
//! way — so it spawns this and parses the one JSON line on stdout).
//!
//! What it measures: the checked-in example matrix analysed once
//! in-process as the reference, then submitted through a live server
//! several times — one cold request that fills the hot memo, the rest
//! riding it. Asserts every served response is byte-identical to the
//! in-process run, then prints throughput, the hot-request memo hit
//! rate, and the cumulative memo/solver view.
//!
//! Human-readable progress goes to stderr; stdout carries exactly one
//! line of JSON.

use std::process::ExitCode;
use std::time::Instant;

use wcet_bench::json::Json;
use wcet_bench::scenario::{parse_matrix, run_campaign, CampaignOptions};
use wcet_serve::{CellBounds, Client, Response, ServerConfig};

/// Total submissions: 1 cold + 5 hot.
const REQUESTS: usize = 6;

fn main() -> ExitCode {
    let spec = include_str!("../../../../scenarios/example.scn");
    let matrix = parse_matrix(spec).expect("example parses");
    let reference = run_campaign(
        &matrix,
        &CampaignOptions {
            threads: 1,
            keep_cells: true,
            ..CampaignOptions::default()
        },
    );
    let expected: Vec<CellBounds> = reference.cells.iter().map(CellBounds::of).collect();

    let handle = wcet_serve::start(&ServerConfig::default()).expect("server starts");
    let addr = handle.addr();

    let mut identical = true;
    let mut last = None;
    // The throughput clock starts when the server accepts its first
    // connection, not at daemon startup, so listener spin-up does not
    // dilute the steady-state req/s figure.
    let mut start: Option<Instant> = None;
    for _ in 0..REQUESTS {
        // A fresh connection per request, like independent clients.
        let mut client = Client::connect(addr).expect("connects");
        start.get_or_insert_with(Instant::now);
        match client.submit_matrix(spec) {
            Ok(Response::Bounds(b)) => {
                identical &= b.cells == expected;
                last = Some(b);
            }
            other => {
                eprintln!("serve_bench: submission failed: {other:?}");
                handle.stop();
                return ExitCode::FAILURE;
            }
        }
    }
    let wall = start.expect("at least one request ran").elapsed();
    let mut probe = Client::connect(addr).expect("connects");
    let cumulative = match probe.stats() {
        Ok(Response::Stats(s)) => s,
        other => {
            eprintln!("serve_bench: stats probe failed: {other:?}");
            handle.stop();
            return ExitCode::FAILURE;
        }
    };
    drop(probe);
    handle.stop();

    let last = last.expect("at least one response");
    // The final request is fully hot; its delta counters are the
    // steady-state serving profile.
    let hot = &last.stats.memo;
    let hot_lookups =
        hot.hits() + hot.hierarchy_misses + hot.l1_misses + hot.cost_misses + hot.bound_misses;
    #[allow(clippy::cast_precision_loss)] // report-only rates
    let hot_hit_rate = if hot_lookups == 0 {
        0.0
    } else {
        hot.hits() as f64 / hot_lookups as f64
    };
    #[allow(clippy::cast_precision_loss)]
    let req_per_sec = REQUESTS as f64 / wall.as_secs_f64().max(1e-9);
    let total = &last.stats.memo_total;

    eprintln!(
        "serving pass: {REQUESTS} submissions of `{}` ({} cells) in {:.2}s \
         ({req_per_sec:.1} req/s), hot hit rate {:.1}%, {} evictions, \
         bounds identical to in-process: {identical}",
        last.matrix,
        last.cells.len(),
        wall.as_secs_f64(),
        hot_hit_rate * 100.0,
        total.evictions(),
    );
    if !identical {
        eprintln!("serve_bench: served bounds diverged from the in-process run");
        return ExitCode::FAILURE;
    }

    let doc = Json::obj([
        ("requests", Json::from(REQUESTS)),
        ("cells", Json::from(last.cells.len())),
        ("wall_ms", Json::from(wall.as_secs_f64() * 1e3)),
        ("req_per_sec", Json::from(req_per_sec)),
        ("hot_hit_rate", Json::from(hot_hit_rate)),
        ("identical_bounds", Json::from(identical)),
        ("evictions", Json::from(total.evictions())),
        ("memo_entries", Json::from(cumulative.memo_entries)),
        (
            "memo_total",
            Json::obj([
                ("hits", Json::from(total.hits())),
                ("bound_hits", Json::from(total.bound_hits)),
                ("bound_misses", Json::from(total.bound_misses)),
                ("neighbor_hits", Json::from(total.neighbor_hits)),
            ]),
        ),
        (
            "solver",
            Json::obj([
                ("warm_hits", Json::from(cumulative.solver_warm_hits)),
                ("cold_solves", Json::from(cumulative.solver_cold_solves)),
            ]),
        ),
    ]);
    println!("{doc}");
    ExitCode::SUCCESS
}
