//! Schema guard over the checked-in `BENCH_results.json`: the perf-trend
//! step diffs fresh runs against this document, so a malformed or
//! silently-regressed baseline would make every future comparison render
//! `—` instead of a delta. This test pins the members the trend tooling
//! keys on, and that every effort-counter block decodes with the shared
//! [`Counters`] codec — it is about *shape*, not timing values, so it is
//! stable on any machine.

use wcet_bench::counters::Counters;
use wcet_bench::json::Json;
use wcet_core::MemoStats;
use wcet_ilp::SolverStats;
use wcet_ir::fixpoint::FixpointStats;
use wcet_sim::machine::SkipStats;

fn checked_in_results() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_results.json");
    let text = std::fs::read_to_string(path).expect("BENCH_results.json is checked in");
    Json::parse(&text).expect("BENCH_results.json parses")
}

#[test]
fn results_schema_is_current_and_campaign_throughput_parses() {
    let doc = checked_in_results();
    let schema = doc
        .get("schema")
        .and_then(Json::as_u64)
        .expect("document carries a schema number");
    assert!(schema >= 14, "schema regressed below 14: {schema}");

    // Schema 9's suite-level wall clock.
    let total_ms = doc
        .get("total_ms")
        .and_then(Json::as_f64)
        .expect("schema 9 documents carry total_ms");
    assert!(total_ms > 0.0, "total_ms must be positive: {total_ms}");

    // The trend step's campaign headline number must exist and parse.
    let cells_per_sec = doc
        .get_path(&["campaign", "cold", "cells_per_sec"])
        .and_then(Json::as_f64)
        .expect("campaign.cold.cells_per_sec exists and parses");
    assert!(
        cells_per_sec > 0.0,
        "campaign cold throughput must be positive: {cells_per_sec}"
    );

    // And the serving pass headline.
    let req_per_sec = doc
        .get_path(&["serve", "req_per_sec"])
        .and_then(Json::as_f64)
        .expect("serve.req_per_sec exists and parses");
    assert!(req_per_sec > 0.0);
}

#[test]
fn load_block_carries_schema10_members_in_shape() {
    let doc = checked_in_results();
    let block = doc.get("load").expect("schema 10 documents carry `load`");

    // Shape, not timing: percentiles must be positive and ordered (the
    // log2 histogram can only widen upward), throughput must be real,
    // and the byte-identity verdict is a hard pass/fail, not a number.
    let f = |key: &str| {
        block
            .get(key)
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("load.{key} exists and parses"))
    };
    let p50 = f("p50_ms");
    let p99 = f("p99_ms");
    assert!(p50 > 0.0, "p50 must be positive: {p50}");
    assert!(p99 >= p50, "p99 {p99} must dominate p50 {p50}");
    assert!(f("throughput_rps") > 0.0);
    assert_eq!(
        block.get("identical_bounds"),
        Some(&Json::from(true)),
        "the checked-in load pass must have served byte-identical bounds"
    );
    // Counters vary with machine timing but must exist and parse.
    for key in ["requests", "completed", "shed", "retries", "connections"] {
        assert!(
            block.get(key).and_then(Json::as_u64).is_some(),
            "load.{key} exists and parses as u64"
        );
    }
}

/// Decodes the counter block at `path` into `C`, or names the path
/// that failed.
fn decode<C: Counters>(doc: &Json, path: &[&str]) -> C {
    doc.get_path(path)
        .and_then(C::from_json)
        .unwrap_or_else(|| panic!("{} is not a full counter block", path.join(".")))
}

#[test]
fn fixpoint_blocks_carry_schema9_kernel_counters() {
    let doc = checked_in_results();
    let exps = doc
        .get("experiments")
        .and_then(Json::as_arr)
        .expect("experiments array");
    assert_eq!(exps.len(), 13, "the suite has 13 experiments");
    let mut analysed = 0usize;
    for e in exps {
        let id = e.get("id").and_then(Json::as_str).unwrap_or("?");
        // Schema 11: every experiment runs in-process, so every one
        // carries rows and all three effort blocks — schema 12: each
        // a full counter block.
        assert!(e.get("driver").is_none(), "{id} carries a `driver`");
        assert!(
            e.get("rows")
                .and_then(Json::as_arr)
                .is_some_and(|rows| !rows.is_empty()),
            "{id} has no rows"
        );
        decode::<SolverStats>(e, &["solver"]);
        decode::<SkipStats>(e, &["sim_skip"]);
        let fp = decode::<FixpointStats>(e, &["fixpoint"]);
        if fp.evaluated > 0 {
            analysed += 1;
            assert!(
                fp.kernel_words > 0,
                "an analysis that ran must have pushed words through the kernels ({id})"
            );
        }
    }
    assert!(analysed > 0, "no experiment ran a cache analysis");
}

#[test]
fn every_counter_block_decodes() {
    let doc = checked_in_results();
    decode::<SolverStats>(&doc, &["batch_vs_sequential", "solver"]);
    decode::<FixpointStats>(&doc, &["batch_vs_sequential", "fixpoint"]);
    decode::<SolverStats>(&doc, &["solver_warm_vs_cold", "warm"]);
    for at in [
        &["scenarios"][..],
        &["campaign", "cold"],
        &["campaign", "warm"],
        &["campaign", "resume", "interrupted"],
        &["campaign", "resume", "resumed"],
        &["campaign", "resume", "reference"],
    ] {
        // Schema 13: each is one `run_json` document.
        let path = |block| [at, &[block]].concat();
        decode::<MemoStats>(&doc, &path("memo"));
        decode::<SolverStats>(&doc, &path("solver"));
        decode::<FixpointStats>(&doc, &path("fixpoint"));
        decode::<SkipStats>(&doc, &path("sim_skip"));
    }
    decode::<MemoStats>(&doc, &["serve", "memo_total"]);
}
