//! Schema guard over the checked-in `BENCH_results.json`: the perf-trend
//! step diffs fresh runs against this document, so a malformed or
//! silently-regressed baseline would make every future comparison render
//! `—` instead of a delta. This test pins the members the trend tooling
//! keys on, and that every effort-counter block decodes with the shared
//! [`Counters`] codec — it is about *shape*, not timing values, so it is
//! stable on any machine.
//!
//! Beside it sits the **golden ledger**: every value of a freshly written
//! document must equal the checked-in one's, except the values listed as
//! volatile below. CI keeps the checked-in document before `run_all`
//! overwrites it and runs the ledger right after `run_all`:
//!
//! ```sh
//! cp BENCH_results.json /tmp/bench_baseline.json
//! cargo run --release -p wcet-serve --bin run_all
//! WCET_BENCH_BASELINE=/tmp/bench_baseline.json \
//!     cargo test -q -p wcet-bench --test results_schema golden_ledger -- --include-ignored
//! ```

use std::collections::BTreeSet;

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
    assert!(schema >= 16, "schema regressed below 16: {schema}");

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

/// Timing keys: wherever one of these names a leaf, its value is a
/// measurement of this run, not a result.
const TIMING_KEYS: &[&str] = &[
    "wall_ms",
    "total_ms",
    "cold_ms",
    "cells_per_sec",
    "req_per_sec",
    "throughput_rps",
    "p50_ms",
    "p95_ms",
    "p99_ms",
];

/// The campaign passes, which run one worker per CPU. Which worker
/// reaches a shared memo entry or solve key first decides hits against
/// misses and warm against cold solves, and with them the solver and
/// fixpoint work. (The serving pass submits one request at a time; the
/// load pass's volatile values are listed in [`VOLATILE_PATHS`].)
const PARALLEL_PASSES: &[&str] = &[
    "campaign.cold",
    "campaign.warm",
    "campaign.resume.interrupted",
    "campaign.resume.resumed",
    "campaign.resume.reference",
];

/// The counters of those passes that differ between two `run_all`s of
/// one tree, per block. The rest of each block (evictions, neighbour
/// hits, fallbacks, `max_trips`, `arena_bytes`) repeats exactly, on one
/// CPU as on several.
const PARALLEL_COUNTERS: &[(&str, &[&str])] = &[
    (
        "memo",
        &[
            "hierarchy_hits",
            "hierarchy_misses",
            "l1_hits",
            "l1_misses",
            "cost_hits",
            "cost_misses",
            "bound_hits",
            "bound_misses",
        ],
    ),
    (
        "solver",
        &[
            "warm_hits",
            "cold_solves",
            "pivots",
            "phase1_pivots",
            "bland_pivots",
            "warm_starts",
            "phase1_skips",
            "f64_solves",
            "certified",
            "eta_factors",
            "cert_factors",
        ],
    ),
    (
        "fixpoint",
        &["evaluated", "sweep_evals", "kernel_words", "arena_resets"],
    ),
];

/// The load pass's sheds, and the retries that absorb them, follow the
/// scheduling of its loopback server.
const VOLATILE_PATHS: &[&str] = &["load.shed", "load.retries"];

/// True if the leaf at `path` may differ between two runs of one tree.
fn is_volatile(path: &[String]) -> bool {
    let Some((leaf, parent)) = path.split_last() else {
        return false;
    };
    if TIMING_KEYS.contains(&leaf.as_str()) || VOLATILE_PATHS.contains(&path.join(".").as_str()) {
        return true;
    }
    let Some((block, pass)) = parent.split_last() else {
        return false;
    };
    PARALLEL_PASSES.contains(&pass.join(".").as_str())
        && PARALLEL_COUNTERS
            .iter()
            .any(|(name, counters)| name == block && counters.contains(&leaf.as_str()))
}

/// Every leaf outside the volatile list where `fresh` differs from
/// `baseline`, one line each: a changed value, a member present on one
/// side only, or an array whose length changed.
fn ledger(baseline: &Json, fresh: &Json) -> Vec<String> {
    fn walk(path: &mut Vec<String>, old: Option<&Json>, new: Option<&Json>, out: &mut Vec<String>) {
        match (old, new) {
            (Some(Json::Obj(a)), Some(Json::Obj(b))) => {
                let keys: BTreeSet<&String> = a.keys().chain(b.keys()).collect();
                for key in keys {
                    path.push(key.clone());
                    walk(path, a.get(key), b.get(key), out);
                    path.pop();
                }
            }
            (Some(Json::Arr(a)), Some(Json::Arr(b))) if a.len() == b.len() => {
                for (i, (x, y)) in a.iter().zip(b).enumerate() {
                    path.push(i.to_string());
                    walk(path, Some(x), Some(y), out);
                    path.pop();
                }
            }
            _ if old == new || is_volatile(path) => {}
            _ => {
                let show = |v: Option<&Json>| v.map_or("(absent)".to_string(), Json::to_string);
                out.push(format!(
                    "{}: {} -> {}",
                    path.join("."),
                    show(old),
                    show(new)
                ));
            }
        }
    }
    let mut out = Vec::new();
    walk(&mut Vec::new(), Some(baseline), Some(fresh), &mut out);
    out
}

/// The ledger proper: the document `run_all` just wrote against the
/// checked-in copy CI kept before the run. Ignored unless asked for,
/// because only CI (or a developer, as in the module docs) has the two
/// documents; `WCET_BENCH_BASELINE` names the kept copy.
#[test]
#[ignore = "needs WCET_BENCH_BASELINE and a fresh BENCH_results.json (CI runs it after run_all)"]
fn golden_ledger_matches_the_baseline() {
    let path = std::env::var("WCET_BENCH_BASELINE")
        .expect("WCET_BENCH_BASELINE names the checked-in document kept before run_all");
    let text = std::fs::read_to_string(&path).expect("the baseline document reads");
    let baseline = Json::parse(&text).expect("the baseline document parses");
    let diff = ledger(&baseline, &checked_in_results());
    assert!(
        diff.is_empty(),
        "{} deterministic value(s) moved; a change that moves a bound or a counter \
         regenerates BENCH_results.json and says why:\n{}",
        diff.len(),
        diff.join("\n")
    );
}

/// Every leaf of `doc` with its path.
fn leaves(doc: &Json) -> Vec<(Vec<String>, Json)> {
    fn walk(path: &mut Vec<String>, v: &Json, out: &mut Vec<(Vec<String>, Json)>) {
        let children: Vec<(String, &Json)> = match v {
            Json::Obj(m) => m.iter().map(|(k, v)| (k.clone(), v)).collect(),
            Json::Arr(a) => a
                .iter()
                .enumerate()
                .map(|(i, v)| (i.to_string(), v))
                .collect(),
            leaf => return out.push((path.clone(), leaf.clone())),
        };
        for (key, child) in children {
            path.push(key);
            walk(path, child, out);
            path.pop();
        }
    }
    let mut out = Vec::new();
    walk(&mut Vec::new(), doc, &mut out);
    out
}

/// `doc` with the leaf at `path` replaced by `value`.
fn with_leaf(doc: &Json, path: &[String], value: Json) -> Json {
    let mut doc = doc.clone();
    let mut at = &mut doc;
    for key in path {
        at = match at {
            Json::Obj(m) => m.get_mut(key).expect("the path exists"),
            Json::Arr(a) => &mut a[key.parse::<usize>().expect("an index")],
            _ => unreachable!("a leaf has no children"),
        };
    }
    *at = value;
    doc
}

/// The ledger's own check, on the checked-in document: it accepts the
/// document against itself, fails a one-cycle change to every integer
/// value it pins — every experiment row and every scenario cell
/// included — and ignores a change to every value it lists as volatile.
#[test]
fn golden_ledger_catches_a_one_cycle_change() {
    let doc = checked_in_results();
    assert_eq!(ledger(&doc, &doc), Vec::<String>::new());
    let (mut pinned, mut volatile) = (0, 0);
    for (path, value) in leaves(&doc) {
        let Some(n) = value.as_u64() else { continue };
        let diff = ledger(&doc, &with_leaf(&doc, &path, Json::from(n + 1)));
        if is_volatile(&path) {
            volatile += 1;
            assert!(
                diff.is_empty(),
                "volatile {} was reported: {diff:?}",
                path.join(".")
            );
        } else {
            pinned += 1;
            let line = format!("{}: {n} -> {}", path.join("."), n + 1);
            assert_eq!(diff, vec![line]);
        }
    }
    let rows = |prefix: &str| {
        leaves(&doc)
            .iter()
            .filter(|(p, _)| p[0] == prefix && p.contains(&"rows".to_string()))
            .filter(|(_, v)| v.as_u64().is_some())
            .count()
    };
    assert!(rows("experiments") > 0 && rows("scenarios") > 0);
    assert!(pinned > volatile, "pinned {pinned}, volatile {volatile}");
    // A member that vanishes is a difference too.
    let mut gone = doc.clone();
    let mut seed = None;
    if let Json::Obj(top) = &mut gone {
        if let Some(Json::Obj(load)) = top.get_mut("load") {
            seed = load.remove("seed");
        }
    }
    let seed = seed.expect("the load pass records its seed");
    assert_eq!(
        ledger(&doc, &gone),
        vec![format!("load.seed: {seed} -> (absent)")]
    );
}
