//! Report-only perf trend between two `BENCH_results.json` documents
//! (typically the checked-in baseline vs a fresh `run_all`): the
//! per-experiment `wall_ms` delta and deterministic effort counters,
//! the suite total, and the campaign, serve and load headline numbers.
//! Never fails the build — timing on shared CI runners is noisy, so the
//! numbers are printed for humans, not gated:
//!
//! ```sh
//! cargo run --release -p wcet-bench --bin perf_trend -- \
//!     baseline/BENCH_results.json BENCH_results.json
//! ```
//!
//! Both documents must carry the same schema. CI always diffs the
//! checked-in document against a fresh run of the same tree, and a
//! change that bumps the schema regenerates the checked-in document, so
//! the two sides never differ there; handed two different schemas, the
//! tool says so in one line and exits 0.

use std::process::ExitCode;

use wcet_bench::counters::Counters;
use wcet_bench::json::Json;
use wcet_core::report::Table;
use wcet_ir::fixpoint::FixpointStats;
use wcet_sim::machine::SkipStats;

/// One experiment's measurements.
struct ExpEntry {
    id: String,
    wall_ms: f64,
    /// Deterministic effort counters: fixpoint evaluations against the
    /// naive sweep and kernel words, and simulator cycles skipped.
    fixpoint: FixpointStats,
    sim_skip: SkipStats,
}

/// The streaming campaign's cold-run throughput, reuse and supervision.
#[derive(Clone, Copy)]
struct Campaign {
    cells_per_sec: f64,
    unique: u64,
    dedup_rate: f64,
    neighbor_hit_rate: f64,
    disk_hit_rate: f64,
    failures: u64,
    resume_fast_forwarded: u64,
}

/// The serving pass: request throughput and hot-memo behaviour.
#[derive(Clone, Copy)]
struct Serve {
    req_per_sec: f64,
    requests: u64,
    hot_hit_rate: f64,
    evictions: u64,
    identical: bool,
}

/// The open-system load pass.
#[derive(Clone, Copy)]
struct Load {
    throughput_rps: f64,
    completed: u64,
    p50_ms: f64,
    p99_ms: f64,
    shed: u64,
    retries: u64,
    identical: bool,
}

/// The headline numbers of one document.
struct Doc {
    total_ms: f64,
    experiments: Vec<ExpEntry>,
    campaign: Campaign,
    serve: Serve,
    load: Load,
}

fn parse(doc: &Json) -> Option<Doc> {
    let f64_at = |path: &[&str]| doc.get_path(path).and_then(Json::as_f64);
    let u64_at = |path: &[&str]| doc.get_path(path).and_then(Json::as_u64);
    let bool_at = |path: &[&str]| match doc.get_path(path) {
        Some(Json::Bool(b)) => Some(*b),
        _ => None,
    };
    let experiments = doc
        .get("experiments")?
        .as_arr()?
        .iter()
        .map(|e| {
            Some(ExpEntry {
                id: e.get("id")?.as_str()?.to_string(),
                wall_ms: e.get("wall_ms")?.as_f64()?,
                fixpoint: FixpointStats::from_json(e.get("fixpoint")?)?,
                sim_skip: SkipStats::from_json(e.get("sim_skip")?)?,
            })
        })
        .collect::<Option<Vec<_>>>()?;
    Some(Doc {
        total_ms: f64_at(&["total_ms"])?,
        experiments,
        campaign: Campaign {
            cells_per_sec: f64_at(&["campaign", "cold", "cells_per_sec"])?,
            unique: u64_at(&["campaign", "cold", "unique"])?,
            dedup_rate: f64_at(&["campaign", "dedup_rate"])?,
            neighbor_hit_rate: f64_at(&["campaign", "neighbor_hit_rate"])?,
            disk_hit_rate: f64_at(&["campaign", "disk_hit_rate"])?,
            failures: u64_at(&["campaign", "cold", "failures"])?,
            resume_fast_forwarded: u64_at(&["campaign", "resume", "resumed", "resumed"])?,
        },
        serve: Serve {
            req_per_sec: f64_at(&["serve", "req_per_sec"])?,
            requests: u64_at(&["serve", "requests"])?,
            hot_hit_rate: f64_at(&["serve", "hot_hit_rate"])?,
            evictions: u64_at(&["serve", "evictions"])?,
            identical: bool_at(&["serve", "identical_bounds"])?,
        },
        load: Load {
            throughput_rps: f64_at(&["load", "throughput_rps"])?,
            completed: u64_at(&["load", "completed"])?,
            p50_ms: f64_at(&["load", "p50_ms"])?,
            p99_ms: f64_at(&["load", "p99_ms"])?,
            shed: u64_at(&["load", "shed"])?,
            retries: u64_at(&["load", "retries"])?,
            identical: bool_at(&["load", "identical_bounds"])?,
        },
    })
}

fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

fn yes_no(b: bool) -> String {
    if b { "yes" } else { "NO" }.to_string()
}

/// `"{before} → {after} {unit} (±N%); report-only, never a gate"`.
fn trend(what: &str, before: f64, after: f64, unit: &str) -> String {
    let delta = if before > 0.0 {
        format!(" ({:+.0}%)", (after - before) / before * 100.0)
    } else {
        String::new()
    };
    format!("{what} {before:.1} → {after:.1} {unit}{delta}; report-only, never a gate")
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [baseline_path, current_path] = args.as_slice() else {
        eprintln!("usage: perf_trend <baseline BENCH_results.json> <current BENCH_results.json>");
        return ExitCode::FAILURE;
    };
    // Report-only: a missing, unreadable, foreign or malformed document
    // is a note, not a failure.
    let (baseline, current) = match (load(baseline_path), load(current_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (b, c) => {
            for e in [b.err(), c.err()].into_iter().flatten() {
                eprintln!("perf_trend: {e}");
            }
            return ExitCode::SUCCESS;
        }
    };
    let schema = |doc: &Json| doc.get("schema").and_then(Json::as_u64).unwrap_or(0);
    if schema(&baseline) != schema(&current) {
        println!(
            "perf_trend: baseline is schema {}, current is schema {}; nothing to compare",
            schema(&baseline),
            schema(&current)
        );
        return ExitCode::SUCCESS;
    }
    let (Some(base), Some(cur)) = (parse(&baseline), parse(&current)) else {
        eprintln!(
            "perf_trend: a document lacks a schema-{} member; nothing to compare",
            schema(&current)
        );
        return ExitCode::SUCCESS;
    };

    let pairs: Vec<(&ExpEntry, &ExpEntry)> = cur
        .experiments
        .iter()
        .filter_map(|e| Some((base.experiments.iter().find(|b| b.id == e.id)?, e)))
        .collect();
    let mut t = Table::new(
        format!("Per-experiment wall_ms: {baseline_path} → {current_path}"),
        &["experiment", "baseline ms", "current ms", "delta", "trend"],
    );
    for (b, e) in &pairs {
        let delta = e.wall_ms - b.wall_ms;
        t.row([
            e.id.clone(),
            format!("{:.1}", b.wall_ms),
            format!("{:.1}", e.wall_ms),
            format!("{delta:+.1}"),
            if b.wall_ms > 0.0 {
                format!("{:+.0}%", delta / b.wall_ms * 100.0)
            } else {
                String::new()
            },
        ]);
    }
    let base_total: f64 = pairs.iter().map(|(b, _)| b.wall_ms).sum();
    let cur_total: f64 = pairs.iter().map(|(_, e)| e.wall_ms).sum();
    t.note(trend("experiments total", base_total, cur_total, "ms"));
    t.note(trend("suite total_ms", base.total_ms, cur.total_ms, "ms"));
    println!("{t}");

    // Deterministic effort counters (immune to timer noise).
    let mut t = Table::new(
        "Deterministic effort: fixpoint evaluations vs naive sweep, sim skips, kernel words",
        &[
            "experiment",
            "base evals",
            "cur evals",
            "cur sweep equiv",
            "base skipped cyc",
            "cur skipped cyc",
            "base kern words",
            "cur kern words",
        ],
    );
    for (b, c) in &pairs {
        t.row([
            c.id.clone(),
            b.fixpoint.evaluated.to_string(),
            c.fixpoint.evaluated.to_string(),
            c.fixpoint.sweep_evals.to_string(),
            b.sim_skip.skipped_cycles.to_string(),
            c.sim_skip.skipped_cycles.to_string(),
            b.fixpoint.kernel_words.to_string(),
            c.fixpoint.kernel_words.to_string(),
        ]);
    }
    println!("{t}");

    let mut t = Table::new(
        "Streaming campaign: cold-run throughput, reuse, supervision",
        &[
            "side",
            "cells/sec",
            "unique",
            "dedup",
            "neighbor hits",
            "disk hits (warm)",
            "failures",
            "resume ffwd",
        ],
    );
    for (side, c) in [("baseline", base.campaign), ("current", cur.campaign)] {
        t.row([
            side.to_string(),
            format!("{:.0}", c.cells_per_sec),
            c.unique.to_string(),
            pct(c.dedup_rate),
            pct(c.neighbor_hit_rate),
            pct(c.disk_hit_rate),
            c.failures.to_string(),
            c.resume_fast_forwarded.to_string(),
        ]);
    }
    t.note(trend(
        "throughput",
        base.campaign.cells_per_sec,
        cur.campaign.cells_per_sec,
        "cells/sec",
    ));
    println!("{t}");

    let mut t = Table::new(
        "Analysis server: request throughput, hot-memo hit rate",
        &[
            "side",
            "req/sec",
            "requests",
            "hot hit rate",
            "evictions",
            "identical bounds",
        ],
    );
    for (side, s) in [("baseline", base.serve), ("current", cur.serve)] {
        t.row([
            side.to_string(),
            format!("{:.1}", s.req_per_sec),
            s.requests.to_string(),
            pct(s.hot_hit_rate),
            s.evictions.to_string(),
            yes_no(s.identical),
        ]);
    }
    t.note(trend(
        "throughput",
        base.serve.req_per_sec,
        cur.serve.req_per_sec,
        "req/sec",
    ));
    println!("{t}");

    // Latency and shed figures are timing-shaped — report-only, like
    // everything here.
    let mut t = Table::new(
        "Open-system load: throughput, latency percentiles, shed/retry",
        &[
            "side",
            "req/sec",
            "completed",
            "p50 ms",
            "p99 ms",
            "shed",
            "retries",
            "identical bounds",
        ],
    );
    for (side, l) in [("baseline", base.load), ("current", cur.load)] {
        t.row([
            side.to_string(),
            format!("{:.1}", l.throughput_rps),
            l.completed.to_string(),
            format!("{:.2}", l.p50_ms),
            format!("{:.2}", l.p99_ms),
            l.shed.to_string(),
            l.retries.to_string(),
            yes_no(l.identical),
        ]);
    }
    t.note(trend(
        "throughput",
        base.load.throughput_rps,
        cur.load.throughput_rps,
        "req/sec",
    ));
    println!("{t}");
    ExitCode::SUCCESS
}
