//! Runs the full experiment suite (the `EXPERIMENTS.md` regeneration
//! driver): `cargo run --release -p wcet-serve --bin run_all`.
//!
//! Every pass runs in this process: the 13 experiments of the
//! [`EXPERIMENTS`] registry (their WCET rows and effort counters land in
//! `BENCH_results.json`), the warm-vs-cold solver sweep, the example
//! scenario matrix, the streaming campaign, and the serving and load
//! passes against a live server. It lives in `wcet-serve` because that
//! crate depends on every layer. A panicking experiment or serving pass
//! is recorded as failed, the rest of the suite still runs, and the
//! process exits 1.

use std::panic::catch_unwind;
use std::path::PathBuf;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use wcet_bench::counters::Counters;
use wcet_bench::experiments::{ExperimentRun, EXPERIMENTS};
use wcet_bench::json::Json;
use wcet_bench::load::load_json;
use wcet_bench::scenario::{
    parse_matrix, run_campaign, run_campaign_with, run_json, CampaignOptions, CampaignRun,
};
use wcet_bench::{l2_bound_machine, l2_bound_victim};
use wcet_core::analyzer::Analyzer;
use wcet_core::engine::AnalysisEngine;
use wcet_core::mode::{Footprint, JointRefs};
use wcet_ir::synth::{matmul, Placement};
use wcet_serve::{CellBounds, Client, LoadConfig, Response, ServerConfig};

fn rows_json(run: &ExperimentRun) -> Json {
    Json::Arr(
        run.rows
            .iter()
            .map(|r| {
                Json::obj([
                    ("scenario", Json::str(&r.scenario)),
                    ("task", Json::str(&r.task)),
                    ("mode", Json::str(&r.mode)),
                    ("wcet", Json::from(r.wcet)),
                ])
            })
            .collect(),
    )
}

/// Re-runs the E02a k-sweep twice — cold per solve (sequential
/// `Analyzer`, no context) and warm (engine `SolveContext`) — and
/// records both pivot bills. The WCETs must match exactly; the warm
/// pivot count is what the warm-start layers save on every sweep.
fn solver_warm_vs_cold() -> Json {
    let n = 6;
    let m = l2_bound_machine(n);
    let engine = AnalysisEngine::new(m.clone());
    let cold = Analyzer::new(m);
    let victim = l2_bound_victim(0);
    let fps: Vec<Footprint> = (1..n as u32)
        .map(|i| {
            engine
                .l2_footprint(&matmul(16, Placement::slot(i)), i as usize)
                .expect("analyses")
        })
        .collect();

    let mut cold_pivots = 0u64;
    let mut identical = true;
    for k in 0..=fps.len() {
        let refs: Vec<&Footprint> = fps[..k].iter().collect();
        let warm_rep = engine
            .analyze(&victim, 0, 0, &JointRefs(&refs))
            .expect("analyses");
        let cold_rep = cold.wcet_joint(&victim, 0, 0, &refs).expect("analyses");
        identical &= warm_rep == cold_rep;
        cold_pivots += cold_rep.ipet.solver.pivots;
    }
    assert!(identical, "warm-started sweep diverged from cold solves");
    let warm = engine.solver_stats();
    println!(
        "solver warm-vs-cold (E02a k-sweep, {} points): cold {cold_pivots} pivots, \
         warm {} pivots ({} warm hits, {} phase-1 pivots left), WCETs identical",
        fps.len() + 1,
        warm.totals.pivots,
        warm.warm_hits,
        warm.totals.phase1_pivots,
    );
    Json::obj([
        ("sweep_points", Json::from(fps.len() + 1)),
        ("cold_pivots", Json::from(cold_pivots)),
        ("warm_pivots", Json::from(warm.totals.pivots)),
        ("identical_wcets", Json::from(identical)),
        ("warm", warm.to_json()),
    ])
}

/// The checked-in example matrix (compiled in, so `run_all` works from
/// any working directory), analysed *and* simulator-validated: scenario
/// soundness is re-checked on every suite run.
fn scenario_sweep() -> Json {
    let matrix =
        parse_matrix(include_str!("../../../../scenarios/example.scn")).expect("example parses");
    let run = run_campaign(
        &matrix,
        &CampaignOptions {
            threads: 1,
            keep_cells: true,
            sample_one_in: 1,
            ..CampaignOptions::default()
        },
    );
    println!(
        "scenario sweep `{}`: {} cells ({} duplicates removed), {}/{} \
         validated cells sound, {:.1} ms",
        run.matrix,
        run.cells.len(),
        run.duplicates,
        run.sound,
        run.validated,
        run.wall.as_secs_f64() * 1e3,
    );
    assert!(
        run.violations.is_empty(),
        "example matrix produced unsound cells"
    );
    run_json(&run)
}

/// A fresh memo path in the temp directory, unique to this run.
fn scratch_memo(what: &str) -> PathBuf {
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    std::env::temp_dir().join(format!("wcet-run-all-campaign-{what}-{nanos}.jsonl"))
}

/// The checked-in 108 000-cell streaming campaign (compiled in, like the
/// example matrix), run twice: cold — measuring lazy expansion, dedup,
/// work stealing and neighbour-incremental reuse — then disk-warm
/// against the memo the cold run persisted, which must serve every
/// bounded cell without re-analysis and reproduce every bound exactly.
/// A third, deliberately interrupted pass (limited, with its memo tail
/// torn off) is then resumed and checked against an uninterrupted
/// reference — the kill-9 recovery guarantee, measured end to end.
fn campaign_sweep() -> Json {
    let matrix =
        parse_matrix(include_str!("../../../../scenarios/campaign.scn")).expect("campaign parses");
    let memo_path = scratch_memo("memo");

    // Compact per-cell signature: every (task, core.thread, mode, bound
    // or error) row, keyed by cell fingerprint. Cheap enough to keep for
    // 10⁵ cells, strong enough to catch any cold/warm divergence.
    type Signatures = std::collections::BTreeMap<(u64, u64), Vec<(String, String)>>;
    fn signature(cell: &wcet_bench::scenario::CellOutcome) -> Vec<(String, String)> {
        cell.rows
            .iter()
            .map(|r| {
                let outcome = match &r.outcome {
                    Ok(b) => b.wcet.to_string(),
                    Err(e) => format!("error: {e}"),
                };
                (
                    format!("{}@{}.{}/{}", r.task, r.core, r.thread, r.mode),
                    outcome,
                )
            })
            .collect()
    }
    let pass = |label: &str, opts: CampaignOptions| -> (CampaignRun, Signatures) {
        let mut sigs = Signatures::new();
        let run = run_campaign_with(&matrix, &opts, |cell| {
            sigs.insert(cell.fingerprint, signature(cell));
        });
        println!(
            "campaign `{}` ({label}): {} unique of {} cells ({} duplicates), \
             {} bounded, {} row reuses, {} neighbour fixpoint hits, {} disk hits, \
             {}/{} sampled cells sound, {:.2}s ({:.0} cells/s)",
            run.matrix,
            run.unique,
            run.produced,
            run.duplicates,
            run.bounded,
            run.rows_reused,
            run.memo.neighbor_hits,
            run.disk_hits,
            run.sound,
            run.validated,
            run.wall.as_secs_f64(),
            run.cells_per_sec(),
        );
        assert!(
            run.violations.is_empty(),
            "campaign produced unsound cells: {:?}",
            run.violations
        );
        assert!(run.cache_error.is_none(), "memo write-back failed");
        assert_eq!(run.failures, 0, "no cell may fail under supervision");
        (run, sigs)
    };
    let with_memo = |memo: &std::path::Path| CampaignOptions {
        sample_one_in: 500,
        cache: Some(memo.to_path_buf()),
        ..CampaignOptions::default()
    };
    let (cold, cold_sigs) = pass("cold", with_memo(&memo_path));
    let (warm, warm_sigs) = pass("disk-warm", with_memo(&memo_path));
    let _ = std::fs::remove_file(&memo_path);
    assert_eq!(
        cold_sigs, warm_sigs,
        "disk-warm campaign diverged from the cold run"
    );
    assert!(
        warm.disk_hits >= cold.bounded,
        "warm run must serve every bounded cell from the memo \
         ({} hits for {} bounded cells)",
        warm.disk_hits,
        cold.bounded,
    );

    // Schema 7: the faulted + resumed pass. A third run over a fresh
    // memo is killed by `--limit`, its final append torn off (the bytes
    // a real `kill -9` would lose mid-write), then resumed past the last
    // trusted checkpoint; interrupted ∪ resumed must reproduce an
    // uninterrupted reference run cell-for-cell.
    const INTERRUPT_AT: usize = 2048;
    const RESUME_TO: usize = 4096;
    let resume_memo = scratch_memo("resume");
    let (interrupted, interrupted_sigs) = pass(
        "interrupted",
        CampaignOptions {
            limit: Some(INTERRUPT_AT),
            ..with_memo(&resume_memo)
        },
    );
    let memo_bytes = std::fs::read(&resume_memo).expect("interrupted pass persisted a memo");
    std::fs::write(
        &resume_memo,
        &memo_bytes[..memo_bytes.len().saturating_sub(7)],
    )
    .expect("tears the memo tail");
    let (resumed, resumed_sigs) = pass(
        "resumed",
        CampaignOptions {
            limit: Some(RESUME_TO),
            resume: true,
            ..with_memo(&resume_memo)
        },
    );
    let (reference, reference_sigs) = pass(
        "reference",
        CampaignOptions {
            limit: Some(RESUME_TO),
            sample_one_in: 500,
            ..CampaignOptions::default()
        },
    );
    let _ = std::fs::remove_file(&resume_memo);
    assert!(
        resumed.resumed > 0,
        "resume must fast-forward past the last trusted checkpoint"
    );
    assert!(
        resumed.disk_skipped >= 1,
        "the torn line must be counted as skipped, not fatal"
    );
    let mut union_sigs = interrupted_sigs;
    union_sigs.extend(resumed_sigs);
    assert_eq!(
        union_sigs, reference_sigs,
        "interrupted+resumed campaign diverged from the uninterrupted run"
    );

    #[allow(clippy::cast_precision_loss)] // report-only rates
    let rate = |num: usize, den: usize| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    Json::obj([
        ("cold", run_json(&cold)),
        ("warm", run_json(&warm)),
        (
            "resume",
            Json::obj([
                ("interrupted", run_json(&interrupted)),
                ("resumed", run_json(&resumed)),
                ("reference", run_json(&reference)),
                ("identical_bounds", Json::from(true)),
            ]),
        ),
        (
            "dedup_rate",
            Json::from(rate(cold.duplicates, cold.produced)),
        ),
        (
            "row_reuse_rate",
            Json::from(rate(cold.rows_reused, cold.unique)),
        ),
        (
            "neighbor_hit_rate",
            Json::from(rate(
                usize::try_from(cold.memo.neighbor_hits).unwrap_or(usize::MAX),
                cold.unique,
            )),
        ),
        (
            "disk_hit_rate",
            Json::from(rate(warm.disk_hits, warm.unique)),
        ),
        ("identical_bounds", Json::from(true)),
    ])
}

/// Total submissions of the serving pass: 1 cold + 5 hot.
const SERVE_REQUESTS: usize = 6;

/// Schema 8: the serving pass. The checked-in example matrix is analysed
/// once in-process as the reference, then submitted through a live
/// server several times — one cold request that fills the hot memo, the
/// rest riding it. Every served response must be byte-identical to the
/// in-process run; the block records the cold request's latency, the hot
/// requests' throughput, the hot-request memo hit rate, and the
/// cumulative memo/solver view.
fn serve_bench() -> Json {
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

    // One worker: the pass submits one request at a time, so a second
    // worker could add no throughput, only a second fresh thread (below).
    let handle = wcet_serve::start(&ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = handle.addr();

    let mut identical = true;
    let mut last = None;
    // The first submission is timed apart (`cold_ms`, connect to decoded
    // response) and the throughput clock covers only the hot ones. The
    // first request a fresh server worker thread serves can stall for
    // tens of milliseconds in its first heap allocations (in about half
    // of all suite runs), most likely because the allocator hands the
    // thread an arena left behind by an exited thread of an earlier
    // pass. Counted in, that stall split `req_per_sec` into two clusters.
    let mut cold_ms = 0.0;
    let mut hot_start = Instant::now();
    for i in 0..SERVE_REQUESTS {
        let sent = Instant::now();
        // A fresh connection per request, like independent clients.
        let mut client = Client::connect(addr).expect("connects");
        match client.submit_matrix(spec) {
            Ok(Response::Bounds(b)) => {
                identical &= b.cells == expected;
                last = Some(b);
            }
            other => {
                handle.stop();
                panic!("serving pass: submission failed: {other:?}");
            }
        }
        if i == 0 {
            cold_ms = sent.elapsed().as_secs_f64() * 1e3;
            hot_start = Instant::now();
        }
    }
    let wall = hot_start.elapsed();
    let mut probe = Client::connect(addr).expect("connects");
    let cumulative = match probe.stats() {
        Ok(Response::Stats(s)) => s,
        other => {
            handle.stop();
            panic!("serving pass: stats probe failed: {other:?}");
        }
    };
    drop(probe);
    handle.stop();

    let last = last.expect("at least one response");
    // The final request is fully hot; its delta counters are the
    // steady-state serving profile.
    let hot = &last.stats.memo;
    #[allow(clippy::cast_precision_loss)] // report-only rates
    let hot_hit_rate = if hot.lookups() == 0 {
        0.0
    } else {
        hot.hits() as f64 / hot.lookups() as f64
    };
    let hot_requests = SERVE_REQUESTS - 1;
    #[allow(clippy::cast_precision_loss)]
    let req_per_sec = hot_requests as f64 / wall.as_secs_f64().max(1e-9);
    let total = &last.stats.memo_total;

    println!(
        "serving pass: `{}` ({} cells): cold submission {cold_ms:.1} ms, \
         {hot_requests} hot in {:.1} ms ({req_per_sec:.1} req/s), hot hit rate {:.1}%, \
         {} evictions, bounds identical to in-process: {identical}",
        last.matrix,
        last.cells.len(),
        wall.as_secs_f64() * 1e3,
        hot_hit_rate * 100.0,
        total.evictions(),
    );
    assert!(identical, "served bounds diverged from the in-process run");

    Json::obj([
        ("requests", Json::from(SERVE_REQUESTS)),
        ("cells", Json::from(last.cells.len())),
        ("cold_ms", Json::from(cold_ms)),
        ("wall_ms", Json::from(wall.as_secs_f64() * 1e3)),
        ("req_per_sec", Json::from(req_per_sec)),
        ("hot_hit_rate", Json::from(hot_hit_rate)),
        ("identical_bounds", Json::from(identical)),
        ("evictions", Json::from(total.evictions())),
        ("memo_entries", Json::from(cumulative.memo_entries)),
        ("memo_total", total.to_json()),
        (
            "solver",
            Json::obj([
                ("warm_hits", Json::from(cumulative.solver_warm_hits)),
                ("cold_solves", Json::from(cumulative.solver_cold_solves)),
            ]),
        ),
    ])
}

/// Schema 10: the open-system load pass — seeded Poisson/Zipf traffic
/// from a retrying client against a private server deliberately sized
/// *below* the offered load (2 workers, in-flight cap 2, queue 2, 6
/// connections), so admission control actually sheds and the client
/// actually absorbs it. Every bound that comes back must stay
/// byte-identical to the in-process reference, with zero unexplained
/// errors; shed and latency *counts* vary with machine timing and are
/// reported, not asserted.
fn load_bench() -> Json {
    let handle = wcet_serve::start(&ServerConfig {
        workers: 2,
        max_inflight: Some(2),
        max_queue: Some(2),
        ..ServerConfig::default()
    })
    .expect("load server starts");
    let config = LoadConfig {
        addr: handle.addr(),
        requests: 160,
        connections: 6,
        pool: 8,
        zipf_exponent: 1.1,
        rate_per_sec: 120.0,
        seed: 7,
        retries: 12,
        ..LoadConfig::default()
    };
    println!(
        "load pass: {} requests over {} connections (capacity {} + {} queued), seed {}",
        config.requests, config.connections, 2, 2, config.seed,
    );
    let stats = wcet_serve::run_load(&config);
    handle.stop();

    println!(
        "load pass: {}/{} completed in {:.2}s ({:.1} req/s), p50/p95/p99 \
         {:.2}/{:.2}/{:.2} ms, {} shed absorbed by {} retries, identical bounds: {}",
        stats.completed,
        stats.requests,
        stats.wall_ms / 1e3,
        stats.throughput_rps,
        stats.p50_ms,
        stats.p95_ms,
        stats.p99_ms,
        stats.shed,
        stats.retries,
        stats.identical_bounds,
    );
    assert!(
        stats.identical_bounds,
        "load pass: served bounds diverged from the in-process reference"
    );
    assert_eq!(
        stats.error_responses, 0,
        "load pass: unexplained typed error responses"
    );
    load_json(&stats)
}

/// The suite's failure: the ids of the failed experiments and passes.
/// Returned from `main`, it is printed and the process exits 1.
struct Failed(Vec<&'static str>);

impl std::fmt::Debug for Failed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "failed experiments: {:?}", self.0)
    }
}

fn experiment_json(run: &ExperimentRun, ok: bool, wall_ms: f64) -> Json {
    Json::obj([
        ("id", Json::str(run.id)),
        ("title", Json::str(run.title)),
        ("ok", Json::from(ok)),
        ("wall_ms", Json::from(wall_ms)),
        ("rows", rows_json(run)),
        ("solver", run.solver.to_json()),
        // Schema 5: fixpoint + event-skipping effort.
        ("fixpoint", run.fixpoint.to_json()),
        ("sim_skip", run.sim_skip.to_json()),
    ])
}

/// Runs a serving pass, recording it as failed (and its block as `null`)
/// if it panics.
fn serving_pass(name: &'static str, pass: fn() -> Json, failed: &mut Vec<&'static str>) -> Json {
    catch_unwind(pass).unwrap_or_else(|_| {
        eprintln!("{name} pass failed (panicked)");
        failed.push(name);
        Json::Null
    })
}

fn main() -> Result<(), Failed> {
    let suite_start = Instant::now();
    let mut failed = Vec::new();
    let mut experiments = Vec::new();
    for (id, runner) in EXPERIMENTS {
        println!("===== {id} =====");
        let start = Instant::now();
        // A panicking experiment is recorded as failed (with empty rows
        // and zero counters), and the rest of the suite — and the JSON
        // summary — still runs.
        let (ok, run) = match catch_unwind(runner) {
            Ok(run) => {
                // Schema 5 acceptance: wherever the worklist ran, it must
                // beat the naive-sweep bill. A regression fails this
                // experiment (like a panic would), not the whole suite.
                let fix_ok = run.fixpoint.evaluated == 0
                    || run.fixpoint.evaluated < run.fixpoint.sweep_evals;
                if !fix_ok {
                    eprintln!("{id}: worklist did not beat the sweep: {:?}", run.fixpoint);
                }
                (fix_ok, run)
            }
            Err(_) => {
                eprintln!("{id} failed (panicked)");
                let run = ExperimentRun {
                    id,
                    ..ExperimentRun::default()
                };
                (false, run)
            }
        };
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        if !ok {
            failed.push(id);
        }
        experiments.push(experiment_json(&run, ok, wall_ms));
    }

    println!("===== solver warm-vs-cold =====");
    let warm_cold = solver_warm_vs_cold();
    println!("===== scenario sweep =====");
    let scenarios = scenario_sweep();
    println!("===== streaming campaign =====");
    let campaign = campaign_sweep();
    println!("===== serving pass =====");
    let serve = serving_pass("serve", serve_bench, &mut failed);
    println!("===== load pass =====");
    let load = serving_pass("load", load_bench, &mut failed);

    let doc = Json::obj([
        // Schema 13: `scenarios` and every campaign block are one
        // `run_json` document each. Schema 14: every `solver` block
        // counts `cert_factors`. Schema 15: no `solver` block counts
        // `dual_pivots` or `refactorizations` any more. Schema 16: no
        // engine batch-timing block; `serve` times its cold submission
        // apart (`cold_ms`).
        ("schema", Json::from(16_u64)),
        ("suite", Json::str("wcet-bench run_all")),
        (
            "total_ms",
            Json::from(suite_start.elapsed().as_secs_f64() * 1e3),
        ),
        ("experiments", Json::Arr(experiments)),
        ("solver_warm_vs_cold", warm_cold),
        ("scenarios", scenarios),
        ("campaign", campaign),
        ("serve", serve),
        ("load", load),
    ]);
    let out = "BENCH_results.json";
    match std::fs::write(out, format!("{doc}\n")) {
        Ok(()) => println!("wrote {out}"),
        Err(e) => {
            eprintln!("could not write {out}: {e}");
            failed.push("BENCH_results.json");
        }
    }

    if failed.is_empty() {
        println!("all {} experiments completed", EXPERIMENTS.len());
        Ok(())
    } else {
        Err(Failed(failed))
    }
}
