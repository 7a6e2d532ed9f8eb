//! Runs the full experiment suite (the `EXPERIMENTS.md` regeneration
//! driver): `cargo run -p wcet-bench --bin run_all --release`.
//!
//! Experiments ported to the [`AnalysisEngine`] API run in-process (their
//! WCET rows land in `BENCH_results.json`); the rest are spawned as
//! sibling binaries (build them first: `cargo build --release`). The
//! driver also measures batch-vs-sequential analysis wall-clock on a
//! multi-task set, so the perf trajectory of the engine is recorded on
//! every run.

use std::process::Command;
use std::time::Instant;

use wcet_bench::experiments::{ExperimentRun, IN_PROCESS};
use wcet_bench::json::Json;
use wcet_bench::scenario::{
    campaign_json, matrix_json, parse_matrix, run_campaign, run_campaign_with, CampaignOptions,
    CampaignRun,
};
use wcet_bench::{comparison_workload, l2_bound_machine, l2_bound_victim, machine};
use wcet_bench::{fixpoint_json, skip_json};
use wcet_core::analyzer::Analyzer;
use wcet_core::engine::{AnalysisEngine, SolverStats};
use wcet_core::mode::{Footprint, Isolated, JointRefs};
use wcet_ir::synth::{matmul, Placement};
use wcet_ir::Program;
use wcet_sched::{Task, TaskSet};

/// All experiment ids, in suite order.
const EXPERIMENTS: [&str; 13] = [
    "exp01_singlecore",
    "exp02_shared_l2",
    "exp03_lifetime",
    "exp04_bypass",
    "exp05_partition_lock",
    "exp06_column_bank",
    "exp07_yieldgraph",
    "exp08_tdma",
    "exp09_rr_bound",
    "exp10_mbba",
    "exp11_isolation",
    "exp12_unsafe_solo",
    "exp13_resource_phases",
];

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

fn solver_json(s: &SolverStats) -> Json {
    Json::obj([
        ("warm_hits", Json::from(s.warm_hits)),
        ("cold_solves", Json::from(s.cold_solves)),
        ("pivots", Json::from(s.totals.pivots)),
        ("phase1_pivots", Json::from(s.totals.phase1_pivots)),
        ("dual_pivots", Json::from(s.totals.dual_pivots)),
        ("bland_pivots", Json::from(s.totals.bland_pivots)),
        ("warm_starts", Json::from(s.totals.warm_starts)),
        ("phase1_skips", Json::from(s.totals.phase1_skips)),
        ("refactorizations", Json::from(s.totals.refactorizations)),
        // Schema 4: the two-tier kernel's counters. `fallbacks` is the
        // exactness watchdog — certified f64 solves that the exact
        // referee rejected and re-ran on the exact tier.
        ("f64_solves", Json::from(s.totals.f64_solves)),
        ("certified", Json::from(s.totals.certified)),
        ("fallbacks", Json::from(s.totals.fallbacks)),
        ("eta_factors", Json::from(s.totals.eta_factors)),
    ])
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
        ("warm", solver_json(&warm)),
    ])
}

/// The checked-in example matrix (compiled in, so `run_all` works from
/// any working directory), analysed *and* simulator-validated: scenario
/// soundness is re-checked on every suite run.
fn scenario_sweep() -> Json {
    let matrix =
        parse_matrix(include_str!("../../../../scenarios/example.scn")).expect("example parses");
    let start = Instant::now();
    let run = run_campaign(
        &matrix,
        &CampaignOptions {
            threads: 1,
            keep_cells: true,
            sample_one_in: 1,
            ..CampaignOptions::default()
        },
    );
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    println!(
        "scenario sweep `{}`: {} cells ({} duplicates removed), {}/{} \
         validated cells sound, {:.1} ms",
        run.matrix,
        run.cells.len(),
        run.duplicates,
        run.sound,
        run.validated,
        wall_ms,
    );
    assert!(
        run.violations.is_empty(),
        "example matrix produced unsound cells"
    );
    let mut doc = match matrix_json(&run) {
        Json::Obj(map) => map,
        _ => unreachable!("matrix_json returns an object"),
    };
    doc.insert("wall_ms".into(), Json::from(wall_ms));
    Json::Obj(doc)
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
    let memo_path = std::env::temp_dir().join(format!(
        "wcet-run-all-campaign-memo-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&memo_path);

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
    let resume_memo = std::env::temp_dir().join(format!(
        "wcet-run-all-campaign-resume-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&resume_memo);
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
        ("cold", campaign_json(&cold)),
        ("warm", campaign_json(&warm)),
        (
            "resume",
            Json::obj([
                ("interrupted", campaign_json(&interrupted)),
                ("resumed", campaign_json(&resumed)),
                ("reference", campaign_json(&reference)),
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

fn run_subprocess(exp: &str) -> bool {
    let status = Command::new(
        std::env::current_exe()
            .expect("self path")
            .parent()
            .expect("bin dir")
            .join(exp),
    )
    .status();
    matches!(status, Ok(s) if s.success())
}

/// Runs a `wcet-serve` sibling binary (falling back to `cargo run` when
/// the sibling isn't built) and parses its one stdout line of JSON.
/// The server lives in `wcet-serve`, which depends on this crate — so
/// socket-driving passes run as subprocesses, never as library calls.
fn serve_sibling_pass(name: &str, what: &str) -> (bool, Json) {
    let sibling = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join(name)))
        .filter(|p| p.exists());
    let output = match sibling {
        Some(bin) => Command::new(bin).output(),
        None => Command::new("cargo")
            .args(["run", "--release", "-q", "-p", "wcet-serve", "--bin", name])
            .output(),
    };
    let out = match output {
        Ok(out) => out,
        Err(e) => {
            eprintln!("{what} failed to spawn: {e}");
            return (false, Json::Null);
        }
    };
    // The sibling narrates on stderr; relay it.
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    if !out.status.success() {
        eprintln!("{what} failed ({})", out.status);
        return (false, Json::Null);
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let Some(line) = stdout.lines().rev().find(|l| !l.trim().is_empty()) else {
        eprintln!("{what} produced no JSON line");
        return (false, Json::Null);
    };
    match Json::parse(line) {
        Ok(doc) => {
            assert_eq!(
                doc.get("identical_bounds"),
                Some(&Json::from(true)),
                "served bounds diverged from the in-process run"
            );
            (true, doc)
        }
        Err(e) => {
            eprintln!("{what} emitted unparseable JSON: {e}");
            (false, Json::Null)
        }
    }
}

/// Schema 8: the serving pass — `serve_bench` asserts the served bounds
/// are byte-identical to its own in-process run and exits non-zero
/// otherwise.
fn serve_pass() -> (bool, Json) {
    serve_sibling_pass("serve_bench", "serving pass")
}

/// Schema 10: the open-system load pass — `load_bench` drives seeded
/// Poisson/Zipf traffic with a retrying client against a deliberately
/// under-provisioned server, asserting byte-identical bounds and zero
/// unexplained errors (shed/latency counts are reported, not pinned).
fn load_pass() -> (bool, Json) {
    serve_sibling_pass("load_bench", "load pass")
}

/// Times batch engine analysis of the workload against the same tasks
/// through sequential `Analyzer` calls, checking result equivalence.
fn batch_vs_sequential() -> Json {
    let m = machine(4);
    let workload = comparison_workload();

    let sequential = Analyzer::new(m.clone());
    let seq_start = Instant::now();
    let seq_reports: Vec<_> = workload
        .iter()
        .map(|(core, prog)| sequential.wcet_isolated(prog, *core, 0).expect("analyses"))
        .collect();
    let seq_ms = seq_start.elapsed().as_secs_f64() * 1e3;

    let set = TaskSet::new(
        workload
            .iter()
            .enumerate()
            .map(|(i, (core, prog))| Task {
                name: prog.name().to_string(),
                core: *core,
                priority: i as u32,
                release: 0,
                predecessors: Vec::new(),
            })
            .collect(),
    )
    .expect("valid task set");
    let programs: Vec<Program> = workload.iter().map(|(_, prog)| prog.clone()).collect();

    let engine = AnalysisEngine::new(m);
    let batch_start = Instant::now();
    let batch_reports = engine.analyze_task_set(&set, &programs, &Isolated);
    let batch_ms = batch_start.elapsed().as_secs_f64() * 1e3;

    let identical = seq_reports.len() == batch_reports.len()
        && seq_reports
            .iter()
            .zip(&batch_reports)
            .all(|(seq, batch)| batch.as_ref().map(|b| b == seq).unwrap_or(false));
    assert!(
        identical,
        "engine batch must reproduce sequential results exactly"
    );

    let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    // With a single worker the two paths run the same sequential code;
    // the ratio is pure timer noise, so no speedup is claimed (null).
    let speedup = (workers > 1).then(|| seq_ms / batch_ms.max(1e-9));
    match speedup {
        Some(s) => {
            println!(
                "batch-vs-sequential: {} tasks, {workers} workers: sequential {seq_ms:.1} ms, \
                 batch {batch_ms:.1} ms ({s:.2}× speedup), results identical",
                programs.len()
            );
            if s <= 1.0 {
                eprintln!("warning: batch analysis not faster than sequential on this host");
            }
        }
        None => println!(
            "batch-vs-sequential: {} tasks, 1 worker: sequential {seq_ms:.1} ms, \
             batch {batch_ms:.1} ms (no parallelism available — speedup not claimed), \
             results identical",
            programs.len()
        ),
    }

    Json::obj([
        ("tasks", Json::from(programs.len())),
        ("workers", Json::from(workers)),
        ("sequential_ms", Json::from(seq_ms)),
        ("batch_ms", Json::from(batch_ms)),
        ("speedup", speedup.map_or(Json::Null, Json::from)),
        ("identical_results", Json::from(identical)),
        ("solver", solver_json(&engine.solver_stats())),
        ("fixpoint", fixpoint_json(&engine.fixpoint_stats())),
    ])
}

fn main() {
    let suite_start = Instant::now();
    let mut failed = Vec::new();
    let mut experiment_json = Vec::new();
    for exp in EXPERIMENTS {
        println!("===== {exp} =====");
        let in_process = IN_PROCESS.iter().find(|(id, _)| *id == exp);
        let start = Instant::now();
        let (ok, title, rows, solver, fixpoint, sim_skip) = match in_process {
            Some((_, runner)) => {
                // Match the subprocess path's failure isolation: a
                // panicking experiment is recorded as failed, and the
                // rest of the suite (and the JSON summary) still runs.
                match std::panic::catch_unwind(runner) {
                    Ok(run) => {
                        // Schema 5 acceptance: wherever the worklist ran,
                        // it must beat the naive-sweep bill. A regression
                        // fails this experiment (like a panic would), not
                        // the whole suite.
                        let fix_ok = run.fixpoint.evaluated == 0
                            || run.fixpoint.evaluated < run.fixpoint.sweep_evals;
                        if !fix_ok {
                            eprintln!("{exp}: worklist did not beat the sweep: {:?}", run.fixpoint);
                        }
                        (
                            fix_ok,
                            Json::str(run.title),
                            rows_json(&run),
                            solver_json(&run.solver),
                            fixpoint_json(&run.fixpoint),
                            skip_json(&run.sim_skip),
                        )
                    }
                    Err(_) => {
                        eprintln!("{exp} failed (panicked)");
                        (
                            false,
                            Json::Null,
                            Json::Arr(Vec::new()),
                            Json::Null,
                            Json::Null,
                            Json::Null,
                        )
                    }
                }
            }
            None => {
                let ok = run_subprocess(exp);
                if !ok {
                    eprintln!("{exp} failed");
                }
                (
                    ok,
                    Json::Null,
                    Json::Arr(Vec::new()),
                    Json::Null,
                    Json::Null,
                    Json::Null,
                )
            }
        };
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        if !ok {
            failed.push(exp);
        }
        experiment_json.push(Json::obj([
            ("id", Json::str(exp)),
            ("title", title),
            (
                "driver",
                Json::str(if in_process.is_some() {
                    "in-process"
                } else {
                    "subprocess"
                }),
            ),
            ("ok", Json::from(ok)),
            ("wall_ms", Json::from(wall_ms)),
            ("rows", rows),
            ("solver", solver),
            // Schema 5: fixpoint + event-skipping effort (null for
            // subprocess experiments, which cannot report them).
            ("fixpoint", fixpoint),
            ("sim_skip", sim_skip),
        ]));
    }

    println!("===== engine benchmark =====");
    let comparison = batch_vs_sequential();
    println!("===== solver warm-vs-cold =====");
    let warm_cold = solver_warm_vs_cold();
    println!("===== scenario sweep =====");
    let scenarios = scenario_sweep();
    println!("===== streaming campaign =====");
    let campaign = campaign_sweep();
    println!("===== serving pass =====");
    let (serve_ok, serve) = serve_pass();
    if !serve_ok {
        failed.push("serve");
    }
    println!("===== load pass =====");
    let (load_ok, load) = load_pass();
    if !load_ok {
        failed.push("load");
    }

    let doc = Json::obj([
        // Schema 10: the document gains the `load` block — the
        // open-system load pass (throughput, log2-histogram latency
        // percentiles, shed/retry counts, byte-identity verdict).
        ("schema", Json::from(10_u64)),
        ("suite", Json::str("wcet-bench run_all")),
        (
            "total_ms",
            Json::from(suite_start.elapsed().as_secs_f64() * 1e3),
        ),
        ("experiments", Json::Arr(experiment_json)),
        ("batch_vs_sequential", comparison),
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
    } else {
        eprintln!("failed experiments: {failed:?}");
        std::process::exit(1);
    }
}
