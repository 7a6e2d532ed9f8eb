//! The `wcet` CLI: declarative scenario matrices from the command line,
//! plus the analysis daemon and its client.
//!
//! ```text
//! wcet scenarios list     <spec.scn>                 # expand + dedup, show cells
//! wcet scenarios run      <spec.scn> [--json P] [--md P]   # analyse every cell
//! wcet scenarios validate <spec.scn> [--json P] [--md P]   # analyse + simulate
//! wcet scenarios report   <spec.scn> [--json P] [--md P]   # validate + write
//! wcet serve  [--addr H:P] [--workers N] [--memo-budget N] [--cache PATH]
//!             [--max-inflight N] [--max-queue N]
//! wcet client <addr> <scenario|matrix> <spec.scn>    # submit through a server
//! wcet client <addr> <stats|shutdown>                # probe / stop a server
//! wcet client <addr> raw <payload>                   # send an arbitrary frame
//! wcet load   [addr] [--requests N] [--workers N] [--seed S] ...   # open-system load
//! ```
//!
//! `wcet client` flags: `--timeout-ms N` bounds the TCP connect (a dead
//! address fails fast instead of hanging for the OS default), and
//! `--retries N` (with `--seed S` jitter) retries `Overloaded` sheds
//! and transport failures with exponential backoff — safe because
//! submissions are idempotent (memoized by semantic fingerprint).
//!
//! `wcet load` drives the open-system load harness against a live
//! server (`addr`), or against a private in-process server when `addr`
//! is omitted: seeded Poisson arrivals over `--workers` closed
//! connections, Zipf-popular scenarios from a generated pool, retrying
//! on shed, reporting p50/p95/p99 latency, throughput, and
//! shed/retry/error counts (`--json PATH` writes the schema-10 `load`
//! block).
//!
//! `run` performs analysis only; `validate` additionally replays every
//! cell on the cycle-level simulator and exits non-zero if a
//! sound-by-construction cell breaks its bound; `report` is `validate`
//! plus default output files (`SCENARIOS.json` / `SCENARIOS.md`).
//!
//! ## One run path
//!
//! Every `run`, `validate` and `report` runs the one scenario runner the
//! same way: cells are analysed by work-stealing workers with
//! neighbour-incremental reuse, one tab-separated row per task is
//! printed *as its chunk is sequenced* (in deterministic order, at any
//! worker count), and the run's Markdown document follows. A matrix of
//! fewer than 4096 cross-product cells keeps its cells, so its documents
//! carry every cell; a larger one reports its totals only.
//!
//! ```text
//! wcet scenarios run scenarios/campaign.scn --limit 2000 --threads 4
//! wcet scenarios validate big.scn --sample 500 --seed 7 --cache target/memo.jsonl
//! ```
//!
//! * `--limit N` — stop after N expanded cells (duplicates included);
//! * `--threads N` — worker threads (default: all cores);
//! * `--cache PATH` — persistent fingerprint → bounds memo (JSON lines,
//!   schema-versioned, CRC-checksummed; corrupt lines are skipped,
//!   alien files replaced);
//! * `--sample N` — simulate one in N cells, chosen by a seeded hash
//!   (default: every cell for `validate`/`report`, none for `run`);
//! * `--seed S` — the sample seed (default 0);
//! * `--resume` — fast-forward past the memo's newest checkpoint of
//!   this spec instead of recomputing from rank zero (needs `--cache`);
//! * `--deadline-ms N` — stop handing out work after N ms of wall
//!   clock; in-flight chunks flush, the run stays resumable;
//! * `--budget-pivots N` / `--budget-evals N` / `--budget-cell-ms N` —
//!   per-cell resource budgets (simplex pivots, fixpoint evaluations,
//!   wall clock): a cell that exhausts one fails alone, as a
//!   `failed(budget, …)` row (`failed(deadline, …)` for the wall
//!   clock), instead of stalling its worker;
//! * `--strict` — escalate failed cells and a fired deadline to a hard
//!   error (exit 1).
//!
//! `--json` writes the run document (`run_json`), `--md` its Markdown
//! (`run_markdown`).
//!
//! ## Exit codes
//!
//! * `0` — clean run;
//! * `1` — hard error: bad usage, unreadable spec, output-write or
//!   memo write-back failure, zero bounds, a soundness violation, or
//!   anything `--strict` escalates;
//! * `2` — the campaign finished but some supervised cells failed
//!   (panic or exhausted budget);
//! * `3` — the `--deadline-ms` deadline fired; coverage is partial and
//!   the run can continue with `--resume`.
//!
//! `wcet client` has its own ladder: `0` — the server answered and
//! every row is bounded; `1` — transport failure or a protocol-level
//! rejection (bad frame, bad spec, bad schema); `2` — the server
//! answered but the analysis failed (panic/budget error, or cells with
//! per-task errors). `wcet load`: `0` — every request bounded and
//! byte-identical to the in-process reference; `1` — hard failure
//! (usage, no server, diverged bounds); `2` — some requests failed
//! after retries.

use std::io::Write as _;
use std::net::ToSocketAddrs;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use wcet_bench::load::load_json;
use wcet_bench::scenario::{
    parse_matrix, run_campaign_with, run_json, run_markdown, CampaignOptions, CellBudget,
    ScenarioMatrix,
};
use wcet_core::report::Table;
use wcet_serve::{
    request_with_retry, Client, ErrorKind, LoadConfig, Request, RequestLimits, Response, Retry,
    ServerConfig,
};

const USAGE: &str = "usage: wcet scenarios <list|run|validate|report> <spec.scn> \
                     [--json PATH] [--md PATH] [--limit N] [--threads N] \
                     [--cache PATH] [--sample N] [--seed S] \
                     [--resume] [--strict] [--deadline-ms N] [--budget-pivots N] \
                     [--budget-evals N] [--budget-cell-ms N]\n\
                     \x20      wcet serve [--addr HOST:PORT] [--workers N] \
                     [--memo-budget N] [--cache PATH] [--max-inflight N] [--max-queue N]\n\
                     \x20      wcet client <addr> <scenario|matrix|stats|shutdown|raw> [ARG] \
                     [--timeout-ms N] [--retries N] [--seed S]\n\
                     \x20      wcet load [addr] [--requests N] [--workers N] [--pool N] \
                     [--zipf X] [--rate R] [--seed S] [--retries N] [--deadline-ms N] \
                     [--json PATH]";

const SERVE_USAGE: &str = "usage: wcet serve [--addr HOST:PORT] [--workers N] \
                           [--memo-budget N] [--cache PATH] [--max-inflight N] [--max-queue N]";

const CLIENT_USAGE: &str = "usage: wcet client <addr> <scenario SPEC.scn|matrix SPEC.scn|stats|\
                            shutdown|raw PAYLOAD> [--timeout-ms N] [--retries N] [--seed S]";

const LOAD_USAGE: &str = "usage: wcet load [HOST:PORT] [--requests N] [--workers N] [--pool N] \
                          [--zipf X] [--rate R] [--seed S] [--retries N] [--deadline-ms N] \
                          [--json PATH]";

/// Matrices below this many cross-product cells keep their cells, so the
/// run's documents carry every cell; larger ones report totals only.
const KEEP_CELLS_BELOW: usize = 4096;

struct Args {
    command: String,
    spec_path: String,
    json_out: Option<String>,
    md_out: Option<String>,
    limit: Option<usize>,
    threads: Option<usize>,
    cache: Option<String>,
    sample: Option<u64>,
    seed: u64,
    resume: bool,
    strict: bool,
    deadline_ms: Option<u64>,
    budget_pivots: Option<u64>,
    budget_evals: Option<u64>,
    budget_cell_ms: Option<u64>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut it = argv.iter();
    match it.next().map(String::as_str) {
        Some("scenarios") => {}
        _ => return Err(USAGE.to_string()),
    }
    let command = it.next().ok_or(USAGE)?.clone();
    if !matches!(command.as_str(), "list" | "run" | "validate" | "report") {
        return Err(format!("unknown subcommand {command:?}\n{USAGE}"));
    }
    let spec_path = it.next().ok_or(USAGE)?.clone();
    let mut args = Args {
        command,
        spec_path,
        json_out: None,
        md_out: None,
        limit: None,
        threads: None,
        cache: None,
        sample: None,
        seed: 0,
        resume: false,
        strict: false,
        deadline_ms: None,
        budget_pivots: None,
        budget_evals: None,
        budget_cell_ms: None,
    };
    fn value<'a>(
        it: &mut impl Iterator<Item = &'a String>,
        flag: &str,
    ) -> Result<&'a String, String> {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    }
    fn number<T: std::str::FromStr>(raw: &str, flag: &str) -> Result<T, String> {
        raw.parse()
            .map_err(|_| format!("{flag} needs a number, got {raw:?}"))
    }
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--json" => args.json_out = Some(value(&mut it, "--json")?.clone()),
            "--md" => args.md_out = Some(value(&mut it, "--md")?.clone()),
            "--limit" => args.limit = Some(number(value(&mut it, "--limit")?, "--limit")?),
            "--threads" => args.threads = Some(number(value(&mut it, "--threads")?, "--threads")?),
            "--cache" => args.cache = Some(value(&mut it, "--cache")?.clone()),
            "--sample" => args.sample = Some(number(value(&mut it, "--sample")?, "--sample")?),
            "--seed" => args.seed = number(value(&mut it, "--seed")?, "--seed")?,
            "--resume" => args.resume = true,
            "--strict" => args.strict = true,
            "--deadline-ms" => {
                args.deadline_ms = Some(number(value(&mut it, "--deadline-ms")?, "--deadline-ms")?);
            }
            "--budget-pivots" => {
                args.budget_pivots = Some(number(
                    value(&mut it, "--budget-pivots")?,
                    "--budget-pivots",
                )?);
            }
            "--budget-evals" => {
                args.budget_evals =
                    Some(number(value(&mut it, "--budget-evals")?, "--budget-evals")?);
            }
            "--budget-cell-ms" => {
                args.budget_cell_ms = Some(number(
                    value(&mut it, "--budget-cell-ms")?,
                    "--budget-cell-ms",
                )?);
            }
            _ => return Err(format!("unknown flag {flag:?}\n{USAGE}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("serve") => return serve_main(&argv[1..]),
        Some("client") => return client_main(&argv[1..]),
        Some("load") => return load_main(&argv[1..]),
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let src = match std::fs::read_to_string(&args.spec_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {}: {e}", args.spec_path);
            return ExitCode::FAILURE;
        }
    };
    let matrix = match parse_matrix(&src) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{}: {e}", args.spec_path);
            return ExitCode::FAILURE;
        }
    };

    if args.command == "list" {
        let cells = matrix.expand();
        let mut t = Table::new(
            format!("Scenario matrix `{}` — {} cells", matrix.name, cells.len()),
            &["cell", "description"],
        );
        for c in &cells {
            t.row([c.name.clone(), c.summary()]);
        }
        t.note("duplicates (if any) are removed at run time, by semantic fingerprint.");
        println!("{t}");
        return ExitCode::SUCCESS;
    }

    run_scenarios(&args, &matrix)
}

/// `run`, `validate` and `report`: report rows hit stdout as their chunk
/// sequences, then the run's Markdown (and optional JSON/Markdown
/// outputs), and the exit code follows the one ladder.
fn run_scenarios(args: &Args, matrix: &ScenarioMatrix) -> ExitCode {
    let validate = matches!(args.command.as_str(), "validate" | "report");
    let opts = CampaignOptions {
        threads: args.threads.unwrap_or(0),
        limit: args.limit,
        sample_one_in: args.sample.unwrap_or(u64::from(validate)),
        seed: args.seed,
        cache: args.cache.as_ref().map(PathBuf::from),
        keep_cells: matrix.num_cells() < KEEP_CELLS_BELOW,
        budget: CellBudget {
            max_pivots: args.budget_pivots,
            max_fixpoint_evals: args.budget_evals,
            max_cell_ms: args.budget_cell_ms,
        },
        deadline: args.deadline_ms.map(std::time::Duration::from_millis),
        resume: args.resume,
        ..CampaignOptions::default()
    };
    println!(
        "streaming campaign `{}`: {} cross-product cells{}",
        matrix.name,
        matrix.num_cells(),
        args.limit
            .map(|l| format!(" (limit {l})"))
            .unwrap_or_default(),
    );
    println!("cell\ttask@core.thread\tmode\twcet");
    let stdout = std::io::stdout();
    let mut any_bound = false;
    let run = run_campaign_with(matrix, &opts, |cell| {
        // One tab-separated line per row, streamed in deterministic
        // order; a locked writer keeps multi-row cells contiguous.
        let mut out = stdout.lock();
        if let Some(e) = &cell.error {
            let _ = writeln!(out, "{}\t—\t—\terror: {e}", cell.scenario.name);
            return;
        }
        if let Some(f) = &cell.failure {
            let _ = writeln!(
                out,
                "{}\t—\t—\tfailed({}, retries={}): {}",
                cell.scenario.name, f.kind, f.retries, f.message
            );
            return;
        }
        for row in &cell.rows {
            let wcet = match &row.outcome {
                Ok(b) => {
                    any_bound = true;
                    b.wcet.to_string()
                }
                Err(e) => format!("error: {e}"),
            };
            let sound = cell
                .validation
                .as_ref()
                .map(|v| if v.all_sound { "\tsound" } else { "\tUNSOUND" })
                .unwrap_or_default();
            let _ = writeln!(
                out,
                "{}\t{}@{}.{}\t{}\t{}{}",
                cell.scenario.name, row.task, row.core, row.thread, row.mode, wcet, sound
            );
        }
    });
    let md = run_markdown(&run);
    println!();
    println!("{md}");

    // `report` writes both documents unless told where.
    let out = |flag: &Option<String>, default: &str| {
        flag.clone()
            .or_else(|| (args.command == "report").then(|| default.to_string()))
    };
    let mut failed = false;
    for (path, doc) in [
        (
            out(&args.json_out, "SCENARIOS.json"),
            format!("{}\n", run_json(&run)),
        ),
        (out(&args.md_out, "SCENARIOS.md"), md),
    ] {
        let Some(path) = path else { continue };
        if let Err(e) = std::fs::write(&path, doc) {
            eprintln!("cannot write {path}: {e}");
            failed = true;
        } else {
            println!("wrote {path}");
        }
    }

    // A run that produced no position (`--limit 0`) had nothing to
    // bound, a resumed run may legitimately bound nothing new, a
    // deadline can fire before the first bound lands, and supervised
    // failures carry their own (more precise) diagnostic and exit code —
    // none of these is the everything-broke regression this check
    // exists to catch.
    if !any_bound && run.produced > 0 && !run.deadline_hit && run.resumed == 0 && run.failures == 0
    {
        eprintln!("no cell produced a WCET bound — every cell failed to build or analyse");
        failed = true;
    }
    if !run.violations.is_empty() {
        eprintln!(
            "soundness violations in {} cell(s): {}",
            run.violations.len(),
            run.violations.join(", ")
        );
        failed = true;
    }
    if let Some(e) = &run.cache_error {
        eprintln!("cache write-back failed: {e}");
        failed = true;
    }
    if run.failures > 0 {
        eprintln!(
            "{} cell(s) failed under supervision ({} cold retr{} spent); failed cells are \
             excluded from the memo{}",
            run.failures,
            run.retries,
            if run.retries == 1 { "y" } else { "ies" },
            if args.strict {
                ""
            } else {
                " (pass --strict to make this a hard error)"
            }
        );
    }
    if run.deadline_hit {
        eprintln!(
            "deadline fired after {} of {} odometer positions; rerun with --resume to continue",
            run.produced,
            run.total_cells.min(args.limit.unwrap_or(usize::MAX)),
        );
    }
    // Exit-code ladder: hard errors (1) dominate, then failed cells
    // (2), then a fired deadline (3) — distinct codes so CI and the
    // driver can tell "broken" from "degraded" from "ran out of time".
    if failed || (args.strict && (run.failures > 0 || run.deadline_hit)) {
        ExitCode::FAILURE
    } else if run.failures > 0 {
        ExitCode::from(2)
    } else if run.deadline_hit {
        ExitCode::from(3)
    } else {
        ExitCode::SUCCESS
    }
}

/// `wcet serve`: bind, announce the bound address, and serve until a
/// client sends `shutdown`.
fn serve_main(argv: &[String]) -> ExitCode {
    let mut config = ServerConfig::default();
    let mut it = argv.iter();
    fn value<'a>(
        it: &mut impl Iterator<Item = &'a String>,
        flag: &str,
    ) -> Result<&'a String, String> {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    }
    while let Some(flag) = it.next() {
        let parsed = match flag.as_str() {
            "--addr" => value(&mut it, "--addr").map(|v| config.addr = v.clone()),
            "--workers" => value(&mut it, "--workers").and_then(|v| {
                v.parse()
                    .map(|n| config.workers = n)
                    .map_err(|_| format!("--workers needs a number, got {v:?}"))
            }),
            "--memo-budget" => value(&mut it, "--memo-budget").and_then(|v| {
                v.parse()
                    .map(|n| config.memo_budget = n)
                    .map_err(|_| format!("--memo-budget needs a number, got {v:?}"))
            }),
            "--cache" => value(&mut it, "--cache").map(|v| config.cache = Some(PathBuf::from(v))),
            "--max-inflight" => value(&mut it, "--max-inflight").and_then(|v| {
                v.parse()
                    .map(|n| config.max_inflight = Some(n))
                    .map_err(|_| format!("--max-inflight needs a number, got {v:?}"))
            }),
            "--max-queue" => value(&mut it, "--max-queue").and_then(|v| {
                v.parse()
                    .map(|n| config.max_queue = Some(n))
                    .map_err(|_| format!("--max-queue needs a number, got {v:?}"))
            }),
            _ => Err(format!("unknown flag {flag:?}\n{SERVE_USAGE}")),
        };
        if let Err(e) = parsed {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    let handle = match wcet_serve::start(&config) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("cannot start server on {}: {e}", config.addr);
            return ExitCode::FAILURE;
        }
    };
    // The address line is the startup handshake: scripts (and the CI
    // smoke job) block on it before connecting, so flush it out.
    println!("listening on {}", handle.addr());
    let _ = std::io::stdout().flush();
    handle.join();
    println!("server stopped");
    ExitCode::SUCCESS
}

/// `wcet client`: one request, one printed response, a typed exit code.
/// `--timeout-ms` bounds the connect; `--retries` (with `--seed`
/// jitter) absorbs `Overloaded` sheds and transport hiccups for the
/// typed commands.
fn client_main(argv: &[String]) -> ExitCode {
    let mut positionals: Vec<&String> = Vec::new();
    let mut timeout_ms: Option<u64> = None;
    let mut retries: u32 = 0;
    let mut seed: u64 = 0;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let flag_value = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
            it.next()
                .and_then(|v| v.parse::<u64>().ok())
                .ok_or_else(|| format!("{flag} needs a number\n{CLIENT_USAGE}"))
        };
        let parsed = match arg.as_str() {
            "--timeout-ms" => flag_value(&mut it, "--timeout-ms").map(|n| timeout_ms = Some(n)),
            "--retries" => flag_value(&mut it, "--retries").map(|n| {
                retries = u32::try_from(n).unwrap_or(u32::MAX);
            }),
            "--seed" => flag_value(&mut it, "--seed").map(|n| seed = n),
            _ => {
                positionals.push(arg);
                Ok(())
            }
        };
        if let Err(e) = parsed {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    let (Some(addr), Some(cmd)) = (positionals.first(), positionals.get(1)) else {
        eprintln!("{CLIENT_USAGE}");
        return ExitCode::FAILURE;
    };
    let connect_timeout = Duration::from_millis(timeout_ms.unwrap_or(5_000));

    // The typed commands route through the retrying client when asked
    // to; `raw` stays a single byte-exact exchange.
    let typed: Option<Request> = match cmd.as_str() {
        "scenario" | "matrix" => {
            let Some(spec_path) = positionals.get(2) else {
                eprintln!("{CLIENT_USAGE}");
                return ExitCode::FAILURE;
            };
            let spec = match std::fs::read_to_string(spec_path) {
                Ok(spec) => spec,
                Err(e) => {
                    eprintln!("cannot read {spec_path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            Some(if cmd.as_str() == "scenario" {
                Request::SubmitScenario {
                    spec,
                    limits: RequestLimits::default(),
                }
            } else {
                Request::SubmitMatrix {
                    spec,
                    limits: RequestLimits::default(),
                }
            })
        }
        "stats" => Some(Request::Stats),
        "shutdown" => Some(Request::Shutdown),
        "raw" => None,
        _ => {
            eprintln!("unknown client command {cmd:?}\n{CLIENT_USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let response = match typed {
        Some(request) if retries > 0 => {
            let resolved = match addr
                .as_str()
                .to_socket_addrs()
                .ok()
                .and_then(|mut a| a.next())
            {
                Some(resolved) => resolved,
                None => {
                    eprintln!("cannot resolve {addr}");
                    return ExitCode::FAILURE;
                }
            };
            let policy = Retry {
                retries,
                seed,
                connect_timeout,
                ..Retry::default()
            };
            request_with_retry(resolved, &request, &policy).map(|(response, spent)| {
                if spent.retries > 0 {
                    eprintln!(
                        "{} retr{} spent ({} shed, {} transport)",
                        spent.retries,
                        if spent.retries == 1 { "y" } else { "ies" },
                        spent.shed_retries,
                        spent.transport_retries,
                    );
                }
                response
            })
        }
        _ => {
            let connected = if timeout_ms.is_some() {
                Client::connect_timeout(addr.as_str(), connect_timeout)
            } else {
                Client::connect(addr.as_str())
            };
            match connected {
                Ok(mut client) => match typed {
                    Some(request) => client.request(&request),
                    None => match positionals.get(2) {
                        Some(payload) => client.send_raw(payload),
                        None => {
                            eprintln!("{CLIENT_USAGE}");
                            return ExitCode::FAILURE;
                        }
                    },
                },
                Err(e) => {
                    eprintln!("cannot connect to {addr}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    };
    let response = match response {
        Ok(response) => response,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    match response {
        Response::Bounds(b) => {
            println!("cell\ttask@core.thread\tmode\twcet");
            let mut errors = 0usize;
            for cell in &b.cells {
                if let Some(e) = &cell.error {
                    errors += 1;
                    println!("{}\t—\t—\terror: {e}", cell.cell);
                    continue;
                }
                for row in &cell.rows {
                    match &row.outcome {
                        Ok(wcet) => println!(
                            "{}\t{}@{}.{}\t{}\t{wcet}",
                            cell.cell, row.task, row.core, row.thread, row.mode
                        ),
                        Err(e) => {
                            errors += 1;
                            println!(
                                "{}\t{}@{}.{}\t{}\terror: {e}",
                                cell.cell, row.task, row.core, row.thread, row.mode
                            );
                        }
                    }
                }
            }
            let m = &b.stats.memo;
            println!(
                "{}: {} cell(s), {} duplicate(s), {} disk hit(s); request effort: \
                 {} memo hit(s), {} miss(es), {} solver warm, {} cold, {} pivot(s)",
                b.matrix,
                b.cells.len(),
                b.duplicates,
                b.disk_hits,
                m.hits(),
                m.hierarchy_misses + m.l1_misses + m.cost_misses + m.bound_misses,
                b.stats.solver_warm_hits,
                b.stats.solver_cold_solves,
                b.stats.solver_pivots,
            );
            if errors > 0 {
                eprintln!("{errors} row(s)/cell(s) carry analysis errors");
                ExitCode::from(2)
            } else {
                ExitCode::SUCCESS
            }
        }
        Response::Stats(s) => {
            println!(
                "requests: {}\nmemo entries: {}{}\nmemo hits: {} (evictions: {})\n\
                 disk hits: {}\nsolver warm/cold: {}/{}",
                s.requests,
                s.memo_entries,
                s.memo_budget
                    .map(|b| format!(" (budget {b} per table)"))
                    .unwrap_or_default(),
                s.memo.hits(),
                s.memo.evictions(),
                s.disk_hits,
                s.solver_warm_hits,
                s.solver_cold_solves,
            );
            ExitCode::SUCCESS
        }
        Response::Shutdown { flushed } => {
            println!("server stopping; {flushed} cell(s) flushed to the disk memo");
            ExitCode::SUCCESS
        }
        Response::Error(e) => {
            eprintln!("server error ({}): {}", e.kind, e.message);
            if e.kind == ErrorKind::Protocol {
                ExitCode::FAILURE
            } else {
                ExitCode::from(2)
            }
        }
    }
}

/// `wcet load`: the open-system load harness. Against a live server
/// when an address is given; otherwise a private in-process server on
/// an ephemeral port (started, loaded, stopped — nothing to clean up).
fn load_main(argv: &[String]) -> ExitCode {
    let mut addr_arg: Option<String> = None;
    let mut config = LoadConfig {
        connections: 2,
        ..LoadConfig::default()
    };
    let mut json_out: Option<String> = None;
    let mut it = argv.iter();
    fn value<'a>(
        it: &mut impl Iterator<Item = &'a String>,
        flag: &str,
    ) -> Result<&'a String, String> {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    }
    fn number<T: std::str::FromStr>(raw: &str, flag: &str) -> Result<T, String> {
        raw.parse()
            .map_err(|_| format!("{flag} needs a number, got {raw:?}"))
    }
    while let Some(arg) = it.next() {
        let parsed = match arg.as_str() {
            "--requests" => value(&mut it, "--requests")
                .and_then(|v| number(v, "--requests"))
                .map(|n| config.requests = n),
            "--workers" => value(&mut it, "--workers")
                .and_then(|v| number(v, "--workers"))
                .map(|n| config.connections = n),
            "--pool" => value(&mut it, "--pool")
                .and_then(|v| number(v, "--pool"))
                .map(|n| config.pool = n),
            "--zipf" => value(&mut it, "--zipf")
                .and_then(|v| number(v, "--zipf"))
                .map(|x| config.zipf_exponent = x),
            "--rate" => value(&mut it, "--rate")
                .and_then(|v| number(v, "--rate"))
                .map(|r| config.rate_per_sec = r),
            "--seed" => value(&mut it, "--seed")
                .and_then(|v| number(v, "--seed"))
                .map(|s| config.seed = s),
            "--retries" => value(&mut it, "--retries")
                .and_then(|v| number(v, "--retries"))
                .map(|n| config.retries = n),
            "--deadline-ms" => value(&mut it, "--deadline-ms")
                .and_then(|v| number(v, "--deadline-ms"))
                .map(|ms| config.limits.deadline_ms = Some(ms)),
            "--json" => value(&mut it, "--json").map(|v| json_out = Some(v.clone())),
            flag if flag.starts_with("--") => Err(format!("unknown flag {flag:?}\n{LOAD_USAGE}")),
            addr => {
                addr_arg = Some(addr.to_string());
                Ok(())
            }
        };
        if let Err(e) = parsed {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }

    // Resolve the target: an external server, or a private one sized
    // like the load (same worker count the connections expect).
    let handle = match &addr_arg {
        Some(addr) => {
            match addr
                .as_str()
                .to_socket_addrs()
                .ok()
                .and_then(|mut a| a.next())
            {
                Some(resolved) => config.addr = resolved,
                None => {
                    eprintln!("cannot resolve {addr}");
                    return ExitCode::FAILURE;
                }
            }
            None
        }
        None => {
            let server_config = ServerConfig {
                workers: config.connections,
                ..ServerConfig::default()
            };
            match wcet_serve::start(&server_config) {
                Ok(handle) => {
                    config.addr = handle.addr();
                    Some(handle)
                }
                Err(e) => {
                    eprintln!("cannot start in-process server: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    };
    eprintln!(
        "load: {} requests over {} connections against {} (seed {}, pool {}, zipf {}, \
         {}/s per connection)",
        config.requests,
        config.connections,
        config.addr,
        config.seed,
        config.pool,
        config.zipf_exponent,
        config.rate_per_sec,
    );
    let stats = wcet_serve::run_load(&config);
    if let Some(handle) = handle {
        handle.stop();
    }

    println!(
        "completed {}/{} requests in {:.2}s: throughput {:.1} req/s, latency p50 {:.2} ms, \
         p95 {:.2} ms, p99 {:.2} ms",
        stats.completed,
        stats.requests,
        stats.wall_ms / 1e3,
        stats.throughput_rps,
        stats.p50_ms,
        stats.p95_ms,
        stats.p99_ms,
    );
    println!(
        "shed {} (absorbed by {} retr{}, {} transport), {} failed, {} error response(s), \
         bounds identical to in-process: {}",
        stats.shed,
        stats.retries,
        if stats.retries == 1 { "y" } else { "ies" },
        stats.transport_retries,
        stats.failed,
        stats.error_responses,
        stats.identical_bounds,
    );
    if let Some(path) = json_out {
        match std::fs::write(&path, format!("{}\n", load_json(&stats))) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    // Ladder: diverged bounds (or nothing completed) is a hard failure;
    // requests lost after all retries degrade the run to exit 2.
    if !stats.identical_bounds {
        eprintln!("served bounds diverged from the in-process reference (or nothing completed)");
        ExitCode::FAILURE
    } else if stats.failed > 0 || stats.error_responses > 0 {
        eprintln!(
            "{} request(s) failed after retries ({} typed error response(s))",
            stats.failed, stats.error_responses,
        );
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}
