//! Streaming-campaign guarantees:
//!
//! 1. the runner is *semantics-preserving*: on the checked-in example
//!    matrix and on random proptest matrices, streamed and collected
//!    (materialized) runs agree cell for cell at any worker count, keep
//!    exactly the cells a lexicographic expansion keeps, and every row
//!    (bound, report, error) equals the cold per-cell oracle in
//!    `common` — including rows served by neighbour reuse — and every
//!    streamed fingerprint equals the whole-tuple fingerprint of a
//!    fresh build;
//! 2. the per-cell output order is deterministic — independent of the
//!    worker count — and re-runs byte-identically;
//! 3. the disk memo round-trips: a warm run serves every bounded cell
//!    with identical bounds, and corrupted or alien cache files fall
//!    back to recomputation instead of poisoning results;
//! 4. the checked-in `campaign.scn` is a genuine 10⁵-cell campaign and
//!    a limited streaming run over it stays sound;
//! 5. every memo-corruption class is survived and *observably counted*:
//!    CRC-corrupt lines (distinct from unparseable ones), a truncated
//!    final line, duplicate fingerprints (last write wins), and a
//!    checkpoint claiming more entries than the file holds;
//! 6. resource budgets fail the starved cell alone — typed (`Budget`,
//!    or `Deadline` for the cell's wall clock), retry-free — and a zero
//!    run deadline stops cleanly and stays resumable;
//! 7. kill-then-`--resume` (including a torn final append) reproduces
//!    the uninterrupted run's memo data lines byte-for-byte and its
//!    emitted bounds exactly.

mod common;

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Duration;

use proptest::prelude::*;
use wcet_bench::scenario::cache::{self, CachedRow, Checkpoint, DiskCache};
use wcet_bench::scenario::run::{build_scenario, TaskRow};
use wcet_bench::scenario::{
    parse_matrix, run_campaign, run_campaign_with, CampaignOptions, CampaignRun, CellBudget,
    FailureKind, ScenarioMatrix,
};
use wcet_core::{debug_fingerprint, program_fingerprint};

/// A materialized run: every cell kept, in expansion order.
fn collected(matrix: &ScenarioMatrix, threads: usize) -> CampaignRun {
    run_campaign(
        matrix,
        &CampaignOptions {
            threads,
            keep_cells: true,
            ..CampaignOptions::default()
        },
    )
}

/// Per-fingerprint `(task, bound-or-error)` projection of streamed rows
/// — the strongest comparison that survives disk-cache row compaction
/// (cached rows carry bounds but no attached reports).
fn row_projection(rows: &[TaskRow]) -> Vec<(String, Result<u64, String>)> {
    rows.iter()
        .map(|r| {
            (
                format!("{}@{}.{}/{}", r.task, r.core, r.thread, r.mode),
                r.outcome.as_ref().map(|b| b.wcet).map_err(Clone::clone),
            )
        })
        .collect()
}

type Projection = BTreeMap<(u64, u64), Vec<(String, Result<u64, String>)>>;

/// Everything [`streaming_rows`] collects: fingerprint → rendered rows,
/// fingerprint → bound projection, the emission-ordered byte stream
/// (for determinism checks) and the run itself.
type Streamed = (
    BTreeMap<(u64, u64), String>,
    Projection,
    Vec<String>,
    CampaignRun,
);

/// Fingerprint → `Debug`-rendered rows and fingerprint → bound
/// projection of a streaming run, plus the emission-ordered byte stream
/// (for determinism checks) and the run itself.
fn streaming_rows(matrix: &ScenarioMatrix, opts: &CampaignOptions) -> Streamed {
    type Collected = (BTreeMap<(u64, u64), String>, Projection, Vec<String>);
    let collected: Mutex<Collected> = Mutex::default();
    let run = run_campaign_with(matrix, opts, |cell| {
        let rendered = format!("{:?}", cell.rows);
        let mut c = collected.lock().expect("collector lock");
        c.2.push(format!("{} {rendered}", cell.scenario.name));
        c.1.insert(cell.fingerprint, row_projection(&cell.rows));
        c.0.insert(cell.fingerprint, rendered);
    });
    let (by_fp, projection, ordered) = collected.into_inner().expect("collector lock");
    (by_fp, projection, ordered, run)
}

#[test]
fn example_matrix_streaming_equals_materialized() {
    let matrix = parse_matrix(include_str!("../../../scenarios/example.scn")).expect("parses");
    let materialized = collected(&matrix, 1);
    let mut streamed = BTreeMap::new();
    let run = run_campaign_with(&matrix, &CampaignOptions::default(), |cell| {
        streamed.insert(cell.fingerprint, cell.rows.clone());
    });
    assert_eq!(run.unique, materialized.cells.len());
    assert_eq!(run.duplicates, materialized.duplicates);
    let names: Vec<String> = materialized
        .cells
        .iter()
        .map(|c| c.scenario.name.clone())
        .collect();
    assert_eq!(names, common::lex_first_names(&matrix));
    for cell in &materialized.cells {
        assert_eq!(
            streamed.get(&cell.fingerprint),
            Some(&cell.rows),
            "streaming and materialized runs must agree on {}",
            cell.scenario.name
        );
        common::assert_cell_matches_oracle(cell);
    }
}

/// The producer fingerprints a cell from its build's hashed
/// `(machine, placement, ` prefix and cached program fingerprints; every
/// streamed value must equal the whole-tuple fingerprint of a fresh
/// build.
#[test]
fn streamed_fingerprints_equal_whole_tuple_recomputation() {
    let matrix = parse_matrix(include_str!("../../../scenarios/example.scn")).expect("parses");
    let mut checked = 0;
    run_campaign_with(&matrix, &CampaignOptions::default(), |cell| {
        let scn = &cell.scenario;
        let built = build_scenario(scn).expect("every example cell builds");
        let task_fps: Vec<(u64, u64)> = built.programs.iter().map(program_fingerprint).collect();
        let whole = debug_fingerprint(&(
            &built.machine,
            &built.placement,
            scn.mode.label(),
            scn.analyze,
            &task_fps,
            scn.cycle_limit,
        ));
        assert_eq!(cell.fingerprint, whole, "{}", scn.name);
        checked += 1;
    });
    assert_eq!(checked, 24);
}

#[test]
fn output_order_is_deterministic_across_worker_counts() {
    let matrix = parse_matrix(include_str!("../../../scenarios/example.scn")).expect("parses");
    let opts = |threads| CampaignOptions {
        threads,
        sample_one_in: 3,
        ..CampaignOptions::default()
    };
    let (_, _, one_worker, _) = streaming_rows(&matrix, &opts(1));
    let (_, _, four_workers, _) = streaming_rows(&matrix, &opts(4));
    let (_, _, again, _) = streaming_rows(&matrix, &opts(4));
    assert!(!one_worker.is_empty());
    assert_eq!(
        one_worker, four_workers,
        "worker count must not change the emitted cell stream"
    );
    assert_eq!(four_workers, again, "re-runs must be byte-identical");
}

#[test]
fn limit_caps_the_expansion() {
    let matrix = parse_matrix(include_str!("../../../scenarios/example.scn")).expect("parses");
    let run = run_campaign(
        &matrix,
        &CampaignOptions {
            limit: Some(5),
            ..CampaignOptions::default()
        },
    );
    assert_eq!(run.produced, 5);
    assert_eq!(run.unique + run.duplicates, 5);
    assert_eq!(run.total_cells, matrix.num_cells());
}

#[test]
fn disk_cache_round_trips_and_tolerates_corruption() {
    let matrix = parse_matrix(
        "name = memo\ncores = 2\narbiter = [rr, tdma:10]\nmode = [isolated, joint]\n\
         cycle_limit = [100000, 200000]\ntasks = \"fir:2x4 crc:16\"\n",
    )
    .expect("parses");
    let dir = std::env::temp_dir().join(format!("wcet-campaign-roundtrip-{}", std::process::id()));
    let path = dir.join("memo.jsonl");
    let _ = std::fs::remove_file(&path);
    let opts = || CampaignOptions {
        cache: Some(path.clone()),
        ..CampaignOptions::default()
    };

    let (_, cold_bounds, _, cold) = streaming_rows(&matrix, &opts());
    assert_eq!(cold.disk_hits, 0, "first run is cold");
    assert_eq!(cold.disk_appended, cold.bounded);
    assert!(cold.disk_appended > 0);

    // Disk-served rows drop their attached reports (bounds only), so
    // compare the (task, wcet) projection, which must match exactly.
    let (_, warm_bounds, _, warm) = streaming_rows(&matrix, &opts());
    assert_eq!(warm.disk_hits, warm.unique, "warm run is fully disk-served");
    assert_eq!(warm.disk_appended, 0);
    assert_eq!(
        cold_bounds, warm_bounds,
        "warm bounds must equal cold bounds"
    );

    // Corrupt the tail (a torn append) — the next run must still serve
    // every intact entry and skip the garbage.
    let mut text = std::fs::read_to_string(&path).expect("cache exists");
    text.push_str("{\"fp\":\"zz\"}\nnot json at all\n");
    std::fs::write(&path, &text).expect("writes");
    let (_, corrupt_bounds, _, corrupt) = streaming_rows(&matrix, &opts());
    assert_eq!(corrupt.disk_hits, warm.disk_hits, "intact entries survive");
    assert_eq!(corrupt_bounds, warm_bounds);

    // An alien schema falls back to a cold run (identical bounds) and
    // the write-back replaces the file.
    std::fs::write(&path, "{\"kind\":\"wcet-campaign-memo\",\"schema\":99}\n").expect("writes");
    let (_, alien_bounds, _, alien) = streaming_rows(&matrix, &opts());
    assert_eq!(alien.disk_hits, 0, "alien schema must not be trusted");
    assert_eq!(alien.disk_appended, alien.bounded);
    assert_eq!(alien_bounds, cold_bounds);
    let replaced = std::fs::read_to_string(&path).expect("cache exists");
    assert!(replaced.starts_with("{\"kind\":\"wcet-campaign-memo\",\"schema\":2}"));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn campaign_matrix_is_a_six_figure_campaign_and_streams_soundly() {
    let matrix = parse_matrix(include_str!("../../../scenarios/campaign.scn")).expect("parses");
    assert!(
        matrix.num_cells() >= 100_000,
        "campaign.scn must be a ≥100k-cell campaign, got {}",
        matrix.num_cells()
    );
    let run = run_campaign(
        &matrix,
        &CampaignOptions {
            limit: Some(3000),
            sample_one_in: 200,
            seed: 7,
            ..CampaignOptions::default()
        },
    );
    assert_eq!(run.produced, 3000);
    assert!(run.bounded > 0, "the campaign must produce bounds");
    assert!(
        run.rows_reused > 0,
        "cycle_limit-only neighbours must reuse rows"
    );
    assert!(
        run.memo.neighbor_hits > 0,
        "bus-delta neighbours must reuse fixpoint artifacts"
    );
    assert!(run.validated > 0, "the seeded sample must pick cells");
    assert_eq!(
        run.violations,
        Vec::<String>::new(),
        "sampled cells must all be sound"
    );
}

/// The small fully-bounded matrix the corruption-class tests run (every
/// unique cell gets a bound, so memo arithmetic is exact).
const MEMO_MATRIX: &str = "name = memo\ncores = 2\narbiter = [rr, tdma:10]\n\
                           mode = [isolated, joint]\ncycle_limit = [100000, 200000]\n\
                           tasks = \"fir:2x4 crc:16\"\n";

fn temp_memo(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("wcet-campaign-{tag}-{}", std::process::id()));
    let path = dir.join("memo.jsonl");
    let _ = std::fs::remove_file(&path);
    path
}

/// Flips one digit inside the JSON payload of the last *entry* line —
/// the payload stays parseable, so only the CRC can catch it.
fn poison_last_entry_line(path: &std::path::Path) {
    let text = std::fs::read_to_string(path).expect("memo exists");
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let idx = lines
        .iter()
        .rposition(|l| l.contains("\"fp\":"))
        .expect("an entry line");
    let tab = lines[idx].find('\t').expect("CRC prefix");
    let mut line = std::mem::take(&mut lines[idx]).into_bytes();
    let digit = (tab..line.len())
        .find(|&i| line[i].is_ascii_digit())
        .expect("a digit in the payload");
    line[digit] = if line[digit] == b'9' { b'8' } else { b'9' };
    lines[idx] = String::from_utf8(line).expect("still ASCII");
    std::fs::write(path, format!("{}\n", lines.join("\n"))).expect("writes");
}

#[test]
fn crc_corrupt_entry_is_rejected_counted_and_recomputed() {
    let matrix = parse_matrix(MEMO_MATRIX).expect("parses");
    let path = temp_memo("crc");
    let opts = || CampaignOptions {
        cache: Some(path.clone()),
        ..CampaignOptions::default()
    };
    let (_, cold_bounds, _, cold) = streaming_rows(&matrix, &opts());
    assert!(cold.bounded > 1);
    poison_last_entry_line(&path);

    // The poisoned entry is rejected on the CRC (not as unparseable),
    // its cell alone recomputed — with the same bound — and re-appended.
    let (_, warm_bounds, _, warm) = streaming_rows(&matrix, &opts());
    assert_eq!(warm.disk_crc_rejected, 1, "CRC corruption is counted");
    assert_eq!(warm.disk_skipped, 0, "…distinctly from unparseable lines");
    assert_eq!(warm.disk_hits, cold.bounded - 1);
    assert_eq!(warm.disk_appended, 1, "the recomputed cell is re-appended");
    assert_eq!(warm_bounds, cold_bounds, "bounds are unaffected");

    // The re-appended duplicate supersedes the poisoned line (last
    // write wins), so a third run is fully disk-served again.
    let (_, third_bounds, _, third) = streaming_rows(&matrix, &opts());
    assert_eq!(third.disk_crc_rejected, 1, "the poisoned line remains");
    assert_eq!(third.disk_hits, cold.bounded);
    assert_eq!(third.disk_appended, 0);
    assert_eq!(third_bounds, cold_bounds);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn truncated_final_line_is_skipped_without_losing_entries() {
    let matrix = parse_matrix(MEMO_MATRIX).expect("parses");
    let path = temp_memo("trunc");
    let opts = || CampaignOptions {
        cache: Some(path.clone()),
        ..CampaignOptions::default()
    };
    let (_, cold_bounds, _, cold) = streaming_rows(&matrix, &opts());
    // Tear mid-line, as a `kill -9` during the final append would. The
    // last line is the campaign's closing checkpoint, so every entry
    // stays intact.
    let bytes = std::fs::read(&path).expect("memo exists");
    std::fs::write(&path, &bytes[..bytes.len() - 9]).expect("writes");
    let (_, warm_bounds, _, warm) = streaming_rows(&matrix, &opts());
    assert_eq!(warm.disk_skipped, 1, "the torn line is counted as skipped");
    assert_eq!(warm.disk_crc_rejected, 0);
    assert_eq!(warm.disk_hits, cold.bounded, "no entry was lost");
    assert_eq!(warm_bounds, cold_bounds);
    let _ = std::fs::remove_file(&path);
}

fn cached_row(task: &str, wcet: u64) -> CachedRow {
    CachedRow {
        task: task.into(),
        core: 0,
        thread: 0,
        mode: "isolated".into(),
        wcet,
    }
}

fn append_raw_line(path: &std::path::Path, line: &str) {
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(path)
        .expect("memo exists");
    writeln!(f, "{line}").expect("writes");
}

#[test]
fn duplicate_fingerprints_last_write_wins() {
    let path = temp_memo("dup");
    let cache = DiskCache::open(&path);
    cache
        .append(&[((1, 2), vec![cached_row("fir", 10)])])
        .expect("writes");
    // A second, newer line for the same fingerprint — as an append-only
    // file accumulates across re-runs — must shadow the first.
    append_raw_line(&path, &cache::entry_line((1, 2), &[cached_row("fir", 99)]));
    let warm = DiskCache::open(&path);
    assert_eq!(warm.len(), 1);
    assert_eq!(warm.skipped, 0);
    assert_eq!(warm.crc_rejected, 0);
    assert_eq!(warm.lookup((1, 2)), Some(&[cached_row("fir", 99)][..]));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn checkpoint_newer_than_the_memo_is_ignored() {
    let path = temp_memo("ckpt-tamper");
    let cache = DiskCache::open(&path);
    cache
        .append(&[((1, 2), vec![cached_row("fir", 10)])])
        .expect("writes");
    // A checkpoint claiming five durable entries over a one-entry file
    // (a truncated or tampered memo) must not be trusted — `--resume`
    // degrades to recomputation instead of losing cells.
    append_raw_line(&path, &cache::checkpoint_line((7, 8), 640, 5));
    let warm = DiskCache::open(&path);
    assert_eq!(warm.checkpoint(), None, "inflated checkpoint is ignored");
    // An honest checkpoint over the same file is trusted.
    append_raw_line(&path, &cache::checkpoint_line((7, 8), 640, 1));
    assert_eq!(
        DiskCache::open(&path).checkpoint(),
        Some(Checkpoint {
            matrix: (7, 8),
            produced: 640,
            entries: 1,
        })
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn budget_starved_cells_fail_alone_without_retries() {
    let matrix = parse_matrix(MEMO_MATRIX).expect("parses");
    let starved = run_campaign(
        &matrix,
        &CampaignOptions {
            keep_cells: true,
            budget: CellBudget {
                max_pivots: Some(1),
                max_fixpoint_evals: Some(1),
                max_cell_ms: None,
            },
            ..CampaignOptions::default()
        },
    );
    assert!(starved.failures > 0, "a 1-pivot budget must starve cells");
    assert_eq!(starved.retries, 0, "budget exhaustion must never retry");
    let failed: Vec<_> = starved
        .cells
        .iter()
        .filter_map(|c| c.failure.as_ref().map(|f| (c, f)))
        .collect();
    assert_eq!(failed.len(), starved.failures);
    for (cell, failure) in failed {
        assert_eq!(failure.kind, FailureKind::Budget);
        assert_eq!(failure.retries, 0);
        assert!(!cell.all_bounded(), "a failed cell must not claim bounds");
    }
    // The same matrix unbudgeted is clean — the failures were the
    // budget's, not the analysis's.
    let clean = run_campaign(&matrix, &CampaignOptions::default());
    assert_eq!(clean.failures, 0);
    assert_eq!(clean.errors, 0);
}

#[test]
fn an_exhausted_cell_wall_clock_fails_the_cell_as_a_deadline() {
    let matrix = parse_matrix(MEMO_MATRIX).expect("parses");
    let run = run_campaign(
        &matrix,
        &CampaignOptions {
            keep_cells: true,
            budget: CellBudget {
                max_cell_ms: Some(0),
                ..CellBudget::default()
            },
            ..CampaignOptions::default()
        },
    );
    assert!(run.failures > 0, "a zero wall clock must expire");
    for failure in run.cells.iter().filter_map(|c| c.failure.as_ref()) {
        assert_eq!(failure.kind, FailureKind::Deadline, "{}", failure.message);
        assert_eq!(failure.retries, 0, "deadline exhaustion must never retry");
        assert!(
            failure.message.contains("wall-clock"),
            "{}",
            failure.message
        );
    }
}

#[test]
fn zero_deadline_stops_cleanly_and_stays_resumable() {
    let matrix = parse_matrix(MEMO_MATRIX).expect("parses");
    let path = temp_memo("deadline");
    let expired = run_campaign(
        &matrix,
        &CampaignOptions {
            cache: Some(path.clone()),
            deadline: Some(Duration::ZERO),
            ..CampaignOptions::default()
        },
    );
    assert!(expired.deadline_hit, "an expired deadline is reported");
    assert_eq!(expired.produced, 0, "no work is handed out past it");
    assert_eq!(expired.failures, 0);
    // Continuing the campaign (here: a plain rerun against the same
    // memo) completes the coverage the deadline cut short.
    let completed = run_campaign(
        &matrix,
        &CampaignOptions {
            cache: Some(path.clone()),
            resume: true,
            ..CampaignOptions::default()
        },
    );
    assert!(!completed.deadline_hit);
    assert!(completed.bounded > 0);
    let _ = std::fs::remove_file(&path);
}

/// The memo's entry lines (CRC-prefixed data rows), in file order —
/// checkpoint records are interleaved bookkeeping and excluded.
fn memo_entry_lines(path: &std::path::Path) -> Vec<String> {
    std::fs::read_to_string(path)
        .expect("memo exists")
        .lines()
        .filter(|l| l.contains("\"fp\":"))
        .map(str::to_string)
        .collect()
}

#[test]
fn kill_and_resume_reproduces_the_uninterrupted_run_byte_for_byte() {
    let matrix = parse_matrix(include_str!("../../../scenarios/campaign.scn")).expect("parses");
    const INTERRUPT_AT: usize = 1100;
    const RESUME_TO: usize = 2200;
    let killed = temp_memo("kill-resume");
    let reference_memo = temp_memo("kill-resume-ref");

    // Phase 1: the run that dies — `--limit` plays `kill -9`, and the
    // torn tail below plays the half-written line the kill left behind.
    let (_, interrupted_bounds, _, interrupted) = streaming_rows(
        &matrix,
        &CampaignOptions {
            cache: Some(killed.clone()),
            limit: Some(INTERRUPT_AT),
            ..CampaignOptions::default()
        },
    );
    assert_eq!(interrupted.produced, INTERRUPT_AT);
    let bytes = std::fs::read(&killed).expect("memo exists");
    std::fs::write(&killed, &bytes[..bytes.len() - 7]).expect("tears");

    // Phase 2: resume. The torn final checkpoint is skipped; the last
    // intact one (a periodic, chunk-aligned record) fast-forwards the
    // odometer, and the durable entries serve the gap as disk hits.
    let (_, resumed_bounds, _, resumed) = streaming_rows(
        &matrix,
        &CampaignOptions {
            cache: Some(killed.clone()),
            limit: Some(RESUME_TO),
            resume: true,
            ..CampaignOptions::default()
        },
    );
    assert!(resumed.resumed > 0, "resume must fast-forward");
    assert!(
        resumed.resumed < INTERRUPT_AT,
        "…to the torn-back checkpoint"
    );
    assert_eq!(resumed.disk_skipped, 1, "the torn line is counted");
    assert_eq!(resumed.produced, RESUME_TO);

    // The uninterrupted reference run over its own memo.
    let (_, reference_bounds, _, reference) = streaming_rows(
        &matrix,
        &CampaignOptions {
            cache: Some(reference_memo.clone()),
            limit: Some(RESUME_TO),
            ..CampaignOptions::default()
        },
    );
    assert_eq!(reference.produced, RESUME_TO);

    // Bounds: interrupted ∪ resumed covers exactly what the reference
    // emitted, cell for cell.
    let mut union = interrupted_bounds;
    union.extend(resumed_bounds);
    assert_eq!(
        union, reference_bounds,
        "kill-then-resume must reproduce the uninterrupted bounds"
    );
    // Memo: the data lines of both files are byte-identical, in order
    // (only the interleaved checkpoint records may differ).
    assert_eq!(
        memo_entry_lines(&killed),
        memo_entry_lines(&reference_memo),
        "kill-then-resume must reproduce the uninterrupted memo"
    );
    let _ = std::fs::remove_file(&killed);
    let _ = std::fs::remove_file(&reference_memo);
}

const ARB_EXTRAS: [&str; 4] = ["tdma:12", "mbba:2-1@12", "wheel:16", "fp:0"];
const L2S: [&str; 3] = ["shared", "partitioned", "none"];
const MODE_PAIRS: [&str; 3] = [
    "[isolated, joint]",
    "[isolated, static-ctrl]",
    "[solo, isolated]",
];
const LIMIT_AXES: [&str; 2] = ["100000", "[100000, 200000]"];
const MEMO_ARBS: [&str; 3] = ["rr", "tdma:12", "wheel:16"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random matrices with duplicate-inducing axes: runs at one and
    /// three workers keep the cells a lexicographic expansion keeps, in
    /// its order, and every row — neighbour-reused or not — equals the
    /// cold per-cell oracle.
    #[test]
    fn streaming_equals_materialized_on_random_matrices(
        seed in 0u64..500,
        cores in 1usize..=2,
        arb_idx in 0usize..ARB_EXTRAS.len(),
        l2_idx in 0usize..L2S.len(),
        mode_idx in 0usize..MODE_PAIRS.len(),
        limit_idx in 0usize..LIMIT_AXES.len(),
    ) {
        let (arb_extra, l2, modes, limits) = (
            ARB_EXTRAS[arb_idx], L2S[l2_idx], MODE_PAIRS[mode_idx], LIMIT_AXES[limit_idx],
        );
        // `l2 = none` × two geometries forces duplicates through the
        // dedup path; two cycle limits force row-reuse deltas.
        let spec = format!(
            "name = prop\ncores = {cores}\narbiter = [rr, {arb_extra}]\n\
             l2_geom = [64x4x32@4, 128x4x32@4]\nl2 = {l2}\nmode = {modes}\n\
             cycle_limit = {limits}\ntasks = rand:{seed}\n",
        );
        let matrix = parse_matrix(&spec).expect("spec parses");
        let materialized = collected(&matrix, 1);
        let streamed = collected(&matrix, 3);
        prop_assert_eq!(streamed.unique + streamed.duplicates, matrix.num_cells());
        prop_assert_eq!(streamed.unique, materialized.cells.len());
        prop_assert_eq!(streamed.duplicates, materialized.duplicates);
        let names: Vec<String> = streamed.cells.iter().map(|c| c.scenario.name.clone()).collect();
        prop_assert_eq!(names, common::lex_first_names(&matrix));
        for (s, m) in streamed.cells.iter().zip(&materialized.cells) {
            prop_assert_eq!(&s.scenario.name, &m.scenario.name);
            prop_assert_eq!(s.fingerprint, m.fingerprint);
            prop_assert_eq!(&s.rows, &m.rows);
            common::assert_cell_matches_oracle(s);
        }
    }

    /// The disk memo on random matrices: cold, warm, and
    /// corrupted-then-recovered runs all agree on every bound.
    #[test]
    fn disk_cache_agrees_on_random_matrices(
        seed in 0u64..500,
        arb_idx in 0usize..MEMO_ARBS.len(),
    ) {
        let arb = MEMO_ARBS[arb_idx];
        let spec = format!(
            "name = prop-memo\ncores = 2\narbiter = {arb}\nmode = [isolated, joint]\n\
             cycle_limit = [100000, 200000]\ntasks = rand:{seed}\n",
        );
        let matrix = parse_matrix(&spec).expect("spec parses");
        let dir = std::env::temp_dir().join(format!(
            "wcet-campaign-prop-{}-{seed}-{arb_idx}",
            std::process::id()
        ));
        let path = dir.join("memo.jsonl");
        let _ = std::fs::remove_file(&path);
        let opts = || CampaignOptions {
            cache: Some(path.clone()),
            keep_cells: true,
            ..CampaignOptions::default()
        };
        let cold = run_campaign(&matrix, &opts());
        let warm = run_campaign(&matrix, &opts());
        prop_assert_eq!(cold.disk_hits, 0);
        prop_assert_eq!(warm.disk_hits, cold.bounded);
        let project = |run: &CampaignRun| -> Projection {
            run.cells
                .iter()
                .map(|c| (c.fingerprint, row_projection(&c.rows)))
                .collect()
        };
        prop_assert_eq!(project(&cold), project(&warm));
        let _ = std::fs::remove_file(&path);
    }
}
