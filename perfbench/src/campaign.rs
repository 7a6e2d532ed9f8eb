//! The campaign workloads, `campaign-cold` and `campaign-warm`: the
//! checked-in campaign matrix run through `run_campaign_with` with two
//! workers, pass after pass.
//!
//! A campaign streams its results: when a chunk is sequenced, its cells'
//! bounds are handed out together, as one batch (that is when the CLI
//! streams its report rows). What a user waits for is the next batch:
//! `latency_p50_ms` and `latency_p99_ms` are the median and 99th
//! percentile of the waits between consecutive batches (from the pass's
//! start for the first), which the chunk cost, the sequencer holding
//! back a finished chunk behind a straggler, and the disk memo's load
//! set; `cells_per_s` is the pass's unique cells per second. Each figure
//! is taken per pass, and the run reports the median pass.

use std::path::Path;
use std::time::{Duration, Instant};

use wcet_bench::scenario::{
    parse_matrix, run_campaign_with, CampaignOptions, CampaignRun, CellOutcome, Scenario,
    ScenarioMatrix,
};
use wcet_core::debug_fingerprint;
use wcet_serve::CellBounds;

use crate::replay::{Counts, Layers};
use crate::stats::{self, Digest};
use crate::trace::Tracer;
use crate::{alloc, record_inputs, setup_median, verify_digest, Outcome, Run};

/// Campaign workers: two, the CPU count the benchmark is sized for.
const WORKERS: usize = 2;

/// The checked-in campaign matrix.
const CAMPAIGN_SPEC: &str = "scenarios/campaign.scn";

/// One cell in this many is simulator-validated, picked by the seed.
const SAMPLE_ONE_IN: u64 = 500;

/// A result that follows the previous one by more than this starts a
/// new batch. The cells of one batch are handed out back to back, 98 %
/// of them within 20 µs of the one before; batches are about a
/// millisecond apart.
const BATCH_GAP: Duration = Duration::from_micros(50);

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Cold,
    Warm,
}

/// One pass's options over the disk memo at `memo`.
fn options(seed: u64, workers: usize, memo: &Path) -> CampaignOptions {
    CampaignOptions {
        threads: workers,
        sample_one_in: SAMPLE_ONE_IN,
        seed,
        cache: Some(memo.to_path_buf()),
        ..CampaignOptions::default()
    }
}

fn add_cell(d: &mut Digest, c: &CellOutcome) {
    let failure = c.failure.as_ref().map(|f| f.message.as_str());
    d.add(
        c.fingerprint,
        c.rows
            .iter()
            .map(|r| r.outcome.as_ref().map(|b| b.wcet).map_err(String::as_str)),
        c.error.as_deref().or(failure),
    );
}

/// One pass's result, bounds digest and timing.
struct Pass {
    run: CampaignRun,
    digest: Digest,
    wall: Duration,
    /// The wait for each batch of results, in milliseconds.
    waits: Vec<f64>,
}

/// Runs one pass. A cold pass starts from an empty disk memo.
fn pass(matrix: &ScenarioMatrix, opts: &CampaignOptions, fresh_memo: bool) -> Pass {
    if let (true, Some(path)) = (fresh_memo, &opts.cache) {
        let _ = std::fs::remove_file(path);
    }
    let mut digest = Digest::default();
    let mut waits = Vec::new();
    let t0 = Instant::now();
    let mut last = None;
    let run = run_campaign_with(matrix, opts, |c| {
        let now = Instant::now();
        let gap = now - last.unwrap_or(t0);
        if last.is_none() || gap > BATCH_GAP {
            waits.push(gap.as_secs_f64() * 1e3);
        }
        last = Some(now);
        add_cell(&mut digest, c);
    });
    let wall = t0.elapsed();
    Pass {
        run,
        digest,
        wall,
        waits,
    }
}

/// Checks one pass: same bounds as the reference, no supervised
/// failure, every validated cell sound, the disk memo written cleanly.
fn check_pass(
    out: &mut Outcome,
    run: &CampaignRun,
    digest: &Digest,
    reference: &Digest,
    what: &str,
) {
    out.attempted += run.unique as u64;
    if digest != reference {
        out.fail(
            1,
            &format!(
                "{what}: bounds digest {} != reference {}",
                digest.hex(),
                reference.hex()
            ),
        );
    }
    out.fail(
        run.failures as u64,
        &format!("{what}: supervised cell failures"),
    );
    out.fail(
        run.violations.len() as u64,
        &format!(
            "{what}: validated cells broke their bound: {:?}",
            run.violations
        ),
    );
    if let Some(e) = &run.cache_error {
        out.fail(1, &format!("{what}: disk memo write failed: {e}"));
    }
}

struct Prepared {
    text: String,
    matrix: ScenarioMatrix,
    parse_ms: f64,
    reference: Digest,
}

pub fn run(workload: &str, run: &Run) -> Result<Outcome, String> {
    let kind = if workload == "campaign-warm" {
        Kind::Warm
    } else {
        Kind::Cold
    };
    let memo = run.out_dir.join(format!("{workload}.memo"));
    let mut out = Outcome::default();

    let (prep, setup_s) = setup_median(|| {
        let t0 = Instant::now();
        let text =
            std::fs::read_to_string(CAMPAIGN_SPEC).map_err(|e| format!("{CAMPAIGN_SPEC}: {e}"))?;
        let matrix = parse_matrix(&text).map_err(|e| e.to_string())?;
        let parse_ms = t0.elapsed().as_secs_f64() * 1e3;
        let opts = options(run.seed, WORKERS, &memo);
        // Warm: set-up fills the disk memo with one cold pass, whose
        // bounds every warm pass must reproduce (cold ≡ disk-warm).
        let filled = (kind == Kind::Warm).then(|| pass(&matrix, &opts, true));
        // One discarded warm-up pass.
        let Pass {
            run: warm_up,
            digest,
            ..
        } = pass(&matrix, &opts, kind == Kind::Cold);
        let reference = match &filled {
            Some(fill) => {
                let r = &fill.run;
                if r.failures > 0 || !r.violations.is_empty() || r.cache_error.is_some() {
                    return Err("the pass filling the disk memo failed".to_string());
                }
                fill.digest
            }
            None => digest,
        };
        if digest != reference || warm_up.failures > 0 || !warm_up.violations.is_empty() {
            return Err(format!(
                "warm-up pass disagrees with its reference: {} vs {}",
                digest.hex(),
                reference.hex()
            ));
        }
        eprintln!(
            "perfbench: {workload}: {} cells, {} unique, {} validated ({} sound), set-up pass {:.3} s",
            warm_up.total_cells,
            warm_up.unique,
            warm_up.validated,
            warm_up.sound,
            warm_up.wall.as_secs_f64()
        );
        Ok(Prepared {
            text,
            matrix,
            parse_ms,
            reference,
        })
    })?;
    out.set("setup_s", setup_s);
    eprintln!(
        "perfbench: {workload}: peak RSS after set-up {:.1} MB",
        stats::peak_rss_mb()
    );
    stats::reset_peak_rss();
    verify_digest(&mut out, workload, &prep.reference);
    record_inputs(run, workload, &prep.text)?;

    let result = if run.trace {
        traced(kind, workload, run, &prep, &memo, &mut out)
    } else {
        measure(kind, workload, run, &prep, &memo, &mut out);
        Ok(())
    };
    let _ = std::fs::remove_file(&memo);
    result.map(|()| out)
}

/// The measured window: whole passes until `run.seconds` have passed.
fn measure(kind: Kind, workload: &str, run: &Run, prep: &Prepared, memo: &Path, out: &mut Outcome) {
    let opts = options(run.seed, WORKERS, memo);
    let window = Duration::from_secs_f64(run.seconds);
    let start = Instant::now();
    let (mut walls, mut rates, mut p50s, mut p99s) = (vec![], vec![], vec![], vec![]);
    loop {
        let p = pass(&prep.matrix, &opts, kind == Kind::Cold);
        check_pass(out, &p.run, &p.digest, &prep.reference, "measured pass");
        let wall = p.wall.as_secs_f64();
        walls.push(wall);
        rates.push(p.run.unique as f64 / wall);
        p50s.push(stats::percentile(&p.waits, 50.0));
        p99s.push(stats::percentile(&p.waits, 99.0));
        if start.elapsed() >= window {
            break;
        }
    }
    eprintln!(
        "perfbench: {workload}: {} measured passes of {} cells, wall s {walls:.3?}, \
         batch wait p50 ms {p50s:.3?}, p99 ms {p99s:.3?}",
        walls.len(),
        prep.matrix.num_cells()
    );
    out.set("cells_per_s", stats::median(&rates));
    out.set("latency_p50_ms", stats::median(&p50s));
    out.set("latency_p99_ms", stats::median(&p99s));
}

/// The traced run: one untraced single-worker pass (deterministic
/// counters and the cells to replay), then the traced layer replay of
/// those cells, then the consistency checks.
fn traced(
    kind: Kind,
    workload: &str,
    run: &Run,
    prep: &Prepared,
    memo: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    out.set("scenario.parse_ms", prep.parse_ms);
    let opts = options(run.seed, 1, memo);
    if kind == Kind::Cold {
        let _ = std::fs::remove_file(memo);
    }
    let mut cells: Vec<(Scenario, CellBounds)> = Vec::new();
    let mut digest = Digest::default();
    let t0 = Instant::now();
    let r = run_campaign_with(&prep.matrix, &opts, |c| {
        add_cell(&mut digest, c);
        cells.push((c.scenario.clone(), CellBounds::of(c)));
    });
    let untraced = t0.elapsed().as_secs_f64();
    check_pass(out, &r, &digest, &prep.reference, "untraced reference pass");

    let mut layers = Layers::new(run.seed, SAMPLE_ONE_IN);
    let mut tracer = Tracer::new();
    let trace_memo = run.out_dir.join(format!("{workload}.trace.memo"));
    alloc::set_enabled(true);
    let t1 = Instant::now();
    match kind {
        Kind::Warm => layers.open_disk(&mut tracer, memo),
        Kind::Cold => layers.write_disk(&trace_memo, debug_fingerprint(&prep.matrix)),
    }
    for (id, (scn, expected)) in cells.iter().enumerate() {
        layers.cell(&mut tracer, id as u64, scn, expected);
    }
    layers.finish_disk(&mut tracer);
    let traced = t1.elapsed().as_secs_f64();
    alloc::set_enabled(false);
    let bytes_written = std::fs::metadata(&trace_memo).map_or(0, |m| m.len());
    let _ = std::fs::remove_file(&trace_memo);

    let c = layers.counts;
    out.fail(c.mismatches, "traced bounds differ from the untraced run");
    out.fail(c.unsound, "a traced validation broke its bound");
    out.expect_eq(
        "cache calls vs hierarchy_misses",
        c.hierarchy_calls,
        r.memo.hierarchy_misses,
    );
    out.expect_eq(
        "pipeline calls vs cost_misses",
        c.cost_calls,
        r.memo.cost_misses,
    );
    out.expect_eq(
        "ilp solves vs bound_misses",
        c.ipet_solves,
        r.memo.bound_misses,
    );
    out.expect_eq("sim replays vs validated", c.replays, r.validated as u64);

    report_layers(out, &tracer, &c, traced, untraced);
    out.set("scenario.cache.bytes_written", bytes_written as f64);
    let mut agg = Agg::default();
    agg.absorb(&r);
    agg.report(out);
    let spans = run.out_dir.join(format!("spans-{workload}.tsv"));
    tracer
        .write_tsv(&spans)
        .map_err(|e| format!("{}: {e}", spans.display()))?;
    eprintln!(
        "perfbench: {workload}: traced {} cells in {traced:.3} s (untraced {untraced:.3} s); spans in {}",
        c.cells,
        spans.display()
    );
    Ok(())
}

/// Public campaign counters, summed over one or more campaign runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    produced: u64,
    duplicates: u64,
    unique: u64,
    rows_reused: u64,
    disk_hits: u64,
    validated: u64,
    memo_hits: u64,
    memo_lookups: u64,
    neighbor_hits: u64,
    hierarchy_lookups: u64,
    pub hierarchy_misses: u64,
    pub cost_misses: u64,
    pub bound_misses: u64,
    evictions: u64,
    fixpoint_evals: u64,
    sweep_evals: u64,
    kernel_words: u64,
    pivots: u64,
    warm_hits: u64,
    cold_solves: u64,
    certified: u64,
    f64_solves: u64,
    fallbacks: u64,
    skipped_cycles: u64,
}

impl Agg {
    pub fn absorb(&mut self, r: &CampaignRun) {
        let m = &r.memo;
        let s = &r.solver;
        self.produced += r.produced as u64;
        self.duplicates += r.duplicates as u64;
        self.unique += r.unique as u64;
        self.rows_reused += r.rows_reused as u64;
        self.disk_hits += r.disk_hits as u64;
        self.validated += r.validated as u64;
        self.memo_hits += m.hits();
        self.memo_lookups += m.lookups();
        self.neighbor_hits += m.neighbor_hits;
        self.hierarchy_lookups += m.neighbor_hits + m.hierarchy_hits + m.hierarchy_misses;
        self.hierarchy_misses += m.hierarchy_misses;
        self.cost_misses += m.cost_misses;
        self.bound_misses += m.bound_misses;
        self.evictions += m.evictions();
        self.fixpoint_evals += r.fixpoint.evaluated;
        self.sweep_evals += r.fixpoint.sweep_evals;
        self.kernel_words += r.fixpoint.kernel_words;
        self.pivots += s.totals.pivots;
        self.warm_hits += s.warm_hits;
        self.cold_solves += s.cold_solves;
        self.certified += s.totals.certified;
        self.f64_solves += s.totals.f64_solves;
        self.fallbacks += s.totals.fallbacks;
        self.skipped_cycles += r.sim_skip.skipped_cycles;
    }

    /// Sets the per-layer metrics that come from public counters.
    pub fn report(&self, out: &mut Outcome) {
        let f = |x: u64| x as f64;
        out.set(
            "scenario.dedup_ratio",
            stats::ratio(f(self.duplicates), f(self.produced)),
        );
        out.set(
            "scenario.row_reuse_ratio",
            stats::ratio(f(self.rows_reused), f(self.unique)),
        );
        out.set(
            "scenario.neighbor_hit_ratio",
            stats::ratio(f(self.neighbor_hits), f(self.hierarchy_lookups)),
        );
        out.set(
            "scenario.cache.hit_ratio",
            stats::ratio(f(self.disk_hits), f(self.unique)),
        );
        out.set(
            "core.memo.hit_ratio",
            stats::ratio(f(self.memo_hits), f(self.memo_lookups)),
        );
        out.set("core.memo.hierarchy_misses", f(self.hierarchy_misses));
        out.set("core.memo.cost_misses", f(self.cost_misses));
        out.set("core.memo.bound_misses", f(self.bound_misses));
        out.set("core.memo.evictions", f(self.evictions));
        out.set("cache.fixpoint_evals", f(self.fixpoint_evals));
        out.set(
            "cache.eval_ratio",
            stats::ratio(f(self.fixpoint_evals), f(self.sweep_evals)),
        );
        out.set("cache.kernel_words", f(self.kernel_words));
        out.set("ilp.pivots", f(self.pivots));
        out.set(
            "ilp.warm_hit_ratio",
            stats::ratio(f(self.warm_hits), f(self.warm_hits + self.cold_solves)),
        );
        out.set(
            "ilp.certified_ratio",
            stats::ratio(f(self.certified), f(self.f64_solves)),
        );
        out.set("ilp.fallbacks", f(self.fallbacks));
        out.set(
            "sim.skipped_cycles_per_replay",
            stats::ratio(f(self.skipped_cycles), f(self.validated)),
        );
    }
}

/// Per-layer metrics from the spans of a traced replay of `cells` cells
/// that took `traced` seconds against `untraced` for the same work.
pub fn report_layers(out: &mut Outcome, t: &Tracer, c: &Counts, traced: f64, untraced: f64) {
    let totals = t.totals();
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let ms = |name: &str| get(name).total_ns as f64 / 1e6;
    let us_per_call = |name: &str| {
        let l = get(name);
        stats::ratio(l.total_ns as f64 / 1e3, l.calls as f64)
    };
    out.set("scenario.build_us_per_cell", us_per_call("scenario.build"));
    out.set(
        "scenario.fingerprint_us_per_cell",
        us_per_call("scenario.fingerprint"),
    );
    out.set("scenario.cache.open_ms", ms("scenario.cache.open"));
    out.set(
        "scenario.cache.lookup_us",
        us_per_call("scenario.cache.lookup"),
    );
    out.set("scenario.cache.append_ms", ms("scenario.cache.append"));
    out.set("cache.hierarchy_ms", ms("cache.hierarchy"));
    out.set("cache.hierarchy_calls", c.hierarchy_calls as f64);
    out.set("pipeline.block_costs_ms", ms("pipeline.block_costs"));
    out.set("pipeline.calls", c.cost_calls as f64);
    out.set("ilp.ipet_ms", ms("ilp.ipet"));
    out.set("ilp.solves", c.ipet_solves as f64);
    out.set("sim.replay_ms", ms("sim.replay"));
    out.set("sim.replays", c.replays as f64);
    let (allocs, bytes) = t.root_allocs();
    out.set(
        "alloc.per_cell",
        stats::ratio(allocs as f64, c.cells as f64),
    );
    out.set(
        "alloc.bytes_per_cell",
        stats::ratio(bytes as f64, c.cells as f64),
    );
    let hier = get("cache.hierarchy");
    out.set(
        "alloc.cache_per_call",
        stats::ratio(hier.self_allocs as f64, hier.calls as f64),
    );
    let wall_ns = traced * 1e9;
    out.set(
        "trace.unattributed_frac",
        1.0 - stats::ratio(t.attributed_ns() as f64, wall_ns),
    );
    out.set("trace.overhead_frac", stats::ratio(traced, untraced) - 1.0);
    for (name, l) in &totals {
        eprintln!(
            "perfbench: span {name:<24} calls {:>8} total {:>10.3} ms self {:>10.3} ms self-allocs {:>10}",
            l.calls,
            l.total_ns as f64 / 1e6,
            l.self_ns as f64 / 1e6,
            l.self_allocs
        );
    }
}
