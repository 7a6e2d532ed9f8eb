//! The repository benchmark: one process per workload run.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads (`BENCHMARK.json` lists them, with why each exists):
//!
//! * `campaign-cold` — the checked-in `scenarios/campaign.scn` with a
//!   fresh memo domain, solve context and disk memo per pass;
//! * `campaign-warm` — the same matrix answered from a disk memo that
//!   set-up filled;
//! * `serve` — an in-process server under a closed loop of two clients;
//!   its traced run adds an open-loop Poisson phase and a rate ladder.
//!
//! The program is driven from outside, through public library calls:
//! `run_campaign_with` for campaigns, `wcet_serve::start` plus the frame
//! and protocol codecs for serving. Set-up (parsing, input generation,
//! memo filling, server start, reference bounds and one discarded
//! warm-up) runs three times and its median is `setup_s`; the measured
//! window follows.
//!
//! With `--trace 0` the run measures the end-to-end metrics. With
//! `--trace 1` it replays the workload's cells through each layer's
//! public entry point with a span around every call (see [`replay`]),
//! writes the spans to `.bench_out/spans-<workload>.tsv`, and reports the
//! per-layer metrics. Every run records its generated inputs in
//! `.bench_out/inputs-<workload>-seed<n>.scn`. Both modes check every
//! bound they produce; the last line of standard output is the JSON
//! result, and the exit code is non-zero when any check failed.

mod alloc;
mod campaign;
mod gen;
mod replay;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use wcet_bench::json::Json;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("cells_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`. A
/// layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("scenario.parse_ms", "ms"),
    ("scenario.build_us_per_cell", "us"),
    ("scenario.fingerprint_us_per_cell", "us"),
    ("scenario.dedup_ratio", "ratio"),
    ("scenario.row_reuse_ratio", "ratio"),
    ("scenario.neighbor_hit_ratio", "ratio"),
    ("scenario.cache.open_ms", "ms"),
    ("scenario.cache.lookup_us", "us"),
    ("scenario.cache.append_ms", "ms"),
    ("scenario.cache.bytes_written", "bytes"),
    ("scenario.cache.hit_ratio", "ratio"),
    ("core.memo.hit_ratio", "ratio"),
    ("core.memo.hierarchy_misses", "count"),
    ("core.memo.cost_misses", "count"),
    ("core.memo.bound_misses", "count"),
    ("core.memo.evictions", "count"),
    ("cache.hierarchy_ms", "ms"),
    ("cache.hierarchy_calls", "count"),
    ("cache.fixpoint_evals", "count"),
    ("cache.eval_ratio", "ratio"),
    ("cache.kernel_words", "count"),
    ("pipeline.block_costs_ms", "ms"),
    ("pipeline.calls", "count"),
    ("ilp.ipet_ms", "ms"),
    ("ilp.solves", "count"),
    ("ilp.pivots", "count"),
    ("ilp.warm_hit_ratio", "ratio"),
    ("ilp.certified_ratio", "ratio"),
    ("ilp.fallbacks", "count"),
    ("sim.replay_ms", "ms"),
    ("sim.replays", "count"),
    ("sim.skipped_cycles_per_replay", "cycles"),
    ("serve.open_p50_ms", "ms"),
    ("serve.open_p99_ms", "ms"),
    ("serve.service_p50_ms", "ms"),
    ("serve.gen_lag_p99_ms", "ms"),
    ("serve.codec_us", "us"),
    ("serve.shed_ratio", "ratio"),
    ("serve.retries", "count"),
    ("goodput_rps", "1/s"),
    ("max_rate_rps", "1/s"),
    ("failed_frac", "ratio"),
    ("alloc.per_cell", "count"),
    ("alloc.bytes_per_cell", "bytes"),
    ("alloc.cache_per_call", "count"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// The seed the serve pool is drawn from, and the default `--seed`.
pub const DEFAULT_SEED: u64 = 1;

/// Bounds digests per workload. No workload's bounds depend on the
/// seed, so every seed is checked against them.
const DIGESTS: &str = include_str!("../digests.json");

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// One workload run's parameters.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for disk memos and spans, inside the checkout.
    pub out_dir: PathBuf,
}

/// What a run attempted, what failed, and what it measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records `n` failed operations with a diagnostic.
    pub fn fail(&mut self, n: u64, why: &str) {
        if n > 0 {
            eprintln!("perfbench: CHECK FAILED ({n}): {why}");
            self.failed += n;
        }
    }

    /// Fails once unless `got == want`.
    pub fn expect_eq(&mut self, what: &str, got: u64, want: u64) {
        if got != want {
            self.fail(1, &format!("{what}: traced {got} != untraced {want}"));
        }
    }
}

/// Runs `setup` [`SETUP_REPS`] times, keeping the last result, and
/// returns it with the median wall time in seconds.
pub fn setup_median<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), stats::median(&times)))
}

/// Checks `digest` against the recorded digest of `workload`, in
/// `table` (the `digests.json` document).
pub fn check_digest(table: &str, workload: &str, digest: &stats::Digest) -> Result<(), String> {
    let doc = Json::parse(table).map_err(|e| format!("digests.json: {e}"))?;
    let want = doc
        .get(workload)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("digests.json has no digest for {workload}"))?;
    if want == digest.hex() {
        Ok(())
    } else {
        Err(format!(
            "{workload}: bounds digest {} != recorded {want}",
            digest.hex()
        ))
    }
}

/// Records the digest check's verdict in `out`.
pub fn verify_digest(out: &mut Outcome, workload: &str, d: &stats::Digest) {
    eprintln!("perfbench: {workload} bounds digest {}", d.hex());
    if let Err(e) = check_digest(DIGESTS, workload, d) {
        out.fail(1, &e);
    }
}

/// Writes the run's generated inputs, with its seed, beside its spans.
pub fn record_inputs(run: &Run, workload: &str, specs: &str) -> Result<(), String> {
    let path = run
        .out_dir
        .join(format!("inputs-{workload}-seed{}.scn", run.seed));
    let text = format!(
        "# perfbench --workload {workload} --seed {}\n{specs}\n",
        run.seed
    );
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn parse_args() -> Result<(String, Run), String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((
        workload,
        Run {
            seed,
            seconds,
            trace,
            out_dir: PathBuf::from(".bench_out"),
        },
    ))
}

fn render(outcome: &Outcome, trace: bool) -> String {
    let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<String> = table
        .iter()
        .map(|&(name, unit)| {
            let v = outcome.metrics.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let (workload, run) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&run.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", run.out_dir.display());
        return ExitCode::from(2);
    }
    let result = match workload.as_str() {
        "campaign-cold" | "campaign-warm" => campaign::run(&workload, &run),
        "serve" => serve::run(&run),
        other => Err(format!("unknown workload {other}")),
    };
    let mut outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            return ExitCode::from(2);
        }
    };
    outcome.set(
        "failed_frac",
        stats::ratio(outcome.failed as f64, outcome.attempted.max(1) as f64),
    );
    if !run.trace {
        outcome.set("peak_rss_mb", stats::peak_rss_mb());
    }
    let table: &[(&str, &str)] = if run.trace { &PER_LAYER } else { &END_TO_END };
    for &(name, unit) in table {
        let v = outcome.metrics.get(name).copied().unwrap_or(0.0);
        eprintln!("perfbench: {workload:>14} {name:<34} {v:>16.6} {unit}");
    }
    println!("{}", render(&outcome, run.trace));
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                (
                    m.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_string(),
                    m.get("unit")
                        .and_then(Json::as_str)
                        .expect("unit")
                        .to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(names(&doc, "per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn a_corrupted_digest_fails_the_run() {
        let doc = Json::parse(DIGESTS).expect("digests.json parses");
        for w in ["campaign-cold", "campaign-warm", "serve"] {
            assert!(
                doc.get(w).and_then(Json::as_str).is_some(),
                "{w} has a digest"
            );
        }
        let mut d = stats::Digest::default();
        d.add((1, 2), [Ok(5), Err("unbounded")], None);
        let good = d.hex();
        let flipped = format!(
            "{}{}",
            if good.starts_with('0') { '1' } else { '0' },
            &good[1..]
        );
        let table = |hex: &str| format!("{{\"w\": \"{hex}\"}}");
        assert!(check_digest(&table(&good), "w", &d).is_ok());
        assert!(check_digest(&table(&flipped), "w", &d).is_err());
        assert!(check_digest(&table(&good), "missing", &d).is_err());
        // The failure lands in the result: not correct, one failed.
        let mut out = Outcome::default();
        if let Err(e) = check_digest(&table(&flipped), "w", &d) {
            out.fail(1, &e);
        }
        assert_eq!(out.failed, 1);
        assert!(render(&out, false).starts_with("{\"correct\": false"));
    }
}
