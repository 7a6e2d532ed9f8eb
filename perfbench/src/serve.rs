//! The `serve` workload: an in-process analysis server driven through
//! its wire protocol.
//!
//! Two client threads each keep one connection open and pick specs from
//! a seeded pool of distinct specs by Zipf(1.1). The measured window is
//! a closed loop: each client sends its next request as soon as the last
//! is answered, so `cells_per_s` is the server's capacity and the
//! latencies are round trips at that load.
//!
//! The traced run drives the server open-loop instead: requests arrive
//! on a seeded Poisson schedule at a fixed nominal rate and are sent by
//! whichever client is free first. Every request is timed from its
//! *intended* send time, so a stall shows in the latency of every
//! request queued behind it; the service time (actual send to response)
//! and the generator lag (actual minus intended send) are kept beside
//! it, all as exact samples. A short fixed rate ladder follows for
//! `max_rate_rps`. On a shared two-CPU host the open-loop percentiles
//! follow the host's scheduling delays more than the server — their
//! ten-run spread reached a third to a half of the median — so they are
//! per-layer figures, not end-to-end ones.
//!
//! The pool is one fixed seeded population ([`POOL_SEED`]); the run's
//! seed draws the arrival schedule and the picks over it.
//!
//! Set-up computes every pool spec's bounds in-process through
//! `run_campaign_with`; every served response must equal them.

use std::io::{Cursor, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use wcet_bench::load::{backoff_ms, poisson_offsets_ns, splitmix64, Rng, Zipf};
use wcet_bench::scenario::{parse_matrix, run_campaign_with, CampaignOptions, Scenario};
use wcet_serve::{
    read_frame, start, write_frame, CellBounds, ErrorKind, Request, RequestLimits, Response,
    ServeError, ServerConfig, ServerHandle,
};

use crate::campaign::{report_layers, Agg};
use crate::replay::Layers;
use crate::stats::{self, Digest};
use crate::trace::Tracer;
use crate::{alloc, gen, record_inputs, setup_median, verify_digest, Outcome, Run};

/// Distinct specs in the request pool.
const POOL: usize = 320;
/// The pool's own seed. The pool is one fixed population; each run's
/// seed draws the traffic over it (arrival times and Zipf picks). A pool
/// redrawn per run seed would move the Zipf head — the few specs most
/// requests hit — and with it every latency percentile, by more than
/// any regression bound.
const POOL_SEED: u64 = crate::DEFAULT_SEED;
/// Server workers: one per CPU the benchmark is sized for.
const WORKERS: usize = 2;
/// Per-table hot-memo budget: below the pool's working set, so the
/// Zipf tail keeps missing and evicting.
const MEMO_BUDGET: usize = 96;
/// Client threads; each keeps one connection open.
const CLIENTS: usize = 2;
/// The nominal offered rate, requests per second.
const NOMINAL_RPS: f64 = 220.0;
/// The traced run's open-loop phase, as a share of the window; the
/// ladder follows. At 25 s the open loop sends about 3 300 requests, so
/// more than thirty lie beyond its p99.
const OPEN_SHARE: f64 = 0.6;
/// Seconds per ladder rate.
const RUNG_S: f64 = 1.0;
/// Ladder rates, as multiples of the nominal rate.
const LADDER: [f64; 4] = [1.0, 1.5, 2.0, 3.0];
/// The p99 latency limit behind `goodput_rps` and `max_rate_rps`.
const LIMIT_MS: f64 = 50.0;
/// The discarded warm-up phase at the nominal rate, in seconds.
const WARMUP_S: f64 = 1.0;
/// Retries per request after a shed or a transport failure.
const MAX_RETRIES: u32 = 8;
/// How long a client waits for a response before it counts the
/// connection as failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);
/// Requests whose raw messages the codec measurement replays.
const CODEC_SAMPLES: usize = 256;

/// The request pool and its in-process reference bounds.
struct Pool {
    specs: Vec<String>,
    requests: Vec<Request>,
    /// Each request encoded and framed, as a client sends it.
    frames: Vec<Vec<u8>>,
    /// Reference cells per request, sorted by cell name.
    expected: Vec<Vec<CellBounds>>,
    scenarios: Vec<Vec<Scenario>>,
    zipf: Zipf,
    parse_ms: f64,
    digest: Digest,
    /// Counters of the reference runs (one fresh campaign per spec).
    reference: Agg,
    reference_s: f64,
}

fn prepare_pool(seed: u64) -> Result<Pool, String> {
    let specs = gen::serve_pool(seed, POOL);
    let t0 = Instant::now();
    let matrices = specs
        .iter()
        .map(|s| parse_matrix(s).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let parse_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut pool = Pool {
        specs: Vec::new(),
        requests: Vec::new(),
        frames: Vec::new(),
        expected: Vec::new(),
        scenarios: Vec::new(),
        zipf: Zipf::new(1, 1.1),
        parse_ms,
        digest: Digest::default(),
        reference: Agg::default(),
        reference_s: 0.0,
    };
    let mut seen = std::collections::HashSet::new();
    let opts = CampaignOptions {
        threads: 1,
        ..CampaignOptions::default()
    };
    for (spec, matrix) in specs.iter().zip(&matrices) {
        let mut cells: Vec<(Scenario, CellBounds)> = Vec::new();
        let t1 = Instant::now();
        let run = run_campaign_with(matrix, &opts, |c| {
            cells.push((c.scenario.clone(), CellBounds::of(c)));
        });
        pool.reference_s += t1.elapsed().as_secs_f64();
        if run.failures > 0 {
            return Err(format!("reference run of {} failed", matrix.name));
        }
        // Distinct specs only: drop one that repeats a cell of another.
        if !cells.iter().all(|(_, b)| seen.insert(b.fingerprint)) {
            continue;
        }
        pool.reference.absorb(&run);
        cells.sort_by(|a, b| a.1.cell.cmp(&b.1.cell));
        for (_, b) in &cells {
            pool.digest.add(
                b.fingerprint,
                b.rows
                    .iter()
                    .map(|r| r.outcome.as_ref().copied().map_err(String::as_str)),
                b.error.as_deref(),
            );
        }
        let request = if matrix.num_cells() == 1 {
            Request::SubmitScenario {
                spec: spec.clone(),
                limits: RequestLimits::default(),
            }
        } else {
            Request::SubmitMatrix {
                spec: spec.clone(),
                limits: RequestLimits::default(),
            }
        };
        pool.specs.push(spec.clone());
        let mut frame = Vec::new();
        write_frame(&mut frame, &request.encode()).map_err(|e| e.to_string())?;
        pool.frames.push(frame);
        pool.requests.push(request);
        let (scenarios, bounds): (Vec<_>, Vec<_>) = cells.into_iter().unzip();
        pool.scenarios.push(scenarios);
        pool.expected.push(bounds);
    }
    pool.zipf = Zipf::new(pool.requests.len(), 1.1);
    Ok(pool)
}

/// One request's timing, all in milliseconds.
#[derive(Clone, Copy)]
struct Sample {
    /// Intended send, from the phase's start.
    due: f64,
    /// Intended send to response.
    latency: f64,
    /// Actual send to response.
    service: f64,
    /// Actual minus intended send.
    lag: f64,
    ok: bool,
    cells: u64,
}

#[derive(Default)]
struct Phase {
    samples: Vec<Sample>,
    attempts: u64,
    sheds: u64,
    retries: u64,
    failed: u64,
    seconds: f64,
    /// Raw `(request index, response payload)` pairs for the codec
    /// measurement.
    raw: Vec<(usize, String)>,
}

impl Phase {
    fn absorb(&mut self, other: Phase) {
        self.samples.extend(other.samples);
        self.attempts += other.attempts;
        self.sheds += other.sheds;
        self.retries += other.retries;
        self.failed += other.failed;
        self.seconds += other.seconds;
        self.raw.extend(other.raw);
    }

    fn latencies(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.latency).collect()
    }

    fn good(&self) -> u64 {
        self.samples
            .iter()
            .filter(|s| s.ok && s.latency <= LIMIT_MS)
            .count() as u64
    }

    /// The generator kept up: the median lag of the phase's last third
    /// is within 2 ms of (twice) that of its first third, in intended
    /// send order.
    fn lag_steady(&self) -> bool {
        let n = self.samples.len();
        if n < 6 {
            return true;
        }
        let lags = |s: &[Sample]| stats::median(&s.iter().map(|x| x.lag).collect::<Vec<_>>());
        lags(&self.samples[2 * n / 3..]) <= 2.0 + 2.0 * lags(&self.samples[..n / 3])
    }
}

/// Sends one framed request on the client's connection and reads the
/// response payload, opening the connection first if there is none.
fn send(conn: &mut Option<TcpStream>, addr: SocketAddr, frame: &[u8]) -> Result<String, String> {
    if conn.is_none() {
        let stream =
            TcpStream::connect_timeout(&addr, Duration::from_secs(2)).map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        *conn = Some(stream);
    }
    let stream = conn.as_mut().expect("connection just opened");
    stream.write_all(frame).map_err(|e| e.to_string())?;
    quick_ack(stream);
    read_frame(stream).map_err(|e| e.to_string())
}

/// Acknowledges the response's frame header at once. The server writes
/// header and payload separately, with Nagle's algorithm on, so its
/// payload waits for that acknowledgement; a delayed one would add the
/// kernel's delayed-ACK timeout to every exchange on a kept-open
/// connection.
#[cfg(target_os = "linux")]
fn quick_ack(stream: &TcpStream) {
    use std::os::linux::net::TcpStreamExt;
    let _ = stream.set_quickack(true);
}

#[cfg(not(target_os = "linux"))]
fn quick_ack(_: &TcpStream) {}

/// Sends one request, retrying sheds and transport failures on a new
/// connection with seeded backoff, as the protocol's own retrying client
/// does. Returns the raw response payload, or `None` once the retries
/// ran out.
fn exchange(
    conn: &mut Option<TcpStream>,
    addr: SocketAddr,
    frame: &[u8],
    seed: u64,
    phase: &mut Phase,
) -> Option<String> {
    for attempt in 0..=MAX_RETRIES {
        phase.attempts += 1;
        if attempt > 0 {
            phase.retries += 1;
        }
        let wait = backoff_ms(5, 200, attempt, seed);
        match send(conn, addr, frame) {
            Ok(raw) => match Response::decode(&raw) {
                Ok(Response::Error(ServeError {
                    kind: ErrorKind::Overloaded { retry_after_ms },
                    ..
                })) => {
                    // The server closes a shed connection.
                    *conn = None;
                    phase.sheds += 1;
                    std::thread::sleep(Duration::from_millis(wait.max(retry_after_ms.min(200))));
                }
                _ => return Some(raw),
            },
            Err(_) => {
                *conn = None;
                std::thread::sleep(Duration::from_millis(wait));
            }
        }
    }
    None
}

/// Checks a response against the reference cells of request `pick`.
fn matches(raw: &str, expected: &[CellBounds]) -> Result<u64, String> {
    match Response::decode(raw) {
        Ok(Response::Bounds(b)) => {
            let mut cells = b.cells;
            cells.sort_by(|x, y| x.cell.cmp(&y.cell));
            if cells == expected {
                Ok(cells.len() as u64)
            } else {
                Err(format!(
                    "served bounds differ from in-process: {cells:?} vs {expected:?}"
                ))
            }
        }
        Ok(other) => Err(format!("unexpected response {other:?}")),
        Err(e) => Err(format!("undecodable response: {e}")),
    }
}

/// Runs one phase for `seconds` from `clients` threads, each keeping
/// one connection open. Open-loop at `Some(rate)`: one seeded Poisson
/// schedule at `rate` requests per second, whose next request the first
/// free client takes, so a request waits for a connection only while
/// every client is busy. Closed-loop at `None`: each client sends its
/// next request as soon as the last is answered. Request `i` picks its
/// spec by Zipf from a seed of its own.
#[allow(clippy::too_many_arguments)]
fn phase(
    addr: SocketAddr,
    pool: &Pool,
    seed: u64,
    tag: u64,
    clients: usize,
    rate: Option<f64>,
    seconds: f64,
    keep_raw: bool,
) -> Phase {
    let horizon_ns = (seconds * 1e9) as u64;
    let stream_seed = splitmix64(splitmix64(seed) ^ tag);
    let schedule: Option<Vec<u64>> = rate.map(|rate| {
        let count = (rate * seconds * 1.5) as usize + 16;
        poisson_offsets_ns(stream_seed, 0, count, rate)
            .into_iter()
            .take_while(|&o| o < horizon_ns)
            .collect()
    });
    let next = AtomicU64::new(0);
    let start = Instant::now() + Duration::from_millis(5);
    let parts: Vec<Phase> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let (schedule, next) = (&schedule, &next);
                scope.spawn(move || {
                    let mut conn = None;
                    let mut out = Phase::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let due = match schedule {
                            Some(offsets) => match offsets.get(i as usize) {
                                Some(&off) => start + Duration::from_nanos(off),
                                None => break,
                            },
                            None => {
                                let now = Instant::now().max(start);
                                if now >= start + Duration::from_nanos(horizon_ns) {
                                    break;
                                }
                                now
                            }
                        };
                        let pick = pool
                            .zipf
                            .sample(Rng::new(splitmix64(stream_seed ^ i)).next_unit());
                        let now = Instant::now();
                        if now < due {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let reply =
                            exchange(&mut conn, addr, &pool.frames[pick], seed ^ i, &mut out);
                        let done = Instant::now();
                        let checked = match &reply {
                            Some(raw) => matches(raw, &pool.expected[pick]),
                            None => Err("retries exhausted".to_string()),
                        };
                        let ok = match checked {
                            Ok(cells) => Some(cells),
                            Err(e) => {
                                if out.failed < 3 {
                                    eprintln!("perfbench: serve: request failed: {e}");
                                }
                                out.failed += 1;
                                None
                            }
                        };
                        if let (true, Some(raw)) =
                            (keep_raw && out.raw.len() < CODEC_SAMPLES, reply)
                        {
                            out.raw.push((pick, raw));
                        }
                        let ms = |d: Duration| d.as_secs_f64() * 1e3;
                        out.samples.push(Sample {
                            due: ms(due - start),
                            latency: ms(done - due),
                            service: ms(done - sent),
                            lag: ms(sent.saturating_duration_since(due)),
                            ok: ok.is_some(),
                            cells: ok.unwrap_or(0),
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut all = Phase::default();
    for p in parts {
        all.absorb(p);
    }
    all.samples.sort_by(|a, b| a.due.total_cmp(&b.due));
    all.seconds = seconds.max(start.elapsed().as_secs_f64().min(seconds * 2.0));
    all
}

/// A running server plus the pool it serves; stopping is guaranteed.
struct Prepared {
    pool: Pool,
    server: Option<ServerHandle>,
    warmup_failed: u64,
}

impl Prepared {
    fn addr(&self) -> SocketAddr {
        self.server.as_ref().expect("server running").addr()
    }
}

impl Drop for Prepared {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.stop();
        }
    }
}

pub fn run(run: &Run) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (mut prep, setup_s) = setup_median(|| {
        let pool = prepare_pool(POOL_SEED)?;
        let server = start(&ServerConfig {
            workers: WORKERS,
            memo_budget: MEMO_BUDGET,
            ..ServerConfig::default()
        })
        .map_err(|e| format!("server start: {e}"))?;
        let mut prep = Prepared {
            pool,
            server: Some(server),
            warmup_failed: 0,
        };
        let warm = phase(
            prep.addr(),
            &prep.pool,
            run.seed,
            0xa11,
            CLIENTS,
            Some(NOMINAL_RPS),
            WARMUP_S,
            false,
        );
        prep.warmup_failed = warm.failed;
        Ok(prep)
    })?;
    out.set("setup_s", setup_s);
    eprintln!(
        "perfbench: serve: peak RSS after set-up {:.1} MB",
        stats::peak_rss_mb()
    );
    stats::reset_peak_rss();
    out.fail(prep.warmup_failed, "warm-up requests failed");
    eprintln!(
        "perfbench: serve: pool of {} distinct specs, reference bounds in {:.3} s",
        prep.pool.requests.len(),
        prep.pool.reference_s
    );
    verify_digest(&mut out, "serve", &prep.pool.digest);
    record_inputs(run, "serve", &prep.pool.specs.join("\n"))?;

    let addr = prep.addr();
    if !run.trace {
        // The closed loop fills the window.
        let closed = phase(
            addr,
            &prep.pool,
            run.seed,
            0xd44,
            CLIENTS,
            None,
            run.seconds,
            false,
        );
        let cells: u64 = closed.samples.iter().map(|s| s.cells).sum();
        let latencies = closed.latencies();
        eprintln!(
            "perfbench: serve: closed loop answered {} requests, {cells} cells in {:.3} s; \
             latency p50/90/95/99/99.9 ms {:.3?}",
            closed.samples.len(),
            closed.seconds,
            percentiles(&latencies)
        );
        out.attempted += closed.samples.len() as u64;
        out.fail(closed.failed, "served requests failed");
        out.set("cells_per_s", cells as f64 / closed.seconds);
        out.set("latency_p50_ms", stats::percentile(&latencies, 50.0));
        out.set("latency_p99_ms", stats::percentile(&latencies, 99.0));
        prep.server.take().expect("server running").stop();
        return Ok(out);
    }

    // The traced run: the open loop at the nominal rate, then the ladder.
    let nominal = phase(
        addr,
        &prep.pool,
        run.seed,
        0xb22,
        CLIENTS,
        Some(NOMINAL_RPS),
        run.seconds * OPEN_SHARE,
        true,
    );
    let mut ladder = Phase::default();
    let mut max_rate = 0.0f64;
    for (i, mult) in LADDER.iter().enumerate() {
        let rung = phase(
            addr,
            &prep.pool,
            run.seed,
            0xc33 + i as u64,
            CLIENTS,
            Some(NOMINAL_RPS * mult),
            RUNG_S,
            false,
        );
        let p99 = stats::percentile(&rung.latencies(), 99.0);
        let rate = rung.good() as f64 / rung.seconds;
        eprintln!(
            "perfbench: serve: ladder {:>7.1} req/s offered: {rate:>8.1} good req/s, p99 {p99:.3} ms, lag steady {}",
            NOMINAL_RPS * mult,
            rung.lag_steady()
        );
        if p99 <= LIMIT_MS && rung.lag_steady() {
            max_rate = max_rate.max(rate);
        }
        ladder.absorb(rung);
    }

    let n = nominal.samples.len() as u64;
    out.attempted += n + ladder.samples.len() as u64;
    out.fail(nominal.failed + ladder.failed, "served requests failed");
    let latencies = nominal.latencies();
    let service: Vec<f64> = nominal.samples.iter().map(|s| s.service).collect();
    let lag: Vec<f64> = nominal.samples.iter().map(|s| s.lag).collect();
    eprintln!(
        "perfbench: serve: {n} open-loop requests at {NOMINAL_RPS} req/s over {:.3} s; \
         latency p50/90/95/99/99.9 ms {:.3?}, service {:.3?}, lag {:.3?}",
        nominal.seconds,
        percentiles(&latencies),
        percentiles(&service),
        percentiles(&lag)
    );
    out.set("serve.open_p50_ms", stats::percentile(&latencies, 50.0));
    out.set("serve.open_p99_ms", stats::percentile(&latencies, 99.0));
    out.set("goodput_rps", nominal.good() as f64 / nominal.seconds);
    out.set("serve.service_p50_ms", stats::percentile(&service, 50.0));
    out.set("serve.gen_lag_p99_ms", stats::percentile(&lag, 99.0));
    out.set(
        "serve.shed_ratio",
        stats::ratio(nominal.sheds as f64, nominal.attempts as f64),
    );
    out.set("serve.retries", nominal.retries as f64);
    out.set("max_rate_rps", max_rate);

    let served = server_stats(addr);
    prep.server.take().expect("server running").stop();
    traced(run, &prep.pool, &nominal, &mut out)?;
    if let Some(memo) = served {
        out.set(
            "core.memo.hit_ratio",
            stats::ratio(memo.hits() as f64, memo.lookups() as f64),
        );
        out.set("core.memo.hierarchy_misses", memo.hierarchy_misses as f64);
        out.set("core.memo.cost_misses", memo.cost_misses as f64);
        out.set("core.memo.bound_misses", memo.bound_misses as f64);
        out.set("core.memo.evictions", memo.evictions() as f64);
    }
    Ok(out)
}

/// The 50th, 90th, 95th, 99th and 99.9th percentiles, for the log.
fn percentiles(samples: &[f64]) -> [f64; 5] {
    [50.0, 90.0, 95.0, 99.0, 99.9].map(|p| stats::percentile(samples, p))
}

/// The server's cumulative memo counters.
fn server_stats(addr: SocketAddr) -> Option<wcet_core::MemoStats> {
    let mut conn = TcpStream::connect_timeout(&addr, Duration::from_secs(2)).ok()?;
    write_frame(&mut conn, &Request::Stats.encode()).ok()?;
    match Response::decode(&read_frame(&mut conn).ok()?) {
        Ok(Response::Stats(s)) => Some(s.memo),
        _ => None,
    }
}

/// The traced part of `serve`: the codec cost on the workload's
/// own messages, and the layer replay of every pool spec against its
/// in-process reference run.
fn traced(run: &Run, pool: &Pool, nominal: &Phase, out: &mut Outcome) -> Result<(), String> {
    out.set("scenario.parse_ms", pool.parse_ms);
    // Codec: encode + frame each sampled request, unframe + decode its
    // response, repeated until the measurement is long enough.
    let framed: Vec<(usize, Vec<u8>)> = nominal
        .raw
        .iter()
        .map(|(pick, raw)| {
            let mut buf = Vec::new();
            write_frame(&mut buf, raw).expect("in-memory frame");
            (*pick, buf)
        })
        .collect();
    let mut rounds = 0u64;
    let t0 = Instant::now();
    while !framed.is_empty() && (t0.elapsed() < Duration::from_millis(300) || rounds < 1000) {
        for (pick, frame) in &framed {
            let mut sink = Vec::new();
            write_frame(&mut sink, &pool.requests[*pick].encode()).expect("in-memory frame");
            let payload = read_frame(&mut Cursor::new(frame)).expect("well-formed frame");
            std::hint::black_box(Response::decode(&payload).expect("decodable response"));
            std::hint::black_box(sink);
            rounds += 1;
        }
    }
    out.set(
        "serve.codec_us",
        stats::ratio(t0.elapsed().as_secs_f64() * 1e6, rounds as f64),
    );

    let mut layers = Layers::new(run.seed, 0);
    let mut tracer = Tracer::new();
    alloc::set_enabled(true);
    let t1 = Instant::now();
    let mut id = 0u64;
    for (scenarios, expected) in pool.scenarios.iter().zip(&pool.expected) {
        // One fresh memo per spec, as each reference campaign had.
        layers.reset_memo();
        tracer.span("spec", id, |t| {
            for (scn, exp) in scenarios.iter().zip(expected) {
                layers.cell(t, id, scn, exp);
                id += 1;
            }
        });
    }
    let traced = t1.elapsed().as_secs_f64();
    alloc::set_enabled(false);
    let c = layers.counts;
    let r = &pool.reference;
    out.fail(
        c.mismatches,
        "traced bounds differ from the in-process reference",
    );
    out.expect_eq(
        "cache calls vs hierarchy_misses",
        c.hierarchy_calls,
        r.hierarchy_misses,
    );
    out.expect_eq("pipeline calls vs cost_misses", c.cost_calls, r.cost_misses);
    out.expect_eq("ilp solves vs bound_misses", c.ipet_solves, r.bound_misses);
    report_layers(out, &tracer, &c, traced, pool.reference_s);
    r.report(out);
    let spans = run.out_dir.join("spans-serve.tsv");
    tracer
        .write_tsv(&spans)
        .map_err(|e| format!("{}: {e}", spans.display()))?;
    eprintln!(
        "perfbench: serve: traced {} cells in {traced:.3} s (reference {:.3} s); spans in {}",
        c.cells,
        pool.reference_s,
        spans.display()
    );
    Ok(())
}
