//! The open-system load harness: seeded Poisson arrivals over N closed
//! connections, Zipf-popular scenarios from a generated pool, retries on
//! shed, and a log2 latency histogram — the socket-driving half of
//! `wcet_bench::load` (the math lives there; this crate owns the
//! client).
//!
//! Determinism contract: the request *sequence* (which scenario each
//! request submits) and every request's *bounds* are functions of the
//! seed alone — the harness asserts each served bound byte-identical to
//! an in-process [`run_campaign`] reference. Latency percentiles and
//! shed/retry *counts* depend on machine timing and are reported, not
//! pinned. Latency runs from each request's *scheduled* send time, so a
//! connection that falls behind its Poisson schedule reports the
//! queueing delay it accumulated instead of hiding it.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use wcet_bench::load::{poisson_offsets_ns, scenario_pool, zipf_picks, LoadStats, Log2Histogram};
use wcet_bench::scenario::{parse_matrix, run_campaign, CampaignOptions};

use crate::client::{request_with_retry, Retry};
use crate::proto::{CellBounds, ErrorKind, Request, RequestLimits, Response, ServeError};

/// How to drive one load run.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// The live server.
    pub addr: SocketAddr,
    /// Total requests across all connections.
    pub requests: usize,
    /// Closed connections issuing them (each runs its own Poisson
    /// schedule on its own thread).
    pub connections: usize,
    /// Scenario pool size the Zipf ranks index into.
    pub pool: usize,
    /// Zipf popularity exponent (1.1 ≈ realistic head-heavy traffic;
    /// 0 is uniform).
    pub zipf_exponent: f64,
    /// Target arrival rate per connection, requests/second.
    pub rate_per_sec: f64,
    /// The run seed: request sequence, arrival schedules, and retry
    /// jitter all derive from it.
    pub seed: u64,
    /// Retry budget per request (see [`Retry`]).
    pub retries: u32,
    /// Optional per-request limits forwarded on the wire (exercises the
    /// schema-2 path under load when set).
    pub limits: RequestLimits,
}

impl Default for LoadConfig {
    fn default() -> LoadConfig {
        LoadConfig {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            requests: 200,
            connections: 4,
            pool: 8,
            zipf_exponent: 1.1,
            rate_per_sec: 50.0,
            seed: 7,
            retries: 8,
            limits: RequestLimits::default(),
        }
    }
}

/// What one connection measured.
#[derive(Debug, Default)]
struct ConnTally {
    histogram: Log2Histogram,
    completed: u64,
    failed: u64,
    error_responses: u64,
    shed: u64,
    retries: u64,
    transport_retries: u64,
    identical: bool,
}

/// Runs the open-system load against a live server and reports what
/// happened. Requests are spread round-robin over the connections;
/// each connection sleeps out its seeded Poisson schedule and submits
/// through the retrying client, so `Overloaded` sheds are absorbed, and
/// every served bound is compared byte-for-byte against the in-process
/// reference for its scenario.
///
/// # Panics
///
/// Panics if a pool spec fails to parse (a bug in `scenario_pool`) or a
/// connection thread dies.
#[must_use]
#[allow(clippy::cast_precision_loss)] // report-only rates
pub fn run_load(config: &LoadConfig) -> LoadStats {
    let requests = config.requests.max(1);
    let connections = config.connections.clamp(1, requests);
    let pool = scenario_pool(config.pool);
    let picks = zipf_picks(config.seed, requests, pool.len(), config.zipf_exponent);

    // In-process reference bounds, one run per pool entry actually hit.
    // Computed before the clock starts; fresh state per run, so the
    // reference is exactly what a cold run of the scenario runner says.
    let reference_opts = CampaignOptions {
        threads: 1,
        keep_cells: true,
        ..CampaignOptions::default()
    };
    let mut references: Vec<Option<Vec<CellBounds>>> = vec![None; pool.len()];
    for &pick in &picks {
        if references[pick].is_none() {
            let matrix = parse_matrix(&pool[pick]).expect("pool spec parses");
            let run = run_campaign(&matrix, &reference_opts);
            references[pick] = Some(run.cells.iter().map(CellBounds::of).collect());
        }
    }

    // Request i belongs to connection i % connections; each connection's
    // arrival schedule is seeded by its own stream index.
    let mut per_conn: Vec<Vec<usize>> = vec![Vec::new(); connections];
    for i in 0..requests {
        per_conn[i % connections].push(i);
    }

    let give_up = AtomicBool::new(false);
    let started = Instant::now();
    let tallies: Vec<ConnTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = per_conn
            .iter()
            .enumerate()
            .map(|(conn_index, assigned)| {
                let pool = &pool;
                let picks = &picks;
                let references = &references;
                let give_up = &give_up;
                scope.spawn(move || {
                    let offsets = poisson_offsets_ns(
                        config.seed,
                        conn_index as u64,
                        assigned.len(),
                        config.rate_per_sec,
                    );
                    let mut tally = ConnTally {
                        identical: true,
                        ..ConnTally::default()
                    };
                    for (&request_index, &offset_ns) in assigned.iter().zip(&offsets) {
                        if give_up.load(Ordering::Acquire) {
                            tally.failed += 1;
                            continue;
                        }
                        // Latency counts from the scheduled send: a
                        // connection behind schedule skips the sleep,
                        // and its lateness is queueing delay the
                        // request saw.
                        let scheduled = started + Duration::from_nanos(offset_ns);
                        let now = Instant::now();
                        if scheduled > now {
                            std::thread::sleep(scheduled - now);
                        }
                        let pick = picks[request_index];
                        let request = Request::SubmitScenario {
                            spec: pool[pick].clone(),
                            limits: config.limits,
                        };
                        let policy = Retry {
                            retries: config.retries,
                            seed: config.seed ^ (request_index as u64).wrapping_mul(0x9e37),
                            ..Retry::default()
                        };
                        match request_with_retry(config.addr, &request, &policy) {
                            Ok((response, retry_stats)) => {
                                tally.retries += retry_stats.retries;
                                tally.shed += retry_stats.shed_retries;
                                tally.transport_retries += retry_stats.transport_retries;
                                match response {
                                    Response::Bounds(b) => {
                                        tally.histogram.record_ns(
                                            u64::try_from(scheduled.elapsed().as_nanos())
                                                .unwrap_or(u64::MAX),
                                        );
                                        tally.completed += 1;
                                        tally.identical &=
                                            Some(&b.cells) == references[pick].as_ref();
                                    }
                                    Response::Error(ServeError {
                                        kind: ErrorKind::Overloaded { .. },
                                        ..
                                    }) => {
                                        // Retry budget exhausted while
                                        // still at capacity.
                                        tally.shed += 1;
                                        tally.failed += 1;
                                    }
                                    Response::Error(_) => {
                                        tally.error_responses += 1;
                                        tally.failed += 1;
                                    }
                                    _ => {
                                        tally.error_responses += 1;
                                        tally.failed += 1;
                                    }
                                }
                            }
                            Err(_) => {
                                // Transport dead after all retries: the
                                // server is likely gone — stop hammering.
                                tally.failed += 1;
                                give_up.store(true, Ordering::Release);
                            }
                        }
                    }
                    tally
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load connection thread"))
            .collect()
    });
    let wall = started.elapsed();

    let mut histogram = Log2Histogram::new();
    let mut total = ConnTally {
        identical: true,
        ..ConnTally::default()
    };
    for tally in &tallies {
        histogram.merge(&tally.histogram);
        total.completed += tally.completed;
        total.failed += tally.failed;
        total.error_responses += tally.error_responses;
        total.shed += tally.shed;
        total.retries += tally.retries;
        total.transport_retries += tally.transport_retries;
        total.identical &= tally.identical;
    }

    let to_ms = |ns: u64| ns as f64 / 1e6;
    LoadStats {
        requests: requests as u64,
        completed: total.completed,
        failed: total.failed,
        error_responses: total.error_responses,
        shed: total.shed,
        retries: total.retries,
        transport_retries: total.transport_retries,
        wall_ms: wall.as_secs_f64() * 1e3,
        throughput_rps: total.completed as f64 / wall.as_secs_f64().max(1e-9),
        p50_ms: to_ms(histogram.percentile_ns(0.50)),
        p95_ms: to_ms(histogram.percentile_ns(0.95)),
        p99_ms: to_ms(histogram.percentile_ns(0.99)),
        connections: connections as u64,
        seed: config.seed,
        identical_bounds: total.identical && total.completed > 0,
    }
}
