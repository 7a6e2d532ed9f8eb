//! Overload is part of the protocol contract: a connection over the
//! admission capacity gets a *typed, retryable* `Overloaded` frame (never
//! a silent drop), per-request limits abort runaway submissions with
//! typed `Budget`/`Deadline` errors, and the retrying client converges —
//! submissions are idempotent, so a retried request answers bounds
//! byte-identical to the in-process runner.
//!
//! Determinism: shed outcomes here are not timing-lucky. The holder
//! connection provably occupies the entire capacity (its answered stats
//! request proves admission) before any probe connects, so every probe
//! sheds, every time.

use std::net::TcpStream;

use proptest::prelude::*;
use wcet_bench::load::scenario_pool;
use wcet_bench::scenario::{parse_matrix, run_campaign, CampaignOptions};
use wcet_serve::{
    read_frame, request_with_retry, CellBounds, Client, ErrorKind, Request, RequestLimits,
    Response, Retry, ServeError, ServerConfig,
};

/// A 1-worker server with in-flight cap 1 and queue 0: admission
/// capacity exactly one connection.
fn capacity_one_server() -> wcet_serve::ServerHandle {
    wcet_serve::start(&ServerConfig {
        workers: 1,
        max_inflight: Some(1),
        max_queue: Some(0),
        ..ServerConfig::default()
    })
    .expect("server starts")
}

/// Connects and proves admission by getting a stats answer (a shed
/// connection would get `Overloaded` instead).
fn admitted_client(addr: std::net::SocketAddr) -> Client {
    let mut client = Client::connect(addr).expect("connects");
    match client.stats() {
        Ok(Response::Stats(_)) => client,
        other => panic!("holder was not admitted: {other:?}"),
    }
}

/// What the in-process runner would put on the wire for this spec.
fn in_process_cells(spec: &str) -> Vec<CellBounds> {
    let matrix = parse_matrix(spec).expect("spec parses");
    let run = run_campaign(
        &matrix,
        &CampaignOptions {
            threads: 1,
            keep_cells: true,
            ..CampaignOptions::default()
        },
    );
    run.cells.iter().map(CellBounds::of).collect()
}

#[test]
fn over_capacity_connections_shed_typed_and_recover_by_retrying() {
    let spec = scenario_pool(1).remove(0);
    let reference = in_process_cells(&spec);
    let handle = capacity_one_server();

    // The holder occupies the whole capacity before any probe connects.
    let holder = admitted_client(handle.addr());

    // Deterministic shed: with the one slot provably taken, each of the
    // K probes gets the typed Overloaded frame with a retry hint — no
    // silent drops, no hangs.
    const PROBES: usize = 4;
    for probe in 0..PROBES {
        let mut conn = TcpStream::connect(handle.addr()).expect("probe connects");
        let reply = read_frame(&mut conn).expect("typed shed frame arrives");
        match Response::decode(&reply).expect("decodes") {
            Response::Error(ServeError {
                kind: ErrorKind::Overloaded { retry_after_ms },
                message,
            }) => {
                assert!(retry_after_ms > 0, "probe {probe}: hint must be positive");
                assert!(
                    message.contains("capacity"),
                    "probe {probe}: diagnostic {message:?} should mention capacity"
                );
            }
            other => panic!("probe {probe}: expected Overloaded, got {other:?}"),
        }
    }

    // Release the slot. The retrying client absorbs the worker-rotation
    // delay (the dead holder's slot frees on its next poll) and the
    // retried submission converges byte-identical to the in-process
    // run — retry-after-shed is safe because submissions are idempotent.
    drop(holder);
    let request = Request::SubmitScenario {
        spec,
        limits: RequestLimits::default(),
    };
    let policy = Retry {
        retries: 32,
        seed: 7,
        ..Retry::default()
    };
    let (response, _) =
        request_with_retry(handle.addr(), &request, &policy).expect("transport lives");
    match response {
        Response::Bounds(b) => assert_eq!(
            b.cells, reference,
            "retried submission must be byte-identical to the in-process run"
        ),
        other => panic!("expected bounds after retrying, got {other:?}"),
    }

    // Every probe was counted. Stats go through the retry layer too:
    // the previous connection's slot may not have rotated free yet.
    let (response, _) =
        request_with_retry(handle.addr(), &Request::Stats, &policy).expect("transport lives");
    match response {
        Response::Stats(s) => assert!(
            s.shed >= PROBES as u64,
            "stats must count at least the {PROBES} probes, saw {}",
            s.shed
        ),
        other => panic!("expected stats, got {other:?}"),
    }
    handle.stop();
}

#[test]
fn an_exhausted_retry_budget_surfaces_the_last_overloaded_response() {
    let handle = capacity_one_server();
    let holder = admitted_client(handle.addr());

    // The holder keeps the slot for the whole retry budget, so every
    // attempt sheds: exactly `retries` retries, all shed-driven, and the
    // caller gets the final typed Overloaded response — recoverable
    // information, not an opaque error.
    let policy = Retry {
        retries: 3,
        base_ms: 1,
        cap_ms: 5,
        seed: 11,
        ..Retry::default()
    };
    let (response, stats) =
        request_with_retry(handle.addr(), &Request::Stats, &policy).expect("transport lives");
    match response {
        Response::Error(ServeError {
            kind: ErrorKind::Overloaded { retry_after_ms },
            ..
        }) => assert!(retry_after_ms > 0),
        other => panic!("expected the final Overloaded response, got {other:?}"),
    }
    assert_eq!(stats.retries, 3, "every allowed retry was spent");
    assert_eq!(stats.shed_retries, 3, "all of them shed-driven");
    assert_eq!(stats.transport_retries, 0);

    drop(holder);
    handle.stop();
}

#[test]
fn budget_and_deadline_exhaustion_come_back_typed_and_counted() {
    let spec = scenario_pool(1).remove(0);
    let handle = wcet_serve::start(&ServerConfig::default()).expect("server starts");
    let mut client = Client::connect(handle.addr()).expect("connects");

    // A zero evaluation budget aborts on the first fixpoint evaluation.
    let response = client
        .request(&Request::SubmitScenario {
            spec: spec.clone(),
            limits: RequestLimits {
                budget_evals: Some(0),
                ..RequestLimits::default()
            },
        })
        .expect("server answers");
    match response {
        Response::Error(e) => {
            assert_eq!(e.kind, ErrorKind::Budget, "wrong kind: {e:?}");
            assert!(
                e.message.contains("fixpoint evaluations"),
                "diagnostic {:?} should name the resource",
                e.message
            );
        }
        other => panic!("expected a budget error, got {other:?}"),
    }

    // An already-expired deadline aborts with the deadline kind.
    let response = client
        .request(&Request::SubmitScenario {
            spec: spec.clone(),
            limits: RequestLimits {
                deadline_ms: Some(0),
                ..RequestLimits::default()
            },
        })
        .expect("server answers");
    match response {
        Response::Error(e) => {
            assert_eq!(e.kind, ErrorKind::Deadline, "wrong kind: {e:?}");
            assert!(
                e.message.contains("wall-clock"),
                "diagnostic {:?} should name the clock",
                e.message
            );
        }
        other => panic!("expected a deadline error, got {other:?}"),
    }

    // Aborts poison nothing: the same connection then serves the
    // unlimited submission byte-identical to the in-process reference.
    let reference = in_process_cells(&spec);
    match client.submit_scenario(&spec).expect("server answers") {
        Response::Bounds(b) => assert_eq!(b.cells, reference),
        other => panic!("expected bounds, got {other:?}"),
    }

    // And both aborts landed in the stats counters.
    match client.stats().expect("server answers") {
        Response::Stats(s) => {
            assert!(s.budget_errors >= 1, "budget abort must be counted");
            assert!(s.deadline_errors >= 1, "deadline abort must be counted");
        }
        other => panic!("expected stats, got {other:?}"),
    }
    handle.stop();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Schema-2 requests round-trip through the wire encoding with any
    /// combination of optional limit fields — and a request with no
    /// limits still goes out stamped schema 1, so old servers keep
    /// accepting traffic from new clients.
    #[test]
    fn schema_2_requests_round_trip_with_and_without_limits(
        deadline_raw in 0u64..100_000,
        pivots_raw in 0u64..1_000_000,
        evals_raw in 0u64..1_000_000,
        mask in 0u8..16,
    ) {
        // Each mask bit toggles one optional field (bit 3 picks the
        // request shape), so the 16 cases sweep every present/absent
        // combination.
        let limits = RequestLimits {
            deadline_ms: (mask & 1 != 0).then_some(deadline_raw),
            budget_pivots: (mask & 2 != 0).then_some(pivots_raw),
            budget_evals: (mask & 4 != 0).then_some(evals_raw),
        };
        let matrix = mask & 8 != 0;
        let request = if matrix {
            Request::SubmitMatrix { spec: "cores = [2, 4]\n".to_string(), limits }
        } else {
            Request::SubmitScenario { spec: "cores = 2\n".to_string(), limits }
        };
        let encoded = request.encode();
        let decoded = Request::decode(&encoded).expect("round-trips");
        prop_assert_eq!(decoded, request);
        let expected_schema = if limits.is_none() { "\"schema\":1" } else { "\"schema\":2" };
        prop_assert!(
            encoded.contains(expected_schema),
            "encoding {} should stamp {}", encoded, expected_schema
        );
    }
}
