//! Protocol robustness: every malformed input gets a *typed* error
//! response (mapped onto the campaign runner's failure ladder), the
//! offending connection is dropped cleanly, and the server keeps
//! serving everyone else. No byte sequence a client can send may kill
//! a server thread.

use std::io::Write as _;
use std::net::TcpStream;
use std::time::Duration;

use proptest::prelude::*;
use wcet_serve::{
    read_frame, write_frame, Client, ErrorKind, FrameError, Request, Response, ServerConfig,
    ServerHandle, MAX_FRAME,
};

fn start_server() -> ServerHandle {
    wcet_serve::start(&ServerConfig::default()).expect("server starts")
}

/// The liveness probe every test ends with: a *fresh* connection gets a
/// well-formed stats answer, so earlier abuse killed nothing.
fn assert_alive(handle: &ServerHandle) {
    let mut probe = Client::connect(handle.addr()).expect("fresh connection accepted");
    match probe.stats() {
        Ok(Response::Stats(_)) => {}
        other => panic!("server no longer answers stats: {other:?}"),
    }
}

fn expect_protocol_error(response: Response, needle: &str) {
    match response {
        Response::Error(e) => {
            assert_eq!(e.kind, ErrorKind::Protocol, "wrong kind: {e:?}");
            assert!(
                e.message.contains(needle),
                "diagnostic {:?} should mention {needle:?}",
                e.message
            );
        }
        other => panic!("expected a protocol error, got {other:?}"),
    }
}

#[test]
fn malformed_json_gets_a_typed_error_and_a_clean_close() {
    let handle = start_server();
    let mut client = Client::connect(handle.addr()).expect("connects");
    let response = client.send_raw("this is not json").expect("server answers");
    expect_protocol_error(response, "malformed JSON");
    // The connection was dropped cleanly after the error: the next
    // request on it cannot be answered.
    assert!(client.stats().is_err(), "connection should be closed");
    assert_alive(&handle);
    handle.stop();
}

#[test]
fn zero_length_frames_are_rejected_before_buffering() {
    let handle = start_server();
    let mut conn = TcpStream::connect(handle.addr()).expect("connects");
    conn.write_all(&0u32.to_be_bytes()).expect("writes header");
    let reply = read_frame(&mut conn).expect("typed reply arrives");
    expect_protocol_error(Response::decode(&reply).expect("decodes"), "zero-length");
    assert!(matches!(read_frame(&mut conn), Err(FrameError::Closed)));
    assert_alive(&handle);
    handle.stop();
}

#[test]
fn oversized_frame_claims_are_rejected_before_buffering() {
    let handle = start_server();
    let mut conn = TcpStream::connect(handle.addr()).expect("connects");
    conn.write_all(&(MAX_FRAME + 1).to_be_bytes())
        .expect("writes header");
    let reply = read_frame(&mut conn).expect("typed reply arrives");
    expect_protocol_error(Response::decode(&reply).expect("decodes"), "exceeds");
    assert_alive(&handle);
    handle.stop();
}

#[test]
fn mid_frame_disconnects_are_survived() {
    let handle = start_server();
    // Claim 100 payload bytes, deliver 3, vanish.
    let mut conn = TcpStream::connect(handle.addr()).expect("connects");
    conn.write_all(&100u32.to_be_bytes())
        .expect("writes header");
    conn.write_all(b"abc").expect("writes a fragment");
    drop(conn);
    // And the header variant: 2 of 4 header bytes, then gone.
    let mut conn = TcpStream::connect(handle.addr()).expect("connects");
    conn.write_all(&[0u8, 9]).expect("writes half a header");
    drop(conn);
    assert_alive(&handle);
    handle.stop();
}

#[test]
fn unknown_schema_versions_are_rejected() {
    let handle = start_server();
    let mut client = Client::connect(handle.addr()).expect("connects");
    let response = client
        .send_raw("{\"schema\": 99, \"req\": \"stats\"}")
        .expect("server answers");
    expect_protocol_error(response, "schema version 99");
    assert_alive(&handle);
    handle.stop();
}

#[test]
fn unknown_requests_and_bad_specs_are_rejected() {
    let handle = start_server();
    let mut client = Client::connect(handle.addr()).expect("connects");
    let response = client
        .send_raw("{\"schema\": 1, \"req\": \"reboot\"}")
        .expect("server answers");
    expect_protocol_error(response, "unknown request");

    // Decode errors close the connection (spec errors don't, but a
    // fresh connection keeps each probe independent).
    let mut client = Client::connect(handle.addr()).expect("connects");
    let response = client
        .submit_matrix("cores = not-a-number\n")
        .expect("server answers");
    expect_protocol_error(response, "bad spec");

    // A multi-cell spec through the single-cell door.
    let mut client = Client::connect(handle.addr()).expect("connects");
    let response = client
        .request(&Request::SubmitScenario {
            spec: "name = multi\ncores = [2, 4]\ntasks = \"fir:2x4\"\n".to_string(),
            limits: wcet_serve::RequestLimits::default(),
        })
        .expect("server answers");
    expect_protocol_error(response, "exactly one cell");

    assert_alive(&handle);
    handle.stop();
}

/// A frame as large as the cap, nearly all of it one JSON string mixing
/// multi-byte text and escapes, gets its typed answer well inside a
/// client's read timeout: string parsing is linear, so a maximal frame
/// cannot tie a worker up for long.
#[test]
fn maximal_string_frames_are_answered_promptly() {
    let handle = start_server();
    let request = |spec: String| {
        Request::SubmitMatrix {
            spec,
            limits: wcet_serve::RequestLimits::default(),
        }
        .encode()
    };
    // Each unit encodes to 5 bytes: `é` (2), `\"` (2) and `x`.
    let room = MAX_FRAME as usize - request("# ".into()).len();
    let payload = request(format!("# {}", "é\"x".repeat(room / 5)));
    assert!(payload.len() <= MAX_FRAME as usize && payload.len() + 5 > MAX_FRAME as usize);

    let mut conn = TcpStream::connect(handle.addr()).expect("connects");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("sets the read timeout");
    write_frame(&mut conn, &payload).expect("writes the frame");
    let reply = read_frame(&mut conn).expect("answered within the read timeout");
    expect_protocol_error(Response::decode(&reply).expect("decodes"), "bad spec");
    assert_alive(&handle);
    handle.stop();
}

/// The worker-rotation fairness pin: a client that dribbles its frame
/// slower than the server's poll interval used to have the partial
/// frame discarded on every rotation (so it could never complete a
/// request). The rotated connection now carries its partial-read state.
#[test]
fn slow_writers_survive_worker_rotation() {
    let handle = start_server();
    let mut conn = TcpStream::connect(handle.addr()).expect("connects");
    let payload = Request::Stats.encode();
    let mut framed = u32::try_from(payload.len())
        .expect("fits")
        .to_be_bytes()
        .to_vec();
    framed.extend_from_slice(payload.as_bytes());
    // 5-byte dribbles with 200 ms gaps: slower than the 150 ms poll
    // interval, so the connection is guaranteed to rotate mid-frame.
    for chunk in framed.chunks(5) {
        conn.write_all(chunk).expect("writes dribble");
        conn.flush().expect("flushes");
        std::thread::sleep(std::time::Duration::from_millis(200));
    }
    let reply = read_frame(&mut conn).expect("server answers the dribbled frame");
    match Response::decode(&reply).expect("decodes") {
        Response::Stats(_) => {}
        other => panic!("expected stats, got {other:?}"),
    }
    assert_alive(&handle);
    handle.stop();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Arbitrary byte frames — wrapped in a valid length prefix so they
    /// reach the payload parser — never kill the server. The response
    /// (typed error) or a clean close are both acceptable; a dead
    /// server is not.
    #[test]
    fn random_byte_frames_never_kill_the_server(
        seed in 0u64..u64::MAX,
        len in 1usize..192,
    ) {
        // xorshift64*: deterministic junk from the seed, no RNG dep.
        let mut state = seed | 1;
        let payload: Vec<u8> = (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 56) as u8
            })
            .collect();
        let handle = start_server();
        let mut conn = TcpStream::connect(handle.addr()).expect("connects");
        let len = u32::try_from(payload.len()).expect("fits");
        conn.write_all(&len.to_be_bytes()).expect("writes header");
        conn.write_all(&payload).expect("writes payload");
        // Whatever the junk decoded to, the server either answered
        // with a frame or closed the connection — and it still serves.
        let _ = read_frame(&mut conn);
        drop(conn);
        assert_alive(&handle);
        handle.stop();
    }
}
