//! Warm restart: a `Shutdown` (or the programmatic SIGINT-equivalent
//! [`ServerHandle::stop`]) flushes the hot memo's bounded cells into
//! the CRC-checkpointed disk memo, and a restarted server pointed at
//! the same file answers with identical bounds and nonzero disk hits —
//! even when the flush's final line was torn mid-write.

#[path = "../../bench/tests/temp_dir/mod.rs"]
mod temp_dir;

use std::path::{Path, PathBuf};

use wcet_serve::{BoundsResponse, Client, Response, ServerConfig, ServerHandle};

use temp_dir::TempDir;

/// The small fully-bounded matrix the campaign corruption tests use:
/// every unique cell gets a bound, so flush arithmetic is exact.
const SPEC: &str = "name = memo\ncores = 2\narbiter = [rr, tdma:10]\n\
                    mode = [isolated, joint]\ncycle_limit = [100000, 200000]\n\
                    tasks = \"fir:2x4 crc:16\"\n";

/// A memo path in a fresh temp dir of its own; the dir and the memo go
/// when the returned guard drops.
fn temp_memo(tag: &str) -> (TempDir, PathBuf) {
    let dir = TempDir::new(&format!("serve-{tag}"));
    let path = dir.join("memo.jsonl");
    (dir, path)
}

fn server_with_cache(path: &Path) -> ServerHandle {
    wcet_serve::start(&ServerConfig {
        cache: Some(path.to_path_buf()),
        ..ServerConfig::default()
    })
    .expect("server starts")
}

fn submit(handle: &ServerHandle) -> BoundsResponse {
    let mut client = Client::connect(handle.addr()).expect("connects");
    match client.submit_matrix(SPEC).expect("answers") {
        Response::Bounds(b) => b,
        other => panic!("expected bounds, got {other:?}"),
    }
}

#[test]
fn shutdown_flush_makes_the_restarted_server_disk_warm() {
    let (_dir, path) = temp_memo("restart");

    let first = server_with_cache(&path);
    let cold = submit(&first);
    assert_eq!(cold.disk_hits, 0, "fresh memo file, nothing to hit");
    let mut client = Client::connect(first.addr()).expect("connects");
    let flushed = match client.shutdown().expect("answers") {
        Response::Shutdown { flushed } => flushed,
        other => panic!("expected shutdown ack, got {other:?}"),
    };
    assert_eq!(
        flushed as usize,
        cold.cells.len(),
        "every bounded cell must reach the disk memo"
    );
    first.join();

    let second = server_with_cache(&path);
    let warm = submit(&second);
    assert_eq!(warm.cells, cold.cells, "disk-warm bounds must be identical");
    assert_eq!(
        warm.disk_hits as usize,
        cold.cells.len(),
        "every cell must be answered from disk, without analysis"
    );
    assert_eq!(
        warm.stats.solver_cold_solves, 0,
        "a disk-warm pass never reaches the solver"
    );
    second.stop();
}

#[test]
fn programmatic_stop_flushes_like_a_client_shutdown() {
    let (_dir, path) = temp_memo("sigint");

    let first = server_with_cache(&path);
    let cold = submit(&first);
    // The SIGINT-equivalent path: no client involved.
    let flushed = first.stop();
    assert_eq!(flushed as usize, cold.cells.len());

    let second = server_with_cache(&path);
    let warm = submit(&second);
    assert_eq!(warm.cells, cold.cells);
    assert!(warm.disk_hits > 0);
    second.stop();
}

#[test]
fn torn_flush_tail_still_restarts_warm_and_identical() {
    let (_dir, path) = temp_memo("torn");

    let first = server_with_cache(&path);
    let cold = submit(&first);
    assert!(first.stop() > 0);

    // Kill -9 mid-append: clip the final CRC bytes off the last line.
    let bytes = std::fs::read(&path).expect("memo exists");
    std::fs::write(&path, &bytes[..bytes.len() - 7]).expect("tears the tail");

    let second = server_with_cache(&path);
    let warm = submit(&second);
    assert_eq!(
        warm.cells, cold.cells,
        "the torn cell recomputes to the same bound"
    );
    assert!(
        warm.disk_hits > 0,
        "the surviving lines must still serve from disk"
    );
    assert!(
        (warm.disk_hits as usize) < cold.cells.len(),
        "the torn line must NOT serve from disk"
    );
    second.stop();
}
