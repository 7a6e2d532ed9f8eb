//! The `wcet` binary's exit-code ladder, end to end:
//!
//! * `0` — clean run;
//! * `1` — hard error (bad usage) and `--strict` escalation;
//! * `2` — supervised cell failures (here: starved budgets);
//! * `3` — the `--deadline-ms` deadline fired; a `--resume` rerun then
//!   completes the campaign cleanly.

#[path = "../../bench/tests/temp_dir/mod.rs"]
mod temp_dir;

use std::path::PathBuf;
use std::process::{Command, Output};

use wcet_bench::json::Json;

use temp_dir::TempDir;

const SPEC: &str = "name = cli\ncores = 2\narbiter = [rr, tdma:10]\n\
                    mode = [isolated, joint]\ncycle_limit = [100000, 200000]\n\
                    tasks = \"fir:2x4 crc:16\"\n";

/// Writes [`SPEC`] into a temp dir of the calling test's own: the tests
/// run in parallel, and with one shared path a test could truncate the
/// spec while another test's `wcet` child reads it. The dir goes when
/// the returned guard drops.
fn write_spec(test: &str) -> (TempDir, PathBuf) {
    let dir = TempDir::new(&format!("cli-exit-{test}"));
    let spec = dir.join("spec.scn");
    std::fs::write(&spec, SPEC).expect("writes spec");
    (dir, spec)
}

fn wcet(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_wcet"))
        .args(args)
        .output()
        .expect("spawns wcet")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn clean_streaming_run_exits_zero() {
    let (_dir, spec) = write_spec("clean_streaming_run_exits_zero");
    let out = wcet(&["scenarios", "run", spec.to_str().expect("utf8")]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_of(&out));
}

/// `--limit 0` produces no position, so there is nothing to bound: a
/// clean exit, not the everything-failed diagnostic.
#[test]
fn limit_zero_produces_nothing_and_exits_zero() {
    let (_dir, spec) = write_spec("limit_zero_produces_nothing_and_exits_zero");
    let out = wcet(&[
        "scenarios",
        "validate",
        spec.to_str().expect("utf8"),
        "--limit",
        "0",
    ]);
    let err = stderr_of(&out);
    assert_eq!(out.status.code(), Some(0), "stderr: {err}");
    assert!(
        !err.contains("no cell produced a WCET bound"),
        "stderr: {err}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        stdout.contains("produced (after --limit)"),
        "stdout: {stdout}"
    );
}

/// Any flag (here `--threads`) leaves the validation density and the
/// document's cells as they are: `validate` replays every cell.
#[test]
fn validate_with_threads_validates_and_writes_every_cell() {
    let (dir, spec) = write_spec("validate_with_threads_validates_and_writes_every_cell");
    let json = dir.join("validate-threads.json");
    let out = wcet(&[
        "scenarios",
        "validate",
        spec.to_str().expect("utf8"),
        "--threads",
        "2",
        "--json",
        json.to_str().expect("utf8"),
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_of(&out));
    let text = std::fs::read_to_string(&json).expect("wrote the run document");
    assert!(text.contains("\"validated_cells\":8"), "{text}");
    assert!(text.contains("\"sound_cells\":8"), "{text}");
    let doc = Json::parse(&text).expect("parses");
    let cells = doc.get("cells").and_then(Json::as_arr).map(<[Json]>::len);
    assert_eq!(cells, Some(8), "{text}");
}

#[test]
fn bad_usage_exits_one() {
    let out = wcet(&["scenarios", "frobnicate", "nope.scn"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr_of(&out).contains("usage:"));
}

#[test]
fn starved_budgets_exit_two_with_a_summary() {
    let (_dir, spec) = write_spec("starved_budgets_exit_two_with_a_summary");
    let out = wcet(&[
        "scenarios",
        "run",
        spec.to_str().expect("utf8"),
        "--budget-pivots",
        "1",
        "--budget-evals",
        "1",
    ]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr_of(&out));
    let err = stderr_of(&out);
    assert!(
        err.contains("failed under supervision"),
        "stderr must summarize the failures, got: {err}"
    );
    assert!(
        err.contains("--strict"),
        "stderr must point at the escalation flag, got: {err}"
    );
    // The failed cells stream as failed(...) rows, not as bounds.
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(stdout.contains("failed(budget"), "stdout: {stdout}");
}

#[test]
fn strict_escalates_failures_to_one() {
    let (_dir, spec) = write_spec("strict_escalates_failures_to_one");
    let out = wcet(&[
        "scenarios",
        "run",
        spec.to_str().expect("utf8"),
        "--budget-pivots",
        "1",
        "--budget-evals",
        "1",
        "--strict",
    ]);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr_of(&out));
}

#[test]
fn deadline_exits_three_and_resume_completes() {
    let (dir, spec) = write_spec("deadline_exits_three_and_resume_completes");
    let memo = dir.join("deadline-memo.jsonl");
    let spec_str = spec.to_str().expect("utf8");
    let memo_str = memo.to_str().expect("utf8");

    let out = wcet(&[
        "scenarios",
        "run",
        spec_str,
        "--cache",
        memo_str,
        "--deadline-ms",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(3), "stderr: {}", stderr_of(&out));
    let err = stderr_of(&out);
    assert!(err.contains("deadline"), "stderr: {err}");
    assert!(err.contains("--resume"), "stderr: {err}");

    let resumed = wcet(&[
        "scenarios",
        "run",
        spec_str,
        "--cache",
        memo_str,
        "--resume",
    ]);
    assert_eq!(
        resumed.status.code(),
        Some(0),
        "stderr: {}",
        stderr_of(&resumed)
    );
}
