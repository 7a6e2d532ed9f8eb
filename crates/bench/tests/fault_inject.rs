//! Deterministic fault-injection suite (`--features fault-inject`):
//! seeded [`FaultPlan`]s drive panics, budget starvation, and memo
//! corruption through the streaming pipeline, and every run must
//! degrade *per cell*, never per campaign:
//!
//! 1. surviving cells (no failure record) carry rows byte-identical to
//!    a fault-free run — a neighbour chain poisoned by a panicking cell
//!    is retried cold, not propagated;
//! 2. injected failures are classified (panic vs budget), retry-free
//!    where retries cannot help, and exactly counted;
//! 3. torn and CRC-poisoned memo writes are survived by the next run —
//!    observably counted, recomputed, byte-identical bounds;
//! 4. the same seed reproduces the same outcome, cell for cell.
#![cfg(feature = "fault-inject")]

mod temp_dir;

use std::collections::BTreeMap;
use std::sync::Mutex;

use proptest::prelude::*;
use wcet_bench::scenario::{
    parse_matrix, run_campaign, run_campaign_with, CampaignOptions, CampaignRun, FailureKind,
    FaultPlan, ScenarioMatrix,
};

use temp_dir::TempDir;

/// A fully-bounded small matrix (no build errors): every unique cell
/// either carries bounds or a failure record, never both.
const FAULT_MATRIX: &str = "name = fault\ncores = 2\narbiter = [rr, tdma:10]\n\
                            mode = [isolated, joint]\ncycle_limit = [100000, 200000]\n\
                            tasks = \"fir:2x4 crc:16\"\n";

/// Fingerprint → (rendered per-task bounds, failure summary) of a run.
/// Bounds only — solver effort counters and attached reports legally
/// vary with warm-start history and disk serving; the *bounds* may not.
type Outcomes = BTreeMap<(u64, u64), (String, Option<(FailureKind, u32)>)>;

fn collect(matrix: &ScenarioMatrix, opts: &CampaignOptions) -> (Outcomes, CampaignRun) {
    let outcomes: Mutex<Outcomes> = Mutex::default();
    let run = run_campaign_with(matrix, opts, |cell| {
        let bounds: Vec<(String, Result<u64, String>)> = cell
            .rows
            .iter()
            .map(|r| {
                (
                    format!("{}@{}.{}/{}", r.task, r.core, r.thread, r.mode),
                    r.outcome.as_ref().map(|b| b.wcet).map_err(Clone::clone),
                )
            })
            .collect();
        outcomes.lock().expect("collector").insert(
            cell.fingerprint,
            (
                format!("{bounds:?}"),
                cell.failure.as_ref().map(|f| (f.kind, f.retries)),
            ),
        );
    });
    (outcomes.into_inner().expect("collector"), run)
}

#[test]
fn a_panic_at_every_rank_fails_every_cell_and_nothing_else() {
    let matrix = parse_matrix(FAULT_MATRIX).expect("parses");
    let (outcomes, run) = collect(
        &matrix,
        &CampaignOptions {
            fault: Some(FaultPlan {
                panic_one_in: 1,
                ..FaultPlan::default()
            }),
            ..CampaignOptions::default()
        },
    );
    assert_eq!(run.failures, run.unique, "every cell panics, alone");
    assert_eq!(run.bounded, 0);
    assert_eq!(run.errors, 0);
    assert_eq!(
        run.retries, 0,
        "after a failed predecessor the chain is reset, so no cell \
         fails on neighbour state and no retry is owed"
    );
    for (rows, failure) in outcomes.values() {
        let (kind, retries) = failure.expect("every cell fails");
        assert_eq!(kind, FailureKind::Panic);
        assert_eq!(retries, 0);
        assert_eq!(rows, "[]", "a failed cell must not claim rows");
    }
}

#[test]
fn starved_cells_fail_as_budget_and_are_never_retried() {
    let matrix = parse_matrix(FAULT_MATRIX).expect("parses");
    let (outcomes, run) = collect(
        &matrix,
        &CampaignOptions {
            fault: Some(FaultPlan {
                starve_one_in: 2,
                ..FaultPlan::default()
            }),
            ..CampaignOptions::default()
        },
    );
    assert!(run.failures > 0, "a 1-in-2 starvation plan must fire");
    assert!(run.bounded > 0, "…but not on every cell");
    assert_eq!(run.retries, 0, "budget exhaustion is deterministic");
    for failure in outcomes.values().filter_map(|(_, f)| f.as_ref()) {
        assert_eq!(failure.0, FailureKind::Budget);
        assert_eq!(failure.1, 0);
    }
}

#[test]
fn torn_and_poisoned_memo_writes_are_survived_by_the_next_run() {
    let matrix = parse_matrix(FAULT_MATRIX).expect("parses");
    for (label, fault, expect_skipped, expect_crc) in [
        (
            "torn",
            FaultPlan {
                torn_append_chunk: Some(0),
                ..FaultPlan::default()
            },
            true,
            false,
        ),
        (
            "poisoned",
            FaultPlan {
                poison_chunk: Some(0),
                ..FaultPlan::default()
            },
            false,
            true,
        ),
    ] {
        let dir = TempDir::new(&format!("fault-memo-{label}"));
        let path = dir.join("memo.jsonl");
        let opts = |fault| CampaignOptions {
            cache: Some(path.clone()),
            fault,
            ..CampaignOptions::default()
        };
        let (clean, _) = collect(&matrix, &opts(None));
        let _ = std::fs::remove_file(&path);
        let (faulted, faulted_run) = collect(&matrix, &opts(Some(fault)));
        assert_eq!(faulted, clean, "{label}: corruption is write-side only");
        assert!(faulted_run.cache_error.is_none());
        // The next (fault-free) run sees the damage, counts it, and
        // still reproduces every bound.
        let (recovered, recovered_run) = collect(&matrix, &opts(None));
        assert_eq!(recovered, clean, "{label}: bounds survive the damage");
        if expect_skipped {
            assert!(
                recovered_run.disk_skipped >= 1,
                "{label}: the torn line is counted"
            );
        }
        if expect_crc {
            assert!(
                recovered_run.disk_crc_rejected >= 1,
                "{label}: the poisoned line is counted"
            );
        }
        assert!(
            recovered_run.disk_hits > 0,
            "{label}: intact entries still serve"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random matrices under random panic + starvation plans: surviving
    /// cells are byte-identical to the fault-free run, failures are
    /// exactly counted and classified, and the same seed reproduces the
    /// same outcome.
    #[test]
    fn surviving_cells_match_the_fault_free_run(
        seed in 0u64..500,
        fault_seed in 0u64..1000,
        panic_one_in in 2u64..6,
        starve_one_in in 0u64..6,
    ) {
        let spec = format!(
            "name = prop-fault\ncores = 2\narbiter = [rr, tdma:12]\n\
             mode = [isolated, joint]\ncycle_limit = [100000, 200000]\n\
             tasks = rand:{seed}\n",
        );
        let matrix = parse_matrix(&spec).expect("spec parses");
        let plan = FaultPlan {
            seed: fault_seed,
            panic_one_in,
            starve_one_in,
            ..FaultPlan::default()
        };
        let (clean, clean_run) = collect(&matrix, &CampaignOptions::default());
        let opts = || CampaignOptions {
            threads: 3,
            fault: Some(plan),
            ..CampaignOptions::default()
        };
        let (faulted, faulted_run) = collect(&matrix, &opts());

        prop_assert_eq!(faulted_run.unique, clean_run.unique);
        prop_assert_eq!(
            faulted.values().filter(|(_, f)| f.is_some()).count(),
            faulted_run.failures,
            "failure records and the counter must agree"
        );
        for (fp, (rows, failure)) in &faulted {
            match failure {
                None => {
                    // A surviving cell — possibly retried cold after a
                    // poisoned neighbour chain — must match the
                    // fault-free run byte for byte.
                    let (clean_rows, clean_failure) = &clean[fp];
                    prop_assert!(clean_failure.is_none());
                    prop_assert_eq!(rows, clean_rows);
                }
                Some((FailureKind::Panic, retries)) => prop_assert_eq!(
                    *retries, 0,
                    "an injected panic fires on the first attempt only, \
                     so a retried cell succeeds instead of failing"
                ),
                // A Budget failure is retry-free — except when a rank
                // draws *both* faults: the panic triggers the cold
                // retry, which then runs under the starved budget.
                Some((FailureKind::Budget, retries)) => prop_assert!(*retries <= 1),
                Some((FailureKind::Deadline, _)) => prop_assert!(false, "no wall clock is armed"),
            }
        }

        // Determinism: the same plan reproduces the same outcome.
        let (again, again_run) = collect(&matrix, &opts());
        prop_assert_eq!(faulted, again);
        prop_assert_eq!(faulted_run.failures, again_run.failures);
        prop_assert_eq!(faulted_run.retries, again_run.retries);
    }
}

/// `run_campaign` and `run_campaign_with` agree under faults (the
/// convenience wrapper is the same engine).
#[test]
fn wrapper_and_callback_runner_agree_under_faults() {
    let matrix = parse_matrix(FAULT_MATRIX).expect("parses");
    let opts = CampaignOptions {
        fault: Some(FaultPlan {
            panic_one_in: 3,
            ..FaultPlan::default()
        }),
        ..CampaignOptions::default()
    };
    let a = run_campaign(&matrix, &opts);
    let b = run_campaign(&matrix, &opts);
    assert_eq!(a.failures, b.failures);
    assert_eq!(a.bounded, b.bounded);
    assert_eq!(a.retries, b.retries);
}
