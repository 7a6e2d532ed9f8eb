//! Engine-equivalence guarantee: a batch of tasks analysed through one
//! memoizing [`AnalysisEngine`] yields reports identical — every
//! `WcetReport` field — to per-task [`Analyzer`] calls, on the E01 and
//! E02 experiment configurations.

use wcet_bench::{l2_bound_machine, l2_bound_victim, machine, suite};
use wcet_core::analyzer::Analyzer;
use wcet_core::engine::AnalysisEngine;
use wcet_core::mode::{Isolated, JointRefs, Solo};
use wcet_ir::synth::{matmul, Placement};

/// E01: the whole suite, solo mode, single predictable core.
#[test]
fn e01_batch_equals_sequential() {
    let m = machine(1);
    let engine = AnalysisEngine::new(m.clone());
    let an = Analyzer::new(m);
    for p in &suite(0) {
        let seq = an.wcet_solo(p, 0, 0).expect("analyses");
        let eng = engine.analyze(p, 0, 0, &Solo).expect("analyses");
        assert_eq!(seq, eng, "{}: engine diverged from analyzer", p.name());
    }
}

/// E02: joint mode with growing co-runner sets on the L2-bound machine —
/// engine footprints, shifts and reports all equal the sequential path.
#[test]
fn e02_joint_batch_equals_sequential() {
    let n = 4; // smaller than the binary's 8: this is a test, not a bench
    let m = l2_bound_machine(n);
    let engine = AnalysisEngine::new(m.clone());
    let an = Analyzer::new(m);
    let victim = l2_bound_victim(0);
    let bullies: Vec<_> = (1..n as u32)
        .map(|i| matmul(16, Placement::slot(i)))
        .collect();
    let fps: Vec<_> = bullies
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let eng_fp = engine.l2_footprint(b, i + 1).expect("analyses");
            let seq_fp = an.l2_footprint(b, i + 1).expect("analyses");
            assert_eq!(eng_fp, seq_fp, "footprint diverged for bully {i}");
            eng_fp
        })
        .collect();
    for k in 0..=fps.len() {
        let refs: Vec<_> = fps[..k].iter().collect();
        let eng = engine
            .analyze(&victim, 0, 0, &JointRefs(&refs))
            .expect("analyses");
        let seq = an.wcet_joint(&victim, 0, 0, &refs).expect("analyses");
        assert_eq!(eng, seq, "k={k}: engine diverged from analyzer");
    }
    // The repeats above must have produced memo hits (k grows, but the
    // victim fingerprint and L1 geometries repeat).
    assert!(
        engine.memo_stats().hits() > 0,
        "memo never hit across E02 repeats"
    );
}

/// Warm-start correctness on the E02 k-sweep models: growing the
/// co-runner set perturbs only the IPET *objective* (block costs), so
/// the engine's `SolveContext` warm-starts every solve after the first —
/// and each warm-started report must equal the cold `Analyzer` solve
/// field-for-field, block counts included.
#[test]
fn e02_k_sweep_warm_start_equals_cold() {
    let n = 4;
    let m = l2_bound_machine(n);
    let engine = AnalysisEngine::new(m.clone());
    let cold = Analyzer::new(m);
    let victim = l2_bound_victim(0);
    let fps: Vec<_> = (1..n as u32)
        .map(|i| {
            engine
                .l2_footprint(&matmul(16, Placement::slot(i)), i as usize)
                .expect("analyses")
        })
        .collect();
    for k in 0..=fps.len() {
        let refs: Vec<_> = fps[..k].iter().collect();
        let warm = engine
            .analyze(&victim, 0, 0, &wcet_core::mode::JointRefs(&refs))
            .expect("analyses");
        let seq = cold.wcet_joint(&victim, 0, 0, &refs).expect("analyses");
        assert_eq!(warm, seq, "k={k}: warm-started bound diverged from cold");
        assert_eq!(
            warm.ipet.block_counts, seq.ipet.block_counts,
            "k={k}: worst-case path diverged"
        );
    }
    // The sweep re-solved one flow system under several objectives:
    // exactly one cold solve (which populated the basis cache), every
    // other solver invocation warm with phase 1 skipped outright. (Some
    // k values saturate to the same effective context and are deduped by
    // the bound memo before reaching the solver, hence the memo-based
    // count rather than a literal k+1.)
    let stats = engine.solver_stats();
    let memo = engine.memo_stats();
    assert_eq!(stats.cold_solves, 1);
    assert!(stats.warm_hits >= 1);
    assert_eq!(stats.warm_hits + stats.cold_solves, memo.bound_misses);
    assert!(stats.totals.phase1_skips >= stats.warm_hits);
    assert!(stats.totals.pivots > 0);
}

/// Mixed modes over the E01 machine: solo on core 0 and isolated on
/// core 1, alternating through one engine, every report equal to its
/// sequential counterpart.
#[test]
fn mixed_mode_batch_equals_sequential() {
    let m = machine(2);
    let engine = AnalysisEngine::new(m.clone());
    let an = Analyzer::new(m);
    for (i, p) in suite(0).iter().enumerate() {
        let (seq, eng) = if i % 2 == 0 {
            (an.wcet_solo(p, 0, 0), engine.analyze(p, 0, 0, &Solo))
        } else {
            (
                an.wcet_isolated(p, 1, 0),
                engine.analyze(p, 1, 0, &Isolated),
            )
        };
        assert_eq!(
            seq.expect("analyses"),
            eng.expect("analyses"),
            "task {i} diverged"
        );
    }
}
