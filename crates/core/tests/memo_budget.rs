//! The LRU memo budget ([`MemoDomain::with_budget`]), pinned:
//!
//! * unbounded domains never evict (the pre-budget behaviour);
//! * eviction is least-recently-*used* order — a hit refreshes an entry,
//!   so the victim is the stalest entry, not the oldest insert;
//! * a re-miss after eviction recomputes a bit-identical report (every
//!   memo key is deterministic), only the hit/miss/eviction bill moves;
//! * the per-table eviction counters stay consistent with the miss
//!   counters and the resident-entry count;
//! * engines on four threads contending for one budgeted domain keep
//!   every bound, the cap and that accounting.

use std::sync::Arc;

use wcet_core::engine::{AnalysisEngine, MemoDomain};
use wcet_core::mode::Isolated;
use wcet_ir::synth::{fir, Placement};
use wcet_sim::config::MachineConfig;

/// Three tasks with distinct content fingerprints, all placed on core 0.
fn tasks() -> [wcet_ir::Program; 3] {
    [
        fir(4, 8, Placement::slot(0)),
        fir(6, 8, Placement::slot(0)),
        fir(8, 8, Placement::slot(0)),
    ]
}

fn engine_with(memo: &Arc<MemoDomain>) -> AnalysisEngine {
    AnalysisEngine::new(MachineConfig::symmetric(2)).with_memo(Arc::clone(memo))
}

#[test]
fn unbounded_domain_never_evicts() {
    let memo = Arc::new(MemoDomain::new());
    assert_eq!(memo.budget(), None);
    let engine = engine_with(&memo);
    let [a, b, c] = tasks();
    for task in [&a, &b, &c, &a, &b, &c] {
        engine.analyze(task, 0, 0, &Isolated).expect("analyses");
    }
    let stats = memo.stats();
    assert_eq!(stats.evictions(), 0);
    assert_eq!(stats.hierarchy_misses, 3);
    assert_eq!(stats.hierarchy_hits, 3);
    // One hierarchy + one L1 pair + one cost table + one bound per task.
    assert_eq!(memo.entries(), 12);
}

#[test]
fn lru_evicts_the_stalest_entry_not_the_oldest_insert() {
    let memo = Arc::new(MemoDomain::with_budget(2));
    assert_eq!(memo.budget(), Some(2));
    let engine = engine_with(&memo);
    let [a, b, c] = tasks();
    engine.analyze(&a, 0, 0, &Isolated).expect("analyses");
    engine.analyze(&b, 0, 0, &Isolated).expect("analyses");
    // Touch `a`: under LRU it is now fresher than `b`, so inserting `c`
    // must evict `b`. A FIFO/insert-order policy would evict `a` instead.
    engine.analyze(&a, 0, 0, &Isolated).expect("analyses");
    engine.analyze(&c, 0, 0, &Isolated).expect("analyses");
    assert!(memo.stats().hierarchy_evictions >= 1);

    // `a` survived: a full re-analysis is all hits, no misses.
    let before = memo.stats();
    let first = engine.analyze(&a, 0, 0, &Isolated).expect("analyses");
    let delta = memo.stats().since(&before);
    assert_eq!(delta.hierarchy_hits, 1);
    assert_eq!(delta.bound_hits, 1);
    assert_eq!(delta.hierarchy_misses, 0);
    assert_eq!(delta.bound_misses, 0);

    // `b` was the victim: its hierarchy re-misses and is recomputed.
    let before = memo.stats();
    engine.analyze(&b, 0, 0, &Isolated).expect("analyses");
    let delta = memo.stats().since(&before);
    assert_eq!(delta.hierarchy_misses, 1);
    assert_eq!(delta.hierarchy_hits, 0);

    // The refreshed entry still answers with the memoized value.
    let again = engine.analyze(&a, 0, 0, &Isolated).expect("analyses");
    assert_eq!(first, again);
}

#[test]
fn re_miss_after_eviction_recomputes_bit_identical_bounds() {
    let memo = Arc::new(MemoDomain::with_budget(1));
    let engine = engine_with(&memo);
    let [a, b, _] = tasks();
    let first = engine.analyze(&a, 0, 0, &Isolated).expect("analyses");
    engine.analyze(&b, 0, 0, &Isolated).expect("analyses");
    let again = engine.analyze(&a, 0, 0, &Isolated).expect("analyses");
    assert_eq!(first, again, "recomputed bound must be bit-identical");
    let stats = memo.stats();
    // a, b, a again: three misses per table, a single resident entry, so
    // every insert past the first evicted — and nothing ever hit.
    assert_eq!(stats.hierarchy_misses, 3);
    assert_eq!(stats.hierarchy_evictions, 2);
    assert_eq!(stats.bound_misses, 3);
    assert_eq!(stats.bound_evictions, 2);
    assert_eq!(stats.hits(), 0);
}

#[test]
fn eviction_counters_match_misses_minus_residents() {
    let memo = Arc::new(MemoDomain::with_budget(1));
    let engine = engine_with(&memo);
    for task in &tasks() {
        engine.analyze(task, 0, 0, &Isolated).expect("analyses");
    }
    let stats = memo.stats();
    // Each miss inserts exactly one entry and the cap is one, so every
    // table's eviction count is its miss count less the lone resident.
    assert_eq!(stats.hierarchy_evictions, stats.hierarchy_misses - 1);
    assert_eq!(stats.l1_evictions, stats.l1_misses - 1);
    assert_eq!(stats.cost_evictions, stats.cost_misses - 1);
    assert_eq!(stats.bound_evictions, stats.bound_misses - 1);
    assert_eq!(
        stats.evictions(),
        stats.hierarchy_evictions
            + stats.l1_evictions
            + stats.cost_evictions
            + stats.bound_evictions
    );
    assert_eq!(memo.entries(), 4);
}

#[test]
fn eviction_under_contention_keeps_bounds_and_the_cap() {
    let tasks = tasks();
    let unbounded = engine_with(&Arc::new(MemoDomain::new()));
    let reference: Vec<_> = tasks
        .iter()
        .map(|t| unbounded.analyze(t, 0, 0, &Isolated).expect("analyses"))
        .collect();
    let memo = Arc::new(MemoDomain::with_budget(2));
    let start = std::sync::Barrier::new(4);
    std::thread::scope(|scope| {
        for thread in 0..4 {
            let (memo, start, tasks, reference) = (&memo, &start, &tasks, &reference);
            scope.spawn(move || {
                // Each thread has its own engine over the one shared domain.
                let engine = engine_with(memo);
                start.wait();
                for round in 0..24 {
                    for k in 0..tasks.len() {
                        let i = (thread + round + k) % tasks.len();
                        let report = engine
                            .analyze(&tasks[i], 0, 0, &Isolated)
                            .expect("analyses");
                        assert_eq!(report, reference[i], "task {i}, round {round}");
                    }
                }
            });
        }
    });
    assert!(
        memo.entries() <= 8,
        "four tables capped at two entries each"
    );
    let stats = memo.stats();
    let misses = stats.hierarchy_misses + stats.l1_misses + stats.cost_misses + stats.bound_misses;
    // A racing insert of a key another thread already inserted counts a
    // miss but adds no entry, so this is a bound, not an equality.
    assert!(stats.evictions() + memo.entries() as u64 <= misses);
    assert!(
        stats.evictions() > 0,
        "three tasks under a cap of two evict"
    );
}
