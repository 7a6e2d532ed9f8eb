//! Differential property suite: the worklist fixpoint over precompiled
//! block transfers ([`analyze`]) must reproduce the preserved naive sweep
//! ([`analyze_sweep`]) *exactly* — every per-site [`Classification`], the
//! footprint, the histogram — across random kernels, cache geometries,
//! locking, bypass, interference shifts and reach filters. Both converge
//! to the same least fixpoint by the chaotic-iteration argument; this
//! suite is the executable form of that claim.

use std::collections::BTreeSet;

use proptest::prelude::*;
use wcet_cache::analysis::{
    analyze, analyze_in, analyze_sweep, AnalysisArena, AnalysisInput, LevelKind,
};
use wcet_cache::config::{CacheConfig, LineAddr};
use wcet_cache::kernel;
use wcet_cache::multilevel::{analyze_hierarchy, reach_filter, HierarchyConfig};
use wcet_ir::synth::{random_program, Placement, RandomParams};
use wcet_ir::Program;

/// Asserts full result equality (classes, footprint, histogram, set
/// count) between the two engines.
fn assert_equal(p: &Program, input: &AnalysisInput) {
    let fast = analyze(p, input);
    let slow = analyze_sweep(p, input);
    let fast_classes: Vec<_> = fast.iter().collect();
    let slow_classes: Vec<_> = slow.iter().collect();
    assert_eq!(fast_classes, slow_classes, "per-site classes diverged");
    assert_eq!(fast.footprint(), slow.footprint(), "footprint diverged");
    assert_eq!(fast.histogram(), slow.histogram(), "histogram diverged");
    assert_eq!(fast.num_sets(), slow.num_sets());
    // The whole point: the worklist must not cost more than the sweep.
    assert!(
        fast.fixpoint_stats().evaluated <= slow.fixpoint_stats().evaluated,
        "worklist evaluated {} blocks, sweep only {}",
        fast.fixpoint_stats().evaluated,
        slow.fixpoint_stats().evaluated,
    );
}

/// A geometry grid that exercises direct-mapped, associative and tiny
/// caches.
fn geometries() -> Vec<CacheConfig> {
    vec![
        CacheConfig::new(1, 1, 32, 1).expect("valid"),
        CacheConfig::new(4, 2, 16, 1).expect("valid"),
        CacheConfig::new(8, 4, 32, 1).expect("valid"),
        CacheConfig::new(64, 4, 32, 4).expect("valid"),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Plain L1-style analyses over random programs and geometries.
    #[test]
    fn worklist_equals_sweep_plain(seed in 0u64..5_000, geom in 0usize..4, kind in 0usize..3) {
        let p = random_program(seed, RandomParams::default(), Placement::default());
        let kind = [LevelKind::Instruction, LevelKind::Data, LevelKind::Unified][kind];
        let input = AnalysisInput::level1(geometries()[geom], kind);
        assert_equal(&p, &input);
    }

    /// Locking, bypass and interference shifts (the joint-analysis shape).
    #[test]
    fn worklist_equals_sweep_locked_shifted(
        seed in 0u64..5_000,
        lock_lines in 0u64..4,
        bypass_lines in 0u64..3,
        shift in 0u32..3,
    ) {
        let p = random_program(seed, RandomParams::default(), Placement::default());
        let cache = CacheConfig::new(8, 2, 32, 2).expect("valid");
        let mut input = AnalysisInput::level1(cache, LevelKind::Unified);
        // Lock/bypass a few lines the program actually touches (first
        // data region lines by construction of the generator layouts).
        input.locked = (0..lock_lines).map(|i| LineAddr(0x8000 / 32 + i)).collect();
        input.bypass = (0..bypass_lines).map(|i| LineAddr(0x8000 / 32 + 8 + i)).collect();
        input.interference_shift = vec![shift; 8];
        // Reduce unlocked associativity like the analyzer does.
        if lock_lines > 0 {
            let mut per_set = [0u32; 8];
            for l in &input.locked {
                per_set[cache.set_of(*l) as usize] += 1;
            }
            input.set_ways = Some(per_set.iter().map(|&n| cache.ways().saturating_sub(n)).collect());
        }
        assert_equal(&p, &input);
    }

    /// Reach-filtered L2 analyses (the multi-level shape, including the
    /// may-or-may-not-reach uncertain transfer).
    #[test]
    fn worklist_equals_sweep_with_reach_filter(seed in 0u64..5_000) {
        let p = random_program(seed, RandomParams::default(), Placement::default());
        let l1i = CacheConfig::new(8, 1, 16, 1).expect("valid");
        let l1d = CacheConfig::new(2, 1, 32, 1).expect("valid");
        let h = analyze_hierarchy(&p, &HierarchyConfig { l1i, l1d, l2: None });
        let mut input = AnalysisInput::level1(
            CacheConfig::new(64, 4, 32, 4).expect("valid"),
            LevelKind::Unified,
        );
        input.reach = Some(reach_filter(&[&h.l1i, &h.l1d]));
        assert_equal(&p, &input);
    }
}

/// Row lengths the kernel differential sweep exercises: empty, pure
/// scalar tail, exact chunk multiples, chunk-plus-tail, and a
/// max-geometry-wide row (64 sets × 4 ways ⇒ 64 words per age row is
/// far above anything the analyses allocate).
fn kernel_rows() -> impl Strategy<Value = (Vec<u64>, Vec<u64>, Vec<u64>, Vec<u64>)> {
    (0usize..8).prop_flat_map(|i| {
        let lens = [
            0,
            1,
            3,
            kernel::CHUNK,
            kernel::CHUNK + 1,
            2 * kernel::CHUNK,
            64,
            67,
        ];
        let n = lens[i];
        let row = move || proptest::collection::vec(0u64..=u64::MAX, n);
        (row(), row(), row(), row())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every chunked kernel must agree with its scalar twin on the
    /// resulting words AND the fused changed-flag, for every row shape
    /// (the unroll + tail decomposition must be invisible).
    #[test]
    fn kernels_equal_scalar_twins((dst, other, cum_a, cum_b) in kernel_rows()) {
        // Fused joins: words, both cumulative masks, and the delta.
        for (chunked, scalar) in [
            (
                kernel::join_must_rows as fn(&mut [u64], &[u64], &mut [u64], &mut [u64]) -> u64,
                kernel::join_must_rows_scalar as fn(&mut [u64], &[u64], &mut [u64], &mut [u64]) -> u64,
            ),
            (kernel::join_may_rows, kernel::join_may_rows_scalar),
        ] {
            let (mut d1, mut ca1, mut cb1) = (dst.clone(), cum_a.clone(), cum_b.clone());
            let (mut d2, mut ca2, mut cb2) = (dst.clone(), cum_a.clone(), cum_b.clone());
            let delta1 = chunked(&mut d1, &other, &mut ca1, &mut cb1);
            let delta2 = scalar(&mut d2, &other, &mut ca2, &mut cb2);
            prop_assert_eq!(&d1, &d2, "join words diverged");
            prop_assert_eq!(&ca1, &ca2, "cum_a diverged");
            prop_assert_eq!(&cb1, &cb2, "cum_b diverged");
            prop_assert_eq!(delta1, delta2, "changed-flag diverged");
        }

        // Aging absorb and the two mask applications.
        let (mut r1, mut r2) = (dst.clone(), dst.clone());
        kernel::or_row(&mut r1, &other);
        kernel::or_row_scalar(&mut r2, &other);
        prop_assert_eq!(&r1, &r2, "or_row diverged");

        let (mut r1, mut r2) = (dst.clone(), dst.clone());
        kernel::mask_clear(&mut r1, &other);
        kernel::mask_clear_scalar(&mut r2, &other);
        prop_assert_eq!(&r1, &r2, "mask_clear diverged");

        let (mut r1, mut r2) = (dst.clone(), dst.clone());
        kernel::mask_set(&mut r1, &other);
        kernel::mask_set_scalar(&mut r2, &other);
        prop_assert_eq!(&r1, &r2, "mask_set diverged");

        // Row equality, on both an arbitrary pair and a guaranteed-equal
        // one (the xor-fold must see all-zero exactly when scalar does).
        prop_assert_eq!(kernel::rows_eq(&dst, &other), kernel::rows_eq_scalar(&dst, &other));
        prop_assert_eq!(kernel::rows_eq(&dst, &dst.clone()), true);
    }
}

/// Two analyses on one shared [`AnalysisArena`] must produce exactly
/// what fresh allocations produce — workspace reuse is a pure
/// optimisation. The small-then-large ordering is deliberate: the
/// second analysis' slabs straddle the backing-store boundary left by
/// the first, the exact shape where a missed scrub of reused prefix
/// words would leak phantom must-content across analyses.
#[test]
fn shared_workspace_equals_fresh_allocation() {
    let small = random_program(7, RandomParams::default(), Placement::default());
    let large = random_program(1234, RandomParams::default(), Placement::default());
    let small_in = AnalysisInput::level1(
        CacheConfig::new(2, 1, 32, 1).expect("valid"),
        LevelKind::Unified,
    );
    let large_in = AnalysisInput::level1(
        CacheConfig::new(64, 4, 32, 4).expect("valid"),
        LevelKind::Unified,
    );

    let mut ws = AnalysisArena::new();
    let shared = [
        analyze_in(&mut ws, &small, &small_in),
        analyze_in(&mut ws, &large, &large_in),
        analyze_in(&mut ws, &small, &small_in),
    ];
    let fresh = [
        analyze(&small, &small_in),
        analyze(&large, &large_in),
        analyze(&small, &small_in),
    ];
    for (s, f) in shared.iter().zip(&fresh) {
        assert_eq!(
            s.iter().collect::<Vec<_>>(),
            f.iter().collect::<Vec<_>>(),
            "classes diverged between shared-workspace and fresh runs"
        );
        assert_eq!(s.footprint(), f.footprint(), "footprint diverged");
        assert_eq!(s.histogram(), f.histogram(), "histogram diverged");
    }
    // The reuse is visible in the stats: every analysis resets the
    // arena exactly once, and the high-water mark is per analysis — the
    // small analysis run after the large one reports its own footprint,
    // not the large one's.
    for s in &shared {
        assert_eq!(s.fixpoint_stats().arena_resets, 1);
        assert!(
            s.fixpoint_stats().kernel_words > 0,
            "kernels must be counted"
        );
    }
    assert!(shared[1].fixpoint_stats().arena_bytes > shared[0].fixpoint_stats().arena_bytes);
    assert_eq!(shared[2].fixpoint_stats(), shared[0].fixpoint_stats());
}

/// The bitset-domain twin check at the hierarchy level: the composed
/// L1→L2 pipeline built from worklist analyses equals one built from
/// sweeps.
#[test]
fn hierarchy_from_sweeps_equals_worklist_hierarchy() {
    for seed in [3u64, 17, 99] {
        let p = random_program(seed, RandomParams::default(), Placement::default());
        let l1i_cfg = CacheConfig::new(8, 1, 16, 1).expect("valid");
        let l1d_cfg = CacheConfig::new(4, 1, 16, 1).expect("valid");
        let l2_cfg = CacheConfig::new(64, 4, 32, 4).expect("valid");
        let h = analyze_hierarchy(
            &p,
            &HierarchyConfig {
                l1i: l1i_cfg,
                l1d: l1d_cfg,
                l2: Some(AnalysisInput::level1(l2_cfg, LevelKind::Unified)),
            },
        );
        // Sweep-composed reference.
        let l1i = analyze_sweep(&p, &AnalysisInput::level1(l1i_cfg, LevelKind::Instruction));
        let l1d = analyze_sweep(&p, &AnalysisInput::level1(l1d_cfg, LevelKind::Data));
        let mut l2_input = AnalysisInput::level1(l2_cfg, LevelKind::Unified);
        l2_input.reach = Some(reach_filter(&[&l1i, &l1d]));
        let l2 = analyze_sweep(&p, &l2_input);
        let classes = |a: &wcet_cache::analysis::CacheAnalysis| a.iter().collect::<Vec<_>>();
        assert_eq!(classes(&h.l1i), classes(&l1i));
        assert_eq!(classes(&h.l1d), classes(&l1d));
        assert_eq!(classes(h.l2.as_ref().expect("configured")), classes(&l2),);
        let stats = h.fixpoint_stats();
        assert!(stats.evaluated > 0);
        assert!(
            stats.evaluated < stats.sweep_evals,
            "worklist must beat the sweep-equivalent bill: {stats:?}"
        );
        let sets: BTreeSet<u32> = h.l1i.footprint().keys().copied().collect();
        assert!(sets.len() <= l1i_cfg.sets() as usize);
    }
}
