//! Joint analysis of shared caches (paper §4.1).
//!
//! Implements the interference model of the surveyed shared-L2 analyses:
//!
//! * **Yan & Zhang \[40\]** — direct-mapped shared L2: any co-runner line in
//!   the same set kills the classification of the task's accesses to that
//!   set. The age shift below covers it: one conflicting line already
//!   saturates a one-way set.
//! * **Li et al. \[41\] / Hardy et al. \[12\]** — set-associative shared L2:
//!   each distinct conflicting line of a co-runner can age the task's lines
//!   by one, so must-ages are shifted by the count of distinct interfering
//!   lines per set (saturated at the associativity).
//! * **Lifetime refinement (Li et al. \[41\])** — only tasks whose execution
//!   windows can overlap interfere; the caller passes the set of live
//!   co-runners (computed by `wcet-sched`), shrinking the shift.

use std::collections::{BTreeMap, BTreeSet};

use wcet_ir::Program;

use crate::config::CacheConfig;

/// The per-set interference a set of co-runners exerts on a shared cache:
/// the number of distinct lines they may install per set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InterferenceMap {
    per_set: BTreeMap<u32, u32>,
}

impl InterferenceMap {
    /// No interference.
    #[must_use]
    pub fn none() -> InterferenceMap {
        InterferenceMap::default()
    }

    /// Builds the union interference of `footprints` (one per co-runner):
    /// distinct lines are counted across all co-runners.
    #[must_use]
    pub fn from_footprints<'a, I>(footprints: I) -> InterferenceMap
    where
        I: IntoIterator<Item = &'a BTreeMap<u32, BTreeSet<crate::config::LineAddr>>>,
    {
        let mut union: BTreeMap<u32, BTreeSet<crate::config::LineAddr>> = BTreeMap::new();
        for fp in footprints {
            for (&set, lines) in fp {
                union.entry(set).or_default().extend(lines.iter().copied());
            }
        }
        InterferenceMap {
            per_set: union
                .into_iter()
                .map(|(set, lines)| (set, u32::try_from(lines.len()).unwrap_or(u32::MAX)))
                .collect(),
        }
    }

    /// Interfering distinct-line count for `set`.
    #[must_use]
    pub fn lines(&self, set: u32) -> u32 {
        self.per_set.get(&set).copied().unwrap_or(0)
    }

    /// The age-shift vector for a cache with `sets` sets, saturated at
    /// `ways` (a shift beyond the associativity evicts everything anyway).
    #[must_use]
    pub fn shift_vector(&self, sets: u32, ways: u32) -> Vec<u32> {
        (0..sets).map(|s| self.lines(s).min(ways)).collect()
    }

    /// Total interfering lines across sets (diagnostics).
    #[must_use]
    pub fn total_lines(&self) -> u64 {
        self.per_set.values().map(|&v| u64::from(v)).sum()
    }
}

/// Conservative whole-program footprint of a task on a cache: every line of
/// every (non-bypassed) access, regardless of L1 filtering.
///
/// Useful as the safe default when no L1 analysis of the co-runner is
/// available (e.g. a non-analysable co-runner — the paper's §3.1 concern);
/// the refined footprint from
/// [`crate::analysis::CacheAnalysis::footprint`] is tighter because L1
/// hits never reach the shared L2.
#[must_use]
pub fn conservative_footprint(
    program: &Program,
    cache: &CacheConfig,
) -> BTreeMap<u32, BTreeSet<crate::config::LineAddr>> {
    use wcet_ir::program::AccessAddrs;
    let mut fp: BTreeMap<u32, BTreeSet<crate::config::LineAddr>> = BTreeMap::new();
    for (b, _) in program.cfg().iter() {
        for acc in program.accesses(b) {
            let lines = match acc.addrs {
                AccessAddrs::Exact(a) => vec![cache.line_of(a)],
                AccessAddrs::Range { base, bytes } => cache.lines_of_range(base, bytes),
            };
            for line in lines {
                fp.entry(cache.set_of(line)).or_default().insert(line);
            }
        }
    }
    fp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{analyze, AnalysisInput, LevelKind};
    use crate::config::LineAddr;
    use wcet_ir::synth::{fir, matmul, Placement};

    #[test]
    fn union_counts_distinct_lines() {
        let mut fp1: BTreeMap<u32, BTreeSet<LineAddr>> = BTreeMap::new();
        fp1.entry(0).or_default().extend([LineAddr(0), LineAddr(8)]);
        let mut fp2: BTreeMap<u32, BTreeSet<LineAddr>> = BTreeMap::new();
        fp2.entry(0)
            .or_default()
            .extend([LineAddr(8), LineAddr(16)]);
        fp2.entry(1).or_default().insert(LineAddr(1));
        let im = InterferenceMap::from_footprints([&fp1, &fp2]);
        assert_eq!(im.lines(0), 3); // 0, 8, 16 distinct
        assert_eq!(im.lines(1), 1);
        assert_eq!(im.lines(2), 0);
        assert_eq!(im.total_lines(), 4);
    }

    #[test]
    fn shift_vector_saturates_at_ways() {
        let mut fp: BTreeMap<u32, BTreeSet<LineAddr>> = BTreeMap::new();
        fp.entry(0)
            .or_default()
            .extend((0..10).map(|i| LineAddr(i * 4)));
        let im = InterferenceMap::from_footprints([&fp]);
        let shifts = im.shift_vector(4, 2);
        assert_eq!(shifts, vec![2, 0, 0, 0]);
    }

    #[test]
    fn overlapping_corunner_degrades_more_than_disjoint() {
        let cache = CacheConfig::new(16, 2, 32, 4).expect("valid");
        let victim = matmul(4, Placement::slot(0));
        // Co-runner at the *same* placement collides in the cache; a
        // co-runner a slot away maps to different lines (but may share sets).
        let bully_same = matmul(4, Placement::slot(0));
        let bully_far = fir(2, 4, Placement::slot(3));

        let fp_same = conservative_footprint(&bully_same, &cache);
        let fp_far = conservative_footprint(&bully_far, &cache);
        let im_same = InterferenceMap::from_footprints([&fp_same]);
        let im_far = InterferenceMap::from_footprints([&fp_far]);

        let mut input = AnalysisInput::level1(cache, LevelKind::Unified);
        let baseline = analyze(&victim, &input);
        input.interference_shift = im_same.shift_vector(cache.sets(), cache.ways());
        let with_same = analyze(&victim, &input);
        input.interference_shift = im_far.shift_vector(cache.sets(), cache.ways());
        let with_far = analyze(&victim, &input);

        let ah = |a: &crate::analysis::CacheAnalysis| a.histogram().0;
        assert!(
            ah(&with_same) <= ah(&with_far),
            "identical placement can't be milder"
        );
        assert!(ah(&with_far) <= ah(&baseline));
        assert!(ah(&with_same) < ah(&baseline), "full conflict must hurt");
    }

    #[test]
    fn lifetime_refinement_reduces_interference() {
        let cache = CacheConfig::new(16, 2, 32, 4).expect("valid");
        let a = matmul(4, Placement::slot(0));
        let b = matmul(4, Placement::slot(0));
        let fa = conservative_footprint(&a, &cache);
        let fb = conservative_footprint(&b, &cache);
        // All overlap vs. only one live co-runner.
        let im_all = InterferenceMap::from_footprints([&fa, &fb]);
        let im_one = InterferenceMap::from_footprints([&fa]);
        assert!(im_one.total_lines() <= im_all.total_lines());
    }
}
