//! Cache-content locking (paper §4.2: Puaut & Decotigny \[27\], Suhendra &
//! Mitra \[37\]).
//!
//! * **Static locking** selects one set of lines for the whole task, locks
//!   them at task start (paying one preload pass), and never changes them.
//! * **Dynamic locking** re-selects contents per program *region*
//!   (outermost loop nests here), paying a reload at each region entry but
//!   letting each loop nest lock exactly its own hot lines. Suhendra &
//!   Mitra report dynamic locking yields lower WCETs whenever the hot sets
//!   of different regions differ — experiment E05 reproduces this.
//!
//! Selection is the classic greedy profile-free heuristic: rank lines by
//! worst-case access frequency (loop-bound products), lock the hottest
//! lines of each set, leaving `ways − locked` ways for normal allocation.

use std::collections::{BTreeMap, BTreeSet};

use wcet_ir::program::AccessAddrs;
use wcet_ir::{BlockId, Program};

use crate::config::{CacheConfig, LineAddr};

/// A static lock selection.
#[derive(Debug, Clone, Default)]
pub struct LockPlan {
    /// Locked lines (at most `max_ways` per set).
    pub lines: BTreeSet<LineAddr>,
    /// Number of ways sacrificed per set (uniform upper bound actually
    /// used for the effective-way reduction of unlocked accesses).
    pub locked_ways: u32,
}

impl LockPlan {
    /// Cost of the initial preload, in line loads.
    #[must_use]
    pub fn preload_lines(&self) -> usize {
        self.lines.len()
    }
}

/// One dynamically-locked region: an outermost loop and its lock contents.
#[derive(Debug, Clone)]
pub struct LockRegion {
    /// Header of the outermost loop delimiting the region; `None` is the
    /// residual region (code outside any loop).
    pub scope: Option<BlockId>,
    /// Blocks belonging to the region.
    pub blocks: BTreeSet<BlockId>,
    /// Lines locked while executing the region.
    pub lines: BTreeSet<LineAddr>,
}

/// A dynamic lock selection: one lock content per region.
#[derive(Debug, Clone, Default)]
pub struct DynamicLockPlan {
    /// Regions in program order.
    pub regions: Vec<LockRegion>,
    /// Ways sacrificed per set within each region.
    pub locked_ways: u32,
}

impl DynamicLockPlan {
    /// The region containing `block`, if any.
    #[must_use]
    pub fn region_of(&self, block: BlockId) -> Option<&LockRegion> {
        self.regions.iter().find(|r| r.blocks.contains(&block))
    }
}

/// Per-line worst-case *use* frequency over a block subset.
///
/// Consecutive accesses to the same line within a block are collapsed into
/// one use: eight sequential fetches from one code line are a single use as
/// far as caching benefit is concerned (the trailing seven always hit once
/// the line is resident). This is the quantity the locking and bypass
/// heuristics rank by.
#[must_use]
pub fn line_heat(
    program: &Program,
    cache: &CacheConfig,
    blocks: impl Iterator<Item = BlockId>,
) -> BTreeMap<LineAddr, u64> {
    let mut heat: BTreeMap<LineAddr, u64> = BTreeMap::new();
    for b in blocks {
        let count = program.max_block_count(b);
        let mut last: Option<LineAddr> = None;
        for acc in program.accesses(b) {
            let lines = match acc.addrs {
                AccessAddrs::Exact(a) => vec![cache.line_of(a)],
                AccessAddrs::Range { base, bytes } => cache.lines_of_range(base, bytes),
            };
            if lines.len() == 1 && last == Some(lines[0]) {
                continue; // same run, no new use
            }
            last = if lines.len() == 1 {
                Some(lines[0])
            } else {
                None
            };
            for line in lines {
                let e = heat.entry(line).or_insert(0);
                *e = e.saturating_add(count);
            }
        }
    }
    heat
}

/// Greedy top-`max_ways`-per-set selection from a heat map.
fn select_hottest(
    cache: &CacheConfig,
    heat: &BTreeMap<LineAddr, u64>,
    max_ways: u32,
) -> BTreeSet<LineAddr> {
    let mut per_set: BTreeMap<u32, Vec<(u64, LineAddr)>> = BTreeMap::new();
    for (&line, &h) in heat {
        per_set
            .entry(cache.set_of(line))
            .or_default()
            .push((h, line));
    }
    let mut out = BTreeSet::new();
    for (_, mut cands) in per_set {
        // Hottest first; deterministic tie-break on the line address.
        cands.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        for (h, line) in cands.into_iter().take(max_ways as usize) {
            if h > 1 {
                // Locking a once-accessed line can never pay off.
                out.insert(line);
            }
        }
    }
    out
}

/// Selects a static lock content: the `max_ways` hottest lines of each set
/// over the whole program.
#[must_use]
pub fn select_static(program: &Program, cache: &CacheConfig, max_ways: u32) -> LockPlan {
    let max_ways = max_ways.min(cache.ways());
    let heat = line_heat(program, cache, program.cfg().block_ids());
    LockPlan {
        lines: select_hottest(cache, &heat, max_ways),
        locked_ways: max_ways,
    }
}

/// Selects dynamic lock contents: one per outermost loop, chosen from the
/// lines that loop actually touches, plus a residual region for non-loop
/// code (locked empty — locking cannot help straight-line code).
#[must_use]
pub fn select_dynamic(program: &Program, cache: &CacheConfig, max_ways: u32) -> DynamicLockPlan {
    let max_ways = max_ways.min(cache.ways());
    let loops = program.loops();
    let mut regions = Vec::new();
    let mut covered: BTreeSet<BlockId> = BTreeSet::new();
    for l in loops.ids() {
        let lp = loops.loop_of(l);
        if lp.parent.is_some() {
            continue; // only outermost loops delimit regions
        }
        let heat = line_heat(program, cache, lp.blocks.iter().copied());
        let lines = select_hottest(cache, &heat, max_ways);
        covered.extend(lp.blocks.iter().copied());
        regions.push(LockRegion {
            scope: Some(lp.header),
            blocks: lp.blocks.clone(),
            lines,
        });
    }
    let residual: BTreeSet<BlockId> = program
        .cfg()
        .block_ids()
        .filter(|b| !covered.contains(b))
        .collect();
    if !residual.is_empty() {
        regions.push(LockRegion {
            scope: None,
            blocks: residual,
            lines: BTreeSet::new(),
        });
    }
    DynamicLockPlan {
        regions,
        locked_ways: max_ways,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcet_ir::synth::{fir, matmul, Placement};

    fn cache() -> CacheConfig {
        CacheConfig::new(16, 4, 32, 1).expect("valid")
    }

    #[test]
    fn static_lock_is_greedy_optimal_per_set() {
        let p = fir(4, 32, Placement::default());
        let plan = select_static(&p, &cache(), 1);
        assert!(!plan.lines.is_empty());
        // Greedy invariant: every locked line is at least as hot as every
        // unlocked line of its set.
        let heat = line_heat(&p, &cache(), p.cfg().block_ids());
        for locked in &plan.lines {
            let set = cache().set_of(*locked);
            let h_locked = heat[locked];
            for (line, &h) in &heat {
                if cache().set_of(*line) == set && !plan.lines.contains(line) {
                    assert!(
                        h <= h_locked,
                        "{line} (heat {h}) beats locked {locked} ({h_locked})"
                    );
                }
            }
        }
        // Per-set cap respected.
        let mut per_set: BTreeMap<u32, usize> = BTreeMap::new();
        for l in &plan.lines {
            *per_set.entry(cache().set_of(*l)).or_default() += 1;
        }
        assert!(per_set.values().all(|&c| c <= 1));
    }

    #[test]
    fn coefficient_table_locked_with_two_ways() {
        // With 2 lockable ways per set the hot FIR coefficient line fits
        // alongside the hottest code line of its set.
        let p = fir(4, 32, Placement::default());
        let plan = select_static(&p, &cache(), 2);
        let coeff = &p.data_regions()[0];
        let coeff_lines: BTreeSet<LineAddr> = cache()
            .lines_of_range(coeff.base, coeff.bytes)
            .into_iter()
            .collect();
        assert!(
            plan.lines.intersection(&coeff_lines).next().is_some(),
            "expected hot coefficient lines locked"
        );
    }

    #[test]
    fn dynamic_regions_cover_all_blocks() {
        let p = matmul(4, Placement::default());
        let plan = select_dynamic(&p, &cache(), 2);
        for b in p.cfg().block_ids() {
            assert!(plan.region_of(b).is_some(), "{b} must belong to a region");
        }
    }

    #[test]
    fn dynamic_lock_contents_are_region_local() {
        // Two distinct loops accessing different tables: each region must
        // only lock its own lines.
        let p = fir(4, 32, Placement::default());
        let plan = select_dynamic(&p, &cache(), 2);
        for region in &plan.regions {
            let heat = line_heat(&p, &cache(), region.blocks.iter().copied());
            for line in &region.lines {
                assert!(heat.contains_key(line), "locked line untouched by region");
            }
        }
    }

    #[test]
    fn once_used_lines_never_locked() {
        // A line whose total worst-case use count is 1 cannot benefit from
        // locking; the selector must skip it even with spare ways.
        let p = matmul(3, Placement::default());
        let plan = select_static(&p, &cache(), 4);
        let heat = line_heat(&p, &cache(), p.cfg().block_ids());
        for line in &plan.lines {
            assert!(heat[line] > 1, "locked once-used line {line}");
        }
    }

    #[test]
    fn max_ways_clamped_to_cache() {
        let p = matmul(3, Placement::default());
        let plan = select_static(&p, &cache(), 99);
        assert_eq!(plan.locked_ways, cache().ways());
    }
}
