//! Concrete LRU caches: the ground truth the abstract analyses must be
//! sound against, and the component the cycle-level simulator instantiates.
//!
//! Supports the hardware mechanisms surveyed in the paper's §4.2:
//! **line locking** (locked lines are never evicted) and **bypass** (lines
//! that are never installed). Partitioning is modelled one level up (see
//! [`crate::partition`]): a way/bank partition turns one physical cache into
//! per-owner effective caches.

use std::collections::{BTreeSet, VecDeque};

use crate::config::{CacheConfig, LineAddr};

/// Result of a concrete cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The line was present.
    Hit,
    /// The line was absent (and was installed, unless bypassed).
    Miss,
}

impl AccessOutcome {
    /// True for [`AccessOutcome::Hit`].
    #[must_use]
    pub fn is_hit(self) -> bool {
        matches!(self, AccessOutcome::Hit)
    }
}

/// A concrete set-associative LRU cache with optional locking and bypass.
#[derive(Debug, Clone)]
pub struct ConcreteCache {
    config: CacheConfig,
    /// Per set: unlocked lines, most-recently-used first.
    sets: Vec<VecDeque<LineAddr>>,
    /// Per set: locked (pinned) lines; they consume ways but never move.
    locked: Vec<BTreeSet<LineAddr>>,
    /// Lines that are never installed (they always miss, without eviction).
    bypass: BTreeSet<LineAddr>,
    hits: u64,
    misses: u64,
}

impl ConcreteCache {
    /// Creates an empty (cold) cache.
    #[must_use]
    pub fn new(config: CacheConfig) -> ConcreteCache {
        ConcreteCache {
            config,
            sets: vec![VecDeque::new(); config.sets() as usize],
            locked: vec![BTreeSet::new(); config.sets() as usize],
            bypass: BTreeSet::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// The cache geometry.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Declares `lines` as bypassed: they are never installed.
    pub fn set_bypass<I: IntoIterator<Item = LineAddr>>(&mut self, lines: I) {
        self.bypass = lines.into_iter().collect();
    }

    /// Locks `lines` into the cache (preloading them). Lines beyond a set's
    /// capacity are ignored; the number actually locked is returned.
    ///
    /// Locked lines hit on every access and are never evicted; each locked
    /// line removes one way from its set for normal allocation.
    pub fn lock<I: IntoIterator<Item = LineAddr>>(&mut self, lines: I) -> usize {
        let mut locked = 0;
        for line in lines {
            let set = self.config.set_of(line) as usize;
            if self.locked[set].contains(&line) {
                continue;
            }
            if (self.locked[set].len() as u32) < self.config.ways() {
                self.locked[set].insert(line);
                // Evict it from the unlocked part if present, and shrink
                // the unlocked capacity if now over-full.
                self.sets[set].retain(|&l| l != line);
                let cap = self.unlocked_ways(set);
                while self.sets[set].len() > cap {
                    self.sets[set].pop_back();
                }
                locked += 1;
            }
        }
        locked
    }

    fn unlocked_ways(&self, set: usize) -> usize {
        (self.config.ways() as usize).saturating_sub(self.locked[set].len())
    }

    /// Accesses `line`, updating LRU state.
    pub fn access(&mut self, line: LineAddr) -> AccessOutcome {
        let set = self.config.set_of(line) as usize;
        if self.locked[set].contains(&line) {
            self.hits += 1;
            return AccessOutcome::Hit;
        }
        if self.bypass.contains(&line) {
            self.misses += 1;
            return AccessOutcome::Miss;
        }
        if let Some(pos) = self.sets[set].iter().position(|&l| l == line) {
            self.sets[set].remove(pos);
            self.sets[set].push_front(line);
            self.hits += 1;
            AccessOutcome::Hit
        } else {
            let cap = self.unlocked_ways(set);
            if cap == 0 {
                // Fully locked set: the line cannot be installed.
                self.misses += 1;
                return AccessOutcome::Miss;
            }
            while self.sets[set].len() >= cap {
                self.sets[set].pop_back();
            }
            self.sets[set].push_front(line);
            self.misses += 1;
            AccessOutcome::Miss
        }
    }

    /// Checks presence without updating state.
    #[must_use]
    pub fn probe(&self, line: LineAddr) -> bool {
        let set = self.config.set_of(line) as usize;
        self.locked[set].contains(&line) || self.sets[set].contains(&line)
    }

    /// The concrete LRU position of `line` (0 = most recent) among unlocked
    /// lines, if present.
    #[must_use]
    pub fn position(&self, line: LineAddr) -> Option<usize> {
        let set = self.config.set_of(line) as usize;
        self.sets[set].iter().position(|&l| l == line)
    }

    /// Invalidates all (unlocked) contents.
    pub fn flush(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
    }

    /// `(hits, misses)` counters since construction.
    #[must_use]
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(sets: u32, ways: u32) -> ConcreteCache {
        ConcreteCache::new(CacheConfig::new(sets, ways, 32, 1).expect("valid"))
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = cache(1, 2);
        assert!(!c.access(LineAddr(0)).is_hit());
        assert!(!c.access(LineAddr(1)).is_hit());
        assert!(c.access(LineAddr(0)).is_hit()); // 0 now MRU
        assert!(!c.access(LineAddr(2)).is_hit()); // evicts 1
        assert!(c.access(LineAddr(0)).is_hit());
        assert!(!c.access(LineAddr(1)).is_hit()); // 1 was evicted
    }

    #[test]
    fn sets_are_independent() {
        let mut c = cache(2, 1);
        assert!(!c.access(LineAddr(0)).is_hit()); // set 0
        assert!(!c.access(LineAddr(1)).is_hit()); // set 1
        assert!(c.access(LineAddr(0)).is_hit());
        assert!(c.access(LineAddr(1)).is_hit());
    }

    #[test]
    fn locked_lines_always_hit_and_shrink_capacity() {
        let mut c = cache(1, 2);
        assert_eq!(c.lock([LineAddr(0)]), 1);
        assert!(c.access(LineAddr(0)).is_hit());
        // Only one way left: lines 1 and 2 thrash.
        assert!(!c.access(LineAddr(1)).is_hit());
        assert!(!c.access(LineAddr(2)).is_hit());
        assert!(!c.access(LineAddr(1)).is_hit());
        assert!(c.access(LineAddr(0)).is_hit()); // still locked
    }

    #[test]
    fn lock_respects_capacity() {
        let mut c = cache(1, 2);
        assert_eq!(c.lock([LineAddr(0), LineAddr(1), LineAddr(2)]), 2);
        // Set fully locked: other lines can never be installed.
        assert!(!c.access(LineAddr(5)).is_hit());
        assert!(!c.access(LineAddr(5)).is_hit());
        assert!(c.access(LineAddr(0)).is_hit());
        assert!(c.access(LineAddr(1)).is_hit());
    }

    #[test]
    fn bypassed_lines_never_install_nor_evict() {
        let mut c = cache(1, 1);
        assert!(!c.access(LineAddr(0)).is_hit());
        c.set_bypass([LineAddr(7)]);
        assert!(!c.access(LineAddr(7)).is_hit());
        assert!(!c.access(LineAddr(7)).is_hit());
        // Line 0 untouched by the bypassed accesses.
        assert!(c.access(LineAddr(0)).is_hit());
    }

    #[test]
    fn stats_count() {
        let mut c = cache(1, 1);
        c.access(LineAddr(0));
        c.access(LineAddr(0));
        c.access(LineAddr(1));
        assert_eq!(c.stats(), (1, 2));
    }

    #[test]
    fn flush_clears_unlocked_only() {
        let mut c = cache(1, 2);
        c.lock([LineAddr(9)]);
        c.access(LineAddr(1));
        c.flush();
        assert!(!c.probe(LineAddr(1)));
        assert!(c.probe(LineAddr(9)));
    }
}
