//! Abstract cache domains for LRU: *must* and *may* analyses
//! (Ferdinand & Wilhelm \[11\] in the paper's bibliography), over an
//! **interned bitset representation**.
//!
//! * **Must** ages are *upper bounds* on a line's LRU position; a line in
//!   the must state is guaranteed cached, so an access to it is
//!   `ALWAYS_HIT`.
//! * **May** ages are *lower bounds*; a line absent from the may state is
//!   guaranteed *not* cached, so an access to it is `ALWAYS_MISS`
//!   (sound under the cold-start assumption: caches are invalidated when a
//!   task starts, as predictable multicores such as MERASA do).
//!
//! Both updates rely on LRU positions within a set being *distinct*, which
//! makes the textbook update rules exact:
//!
//! * must, access `l` with old upper bound `a`: `l → 0`; every other line
//!   with age `< a` ages by 1 (evicted at `ways`); others keep their age.
//! * may, access `l` with old lower bound `a`: `l → 0`; every other line
//!   with age `≤ a` ages by 1 (removed at `ways`); others keep their age.
//!
//! **Representation.** A fixpoint only ever touches the lines the
//! analysed program can access, so a [`CacheDomain`] *interns* that
//! universe once — every line becomes a dense `(set, bit)` index — and
//! an [`AbsCacheState`] is then two flat `u64` word arrays (one per
//! domain), holding one fixed-width bitset per `(set, age)` row: bit `b`
//! of row `(s, a)` set means "line `b` of set `s` has age bound `a`".
//! Distinct ages per line ⇒ each bit appears in at most one row of its
//! set. Join, transfer, aging and equality all become word operations
//! (`&`/`|`/shifted row copies/`==`), replacing the former per-state
//! `BTreeMap<LineAddr, u32>` allocations that dominated the fixpoint.
//!
//! Per-set way counts support locking (a locked way is invisible to the
//! abstract state) and shared-cache interference shifts (paper §4.1).
//!
//! The word loops themselves live in [`crate::kernel`] as explicitly
//! unrolled chunk kernels; this module supplies the row geometry and the
//! lattice, and counts kernel words at op granularity for the
//! `kernel_words` statistic. Compiled-step candidate masks are owned by
//! the per-analysis bump [`Arena`] (handles, not boxes), so compiling a
//! transfer program allocates nothing after the first analysis warms the
//! arena up.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use wcet_ir::arena::{Arena, Slab};

use crate::config::{CacheConfig, LineAddr};
use crate::kernel;

/// Multiply-shift hasher for the line-interning map. Keys are `LineAddr`
/// (one `u64`); the default SipHash dominates domain construction when a
/// range access interns thousands of lines.
#[derive(Default)]
struct LineHasher(u64);

impl Hasher for LineHasher {
    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (unused by u64 keys, which go through
        // `write_u64`): fold each byte through the same multiply-shift
        // mixer, so a generic write composes with the u64 path instead
        // of seeding the state with raw FNV products mid-stream.
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 ^= self.0 >> 29;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type LineMap = HashMap<LineAddr, LineRef, BuildHasherDefault<LineHasher>>;

/// An interned line: dense bit `bit` of set `set` within a
/// [`CacheDomain`]'s universe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineRef {
    /// Set index.
    pub set: u32,
    /// Bit position within the set's universe.
    pub bit: u32,
}

/// The interned universe and geometry shared by every [`AbsCacheState`]
/// of one analysis: per-set effective way counts, the per-set line
/// universe, and the word layout of the state arrays.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheDomain {
    /// Effective ways per set (reduced by locking).
    set_ways: Vec<u32>,
    /// Sorted line universe per set.
    lines: Vec<Vec<LineAddr>>,
    /// Line → (set, bit) interning map.
    index: LineMap,
    /// Words per set (`ceil(lines.len() / 64)`).
    words: Vec<usize>,
    /// Word offset of each set's age-0 row in the flat state arrays.
    offsets: Vec<usize>,
    /// Total words of one domain array.
    total_words: usize,
    /// Widest set's word count (join scratch sizing).
    max_words: usize,
}

impl CacheDomain {
    /// Builds a domain from per-set effective way counts and the per-set
    /// line universe (lines are sorted and deduplicated here).
    ///
    /// # Panics
    ///
    /// Panics if `set_ways` is empty or the two vectors disagree in
    /// length.
    #[must_use]
    pub fn new(set_ways: Vec<u32>, mut lines_per_set: Vec<Vec<LineAddr>>) -> CacheDomain {
        assert!(!set_ways.is_empty(), "cache must have at least one set");
        assert_eq!(
            set_ways.len(),
            lines_per_set.len(),
            "one line universe per set"
        );
        let mut index = LineMap::default();
        for (s, lines) in lines_per_set.iter_mut().enumerate() {
            lines.sort_unstable();
            lines.dedup();
            for (b, &line) in lines.iter().enumerate() {
                index.insert(
                    line,
                    LineRef {
                        set: s as u32,
                        bit: b as u32,
                    },
                );
            }
        }
        let words: Vec<usize> = lines_per_set.iter().map(|l| l.len().div_ceil(64)).collect();
        let mut offsets = Vec::with_capacity(set_ways.len());
        let mut total = 0usize;
        for (s, &w) in words.iter().enumerate() {
            offsets.push(total);
            total += w * set_ways[s] as usize;
        }
        let max_words = words.iter().copied().max().unwrap_or(0);
        CacheDomain {
            set_ways,
            lines: lines_per_set,
            index,
            words,
            offsets,
            total_words: total,
            max_words,
        }
    }

    /// Convenience constructor: full associativity everywhere, universe
    /// grouped by `config`'s set mapping.
    #[must_use]
    pub fn for_config(
        config: &CacheConfig,
        lines: impl IntoIterator<Item = LineAddr>,
    ) -> CacheDomain {
        let sets = config.sets() as usize;
        let mut per_set = vec![Vec::new(); sets];
        for line in lines {
            per_set[config.set_of(line) as usize].push(line);
        }
        CacheDomain::new(vec![config.ways(); sets], per_set)
    }

    /// Number of sets.
    #[must_use]
    pub fn num_sets(&self) -> usize {
        self.set_ways.len()
    }

    /// Effective ways of `set`.
    ///
    /// # Panics
    ///
    /// Panics if `set` is out of range.
    #[must_use]
    pub fn ways(&self, set: usize) -> u32 {
        self.set_ways[set]
    }

    /// The dense index of `line`, if it belongs to the universe.
    #[must_use]
    pub fn intern(&self, line: LineAddr) -> Option<LineRef> {
        self.index.get(&line).copied()
    }

    /// The cold-start state: nothing cached, nothing possibly cached.
    #[must_use]
    pub fn cold(&self) -> AbsCacheState {
        AbsCacheState {
            must: vec![0; self.total_words],
            may: vec![0; self.total_words],
        }
    }

    /// Word range of row `(set, age)`.
    #[inline]
    fn row(&self, set: usize, age: u32) -> std::ops::Range<usize> {
        debug_assert!(age < self.set_ways[set]);
        let start = self.offsets[set] + age as usize * self.words[set];
        start..start + self.words[set]
    }

    /// Words per set-row (fixpoint clients lay per-set bitsets over the
    /// interned universe, e.g. the loop-pressure counters).
    #[must_use]
    pub(crate) fn words_of(&self, set: usize) -> usize {
        self.words[set]
    }

    /// Total words of one domain array (an [`AbsCacheState`] slab holds
    /// twice this: must rows, then may rows).
    #[must_use]
    pub(crate) fn total_words(&self) -> usize {
        self.total_words
    }

    /// The interned universe of `set`, sorted and deduplicated.
    #[must_use]
    pub(crate) fn lines_of_set(&self, set: usize) -> &[LineAddr] {
        &self.lines[set]
    }

    fn line_op(&self, line: LineRef) -> LineOp {
        let set = line.set as usize;
        LineOp {
            ways: self.set_ways[set],
            word: (line.bit / 64) as usize,
            mask: 1u64 << (line.bit % 64),
            row0: self.offsets[set],
            stride: self.words[set],
        }
    }

    /// Compiles one access into a [`CompiledStep`], resolving every
    /// geometry lookup, bit position and touched-set list once.
    ///
    /// `certain_line` is true when the access resolves to exactly one
    /// line *and* that line survived the locked/bypass filter (the
    /// single-line transfer rule differs from the unknown-line rule).
    /// Returns `None` for accesses that cannot disturb the state: empty
    /// effective sets (fully locked/bypassed) and zero-way (fully locked)
    /// sets, mirroring the early returns of the interpreted path.
    ///
    /// Candidate masks are bump-allocated from `masks`, the per-analysis
    /// arena that also owns the state slabs; the returned step refers to
    /// them by [`Slab`] handle.
    pub(crate) fn compile_step(
        &self,
        reach_always: bool,
        certain_line: bool,
        effective: &[LineRef],
        masks: &mut Arena<u64>,
    ) -> Option<CompiledStep> {
        if effective.is_empty() {
            return None;
        }
        if certain_line {
            debug_assert_eq!(effective.len(), 1);
            let op = self.line_op(effective[0]);
            if op.ways == 0 {
                return None; // fully locked set: no unlocked state to track
            }
            let set = effective[0].set as usize;
            return Some(if reach_always {
                CompiledStep::Known(op)
            } else {
                CompiledStep::UncertainKnown {
                    op,
                    join_sets: Box::new([set]),
                }
            });
        }
        let mut touched: Vec<usize> = effective.iter().map(|l| l.set as usize).collect();
        touched.sort_unstable();
        touched.dedup();
        let live: Vec<usize> = touched
            .iter()
            .copied()
            .filter(|&set| self.set_ways[set] > 0)
            .collect();
        let sets: Vec<SetOp> = live
            .iter()
            .map(|&set| SetOp {
                ways: self.set_ways[set],
                row0: self.offsets[set],
                stride: self.words[set],
                mask: masks.alloc_zeroed(self.words[set]),
            })
            .collect();
        for l in effective {
            if let Ok(i) = live.binary_search(&(l.set as usize)) {
                masks.get_mut(sets[i].mask)[(l.bit / 64) as usize] |= 1u64 << (l.bit % 64);
            }
        }
        if sets.is_empty() {
            return None;
        }
        let sets = sets.into_boxed_slice();
        Some(if reach_always {
            CompiledStep::Unknown { sets }
        } else {
            CompiledStep::UncertainUnknown {
                sets,
                join_sets: touched.into_boxed_slice(),
            }
        })
    }
}

/// A precompiled single-line operand: everything
/// [`AbsCacheState::access`] would re-derive per application (effective
/// way count, word index, bit mask, row geometry), resolved once.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LineOp {
    ways: u32,
    word: usize,
    mask: u64,
    row0: usize,
    stride: usize,
}

/// A precompiled touched-set operand of an unknown-line access: the
/// set's row geometry plus the candidate-line bitmask (`stride` words,
/// held by the per-analysis arena). The per-line may update ("clear the
/// line's old age bit, insert it at age 0") folds into whole-row word
/// ops over this mask, so a 4096-candidate range access costs
/// `ways × words` word operations per application instead of 4096 bit
/// probes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SetOp {
    ways: u32,
    row0: usize,
    stride: usize,
    mask: Slab,
}

/// One compiled access of a block's transfer program. Applying a step
/// needs the arena that owns its candidate masks (the same arena the
/// analysis allocates its state slabs from).
#[derive(Debug, Clone)]
pub(crate) enum CompiledStep {
    /// Certain access to a known line.
    Known(LineOp),
    /// Certain access to an unknown line out of a range.
    Unknown {
        /// Touched sets (deduplicated, zero-way-filtered) with their
        /// candidate masks.
        sets: Box<[SetOp]>,
    },
    /// May-or-may-not-happen access to a known line.
    UncertainKnown {
        /// The line operand.
        op: LineOp,
        /// The set to re-join (the line's set).
        join_sets: Box<[usize]>,
    },
    /// May-or-may-not-happen access to an unknown line.
    UncertainUnknown {
        /// Touched sets (deduplicated, zero-way-filtered) with their
        /// candidate masks.
        sets: Box<[SetOp]>,
        /// Sorted touched sets to re-join after the speculative update.
        join_sets: Box<[usize]>,
    },
}

/// Abstract state of one cache (all sets), carrying both domains as flat
/// bitset word arrays over a [`CacheDomain`]'s interned universe. Every
/// operation takes the domain the state was created from; equality
/// compares the word arrays (states of different domains must not be
/// mixed — joins `debug_assert` the layout).
#[derive(Debug, Clone, Default)]
pub struct AbsCacheState {
    /// Must rows: bit b of row (s, a) ⇔ line b of set s has age bound a.
    must: Vec<u64>,
    /// May rows, same layout.
    may: Vec<u64>,
}

impl PartialEq for AbsCacheState {
    fn eq(&self, other: &AbsCacheState) -> bool {
        self.must.len() == other.must.len()
            && self.may.len() == other.may.len()
            && kernel::rows_eq(&self.must, &other.must)
            && kernel::rows_eq(&self.may, &other.may)
    }
}

impl Eq for AbsCacheState {}

/// Which of the two age arrays an update targets.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Dom {
    Must,
    May,
}

/// Reusable join buffers (one cumulative-age mask per side), sized for
/// the widest set. The fused kernels made the former row copies
/// unnecessary: each word of the destination row is read before it is
/// written, so the join runs in place.
#[derive(Default)]
pub(crate) struct JoinScratch {
    cum_a: Vec<u64>,
    cum_b: Vec<u64>,
}

impl JoinScratch {
    /// Buffers sized for `dom`'s widest set.
    pub(crate) fn for_domain(dom: &CacheDomain) -> JoinScratch {
        let mut s = JoinScratch::default();
        s.ensure(dom);
        s
    }

    /// Resizes the buffers for `dom`'s widest set, reusing capacity.
    pub(crate) fn ensure(&mut self, dom: &CacheDomain) {
        self.cum_a.clear();
        self.cum_a.resize(dom.max_words, 0);
        self.cum_b.clear();
        self.cum_b.resize(dom.max_words, 0);
    }
}

impl AbsCacheState {
    fn words(&self, which: Dom) -> &[u64] {
        match which {
            Dom::Must => &self.must,
            Dom::May => &self.may,
        }
    }

    fn words_mut(&mut self, which: Dom) -> &mut [u64] {
        match which {
            Dom::Must => &mut self.must,
            Dom::May => &mut self.may,
        }
    }

    /// The age of `line` in `which`, by row scan (at most `ways` word
    /// tests).
    fn age_of(&self, dom: &CacheDomain, which: Dom, line: LineRef) -> Option<u32> {
        let set = line.set as usize;
        let word = (line.bit / 64) as usize;
        let mask = 1u64 << (line.bit % 64);
        let arr = self.words(which);
        (0..dom.set_ways[set]).find(|&age| arr[dom.row(set, age).start + word] & mask != 0)
    }

    fn clear_bit(&mut self, dom: &CacheDomain, which: Dom, line: LineRef, age: u32) {
        let word = (line.bit / 64) as usize;
        let mask = 1u64 << (line.bit % 64);
        let start = dom.row(line.set as usize, age).start;
        self.words_mut(which)[start + word] &= !mask;
    }

    fn set_bit(&mut self, dom: &CacheDomain, which: Dom, line: LineRef, age: u32) {
        let word = (line.bit / 64) as usize;
        let mask = 1u64 << (line.bit % 64);
        let start = dom.row(line.set as usize, age).start;
        self.words_mut(which)[start + word] |= mask;
    }

    /// Ages rows `0..threshold` of `set` up by one: row `threshold`
    /// absorbs row `threshold − 1` (or drops it when `threshold == ways`),
    /// row 0 empties. `threshold == 0` is a no-op.
    fn age_rows(&mut self, dom: &CacheDomain, which: Dom, set: usize, threshold: u32) {
        self.age_rows_at(
            which,
            dom.offsets[set],
            dom.words[set],
            dom.set_ways[set],
            threshold,
        );
    }

    /// [`AbsCacheState::age_rows`] on precompiled row geometry: the set's
    /// rows live at `row0 + age·w`.
    fn age_rows_at(&mut self, which: Dom, row0: usize, w: usize, ways: u32, threshold: u32) {
        if threshold == 0 || w == 0 {
            return;
        }
        kernel::count_words((threshold as usize + 1) * w);
        let arr = self.words_mut(which);
        if threshold < ways {
            let dst = row0 + threshold as usize * w;
            let (lo, hi) = arr.split_at_mut(dst);
            kernel::or_row(&mut hi[..w], &lo[dst - w..dst]);
        }
        // Shift rows (1..threshold) down from their younger neighbour —
        // one memmove per row.
        for age in (1..threshold).rev() {
            let dst = row0 + age as usize * w;
            arr.copy_within(dst - w..dst, dst);
        }
        arr[row0..row0 + w].fill(0);
    }

    /// Must-age upper bound of `line`, if the line is guaranteed cached.
    #[must_use]
    pub fn must_age(&self, dom: &CacheDomain, line: LineRef) -> Option<u32> {
        self.age_of(dom, Dom::Must, line)
    }

    /// True if `line` may be cached (absent ⇒ guaranteed miss).
    #[must_use]
    pub fn may_contain(&self, dom: &CacheDomain, line: LineRef) -> bool {
        self.age_of(dom, Dom::May, line).is_some()
    }

    /// Applies an access to a *known* line.
    pub fn access(&mut self, dom: &CacheDomain, line: LineRef) {
        let set = line.set as usize;
        let ways = dom.set_ways[set];
        if ways == 0 {
            return; // fully locked set: no unlocked state to track
        }
        // Must: lines with age < old bound (all, when absent) age by one.
        let must_t = self.age_of(dom, Dom::Must, line).unwrap_or(ways);
        if let Some(a) = (must_t < ways).then_some(must_t) {
            self.clear_bit(dom, Dom::Must, line, a);
        }
        self.age_rows(dom, Dom::Must, set, must_t);
        self.set_bit(dom, Dom::Must, line, 0);
        // May: lines with age ≤ old bound (all, when absent) age by one.
        let may_old = self.age_of(dom, Dom::May, line);
        let may_t = may_old.map_or(ways, |a| (a + 1).min(ways));
        if let Some(a) = may_old {
            self.clear_bit(dom, Dom::May, line, a);
        }
        self.age_rows(dom, Dom::May, set, may_t);
        self.set_bit(dom, Dom::May, line, 0);
    }

    /// Applies an access to an *unknown* line drawn from `lines`
    /// (a range-indexed load/store).
    ///
    /// Must: every tracked line in a touched set may be pushed, so ages
    /// increase by 1 (nothing can be inserted). May: every candidate line
    /// may now be cached at age 0; other may-ages are unchanged (their
    /// lower bounds remain valid whether or not they shifted).
    pub fn access_unknown(&mut self, dom: &CacheDomain, lines: &[LineRef]) {
        let mut touched: Vec<usize> = lines.iter().map(|l| l.set as usize).collect();
        touched.sort_unstable();
        touched.dedup();
        for &set in &touched {
            if dom.set_ways[set] == 0 {
                continue;
            }
            self.age_rows(dom, Dom::Must, set, dom.set_ways[set]);
        }
        for &l in lines {
            if dom.set_ways[l.set as usize] == 0 {
                continue;
            }
            if let Some(a) = self.age_of(dom, Dom::May, l) {
                self.clear_bit(dom, Dom::May, l, a);
            }
            self.set_bit(dom, Dom::May, l, 0);
        }
    }

    /// Hard layout guard: both states must carry exactly `dom`'s word
    /// count. This catches every cross-domain mix-up that changes the
    /// layout; two *different* domains with identical word counts are
    /// indistinguishable here, so states must only ever meet states of
    /// the domain that created them (the `analyze` fixpoint guarantees
    /// this by construction).
    fn check_layout(&self, dom: &CacheDomain, other: &AbsCacheState) {
        assert_eq!(
            self.must.len(),
            dom.total_words,
            "state does not belong to this CacheDomain"
        );
        assert_eq!(
            other.must.len(),
            dom.total_words,
            "joined states come from different CacheDomains"
        );
    }

    /// Least upper bound (control-flow join): must intersects with max
    /// age, may unions with min age — all as word operations over
    /// cumulative-age masks.
    ///
    /// # Panics
    ///
    /// Panics if the two states disagree with `dom`'s layout.
    pub fn join(&mut self, dom: &CacheDomain, other: &AbsCacheState) {
        let mut scratch = JoinScratch::for_domain(dom);
        self.join_in(dom, other, &mut scratch);
    }

    /// [`AbsCacheState::join`] with a caller-provided scratch (the
    /// fixpoint reuses one across every join instead of allocating).
    /// Returns whether `self` changed — computed word-by-word during the
    /// join, which is what lets the worklist fixpoint requeue only
    /// successors whose in-state actually moved (the former sweep cloned
    /// the state and compared afterwards).
    pub(crate) fn join_in(
        &mut self,
        dom: &CacheDomain,
        other: &AbsCacheState,
        scratch: &mut JoinScratch,
    ) -> bool {
        self.check_layout(dom, other);
        let mut changed = false;
        for set in 0..dom.num_sets() {
            changed |= join_set_words(
                dom,
                &mut self.must,
                &mut self.may,
                &other.must,
                &other.may,
                set,
                scratch,
            );
        }
        changed
    }

    /// [`AbsCacheState::join`] restricted to `sets` (sorted or not; the
    /// untouched sets are assumed equal in both states, which holds for
    /// the may-or-may-not-happen transfer where `other` diverged from
    /// `self` only on the touched sets). Returns whether `self` changed.
    pub(crate) fn join_sets_in(
        &mut self,
        dom: &CacheDomain,
        other: &AbsCacheState,
        sets: &[usize],
        scratch: &mut JoinScratch,
    ) -> bool {
        self.check_layout(dom, other);
        let mut changed = false;
        let mut last = usize::MAX;
        for &set in sets {
            if set != last {
                changed |= join_set_words(
                    dom,
                    &mut self.must,
                    &mut self.may,
                    &other.must,
                    &other.may,
                    set,
                    scratch,
                );
                last = set;
            }
        }
        changed
    }

    /// Applies one access of a compiled transfer program. `masks` is the
    /// arena holding the step's candidate masks.
    pub(crate) fn apply_step(
        &mut self,
        dom: &CacheDomain,
        step: &CompiledStep,
        masks: &Arena<u64>,
        tmp: &mut AbsCacheState,
        scratch: &mut JoinScratch,
    ) {
        match step {
            CompiledStep::Known(op) => self.access_op(op),
            CompiledStep::Unknown { sets } => self.access_unknown_ops(sets, masks),
            CompiledStep::UncertainKnown { op, join_sets } => {
                // The access may or may not happen: join both worlds. The
                // two states differ only on the touched sets, so the join
                // is restricted to them.
                tmp.clone_from(self);
                tmp.access_op(op);
                self.join_sets_in(dom, tmp, join_sets, scratch);
            }
            CompiledStep::UncertainUnknown { sets, join_sets } => {
                tmp.clone_from(self);
                tmp.access_unknown_ops(sets, masks);
                self.join_sets_in(dom, tmp, join_sets, scratch);
            }
        }
    }

    /// Applies a whole compiled block transfer as a unit. `tmp` is a
    /// caller-owned state buffer for the may-or-may-not-happen snapshot
    /// (reused across applications instead of cloning per access).
    pub(crate) fn apply_transfer(
        &mut self,
        dom: &CacheDomain,
        steps: &[Option<CompiledStep>],
        masks: &Arena<u64>,
        tmp: &mut AbsCacheState,
        scratch: &mut JoinScratch,
    ) {
        for step in steps.iter().flatten() {
            self.apply_step(dom, step, masks, tmp, scratch);
        }
    }

    /// [`AbsCacheState::access`] on a precompiled operand — identical
    /// update, with the interning, geometry and bit arithmetic resolved
    /// once at compile time.
    fn access_op(&mut self, op: &LineOp) {
        let base = op.row0 + op.word;
        let stride = op.stride;
        // Must: lines with age < old bound (all, when absent) age by one.
        let must_t = (0..op.ways)
            .find(|&age| self.must[base + age as usize * stride] & op.mask != 0)
            .unwrap_or(op.ways);
        if must_t < op.ways {
            self.must[base + must_t as usize * stride] &= !op.mask;
        }
        self.age_rows_at(Dom::Must, op.row0, stride, op.ways, must_t);
        self.must[base] |= op.mask;
        // May: lines with age ≤ old bound (all, when absent) age by one.
        let may_old =
            (0..op.ways).find(|&age| self.may[base + age as usize * stride] & op.mask != 0);
        let may_t = may_old.map_or(op.ways, |a| (a + 1).min(op.ways));
        if let Some(a) = may_old {
            self.may[base + a as usize * stride] &= !op.mask;
        }
        self.age_rows_at(Dom::May, op.row0, stride, op.ways, may_t);
        self.may[base] |= op.mask;
    }

    /// [`AbsCacheState::access_unknown`] on precompiled operands. The
    /// per-line may update ("drop the line's old age bit, insert at age
    /// 0") is applied for *all* candidates of a set at once through the
    /// compiled candidate mask: clear the mask from every row, set it on
    /// row 0 — identical per line, `ways × words` word ops total.
    fn access_unknown_ops(&mut self, sets: &[SetOp], masks: &Arena<u64>) {
        for s in sets {
            self.age_rows_at(Dom::Must, s.row0, s.stride, s.ways, s.ways);
            let mask = masks.get(s.mask);
            kernel::count_words((s.ways as usize + 1) * s.stride);
            for age in 0..s.ways as usize {
                let row = s.row0 + age * s.stride;
                kernel::mask_clear(&mut self.may[row..row + s.stride], mask);
            }
            kernel::mask_set(&mut self.may[s.row0..s.row0 + s.stride], mask);
        }
    }

    /// Resizes this state to `dom`'s layout, all-cold, reusing the word
    /// buffers' capacity (a workspace state re-targeted per analysis).
    pub(crate) fn resize_cold(&mut self, dom: &CacheDomain) {
        self.must.clear();
        self.must.resize(dom.total_words, 0);
        self.may.clear();
        self.may.resize(dom.total_words, 0);
    }

    /// Loads this state from a raw state slab (must words, then may
    /// words — the layout [`Arena`] state slabs use).
    pub(crate) fn load_words(&mut self, dom: &CacheDomain, slab: &[u64]) {
        debug_assert_eq!(slab.len(), 2 * dom.total_words);
        let (must, may) = slab.split_at(dom.total_words);
        kernel::copy_row(&mut self.must, must);
        kernel::copy_row(&mut self.may, may);
    }

    /// Stores this state into a raw state slab (inverse of
    /// [`AbsCacheState::load_words`]).
    pub(crate) fn store_words(&self, dom: &CacheDomain, slab: &mut [u64]) {
        debug_assert_eq!(slab.len(), 2 * dom.total_words);
        let (must, may) = slab.split_at_mut(dom.total_words);
        kernel::copy_row(must, &self.must);
        kernel::copy_row(may, &self.may);
    }
}

/// One set's join, on raw word arrays (see [`AbsCacheState::join`] for
/// the lattice). The single implementation behind both the
/// [`AbsCacheState`] methods and the slab-based fixpoint path
/// ([`join_into_words`]), so the two storage layouts cannot drift.
/// Returns whether any destination word changed.
fn join_set_words(
    dom: &CacheDomain,
    dst_must: &mut [u64],
    dst_may: &mut [u64],
    src_must: &[u64],
    src_may: &[u64],
    set: usize,
    s: &mut JoinScratch,
) -> bool {
    let w = dom.words[set];
    if w == 0 {
        return false;
    }
    let ways = dom.set_ways[set];
    kernel::count_words(2 * ways as usize * w);
    let mut delta = 0u64;
    s.cum_a[..w].fill(0);
    s.cum_b[..w].fill(0);
    for age in 0..ways {
        let r = dom.row(set, age);
        // new[a] = (A[a] ∩ cumB[≤a]) ∪ (B[a] ∩ cumA[≤a]):
        // a surviving line takes the larger of its two ages.
        delta |= kernel::join_must_rows(
            &mut dst_must[r.clone()],
            &src_must[r],
            &mut s.cum_a[..w],
            &mut s.cum_b[..w],
        );
    }
    s.cum_a[..w].fill(0);
    s.cum_b[..w].fill(0);
    for age in 0..ways {
        let r = dom.row(set, age);
        // new[a] = (A[a] ∖ cumB[<a]) ∪ (B[a] ∖ cumA[<a]):
        // a line takes the smaller of its ages, union overall.
        delta |= kernel::join_may_rows(
            &mut dst_may[r.clone()],
            &src_may[r],
            &mut s.cum_a[..w],
            &mut s.cum_b[..w],
        );
    }
    delta != 0
}

/// Joins `src` into a raw state slab (must words, then may words) — the
/// fixpoint's per-block in-states live as arena slabs, and this is the
/// edge-join that updates them in place. Returns whether the slab
/// changed.
pub(crate) fn join_into_words(
    dom: &CacheDomain,
    dst: &mut [u64],
    src: &AbsCacheState,
    scratch: &mut JoinScratch,
) -> bool {
    debug_assert_eq!(dst.len(), 2 * dom.total_words);
    assert_eq!(
        src.must.len(),
        dom.total_words,
        "joined state comes from a different CacheDomain"
    );
    let (dst_must, dst_may) = dst.split_at_mut(dom.total_words);
    let mut changed = false;
    for set in 0..dom.num_sets() {
        changed |= join_set_words(dom, dst_must, dst_may, &src.must, &src.may, set, scratch);
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use wcet_ir::Addr;

    fn cfg2() -> CacheConfig {
        CacheConfig::new(1, 2, 32, 1).expect("valid")
    }

    /// Domain over an explicit universe on the 1-set 2-way config.
    fn dom2(lines: &[LineAddr]) -> CacheDomain {
        CacheDomain::for_config(&cfg2(), lines.iter().copied())
    }

    #[test]
    fn line_hasher_generic_write_folds_into_mix_state() {
        let hash = |f: &dyn Fn(&mut LineHasher)| {
            let mut h = LineHasher::default();
            f(&mut h);
            h.finish()
        };
        // Both entry points mix (no raw passthrough of the key).
        let key = 0xDEAD_BEEF_u64;
        assert_ne!(hash(&|h| h.write_u64(key)), key);
        assert_ne!(hash(&|h| h.write(&key.to_le_bytes())), 0);
        // The generic path folds per byte through the same multiply-shift
        // mixer, so a one-byte generic write mid-stream is exactly a
        // `write_u64` of that byte — the two paths compose instead of the
        // generic one resetting the state to FNV products.
        let mixed = hash(&|h| {
            h.write_u64(1);
            h.write(&[7]);
            h.write_u64(2);
        });
        let pure = hash(&|h| {
            h.write_u64(1);
            h.write_u64(7);
            h.write_u64(2);
        });
        assert_eq!(mixed, pure);
        // And the byte value matters.
        let other = hash(&|h| {
            h.write_u64(1);
            h.write(&[8]);
            h.write_u64(2);
        });
        assert_ne!(mixed, other);
    }

    #[test]
    fn must_hit_after_access() {
        let c = cfg2();
        let l = c.line_of(Addr(0));
        let dom = dom2(&[l]);
        let mut s = dom.cold();
        let r = dom.intern(l).expect("interned");
        assert_eq!(s.must_age(&dom, r), None);
        s.access(&dom, r);
        assert_eq!(s.must_age(&dom, r), Some(0));
        assert!(s.may_contain(&dom, r));
    }

    #[test]
    fn must_eviction_at_ways() {
        let (a, b, d) = (LineAddr(0), LineAddr(1), LineAddr(2));
        let dom = dom2(&[a, b, d]);
        let (ra, rb, rd) = (
            dom.intern(a).unwrap(),
            dom.intern(b).unwrap(),
            dom.intern(d).unwrap(),
        );
        let mut s = dom.cold();
        s.access(&dom, ra);
        s.access(&dom, rb);
        assert_eq!(s.must_age(&dom, ra), Some(1));
        s.access(&dom, rd); // pushes a out
        assert_eq!(s.must_age(&dom, ra), None);
        assert_eq!(s.must_age(&dom, rb), Some(1));
        assert_eq!(s.must_age(&dom, rd), Some(0));
    }

    #[test]
    fn repeated_access_does_not_age_others() {
        let (a, b) = (LineAddr(0), LineAddr(1));
        let dom = dom2(&[a, b]);
        let (ra, rb) = (dom.intern(a).unwrap(), dom.intern(b).unwrap());
        let mut s = dom.cold();
        s.access(&dom, ra);
        s.access(&dom, rb);
        s.access(&dom, rb); // b already age 0: a must not age
        assert_eq!(s.must_age(&dom, ra), Some(1));
    }

    #[test]
    fn join_must_intersects_max() {
        let (a, b) = (LineAddr(0), LineAddr(1));
        let dom = dom2(&[a, b]);
        let (ra, rb) = (dom.intern(a).unwrap(), dom.intern(b).unwrap());
        let mut s1 = dom.cold();
        s1.access(&dom, ra);
        s1.access(&dom, rb); // a:1 b:0
        let mut s2 = dom.cold();
        s2.access(&dom, ra); // a:0
        s1.join(&dom, &s2);
        assert_eq!(s1.must_age(&dom, ra), Some(1)); // max(1, 0)
        assert_eq!(s1.must_age(&dom, rb), None); // not in s2
                                                 // May keeps the union.
        assert!(s1.may_contain(&dom, ra));
        assert!(s1.may_contain(&dom, rb));
    }

    #[test]
    fn unknown_access_ages_must_and_feeds_may() {
        let c = CacheConfig::new(2, 2, 32, 1).expect("valid");
        let known = LineAddr(0); // set 0
        let range = [LineAddr(2), LineAddr(4)]; // both set 0
        let dom = CacheDomain::for_config(&c, [known, range[0], range[1]]);
        let rk = dom.intern(known).unwrap();
        let rr: Vec<LineRef> = range.iter().map(|&l| dom.intern(l).unwrap()).collect();
        let mut s = dom.cold();
        s.access(&dom, rk);
        s.access_unknown(&dom, &rr);
        assert_eq!(s.must_age(&dom, rk), Some(1));
        assert!(s.may_contain(&dom, rr[0]));
        assert!(s.may_contain(&dom, rr[1]));
        // Second unknown access evicts `known` from must (age 2 == ways).
        s.access_unknown(&dom, &rr);
        assert_eq!(s.must_age(&dom, rk), None);
    }

    #[test]
    fn zero_way_set_is_inert() {
        let dom = CacheDomain::new(vec![0], vec![vec![LineAddr(0)]]);
        let r = dom.intern(LineAddr(0)).unwrap();
        let mut s = dom.cold();
        s.access(&dom, r);
        assert_eq!(s.must_age(&dom, r), None);
        assert!(!s.may_contain(&dom, r));
    }

    #[test]
    fn may_eviction_needs_full_aging() {
        let (a, b, d) = (LineAddr(0), LineAddr(1), LineAddr(2));
        let dom = dom2(&[a, b, d]);
        let (ra, rb, rd) = (
            dom.intern(a).unwrap(),
            dom.intern(b).unwrap(),
            dom.intern(d).unwrap(),
        );
        let mut s = dom.cold();
        s.access(&dom, ra);
        s.access(&dom, rb);
        s.access(&dom, rd);
        // a's may-age lower bound is 2 >= ways ⇒ definitely evicted.
        assert!(!s.may_contain(&dom, ra));
        assert!(s.may_contain(&dom, rb));
        assert!(s.may_contain(&dom, rd));
    }

    #[test]
    fn wide_sets_cross_word_boundaries() {
        // > 64 lines in one set exercises the multi-word rows.
        let lines: Vec<LineAddr> = (0..100).map(LineAddr).collect();
        let dom = CacheDomain::new(vec![4], vec![lines.clone()]);
        let mut s = dom.cold();
        for &l in &lines {
            s.access(&dom, dom.intern(l).unwrap());
        }
        // The last 4 accessed lines hold must ages 3..0.
        for (i, &l) in lines[96..].iter().enumerate() {
            assert_eq!(s.must_age(&dom, dom.intern(l).unwrap()), Some(3 - i as u32));
        }
        assert!(!s.may_contain(&dom, dom.intern(lines[0]).unwrap()));
        assert!(s.may_contain(&dom, dom.intern(lines[96]).unwrap()));
    }

    /// Reference (map-based) twin of the bitset domain — the pre-intern
    /// implementation, verbatim in semantics.
    #[derive(Clone, Default)]
    struct RefState {
        must: Vec<BTreeMap<LineAddr, u32>>,
        may: Vec<BTreeMap<LineAddr, u32>>,
    }

    impl RefState {
        fn cold(sets: usize) -> RefState {
            RefState {
                must: vec![BTreeMap::new(); sets],
                may: vec![BTreeMap::new(); sets],
            }
        }

        fn access(&mut self, set: usize, ways: u32, line: LineAddr) {
            if ways == 0 {
                return;
            }
            for (map, strict) in [(&mut self.must[set], true), (&mut self.may[set], false)] {
                let old = map.get(&line).copied();
                let threshold = old.unwrap_or(u32::MAX);
                let mut next = BTreeMap::new();
                for (&m, &age) in map.iter() {
                    if m == line {
                        continue;
                    }
                    let bump = if strict {
                        age < threshold
                    } else {
                        age <= threshold
                    };
                    let new_age = if bump { age + 1 } else { age };
                    if new_age < ways {
                        next.insert(m, new_age);
                    }
                }
                next.insert(line, 0);
                *map = next;
            }
        }

        fn access_unknown(&mut self, per_set: &[(usize, u32, Vec<LineAddr>)]) {
            for &(set, ways, ref lines) in per_set {
                if ways == 0 {
                    continue;
                }
                let mut next = BTreeMap::new();
                for (&m, &age) in &self.must[set] {
                    if age + 1 < ways {
                        next.insert(m, age + 1);
                    }
                }
                self.must[set] = next;
                for &l in lines {
                    self.may[set].insert(l, 0);
                }
            }
        }

        fn join(&mut self, other: &RefState) {
            for set in 0..self.must.len() {
                let mut next = BTreeMap::new();
                for (&l, &a) in &self.must[set] {
                    if let Some(&b) = other.must[set].get(&l) {
                        next.insert(l, a.max(b));
                    }
                }
                self.must[set] = next;
                for (&l, &b) in &other.may[set] {
                    let e = self.may[set].entry(l).or_insert(b);
                    *e = (*e).min(b);
                }
            }
        }
    }

    /// Randomized differential test: a scripted mix of accesses, unknown
    /// accesses and joins must leave the bitset and the map domains in
    /// agreement on every (line, age) fact. Narrow rows (1 word per set).
    #[test]
    fn bitset_domain_matches_map_reference() {
        differential_vs_reference(&[2u32, 4, 1], 24, 0x9E37_79B9_7F4A_7C15);
    }

    /// The same differential script over >64 lines per set, so every
    /// join/aging loop runs across word boundaries (2 words per row).
    #[test]
    fn bitset_domain_matches_map_reference_multiword() {
        differential_vs_reference(&[3u32, 2], 150, 0x0123_4567_89AB_CDEF);
    }

    fn differential_vs_reference(ways: &[u32], num_lines: u64, seed: u64) {
        let sets = ways.len();
        let lines: Vec<LineAddr> = (0..num_lines).map(LineAddr).collect();
        let set_of = |l: LineAddr| (l.0 % sets as u64) as usize;
        let mut per_set = vec![Vec::new(); sets];
        for &l in &lines {
            per_set[set_of(l)].push(l);
        }
        let dom = CacheDomain::new(ways.to_vec(), per_set);

        let mut rng = seed;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let check = |s: &AbsCacheState, r: &RefState| {
            for &l in &lines {
                let lr = dom.intern(l).expect("interned");
                let set = set_of(l);
                assert_eq!(
                    s.must_age(&dom, lr),
                    r.must[set].get(&l).copied(),
                    "must diverged on {l:?}"
                );
                assert_eq!(
                    s.may_contain(&dom, lr),
                    r.may[set].contains_key(&l),
                    "may diverged on {l:?}"
                );
            }
        };

        let mut s = dom.cold();
        let mut r = RefState::cold(sets);
        let mut forked: Option<(AbsCacheState, RefState)> = None;
        for step in 0..400 {
            match next() % 5 {
                0..=2 => {
                    let l = lines[(next() % lines.len() as u64) as usize];
                    let set = set_of(l);
                    s.access(&dom, dom.intern(l).unwrap());
                    r.access(set, ways[set], l);
                }
                3 => {
                    // Unknown access over a random 3-line slice.
                    let start = (next() % (lines.len() as u64 - 3)) as usize;
                    let mut slice: Vec<LineAddr> = lines[start..start + 3].to_vec();
                    slice.sort_by_key(|&l| (set_of(l), l.0));
                    let refs: Vec<LineRef> =
                        slice.iter().map(|&l| dom.intern(l).unwrap()).collect();
                    s.access_unknown(&dom, &refs);
                    let mut grouped: Vec<(usize, u32, Vec<LineAddr>)> = Vec::new();
                    for &l in &slice {
                        let set = set_of(l);
                        match grouped.iter_mut().find(|g| g.0 == set) {
                            Some(g) => g.2.push(l),
                            None => grouped.push((set, ways[set], vec![l])),
                        }
                    }
                    r.access_unknown(&grouped);
                }
                _ => match forked.take() {
                    None => forked = Some((s.clone(), r.clone())),
                    Some((fs, fr)) => {
                        s.join(&dom, &fs);
                        r.join(&fr);
                    }
                },
            }
            if step % 16 == 0 {
                check(&s, &r);
            }
        }
        check(&s, &r);
    }
}
