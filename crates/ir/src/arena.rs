//! A bump arena for per-analysis scratch storage.
//!
//! Dataflow analyses allocate the same shapes over and over: one state
//! row table per analysis, one mask per compiled transfer step, one
//! scratch row per join. Allocating each from the global allocator puts
//! a malloc/free pair on the per-analysis path; the arena replaces that
//! with a pointer bump into one backing `Vec` that is **reset, not
//! freed** between analyses — after warm-up, an analysis performs no
//! heap allocation for any arena-owned storage.
//!
//! Handles are [`Slab`] index ranges rather than references, so the
//! arena stays safe Rust (`wcet-ir` is `#![forbid(unsafe_code)]`): the
//! borrow of the arena, not the slab, carries the lifetime, and callers
//! interleave shared reads ([`Arena::get`]) with single-slab writes
//! ([`Arena::get_mut`]) statement by statement. [`Arena::alloc_zeroed`]
//! default-fills the slab because reused backing memory still holds the
//! previous analysis' words.

/// A growable bump allocator over elements of `T` (words by default).
#[derive(Debug, Default)]
pub struct Arena<T = u64> {
    data: Vec<T>,
    top: usize,
    high_water: usize,
    resets: u64,
}

/// A handle to one allocation: an index range into the arena's backing
/// store. Copyable and trivially storable in side tables; only valid
/// for the arena that issued it, until its next [`Arena::reset`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slab {
    start: usize,
    len: usize,
}

impl Slab {
    /// The number of elements in the slab.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the slab is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<T: Copy + Default> Arena<T> {
    /// An empty arena.
    #[must_use]
    pub fn new() -> Arena<T> {
        Arena {
            data: Vec::new(),
            top: 0,
            high_water: 0,
            resets: 0,
        }
    }

    /// Allocates `len` elements, default-filled, by bumping the top
    /// pointer. Grows the backing store only when the slab ends past
    /// it; steady-state allocation is a bump plus a fill.
    pub fn alloc_zeroed(&mut self, len: usize) -> Slab {
        let start = self.top;
        let end = start + len;
        if end > self.data.len() {
            // A growing slab may straddle the old boundary: `resize`
            // defaults only the appended tail, so the reused prefix
            // (dirty since the last reset) must be scrubbed explicitly.
            let old = self.data.len();
            self.data.resize(end, T::default());
            self.data[start..old].fill(T::default());
        } else {
            self.data[start..end].fill(T::default());
        }
        self.top = end;
        self.high_water = self.high_water.max(end);
        Slab { start, len }
    }

    /// Shared view of a slab.
    #[must_use]
    pub fn get(&self, slab: Slab) -> &[T] {
        &self.data[slab.start..slab.start + slab.len]
    }

    /// Mutable view of a slab.
    #[must_use]
    pub fn get_mut(&mut self, slab: Slab) -> &mut [T] {
        &mut self.data[slab.start..slab.start + slab.len]
    }

    /// Frees every slab at once by resetting the top pointer. The
    /// backing store is retained, so the next analysis bump-allocates
    /// into already-owned memory.
    pub fn reset(&mut self) {
        self.top = 0;
        self.high_water = 0;
        self.resets += 1;
    }

    /// Peak bytes live at once since the last [`Arena::reset`] (this
    /// analysis' footprint; the backing store may be larger).
    #[must_use]
    pub fn high_water_bytes(&self) -> u64 {
        (self.high_water * std::mem::size_of::<T>()) as u64
    }

    /// Number of [`Arena::reset`] calls (one per analysis, by
    /// convention).
    #[must_use]
    pub fn resets(&self) -> u64 {
        self.resets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_reset_reuse() {
        let mut a: Arena<u64> = Arena::new();
        let s1 = a.alloc_zeroed(3);
        a.get_mut(s1).copy_from_slice(&[1, 2, 3]);
        let s2 = a.alloc_zeroed(2);
        assert_eq!(a.get(s1), &[1, 2, 3]);
        assert_eq!(a.get(s2), &[0, 0]);
        assert_eq!(a.high_water_bytes(), 5 * 8);

        a.reset();
        assert_eq!(a.resets(), 1);
        // Reused memory is dirty until alloc_zeroed scrubs it.
        let s3 = a.alloc_zeroed(5);
        assert_eq!(a.get(s3), &[0; 5]);
        assert_eq!(a.high_water_bytes(), 5 * 8, "no growth on reuse");
    }

    #[test]
    fn straddling_slab_is_scrubbed() {
        // A slab that spans the old backing-store boundary after a reset
        // must be zeroed on BOTH sides of it: `resize` defaults only the
        // appended tail, and the reused prefix is dirty.
        let mut a: Arena<u64> = Arena::new();
        let s1 = a.alloc_zeroed(4);
        a.get_mut(s1).fill(u64::MAX);
        a.reset();
        let s2 = a.alloc_zeroed(2); // [0, 2): reused, scrubbed by fill
        assert_eq!(a.get(s2), &[0, 0]);
        let s3 = a.alloc_zeroed(4); // [2, 6): straddles the old len 4
        assert_eq!(a.get(s3), &[0; 4], "straddling slab must be all-zero");
    }

    #[test]
    fn zero_len_slab_is_fine() {
        let mut a: Arena<u64> = Arena::new();
        let s = a.alloc_zeroed(0);
        assert!(s.is_empty());
        assert_eq!(a.get(s), &[] as &[u64]);
    }
}
