//! TDMA bus arbitration after Rosén et al. \[33\] (paper §5.2).
//!
//! A static slot table is repeated forever; a requester may start a
//! transfer only inside its own slot, and only if the transfer fits in the
//! slot's remainder (transfers are non-preemptive).
//!
//! Two analysis interfaces reflect the paper's §5.2 discussion:
//!
//! * [`Tdma::delay_at_offset`] — the *offset-precise* wait, usable only
//!   when the analysis knows the absolute issue time modulo the period
//!   (single-path programs; Rosén's assumption);
//! * [`Arbiter::worst_case_delay`] — the *offset-blind* upper bound
//!   (max over all offsets), which is what a static WCET analysis must use
//!   on multi-path code — and which degrades with slot length, reproducing
//!   Rochange's critique.

use std::fmt;

use crate::Arbiter;

/// One slot of the TDMA table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    /// The requester owning the slot.
    pub owner: usize,
    /// Slot length in cycles.
    pub len: u64,
}

/// Errors from [`Tdma::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TdmaError {
    /// The slot table is empty.
    Empty,
    /// A slot has zero length.
    ZeroSlot,
    /// A slot owner is out of range.
    BadOwner {
        /// The offending owner.
        owner: usize,
    },
}

impl fmt::Display for TdmaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TdmaError::Empty => f.write_str("TDMA slot table is empty"),
            TdmaError::ZeroSlot => f.write_str("TDMA slot with zero length"),
            TdmaError::BadOwner { owner } => write!(f, "slot owner {owner} out of range"),
        }
    }
}

impl std::error::Error for TdmaError {}

/// TDMA arbiter with an arbitrary slot table.
#[derive(Debug, Clone)]
pub struct Tdma {
    n: usize,
    slots: Vec<Slot>,
    period: u64,
    /// Slot start offsets (parallel to `slots`).
    starts: Vec<u64>,
}

impl Tdma {
    /// Creates a TDMA arbiter for `n` requesters from a slot table.
    ///
    /// # Errors
    ///
    /// Returns [`TdmaError`] for an empty table, a zero-length slot or an
    /// out-of-range owner.
    pub fn new(n: usize, slots: Vec<Slot>) -> Result<Tdma, TdmaError> {
        if slots.is_empty() {
            return Err(TdmaError::Empty);
        }
        let mut starts = Vec::with_capacity(slots.len());
        let mut period = 0u64;
        for s in &slots {
            if s.len == 0 {
                return Err(TdmaError::ZeroSlot);
            }
            if s.owner >= n {
                return Err(TdmaError::BadOwner { owner: s.owner });
            }
            starts.push(period);
            period += s.len;
        }
        Ok(Tdma {
            n,
            slots,
            period,
            starts,
        })
    }

    /// The schedule period (sum of slot lengths).
    #[must_use]
    pub fn period(&self) -> u64 {
        self.period
    }

    /// The slot table.
    #[must_use]
    pub fn slots(&self) -> &[Slot] {
        &self.slots
    }

    /// The slot index active at schedule offset `off` (`off < period`).
    fn slot_at(&self, off: u64) -> usize {
        debug_assert!(off < self.period);
        // Linear scan: slot tables are short.
        for (i, &start) in self.starts.iter().enumerate() {
            if off >= start && off < start + self.slots[i].len {
                return i;
            }
        }
        unreachable!("offset within period always falls in a slot")
    }

    /// Exact wait time for `requester` issuing at schedule offset
    /// `off` (cycles until its transfer of `transfer_len` can start), or
    /// `None` if no slot of this owner can ever fit the transfer.
    ///
    /// This is the offset-precise value a Rosén-style analysis uses when
    /// block start times are statically known.
    #[must_use]
    pub fn delay_at_offset(&self, requester: usize, off: u64, transfer_len: u64) -> Option<u64> {
        if !self
            .slots
            .iter()
            .any(|s| s.owner == requester && s.len >= transfer_len)
        {
            return None;
        }
        let off = off % self.period;
        // Scan forward at most 2 periods (a fitting slot repeats within 1).
        let mut wait = 0u64;
        loop {
            let t = (off + wait) % self.period;
            let idx = self.slot_at(t);
            let slot = self.slots[idx];
            let remaining = self.starts[idx] + slot.len - t;
            if slot.owner == requester && remaining >= transfer_len {
                return Some(wait);
            }
            // Jump to the start of the next slot.
            wait += remaining;
            if wait > 2 * self.period {
                return None; // unreachable given the fit check above
            }
        }
    }

    /// The offset-blind bound: max of [`Tdma::delay_at_offset`] over all
    /// issue offsets.
    #[must_use]
    pub fn worst_delay(&self, requester: usize, transfer_len: u64) -> Option<u64> {
        (0..self.period).try_fold(0, |worst: u64, off| {
            Some(worst.max(self.delay_at_offset(requester, off, transfer_len)?))
        })
    }
}

impl Arbiter for Tdma {
    fn num_requesters(&self) -> usize {
        self.n
    }

    fn grant(&mut self, cycle: u64, pending: &[bool], transfer_len: u64) -> Option<usize> {
        let off = cycle % self.period;
        let idx = self.slot_at(off);
        let slot = self.slots[idx];
        let remaining = self.starts[idx] + slot.len - off;
        if pending[slot.owner] && remaining >= transfer_len {
            Some(slot.owner)
        } else {
            None
        }
    }

    fn worst_case_delay(&self, requester: usize, transfer_len: u64) -> Option<u64> {
        self.worst_delay(requester, transfer_len)
    }

    /// Slot-table arbitration is *not* work-conserving, but the next
    /// grant opportunity is fully determined by the table: scan forward
    /// slot by slot for the first slot owned by a pending requester with
    /// enough remainder. Within a slot the remainder only shrinks, so
    /// jumping to slot boundaries is exact.
    fn next_grant_opportunity(
        &self,
        from: u64,
        pending: &[bool],
        transfer_len: u64,
    ) -> Option<u64> {
        if !pending.iter().any(|&p| p) {
            return None;
        }
        let mut t = from;
        // A grantable cycle, if any exists for this mask, lies within one
        // period of `from` (a fitting slot recurs every period); 2 periods
        // bounds the scan with margin for the partial first slot.
        let limit = from + 2 * self.period;
        while t <= limit {
            let off = t % self.period;
            let idx = self.slot_at(off);
            let slot = self.slots[idx];
            let remaining = self.starts[idx] + slot.len - off;
            if pending[slot.owner] && remaining >= transfer_len {
                return Some(t);
            }
            t += remaining; // jump to the next slot boundary
        }
        None // no pending owner has any slot fitting this transfer
    }

    fn reset(&mut self) {}

    fn work_conserving(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_core(slot: u64) -> Tdma {
        Tdma::new(
            2,
            vec![
                Slot {
                    owner: 0,
                    len: slot,
                },
                Slot {
                    owner: 1,
                    len: slot,
                },
            ],
        )
        .expect("valid")
    }

    #[test]
    fn validates_table() {
        assert_eq!(Tdma::new(1, vec![]).unwrap_err(), TdmaError::Empty);
        assert_eq!(
            Tdma::new(1, vec![Slot { owner: 0, len: 0 }]).unwrap_err(),
            TdmaError::ZeroSlot
        );
        assert_eq!(
            Tdma::new(1, vec![Slot { owner: 3, len: 4 }]).unwrap_err(),
            TdmaError::BadOwner { owner: 3 }
        );
    }

    #[test]
    fn grants_only_in_own_slot() {
        let mut t = two_core(4);
        let both = [true, true];
        assert_eq!(t.grant(0, &both, 2), Some(0));
        assert_eq!(t.grant(4, &both, 2), Some(1));
        assert_eq!(t.grant(9, &both, 2), Some(0)); // wraps: offset 1 is owner 0's slot
        assert_eq!(t.grant(5, &[true, false], 2), None); // owner 1 idle in its slot
    }

    #[test]
    fn transfer_must_fit_slot_remainder() {
        let mut t = two_core(4);
        let both = [true, true];
        // Offset 3: slot 0 has 1 cycle left; a 2-cycle transfer can't start.
        assert_eq!(t.grant(3, &both, 2), None);
        // Offset 2: 2 cycles left; fits exactly.
        assert_eq!(t.grant(2, &both, 2), Some(0));
    }

    #[test]
    fn delay_at_offset_exact_values() {
        let t = two_core(4); // period 8: [0..4) owner0, [4..8) owner1
                             // Owner 0 issuing at offset 0 with L=2: starts immediately.
        assert_eq!(t.delay_at_offset(0, 0, 2), Some(0));
        // At offset 3 (1 cycle left in own slot, L=2 doesn't fit): wait to
        // next own slot at offset 8 → wait 5.
        assert_eq!(t.delay_at_offset(0, 3, 2), Some(5));
        // Owner 1 issuing at offset 0: waits 4.
        assert_eq!(t.delay_at_offset(1, 0, 2), Some(4));
    }

    #[test]
    fn worst_delay_is_max_over_offsets() {
        let t = two_core(4);
        // Worst for owner 0, L=2: issue at offset 3 → 5.
        assert_eq!(t.worst_delay(0, 2), Some(5));
        // L=4 (whole slot): must hit the slot start exactly: worst = issue
        // at offset 1 → next fit at offset 8 → 7.
        assert_eq!(t.worst_delay(0, 4), Some(7));
    }

    #[test]
    fn oversized_transfer_is_unschedulable() {
        let t = two_core(4);
        assert_eq!(t.delay_at_offset(0, 0, 5), None);
        assert_eq!(t.worst_delay(0, 5), None);
        let t2 = Tdma::new(
            2,
            vec![Slot { owner: 0, len: 8 }, Slot { owner: 1, len: 2 }],
        )
        .expect("valid");
        // Owner 1's slot is too small for L=4; owner 0's is fine.
        assert_eq!(t2.worst_delay(1, 4), None);
        assert!(t2.worst_delay(0, 4).is_some());
    }

    #[test]
    fn longer_slots_worsen_blind_bound() {
        // Rochange's critique: the offset-blind TDMA bound grows with slot
        // length even though bandwidth share is constant.
        let short = two_core(4).worst_delay(0, 2).expect("fits");
        let long = two_core(32).worst_delay(0, 2).expect("fits");
        assert!(long > short);
    }

    #[test]
    fn grant_matches_delay_at_offset_zero_wait() {
        let mut t = two_core(4);
        for cycle in 0..16u64 {
            let g = t.grant(cycle, &[true, true], 3);
            let d0 = t.delay_at_offset(0, cycle % 8, 3);
            let d1 = t.delay_at_offset(1, cycle % 8, 3);
            match g {
                Some(0) => assert_eq!(d0, Some(0)),
                Some(1) => assert_eq!(d1, Some(0)),
                _ => {
                    assert_ne!(d0, Some(0));
                    assert_ne!(d1, Some(0));
                }
            }
        }
    }
}
