//! # wcet-arbiter — shared-bus arbitration and memory control
//!
//! Bandwidth resources (paper §5) are reallocated every cycle; what makes
//! them analysable is an arbiter whose worst-case grant delay can be
//! bounded. Every arbiter here implements both faces of that contract:
//!
//! * the **cycle-level grant rule** ([`Arbiter::grant`]) used by the
//!   `wcet-sim` bus, and
//! * the **analysis-side bound** ([`Arbiter::worst_case_delay`]) used by
//!   the WCET analyser —
//!
//! and a property test checks the first never exceeds the second.
//!
//! Implemented schemes, mapped to the survey:
//!
//! | Module | Scheme | Paper §, source |
//! |---|---|---|
//! | [`round_robin`] | round-robin, bound `D = N·L − 1` | §5.3 |
//! | [`tdma`] | slot-table TDMA (offset-precise + offset-blind bounds) | §5.2, Rosén et al. \[33\] |
//! | [`mbba`] | multi-bandwidth weighted arbitration | §5.3, Bourgade et al. \[2\] |
//! | [`fixed_priority`] | one hard real-time requester first | §5.3, Mische et al. \[22\] (CarCore) |
//! | [`mod@memory_wheel`] | PRET memory wheel (equal private windows) | §5.3, Lickly et al. \[19\] |
//! | [`memctrl`] | analysable memory controller | §5.3, Paolieri et al. \[24\] |
//!
//! ## Example
//!
//! Every scheme is selected declaratively through [`ArbiterKind`] (also
//! parseable from the compact spec strings scenario files use), and its
//! analysis bound always dominates the cycle-level grant rule:
//!
//! ```
//! use wcet_arbiter::ArbiterKind;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let kind: ArbiterKind = "tdma:10".parse()?;
//! assert_eq!(kind, ArbiterKind::TdmaEqual { slot_len: 10 });
//! let arbiter = kind.build(4); // four requesters
//! // A round-trip of one 8-cycle transfer can wait at most the other
//! // three slots plus the tail of its own: bounded, workload-independent.
//! let bound = arbiter.worst_case_delay(0, 8).expect("TDMA is bounded");
//! assert!(bound >= 3 * 8);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fixed_priority;
pub mod mbba;
pub mod memctrl;
pub mod memory_wheel;
pub mod replay;
pub mod round_robin;
pub mod tdma;

pub use fixed_priority::FixedPriority;
pub use mbba::MultiBandwidth;
pub use memctrl::{MemoryController, MemoryKind};
pub use memory_wheel::memory_wheel;
pub use replay::{replay_trace, TraceRequest};
pub use round_robin::RoundRobin;
pub use tdma::{Slot, Tdma};

/// A bus arbiter: decides, whenever the bus is free, which pending
/// requester starts its (non-preemptive, `transfer_len`-cycle) transfer.
pub trait Arbiter: std::fmt::Debug + Send {
    /// Number of requesters this arbiter serves.
    fn num_requesters(&self) -> usize;

    /// Called by the bus at `cycle` when it is free. `pending[i]` is true
    /// if requester `i` has a transfer waiting. Returns the requester that
    /// starts now, or `None` (e.g. TDMA: current slot owner idle or the
    /// transfer would not fit the slot remainder).
    fn grant(&mut self, cycle: u64, pending: &[bool], transfer_len: u64) -> Option<usize>;

    /// Analysis-side upper bound on the *waiting* time of `requester`: the
    /// number of cycles between issuing a request and the start of its
    /// transfer, valid for any behaviour of the other requesters. `None`
    /// means unbounded (the requester is not timing-isolated under this
    /// scheme).
    fn worst_case_delay(&self, requester: usize, transfer_len: u64) -> Option<u64>;

    /// The earliest cycle `c ≥ from` at which [`Arbiter::grant`] *could*
    /// return `Some` for this pending mask (assuming the mask does not
    /// change until then), or `None` if no such cycle exists.
    ///
    /// This powers the simulator's event-skipping fast-forward: when
    /// every core is provably stalled, time jumps straight to the next
    /// grant opportunity instead of ticking through idle cycles. The
    /// contract is two-sided — `grant` must return `None` at every cycle
    /// in `from..c` and must not be *prevented* from granting at `c` —
    /// and is property-tested against `grant` for every scheme.
    ///
    /// The default is exact for work-conserving arbiters (any pending
    /// request is granted the moment the bus is free) and conservatively
    /// correct for every other implementation: claiming the immediate
    /// cycle simply disables skipping over this arbiter.
    fn next_grant_opportunity(
        &self,
        from: u64,
        pending: &[bool],
        transfer_len: u64,
    ) -> Option<u64> {
        let _ = transfer_len;
        pending.iter().any(|&p| p).then_some(from)
    }

    /// Clears mutable state (simulation restart).
    fn reset(&mut self);

    /// True if a lone requester on an idle bus is always granted
    /// immediately (round-robin, fixed priority). Slot-table arbiters
    /// (TDMA, MBBA, memory wheel) are *not* work-conserving: a request
    /// outside its owner's slot waits even with no competition — so even a
    /// "task considered alone" analysis must charge their delay bound.
    fn work_conserving(&self) -> bool;
}

/// Declarative arbiter selection shared by the analyser, the simulator
/// configuration and the experiment harness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArbiterKind {
    /// Round-robin among all requesters.
    RoundRobin,
    /// TDMA with equal slots of the given length.
    TdmaEqual {
        /// Slot length in cycles.
        slot_len: u64,
    },
    /// TDMA with an explicit slot table.
    Tdma {
        /// Slot table (owner, length).
        slots: Vec<(usize, u64)>,
    },
    /// Weighted multi-bandwidth arbitration (Bourgade et al.).
    Mbba {
        /// Per-requester bandwidth weights (must be non-zero).
        weights: Vec<u32>,
        /// Slot length in cycles.
        slot_len: u64,
    },
    /// Fixed priority with one hard real-time requester served first.
    FixedPriority {
        /// The HRT requester index.
        hrt: usize,
    },
    /// PRET-style memory wheel: equal private windows.
    MemoryWheel {
        /// Window length in cycles.
        window: u64,
    },
}

impl ArbiterKind {
    /// The compact spec label of this kind — the exact inverse of the
    /// [`FromStr`](std::str::FromStr) parser, so labels copied out of a
    /// report can be pasted back into a scenario spec.
    #[must_use]
    pub fn spec(&self) -> String {
        match self {
            ArbiterKind::RoundRobin => "rr".into(),
            ArbiterKind::TdmaEqual { slot_len } => format!("tdma:{slot_len}"),
            ArbiterKind::Tdma { slots } => {
                let parts: Vec<String> = slots.iter().map(|(o, l)| format!("{o}@{l}")).collect();
                format!("tdma-table:{}", parts.join(","))
            }
            ArbiterKind::Mbba { weights, slot_len } => {
                let ws: Vec<String> = weights.iter().map(u32::to_string).collect();
                format!("mbba:{}@{slot_len}", ws.join("-"))
            }
            ArbiterKind::FixedPriority { hrt } => format!("fp:{hrt}"),
            ArbiterKind::MemoryWheel { window } => format!("wheel:{window}"),
        }
    }

    /// Instantiates the arbiter for `n` requesters.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are inconsistent (e.g. wrong weight count);
    /// configurations are built programmatically, so this indicates a bug
    /// in the experiment setup.
    #[must_use]
    pub fn build(&self, n: usize) -> Box<dyn Arbiter> {
        match self {
            ArbiterKind::RoundRobin => Box::new(RoundRobin::new(n)),
            ArbiterKind::TdmaEqual { slot_len } => {
                let slots: Vec<Slot> = (0..n)
                    .map(|o| Slot {
                        owner: o,
                        len: *slot_len,
                    })
                    .collect();
                Box::new(Tdma::new(n, slots).expect("equal-slot TDMA is well-formed"))
            }
            ArbiterKind::Tdma { slots } => {
                let slots: Vec<Slot> = slots
                    .iter()
                    .map(|&(owner, len)| Slot { owner, len })
                    .collect();
                Box::new(Tdma::new(n, slots).expect("slot table must be well-formed"))
            }
            ArbiterKind::Mbba { weights, slot_len } => {
                assert_eq!(weights.len(), n, "one weight per requester");
                Box::new(
                    MultiBandwidth::new(weights.clone(), *slot_len)
                        .expect("MBBA weights must be non-zero"),
                )
            }
            ArbiterKind::FixedPriority { hrt } => {
                assert!(*hrt < n, "HRT index in range");
                Box::new(FixedPriority::new(n, *hrt))
            }
            ArbiterKind::MemoryWheel { window } => Box::new(memory_wheel(n, *window)),
        }
    }
}

/// The largest cycle count a spec may give a slot, a window, a transfer
/// or a memory latency. Spec values enter `u64` timing arithmetic
/// unchecked, and bounds are sums and products of them, so the cap keeps
/// every bound far from overflow.
pub const MAX_SPEC_CYCLES: u64 = 1 << 20;

/// Error from parsing an [`ArbiterKind`] spec string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArbiterSpecError(String);

impl std::fmt::Display for ArbiterSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "bad arbiter spec {:?}: expected rr | tdma:SLOT | tdma-table:O@LEN,… | \
             mbba:W1-W2-…@SLOT | fp:HRT | wheel:WINDOW, with lengths in 1..={MAX_SPEC_CYCLES}",
            self.0
        )
    }
}

impl std::error::Error for ArbiterSpecError {}

/// Parses the compact arbiter spec used by declarative scenario files:
///
/// | spec | scheme |
/// |---|---|
/// | `rr` / `round_robin` | [`ArbiterKind::RoundRobin`] |
/// | `tdma:SLOT` | [`ArbiterKind::TdmaEqual`] with `SLOT`-cycle slots |
/// | `tdma-table:O@LEN,O@LEN,…` | [`ArbiterKind::Tdma`] with an explicit slot table |
/// | `mbba:W1-W2-…@SLOT` | [`ArbiterKind::Mbba`] with one weight per requester |
/// | `fp:HRT` / `fixed_priority:HRT` | [`ArbiterKind::FixedPriority`] |
/// | `wheel:WINDOW` / `memory_wheel:WINDOW` | [`ArbiterKind::MemoryWheel`] |
impl std::str::FromStr for ArbiterKind {
    type Err = ArbiterSpecError;

    fn from_str(s: &str) -> Result<ArbiterKind, ArbiterSpecError> {
        let bad = || ArbiterSpecError(s.to_string());
        let (head, arg) = match s.split_once(':') {
            Some((head, arg)) => (head.trim(), Some(arg.trim())),
            None => (s.trim(), None),
        };
        let num = |a: Option<&str>| a.and_then(|a| a.parse::<u64>().ok()).ok_or_else(bad);
        // Slot and window lengths must be positive, or the arbiter
        // constructors reject them, and at most `MAX_SPEC_CYCLES`; specs
        // are user input, so catch it here as a parse error rather than
        // a later panic or a wrapped bound.
        let length = |n: &u64| (1..=MAX_SPEC_CYCLES).contains(n);
        let positive = |a: Option<&str>| num(a).ok().filter(length).ok_or_else(bad);
        match head {
            "rr" | "round_robin" => match arg {
                None => Ok(ArbiterKind::RoundRobin),
                Some(_) => Err(bad()),
            },
            "tdma" => Ok(ArbiterKind::TdmaEqual {
                slot_len: positive(arg)?,
            }),
            "tdma-table" => {
                let slots = arg
                    .ok_or_else(bad)?
                    .split(',')
                    .map(|s| {
                        let (owner, len) = s.trim().split_once('@')?;
                        let owner = owner.trim().parse::<usize>().ok()?;
                        let len = len.trim().parse::<u64>().ok().filter(length)?;
                        Some((owner, len))
                    })
                    .collect::<Option<Vec<(usize, u64)>>>()
                    .ok_or_else(bad)?;
                if slots.is_empty() {
                    return Err(bad());
                }
                Ok(ArbiterKind::Tdma { slots })
            }
            "mbba" => {
                let (weights, slot) = arg.and_then(|a| a.split_once('@')).ok_or_else(bad)?;
                let weights = weights
                    .split('-')
                    .map(|w| w.trim().parse::<u32>().ok().filter(|&w| w > 0))
                    .collect::<Option<Vec<u32>>>()
                    .ok_or_else(bad)?;
                Ok(ArbiterKind::Mbba {
                    weights,
                    slot_len: positive(Some(slot))?,
                })
            }
            "fp" | "fixed_priority" => Ok(ArbiterKind::FixedPriority {
                hrt: usize::try_from(num(arg)?).map_err(|_| bad())?,
            }),
            "wheel" | "memory_wheel" => Ok(ArbiterKind::MemoryWheel {
                window: positive(arg)?,
            }),
            _ => Err(bad()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_arbiter_specs() {
        assert_eq!("rr".parse::<ArbiterKind>(), Ok(ArbiterKind::RoundRobin));
        assert_eq!(
            "round_robin".parse::<ArbiterKind>(),
            Ok(ArbiterKind::RoundRobin)
        );
        assert_eq!(
            "tdma:16".parse::<ArbiterKind>(),
            Ok(ArbiterKind::TdmaEqual { slot_len: 16 })
        );
        assert_eq!(
            "mbba:2-1-1-1@8".parse::<ArbiterKind>(),
            Ok(ArbiterKind::Mbba {
                weights: vec![2, 1, 1, 1],
                slot_len: 8
            })
        );
        assert_eq!(
            "fp:0".parse::<ArbiterKind>(),
            Ok(ArbiterKind::FixedPriority { hrt: 0 })
        );
        assert_eq!(
            "wheel:8".parse::<ArbiterKind>(),
            Ok(ArbiterKind::MemoryWheel { window: 8 })
        );
        assert_eq!(
            "tdma-table:0@8,1@16".parse::<ArbiterKind>(),
            Ok(ArbiterKind::Tdma {
                slots: vec![(0, 8), (1, 16)]
            })
        );
        for bad in [
            "",
            "tdma",
            "tdma:x",
            "rr:1",
            "mbba:8",
            "mbba:0-1@8",
            "lottery",
            // Zero slot/window lengths would panic inside `build`.
            "tdma:0",
            "wheel:0",
            "mbba:1-1@0",
            "tdma-table:",
            "tdma-table:0@0",
            "tdma-table:x@8",
            // Lengths above `MAX_SPEC_CYCLES` would wrap the bounds.
            "tdma:1048577",
            "tdma:9223372036854775807",
            "tdma-table:0@8,1@1048577",
            "mbba:1-1@1048577",
            "wheel:18446744073709551615",
        ] {
            assert!(
                bad.parse::<ArbiterKind>().is_err(),
                "{bad:?} must not parse"
            );
        }
    }

    #[test]
    fn spec_labels_round_trip() {
        for kind in [
            ArbiterKind::RoundRobin,
            ArbiterKind::TdmaEqual { slot_len: 12 },
            ArbiterKind::Tdma {
                slots: vec![(0, 8), (1, 16), (0, 4)],
            },
            ArbiterKind::Mbba {
                weights: vec![2, 1, 1],
                slot_len: 8,
            },
            ArbiterKind::FixedPriority { hrt: 1 },
            ArbiterKind::MemoryWheel { window: 8 },
        ] {
            assert_eq!(
                kind.spec().parse::<ArbiterKind>().as_ref(),
                Ok(&kind),
                "{} must round-trip",
                kind.spec()
            );
        }
    }
}
