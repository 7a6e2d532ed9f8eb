//! One codec for every effort-counter block.
//!
//! The deterministic effort counters — solver pivots, worklist
//! evaluations, simulator skips, memo hits — travel in
//! `BENCH_results.json`, the `wcet scenarios` documents and the serve
//! protocol's memo blocks. Each counter struct lists its fields once,
//! below, and [`Counters`] turns that list into both the JSON encoder
//! and the decoder, so the two can never disagree on a name.
//!
//! Each list is an exhaustive destructure of its struct: a `u64` field
//! added to a counter struct but not listed here fails to compile
//! instead of silently missing from every document. Aggregation
//! (`absorb`) stays beside each struct in its own crate, because not
//! every counter sums (`FixpointStats` maxes two of its fields).

use wcet_core::MemoStats;
use wcet_ilp::{SolveStats, SolverStats};
use wcet_ir::fixpoint::FixpointStats;
use wcet_sim::machine::SkipStats;

use crate::json::Json;

/// A struct of named `u64` effort counters, encoded as one flat JSON
/// object of the same names.
pub trait Counters: Copy + Default {
    /// Every counter with its document name.
    fn fields_mut(&mut self) -> Vec<(&'static str, &mut u64)>;

    /// The counters as a JSON object.
    fn to_json(&self) -> Json {
        let mut copy = *self;
        Json::obj(
            copy.fields_mut()
                .into_iter()
                .map(|(k, v)| (k, Json::from(*v))),
        )
    }

    /// Decodes a block [`Counters::to_json`] wrote: `None` unless every
    /// counter is present as an exact unsigned integer.
    fn from_json(doc: &Json) -> Option<Self> {
        let mut out = Self::default();
        for (key, value) in out.fields_mut() {
            *value = doc.get(key)?.as_u64()?;
        }
        Some(out)
    }
}

/// Implements [`Counters`] for each `Struct { fields } [+ nested]`: the
/// listed fields in order, then the fields of the `nested` counter
/// struct, flattened into the same object.
macro_rules! counters {
    ($($ty:ident { $($field:ident),* $(,)? } $(+ $nested:ident)?;)*) => {$(
        impl Counters for $ty {
            fn fields_mut(&mut self) -> Vec<(&'static str, &mut u64)> {
                let $ty { $($field,)* $($nested)? } = self;
                #[allow(unused_mut)]
                let mut fields = vec![$((stringify!($field), $field)),*];
                $(fields.extend($nested.fields_mut());)?
                fields
            }
        }
    )*};
}

counters! {
    SolveStats {
        pivots, phase1_pivots, bland_pivots, warm_starts, phase1_skips, f64_solves,
        certified, fallbacks, eta_factors, cert_factors,
    };
    SolverStats { warm_hits, cold_solves } + totals;
    FixpointStats {
        evaluated, max_trips, sweep_evals, kernel_words, arena_bytes, arena_resets,
    };
    SkipStats { fast_forwards, skipped_cycles };
    MemoStats {
        hierarchy_hits, hierarchy_misses, l1_hits, l1_misses, cost_hits, cost_misses,
        bound_hits, bound_misses, hierarchy_evictions, l1_evictions, cost_evictions,
        bound_evictions, neighbor_hits,
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A block with every counter distinct survives text, is one flat
    /// object of `fields` names (the solver's totals flattened in), and
    /// stops decoding when any counter is missing.
    fn round_trips<C: Counters + PartialEq + std::fmt::Debug>(fields: usize) {
        let mut c = C::default();
        for (i, (_, v)) in c.fields_mut().into_iter().enumerate() {
            *v = i as u64 + 1;
        }
        let Ok(Json::Obj(mut map)) = Json::parse(&c.to_json().to_string()) else {
            panic!("a counter block is an object");
        };
        assert_eq!(map.len(), fields);
        assert_eq!(C::from_json(&Json::Obj(map.clone())), Some(c));
        map.pop_first();
        assert_eq!(C::from_json(&Json::Obj(map)), None);
    }

    #[test]
    fn every_counter_block_round_trips() {
        round_trips::<SolveStats>(10);
        round_trips::<SolverStats>(12);
        round_trips::<FixpointStats>(6);
        round_trips::<SkipStats>(2);
        round_trips::<MemoStats>(13);
    }
}
