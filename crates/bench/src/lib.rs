//! # wcet-bench — the experiment harness
//!
//! One binary per surveyed claim (see `EXPERIMENTS.md` at the workspace
//! root): `exp01_singlecore` … `exp13_resource_phases`, each a thin
//! wrapper over its body in [`experiments`]. The `run_all` suite driver
//! lives in `wcet-serve`, which can also drive the analysis server. This
//! library holds the experiment bodies and the shared machine/workload
//! builders, so every experiment uses the same substrate, plus the one
//! [`counters`] codec that writes and reads every effort-counter block.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod counters;
pub mod experiments;
pub mod json;
pub mod load;
pub mod scenario;

use wcet_cache::config::CacheConfig;
use wcet_ir::synth::{self, Placement};
use wcet_ir::Program;
use wcet_sim::config::MachineConfig;

/// The standard benchmark suite (name → program at `slot`), standing in
/// for the Mälardalen kernels the surveyed papers evaluate on.
#[must_use]
pub fn suite(slot: u32) -> Vec<Program> {
    let p = Placement::slot(slot);
    vec![
        synth::matmul(8, p),
        synth::fir(6, 24, p),
        synth::crc(48, p),
        synth::bsort(10, p),
        synth::switchy(8, 40, 8, p),
        synth::single_path(6, 40, p),
        synth::pointer_chase(64, 200, p),
    ]
}

/// A bus-and-cache-hostile co-runner for `slot`.
#[must_use]
pub fn bully(slot: u32) -> Program {
    synth::pointer_chase_stride(2048, 5000, 32, Placement::slot(slot))
}

/// The default experiment machine: `n` scalar cores, modest caches so the
/// shared-resource effects are visible.
///
/// # Panics
///
/// Panics if `n == 0` or geometry construction fails (a bug).
#[must_use]
pub fn machine(n: usize) -> MachineConfig {
    let mut m = MachineConfig::symmetric(n);
    m.l2.as_mut().expect("symmetric has L2").cache =
        CacheConfig::new(128, 4, 32, 4).expect("valid");
    m
}

/// A machine whose cores lean on the L2 (tiny L1s): shared-storage
/// experiments use this.
///
/// # Panics
///
/// Panics if `n == 0` or geometry construction fails (a bug).
#[must_use]
pub fn l2_bound_machine(n: usize) -> MachineConfig {
    let mut m = machine(n);
    for c in &mut m.cores {
        c.l1i = CacheConfig::new(8, 1, 16, 1).expect("valid");
        c.l1d = CacheConfig::new(2, 1, 32, 1).expect("valid");
    }
    m.l2.as_mut().expect("has L2").cache = CacheConfig::new(64, 4, 32, 4).expect("valid");
    m
}

/// A code-heavy victim whose loop working set lives in the L2 (used by the
/// shared-cache experiments).
#[must_use]
pub fn l2_bound_victim(slot: u32) -> Program {
    synth::switchy(16, 50, 20, Placement::slot(slot))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_is_deterministic() {
        let a = suite(0);
        let b = suite(0);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name(), y.name());
        }
    }

    #[test]
    fn machines_build() {
        assert_eq!(machine(4).cores.len(), 4);
        assert_eq!(l2_bound_machine(2).cores.len(), 2);
        let _ = bully(1);
        let _ = l2_bound_victim(0);
    }
}
