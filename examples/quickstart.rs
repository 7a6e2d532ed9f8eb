//! Quickstart: analyse one task on a 4-core machine under two modes
//! through one memoizing engine, and validate the bound against the
//! cycle-level simulator.
//!
//! Run with: `cargo run --example quickstart`

use wcet_toolkit::core::engine::AnalysisEngine;
use wcet_toolkit::core::mode::{Isolated, Solo};
use wcet_toolkit::core::validate::observe;
use wcet_toolkit::ir::pretty::listing;
use wcet_toolkit::ir::synth::{matmul, Placement};
use wcet_toolkit::sim::config::MachineConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A workload: 8×8 integer matrix multiply, placed at slot 0 of the
    //    address space.
    let task = matmul(8, Placement::slot(0));
    println!(
        "--- task ---\n{}",
        &listing(&task)[..400.min(listing(&task).len())]
    );

    // 2. A machine: 4 in-order cores, private L1s, shared L2, round-robin
    //    bus, predictable memory controller.
    let machine = MachineConfig::symmetric(4);

    // 3. Static WCET analysis, two modes, one engine. The engine
    //    memoizes shared intermediates (here: the private-L1 fixpoints)
    //    and warm-starts the second mode's IPET solve from the first.
    let engine = AnalysisEngine::new(machine.clone());
    let solo = engine.analyze(&task, 0, 0, &Solo)?;
    let isolated = engine.analyze(&task, 0, 0, &Isolated)?;
    println!(
        "solo     WCET = {:>8} cycles   (unsafe on shared hardware!)",
        solo.wcet
    );
    println!(
        "isolated WCET = {:>8} cycles   (safe against any co-runners)",
        isolated.wcet
    );
    println!(
        "L1I classes (AH, AM, PS, NC) = {:?}   L1D = {:?}",
        isolated.l1i_hist, isolated.l1d_hist
    );

    // 4. Validate: run the task alone on the simulated machine.
    let obs = observe(&machine, (0, 0, task), vec![], isolated.wcet, 100_000_000)?;
    println!(
        "simulated (alone) = {:>8} cycles   bound/observed = {:.2}×",
        obs.observed,
        obs.ratio()
    );
    assert!(obs.sound(), "the isolation bound must dominate any run");
    Ok(())
}
