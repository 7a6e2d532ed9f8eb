//! Task isolation (paper §3.3): a partitioned L2 plus a round-robin bus
//! make every task's WCET computable with zero knowledge of co-runners —
//! and the bound survives deliberately hostile ones. All three tasks are
//! analysed through one memoizing engine.
//!
//! Run with: `cargo run --example multicore_isolation`

use wcet_toolkit::cache::partition::PartitionPlan;
use wcet_toolkit::core::engine::AnalysisEngine;
use wcet_toolkit::core::mode::Isolated;
use wcet_toolkit::core::report::Table;
use wcet_toolkit::core::validate::observe;
use wcet_toolkit::ir::synth::{self, Placement};
use wcet_toolkit::sim::config::MachineConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut machine = MachineConfig::symmetric(4);
    {
        let l2 = machine.l2.as_mut().expect("symmetric machine has an L2");
        l2.partition = PartitionPlan::even_columns(&l2.cache, 4)?;
    }
    let engine = AnalysisEngine::new(machine.clone());

    let tasks = [
        synth::fir(6, 24, Placement::slot(0)),
        synth::crc(48, Placement::slot(0)),
        synth::bsort(10, Placement::slot(0)),
    ];
    let hostile = |exclude: usize| {
        (0..4usize)
            .filter(|&c| c != exclude)
            .map(|c| {
                (
                    c,
                    0,
                    synth::pointer_chase_stride(2048, 5000, 32, Placement::slot(c as u32)),
                )
            })
            .collect::<Vec<_>>()
    };

    let mut table = Table::new(
        "Isolation: WCET computed without knowing co-runners, validated against hostile ones",
        &["task", "isolated WCET", "observed (hostile)", "margin"],
    );
    for task in &tasks {
        let report = engine.analyze(task, 0, 0, &Isolated)?;
        let obs = observe(
            &machine,
            (0, 0, task.clone()),
            hostile(0),
            report.wcet,
            300_000_000,
        )?;
        assert!(obs.sound(), "{}: bound violated!", task.name());
        table.row([
            task.name().to_string(),
            report.wcet.to_string(),
            obs.observed.to_string(),
            format!("{:.2}×", obs.ratio()),
        ]);
    }
    table.note("partitioned L2 (2 ways/core) + round-robin bus: D = N·L − 1");
    println!("{table}");
    Ok(())
}
