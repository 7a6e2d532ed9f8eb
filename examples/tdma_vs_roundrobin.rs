//! Bandwidth arbitration face-off (paper §5.2 vs §5.3): TDMA's
//! offset-blind bound degrades with slot length, the offset-aware analysis
//! only rescues single-path code, and round-robin's `N·L − 1` is the
//! robust all-rounder.
//!
//! Run with: `cargo run --example tdma_vs_roundrobin`

use wcet_toolkit::arbiter::{RoundRobin, Slot, Tdma};
use wcet_toolkit::cache::config::CacheConfig;
use wcet_toolkit::core::report::Table;
use wcet_toolkit::core::static_ctrl::{tdma_offset_aware_wcet, wcet_unlocked, StaticParams};
use wcet_toolkit::ir::synth::{single_path, Placement};
use wcet_toolkit::pipeline::cost::CoreMode;
use wcet_toolkit::pipeline::timing::{MemTimings, PipelineConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n_cores = 4u64;
    let transfer = 8u64;
    let params = StaticParams {
        l1i: CacheConfig::new(32, 2, 16, 1)?,
        l1d: CacheConfig::new(4, 1, 32, 1)?, // small: keeps bus traffic alive
        l2: None,
        timings: MemTimings {
            l1_hit: 1,
            l2_hit: None,
            bus_transfer: transfer,
            mem_latency: 30,
        },
        bus_wait_bound: Some(0),
        pipeline: PipelineConfig::default(),
        mode: CoreMode::Single,
    };
    let task = single_path(6, 32, Placement::slot(0));

    let mut table = Table::new(
        "Single-path task, 4-core bus: WCET bound per arbitration scheme",
        &["scheme", "per-transaction wait bound", "WCET bound"],
    );

    // Round-robin: D = N·L − 1, offset-free.
    let rr_wait = RoundRobin::bound(n_cores, transfer);
    let mut rr_params = params.clone();
    rr_params.bus_wait_bound = Some(rr_wait);
    let rr = wcet_unlocked(&task, &rr_params, None, None)?;
    table.row(["round-robin".into(), rr_wait.to_string(), rr.to_string()]);

    for slot_len in [transfer, 2 * transfer, 4 * transfer] {
        let slots: Vec<Slot> = (0..n_cores as usize)
            .map(|owner| Slot {
                owner,
                len: slot_len,
            })
            .collect();
        let tdma = Tdma::new(n_cores as usize, slots)?;
        // Offset-blind: the only sound choice on multi-path code.
        let blind_wait = tdma.worst_delay(0, transfer).expect("fits");
        let mut blind_params = params.clone();
        blind_params.bus_wait_bound = Some(blind_wait);
        let blind = wcet_unlocked(&task, &blind_params, None, None)?;
        table.row([
            format!("TDMA slot={slot_len} (offset-blind)"),
            blind_wait.to_string(),
            blind.to_string(),
        ]);
        // Offset-aware: exact, but valid only because this task is
        // single-path.
        let aware = tdma_offset_aware_wcet(&task, &params, &tdma, 0)?;
        table.row([
            format!("TDMA slot={slot_len} (offset-aware)"),
            "exact per offset".into(),
            aware.to_string(),
        ]);
    }
    table.note("offset-aware TDMA analysis requires single-path code (Rosén et al. / paper §5.2)");
    println!("{table}");
    Ok(())
}
