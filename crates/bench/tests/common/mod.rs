//! The cold per-cell oracle the scenario runner is tested against.
//!
//! Every row is recomputed through the pre-matrix, per-experiment code
//! paths — a fresh sequential `Analyzer`, or a cold `static_ctrl`
//! solve — with no shared solve context, memo domain, neighbour chain
//! or disk memo involved. Deduplication is checked the same way: a
//! plain lexicographic expansion that keeps the first cell of every
//! semantic class.

use std::collections::HashSet;

use wcet_bench::scenario::run::{build_scenario, BuiltScenario, CellOutcome};
use wcet_bench::scenario::{ModeSpec, Scenario, ScenarioMatrix};
use wcet_core::analyzer::Analyzer;
use wcet_core::fingerprint::program_fingerprint;
use wcet_core::mode::{Footprint, Isolated, JointRefs, Solo};
use wcet_core::static_ctrl::{wcet_unlocked, StaticParams};
use wcet_core::IpetOptions;

/// Recomputes one engine-family row (task `i`) through a fresh
/// sequential `Analyzer`.
fn direct_row_wcet(
    cell: &CellOutcome,
    built: &BuiltScenario,
    i: usize,
) -> Result<wcet_core::WcetReport, String> {
    let an = Analyzer::new(built.machine.clone());
    let p = &built.programs[i];
    let (core, thread) = built.placement[i];
    match cell.scenario.mode {
        ModeSpec::Solo => an.wcet_with(p, core, thread, &Solo),
        ModeSpec::Isolated => an.wcet_with(p, core, thread, &Isolated),
        ModeSpec::Joint => {
            let fps: Vec<Option<Footprint>> = built
                .programs
                .iter()
                .zip(&built.placement)
                .map(|(q, &(c, _))| an.l2_footprint(q, c).ok())
                .collect();
            let refs: Vec<&Footprint> = fps
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .filter_map(|(_, fp)| fp.as_ref())
                .collect();
            an.wcet_with(p, core, thread, &JointRefs(&refs))
        }
        _ => unreachable!("static-ctrl rows are compared by bound"),
    }
    .map_err(|e| e.to_string())
}

/// Asserts that every row of `cell` — bound, engine report and error
/// text — equals its cold recomputation, and that an unbuildable cell
/// fails to build with the same diagnostic.
///
/// # Panics
///
/// On any divergence, and on lock modes (which the oracle's matrices
/// never contain).
pub fn assert_cell_matches_oracle(cell: &CellOutcome) {
    let name = &cell.scenario.name;
    assert!(cell.failure.is_none(), "{name} failed: {:?}", cell.failure);
    let built = match build_scenario(&cell.scenario) {
        Ok(built) => built,
        Err(e) => {
            assert_eq!(
                cell.error.as_ref(),
                Some(&e),
                "{name}: build error diverged"
            );
            return;
        }
    };
    assert_eq!(
        cell.error, None,
        "{name} builds, but the runner says it did not"
    );
    for (i, row) in cell.rows.iter().enumerate() {
        let got = row.outcome.as_ref().map(|b| b.wcet).map_err(Clone::clone);
        match cell.scenario.mode {
            ModeSpec::StaticCtrl => {
                let direct = StaticParams::from_machine(&built.machine, row.core, row.thread)
                    .and_then(|params| {
                        wcet_unlocked(&built.programs[i], &params, &IpetOptions::default())
                    })
                    .map_err(|e| e.to_string());
                assert_eq!(got, direct, "{name}: static row {i} diverged");
            }
            ModeSpec::Solo | ModeSpec::Isolated | ModeSpec::Joint => {
                let direct = direct_row_wcet(cell, &built, i);
                assert_eq!(
                    got,
                    direct.as_ref().map(|r| r.wcet).map_err(Clone::clone),
                    "{name}: row {i} diverged"
                );
                if let (Ok(bound), Ok(direct)) = (&row.outcome, &direct) {
                    assert_eq!(
                        bound.report.as_ref(),
                        Some(direct),
                        "{name}: row {i} report diverged"
                    );
                }
            }
            mode => panic!("{name}: the oracle does not cover {}", mode.label()),
        }
    }
}

/// The names a lexicographic expansion keeps once every cell that
/// repeats an earlier cell's semantics (machine, placement, mode,
/// analysed tasks, programs and validation budget) is dropped.
pub fn lex_first_names(matrix: &ScenarioMatrix) -> Vec<String> {
    let mut seen = HashSet::new();
    matrix
        .expand()
        .into_iter()
        .filter(|scn| seen.insert(semantic_key(scn)))
        .map(|scn| scn.name)
        .collect()
}

fn semantic_key(scn: &Scenario) -> String {
    match build_scenario(scn) {
        Ok(b) => format!(
            "{:?}",
            (
                &b.machine,
                &b.placement,
                scn.mode.label(),
                scn.analyze,
                b.programs
                    .iter()
                    .map(program_fingerprint)
                    .collect::<Vec<_>>(),
                scn.cycle_limit,
            )
        ),
        Err(_) => format!(
            "{:?}",
            (
                scn.cores,
                scn.smt_threads,
                &scn.arbiter,
                scn.bus_transfer,
                scn.mem_latency,
                scn.l1i,
                scn.l1d,
                scn.l2_geom,
                scn.l2_layout,
                scn.mode,
                scn.analyze,
                &scn.tasks,
            )
        ),
    }
}
