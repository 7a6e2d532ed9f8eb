//! Structured reporting of a run: one machine-readable JSON document
//! (`wcet scenarios` schema 6) and one rendered Markdown document. Both
//! always carry the run's totals, and add every cell — failed ones
//! included — when the run kept its cells
//! ([`super::CampaignOptions::keep_cells`]).

use wcet_core::report::Table;
use wcet_core::validate::Observation;

use super::run::CellOutcome;
use super::stream::CampaignRun;
use crate::counters::Counters;
use crate::json::Json;

/// The JSON schema version of [`run_json`] documents (4: one document
/// for every run, with `cells` when kept and a `failure` object on each
/// failed cell; 5: the `solver` block counts `cert_factors`; 6: it no
/// longer counts `dual_pivots` or `refactorizations`).
pub const SCHEMA: u64 = 6;

fn fingerprint_hex(fp: (u64, u64)) -> String {
    format!("{:016x}{:016x}", fp.0, fp.1)
}

fn observation_json(task: &str, obs: &Observation) -> Json {
    Json::obj([
        ("task", Json::str(task)),
        ("observed", Json::from(obs.observed)),
        ("bound", Json::from(obs.bound)),
        ("sound", Json::from(obs.sound())),
        ("ratio", Json::from(obs.ratio())),
    ])
}

fn cell_json(cell: &CellOutcome) -> Json {
    let scn = &cell.scenario;
    let rows = cell
        .rows
        .iter()
        .map(|r| {
            let mut pairs = vec![
                ("task", Json::str(&r.task)),
                ("core", Json::from(r.core)),
                ("thread", Json::from(r.thread)),
                ("mode", Json::str(&r.mode)),
            ];
            match &r.outcome {
                Ok(bound) => pairs.push(("wcet", Json::from(bound.wcet))),
                Err(e) => pairs.push(("error", Json::str(e))),
            }
            Json::obj(pairs)
        })
        .collect();
    let validation = match &cell.validation {
        Some(v) => Json::obj([
            ("all_sound", Json::from(v.all_sound)),
            (
                "rows",
                Json::Arr(
                    cell.rows
                        .iter()
                        .zip(&v.observations)
                        .map(|(r, obs)| observation_json(&r.task, obs))
                        .collect(),
                ),
            ),
        ]),
        None => Json::Null,
    };
    let mut pairs = vec![
        ("name", Json::str(&scn.name)),
        ("fingerprint", Json::str(fingerprint_hex(cell.fingerprint))),
        ("cores", Json::from(scn.cores)),
        (
            "smt",
            scn.smt_threads
                .map_or(Json::Null, |t| Json::from(u64::from(t))),
        ),
        ("arbiter", Json::str(scn.arbiter.spec())),
        (
            "l2",
            match scn.l2_geom {
                Some(g) => Json::str(format!("{}@{}", scn.l2_layout.label(), g.spec())),
                None => Json::str("none"),
            },
        ),
        ("mode", Json::str(scn.mode.label())),
        ("analyze", Json::str(scn.analyze.label())),
        (
            "tasks",
            Json::Arr(scn.tasks.iter().map(Json::str).collect()),
        ),
        ("error", cell.error.as_ref().map_or(Json::Null, Json::str)),
        ("rows", Json::Arr(rows)),
        ("validation", validation),
        (
            "validation_skipped",
            cell.validation_skipped
                .as_ref()
                .map_or(Json::Null, Json::str),
        ),
    ];
    // Present only on a failed cell, so every other cell keeps its bytes.
    if let Some(f) = &cell.failure {
        pairs.push((
            "failure",
            Json::obj([
                ("kind", Json::str(f.kind.to_string())),
                ("message", Json::str(&f.message)),
                ("retries", Json::from(u64::from(f.retries))),
            ]),
        ));
    }
    Json::obj(pairs)
}

/// Serializes a run as the `wcet scenarios` JSON document: the run's
/// totals and effort counters, plus `cells` (in expansion order) when
/// the run kept any.
#[must_use]
pub fn run_json(run: &CampaignRun) -> Json {
    let mut pairs = vec![
        ("schema", Json::from(SCHEMA)),
        ("suite", Json::str("wcet scenarios")),
        ("matrix", Json::str(&run.matrix)),
        ("total_cells", Json::from(run.total_cells)),
        ("produced", Json::from(run.produced)),
        ("unique", Json::from(run.unique)),
        ("duplicates", Json::from(run.duplicates)),
        ("errors", Json::from(run.errors)),
        ("bounded", Json::from(run.bounded)),
        ("rows_reused", Json::from(run.rows_reused)),
        ("disk_hits", Json::from(run.disk_hits)),
        ("disk_appended", Json::from(run.disk_appended)),
        ("disk_skipped", Json::from(run.disk_skipped)),
        ("disk_crc_rejected", Json::from(run.disk_crc_rejected)),
        // Supervision aggregates: cells that failed under the per-cell
        // fault boundary, cold retries spent recovering from neighbour
        // state, whether the campaign deadline fired, and how many
        // odometer positions a `--resume` fast-forwarded past.
        ("failures", Json::from(run.failures)),
        ("retries", Json::from(run.retries)),
        ("deadline_hit", Json::from(run.deadline_hit)),
        ("resumed", Json::from(run.resumed)),
        ("validated_cells", Json::from(run.validated)),
        ("sound_cells", Json::from(run.sound)),
        (
            "violations",
            Json::Arr(run.violations.iter().map(Json::str).collect()),
        ),
        ("wall_ms", Json::from(run.wall.as_millis() as u64)),
        ("cells_per_sec", Json::from(run.cells_per_sec())),
        ("memo", run.memo.to_json()),
        ("solver", run.solver.to_json()),
        ("fixpoint", run.fixpoint.to_json()),
        ("sim_skip", run.sim_skip.to_json()),
    ];
    if !run.cells.is_empty() {
        pairs.push((
            "cells",
            Json::Arr(run.cells.iter().map(cell_json).collect()),
        ));
    }
    Json::obj(pairs)
}

/// Renders a run as Markdown: a key/value summary of its totals, plus
/// one row per (cell, task) when the run kept its cells. A cell that
/// failed to build or failed under supervision gets one row saying so.
#[must_use]
pub fn run_markdown(run: &CampaignRun) -> String {
    let summary = Table::kv(
        format!("Campaign `{}` — summary", run.matrix),
        [
            ("cross-product cells", run.total_cells.to_string()),
            ("produced (after --limit)", run.produced.to_string()),
            ("unique analysed/served", run.unique.to_string()),
            ("duplicates removed", run.duplicates.to_string()),
            ("errors", run.errors.to_string()),
            ("fully bounded", run.bounded.to_string()),
            ("neighbour row reuses", run.rows_reused.to_string()),
            (
                "neighbour fixpoint hits",
                run.memo.neighbor_hits.to_string(),
            ),
            ("disk-cache hits", run.disk_hits.to_string()),
            ("disk-cache appended", run.disk_appended.to_string()),
            (
                "disk-cache rejected (parse/CRC)",
                format!("{}/{}", run.disk_skipped, run.disk_crc_rejected),
            ),
            ("cell failures", run.failures.to_string()),
            ("cold retries", run.retries.to_string()),
            ("resumed past", format!("{} positions", run.resumed)),
            ("validated", run.validated.to_string()),
            ("sound", format!("{}/{}", run.sound, run.validated)),
            ("wall", format!("{:.2}s", run.wall.as_secs_f64())),
            ("throughput", format!("{:.0} cells/s", run.cells_per_sec())),
            (
                "solver warm/cold",
                format!("{}/{}", run.solver.warm_hits, run.solver.cold_solves),
            ),
        ],
    );
    let mut out = summary.to_string();
    if !run.cells.is_empty() {
        out.push('\n');
        out.push_str(&cell_table(run).to_string());
    }
    for v in &run.violations {
        out.push_str(&format!("\nSOUNDNESS VIOLATION: {v}"));
    }
    if run.deadline_hit {
        out.push_str("\ndeadline hit: campaign stopped early; rerun with --resume");
    }
    if let Some(e) = &run.cache_error {
        out.push_str(&format!("\ncache write-back failed: {e}"));
    }
    out
}

/// The kept cells of a run, one row per (cell, task).
fn cell_table(run: &CampaignRun) -> Table {
    let mut t = Table::new(
        format!("Scenario matrix `{}` — cells", run.matrix),
        &[
            "cell",
            "machine",
            "mode",
            "task@slot",
            "WCET",
            "observed",
            "bound/observed",
            "sound",
        ],
    );
    for cell in &run.cells {
        let scn = &cell.scenario;
        let machine = format!(
            "{}c{} {} l2={}",
            scn.cores,
            scn.smt_threads
                .map(|th| format!("x{th}t"))
                .unwrap_or_default(),
            scn.arbiter.spec(),
            match scn.l2_geom {
                Some(g) => format!("{}@{}", scn.l2_layout.label(), g.spec()),
                None => "none".into(),
            },
        );
        let whole_cell = match (&cell.error, &cell.failure) {
            (Some(e), _) => Some(format!("error: {e}")),
            (None, Some(f)) => Some(format!("failed({}): {}", f.kind, f.message)),
            (None, None) => None,
        };
        if let Some(outcome) = whole_cell {
            t.row([
                scn.name.clone(),
                machine,
                scn.mode.label(),
                "—".into(),
                outcome,
                "—".into(),
                "—".into(),
                "—".into(),
            ]);
            continue;
        }
        for (i, row) in cell.rows.iter().enumerate() {
            let obs = cell.validation.as_ref().and_then(|v| v.observations.get(i));
            let (wcet, observed, ratio, sound_cell) = match (&row.outcome, obs) {
                (Ok(b), Some(o)) => (
                    b.wcet.to_string(),
                    o.observed.to_string(),
                    format!("{:.2}×", o.ratio()),
                    if o.sound() { "yes" } else { "NO" }.to_string(),
                ),
                (Ok(b), None) => (
                    b.wcet.to_string(),
                    "—".into(),
                    "—".into(),
                    cell.validation_skipped
                        .as_deref()
                        .map_or("—", |_| "skipped")
                        .to_string(),
                ),
                (Err(e), _) => (format!("error: {e}"), "—".into(), "—".into(), "—".into()),
            };
            t.row([
                scn.name.clone(),
                machine.clone(),
                row.mode.clone(),
                format!("{}@{}.{}", row.task, row.core, row.thread),
                wcet,
                observed,
                ratio,
                sound_cell,
            ]);
        }
    }
    for violation in run
        .cells
        .iter()
        .filter(|c| run.violations.contains(&c.scenario.name))
    {
        t.note(format!(
            "SOUNDNESS VIOLATION: {} ({})",
            violation.scenario.name,
            violation.scenario.summary()
        ));
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::run::{CellFailure, FailureKind};
    use crate::scenario::spec::parse_matrix;
    use crate::scenario::stream::{run_campaign, CampaignOptions};

    fn tiny_run(keep_cells: bool) -> CampaignRun {
        let m = parse_matrix("name = tiny\nmode = [isolated, solo]\ntasks = fir:2x4\n")
            .expect("parses");
        run_campaign(
            &m,
            &CampaignOptions {
                keep_cells,
                sample_one_in: 1,
                ..CampaignOptions::default()
            },
        )
    }

    #[test]
    fn json_and_markdown_render_a_small_run() {
        let run = tiny_run(true);
        assert_eq!(run.cells.len(), 2);
        let doc = run_json(&run).to_string();
        assert!(doc.contains("\"schema\":6"));
        assert!(doc.contains("\"suite\":\"wcet scenarios\""));
        assert!(doc.contains("\"matrix\":\"tiny\""));
        assert!(doc.contains("\"unique\":2"));
        assert!(doc.contains("\"validated_cells\":2"));
        assert!(doc.contains("\"all_sound\":true"));
        assert!(!doc.contains("\"failure\""));
        let md = run_markdown(&run);
        assert!(md.contains("Campaign `tiny` — summary"));
        assert!(md.contains("Scenario matrix `tiny` — cells"));
        assert!(md.contains("isolated"));
        assert!(!md.contains("SOUNDNESS VIOLATION"));
    }

    #[test]
    fn a_streamed_run_renders_its_totals_only() {
        let run = tiny_run(false);
        assert_eq!(run.unique, 2);
        let doc = run_json(&run);
        assert_eq!(doc.get("cells"), None);
        let text = doc.to_string();
        assert!(text.contains("\"failures\":0"));
        assert!(text.contains("\"retries\":0"));
        assert!(text.contains("\"deadline_hit\":false"));
        assert!(text.contains("\"resumed\":0"));
        assert!(text.contains("\"disk_crc_rejected\":0"));
        let md = run_markdown(&run);
        assert!(md.contains("cell failures"));
        assert!(!md.contains("— cells"));
        assert!(!md.contains("deadline hit"));
    }

    #[test]
    fn a_failed_cell_shows_in_both_documents() {
        let mut run = tiny_run(true);
        let failed = &mut run.cells[1];
        failed.rows.clear();
        failed.validation = None;
        failed.failure = Some(CellFailure {
            kind: FailureKind::Panic,
            message: "attempt to add with overflow".into(),
            retries: 1,
        });
        let doc = run_json(&run);
        let cells = doc.get("cells").and_then(Json::as_arr).expect("kept cells");
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].get("failure"), None);
        assert_eq!(
            cells[1].get("failure").map(ToString::to_string).as_deref(),
            Some(r#"{"kind":"panic","message":"attempt to add with overflow","retries":1}"#)
        );
        let md = run_markdown(&run);
        let row = md.lines().find(|l| l.starts_with("| tiny#001 "));
        assert!(
            row.is_some_and(|l| l.contains("failed(panic): attempt to add with overflow")),
            "{md}"
        );
    }
}
