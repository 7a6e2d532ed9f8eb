//! Structured reporting of a run: for a materialized run (cells kept),
//! a machine-readable JSON document (`wcet scenarios` schema 2) and a
//! rendered Markdown table of every cell — plus the compact summary
//! forms of a streaming campaign, whose cells are not retained, so only
//! aggregates are reported.

use wcet_core::report::Table;
use wcet_core::validate::Observation;

use super::run::CellOutcome;
use super::stream::CampaignRun;
use crate::json::Json;

/// The JSON schema version of [`matrix_json`] documents.
pub const SCHEMA: u64 = 2;

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
    Json::obj([
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
    ])
}

/// Serializes a materialized run ([`super::CampaignOptions::keep_cells`])
/// as the `wcet scenarios` JSON document.
#[must_use]
pub fn matrix_json(run: &CampaignRun) -> Json {
    Json::obj([
        ("schema", Json::from(SCHEMA)),
        ("suite", Json::str("wcet scenarios")),
        ("matrix", Json::str(&run.matrix)),
        (
            "cells",
            Json::Arr(run.cells.iter().map(cell_json).collect()),
        ),
        ("cells_total", Json::from(run.cells.len())),
        ("duplicates", Json::from(run.duplicates)),
        ("validated_cells", Json::from(run.validated)),
        ("sound_cells", Json::from(run.sound)),
        (
            "solver",
            Json::obj([
                ("warm_hits", Json::from(run.solver.warm_hits)),
                ("cold_solves", Json::from(run.solver.cold_solves)),
                ("pivots", Json::from(run.solver.totals.pivots)),
                ("phase1_skips", Json::from(run.solver.totals.phase1_skips)),
                ("f64_solves", Json::from(run.solver.totals.f64_solves)),
                ("certified", Json::from(run.solver.totals.certified)),
                ("fallbacks", Json::from(run.solver.totals.fallbacks)),
            ]),
        ),
        // Schema 2: iteration effort — worklist fixpoint vs the naive
        // sweep it replaced, and the validation replays' skipped cycles.
        ("fixpoint", crate::fixpoint_json(&run.fixpoint)),
        ("sim_skip", crate::skip_json(&run.sim_skip)),
    ])
}

/// Renders a materialized run as a Markdown document: a summary
/// key/value table plus one row per (cell, task).
#[must_use]
pub fn matrix_markdown(run: &CampaignRun) -> String {
    let summary = Table::kv(
        format!("Scenario matrix `{}` — summary", run.matrix),
        [
            ("cells", run.cells.len().to_string()),
            ("duplicates removed", run.duplicates.to_string()),
            ("validated", run.validated.to_string()),
            ("sound", format!("{}/{}", run.sound, run.validated)),
            (
                "solver warm/cold",
                format!("{}/{}", run.solver.warm_hits, run.solver.cold_solves),
            ),
        ],
    );

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
        if let Some(e) = &cell.error {
            t.row([
                scn.name.clone(),
                machine,
                scn.mode.label(),
                "—".into(),
                format!("error: {e}"),
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
    format!("{summary}\n{t}")
}

/// Serializes a streaming campaign's aggregates (per-cell rows stream
/// through `wcet scenarios run`'s stdout instead — a million-cell
/// document would defeat the point of streaming).
#[must_use]
pub fn campaign_json(run: &CampaignRun) -> Json {
    Json::obj([
        ("schema", Json::from(SCHEMA)),
        ("suite", Json::str("wcet scenarios campaign")),
        ("matrix", Json::str(&run.matrix)),
        ("total_cells", Json::from(run.total_cells)),
        ("produced", Json::from(run.produced)),
        ("unique", Json::from(run.unique)),
        ("duplicates", Json::from(run.duplicates)),
        ("errors", Json::from(run.errors)),
        ("bounded", Json::from(run.bounded)),
        ("rows_reused", Json::from(run.rows_reused)),
        ("neighbor_hits", Json::from(run.memo.neighbor_hits)),
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
        (
            "solver",
            Json::obj([
                ("warm_hits", Json::from(run.solver.warm_hits)),
                ("cold_solves", Json::from(run.solver.cold_solves)),
                ("pivots", Json::from(run.solver.totals.pivots)),
            ]),
        ),
        ("fixpoint", crate::fixpoint_json(&run.fixpoint)),
        ("sim_skip", crate::skip_json(&run.sim_skip)),
    ])
}

/// Renders a campaign's summary as a Markdown key/value table.
#[must_use]
pub fn campaign_markdown(run: &CampaignRun) -> String {
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
            ("validated (seeded sample)", run.validated.to_string()),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::spec::parse_matrix;
    use crate::scenario::stream::{run_campaign, CampaignOptions};

    #[test]
    fn json_and_markdown_render_a_small_run() {
        let m = parse_matrix("name = tiny\nmode = [isolated, solo]\ntasks = fir:2x4\n")
            .expect("parses");
        let run = run_campaign(
            &m,
            &CampaignOptions {
                threads: 1,
                keep_cells: true,
                sample_one_in: 1,
                ..CampaignOptions::default()
            },
        );
        assert_eq!(run.cells.len(), 2);
        let doc = matrix_json(&run).to_string();
        assert!(doc.contains("\"schema\":2"));
        assert!(doc.contains("\"matrix\":\"tiny\""));
        assert!(doc.contains("\"all_sound\":true"));
        let md = matrix_markdown(&run);
        assert!(md.contains("Scenario matrix `tiny` — cells"));
        assert!(md.contains("isolated"));
        assert!(!md.contains("SOUNDNESS VIOLATION"));
    }

    #[test]
    fn campaign_json_and_markdown_render() {
        let m = parse_matrix("name = tiny\nmode = [isolated, solo]\ntasks = fir:2x4\n")
            .expect("parses");
        let run = run_campaign(
            &m,
            &CampaignOptions {
                sample_one_in: 1,
                ..CampaignOptions::default()
            },
        );
        assert_eq!(run.unique, 2);
        let doc = campaign_json(&run).to_string();
        assert!(doc.contains("\"suite\":\"wcet scenarios campaign\""));
        assert!(doc.contains("\"matrix\":\"tiny\""));
        assert!(doc.contains("\"unique\":2"));
        assert!(doc.contains("\"failures\":0"));
        assert!(doc.contains("\"retries\":0"));
        assert!(doc.contains("\"deadline_hit\":false"));
        assert!(doc.contains("\"resumed\":0"));
        assert!(doc.contains("\"disk_crc_rejected\":0"));
        let md = campaign_markdown(&run);
        assert!(md.contains("Campaign `tiny` — summary"));
        assert!(md.contains("cell failures"));
        assert!(!md.contains("deadline hit"));
        assert!(!md.contains("SOUNDNESS VIOLATION"));
    }
}
