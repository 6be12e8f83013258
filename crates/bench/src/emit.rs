//! Pluggable result emitters: human report, JSON document, CSV table.
//!
//! The JSON schema (documented in `EXPERIMENTS.md`) is versioned via the
//! top-level `"schema"` field and round-trips: [`ExperimentResult`]
//! implements both [`ToJson`] and [`FromJson`], and the integration tests
//! emit → parse → compare every named experiment. CSV is a flat projection
//! (one line per cell) for spreadsheet use; the human report reproduces the
//! layout of the paper's figures and tables, normalized to the 4 KB
//! baseline where the paper normalizes.
//!
//! The machine formats carry only *deterministic* quantities: host
//! wall-clock timings stay in the human report's footer, so two runs with
//! the same `(app, policy, nprocs, seed, schedule)` emit byte-identical
//! JSON/CSV — the property CI's determinism gate diffs for.

use std::fmt::Write as _;

use serde::json::{parse, Value};
use serde::{field_arr, field_f64, field_str, field_u64, FromJson, JsonSchemaError, ToJson};
use tdsm_core::{CommBreakdown, GcCounters, LinkStats, RaceRecord, UnitPolicy, MAX_PROCS};
use tm_apps::AppId;

use crate::experiment::Cell;
use crate::runner::{CellResult, ExperimentResult};
use crate::{figure_panel_string, signature_string};

/// Identifier of the emitted JSON schema; bumped on breaking changes.
///
/// v1 history: the deterministic-scheduler rework added the per-cell
/// `schedule` field and stopped emitting `host_wall_ns` (host timing is
/// nondeterministic and the documents must be byte-stable); the lazy-diffing
/// rework added the per-cell `diff_timing` field and the `gc`
/// interval-garbage-collection counters; the home-based protocol added the
/// per-cell `protocol` field and the `home_updates`/`page_fetches` counters
/// inside `breakdown`; while a second execution substrate existed its cells
/// carried a per-cell `engine` field, which is no longer written and is
/// ignored when read (engines never changed measurements); the
/// network-contention subsystem added the per-cell `topology` and
/// `aggregation` fields (emitted only when non-default, so pre-topology
/// documents stay byte-identical) and the per-cell `links` array of
/// per-link occupancy counters (emitted only when a contended topology
/// modeled any links). Readers must treat all of these as optional; this
/// parser does, in both directions.  The race-detector rework added the
/// per-cell `racecheck` flag and `races` array, emitted only when the cell
/// ran with `--racecheck` (an explicit empty array is the "checked and
/// race-free" verdict) — default documents stay byte-identical.
pub const RESULT_SCHEMA: &str = "tm-bench/experiment-result/v1";

/// The output formats every experiment supports via `--format`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputFormat {
    /// The paper-style report (default).
    #[default]
    Human,
    /// The versioned JSON document.
    Json,
    /// One CSV line per cell.
    Csv,
}

impl std::str::FromStr for OutputFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "human" | "text" => Ok(OutputFormat::Human),
            "json" => Ok(OutputFormat::Json),
            "csv" => Ok(OutputFormat::Csv),
            other => Err(format!(
                "unknown format '{other}' (expected human, json or csv)"
            )),
        }
    }
}

/// Render `result` in the requested format.
pub fn render(result: &ExperimentResult, format: OutputFormat) -> String {
    match format {
        OutputFormat::Human => render_human(result),
        OutputFormat::Json => result.to_json().pretty(),
        OutputFormat::Csv => render_csv(result),
    }
}

/// Parse a JSON document previously produced by [`render`] /
/// [`ToJson::to_json`] back into an [`ExperimentResult`].
pub fn parse_result(text: &str) -> Result<ExperimentResult, String> {
    let v = parse(text).map_err(|e| e.to_string())?;
    ExperimentResult::from_json(&v).map_err(|e| e.to_string())
}

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

impl ToJson for Cell {
    fn to_json(&self) -> Value {
        let mut pairs = vec![
            ("app".to_string(), Value::Str(self.app.name().to_string())),
            ("size".to_string(), Value::Str(self.size_label.clone())),
            ("policy".to_string(), Value::Str(self.policy_label.clone())),
            ("unit".to_string(), self.unit.to_json()),
            ("nprocs".to_string(), Value::Num(self.nprocs as f64)),
            // Seeds are full 64-bit hashes — above 2^53 they would lose
            // precision as JSON numbers, so they travel as hex strings.
            (
                "seed".to_string(),
                Value::Str(format!("{:016x}", self.seed)),
            ),
            (
                "schedule".to_string(),
                Value::Str(self.schedule.as_str().to_string()),
            ),
            (
                "diff_timing".to_string(),
                Value::Str(self.diff_timing.as_str().to_string()),
            ),
            ("protocol".to_string(), self.protocol.to_json()),
        ];
        // The ideal topology and per-message aggregation are omitted so
        // pre-topology documents stay byte-identical.
        if self.network.topology != tdsm_core::Topology::default() {
            pairs.push((
                "topology".to_string(),
                Value::Str(self.network.topology.as_str().to_string()),
            ));
        }
        if self.network.aggregation != tdsm_core::AggregationPolicy::default() {
            pairs.push((
                "aggregation".to_string(),
                Value::Str(self.network.aggregation.as_str().to_string()),
            ));
        }
        // Same discipline for the race-detection knob: emitted only when on,
        // so default documents stay byte-identical to pre-racecheck ones.
        if self.racecheck {
            pairs.push(("racecheck".to_string(), Value::Bool(true)));
        }
        Value::Obj(pairs)
    }
}

impl FromJson for Cell {
    fn from_json(v: &Value) -> Result<Self, JsonSchemaError> {
        let app_name = field_str(v, "app")?;
        let app = AppId::from_name(app_name)
            .ok_or_else(|| JsonSchemaError::new("app", "a known application name"))?;
        Ok(Cell {
            app,
            size_label: field_str(v, "size")?.to_string(),
            policy_label: field_str(v, "policy")?.to_string(),
            unit: {
                let unit = v
                    .get("unit")
                    .ok_or_else(|| JsonSchemaError::new("unit", "object"))?;
                UnitPolicy::from_json(unit).map_err(|e| e.in_context("unit"))?
            },
            // `DsmConfig::validate`'s bounds, as a schema error rather than a
            // panic when the reloaded cell is rerun.
            nprocs: usize::try_from(field_u64(v, "nprocs")?)
                .ok()
                .filter(|n| (1..=MAX_PROCS).contains(n))
                .ok_or_else(|| {
                    JsonSchemaError::new("nprocs", format!("integer in 1..={MAX_PROCS}"))
                })?,
            seed: u64::from_str_radix(field_str(v, "seed")?, 16)
                .map_err(|_| JsonSchemaError::new("seed", "16-digit hex string"))?,
            // Additive v1 field: documents emitted before the deterministic
            // scheduler carry no mode; they ran free-running, which today's
            // default ("seeded") replays deterministically.
            schedule: match v.get("schedule") {
                None => tm_sched::ScheduleMode::Seeded,
                Some(s) => s
                    .as_str()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| JsonSchemaError::new("schedule", "\"fifo\" or \"seeded\""))?,
            },
            // Additive v1 field: documents emitted before the lazy-diffing
            // rework ran the then-only eager variant.
            diff_timing: match v.get("diff_timing") {
                None => tdsm_core::DiffTiming::Eager,
                Some(t) => t
                    .as_str()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| JsonSchemaError::new("diff_timing", "\"eager\" or \"lazy\""))?,
            },
            // Additive v1 field: documents emitted before the home-based
            // protocol landed ran the then-only multi-writer organization.
            protocol: match v.get("protocol") {
                None => tdsm_core::ProtocolMode::MultiWriter,
                Some(p) => tdsm_core::ProtocolMode::from_json(p)?,
            },
            // An `engine` key in an old document is ignored.
            engine: Default::default(),
            // Additive v1 fields: documents emitted before the network
            // subsystem landed modeled the ideal interconnect.
            network: tdsm_core::NetworkConfig::from_json(v)?,
            // Additive v1 field: absent means the detector was off — every
            // document emitted before the race detector existed.
            racecheck: match v.get("racecheck") {
                None => false,
                Some(Value::Bool(b)) => *b,
                Some(_) => return Err(JsonSchemaError::new("racecheck", "boolean")),
            },
        })
    }
}

impl ToJson for CellResult {
    fn to_json(&self) -> Value {
        let mut pairs = match self.cell.to_json() {
            Value::Obj(pairs) => pairs,
            _ => unreachable!("Cell::to_json returns an object"),
        };
        pairs.push(("exec_time_ns".into(), Value::Num(self.exec_time_ns as f64)));
        pairs.push(("checksum".into(), Value::Num(self.checksum)));
        // Host wall time is deliberately NOT emitted: it is the one
        // nondeterministic measurement, and the machine formats must stay
        // byte-identical across identical runs (it lives in the human
        // report's footer instead).
        pairs.push(("breakdown".into(), self.breakdown.to_json()));
        pairs.push(("gc".into(), self.gc.to_json()));
        // Per-link occupancy counters, only when a contended topology
        // modeled any links — ideal-topology documents stay byte-identical
        // to pre-topology ones.  Each link additionally carries its derived
        // utilization for chart consumers (busy over the later of the
        // modeled exec time and the link's own occupancy window, so the
        // ratio is ≤ 1.0 by construction); the parser ignores it, the
        // counters are authoritative.
        if !self.links.is_empty() {
            pairs.push((
                "links".into(),
                Value::Arr(
                    self.links
                        .iter()
                        .map(|l| {
                            let mut link = match l.to_json() {
                                Value::Obj(pairs) => pairs,
                                _ => unreachable!("LinkStats::to_json returns an object"),
                            };
                            link.push((
                                "utilization".to_string(),
                                Value::Num(l.utilization(self.exec_time_ns)),
                            ));
                            Value::Obj(link)
                        })
                        .collect(),
                ),
            ));
        }
        // The detector's race set, only when the cell ran with
        // `--racecheck`: an explicit (possibly empty) array is the "checked
        // and race-free" verdict, distinct from an unchecked cell that
        // carries no field at all.
        if let Some(races) = &self.races {
            pairs.push((
                "races".into(),
                Value::Arr(races.iter().map(|r| r.to_json()).collect()),
            ));
        }
        Value::Obj(pairs)
    }
}

impl FromJson for CellResult {
    fn from_json(v: &Value) -> Result<Self, JsonSchemaError> {
        Ok(CellResult {
            cell: Cell::from_json(v)?,
            exec_time_ns: field_u64(v, "exec_time_ns")?,
            checksum: field_f64(v, "checksum")?,
            // Not part of the document (nondeterministic); v1 files written
            // before the determinism rework may still carry it — ignored.
            host_wall_ns: 0,
            breakdown: {
                let b = v
                    .get("breakdown")
                    .ok_or_else(|| JsonSchemaError::new("breakdown", "object"))?;
                CommBreakdown::from_json(b).map_err(|e| e.in_context("breakdown"))?
            },
            // Additive v1 field: absent in documents from before the
            // interval GC landed.
            gc: match v.get("gc") {
                None => GcCounters::default(),
                Some(g) => GcCounters::from_json(g).map_err(|e| e.in_context("gc"))?,
            },
            // Additive v1 field: absent for ideal-topology documents (no
            // links are modeled there).
            links: match v.get("links") {
                None => Vec::new(),
                Some(arr) => {
                    let items = arr
                        .as_arr()
                        .ok_or_else(|| JsonSchemaError::new("links", "array"))?;
                    let mut links = Vec::new();
                    for (i, l) in items.iter().enumerate() {
                        links.push(
                            LinkStats::from_json(l)
                                .map_err(|e| e.in_context(&format!("links[{i}]")))?,
                        );
                    }
                    links
                }
            },
            // Additive v1 field: absent for cells that ran without the race
            // detector (including every pre-racecheck document).
            races: match v.get("races") {
                None => None,
                Some(arr) => {
                    let items = arr
                        .as_arr()
                        .ok_or_else(|| JsonSchemaError::new("races", "array"))?;
                    let mut races = Vec::new();
                    for (i, r) in items.iter().enumerate() {
                        races.push(
                            RaceRecord::from_json(r)
                                .map_err(|e| e.in_context(&format!("races[{i}]")))?,
                        );
                    }
                    Some(races)
                }
            },
        })
    }
}

impl ToJson for ExperimentResult {
    fn to_json(&self) -> Value {
        Value::obj(vec![
            ("schema", Value::Str(RESULT_SCHEMA.to_string())),
            ("experiment", Value::Str(self.name.clone())),
            ("title", Value::Str(self.title.clone())),
            ("threads", Value::Num(self.threads as f64)),
            (
                "cells",
                Value::Arr(self.cells.iter().map(|c| c.to_json()).collect()),
            ),
        ])
    }
}

impl FromJson for ExperimentResult {
    fn from_json(v: &Value) -> Result<Self, JsonSchemaError> {
        let schema = field_str(v, "schema")?;
        if schema != RESULT_SCHEMA {
            return Err(JsonSchemaError::new("schema", RESULT_SCHEMA));
        }
        let mut cells = Vec::new();
        for (i, c) in field_arr(v, "cells")?.iter().enumerate() {
            cells.push(CellResult::from_json(c).map_err(|e| e.in_context(&format!("cells[{i}]")))?);
        }
        Ok(ExperimentResult {
            name: field_str(v, "experiment")?.to_string(),
            title: field_str(v, "title")?.to_string(),
            threads: field_u64(v, "threads")? as usize,
            host_wall_ns: 0,
            cells,
        })
    }
}

// ---------------------------------------------------------------------------
// CSV
// ---------------------------------------------------------------------------

/// Header of the per-cell CSV projection.  The four network columns are the
/// flat projection of the per-link JSON counters: the topology/aggregation
/// labels, the summed busy/queueing nanoseconds over all links, and the
/// utilization of the most-loaded link — all zero for the ideal topology.
/// When any cell ran with `--racecheck`, a trailing `races` column (the
/// detector's race count; empty for unchecked cells) is appended — default
/// documents keep exactly this header, byte for byte.
pub const CSV_HEADER: &str = "experiment,app,size,policy,nprocs,seed,schedule,diff_timing,\
protocol,topology,aggregation,exec_time_ms,useful_msgs,useless_msgs,useful_data,\
piggybacked_useless,useless_in_useless,faults,home_updates,page_fetches,mean_writers,\
intervals_closed,intervals_retired,net_busy_ns,net_queue_ns,max_link_util,checksum";

/// Quote a CSV field per RFC 4180 when it contains a comma, a double
/// quote, or a line break; other fields pass through unchanged (so the
/// common all-plain output is byte-identical to the unescaped format).
fn csv_field(s: &str) -> std::borrow::Cow<'_, str> {
    if s.contains(['"', ',', '\n', '\r']) {
        let mut quoted = String::with_capacity(s.len() + 2);
        quoted.push('"');
        for ch in s.chars() {
            if ch == '"' {
                quoted.push('"');
            }
            quoted.push(ch);
        }
        quoted.push('"');
        std::borrow::Cow::Owned(quoted)
    } else {
        std::borrow::Cow::Borrowed(s)
    }
}

fn render_csv(result: &ExperimentResult) -> String {
    let racecheck = result.cells.iter().any(|r| r.cell.racecheck);
    let mut out = String::from(CSV_HEADER);
    if racecheck {
        out.push_str(",races");
    }
    out.push('\n');
    for r in &result.cells {
        let b = &r.breakdown;
        let _ = write!(
            out,
            // Seeds are hex here as in JSON, so rows join across formats.
            // Free-form string fields (experiment name and the labels) are
            // CSV-escaped; the fixed-token and numeric fields cannot
            // contain separators.
            "{},{},{},{},{},{:016x},{},{},{},{},{},{:.3},{},{},{},{},{},{},{},{},{:.3},{},{},\
             {},{},{:.4},{}",
            csv_field(&result.name),
            csv_field(r.cell.app.name()),
            csv_field(&r.cell.size_label),
            csv_field(&r.cell.policy_label),
            r.cell.nprocs,
            r.cell.seed,
            r.cell.schedule.as_str(),
            r.cell.diff_timing.as_str(),
            r.cell.protocol.as_str(),
            r.cell.network.topology.as_str(),
            r.cell.network.aggregation.as_str(),
            r.exec_time_ns as f64 / 1e6,
            b.useful_messages,
            b.useless_messages,
            b.useful_data,
            b.piggybacked_useless_data,
            b.useless_data_in_useless_msgs,
            b.faults,
            b.home_updates,
            b.page_fetches,
            b.signature.mean_writers(),
            r.gc.intervals_closed,
            r.gc.intervals_retired,
            r.links.iter().map(|l| l.busy_ns).sum::<u64>(),
            r.links.iter().map(|l| l.queue_ns).sum::<u64>(),
            r.links
                .iter()
                .map(|l| l.utilization(r.exec_time_ns))
                .fold(0.0, f64::max),
            r.checksum,
        );
        if racecheck {
            match &r.races {
                Some(races) => {
                    let _ = write!(out, ",{}", races.len());
                }
                // An unchecked cell in a mixed document: the column exists
                // but this cell has no verdict to report.
                None => out.push(','),
            }
        }
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------------
// Human report
// ---------------------------------------------------------------------------

fn render_human(result: &ExperimentResult) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{}", result.title);
    match result.name.as_str() {
        "table1" => render_table1(&mut out, result),
        "fig3" => render_signatures(&mut out, result),
        "fig_dyn_group" => render_ablation(&mut out, result),
        // fig1, fig2 and any future policy sweep: per-workload panels.
        _ => render_panels(&mut out, result),
    }
    let mut gc = GcCounters::default();
    for r in &result.cells {
        gc.intervals_closed += r.gc.intervals_closed;
        gc.intervals_retired += r.gc.intervals_retired;
        gc.diffs_retired += r.gc.diffs_retired;
    }
    let _ = writeln!(
        out,
        "\n[{}: {} cells, {} threads, host wall {:.1} ms | interval GC: \
         {}/{} intervals retired ({:.0}%), {} diffs freed]",
        result.name,
        result.cells.len(),
        result.threads,
        result.host_wall_ns as f64 / 1e6,
        gc.intervals_retired,
        gc.intervals_closed,
        gc.retired_fraction() * 100.0,
        gc.diffs_retired,
    );
    out
}

/// Group consecutive cells that belong to the same (app, size) workload.
fn workload_groups(result: &ExperimentResult) -> Vec<&[CellResult]> {
    let mut groups: Vec<&[CellResult]> = Vec::new();
    let cells = &result.cells[..];
    let mut start = 0;
    for i in 1..=cells.len() {
        let boundary = i == cells.len()
            || cells[i].cell.app != cells[start].cell.app
            || cells[i].cell.size_label != cells[start].cell.size_label;
        if boundary {
            groups.push(&cells[start..i]);
            start = i;
        }
    }
    groups
}

fn render_panels(out: &mut String, result: &ExperimentResult) {
    for group in workload_groups(result) {
        out.push_str(&figure_panel_string(group));
    }
}

fn render_table1(out: &mut String, result: &ExperimentResult) {
    let _ = writeln!(
        out,
        "{:<10} {:<14} {:>14} {:>14} {:>9} {:>9}",
        "Program", "Input Size", "Seq. Time (ms)", "Par. Time (ms)", "Speedup", "Verified"
    );
    for group in workload_groups(result) {
        let seq = group
            .iter()
            .find(|r| r.cell.nprocs == 1)
            .expect("table1 experiments always contain the 1-processor cell");
        let par = group
            .iter()
            .max_by_key(|r| r.cell.nprocs)
            .expect("group is non-empty");
        let speedup = if par.exec_time_ns == 0 {
            0.0
        } else {
            seq.exec_time_ns as f64 / par.exec_time_ns as f64
        };
        let verified = tm_apps::checksums_match(par.checksum, seq.checksum, 1e-6);
        let _ = writeln!(
            out,
            "{:<10} {:<14} {:>14.1} {:>14.1} {:>9.2} {:>9}",
            par.cell.app.name(),
            par.cell.size_label,
            seq.exec_time_ns as f64 / 1e6,
            par.exec_time_ns as f64 / 1e6,
            speedup,
            if verified { "yes" } else { "NO" }
        );
    }
}

fn render_signatures(out: &mut String, result: &ExperimentResult) {
    for r in &result.cells {
        out.push_str(&signature_string(
            r.cell.app.name(),
            &r.cell.size_label,
            &r.cell.policy_label,
            &r.breakdown.signature,
        ));
    }
}

fn render_ablation(out: &mut String, result: &ExperimentResult) {
    for group in workload_groups(result) {
        let base = group
            .iter()
            .find(|r| r.cell.policy_label == "4K")
            .expect("ablation groups carry the 4K baseline");
        let base_msgs = base.breakdown.total_messages();
        let _ = writeln!(
            out,
            "\n=== {} {} (baseline 4K: {:.1} ms, {} msgs) ===",
            base.cell.app.name(),
            base.cell.size_label,
            base.exec_time_ns as f64 / 1e6,
            base_msgs
        );
        let _ = writeln!(
            out,
            "{:<10} {:>12} {:>12} {:>14}",
            "max group", "time", "msgs", "useless msgs"
        );
        for r in group {
            let UnitPolicy::Dynamic { max_group_pages } = r.cell.unit else {
                continue; // the baseline row itself
            };
            let _ = writeln!(
                out,
                "{:<10} {:>12.3} {:>12.3} {:>14.3}",
                max_group_pages,
                r.exec_time_ns as f64 / base.exec_time_ns as f64,
                r.breakdown.total_messages() as f64 / base_msgs.max(1) as f64,
                r.breakdown.useless_messages as f64 / base_msgs.max(1) as f64,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_experiment, RunnerOptions};
    use crate::{BenchArgs, Experiment};

    fn tiny_result(name: &str) -> ExperimentResult {
        let args = BenchArgs {
            nprocs: 2,
            scale: crate::Scale::Tiny,
            ..BenchArgs::defaults(2)
        };
        let exp = Experiment::named(name, &args).unwrap();
        run_experiment(&exp, &RunnerOptions { threads: 2 })
    }

    #[test]
    fn format_parsing() {
        use std::str::FromStr;
        assert_eq!(OutputFormat::from_str("json"), Ok(OutputFormat::Json));
        assert_eq!(OutputFormat::from_str("csv"), Ok(OutputFormat::Csv));
        assert_eq!(OutputFormat::from_str("human"), Ok(OutputFormat::Human));
        assert!(OutputFormat::from_str("xml").is_err());
    }

    #[test]
    fn json_roundtrips_and_schema_is_enforced() {
        let result = tiny_result("fig_dyn_group");
        let text = render(&result, OutputFormat::Json);
        let parsed = parse_result(&text).unwrap();
        // Host wall times are display-only and never emitted, so the parsed
        // document equals the result with them stripped.
        assert_eq!(parsed, result.without_host_times());
        assert!(
            !text.contains("host_wall_ns"),
            "host timing must not leak into the machine format"
        );
        assert!(text.contains("\"schedule\": \"seeded\""));

        // A document written while cells carried an `engine` key still
        // parses; the key is ignored.
        let old = text.replace(
            "\"schedule\": \"seeded\"",
            "\"engine\": \"threaded\", \"schedule\": \"seeded\"",
        );
        assert_ne!(old, text);
        assert_eq!(parse_result(&old).unwrap(), parsed);

        let wrong = text.replace(RESULT_SCHEMA, "tm-bench/experiment-result/v0");
        assert!(parse_result(&wrong).unwrap_err().contains("schema"));

        // A cell the simulator would reject — or silently read as another
        // one (2^32 + 1 pages truncates to 1) — is a schema error naming the
        // field, not a panic when the reloaded cell is rerun.
        let nprocs = |n: usize| format!("\"nprocs\": {n}");
        let largest = text.replacen(&nprocs(2), &nprocs(MAX_PROCS), 1);
        assert_eq!(
            parse_result(&largest).unwrap().cells[0].cell.nprocs,
            MAX_PROCS
        );
        for (field, from, to) in [
            ("unit.pages", "\"pages\": 1", "\"pages\": 4294967297"),
            ("unit.pages", "\"pages\": 1", "\"pages\": 0"),
            ("nprocs", nprocs(2).as_str(), nprocs(0).as_str()),
            ("nprocs", nprocs(2).as_str(), nprocs(MAX_PROCS + 1).as_str()),
        ] {
            let bad = text.replacen(from, to, 1);
            assert_ne!(bad, text);
            let err = parse_result(&bad).unwrap_err();
            assert!(err.contains(&format!("cells[0].{field}")), "{to}: {err}");
        }
    }

    #[test]
    fn network_fields_round_trip_and_stay_out_of_ideal_documents() {
        // Default (ideal) documents carry no network fields at all — they
        // must stay byte-identical to pre-topology documents.
        let ideal = tiny_result("fig3");
        let ideal_text = render(&ideal, OutputFormat::Json);
        for field in ["\"topology\"", "\"aggregation\"", "\"links\""] {
            assert!(
                !ideal_text.contains(field),
                "{field} must not appear in an ideal-topology document"
            );
        }

        // The contention grid emits the axis labels and per-link counters
        // (with the derived utilization), and round-trips exactly.
        let result = tiny_result("fig_network");
        let text = render(&result, OutputFormat::Json);
        let parsed = parse_result(&text).unwrap();
        assert_eq!(parsed, result.without_host_times());
        assert!(text.contains("\"topology\": \"bus\""));
        assert!(text.contains("\"topology\": \"switched\""));
        assert!(text.contains("\"aggregation\": \"batched\""));
        assert!(text.contains("\"utilization\""));
        assert!(text.contains("\"queue_ns\""));
        assert!(text.contains("\"window_ns\""));
        // A link's window may be absent (documents that predate it), never
        // malformed: a bad value must not be read as "no window".
        let window_line = text
            .lines()
            .find(|l| l.contains("\"window_ns\""))
            .expect("a link with a window");
        let absent = parse_result(&text.replacen(&format!("{window_line}\n"), "", 1)).unwrap();
        let first_link = |r: &ExperimentResult| {
            let cell = r.cells.iter().find(|c| !c.links.is_empty());
            cell.expect("a contended cell").links[0]
        };
        assert_eq!(first_link(&absent).window_ns, 0);
        assert_ne!(first_link(&parsed).window_ns, 0);
        for bad in ["\"x\"", "-1", "1.5"] {
            let malformed = text.replacen(window_line, &format!("\"window_ns\": {bad},"), 1);
            let err = parse_result(&malformed).unwrap_err();
            assert!(
                err.contains("links[0].window_ns"),
                "window_ns {bad} must be rejected by name: {err}"
            );
        }
        // The derived utilization is a true fraction: the window denominator
        // contains every busy interval by construction.
        for r in result.cells.iter().filter(|r| !r.links.is_empty()) {
            for l in &r.links {
                let util = l.utilization(r.exec_time_ns);
                assert!(
                    (0.0..=1.0).contains(&util),
                    "utilization {util} out of range"
                );
            }
        }
        let contended = result
            .cells
            .iter()
            .filter(|r| !r.cell.network.topology.is_contended())
            .all(|r| r.links.is_empty());
        assert!(contended, "ideal cells must model no links");
        assert!(result
            .cells
            .iter()
            .filter(|r| r.cell.network.topology.is_contended())
            .all(|r| !r.links.is_empty() && r.links.iter().any(|l| l.busy_ns > 0)));

        // The CSV projection carries the same information flat.
        let csv = render(&result, OutputFormat::Csv);
        let header = csv.lines().next().unwrap();
        assert!(header.contains(",topology,aggregation,"));
        assert!(header.ends_with(",net_busy_ns,net_queue_ns,max_link_util,checksum"));
        assert!(csv.contains(",bus,batched,"));
        assert!(csv.contains(",switched,per-message,"));
        // Ideal rows zero the network counters.
        let ideal_row = csv
            .lines()
            .find(|l| l.contains(",ideal,per-message,"))
            .expect("the grid contains the ideal baseline");
        assert!(ideal_row.contains(",0,0,0.0000,"));
    }

    #[test]
    fn racecheck_fields_round_trip_and_stay_out_of_default_documents() {
        // Default documents carry neither the flag nor the races array.
        let plain = tiny_result("fig_dyn_group");
        let plain_json = render(&plain, OutputFormat::Json);
        assert!(!plain_json.contains("\"racecheck\""));
        assert!(!plain_json.contains("\"races\""));
        let plain_csv = render(&plain, OutputFormat::Csv);
        assert!(plain_csv.lines().next().unwrap().ends_with(",checksum"));

        // A checked run emits the flag and an explicit (here empty) races
        // array per cell — the "checked and race-free" verdict — and
        // round-trips exactly.
        let args = BenchArgs {
            nprocs: 2,
            scale: crate::Scale::Tiny,
            racecheck: true,
            ..BenchArgs::defaults(2)
        };
        let exp = Experiment::named("fig_dyn_group", &args).unwrap();
        let result = run_experiment(&exp, &RunnerOptions { threads: 2 });
        let text = render(&result, OutputFormat::Json);
        assert!(text.contains("\"racecheck\": true"));
        assert!(text.contains("\"races\": []"));
        let parsed = parse_result(&text).unwrap();
        assert_eq!(parsed, result.without_host_times());
        assert!(parsed.cells.iter().all(|c| c.races == Some(Vec::new())));

        // The CSV projection appends the races column, zero for every
        // race-free cell.
        let csv = render(&result, OutputFormat::Csv);
        assert!(csv.lines().next().unwrap().ends_with(",checksum,races"));
        assert!(csv.lines().skip(1).all(|l| l.ends_with(",0")));

        // Everything the detector cannot change is bit-identical to the
        // unchecked run: the documents differ only in the race fields.
        for (p, c) in plain.cells.iter().zip(&result.cells) {
            assert_eq!(p.exec_time_ns, c.exec_time_ns);
            assert_eq!(p.checksum, c.checksum);
            assert_eq!(p.breakdown, c.breakdown);
        }
    }

    /// Minimal RFC 4180 record reader for the round-trip test: splits one
    /// CSV body into records of unescaped fields, honouring quoted fields
    /// that contain commas, doubled quotes, and line breaks.
    fn parse_csv(body: &str) -> Vec<Vec<String>> {
        let mut records = Vec::new();
        let mut fields = Vec::new();
        let mut field = String::new();
        let mut chars = body.chars().peekable();
        let mut in_quotes = false;
        while let Some(ch) = chars.next() {
            if in_quotes {
                if ch == '"' {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                } else {
                    field.push(ch);
                }
            } else {
                match ch {
                    '"' => in_quotes = true,
                    ',' => fields.push(std::mem::take(&mut field)),
                    '\n' => {
                        fields.push(std::mem::take(&mut field));
                        records.push(std::mem::take(&mut fields));
                    }
                    _ => field.push(ch),
                }
            }
        }
        if !field.is_empty() || !fields.is_empty() {
            fields.push(field);
            records.push(fields);
        }
        records
    }

    #[test]
    fn csv_escapes_separators_quotes_and_newlines() {
        let mut result = tiny_result("fig3");
        result.name = "fig3,extra".to_string();
        result.cells[0].cell.size_label = "16x16, \"quoted\"".to_string();
        result.cells[0].cell.policy_label = "4K\nwrapped".to_string();

        let csv = render(&result, OutputFormat::Csv);
        let records = parse_csv(&csv);
        let header_cols = records[0].len();
        assert!(records.len() > 1, "need at least one data record");
        for (i, rec) in records.iter().enumerate() {
            assert_eq!(rec.len(), header_cols, "record {i} column count");
        }
        // The embedded separators survive the round trip verbatim.
        assert_eq!(records[1][0], "fig3,extra");
        assert_eq!(records[1][2], "16x16, \"quoted\"");
        assert_eq!(records[1][3], "4K\nwrapped");
        // And the raw text actually used quoting (not stripping).
        assert!(csv.contains("\"fig3,extra\""));
        assert!(csv.contains("\"16x16, \"\"quoted\"\"\""));

        // Plain labels stay byte-identical to the unescaped rendering.
        let plain = tiny_result("fig3");
        let plain_csv = render(&plain, OutputFormat::Csv);
        assert!(!plain_csv.contains('"'), "plain output must stay unquoted");
    }

    #[test]
    fn csv_has_one_line_per_cell() {
        let result = tiny_result("fig3");
        let csv = render(&result, OutputFormat::Csv);
        assert_eq!(csv.lines().count(), result.cells.len() + 1);
        assert!(csv.lines().next().unwrap().starts_with("experiment,app,"));
        assert!(csv.contains("fig3,Barnes,"));
    }

    #[test]
    fn human_reports_carry_title_and_footer() {
        for name in ["table1", "fig1", "fig3", "fig_dyn_group"] {
            let result = tiny_result(name);
            let text = render(&result, OutputFormat::Human);
            assert!(text.starts_with(&result.title), "{name} missing title");
            assert!(text.contains("threads, host wall"), "{name} missing footer");
        }
    }
}
