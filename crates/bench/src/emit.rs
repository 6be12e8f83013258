//! Pluggable result emitters: human report, JSON document, CSV table.
//!
//! This module is the one reader and writer of the result document: the
//! JSON schema (documented in `EXPERIMENTS.md`) is versioned via the
//! top-level `"schema"` field, its private codec below is the only code
//! that knows the field names, and it round-trips — the integration tests
//! emit → parse → compare every named experiment.  The simulator crates
//! hold plain data with no serialization.  CSV is a flat projection (one
//! line per cell) for spreadsheet use; the human report reproduces the
//! layout of the paper's figures and tables, normalized to the 4 KB
//! baseline where the paper normalizes.
//!
//! The machine formats carry only *deterministic* quantities: host
//! wall-clock timings stay in the human report's footer, so two runs with
//! the same `(app, policy, nprocs, seed, schedule)` emit byte-identical
//! JSON/CSV — the property CI's determinism gate diffs for.

use std::fmt::Write as _;

use serde::json::{parse, Value};
use serde::{field_arr, field_f64, field_str, field_u32, field_u64, JsonSchemaError};
use tdsm_core::{
    AccessKind, AggregationPolicy, CommBreakdown, GcCounters, LinkStats, NetworkConfig, RaceRecord,
    SignatureBucket, SignatureHistogram, Topology, UnitPolicy, MAX_PROCS,
};
use tm_apps::AppId;

use crate::experiment::Cell;
use crate::runner::{CellResult, ExperimentResult};

/// Identifier of the emitted JSON schema; bumped on breaking changes.
///
/// v1 history: the deterministic-scheduler rework added the per-cell
/// `schedule` field and stopped emitting `host_wall_ns` (host timing is
/// nondeterministic and the documents must be byte-stable); the lazy-diffing
/// rework added the per-cell `diff_timing` field (`"lazy"` in every document
/// since the other timing was deleted, and required by this parser) and the
/// `gc` interval-garbage-collection counters; the home-based protocol added the
/// per-cell `protocol` field and the `home_updates`/`page_fetches` counters
/// inside `breakdown`; while a second execution substrate existed its cells
/// carried a per-cell `engine` field, which is no longer written and is
/// ignored when read (engines never changed measurements); the
/// network-contention subsystem added the per-cell `topology` and
/// `aggregation` fields (emitted only when non-default, so pre-topology
/// documents stay byte-identical) and the per-cell `links` array of
/// per-link occupancy counters (emitted only when a contended topology
/// modeled any links). Readers must treat the others as optional; this
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
        OutputFormat::Json => result_to_json(result).pretty(),
        OutputFormat::Csv => render_csv(result),
    }
}

/// Parse a JSON document previously produced by [`render`] back into an
/// [`ExperimentResult`].
pub fn parse_result(text: &str) -> Result<ExperimentResult, String> {
    let v = parse(text).map_err(|e| e.to_string())?;
    result_from_json(&v).map_err(|e| e.to_string())
}

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

/// A decoded value, or which field of the document did not match.
type Decoded<T> = Result<T, JsonSchemaError>;

/// A counter as a JSON number (every counter stays far below 2^53, so the
/// number is exact).
fn num(n: u64) -> Value {
    Value::Num(n as f64)
}

fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}

/// The object field `key`, decoded by `read`; its errors are prefixed `key`.
fn nested<T>(v: &Value, key: &str, read: impl FnOnce(&Value) -> Decoded<T>) -> Decoded<T> {
    let field = v
        .get(key)
        .ok_or_else(|| JsonSchemaError::new(key, "object"))?;
    read(field).map_err(|e| e.in_context(key))
}

/// The array field `key`, each element decoded by `item`; an element's
/// errors are prefixed `key[i]`.
fn array<T>(v: &Value, key: &str, item: impl Fn(&Value) -> Decoded<T>) -> Decoded<Vec<T>> {
    field_arr(v, key)?
        .iter()
        .enumerate()
        .map(|(i, x)| item(x).map_err(|e| e.in_context(&format!("{key}[{i}]"))))
        .collect()
}

/// An additive v1 field: `read(v, key)` when the document carries `key`,
/// and the default — what every document from before the field existed
/// meant — when it does not.  A field that is present must be well-formed.
fn or_default<T: Default>(
    v: &Value,
    key: &str,
    read: impl FnOnce(&Value, &str) -> Decoded<T>,
) -> Decoded<T> {
    match v.get(key) {
        None => Ok(T::default()),
        Some(_) => read(v, key),
    }
}

/// The additive name field `key`, read through its enum's `FromStr`.
fn by_name<T: std::str::FromStr + Default>(v: &Value, key: &str, expected: &str) -> Decoded<T> {
    or_default(v, key, |v, key| {
        v.get(key)
            .and_then(Value::as_str)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| JsonSchemaError::new(key, expected))
    })
}

fn result_to_json(result: &ExperimentResult) -> Value {
    Value::obj(vec![
        ("schema", text(RESULT_SCHEMA)),
        ("experiment", text(&result.name)),
        ("title", text(&result.title)),
        ("threads", num(result.threads as u64)),
        (
            "cells",
            Value::Arr(result.cells.iter().map(cell_result_to_json).collect()),
        ),
    ])
}

fn result_from_json(v: &Value) -> Decoded<ExperimentResult> {
    if field_str(v, "schema")? != RESULT_SCHEMA {
        return Err(JsonSchemaError::new("schema", RESULT_SCHEMA));
    }
    let cells = array(v, "cells", cell_result_from_json)?;
    Ok(ExperimentResult {
        name: field_str(v, "experiment")?.to_string(),
        title: field_str(v, "title")?.to_string(),
        threads: field_u64(v, "threads")? as usize,
        host_wall_ns: 0,
        cells,
    })
}

fn cell_result_to_json(r: &CellResult) -> Value {
    let c = &r.cell;
    // Room for every field a cell can carry.
    let mut pairs = Vec::with_capacity(18);
    pairs.extend([
        ("app", text(c.app.name())),
        ("size", text(&c.size_label)),
        ("policy", text(&c.policy_label)),
        ("unit", unit_to_json(c.unit)),
        ("nprocs", num(c.nprocs as u64)),
        // Seeds are full 64-bit hashes — above 2^53 they would lose
        // precision as JSON numbers, so they travel as hex strings.
        ("seed", Value::Str(format!("{:016x}", c.seed))),
        ("schedule", text(c.schedule.as_str())),
        // Diffs are always created lazily; the field stays so documents
        // keep their shape, byte for byte.
        ("diff_timing", text("lazy")),
        ("protocol", text(c.protocol.as_str())),
    ]);
    // The ideal topology and per-message aggregation are omitted so
    // pre-topology documents stay byte-identical.
    if c.network.topology != Topology::default() {
        pairs.push(("topology", text(c.network.topology.as_str())));
    }
    if c.network.aggregation != AggregationPolicy::default() {
        pairs.push(("aggregation", text(c.network.aggregation.as_str())));
    }
    // Same discipline for the race-detection knob: emitted only when on,
    // so default documents stay byte-identical to pre-racecheck ones.
    if c.racecheck {
        pairs.push(("racecheck", Value::Bool(true)));
    }
    pairs.push(("exec_time_ns", num(r.exec_time_ns)));
    pairs.push(("checksum", Value::Num(r.checksum)));
    // Host wall time is deliberately NOT emitted: it is the one
    // nondeterministic measurement, and the machine formats must stay
    // byte-identical across identical runs (it lives in the human
    // report's footer instead).
    pairs.push(("breakdown", breakdown_to_json(&r.breakdown)));
    pairs.push(("gc", gc_to_json(&r.gc)));
    // Per-link occupancy counters, only when a contended topology modeled
    // any links — ideal-topology documents stay byte-identical to
    // pre-topology ones.
    if !r.links.is_empty() {
        let links = r.links.iter().map(|l| link_to_json(l, r.exec_time_ns));
        pairs.push(("links", Value::Arr(links.collect())));
    }
    // The detector's race set, only when the cell ran with `--racecheck`:
    // an explicit (possibly empty) array is the "checked and race-free"
    // verdict, distinct from an unchecked cell that carries no field at all.
    if let Some(races) = &r.races {
        pairs.push((
            "races",
            Value::Arr(races.iter().map(race_to_json).collect()),
        ));
    }
    Value::obj(pairs)
}

fn cell_result_from_json(v: &Value) -> Decoded<CellResult> {
    Ok(CellResult {
        cell: cell_from_json(v)?,
        exec_time_ns: field_u64(v, "exec_time_ns")?,
        checksum: field_f64(v, "checksum")?,
        // Not part of the document (nondeterministic); v1 files written
        // before the determinism rework may still carry it — ignored.
        host_wall_ns: 0,
        breakdown: nested(v, "breakdown", breakdown_from_json)?,
        gc: or_default(v, "gc", |v, key| nested(v, key, gc_from_json))?,
        links: or_default(v, "links", |v, key| array(v, key, link_from_json))?,
        races: or_default(v, "races", |v, key| array(v, key, race_from_json).map(Some))?,
    })
}

fn cell_from_json(v: &Value) -> Decoded<Cell> {
    let app = AppId::from_name(field_str(v, "app")?)
        .ok_or_else(|| JsonSchemaError::new("app", "a known application name"))?;
    Ok(Cell {
        app,
        size_label: field_str(v, "size")?.to_string(),
        policy_label: field_str(v, "policy")?.to_string(),
        unit: nested(v, "unit", unit_from_json)?,
        // `DsmConfig::validate`'s bounds, as a schema error rather than a
        // panic when the reloaded cell is rerun.
        nprocs: usize::try_from(field_u64(v, "nprocs")?)
            .ok()
            .filter(|n| (1..=MAX_PROCS).contains(n))
            .ok_or_else(|| JsonSchemaError::new("nprocs", format!("integer in 1..={MAX_PROCS}")))?,
        seed: u64::from_str_radix(field_str(v, "seed")?, 16)
            .map_err(|_| JsonSchemaError::new("seed", "16-digit hex string"))?,
        // Documents emitted before the deterministic scheduler carry no
        // mode; they ran free-running, which the default ("seeded")
        // replays deterministically.
        schedule: by_name(v, "schedule", "\"fifo\" or \"seeded\"")?,
        // Only lazily created diffs are simulated: a document without the
        // field (written before lazy diffing existed) or with another
        // timing describes a run this simulator cannot reproduce.
        diff_timing: match v.get("diff_timing").and_then(Value::as_str) {
            Some("lazy") => tdsm_core::DiffTiming::Lazy,
            _ => return Err(JsonSchemaError::new("diff_timing", "\"lazy\"")),
        },
        // Documents emitted before the home-based protocol ran the
        // multi-writer one; documents before the network subsystem modeled
        // the ideal interconnect.
        protocol: by_name(v, "protocol", "a known protocol name")?,
        // An `engine` key in an old document is ignored.
        engine: Default::default(),
        network: NetworkConfig {
            topology: by_name(v, "topology", "a known topology name")?,
            aggregation: by_name(v, "aggregation", "a known aggregation policy")?,
        },
        // Absent means the detector was off — every document emitted
        // before the race detector existed.
        racecheck: or_default(v, "racecheck", |v, key| {
            v.get(key)
                .and_then(Value::as_bool)
                .ok_or_else(|| JsonSchemaError::new(key, "boolean"))
        })?,
    })
}

fn unit_to_json(unit: UnitPolicy) -> Value {
    match unit {
        UnitPolicy::Static { pages } => {
            Value::obj(vec![("kind", text("static")), ("pages", num(pages.into()))])
        }
        UnitPolicy::Dynamic { max_group_pages } => Value::obj(vec![
            ("kind", text("dynamic")),
            ("max_group_pages", num(max_group_pages.into())),
        ]),
    }
}

fn unit_from_json(v: &Value) -> Decoded<UnitPolicy> {
    // The bounds `DsmConfig::validate` asserts, as a schema error: a
    // document names a unit the simulator accepts, or does not parse.
    let pages = |field: &str| match field_u32(v, field)? {
        0 => Err(JsonSchemaError::new(field, "integer in 1..=4294967295")),
        n => Ok(n),
    };
    match v.get("kind").and_then(Value::as_str) {
        Some("static") => Ok(UnitPolicy::Static {
            pages: pages("pages")?,
        }),
        Some("dynamic") => Ok(UnitPolicy::Dynamic {
            max_group_pages: pages("max_group_pages")?,
        }),
        _ => Err(JsonSchemaError::new("kind", "\"static\" or \"dynamic\"")),
    }
}

/// Bucket `k` of the signature's `buckets` array is the bucket for `k`
/// concurrent writers (index 0 = faults that needed no exchange).
fn breakdown_to_json(b: &CommBreakdown) -> Value {
    let buckets = b.signature.buckets().iter().map(|s| {
        Value::obj(vec![
            ("faults", num(s.faults)),
            ("useful_exchanges", num(s.useful_exchanges)),
            ("useless_exchanges", num(s.useless_exchanges)),
        ])
    });
    Value::obj(vec![
        ("useful_messages", num(b.useful_messages)),
        ("useless_messages", num(b.useless_messages)),
        ("useful_data", num(b.useful_data)),
        (
            "useless_data_in_useless_msgs",
            num(b.useless_data_in_useless_msgs),
        ),
        ("piggybacked_useless_data", num(b.piggybacked_useless_data)),
        ("total_wire_bytes", num(b.total_wire_bytes)),
        ("home_updates", num(b.home_updates)),
        ("page_fetches", num(b.page_fetches)),
        ("exec_time_ns", num(b.exec_time_ns)),
        ("faults", num(b.faults)),
        (
            "signature",
            Value::obj(vec![("buckets", Value::Arr(buckets.collect()))]),
        ),
    ])
}

fn breakdown_from_json(v: &Value) -> Decoded<CommBreakdown> {
    let bucket = |v: &Value| -> Decoded<SignatureBucket> {
        Ok(SignatureBucket {
            faults: field_u64(v, "faults")?,
            useful_exchanges: field_u64(v, "useful_exchanges")?,
            useless_exchanges: field_u64(v, "useless_exchanges")?,
        })
    };
    Ok(CommBreakdown {
        useful_messages: field_u64(v, "useful_messages")?,
        useless_messages: field_u64(v, "useless_messages")?,
        useful_data: field_u64(v, "useful_data")?,
        useless_data_in_useless_msgs: field_u64(v, "useless_data_in_useless_msgs")?,
        piggybacked_useless_data: field_u64(v, "piggybacked_useless_data")?,
        total_wire_bytes: field_u64(v, "total_wire_bytes")?,
        // Documents emitted before the home-based protocol carry no
        // per-protocol counters (their runs were all multi-writer, where
        // both are 0 by definition).
        home_updates: or_default(v, "home_updates", field_u64)?,
        page_fetches: or_default(v, "page_fetches", field_u64)?,
        exec_time_ns: field_u64(v, "exec_time_ns")?,
        faults: field_u64(v, "faults")?,
        signature: nested(v, "signature", |s| {
            array(s, "buckets", bucket).map(SignatureHistogram::from_buckets)
        })?,
    })
}

fn gc_to_json(gc: &GcCounters) -> Value {
    Value::obj(vec![
        ("intervals_closed", num(gc.intervals_closed)),
        ("intervals_retired", num(gc.intervals_retired)),
        ("diffs_retired", num(gc.diffs_retired)),
        ("pending_flushes", num(gc.pending_flushes)),
    ])
}

fn gc_from_json(v: &Value) -> Decoded<GcCounters> {
    Ok(GcCounters {
        intervals_closed: field_u64(v, "intervals_closed")?,
        intervals_retired: field_u64(v, "intervals_retired")?,
        diffs_retired: field_u64(v, "diffs_retired")?,
        pending_flushes: field_u64(v, "pending_flushes")?,
    })
}

/// A link's counters plus, for chart consumers, its utilization over the
/// cell's `exec_time_ns` (busy over the later of that and the link's own
/// occupancy window, so the ratio is ≤ 1.0 by construction).  The parser
/// ignores the utilization: the counters are authoritative.
fn link_to_json(l: &LinkStats, exec_time_ns: u64) -> Value {
    Value::obj(vec![
        ("link", num(l.link.into())),
        ("messages", num(l.messages)),
        ("wire_bytes", num(l.wire_bytes)),
        ("busy_ns", num(l.busy_ns)),
        ("queue_ns", num(l.queue_ns)),
        ("window_ns", num(l.window_ns)),
        ("utilization", Value::Num(l.utilization(exec_time_ns))),
    ])
}

fn link_from_json(v: &Value) -> Decoded<LinkStats> {
    Ok(LinkStats {
        link: field_u32(v, "link")?,
        messages: field_u64(v, "messages")?,
        wire_bytes: field_u64(v, "wire_bytes")?,
        busy_ns: field_u64(v, "busy_ns")?,
        queue_ns: field_u64(v, "queue_ns")?,
        // Documents written before the window was recorded lack the field;
        // an absent window degrades utilization to the caller's timed
        // region, exactly the old behavior.
        window_ns: or_default(v, "window_ns", field_u64)?,
    })
}

fn race_to_json(r: &RaceRecord) -> Value {
    Value::obj(vec![
        ("page", num(r.page.into())),
        ("word_lo", num(r.word_lo.into())),
        ("word_hi", num(r.word_hi.into())),
        ("first_rank", num(r.first_rank.into())),
        ("first_kind", text(r.first_kind.name())),
        ("first_interval", num(r.first_interval.into())),
        ("second_rank", num(r.second_rank.into())),
        ("second_kind", text(r.second_kind.name())),
        ("second_interval", num(r.second_interval.into())),
    ])
}

fn race_from_json(v: &Value) -> Decoded<RaceRecord> {
    let kind = |field: &str| -> Decoded<AccessKind> {
        AccessKind::from_name(field_str(v, field)?)
            .ok_or_else(|| JsonSchemaError::new(field, "read|write"))
    };
    Ok(RaceRecord {
        page: field_u32(v, "page")?,
        word_lo: field_u32(v, "word_lo")?,
        word_hi: field_u32(v, "word_hi")?,
        first_rank: field_u32(v, "first_rank")?,
        first_kind: kind("first_kind")?,
        first_interval: field_u32(v, "first_interval")?,
        second_rank: field_u32(v, "second_rank")?,
        second_kind: kind("second_kind")?,
        second_interval: field_u32(v, "second_interval")?,
    })
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
        // A parsed document may hold thousands of links: their sums
        // saturate rather than overflow.
        let busy = r
            .links
            .iter()
            .map(|l| l.busy_ns)
            .fold(0, u64::saturating_add);
        let queued = r
            .links
            .iter()
            .map(|l| l.queue_ns)
            .fold(0, u64::saturating_add);
        let _ = write!(
            out,
            // Seeds are hex here as in JSON, so rows join across formats.
            // Free-form string fields (experiment name and the labels) are
            // CSV-escaped; the fixed-token and numeric fields cannot
            // contain separators.  The diff timing is always `lazy`.
            "{},{},{},{},{},{:016x},{},lazy,{},{},{},{:.3},{},{},{},{},{},{},{},{},{:.3},{},{},\
             {},{},{:.4},{}",
            csv_field(&result.name),
            csv_field(r.cell.app.name()),
            csv_field(&r.cell.size_label),
            csv_field(&r.cell.policy_label),
            r.cell.nprocs,
            r.cell.seed,
            r.cell.schedule.as_str(),
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
            busy,
            queued,
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
        // fig1, fig2, fig_dyn_group and any future policy sweep:
        // per-workload panels.
        _ => render_panels(&mut out, result),
    }
    // Saturating, like every sum over a parsed document's counters.
    let mut gc = GcCounters::default();
    for r in &result.cells {
        gc.intervals_closed = gc.intervals_closed.saturating_add(r.gc.intervals_closed);
        gc.intervals_retired = gc.intervals_retired.saturating_add(r.gc.intervals_retired);
        gc.diffs_retired = gc.diffs_retired.saturating_add(r.gc.diffs_retired);
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
        render_panel(out, group);
    }
}

/// `value` relative to `baseline`: 1.0 when both are 0, infinite when only
/// the baseline is.
fn norm(value: u64, baseline: u64) -> f64 {
    if baseline == 0 {
        if value == 0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        value as f64 / baseline as f64
    }
}

/// One workload's sweep the way the paper's Figures 1 and 2 present it:
/// execution time, messages and data normalized to the 4 KB configuration,
/// with the useful/useless/piggybacked breakdown.  Rows without a 4K cell
/// (a parsed document may lack it) render as a note.
fn render_panel(out: &mut String, rows: &[CellResult]) {
    let Some(base_cell) = rows.iter().find(|r| r.cell.policy_label == "4K") else {
        let _ = writeln!(
            out,
            "\n({} cells without a 4K baseline to normalize to)",
            rows.len()
        );
        return;
    };
    let base = &base_cell.breakdown;
    let _ = writeln!(
        out,
        "\n=== {} {} (normalized to 4K; absolute 4K: {:.1} ms, {} msgs, {} KB) ===",
        base_cell.cell.app.name(),
        base_cell.cell.size_label,
        base_cell.exec_time_ns as f64 / 1e6,
        base.total_messages(),
        base.total_payload() / 1024
    );
    let _ = writeln!(
        out,
        "{:<6} {:>10} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "unit", "time", "msgs", "useless-msg", "data", "useful", "piggyback", "useless"
    );
    for r in rows {
        let b = &r.breakdown;
        let _ = writeln!(
            out,
            "{:<6} {:>10.3} {:>12.3} {:>12.3} {:>12.3} {:>12.3} {:>12.3} {:>12.3}",
            r.cell.policy_label,
            norm(r.exec_time_ns, base_cell.exec_time_ns),
            norm(b.total_messages(), base.total_messages()),
            norm(b.useless_messages, base.total_messages()),
            norm(b.total_payload(), base.total_payload()),
            norm(b.useful_data, base.total_payload()),
            norm(b.piggybacked_useless_data, base.total_payload()),
            norm(b.useless_data_in_useless_msgs, base.total_payload()),
        );
    }
}

fn render_table1(out: &mut String, result: &ExperimentResult) {
    let _ = writeln!(
        out,
        "{:<10} {:<14} {:>14} {:>14} {:>9} {:>9}",
        "Program", "Input Size", "Seq. Time (ms)", "Par. Time (ms)", "Speedup", "Verified"
    );
    for group in workload_groups(result) {
        let Some(par) = group.iter().max_by_key(|r| r.cell.nprocs) else {
            continue;
        };
        let Some(seq) = group.iter().find(|r| r.cell.nprocs == 1) else {
            let _ = writeln!(
                out,
                "{:<10} {:<14} (no 1-processor cell: no speedup)",
                par.cell.app.name(),
                par.cell.size_label
            );
            continue;
        };
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

/// Each cell's signature histogram in the style of Figure 3: one line per
/// concurrent-writer count with its frequency and useful/useless split.
fn render_signatures(out: &mut String, result: &ExperimentResult) {
    for r in &result.cells {
        let sig = &r.breakdown.signature;
        let _ = writeln!(
            out,
            "\n--- {} {} @ {} (mean writers {:.2}) ---",
            r.cell.app.name(),
            r.cell.size_label,
            r.cell.policy_label,
            sig.mean_writers()
        );
        let _ = writeln!(
            out,
            "{:>8} {:>10} {:>10} {:>10}",
            "writers", "freq", "useful", "useless"
        );
        for k in 1..=sig.max_writers().max(1) {
            let b = sig.bucket(k);
            if b.faults == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "{:>8} {:>10.3} {:>10} {:>10}",
                k,
                sig.frequency(k),
                b.useful_exchanges,
                b.useless_exchanges
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_experiment, RunnerOptions};
    use crate::{BenchArgs, Experiment};
    use tm_net::{
        ClusterStats, DiffExchange, FaultRecord, MsgKind, ProcId, ProcStats, MSG_HEADER_BYTES,
    };

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
    fn a_parsed_document_without_its_baseline_renders_a_note() {
        // The three human renderers that normalize to a baseline cell: the
        // speedup table (the 1-processor cell), the figure panels and the
        // ablation (the 4K cell).
        for (name, note) in [
            ("table1", "(no 1-processor cell: no speedup)"),
            ("fig1", "without a 4K baseline"),
            ("fig_dyn_group", "without a 4K baseline"),
        ] {
            let json = render(&tiny_result(name), OutputFormat::Json);
            let mut parsed = parse_result(&json).unwrap();
            parsed.cells.retain(|r| match name {
                "table1" => r.cell.nprocs != 1,
                _ => r.cell.policy_label != "4K",
            });
            assert!(!parsed.cells.is_empty(), "{name}");
            let human = render(&parsed, OutputFormat::Human);
            assert!(human.contains(note), "{name}:\n{human}");
        }
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
        // So are the deleted modes: eager diffs, a document from before lazy
        // diffing, and the home-based variant that homed a page at its first
        // writer (its name assembled so a search for it finds no live use).
        let removed_protocol = format!(
            "\"protocol\": \"{}\"",
            ["home-based-first", "touch"].join("-")
        );
        for (field, from, to) in [
            ("unit.pages", "\"pages\": 1", "\"pages\": 4294967297"),
            ("unit.pages", "\"pages\": 1", "\"pages\": 0"),
            ("nprocs", nprocs(2).as_str(), nprocs(0).as_str()),
            ("nprocs", nprocs(2).as_str(), nprocs(MAX_PROCS + 1).as_str()),
            (
                "diff_timing",
                "\"diff_timing\": \"lazy\"",
                "\"diff_timing\": \"eager\"",
            ),
            ("diff_timing", "\"diff_timing\": \"lazy\",", ""),
            (
                "protocol",
                "\"protocol\": \"multi-writer\"",
                removed_protocol.as_str(),
            ),
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

    /// A cell of the fig3 grid with empty measurements: a fixture for the
    /// codec's per-cell fields that runs nothing.
    fn fixture_cell() -> CellResult {
        let args = BenchArgs {
            scale: crate::Scale::Tiny,
            ..BenchArgs::defaults(2)
        };
        CellResult {
            cell: Experiment::named("fig3", &args).unwrap().cells[0].clone(),
            exec_time_ns: 0,
            checksum: 0.0,
            breakdown: CommBreakdown::default(),
            gc: GcCounters::default(),
            links: Vec::new(),
            races: None,
            host_wall_ns: 0,
        }
    }

    fn exchange(delivered: u64, useful: u64) -> DiffExchange {
        DiffExchange {
            wire_bytes: 2 * MSG_HEADER_BYTES + delivered,
            delivered_payload: delivered,
            useful_payload: useful,
        }
    }

    #[test]
    fn normalisation_handles_zero_baselines() {
        assert_eq!(norm(0, 0), 1.0);
        assert_eq!(norm(5, 10), 0.5);
        assert!(norm(5, 0).is_infinite());
    }

    #[test]
    fn breakdown_json_roundtrip() {
        let mut p = ProcStats::new(ProcId(0));
        p.exchanges.push(exchange(100, 60));
        p.exchanges.push(exchange(50, 0));
        p.faults.push(FaultRecord { exchange_ids: 0..2 });
        p.record_control(MsgKind::BarrierArrive, 8);
        p.exec_time_ns = 1000;
        let b = ClusterStats {
            per_proc: vec![p],
            ..Default::default()
        }
        .breakdown();

        let text = breakdown_to_json(&b).pretty();
        let parsed = breakdown_from_json(&parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, b);

        // A missing field reports its path.
        let err = breakdown_from_json(&parse("{}").unwrap()).unwrap_err();
        assert_eq!(err.path, "useful_messages");
    }

    #[test]
    fn gc_counters_aggregate_and_roundtrip() {
        let mut a = ProcStats::new(ProcId(0));
        a.intervals_closed = 10;
        a.intervals_retired = 9;
        a.diffs_retired = 20;
        let mut b = ProcStats::new(ProcId(1));
        b.intervals_closed = 4;
        b.intervals_retired = 3;
        b.diffs_retired = 5;
        let gc = ClusterStats {
            per_proc: vec![a, b],
            ..Default::default()
        }
        .gc_counters();
        assert_eq!(gc.intervals_closed, 14);
        assert_eq!(gc.intervals_retired, 12);
        assert_eq!(gc.diffs_retired, 25);
        assert!((gc.retired_fraction() - 12.0 / 14.0).abs() < 1e-12);
        assert_eq!(GcCounters::default().retired_fraction(), 0.0);

        let parsed = gc_from_json(&parse(&gc_to_json(&gc).pretty()).unwrap()).unwrap();
        assert_eq!(parsed, gc);
    }

    #[test]
    fn per_protocol_counters_aggregate_and_parse_additively() {
        // What a home-based run records: rank 0 closes two intervals, each
        // flushing its diffs to one remote home (one home-update control
        // message apiece); rank 1 faults once and fetches two whole pages
        // from their home in one exchange, reading a word of them.
        let page = 4096;
        let mut a = ProcStats::new(ProcId(0));
        a.record_control(MsgKind::HomeUpdate, 128);
        a.record_control(MsgKind::HomeUpdate, 64);
        let mut b = ProcStats::new(ProcId(1));
        b.exchanges.push(exchange(2 * page, 4));
        b.faults.push(FaultRecord { exchange_ids: 0..1 });
        b.page_fetches = 2;
        let stats = ClusterStats {
            per_proc: vec![a, b],
            ..Default::default()
        };
        let bd = stats.breakdown();
        assert_eq!(bd.home_updates, 2);
        assert_eq!(bd.page_fetches, 2);
        // Home updates recorded as control traffic count as useful
        // messages, beside the useful fetch's request and reply.
        assert_eq!(bd.useful_messages, 2 + 2);
        assert_eq!(bd.useless_messages, 0);

        let text = breakdown_to_json(&bd).pretty();
        let parsed = breakdown_from_json(&parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, bd);

        // Pre-home-based documents carry neither field: both default to 0.
        let legacy = text
            .lines()
            .filter(|l| !l.contains("home_updates") && !l.contains("page_fetches"))
            .collect::<Vec<_>>()
            .join("\n");
        let parsed = breakdown_from_json(&parse(&legacy).unwrap()).unwrap();
        assert_eq!(parsed.home_updates, 0);
        assert_eq!(parsed.page_fetches, 0);
    }

    #[test]
    fn link_stats_json_round_trips() {
        let s = LinkStats {
            link: 3,
            messages: 17,
            wire_bytes: 12_345,
            busy_ns: 987_654,
            queue_ns: 42,
            window_ns: 1_000_000,
        };
        let parsed = link_from_json(&link_to_json(&s, 0)).unwrap();
        assert_eq!(parsed, s);
        assert!((s.utilization(1_975_308) - 0.5).abs() < 1e-9);
        assert_eq!(LinkStats::default().utilization(0), 0.0);
        // A document written before the window existed parses with a zero
        // window and keeps the legacy busy/total ratio.
        let legacy = Value::obj(vec![
            ("link", Value::Num(3.0)),
            ("messages", Value::Num(17.0)),
            ("wire_bytes", Value::Num(12_345.0)),
            ("busy_ns", Value::Num(987_654.0)),
            ("queue_ns", Value::Num(42.0)),
        ]);
        let parsed = link_from_json(&legacy).unwrap();
        assert_eq!(parsed.window_ns, 0);
        assert!((parsed.utilization(1_975_308) - 0.5).abs() < 1e-9);
    }

    /// Replace the value of `field` in the object `doc`.
    fn with_field(mut doc: Value, field: &str, value: Value) -> Value {
        let Value::Obj(fields) = &mut doc else {
            panic!("records serialize as objects");
        };
        fields.iter_mut().find(|(k, _)| k == field).unwrap().1 = value;
        doc
    }

    #[test]
    fn a_u32_field_above_u32_max_is_an_error_naming_it() {
        // 2^32 + 1 used to be read as 1: another page, word, rank, interval
        // or link than the document names.
        let race = RaceRecord {
            page: u32::MAX,
            word_lo: 2,
            word_hi: 3,
            first_rank: 0,
            first_kind: AccessKind::Write,
            first_interval: 4,
            second_rank: 1,
            second_kind: AccessKind::Read,
            second_interval: 5,
        };
        assert_eq!(race_from_json(&race_to_json(&race)), Ok(race.clone()));
        let too_big = Value::Num(4_294_967_297.0);
        for field in [
            "page",
            "word_lo",
            "word_hi",
            "first_rank",
            "first_interval",
            "second_rank",
            "second_interval",
        ] {
            let doc = with_field(race_to_json(&race), field, too_big.clone());
            assert_eq!(race_from_json(&doc).unwrap_err().path, field);
        }
        let doc = with_field(link_to_json(&LinkStats::default(), 0), "link", too_big);
        assert_eq!(link_from_json(&doc).unwrap_err().path, "link");
    }

    #[test]
    fn a_present_window_must_be_an_unsigned_integer() {
        // Absent means 0 (above); present and malformed used to be read as
        // 0 too, silently moving the utilization denominator.
        for bad in [Value::Str("x".into()), Value::Num(-1.0), Value::Num(1.5)] {
            let doc = with_field(link_to_json(&LinkStats::default(), 0), "window_ns", bad);
            assert_eq!(link_from_json(&doc).unwrap_err().path, "window_ns");
        }
    }

    #[test]
    fn network_config_json_round_trips() {
        let mut r = fixture_cell();
        for topology in [Topology::Ideal, Topology::SharedBus, Topology::Switched] {
            for aggregation in [AggregationPolicy::PerMessage, AggregationPolicy::Batched] {
                let n = NetworkConfig::new(topology, aggregation);
                r.cell.network = n;
                let doc = cell_result_to_json(&r);
                assert_eq!(cell_from_json(&doc).unwrap().network, n);
                // The compatibility default is written as no field at all.
                assert_eq!(doc.get("topology").is_none(), topology == Topology::Ideal);
                assert_eq!(doc.get("aggregation").is_none(), !aggregation.is_batched());
            }
        }
        for (field, name) in [("topology", "token-ring"), ("aggregation", "zip")] {
            let doc = with_field(cell_result_to_json(&r), field, Value::Str(name.into()));
            assert_eq!(cell_from_json(&doc).unwrap_err().path, field);
        }
    }

    #[test]
    fn unit_policy_json_rejects_what_validate_rejects() {
        let decode = |text: &str| unit_from_json(&parse(text).unwrap());
        for unit in [
            UnitPolicy::Static { pages: 1 },
            UnitPolicy::Static { pages: u32::MAX },
            UnitPolicy::Dynamic {
                max_group_pages: 16,
            },
        ] {
            assert_eq!(decode(&unit_to_json(unit).pretty()), Ok(unit));
        }
        // 2^32 + 1 used to be read as one page, and 0 to panic in `validate`.
        for (text, field) in [
            (r#"{"kind":"static","pages":4294967297}"#, "pages"),
            (r#"{"kind":"static","pages":0}"#, "pages"),
            (
                r#"{"kind":"dynamic","max_group_pages":0}"#,
                "max_group_pages",
            ),
            (
                r#"{"kind":"dynamic","max_group_pages":4294967296}"#,
                "max_group_pages",
            ),
            (r#"{"kind":"static"}"#, "pages"),
        ] {
            assert_eq!(decode(text).unwrap_err().path, field, "{text}");
        }
    }

    #[test]
    fn record_json_roundtrip_and_display() {
        let r = RaceRecord {
            page: 7,
            word_lo: 3,
            word_hi: 5,
            first_rank: 0,
            first_kind: AccessKind::Write,
            first_interval: 2,
            second_rank: 4,
            second_kind: AccessKind::Read,
            second_interval: 9,
        };
        let parsed = race_from_json(&parse(&race_to_json(&r).pretty()).unwrap()).unwrap();
        assert_eq!(parsed, r);
        assert!(r.to_string().contains("page#7"));
        assert!(r.to_string().contains("words 3..=5"));

        // A bad kind string names its field.
        let bad = race_to_json(&r).pretty().replace("\"write\"", "\"wrote\"");
        let err = race_from_json(&parse(&bad).unwrap()).unwrap_err();
        assert_eq!(err.path, "first_kind");
    }

    /// ROADMAP item 8, document half: a deterministic byte-level mutation
    /// fuzz through [`parse_result`].  The input carries every optional
    /// field: a checked `table1 --tiny` grid (one of its cells given a race
    /// record) plus one contended-topology cell.  Every mutation parses or
    /// fails, never panics; an edit of one field's value that is rejected
    /// names that field; and every document that parses renders in all
    /// three formats and round-trips.
    #[test]
    fn mutated_documents_parse_or_fail_by_name_and_never_panic() {
        let args = BenchArgs {
            nprocs: 2,
            scale: crate::Scale::Tiny,
            racecheck: true,
            ..BenchArgs::defaults(2)
        };
        let table1 = Experiment::named("table1", &args).unwrap();
        let mut result = run_experiment(&table1, &RunnerOptions { threads: 2 });
        let network = Experiment::named("fig_network", &args).unwrap();
        let contended = network
            .cells
            .iter()
            .find(|c| c.network.topology.is_contended() && c.network.aggregation.is_batched())
            .unwrap();
        result.cells.push(crate::run_cell(contended));
        result.cells[0].races = Some(vec![RaceRecord {
            page: 1,
            word_lo: 2,
            word_hi: 3,
            first_rank: 0,
            first_kind: AccessKind::Write,
            first_interval: 1,
            second_rank: 1,
            second_kind: AccessKind::Read,
            second_interval: 1,
        }]);
        let result = result.without_host_times();
        let doc = render(&result, OutputFormat::Json);
        for field in [
            "schedule",
            "protocol",
            "topology",
            "aggregation",
            "racecheck",
            "links",
            "window_ns",
            "races",
            "first_kind",
            "gc",
            "home_updates",
            "page_fetches",
        ] {
            assert!(doc.contains(&format!("\"{field}\": ")), "{field}");
        }
        assert_eq!(parse_result(&doc), Ok(result.clone()));

        let check = |text: &str| {
            let parsed = parse_result(text);
            if let Ok(r) = &parsed {
                render(r, OutputFormat::Human);
                render(r, OutputFormat::Csv);
                assert_eq!(parse_result(&render(r, OutputFormat::Json)).as_ref(), Ok(r));
            }
            parsed
        };

        // Truncation: every proper prefix that cuts into the document is
        // incomplete.
        let body = doc.trim_end().len();
        for end in (0..body).step_by(body / 61) {
            if let Some(prefix) = doc.get(..end) {
                assert!(check(prefix).is_err(), "prefix of {end} bytes");
            }
        }

        // Single-bit flips (those that leave valid UTF-8).
        let bytes = doc.as_bytes();
        for (n, at) in (0..bytes.len()).step_by(bytes.len() / 127).enumerate() {
            let mut flipped = bytes.to_vec();
            flipped[at] ^= 1 << (n % 7);
            if let Ok(text) = std::str::from_utf8(&flipped) {
                let _ = check(text);
            }
        }

        // Field edits, at the first line of each key.
        let lines: Vec<&str> = doc.lines().collect();
        let edit = |at: usize, replacement: &[String]| {
            let mut out: Vec<&str> = lines[..at].to_vec();
            out.extend(replacement.iter().map(String::as_str));
            out.extend(&lines[at + 1..]);
            out.join("\n")
        };
        let mut seen = std::collections::HashSet::new();
        for (at, line) in lines.iter().enumerate() {
            let Some((key, value)) = line.trim().split_once("\": ") else {
                continue;
            };
            let key = key.trim_start_matches('"');
            let (value, comma) = match value.strip_suffix(',') {
                Some(v) => (v, ","),
                None => (value, ""),
            };
            if !seen.insert(key) {
                continue;
            }
            // A duplicated scalar key: the first occurrence wins.
            if !comma.is_empty() && !value.ends_with(['{', '[']) {
                let dup = edit(at, &[line.to_string(), line.to_string()]);
                assert_eq!(check(&dup).as_ref(), Ok(&result), "duplicate {key}");
            }
            // A number out of a counter's range: only the checksum (any
            // number) and the derived utilization (not read) take it.
            if value.parse::<f64>().is_ok() {
                let indent = &line[..line.len() - line.trim_start().len()];
                for bad in ["-1", "1.5", "1e300", "18446744073709551616"] {
                    let bad_line = format!("{indent}\"{key}\": {bad}{comma}");
                    match check(&edit(at, &[bad_line])) {
                        Ok(_) => assert!(["checksum", "utilization"].contains(&key), "{key}"),
                        Err(err) => assert!(err.contains(key), "{key} = {bad}: {err}"),
                    }
                }
            }
        }

        // Nesting past the parser's depth bound is an error, not a stack
        // overflow.
        let depth = serde::json::MAX_DEPTH + 1;
        let deep = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let nested = doc.replacen(&format!("\"{}\"", result.title), &deep, 1);
        assert_ne!(nested, doc);
        assert!(check(&nested).unwrap_err().contains("nested too deeply"));

        // Counters each in range whose sums are not: 2 049 links, signature
        // buckets and cells at 2^53, the largest count a document carries,
        // add up past `u64::MAX` in every sum a renderer takes.
        let (huge, many) = (1u64 << 53, 2049);
        let mut wide = result.clone();
        let mut cell = wide.cells.pop().unwrap();
        cell.gc.intervals_closed = huge;
        cell.gc.intervals_retired = huge;
        cell.gc.diffs_retired = huge;
        let link = LinkStats {
            busy_ns: huge,
            queue_ns: huge,
            ..cell.links[0]
        };
        let bucket = SignatureBucket {
            faults: huge,
            ..SignatureBucket::default()
        };
        wide.cells = vec![cell.clone(); many];
        cell.links = vec![link; many];
        cell.breakdown.signature = SignatureHistogram::from_buckets(vec![bucket; many]);
        wide.cells.push(cell);
        assert!(check(&render(&wide, OutputFormat::Json)).is_ok());
    }
}
