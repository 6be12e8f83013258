//! What the benchmark prints: the one-line result its driver reads, the
//! human table, the summary document of a full set, and the comparison of
//! two summaries that `repeat.sh` runs.

use serde::json::Value;

use crate::measure::Report;
use crate::names::{Better, MetricDef, END_TO_END, EXACT, PER_LAYER};
use crate::stats::Quartiles;

/// Schema tag of the summary document (`out/summary.json`, `baseline.json`).
pub const SUMMARY_SCHEMA: &str = "tm-benchmark/summary/v1";

fn defs(trace: bool) -> &'static [MetricDef] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// The declared metrics of `report` as a JSON object of bare numbers.
///
/// # Panics
/// Panics if a declared metric was not measured or is not finite — either is
/// a bug in the benchmark, not a property of the program under test.
fn metric_values(report: &Report, trace: bool) -> Vec<(&'static MetricDef, f64)> {
    defs(trace)
        .iter()
        .map(|def| {
            let value = report
                .metrics
                .iter()
                .find(|(name, _)| *name == def.name)
                .unwrap_or_else(|| panic!("metric {} was declared but not measured", def.name))
                .1;
            assert!(value.is_finite(), "metric {} is not finite", def.name);
            (def, value)
        })
        .collect()
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics`, each metric with its value and unit.
pub fn result_line(report: &Report, trace: bool) -> Value {
    let metrics = metric_values(report, trace)
        .into_iter()
        .map(|(def, value)| {
            let entry = Value::obj(vec![
                ("value", Value::Num(value)),
                ("unit", Value::Str(def.unit.to_string())),
            ]);
            (def.name.to_string(), entry)
        })
        .collect();
    Value::obj(vec![
        ("correct", Value::Bool(report.failed_cells == 0)),
        ("attempted", Value::Num(report.cells_attempted as f64)),
        ("failed", Value::Num(report.failed_cells as f64)),
        ("metrics", Value::Obj(metrics)),
    ])
}

fn wall_json(q: &Quartiles) -> Value {
    Value::obj(vec![
        ("min", Value::Num(q.min)),
        ("q1", Value::Num(q.q1)),
        ("median", Value::Num(q.median)),
        ("q3", Value::Num(q.q3)),
        ("max", Value::Num(q.max)),
        ("n", Value::Num(q.n as f64)),
    ])
}

/// The line before the result line: what the full-set driver needs beyond
/// the contract's four keys.
pub fn detail_line(report: &Report, trace: bool) -> Value {
    let values = metric_values(report, trace)
        .into_iter()
        .map(|(def, value)| (def.name.to_string(), Value::Num(value)))
        .collect();
    Value::obj(vec![
        ("workload", Value::Str(report.workload.clone())),
        ("cells_attempted", Value::Num(report.cells_attempted as f64)),
        ("failed_cells", Value::Num(report.failed_cells as f64)),
        ("digest", Value::Str(report.digest.clone())),
        (
            "digest_match",
            report.digest_match.map_or(Value::Null, Value::Bool),
        ),
        ("wall", wall_json(&report.wall)),
        ("values", Value::Obj(values)),
    ])
}

/// Every metric by name with its unit, plus the run's verdicts, for people.
pub fn human_table(report: &Report, trace: bool) -> String {
    let mut out = format!(
        "== {} ({}) ==\n",
        report.workload,
        if trace {
            "per layer, traced"
        } else {
            "end to end"
        }
    );
    let w = &report.wall;
    out.push_str(&format!(
        "wall_s of {} untraced repetitions: min {:.4} q1 {:.4} median {:.4} q3 {:.4} max {:.4}\n",
        w.n, w.min, w.q1, w.median, w.q3, w.max
    ));
    out.push_str(&format!(
        "cells_attempted {}  failed_cells {}  digest {}  digest_match {}\n",
        report.cells_attempted,
        report.failed_cells,
        report.digest,
        match report.digest_match {
            Some(true) => "true",
            Some(false) => "FALSE (modeled results drifted from baseline.json)",
            None => "n/a (pins apply to seed 0 of the full workloads)",
        }
    ));
    for (def, value) in metric_values(report, trace) {
        out.push_str(&format!("{:<34} {:>18.6} {}", def.name, value, def.unit));
        if let Some(p) = report.probes.iter().find(|p| p.name == def.name) {
            out.push_str(&format!("   ({} ops x {} batches)", p.ops, p.batches));
        }
        out.push('\n');
    }
    if trace {
        out.push_str("spans: name, count, total ms, self ms\n");
        for (name, (count, total, own)) in report.tracer.summary() {
            out.push_str(&format!(
                "  {:<32} {:>6} {:>12.3} {:>12.3}\n",
                name,
                count,
                total as f64 / 1e6,
                own as f64 / 1e6
            ));
        }
    }
    out
}

/// Bounds of the end-to-end metrics, as recorded in a summary.
pub fn bounds_json() -> Value {
    Value::Obj(
        END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), Value::Num(m.bound.unwrap_or(0.0))))
            .collect(),
    )
}

fn workload_entries(doc: &Value) -> Result<&[Value], String> {
    if doc.get("schema").and_then(Value::as_str) != Some(SUMMARY_SCHEMA) {
        return Err(format!("not a {SUMMARY_SCHEMA} document"));
    }
    doc.get("workloads")
        .and_then(Value::as_arr)
        .ok_or_else(|| "summary has no workloads array".to_string())
}

/// Compare two summaries of the same build, metric by metric and workload
/// by workload.  Returns the table and whether every pair agrees: exact
/// metrics (see [`EXACT`]) must be equal, the other end-to-end metrics may
/// be worse in `second` by at most their bound; per-layer host timings are
/// listed without a verdict.
pub fn compare(first: &Value, second: &Value) -> Result<(String, bool), String> {
    let mut table = format!(
        "{:<18} {:<34} {:>14} {:>14} {:>9} {:>7}\n",
        "workload", "metric", "first", "second", "worse %", "bound %"
    );
    let mut all_ok = true;
    let second_entries = workload_entries(second)?;
    for a in workload_entries(first)? {
        let name = a.get("name").and_then(Value::as_str).unwrap_or("?");
        let b = second_entries
            .iter()
            .find(|w| w.get("name").and_then(Value::as_str) == Some(name))
            .ok_or_else(|| format!("workload {name} missing from the second summary"))?;
        for (section, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            for def in defs {
                let get = |doc: &Value| doc.get(section)?.get(def.name)?.as_f64();
                let (Some(x), Some(y)) = (get(a), get(b)) else {
                    return Err(format!("{name}: {} missing from a summary", def.name));
                };
                let worse = match def.better {
                    Better::Lower => (y - x) / x.abs(),
                    Better::Higher => (x - y) / x.abs(),
                };
                let worse = if x == y { 0.0 } else { worse };
                let exact = EXACT.contains(&def.name);
                let (bound, verdict) = match (exact, def.bound) {
                    (true, _) => ("exact".to_string(), Some(x == y)),
                    (false, Some(b)) => (format!("{:.1}", b * 100.0), Some(worse <= b)),
                    (false, None) => ("-".to_string(), None),
                };
                all_ok &= verdict != Some(false);
                table.push_str(&format!(
                    "{:<18} {:<34} {:>14.6} {:>14.6} {:>9.2} {:>7}{}\n",
                    name,
                    def.name,
                    x,
                    y,
                    worse * 100.0,
                    bound,
                    if verdict == Some(false) {
                        "  EXCESS"
                    } else {
                        ""
                    }
                ));
            }
        }
        if a.get("digest") != b.get("digest") {
            all_ok = false;
            table.push_str(&format!("{name:<18} digest differs  EXCESS\n"));
        }
    }
    Ok((table, all_ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(wall: f64, msgs: f64) -> Value {
        let section = |defs: &[MetricDef], special: &[(&str, f64)]| {
            Value::Obj(
                defs.iter()
                    .map(|d| {
                        let v = special
                            .iter()
                            .find(|(n, _)| *n == d.name)
                            .map_or(1.0, |(_, v)| *v);
                        (d.name.to_string(), Value::Num(v))
                    })
                    .collect(),
            )
        };
        Value::obj(vec![
            ("schema", Value::Str(SUMMARY_SCHEMA.to_string())),
            (
                "workloads",
                Value::Arr(vec![Value::obj(vec![
                    ("name", Value::Str("w".to_string())),
                    ("digest", Value::Str("00".to_string())),
                    (
                        "end_to_end",
                        section(END_TO_END, &[("wall_s", wall), ("sim_msgs_k", msgs)]),
                    ),
                    ("per_layer", section(PER_LAYER, &[])),
                ])]),
            ),
        ])
    }

    #[test]
    fn compare_applies_bounds_and_exactness() {
        let base = summary(1.0, 5.0);
        assert!(compare(&base, &base).unwrap().1);
        // Slower within the bound passes, beyond it fails; faster passes.
        assert!(compare(&base, &summary(1.05, 5.0)).unwrap().1);
        let (table, ok) = compare(&base, &summary(1.5, 5.0)).unwrap();
        assert!(!ok && table.contains("EXCESS"));
        assert!(compare(&base, &summary(0.5, 5.0)).unwrap().1);
        // A modeled metric must agree exactly, in either direction.
        assert!(!compare(&base, &summary(1.0, 5.001)).unwrap().1);
        assert!(!compare(&base, &summary(1.0, 4.999)).unwrap().1);
        assert!(compare(&base, &Value::Null).is_err());
    }
}
