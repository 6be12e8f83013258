//! Self-tests that drive the built binary and check it against
//! `BENCHMARK.json`: the declared names are the printed names, a wrong
//! sequential reference is a failed cell and a non-zero exit, and the quick
//! set runs clean, fast, and leaves loadable traces.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::time::Instant;

use serde::json::{self, Value};
use tm_benchmark::measure::RUN_SECONDS;
use tm_benchmark::names::{is_valid_name, MetricDef, END_TO_END, PER_LAYER};
use tm_benchmark::workloads::{GATED, NAMES};

const BIN: &str = env!("CARGO_BIN_EXE_tm-benchmark");

/// A fresh working directory for one test (the binary writes
/// `benchmark/out/` relative to where it runs).
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn bench(dir: &Path, args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .current_dir(dir)
        .output()
        .unwrap()
}

fn last_line(out: &Output) -> Value {
    let text = String::from_utf8_lossy(&out.stdout);
    json::parse(text.lines().last().expect("a result line")).expect("result line is JSON")
}

fn keys(v: &Value) -> Vec<&str> {
    match v {
        Value::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
        _ => panic!("expected an object"),
    }
}

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).unwrap()).expect("BENCHMARK.json parses")
}

fn assert_declares(section: &Value, defs: &[MetricDef]) {
    let declared = section.as_arr().unwrap();
    assert_eq!(declared.len(), defs.len());
    for (d, def) in declared.iter().zip(defs) {
        assert_eq!(d.get("name").and_then(Value::as_str), Some(def.name));
        assert_eq!(
            d.get("unit").and_then(Value::as_str),
            Some(def.unit),
            "{}",
            def.name
        );
        assert_eq!(
            d.get("better").and_then(Value::as_str),
            Some(def.better.as_str()),
            "{}",
            def.name
        );
        assert_eq!(
            d.get("bound").and_then(Value::as_f64),
            def.bound,
            "{}",
            def.name
        );
    }
}

#[test]
fn benchmark_json_declares_exactly_what_the_binary_prints() {
    let doc = benchmark_json();
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        doc.get("run_seconds").and_then(Value::as_f64),
        Some(RUN_SECONDS)
    );
    let workloads = doc.get("workloads").and_then(Value::as_arr).unwrap();
    let names: Vec<&str> = workloads
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap())
        .collect();
    assert_eq!(names, GATED);
    for w in workloads {
        assert_eq!(keys(w), ["name", "why"]);
        let why = w.get("why").and_then(Value::as_str).unwrap();
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
    }
    assert_declares(doc.get("end_to_end").unwrap(), END_TO_END);
    assert_declares(doc.get("per_layer").unwrap(), PER_LAYER);

    // The binary prints those names, each with its unit, and nothing else.
    let dir = scratch("names");
    for (trace, defs) in [("0", END_TO_END), ("1", PER_LAYER)] {
        let out = bench(
            &dir,
            &["--workload", "jacobi_home_bus", "--quick", "--trace", trace],
        );
        assert!(out.status.success());
        let result = last_line(&out);
        assert_eq!(keys(&result), ["correct", "attempted", "failed", "metrics"]);
        let metrics = result.get("metrics").unwrap();
        let printed = keys(metrics);
        let declared: Vec<&str> = defs.iter().map(|d| d.name).collect();
        assert_eq!(printed, declared);
        for def in defs {
            let m = metrics.get(def.name).unwrap();
            assert_eq!(keys(m), ["value", "unit"]);
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(def.unit));
            assert!(
                m.get("value").and_then(Value::as_f64).is_some(),
                "{}",
                def.name
            );
            assert!(is_valid_name(def.name));
        }
    }
}

#[test]
fn a_wrong_sequential_reference_is_a_failed_cell_and_a_failing_exit() {
    let dir = scratch("bad_reference");
    let args = ["--workload", "irregular_sync", "--quick", "--trace", "0"];
    let clean = bench(&dir, &args);
    assert!(clean.status.success());
    let result = last_line(&clean);
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
    assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));

    let broken = bench(&dir, &[&args[..], &["--inject-bad-reference"]].concat());
    assert!(!broken.status.success());
    let result = last_line(&broken);
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(false));
    assert_eq!(result.get("failed").and_then(Value::as_u64), Some(1));
    assert_eq!(result.get("attempted").and_then(Value::as_u64), Some(24));
}

#[test]
fn quick_set_runs_clean_and_fast_and_leaves_loadable_traces() {
    let dir = scratch("quick_set");
    let started = Instant::now();
    let out = bench(&dir, &["run", "--quick", "--seed", "3"]);
    let took = started.elapsed().as_secs_f64();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // About 4 s alone on the 2-core sandbox; the margin is for the other
    // tests running beside it and for a busy host.
    assert!(took < 30.0, "quick set took {took:.1} s");

    let summary = std::fs::read_to_string(dir.join("benchmark/out/summary.json")).unwrap();
    let summary = json::parse(&summary).unwrap();
    let entries = summary.get("workloads").and_then(Value::as_arr).unwrap();
    assert_eq!(entries.len(), NAMES.len());
    for (entry, name) in entries.iter().zip(NAMES) {
        // Quick numbers carry their own names: never comparable with full ones.
        let quick_name = format!("{name}.quick");
        assert_eq!(
            entry.get("name").and_then(Value::as_str),
            Some(quick_name.as_str())
        );
        assert_eq!(entry.get("failed_cells").and_then(Value::as_u64), Some(0));
        assert_eq!(
            keys(entry.get("end_to_end").unwrap()).len(),
            END_TO_END.len()
        );
        assert_eq!(keys(entry.get("per_layer").unwrap()).len(), PER_LAYER.len());

        let trace = dir.join(format!("benchmark/out/trace-{quick_name}.json"));
        let trace = json::parse(&std::fs::read_to_string(trace).unwrap()).unwrap();
        let spans = trace.get("spans").and_then(Value::as_arr).unwrap();
        assert!(!spans.is_empty());
        let ids: Vec<u64> = spans
            .iter()
            .map(|s| s.get("id").and_then(Value::as_u64).unwrap())
            .collect();
        for s in spans {
            assert_eq!(
                keys(s),
                ["id", "parent", "name", "cell_key", "start_ns", "end_ns"]
            );
            if let Some(parent) = s.get("parent").and_then(Value::as_u64) {
                assert!(ids.contains(&parent), "span with a missing parent");
            }
            let (start, end) = (s.get("start_ns").unwrap(), s.get("end_ns").unwrap());
            assert!(start.as_u64().unwrap() <= end.as_u64().unwrap());
        }
        // Spans of one cell share its key: every run_cell span has children
        // carrying the same key.
        for cell in spans
            .iter()
            .filter(|s| s.get("name").and_then(Value::as_str) == Some("bench.run_cell"))
        {
            let children: Vec<&Value> = spans
                .iter()
                .filter(|s| s.get("parent") == cell.get("id"))
                .collect();
            assert_eq!(children.len(), 3);
            assert!(children
                .iter()
                .all(|c| c.get("cell_key") == cell.get("cell_key")));
        }
    }

    // Two summaries of the same seed agree on everything that is exact.
    let again = bench(
        &dir,
        &["run", "--quick", "--seed", "3", "--summary", "second.json"],
    );
    assert!(again.status.success());
    let cmp = bench(
        &dir,
        &["compare", "benchmark/out/summary.json", "second.json"],
    );
    let table = String::from_utf8_lossy(&cmp.stdout);
    for line in table.lines().filter(|l| l.contains("exact")) {
        assert!(!line.contains("EXCESS"), "{line}");
    }
}
