//! Command line of the repo benchmark.
//!
//! * `--workload NAME --seed N --seconds S --trace 0|1` — one workload in
//!   this process; the last line of standard output is the result object
//!   the benchmark's driver reads.
//! * `run [--seed N] [--seconds S] [--quick] [--summary FILE]` (also the
//!   default with no arguments) — every workload, each in a child process
//!   of its own, end to end and then traced; prints every metric by name
//!   with its unit and writes the summary document.
//! * `compare FIRST SECOND` — two summaries side by side against the bounds.

use std::process::{Command, ExitCode};

use serde::json::{self, Value};
use tm_benchmark::alloc_count::CountingAlloc;
use tm_benchmark::measure::{run_workload, Options, RUN_SECONDS};
use tm_benchmark::report::{
    bounds_json, compare, detail_line, human_table, result_line, SUMMARY_SCHEMA,
};
use tm_benchmark::workloads;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Where traces and summaries go, relative to the repository root
/// (`run.sh` changes there first).
const OUT_DIR: &str = "benchmark/out";

const USAGE: &str =
    "usage: tm-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick]
       tm-benchmark [run] [--seed N] [--seconds S] [--quick] [--summary FILE]
       tm-benchmark compare FIRST.json SECOND.json";

#[derive(Debug)]
struct Args {
    command: Option<String>,
    positional: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    bad_reference: bool,
    summary: Option<String>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        command: None,
        positional: Vec::new(),
        workload: None,
        seed: 0,
        seconds: RUN_SECONDS,
        trace: false,
        quick: false,
        bad_reference: false,
        summary: None,
    };
    while let Some(arg) = argv.next() {
        let mut value = |flag: &str| {
            argv.next()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                let v = value("--seed")?;
                args.seed = v.parse().map_err(|_| format!("invalid --seed '{v}'"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(|| format!("invalid --seconds '{v}' (expected 0 < S <= 3600)"))?;
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("invalid --trace '{v}' (expected 0 or 1)")),
                };
            }
            "--quick" => args.quick = true,
            "--inject-bad-reference" => args.bad_reference = true,
            "--summary" => args.summary = Some(value("--summary")?),
            flag if flag.starts_with("--") => return Err(format!("unrecognized flag '{flag}'")),
            word if args.command.is_none() && args.workload.is_none() => {
                args.command = Some(word.to_string());
            }
            word => args.positional.push(word.to_string()),
        }
    }
    Ok(args)
}

/// One workload in this process.
fn single(args: &Args, workload: &str) -> Result<ExitCode, String> {
    let options = Options {
        workload: workload.trim_end_matches(".quick").to_string(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        quick: args.quick || workload.ends_with(".quick"),
        bad_reference: args.bad_reference,
    };
    let report = run_workload(&options).ok_or_else(|| {
        format!(
            "unknown workload '{workload}' (expected one of {})",
            workloads::NAMES.join(", ")
        )
    })?;
    if args.trace {
        std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
        let path = format!("{OUT_DIR}/trace-{}.json", report.workload);
        let doc = report.tracer.to_json(&report.workload, args.seed);
        std::fs::write(&path, doc.pretty()).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    eprint!("{}", human_table(&report, args.trace));
    if report.digest_match == Some(false) {
        eprintln!(
            "WARNING: {}: modeled results differ from the digest pinned in baseline.json — \
             a speed-only change must not move them",
            report.workload
        );
    }
    println!("{}", detail_line(&report, args.trace));
    println!("{}", result_line(&report, args.trace));
    Ok(if report.failed_cells == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Run one workload in a child process and return its detail line.
fn child(args: &Args, workload: &str, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child; its stderr (the human table) passes
    // through to ours.
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let (_result, detail) = (lines.next(), lines.next());
    let detail = detail.ok_or_else(|| format!("{workload}: no output ({})", out.status))?;
    let detail = json::parse(detail).map_err(|e| format!("{workload}: bad detail line: {e}"))?;
    if !out.status.success() {
        eprintln!("{workload}: exited with {}", out.status);
    }
    Ok(detail)
}

/// Every workload, one child process at a time, end to end then traced.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut entries = Vec::new();
    let mut failed_total = 0;
    for name in workloads::NAMES {
        let e2e = child(args, name, false)?;
        let layers = child(args, name, true)?;
        let field = |doc: &Value, key: &str| doc.get(key).cloned().unwrap_or(Value::Null);
        let failed = |doc: &Value| doc.get("failed_cells").and_then(Value::as_u64).unwrap_or(1);
        failed_total += failed(&e2e) + failed(&layers);
        entries.push(Value::obj(vec![
            ("name", field(&e2e, "workload")),
            ("cells_attempted", field(&e2e, "cells_attempted")),
            (
                "failed_cells",
                Value::Num((failed(&e2e) + failed(&layers)) as f64),
            ),
            ("digest", field(&e2e, "digest")),
            ("digest_match", field(&e2e, "digest_match")),
            ("wall", field(&e2e, "wall")),
            ("end_to_end", field(&e2e, "values")),
            ("per_layer", field(&layers, "values")),
        ]));
    }
    let summary = Value::obj(vec![
        ("schema", Value::Str(SUMMARY_SCHEMA.to_string())),
        ("nproc", Value::Num(nproc as f64)),
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(args.seconds)),
        ("quick", Value::Bool(args.quick)),
        ("bounds", bounds_json()),
        ("workloads", Value::Arr(entries)),
    ]);
    let path = match &args.summary {
        Some(path) => path.clone(),
        None => {
            std::fs::create_dir_all(OUT_DIR)
                .map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
            format!("{OUT_DIR}/summary.json")
        }
    };
    std::fs::write(&path, summary.pretty()).map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("wrote {path} ({failed_total} failed cells)");
    Ok(if failed_total == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_files(paths: &[String]) -> Result<ExitCode, String> {
    let [first, second] = paths else {
        return Err("compare takes two summary files".to_string());
    };
    let load = |path: &String| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (table, ok) = compare(&load(first)?, &load(second)?)?;
    print!("{table}");
    println!(
        "{}",
        if ok {
            "every metric within its bound"
        } else {
            "EXCESS: at least one metric beyond its bound"
        }
    );
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let outcome = parse_args(std::env::args().skip(1)).and_then(|args| {
        match (args.workload.as_deref(), args.command.as_deref()) {
            (Some(workload), None) => single(&args, workload),
            (None, None | Some("run")) if args.positional.is_empty() => run_all(&args),
            (None, Some("compare")) => compare_files(&args.positional),
            _ => Err("unrecognized command line".to_string()),
        }
    });
    match outcome {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
