//! Machine-readable results: every named experiment must emit JSON that
//! parses and round-trips losslessly, both through the library emitters and
//! end-to-end through the real binary (`--tiny --format json`).

use tm_bench::{
    parse_result, render, run_experiment, BenchArgs, Experiment, ExperimentResult, OutputFormat,
    RunnerOptions, RESULT_SCHEMA,
};

fn tiny_args() -> BenchArgs {
    BenchArgs {
        nprocs: 2,
        scale: tm_bench::Scale::Tiny,
        ..BenchArgs::defaults(2)
    }
}

fn run_tiny(name: &str) -> ExperimentResult {
    let exp = Experiment::named(name, &tiny_args()).unwrap();
    run_experiment(&exp, &RunnerOptions { threads: 2 })
}

#[test]
fn every_named_experiment_roundtrips_through_json() {
    for name in Experiment::all_names() {
        let result = run_tiny(name);
        let text = render(&result, OutputFormat::Json);
        let parsed = parse_result(&text)
            .unwrap_or_else(|e| panic!("'{name}' JSON does not parse back: {e}"));
        // The document carries every deterministic field; host wall-clock
        // timing is display-only and deliberately absent from it.
        assert_eq!(
            parsed,
            result.without_host_times(),
            "'{name}' JSON round-trip lost data"
        );
        // And the re-emission of the parsed document is byte-identical,
        // so results files are stable fixed points.
        assert_eq!(render(&parsed, OutputFormat::Json), text);
    }
}

#[test]
fn csv_projection_matches_the_cells() {
    for name in Experiment::all_names() {
        let result = run_tiny(name);
        let csv = render(&result, OutputFormat::Csv);
        let mut lines = csv.lines();
        let header = lines.next().expect("csv header");
        assert!(header.starts_with("experiment,app,size,policy,nprocs,seed,"));
        let rows: Vec<&str> = lines.collect();
        assert_eq!(rows.len(), result.cells.len(), "'{name}' row count");
        for (row, cell) in rows.iter().zip(&result.cells) {
            assert!(
                row.starts_with(&format!(
                    "{},{},{},{},{}",
                    name,
                    cell.cell.app.name(),
                    cell.cell.size_label,
                    cell.cell.policy_label,
                    cell.cell.nprocs
                )),
                "'{name}' CSV row out of order: {row}"
            );
        }
    }
}

/// The additive v1 fields of the home-based protocol round-trip exactly
/// like the rest: a home-based sweep's JSON re-parses to the host-time-free
/// fixed point (so PR 3's round-trip property extends to the new fields
/// unmodified), and both machine formats carry the protocol column and the
/// per-protocol counters.
#[test]
fn home_based_documents_roundtrip_and_carry_protocol_fields() {
    use tdsm_core::ProtocolMode;
    let args = BenchArgs {
        protocol: ProtocolMode::home_based(),
        ..tiny_args()
    };
    let exp = Experiment::named("fig1", &args).unwrap();
    let result = run_experiment(&exp, &RunnerOptions { threads: 2 });

    let json = render(&result, OutputFormat::Json);
    assert!(json.contains("\"protocol\": \"home-based\""));
    assert!(json.contains("\"home_updates\""));
    assert!(json.contains("\"page_fetches\""));
    let parsed = parse_result(&json).unwrap();
    assert_eq!(parsed, result.without_host_times());
    assert_eq!(render(&parsed, OutputFormat::Json), json);
    for cell in &parsed.cells {
        assert_eq!(cell.cell.protocol, ProtocolMode::home_based());
    }

    let csv = render(&result, OutputFormat::Csv);
    assert!(csv.lines().next().unwrap().contains(",protocol,"));
    assert!(csv
        .lines()
        .next()
        .unwrap()
        .contains(",home_updates,page_fetches,"));
    assert!(csv.lines().nth(1).unwrap().contains(",home-based,"));
}

/// Acceptance end-to-end: each of the seven experiments, run through the
/// binary with
/// `--tiny --format json`, must write a parseable document to stdout that
/// round-trips through the emitters, and `--out` must write the same schema
/// to a file.
#[test]
fn binaries_emit_parseable_json_in_tiny_mode() {
    let bins = [
        "table1",
        "fig1",
        "fig2",
        "fig3",
        "fig_dyn_group",
        "fig_network",
        "fig_scale",
    ];
    for bin in bins {
        let stdout = run_binary(bin, &["--tiny", "--format", "json"]);
        let result = parse_result(&stdout)
            .unwrap_or_else(|e| panic!("{bin} --tiny --format json stdout: {e}\n{stdout}"));
        assert_eq!(result.name, bin);
        assert!(!result.cells.is_empty());
        assert!(stdout.contains(RESULT_SCHEMA));
        // Round-trip: re-render the parsed document and parse it again.
        let again = parse_result(&render(&result, OutputFormat::Json)).unwrap();
        assert_eq!(again, result, "{bin} JSON round-trip lost data");
    }

    // --out keeps the human report on stdout and writes JSON to the file.
    let dir = std::env::temp_dir().join(format!("tm-bench-results-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("fig3.json");
    let stdout = run_binary("fig3", &["--tiny", "--out", path.to_str().unwrap()]);
    assert!(
        stdout.contains("Figure 3"),
        "human report must stay on stdout"
    );
    let file = std::fs::read_to_string(&path).unwrap();
    let result = parse_result(&file).unwrap();
    assert_eq!(result.name, "fig3");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Run `tm-bench <bin>` via `cargo run` (always building from current
/// sources; see tests/harness_smoke.rs for the full rationale) and return
/// its stdout.
fn run_binary(bin: &str, args: &[&str]) -> String {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let mut cmd = std::process::Command::new(cargo);
    cmd.args(["run", "-q", "-p", "tm-bench", "--bin", "tm-bench"]);
    if running_release_profile() {
        cmd.arg("--release");
    }
    let output = cmd
        .args(["--", bin])
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("failed to launch tm-bench {bin}: {e}"));
    assert!(
        output.status.success(),
        "{bin} {args:?} exited with {:?}\nstderr:\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("binary output must be UTF-8")
}

fn running_release_profile() -> bool {
    std::env::current_exe()
        .ok()
        .and_then(|exe| {
            exe.parent()
                .and_then(|p| p.parent())
                .and_then(|p| p.file_name())
                .map(|n| n == "release")
        })
        .unwrap_or(false)
}
