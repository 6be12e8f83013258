//! Smoke tests of the benchmark harness (`tm-bench`): the sweep, table and
//! signature machinery must run end-to-end and produce internally consistent
//! rows.  Uses reduced processor counts so the whole file stays fast in
//! debug builds; the full-scale figures are produced by the release binaries.

use tdsm_core::UnitPolicy;
use tm_apps::{AppId, Workload};
use tm_bench::{run_configuration, run_policy_sweep, signature_of, table1_row, to_csv};

#[test]
fn policy_sweep_produces_all_four_configurations() {
    // TSP at its standard size is the cheapest full workload to drive here.
    let w = &Workload::for_app(AppId::Jacobi)[0];
    let rows = run_policy_sweep(w, 2);
    assert_eq!(rows.len(), 4);
    let labels: Vec<&str> = rows.iter().map(|r| r.policy.as_str()).collect();
    assert_eq!(labels, vec!["4K", "8K", "16K", "Dyn"]);
    // All configurations computed the same checksum.
    for r in &rows {
        assert!((r.checksum - rows[0].checksum).abs() <= 1e-9 * rows[0].checksum.abs());
        assert_eq!(r.total_msgs(), r.useful_msgs + r.useless_msgs);
        assert_eq!(
            r.total_data(),
            r.useful_data + r.piggybacked_useless + r.useless_in_useless
        );
    }
    // CSV export covers every row plus the header.
    let csv = to_csv(&rows);
    assert_eq!(csv.lines().count(), 5);
}

#[test]
fn table1_row_reports_speedup_and_verification() {
    let w = &Workload::for_app(AppId::Fft3d)[0];
    let row = table1_row(w, 4);
    assert!(
        row.verified,
        "parallel checksum must match the 1-processor run"
    );
    assert!(row.seq_time_ns > 0);
    assert!(row.par_time_ns > 0);
    assert!(
        row.speedup() > 1.0,
        "4 processors should beat 1 processor for 3D-FFT"
    );
}

#[test]
fn signatures_shift_right_for_mgs_but_not_for_ilink() {
    // The central qualitative claim of §3: MGS's false-sharing signature
    // shifts towards more concurrent writers when the unit grows, Ilink's
    // does not (materially).
    let mgs = &Workload::for_app(AppId::Mgs)[1]; // the 1K-element-vector set
    let mgs_4k = signature_of(mgs, 4, UnitPolicy::Static { pages: 1 });
    let mgs_16k = signature_of(mgs, 4, UnitPolicy::Static { pages: 4 });
    assert!(
        mgs_16k.mean_writers() > mgs_4k.mean_writers() + 0.5,
        "MGS signature must shift right: {} -> {}",
        mgs_4k.mean_writers(),
        mgs_16k.mean_writers()
    );

    let ilink = &Workload::for_app(AppId::Ilink)[0];
    let il_4k = signature_of(ilink, 4, UnitPolicy::Static { pages: 1 });
    let il_16k = signature_of(ilink, 4, UnitPolicy::Static { pages: 4 });
    assert!(
        (il_16k.mean_writers() - il_4k.mean_writers()).abs() < 1.0,
        "Ilink signature must stay roughly invariant: {} -> {}",
        il_4k.mean_writers(),
        il_16k.mean_writers()
    );
}

/// The five figure/table binaries must run their `--tiny` smoke configuration
/// end-to-end without panicking and produce the expected report header.
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
            .unwrap_or_else(|e| panic!("failed to launch cargo run --bin {bin}: {e}"));
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
        .expect("failed to launch cargo run --bin fig1");
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
        .expect("failed to launch cargo run --bin fig1");
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

/// A command running one tm-bench binary; the caller appends the binary's
/// own arguments.  `cargo run` rather than probing target/ for a prebuilt
/// artifact: it always (re)builds the bin from the current sources (a stale
/// binary must not be smoke-tested in its place) and it resolves the output
/// directory itself, so custom `--target` layouts cannot desynchronize the
/// path. Cargo's own locking makes the nested invocation safe, and matching
/// the outer profile keeps the build a fast no-op when artifacts are fresh.
fn bench_bin(bin: &str) -> std::process::Command {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let mut cmd = std::process::Command::new(cargo);
    cmd.args(["run", "-q", "-p", "tm-bench", "--bin", bin]);
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
    let base = run_configuration(mgs, 4, "4K", UnitPolicy::Static { pages: 1 });
    let large = run_configuration(mgs, 4, "16K", UnitPolicy::Static { pages: 4 });
    let dynamic = run_configuration(mgs, 4, "Dyn", UnitPolicy::Dynamic { max_group_pages: 4 });
    assert!(large.useless_msgs > base.useless_msgs, "16K must hurt MGS");
    assert!(
        dynamic.useless_msgs <= base.useless_msgs + base.total_msgs() / 10,
        "dynamic aggregation must not introduce MGS's useless messages: {} vs {}",
        dynamic.useless_msgs,
        base.useless_msgs
    );
}
