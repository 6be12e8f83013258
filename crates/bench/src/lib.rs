//! # tm-bench — harness that regenerates the paper's tables and figures
//!
//! One binary, `tm-bench <experiment> [nprocs] [flags]`, reproduces the
//! artifacts of the PPoPP'97 evaluation:
//!
//! | Experiment | Paper artifact |
//! |---|---|
//! | `table1` | Table 1 — sequential times and 8-processor speedups |
//! | `fig1` | Figure 1 — time/messages/data for Barnes, Ilink, TSP, Water |
//! | `fig2` | Figure 2 — time/messages/data for Jacobi, 3D-FFT, MGS, Shallow |
//! | `fig3` | Figure 3 — false-sharing signatures at 4 K and 16 K |
//! | `fig_dyn_group` | ablation — dynamic-aggregation maximum group size |
//! | `fig_network` | contention grid — topologies × wire aggregation |
//! | `fig_scale` | cluster-size sweep — 64/256/1024 processors |
//!
//! Every experiment runs through one shared **experiment runner**:
//! [`Experiment`] declares the cell grid (application ×
//! consistency-unit policy × processor count), [`runner`] executes it on a
//! std-thread worker pool, and [`emit`] renders the result as the paper-style
//! human report, a versioned JSON document or CSV (`--format`, `--out`).
//! This library crate holds that runner plus the shared argument parsing and
//! formatting code, so the binary stays thin and the integration tests can
//! exercise the same paths.  (Host speed and memory are measured by the repo
//! benchmark, `benchmark/`, a package of its own.)

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod emit;
pub mod experiment;
pub mod runner;

pub use emit::{parse_result, render, OutputFormat, RESULT_SCHEMA};
pub use experiment::{Cell, Experiment};
pub use runner::{run_cell, run_experiment, CellResult, ExperimentResult, RunnerOptions};

use tdsm_core::{
    AggregationPolicy, DiffTiming, NetworkConfig, ProtocolMode, SchedConfig, SignatureHistogram,
    Topology, MAX_PROCS,
};
use tm_apps::{AppId, Workload};
use tm_sched::ScheduleMode;

/// The workload tier a sweep runs at (`--scale`, with `--tiny` kept as an
/// alias for `--scale tiny`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// One tiny data set per application — the CI smoke tier.
    Tiny,
    /// The paper's data sets (default).
    #[default]
    Paper,
    /// The stress tier: data sets several times the paper sizes, feasible
    /// in bounded memory thanks to interval garbage collection.
    Large,
}

impl Scale {
    /// Stable lowercase name.
    pub fn as_str(&self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Paper => "paper",
            Scale::Large => "large",
        }
    }
}

impl std::str::FromStr for Scale {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "tiny" => Ok(Scale::Tiny),
            "paper" => Ok(Scale::Paper),
            "large" => Ok(Scale::Large),
            other => Err(format!(
                "unknown scale '{other}' (expected tiny, paper or large)"
            )),
        }
    }
}

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

/// Render one workload's sweep the way the paper's Figures 1 and 2 present
/// it: execution time, messages and data normalized to the 4 KB
/// configuration, with the useful/useless/piggybacked breakdown.
pub fn figure_panel_string(rows: &[CellResult]) -> String {
    use std::fmt::Write as _;
    let base_cell = rows
        .iter()
        .find(|r| r.cell.policy_label == "4K")
        .expect("sweep must contain the 4K baseline");
    let base = &base_cell.breakdown;
    let mut out = String::new();
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
    out
}

/// Render a signature histogram in the style of Figure 3: one line per
/// concurrent-writer count with its frequency and useful/useless split.
pub fn signature_string(app: &str, size: &str, policy: &str, sig: &SignatureHistogram) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "\n--- {app} {size} @ {policy} (mean writers {:.2}) ---",
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
    out
}

/// The four applications whose signatures Figure 3 shows.
pub fn figure3_apps() -> Vec<AppId> {
    vec![AppId::Barnes, AppId::Ilink, AppId::Water, AppId::Mgs]
}

/// Parse a `--seed` value: decimal, or hexadecimal with a `0x` prefix.
fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse::<u64>().ok(),
    }
}

/// Command-line options shared by every experiment.
///
/// Usage: `tm-bench <experiment> [nprocs] [--scale tiny|paper|large] [--tiny] [--threads N] [--seed N]
/// [--schedule fifo|seeded] [--diff-timing eager|lazy] [--app NAME]
/// [--format human|json|csv] [--out FILE]`.
///
/// * `--scale` picks the workload tier: `tiny` (one smoke data set per
///   application and a 2-processor cluster unless a count was given
///   explicitly — the mode `tests/harness_smoke.rs` drives end-to-end),
///   `paper` (the default data sets) or `large` (the stress tier the
///   interval GC makes memory-feasible).  `--tiny` is an alias for
///   `--scale tiny`.
/// * `--threads N` sets the worker-pool width (default: one per CPU).
/// * `--seed N` sets the base scheduling seed (decimal or `0x`-hex) mixed
///   into every cell's identity seed; same seed, same results, bit for bit.
/// * `--schedule` picks the deterministic scheduler's tie-break mode:
///   `seeded` (default; the seed selects the interleaving) or `fifo`
///   (rank-ordered ties, seed-independent).
/// * `--diff-timing` picks when diffs are created and charged: `lazy`
///   (TreadMarks' on-demand creation, the default) or `eager` (at interval
///   close).  Message counts and volumes are identical either way.
/// * `--protocol` picks the write protocol every cell runs under:
///   `multi-writer` (TreadMarks' twin/diff organization, the default),
///   `home-based` (single-writer with round-robin page homes) or
///   `home-based-first-touch`.  Protocols may differ in messages — that is
///   the point — but never in computed results or checksums.
/// * `--topology` picks the modeled interconnect every cell runs on:
///   `ideal` (infinite bandwidth, the default — byte-identical to every
///   pre-topology document), `bus` (one shared 10 Mbps segment with hardware
///   broadcast) or `switched` (a crossbar with per-processor 100 Mbps
///   ports).  Contended topologies add deterministic occupancy and queueing
///   delays to the modeled time; computed results and message counts never
///   change.
/// * `--aggregation` picks how the home-based protocol's diff flushes are
///   packed onto the wire: `per-message` (one update per home, the default)
///   or `batched` (one assembled batch per interval close).  Only observable
///   under a contended topology.
/// * `--racecheck` runs the happens-before data-race detector alongside
///   every cell.  Pure observation: checksums, message counts and modeled
///   times are unchanged, and detected races appear as an additive `races`
///   array per cell in the JSON document (plus a `races` count column in
///   CSV).  Off by default — default documents stay byte-identical.
/// * `--app NAME` restricts the run to one application (paper display name,
///   e.g. `Jacobi`) — the lever the CI memory gate uses to time a single
///   `--scale large` cell.
/// * `--format` selects what is written to stdout (default: the human
///   report).
/// * `--out FILE` additionally writes the machine-readable document to
///   `FILE` (in the `--format` format, or JSON when the format is `human`),
///   keeping the human report on stdout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchArgs {
    /// Number of simulated processors.
    pub nprocs: usize,
    /// Workload tier to run (`--scale`).
    pub scale: Scale,
    /// Worker threads for the experiment runner (0 = one per CPU).
    pub threads: usize,
    /// Base scheduling seed mixed into every cell's identity seed.
    pub seed: u64,
    /// Deterministic-scheduler tie-break mode.
    pub schedule: ScheduleMode,
    /// Diff-timing knob applied to every cell.
    pub diff_timing: DiffTiming,
    /// Write protocol applied to every cell (`--protocol`).
    pub protocol: ProtocolMode,
    /// Modeled interconnect applied to every cell (`--topology`).
    pub topology: Topology,
    /// Wire-aggregation policy applied to every cell (`--aggregation`).
    pub aggregation: AggregationPolicy,
    /// Run the happens-before race detector alongside every cell
    /// (`--racecheck`).
    pub racecheck: bool,
    /// Restrict the experiment to this application (paper display name).
    pub app: Option<AppId>,
    /// Format written to stdout.
    pub format: OutputFormat,
    /// Optional path for a machine-readable copy of the results.
    pub out: Option<String>,
}

impl BenchArgs {
    /// The defaults parsing starts from: `default_nprocs` processors,
    /// the paper data sets, auto-sized worker pool, human output, no
    /// out-file.
    pub fn defaults(default_nprocs: usize) -> Self {
        BenchArgs {
            nprocs: default_nprocs,
            scale: Scale::Paper,
            threads: 0,
            seed: 0,
            schedule: ScheduleMode::Seeded,
            diff_timing: DiffTiming::default(),
            protocol: ProtocolMode::default(),
            topology: Topology::default(),
            aggregation: AggregationPolicy::default(),
            racecheck: false,
            app: None,
            format: OutputFormat::Human,
            out: None,
        }
    }

    /// The scheduler configuration these options request: the tie-break mode
    /// plus the *base* seed (each cell mixes its identity hash into it).
    pub fn sched(&self) -> SchedConfig {
        SchedConfig {
            mode: self.schedule,
            seed: self.seed,
        }
    }

    /// The network configuration these options request
    /// (`--topology` × `--aggregation`).
    pub fn network(&self) -> NetworkConfig {
        NetworkConfig::new(self.topology, self.aggregation)
    }

    /// Parse the `tm-bench` command line — `<experiment> [nprocs] [flags]`,
    /// 8 processors by default (2 in `--tiny` mode) — into the named
    /// experiment under its options.  Exits with a usage message on an
    /// unknown or missing experiment name, an invalid processor count or an
    /// unrecognized flag.
    pub fn parse_command() -> (Experiment, Self) {
        match Self::command_from_iter(std::env::args().skip(1)) {
            Ok(command) => command,
            Err(msg) => {
                eprintln!(
                    "error: {msg}\nusage: tm-bench <{}> [nprocs (1-{MAX_PROCS})] \
                     [--scale tiny|paper|large] [--tiny] \
                     [--threads N] [--seed N] [--schedule fifo|seeded] \
                     [--diff-timing eager|lazy] \
                     [--protocol multi-writer|home-based|home-based-first-touch] \
                     [--topology ideal|bus|switched] \
                     [--aggregation per-message|batched] [--racecheck] [--app NAME] \
                     [--format human|json|csv] [--out FILE]",
                    Experiment::all_names().join("|")
                );
                std::process::exit(2);
            }
        }
    }

    fn command_from_iter(
        mut args: impl Iterator<Item = String>,
    ) -> Result<(Experiment, Self), String> {
        let name = args.next().ok_or("missing experiment name")?;
        let opts = Self::from_iter(args)?;
        let exp = Experiment::named(&name, &opts)
            .ok_or_else(|| format!("unknown experiment '{name}'"))?;
        Ok((exp, opts))
    }

    fn from_iter(args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut out = Self::defaults(8);
        let mut nprocs = None;
        let mut args = args;
        while let Some(arg) = args.next() {
            let mut flag_value = |flag: &str| {
                args.next()
                    .ok_or_else(|| format!("{flag} requires a value"))
            };
            match arg.as_str() {
                "--tiny" => out.scale = Scale::Tiny,
                "--scale" => {
                    out.scale = flag_value("--scale")?.parse()?;
                }
                "--diff-timing" => {
                    out.diff_timing = flag_value("--diff-timing")?.parse()?;
                }
                "--protocol" => {
                    out.protocol = flag_value("--protocol")?.parse()?;
                }
                "--topology" => {
                    out.topology = flag_value("--topology")?.parse()?;
                }
                "--aggregation" => {
                    out.aggregation = flag_value("--aggregation")?.parse()?;
                }
                "--racecheck" => out.racecheck = true,
                "--app" => {
                    let v = flag_value("--app")?;
                    out.app = Some(AppId::from_name(&v).ok_or_else(|| {
                        format!(
                            "unknown application '{v}' (expected one of {})",
                            AppId::all()
                                .iter()
                                .map(|a| a.name())
                                .collect::<Vec<_>>()
                                .join(", ")
                        )
                    })?);
                }
                "--threads" => {
                    let v = flag_value("--threads")?;
                    out.threads = v
                        .parse::<usize>()
                        .ok()
                        .filter(|&n| (1..=256).contains(&n))
                        .ok_or_else(|| format!("invalid --threads '{v}' (expected 1-256)"))?;
                }
                "--seed" => {
                    let v = flag_value("--seed")?;
                    out.seed = parse_seed(&v)
                        .ok_or_else(|| format!("invalid --seed '{v}' (expected u64 or 0x-hex)"))?;
                }
                "--schedule" => {
                    out.schedule = flag_value("--schedule")?.parse()?;
                }
                "--format" => {
                    out.format = flag_value("--format")?.parse()?;
                }
                "--out" => {
                    out.out = Some(flag_value("--out")?);
                }
                other => match other.parse::<usize>() {
                    // The same bounds DsmConfig::validate enforces, reported
                    // as a usage error instead of a panic.
                    Ok(_) if nprocs.is_some() => {
                        return Err(format!("processor count given twice ('{other}')"))
                    }
                    Ok(n) if (1..=MAX_PROCS).contains(&n) => nprocs = Some(n),
                    Ok(n) => return Err(format!("processor count {n} outside 1-{MAX_PROCS}")),
                    Err(_) => return Err(format!("unrecognized argument '{other}'")),
                },
            }
        }
        let tiny = out.scale == Scale::Tiny;
        out.nprocs = nprocs.unwrap_or(if tiny { 2 } else { out.nprocs });
        Ok(out)
    }

    /// Run `exp` on the worker pool and emit the results as these options
    /// request: the `--format` rendering to stdout, plus a machine-readable
    /// copy to `--out` when given (the binary's single driver entry point).
    /// Returns the result for further inspection, or — naming the path —
    /// the error that kept the `--out` file from being written.
    pub fn run_and_emit(&self, exp: &Experiment) -> std::io::Result<ExperimentResult> {
        use std::io::Write as _;
        let cannot_write = |path: &str, e: std::io::Error| {
            std::io::Error::new(e.kind(), format!("cannot write '{path}': {e}"))
        };
        // Created before any cell runs: a path that cannot be written fails
        // here, not after the whole sweep has been simulated.
        let out_file = match &self.out {
            Some(path) => {
                let file = std::fs::File::create(path).map_err(|e| cannot_write(path, e))?;
                Some((path, file))
            }
            None => None,
        };
        let result = run_experiment(
            exp,
            &RunnerOptions {
                threads: self.threads,
            },
        );
        if let Some((path, mut file)) = out_file {
            // `--out` always yields a machine-readable file: JSON unless a
            // machine format was requested explicitly.
            let file_format = match self.format {
                OutputFormat::Human => OutputFormat::Json,
                f => f,
            };
            file.write_all(render(&result, file_format).as_bytes())
                .map_err(|e| cannot_write(path, e))?;
            eprintln!("wrote {path}");
        }
        print!("{}", render(&result, self.format));
        Ok(result)
    }

    /// The workloads of `app` under these options: its data sets at the
    /// requested `--scale`, or nothing when `--app` excludes it.
    pub fn workloads_for(&self, app: AppId) -> Vec<Workload> {
        if self.app.is_some_and(|only| only != app) {
            return Vec::new();
        }
        match self.scale {
            Scale::Tiny => vec![Workload::tiny(app)],
            Scale::Paper => Workload::for_app(app),
            Scale::Large => vec![Workload::large(app)],
        }
    }

    /// The full suite under these options (honouring `--scale` and `--app`).
    pub fn suite(&self) -> Vec<Workload> {
        let all = match self.scale {
            Scale::Tiny => Workload::tiny_suite(),
            Scale::Paper => Workload::paper_suite(),
            Scale::Large => Workload::large_suite(),
        };
        match self.app {
            Some(only) => all.into_iter().filter(|w| w.app == only).collect(),
            None => all,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalisation_handles_zero_baselines() {
        assert_eq!(norm(0, 0), 1.0);
        assert_eq!(norm(5, 10), 0.5);
        assert!(norm(5, 0).is_infinite());
    }

    #[test]
    fn bench_args_parse_tiny_and_nprocs() {
        let parse =
            |args: &[&str]| BenchArgs::from_iter(args.iter().map(|s| s.to_string())).unwrap();
        assert_eq!(parse(&[]), BenchArgs::defaults(8));
        assert_eq!(
            parse(&["4"]),
            BenchArgs {
                nprocs: 4,
                ..BenchArgs::defaults(8)
            }
        );
        assert_eq!(
            parse(&["--tiny"]),
            BenchArgs {
                nprocs: 2,
                scale: Scale::Tiny,
                ..BenchArgs::defaults(8)
            }
        );
        for order in [["--tiny", "3"], ["3", "--tiny"]] {
            assert_eq!(
                parse(&order),
                BenchArgs {
                    nprocs: 3,
                    scale: Scale::Tiny,
                    ..BenchArgs::defaults(8)
                }
            );
        }
        let err =
            |args: &[&str]| BenchArgs::from_iter(args.iter().map(|s| s.to_string())).unwrap_err();
        // Large clusters are first-class: 256 parses, only counts beyond
        // 1024 are usage errors.
        assert_eq!(parse(&["256"]).nprocs, 256);
        assert!(err(&["0"]).contains("outside 1-1024"));
        assert!(err(&["2000"]).contains("outside 1-1024"));
        assert!(err(&["--bogus"]).contains("unrecognized"));
        assert!(err(&["4", "8"]).contains("twice"));
    }

    #[test]
    fn bench_args_parse_engine_flags() {
        let parse =
            |args: &[&str]| BenchArgs::from_iter(args.iter().map(|s| s.to_string())).unwrap();
        assert_eq!(
            parse(&["--threads", "4", "--format", "json", "--out", "r.json"]),
            BenchArgs {
                threads: 4,
                format: OutputFormat::Json,
                out: Some("r.json".to_string()),
                ..BenchArgs::defaults(8)
            }
        );
        assert_eq!(parse(&["--format", "csv"]).format, OutputFormat::Csv);

        let err =
            |args: &[&str]| BenchArgs::from_iter(args.iter().map(|s| s.to_string())).unwrap_err();
        // --racecheck is a boolean switch, off by default.
        assert!(!parse(&[]).racecheck);
        assert!(parse(&["--racecheck"]).racecheck);

        assert!(err(&["--threads"]).contains("requires a value"));
        assert!(err(&["--threads", "0"]).contains("expected 1-256"));
        assert!(err(&["--format", "xml"]).contains("unknown format"));
        assert!(err(&["--out"]).contains("requires a value"));
        // There is one execution substrate: the flag that used to pick one
        // is an unknown argument like any other.
        assert_eq!(
            err(&["--engine", "event"]),
            "unrecognized argument '--engine'"
        );
    }

    #[test]
    fn bench_args_parse_network_flags() {
        use tdsm_core::{AggregationPolicy, NetworkConfig, Topology};
        let parse =
            |args: &[&str]| BenchArgs::from_iter(args.iter().map(|s| s.to_string())).unwrap();
        // Defaults: the ideal network, per-message wire packing — exactly
        // the compatibility configuration.
        assert_eq!(parse(&[]).topology, Topology::Ideal);
        assert_eq!(parse(&[]).aggregation, AggregationPolicy::PerMessage);
        assert!(parse(&[]).network().is_default());

        assert_eq!(parse(&["--topology", "bus"]).topology, Topology::SharedBus);
        assert_eq!(
            parse(&["--topology", "switched"]).topology,
            Topology::Switched
        );
        // Aliases parse like everywhere else on the seam.
        assert_eq!(
            parse(&["--topology", "ethernet"]).topology,
            Topology::SharedBus
        );
        assert_eq!(
            parse(&["--aggregation", "batched"]).aggregation,
            AggregationPolicy::Batched
        );
        assert_eq!(
            parse(&["--topology", "bus", "--aggregation", "batched"]).network(),
            NetworkConfig::new(Topology::SharedBus, AggregationPolicy::Batched)
        );

        let err =
            |args: &[&str]| BenchArgs::from_iter(args.iter().map(|s| s.to_string())).unwrap_err();
        assert!(err(&["--topology"]).contains("requires a value"));
        assert!(err(&["--topology", "torus"]).contains("unknown topology"));
        assert!(err(&["--aggregation", "zip"]).contains("unknown aggregation"));
    }

    #[test]
    fn bench_args_parse_scheduling_flags() {
        let parse =
            |args: &[&str]| BenchArgs::from_iter(args.iter().map(|s| s.to_string())).unwrap();
        // Defaults: seeded schedule, base seed 0.
        assert_eq!(parse(&[]).schedule, ScheduleMode::Seeded);
        assert_eq!(parse(&[]).seed, 0);
        assert_eq!(
            parse(&["--seed", "42", "--schedule", "fifo"]),
            BenchArgs {
                seed: 42,
                schedule: ScheduleMode::Fifo,
                ..BenchArgs::defaults(8)
            }
        );
        // Hex seeds join with the hex values recorded in JSON/CSV rows.
        assert_eq!(parse(&["--seed", "0xdeadbeef"]).seed, 0xdead_beef);
        assert_eq!(
            parse(&["--schedule", "seeded"]).sched(),
            SchedConfig::seeded(0)
        );

        let err =
            |args: &[&str]| BenchArgs::from_iter(args.iter().map(|s| s.to_string())).unwrap_err();
        assert!(err(&["--seed"]).contains("requires a value"));
        assert!(err(&["--seed", "banana"]).contains("invalid --seed"));
        assert!(err(&["--schedule", "random"]).contains("unknown schedule"));
    }

    /// Every hop at once: command line → `BenchArgs` → `Experiment` →
    /// `Cell` → the `DsmConfig` the cluster is built from.
    #[test]
    fn each_flag_reaches_the_cluster_configuration() {
        use tdsm_core::{DsmConfig, HomeAssign};
        let config = |flags: &[&str]| {
            let line = ["fig1"].iter().chain(flags).map(|s| s.to_string());
            let (exp, _) = BenchArgs::command_from_iter(line).unwrap();
            exp.cells[0].config()
        };
        let base = config(&[]);
        type Check = fn(&DsmConfig, &DsmConfig) -> bool;
        let cases: [(&[&str], Check); 6] = [
            (&["--protocol", "home-based-first-touch"], |c, _| {
                c.protocol
                    == ProtocolMode::HomeBased {
                        assign: HomeAssign::FirstTouch,
                    }
            }),
            (
                &["--topology", "bus", "--aggregation", "batched"],
                |c, _| {
                    c.network()
                        == NetworkConfig::new(Topology::SharedBus, AggregationPolicy::Batched)
                },
            ),
            (&["--diff-timing", "eager"], |c, _| {
                c.diff_timing == DiffTiming::Eager
            }),
            (&["--schedule", "fifo"], |c, base| {
                c.sched.mode == ScheduleMode::Fifo && c.sched.seed == base.sched.seed
            }),
            // The base seed is mixed into the cell's identity seed.
            (&["--seed", "0x2a"], |c, base| {
                c.sched.seed == base.sched.seed ^ 0x2a
            }),
            (&["--racecheck"], |c, _| c.racecheck),
        ];
        for (flags, reached) in cases {
            let cfg = config(flags);
            assert!(!reached(&base, &base), "{flags:?} is not the default");
            assert!(reached(&cfg, &base), "{flags:?} did not reach {cfg:?}");
            cfg.validate();
        }
        assert_eq!((base.nprocs, config(&["4"]).nprocs), (8, 4));
        // The command line takes exactly the cluster sizes `validate` does.
        let (largest, too_large) = (MAX_PROCS.to_string(), (MAX_PROCS + 1).to_string());
        let cfg = config(&[&largest]);
        assert_eq!(cfg.nprocs, MAX_PROCS);
        cfg.validate();
        let line = ["fig1".to_string(), too_large].into_iter();
        assert_eq!(
            BenchArgs::command_from_iter(line).unwrap_err(),
            "processor count 1025 outside 1-1024"
        );
    }

    #[test]
    fn tiny_workload_selection() {
        let args = BenchArgs {
            nprocs: 2,
            scale: Scale::Tiny,
            ..BenchArgs::defaults(2)
        };
        assert_eq!(args.suite().len(), 8);
        assert_eq!(args.workloads_for(AppId::Jacobi).len(), 1);
        let full = BenchArgs::defaults(8);
        assert_eq!(full.suite().len(), 16);
    }

    #[test]
    fn scale_and_filter_flags() {
        let parse =
            |args: &[&str]| BenchArgs::from_iter(args.iter().map(|s| s.to_string())).unwrap();
        // --tiny is an alias for --scale tiny (including the 2-proc default).
        assert_eq!(parse(&["--tiny"]), parse(&["--scale", "tiny"]));
        let large = parse(&["--scale", "large"]);
        assert_eq!(large.scale, Scale::Large);
        assert_eq!(large.nprocs, 8, "large keeps the binary's default nprocs");
        assert_eq!(large.suite().len(), 8);
        assert!(large
            .workloads_for(AppId::Jacobi)
            .iter()
            .all(|w| w.size_label.ends_with("(large)")));

        // --diff-timing flows into the options.
        use tdsm_core::DiffTiming;
        assert_eq!(parse(&[]).diff_timing, DiffTiming::Lazy);
        assert_eq!(
            parse(&["--diff-timing", "eager"]).diff_timing,
            DiffTiming::Eager
        );

        // --protocol flows into the options.
        use tdsm_core::ProtocolMode;
        assert_eq!(parse(&[]).protocol, ProtocolMode::MultiWriter);
        assert_eq!(
            parse(&["--protocol", "home-based"]).protocol,
            ProtocolMode::home_based()
        );
        assert_eq!(
            parse(&["--protocol", "home-based-first-touch"]).protocol,
            ProtocolMode::HomeBased {
                assign: tdsm_core::HomeAssign::FirstTouch
            }
        );

        // --app narrows every selector to one application.
        let only = parse(&["--app", "Jacobi"]);
        assert_eq!(only.app, Some(AppId::Jacobi));
        assert!(only.suite().iter().all(|w| w.app == AppId::Jacobi));
        assert!(only.workloads_for(AppId::Water).is_empty());

        let err =
            |args: &[&str]| BenchArgs::from_iter(args.iter().map(|s| s.to_string())).unwrap_err();
        assert!(err(&["--scale", "huge"]).contains("unknown scale"));
        assert!(err(&["--diff-timing", "sometimes"]).contains("unknown diff timing"));
        assert!(err(&["--protocol", "token-ring"]).contains("unknown protocol"));
        assert!(err(&["--app", "Pong"]).contains("unknown application"));
    }

    #[test]
    fn the_command_names_its_experiment_first() {
        let command =
            |args: &[&str]| BenchArgs::command_from_iter(args.iter().map(|s| s.to_string()));
        let (exp, opts) = command(&["fig2", "4", "--tiny"]).unwrap();
        assert_eq!(exp, Experiment::fig2(&opts));
        assert_eq!((opts.nprocs, opts.scale), (4, Scale::Tiny));
        // Every experiment defaults to the paper's 8 processors.
        for name in Experiment::all_names() {
            let (exp, opts) = command(&[name]).unwrap();
            assert_eq!((exp.name.as_str(), opts.nprocs), (name, 8));
        }
        assert_eq!(command(&[]).unwrap_err(), "missing experiment name");
        assert_eq!(command(&["fig9"]).unwrap_err(), "unknown experiment 'fig9'");
        // A flag where the name belongs is not silently taken for one.
        assert_eq!(
            command(&["--tiny"]).unwrap_err(),
            "unknown experiment '--tiny'"
        );
        assert!(command(&["fig1", "--engine", "event"])
            .unwrap_err()
            .contains("unrecognized"));
    }
}
