//! Running one workload: set-up, timed repetitions, correctness checks and
//! the metrics of one process.
//!
//! Load shape: closed loop, one caller.  Cells run back to back on one host
//! thread (`RunnerOptions { threads: 1 }`, default event engine) and the
//! process runs one workload, so `peak_rss_mib` belongs to it alone.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use tdsm_core::ClusterStats;
use tm_apps::{checksums_match, AppConfig, AppId};
use tm_bench::{
    parse_result, render, run_experiment, Cell, CellResult, Experiment, ExperimentResult,
    OutputFormat, RunnerOptions,
};

use crate::alloc_count;
use crate::probes::{self, ProbeResult};
use crate::stats::{floor_sum, median, minimum, quartiles, Digest, Quartiles};
use crate::trace::Tracer;
use crate::workloads::{self, WorkloadSpec};

/// Default length of the timed repetitions: `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: f64 = 10.0;
/// Fewest timed repetitions of an end-to-end run, however long one takes:
/// `wall_s` needs one calm execution of every cell, and on a busy host the
/// repetitions get slower, so a time limit alone would give it fewest
/// chances exactly when it needs most.
const MIN_REPS: usize = 6;
/// How many times a process sets up (the first time included); later rounds
/// keep the last set-up and spend their time on repetitions.
const SETUP_SAMPLES: usize = 4;
/// Fewest rounds (one untraced and one traced repetition) of a traced run.
const MIN_TRACED_ROUNDS: usize = 3;
/// Relative tolerance of the parallel-vs-sequential checksum comparison
/// (the lock-based applications reduce in schedule order).
const CHECKSUM_REL_TOL: f64 = 1e-6;

/// What to run and how.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Workload name without the `.quick` suffix.
    pub workload: String,
    /// Base scheduling seed mixed into every cell seed; also seeds the
    /// probes' synthetic page patterns.
    pub seed: u64,
    /// How long the timed repetitions run, in seconds.
    pub seconds: f64,
    /// Per-layer run: probes, a traced repetition per untraced one, counts
    /// and computed shares instead of the end-to-end metrics.
    pub trace: bool,
    /// Smoke mode: tiny data sets, one timed repetition.
    pub quick: bool,
    /// Self-test hook: perturb the first cell's sequential reference, which
    /// must surface as one failed cell and a non-zero exit.
    pub bad_reference: bool,
}

/// The outcome of one workload process.
#[derive(Debug)]
pub struct Report {
    /// Workload name as printed (`.quick`-suffixed in quick mode).
    pub workload: String,
    /// Cells the workload runs per repetition.
    pub cells_attempted: u64,
    /// Cells that panicked, failed verification against the sequential
    /// reference, failed the emit round-trip, or differed between two
    /// repetitions.
    pub failed_cells: u64,
    /// Order-sensitive digest of every cell's modeled results.
    pub digest: String,
    /// Whether `digest` equals the pin in `baseline.json`; `None` when no
    /// pin applies (a seed other than 0, or quick mode).
    pub digest_match: Option<bool>,
    /// Wall time of the untraced timed repetitions.
    pub wall: Quartiles,
    /// The metrics, in declaration order: every end-to-end metric without
    /// tracing, every per-layer metric with it.
    pub metrics: Vec<(&'static str, f64)>,
    /// Op counts of the probes (traced runs only).
    pub probes: Vec<ProbeResult>,
    /// The recorded spans (traced runs only).
    pub tracer: Tracer,
}

/// Sequential reference checksums, aligned with `WorkloadSpec::cells()`.
struct References {
    by_cell: Vec<f64>,
    /// Σ over cells of the sequential run time of the cell's data set: the
    /// computation without the DSM.
    seq_s: f64,
}

fn references(spec: &WorkloadSpec, tracer: &mut Tracer) -> References {
    let mut computed: Vec<(AppId, &str, f64, f64)> = Vec::new();
    let mut out = References {
        by_cell: Vec::new(),
        seq_s: 0.0,
    };
    for cell in spec.cells() {
        let known = computed
            .iter()
            .find(|(app, size, _, _)| *app == cell.app && *size == cell.size_label);
        let (checksum, secs) = match known {
            Some(&(_, _, checksum, secs)) => (checksum, secs),
            None => {
                let w = cell
                    .workload()
                    .expect("benchmark cells resolve to registry workloads");
                let key = format!("{}/{}", cell.app.name(), cell.size_label);
                let started = Instant::now();
                let checksum = tracer.span("apps.run_sequential", &key, |_| w.run_sequential());
                let secs = started.elapsed().as_secs_f64();
                computed.push((cell.app, &cell.size_label, checksum, secs));
                (checksum, secs)
            }
        };
        out.by_cell.push(checksum);
        out.seq_s += secs;
    }
    out
}

/// Exact counts summed over a repetition's cells, read from the
/// `ClusterStats` each run returns.
#[derive(Debug, Clone, Default)]
struct Counts {
    intervals_closed: u64,
    intervals_retired: u64,
    faults: u64,
    prefetched_faults: u64,
    lock_acquires: u64,
    /// Barrier crossings (one per processor per episode) of cells with at
    /// most / more than [`BARRIER_PROBE_SPLIT`] processors.
    barriers_small: u64,
    barriers_large: u64,
    twins_created: u64,
    diffs_created: u64,
    diff_bytes_created: u64,
    protection_ops: u64,
    exchanges: u64,
    messages: u64,
    useless_messages: u64,
    payload: u64,
    useless_payload: u64,
    queue_ns: u64,
    max_link_util: f64,
    /// Host time of `ClusterStats::breakdown()` re-run on the cells' stats.
    breakdown_ns: u64,
}

/// Cells up to this many processors are costed with the 8-processor
/// barrier probe, larger ones with the 1024-processor probe.
const BARRIER_PROBE_SPLIT: usize = 64;

impl Counts {
    fn add(&mut self, nprocs: usize, stats: &ClusterStats, breakdown: &tdsm_core::CommBreakdown) {
        let mut barriers = 0;
        for p in &stats.per_proc {
            self.intervals_closed += p.intervals_closed;
            self.intervals_retired += p.intervals_retired;
            self.prefetched_faults += p.prefetched_faults;
            self.lock_acquires += p.lock_acquires;
            barriers += p.barriers;
            self.twins_created += p.twins_created;
            self.diffs_created += p.diffs_created;
            self.diff_bytes_created += p.diff_bytes_created;
            self.protection_ops += p.protection_ops;
            self.exchanges += p.exchanges.len() as u64;
        }
        if nprocs <= BARRIER_PROBE_SPLIT {
            self.barriers_small += barriers;
        } else {
            self.barriers_large += barriers;
        }
        self.faults += breakdown.faults;
        self.messages += breakdown.total_messages();
        self.useless_messages += breakdown.useless_messages;
        self.payload += breakdown.total_payload();
        self.useless_payload += breakdown.total_useless_data();
        self.queue_ns += stats.total_queue_ns();
        self.max_link_util = self.max_link_util.max(stats.max_link_utilization());
    }
}

/// `tm_bench::run_cell` taken apart into the public calls it makes, with a
/// span around each, so the traced repetition can keep the `ClusterStats`
/// that `run_cell` drops.  From outside, `apps.run_parallel` is opaque.
fn run_cell_traced(cell: &Cell, tracer: &mut Tracer, counts: &mut Counts) -> CellResult {
    let key = cell.key();
    tracer.span("bench.run_cell", &key, |tracer| {
        let w = cell
            .workload()
            .expect("benchmark cells resolve to registry workloads");
        let cfg = AppConfig::with_procs(cell.nprocs)
            .unit(cell.unit)
            .protocol(cell.protocol)
            .sched(cell.sched_config())
            .diff_timing(cell.diff_timing)
            .engine(cell.engine)
            .topology(cell.network.topology)
            .aggregation(cell.network.aggregation)
            .racecheck(cell.racecheck);
        let started = Instant::now();
        let run = tracer.span("apps.run_parallel", &key, |_| w.run_parallel(&cfg));
        let host_wall_ns = started.elapsed().as_nanos() as u64;
        let gc = tracer.span("net.gc_counters", &key, |_| run.stats.gc_counters());
        let started = Instant::now();
        let breakdown = tracer.span("net.breakdown", &key, |_| run.stats.breakdown());
        counts.breakdown_ns += started.elapsed().as_nanos() as u64;
        counts.add(cell.nprocs, &run.stats, &breakdown);
        CellResult {
            cell: cell.clone(),
            exec_time_ns: run.exec_time_ns,
            checksum: run.checksum,
            breakdown,
            gc,
            links: run.stats.links.clone(),
            races: cell.racecheck.then(|| run.stats.races.clone()),
            host_wall_ns,
        }
    })
}

fn run_experiment_traced(
    exp: &Experiment,
    tracer: &mut Tracer,
    counts: &mut Counts,
) -> ExperimentResult {
    let started = Instant::now();
    let cells = tracer.span("bench.run_experiment", "", |tracer| {
        exp.cells
            .iter()
            .map(|cell| run_cell_traced(cell, tracer, counts))
            .collect()
    });
    ExperimentResult {
        name: exp.name.clone(),
        title: exp.title.clone(),
        threads: 1,
        host_wall_ns: started.elapsed().as_nanos() as u64,
        cells,
    }
}

/// The figure binaries' `--out` path: emit JSON, parse it back, and require
/// the fixed point.
fn emit_roundtrip(result: &ExperimentResult, tracer: &mut Tracer) -> bool {
    let text = tracer.span("bench.render", "", |_| render(result, OutputFormat::Json));
    let parsed = tracer.span("bench.parse", "", |_| parse_result(&text));
    parsed.is_ok_and(|p| p == result.without_host_times())
}

/// One repetition: every experiment of the workload, back to back.
struct Rep {
    wall_s: f64,
    /// Host seconds of each timing unit, in run order: per experiment its
    /// cells (`CellResult::host_wall_ns`) and then the rest of the
    /// experiment (runner overhead and the emit round-trip); a panicked
    /// experiment is one unit.  The units add up to `wall_s`.
    units: Vec<f64>,
    alloc_bytes: u64,
    alloc_calls: u64,
    /// Per experiment: its result, or `None` if it panicked or did not
    /// survive the emit round-trip.
    results: Vec<Option<ExperimentResult>>,
}

/// Run one repetition; a traced one (tracer enabled) also fills `counts`.
fn run_rep(spec: &WorkloadSpec, tracer: &mut Tracer, counts: &mut Counts) -> Rep {
    let traced = tracer.enabled();
    let (bytes0, calls0) = alloc_count::totals();
    let started = Instant::now();
    let mut results = Vec::with_capacity(spec.experiments.len());
    let mut units = Vec::with_capacity(spec.cell_count() + spec.experiments.len());
    for exp in &spec.experiments {
        let exp_started = Instant::now();
        // A panic anywhere in the simulator fails the experiment's cells
        // instead of taking the benchmark down with it.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let result = if traced {
                run_experiment_traced(exp, tracer, counts)
            } else {
                run_experiment(exp, &RunnerOptions { threads: 1 })
            };
            let ok = !spec.emit_roundtrip || emit_roundtrip(&result, tracer);
            ok.then_some(result)
        }));
        if outcome.is_err() {
            tracer.close_abandoned();
        }
        let result = outcome.unwrap_or(None);
        let exp_s = exp_started.elapsed().as_secs_f64();
        let cells = result.iter().flat_map(|r| r.cells.iter());
        let before = units.len();
        units.extend(cells.map(|c| c.host_wall_ns as f64 / 1e9));
        let cells_s: f64 = units[before..].iter().sum();
        units.push((exp_s - cells_s).max(0.0));
        results.push(result);
    }
    let wall_s = started.elapsed().as_secs_f64();
    let (bytes1, calls1) = alloc_count::totals();
    Rep {
        wall_s,
        units,
        alloc_bytes: bytes1 - bytes0,
        alloc_calls: calls1 - calls0,
        results,
    }
}

/// Host seconds of one repetition with the least interference seen: every
/// timing unit at the fastest of its executions in `reps`, added up.  The
/// simulator is deterministic and runs on one thread, so another process on
/// the host can only add to a unit's time; the fastest execution is the
/// nearest to the program's own cost, and taking it unit by unit needs only
/// one calm execution of each cell, not one calm repetition.
fn floor_s(reps: &[Rep]) -> f64 {
    let units: Vec<&[f64]> = reps.iter().map(|r| r.units.as_slice()).collect();
    floor_sum(&units)
}

/// Everything a cell measured, host timing aside.
fn same_measurements(a: &CellResult, b: &CellResult) -> bool {
    a.exec_time_ns == b.exec_time_ns
        && a.checksum.to_bits() == b.checksum.to_bits()
        && a.breakdown == b.breakdown
        && a.gc == b.gc
        && a.links == b.links
}

/// Mark the cells of `rep` that failed: in an experiment that panicked or
/// did not round-trip, not verified against `refs`, or different from
/// `first`.
fn mark_failures(
    spec: &WorkloadSpec,
    rep: &Rep,
    first: &Rep,
    refs: &References,
    failed: &mut [bool],
) {
    let mut at = 0;
    for (i, exp) in spec.experiments.iter().enumerate() {
        let n = exp.cells.len();
        match (&rep.results[i], &first.results[i]) {
            (Some(result), Some(reference)) => {
                for (j, (c, r)) in result.cells.iter().zip(&reference.cells).enumerate() {
                    if !checksums_match(c.checksum, refs.by_cell[at + j], CHECKSUM_REL_TOL)
                        || !same_measurements(c, r)
                    {
                        failed[at + j] = true;
                    }
                }
            }
            _ => failed[at..at + n].fill(true),
        }
        at += n;
    }
}

/// Fold every cell's modeled results, in run order.
fn digest_of(rep: &Rep) -> Digest {
    let mut d = Digest::default();
    for result in rep.results.iter().flatten() {
        for c in &result.cells {
            let b = &c.breakdown;
            for w in [
                c.checksum.to_bits(),
                c.exec_time_ns,
                b.useful_messages,
                b.useless_messages,
                b.useful_data,
                b.useless_data_in_useless_msgs,
                b.piggybacked_useless_data,
                b.total_wire_bytes,
                b.home_updates,
                b.page_fetches,
                b.exec_time_ns,
                b.faults,
                c.gc.intervals_closed,
                c.gc.intervals_retired,
                c.gc.diffs_retired,
                c.gc.pending_flushes,
            ] {
                d.push(w);
            }
            for k in 0..=b.signature.max_writers() {
                let bucket = b.signature.bucket(k);
                d.push(bucket.faults);
                d.push(bucket.useful_exchanges);
                d.push(bucket.useless_exchanges);
            }
            for l in &c.links {
                for w in [
                    l.link as u64,
                    l.messages,
                    l.wire_bytes,
                    l.busy_ns,
                    l.queue_ns,
                    l.window_ns,
                ] {
                    d.push(w);
                }
            }
        }
    }
    d
}

/// Modeled totals over a repetition's cells: `(exec ns, messages, wire bytes)`.
fn modeled_totals(rep: &Rep) -> (u64, u64, u64) {
    let cells = rep.results.iter().flatten().flat_map(|r| r.cells.iter());
    cells.fold((0, 0, 0), |(t, m, w), c| {
        (
            t + c.exec_time_ns,
            m + c.breakdown.total_messages(),
            w + c.breakdown.total_wire_bytes,
        )
    })
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The digest pinned for `workload` at seed 0 in `baseline.json`.
pub fn pinned_digest(workload: &str) -> Option<String> {
    let doc = serde::json::parse(include_str!("../baseline.json")).ok()?;
    let entry = doc
        .get("workloads")?
        .as_arr()?
        .iter()
        .find(|w| w.get("name").and_then(|n| n.as_str()) == Some(workload))?;
    Some(entry.get("digest")?.as_str()?.to_string())
}

const MIB: f64 = (1u64 << 20) as f64;

/// `a / b`, or 0 when there is nothing to divide by.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Expand the grid and compute the sequential references: the part of
/// set-up that can be repeated.  Returns how long it took.
fn set_up(opts: &Options, tracer: &mut Tracer) -> Option<(WorkloadSpec, References, f64)> {
    let started = Instant::now();
    let spec = tracer.span("bench.expand", "", |_| {
        workloads::build(&opts.workload, opts.seed, opts.quick)
    })?;
    let refs = references(&spec, tracer);
    Some((spec, refs, started.elapsed().as_secs_f64()))
}

/// Run the workload `opts` names; `None` if there is no such workload.
pub fn run_workload(opts: &Options) -> Option<Report> {
    let mut tracer = Tracer::new(opts.trace);

    // Warm-up round: set-up, then the process's one cold repetition, which
    // is timed for `setup_s` and otherwise discarded.
    let (mut spec, mut refs, first_setup_s) = set_up(opts, &mut tracer)?;
    let mut setup_samples = vec![first_setup_s];
    let mut seq_samples = vec![refs.seq_s];
    tracer.set_enabled(false);
    let cold_rep_s = run_rep(&spec, &mut tracer, &mut Counts::default()).wall_s;

    // Timed rounds: set-up again in the first few (so `setup_s` rests on
    // several set-ups), then one repetition; a traced run adds a traced
    // repetition to each round, so its overhead figure compares like with
    // like.
    let min_reps = match (opts.quick, opts.trace) {
        (true, _) => 1,
        (false, false) => MIN_REPS,
        (false, true) => MIN_TRACED_ROUNDS,
    };
    let mut untraced: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let mut counts = Counts::default();
    let started = Instant::now();
    loop {
        if setup_samples.len() < SETUP_SAMPLES {
            tracer.set_enabled(opts.trace);
            let (s, r, took) = set_up(opts, &mut tracer)?;
            (spec, refs) = (s, r);
            setup_samples.push(took);
            seq_samples.push(refs.seq_s);
        }
        tracer.set_enabled(false);
        untraced.push(run_rep(&spec, &mut tracer, &mut Counts::default()));
        if opts.trace {
            tracer.set_enabled(true);
            counts = Counts::default();
            traced.push(run_rep(&spec, &mut tracer, &mut counts));
        }
        let timed_out = opts.quick || started.elapsed().as_secs_f64() >= opts.seconds;
        if untraced.len() >= min_reps && timed_out {
            break;
        }
    }
    if opts.bad_reference {
        refs.by_cell[0] = refs.by_cell[0] * 2.0 + 1.0;
    }
    refs.seq_s = minimum(&seq_samples);
    let mut failed = vec![false; spec.cell_count()];
    tracer.set_enabled(opts.trace);
    for rep in untraced.iter().chain(&traced) {
        mark_failures(&spec, rep, &untraced[0], &refs, &mut failed);
    }

    let first = &untraced[0];
    let digest = digest_of(first);
    let digest_match = (opts.seed == 0 && !opts.quick)
        .then(|| pinned_digest(&spec.name).is_some_and(|pin| pin == digest.hex()));
    let walls: Vec<f64> = untraced.iter().map(|r| r.wall_s).collect();
    let wall = quartiles(&walls);
    let wall_s = floor_s(&untraced);
    let (exec_ns, msgs, wire_bytes) = modeled_totals(first);
    let sim_exec_s = exec_ns as f64 / 1e9;
    let cells_attempted = spec.cell_count() as u64;
    let failed_cells = failed.iter().filter(|&&f| f).count() as u64;

    let mut probe_results = Vec::new();
    let metrics: Vec<(&'static str, f64)> = if !opts.trace {
        let alloc_bytes: Vec<f64> = untraced.iter().map(|r| r.alloc_bytes as f64).collect();
        let alloc_calls: Vec<f64> = untraced.iter().map(|r| r.alloc_calls as f64).collect();
        vec![
            ("wall_s", wall_s),
            ("peak_rss_mib", peak_rss_mib()),
            ("alloc_mib", median(&alloc_bytes) / MIB),
            ("alloc_calls_k", median(&alloc_calls) / 1e3),
            ("setup_s", minimum(&setup_samples) + cold_rep_s),
            ("sim_exec_s", sim_exec_s),
            ("sim_msgs_k", msgs as f64 / 1e3),
            ("sim_wire_mib", wire_bytes as f64 / MIB),
        ]
    } else {
        probe_results = probes::run_all(opts.seed, opts.quick, &mut tracer);
        let results: Vec<&ExperimentResult> = first.results.iter().flatten().collect();
        probe_results.extend(probes::bench_layer(
            &opts.workload,
            opts.seed,
            opts.quick,
            &results,
            &mut tracer,
        ));
        let probe = |name: &str| -> f64 {
            probe_results
                .iter()
                .find(|p| p.name == name)
                .map_or(0.0, |p| p.ns_per_op)
        };
        let c = &counts;
        let wall_ns = wall_s * 1e9;

        // Computed shares: exact counts times probe costs, over wall time.
        let dense = ratio(c.diff_bytes_created as f64, c.diffs_created as f64) >= 2048.0;
        let (create_ns, apply_ns) = if dense {
            (
                probe("page.diff_create_dense_ns"),
                probe("page.diff_apply_dense_ns"),
            )
        } else {
            (
                probe("page.diff_create_sparse_ns"),
                probe("page.diff_apply_sparse_ns"),
            )
        };
        let page_share = (c.twins_created as f64 * probe("page.twin_ns")
            + c.diffs_created as f64 * create_ns
            + c.exchanges as f64 * apply_ns)
            / wall_ns;
        let sync_share = (c.lock_acquires as f64 * probe("core.lock_handoff_ns")
            + c.barriers_small as f64 * probe("core.barrier_ns_n8") / 8.0
            + c.barriers_large as f64 * probe("core.barrier_ns_n1024") / 1024.0)
            / wall_ns;
        let seq_share = refs.seq_s / wall_s;

        // run_experiment's own cost: its wall time minus its cells'.
        let runner_overhead_ns: u64 = results
            .iter()
            .map(|r| {
                let cells: u64 = r.cells.iter().map(|c| c.host_wall_ns).sum();
                r.host_wall_ns.saturating_sub(cells)
            })
            .sum();
        let events = (c.messages + c.faults + c.intervals_closed) as f64;

        let mut m: Vec<(&'static str, f64)> = probe_results
            .iter()
            .map(|p| (p.name, p.ns_per_op))
            .collect();
        m.extend([
            ("sim_rate", sim_exec_s / wall_s),
            (
                "net.breakdown_ns_per_exchange",
                ratio(c.breakdown_ns as f64, c.exchanges as f64),
            ),
            ("bench.runner_overhead_s", runner_overhead_ns as f64 / 1e9),
            ("apps.seq_s", refs.seq_s),
            ("apps.dsm_slowdown", ratio(wall_s, refs.seq_s)),
            ("core.intervals_closed", c.intervals_closed as f64),
            ("core.intervals_retired", c.intervals_retired as f64),
            (
                "core.gc_retired_ratio",
                ratio(c.intervals_retired as f64, c.intervals_closed as f64),
            ),
            ("core.faults", c.faults as f64),
            (
                "core.prefetched_fault_ratio",
                ratio(c.prefetched_faults as f64, c.faults as f64),
            ),
            ("core.lock_acquires", c.lock_acquires as f64),
            (
                "core.barriers",
                (c.barriers_small + c.barriers_large) as f64,
            ),
            ("page.twins_created", c.twins_created as f64),
            ("page.diffs_created", c.diffs_created as f64),
            ("page.diff_mib_created", c.diff_bytes_created as f64 / MIB),
            ("page.protection_ops", c.protection_ops as f64),
            ("net.messages", c.messages as f64),
            (
                "net.useless_msg_ratio",
                ratio(c.useless_messages as f64, c.messages as f64),
            ),
            (
                "net.useless_data_ratio",
                ratio(c.useless_payload as f64, c.payload as f64),
            ),
            ("net.link_queue_ms", c.queue_ns as f64 / 1e6),
            ("net.max_link_util", c.max_link_util),
            ("core.host_us_per_event", ratio(wall_s * 1e6, events)),
            ("page.est_share", page_share),
            ("core.sync_est_share", sync_share),
            ("apps.seq_share", seq_share),
            (
                "unattributed_share",
                1.0 - page_share - sync_share - seq_share,
            ),
            (
                "trace_overhead_pct",
                (floor_s(&traced) / wall_s - 1.0) * 100.0,
            ),
            ("digest_match", f64::from(digest_match != Some(false))),
            ("cells_attempted", cells_attempted as f64),
            ("failed_cells", failed_cells as f64),
            ("timed_reps", untraced.len() as f64),
        ]);
        m
    };

    Some(Report {
        workload: spec.name.clone(),
        cells_attempted,
        failed_cells,
        digest: digest.hex(),
        digest_match,
        wall,
        metrics,
        probes: probe_results,
        tracer,
    })
}
