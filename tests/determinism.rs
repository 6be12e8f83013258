//! Determinism acceptance suite for the `tm-sched` cooperative scheduler.
//!
//! Before the scheduler, the simulated processors were free-running OS
//! threads: lock-arrival order — and with it TSP's and Water's message
//! counts — varied run to run. These tests pin the property the rework
//! bought: **every run is a pure function of `(app, policy, nprocs, seed,
//! schedule mode)`**, down to the last byte of the emitted JSON.
//!
//! Layers covered, bottom-up: golden per-app message/byte counts at a fixed
//! seed (the previously nondeterministic apps), bit-identical `ClusterStats`
//! across back-to-back runs of every registered application, a seed sweep
//! showing interleavings may change but results stay verified, and
//! byte-identical machine documents from two consecutive engine and binary
//! runs.

use proptest::prelude::*;
use tdsm_core::SchedConfig;
use tm_apps::{checksums_match, AppConfig, AppId, Workload};
use tm_bench::{render, run_experiment, BenchArgs, Experiment, OutputFormat, RunnerOptions};

/// The fixed configuration of the golden tests: 4 processors, 4 KB units,
/// seeded schedule with this base seed.
const GOLDEN_SEED: u64 = 0x5eed;

fn golden_cfg() -> AppConfig {
    AppConfig::with_procs(4).sched(SchedConfig::seeded(GOLDEN_SEED))
}

/// TSP and Water are the lock-based applications whose counts were
/// nondeterministic before the scheduler; their exact communication
/// breakdown at a fixed seed is now a golden artifact. If a deliberate
/// protocol or scheduler change moves these numbers, update them in the same
/// commit and say why.
///
/// History: the lazy-diffing rework (PR 4) moved the execution times —
/// `diff_create_cost` is now charged on the responder's serve path at the
/// first request instead of at interval close, and unrequested diffs are
/// never charged at all — but left every message and byte count untouched,
/// exactly as the eager/lazy equivalence demands.
#[test]
fn golden_tsp_water_counts_at_fixed_seed() {
    let tsp = Workload::tiny(AppId::Tsp).run_parallel(&golden_cfg());
    let b = &tsp.breakdown;
    assert_eq!(
        (b.useful_messages, b.useless_messages, b.faults),
        (146, 24, 23),
        "TSP tiny message counts drifted: {b:?}"
    );
    assert_eq!(
        (
            b.useful_data,
            b.piggybacked_useless_data,
            b.useless_data_in_useless_msgs,
            b.total_wire_bytes
        ),
        (200, 340, 48, 10_124),
        "TSP tiny byte counts drifted"
    );
    assert_eq!(tsp.exec_time_ns, 24_765_981);
    assert_eq!(tsp.checksum, 234.0);

    let water = Workload::tiny(AppId::Water).run_parallel(&golden_cfg());
    let b = &water.breakdown;
    assert_eq!(
        (b.useful_messages, b.useless_messages, b.faults),
        (1_511, 298, 287),
        "Water tiny message counts drifted: {b:?}"
    );
    assert_eq!(
        (
            b.useful_data,
            b.piggybacked_useless_data,
            b.useless_data_in_useless_msgs,
            b.total_wire_bytes
        ),
        (17_152, 18_152, 20_496, 183_082),
        "Water tiny byte counts drifted"
    );
    assert_eq!(water.exec_time_ns, 159_749_780);
}

/// The diff-timing knob must not move a single message or byte: eager and
/// lazy runs of every registered application at a fixed seed exchange
/// identical write notices and diffs, so their whole communication breakdown
/// — counts, volumes, wire bytes, fault signature — and their per-processor
/// message counts agree exactly.  Only the execution times (where
/// `diff_create_cost` lands) may differ.
#[test]
fn eager_and_lazy_exchange_identical_messages_for_every_app() {
    use tdsm_core::DiffTiming;
    for w in Workload::tiny_suite() {
        let cfg = |timing| {
            AppConfig::with_procs(4)
                .sched(SchedConfig::seeded(GOLDEN_SEED))
                .diff_timing(timing)
        };
        let lazy = w.run_parallel(&cfg(DiffTiming::Lazy));
        let eager = w.run_parallel(&cfg(DiffTiming::Eager));

        let mut bl = lazy.breakdown.clone();
        let mut be = eager.breakdown.clone();
        // The one legitimate difference: where diff creation is charged.
        bl.exec_time_ns = 0;
        be.exec_time_ns = 0;
        assert_eq!(bl, be, "{} breakdown diverged across timings", w.size_label);

        for (l, e) in lazy.stats.per_proc.iter().zip(&eager.stats.per_proc) {
            assert_eq!(
                l.message_count(),
                e.message_count(),
                "{} P{} message count diverged",
                w.size_label,
                l.proc
            );
            assert_eq!(
                l.wire_bytes(),
                e.wire_bytes(),
                "{} P{} wire bytes diverged",
                w.size_label,
                l.proc
            );
        }

        // GC activity is a pure function of the notice flow, so it is
        // timing-independent too.
        assert_eq!(
            lazy.stats.gc_counters(),
            eager.stats.gc_counters(),
            "{} GC counters diverged",
            w.size_label
        );
        assert_eq!(lazy.checksum, eager.checksum);
    }
}

/// The machine-readable sweep documents of an eager and a lazy engine run
/// must agree on every message count and volume: render both to JSON, strip
/// the declared timing-dependent fields (`diff_timing` itself and the
/// execution times), and require byte identity.
#[test]
fn eager_and_lazy_sweeps_emit_identical_message_documents() {
    use tdsm_core::DiffTiming;
    let args = |timing| BenchArgs {
        nprocs: 2,
        scale: tm_bench::Scale::Tiny,
        diff_timing: timing,
        ..BenchArgs::defaults(2)
    };
    let opts = RunnerOptions { threads: 2 };
    let lazy = run_experiment(&Experiment::table1(&args(DiffTiming::Lazy)), &opts);
    let eager = run_experiment(&Experiment::table1(&args(DiffTiming::Eager)), &opts);
    assert_eq!(lazy.cells.len(), eager.cells.len());
    for (l, e) in lazy.cells.iter().zip(&eager.cells) {
        let mut lc = l.clone();
        let mut ec = e.clone();
        lc.cell.diff_timing = DiffTiming::Lazy;
        ec.cell.diff_timing = DiffTiming::Lazy;
        lc.exec_time_ns = 0;
        ec.exec_time_ns = 0;
        lc.breakdown.exec_time_ns = 0;
        ec.breakdown.exec_time_ns = 0;
        lc.host_wall_ns = 0;
        ec.host_wall_ns = 0;
        assert_eq!(
            lc,
            ec,
            "cell {} diverged between timings beyond exec time",
            l.cell.key()
        );
    }
}

/// The loop test of the issue: two back-to-back runs of EVERY registered
/// application must produce identical `ClusterStats` — not just identical
/// aggregates, but the same per-processor exchange/fault/control records.
#[test]
fn back_to_back_runs_of_every_app_produce_identical_cluster_stats() {
    for w in Workload::tiny_suite() {
        let cfg = AppConfig::with_procs(3).sched(SchedConfig::seeded(7));
        let first = w.run_parallel(&cfg);
        let second = w.run_parallel(&cfg);
        assert_eq!(
            first.stats, second.stats,
            "{} reran with different ClusterStats",
            w.size_label
        );
        assert_eq!(first.checksum, second.checksum, "{}", w.size_label);
        assert_eq!(first.exec_time_ns, second.exec_time_ns, "{}", w.size_label);
    }
}

/// Two consecutive in-process engine runs over all eight applications
/// (table1's tiny grid) must render byte-identical JSON and CSV — the
/// machine formats carry no nondeterministic field.
#[test]
fn consecutive_engine_runs_emit_byte_identical_documents() {
    let args = BenchArgs {
        nprocs: 2,
        scale: tm_bench::Scale::Tiny,
        ..BenchArgs::defaults(2)
    };
    let exp = Experiment::table1(&args);
    let apps: std::collections::HashSet<_> = exp.cells.iter().map(|c| c.app).collect();
    assert_eq!(apps.len(), 8, "table1 must cover all eight applications");

    let opts = RunnerOptions { threads: 2 };
    let first = run_experiment(&exp, &opts);
    let second = run_experiment(&exp, &opts);
    for format in [OutputFormat::Json, OutputFormat::Csv] {
        assert_eq!(
            render(&first, format),
            render(&second, format),
            "consecutive runs must emit byte-identical {format:?}"
        );
    }
}

/// End-to-end acceptance at the binary surface: the same invocation of the
/// real binary, twice, must write byte-identical JSON to stdout.
#[test]
fn binary_reruns_are_byte_identical() {
    let args = ["--tiny", "--format", "json", "--seed", "11"];
    let first = run_binary("fig3", &args);
    let second = run_binary("fig3", &args);
    assert_eq!(first, second, "fig3 --tiny JSON differed between two runs");
    assert!(first.contains("\"schedule\": \"seeded\""));
    assert!(!first.contains("host_wall_ns"));
}

/// Interval GC soundness at application level: run a multi-barrier workload
/// under an aggressively small validation-flush limit.  A retirement of any
/// interval still needed — uncovered by some vector clock or with a pending
/// notice outstanding — would panic the run at the next diff request
/// (`a stored diff must exist for a published notice`), so completing with a
/// verified checksum and non-trivial retirement is the soundness witness.
#[test]
fn aggressive_gc_flush_preserves_results_and_retires_logs() {
    use tdsm_core::{Align, DiffTiming, Dsm, DsmConfig, UnitPolicy};
    let run = |limit: usize, timing: DiffTiming| {
        let mut dsm = Dsm::new(
            DsmConfig {
                nprocs: 4,
                shared_pages: 64,
                unit: UnitPolicy::Static { pages: 1 },
                sched: SchedConfig::seeded(3),
                diff_timing: timing,
                ..DsmConfig::paper_default()
            }
            .gc_flush_pending_limit(limit),
        );
        let arr = dsm.alloc_array::<u64>(4096, Align::Page);
        let out = dsm.run(async |ctx| {
            let me = ctx.rank();
            let n = ctx.nprocs();
            // 24 phases of owner-computes over fixed bands: every barrier
            // broadcasts write notices for pages the other processors never
            // touch until the very end, so pending notices (and with them
            // the interval logs) grow without bound unless the
            // memory-pressure flush kicks in — the Jacobi-interior pattern.
            let chunk = arr.len() / n;
            let base = me * chunk;
            for phase in 0..24u64 {
                for i in 0..chunk {
                    arr.set(ctx, base + i, phase * 1_000 + (base + i) as u64)
                        .await;
                }
                ctx.barrier().await;
            }
            let mut sum = 0u64;
            for i in 0..arr.len() {
                sum += arr.get(ctx, i).await;
            }
            sum
        });
        let first = out.results[0];
        for r in &out.results {
            assert_eq!(*r, first, "all processors must read the same final array");
        }
        (first, out.stats.gc_counters())
    };

    // A tight limit forces validation flushes; a huge limit never flushes.
    let (sum_flush, gc_flush) = run(8, DiffTiming::Lazy);
    let (sum_never, gc_never) = run(usize::MAX, DiffTiming::Lazy);
    assert_eq!(sum_flush, sum_never, "GC must not change the computation");
    assert!(gc_flush.pending_flushes > 0, "tight limit must flush");
    assert_eq!(gc_never.pending_flushes, 0, "huge limit must never flush");
    assert!(
        gc_flush.retired_fraction() >= 0.9,
        "flush-driven GC should retire almost everything: {gc_flush:?}"
    );
    assert!(
        gc_flush.intervals_retired >= gc_never.intervals_retired,
        "flushing must never retire less"
    );

    // And the flush machinery is timing-independent like everything else.
    let (sum_eager, gc_eager) = run(8, DiffTiming::Eager);
    assert_eq!(sum_flush, sum_eager);
    assert_eq!(gc_flush, gc_eager);
}

/// The modeled halves of the lazy-diffing and interval-GC claims on the
/// workload they were made for (Jacobi, whose interior diffs are never
/// requested): lazy timing charges creation only for requested diffs, so its
/// modeled execution time must not exceed eager's; and with an aggressive
/// flush limit the interval logs retire the bulk of what they publish (with
/// the flush disabled the interior notices pin the floors forever).  The
/// message identity the timing equivalence rests on is
/// `eager_and_lazy_exchange_identical_messages_for_every_app`.
#[test]
fn jacobi_lazy_diffing_is_never_slower_and_flush_driven_gc_retires_the_bulk() {
    use tdsm_core::DiffTiming;
    use tm_apps::jacobi;
    let cfg = |timing| {
        AppConfig::with_procs(4)
            .sched(SchedConfig::seeded(0x6c))
            .diff_timing(timing)
    };
    let size = jacobi::JacobiSize::small();
    let lazy = jacobi::run_parallel(&cfg(DiffTiming::Lazy), &size);
    let eager = jacobi::run_parallel(&cfg(DiffTiming::Eager), &size);
    assert!(
        lazy.exec_time_ns <= eager.exec_time_ns,
        "lazy ({}) must not be slower than eager ({}) in modeled time",
        lazy.exec_time_ns,
        eager.exec_time_ns
    );

    let mut flushing = cfg(DiffTiming::Lazy);
    flushing.gc_flush_pending_limit = 64;
    let gc = jacobi::run_parallel(&flushing, &size).stats.gc_counters();
    assert!(
        gc.retired_fraction() > 0.5,
        "GC with flush must retire the bulk of the logs: {gc:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Different seeds are free to reorder lock arrivals (and usually do),
    /// but the application RESULTS must not change: TSP's exact optimum and
    /// Water's energy checksum verify against the sequential reference for
    /// every seed, and each seed reproduces itself.
    #[test]
    fn any_seed_reorders_but_preserves_results(seed in any::<u64>()) {
        let cfg = AppConfig::with_procs(4).sched(SchedConfig::seeded(seed));

        let w = Workload::tiny(AppId::Tsp);
        let par = w.run_parallel(&cfg);
        // Branch-and-bound finds the one global optimum whatever the
        // interleaving.
        prop_assert_eq!(par.checksum, w.run_sequential());
        let again = w.run_parallel(&cfg);
        prop_assert_eq!(&par.stats, &again.stats);

        let w = Workload::tiny(AppId::Water);
        let par = w.run_parallel(&cfg);
        // Floating-point reductions may associate differently per
        // interleaving; the documented 1e-6 relative tolerance applies.
        prop_assert!(
            checksums_match(par.checksum, w.run_sequential(), 1e-6),
            "Water checksum diverged at seed {}", seed
        );
    }

    /// The GC watermark computation never retires an interval that some
    /// processor's vector clock does not cover yet, nor one with a pending
    /// (incorporated but unapplied) write notice anywhere.  `prev_published`
    /// is the barrier's coverage bound — every clock dominates the previous
    /// episode's snapshot — and `floors` are the per-arriver pending minima,
    /// so the sealed threshold must sit strictly below both.
    #[test]
    fn gc_thresholds_never_retire_uncovered_or_pending_intervals(
        prev in prop::collection::vec(0u32..1000, 1..8),
        floors in prop::collection::vec(
            prop::collection::vec(0u32..1000, 1..8), 1..8),
    ) {
        use tdsm_core::gc_thresholds;
        let nprocs = prev.len();
        // Normalize the arrivers' floor vectors to the processor count; a
        // raw 0 stands for "nothing pending" and maps to the u32::MAX
        // sentinel (real floors are 1-based sequence numbers).
        let arrivers: Vec<Vec<u32>> = floors
            .iter()
            .map(|f| {
                (0..nprocs)
                    .map(|p| match f.get(p).copied().unwrap_or(0) {
                        0 => u32::MAX,
                        s => s,
                    })
                    .collect()
            })
            .collect();
        // The barrier folds arrivers by elementwise minimum.
        let folded: Vec<u32> = (0..nprocs)
            .map(|p| arrivers.iter().map(|a| a[p]).min().unwrap_or(u32::MAX))
            .collect();
        let thresholds = gc_thresholds(&prev, &folded);
        for p in 0..nprocs {
            // Covered: every clock dominates prev_published, so retiring at
            // or below it is safe; the threshold must not exceed it.
            prop_assert!(thresholds[p] <= prev[p],
                "proc {} threshold {} exceeds coverage {}", p, thresholds[p], prev[p]);
            // Applied: no arriver may still hold a pending notice at or
            // below the threshold.
            for (a, arriver) in arrivers.iter().enumerate() {
                prop_assert!(thresholds[p] < arriver[p],
                    "proc {} threshold {} reaches arriver {}'s pending floor {}",
                    p, thresholds[p], a, arriver[p]);
            }
        }
    }
}

/// Run `tm-bench <bin>` via `cargo run` (always building from current
/// sources; see tests/harness_smoke.rs for the full rationale) and return
/// its stdout.
fn run_binary(bin: &str, args: &[&str]) -> String {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let mut cmd = std::process::Command::new(cargo);
    cmd.args(["run", "-q", "-p", "tm-bench", "--bin", "tm-bench"]);
    if std::env::current_exe()
        .ok()
        .and_then(|exe| {
            exe.parent()
                .and_then(|p| p.parent())
                .and_then(|p| p.file_name())
                .map(|n| n == "release")
        })
        .unwrap_or(false)
    {
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
