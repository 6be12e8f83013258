//! Schedule goldens: the scheduler's pick order and everything downstream of
//! it, pinned as recorded constants.
//!
//! A run is a pure function of `(program, configuration, seed)`.  These
//! goldens were recorded while a second, thread-per-processor substrate
//! still existed and agreed with the event-driven one entry for entry; they
//! keep that pick order pinned now that one substrate is left.  Three levels:
//!
//! * **decision level** — a synthetic yield-point program (writes, remote
//!   reads, contended lock chains, barriers) over a fixed case table, pinning
//!   the length and FNV-1a of the decision trace a test `Observer` records
//!   through `Dsm::run_observed`, the
//!   per-rank results and what the run's `ClusterStats` are read for;
//! * **application level** — every tiny workload under both write protocols
//!   at the golden seed, pinning `(checksum bits, exec_time_ns, breakdown)`;
//! * **scale level** — the 256-processor Jacobi cell, and the 1024-processor
//!   one under both protocols (the first ranks with a non-zero second byte in
//!   the tie-break hash, the largest plateaus, the longest barrier episodes).
//!
//! If a deliberate scheduler or protocol change moves a golden, the failing
//! assertion prints the whole actual table in source form: paste it over the
//! old one in the same commit and say why.
//!
//! The `ClusterStats` digests hash a [`StatsView`]: what a result document
//! carries and the per-rank counters the repo benchmark reads, named field
//! by field.  They pin behaviour, not struct layout, so a statistics field
//! that nothing reads can be added or deleted without moving them.

use std::fmt::Debug;

use tdsm_core::{
    AccessKind, Align, ClusterStats, CommBreakdown, Dsm, DsmConfig, GArray, GcCounters, LinkStats,
    Observer, ProcCtx, ProtocolMode, RaceRecord, SchedConfig,
};
use tm_apps::{checksums_match, AppConfig, AppId, Workload};

/// The fixed golden configuration: 4 processors, seeded schedule.
const GOLDEN_SEED: u64 = 0x5eed;

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf29ce484222325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100000001b3)
    })
}

/// FNV-1a of a value's `Debug` rendering: pins every field of a statistics
/// structure in one constant.
fn digest(v: &impl Debug) -> u64 {
    fnv1a(format!("{v:?}").bytes())
}

/// What a run's statistics are read for: the fields of its result document
/// (`breakdown()`, `gc_counters()`, links, races, exec time) and, per rank,
/// the counters `benchmark/src/measure.rs` sums.  Both views are read only
/// through their `Debug` text, which the dead-code lint does not count.
#[allow(dead_code)]
#[derive(Debug)]
struct StatsView<'a> {
    breakdown: CommBreakdown,
    gc: GcCounters,
    links: &'a [LinkStats],
    races: &'a [RaceRecord],
    exec_time_ns: u64,
    ranks: Vec<RankCounters>,
}

/// The per-rank counters the repo benchmark reads.
#[allow(dead_code)]
#[derive(Debug)]
struct RankCounters {
    intervals_closed: u64,
    intervals_retired: u64,
    prefetched_faults: u64,
    lock_acquires: u64,
    barriers: u64,
    twins_created: u64,
    diffs_created: u64,
    diff_bytes_created: u64,
    protection_ops: u64,
    exchanges: usize,
}

/// Digest of a run's [`StatsView`].
fn stats_digest(stats: &ClusterStats) -> u64 {
    digest(&StatsView {
        breakdown: stats.breakdown(),
        gc: stats.gc_counters(),
        links: &stats.links,
        races: &stats.races,
        exec_time_ns: stats.exec_time_ns(),
        ranks: stats
            .per_proc
            .iter()
            .map(|p| RankCounters {
                intervals_closed: p.intervals_closed,
                intervals_retired: p.intervals_retired,
                prefetched_faults: p.prefetched_faults,
                lock_acquires: p.lock_acquires,
                barriers: p.barriers,
                twins_created: p.twins_created,
                diffs_created: p.diffs_created,
                diff_bytes_created: p.diff_bytes_created,
                protection_ops: p.protection_ops,
                exchanges: p.exchanges.len(),
            })
            .collect(),
    })
}

/// One synthetic yield-point program: every rank executes the same op list
/// (so barrier counts always line up), but each non-barrier op touches
/// rank-dependent state — disjoint writes, neighbour reads, contended lock
/// chains — producing schedule-relevant faults and park points.
async fn replay(ctx: &mut ProcCtx, arr: &GArray<u64>, ops: &[u8]) -> u64 {
    let me = ctx.rank();
    let n = ctx.nprocs();
    let slots = arr.len() / n;
    for (i, op) in ops.iter().enumerate() {
        match op % 4 {
            // Disjoint write into my own band.
            0 => {
                arr.set(ctx, me * slots + i % slots, (me + i) as u64).await;
            }
            // Read my neighbour's band (a cross-processor fault).
            1 => {
                let _ = arr.get(ctx, ((me + 1) % n) * slots + i % slots).await;
            }
            // Contended lock-protected read-modify-write of slot 0.
            2 => {
                let lock = (*op as usize) % 4;
                ctx.acquire(lock).await;
                let v = arr.get(ctx, 0).await;
                arr.set(ctx, 0, v + 1).await;
                ctx.release(lock).await;
            }
            // Global barrier (same count on every rank by construction).
            _ => ctx.barrier().await,
        }
    }
    ctx.barrier().await;
    let mut sum = 0u64;
    for s in 0..arr.len() {
        sum = sum.wrapping_add(arr.get(ctx, s).await);
    }
    sum
}

/// The decision-level recorder: `(decision index, chosen rank)` of every
/// scheduling decision after setup.
#[derive(Debug, Default)]
struct Decisions(Vec<(u64, usize)>);

impl Observer for Decisions {
    fn access(&mut self, _: u32, _: u64, _: &[u8], _: AccessKind, _: bool) {}

    fn decision(&mut self, index: u64, rank: u32) {
        self.0.push((index, rank as usize));
    }
}

/// `(seed, nprocs, ops)` of the decision-level cases.
const REPLAY_CASES: [(u64, usize, &[u8]); 18] = [
    (720785, 2, &[143]),
    (
        722191,
        3,
        &[
            16, 109, 48, 227, 180, 100, 171, 16, 236, 14, 133, 205, 50, 29, 96, 138, 12, 121, 246,
            147, 171, 88, 106,
        ],
    ),
    (897644, 4, &[112, 51, 123, 85, 182, 128]),
    (445930, 5, &[4]),
    (
        923396,
        2,
        &[
            178, 24, 119, 124, 0, 244, 216, 219, 8, 46, 185, 165, 86, 65, 46, 32, 182, 189, 54, 46,
            106, 8,
        ],
    ),
    (291819, 3, &[50, 233, 23, 81, 174]),
    (618824, 4, &[80, 49, 81, 171]),
    (
        95274,
        5,
        &[
            94, 190, 179, 135, 130, 108, 115, 0, 103, 222, 132, 10, 203, 9, 114, 104, 203, 61, 253,
            221, 190, 32, 158,
        ],
    ),
    (
        310406,
        8,
        &[
            5, 72, 246, 214, 204, 199, 220, 59, 195, 4, 195, 90, 237, 156, 32, 140, 206, 152,
        ],
    ),
    (252069, 3, &[60, 187]),
    (
        923276,
        4,
        &[
            155, 9, 3, 239, 77, 230, 184, 186, 108, 93, 130, 9, 245, 41, 231, 245, 113, 213, 175,
        ],
    ),
    (346065, 5, &[224, 75, 45, 78]),
    (
        401126,
        2,
        &[
            100, 202, 63, 243, 163, 70, 85, 35, 146, 195, 216, 247, 138, 76, 115, 222, 244, 51,
            192, 223, 160, 64,
        ],
    ),
    (
        841781,
        6,
        &[
            78, 123, 163, 95, 40, 206, 57, 64, 90, 137, 153, 55, 218, 25, 46, 27, 146, 219, 174,
        ],
    ),
    (2850, 4, &[30, 246, 245, 49]),
    (552810, 5, &[165, 115, 80, 9, 91, 211, 170, 246, 216]),
    (536366, 3, &[195, 158, 46, 199]),
    (
        976650,
        8,
        &[
            19, 59, 114, 53, 31, 190, 129, 151, 134, 9, 21, 68, 35, 120, 138, 215, 91, 5, 153, 104,
        ],
    ),
];

/// Per replay case: `(trace length, trace FNV-1a, per-rank results, StatsView digest)`.
type ReplayGolden = (usize, u64, Vec<u64>, u64);

fn replay_goldens() -> Vec<ReplayGolden> {
    vec![
        (0x7, 0xe3338d0c900f228d, vec![0x0, 0x0], 0x76e2072a4162632e),
        (
            0x64,
            0xeace20b5f63732a7,
            vec![0x111, 0x111, 0x111],
            0x265ac28d607d8e34,
        ),
        (
            0x2e,
            0x67de135206d283a4,
            vec![0x24, 0x24, 0x24, 0x24],
            0x9e1bf1ecaf153ff1,
        ),
        (
            0x12,
            0xfe802c42b224dca4,
            vec![0xa, 0xa, 0xa, 0xa, 0xa],
            0x6c2469b4e4732723,
        ),
        (
            0x4a,
            0x8d6d0888f41e79a4,
            vec![0x96, 0x96],
            0x9ec57fd8a247024b,
        ),
        (
            0x22,
            0xcc3a07f559452587,
            vec![0x6, 0x6, 0x6],
            0x154822eb3cda8561,
        ),
        (
            0x15,
            0x1d06bd25b35349f1,
            vec![0x6, 0x6, 0x6, 0x6],
            0xbc9101307ad6a008,
        ),
        (
            0x12c,
            0x574b154821a78745,
            vec![0x17c, 0x17c, 0x17c, 0x17c, 0x17c],
            0x8935eda3555a2bcb,
        ),
        (
            0x16a,
            0xa8f3587ac449567c,
            vec![0x378, 0x378, 0x378, 0x378, 0x378, 0x378, 0x378, 0x378],
            0xa608a9c00fe94e98,
        ),
        (
            0xf,
            0xf1e5b15f75ca81d7,
            vec![0x3, 0x3, 0x3],
            0xaf0ea119cf39e857,
        ),
        (
            0x6e,
            0x8198b015e624bb85,
            vec![0x50, 0x50, 0x50, 0x50],
            0x76dfb3d2c5c4a636,
        ),
        (
            0x33,
            0xd13e9fea5e483f77,
            vec![0xf, 0xf, 0xf, 0xf, 0xf],
            0xaaf747f2023e5b99,
        ),
        (
            0x45,
            0x4cc778efb1cf1c2,
            vec![0xd5, 0xd5],
            0x29471beaca2c4dcb,
        ),
        (
            0x138,
            0x4abebae37d2c09fc,
            vec![0x8a, 0x8a, 0x8a, 0x8a, 0x8a, 0x8a],
            0xbf95f8069b766f73,
        ),
        (
            0x33,
            0xd8ceabb5a5c6af71,
            vec![0x8, 0x8, 0x8, 0x8],
            0x22fe7ba002a87899,
        ),
        (
            0x69,
            0x23caf07b3a5e7e0f,
            vec![0x50, 0x50, 0x50, 0x50, 0x50],
            0x26699fdd193e13f4,
        ),
        (
            0x2b,
            0x54384dccbfd57ab,
            vec![0x6, 0x6, 0x6],
            0x2ac99abffa532d9d,
        ),
        (
            0x146,
            0xecb506bde077b3a5,
            vec![0x1cc, 0x1cc, 0x1cc, 0x1cc, 0x1cc, 0x1cc, 0x1cc, 0x1cc],
            0xc7f3e9f965c54e0f,
        ),
    ]
}

/// Render a golden table as the `vec![...]` source it was pasted from.
fn as_source(rows: &[impl Debug]) -> String {
    let body: String = rows
        .iter()
        .map(|r| {
            let row = format!("{r:#x?}")
                .replace(['\n', ' '], "")
                .replace(",)", ")")
                .replace(",]", "]")
                .replace('[', "vec![");
            format!("        {row},\n")
        })
        .collect();
    format!("    vec![\n{body}    ]")
}

#[test]
fn replay_decisions_results_and_stats_match_the_goldens() {
    let actual: Vec<ReplayGolden> = REPLAY_CASES
        .iter()
        .map(|&(seed, nprocs, ops)| {
            let mut dsm = Dsm::new(
                DsmConfig::with_procs(nprocs)
                    .shared_pages(64)
                    .sched(SchedConfig::seeded(seed)),
            );
            let arr = dsm.alloc_array::<u64>(nprocs * 64, Align::Page);
            let (out, Decisions(trace)) = dsm.run_observed(Decisions::default(), async |ctx| {
                replay(ctx, &arr, ops).await
            });
            let trace_fnv = fnv1a(
                trace
                    .iter()
                    .flat_map(|&(d, r)| [d, r as u64])
                    .flat_map(u64::to_le_bytes),
            );
            (
                trace.len(),
                trace_fnv,
                out.results,
                stats_digest(&out.stats),
            )
        })
        .collect();
    assert!(
        actual == replay_goldens(),
        "replay goldens drifted; actual table:\n{}",
        as_source(&actual)
    );
}

/// Per tiny workload × protocol, in `Workload::tiny_suite()`
/// order: `(checksum bits, exec_time_ns, breakdown digest)`.
type AppGolden = (u64, u64, u64);

fn app_goldens() -> Vec<AppGolden> {
    vec![
        (0x40904f92fc35b355, 0x2afdfac, 0xfb6470affc8f4bfb),
        (0x40904f92fc35b355, 0x2a2ad24, 0x388b2e618985cdfb),
        (0x408f400000000003, 0x5093754, 0xaa62794e6ca73a85),
        (0x408f400000000003, 0x4f52ccc, 0x50374bdd39baf065),
        (0x406d400000000000, 0x179e61d, 0x550c9efd2ce9172a),
        (0x406d400000000000, 0x18a043f, 0xd087273dd91c31dc),
        (0x40772b308366cd0f, 0x9859694, 0x48e06e4a939ce1da),
        (0x40772b308366cd0f, 0x8e7e030, 0x3cf6fec3e152352b),
        (0x40b15cc0a3307c00, 0xb7ec7c, 0xa33fa6999259476),
        (0x40b15cc0a3307c00, 0xd114b0, 0x35c3971aedbe826c),
        (0x401cf4c82d574d7c, 0x59deb6, 0x3cd42e0b18e66106),
        (0x401cf4c82d574d7c, 0x5c00b2, 0x3e847ccfffc481b9),
        (0x405beebeb9cbe000, 0x30fe804, 0xd1409dd747a1d60e),
        (0x405beebeb9cbe000, 0x3250684, 0x94a46d5e98fd39cb),
        (0x419267472d16543d, 0x352467c, 0xcc74903bf0c7b087),
        (0x419267472d16543d, 0x322399c, 0x943dc5dd978ea56c),
    ]
}

#[test]
fn every_app_protocol_and_diff_timing_matches_the_goldens() {
    let mut actual: Vec<AppGolden> = Vec::new();
    for w in Workload::tiny_suite() {
        for protocol in [ProtocolMode::MultiWriter, ProtocolMode::home_based()] {
            let run = w.run_parallel(
                &AppConfig::with_procs(4)
                    .sched(SchedConfig::seeded(GOLDEN_SEED))
                    .protocol(protocol),
            );
            assert_eq!(run.breakdown, run.stats.breakdown());
            actual.push((
                run.checksum.to_bits(),
                run.exec_time_ns,
                digest(&run.breakdown),
            ));
        }
    }
    assert!(
        actual == app_goldens(),
        "application goldens drifted; actual table:\n{}",
        as_source(&actual)
    );
}

/// Scale level: 256 simulated processors on the tiny Jacobi grid (ranks
/// beyond the 32 grid rows hold empty bands and just join the barriers).
#[test]
fn jacobi_at_256_processors_matches_the_golden() {
    let w = Workload::tiny(AppId::Jacobi);
    let run = w.run_parallel(&AppConfig::with_procs(256).sched(SchedConfig::seeded(GOLDEN_SEED)));
    let actual = (
        run.checksum.to_bits(),
        run.exec_time_ns,
        digest(&run.breakdown),
        stats_digest(&run.stats),
    );
    assert_eq!(
        actual,
        (
            4661609071746513920,
            79761916,
            4919483751505089265,
            14435800505647699820
        ),
        "256-processor Jacobi golden drifted"
    );
    // And it verifies against the sequential reference like any other cell.
    assert!(checksums_match(run.checksum, w.run_sequential(), 1e-6));
}

/// Scale level, the largest cluster: 1024 simulated processors on the tiny
/// Jacobi grid under both write protocols, recorded at PR 16 — before the
/// scheduler kept a partitioned runnable set and the barrier went sparse.
#[test]
fn jacobi_at_1024_processors_matches_the_goldens() {
    let w = Workload::tiny(AppId::Jacobi);
    let actual: Vec<(u64, u64, u64, u64)> = [ProtocolMode::MultiWriter, ProtocolMode::home_based()]
        .into_iter()
        .map(|protocol| {
            let run = w.run_parallel(
                &AppConfig::with_procs(1024)
                    .sched(SchedConfig::seeded(GOLDEN_SEED))
                    .protocol(protocol),
            );
            (
                run.checksum.to_bits(),
                run.exec_time_ns,
                digest(&run.breakdown),
                stats_digest(&run.stats),
            )
        })
        .collect();
    assert!(
        actual == jacobi_1024_goldens(),
        "1024-processor Jacobi goldens drifted; actual table:\n{}",
        as_source(&actual)
    );
}

/// Per protocol: `(checksum bits, exec_time_ns, breakdown digest, StatsView digest)`.
fn jacobi_1024_goldens() -> Vec<(u64, u64, u64, u64)> {
    vec![
        (
            0x40b15cc0a3307c00,
            0x1157b72c,
            0x92bbbb235ae66a20,
            0xc6bd33e7409ea0bc,
        ),
        (
            0x40b15cc0a3307c00,
            0x115b2870,
            0x7c106bd9aa2cc6cd,
            0x6bf19326b41d7239,
        ),
    ]
}
