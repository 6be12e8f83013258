//! Layer probes: host time per operation of each crate's public functions,
//! driven from outside with synthetic 4 KiB-page inputs.
//!
//! A probe runs a fixed number of operations per *batch* and reports the
//! median batch, as ns per operation.  Untimed preparation (fresh pages, a
//! filled log) happens inside the batch closure but outside the interval it
//! returns, so only the named call is measured.  Probes say what a layer's
//! operation costs in isolation; multiplied by the exact counts of a run
//! they give the *computed* shares in `measure.rs`, never a measured one.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tdsm_core::{
    Align, CostModel, DiffTiming, Dsm, DsmConfig, DynamicAggregator, IntervalId, IntervalLog,
    IntervalRecord, NetworkState, SchedConfig, Topology, VectorClock,
};
use tm_apps::common::DetRng;
use tm_bench::{parse_result, render, ExperimentResult, OutputFormat};
use tm_net::ResponderCost;
use tm_page::{Diff, GlobalAddr, HomeStore, LocalPage, PageId, PageLayout, PageStore};
use tm_race::{AccessKind, RaceDetector};
use tm_sched::{Scheduler, WaitKey};

use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads;

/// One probe's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeResult {
    /// Metric name (one of `names::PER_LAYER`).
    pub name: &'static str,
    /// Median over the batches of `batch time / ops`.
    pub ns_per_op: f64,
    /// Operations per batch.
    pub ops: u64,
    /// Timed batches (one more, untimed, warms up).
    pub batches: usize,
}

const PAGE: usize = 4096;
const WORDS: usize = PAGE / 4;
/// Pages a page-level probe touches per batch.
const PAGES: usize = 256;

struct Probes<'a> {
    out: Vec<ProbeResult>,
    tracer: &'a mut Tracer,
    batches: usize,
}

impl<'a> Probes<'a> {
    fn new(tracer: &'a mut Tracer, batches: usize) -> Self {
        Probes {
            out: Vec::new(),
            tracer,
            batches,
        }
    }

    /// Run `batch` once to warm up, then `self.batches` times inside a span
    /// named after the probe; `batch` returns the time its `ops` operations
    /// took.
    fn probe(&mut self, name: &'static str, ops: u64, mut batch: impl FnMut() -> Duration) {
        batch();
        let per_op: Vec<f64> = (0..self.batches)
            .map(|_| self.tracer.span(name, "", |_| batch()).as_nanos() as f64 / ops as f64)
            .collect();
        self.out.push(ProbeResult {
            name,
            ns_per_op: median(&per_op),
            ops,
            batches: self.batches,
        });
    }
}

fn random_bytes(rng: &mut DetRng, len: usize) -> Vec<u8> {
    let mut v = Vec::with_capacity(len);
    while v.len() < len {
        v.extend_from_slice(&rng.next_u64().to_ne_bytes());
    }
    v.truncate(len);
    v
}

/// `PAGES` resident pages holding `image`, no twin.
fn resident_pages(image: &[u8]) -> Vec<LocalPage> {
    (0..PAGES)
        .map(|i| {
            let mut p = LocalPage::new_zeroed(PAGE);
            p.write_bytes(0, &image[i * PAGE..(i + 1) * PAGE]);
            p
        })
        .collect()
}

/// Twin every page and overwrite it from `image`: all of it (`stride == 1`)
/// or one word in `stride`.
fn dirty_pages(pages: &mut [LocalPage], image: &[u8], stride: usize) {
    for (i, p) in pages.iter_mut().enumerate() {
        p.ensure_twin();
        let src = &image[i * PAGE..(i + 1) * PAGE];
        if stride == 1 {
            p.write_bytes(0, src);
        } else {
            for w in (0..WORDS).step_by(stride) {
                p.write_bytes(w * 4, &src[w * 4..w * 4 + 4]);
            }
        }
    }
}

fn page_probes(p: &mut Probes<'_>, rng: &mut DetRng) {
    let a = random_bytes(rng, PAGES * PAGE);
    let b = random_bytes(rng, PAGES * PAGE);
    let layout = PageLayout::new(PAGE, PAGES as u32);
    let kib = (PAGES * PAGE / 1024) as u64;
    // Applications move whole rows: four pages per call.
    const CHUNK: usize = 4 * PAGE;

    // First write of an interval twins the page, then a tracked store.  The
    // previous interval's diffs stay alive and share the page images, as
    // they do between two closes of a dense writer.
    {
        let mut store = PageStore::new(layout);
        store.write(GlobalAddr(0), &a);
        let mut published: Vec<Diff> = Vec::new();
        let mut flip = false;
        p.probe("page.write_tracked_ns_per_kib", kib, || {
            flip = !flip;
            let src = if flip { &b } else { &a };
            let started = Instant::now();
            for i in 0..PAGES {
                store.page_mut(PageId(i as u32)).ensure_twin();
            }
            for off in (0..PAGES * PAGE).step_by(CHUNK) {
                store.write(GlobalAddr(off as u64), &src[off..off + CHUNK]);
            }
            let took = started.elapsed();
            published.clear();
            for i in 0..PAGES {
                let page = store.page_mut(PageId(i as u32));
                published.extend(page.make_diff(PageId(i as u32)));
                page.drop_twin();
            }
            took
        });
    }

    // Read of freshly delivered words: the copy plus the useful-data credit.
    {
        let zero = vec![0u8; PAGE];
        let diffs: Vec<Diff> = (0..PAGES)
            .map(|i| Diff::create(PageId(i as u32), &zero, &a[i * PAGE..(i + 1) * PAGE]))
            .collect();
        let mut store = PageStore::new(layout);
        let mut buf = vec![0u8; CHUNK];
        p.probe("page.read_attr_ns_per_kib", kib, || {
            for (i, d) in diffs.iter().enumerate() {
                store.page_mut(PageId(i as u32)).apply_diff(d, i as u32);
            }
            let mut useful = 0u64;
            let started = Instant::now();
            for off in (0..PAGES * PAGE).step_by(CHUNK) {
                store.read(GlobalAddr(off as u64), &mut buf, |_, bytes| useful += bytes);
            }
            let took = started.elapsed();
            assert_eq!(black_box(useful), (PAGES * PAGE) as u64);
            took
        });
    }

    // The twin is virtual (a flag, a cleared bitset, a reused pre-image
    // buffer), so a batch takes several rounds; `drop_twin` only clears the
    // flag again.
    {
        const ROUNDS: usize = 16;
        let mut pages = resident_pages(&a);
        p.probe("page.twin_ns", (ROUNDS * PAGES) as u64, || {
            let started = Instant::now();
            for _ in 0..ROUNDS {
                for page in pages.iter_mut() {
                    black_box(page.ensure_twin());
                    page.drop_twin();
                }
            }
            started.elapsed()
        });
    }

    // Diff creation and application: a whole page against 64 of 1024 words.
    for (create, apply, stride) in [
        ("page.diff_create_dense_ns", "page.diff_apply_dense_ns", 1),
        (
            "page.diff_create_sparse_ns",
            "page.diff_apply_sparse_ns",
            16,
        ),
    ] {
        let mut writers = resident_pages(&a);
        dirty_pages(&mut writers, &b, stride);
        // A batch makes every page's diff four times over; dropping the
        // previous round's diffs is part of a diff's life and stays inside.
        let mut made: Vec<Diff> = Vec::with_capacity(PAGES);
        p.probe(create, 4 * PAGES as u64, || {
            let started = Instant::now();
            for _ in 0..4 {
                made.clear();
                for (i, page) in writers.iter().enumerate() {
                    made.extend(page.make_diff(PageId(i as u32)));
                }
            }
            started.elapsed()
        });
        assert_eq!(made.len(), PAGES);
        let mut readers = resident_pages(&a);
        let mut buf = vec![0u8; PAGE];
        p.probe(apply, PAGES as u64, || {
            let started = Instant::now();
            for (i, (page, d)) in readers.iter_mut().zip(&made).enumerate() {
                page.apply_diff(d, i as u32);
            }
            let took = started.elapsed();
            // Consume the attributions so every batch applies to pages with
            // nothing pending, like a first delivery.
            for page in readers.iter_mut() {
                page.read_bytes(0, &mut buf, |_, _| {});
            }
            took
        });
    }

    // Merge of a chain of eight sparse diffs of one page.
    {
        let twin = &a[..PAGE];
        let chain: Vec<Diff> = (0..8)
            .map(|k| {
                let mut cur = twin.to_vec();
                for w in (k..WORDS).step_by(16) {
                    cur[w * 4..w * 4 + 4].copy_from_slice(&b[w * 4..w * 4 + 4]);
                }
                Diff::create(PageId(0), twin, &cur)
            })
            .collect();
        let refs: Vec<&Diff> = chain.iter().collect();
        p.probe("page.diff_merge_ns", 64, || {
            let started = Instant::now();
            for _ in 0..64 {
                black_box(Diff::merge(PageId(0), black_box(&refs)));
            }
            started.elapsed()
        });
    }

    // Home-based protocol: a flushed diff lands at the home; a fault copies
    // the page out and loads it.
    {
        let zero = vec![0u8; PAGE];
        let diffs: Vec<Diff> = (0..PAGES)
            .map(|i| Diff::create(PageId(i as u32), &zero, &b[i * PAGE..(i + 1) * PAGE]))
            .collect();
        let mut home = HomeStore::new(layout);
        p.probe("page.home_apply_ns", PAGES as u64, || {
            let started = Instant::now();
            for d in &diffs {
                home.apply_diff(d);
            }
            started.elapsed()
        });
        let mut readers = resident_pages(&a);
        let mut buf = vec![0u8; PAGE];
        p.probe("page.home_fetch_ns", PAGES as u64, || {
            let started = Instant::now();
            for (i, page) in readers.iter_mut().enumerate() {
                home.copy_page_into(PageId(i as u32), &mut buf);
                page.load_page(&buf, i as u32);
            }
            started.elapsed()
        });
    }
}

/// Intervals a log probe publishes per batch, and pages written by each.
const LOG_INTERVALS: u32 = 256;
const LOG_PAGES_PER_INTERVAL: u32 = 4;

/// One interval as `IntervalLog::publish` takes it: the record and the diffs
/// of the pages it wrote.
type Published = (IntervalRecord, Vec<(PageId, Arc<Diff>)>);

fn log_input(diffs: &[Arc<Diff>]) -> Vec<Published> {
    (1..=LOG_INTERVALS)
        .map(|seq| {
            let mut vc = VectorClock::zero(8);
            vc.set(0, seq);
            let pages: Vec<PageId> = (0..LOG_PAGES_PER_INTERVAL)
                .map(|k| PageId((seq * LOG_PAGES_PER_INTERVAL + k) % PAGES as u32))
                .collect();
            let with_diffs = pages
                .iter()
                .map(|&pg| (pg, Arc::clone(&diffs[pg.index()])))
                .collect();
            let record = IntervalRecord {
                id: IntervalId { proc: 0, seq },
                vc,
                pages,
            };
            (record, with_diffs)
        })
        .collect()
}

fn filled_log(diffs: &[Arc<Diff>]) -> IntervalLog {
    let mut log = IntervalLog::new();
    for (record, d) in log_input(diffs) {
        log.publish(record, d, DiffTiming::default());
    }
    log
}

fn dsm(nprocs: usize, seed: u64) -> Dsm {
    Dsm::new(DsmConfig {
        nprocs,
        shared_pages: 2 * PAGES as u32,
        max_locks: 16,
        sched: SchedConfig::seeded(seed),
        ..DsmConfig::paper_default()
    })
}

fn core_probes(p: &mut Probes<'_>, rng: &mut DetRng, seed: u64) {
    // Interval log: publish, serve, retire.
    let a = random_bytes(rng, PAGES * PAGE);
    let b = random_bytes(rng, PAGES * PAGE);
    let mut writers = resident_pages(&a);
    dirty_pages(&mut writers, &b, 16);
    let diffs: Vec<Arc<Diff>> = writers
        .iter()
        .enumerate()
        .map(|(i, page)| Arc::new(page.make_diff(PageId(i as u32)).expect("twinned")))
        .collect();
    p.probe("core.log_publish_ns", LOG_INTERVALS as u64, || {
        let input = log_input(&diffs);
        let mut log = IntervalLog::new();
        let started = Instant::now();
        for (record, d) in input {
            log.publish(record, d, DiffTiming::default());
        }
        let took = started.elapsed();
        assert_eq!(log.published(), LOG_INTERVALS);
        took
    });
    let fetches = (LOG_INTERVALS * LOG_PAGES_PER_INTERVAL) as u64;
    p.probe("core.log_fetch_ns", fetches, || {
        let mut log = filled_log(&diffs);
        let started = Instant::now();
        for seq in 1..=LOG_INTERVALS {
            for k in 0..LOG_PAGES_PER_INTERVAL {
                let page = PageId((seq * LOG_PAGES_PER_INTERVAL + k) % PAGES as u32);
                black_box(log.fetch_diff(page, seq).expect("published diff"));
            }
        }
        started.elapsed()
    });
    p.probe("core.log_retire_ns", LOG_INTERVALS as u64, || {
        let mut log = filled_log(&diffs);
        let started = Instant::now();
        for seq in 1..=LOG_INTERVALS {
            black_box(log.retire_up_to(seq));
        }
        let took = started.elapsed();
        assert!(log.is_empty());
        took
    });

    for (name, n, ops) in [
        ("core.vc_merge_ns_n8", 8usize, 20_000u64),
        ("core.vc_merge_ns_n1024", 1024, 2_000),
    ] {
        let mut x = VectorClock::zero(n);
        let mut y = VectorClock::zero(n);
        for i in 0..n {
            x.set(i, rng.next_range(1000) as u32);
            y.set(i, rng.next_range(1000) as u32);
        }
        p.probe(name, ops, || {
            let started = Instant::now();
            for _ in 0..ops {
                x.merge(black_box(&y));
                black_box(x.compare(black_box(&y)));
            }
            started.elapsed()
        });
    }

    {
        let faulted: Vec<PageId> = (0..64)
            .map(|_| PageId(rng.next_range(4096) as u32))
            .collect();
        let mut agg = DynamicAggregator::new(4);
        p.probe("core.agg_rebuild_ns", 256, || {
            let started = Instant::now();
            for _ in 0..256 {
                for &page in &faulted {
                    agg.note_fault(page);
                }
                agg.rebuild_groups();
            }
            black_box(agg.group_count());
            started.elapsed()
        });
    }

    // Through `Dsm::run`, with synthetic bodies.  Each batch times a whole
    // run, so the per-run fixed cost (`core.run_empty_ns_*`) is inside; the
    // op counts are large enough to make it a small part.
    {
        // One rank reading and writing resident valid pages: the `ProcCtx`
        // access path with no protocol traffic after the first round.
        const ROUNDS: usize = 4;
        let mut cluster = dsm(1, seed);
        let arr = cluster.alloc_array::<u32>(PAGES * WORDS, Align::Page);
        let rows: Vec<Vec<u32>> = (0..2)
            .map(|_| (0..WORDS).map(|_| rng.next_u64() as u32).collect())
            .collect();
        let words = (ROUNDS * PAGES * WORDS * 2) as u64;
        p.probe("core.access_hit_ns_per_word", words, || {
            let started = Instant::now();
            let out = cluster.run(async |ctx| {
                let mut buf = Vec::new();
                let mut sum = 0u64;
                for round in 0..ROUNDS {
                    for page in 0..PAGES {
                        arr.write_slice(ctx, page * WORDS, &rows[round % 2]).await;
                    }
                    for page in 0..PAGES {
                        arr.read_into(ctx, page * WORDS, WORDS, &mut buf).await;
                        sum += buf[0] as u64;
                    }
                }
                sum
            });
            black_box(out.results);
            started.elapsed()
        });
    }
    {
        // Two ranks pass one page back and forth: each round is one write,
        // one two-rank barrier and one remote fault served with a diff.
        const ROUNDS: usize = 64;
        let mut cluster = dsm(2, seed);
        let arr = cluster.alloc_array::<u32>(WORDS, Align::Page);
        p.probe("core.fault_roundtrip_ns", ROUNDS as u64, || {
            let started = Instant::now();
            let out = cluster.run(async |ctx| {
                let me = ctx.rank();
                let mut buf = Vec::new();
                let mut row = vec![0u32; WORDS];
                for round in 0..ROUNDS {
                    if round % 2 == me {
                        row.fill(round as u32 + 1);
                        arr.write_slice(ctx, 0, &row).await;
                    }
                    ctx.barrier().await;
                    if round % 2 != me {
                        arr.read_into(ctx, 0, WORDS, &mut buf).await;
                        assert_eq!(buf[WORDS - 1], round as u32 + 1);
                    }
                }
            });
            let took = started.elapsed();
            assert_eq!(out.breakdown().faults as usize, ROUNDS);
            took
        });
    }
    {
        // Eight ranks increment one word under one lock.
        const TURNS: u64 = 32;
        let mut cluster = dsm(8, seed);
        let counter = cluster.alloc_scalar::<u64>(Align::Page);
        p.probe("core.lock_handoff_ns", 8 * TURNS, || {
            let started = Instant::now();
            let out = cluster.run(async |ctx| {
                let mut last = 0;
                for _ in 0..TURNS {
                    ctx.acquire(0).await;
                    last = counter.get(ctx).await + 1;
                    counter.set(ctx, last).await;
                    ctx.release(0).await;
                }
                last
            });
            let took = started.elapsed();
            assert_eq!(out.results.iter().max(), Some(&(8 * TURNS)));
            took
        });
    }
    for (barrier, empty, n, episodes, runs) in [
        (
            "core.barrier_ns_n8",
            "core.run_empty_ns_n8",
            8usize,
            64u64,
            16u64,
        ),
        (
            "core.barrier_ns_n1024",
            "core.run_empty_ns_n1024",
            1024,
            4,
            1,
        ),
    ] {
        let cluster = dsm(n, seed);
        p.probe(barrier, episodes, || {
            let started = Instant::now();
            cluster.run(async |ctx| {
                for _ in 0..episodes {
                    ctx.barrier().await;
                }
            });
            started.elapsed()
        });
        // `Dsm::new` + `run` of an empty body: the fixed cost of a cell.
        p.probe(empty, runs, || {
            let started = Instant::now();
            for _ in 0..runs {
                black_box(dsm(n, seed).run(async |_ctx| ()));
            }
            started.elapsed()
        });
    }
}

fn sched_probes(p: &mut Probes<'_>, seed: u64) {
    for (name, n, ops) in [
        ("sched.pick_ns_n8", 8usize, 20_000u64),
        ("sched.pick_ns_n1024", 1024, 4_000),
    ] {
        let sched = Scheduler::new(n, SchedConfig::seeded(seed));
        let mut clocks = vec![0u64; n];
        p.probe(name, ops, || {
            let started = Instant::now();
            for _ in 0..ops {
                let rank = sched.current().expect("someone holds the turn");
                clocks[rank] += 1_000 + (rank as u64 % 7) * 100;
                sched.note_yield(rank, clocks[rank]);
            }
            started.elapsed()
        });
    }
    {
        // A barrier episode as the scheduler sees it: all but one rank block,
        // the last one wakes them.
        const N: usize = 1024;
        const EPISODES: u64 = 8;
        let sched = Scheduler::new(N, SchedConfig::seeded(seed));
        let mut generation = 0u64;
        let mut clock = 0u64;
        p.probe("sched.block_wake_ns_n1024", EPISODES, || {
            let started = Instant::now();
            for _ in 0..EPISODES {
                generation += 1;
                clock += 1_000;
                let key = WaitKey::Barrier(generation);
                for _ in 0..N - 1 {
                    let rank = sched.current().expect("someone holds the turn");
                    sched.note_block(rank, key, clock);
                }
                let last = sched.current().expect("one rank is still runnable");
                assert_eq!(sched.wake_all(key), N - 1);
                sched.note_yield(last, clock);
            }
            started.elapsed()
        });
    }
}

fn net_probes(p: &mut Probes<'_>) {
    const OPS: u64 = 100_000;
    let cost = CostModel::pentium_ethernet_1997();
    let responders = [ResponderCost {
        reply_bytes: PAGE as u64 + 42,
        serve_extra_ns: 1_000,
    }; 3];
    let sources = [1u32, 2, 3];
    let payload = 3 * PAGE as u64;
    p.probe("net.fault_cost_ideal_ns", OPS, || {
        let started = Instant::now();
        for _ in 0..OPS {
            black_box(cost.fault_stall_served(black_box(&responders), black_box(payload)));
        }
        started.elapsed()
    });
    let mut bus = NetworkState::new(Topology::SharedBus, 8);
    let mut now = 0u64;
    p.probe("net.fault_cost_bus_ns", OPS, || {
        let started = Instant::now();
        for _ in 0..OPS {
            now += 1_000;
            black_box(cost.fault_stall_served_on(
                black_box(&responders),
                &sources,
                payload,
                0,
                now,
                &mut bus,
            ));
        }
        started.elapsed()
    });
    let mut switch = NetworkState::new(Topology::Switched, 8);
    let rate = cost.topology_ns_per_byte(Topology::Switched);
    let mut now = 0u64;
    p.probe("net.transmit_switched_ns", OPS, || {
        let started = Instant::now();
        for i in 0..OPS as u32 {
            now += 1_000;
            black_box(switch.transmit(now, i % 8, (i + 3) % 8, PAGE as u64 + 42, rate));
        }
        started.elapsed()
    });
}

fn race_probes(p: &mut Probes<'_>) {
    // Rank 0 writes every 16-word range of every page, both ranks cross a
    // barrier, rank 1 reads the same ranges: ordered accesses, no race.
    const RANGE: usize = 16;
    let calls = (2 * PAGES * WORDS / RANGE) as u64;
    let mut det = RaceDetector::new(2, PAGES as u32, WORDS);
    p.probe("race.record_access_ns", calls, || {
        let started = Instant::now();
        for (rank, kind) in [(0, AccessKind::Write), (1, AccessKind::Read)] {
            for page in 0..PAGES as u32 {
                for w in (0..WORDS).step_by(RANGE) {
                    det.record_access(rank, page, w..w + RANGE, kind);
                }
            }
            if rank == 0 {
                det.on_barrier_arrive(0);
                det.on_barrier_arrive(1);
                det.on_barrier_depart(0);
                det.on_barrier_depart(1);
            }
        }
        let took = started.elapsed();
        // Close the readers' interval too, so the next batch's writes are
        // ordered after them.
        det.on_barrier_arrive(0);
        det.on_barrier_arrive(1);
        det.on_barrier_depart(0);
        det.on_barrier_depart(1);
        assert_eq!(det.race_count(), 0);
        took
    });
}

/// Run every crate-level probe.  `seed` picks the synthetic page contents
/// and the probes' scheduling seeds.
pub fn run_all(seed: u64, quick: bool, tracer: &mut Tracer) -> Vec<ProbeResult> {
    let mut rng = DetRng::new(seed ^ 0x7072_6f62_6573);
    let mut p = Probes::new(tracer, if quick { 3 } else { 9 });
    page_probes(&mut p, &mut rng);
    core_probes(&mut p, &mut rng, seed);
    sched_probes(&mut p, seed);
    net_probes(&mut p);
    race_probes(&mut p);
    p.out
}

/// `tm-bench`'s own work on this workload's grid and results: expanding the
/// cells, rendering the results as JSON, and parsing them back.
pub fn bench_layer(
    workload: &str,
    seed: u64,
    quick: bool,
    results: &[&ExperimentResult],
    tracer: &mut Tracer,
) -> Vec<ProbeResult> {
    // Millisecond-scale operations (parsing `scale_1024`'s four-cell document
    // takes over a second): three batches are enough.
    let mut p = Probes::new(tracer, 3);
    p.probe("bench.expand_ns", 1, || {
        let started = Instant::now();
        black_box(workloads::build(workload, seed, quick));
        started.elapsed()
    });
    let documents: Vec<String> = results
        .iter()
        .map(|r| render(r, OutputFormat::Json))
        .collect();
    p.probe("bench.render_json_ns", 1, || {
        let started = Instant::now();
        for r in results {
            black_box(render(r, OutputFormat::Json));
        }
        started.elapsed()
    });
    p.probe("bench.parse_ns", 1, || {
        let started = Instant::now();
        for d in &documents {
            black_box(parse_result(d).expect("own document parses"));
        }
        started.elapsed()
    });
    p.out
}
