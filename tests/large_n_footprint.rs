//! What a run asks the allocator for, exactly: per-rank state is sized by
//! what the rank has pending and per-run state by what the program uses —
//! never by `nprocs` per rank or by `max_locks` — and once warm, a round of
//! a program allocates only the records it leaves behind.
//!
//! An integration test is its own binary, so it can install a counting
//! `#[global_allocator]` without touching the crates it measures.  A
//! deterministic program makes the same allocator calls on every host, which
//! makes these bounds exact where a resident-set measurement would be noise.
//! The counters are per thread (a run stays on the thread that started it),
//! so the tests of this file can run side by side.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tdsm_core::{Align, Dsm, DsmConfig, GlobalAddr, ProtocolMode, UnitPolicy};

thread_local! {
    /// `(bytes requested, allocator calls)` of this thread.  Const-initialized
    /// and without a destructor, so touching it never allocates.
    static REQUESTED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// The system allocator, counting the bytes and calls each thread requests
/// (frees are not counted — the same convention as the repo benchmark's
/// `alloc_mib` and `alloc_calls_k`).
struct CountingAlloc;

fn note(bytes: usize) {
    REQUESTED.with(|r| {
        let (b, c) = r.get();
        r.set((b + bytes as u64, c + 1));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` obligations pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr`/`layout` come from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` come from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const MIB: u64 = 1 << 20;
const PAGE: u64 = 4096;

/// `(bytes, calls)` this thread requests while running `run`.
fn requested(run: impl FnOnce()) -> (u64, u64) {
    let before = REQUESTED.with(Cell::get);
    run();
    let after = REQUESTED.with(Cell::get);
    (after.0 - before.0, after.1 - before.1)
}

/// `(bytes, calls)` one run of `barriers` barriers followed by `handoffs`
/// acquire/release pairs of lock 0 per rank requests, cluster construction
/// included.
fn requested_by(nprocs: usize, barriers: usize, handoffs: usize) -> (u64, u64) {
    requested(|| {
        let dsm = Dsm::new(DsmConfig::with_procs(nprocs));
        let out = dsm.run(async |ctx| {
            for _ in 0..barriers {
                ctx.barrier().await;
            }
            for _ in 0..handoffs {
                ctx.acquire(0).await;
                ctx.release(0).await;
            }
        });
        assert_eq!(out.results.len(), nprocs);
    })
}

/// At PR 16 an empty body on 1024 processors requested 46.7 MiB in 10 263
/// calls (24 MiB of empty per-writer maps, 16 MiB of lock clocks) and four
/// barriers 50.9 MiB (a dense floor vector per rank on top).
#[test]
fn a_1024_processor_run_requests_a_few_mib() {
    let (empty_bytes, empty_calls) = requested_by(1024, 0, 0);
    assert!(
        empty_bytes < 8 * MIB,
        "empty body: {empty_bytes} bytes in {empty_calls} calls"
    );
    let (barrier_bytes, barrier_calls) = requested_by(1024, 4, 0);
    assert!(
        barrier_bytes < 8 * MIB,
        "four barriers: {barrier_bytes} bytes in {barrier_calls} calls"
    );
}

/// At PR 16: 4 198 calls, 4 097 of them the 4 096-lock table of a program
/// that takes no lock.
#[test]
fn a_run_that_takes_no_lock_pays_for_no_lock() {
    let (bytes, calls) = requested_by(8, 4, 0);
    assert!(
        calls < 200,
        "four barriers on 8 processors: {calls} calls ({bytes} bytes)"
    );
}

/// At PR 16 every hand-off cloned the releaser's clock into the lock and the
/// lock's into the grant: 2.007 calls per hand-off.  Now the lock keeps one
/// buffer and the acquirer another, and its messages are tallied, not
/// logged: a hundred times the hand-offs make not one call more.
#[test]
fn a_lock_handoff_allocates_nothing() {
    let (_, few) = requested_by(8, 0, 10);
    let (_, many) = requested_by(8, 0, 1000);
    assert_eq!(
        many, few,
        "8 x 10 hand-offs: {few} calls, 8 x 1000 hand-offs: {many} calls"
    );
}

/// `(bytes, calls)` of a run in which rank 0 writes one word of each of
/// `pages` pages and every rank then crosses one barrier, so each of the
/// other ranks incorporates `pages` write notices at departure.
fn requested_by_one_episode(nprocs: usize, pages: u64) -> (u64, u64) {
    requested(|| {
        let mut dsm = Dsm::new(DsmConfig::with_procs(nprocs));
        let base = dsm.alloc_bytes(pages * PAGE, Align::Page);
        let out = dsm.run(async |ctx| {
            if ctx.rank() == 0 {
                for page in 0..pages {
                    ctx.write_bytes(base.add(page * PAGE), &[1; 8]).await;
                }
            }
            ctx.barrier().await;
        });
        assert_eq!(out.results.len(), nprocs);
    })
}

/// Each receiving rank files a barrier episode's notices in its notice slab,
/// which grows by one fixed block per 64 notices pending at once.  A
/// receiver's first notice costs it two calls (the first block and the
/// table of blocks), and 31 more cost it none.  When every notice went into
/// a per-page `Vec` and an ordered-map entry, those 31 extra notices on each
/// of 1 023 receivers cost 31 974 more calls; now the difference is 261,
/// all the writer's own: each extra page's twin, diff and first-touch state
/// on rank 0.
#[test]
fn a_barrier_episode_files_notices_in_blocks_not_one_call_per_notice() {
    let receivers = 1023;
    let (_, none) = requested_by_one_episode(1024, 0);
    let (_, one) = requested_by_one_episode(1024, 1);
    let (_, many) = requested_by_one_episode(1024, 32);
    assert!(
        one - none < 3 * receivers,
        "no notice: {none} calls, one per receiver: {one} calls"
    );
    assert!(
        many - one < receivers,
        "one notice per receiver: {one} calls, 32 per receiver: {many} calls"
    );
}

/// `(bytes, calls)` of a run in which rank 0 overwrites each of `pages`
/// pages whole, every rank crosses a barrier, and then, when `read`, every
/// other rank reads each of those pages whole and one word of each of
/// `pages` pages nobody wrote.  (A read, whole or partial, consumes a
/// delivery's attribution in its exchange's word mask and allocates
/// nothing.)
fn requested_by_readers(nprocs: usize, pages: u64, read: bool) -> (u64, u64) {
    requested(|| {
        let mut dsm = Dsm::new(DsmConfig::with_procs(nprocs));
        let unwritten = dsm.alloc_bytes(pages * PAGE, Align::Page);
        let overwritten = dsm.alloc_bytes(pages * PAGE, Align::Page);
        let out = dsm.run(async |ctx| {
            if ctx.rank() == 0 {
                for page in 0..pages {
                    let image = [page as u8 + 1; PAGE as usize];
                    ctx.write_bytes(overwritten.add(page * PAGE), &image).await;
                }
            }
            ctx.barrier().await;
            if read && ctx.rank() != 0 {
                let (mut word, mut image) = ([0u8; 4], [0u8; PAGE as usize]);
                for page in 0..pages {
                    ctx.read_bytes(unwritten.add(page * PAGE), &mut word).await;
                    assert_eq!(word, [0; 4]);
                    ctx.read_bytes(overwritten.add(page * PAGE), &mut image)
                        .await;
                    assert_eq!(image, [page as u8 + 1; PAGE as usize]);
                }
            }
        });
        assert_eq!(out.results.len(), nprocs);
    })
}

/// A page a rank only reads starts on the run's one zero image and, once
/// fetched whole, adopts the writer's image: it costs its slot and the
/// fault, never an image of its own.  When every page a rank touched began
/// as a private zero-filled image (copied out of a throwaway `Vec`, so two
/// page-sized requests) plus a changed-word set, each (rank, page) cost
/// about 8.3 KiB; over the zero image it costs about 150 bytes.
#[test]
fn a_page_only_read_costs_no_image() {
    let (nprocs, pages) = (64, 16);
    let (idle, _) = requested_by_readers(nprocs, pages, false);
    let (reading, calls) = requested_by_readers(nprocs, pages, true);
    let touched = (nprocs as u64 - 1) * 2 * pages;
    let per_page = (reading - idle) / touched;
    assert!(
        per_page < PAGE / 2,
        "{per_page} bytes per (rank, page) read ({reading} bytes in {calls} calls, {idle} without the reads)"
    );
}

/// What one run of [`steady_program`] asks the allocator for, and the run's
/// own counters the steady-state bound is computed from.
#[derive(Default)]
struct RunTally {
    calls: u64,
    /// Published intervals, all ranks (`intervals_closed`).
    intervals: u64,
    /// Barrier episodes (every rank crosses each one).
    episodes: u64,
    /// Growth steps of every rank's exchange and fault logs, from their
    /// lengths (see [`growth_steps`]).
    log_growth: u64,
    gc_flushes: u64,
    prefetched_faults: u64,
}

/// The allocator calls a `Vec` makes growing by `push` from empty to `len`
/// elements of at most 1 KiB each: the first push reserves four, and every
/// push past the capacity doubles it.
fn growth_steps(len: usize) -> u64 {
    if len == 0 {
        0
    } else {
        1 + u64::from(len.div_ceil(4).next_power_of_two().trailing_zeros())
    }
}

const STEADY_PROCS: usize = 8;

/// `rounds` rounds of a program with barriers, a lock and sparse sharing on
/// eight processors.  Each round, every rank writes one word of each of the
/// six pages of its own block and its own word of a page all ranks share
/// (an interval of seven pages), crosses a barrier, reads four pages of its
/// right neighbour's block and every rank's word of the shared page, then
/// under lock 0 bumps a counter and writes its own word of each of five
/// pages the lock protects (an interval of five pages), and crosses a
/// second barrier.  The other two pages of every block are never read, so
/// their notices pile up until a GC validation flush fetches them.
fn steady_program(config: DsmConfig, rounds: u32) -> RunTally {
    const BLOCK: u64 = 6;
    const LOCKED: u64 = 5;
    let mut tally = RunTally::default();
    let (_, calls) = requested(|| {
        let mut dsm = Dsm::new(config);
        let blocks = dsm.alloc_bytes(STEADY_PROCS as u64 * BLOCK * PAGE, Align::Page);
        let shared = dsm.alloc_bytes(PAGE, Align::Page);
        let locked = dsm.alloc_bytes(LOCKED * PAGE, Align::Page);
        let out = dsm.run(async |ctx| {
            let (rank, nprocs) = (ctx.rank() as u64, ctx.nprocs() as u64);
            let word = |base: GlobalAddr, page: u64, w: u64| base.add(page * PAGE + 4 * w);
            let mut buf = [0u8; 4];
            for round in 1..=rounds {
                let value = (round + rank as u32).to_le_bytes();
                for page in 0..BLOCK {
                    ctx.write_bytes(word(blocks, rank * BLOCK + page, 0), &value)
                        .await;
                }
                ctx.write_bytes(word(shared, 0, rank), &value).await;
                ctx.barrier().await;
                let right = (rank + 1) % nprocs;
                for page in 0..4 {
                    ctx.read_bytes(word(blocks, right * BLOCK + page, 0), &mut buf)
                        .await;
                    assert_eq!(u32::from_le_bytes(buf), round + right as u32);
                }
                for w in 0..nprocs {
                    ctx.read_bytes(word(shared, 0, w), &mut buf).await;
                    assert_eq!(u32::from_le_bytes(buf), round + w as u32);
                }
                ctx.acquire(0).await;
                ctx.read_bytes(word(locked, 0, 0), &mut buf).await;
                let count = u32::from_le_bytes(buf) + 1;
                ctx.write_bytes(word(locked, 0, 0), &count.to_le_bytes())
                    .await;
                for page in 0..LOCKED {
                    ctx.write_bytes(word(locked, page, rank + 1), &value).await;
                }
                ctx.release(0).await;
                ctx.barrier().await;
            }
        });
        assert_eq!(out.results.len(), STEADY_PROCS);
        for p in &out.stats.per_proc {
            tally.intervals += p.intervals_closed;
            tally.log_growth += growth_steps(p.exchanges.len()) + growth_steps(p.faults.len());
            tally.gc_flushes += p.gc_pending_flushes;
            tally.prefetched_faults += p.prefetched_faults;
        }
        tally.episodes = out.stats.per_proc[0].barriers;
    });
    tally.calls = calls;
    tally
}

/// What sealing one barrier episode allocates when all eight processors
/// published since the previous one: the `Rc` the departing processors
/// share, the `BarrierEpoch`'s published-interval snapshot, its GC
/// watermarks, and its changed-writer list, which is collected by `push`
/// and so takes two calls to reach eight writers.
const EPISODE_CALLS: u64 = 5;

/// Rounds of [`steady_program`] before the measured window: by then every
/// pool, table, scratch buffer and notice slab has reached the size the
/// program's GC flush cycle needs (under Dyn, rounds 33 to 40 still made one
/// call of growth).
const WARM_UP: u32 = 48;
/// Rounds in the measured window.
const MEASURED: u32 = 16;

/// Once warm, a round allocates only what it leaves behind: per published
/// interval its record's page list and vector-clock clone, per barrier
/// episode its sealed `BarrierEpoch`, and the growth steps of each rank's
/// exchange and fault logs — exactly, in both write protocols, with static
/// units of one and four pages and with dynamic page groups, and with GC
/// validation flushes and group prefetches inside the window.  A container
/// built again per fault, per flush, per close or per synchronization shows
/// up as an excess here.
#[test]
fn a_steady_state_round_allocates_only_its_records() {
    let base = DsmConfig::with_procs(STEADY_PROCS).gc_flush_pending_limit(128);
    let configs = [
        ("multi-writer 4K", base.clone()),
        (
            "multi-writer 16K",
            base.clone().unit(UnitPolicy::Static { pages: 4 }),
        ),
        (
            "multi-writer Dyn",
            base.clone()
                .unit(UnitPolicy::Dynamic { max_group_pages: 4 }),
        ),
        ("home-based 4K", base.protocol(ProtocolMode::HomeBased)),
    ];
    let mut report = String::new();
    let mut exact = true;
    for (name, config) in configs {
        let short = steady_program(config.clone(), WARM_UP + MEASURED);
        let long = steady_program(config.clone(), WARM_UP + 2 * MEASURED);
        let calls = long.calls - short.calls;
        let intervals = long.intervals - short.intervals;
        let episodes = long.episodes - short.episodes;
        let log_growth = long.log_growth - short.log_growth;
        let flushes = long.gc_flushes - short.gc_flushes;
        let allowed = 2 * intervals + EPISODE_CALLS * episodes + log_growth;
        report += &format!(
            "\n  {name}: {calls} calls, allowed {allowed} = 2 x {intervals} intervals \
             + {EPISODE_CALLS} x {episodes} episodes + {log_growth} log growth steps \
             ({flushes} GC flushes)"
        );
        exact &= calls == allowed;
        assert!(
            flushes > 0,
            "{name}: no GC validation flush in the measured window"
        );
        if matches!(config.unit, UnitPolicy::Dynamic { .. }) {
            assert!(
                long.prefetched_faults > short.prefetched_faults,
                "{name}: no page-group prefetch in the measured window"
            );
        }
    }
    assert!(
        exact,
        "{MEASURED} steady-state rounds past {WARM_UP} allocate beyond their records:{report}"
    );
}
