//! What a run asks the allocator for, exactly: per-rank state is sized by
//! what the rank has pending and per-run state by what the program uses —
//! never by `nprocs` per rank or by `max_locks`.
//!
//! An integration test is its own binary, so it can install a counting
//! `#[global_allocator]` without touching the crates it measures.  A
//! deterministic program makes the same allocator calls on every host, which
//! makes these bounds exact where a resident-set measurement would be noise.
//! The counters are per thread (a run stays on the thread that started it),
//! so the tests of this file can run side by side.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tdsm_core::{Align, Dsm, DsmConfig};

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
    const PAGE: u64 = 4096;
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
