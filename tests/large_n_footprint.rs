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

use tdsm_core::{Dsm, DsmConfig};

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

/// `(bytes, calls)` one run of `barriers` barriers followed by `handoffs`
/// acquire/release pairs of lock 0 per rank requests, cluster construction
/// included.
fn requested_by(nprocs: usize, barriers: usize, handoffs: usize) -> (u64, u64) {
    let before = REQUESTED.with(Cell::get);
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
    drop(out);
    let after = REQUESTED.with(Cell::get);
    (after.0 - before.0, after.1 - before.1)
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
