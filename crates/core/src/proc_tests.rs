//! What an inline protection check can get wrong: the hit path reads the
//! protection table and nothing else, so these pin that the table says
//! exactly what the trap path's state says — under both write protocols
//! and under one-page, multi-page and dynamic consistency units.

use super::*;
use crate::cluster::Dsm;
use tm_page::Align;

const PAGE: usize = 4096;

/// Both protocols × the three unit shapes.
fn configs(nprocs: usize) -> Vec<DsmConfig> {
    let mut out = Vec::new();
    for protocol in [ProtocolMode::MultiWriter, ProtocolMode::home_based()] {
        for unit in [
            UnitPolicy::Static { pages: 1 },
            UnitPolicy::Static { pages: 4 },
            UnitPolicy::Dynamic { max_group_pages: 4 },
        ] {
            out.push(
                DsmConfig::with_procs(nprocs)
                    .shared_pages(64)
                    .unit(unit)
                    .protocol(protocol),
            );
        }
    }
    out
}

/// The counters a shared access may move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counts {
    faults: usize,
    protection_ops: u64,
    twins: u64,
    dirty_pages: usize,
}

fn counts(ctx: &ProcCtx) -> Counts {
    Counts {
        faults: ctx.stats.faults.len(),
        protection_ops: ctx.stats.protection_ops,
        twins: ctx.stats.twins_created,
        dirty_pages: ctx.dirty_pages.len(),
    }
}

/// `after - before`, field by field.
fn moved(before: Counts, after: Counts) -> Counts {
    Counts {
        faults: after.faults - before.faults,
        protection_ops: after.protection_ops - before.protection_ops,
        twins: after.twins - before.twins,
        dirty_pages: after.dirty_pages - before.dirty_pages,
    }
}

/// How many of `pages` a write by `ctx` twins: all of them under the
/// multi-writer protocol, the ones homed elsewhere under the home-based.
fn twins_for(ctx: &mut ProcCtx, pages: std::ops::RangeInclusive<u32>) -> u64 {
    let me = ctx.rank.0;
    pages
        .filter(|&p| ctx.home_of(PageId(p)) != Some(me))
        .count() as u64
}

#[test]
fn straddling_accesses_fault_on_exactly_the_invalid_pages() {
    for config in configs(2) {
        let unit = config.unit;
        let label = format!("{:?} {:?}", config.protocol, unit);
        // One fault validates a whole static unit; pages 4 and 5 share one
        // only under `Static { pages: 4 }`.
        let faults_on_4_and_5 = if unit == (UnitPolicy::Static { pages: 4 }) {
            1
        } else {
            2
        };
        let mut dsm = Dsm::new(config);
        let base = dsm.alloc_bytes(8 * PAGE as u64, Align::Page);
        let word = |page: u64| base.add(page * PAGE as u64 + 64);
        // Eight bytes of page 3, then on: page 3 is the last page of unit
        // 0..=3 and stays valid throughout, pages 4 and 5 get invalidated.
        let from = base.add(4 * PAGE as u64 - 8);
        dsm.run(async |ctx| {
            let me = ctx.rank();
            let mut buf = vec![0u8; PAGE + 16];
            for (round, (pages_written, len, for_write)) in [
                (1u64, 16usize, false),
                (2, PAGE + 16, false),
                (1, 16, true),
                (2, PAGE + 16, true),
            ]
            .into_iter()
            .enumerate()
            {
                if me == 0 {
                    for p in 4..4 + pages_written {
                        ctx.write_bytes(word(p), &[round as u8 + 1; 4]).await;
                    }
                }
                ctx.barrier().await;
                if me == 1 {
                    let last_page = (3 + pages_written) as u32;
                    let before = counts(ctx);
                    if for_write {
                        ctx.write_bytes(from, &buf[..len]).await;
                    } else {
                        ctx.read_bytes(from, &mut buf[..len]).await;
                    }
                    let faults = if pages_written == 1 {
                        1
                    } else {
                        faults_on_4_and_5
                    };
                    let written = if for_write { last_page - 3 + 1 } else { 0 };
                    let want = Counts {
                        faults,
                        // One validation per fault, one re-protection per
                        // page entering the write set.
                        protection_ops: faults as u64 + written as u64,
                        twins: if for_write {
                            twins_for(ctx, 3..=last_page)
                        } else {
                            0
                        },
                        dirty_pages: written as usize,
                    };
                    assert_eq!(moved(before, counts(ctx)), want, "{label} round {round}");
                    for p in 3..=last_page {
                        assert_eq!(ctx.prot[p as usize] & PROT_INVALID, 0, "{label}");
                    }
                    // The same access again is a pure hit.
                    let before = counts(ctx);
                    ctx.read_bytes(from, &mut buf[..len]).await;
                    if for_write {
                        ctx.write_bytes(from, &buf[..len]).await;
                    }
                    assert_eq!(before, counts(ctx), "{label} round {round} repeated");
                }
                ctx.barrier().await;
            }
        });
    }
}

#[test]
fn a_write_twins_once_per_interval_and_closing_clears_the_dirty_bits() {
    for config in configs(2) {
        let label = format!("{:?} {:?}", config.protocol, config.unit);
        let mut dsm = Dsm::new(config);
        let arr = dsm.alloc_array::<u32>(2 * PAGE / 4, Align::Page);
        dsm.run(async |ctx| {
            if ctx.rank() == 1 {
                for interval in 0..3u32 {
                    // First write to a valid, clean page: one twin (where
                    // the protocol twins at all), one write-set entry.
                    let before = counts(ctx);
                    arr.set(ctx, 5, interval).await;
                    let want = Counts {
                        faults: 0,
                        protection_ops: 1,
                        twins: twins_for(ctx, 0..=0),
                        dirty_pages: 1,
                    };
                    assert_eq!(moved(before, counts(ctx)), want, "{label}");
                    assert_eq!(ctx.prot[0], PROT_DIRTY, "{label}");
                    assert_eq!(ctx.prot[1], 0, "{label}: untouched neighbour");
                    assert_eq!(ctx.dirty_pages, [PageId(0)]);

                    // A second write — the same word or another — nothing.
                    let before = counts(ctx);
                    arr.set(ctx, 5, interval + 100).await;
                    arr.set(ctx, 900, interval).await;
                    assert_eq!(before, counts(ctx), "{label}");

                    ctx.barrier().await;
                    assert!(ctx.prot.iter().all(|&b| b & PROT_DIRTY == 0), "{label}");
                    assert!(ctx.dirty_pages.is_empty(), "{label}");
                }
            } else {
                for _ in 0..3 {
                    ctx.barrier().await;
                }
            }
        });
    }
}

#[test]
fn a_write_notice_makes_the_next_word_read_fault() {
    for config in configs(2) {
        let label = format!("{:?} {:?}", config.protocol, config.unit);
        let mut dsm = Dsm::new(config);
        let arr = dsm.alloc_array::<u32>(PAGE / 4, Align::Page);
        dsm.run(async |ctx| {
            for round in 1..=3u32 {
                if ctx.rank() == 0 {
                    arr.set(ctx, 7, round).await;
                }
                ctx.barrier().await;
                if ctx.rank() == 1 {
                    assert_eq!(ctx.prot[0], PROT_INVALID, "{label}");
                    let before = counts(ctx);
                    assert_eq!(arr.get(ctx, 7).await, round, "{label}");
                    let want = Counts {
                        faults: 1,
                        protection_ops: 1,
                        twins: 0,
                        dirty_pages: 0,
                    };
                    assert_eq!(moved(before, counts(ctx)), want, "{label}");
                    assert_eq!(ctx.prot[0], 0, "{label}");
                    let before = counts(ctx);
                    assert_eq!(arr.get(ctx, 7).await, round, "{label}");
                    assert_eq!(before, counts(ctx), "{label}: second read hits");
                }
                ctx.barrier().await;
            }
        });
    }
}

#[test]
fn accesses_of_every_size_and_offset_match_a_flat_memory() {
    for config in configs(2) {
        let label = format!("{:?} {:?}", config.protocol, config.unit);
        let mut dsm = Dsm::new(config);
        let base = dsm.alloc_bytes(4 * PAGE as u64, Align::Page);
        dsm.run(async |ctx| {
            // Every rank keeps the same flat model; rank 0 performs the
            // accesses, rank 1 checks the whole image after each batch.
            let mut model = vec![0u8; 4 * PAGE];
            let mut image = vec![0u8; 4 * PAGE];
            let mut next = 1u8;
            for offset in [0, 1, PAGE - 8, PAGE - 4, PAGE - 1] {
                for len in [1, 2, 4, 8, 12, PAGE] {
                    // Accesses start in the second page, so that the longest
                    // one at the last offset ends inside the fourth.
                    let at = PAGE + offset;
                    let src: Vec<u8> = (0..len)
                        .map(|_| {
                            next = next.wrapping_mul(31).wrapping_add(7);
                            next
                        })
                        .collect();
                    model[at..at + len].copy_from_slice(&src);
                    if ctx.rank() == 0 {
                        ctx.write_bytes(base.add(at as u64), &src).await;
                        let mut got = vec![0u8; len];
                        ctx.read_bytes(base.add(at as u64), &mut got).await;
                        assert_eq!(got, src, "{label} {len}@{offset}");
                    }
                }
                ctx.barrier().await;
                if ctx.rank() == 1 {
                    // In pieces of every size first, then whole.
                    for len in [1, 2, 4, 8, 12, PAGE] {
                        let at = PAGE + offset;
                        ctx.read_bytes(base.add(at as u64), &mut image[..len]).await;
                        assert_eq!(image[..len], model[at..at + len], "{label} {len}@{offset}");
                    }
                    ctx.read_bytes(base, &mut image).await;
                    assert!(image == model, "{label}: image diverged at offset {offset}");
                }
                ctx.barrier().await;
            }
        });
    }
}

/// A barrier departure incorporates from the episode's changed writers only.
/// Here every way a writer can be skipped or already covered occurs at once:
/// rank 1 learnt rank 0's interval from a lock grant — its clock is *ahead*
/// of the previous barrier's snapshot — and rank 3 publishes nothing between
/// the two barriers.  What each rank incorporates, invalidates and is charged
/// for on departure is pinned.
#[test]
fn barrier_departure_incorporates_exactly_the_notices_a_rank_lacks() {
    for protocol in [ProtocolMode::MultiWriter, ProtocolMode::home_based()] {
        let label = format!("{protocol:?}");
        let mut dsm = Dsm::new(
            DsmConfig::with_procs(4)
                .shared_pages(64)
                .protocol(protocol)
                .sched(tm_sched::SchedConfig::fifo()),
        );
        let arr = dsm.alloc_array::<u32>(2 * PAGE / 4, Align::Page);
        let out = dsm.run(async |ctx| {
            let me = ctx.rank();
            ctx.barrier().await;
            match me {
                0 => {
                    ctx.acquire(0).await;
                    arr.set(ctx, 3, 7).await;
                    ctx.release(0).await;
                }
                1 => {
                    // Ask for the lock well after rank 0 released it.
                    ctx.compute(10_000_000);
                    ctx.acquire(0).await;
                    assert_eq!(
                        ctx.vc.get(0),
                        1,
                        "{label}: the grant carried rank 0's interval"
                    );
                    assert_eq!(arr.get(ctx, 3).await, 7, "{label}");
                    ctx.release(0).await;
                }
                2 => arr.set(ctx, PAGE / 4 + 1, 9).await,
                _ => {}
            }
            let ops_before = ctx.stats.protection_ops;
            let departs_before = ctx.stats.control[MsgKind::BarrierDepart as usize];
            ctx.barrier().await;
            let departs = ctx.stats.control[MsgKind::BarrierDepart as usize];
            // The notices the departure message of this barrier carried, if
            // it sent one.
            let notices = (departs.messages > departs_before.messages).then(|| {
                assert_eq!(departs.messages, departs_before.messages + 1, "{label}");
                (departs.bytes - departs_before.bytes - MSG_HEADER_BYTES) / NOTICE_WIRE_BYTES
            });
            (
                notices,
                ctx.stats.protection_ops - ops_before,
                [ctx.vc.get(0), ctx.vc.get(1), ctx.vc.get(2), ctx.vc.get(3)],
            )
        });
        assert_eq!(
            out.results,
            vec![
                // Rank 0 (the barrier manager, no departure message) lacks
                // rank 2's notice: one invalidation.
                (None, 1, [1, 0, 1, 0]),
                // Rank 1 has rank 0's notice from the grant already.
                (Some(1), 1, [1, 0, 1, 0]),
                // Rank 2 re-protects the page it wrote, then invalidates
                // rank 0's.
                (Some(1), 2, [1, 0, 1, 0]),
                (Some(2), 2, [1, 0, 1, 0]),
            ],
            "{label}"
        );
    }
}

/// A home-based run of `nprocs` ranks over 8-page consistency units, with
/// the shared space starting at page 0 so the homes are `page % nprocs`.
fn home_based_units(nprocs: usize) -> (Dsm, GlobalAddr) {
    let mut dsm = Dsm::new(
        DsmConfig::with_procs(nprocs)
            .shared_pages(64)
            .unit(UnitPolicy::Static { pages: 8 })
            .protocol(ProtocolMode::home_based()),
    );
    let base = dsm.alloc_bytes(8 * PAGE as u64, Align::Page);
    assert_eq!(base, GlobalAddr(0));
    (dsm, base)
}

#[test]
fn a_fault_on_a_self_homed_page_sends_nothing_under_home_based() {
    let (dsm, base) = home_based_units(2);
    dsm.run(async |ctx| {
        // Rank 1 writes page 0, whose home is rank 0: the flush reaches the
        // master copy rank 0 holds, so rank 0's fault refreshes locally.
        if ctx.rank() == 1 {
            ctx.write_bytes(base.add(64), &[5; 4]).await;
        }
        ctx.barrier().await;
        if ctx.rank() == 0 {
            let (faults, exchanges) = (ctx.stats.faults.len(), ctx.stats.exchanges.len());
            let mut word = [0u8; 4];
            ctx.read_bytes(base.add(64), &mut word).await;
            assert_eq!(word, [5; 4]);
            assert_eq!(ctx.stats.faults.len(), faults + 1);
            assert!(ctx.stats.faults[faults].exchange_ids.is_empty());
            assert_eq!(ctx.stats.exchanges.len(), exchanges);
            assert_eq!(ctx.stats.page_fetches, 0);
            assert_eq!(ctx.stats.prefetched_faults, 1);
        }
    });
}

#[test]
fn a_fault_on_pages_of_two_remote_homes_is_one_exchange_per_home_in_home_order() {
    let (dsm, base) = home_based_units(3);
    let page_size = PAGE as u64;
    dsm.run(async |ctx| {
        // Rank 2 writes pages 2 (its own home), 4 and 7 (homed at rank 1).
        // Rank 0's fault on the unit gathers them in page order — home 2
        // first — but is served home by home, in ascending order.
        if ctx.rank() == 2 {
            for page in [2, 4, 7] {
                ctx.write_bytes(base.add(page * page_size), &[page as u8; 4])
                    .await;
            }
        }
        ctx.barrier().await;
        if ctx.rank() == 0 {
            let first = ctx.stats.exchanges.len();
            let mut word = [0u8; 4];
            ctx.read_bytes(base.add(2 * page_size), &mut word).await;
            assert_eq!(word, [2; 4]);
            let fault = ctx.stats.faults.last().expect("the read faulted");
            assert_eq!(fault.exchange_ids, first as u32..first as u32 + 2);
            assert_eq!(ctx.exchange.responder_ranks, [1, 2]);
            for (exchange, pages) in ctx.stats.exchanges[first..].iter().zip([2u64, 1]) {
                assert_eq!(
                    exchange.wire_bytes,
                    2 * MSG_HEADER_BYTES + 8 * pages + pages * page_size
                );
                assert_eq!(exchange.delivered_payload, pages * page_size);
            }
            assert_eq!(ctx.stats.page_fetches, 3);
        }
    });
}

/// The message `fut` panics with when polled.  (A panic that escapes a
/// processor body reaches the caller of `Dsm::run` re-raised under another
/// message, so the access is polled by hand.)
fn panic_message(fut: impl std::future::Future) -> String {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::task::{Context, Waker};
    let mut fut = std::pin::pin!(fut);
    let mut cx = Context::from_waker(Waker::noop());
    let payload = catch_unwind(AssertUnwindSafe(|| {
        let _ = fut.as_mut().poll(&mut cx);
    }))
    .expect_err("the access must panic");
    match payload.downcast::<String>() {
        Ok(message) => *message,
        Err(payload) => payload
            .downcast_ref::<&str>()
            .expect("panic payload is a string")
            .to_string(),
    }
}

#[test]
fn an_access_outside_the_space_fails_the_range_check_even_when_its_end_overflows() {
    let mut dsm = Dsm::new(DsmConfig::with_procs(1).shared_pages(64));
    let base = dsm.alloc_bytes(PAGE as u64, Align::Page);
    dsm.run(async |ctx| {
        let mut buf = [0u8; 8];
        let overflowing = panic_message(ctx.read_bytes(GlobalAddr(u64::MAX - 3), &mut buf));
        assert!(
            overflowing.starts_with("range [g+0xfffffffffffffffc, +8) exceeds shared space"),
            "{overflowing}"
        );
        let one_past = panic_message(ctx.write_bytes(base.add(PAGE as u64 - 7), &buf));
        assert!(
            one_past.contains("exceeds shared space of 4096 bytes"),
            "{one_past}"
        );
        // Up to the last byte is fine, and so is nothing at all anywhere.
        ctx.write_bytes(base.add(PAGE as u64 - 8), &buf).await;
        ctx.read_bytes(GlobalAddr(u64::MAX), &mut []).await;
    });
}

/// TreadMarks' GC validation flush, under both protocols: a rank holding
/// more pending notices than `gc_flush_pending_limit` fetches them all at its
/// next barrier, as one flush that is not a fault — one exchange per writer,
/// or per remote home — and leaves every flushed page valid.
#[test]
fn a_gc_flush_fetches_every_pending_notice_and_validates_its_pages() {
    for protocol in [ProtocolMode::MultiWriter, ProtocolMode::home_based()] {
        let label = format!("{protocol:?}");
        let mut dsm = Dsm::new(
            DsmConfig::with_procs(4)
                .shared_pages(64)
                .protocol(protocol)
                .gc_flush_pending_limit(2),
        );
        let base = dsm.alloc_bytes(8 * PAGE as u64, Align::Page);
        assert_eq!(base, GlobalAddr(0), "homes are `page % 4`");
        let word = |page: u64| base.add(page * PAGE as u64 + 64);
        // `(writer, page)`: rank 0 then holds three notices of two writers,
        // on pages homed at ranks 1, 3 and 2.  Rank 2 holds two (not past
        // the limit), rank 3 three (it flushes too).
        let writes = [(1, 1), (1, 3), (2, 2)];
        let exchanges = if protocol.is_home_based() { 3 } else { 2 };
        dsm.run(async |ctx| {
            for (writer, page) in writes {
                if ctx.rank() == writer {
                    ctx.write_bytes(word(page), &[page as u8; 4]).await;
                }
            }
            ctx.barrier().await;
            if ctx.rank() != 0 {
                ctx.barrier().await;
                return;
            }
            assert_eq!(ctx.notices.len(), 3, "{label}");
            let flushes = ctx.stats.gc_pending_flushes;
            let faults = ctx.stats.faults.len();
            let first = ctx.stats.exchanges.len();
            ctx.barrier().await;
            assert_eq!(ctx.stats.gc_pending_flushes, flushes + 1, "{label}");
            assert_eq!(ctx.stats.exchanges.len(), first + exchanges, "{label}");
            assert_eq!(ctx.stats.faults.len(), faults, "{label}: no fault record");
            assert_eq!(ctx.notices.len(), 0, "{label}");
            for (_, page) in writes {
                let mut got = [0u8; 4];
                ctx.read_bytes(word(page), &mut got).await;
                assert_eq!(got, [page as u8; 4], "{label}");
            }
            assert_eq!(ctx.stats.faults.len(), faults, "{label}: the reads hit");
        });
    }
}
