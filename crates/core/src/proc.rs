//! The per-processor protocol engine and application-facing context.
//!
//! A [`ProcCtx`] is handed to the application closure running on each
//! simulated processor.  It implements:
//!
//! * access detection (the stand-in for VM page faults): every read or write
//!   checks the validity of the consistency units it touches and runs the
//!   fault handler when needed,
//! * the write-protocol seam ([`ProtocolMode`]): the multiple-writer
//!   protocol (twin on first write, diffs served per concurrent writer) or
//!   the home-based single-writer protocol (no twin on the home, eager diff
//!   flushes to the homes at close, whole-page fetches on faults),
//! * lazy release consistency: write notices gathered at acquires and
//!   barriers, pages invalidated, diffs fetched on demand,
//! * static aggregation (consistency units of several pages) and the paper's
//!   dynamic page-group aggregation, and
//! * the instrumentation: exchange records, per-word useful-data credit, and
//!   the false-sharing signature.

use std::rc::Rc;
use std::sync::Arc;

use tm_net::{
    AggregationPolicy, CostModel, DiffExchange, FaultRecord, LogicalClock, MsgKind, ProcId,
    ProcStats, ResponderCost, MSG_HEADER_BYTES,
};
use tm_page::{Diff, GlobalAddr, PageId, PageLayout, PageStore, WORD_SIZE};
use tm_race::{AccessKind, SyncEvent};

use crate::aggregation::DynamicAggregator;
use crate::cluster::RunState;
use crate::config::{DsmConfig, UnitPolicy};
use crate::interval::{IntervalId, IntervalRecord, NOTICE_WIRE_BYTES};
use crate::notice::NoticeSlab;
use crate::protocol::{round_robin_home, ProtocolMode};
use crate::vc::VectorClock;

/// Protection-table bit: the page may not be accessed without running the
/// fault handler.  Set by write-notice invalidation, cleared by the fault
/// handler and the GC validation flush.
const PROT_INVALID: u8 = 1;
/// Protection-table bit: the page belongs to the current open interval's
/// write set (and has a twin, unless this processor is the page's home
/// under the home-based protocol).  Set by write detection, cleared when
/// the interval closes.
const PROT_DIRTY: u8 = 2;

/// One pending write notice a fetch has to make good.  The derived order
/// sorts by responder and, `ord` being unique, keeps gather order within
/// one: a stable sort by responder that allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Want {
    /// The processor that serves it: the notice's writer, or under the
    /// home-based protocol the page's home.
    responder: u32,
    /// Position in gather order (page by page, notices in arrival order).
    ord: u32,
    page: PageId,
    seq: u32,
}

/// One fetched diff awaiting application.
#[derive(Debug)]
struct Fetched {
    /// Vector-clock weight of the diff's interval.
    weight: u64,
    writer: u32,
    seq: u32,
    /// Position in fetch order, the final tie-break of the apply order.
    ord: u32,
    diff: Arc<Diff>,
    exchange: u32,
}

/// Working storage of the fetch step and of the interval close, one per
/// processor (a close and a fetch never run at once).  Nothing in it
/// outlives the round or the close that fills it, so it is refilled by
/// every one instead of a dozen containers being built and dropped.  Sized
/// by what a round or a close touches, never by the cluster or the address
/// space; the capacity of the largest round (a GC validation flush) is
/// kept, because re-growing it after every flush allocates more than the
/// flush's own containers used to.
#[derive(Debug, Default)]
struct ExchangeScratch {
    /// An interval close's `(page, diff)` staging vector; the log drains it
    /// in place at publication.
    diffs: Vec<(PageId, Arc<Diff>)>,
    /// Home-based protocol: the diff wire bytes an interval close flushes
    /// to each home, as `(home, bytes)` in home order.
    flushes: Vec<(u32, u64)>,
    /// The pages the fault or GC validation flush being served fetches,
    /// filled by it before [`ProcCtx::exchange_pending`].
    pages: Vec<PageId>,
    wants: Vec<Want>,
    /// Per responder contacted: reply size and serve-side extras.
    responder_costs: Vec<ResponderCost>,
    /// Rank serving `responder_costs[i]` (writer or home) — the source
    /// endpoint when replies are routed through a contended topology.
    responder_ranks: Vec<u32>,
    to_apply: Vec<Fetched>,
    /// Word bitset lent to `LocalPage::deliver`.
    cover: Vec<u64>,
}

/// The application-facing handle for one simulated processor.
pub struct ProcCtx {
    rank: ProcId,
    nprocs: usize,
    layout: PageLayout,
    unit: UnitPolicy,
    cost: CostModel,
    store: PageStore,
    /// The protection table: one byte of `PROT_*` bits per page, the
    /// simulator's stand-in for the MMU's protection bits.  Every shared
    /// access checks it inline; only a failed check enters the trap path.
    /// Host-only state: no bit of it ever reaches a result document.
    prot: Vec<u8>,
    /// Write notices received whose diffs have not been applied yet, as
    /// `(writer, interval seq)` per page — the slow-changing per-page state
    /// only the trap path reads.  Its size is also the GC validation flush's
    /// trigger, and its notices are this processor's GC floors.
    notices: NoticeSlab,
    dirty_pages: Vec<PageId>,
    vc: VectorClock,
    clock: LogicalClock,
    stats: ProcStats,
    /// The cluster-wide state of this run: every rank's interval log, the
    /// synchronization substrate (with the run's observer, if any), the
    /// link-occupancy state and, for a home-based run, the master copies.
    shared: Rc<RunState>,
    agg: Option<DynamicAggregator>,
    protocol: ProtocolMode,
    /// How an interval close's home flushes are packed onto the wire.
    /// Only consulted when the run has link-occupancy state: without
    /// occupancy modeling batching would change nothing observable.
    aggregation: AggregationPolicy,
    /// Depth of nested [`ProcCtx::begin_benign_race`] scopes.  While
    /// positive, shared accesses reach the observer marked benign — the
    /// annotation for *documented* intentional races (TSP's unsynchronized
    /// branch-and-bound pruning read, exactly as in the source paper).
    /// Never affects the simulation itself.
    benign_race_depth: u32,
    gc_flush_pending_limit: usize,
    /// The vector time a lock grant carries, copied out of the lock table by
    /// every acquire of a lock that has been released before.
    grant_vc: VectorClock,
    notices_since_barrier: u64,
    /// See [`ExchangeScratch`]; detached around each round of fetches and
    /// each interval close.
    exchange: ExchangeScratch,
    marked_end_ns: Option<u64>,
}

impl ProcCtx {
    /// Build the context for processor `rank` of a cluster run.
    pub(crate) fn new(
        rank: usize,
        config: &DsmConfig,
        layout: PageLayout,
        shared: Rc<RunState>,
    ) -> Self {
        debug_assert_eq!(
            shared.home.is_some(),
            config.protocol.is_home_based(),
            "master copies must be present exactly for home-based runs"
        );
        let agg = match config.unit {
            UnitPolicy::Dynamic { max_group_pages } => {
                Some(DynamicAggregator::new(max_group_pages))
            }
            UnitPolicy::Static { .. } => None,
        };
        ProcCtx {
            rank: ProcId(rank as u32),
            nprocs: config.nprocs,
            layout,
            unit: config.unit,
            cost: config.cost.clone(),
            store: PageStore::with_zero_image(layout, shared.zero_image.clone()),
            prot: vec![0; layout.total_pages() as usize],
            notices: NoticeSlab::new(layout.total_pages() as usize),
            dirty_pages: Vec::new(),
            vc: VectorClock::zero(config.nprocs),
            clock: LogicalClock::zero(),
            stats: ProcStats::new(ProcId(rank as u32)),
            shared,
            agg,
            protocol: config.protocol,
            aggregation: config.aggregation,
            benign_race_depth: 0,
            gc_flush_pending_limit: config.gc_flush_pending_limit,
            grant_vc: VectorClock::default(),
            notices_since_barrier: 0,
            exchange: ExchangeScratch::default(),
            marked_end_ns: None,
        }
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// This processor's rank (0-based).
    pub fn rank(&self) -> usize {
        self.rank.index()
    }

    /// Number of processors in the cluster.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Current modeled time of this processor in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// The page layout of the shared space.
    pub fn layout(&self) -> PageLayout {
        self.layout
    }

    // ------------------------------------------------------------------
    // Application compute accounting
    // ------------------------------------------------------------------

    /// Charge `ns` nanoseconds of application computation to the modeled
    /// clock (the stand-in for the instructions the real application would
    /// execute between shared accesses).
    pub fn compute(&mut self, ns: u64) {
        self.clock.advance(ns);
    }

    fn charge_access(&mut self, bytes: usize) {
        let words = bytes.div_ceil(WORD_SIZE) as u64;
        let ns = words.saturating_mul(self.cost.shared_access_ns);
        self.clock.advance(ns);
    }

    // ------------------------------------------------------------------
    // Shared-memory access
    // ------------------------------------------------------------------

    /// Read `dst.len()` bytes of shared memory starting at `addr`.
    pub async fn read_bytes(&mut self, addr: GlobalAddr, dst: &mut [u8]) {
        self.access(addr, dst.len(), false).await;
        let mut at = 0;
        self.read_with(addr, dst.len(), |bytes| {
            dst[at..at + bytes.len()].copy_from_slice(bytes);
            at += bytes.len();
        });
    }

    /// Write `src` to shared memory starting at `addr`.
    pub async fn write_bytes(&mut self, addr: GlobalAddr, src: &[u8]) {
        self.access(addr, src.len(), true).await;
        let mut at = 0;
        self.write_with(addr, src.len(), |bytes| {
            bytes.copy_from_slice(&src[at..at + bytes.len()]);
            at += bytes.len();
        });
    }

    /// Charge an access of `len` bytes at `addr` and make every page of it
    /// valid for it: the first half of every shared access, before
    /// [`read_with`](Self::read_with) or [`write_with`](Self::write_with).
    /// (Kept apart from them so that the awaited part is one
    /// non-generic future: folded into a generic one, an element's access
    /// measured about 30 % slower.)
    pub(crate) async fn access(&mut self, addr: GlobalAddr, len: usize, for_write: bool) {
        self.charge_access(len);
        self.ensure_valid_range(addr, len as u64, for_write).await;
    }

    /// The read path, over a range [`access`](Self::access) made valid:
    /// hand `each` the page's bytes of every page segment of the `len`
    /// bytes at `addr`, in address order, with nothing copied.  Delivered
    /// words read for the first time are credited to their exchange, and
    /// the observer hears of every segment.
    pub(crate) fn read_with(&mut self, addr: GlobalAddr, len: usize, mut each: impl FnMut(&[u8])) {
        let (store, stats) = (&mut self.store, &mut self.stats);
        let mut observer = self.shared.sync.observer.as_ref().map(|o| o.borrow_mut());
        let benign = self.benign_race_depth > 0;
        for (page, offset, piece) in self.layout.segments(addr, len) {
            debug_assert!(
                self.prot[page.index()] & PROT_INVALID == 0,
                "a read of an invalid page"
            );
            let bytes = store
                .page_mut(page)
                .read_in_place(offset, piece.len(), |exch, words| {
                    if let Some(e) = stats.exchanges.get_mut(exch as usize) {
                        e.useful_payload += u64::from(words) * WORD_SIZE as u64;
                    }
                });
            if let Some(observer) = &mut observer {
                let at = addr.add(piece.start as u64).offset();
                observer.access(self.rank.0, at, bytes, AccessKind::Read, benign);
            }
            each(bytes);
        }
    }

    /// The write path, over a range [`access`](Self::access) made valid:
    /// `fill` writes every byte of each page segment of the `len` bytes at
    /// `addr`, in address order, straight into the page.  A segment of a page homed here under the home-based
    /// protocol is written through to the master copy, at no modeled cost
    /// (that is why the home needs no twin; whole pages copied at close
    /// would revert concurrently flushed diffs).  The observer hears of
    /// every segment as this rank's write alone.
    pub(crate) fn write_with(
        &mut self,
        addr: GlobalAddr,
        len: usize,
        mut fill: impl FnMut(&mut [u8]),
    ) {
        let shared = &self.shared;
        // Borrowed only when a segment lands on a page homed here: this is
        // every shared write's path.
        let mut masters = None;
        let mut observer = shared.sync.observer.as_ref().map(|o| o.borrow_mut());
        let benign = self.benign_race_depth > 0;
        for (page, offset, piece) in self.layout.segments(addr, len) {
            debug_assert!(
                self.prot[page.index()] & (PROT_INVALID | PROT_DIRTY) == PROT_DIRTY,
                "a write outside the interval's write set"
            );
            let bytes = self
                .store
                .page_mut(page)
                .write_in_place(offset, piece.len());
            fill(bytes);
            if self.protocol.is_home_based() && round_robin_home(page, self.nprocs) == self.rank.0 {
                masters
                    .get_or_insert_with(|| shared.home().borrow_mut())
                    .write_through(page, offset, bytes);
            }
            if let Some(observer) = &mut observer {
                let at = addr.add(piece.start as u64).offset();
                observer.access(self.rank.0, at, bytes, AccessKind::Write, benign);
            }
        }
    }

    /// Report a lock or barrier operation to the run's observer, if any.
    fn observe_sync(&self, event: SyncEvent) {
        if let Some(observer) = &self.shared.sync.observer {
            observer.borrow_mut().sync(self.rank.0, event);
        }
    }

    /// Open a *benign-race annotation* scope until the matching
    /// [`ProcCtx::end_benign_race`]: this processor's accesses reach the
    /// observer marked benign, so the race detector skips them and the
    /// flat-memory oracle applies their writes but checks none of their
    /// reads.  The moral equivalent of a ThreadSanitizer suppression, for an
    /// access racy *by design* (TSP's unlocked read of the bound: a stale
    /// bound only weakens pruning, as every update re-checks under the lock).
    /// Changes nothing about the simulation.  Scopes nest.
    pub fn begin_benign_race(&mut self) {
        self.benign_race_depth += 1;
    }

    /// Close the innermost benign-race annotation scope.
    ///
    /// # Panics
    /// Panics if no scope is open.
    pub fn end_benign_race(&mut self) {
        assert!(
            self.benign_race_depth > 0,
            "end_benign_race without a matching begin_benign_race"
        );
        self.benign_race_depth -= 1;
    }

    /// The hit path: check the protection table for every page of the
    /// range and trap on those that do not allow the access as it is.
    async fn ensure_valid_range(&mut self, addr: GlobalAddr, len: u64, for_write: bool) {
        let Some((first, last)) = self.layout.page_span(addr, len) else {
            return;
        };
        // A read goes through on a valid page; a write on a valid page that
        // is already in the interval's write set.
        let (mask, pass) = if for_write {
            (PROT_INVALID | PROT_DIRTY, PROT_DIRTY)
        } else {
            (PROT_INVALID, 0)
        };
        for p in first..=last {
            if self.prot[p as usize] & mask != pass {
                self.access_trap(PageId(p), for_write).await;
            }
        }
    }

    /// The trap path of one page: run the fault handler if the page is
    /// invalid, then, for a write to a page not yet in the interval's write
    /// set, write detection.
    #[cold]
    async fn access_trap(&mut self, page: PageId, for_write: bool) {
        if self.prot[page.index()] & PROT_INVALID != 0 {
            self.fault_on(page).await;
        }
        if for_write && self.prot[page.index()] & PROT_DIRTY == 0 {
            // The write-protocol seam at write detection: a writer twins
            // the page so the interval's modifications can be diffed later
            // — except, under the home-based protocol, the page's *home*,
            // whose writes go straight into the master copy.  A non-home
            // writer still twins: the flush at interval close is a diff.
            if self.home_of(page) != Some(self.rank.0) {
                let created = self.store.page_mut(page).ensure_twin();
                debug_assert!(created, "twin already present on a clean page");
                self.stats.twins_created += 1;
                self.clock
                    .advance(self.cost.twin_cost(self.layout.page_size() as u64));
            } else {
                // Still materialize the local copy so the write lands.
                self.store.page_mut(page);
            }
            self.prot[page.index()] |= PROT_DIRTY;
            self.dirty_pages.push(page);
            self.protect();
        }
    }

    /// Count and charge one protection operation: the `mprotect` a
    /// validation, an invalidation, write detection or a close's
    /// re-protection costs.  (A fault's own is priced inside its stall.)
    fn protect(&mut self) {
        self.stats.protection_ops += 1;
        self.clock.advance(self.cost.protection_op_ns);
    }

    /// The home of `page` under the home-based protocol; `None` under the
    /// multi-writer protocol, which has no homes.
    fn home_of(&self, page: PageId) -> Option<u32> {
        self.protocol
            .is_home_based()
            .then(|| round_robin_home(page, self.nprocs))
    }

    // ------------------------------------------------------------------
    // Fault handling
    // ------------------------------------------------------------------

    /// Handle an access fault on `page`: decide which pages to fetch (the
    /// static consistency unit or the dynamic page group), contact every
    /// concurrent writer, apply the diffs in happens-before order, validate
    /// and account.
    async fn fault_on(&mut self, page: PageId) {
        // Fault service is a scheduling point: yield to the deterministic
        // scheduler so a processor with an earlier logical clock runs first.
        // What this fault fetches is fixed by our own pending-notice state,
        // so the yield affects ordering only, never the fetched contents.
        self.shared
            .sync
            .yield_turn(self.rank.index(), self.clock.now_ns())
            .await;

        // The pages whose diffs this fault fetches, the first `validated`
        // of which become valid afterwards: the whole static consistency
        // unit, or of a dynamic page group the faulting page alone.
        let pages = &mut self.exchange.pages;
        pages.clear();
        let validated = match self.unit {
            UnitPolicy::Static { .. } => {
                pages.extend(self.unit.unit_range(page, &self.layout).map(PageId));
                pages.len()
            }
            UnitPolicy::Dynamic { .. } => {
                let agg = self.agg.as_mut().expect("dynamic policy has aggregator");
                agg.note_fault(page);
                pages.push(page);
                pages.extend(agg.group_of(page).iter().filter(|&&p| p != page));
                1
            }
        };
        let first_exchange = self.stats.exchanges.len() as u32;
        let stall = self.exchange_pending(validated);
        // One exchange per responder (concurrent writer, or home)
        // contacted.  Under the home-based protocol they count the *homes*
        // — the signature then reads "responders per fault", which is
        // exactly the quantity the two protocols trade against each other.
        let exchange_ids = first_exchange..self.stats.exchanges.len() as u32;
        if exchange_ids.is_empty() {
            self.stats.prefetched_faults += 1;
        }
        self.stats.faults.push(FaultRecord { exchange_ids });
        self.stats.protection_ops += 1;

        self.clock.advance(stall);
    }

    /// The fetch step of a fault and of a GC validation flush: make the
    /// pending notices of the scratch's `pages` good — one aggregated
    /// exchange per responder, pending notices cleared — validate the
    /// first `validated` of them and return the round's stall.  The caller
    /// decides what the operation *is* (a fault or a flush), keeps its
    /// records and charges the stall.  Not `async`: nothing it holds lives
    /// across a suspension point.  The exchanges it issues, one per
    /// responder, are logged consecutively; the per-responder reply sizes
    /// the stall was priced from stay in the [`ExchangeScratch`].
    ///
    /// The write protocol decides four things here and nothing else:
    /// * *who serves* a pending page: each notice's writer, or under the
    ///   home-based protocol the page's home, once per page;
    /// * *what a reply carries*: the stored diffs, or the master page the
    ///   home lends;
    /// * *how it lands*: a page's diffs as one `LocalPage::deliver` round
    ///   in a linear extension of happens-before, a master page by
    ///   `load_page` as the home serves it;
    /// * *what the round stalls*: the diff-serve or the page-serve
    ///   constants of one stall formula.
    ///
    /// A page homed at this processor is refreshed from the co-resident
    /// master copy: no exchange and no attribution (nothing crossed a
    /// wire), but the copy is part of the applied payload.  Every word of a
    /// page fetched from a remote home is delivered and attributed to the
    /// exchange, so the useful/useless classifier sees the whole page — the
    /// false-sharing exposure the single-writer organization pays for.
    fn exchange_pending(&mut self, validated: usize) -> u64 {
        let mut xs = std::mem::take(&mut self.exchange);
        // The last round's diffs are gone already (see below); its reply
        // sizes are not.
        xs.wants.clear();
        xs.responder_costs.clear();
        xs.responder_ranks.clear();
        let page_size = self.layout.page_size() as u64;
        let mut total_payload = 0u64;
        // Gather what every page we are fetching lacks, grouped (by the
        // sort) by the processor that must serve it.
        for &p in &xs.pages {
            match self.home_of(p) {
                None => {
                    for (writer, seq) in self.notices.iter(p) {
                        xs.wants.push(Want {
                            responder: writer,
                            ord: xs.wants.len() as u32,
                            page: p,
                            seq,
                        });
                    }
                }
                // Only pages with pending notices are stale; the others are
                // validated without traffic, as under multi-writer.
                Some(_) if self.notices.is_clear(p) => {}
                Some(home) if home == self.rank.0 => {
                    self.load_from_home(p, tm_page::NO_EXCHANGE);
                    total_payload += page_size;
                }
                Some(home) => {
                    xs.wants.push(Want {
                        responder: home,
                        ord: xs.wants.len() as u32,
                        page: p,
                        seq: 0,
                    });
                }
            }
        }
        xs.wants.sort_unstable();

        for wants in xs.wants.chunk_by(|a, b| a.responder == b.responder) {
            let responder = wants[0].responder;
            debug_assert_ne!(responder, self.rank.0, "a processor never serves itself");
            let exchange_id = self.stats.exchanges.len() as u32;
            let mut reply_bytes = MSG_HEADER_BYTES;
            let mut serve_extra_ns = 0u64;
            let mut delivered = 0u64;
            // A page's notices sit together: they are gathered page by page.
            let pages_requested = wants.chunk_by(|a, b| a.page == b.page).count() as u64;
            if self.protocol.is_home_based() {
                for &Want { page, .. } in wants {
                    self.load_from_home(page, exchange_id);
                }
                delivered = pages_requested * page_size;
                reply_bytes += delivered;
                self.stats.page_fetches += pages_requested;
            } else {
                let mut log = self.shared.logs[responder as usize].borrow_mut();
                // The responder serves every stored diff asked for; one
                // writer's chain of a page is delivered as a round like any
                // other.
                for &Want { page, seq, .. } in wants {
                    let fetched = log
                        .fetch_diff(page, seq)
                        .expect("a stored diff must exist for a published notice");
                    if fetched.created_now {
                        // This request materializes the diff on the
                        // responder, serializing its creation into the
                        // responder's serve path (which we stall on).
                        serve_extra_ns =
                            serve_extra_ns.saturating_add(self.cost.diff_create_cost(page_size));
                    }
                    let weight = log
                        .record(seq)
                        .expect("published interval record must exist")
                        .vc
                        .weight();
                    reply_bytes += fetched.wire_bytes;
                    delivered += fetched.payload_bytes;
                    xs.to_apply.push(Fetched {
                        weight,
                        writer: responder,
                        seq,
                        ord: xs.to_apply.len() as u32,
                        diff: fetched.diff,
                        exchange: exchange_id,
                    });
                }
            }
            total_payload += delivered;
            xs.responder_costs.push(ResponderCost {
                reply_bytes,
                serve_extra_ns,
            });
            xs.responder_ranks.push(responder);
            self.stats.exchanges.push(DiffExchange {
                // The request: a header and 8 bytes per page asked for.
                wire_bytes: MSG_HEADER_BYTES + 8 * pages_requested + reply_bytes,
                delivered_payload: delivered,
                useful_payload: 0,
            });
        }

        // Each page's diffs are delivered as one round, in a linear
        // extension of happens-before (vector clock weight, then writer id,
        // then sequence number; fetch order last, which makes the unstable
        // sort a stable one).  Diffs of concurrent intervals touch disjoint
        // words in a data-race-free program, so their relative order does
        // not matter, and diffs of different pages never interact.  No
        // counter fires during delivery (wire and fetch accounting happened
        // above), so the page order is free; pages go in descending order
        // because a delivery may be a page's first touch, and that heap
        // layout measured lower peak RSS on the lock-heavy benchmark
        // workload than ascending order.
        xs.to_apply
            .sort_unstable_by_key(|f| (f.diff.page, f.weight, f.writer, f.seq, f.ord));
        let rounds = xs.to_apply.chunk_by(|a, b| a.diff.page == b.diff.page);
        for round in rounds.rev() {
            self.store.page_mut(round[0].diff.page).deliver(
                round.iter().rev().map(|f| (&f.diff, f.exchange)),
                &mut xs.cover,
            );
        }
        // Let go of the fetched diffs now, not at the next fault: a diff the
        // scratch still held could not be pooled when its interval retires.
        xs.to_apply.clear();

        // Fetched pages have no pending notices left, so they no longer
        // hold back the barrier GC's floors either.
        for &p in &xs.pages {
            self.notices.clear(p);
        }
        for &p in &xs.pages[..validated] {
            self.prot[p.index()] &= !PROT_INVALID;
        }

        // The replies are routed through the run's link state, where they
        // queue behind concurrent traffic on every link the topology has.
        let stall_on = match self.protocol {
            ProtocolMode::MultiWriter => CostModel::fault_stall_served_on,
            ProtocolMode::HomeBased => CostModel::home_fetch_stall_on,
        };
        let stall = stall_on(
            &self.cost,
            &xs.responder_costs,
            &xs.responder_ranks,
            total_payload,
            self.rank.0,
            self.clock.now_ns(),
            &mut self.shared.net.borrow_mut(),
        );
        self.exchange = xs;
        stall
    }

    /// Home-based protocol: load the master copy of `page`, lent by its
    /// home, into the local one, every word attributed to `exchange`.
    fn load_from_home(&mut self, page: PageId, exchange: u32) {
        let masters = self.shared.home().borrow();
        let master = masters
            .page(page)
            .expect("a page with write notices has been written at its home");
        self.store.page_mut(page).load_page(master, exchange);
    }

    /// TreadMarks' garbage-collection validation, triggered by memory
    /// pressure (`DsmConfig::gc_flush_pending_limit`): fetch *every* pending
    /// diff through the fault handler's own step, `exchange_pending` — one
    /// aggregated exchange per writer — and validate the pages,
    /// so that no pending floor pins the interval logs any more and the next
    /// barrier episode can retire them wholesale.  This sends real,
    /// accounted messages; below the trigger it never runs and the run is
    /// bit-identical to one with the flush disabled.
    async fn flush_pending_for_gc(&mut self) {
        let pages = &mut self.exchange.pages;
        pages.clear();
        pages.extend(
            (0..self.layout.total_pages())
                .map(PageId)
                .filter(|&p| !self.notices.is_clear(p)),
        );
        if pages.is_empty() {
            return;
        }
        self.shared
            .sync
            .yield_turn(self.rank.index(), self.clock.now_ns())
            .await;
        // Every flushed page is validated by one batched protection
        // operation, as in a multi-page fault.  It is charged before the
        // stall is priced: link transmissions are timed from the clock.
        self.protect();
        let validated = self.exchange.pages.len();
        let stall = self.exchange_pending(validated);
        // Not a fault: no fault record, no signature contribution — but the
        // fetch stall is real.
        self.clock.advance(stall);
        self.stats.gc_pending_flushes += 1;
    }

    // ------------------------------------------------------------------
    // Interval management and write-notice propagation
    // ------------------------------------------------------------------

    /// Close the current interval: encode every dirty page's modifications,
    /// retire the twins, publish the interval record, and advance the local
    /// vector clock.  No-op when the interval produced no notices (an
    /// all-silent-writes close).
    ///
    /// Under the multi-writer protocol only the write notices are
    /// *protocol* output: the encoded diffs ride along in the log
    /// unmaterialized (the simulator compares twin and current contents
    /// here, where the twin is at hand), and `diff_create_cost` is charged
    /// on the serve path at the first request instead of here — see
    /// DESIGN.md, "Lazy diff creation".
    ///
    /// Under the home-based protocol a diff is created here, on the writer,
    /// applied to the master copy and flushed to the page's home (one
    /// [`MsgKind::HomeUpdate`] message per home contacted) instead of
    /// stored: faults fetch whole pages from the homes, so the log is pure
    /// notice book-keeping (and its GC never waits for diff requests).  A
    /// page homed at this processor needs neither twin nor flush — its
    /// words already went through to the master copy — but publishes its
    /// notice unconditionally, so the other processors invalidate: without
    /// a twin the home cannot tell a silent rewrite from a real change.
    fn close_interval(&mut self) {
        if self.dirty_pages.is_empty() {
            return;
        }
        let page_size = self.layout.page_size() as u64;
        // Rebuild inside the diffs this processor's own log retired, or
        // that an earlier close flushed or found empty.
        let mut pool = self.shared.logs[self.rank.index()]
            .borrow_mut()
            .take_diff_pool();
        let mut xs = std::mem::take(&mut self.exchange);
        // Detach the dirty list instead of copying it; nothing in the filter
        // re-dirties a page, and the buffer (and its capacity) goes back
        // afterwards.  It keeps the pages that publish a notice, in order.
        let mut dirty = std::mem::take(&mut self.dirty_pages);
        dirty.retain(|&page| {
            self.prot[page.index()] &= !PROT_DIRTY;
            // Re-protect the page so the next write re-arms write detection.
            self.protect();
            let home = self.home_of(page);
            if home == Some(self.rank.0) {
                return true;
            }
            let mut diff = pool.pop().unwrap_or_else(|| Arc::new(Diff::empty(page)));
            let lp = self.store.page_mut(page);
            let unshared = Arc::get_mut(&mut diff).expect("a pooled diff is held by its pool only");
            assert!(
                lp.make_diff_into(page, unshared),
                "dirty page must have a twin at interval close"
            );
            lp.drop_twin();
            if home.is_some() {
                // Flushed at close, so nothing is left to create lazily.
                self.clock.advance(self.cost.diff_create_cost(page_size));
            }
            if unshared.is_empty() {
                // The page was written with values identical to the twin's;
                // nothing to propagate (the diff goes straight back).
                pool.push(diff);
                return false;
            }
            match home {
                None => xs.diffs.push((page, diff)),
                Some(home) => {
                    self.stats.diffs_created += 1;
                    self.stats.diff_bytes_created += unshared.payload_bytes();
                    let bytes = unshared.wire_bytes();
                    match xs.flushes.binary_search_by_key(&home, |&(h, _)| h) {
                        Ok(i) => xs.flushes[i].1 += bytes,
                        Err(i) => xs.flushes.insert(i, (home, bytes)),
                    }
                    self.shared.home().borrow_mut().apply_diff(unshared);
                    // Flushed, so nothing serves it: it goes straight back,
                    // emptied, and pins no page image.
                    unshared.clear();
                    pool.push(diff);
                }
            }
            true
        });
        // The record's page list: one allocation of its exact size, made
        // after the diffs' (a list reserved before them measured a higher
        // peak resident set on the lock-heavy benchmark workload).
        let pages = dirty.clone();
        dirty.clear();
        self.dirty_pages = dirty;
        self.shared.logs[self.rank.index()]
            .borrow_mut()
            .restore_diff_pool(pool);

        if !xs.flushes.is_empty() {
            // One update message per home contacted, carrying that home's
            // diffs.  The message and byte *counters* are identical whatever
            // the topology or aggregation policy — only the modeled flush
            // time changes — so breakdowns stay comparable across network
            // cells.
            for &(_, wire_bytes) in &xs.flushes {
                self.stats.record_control(MsgKind::HomeUpdate, wire_bytes);
            }
            let cost = self.cost.home_flush_cost_on(
                &xs.flushes,
                self.aggregation,
                self.rank.0,
                self.clock.now_ns(),
                &mut self.shared.net.borrow_mut(),
            );
            self.clock.advance(cost);
            xs.flushes.clear();
        }

        if !pages.is_empty() {
            let seq = self.vc.get(self.rank.index()) + 1;
            self.vc.set(self.rank.index(), seq);
            self.notices_since_barrier += pages.len() as u64;
            self.stats.intervals_closed += 1;
            let record = IntervalRecord {
                id: IntervalId {
                    proc: self.rank.0,
                    seq,
                },
                vc: self.vc.clone(),
                pages,
            };
            self.shared.logs[self.rank.index()]
                .borrow_mut()
                .publish_drain(record, &mut xs.diffs);
        }
        debug_assert!(xs.diffs.is_empty(), "diffs without write notices");
        self.exchange = xs;
    }

    /// Where every synchronization operation starts: close the interval,
    /// then rebuild the dynamic page groups (no-op under a static policy).
    fn close_interval_at_sync(&mut self) {
        self.close_interval();
        if let Some(agg) = self.agg.as_mut() {
            agg.rebuild_groups();
        }
    }

    /// Incorporate the write notices of every interval of processor `writer`
    /// with sequence numbers in `(self.vc[writer], up_to]`.  Returns the
    /// number of notices incorporated.
    fn incorporate_notices_from(&mut self, writer: usize, up_to: u32) -> u64 {
        if writer == self.rank.index() {
            return 0;
        }
        let already = self.vc.get(writer);
        if up_to <= already {
            return 0;
        }
        let mut incorporated = 0u64;
        // The records' page lists are read in place: the run state is held
        // through a second handle, so the writer's log stays borrowed while
        // our own state changes.
        let shared = Rc::clone(&self.shared);
        let log = shared.logs[writer].borrow();
        for r in log.records_between(already, up_to) {
            for &page in &r.pages {
                self.notices.push(page, writer as u32, r.id.seq);
                self.invalidate_unit_of(page);
                incorporated += 1;
            }
        }
        self.vc.set(writer, up_to);
        incorporated
    }

    /// Invalidate the consistency unit containing `page` (one protection
    /// operation per unit that actually changes state).
    fn invalidate_unit_of(&mut self, page: PageId) {
        let mut changed = false;
        for p in self.unit.unit_range(page, &self.layout) {
            let bits = &mut self.prot[p as usize];
            if *bits & PROT_INVALID == 0 {
                debug_assert!(
                    *bits & PROT_DIRTY == 0,
                    "invalidation must not hit a page dirty in the open interval \
                     (intervals are closed before notices are incorporated)"
                );
                *bits |= PROT_INVALID;
                changed = true;
            }
        }
        if changed {
            self.protect();
        }
    }

    // ------------------------------------------------------------------
    // Synchronization operations
    // ------------------------------------------------------------------

    /// Acquire global lock `lock_id`, incorporating the write notices that
    /// the last releaser's critical section makes visible.
    pub async fn acquire(&mut self, lock_id: usize) {
        self.close_interval_at_sync();

        let stall_start = self.clock.now_ns();
        let grant = self
            .shared
            .sync
            .acquire_lock(lock_id, self.rank.index(), stall_start, &mut self.grant_vc)
            .await;

        // Modeled time: the lock cannot be granted before the last release
        // happened, and the transfer itself costs the calibrated latency
        // (much less when we still cache the lock from our own last release).
        self.clock.wait_until(grant.clock_ns);
        let reacquire = grant.releaser == Some(self.rank.0);
        self.clock.advance(if reacquire {
            self.cost.protection_op_ns.max(1_000)
        } else {
            self.cost.lock_latency()
        });

        // Incorporate every interval covered by the releaser but not by us.
        // A lock nobody has released yet carries the zero clock: nothing to
        // incorporate, nothing to merge.
        let mut notices = 0u64;
        if grant.releaser.is_some() {
            for q in 0..self.nprocs {
                notices += self.incorporate_notices_from(q, self.grant_vc.get(q));
            }
            self.vc.merge(&self.grant_vc);
        }
        self.observe_sync(SyncEvent::Acquire(lock_id));

        // Message accounting: request → statically assigned manager, forward
        // → last holder, grant → us.  A re-acquisition of a lock we released
        // last is served from the local cache and costs no messages; hops
        // that start or end at this processor itself cost nothing either
        // (in particular, a single-processor run sends no lock messages).
        if !reacquire {
            let manager = lock_id % self.nprocs;
            let i_am_manager = manager == self.rank.index();
            if !i_am_manager {
                self.stats.record_control(MsgKind::LockRequest, 0);
            }
            match grant.releaser {
                Some(_) => {
                    // Manager forwards to the holder, who grants to us.
                    self.stats.record_control(MsgKind::LockForward, 0);
                    self.stats
                        .record_control(MsgKind::LockGrant, notices * NOTICE_WIRE_BYTES);
                }
                None if !i_am_manager => {
                    // First-ever acquisition: the manager grants directly.
                    self.stats
                        .record_control(MsgKind::LockGrant, notices * NOTICE_WIRE_BYTES);
                }
                None => {}
            }
        }
        self.stats.lock_acquires += 1;
    }

    /// Release global lock `lock_id`, making this processor's modifications
    /// visible to the next acquirer.
    pub async fn release(&mut self, lock_id: usize) {
        self.close_interval_at_sync();
        // Before the lock becomes grantable: the next acquirer's event must
        // follow this one.
        self.observe_sync(SyncEvent::Release(lock_id));
        self.shared
            .sync
            .release_lock(lock_id, self.rank.index(), &self.vc, self.clock.now_ns())
            .await;
    }

    /// Cross the global barrier, incorporating every other processor's write
    /// notices and garbage-collecting this processor's interval log up to
    /// the watermark the episode sealed (see DESIGN.md, "Interval garbage
    /// collection").
    pub async fn barrier(&mut self) {
        self.close_interval_at_sync();

        if self.rank.0 != 0 {
            self.stats.record_control(
                MsgKind::BarrierArrive,
                self.notices_since_barrier * NOTICE_WIRE_BYTES,
            );
        }
        self.notices_since_barrier = 0;

        // Memory pressure check: too many pending notices pin the interval
        // logs (their floors block retirement forever if the pages are never
        // accessed again), so past the configured limit we run TreadMarks'
        // GC validation and fetch them all before arriving.
        if self.notices.len() > self.gc_flush_pending_limit {
            self.flush_pending_for_gc().await;
        }

        // This processor's contribution to the episode's GC watermark is
        // every notice it has incorporated but not applied: the barrier
        // min-merges them into each writer's floor.
        let my_published = self.vc.get(self.rank.index());
        self.observe_sync(SyncEvent::BarrierArrive);
        let epoch = self
            .shared
            .sync
            .barrier_arrive(
                self.rank.index(),
                self.clock.now_ns(),
                self.cost.barrier_latency(self.nprocs as u32),
                my_published,
                self.notices.live(),
            )
            .await;
        self.clock.wait_until(epoch.depart_clock_ns);
        self.observe_sync(SyncEvent::BarrierDepart);

        // Only writers that published since the previous episode can have
        // notices we lack (see `BarrierEpoch::changed_writers`).
        debug_assert!(
            (0..self.nprocs).all(|q| epoch.published_intervals[q] <= self.vc.get(q)
                || epoch.changed_writers.binary_search(&(q as u32)).is_ok()),
            "a writer outside the episode's changed list is ahead of our clock"
        );
        let mut notices = 0u64;
        for &q in &epoch.changed_writers {
            let q = q as usize;
            notices += self.incorporate_notices_from(q, epoch.published_intervals[q]);
        }
        // The protection table agrees with the notice slab: no page with a
        // pending notice can be accessed without the fault handler.
        debug_assert!(
            (0..self.layout.total_pages())
                .all(|p| self.notices.is_clear(PageId(p))
                    || self.prot[p as usize] & PROT_INVALID != 0),
            "rank {} holds a pending notice on a page it may access",
            self.rank.0
        );

        // Retire the covered-and-applied prefix of our own log.  This is
        // local book-keeping piggybacked on the barrier's existing traffic
        // (the pending floors travel in the arrival message the protocol
        // already sends), so it costs no additional messages and no modeled
        // time.
        let watermark = epoch.retire_below[self.rank.index()];
        if watermark > 0 {
            self.shared.logs[self.rank.index()]
                .borrow_mut()
                .retire_up_to(watermark);
        }
        // A delivery lands its diffs at once and keeps none, so past its
        // retirement the log is every diff's last holder.
        debug_assert!(
            self.shared.logs[self.rank.index()]
                .borrow()
                .diffs()
                .all(|d| Arc::strong_count(d) == 1),
            "rank {}'s log shares a diff with a holder outside it",
            self.rank.0
        );
        // No interval anybody still has a notice of pending is retired.
        debug_assert!(
            self.notices
                .live()
                .all(|(w, seq)| self.shared.logs[w as usize].borrow().record(seq).is_some()),
            "rank {} holds a pending notice of a retired interval",
            self.rank.0
        );

        if self.rank.0 != 0 {
            self.stats
                .record_control(MsgKind::BarrierDepart, notices * NOTICE_WIRE_BYTES);
        }
        self.stats.barriers += 1;
    }

    // ------------------------------------------------------------------
    // Run termination
    // ------------------------------------------------------------------

    /// Mark the current modeled time as the end of the measured execution.
    ///
    /// Work performed after this call (typically result verification, which
    /// is not part of the application the paper measures) still executes and
    /// is still accounted in the message/data statistics of any accesses it
    /// performs, but the reported execution time stops here.  Calling it
    /// repeatedly keeps the latest mark.
    pub fn mark_execution_end(&mut self) {
        self.marked_end_ns = Some(self.clock.now_ns());
    }

    /// Finish the run for this processor and hand back its statistics.
    pub(crate) fn finish(mut self) -> ProcStats {
        // Flush the last interval so every modification is accounted, then
        // stamp the final modeled time.
        self.close_interval();
        self.stats.exec_time_ns = self.marked_end_ns.unwrap_or_else(|| self.clock.now_ns());
        self.stats
    }
}

impl std::fmt::Debug for ProcCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProcCtx")
            .field("rank", &self.rank)
            .field("nprocs", &self.nprocs)
            .field("vc", &self.vc)
            .field("clock_ns", &self.clock.now_ns())
            .field("dirty_pages", &self.dirty_pages.len())
            .finish()
    }
}

#[cfg(test)]
#[path = "proc_tests.rs"]
mod tests;
