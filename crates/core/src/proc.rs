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

use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

use tm_net::{
    AggregationPolicy, CostModel, DiffExchange, FaultRecord, LogicalClock, MsgKind, ProcId,
    ProcStats, ResponderCost, MSG_HEADER_BYTES,
};
use tm_page::{subtract_cover, Diff, GlobalAddr, PageId, PageLayout, PageStore, WORD_SIZE};
use tm_race::AccessKind;

use crate::aggregation::DynamicAggregator;
use crate::cluster::RunState;
use crate::config::{DiffTiming, DsmConfig, UnitPolicy};
use crate::interval::{IntervalId, IntervalRecord, NOTICE_WIRE_BYTES};
use crate::protocol::ProtocolMode;
use crate::vc::VectorClock;

/// Per-page protocol metadata kept privately by each processor — the part
/// only the trap path reads.  The protection bits every access checks live
/// in the dense [`ProcCtx::prot`] table instead.
#[derive(Debug, Clone, Default)]
struct PageMeta {
    /// Home-based protocol: locally cached home of the page.  Assignment is
    /// sticky for the whole run, so a cached value never goes stale; the
    /// cache keeps the per-write write-through check off the shared
    /// directory.
    home: Option<u32>,
    /// Write notices received but whose diffs have not been applied yet:
    /// `(writer, interval seq)`.
    pending: Vec<(u32, u32)>,
}

/// Protection-table bit: the page may not be accessed without running the
/// fault handler.  Set by write-notice invalidation, cleared by the fault
/// handler and the GC validation flush.
const PROT_INVALID: u8 = 1;
/// Protection-table bit: the page belongs to the current open interval's
/// write set (and has a twin, unless this processor is the page's home
/// under the home-based protocol).  Set by write detection, cleared when
/// the interval closes.
const PROT_DIRTY: u8 = 2;

/// What one round of pending fetches produced (see
/// [`ProcCtx::exchange_pending`]).  The per-responder reply sizes it was
/// charged from stay in the [`ExchangeScratch`].
struct PendingExchangeOutcome {
    /// Requester-local ids of the exchanges issued, one per responder
    /// (concurrent writer, or home) contacted; they are logged
    /// consecutively.
    exchange_ids: std::ops::Range<u32>,
    /// Total diff payload applied.
    total_payload: u64,
}

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
    /// Notices of more than one writer are pending on the page, so its
    /// diffs need ordering by happens-before across writers.
    contended: bool,
}

/// One fetched diff awaiting application.
#[derive(Debug)]
struct Fetched {
    /// Vector-clock weight of the diff's (last) interval.
    weight: u64,
    writer: u32,
    seq: u32,
    /// Position in fetch order, the final tie-break of the apply order.
    ord: u32,
    diff: Arc<Diff>,
    exchange: u32,
    /// A merged chain from the page's sole pending writer.
    solo: bool,
}

/// Working storage of one round of pending fetches.  Nothing in it outlives
/// the round — what does (the `DiffExchange` records) is allocated as
/// before — so one instance per processor is
/// cleared and refilled by every fault instead of a dozen containers being
/// built and dropped.  Sized by what a round touches, never by the cluster
/// or the address space; the capacity of the largest round (a GC validation
/// flush) is kept, because re-growing it after every flush allocates more
/// than the flush's own containers used to.
#[derive(Debug, Default)]
struct ExchangeScratch {
    wants: Vec<Want>,
    /// The interval seqs of one page's chain, contiguous for the log.
    chain_seqs: Vec<u32>,
    /// Per responder contacted: reply size and serve-side extras.
    responder_costs: Vec<ResponderCost>,
    /// Rank serving `responder_costs[i]` (writer or home) — the source
    /// endpoint when replies are routed through a contended topology.
    responder_ranks: Vec<u32>,
    to_apply: Vec<Fetched>,
    /// The fetched pages with `Want::contended` set, ascending.
    contended_pages: Vec<PageId>,
    /// `contended_pages[k]`'s word-cover bitset is block `k` of this array;
    /// `cover_set[k]` counts its set bits.
    cover_bits: Vec<u64>,
    cover_set: Vec<usize>,
    visible: Vec<(u32, u32)>,
    /// Cover bitset lent to `LocalPage::apply_diff_deferred`'s fold.
    fold_cover: Vec<u64>,
    /// Home-based protocol: the page a whole-page fetch is staged in
    /// between the master copy and the local one.  One page long from the
    /// first fetch on.
    page_buf: Vec<u8>,
}

impl ExchangeScratch {
    /// Empty every container, keeping its capacity.
    fn clear(&mut self) {
        self.wants.clear();
        self.responder_costs.clear();
        self.responder_ranks.clear();
        self.to_apply.clear();
        self.contended_pages.clear();
        self.cover_bits.clear();
        self.cover_set.clear();
    }
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
    meta: Vec<PageMeta>,
    dirty_pages: Vec<PageId>,
    vc: VectorClock,
    clock: LogicalClock,
    stats: ProcStats,
    /// The cluster-wide state of this run: every rank's interval log, the
    /// synchronization substrate, and — each present exactly when the
    /// configuration asks for it — the home directory, the link-occupancy
    /// state and the race detector.
    shared: Rc<RunState>,
    agg: Option<DynamicAggregator>,
    diff_timing: DiffTiming,
    protocol: ProtocolMode,
    /// How an interval close's home flushes are packed onto the wire.
    /// Only consulted when the run has link-occupancy state: without
    /// occupancy modeling batching would change nothing observable.
    aggregation: AggregationPolicy,
    /// Depth of nested [`ProcCtx::begin_benign_race`] scopes.  While
    /// positive, shared accesses are invisible to the race detector — the
    /// annotation for *documented* intentional races (TSP's unsynchronized
    /// branch-and-bound pruning read, exactly as in the source paper).
    /// Never affects the simulation itself.
    benign_race_depth: u32,
    gc_flush_pending_limit: usize,
    /// The multiset of intervals this processor still has pending:
    /// `(writer, seq)` -> number of pages whose notice is unapplied.  The
    /// smallest `seq` of each writer present is that writer's pending floor
    /// reported to the barrier's interval GC.  One ordered map, so it is
    /// sized by what is pending, never by the cluster.
    pending_seqs: BTreeMap<(u32, u32), u32>,
    /// Total notice count across `pending_seqs`, maintained incrementally so
    /// the barrier's memory-pressure check is O(1) instead of a walk over
    /// the multiset.
    pending_total: usize,
    /// Reusable buffer for the `(writer, floor)` pairs sent with each
    /// barrier arrival; refilled in place every episode.
    pending_floors: Vec<(u32, u32)>,
    /// The vector time a lock grant carries, copied out of the lock table by
    /// every acquire of a lock that has been released before.
    grant_vc: VectorClock,
    notices_since_barrier: u64,
    /// Reusable staging buffer for `(seq, page)` write notices copied out of
    /// a writer's log while it is borrowed; avoids cloning each record's
    /// page list on every incorporation.
    notice_scratch: Vec<(u32, PageId)>,
    /// Reusable `(page, diff)` staging vector for interval publication; the
    /// log drains it in place so its capacity survives across closes.
    diff_scratch: Vec<(PageId, Arc<Diff>)>,
    /// One recycled span/payload buffer pair for the home-based flush path,
    /// whose diffs die as soon as they are applied to the master copy.
    home_diff_buf: (Vec<tm_page::RunSpan>, Vec<u8>),
    /// Reusable byte staging buffer for the typed accessors in `handle.rs`.
    /// Lives on the context (taken/restored around each access) rather than
    /// in a thread-local: every simulated processor shares one host thread,
    /// so a thread-local scratch would be re-entered across suspension
    /// points.
    byte_scratch: Vec<u8>,
    /// The pages the fault being served fetches; refilled by every fault.
    fault_pages: Vec<PageId>,
    /// See [`ExchangeScratch`]; detached around each round of fetches.
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
            "home directory must be present exactly for home-based runs"
        );
        debug_assert_eq!(
            shared.race.is_some(),
            config.racecheck,
            "race detector must be present exactly for racecheck runs"
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
            store: PageStore::new(layout),
            prot: vec![0; layout.total_pages() as usize],
            meta: vec![PageMeta::default(); layout.total_pages() as usize],
            dirty_pages: Vec::new(),
            vc: VectorClock::zero(config.nprocs),
            clock: LogicalClock::zero(),
            stats: ProcStats::new(ProcId(rank as u32)),
            shared,
            agg,
            diff_timing: config.diff_timing,
            protocol: config.protocol,
            aggregation: config.aggregation,
            benign_race_depth: 0,
            gc_flush_pending_limit: config.gc_flush_pending_limit,
            pending_seqs: BTreeMap::new(),
            pending_total: 0,
            pending_floors: Vec::new(),
            grant_vc: VectorClock::default(),
            notices_since_barrier: 0,
            notice_scratch: Vec::new(),
            diff_scratch: Vec::new(),
            home_diff_buf: (Vec::new(), Vec::new()),
            byte_scratch: Vec::new(),
            fault_pages: Vec::new(),
            exchange: ExchangeScratch::default(),
            marked_end_ns: None,
        }
    }

    /// Detach the reusable byte staging buffer (see `byte_scratch`); the
    /// caller must hand it back with
    /// [`restore_byte_scratch`](Self::restore_byte_scratch).
    pub(crate) fn take_byte_scratch(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.byte_scratch)
    }

    /// Return the byte staging buffer taken by
    /// [`take_byte_scratch`](Self::take_byte_scratch), keeping its capacity
    /// for the next access.
    pub(crate) fn restore_byte_scratch(&mut self, buf: Vec<u8>) {
        self.byte_scratch = buf;
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

    /// The write protocol in effect.
    pub fn protocol(&self) -> ProtocolMode {
        self.protocol
    }

    /// Statistics collected so far (exchanges, faults, control traffic, ...).
    pub fn stats(&self) -> &ProcStats {
        &self.stats
    }

    // ------------------------------------------------------------------
    // Application compute accounting
    // ------------------------------------------------------------------

    /// Charge `ns` nanoseconds of application computation to the modeled
    /// clock (the stand-in for the instructions the real application would
    /// execute between shared accesses).
    pub fn compute(&mut self, ns: u64) {
        self.clock.advance(ns);
        self.stats.compute_time_ns = self.stats.compute_time_ns.saturating_add(ns);
    }

    fn charge_access(&mut self, bytes: usize) {
        let words = bytes.div_ceil(WORD_SIZE) as u64;
        let ns = words.saturating_mul(self.cost.shared_access_ns);
        self.clock.advance(ns);
        self.stats.compute_time_ns = self.stats.compute_time_ns.saturating_add(ns);
    }

    // ------------------------------------------------------------------
    // Shared-memory access
    // ------------------------------------------------------------------

    /// Read `dst.len()` bytes of shared memory starting at `addr`.
    pub async fn read_bytes(&mut self, addr: GlobalAddr, dst: &mut [u8]) {
        self.charge_access(dst.len());
        self.ensure_valid_range(addr, dst.len() as u64, false).await;
        if self.shared.race.is_some() {
            self.note_access(addr, dst.len(), AccessKind::Read);
        }
        let ProcCtx { store, stats, .. } = self;
        store.read(addr, dst, |exch, bytes| {
            if let Some(e) = stats.exchanges.get_mut(exch as usize) {
                e.useful_payload += bytes;
            }
        });
    }

    /// Write `src` to shared memory starting at `addr`.
    pub async fn write_bytes(&mut self, addr: GlobalAddr, src: &[u8]) {
        self.charge_access(src.len());
        self.ensure_valid_range(addr, src.len() as u64, true).await;
        if self.shared.race.is_some() {
            self.note_access(addr, src.len(), AccessKind::Write);
        }
        self.store.write(addr, src);
        if self.protocol.is_home_based() {
            // Write-through to the master copy happens below at the *home*,
            // but the race detector has already attributed the write to this
            // client rank above — the home's memory changing is an artifact
            // of the protocol, not a program access.
            self.write_through_home(addr, src);
        }
    }

    /// Report one shared access to the happens-before race detector,
    /// split per page into the word ranges it covers.  The detector keeps
    /// its own per-rank sync clocks (fed by the sync hooks below) — the
    /// protocol's interval vector clock is *not* a happens-before view for
    /// race detection, because it only advances on write-notice-bearing
    /// intervals and therefore never covers a read-only processor's
    /// accesses.
    fn note_access(&mut self, addr: GlobalAddr, len: usize, kind: AccessKind) {
        if self.benign_race_depth > 0 {
            return;
        }
        let Some(race) = &self.shared.race else {
            return;
        };
        let mut det = race.borrow_mut();
        let mut remaining = len;
        let mut cursor = addr;
        while remaining > 0 {
            let page = self.layout.page_of(cursor);
            let off = self.layout.offset_in_page(cursor);
            let take = (self.layout.page_size() - off).min(remaining);
            let words = self.layout.words_covering(off, take);
            det.record_access(self.rank.0, page.0, words, kind);
            remaining -= take;
            cursor = cursor.add(take as u64);
        }
    }

    /// Open a *benign-race annotation* scope: until the matching
    /// [`ProcCtx::end_benign_race`], this processor's shared accesses are
    /// not reported to the happens-before race detector.
    ///
    /// This is the moral equivalent of a ThreadSanitizer suppression: it
    /// documents an access that is racy *by design* (for TSP, reading the
    /// current branch-and-bound bound without taking its lock — a stale
    /// bound only costs pruning efficiency, never correctness, because every
    /// bound *update* re-checks under the lock).  The annotation changes
    /// nothing about the simulation — costs, messages and values are
    /// identical with and without it, and it is a no-op unless `--racecheck`
    /// is on.  Scopes nest.
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

    /// Home-based protocol: the home's own writes go straight into the
    /// master copy (that is why the home needs no twin).  Word-granular
    /// write-through — copying whole pages at interval close instead would
    /// revert concurrently flushed remote diffs on falsely shared pages.
    /// Free of modeled cost: the master copy *is* the home's memory.
    ///
    /// This sits on the simulator's hottest path (every shared write), so
    /// it runs off the per-page home cache that write detection just filled
    /// and borrows the directory only when a segment actually lands in the
    /// master copy.
    fn write_through_home(&mut self, addr: GlobalAddr, src: &[u8]) {
        let home = self.shared.home();
        let mut dir = None;
        let mut remaining = src;
        let mut cursor = addr;
        while !remaining.is_empty() {
            let page = self.layout.page_of(cursor);
            let off = self.layout.offset_in_page(cursor);
            let take = (self.layout.page_size() - off).min(remaining.len());
            let page_home = self.meta[page.index()]
                .home
                .expect("write detection caches the home before any write lands");
            if page_home == self.rank.0 {
                dir.get_or_insert_with(|| home.borrow_mut())
                    .store_mut()
                    .write_through(page, off, &remaining[..take]);
            }
            remaining = &remaining[take..];
            cursor = cursor.add(take as u64);
        }
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
            // The write-protocol seam at write detection: a multi-writer
            // processor twins the page so the interval's modifications
            // can be diffed later; under the home-based protocol the
            // page's *home* skips the twin entirely (its writes go
            // straight into the master copy), while a non-home writer
            // still twins — the eager flush at interval close is a diff.
            let needs_twin = match self.protocol {
                ProtocolMode::MultiWriter => true,
                ProtocolMode::HomeBased { .. } => self.home_of(page) != self.rank.0,
            };
            if needs_twin {
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
            self.stats.protection_ops += 1;
            self.clock.advance(self.cost.protection_op_ns);
        }
    }

    /// The home of `page` (home-based runs only), assigning it to this
    /// processor first under the first-touch policy.  Cached per page —
    /// assignment is sticky, so the first answer is the only answer.
    fn home_of(&mut self, page: PageId) -> u32 {
        if let Some(h) = self.meta[page.index()].home {
            return h;
        }
        let h = self.shared.home().borrow_mut().home_of(page, self.rank.0);
        self.meta[page.index()].home = Some(h);
        h
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
        let mut pages = std::mem::take(&mut self.fault_pages);
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

        let outcome = self.fetch_pending(&pages);
        for &p in &pages[..validated] {
            self.prot[p.index()] &= !PROT_INVALID;
        }
        self.fault_pages = pages;

        if outcome.exchange_ids.is_empty() {
            self.stats.prefetched_faults += 1;
        }
        let stall = self.fetch_stall(outcome.total_payload);
        // Under the home-based protocol the exchanges count the *homes*
        // contacted — the signature then reads "responders per fault",
        // which is exactly the quantity the two protocols trade against
        // each other.
        self.stats.faults.push(FaultRecord {
            exchange_ids: outcome.exchange_ids,
        });
        self.stats.protection_ops += 1;

        self.clock.advance(stall);
        self.stats.fault_stall_ns = self.stats.fault_stall_ns.saturating_add(stall);
    }

    /// Make the pending notices of `fetch_pages` good, whichever way the
    /// protocol in effect does that: per-writer diff exchanges
    /// ([`exchange_pending`](Self::exchange_pending)) or whole-page fetches
    /// from the homes ([`fetch_from_homes`](Self::fetch_from_homes)).
    fn fetch_pending(&mut self, fetch_pages: &[PageId]) -> PendingExchangeOutcome {
        match self.protocol {
            ProtocolMode::MultiWriter => self.exchange_pending(fetch_pages),
            ProtocolMode::HomeBased { .. } => self.fetch_from_homes(fetch_pages),
        }
    }

    /// The stall one round of pending fetches costs, per protocol.  The
    /// replies are routed through the run's link state, where they queue
    /// behind concurrent traffic on every link the topology has.
    fn fetch_stall(&self, total_payload: u64) -> u64 {
        let costs = &self.exchange.responder_costs;
        let ranks = &self.exchange.responder_ranks;
        let now = self.clock.now_ns();
        let mut net = self.shared.net.borrow_mut();
        match self.protocol {
            ProtocolMode::MultiWriter => self.cost.fault_stall_served_on(
                costs,
                ranks,
                total_payload,
                self.rank.0,
                now,
                &mut net,
            ),
            ProtocolMode::HomeBased { .. } => self.cost.home_fetch_stall_on(
                costs,
                ranks,
                total_payload,
                self.rank.0,
                now,
                &mut net,
            ),
        }
    }

    /// Fetch and apply the pending diffs of `fetch_pages`: one aggregated
    /// exchange per concurrent writer, diffs applied in a linear extension
    /// of happens-before, pending notices cleared.  Shared by the fault
    /// handler and the GC validation flush; the caller decides what the
    /// operation *is* (a fault or a flush) and charges its stall.
    fn exchange_pending(&mut self, fetch_pages: &[PageId]) -> PendingExchangeOutcome {
        let mut xs = std::mem::take(&mut self.exchange);
        xs.clear();
        // Gather the pending write notices of every page we are fetching,
        // grouped (by the sort) by the writer that must serve the diff.
        // Pages with pending notices from more than one writer need their
        // diffs ordered by happens-before across writers, so they take the
        // per-diff path below instead of the merged chain fetch.
        for &p in fetch_pages {
            let pending = &self.meta[p.index()].pending;
            let contended = pending
                .first()
                .is_some_and(|&(first, _)| pending.iter().any(|&(w, _)| w != first));
            if contended {
                xs.contended_pages.push(p);
            }
            for &(writer, seq) in pending {
                xs.wants.push(Want {
                    responder: writer,
                    ord: xs.wants.len() as u32,
                    page: p,
                    seq,
                    contended,
                });
            }
        }
        xs.wants.sort_unstable();
        xs.contended_pages.sort_unstable();

        let same_writer = |a: &Want, b: &Want| a.responder == b.responder;
        let first_exchange = self.stats.exchanges.len() as u32;
        let mut total_payload = 0u64;
        let page_size = self.layout.page_size() as u64;

        for wants in xs.wants.chunk_by(same_writer) {
            let writer = wants[0].responder;
            debug_assert_ne!(writer, self.rank.0, "own writes are never pending");
            let exchange_id = self.stats.exchanges.len() as u32;
            let mut reply_bytes = MSG_HEADER_BYTES;
            let mut serve_extra_ns = 0u64;
            let mut delivered = 0u64;
            let mut pages_requested = 0u64;
            let mut log = self.shared.logs[writer as usize].borrow_mut();
            // `wants` lists each page's pending seqs as one consecutive
            // ascending block (it is gathered page by page, notices arrive
            // in interval order), so each block is one fetch chain.
            for chain in wants.chunk_by(|a, b| a.page == b.page) {
                let p = chain[0].page;
                pages_requested += 1;
                if !chain[0].contended {
                    // Sole pending writer: the responder serves the whole
                    // chain as one pre-merged diff with aggregate
                    // accounting identical to fetching each diff.
                    xs.chain_seqs.clear();
                    xs.chain_seqs.extend(chain.iter().map(|w| w.seq));
                    let fetched = log
                        .fetch_chain(p, &xs.chain_seqs)
                        .expect("a stored diff must exist for a published notice");
                    if fetched.created_now > 0 {
                        // Lazy timing: this request materializes diffs on
                        // the responder, serializing their creation into
                        // the responder's serve path (which we stall on).
                        serve_extra_ns = serve_extra_ns.saturating_add(
                            fetched.created_now as u64 * self.cost.diff_create_cost(page_size),
                        );
                    }
                    let last_seq = chain[chain.len() - 1].seq;
                    let weight = log
                        .record(last_seq)
                        .expect("published interval record must exist")
                        .vc
                        .weight();
                    reply_bytes += fetched.wire_bytes;
                    delivered += fetched.payload_bytes;
                    xs.to_apply.push(Fetched {
                        weight,
                        writer,
                        seq: last_seq,
                        ord: xs.to_apply.len() as u32,
                        diff: fetched.diff,
                        exchange: exchange_id,
                        solo: true,
                    });
                } else {
                    for &Want { seq, .. } in chain {
                        let fetched = log
                            .fetch_diff(p, seq)
                            .expect("a stored diff must exist for a published notice");
                        if fetched.created_now {
                            serve_extra_ns = serve_extra_ns
                                .saturating_add(self.cost.diff_create_cost(page_size));
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
                            writer,
                            seq,
                            ord: xs.to_apply.len() as u32,
                            diff: fetched.diff,
                            exchange: exchange_id,
                            solo: false,
                        });
                    }
                }
            }
            total_payload += delivered;
            xs.responder_costs.push(ResponderCost {
                reply_bytes,
                serve_extra_ns,
            });
            xs.responder_ranks.push(writer);
            self.stats.exchanges.push(DiffExchange {
                // The request: a header and 8 bytes per page asked for.
                wire_bytes: MSG_HEADER_BYTES + 8 * pages_requested + reply_bytes,
                delivered_payload: delivered,
                useful_payload: 0,
            });
        }

        // Apply the diffs in a linear extension of happens-before (vector
        // clock weight, then writer id, then sequence number; fetch order
        // last, which makes the unstable sort a stable one).  Diffs of
        // concurrent intervals touch disjoint words in a data-race-free
        // program, so their relative order does not matter.
        xs.to_apply
            .sort_unstable_by_key(|f| (f.weight, f.writer, f.seq, f.ord));
        // Reverse painter's algorithm: walking the batch backwards, each
        // diff only writes the words no later-applied diff of the same page
        // touches.  Every word still ends with the bytes, attribution, and
        // dirty bit of the last diff that touches it — identical to applying
        // the whole chain forward — and no counter fires during application
        // (wire and fetch accounting already happened above), so the result
        // is bit-identical while the memory traffic shrinks from the sum of
        // all fetched payloads to their union.  GC flushes fetch long
        // same-page diff chains, which is where this pays off.
        let page_words = self.layout.page_size() / WORD_SIZE;
        let page_blocks = page_words.div_ceil(64);
        xs.cover_bits
            .resize(xs.contended_pages.len() * page_blocks, 0);
        xs.cover_set.resize(xs.contended_pages.len(), 0);
        for f in xs.to_apply.iter().rev() {
            if f.solo {
                // A merged chain is its page's only entry in the batch (its
                // page had a single pending writer), so no cover tracking is
                // needed: apply it whole.  The deferred path parks whole-page
                // payloads instead of copying them — GC validation flushes
                // repeatedly redeliver pages the next flush overwrites.
                self.store.page_mut(f.diff.page).apply_diff_deferred(
                    &f.diff,
                    f.exchange,
                    &mut xs.fold_cover,
                    &mut xs.visible,
                );
                continue;
            }
            let k = xs
                .contended_pages
                .binary_search(&f.diff.page)
                .expect("a diff fetched on its own is of a contended page");
            let set = &mut xs.cover_set[k];
            if *set == page_words {
                // Every word of the page is already claimed by later diffs:
                // this one is fully shadowed.
                continue;
            }
            let cov = &mut xs.cover_bits[k * page_blocks..(k + 1) * page_blocks];
            xs.visible.clear();
            for span in f.diff.spans() {
                *set += subtract_cover(span.offset, span.len as usize, cov, &mut xs.visible);
            }
            if !xs.visible.is_empty() {
                self.store.page_mut(f.diff.page).apply_diff_visible(
                    &f.diff,
                    f.exchange,
                    &xs.visible,
                );
            }
        }
        // Let go of the fetched diffs now, not at the next fault: a diff the
        // scratch still held could not be salvaged when its interval retires.
        xs.to_apply.clear();
        self.exchange = xs;
        self.clear_pending(fetch_pages);

        PendingExchangeOutcome {
            exchange_ids: first_exchange..self.stats.exchanges.len() as u32,
            total_payload,
        }
    }

    /// Book-keeping shared by both protocols' fetch paths: fetched pages
    /// have no pending notices left (their entries also leave the per-writer
    /// pending multiset the barrier GC reads its floors from).
    fn clear_pending(&mut self, pages: &[PageId]) {
        for &p in pages {
            for &(writer, seq) in &self.meta[p.index()].pending {
                if let std::collections::btree_map::Entry::Occupied(mut e) =
                    self.pending_seqs.entry((writer, seq))
                {
                    *e.get_mut() -= 1;
                    if *e.get() == 0 {
                        e.remove();
                    }
                    self.pending_total -= 1;
                }
            }
            self.meta[p.index()].pending.clear();
        }
    }

    /// Home-based counterpart of [`exchange_pending`](Self::exchange_pending):
    /// bring the pages of `fetch_pages` that carry pending write notices up
    /// to date by fetching their *whole* master copies from their homes —
    /// one aggregated request/reply exchange per remote home contacted.
    /// Pages homed at this processor are refreshed from the co-resident
    /// master copy at zero message cost.  (Every fetched page has a pending
    /// notice, so its writer already assigned it a home — first-touch
    /// assignment happens at write detection, never here.)
    ///
    /// Every word of a remotely fetched page is delivered and attributed to
    /// the exchange, so the useful/useless classifier sees the whole page —
    /// the false-sharing exposure the single-writer organization pays for.
    fn fetch_from_homes(&mut self, fetch_pages: &[PageId]) -> PendingExchangeOutcome {
        let mut xs = std::mem::take(&mut self.exchange);
        xs.clear();
        let mut dir = self.shared.home().borrow_mut();
        let page_size = self.layout.page_size();
        let mut total_payload = 0u64;
        xs.page_buf.resize(page_size, 0);

        // Only pages with pending notices are stale; the others are validated
        // without traffic, exactly as in the multi-writer protocol.
        for &p in fetch_pages {
            if self.meta[p.index()].pending.is_empty() {
                continue;
            }
            let h = dir.home_of(p, self.rank.0);
            if h == self.rank.0 {
                // Refresh a self-homed page from the co-resident master
                // copy: no message, no attribution (nothing was delivered
                // over the wire), but the memcpy is part of the fault's
                // applied payload.
                dir.store().copy_page_into(p, &mut xs.page_buf);
                self.store
                    .page_mut(p)
                    .load_page(&xs.page_buf, tm_page::NO_EXCHANGE);
                total_payload += page_size as u64;
            } else {
                xs.wants.push(Want {
                    responder: h,
                    ord: xs.wants.len() as u32,
                    page: p,
                    seq: 0,
                    contended: false,
                });
            }
        }
        xs.wants.sort_unstable();

        let same_home = |a: &Want, b: &Want| a.responder == b.responder;
        let first_exchange = self.stats.exchanges.len() as u32;
        for pages in xs.wants.chunk_by(same_home) {
            let home_rank = pages[0].responder;
            let exchange_id = self.stats.exchanges.len() as u32;
            let delivered = (pages.len() * page_size) as u64;
            let reply_bytes = MSG_HEADER_BYTES + delivered;
            for &Want { page: p, .. } in pages {
                dir.store().copy_page_into(p, &mut xs.page_buf);
                self.store.page_mut(p).load_page(&xs.page_buf, exchange_id);
            }
            total_payload += delivered;
            self.stats.page_fetches += pages.len() as u64;
            xs.responder_costs.push(ResponderCost {
                reply_bytes,
                serve_extra_ns: 0,
            });
            xs.responder_ranks.push(home_rank);
            self.stats.exchanges.push(DiffExchange {
                // The request: a header and 8 bytes per page asked for.
                wire_bytes: MSG_HEADER_BYTES + 8 * pages.len() as u64 + reply_bytes,
                delivered_payload: delivered,
                useful_payload: 0,
            });
        }
        drop(dir);
        self.exchange = xs;

        self.clear_pending(fetch_pages);

        PendingExchangeOutcome {
            exchange_ids: first_exchange..self.stats.exchanges.len() as u32,
            total_payload,
        }
    }

    /// TreadMarks' garbage-collection validation, triggered by memory
    /// pressure (`DsmConfig::gc_flush_pending_limit`): fetch *every* pending
    /// diff — one aggregated exchange per writer — and validate the pages,
    /// so that no pending floor pins the interval logs any more and the next
    /// barrier episode can retire them wholesale.  This sends real,
    /// accounted messages; below the trigger it never runs and the run is
    /// bit-identical to one with the flush disabled.
    async fn flush_pending_for_gc(&mut self) {
        let pages: Vec<PageId> = self
            .meta
            .iter()
            .enumerate()
            .filter(|(_, m)| !m.pending.is_empty())
            .map(|(i, _)| PageId(i as u32))
            .collect();
        if pages.is_empty() {
            return;
        }
        self.shared
            .sync
            .yield_turn(self.rank.index(), self.clock.now_ns())
            .await;
        // Fetch through the protocol's own service path: per-writer diff
        // exchanges, or whole-page fetches from the homes.
        let outcome = self.fetch_pending(&pages);
        // The flushed pages are now up to date: validate them (one batched
        // protection operation, as in a multi-page fault).
        for &p in &pages {
            self.prot[p.index()] &= !PROT_INVALID;
        }
        self.stats.protection_ops += 1;
        self.clock.advance(self.cost.protection_op_ns);
        // Not a fault: no fault record, no signature contribution — but the
        // fetch stall is real.
        let stall = self.fetch_stall(outcome.total_payload);
        self.clock.advance(stall);
        self.stats.fault_stall_ns = self.stats.fault_stall_ns.saturating_add(stall);
        self.stats.gc_pending_flushes += 1;
    }

    // ------------------------------------------------------------------
    // Interval management and write-notice propagation
    // ------------------------------------------------------------------

    /// Close the current interval: encode every dirty page's modifications,
    /// retire the twins, publish the interval record (and, under eager
    /// timing, the already-materialized diffs), and advance the local vector
    /// clock.
    ///
    /// Under [`DiffTiming::Lazy`] only the write notices are *protocol*
    /// output: the encoded diffs ride along unmaterialized (the simulator
    /// compares twin and current contents here in both timings, so the two
    /// variants ship byte-identical diffs and notices), and
    /// `diff_create_cost` is charged on the serve path at the first request
    /// instead of here — see DESIGN.md, "Eager versus lazy diff creation".
    fn close_interval(&mut self) {
        if self.dirty_pages.is_empty() {
            return;
        }
        if self.protocol.is_home_based() {
            self.close_interval_home();
            return;
        }
        // Recycle the span/payload buffers of the diffs this processor's
        // own log retired in the previous episode.
        let mut pool = self.shared.logs[self.rank.index()]
            .borrow_mut()
            .take_buffer_pool();
        let mut pages = Vec::new();
        let mut diffs = std::mem::take(&mut self.diff_scratch);
        let page_size = self.layout.page_size() as u64;
        let eager = self.diff_timing == DiffTiming::Eager;
        // Detach the dirty list instead of copying it; nothing in the loop
        // re-dirties a page, and the buffer (and its capacity) goes back
        // afterwards.
        let mut dirty = std::mem::take(&mut self.dirty_pages);
        for &page in &dirty {
            let (spans, packed) = pool.pop().unwrap_or_default();
            let lp = self.store.page_mut(page);

            let diff = lp
                .make_diff_in(page, spans, packed)
                .expect("dirty page must have a twin at interval close");
            lp.drop_twin();
            self.prot[page.index()] &= !PROT_DIRTY;
            if eager {
                self.clock.advance(self.cost.diff_create_cost(page_size));
            }
            // Re-protect the page so the next write re-twins.
            self.stats.protection_ops += 1;
            self.clock.advance(self.cost.protection_op_ns);
            if diff.is_empty() {
                // The page was written with values identical to the twin's;
                // nothing to propagate (the buffers go straight back).
                pool.push(diff.into_buffers());
                continue;
            }
            if eager {
                self.stats.diffs_created += 1;
                self.stats.diff_bytes_created += diff.payload_bytes();
            }
            pages.push(page);
            diffs.push((page, Arc::new(diff)));
        }
        dirty.clear();
        self.dirty_pages = dirty;
        self.shared.logs[self.rank.index()]
            .borrow_mut()
            .restore_buffer_pool(pool);
        self.publish_interval(pages, &mut diffs);
        self.diff_scratch = diffs;
    }

    /// Shared tail of both protocols' interval closes: bump the local
    /// vector-clock entry, publish the record of the interval that wrote
    /// `pages` (with whatever diffs the protocol stores in the log — none
    /// under home-based) and account the notices.  No-op when the interval
    /// produced no notices (an all-silent-writes close).
    fn publish_interval(&mut self, pages: Vec<PageId>, diffs: &mut Vec<(PageId, Arc<Diff>)>) {
        if pages.is_empty() {
            debug_assert!(diffs.is_empty(), "diffs without write notices");
            return;
        }
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
            .publish_drain(record, diffs, self.diff_timing);
    }

    /// Home-based interval close: diff every dirty *non-home* page against
    /// its twin and eagerly flush the diffs to the pages' homes (one
    /// [`MsgKind::HomeUpdate`] message per home contacted), apply them to
    /// the master copies, and publish write notices — but store **no** diffs
    /// in the interval log: faults fetch whole pages from the homes, so the
    /// log is pure notice book-keeping (and its GC never waits for diff
    /// requests).  Dirty pages homed at this processor need neither twin nor
    /// flush — their words already went through to the master copy — but
    /// they do publish notices so the other processors invalidate.
    ///
    /// Diff timing is irrelevant here: the home-based organization is
    /// inherently eager (the flush happens at close, on the writer).
    fn close_interval_home(&mut self) {
        let page_size = self.layout.page_size() as u64;
        let mut pages = Vec::new();
        // Per home contacted: total diff wire bytes of this flush.
        let mut flushes: BTreeMap<u32, u64> = BTreeMap::new();
        let mut dir = self.shared.home().borrow_mut();
        let mut dirty = std::mem::take(&mut self.dirty_pages);
        for &page in &dirty {
            self.prot[page.index()] &= !PROT_DIRTY;
            // Re-protect the page so the next write re-arms detection.
            self.stats.protection_ops += 1;
            self.clock.advance(self.cost.protection_op_ns);
            let home_rank = self.meta[page.index()]
                .home
                .expect("write detection caches the home of every dirty page");
            if home_rank == self.rank.0 {
                // The master copy is already current (write-through); the
                // notice is published unconditionally — without a twin the
                // home cannot tell a silent rewrite from a real change.
                pages.push(page);
                continue;
            }
            // The flushed diff dies at the end of this iteration, so one
            // recycled buffer pair serves the whole loop.
            let (spans, packed) = std::mem::take(&mut self.home_diff_buf);
            let lp = self.store.page_mut(page);
            let diff = lp
                .make_diff_in(page, spans, packed)
                .expect("dirty non-home page must have a twin at interval close");
            lp.drop_twin();
            self.clock.advance(self.cost.diff_create_cost(page_size));
            if diff.is_empty() {
                // Rewrote the twin's values: nothing to flush or announce.
                self.home_diff_buf = diff.into_buffers();
                continue;
            }
            self.stats.diffs_created += 1;
            self.stats.diff_bytes_created += diff.payload_bytes();
            *flushes.entry(home_rank).or_insert(0) += diff.wire_bytes();
            dir.store_mut().apply_diff(&diff);
            pages.push(page);
            self.home_diff_buf = diff.into_buffers();
        }
        dirty.clear();
        self.dirty_pages = dirty;
        drop(dir);

        // One update message per home contacted, carrying that home's diffs.
        // The message and byte *counters* are identical whatever the
        // topology or aggregation policy — only the modeled flush time
        // changes — so breakdowns stay comparable across network cells.
        for (&_home_rank, &wire_bytes) in &flushes {
            self.stats.record_control(MsgKind::HomeUpdate, wire_bytes);
            self.stats.home_updates += 1;
        }
        let mut net = self.shared.net.borrow_mut();
        if self.aggregation.is_batched() {
            // The whole interval's flushes as one wire message: one
            // broadcast on the bus, a replicated copy per home on the
            // switch (where the useless replicated bytes are what makes
            // batching lose), and the plain per-message flushes where
            // there is no wire to batch for.
            let batch: Vec<(u32, u64)> = flushes.iter().map(|(&h, &b)| (h, b)).collect();
            let now = self.clock.now_ns();
            let cost = self
                .cost
                .home_flush_batch_cost_on(&batch, self.rank.0, now, &mut net);
            self.clock.advance(cost);
        } else {
            for (&home_rank, &wire_bytes) in &flushes {
                let now = self.clock.now_ns();
                let cost = self.cost.home_update_cost_on(
                    MSG_HEADER_BYTES.saturating_add(wire_bytes),
                    self.rank.0,
                    home_rank,
                    now,
                    &mut net,
                );
                self.clock.advance(cost);
            }
        }
        drop(net);

        let mut diffs = std::mem::take(&mut self.diff_scratch);
        self.publish_interval(pages, &mut diffs);
        self.diff_scratch = diffs;
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
        // Stage the notices through a reusable flat buffer: the page lists
        // are copied out so the writer's log is not borrowed while we mutate
        // our own state below, but not one Vec clone per record.
        let mut scratch = std::mem::take(&mut self.notice_scratch);
        scratch.clear();
        {
            let log = self.shared.logs[writer].borrow();
            for r in log.records_between(already, up_to) {
                scratch.extend(r.pages.iter().map(|&p| (r.id.seq, p)));
            }
        }
        for &(seq, page) in &scratch {
            self.meta[page.index()].pending.push((writer as u32, seq));
            *self.pending_seqs.entry((writer as u32, seq)).or_insert(0) += 1;
            self.pending_total += 1;
            self.invalidate_unit_of(page);
            incorporated += 1;
        }
        self.notice_scratch = scratch;
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
            self.stats.protection_ops += 1;
            self.clock.advance(self.cost.protection_op_ns);
        }
    }

    /// Rebuild the dynamic page groups (no-op under a static policy).
    fn resync_aggregator(&mut self) {
        if let Some(agg) = self.agg.as_mut() {
            agg.rebuild_groups();
        }
    }

    // ------------------------------------------------------------------
    // Synchronization operations
    // ------------------------------------------------------------------

    /// Acquire global lock `lock_id`, incorporating the write notices that
    /// the last releaser's critical section makes visible.
    pub async fn acquire(&mut self, lock_id: usize) {
        self.close_interval();
        self.resync_aggregator();

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
        if reacquire {
            self.clock.advance(self.cost.protection_op_ns.max(1_000));
        } else {
            self.clock.advance(self.cost.lock_latency());
        }

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
        if let Some(race) = &self.shared.race {
            race.borrow_mut().on_acquire(self.rank.0, lock_id);
        }

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
        self.stats.sync_stall_ns = self
            .stats
            .sync_stall_ns
            .saturating_add(self.clock.now_ns() - stall_start);
    }

    /// Release global lock `lock_id`, making this processor's modifications
    /// visible to the next acquirer.
    pub async fn release(&mut self, lock_id: usize) {
        self.close_interval();
        self.resync_aggregator();
        if let Some(race) = &self.shared.race {
            // Before the lock becomes grantable: the next acquirer's hook
            // must find this critical section's closed sync interval.
            race.borrow_mut().on_release(self.rank.0, lock_id);
        }
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
        self.close_interval();
        self.resync_aggregator();

        let stall_start = self.clock.now_ns();
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
        debug_assert_eq!(
            self.pending_total,
            self.pending_seqs
                .values()
                .map(|&c| c as usize)
                .sum::<usize>(),
            "incrementally maintained pending total drifted from the multiset"
        );
        if self.pending_total > self.gc_flush_pending_limit {
            self.flush_pending_for_gc().await;
        }

        // This processor's contribution to the episode's GC watermark: for
        // every writer we have something pending of, the oldest interval we
        // have incorporated but not applied — each writer's first key, found
        // by seeking past the previous writer's entries.
        self.pending_floors.clear();
        let mut from = 0u32;
        while let Some((&(writer, floor), _)) = self.pending_seqs.range((from, 0)..).next() {
            self.pending_floors.push((writer, floor));
            from = writer + 1;
        }

        let my_published = self.vc.get(self.rank.index());
        if let Some(race) = &self.shared.race {
            race.borrow_mut().on_barrier_arrive(self.rank.0);
        }
        let epoch = self
            .shared
            .sync
            .barrier_arrive(
                self.rank.index(),
                self.clock.now_ns(),
                self.cost.barrier_latency(self.nprocs as u32),
                my_published,
                &self.pending_floors,
            )
            .await;
        self.clock.wait_until(epoch.depart_clock_ns);
        if let Some(race) = &self.shared.race {
            race.borrow_mut().on_barrier_depart(self.rank.0);
        }

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

        if self.rank.0 != 0 {
            self.stats
                .record_control(MsgKind::BarrierDepart, notices * NOTICE_WIRE_BYTES);
        }
        self.stats.barriers += 1;
        self.stats.sync_stall_ns = self
            .stats
            .sync_stall_ns
            .saturating_add(self.clock.now_ns() - stall_start);
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
