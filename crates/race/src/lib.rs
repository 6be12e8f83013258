//! # tm-race — observing a DSM run: race detection and the flat-memory oracle
//!
//! Lazy release consistency only promises sequentially-consistent results to
//! *data-race-free* programs, and every repo invariant (bit-identical
//! checksums across protocols and topologies) silently assumes the
//! applications are DRF.  This crate checks that assumption — a
//! FastTrack-style happens-before detector ([`RaceDetector`]) — and what LRC
//! then owes a race-free run: every read returns the happens-before-latest
//! write ([`FlatOracle`]).  Both implement [`Observer`], the one seam a run
//! reports through; its events are plain integers and bytes, so this crate
//! needs no simulator.  An observer never feeds back into the run.
//!
//! The detector keeps its own per-rank *sync* vector clocks, not the
//! protocol's interval clocks (those advance only on intervals that publish
//! write notices, so a read-only rank's lock-ordered reads would never be
//! covered): a release closes the releaser's sync interval and stamps the
//! lock, an acquire merges the stamp, a barrier merges every arriver's clock
//! into every departer's.  An access belongs to its rank's *open* interval,
//! and an earlier access `(q, s)` happened-before it exactly when the
//! accessor's clock covers interval `s` of `q`.  Per word it keeps
//! FastTrack's adaptive epochs: the last write as one `(rank, interval)`,
//! the reads as an epoch inflated to a vector only while they are
//! concurrent.  Races are deduplicated on `(page, word, ranks, kinds)` with
//! first-occurrence timestamps, coalesced into word ranges and sorted
//! ([`RaceDetector::take_races`]) — a pure function of (app, config, seed,
//! schedule).  DESIGN.md, "Race detection under lazy release consistency",
//! has the rationale.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::BTreeMap;

mod oracle;
pub use oracle::{FlatOracle, Mismatch};

/// Bytes per shared word (`tm_page::WORD_SIZE`).
const WORD_BYTES: usize = 4;

/// Kind of a shared-memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AccessKind {
    /// A load from shared memory.
    Read,
    /// A store to shared memory (including home-based write-through, which
    /// is attributed to the writing client rank, not the home).
    Write,
}

impl AccessKind {
    /// Stable lowercase name used in JSON documents.
    pub fn name(self) -> &'static str {
        match self {
            AccessKind::Read => "read",
            AccessKind::Write => "write",
        }
    }

    /// Inverse of [`AccessKind::name`].
    pub fn from_name(s: &str) -> Option<AccessKind> {
        match s {
            "read" => Some(AccessKind::Read),
            "write" => Some(AccessKind::Write),
            _ => None,
        }
    }
}

/// A lock or barrier operation of one simulated processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncEvent {
    /// Granted this lock (its write notices incorporated).
    Acquire(usize),
    /// Releasing this lock, before it becomes grantable.
    Release(usize),
    /// Arrived at the global barrier.
    BarrierArrive,
    /// Left the global barrier.
    BarrierDepart,
}

/// What a simulated cluster run reports while it executes, in host order —
/// one rank running at a time, a linearisation of its happens-before order.
/// An observer never feeds back: installing one changes no statistic.
pub trait Observer: std::fmt::Debug {
    /// `rank` read or wrote `bytes` at byte `offset` of the shared space,
    /// reported once served; `benign` inside `ProcCtx::begin_benign_race`.
    fn access(&mut self, rank: u32, offset: u64, bytes: &[u8], kind: AccessKind, benign: bool);
    /// `rank` performed a lock or barrier operation (ignored by default).
    fn sync(&mut self, _rank: u32, _event: SyncEvent) {}
    /// Scheduling decision number `index` (every one after the run's first)
    /// handed the turn to `rank` (ignored by default).
    fn decision(&mut self, _index: u64, _rank: u32) {}
}

/// Two observers of one run: every event goes to the first, then the second.
impl<A: Observer, B: Observer> Observer for (A, B) {
    fn access(&mut self, rank: u32, offset: u64, bytes: &[u8], kind: AccessKind, benign: bool) {
        self.0.access(rank, offset, bytes, kind, benign);
        self.1.access(rank, offset, bytes, kind, benign);
    }

    fn sync(&mut self, rank: u32, event: SyncEvent) {
        self.0.sync(rank, event);
        self.1.sync(rank, event);
    }

    fn decision(&mut self, index: u64, rank: u32) {
        self.0.decision(index, rank);
        self.1.decision(index, rank);
    }
}

/// A `(rank, interval-sequence)` pair identifying one access time: the
/// access happened during interval `seq` of processor `rank`.
///
/// Packed into a single `u64` (`seq` in the high half) so the per-word fast
/// path is one integer compare.  `seq` 0 is reserved for "no access yet":
/// interval sequence numbers start at 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Epoch(u64);

impl Epoch {
    const NONE: Epoch = Epoch(0);

    #[inline]
    fn new(rank: u32, seq: u32) -> Epoch {
        Epoch((seq as u64) << 32 | rank as u64)
    }

    #[inline]
    fn rank(self) -> u32 {
        self.0 as u32
    }

    #[inline]
    fn seq(self) -> u32 {
        (self.0 >> 32) as u32
    }

    #[inline]
    fn is_none(self) -> bool {
        self.0 == 0
    }
}

/// Read history of one word: a single epoch while reads are totally ordered,
/// inflated to a full per-rank clock vector only while reads are concurrent.
#[derive(Debug, Clone)]
enum ReadState {
    /// At most one "last read" that all earlier reads happened-before.
    Epoch(Epoch),
    /// Concurrent reads: entry `q` is the latest interval of rank `q` that
    /// read the word (0 = never).
    Vector(Box<[u32]>),
}

/// Detection state of one shared word.
#[derive(Debug, Clone)]
struct WordState {
    write: Epoch,
    read: ReadState,
}

impl WordState {
    const INIT: WordState = WordState {
        write: Epoch::NONE,
        read: ReadState::Epoch(Epoch::NONE),
    };
}

/// One reported data race: two accesses to the same word(s) of the same
/// page by different processors, unordered by the lock/barrier
/// happens-before relation.
///
/// `word_lo..=word_hi` is a coalesced run of adjacent words racing with the
/// same `(ranks, kinds, intervals)` signature.  The `first` access is the
/// one the deterministic schedule performed earlier.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RaceRecord {
    /// Page containing the racing words.
    pub page: u32,
    /// First racing word index within the page (inclusive).
    pub word_lo: u32,
    /// Last racing word index within the page (inclusive).
    pub word_hi: u32,
    /// Rank of the earlier access.
    pub first_rank: u32,
    /// Kind of the earlier access.
    pub first_kind: AccessKind,
    /// Interval sequence number (logical timestamp) of the earlier access.
    pub first_interval: u32,
    /// Rank of the later access.
    pub second_rank: u32,
    /// Kind of the later access.
    pub second_kind: AccessKind,
    /// Interval sequence number (logical timestamp) of the later access.
    pub second_interval: u32,
}

impl std::fmt::Display for RaceRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "page#{} words {}..={}: {} by p{} (interval {}) races with {} by p{} (interval {})",
            self.page,
            self.word_lo,
            self.word_hi,
            self.first_kind.name(),
            self.first_rank,
            self.first_interval,
            self.second_kind.name(),
            self.second_rank,
            self.second_interval,
        )
    }
}

/// Deduplication key of a race: where it is and who collided, but not when.
/// A racy loop hits the same word with the same rank/kind pair thousands of
/// times; reporting each occurrence would bury the signal, so only the first
/// occurrence's timestamps are kept (well defined — the schedule is
/// deterministic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct RaceKey {
    // Field order matters: the derived `Ord` sorts `word` last so that the
    // words of one `(page, ranks, kinds)` signature iterate adjacently and
    // can be coalesced into ranges.
    page: u32,
    first_rank: u32,
    first_kind: AccessKind,
    second_rank: u32,
    second_kind: AccessKind,
    word: u32,
}

/// FastTrack-style happens-before race detector over sync vector clocks.
///
/// One detector observes a whole cluster run: processors report every
/// shared read/write, and the detector flags conflicting same-word accesses
/// by different ranks that its sync clocks do not order.
#[derive(Debug)]
pub struct RaceDetector {
    nprocs: usize,
    words_per_page: usize,
    /// Per-page word state, allocated lazily on first access to the page.
    pages: Vec<Option<Box<[WordState]>>>,
    /// First-occurrence timestamps per deduplicated race.
    races: BTreeMap<RaceKey, (u32, u32)>,
    /// Per-rank sync vector clock: `clocks[r][q]` is the latest closed sync
    /// interval of `q` that `r`'s next access happens-after; `clocks[r][r]`
    /// is `r`'s own last closed interval (its open interval is one past).
    clocks: Vec<Box<[u32]>>,
    /// Per-lock stamp: the releaser's clock at the last release.
    lock_clocks: BTreeMap<usize, Box<[u32]>>,
    /// Per-episode merged arrival clock of the global barrier (indexed by
    /// how many barriers a rank has crossed — all ranks arrive before any
    /// departs, so the merge is complete when read at departure).
    barrier_merges: Vec<Box<[u32]>>,
    /// Per-rank count of barrier episodes departed so far.
    barrier_seq: Vec<usize>,
}

impl RaceDetector {
    /// Create a detector for a cluster of `nprocs` processors over a shared
    /// space of `total_pages` pages of `words_per_page` words each.
    pub fn new(nprocs: usize, total_pages: u32, words_per_page: usize) -> Self {
        RaceDetector {
            nprocs,
            words_per_page,
            pages: vec![None; total_pages as usize],
            races: BTreeMap::new(),
            clocks: vec![vec![0u32; nprocs].into_boxed_slice(); nprocs],
            lock_clocks: BTreeMap::new(),
            barrier_merges: Vec::new(),
            barrier_seq: vec![0; nprocs],
        }
    }

    /// Report that `rank` arrived at the global barrier: its open interval
    /// closes and its clock joins the episode's merge.  ([`Observer::sync`]'s
    /// arm, public for the repo benchmark's probe.)
    pub fn on_barrier_arrive(&mut self, rank: u32) {
        let r = rank as usize;
        self.clocks[r][r] += 1;
        let episode = self.barrier_seq[r];
        if self.barrier_merges.len() <= episode {
            self.barrier_merges
                .resize(episode + 1, vec![0u32; self.nprocs].into_boxed_slice());
        }
        let merge = &mut self.barrier_merges[episode];
        for (m, &c) in merge.iter_mut().zip(self.clocks[r].iter()) {
            *m = (*m).max(c);
        }
    }

    /// Report that `rank` departed the global barrier: it leaves with the
    /// episode's fully merged clock (every rank arrived before any departed,
    /// so the merge is complete).  (Public for the same probe.)
    pub fn on_barrier_depart(&mut self, rank: u32) {
        let r = rank as usize;
        let episode = self.barrier_seq[r];
        let merge = &self.barrier_merges[episode];
        let clock = &mut self.clocks[r];
        for (c, &m) in clock.iter_mut().zip(merge.iter()) {
            *c = (*c).max(m);
        }
        self.barrier_seq[r] = episode + 1;
    }

    /// Number of distinct (deduplicated, uncoalesced) races recorded so far.
    pub fn race_count(&self) -> usize {
        self.races.len()
    }

    /// Record one access and check it against the word's history.  The
    /// access is attributed to `rank`'s *open* sync interval (one past its
    /// own clock entry), and checked against the detector's happens-before
    /// view for that rank (maintained by [`Observer::sync`]).
    ///
    /// # Panics
    /// Panics if the page is out of range or the word range exceeds the page.
    pub fn record_access(
        &mut self,
        rank: u32,
        page: u32,
        words: std::ops::Range<usize>,
        kind: AccessKind,
    ) {
        assert!(words.end <= self.words_per_page, "word range exceeds page");
        let view: &[u32] = &self.clocks[rank as usize];
        let open_seq = view[rank as usize] + 1;
        let epoch = Epoch::new(rank, open_seq);
        let words_per_page = self.words_per_page;
        let state = self.pages[page as usize]
            .get_or_insert_with(|| vec![WordState::INIT; words_per_page].into_boxed_slice());

        // Happens-before test: did interval `seq` of `q` close before the
        // accessor's current view?  The accessor's own open interval trivially
        // happens-after its own earlier epochs.
        let covers = |q: u32, seq: u32| -> bool {
            if q == rank {
                seq <= open_seq
            } else {
                seq <= view[q as usize]
            }
        };

        for word in words {
            let st = &mut state[word];
            match kind {
                AccessKind::Read => {
                    // Same-epoch fast path.
                    if let ReadState::Epoch(e) = st.read {
                        if e == epoch {
                            continue;
                        }
                    }
                    // Write-read race.
                    if !st.write.is_none() && !covers(st.write.rank(), st.write.seq()) {
                        Self::report(
                            &mut self.races,
                            page,
                            word as u32,
                            (st.write.rank(), AccessKind::Write, st.write.seq()),
                            (rank, AccessKind::Read, open_seq),
                        );
                    }
                    // Update read history, inflating on concurrent reads.
                    match &mut st.read {
                        ReadState::Epoch(e) => {
                            if e.is_none() || covers(e.rank(), e.seq()) {
                                *e = epoch;
                            } else {
                                let mut vc = vec![0u32; self.nprocs].into_boxed_slice();
                                vc[e.rank() as usize] = e.seq();
                                vc[rank as usize] = open_seq;
                                st.read = ReadState::Vector(vc);
                            }
                        }
                        ReadState::Vector(vc) => {
                            vc[rank as usize] = open_seq.max(vc[rank as usize]);
                        }
                    }
                }
                AccessKind::Write => {
                    // Same-epoch fast path.
                    if st.write == epoch {
                        if let ReadState::Epoch(e) = st.read {
                            if e.is_none() || e == epoch {
                                continue;
                            }
                        }
                    }
                    // Write-write race.
                    if !st.write.is_none()
                        && st.write.rank() != rank
                        && !covers(st.write.rank(), st.write.seq())
                    {
                        Self::report(
                            &mut self.races,
                            page,
                            word as u32,
                            (st.write.rank(), AccessKind::Write, st.write.seq()),
                            (rank, AccessKind::Write, open_seq),
                        );
                    }
                    // Read-write races.
                    match &st.read {
                        ReadState::Epoch(e) => {
                            if !e.is_none() && e.rank() != rank && !covers(e.rank(), e.seq()) {
                                Self::report(
                                    &mut self.races,
                                    page,
                                    word as u32,
                                    (e.rank(), AccessKind::Read, e.seq()),
                                    (rank, AccessKind::Write, open_seq),
                                );
                            }
                        }
                        ReadState::Vector(vc) => {
                            for (q, &seq) in vc.iter().enumerate() {
                                if seq != 0 && q as u32 != rank && !covers(q as u32, seq) {
                                    Self::report(
                                        &mut self.races,
                                        page,
                                        word as u32,
                                        (q as u32, AccessKind::Read, seq),
                                        (rank, AccessKind::Write, open_seq),
                                    );
                                }
                            }
                            // All concurrent reads are now recorded; deflate
                            // back to the epoch representation (FastTrack's
                            // write-shared transition).
                            st.read = ReadState::Epoch(Epoch::NONE);
                        }
                    }
                    st.write = epoch;
                }
            }
        }
    }

    fn report(
        races: &mut BTreeMap<RaceKey, (u32, u32)>,
        page: u32,
        word: u32,
        first: (u32, AccessKind, u32),
        second: (u32, AccessKind, u32),
    ) {
        let key = RaceKey {
            page,
            word,
            first_rank: first.0,
            first_kind: first.1,
            second_rank: second.0,
            second_kind: second.1,
        };
        races.entry(key).or_insert((first.2, second.2));
    }

    /// Drain the recorded races as a deterministic, sorted race set:
    /// adjacent words with the same `(ranks, kinds, intervals)` signature
    /// are coalesced into one record's word range.
    pub fn take_races(&mut self) -> Vec<RaceRecord> {
        let mut out: Vec<RaceRecord> = Vec::new();
        for (key, &(first_interval, second_interval)) in &self.races {
            if let Some(last) = out.last_mut() {
                if last.page == key.page
                    && last.word_hi + 1 == key.word
                    && last.first_rank == key.first_rank
                    && last.first_kind == key.first_kind
                    && last.first_interval == first_interval
                    && last.second_rank == key.second_rank
                    && last.second_kind == key.second_kind
                    && last.second_interval == second_interval
                {
                    last.word_hi = key.word;
                    continue;
                }
            }
            out.push(RaceRecord {
                page: key.page,
                word_lo: key.word,
                word_hi: key.word,
                first_rank: key.first_rank,
                first_kind: key.first_kind,
                first_interval,
                second_rank: key.second_rank,
                second_kind: key.second_kind,
                second_interval,
            });
        }
        self.races.clear();
        out.sort();
        out
    }
}

impl Observer for RaceDetector {
    /// Record the words of every page the access covers, unless benign.
    fn access(&mut self, rank: u32, offset: u64, bytes: &[u8], kind: AccessKind, benign: bool) {
        let page_size = (self.words_per_page * WORD_BYTES) as u64;
        let (mut cursor, end) = (offset, offset + bytes.len() as u64);
        while cursor < end && !benign {
            let in_page = (cursor % page_size) as usize;
            let take = (page_size - in_page as u64).min(end - cursor) as usize;
            let words = in_page / WORD_BYTES..(in_page + take - 1) / WORD_BYTES + 1;
            self.record_access(rank, (cursor / page_size) as u32, words, kind);
            cursor += take as u64;
        }
    }

    fn sync(&mut self, rank: u32, event: SyncEvent) {
        let r = rank as usize;
        match event {
            // The clock absorbs the last releaser's stamp, if any.
            SyncEvent::Acquire(lock) => {
                let stamp = self.lock_clocks.get(&lock).map_or(&[][..], |s| &s[..]);
                for (c, &s) in self.clocks[r].iter_mut().zip(stamp) {
                    *c = (*c).max(s);
                }
            }
            // The open sync interval closes (the critical section becomes
            // coverable) and stamps the lock.
            SyncEvent::Release(lock) => {
                self.clocks[r][r] += 1;
                self.lock_clocks.insert(lock, self.clocks[r].clone());
            }
            SyncEvent::BarrierArrive => self.on_barrier_arrive(rank),
            SyncEvent::BarrierDepart => self.on_barrier_depart(rank),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det() -> RaceDetector {
        RaceDetector::new(2, 4, 8)
    }

    #[test]
    fn lock_ordered_accesses_are_race_free() {
        let mut d = det();
        // p0 writes inside a critical section, p1 reads inside the next one.
        d.record_access(0, 0, 0..2, AccessKind::Write);
        d.sync(0, SyncEvent::Release(7));
        d.sync(1, SyncEvent::Acquire(7));
        d.record_access(1, 0, 0..2, AccessKind::Read);
        assert_eq!(d.race_count(), 0);
        assert!(d.take_races().is_empty());
    }

    #[test]
    fn read_only_processors_are_covered_by_lock_order() {
        // Regression for the protocol-clock pitfall: a processor that only
        // READS never publishes a protocol interval, but its lock-ordered
        // reads must still be covered.  p1 reads under the lock, p0 later
        // writes under the same lock — no race.
        let mut d = det();
        d.sync(1, SyncEvent::Acquire(3));
        d.record_access(1, 0, 0..1, AccessKind::Read);
        d.sync(1, SyncEvent::Release(3));
        d.sync(0, SyncEvent::Acquire(3));
        d.record_access(0, 0, 0..1, AccessKind::Write);
        d.sync(0, SyncEvent::Release(3));
        assert!(d.take_races().is_empty());
    }

    #[test]
    fn concurrent_write_write_races() {
        let mut d = det();
        d.record_access(0, 0, 1..2, AccessKind::Write);
        d.record_access(1, 0, 1..2, AccessKind::Write);
        let races = d.take_races();
        assert_eq!(races.len(), 1);
        let r = &races[0];
        assert_eq!((r.page, r.word_lo, r.word_hi), (0, 1, 1));
        assert_eq!((r.first_rank, r.first_kind), (0, AccessKind::Write));
        assert_eq!((r.second_rank, r.second_kind), (1, AccessKind::Write));
        assert_eq!((r.first_interval, r.second_interval), (1, 1));
    }

    #[test]
    fn concurrent_read_write_and_write_read_race() {
        let mut d = det();
        d.record_access(0, 1, 3..4, AccessKind::Read);
        d.record_access(1, 1, 3..4, AccessKind::Write);
        let races = d.take_races();
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].first_kind, AccessKind::Read);
        assert_eq!(races[0].second_kind, AccessKind::Write);

        // And the mirror: unordered write then read.
        let mut d = det();
        d.record_access(0, 1, 3..4, AccessKind::Write);
        d.record_access(1, 1, 3..4, AccessKind::Read);
        let races = d.take_races();
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].first_kind, AccessKind::Write);
        assert_eq!(races[0].second_kind, AccessKind::Read);
    }

    #[test]
    fn concurrent_reads_do_not_race_but_later_write_races_with_all() {
        let mut d = RaceDetector::new(3, 1, 8);
        d.record_access(0, 0, 0..1, AccessKind::Read);
        d.record_access(1, 0, 0..1, AccessKind::Read);
        assert_eq!(d.race_count(), 0);
        // p2 writes with no happens-before edge to either read.
        d.record_access(2, 0, 0..1, AccessKind::Write);
        let races = d.take_races();
        assert_eq!(races.len(), 2);
        assert!(races
            .iter()
            .all(|r| r.first_kind == AccessKind::Read && r.second_rank == 2));
        let readers: Vec<u32> = races.iter().map(|r| r.first_rank).collect();
        assert_eq!(readers, vec![0, 1]);
    }

    #[test]
    fn barrier_orders_accesses_across_all_ranks() {
        let mut d = RaceDetector::new(3, 1, 8);
        d.record_access(0, 0, 0..8, AccessKind::Write);
        for r in 0..3 {
            d.sync(r, SyncEvent::BarrierArrive);
        }
        for r in 0..3 {
            d.sync(r, SyncEvent::BarrierDepart);
        }
        d.record_access(1, 0, 0..8, AccessKind::Write);
        d.record_access(2, 0, 0..4, AccessKind::Read);
        // p2's read races with p1's post-barrier write (no edge between
        // them) but not with p0's pre-barrier one.
        let races = d.take_races();
        assert_eq!(races.len(), 1);
        assert_eq!((races[0].first_rank, races[0].second_rank), (1, 2));
    }

    #[test]
    fn successive_barriers_keep_ordering() {
        let mut d = det();
        for round in 0..3u32 {
            d.record_access((round % 2) as u32 % 2, 0, 0..2, AccessKind::Write);
            for r in 0..2 {
                d.sync(r, SyncEvent::BarrierArrive);
            }
            for r in 0..2 {
                d.sync(r, SyncEvent::BarrierDepart);
            }
        }
        assert!(d.take_races().is_empty());
    }

    #[test]
    fn same_epoch_repeats_are_deduplicated_and_ranges_coalesce() {
        let mut d = det();
        for _ in 0..100 {
            d.record_access(0, 2, 0..4, AccessKind::Write);
            d.record_access(1, 2, 0..4, AccessKind::Write);
        }
        let races = d.take_races();
        // Four adjacent racing words with one signature coalesce into one
        // record per direction of the repeated collision.
        assert!(!races.is_empty());
        assert!(races.iter().any(|r| (r.word_lo, r.word_hi) == (0, 3)));
    }

    #[test]
    fn own_earlier_intervals_never_race() {
        let mut d = det();
        d.record_access(0, 0, 0..1, AccessKind::Write);
        // p0 releases (closing its interval) and keeps going without any
        // other rank in sight.
        d.sync(0, SyncEvent::Release(0));
        d.record_access(0, 0, 0..1, AccessKind::Write);
        d.sync(0, SyncEvent::Release(0));
        d.record_access(0, 0, 0..1, AccessKind::Read);
        assert!(d.take_races().is_empty());
    }

    /// An access is split into the words of every page it covers (32-byte
    /// pages here: bytes 26..34 are words 6..=7 of page 0 and word 0 of page
    /// 1), and a benign-scoped access is not recorded at all.
    #[test]
    fn observed_accesses_split_at_page_boundaries_and_skip_benign_ones() {
        let mut d = det();
        d.access(0, 26, &[0; 8], AccessKind::Write, false);
        d.access(1, 26, &[0; 8], AccessKind::Read, true);
        assert_eq!(d.race_count(), 0);
        d.access(1, 26, &[0; 8], AccessKind::Read, false);
        let words: Vec<_> = d
            .take_races()
            .iter()
            .map(|r| (r.page, r.word_lo, r.word_hi))
            .collect();
        assert_eq!(words, vec![(0, 6, 7), (1, 0, 0)]);
    }

    #[test]
    fn race_set_is_sorted_and_deterministic() {
        let run = || {
            let mut d = RaceDetector::new(2, 4, 8);
            d.record_access(0, 3, 0..2, AccessKind::Write);
            d.record_access(0, 1, 5..6, AccessKind::Write);
            d.record_access(1, 1, 5..6, AccessKind::Read);
            d.record_access(1, 3, 0..2, AccessKind::Write);
            d.take_races()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort();
        assert_eq!(a, sorted);
        assert_eq!(a[0].page, 1);
        assert_eq!(a[1].page, 3);
    }
}
