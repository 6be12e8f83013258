//! Intervals, write notices, and the per-processor interval log.
//!
//! An *interval* is the stretch of a processor's execution between two
//! consecutive synchronization operations.  When an interval closes the
//! processor records which shared pages it wrote (its *write notices*) and
//! the vector time at which the interval ended.  The diffs of those pages
//! are stored with the record but *created* — charged and counted — only at
//! the first request that needs them (see DESIGN.md, "Lazy diff creation").
//! The log is also the unit of garbage collection: once an interval is
//! covered by every processor's vector clock and its diffs have been applied
//! everywhere they were pending, the record and its diffs are retired (see
//! DESIGN.md, "Interval garbage collection").

use crate::fasthash::FastHashMap;
use std::sync::Arc;

use tm_page::{Diff, PageId};

use crate::config::DiffTiming;
use crate::vc::VectorClock;

/// Identifies one closed interval of one processor.  Interval sequence
/// numbers start at 1; a vector-clock entry of `k` covers intervals `1..=k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IntervalId {
    /// Processor that executed the interval.
    pub proc: u32,
    /// The processor-local sequence number of the interval (1-based).
    pub seq: u32,
}

/// Approximate wire size of one encoded write notice (page id + interval id),
/// used to account control-message payload sizes.
pub const NOTICE_WIRE_BYTES: u64 = 12;

/// Record of one closed interval, published in the owning processor's shared
/// log for others to read when they synchronize.
#[derive(Debug, Clone)]
pub struct IntervalRecord {
    /// Which interval this is.
    pub id: IntervalId,
    /// Vector time at the close of the interval (the owner's own entry
    /// equals `id.seq`).
    pub vc: VectorClock,
    /// Pages written during the interval: one write notice each.  Receiving
    /// a notice obliges the receiver to invalidate the consistency unit
    /// containing the page before its next access.
    pub pages: Vec<PageId>,
}

/// One stored diff and its modeled lifecycle state.
#[derive(Debug, Clone)]
struct StoredDiff {
    diff: Arc<Diff>,
    /// Whether the diff has been *created* in the modeled protocol: set by
    /// the first serving request.  (The encoded bytes exist from publication
    /// on — the simulator derives them from the twin at close — but an
    /// unmaterialized diff has not yet been charged or counted.)
    materialized: bool,
    /// `diff.wire_bytes()`, computed once at publication: every request
    /// charges it, and walking the runs each time was a
    /// measurable cost of large GC flushes.
    wire_bytes: u64,
    /// `diff.payload_bytes()`, computed once at publication.
    payload_bytes: u64,
}

/// Counters of a log's garbage-collection and on-demand-creation activity,
/// folded into the owning processor's `ProcStats` when the run completes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LogCounters {
    /// Interval records retired by [`IntervalLog::retire_up_to`].
    pub intervals_retired: u64,
    /// Stored diffs retired together with their interval.
    pub diffs_retired: u64,
    /// Diffs materialized on demand by [`IntervalLog::fetch_diff`].
    pub diffs_created_on_demand: u64,
    /// Payload bytes of the on-demand materializations.
    pub diff_bytes_created_on_demand: u64,
}

/// The outcome of one [`IntervalLog::fetch_diff`] call.
#[derive(Debug, Clone)]
pub struct FetchedDiff {
    /// The requested diff.
    pub diff: Arc<Diff>,
    /// True if this request materialized the diff: the requester must
    /// charge the creation cost to the responder's serve path.
    pub created_now: bool,
    /// The diff's wire bytes, cached at publication.
    pub wire_bytes: u64,
    /// The diff's payload bytes, cached at publication.
    pub payload_bytes: u64,
}

/// The part of a processor's protocol state that other processors consult:
/// its closed-interval log and the stored diffs of those intervals.
///
/// On the real system this state is only reachable through request messages;
/// here the other simulated processors read it directly (one at a time —
/// see `cluster::RunState`) while the simulated network charges the cost of
/// the messages they would have sent.
///
/// The log is a retirement window: `retired` leading records have been
/// garbage-collected, so live records cover sequence numbers
/// `retired+1 ..= retired+records.len()`.
#[derive(Debug, Default)]
pub struct IntervalLog {
    /// Number of leading (oldest) records already retired.
    retired: u32,
    /// Live records, oldest first; `records[i]` has seq `retired + i + 1`.
    records: Vec<IntervalRecord>,
    diffs: FastHashMap<(PageId, u32), StoredDiff>,
    counters: LogCounters,
    /// Retired diffs nothing else held, emptied by [`recycle`], for the
    /// owner's next interval closes to rebuild in place (see
    /// [`take_diff_pool`](Self::take_diff_pool)).  Unbounded on purpose: a
    /// close allocates a diff only when the pool is empty, and publishes it
    /// here or hands it straight back, so pool plus live diffs never exceed
    /// the log's own peak of live diffs, plus the one a close holds in hand.
    diff_pool: Vec<Arc<Diff>>,
}

/// Put `diff` into `pool` emptied, if nothing else holds it (a holder
/// outside the log keeps it instead).  The emptied diff keeps its buffers
/// but not its shared page image, which goes back to its pool if the diff
/// held it last, so no pooled diff pins a page.  Retirement feeds the log's
/// pool through here.
fn recycle(pool: &mut Vec<Arc<Diff>>, mut diff: Arc<Diff>) {
    if let Some(unshared) = Arc::get_mut(&mut diff) {
        unshared.clear();
        pool.push(diff);
    }
}

impl IntervalLog {
    /// Create an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total number of intervals ever published (live + retired).
    pub fn published(&self) -> u32 {
        self.retired + self.records.len() as u32
    }

    /// Number of live (not yet retired) records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if the log holds no live record.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Garbage-collection and lazy-creation counters accumulated so far.
    pub fn counters(&self) -> LogCounters {
        self.counters
    }

    /// Take the whole pool of emptied retired diffs (one borrow instead of
    /// one per dirty page): the owner rebuilds an interval's diffs inside
    /// them and hands the pool back through
    /// [`restore_diff_pool`](Self::restore_diff_pool).
    pub fn take_diff_pool(&mut self) -> Vec<Arc<Diff>> {
        std::mem::take(&mut self.diff_pool)
    }

    /// Return a taken pool, together with anything retired meanwhile.
    pub fn restore_diff_pool(&mut self, mut pool: Vec<Arc<Diff>>) {
        pool.append(&mut self.diff_pool);
        self.diff_pool = pool;
    }

    /// Publish a closed interval together with the diffs of the pages it
    /// wrote.  `seq` must be exactly one past the previously published
    /// interval.  The diffs sit unmaterialized until the first
    /// [`fetch_diff`](Self::fetch_diff).  The third argument is ignored: it
    /// stays for the frozen `benchmark/` package (see [`DiffTiming`]).
    pub fn publish(
        &mut self,
        record: IntervalRecord,
        mut diffs: Vec<(PageId, Arc<Diff>)>,
        _timing: DiffTiming,
    ) {
        self.publish_drain(record, &mut diffs);
    }

    /// [`publish`](Self::publish) draining `diffs` in place, so the caller
    /// keeps the vector's capacity for its next interval close.
    pub fn publish_drain(&mut self, record: IntervalRecord, diffs: &mut Vec<(PageId, Arc<Diff>)>) {
        debug_assert_eq!(
            record.id.seq,
            self.published() + 1,
            "interval sequence numbers must be contiguous"
        );
        for (page, diff) in diffs.drain(..) {
            let (wire_bytes, payload_bytes) = (diff.wire_bytes(), diff.payload_bytes());
            self.diffs.insert(
                (page, record.id.seq),
                StoredDiff {
                    diff,
                    materialized: false,
                    wire_bytes,
                    payload_bytes,
                },
            );
        }
        self.records.push(record);
    }

    /// The record of interval `seq` (1-based), if it has closed and has not
    /// been retired.
    pub fn record(&self, seq: u32) -> Option<&IntervalRecord> {
        if seq <= self.retired {
            return None;
        }
        self.records.get((seq - self.retired) as usize - 1)
    }

    /// All live records with sequence numbers in `(after, up_to]`.
    ///
    /// The GC invariant guarantees a caller's `after` (its vector-clock
    /// entry for this log's owner) is never below the retirement watermark
    /// when it still needs records, so retirement is invisible here; the
    /// debug assertion pins that.
    pub fn records_between(&self, after: u32, up_to: u32) -> &[IntervalRecord] {
        debug_assert!(
            after >= self.retired || up_to <= after,
            "consumer at vc={after} fell behind the retirement watermark {}",
            self.retired
        );
        let lo = ((after.max(self.retired) - self.retired) as usize).min(self.records.len());
        let hi = ((up_to.max(self.retired) - self.retired) as usize).min(self.records.len());
        if lo >= hi {
            return &[];
        }
        &self.records[lo..hi]
    }

    /// Serve the diff of `page` for interval `seq`, materializing it if this
    /// is the first request.  `created_now` tells the caller to charge the
    /// creation cost to this responder's serve path.
    pub fn fetch_diff(&mut self, page: PageId, seq: u32) -> Option<FetchedDiff> {
        let stored = self.diffs.get_mut(&(page, seq))?;
        let created_now = !stored.materialized;
        if created_now {
            stored.materialized = true;
            self.counters.diffs_created_on_demand += 1;
            self.counters.diff_bytes_created_on_demand += stored.payload_bytes;
        }
        Some(FetchedDiff {
            diff: stored.diff.clone(),
            created_now,
            wire_bytes: stored.wire_bytes,
            payload_bytes: stored.payload_bytes,
        })
    }

    /// Retire every record with sequence number `<= seq` together with its
    /// diffs.  Callers must have established the GC invariant first: every
    /// processor's vector clock covers `seq` and no processor still has a
    /// pending (unapplied) write notice at or below it.  Returns the number
    /// of records retired by this call.  A page image a retired diff
    /// borrowed goes back to its pool if nothing else holds it (a reader
    /// that adopted the image, or the writer's page still showing it, keeps
    /// it from reuse).
    pub fn retire_up_to(&mut self, seq: u32) -> u64 {
        if seq <= self.retired {
            return 0;
        }
        let n = ((seq - self.retired) as usize).min(self.records.len());
        if n == 0 {
            return 0;
        }
        for record in self.records.drain(..n) {
            for &page in &record.pages {
                if let Some(stored) = self.diffs.remove(&(page, record.id.seq)) {
                    self.counters.diffs_retired += 1;
                    recycle(&mut self.diff_pool, stored.diff);
                }
            }
            self.retired = record.id.seq;
            self.counters.intervals_retired += 1;
        }
        n as u64
    }

    /// Total number of stored live diffs (used by tests and the GC
    /// ablation).
    pub fn stored_diffs(&self) -> usize {
        self.diffs.len()
    }

    /// Every diff the log holds: the stored live ones, then the pooled.
    pub(crate) fn diffs(&self) -> impl Iterator<Item = &Arc<Diff>> {
        self.diffs.values().map(|s| &s.diff).chain(&self.diff_pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_page::{Image, LocalPage};

    fn record(proc: u32, seq: u32, n: usize, pages: &[u32]) -> IntervalRecord {
        let mut vc = VectorClock::zero(n);
        vc.set(proc as usize, seq);
        IntervalRecord {
            id: IntervalId { proc, seq },
            vc,
            pages: pages.iter().map(|&p| PageId(p)).collect(),
        }
    }

    fn one_byte_diff(page: u32, bytes: usize) -> Arc<Diff> {
        let twin = vec![0u8; bytes.max(4)];
        let mut cur = twin.clone();
        cur[0] = 1;
        Arc::new(Diff::create(PageId(page), &twin, &cur))
    }

    #[test]
    fn publish_and_lookup() {
        let mut log = IntervalLog::new();
        assert!(log.is_empty());
        let diff = one_byte_diff(3, 8);
        log.publish(
            record(0, 1, 2, &[3, 4]),
            vec![(PageId(3), diff.clone())],
            DiffTiming::Lazy,
        );
        assert_eq!(log.len(), 1);
        assert_eq!(log.published(), 1);
        assert!(log.record(1).is_some());
        assert!(log.record(0).is_none());
        assert!(log.record(2).is_none());
        assert!(log.fetch_diff(PageId(3), 1).is_some());
        assert!(log.fetch_diff(PageId(4), 1).is_none());
        assert_eq!(log.stored_diffs(), 1);
    }

    #[test]
    fn lazy_diffs_materialize_exactly_once() {
        let mut log = IntervalLog::new();
        let diff = one_byte_diff(3, 8);
        let payload = diff.payload_bytes();
        log.publish(
            record(0, 1, 2, &[3]),
            vec![(PageId(3), diff)],
            DiffTiming::Lazy,
        );
        let first = log.fetch_diff(PageId(3), 1).unwrap();
        assert!(first.created_now, "first request creates the diff");
        let second = log.fetch_diff(PageId(3), 1).unwrap();
        assert!(!second.created_now, "subsequent requests hit the cache");
        assert_eq!(log.counters().diffs_created_on_demand, 1);
        assert_eq!(log.counters().diff_bytes_created_on_demand, payload);
        assert!(log.fetch_diff(PageId(9), 1).is_none());
    }

    #[test]
    fn records_between_windows() {
        let mut log = IntervalLog::new();
        for seq in 1..=5 {
            log.publish(record(1, seq, 2, &[seq]), vec![], DiffTiming::Lazy);
        }
        assert_eq!(log.records_between(0, 5).len(), 5);
        assert_eq!(log.records_between(2, 4).len(), 2);
        assert_eq!(log.records_between(4, 2).len(), 0);
        assert_eq!(log.records_between(3, 5).len(), 2);
        assert_eq!(log.records_between(9, 5).len(), 0);
    }

    #[test]
    fn retirement_frees_records_and_diffs_but_keeps_the_tail() {
        let mut log = IntervalLog::new();
        for seq in 1..=5 {
            log.publish(
                record(1, seq, 2, &[seq]),
                vec![(PageId(seq), one_byte_diff(seq, 8))],
                DiffTiming::Lazy,
            );
        }
        assert_eq!(log.retire_up_to(3), 3);
        assert_eq!(log.len(), 2);
        assert_eq!(log.published(), 5, "published count survives retirement");
        assert_eq!(log.stored_diffs(), 2);
        assert!(log.record(3).is_none());
        assert!(log.record(4).is_some());
        assert_eq!(log.records_between(3, 5).len(), 2);
        let c = log.counters();
        assert_eq!(c.intervals_retired, 3);
        assert_eq!(c.diffs_retired, 3);

        // Retiring again below the watermark is a no-op.
        assert_eq!(log.retire_up_to(3), 0);
        // Publication continues seamlessly after retirement.
        log.publish(record(1, 6, 2, &[6]), vec![], DiffTiming::Lazy);
        assert_eq!(log.published(), 6);
        // Retire everything, including not-yet-covered requests capped at
        // the live tail.
        assert_eq!(log.retire_up_to(100), 3);
        assert!(log.is_empty());
        assert_eq!(log.stored_diffs(), 0);
    }

    /// Publish interval `seq` of `pages` dense one-word diffs of `image` the
    /// way `close_interval` builds them: each rebuilt inside a pooled diff,
    /// allocated only when the pool is empty.
    fn publish_from_pool(log: &mut IntervalLog, image: &Image, seq: u32, pages: u32) {
        let mut pool = log.take_diff_pool();
        let mut diffs = Vec::new();
        for p in 0..pages {
            let mut diff = pool
                .pop()
                .unwrap_or_else(|| Arc::new(Diff::empty(PageId(p))));
            Arc::get_mut(&mut diff).unwrap().rebuild_from_compare(
                PageId(p),
                image,
                &[0, 0, 0, 0, 1, 1, 1, 1],
            );
            diffs.push((PageId(p), diff));
        }
        log.restore_diff_pool(pool);
        let pages: Vec<u32> = (0..pages).collect();
        log.publish_drain(record(0, seq, 1, &pages), &mut diffs);
    }

    #[test]
    fn retirement_pools_every_unshared_diff_emptied_but_not_one_held_elsewhere() {
        let image = Image::zeroed(8).filled(&[1; 8]);
        let mut log = IntervalLog::new();
        for seq in 1..=4 {
            publish_from_pool(&mut log, &image, seq, 3);
        }
        // A holder outside the log keeps one diff.
        let held = log.fetch_diff(PageId(1), 2).unwrap().diff;
        // One burst retires four closes' worth of diffs.
        assert_eq!(log.retire_up_to(4), 4);
        assert_eq!(log.diff_pool.len(), 11, "every unshared diff is pooled");
        assert!(log
            .diff_pool
            .iter()
            .all(|d| d.is_empty() && !Arc::ptr_eq(d, &held)));
        assert_eq!(Arc::strong_count(&held), 1, "the held diff is not");
        drop(held);
        assert!(
            !image.is_shared(),
            "only the held diff still held the page image"
        );
        // The next close rebuilds inside the pool.
        publish_from_pool(&mut log, &image, 5, 3);
        assert_eq!(log.diff_pool.len(), 8);
    }

    #[test]
    fn a_delivered_round_is_pooled_at_its_retirement() {
        let image = Image::zeroed(8).filled(&[1; 8]);
        let mut log = IntervalLog::new();
        for seq in 1..=2 {
            publish_from_pool(&mut log, &image, seq, 1);
        }
        // A reader fetches both diffs of page 0 and delivers them as one
        // round, newest first, then lets go of what it fetched.
        let fetched: Vec<_> = [2, 1]
            .map(|seq| log.fetch_diff(PageId(0), seq).unwrap().diff)
            .into();
        let mut reader = LocalPage::new_zeroed(8);
        reader.deliver(fetched.iter().map(|d| (d, 0)), &mut Vec::new());
        assert_eq!(reader.bytes(), &[1, 1, 1, 1, 0, 0, 0, 0]);
        let delivered: Vec<_> = fetched.into_iter().map(|d| Arc::as_ptr(&d)).collect();
        assert_eq!(log.retire_up_to(2), 2);
        for diff in delivered {
            assert!(
                log.diff_pool.iter().any(|d| Arc::as_ptr(d) == diff),
                "a delivered diff outlived its retirement outside the pool"
            );
        }
    }

    #[test]
    fn pool_plus_live_diffs_never_exceed_the_peak_live_count() {
        let image = Image::zeroed(8).filled(&[1; 8]);
        let mut log = IntervalLog::new();
        let (mut peak, mut state) = (0, 7u64);
        for seq in 1..=200 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            publish_from_pool(&mut log, &image, seq, (state >> 40) as u32 % 8);
            peak = peak.max(log.stored_diffs());
            if (state >> 20) % 4 == 0 {
                log.retire_up_to(seq.saturating_sub((state >> 50) as u32 % 3));
            }
            let held = log.diff_pool.len() + log.stored_diffs();
            assert!(held <= peak, "close {seq}: {held} diffs held, peak {peak}");
        }
        assert!(peak > 8, "retirement lags publication: {peak}");
    }

    #[test]
    fn retirement_pools_an_unshared_image_but_not_one_still_seen() {
        // Three dense diffs, each borrowing an image of its own: the first
        // is held by nothing else, the second's diff is still held outside
        // the log, and a reader adopted the third's image.
        let zero = Image::zeroed(8);
        let mut log = IntervalLog::new();
        let mut images = Vec::new();
        let mut adopted = None;
        for seq in 1..=3 {
            let image = zero.filled(&[seq as u8; 8]);
            images.push(image.as_ptr());
            let mut diff = Diff::empty(PageId(0));
            diff.rebuild_from_compare(PageId(0), &image, &[0; 8]);
            assert!(diff.image().is_some());
            if seq == 3 {
                adopted = Some(image);
            }
            let diffs = vec![(PageId(0), Arc::new(diff))];
            log.publish(record(0, seq, 1, &[0]), diffs, DiffTiming::Lazy);
        }
        let held = log.fetch_diff(PageId(0), 2).unwrap().diff;
        assert_eq!(log.retire_up_to(3), 3);

        // The unshared diff's image went back to the pool, and only it.
        let reused = zero.filled(&[9; 8]);
        assert_eq!(reused.as_ptr(), images[0]);
        let fresh = zero.filled(&[9; 8]);
        assert!(!images.contains(&fresh.as_ptr()), "only that one");
        assert_eq!(log.diff_pool.len(), 2, "both unshared diffs are pooled");
        assert!(log.diff_pool.iter().all(|d| d.is_empty()));
        let held_image = held.image().unwrap();
        assert_eq!(&held_image[..], &[2u8; 8], "the held diff keeps its image");
        assert!(!adopted.unwrap().is_shared(), "the reader keeps its");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "contiguous")]
    fn non_contiguous_publish_is_rejected_in_debug() {
        let mut log = IntervalLog::new();
        log.publish(record(0, 2, 2, &[]), vec![], DiffTiming::Lazy);
    }
}
