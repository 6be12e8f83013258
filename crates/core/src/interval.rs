//! Intervals, write notices, and the per-processor interval log.
//!
//! An *interval* is the stretch of a processor's execution between two
//! consecutive synchronization operations.  When an interval closes the
//! processor records which shared pages it wrote (its *write notices*) and
//! the vector time at which the interval ended.  Whether the diffs of those
//! pages are encoded at the same moment or on demand at the first request is
//! the [`DiffTiming`] knob (see DESIGN.md, "Eager versus lazy diff
//! creation"); either way the log is also the unit of garbage collection:
//! once an interval is covered by every processor's vector clock and its
//! diffs have been applied everywhere they were pending, the record and its
//! diffs are retired (see DESIGN.md, "Interval garbage collection").

use crate::fasthash::FastHashMap;
use std::sync::Arc;

use tm_page::{Diff, PageId, RunSpan};

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
    /// Whether the diff has been *created* in the modeled protocol: true
    /// from publication under eager timing, set by the first serving request
    /// under lazy timing.  (The encoded bytes exist either way — the
    /// simulator derives them from the twin at close so both timings ship
    /// identical diffs — but an unmaterialized diff has not yet been charged
    /// or counted.)
    materialized: bool,
    /// `diff.wire_bytes()`, computed once at publication: serving paths
    /// charge it on every request, and walking the runs each time was a
    /// measurable cost of large GC flushes.
    wire_bytes: u64,
    /// `diff.payload_bytes()`, computed once at publication.
    payload_bytes: u64,
}

/// One cached per-page chain merge (see [`IntervalLog::fetch_chain`]): the
/// exact sequence numbers it covers, their merged diff, and the aggregate
/// accounting of the underlying stored diffs.
#[derive(Debug)]
struct MergedChain {
    seqs: Vec<u32>,
    diff: Arc<Diff>,
    wire_bytes: u64,
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
    /// True if this request materialized the diff (lazy timing only): the
    /// requester must charge the creation cost to the responder's serve
    /// path.
    pub created_now: bool,
    /// The diff's wire bytes, cached at publication.
    pub wire_bytes: u64,
    /// The diff's payload bytes, cached at publication.
    pub payload_bytes: u64,
}

/// The outcome of one [`IntervalLog::fetch_chain`] call.
#[derive(Debug, Clone)]
pub struct ChainFetch {
    /// The union of the chain's diffs: every word carries the bytes of the
    /// last chain diff that touches it.
    pub diff: Arc<Diff>,
    /// Sum of the individual diffs' wire bytes.
    pub wire_bytes: u64,
    /// Sum of the individual diffs' payload bytes.
    pub payload_bytes: u64,
    /// How many of the chain's diffs this call materialized (lazy timing
    /// only; the requester charges one creation per materialization to the
    /// responder's serve path).
    pub created_now: u32,
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
    /// Per page, the most recent chain merge served by
    /// [`fetch_chain`](Self::fetch_chain).  GC flushes make every other
    /// processor request the same per-page chains back to back, so one
    /// cached merge serves all of them.
    merged: FastHashMap<PageId, MergedChain>,
    counters: LogCounters,
    /// Span/payload buffers salvaged from retired diffs (the ones nobody
    /// else still holds), fed back into diff encoding through
    /// [`take_buffer_pool`](Self::take_buffer_pool).
    buffer_pool: Vec<(Vec<RunSpan>, Vec<u8>)>,
}

/// Bound on the recycled buffer pool: enough to cover the steady state of a
/// barrier episode (each episode's publishes reuse the previous episode's
/// retirements) without letting a one-off burst pin its high-water mark
/// forever.
const BUFFER_POOL_CAP: usize = 512;

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

    /// Steal the whole recycled span/payload buffer pool (one lock instead
    /// of one per dirty page): the owner pops pairs off it while encoding
    /// an interval's diffs and hands the leftovers back through
    /// [`restore_buffer_pool`](Self::restore_buffer_pool).
    pub fn take_buffer_pool(&mut self) -> Vec<(Vec<RunSpan>, Vec<u8>)> {
        std::mem::take(&mut self.buffer_pool)
    }

    /// Return the unused remainder of a stolen buffer pool.  Pairs past the
    /// pool cap (or arriving after retirements refilled the pool) are
    /// dropped.
    pub fn restore_buffer_pool(&mut self, pool: Vec<(Vec<RunSpan>, Vec<u8>)>) {
        if self.buffer_pool.is_empty() {
            self.buffer_pool = pool;
            self.buffer_pool.truncate(BUFFER_POOL_CAP);
        } else {
            let room = BUFFER_POOL_CAP.saturating_sub(self.buffer_pool.len());
            self.buffer_pool.extend(pool.into_iter().take(room));
        }
    }

    /// Publish a closed interval together with the diffs of the pages it
    /// wrote.  `seq` must be exactly one past the previously published
    /// interval.  Under [`DiffTiming::Eager`] the diffs are already
    /// materialized; under [`DiffTiming::Lazy`] they sit unmaterialized
    /// until the first [`fetch_diff`](Self::fetch_diff).
    pub fn publish(
        &mut self,
        record: IntervalRecord,
        mut diffs: Vec<(PageId, Arc<Diff>)>,
        timing: DiffTiming,
    ) {
        self.publish_drain(record, &mut diffs, timing);
    }

    /// [`publish`](Self::publish) draining `diffs` in place, so the caller
    /// keeps the vector's capacity for its next interval close.
    pub fn publish_drain(
        &mut self,
        record: IntervalRecord,
        diffs: &mut Vec<(PageId, Arc<Diff>)>,
        timing: DiffTiming,
    ) {
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
                    materialized: timing == DiffTiming::Eager,
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
    /// is the first request (lazy timing).  `created_now` tells the caller
    /// to charge the creation cost to this responder's serve path and is
    /// never true under eager timing.
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

    /// Serve one page's whole fetch chain — the diffs of intervals
    /// `seqs` (ascending), all written by this log's owner — as a single
    /// merged diff plus the aggregate accounting of the individual diffs.
    ///
    /// Materialization counters advance exactly as if each diff had been
    /// served by [`fetch_diff`](Self::fetch_diff); the merge itself is a
    /// pure serving optimization.  The merge is cached per page: during a
    /// cluster-wide GC flush every other processor requests the same chain,
    /// and only the first request pays for the merge.
    ///
    /// Returns `None` if any requested diff does not exist.
    pub fn fetch_chain(&mut self, page: PageId, seqs: &[u32]) -> Option<ChainFetch> {
        debug_assert!(!seqs.is_empty());
        debug_assert!(seqs.windows(2).all(|w| w[0] < w[1]));
        if let Some(m) = self.merged.get(&page) {
            if m.seqs == seqs {
                // The cached merge was built by a fetch that materialized
                // every chain member (diffs never un-materialize), so this
                // request creates nothing and the per-diff walk can be
                // skipped entirely.
                debug_assert!(seqs.iter().all(|&s| {
                    self.diffs
                        .get(&(page, s))
                        .is_some_and(|stored| stored.materialized)
                }));
                return Some(ChainFetch {
                    diff: Arc::clone(&m.diff),
                    wire_bytes: m.wire_bytes,
                    payload_bytes: m.payload_bytes,
                    created_now: 0,
                });
            }
        }
        let mut created_now = 0u32;
        for &seq in seqs {
            let stored = self.diffs.get_mut(&(page, seq))?;
            if !stored.materialized {
                stored.materialized = true;
                created_now += 1;
                self.counters.diffs_created_on_demand += 1;
                self.counters.diff_bytes_created_on_demand += stored.payload_bytes;
            }
        }
        if let [seq] = *seqs {
            // A one-diff chain needs no merge (and no cache entry): serve
            // the stored diff as-is.
            let stored = &self.diffs[&(page, seq)];
            return Some(ChainFetch {
                diff: Arc::clone(&stored.diff),
                wire_bytes: stored.wire_bytes,
                payload_bytes: stored.payload_bytes,
                created_now,
            });
        }
        let mut wire_bytes = 0u64;
        let mut payload_bytes = 0u64;
        let chain: Vec<&Arc<Diff>> = seqs
            .iter()
            .map(|&seq| {
                let stored = &self.diffs[&(page, seq)];
                wire_bytes += stored.wire_bytes;
                payload_bytes += stored.payload_bytes;
                &stored.diff
            })
            .collect();
        // When the newest diff single-handedly covers every older one (the
        // dominant shape on grid applications, where each interval rewrites
        // the whole page), the merge *is* the newest diff: every older word
        // is occluded.  Serving it by reference skips the cover-bitset walk
        // over the whole chain's payloads.
        let newest_covers_chain = match chain.last().expect("chain is non-empty").spans() {
            [span] if span.offset == 0 => {
                let end = span.end();
                chain[..chain.len() - 1]
                    .iter()
                    .all(|d| d.spans().iter().all(|s| s.end() <= end))
            }
            _ => false,
        };
        let diff = if newest_covers_chain {
            Arc::clone(chain.last().expect("chain is non-empty"))
        } else {
            let refs: Vec<&Diff> = chain.iter().map(|d| &***d).collect();
            Arc::new(Diff::merge(page, &refs))
        };
        drop(chain);
        self.merged.insert(
            page,
            MergedChain {
                seqs: seqs.to_vec(),
                diff: Arc::clone(&diff),
                wire_bytes,
                payload_bytes,
            },
        );
        Some(ChainFetch {
            diff,
            wire_bytes,
            payload_bytes,
            created_now,
        })
    }

    /// Retire every record with sequence number `<= seq` together with its
    /// diffs.  Callers must have established the GC invariant first: every
    /// processor's vector clock covers `seq` and no processor still has a
    /// pending (unapplied) write notice at or below it.  Returns the number
    /// of records retired by this call.
    pub fn retire_up_to(&mut self, seq: u32) -> u64 {
        if seq <= self.retired {
            return 0;
        }
        let n = ((seq - self.retired) as usize).min(self.records.len());
        if n == 0 {
            return 0;
        }
        // Chain merges whose newest member sinks below the new watermark can
        // never be requested again (fetch chains only cover live intervals):
        // evicting them first both frees the merge and un-pins the
        // underlying stored diffs so the salvage below can reclaim them.
        let watermark = self.retired + n as u32;
        self.merged
            .retain(|_, m| m.seqs.last().is_some_and(|&s| s > watermark));
        for record in self.records.drain(..n) {
            for &page in &record.pages {
                if let Some(stored) = self.diffs.remove(&(page, record.id.seq)) {
                    self.counters.diffs_retired += 1;
                    // Salvage the retired diff's heap buffers for the next
                    // publishes — best-effort: a diff still pinned by the
                    // merged-chain cache or an in-flight fetch is just
                    // dropped (its buffers die with the last clone).
                    if self.buffer_pool.len() < BUFFER_POOL_CAP {
                        if let Ok(diff) = Arc::try_unwrap(stored.diff) {
                            self.buffer_pool.push(diff.into_buffers());
                        }
                    }
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
}

#[cfg(test)]
mod tests {
    use super::*;

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
            DiffTiming::Eager,
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
    fn eager_diffs_are_born_materialized() {
        let mut log = IntervalLog::new();
        log.publish(
            record(0, 1, 2, &[3]),
            vec![(PageId(3), one_byte_diff(3, 8))],
            DiffTiming::Eager,
        );
        let fetched = log.fetch_diff(PageId(3), 1).unwrap();
        assert!(!fetched.created_now);
        assert_eq!(log.counters().diffs_created_on_demand, 0);
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

    #[test]
    #[should_panic(expected = "contiguous")]
    fn non_contiguous_publish_is_rejected_in_debug() {
        let mut log = IntervalLog::new();
        log.publish(record(0, 2, 2, &[]), vec![], DiffTiming::Lazy);
    }
}
