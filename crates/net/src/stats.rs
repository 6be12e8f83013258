//! Communication statistics and the paper's useful/useless breakdowns.
//!
//! The evaluation of the paper rests on three derived quantities:
//!
//! * **messages**, split into *useful* and *useless* messages,
//! * **data**, split into *useful data*, *useless data carried in useless
//!   messages*, and *piggybacked useless data* (useless data carried in
//!   useful messages), and
//! * the **false-sharing signature**: a histogram, over page faults, of the
//!   number of concurrent writers that had to be contacted, each bucket
//!   split into useful and useless exchanges.
//!
//! [`ProcStats`] collects the raw records on each processor;
//! [`ClusterStats::breakdown`] derives the figures.

use crate::msg::{ControlTally, DiffExchange, FaultRecord, MsgKind, ProcId, MSG_HEADER_BYTES};

/// Statistics gathered by one processor during a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProcStats {
    /// Rank of the processor these statistics belong to.
    pub proc: u32,
    /// All diff exchanges this processor initiated (requester side).
    pub exchanges: Vec<DiffExchange>,
    /// All consistency-unit faults taken by this processor.
    pub faults: Vec<FaultRecord>,
    /// Control (lock/barrier) messages this processor caused, tallied per
    /// kind: entry `kind as usize` is the tally of [`MsgKind`] `kind`.
    pub control: [ControlTally; MsgKind::COUNT],
    /// Lock acquisitions performed.
    pub lock_acquires: u64,
    /// Barriers crossed.
    pub barriers: u64,
    /// Twins created (first write to a page in an interval).
    pub twins_created: u64,
    /// Diffs created: under the multi-writer protocol at the first serving
    /// request (so a diff nobody ever asks for is never counted as created),
    /// under the home-based protocol at the interval close that flushes it.
    pub diffs_created: u64,
    /// Total payload bytes of the diffs created.
    pub diff_bytes_created: u64,
    /// Home-based protocol only: whole pages this processor fetched from a
    /// *remote* home while servicing faults (self-homed refreshes are local
    /// and not counted; always 0 under the multi-writer protocol).
    pub page_fetches: u64,
    /// Intervals this processor closed (records published to its log).
    pub intervals_closed: u64,
    /// Intervals garbage-collected from this processor's log at barriers.
    pub intervals_retired: u64,
    /// Stored diffs garbage-collected together with their intervals.
    pub diffs_retired: u64,
    /// GC validation flushes: barriers at which this processor's pending
    /// notices exceeded the configured limit and were fetched wholesale so
    /// the logs behind them could retire.
    pub gc_pending_flushes: u64,
    /// Memory-protection operations (invalidations and validations).
    pub protection_ops: u64,
    /// Consistency-unit faults that required no exchange because the dynamic
    /// aggregation scheme had already prefetched the updates.
    pub prefetched_faults: u64,
    /// Modeled execution time of this processor (final logical clock).
    pub exec_time_ns: u64,
}

impl ProcStats {
    /// Create empty statistics for processor `proc`.
    pub fn new(proc: ProcId) -> Self {
        ProcStats {
            proc: proc.0,
            ..Default::default()
        }
    }

    /// Record a control message of the given kind and payload size.
    pub fn record_control(&mut self, kind: MsgKind, payload_bytes: u64) {
        let tally = &mut self.control[kind as usize];
        tally.messages += 1;
        tally.bytes += MSG_HEADER_BYTES + payload_bytes;
    }

    /// Control messages this processor caused, over all kinds.
    fn control_messages(&self) -> u64 {
        self.control.iter().map(|t| t.messages).sum()
    }

    /// Number of messages this processor caused (two per diff exchange plus
    /// every control message).
    pub fn message_count(&self) -> u64 {
        self.exchanges.len() as u64 * 2 + self.control_messages()
    }

    /// Total wire bytes this processor caused.
    pub fn wire_bytes(&self) -> u64 {
        self.exchanges.iter().map(|e| e.wire_bytes).sum::<u64>()
            + self.control.iter().map(|t| t.bytes).sum::<u64>()
    }
}

/// One bucket of the false-sharing signature histogram.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SignatureBucket {
    /// Faults that contacted exactly this many concurrent writers.
    pub faults: u64,
    /// Useful exchanges issued by those faults.
    pub useful_exchanges: u64,
    /// Useless exchanges issued by those faults.
    pub useless_exchanges: u64,
}

/// Histogram of the number of concurrent writers contacted per fault
/// (the paper's Figure 3).  Bucket `k` holds faults that contacted `k`
/// writers; bucket 0 holds faults that needed no exchange (possible under
/// dynamic aggregation when the data was prefetched).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SignatureHistogram {
    buckets: Vec<SignatureBucket>,
}

impl SignatureHistogram {
    /// Create a histogram able to hold up to `max_writers` concurrent writers.
    pub fn new(max_writers: usize) -> Self {
        SignatureHistogram {
            buckets: vec![SignatureBucket::default(); max_writers + 1],
        }
    }

    /// The histogram whose bucket `k` is `buckets[k]`.
    pub fn from_buckets(buckets: Vec<SignatureBucket>) -> Self {
        SignatureHistogram { buckets }
    }

    /// Every bucket, indexed by the number of concurrent writers (index 0
    /// holds the faults that needed no exchange).
    pub fn buckets(&self) -> &[SignatureBucket] {
        &self.buckets
    }

    /// Record one fault that contacted `writers` concurrent writers, of which
    /// `useful` exchanges were useful and `useless` were useless.
    pub fn record(&mut self, writers: u32, useful: u64, useless: u64) {
        let idx = writers as usize;
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, SignatureBucket::default());
        }
        let b = &mut self.buckets[idx];
        b.faults += 1;
        b.useful_exchanges += useful;
        b.useless_exchanges += useless;
    }

    /// Bucket for faults with exactly `writers` concurrent writers.
    pub fn bucket(&self, writers: usize) -> SignatureBucket {
        self.buckets.get(writers).copied().unwrap_or_default()
    }

    /// Largest bucket index with at least one fault.
    pub fn max_writers(&self) -> usize {
        self.buckets.iter().rposition(|b| b.faults > 0).unwrap_or(0)
    }

    /// Total number of faults recorded (saturating: a parsed histogram may
    /// hold any number of buckets).
    pub fn total_faults(&self) -> u64 {
        self.buckets
            .iter()
            .map(|b| b.faults)
            .fold(0, u64::saturating_add)
    }

    /// Fraction of faults in bucket `writers` (0.0 when empty).
    pub fn frequency(&self, writers: usize) -> f64 {
        let total = self.total_faults();
        if total == 0 {
            0.0
        } else {
            self.bucket(writers).faults as f64 / total as f64
        }
    }

    /// Mean number of concurrent writers over all faults — a scalar summary
    /// of how far right the signature sits.
    pub fn mean_writers(&self) -> f64 {
        let total = self.total_faults();
        if total == 0 {
            return 0.0;
        }
        let weighted: u64 = self
            .buckets
            .iter()
            .enumerate()
            .map(|(k, b)| (k as u64).saturating_mul(b.faults))
            .fold(0, u64::saturating_add);
        weighted as f64 / total as f64
    }
}

/// The communication breakdown the paper reports for every application and
/// consistency-unit configuration (Figures 1 and 2).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CommBreakdown {
    /// Messages whose exchange delivered at least one useful word, plus all
    /// synchronization messages.
    pub useful_messages: u64,
    /// Messages belonging to exchanges that delivered no useful word.
    pub useless_messages: u64,
    /// Delivered payload bytes that were read before being overwritten.
    pub useful_data: u64,
    /// Useless payload bytes carried by useless messages.
    pub useless_data_in_useless_msgs: u64,
    /// Useless payload bytes piggybacked on useful messages.
    pub piggybacked_useless_data: u64,
    /// Total wire bytes (payload + headers + control traffic).
    pub total_wire_bytes: u64,
    /// Home-update messages sent, the [`MsgKind::HomeUpdate`] control tally
    /// (home-based protocol only; 0 under the multi-writer protocol).
    pub home_updates: u64,
    /// Whole pages fetched from remote homes (home-based protocol only; 0
    /// under the multi-writer protocol).
    pub page_fetches: u64,
    /// Modeled parallel execution time (max over processors).
    pub exec_time_ns: u64,
    /// Consistency-unit faults taken across all processors.
    pub faults: u64,
    /// The false-sharing signature aggregated over all processors.
    pub signature: SignatureHistogram,
}

impl CommBreakdown {
    /// Total messages (useful + useless).
    pub fn total_messages(&self) -> u64 {
        self.useful_messages + self.useless_messages
    }

    /// Total classified payload data (useful + both useless categories).
    pub fn total_payload(&self) -> u64 {
        self.useful_data + self.useless_data_in_useless_msgs + self.piggybacked_useless_data
    }

    /// Total useless data (both categories).
    pub fn total_useless_data(&self) -> u64 {
        self.useless_data_in_useless_msgs + self.piggybacked_useless_data
    }
}

/// Aggregated interval-log garbage-collection counters of a run.
///
/// All of them are a pure function of the write-notice flow; creation
/// counts, which also depend on which diffs get requested, live elsewhere
/// ([`ProcStats::diffs_created`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcCounters {
    /// Intervals closed (published) across all processors.
    pub intervals_closed: u64,
    /// Intervals retired from the logs at barriers.
    pub intervals_retired: u64,
    /// Stored diffs retired together with their intervals.
    pub diffs_retired: u64,
    /// GC validation flushes performed (memory-pressure fetches of pending
    /// notices so their logs could retire).
    pub pending_flushes: u64,
}

impl GcCounters {
    /// Fraction of closed intervals that were retired by run end (0.0 when
    /// nothing closed) — the memory-boundedness metric of the GC.
    pub fn retired_fraction(&self) -> f64 {
        if self.intervals_closed == 0 {
            0.0
        } else {
            self.intervals_retired as f64 / self.intervals_closed as f64
        }
    }
}

/// Statistics of a whole cluster run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClusterStats {
    /// One entry per processor.
    pub per_proc: Vec<ProcStats>,
    /// Per-link occupancy counters, in link order (the bus is link 0;
    /// switched NICs are indexed by rank).  Empty under the ideal topology,
    /// which tracks no occupancy — pre-topology documents simply lack the
    /// field.
    pub links: Vec<crate::link::LinkStats>,
    /// Data races found by the happens-before detector, as a deterministic
    /// sorted set.  Always empty when race detection is off (the default),
    /// and empty for data-race-free programs when it is on.
    pub races: Vec<tm_race::RaceRecord>,
}

impl ClusterStats {
    /// Total nanoseconds senders spent queued waiting for busy links
    /// (0 under the ideal topology).
    pub fn total_queue_ns(&self) -> u64 {
        self.links
            .iter()
            .fold(0u64, |acc, l| acc.saturating_add(l.queue_ns))
    }

    /// Utilization of the busiest link over the run's modeled execution
    /// time (0 under the ideal topology).
    pub fn max_link_utilization(&self) -> f64 {
        let total = self.exec_time_ns();
        self.links
            .iter()
            .map(|l| l.utilization(total))
            .fold(0.0, f64::max)
    }
    /// Modeled parallel execution time: the latest finishing processor.
    pub fn exec_time_ns(&self) -> u64 {
        self.per_proc
            .iter()
            .map(|p| p.exec_time_ns)
            .max()
            .unwrap_or(0)
    }

    /// Total messages across all processors.
    pub fn total_messages(&self) -> u64 {
        self.per_proc.iter().map(|p| p.message_count()).sum()
    }

    /// Total wire bytes across all processors.
    pub fn total_wire_bytes(&self) -> u64 {
        self.per_proc.iter().map(|p| p.wire_bytes()).sum()
    }

    /// Aggregate the interval-log garbage-collection counters.
    pub fn gc_counters(&self) -> GcCounters {
        let mut gc = GcCounters::default();
        for p in &self.per_proc {
            gc.intervals_closed += p.intervals_closed;
            gc.intervals_retired += p.intervals_retired;
            gc.diffs_retired += p.diffs_retired;
            gc.pending_flushes += p.gc_pending_flushes;
        }
        gc
    }

    /// Derive the paper's communication breakdown.
    pub fn breakdown(&self) -> CommBreakdown {
        let mut b = CommBreakdown {
            exec_time_ns: self.exec_time_ns(),
            total_wire_bytes: self.total_wire_bytes(),
            ..Default::default()
        };
        let nprocs = self.per_proc.len();
        b.signature = SignatureHistogram::new(nprocs.saturating_sub(1));
        for p in &self.per_proc {
            b.faults += p.faults.len() as u64;
            b.home_updates += p.control[MsgKind::HomeUpdate as usize].messages;
            b.page_fetches += p.page_fetches;
            // Control messages are always necessary -> useful.  Home updates
            // are recorded as control messages: every flush is mandatory in
            // the single-writer protocol (the home must stay current), so
            // none of them can be useless — the protocol pays for them in
            // *count*, which is exactly the paper's trade-off.
            b.useful_messages += p.control_messages();
            for e in &p.exchanges {
                if e.is_useful() {
                    b.useful_messages += 2;
                    b.useful_data += e.useful_payload;
                    b.piggybacked_useless_data += e.useless_payload();
                } else {
                    b.useless_messages += 2;
                    b.useless_data_in_useless_msgs += e.useless_payload();
                }
            }
            for f in &p.faults {
                let mut useful = 0;
                let mut useless = 0;
                for id in f.exchange_ids.clone() {
                    // Exchange ids are indices into the per-proc exchange log.
                    if let Some(e) = p.exchanges.get(id as usize) {
                        if e.is_useful() {
                            useful += 1;
                        } else {
                            useless += 1;
                        }
                    }
                }
                b.signature
                    .record(f.exchange_ids.len() as u32, useful, useless);
            }
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{DiffExchange, FaultRecord};

    fn exchange(delivered: u64, useful: u64) -> DiffExchange {
        DiffExchange {
            wire_bytes: 2 * MSG_HEADER_BYTES + delivered,
            delivered_payload: delivered,
            useful_payload: useful,
        }
    }

    #[test]
    fn breakdown_classifies_messages_and_data() {
        let mut p = ProcStats::new(ProcId(0));
        p.exchanges.push(exchange(100, 60)); // useful, 40 piggybacked
        p.exchanges.push(exchange(50, 0)); // useless
        p.faults.push(FaultRecord { exchange_ids: 0..2 });
        p.record_control(MsgKind::BarrierArrive, 8);
        p.exec_time_ns = 1000;

        let stats = ClusterStats {
            per_proc: vec![p],
            ..Default::default()
        };
        let b = stats.breakdown();
        assert_eq!(b.useful_messages, 2 + 1); // useful exchange + control msg
        assert_eq!(b.useless_messages, 2);
        assert_eq!(b.useful_data, 60);
        assert_eq!(b.piggybacked_useless_data, 40);
        assert_eq!(b.useless_data_in_useless_msgs, 50);
        assert_eq!(b.total_messages(), 5);
        assert_eq!(b.total_payload(), 150);
        assert_eq!(b.faults, 1);
        assert_eq!(b.exec_time_ns, 1000);
        let bucket = b.signature.bucket(2);
        assert_eq!(bucket.faults, 1);
        assert_eq!(bucket.useful_exchanges, 1);
        assert_eq!(bucket.useless_exchanges, 1);
    }

    #[test]
    fn exec_time_is_max_over_processors() {
        let mut a = ProcStats::new(ProcId(0));
        a.exec_time_ns = 500;
        let mut b = ProcStats::new(ProcId(1));
        b.exec_time_ns = 900;
        let stats = ClusterStats {
            per_proc: vec![a, b],
            ..Default::default()
        };
        assert_eq!(stats.exec_time_ns(), 900);
    }

    #[test]
    fn signature_histogram_statistics() {
        let mut h = SignatureHistogram::new(7);
        h.record(1, 1, 0);
        h.record(1, 1, 0);
        h.record(7, 1, 6);
        assert_eq!(h.total_faults(), 3);
        assert_eq!(h.bucket(1).faults, 2);
        assert_eq!(h.bucket(7).useless_exchanges, 6);
        assert_eq!(h.max_writers(), 7);
        assert!((h.frequency(1) - 2.0 / 3.0).abs() < 1e-12);
        assert!((h.mean_writers() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn signature_grows_beyond_initial_capacity() {
        let mut h = SignatureHistogram::new(3);
        h.record(9, 0, 9);
        assert_eq!(h.bucket(9).faults, 1);
        assert_eq!(h.max_writers(), 9);
    }

    #[test]
    fn proc_stats_message_and_byte_counts() {
        let mut p = ProcStats::new(ProcId(2));
        p.exchanges.push(exchange(10, 10));
        p.record_control(MsgKind::LockRequest, 0);
        p.record_control(MsgKind::LockGrant, 16);
        assert_eq!(p.message_count(), 4);
        assert_eq!(
            p.wire_bytes(),
            (2 * MSG_HEADER_BYTES + 10) + MSG_HEADER_BYTES + (MSG_HEADER_BYTES + 16)
        );
    }
}
