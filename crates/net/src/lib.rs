//! # tm-net — simulated cluster network
//!
//! The paper's testbed was eight Pentium workstations on a switched 100 Mbps
//! Ethernet.  `treadmarks-rs` replaces the physical network with a *simulated
//! cluster*: every protocol interaction is accounted as messages and bytes,
//! and its latency is charged against per-processor logical clocks using a
//! cost model calibrated to the paper's §5.1 micro-benchmarks.
//!
//! The crate provides:
//!
//! * the message taxonomy and exchange/fault records ([`msg`]),
//! * the calibrated [`CostModel`] ([`cost`]),
//! * per-processor [`LogicalClock`]s ([`clock`]),
//! * the network-topology seam and link-occupancy bookkeeping
//!   ([`topology`], [`link`]): finite-bandwidth shared-bus and switched
//!   fabrics with deterministic queueing, plus the write-notice/diff-flush
//!   [`AggregationPolicy`], and
//! * statistics containers and the paper's useful/useless breakdown and
//!   false-sharing signature ([`stats`]).
//!
//! It deliberately knows nothing about pages, diffs or consistency — only
//! about counting and timing communication.
//!
//! ## Quick example
//!
//! ```
//! use tm_net::{ClusterStats, CostModel, DiffExchange, ProcId, ProcStats, MSG_HEADER_BYTES};
//!
//! // One diff exchange that delivered a full page, half of which the
//! // application later read (the other half is piggybacked useless data).
//! let mut p = ProcStats::new(ProcId(0));
//! p.exchanges.push(DiffExchange {
//!     wire_bytes: 2 * MSG_HEADER_BYTES + 4096,
//!     delivered_payload: 4096,
//!     useful_payload: 2048,
//! });
//!
//! let stats = ClusterStats { per_proc: vec![p], ..Default::default() };
//! let b = stats.breakdown();
//! assert_eq!(b.total_messages(), 2); // request + reply, both useful
//! assert_eq!(b.useful_data, 2048);
//! assert_eq!(b.piggybacked_useless_data, 2048);
//!
//! // The calibrated 1997 cost model: an 8-processor barrier costs 861 µs.
//! assert_eq!(CostModel::pentium_ethernet_1997().barrier_latency(8), 861_000);
//! ```

// Like tdsm-core and tm-page, this substrate crate hard-enforces rustdoc
// coverage; the doc build itself is kept warning-clean by CI
// (RUSTDOCFLAGS="-D warnings").
#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod clock;
pub mod cost;
pub mod link;
pub mod msg;
pub mod stats;
pub mod topology;

pub use clock::LogicalClock;
pub use cost::{CostModel, ResponderCost};
pub use link::{LinkStats, NetworkState};
pub use msg::{ControlTally, DiffExchange, FaultRecord, MsgKind, ProcId, MSG_HEADER_BYTES};
pub use stats::{
    ClusterStats, CommBreakdown, GcCounters, ProcStats, SignatureBucket, SignatureHistogram,
};
pub use topology::{AggregationPolicy, NetworkConfig, Topology};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        // Bounded so the whole-workspace test run stays fast in CI; raise
        // locally with PROPTEST_CASES for deeper sweeps.
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The breakdown's message and data totals must always be consistent
        /// with the raw per-processor records, whatever the mix of exchanges
        /// and control messages — and the per-kind control tallies with the
        /// processor's own totals.
        #[test]
        fn breakdown_conserves_counts(
            specs in prop::collection::vec((1u64..5000, 0u64..5000), 0..40),
            controls in prop::collection::vec((0usize..MsgKind::COUNT, 0u64..512), 0..20),
        ) {
            const KINDS: [MsgKind; MsgKind::COUNT] = [
                MsgKind::LockRequest,
                MsgKind::LockForward,
                MsgKind::LockGrant,
                MsgKind::BarrierArrive,
                MsgKind::BarrierDepart,
                MsgKind::HomeUpdate,
            ];
            let mut p = ProcStats::new(ProcId(0));
            for (delivered, useful_raw) in &specs {
                p.exchanges.push(DiffExchange {
                    wire_bytes: 2 * MSG_HEADER_BYTES + delivered,
                    delivered_payload: *delivered,
                    useful_payload: useful_raw % (delivered + 1),
                });
            }
            for &(kind, payload) in &controls {
                p.record_control(KINDS[kind], payload);
            }
            // Entry `kind as usize` holds exactly the messages of that kind.
            for (kind, tally) in p.control.iter().enumerate() {
                let of_kind = controls.iter().filter(|&&(k, _)| k == kind);
                prop_assert_eq!(tally.messages, of_kind.clone().count() as u64);
                prop_assert_eq!(
                    tally.bytes,
                    of_kind.map(|&(_, payload)| MSG_HEADER_BYTES + payload).sum::<u64>()
                );
            }
            let exchange_wire: u64 = p.exchanges.iter().map(|e| e.wire_bytes).sum();
            prop_assert_eq!(
                p.control.iter().map(|t| t.messages).sum::<u64>(),
                p.message_count() - 2 * p.exchanges.len() as u64
            );
            prop_assert_eq!(
                p.control.iter().map(|t| t.bytes).sum::<u64>(),
                p.wire_bytes() - exchange_wire
            );
            let expected_messages = p.message_count();
            let delivered_total: u64 = specs.iter().map(|(d, _)| d).sum();
            let stats = ClusterStats { per_proc: vec![p], ..Default::default() };
            let b = stats.breakdown();
            prop_assert_eq!(b.total_messages(), expected_messages);
            prop_assert_eq!(b.total_payload(), delivered_total);
            prop_assert!(b.useful_data <= delivered_total);
        }

        /// Signature frequencies always sum to 1 when any fault was recorded.
        #[test]
        fn signature_frequencies_sum_to_one(counts in prop::collection::vec(0u64..20, 1..8)) {
            let mut h = SignatureHistogram::new(counts.len());
            let mut any = false;
            for (k, n) in counts.iter().enumerate() {
                for _ in 0..*n {
                    h.record(k as u32 + 1, 1, 0);
                    any = true;
                }
            }
            if any {
                let sum: f64 = (0..=h.max_writers()).map(|k| h.frequency(k)).sum();
                prop_assert!((sum - 1.0).abs() < 1e-9);
            }
        }
    }
}
