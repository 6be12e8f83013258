//! Calibrated cost model of the paper's experimental platform.
//!
//! The paper (§5.1) characterizes the platform — eight 166 MHz Pentiums on a
//! switched 100 Mbps Ethernet running TreadMarks over UDP/IP — with a handful
//! of micro-costs:
//!
//! * 1-byte round-trip latency: **296 µs**
//! * lock acquisition: **374–574 µs**
//! * 8-processor barrier: **861 µs**
//! * diff fetch: **579–1746 µs** (depending on diff size)
//!
//! The simulated cluster charges these costs against per-processor logical
//! clocks so that the *shape* of the execution-time results (Figures 1 and 2)
//! can be reproduced without the original hardware.  Absolute seconds are not
//! expected to match the 1997 testbed.
//!
//! There is one cost path.  Every stall and flush routes its wire time
//! through the run's [`NetworkState`]; the ideal interconnect is the state
//! with no links, where a transmission costs `wire_ns_per_byte × bytes` and
//! never queues, so the calibrated numbers above are what that path yields
//! on it.  The four entry points: [`CostModel::fault_stall_served_on`] and
//! [`CostModel::home_fetch_stall_on`] (two parameterisations of one private
//! stall formula), [`CostModel::home_flush_cost_on`] (an interval's flushes
//! to the homes, per message or batched), and
//! [`CostModel::fault_stall_served`], a convenience over an ideal state.

use crate::link::NetworkState;
use crate::msg::MSG_HEADER_BYTES;
use crate::topology::{AggregationPolicy, Topology};

/// All tunable cost constants, in nanoseconds (or nanoseconds per byte).
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Round-trip network latency of a minimal message (request + reply
    /// software overhead included).
    pub rtt_small_ns: u64,
    /// One-way wire + protocol-stack time per byte (100 Mbps ≈ 80 ns/byte).
    pub wire_ns_per_byte: u64,
    /// Fixed CPU cost, on the faulting processor, of entering the fault
    /// handler (signal delivery + protocol entry on the real system).
    pub fault_handler_ns: u64,
    /// Cost of one memory-protection change (`mprotect` on the real system).
    pub protection_op_ns: u64,
    /// Per-byte cost of creating a twin (page copy).
    pub twin_ns_per_byte: u64,
    /// Fixed cost of creating one diff (twin/current comparison setup).
    pub diff_create_base_ns: u64,
    /// Per-byte cost of the twin/current comparison.
    pub diff_create_ns_per_byte: u64,
    /// Fixed cost, on the serving processor, of handling one diff request.
    pub diff_serve_base_ns: u64,
    /// Per-byte cost of assembling the reply.
    pub diff_serve_ns_per_byte: u64,
    /// Fixed cost of applying one diff at the faulting processor.
    pub diff_apply_base_ns: u64,
    /// Per-byte cost of applying diff contents.
    pub diff_apply_ns_per_byte: u64,
    /// Fixed cost, on a home processor, of serving one whole-page fetch
    /// (home-based protocol).  Cheaper than a diff serve: no interval-log
    /// walk and no run reassembly, just a send of the resident master copy.
    pub page_serve_base_ns: u64,
    /// Per-byte cost of assembling a whole-page reply on the home.
    pub page_serve_ns_per_byte: u64,
    /// Base latency of an uncontended lock acquisition (3-hop transfer).
    pub lock_base_ns: u64,
    /// Base latency of a barrier with `barrier_calibrated_procs` processors.
    pub barrier_base_ns: u64,
    /// Number of processors the barrier base latency was measured with.
    pub barrier_calibrated_procs: u32,
    /// Additional barrier latency per processor beyond the calibrated count
    /// (and subtracted per processor below it).
    pub barrier_per_proc_ns: u64,
    /// CPU charge per shared-memory access issued by the application (models
    /// the inline access check; the real system pays nothing for valid pages,
    /// but also models the application's own per-element work).
    pub shared_access_ns: u64,
    /// Fixed per-message CPU overhead (interrupt + UDP processing) charged to
    /// the requester for every message it causes.
    pub message_cpu_ns: u64,
    /// One-way wire time per byte of the *shared-bus* topology (a 10 Mbps
    /// Ethernet segment ≈ 800 ns/byte).  Only consulted when a run models
    /// link occupancy under [`Topology::SharedBus`]; the switched topology
    /// reuses the calibrated `wire_ns_per_byte`.
    pub bus_ns_per_byte: u64,
    /// Fixed CPU cost of assembling (sender) and disassembling (receivers)
    /// one batched flush message under
    /// [`AggregationPolicy::Batched`].
    pub batch_assembly_ns: u64,
}

impl CostModel {
    /// The cost model calibrated against the paper's §5.1 numbers
    /// (166 MHz Pentium, FreeBSD 2.1.6, switched 100 Mbps Ethernet, UDP/IP).
    pub fn pentium_ethernet_1997() -> Self {
        CostModel {
            rtt_small_ns: 296_000,
            wire_ns_per_byte: 80,
            fault_handler_ns: 60_000,
            protection_op_ns: 10_000,
            twin_ns_per_byte: 15,
            diff_create_base_ns: 20_000,
            diff_create_ns_per_byte: 12,
            diff_serve_base_ns: 120_000,
            diff_serve_ns_per_byte: 30,
            diff_apply_base_ns: 15_000,
            diff_apply_ns_per_byte: 15,
            page_serve_base_ns: 70_000,
            page_serve_ns_per_byte: 10,
            lock_base_ns: 450_000,
            barrier_base_ns: 861_000,
            barrier_calibrated_procs: 8,
            barrier_per_proc_ns: 55_000,
            shared_access_ns: 55,
            message_cpu_ns: 40_000,
            bus_ns_per_byte: 800,
            batch_assembly_ns: 25_000,
        }
    }

    /// A cost model with zero communication cost — useful in unit tests that
    /// only care about protocol counts, and as the "infinitely fast network"
    /// ablation point.
    pub fn free_network() -> Self {
        CostModel {
            rtt_small_ns: 0,
            wire_ns_per_byte: 0,
            fault_handler_ns: 0,
            protection_op_ns: 0,
            twin_ns_per_byte: 0,
            diff_create_base_ns: 0,
            diff_create_ns_per_byte: 0,
            diff_serve_base_ns: 0,
            diff_serve_ns_per_byte: 0,
            diff_apply_base_ns: 0,
            diff_apply_ns_per_byte: 0,
            page_serve_base_ns: 0,
            page_serve_ns_per_byte: 0,
            lock_base_ns: 0,
            barrier_base_ns: 0,
            barrier_calibrated_procs: 8,
            barrier_per_proc_ns: 0,
            shared_access_ns: 0,
            message_cpu_ns: 0,
            bus_ns_per_byte: 0,
            batch_assembly_ns: 0,
        }
    }

    /// Stall time of a multi-writer page fault that issues one diff exchange
    /// per concurrent writer, with the replies routed through `net`.
    /// TreadMarks sends all requests before waiting, so the requests and the
    /// responders' diff generation overlap (one round trip, the slowest
    /// serve time), but the replies all arrive at the faulting node's single
    /// network interface: their wire time, per-message receive processing
    /// and diff application serialize there.  This is what makes a 7-writer
    /// fault substantially more expensive than a 1-writer fault even though
    /// the requests go out in parallel.
    ///
    /// `responders[i].serve_extra_ns` joins that responder's serve time:
    /// under lazy diff timing the responder creates any not-yet-materialized
    /// diff while serving the request.  `sources[i]` is the rank serving
    /// `responders[i]` and `faulter` the receiving rank — the endpoints each
    /// reply occupies in `net`, where it queues behind the links' horizons
    /// and behind the replies before it.
    ///
    /// A fault that contacts no writer (a prefetched or cold fault) costs
    /// exactly `fault_handler_ns + protection_op_ns`: no round trip, no
    /// serve, and — since nothing is applied — no diff-application charge.
    pub fn fault_stall_served_on(
        &self,
        responders: &[ResponderCost],
        sources: &[u32],
        applied_payload: u64,
        faulter: u32,
        now_ns: u64,
        net: &mut NetworkState,
    ) -> u64 {
        let apply_ns = self
            .diff_apply_base_ns
            .saturating_mul(responders.len() as u64)
            .saturating_add(self.diff_apply_ns_per_byte.saturating_mul(applied_payload));
        self.fetch_stall_on(
            self.diff_serve_base_ns,
            self.diff_serve_ns_per_byte,
            apply_ns,
            responders,
            sources,
            faulter,
            now_ns,
            net,
        )
    }

    /// [`fault_stall_served_on`](Self::fault_stall_served_on) over an ideal
    /// network, which needs neither endpoints nor a clock — the calibration
    /// point of §5.1.
    pub fn fault_stall_served(&self, responders: &[ResponderCost], applied_payload: u64) -> u64 {
        let mut ideal = NetworkState::new(Topology::Ideal, 0);
        self.fault_stall_served_on(responders, &[], applied_payload, 0, 0, &mut ideal)
    }

    /// Stall time of a whole-page fault in the home-based protocol: the same
    /// stall as [`fault_stall_served_on`](Self::fault_stall_served_on) with
    /// the homes as responders, the page-serve constants in place of the
    /// diff-serve ones (a home sends its resident master copy: no
    /// interval-log walk, no run reassembly) and a plain per-byte copy
    /// (`twin_ns_per_byte`, i.e. memcpy speed) in place of the run-by-run
    /// diff application.
    ///
    /// A fault served entirely from a co-resident home copy (`responders`
    /// empty) costs exactly `fault_handler_ns + protection_op_ns` plus the
    /// local copy of `applied_payload` bytes — no messages.
    pub fn home_fetch_stall_on(
        &self,
        responders: &[ResponderCost],
        sources: &[u32],
        applied_payload: u64,
        faulter: u32,
        now_ns: u64,
        net: &mut NetworkState,
    ) -> u64 {
        self.fetch_stall_on(
            self.page_serve_base_ns,
            self.page_serve_ns_per_byte,
            self.twin_ns_per_byte.saturating_mul(applied_payload),
            responders,
            sources,
            faulter,
            now_ns,
            net,
        )
    }

    /// The one fetch-stall formula: fault entry, one round trip overlapped
    /// across the responders, the slowest responder's serve (base + per
    /// reply byte + its extras), the replies' wire time through `net` one
    /// after the other, their per-message receive processing, and the
    /// caller's `apply_ns`.  The two public parameterisations above differ
    /// only in the serve constants and the apply charge.
    #[allow(clippy::too_many_arguments)]
    fn fetch_stall_on(
        &self,
        serve_base_ns: u64,
        serve_ns_per_byte: u64,
        apply_ns: u64,
        responders: &[ResponderCost],
        sources: &[u32],
        faulter: u32,
        now_ns: u64,
        net: &mut NetworkState,
    ) -> u64 {
        let rate = self.topology_ns_per_byte(net.topology());
        let mut slowest_serve = 0u64;
        let mut wire_ns = 0u64;
        for (i, r) in responders.iter().enumerate() {
            slowest_serve = slowest_serve.max(
                serve_base_ns
                    .saturating_add(serve_ns_per_byte.saturating_mul(r.reply_bytes))
                    .saturating_add(r.serve_extra_ns),
            );
            let src = sources.get(i).copied().unwrap_or(faulter);
            wire_ns =
                wire_ns.saturating_add(net.transmit(now_ns, src, faulter, r.reply_bytes, rate));
        }
        let rtt = if responders.is_empty() {
            0
        } else {
            self.rtt_small_ns
        };
        self.fault_handler_ns
            .saturating_add(self.protection_op_ns)
            .saturating_add(rtt)
            .saturating_add(slowest_serve)
            .saturating_add(wire_ns)
            .saturating_add(self.message_cpu_ns.saturating_mul(responders.len() as u64))
            .saturating_add(apply_ns)
    }

    /// Per-byte serialization rate of `topology`: the shared bus runs at
    /// `bus_ns_per_byte` (10 Mbps Ethernet), the ideal network and every
    /// switch port at the calibrated `wire_ns_per_byte`.
    pub fn topology_ns_per_byte(&self, topology: Topology) -> u64 {
        match topology {
            Topology::SharedBus => self.bus_ns_per_byte,
            Topology::Ideal | Topology::Switched => self.wire_ns_per_byte,
        }
    }

    /// Writer-side cost of flushing one closed interval's diffs to their
    /// homes (home-based protocol), sent from `src` at `now_ns`.  `flushes`
    /// holds `(home_rank, payload_bytes)` pairs, one per home, in home
    /// order — payload only, the message headers are added here.  The
    /// flush is asynchronous, so the writer pays only per-message CPU
    /// overhead and outgoing wire time through `net`, no round trip.
    ///
    /// One message per home by default, each leaving once the writer has
    /// sent the ones before it: it queues only behind other traffic.
    ///
    /// Under [`AggregationPolicy::Batched`] the flushes travel as one wire
    /// message.  On a broadcast medium it occupies the wire once and every
    /// home snoops it: `batch_assembly_ns + message_cpu_ns + one
    /// transmission of header + total payload`.  On a point-to-point fabric
    /// there is no broadcast, so the batch is replicated to each home —
    /// every copy carries the *whole* batch, re-creating the paper's
    /// useless-data effect at the message layer, which is why batching
    /// loses on a switched network.  Batching needs something to batch and
    /// a wire to batch for: a batch of one, and any batch on a topology
    /// without links (where no message ever waits for another), costs
    /// exactly the per-message flushes with no assembly charge.
    pub fn home_flush_cost_on(
        &self,
        flushes: &[(u32, u64)],
        aggregation: AggregationPolicy,
        src: u32,
        now_ns: u64,
        net: &mut NetworkState,
    ) -> u64 {
        let rate = self.topology_ns_per_byte(net.topology());
        if !aggregation.is_batched() || flushes.len() <= 1 || !net.topology().is_contended() {
            return flushes.iter().fold(0u64, |spent, &(home, bytes)| {
                let wire_bytes = MSG_HEADER_BYTES.saturating_add(bytes);
                let sent_at = now_ns.saturating_add(spent);
                spent
                    .saturating_add(self.message_cpu_ns)
                    .saturating_add(net.transmit(sent_at, src, home, wire_bytes, rate))
            });
        }
        let total_payload = flushes
            .iter()
            .fold(0u64, |acc, &(_, b)| acc.saturating_add(b));
        let batch_bytes = MSG_HEADER_BYTES.saturating_add(total_payload);
        if net.topology().has_broadcast() {
            self.batch_assembly_ns
                .saturating_add(self.message_cpu_ns)
                .saturating_add(net.broadcast(now_ns, src, batch_bytes, rate))
        } else {
            let mut total = self.batch_assembly_ns;
            for &(home, _) in flushes {
                total = total
                    .saturating_add(self.message_cpu_ns)
                    .saturating_add(net.transmit(now_ns, src, home, batch_bytes, rate));
            }
            total
        }
    }

    /// Latency of an uncontended lock acquisition.
    pub fn lock_latency(&self) -> u64 {
        self.lock_base_ns
    }

    /// Latency added by a barrier of `procs` processors once every processor
    /// has arrived.
    ///
    /// Below the calibrated processor count the per-processor discount is
    /// clamped so the latency never collapses to zero: any barrier still
    /// costs at least one small round trip to the manager (`rtt_small_ns`).
    pub fn barrier_latency(&self, procs: u32) -> u64 {
        let base = self.barrier_base_ns;
        let calibrated = self.barrier_calibrated_procs;
        if procs >= calibrated {
            base.saturating_add(
                self.barrier_per_proc_ns
                    .saturating_mul((procs - calibrated) as u64),
            )
        } else {
            base.saturating_sub(
                self.barrier_per_proc_ns
                    .saturating_mul((calibrated - procs) as u64),
            )
            .max(self.rtt_small_ns)
        }
    }

    /// Cost of creating a twin of `bytes` bytes.
    pub fn twin_cost(&self, bytes: u64) -> u64 {
        self.twin_ns_per_byte.saturating_mul(bytes)
    }

    /// Cost of creating a diff by comparing `bytes` bytes of twin/current.
    pub fn diff_create_cost(&self, bytes: u64) -> u64 {
        self.diff_create_base_ns
            .saturating_add(self.diff_create_ns_per_byte.saturating_mul(bytes))
    }
}

/// The serve-side load one responder contributes to a fault stall: its reply
/// size plus any extra serve-side work (lazy diff creation happens on the
/// responder while the requester waits).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResponderCost {
    /// Wire bytes of this responder's reply message.
    pub reply_bytes: u64,
    /// Extra nanoseconds spent on the responder's serve path beyond the
    /// calibrated per-byte assembly cost (e.g. on-demand diff creation).
    pub serve_extra_ns: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::pentium_ethernet_1997()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use AggregationPolicy::{Batched, PerMessage};

    /// Responders with the given reply sizes and no serve-side extras.
    fn replies(reply_bytes: &[u64]) -> Vec<ResponderCost> {
        reply_bytes
            .iter()
            .map(|&reply_bytes| ResponderCost {
                reply_bytes,
                serve_extra_ns: 0,
            })
            .collect()
    }

    /// A multi-writer fault on the ideal network, one reply size per writer.
    fn diff_fault(m: &CostModel, reply_bytes: &[u64], applied_payload: u64) -> u64 {
        m.fault_stall_served(&replies(reply_bytes), applied_payload)
    }

    /// A home-based fault on the ideal network.
    fn page_fault(m: &CostModel, responders: &[ResponderCost], applied_payload: u64) -> u64 {
        let mut ideal = NetworkState::new(Topology::Ideal, 8);
        m.home_fetch_stall_on(responders, &[], applied_payload, 0, 0, &mut ideal)
    }

    /// One home-update flush of `payload` bytes on the ideal network.
    fn flush(m: &CostModel, payload: u64) -> u64 {
        let mut ideal = NetworkState::new(Topology::Ideal, 8);
        m.home_flush_cost_on(&[(1, payload)], PerMessage, 0, 0, &mut ideal)
    }

    /// The closed-form ideal stall the cost model computed before the ideal
    /// network became a link model with no links: one product for the
    /// replies' wire time instead of one transmission per reply.  Kept as
    /// the reference the single occupancy-aware path must reproduce exactly.
    fn closed_form_stall(
        m: &CostModel,
        serve_base_ns: u64,
        serve_ns_per_byte: u64,
        apply_ns: u64,
        responders: &[ResponderCost],
    ) -> u64 {
        let slowest_serve = responders
            .iter()
            .map(|r| {
                serve_base_ns
                    .saturating_add(serve_ns_per_byte.saturating_mul(r.reply_bytes))
                    .saturating_add(r.serve_extra_ns)
            })
            .max()
            .unwrap_or(0);
        let total_reply_bytes = responders
            .iter()
            .fold(0u64, |acc, r| acc.saturating_add(r.reply_bytes));
        let n = responders.len() as u64;
        let rtt = if responders.is_empty() {
            0
        } else {
            m.rtt_small_ns
        };
        m.fault_handler_ns
            .saturating_add(m.protection_op_ns)
            .saturating_add(rtt)
            .saturating_add(slowest_serve)
            .saturating_add(m.wire_ns_per_byte.saturating_mul(total_reply_bytes))
            .saturating_add(m.message_cpu_ns.saturating_mul(n))
            .saturating_add(apply_ns)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Under the ideal topology the one stall formula is the calibrated
        /// closed form, bit for bit, for both protocols' parameterisations
        /// and both stock cost models — and it touches no link.
        #[test]
        fn contended_variants_reduce_to_the_calibrated_model_when_ideal(
            // `corner == 0` swaps the reply size for the saturating corner.
            specs in prop::collection::vec((0u64..=65_536, 0u64..=1_000_000, 0u32..12), 0..=8),
            applied_payload in 0u64..=1 << 20,
            faulter in 0u32..8,
            now_ns in 0u64..=1 << 40,
        ) {
            let responders: Vec<ResponderCost> = specs
                .iter()
                .map(|&(bytes, serve_extra_ns, corner)| ResponderCost {
                    reply_bytes: if corner == 0 { u64::MAX } else { bytes },
                    serve_extra_ns,
                })
                .collect();
            let sources: Vec<u32> = (0..responders.len() as u32).map(|i| (i + 1) % 8).collect();
            let n = responders.len() as u64;
            for m in [CostModel::pentium_ethernet_1997(), CostModel::free_network()] {
                let mut net = NetworkState::new(Topology::Ideal, 8);
                let diff_apply = m
                    .diff_apply_base_ns
                    .saturating_mul(n)
                    .saturating_add(m.diff_apply_ns_per_byte.saturating_mul(applied_payload));
                let diff_reference = closed_form_stall(
                    &m,
                    m.diff_serve_base_ns,
                    m.diff_serve_ns_per_byte,
                    diff_apply,
                    &responders,
                );
                prop_assert_eq!(
                    m.fault_stall_served_on(
                        &responders, &sources, applied_payload, faulter, now_ns, &mut net
                    ),
                    diff_reference
                );
                prop_assert_eq!(m.fault_stall_served(&responders, applied_payload), diff_reference);
                prop_assert_eq!(
                    m.home_fetch_stall_on(
                        &responders, &sources, applied_payload, faulter, now_ns, &mut net
                    ),
                    closed_form_stall(
                        &m,
                        m.page_serve_base_ns,
                        m.page_serve_ns_per_byte,
                        m.twin_ns_per_byte.saturating_mul(applied_payload),
                        &responders,
                    )
                );
                // The flush: per-message overhead plus the calibrated wire
                // time, and a batch on a network without links is exactly
                // its per-message flushes.
                let flushes: Vec<(u32, u64)> =
                    sources.iter().zip(&responders).map(|(&h, r)| (h, r.reply_bytes)).collect();
                let per_message = flushes.iter().fold(0u64, |acc, &(_, bytes)| {
                    let wire_bytes = MSG_HEADER_BYTES.saturating_add(bytes);
                    acc.saturating_add(m.message_cpu_ns)
                        .saturating_add(m.wire_ns_per_byte.saturating_mul(wire_bytes))
                });
                for aggregation in [PerMessage, Batched] {
                    prop_assert_eq!(
                        m.home_flush_cost_on(&flushes, aggregation, faulter, now_ns, &mut net),
                        per_message
                    );
                }
                prop_assert!(net.link_stats().is_empty());
            }
        }
    }

    #[test]
    fn paper_calibration_points() {
        let m = CostModel::pentium_ethernet_1997();
        // 1-byte round trip: 296 microseconds.
        assert_eq!(m.rtt_small_ns, 296_000);
        // Empty-page diff fetch is within the paper's 579–1746 µs window.
        let small = diff_fault(&m, &[200], 200);
        assert!(
            (400_000..1_800_000).contains(&small),
            "small diff fetch {small}ns outside plausible window"
        );
        // A full-page diff fetch stays within the paper's upper bound.
        let large = diff_fault(&m, &[4096], 4096);
        assert!(
            (579_000..=1_900_000).contains(&large),
            "large diff fetch {large}ns outside plausible window"
        );
        // 8-processor barrier latency matches the measured 861 µs.
        assert_eq!(m.barrier_latency(8), 861_000);
        // Lock latency within the measured 374–574 µs window.
        assert!((374_000..=574_000).contains(&m.lock_latency()));
    }

    #[test]
    fn barrier_scales_with_processor_count() {
        let m = CostModel::pentium_ethernet_1997();
        assert!(m.barrier_latency(16) > m.barrier_latency(8));
        assert!(m.barrier_latency(2) < m.barrier_latency(8));
    }

    #[test]
    fn fault_stall_overlaps_round_trips_but_serializes_receives() {
        let m = CostModel::pentium_ethernet_1997();
        let one_big = diff_fault(&m, &[4096], 4096);
        let big_plus_small = diff_fault(&m, &[4096, 64], 4096 + 64);
        // Adding a second, smaller responder does not add a second round
        // trip (requests overlap) ...
        assert!(big_plus_small < one_big + m.rtt_small_ns);
        assert!(big_plus_small > one_big);
        // ... but seven equally sized responders cost markedly more than
        // one, because the replies serialize at the faulting node.
        let seven = diff_fault(&m, &[1024; 7], 7 * 1024);
        let one = diff_fault(&m, &[1024], 1024);
        assert!(
            seven > 2 * one,
            "seven-writer fault {seven} vs single {one}"
        );
        // Two single-page faults from the same writer still cost more than
        // one aggregated two-page fault (the aggregation argument of §3).
        let two_faults = 2 * diff_fault(&m, &[2048], 2048);
        let aggregated = diff_fault(&m, &[4096], 4096);
        assert!(aggregated < two_faults);
    }

    #[test]
    fn zero_responder_fault_costs_handler_and_protection_only() {
        // Regression: a fault with no concurrent writer (prefetched by the
        // dynamic aggregation scheme, or a cold unit-mate) applies no diff,
        // so it must not be billed a diff application.  The old code charged
        // `diff_apply_base_ns * len().max(1)`.
        let m = CostModel::pentium_ethernet_1997();
        assert_eq!(
            diff_fault(&m, &[], 0),
            m.fault_handler_ns + m.protection_op_ns
        );
    }

    #[test]
    fn serve_extra_joins_the_slowest_serve() {
        // Lazy diff creation happens on the responder's serve path: it adds
        // to that responder's serve time and responders still overlap, so
        // only the slowest one moves the stall.
        let m = CostModel::pentium_ethernet_1997();
        let base = diff_fault(&m, &[1024, 1024], 2048);
        let with_extra = m.fault_stall_served(
            &[
                ResponderCost {
                    reply_bytes: 1024,
                    serve_extra_ns: 70_000,
                },
                ResponderCost {
                    reply_bytes: 1024,
                    serve_extra_ns: 0,
                },
            ],
            2048,
        );
        assert_eq!(with_extra, base + 70_000);
    }

    #[test]
    fn small_barrier_latency_never_collapses_to_zero() {
        // Regression: with a per-processor discount large enough to swallow
        // the base latency, `saturating_sub` used to floor a small barrier
        // at 0 ns.  It is clamped to one small round trip instead.
        let mut m = CostModel::pentium_ethernet_1997();
        m.barrier_per_proc_ns = 200_000; // 6 * 200 µs > 861 µs base
        assert_eq!(m.barrier_latency(2), m.rtt_small_ns);
        // The calibrated point itself is unaffected by the clamp.
        assert_eq!(m.barrier_latency(8), m.barrier_base_ns);
    }

    #[test]
    fn home_fetch_and_update_costs_are_calibrated_sanely() {
        let m = CostModel::pentium_ethernet_1997();
        let page = ResponderCost {
            reply_bytes: 4096,
            serve_extra_ns: 0,
        };
        // A whole-page fetch from one home is cheaper than a whole-page
        // *diff* exchange of the same size: the home serves a resident copy
        // instead of walking its interval log.
        let fetch = page_fault(&m, &[page], 4096);
        let diff = diff_fault(&m, &[4096], 4096);
        assert!(fetch < diff, "page fetch {fetch} vs diff fetch {diff}");
        // But it is still a real network stall, bounded below by the RTT.
        assert!(fetch > m.rtt_small_ns);
        // A fault served from a co-resident home copy sends no messages.
        assert_eq!(
            page_fault(&m, &[], 4096),
            m.fault_handler_ns + m.protection_op_ns + m.twin_ns_per_byte * 4096
        );
        // The asynchronous flush costs far less than stalling a round trip.
        assert!(flush(&m, 512) < m.rtt_small_ns);
        assert_eq!(
            flush(&m, 512),
            m.message_cpu_ns + (MSG_HEADER_BYTES + 512) * m.wire_ns_per_byte
        );
        // Free network: everything collapses to the local handler costs.
        let free = CostModel::free_network();
        assert_eq!(page_fault(&free, &[page], 4096), 0);
        assert_eq!(flush(&free, 4096), 0);
    }

    #[test]
    fn cost_arithmetic_saturates_instead_of_overflowing() {
        // The large workload tier multiplies per-byte rates by big byte
        // counts; in debug builds an unchecked `*` would panic.  All cost
        // products and sums must saturate.
        let mut m = CostModel::pentium_ethernet_1997();
        m.wire_ns_per_byte = u64::MAX;
        m.diff_serve_ns_per_byte = u64::MAX;
        m.diff_apply_ns_per_byte = u64::MAX;
        m.twin_ns_per_byte = u64::MAX;
        m.diff_create_ns_per_byte = u64::MAX;
        m.barrier_per_proc_ns = u64::MAX;
        m.page_serve_ns_per_byte = u64::MAX;
        assert_eq!(diff_fault(&m, &[u64::MAX, 7], u64::MAX), u64::MAX);
        assert_eq!(
            page_fault(
                &m,
                &[ResponderCost {
                    reply_bytes: u64::MAX,
                    serve_extra_ns: 0
                }],
                u64::MAX
            ),
            u64::MAX
        );
        assert_eq!(flush(&m, u64::MAX), u64::MAX);
        assert_eq!(m.twin_cost(u64::MAX), u64::MAX);
        assert_eq!(m.diff_create_cost(3), u64::MAX);
        assert_eq!(m.barrier_latency(64), u64::MAX);
    }

    #[test]
    fn bus_queues_make_repeated_faults_slower() {
        // On the shared bus a second fault at the same logical time queues
        // its replies behind the first fault's — the ideal model would
        // charge both identically.
        let m = CostModel::pentium_ethernet_1997();
        let mut net = NetworkState::new(Topology::SharedBus, 4);
        let served = [ResponderCost {
            reply_bytes: 2048,
            serve_extra_ns: 0,
        }];
        let first = m.fault_stall_served_on(&served, &[1], 2048, 0, 0, &mut net);
        let second = m.fault_stall_served_on(&served, &[2], 2048, 3, 0, &mut net);
        assert!(second > first, "second bus fault {second} vs first {first}");
        let stats = net.link_stats();
        assert_eq!(stats[0].messages, 2);
        assert!(stats[0].queue_ns > 0);
    }

    #[test]
    fn batched_flush_wins_on_the_bus_and_loses_on_the_switch() {
        // The divergence at the heart of the aggregation knob, pinned at the
        // cost-model level: batching k flushes saves (k-1) headers and
        // per-message overheads on a broadcast bus, but on a switched
        // fabric each home receives the whole batch, so the replicated
        // bytes outweigh the savings.
        let m = CostModel::pentium_ethernet_1997();
        let flushes: Vec<(u32, u64)> = vec![(1, 600), (2, 500), (3, 400)];
        let cost = |topology, aggregation, flushes: &[(u32, u64)]| {
            let mut net = NetworkState::new(topology, 4);
            m.home_flush_cost_on(flushes, aggregation, 0, 0, &mut net)
        };

        let bus_batched = cost(Topology::SharedBus, Batched, &flushes);
        let bus_per_msg = cost(Topology::SharedBus, PerMessage, &flushes);
        assert!(
            bus_batched < bus_per_msg,
            "bus: batched {bus_batched} should beat per-message {bus_per_msg}"
        );

        let sw_batched = cost(Topology::Switched, Batched, &flushes);
        let sw_per_msg = cost(Topology::Switched, PerMessage, &flushes);
        assert!(
            sw_batched > sw_per_msg,
            "switch: batched {sw_batched} should lose to per-message {sw_per_msg}"
        );

        // A batch of one is exactly the per-message cost: nothing to save.
        let single = [(2u32, 300u64)];
        assert_eq!(
            cost(Topology::SharedBus, Batched, &single),
            cost(Topology::SharedBus, PerMessage, &single)
        );
    }

    #[test]
    fn per_message_flushes_leave_one_after_another() {
        // Three flushes on the bus: message k leaves at `now` plus the cost
        // of the messages before it — the sum an interval close used to
        // build message by message — so none waits on the one shared link
        // behind its predecessor.
        let m = CostModel::pentium_ethernet_1997();
        let flushes = [(1u32, 600u64), (2, 500), (3, 400)];
        let now = 1_000_000;
        let mut net = NetworkState::new(Topology::SharedBus, 4);
        let cost = m.home_flush_cost_on(&flushes, PerMessage, 0, now, &mut net);

        let mut reference = NetworkState::new(Topology::SharedBus, 4);
        let rate = m.bus_ns_per_byte;
        let mut spent = 0;
        for (home, bytes) in flushes {
            spent += m.message_cpu_ns
                + reference.transmit(now + spent, 0, home, MSG_HEADER_BYTES + bytes, rate);
        }
        assert_eq!(cost, spent);
        assert_eq!(net.link_stats(), reference.link_stats());
        // Sending all three at `now` would queue them behind one another on
        // the wire instead.
        let mut at_once = NetworkState::new(Topology::SharedBus, 4);
        let queued: u64 = flushes
            .iter()
            .map(|&(home, bytes)| {
                m.message_cpu_ns + at_once.transmit(now, 0, home, MSG_HEADER_BYTES + bytes, rate)
            })
            .sum();
        assert_ne!(cost, queued);
    }

    #[test]
    fn contended_cost_arithmetic_saturates_instead_of_overflowing() {
        // PR 4 convention on the contended topologies: u64::MAX rates and
        // byte counts must pin every result at u64::MAX.
        let mut m = CostModel::pentium_ethernet_1997();
        m.bus_ns_per_byte = u64::MAX;
        m.wire_ns_per_byte = u64::MAX;
        m.diff_serve_ns_per_byte = u64::MAX;
        m.page_serve_ns_per_byte = u64::MAX;
        m.diff_apply_ns_per_byte = u64::MAX;
        m.twin_ns_per_byte = u64::MAX;
        let served = [ResponderCost {
            reply_bytes: u64::MAX,
            serve_extra_ns: 0,
        }];
        let mut bus = NetworkState::new(Topology::SharedBus, 2);
        assert_eq!(
            m.fault_stall_served_on(&served, &[1], u64::MAX, 0, 0, &mut bus),
            u64::MAX
        );
        let mut sw = NetworkState::new(Topology::Switched, 2);
        assert_eq!(
            m.home_fetch_stall_on(&served, &[1], u64::MAX, 0, 0, &mut sw),
            u64::MAX
        );
        let mut bus2 = NetworkState::new(Topology::SharedBus, 2);
        assert_eq!(
            m.home_flush_cost_on(&[(1, u64::MAX)], PerMessage, 0, 0, &mut bus2),
            u64::MAX
        );
        let mut sw2 = NetworkState::new(Topology::Switched, 4);
        assert_eq!(
            m.home_flush_cost_on(&[(1, u64::MAX), (2, 7)], Batched, 0, 0, &mut sw2),
            u64::MAX
        );
    }

    #[test]
    fn free_network_is_free() {
        let m = CostModel::free_network();
        assert_eq!(diff_fault(&m, &[1000, 2000], 3000), 0);
        assert_eq!(m.barrier_latency(8), 0);
        assert_eq!(m.lock_latency(), 0);
    }

    #[test]
    fn aggregated_unit_fetch_is_cheaper_than_sequential_fetches() {
        // The aggregation argument from §3: fetching two pages' diffs from
        // the same writer in one exchange costs one round trip, while two
        // page-sized units cost two.
        let m = CostModel::pentium_ethernet_1997();
        let two_faults = 2 * diff_fault(&m, &[2048], 2048);
        let one_fault = diff_fault(&m, &[4096], 4096);
        assert!(one_fault < two_faults);
    }
}
