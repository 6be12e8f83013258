//! Link-occupancy bookkeeping: finite bandwidth as pure logical-time state.
//!
//! Every run owns one [`NetworkState`]: a `next_free_ns` horizon per link
//! plus per-link counters.  A transmission of `wire_bytes` at logical time
//! `now` over a link costs
//!
//! ```text
//! serialization = wire_bytes * ns_per_byte          (finite bandwidth)
//! queueing      = max(now, next_free) - now         (the wire is busy)
//! next_free'    = max(now, next_free) + serialization
//! ```
//!
//! Everything is a pure function of the logical clock values the
//! deterministic scheduler already produces, so runs reproduce bit-for-bit
//! across reruns on every topology.  All arithmetic saturates (the large
//! workload tier crosses `u64` products; the CI `checked` build would catch
//! a wrapping multiply).
//!
//! * [`Topology::Ideal`] has **no** links: a message never waits, so a
//!   transmission costs its serialization time and nothing is recorded.
//!   The ideal network is this model with nothing to queue on, not a
//!   separate formula.
//! * [`Topology::SharedBus`] has a single link (index 0) that every message
//!   occupies.
//! * [`Topology::Switched`] has one link per processor NIC; a unicast
//!   occupies both endpoint NICs for its serialization time.

use crate::topology::Topology;

/// Accumulated counters of one link (the bus, or one processor's NIC).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Link index: 0 for the shared bus, the processor rank for switched
    /// NICs.
    pub link: u32,
    /// Messages that occupied this link.
    pub messages: u64,
    /// Wire bytes serialized over this link.
    pub wire_bytes: u64,
    /// Nanoseconds the link spent busy (sum of serialization times).
    pub busy_ns: u64,
    /// Nanoseconds senders spent queued waiting for this link.
    pub queue_ns: u64,
    /// Logical time at which the link's last occupancy ended (its
    /// `next_free_ns` horizon when the counters were snapshotted).  The
    /// occupancy intervals are disjoint and live in `[0, window_ns]`, so
    /// `busy_ns <= window_ns` always holds.
    pub window_ns: u64,
}

impl LinkStats {
    /// Fraction of the observation window the link spent busy (0 when the
    /// window is empty).
    ///
    /// Callers usually pass the run's *timed region*
    /// (`CommBreakdown::exec_time_ns`), while the counters span the whole
    /// run — including any traffic after the application marks its end,
    /// such as post-run verification reads.  The denominator is therefore
    /// the *later* of the timed region and the link's own occupancy horizon
    /// (`window_ns`), which keeps the ratio ≤ 1.0 by construction: the
    /// occupancy intervals are disjoint within `[0, window_ns]`.
    pub fn utilization(&self, total_ns: u64) -> f64 {
        let window = total_ns.max(self.window_ns);
        if window == 0 {
            0.0
        } else {
            self.busy_ns as f64 / window as f64
        }
    }
}

/// One link's occupancy horizon plus its counters.
#[derive(Debug, Clone, Default)]
struct LinkState {
    /// Logical time at which the link next becomes free.
    next_free_ns: u64,
    stats: LinkStats,
}

impl LinkState {
    /// Occupy the link from `start_ns` for `serialize_ns`, charging `queue_ns`
    /// of sender wait time to this link's counters.
    fn occupy(&mut self, start_ns: u64, serialize_ns: u64, wire_bytes: u64, queue_ns: u64) {
        self.next_free_ns = start_ns.saturating_add(serialize_ns);
        self.stats.messages = self.stats.messages.saturating_add(1);
        self.stats.wire_bytes = self.stats.wire_bytes.saturating_add(wire_bytes);
        self.stats.busy_ns = self.stats.busy_ns.saturating_add(serialize_ns);
        self.stats.queue_ns = self.stats.queue_ns.saturating_add(queue_ns);
    }

    /// Reserve the link for `serialize_ns` starting no earlier than `now`;
    /// returns the queueing delay (time spent waiting for the link).
    fn reserve(&mut self, now_ns: u64, serialize_ns: u64, wire_bytes: u64) -> u64 {
        let start = now_ns.max(self.next_free_ns);
        let queue = start.saturating_sub(now_ns);
        self.occupy(start, serialize_ns, wire_bytes, queue);
        queue
    }
}

/// The occupancy state of a run's interconnect.  Built once per run (next
/// to the home directory) and shared by every processor; the deterministic
/// scheduler serializes accesses, so the state is a pure function of the
/// run's logical schedule.
#[derive(Debug, Clone)]
pub struct NetworkState {
    topology: Topology,
    links: Vec<LinkState>,
}

impl NetworkState {
    /// Occupancy state for `topology` over `nprocs` processors.  The ideal
    /// topology has zero links, so its state allocates nothing and reports
    /// no [`link_stats`](Self::link_stats).
    ///
    /// # Panics
    /// If `topology` is [`Topology::Switched`] and `nprocs` is zero: a
    /// switch has one port per processor, and a message needs two of them.
    pub fn new(topology: Topology, nprocs: usize) -> Self {
        let links = match topology {
            Topology::Ideal => 0,
            Topology::SharedBus => 1,
            Topology::Switched => {
                assert!(nprocs >= 1, "a switched network needs at least one port");
                nprocs
            }
        };
        NetworkState {
            topology,
            links: vec![LinkState::default(); links],
        }
    }

    /// The topology this state tracks.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// Transmit one unicast of `wire_bytes` from `src` to `dst` at logical
    /// time `now_ns`, serializing at `ns_per_byte`.  Returns the total delay
    /// the sender observes: queueing (the wire was busy) plus serialization.
    ///
    /// Without links nothing queues; on the bus both endpoints share link 0;
    /// on the switch the message occupies both endpoint NICs and queues
    /// behind the later-free of the two.
    ///
    /// # Panics
    /// On the switch, if `src` or `dst` is not the rank of a port.
    pub fn transmit(
        &mut self,
        now_ns: u64,
        src: u32,
        dst: u32,
        wire_bytes: u64,
        ns_per_byte: u64,
    ) -> u64 {
        let serialize = ns_per_byte.saturating_mul(wire_bytes);
        let queue = match self.topology {
            Topology::Ideal => 0,
            Topology::SharedBus => self.links[0].reserve(now_ns, serialize, wire_bytes),
            Topology::Switched => {
                let (a, b) = (self.port(src), self.port(dst));
                if a == b {
                    self.links[a].reserve(now_ns, serialize, wire_bytes)
                } else {
                    // Both NICs are occupied for the transfer: start when the
                    // later of the two frees up, then hold both.  The wait is
                    // charged to the sender's NIC counters.
                    let start = now_ns
                        .max(self.links[a].next_free_ns)
                        .max(self.links[b].next_free_ns);
                    let queue = start.saturating_sub(now_ns);
                    self.links[a].occupy(start, serialize, wire_bytes, queue);
                    self.links[b].occupy(start, serialize, wire_bytes, 0);
                    queue
                }
            }
        };
        queue.saturating_add(serialize)
    }

    /// The switch port of `rank`: the rank itself — a rank without a port
    /// must not be billed to another processor's NIC.
    fn port(&self, rank: u32) -> usize {
        assert!(
            (rank as usize) < self.links.len(),
            "rank {rank} has no port on a switch of {} links",
            self.links.len()
        );
        rank as usize
    }

    /// Transmit one broadcast of `wire_bytes` from `src` at logical time
    /// `now_ns`.  Only meaningful on a broadcast medium
    /// ([`Topology::has_broadcast`]); on other topologies it degenerates to
    /// a unicast charge on the sender's link (callers replicate per
    /// destination themselves).
    pub fn broadcast(&mut self, now_ns: u64, src: u32, wire_bytes: u64, ns_per_byte: u64) -> u64 {
        debug_assert!(
            self.topology.has_broadcast(),
            "broadcast on a topology without a broadcast medium"
        );
        self.transmit(now_ns, src, src, wire_bytes, ns_per_byte)
    }

    /// Snapshot of every link's counters, in link order.  Each snapshot
    /// carries the link's occupancy horizon as its `window_ns`, so derived
    /// utilization is computed over a window that provably contains every
    /// busy interval.
    pub fn link_stats(&self) -> Vec<LinkStats> {
        self.links
            .iter()
            .enumerate()
            .map(|(i, l)| LinkStats {
                link: i as u32,
                window_ns: l.next_free_ns,
                ..l.stats
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bus_serializes_and_queues_back_to_back_sends() {
        let mut net = NetworkState::new(Topology::SharedBus, 4);
        // First send at t=0: no queueing, pure serialization.
        assert_eq!(net.transmit(0, 0, 1, 100, 800), 80_000);
        // Second send at t=0 from another pair: queues behind the first.
        assert_eq!(net.transmit(0, 2, 3, 100, 800), 160_000);
        // A send after the bus drained queues not at all.
        assert_eq!(net.transmit(200_000, 1, 0, 10, 800), 8_000);
        let stats = net.link_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].messages, 3);
        assert_eq!(stats[0].wire_bytes, 210);
        assert_eq!(stats[0].busy_ns, 80_000 + 80_000 + 8_000);
        assert_eq!(stats[0].queue_ns, 80_000);
    }

    #[test]
    fn switch_contends_only_at_shared_endpoints() {
        let mut net = NetworkState::new(Topology::Switched, 4);
        // Two transfers between disjoint pairs at the same instant overlap
        // fully: no queueing on either.
        assert_eq!(net.transmit(0, 0, 1, 1000, 80), 80_000);
        assert_eq!(net.transmit(0, 2, 3, 1000, 80), 80_000);
        // A transfer sharing an endpoint queues behind it.
        assert_eq!(net.transmit(0, 1, 2, 1000, 80), 160_000);
        let stats = net.link_stats();
        assert_eq!(stats.len(), 4);
        // NIC 1 carried two messages (0->1 and 1->2).
        assert_eq!(stats[1].messages, 2);
        assert_eq!(stats[1].busy_ns, 160_000);
        // NIC 0 carried one.
        assert_eq!(stats[0].messages, 1);
    }

    #[test]
    fn broadcast_occupies_the_bus_once() {
        let mut net = NetworkState::new(Topology::SharedBus, 8);
        assert_eq!(net.broadcast(0, 3, 500, 800), 400_000);
        let stats = net.link_stats();
        assert_eq!(stats[0].messages, 1);
        assert_eq!(stats[0].wire_bytes, 500);
    }

    #[test]
    fn ideal_state_tracks_nothing() {
        let mut net = NetworkState::new(Topology::Ideal, 8);
        assert_eq!(net.transmit(0, 0, 1, 4096, 80), 4096 * 80);
        assert!(net.link_stats().is_empty());
    }

    #[test]
    fn occupancy_arithmetic_saturates_instead_of_overflowing() {
        // Same convention as the cost-model saturation tests: u64::MAX byte
        // counts and rates must pin the clock at u64::MAX, not wrap.
        let mut net = NetworkState::new(Topology::SharedBus, 2);
        assert_eq!(net.transmit(0, 0, 1, u64::MAX, u64::MAX), u64::MAX);
        // The link horizon is now pinned at u64::MAX; a later send queues
        // behind it without wrapping.
        assert_eq!(net.transmit(1_000, 1, 0, 1, 1), u64::MAX - 999);
        let stats = net.link_stats();
        assert_eq!(stats[0].busy_ns, u64::MAX);
        assert_eq!(stats[0].queue_ns, u64::MAX - 1_000);
        assert_eq!(stats[0].wire_bytes, u64::MAX);

        let mut sw = NetworkState::new(Topology::Switched, 2);
        assert_eq!(sw.transmit(0, 0, 1, u64::MAX, 2), u64::MAX);
        assert_eq!(sw.transmit(5, 1, 0, 1, 1), u64::MAX - 4);
    }

    #[test]
    #[should_panic(expected = "at least one port")]
    fn a_switch_without_ports_is_rejected_at_construction() {
        NetworkState::new(Topology::Switched, 0);
    }

    #[test]
    #[should_panic(expected = "rank 4 has no port on a switch of 4 links")]
    fn a_rank_without_a_port_is_not_billed_to_another_nic() {
        let mut net = NetworkState::new(Topology::Switched, 4);
        net.transmit(0, 0, 4, 100, 80);
    }

    #[test]
    fn utilization_is_never_above_one() {
        // Saturate the bus with back-to-back sends, then probe utilization
        // against a "timed region" that ends before the traffic does — the
        // exact situation that used to report > 1.0.
        let mut net = NetworkState::new(Topology::SharedBus, 2);
        for t in 0..10 {
            net.transmit(t * 1_000, 0, 1, 100, 100); // 10,000 ns each
        }
        let s = net.link_stats()[0];
        assert_eq!(s.busy_ns, 100_000);
        assert_eq!(s.window_ns, 100_000);
        // busy_ns (100,000) exceeds the short timed region (50,000), but the
        // window stretches the denominator so the ratio stays pinned at 1.0.
        assert!((s.utilization(50_000) - 1.0).abs() < 1e-12);
        // A generous timed region dominates the window as before.
        assert!((s.utilization(200_000) - 0.5).abs() < 1e-12);
    }
}
