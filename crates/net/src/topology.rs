//! The network-topology seam: where bandwidth is finite and the wire queues.
//!
//! The cost model's calibrated constants charge every byte a fixed wire time
//! but let any number of messages overlap — bandwidth is effectively
//! infinite, and the congestion side of the paper's aggregation trade-off is
//! invisible.  This module makes the network's *shape* an explicit axis:
//!
//! * [`Topology::Ideal`] — the calibrated model as-is: per-byte wire time
//!   and nothing to queue on.  It is the link model with *no links*
//!   ([`NetworkState`](crate::NetworkState) owns none for it), not a second
//!   cost formula: every topology goes through the same stall and flush
//!   functions of [`CostModel`](crate::CostModel).  This is the
//!   compatibility default; every golden document and benchmark digest is
//!   pinned against it.
//! * [`Topology::SharedBus`] — one shared broadcast medium (a 10 Mbps
//!   Ethernet segment): every message serializes over a single link and
//!   queues behind all other traffic, but a single transmission reaches
//!   every processor (hardware broadcast).
//! * [`Topology::Switched`] — a full-bisection switch (the paper's platform
//!   shape): every processor owns a private full-duplex port at the
//!   calibrated per-byte rate, messages contend only at the two endpoint
//!   NICs, and there is no broadcast — a message to `k` destinations is `k`
//!   unicasts.
//!
//! Orthogonally, [`AggregationPolicy`] decides whether write notices and
//! diff flushes travel as one message per destination
//! ([`AggregationPolicy::PerMessage`]) or are batched into fewer, larger
//! wire messages ([`AggregationPolicy::Batched`]).  Batching saves headers
//! and per-message occupancy slots — a clear win on a broadcast bus — but on
//! a switched fabric the batch must be replicated to every destination, so
//! each receiver pays for bytes it did not ask for: aggregation re-creates
//! the paper's useless-data effect at the message layer.  Batching needs a
//! wire: on the ideal topology there is no occupancy slot to save, and a
//! batch costs exactly its per-message flushes
//! ([`CostModel::home_flush_cost_on`](crate::CostModel::home_flush_cost_on)
//! is the one place that knows).

/// The shape of the simulated interconnect (see the module docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Topology {
    /// Infinite-bandwidth network: the calibrated per-byte charges apply but
    /// nothing ever queues.  The compatibility default.
    #[default]
    Ideal,
    /// One shared broadcast medium; every message occupies the single link.
    SharedBus,
    /// Per-processor switch ports; messages contend only at endpoint NICs.
    Switched,
}

impl Topology {
    /// Stable lowercase name, used by CLI flags and machine-readable rows.
    pub fn as_str(&self) -> &'static str {
        match self {
            Topology::Ideal => "ideal",
            Topology::SharedBus => "bus",
            Topology::Switched => "switched",
        }
    }

    /// True when the topology has links to queue on (everything but
    /// [`Topology::Ideal`]).
    pub fn is_contended(&self) -> bool {
        !matches!(self, Topology::Ideal)
    }

    /// True when a single transmission reaches every processor.
    pub fn has_broadcast(&self) -> bool {
        matches!(self, Topology::SharedBus)
    }
}

impl std::str::FromStr for Topology {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "ideal" => Ok(Topology::Ideal),
            "bus" | "shared-bus" | "ethernet" => Ok(Topology::SharedBus),
            "switched" | "switch" => Ok(Topology::Switched),
            other => Err(format!(
                "unknown topology '{other}' (expected ideal, bus or switched)"
            )),
        }
    }
}

impl std::fmt::Display for Topology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How write notices and diff flushes are packed onto the wire.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum AggregationPolicy {
    /// One wire message per destination (the TreadMarks default).
    #[default]
    PerMessage,
    /// Batch an interval's flushes into one larger wire message: one header
    /// and one per-message overhead, broadcast where the topology allows it
    /// and replicated to each destination where it does not.
    Batched,
}

impl AggregationPolicy {
    /// Stable lowercase name, used by CLI flags and machine-readable rows.
    pub fn as_str(&self) -> &'static str {
        match self {
            AggregationPolicy::PerMessage => "per-message",
            AggregationPolicy::Batched => "batched",
        }
    }

    /// True for the batching variant.
    pub fn is_batched(&self) -> bool {
        matches!(self, AggregationPolicy::Batched)
    }
}

impl std::str::FromStr for AggregationPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "per-message" | "none" | "off" => Ok(AggregationPolicy::PerMessage),
            "batched" | "batch" | "on" => Ok(AggregationPolicy::Batched),
            other => Err(format!(
                "unknown aggregation policy '{other}' (expected per-message or batched)"
            )),
        }
    }
}

impl std::fmt::Display for AggregationPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A topology plus an aggregation policy — the network half of a run's
/// configuration, grouped so sweeps can carry the pair as one axis value.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct NetworkConfig {
    /// Interconnect shape.
    pub topology: Topology,
    /// Write-notice/diff-flush packing policy.
    pub aggregation: AggregationPolicy,
}

impl NetworkConfig {
    /// Build a pair from its two halves.
    pub fn new(topology: Topology, aggregation: AggregationPolicy) -> Self {
        NetworkConfig {
            topology,
            aggregation,
        }
    }

    /// True when this is the compatibility default (ideal, per-message).
    pub fn is_default(&self) -> bool {
        *self == NetworkConfig::default()
    }

    /// Stable `topology+aggregation` label for cell keys and filenames;
    /// the aggregation half is appended only when non-default.
    pub fn label(&self) -> String {
        if self.aggregation.is_batched() {
            format!("{}+{}", self.topology.as_str(), self.aggregation.as_str())
        } else {
            self.topology.as_str().to_string()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_names_round_trip() {
        for t in [Topology::Ideal, Topology::SharedBus, Topology::Switched] {
            assert_eq!(t.as_str().parse::<Topology>().unwrap(), t);
            assert_eq!(t.to_string(), t.as_str());
        }
        assert_eq!(
            "shared-bus".parse::<Topology>().unwrap(),
            Topology::SharedBus
        );
        assert_eq!("switch".parse::<Topology>().unwrap(), Topology::Switched);
        assert!("token-ring".parse::<Topology>().is_err());
    }

    #[test]
    fn aggregation_names_round_trip() {
        for a in [AggregationPolicy::PerMessage, AggregationPolicy::Batched] {
            assert_eq!(a.as_str().parse::<AggregationPolicy>().unwrap(), a);
        }
        assert_eq!(
            "batch".parse::<AggregationPolicy>().unwrap(),
            AggregationPolicy::Batched
        );
        assert!("zip".parse::<AggregationPolicy>().is_err());
    }

    #[test]
    fn defaults_are_the_compatibility_point() {
        assert_eq!(Topology::default(), Topology::Ideal);
        assert_eq!(AggregationPolicy::default(), AggregationPolicy::PerMessage);
        assert!(NetworkConfig::default().is_default());
        assert!(!Topology::Ideal.is_contended());
        assert!(Topology::SharedBus.is_contended());
        assert!(Topology::Switched.is_contended());
        assert!(Topology::SharedBus.has_broadcast());
        assert!(!Topology::Switched.has_broadcast());
    }

    #[test]
    fn labels_compose_topology_and_aggregation() {
        assert_eq!(NetworkConfig::default().label(), "ideal");
        assert_eq!(
            NetworkConfig::new(Topology::SharedBus, AggregationPolicy::Batched).label(),
            "bus+batched"
        );
        assert_eq!(
            NetworkConfig::new(Topology::Switched, AggregationPolicy::PerMessage).label(),
            "switched"
        );
    }
}
