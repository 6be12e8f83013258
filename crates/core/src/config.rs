//! DSM configuration: cluster geometry and the consistency-unit policy.

use serde::json::Value;
use serde::{field_u64, FromJson, JsonSchemaError, ToJson};
use tm_net::{AggregationPolicy, CostModel, NetworkConfig, Topology};
use tm_page::{PageId, PageLayout};
use tm_sched::{SchedConfig, ScheduleMode};

use crate::protocol::ProtocolMode;

/// Compile-compat shim for the frozen `benchmark/` package, which still
/// passes `EngineKind::default()` to `tm_bench::Cell::new` and
/// `tm_apps::AppConfig::engine`.  There is one execution substrate and
/// nothing may branch on this; the next `benchmark` PR removes those call
/// sites and then this enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineKind {
    /// The only substrate: one host thread resuming processor continuations.
    #[default]
    EventDriven,
}

/// When a dirty page's diff is encoded — at interval close, or on demand at
/// the first request that needs it.
///
/// TreadMarks creates diffs *lazily*: closing an interval publishes only
/// write notices, and the twin comparison runs on the responder's serve path
/// the first time some processor requests the diff (never, for a diff nobody
/// asks for).  The eager variant pays the creation cost up front on the
/// writer.  Both timings exchange exactly the same write notices and diffs,
/// so the paper's message counts and volumes are independent of this knob;
/// only where and when `CostModel::diff_create_cost` is charged differs (see
/// DESIGN.md, "Eager versus lazy diff creation").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum DiffTiming {
    /// Encode every dirty page's diff when the interval closes (charged to
    /// the writer at close time).
    Eager,
    /// Encode a diff at the first request that needs it (charged to the
    /// responder's serve path, which the faulting processor stalls on).
    /// This is TreadMarks' behaviour and the default.
    #[default]
    Lazy,
}

impl DiffTiming {
    /// Stable lowercase name, used by CLI flags and machine-readable rows.
    pub fn as_str(&self) -> &'static str {
        match self {
            DiffTiming::Eager => "eager",
            DiffTiming::Lazy => "lazy",
        }
    }
}

impl std::str::FromStr for DiffTiming {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "eager" => Ok(DiffTiming::Eager),
            "lazy" => Ok(DiffTiming::Lazy),
            other => Err(format!(
                "unknown diff timing '{other}' (expected eager or lazy)"
            )),
        }
    }
}

impl std::fmt::Display for DiffTiming {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How hardware pages are grouped into consistency units — the central knob
/// of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitPolicy {
    /// A fixed consistency unit of `pages` contiguous, aligned hardware
    /// pages.  `pages = 1` is the classic TreadMarks configuration (4 KB on
    /// the paper's platform); `pages = 2` and `4` correspond to the paper's
    /// 8 KB and 16 KB configurations.
    Static {
        /// Number of hardware pages per consistency unit (must be ≥ 1).
        pages: u32,
    },
    /// The paper's dynamic aggregation algorithm: the consistency unit stays
    /// one page, but pages a processor faulted on during the previous
    /// interval are grouped (possibly non-contiguously) into *page groups* of
    /// at most `max_group_pages` pages, whose diffs are all requested at the
    /// first fault on any member.
    Dynamic {
        /// Maximum number of pages per page group.
        max_group_pages: u32,
    },
}

impl UnitPolicy {
    /// Short label used by the benchmark harness ("4K", "8K", "16K", "Dyn").
    pub fn label(&self, page_size: usize) -> String {
        match self {
            UnitPolicy::Static { pages } => {
                format!("{}K", *pages as usize * page_size / 1024)
            }
            UnitPolicy::Dynamic { .. } => "Dyn".to_string(),
        }
    }

    /// Number of hardware pages invalidated/validated together (1 for the
    /// dynamic policy, whose protection granularity stays one page).
    pub fn protection_pages(&self) -> u32 {
        match self {
            UnitPolicy::Static { pages } => *pages,
            UnitPolicy::Dynamic { .. } => 1,
        }
    }

    /// The page indices of the static consistency unit containing `page`.
    /// For the dynamic policy the unit is the page itself.
    pub fn unit_range(&self, page: PageId, layout: &PageLayout) -> std::ops::Range<u32> {
        let k = self.protection_pages();
        if k <= 1 {
            return page.0..page.0 + 1;
        }
        let first = page.0 / k * k;
        first..(first + k).min(layout.total_pages())
    }

    /// The pages of [`unit_range`](Self::unit_range), as a list.
    pub fn unit_pages(&self, page: PageId, layout: &PageLayout) -> Vec<PageId> {
        self.unit_range(page, layout).map(PageId).collect()
    }

    /// True if this is the dynamic-aggregation policy.
    pub fn is_dynamic(&self) -> bool {
        matches!(self, UnitPolicy::Dynamic { .. })
    }
}

impl ToJson for UnitPolicy {
    fn to_json(&self) -> Value {
        match self {
            UnitPolicy::Static { pages } => Value::obj(vec![
                ("kind", Value::Str("static".into())),
                ("pages", Value::Num(*pages as f64)),
            ]),
            UnitPolicy::Dynamic { max_group_pages } => Value::obj(vec![
                ("kind", Value::Str("dynamic".into())),
                ("max_group_pages", Value::Num(*max_group_pages as f64)),
            ]),
        }
    }
}

impl FromJson for UnitPolicy {
    fn from_json(v: &Value) -> Result<Self, JsonSchemaError> {
        match v.get("kind").and_then(|k| k.as_str()) {
            Some("static") => Ok(UnitPolicy::Static {
                pages: field_u64(v, "pages")? as u32,
            }),
            Some("dynamic") => Ok(UnitPolicy::Dynamic {
                max_group_pages: field_u64(v, "max_group_pages")? as u32,
            }),
            _ => Err(JsonSchemaError::new("kind", "\"static\" or \"dynamic\"")),
        }
    }
}

/// One point of a [`SweepSpec`]: a concrete (processor count, unit policy)
/// configuration together with the label the figures print for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepPoint {
    /// Number of simulated processors.
    pub nprocs: usize,
    /// Consistency-unit policy at this point.
    pub unit: UnitPolicy,
    /// Write protocol at this point.
    pub protocol: ProtocolMode,
    /// Network topology and aggregation policy at this point.
    pub network: NetworkConfig,
    /// Display label ("4K", "8K", "16K", "Dyn", "Dyn8", ...).
    pub label: String,
}

/// Declarative description of the configuration grid an experiment sweeps:
/// the cross product of processor counts and consistency-unit policies.
///
/// This is the paper's experimental design expressed as data — Figures 1
/// and 2 are [`SweepSpec::paper_units`] over each application, the group-size
/// ablation is [`SweepSpec::dyn_group_ablation`] — and it is what the
/// `tm-bench` experiment runner expands into runnable cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepSpec {
    /// Processor counts to sweep (each must be in 1..=1024).
    pub procs: Vec<usize>,
    /// Consistency-unit policies to sweep.
    pub units: Vec<UnitPolicy>,
    /// Write protocols to sweep (usually a single one; crossing both lets a
    /// grid compare the multi-writer and home-based organizations
    /// cell-for-cell).
    pub protocols: Vec<ProtocolMode>,
    /// Network (topology, aggregation) pairs to sweep — usually just the
    /// ideal default; the `fig_network` grid crosses contended topologies
    /// against both aggregation policies.
    pub networks: Vec<NetworkConfig>,
    /// Hardware page size labels are computed against (4096 in the paper).
    pub page_size: usize,
    /// Deterministic-scheduler configuration every point runs under: the
    /// tie-break mode, and the *base* seed the harness mixes into each
    /// cell's identity seed.
    pub sched: SchedConfig,
    /// Run every point under the happens-before race detector (off by
    /// default).  Detection is pure observation — it cannot change any
    /// measured quantity — so this is not an experimental axis; it only
    /// adds `races` reports to the emitted documents.
    pub racecheck: bool,
}

impl SweepSpec {
    /// The paper's policy axis (4 K / 8 K / 16 K / Dyn) at one processor
    /// count — the sweep behind Figures 1 and 2.
    pub fn paper_units(nprocs: usize) -> Self {
        SweepSpec {
            procs: vec![nprocs],
            units: vec![
                UnitPolicy::Static { pages: 1 },
                UnitPolicy::Static { pages: 2 },
                UnitPolicy::Static { pages: 4 },
                UnitPolicy::Dynamic { max_group_pages: 4 },
            ],
            protocols: vec![ProtocolMode::MultiWriter],
            networks: vec![NetworkConfig::default()],
            page_size: 4096,
            sched: SchedConfig::default(),
            racecheck: false,
        }
    }

    /// The §4 ablation axis: dynamic aggregation with maximum group sizes of
    /// 2, 4, 8 and 16 pages, at one processor count.
    pub fn dyn_group_ablation(nprocs: usize) -> Self {
        SweepSpec {
            procs: vec![nprocs],
            units: [2u32, 4, 8, 16]
                .into_iter()
                .map(|max_group_pages| UnitPolicy::Dynamic { max_group_pages })
                .collect(),
            protocols: vec![ProtocolMode::MultiWriter],
            networks: vec![NetworkConfig::default()],
            page_size: 4096,
            sched: SchedConfig::default(),
            racecheck: false,
        }
    }

    /// A single-configuration "sweep" (used for Table 1's fixed 4 KB unit).
    pub fn single(nprocs: usize, unit: UnitPolicy) -> Self {
        SweepSpec {
            procs: vec![nprocs],
            units: vec![unit],
            protocols: vec![ProtocolMode::MultiWriter],
            networks: vec![NetworkConfig::default()],
            page_size: 4096,
            sched: SchedConfig::default(),
            racecheck: false,
        }
    }

    /// Builder-style setter for the scheduling configuration.
    pub fn with_sched(mut self, sched: SchedConfig) -> Self {
        self.sched = sched;
        self
    }

    /// Builder-style setter for the protocol axis.
    pub fn with_protocols(mut self, protocols: Vec<ProtocolMode>) -> Self {
        self.protocols = protocols;
        self
    }

    /// Builder-style setter for the network axis (topology × aggregation).
    pub fn with_networks(mut self, networks: Vec<NetworkConfig>) -> Self {
        self.networks = networks;
        self
    }

    /// Builder-style setter for the race-detection knob.
    pub fn with_racecheck(mut self, racecheck: bool) -> Self {
        self.racecheck = racecheck;
        self
    }

    /// Expand into concrete points: the cross product of processor counts and
    /// unit policies, in deterministic (procs-major) order.
    ///
    /// Dynamic policies other than the paper's default group size are
    /// labelled with their size (`Dyn8`), so ablation points stay
    /// distinguishable.
    pub fn points(&self) -> Vec<SweepPoint> {
        let mut out = Vec::with_capacity(
            self.procs.len() * self.units.len() * self.protocols.len() * self.networks.len(),
        );
        for &nprocs in &self.procs {
            for &unit in &self.units {
                for &protocol in &self.protocols {
                    for &network in &self.networks {
                        let label = match unit {
                            UnitPolicy::Dynamic { max_group_pages } if max_group_pages != 4 => {
                                format!("Dyn{max_group_pages}")
                            }
                            u => u.label(self.page_size),
                        };
                        out.push(SweepPoint {
                            nprocs,
                            unit,
                            protocol,
                            network,
                            label,
                        });
                    }
                }
            }
        }
        out
    }

    /// Validate the spec, panicking on empty axes or out-of-range values
    /// (same bounds as [`DsmConfig::validate`]).
    pub fn validate(&self) {
        assert!(
            !self.procs.is_empty(),
            "sweep needs at least one processor count"
        );
        assert!(
            !self.units.is_empty(),
            "sweep needs at least one unit policy"
        );
        assert!(
            !self.protocols.is_empty(),
            "sweep needs at least one write protocol"
        );
        assert!(
            !self.networks.is_empty(),
            "sweep needs at least one network configuration"
        );
        for &n in &self.procs {
            assert!(
                (1..=1024).contains(&n),
                "processor count {n} outside 1-1024"
            );
        }
        for &u in &self.units {
            DsmConfig {
                unit: u,
                ..DsmConfig::paper_default()
            }
            .validate();
        }
    }
}

/// JSON form of a [`SchedConfig`]: `{"mode": "fifo"|"seeded", "seed": hex}`.
/// Seeds are full 64-bit values, so — like cell seeds — they travel as hex
/// strings to stay exact in JSON. (Free functions rather than trait impls:
/// both `ToJson` and `SchedConfig` are foreign to this crate.)
pub fn sched_to_json(sched: &SchedConfig) -> Value {
    Value::obj(vec![
        ("mode", Value::Str(sched.mode.as_str().to_string())),
        ("seed", Value::Str(format!("{:016x}", sched.seed))),
    ])
}

/// Inverse of [`sched_to_json`].
pub fn sched_from_json(v: &Value) -> Result<SchedConfig, JsonSchemaError> {
    let mode: ScheduleMode = serde::field_str(v, "mode")?
        .parse()
        .map_err(|_| JsonSchemaError::new("mode", "\"fifo\" or \"seeded\""))?;
    let seed = u64::from_str_radix(serde::field_str(v, "seed")?, 16)
        .map_err(|_| JsonSchemaError::new("seed", "16-digit hex string"))?;
    Ok(SchedConfig { mode, seed })
}

impl ToJson for SweepSpec {
    fn to_json(&self) -> Value {
        let mut fields = vec![
            (
                "procs",
                Value::Arr(self.procs.iter().map(|&p| Value::Num(p as f64)).collect()),
            ),
            (
                "units",
                Value::Arr(self.units.iter().map(|u| u.to_json()).collect()),
            ),
            (
                "protocols",
                Value::Arr(self.protocols.iter().map(|p| p.to_json()).collect()),
            ),
            ("page_size", Value::Num(self.page_size as f64)),
            ("sched", sched_to_json(&self.sched)),
        ];
        // Additive field: the ideal/per-message default is omitted so
        // pre-topology documents stay byte-identical.
        if self.networks != vec![NetworkConfig::default()] {
            fields.push((
                "networks",
                Value::Arr(self.networks.iter().map(|n| n.to_json()).collect()),
            ));
        }
        // Additive field: emitted only when race detection is on, so default
        // documents stay byte-identical to pre-detector ones.
        if self.racecheck {
            fields.push(("racecheck", Value::Bool(true)));
        }
        Value::obj(fields)
    }
}

impl FromJson for SweepSpec {
    fn from_json(v: &Value) -> Result<Self, JsonSchemaError> {
        let mut procs = Vec::new();
        for (i, p) in serde::field_arr(v, "procs")?.iter().enumerate() {
            procs.push(
                p.as_u64().ok_or_else(|| {
                    JsonSchemaError::new(format!("procs[{i}]"), "unsigned integer")
                })? as usize,
            );
        }
        let mut units = Vec::new();
        for (i, u) in serde::field_arr(v, "units")?.iter().enumerate() {
            units.push(UnitPolicy::from_json(u).map_err(|e| e.in_context(&format!("units[{i}]")))?);
        }
        // Additive field: documents emitted before the home-based protocol
        // landed swept only the multi-writer organization.
        let protocols = match v.get("protocols") {
            None => vec![ProtocolMode::MultiWriter],
            Some(arr) => {
                let items = arr
                    .as_arr()
                    .ok_or_else(|| JsonSchemaError::new("protocols", "array"))?;
                let mut out = Vec::new();
                for (i, p) in items.iter().enumerate() {
                    out.push(
                        ProtocolMode::from_json(p)
                            .map_err(|e| e.in_context(&format!("protocols[{i}]")))?,
                    );
                }
                out
            }
        };
        // Additive field: documents emitted before the topology seam landed
        // swept only the ideal network.
        let networks = match v.get("networks") {
            None => vec![NetworkConfig::default()],
            Some(arr) => {
                let items = arr
                    .as_arr()
                    .ok_or_else(|| JsonSchemaError::new("networks", "array"))?;
                let mut out = Vec::new();
                for (i, n) in items.iter().enumerate() {
                    out.push(
                        NetworkConfig::from_json(n)
                            .map_err(|e| e.in_context(&format!("networks[{i}]")))?,
                    );
                }
                out
            }
        };
        Ok(SweepSpec {
            procs,
            units,
            protocols,
            networks,
            page_size: field_u64(v, "page_size")? as usize,
            // Additive field: documents emitted before the deterministic
            // scheduler landed simply carry the default configuration.
            sched: match v.get("sched") {
                Some(s) => sched_from_json(s).map_err(|e| e.in_context("sched"))?,
                None => SchedConfig::default(),
            },
            // Additive field: absent means race detection off.
            racecheck: match v.get("racecheck") {
                None => false,
                Some(Value::Bool(b)) => *b,
                Some(_) => return Err(JsonSchemaError::new("racecheck", "boolean")),
            },
        })
    }
}

/// Default pending-notice count above which a barrier triggers the GC
/// validation flush (see [`DsmConfig::gc_flush_pending_limit`]).
pub const DEFAULT_GC_FLUSH_PENDING_LIMIT: usize = 16_384;

/// Complete configuration of a DSM cluster.
#[derive(Debug, Clone)]
pub struct DsmConfig {
    /// Number of simulated processors (the cluster nodes).
    pub nprocs: usize,
    /// Hardware page size in bytes (4096 on the paper's platform).
    pub page_size: usize,
    /// Number of hardware pages in the shared address space.
    pub shared_pages: u32,
    /// Consistency-unit policy under study.
    pub unit: UnitPolicy,
    /// Write protocol the cluster runs: TreadMarks' multiple-writer
    /// twin/diff organization (the default) or the home-based single-writer
    /// organization (see [`ProtocolMode`]).  Protocols may differ in
    /// messages, never in computed results.
    pub protocol: ProtocolMode,
    /// Cost model used to charge the logical clocks.
    pub cost: CostModel,
    /// Number of global locks available to the application: lock ids are
    /// `0..max_locks`, at most `u32::MAX` of them.  Only a bound — the lock
    /// table holds the locks the program has acquired, so a large value
    /// costs nothing.
    pub max_locks: usize,
    /// Deterministic-scheduler configuration (tie-break mode and seed); a
    /// run's results are a pure function of the rest of this configuration
    /// plus this field.
    pub sched: SchedConfig,
    /// When diffs are encoded and their creation cost charged (TreadMarks'
    /// lazy on-demand creation by default; message counts and volumes are
    /// unaffected by the choice).
    pub diff_timing: DiffTiming,
    /// Memory-pressure trigger of the interval GC: when a processor arrives
    /// at a barrier holding more than this many pending (incorporated but
    /// unapplied) write notices, it first validates them all — fetching the
    /// outstanding diffs in one aggregated exchange per writer, exactly like
    /// TreadMarks' garbage-collection validation — so the logs behind them
    /// can retire.  The paper-scale workloads never reach the default
    /// ([`DEFAULT_GC_FLUSH_PENDING_LIMIT`], 16384); the `--scale large`
    /// tier does.  The flush adds real
    /// messages, so runs below the threshold are bit-identical to runs with
    /// the flush disabled.
    pub gc_flush_pending_limit: usize,
    /// Network topology the run models ([`Topology::Ideal`] by default —
    /// the calibrated infinite-bandwidth model every golden document is
    /// pinned against).  Contended topologies track per-link occupancy and
    /// add deterministic queueing delays; see `tm_net::link`.
    pub topology: Topology,
    /// How write notices and diff flushes are packed onto the wire.  Only
    /// takes effect under a contended topology: the ideal network has no
    /// per-message occupancy for batching to save.
    pub aggregation: AggregationPolicy,
    /// Run the happens-before race detector alongside the protocol (off by
    /// default).  Every shared read/write is checked against the lock/barrier
    /// happens-before order maintained by the interval vector clocks; races
    /// surface in `ClusterStats::races`.  Detection is pure observation: it
    /// never changes protocol behaviour, checksums or logical timings, so
    /// default runs are bit-identical with the knob on either setting — only
    /// the emitted documents gain `races` reports when it is on.
    pub racecheck: bool,
}

impl DsmConfig {
    /// The paper's base configuration: 8 processors, 4 KB pages, the page as
    /// the consistency unit, and the Pentium/100 Mbps cost model.
    pub fn paper_default() -> Self {
        DsmConfig {
            nprocs: 8,
            page_size: 4096,
            shared_pages: 8192, // 32 MB of shared space
            unit: UnitPolicy::Static { pages: 1 },
            protocol: ProtocolMode::MultiWriter,
            cost: CostModel::pentium_ethernet_1997(),
            max_locks: 4096,
            sched: SchedConfig::default(),
            diff_timing: DiffTiming::default(),
            gc_flush_pending_limit: DEFAULT_GC_FLUSH_PENDING_LIMIT,
            topology: Topology::default(),
            aggregation: AggregationPolicy::default(),
            racecheck: false,
        }
    }

    /// Same as [`paper_default`](Self::paper_default) but with the given
    /// number of processors.
    pub fn with_procs(nprocs: usize) -> Self {
        DsmConfig {
            nprocs,
            ..Self::paper_default()
        }
    }

    /// Builder-style setter for the consistency-unit policy.
    pub fn unit(mut self, unit: UnitPolicy) -> Self {
        self.unit = unit;
        self
    }

    /// Builder-style setter for the write protocol.
    pub fn protocol(mut self, protocol: ProtocolMode) -> Self {
        self.protocol = protocol;
        self
    }

    /// Builder-style setter for the cost model.
    pub fn cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Builder-style setter for the shared-space size (in pages).
    pub fn shared_pages(mut self, pages: u32) -> Self {
        self.shared_pages = pages;
        self
    }

    /// Builder-style setter for the number of locks.
    pub fn max_locks(mut self, locks: usize) -> Self {
        self.max_locks = locks;
        self
    }

    /// Builder-style setter for the scheduling configuration.
    pub fn sched(mut self, sched: SchedConfig) -> Self {
        self.sched = sched;
        self
    }

    /// Builder-style setter for the diff-timing knob.
    pub fn diff_timing(mut self, timing: DiffTiming) -> Self {
        self.diff_timing = timing;
        self
    }

    /// Builder-style setter for the GC validation-flush trigger.
    pub fn gc_flush_pending_limit(mut self, limit: usize) -> Self {
        self.gc_flush_pending_limit = limit;
        self
    }

    /// Builder-style setter for the network topology.
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Builder-style setter for the aggregation policy.
    pub fn aggregation(mut self, aggregation: AggregationPolicy) -> Self {
        self.aggregation = aggregation;
        self
    }

    /// Builder-style setter for the race-detection knob.
    pub fn racecheck(mut self, racecheck: bool) -> Self {
        self.racecheck = racecheck;
        self
    }

    /// The network (topology, aggregation) pair of this configuration.
    pub fn network(&self) -> NetworkConfig {
        NetworkConfig::new(self.topology, self.aggregation)
    }

    /// The page layout implied by this configuration.
    pub fn layout(&self) -> PageLayout {
        PageLayout::new(self.page_size, self.shared_pages)
    }

    /// Consistency-unit size in bytes (page size for the dynamic policy).
    pub fn unit_bytes(&self) -> usize {
        self.unit.protection_pages() as usize * self.page_size
    }

    /// Validate the configuration, panicking with a descriptive message on
    /// nonsensical combinations.
    pub fn validate(&self) {
        assert!(self.nprocs >= 1, "need at least one processor");
        assert!(
            self.nprocs <= 1024,
            "simulated cluster limited to 1024 processors"
        );
        // Lock ids key the scheduler's `WaitKey::Lock(u32)`; a larger table
        // would let two ids share a wait key.
        assert!(
            self.max_locks <= u32::MAX as usize,
            "lock table limited to {} locks",
            u32::MAX
        );
        if let UnitPolicy::Static { pages } = self.unit {
            assert!(
                pages >= 1,
                "static consistency unit must be at least one page"
            );
        }
        if let UnitPolicy::Dynamic { max_group_pages } = self.unit {
            assert!(
                max_group_pages >= 1,
                "dynamic page groups must allow at least one page"
            );
        }
        let _ = self.layout(); // validates page size / page count
    }
}

impl Default for DsmConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_labels() {
        assert_eq!(UnitPolicy::Static { pages: 1 }.label(4096), "4K");
        assert_eq!(UnitPolicy::Static { pages: 2 }.label(4096), "8K");
        assert_eq!(UnitPolicy::Static { pages: 4 }.label(4096), "16K");
        assert_eq!(
            UnitPolicy::Dynamic { max_group_pages: 4 }.label(4096),
            "Dyn"
        );
    }

    #[test]
    fn static_unit_pages_are_aligned_groups() {
        let layout = PageLayout::new(4096, 10);
        let unit = UnitPolicy::Static { pages: 4 };
        assert_eq!(
            unit.unit_pages(PageId(5), &layout),
            vec![PageId(4), PageId(5), PageId(6), PageId(7)]
        );
        // The last unit is truncated at the end of the space.
        assert_eq!(
            unit.unit_pages(PageId(9), &layout),
            vec![PageId(8), PageId(9)]
        );
    }

    #[test]
    fn dynamic_unit_is_single_page() {
        let layout = PageLayout::new(4096, 10);
        let unit = UnitPolicy::Dynamic { max_group_pages: 8 };
        assert_eq!(unit.unit_pages(PageId(5), &layout), vec![PageId(5)]);
        assert_eq!(unit.protection_pages(), 1);
        assert!(unit.is_dynamic());
    }

    #[test]
    fn paper_default_is_valid() {
        let cfg = DsmConfig::paper_default();
        cfg.validate();
        assert_eq!(cfg.nprocs, 8);
        assert_eq!(cfg.unit_bytes(), 4096);
        assert_eq!(cfg.layout().page_size(), 4096);
    }

    #[test]
    fn sweep_spec_expands_in_deterministic_order() {
        let spec = SweepSpec::paper_units(8);
        spec.validate();
        let points = spec.points();
        let labels: Vec<&str> = points.iter().map(|p| p.label.as_str()).collect();
        assert_eq!(labels, vec!["4K", "8K", "16K", "Dyn"]);
        assert!(points.iter().all(|p| p.nprocs == 8));

        let ablation = SweepSpec::dyn_group_ablation(4).points();
        let labels: Vec<&str> = ablation.iter().map(|p| p.label.as_str()).collect();
        // The paper-default group size 4 keeps the plain "Dyn" label.
        assert_eq!(labels, vec!["Dyn2", "Dyn", "Dyn8", "Dyn16"]);

        let multi = SweepSpec {
            procs: vec![2, 4],
            units: vec![UnitPolicy::Static { pages: 1 }],
            protocols: vec![ProtocolMode::MultiWriter],
            networks: vec![NetworkConfig::default()],
            page_size: 4096,
            sched: SchedConfig::default(),
            racecheck: false,
        };
        assert_eq!(multi.points().len(), 2);
        assert_eq!(multi.points()[1].nprocs, 4);

        // Crossing both protocols doubles the grid, cell-for-cell.
        let both = multi
            .clone()
            .with_protocols(vec![ProtocolMode::MultiWriter, ProtocolMode::home_based()]);
        both.validate();
        let points = both.points();
        assert_eq!(points.len(), 4);
        assert_eq!(points[0].protocol, ProtocolMode::MultiWriter);
        assert_eq!(points[1].protocol, ProtocolMode::home_based());
        assert_eq!(points[0].label, points[1].label);
    }

    #[test]
    fn sweep_spec_json_roundtrip() {
        use serde::{FromJson, ToJson};
        let spec = SweepSpec {
            procs: vec![1, 8],
            units: vec![
                UnitPolicy::Static { pages: 2 },
                UnitPolicy::Dynamic { max_group_pages: 8 },
            ],
            protocols: vec![ProtocolMode::MultiWriter, ProtocolMode::home_based()],
            networks: vec![
                NetworkConfig::new(Topology::SharedBus, AggregationPolicy::Batched),
                NetworkConfig::new(Topology::Switched, AggregationPolicy::PerMessage),
            ],
            page_size: 4096,
            sched: SchedConfig {
                mode: ScheduleMode::Fifo,
                seed: 0xdead_beef,
            },
            racecheck: true,
        };
        let parsed =
            SweepSpec::from_json(&serde::json::parse(&spec.to_json().pretty()).unwrap()).unwrap();
        assert_eq!(parsed, spec);
        // Documents written while an `engine` axis existed still parse: the
        // key is ignored (engines never changed measurements).
        let with_engine = serde::json::parse(
            r#"{"procs":[1],"units":[{"kind":"static","pages":1}],"page_size":4096,
                "engine":"threaded"}"#,
        )
        .unwrap();
        assert_eq!(
            SweepSpec::from_json(&with_engine).unwrap(),
            SweepSpec::single(1, UnitPolicy::Static { pages: 1 })
        );

        // The default (ideal, per-message) network axis is omitted on emit
        // and restored on parse.
        let default_net = SweepSpec {
            networks: vec![NetworkConfig::default()],
            ..spec.clone()
        };
        let emitted = default_net.to_json().pretty();
        assert!(!emitted.contains("networks"));
        assert_eq!(
            SweepSpec::from_json(&serde::json::parse(&emitted).unwrap()).unwrap(),
            default_net
        );
        let bad_net = serde::json::parse(
            r#"{"procs":[1],"units":[{"kind":"static","pages":1}],"page_size":4096,
                "networks":[{"topology":"token-ring"}]}"#,
        )
        .unwrap();
        let err = SweepSpec::from_json(&bad_net).unwrap_err();
        assert_eq!(err.path, "networks[0].topology");

        let bad = serde::json::parse(r#"{"procs":[1],"units":[{"kind":"wat"}],"page_size":4096}"#)
            .unwrap();
        let err = SweepSpec::from_json(&bad).unwrap_err();
        assert_eq!(err.path, "units[0].kind");

        // Pre-scheduler documents (no "sched" field) parse to the default,
        // and pre-protocol documents (no "protocols" field) to multi-writer.
        let legacy = serde::json::parse(
            r#"{"procs":[1],"units":[{"kind":"static","pages":1}],"page_size":4096}"#,
        )
        .unwrap();
        let parsed = SweepSpec::from_json(&legacy).unwrap();
        assert_eq!(parsed.sched, SchedConfig::default());
        assert_eq!(parsed.protocols, vec![ProtocolMode::MultiWriter]);
        assert_eq!(parsed.networks, vec![NetworkConfig::default()]);
        assert!(!parsed.racecheck);

        // The racecheck knob is omitted when off and restored on parse.
        let checked = SweepSpec {
            racecheck: true,
            ..SweepSpec::paper_units(2)
        };
        let emitted = checked.to_json().pretty();
        assert!(emitted.contains("racecheck"));
        assert_eq!(
            SweepSpec::from_json(&serde::json::parse(&emitted).unwrap()).unwrap(),
            checked
        );
        assert!(!SweepSpec::paper_units(2)
            .to_json()
            .pretty()
            .contains("racecheck"));

        let bad_protocol = serde::json::parse(
            r#"{"procs":[1],"units":[{"kind":"static","pages":1}],"page_size":4096,
                "protocols":["token-ring"]}"#,
        )
        .unwrap();
        let err = SweepSpec::from_json(&bad_protocol).unwrap_err();
        assert_eq!(err.path, "protocols[0].protocol");

        let bad_mode = serde::json::parse(
            r#"{"procs":[1],"units":[{"kind":"static","pages":1}],"page_size":4096,
                "sched":{"mode":"random","seed":"00"}}"#,
        )
        .unwrap();
        let err = SweepSpec::from_json(&bad_mode).unwrap_err();
        assert_eq!(err.path, "sched.mode");
    }

    #[test]
    fn diff_timing_parses_and_defaults_to_lazy() {
        assert_eq!(DsmConfig::paper_default().diff_timing, DiffTiming::Lazy);
        assert_eq!("eager".parse(), Ok(DiffTiming::Eager));
        assert_eq!("lazy".parse(), Ok(DiffTiming::Lazy));
        assert!("sometimes".parse::<DiffTiming>().is_err());
        assert_eq!(DiffTiming::Eager.to_string(), "eager");
        assert_eq!(
            DsmConfig::paper_default()
                .diff_timing(DiffTiming::Eager)
                .diff_timing,
            DiffTiming::Eager
        );
    }

    #[test]
    fn large_clusters_validate_up_to_1024() {
        DsmConfig::with_procs(1024).validate();
        SweepSpec::paper_units(256).validate();
    }

    #[test]
    #[should_panic(expected = "limited to 1024 processors")]
    fn oversized_cluster_rejected() {
        DsmConfig::with_procs(1025).validate();
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    #[should_panic(expected = "lock table limited to 4294967295 locks")]
    fn oversized_lock_table_rejected() {
        DsmConfig::paper_default()
            .max_locks(u32::MAX as usize + 1)
            .validate();
    }

    #[test]
    fn lock_table_bound_is_inclusive() {
        DsmConfig::paper_default()
            .max_locks(u32::MAX as usize)
            .validate();
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_procs_rejected() {
        DsmConfig {
            nprocs: 0,
            ..DsmConfig::paper_default()
        }
        .validate();
    }
}
