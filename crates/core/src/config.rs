//! DSM configuration: cluster geometry and the consistency-unit policy.

use serde::json::Value;
use serde::{field_u64, FromJson, JsonSchemaError, ToJson};
use tm_net::{AggregationPolicy, CostModel, NetworkConfig, Topology};
use tm_page::{PageId, PageLayout};
use tm_sched::SchedConfig;

use crate::protocol::ProtocolMode;

/// Compile-compat shim for the frozen `benchmark/` package, which still
/// passes `EngineKind::default()` to `tm_bench::Cell::new` and
/// [`DsmConfig::engine`].  There is one execution substrate and nothing may
/// branch on this; the next `benchmark` PR removes those call sites, then
/// this enum and that method.
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
    /// Short label the figures print ("4K", "8K", "16K", "Dyn").  Dynamic
    /// policies other than the paper's group size of 4 carry their size
    /// ("Dyn8"), so the points of the group-size ablation stay
    /// distinguishable.
    pub fn label(&self, page_size: usize) -> String {
        match self {
            UnitPolicy::Static { pages } => {
                format!("{}K", *pages as usize * page_size / 1024)
            }
            UnitPolicy::Dynamic { max_group_pages: 4 } => "Dyn".to_string(),
            UnitPolicy::Dynamic { max_group_pages } => format!("Dyn{max_group_pages}"),
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
        // The bounds `DsmConfig::validate` asserts, as a schema error: a
        // document names a unit the simulator accepts, or does not parse.
        let pages = |field: &str| {
            u32::try_from(field_u64(v, field)?)
                .ok()
                .filter(|&n| n >= 1)
                .ok_or_else(|| JsonSchemaError::new(field, "integer in 1..=4294967295"))
        };
        match v.get("kind").and_then(|k| k.as_str()) {
            Some("static") => Ok(UnitPolicy::Static {
                pages: pages("pages")?,
            }),
            Some("dynamic") => Ok(UnitPolicy::Dynamic {
                max_group_pages: pages("max_group_pages")?,
            }),
            _ => Err(JsonSchemaError::new("kind", "\"static\" or \"dynamic\"")),
        }
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

/// The largest simulated cluster [`DsmConfig::validate`] accepts; every
/// entry point that takes a processor count (the command line, a result
/// document) checks against it.
pub const MAX_PROCS: usize = 1024;

impl DsmConfig {
    /// The paper's base configuration: 8 processors, 4 KB pages, the page as
    /// the consistency unit, and the Pentium/100 Mbps cost model.
    pub fn paper_default() -> Self {
        DsmConfig {
            nprocs: 8,
            page_size: 4096,
            // 64 MB of shared space.  Only a bound: a run sizes its page
            // tables by what the program allocated.
            shared_pages: 16 * 1024,
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

    /// No-op kept, beside [`EngineKind`], for the frozen `benchmark/` package
    /// (see there).
    pub fn engine(self, _engine: EngineKind) -> Self {
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

    /// Validate the configuration, panicking with a descriptive message on
    /// nonsensical combinations.
    pub fn validate(&self) {
        assert!(self.nprocs >= 1, "need at least one processor");
        assert!(
            self.nprocs <= MAX_PROCS,
            "simulated cluster limited to {MAX_PROCS} processors"
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
        // Only the paper's group size keeps the plain label.
        assert_eq!(
            UnitPolicy::Dynamic { max_group_pages: 4 }.label(4096),
            "Dyn"
        );
        assert_eq!(
            UnitPolicy::Dynamic { max_group_pages: 8 }.label(4096),
            "Dyn8"
        );
    }

    #[test]
    fn unit_policy_json_rejects_what_validate_rejects() {
        let parse = |text: &str| UnitPolicy::from_json(&serde::json::parse(text).unwrap());
        for unit in [
            UnitPolicy::Static { pages: 1 },
            UnitPolicy::Static { pages: u32::MAX },
            UnitPolicy::Dynamic {
                max_group_pages: 16,
            },
        ] {
            assert_eq!(parse(&unit.to_json().pretty()), Ok(unit));
        }
        // 2^32 + 1 used to be read as one page, and 0 to panic in `validate`.
        for (text, field) in [
            (r#"{"kind":"static","pages":4294967297}"#, "pages"),
            (r#"{"kind":"static","pages":0}"#, "pages"),
            (
                r#"{"kind":"dynamic","max_group_pages":0}"#,
                "max_group_pages",
            ),
            (
                r#"{"kind":"dynamic","max_group_pages":4294967296}"#,
                "max_group_pages",
            ),
            (r#"{"kind":"static"}"#, "pages"),
        ] {
            assert_eq!(parse(text).unwrap_err().path, field, "{text}");
        }
    }

    #[test]
    fn static_unit_pages_are_aligned_groups() {
        let layout = PageLayout::new(4096, 10);
        let unit = UnitPolicy::Static { pages: 4 };
        assert_eq!(unit.unit_range(PageId(5), &layout), 4..8);
        // The last unit is truncated at the end of the space.
        assert_eq!(unit.unit_range(PageId(9), &layout), 8..10);
    }

    #[test]
    fn dynamic_unit_is_single_page() {
        let layout = PageLayout::new(4096, 10);
        let unit = UnitPolicy::Dynamic { max_group_pages: 8 };
        assert_eq!(unit.unit_range(PageId(5), &layout), 5..6);
        assert_eq!(unit.protection_pages(), 1);
    }

    #[test]
    fn paper_default_is_valid() {
        let cfg = DsmConfig::paper_default();
        cfg.validate();
        assert_eq!(cfg.nprocs, 8);
        assert_eq!(cfg.layout().page_size(), 4096);
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
        DsmConfig::with_procs(MAX_PROCS).validate();
    }

    #[test]
    #[should_panic(expected = "limited to 1024 processors")]
    fn oversized_cluster_rejected() {
        DsmConfig::with_procs(MAX_PROCS + 1).validate();
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
