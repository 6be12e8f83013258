//! DSM configuration: cluster geometry and the consistency-unit policy.

use tm_net::{AggregationPolicy, CostModel, Topology};
use tm_page::{PageId, PageLayout, PAGE_SIZE};
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

/// Compile-compat shim beside [`EngineKind`]: the frozen `benchmark/`
/// package still names `DiffTiming::default()` (for `tm_bench::Cell::new`,
/// [`DsmConfig::diff_timing`] and `IntervalLog::publish`).  Diffs are always
/// created lazily, TreadMarks' way — at the first request that needs them
/// (see DESIGN.md, "Lazy diff creation") — and nothing branches on this;
/// the next `benchmark` PR removes those call sites, then this enum.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum DiffTiming {
    /// The only timing: a diff is charged on the responder's serve path at
    /// its first request.
    #[default]
    Lazy,
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
    pub fn label(&self) -> String {
        match self {
            UnitPolicy::Static { pages } => {
                format!("{}K", *pages as usize * PAGE_SIZE / 1024)
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

/// Default pending-notice count above which a barrier triggers the GC
/// validation flush (see [`DsmConfig::gc_flush_pending_limit`]).
pub const DEFAULT_GC_FLUSH_PENDING_LIMIT: usize = 16_384;

/// Complete configuration of a DSM cluster.
#[derive(Debug, Clone)]
pub struct DsmConfig {
    /// Number of simulated processors (the cluster nodes).
    pub nprocs: usize,
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
    /// Check the run (off by default): the happens-before race detector and
    /// the flat-memory oracle observe it, races surface in
    /// `ClusterStats::races`, and a race-free run with a read that missed
    /// the latest write panics (`Dsm::run`).  Observation never changes a
    /// statistic; only the emitted documents gain `races` when it is on.
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
            // 64 MB of shared space.  Only a bound: a run sizes its page
            // tables by what the program allocated.
            shared_pages: 16 * 1024,
            unit: UnitPolicy::Static { pages: 1 },
            protocol: ProtocolMode::MultiWriter,
            cost: CostModel::pentium_ethernet_1997(),
            max_locks: 4096,
            sched: SchedConfig::default(),
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

    /// No-op kept, beside [`EngineKind`], for the frozen `benchmark/` package
    /// (see there).
    pub fn engine(self, _engine: EngineKind) -> Self {
        self
    }

    /// No-op kept for the frozen `benchmark/` package (see [`DiffTiming`]).
    pub fn diff_timing(self, _timing: DiffTiming) -> Self {
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

    /// The page layout implied by this configuration.
    pub fn layout(&self) -> PageLayout {
        PageLayout::new(PAGE_SIZE, self.shared_pages)
    }

    /// Validate the configuration: the first field whose value makes no
    /// sense, and why.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let fail = |field, reason: String| Err(ConfigError { field, reason });
        if self.nprocs < 1 {
            return fail("nprocs", "need at least one processor".into());
        }
        if self.nprocs > MAX_PROCS {
            return fail(
                "nprocs",
                format!("simulated cluster limited to {MAX_PROCS} processors"),
            );
        }
        // Lock ids key the scheduler's `WaitKey::Lock(u32)`; a larger table
        // would let two ids share a wait key.
        if self.max_locks > u32::MAX as usize {
            return fail(
                "max_locks",
                format!("lock table limited to {} locks", u32::MAX),
            );
        }
        match self.unit {
            UnitPolicy::Static { pages: 0 } => {
                return fail(
                    "unit",
                    "static consistency unit must be at least one page".into(),
                )
            }
            UnitPolicy::Dynamic { max_group_pages: 0 } => {
                return fail(
                    "unit",
                    "dynamic page groups must allow at least one page".into(),
                )
            }
            _ => {}
        }
        match PageLayout::try_new(self.shared_pages) {
            Ok(_) => Ok(()),
            Err(reason) => fail("shared_pages", reason),
        }
    }
}

/// Why [`DsmConfig::validate`] rejected a configuration.  Displays as
/// `field: reason`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// The [`DsmConfig`] field at fault.
    pub field: &'static str,
    /// What is wrong with its value.
    pub reason: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.field, self.reason)
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
        assert_eq!(UnitPolicy::Static { pages: 1 }.label(), "4K");
        assert_eq!(UnitPolicy::Static { pages: 2 }.label(), "8K");
        assert_eq!(UnitPolicy::Static { pages: 4 }.label(), "16K");
        // Only the paper's group size keeps the plain label.
        assert_eq!(UnitPolicy::Dynamic { max_group_pages: 4 }.label(), "Dyn");
        assert_eq!(UnitPolicy::Dynamic { max_group_pages: 8 }.label(), "Dyn8");
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
        assert_eq!(cfg.validate(), Ok(()));
        assert_eq!(cfg.nprocs, 8);
        assert_eq!(cfg.layout().total_bytes(), cfg.shared_pages as u64 * 4096);
    }

    #[test]
    fn large_clusters_validate_up_to_1024() {
        assert_eq!(DsmConfig::with_procs(MAX_PROCS).validate(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "nprocs: simulated cluster limited to 1024 processors")]
    fn oversized_cluster_rejected() {
        crate::Dsm::new(DsmConfig::with_procs(MAX_PROCS + 1));
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    #[should_panic(expected = "max_locks: lock table limited to 4294967295 locks")]
    fn oversized_lock_table_rejected() {
        crate::Dsm::new(DsmConfig::paper_default().max_locks(u32::MAX as usize + 1));
    }

    #[test]
    fn lock_table_bound_is_inclusive() {
        let cfg = DsmConfig::paper_default().max_locks(u32::MAX as usize);
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "nprocs: need at least one processor")]
    fn zero_procs_rejected() {
        crate::Dsm::new(DsmConfig {
            nprocs: 0,
            ..DsmConfig::paper_default()
        });
    }

    /// Every condition `validate` checks, at its boundary: the value just
    /// outside is rejected naming the field, the value just inside passes.
    #[test]
    fn validate_names_the_field_of_every_condition() {
        type Edit = fn(&mut DsmConfig);
        let cases: [(&str, &str, Edit, Edit); 6] = [
            ("nprocs", "at least one", |c| c.nprocs = 0, |c| c.nprocs = 1),
            (
                "nprocs",
                "limited to 1024",
                |c| c.nprocs = MAX_PROCS + 1,
                |c| c.nprocs = MAX_PROCS,
            ),
            (
                "max_locks",
                "lock table limited",
                |c| c.max_locks = u32::MAX as usize + 1,
                |c| c.max_locks = u32::MAX as usize,
            ),
            (
                "unit",
                "static consistency unit",
                |c| c.unit = UnitPolicy::Static { pages: 0 },
                |c| c.unit = UnitPolicy::Static { pages: 1 },
            ),
            (
                "unit",
                "dynamic page groups",
                |c| c.unit = UnitPolicy::Dynamic { max_group_pages: 0 },
                |c| c.unit = UnitPolicy::Dynamic { max_group_pages: 1 },
            ),
            (
                "shared_pages",
                "at least one page",
                |c| c.shared_pages = 0,
                |c| c.shared_pages = 1,
            ),
        ];
        for (field, reason, outside, inside) in cases {
            let mut cfg = DsmConfig::paper_default();
            outside(&mut cfg);
            let err = cfg.validate().unwrap_err();
            assert_eq!(err.field, field, "{err}");
            assert!(err.to_string().starts_with(&format!("{field}: ")), "{err}");
            assert!(err.reason.contains(reason), "{err}");
            inside(&mut cfg);
            assert_eq!(cfg.validate(), Ok(()), "{field} just inside its bound");
        }
    }
}
