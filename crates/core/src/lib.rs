//! # tdsm-core — a TreadMarks-style software DSM in Rust
//!
//! `tdsm-core` reproduces the software distributed shared memory system that
//! the PPoPP'97 paper *"Tradeoffs Between False Sharing and Aggregation in
//! Software Distributed Shared Memory"* (Amza, Cox, Rajamani, Zwaenepoel)
//! builds its study on, together with the paper's two contributions:
//!
//! * **static aggregation** — consistency units of one, two or four hardware
//!   pages ([`UnitPolicy::Static`]), and
//! * **dynamic aggregation** — the page-group algorithm of §4
//!   ([`UnitPolicy::Dynamic`]),
//!
//! on top of lazy release consistency with a choice of write protocol
//! ([`ProtocolMode`]): TreadMarks' multiple-writer (twin/diff) organization,
//! or a home-based single-writer organization that eliminates twinning on
//! the home at the price of re-exposing false sharing as whole-page
//! traffic.  Every run produces the instrumentation the paper's evaluation
//! is built from: useful/useless messages, useful/useless/piggybacked data,
//! and the false-sharing signature.
//!
//! ## Quick example
//!
//! ```
//! use tdsm_core::{Align, Dsm, DsmConfig, UnitPolicy};
//!
//! let mut dsm = Dsm::new(DsmConfig::with_procs(4).shared_pages(64));
//! let grid = dsm.alloc_array::<f64>(1024, Align::Page);
//!
//! let out = dsm.run(async |ctx| {
//!     let me = ctx.rank();
//!     let chunk = grid.len() / ctx.nprocs();
//!     for i in (me * chunk)..((me + 1) * chunk) {
//!         grid.set(ctx, i, i as f64).await;
//!     }
//!     ctx.barrier().await;
//!     grid.get(ctx, 0).await + grid.get(ctx, grid.len() - 1).await
//! });
//!
//! assert_eq!(out.results[0], 1023.0);
//! let breakdown = out.breakdown();
//! assert!(breakdown.total_messages() > 0);
//! ```

// The two foundational crates (tdsm-core, tm-page) hard-enforce rustdoc
// coverage; the doc build itself is kept warning-clean by CI
// (RUSTDOCFLAGS="-D warnings").
#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod aggregation;
pub mod cluster;
pub mod config;
pub mod fasthash;
pub mod handle;
pub mod interval;
pub mod proc;
pub mod protocol;
pub mod sync;
pub mod vc;

pub use aggregation::DynamicAggregator;
pub use cluster::{Dsm, RunOutput};
pub use config::{DiffTiming, DsmConfig, EngineKind, UnitPolicy, MAX_PROCS};
pub use handle::{GArray, GMatrix, GScalar, SharedVal};
pub use interval::{
    FetchedDiff, IntervalId, IntervalLog, IntervalRecord, LogCounters, NOTICE_WIRE_BYTES,
};
pub use proc::ProcCtx;
pub use protocol::{round_robin_home, HomeAssign, HomeDirectory, ProtocolMode};
pub use sync::{gc_thresholds, BarrierEpoch, CentralBarrier, GlobalLock, GlobalSync, LockRelease};
pub use vc::{VcOrder, VectorClock};

// Re-export the pieces of the substrate crates that appear in this crate's
// public API, so applications only need one dependency.
pub use tm_net::{
    AggregationPolicy, ClusterStats, CommBreakdown, CostModel, GcCounters, LinkStats,
    NetworkConfig, NetworkState, ProcStats, SignatureHistogram, Topology,
};
pub use tm_page::{Align, Diff, GlobalAddr, HomeStore, PageId, PageLayout};
pub use tm_race::{AccessKind, RaceDetector, RaceRecord};
pub use tm_sched::{SchedConfig, ScheduleMode, Scheduler};
