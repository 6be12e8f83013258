//! Cluster construction, shared-memory allocation, and parallel execution.
//!
//! A [`Dsm`] value owns the configuration of a simulated cluster and the
//! allocator for its shared address space.  [`Dsm::run`] executes the
//! application body on every simulated processor, hands each a [`ProcCtx`],
//! waits for every processor to finish, and returns the per-processor
//! results together with the cluster-wide statistics the paper's figures are
//! derived from.
//!
//! Execution is **deterministic**: the processors run under the cooperative
//! turn-taking of [`tm_sched::Scheduler`] — exactly one runs at a time, and
//! every blocking point (lock acquire/release, barrier arrival, fault
//! service) hands the turn to the runnable processor with the smallest
//! `(logical clock, tie-break)` pair.  Every statistic of a run is therefore
//! a pure function of `(program, DsmConfig)` — including
//! [`DsmConfig::sched`]'s mode and seed, which select among legal
//! interleavings.
//!
//! Each simulated processor is a resumable state machine (the `async`
//! body's continuation), and one host thread resumes exactly the
//! scheduler's current pick until every rank has finished — no spawn cost
//! and no parked stacks, which is what makes 1024-processor clusters
//! practical.  Because a whole cluster lives on one thread, the protocol
//! state its processors share (`RunState`) is a single value reached
//! through `Rc` and `RefCell`: no host synchronization anywhere on the
//! simulation path.  (Host parallelism is `tm-bench`'s worker pool running
//! independent *cells*, each with its own [`Dsm`].)

use std::any::Any;
use std::cell::RefCell;
use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use tm_net::{ClusterStats, NetworkState, ProcStats};
use tm_page::{
    Align, GlobalAddr, HomeStore, Image, PageLayout, RegionAllocator, PAGE_SIZE, WORD_SIZE,
};
use tm_race::{FlatOracle, Observer, RaceDetector};

use crate::config::DsmConfig;
use crate::handle::{GArray, GMatrix, GScalar, SharedVal};
use crate::interval::IntervalLog;
use crate::proc::ProcCtx;
use crate::sync::GlobalSync;

/// The protocol state the processors of one run share, built by
/// [`Dsm::run`] and dropped when the run ends.  Every [`ProcCtx`] holds an
/// `Rc` of it; a `RefCell` borrow is taken for one protocol step and never
/// held across a park point, so the single resumed processor always finds
/// every cell free.
#[derive(Debug)]
pub(crate) struct RunState {
    /// Per-rank diff/interval store that *other* processors consult when
    /// they fault (served by the SIGIO handler on the real system).
    pub(crate) logs: Vec<RefCell<IntervalLog>>,
    /// Lock table, barrier, the deterministic scheduler, the observer.
    pub(crate) sync: GlobalSync,
    /// The master copies of the pages (each homed at `round_robin_home`);
    /// present exactly for home-based runs (multi-writer runs have no
    /// authoritative copy).
    pub(crate) home: Option<RefCell<HomeStore>>,
    /// Link-occupancy state of the run's interconnect.  Every run has one:
    /// the ideal default's owns no links, so it allocates nothing, queues
    /// nothing and reports no link statistics.
    pub(crate) net: RefCell<NetworkState>,
    /// The all-zero page image every rank's pages start on (see
    /// `PageStore::with_zero_image`).  One per run, not per rank: a
    /// 1 024-rank run would otherwise build 1 024 of them.  Every image of
    /// the run is built from it, so its pool is the run's.
    pub(crate) zero_image: Image,
}

impl RunState {
    /// The master copies of a home-based run.
    pub(crate) fn home(&self) -> &RefCell<HomeStore> {
        self.home
            .as_ref()
            .expect("home-based run has master copies")
    }
}

/// The result of one parallel run: per-processor return values (indexed by
/// rank) and the aggregated communication statistics.
#[derive(Debug)]
pub struct RunOutput<R> {
    /// One entry per processor, in rank order.
    pub results: Vec<R>,
    /// Cluster-wide statistics (exchanges, faults, control traffic, modeled
    /// execution time).
    pub stats: ClusterStats,
}

impl<R> RunOutput<R> {
    /// The paper's communication breakdown for this run.
    pub fn breakdown(&self) -> tm_net::CommBreakdown {
        self.stats.breakdown()
    }
}

/// A configured DSM cluster: shared-space allocator plus run launcher.
#[derive(Debug)]
pub struct Dsm {
    config: DsmConfig,
    allocator: RegionAllocator,
}

impl Dsm {
    /// Create a cluster with the given configuration.
    ///
    /// # Panics
    /// Panics, naming the field at fault, if the configuration is invalid
    /// (see [`DsmConfig::validate`], which callers handling input should
    /// consult first).
    pub fn new(config: DsmConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid DsmConfig: {e}");
        }
        let allocator = RegionAllocator::new(config.layout());
        Dsm { config, allocator }
    }

    /// The cluster configuration.
    pub fn config(&self) -> &DsmConfig {
        &self.config
    }

    /// Allocate `bytes` bytes of shared memory with the given alignment.
    pub fn alloc_bytes(&mut self, bytes: u64, align: Align) -> GlobalAddr {
        self.allocator
            .alloc(bytes, align)
            .expect("shared address space exhausted; raise DsmConfig::shared_pages")
    }

    /// Allocate a shared array of `len` elements of `T`.  Its base is a
    /// multiple of `T::BYTES` whatever `align` asks for, so no element
    /// straddles a page (see [`GArray::from_raw`]).
    pub fn alloc_array<T: SharedVal>(&mut self, len: usize, align: Align) -> GArray<T> {
        let align = Align::Bytes(align.bytes().max(T::BYTES));
        let base = self.alloc_bytes((len * T::BYTES) as u64, align);
        GArray::from_raw(base, len)
    }

    /// Allocate a shared row-major matrix of `rows × cols` elements of `T`,
    /// starting on a fresh page (the layout used by the grid applications).
    pub fn alloc_matrix<T: SharedVal>(&mut self, rows: usize, cols: usize) -> GMatrix<T> {
        let arr = self.alloc_array::<T>(rows * cols, Align::Page);
        GMatrix::from_array(arr, rows, cols)
    }

    /// Allocate a single shared scalar of `T`, placed as a one-element
    /// [`alloc_array`](Self::alloc_array).
    pub fn alloc_scalar<T: SharedVal>(&mut self, align: Align) -> GScalar<T> {
        GScalar::from_raw(self.alloc_array::<T>(1, align).base())
    }

    /// Run `body` on every simulated processor in parallel and collect the
    /// results and statistics.
    ///
    /// The body is an `async` function of the processor's [`ProcCtx`]; every
    /// shared access and synchronization operation is a potential park point
    /// (`.await`) where the deterministic scheduler may run another
    /// processor.
    ///
    /// Each run starts from a pristine shared space (all zero bytes) and
    /// fresh protocol state; allocations performed on this [`Dsm`] remain
    /// valid across runs (they are just address assignments).
    ///
    /// A [`DsmConfig::racecheck`] run is observed by the race detector and a
    /// [`FlatOracle`], and its race set lands in `stats.races`.
    ///
    /// # Panics
    /// If a racecheck run is race-free but a read did not return the latest
    /// write in host order, naming the first such read.
    pub fn run<R, F>(&self, body: F) -> RunOutput<R>
    where
        F: AsyncFn(&mut ProcCtx) -> R,
    {
        if !self.config.racecheck {
            return self.run_inner(None, body);
        }
        let layout = self.run_layout();
        let words = PAGE_SIZE / WORD_SIZE;
        let detector = RaceDetector::new(self.config.nprocs, layout.total_pages(), words);
        let oracle = FlatOracle::new(layout.total_bytes() as usize);
        let (mut out, (mut detector, oracle)) = self.run_observed((detector, oracle), body);
        out.stats.races = detector.take_races();
        if let Some(mismatch) = oracle.mismatch(&out.stats.races) {
            panic!("flat-memory check failed in a race-free run: {mismatch:?}");
        }
        out
    }

    /// [`Dsm::run`] watched by `observer`, which is handed back with the
    /// (identical) output.  `DsmConfig::racecheck` is not consulted.
    pub fn run_observed<O, R, F>(&self, observer: O, body: F) -> (RunOutput<R>, O)
    where
        O: Observer + 'static,
        F: AsyncFn(&mut ProcCtx) -> R,
    {
        let observer = Rc::new(RefCell::new(observer));
        let out = self.run_inner(Some(Rc::clone(&observer) as _), body);
        let observer = Rc::into_inner(observer).expect("the run state died with the run");
        (out, observer.into_inner())
    }

    /// The layout a run sizes all per-page state by: the allocator's
    /// high-water mark, not the configured address-space reservation.  A run
    /// can only touch pages it allocated, and the truncation (rounded to
    /// whole consistency units — see `PageLayout::truncated_to`) is
    /// bit-invisible to every statistic.  Without it, large clusters
    /// zero-fill hundreds of megabytes of tables for pages nobody owns.
    fn run_layout(&self) -> PageLayout {
        self.config
            .layout()
            .truncated_to(self.allocator.used(), self.config.unit.protection_pages())
    }

    fn run_inner<R, F>(&self, observer: Option<Rc<RefCell<dyn Observer>>>, body: F) -> RunOutput<R>
    where
        F: AsyncFn(&mut ProcCtx) -> R,
    {
        let nprocs = self.config.nprocs;
        let layout = self.run_layout();
        let mut sync = GlobalSync::new(nprocs, self.config.max_locks, self.config.sched);
        sync.observer = observer;
        let shared = Rc::new(RunState {
            logs: (0..nprocs)
                .map(|_| RefCell::new(IntervalLog::new()))
                .collect(),
            sync,
            home: self
                .config
                .protocol
                .is_home_based()
                .then(|| RefCell::new(HomeStore::new(layout))),
            net: RefCell::new(NetworkState::new(self.config.topology, nprocs)),
            zero_image: Image::zeroed(),
        });

        let continuations = (0..nprocs)
            .map(|rank| {
                let shared = Rc::clone(&shared);
                let config = &self.config;
                let body = &body;
                Box::pin(async move {
                    let mut ctx = ProcCtx::new(rank, config, layout, shared);
                    let result = body(&mut ctx).await;
                    (result, ctx.finish())
                }) as Continuation<'_, (R, ProcStats)>
            })
            .collect();
        let per_proc = drive(&shared.sync, continuations);
        // Every rank's store died with its continuation, and no diff ever
        // holds the zero image (a page that differs from zero shows an
        // image of its own), so the run holds it alone — and nothing wrote
        // it while it was shared.
        debug_assert!(
            !shared.zero_image.is_shared(),
            "the zero image outlived every store"
        );
        debug_assert!(
            shared.zero_image.iter().all(|&b| b == 0),
            "a write landed in the shared zero image"
        );

        let mut results = Vec::with_capacity(nprocs);
        let mut stats = ClusterStats {
            per_proc: Vec::with_capacity(nprocs),
            ..ClusterStats::default()
        };
        for (rank, (result, mut proc_stats)) in per_proc.into_iter().enumerate() {
            // Fold in the owner's shared-log counters.  They are folded
            // here, after every processor has finished, because serving and
            // retirement touch a processor's log after its own `finish()`
            // (e.g. rank 0's post-run verification reads lazily materialize
            // diffs in everyone else's logs).
            let log = shared.logs[rank].borrow();
            let c = log.counters();
            proc_stats.diffs_created += c.diffs_created_on_demand;
            proc_stats.diff_bytes_created += c.diff_bytes_created_on_demand;
            proc_stats.intervals_retired = c.intervals_retired;
            proc_stats.diffs_retired = c.diffs_retired;
            results.push(result);
            stats.per_proc.push(proc_stats);
        }
        stats.links = shared.net.borrow().link_stats();
        RunOutput { results, stats }
    }
}

/// One simulated processor between resumptions: the boxed continuation of
/// its `async` body.
pub(crate) type Continuation<'a, T> = Pin<Box<dyn Future<Output = T> + 'a>>;

/// The pick loop: resume whoever `sync`'s scheduler says is current until
/// every rank has finished or the scheduler aborts on a simulated deadlock,
/// and return the ranks' outputs in rank order.  Each resumption runs under
/// `catch_unwind`, so a panicking processor is retired like a finished one
/// (its continuation is dropped, its rank leaves the scheduler) and the
/// loop's own state stays intact — the unwind-safe step boundary.
///
/// # Panics
/// Re-raises the first failed rank's panic as `processor thread panicked`;
/// a deadlock no processor panicked over raises the scheduler's state dump.
pub(crate) fn drive<T>(sync: &GlobalSync, continuations: Vec<Continuation<'_, T>>) -> Vec<T> {
    let sched = sync.scheduler();
    let mut continuations: Vec<Option<Continuation<'_, T>>> =
        continuations.into_iter().map(Some).collect();
    type Outcome<T> = Result<T, Box<dyn Any + Send>>;
    let mut outcomes: Vec<Option<Outcome<T>>> = continuations.iter().map(|_| None).collect();
    let mut cx = Context::from_waker(Waker::noop());

    // A `Pending` step means the processor parked (and the park transition
    // already picked a successor); `Ready` or a panic retires the rank.
    while let Some(rank) = sched.current() {
        let fut = continuations[rank]
            .as_mut()
            .expect("current processor must have a live continuation");
        let output = match catch_unwind(AssertUnwindSafe(|| fut.as_mut().poll(&mut cx))) {
            Ok(Poll::Pending) => continue,
            Ok(Poll::Ready(output)) => Ok(output),
            Err(payload) => Err(payload),
        };
        continuations[rank] = None;
        // Retiring the last runnable processor while others stay blocked is
        // a simulated deadlock: the abort supersedes a result, but a body's
        // own panic is the root cause and wins over it.
        let retired = catch_unwind(AssertUnwindSafe(|| sched.finish(rank)));
        sync.report_decision();
        outcomes[rank] = Some(output.and_then(|output| retired.map(|()| output)));
    }

    // Surface failures in rank order: the first failed rank's payload.
    // (Ranks still parked at abort time have no outcome.)
    let abort = sched.abort_dump();
    if abort.is_some() || outcomes.iter().any(|o| matches!(o, Some(Err(_)))) {
        for outcome in &mut outcomes {
            if let Some(Err(payload)) = outcome.take_if(|o| o.is_err()) {
                let failed: Result<(), _> = Err(payload);
                failed.expect("processor thread panicked");
            }
        }
        // A deadlock no processor panicked over: raise the scheduler's
        // state dump directly so the diagnostics stay visible.
        panic!(
            "{}",
            abort.expect("run loop stopped with neither an abort nor a panic")
        );
    }

    outcomes
        .into_iter()
        .enumerate()
        .map(|(rank, o)| match o {
            Some(Ok(output)) => output,
            _ => unreachable!("processor {rank} never completed"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DsmConfig, UnitPolicy};
    use tm_net::CostModel;

    fn small_config(nprocs: usize) -> DsmConfig {
        DsmConfig {
            nprocs,
            shared_pages: 64,
            unit: UnitPolicy::Static { pages: 1 },
            protocol: crate::protocol::ProtocolMode::MultiWriter,
            cost: CostModel::pentium_ethernet_1997(),
            max_locks: 16,
            sched: tm_sched::SchedConfig::default(),
            gc_flush_pending_limit: crate::config::DEFAULT_GC_FLUSH_PENDING_LIMIT,
            topology: tm_net::Topology::default(),
            aggregation: tm_net::AggregationPolicy::default(),
            racecheck: false,
        }
    }

    #[test]
    fn single_processor_run_has_no_communication() {
        let mut dsm = Dsm::new(small_config(1));
        let arr = dsm.alloc_array::<u64>(100, Align::Page);
        let out = dsm.run(async |ctx| {
            for i in 0..100 {
                arr.set(ctx, i, (i * i) as u64).await;
            }
            let mut sum = 0u64;
            for i in 0..100 {
                sum += arr.get(ctx, i).await;
            }
            sum
        });
        let expected: u64 = (0..100u64).map(|i| i * i).sum();
        assert_eq!(out.results, vec![expected]);
        let b = out.breakdown();
        assert_eq!(b.total_messages(), 0);
        assert_eq!(b.total_payload(), 0);
        assert_eq!(b.faults, 0);
    }

    #[test]
    fn producer_consumer_over_a_barrier() {
        let mut dsm = Dsm::new(small_config(2));
        let arr = dsm.alloc_array::<u32>(1024, Align::Page);
        let out = dsm.run(async |ctx| {
            if ctx.rank() == 0 {
                let values: Vec<u32> = (0..1024u32).collect();
                arr.write_slice(ctx, 0, &values).await;
            }
            ctx.barrier().await;
            if ctx.rank() == 1 {
                let got = arr.read_vec(ctx, 0, 1024).await;
                got.iter().map(|&v| v as u64).sum::<u64>()
            } else {
                0
            }
        });
        assert_eq!(out.results[1], (0..1024u64).sum::<u64>());
        let b = out.breakdown();
        // The consumer faulted on the page and fetched a useful diff.
        assert!(b.faults >= 1);
        assert!(b.useful_data > 0);
        assert_eq!(b.useless_messages, 0);
    }

    #[test]
    fn lock_protected_counter_is_coherent() {
        let mut dsm = Dsm::new(small_config(4));
        let counter = dsm.alloc_scalar::<u64>(Align::Page);
        let out = dsm.run(async |ctx| {
            for _ in 0..25 {
                ctx.acquire(0).await;
                let v = counter.get(ctx).await;
                counter.set(ctx, v + 1).await;
                ctx.release(0).await;
            }
            ctx.barrier().await;
            counter.get(ctx).await
        });
        for r in out.results {
            assert_eq!(r, 100);
        }
    }

    #[test]
    fn a_huge_lock_table_costs_nothing_and_changes_nothing() {
        // Two counters under two locks, the second lock's id chosen by the
        // caller.  Nothing is sized by `max_locks`, so a 2^30-lock table
        // runs like the 16-lock one — also when the program uses its very
        // last id (which has the same manager, `id % nprocs`, as 15).
        let run = |max_locks: usize, second_lock: usize| {
            let mut dsm = Dsm::new(DsmConfig {
                max_locks,
                ..small_config(4)
            });
            let counters = dsm.alloc_array::<u64>(1024, Align::Page);
            let out = dsm.run(async |ctx| {
                for _ in 0..5 {
                    for (slot, lock) in [(0, 0), (512, second_lock)] {
                        ctx.acquire(lock).await;
                        let v = counters.get(ctx, slot).await;
                        counters.set(ctx, slot, v + 1).await;
                        ctx.release(lock).await;
                    }
                }
                ctx.barrier().await;
                (counters.get(ctx, 0).await, counters.get(ctx, 512).await)
            });
            assert_eq!(out.results, vec![(20, 20); 4]);
            out.stats
        };
        let default = run(16, 15);
        assert!(default.breakdown().total_messages() > 0);
        assert_eq!(run(1 << 30, 15), default);
        assert_eq!(run(1 << 30, (1 << 30) - 1), default);
    }

    /// Counts what an observer hears.
    #[derive(Debug, Default)]
    struct Tally {
        reads: usize,
        writes: usize,
        syncs: usize,
        decisions: Vec<u64>,
    }

    impl Observer for Tally {
        fn access(&mut self, _: u32, _: u64, _: &[u8], kind: tm_race::AccessKind, _: bool) {
            match kind {
                tm_race::AccessKind::Read => self.reads += 1,
                tm_race::AccessKind::Write => self.writes += 1,
            }
        }

        fn sync(&mut self, _: u32, _: tm_race::SyncEvent) {
            self.syncs += 1;
        }

        fn decision(&mut self, index: u64, _: u32) {
            self.decisions.push(index);
        }
    }

    #[test]
    fn an_observer_hears_every_event_and_changes_nothing() {
        let mut dsm = Dsm::new(small_config(4));
        let counter = dsm.alloc_scalar::<u64>(Align::Page);
        let body = async |ctx: &mut ProcCtx| {
            for _ in 0..5 {
                ctx.acquire(0).await;
                let v = counter.get(ctx).await;
                counter.set(ctx, v + 1).await;
                ctx.release(0).await;
            }
            ctx.barrier().await;
            counter.get(ctx).await
        };
        let plain = dsm.run(body);
        let (observed, tally) = dsm.run_observed(Tally::default(), body);
        assert_eq!(observed.results, plain.results);
        assert_eq!(observed.stats, plain.stats);
        assert_eq!((tally.reads, tally.writes, tally.syncs), (24, 20, 48));
        // Every decision after the constructor's, in order, none skipped.
        let n = tally.decisions.len() as u64;
        assert!(n > 0 && tally.decisions == (2..n + 2).collect::<Vec<_>>());
    }

    /// The checked run's flat memory has teeth.  Rank 0 writes inside a
    /// benign-race scope, which the detector does not see but the oracle
    /// applies; rank 1 then reads the word without synchronizing and
    /// without the annotation.  The run is race-free to the detector, LRC
    /// rightly leaves rank 1 its stale zero, and the oracle names the read.
    #[test]
    #[should_panic(expected = "flat-memory check failed in a race-free run: \
                               Mismatch { rank: 1, offset: 0, expected: [42, 0")]
    fn a_race_free_checked_run_panics_on_a_stale_read() {
        let mut dsm = Dsm::new(DsmConfig {
            racecheck: true,
            sched: tm_sched::SchedConfig::fifo(),
            ..small_config(2)
        });
        let x = dsm.alloc_scalar::<u64>(Align::Page);
        dsm.run(async |ctx| {
            if ctx.rank() == 0 {
                ctx.begin_benign_race();
                x.set(ctx, 42).await;
                ctx.end_benign_race();
            } else {
                x.get(ctx).await;
            }
            ctx.barrier().await;
        });
    }

    #[test]
    fn multiple_writers_to_one_page_merge_correctly() {
        // Two processors write disjoint halves of the same page; after the
        // barrier both see both halves — the multiple-writer protocol at
        // work.
        let mut dsm = Dsm::new(small_config(2));
        let arr = dsm.alloc_array::<u32>(1024, Align::Page);
        let out = dsm.run(async |ctx| {
            let me = ctx.rank();
            let half = 512usize;
            let values: Vec<u32> = (0..half as u32).map(|i| i + 1000 * me as u32).collect();
            arr.write_slice(ctx, me * half, &values).await;
            ctx.barrier().await;
            let all = arr.read_vec(ctx, 0, 1024).await;
            (all[0], all[512])
        });
        assert_eq!(out.results[0], (0, 1000));
        assert_eq!(out.results[1], (0, 1000));
    }

    #[test]
    fn contended_runs_reproduce_per_seed_and_vary_across_seeds() {
        use tm_sched::SchedConfig;
        // A lock-contended workload whose *message counts* depend on the
        // hand-off order: under the deterministic scheduler the full stats
        // must reproduce exactly per seed.
        let run = |sched: SchedConfig| {
            let mut dsm = Dsm::new(DsmConfig {
                sched,
                ..small_config(4)
            });
            let counter = dsm.alloc_scalar::<u64>(Align::Page);
            let out = dsm.run(async |ctx| {
                for _ in 0..10 {
                    ctx.acquire(0).await;
                    let v = counter.get(ctx).await;
                    counter.set(ctx, v + 1).await;
                    ctx.release(0).await;
                }
                ctx.barrier().await;
                counter.get(ctx).await
            });
            assert_eq!(out.results, vec![40, 40, 40, 40]);
            out.stats
        };
        for sched in [
            SchedConfig::fifo(),
            SchedConfig::seeded(0),
            SchedConfig::seeded(17),
        ] {
            let a = run(sched);
            let b = run(sched);
            assert_eq!(
                a.breakdown(),
                b.breakdown(),
                "{sched:?} must reproduce bit-identically"
            );
            assert_eq!(a.exec_time_ns(), b.exec_time_ns());
        }
    }

    #[test]
    fn home_based_runs_compute_the_same_results_with_different_traffic() {
        use crate::protocol::ProtocolMode;
        // The multiple-writers-to-one-page scenario under both protocols:
        // the computed values must be identical, but the home-based run
        // replaces diff exchanges with home updates and whole-page fetches.
        let run = |protocol: ProtocolMode| {
            let mut dsm = Dsm::new(DsmConfig {
                protocol,
                ..small_config(2)
            });
            let arr = dsm.alloc_array::<u32>(1024, Align::Page);
            let out = dsm.run(async |ctx| {
                let me = ctx.rank();
                let half = 512usize;
                let values: Vec<u32> = (0..half as u32).map(|i| i + 1000 * me as u32).collect();
                arr.write_slice(ctx, me * half, &values).await;
                ctx.barrier().await;
                let all = arr.read_vec(ctx, 0, 1024).await;
                (all[0], all[511], all[512], all[1023])
            });
            out
        };
        let mw = run(ProtocolMode::MultiWriter);
        let hb = run(ProtocolMode::home_based());
        assert_eq!(mw.results, hb.results, "protocols must agree on results");

        let mwb = mw.breakdown();
        let hbb = hb.breakdown();
        assert_eq!(mwb.home_updates, 0);
        assert_eq!(mwb.page_fetches, 0);
        // Rank 1 is not the home of the (page-0-resident) array page: its
        // close flushed an update, and its post-barrier fault fetched the
        // whole page; rank 0 (the home) refreshed locally without traffic.
        assert!(hbb.home_updates >= 1, "{hbb:?}");
        assert!(hbb.page_fetches >= 1, "{hbb:?}");
        // A whole-page fetch delivers the full page; the words rank 1 wrote
        // itself come back unread-before-overwritten or plain redundant, so
        // home-based moves more (partly useless) data than multi-writer.
        assert!(hbb.total_payload() > mwb.total_payload());
        assert_ne!(
            mwb.total_messages(),
            hbb.total_messages(),
            "the protocols must provably diverge in message counts"
        );
    }

    /// Every page written by every rank for two rounds, so that under the
    /// home-based protocol one interval close flushes to several homes (a
    /// real batch) and every fault contacts several responders.  `None`
    /// leaves the network unnamed — the default configuration.
    fn stats_on(
        protocol: crate::protocol::ProtocolMode,
        network: Option<tm_net::NetworkConfig>,
    ) -> ClusterStats {
        let mut config = DsmConfig {
            protocol,
            ..small_config(4)
        };
        if let Some(network) = network {
            config.topology = network.topology;
            config.aggregation = network.aggregation;
        }
        let mut dsm = Dsm::new(config);
        let arr = dsm.alloc_array::<u64>(8 * 512, Align::Page);
        let out = dsm.run(async |ctx| {
            let me = ctx.rank();
            let mut sum = 0u64;
            for round in 1..=2u64 {
                for page in 0..8 {
                    for i in 0..64 {
                        let v = round * (me * 64 + i) as u64;
                        arr.set(ctx, page * 512 + me * 64 + i, v).await;
                    }
                }
                ctx.barrier().await;
                sum += arr.read_vec(ctx, 0, arr.len()).await.iter().sum::<u64>();
                ctx.barrier().await;
            }
            sum
        });
        assert!(out.results.iter().all(|&s| s == out.results[0] && s > 0));
        out.stats
    }

    /// The ideal interconnect is the link model with no links: naming it
    /// changes nothing, it records no link, and batching — which needs a
    /// wire — changes nothing on it, while a real wire moves time and only
    /// time.  The `Dsm`-level twin of `tests/network_differential.rs`'s
    /// application-level pins.
    fn assert_ideal_is_absence(protocol: crate::protocol::ProtocolMode) {
        use tm_net::{AggregationPolicy::*, NetworkConfig, Topology::*};
        let default = stats_on(protocol, None);
        assert!(default.links.is_empty());
        assert!(default.breakdown().total_messages() > 0);
        for aggregation in [PerMessage, Batched] {
            assert_eq!(
                stats_on(protocol, Some(NetworkConfig::new(Ideal, aggregation))),
                default,
                "ideal + {aggregation} must be the default run"
            );
        }
        let bus = stats_on(protocol, Some(NetworkConfig::new(SharedBus, PerMessage)));
        assert_eq!(bus.links.len(), 1);
        assert_eq!(
            bus.breakdown().total_messages(),
            default.breakdown().total_messages()
        );
        assert!(bus.exec_time_ns() > default.exec_time_ns());
    }

    #[test]
    fn multi_writer_runs_on_the_ideal_network_by_default() {
        assert_ideal_is_absence(crate::protocol::ProtocolMode::MultiWriter);
    }

    #[test]
    fn home_based_runs_on_the_ideal_network_by_default() {
        use tm_net::{AggregationPolicy::*, NetworkConfig, Topology::SharedBus};
        let protocol = crate::protocol::ProtocolMode::home_based();
        assert_ideal_is_absence(protocol);
        // Where there is a wire, batching this workload's multi-home
        // flushes does move the modeled time.
        assert_ne!(
            stats_on(protocol, Some(NetworkConfig::new(SharedBus, Batched))).exec_time_ns(),
            stats_on(protocol, Some(NetworkConfig::new(SharedBus, PerMessage))).exec_time_ns()
        );
    }

    #[test]
    #[should_panic(expected = "processor thread panicked")]
    fn panicking_processor_aborts_the_run_instead_of_hanging() {
        // Rank 1 panics before its barrier; the remaining processors block
        // there forever. The scheduler must abort the whole cluster so the
        // failure propagates instead of leaving the survivors parked.
        let dsm = Dsm::new(small_config(3));
        dsm.run(async |ctx| {
            if ctx.rank() == 1 {
                panic!("application failure on rank 1");
            }
            ctx.barrier().await;
        });
    }

    #[test]
    #[should_panic(expected = "simulated deadlock: no runnable processor")]
    fn simulated_deadlock_raises_the_scheduler_state_dump() {
        // Two processors take two locks in opposite order and park on each
        // other: nobody panics, nobody is runnable — the run loop must raise
        // the scheduler's state dump instead of spinning or returning.
        let dsm = Dsm::new(small_config(2));
        dsm.run(async |ctx| {
            let me = ctx.rank();
            ctx.acquire(me).await;
            ctx.barrier().await;
            ctx.acquire(1 - me).await;
        });
    }

    #[test]
    fn event_engine_survives_a_panic_without_corrupting_state() {
        // A panicking run must leave the process able to start a fresh run
        // immediately — the catch_unwind step boundary may not poison any
        // state that outlives the run.
        let result = catch_unwind(AssertUnwindSafe(|| {
            let dsm = Dsm::new(small_config(2));
            dsm.run(async |ctx| {
                if ctx.rank() == 0 {
                    panic!("deliberate failure");
                }
                ctx.barrier().await;
            });
        }));
        assert!(result.is_err(), "the panic must propagate");

        let mut dsm = Dsm::new(small_config(2));
        let arr = dsm.alloc_array::<u64>(8, Align::Page);
        let out = dsm.run(async |ctx| {
            if ctx.rank() == 0 {
                arr.set(ctx, 0, 7).await;
            }
            ctx.barrier().await;
            arr.get(ctx, 0).await
        });
        assert_eq!(out.results, vec![7, 7]);
    }

    #[test]
    fn allocations_do_not_overlap_and_persist_across_runs() {
        let mut dsm = Dsm::new(small_config(2));
        let a = dsm.alloc_array::<u64>(10, Align::Page);
        let b = dsm.alloc_array::<u64>(10, Align::Word);
        assert!(b.base().offset() >= a.base().offset() + 80);

        let first = dsm.run(async |ctx| {
            if ctx.rank() == 0 {
                a.set(ctx, 0, 42).await;
            }
            ctx.barrier().await;
            a.get(ctx, 0).await
        });
        assert_eq!(first.results, vec![42, 42]);
        // A second run starts from a zeroed shared space.
        let second = dsm.run(async |ctx| a.get(ctx, 0).await);
        assert_eq!(second.results, vec![0, 0]);
    }
}
