//! Synchronization substrate: distributed locks and the centralized barrier.
//!
//! TreadMarks provides exactly two synchronization primitives — locks and
//! barriers — and lazy release consistency piggybacks its write notices on
//! them.  Every lock and barrier here is a plain state machine that never
//! blocks the host: waiting means suspending at a [`TurnWait`] park point
//! after telling the cluster's [`tm_sched::Scheduler`], which serializes the
//! simulated processors under cooperative turn-taking ordered by
//! `(logical clock, tie-break)`.  Who acquires a contended lock next is
//! therefore a pure function of the run's configuration and seed.  The
//! *consistency information* (vector clock of the last release) and the
//! *modeled time* of each operation travel alongside.
//!
//! One host thread runs a whole cluster, so [`GlobalSync`] shares its lock
//! table and barrier through `RefCell`s; no borrow is ever held across a
//! park point.

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use tm_race::Observer;
use tm_sched::{SchedConfig, Scheduler, WaitKey};

use crate::fasthash::FastHashMap;
use crate::vc::VectorClock;

/// What the last release of a lock tells the next acquirer, besides its
/// vector time (which [`GlobalLock::try_acquire`] copies into the acquirer's
/// own clock buffer).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LockRelease {
    /// Processor that last released the lock, or `None` if the lock has
    /// never been released (first acquisition is granted by the manager).
    pub releaser: Option<u32>,
    /// Modeled time (ns) at which the release happened; the acquirer cannot
    /// be granted the lock before this.
    pub clock_ns: u64,
}

/// One global application lock (TreadMarks lock id).
///
/// The lock itself never blocks: [`try_acquire`](Self::try_acquire) either
/// takes it or reports it held, and [`GlobalSync::acquire_lock`] parks the
/// caller on the scheduler until a release wakes it.
#[derive(Debug, Default)]
pub struct GlobalLock {
    held: bool,
    last: LockRelease,
    /// Vector time of the last release.  A lock that was never released
    /// owns no clock (its vector time is zero by construction); the first
    /// release sizes this buffer and every later one overwrites it in place.
    vc: VectorClock,
}

impl GlobalLock {
    /// Create a free, never-released lock.  Allocates nothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take the lock if it is free, returning the last release (the grant)
    /// and, when there was one (`releaser` is `Some`), copying its vector
    /// time — the grant's consistency payload — into `vc`.  `None` if the
    /// lock is held.
    pub fn try_acquire(&mut self, vc: &mut VectorClock) -> Option<LockRelease> {
        if self.held {
            return None;
        }
        self.held = true;
        if self.last.releaser.is_some() {
            vc.copy_from(&self.vc);
        }
        Some(self.last)
    }

    /// Release the lock, publishing the releaser's identity, vector time and
    /// modeled release time for the next acquirer.
    pub fn release(&mut self, releaser: u32, vc: &VectorClock, clock_ns: u64) {
        debug_assert!(self.held, "release of a lock that is not held");
        self.held = false;
        self.last = LockRelease {
            releaser: Some(releaser),
            clock_ns,
        };
        self.vc.copy_from(vc);
    }
}

/// Everything a processor learns when it departs from a barrier episode:
/// the common modeled departure time and a consistent snapshot of how many
/// intervals every processor had published when it arrived.  The snapshot
/// bounds the write notices incorporated at this barrier, so that a fast
/// processor racing ahead into its next interval cannot leak "future"
/// notices into the current episode.
#[derive(Debug, Clone)]
pub struct BarrierEpoch {
    /// Modeled time at which every processor leaves the barrier.
    pub depart_clock_ns: u64,
    /// Per-processor count of published intervals at arrival.
    pub published_intervals: Vec<u32>,
    /// The processors whose published count rose since the previous episode,
    /// ascending — the only writers a departing processor can have notices
    /// to incorporate from.  Every processor left the previous episode with
    /// `vc[q] >= previous published_intervals[q]` and clocks only grow, so
    /// for every `q` not listed its clock already covers this snapshot.
    pub changed_writers: Vec<u32>,
    /// Per-processor garbage-collection watermark: processor `p` may retire
    /// every interval of its own log with sequence number `<=
    /// retire_below[p]` once it departs.  Computed by [`gc_thresholds`] from
    /// the previous episode's coverage and this episode's pending-notice
    /// floors.
    pub retire_below: Vec<u32>,
}

/// Compute the per-writer interval-GC watermarks sealed into a barrier
/// episode.
///
/// An interval `(p, seq)` is retirable iff
///
/// 1. **covered**: every processor's vector clock covers it.  Everything
///    published by the *previous* barrier episode qualifies — departing that
///    episode merged its snapshot into every clock — so
///    `prev_published[p]` is a sound coverage bound; and
/// 2. **applied**: no processor still holds a pending (incorporated but not
///    yet fetched) write notice for it.  `pending_floor[p]` is the smallest
///    sequence number of `p`'s intervals still pending at *any* arriver
///    (`u32::MAX` when none): everything strictly below it has been applied
///    everywhere it was ever needed.
///
/// Coverage by all clocks also guarantees no *future* pending entry at or
/// below the watermark can appear: write notices only travel to processors
/// whose clock does not cover them yet.
pub fn gc_thresholds(prev_published: &[u32], pending_floor: &[u32]) -> Vec<u32> {
    debug_assert_eq!(prev_published.len(), pending_floor.len());
    prev_published
        .iter()
        .zip(pending_floor)
        .map(|(&covered, &floor)| covered.min(floor.saturating_sub(1)))
        .collect()
}

/// The centralized barrier (managed by processor 0 in TreadMarks).
///
/// Besides gating every processor until all have arrived (the parking is
/// done by the scheduler, see [`GlobalSync::barrier_arrive`]), the barrier
/// computes the modeled departure time: the latest arrival's logical clock
/// plus the calibrated barrier latency.
#[derive(Debug)]
pub struct CentralBarrier {
    nprocs: usize,
    generation: u64,
    arrived: usize,
    max_clock_ns: u64,
    lens: Vec<u32>,
    /// Elementwise minimum, over this episode's arrivers so far, of each
    /// arriver's smallest pending notice sequence number per writer
    /// (`u32::MAX` for a writer nobody has pending).
    pending_floor: Vec<u32>,
    /// The most recently sealed episode.  Its published-interval snapshot is
    /// the coverage bound of the next episode's GC watermark.
    epoch: Rc<BarrierEpoch>,
}

/// Outcome of recording one barrier arrival.
enum Arrival {
    /// This was the last arriver: the episode is sealed; wake the waiters of
    /// the given generation.
    Sealed {
        generation: u64,
        epoch: Rc<BarrierEpoch>,
    },
    /// More arrivals pending: park on the given generation.
    Wait { generation: u64 },
}

impl CentralBarrier {
    /// Create a barrier for `nprocs` processors.
    pub fn new(nprocs: usize) -> Self {
        CentralBarrier {
            nprocs,
            generation: 0,
            arrived: 0,
            max_clock_ns: 0,
            lens: vec![0; nprocs],
            pending_floor: vec![u32::MAX; nprocs],
            epoch: Rc::new(BarrierEpoch {
                depart_clock_ns: 0,
                published_intervals: vec![0; nprocs],
                changed_writers: Vec::new(),
                retire_below: vec![0; nprocs],
            }),
        }
    }

    /// Number of processors the barrier synchronizes.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Record the arrival of processor `rank` without blocking.
    /// `my_pending_floors` lists `(writer, floor)` for every writer `rank`
    /// has a write notice of incorporated but not applied yet, `floor` being
    /// the smallest sequence number among them — the arriver's contribution
    /// to the episode's GC watermark.  Writers it has nothing pending of are
    /// simply absent.
    fn arrive(
        &mut self,
        rank: usize,
        my_clock_ns: u64,
        barrier_latency_ns: u64,
        my_published_intervals: u32,
        my_pending_floors: &[(u32, u32)],
    ) -> Arrival {
        let generation = self.generation;
        self.max_clock_ns = self.max_clock_ns.max(my_clock_ns);
        self.lens[rank] = my_published_intervals;
        for &(writer, floor) in my_pending_floors {
            let acc = &mut self.pending_floor[writer as usize];
            *acc = (*acc).min(floor);
        }
        self.arrived += 1;
        if self.arrived == self.nprocs {
            // Last arriver: seal the episode and open the next generation.
            let prev_published = &self.epoch.published_intervals;
            let epoch = Rc::new(BarrierEpoch {
                depart_clock_ns: self.max_clock_ns.saturating_add(barrier_latency_ns),
                published_intervals: self.lens.clone(),
                changed_writers: (0..self.nprocs as u32)
                    .filter(|&q| self.lens[q as usize] > prev_published[q as usize])
                    .collect(),
                retire_below: gc_thresholds(prev_published, &self.pending_floor),
            });
            self.epoch = Rc::clone(&epoch);
            self.pending_floor.fill(u32::MAX);
            self.arrived = 0;
            self.max_clock_ns = 0;
            self.generation += 1;
            Arrival::Sealed { generation, epoch }
        } else {
            Arrival::Wait { generation }
        }
    }

    /// The most recently sealed episode.
    fn epoch(&self) -> Rc<BarrierEpoch> {
        Rc::clone(&self.epoch)
    }
}

/// The scheduler transition a [`TurnWait`] performs before waiting for the
/// turn to come back around.
#[derive(Debug)]
enum TurnOp {
    /// Requeue as runnable at `clock_ns`, then wait to be picked again.
    Yield { clock_ns: u64 },
    /// Park on `key` at `clock_ns`, then wait to be woken and picked.
    Block { key: WaitKey, clock_ns: u64 },
}

/// A park point: the future returned by every scheduler wait in
/// [`GlobalSync`].  The first `poll` applies the transition through the
/// scheduler (which also picks the next runnable processor); the future then
/// reports [`Poll::Pending`] until the run loop, which resumes only the
/// scheduler's current pick, finds this processor current again.
#[derive(Debug)]
pub struct TurnWait<'a> {
    sync: &'a GlobalSync,
    rank: usize,
    op: Option<TurnOp>,
}

impl Future for TurnWait<'_> {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        let (sync, rank) = (self.sync, self.rank);
        if let Some(op) = self.op.take() {
            match op {
                TurnOp::Yield { clock_ns } => sync.sched.note_yield(rank, clock_ns),
                TurnOp::Block { key, clock_ns } => sync.sched.note_block(rank, key, clock_ns),
            }
            sync.report_decision();
        }
        if sync.sched.is_current(rank) {
            Poll::Ready(())
        } else {
            Poll::Pending
        }
    }
}

/// The cluster-wide synchronization state shared by all processors: the
/// lock table, the barrier, the deterministic scheduler that serializes
/// every blocking point, and the run's observer, if one is installed.
#[derive(Debug)]
pub struct GlobalSync {
    /// The locks acquired so far, by id: the table is sized by the locks the
    /// program uses, never by the configured bound.
    locks: RefCell<FastHashMap<u32, GlobalLock>>,
    max_locks: usize,
    barrier: RefCell<CentralBarrier>,
    sched: Scheduler,
    /// The run's observer, beside the scheduler whose decisions it hears;
    /// `None` (the default) costs one branch per event point.
    pub(crate) observer: Option<Rc<RefCell<dyn Observer>>>,
}

impl GlobalSync {
    /// Create the synchronization state for a cluster running under the
    /// given scheduling configuration, with lock ids `0..max_locks`.
    pub fn new(nprocs: usize, max_locks: usize, sched: SchedConfig) -> Self {
        GlobalSync {
            locks: RefCell::new(FastHashMap::default()),
            max_locks,
            barrier: RefCell::new(CentralBarrier::new(nprocs)),
            sched: Scheduler::new(nprocs, sched),
            observer: None,
        }
    }

    /// The deterministic scheduler serializing this cluster's processors.
    pub fn scheduler(&self) -> &Scheduler {
        &self.sched
    }

    /// Tell the observer which rank the scheduler's latest decision chose
    /// (if it chose one); called after every transition that decides.
    pub(crate) fn report_decision(&self) {
        let Some(observer) = &self.observer else {
            return;
        };
        if let Some(rank) = self.sched.current() {
            observer
                .borrow_mut()
                .decision(self.sched.decisions(), rank as u32);
        }
    }

    /// Park point: requeue as runnable at `clock_ns` and wait to be picked.
    pub(crate) fn yield_turn(&self, rank: usize, clock_ns: u64) -> TurnWait<'_> {
        TurnWait {
            sync: self,
            rank,
            op: Some(TurnOp::Yield { clock_ns }),
        }
    }

    /// Park point: block on `key` at `clock_ns` and wait to be woken.
    fn block_turn(&self, rank: usize, key: WaitKey, clock_ns: u64) -> TurnWait<'_> {
        TurnWait {
            sync: self,
            rank,
            op: Some(TurnOp::Block { key, clock_ns }),
        }
    }

    /// The table key (and wait key) of lock `id`.
    ///
    /// # Panics
    /// Panics if `id` is outside the configured lock table.
    fn lock_key(&self, id: usize) -> u32 {
        assert!(
            id < self.max_locks,
            "lock id {id} outside the configured table of {} locks",
            self.max_locks
        );
        u32::try_from(id).expect("DsmConfig::validate bounds the lock table by u32::MAX")
    }

    /// Acquire lock `id` as processor `rank` whose logical clock reads
    /// `clock_ns`, yielding to the scheduler first (so any processor with an
    /// earlier clock gets its request in before us) and parking until the
    /// lock is granted.  Contended hand-off order is therefore
    /// `(request clock, tie-break)` — deterministic.  Returns the last
    /// release; its vector time is copied into `vc` if there was one (see
    /// [`GlobalLock::try_acquire`]).
    pub async fn acquire_lock(
        &self,
        id: usize,
        rank: usize,
        clock_ns: u64,
        vc: &mut VectorClock,
    ) -> LockRelease {
        let key = self.lock_key(id);
        self.yield_turn(rank, clock_ns).await;
        loop {
            let grant = self
                .locks
                .borrow_mut()
                .entry(key)
                .or_default()
                .try_acquire(vc);
            if let Some(grant) = grant {
                return grant;
            }
            self.block_turn(rank, WaitKey::Lock(key), clock_ns).await;
        }
    }

    /// Release lock `id`, wake its waiters, and yield the turn so that a
    /// waiter with an earlier request clock runs before we race ahead.
    pub async fn release_lock(&self, id: usize, rank: usize, vc: &VectorClock, clock_ns: u64) {
        let key = self.lock_key(id);
        self.locks
            .borrow_mut()
            .entry(key)
            .or_default()
            .release(rank as u32, vc, clock_ns);
        self.sched.wake_all(WaitKey::Lock(key));
        self.yield_turn(rank, clock_ns).await;
    }

    /// Arrive at the barrier as processor `rank`, announcing the caller's
    /// modeled clock, the number of intervals it has published so far, and
    /// the `(writer, floor)` pairs of the writers it has notices pending of
    /// (the GC contribution; see [`gc_thresholds`]).  Parks (on the
    /// scheduler) until everyone has arrived and returns the barrier episode
    /// (common departure time + published-interval snapshot + retirement
    /// watermarks).
    pub async fn barrier_arrive(
        &self,
        rank: usize,
        clock_ns: u64,
        barrier_latency_ns: u64,
        published_intervals: u32,
        pending_floors: &[(u32, u32)],
    ) -> Rc<BarrierEpoch> {
        self.yield_turn(rank, clock_ns).await;
        let arrival = self.barrier.borrow_mut().arrive(
            rank,
            clock_ns,
            barrier_latency_ns,
            published_intervals,
            pending_floors,
        );
        match arrival {
            Arrival::Sealed { generation, epoch } => {
                self.sched.wake_all(WaitKey::Barrier(generation));
                epoch
            }
            Arrival::Wait { generation } => {
                self.block_turn(rank, WaitKey::Barrier(generation), clock_ns)
                    .await;
                self.barrier.borrow().epoch()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{drive, Continuation};
    use std::cell::Cell;
    use tm_sched::ScheduleMode;

    /// Run `body(rank)` for every rank against one `GlobalSync` through the
    /// cluster's own pick loop, and collect the results in rank order.
    fn run<R>(sync: &GlobalSync, nprocs: usize, body: impl AsyncFn(usize) -> R) -> Vec<R> {
        let body = &body;
        let continuations = (0..nprocs)
            .map(|rank| Box::pin(body(rank)) as Continuation<'_, R>)
            .collect();
        drive(sync, continuations)
    }

    #[test]
    fn lock_hands_over_release_snapshot() {
        let mut lock = GlobalLock::new();
        let untouched = VectorClock::zero(1);
        let mut grant_vc = untouched.clone();
        let first = lock
            .try_acquire(&mut grant_vc)
            .expect("free lock must be acquirable");
        assert!(first.releaser.is_none());
        assert_eq!(grant_vc, untouched, "a never-released lock has no clock");
        assert!(
            lock.try_acquire(&mut grant_vc).is_none(),
            "held lock must refuse"
        );
        let mut vc = VectorClock::zero(2);
        vc.set(0, 3);
        lock.release(0, &vc, 1234);
        let second = lock
            .try_acquire(&mut grant_vc)
            .expect("released lock must be free");
        assert_eq!(second.releaser, Some(0));
        assert_eq!(grant_vc, vc);
        assert_eq!(second.clock_ns, 1234);
    }

    #[test]
    fn lock_mutual_exclusion_and_deterministic_handoff() {
        // Four processors increment a plain counter 200 times each under
        // the global lock, checking on entry that nobody else is inside.
        // The scheduler makes the hand-off ORDER a pure function of the
        // seed, which we check by tracing two identical runs.
        let run_seed = |seed: u64| {
            let sync = GlobalSync::new(4, 4, SchedConfig::seeded(seed));
            let order = RefCell::new(Vec::new());
            let inside = Cell::new(false);
            let counter = Cell::new(0u64);
            run(&sync, 4, async |rank| {
                for i in 0..200u64 {
                    let clock = rank as u64 + 4 * i;
                    let mut vc = VectorClock::default();
                    let _grant = sync.acquire_lock(0, rank, clock, &mut vc).await;
                    assert!(!inside.replace(true), "two holders of one lock");
                    counter.set(counter.get() + 1);
                    order.borrow_mut().push(rank as u32);
                    inside.set(false);
                    sync.release_lock(0, rank, &VectorClock::zero(4), clock + 1)
                        .await;
                }
            });
            assert_eq!(counter.get(), 800, "one increment per acquisition");
            order.into_inner()
        };
        assert_eq!(
            run_seed(7),
            run_seed(7),
            "same seed must give the same handoff order"
        );
    }

    #[test]
    fn contended_lock_grants_follow_request_clocks() {
        // Rank 0 takes the lock at clock 0 and holds it until clock 10_000;
        // ranks 1..4 request it at clocks 300, 200, 100. Hand-off must be in
        // request-clock order: 3, 2, 1.
        let sync = GlobalSync::new(4, 1, SchedConfig::fifo());
        let order = RefCell::new(Vec::new());
        run(&sync, 4, async |rank| {
            let mut vc = VectorClock::default();
            if rank == 0 {
                let _ = sync.acquire_lock(0, 0, 0, &mut vc).await;
                // Let the others get their requests in, then release late.
                sync.yield_turn(0, 9_000).await;
                sync.release_lock(0, 0, &VectorClock::zero(4), 10_000).await;
            } else {
                let clock = 100 * (4 - rank) as u64;
                let _ = sync.acquire_lock(0, rank, clock, &mut vc).await;
                order.borrow_mut().push(rank);
                sync.release_lock(0, rank, &VectorClock::zero(4), 10_000 + clock)
                    .await;
            }
        });
        assert_eq!(order.into_inner(), vec![3, 2, 1]);
    }

    #[test]
    fn barrier_departure_is_max_arrival_plus_latency() {
        let sync = GlobalSync::new(3, 1, SchedConfig::fifo());
        let departs = run(&sync, 3, async |rank| {
            let clock = [100u64, 900, 400][rank];
            sync.barrier_arrive(rank, clock, 50, 0, &[])
                .await
                .depart_clock_ns
        });
        assert_eq!(departs, vec![950, 950, 950]);
    }

    #[test]
    fn barrier_is_reusable_across_generations() {
        let sync = GlobalSync::new(2, 1, SchedConfig::fifo());
        let results = run(&sync, 2, async |rank| {
            let first = [20u64, 10][rank];
            let a = sync
                .barrier_arrive(rank, first, 5, 0, &[])
                .await
                .depart_clock_ns;
            let second = if rank == 0 { a + 1 } else { a + 100 };
            let b = sync
                .barrier_arrive(rank, second, 5, 0, &[])
                .await
                .depart_clock_ns;
            (a, b)
        });
        // First episode: max(20, 10) + 5; second: max(26, 125) + 5.
        assert_eq!(results, vec![(25, 130), (25, 130)]);
    }

    #[test]
    fn barrier_snapshots_published_intervals() {
        let sync = GlobalSync::new(3, 1, SchedConfig::seeded(3));
        let epochs = run(&sync, 3, async |rank| {
            sync.barrier_arrive(rank, 10 * rank as u64, 7, rank as u32 * 2, &[])
                .await
        });
        for e in epochs {
            assert_eq!(e.published_intervals, vec![0, 2, 4]);
            assert_eq!(e.changed_writers, vec![1, 2]);
            assert_eq!(e.depart_clock_ns, 27);
            // First episode: the previous snapshot is all-zero, so nothing
            // is retirable yet whatever the pending floors say.
            assert_eq!(e.retire_below, vec![0, 0, 0]);
        }
    }

    #[test]
    fn gc_thresholds_respect_coverage_and_pending_floors() {
        // Writer 0: covered up to 5, nothing pending -> retire through 5.
        // Writer 1: covered up to 7, but some processor still has interval 4
        //           pending -> retire only through 3.
        // Writer 2: pending floor below everything -> nothing retirable.
        assert_eq!(gc_thresholds(&[5, 7, 6], &[u32::MAX, 4, 1]), vec![5, 3, 0]);
        // The zero floor cannot underflow.
        assert_eq!(gc_thresholds(&[3], &[0]), vec![0]);
    }

    #[test]
    fn barrier_seals_gc_watermarks_from_previous_coverage() {
        let sync = GlobalSync::new(2, 1, SchedConfig::fifo());
        let results = run(&sync, 2, async |rank| {
            // Episode 1: ranks have published 4 and 2 intervals, nothing
            // pending.  Episode 2: rank 1 still has rank 0's interval 3
            // pending.
            let published = [4u32, 2][rank];
            let first = sync
                .barrier_arrive(rank, 10, 5, published, &[])
                .await
                .retire_below
                .clone();
            let floors: &[(u32, u32)] = if rank == 1 { &[(0, 3)] } else { &[] };
            let second = sync
                .barrier_arrive(rank, 100, 5, published + 1, floors)
                .await
                .retire_below
                .clone();
            (first, second)
        });
        for (first, second) in results {
            // Episode 1 retires nothing: the previous snapshot was zero.
            assert_eq!(first, vec![0, 0]);
            // Episode 2: coverage is episode 1's snapshot (4, 2); rank 0's
            // watermark is capped by the pending interval 3.
            assert_eq!(second, vec![2, 2]);
        }
    }

    /// Sparse `(writer, floor)` arrivals must seal the watermarks the dense
    /// form sealed: `gc_thresholds` of the previous snapshot and the
    /// elementwise minimum of every arriver's dense floor vector (`u32::MAX`
    /// where it has nothing pending).  Every case has a writer pending at
    /// several arrivers (writer 0, at all but itself) and one pending at none
    /// (the last).
    #[test]
    fn sparse_arrivals_seal_the_dense_watermarks() {
        let mut rng = proptest::rng::TestRng::new(0xf100);
        for case in 0..64 {
            let n = 3 + rng.below(7) as usize;
            let first: Vec<u32> = (0..n).map(|_| rng.below(6) as u32).collect();
            let second: Vec<u32> = first.iter().map(|&p| p + rng.below(3) as u32).collect();
            // What each arriver of the second episode has pending.
            let pending: Vec<Vec<(u32, u32)>> = (0..n)
                .map(|rank| {
                    (0..n - 1)
                        .filter(|&w| w != rank)
                        .filter_map(|w| {
                            let floor = 1 + rng.below(8) as u32;
                            (w == 0 || floor <= 3).then_some((w as u32, floor))
                        })
                        .collect()
                })
                .collect();

            let mut dense_min = vec![u32::MAX; n];
            for floors in &pending {
                let mut dense = vec![u32::MAX; n];
                for &(w, floor) in floors {
                    dense[w as usize] = floor;
                }
                for (acc, floor) in dense_min.iter_mut().zip(dense) {
                    *acc = (*acc).min(floor);
                }
            }
            assert!(dense_min[0] < u32::MAX && dense_min[n - 1] == u32::MAX);

            let mut barrier = CentralBarrier::new(n);
            for (rank, &published) in first.iter().enumerate() {
                barrier.arrive(rank, 0, 0, published, &[]);
            }
            // The second episode's arrivals come in a shuffled order.
            let mut order: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                order.swap(i, rng.below(i as u128 + 1) as usize);
            }
            let mut sealed = None;
            for rank in order {
                if let Arrival::Sealed { epoch, .. } =
                    barrier.arrive(rank, 0, 0, second[rank], &pending[rank])
                {
                    sealed = Some(epoch);
                }
            }
            let epoch = sealed.expect("the last arrival seals the episode");
            assert_eq!(
                epoch.retire_below,
                gc_thresholds(&first, &dense_min),
                "case {case}: {pending:?}"
            );
            assert_eq!(epoch.published_intervals, second);
            let changed: Vec<u32> = (0..n as u32)
                .filter(|&q| second[q as usize] > first[q as usize])
                .collect();
            assert_eq!(epoch.changed_writers, changed, "case {case}");
        }
    }

    #[test]
    fn scheduler_mode_is_wired_through() {
        let sync = GlobalSync::new(2, 1, SchedConfig::seeded(99));
        assert_eq!(sync.scheduler().config().seed, 99);
        assert_eq!(sync.scheduler().config().mode, ScheduleMode::Seeded);
        assert_eq!(sync.scheduler().nprocs(), 2);
    }

    #[test]
    #[should_panic(expected = "outside the configured table")]
    fn out_of_range_lock_id_panics() {
        let sync = GlobalSync::new(2, 4, SchedConfig::default());
        let mut vc = VectorClock::default();
        // The table check runs before the first suspension point.
        let acquire = std::pin::pin!(sync.acquire_lock(10, 0, 0, &mut vc));
        let _ = acquire.poll(&mut Context::from_waker(std::task::Waker::noop()));
    }
}
