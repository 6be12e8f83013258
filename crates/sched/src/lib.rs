//! # tm-sched — deterministic scheduler for the simulated cluster
//!
//! The simulated processors of `tdsm-core` are resumable state machines
//! driven by one host thread.  Which of them runs next decides lock-arrival
//! order — and with it the message counts the paper's figures are built
//! from — so that choice must never depend on the host.  This crate makes it
//! a pure function of the run's configuration.
//!
//! A [`Scheduler`] serializes the simulated processors under **cooperative
//! turn-taking**: exactly one processor holds *the turn* at any moment and
//! runs; all others are suspended. The turn is handed over only at explicit
//! yield points (lock acquire/release, barrier arrival, fault service), and
//! the next holder is always the runnable processor with the smallest
//! `(logical clock, tie-break)` pair. Ties — every processor leaves a
//! barrier at the same modeled instant — are broken either by rank
//! ([`ScheduleMode::Fifo`]) or by a seeded hash that reshuffles per decision
//! ([`ScheduleMode::Seeded`]), so a run is a pure function of
//! `(program, configuration, seed)` and different seeds explore different
//! legal interleavings.
//!
//! The scheduler knows nothing about DSM protocol state and resumes nobody
//! itself; it only decides who is due. `tdsm-core`'s
//! [`GlobalSync`](../tdsm_core/sync) reports the transitions and its run
//! loop resumes whoever [`Scheduler::current`] names.
//!
//! ## Protocol
//!
//! The driver polls [`Scheduler::current`] and resumes that processor, which
//! must:
//!
//! 1. call [`Scheduler::note_yield`] / [`Scheduler::note_block`] /
//!    [`Scheduler::wake_all`] only while holding the turn, suspending itself
//!    after the first two until `current` names it again, and
//! 2. be retired with [`Scheduler::finish`] exactly once when done.
//!
//! If every unfinished processor is blocked the simulated program has
//! deadlocked; the scheduler records the abort ([`Scheduler::abort_dump`])
//! and `finish` panics with the state dump rather than letting the run hang.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::cell::RefCell;
use std::fmt;

/// How scheduling ties (equal logical clocks) are broken.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ScheduleMode {
    /// Break ties by processor rank (lowest first). The seed is ignored;
    /// this is the stable baseline ordering.
    Fifo,
    /// Break ties by an FNV-1a hash of `(seed, decision index, rank)`, so
    /// each seed yields a different — but fully reproducible — interleaving.
    #[default]
    Seeded,
}

impl ScheduleMode {
    /// Canonical lowercase name, as accepted by `--schedule` and recorded in
    /// emitted results.
    pub fn as_str(&self) -> &'static str {
        match self {
            ScheduleMode::Fifo => "fifo",
            ScheduleMode::Seeded => "seeded",
        }
    }
}

impl std::str::FromStr for ScheduleMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "fifo" => Ok(ScheduleMode::Fifo),
            "seeded" => Ok(ScheduleMode::Seeded),
            other => Err(format!(
                "unknown schedule '{other}' (expected fifo or seeded)"
            )),
        }
    }
}

impl fmt::Display for ScheduleMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Complete scheduling configuration of one cluster run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SchedConfig {
    /// Tie-breaking policy.
    pub mode: ScheduleMode,
    /// Seed consumed by [`ScheduleMode::Seeded`] tie-breaking (ignored by
    /// [`ScheduleMode::Fifo`]).
    pub seed: u64,
}

impl SchedConfig {
    /// Rank-ordered tie-breaking (seed irrelevant).
    pub fn fifo() -> Self {
        SchedConfig {
            mode: ScheduleMode::Fifo,
            seed: 0,
        }
    }

    /// Seed-hashed tie-breaking with the given seed.
    pub fn seeded(seed: u64) -> Self {
        SchedConfig {
            mode: ScheduleMode::Seeded,
            seed,
        }
    }
}

/// What a blocked processor is waiting for. Keys are opaque to the
/// scheduler: [`Scheduler::wake_all`] wakes exactly the processors blocked
/// on an equal key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitKey {
    /// Waiting to acquire the application lock with this id.
    Lock(u32),
    /// Waiting inside the barrier episode with this generation number.
    Barrier(u64),
}

/// Scheduling state of one simulated processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProcState {
    /// Eligible to receive the turn, at the given logical clock.
    Runnable {
        /// Logical time (ns) the processor announced at its last yield.
        clock_ns: u64,
    },
    /// Parked until [`Scheduler::wake_all`] is called with an equal key.
    Blocked {
        /// What the processor waits for.
        key: WaitKey,
        /// Logical time (ns) at which it blocked — its priority once woken.
        clock_ns: u64,
    },
    /// The processor has completed.
    Finished,
}

/// Sentinel for "rank is not in the runnable set" in `SchedState::slot`.
const NO_SLOT: usize = usize::MAX;

#[derive(Debug)]
struct SchedState {
    procs: Vec<ProcState>,
    /// Ranks currently in [`ProcState::Runnable`], in arbitrary order.
    /// Maintained incrementally at every state transition so a scheduling
    /// decision only scans actually-runnable processors instead of all of
    /// them.  The pick itself minimizes over the full `(clock, tie-break,
    /// rank)` triple — all triples are distinct — so the set's internal
    /// order can never influence the decision.
    runnable: Vec<usize>,
    /// `slot[rank]` = index of `rank` inside `runnable`, or [`NO_SLOT`].
    slot: Vec<usize>,
    /// Number of processors in [`ProcState::Finished`]; replaces the
    /// all-procs rescan that used to decide "everyone is done" on every
    /// empty pick.
    finished: usize,
    /// The rank currently holding the turn (`None` once all have finished).
    current: Option<usize>,
    /// Number of scheduling decisions taken (feeds seeded tie-breaking).
    decisions: u64,
    /// Set when a scheduling decision found no runnable processor while
    /// unfinished ones remain — a simulated deadlock. Once set, no further
    /// decision is taken: the driver stops ([`Scheduler::current`] is
    /// `None`) and reports [`Scheduler::abort_dump`].
    aborted: bool,
    /// When present, every decision's `(decision index, chosen rank)` is
    /// appended here — the decision-trace hook the schedule goldens pin.
    /// `None` (the default) costs nothing on the pick path.
    trace: Option<Vec<(u64, usize)>>,
}

impl SchedState {
    /// Insert `rank` into the runnable set (must not already be a member).
    fn add_runnable(&mut self, rank: usize) {
        debug_assert_eq!(self.slot[rank], NO_SLOT, "rank already runnable");
        self.slot[rank] = self.runnable.len();
        self.runnable.push(rank);
    }

    /// Remove `rank` from the runnable set (must be a member) by swapping
    /// the last element into its slot.
    fn remove_runnable(&mut self, rank: usize) {
        let i = self.slot[rank];
        debug_assert_ne!(i, NO_SLOT, "rank not runnable");
        let last = self.runnable.pop().expect("runnable set empty");
        if last != rank {
            self.runnable[i] = last;
            self.slot[last] = i;
        }
        self.slot[rank] = NO_SLOT;
    }
}

/// The deterministic cooperative scheduler (see the crate docs for the
/// protocol).
#[derive(Debug)]
pub struct Scheduler {
    state: RefCell<SchedState>,
    config: SchedConfig,
    nprocs: usize,
}

/// FNV-1a over a few 64-bit words — the seeded tie-break hash.
fn fnv1a_words(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

impl Scheduler {
    /// Create a scheduler for `nprocs` processors, all runnable at logical
    /// time zero, and take the first scheduling decision.
    ///
    /// # Panics
    /// Panics if `nprocs` is zero.
    pub fn new(nprocs: usize, config: SchedConfig) -> Self {
        assert!(nprocs >= 1, "scheduler needs at least one processor");
        let mut state = SchedState {
            procs: vec![ProcState::Runnable { clock_ns: 0 }; nprocs],
            runnable: (0..nprocs).collect(),
            slot: (0..nprocs).collect(),
            finished: 0,
            current: None,
            decisions: 0,
            aborted: false,
            trace: None,
        };
        Self::pick(&mut state, &config);
        Scheduler {
            state: RefCell::new(state),
            config,
            nprocs,
        }
    }

    /// Number of processors this scheduler serializes.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// The configuration this scheduler runs under.
    pub fn config(&self) -> SchedConfig {
        self.config
    }

    /// Number of scheduling decisions taken so far (statistics/tests).
    pub fn decisions(&self) -> u64 {
        self.state.borrow().decisions
    }

    /// Tie-break rank for `rank` at decision `decisions`.
    fn tie(config: &SchedConfig, decisions: u64, rank: usize) -> u64 {
        match config.mode {
            ScheduleMode::Fifo => rank as u64,
            ScheduleMode::Seeded => fnv1a_words(&[config.seed, decisions, rank as u64]),
        }
    }

    /// Take one scheduling decision: hand the turn to the runnable processor
    /// with the smallest `(clock, tie-break, rank)` triple. Finding no
    /// runnable processor while unfinished ones remain blocked is a deadlock
    /// of the simulated program: the state is marked aborted (see
    /// [`abort_dump`](Self::abort_dump)).
    fn pick(state: &mut SchedState, config: &SchedConfig) {
        if state.aborted {
            return;
        }
        state.decisions += 1;
        let decisions = state.decisions;
        // The winning key is the lexicographic minimum of
        // `(clock, tie-break, rank)`, so only ranks sitting at the minimum
        // clock can win: find the clock plateau with a plain integer scan,
        // then tie-break within it.  With hundreds of runnable processors
        // parked on a handful of distinct clock values this skips almost
        // every seeded-mode hash, and it picks the identical rank — the
        // plateau scan only drops keys that lose on their first component.
        let mut min_clock: Option<u64> = None;
        for &rank in &state.runnable {
            let ProcState::Runnable { clock_ns } = state.procs[rank] else {
                unreachable!("runnable set out of sync with proc states");
            };
            if min_clock.is_none_or(|m| clock_ns < m) {
                min_clock = Some(clock_ns);
            }
        }
        let mut best: Option<(u64, usize)> = None;
        if let Some(min_clock) = min_clock {
            for &rank in &state.runnable {
                let ProcState::Runnable { clock_ns } = state.procs[rank] else {
                    unreachable!("runnable set out of sync with proc states");
                };
                if clock_ns != min_clock {
                    continue;
                }
                let key = (Self::tie(config, decisions, rank), rank);
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
        }
        match best {
            Some((_, rank)) => {
                state.current = Some(rank);
                if let Some(trace) = state.trace.as_mut() {
                    trace.push((decisions, rank));
                }
            }
            None => {
                // Either every processor finished or the unfinished ones are
                // all blocked (a simulated deadlock). In both cases nobody
                // holds the turn — clearing `current` is what stops the
                // driver's pick loop; leaving it stale would let it resume a
                // processor the schedule never chose.
                state.current = None;
                if state.finished != state.procs.len() {
                    state.aborted = true;
                }
            }
        }
    }

    /// The deadlock state dump of an aborted scheduler.
    fn dump(state: &SchedState) -> String {
        format!(
            "simulated deadlock: no runnable processor, states: {:?}",
            state.procs
        )
    }

    /// Yield point: announce this processor's current logical clock and take
    /// the next scheduling decision — whoever the turn goes to.  The caller
    /// must suspend itself until [`current`](Self::current) names it again.
    /// Must be called while holding the turn.
    pub fn note_yield(&self, rank: usize, clock_ns: u64) {
        let mut state = self.state.borrow_mut();
        debug_assert_eq!(state.current, Some(rank), "yield without holding the turn");
        state.procs[rank] = ProcState::Runnable { clock_ns };
        Self::pick(&mut state, &self.config);
    }

    /// Block point: park this processor on `key` until a
    /// [`wake_all`](Self::wake_all) with an equal key makes it runnable
    /// again, and hand the turn over.  The caller must suspend itself until
    /// [`current`](Self::current) names it again.  A deadlock this provokes
    /// does not panic here: the aborted state is left for the driver to
    /// observe via [`abort_dump`](Self::abort_dump).  Must be called while
    /// holding the turn.
    pub fn note_block(&self, rank: usize, key: WaitKey, clock_ns: u64) {
        let mut state = self.state.borrow_mut();
        debug_assert_eq!(state.current, Some(rank), "block without holding the turn");
        state.procs[rank] = ProcState::Blocked { key, clock_ns };
        state.remove_runnable(rank);
        Self::pick(&mut state, &self.config);
    }

    /// The rank currently holding the turn (`None` once every processor has
    /// finished, or after an abort).  The driver's pick loop reads this to
    /// decide which processor to resume next.
    pub fn current(&self) -> Option<usize> {
        self.state.borrow().current
    }

    /// True if `rank` currently holds the turn (a suspended processor's
    /// readiness test).
    pub fn is_current(&self, rank: usize) -> bool {
        self.current() == Some(rank)
    }

    /// The deadlock state dump, if the scheduler has aborted: the message
    /// [`finish`](Self::finish) panics with.
    pub fn abort_dump(&self) -> Option<String> {
        let state = self.state.borrow();
        state.aborted.then(|| Self::dump(&state))
    }

    /// Start recording `(decision index, chosen rank)` for every scheduling
    /// decision from now on.  Discards any previous trace.
    pub fn enable_decision_trace(&self) {
        self.state.borrow_mut().trace = Some(Vec::new());
    }

    /// Stop recording and hand back the decision trace collected since
    /// [`enable_decision_trace`](Self::enable_decision_trace), or `None` if
    /// tracing was never enabled.
    pub fn take_decision_trace(&self) -> Option<Vec<(u64, usize)>> {
        self.state.borrow_mut().trace.take()
    }

    /// Make every processor blocked on `key` runnable again (at the logical
    /// clock it blocked with). The caller keeps the turn; the woken
    /// processors compete for it from the caller's next yield point on.
    /// Returns how many processors were woken.
    pub fn wake_all(&self, key: WaitKey) -> usize {
        let mut state = self.state.borrow_mut();
        let mut woken = 0;
        for rank in 0..state.procs.len() {
            if let ProcState::Blocked { key: k, clock_ns } = state.procs[rank] {
                if k == key {
                    state.procs[rank] = ProcState::Runnable { clock_ns };
                    state.add_runnable(rank);
                    woken += 1;
                }
            }
        }
        woken
    }

    /// Retire this processor and hand the turn to the next one due. Must be
    /// called while holding the turn; no scheduler call may follow for this
    /// rank.
    ///
    /// # Panics
    /// Panics if retiring this processor deadlocks the rest of the cluster
    /// (every remaining processor blocked on a wake that cannot come).
    pub fn finish(&self, rank: usize) {
        let mut state = self.state.borrow_mut();
        debug_assert_eq!(state.current, Some(rank), "finish without holding the turn");
        state.procs[rank] = ProcState::Finished;
        state.remove_runnable(rank);
        state.finished += 1;
        Self::pick(&mut state, &self.config);
        if state.aborted {
            panic!("{}", Self::dump(&state));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One step of a scripted processor.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// Yield point at this clock.
        Yield(u64),
        /// Block point on a key at this clock.
        Block(WaitKey, u64),
        /// Wake the waiters of a key (not a park point: the script goes on).
        Wake(WaitKey),
    }

    /// Drive the scheduler the way the run loop does: repeatedly read
    /// `current()`, run that processor's script up to and including its next
    /// park point, finish it when the script is exhausted.  Returns the
    /// serialized `(rank, clock)` trace of the park points.
    fn drive(nprocs: usize, config: SchedConfig, scripts: &[Vec<Op>]) -> Vec<(usize, u64)> {
        assert_eq!(scripts.len(), nprocs);
        let sched = Scheduler::new(nprocs, config);
        let mut next = vec![0usize; nprocs];
        let mut events = Vec::new();
        while let Some(rank) = sched.current() {
            let mut parked = false;
            while !parked && next[rank] < scripts[rank].len() {
                let op = scripts[rank][next[rank]];
                next[rank] += 1;
                match op {
                    Op::Yield(clock) => {
                        events.push((rank, clock));
                        sched.note_yield(rank, clock);
                        parked = true;
                    }
                    Op::Block(key, clock) => {
                        events.push((rank, clock));
                        sched.note_block(rank, key, clock);
                        parked = true;
                    }
                    Op::Wake(key) => {
                        sched.wake_all(key);
                    }
                }
            }
            if !parked {
                sched.finish(rank);
            }
        }
        assert_eq!(sched.abort_dump(), None, "unexpected abort");
        events
    }

    /// The trace of `nprocs` processors that only yield, at `clocks(rank)`.
    fn yields(
        nprocs: usize,
        config: SchedConfig,
        clocks: impl Fn(usize) -> Vec<u64>,
    ) -> Vec<(usize, u64)> {
        let scripts: Vec<Vec<Op>> = (0..nprocs)
            .map(|rank| clocks(rank).into_iter().map(Op::Yield).collect())
            .collect();
        drive(nprocs, config, &scripts)
    }

    #[test]
    fn single_processor_runs_unobstructed() {
        let t = yields(1, SchedConfig::fifo(), |_| vec![10, 20]);
        assert_eq!(t, vec![(0, 10), (0, 20)]);
    }

    #[test]
    fn turns_follow_logical_clocks() {
        // Each processor yields at clocks rank, rank+10, rank+20. Scheduling
        // is greedy: every pick takes the runnable processor with the
        // smallest *announced* clock, and that processor then runs through
        // to its next yield point. The resulting serialization is exactly
        // derivable by hand — pin it.
        let t = yields(3, SchedConfig::fifo(), |rank| {
            (0..3u64).map(|i| rank as u64 + 10 * i).collect()
        });
        assert_eq!(
            t,
            vec![
                (0, 0),
                (0, 10), // rank 0 still minimal after announcing clock 0
                (1, 1),
                (2, 2),
                (1, 11),
                (2, 12),
                (0, 20),
                (1, 21),
                (2, 22)
            ]
        );
    }

    #[test]
    fn fifo_ties_break_by_rank_and_runs_reproduce() {
        // Everyone yields at the same clocks: pure tie-breaking.
        let run = || yields(4, SchedConfig::fifo(), |_| vec![100, 200]);
        let a = run();
        assert_eq!(a, run(), "identical configuration must reproduce exactly");
        // At every clock plateau, fifo order is rank order.
        assert_eq!(
            a,
            vec![
                (0, 100),
                (1, 100),
                (2, 100),
                (3, 100),
                (0, 200),
                (1, 200),
                (2, 200),
                (3, 200)
            ]
        );
    }

    #[test]
    fn seeded_ties_reproduce_per_seed_and_vary_across_seeds() {
        let run = |seed: u64| yields(8, SchedConfig::seeded(seed), |_| vec![100, 200]);
        for seed in [0u64, 1, 42] {
            assert_eq!(run(seed), run(seed), "seed {seed} must reproduce");
        }
        // Different seeds must be able to produce different interleavings
        // (some pair among a handful of seeds differs).
        let traces: Vec<_> = (0..4u64).map(run).collect();
        assert!(
            traces.windows(2).any(|w| w[0] != w[1]),
            "seeded mode never varied across seeds"
        );
        // Whatever the order, every trace is a permutation of the same
        // event multiset.
        for t in &traces {
            let mut sorted = t.clone();
            sorted.sort_unstable();
            let mut expect: Vec<(usize, u64)> =
                (0..8).flat_map(|r| [(r, 100u64), (r, 200u64)]).collect();
            expect.sort_unstable();
            assert_eq!(sorted, expect);
        }
    }

    #[test]
    fn block_and_wake_order_waiters_by_clock() {
        // Rank 0 "holds a resource" until clock 1000; ranks 1..4 block on it
        // at clocks 30, 20, 10 and yield once more when they get the turn
        // back.  After the wake they must proceed in clock order — exactly
        // how lock hand-off ordering works in tdsm-core.
        let key = WaitKey::Lock(7);
        let mut scripts = vec![vec![Op::Yield(500), Op::Wake(key), Op::Yield(1000)]];
        for rank in 1..4u64 {
            let clock = 10 * (4 - rank);
            scripts.push(vec![Op::Block(key, clock), Op::Yield(clock)]);
        }
        let t = drive(4, SchedConfig::fifo(), &scripts);
        assert_eq!(
            t,
            vec![
                (0, 500), // the others get to register their waits first
                (1, 30),
                (2, 20),
                (3, 10),
                (0, 1000),
                (3, 10), // woken in clock order: 3, 2, 1
                (2, 20),
                (1, 30)
            ]
        );
    }

    #[test]
    fn wake_all_wakes_only_matching_keys() {
        let sched = Scheduler::new(3, SchedConfig::fifo());
        // No one is blocked: wakes nothing, regardless of key.
        assert_eq!(sched.wake_all(WaitKey::Lock(0)), 0);
        assert_eq!(sched.wake_all(WaitKey::Barrier(3)), 0);
        sched.note_block(0, WaitKey::Lock(0), 5);
        sched.note_block(1, WaitKey::Barrier(0), 5);
        assert_eq!(sched.wake_all(WaitKey::Lock(1)), 0);
        assert_eq!(sched.wake_all(WaitKey::Lock(0)), 1);
        assert_eq!(sched.wake_all(WaitKey::Lock(0)), 0, "a wake is consumed");
        // Rank 1 is still parked on its barrier key: once the turn holder
        // yields, only ranks 0 and 2 compete.
        sched.note_yield(2, 10);
        assert_eq!(sched.current(), Some(0));
        assert_eq!(sched.wake_all(WaitKey::Barrier(0)), 1);
    }

    #[test]
    #[should_panic(expected = "simulated deadlock")]
    fn blocking_with_no_possible_waker_panics() {
        // Rank 0 parks on a key nobody will ever signal; retiring rank 1
        // then leaves no runnable processor.
        let sched = Scheduler::new(2, SchedConfig::fifo());
        sched.note_block(0, WaitKey::Lock(0), 0);
        assert_eq!(sched.abort_dump(), None);
        sched.finish(1);
    }

    /// Pin the exact serialization produced by the incrementally maintained
    /// runnable set against golden traces captured from the original
    /// scan-all-processors implementation.  Six processors, four yields
    /// each, with odd ranks offset by +7 ns so clock plateaus mix ties and
    /// strict orderings.  Any change to pick's tie-break order — including
    /// an accidental dependence on the runnable set's internal order —
    /// breaks these traces.
    #[test]
    fn pick_order_matches_full_scan_goldens() {
        let run = |config: SchedConfig| {
            yields(6, config, |rank| {
                (0..4u64)
                    .map(|i| 100 * (i + 1) + (rank as u64 % 2) * 7)
                    .collect()
            })
        };
        assert_eq!(
            run(SchedConfig::fifo()),
            vec![
                (0, 100),
                (1, 107),
                (2, 100),
                (3, 107),
                (4, 100),
                (5, 107),
                (0, 200),
                (2, 200),
                (4, 200),
                (1, 207),
                (3, 207),
                (5, 207),
                (0, 300),
                (2, 300),
                (4, 300),
                (1, 307),
                (3, 307),
                (5, 307),
                (0, 400),
                (2, 400),
                (4, 400),
                (1, 407),
                (3, 407),
                (5, 407)
            ]
        );
        assert_eq!(
            run(SchedConfig::seeded(42)),
            vec![
                (4, 100),
                (1, 107),
                (0, 100),
                (5, 107),
                (2, 100),
                (3, 107),
                (0, 200),
                (4, 200),
                (2, 200),
                (3, 207),
                (5, 207),
                (1, 207),
                (0, 300),
                (2, 300),
                (4, 300),
                (1, 307),
                (5, 307),
                (3, 307),
                (0, 400),
                (4, 400),
                (2, 400),
                (1, 407),
                (3, 407),
                (5, 407)
            ]
        );
        assert_eq!(
            run(SchedConfig::seeded(7)),
            vec![
                (2, 100),
                (5, 107),
                (4, 100),
                (3, 107),
                (1, 107),
                (0, 100),
                (2, 200),
                (4, 200),
                (0, 200),
                (1, 207),
                (3, 207),
                (5, 207),
                (0, 300),
                (2, 300),
                (4, 300),
                (1, 307),
                (5, 307),
                (3, 307),
                (4, 400),
                (0, 400),
                (2, 400),
                (5, 407),
                (3, 407),
                (1, 407)
            ]
        );
    }

    /// Golden: the pick order at 64 processors.  Each processor yields 4
    /// times with staggered clocks mixing plateaus and strict orderings; the
    /// trace is pinned by length, prefix, and an FNV-1a fold so any tie-break
    /// or runnable-set regression at large N is caught bit-exactly.
    #[test]
    fn event_pick_order_golden_at_64_procs() {
        let clocks = |rank: usize| -> Vec<u64> {
            (0..4u64)
                .map(|i| 1000 * (i + 1) + (rank as u64 % 8) * 11)
                .collect()
        };
        let fold = |t: &[(usize, u64)]| {
            fnv1a_words(
                &t.iter()
                    .flat_map(|&(r, c)| [r as u64, c])
                    .collect::<Vec<u64>>(),
            )
        };
        let fifo = yields(64, SchedConfig::fifo(), clocks);
        assert_eq!(fifo.len(), 64 * 4);
        // Everyone starts at clock 0, so the first plateau serializes every
        // processor's first yield — in rank order under fifo.
        assert_eq!(
            &fifo[..8],
            &[
                (0, 1000),
                (1, 1011),
                (2, 1022),
                (3, 1033),
                (4, 1044),
                (5, 1055),
                (6, 1066),
                (7, 1077)
            ]
        );
        assert_eq!(
            fold(&fifo),
            0xd2e32d0827bdcbf5,
            "fifo 64-proc trace drifted"
        );

        let seeded = yields(64, SchedConfig::seeded(0x5eed), clocks);
        assert_eq!(seeded.len(), 64 * 4);
        assert_eq!(
            &seeded[..8],
            &[
                (36, 1044),
                (27, 1033),
                (43, 1033),
                (28, 1044),
                (46, 1066),
                (56, 1000),
                (41, 1011),
                (22, 1066)
            ]
        );
        assert_eq!(
            fold(&seeded),
            0xa754913125c8f57d,
            "seeded 64-proc trace drifted"
        );
    }

    /// Pinned snapshot of the deadlock state dump: the panic diagnostics the
    /// run loop surfaces must not silently regress.
    #[test]
    fn deadlock_state_dump_snapshot() {
        let sched = Scheduler::new(2, SchedConfig::fifo());
        assert_eq!(sched.abort_dump(), None);
        assert_eq!(sched.current(), Some(0));
        sched.note_block(0, WaitKey::Lock(9), 5);
        assert!(sched.is_current(1));
        sched.note_block(1, WaitKey::Lock(9), 7);
        assert_eq!(
            sched.abort_dump().as_deref(),
            Some(
                "simulated deadlock: no runnable processor, states: \
                 [Blocked { key: Lock(9), clock_ns: 5 }, \
                 Blocked { key: Lock(9), clock_ns: 7 }]"
            )
        );
    }

    #[test]
    fn decision_trace_records_picks() {
        let sched = Scheduler::new(2, SchedConfig::fifo());
        assert_eq!(sched.take_decision_trace(), None, "tracing starts off");
        sched.enable_decision_trace();
        sched.note_yield(0, 10); // decision 2: rank 1 (clock 0) is due
        sched.note_yield(1, 20); // decision 3: rank 0 (clock 10)
        sched.finish(0); //         decision 4: rank 1
        let trace = sched.take_decision_trace().expect("tracing was enabled");
        assert_eq!(trace, vec![(2, 1), (3, 0), (4, 1)]);
        assert_eq!(sched.take_decision_trace(), None, "take drains the trace");
    }

    #[test]
    fn schedule_mode_parses_and_prints() {
        use std::str::FromStr;
        assert_eq!(ScheduleMode::from_str("fifo"), Ok(ScheduleMode::Fifo));
        assert_eq!(ScheduleMode::from_str("seeded"), Ok(ScheduleMode::Seeded));
        assert!(ScheduleMode::from_str("random").is_err());
        assert_eq!(ScheduleMode::Fifo.to_string(), "fifo");
        assert_eq!(ScheduleMode::default(), ScheduleMode::Seeded);
        assert_eq!(SchedConfig::default().seed, 0);
    }
}
