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
//!
//! ## What a decision costs
//!
//! Only the *plateau* — the runnable processors at the smallest clock — can
//! win a decision, and a large cluster leaving a barrier is one plateau of a
//! thousand ranks, so the plateau is what the scheduler keeps at hand:
//!
//! * the runnable set is two parallel dense arrays, ranks and the clocks they
//!   announced, **partitioned** so that the plateau comes first.  Every
//!   transition keeps the partition with a swap or two; only when the last
//!   plateau member leaves is the smallest clock looked for again — one scan
//!   over plain integers per clock level, not per decision;
//! * a seeded tie-break is FNV-1a of `(seed, decision index, rank)`.  The
//!   first two words are the same for every candidate of a decision, so they
//!   are hashed **once per decision** and each plateau member folds in its
//!   rank — two bytes and one multiplication for the six zero bytes that
//!   follow (ranks are far below 2¹⁶).  The decision index feeds the hash, so
//!   a decision costs O(plateau) and no less; a plateau of one is not hashed
//!   at all.
//!
//! None of this is visible from outside: the test module keeps the full-scan,
//! three-words-per-candidate pick it replaced and checks every decision of
//! random scripts against it.

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
    /// Ranks currently in [`ProcState::Runnable`].  Maintained incrementally
    /// at every state transition so a scheduling decision never looks at a
    /// processor that is not runnable.  The first `plateau_len` entries are
    /// the *plateau* — the ranks at the smallest clock — in arbitrary order,
    /// and so are the rest: the pick minimizes over the full `(clock,
    /// tie-break, rank)` triple, all triples are distinct, so the set's
    /// internal order can never influence the decision.
    runnable: Vec<usize>,
    /// `clocks[i]` = the clock `runnable[i]` announced: the runnable ranks'
    /// clocks as one dense array, so looking for the smallest is a scan over
    /// plain integers instead of a `procs[rank]` lookup and enum match per
    /// rank.
    clocks: Vec<u64>,
    /// `slot[rank]` = index of `rank` inside `runnable`, or [`NO_SLOT`].
    slot: Vec<usize>,
    /// How many leading entries of `runnable` form the plateau.  While it is
    /// non-zero, `clocks[..plateau_len]` all equal the smallest clock and
    /// `clocks[plateau_len..]` are all greater, so a decision tie-breaks
    /// among the plateau without visiting anybody else.  Zero means "not
    /// known" (the last member just left, or nobody is runnable): the next
    /// decision finds the smallest clock and partitions again — one scan per
    /// clock level instead of two per decision.
    plateau_len: usize,
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
    /// Exchange the entries at indices `i` and `j` of the runnable set.
    fn swap_slots(&mut self, i: usize, j: usize) {
        if i == j {
            return;
        }
        self.runnable.swap(i, j);
        self.clocks.swap(i, j);
        self.slot[self.runnable[i]] = i;
        self.slot[self.runnable[j]] = j;
    }

    /// Take the entry at index `i` out of the plateau if it is in it (it
    /// becomes the first entry behind the plateau); returns its index.
    fn leave_plateau(&mut self, i: usize) -> usize {
        if i >= self.plateau_len {
            return i;
        }
        self.plateau_len -= 1;
        self.swap_slots(i, self.plateau_len);
        self.plateau_len
    }

    /// Restore the partition around the entry at index `i`, which lies
    /// behind the plateau and has just been given its clock.
    fn place(&mut self, i: usize) {
        if self.plateau_len == 0 {
            return; // Not known: the next decision partitions.
        }
        let (clock_ns, min_clock) = (self.clocks[i], self.clocks[0]);
        if clock_ns < min_clock {
            // A new smallest clock: the plateau is this entry alone.
            self.swap_slots(0, i);
            self.plateau_len = 1;
        } else if clock_ns == min_clock {
            self.swap_slots(self.plateau_len, i);
            self.plateau_len += 1;
        }
    }

    /// Insert `rank` into the runnable set (must not already be a member)
    /// at the clock it announced.
    fn add_runnable(&mut self, rank: usize, clock_ns: u64) {
        debug_assert_eq!(self.slot[rank], NO_SLOT, "rank already runnable");
        let i = self.runnable.len();
        self.slot[rank] = i;
        self.runnable.push(rank);
        self.clocks.push(clock_ns);
        self.place(i);
    }

    /// Remove `rank` from the runnable set (must be a member) by swapping
    /// the last entry into its place.
    fn remove_runnable(&mut self, rank: usize) {
        debug_assert_ne!(self.slot[rank], NO_SLOT, "rank not runnable");
        let i = self.leave_plateau(self.slot[rank]);
        self.swap_slots(i, self.runnable.len() - 1);
        self.runnable.pop();
        self.clocks.pop();
        self.slot[rank] = NO_SLOT;
    }

    /// Announce a new clock for `rank`, a member of the runnable set.
    fn set_clock(&mut self, rank: usize, clock_ns: u64) {
        debug_assert_ne!(self.slot[rank], NO_SLOT, "rank not runnable");
        let mut i = self.slot[rank];
        if i < self.plateau_len {
            if self.clocks[i] == clock_ns {
                return; // Still on the plateau: a barrier arrival's yield.
            }
            i = self.leave_plateau(i);
        }
        self.clocks[i] = clock_ns;
        self.place(i);
    }

    /// The ranks at the smallest clock, partitioning the runnable set first
    /// if the plateau is not known.  Empty iff nobody is runnable.
    fn plateau(&mut self) -> &[usize] {
        if self.plateau_len == 0 && !self.clocks.is_empty() {
            // One pass finds the smallest clock, where it first occurs and
            // how often.  Written as selects on purpose: clocks sit in no
            // particular order, so a branch per new minimum mispredicts,
            // and a plain `min` reduction gets vectorized into emulated
            // 64-bit compares that cost more than they save on the handful
            // of ranks a small cluster has.
            let (mut min_clock, mut first, mut count) = (u64::MAX, 0, 0);
            for (i, &clock_ns) in self.clocks.iter().enumerate() {
                let less = clock_ns < min_clock;
                count = if less {
                    1
                } else {
                    count + usize::from(clock_ns == min_clock)
                };
                first = if less { i } else { first };
                min_clock = if less { clock_ns } else { min_clock };
            }
            // Gather the `count` members at the front; all but the first
            // occurrence lie behind it.
            self.swap_slots(0, first);
            self.plateau_len = 1;
            let mut i = first;
            while self.plateau_len < count {
                i += 1;
                if self.clocks[i] == min_clock {
                    self.swap_slots(i, self.plateau_len);
                    self.plateau_len += 1;
                }
            }
        }
        &self.runnable[..self.plateau_len]
    }
}

/// Of `plateau` (not empty), the rank with the smallest `(tie(rank), rank)`.
fn min_by_tie(plateau: &[usize], tie: impl Fn(usize) -> u64) -> usize {
    plateau
        .iter()
        .map(|&rank| (tie(rank), rank))
        .min()
        .expect("the plateau of a non-empty runnable set has a member")
        .1
}

/// The deterministic cooperative scheduler (see the crate docs for the
/// protocol).
#[derive(Debug)]
pub struct Scheduler {
    state: RefCell<SchedState>,
    config: SchedConfig,
    nprocs: usize,
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;
/// `FNV_PRIME`⁶ (wrapping).  Folding a zero byte is a multiplication by the
/// prime and nothing else, so six of them are one multiplication by this.
const FNV_PRIME_POW6: u64 = {
    let squared = FNV_PRIME.wrapping_mul(FNV_PRIME);
    squared.wrapping_mul(squared).wrapping_mul(squared)
};

/// Fold the eight little-endian bytes of `word` into the FNV-1a state `h`.
fn fnv1a_fold(mut h: u64, word: u64) -> u64 {
    for b in word.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// [`fnv1a_fold`] of a rank.  Ranks below 2¹⁶ — every rank a `tdsm-core`
/// cluster can have — fold their two non-zero bytes and collapse the six
/// zero ones into one multiplication; anything larger takes the byte loop.
fn fnv1a_fold_rank(h: u64, rank: u64) -> u64 {
    if rank < 1 << 16 {
        let h = (h ^ (rank & 0xff)).wrapping_mul(FNV_PRIME);
        let h = (h ^ (rank >> 8)).wrapping_mul(FNV_PRIME);
        h.wrapping_mul(FNV_PRIME_POW6)
    } else {
        fnv1a_fold(h, rank)
    }
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
            clocks: vec![0; nprocs],
            slot: (0..nprocs).collect(),
            plateau_len: nprocs,
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
        // `(clock, tie-break, rank)`, so only the plateau — the ranks at the
        // smallest clock — can win: everybody else loses on the first
        // component and is never looked at, let alone hashed.
        let rank = match *state.plateau() {
            [] => {
                // Either every processor finished or the unfinished ones are
                // all blocked (a simulated deadlock). In both cases nobody
                // holds the turn — clearing `current` is what stops the
                // driver's pick loop; leaving it stale would let it resume a
                // processor the schedule never chose.
                state.current = None;
                if state.finished != state.procs.len() {
                    state.aborted = true;
                }
                return;
            }
            [only] => only,
            ref plateau => match config.mode {
                ScheduleMode::Fifo => min_by_tie(plateau, |rank| rank as u64),
                ScheduleMode::Seeded => {
                    // FNV-1a of `(seed, decision index, rank)`: the first
                    // two words are the same for every candidate, so they
                    // are hashed once per decision and each candidate folds
                    // in its rank.
                    let prefix = fnv1a_fold(fnv1a_fold(FNV_OFFSET, config.seed), decisions);
                    min_by_tie(plateau, |rank| fnv1a_fold_rank(prefix, rank as u64))
                }
            },
        };
        state.current = Some(rank);
        if let Some(trace) = state.trace.as_mut() {
            trace.push((decisions, rank));
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
        state.set_clock(rank, clock_ns);
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
                    state.add_runnable(rank, clock_ns);
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
    use proptest::rng::TestRng;

    /// The seeded tie-break hash as one call over `(seed, decision index,
    /// rank)` — what `pick` computed per candidate before it hashed the
    /// common prefix once.  Kept as the reference the fold is tested against.
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

    /// The scheduling decision as `pick` took it before the dense clock
    /// array and the prefix hash, kept verbatim as the reference (it returns
    /// the rank instead of installing it): clocks read through
    /// `procs[rank]`, one three-word hash per plateau member, candidates
    /// compared as `Option<(u64, usize)>`.
    fn reference_pick(state: &SchedState, config: &SchedConfig) -> Option<usize> {
        let decisions = state.decisions;
        let tie = |rank: usize| match config.mode {
            ScheduleMode::Fifo => rank as u64,
            ScheduleMode::Seeded => fnv1a_words(&[config.seed, decisions, rank as u64]),
        };
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
                let key = (tie(rank), rank);
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
        }
        best.map(|(_, rank)| rank)
    }

    /// What the runnable set must look like after every decision: `slot`
    /// and `clocks` agree with `runnable` and with the processor states, and
    /// the plateau is exactly the ranks at the smallest clock.
    fn assert_partitioned(state: &SchedState) {
        assert_eq!(state.runnable.len(), state.clocks.len());
        for (i, (&rank, &clock_ns)) in state.runnable.iter().zip(&state.clocks).enumerate() {
            assert_eq!(state.slot[rank], i);
            assert_eq!(state.procs[rank], ProcState::Runnable { clock_ns });
        }
        let in_set = state.slot.iter().filter(|&&i| i != NO_SLOT).count();
        assert_eq!(in_set, state.runnable.len());
        assert_eq!(state.plateau_len == 0, state.runnable.is_empty());
        let (plateau, rest) = state.clocks.split_at(state.plateau_len);
        if let Some(&min_clock) = plateau.first() {
            assert!(plateau.iter().all(|&c| c == min_clock));
            assert!(rest.iter().all(|&c| c > min_clock));
        }
    }

    #[test]
    fn rank_fold_equals_the_three_word_hash() {
        let mut rng = TestRng::new(7);
        let mut inputs = vec![(0, 0), (0, 1), (0x5eed, 1), (u64::MAX, u64::MAX)];
        for _ in 0..32 {
            inputs.push((rng.next_u64(), rng.next_u64()));
        }
        for (seed, decisions) in inputs {
            let prefix = fnv1a_fold(fnv1a_fold(FNV_OFFSET, seed), decisions);
            // Every rank a cluster can have (256 is the first with a
            // non-zero second byte), then the edge of the two-byte form and
            // the byte-loop fallback beyond it.
            for rank in (0..=1024).chain([65_535, 65_536, u64::MAX]) {
                assert_eq!(
                    fnv1a_fold_rank(prefix, rank),
                    fnv1a_words(&[seed, decisions, rank]),
                    "seed {seed:#x} decision {decisions:#x} rank {rank}"
                );
            }
        }
    }

    /// Random `Yield`/`Block`/`Wake`/`finish` scripts: after every transition
    /// the installed pick must be the one the reference takes on the same
    /// state.  Clock increments are drawn from a few values so plateaus of
    /// every size occur, from the all-ranks tie at start to single members.
    #[test]
    fn pick_matches_the_reference_on_random_scripts() {
        const KEYS: [WaitKey; 3] = [WaitKey::Lock(0), WaitKey::Lock(9), WaitKey::Barrier(4)];
        for nprocs in [1usize, 2, 7, 300, 1024] {
            for config in [SchedConfig::fifo(), SchedConfig::seeded(31 * nprocs as u64)] {
                let mut rng = TestRng::new(0x5eed ^ nprocs as u64);
                let sched = Scheduler::new(nprocs, config);
                let check = |after: &str| {
                    let state = sched.state.borrow();
                    assert_partitioned(&state);
                    assert_eq!(
                        state.current,
                        reference_pick(&state, &config),
                        "{nprocs} procs, {config:?}, decision {} after {after}",
                        state.decisions
                    );
                };
                check("new");
                let mut clocks = vec![0u64; nprocs];
                let mut steps_left = vec![(2000 / nprocs).max(6); nprocs];
                let mut blocked = 0usize;
                while let Some(rank) = sched.current() {
                    // The last runnable rank wakes everybody before it parks
                    // or retires, so no script deadlocks.
                    if sched.state.borrow().runnable.len() == 1 && blocked > 0 {
                        let woken: usize = KEYS.iter().map(|&key| sched.wake_all(key)).sum();
                        assert_eq!(woken, blocked);
                        blocked = 0;
                    }
                    if steps_left[rank] == 0 {
                        sched.finish(rank);
                        check("finish");
                        continue;
                    }
                    steps_left[rank] -= 1;
                    clocks[rank] += [0, 0, 1, 7, 100][rng.below(5) as usize];
                    let key = KEYS[rng.below(3) as usize];
                    let others_runnable = sched.state.borrow().runnable.len() > 1;
                    match rng.below(8) {
                        0..=1 if others_runnable => {
                            sched.note_block(rank, key, clocks[rank]);
                            blocked += 1;
                            check("block");
                        }
                        2 => {
                            blocked -= sched.wake_all(key);
                            sched.note_yield(rank, clocks[rank]);
                            check("wake + yield");
                        }
                        _ => {
                            sched.note_yield(rank, clocks[rank]);
                            check("yield");
                        }
                    }
                }
                assert_eq!(sched.abort_dump(), None);
                assert_eq!(sched.state.borrow().finished, nprocs);
            }
        }
    }

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
