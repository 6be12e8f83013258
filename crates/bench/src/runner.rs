//! Parallel executor for [`Experiment`]s.
//!
//! Cells are independent simulations, so the runner fans them out over a
//! std-thread worker pool (no external crates): workers pull cell indices
//! from a shared atomic counter and write results into a slot-per-cell
//! vector, so the result order is always the experiment's definition order
//! however many workers ran or how they were scheduled.
//!
//! Determinism: the pool adds none of its own nondeterminism — a cell
//! computes the same result whichever worker runs it — and since the
//! deterministic scheduling rework the cells themselves are bit-identical
//! run to run, lock-based applications (TSP, Water) included: each cell's
//! FNV-1a identity seed is consumed by `tm_sched`'s turn-taking scheduler
//! inside `Dsm::run`, so every measurement is a pure function of
//! `(app, policy, nprocs, seed, schedule mode)`. Only the host wall-clock
//! fields differ between identical runs, and those never reach the
//! machine-readable formats.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use tdsm_core::{CommBreakdown, GcCounters, LinkStats, RaceRecord};

use crate::experiment::{Cell, Experiment};

/// How to execute an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunnerOptions {
    /// Worker threads; `0` means one per available CPU (capped at the cell
    /// count).
    pub threads: usize,
}

impl Default for RunnerOptions {
    fn default() -> Self {
        RunnerOptions { threads: 0 }
    }
}

/// The measurements of one executed cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// The configuration that produced this result.
    pub cell: Cell,
    /// Modeled parallel execution time (ns, simulated cluster clock).
    pub exec_time_ns: u64,
    /// Verification checksum of the run.
    pub checksum: f64,
    /// The paper's full communication breakdown, including the
    /// false-sharing signature.
    pub breakdown: CommBreakdown,
    /// Interval-log garbage-collection counters of the run (identical under
    /// eager and lazy diff timing — they are a pure function of the
    /// write-notice flow).
    pub gc: GcCounters,
    /// Per-link occupancy counters of the modeled interconnect — empty for
    /// the ideal topology (no links are modeled), one entry per link
    /// otherwise (the shared bus has one, a switch one per processor port).
    pub links: Vec<LinkStats>,
    /// The happens-before detector's race set: `None` when the cell ran
    /// without `--racecheck` (the default), `Some` — possibly empty, which
    /// is the explicit "checked and race-free" verdict — when it ran with
    /// it.  Deterministically sorted; bit-identical across reruns of a
    /// fixed cell.
    pub races: Option<Vec<RaceRecord>>,
    /// Host wall-clock time spent simulating this cell (ns) — the harness's
    /// own perf trajectory, not a paper quantity.
    pub host_wall_ns: u64,
}

/// The outcome of one experiment run: results in cell-definition order plus
/// how the run was executed.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentResult {
    /// Experiment machine name.
    pub name: String,
    /// Report title.
    pub title: String,
    /// Worker threads actually used.
    pub threads: usize,
    /// Host wall-clock time of the whole run (ns).
    pub host_wall_ns: u64,
    /// One result per cell, in the experiment's definition order.
    pub cells: Vec<CellResult>,
}

impl ExperimentResult {
    /// A copy with every host wall-clock field zeroed — the exact value the
    /// machine-readable formats describe (host timing is display-only, so
    /// emitted documents stay byte-identical across reruns) and therefore
    /// the fixed point of an emit → parse round-trip.
    pub fn without_host_times(&self) -> ExperimentResult {
        let mut out = self.clone();
        out.host_wall_ns = 0;
        for cell in &mut out.cells {
            cell.host_wall_ns = 0;
        }
        out
    }
}

/// Execute one cell (panics if its size label is not in the registry —
/// named experiments only build resolvable cells).
pub fn run_cell(cell: &Cell) -> CellResult {
    let w = cell
        .workload()
        .unwrap_or_else(|| panic!("cell {} does not resolve to a workload", cell.key()));
    let cfg = cell.config();
    let started = Instant::now();
    let run = w.run_parallel(&cfg);
    CellResult {
        cell: cell.clone(),
        exec_time_ns: run.exec_time_ns,
        checksum: run.checksum,
        breakdown: run.breakdown,
        gc: run.stats.gc_counters(),
        links: run.stats.links.clone(),
        races: cell.racecheck.then(|| run.stats.races.clone()),
        host_wall_ns: started.elapsed().as_nanos() as u64,
    }
}

/// Execute every cell of `exp` on a worker pool and collect the results in
/// definition order.
pub fn run_experiment(exp: &Experiment, opts: &RunnerOptions) -> ExperimentResult {
    let started = Instant::now();
    let threads = effective_threads(opts.threads, exp.cells.len());
    let mut slots: Vec<Option<CellResult>> = Vec::new();
    slots.resize_with(exp.cells.len(), || None);

    if threads <= 1 {
        for (i, cell) in exp.cells.iter().enumerate() {
            slots[i] = Some(run_cell(cell));
        }
    } else {
        let next = AtomicUsize::new(0);
        let results = Mutex::new(&mut slots);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(cell) = exp.cells.get(i) else { break };
                    let result = run_cell(cell);
                    results.lock().expect("runner mutex poisoned")[i] = Some(result);
                });
            }
        });
    }

    ExperimentResult {
        name: exp.name.clone(),
        title: exp.title.clone(),
        threads,
        host_wall_ns: started.elapsed().as_nanos() as u64,
        cells: slots
            .into_iter()
            .map(|r| r.expect("worker pool left a cell unexecuted"))
            .collect(),
    }
}

/// Resolve the requested thread count: `0` = one per available CPU, always
/// capped at the number of cells and at least 1.
pub fn effective_threads(requested: usize, cells: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let n = if requested == 0 { hw } else { requested };
    n.clamp(1, cells.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BenchArgs;
    use crate::Experiment;

    #[test]
    fn parallel_run_matches_sequential_run_exactly() {
        let args = BenchArgs {
            nprocs: 2,
            scale: crate::Scale::Tiny,
            ..BenchArgs::defaults(2)
        };
        let exp = Experiment::dyn_group(&args);
        let seq = run_experiment(&exp, &RunnerOptions { threads: 1 });
        let par = run_experiment(&exp, &RunnerOptions { threads: 4 });
        assert_eq!(seq.cells.len(), exp.cells.len());
        // Same cells, same measurements, same order — scheduling must not
        // leak into the results (host wall time differs, of course).
        for (s, p) in seq.cells.iter().zip(&par.cells) {
            assert_eq!(s.cell, p.cell);
            assert_eq!(s.exec_time_ns, p.exec_time_ns);
            assert_eq!(s.checksum, p.checksum);
            assert_eq!(s.breakdown, p.breakdown);
        }
        assert_eq!(seq.threads, 1);
        assert!(par.threads > 1);
    }

    #[test]
    fn thread_resolution_clamps_sanely() {
        assert_eq!(effective_threads(3, 100), 3);
        assert_eq!(effective_threads(8, 2), 2);
        assert_eq!(effective_threads(5, 0), 1);
        assert!(effective_threads(0, 100) >= 1);
    }
}
