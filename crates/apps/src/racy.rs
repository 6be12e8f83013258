//! Deliberately racy micro-applications for the race-detector pipeline.
//!
//! The eight suite applications are data-race-free — every cross-processor
//! access is ordered by a lock or a barrier — so they can only demonstrate
//! the detector's *negative* path (an empty race set).  The two fixtures
//! here exercise the positive path with the canonical bug shapes:
//!
//! * [`run_racy_counter`] — an unsynchronized shared counter: every
//!   processor read-modify-writes the same word with no lock, so every pair
//!   of processors races read-write and write-write on that word.
//! * [`run_missing_barrier_jacobi`] — a band-partitioned grid relaxation
//!   whose producer/consumer barrier was "forgotten": each processor reads
//!   its neighbour's boundary row concurrently with the neighbour writing
//!   it, the classic missing-barrier stencil bug.
//!
//! Both are deterministic: under the fixed-seed scheduler the interleaving
//! — and therefore the detector's race set, including the first-occurrence
//! interval timestamps — reproduces bit-identically across reruns (pinned
//! by `tests/racecheck.rs`).  They are intentionally *not* part of the [`crate::suite`] registry, which
//! enumerates exactly the paper's eight applications.

use tdsm_core::{Align, Dsm};

use crate::common::{block_range, AppConfig, AppRun};

/// Unsynchronized shared counter: `rounds` lock-free read-modify-write
/// updates per processor on one shared word.
///
/// Under lazy release consistency the unsynchronized writes are not
/// propagated between the increments (each processor mostly sees its own
/// updates), so the final value is meaningless — but deterministic.  The
/// detector flags the word with read-write and write-write races between
/// every concurrently-incrementing pair of processors.
pub fn run_racy_counter(cfg: &AppConfig, rounds: usize) -> AppRun {
    let mut dsm = Dsm::new(cfg.clone());
    let counter = dsm.alloc_scalar::<u64>(Align::Page);

    let out = dsm.run(async |ctx| {
        for _ in 0..rounds {
            // The bug: no `ctx.acquire`/`ctx.release` around the update.
            let v = counter.get(ctx).await;
            counter.set(ctx, v + 1).await;
            ctx.compute(200);
        }
        ctx.barrier().await;
        ctx.mark_execution_end();
        counter.get(ctx).await
    });

    AppRun::new(
        "RacyCounter",
        format!("{rounds}rounds"),
        out.results.iter().map(|&v| v as f64).sum(),
        out.stats,
    )
}

/// Missing-barrier Jacobi: a band-partitioned relaxation sweep whose
/// write-phase/read-phase barrier is absent.
///
/// Every processor initialises its own row band, then — with **no** barrier
/// in between — reads the last row of the band below it to relax its own
/// boundary row.  The neighbour may still be writing that row, so each
/// adjacent pair of processors has a read-write race over the words of one
/// boundary row.  A correct implementation (see [`crate::jacobi`]) separates
/// the phases with `ctx.barrier()`.
pub fn run_missing_barrier_jacobi(cfg: &AppConfig, rows: usize, cols: usize) -> AppRun {
    let mut dsm = Dsm::new(cfg.clone());
    let grid = dsm.alloc_matrix::<f32>(rows, cols);

    let out = dsm.run(async |ctx| {
        let me = ctx.rank();
        let nprocs = ctx.nprocs();
        let my_rows = block_range(rows, nprocs, me);

        // Phase 1: initialise the own band (owner-computes).
        for r in my_rows.clone() {
            let row: Vec<f32> = (0..cols).map(|c| ((r * cols + c) % 31) as f32).collect();
            grid.write_row(ctx, r, &row).await;
            ctx.compute(cols as u64 * 50);
        }

        // The bug: phase 2 starts here without a `ctx.barrier().await`, so
        // this read of the neighbour's boundary row races with the
        // neighbour's phase-1 writes to it.
        let mut below = vec![0.0f32; cols];
        if me + 1 < nprocs {
            let neighbour_first = block_range(rows, nprocs, me + 1).start;
            grid.read_row_into(ctx, neighbour_first, &mut below).await;
        }
        let boundary = my_rows.end - 1;
        let mut own = Vec::new();
        grid.read_row_into(ctx, boundary, &mut own).await;
        for c in 0..cols {
            own[c] = 0.5 * (own[c] + below[c]);
        }
        grid.write_row(ctx, boundary, &own).await;
        ctx.compute(cols as u64 * 400);

        ctx.barrier().await;
        ctx.mark_execution_end();
        if me == 0 {
            let mut sum = 0.0f64;
            for r in 0..rows {
                sum += grid
                    .read_row(ctx, r)
                    .await
                    .iter()
                    .map(|&v| v as f64)
                    .sum::<f64>();
            }
            sum
        } else {
            0.0
        }
    });

    AppRun::new(
        "MissingBarrierJacobi",
        format!("{rows}x{cols}"),
        out.results[0],
        out.stats,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn racy_counter_reports_races_only_when_checking() {
        let quiet = run_racy_counter(&AppConfig::with_procs(4), 8);
        assert!(
            quiet.stats.races.is_empty(),
            "detector off ⇒ no races reported"
        );
        let checked = run_racy_counter(&AppConfig::with_procs(4).racecheck(true), 8);
        assert!(
            !checked.stats.races.is_empty(),
            "unsynchronized counter must race"
        );
        // Pure observation: the run itself is unchanged by the detector.
        assert_eq!(quiet.checksum, checked.checksum);
        assert_eq!(quiet.exec_time_ns, checked.exec_time_ns);
        assert_eq!(quiet.breakdown, checked.breakdown);
    }

    #[test]
    fn missing_barrier_jacobi_races_and_the_correct_version_does_not() {
        let racy = run_missing_barrier_jacobi(&AppConfig::with_procs(4).racecheck(true), 32, 64);
        assert!(
            !racy.stats.races.is_empty(),
            "missing barrier must produce a read-write race"
        );
        let correct = crate::jacobi::run_parallel(
            &AppConfig::with_procs(4).racecheck(true),
            &crate::jacobi::JacobiSize::tiny(),
        );
        assert!(
            correct.stats.races.is_empty(),
            "the barrier-correct Jacobi is data-race-free: {:?}",
            correct.stats.races
        );
    }
}
