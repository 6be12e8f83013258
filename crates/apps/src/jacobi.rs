//! Jacobi — iterative solver for a differential equation on a square grid.
//!
//! Sharing structure (paper §5.5): each processor owns a band of rows; in
//! every iteration it recomputes its rows from the previous grid and only
//! needs the *boundary rows* of its neighbours.  Boundary rows are entirely
//! written by their owner, so the pages holding them carry true sharing; any
//! private row co-located on the same consistency unit becomes useless data.
//! There are never useless messages.
//!
//! Data-set sizes follow the paper: 1K×1K (a row of `f32` is exactly one
//! 4 KB page) and 2K×2K (a row spans two pages, so 8 KB units aggregate the
//! boundary exchange into one fault).  The iteration count is scaled down —
//! the sharing pattern repeats identically every iteration.

use tdsm_core::Dsm;

use crate::common::{block_range, AppConfig, AppRun};

/// Size of a Jacobi run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JacobiSize {
    /// Number of grid rows.
    pub rows: usize,
    /// Number of grid columns (a row is `cols * 4` bytes).
    pub cols: usize,
    /// Number of relaxation iterations.
    pub iters: usize,
}

impl JacobiSize {
    /// The paper's 1K×1K data set (boundary row = one 4 KB page).
    pub fn small() -> Self {
        JacobiSize {
            rows: 256,
            cols: 1024,
            iters: 4,
        }
    }

    /// The paper's 2K×2K data set (boundary row = two pages).
    pub fn large() -> Self {
        JacobiSize {
            rows: 256,
            cols: 2048,
            iters: 4,
        }
    }

    /// A tiny size for unit tests.
    pub fn tiny() -> Self {
        JacobiSize {
            rows: 32,
            cols: 256,
            iters: 2,
        }
    }

    /// The `--scale large` stress tier: a 1K×2K grid relaxed for 64
    /// iterations.  Before interval garbage collection landed this tier was
    /// memory-prohibitive — every iteration's diffs (≈16 MB across both
    /// grids) stayed in the interval logs for the whole run; with the GC the
    /// logs hold only the watermark lag (a few iterations' worth).
    pub fn huge() -> Self {
        JacobiSize {
            rows: 1024,
            cols: 2048,
            iters: 64,
        }
    }

    /// Label used in reports ("1Kx1K"-style, describing the *row* width the
    /// size reproduces).
    pub fn label(&self) -> String {
        format!("{}x{}", self.rows, self.cols)
    }
}

fn initial_value(r: usize, c: usize, cols: usize) -> f32 {
    // A smooth but non-trivial boundary/interior initialisation.
    ((r * cols + c) % 97) as f32 / 97.0 + if r == 0 || c == 0 { 1.0 } else { 0.0 }
}

fn relax(up: f32, down: f32, left: f32, right: f32) -> f32 {
    0.25 * (up + down + left + right)
}

/// Relax the interior of one row from the row above it, the row itself and
/// the row below it; the two end elements of `out` are left as they are.
///
/// Written over sub-slices of equal length, so the loop carries no bounds
/// check and vectorises; every lane evaluates [`relax`] as the scalar loop
/// would.
fn relax_row(out: &mut [f32], up: &[f32], mid: &[f32], down: &[f32]) {
    let Some(inner) = mid.len().checked_sub(2) else {
        return;
    };
    let cells = out[1..1 + inner]
        .iter_mut()
        .zip(&up[1..])
        .zip(&down[1..])
        .zip(&mid[..inner])
        .zip(&mid[2..]);
    for ((((o, &u), &d), &l), &r) in cells {
        *o = relax(u, d, l, r);
    }
}

/// Sequential reference implementation; returns the verification checksum.
pub fn run_sequential(size: &JacobiSize) -> f64 {
    let (rows, cols) = (size.rows, size.cols);
    let row = |r: usize| r * cols..(r + 1) * cols;
    let mut grid = vec![0.0f32; rows * cols];
    for r in 0..rows {
        for c in 0..cols {
            grid[r * cols + c] = initial_value(r, c, cols);
        }
    }
    // The boundary never changes and every interior element is rewritten in
    // every iteration, so a scratch grid that starts as a copy is, after the
    // relaxation, exactly the grid the copy-back of the DSM version produces.
    let mut scratch = grid.clone();
    for _ in 0..size.iters {
        for r in 1..rows - 1 {
            relax_row(
                &mut scratch[row(r)],
                &grid[row(r - 1)],
                &grid[row(r)],
                &grid[row(r + 1)],
            );
        }
        std::mem::swap(&mut grid, &mut scratch);
    }
    grid.iter().map(|&v| v as f64).sum()
}

/// DSM implementation on `cfg.nprocs` processors.
pub fn run_parallel(cfg: &AppConfig, size: &JacobiSize) -> AppRun {
    let (rows, cols) = (size.rows, size.cols);
    let iters = size.iters;
    let mut dsm = Dsm::new(cfg.clone());
    let grid = dsm.alloc_matrix::<f32>(rows, cols);
    let scratch = dsm.alloc_matrix::<f32>(rows, cols);

    let out = dsm.run(async |ctx| {
        let me = ctx.rank();
        let nprocs = ctx.nprocs();
        let my_rows = block_range(rows, nprocs, me);

        // Each processor initialises its own band (owner-computes).
        for r in my_rows.clone() {
            let row: Vec<f32> = (0..cols).map(|c| initial_value(r, c, cols)).collect();
            grid.write_row(ctx, r, &row).await;
            ctx.compute(cols as u64 * 50);
        }
        ctx.barrier().await;

        // Row buffers reused across the whole run: the relaxation loop
        // touches hundreds of thousands of rows, so per-row allocation is
        // pure overhead.
        let mut up = Vec::new();
        let mut mid = Vec::new();
        let mut down = Vec::new();
        let mut new_row = Vec::new();
        for _ in 0..iters {
            // Relaxation: rows of my band; the first and last need the
            // neighbour's boundary row.
            for r in my_rows.clone() {
                if r == 0 || r == rows - 1 {
                    continue;
                }
                grid.read_row_into(ctx, r - 1, &mut up).await;
                grid.read_row_into(ctx, r, &mut mid).await;
                grid.read_row_into(ctx, r + 1, &mut down).await;
                new_row.clear();
                new_row.extend_from_slice(&mid);
                relax_row(&mut new_row, &up, &mid, &down);
                // 4 flops + 4 loads per interior element on a 166 MHz
                // Pentium, scaled up by the factor the grid was scaled down
                // (EXPERIMENTS.md) so the compute/communication ratio matches
                // the paper's data-set sizes.
                ctx.compute(cols as u64 * 400);
                scratch.write_row(ctx, r, &new_row).await;
            }
            ctx.barrier().await;
            // Copy scratch back into the grid (own band only).
            for r in my_rows.clone() {
                if r == 0 || r == rows - 1 {
                    continue;
                }
                scratch.read_row_into(ctx, r, &mut mid).await;
                grid.write_row(ctx, r, &mid).await;
                ctx.compute(cols as u64 * 100);
            }
            ctx.barrier().await;
        }

        // Verification (not part of the measured execution).
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

    AppRun::new("Jacobi", size.label(), out.results[0], out.stats)
}

/// The data-set sizes reported in the paper's figures for Jacobi.
pub fn paper_sizes() -> Vec<JacobiSize> {
    vec![JacobiSize::small(), JacobiSize::large()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::checksums_match;
    use proptest::prelude::*;
    use tdsm_core::UnitPolicy;

    /// The stencil as it was first written, one bounds-checked index at a
    /// time: the oracle for [`relax_row`].
    fn relax_row_reference(out: &mut [f32], up: &[f32], mid: &[f32], down: &[f32]) {
        for c in 1..mid.len() - 1 {
            out[c] = relax(up[c], down[c], mid[c - 1], mid[c + 1]);
        }
    }

    proptest! {
        /// Every lane of the slice kernel is the scalar result, bit for bit,
        /// down to rows with an empty (`cols` = 2) or one-element interior.
        #[test]
        fn slice_kernel_equals_the_indexed_loop(
            drawn_cols in 4usize..70,
            values in prop::collection::vec(-4_000_000i32..4_000_000, 4 * 70),
        ) {
            for cols in [2, 3, drawn_cols] {
                let rows: Vec<Vec<f32>> = values
                    .chunks(70)
                    .map(|row| row[..cols].iter().map(|&v| v as f32 / 977.0).collect())
                    .collect();
                let (up, mid, down) = (&rows[0], &rows[1], &rows[2]);
                let (mut fast, mut slow) = (rows[3].clone(), rows[3].clone());
                relax_row(&mut fast, up, mid, down);
                relax_row_reference(&mut slow, up, mid, down);
                let bits = |row: &[f32]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&fast), bits(&slow));
                prop_assert_eq!(fast[0].to_bits(), rows[3][0].to_bits());
                prop_assert_eq!(fast[cols - 1].to_bits(), rows[3][cols - 1].to_bits());
            }
        }
    }

    #[test]
    fn parallel_matches_sequential_on_one_proc() {
        let size = JacobiSize::tiny();
        let seq = run_sequential(&size);
        let par = run_parallel(&AppConfig::with_procs(1), &size);
        assert!(
            checksums_match(par.checksum, seq, 1e-12),
            "{} vs {seq}",
            par.checksum
        );
    }

    #[test]
    fn parallel_matches_sequential_on_four_procs() {
        let size = JacobiSize::tiny();
        let seq = run_sequential(&size);
        let par = run_parallel(&AppConfig::with_procs(4), &size);
        assert!(checksums_match(par.checksum, seq, 1e-12));
        // Neighbour exchange over barriers: some communication, all of it
        // useful messages (the paper: Jacobi never has useless messages).
        assert!(par.breakdown.total_messages() > 0);
        assert_eq!(par.breakdown.useless_messages, 0);
    }

    #[test]
    fn larger_units_do_not_change_the_answer() {
        let size = JacobiSize::tiny();
        let seq = run_sequential(&size);
        for unit in [
            UnitPolicy::Static { pages: 2 },
            UnitPolicy::Static { pages: 4 },
            UnitPolicy::Dynamic { max_group_pages: 4 },
        ] {
            let par = run_parallel(&AppConfig::with_procs(4).unit(unit), &size);
            assert!(checksums_match(par.checksum, seq, 1e-12), "unit {unit:?}");
        }
    }
}
