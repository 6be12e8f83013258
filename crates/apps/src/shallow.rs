//! Shallow — the NCAR shallow-water equation benchmark.
//!
//! Sharing structure (paper §5.5): about a dozen two-dimensional grids are
//! partitioned by *column chunks* (columns are contiguous in memory).  Two
//! neighbour patterns coexist on different arrays:
//!
//! * for some arrays a processor writes only its own columns and *reads* the
//!   first column of its right neighbour — the Jacobi-like pattern that
//!   produces piggybacked useless data once a consistency unit holds more
//!   than one column;
//! * for other arrays a processor also *writes* the first column of its right
//!   neighbour without ever reading the neighbour's columns — write-write
//!   false sharing that produces useless messages once a unit holds two
//!   columns.
//!
//! In addition a master processor performs the wrap-around copy of the last
//! column into the first.  With 1 K `f64`-rows a column is exactly one 4 KB
//! page, so the 4 KB unit is false-sharing free and the 8 K/16 K units
//! introduce both effects, matching the paper's smallest data set.

use tdsm_core::Dsm;

use crate::common::{block_range, AppConfig, AppRun};

/// Size of a Shallow run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShallowSize {
    /// Rows per column (a column is `rows * 8` bytes).
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Number of time steps.
    pub steps: usize,
}

impl ShallowSize {
    /// The paper's 1K×0.5K data set (column = one 4 KB page).
    pub fn small() -> Self {
        ShallowSize {
            rows: 512,
            cols: 96,
            steps: 3,
        }
    }

    /// The paper's 2K×0.5K data set (column = two pages).
    pub fn medium() -> Self {
        ShallowSize {
            rows: 1024,
            cols: 96,
            steps: 3,
        }
    }

    /// The paper's 4K×0.5K data set (column = four pages).
    pub fn large() -> Self {
        ShallowSize {
            rows: 2048,
            cols: 96,
            steps: 3,
        }
    }

    /// A tiny size for unit tests.
    pub fn tiny() -> Self {
        ShallowSize {
            rows: 64,
            cols: 24,
            steps: 2,
        }
    }

    /// The `--scale large` stress tier (double the largest paper grid,
    /// twice the steps).
    pub fn huge() -> Self {
        ShallowSize {
            rows: 4096,
            cols: 192,
            steps: 6,
        }
    }

    /// Label used in reports.
    pub fn label(&self) -> String {
        format!("{}x{}", self.rows, self.cols)
    }
}

fn initial_p(r: usize, c: usize) -> f64 {
    50000.0 + ((r * 13 + c * 29) % 500) as f64
}

fn initial_uv(r: usize, c: usize, phase: usize) -> f64 {
    (((r * 7 + c * 3 + phase * 11) % 97) as f64 - 48.0) / 10.0
}

/// Plain column-major grid used by the sequential reference.
struct SeqGrid {
    rows: usize,
    data: Vec<f64>,
}

impl SeqGrid {
    fn new(rows: usize, cols: usize) -> Self {
        SeqGrid {
            rows,
            data: vec![0.0; rows * cols],
        }
    }
    #[inline]
    fn at(&self, r: usize, c: usize) -> f64 {
        self.data[c * self.rows + r]
    }
    #[inline]
    fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[c * self.rows + r] = v;
    }
    fn col(&self, c: usize) -> &[f64] {
        &self.data[c * self.rows..(c + 1) * self.rows]
    }
}

/// One flux-computation step: `cu`, `cv`, `z`, `h` from `u`, `v`, `p`.
/// These reads need the right neighbour's first column (the Jacobi-like
/// pattern).
fn flux(
    u: &[f64],
    v: &[f64],
    p: &[f64],
    u_r: &[f64],
    v_r: &[f64],
    p_r: &[f64],
    rows: usize,
) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
    let mut cu = vec![0.0; rows];
    let mut cv = vec![0.0; rows];
    let mut z = vec![0.0; rows];
    let mut h = vec![0.0; rows];
    for r in 0..rows {
        let rn = (r + 1) % rows;
        cu[r] = 0.5 * (p[r] + p_r[r]) * u_r[r];
        cv[r] = 0.5 * (p[r] + p[rn]) * v[rn];
        z[r] = (4.0 * (v_r[r] - v[r]) - (u[rn] - u[r])) / (p[r] + p_r[r] + 1.0);
        h[r] = p[r] + 0.25 * (u[r] * u[r] + u_r[r] * u_r[r] + v[r] * v[r] + v[rn] * v[rn]);
    }
    (cu, cv, z, h)
}

/// Time-advance step for one column: new `u`, `v`, `p` from the fluxes of
/// this column and the right neighbour.
fn advance(
    cu: &[f64],
    cv: &[f64],
    z: &[f64],
    h: &[f64],
    cu_r: &[f64],
    h_r: &[f64],
    u: &[f64],
    v: &[f64],
    p: &[f64],
    rows: usize,
    dt: f64,
) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let mut un = vec![0.0; rows];
    let mut vn = vec![0.0; rows];
    let mut pn = vec![0.0; rows];
    for r in 0..rows {
        let rp = (r + rows - 1) % rows;
        un[r] = u[r] + dt * (z[r] * 0.5 * (cv[r] + cv[rp]) - (h_r[r] - h[r]) * 1e-4);
        vn[r] = v[r] - dt * (z[r] * 0.5 * (cu[r] + cu_r[r]) + (h[r] - h[rp]) * 1e-4);
        pn[r] = p[r] - dt * (cu_r[r] - cu[r] + cv[r] - cv[rp]) * 1e-2;
    }
    (un, vn, pn)
}

/// Sequential reference implementation; returns the verification checksum.
pub fn run_sequential(size: &ShallowSize) -> f64 {
    let (rows, cols) = (size.rows, size.cols);
    let dt = 0.05;
    let mut u = SeqGrid::new(rows, cols);
    let mut v = SeqGrid::new(rows, cols);
    let mut p = SeqGrid::new(rows, cols);
    for c in 0..cols {
        for r in 0..rows {
            u.set(r, c, initial_uv(r, c, 0));
            v.set(r, c, initial_uv(r, c, 1));
            p.set(r, c, initial_p(r, c));
        }
    }
    for _ in 0..size.steps {
        // Fluxes.
        let mut cu = SeqGrid::new(rows, cols);
        let mut cv = SeqGrid::new(rows, cols);
        let mut z = SeqGrid::new(rows, cols);
        let mut h = SeqGrid::new(rows, cols);
        for c in 0..cols {
            let cr = (c + 1) % cols;
            let (fcu, fcv, fz, fh) = flux(
                u.col(c),
                v.col(c),
                p.col(c),
                u.col(cr),
                v.col(cr),
                p.col(cr),
                rows,
            );
            for r in 0..rows {
                cu.set(r, c, fcu[r]);
                cv.set(r, c, fcv[r]);
                z.set(r, c, fz[r]);
                h.set(r, c, fh[r]);
            }
        }
        // Advance.
        let mut un = SeqGrid::new(rows, cols);
        let mut vn = SeqGrid::new(rows, cols);
        let mut pn = SeqGrid::new(rows, cols);
        for c in 0..cols {
            let cr = (c + 1) % cols;
            let (au, av, ap) = advance(
                cu.col(c),
                cv.col(c),
                z.col(c),
                h.col(c),
                cu.col(cr),
                h.col(cr),
                u.col(c),
                v.col(c),
                p.col(c),
                rows,
                dt,
            );
            for r in 0..rows {
                un.set(r, c, au[r]);
                vn.set(r, c, av[r]);
                pn.set(r, c, ap[r]);
            }
        }
        u = un;
        v = vn;
        p = pn;
    }
    let mut sum = 0.0;
    for c in 0..cols {
        for r in 0..rows {
            sum += p.at(r, c) + u.at(r, c).abs() + v.at(r, c).abs();
        }
    }
    sum
}

/// DSM implementation on `cfg.nprocs` processors.
pub fn run_parallel(cfg: &AppConfig, size: &ShallowSize) -> AppRun {
    let (rows, cols) = (size.rows, size.cols);
    let steps = size.steps;
    let dt = 0.05;
    let mut dsm = Dsm::new(cfg.clone());
    // Column-major storage: "row" of the GMatrix = one grid column.
    let u = dsm.alloc_matrix::<f64>(cols, rows);
    let v = dsm.alloc_matrix::<f64>(cols, rows);
    let p = dsm.alloc_matrix::<f64>(cols, rows);
    let cu = dsm.alloc_matrix::<f64>(cols, rows);
    let cvg = dsm.alloc_matrix::<f64>(cols, rows);
    let zg = dsm.alloc_matrix::<f64>(cols, rows);
    let hg = dsm.alloc_matrix::<f64>(cols, rows);
    let un = dsm.alloc_matrix::<f64>(cols, rows);
    let vn = dsm.alloc_matrix::<f64>(cols, rows);
    let pn = dsm.alloc_matrix::<f64>(cols, rows);

    let out = dsm.run(async |ctx| {
        let me = ctx.rank();
        let nprocs = ctx.nprocs();
        let my_cols = block_range(cols, nprocs, me);

        for c in my_cols.clone() {
            let ucol: Vec<f64> = (0..rows).map(|r| initial_uv(r, c, 0)).collect();
            let vcol: Vec<f64> = (0..rows).map(|r| initial_uv(r, c, 1)).collect();
            let pcol: Vec<f64> = (0..rows).map(|r| initial_p(r, c)).collect();
            u.write_row(ctx, c, &ucol).await;
            v.write_row(ctx, c, &vcol).await;
            p.write_row(ctx, c, &pcol).await;
            ctx.compute(rows as u64 * 100);
        }
        ctx.barrier().await;

        for _ in 0..steps {
            // Flux phase: reads the right neighbour's first column of u, v, p
            // (the Jacobi-like pattern).  The fluxes of my columns are
            // written by me only.
            for c in my_cols.clone() {
                let cr = (c + 1) % cols;
                let ucol = u.read_row(ctx, c).await;
                let vcol = v.read_row(ctx, c).await;
                let pcol = p.read_row(ctx, c).await;
                let ur = u.read_row(ctx, cr).await;
                let vr = v.read_row(ctx, cr).await;
                let pr = p.read_row(ctx, cr).await;
                let (fcu, fcv, fz, fh) = flux(&ucol, &vcol, &pcol, &ur, &vr, &pr, rows);
                // Flux stencil cost per element, scaled up by the
                // column-count reduction documented in EXPERIMENTS.md.
                ctx.compute(rows as u64 * 1500);
                cu.write_row(ctx, c, &fcu).await;
                cvg.write_row(ctx, c, &fcv).await;
                zg.write_row(ctx, c, &fz).await;
                hg.write_row(ctx, c, &fh).await;
            }
            ctx.barrier().await;

            // Advance phase, computed over a range shifted by one column:
            // each processor writes the new time level for columns
            // `start+1 ..= end` (mod cols), i.e. it also writes the *first
            // column of its right neighbour's chunk* of un/vn/pn without ever
            // reading the neighbour's columns of those arrays — the paper's
            // write-write pattern that turns into useless messages once a
            // consistency unit holds more than one column.
            for c in my_cols.clone() {
                let t = (c + 1) % cols;
                let tr = (t + 1) % cols;
                let fcu = cu.read_row(ctx, t).await;
                let fcv = cvg.read_row(ctx, t).await;
                let fz = zg.read_row(ctx, t).await;
                let fh = hg.read_row(ctx, t).await;
                let fcur = cu.read_row(ctx, tr).await;
                let fhr = hg.read_row(ctx, tr).await;
                let ucol = u.read_row(ctx, t).await;
                let vcol = v.read_row(ctx, t).await;
                let pcol = p.read_row(ctx, t).await;
                let (au, av, ap) = advance(
                    &fcu, &fcv, &fz, &fh, &fcur, &fhr, &ucol, &vcol, &pcol, rows, dt,
                );
                ctx.compute(rows as u64 * 1500);
                un.write_row(ctx, t, &au).await;
                vn.write_row(ctx, t, &av).await;
                pn.write_row(ctx, t, &ap).await;
            }
            ctx.barrier().await;

            // Copy-back of the new time level (own columns only), plus the
            // master's wrap-around copy of the last column onto column 0's
            // ghost images in the scratch arrays.
            for c in my_cols.clone() {
                let au = un.read_row(ctx, c).await;
                let av = vn.read_row(ctx, c).await;
                let ap = pn.read_row(ctx, c).await;
                u.write_row(ctx, c, &au).await;
                v.write_row(ctx, c, &av).await;
                p.write_row(ctx, c, &ap).await;
                ctx.compute(rows as u64 * 150);
            }
            if me == 0 {
                let last = pn.read_row(ctx, cols - 1).await;
                hg.write_row(ctx, 0, &last).await;
            }
            ctx.barrier().await;
        }

        ctx.mark_execution_end();
        if me == 0 {
            let mut sum = 0.0f64;
            for c in 0..cols {
                let ucol = u.read_row(ctx, c).await;
                let vcol = v.read_row(ctx, c).await;
                let pcol = p.read_row(ctx, c).await;
                for r in 0..rows {
                    sum += pcol[r] + ucol[r].abs() + vcol[r].abs();
                }
            }
            sum
        } else {
            0.0
        }
    });

    AppRun::new("Shallow", size.label(), out.results[0], out.stats)
}

/// The data-set sizes reported in the paper's figures for Shallow.
pub fn paper_sizes() -> Vec<ShallowSize> {
    vec![
        ShallowSize::small(),
        ShallowSize::medium(),
        ShallowSize::large(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::checksums_match;
    use tdsm_core::UnitPolicy;

    #[test]
    fn parallel_matches_sequential() {
        let size = ShallowSize::tiny();
        let seq = run_sequential(&size);
        for procs in [1usize, 4] {
            let par = run_parallel(&AppConfig::with_procs(procs), &size);
            assert!(
                checksums_match(par.checksum, seq, 1e-9),
                "procs={procs}: {} vs {seq}",
                par.checksum
            );
        }
    }

    #[test]
    fn correct_under_larger_and_dynamic_units() {
        let size = ShallowSize::tiny();
        let seq = run_sequential(&size);
        for unit in [
            UnitPolicy::Static { pages: 2 },
            UnitPolicy::Dynamic { max_group_pages: 4 },
        ] {
            let par = run_parallel(&AppConfig::with_procs(4).unit(unit), &size);
            assert!(checksums_match(par.checksum, seq, 1e-9), "unit {unit:?}");
        }
    }

    #[test]
    fn flux_and_advance_are_deterministic() {
        let rows = 16;
        let u: Vec<f64> = (0..rows).map(|r| initial_uv(r, 0, 0)).collect();
        let v: Vec<f64> = (0..rows).map(|r| initial_uv(r, 0, 1)).collect();
        let p: Vec<f64> = (0..rows).map(|r| initial_p(r, 0)).collect();
        let (cu1, ..) = flux(&u, &v, &p, &u, &v, &p, rows);
        let (cu2, ..) = flux(&u, &v, &p, &u, &v, &p, rows);
        assert_eq!(cu1, cu2);
    }
}
