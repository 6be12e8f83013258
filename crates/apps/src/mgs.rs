//! Modified Gram-Schmidt (MGS) — orthonormalisation of a set of vectors.
//!
//! Sharing structure (paper §5.5): the vectors are distributed cyclically
//! over the processors.  Iteration `k` has two phases: the owner of vector
//! `k` normalises it (the pivot), then — after a barrier — every processor
//! makes its own vectors `j > k` orthogonal to the pivot.  Both the read and
//! the write granularity are exactly one vector.
//!
//! With a vector of 1 K `f32` (4 KB) the granularity matches the page, so
//! the 4 KB unit has essentially no false sharing.  Larger consistency units
//! co-locate vectors owned by *different* processors, so every page is
//! written concurrently and the number of useless messages explodes — MGS is
//! the paper's example of dramatic deterioration (its Figure 2 panel is
//! plotted on a log scale) and of a rightward shift of the false-sharing
//! signature (Figure 3).

use tdsm_core::Dsm;

use crate::common::{AppConfig, AppRun};

/// Size of an MGS run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MgsSize {
    /// Number of vectors to orthonormalise.
    pub nvec: usize,
    /// Dimension of each vector (elements of `f32`; 1024 ⇒ 4 KB).
    pub dim: usize,
}

impl MgsSize {
    /// The paper's 1K×1K data set: vector = one 4 KB page.
    pub fn v1k() -> Self {
        MgsSize {
            nvec: 48,
            dim: 1024,
        }
    }

    /// The paper's 2K×2K data set: vector = two pages.
    pub fn v2k() -> Self {
        MgsSize {
            nvec: 48,
            dim: 2048,
        }
    }

    /// The paper's 1K×4K data set: vector = four pages.
    pub fn v4k() -> Self {
        MgsSize {
            nvec: 48,
            dim: 4096,
        }
    }

    /// The paper's 1K×0.5K data set: two vectors per page.
    pub fn v05k() -> Self {
        MgsSize { nvec: 48, dim: 512 }
    }

    /// A tiny size for unit tests.
    pub fn tiny() -> Self {
        MgsSize { nvec: 12, dim: 256 }
    }

    /// The `--scale large` stress tier: twice the vectors of the paper
    /// runs at an eight-page vector.
    pub fn huge() -> Self {
        MgsSize {
            nvec: 96,
            dim: 8192,
        }
    }

    /// Label used in reports.
    pub fn label(&self) -> String {
        format!("{}x{}", self.nvec, self.dim)
    }
}

fn initial_element(v: usize, d: usize) -> f32 {
    // Deterministic, well-conditioned starting vectors.
    1.0 + ((v * 31 + d * 7) % 101) as f32 / 101.0 + if v == d { 4.0 } else { 0.0 }
}

fn normalise(vec: &mut [f32]) {
    let norm = vec
        .iter()
        .map(|&x| (x as f64) * (x as f64))
        .sum::<f64>()
        .sqrt() as f32;
    for x in vec.iter_mut() {
        *x /= norm;
    }
}

fn orthogonalise(target: &mut [f32], pivot: &[f32]) {
    let dot = target
        .iter()
        .zip(pivot.iter())
        .map(|(&a, &b)| a as f64 * b as f64)
        .sum::<f64>() as f32;
    for (t, &p) in target.iter_mut().zip(pivot.iter()) {
        *t -= dot * p;
    }
}

/// Sequential reference implementation; returns the verification checksum.
pub fn run_sequential(size: &MgsSize) -> f64 {
    let (nvec, dim) = (size.nvec, size.dim);
    let mut vecs: Vec<Vec<f32>> = (0..nvec)
        .map(|v| (0..dim).map(|d| initial_element(v, d)).collect())
        .collect();
    for k in 0..nvec {
        let (head, tail) = vecs.split_at_mut(k + 1);
        normalise(&mut head[k]);
        for target in tail.iter_mut() {
            orthogonalise(target, &head[k]);
        }
    }
    vecs.iter()
        .flat_map(|v| v.iter())
        .map(|&x| x.abs() as f64)
        .sum()
}

/// DSM implementation on `cfg.nprocs` processors.
pub fn run_parallel(cfg: &AppConfig, size: &MgsSize) -> AppRun {
    let (nvec, dim) = (size.nvec, size.dim);
    let mut dsm = Dsm::new(cfg.clone());
    // All vectors live contiguously in shared memory, vector-aligned (page
    // aligned when dim*4 is a multiple of the page size) — the layout that
    // produces the paper's co-location effects at larger units.
    let vectors = dsm.alloc_matrix::<f32>(nvec, dim);

    let out = dsm.run(async |ctx| {
        let me = ctx.rank();
        let nprocs = ctx.nprocs();
        // Cyclic distribution: vector v is owned by processor v % nprocs.
        for v in (0..nvec).filter(|v| v % nprocs == me) {
            let row: Vec<f32> = (0..dim).map(|d| initial_element(v, d)).collect();
            vectors.write_row(ctx, v, &row).await;
            ctx.compute(dim as u64 * 100);
        }
        ctx.barrier().await;

        for k in 0..nvec {
            // Phase 1: the owner normalises the pivot vector.
            if k % nprocs == me {
                let mut pivot = vectors.read_row(ctx, k).await;
                normalise(&mut pivot);
                ctx.compute(dim as u64 * 1000);
                vectors.write_row(ctx, k, &pivot).await;
            }
            ctx.barrier().await;
            // Phase 2: every processor orthogonalises its own later vectors
            // against the pivot.
            let pivot = vectors.read_row(ctx, k).await;
            for v in (k + 1..nvec).filter(|v| v % nprocs == me) {
                let mut target = vectors.read_row(ctx, v).await;
                // Per-element dot product + update cost, scaled up by the
                // vector-count reduction documented in EXPERIMENTS.md.
                orthogonalise(&mut target, &pivot);
                ctx.compute(dim as u64 * 2500);
                vectors.write_row(ctx, v, &target).await;
            }
            // No barrier is needed after the orthogonalisation phase: the
            // only vector the next iteration touches before its barrier is
            // the new pivot, and only its owner (who just orthogonalised it
            // in program order) touches it.
        }

        ctx.mark_execution_end();
        if me == 0 {
            let mut sum = 0.0f64;
            for v in 0..nvec {
                sum += vectors
                    .read_row(ctx, v)
                    .await
                    .iter()
                    .map(|&x| x.abs() as f64)
                    .sum::<f64>();
            }
            sum
        } else {
            0.0
        }
    });

    AppRun::new("MGS", size.label(), out.results[0], out.stats)
}

/// The data-set sizes reported in the paper's figures for MGS.
pub fn paper_sizes() -> Vec<MgsSize> {
    vec![
        MgsSize::v05k(),
        MgsSize::v1k(),
        MgsSize::v2k(),
        MgsSize::v4k(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::checksums_match;
    use tdsm_core::UnitPolicy;

    #[test]
    fn parallel_matches_sequential() {
        let size = MgsSize::tiny();
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
    fn orthonormal_result() {
        // The sequential kernel really orthonormalises: check a couple of
        // inner products directly.
        let size = MgsSize::tiny();
        let (nvec, dim) = (size.nvec, size.dim);
        let mut vecs: Vec<Vec<f32>> = (0..nvec)
            .map(|v| (0..dim).map(|d| initial_element(v, d)).collect())
            .collect();
        for k in 0..nvec {
            let (head, tail) = vecs.split_at_mut(k + 1);
            normalise(&mut head[k]);
            for target in tail.iter_mut() {
                orthogonalise(target, &head[k]);
            }
        }
        let dot = |a: &[f32], b: &[f32]| {
            a.iter()
                .zip(b)
                .map(|(&x, &y)| x as f64 * y as f64)
                .sum::<f64>()
        };
        assert!((dot(&vecs[0], &vecs[0]) - 1.0).abs() < 1e-4);
        assert!(dot(&vecs[0], &vecs[5]).abs() < 1e-3);
        assert!(dot(&vecs[3], &vecs[7]).abs() < 1e-3);
    }

    #[test]
    fn correct_under_all_unit_policies() {
        let size = MgsSize::tiny();
        let seq = run_sequential(&size);
        for unit in [
            UnitPolicy::Static { pages: 2 },
            UnitPolicy::Static { pages: 4 },
            UnitPolicy::Dynamic { max_group_pages: 8 },
        ] {
            let par = run_parallel(&AppConfig::with_procs(4).unit(unit), &size);
            assert!(checksums_match(par.checksum, seq, 1e-9), "unit {unit:?}");
        }
    }
}
