//! Ilink — parallel genetic linkage analysis (master/slave over sparse
//! genarrays).
//!
//! Sharing structure (paper §5.5): the main data structure is a pool of
//! sparse arrays ("genarrays") in shared memory.  The master assigns the
//! non-zero elements to all processors round-robin; every processor updates
//! its assigned elements in place (very fine-grained, scattered writes ⇒
//! extensive write-write false sharing on every page of the pool), then the
//! master reads the whole pool to sum the contributions and writes the
//! rescaled values back, after which all slaves read the master's results.
//! This produces the paper's characteristic signature with peaks at 1 and 7
//! concurrent writers and very few useless messages, and makes aggregation
//! profitable.
//!
//! The real program evaluates pedigree likelihoods on the CLP data set; we
//! substitute a synthetic sparse workload with the same assignment, update
//! and reduction structure (see DESIGN.md, "Application substitutions").

use tdsm_core::{Align, Dsm};

use crate::common::{AppConfig, AppRun, DetRng};

/// Size of an Ilink run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IlinkSize {
    /// Number of genarrays in the pool.
    pub arrays: usize,
    /// Entries per genarray.
    pub entries: usize,
    /// Fraction (in percent) of entries that are non-zero.
    pub density_pct: usize,
    /// Number of likelihood-update iterations.
    pub iterations: usize,
}

impl IlinkSize {
    /// The run standing in for the paper's CLP 2x4x4x4 input.
    pub fn clp() -> Self {
        IlinkSize {
            arrays: 24,
            entries: 4096,
            density_pct: 30,
            iterations: 3,
        }
    }

    /// A tiny size for unit tests.
    pub fn tiny() -> Self {
        IlinkSize {
            arrays: 4,
            entries: 512,
            density_pct: 40,
            iterations: 2,
        }
    }

    /// The `--scale large` stress tier: a 4× pool updated for twice as many
    /// iterations.
    pub fn huge() -> Self {
        IlinkSize {
            arrays: 96,
            entries: 8192,
            density_pct: 30,
            iterations: 6,
        }
    }

    /// Label used in reports.
    pub fn label(&self) -> String {
        format!("CLP-{}x{}", self.arrays, self.entries)
    }
}

/// The deterministic sparsity pattern and initial values of the pool.
/// Returns `(values, nonzero_indices)` where indices are global positions in
/// the flattened pool.
fn build_pool(size: &IlinkSize) -> (Vec<f64>, Vec<usize>) {
    let total = size.arrays * size.entries;
    let mut rng = DetRng::new(0xA5EED + total as u64);
    let mut values = vec![0.0f64; total];
    let mut nonzero = Vec::new();
    for (i, v) in values.iter_mut().enumerate() {
        if rng.next_range(100) < size.density_pct {
            *v = 0.1 + rng.next_f64();
            nonzero.push(i);
        }
    }
    (values, nonzero)
}

/// One slave update of a non-zero element (a stand-in for the per-genotype
/// probability update of the real code).
fn update_element(v: f64, iteration: usize) -> f64 {
    let boost = 1.0 + 1.0 / (iteration as f64 + 2.0);
    (v * boost + 0.01).min(10.0)
}

/// The master's rescaling of an element given the pool-wide sum.
fn rescale_element(v: f64, total: f64) -> f64 {
    if total > 0.0 {
        v / total * 1000.0
    } else {
        v
    }
}

/// Sequential reference implementation; returns the verification checksum.
pub fn run_sequential(size: &IlinkSize) -> f64 {
    let (mut values, nonzero) = build_pool(size);
    for it in 0..size.iterations {
        for &idx in &nonzero {
            values[idx] = update_element(values[idx], it);
        }
        let total: f64 = values.iter().sum();
        for &idx in &nonzero {
            values[idx] = rescale_element(values[idx], total);
        }
    }
    values.iter().sum()
}

/// DSM implementation on `cfg.nprocs` processors.
pub fn run_parallel(cfg: &AppConfig, size: &IlinkSize) -> AppRun {
    let total = size.arrays * size.entries;
    let (initial, nonzero) = build_pool(size);
    let mut dsm = Dsm::new(cfg.clone());
    let pool = dsm.alloc_array::<f64>(total, Align::Page);
    let sum_cell = dsm.alloc_scalar::<f64>(Align::Page);

    let out = dsm.run(async |ctx| {
        let me = ctx.rank();
        let nprocs = ctx.nprocs();

        // The master initialises the whole pool (it owns the input data).
        if me == 0 {
            pool.write_slice(ctx, 0, &initial).await;
            ctx.compute(total as u64 * 4);
        }
        ctx.barrier().await;

        for it in 0..size.iterations {
            // Round-robin assignment of non-zero elements: slave `p` updates
            // the k-th non-zero element when k % nprocs == p.  Scattered,
            // very fine-grained writes across every page of the pool.
            for (k, &idx) in nonzero.iter().enumerate() {
                if k % nprocs != me {
                    continue;
                }
                let v = pool.get(ctx, idx).await;
                pool.set(ctx, idx, update_element(v, it)).await;
                // The real per-genotype likelihood update is thousands of
                // flops; this is what makes Ilink compute-bound despite the
                // heavy fine-grained sharing.
                ctx.compute(150_000);
            }
            ctx.barrier().await;

            // The master reads the entire pool, computes the normalisation
            // sum and rescales every non-zero element.
            if me == 0 {
                let mut total_sum = 0.0f64;
                for a in 0..size.arrays {
                    let chunk = pool.read_vec(ctx, a * size.entries, size.entries).await;
                    total_sum += chunk.iter().sum::<f64>();
                    ctx.compute(size.entries as u64 * 150);
                }
                sum_cell.set(ctx, total_sum).await;
                for &idx in &nonzero {
                    let v = pool.get(ctx, idx).await;
                    pool.set(ctx, idx, rescale_element(v, total_sum)).await;
                    ctx.compute(2_000);
                }
            }
            ctx.barrier().await;

            // All slaves read the master's rescaled values (their next
            // update needs them), reproducing the "afterwards, all slaves
            // read them from the master" phase.
            if me != 0 && it + 1 < size.iterations {
                let mut touched = 0.0f64;
                for (k, &idx) in nonzero.iter().enumerate() {
                    if k % nprocs != me {
                        continue;
                    }
                    touched += pool.get(ctx, idx).await;
                }
                ctx.compute(nonzero.len() as u64 / nprocs as u64 * 500);
                // The value is only read to warm the local copies; fold it
                // into the modeled compute so the read is not optimised away.
                if touched.is_nan() {
                    ctx.compute(1);
                }
            }
        }

        ctx.mark_execution_end();
        if me == 0 {
            let mut sum = 0.0f64;
            for a in 0..size.arrays {
                let chunk = pool.read_vec(ctx, a * size.entries, size.entries).await;
                sum += chunk.iter().sum::<f64>();
            }
            sum
        } else {
            0.0
        }
    });

    AppRun::new("Ilink", size.label(), out.results[0], out.stats)
}

/// The single data-set size reported for Ilink (CLP).
pub fn paper_sizes() -> Vec<IlinkSize> {
    vec![IlinkSize::clp()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::checksums_match;
    use tdsm_core::UnitPolicy;

    #[test]
    fn pool_is_deterministic_and_sparse() {
        let size = IlinkSize::tiny();
        let (a, na) = build_pool(&size);
        let (b, nb) = build_pool(&size);
        assert_eq!(a, b);
        assert_eq!(na, nb);
        assert!(!na.is_empty());
        assert!(na.len() < size.arrays * size.entries);
    }

    #[test]
    fn parallel_matches_sequential() {
        let size = IlinkSize::tiny();
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
        let size = IlinkSize::tiny();
        let seq = run_sequential(&size);
        for unit in [
            UnitPolicy::Static { pages: 2 },
            UnitPolicy::Dynamic { max_group_pages: 8 },
        ] {
            let par = run_parallel(&AppConfig::with_procs(4).unit(unit), &size);
            assert!(checksums_match(par.checksum, seq, 1e-9), "unit {unit:?}");
        }
    }
}
