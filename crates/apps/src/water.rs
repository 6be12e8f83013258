//! Water — molecular dynamics (SPLASH), O(n²) force computation with a
//! cut-off radius.
//!
//! Sharing structure (paper §5.5): the molecule array is shared, allocated
//! contiguously and block-partitioned.  The *intra-molecular* phase updates
//! only a processor's own molecules, but molecules of different owners share
//! pages at partition boundaries (write-write false sharing).  The
//! *inter-molecular* phase has each processor compute the interaction of each
//! of its molecules with each of the n/2 molecules following it (wrap-around)
//! — fine-grained reads that cover half the shared array, plus lock-protected
//! force updates on the partner molecules.  Each molecule record carries
//! private scratch data, which is what produces the large amount of
//! piggybacked useless data the paper reports.
//!
//! The physics is simplified to a generic pairwise potential with a cut-off —
//! the sharing pattern, record layout and synchronization structure are what
//! the study depends on (see DESIGN.md, "Application substitutions").

use tdsm_core::{Align, Dsm};

use crate::common::{block_range, AppConfig, AppRun};

/// Number of `f64` fields per molecule record: 3 position + 3 velocity +
/// 3 force + 15 private scratch words (matching the paper's observation that
/// molecule records carry private data).
pub const MOL_FIELDS: usize = 24;
const CUTOFF2: f64 = 9.0;

/// Size of a Water run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaterSize {
    /// Number of molecules.
    pub molecules: usize,
    /// Number of simulation steps.
    pub steps: usize,
}

impl WaterSize {
    /// The paper-scale run (512 molecules, as in the SPLASH default input).
    pub fn standard() -> Self {
        WaterSize {
            molecules: 512,
            steps: 2,
        }
    }

    /// A tiny size for unit tests.
    pub fn tiny() -> Self {
        WaterSize {
            molecules: 64,
            steps: 2,
        }
    }

    /// The `--scale large` stress tier (2× molecules, one extra step).
    pub fn huge() -> Self {
        WaterSize {
            molecules: 1024,
            steps: 3,
        }
    }

    /// Label used in reports.
    pub fn label(&self) -> String {
        format!("{}mol", self.molecules)
    }
}

fn initial_position(m: usize, d: usize) -> f64 {
    // Spread molecules over a cube of side ~8 with a deterministic jitter.
    let cell = (m * 3 + d) % 512;
    (cell as f64) / 64.0 + ((m * 37 + d * 11) % 17) as f64 / 40.0
}

fn initial_velocity(m: usize, d: usize) -> f64 {
    (((m * 13 + d * 7) % 19) as f64 - 9.0) / 50.0
}

/// Pairwise force with a cut-off; returns the force on `a` due to `b`
/// (equal and opposite on `b`).
fn pair_force(pa: &[f64; 3], pb: &[f64; 3]) -> Option<[f64; 3]> {
    let dx = pa[0] - pb[0];
    let dy = pa[1] - pb[1];
    let dz = pa[2] - pb[2];
    let r2 = dx * dx + dy * dy + dz * dz;
    if r2 >= CUTOFF2 || r2 < 1e-9 {
        return None;
    }
    let inv = 1.0 / (r2 * r2);
    Some([dx * inv, dy * inv, dz * inv])
}

/// Sequential reference implementation; returns the verification checksum.
pub fn run_sequential(size: &WaterSize) -> f64 {
    let n = size.molecules;
    let mut mol = vec![0.0f64; n * MOL_FIELDS];
    for m in 0..n {
        for d in 0..3 {
            mol[m * MOL_FIELDS + d] = initial_position(m, d);
            mol[m * MOL_FIELDS + 3 + d] = initial_velocity(m, d);
        }
    }
    for _ in 0..size.steps {
        // Intra-molecular phase: local damping of the velocity plus clearing
        // of the force accumulator.
        for m in 0..n {
            for d in 0..3 {
                mol[m * MOL_FIELDS + 3 + d] *= 0.999;
                mol[m * MOL_FIELDS + 6 + d] = 0.0;
            }
        }
        // Inter-molecular phase: each molecule interacts with the n/2
        // molecules following it (wrap-around), forces applied to both.
        for m in 0..n {
            let pa = [
                mol[m * MOL_FIELDS],
                mol[m * MOL_FIELDS + 1],
                mol[m * MOL_FIELDS + 2],
            ];
            for k in 1..=n / 2 {
                let o = (m + k) % n;
                let pb = [
                    mol[o * MOL_FIELDS],
                    mol[o * MOL_FIELDS + 1],
                    mol[o * MOL_FIELDS + 2],
                ];
                if let Some(f) = pair_force(&pa, &pb) {
                    for d in 0..3 {
                        mol[m * MOL_FIELDS + 6 + d] += f[d];
                        mol[o * MOL_FIELDS + 6 + d] -= f[d];
                    }
                }
            }
        }
        // Position update.
        for m in 0..n {
            for d in 0..3 {
                let v = mol[m * MOL_FIELDS + 3 + d] + 0.001 * mol[m * MOL_FIELDS + 6 + d];
                mol[m * MOL_FIELDS + 3 + d] = v;
                mol[m * MOL_FIELDS + d] += 0.01 * v;
            }
        }
    }
    (0..n)
        .map(|m| (0..6).map(|d| mol[m * MOL_FIELDS + d].abs()).sum::<f64>())
        .sum()
}

/// DSM implementation on `cfg.nprocs` processors.
pub fn run_parallel(cfg: &AppConfig, size: &WaterSize) -> AppRun {
    let n = size.molecules;
    let mut dsm = Dsm::new(cfg.clone());
    // The molecule array: contiguous records, deliberately *not* padded to
    // page boundaries (that is the point of the study).
    let mol = dsm.alloc_array::<f64>(n * MOL_FIELDS, Align::Page);

    let out = dsm.run(async |ctx| {
        let me = ctx.rank();
        let nprocs = ctx.nprocs();
        let mine = block_range(n, nprocs, me);

        // Owners initialise their molecules (fine-grained writes).
        for m in mine.clone() {
            let mut rec = vec![0.0f64; MOL_FIELDS];
            for d in 0..3 {
                rec[d] = initial_position(m, d);
                rec[3 + d] = initial_velocity(m, d);
            }
            mol.write_slice(ctx, m * MOL_FIELDS, &rec).await;
            ctx.compute(200);
        }
        ctx.barrier().await;

        // One record buffer for every bulk read below (the pair loop reads
        // O(n²) three-element records per step).
        let mut rec = Vec::new();
        for _ in 0..size.steps {
            // Intra-molecular phase: own molecules only (write-write false
            // sharing at the partition boundaries inside a page).
            for m in mine.clone() {
                mol.read_into(ctx, m * MOL_FIELDS, MOL_FIELDS, &mut rec)
                    .await;
                for d in 0..3 {
                    rec[3 + d] *= 0.999;
                    rec[6 + d] = 0.0;
                }
                mol.write_slice(ctx, m * MOL_FIELDS, &rec).await;
                ctx.compute(2_000);
            }
            ctx.barrier().await;

            // Inter-molecular phase: fine-grained reads of the positions of
            // the n/2 following molecules (half the shared array), local
            // accumulation, then one lock-protected update per touched
            // molecule — the SPLASH locking structure.
            let mut local_force = vec![[0.0f64; 3]; n];
            for m in mine.clone() {
                mol.read_into(ctx, m * MOL_FIELDS, 3, &mut rec).await;
                let pa = [rec[0], rec[1], rec[2]];
                for k in 1..=n / 2 {
                    let o = (m + k) % n;
                    mol.read_into(ctx, o * MOL_FIELDS, 3, &mut rec).await;
                    let pb = [rec[0], rec[1], rec[2]];
                    // The real SPC/E inter-molecular evaluation is hundreds
                    // of flops per pair on a 166 MHz Pentium.
                    ctx.compute(20_000);
                    if let Some(f) = pair_force(&pa, &pb) {
                        for d in 0..3 {
                            local_force[m][d] += f[d];
                            local_force[o][d] -= f[d];
                        }
                    }
                }
            }
            for (o, force) in local_force.iter().enumerate() {
                if force.iter().all(|&f| f == 0.0) {
                    continue;
                }
                ctx.acquire(o % 4000).await;
                for d in 0..3 {
                    let v = mol.get(ctx, o * MOL_FIELDS + 6 + d).await;
                    mol.set(ctx, o * MOL_FIELDS + 6 + d, v + force[d]).await;
                }
                ctx.release(o % 4000).await;
            }
            ctx.barrier().await;

            // Position update: own molecules only.
            for m in mine.clone() {
                mol.read_into(ctx, m * MOL_FIELDS, MOL_FIELDS, &mut rec)
                    .await;
                for d in 0..3 {
                    let v = rec[3 + d] + 0.001 * rec[6 + d];
                    rec[3 + d] = v;
                    rec[d] += 0.01 * v;
                }
                mol.write_slice(ctx, m * MOL_FIELDS, &rec).await;
                ctx.compute(1_500);
            }
            ctx.barrier().await;
        }

        ctx.mark_execution_end();
        if me == 0 {
            let mut sum = 0.0f64;
            for m in 0..n {
                mol.read_into(ctx, m * MOL_FIELDS, 6, &mut rec).await;
                sum += rec.iter().map(|v| v.abs()).sum::<f64>();
            }
            sum
        } else {
            0.0
        }
    });

    AppRun::new("Water", size.label(), out.results[0], out.stats)
}

/// The single data-set size reported for Water (its false-sharing behaviour
/// is size independent, §5.2).
pub fn paper_sizes() -> Vec<WaterSize> {
    vec![WaterSize::standard()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::checksums_match;
    use tdsm_core::UnitPolicy;

    #[test]
    fn pair_force_is_antisymmetric_and_cut_off() {
        let a = [0.0, 0.0, 0.0];
        let b = [1.0, 0.5, 0.25];
        let fab = pair_force(&a, &b).unwrap();
        let fba = pair_force(&b, &a).unwrap();
        for d in 0..3 {
            assert!((fab[d] + fba[d]).abs() < 1e-12);
        }
        let far = [100.0, 0.0, 0.0];
        assert!(pair_force(&a, &far).is_none());
    }

    #[test]
    fn parallel_matches_sequential() {
        let size = WaterSize::tiny();
        let seq = run_sequential(&size);
        for procs in [1usize, 4] {
            let par = run_parallel(&AppConfig::with_procs(procs), &size);
            // Force accumulation order differs across processors, so allow a
            // floating-point reduction tolerance.
            assert!(
                checksums_match(par.checksum, seq, 1e-6),
                "procs={procs}: {} vs {seq}",
                par.checksum
            );
        }
    }

    #[test]
    fn correct_under_larger_units() {
        let size = WaterSize::tiny();
        let seq = run_sequential(&size);
        let par = run_parallel(
            &AppConfig::with_procs(4).unit(UnitPolicy::Static { pages: 4 }),
            &size,
        );
        assert!(checksums_match(par.checksum, seq, 1e-6));
    }
}
