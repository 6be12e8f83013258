//! 3D-FFT — the NAS FT kernel: a 3-D complex FFT with a distributed
//! transpose.
//!
//! Sharing structure (paper §5.5): the array is partitioned into slabs of
//! planes.  Each processor first computes 1-D FFTs along the two local
//! dimensions of its own planes, then the transpose redistributes the data so
//! that the remaining dimension becomes local, which is where all the
//! communication happens (producer–consumer).  During the transpose a
//! processor reads, from every plane, exactly the contiguous block of pencils
//! it owns; with complex `f64` elements that block is
//! `ny*nz/P * 16` bytes — 4 KB for 64×64×32, 8 KB for 64×64×64 and 32 KB for
//! 128×128×128 on 8 processors, which is what drives the paper's
//! size-dependent behaviour (improvement from 4 K to 8 K for 64³, then
//! deterioration at 16 K).
//!
//! A small shared checksum array written by every processor and read by the
//! master reproduces the paper's "few useless messages" observation.

use tdsm_core::Dsm;

use crate::common::{block_range, AppConfig, AppRun};

/// Size of a 3D-FFT run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FftSize {
    /// Extent of the distributed (plane) dimension.
    pub nx: usize,
    /// First in-plane extent.
    pub ny: usize,
    /// Second in-plane extent (contiguous in memory).
    pub nz: usize,
}

impl FftSize {
    /// The paper's 64×64×32 data set (transpose read granularity 4 KB).
    pub fn s64_64_32() -> Self {
        FftSize {
            nx: 32,
            ny: 64,
            nz: 32,
        }
    }

    /// The paper's 64×64×64 data set (transpose read granularity 8 KB).
    pub fn s64() -> Self {
        FftSize {
            nx: 32,
            ny: 64,
            nz: 64,
        }
    }

    /// The paper's 128×128×128 data set (transpose read granularity 32 KB),
    /// scaled in the plane count only.
    pub fn s128() -> Self {
        FftSize {
            nx: 32,
            ny: 128,
            nz: 128,
        }
    }

    /// A tiny size for unit tests.
    pub fn tiny() -> Self {
        FftSize {
            nx: 8,
            ny: 8,
            nz: 8,
        }
    }

    /// The `--scale large` stress tier (twice the planes of the 128-class
    /// data set).
    pub fn huge() -> Self {
        FftSize {
            nx: 64,
            ny: 128,
            nz: 128,
        }
    }

    /// Label used in reports (paper naming).
    pub fn label(&self) -> String {
        format!("{}x{}x{}", self.nx, self.ny, self.nz)
    }

    /// Complex elements per plane.
    pub fn plane_elems(&self) -> usize {
        self.ny * self.nz
    }
}

/// In-place radix-2 Cooley–Tukey FFT over interleaved (re, im) pairs.
fn fft1d(re: &mut [f64], im: &mut [f64], inverse: bool) {
    let n = re.len();
    assert!(n.is_power_of_two(), "FFT length must be a power of two");
    // Bit-reversal permutation.
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            re.swap(i, j);
            im.swap(i, j);
        }
    }
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let (wr, wi) = (ang.cos(), ang.sin());
        let mut i = 0;
        while i < n {
            let (mut cr, mut ci) = (1.0f64, 0.0f64);
            for k in 0..len / 2 {
                let (ur, ui) = (re[i + k], im[i + k]);
                let (vr, vi) = (
                    re[i + k + len / 2] * cr - im[i + k + len / 2] * ci,
                    re[i + k + len / 2] * ci + im[i + k + len / 2] * cr,
                );
                re[i + k] = ur + vr;
                im[i + k] = ui + vi;
                re[i + k + len / 2] = ur - vr;
                im[i + k + len / 2] = ui - vi;
                let ncr = cr * wr - ci * wi;
                ci = cr * wi + ci * wr;
                cr = ncr;
            }
            i += len;
        }
        len <<= 1;
    }
    if inverse {
        for v in re.iter_mut() {
            *v /= n as f64;
        }
        for v in im.iter_mut() {
            *v /= n as f64;
        }
    }
}

fn initial_complex(x: usize, y: usize, z: usize) -> (f64, f64) {
    let v = ((x * 131 + y * 17 + z * 7) % 251) as f64 / 251.0;
    (v, 0.5 - v * v)
}

/// Sequential reference: forward FFT along z, y, then x, followed by the
/// checksum of the transformed array.
pub fn run_sequential(size: &FftSize) -> f64 {
    let (nx, ny, nz) = (size.nx, size.ny, size.nz);
    // data[x][y][z] as interleaved re/im.
    let mut re = vec![0.0f64; nx * ny * nz];
    let mut im = vec![0.0f64; nx * ny * nz];
    let idx = |x: usize, y: usize, z: usize| (x * ny + y) * nz + z;
    for x in 0..nx {
        for y in 0..ny {
            for z in 0..nz {
                let (r, i) = initial_complex(x, y, z);
                re[idx(x, y, z)] = r;
                im[idx(x, y, z)] = i;
            }
        }
    }
    // FFT along z (contiguous runs).
    for x in 0..nx {
        for y in 0..ny {
            let base = idx(x, y, 0);
            fft1d(&mut re[base..base + nz], &mut im[base..base + nz], false);
        }
    }
    // FFT along y.
    let mut tr = vec![0.0f64; ny];
    let mut ti = vec![0.0f64; ny];
    for x in 0..nx {
        for z in 0..nz {
            for y in 0..ny {
                tr[y] = re[idx(x, y, z)];
                ti[y] = im[idx(x, y, z)];
            }
            fft1d(&mut tr, &mut ti, false);
            for y in 0..ny {
                re[idx(x, y, z)] = tr[y];
                im[idx(x, y, z)] = ti[y];
            }
        }
    }
    // FFT along x.
    let mut sr = vec![0.0f64; nx];
    let mut si = vec![0.0f64; nx];
    let mut checksum = 0.0f64;
    for y in 0..ny {
        for z in 0..nz {
            for x in 0..nx {
                sr[x] = re[idx(x, y, z)];
                si[x] = im[idx(x, y, z)];
            }
            fft1d(&mut sr, &mut si, false);
            for x in 0..nx {
                checksum += sr[x].abs() + si[x].abs();
            }
        }
    }
    checksum / (nx * ny * nz) as f64
}

/// DSM implementation on `cfg.nprocs` processors.
pub fn run_parallel(cfg: &AppConfig, size: &FftSize) -> AppRun {
    let (nx, ny, nz) = (size.nx, size.ny, size.nz);
    let plane = size.plane_elems();
    let mut dsm = Dsm::new(cfg.clone());
    // The distributed array: nx planes, each a page-aligned row of ny*nz
    // complex numbers stored as interleaved (re, im) f64 pairs — 16 bytes per
    // element, so the contiguous pencil block a consumer reads during the
    // transpose is ny*nz/P*16 bytes (4 KB / 8 KB / 32 KB for the paper's
    // three sizes on 8 processors).
    let data = dsm.alloc_matrix::<f64>(nx, 2 * plane);
    // Per-processor partial checksums, all in one page (the paper's small
    // concurrently written structure).
    let partial = dsm.alloc_array::<f64>(cfg.nprocs, tdsm_core::Align::Page);

    let out = dsm.run(async |ctx| {
        let me = ctx.rank();
        let nprocs = ctx.nprocs();
        let my_planes = block_range(nx, nprocs, me);
        // Pencil ownership for the transpose phase: a contiguous block of
        // (y,z) pencils per processor.
        let my_pencils = block_range(plane, nprocs, me);

        // Initialise own planes.
        for x in my_planes.clone() {
            let mut row = vec![0.0f64; 2 * plane];
            for y in 0..ny {
                for z in 0..nz {
                    let (r, i) = initial_complex(x, y, z);
                    row[(y * nz + z) * 2] = r;
                    row[(y * nz + z) * 2 + 1] = i;
                }
            }
            data.write_row(ctx, x, &row).await;
            ctx.compute(plane as u64 * 8);
        }
        ctx.barrier().await;

        // Phase 1: FFTs along z and y within each owned plane.
        for x in my_planes.clone() {
            let row = data.read_row(ctx, x).await;
            let mut row_re: Vec<f64> = (0..plane).map(|e| row[2 * e]).collect();
            let mut row_im: Vec<f64> = (0..plane).map(|e| row[2 * e + 1]).collect();
            for y in 0..ny {
                let base = y * nz;
                fft1d(
                    &mut row_re[base..base + nz],
                    &mut row_im[base..base + nz],
                    false,
                );
            }
            let mut tr = vec![0.0f64; ny];
            let mut ti = vec![0.0f64; ny];
            for z in 0..nz {
                for y in 0..ny {
                    tr[y] = row_re[y * nz + z];
                    ti[y] = row_im[y * nz + z];
                }
                fft1d(&mut tr, &mut ti, false);
                for y in 0..ny {
                    row_re[y * nz + z] = tr[y];
                    row_im[y * nz + z] = ti[y];
                }
            }
            // ~5 n log n flops per 1-D FFT on a 166 MHz Pentium, scaled up by
            // the plane-count reduction documented in EXPERIMENTS.md.
            ctx.compute((plane as u64) * 1200);
            let mut out_row = vec![0.0f64; 2 * plane];
            for e in 0..plane {
                out_row[2 * e] = row_re[e];
                out_row[2 * e + 1] = row_im[e];
            }
            data.write_row(ctx, x, &out_row).await;
        }
        ctx.barrier().await;

        // Phase 2 (transpose + FFT along x): for each plane x, read the
        // contiguous block of pencils this processor owns — this is the
        // producer-consumer communication the paper describes.
        let npencils = my_pencils.len();
        let mut block_re: Vec<Vec<f64>> = Vec::with_capacity(nx);
        let mut block_im: Vec<Vec<f64>> = Vec::with_capacity(nx);
        for x in 0..nx {
            let chunk = data
                .as_array()
                .read_vec(ctx, x * 2 * plane + 2 * my_pencils.start, 2 * npencils)
                .await;
            block_re.push((0..npencils).map(|e| chunk[2 * e]).collect());
            block_im.push((0..npencils).map(|e| chunk[2 * e + 1]).collect());
        }
        let mut sr = vec![0.0f64; nx];
        let mut si = vec![0.0f64; nx];
        let mut my_sum = 0.0f64;
        for p in 0..npencils {
            for x in 0..nx {
                sr[x] = block_re[x][p];
                si[x] = block_im[x][p];
            }
            fft1d(&mut sr, &mut si, false);
            for x in 0..nx {
                my_sum += sr[x].abs() + si[x].abs();
            }
        }
        ctx.compute((npencils * nx) as u64 * 1200);

        // Publish the partial checksum (concurrently written small page).
        partial.set(ctx, me, my_sum).await;
        ctx.barrier().await;

        ctx.mark_execution_end();
        if me == 0 {
            let mut total = 0.0f64;
            for p in 0..nprocs {
                total += partial.get(ctx, p).await;
            }
            total / (nx * ny * nz) as f64
        } else {
            0.0
        }
    });

    AppRun::new("3D-FFT", size.label(), out.results[0], out.stats)
}

/// The data-set sizes reported in the paper's figures for 3D-FFT.
pub fn paper_sizes() -> Vec<FftSize> {
    vec![FftSize::s64_64_32(), FftSize::s64(), FftSize::s128()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::checksums_match;
    use tdsm_core::UnitPolicy;

    #[test]
    fn fft1d_roundtrip() {
        let mut re: Vec<f64> = (0..16).map(|i| (i as f64).sin()).collect();
        let mut im: Vec<f64> = (0..16).map(|i| (i as f64).cos()).collect();
        let orig_re = re.clone();
        let orig_im = im.clone();
        fft1d(&mut re, &mut im, false);
        fft1d(&mut re, &mut im, true);
        for i in 0..16 {
            assert!((re[i] - orig_re[i]).abs() < 1e-9);
            assert!((im[i] - orig_im[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn fft1d_parseval() {
        // Energy is preserved up to the 1/n convention.
        let mut re: Vec<f64> = (0..32).map(|i| ((i * 7 % 13) as f64) / 13.0).collect();
        let mut im = vec![0.0f64; 32];
        let time_energy: f64 = re.iter().map(|x| x * x).sum();
        fft1d(&mut re, &mut im, false);
        let freq_energy: f64 = re.iter().zip(&im).map(|(r, i)| r * r + i * i).sum::<f64>() / 32.0;
        assert!((time_energy - freq_energy).abs() < 1e-9);
    }

    #[test]
    fn parallel_matches_sequential() {
        let size = FftSize::tiny();
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
        let size = FftSize::tiny();
        let seq = run_sequential(&size);
        for unit in [
            UnitPolicy::Static { pages: 4 },
            UnitPolicy::Dynamic { max_group_pages: 4 },
        ] {
            let par = run_parallel(&AppConfig::with_procs(4).unit(unit), &size);
            assert!(checksums_match(par.checksum, seq, 1e-9), "unit {unit:?}");
        }
    }
}
