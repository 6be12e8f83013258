//! Shared plumbing for the eight-application evaluation suite.
//!
//! Every application exposes the same three entry points:
//!
//! * `run_sequential(size) -> f64` — a plain, single-threaded Rust
//!   implementation producing the reference checksum,
//! * `run_parallel(&AppConfig, size) -> AppRun` — the DSM implementation,
//!   returning the checksum plus the communication statistics, and
//! * `sizes()` — the data-set sizes used by the paper (scaled as documented
//!   in EXPERIMENTS.md).
//!
//! The benchmark harness drives all applications uniformly through the
//! [`suite`](crate::suite) registry.

use tdsm_core::{ClusterStats, CommBreakdown};

/// Configuration of one application run.  It *is* the cluster configuration:
/// an application hands it to `Dsm::new` unchanged, so a run is configured in
/// one record.  The name survives because the frozen `benchmark/` package
/// builds one through it.
pub use tdsm_core::DsmConfig as AppConfig;

/// The outcome of one parallel application run.
#[derive(Debug, Clone)]
pub struct AppRun {
    /// Application name ("Jacobi", "MGS", ...).
    pub app: &'static str,
    /// Label of the data-set size ("1Kx1K", "64x64x64", ...).
    pub size: String,
    /// Verification checksum (compared against the sequential version).
    pub checksum: f64,
    /// Modeled parallel execution time in nanoseconds.
    pub exec_time_ns: u64,
    /// The paper's communication breakdown for this run.
    pub breakdown: CommBreakdown,
    /// The raw per-processor statistics the breakdown was derived from.
    /// Under the deterministic scheduler these reproduce bit-identically
    /// for a fixed `(app, config, seed)` — the determinism tests compare
    /// them whole.
    pub stats: ClusterStats,
}

impl AppRun {
    /// The outcome of a run that produced `checksum` and `stats`; the
    /// execution time and the breakdown are derived from the statistics.
    pub fn new(app: &'static str, size: String, checksum: f64, stats: ClusterStats) -> Self {
        AppRun {
            app,
            size,
            checksum,
            exec_time_ns: stats.exec_time_ns(),
            breakdown: stats.breakdown(),
            stats,
        }
    }
}

/// Compare a parallel checksum against the sequential reference with a
/// relative tolerance (floating-point reduction order may differ for the
/// lock-based applications).
pub fn checksums_match(parallel: f64, sequential: f64, rel_tol: f64) -> bool {
    if parallel == sequential {
        return true;
    }
    let scale = sequential.abs().max(parallel.abs()).max(1e-30);
    ((parallel - sequential) / scale).abs() <= rel_tol
}

/// Split `n` items into `nprocs` contiguous chunks; returns the half-open
/// range owned by `rank` (the band/slab partitioning used by most of the
/// applications).
pub fn block_range(n: usize, nprocs: usize, rank: usize) -> std::ops::Range<usize> {
    let base = n / nprocs;
    let extra = n % nprocs;
    let start = rank * base + rank.min(extra);
    let len = base + usize::from(rank < extra);
    start..(start + len)
}

/// A tiny deterministic pseudo-random generator (xorshift64*) used by the
/// applications for reproducible synthetic inputs, independent of the `rand`
/// crate's version-to-version stream changes.
#[derive(Debug, Clone)]
pub struct DetRng {
    state: u64,
}

impl DetRng {
    /// Create a generator from a non-zero seed.
    pub fn new(seed: u64) -> Self {
        DetRng { state: seed.max(1) }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Uniform value in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[0, bound)`.
    pub fn next_range(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_range_covers_everything_exactly_once() {
        for n in [1usize, 7, 8, 100, 1023] {
            for p in [1usize, 2, 3, 8] {
                let mut covered = vec![false; n];
                for rank in 0..p {
                    for i in block_range(n, p, rank) {
                        assert!(!covered[i], "index {i} covered twice");
                        covered[i] = true;
                    }
                }
                assert!(covered.into_iter().all(|c| c), "n={n} p={p} not covered");
            }
        }
    }

    #[test]
    fn block_range_is_balanced() {
        let sizes: Vec<usize> = (0..8).map(|r| block_range(100, 8, r).len()).collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(max - min <= 1);
    }

    #[test]
    fn checksum_tolerance() {
        assert!(checksums_match(1.0, 1.0, 0.0));
        assert!(checksums_match(1.0 + 1e-12, 1.0, 1e-9));
        assert!(!checksums_match(1.1, 1.0, 1e-9));
        assert!(checksums_match(0.0, 0.0, 1e-9));
    }

    #[test]
    fn det_rng_is_deterministic_and_in_range() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..100 {
            let x = a.next_f64();
            assert_eq!(x, b.next_f64());
            assert!((0.0..1.0).contains(&x));
            let r = a.next_range(17);
            b.next_range(17);
            assert!(r < 17);
        }
    }

    #[test]
    fn app_config_conversion() {
        use tdsm_core::{DsmConfig, ProtocolMode, SchedConfig, UnitPolicy};
        // No conversion is left: what the builder calls produce is the
        // record `Dsm::new` takes.
        let dsm: DsmConfig = AppConfig::with_procs(4)
            .unit(UnitPolicy::Static { pages: 2 })
            .protocol(ProtocolMode::home_based())
            .sched(SchedConfig::seeded(0xfeed));
        assert_eq!(dsm.nprocs, 4);
        assert_eq!(dsm.unit, UnitPolicy::Static { pages: 2 });
        assert_eq!(dsm.protocol, ProtocolMode::home_based());
        assert_eq!(dsm.sched, SchedConfig::seeded(0xfeed));
        assert_eq!(dsm.validate(), Ok(()));
        assert_eq!(
            AppConfig::paper_default().protocol,
            ProtocolMode::MultiWriter
        );
    }
}
