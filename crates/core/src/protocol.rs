//! The write-protocol seam: multi-writer (TreadMarks) versus home-based
//! single-writer coherence.
//!
//! The paper frames the false-sharing/aggregation trade-off as a function of
//! the *write protocol* as much as of the coherence-unit size.  This module
//! makes that axis explicit:
//!
//! * [`ProtocolMode::MultiWriter`] — the classic TreadMarks organization:
//!   twin on first write, diffs fetched on demand from every concurrent
//!   writer.  False sharing is absorbed (writers never ping-pong a page),
//!   at the price of twin/diff machinery on every writer.
//! * [`ProtocolMode::HomeBased`] — a home-based single-writer organization:
//!   every page has a *home* processor holding the authoritative copy
//!   ([`tm_page::HomeStore`]); writers flush their diffs to the home eagerly
//!   at interval close, and faults are serviced by whole-page fetches from
//!   the home.  The home itself needs no twin — its writes go straight into
//!   the master copy — but false sharing re-emerges as whole-page traffic:
//!   every word of a fetched page is delivered whether it was wanted or not.
//!
//! Both protocols run under the same lazy-release-consistency notice flow
//! (see DESIGN.md, "Single-writer versus multi-writer"): write notices,
//! invalidations, interval logs and their garbage collection are shared;
//! only *what travels when a page must be made valid* differs.

use tm_page::PageId;

/// The coherence write protocol a cluster runs under.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ProtocolMode {
    /// TreadMarks' multiple-writer twin/diff protocol (the default).
    #[default]
    MultiWriter,
    /// Home-based single-writer: eager diff flushes to per-page homes
    /// (page `p` is homed at [`round_robin_home`]), whole-page fetches on
    /// faults.
    HomeBased,
}

impl ProtocolMode {
    /// The home-based protocol (kept as a constructor: the frozen
    /// `benchmark/` package calls it).
    pub fn home_based() -> Self {
        ProtocolMode::HomeBased
    }

    /// True for the home-based protocol.
    pub fn is_home_based(&self) -> bool {
        *self == ProtocolMode::HomeBased
    }

    /// Stable lowercase name, used by CLI flags and machine-readable rows.
    pub fn as_str(&self) -> &'static str {
        match self {
            ProtocolMode::MultiWriter => "multi-writer",
            ProtocolMode::HomeBased => "home-based",
        }
    }
}

impl std::str::FromStr for ProtocolMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "multi-writer" | "mw" => Ok(ProtocolMode::MultiWriter),
            "home-based" | "home" => Ok(ProtocolMode::HomeBased),
            other => Err(format!(
                "unknown protocol '{other}' (expected multi-writer or home-based)"
            )),
        }
    }
}

impl std::fmt::Display for ProtocolMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The home of `page` in a cluster of `nprocs` processors under
/// [`ProtocolMode::HomeBased`]: page `p` is homed at processor
/// `p mod nprocs` — the static blockless interleaving most home-based
/// systems default to.
///
/// # Panics
/// Panics if `nprocs` is zero.
pub fn round_robin_home(page: PageId, nprocs: usize) -> u32 {
    assert!(nprocs > 0, "cluster must have at least one processor");
    (page.0 as u64 % nprocs as u64) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_names_roundtrip() {
        for mode in [ProtocolMode::MultiWriter, ProtocolMode::HomeBased] {
            assert_eq!(mode.as_str().parse::<ProtocolMode>(), Ok(mode));
            assert_eq!(mode.to_string(), mode.as_str());
        }
        assert_eq!("mw".parse(), Ok(ProtocolMode::MultiWriter));
        assert_eq!("home".parse(), Ok(ProtocolMode::home_based()));
        assert!("token-ring".parse::<ProtocolMode>().is_err());
    }

    #[test]
    fn default_is_multi_writer() {
        assert_eq!(ProtocolMode::default(), ProtocolMode::MultiWriter);
        assert!(!ProtocolMode::MultiWriter.is_home_based());
        assert!(ProtocolMode::home_based().is_home_based());
    }

    #[test]
    fn round_robin_covers_all_processors_in_range() {
        for nprocs in [1usize, 2, 7, 64] {
            for page in [0u32, 1, 63, 64, 1_000_000] {
                let home = round_robin_home(PageId(page), nprocs);
                assert!((home as usize) < nprocs);
                assert_eq!(home, page % nprocs as u32);
            }
        }
    }
}
