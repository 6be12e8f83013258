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

use serde::json::Value;
use serde::{FromJson, JsonSchemaError, ToJson};
use tm_page::{HomeStore, PageId, PageLayout};

/// How pages are assigned their home processor under
/// [`ProtocolMode::HomeBased`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum HomeAssign {
    /// Page `p` is homed at processor `p mod nprocs` — the static blockless
    /// interleaving most home-based systems default to.
    #[default]
    RoundRobin,
    /// The first processor to *write* a page becomes its home.  (Plain
    /// reads of a still-zero page need no home, and a page only ever gets
    /// fetched after a writer published a notice for it — so first-write
    /// and first-touch assignment coincide here.)  Under the deterministic
    /// scheduler the write order — and with it the assignment — is a pure
    /// function of the run's configuration and seed.
    FirstTouch,
}

/// The coherence write protocol a cluster runs under.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ProtocolMode {
    /// TreadMarks' multiple-writer twin/diff protocol (the default).
    #[default]
    MultiWriter,
    /// Home-based single-writer: eager diff flushes to per-page homes,
    /// whole-page fetches on faults.
    HomeBased {
        /// How pages are assigned their home processor.
        assign: HomeAssign,
    },
}

impl ProtocolMode {
    /// The home-based protocol with the default round-robin assignment.
    pub fn home_based() -> Self {
        ProtocolMode::HomeBased {
            assign: HomeAssign::RoundRobin,
        }
    }

    /// True for either home-based variant.
    pub fn is_home_based(&self) -> bool {
        matches!(self, ProtocolMode::HomeBased { .. })
    }

    /// Stable lowercase name, used by CLI flags and machine-readable rows.
    pub fn as_str(&self) -> &'static str {
        match self {
            ProtocolMode::MultiWriter => "multi-writer",
            ProtocolMode::HomeBased {
                assign: HomeAssign::RoundRobin,
            } => "home-based",
            ProtocolMode::HomeBased {
                assign: HomeAssign::FirstTouch,
            } => "home-based-first-touch",
        }
    }
}

impl std::str::FromStr for ProtocolMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "multi-writer" | "mw" => Ok(ProtocolMode::MultiWriter),
            "home-based" | "home" => Ok(ProtocolMode::home_based()),
            "home-based-first-touch" | "home-ft" => Ok(ProtocolMode::HomeBased {
                assign: HomeAssign::FirstTouch,
            }),
            other => Err(format!(
                "unknown protocol '{other}' (expected multi-writer, home-based \
                 or home-based-first-touch)"
            )),
        }
    }
}

impl std::fmt::Display for ProtocolMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl ToJson for ProtocolMode {
    fn to_json(&self) -> Value {
        Value::Str(self.as_str().to_string())
    }
}

impl FromJson for ProtocolMode {
    fn from_json(v: &Value) -> Result<Self, JsonSchemaError> {
        v.as_str()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| JsonSchemaError::new("protocol", "a known protocol name"))
    }
}

/// Round-robin home of `page` in a cluster of `nprocs` processors.
///
/// # Panics
/// Panics if `nprocs` is zero.
pub fn round_robin_home(page: PageId, nprocs: usize) -> u32 {
    assert!(nprocs > 0, "cluster must have at least one processor");
    (page.0 as u64 % nprocs as u64) as u32
}

/// The cluster-wide home state of a home-based run: the per-page home
/// assignment and the authoritative master copies.
///
/// One instance exists per [`Dsm::run`](crate::Dsm::run), in a `RefCell`
/// of the run's shared state: one host thread runs every simulated
/// processor, each borrowing it for one protocol step.  On the real system
/// each fragment would live in its home node's memory, reachable only
/// through the messages whose costs the simulated network charges.
#[derive(Debug)]
pub struct HomeDirectory {
    assign: HomeAssign,
    nprocs: usize,
    /// Per-page first-touch assignment (unused under round-robin).
    homes: Vec<Option<u32>>,
    store: HomeStore,
}

impl HomeDirectory {
    /// Create the home state for a cluster of `nprocs` processors.
    pub fn new(layout: PageLayout, nprocs: usize, assign: HomeAssign) -> Self {
        assert!(nprocs > 0, "cluster must have at least one processor");
        HomeDirectory {
            assign,
            nprocs,
            homes: match assign {
                HomeAssign::RoundRobin => Vec::new(),
                HomeAssign::FirstTouch => vec![None; layout.total_pages() as usize],
            },
            store: HomeStore::new(layout),
        }
    }

    /// The home of `page`, assigning it to `toucher` first if the
    /// first-touch policy has not seen the page yet.  Idempotent: once
    /// assigned, a page's home never changes for the rest of the run.
    pub fn home_of(&mut self, page: PageId, toucher: u32) -> u32 {
        debug_assert!((toucher as usize) < self.nprocs, "toucher outside cluster");
        match self.assign {
            HomeAssign::RoundRobin => round_robin_home(page, self.nprocs),
            HomeAssign::FirstTouch => *self.homes[page.index()].get_or_insert(toucher),
        }
    }

    /// The master copies (diff application, write-through, page fetches).
    pub fn store_mut(&mut self) -> &mut HomeStore {
        &mut self.store
    }

    /// Read-only view of the master copies.
    pub fn store(&self) -> &HomeStore {
        &self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_names_roundtrip() {
        for mode in [
            ProtocolMode::MultiWriter,
            ProtocolMode::home_based(),
            ProtocolMode::HomeBased {
                assign: HomeAssign::FirstTouch,
            },
        ] {
            assert_eq!(mode.as_str().parse::<ProtocolMode>(), Ok(mode));
            assert_eq!(mode.to_string(), mode.as_str());
            let json = mode.to_json();
            assert_eq!(ProtocolMode::from_json(&json), Ok(mode));
        }
        assert_eq!("mw".parse(), Ok(ProtocolMode::MultiWriter));
        assert_eq!("home".parse(), Ok(ProtocolMode::home_based()));
        assert!("token-ring".parse::<ProtocolMode>().is_err());
        assert!(ProtocolMode::from_json(&Value::Num(3.0)).is_err());
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

    #[test]
    fn first_touch_assignment_is_sticky() {
        let layout = PageLayout::new(4096, 8);
        let mut dir = HomeDirectory::new(layout, 4, HomeAssign::FirstTouch);
        assert_eq!(dir.home_of(PageId(3), 2), 2);
        // A later toucher does not steal the home.
        assert_eq!(dir.home_of(PageId(3), 0), 2);
        assert_eq!(dir.home_of(PageId(5), 0), 0);
    }

    #[test]
    fn round_robin_directory_ignores_touchers() {
        let layout = PageLayout::new(4096, 8);
        let mut dir = HomeDirectory::new(layout, 3, HomeAssign::RoundRobin);
        assert_eq!(dir.home_of(PageId(4), 2), 1);
        assert_eq!(dir.home_of(PageId(4), 0), 1);
        assert_eq!(dir.store().resident_pages(), 0);
    }
}
