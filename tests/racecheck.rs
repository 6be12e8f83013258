//! Racecheck suite: a checked run (the happens-before detector plus the
//! flat-memory oracle, which makes `Dsm::run` panic on any read of a
//! race-free run that did not return the latest write in host order) must
//! (a) find every registered application — data-race-free by construction
//! — race-free, with every read checked, under both write protocols, every
//! unit shape and many schedules, (b) report a non-empty, *pinned* race set
//! for the deliberately racy fixtures, stable across reruns and schedule
//! seeds, and (c) never perturb the measurements of the run it observes.
//!
//! A proptest closes the schedule dimension: DRF applications stay
//! race-free under arbitrary seeded schedules, not just the golden one.

use proptest::prelude::*;
use tdsm_core::{ProtocolMode, RaceRecord, SchedConfig, UnitPolicy};
use tm_apps::racy::{run_missing_barrier_jacobi, run_racy_counter};
use tm_apps::{AppConfig, AppId, Workload};

const GOLDEN_SEED: u64 = 0x5eed;

fn checked_cfg(nprocs: usize, protocol: ProtocolMode) -> AppConfig {
    AppConfig::with_procs(nprocs)
        .sched(SchedConfig::seeded(GOLDEN_SEED))
        .protocol(protocol)
        .racecheck(true)
}

/// Render a race set in the detector's deterministic order, one record per
/// line — the shape the golden constants below pin.
fn render_races(races: &[RaceRecord]) -> String {
    races
        .iter()
        .map(RaceRecord::to_string)
        .collect::<Vec<_>>()
        .join("\n")
}

/// (a) Every registered application, checked, under both protocols × the
/// 4 K/16 K/Dyn units × the eight schedule seeds of `protocol_fuzz.rs`:
/// race-free, and every read the latest write (or the run would have
/// panicked).  CI also checks `table1`, `fig1` and `fig2` at paper scale.
#[test]
fn tiny_suite_is_race_free_under_both_protocols_and_engines() {
    let units = [
        UnitPolicy::Static { pages: 1 },
        UnitPolicy::Static { pages: 4 },
        UnitPolicy::Dynamic { max_group_pages: 4 },
    ];
    for w in Workload::tiny_suite() {
        for protocol in [ProtocolMode::MultiWriter, ProtocolMode::home_based()] {
            for unit in units {
                for i in 0..8u64 {
                    let seed = 0x5eed_u64.wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
                    let cfg = checked_cfg(4, protocol)
                        .unit(unit)
                        .sched(SchedConfig::seeded(seed));
                    let run = w.run_parallel(&cfg);
                    assert!(
                        run.stats.races.is_empty(),
                        "{} {protocol} {unit:?} seed {seed:#x}: unexpected races:\n{}",
                        w.size_label,
                        render_races(&run.stats.races)
                    );
                }
            }
        }
    }
}

/// (c) Observation is pure: every tiny application's `ClusterStats` —
/// every record and counter — is identical with and without `--racecheck`
/// (the checked-run observer hears every event a run has).
#[test]
fn racecheck_does_not_perturb_measurements() {
    for w in Workload::tiny_suite() {
        for protocol in [ProtocolMode::MultiWriter, ProtocolMode::home_based()] {
            let base = AppConfig::with_procs(4)
                .sched(SchedConfig::seeded(GOLDEN_SEED))
                .protocol(protocol);
            let plain = w.run_parallel(&base.clone());
            let checked = w.run_parallel(&base.racecheck(true));
            assert_eq!(plain.checksum.to_bits(), checked.checksum.to_bits());
            assert_eq!(plain.stats, checked.stats, "{} {protocol}", w.size_label);
        }
    }
}

/// The racy counter's exact race set at the golden seed, 3 processors,
/// 4 rounds: every pair of ranks that the schedule let collide on the
/// shared counter words, read-write and write-write, in the detector's
/// deterministic `(page, signature, word range)` order.
const RACY_COUNTER_GOLDEN: &str = "\
page#0 words 0..=1: read by p0 (interval 1) races with write by p1 (interval 1)
page#0 words 0..=1: write by p0 (interval 1) races with read by p1 (interval 1)
page#0 words 0..=1: write by p0 (interval 1) races with write by p1 (interval 1)
page#0 words 0..=1: read by p2 (interval 1) races with write by p0 (interval 1)
page#0 words 0..=1: write by p2 (interval 1) races with read by p0 (interval 1)
page#0 words 0..=1: write by p2 (interval 1) races with write by p0 (interval 1)";

/// The missing-barrier Jacobi's exact race set at the golden seed: each
/// boundary row read/written without the separating barrier shows up as one
/// coalesced word-range record per racing rank pair.
const MISSING_BARRIER_JACOBI_GOLDEN: &str = "\
page#0 words 128..=159: read by p0 (interval 1) races with write by p1 (interval 1)
page#0 words 256..=287: write by p2 (interval 1) races with read by p1 (interval 1)";

/// (b) The racy fixtures report a non-empty race set that is pinned byte
/// for byte and invariant across reruns at a fixed seed.
#[test]
fn racy_fixture_race_sets_are_pinned_and_engine_invariant() {
    let cfg = checked_cfg(3, ProtocolMode::MultiWriter);

    let counter = run_racy_counter(&cfg, 4);
    let counter_rerun = run_racy_counter(&cfg, 4);
    assert_eq!(
        render_races(&counter.stats.races),
        RACY_COUNTER_GOLDEN,
        "racy counter race set drifted"
    );
    assert_eq!(counter.stats.races, counter_rerun.stats.races);

    let jacobi = run_missing_barrier_jacobi(&cfg, 12, 32);
    let jacobi_rerun = run_missing_barrier_jacobi(&cfg, 12, 32);
    assert_eq!(
        render_races(&jacobi.stats.races),
        MISSING_BARRIER_JACOBI_GOLDEN,
        "missing-barrier jacobi race set drifted"
    );
    assert_eq!(jacobi.stats.races, jacobi_rerun.stats.races);
}

/// The fixtures stay racy (and rerun-stable) under other fixed seeds too —
/// the *set* may legitimately differ per seed (the schedule decides which
/// collisions happen), but for any one seed it never moves, and it never
/// collapses to empty.
#[test]
fn racy_fixtures_stay_racy_under_other_fixed_seeds() {
    for seed in [1u64, 0xfeed, 0x9e37_79b9] {
        let cfg = AppConfig::with_procs(3)
            .sched(SchedConfig::seeded(seed))
            .racecheck(true);
        let a = run_racy_counter(&cfg, 4);
        let b = run_racy_counter(&cfg, 4);
        assert!(
            !a.stats.races.is_empty(),
            "seed {seed:#x}: counter not racy"
        );
        assert_eq!(a.stats.races, b.stats.races, "seed {seed:#x}: rerun drift");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Schedule perturbation: DRF apps stay race-free under arbitrary
    /// seeds, cluster sizes and protocols.
    #[test]
    fn drf_apps_stay_race_free_under_schedule_perturbation(
        seed in 0u64..1_000_000,
        nprocs in 2usize..=5,
        home in any::<bool>(),
    ) {
        let protocol = if home { ProtocolMode::home_based() } else { ProtocolMode::MultiWriter };
        for app in [AppId::Jacobi, AppId::Tsp] {
            let w = Workload::tiny(app);
            let run = w.run_parallel(
                &AppConfig::with_procs(nprocs)
                    .sched(SchedConfig::seeded(seed))
                    .protocol(protocol)
                    .racecheck(true),
            );
            prop_assert!(
                run.stats.races.is_empty(),
                "{} seed {seed:#x} p{nprocs} {protocol}: races:\n{}",
                w.size_label,
                render_races(&run.stats.races)
            );
        }
    }
}
