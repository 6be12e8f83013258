//! Integration tests of the `tm_apps::suite` registry: the paper's eight
//! applications must all be registered, and the consistency-unit policy set
//! must be exactly the §3 static units (4 K, 8 K, 16 K) plus the §4 dynamic
//! aggregation policy — the configuration axis every figure sweeps.

use std::collections::HashSet;

use tdsm_core::UnitPolicy;
use tm_apps::{paper_unit_policies, AppId, Workload};

#[test]
fn suite_registers_all_eight_paper_applications() {
    let expected = [
        AppId::Barnes,
        AppId::Ilink,
        AppId::Tsp,
        AppId::Water,
        AppId::Jacobi,
        AppId::Fft3d,
        AppId::Mgs,
        AppId::Shallow,
    ];
    let all = AppId::all();
    assert_eq!(all.len(), 8);
    let registered: HashSet<AppId> = all.iter().copied().collect();
    for app in expected {
        assert!(
            registered.contains(&app),
            "{} missing from AppId::all()",
            app.name()
        );
        assert!(
            !Workload::for_app(app).is_empty(),
            "{} has no registered workloads",
            app.name()
        );
    }
    // Names match the paper's tables.
    let names: HashSet<&str> = all.iter().map(|a| a.name()).collect();
    for name in [
        "Barnes", "Ilink", "TSP", "Water", "Jacobi", "3D-FFT", "MGS", "Shallow",
    ] {
        assert!(names.contains(name), "missing display name {name}");
    }
}

#[test]
fn figure_groupings_partition_the_suite() {
    let f1 = AppId::figure1();
    let f2 = AppId::figure2();
    assert_eq!(
        f1,
        vec![AppId::Barnes, AppId::Ilink, AppId::Tsp, AppId::Water]
    );
    assert_eq!(
        f2,
        vec![AppId::Jacobi, AppId::Fft3d, AppId::Mgs, AppId::Shallow]
    );
    let union: HashSet<AppId> = f1.iter().chain(f2.iter()).copied().collect();
    assert_eq!(
        union.len(),
        8,
        "figure groups must partition the eight apps"
    );
}

#[test]
fn paper_unit_policies_match_the_section3_and_4_policy_set() {
    // The exact policy axis used by tests/aggregation_model.rs and every
    // figure binary: 4 K / 8 K / 16 K static units and dynamic aggregation
    // with 4-page groups.
    let expected = [
        ("4K", UnitPolicy::Static { pages: 1 }),
        ("8K", UnitPolicy::Static { pages: 2 }),
        ("16K", UnitPolicy::Static { pages: 4 }),
        ("Dyn", UnitPolicy::Dynamic { max_group_pages: 4 }),
    ];
    let policies = paper_unit_policies();
    assert_eq!(policies.len(), expected.len());
    for ((label, unit), (exp_label, exp_unit)) in policies.iter().zip(expected.iter()) {
        assert_eq!(label, exp_label);
        assert_eq!(unit, exp_unit);
        // Labels agree with the units' own rendering at 4 KB pages.
        assert_eq!(&unit.label(), label);
    }
}

#[test]
fn tiny_suite_mirrors_the_paper_suite_per_app() {
    // The tiny suite (used by the --tiny smoke mode of the figure binaries)
    // must cover the same eight applications, one workload each.
    let tiny = Workload::tiny_suite();
    assert_eq!(tiny.len(), 8);
    let apps: HashSet<AppId> = tiny.iter().map(|w| w.app).collect();
    assert_eq!(apps.len(), 8);
}
