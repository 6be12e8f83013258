//! Registry of the eight applications, used by the benchmark harness to
//! drive every table and figure uniformly.

use tdsm_core::UnitPolicy;

use crate::common::{AppConfig, AppRun};
use crate::{barnes, fft3d, ilink, jacobi, mgs, shallow, tsp, water};

/// Identifies one application of the suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppId {
    /// Barnes-Hut N-body (SPLASH).
    Barnes,
    /// Genetic linkage analysis (synthetic CLP-like workload).
    Ilink,
    /// Branch-and-bound traveling salesman.
    Tsp,
    /// Molecular dynamics (SPLASH Water).
    Water,
    /// Jacobi relaxation.
    Jacobi,
    /// NAS 3-D FFT.
    Fft3d,
    /// Modified Gram-Schmidt.
    Mgs,
    /// NCAR shallow-water benchmark.
    Shallow,
}

impl AppId {
    /// Display name as used in the paper.
    pub fn name(&self) -> &'static str {
        match self {
            AppId::Barnes => "Barnes",
            AppId::Ilink => "Ilink",
            AppId::Tsp => "TSP",
            AppId::Water => "Water",
            AppId::Jacobi => "Jacobi",
            AppId::Fft3d => "3D-FFT",
            AppId::Mgs => "MGS",
            AppId::Shallow => "Shallow",
        }
    }

    /// Inverse of [`name`](Self::name): resolve a paper display name back to
    /// the application (used when reloading machine-readable results).
    pub fn from_name(name: &str) -> Option<AppId> {
        AppId::all().into_iter().find(|a| a.name() == name)
    }

    /// The applications of Figure 1 (size-independent false sharing).
    pub fn figure1() -> Vec<AppId> {
        vec![AppId::Barnes, AppId::Ilink, AppId::Tsp, AppId::Water]
    }

    /// The applications of Figure 2 (size-dependent false sharing).
    pub fn figure2() -> Vec<AppId> {
        vec![AppId::Jacobi, AppId::Fft3d, AppId::Mgs, AppId::Shallow]
    }

    /// All eight applications.
    pub fn all() -> Vec<AppId> {
        let mut v = Self::figure1();
        v.extend(Self::figure2());
        v
    }
}

/// Selects which data set of an application a [`Workload`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SizeSel {
    /// Index into the application's `paper_sizes()`.
    Paper(usize),
    /// The application's `tiny()` smoke-test size.
    Tiny,
    /// The application's `huge()` stress size (the `--scale large` tier).
    Large,
}

/// One (application, data set) pair of the evaluation.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Which application.
    pub app: AppId,
    /// Data-set label (as printed in the tables/figures).
    pub size_label: String,
    size: SizeSel,
}

impl Workload {
    /// Every (application, data set) combination the paper evaluates.
    pub fn paper_suite() -> Vec<Workload> {
        let mut out = Vec::new();
        for app in AppId::all() {
            for (i, label) in size_labels(app).into_iter().enumerate() {
                out.push(Workload {
                    app,
                    size_label: label,
                    size: SizeSel::Paper(i),
                });
            }
        }
        out
    }

    /// The application's tiny smoke-test workload (the data set the unit
    /// tests and `tm-bench --tiny` use).
    pub fn tiny(app: AppId) -> Workload {
        let label = match app {
            AppId::Barnes => barnes::BarnesSize::tiny().label(),
            AppId::Ilink => ilink::IlinkSize::tiny().label(),
            AppId::Tsp => tsp::TspSize::tiny().label(),
            AppId::Water => water::WaterSize::tiny().label(),
            AppId::Jacobi => jacobi::JacobiSize::tiny().label(),
            AppId::Fft3d => fft3d::FftSize::tiny().label(),
            AppId::Mgs => mgs::MgsSize::tiny().label(),
            AppId::Shallow => shallow::ShallowSize::tiny().label(),
        };
        Workload {
            app,
            size_label: format!("{label}(tiny)"),
            size: SizeSel::Tiny,
        }
    }

    /// One tiny workload per application — the whole suite at smoke scale.
    pub fn tiny_suite() -> Vec<Workload> {
        AppId::all().into_iter().map(Workload::tiny).collect()
    }

    /// The application's `--scale large` stress workload: data sets several
    /// times the paper sizes, sized so that a run without interval garbage
    /// collection would hold the whole execution's diffs in memory at once.
    pub fn large(app: AppId) -> Workload {
        let label = match app {
            AppId::Barnes => barnes::BarnesSize::huge().label(),
            AppId::Ilink => ilink::IlinkSize::huge().label(),
            AppId::Tsp => tsp::TspSize::huge().label(),
            AppId::Water => water::WaterSize::huge().label(),
            AppId::Jacobi => jacobi::JacobiSize::huge().label(),
            AppId::Fft3d => fft3d::FftSize::huge().label(),
            AppId::Mgs => mgs::MgsSize::huge().label(),
            AppId::Shallow => shallow::ShallowSize::huge().label(),
        };
        Workload {
            app,
            size_label: format!("{label}(large)"),
            size: SizeSel::Large,
        }
    }

    /// One large workload per application — the whole suite at stress scale.
    pub fn large_suite() -> Vec<Workload> {
        AppId::all().into_iter().map(Workload::large).collect()
    }

    /// The workloads belonging to one application.
    pub fn for_app(app: AppId) -> Vec<Workload> {
        Self::paper_suite()
            .into_iter()
            .filter(|w| w.app == app)
            .collect()
    }

    /// Resolve a workload from its `(application, size label)` identity —
    /// the inverse of the labels this registry hands out, covering both the
    /// paper data sets and the tiny smoke sets (whose labels carry the
    /// `(tiny)` suffix). This is how the experiment engine rebuilds runnable
    /// cells from a declarative spec or a reloaded results file.
    pub fn lookup(app: AppId, size_label: &str) -> Option<Workload> {
        let tiny = Workload::tiny(app);
        if tiny.size_label == size_label {
            return Some(tiny);
        }
        let large = Workload::large(app);
        if large.size_label == size_label {
            return Some(large);
        }
        Self::for_app(app)
            .into_iter()
            .find(|w| w.size_label == size_label)
    }

    /// Run the sequential reference version; returns the checksum.
    pub fn run_sequential(&self) -> f64 {
        match (self.app, self.size) {
            (AppId::Barnes, s) => barnes::run_sequential(&barnes_size(s)),
            (AppId::Ilink, s) => ilink::run_sequential(&ilink_size(s)),
            (AppId::Tsp, s) => tsp::run_sequential(&tsp_size(s)),
            (AppId::Water, s) => water::run_sequential(&water_size(s)),
            (AppId::Jacobi, s) => jacobi::run_sequential(&jacobi_size(s)),
            (AppId::Fft3d, s) => fft3d::run_sequential(&fft_size(s)),
            (AppId::Mgs, s) => mgs::run_sequential(&mgs_size(s)),
            (AppId::Shallow, s) => shallow::run_sequential(&shallow_size(s)),
        }
    }

    /// Run the DSM version under the given configuration.
    pub fn run_parallel(&self, cfg: &AppConfig) -> AppRun {
        match (self.app, self.size) {
            (AppId::Barnes, s) => barnes::run_parallel(cfg, &barnes_size(s)),
            (AppId::Ilink, s) => ilink::run_parallel(cfg, &ilink_size(s)),
            (AppId::Tsp, s) => tsp::run_parallel(cfg, &tsp_size(s)),
            (AppId::Water, s) => water::run_parallel(cfg, &water_size(s)),
            (AppId::Jacobi, s) => jacobi::run_parallel(cfg, &jacobi_size(s)),
            (AppId::Fft3d, s) => fft3d::run_parallel(cfg, &fft_size(s)),
            (AppId::Mgs, s) => mgs::run_parallel(cfg, &mgs_size(s)),
            (AppId::Shallow, s) => shallow::run_parallel(cfg, &shallow_size(s)),
        }
    }
}

macro_rules! size_selector {
    ($($fn_name:ident, $module:ident, $ty:ident;)*) => {
        $(
            fn $fn_name(sel: SizeSel) -> $module::$ty {
                match sel {
                    SizeSel::Paper(i) => $module::paper_sizes()[i],
                    SizeSel::Tiny => $module::$ty::tiny(),
                    SizeSel::Large => $module::$ty::huge(),
                }
            }
        )*
    };
}

size_selector! {
    barnes_size, barnes, BarnesSize;
    ilink_size, ilink, IlinkSize;
    tsp_size, tsp, TspSize;
    water_size, water, WaterSize;
    jacobi_size, jacobi, JacobiSize;
    fft_size, fft3d, FftSize;
    mgs_size, mgs, MgsSize;
    shallow_size, shallow, ShallowSize;
}

fn size_labels(app: AppId) -> Vec<String> {
    match app {
        AppId::Barnes => barnes::paper_sizes().iter().map(|s| s.label()).collect(),
        AppId::Ilink => ilink::paper_sizes().iter().map(|s| s.label()).collect(),
        AppId::Tsp => tsp::paper_sizes().iter().map(|s| s.label()).collect(),
        AppId::Water => water::paper_sizes().iter().map(|s| s.label()).collect(),
        AppId::Jacobi => jacobi::paper_sizes().iter().map(|s| s.label()).collect(),
        AppId::Fft3d => fft3d::paper_sizes().iter().map(|s| s.label()).collect(),
        AppId::Mgs => mgs::paper_sizes().iter().map(|s| s.label()).collect(),
        AppId::Shallow => shallow::paper_sizes().iter().map(|s| s.label()).collect(),
    }
}

/// The policy axis of the paper's figures, with the labels they print:
/// 4 K, 8 K, 16 K and dynamic aggregation (groups of at most four pages).
pub fn paper_unit_policies() -> Vec<(String, UnitPolicy)> {
    [
        UnitPolicy::Static { pages: 1 },
        UnitPolicy::Static { pages: 2 },
        UnitPolicy::Static { pages: 4 },
        UnitPolicy::Dynamic { max_group_pages: 4 },
    ]
    .into_iter()
    .map(|unit| (unit.label(4096), unit))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_covers_all_eight_applications() {
        let suite = Workload::paper_suite();
        let apps: std::collections::HashSet<_> = suite.iter().map(|w| w.app).collect();
        assert_eq!(apps.len(), 8);
        // The paper's per-app size counts: Barnes/Ilink/TSP/Water one each,
        // Jacobi two, FFT three, MGS four, Shallow three.
        assert_eq!(suite.len(), 4 + 2 + 3 + 4 + 3);
    }

    #[test]
    fn figure_groupings_are_disjoint_and_complete() {
        let f1 = AppId::figure1();
        let f2 = AppId::figure2();
        assert_eq!(f1.len() + f2.len(), AppId::all().len());
        for a in &f1 {
            assert!(!f2.contains(a));
        }
    }

    #[test]
    fn names_and_labels_roundtrip_through_lookup() {
        for app in AppId::all() {
            assert_eq!(AppId::from_name(app.name()), Some(app));
        }
        assert_eq!(AppId::from_name("NoSuchApp"), None);

        for w in Workload::paper_suite()
            .iter()
            .chain(&Workload::tiny_suite())
            .chain(&Workload::large_suite())
        {
            let found = Workload::lookup(w.app, &w.size_label)
                .unwrap_or_else(|| panic!("lookup lost {} {}", w.app.name(), w.size_label));
            assert_eq!(found.size, w.size);
        }
        assert!(Workload::lookup(AppId::Jacobi, "bogus").is_none());
    }

    #[test]
    fn large_suite_covers_all_apps_with_distinct_labels() {
        let large = Workload::large_suite();
        assert_eq!(large.len(), 8);
        for w in &large {
            assert!(
                w.size_label.ends_with("(large)"),
                "large label {} must carry the tier suffix",
                w.size_label
            );
            // The tier must never shadow a paper or tiny data set.
            assert!(Workload::for_app(w.app)
                .iter()
                .all(|p| p.size_label != w.size_label));
        }
    }

    #[test]
    fn unit_policies_match_the_paper() {
        let policies = paper_unit_policies();
        assert_eq!(policies.len(), 4);
        assert_eq!(policies[0].0, "4K");
        assert_eq!(policies[3].0, "Dyn");
    }
}
