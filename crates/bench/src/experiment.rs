//! The declarative sweep model behind every figure and table experiment.
//!
//! An [`Experiment`] is a named, ordered set of [`Cell`]s — one cell per
//! (application, data set, consistency-unit policy, processor count,
//! protocol, network) grid point the artifact measures. Each of the seven
//! named experiments ([`Experiment::all_names`]) is a nested loop over the
//! `tm_apps` workload registry and its own axes that builds every cell
//! through one private constructor; the worker pool in [`crate::runner`]
//! executes the cells and the emitters in [`crate::emit`] render the results.
//!
//! Cells carry a deterministic seed derived from their identity (FNV-1a over
//! the cell key, XOR the sweep's `--seed` base). Since the deterministic
//! scheduling rework the simulator *consumes* that seed: it feeds the
//! scheduler's tie-breaking (`tm_sched`), so the seed recorded in every
//! emitted row — together with the schedule mode — pins the exact
//! interleaving the cell ran under. Same `(app, policy, nprocs, seed)`,
//! same results, bit for bit.

use tdsm_core::{
    AggregationPolicy, DiffTiming, DsmConfig, EngineKind, NetworkConfig, ProtocolMode, SchedConfig,
    Topology, UnitPolicy,
};
use tm_apps::{paper_unit_policies, AppId, Workload};
use tm_sched::ScheduleMode;

use crate::{BenchArgs, Scale};

/// One runnable configuration of one workload — the unit of work the
/// experiment runner schedules, and one entry of the emitted results.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Which application.
    pub app: AppId,
    /// Data-set label identifying the workload in the registry
    /// ([`Workload::lookup`] resolves it back).
    pub size_label: String,
    /// Display label of the unit policy ("4K", "16K", "Dyn", "Dyn8", ...).
    pub policy_label: String,
    /// The consistency-unit policy to run under.
    pub unit: UnitPolicy,
    /// Number of simulated processors.
    pub nprocs: usize,
    /// Deterministic seed consumed by the scheduler: FNV-1a of
    /// [`key`](Self::key), XOR the sweep's base seed (`--seed`, default 0).
    /// Recorded in the results so every row is traceable *and* replayable.
    pub seed: u64,
    /// Scheduler tie-break mode the cell runs under (`--schedule`).
    pub schedule: ScheduleMode,
    /// When diffs are created and charged (`--diff-timing`).  Never part of
    /// the cell key or seed: both timings exchange identical messages, so a
    /// cell's identity is timing-independent by design.
    pub diff_timing: DiffTiming,
    /// Write protocol the cell runs under (`--protocol`).  Part of the cell
    /// key (and therefore the seed) *only* for home-based cells — protocols
    /// genuinely exchange different messages, so two protocol variants of a
    /// grid point are distinct cells, while every pre-existing multi-writer
    /// key (and every pinned golden) stays untouched.
    pub protocol: ProtocolMode,
    /// Inert: there is one execution substrate.  The field and the
    /// matching [`Cell::new`] parameter survive only because the frozen
    /// `benchmark/` package names both; the next `benchmark` PR removes its
    /// call sites and then these.
    pub engine: EngineKind,
    /// Network (topology, aggregation) pair the cell models
    /// (`--topology`/`--aggregation`).  Part of the cell key (and therefore
    /// the seed) *only* when non-default — contended topologies genuinely
    /// change the modeled time, so a bus cell is a distinct identity, while
    /// every pre-existing ideal-network key (and every pinned golden) stays
    /// untouched.
    pub network: NetworkConfig,
    /// Whether the happens-before race detector runs alongside the cell
    /// (`--racecheck`).  Never part of the cell key or seed: detection is
    /// pure observation (measurements are bit-identical with it on or off),
    /// so a cell's identity — and every pinned golden — is
    /// racecheck-independent.
    pub racecheck: bool,
}

impl Cell {
    /// Build a cell for `w` under (`policy_label`, `unit`) on `nprocs`
    /// processors. `sched.seed` is the sweep's *base* seed, mixed into the
    /// cell's FNV identity seed; `sched.mode` is adopted as-is.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        w: &Workload,
        policy_label: &str,
        unit: UnitPolicy,
        nprocs: usize,
        sched: SchedConfig,
        diff_timing: DiffTiming,
        protocol: ProtocolMode,
        engine: EngineKind,
    ) -> Cell {
        let mut cell = Cell {
            app: w.app,
            size_label: w.size_label.clone(),
            policy_label: policy_label.to_string(),
            unit,
            nprocs,
            seed: 0,
            schedule: sched.mode,
            diff_timing,
            protocol,
            engine,
            network: NetworkConfig::default(),
            racecheck: false,
        };
        cell.seed = fnv1a(cell.key().as_bytes()) ^ sched.seed;
        cell
    }

    /// Builder-style setter for the network axis.  Re-derives the seed from
    /// the (possibly suffixed) key so a contended cell gets its own identity
    /// while the base seed mixed in by [`Cell::new`] is preserved; setting
    /// the default (ideal, per-message) network is an exact no-op.
    pub fn with_network(mut self, network: NetworkConfig) -> Cell {
        let base = self.seed ^ fnv1a(self.key().as_bytes());
        self.network = network;
        self.seed = fnv1a(self.key().as_bytes()) ^ base;
        self
    }

    /// Builder-style setter for the race-detection knob.  Does not touch the
    /// key or seed (see the field's documentation).
    pub fn with_racecheck(mut self, racecheck: bool) -> Cell {
        self.racecheck = racecheck;
        self
    }

    /// The scheduler configuration this cell's simulation runs under.
    pub fn sched_config(&self) -> SchedConfig {
        SchedConfig {
            mode: self.schedule,
            seed: self.seed,
        }
    }

    /// The cluster configuration this cell runs under: the one conversion
    /// from the harness's record to the simulator's.
    pub fn config(&self) -> DsmConfig {
        DsmConfig::with_procs(self.nprocs)
            .unit(self.unit)
            .protocol(self.protocol)
            .sched(self.sched_config())
            .diff_timing(self.diff_timing)
            .topology(self.network.topology)
            .aggregation(self.network.aggregation)
            .racecheck(self.racecheck)
    }

    /// Stable textual identity: `app/size/policy/pN`, with a `/protocol`
    /// suffix for non-default (home-based) protocols. Golden tests pin the
    /// key set of each named experiment so figure definitions cannot drift
    /// silently; multi-writer keys are byte-for-byte what they were before
    /// the protocol axis existed, so their seeds (and goldens) are stable.
    pub fn key(&self) -> String {
        let mut key = format!(
            "{}/{}/{}/p{}",
            self.app.name(),
            self.size_label,
            self.policy_label,
            self.nprocs
        );
        if self.protocol != ProtocolMode::MultiWriter {
            key.push('/');
            key.push_str(self.protocol.as_str());
        }
        if !self.network.is_default() {
            key.push('/');
            key.push_str(&self.network.label());
        }
        key
    }

    /// Resolve the workload this cell runs (`None` if the size label is not
    /// in the registry — possible for cells reloaded from a foreign file).
    pub fn workload(&self) -> Option<Workload> {
        Workload::lookup(self.app, &self.size_label)
    }
}

/// FNV-1a 64-bit hash — the seed derivation for cells.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// A named set of cells reproducing one artifact of the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct Experiment {
    /// Machine name ("fig1", "fig2", "fig3", "table1", "fig_dyn_group",
    /// "fig_network", "fig_scale").
    pub name: String,
    /// Human title printed as the report header.
    pub title: String,
    /// The cells, in deterministic definition order.
    pub cells: Vec<Cell>,
}

impl Experiment {
    /// The seven named experiments: the five paper artifacts in paper order,
    /// then the contention grid and the cluster-size sweep.
    pub fn all_names() -> [&'static str; 7] {
        [
            "table1",
            "fig1",
            "fig2",
            "fig3",
            "fig_dyn_group",
            "fig_network",
            "fig_scale",
        ]
    }

    /// Look up a named experiment under the given options.
    pub fn named(name: &str, args: &BenchArgs) -> Option<Experiment> {
        match name {
            "table1" => Some(Self::table1(args)),
            "fig1" => Some(Self::fig1(args)),
            "fig2" => Some(Self::fig2(args)),
            "fig3" => Some(Self::fig3(args)),
            "fig_dyn_group" => Some(Self::dyn_group(args)),
            "fig_network" => Some(Self::fig_network(args)),
            "fig_scale" => Some(Self::fig_scale(args)),
            _ => None,
        }
    }

    /// Figure 1 — the 4 K / 8 K / 16 K / Dyn sweep over the applications
    /// whose false sharing is size-independent (Barnes, Ilink, TSP, Water).
    pub fn fig1(args: &BenchArgs) -> Experiment {
        Self::policy_sweep(
            "fig1",
            format!(
                "Figure 1 — Barnes, Ilink, TSP, Water ({} processors)",
                args.nprocs
            ),
            AppId::figure1(),
            args,
        )
    }

    /// Figure 2 — the same sweep over the applications whose false sharing
    /// depends on the problem size (Jacobi, 3D-FFT, MGS, Shallow).
    pub fn fig2(args: &BenchArgs) -> Experiment {
        Self::policy_sweep(
            "fig2",
            format!(
                "Figure 2 — Jacobi, 3D-FFT, MGS, Shallow ({} processors)",
                args.nprocs
            ),
            AppId::figure2(),
            args,
        )
    }

    fn policy_sweep(name: &str, title: String, apps: Vec<AppId>, args: &BenchArgs) -> Experiment {
        let policies = paper_unit_policies();
        let mut cells = Vec::new();
        for app in apps {
            for w in args.workloads_for(app) {
                for (label, unit) in &policies {
                    cells.push(cell(
                        args,
                        &w,
                        label,
                        *unit,
                        args.nprocs,
                        args.protocol,
                        args.network(),
                    ));
                }
            }
        }
        Experiment {
            name: name.to_string(),
            title,
            cells,
        }
    }

    /// Table 1 — for every workload of the suite, a 1-processor reference
    /// run and an `nprocs`-processor run at the 4 KB unit; the renderer
    /// derives the speedup and checksum-verification columns from the pair.
    pub fn table1(args: &BenchArgs) -> Experiment {
        let mut cells = Vec::new();
        for w in args.suite() {
            let at = |nprocs| {
                cell(
                    args,
                    &w,
                    "4K",
                    FOUR_K,
                    nprocs,
                    args.protocol,
                    args.network(),
                )
            };
            cells.push(at(1));
            if args.nprocs != 1 {
                cells.push(at(args.nprocs));
            }
        }
        Experiment {
            name: "table1".to_string(),
            title: format!(
                "Table 1 — sequential times and {}-processor speedups (4 KB unit)",
                args.nprocs
            ),
            cells,
        }
    }

    /// Figure 3 — false-sharing signatures at the 4 KB and 16 KB units for
    /// Barnes, Ilink, Water and MGS (one representative data set each).
    pub fn fig3(args: &BenchArgs) -> Experiment {
        let mut cells = Vec::new();
        for app in crate::figure3_apps() {
            let Some(w) = representative(args, app) else {
                continue; // excluded by --app
            };
            for (label, unit) in [("4K", FOUR_K), ("16K", SIXTEEN_K)] {
                cells.push(cell(
                    args,
                    &w,
                    label,
                    unit,
                    args.nprocs,
                    args.protocol,
                    args.network(),
                ));
            }
        }
        Experiment {
            name: "fig3".to_string(),
            title: format!(
                "Figure 3 — false-sharing signatures at 4 KB and 16 KB ({} processors)",
                args.nprocs
            ),
            cells,
        }
    }

    /// The §4 ablation — dynamic aggregation with maximum group sizes 2, 4,
    /// 8 and 16 pages against the 4 KB static baseline, on one application
    /// that loves aggregation (Ilink) and one that false sharing hurts (MGS).
    pub fn dyn_group(args: &BenchArgs) -> Experiment {
        let mut cells = Vec::new();
        for app in [AppId::Ilink, AppId::Mgs] {
            let Some(w) = representative(args, app) else {
                continue; // excluded by --app
            };
            cells.push(cell(
                args,
                &w,
                "4K",
                FOUR_K,
                args.nprocs,
                args.protocol,
                args.network(),
            ));
            for max_group_pages in [2, 4, 8, 16] {
                let unit = UnitPolicy::Dynamic { max_group_pages };
                cells.push(cell(
                    args,
                    &w,
                    &unit.label(4096),
                    unit,
                    args.nprocs,
                    args.protocol,
                    args.network(),
                ));
            }
        }
        Experiment {
            name: "fig_dyn_group".to_string(),
            title: format!(
                "Dynamic aggregation group-size ablation ({} processors)",
                args.nprocs
            ),
            cells,
        }
    }

    /// The contention grid — the full network axis (ideal, shared bus,
    /// switched, each contended topology with and without wire aggregation)
    /// crossed against both write protocols, on the dynamic-group pair of
    /// applications: one that loves aggregation (Ilink) and one that false
    /// sharing hurts (MGS).  The grid fixes its own protocol and network
    /// axes; `--protocol`/`--topology`/`--aggregation` do not narrow it.
    pub fn fig_network(args: &BenchArgs) -> Experiment {
        let networks = [
            NetworkConfig::default(),
            NetworkConfig::new(Topology::SharedBus, AggregationPolicy::PerMessage),
            NetworkConfig::new(Topology::SharedBus, AggregationPolicy::Batched),
            NetworkConfig::new(Topology::Switched, AggregationPolicy::PerMessage),
            NetworkConfig::new(Topology::Switched, AggregationPolicy::Batched),
        ];
        let mut cells = Vec::new();
        for app in [AppId::Ilink, AppId::Mgs] {
            let Some(w) = representative(args, app) else {
                continue; // excluded by --app
            };
            for protocol in [ProtocolMode::MultiWriter, ProtocolMode::home_based()] {
                for network in networks {
                    cells.push(cell(args, &w, "4K", FOUR_K, args.nprocs, protocol, network));
                }
            }
        }
        Experiment {
            name: "fig_network".to_string(),
            title: format!(
                "Network contention — topologies × aggregation ({} processors)",
                args.nprocs
            ),
            cells,
        }
    }

    /// The cluster-size sweep — the 4 KB / 16 KB trade-off under both write
    /// protocols at 64, 256 and 1024 processors, on Jacobi.  Always runs the
    /// tiny data set: the artifact is the shape of the scaling curve, and
    /// the tiny set keeps the 1024-processor points tractable.  `--tiny`
    /// instead shrinks the cluster axis itself to 8/32/128 (the same 4×
    /// ladder), exactly as it shrinks data sets elsewhere — the full grid's
    /// largest points cost whole minutes of host time.  The processor counts
    /// and protocols are the grid's own axes; `--nprocs`/`--protocol` do not
    /// narrow them, while `--topology`/`--aggregation` apply to every cell.
    pub fn fig_scale(args: &BenchArgs) -> Experiment {
        let w = Workload::tiny(AppId::Jacobi);
        let sizes = match args.scale {
            Scale::Tiny => [8, 32, 128],
            Scale::Paper | Scale::Large => [64usize, 256, 1024],
        };
        let mut cells = Vec::new();
        for nprocs in sizes {
            for protocol in [ProtocolMode::MultiWriter, ProtocolMode::home_based()] {
                for (label, unit) in [("4K", FOUR_K), ("16K", SIXTEEN_K)] {
                    cells.push(cell(
                        args,
                        &w,
                        label,
                        unit,
                        nprocs,
                        protocol,
                        args.network(),
                    ));
                }
            }
        }
        Experiment {
            name: "fig_scale".to_string(),
            title: "Cluster-size sweep — 64/256/1024 processors, both protocols (Jacobi, tiny)"
                .to_string(),
            cells,
        }
    }
}

/// The paper's base unit, one 4 KB page.
const FOUR_K: UnitPolicy = UnitPolicy::Static { pages: 1 };
/// The paper's largest static unit, four pages.
const SIXTEEN_K: UnitPolicy = UnitPolicy::Static { pages: 4 };

/// The one place a named experiment builds a cell: the grid point
/// (`w`, `label`/`unit`, `nprocs`, `protocol`, `network`) under the options
/// every cell of a run shares (`--seed`, `--schedule`, `--diff-timing`,
/// `--racecheck`).
fn cell(
    args: &BenchArgs,
    w: &Workload,
    label: &str,
    unit: UnitPolicy,
    nprocs: usize,
    protocol: ProtocolMode,
    network: NetworkConfig,
) -> Cell {
    Cell::new(
        w,
        label,
        unit,
        nprocs,
        args.sched(),
        args.diff_timing,
        protocol,
        EngineKind::default(),
    )
    .with_network(network)
    .with_racecheck(args.racecheck)
}

/// The data set a single-workload-per-app experiment shows: the second paper
/// size where one exists (Figure 3 uses MGS's 1Kx1K set, the second of our
/// list), otherwise the only one — or `None` when `--app` excludes the
/// application entirely.
fn representative(args: &BenchArgs, app: AppId) -> Option<Workload> {
    let mut workloads = args.workloads_for(app);
    if workloads.len() > 1 {
        Some(workloads.swap_remove(1))
    } else if workloads.len() == 1 {
        Some(workloads.swap_remove(0))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(nprocs: usize, tiny: bool) -> BenchArgs {
        BenchArgs {
            nprocs,
            scale: if tiny {
                crate::Scale::Tiny
            } else {
                crate::Scale::Paper
            },
            ..BenchArgs::defaults(nprocs)
        }
    }

    #[test]
    fn cell_seeds_are_deterministic_and_distinct() {
        let a = args(8, false);
        let exp = Experiment::fig1(&a);
        let again = Experiment::fig1(&a);
        assert_eq!(exp, again);
        let mut seeds: Vec<u64> = exp.cells.iter().map(|c| c.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), exp.cells.len(), "seed collision across cells");
    }

    #[test]
    fn base_seed_and_schedule_flow_into_every_cell() {
        use tm_sched::ScheduleMode;
        let plain = args(8, false);
        let mut shifted = args(8, false);
        shifted.seed = 0x5a5a;
        shifted.schedule = ScheduleMode::Fifo;
        for name in Experiment::all_names() {
            let a = Experiment::named(name, &plain).unwrap();
            let b = Experiment::named(name, &shifted).unwrap();
            for (ca, cb) in a.cells.iter().zip(&b.cells) {
                assert_eq!(ca.key(), cb.key(), "grids must not depend on the seed");
                // XOR mixing: the base seed shifts every cell seed...
                assert_eq!(cb.seed, ca.seed ^ 0x5a5a);
                // ...and the schedule mode is adopted verbatim.
                assert_eq!(ca.schedule, ScheduleMode::Seeded);
                assert_eq!(cb.schedule, ScheduleMode::Fifo);
                assert_eq!(cb.sched_config().seed, cb.seed);
            }
        }
    }

    #[test]
    fn protocol_flows_into_cells_and_distinguishes_keys() {
        let mw = args(8, false);
        let mut home = args(8, false);
        home.protocol = ProtocolMode::home_based();
        // fig_network and fig_scale fix their own protocol axes, so only the
        // five paper experiments follow `--protocol`.
        for name in ["table1", "fig1", "fig2", "fig3", "fig_dyn_group"] {
            let a = Experiment::named(name, &mw).unwrap();
            let b = Experiment::named(name, &home).unwrap();
            assert_eq!(a.cells.len(), b.cells.len());
            for (ca, cb) in a.cells.iter().zip(&b.cells) {
                assert_eq!(ca.protocol, ProtocolMode::MultiWriter);
                assert_eq!(cb.protocol, ProtocolMode::home_based());
                // Home-based cells are distinct identities (suffixed key,
                // own seed); multi-writer keys are what they always were.
                assert_eq!(cb.key(), format!("{}/home-based", ca.key()));
                assert_ne!(ca.seed, cb.seed);
            }
        }
    }

    #[test]
    fn racecheck_flows_into_cells_without_changing_identity() {
        let plain = args(8, false);
        let mut checked = args(8, false);
        checked.racecheck = true;
        for name in Experiment::all_names() {
            let a = Experiment::named(name, &plain).unwrap();
            let b = Experiment::named(name, &checked).unwrap();
            assert_eq!(a.cells.len(), b.cells.len());
            for (ca, cb) in a.cells.iter().zip(&b.cells) {
                assert!(!ca.racecheck);
                assert!(cb.racecheck);
                // Detection is pure observation, so it is not an identity
                // axis: keys and seeds — and every pinned golden — are
                // untouched.
                assert_eq!(ca.key(), cb.key());
                assert_eq!(ca.seed, cb.seed);
            }
        }
    }

    #[test]
    fn named_lookup_covers_all_seven() {
        let a = args(2, true);
        for name in Experiment::all_names() {
            let exp = Experiment::named(name, &a).expect(name);
            assert_eq!(exp.name, name);
            assert!(!exp.cells.is_empty());
            for cell in &exp.cells {
                assert!(
                    cell.workload().is_some(),
                    "unresolvable cell {}",
                    cell.key()
                );
            }
        }
        assert!(Experiment::named("fig9", &a).is_none());
    }

    #[test]
    fn network_suffixes_keys_and_rederives_seeds() {
        let a = args(8, false);
        let base = Experiment::fig1(&a).cells[0].clone();
        assert!(base.network.is_default());
        assert!(
            !base.key().contains("ideal"),
            "default keys carry no suffix"
        );

        // Setting the default network is an exact no-op (golden stability).
        let same = base.clone().with_network(NetworkConfig::default());
        assert_eq!(same, base);

        // A contended network suffixes the key and re-derives the seed...
        let bus = base.clone().with_network(NetworkConfig::new(
            Topology::SharedBus,
            AggregationPolicy::Batched,
        ));
        assert_eq!(bus.key(), format!("{}/bus+batched", base.key()));
        assert_ne!(bus.seed, base.seed);
        // ...preserving the mixed-in base seed: re-deriving from scratch
        // with the same sweep seed agrees.
        assert_eq!(bus.seed, fnv1a(bus.key().as_bytes()) ^ a.sched().seed);
        // Round-tripping back to the default restores the original identity.
        assert_eq!(bus.with_network(NetworkConfig::default()), base);
    }

    #[test]
    fn fig_network_crosses_protocols_and_networks() {
        let a = args(8, true);
        let exp = Experiment::fig_network(&a);
        // 2 apps x 2 protocols x 5 networks.
        assert_eq!(exp.cells.len(), 20);
        let mut keys: Vec<String> = exp.cells.iter().map(|c| c.key()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 20, "every grid point is a distinct identity");
        for label in ["bus", "bus+batched", "switched", "switched+batched"] {
            assert_eq!(
                exp.cells
                    .iter()
                    .filter(|c| c.network.label() == label)
                    .count(),
                4,
                "each contended network covers 2 apps x 2 protocols"
            );
        }
        assert_eq!(
            exp.cells.iter().filter(|c| c.network.is_default()).count(),
            4,
            "the ideal baseline is part of the grid"
        );
    }

    #[test]
    fn fig_scale_sweeps_cluster_sizes_and_protocols() {
        let a = args(8, false);
        let exp = Experiment::fig_scale(&a);
        // 3 cluster sizes x 2 protocols x 2 units, Jacobi tiny only.
        assert_eq!(exp.cells.len(), 12);
        for nprocs in [64, 256, 1024] {
            assert_eq!(exp.cells.iter().filter(|c| c.nprocs == nprocs).count(), 4);
        }
        // `--tiny` shrinks the cluster axis itself, same 4x ladder.
        let small = Experiment::fig_scale(&args(8, true));
        assert_eq!(small.cells.len(), 12);
        for nprocs in [8, 32, 128] {
            assert_eq!(small.cells.iter().filter(|c| c.nprocs == nprocs).count(), 4);
        }
        assert!(exp.cells.iter().all(|c| c.app == AppId::Jacobi));
        assert_eq!(
            exp.cells
                .iter()
                .filter(|c| c.protocol == ProtocolMode::home_based())
                .count(),
            6
        );
        // `--topology` flows into every cell of the sweep.
        let mut bus = args(8, true);
        bus.topology = Topology::SharedBus;
        let contended = Experiment::fig_scale(&bus);
        assert!(contended
            .cells
            .iter()
            .all(|c| c.key().ends_with("/bus") || c.key().contains("/bus/")));
    }

    #[test]
    fn table1_collapses_to_one_cell_per_workload_at_one_proc() {
        let exp = Experiment::table1(&args(1, true));
        assert_eq!(exp.cells.len(), 8);
        assert!(exp.cells.iter().all(|c| c.nprocs == 1));
        let exp8 = Experiment::table1(&args(8, true));
        assert_eq!(exp8.cells.len(), 16);
    }
}
