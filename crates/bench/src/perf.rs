//! The performance-trajectory artifact (`BENCH_PR10.json`) and its
//! regression gate.
//!
//! The optimization work needs a way to *stay* fast: this module measures
//! a fixed set of host-side timings — median wall times of the same micro
//! workloads the criterion bench targets (`diffing`, `primitives`,
//! `aggregation`) exercise, plus the wall time of the canonical
//! `fig2 4 --scale large --app Jacobi` sweep — and emits them as a small
//! versioned JSON document.  The `bench` binary produces the artifact; CI
//! regenerates it on every PR and [`compare_reports`] fails the job when any
//! tracked timing regresses by more than [`DEFAULT_TOLERANCE`] against the
//! checked-in baseline.
//!
//! Two kinds of fields live in the document:
//!
//! * **timings** (`median_ns`, `wall_ms`) — host measurements, noisy by
//!   nature, gated with a tolerance band, and
//! * **digests** (checksums, message/byte/fault counts, span shapes) — the
//!   deterministic simulator outputs of the measured workloads.  These must
//!   reproduce *bit-identically*; any digest difference means an
//!   optimization changed protocol behaviour and the gate fails regardless
//!   of speed.

use std::hint::black_box;
use std::time::Instant;

use serde::json::Value;
use serde::{field_arr, field_f64, field_str, field_u64, FromJson, JsonSchemaError, ToJson};
use tdsm_core::{DiffTiming, SchedConfig, Topology, UnitPolicy};
use tm_apps::{jacobi, paper_unit_policies, AppConfig, AppId, Workload};
use tm_page::{Diff, LocalPage, PageId};

/// Identifier of the perf-artifact schema; bumped on breaking changes.
pub const PERF_SCHEMA: &str = "tm-bench/perf/v1";

/// Name of the artifact this PR checks in and CI regenerates.  The memory-
/// traffic overhaul re-baselined the PR 6 artifact; its sweep wall time is
/// carried forward as the `reference` block of `BENCH_PR10.json`.
pub const PERF_ARTIFACT: &str = "BENCH_PR10";

/// Default regression tolerance of the gate: a timing may be up to 20 %
/// slower than the baseline before the comparison fails.
pub const DEFAULT_TOLERANCE: f64 = 0.20;

/// One micro measurement: the median host time of a small fixed workload,
/// plus a digest of its deterministic output.
#[derive(Debug, Clone, PartialEq)]
pub struct MicroSample {
    /// Stable identifier, `<criterion-group>/<bench>` style.
    pub id: String,
    /// Median wall time of one iteration, in nanoseconds.
    pub median_ns: u64,
    /// Hex digest of the workload's deterministic result.
    pub digest: String,
}

/// The canonical sweep measurement: wall time plus the sweep's deterministic
/// protocol totals.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSample {
    /// Stable identifier encoding app, scale and processor count.
    pub id: String,
    /// Host wall time of the whole sweep, in milliseconds.
    pub wall_ms: f64,
    /// Number of rows (unit policies) the sweep produced.
    pub rows: u64,
    /// Sum of modeled execution times over all rows, in nanoseconds.
    pub exec_time_ns: u64,
    /// Sum of total messages over all rows.
    pub total_msgs: u64,
    /// Sum of classified data bytes over all rows.
    pub total_data: u64,
    /// Sum of consistency-unit faults over all rows.
    pub faults: u64,
    /// Rotating fold of the rows' checksum bit patterns, as hex (a plain
    /// XOR would self-cancel: every policy produces the same checksum).
    pub checksum: String,
}

/// Optional record of the pre-optimization reference the artifact was
/// measured against (same host, interleaved runs).
#[derive(Debug, Clone, PartialEq)]
pub struct Reference {
    /// Reference sweep wall time, in milliseconds.
    pub wall_ms: f64,
    /// `wall_ms(reference) / wall_ms(sweep)` — the recorded speedup.
    pub speedup: f64,
}

/// The whole artifact: schema header, micro timings, sweep timing, and the
/// optional pre-optimization reference.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfReport {
    /// Always [`PERF_SCHEMA`].
    pub schema: String,
    /// Always [`PERF_ARTIFACT`].
    pub artifact: String,
    /// Micro measurements, in a fixed order.
    pub micro: Vec<MicroSample>,
    /// The canonical sweep measurement.
    pub sweep: SweepSample,
    /// Pre-optimization reference, when one was recorded.
    pub reference: Option<Reference>,
}

/// What to measure and how hard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerfOptions {
    /// Iterations per micro workload (the median is reported).
    pub iters: usize,
    /// Quick mode: tiny data sets, for tests and smoke runs.  The sample
    /// identifiers differ from full mode, so a quick report never silently
    /// gates against a full baseline.
    pub quick: bool,
    /// Modeled interconnect the simulator workloads run on (`--topology`).
    /// The checked-in artifact uses the ideal default; a contended topology
    /// changes the sweep's modeled `exec_time_ns` (a deterministic digest),
    /// so a bus-measured report never silently gates against an
    /// ideal-measured baseline — the comparison fails on the digest.
    pub topology: Topology,
}

impl PerfOptions {
    /// The configuration the checked-in artifact and the CI gate use.
    pub fn full() -> Self {
        PerfOptions {
            iters: 9,
            quick: false,
            topology: Topology::default(),
        }
    }

    /// Tiny workloads and few iterations — seconds, not minutes.
    pub fn quick() -> Self {
        PerfOptions {
            iters: 3,
            quick: true,
            topology: Topology::default(),
        }
    }
}

/// Time `iters` runs of `f` and return the median duration in nanoseconds
/// together with the digest of the last run (every run must produce the
/// same digest; callers assert that where it matters).
fn median_ns<F: FnMut() -> u64>(iters: usize, mut f: F) -> (u64, u64) {
    assert!(iters > 0);
    let mut times = Vec::with_capacity(iters);
    let mut digest = 0u64;
    for _ in 0..iters {
        let t0 = Instant::now();
        digest = black_box(f());
        times.push(t0.elapsed().as_nanos() as u64);
    }
    times.sort_unstable();
    (times[iters / 2], digest)
}

fn hex(d: u64) -> String {
    format!("{d:016x}")
}

/// The micro suite: the same workloads the criterion targets in
/// `benches/{diffing,primitives,aggregation}.rs` time, measured here with a
/// plain median-of-N timer so one binary can produce the whole artifact.
fn collect_micro(opts: &PerfOptions) -> Vec<MicroSample> {
    let mut out = Vec::new();
    let iters = opts.iters;
    // Micro workloads repeat the op enough times per iteration that the
    // median is well above timer resolution.
    let reps = if opts.quick { 8 } else { 64 };

    // -- primitives: diff creation / application / twin, as in
    //    benches/primitives.rs --
    let twin = vec![0u8; 4096];
    let mut sparse = twin.clone();
    for w in (0..1024).step_by(16) {
        sparse[w * 4] = 1;
    }
    let dense = vec![0xAAu8; 4096];

    let mut push = |id: &str, (m, d): (u64, u64)| {
        out.push(MicroSample {
            id: id.to_string(),
            median_ns: m,
            digest: hex(d),
        })
    };

    push(
        "primitives/diff_create_sparse_page",
        median_ns(iters, || {
            let mut d = 0u64;
            for _ in 0..reps {
                let diff = Diff::create(PageId(0), &twin, &sparse);
                d = (diff.spans().len() as u64) << 32 | diff.payload_bytes();
            }
            d
        }),
    );
    push(
        "primitives/diff_create_full_page",
        median_ns(iters, || {
            let mut d = 0u64;
            for _ in 0..reps {
                let diff = Diff::create(PageId(0), &twin, &dense);
                d = (diff.spans().len() as u64) << 32 | diff.payload_bytes();
            }
            d
        }),
    );
    let full = Diff::create(PageId(0), &twin, &dense);
    push(
        "primitives/diff_apply_full_page",
        median_ns(iters, || {
            let mut d = 0u64;
            for _ in 0..reps {
                let mut target = twin.clone();
                full.apply(&mut target);
                d = target.iter().map(|&b| b as u64).sum();
            }
            d
        }),
    );
    push(
        "primitives/twin_creation",
        median_ns(iters, || {
            let mut d = 0u64;
            for _ in 0..reps {
                let mut page = LocalPage::new_zeroed(4096);
                page.write_bytes(0, &[1u8; 64]);
                page.ensure_twin();
                d += 1;
            }
            d
        }),
    );

    // -- diffing: the lazy-timing Jacobi run of benches/diffing.rs --
    let sched = SchedConfig::seeded(0x6c);
    let (jacobi_id, jacobi_size) = if opts.quick {
        (
            "diffing/jacobi_tiny_4procs_lazy",
            jacobi::JacobiSize::tiny(),
        )
    } else {
        (
            "diffing/jacobi_small_4procs_lazy",
            jacobi::JacobiSize::small(),
        )
    };
    let cfg = AppConfig::with_procs(4)
        .sched(sched)
        .diff_timing(DiffTiming::Lazy)
        .topology(opts.topology);
    push(
        jacobi_id,
        median_ns(iters, || {
            jacobi::run_parallel(&cfg, &jacobi_size).checksum.to_bits()
        }),
    );

    // -- aggregation: the dynamic-aggregation producer/consumer of
    //    benches/aggregation.rs (scaled down in quick mode) --
    let agg_pages = if opts.quick { 4 } else { 16 };
    let agg_id = if opts.quick {
        "aggregation/producer_consumer_dyn_4pages"
    } else {
        "aggregation/producer_consumer_dyn_16pages"
    };
    push(
        agg_id,
        median_ns(iters, || {
            use tdsm_core::{Align, CostModel, Dsm, DsmConfig};
            let mut dsm = Dsm::new(DsmConfig {
                nprocs: 4,
                page_size: 4096,
                shared_pages: 64,
                unit: UnitPolicy::Dynamic { max_group_pages: 4 },
                cost: CostModel::pentium_ethernet_1997(),
                max_locks: 16,
                sched: SchedConfig::default(),
                topology: opts.topology,
                ..DsmConfig::paper_default()
            });
            let arr = dsm.alloc_array::<u64>(agg_pages * 512, Align::Page);
            let out = dsm.run(async |ctx| {
                if ctx.rank() == 0 {
                    let vals: Vec<u64> = (0..arr.len() as u64).collect();
                    arr.write_slice(ctx, 0, &vals).await;
                }
                ctx.barrier().await;
                arr.read_vec(ctx, 0, arr.len()).await.iter().sum::<u64>()
            });
            out.results[1]
        }),
    );

    out
}

/// Run the canonical sweep — the four-policy Jacobi sweep `fig2` runs with
/// `4 --scale large --app Jacobi` (tiny in quick mode) — and record its wall
/// time plus deterministic totals.
fn collect_sweep(opts: &PerfOptions) -> SweepSample {
    let nprocs = 4;
    let (scale, w) = if opts.quick {
        ("tiny", Workload::tiny(AppId::Jacobi))
    } else {
        ("large", Workload::large(AppId::Jacobi))
    };
    let t0 = Instant::now();
    // Under the default scheduler configuration, not a cell's identity
    // seed: the checked-in artifact's sweep digest is pinned under it.
    let runs: Vec<_> = paper_unit_policies()
        .into_iter()
        .map(|(_, unit)| {
            let cfg = AppConfig::with_procs(nprocs)
                .unit(unit)
                .topology(opts.topology);
            w.run_parallel(&cfg)
        })
        .collect();
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    SweepSample {
        id: format!("fig2/Jacobi/{scale}/{nprocs}procs"),
        wall_ms,
        rows: runs.len() as u64,
        exec_time_ns: runs.iter().map(|r| r.exec_time_ns).sum(),
        total_msgs: runs.iter().map(|r| r.breakdown.total_messages()).sum(),
        total_data: runs.iter().map(|r| r.breakdown.total_payload()).sum(),
        faults: runs.iter().map(|r| r.breakdown.faults).sum(),
        checksum: hex(runs
            .iter()
            .fold(0u64, |acc, r| acc.rotate_left(17) ^ r.checksum.to_bits())),
    }
}

/// Measure everything and assemble the artifact (no reference recorded).
pub fn collect_report(opts: &PerfOptions) -> PerfReport {
    PerfReport {
        schema: PERF_SCHEMA.to_string(),
        artifact: PERF_ARTIFACT.to_string(),
        micro: collect_micro(opts),
        sweep: collect_sweep(opts),
        reference: None,
    }
}

/// Zero every host timing in place, leaving only the deterministic fields —
/// what the determinism test (and a human diffing two artifacts) compares.
pub fn strip_timings(report: &mut PerfReport) {
    for m in &mut report.micro {
        m.median_ns = 0;
    }
    report.sweep.wall_ms = 0.0;
    report.reference = None;
}

/// Gate `current` against `baseline`: every digest must match bit for bit,
/// and no timing may exceed its baseline by more than `tolerance`
/// (fractional, e.g. `0.20` for 20 %).  Returns every violation, so one run
/// reports all regressions at once.
pub fn compare_reports(
    baseline: &PerfReport,
    current: &PerfReport,
    tolerance: f64,
) -> Result<(), Vec<String>> {
    let mut errs = Vec::new();
    if baseline.schema != current.schema {
        errs.push(format!(
            "schema mismatch: baseline '{}' vs current '{}'",
            baseline.schema, current.schema
        ));
    }
    let slow = |base: u64, cur: u64| cur as f64 > base as f64 * (1.0 + tolerance);
    for b in &baseline.micro {
        let Some(c) = current.micro.iter().find(|c| c.id == b.id) else {
            errs.push(format!("micro '{}' missing from current report", b.id));
            continue;
        };
        if b.digest != c.digest {
            errs.push(format!(
                "micro '{}' digest changed: {} -> {} (deterministic output differs)",
                b.id, b.digest, c.digest
            ));
        }
        if slow(b.median_ns, c.median_ns) {
            errs.push(format!(
                "micro '{}' regressed: {} ns -> {} ns (> {:.0} % over baseline)",
                b.id,
                b.median_ns,
                c.median_ns,
                tolerance * 100.0
            ));
        }
    }
    let (bs, cs) = (&baseline.sweep, &current.sweep);
    if bs.id != cs.id {
        errs.push(format!(
            "sweep id mismatch: baseline '{}' vs current '{}' (different scale/config?)",
            bs.id, cs.id
        ));
    } else {
        for (what, b, c) in [
            ("rows", bs.rows, cs.rows),
            ("exec_time_ns", bs.exec_time_ns, cs.exec_time_ns),
            ("total_msgs", bs.total_msgs, cs.total_msgs),
            ("total_data", bs.total_data, cs.total_data),
            ("faults", bs.faults, cs.faults),
        ] {
            if b != c {
                errs.push(format!(
                    "sweep '{}' {what} changed: {b} -> {c} (deterministic output differs)",
                    bs.id
                ));
            }
        }
        if bs.checksum != cs.checksum {
            errs.push(format!(
                "sweep '{}' checksum changed: {} -> {}",
                bs.id, bs.checksum, cs.checksum
            ));
        }
        if cs.wall_ms > bs.wall_ms * (1.0 + tolerance) {
            errs.push(format!(
                "sweep '{}' regressed: {:.1} ms -> {:.1} ms (> {:.0} % over baseline)",
                bs.id,
                bs.wall_ms,
                cs.wall_ms,
                tolerance * 100.0
            ));
        }
    }
    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs)
    }
}

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

impl ToJson for MicroSample {
    fn to_json(&self) -> Value {
        Value::obj(vec![
            ("id", Value::Str(self.id.clone())),
            ("median_ns", Value::Num(self.median_ns as f64)),
            ("digest", Value::Str(self.digest.clone())),
        ])
    }
}

impl FromJson for MicroSample {
    fn from_json(v: &Value) -> Result<Self, JsonSchemaError> {
        Ok(MicroSample {
            id: field_str(v, "id")?.to_string(),
            median_ns: field_u64(v, "median_ns")?,
            digest: field_str(v, "digest")?.to_string(),
        })
    }
}

impl ToJson for SweepSample {
    fn to_json(&self) -> Value {
        Value::obj(vec![
            ("id", Value::Str(self.id.clone())),
            ("wall_ms", Value::Num(self.wall_ms)),
            ("rows", Value::Num(self.rows as f64)),
            ("exec_time_ns", Value::Num(self.exec_time_ns as f64)),
            ("total_msgs", Value::Num(self.total_msgs as f64)),
            ("total_data", Value::Num(self.total_data as f64)),
            ("faults", Value::Num(self.faults as f64)),
            ("checksum", Value::Str(self.checksum.clone())),
        ])
    }
}

impl FromJson for SweepSample {
    fn from_json(v: &Value) -> Result<Self, JsonSchemaError> {
        Ok(SweepSample {
            id: field_str(v, "id")?.to_string(),
            wall_ms: field_f64(v, "wall_ms")?,
            rows: field_u64(v, "rows")?,
            exec_time_ns: field_u64(v, "exec_time_ns")?,
            total_msgs: field_u64(v, "total_msgs")?,
            total_data: field_u64(v, "total_data")?,
            faults: field_u64(v, "faults")?,
            checksum: field_str(v, "checksum")?.to_string(),
        })
    }
}

impl ToJson for Reference {
    fn to_json(&self) -> Value {
        Value::obj(vec![
            ("wall_ms", Value::Num(self.wall_ms)),
            ("speedup", Value::Num(self.speedup)),
        ])
    }
}

impl FromJson for Reference {
    fn from_json(v: &Value) -> Result<Self, JsonSchemaError> {
        Ok(Reference {
            wall_ms: field_f64(v, "wall_ms")?,
            speedup: field_f64(v, "speedup")?,
        })
    }
}

impl ToJson for PerfReport {
    fn to_json(&self) -> Value {
        let mut pairs = vec![
            ("schema".to_string(), Value::Str(self.schema.clone())),
            ("artifact".to_string(), Value::Str(self.artifact.clone())),
            (
                "micro".to_string(),
                Value::Arr(self.micro.iter().map(|m| m.to_json()).collect()),
            ),
            ("sweep".to_string(), self.sweep.to_json()),
        ];
        if let Some(r) = &self.reference {
            pairs.push(("reference".to_string(), r.to_json()));
        }
        Value::Obj(pairs)
    }
}

impl FromJson for PerfReport {
    fn from_json(v: &Value) -> Result<Self, JsonSchemaError> {
        let schema = field_str(v, "schema")?;
        if schema != PERF_SCHEMA {
            return Err(JsonSchemaError::new("schema", PERF_SCHEMA));
        }
        let mut micro = Vec::new();
        for (i, m) in field_arr(v, "micro")?.iter().enumerate() {
            micro
                .push(MicroSample::from_json(m).map_err(|e| e.in_context(&format!("micro[{i}]")))?);
        }
        Ok(PerfReport {
            schema: schema.to_string(),
            artifact: field_str(v, "artifact")?.to_string(),
            micro,
            sweep: {
                let s = v
                    .get("sweep")
                    .ok_or_else(|| JsonSchemaError::new("sweep", "object"))?;
                SweepSample::from_json(s).map_err(|e| e.in_context("sweep"))?
            },
            reference: match v.get("reference") {
                None => None,
                Some(r) => Some(Reference::from_json(r).map_err(|e| e.in_context("reference"))?),
            },
        })
    }
}

/// Parse a perf artifact previously produced by the `bench` binary.
pub fn parse_perf_report(text: &str) -> Result<PerfReport, String> {
    let v = serde::json::parse(text).map_err(|e| e.to_string())?;
    PerfReport::from_json(&v).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_report() -> PerfReport {
        collect_report(&PerfOptions {
            iters: 1,
            ..PerfOptions::quick()
        })
    }

    #[test]
    fn report_schema_validates_and_round_trips() {
        let report = quick_report();
        assert_eq!(report.schema, PERF_SCHEMA);
        assert_eq!(report.artifact, PERF_ARTIFACT);
        assert_eq!(report.micro.len(), 6);
        // Ids are unique and group-prefixed like the criterion targets.
        let mut ids: Vec<&str> = report.micro.iter().map(|m| m.id.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), report.micro.len());
        for m in &report.micro {
            assert!(
                m.id.starts_with("primitives/")
                    || m.id.starts_with("diffing/")
                    || m.id.starts_with("aggregation/"),
                "unexpected micro id {}",
                m.id
            );
            assert_eq!(m.digest.len(), 16, "digest must be a 64-bit hex string");
        }
        assert!(report.sweep.rows == 4, "four unit policies per sweep");
        assert!(report.sweep.total_msgs > 0);

        // JSON round trip preserves everything.
        let text = report.to_json().pretty();
        let back = parse_perf_report(&text).expect("round trip");
        assert_eq!(back, report);

        // A reference survives the round trip too.
        let mut with_ref = report.clone();
        with_ref.reference = Some(Reference {
            wall_ms: 123.0,
            speedup: 3.5,
        });
        let back = parse_perf_report(&with_ref.to_json().pretty()).expect("round trip");
        assert_eq!(back, with_ref);

        // Wrong schema is rejected.
        let bad = text.replace(PERF_SCHEMA, "tm-bench/perf/v999");
        assert!(parse_perf_report(&bad).is_err());
    }

    #[test]
    fn non_timing_fields_are_deterministic() {
        let mut a = quick_report();
        let mut b = quick_report();
        strip_timings(&mut a);
        strip_timings(&mut b);
        assert_eq!(
            a.to_json().pretty(),
            b.to_json().pretty(),
            "digests and identifiers must reproduce bit-identically"
        );
    }

    #[test]
    fn comparator_accepts_equal_and_rejects_slowdown() {
        let base = quick_report();

        // Identical reports pass.
        assert!(compare_reports(&base, &base.clone(), DEFAULT_TOLERANCE).is_ok());

        // A 2x slowdown in every timing fails, and every regression is
        // reported.
        let mut slow = base.clone();
        for m in &mut slow.micro {
            // `max(1)` so even a sub-resolution 0 ns median regresses.
            m.median_ns = (m.median_ns.max(1)) * 2;
        }
        slow.sweep.wall_ms = (slow.sweep.wall_ms.max(1.0)) * 2.0;
        let errs = compare_reports(&base, &slow, DEFAULT_TOLERANCE).unwrap_err();
        assert_eq!(errs.len(), base.micro.len() + 1);
        assert!(errs.iter().all(|e| e.contains("regressed")));

        // Within-tolerance jitter passes.
        let mut jitter = base.clone();
        for m in &mut jitter.micro {
            m.median_ns += m.median_ns / 10;
        }
        assert!(compare_reports(&base, &jitter, DEFAULT_TOLERANCE).is_ok());

        // A digest change fails even when timings improve.
        let mut drifted = base.clone();
        drifted.micro[0].digest = hex(0xdead_beef);
        drifted.sweep.total_msgs += 1;
        let errs = compare_reports(&base, &drifted, DEFAULT_TOLERANCE).unwrap_err();
        assert_eq!(errs.len(), 2);
        assert!(errs.iter().all(|e| e.contains("changed")));

        // A missing micro fails.
        let mut missing = base.clone();
        missing.micro.remove(0);
        assert!(compare_reports(&base, &missing, DEFAULT_TOLERANCE).is_err());

        // A sweep id mismatch (quick vs full artifact) fails loudly.
        let mut other = base.clone();
        other.sweep.id = "fig2/Jacobi/large/4procs".to_string();
        let errs = compare_reports(&base, &other, DEFAULT_TOLERANCE).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("sweep id mismatch")));
    }
}
