//! The metric names, units and directions this benchmark prints — the same
//! list `BENCHMARK.json` declares (a self-test compares the two).
//!
//! *Host* metrics are noisy measurements of the simulator on this machine;
//! *modeled* metrics are simulated statistics that repeat exactly for a
//! fixed seed and must not move under a speed-only change.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, printed with `--trace 0`.
///
/// One bound per metric for all workloads.  The host-time bounds are wide
/// because this sandbox's neighbours are: whole repetitions of one process
/// differ by 10–100 % when the host is busy (README.md), which is also why
/// `wall_s` is the least-interference estimate and not the median.  The
/// exact metrics' bounds only absorb the difference between seeds.
pub const END_TO_END: &[MetricDef] = &[
    // host: one repetition of all the workload's cells, every cell at the
    // fastest of its timed executions
    e2e("wall_s", "s", Lower, 0.25),
    // host: VmHWM of the workload's process
    e2e("peak_rss_mib", "MiB", Lower, 0.10),
    // host, exact: bytes requested from the allocator in one repetition
    e2e("alloc_mib", "MiB", Lower, 0.01),
    // host, exact: allocator calls in one repetition
    e2e("alloc_calls_k", "kcalls", Lower, 0.01),
    // host: fastest set-up (expansion + references) plus the cold repetition
    e2e("setup_s", "s", Lower, 0.25),
    // modeled, exact per seed: the paper's time, message and data axes
    e2e("sim_exec_s", "sim_s", Lower, 0.10),
    e2e("sim_msgs_k", "kmsgs", Lower, 0.01),
    e2e("sim_wire_mib", "MiB", Lower, 0.01),
];

/// Per-layer metrics, printed with `--trace 1`.
pub const PER_LAYER: &[MetricDef] = &[
    // -- tm-page probes --
    layer("page.write_tracked_ns_per_kib", "ns/KiB", Lower),
    layer("page.read_attr_ns_per_kib", "ns/KiB", Lower),
    layer("page.twin_ns", "ns", Lower),
    layer("page.diff_create_dense_ns", "ns", Lower),
    layer("page.diff_create_sparse_ns", "ns", Lower),
    layer("page.diff_apply_dense_ns", "ns", Lower),
    layer("page.diff_apply_sparse_ns", "ns", Lower),
    layer("page.diff_merge_ns", "ns", Lower),
    layer("page.home_apply_ns", "ns", Lower),
    layer("page.home_fetch_ns", "ns", Lower),
    // -- tdsm-core probes --
    layer("core.log_publish_ns", "ns", Lower),
    layer("core.log_fetch_ns", "ns", Lower),
    layer("core.log_retire_ns", "ns", Lower),
    layer("core.vc_merge_ns_n8", "ns", Lower),
    layer("core.vc_merge_ns_n1024", "ns", Lower),
    layer("core.agg_rebuild_ns", "ns", Lower),
    layer("core.access_hit_ns_per_word", "ns/word", Lower),
    layer("core.fault_roundtrip_ns", "ns", Lower),
    layer("core.lock_handoff_ns", "ns", Lower),
    layer("core.barrier_ns_n8", "ns", Lower),
    layer("core.barrier_ns_n1024", "ns", Lower),
    layer("core.run_empty_ns_n8", "ns", Lower),
    layer("core.run_empty_ns_n1024", "ns", Lower),
    // -- tm-sched probes --
    layer("sched.pick_ns_n8", "ns", Lower),
    layer("sched.pick_ns_n1024", "ns", Lower),
    layer("sched.block_wake_ns_n1024", "ns", Lower),
    // -- tm-net probes --
    layer("net.fault_cost_ideal_ns", "ns", Lower),
    layer("net.fault_cost_bus_ns", "ns", Lower),
    layer("net.transmit_switched_ns", "ns", Lower),
    layer("net.breakdown_ns_per_exchange", "ns", Lower),
    // -- tm-race probe --
    layer("race.record_access_ns", "ns", Lower),
    // -- tm-bench, on the workload's own grid and results --
    layer("bench.expand_ns", "ns", Lower),
    layer("bench.render_json_ns", "ns", Lower),
    layer("bench.parse_ns", "ns", Lower),
    layer("bench.runner_overhead_s", "s", Lower),
    // -- tm-apps --
    layer("apps.seq_s", "s", Lower),
    layer("apps.dsm_slowdown", "x", Lower),
    // -- counts from the run's own statistics (modeled, exact per seed) --
    layer("core.intervals_closed", "count", Lower),
    layer("core.intervals_retired", "count", Higher),
    layer("core.gc_retired_ratio", "ratio", Higher),
    layer("core.faults", "count", Lower),
    layer("core.prefetched_fault_ratio", "ratio", Higher),
    layer("core.lock_acquires", "count", Lower),
    layer("core.barriers", "count", Lower),
    layer("page.twins_created", "count", Lower),
    layer("page.diffs_created", "count", Lower),
    layer("page.diff_mib_created", "MiB", Lower),
    layer("page.protection_ops", "count", Lower),
    layer("net.messages", "count", Lower),
    layer("net.useless_msg_ratio", "ratio", Lower),
    layer("net.useless_data_ratio", "ratio", Lower),
    layer("net.link_queue_ms", "sim_ms", Lower),
    layer("net.max_link_util", "ratio", Lower),
    layer("core.host_us_per_event", "us", Lower),
    // host: modeled seconds simulated per host second, sim_exec_s / wall_s
    layer("sim_rate", "sim_s/s", Higher),
    // -- computed shares of wall_s: computed, not measured in situ --
    layer("page.est_share", "ratio", Lower),
    layer("core.sync_est_share", "ratio", Lower),
    layer("apps.seq_share", "ratio", Lower),
    layer("unattributed_share", "ratio", Lower),
    // -- the run itself --
    layer("trace_overhead_pct", "%", Lower),
    layer("digest_match", "bool", Higher),
    layer("cells_attempted", "count", Higher),
    layer("failed_cells", "count", Lower),
    layer("timed_reps", "count", Higher),
];

/// Metrics that two runs of the same build at the same seed must agree on
/// exactly: the allocation totals, the modeled results and every count.
pub const EXACT: &[&str] = &[
    "alloc_mib",
    "alloc_calls_k",
    "sim_exec_s",
    "sim_msgs_k",
    "sim_wire_mib",
    "core.intervals_closed",
    "core.intervals_retired",
    "core.gc_retired_ratio",
    "core.faults",
    "core.prefetched_fault_ratio",
    "core.lock_acquires",
    "core.barriers",
    "page.twins_created",
    "page.diffs_created",
    "page.diff_mib_created",
    "page.protection_ops",
    "net.messages",
    "net.useless_msg_ratio",
    "net.useless_data_ratio",
    "net.link_queue_ms",
    "net.max_link_util",
    "digest_match",
    "cells_attempted",
    "failed_cells",
];

/// True if `name` is made of the characters `BENCHMARK.json` allows.
pub fn is_valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(is_valid_name(m.name), "bad metric name {}", m.name);
            assert!(seen.insert(m.name), "duplicate metric name {}", m.name);
            assert!(!m.unit.is_empty() && m.unit.len() <= 16);
        }
        for w in crate::workloads::NAMES {
            assert!(is_valid_name(w));
            assert!(is_valid_name(&format!("{w}.quick")));
            assert!(seen.insert(w), "workload {w} collides with a metric name");
        }
        assert!(!is_valid_name(".hidden") && !is_valid_name("a b") && !is_valid_name(""));
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}
