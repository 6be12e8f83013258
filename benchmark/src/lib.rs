//! The repo benchmark: six workloads measured end to end (host speed,
//! memory and allocation, plus the modeled results that must not move) and
//! layer by layer (probes of each crate's public functions, exact counts
//! from a run's own statistics, and a traced repetition).
//!
//! The simulator is measured strictly from outside, through public items of
//! the workspace crates; see `README.md` in this directory for the metric
//! definitions, the reasons behind each workload and how to read a trace.

#![warn(missing_docs)]

pub mod alloc_count;
pub mod measure;
pub mod names;
pub mod probes;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;
