//! The fresh-seed end-to-end benchmark of the `raa` pipeline: workloads
//! generated from a seed, driven through the library's public API, with
//! output checks, end-to-end metrics and a traced per-layer split. See
//! `README.md` beside this crate.

pub mod gen;
pub mod report;
pub mod stages;
pub mod steal;
pub mod trace;
pub mod workloads;

/// The workload names `--workload` accepts.
pub const WORKLOADS: [&str; 3] = ["calibrate", "deep_stream", "sweepd"];
