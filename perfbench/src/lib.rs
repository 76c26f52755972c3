//! Seeded end-to-end and per-layer benchmark of the NTCS reproduction.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one of four workloads (see `README.md`). With `--trace 0` it prints
//! the end-to-end metrics; with `--trace 1` it runs the workload once
//! without and once with spans, climbs the layer ladder, and prints the
//! per-layer metrics. The last line of output is a JSON summary.

#![forbid(unsafe_code)]

pub mod inputs;
pub mod ladder;
pub mod report;
pub mod run;
pub mod stats;
pub mod sys;
pub mod system;
pub mod trace;
pub mod workloads;
