//! End-to-end and per-layer benchmark of the hcrf workspace.
//!
//! See `README.md` in this directory for the workloads, the metrics and
//! how to read a traced run.

pub mod inputs;
pub mod layers;
pub mod metrics;
pub mod spans;
pub mod stats;
pub mod workload;
