//! End-to-end and per-layer benchmark of DeepEye: whole requests from CSV
//! bytes to top-k through the public API, on generated workloads.
//!
//! See `README.md` in this directory for the workloads, the metrics and
//! what each per-layer metric should move.

pub mod check;
pub mod csvgen;
pub mod e2e;
pub mod layers;
pub mod output;
pub mod pipeline;
pub mod proc;
pub mod stats;
pub mod workload;
