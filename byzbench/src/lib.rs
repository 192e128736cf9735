//! Benchmark of byzcast scenario runs: end-to-end host and simulated
//! metrics per workload, and a traced run that splits host time over the
//! simulator, protocol, crypto and overlay layers.

pub mod measure;
pub mod stats;
pub mod trace;
pub mod workloads;
