//! The layered benchmark of the ABC simulator + campaign stack.
//!
//! Five fixed-work workloads go through the campaign runner's front door
//! (`run_campaign_streaming` into a file) for the end-to-end numbers; a
//! second, traced pass re-walks the same points layer by layer from
//! here — timing calls into each crate's public functions, nothing
//! inside them — for the per-layer numbers and a span file. `README.md`
//! has the workload table and the metric → layer → end-to-end map;
//! `BENCHMARK.json` at the repository root is the contract both sides
//! are checked against (`tests/contract.rs`).

pub mod alloc;
pub mod cli;
pub mod frontdoor;
pub mod kernels;
pub mod metrics;
pub mod spans;
pub mod traced;
pub mod workload;
