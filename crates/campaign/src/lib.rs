#![warn(missing_docs)]

//! # campaign — declarative sweep orchestration over the scenario engine
//!
//! The paper's evidence is built from cross-products — schemes ×
//! topologies × traces × RTTs × buffers × seeds. This crate turns those
//! sweeps from hand-rolled loops into data:
//!
//! * [`spec`] — the [`Campaign`] type: a base
//!   [`ScenarioSpec`](experiments::engine::ScenarioSpec) plus named
//!   [`Axis`] values, with deterministic row-major cartesian
//!   expansion and constraint [`Filter`]s.
//! * [`runner`] — the executor: every point streams through
//!   [`ScenarioEngine::for_each_ordered`](experiments::engine::ScenarioEngine::for_each_ordered)
//!   and is committed in ordinal order, with progress reporting; results
//!   are bit-identical across reruns and worker-pool sizes.
//! * [`store`] — the schema-versioned JSONL
//!   [`ResultsStore`]: a self-describing header plus
//!   one full [`Report`](experiments::report::Report) per record.
//! * [`aggregate`] — across-seed mean/CI, percentile rollups, Jain
//!   summaries, CSV export.
//! * [`diff`] — baseline comparison and regression gating.
//! * [`presets`] — built-in campaigns (`tiny`, `cellular-matrix`,
//!   `pareto`, `rtt-grid`, …).
//! * [`figures`] — every figure of the paper: a preset plus a pure
//!   renderer over its run records (and sidecars), and the complete
//!   figure index.
//! * [`sidecar`] — the one reader of [`netsim::telemetry`] JSONL
//!   sidecars.
//! * [`dynamics`] — the paper-style dynamics timeline rendered purely
//!   from a sidecar.
//! * [`runlog`] — the schema-versioned wall-clock run ledger the runner
//!   writes beside (never into) the store: one span per point attempt.
//! * [`trace`] — ledger → Chrome trace-event JSON, viewable in Perfetto.
//! * [`report`] — ledger → run-health summary, with cross-point sidecar
//!   aggregation grouped by axis value.
//!
//! The `abc-campaign` binary drives all of it from the command line
//! (`run` / `expand` / `diff` / `export` / `list`); `figgen` regenerates
//! any figure of the paper.
//!
//! [`json`] is the zero-dependency JSON tree the store serializes
//! through; it guarantees deterministic output and exact float round
//! trips.

pub mod aggregate;
pub mod diff;
pub mod dynamics;
pub mod figures;
pub mod file;
pub mod json;
pub mod presets;
pub mod report;
pub mod runlog;
pub mod runner;
pub mod sidecar;
pub mod spec;
pub mod store;
pub mod trace;

pub use diff::{DiffConfig, DiffReport};
pub use runlog::{RunLedger, RunLogConfig};
pub use runner::{
    run_campaign, run_campaign_outcomes, split_outcomes, ErrorKind, ErrorRecord, PointError,
    PointOutcome, RunOptions, RunRecord, StreamTally,
};
pub use spec::{Axis, AxisValue, Campaign, CampaignPoint, Coords, Filter};
pub use store::{ResultsStore, StoreError, StoreHeader, SCHEMA};
