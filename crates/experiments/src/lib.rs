#![warn(missing_docs)]

//! # experiments — the scenario engine and per-figure/table harnesses
//!
//! [`engine`] is the chassis: a declarative [`ScenarioSpec`] executed
//! (serially or in parallel) by the [`ScenarioEngine`] — see its module
//! docs for the spec → engine → report pipeline. [`scenario`] and [`wifi`]
//! hold the link and MCS descriptions a spec names, [`topos`] the two
//! presets that sample mid-run state; [`figures`] holds the
//! per-figure generators of the paper's evaluation (the matrix-shaped
//! sweeps — Table 1, Figs. 8/9/15/16/18 — are campaign-backed and live in
//! the `campaign` crate, whose `figures::all()` is the complete index).

pub mod engine;
pub mod figures;
pub mod report;
pub mod scenario;
pub mod scheme;
pub mod topos;
pub mod wifi;

pub use engine::{
    BuiltScenario, FlowSchedule, FlowSpec, PointRun, PoissonShortFlows, QdiscSpec, ScenarioEngine,
    ScenarioSpec, Topology, WorkloadEntry,
};
pub use report::{downsample, sparkline, AppReport, Report};
pub use scenario::LinkSpec;
pub use scheme::{Scheme, CELLULAR_LINEUP, EXPLICIT_LINEUP, WIFI_LINEUP};
pub use topos::{CoexistResult, CoexistScenario, CrossTraffic, MixedPathScenario};
pub use wifi::{estimator_accuracy, McsSpec};
