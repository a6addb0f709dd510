#![warn(missing_docs)]

//! # experiments — the scenario engine
//!
//! [`engine`] is the chassis: a declarative [`ScenarioSpec`] executed
//! (serially or in parallel) by the [`ScenarioEngine`] — see its module
//! docs for the spec → engine → report pipeline. [`scenario`] and [`wifi`]
//! hold the link and MCS descriptions a spec names, and [`figures`] the
//! [`Scale`](figures::Scale) a figure runs at. The figures themselves are
//! campaign presets plus pure renderers in the `campaign` crate, whose
//! `figures::all()` is the complete index.

pub mod engine;
pub mod figures;
pub mod report;
pub mod scenario;
pub mod scheme;
pub mod wifi;

pub use engine::{
    BuiltScenario, FlowSchedule, FlowSpec, PointRun, PoissonShortFlows, QdiscSpec, ScenarioEngine,
    ScenarioSpec, Topology, WorkloadEntry,
};
pub use report::{downsample, sparkline, AppReport, Report};
pub use scenario::LinkSpec;
pub use scheme::{Scheme, CELLULAR_LINEUP, EXPLICIT_LINEUP, WIFI_LINEUP};
pub use wifi::{estimator_accuracy, McsSpec};
