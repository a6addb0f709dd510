#![warn(missing_docs)]

//! # netsim — deterministic discrete-event network simulator
//!
//! The substrate under the ABC reproduction: a single-threaded,
//! bit-reproducible event simulator with the pieces a congestion-control
//! evaluation needs —
//!
//! * [`time`] / [`rate`] — integer-nanosecond clocks, bit-per-second rates;
//! * [`packet`] — packets with the 2 ECN bits (ABC's accel/brake
//!   reinterpretation) and typed explicit-feedback headers;
//! * [`sim`] / [`event`] / [`node`] — the event loop;
//! * [`link`] — capacity processes (constant, steps, square wave) and
//!   transmitters (serialization links, Mahimahi-style trace links);
//! * [`queue`] — the `Qdisc` trait ABC/AQM/XCP/RCP/VCP routers implement;
//! * [`linkqueue`] — the node gluing a qdisc to a transmitter;
//! * [`flow`] — a reliable sender with pluggable [`flow::CongestionControl`]
//!   and a feedback-echoing sink;
//! * [`metrics`] / [`stats`] — utilization, per-packet delay percentiles,
//!   Jain fairness, throughput time series;
//! * [`telemetry`] — the deterministic observability layer: signal probes
//!   threaded through every [`node::Context`], an opt-in wall-clock
//!   event-loop profiler, and the JSONL dynamics sidecar.
//!
//! Design follows the smoltcp school: event-driven, no async runtime (the
//! workload is CPU-bound and deterministic), simplicity and robustness over
//! cleverness, and an explicit inventory of what is and isn't modeled.

pub mod event;
pub mod fault;
pub mod flow;
pub mod link;
pub mod linkqueue;
pub mod metrics;
pub mod node;
pub mod packet;
pub mod queue;
pub mod rate;
pub mod sim;
pub mod stats;
pub mod telemetry;
pub mod time;

pub use fault::{Direction, Impairment, ImpairmentKind, ImpairmentSpec, ImpairmentWire};
pub use flow::{AckEvent, CongestionControl, Pacing, Sender, Sink, TrafficSource};
pub use link::{ConstantRate, SerialLink, SquareWave, StepSchedule, TraceLink, Transmitter};
pub use linkqueue::LinkQueue;
pub use metrics::{new_hub, Metrics, MetricsHub};
pub use node::{Context, Node};
pub use packet::{AckData, Ecn, Feedback, FlowId, NodeId, Packet, Route, VcpLoad};
pub use queue::{DropTail, Qdisc, QdiscStats};
pub use rate::Rate;
pub use sim::{AbortReason, RunGuards, Simulator};
pub use telemetry::{TelemetryConfig, TelemetryHub, TelemetrySink};
pub use time::{SimDuration, SimTime};
