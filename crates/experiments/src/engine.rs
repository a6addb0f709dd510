//! # The scenario engine: spec → engine → report
//!
//! Every simulation in this workspace — campaign presets and figures, the
//! `abcsim` and `figgen` binaries, the examples, the benches — is described by a
//! declarative [`ScenarioSpec`] and executed by the [`ScenarioEngine`].
//! Nothing outside this module (and `netsim`'s own tests) wires a
//! [`Simulator`] by hand.
//!
//! The pipeline has three stages:
//!
//! 1. **Spec.** A [`ScenarioSpec`] is plain data: a [`Topology`] (which
//!    links/hops exist), a [`Scheme`] (endpoint controller + bottleneck
//!    qdisc), a [`FlowSchedule`] (who sends, when, with what application
//!    pattern), an optional [`QdiscSpec`] AQM override, the path RTT,
//!    buffer size, duration/warmup, and a `seed` that fixes every random
//!    choice (Poisson short-flow arrivals today; anything stochastic
//!    tomorrow). Specs are `Clone + Send + Sync`, so they can be generated,
//!    stored, and farmed out freely.
//! 2. **Engine.** [`ScenarioEngine::build`] first *lowers* the spec,
//!    once: the one `match` over [`Topology`] yields a hop list (each
//!    hop's tag, link or Wi-Fi AP, qdisc, data or ACK path, and whether it
//!    carries the PK-ABC oracle, reports `qdelay_ms`, bounds utilization
//!    or plots its capacity, plus each direction's one-way delay), and the
//!    bulk schedule, Poisson churn and workloads yield one flow list in
//!    `FlowId` order. It then reserves node ids (hops, impairment wires,
//!    sender-then-sink per flow), installs one sender/sink pair per flow
//!    and one node per hop, each in a single loop, into a [`BuiltScenario`]
//!    that keeps what `finish` folds. [`ScenarioEngine::run`]
//!    does build + run-to-end + [`BuiltScenario::finish`] in one call, and
//!    [`ScenarioEngine::run_batch`] executes **independent scenarios in
//!    parallel** on a scoped worker pool (see below).
//! 3. **Report.** [`BuiltScenario::finish`] folds the metrics hub into the
//!    [`Report`] the paper's tables use: utilization against delivery
//!    opportunities, per-packet delay and queuing-delay percentiles, Jain
//!    fairness, and the plotting series. Within-run time series come
//!    from the telemetry sidecar ([`BuiltScenario::sidecar`]); scenarios
//!    that need the Wi-Fi estimator's internals use
//!    [`ScenarioEngine::build`] and the typed accessors
//!    ([`BuiltScenario::sender`], [`BuiltScenario::link_queue`],
//!    [`BuiltScenario::wifi_ap_mut`]) between [`BuiltScenario::run_chunk`]
//!    calls.
//!
//! ## Adding a new scheme or scenario in ≤ 10 lines
//!
//! A new *scenario* is just a new spec value — no wiring:
//!
//! ```
//! use experiments::engine::{ScenarioEngine, ScenarioSpec};
//! use experiments::{LinkSpec, Scheme};
//! use netsim::rate::Rate;
//!
//! let spec = ScenarioSpec::single(Scheme::Abc, LinkSpec::Constant(Rate::from_mbps(12.0)))
//!     .flows(4)
//!     .duration_secs(2)
//!     .warmup_secs(1);
//! let report = ScenarioEngine::new().run(&spec);
//! assert!(report.utilization > 0.5);
//! ```
//!
//! A new *scheme* is one variant in [`Scheme`] plus arms in
//! `Scheme::{name, make_cc, make_qdisc}`; every harness in the workspace
//! (figures, bins, examples, sweeps) picks it up with no further changes,
//! because they all go through this engine.
//!
//! ## Parallelism
//!
//! [`ScenarioEngine::for_each_ordered`] is the one worker pool: it
//! distributes items over `min(threads, items)` scoped OS threads pulling
//! from a shared cursor and hands results back to the caller in item
//! order; `run_batch` and the campaign runner both go through it. Each
//! worker builds and runs its scenarios entirely on its own thread (the
//! simulator itself stays single-threaded and deterministic), so N cores
//! regenerate an N×-scenario sweep in roughly the time of its slowest
//! cell. The pool is `std::thread::scope` plus `std::sync::mpsc` because
//! this workspace builds offline with zero external crates.
//!
//! Determinism is per-spec, not per-batch: a scenario's result depends
//! only on its spec (including `seed`), never on which thread ran it or
//! on its neighbors — `tests/engine_determinism.rs` pins this down.

use crate::report::AppReport;
use crate::report::{downsample_by, Report};
use crate::scenario::LinkSpec;
use crate::scheme::Scheme;
use crate::wifi::McsSpec;
use abc_core::coexist::{DualQueue, DualQueueConfig, WeightPolicy};
use abc_core::router::AbcQdisc;
// Re-exported so downstream crates can build `QdiscSpec::AbcWith` /
// `HopQdisc::Abc` literals without depending on abc-core directly.
pub use abc_core::router::AbcRouterConfig;
use netsim::fault::{Direction, ImpairmentSpec, ImpairmentWire};
use netsim::flow::{AppDriver, Sender, Sink, TrafficSource};
use netsim::linkqueue::LinkQueue;
use netsim::metrics::{new_hub, qdelay_summary_in_place, AppFlowMeta, LinkRecord, Metrics};
use netsim::node::Node;
use netsim::packet::{FlowId, NodeId, Route, MTU_BYTES};
use netsim::queue::{DropTail, Qdisc};
use netsim::rate::Rate;
use netsim::sim::{RunGuards, Simulator};
use netsim::stats::Summary;
use netsim::telemetry::{
    new_hub as new_telemetry_hub, ProfileReport, Scope, Shared, Signal, TelemetryConfig,
    TelemetryHub,
};
use netsim::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use wifi_mac::{WifiAp, WifiApConfig};
use workload::{AbrClient, RtcSource, WorkloadSpec};

/// The links a scenario's packets traverse. Each variant fixes the hop
/// chain and its metrics tags; flows enter at any hop (see
/// [`FlowSpec::entry_hop`]).
#[derive(Debug, Clone)]
pub enum Topology {
    /// One bottleneck (tag `"bottleneck"`): the single-link cellular /
    /// wired scenarios behind most figures.
    SingleBottleneck(LinkSpec),
    /// Two bottlenecks in series (tags `"uplink"`, `"downlink"`), both
    /// running the scheme's qdisc — Fig. 8c's cellular up+down path.
    TwoHop {
        /// The uplink bottleneck.
        up: LinkSpec,
        /// The downlink bottleneck.
        down: LinkSpec,
    },
    /// An ABC-style wireless hop (tag `"wireless"`, scheme qdisc) followed
    /// by a fixed-rate wired droptail hop (tag `"wired"`) — Figs. 6/11.
    MixedPath {
        /// The ABC-controlled wireless hop.
        wireless: LinkSpec,
        /// The wired droptail hop's fixed rate.
        wired: Rate,
    },
    /// The 802.11n A-MPDU access point (tag `"wifi"`) with a time-varying
    /// MCS index — Figs. 4/5/10/14.
    Wifi {
        /// How the MCS index varies over time.
        mcs: McsSpec,
        /// The AP's (bufferbloat-sized) queue.
        ap_buffer_pkts: usize,
    },
    /// N bottlenecks in series (tags `"hop1"…"hopN"`, N ≤ 8), each with
    /// its own qdisc capability — the incremental-deployment parking lot
    /// (§4.1), where only some hops are ABC routers and cross traffic
    /// enters/leaves at interior hops ([`FlowSpec::entry_hop`] /
    /// [`FlowSpec::exit_hop`]).
    ParkingLot {
        /// The hop chain, in path order.
        hops: Vec<ParkingHop>,
    },
    /// A data-direction bottleneck (tag `"down"`, scheme qdisc) with an
    /// independent return-direction bottleneck (tag `"up"`, droptail —
    /// ACK echoes must pass unmodified) and independent one-way
    /// propagation delays, overriding the spec's symmetric RTT split.
    Asymmetric {
        /// The data-direction bottleneck.
        down: LinkSpec,
        /// The ACK/return-direction bottleneck.
        up: LinkSpec,
        /// One-way propagation delay, data direction.
        down_delay: SimDuration,
        /// One-way propagation delay, return direction.
        up_delay: SimDuration,
    },
}

/// One parking-lot hop: its link and which qdisc capability it deploys.
#[derive(Debug, Clone)]
pub struct ParkingHop {
    /// The hop's link.
    pub link: LinkSpec,
    /// The hop's qdisc capability.
    pub qdisc: HopQdisc,
}

impl ParkingHop {
    /// A hop running the scheme's default qdisc on `link`.
    pub fn new(link: LinkSpec) -> Self {
        ParkingHop {
            link,
            qdisc: HopQdisc::SchemeDefault,
        }
    }

    /// Set the hop's qdisc capability.
    pub fn qdisc(mut self, q: HopQdisc) -> Self {
        self.qdisc = q;
        self
    }
}

/// Per-hop qdisc capability inside a [`Topology::ParkingLot`]: an
/// ABC-capable hop runs the ABC router, a legacy hop runs droptail or
/// CoDel and never touches the accel/brake marks.
#[derive(Debug, Clone)]
pub enum HopQdisc {
    /// The scheme's own qdisc (ABC router under ABC schemes).
    SchemeDefault,
    /// A legacy droptail hop.
    DropTail,
    /// A legacy CoDel hop (drop mode; no ABC marks).
    Codel,
    /// An ABC router with an explicit config.
    Abc(AbcRouterConfig),
}

/// Overrides the bottleneck qdisc the scheme would normally install.
/// `SchemeDefault` keeps [`Scheme::make_qdisc`]'s choice.
#[derive(Debug, Clone)]
pub enum QdiscSpec {
    /// Keep [`Scheme::make_qdisc`]'s choice.
    SchemeDefault,
    /// Plain droptail regardless of scheme.
    DropTail,
    /// An ABC router with an explicit config (the δ-sweep of the
    /// stability figure; dt variants beyond `Scheme::AbcDt`).
    AbcWith(AbcRouterConfig),
    /// The §5.2 dual-queue coexistence router.
    DualQueue(WeightPolicy),
}

/// One flow: who sends, from when to when, with what application pattern,
/// entering the hop chain where.
#[derive(Debug, Clone)]
pub struct FlowSpec {
    /// Shown in per-flow outputs (`BuiltScenario::flows`).
    pub label: String,
    /// `None` inherits the spec's scheme.
    pub scheme: Option<Scheme>,
    /// When the flow starts sending.
    pub start: SimTime,
    /// When the flow stops, if it does.
    pub stop: Option<SimTime>,
    /// The application pattern driving the flow.
    pub app: TrafficSource,
    /// Index of the data-path hop the flow joins at, in path order (the
    /// hop tags each [`Topology`] variant lists): 0 traverses the whole
    /// path; `k > 0` joins at hop `k` (cross traffic on the wired hop).
    pub entry_hop: usize,
    /// Last data-path hop this flow traverses before reaching its sink
    /// (inclusive, indexed like [`FlowSpec::entry_hop`]). `None` rides to the
    /// path's end; `Some(k)` exits after hop `k` — parking-lot cross
    /// traffic leaving at an interior hop.
    pub exit_hop: Option<usize>,
}

impl FlowSpec {
    /// A backlogged whole-path flow of the spec's scheme, starting at 0.
    pub fn new(label: impl Into<String>) -> Self {
        FlowSpec {
            label: label.into(),
            scheme: None,
            start: SimTime::ZERO,
            stop: None,
            app: TrafficSource::Backlogged,
            entry_hop: 0,
            exit_hop: None,
        }
    }

    /// Run this scheme instead of the spec's.
    pub fn scheme(mut self, s: Scheme) -> Self {
        self.scheme = Some(s);
        self
    }

    /// Start sending at `t`.
    pub fn start_at(mut self, t: SimTime) -> Self {
        self.start = t;
        self
    }

    /// Stop sending at `t`.
    pub fn stop_at(mut self, t: SimTime) -> Self {
        self.stop = Some(t);
        self
    }

    /// Drive the flow with this application pattern.
    pub fn app(mut self, app: TrafficSource) -> Self {
        self.app = app;
        self
    }

    /// Join the path at hop `hop` (see [`FlowSpec::entry_hop`]).
    pub fn entry_hop(mut self, hop: usize) -> Self {
        self.entry_hop = hop;
        self
    }

    /// Leave the path after hop `hop` (see [`FlowSpec::exit_hop`]).
    pub fn exit_hop(mut self, hop: usize) -> Self {
        self.exit_hop = Some(hop);
        self
    }
}

/// One application-layer workload riding a scenario: the model itself
/// (from the `workload` crate) plus where it attaches — which scheme its
/// transport runs, when it starts, and which hop it enters. A scenario
/// mixes any number of these with its bulk [`FlowSchedule`].
#[derive(Debug, Clone)]
pub struct WorkloadEntry {
    /// Shown in per-flow outputs; web requests get ` <n>` suffixes.
    pub label: String,
    /// The application model itself.
    pub workload: WorkloadSpec,
    /// `None` inherits the spec's scheme.
    pub scheme: Option<Scheme>,
    /// When the workload starts.
    pub start: SimTime,
    /// The data-path hop the workload joins at, like [`FlowSpec::entry_hop`].
    pub entry_hop: usize,
}

impl WorkloadEntry {
    /// A whole-path entry of the spec's scheme starting at 0, labeled
    /// with the workload kind.
    pub fn new(workload: WorkloadSpec) -> Self {
        WorkloadEntry {
            label: workload.kind().to_string(),
            workload,
            scheme: None,
            start: SimTime::ZERO,
            entry_hop: 0,
        }
    }
}

/// Poisson arrivals of short finite flows at a target offered load
/// (Fig. 12's churn). Expanded into concrete [`FlowSpec`]s at build time
/// from the spec's `seed`.
#[derive(Debug, Clone)]
pub struct PoissonShortFlows {
    /// Offered load as a fraction of the bottleneck's nominal rate.
    pub load: f64,
    /// Size of each short flow.
    pub bytes: u64,
    /// The scheme short flows run.
    pub scheme: Scheme,
}

/// Who sends, and when.
#[derive(Debug, Clone)]
pub enum FlowSchedule {
    /// `n` identical flows of the spec's scheme. Flow `i` starts at
    /// `i × stagger`; with `stagger_departures`, flow `i` also stops at
    /// `duration − (n−1−i) × stagger` (Fig. 3's joins and leaves).
    Uniform {
        /// Number of flows.
        n: u32,
        /// The application pattern every flow runs.
        app: TrafficSource,
        /// Gap between consecutive flow starts.
        stagger: SimDuration,
        /// Also stop flows one by one (see the variant docs).
        stagger_departures: bool,
    },
    /// Arbitrary per-flow specs (coexistence mixes, cross traffic,
    /// application-limited fleets).
    Explicit(Vec<FlowSpec>),
}

impl FlowSchedule {
    /// `n` backlogged flows, all starting at 0.
    pub fn backlogged(n: u32) -> Self {
        FlowSchedule::Uniform {
            n,
            app: TrafficSource::Backlogged,
            stagger: SimDuration::ZERO,
            stagger_departures: false,
        }
    }
}

/// The declarative description of one simulation run. See the
/// [module docs](self) for the full pipeline.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// The congestion-control scheme (endpoint + bottleneck qdisc).
    pub scheme: Scheme,
    /// Which links/hops the path comprises.
    pub topology: Topology,
    /// Who sends, and when.
    pub flows: FlowSchedule,
    /// Poisson short-flow churn on top of `flows`.
    pub short_flows: Option<PoissonShortFlows>,
    /// Application-layer workloads (web/RTC/ABR video) mixed into the
    /// scenario; their app-level metrics surface as [`Report::app`].
    ///
    /// [`Report::app`]: crate::report::Report::app
    pub workloads: Vec<WorkloadEntry>,
    /// AQM override for the scheme-controlled hops.
    pub qdisc: QdiscSpec,
    /// Path round-trip propagation delay, split evenly across hops.
    pub rtt: SimDuration,
    /// Bottleneck buffer (packets).
    pub buffer_pkts: usize,
    /// Simulated duration.
    pub duration: SimDuration,
    /// Measurements before this offset are discarded.
    pub warmup: SimDuration,
    /// Fixes every stochastic choice the engine makes.
    pub seed: u64,
    /// PK-ABC: let the first hop's control law see µ(t + lookahead).
    pub oracle_lookahead: Option<SimDuration>,
    /// Timer-wheel slot width override, as the exponent of a `2^shift` ns
    /// slot (`None` keeps netsim's default). A pure performance knob —
    /// every output is invariant to it — that lets µs-dense many-flow
    /// scenarios use wider slots with intra-slot batch pops.
    pub timer_slot_shift: Option<u32>,
    /// Telemetry sidecar recording: `Some(cfg)` installs a
    /// [`netsim::telemetry`] hub behind the simulator so probe sites
    /// sample per-flow/per-link dynamics at `cfg`'s cadence. `None` (the
    /// default) leaves the no-op sink in place — the run is byte-identical
    /// to a build without telemetry compiled in.
    pub telemetry: Option<TelemetryConfig>,
    /// Adversarial-network impairments spliced into the path (see
    /// [`netsim::fault`]). Empty (the default) reserves no nodes and
    /// leaves every output byte-identical to the pre-impairment engine.
    pub impairments: Vec<ImpairmentSpec>,
    /// Test-only injected fault, exercising the campaign runner's panic
    /// isolation and watchdog paths end-to-end. `None` in every real
    /// scenario.
    pub fault: Option<InjectedFault>,
}

/// A deliberate per-scenario failure mode, injectable from campaign
/// axes and TOML (`inject_fault = "panic" | "stall"`) so the runner's
/// fault-tolerance machinery can be tested through the real pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// Panic while building the scenario.
    Panic,
    /// Livelock the event loop (a node re-arming a 1 ns timer forever),
    /// so only a watchdog budget can end the run.
    Stall,
}

impl InjectedFault {
    /// Stable wire name, used by the campaign TOML layer.
    pub fn name(self) -> &'static str {
        match self {
            InjectedFault::Panic => "panic",
            InjectedFault::Stall => "stall",
        }
    }
}

/// The [`InjectedFault::Stall`] implementation: re-arms a 1 ns timer
/// forever, pinning the event loop at one simulated instant.
struct StallNode;

impl netsim::node::Node for StallNode {
    netsim::impl_node_downcast!();
    fn start(&mut self, ctx: &mut netsim::node::Context) {
        ctx.set_timer(SimDuration::from_nanos(1), 0);
    }
    fn handle(&mut self, ctx: &mut netsim::node::Context, _: netsim::event::EventKind) {
        ctx.set_timer(SimDuration::from_nanos(1), 0);
    }
}

impl ScenarioSpec {
    /// A single-bottleneck scenario with the defaults most figures share:
    /// 100 ms RTT, 250-packet buffer, one backlogged flow, 60 s run with
    /// 5 s warmup.
    pub fn single(scheme: Scheme, link: LinkSpec) -> Self {
        ScenarioSpec {
            scheme,
            topology: Topology::SingleBottleneck(link),
            flows: FlowSchedule::backlogged(1),
            short_flows: None,
            workloads: Vec::new(),
            qdisc: QdiscSpec::SchemeDefault,
            rtt: SimDuration::from_millis(100),
            buffer_pkts: 250,
            duration: SimDuration::from_secs(60),
            warmup: SimDuration::from_secs(5),
            seed: 7,
            oracle_lookahead: None,
            timer_slot_shift: None,
            telemetry: None,
            impairments: Vec::new(),
            fault: None,
        }
    }

    /// Two scheme-controlled bottlenecks in series (Fig. 8c).
    pub fn two_hop(scheme: Scheme, up: LinkSpec, down: LinkSpec) -> Self {
        ScenarioSpec {
            topology: Topology::TwoHop { up, down },
            ..ScenarioSpec::single(scheme, LinkSpec::Constant(Rate::ZERO))
        }
    }

    /// ABC wireless + fixed-rate wired droptail (Figs. 6/11). Warmup is
    /// zero: these scenarios analyze the whole time series.
    pub fn mixed_path(wireless: LinkSpec, wired: Rate) -> Self {
        ScenarioSpec {
            topology: Topology::MixedPath { wireless, wired },
            warmup: SimDuration::ZERO,
            ..ScenarioSpec::single(Scheme::Abc, LinkSpec::Constant(Rate::ZERO))
        }
    }

    /// Flows through the 802.11n AP model (Figs. 4/5/10/14). Commodity
    /// Wi-Fi routers ship bufferbloat-sized queues (the paper observes
    /// multi-second tails on its NETGEAR testbed), hence the 2000-packet
    /// default AP buffer.
    pub fn wifi(scheme: Scheme, users: u32, mcs: McsSpec) -> Self {
        ScenarioSpec {
            topology: Topology::Wifi {
                mcs,
                ap_buffer_pkts: 2000,
            },
            flows: FlowSchedule::backlogged(users),
            duration: SimDuration::from_secs(45),
            ..ScenarioSpec::single(scheme, LinkSpec::Constant(Rate::ZERO))
        }
    }

    /// An N-hop parking lot (§4.1 incremental deployment). Shares the
    /// single-bottleneck defaults; per-hop qdisc capability and cross
    /// traffic come from the [`ParkingHop`]s and explicit flow specs.
    pub fn parking_lot(scheme: Scheme, hops: Vec<ParkingHop>) -> Self {
        ScenarioSpec {
            topology: Topology::ParkingLot { hops },
            ..ScenarioSpec::single(scheme, LinkSpec::Constant(Rate::ZERO))
        }
    }

    /// An asymmetric path: independent down/up bottlenecks and one-way
    /// delays. The spec's `rtt` is kept coherent (`down_delay +
    /// up_delay`) for anything that reads it, but route construction uses
    /// the explicit per-direction delays.
    pub fn asymmetric(
        scheme: Scheme,
        down: LinkSpec,
        up: LinkSpec,
        down_delay: SimDuration,
        up_delay: SimDuration,
    ) -> Self {
        ScenarioSpec {
            topology: Topology::Asymmetric {
                down,
                up,
                down_delay,
                up_delay,
            },
            rtt: down_delay + up_delay,
            ..ScenarioSpec::single(scheme, LinkSpec::Constant(Rate::ZERO))
        }
    }

    /// Replace the schedule with `n` backlogged flows.
    pub fn flows(mut self, n: u32) -> Self {
        self.flows = FlowSchedule::backlogged(n);
        self
    }

    /// Set every scheduled flow's application pattern.
    pub fn app(mut self, app: TrafficSource) -> Self {
        match &mut self.flows {
            FlowSchedule::Uniform { app: a, .. } => *a = app,
            FlowSchedule::Explicit(v) => {
                for f in v {
                    f.app = app;
                }
            }
        }
        self
    }

    /// Set the path round-trip propagation delay.
    pub fn rtt(mut self, rtt: SimDuration) -> Self {
        self.rtt = rtt;
        self
    }

    /// Set the simulated duration.
    pub fn duration(mut self, d: SimDuration) -> Self {
        self.duration = d;
        self
    }

    /// Set the simulated duration in whole seconds.
    pub fn duration_secs(self, s: u64) -> Self {
        self.duration(SimDuration::from_secs(s))
    }

    /// Set the measurement warmup.
    pub fn warmup(mut self, d: SimDuration) -> Self {
        self.warmup = d;
        self
    }

    /// Set the measurement warmup in whole seconds.
    pub fn warmup_secs(self, s: u64) -> Self {
        self.warmup(SimDuration::from_secs(s))
    }

    /// Fix the seed behind every stochastic choice.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override the bottleneck qdisc.
    pub fn qdisc(mut self, q: QdiscSpec) -> Self {
        self.qdisc = q;
        self
    }

    /// Record a telemetry sidecar for this scenario (signals and sample
    /// cadence per `cfg`). Retrieve it with [`BuiltScenario::sidecar`] or
    /// [`ScenarioEngine::run_point`].
    pub fn telemetry(mut self, cfg: TelemetryConfig) -> Self {
        self.telemetry = Some(cfg);
        self
    }

    /// Splice one adversarial impairment into the path.
    pub fn impairment(mut self, imp: ImpairmentSpec) -> Self {
        self.impairments.push(imp);
        self
    }

    /// Lower the topology into its hop list (in path order, data-path hops
    /// first) and the one-way propagation delay of the data and of the ACK
    /// direction: the engine's one decision about which hops exist, what
    /// each runs and which role it plays. A direction's delay splits into
    /// equal legs, one ahead of each of its hops and one to its endpoint.
    fn lower_path(&self) -> (Vec<Hop<'_>>, SimDuration, SimDuration) {
        let buffer = self.buffer_pkts;
        let hop = |tag, link, qdisc| Hop {
            tag,
            link,
            qdisc,
            buffer_pkts: buffer,
            ack_path: false,
            oracle: false,
            primary: false,
            bounds_utilization: false,
            plots_capacity: false,
        };
        let link = |spec| HopLink::Link(Cow::Borrowed(spec));
        // The lone scheme-controlled bottleneck most figures measure.
        let bottleneck = |tag, spec| Hop {
            oracle: true,
            primary: true,
            bounds_utilization: true,
            plots_capacity: true,
            ..hop(tag, link(spec), HopQdisc::SchemeDefault)
        };
        let symmetric = (self.rtt / 2, self.rtt / 2);
        let (hops, (fwd_delay, back_delay)) = match &self.topology {
            Topology::SingleBottleneck(link) => (vec![bottleneck("bottleneck", link)], symmetric),
            // The tighter hop bounds utilization; queuing shows at the downlink.
            Topology::TwoHop { up, down } => {
                let up = Hop {
                    oracle: true,
                    bounds_utilization: true,
                    ..hop("uplink", link(up), HopQdisc::SchemeDefault)
                };
                let down = Hop {
                    primary: true,
                    bounds_utilization: true,
                    ..hop("downlink", link(down), HopQdisc::SchemeDefault)
                };
                (vec![up, down], symmetric)
            }
            // The wired hop is definitionally non-ABC: plain droptail.
            Topology::MixedPath { wireless, wired } => {
                let wired = hop(
                    "wired",
                    HopLink::Link(Cow::Owned(LinkSpec::Constant(*wired))),
                    HopQdisc::DropTail,
                );
                (vec![bottleneck("wireless", wireless), wired], symmetric)
            }
            // No opportunity accounting on Wi-Fi, so nothing bounds utilization.
            Topology::Wifi {
                mcs,
                ap_buffer_pkts,
            } => {
                let ap = Hop {
                    buffer_pkts: *ap_buffer_pkts,
                    primary: true,
                    ..hop("wifi", HopLink::WifiAp(mcs), HopQdisc::SchemeDefault)
                };
                (vec![ap], symmetric)
            }
            // Every hop bounds utilization; end-to-end queuing shows at the last.
            Topology::ParkingLot { hops } => {
                assert!(
                    (1..=PARKING_TAGS.len()).contains(&hops.len()),
                    "a parking lot has 1..={} hops, got {}",
                    PARKING_TAGS.len(),
                    hops.len()
                );
                let last = hops.len() - 1;
                let lowered = hops
                    .iter()
                    .zip(PARKING_TAGS)
                    .enumerate()
                    .map(|(i, (h, tag))| Hop {
                        oracle: i == 0,
                        primary: i == last,
                        bounds_utilization: true,
                        ..hop(tag, link(&h.link), h.qdisc.clone())
                    });
                (lowered.collect(), symmetric)
            }
            // The return hop carries ACKs: droptail, never the scheme's
            // qdisc — an AQM rewriting ACK ECN would corrupt the echoes.
            Topology::Asymmetric {
                down,
                up,
                down_delay,
                up_delay,
            } => {
                let up = Hop {
                    ack_path: true,
                    ..hop("up", link(up), HopQdisc::DropTail)
                };
                (vec![bottleneck("down", down), up], (*down_delay, *up_delay))
            }
        };
        (hops, fwd_delay, back_delay)
    }

    /// Lower the bulk schedule, the Poisson churn and every workload into
    /// one flow list, in `FlowId` order.
    fn lower_flows(&self, hops: &[Hop]) -> Vec<Flow> {
        let flow = |spec| Flow {
            spec,
            pkt_size: MTU_BYTES,
            driver: None,
            meta: None,
            account: None,
        };
        let mut flows: Vec<Flow> = match &self.flows {
            FlowSchedule::Uniform {
                n,
                app,
                stagger,
                stagger_departures,
            } => (0..*n)
                .map(|i| {
                    let mut f = FlowSpec::new(format!("flow {}", i + 1))
                        .start_at(SimTime::ZERO + *stagger * i as u64)
                        .app(*app);
                    if *stagger_departures && !stagger.is_zero() {
                        let lead = (*n - 1 - i) as u64;
                        f = f.stop_at(
                            (SimTime::ZERO + self.duration).saturating_sub(*stagger * lead),
                        );
                    }
                    flow(f)
                })
                .collect(),
            FlowSchedule::Explicit(v) => v.iter().cloned().map(flow).collect(),
        };
        if let Some(short) = &self.short_flows {
            // The first hop's nominal rate is the reference for load
            // fractions. On Wi-Fi, MCS 7 with full batches is ≈ 65 Mbit/s
            // PHY; close enough, as only Fig. 12 (single-bottleneck) uses them.
            let reference = match &hops[0].link {
                HopLink::Link(link) => link.nominal_rate(),
                HopLink::WifiAp(_) => Rate::from_mbps(65.0),
            };
            let mut rng = StdRng::seed_from_u64(self.seed);
            let arrivals_per_s = short.load * reference.bps() / 8.0 / short.bytes as f64;
            let mut t = 0.0;
            let mut i = 0u32;
            while t < self.duration.as_secs_f64() {
                let gap = -rng.gen_range(1e-9f64..1.0).ln() / arrivals_per_s;
                t += gap;
                if t >= self.duration.as_secs_f64() {
                    break;
                }
                i += 1;
                flows.push(flow(
                    FlowSpec::new(format!("short {i}"))
                        .scheme(short.scheme)
                        .start_at(SimTime::from_secs_f64(t))
                        .app(TrafficSource::Finite { bytes: short.bytes }),
                ));
            }
        }
        for (k, entry) in self.workloads.iter().enumerate() {
            let app_flow = |label, start, app| {
                flow(FlowSpec {
                    label,
                    scheme: entry.scheme,
                    start,
                    stop: None,
                    app,
                    entry_hop: entry.entry_hop,
                    exit_hop: None,
                })
            };
            // Independent, reproducible stream per workload entry.
            let wseed = self.seed ^ (k as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let start = entry.start;
            match &entry.workload {
                WorkloadSpec::Web(w) => {
                    for (j, req) in w.expand(wseed, self.duration).iter().enumerate() {
                        let flow = FlowId(flows.len() as u32 + 1);
                        let start = entry.start + req.start.since(SimTime::ZERO);
                        // The transport ships whole MTU packets, so the
                        // sink observes the request rounded up to packets.
                        let expected = req.bytes.div_ceil(MTU_BYTES as u64) * MTU_BYTES as u64;
                        let source = TrafficSource::Finite { bytes: req.bytes };
                        flows.push(Flow {
                            meta: Some(AppFlowMeta {
                                start,
                                expected_bytes: Some(expected),
                                deadline: None,
                            }),
                            account: Some(AppAccount::Web {
                                flow,
                                start,
                                expected,
                            }),
                            ..app_flow(format!("{} {}", entry.label, j + 1), start, source)
                        });
                    }
                }
                WorkloadSpec::Rtc(r) => flows.push(Flow {
                    pkt_size: r.frame_bytes,
                    driver: Some(Box::new(RtcSource::new(*r, start))),
                    meta: Some(AppFlowMeta {
                        start,
                        expected_bytes: None,
                        deadline: Some(r.deadline),
                    }),
                    account: Some(AppAccount::Rtc {
                        flow: FlowId(flows.len() as u32 + 1),
                    }),
                    ..app_flow(entry.label.clone(), start, TrafficSource::Backlogged)
                }),
                WorkloadSpec::AbrVideo(a) => flows.push(Flow {
                    driver: Some(Box::new(AbrClient::new(a.clone(), start))),
                    account: Some(AppAccount::Video {
                        sender_idx: flows.len(),
                    }),
                    ..app_flow(entry.label.clone(), start, TrafficSource::Backlogged)
                }),
            }
        }
        flows
    }
}

/// Metrics tags for parking-lot hops (the `&'static str` tag table the
/// metrics hub keys on); also the topology's hop-count ceiling.
const PARKING_TAGS: [&str; 8] = [
    "hop1", "hop2", "hop3", "hop4", "hop5", "hop6", "hop7", "hop8",
];

/// One hop of a lowered [`Topology`]: every fact `build` installs and
/// `finish` folds.
struct Hop<'a> {
    /// The metrics tag.
    tag: &'static str,
    link: HopLink<'a>,
    /// `SchemeDefault` goes through the spec's [`QdiscSpec`] override.
    qdisc: HopQdisc,
    /// The qdisc's room, in packets.
    buffer_pkts: usize,
    /// On the ACK path; every other hop is on the data path.
    ack_path: bool,
    /// Runs the PK-ABC oracle when the spec sets `oracle_lookahead`.
    oracle: bool,
    /// Reports the headline `qdelay_ms`; its delivery is utilization's
    /// numerator.
    primary: bool,
    /// Its delivery opportunities bound utilization.
    bounds_utilization: bool,
    /// Its capacity curve is the report's `capacity_series`.
    plots_capacity: bool,
}

/// What carries a [`Hop`]'s packets.
enum HopLink<'a> {
    /// A [`LinkQueue`] over this link.
    Link(Cow<'a, LinkSpec>),
    /// The 802.11n A-MPDU access point with this MCS process.
    WifiAp(&'a McsSpec),
}

/// One flow of the lowered traffic: its sender/sink pair's settings, and
/// how `finish` accounts for it.
struct Flow {
    /// Label, scheme, start/stop, traffic source and entry/exit hops.
    spec: FlowSpec,
    pkt_size: u32,
    /// Replaces `spec.app` as the sender's data source.
    driver: Option<Box<dyn AppDriver>>,
    /// Registered with the metrics hub for completion and deadlines.
    meta: Option<AppFlowMeta>,
    account: Option<AppAccount>,
}

/// Executes [`ScenarioSpec`]s: serially via [`run`](Self::run), in
/// parallel via [`run_batch`](Self::run_batch). See the [module
/// docs](self).
#[derive(Debug, Clone)]
pub struct ScenarioEngine {
    threads: usize,
}

impl Default for ScenarioEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl ScenarioEngine {
    /// An engine sized to the `ABC_JOBS` environment variable if set (the
    /// `--jobs` flag of `abcsim`/`figgen`/`abc-campaign` routes through
    /// it), otherwise to the machine (one worker per available core).
    pub fn new() -> Self {
        let threads = jobs_from_env()
            .or_else(|| std::thread::available_parallelism().map(|n| n.get()).ok())
            .unwrap_or(4);
        ScenarioEngine { threads }
    }

    /// Cap the batch worker pool (1 = serial batches).
    pub fn with_threads(threads: usize) -> Self {
        ScenarioEngine {
            threads: threads.max(1),
        }
    }

    /// The worker-pool size batches run on.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Construct the simulator for `spec` without running it. Use this
    /// (plus [`BuiltScenario::run_chunk`] and the typed accessors) when a
    /// harness needs to sample mid-run state; otherwise call
    /// [`run`](Self::run).
    pub fn build(&self, spec: &ScenarioSpec) -> BuiltScenario {
        if spec.fault == Some(InjectedFault::Panic) {
            panic!("injected fault: panic");
        }
        let (hops, fwd_delay, back_delay) = spec.lower_path();
        let flows = spec.lower_flows(&hops);

        let mut sim = match spec.timer_slot_shift {
            Some(shift) => Simulator::with_slot_shift(shift),
            None => Simulator::new(),
        };
        let hub = new_hub();
        hub.borrow_mut().set_epoch(SimTime::ZERO + spec.warmup);
        let telemetry = spec.telemetry.as_ref().map(|cfg| {
            let t = new_telemetry_hub(cfg.clone());
            sim.set_telemetry(Box::new(Shared(t.clone())));
            t
        });

        let hop_ids: Vec<NodeId> = hops.iter().map(|_| sim.reserve_node()).collect();

        // Impairment wires: one shared node per spec entry, reserved
        // immediately after the hop queues and ONLY when configured — an
        // impairment-free spec allocates the exact same node ids (and so
        // the exact same bytes) as before this feature existed. Each wire
        // gets an independent RNG stream derived from the scenario seed
        // with a constant distinct from the workload-seeding one.
        let mut data_wires: Vec<Vec<NodeId>> = vec![Vec::new(); hop_ids.len()];
        let mut ack_wires: Vec<NodeId> = Vec::new();
        for (k, imp) in spec.impairments.iter().enumerate() {
            if let Err(e) = imp.validate() {
                panic!("invalid impairment {k}: {e}");
            }
            let id = sim.reserve_node();
            let wseed = spec.seed ^ (k as u64 + 1).wrapping_mul(0x517c_c1b7_2722_0a95);
            let slot = hub.borrow_mut().register_impairment(imp.label(k));
            sim.install_node(
                id,
                Box::new(
                    ImpairmentWire::from_kind(imp.kind, wseed).with_metrics(hub.clone(), slot),
                ),
            );
            match imp.direction {
                Direction::Data => {
                    assert!(
                        imp.hop < hop_ids.len(),
                        "impairment {k} targets hop {} of a {}-hop topology",
                        imp.hop,
                        hop_ids.len()
                    );
                    data_wires[imp.hop].push(id);
                }
                Direction::Ack => ack_wires.push(id),
            }
        }

        // Each direction's one-way delay splits into equal legs: one ahead
        // of each of its hops, one to its endpoint.
        let fwd_count = hops.iter().filter(|h| !h.ack_path).count();
        let ack_ids = &hop_ids[fwd_count..];
        let fwd_leg = fwd_delay / (fwd_count as u64 + 1);
        let back_leg = back_delay / (ack_ids.len() as u64 + 1);

        // One sender/sink pair per flow, reserved sender-then-sink (node-id
        // order is part of the deterministic contract); routes reuse
        // pooled hop buffers.
        let mut sender_ids = Vec::with_capacity(flows.len());
        let mut flow_ids = Vec::with_capacity(flows.len());
        let mut app_accounts = Vec::new();
        for (i, lowered) in flows.into_iter().enumerate() {
            let (f, flow) = (lowered.spec, FlowId(i as u32 + 1));
            let sender_id = sim.reserve_node();
            let sink_id = sim.reserve_node();
            // `end` is one past the last data-path hop this flow traverses.
            let end = f.exit_hop.map_or(fwd_count, |e| e + 1);
            assert!(
                f.entry_hop < fwd_count,
                "flow {:?} enters hop {} of a {}-forward-hop topology",
                f.label,
                f.entry_hop,
                fwd_count
            );
            assert!(
                f.entry_hop < end && end <= fwd_count,
                "flow {:?} exits after hop {} but enters at hop {} of {} forward hops",
                f.label,
                end - 1,
                f.entry_hop,
                fwd_count
            );
            let fwd = (f.entry_hop..end).flat_map(|h| leg(&data_wires[h], hop_ids[h], fwd_leg));
            let fwd = Route::from_hops(fwd.chain(leg(&[], sink_id, fwd_leg)));
            // sink → [ack wires] → [ACK-path hops] → sender
            let back = ack_ids.iter().chain([&sender_id]).enumerate();
            let back =
                back.flat_map(|(k, &id)| leg(if k == 0 { &ack_wires } else { &[] }, id, back_leg));
            sim.install_node(
                sink_id,
                Box::new(Sink::new(flow, Route::from_hops(back)).with_metrics(hub.clone())),
            );
            let cc = f.scheme.unwrap_or(spec.scheme).make_cc();
            let mut sender = Sender::new(flow, cc, fwd, f.app)
                .with_start_at(f.start)
                .with_pkt_size(lowered.pkt_size);
            if let Some(stop) = f.stop {
                sender = sender.with_stop_at(stop);
            }
            if let Some(driver) = lowered.driver {
                sender = sender.with_app_driver(driver);
            }
            sim.install_node(sender_id, Box::new(sender));
            if let Some(meta) = lowered.meta {
                hub.borrow_mut().register_app_flow(flow, meta);
            }
            app_accounts.extend(lowered.account);
            sender_ids.push(sender_id);
            flow_ids.push((f.label, flow));
        }

        for (hop, &id) in hops.iter().zip(&hop_ids) {
            let qdisc = make_qdisc(spec, &hop.qdisc, hop.buffer_pkts);
            let node: Box<dyn Node> = match &hop.link {
                HopLink::Link(link) => {
                    let mut lq =
                        LinkQueue::new(qdisc, link.build()).with_metrics(hop.tag, hub.clone());
                    if let Some(look) = spec.oracle_lookahead.filter(|_| hop.oracle) {
                        lq = lq.with_oracle_lookahead(look);
                    }
                    Box::new(lq)
                }
                HopLink::WifiAp(mcs) => Box::new(
                    WifiAp::new(WifiApConfig::default(), qdisc, mcs.build())
                        .with_metrics(hop.tag, hub.clone()),
                ),
            };
            sim.install_node(id, node);
        }

        if spec.fault == Some(InjectedFault::Stall) {
            sim.add_node(Box::new(StallNode));
        }

        let tags_where =
            |role: fn(&Hop) -> bool| hops.iter().filter(move |h| role(h)).map(|h| h.tag);
        BuiltScenario {
            sim,
            hub,
            telemetry,
            hops: hops.iter().map(|h| h.tag).zip(hop_ids).collect(),
            sender_ids,
            flows: flow_ids,
            app_accounts,
            scheme_name: spec.scheme.name(),
            primary: tags_where(|h| h.primary)
                .next()
                .expect("every path has a primary hop"),
            bounding: tags_where(|h| h.bounds_utilization).collect(),
            capacity_link: hops
                .iter()
                .filter(|h| h.plots_capacity)
                .find_map(|h| match &h.link {
                    HopLink::Link(link) => Some(link.clone().into_owned()),
                    HopLink::WifiAp(_) => None,
                }),
            duration: spec.duration,
            warmup: spec.warmup,
        }
    }

    /// Build, run to completion, and fold into a [`Report`].
    pub fn run(&self, spec: &ScenarioSpec) -> Report {
        let mut b = self.build(spec);
        b.run_to_end();
        b.finish()
    }

    /// One point execution under cooperative [`RunGuards`], returning
    /// everything the campaign runner's run ledger records: the report,
    /// the number of simulator events processed and the rendered
    /// telemetry sidecar (when the spec enabled one). If a budget trips
    /// mid-run, the partial results are discarded and the deterministic
    /// abort description is returned instead. With `profile` set
    /// the wall-clock event-loop profiler runs too and its report rides
    /// along — wall-clock data the caller must keep out of the results
    /// store (the runlog is its quarantine zone).
    pub fn run_point(
        &self,
        spec: &ScenarioSpec,
        guards: RunGuards,
        profile: bool,
    ) -> Result<PointRun, String> {
        let mut b = self.build(spec);
        if profile {
            b.sim.enable_profiler();
        }
        b.sim.set_guards(guards);
        b.run_to_end();
        if let Some(reason) = b.sim.aborted() {
            return Err(reason.describe());
        }
        let events = b.sim.events_processed();
        let profile = b.sim.profile_report();
        let sidecar = b.sidecar();
        Ok(PointRun {
            report: b.finish(),
            events,
            sidecar,
            profile,
        })
    }

    /// Run independent scenarios in parallel; `reports[i]` belongs to
    /// `specs[i]`. Results are bit-identical to running each spec with
    /// [`run`](Self::run) serially.
    pub fn run_batch(&self, specs: &[ScenarioSpec]) -> Vec<Report> {
        let mut reports = Vec::with_capacity(specs.len());
        self.for_each_ordered(
            specs,
            |engine, spec, _| engine.run(spec),
            |_, report| {
                reports.push(report);
                ControlFlow::Continue(())
            },
        );
        reports
    }

    /// The workspace's one worker pool. `min(threads, items)` workers take
    /// indices from a shared cursor and run `work(engine, item, worker)`;
    /// results travel over a channel to the calling thread, where a reorder
    /// buffer hands each to `emit(index, result)` in item order as soon as
    /// every earlier item has been emitted — so `emit` sees the same calls
    /// at any pool size (the worker slot, `0..workers`, is scheduling noise
    /// the runner's ledger records). `emit` returning [`ControlFlow::Break`]
    /// stops dispatch: items already running finish, and their results are
    /// dropped. With one worker everything runs inline on the calling thread.
    pub fn for_each_ordered<I, T, W, E>(&self, items: &[I], work: W, mut emit: E)
    where
        I: Sync,
        T: Send,
        W: Fn(&ScenarioEngine, &I, usize) -> T + Sync,
        E: FnMut(usize, T) -> ControlFlow<()>,
    {
        let workers = self.threads.min(items.len()).max(1);
        if workers == 1 {
            for (i, item) in items.iter().enumerate() {
                if emit(i, work(self, item, 0)).is_break() {
                    return;
                }
            }
            return;
        }
        // Relaxed: neither atomic publishes data (results travel over the
        // channel), and a worker that misses `stop` runs one more item, dropped.
        let next = AtomicUsize::new(0);
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            let (tx, rx) = mpsc::channel();
            for w in 0..workers {
                let (tx, next, stop, work) = (tx.clone(), &next, &stop, &work);
                s.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() || tx.send((i, work(self, &items[i], w))).is_err() {
                            break;
                        }
                    }
                });
            }
            drop(tx);
            let mut pending: BTreeMap<usize, T> = BTreeMap::new();
            let mut due = 0;
            for (i, out) in rx {
                pending.insert(i, out);
                while let Some(out) = pending.remove(&due) {
                    if emit(due, out).is_break() {
                        stop.store(true, Ordering::Relaxed);
                        return;
                    }
                    due += 1;
                }
            }
        });
    }
}

/// The qdisc a hop runs: its own capability, or — on a scheme-controlled
/// hop — the spec's [`QdiscSpec`] override of the scheme's qdisc.
fn make_qdisc(spec: &ScenarioSpec, hop: &HopQdisc, buffer: usize) -> Box<dyn Qdisc> {
    match (hop, &spec.qdisc) {
        (HopQdisc::SchemeDefault, QdiscSpec::SchemeDefault) => spec.scheme.make_qdisc(buffer),
        (HopQdisc::DropTail, _) | (HopQdisc::SchemeDefault, QdiscSpec::DropTail) => {
            Box::new(DropTail::new(buffer))
        }
        (HopQdisc::Codel, _) => Box::new(aqm::Codel::new(aqm::CodelConfig {
            buffer_pkts: buffer,
            ..Default::default()
        })),
        (HopQdisc::Abc(cfg), _) | (HopQdisc::SchemeDefault, QdiscSpec::AbcWith(cfg)) => {
            Box::new(AbcQdisc::new(*cfg))
        }
        (HopQdisc::SchemeDefault, QdiscSpec::DualQueue(policy)) => {
            Box::new(DualQueue::new(DualQueueConfig {
                policy: *policy,
                ..Default::default()
            }))
        }
    }
}

/// One propagation leg of `delay` to `stop`, with `wires` spliced in
/// ahead of it: the first node on the leg takes the whole delay and the
/// rest follow at zero, so an impaired path keeps the clean one's timing.
fn leg(
    wires: &[NodeId],
    stop: NodeId,
    delay: SimDuration,
) -> impl Iterator<Item = (NodeId, SimDuration)> + '_ {
    let delays = std::iter::once(delay).chain(std::iter::repeat(SimDuration::ZERO));
    wires.iter().copied().chain([stop]).zip(delays)
}

/// Everything one campaign point's execution yields. The report feeds
/// the results store; the event count, sidecar, and optional wall-clock
/// profile feed the runner's observability artifacts.
#[derive(Debug, Clone)]
pub struct PointRun {
    /// The scenario's folded report (sim-time data; store-safe).
    pub report: Report,
    /// Simulator events processed (deterministic; store-safe).
    pub events: u64,
    /// Rendered telemetry sidecar, when the spec enabled one.
    pub sidecar: Option<String>,
    /// Wall-clock event-loop profile, when requested. Never store-safe:
    /// the runner quarantines it in the run ledger.
    pub profile: Option<ProfileReport>,
}

/// The `ABC_JOBS` worker-pool override, if set to a positive integer.
pub fn jobs_from_env() -> Option<usize> {
    std::env::var("ABC_JOBS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .filter(|&n| n >= 1)
}

/// How one workload-owned flow folds into [`AppReport`] at finish time.
enum AppAccount {
    Web {
        flow: FlowId,
        start: SimTime,
        expected: u64,
    },
    Rtc {
        flow: FlowId,
    },
    Video {
        /// Index into `sender_ids`: metrics live in the sender's driver.
        sender_idx: usize,
    },
}

/// A constructed scenario: the simulator plus everything needed to sample
/// it mid-run and fold it into a [`Report`] afterwards.
pub struct BuiltScenario {
    /// The wired-up simulator.
    pub sim: Simulator,
    /// The metrics hub every node reports into.
    pub hub: Metrics,
    /// The telemetry hub, when the spec asked for one.
    pub telemetry: Option<Rc<RefCell<TelemetryHub>>>,
    /// `(metrics tag, node id)` of each hop, in path order.
    pub hops: Vec<(&'static str, NodeId)>,
    /// Node ids of the senders, in flow order.
    pub sender_ids: Vec<NodeId>,
    /// `(label, flow id)` of every expanded flow, in spec order.
    pub flows: Vec<(String, FlowId)>,
    app_accounts: Vec<AppAccount>,
    scheme_name: String,
    /// Tag of the hop whose queue the headline `qdelay_ms` reports.
    primary: &'static str,
    /// Tags of the hops whose opportunities bound utilization.
    bounding: Vec<&'static str>,
    /// The link whose capacity curve the report plots.
    capacity_link: Option<LinkSpec>,
    duration: SimDuration,
    warmup: SimDuration,
}

impl BuiltScenario {
    /// Run the simulation to the scenario's end time.
    pub fn run_to_end(&mut self) {
        self.sim.run_until(self.end_time());
    }

    /// Advance simulated time by `d` (for sampling loops).
    pub fn run_chunk(&mut self, d: SimDuration) {
        self.sim.run_for(d);
    }

    /// Render the telemetry sidecar recorded so far as self-describing
    /// JSONL (`None` when the spec asked for no telemetry). Deterministic:
    /// same spec, same bytes, regardless of worker-pool width. A selected
    /// `goodput_mbps` signal is written here from the metrics hub's
    /// per-flow bins, so call this once, after the run.
    pub fn sidecar(&self) -> Option<String> {
        let mut t = self.telemetry.as_ref()?.borrow_mut();
        if t.wants(Signal::GoodputMbps) {
            let hub = self.hub.borrow();
            for &(_, flow) in &self.flows {
                for (secs, mbps) in hub.throughput_series_mbps(flow) {
                    let at = SimTime::from_secs_f64(secs);
                    t.sample(at, Signal::GoodputMbps, Scope::Flow(flow.0), mbps);
                }
            }
        }
        Some(t.render_jsonl())
    }

    /// When the scenario ends.
    pub fn end_time(&self) -> SimTime {
        SimTime::ZERO + self.duration
    }

    /// Downcast the `idx`-th flow's sender for window inspection.
    pub fn sender(&self, idx: usize) -> &Sender {
        self.sim
            .node(self.sender_ids[idx])
            .and_then(|n| n.as_any().downcast_ref())
            .expect("sender node")
    }

    /// Downcast a hop to its [`LinkQueue`] (panics on the Wi-Fi hop,
    /// which is an AP, or an unknown tag).
    pub fn link_queue(&self, tag: &str) -> &LinkQueue {
        let id = self.hop_id(tag);
        self.sim
            .node(id)
            .and_then(|n| n.as_any().downcast_ref())
            .unwrap_or_else(|| panic!("hop {tag:?} is not a LinkQueue"))
    }

    /// Downcast the Wi-Fi hop to its access point.
    pub fn wifi_ap(&self, tag: &str) -> &WifiAp {
        let id = self.hop_id(tag);
        self.sim
            .node(id)
            .and_then(|n| n.as_any().downcast_ref())
            .unwrap_or_else(|| panic!("hop {tag:?} is not a WifiAp"))
    }

    /// Mutable AP access (the estimator's `estimate()` needs `&mut` for
    /// window expiry).
    pub fn wifi_ap_mut(&mut self, tag: &str) -> &mut WifiAp {
        let id = self.hop_id(tag);
        self.sim
            .node_mut(id)
            .and_then(|n| n.as_any_mut().downcast_mut())
            .unwrap_or_else(|| panic!("hop {tag:?} is not a WifiAp"))
    }

    fn hop_id(&self, tag: &str) -> NodeId {
        self.hops
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, id)| *id)
            .unwrap_or_else(|| panic!("no hop tagged {tag:?}"))
    }

    /// Account link delivery opportunities up to the scenario end on every
    /// wired/cellular hop (Wi-Fi has no opportunity accounting).
    fn finalize_opportunities(&self) {
        let end = self.end_time();
        for (_, id) in &self.hops {
            if let Some(lq) = self
                .sim
                .node(*id)
                .and_then(|n| n.as_any().downcast_ref::<LinkQueue>())
            {
                lq.finalize_opportunity(end);
            }
        }
    }

    /// Fold every workload account into the report's [`AppReport`]
    /// (`None` when the scenario ran no workloads). Needs `&mut self`:
    /// video sessions finalize their playback clocks at the end time.
    fn fold_app_metrics(&mut self) -> Option<AppReport> {
        if self.app_accounts.is_empty() {
            return None;
        }
        let end = self.end_time();
        let mut web_outcomes: Vec<workload::WebFlowOutcome> = Vec::new();
        let mut rtc_pkts = 0u64;
        let mut rtc_misses = 0u64;
        let mut rtc_delays_ms: Vec<f64> = Vec::new();
        let mut videos: Vec<workload::VideoMetrics> = Vec::new();
        let mut saw_rtc = false;
        for account in std::mem::take(&mut self.app_accounts) {
            match account {
                AppAccount::Web {
                    flow,
                    start,
                    expected,
                } => {
                    let completed_at = self
                        .hub
                        .borrow()
                        .flows
                        .get(&flow)
                        .and_then(|r| r.completed_at);
                    web_outcomes.push(workload::WebFlowOutcome {
                        start,
                        expected_bytes: expected,
                        completed_at,
                    });
                }
                AppAccount::Rtc { flow } => {
                    saw_rtc = true;
                    if let Some(rec) = self.hub.borrow().flows.get(&flow) {
                        // unique frames only: duplicates from spurious
                        // retransmissions must not dilute the miss rate
                        rtc_pkts += rec.unique_pkts;
                        rtc_misses += rec.deadline_misses;
                        rtc_delays_ms.extend(rec.delays_s.iter().map(|d| d * 1e3));
                    }
                }
                AppAccount::Video { sender_idx } => {
                    let id = self.sender_ids[sender_idx];
                    let sender: &mut Sender = self
                        .sim
                        .node_mut(id)
                        .and_then(|n| n.as_any_mut().downcast_mut())
                        .expect("video sender node");
                    let client: &mut AbrClient = sender
                        .app_driver_mut()
                        .and_then(|d| d.as_any_mut().downcast_mut())
                        .expect("video sender has an AbrClient driver");
                    client.finalize(end);
                    videos.push(client.metrics());
                }
            }
        }
        Some(AppReport {
            web: (!web_outcomes.is_empty()).then(|| workload::metrics::web_metrics(&web_outcomes)),
            rtc: saw_rtc
                .then(|| workload::metrics::rtc_metrics(rtc_pkts, rtc_misses, &mut rtc_delays_ms)),
            video: (!videos.is_empty()).then(|| workload::metrics::merge_video(&videos)),
        })
    }

    /// Fold the run into the paper's [`Report`]. Consumes the hub's
    /// per-packet samples rather than copying them: the primary hop's
    /// `qdelay_series` is downsampled in recording order, then sorted and
    /// summarised in place and freed, and only then are the flows'
    /// `delays_s` gathered into one buffer (see
    /// [`MetricsHub::take_delay_summary_ms`](netsim::metrics::MetricsHub::take_delay_summary_ms)).
    /// A caller holding a clone of [`hub`](Self::hub) still reads every
    /// counter and bin afterwards, but those two sample vectors are empty.
    pub fn finish(mut self) -> Report {
        let app = self.fold_app_metrics();
        self.finalize_opportunities();
        let mut hub = self.hub.borrow_mut();
        let window = self.duration.saturating_sub(self.warmup);
        let empty = LinkRecord::default();
        let link_of = |tag: &str| -> &LinkRecord { hub.links.get(tag).unwrap_or(&empty) };

        // The tightest bounding hop bounds what was achievable: report the
        // primary hop's delivery against it (NaN when no hop bounds it).
        let min_opportunity = self
            .bounding
            .iter()
            .map(|tag| link_of(tag).opportunity_bits)
            .fold(f64::INFINITY, f64::min);
        let utilization = if self.bounding.is_empty() {
            f64::NAN
        } else if min_opportunity > 0.0 {
            (link_of(self.primary).delivered_bytes as f64 * 8.0 / min_opportunity).min(1.0)
        } else {
            0.0
        };
        let drops = self
            .hops
            .iter()
            .map(|(tag, _)| link_of(tag).dropped_pkts)
            .sum();
        let flow_tputs: Vec<f64> = hub
            .flows
            .values()
            .map(|f| f.throughput_over(window) / 1e6)
            .collect();
        let capacity_series = self
            .capacity_link
            .as_ref()
            .map(|l| l.capacity_series(self.duration, SimDuration::from_millis(100)))
            .unwrap_or_default();

        let mut series = hub
            .links
            .get_mut(self.primary)
            .map(|rec| std::mem::take(&mut rec.qdelay_series))
            .unwrap_or_default();
        let (qdelay_series, qdelay_ms) = primary_qdelay(&mut series);
        drop(series);
        Report {
            scheme: self.scheme_name.clone(),
            utilization,
            delay_ms: hub.take_delay_summary_ms(),
            qdelay_ms,
            total_tput_mbps: flow_tputs.iter().sum(),
            jain: hub.jain(window),
            drops,
            flow_tputs_mbps: flow_tputs,
            tput_series: hub.total_throughput_series_mbps(),
            qdelay_series,
            capacity_series,
            app,
            impairments: hub.impairments.clone(),
        }
    }
}

/// The primary hop's queuing delay as the report holds it: the plotted
/// series (read in recording order, at most 600 points) and the summary
/// (ms), which leaves `series` sorted by delay. Bit-identical to
/// downsampling and summarising the series mapped to `(seconds, ms)`.
fn primary_qdelay(series: &mut [(SimTime, SimDuration)]) -> (Vec<(f64, f64)>, Summary) {
    let plotted = downsample_by(series.len(), 600, |i| {
        let (t, d) = series[i];
        (t.as_secs_f64(), d.as_millis_f64())
    });
    (plotted, qdelay_summary_in_place(series))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(scheme: Scheme) -> ScenarioSpec {
        ScenarioSpec::single(scheme, LinkSpec::Constant(Rate::from_mbps(12.0)))
            .duration_secs(2)
            .warmup_secs(1)
    }

    #[test]
    fn single_bottleneck_round_trip() {
        let r = ScenarioEngine::new().run(&tiny(Scheme::Abc));
        assert!(r.utilization > 0.5, "{}", r.row());
        assert_eq!(r.flow_tputs_mbps.len(), 1);
        assert!(!r.capacity_series.is_empty());
    }

    #[test]
    fn batch_matches_serial_exactly() {
        let specs: Vec<ScenarioSpec> = [Scheme::Abc, Scheme::Cubic].map(tiny).into_iter().collect();
        let serial: Vec<Report> = specs.iter().map(|s| ScenarioEngine::new().run(s)).collect();
        let batch = ScenarioEngine::with_threads(2).run_batch(&specs);
        for (a, b) in serial.iter().zip(&batch) {
            assert_eq!(a, b, "parallel placement changed a result");
        }
    }

    #[test]
    fn explicit_flows_keep_labels_and_order() {
        let mut spec = tiny(Scheme::Abc);
        spec.flows = FlowSchedule::Explicit(vec![
            FlowSpec::new("main"),
            FlowSpec::new("cross").scheme(Scheme::Cubic),
        ]);
        let b = ScenarioEngine::new().build(&spec);
        assert_eq!(b.flows[0].0, "main");
        assert_eq!(b.flows[1], ("cross".to_string(), FlowId(2)));
        assert_eq!(b.sender_ids.len(), 2);
    }

    #[test]
    fn short_flow_expansion_is_seeded() {
        let mut spec = tiny(Scheme::Abc);
        spec.short_flows = Some(PoissonShortFlows {
            load: 0.25,
            bytes: 10_000,
            scheme: Scheme::Cubic,
        });
        let a = spec.lower_flows(&spec.lower_path().0);
        let b = spec.lower_flows(&spec.lower_path().0);
        assert!(a.len() > 1, "expected short-flow arrivals, got {}", a.len());
        assert_eq!(a.len(), b.len());
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.spec.start == y.spec.start && x.spec.label == y.spec.label));
        let c = spec.clone().seed(99);
        let c = c.lower_flows(&c.lower_path().0);
        assert!(
            a.len() != c.len() || a.iter().zip(&c).any(|(x, y)| x.spec.start != y.spec.start),
            "different seeds should reshuffle arrivals"
        );
    }

    #[test]
    fn mixed_path_hops_are_tagged() {
        let spec = ScenarioSpec::mixed_path(
            LinkSpec::Constant(Rate::from_mbps(16.0)),
            Rate::from_mbps(12.0),
        )
        .duration_secs(2);
        let mut b = ScenarioEngine::new().build(&spec);
        b.run_to_end();
        let _wireless = b.link_queue("wireless");
        let _wired = b.link_queue("wired");
        let r = b.finish();
        assert!(r.total_tput_mbps > 5.0, "{}", r.row());
    }

    #[test]
    fn two_hop_abc_tracks_tighter_link() {
        let r = ScenarioEngine::new().run(&ScenarioSpec::two_hop(
            Scheme::Abc,
            LinkSpec::Constant(Rate::from_mbps(24.0)),
            LinkSpec::Constant(Rate::from_mbps(12.0)),
        ));
        // bottleneck is the 12 Mbit/s downlink
        assert!(r.total_tput_mbps > 10.0, "{}", r.row());
        assert!(r.total_tput_mbps < 12.5, "{}", r.row());
        assert!(r.qdelay_ms.p95 < 60.0, "{}", r.row());
    }

    #[test]
    fn entry_hop_out_of_range_panics() {
        let mut spec = tiny(Scheme::Abc);
        spec.flows = FlowSchedule::Explicit(vec![FlowSpec::new("bad").entry_hop(3)]);
        let res = std::panic::catch_unwind(|| ScenarioEngine::new().build(&spec));
        assert!(res.is_err());
    }

    #[test]
    fn abc_jobs_env_overrides_pool_size() {
        // other tests only ever read this var, and pool size never affects
        // results, so briefly setting it here is race-safe
        std::env::set_var("ABC_JOBS", "3");
        assert_eq!(jobs_from_env(), Some(3));
        assert_eq!(ScenarioEngine::new().threads(), 3);
        std::env::set_var("ABC_JOBS", "0");
        assert_eq!(jobs_from_env(), None, "0 workers is not a pool");
        std::env::set_var("ABC_JOBS", "lots");
        assert_eq!(jobs_from_env(), None);
        std::env::remove_var("ABC_JOBS");
        assert_eq!(jobs_from_env(), None);
    }

    #[test]
    fn for_each_ordered_emits_each_index_once_in_order_and_stops_at_break() {
        // Seeded uneven costs; and with more than one worker item 0 waits
        // until every other item has run, so the reorder buffer must hold
        // all of them before the first emit.
        let mut rng = StdRng::seed_from_u64(29);
        let costs_us: Vec<u64> = (0..48).map(|_| rng.gen_range(0..400u64)).collect();
        let n = costs_us.len();
        let items: Vec<usize> = (0..n).collect();
        for threads in [1, 2, 4, 8] {
            let engine = ScenarioEngine::with_threads(threads);
            // breaking at `n` never breaks
            for break_at in [0, 7, n - 1, n] {
                let (ran_tx, ran_rx) = mpsc::channel();
                let ran_rx = std::sync::Mutex::new(ran_rx);
                let work = |_: &ScenarioEngine, &i: &usize, _| {
                    std::thread::sleep(std::time::Duration::from_micros(costs_us[i]));
                    if i > 0 {
                        ran_tx.send(()).expect("the receiver outlives the pool");
                    } else if threads > 1 {
                        let ran = ran_rx.lock().expect("item 0 is the only reader");
                        (1..n).for_each(|_| ran.recv().expect("every other item runs"));
                    }
                    i * 3
                };
                let mut seen = Vec::new();
                engine.for_each_ordered(&items, work, |i, out| {
                    assert_eq!(out, i * 3, "index {i} got another item's result");
                    seen.push(i);
                    match i == break_at {
                        true => ControlFlow::Break(()),
                        false => ControlFlow::Continue(()),
                    }
                });
                let want: Vec<usize> = (0..=break_at.min(n - 1)).collect();
                assert_eq!(seen, want, "break at {break_at}, {threads} threads");
            }
        }
    }

    /// `finish`'s in-place path for the primary hop's series — read
    /// through an accessor, sorted by delay — against the pre-change path:
    /// map the series to `(seconds, ms)`, downsample that, and summarise a
    /// sorted copy of the ms values. Every field must agree bit for bit,
    /// on the sizes where downsampling changes shape and on random ones,
    /// with tied and zero delays.
    #[test]
    fn primary_qdelay_is_bit_identical_to_the_mapped_copy() {
        use crate::report::downsample;
        use netsim::stats::{percentile, summarize};

        /// `summarize_in_place` as it was before the summary arithmetic
        /// moved behind an accessor.
        fn reference(mut v: Vec<f64>) -> Summary {
            if v.is_empty() {
                return Summary::default();
            }
            v.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
            let n = v.len();
            let mean = v.iter().sum::<f64>() / n as f64;
            let var = v.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
            Summary {
                count: n,
                mean,
                std_dev: var.sqrt(),
                min: v[0],
                max: v[n - 1],
                p50: percentile(&v, 50.0),
                p95: percentile(&v, 95.0),
                p99: percentile(&v, 99.0),
            }
        }
        fn fields(s: &Summary) -> [u64; 8] {
            [
                s.count as u64,
                s.mean.to_bits(),
                s.std_dev.to_bits(),
                s.min.to_bits(),
                s.max.to_bits(),
                s.p50.to_bits(),
                s.p95.to_bits(),
                s.p99.to_bits(),
            ]
        }
        fn bits(v: &[(f64, f64)]) -> Vec<(u64, u64)> {
            v.iter().map(|(t, d)| (t.to_bits(), d.to_bits())).collect()
        }

        let mut rng = StdRng::seed_from_u64(0x5eed_0042);
        let mut sizes = vec![0, 1, 2, 3, 599, 600, 601, 1199, 1200, 1201];
        sizes.extend((0..24).map(|_| rng.gen_range(0..6000usize)));
        for n in sizes {
            // recording order: non-decreasing times (ties included) and
            // delays drawn from a coarse grid with zeros, so that many
            // samples tie, plus some fine-grained ones
            let mut t = SimTime::ZERO;
            let mut series: Vec<(SimTime, SimDuration)> = (0..n)
                .map(|_| {
                    t += SimDuration::from_micros(rng.gen_range(0..3u64) * 250);
                    let d = match rng.gen_range(0..4u32) {
                        0 => SimDuration::ZERO,
                        1 => SimDuration::from_millis(rng.gen_range(0..8u64)),
                        _ => SimDuration::from_nanos(rng.gen_range(0..400_000_000u64)),
                    };
                    (t, d)
                })
                .collect();
            let mapped: Vec<(f64, f64)> = series
                .iter()
                .map(|(t, d)| (t.as_secs_f64(), d.as_millis_f64()))
                .collect();
            let ms: Vec<f64> = mapped.iter().map(|p| p.1).collect();

            let (plotted, summary) = primary_qdelay(&mut series);
            assert_eq!(bits(&plotted), bits(&downsample(&mapped, 600)), "n = {n}");
            assert_eq!(fields(&summary), fields(&summarize(&ms)), "n = {n}");
            assert_eq!(fields(&summary), fields(&reference(ms)), "n = {n}");
            assert!(series.windows(2).all(|w| w[0].1 <= w[1].1), "n = {n}");
        }
    }
}
