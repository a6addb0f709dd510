//! Built-in campaigns: the sweep behind every figure of the paper (named
//! by its figure id, or by the sweep several figures share), plus small
//! presets for CI gating and seed-replication studies. Every preset is a
//! pure function of its [`Scale`], so two invocations expand to identical
//! point lists.

use crate::spec::{Axis, AxisValue, Campaign};
use abc_core::coexist::WeightPolicy;
use cellular::CellTrace;
use experiments::engine::{
    AbcRouterConfig, FlowSchedule, FlowSpec, HopQdisc, ParkingHop, PoissonShortFlows, QdiscSpec,
    ScenarioSpec, Topology, WorkloadEntry,
};
use experiments::figures::Scale;
use experiments::scenario::LinkSpec;
use experiments::{McsSpec, Scheme, CELLULAR_LINEUP, EXPLICIT_LINEUP, WIFI_LINEUP};
use netsim::fault::{ImpairmentKind, ImpairmentSpec};
use netsim::flow::TrafficSource;
use netsim::rate::Rate;
use netsim::telemetry::{Signal, TelemetryConfig};
use netsim::time::{SimDuration, SimTime};
use workload::{AbrWorkload, RtcWorkload, WebWorkload, WorkloadSpec};

/// The cellular traces for a run: all eight, or a truncated subset.
pub fn traces(scale: Scale) -> Vec<CellTrace> {
    let mut all = cellular::all_builtin();
    all.truncate(scale.pick(usize::MAX, 2, 1));
    all
}

/// Simulated duration of each matrix cell.
pub fn sim_duration(scale: Scale) -> SimDuration {
    scale.secs(120, 20, 2)
}

/// The base spec the cellular sweeps share: single bottleneck (the trace
/// axis overwrites the link), 100 ms RTT, 250-pkt buffer, 5 s warmup.
fn cell_base(duration: SimDuration) -> ScenarioSpec {
    ScenarioSpec::single(Scheme::Abc, LinkSpec::Constant(Rate::ZERO)).duration(duration)
}

/// A scheme × trace matrix — the shape behind Table 1 and Figs. 9/15/16.
pub fn matrix_campaign(
    name: impl Into<String>,
    schemes: &[Scheme],
    traces: &[CellTrace],
    duration: SimDuration,
) -> Campaign {
    Campaign::new(name, cell_base(duration))
        .axis(Axis::schemes(schemes))
        .axis(Axis::traces(traces))
}

/// Fig. 9/15's sweep: the full cellular lineup over every trace.
pub fn cellular_matrix(scale: Scale) -> Campaign {
    matrix_campaign(
        "cellular-matrix",
        &CELLULAR_LINEUP,
        &traces(scale),
        sim_duration(scale),
    )
}

/// Fig. 16's sweep: ABC against the explicit-feedback schemes.
pub fn explicit_matrix(scale: Scale) -> Campaign {
    matrix_campaign(
        "explicit-matrix",
        &EXPLICIT_LINEUP,
        &traces(scale),
        sim_duration(scale),
    )
}

/// Fig. 8's sweep: the lineup over the downlink trace, the uplink trace,
/// and the two-hop uplink+downlink path.
pub fn pareto(scale: Scale) -> Campaign {
    let down = cellular::builtin("Verizon1").expect("builtin trace");
    let up = cellular::builtin("Verizon2").expect("builtin trace");
    let paths = vec![
        (
            "down".to_string(),
            Topology::SingleBottleneck(LinkSpec::Trace(down.clone())),
        ),
        (
            "up".to_string(),
            Topology::SingleBottleneck(LinkSpec::Trace(up.clone())),
        ),
        (
            "up+down".to_string(),
            Topology::TwoHop {
                up: LinkSpec::Trace(up),
                down: LinkSpec::Trace(down),
            },
        ),
    ];
    Campaign::new("pareto", cell_base(sim_duration(scale)))
        .axis(Axis::paths("path", paths))
        .axis(Axis::schemes(&CELLULAR_LINEUP))
}

/// Fig. 18's sweep: RTT sensitivity on one trace (full lineup at paper
/// scale, a 3-scheme core below it).
pub fn rtt_grid(scale: Scale) -> Campaign {
    let trace = cellular::builtin("Verizon1").expect("builtin trace");
    let schemes: &[Scheme] = if scale.reduced() {
        &[Scheme::Abc, Scheme::CubicCodel, Scheme::Cubic]
    } else {
        &CELLULAR_LINEUP
    };
    Campaign::new("rtt-grid", cell_base(sim_duration(scale)))
        .axis(Axis::schemes(schemes))
        .axis(Axis::rtts_ms(&[20, 50, 100, 200]))
        .axis(Axis::traces(std::slice::from_ref(&trace)))
}

/// Across-seed replication: ABC and Cubic on one trace, eight seeds —
/// the aggregation layer's mean/CI demo.
pub fn seed_spread(scale: Scale) -> Campaign {
    let trace = cellular::builtin("Verizon1").expect("builtin trace");
    let seeds: Vec<u64> = (1..=scale.pick(8, 4, 2)).collect();
    Campaign::new("seed-spread", cell_base(scale.secs(60, 10, 2)))
        .axis(Axis::schemes(&[Scheme::Abc, Scheme::Cubic]))
        .axis(Axis::traces(std::slice::from_ref(&trace)))
        .axis(Axis::seeds(&seeds))
}

/// The CI gate: 2 schemes × 2 synthetic links × 2 seeds at 2 s each —
/// small enough to rerun twice per build, rich enough to exercise every
/// store feature. Ignores [`Scale`].
pub fn tiny(_scale: Scale) -> Campaign {
    let links = vec![
        (
            "const12".to_string(),
            crate::spec::AxisValue::Link(LinkSpec::Constant(Rate::from_mbps(12.0))),
        ),
        (
            "square12-24".to_string(),
            crate::spec::AxisValue::Link(LinkSpec::Square {
                a: Rate::from_mbps(12.0),
                b: Rate::from_mbps(24.0),
                half_period: SimDuration::from_millis(500),
            }),
        ),
    ];
    let base = ScenarioSpec::single(Scheme::Abc, LinkSpec::Constant(Rate::ZERO))
        .duration_secs(2)
        .warmup_secs(1);
    Campaign::new("tiny", base)
        .axis(Axis::schemes(&[Scheme::Abc, Scheme::Cubic]))
        .axis(Axis::new("link", links))
        .axis(Axis::seeds(&[1, 2]))
}

/// The scheme lineup for workload presets: ABC against the schemes an
/// application-limited flow most plausibly meets on a cellular path.
const WORKLOAD_LINEUP: [Scheme; 4] = [Scheme::Abc, Scheme::CubicCodel, Scheme::Cubic, Scheme::Bbr];

/// Web FCT sweep: scheme × offered load on a constant 12 Mbit/s
/// bottleneck. The `load` axis sets a Poisson request fleet (built-in
/// empirical object sizes) at that fraction of the link.
pub fn web_load_grid(scale: Scale) -> Campaign {
    let link = Rate::from_mbps(12.0);
    let loads = vec![
        ("0.2".to_string(), 0.2f64),
        ("0.5".to_string(), 0.5),
        ("0.8".to_string(), 0.8),
    ];
    let values = loads
        .into_iter()
        .map(|(label, load)| {
            let entry =
                WorkloadEntry::new(WorkloadSpec::Web(WebWorkload::poisson_load(load, link)));
            (label, AxisValue::Workloads(vec![entry]))
        })
        .collect();
    let mut base = ScenarioSpec::single(Scheme::Abc, LinkSpec::Constant(link))
        .duration(scale.secs(60, 10, 2))
        .warmup(SimDuration::ZERO);
    // the web fleet *is* the traffic; no bulk backlog underneath
    base.flows = FlowSchedule::Explicit(Vec::new());
    Campaign::new("web-load-grid", base)
        .axis(Axis::schemes(&WORKLOAD_LINEUP))
        .axis(Axis::new("load", values))
}

/// ABR video QoE sweep: scheme × cellular trace, one HD video session
/// per cell (ladder 350 k–4 M, 2 s chunks).
pub fn video_over_cellular(scale: Scale) -> Campaign {
    let duration = sim_duration(scale);
    let video = WorkloadEntry::new(WorkloadSpec::AbrVideo(AbrWorkload::hd(duration)));
    let mut base = cell_base(duration).warmup(SimDuration::ZERO);
    base.flows = FlowSchedule::Explicit(Vec::new());
    base.workloads = vec![video];
    Campaign::new("video-over-cellular", base)
        .axis(Axis::schemes(&WORKLOAD_LINEUP))
        .axis(Axis::traces(&traces(scale)))
}

/// RTC coexistence: a 300 kbit/s interactive stream sharing the
/// bottleneck with one bulk flow of the same scheme, per scheme — the
/// deadline-miss analogue of the paper's coexistence story.
pub fn rtc_coexist(scale: Scale) -> Campaign {
    let rtc = WorkloadEntry::new(WorkloadSpec::Rtc(RtcWorkload::video_call(300)));
    let mut base = ScenarioSpec::single(Scheme::Abc, LinkSpec::Constant(Rate::from_mbps(12.0)))
        .duration(scale.secs(60, 10, 2))
        .warmup(SimDuration::ZERO);
    base.flows = FlowSchedule::backlogged(1);
    base.workloads = vec![rtc];
    Campaign::new("rtc-coexist", base).axis(Axis::schemes(&WORKLOAD_LINEUP))
}

/// Dense-fleet scaling — the regime the arena flow tables and batched
/// ACK paths exist for. Each axis value is a staggered backlogged fleet
/// of `n` "users" sharing one 96 Mbit/s ABC bottleneck (the fleet ramps
/// in over the first fifth of the run), with a 100-client web request
/// fleet and an HD video session riding along for app-level tail
/// metrics. Counts: 10/100/1k, plus 10k at full scale; tiny stops at
/// 100 so the CI gate stays fast.
pub fn many_users(scale: Scale) -> Campaign {
    let link = Rate::from_mbps(96.0);
    let duration = scale.secs(60, 10, 2);
    let counts: &[u32] = scale.pick(
        &[10, 100, 1_000, 10_000][..],
        &[10, 100, 1_000][..],
        &[10, 100][..],
    );
    let values = counts
        .iter()
        .map(|&n| {
            let stagger = SimDuration::from_nanos(duration.as_nanos() / 5 / n as u64);
            (
                n.to_string(),
                AxisValue::Flows(FlowSchedule::Uniform {
                    n,
                    app: netsim::flow::TrafficSource::Backlogged,
                    stagger,
                    stagger_departures: false,
                }),
            )
        })
        .collect();
    let mut base = ScenarioSpec::single(Scheme::Abc, LinkSpec::Constant(link))
        .duration(duration)
        .warmup(SimDuration::ZERO);
    base.workloads = vec![
        WorkloadEntry::new(WorkloadSpec::Web(WebWorkload::fleet(100, 0.2))),
        WorkloadEntry::new(WorkloadSpec::AbrVideo(AbrWorkload::hd(duration))),
    ];
    Campaign::new("many-users", base).axis(Axis::new("clients", values))
}

/// Adversarial-network robustness: ABC vs Cubic on a clean 12 Mbit/s
/// bottleneck, swept across an impairment axis — an unimpaired control,
/// Bernoulli loss, Gilbert–Elliott burst loss, reordering, delay
/// jitter, a periodic link outage, and ACK decimation. Like every
/// preset this is a pure function of `Scale`, and the control point
/// shares the impaired points' node graph, so its bytes match the
/// equivalent impairment-free run.
pub fn robustness(scale: Scale) -> Campaign {
    let duration = scale.secs(60, 10, 2);
    // Outage timing scales with the run so every scale sees the link
    // flap at least once after warmup.
    let start = SimDuration::from_nanos(duration.as_nanos() / 4);
    let period = SimDuration::from_nanos(duration.as_nanos() / 2);
    let values = vec![
        ("none".to_string(), Vec::new()),
        (
            "loss-2pct".to_string(),
            vec![ImpairmentSpec::data(ImpairmentKind::Drop { p: 0.02 })],
        ),
        (
            "burst-loss".to_string(),
            vec![ImpairmentSpec::data(ImpairmentKind::GilbertElliott {
                p_good_bad: 0.01,
                p_bad_good: 0.2,
                loss_good: 0.0,
                loss_bad: 0.5,
            })],
        ),
        (
            "reorder".to_string(),
            vec![ImpairmentSpec::data(ImpairmentKind::Reorder {
                p: 0.05,
                hold: SimDuration::from_millis(5),
            })],
        ),
        (
            "jitter".to_string(),
            vec![ImpairmentSpec::data(ImpairmentKind::Jitter {
                max: SimDuration::from_millis(10),
            })],
        ),
        (
            "outage".to_string(),
            vec![ImpairmentSpec::data(ImpairmentKind::Outage {
                start,
                duration: SimDuration::from_millis(200),
                period: Some(period),
            })],
        ),
        (
            "ack-decimate".to_string(),
            vec![ImpairmentSpec::ack(ImpairmentKind::Decimate {
                keep_one_in: 2,
            })],
        ),
    ];
    let base = ScenarioSpec::single(Scheme::Abc, LinkSpec::Constant(Rate::from_mbps(12.0)))
        .duration(duration)
        .warmup(SimDuration::ZERO);
    Campaign::new("robustness", base)
        .axis(Axis::schemes(&[Scheme::Abc, Scheme::Cubic]))
        .axis(Axis::impairments(values))
}

/// Incremental-deployment coexistence (§4.1): ABC-Cubic against plain
/// ABC and plain Cubic, each run over an ABC bottleneck and over a
/// droptail bottleneck. On the ABC path ABC-Cubic should track ABC; on
/// the droptail path it should track Cubic — the differential the
/// `coexistence_differential` test suite pins.
pub fn coexist(scale: Scale) -> Campaign {
    let qdiscs = vec![
        (
            "abc".to_string(),
            AxisValue::Qdisc(QdiscSpec::AbcWith(AbcRouterConfig::default())),
        ),
        (
            "droptail".to_string(),
            AxisValue::Qdisc(QdiscSpec::DropTail),
        ),
    ];
    let base = ScenarioSpec::single(Scheme::AbcCubic, LinkSpec::Constant(Rate::from_mbps(12.0)))
        .duration(scale.secs(60, 10, 2))
        .warmup(SimDuration::ZERO);
    Campaign::new("coexist", base)
        .axis(Axis::schemes(&[
            Scheme::AbcCubic,
            Scheme::Abc,
            Scheme::Cubic,
        ]))
        .axis(Axis::new("qdisc", qdiscs))
        .axis(Axis::seeds(&[1, 2]))
}

/// A `k`-of-4 parking lot: hops 0..k run ABC routers, the rest droptail.
fn lot_with_abc_hops(k: usize) -> Topology {
    let hops = (0..4)
        .map(|i| {
            let hop = ParkingHop::new(LinkSpec::Constant(Rate::from_mbps(12.0)));
            if i < k {
                hop.qdisc(HopQdisc::Abc(AbcRouterConfig::default()))
            } else {
                hop.qdisc(HopQdisc::DropTail)
            }
        })
        .collect();
    Topology::ParkingLot { hops }
}

/// Multi-bottleneck incremental deployment: an ABC-Cubic flow rides a
/// 4-hop parking lot whose leading `k ∈ {0,1,2,4}` hops are ABC-capable,
/// while a Cubic cross flow enters at hop 1 and leaves after hop 2 a
/// quarter of the way into the run. The `coexistence` figure reads the
/// throughput share and queueing delay off this sweep.
pub fn parking_lot(scale: Scale) -> Campaign {
    let duration = scale.secs(60, 10, 2);
    let cross_start = SimTime::ZERO + SimDuration::from_nanos(duration.as_nanos() / 4);
    let abc_hops = vec![0usize, 1, 2, 4]
        .into_iter()
        .map(|k| (k.to_string(), AxisValue::Topology(lot_with_abc_hops(k))))
        .collect();
    let mut base = ScenarioSpec::parking_lot(
        Scheme::AbcCubic,
        vec![ParkingHop::new(LinkSpec::Constant(Rate::from_mbps(12.0)))],
    )
    .duration(duration)
    .warmup(SimDuration::ZERO);
    base.flows = FlowSchedule::Explicit(vec![
        FlowSpec::new("abc-cubic"),
        FlowSpec::new("cross-cubic")
            .scheme(Scheme::Cubic)
            .entry_hop(1)
            .exit_hop(2)
            .start_at(cross_start),
    ]);
    Campaign::new("parking-lot", base)
        .axis(Axis::new("abc_hops", abc_hops))
        .axis(Axis::seeds(&[1, 2]))
}

/// Table 1's sweep: the §1 lineup × traces.
pub fn table1(scale: Scale) -> Campaign {
    let schemes = [
        Scheme::Abc,
        Scheme::Xcp,
        Scheme::CubicCodel,
        Scheme::Copa,
        Scheme::Cubic,
        Scheme::Pcc,
        Scheme::Bbr,
        Scheme::Sprout,
        Scheme::Verus,
    ];
    matrix_campaign("table1", &schemes, &traces(scale), sim_duration(scale))
}

/// Fig. 1: Cubic, Verus, Cubic+CoDel and ABC on the Verizon1 trace.
pub fn fig1(scale: Scale) -> Campaign {
    let trace = cellular::builtin("Verizon1").expect("builtin trace");
    let base = ScenarioSpec::single(Scheme::Abc, LinkSpec::Trace(trace))
        .duration(scale.secs(30, 15, 2))
        .warmup(scale.secs(2, 2, 0));
    Campaign::new("fig1", base).axis(Axis::schemes(&[
        Scheme::Cubic,
        Scheme::Verus,
        Scheme::CubicCodel,
        Scheme::Abc,
    ]))
}

/// Fig. 2: ABC's dequeue-rate feedback against an enqueue-rate variant
/// on the Verizon2 trace.
pub fn fig2(scale: Scale) -> Campaign {
    let trace = cellular::builtin("Verizon2").expect("builtin trace");
    let base =
        ScenarioSpec::single(Scheme::Abc, LinkSpec::Trace(trace)).duration(scale.secs(120, 30, 2));
    let bases = vec![
        ("dequeue (ABC)".to_string(), AxisValue::Scheme(Scheme::Abc)),
        ("enqueue".to_string(), AxisValue::Scheme(Scheme::AbcEnqueue)),
    ];
    Campaign::new("fig2", base).axis(Axis::new("feedback", bases))
}

/// Telemetry recording only `signals`, at the default cadence.
fn recording(signals: &[Signal]) -> TelemetryConfig {
    TelemetryConfig {
        signals: signals.to_vec(),
        ..TelemetryConfig::default()
    }
}

/// Fig. 3: five staggered ABC flows joining and leaving a 24 Mbit/s link,
/// without and with the additive-increase term; per-flow goodput comes
/// from the sidecars.
pub fn fig3(scale: Scale) -> Campaign {
    let secs = scale.pick(250, 100, 2);
    let mut base = ScenarioSpec::single(Scheme::Abc, LinkSpec::Constant(Rate::from_mbps(24.0)))
        .duration_secs(secs)
        .warmup(SimDuration::ZERO);
    base.flows = FlowSchedule::Uniform {
        n: 5,
        app: TrafficSource::Backlogged,
        stagger: SimDuration::from_secs(secs / 10),
        stagger_departures: true,
    };
    let panels = vec![
        ("a (no AI)".to_string(), AxisValue::Scheme(Scheme::AbcNoAi)),
        ("b (with AI)".to_string(), AxisValue::Scheme(Scheme::Abc)),
    ];
    Campaign::new("fig3", base)
        .axis(Axis::new("panel", panels))
        .telemetry(recording(&[Signal::GoodputMbps]))
}

/// Figs. 6/11: one ABC flow over an ABC wireless hop and a 12 Mbit/s
/// droptail wired hop, plus an optional cross flow; the sidecars carry
/// the dual windows, per-flow goodput and both hops' queuing delay.
fn mixed_path(
    name: &str,
    wireless: LinkSpec,
    duration: SimDuration,
    cross: Option<FlowSpec>,
) -> Campaign {
    let mut base = ScenarioSpec::mixed_path(wireless, Rate::from_mbps(12.0)).duration(duration);
    base.flows =
        FlowSchedule::Explicit(std::iter::once(FlowSpec::new("abc")).chain(cross).collect());
    Campaign::new(name, base).telemetry(recording(&[
        Signal::GoodputMbps,
        Signal::WAbc,
        Signal::WNonAbc,
        Signal::QdelayMs,
    ]))
}

/// Fig. 6: the wireless rate steps every 5 s (five 35 s repetitions at
/// paper scale, a 2 s prefix at Tiny).
pub fn fig6(scale: Scale) -> Campaign {
    const STEPS: [(u64, f64); 7] = [
        (0, 16.0),
        (5, 9.0),
        (10, 5.0),
        (15, 14.0),
        (20, 7.0),
        (25, 18.0),
        (30, 16.0),
    ];
    let reps = scale.pick(5u64, 1, 1);
    let schedule = (0..reps)
        .flat_map(|rep| {
            STEPS.iter().map(move |&(t, r)| {
                (
                    SimTime::ZERO + SimDuration::from_secs(rep * 35 + t),
                    Rate::from_mbps(r),
                )
            })
        })
        .collect();
    let secs = scale.pick(reps * 35, reps * 35, 2);
    mixed_path(
        "fig6",
        LinkSpec::Steps(schedule),
        SimDuration::from_secs(secs),
        None,
    )
}

/// Fig. 11: wireless steps every 5 s, with an on-off (20 s / 10 s) Cubic
/// flow contending on the wired hop.
pub fn fig11(scale: Scale) -> Campaign {
    const RATES: [f64; 8] = [10.0, 6.0, 4.0, 8.0, 3.0, 9.0, 5.0, 7.0];
    let secs = scale.pick(80u64, 40, 2);
    let steps = (0..(secs / 5).max(1))
        .map(|i| {
            (
                SimTime::ZERO + SimDuration::from_secs(i * 5),
                Rate::from_mbps(RATES[(i % 8) as usize]),
            )
        })
        .collect();
    let cross = FlowSpec::new("cross")
        .scheme(Scheme::Cubic)
        .app(TrafficSource::OnOff {
            on: SimDuration::from_secs(20),
            off: SimDuration::from_secs(10),
        })
        .entry_hop(1);
    mixed_path(
        "fig11",
        LinkSpec::Steps(steps),
        SimDuration::from_secs(secs),
        Some(cross),
    )
}

/// Long-lived flows for the dual-queue figures: `n_abc` ABC flows, then
/// `n_cubic` Cubic flows, arriving `stagger` apart in that order.
pub(crate) fn long_flows(n_abc: u32, n_cubic: u32, stagger: SimDuration) -> Vec<FlowSpec> {
    let arrival = |k: u32| SimTime::ZERO + stagger * k as u64;
    let abc = (0..n_abc).map(|i| {
        FlowSpec::new(format!("ABC {}", i + 1))
            .scheme(Scheme::Abc)
            .start_at(arrival(i))
    });
    let cubic = (0..n_cubic).map(|i| {
        FlowSpec::new(format!("Cubic {}", i + 1))
            .scheme(Scheme::Cubic)
            .start_at(arrival(n_abc + i))
    });
    abc.chain(cubic).collect()
}

/// The §5.2 dual-queue router with max-min weights.
const MAX_MIN: QdiscSpec = QdiscSpec::DualQueue(WeightPolicy::MaxMin { headroom: 0.10 });

/// Fig. 7: two ABC flows then two Cubic flows arrive one after another on
/// a 24 Mbit/s dual-queue bottleneck; the sidecars carry per-flow goodput
/// and smoothed RTT.
pub fn fig7(scale: Scale) -> Campaign {
    let stagger = scale.pick(
        SimDuration::from_secs(25),
        SimDuration::from_secs(10),
        SimDuration::from_millis(250),
    );
    let mut base = ScenarioSpec::single(Scheme::Abc, LinkSpec::Constant(Rate::from_mbps(24.0)))
        .duration(scale.secs(200, 60, 2))
        .warmup(scale.secs(80, 25, 0))
        .qdisc(MAX_MIN);
    base.flows = FlowSchedule::Explicit(long_flows(2, 2, stagger));
    Campaign::new("fig7", base).telemetry(recording(&[Signal::GoodputMbps, Signal::SrttMs]))
}

/// Fig. 12: 3 ABC + 3 Cubic long flows on a 96 Mbit/s dual queue under
/// Poisson 10 KB short-flow churn: weight policy × offered load × seed.
pub fn fig12(scale: Scale) -> Campaign {
    let loads: &[f64] = if scale.reduced() {
        &[0.125, 0.5]
    } else {
        &[0.0625, 0.125, 0.25, 0.5]
    };
    let seeds: Vec<u64> = (100..100 + scale.pick(3, 1, 1)).collect();
    let mut base = ScenarioSpec::single(Scheme::Abc, LinkSpec::Constant(Rate::from_mbps(96.0)))
        .duration(scale.secs(40, 40, 2))
        .warmup(scale.secs(10, 10, 0));
    base.flows = FlowSchedule::Explicit(long_flows(3, 3, SimDuration::ZERO));
    let policies = vec![
        ("ABC max-min".to_string(), AxisValue::Qdisc(MAX_MIN)),
        (
            "RCP Zombie-List".to_string(),
            AxisValue::Qdisc(QdiscSpec::DualQueue(WeightPolicy::ZombieList)),
        ),
    ];
    let churn = loads
        .iter()
        .map(|&load| {
            let short = PoissonShortFlows {
                load,
                bytes: 10_000,
                scheme: Scheme::Cubic,
            };
            (load.to_string(), AxisValue::ShortFlows(Some(short)))
        })
        .collect();
    Campaign::new("fig12", base)
        .axis(Axis::new("policy", policies))
        .axis(Axis::new("load", churn))
        .axis(Axis::seeds(&seeds))
}

/// Fig. 13: one backlogged ABC flow beside `n` application-limited ABC
/// flows (1 Mbit/s in aggregate) on the Verizon1 trace; the one-value
/// `limited` axis records `n`.
pub fn fig13(scale: Scale) -> Campaign {
    let n = scale.pick(200u32, 50, 10);
    let trace = cellular::builtin("Verizon1").expect("builtin trace");
    let per_flow = Rate::from_bps(1e6 / n as f64);
    let limited = (0..n).map(|i| {
        FlowSpec::new(format!("limited {}", i + 1)).app(TrafficSource::RateLimited {
            rate: per_flow,
            burst_bytes: 4500.0,
        })
    });
    let flows = std::iter::once(FlowSpec::new("backlogged"))
        .chain(limited)
        .collect();
    let base = ScenarioSpec::single(Scheme::Abc, LinkSpec::Trace(trace))
        .duration(scale.secs(60, 20, 2))
        .warmup(scale.secs(5, 5, 0));
    let value = (
        n.to_string(),
        AxisValue::Flows(FlowSchedule::Explicit(flows)),
    );
    Campaign::new("fig13", base).axis(Axis::new("limited", vec![value]))
}

/// Figs. 10/14: the Wi-Fi lineup (a 3-scheme core below paper scale) at
/// one and two users over the AP model with MCS process `mcs`.
fn wifi_lineup(name: &str, mcs: McsSpec, scale: Scale) -> Campaign {
    let schemes: &[Scheme] = if scale.reduced() {
        &[Scheme::AbcDt(60), Scheme::CubicCodel, Scheme::Cubic]
    } else {
        &WIFI_LINEUP
    };
    let base = ScenarioSpec::wifi(Scheme::Abc, 1, mcs)
        .duration(scale.secs(45, 15, 2))
        .warmup(scale.secs(5, 5, 0));
    Campaign::new(name, base)
        .axis(Axis::flow_counts(&[1, 2]))
        .axis(Axis::schemes(schemes))
}

/// Fig. 10: MCS alternating 1 ↔ 7 every 2 s.
pub fn fig10(scale: Scale) -> Campaign {
    let mcs = McsSpec::Alternating(1, 7, SimDuration::from_secs(2));
    wifi_lineup("fig10", mcs, scale)
}

/// Fig. 14 (Appendix B): a Brownian-motion MCS over [3, 7].
pub fn fig14(scale: Scale) -> Campaign {
    let mcs = McsSpec::Brownian(3, 7, SimDuration::from_secs(2), 0xf14);
    wifi_lineup("fig14", mcs, scale)
}

/// Fig. 17: ABC, RCP and XCPw on a 12 ↔ 24 Mbit/s square wave (500 ms
/// half-period).
pub fn fig17(scale: Scale) -> Campaign {
    let link = LinkSpec::Square {
        a: Rate::from_mbps(12.0),
        b: Rate::from_mbps(24.0),
        half_period: SimDuration::from_millis(500),
    };
    let base = ScenarioSpec::single(Scheme::Abc, link)
        .duration(scale.secs(30, 10, 2))
        .warmup(scale.secs(2, 2, 0));
    Campaign::new("fig17", base).axis(Axis::schemes(&[Scheme::Abc, Scheme::Rcp, Scheme::Xcpw]))
}

/// §6.6 PK-ABC: ABC on the Verizon2 trace, without and with a 100 ms
/// look into the trace's future capacity.
pub fn pk_abc(scale: Scale) -> Campaign {
    let trace = cellular::builtin("Verizon2").expect("builtin trace");
    let base =
        ScenarioSpec::single(Scheme::Abc, LinkSpec::Trace(trace)).duration(scale.secs(120, 30, 2));
    let oracle = vec![
        ("ABC".to_string(), AxisValue::OracleLookahead(None)),
        (
            "PK-ABC".to_string(),
            AxisValue::OracleLookahead(Some(SimDuration::from_millis(100))),
        ),
    ];
    Campaign::new("pk_abc", base).axis(Axis::new("oracle", oracle))
}

/// Theorem 3.1, simulator half: 20 ABC flows on a 12 Mbit/s link across
/// the router's δ.
pub fn stability(scale: Scale) -> Campaign {
    let deltas: &[u64] = if scale.reduced() {
        &[30, 200]
    } else {
        &[20, 40, 60, 90, 133, 200, 400]
    };
    let base = ScenarioSpec::single(Scheme::Abc, LinkSpec::Constant(Rate::from_mbps(12.0)))
        .flows(20)
        .duration(scale.secs(60, 30, 2))
        .warmup(scale.secs(10, 10, 0));
    let values = deltas
        .iter()
        .map(|&ms| {
            let cfg = AbcRouterConfig {
                delta: SimDuration::from_millis(ms),
                ..Default::default()
            };
            (ms.to_string(), AxisValue::Qdisc(QdiscSpec::AbcWith(cfg)))
        })
        .collect();
    Campaign::new("stability", base).axis(Axis::new("delta_ms", values))
}

/// §6.5: 2..32 competing ABC flows on a 24 Mbit/s link.
pub fn jain(scale: Scale) -> Campaign {
    let counts: &[u32] = if scale.reduced() {
        &[2, 8]
    } else {
        &[2, 4, 8, 16, 32]
    };
    let base = ScenarioSpec::single(Scheme::Abc, LinkSpec::Constant(Rate::from_mbps(24.0)))
        .duration(scale.secs(120, 60, 2))
        .warmup(scale.secs(60, 20, 0));
    Campaign::new("jain", base).axis(Axis::flow_counts(counts))
}

/// The dynamics timeline: ABC over a 6 ↔ 18 Mbit/s square wave, every
/// default signal sampled every 20 ms.
pub fn dynamics(scale: Scale) -> Campaign {
    let link = LinkSpec::Square {
        a: Rate::from_mbps(6.0),
        b: Rate::from_mbps(18.0),
        half_period: SimDuration::from_millis(1000),
    };
    let base = ScenarioSpec::single(Scheme::Abc, link)
        .duration_secs(scale.pick(20, 8, 3))
        .warmup_secs(0);
    Campaign::new("dynamics", base)
        .telemetry(TelemetryConfig::default().with_sample_every(SimDuration::from_millis(20)))
}

/// A preset builder: a pure `Scale → Campaign` function.
pub type PresetFn = fn(Scale) -> Campaign;

/// Every built-in campaign: `(name, description, builder)`.
pub fn all() -> Vec<(&'static str, &'static str, PresetFn)> {
    vec![
        (
            "tiny",
            "CI gate: 2 schemes × 2 links × 2 seeds, 2 s each",
            tiny as PresetFn,
        ),
        (
            "cellular-matrix",
            "Fig 9/15: cellular lineup × traces",
            cellular_matrix,
        ),
        (
            "explicit-matrix",
            "Fig 16: ABC vs XCP/XCPw/VCP/RCP × traces",
            explicit_matrix,
        ),
        ("pareto", "Fig 8: lineup over down/up/two-hop paths", pareto),
        ("rtt-grid", "Fig 18: RTT ∈ {20,50,100,200} ms", rtt_grid),
        (
            "seed-spread",
            "across-seed mean/CI: 2 schemes × 8 seeds",
            seed_spread,
        ),
        (
            "web-load-grid",
            "web FCT: schemes × offered load (Poisson short flows)",
            web_load_grid,
        ),
        (
            "video-over-cellular",
            "ABR video QoE: schemes × cellular traces",
            video_over_cellular,
        ),
        (
            "rtc-coexist",
            "RTC deadline misses beside a bulk flow, per scheme",
            rtc_coexist,
        ),
        (
            "many-users",
            "dense-fleet scaling: 10→10k staggered users on one ABC bottleneck",
            many_users,
        ),
        (
            "robustness",
            "adversarial networks: schemes × {loss, burst, reorder, jitter, outage, ACK decimation}",
            robustness,
        ),
        (
            "coexist",
            "incremental deployment: ABC-Cubic/ABC/Cubic × {ABC, droptail} bottleneck",
            coexist,
        ),
        (
            "parking-lot",
            "4-hop parking lot: ABC-capable hop count 0→4 vs a Cubic cross flow",
            parking_lot,
        ),
        ("table1", "Table 1: the §1 lineup × traces", table1),
        ("fig1", "Fig 1: four schemes on the Verizon1 trace", fig1),
        ("fig2", "Fig 2: dequeue- vs enqueue-rate feedback", fig2),
        ("fig3", "Fig 3: five staggered ABC flows, without/with AI", fig3),
        ("fig6", "Fig 6: ABC wireless + droptail wired hop", fig6),
        ("fig7", "Fig 7: 2 ABC + 2 Cubic flows on a dual queue", fig7),
        ("fig10", "Fig 10: Wi-Fi lineup, MCS 1↔7, 1 and 2 users", fig10),
        ("fig11", "Fig 11: Fig 6's path with on-off Cubic cross traffic", fig11),
        ("fig12", "Fig 12: dual-queue policy × short-flow load × seed", fig12),
        ("fig13", "Fig 13: 1 backlogged + N app-limited ABC flows", fig13),
        ("fig14", "Fig 14: Wi-Fi lineup, Brownian MCS, 1 and 2 users", fig14),
        ("fig17", "Fig 17: ABC/RCP/XCPw on a square-wave link", fig17),
        ("pk_abc", "§6.6: ABC vs PK-ABC on the Verizon2 trace", pk_abc),
        ("stability", "Theorem 3.1: 20 ABC flows across the router's δ", stability),
        ("jain", "§6.5: 2..32 ABC flows on 24 Mbit/s", jain),
        ("dynamics", "control-law timeline on a square wave, sidecar on", dynamics),
    ]
}

/// Look a preset up by name and build it at `scale`.
pub fn by_name(name: &str, scale: Scale) -> Option<Campaign> {
    all()
        .into_iter()
        .find(|(n, ..)| *n == name)
        .map(|(_, _, f)| f(scale))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_preset_expands_deterministically() {
        for (name, _, build) in all() {
            let a = build(Scale::Tiny);
            let b = build(Scale::Tiny);
            let (pa, pb) = (a.expand(), b.expand());
            assert!(!pa.is_empty(), "{name} expands to nothing");
            assert_eq!(pa.len(), pb.len(), "{name} expansion size changed");
            for (x, y) in pa.iter().zip(&pb) {
                assert_eq!(x.ordinal, y.ordinal, "{name} ordinal changed");
                assert_eq!(x.coords, y.coords, "{name} coords changed");
            }
        }
    }

    #[test]
    fn tiny_is_exactly_eight_points() {
        let pts = tiny(Scale::Tiny).expand();
        assert_eq!(pts.len(), 8);
        assert_eq!(pts[0].coords.key(), "scheme=ABC,link=const12,seed=1");
    }

    #[test]
    fn by_name_resolves_and_rejects() {
        assert!(by_name("tiny", Scale::Tiny).is_some());
        assert!(by_name("rtt-grid", Scale::Tiny).is_some());
        assert!(by_name("nope", Scale::Tiny).is_none());
    }

    #[test]
    fn many_users_truncates_counts_by_scale() {
        assert_eq!(many_users(Scale::Tiny).expand().len(), 2);
        assert_eq!(many_users(Scale::Fast).expand().len(), 3);
        assert_eq!(many_users(Scale::Full).expand().len(), 4);
        // every fleet ramps in over the first fifth of the run
        for p in many_users(Scale::Tiny).expand() {
            match &p.spec.flows {
                FlowSchedule::Uniform { n, stagger, .. } => {
                    assert!(*n >= 10);
                    assert!(*stagger * *n as u64 <= p.spec.duration);
                }
                other => panic!("expected Uniform fleet, got {other:?}"),
            }
        }
    }

    #[test]
    fn coexist_and_parking_lot_shapes() {
        let pts = coexist(Scale::Tiny).expand();
        assert_eq!(pts.len(), 3 * 2 * 2);
        assert_eq!(pts[0].coords.key(), "scheme=ABC-Cubic,qdisc=abc,seed=1");

        let lot = parking_lot(Scale::Tiny).expand();
        assert_eq!(lot.len(), 4 * 2);
        for p in &lot {
            match &p.spec.topology {
                Topology::ParkingLot { hops } => assert_eq!(hops.len(), 4),
                other => panic!("expected a parking lot, got {other:?}"),
            }
            match &p.spec.flows {
                FlowSchedule::Explicit(flows) => {
                    assert_eq!(flows.len(), 2);
                    assert_eq!(flows[1].entry_hop, 1);
                    assert_eq!(flows[1].exit_hop, Some(2));
                }
                other => panic!("expected explicit flows, got {other:?}"),
            }
        }
    }

    #[test]
    fn rtt_grid_reduces_lineup_below_full_scale() {
        assert_eq!(rtt_grid(Scale::Tiny).expand().len(), 3 * 4);
        assert_eq!(
            rtt_grid(Scale::Full).size_unfiltered(),
            CELLULAR_LINEUP.len() * 4
        );
    }
}
