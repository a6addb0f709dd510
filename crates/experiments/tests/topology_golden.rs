//! One golden per topology shape: what the engine builds and what the
//! run reports, pinned byte for byte.
//!
//! The tiny campaign baseline covers the single-bottleneck path and a few
//! multi-hop presets, but not the Asymmetric report, the PK-ABC oracle on
//! a multi-hop path, or an ACK-path impairment behind several hops. Each
//! spec below is a Tiny run; its digest is an FNV-64 over the built hop
//! list, sender node ids and flow list, the simulator's event-order
//! fingerprint after the run, and the `{:?}` of the folded report. A
//! mismatch names the spec whose layout, event order or numbers moved.
//!
//! Together the specs cover every [`Topology`] variant; the oracle on
//! `TwoHop` and `ParkingLot`; a data impairment ahead of hop 1 and ACK
//! impairments on multi-hop paths; an `exit_hop` cross flow; `Codel`,
//! `DropTail` and `Abc(cfg)` parking hops; the `AbcWith` and `DualQueue`
//! overrides; Poisson short flows; and web + RTC + video workloads.

use abc_core::coexist::WeightPolicy;
use experiments::engine::{
    AbcRouterConfig, FlowSchedule, FlowSpec, HopQdisc, ParkingHop, PoissonShortFlows, QdiscSpec,
    ScenarioEngine, ScenarioSpec, Topology, WorkloadEntry,
};
use experiments::scenario::LinkSpec;
use experiments::wifi::McsSpec;
use experiments::Scheme;
use netsim::fault::{ImpairmentKind, ImpairmentSpec};
use netsim::flow::TrafficSource;
use netsim::rate::Rate;
use netsim::time::{SimDuration, SimTime};
use workload::{AbrWorkload, RtcWorkload, WebWorkload, WorkloadSpec};

fn mbps(x: f64) -> LinkSpec {
    LinkSpec::Constant(Rate::from_mbps(x))
}

fn ms(x: u64) -> SimDuration {
    SimDuration::from_millis(x)
}

/// A data-direction impairment ahead of hop `hop`.
fn data_at(kind: ImpairmentKind, hop: usize) -> ImpairmentSpec {
    ImpairmentSpec {
        hop,
        ..ImpairmentSpec::data(kind)
    }
}

/// The pinned specs, in [`GOLDEN`] order.
fn specs() -> [ScenarioSpec; 8] {
    let single = {
        let mut s = ScenarioSpec::single(Scheme::Abc, mbps(12.0)).qdisc(QdiscSpec::AbcWith(
            AbcRouterConfig {
                buffer_pkts: 120,
                dt: ms(40),
                ..AbcRouterConfig::default()
            },
        ));
        s.flows = FlowSchedule::Uniform {
            n: 2,
            app: TrafficSource::Backlogged,
            stagger: ms(300),
            stagger_departures: true,
        };
        s.short_flows = Some(PoissonShortFlows {
            load: 0.2,
            bytes: 20_000,
            scheme: Scheme::Cubic,
        });
        s
    };
    let dual_queue = {
        let mut s = ScenarioSpec::single(Scheme::Abc, mbps(10.0))
            .qdisc(QdiscSpec::DualQueue(WeightPolicy::MaxMin { headroom: 0.1 }));
        s.flows = FlowSchedule::Explicit(vec![
            FlowSpec::new("abc"),
            FlowSpec::new("cubic").scheme(Scheme::Cubic),
        ]);
        s
    };
    let mut two_hop = ScenarioSpec::two_hop(Scheme::Abc, mbps(16.0), mbps(10.0))
        .impairment(data_at(ImpairmentKind::Drop { p: 0.01 }, 1))
        .impairment(ImpairmentSpec::ack(ImpairmentKind::Drop { p: 0.02 }));
    two_hop.oracle_lookahead = Some(ms(50));
    let mut mixed = ScenarioSpec::mixed_path(mbps(12.0), Rate::from_mbps(10.0)).rtt(ms(60));
    let web = WebWorkload::poisson_load(0.2, Rate::from_mbps(12.0));
    mixed.workloads = vec![
        WorkloadEntry::new(WorkloadSpec::Web(web)),
        WorkloadEntry {
            scheme: Some(Scheme::Cubic),
            entry_hop: 1,
            ..WorkloadEntry::new(WorkloadSpec::Rtc(RtcWorkload::video_call(500)))
        },
        WorkloadEntry {
            start: SimTime::ZERO + ms(200),
            ..WorkloadEntry::new(WorkloadSpec::AbrVideo(AbrWorkload::hd(
                SimDuration::from_secs(2),
            )))
        },
    ];
    let mut wifi = ScenarioSpec::wifi(Scheme::Cubic, 2, McsSpec::Fixed(5));
    wifi.topology = Topology::Wifi {
        mcs: McsSpec::Fixed(5),
        ap_buffer_pkts: 200,
    };
    let parking = {
        let hops = vec![
            ParkingHop::new(mbps(14.0)).qdisc(HopQdisc::Codel),
            ParkingHop::new(mbps(12.0)).qdisc(HopQdisc::DropTail),
            ParkingHop::new(mbps(10.0)).qdisc(HopQdisc::Abc(AbcRouterConfig {
                buffer_pkts: 150,
                ..AbcRouterConfig::default()
            })),
        ];
        let mut s = ScenarioSpec::parking_lot(Scheme::AbcCubic, hops)
            .impairment(ImpairmentSpec::ack(ImpairmentKind::Drop { p: 0.01 }));
        s.flows = FlowSchedule::Explicit(vec![
            FlowSpec::new("main"),
            FlowSpec::new("cross")
                .scheme(Scheme::Cubic)
                .entry_hop(1)
                .exit_hop(1)
                .start_at(SimTime::ZERO + ms(100)),
        ]);
        s.oracle_lookahead = Some(ms(40));
        s
    };
    let parking_one = ScenarioSpec::parking_lot(Scheme::Abc, vec![ParkingHop::new(mbps(12.0))]);
    let asymmetric = ScenarioSpec::asymmetric(Scheme::Abc, mbps(12.0), mbps(2.0), ms(30), ms(20))
        .flows(2)
        .impairment(data_at(ImpairmentKind::BleachEcn { p: 0.05 }, 0))
        .impairment(ImpairmentSpec::ack(ImpairmentKind::Drop { p: 0.01 }));
    let all = [
        single,
        dual_queue,
        two_hop,
        mixed,
        wifi,
        parking,
        parking_one,
        asymmetric,
    ];
    all.map(|s| s.duration_secs(2).warmup(ms(500)))
}

fn fnv64(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Build, run and fold `spec`; digest its layout, event order and report.
fn digest(spec: &ScenarioSpec) -> u64 {
    let mut built = ScenarioEngine::with_threads(1).build(spec);
    let layout = format!("{:?} {:?} {:?}", built.hops, built.sender_ids, built.flows);
    built.run_to_end();
    let fingerprint = built.sim.events_fingerprint();
    let report = format!("{:?}", built.finish());
    let h = fnv64(0xcbf2_9ce4_8422_2325, layout.as_bytes());
    let h = fnv64(h, &fingerprint.to_le_bytes());
    fnv64(h, report.as_bytes())
}

/// Each spec's name and digest.
const GOLDEN: [(&str, u64); 8] = [
    ("single+abc-with+short-flows", 0x150247718ae4033b),
    ("single+dual-queue", 0xf22f705ff74c9f8e),
    ("two-hop+oracle+impairments", 0xf6489c6df766dfa8),
    ("mixed+web+rtc+video", 0xeeecfd3c56a49b63),
    ("wifi", 0x5805e50aae7a684e),
    ("parking-lot+oracle+exit-hop", 0xad3e678ab40a9757),
    ("parking-lot-one-hop", 0xe60956cb00bebeeb),
    ("asymmetric+impairments", 0x0cd9ec1547d9b22a),
];

#[test]
fn every_topology_builds_runs_and_reports_byte_identically() {
    let names = GOLDEN.map(|(name, _)| name);
    let got: Vec<(&str, u64)> = names.into_iter().zip(specs().iter().map(digest)).collect();
    let listing: String = got
        .iter()
        .map(|(n, d)| format!("    (\"{n}\", {d:#018x}),\n"))
        .collect();
    assert_eq!(
        got, GOLDEN,
        "a topology golden moved; the fresh values:\n{listing}"
    );
}
