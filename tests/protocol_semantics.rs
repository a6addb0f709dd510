//! Integration tests for the protocol-level claims: ECN reinterpretation
//! (§5.1.2), multi-bottleneck minimum-rate selection (§3.1.2), legacy-AQM
//! interop, and robustness to outages.

use abc_repro::experiments::{LinkSpec, ScenarioEngine, ScenarioSpec, Scheme};
use abc_repro::netsim::flow::{Sender, Sink, TrafficSource};
use abc_repro::netsim::link::{ConstantRate, SerialLink};
use abc_repro::netsim::linkqueue::LinkQueue;
use abc_repro::netsim::metrics::new_hub;
use abc_repro::netsim::packet::{FlowId, Route};
use abc_repro::netsim::rate::Rate;
use abc_repro::netsim::sim::Simulator;
use abc_repro::netsim::time::{SimDuration, SimTime};

/// §5.1.2: an ABC flow whose bottleneck is a legacy ECN-marking AQM must
/// fall back to Cubic-like behavior — the CE marks hit `w_nonabc` and the
/// flow stays both safe (no blowup) and productive.
#[test]
fn abc_through_legacy_ecn_aqm_behaves_like_cubic() {
    use abc_repro::aqm::{Codel, CodelConfig};

    let mut sim = Simulator::new();
    let hub = new_hub();
    let link_id = sim.reserve_node();
    let sender_id = sim.reserve_node();
    let sink_id = sim.reserve_node();
    let fwd = Route::new(vec![
        (link_id, SimDuration::from_millis(25)),
        (sink_id, SimDuration::from_millis(25)),
    ]);
    let back = Route::new(vec![(sender_id, SimDuration::from_millis(50))]);
    sim.install_node(
        sink_id,
        Box::new(Sink::new(FlowId(1), back).with_metrics(hub.clone())),
    );
    sim.install_node(
        sender_id,
        Box::new(Sender::new(
            FlowId(1),
            Scheme::Abc.make_cc(),
            fwd,
            TrafficSource::Backlogged,
        )),
    );
    // a CoDel in ECN-marking mode: it CE-marks ABC's ECT-looking packets
    sim.install_node(
        link_id,
        Box::new(
            LinkQueue::new(
                Box::new(Codel::new(CodelConfig {
                    ecn_marking: true,
                    ..Default::default()
                })),
                Box::new(SerialLink::new(ConstantRate(Rate::from_mbps(12.0)))),
            )
            .with_metrics("aqm", hub.clone()),
        ),
    );
    let end = SimTime::ZERO + SimDuration::from_secs(40);
    hub.borrow_mut()
        .set_epoch(SimTime::ZERO + SimDuration::from_secs(5));
    sim.run_until(end);
    {
        let lq: &LinkQueue = sim
            .node(link_id)
            .and_then(|n| n.as_any().downcast_ref())
            .unwrap();
        lq.finalize_opportunity(end);
        // the AQM must have CE-marked (ABC traffic is ECT to legacy gear)
        assert!(
            lq.qdisc().stats().ce_marked > 0,
            "legacy AQM never CE-marked ABC traffic"
        );
    }
    let h = hub.borrow();
    let util = h.links["aqm"].utilization();
    assert!(
        util > 0.7,
        "ABC-under-AQM should stay productive: {util:.3}"
    );
    let q = h.links["aqm"].qdelay_summary_ms();
    assert!(
        q.p95 < 100.0,
        "CE feedback must bound the queue: {:.0} ms",
        q.p95
    );
}

/// §3.1.2: with two ABC routers in series, the *fraction of accelerates*
/// the sender sees equals the tighter router's fraction — the demotion
/// rule computes a min over the path.
#[test]
fn two_abc_hops_feedback_is_path_minimum() {
    // tight hop 6 Mbit/s behind a loose 24 Mbit/s hop
    let r = ScenarioEngine::new().run(&ScenarioSpec::two_hop(
        Scheme::Abc,
        LinkSpec::Constant(Rate::from_mbps(24.0)),
        LinkSpec::Constant(Rate::from_mbps(6.0)),
    ));
    assert!(
        (r.total_tput_mbps - 5.8).abs() < 0.6,
        "should converge to the 6 Mbit/s hop: {}",
        r.row()
    );
    assert!(r.qdelay_ms.p95 < 60.0, "{}", r.row());

    // reversed order must behave the same
    let r2 = ScenarioEngine::new().run(&ScenarioSpec::two_hop(
        Scheme::Abc,
        LinkSpec::Constant(Rate::from_mbps(6.0)),
        LinkSpec::Constant(Rate::from_mbps(24.0)),
    ));
    assert!(
        (r2.total_tput_mbps - r.total_tput_mbps).abs() < 0.8,
        "order should not matter: {} vs {}",
        r.total_tput_mbps,
        r2.total_tput_mbps
    );
}

/// RCP's rate field is also a path minimum: two RCP hops in series must
/// converge to the tighter one without a standing queue at the loose hop.
#[test]
fn rcp_two_hops_takes_min_rate() {
    let r = ScenarioEngine::new().run(&ScenarioSpec::two_hop(
        Scheme::Rcp,
        LinkSpec::Constant(Rate::from_mbps(24.0)),
        LinkSpec::Constant(Rate::from_mbps(8.0)),
    ));
    assert!(
        r.total_tput_mbps < 8.5,
        "RCP must not exceed the tight hop: {}",
        r.row()
    );
    assert!(r.total_tput_mbps > 5.0, "RCP under-shot badly: {}", r.row());
}

/// XCP across two hops: the window delta stamped is the minimum, so the
/// flow is governed by the tight hop.
#[test]
fn xcp_two_hops_takes_min_feedback() {
    let r = ScenarioEngine::new().run(&ScenarioSpec::two_hop(
        Scheme::Xcp,
        LinkSpec::Constant(Rate::from_mbps(8.0)),
        LinkSpec::Constant(Rate::from_mbps(24.0)),
    ));
    assert!(r.total_tput_mbps < 8.5, "{}", r.row());
    assert!(r.total_tput_mbps > 6.0, "{}", r.row());
}

/// Outage robustness (§6.2 notes the traces include outages): a trace with
/// a multi-second dead zone must not deadlock any scheme; ABC must recover
/// promptly after the link returns.
#[test]
fn abc_survives_outage_and_recovers() {
    // 0-10 s at 12 Mbit/s, 10-13 s dead, 13-30 s at 12 Mbit/s
    let steps = vec![
        (SimTime::ZERO, Rate::from_mbps(12.0)),
        (
            SimTime::ZERO + SimDuration::from_secs(10),
            Rate::from_bps(100.0),
        ),
        (
            SimTime::ZERO + SimDuration::from_secs(13),
            Rate::from_mbps(12.0),
        ),
    ];
    let spec = ScenarioSpec::single(Scheme::Abc, LinkSpec::Steps(steps))
        .duration_secs(30)
        .warmup(SimDuration::ZERO);
    let mut b = ScenarioEngine::new().build(&spec);
    b.run_to_end();
    let hub = b.hub.clone();
    let _ = b.finish();
    let h = hub.borrow();
    // goodput in the final 10 s should be back near full rate
    let series = h.total_throughput_series_mbps();
    let tail: Vec<f64> = series
        .iter()
        .filter(|(t, _)| *t > 16.0 && *t < 29.0)
        .map(|(_, v)| *v)
        .collect();
    let mean = tail.iter().sum::<f64>() / tail.len().max(1) as f64;
    assert!(mean > 9.0, "post-outage goodput {mean:.2} Mbit/s");
}

/// Finite flows complete and report sane completion accounting.
#[test]
fn short_flows_complete() {
    let spec = ScenarioSpec::single(Scheme::Abc, LinkSpec::Constant(Rate::from_mbps(12.0)))
        .flows(4)
        .app(TrafficSource::Finite { bytes: 30_000 })
        .duration_secs(10)
        .warmup(SimDuration::ZERO);
    let mut b = ScenarioEngine::new().build(&spec);
    b.run_to_end();
    let hub = b.hub.clone();
    let _ = b.finish();
    let h = hub.borrow();
    for i in 1..=4u32 {
        let f = &h.flows[&FlowId(i)];
        assert_eq!(f.delivered_bytes, 30_000, "flow {i} incomplete");
    }
}

/// The sink's ECN echo is faithful: an ABC run produces both accelerate
/// and brake echoes at the sender and zero CE (no legacy marker present).
#[test]
fn ecn_echo_faithful_end_to_end() {
    let spec = ScenarioSpec::single(Scheme::Abc, LinkSpec::Constant(Rate::from_mbps(12.0)));
    let mut b = ScenarioEngine::new().build(&spec);
    b.run_chunk(SimDuration::from_secs(20));
    let s = b.sender(0);
    let st = s.stats();
    assert!(st.accel_acks > 100);
    assert!(st.brake_acks > 100);
    assert_eq!(
        st.accel_acks + st.brake_acks,
        st.acked_pkts,
        "every ABC ACK must carry accel or brake"
    );
}

/// §5.1.2's proxied-network deployment: accelerate on either ECT codepoint,
/// brake via CE, unmodified receivers. The proxied dialect must deliver the
/// same high-utilization/low-delay operation as the NS-bit dialect.
#[test]
fn proxied_ce_dialect_works_end_to_end() {
    use abc_repro::abc_core::router::{AbcQdisc, AbcRouterConfig, EcnDialect};
    use abc_repro::abc_core::sender::{AbcSender, AbcSenderConfig};

    let mut sim = Simulator::new();
    let hub = new_hub();
    let link_id = sim.reserve_node();
    let sender_id = sim.reserve_node();
    let sink_id = sim.reserve_node();
    let fwd = Route::new(vec![
        (link_id, SimDuration::from_millis(25)),
        (sink_id, SimDuration::from_millis(25)),
    ]);
    let back = Route::new(vec![(sender_id, SimDuration::from_millis(50))]);
    sim.install_node(
        sink_id,
        Box::new(Sink::new(FlowId(1), back).with_metrics(hub.clone())),
    );
    sim.install_node(
        sender_id,
        Box::new(Sender::new(
            FlowId(1),
            Box::new(AbcSender::with_config(AbcSenderConfig {
                dialect: EcnDialect::ProxiedCe,
                ..Default::default()
            })),
            fwd,
            TrafficSource::Backlogged,
        )),
    );
    sim.install_node(
        link_id,
        Box::new(
            LinkQueue::new(
                Box::new(AbcQdisc::new(AbcRouterConfig {
                    dialect: EcnDialect::ProxiedCe,
                    ..Default::default()
                })),
                Box::new(SerialLink::new(ConstantRate(Rate::from_mbps(12.0)))),
            )
            .with_metrics("bottleneck", hub.clone()),
        ),
    );
    let end = SimTime::ZERO + SimDuration::from_secs(40);
    hub.borrow_mut()
        .set_epoch(SimTime::ZERO + SimDuration::from_secs(5));
    sim.run_until(end);
    {
        let lq: &LinkQueue = sim
            .node(link_id)
            .and_then(|n| n.as_any().downcast_ref())
            .unwrap();
        lq.finalize_opportunity(end);
    }
    let h = hub.borrow();
    let util = h.links["bottleneck"].utilization();
    assert!(util > 0.9, "proxied dialect utilization {util:.3}");
    let q = h.links["bottleneck"].qdelay_summary_ms();
    assert!(
        q.p95 < 60.0,
        "proxied dialect queuing delay {:.0} ms",
        q.p95
    );
}

/// ACK batching (delayed/compressed ACKs) must not destabilize ABC: the
/// per-packet feedback still arrives, just in bursts.
#[test]
fn abc_robust_to_ack_compression() {
    let mut sim = Simulator::new();
    let hub = new_hub();
    let link_id = sim.reserve_node();
    let sender_id = sim.reserve_node();
    let sink_id = sim.reserve_node();
    let fwd = Route::new(vec![
        (link_id, SimDuration::from_millis(25)),
        (sink_id, SimDuration::from_millis(25)),
    ]);
    let back = Route::new(vec![(sender_id, SimDuration::from_millis(50))]);
    sim.install_node(
        sink_id,
        Box::new(
            Sink::new(FlowId(1), back)
                .with_metrics(hub.clone())
                .with_ack_batching(4, SimDuration::from_millis(10)),
        ),
    );
    sim.install_node(
        sender_id,
        Box::new(Sender::new(
            FlowId(1),
            Scheme::Abc.make_cc(),
            fwd,
            TrafficSource::Backlogged,
        )),
    );
    sim.install_node(
        link_id,
        Box::new(
            LinkQueue::new(
                Scheme::Abc.make_qdisc(250),
                Box::new(SerialLink::new(ConstantRate(Rate::from_mbps(12.0)))),
            )
            .with_metrics("bottleneck", hub.clone()),
        ),
    );
    let end = SimTime::ZERO + SimDuration::from_secs(40);
    hub.borrow_mut()
        .set_epoch(SimTime::ZERO + SimDuration::from_secs(5));
    sim.run_until(end);
    {
        let lq: &LinkQueue = sim
            .node(link_id)
            .and_then(|n| n.as_any().downcast_ref())
            .unwrap();
        lq.finalize_opportunity(end);
    }
    let h = hub.borrow();
    let util = h.links["bottleneck"].utilization();
    assert!(util > 0.85, "utilization under ACK batching {util:.3}");
}

/// ACK losses on the reverse path (the paper stresses this via trace
/// outages): ABC must keep working with 10% of ACKs dropped.
#[test]
fn abc_robust_to_ack_loss() {
    use abc_repro::netsim::fault::{Impairment, ImpairmentWire};

    let mut sim = Simulator::new();
    let hub = new_hub();
    let link_id = sim.reserve_node();
    let sender_id = sim.reserve_node();
    let sink_id = sim.reserve_node();
    let wire_id = sim.reserve_node();
    let fwd = Route::new(vec![
        (link_id, SimDuration::from_millis(25)),
        (sink_id, SimDuration::from_millis(25)),
    ]);
    // ACKs pass through a lossy wire on the way back
    let back = Route::new(vec![
        (wire_id, SimDuration::from_millis(25)),
        (sender_id, SimDuration::from_millis(25)),
    ]);
    sim.install_node(
        wire_id,
        Box::new(ImpairmentWire::new(0.10, Impairment::Drop, 99)),
    );
    sim.install_node(
        sink_id,
        Box::new(Sink::new(FlowId(1), back).with_metrics(hub.clone())),
    );
    sim.install_node(
        sender_id,
        Box::new(Sender::new(
            FlowId(1),
            Scheme::Abc.make_cc(),
            fwd,
            TrafficSource::Backlogged,
        )),
    );
    sim.install_node(
        link_id,
        Box::new(
            LinkQueue::new(
                Scheme::Abc.make_qdisc(250),
                Box::new(SerialLink::new(ConstantRate(Rate::from_mbps(12.0)))),
            )
            .with_metrics("bottleneck", hub.clone()),
        ),
    );
    let end = SimTime::ZERO + SimDuration::from_secs(60);
    hub.borrow_mut()
        .set_epoch(SimTime::ZERO + SimDuration::from_secs(10));
    sim.run_until(end);
    {
        let lq: &LinkQueue = sim
            .node(link_id)
            .and_then(|n| n.as_any().downcast_ref())
            .unwrap();
        lq.finalize_opportunity(end);
    }
    let h = hub.borrow();
    let util = h.links["bottleneck"].utilization();
    assert!(util > 0.75, "utilization under 10% ACK loss: {util:.3}");
    let q = h.links["bottleneck"].qdelay_summary_ms();
    assert!(
        q.p95 < 100.0,
        "queuing delay under ACK loss {:.0} ms",
        q.p95
    );
}
