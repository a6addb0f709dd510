//! Middlebox robustness — the deployability story of §2/§5 made
//! executable. Real wide-area paths strip unknown header options and
//! sometimes bleach ECN. ABC's design survives both (worst case it
//! degrades to its Cubic window); XCP's multi-bit custom header does not.

use abc_repro::experiments::Scheme;
use abc_repro::netsim::fault::{Impairment, ImpairmentWire};
use abc_repro::netsim::flow::{Sender, Sink, TrafficSource};
use abc_repro::netsim::link::{ConstantRate, SerialLink};
use abc_repro::netsim::linkqueue::LinkQueue;
use abc_repro::netsim::metrics::new_hub;
use abc_repro::netsim::packet::{FlowId, Route};
use abc_repro::netsim::rate::Rate;
use abc_repro::netsim::sim::Simulator;
use abc_repro::netsim::time::{SimDuration, SimTime};

/// Run one flow of `scheme` through its own bottleneck qdisc, with a
/// middlebox ahead of the bottleneck applying `what` to every packet.
/// Returns goodput in Mbit/s over the measured window.
fn through_middlebox(scheme: Scheme, what: Impairment) -> f64 {
    let mut sim = Simulator::new();
    let hub = new_hub();
    let wire_id = sim.reserve_node();
    let link_id = sim.reserve_node();
    let sender_id = sim.reserve_node();
    let sink_id = sim.reserve_node();
    let q = SimDuration::from_millis(20);
    let fwd = Route::new(vec![(wire_id, q), (link_id, q), (sink_id, q)]);
    let back = Route::new(vec![(sender_id, SimDuration::from_millis(40))]);
    // the middlebox impairs every packet (probability 1.0)
    sim.install_node(wire_id, Box::new(ImpairmentWire::new(1.0, what, 7)));
    sim.install_node(
        sink_id,
        Box::new(Sink::new(FlowId(1), back).with_metrics(hub.clone())),
    );
    sim.install_node(
        sender_id,
        Box::new(Sender::new(
            FlowId(1),
            scheme.make_cc(),
            fwd,
            TrafficSource::Backlogged,
        )),
    );
    sim.install_node(
        link_id,
        Box::new(
            LinkQueue::new(
                scheme.make_qdisc(250),
                Box::new(SerialLink::new(ConstantRate(Rate::from_mbps(12.0)))),
            )
            .with_metrics("bottleneck", hub.clone()),
        ),
    );
    hub.borrow_mut()
        .set_epoch(SimTime::ZERO + SimDuration::from_secs(10));
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(60));
    let h = hub.borrow();
    h.flows
        .get(&FlowId(1))
        .map(|f| f.throughput_over(SimDuration::from_secs(50)) / 1e6)
        .unwrap_or(0.0)
}

/// An ECN-bleaching middlebox erases accel/brake marks. The ABC sender's
/// dual-window design means it falls back to its Cubic window and stays
/// productive — the §5.1.1 robustness property.
#[test]
fn abc_survives_ecn_bleaching_via_cubic_window() {
    let clean = through_middlebox(Scheme::Abc, Impairment::StripFeedback); // no-op for ABC
    let bleached = through_middlebox(Scheme::Abc, Impairment::BleachEcn);
    assert!(clean > 10.0, "baseline ABC broken: {clean:.2} Mbit/s");
    assert!(
        bleached > 8.0,
        "bleached ABC should still run near line rate via w_cubic: {bleached:.2} Mbit/s"
    );
}

/// The same middlebox class that strips unknown TCP/IP options kills
/// XCP's feedback channel outright — the flow is stuck near its initial
/// window. This is §2's deployment argument, quantified.
#[test]
fn xcp_collapses_when_middleboxes_strip_its_header() {
    let clean = through_middlebox(Scheme::Xcp, Impairment::BleachEcn); // ECN irrelevant to XCP
    let stripped = through_middlebox(Scheme::Xcp, Impairment::StripFeedback);
    assert!(clean > 10.0, "baseline XCP broken: {clean:.2} Mbit/s");
    assert!(
        stripped < clean * 0.1,
        "XCP without its header should be stuck near the initial window: \
         {stripped:.2} vs {clean:.2} Mbit/s"
    );
}

/// RCP has the same fragility — rate feedback gone, flow pinned to its
/// bootstrap rate.
#[test]
fn rcp_pins_to_bootstrap_rate_without_its_header() {
    let stripped = through_middlebox(Scheme::Rcp, Impairment::StripFeedback);
    assert!(
        stripped < 2.0,
        "RCP without its header should crawl: {stripped:.2} Mbit/s"
    );
}
