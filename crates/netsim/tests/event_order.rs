//! Pop-order pin for the timer-wheel event queue: a **golden scenario
//! test** runs a mixed pacing/RTO/trace-link workload and pins its
//! event-order fingerprint, so *any* reordering fails loudly. The
//! constant was recorded equal to the pre-wheel comparison heap's run.
//! The queue's own operations are held to an independent oracle by the
//! unit tests in `netsim::event`.

use netsim::flow::{AckEvent, CongestionControl, Pacing, Sender, Sink, TrafficSource};
use netsim::link::{SerialLink, SquareWave, TraceLink};
use netsim::linkqueue::LinkQueue;
use netsim::metrics::new_hub;
use netsim::packet::{FlowId, NodeId, Route};
use netsim::queue::DropTail;
use netsim::rate::Rate;
use netsim::sim::Simulator;
use netsim::telemetry::{new_hub as new_telemetry_hub, Shared, Signal, TelemetryConfig};
use netsim::time::{SimDuration, SimTime};

/// Rate-paced fixed window: exercises `TOK_PACE` ticks.
struct PacedWindow {
    w: f64,
    rate: Rate,
}

impl CongestionControl for PacedWindow {
    fn name(&self) -> &'static str {
        "paced"
    }
    fn on_ack(&mut self, _ev: &AckEvent) {}
    fn cwnd_pkts(&self) -> f64 {
        self.w
    }
    fn pacing(&self) -> Pacing {
        Pacing::Rate(self.rate)
    }
}

/// Oversized ACK-clocked window: floods the buffer, forcing losses,
/// retransmissions, and RTO traffic.
struct GreedyWindow {
    w: f64,
}

impl CongestionControl for GreedyWindow {
    fn name(&self) -> &'static str {
        "greedy"
    }
    fn on_ack(&mut self, _ev: &AckEvent) {}
    fn cwnd_pkts(&self) -> f64 {
        self.w
    }
}

/// A two-flow scenario over a trace link and a square-wave serial link in
/// series: pacing clocks, RTO arming/cancellation, delayed-ACK flush
/// timers, and Mahimahi-style delivery opportunities all interleave.
fn run_mixed_scenario(full_telemetry: bool) -> (Vec<(SimTime, NodeId, u64)>, u64) {
    let mut sim = Simulator::new();
    let telemetry = new_telemetry_hub(if full_telemetry {
        // All default signals recording through a live hub: every probe
        // site fires, and the event order must not move by one event.
        TelemetryConfig::default()
    } else {
        // Only the raw `(time, node, seq)` row of every processed event.
        TelemetryConfig {
            signals: vec![Signal::Events],
            sample_every: SimDuration::ZERO,
        }
    });
    sim.set_telemetry(Box::new(Shared(telemetry.clone())));
    let hub = new_hub();

    let s1 = sim.reserve_node();
    let s2 = sim.reserve_node();
    let trace_hop = sim.reserve_node();
    let square_hop = sim.reserve_node();
    let k1 = sim.reserve_node();
    let k2 = sim.reserve_node();

    // trace link: one 1500 B opportunity every 3 ms, with a 60 ms outage
    let opps: Vec<SimDuration> = (0..80)
        .map(|i| SimDuration::from_millis(if i < 60 { i * 3 } else { 240 + (i - 60) * 3 }))
        .collect();
    let trace = TraceLink::new(opps.into(), SimDuration::from_millis(300));
    sim.install_node(
        trace_hop,
        Box::new(
            LinkQueue::new(Box::new(DropTail::new(10)), Box::new(trace))
                .with_metrics("trace", hub.clone()),
        ),
    );
    let square = SerialLink::new(SquareWave::new(
        Rate::from_mbps(6.0),
        Rate::from_mbps(18.0),
        SimDuration::from_millis(120),
    ));
    sim.install_node(
        square_hop,
        Box::new(
            LinkQueue::new(Box::new(DropTail::new(8)), Box::new(square))
                .with_metrics("square", hub.clone()),
        ),
    );

    let fwd1 = Route::new(vec![
        (trace_hop, SimDuration::from_millis(5)),
        (square_hop, SimDuration::from_millis(5)),
        (k1, SimDuration::from_millis(10)),
    ]);
    let back1 = Route::new(vec![(s1, SimDuration::from_millis(20))]);
    let fwd2 = Route::new(vec![
        (square_hop, SimDuration::from_millis(2)),
        (k2, SimDuration::from_millis(8)),
    ]);
    let back2 = Route::new(vec![(s2, SimDuration::from_millis(10))]);

    sim.install_node(
        k1,
        Box::new(Sink::new(FlowId(1), back1).with_metrics(hub.clone())),
    );
    // batched ACKs: the sink's flush timer joins the mix
    sim.install_node(
        k2,
        Box::new(
            Sink::new(FlowId(2), back2)
                .with_metrics(hub.clone())
                .with_ack_batching(4, SimDuration::from_millis(15)),
        ),
    );
    sim.install_node(
        s1,
        Box::new(Sender::new(
            FlowId(1),
            Box::new(PacedWindow {
                w: 20.0,
                rate: Rate::from_mbps(5.0),
            }),
            fwd1,
            TrafficSource::Backlogged,
        )),
    );
    sim.install_node(
        s2,
        Box::new(Sender::new(
            FlowId(2),
            Box::new(GreedyWindow { w: 60.0 }),
            fwd2,
            TrafficSource::OnOff {
                on: SimDuration::from_millis(400),
                off: SimDuration::from_millis(200),
            },
        )),
    );

    sim.run_until(SimTime::ZERO + SimDuration::from_secs(2));
    let trace = telemetry.borrow_mut().take_events();
    (trace, sim.events_fingerprint())
}

/// The pinned fingerprint of the golden scenario's event sequence. If an
/// event-queue change alters pop order, this is the first test to fail;
/// regenerate the constant only for *intentional* semantic changes.
const GOLDEN_FINGERPRINT: u64 = 0x971a0f55ff24d3e8;

#[test]
fn golden_mixed_scenario_pop_order_pinned() {
    let (trace, fp) = run_mixed_scenario(false);
    assert!(
        trace.len() > 2_000,
        "scenario too small to pin anything: {} events",
        trace.len()
    );
    assert_eq!(
        fp, GOLDEN_FINGERPRINT,
        "event order changed (fingerprint {fp:#018x})"
    );
}

/// Telemetry's zero-perturbation contract: a live hub recording every
/// default signal must reproduce the pinned fingerprint exactly —
/// probes observe the simulation, they never reschedule it.
#[test]
fn full_telemetry_recording_reproduces_the_pinned_fingerprint() {
    let (_, fp) = run_mixed_scenario(true);
    assert_eq!(
        fp, GOLDEN_FINGERPRINT,
        "telemetry recording perturbed event order (fingerprint {fp:#018x})"
    );
}
