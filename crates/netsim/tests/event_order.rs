//! Pop-order pins for the timer-wheel event queue.
//!
//! Two layers of protection for the `(time, seq)` ordering contract:
//!
//! * a **golden scenario test** that runs a mixed pacing/RTO/trace-link
//!   workload on both the wheel and the pre-wheel reference heap
//!   ([`Simulator::new_with_reference_queue`]) and requires the exact
//!   `(time, node, seq)` event sequences to match — plus a pinned
//!   fingerprint constant so *any* future reordering (even one that is
//!   wheel-vs-reference consistent) fails loudly;
//! * a **property test** driving the wheel and the reference heap through
//!   arbitrary push/cancel/pop interleavings.

use netsim::event::{EventHandle, EventKind, EventQueue};
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
use proptest::prelude::*;

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
fn run_mixed_scenario(
    mut sim: Simulator,
    full_telemetry: bool,
) -> (Vec<(SimTime, NodeId, u64)>, u64) {
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
    let (wheel_trace, wheel_fp) = run_mixed_scenario(Simulator::new(), false);
    let (ref_trace, ref_fp) = run_mixed_scenario(Simulator::new_with_reference_queue(), false);

    assert!(
        wheel_trace.len() > 2_000,
        "scenario too small to pin anything: {} events",
        wheel_trace.len()
    );
    assert_eq!(
        wheel_trace.len(),
        ref_trace.len(),
        "wheel and reference heap processed different event counts"
    );
    for (i, (a, b)) in wheel_trace.iter().zip(&ref_trace).enumerate() {
        assert_eq!(a, b, "event {i} diverged: wheel {a:?} vs reference {b:?}");
    }
    assert_eq!(wheel_fp, ref_fp);
    assert_eq!(
        wheel_fp, GOLDEN_FINGERPRINT,
        "event order changed (fingerprint {wheel_fp:#018x})"
    );
}

/// Telemetry's zero-perturbation contract: a live hub recording every
/// default signal must reproduce the pinned fingerprint exactly —
/// probes observe the simulation, they never reschedule it.
#[test]
fn full_telemetry_recording_reproduces_the_pinned_fingerprint() {
    let (_, fp) = run_mixed_scenario(Simulator::new(), true);
    assert_eq!(
        fp, GOLDEN_FINGERPRINT,
        "telemetry recording perturbed event order (fingerprint {fp:#018x})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary push/cancel/pop interleavings: the wheel must agree with
    /// the naive comparison heap event for event.
    #[test]
    fn wheel_matches_naive_heap_under_push_cancel_pop(
        ops in proptest::collection::vec((0u8..10, 0u64..20_000_000_000), 1..400),
    ) {
        let mut wheel = EventQueue::new();
        let mut naive = EventQueue::new_reference();
        let mut live: Vec<EventHandle> = Vec::new();
        let mut tok = 0u64;
        for &(op, arg) in &ops {
            match op {
                // 60%: push (near, mid, and far-future times)
                0..=5 => {
                    tok += 1;
                    let t = SimTime::from_nanos(arg);
                    let a = wheel.push(t, NodeId(0), EventKind::Timer(tok));
                    let b = naive.push(t, NodeId(0), EventKind::Timer(tok));
                    prop_assert_eq!(a, b, "handle assignment diverged");
                    live.push(a);
                }
                // 20%: cancel a pending event
                6..=7 => {
                    if !live.is_empty() {
                        let victim = live.swap_remove(arg as usize % live.len());
                        wheel.cancel(victim);
                        naive.cancel(victim);
                    }
                }
                // 20%: pop
                _ => {
                    let a = wheel.pop();
                    let b = naive.pop();
                    match (&a, &b) {
                        (Some(x), Some(y)) => {
                            prop_assert_eq!(x.time, y.time);
                            prop_assert_eq!(x.seq(), y.seq());
                            live.retain(|h| h.seq() != x.seq());
                        }
                        (None, None) => {}
                        _ => prop_assert!(false, "one queue drained early"),
                    }
                }
            }
            prop_assert_eq!(wheel.len(), naive.len());
        }
        // drain both fully
        loop {
            let (a, b) = (wheel.pop(), naive.pop());
            match (&a, &b) {
                (Some(x), Some(y)) => {
                    prop_assert_eq!(x.time, y.time);
                    prop_assert_eq!(x.seq(), y.seq());
                }
                (None, None) => break,
                _ => prop_assert!(false, "queues drained at different lengths"),
            }
        }
    }
}
