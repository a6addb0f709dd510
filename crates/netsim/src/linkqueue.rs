//! The link node: a [`Qdisc`] in front of a [`Transmitter`].
//!
//! Arriving packets are offered to the qdisc; whenever the link is free and
//! the queue non-empty, the node asks the transmitter when the head packet
//! completes, dequeues at that instant (so dequeue-time marking — ABC,
//! CoDel — happens at true departure time), and forwards the packet along
//! its route.

use crate::event::EventKind;
use crate::link::Transmitter;
use crate::metrics::Metrics;
use crate::node::{Context, Node};
use crate::queue::Qdisc;
use crate::time::{SimDuration, SimTime};

const TX_DONE: u64 = 1;

/// A link node: a queueing discipline feeding a transmitter (see the
/// module docs for the drive cycle).
pub struct LinkQueue {
    qdisc: Box<dyn Qdisc>,
    tx: Box<dyn Transmitter>,
    /// Tag under which this link reports metrics (e.g. `"bottleneck"`).
    tag: &'static str,
    metrics: Option<Metrics>,
    /// Set while a TX_DONE timer is outstanding.
    tx_scheduled: bool,
    /// Capacity oracle offset: ABC's PK variant feeds `µ(now + lookahead)`
    /// to the control law instead of `µ(now)` (§6.6).
    oracle_lookahead: SimDuration,
    /// Opportunity accounting starts here (set by `start`, adjusted by
    /// the epoch configured on the hub).
    started_at: SimTime,
    finished_at: SimTime,
}

impl LinkQueue {
    /// A link serving `qdisc` through `tx`, reporting no metrics.
    pub fn new(qdisc: Box<dyn Qdisc>, tx: Box<dyn Transmitter>) -> Self {
        LinkQueue {
            qdisc,
            tx,
            tag: "link",
            metrics: None,
            tx_scheduled: false,
            oracle_lookahead: SimDuration::ZERO,
            started_at: SimTime::ZERO,
            finished_at: SimTime::ZERO,
        }
    }

    /// Report per-link metrics to `metrics` under `tag`.
    pub fn with_metrics(mut self, tag: &'static str, metrics: Metrics) -> Self {
        self.tag = tag;
        self.metrics = Some(metrics);
        self
    }

    /// Enable the perfect-knowledge oracle: control laws see µ(t + d).
    pub fn with_oracle_lookahead(mut self, d: SimDuration) -> Self {
        self.oracle_lookahead = d;
        self
    }

    /// The qdisc at this link.
    pub fn qdisc(&self) -> &dyn Qdisc {
        &*self.qdisc
    }

    /// The transmitter (capacity model) behind the queue.
    pub fn transmitter(&self) -> &dyn Transmitter {
        &*self.tx
    }

    /// Report the total opportunity bits between the metrics epoch and the
    /// last observed time to the hub. Harnesses call this after the run by
    /// downcasting the node.
    pub fn finalize_opportunity(&self, end: SimTime) {
        if let Some(m) = &self.metrics {
            let epoch = m.borrow().epoch();
            let from = epoch.max(self.started_at);
            let bits = self.tx.opportunity_bits(from, end);
            m.borrow_mut().set_link_opportunity(self.tag, bits);
        }
    }

    fn feed_capacity(&mut self, now: SimTime) {
        let r = self.tx.rate_at(now + self.oracle_lookahead);
        self.qdisc.on_capacity(r, now);
    }

    fn schedule_next(&mut self, ctx: &mut Context) {
        if self.tx_scheduled {
            return;
        }
        if let Some(size) = self.qdisc.peek_size() {
            let done = self.tx.schedule_tx(ctx.now(), size);
            if done == SimTime::MAX {
                // Link stalled (zero-rate outage with no future opportunity).
                // Leave unscheduled; the next enqueue retries.
                return;
            }
            ctx.set_timer_at(done, TX_DONE);
            self.tx_scheduled = true;
        }
    }
}

impl Node for LinkQueue {
    crate::impl_node_downcast!();

    fn start(&mut self, ctx: &mut Context) {
        self.started_at = ctx.now();
    }

    fn handle(&mut self, ctx: &mut Context, event: EventKind) {
        let now = ctx.now();
        self.finished_at = now;
        match event {
            EventKind::Deliver(pkt) => {
                if let Some(m) = &self.metrics {
                    m.borrow_mut().on_link_offered(self.tag, now, pkt.size);
                }
                let accepted = self.qdisc.enqueue(pkt, now);
                if !accepted {
                    if let Some(m) = &self.metrics {
                        m.borrow_mut().on_link_drop(self.tag, now);
                    }
                }
                self.schedule_next(ctx);
            }
            EventKind::Timer(TX_DONE) => {
                self.tx_scheduled = false;
                self.feed_capacity(now);
                let before = self.qdisc.len_pkts();
                match self.qdisc.dequeue(now) {
                    Some(pkt) => {
                        // dequeue-time drops (AQM head drops) show up as a
                        // shrink larger than one
                        let dropped = before.saturating_sub(self.qdisc.len_pkts() + 1);
                        if let Some(m) = &self.metrics {
                            let mut m = m.borrow_mut();
                            for _ in 0..dropped {
                                m.on_link_drop(self.tag, now);
                            }
                            m.on_link_dequeue(self.tag, now, now.since(pkt.enqueued_at), pkt.size);
                        }
                        if ctx.telemetry_on() {
                            use crate::telemetry::{Scope, Signal};
                            let scope = Scope::Link(self.tag);
                            ctx.sample(
                                Signal::QdelayMs,
                                scope,
                                now.since(pkt.enqueued_at).as_millis_f64(),
                            );
                            ctx.sample(Signal::QdiscDepthPkts, scope, self.qdisc.len_pkts() as f64);
                            if let Some(cs) = self.qdisc.control_signals() {
                                ctx.sample(Signal::AbcToken, scope, cs.token);
                                ctx.sample(Signal::MarkFrac, scope, cs.mark_frac);
                                ctx.sample(Signal::TargetRateMbps, scope, cs.target_rate_mbps);
                            }
                        }
                        if pkt.next_hop().is_some() {
                            ctx.forward_boxed(pkt);
                        } else {
                            ctx.recycle(pkt);
                        }
                    }
                    None => {
                        // AQM dropped everything that was queued
                        let dropped = before.saturating_sub(self.qdisc.len_pkts());
                        if let Some(m) = &self.metrics {
                            let mut m = m.borrow_mut();
                            for _ in 0..dropped {
                                m.on_link_drop(self.tag, now);
                            }
                        }
                    }
                }
                self.schedule_next(ctx);
            }
            EventKind::Timer(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{ConstantRate, SerialLink, TraceLink};
    use crate::metrics::new_hub;
    use crate::packet::{Ecn, Feedback, FlowId, NodeId, Packet, Route};
    use crate::queue::DropTail;
    use crate::rate::Rate;
    use crate::sim::Simulator;
    use crate::time::SimDuration;

    /// Terminal node that remembers arrival times.
    struct Recorder {
        arrivals: Vec<(SimTime, u64)>,
    }

    impl Node for Recorder {
        crate::impl_node_downcast!();
        fn handle(&mut self, ctx: &mut Context, ev: EventKind) {
            if let EventKind::Deliver(p) = ev {
                self.arrivals.push((ctx.now(), p.seq));
            }
        }
    }

    /// Fires n packets into the link at t=0.
    struct Blaster {
        n: u64,
        route_to: (NodeId, NodeId), // (link, recorder)
    }

    impl Node for Blaster {
        crate::impl_node_downcast!();
        fn start(&mut self, ctx: &mut Context) {
            for seq in 0..self.n {
                let route = Route::new(vec![
                    (self.route_to.0, SimDuration::ZERO),
                    (self.route_to.1, SimDuration::from_millis(1)),
                ]);
                ctx.forward(Packet {
                    flow: FlowId(7),
                    seq,
                    size: 1500,
                    ecn: Ecn::NotEct,
                    feedback: Feedback::None,
                    abc_capable: false,
                    sent_at: ctx.now(),
                    retransmit: false,
                    ack: None,
                    route,
                    hop: 0,
                    enqueued_at: ctx.now(),
                });
            }
        }
        fn handle(&mut self, _: &mut Context, _: EventKind) {}
    }

    #[test]
    fn serial_link_drains_at_line_rate() {
        let mut sim = Simulator::new();
        let hub = new_hub();
        let link_id = sim.reserve_node();
        let rec_id = sim.reserve_node();
        sim.install_node(
            link_id,
            Box::new(
                LinkQueue::new(
                    Box::new(DropTail::new(250)),
                    Box::new(SerialLink::new(ConstantRate(Rate::from_mbps(12.0)))),
                )
                .with_metrics("l", hub.clone()),
            ),
        );
        sim.install_node(rec_id, Box::new(Recorder { arrivals: vec![] }));
        sim.add_node(Box::new(Blaster {
            n: 5,
            route_to: (link_id, rec_id),
        }));
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(1));

        let rec: &Recorder = sim
            .node(rec_id)
            .and_then(|n| n.as_any().downcast_ref())
            .unwrap();
        // 1500B @ 12 Mbit/s = 1 ms each, plus 1 ms propagation
        let expect: Vec<u64> = (1..=5).map(|i| i + 1).collect();
        let got: Vec<u64> = rec
            .arrivals
            .iter()
            .map(|(t, _)| t.as_nanos() / 1_000_000)
            .collect();
        assert_eq!(got, expect);
        // metrics saw all 5 dequeues
        assert_eq!(hub.borrow().links["l"].delivered_pkts, 5);
    }

    #[test]
    fn droptail_limits_burst() {
        let mut sim = Simulator::new();
        let hub = new_hub();
        let link_id = sim.reserve_node();
        let rec_id = sim.reserve_node();
        sim.install_node(
            link_id,
            Box::new(
                LinkQueue::new(
                    Box::new(DropTail::new(3)),
                    Box::new(SerialLink::new(ConstantRate(Rate::from_mbps(12.0)))),
                )
                .with_metrics("l", hub.clone()),
            ),
        );
        sim.install_node(rec_id, Box::new(Recorder { arrivals: vec![] }));
        sim.add_node(Box::new(Blaster {
            n: 10,
            route_to: (link_id, rec_id),
        }));
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(1));
        let rec: &Recorder = sim
            .node(rec_id)
            .and_then(|n| n.as_any().downcast_ref())
            .unwrap();
        // Burst of 10 into a 3-packet buffer: all arrive at t=0. The first
        // starts transmitting only at its completion event, so the queue
        // holds 3 and drops 7.
        assert_eq!(rec.arrivals.len(), 3);
        assert_eq!(hub.borrow().links["l"].dropped_pkts, 7);
    }

    #[test]
    fn trace_link_queue_delivers_on_opportunities() {
        let mut sim = Simulator::new();
        let hub = new_hub();
        let link_id = sim.reserve_node();
        let rec_id = sim.reserve_node();
        // opportunities every 10ms
        let opps = (0..100).map(|i| SimDuration::from_millis(i * 10)).collect();
        sim.install_node(
            link_id,
            Box::new(
                LinkQueue::new(
                    Box::new(DropTail::new(250)),
                    Box::new(TraceLink::new(opps, SimDuration::from_secs(1))),
                )
                .with_metrics("l", hub.clone()),
            ),
        );
        sim.install_node(rec_id, Box::new(Recorder { arrivals: vec![] }));
        sim.add_node(Box::new(Blaster {
            n: 3,
            route_to: (link_id, rec_id),
        }));
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(1));
        let rec: &Recorder = sim
            .node(rec_id)
            .and_then(|n| n.as_any().downcast_ref())
            .unwrap();
        // deliveries at opportunities 0,10,20ms + 1ms propagation
        let got: Vec<u64> = rec
            .arrivals
            .iter()
            .map(|(t, _)| t.as_nanos() / 1_000_000)
            .collect();
        assert_eq!(got, vec![1, 11, 21]);
    }

    #[test]
    fn finalize_opportunity_reports_capacity() {
        let hub = new_hub();
        let lq = LinkQueue::new(
            Box::new(DropTail::new(10)),
            Box::new(SerialLink::new(ConstantRate(Rate::from_mbps(8.0)))),
        )
        .with_metrics("l", hub.clone());
        lq.finalize_opportunity(SimTime::ZERO + SimDuration::from_secs(2));
        let bits = hub.borrow().links["l"].opportunity_bits;
        assert!((bits - 16e6).abs() < 1.0);
    }
}
