//! Per-user cellular scheduling (§4.2).
//!
//! Cellular base stations schedule users from separate queues for
//! inter-user fairness; each user sees its own capacity and queuing delay,
//! so an ABC deployment computes a *per-user* target rate. This node
//! models that: one qdisc per user, a shared trace of delivery
//! opportunities handed out round-robin among backlogged users, and a
//! per-user capacity feed of `µ_total / active_users` — the quantity the
//! 3GPP scheduling interface exposes (the paper cites TS 132.450, which
//! defines per-user scheduled-throughput measurement over scheduled TTIs
//! only, i.e. it is accurate even for non-backlogged users).

use crate::trace::CellTrace;
use netsim::event::EventKind;
use netsim::link::{next_opportunity, TraceCursor};
use netsim::metrics::Metrics;
use netsim::node::{Context, Node};
use netsim::packet::FlowId;
use netsim::queue::Qdisc;
use netsim::rate::Rate;
use netsim::time::{SimDuration, SimTime};
use std::collections::HashMap;

const TOK_OPP: u64 = 1;

/// A base-station downlink with per-user queues over one shared trace.
pub struct PerUserLink {
    trace: CellTrace,
    /// Where in the trace the opportunity timer chain is.
    opp_cursor: TraceCursor,
    /// One qdisc per registered user, in registration order.
    queues: Vec<Box<dyn Qdisc>>,
    user_of_flow: HashMap<FlowId, usize>,
    /// Round-robin cursor over users.
    cursor: usize,
    /// An opportunity timer is armed for this instant.
    armed_for: Option<SimTime>,
    /// Timer generation; stale TOK_OPP firings are ignored so duplicate
    /// chains cannot arise (a packet arriving at the exact opportunity
    /// instant used to arm a second chain, which then doubled).
    timer_gen: u64,
    /// Activity window for counting active users (µ share estimation).
    activity: Vec<SimTime>,
    activity_window: SimDuration,
    tag: &'static str,
    metrics: Option<Metrics>,
    started_at: SimTime,
    pub delivered_pkts: u64,
}

impl PerUserLink {
    pub fn new(trace: CellTrace) -> Self {
        PerUserLink {
            trace,
            opp_cursor: TraceCursor::default(),
            queues: Vec::new(),
            user_of_flow: HashMap::new(),
            cursor: 0,
            armed_for: None,
            timer_gen: 0,
            activity: Vec::new(),
            activity_window: SimDuration::from_millis(500),
            tag: "cell",
            metrics: None,
            started_at: SimTime::ZERO,
            delivered_pkts: 0,
        }
    }

    pub fn with_metrics(mut self, tag: &'static str, metrics: Metrics) -> Self {
        self.tag = tag;
        self.metrics = Some(metrics);
        self
    }

    /// Register a user with its own queueing discipline (e.g. a per-user
    /// ABC router); all of the user's flows share that queue.
    pub fn add_user(&mut self, flows: &[FlowId], qdisc: Box<dyn Qdisc>) -> usize {
        let idx = self.queues.len();
        self.queues.push(qdisc);
        self.activity.push(SimTime::ZERO);
        for f in flows {
            self.user_of_flow.insert(*f, idx);
        }
        idx
    }

    pub fn user_queue(&self, idx: usize) -> &dyn Qdisc {
        &*self.queues[idx]
    }

    /// Users that were backlogged recently (drives the per-user µ share).
    fn active_users(&self, now: SimTime) -> usize {
        let cutoff = now.saturating_sub(self.activity_window);
        self.activity
            .iter()
            .filter(|&&t| t >= cutoff)
            .count()
            .max(1)
    }

    /// Per-user capacity estimate: the whole link when alone, the fair
    /// share when contended.
    fn user_mu(&self, now: SimTime) -> Rate {
        let total = self.trace.rate_in_window(
            now.saturating_sub(SimDuration::from_millis(40)),
            SimDuration::from_millis(40),
        );
        total / self.active_users(now) as f64
    }

    fn arm(&mut self, ctx: &mut Context) {
        if self.armed_for.is_some() {
            return; // a live timer chain exists; it re-arms itself
        }
        if self.queues.iter().all(|q| q.is_empty()) {
            return; // idle: future opportunities are wasted, per Mahimahi
        }
        let at = next_opportunity(
            &self.trace.opportunities,
            self.trace.period,
            ctx.now() + SimDuration::from_nanos(1),
            &self.opp_cursor,
        );
        self.armed_for = Some(at);
        self.timer_gen += 1;
        ctx.set_timer_at(at, TOK_OPP | (self.timer_gen << 8));
    }

    fn serve_opportunity(&mut self, ctx: &mut Context) {
        let now = ctx.now();
        self.armed_for = None;
        // round-robin to the next backlogged user
        let n = self.queues.len();
        let mu = self.user_mu(now);
        for step in 0..n {
            let u = (self.cursor + step) % n;
            if self.queues[u].is_empty() {
                continue;
            }
            self.cursor = (u + 1) % n;
            self.queues[u].on_capacity(mu, now);
            // one opportunity delivers up to one MTU of this user's queue
            let mut budget = netsim::packet::MTU_BYTES as i64;
            while budget > 0 {
                match self.queues[u].peek_size() {
                    Some(sz) if (sz as i64) <= budget => {
                        let Some(pkt) = self.queues[u].dequeue(now) else {
                            break;
                        };
                        budget -= pkt.size as i64;
                        self.delivered_pkts += 1;
                        if let Some(m) = &self.metrics {
                            m.borrow_mut().on_link_dequeue(
                                self.tag,
                                now,
                                now.since(pkt.enqueued_at),
                                pkt.size,
                            );
                        }
                        if pkt.next_hop().is_some() {
                            ctx.forward_boxed(pkt);
                        } else {
                            ctx.recycle(pkt);
                        }
                    }
                    _ => break,
                }
            }
            break;
        }
        self.arm(ctx);
    }

    /// Total opportunity bits over `[a, b]` (utilization denominator).
    pub fn opportunity_bits(&self, a: SimTime, b: SimTime) -> f64 {
        self.trace.opportunities_between(a, b) as f64 * netsim::packet::MTU_BYTES as f64 * 8.0
    }

    pub fn finalize_opportunity(&self, end: SimTime) {
        if let Some(m) = &self.metrics {
            let epoch = m.borrow().epoch();
            let bits = self.opportunity_bits(epoch.max(self.started_at), end);
            m.borrow_mut().set_link_opportunity(self.tag, bits);
        }
    }
}

impl Node for PerUserLink {
    netsim::impl_node_downcast!();

    fn start(&mut self, ctx: &mut Context) {
        self.started_at = ctx.now();
    }

    fn handle(&mut self, ctx: &mut Context, event: EventKind) {
        match event {
            EventKind::Deliver(pkt) => {
                let now = ctx.now();
                let Some(&u) = self.user_of_flow.get(&pkt.flow) else {
                    debug_assert!(false, "flow {:?} not registered", pkt.flow);
                    return;
                };
                self.activity[u] = now;
                let ok = self.queues[u].enqueue(pkt, now);
                if !ok {
                    if let Some(m) = &self.metrics {
                        m.borrow_mut().on_link_drop(self.tag, now);
                    }
                }
                self.arm(ctx);
            }
            EventKind::Timer(tok) if tok & 0xff == TOK_OPP => {
                if tok >> 8 == self.timer_gen {
                    self.serve_opportunity(ctx);
                }
            }
            EventKind::Timer(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::packet::{Ecn, Feedback, NodeId, Packet, Route};
    use netsim::queue::DropTail;
    use netsim::sim::Simulator;

    fn uniform_trace(pps: u64, secs: u64) -> CellTrace {
        let gap_ns = 1_000_000_000 / pps;
        CellTrace {
            name: "uniform".into(),
            opportunities: (0..pps * secs)
                .map(|i| SimDuration::from_nanos(i * gap_ns))
                .collect(),
            period: SimDuration::from_secs(secs),
        }
    }

    struct Recorder {
        per_flow: HashMap<FlowId, u64>,
    }

    impl Node for Recorder {
        netsim::impl_node_downcast!();
        fn handle(&mut self, _ctx: &mut Context, ev: EventKind) {
            if let EventKind::Deliver(p) = ev {
                *self.per_flow.entry(p.flow).or_insert(0) += 1;
            }
        }
    }

    struct Blaster {
        flow: FlowId,
        rate_pps: u64,
        link: NodeId,
        sink: NodeId,
        sent: u64,
        limit: u64,
    }

    impl Node for Blaster {
        netsim::impl_node_downcast!();
        fn start(&mut self, ctx: &mut Context) {
            ctx.set_timer(SimDuration::ZERO, 0);
        }
        fn handle(&mut self, ctx: &mut Context, _ev: EventKind) {
            if self.sent >= self.limit {
                return;
            }
            let route = Route::new(vec![
                (self.link, SimDuration::ZERO),
                (self.sink, SimDuration::from_millis(1)),
            ]);
            ctx.forward(Packet {
                flow: self.flow,
                seq: self.sent,
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
            self.sent += 1;
            ctx.set_timer(SimDuration::from_nanos(1_000_000_000 / self.rate_pps), 0);
        }
    }

    #[test]
    fn two_backlogged_users_share_equally() {
        let mut sim = Simulator::new();
        let link_id = sim.reserve_node();
        let rec_id = sim.reserve_node();
        let mut link = PerUserLink::new(uniform_trace(1000, 10)); // 12 Mbit/s
        link.add_user(&[FlowId(1)], Box::new(DropTail::new(500)));
        link.add_user(&[FlowId(2)], Box::new(DropTail::new(500)));
        sim.install_node(link_id, Box::new(link));
        sim.install_node(
            rec_id,
            Box::new(Recorder {
                per_flow: HashMap::new(),
            }),
        );
        // both offer 2× their fair share
        for f in [1u32, 2] {
            sim.add_node(Box::new(Blaster {
                flow: FlowId(f),
                rate_pps: 1000,
                link: link_id,
                sink: rec_id,
                sent: 0,
                limit: 100_000,
            }));
        }
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(10));
        let rec: &Recorder = sim
            .node(rec_id)
            .and_then(|n| n.as_any().downcast_ref())
            .unwrap();
        let a = rec.per_flow[&FlowId(1)] as f64;
        let b = rec.per_flow[&FlowId(2)] as f64;
        assert!((a - b).abs() / a.max(b) < 0.02, "unfair: {a} vs {b}");
        // the link should be fully used: ~1000 pps for 10 s total
        assert!(a + b > 9_500.0, "underused: {}", a + b);
    }

    #[test]
    fn lone_user_gets_whole_link() {
        let mut sim = Simulator::new();
        let link_id = sim.reserve_node();
        let rec_id = sim.reserve_node();
        let mut link = PerUserLink::new(uniform_trace(1000, 10));
        link.add_user(&[FlowId(1)], Box::new(DropTail::new(500)));
        link.add_user(&[FlowId(2)], Box::new(DropTail::new(500)));
        sim.install_node(link_id, Box::new(link));
        sim.install_node(
            rec_id,
            Box::new(Recorder {
                per_flow: HashMap::new(),
            }),
        );
        sim.add_node(Box::new(Blaster {
            flow: FlowId(1),
            rate_pps: 2000,
            link: link_id,
            sink: rec_id,
            sent: 0,
            limit: 100_000,
        }));
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(10));
        let rec: &Recorder = sim
            .node(rec_id)
            .and_then(|n| n.as_any().downcast_ref())
            .unwrap();
        assert!(
            rec.per_flow[&FlowId(1)] > 9_500,
            "lone user throttled: {}",
            rec.per_flow[&FlowId(1)]
        );
    }

    #[test]
    fn idle_opportunities_are_wasted() {
        let mut sim = Simulator::new();
        let link_id = sim.reserve_node();
        let rec_id = sim.reserve_node();
        let mut link = PerUserLink::new(uniform_trace(1000, 10));
        link.add_user(&[FlowId(1)], Box::new(DropTail::new(500)));
        sim.install_node(link_id, Box::new(link));
        sim.install_node(
            rec_id,
            Box::new(Recorder {
                per_flow: HashMap::new(),
            }),
        );
        // offer only 100 pps on a 1000-opportunity/s link
        sim.add_node(Box::new(Blaster {
            flow: FlowId(1),
            rate_pps: 100,
            link: link_id,
            sink: rec_id,
            sent: 0,
            limit: 100_000,
        }));
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(10));
        let rec: &Recorder = sim
            .node(rec_id)
            .and_then(|n| n.as_any().downcast_ref())
            .unwrap();
        let got = rec.per_flow[&FlowId(1)];
        assert!((got as i64 - 1000).abs() < 50, "delivered {got}");
    }
}
