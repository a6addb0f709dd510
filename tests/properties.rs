//! Cross-crate property-based tests: invariants of the substrate and the
//! ABC mechanisms under arbitrary inputs.

use abc_repro::abc_core::router::{AbcQdisc, AbcRouterConfig, MarkingMode};
use abc_repro::abc_core::sender::AbcSender;
use abc_repro::abc_core::SpaceSaving;
use abc_repro::netsim::flow::{AckEvent, CongestionControl};
use abc_repro::netsim::link::{TraceLink, Transmitter};
use abc_repro::netsim::packet::{Ecn, Feedback, FlowId, NodeId, Packet, Route};
use abc_repro::netsim::queue::Qdisc;
use abc_repro::netsim::rate::Rate;
use abc_repro::netsim::stats::{percentile, WindowedRate};
use abc_repro::netsim::time::{SimDuration, SimTime};
use proptest::prelude::*;

fn pkt(seq: u64, ecn: Ecn) -> Box<Packet> {
    Box::new(Packet {
        flow: FlowId(0),
        seq,
        size: 1500,
        ecn,
        feedback: Feedback::None,
        abc_capable: true,
        sent_at: SimTime::ZERO,
        retransmit: false,
        ack: None,
        route: Route::new(vec![(NodeId(0), SimDuration::ZERO)]),
        hop: 0,
        enqueued_at: SimTime::ZERO,
    })
}

proptest! {
    /// Trace links: completion times are monotone for monotone requests,
    /// never precede the request, and land on opportunity instants.
    #[test]
    fn trace_link_completions_are_monotone(
        gaps in proptest::collection::vec(0u64..5_000_000, 1..200),
        sizes in proptest::collection::vec(40u32..3000, 1..200),
    ) {
        let opps: Vec<SimDuration> =
            (0..1000).map(SimDuration::from_millis).collect();
        let mut link = TraceLink::new(opps.into(), SimDuration::from_secs(1));
        let mut now = SimTime::ZERO;
        let mut last_done = SimTime::ZERO;
        for (g, s) in gaps.iter().zip(sizes.iter().cycle()) {
            // next request happens after the previous completion or later
            now = last_done.max(now + SimDuration::from_nanos(*g));
            let done = link.schedule_tx(now, *s);
            prop_assert!(done >= now, "completion before request");
            prop_assert!(done >= last_done, "completions went backwards");
            last_done = done;
        }
    }

    /// The ABC sender's window never collapses below 1 packet and never
    /// exceeds the 2×-in-flight cap, whatever feedback arrives.
    #[test]
    fn abc_sender_window_bounds(
        feedback in proptest::collection::vec(0u8..4, 1..500),
        inflight in proptest::collection::vec(0usize..500, 1..500),
    ) {
        let mut s = AbcSender::new();
        for (f, infl) in feedback.iter().zip(inflight.iter().cycle()) {
            let ecn = match f {
                0 => Ecn::Accelerate,
                1 => Ecn::Brake,
                2 => Ecn::Ce,
                _ => Ecn::NotEct,
            };
            s.on_ack(&AckEvent {
                now: SimTime::ZERO + SimDuration::from_secs(1),
                rtt: Some(SimDuration::from_millis(100)),
                min_rtt: SimDuration::from_millis(100),
                srtt: SimDuration::from_millis(100),
                acked_bytes: 1500,
                ecn_echo: ecn,
                feedback: Feedback::None,
                inflight_pkts: *infl,
                delivery_rate: Rate::ZERO,
                one_way_delay: SimDuration::from_millis(50),
            });
            prop_assert!(s.cwnd_pkts() >= 1.0, "window collapsed: {}", s.cwnd_pkts());
            let cap = (2.0 * (*infl + 1).max(2) as f64).max(4.0);
            prop_assert!(
                s.w_abc() <= cap + 1e-9,
                "w_abc {} above cap {cap}",
                s.w_abc()
            );
        }
    }

    /// Algorithm 1's token bucket: the token never leaves [0, tokenLimit],
    /// and the router never promotes a brake back to accelerate.
    #[test]
    fn abc_router_token_and_demotion_invariants(
        ecns in proptest::collection::vec(0u8..3, 1..2000),
        mu_mbps in 0.1f64..50.0,
    ) {
        let cfg = AbcRouterConfig::default();
        let mut q = AbcQdisc::new(cfg);
        q.on_capacity(Rate::from_mbps(mu_mbps), SimTime::ZERO);
        for (i, e) in ecns.iter().enumerate() {
            let t = SimTime::ZERO + SimDuration::from_millis(i as u64);
            let ecn_in = match e {
                0 => Ecn::Accelerate,
                1 => Ecn::Brake,
                _ => Ecn::NotEct,
            };
            q.enqueue(pkt(i as u64, ecn_in), t);
            let out = q.dequeue(t).unwrap();
            prop_assert!(q.token() >= 0.0 && q.token() <= cfg.token_limit + 1e-9,
                "token {} out of range", q.token());
            match ecn_in {
                Ecn::Accelerate => prop_assert!(
                    matches!(out.ecn, Ecn::Accelerate | Ecn::Brake),
                    "accel may only stay or demote"
                ),
                other => prop_assert_eq!(out.ecn, other, "non-accel must pass unchanged"),
            }
        }
    }

    /// Over any long window, the accelerate share stays within the range
    /// the marking fraction allows plus the token-bucket slack.
    #[test]
    fn accel_share_bounded_by_marking_fraction(seed in 0u64..1000) {
        let cfg = AbcRouterConfig {
            marking: MarkingMode::Deterministic,
            seed,
            ..Default::default()
        };
        let mut q = AbcQdisc::new(cfg);
        q.on_capacity(Rate::from_mbps(12.0), SimTime::ZERO);
        let n = 2_000u64;
        let mut accel = 0u64;
        for i in 0..n {
            let t = SimTime::ZERO + SimDuration::from_millis(i);
            q.enqueue(pkt(i, Ecn::Accelerate), t);
            if q.dequeue(t).unwrap().ecn == Ecn::Accelerate {
                accel += 1;
            }
        }
        // steady state f = 0.5·η = 0.49; allow warm-up & bucket slack
        let share = accel as f64 / n as f64;
        prop_assert!(share < 0.49 + 0.05, "share {share}");
    }

    /// Percentile is monotone in p and bounded by min/max.
    #[test]
    fn percentile_monotone(mut v in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut last = f64::NEG_INFINITY;
        for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 100.0] {
            let x = percentile(&v, p);
            prop_assert!(x >= last - 1e-9);
            prop_assert!(x >= v[0] - 1e-9 && x <= v[v.len() - 1] + 1e-9);
            last = x;
        }
    }

    /// The windowed-rate estimator never reports more bytes than were
    /// recorded, and expires everything once the window passes.
    #[test]
    fn windowed_rate_conservation(
        events in proptest::collection::vec((0u64..1_000_000u64, 1u64..10_000), 1..100)
    ) {
        let mut sorted = events.clone();
        sorted.sort();
        let mut wr = WindowedRate::new(SimDuration::from_millis(100));
        let mut total = 0u64;
        let mut last = SimTime::ZERO;
        for (t_us, bytes) in sorted {
            let t = SimTime::ZERO + SimDuration::from_micros(t_us);
            wr.record(t, bytes);
            total += bytes;
            last = t;
        }
        prop_assert!(wr.bytes_in_window(last) <= total);
        let far = last + SimDuration::from_secs(10);
        prop_assert_eq!(wr.bytes_in_window(far), 0);
    }

    /// Space-Saving's guaranteed counts never exceed true counts, and true
    /// heavy hitters are always present.
    #[test]
    fn space_saving_guarantees(stream in proptest::collection::vec(0u32..50, 100..2000)) {
        let mut ss = SpaceSaving::new(8);
        let mut truth = std::collections::HashMap::new();
        for &f in &stream {
            ss.record(FlowId(f), 1);
            *truth.entry(f).or_insert(0u64) += 1;
        }
        for e in ss.top() {
            let true_count = truth.get(&e.flow.0).copied().unwrap_or(0);
            prop_assert!(
                e.count - e.error <= true_count,
                "guaranteed count exceeds truth for {:?}",
                e.flow
            );
            prop_assert!(e.count >= true_count, "sketch must overestimate");
        }
        // any flow with count > N/(k+1) is guaranteed monitored
        let n = stream.len() as u64;
        let threshold = n / 9;
        for (&f, &c) in &truth {
            if c > threshold {
                prop_assert!(
                    ss.top().iter().any(|e| e.flow == FlowId(f)),
                    "heavy hitter {f} missing (count {c} > {threshold})"
                );
            }
        }
    }

    /// ECN bits survive an arbitrary chain of ABC routers with only
    /// accel→brake demotions (the multi-bottleneck rule).
    #[test]
    fn multi_router_chain_only_demotes(
        mus in proptest::collection::vec(0.1f64..30.0, 1..6),
    ) {
        let mut routers: Vec<AbcQdisc> = mus
            .iter()
            .map(|&m| {
                let mut q = AbcQdisc::new(AbcRouterConfig::default());
                q.on_capacity(Rate::from_mbps(m), SimTime::ZERO);
                q
            })
            .collect();
        for i in 0..500u64 {
            let t = SimTime::ZERO + SimDuration::from_millis(i);
            let mut p = pkt(i, Ecn::Accelerate);
            let mut seen_brake = false;
            for r in routers.iter_mut() {
                r.enqueue(p.clone(), t);
                p = r.dequeue(t).unwrap();
                if seen_brake {
                    prop_assert_eq!(p.ecn, Ecn::Brake, "brake must stick");
                }
                seen_brake = p.ecn == Ecn::Brake;
            }
        }
    }
}
