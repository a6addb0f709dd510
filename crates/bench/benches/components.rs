//! Microbenches of the hot paths: event loop, ABC marking, estimators,
//! and the coexistence data structures.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use netsim::packet::{Ecn, Feedback, FlowId, NodeId, Packet, Route};
use netsim::queue::Qdisc;
use netsim::rate::Rate;
use netsim::time::{SimDuration, SimTime};

fn pkt(seq: u64) -> Box<Packet> {
    Box::new(Packet {
        flow: FlowId(seq as u32 % 16),
        seq,
        size: 1500,
        ecn: Ecn::Accelerate,
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

fn bench_components(c: &mut Criterion) {
    let mut g = c.benchmark_group("components");

    g.bench_function("event_queue_push_pop_10k", |b| {
        b.iter(|| {
            let mut q = netsim::event::EventQueue::new();
            for i in 0..10_000u64 {
                q.push(
                    SimTime::from_nanos((i * 7919) % 1_000_000),
                    NodeId(0),
                    netsim::event::EventKind::Timer(i),
                );
            }
            let mut n = 0;
            while q.pop().is_some() {
                n += 1;
            }
            black_box(n)
        })
    });

    // The sparse regime of a single-flow cellular run, which the bulk
    // kernel above cannot see: three live events rescheduled 1–2 ms
    // (15–30 wheel slots) past their own firing time, plus one far timer
    // — an RTO — cancelled and re-armed 200 ms out every 64 pops. 100 k
    // pops, so the cost is the cursor's walk between events.
    g.bench_function("event_queue_sparse_gap", |b| {
        use netsim::event::{EventKind, EventQueue};
        b.iter(|| {
            let mut q = EventQueue::new();
            let far_ns = 200_000_000;
            let mut far = q.push(SimTime::from_nanos(far_ns), NodeId(1), EventKind::Timer(0));
            for i in 1..=3u64 {
                q.push(
                    SimTime::from_nanos(i * 400_000),
                    NodeId(0),
                    EventKind::Timer(i),
                );
            }
            for pops in 1..=100_000u64 {
                let now = q.pop().expect("three events are always live").time;
                let gap = 1_000_000 + (pops * 7919) % 1_000_000;
                q.push(
                    now + SimDuration::from_nanos(gap),
                    NodeId(0),
                    EventKind::Timer(pops),
                );
                if pops % 64 == 0 {
                    q.cancel(far);
                    far = q.push(
                        now + SimDuration::from_nanos(far_ns),
                        NodeId(1),
                        EventKind::Timer(0),
                    );
                }
            }
            black_box(q.len())
        })
    });

    g.bench_function("abc_router_mark_10k", |b| {
        let cfg = abc_core::router::AbcRouterConfig::default();
        b.iter(|| {
            let mut q = abc_core::router::AbcQdisc::new(cfg);
            q.on_capacity(Rate::from_mbps(12.0), SimTime::ZERO);
            let mut accels = 0u32;
            for i in 0..10_000u64 {
                let t = SimTime::ZERO + SimDuration::from_micros(i * 100);
                q.enqueue(pkt(i), t);
                if let Some(p) = q.dequeue(t) {
                    if p.ecn == Ecn::Accelerate {
                        accels += 1;
                    }
                }
            }
            black_box(accels)
        })
    });

    g.bench_function("cubic_window_10k_acks", |b| {
        b.iter(|| {
            let mut w = baselines::CubicWindow::new(10.0);
            let rtt = SimDuration::from_millis(100);
            for i in 0..10_000u64 {
                let t = SimTime::ZERO + SimDuration::from_micros(i * 200);
                w.on_ack(t, rtt);
                if i % 2_000 == 1_999 {
                    w.on_congestion(t, rtt);
                }
            }
            black_box(w.cwnd())
        })
    });

    g.bench_function("space_saving_100k_records", |b| {
        b.iter(|| {
            let mut s = abc_core::SpaceSaving::new(10);
            for i in 0..100_000u32 {
                s.record(FlowId(i % 1000), 1500);
            }
            black_box(s.top().len())
        })
    });

    g.bench_function("max_min_allocate_100_demands", |b| {
        let demands: Vec<abc_core::Demand> = (0..100)
            .map(|i| abc_core::Demand {
                tag: i % 2,
                demand: (i as f64 + 1.0) * 1e5,
            })
            .collect();
        b.iter(|| black_box(abc_core::max_min_allocate(&demands, 5e6)))
    });

    g.bench_function("wifi_estimator_1k_batches", |b| {
        b.iter(|| {
            let mut e = wifi_mac::WifiRateEstimator::new(wifi_mac::EstimatorConfig::default());
            for i in 0..1_000u64 {
                e.on_batch(wifi_mac::BatchSample {
                    when: SimTime::ZERO + SimDuration::from_micros(i * 2_000),
                    batch: (i % 20 + 1) as u32,
                    frame_bytes: 1500,
                    phy_rate: Rate::from_mbps(13.0),
                    inter_ack: SimDuration::from_micros(1_500 + (i % 20 + 1) * 923),
                });
            }
            black_box(e.estimate(SimTime::ZERO + SimDuration::from_secs(2)).bps())
        })
    });

    g.bench_function("trace_synthesis_120s", |b| {
        b.iter(|| {
            let spec = &cellular::builtin_specs()[0];
            black_box(spec.generate().opportunities.len())
        })
    });

    g.bench_function("end_to_end_abc_1s_sim", |b| {
        b.iter(|| {
            let mut sc = experiments::CellScenario::new(
                experiments::Scheme::Abc,
                experiments::LinkSpec::Constant(Rate::from_mbps(48.0)),
            );
            sc.duration = SimDuration::from_secs(1);
            sc.warmup = SimDuration::ZERO;
            black_box(sc.run().utilization)
        })
    });

    g.finish();
}

criterion_group!(benches, bench_components);
criterion_main!(benches);
