//! ABC design ablations: Fig. 2 (dequeue vs enqueue feedback), Fig. 3
//! (additive increase and fairness), §6.6 PK-ABC, §6.5 Jain sweep, and the
//! deterministic-vs-probabilistic marking comparison (Algorithm 1).

use super::{run, run_with_sidecars};
use crate::presets;
use crate::runner::RunRecord;
use crate::sidecar::Sidecar;
use experiments::figures::Scale;
use experiments::sparkline;
use netsim::rate::Rate;
use netsim::time::{SimDuration, SimTime};
use std::fmt::Write;

/// Fig. 2: computing f(t) from the enqueue rate roughly doubles the 95th
/// percentile queuing delay relative to ABC's dequeue-rate rule.
pub fn fig2(scale: Scale) -> String {
    render_fig2(&run(&presets::fig2(scale)))
}

/// Render Fig. 2 from `fig2` records (axis `feedback`: dequeue, enqueue).
pub fn render_fig2(records: &[RunRecord]) -> String {
    let mut out = String::new();
    writeln!(out, "# Fig 2 — feedback basis (dequeue vs enqueue rate)").unwrap();
    let mut p95s = Vec::new();
    for rec in records {
        let r = &rec.report;
        writeln!(
            out,
            "{:<16} util {:>5.1}%  qdelay p50/p95 {:>6.0}/{:>6.0} ms",
            rec.coords.get("feedback").unwrap_or("?"),
            r.utilization * 100.0,
            r.qdelay_ms.p50,
            r.qdelay_ms.p95
        )
        .unwrap();
        p95s.push(r.qdelay_ms.p95);
    }
    writeln!(
        out,
        "enqueue/dequeue 95p queuing-delay ratio: {:.2}x (paper: ~2x)",
        p95s[1] / p95s[0].max(1e-9)
    )
    .unwrap();
    out
}

/// Fig. 3: five staggered ABC flows on a 24 Mbit/s link, with and without
/// the additive-increase term of Eq. 3.
pub fn fig3(scale: Scale) -> String {
    let campaign = presets::fig3(scale);
    let (records, sidecars) = run_with_sidecars(&campaign);
    render_fig3(&records, &sidecars, campaign.base.duration.as_secs_f64())
}

/// Render Fig. 3 from `fig3` records (axis `panel`) and their sidecars'
/// per-flow `goodput_mbps` rows. `secs` is the run length: the Jain index
/// is taken over its middle tenth, while all five flows are active.
pub fn render_fig3(records: &[RunRecord], sidecars: &[Sidecar], secs: f64) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "# Fig 3 — fairness among five staggered ABC flows (24 Mbit/s)"
    )
    .unwrap();
    for (rec, sidecar) in records.iter().zip(sidecars) {
        writeln!(out, "\n## Fig 3{}", rec.coords.get("panel").unwrap_or("?")).unwrap();
        let goodput = |i: u32| sidecar.series("goodput_mbps", &format!("flow:{i}"));
        for i in 1..=5u32 {
            writeln!(out, "flow {i}: {}", sparkline(goodput(i), 60)).unwrap();
        }
        let (mid_lo, mid_hi) = (secs * 0.45, secs * 0.55);
        let tputs: Vec<f64> = (1..=5u32)
            .map(|i| {
                let pts: Vec<f64> = goodput(i)
                    .iter()
                    .filter(|(t, _)| *t >= mid_lo && *t < mid_hi)
                    .map(|(_, v)| *v)
                    .collect();
                pts.iter().sum::<f64>() / pts.len().max(1) as f64
            })
            .collect();
        let jain = netsim::stats::jain_index(&tputs);
        writeln!(
            out,
            "all-active Jain index {jain:.3}   per-flow Mbit/s {:?}",
            tputs
                .iter()
                .map(|x| (x * 10.0).round() / 10.0)
                .collect::<Vec<_>>()
        )
        .unwrap();
    }
    out
}

/// §6.6: PK-ABC — the router control law sees µ(t + RTT) from the trace
/// oracle instead of µ(t).
pub fn pk_abc(scale: Scale) -> String {
    render_pk_abc(&run(&presets::pk_abc(scale)))
}

/// Render §6.6 from `pk_abc` records (axis `oracle`).
pub fn render_pk_abc(records: &[RunRecord]) -> String {
    let mut out = String::new();
    writeln!(out, "# PK-ABC — perfect future capacity knowledge (§6.6)").unwrap();
    for rec in records {
        writeln!(
            out,
            "{:<8} util {:>5.1}%  qdelay p95 {:>6.1} ms",
            rec.coords.get("oracle").unwrap_or("?"),
            rec.report.utilization * 100.0,
            rec.report.qdelay_ms.p95
        )
        .unwrap();
    }
    out
}

/// §6.5: Jain fairness index for 2..32 competing ABC flows on a 24 Mbit/s
/// wired link (paper: within 5% of 1 in every case).
pub fn jain(scale: Scale) -> String {
    render_jain(&run(&presets::jain(scale)))
}

/// Render §6.5 from `jain` records (axis `flows`).
pub fn render_jain(records: &[RunRecord]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "# §6.5 — Jain index across competing ABC flows (24 Mbit/s, 60 s)"
    )
    .unwrap();
    for rec in records {
        let n = rec.coords.get("flows").unwrap_or("?");
        writeln!(out, "{n:>3} flows: Jain {:.4}", rec.report.jain).unwrap();
    }
    out
}

/// Algorithm 1 ablation: deterministic token bucket vs probabilistic
/// marking. The deterministic marker spaces accelerates evenly, which
/// shows up as a lower coefficient of variation of the inter-accelerate
/// gap and (slightly) calmer queues. It drives one qdisc in isolation, so
/// there is no scenario to store.
pub fn marking(scale: Scale) -> String {
    use abc_core::router::{AbcQdisc, AbcRouterConfig, MarkingMode};
    use netsim::packet::{Ecn, FlowId, NodeId, Packet, Route};
    use netsim::queue::Qdisc;

    let n = scale.pick(50_000u64, 5_000, 1_000);
    let mut out = String::new();
    writeln!(
        out,
        "# Algorithm 1 ablation — deterministic vs probabilistic marking"
    )
    .unwrap();
    for (name, mode) in [
        ("deterministic", MarkingMode::Deterministic),
        ("probabilistic", MarkingMode::Probabilistic),
    ] {
        let mut q = AbcQdisc::new(AbcRouterConfig {
            marking: mode,
            ..Default::default()
        });
        q.on_capacity(Rate::from_mbps(12.0), SimTime::ZERO);
        let mut gaps = Vec::new();
        let mut last_accel: Option<u64> = None;
        for seq in 0..n {
            let t = SimTime::ZERO + SimDuration::from_millis(seq);
            let pkt = Packet {
                flow: FlowId(0),
                seq,
                size: 1500,
                ecn: Ecn::Accelerate,
                feedback: netsim::packet::Feedback::None,
                abc_capable: true,
                sent_at: t,
                retransmit: false,
                ack: None,
                route: Route::new(vec![(NodeId(0), SimDuration::ZERO)]),
                hop: 0,
                enqueued_at: t,
            };
            q.enqueue(Box::new(pkt), t);
            let outp = q.dequeue(t).unwrap();
            if outp.ecn == Ecn::Accelerate {
                if let Some(prev) = last_accel {
                    gaps.push((seq - prev) as f64);
                }
                last_accel = Some(seq);
            }
        }
        let s = netsim::stats::summarize_in_place(&mut gaps);
        writeln!(
            out,
            "{:<14} accel fraction {:>5.3}  inter-accel gap mean {:>4.2} pkts, cv {:>4.2}",
            name,
            1.0 / s.mean,
            s.mean,
            s.std_dev / s.mean
        )
        .unwrap();
    }
    writeln!(
        out,
        "(lower cv = smoother accel spacing = less bursty senders)"
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_enqueue_worsens_tail_delay() {
        let f = fig2(Scale::Fast);
        let ratio: f64 = f
            .lines()
            .find(|l| l.contains("ratio"))
            .and_then(|l| l.split("ratio:").nth(1))
            .and_then(|x| x.trim().split('x').next())
            .and_then(|x| x.trim().parse().ok())
            .unwrap_or_else(|| panic!("unparseable fig2 output:\n{f}"));
        assert!(ratio > 1.2, "enqueue basis should hurt: ratio {ratio}");
    }

    #[test]
    fn fig3_ai_improves_fairness() {
        let f = fig3(Scale::Fast);
        let jains: Vec<f64> = f
            .lines()
            .filter(|l| l.contains("Jain index"))
            .map(|l| {
                l.split("Jain index")
                    .nth(1)
                    .unwrap()
                    .split_whitespace()
                    .next()
                    .unwrap()
                    .parse()
                    .unwrap()
            })
            .collect();
        assert_eq!(jains.len(), 2);
        assert!(
            jains[1] > jains[0],
            "AI should improve fairness: noAI {} vs AI {}",
            jains[0],
            jains[1]
        );
        assert!(jains[1] > 0.85, "with-AI Jain {}", jains[1]);
    }

    #[test]
    fn marking_deterministic_is_smoother() {
        let m = marking(Scale::Fast);
        let cvs: Vec<f64> = m
            .lines()
            .filter(|l| l.starts_with("deterministic") || l.starts_with("probabilistic"))
            .map(|l| l.rsplit("cv").next().unwrap().trim().parse().unwrap())
            .collect();
        assert_eq!(cvs.len(), 2);
        assert!(
            cvs[0] < cvs[1],
            "deterministic cv {} should be below probabilistic {}",
            cvs[0],
            cvs[1]
        );
    }
}
