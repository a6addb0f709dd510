//! Beyond-single-bottleneck presets that sample mid-run state: the
//! wireless+wired mixed-bottleneck path (Figs. 6, 11) and the dual-queue
//! coexistence router (Figs. 7, 12).
//!
//! These are builders over [`crate::engine`]: each preset denotes a
//! [`ScenarioSpec`], and every simulator is constructed by the
//! [`ScenarioEngine`].

use crate::engine::{
    FlowSchedule, FlowSpec, PoissonShortFlows, QdiscSpec, ScenarioEngine, ScenarioSpec,
};
use crate::report::{downsample, Report};
use crate::scenario::LinkSpec;
use crate::scheme::Scheme;
use abc_core::coexist::{DualQueue, WeightPolicy};
use netsim::flow::TrafficSource;
use netsim::packet::FlowId;
use netsim::queue::Qdisc;
use netsim::rate::Rate;
use netsim::time::{SimDuration, SimTime};

/// Cross-traffic pattern on the wired hop of [`MixedPathScenario`].
#[derive(Debug, Clone, Copy)]
pub enum CrossTraffic {
    /// No cross traffic.
    None,
    /// A Cubic flow that is backlogged during `on`, silent during `off`.
    OnOffCubic {
        /// Backlogged-phase length.
        on: SimDuration,
        /// Silent-phase length.
        off: SimDuration,
    },
}

/// Figs. 6 and 11: an ABC flow whose path is ABC-wireless followed by a
/// fixed-rate wired droptail link, optionally shared with Cubic cross
/// traffic. The bottleneck flips between hops as the wireless rate steps.
pub struct MixedPathScenario {
    /// The ABC-controlled wireless hop.
    pub wireless: LinkSpec,
    /// The fixed-rate wired droptail hop.
    pub wired_rate: Rate,
    /// Path round-trip propagation delay.
    pub rtt: SimDuration,
    /// Buffer at each hop.
    pub buffer_pkts: usize,
    /// Cross traffic on the wired hop.
    pub cross: CrossTraffic,
    /// Simulated duration.
    pub duration: SimDuration,
}

/// Samples of the ABC flow's two windows over time (Fig. 6's bottom panel).
#[derive(Debug, Clone, Default)]
pub struct WindowTrace {
    /// (t s, w_abc pkts, w_nonabc pkts, goodput Mbit/s)
    pub samples: Vec<(f64, f64, f64, f64)>,
}

/// What [`MixedPathScenario::run`] returns: the report plus the traces
/// Figs. 6/11 plot.
pub struct MixedPathResult {
    /// The headline report (tracking the ABC flow).
    pub report: Report,
    /// The ABC sender's dual windows over time.
    pub windows: WindowTrace,
    /// (t s, queuing delay ms) at the *wireless* hop.
    pub wireless_qdelay: Vec<(f64, f64)>,
    /// (t s, queuing delay ms) at the wired hop.
    pub wired_qdelay: Vec<(f64, f64)>,
    /// Cross-traffic goodput series (Mbit/s).
    pub cross_tput: Vec<(f64, f64)>,
}

impl MixedPathScenario {
    /// The [`ScenarioSpec`] this preset denotes.
    pub fn spec(&self) -> ScenarioSpec {
        let mut flows = vec![FlowSpec::new("abc")];
        if let CrossTraffic::OnOffCubic { on, off } = self.cross {
            flows.push(
                FlowSpec::new("cross")
                    .scheme(Scheme::Cubic)
                    .app(TrafficSource::OnOff { on, off })
                    .entry_hop(1),
            );
        }
        let mut spec = ScenarioSpec::mixed_path(self.wireless.clone(), self.wired_rate)
            .rtt(self.rtt)
            .buffer_pkts(self.buffer_pkts)
            .duration(self.duration);
        spec.flows = FlowSchedule::Explicit(flows);
        spec
    }

    /// Build and run, sampling the ABC sender's windows every 200 ms.
    pub fn run(&self) -> MixedPathResult {
        let mut b = ScenarioEngine::new().build(&self.spec());

        // run in chunks, sampling the ABC sender's windows
        let mut windows = WindowTrace::default();
        let chunk = SimDuration::from_millis(200);
        let mut t = SimTime::ZERO;
        let end = b.end_time();
        let mut last_bytes = 0u64;
        while t < end {
            b.run_chunk(chunk);
            t += chunk;
            let s = b.sender(0);
            let cc = s.cc();
            let (wabc, wnon) = cc
                .as_abc_windows()
                .unwrap_or((cc.cwnd_pkts(), cc.cwnd_pkts()));
            let bytes = b
                .hub
                .borrow()
                .flows
                .get(&FlowId(1))
                .map(|f| f.delivered_bytes)
                .unwrap_or(0);
            let goodput = (bytes - last_bytes) as f64 * 8.0 / chunk.as_secs_f64() / 1e6;
            last_bytes = bytes;
            windows.samples.push((t.as_secs_f64(), wabc, wnon, goodput));
        }

        let hub = b.hub.clone();
        let mut report = b.finish();
        let hubref = hub.borrow();
        let series = |tag: &str| -> Vec<(f64, f64)> {
            hubref.links[tag]
                .qdelay_series
                .iter()
                .map(|(t, d)| (t.as_secs_f64(), d.as_millis_f64()))
                .collect()
        };
        let wireless_qdelay = downsample(&series("wireless"), 600);
        let wired_qdelay = downsample(&series("wired"), 600);
        // The headline series tracks the ABC flow, not the cross traffic;
        // wired-hop drops are the ones that matter (the wireless hop is
        // ABC-controlled and effectively lossless).
        report.scheme = "ABC(mixed-path)".into();
        report.tput_series = hubref.throughput_series_mbps(FlowId(1));
        report.drops = hubref.links["wired"].dropped_pkts;
        MixedPathResult {
            report,
            windows,
            wireless_qdelay,
            wired_qdelay,
            cross_tput: hubref.throughput_series_mbps(FlowId(2)),
        }
    }
}

/// Figs. 7 & 12: long-lived ABC and Cubic flows sharing a dual-queue ABC
/// router, plus optional Poisson short (Cubic) flows at a target offered
/// load.
pub struct CoexistScenario {
    /// The shared bottleneck's rate.
    pub link_rate: Rate,
    /// Long-lived ABC flows.
    pub n_abc: u32,
    /// Long-lived Cubic flows.
    pub n_cubic: u32,
    /// The dual-queue scheduling policy.
    pub policy: WeightPolicy,
    /// Offered load of 10-KB short flows as a fraction of link rate.
    pub short_flow_load: f64,
    /// Path round-trip propagation delay.
    pub rtt: SimDuration,
    /// Simulated duration.
    pub duration: SimDuration,
    /// Measurements before this offset are discarded.
    pub warmup: SimDuration,
    /// Stagger between long-flow arrivals (Fig. 7 uses ~25 s).
    pub stagger: SimDuration,
    /// Fixes the short-flow arrival process.
    pub seed: u64,
}

impl Default for CoexistScenario {
    fn default() -> Self {
        CoexistScenario {
            link_rate: Rate::from_mbps(96.0),
            n_abc: 3,
            n_cubic: 3,
            policy: WeightPolicy::MaxMin { headroom: 0.10 },
            short_flow_load: 0.0,
            rtt: SimDuration::from_millis(100),
            duration: SimDuration::from_secs(40),
            warmup: SimDuration::from_secs(5),
            stagger: SimDuration::ZERO,
            seed: 7,
        }
    }
}

/// What [`CoexistScenario::run`] returns.
pub struct CoexistResult {
    /// Per-flow average goodput (Mbit/s) of the long ABC flows.
    pub abc_tputs: Vec<f64>,
    /// Per-flow average goodput of the long Cubic flows.
    pub cubic_tputs: Vec<f64>,
    /// Goodput series per long flow (Fig. 7 top panel).
    pub series: Vec<(String, Vec<(f64, f64)>)>,
    /// p95 queuing delay (ms) of the ABC class.
    pub abc_qdelay_p95_ms: f64,
    /// Short flows that completed within the run.
    pub short_flows_completed: u64,
}

impl CoexistScenario {
    /// The [`ScenarioSpec`] this preset denotes.
    pub fn spec(&self) -> ScenarioSpec {
        let mut flows = Vec::new();
        for i in 0..self.n_abc {
            flows.push(
                FlowSpec::new(format!("ABC {}", i + 1))
                    .scheme(Scheme::Abc)
                    .start_at(SimTime::ZERO + self.stagger * i as u64),
            );
        }
        for i in 0..self.n_cubic {
            flows.push(
                FlowSpec::new(format!("Cubic {}", i + 1))
                    .scheme(Scheme::Cubic)
                    .start_at(SimTime::ZERO + self.stagger * (self.n_abc + i) as u64),
            );
        }
        let mut spec = ScenarioSpec::single(Scheme::Abc, LinkSpec::Constant(self.link_rate))
            .rtt(self.rtt)
            .duration(self.duration)
            .warmup(self.warmup)
            .seed(self.seed)
            .qdisc(QdiscSpec::DualQueue(self.policy));
        spec.flows = FlowSchedule::Explicit(flows);
        if self.short_flow_load > 0.0 {
            spec.short_flows = Some(PoissonShortFlows {
                load: self.short_flow_load,
                bytes: 10_000,
                scheme: Scheme::Cubic,
            });
        }
        spec
    }

    /// Build, run to completion, and report.
    pub fn run(&self) -> CoexistResult {
        self.run_sampled(|_, _, _, _| {})
    }

    /// Like [`CoexistScenario::run`], invoking `probe(t_secs, w_abc,
    /// abc_queue_pkts, other_queue_pkts)` every 100 ms of simulated time.
    pub fn run_sampled(&self, mut probe: impl FnMut(f64, f64, usize, usize)) -> CoexistResult {
        let mut b = ScenarioEngine::new().build(&self.spec());
        let long_flows: Vec<(String, FlowId)> = b
            .flows
            .iter()
            .filter(|(n, _)| !n.starts_with("short"))
            .cloned()
            .collect();
        let short_count = (b.flows.len() - long_flows.len()) as u64;

        let end = b.end_time();
        let mut t = SimTime::ZERO;
        while t < end {
            b.run_chunk(SimDuration::from_millis(100));
            t += SimDuration::from_millis(100);
            let lq = b.link_queue("bottleneck");
            if let Some(dq) = lq.qdisc().as_any_qdisc().downcast_ref::<DualQueue>() {
                probe(
                    t.as_secs_f64(),
                    dq.weight_abc(),
                    dq.abc_queue().len_pkts(),
                    dq.other_len_pkts(),
                );
            }
        }

        let hubref = b.hub.borrow();
        let window = self.duration - self.warmup;
        let tput = |f: FlowId| {
            hubref
                .flows
                .get(&f)
                .map(|r| r.throughput_over(window) / 1e6)
                .unwrap_or(0.0)
        };
        let abc_tputs: Vec<f64> = long_flows
            .iter()
            .filter(|(n, _)| n.starts_with("ABC"))
            .map(|(_, f)| tput(*f))
            .collect();
        let cubic_tputs: Vec<f64> = long_flows
            .iter()
            .filter(|(n, _)| n.starts_with("Cubic"))
            .map(|(_, f)| tput(*f))
            .collect();
        let series = long_flows
            .iter()
            .map(|(n, f)| (n.clone(), hubref.throughput_series_mbps(*f)))
            .collect();
        // ABC-class queuing delay: per-packet delays of ABC flows minus
        // propagation (the sink-side observable)
        let q = self.rtt / 4;
        let prop = (q + q).as_millis_f64();
        let mut abc_delays: Vec<f64> = long_flows
            .iter()
            .filter(|(n, _)| n.starts_with("ABC"))
            .filter_map(|(_, f)| hubref.flows.get(f))
            .flat_map(|r| r.delays_s.iter().map(|d| (d * 1e3 - prop).max(0.0)))
            .collect();
        abc_delays.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let abc_qdelay_p95_ms = netsim::stats::percentile(&abc_delays, 95.0);
        CoexistResult {
            abc_tputs,
            cubic_tputs,
            series,
            abc_qdelay_p95_ms,
            short_flows_completed: short_count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_hop_abc_tracks_tighter_link() {
        let r = ScenarioEngine::new().run(&ScenarioSpec::two_hop(
            Scheme::Abc,
            LinkSpec::Constant(Rate::from_mbps(24.0)),
            LinkSpec::Constant(Rate::from_mbps(12.0)),
        ));
        // bottleneck is the 12 Mbit/s downlink
        assert!(r.total_tput_mbps > 10.0, "{}", r.row());
        assert!(r.total_tput_mbps < 12.5, "{}", r.row());
        assert!(r.qdelay_ms.p95 < 60.0, "{}", r.row());
    }

    #[test]
    fn mixed_path_switches_bottleneck() {
        // wireless steps 16 → 6 → 16 Mbit/s; wired fixed 12
        let r = MixedPathScenario {
            wireless: LinkSpec::Steps(vec![
                (SimTime::ZERO, Rate::from_mbps(16.0)),
                (
                    SimTime::ZERO + SimDuration::from_secs(20),
                    Rate::from_mbps(6.0),
                ),
                (
                    SimTime::ZERO + SimDuration::from_secs(40),
                    Rate::from_mbps(16.0),
                ),
            ]),
            wired_rate: Rate::from_mbps(12.0),
            rtt: SimDuration::from_millis(100),
            buffer_pkts: 250,
            cross: CrossTraffic::None,
            duration: SimDuration::from_secs(60),
        }
        .run();
        // middle third: wireless (6) is the bottleneck; outer thirds:
        // wired (12). Check goodput in each regime.
        let mid: Vec<f64> = r
            .windows
            .samples
            .iter()
            .filter(|(t, ..)| (25.0..38.0).contains(t))
            .map(|&(_, _, _, g)| g)
            .collect();
        let outer: Vec<f64> = r
            .windows
            .samples
            .iter()
            .filter(|(t, ..)| (45.0..58.0).contains(t))
            .map(|&(_, _, _, g)| g)
            .collect();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        assert!(
            (mean(&mid) - 6.0).abs() < 1.2,
            "mid-regime goodput {}",
            mean(&mid)
        );
        assert!(
            mean(&outer) > 9.5,
            "outer-regime goodput {} (wired should cap at ~12)",
            mean(&outer)
        );
    }

    #[test]
    fn coexist_long_flows_share_fairly() {
        let r = CoexistScenario {
            link_rate: Rate::from_mbps(48.0),
            n_abc: 2,
            n_cubic: 2,
            duration: SimDuration::from_secs(60),
            warmup: SimDuration::from_secs(20),
            ..Default::default()
        }
        .run();
        let abc: f64 = r.abc_tputs.iter().sum::<f64>() / r.abc_tputs.len() as f64;
        let cubic: f64 = r.cubic_tputs.iter().sum::<f64>() / r.cubic_tputs.len() as f64;
        let diff = (abc - cubic).abs() / abc.max(cubic);
        assert!(
            diff < 0.25,
            "ABC {abc:.2} vs Cubic {cubic:.2} Mbit/s ({diff:.2} apart)"
        );
        // ABC keeps its class's delay low despite the Cubic queue
        assert!(
            r.abc_qdelay_p95_ms < 100.0,
            "ABC-class queuing delay {:.1} ms",
            r.abc_qdelay_p95_ms
        );
    }
}
