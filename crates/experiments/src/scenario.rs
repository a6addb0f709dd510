//! The single-bottleneck scenario preset behind most figures: N flows of
//! one scheme over one (emulated cellular or synthetic) link.
//!
//! [`CellScenario`] is a convenience builder — all construction and
//! execution happens in [`crate::engine`]; [`CellScenario::spec`] shows
//! exactly which [`ScenarioSpec`] a preset denotes.

use crate::engine::{BuiltScenario, FlowSchedule, ScenarioEngine, ScenarioSpec};
use crate::report::Report;
use crate::scheme::Scheme;
use cellular::CellTrace;
use netsim::flow::TrafficSource;
use netsim::link::{ConstantRate, RateProcess, SerialLink, SquareWave, StepSchedule, Transmitter};
use netsim::rate::Rate;
use netsim::time::{SimDuration, SimTime};

/// The bottleneck link of a scenario.
#[derive(Debug, Clone)]
pub enum LinkSpec {
    /// Mahimahi-style trace (cellular emulation).
    Trace(CellTrace),
    /// A fixed-rate link.
    Constant(Rate),
    /// A square wave: `a` and `b` alternating every `half_period`.
    Square {
        /// The first phase's rate.
        a: Rate,
        /// The second phase's rate.
        b: Rate,
        /// Length of each phase.
        half_period: SimDuration,
    },
    /// Piecewise-constant `(from time, rate)` breakpoints.
    Steps(Vec<(SimTime, Rate)>),
}

impl LinkSpec {
    /// Build the transmitter this spec denotes.
    pub fn build(&self) -> Box<dyn Transmitter> {
        match self {
            LinkSpec::Trace(t) => Box::new(t.to_link()),
            LinkSpec::Constant(r) => Box::new(SerialLink::new(ConstantRate(*r))),
            LinkSpec::Square { a, b, half_period } => {
                Box::new(SerialLink::new(SquareWave::new(*a, *b, *half_period)))
            }
            LinkSpec::Steps(steps) => Box::new(SerialLink::new(StepSchedule::new(steps.clone()))),
        }
    }

    /// Capacity curve for plotting, sampled per `step`.
    pub fn capacity_series(&self, until: SimDuration, step: SimDuration) -> Vec<(f64, f64)> {
        let sample = |rate_at: &dyn Fn(SimTime) -> Rate| {
            let mut out = Vec::new();
            let mut t = SimTime::ZERO;
            while t < SimTime::ZERO + until {
                out.push((t.as_secs_f64(), rate_at(t).mbps()));
                t += step;
            }
            out
        };
        match self {
            LinkSpec::Trace(tr) => sample(&|t| tr.rate_in_window(t, step)),
            LinkSpec::Constant(r) => sample(&|_| *r),
            LinkSpec::Square { a, b, half_period } => {
                let wave = SquareWave::new(*a, *b, *half_period);
                sample(&|t| wave.rate_at(t))
            }
            LinkSpec::Steps(steps) => {
                let schedule = StepSchedule::new(steps.clone());
                sample(&|t| schedule.rate_at(t))
            }
        }
    }

    /// A single representative rate — the reference for offered-load
    /// fractions (Poisson short-flow churn).
    pub fn nominal_rate(&self) -> Rate {
        match self {
            LinkSpec::Trace(t) => t.mean_rate(),
            LinkSpec::Constant(r) => *r,
            LinkSpec::Square { a, b, .. } => Rate::from_bps((a.bps() + b.bps()) / 2.0),
            LinkSpec::Steps(steps) => {
                if steps.is_empty() {
                    Rate::ZERO
                } else {
                    Rate::from_bps(
                        steps.iter().map(|(_, r)| r.bps()).sum::<f64>() / steps.len() as f64,
                    )
                }
            }
        }
    }
}

/// A single-bottleneck scenario.
#[derive(Clone)]
pub struct CellScenario {
    /// The scheme every flow runs.
    pub scheme: Scheme,
    /// The bottleneck link.
    pub link: LinkSpec,
    /// Path round-trip propagation delay.
    pub rtt: SimDuration,
    /// Bottleneck buffer (packets).
    pub buffer_pkts: usize,
    /// Number of flows.
    pub n_flows: u32,
    /// Simulated duration.
    pub duration: SimDuration,
    /// Measurements before this offset are discarded.
    pub warmup: SimDuration,
    /// Flow i starts at `i × stagger` (Fig. 3's joins).
    pub stagger: SimDuration,
    /// Also stop flows one by one: flow i stops at
    /// `duration − (n−1−i)·stagger` (Fig. 3's departures).
    pub stagger_departures: bool,
    /// Per-flow application pattern.
    pub app: TrafficSource,
    /// PK-ABC: let the router control law see µ(t + lookahead).
    pub oracle_lookahead: Option<SimDuration>,
}

impl CellScenario {
    /// The single-bottleneck defaults: 100 ms RTT, 250-pkt buffer, one
    /// backlogged flow, 60 s + 5 s warmup.
    pub fn new(scheme: Scheme, link: LinkSpec) -> Self {
        CellScenario {
            scheme,
            link,
            rtt: SimDuration::from_millis(100),
            buffer_pkts: 250,
            n_flows: 1,
            duration: SimDuration::from_secs(60),
            warmup: SimDuration::from_secs(5),
            stagger: SimDuration::ZERO,
            stagger_departures: false,
            app: TrafficSource::Backlogged,
            oracle_lookahead: None,
        }
    }

    /// The [`ScenarioSpec`] this preset denotes.
    pub fn spec(&self) -> ScenarioSpec {
        let mut spec = ScenarioSpec::single(self.scheme, self.link.clone());
        spec.flows = FlowSchedule::Uniform {
            n: self.n_flows,
            app: self.app,
            stagger: self.stagger,
            stagger_departures: self.stagger_departures,
        };
        spec.rtt = self.rtt;
        spec.buffer_pkts = self.buffer_pkts;
        spec.duration = self.duration;
        spec.warmup = self.warmup;
        spec.oracle_lookahead = self.oracle_lookahead;
        spec
    }

    /// Build the simulator without running it (callers that need to sample
    /// state mid-run use this, then `run_chunk`/`finish`).
    pub fn build(&self) -> BuiltScenario {
        ScenarioEngine::new().build(&self.spec())
    }

    /// Build, run to completion, and report.
    pub fn run(&self) -> Report {
        ScenarioEngine::new().run(&self.spec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abc_on_constant_link_reaches_eta() {
        let r = CellScenario::new(Scheme::Abc, LinkSpec::Constant(Rate::from_mbps(12.0))).run();
        assert!(r.utilization > 0.9, "{}", r.row());
        assert!(r.qdelay_ms.p95 < 60.0, "{}", r.row());
    }

    #[test]
    fn cubic_fills_droptail_buffer() {
        let r = CellScenario::new(Scheme::Cubic, LinkSpec::Constant(Rate::from_mbps(12.0))).run();
        assert!(r.utilization > 0.9, "{}", r.row());
        // 250-pkt buffer at 12 Mbit/s = 250 ms of queuing when full
        assert!(
            r.qdelay_ms.p95 > 100.0,
            "Cubic should bufferbloat: {}",
            r.row()
        );
    }

    #[test]
    fn cubic_codel_cuts_delay() {
        let cubic =
            CellScenario::new(Scheme::Cubic, LinkSpec::Constant(Rate::from_mbps(12.0))).run();
        let codel = CellScenario::new(
            Scheme::CubicCodel,
            LinkSpec::Constant(Rate::from_mbps(12.0)),
        )
        .run();
        assert!(
            codel.qdelay_ms.p95 < cubic.qdelay_ms.p95 / 2.0,
            "codel {} vs cubic {}",
            codel.qdelay_ms.p95,
            cubic.qdelay_ms.p95
        );
    }

    #[test]
    fn trace_link_scenario_runs() {
        let trace = cellular::builtin("Verizon1").unwrap();
        let r = CellScenario::new(Scheme::Abc, LinkSpec::Trace(trace)).run();
        assert!(r.utilization > 0.3, "{}", r.row());
        assert!(r.total_tput_mbps > 0.5, "{}", r.row());
    }

    #[test]
    fn sampling_interface_exposes_windows() {
        let sc = CellScenario::new(Scheme::Abc, LinkSpec::Constant(Rate::from_mbps(12.0)));
        let mut b = sc.build();
        b.run_chunk(SimDuration::from_secs(5));
        let s = b.sender(0);
        assert!(s.cwnd_pkts() > 1.0);
    }

    #[test]
    fn nominal_rate_covers_every_link_kind() {
        assert_eq!(
            LinkSpec::Constant(Rate::from_mbps(12.0)).nominal_rate(),
            Rate::from_mbps(12.0)
        );
        let sq = LinkSpec::Square {
            a: Rate::from_mbps(10.0),
            b: Rate::from_mbps(20.0),
            half_period: SimDuration::from_millis(500),
        };
        assert!((sq.nominal_rate().mbps() - 15.0).abs() < 1e-9);
        let steps = LinkSpec::Steps(vec![
            (SimTime::ZERO, Rate::from_mbps(6.0)),
            (
                SimTime::ZERO + SimDuration::from_secs(1),
                Rate::from_mbps(18.0),
            ),
        ]);
        assert!((steps.nominal_rate().mbps() - 12.0).abs() < 1e-9);
    }
}
