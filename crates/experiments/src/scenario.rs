//! The bottleneck link of a scenario: an emulated cellular trace or a
//! synthetic rate process. Scenarios themselves are
//! [`ScenarioSpec`](crate::engine::ScenarioSpec)s — all construction and
//! execution happens in [`crate::engine`].

use cellular::CellTrace;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ScenarioEngine, ScenarioSpec};
    use crate::report::Report;
    use crate::scheme::Scheme;

    fn run(scheme: Scheme, link: LinkSpec) -> Report {
        ScenarioEngine::new().run(&ScenarioSpec::single(scheme, link))
    }

    #[test]
    fn abc_on_constant_link_reaches_eta() {
        let r = run(Scheme::Abc, LinkSpec::Constant(Rate::from_mbps(12.0)));
        assert!(r.utilization > 0.9, "{}", r.row());
        assert!(r.qdelay_ms.p95 < 60.0, "{}", r.row());
    }

    #[test]
    fn cubic_fills_droptail_buffer() {
        let r = run(Scheme::Cubic, LinkSpec::Constant(Rate::from_mbps(12.0)));
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
        let cubic = run(Scheme::Cubic, LinkSpec::Constant(Rate::from_mbps(12.0)));
        let codel = run(
            Scheme::CubicCodel,
            LinkSpec::Constant(Rate::from_mbps(12.0)),
        );
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
        let r = run(Scheme::Abc, LinkSpec::Trace(trace));
        assert!(r.utilization > 0.3, "{}", r.row());
        assert!(r.total_tput_mbps > 0.5, "{}", r.row());
    }

    #[test]
    fn sampling_interface_exposes_windows() {
        let spec = ScenarioSpec::single(Scheme::Abc, LinkSpec::Constant(Rate::from_mbps(12.0)));
        let mut b = ScenarioEngine::new().build(&spec);
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
