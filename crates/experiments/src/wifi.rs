//! Wi-Fi experiments (§6.3 Fig. 10, Appendix B Fig. 14, and the
//! estimator-accuracy studies of Figs. 4-5): flows through the 802.11n
//! A-MPDU access-point model with a time-varying MCS index.
//!
//! Everything runs on [`crate::engine`]: the AP topology is
//! [`Topology::Wifi`](crate::engine::Topology) (built by
//! [`ScenarioSpec::wifi`]), and harnesses that reach
//! into the AP (batch logs, the link-rate estimator) use
//! [`ScenarioEngine::build`] plus [`BuiltScenario::wifi_ap_mut`].

use crate::engine::{BuiltScenario, ScenarioEngine, ScenarioSpec, Topology};
use crate::scheme::Scheme;
use netsim::flow::TrafficSource;
use netsim::stats::summarize_in_place;
use netsim::time::{SimDuration, SimTime};
use wifi_mac::{AlternatingMcs, BrownianMcs, FixedMcs, McsProcess};

/// MCS-variation pattern of the experiment.
#[derive(Debug, Clone, Copy)]
pub enum McsSpec {
    /// A constant MCS index.
    Fixed(u8),
    /// §6.3: alternate between two indices every period.
    Alternating(u8, u8, SimDuration),
    /// Appendix B: Brownian walk over [min, max].
    Brownian(u8, u8, SimDuration, u64),
}

impl McsSpec {
    /// Build the MCS process this spec denotes.
    pub fn build(&self) -> Box<dyn McsProcess> {
        match *self {
            McsSpec::Fixed(i) => Box::new(FixedMcs(i)),
            McsSpec::Alternating(a, b, p) => Box::new(AlternatingMcs { a, b, period: p }),
            McsSpec::Brownian(lo, hi, p, seed) => Box::new(BrownianMcs::new(lo, hi, p, seed)),
        }
    }
}

/// Fig. 5: estimator accuracy for a non-backlogged sender at a given
/// offered load over a fixed-MCS link. Returns (offered Mbit/s, predicted
/// Mbit/s, true capacity Mbit/s).
pub fn estimator_accuracy(mcs: u8, offered_mbps: f64, duration: SimDuration) -> (f64, f64, f64) {
    let mut spec = ScenarioSpec::wifi(Scheme::Cubic, 1, McsSpec::Fixed(mcs))
        .app(TrafficSource::RateLimited {
            rate: netsim::rate::Rate::from_mbps(offered_mbps),
            burst_bytes: 6000.0,
        })
        .duration(duration);
    // Fig. 5 measures the estimator, not bufferbloat: a normal-sized AP
    // queue keeps the offered load in charge of how full batches are.
    if let Topology::Wifi { ap_buffer_pkts, .. } = &mut spec.topology {
        *ap_buffer_pkts = 250;
    }
    let mut b: BuiltScenario = ScenarioEngine::new().build(&spec);

    // sample the estimate periodically over the second half of the run
    let mut estimates = Vec::new();
    let mut t = SimTime::ZERO;
    let end = b.end_time();
    while t < end {
        b.run_chunk(SimDuration::from_millis(500));
        t += SimDuration::from_millis(500);
        if t.as_secs_f64() > duration.as_secs_f64() / 2.0
            && !b.wifi_ap("wifi").estimator().batch_log().is_empty()
        {
            // estimate() needs &mut (window expiry)
            let est = b.wifi_ap_mut("wifi").estimator_mut().estimate(t);
            if !est.is_zero() {
                estimates.push(est.mbps());
            }
        }
    }
    let truth = b.wifi_ap_mut("wifi").true_capacity_at(end).mbps();
    let predicted = summarize_in_place(&mut estimates).mean;
    (offered_mbps, predicted, truth)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abc_beats_cubic_delay_on_wifi() {
        let mcs = McsSpec::Alternating(1, 7, SimDuration::from_secs(2));
        let engine = ScenarioEngine::new();
        let abc = engine.run(&ScenarioSpec::wifi(Scheme::AbcDt(60), 1, mcs));
        let cubic = engine.run(&ScenarioSpec::wifi(Scheme::Cubic, 1, mcs));
        assert!(
            abc.delay_ms.p95 < cubic.delay_ms.p95 / 1.5,
            "ABC p95 {:.0} vs Cubic p95 {:.0}",
            abc.delay_ms.p95,
            cubic.delay_ms.p95
        );
        assert!(
            abc.total_tput_mbps > cubic.total_tput_mbps * 0.6,
            "ABC tput {:.1} vs Cubic {:.1}",
            abc.total_tput_mbps,
            cubic.total_tput_mbps
        );
    }

    #[test]
    fn two_user_scenario_shares() {
        let mcs = McsSpec::Fixed(5);
        let r = ScenarioEngine::new().run(&ScenarioSpec::wifi(Scheme::AbcDt(60), 2, mcs));
        assert_eq!(r.flow_tputs_mbps.len(), 2);
        assert!(r.jain > 0.85, "jain {}", r.jain);
    }

    #[test]
    fn estimator_accuracy_within_5_percent_when_loaded() {
        // at high offered load the estimator must nail the capacity
        let (_, predicted, truth) = estimator_accuracy(1, 20.0, SimDuration::from_secs(20));
        let err = (predicted - truth).abs() / truth;
        assert!(
            err < 0.05,
            "pred {predicted:.2} vs true {truth:.2} ({err:.3})"
        );
    }
}
