//! Synthetic cellular traces.
//!
//! The paper evaluates on eight proprietary Mahimahi traces (Verizon LTE
//! up/down, AT&T, T-Mobile). Those captures are not redistributable, so we
//! synthesize traces with the published qualitative properties (§2, §6.2):
//!
//! * large dynamic range — capacity can double *and* halve within a second;
//! * abrupt steps from carrier scheduling, modeled by a geometric
//!   random-walk rate re-drawn every `step`;
//! * multi-second outages ("include outages (highlighting ABC's ability to
//!   handle ACK losses)");
//! * uplink/downlink asymmetry (uplinks slower, less volatile).
//!
//! Every generator is seeded; the eight named profiles are deterministic.
//! Real Mahimahi captures drop in via [`crate::trace::CellTrace::parse_mahimahi`].

use crate::trace::CellTrace;
use netsim::time::SimDuration;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of the synthetic rate process.
#[derive(Debug, Clone)]
pub struct SynthSpec {
    pub name: &'static str,
    /// Rate bounds (Mbit/s) for the geometric random walk.
    pub min_mbps: f64,
    pub max_mbps: f64,
    /// Initial rate (Mbit/s).
    pub start_mbps: f64,
    /// Random-walk re-draw period.
    pub step: SimDuration,
    /// Std-dev of the per-step log-rate increment. 0.25 at a 100 ms step
    /// lets the rate double/halve within ~1 s (the §2 LTE behavior).
    pub sigma: f64,
    /// Probability per step of entering an outage.
    pub outage_prob: f64,
    /// Outage length range (ms).
    pub outage_ms: (u64, u64),
    /// Trace length.
    pub duration: SimDuration,
    pub seed: u64,
}

impl SynthSpec {
    /// Generate the delivery-opportunity sequence for this spec.
    pub fn generate(&self) -> CellTrace {
        assert!(self.min_mbps > 0.0 && self.max_mbps >= self.min_mbps);
        assert!(!self.step.is_zero() && !self.duration.is_zero());
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut rate_mbps = self.start_mbps.clamp(self.min_mbps, self.max_mbps);
        let mut opportunities = Vec::new();
        // credit accumulates in packets; one opportunity per whole packet
        let mut credit = 0.0f64;
        let pkt_bits = netsim::packet::MTU_BYTES as f64 * 8.0;
        let step_s = self.step.as_secs_f64();
        let total_steps = (self.duration.as_nanos() / self.step.as_nanos()).max(1);
        let mut outage_left: u64 = 0; // remaining outage steps

        for s in 0..total_steps {
            let t0 = self.step * s;
            if outage_left > 0 {
                outage_left -= 1;
            } else if rng.gen::<f64>() < self.outage_prob {
                let (lo, hi) = self.outage_ms;
                let len_ms = rng.gen_range(lo..=hi.max(lo + 1));
                outage_left = (len_ms * 1_000_000 / self.step.as_nanos()).max(1);
            } else {
                // geometric random walk with reflecting bounds
                let z: f64 = standard_normal(&mut rng);
                rate_mbps =
                    (rate_mbps * (self.sigma * z).exp()).clamp(self.min_mbps, self.max_mbps);
            }
            let effective = if outage_left > 0 { 0.0 } else { rate_mbps };
            credit += effective * 1e6 * step_s / pkt_bits;
            // spread this step's opportunities uniformly across the step
            let n = credit.floor() as u64;
            credit -= n as f64;
            for k in 0..n {
                let frac = (k as f64 + 0.5) / n as f64;
                opportunities.push(t0 + self.step.mul_f64(frac));
            }
        }
        assert!(
            !opportunities.is_empty(),
            "trace {:?} generated no opportunities",
            self.name
        );
        CellTrace {
            name: self.name.to_string(),
            opportunities: opportunities.into(),
            period: self.duration,
        }
    }
}

/// Box–Muller standard normal from a uniform RNG.
fn standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(1e-12..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// The eight built-in trace profiles standing in for the paper's captures.
/// Downlinks are faster and more volatile; uplinks slower; one profile per
/// carrier direction, distinct seeds.
pub fn builtin_specs() -> Vec<SynthSpec> {
    let base = |name, min, max, start, sigma, outage_prob, seed| SynthSpec {
        name,
        min_mbps: min,
        max_mbps: max,
        start_mbps: start,
        step: SimDuration::from_millis(100),
        sigma,
        outage_prob,
        outage_ms: (100, 800),
        duration: SimDuration::from_secs(120),
        seed,
    };
    // σ = 0.17 per 100 ms step → per-second log-σ ≈ 0.54, i.e. typical
    // rate swings of ~1.7× (tail 2–4×) within a second — the §2 LTE regime.
    vec![
        // "Verizon LTE" class: fast, volatile downlink; slower uplink
        base("Verizon1", 1.0, 24.0, 9.0, 0.17, 0.001, 101), // downlink
        base("Verizon2", 0.8, 12.0, 4.0, 0.14, 0.0015, 102), // uplink
        // "Verizon EV-DO"-ish: slower pair
        base("Verizon3", 0.8, 9.0, 3.0, 0.15, 0.002, 103),
        base("Verizon4", 0.6, 6.0, 2.0, 0.13, 0.002, 104),
        // "AT&T LTE": moderate rate, frequent short dips
        base("ATT1", 1.0, 18.0, 6.0, 0.19, 0.0025, 105),
        base("ATT2", 0.8, 8.0, 2.5, 0.15, 0.0025, 106),
        // "T-Mobile": bursty with more outages
        base("TMobile1", 1.0, 16.0, 5.0, 0.20, 0.003, 107),
        base("TMobile2", 0.8, 7.0, 2.0, 0.16, 0.003, 108),
    ]
}

/// Look up one of the built-in traces by name and synthesize it.
pub fn builtin(name: &str) -> Option<CellTrace> {
    builtin_specs()
        .into_iter()
        .find(|s| s.name.eq_ignore_ascii_case(name))
        .map(|s| s.generate())
}

/// All eight built-in traces.
pub fn all_builtin() -> Vec<CellTrace> {
    builtin_specs().into_iter().map(|s| s.generate()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::time::SimTime;

    #[test]
    fn generation_is_deterministic() {
        let a = builtin("Verizon1").unwrap();
        let b = builtin("Verizon1").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn traces_differ_across_profiles() {
        let a = builtin("Verizon1").unwrap();
        let b = builtin("ATT1").unwrap();
        assert_ne!(a.opportunities, b.opportunities);
    }

    #[test]
    fn mean_rate_lands_in_bounds() {
        for spec in builtin_specs() {
            let tr = spec.generate();
            let mean = tr.mean_rate().mbps();
            assert!(
                mean >= spec.min_mbps * 0.3 && mean <= spec.max_mbps,
                "{}: mean {mean} outside [{}, {}]",
                spec.name,
                spec.min_mbps,
                spec.max_mbps
            );
        }
    }

    #[test]
    fn rate_varies_by_large_factor() {
        // §2: within short spans the rate should both double and halve.
        let tr = builtin("Verizon1").unwrap();
        let w = SimDuration::from_millis(500);
        let mut rates = Vec::new();
        let mut t = SimTime::ZERO;
        while t + w < SimTime::ZERO + tr.period {
            rates.push(tr.rate_in_window(t, w).mbps());
            t += w;
        }
        let hi = rates.iter().cloned().fold(0.0, f64::max);
        let positive: Vec<f64> = rates.iter().cloned().filter(|&r| r > 0.1).collect();
        let lo = positive.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            hi / lo > 4.0,
            "dynamic range too small: {lo:.2}..{hi:.2} Mbit/s"
        );
    }

    #[test]
    fn outages_exist() {
        let tr = builtin("TMobile1").unwrap();
        // scan with a fine-grained window so short outages can't hide by
        // straddling window boundaries
        let w = SimDuration::from_millis(100);
        let step = SimDuration::from_millis(50);
        let mut t = SimTime::ZERO;
        let mut zero_windows = 0;
        while t + w < SimTime::ZERO + tr.period {
            if tr.rate_in_window(t, w).is_zero() {
                zero_windows += 1;
            }
            t += step;
        }
        assert!(zero_windows > 0, "no outage windows found");
    }

    #[test]
    fn opportunities_sorted_within_period() {
        let tr = builtin("Verizon1").unwrap();
        assert!(tr.opportunities.windows(2).all(|w| w[0] <= w[1]));
        assert!(*tr.opportunities.last().unwrap() < tr.period);
    }

    #[test]
    fn to_link_round_trip() {
        let tr = builtin("Verizon2").unwrap();
        let link = tr.to_link();
        assert_eq!(link.opportunities_per_period(), tr.opportunities.len());
    }
}
