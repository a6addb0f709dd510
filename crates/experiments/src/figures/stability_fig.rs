//! Theorem 3.1 validation: the fluid-model δ/τ sweep plus a full-simulator
//! sweep showing the same boundary empirically.

use super::Scale;
use crate::engine::{QdiscSpec, ScenarioEngine, ScenarioSpec};
use crate::scenario::LinkSpec;
use crate::scheme::Scheme;
use abc_core::router::AbcRouterConfig;
use abc_core::stability::{fluid_a, integrate_fluid, is_stable};
use netsim::rate::Rate;
use netsim::time::SimDuration;
use std::fmt::Write;

/// Appendix C: utilization/delay across the ABC δ stability sweep.
pub fn stability(scale: Scale) -> String {
    let mut out = String::new();
    writeln!(out, "# Theorem 3.1 — stability requires δ > ⅔·τ").unwrap();

    // fluid model sweep: fix τ = 100 ms, sweep δ/τ
    let tau = SimDuration::from_millis(100);
    writeln!(out, "\n## fluid model (A > 0 regime)").unwrap();
    writeln!(
        out,
        "{:>8} {:>10} {:>12} {:>10}",
        "δ/τ", "criterion", "residual", "verdict"
    )
    .unwrap();
    let ratios: &[f64] = if scale.reduced() {
        &[0.3, 0.5, 0.8, 1.33]
    } else {
        &[0.2, 0.33, 0.5, 0.6, 0.7, 0.8, 1.0, 1.33, 2.0]
    };
    let a = fluid_a(0.98, 20, Rate::from_mbps(12.0), 1500, 0.1);
    for &ratio in ratios {
        let delta = tau.mul_f64(ratio);
        let tr = integrate_fluid(a, delta, SimDuration::from_millis(20), tau, 0.4, 30.0, 5e-4);
        let criterion = is_stable(delta, tau);
        let converged = tr.residual < 0.005;
        writeln!(
            out,
            "{:>8.2} {:>10} {:>12.5} {:>10}",
            ratio,
            if criterion { "stable" } else { "unstable" },
            tr.residual,
            if converged { "converged" } else { "oscillates" }
        )
        .unwrap();
    }

    // full-simulator sweep: N ABC flows on a constant link, vary δ;
    // measure queuing-delay dispersion after convergence
    writeln!(out, "\n## full simulator (20 flows, 12 Mbit/s, τ = 100 ms)").unwrap();
    writeln!(
        out,
        "{:>9} {:>10} {:>14} {:>12}",
        "δ (ms)", "criterion", "qdelay sd (ms)", "util"
    )
    .unwrap();
    let deltas: &[u64] = if scale.reduced() {
        &[30, 200]
    } else {
        &[20, 40, 60, 90, 133, 200, 400]
    };
    // one spec per δ, with the router override declared in the spec; the
    // sweep runs in parallel
    let specs: Vec<_> = deltas
        .iter()
        .map(|&dms| {
            ScenarioSpec::single(Scheme::Abc, LinkSpec::Constant(Rate::from_mbps(12.0)))
                .flows(20)
                .duration(scale.secs(60, 30, 2))
                .warmup(scale.secs(10, 10, 0))
                .qdisc(QdiscSpec::AbcWith(AbcRouterConfig {
                    delta: SimDuration::from_millis(dms),
                    ..Default::default()
                }))
        })
        .collect();
    let reports = ScenarioEngine::new().run_batch(&specs);
    for (&dms, r) in deltas.iter().zip(&reports) {
        writeln!(
            out,
            "{:>9} {:>10} {:>14.1} {:>11.1}%",
            dms,
            if is_stable(SimDuration::from_millis(dms), SimDuration::from_millis(100)) {
                "stable"
            } else {
                "unstable"
            },
            r.qdelay_ms.std_dev,
            r.utilization * 100.0
        )
        .unwrap();
    }
    writeln!(
        out,
        "(small δ ⇒ oscillation: larger qdelay dispersion and/or lost utilization)"
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fluid_verdicts_match_criterion() {
        let s = stability(Scale::Fast);
        // every fluid-model row labeled "stable" must have converged and
        // the 0.3 ratio must oscillate
        let mut saw_unstable_oscillation = false;
        for line in s.lines() {
            let cols: Vec<&str> = line.split_whitespace().collect();
            if cols.len() == 4 && cols[1] == "stable" && cols[3] == "oscillates" {
                panic!("stable parameters failed to converge: {line}");
            }
            if cols.len() == 4 && cols[1] == "unstable" && cols[3] == "oscillates" {
                saw_unstable_oscillation = true;
            }
        }
        assert!(
            saw_unstable_oscillation,
            "sweep never exhibited instability:\n{s}"
        );
    }
}
