//! Theorem 3.1 validation: the fluid-model δ/τ sweep plus a full-simulator
//! sweep showing the same boundary empirically.

use super::run;
use crate::presets;
use crate::runner::RunRecord;
use abc_core::stability::{fluid_a, integrate_fluid, is_stable};
use experiments::figures::Scale;
use netsim::rate::Rate;
use netsim::time::SimDuration;
use std::fmt::Write;

/// Appendix C: utilization/delay across the ABC δ stability sweep.
pub fn stability(scale: Scale) -> String {
    let ratios: &[f64] = if scale.reduced() {
        &[0.3, 0.5, 0.8, 1.33]
    } else {
        &[0.2, 0.33, 0.5, 0.6, 0.7, 0.8, 1.0, 1.33, 2.0]
    };
    render_stability(ratios, &run(&presets::stability(scale)))
}

/// Render Theorem 3.1's check: the fluid model at each δ/τ of `ratios`
/// (τ = 100 ms), then the simulator half from `stability` records (axis
/// `delta_ms`).
pub fn render_stability(ratios: &[f64], records: &[RunRecord]) -> String {
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
    for rec in records {
        let dms = rec.coords.get("delta_ms").unwrap_or("?");
        let delta = SimDuration::from_millis(dms.parse().unwrap_or(0));
        writeln!(
            out,
            "{:>9} {:>10} {:>14.1} {:>11.1}%",
            dms,
            if is_stable(delta, tau) {
                "stable"
            } else {
                "unstable"
            },
            rec.report.qdelay_ms.std_dev,
            rec.report.utilization * 100.0
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
