//! The paper-style dynamics timeline, rendered **purely from a telemetry
//! sidecar** — no re-simulation.
//!
//! [`render_dynamics`] turns one sidecar (read by [`Sidecar::parse`])
//! into the timeline the ABC paper plots around its control law: the
//! router's mark fraction and token-bucket level, the queuing delay they
//! regulate, and the congestion windows that respond — one sparkline
//! panel per `(signal, scope)` series. The `dynamics` figure in
//! [`crate::figures::all`] runs the `dynamics` preset with telemetry on
//! and feeds its sidecar straight through this renderer, the same path
//! `abc-campaign dynamics <file>` takes on a stored sidecar.

use crate::sidecar::Sidecar;
use experiments::figures::Scale;
use experiments::sparkline;
use std::fmt::Write;

/// The signals the timeline shows, top to bottom: control-law outputs
/// first (marks, bucket level, target), then the delay they regulate,
/// then the endpoint response (cwnd, in-flight, srtt).
const PANEL_ORDER: &[&str] = &[
    "mark_frac",
    "abc_token",
    "target_rate_mbps",
    "qdelay_ms",
    "qdisc_depth_pkts",
    "cwnd",
    "inflight",
    "pacing_rate_mbps",
    "srtt_ms",
];

/// Render the dynamics timeline from a sidecar's JSONL text. Errors
/// (with a description) on anything [`Sidecar::parse`] rejects, or on a
/// sidecar with no gauge samples to plot.
pub fn render_dynamics(sidecar: &str) -> Result<String, String> {
    render_timeline(&Sidecar::parse(sidecar).map_err(|e| e.to_string())?)
}

fn render_timeline(sidecar: &Sidecar) -> Result<String, String> {
    let series = &sidecar.series;
    if series.is_empty() {
        return Err("sidecar has no samples to plot".into());
    }
    let cadence_ms = sidecar.sample_every_ns.map(|ns| ns / 1e6);

    let end = series
        .values()
        .flat_map(|s| s.iter().map(|p| p.0))
        .fold(0.0f64, f64::max);
    let mut out = String::new();
    writeln!(
        out,
        "# dynamics — {} series over {:.1} s{}",
        series.len(),
        end,
        cadence_ms.map_or(String::new(), |ms| format!(", sampled every {ms:.0} ms")),
    )
    .unwrap();
    // Panels in control-loop order; unknown signals (future schema
    // additions) follow alphabetically rather than disappearing.
    let panel_rank = |sig: &str| {
        PANEL_ORDER
            .iter()
            .position(|p| *p == sig)
            .unwrap_or(PANEL_ORDER.len())
    };
    let mut keys: Vec<&(String, String)> = series.keys().collect();
    keys.sort_by(|a, b| (panel_rank(&a.0), a).cmp(&(panel_rank(&b.0), b)));
    for key in keys {
        let pts = &series[key];
        let lo = pts.iter().map(|p| p.1).fold(f64::MAX, f64::min);
        let hi = pts.iter().map(|p| p.1).fold(f64::MIN, f64::max);
        writeln!(
            out,
            "{:<17} {:<16} {:<60} [{:.3} .. {:.3}]",
            key.0,
            key.1,
            sparkline(pts, 60),
            lo,
            hi
        )
        .unwrap();
    }
    for (counter, scope, n) in &sidecar.counters {
        writeln!(out, "counter {counter} {scope}: {n}").unwrap();
    }
    for (hist, _, h) in &sidecar.hists {
        writeln!(out, "histogram {hist}: {} sample(s)", h.count()).unwrap();
    }
    if sidecar.events > 0 {
        writeln!(out, "events: {} row(s)", sidecar.events).unwrap();
    }
    Ok(out)
}

/// The `dynamics` figure: run the `dynamics` preset (a small ABC
/// scenario over a square-wave link, telemetry on), then render the
/// timeline from its sidecar alone.
pub fn dynamics_figure(scale: Scale) -> String {
    let (_, sidecars) = crate::figures::run_with_sidecars(&crate::presets::dynamics(scale));
    render_timeline(&sidecars[0]).expect("engine-written sidecar must render")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_renders_the_paper_panels() {
        let f = dynamics_figure(Scale::Tiny);
        for sig in ["mark_frac", "abc_token", "qdelay_ms", "cwnd"] {
            assert!(f.contains(sig), "panel {sig} missing from:\n{f}");
        }
        assert!(f.contains("link:bottleneck"), "{f}");
        assert!(f.contains("flow:1"), "{f}");
    }

    #[test]
    fn render_is_pure_over_the_sidecar() {
        use experiments::engine::{ScenarioEngine, ScenarioSpec};
        use experiments::{LinkSpec, Scheme};
        use netsim::rate::Rate;
        let spec = ScenarioSpec::single(Scheme::Abc, LinkSpec::Constant(Rate::from_mbps(12.0)))
            .duration_secs(2)
            .warmup_secs(0)
            .telemetry(netsim::telemetry::TelemetryConfig::default());
        let mut b = ScenarioEngine::new().build(&spec);
        b.run_to_end();
        let sidecar = b.sidecar().unwrap();
        assert_eq!(
            render_dynamics(&sidecar).unwrap(),
            render_dynamics(&sidecar).unwrap()
        );
    }

    #[test]
    fn rejects_foreign_or_missing_headers() {
        assert!(render_dynamics("").is_err());
        assert!(render_dynamics("{\"schema\":\"something-else/v9\"}\n").is_err());
        assert!(render_dynamics("not json\n").is_err());
    }
}
