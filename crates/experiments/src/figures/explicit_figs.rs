//! Appendix D: the square-wave time series (Fig. 17). Its sibling
//! per-trace sweep (Fig. 16) is campaign-backed and lives in
//! `campaign::figures`.

use super::Scale;
use crate::engine::{ScenarioEngine, ScenarioSpec};
use crate::report::sparkline;
use crate::scenario::LinkSpec;
use crate::scheme::Scheme;
use netsim::rate::Rate;
use netsim::time::SimDuration;
use std::fmt::Write;

/// Fig. 17: 12 ↔ 24 Mbit/s square wave every 500 ms. ABC and XCPw track
/// the rate; RCP (rate-based) lags and underutilizes after drops.
pub fn fig17(scale: Scale) -> String {
    let dur = scale.secs(30, 10, 2);
    let mut out = String::new();
    writeln!(out, "# Fig 17 — square-wave link 12↔24 Mbit/s every 500 ms").unwrap();
    for scheme in [Scheme::Abc, Scheme::Rcp, Scheme::Xcpw] {
        let spec = ScenarioSpec::single(
            scheme,
            LinkSpec::Square {
                a: Rate::from_mbps(12.0),
                b: Rate::from_mbps(24.0),
                half_period: SimDuration::from_millis(500),
            },
        )
        .duration(dur)
        .warmup(scale.secs(2, 2, 0));
        let r = ScenarioEngine::new().run(&spec);
        writeln!(out, "\n## {}", scheme.name()).unwrap();
        writeln!(out, "goodput: {}", sparkline(&r.tput_series, 60)).unwrap();
        writeln!(out, "qdelay : {}", sparkline(&r.qdelay_series, 60)).unwrap();
        writeln!(
            out,
            "util {:>5.1}%  qdelay p50/p95 {:>5.0}/{:>5.0} ms",
            r.utilization * 100.0,
            r.qdelay_ms.p50,
            r.qdelay_ms.p95
        )
        .unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn utils_of(fig: &str) -> Vec<(String, f64)> {
        fig.lines()
            .filter(|l| l.contains("util") && l.contains('%'))
            .map(|l| {
                let u: f64 = l
                    .split("util")
                    .nth(1)
                    .unwrap()
                    .trim()
                    .split('%')
                    .next()
                    .unwrap()
                    .trim()
                    .parse()
                    .unwrap();
                (l.to_string(), u)
            })
            .collect()
    }

    #[test]
    fn fig17_abc_and_xcpw_beat_rcp_utilization() {
        let f = fig17(Scale::Fast);
        let utils = utils_of(&f);
        assert_eq!(utils.len(), 3, "{f}");
        let (abc, rcp, xcpw) = (utils[0].1, utils[1].1, utils[2].1);
        assert!(abc > rcp, "ABC {abc}% vs RCP {rcp}%\n{f}");
        assert!(xcpw > rcp, "XCPw {xcpw}% vs RCP {rcp}%\n{f}");
        assert!(abc > 85.0, "ABC utilization {abc}%");
    }
}
