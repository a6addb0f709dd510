//! Appendix D: the square-wave time series (Fig. 17). Its sibling
//! per-trace sweep (Fig. 16) renders the `explicit-matrix` preset.

use super::run;
use crate::presets;
use crate::runner::RunRecord;
use experiments::figures::Scale;
use experiments::sparkline;
use std::fmt::Write;

/// Fig. 17: 12 ↔ 24 Mbit/s square wave every 500 ms. ABC and XCPw track
/// the rate; RCP (rate-based) lags and underutilizes after drops.
pub fn fig17(scale: Scale) -> String {
    render_fig17(&run(&presets::fig17(scale)))
}

/// Render Fig. 17 from `fig17` records (axis `scheme`).
pub fn render_fig17(records: &[RunRecord]) -> String {
    let mut out = String::new();
    writeln!(out, "# Fig 17 — square-wave link 12↔24 Mbit/s every 500 ms").unwrap();
    for rec in records {
        let r = &rec.report;
        writeln!(out, "\n## {}", r.scheme).unwrap();
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
