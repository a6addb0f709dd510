//! Fig. 1: the motivation time series — Cubic bufferbloat, Verus
//! oscillation, Cubic+CoDel underutilization, ABC tracking.

use super::run;
use crate::presets;
use crate::runner::RunRecord;
use experiments::figures::Scale;
use experiments::sparkline;
use std::fmt::Write;

/// Fig. 1: the motivating bufferbloat-vs-underutilization contrast.
pub fn fig1(scale: Scale) -> String {
    render_fig1(&run(&presets::fig1(scale)))
}

/// Render Fig. 1 from `fig1` records (axis `scheme`, one panel each).
pub fn render_fig1(records: &[RunRecord]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "# Fig 1 — 30 s on an emulated LTE link (dashed = capacity)"
    )
    .unwrap();
    for (panel, rec) in ["a", "b", "c", "d"].iter().zip(records) {
        let r = &rec.report;
        writeln!(out, "\n## Fig 1{panel} — {}", r.scheme).unwrap();
        writeln!(out, "capacity : {}", sparkline(&r.capacity_series, 60)).unwrap();
        writeln!(out, "goodput  : {}", sparkline(&r.tput_series, 60)).unwrap();
        writeln!(out, "qdelay   : {}", sparkline(&r.qdelay_series, 60)).unwrap();
        writeln!(
            out,
            "util {:>5.1}%  qdelay p50/p95/max {:>6.0}/{:>6.0}/{:>6.0} ms",
            r.utilization * 100.0,
            r.qdelay_ms.p50,
            r.qdelay_ms.p95,
            r.qdelay_ms.max
        )
        .unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_shapes_hold() {
        let f = fig1(Scale::Fast);
        assert!(f.contains("Fig 1a"));
        assert!(f.contains("Fig 1d"));
        // crude shape check embedded in the output itself: parse the util
        // lines for Cubic (1a) and ABC (1d)
        let utils: Vec<f64> = f
            .lines()
            .filter(|l| l.starts_with("util"))
            .map(|l| {
                l.split('%')
                    .next()
                    .unwrap()
                    .split_whitespace()
                    .last()
                    .unwrap()
                    .parse()
                    .unwrap()
            })
            .collect();
        assert_eq!(utils.len(), 4);
        let (cubic, codel, abc) = (utils[0], utils[2], utils[3]);
        assert!(cubic > abc * 0.8, "Cubic keeps the link busy");
        assert!(abc > codel, "ABC out-utilizes Cubic+Codel");
    }
}
