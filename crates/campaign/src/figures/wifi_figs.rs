//! Wi-Fi figures: Fig. 4 (inter-ACK vs batch size), Fig. 5 (link-rate
//! prediction accuracy), Fig. 10 (single/two-user tradeoff), Fig. 14
//! (Brownian MCS). Figs. 4 and 5 read the AP estimator's internal log,
//! which no run record carries, so they build their scenarios directly.

use super::run;
use crate::presets;
use crate::runner::{labels_of, RunRecord};
use experiments::engine::{ScenarioEngine, ScenarioSpec};
use experiments::figures::Scale;
use experiments::{estimator_accuracy, McsSpec, Scheme};
use std::fmt::Write;

/// Fig. 4: mean inter-ACK time per A-MPDU batch size, with the regression
/// slope against S/R. Uses a lightly-loaded fixed-MCS link so every batch
/// size occurs.
pub fn fig4(scale: Scale) -> String {
    use netsim::flow::TrafficSource;
    let spec = ScenarioSpec::wifi(Scheme::Cubic, 1, McsSpec::Fixed(1))
        .duration(scale.secs(45, 10, 2))
        .warmup(scale.secs(5, 5, 0))
        .app(TrafficSource::RateLimited {
            rate: netsim::rate::Rate::from_mbps(8.0),
            burst_bytes: 40_000.0,
        });
    // build (not run) so the AP's batch log is reachable afterwards
    let mut b = ScenarioEngine::new().build(&spec);
    b.run_to_end();
    let ap = b.wifi_ap("wifi");
    let log = ap.estimator().batch_log();

    let mut out = String::new();
    writeln!(
        out,
        "# Fig 4 — inter-ACK time vs A-MPDU batch size (MCS 1, R = 13 Mbit/s)"
    )
    .unwrap();
    writeln!(
        out,
        "{:>6} {:>8} {:>14} {:>14}",
        "batch", "count", "mean T_IA (ms)", "sd (ms)"
    )
    .unwrap();
    let mut by_b: std::collections::BTreeMap<u32, Vec<f64>> = Default::default();
    for s in log {
        by_b.entry(s.batch)
            .or_default()
            .push(s.inter_ack.as_millis_f64());
    }
    for (b, v) in &mut by_b {
        let s = netsim::stats::summarize_in_place(v);
        writeln!(
            out,
            "{:>6} {:>8} {:>14.3} {:>14.3}",
            b, s.count, s.mean, s.std_dev
        )
        .unwrap();
    }
    // regression slope vs S/R
    let n = log.len() as f64;
    let sx: f64 = log.iter().map(|s| s.batch as f64).sum();
    let sy: f64 = log.iter().map(|s| s.inter_ack.as_secs_f64()).sum();
    let sxx: f64 = log.iter().map(|s| (s.batch as f64).powi(2)).sum();
    let sxy: f64 = log
        .iter()
        .map(|s| s.batch as f64 * s.inter_ack.as_secs_f64())
        .sum();
    let slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
    let expected = 12_000.0 / 13e6;
    writeln!(
        out,
        "regression slope {:.4} ms/frame (S/R = {:.4} ms/frame, error {:+.1}%)",
        slope * 1e3,
        expected * 1e3,
        (slope - expected) / expected * 100.0
    )
    .unwrap();
    out
}

/// Fig. 5: predicted vs true link rate for a non-backlogged sender over
/// three different Wi-Fi links (MCS 1, 4, 7), across offered loads.
pub fn fig5(scale: Scale) -> String {
    let dur = scale.secs(30, 10, 2);
    let mut out = String::new();
    writeln!(out, "# Fig 5 — Wi-Fi link-rate prediction vs offered load").unwrap();
    writeln!(
        out,
        "{:>5} {:>12} {:>12} {:>12} {:>10} {:>10}",
        "MCS", "offered", "predicted", "true cap", "error", "cap-bound"
    )
    .unwrap();
    for mcs in [1u8, 4, 7] {
        let loads: &[f64] = if scale.reduced() {
            &[4.0, 20.0]
        } else {
            &[2.0, 4.0, 8.0, 16.0, 24.0, 40.0]
        };
        for &offered in loads {
            let (off, pred, truth) = estimator_accuracy(mcs, offered, dur);
            // the estimator may legitimately sit at the 2×-dequeue-rate cap
            // when the link is barely used (the dashed line in Fig. 5)
            let cap_bound = pred < truth * 0.95 && pred <= 2.2 * off;
            writeln!(
                out,
                "{:>5} {:>9.1} M {:>9.2} M {:>9.2} M {:>+9.1}% {:>10}",
                mcs,
                off,
                pred,
                truth,
                (pred - truth) / truth * 100.0,
                if cap_bound { "yes" } else { "" }
            )
            .unwrap();
        }
    }
    out
}

/// Fig. 10: throughput vs 95p per-packet delay for the Wi-Fi lineup, with
/// the MCS alternating 1 ↔ 7 every 2 s; single-user and two-user panels.
pub fn fig10(scale: Scale) -> String {
    render_wifi_panel(
        "Fig 10 — Wi-Fi, MCS alternating 1↔7 every 2 s",
        &run(&presets::fig10(scale)),
    )
}

/// Fig. 14 (Appendix B): Brownian-motion MCS over [3, 7].
pub fn fig14(scale: Scale) -> String {
    render_wifi_panel(
        "Fig 14 — Wi-Fi, Brownian-motion MCS in [3, 7]",
        &run(&presets::fig14(scale)),
    )
}

/// Render Figs. 10/14 from Wi-Fi lineup records (axes `flows` × `scheme`),
/// one panel per user count.
pub fn render_wifi_panel(title: &str, records: &[RunRecord]) -> String {
    let mut out = String::new();
    writeln!(out, "# {title}").unwrap();
    for users in labels_of(records, "flows") {
        writeln!(out, "\n## {users} user(s)").unwrap();
        writeln!(
            out,
            "{:<14} {:>14} {:>16}",
            "Scheme", "tput (Mbit/s)", "95p delay (ms)"
        )
        .unwrap();
        let rows: Vec<(&str, f64, f64)> = records
            .iter()
            .filter(|r| r.coords.get("flows") == Some(users.as_str()))
            .map(|r| {
                let name = r.coords.get("scheme").unwrap_or("?");
                (name, r.report.total_tput_mbps, r.report.delay_ms.p95)
            })
            .collect();
        for (name, tput, p95) in &rows {
            writeln!(out, "{:<14} {:>14.2} {:>16.0}", name, tput, p95).unwrap();
        }
        // flag ABC's Pareto position like Fig. 8
        let abc_best = rows
            .iter()
            .filter(|(n, ..)| n.starts_with("ABC"))
            .any(|(_, tput, d)| {
                !rows
                    .iter()
                    .filter(|(m, ..)| !m.starts_with("ABC"))
                    .any(|(_, t2, d2)| t2 >= tput && d2 <= d)
            });
        writeln!(
            out,
            "ABC outside non-ABC Pareto frontier: {}",
            if abc_best { "yes" } else { "no" }
        )
        .unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_slope_matches_s_over_r() {
        let f = fig4(Scale::Fast);
        let err: f64 = f
            .lines()
            .find(|l| l.contains("regression slope"))
            .unwrap()
            .split("error")
            .nth(1)
            .unwrap()
            .trim()
            .trim_start_matches('+')
            .trim_end_matches("%)")
            .parse()
            .unwrap();
        assert!(err.abs() < 15.0, "slope error {err}%\n{f}");
    }

    #[test]
    fn fig5_accurate_or_cap_bound() {
        let f = fig5(Scale::Fast);
        for line in f.lines().skip(2) {
            if line.trim().is_empty() {
                continue;
            }
            let cap_bound = line.trim_end().ends_with("yes");
            let err: f64 = line
                .split_whitespace()
                .nth(7)
                .unwrap()
                .trim_start_matches('+')
                .trim_end_matches('%')
                .parse()
                .unwrap();
            assert!(
                cap_bound || err.abs() < 8.0,
                "prediction off and not cap-bound: {line}"
            );
        }
    }
}
