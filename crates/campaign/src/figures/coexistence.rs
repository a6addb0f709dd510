//! Coexistence figures: Fig. 6 (non-ABC bottleneck, dual windows), Fig. 7
//! (dual queue vs Cubic), Fig. 11 (cross traffic), Fig. 12 (max-min vs
//! Zombie-List under short-flow load), Fig. 13 (application-limited flows).

use super::{run, run_with_sidecars};
use crate::presets;
use crate::runner::{labels_of, RunRecord};
use crate::sidecar::Sidecar;
use experiments::figures::Scale;
use experiments::sparkline;
use std::fmt::Write;

/// The wired hop's rate on the Figs. 6/11 path, Mbit/s.
const WIRED_MBPS: f64 = 12.0;

/// The link capacity in effect at `t` (s): the last point of a report's
/// `capacity_series` at or before it.
fn capacity_at(series: &[(f64, f64)], t: f64) -> f64 {
    let i = series.partition_point(|&(at, _)| at <= t);
    series[..i].last().map_or(0.0, |&(_, mbps)| mbps)
}

/// Mean `|goodput − ideal| / ideal` over the goodput bins past the 3 s
/// ramp-up, as a percentage (`n/a` without any), and the bin count.
fn tracking_error(goodput: &[(f64, f64)], ideal: impl Fn(f64) -> f64) -> (String, usize) {
    let errs: Vec<f64> = goodput
        .iter()
        .filter(|(t, _)| *t >= 3.0)
        .map(|&(t, g)| {
            let want = ideal(t);
            ((g - want) / want).abs()
        })
        .collect();
    let pct = if errs.is_empty() {
        "n/a".to_string()
    } else {
        format!(
            "{:.1}%",
            errs.iter().sum::<f64>() / errs.len() as f64 * 100.0
        )
    };
    (pct, errs.len())
}

/// Fig. 6: wireless rate steps every 5 s; a 12 Mbit/s wired droptail link
/// sits behind it. The flow must obey whichever window is tighter.
pub fn fig6(scale: Scale) -> String {
    let (records, sidecars) = run_with_sidecars(&presets::fig6(scale));
    render_fig6(&records[0], &sidecars[0])
}

/// Render Fig. 6 from the `fig6` record (the wireless capacity curve) and
/// its sidecar (the ABC flow's dual windows and goodput, both hops'
/// queuing delay).
pub fn render_fig6(record: &RunRecord, sidecar: &Sidecar) -> String {
    let capacity = &record.report.capacity_series;
    let goodput = sidecar.series("goodput_mbps", "flow:1");
    let mut out = String::new();
    writeln!(
        out,
        "# Fig 6 — coexistence with a non-ABC (wired) bottleneck"
    )
    .unwrap();
    writeln!(out, "wireless cap: {}", sparkline(capacity, 60)).unwrap();
    writeln!(out, "goodput     : {}", sparkline(goodput, 60)).unwrap();
    let w_abc = sidecar.series("w_abc", "flow:1");
    writeln!(out, "w_abc       : {}", sparkline(w_abc, 60)).unwrap();
    let w_cubic = sidecar.series("w_nonabc", "flow:1");
    writeln!(out, "w_cubic     : {}", sparkline(w_cubic, 60)).unwrap();
    let wireless = sidecar.series("qdelay_ms", "link:wireless");
    writeln!(out, "wireless qdelay: {}", sparkline(wireless, 60)).unwrap();
    let wired = sidecar.series("qdelay_ms", "link:wired");
    writeln!(out, "wired    qdelay: {}", sparkline(wired, 60)).unwrap();

    // regime analysis: when wireless < 12 the wireless hop binds; goodput
    // should track min(wireless, 12) throughout
    let (err, n) = tracking_error(goodput, |t| capacity_at(capacity, t).min(WIRED_MBPS));
    writeln!(
        out,
        "mean |goodput − min(wireless, wired)| / ideal = {err} over {n} samples"
    )
    .unwrap();
    out
}

/// Fig. 7: two ABC flows then two Cubic flows arrive one after another on
/// a dual-queue 24 Mbit/s bottleneck.
pub fn fig7(scale: Scale) -> String {
    let campaign = presets::fig7(scale);
    let (records, sidecars) = run_with_sidecars(&campaign);
    render_fig7(
        &records[0],
        &sidecars[0],
        campaign.base.warmup.as_secs_f64(),
    )
}

/// Mean per-flow goodput of the two ABC and the two Cubic long flows
/// (Mbit/s, from the record), and the ABC class's 95p queuing delay (ms):
/// the ABC flows' smoothed RTT from `warmup_s` on, less the 100 ms base
/// RTT (from the sidecar).
fn dual_queue_outcome(record: &RunRecord, sidecar: &Sidecar, warmup_s: f64) -> (f64, f64, f64) {
    let tputs = &record.report.flow_tputs_mbps;
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let mut qdelays: Vec<f64> = ["flow:1", "flow:2"]
        .iter()
        .flat_map(|scope| sidecar.series("srtt_ms", scope))
        .filter(|(t, _)| *t >= warmup_s)
        .map(|(_, srtt)| (srtt - 100.0).max(0.0))
        .collect();
    qdelays.sort_by(f64::total_cmp);
    let p95 = netsim::stats::percentile(&qdelays, 95.0);
    (mean(&tputs[..2]), mean(&tputs[2..4]), p95)
}

/// Render Fig. 7 from the `fig7` record and its sidecar: per-flow goodput
/// series, the mean ABC and Cubic goodput, and the ABC class's queuing
/// delay after `warmup_s`.
pub fn render_fig7(record: &RunRecord, sidecar: &Sidecar, warmup_s: f64) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "# Fig 7 — ABC and Cubic flows sharing a dual-queue ABC router"
    )
    .unwrap();
    for (i, name) in ["ABC 1", "ABC 2", "Cubic 1", "Cubic 2"].iter().enumerate() {
        let series = sidecar.series("goodput_mbps", &format!("flow:{}", i + 1));
        writeln!(out, "{name:<8}: {}", sparkline(series, 60)).unwrap();
    }
    let (abc, cubic, p95) = dual_queue_outcome(record, sidecar, warmup_s);
    writeln!(
        out,
        "steady-state per-flow goodput: ABC {:.2} Mbit/s, Cubic {:.2} Mbit/s ({:+.1}% apart)",
        abc,
        cubic,
        (abc - cubic) / cubic * 100.0
    )
    .unwrap();
    writeln!(out, "ABC-class 95p queuing delay: {p95:.1} ms").unwrap();
    out
}

/// Fig. 11: like Fig. 6 but with on-off Cubic cross traffic contending on
/// the wired hop; ABC should track min(wireless, fair share of wired).
pub fn fig11(scale: Scale) -> String {
    let (records, sidecars) = run_with_sidecars(&presets::fig11(scale));
    render_fig11(&records[0], &sidecars[0])
}

/// Render Fig. 11 from the `fig11` record and its sidecar.
pub fn render_fig11(record: &RunRecord, sidecar: &Sidecar) -> String {
    let capacity = &record.report.capacity_series;
    let goodput = sidecar.series("goodput_mbps", "flow:1");
    let mut out = String::new();
    writeln!(
        out,
        "# Fig 11 — non-ABC bottleneck with on-off Cubic cross traffic"
    )
    .unwrap();
    writeln!(out, "wireless cap : {}", sparkline(capacity, 60)).unwrap();
    writeln!(out, "ABC goodput  : {}", sparkline(goodput, 60)).unwrap();
    let cross = sidecar.series("goodput_mbps", "flow:2");
    writeln!(out, "cross traffic: {}", sparkline(cross, 60)).unwrap();
    let wireless = sidecar.series("qdelay_ms", "link:wireless");
    writeln!(out, "wireless qdly: {}", sparkline(wireless, 60)).unwrap();

    // tracking error against the ideal rate: min(wireless, wired fair
    // share), where the cross flow is on 20 s of every 30
    let ideal = |t: f64| {
        let cross_on = (t as u64) % 30 < 20;
        let wired_share = if cross_on {
            WIRED_MBPS / 2.0
        } else {
            WIRED_MBPS
        };
        capacity_at(capacity, t).min(wired_share)
    };
    let (err, _) = tracking_error(goodput, ideal);
    writeln!(out, "mean |goodput − ideal| / ideal = {err}").unwrap();
    out
}

/// Fig. 12: 3 ABC + 3 Cubic long flows + Poisson 10-KB short flows at
/// several offered loads; max-min weights vs RCP's Zombie List.
pub fn fig12(scale: Scale) -> String {
    render_fig12(&run(&presets::fig12(scale)))
}

/// Render Fig. 12 from `fig12` records (axes `policy` × `load` × `seed`):
/// the first three flows are the ABC long flows, the next three Cubic.
pub fn render_fig12(records: &[RunRecord]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "# Fig 12 — long-flow fairness under short-flow churn (96 Mbit/s)"
    )
    .unwrap();
    for policy in labels_of(records, "policy") {
        writeln!(out, "\n## {policy}").unwrap();
        writeln!(
            out,
            "{:>12} {:>22} {:>22} {:>8}",
            "load", "ABC Mbit/s (mean±sd)", "Cubic Mbit/s (mean±sd)", "gap"
        )
        .unwrap();
        for load in labels_of(records, "load") {
            let cells: Vec<&RunRecord> = records
                .iter()
                .filter(|r| {
                    r.coords.get("policy") == Some(policy.as_str())
                        && r.coords.get("load") == Some(load.as_str())
                })
                .collect();
            let tputs = |range: std::ops::Range<usize>| -> Vec<f64> {
                cells
                    .iter()
                    .flat_map(|r| r.report.flow_tputs_mbps[range.clone()].iter().copied())
                    .collect()
            };
            let a = netsim::stats::summarize_in_place(&mut tputs(0..3));
            let c = netsim::stats::summarize_in_place(&mut tputs(3..6));
            writeln!(
                out,
                "{:>11.2}% {:>15.2}±{:<5.2} {:>15.2}±{:<5.2} {:>+7.1}%",
                load.parse::<f64>().unwrap_or(f64::NAN) * 100.0,
                a.mean,
                a.std_dev,
                c.mean,
                c.std_dev,
                (c.mean - a.mean) / a.mean * 100.0
            )
            .unwrap();
        }
    }
    out
}

/// Fig. 13: one backlogged ABC flow sharing a cellular link with 200
/// application-limited ABC flows (1 Mbit/s aggregate).
pub fn fig13(scale: Scale) -> String {
    render_fig13(&run(&presets::fig13(scale))[0])
}

/// Render Fig. 13 from the `fig13` record: flow 1 is the backlogged
/// flow, every later flow application-limited.
pub fn render_fig13(record: &RunRecord) -> String {
    let r = &record.report;
    let mut out = String::new();
    writeln!(
        out,
        "# Fig 13 — {} application-limited ABC flows + 1 backlogged",
        record.coords.get("limited").unwrap_or("?")
    )
    .unwrap();
    writeln!(out, "goodput : {}", sparkline(&r.tput_series, 60)).unwrap();
    writeln!(out, "qdelay  : {}", sparkline(&r.qdelay_series, 60)).unwrap();
    writeln!(
        out,
        "util {:>5.1}%  qdelay p95 {:>6.1} ms  app-limited aggregate {:.2} Mbit/s",
        r.utilization * 100.0,
        r.qdelay_ms.p95,
        r.flow_tputs_mbps.iter().skip(1).sum::<f64>()
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::long_flows;
    use experiments::engine::{FlowSchedule, Topology};
    use experiments::LinkSpec;
    use netsim::rate::Rate;
    use netsim::time::{SimDuration, SimTime};

    #[test]
    fn tracking_error_without_samples_is_na() {
        assert_eq!(tracking_error(&[], |_| 12.0), ("n/a".to_string(), 0));
        let ramp_only = [(0.0, 5.0), (2.9, 6.0)];
        assert_eq!(tracking_error(&ramp_only, |_| 12.0).1, 0);
    }

    #[test]
    fn fig6_tracks_the_binding_constraint() {
        let f = fig6(Scale::Fast);
        let err: f64 = f
            .lines()
            .find(|l| l.contains("mean |goodput"))
            .and_then(|l| l.split('=').nth(1))
            .and_then(|x| {
                x.trim()
                    .trim_end_matches(|c: char| !c.is_ascii_digit() && c != '.')
                    .split('%')
                    .next()
            })
            .and_then(|x| x.trim().parse().ok())
            .unwrap();
        assert!(err < 30.0, "tracking error {err}%");
    }

    #[test]
    fn fig12_maxmin_fairer_than_zombie() {
        let f = fig12(Scale::Fast);
        // extract the gap column for the highest load of each policy
        let gaps: Vec<f64> = f
            .lines()
            .filter(|l| l.trim_start().starts_with("50.00%"))
            .map(|l| {
                l.trim_end_matches('%')
                    .rsplit_once(' ')
                    .unwrap()
                    .1
                    .parse::<f64>()
                    .unwrap()
                    .abs()
            })
            .collect();
        assert_eq!(gaps.len(), 2, "expected one 50% row per policy:\n{f}");
        assert!(
            gaps[0] < gaps[1],
            "max-min gap {}% should beat zombie-list {}%\n{f}",
            gaps[0],
            gaps[1]
        );
    }

    #[test]
    fn mixed_path_switches_bottleneck() {
        // wireless steps 16 → 6 → 16 Mbit/s; wired fixed 12
        let at = |s: u64| SimTime::ZERO + SimDuration::from_secs(s);
        let mut campaign = presets::fig6(Scale::Fast);
        campaign.base.topology = Topology::MixedPath {
            wireless: LinkSpec::Steps(vec![
                (at(0), Rate::from_mbps(16.0)),
                (at(20), Rate::from_mbps(6.0)),
                (at(40), Rate::from_mbps(16.0)),
            ]),
            wired: Rate::from_mbps(WIRED_MBPS),
        };
        campaign.base.duration = SimDuration::from_secs(60);
        let (_, sidecars) = run_with_sidecars(&campaign);
        // middle third: wireless (6) is the bottleneck; outer thirds:
        // wired (12). Check goodput in each regime.
        let goodput = sidecars[0].series("goodput_mbps", "flow:1");
        let mean_over = |from: f64, to: f64| {
            let v: Vec<f64> = goodput
                .iter()
                .filter(|(t, _)| (from..to).contains(t))
                .map(|&(_, g)| g)
                .collect();
            v.iter().sum::<f64>() / v.len().max(1) as f64
        };
        let (mid, outer) = (mean_over(25.0, 38.0), mean_over(45.0, 58.0));
        assert!((mid - 6.0).abs() < 1.2, "mid-regime goodput {mid}");
        assert!(
            outer > 9.5,
            "outer-regime goodput {outer} (wired should cap at ~12)"
        );
    }

    #[test]
    fn coexist_long_flows_share_fairly() {
        let mut campaign = presets::fig7(Scale::Fast);
        campaign.base.topology =
            Topology::SingleBottleneck(LinkSpec::Constant(Rate::from_mbps(48.0)));
        campaign.base.flows = FlowSchedule::Explicit(long_flows(2, 2, SimDuration::ZERO));
        campaign.base.duration = SimDuration::from_secs(60);
        campaign.base.warmup = SimDuration::from_secs(20);
        let (records, sidecars) = run_with_sidecars(&campaign);
        let (abc, cubic, abc_qdelay_p95) = dual_queue_outcome(&records[0], &sidecars[0], 20.0);
        let diff = (abc - cubic).abs() / abc.max(cubic);
        assert!(
            diff < 0.25,
            "ABC {abc:.2} vs Cubic {cubic:.2} Mbit/s ({diff:.2} apart)"
        );
        // ABC keeps its class's delay low despite the Cubic queue
        assert!(
            abc_qdelay_p95 < 100.0,
            "ABC-class queuing delay {abc_qdelay_p95:.1} ms"
        );
    }
}
