//! Every figure of the paper, one layer: each figure's sweep is a
//! [`Campaign`](crate::Campaign) preset (registered in
//! [`presets::all`] under the figure id, or the shared sweep it reads)
//! and its body is a **pure renderer over run records** — the same
//! records `abc-campaign run` writes to a store — plus, for within-run
//! time series, the points' telemetry sidecars. A stored sweep can be
//! re-rendered without re-simulating.
//!
//! Three figures have no scenario outcome to store and compute directly:
//! `marking` drives one qdisc in isolation, and `fig4`/`fig5` read the
//! Wi-Fi AP estimator's internal log.
//!
//! [`all`] is the complete figure index, in the paper's order.

use crate::aggregate::stat_by;
use crate::presets;
use crate::runner::{find, labels_of, run_campaign, run_campaign_sidecars, RunOptions, RunRecord};
use crate::sidecar::Sidecar;
use experiments::figures::Scale;
use std::fmt::Write;

pub mod ablations;
pub mod coexistence;
pub mod explicit_figs;
pub mod motivation;
pub mod stability_fig;
pub mod wifi_figs;

/// A figure: renders its rows/series at the given scale.
pub type FigureFn = fn(Scale) -> String;

fn run(campaign: &crate::spec::Campaign) -> Vec<RunRecord> {
    run_campaign(campaign, &RunOptions::quiet())
}

/// Run a preset that records telemetry: its records and, beside each,
/// its parsed sidecar.
pub(crate) fn run_with_sidecars(
    campaign: &crate::spec::Campaign,
) -> (Vec<RunRecord>, Vec<Sidecar>) {
    run_campaign_sidecars(campaign, &RunOptions::quiet())
        .into_iter()
        .map(|(record, text)| {
            let text = text.expect("the preset records telemetry");
            let sidecar = Sidecar::parse(&text).expect("engine-written sidecar parses");
            (record, sidecar)
        })
        .unzip()
}

/// `x / by` to two decimals, or `n/a` when there is nothing to divide by.
fn ratio(x: f64, by: f64) -> String {
    if by == 0.0 {
        "n/a".to_string()
    } else {
        format!("{:.2}", x / by)
    }
}

/// Table 1 of §1: throughput and 95th-percentile delay normalized to ABC,
/// averaged over the traces.
pub fn table1(scale: Scale) -> String {
    render_table1(&run(&presets::table1(scale)))
}

/// Render Table 1 from matrix records (axes `scheme` × `trace`). A
/// column whose ABC mean is 0 (or that has no ABC row) reads `n/a`.
pub fn render_table1(records: &[RunRecord]) -> String {
    let util = stat_by(records, "scheme", |r| r.report.utilization);
    let delay = stat_by(records, "scheme", |r| r.report.delay_ms.p95);
    let abc_mean = |col: &[(String, crate::aggregate::Stat)]| {
        col.iter()
            .find(|(s, _)| s == "ABC")
            .map_or(0.0, |(_, st)| st.mean)
    };
    let (abc_util, abc_delay) = (abc_mean(&util), abc_mean(&delay));
    let mut out = String::new();
    writeln!(
        out,
        "# Table 1 — normalized throughput and 95p delay (ABC = 1)"
    )
    .unwrap();
    writeln!(
        out,
        "{:<14} {:>11} {:>18}",
        "Scheme", "Norm. Tput", "Norm. Delay (95%)"
    )
    .unwrap();
    for ((s, u), (_, d)) in util.iter().zip(&delay) {
        writeln!(
            out,
            "{:<14} {:>11} {:>18}",
            s,
            ratio(u.mean, abc_util),
            ratio(d.mean, abc_delay)
        )
        .unwrap();
    }
    out
}

/// Fig. 8: utilization vs 95th-percentile per-packet delay on (a) a
/// downlink trace, (b) an uplink trace, (c) the two-hop uplink+downlink
/// path. One row per scheme per panel; the Pareto frontier of the
/// *non-ABC* schemes is flagged so ABC's position relative to it is
/// explicit.
pub fn fig8(scale: Scale) -> String {
    render_fig8(&run(&presets::pareto(scale)))
}

/// Render Fig. 8 from pareto records (axes `path` × `scheme`).
pub fn render_fig8(records: &[RunRecord]) -> String {
    let mut out = String::new();
    for (label, title) in [
        ("down", "a (downlink)"),
        ("up", "b (uplink)"),
        ("up+down", "c (uplink+downlink, two-hop)"),
    ] {
        let rows: Vec<(String, f64, f64)> = records
            .iter()
            .filter(|r| r.coords.get("path") == Some(label))
            .map(|r| {
                (
                    r.report.scheme.clone(),
                    r.report.utilization,
                    r.report.delay_ms.p95,
                )
            })
            .collect();
        writeln!(out, "\n## Fig 8{title}").unwrap();
        writeln!(
            out,
            "{:<14} {:>7} {:>16} {:>8}",
            "Scheme", "Util", "95p delay (ms)", "Pareto"
        )
        .unwrap();
        // Pareto frontier among non-ABC schemes: no other scheme has both
        // higher util and lower delay
        for (n, u, d) in &rows {
            let is_abc = n.starts_with("ABC");
            let dominated = rows
                .iter()
                .filter(|(m, ..)| !m.starts_with("ABC") && m != n)
                .any(|(_, u2, d2)| *u2 >= *u && *d2 <= *d);
            let tag = if is_abc {
                if !dominated {
                    "OUTSIDE"
                } else {
                    "inside"
                }
            } else if !dominated {
                "frontier"
            } else {
                ""
            };
            writeln!(out, "{:<14} {:>7.3} {:>16.1} {:>8}", n, u, d, tag).unwrap();
        }
    }
    out
}

/// Fig. 9: utilization and 95th-percentile delay for every scheme on every
/// trace, plus the cross-trace average.
pub fn fig9(scale: Scale) -> String {
    render_matrix(&run(&presets::cellular_matrix(scale)), false)
}

/// Fig. 15 (Appendix C): same sweep, *mean* per-packet delay.
pub fn fig15(scale: Scale) -> String {
    render_matrix(&run(&presets::cellular_matrix(scale)), true)
}

/// Render the scheme × trace matrix (Figs. 9/15) from its records.
pub fn render_matrix(records: &[RunRecord], mean_delay: bool) -> String {
    let schemes = labels_of(records, "scheme");
    let trs = labels_of(records, "trace");
    let mut out = String::new();
    let which = if mean_delay { "mean" } else { "95p" };
    writeln!(
        out,
        "# Fig {} — utilization and {which} per-packet delay per trace",
        if mean_delay { "15" } else { "9" }
    )
    .unwrap();
    write!(out, "{:<14}", "Scheme").unwrap();
    for t in &trs {
        write!(out, " {:>18}", t).unwrap();
    }
    writeln!(out, " {:>18}", "AVERAGE").unwrap();
    for s in &schemes {
        write!(out, "{:<14}", s).unwrap();
        let mut us = Vec::new();
        let mut ds = Vec::new();
        for t in &trs {
            let c = find(records, &[("scheme", s), ("trace", t)])
                .unwrap_or_else(|| panic!("matrix cell ({s}, {t}) missing"));
            let d = if mean_delay {
                c.report.delay_ms.mean
            } else {
                c.report.delay_ms.p95
            };
            us.push(c.report.utilization);
            ds.push(d);
            write!(out, " {:>8.2}/{:>6.0}ms", c.report.utilization, d).unwrap();
        }
        let mu = us.iter().sum::<f64>() / us.len() as f64;
        let md = ds.iter().sum::<f64>() / ds.len() as f64;
        writeln!(out, " {:>8.2}/{:>6.0}ms", mu, md).unwrap();
    }
    out
}

/// Fig. 16: utilization and 95p delay of ABC / XCP / XCPw / VCP / RCP
/// across the cellular traces.
pub fn fig16(scale: Scale) -> String {
    render_fig16(&run(&presets::explicit_matrix(scale)))
}

/// Render Fig. 16 from explicit-matrix records.
pub fn render_fig16(records: &[RunRecord]) -> String {
    let util = stat_by(records, "scheme", |r| r.report.utilization);
    let p95 = stat_by(records, "scheme", |r| r.report.delay_ms.p95);
    let mean = stat_by(records, "scheme", |r| r.report.delay_ms.mean);
    let n_traces = labels_of(records, "trace").len();
    let mut out = String::new();
    writeln!(
        out,
        "# Fig 16 — ABC vs explicit control (avg over {n_traces} traces)"
    )
    .unwrap();
    writeln!(
        out,
        "{:<8} {:>7} {:>16} {:>16}",
        "Scheme", "Util", "95p delay (ms)", "mean delay (ms)"
    )
    .unwrap();
    for ((s, u), ((_, p), (_, m))) in util.iter().zip(p95.iter().zip(&mean)) {
        writeln!(
            out,
            "{:<8} {:>7.3} {:>16.1} {:>16.1}",
            s, u.mean, p.mean, m.mean
        )
        .unwrap();
    }
    out
}

/// Fig. 18 (Appendix E): the lineup at RTT ∈ {20, 50, 100, 200} ms on one
/// trace; reports utilization and 95p *queuing* delay (the appendix's
/// y-axis), so propagation differences don't mask the comparison.
pub fn fig18(scale: Scale) -> String {
    render_fig18(&run(&presets::rtt_grid(scale)))
}

/// Render Fig. 18 from rtt-grid records (axes `scheme` × `rtt_ms`).
pub fn render_fig18(records: &[RunRecord]) -> String {
    let schemes = labels_of(records, "scheme");
    let rtts = labels_of(records, "rtt_ms");
    let mut out = String::new();
    writeln!(
        out,
        "# Fig 18 — RTT sensitivity (utilization / 95p queuing delay ms)"
    )
    .unwrap();
    write!(out, "{:<14}", "Scheme").unwrap();
    for r in &rtts {
        write!(out, " {:>16}", format!("RTT {r}ms")).unwrap();
    }
    writeln!(out).unwrap();
    for s in &schemes {
        write!(out, "{:<14}", s).unwrap();
        for rtt in &rtts {
            let c = find(records, &[("scheme", s), ("rtt_ms", rtt)])
                .unwrap_or_else(|| panic!("rtt-grid cell ({s}, {rtt}) missing"));
            write!(
                out,
                " {:>8.2}/{:>5.0}ms",
                c.report.utilization, c.report.qdelay_ms.p95
            )
            .unwrap();
        }
        writeln!(out).unwrap();
    }
    out
}

/// Web workload figure: FCT percentiles per scheme × offered load.
pub fn web_fct(scale: Scale) -> String {
    render_web_fct(&run(&presets::web_load_grid(scale)))
}

/// Render the web-FCT table from `web-load-grid` records (axes `scheme`
/// × `load`).
pub fn render_web_fct(records: &[RunRecord]) -> String {
    let schemes = labels_of(records, "scheme");
    let loads = labels_of(records, "load");
    let mut out = String::new();
    writeln!(
        out,
        "# Web FCT — completion time p50/p95/p99 (ms) per scheme × offered load"
    )
    .unwrap();
    write!(out, "{:<14}", "Scheme").unwrap();
    for l in &loads {
        write!(out, " {:>26}", format!("load {l}")).unwrap();
    }
    writeln!(out).unwrap();
    for s in &schemes {
        write!(out, "{:<14}", s).unwrap();
        for l in &loads {
            let c = find(records, &[("scheme", s), ("load", l)])
                .unwrap_or_else(|| panic!("web-load-grid cell ({s}, {l}) missing"));
            let web = c
                .report
                .app
                .as_ref()
                .and_then(|a| a.web.as_ref())
                .unwrap_or_else(|| panic!("cell ({s}, {l}) has no web metrics"));
            write!(
                out,
                " {:>7.0}/{:>7.0}/{:>7.0}ms",
                web.fct_ms.p50, web.fct_ms.p95, web.fct_ms.p99
            )
            .unwrap();
        }
        writeln!(out).unwrap();
    }
    writeln!(out, "\ncompleted / issued requests:").unwrap();
    for s in &schemes {
        write!(out, "{:<14}", s).unwrap();
        for l in &loads {
            let c = find(records, &[("scheme", s), ("load", l)]).expect("cell");
            let web = c.report.app.as_ref().and_then(|a| a.web.as_ref()).unwrap();
            write!(out, " {:>12}", format!("{}/{}", web.completed, web.flows)).unwrap();
        }
        writeln!(out).unwrap();
    }
    out
}

/// ABR video figure: rebuffer ratio, mean bitrate, and QoE per scheme ×
/// trace.
pub fn video_qoe(scale: Scale) -> String {
    render_video_qoe(&run(&presets::video_over_cellular(scale)))
}

/// Render the video-QoE matrix from `video-over-cellular` records (axes
/// `scheme` × `trace`).
pub fn render_video_qoe(records: &[RunRecord]) -> String {
    let schemes = labels_of(records, "scheme");
    let trs = labels_of(records, "trace");
    let mut out = String::new();
    writeln!(
        out,
        "# ABR video — rebuffer% / mean kbit/s / QoE per scheme × trace"
    )
    .unwrap();
    write!(out, "{:<14}", "Scheme").unwrap();
    for t in &trs {
        write!(out, " {:>22}", t).unwrap();
    }
    writeln!(out).unwrap();
    for s in &schemes {
        write!(out, "{:<14}", s).unwrap();
        for t in &trs {
            let c = find(records, &[("scheme", s), ("trace", t)])
                .unwrap_or_else(|| panic!("video cell ({s}, {t}) missing"));
            let v = c
                .report
                .app
                .as_ref()
                .and_then(|a| a.video.as_ref())
                .unwrap_or_else(|| panic!("cell ({s}, {t}) has no video metrics"));
            write!(
                out,
                " {:>6.1}%/{:>5.0}k/{:>6.2}",
                v.rebuffer_ratio * 100.0,
                v.mean_bitrate_kbps,
                v.qoe
            )
            .unwrap();
        }
        writeln!(out).unwrap();
    }
    out
}

/// RTC coexistence figure: deadline misses and bulk throughput per
/// scheme.
pub fn rtc_coexist_fig(scale: Scale) -> String {
    render_rtc_coexist(&run(&presets::rtc_coexist(scale)))
}

/// Render the RTC-coexistence table from `rtc-coexist` records (axis
/// `scheme`).
pub fn render_rtc_coexist(records: &[RunRecord]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "# RTC coexistence — a 300 kbit/s stream beside one bulk flow"
    )
    .unwrap();
    writeln!(
        out,
        "{:<14} {:>10} {:>14} {:>14} {:>16}",
        "Scheme", "miss rate", "OWD p95 (ms)", "OWD p99 (ms)", "total tput Mbit/s"
    )
    .unwrap();
    for r in records {
        let rtc = r
            .report
            .app
            .as_ref()
            .and_then(|a| a.rtc.as_ref())
            .unwrap_or_else(|| panic!("record {} has no rtc metrics", r.coords));
        writeln!(
            out,
            "{:<14} {:>9.1}% {:>14.1} {:>14.1} {:>16.2}",
            r.report.scheme,
            rtc.miss_rate * 100.0,
            rtc.owd_ms.p95,
            rtc.owd_ms.p99,
            r.report.total_tput_mbps
        )
        .unwrap();
    }
    out
}

/// Many-users figure: fairness and web tail FCT as the client count
/// scales 10 → 10k on one bottleneck.
pub fn many_users_fig(scale: Scale) -> String {
    render_many_users(&run(&presets::many_users(scale)))
}

/// Render the many-users table from `many-users` records (axis
/// `clients`): Jain fairness across the bulk fleet, web FCT tails from
/// the rider workload, and aggregate throughput per client count.
pub fn render_many_users(records: &[RunRecord]) -> String {
    let counts = labels_of(records, "clients");
    let mut out = String::new();
    writeln!(
        out,
        "# Many users — fairness and web tail FCT vs client count (one ABC bottleneck)"
    )
    .unwrap();
    writeln!(
        out,
        "{:<10} {:>8} {:>14} {:>14} {:>18}",
        "Clients", "Jain", "FCT p95 (ms)", "FCT p99 (ms)", "total tput Mbit/s"
    )
    .unwrap();
    for c in &counts {
        let r = find(records, &[("clients", c)])
            .unwrap_or_else(|| panic!("many-users cell clients={c} missing"));
        let web = r
            .report
            .app
            .as_ref()
            .and_then(|a| a.web.as_ref())
            .unwrap_or_else(|| panic!("clients={c} has no web metrics"));
        writeln!(
            out,
            "{:<10} {:>8.3} {:>14.0} {:>14.0} {:>18.2}",
            c, r.report.jain, web.fct_ms.p95, web.fct_ms.p99, r.report.total_tput_mbps
        )
        .unwrap();
    }
    out
}

/// Robustness figure: every scheme under the adversarial impairment
/// axis (loss, burst loss, reordering, jitter, outages, ACK
/// decimation), with the impaired-packet counts the wires recorded.
pub fn robustness_fig(scale: Scale) -> String {
    render_robustness(&run(&presets::robustness(scale)))
}

/// Render the robustness table from `robustness` records (axes
/// `scheme` × `impairment`). The `none` control row shows each scheme's
/// clean-path baseline; every other row shows how far throughput and
/// tail delay degrade under that impairment, plus how many packets the
/// impairment wires actually hit.
pub fn render_robustness(records: &[RunRecord]) -> String {
    let impairments = labels_of(records, "impairment");
    let schemes = labels_of(records, "scheme");
    let mut out = String::new();
    writeln!(
        out,
        "# Robustness — throughput and 95p delay under adversarial impairments"
    )
    .unwrap();
    writeln!(
        out,
        "{:<14} {:<14} {:>12} {:>14} {:>14} {:>14}",
        "Impairment", "Scheme", "tput Mbit/s", "delay p95 (ms)", "delay p99 (ms)", "pkts impaired"
    )
    .unwrap();
    for imp in &impairments {
        for s in &schemes {
            let r = find(records, &[("impairment", imp), ("scheme", s)])
                .unwrap_or_else(|| panic!("robustness cell impairment={imp} scheme={s} missing"));
            let hit: u64 = r.report.impairments.iter().map(|i| i.impaired).sum();
            writeln!(
                out,
                "{:<14} {:<14} {:>12.2} {:>14.1} {:>14.1} {:>14}",
                imp, s, r.report.total_tput_mbps, r.report.delay_ms.p95, r.report.delay_ms.p99, hit
            )
            .unwrap();
        }
    }
    out
}

/// Incremental-deployment figure: throughput share and queueing delay
/// as the ABC-capable hop count on a 4-hop parking lot grows 0 → 4.
pub fn coexistence(scale: Scale) -> String {
    render_coexistence(&run(&presets::parking_lot(scale)))
}

/// Render the coexistence table from `parking-lot` records (axes
/// `abc_hops` × `seed`): the ABC-Cubic flow's throughput share against
/// its Cubic cross flow, and the last-hop queueing delay, per
/// ABC-capable hop count (averaged over seeds).
pub fn render_coexistence(records: &[RunRecord]) -> String {
    let hops = labels_of(records, "abc_hops");
    let mut out = String::new();
    writeln!(
        out,
        "# Coexistence — ABC-Cubic vs a Cubic cross flow on a 4-hop parking lot"
    )
    .unwrap();
    writeln!(
        out,
        "{:<10} {:>9} {:>13} {:>14} {:>7} {:>16}",
        "ABC hops", "ABC frac", "main Mbit/s", "cross Mbit/s", "share", "qdelay p95 (ms)"
    )
    .unwrap();
    for h in &hops {
        let cells: Vec<&RunRecord> = records
            .iter()
            .filter(|r| r.coords.get("abc_hops") == Some(h.as_str()))
            .collect();
        assert!(!cells.is_empty(), "parking-lot cell abc_hops={h} missing");
        let n = cells.len() as f64;
        let mean = |f: &dyn Fn(&RunRecord) -> f64| cells.iter().map(|r| f(r)).sum::<f64>() / n;
        let main = mean(&|r| r.report.flow_tputs_mbps[0]);
        let cross = mean(&|r| r.report.flow_tputs_mbps.get(1).copied().unwrap_or(0.0));
        let qdelay = mean(&|r| r.report.qdelay_ms.p95);
        let share = if main + cross > 0.0 {
            main / (main + cross)
        } else {
            0.0
        };
        let frac = h.parse::<f64>().map(|k| k / 4.0).unwrap_or(0.0);
        writeln!(
            out,
            "{:<10} {:>9.2} {:>13.2} {:>14.2} {:>7.2} {:>16.1}",
            h, frac, main, cross, share, qdelay
        )
        .unwrap();
    }
    out
}

/// The complete figure index, in the paper's order: `(id, description,
/// figure)`.
pub fn all() -> Vec<(&'static str, &'static str, FigureFn)> {
    vec![
        ("table1", "§1 normalized tput/delay summary", table1),
        (
            "fig1",
            "motivation time series (Cubic/Verus/Cubic+CoDel/ABC)",
            motivation::fig1,
        ),
        ("fig2", "dequeue- vs enqueue-rate feedback", ablations::fig2),
        (
            "fig3",
            "fairness with/without additive increase",
            ablations::fig3,
        ),
        (
            "fig4",
            "Wi-Fi inter-ACK time vs batch size",
            wifi_figs::fig4,
        ),
        (
            "fig5",
            "Wi-Fi link-rate prediction accuracy",
            wifi_figs::fig5,
        ),
        (
            "fig6",
            "coexistence with a non-ABC bottleneck (dual windows)",
            coexistence::fig6,
        ),
        (
            "fig7",
            "coexistence with non-ABC flows (dual queue)",
            coexistence::fig7,
        ),
        (
            "fig8",
            "utilization vs 95p delay Pareto (down/up/two-hop)",
            fig8,
        ),
        ("fig9", "utilization + 95p delay across 8 traces", fig9),
        (
            "fig10",
            "Wi-Fi throughput/delay, 1 and 2 users",
            wifi_figs::fig10,
        ),
        (
            "fig11",
            "non-ABC bottleneck with cross traffic",
            coexistence::fig11,
        ),
        (
            "fig12",
            "max-min vs Zombie-List weights under short flows",
            coexistence::fig12,
        ),
        ("fig13", "application-limited ABC flows", coexistence::fig13),
        ("fig14", "Wi-Fi Brownian-motion MCS", wifi_figs::fig14),
        ("fig15", "mean per-packet delay across traces", fig15),
        ("fig16", "ABC vs explicit schemes (XCP/XCPw/RCP/VCP)", fig16),
        (
            "fig17",
            "square-wave link time series (ABC/RCP/XCPw)",
            explicit_figs::fig17,
        ),
        ("fig18", "RTT sensitivity sweep", fig18),
        (
            "pk_abc",
            "§6.6 perfect-future-knowledge ABC",
            ablations::pk_abc,
        ),
        (
            "stability",
            "Theorem 3.1 δ/τ stability sweep",
            stability_fig::stability,
        ),
        ("jain", "§6.5 Jain index, 2..32 ABC flows", ablations::jain),
        (
            "marking",
            "deterministic vs probabilistic marking ablation",
            ablations::marking,
        ),
        (
            "web-fct",
            "web flow-completion times vs offered load",
            web_fct,
        ),
        (
            "video-qoe",
            "ABR video rebuffer/bitrate/QoE across traces",
            video_qoe,
        ),
        (
            "rtc-coexist",
            "RTC deadline misses beside a bulk flow",
            rtc_coexist_fig,
        ),
        (
            "many-users",
            "Jain fairness + web tail FCT at 10→10k clients",
            many_users_fig,
        ),
        (
            "robustness",
            "throughput/delay degradation under adversarial impairments",
            robustness_fig,
        ),
        (
            "coexistence",
            "ABC-Cubic throughput share + qdelay vs ABC-capable hop fraction",
            coexistence,
        ),
        (
            "dynamics",
            "control-law timeline (marks/token/qdelay/cwnd) from a telemetry sidecar",
            crate::dynamics::dynamics_figure,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_is_complete_and_ordered() {
        let all = all();
        assert_eq!(all.len(), 30, "figure index changed size");
        let ids: Vec<&str> = all.iter().map(|(id, ..)| *id).collect();
        assert_eq!(ids[0], "table1");
        let f8 = ids.iter().position(|&i| i == "fig8").unwrap();
        let f9 = ids.iter().position(|&i| i == "fig9").unwrap();
        assert!(f8 < f9);
        assert!(ids.contains(&"stability") && ids.contains(&"marking"));
        // no duplicates
        let mut sorted = ids.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len(), "duplicate figure ids: {ids:?}");
    }

    #[test]
    fn table1_prints_na_without_an_abc_baseline() {
        let empty = render_table1(&[]);
        assert_eq!(empty.lines().count(), 2, "{empty}");
        // 2 s runs end inside the 5 s warm-up, so every ABC mean is 0
        let t = table1(Scale::Tiny);
        for row in t.lines().skip(2) {
            assert!(row.ends_with("n/a") && !row.contains("NaN"), "{row}");
        }
    }

    #[test]
    fn table1_normalizes_to_abc() {
        let t = table1(Scale::Fast);
        // the ABC row must read 1.00 / 1.00
        let abc_line = t.lines().find(|l| l.starts_with("ABC")).unwrap();
        assert!(abc_line.contains("1.00"), "{abc_line}");
    }

    #[test]
    fn fig8_flags_abc_outside_frontier() {
        let f = fig8(Scale::Fast);
        assert!(f.contains("Fig 8a"));
        assert!(f.contains("Fig 8c"));
        // ABC should be outside the non-ABC frontier on at least one panel
        assert!(f.contains("OUTSIDE"), "{f}");
    }

    #[test]
    fn rendering_is_a_pure_function_of_stored_records() {
        // Re-rendering records loaded from a store must reproduce the
        // figure byte-for-byte: figures are renderers, not simulations.
        let campaign = presets::rtt_grid(Scale::Tiny);
        let records = run(&campaign);
        let direct = render_fig18(&records);
        let store = crate::store::ResultsStore::new(&campaign, records);
        let reloaded = crate::store::ResultsStore::from_jsonl(&store.to_jsonl()).unwrap();
        assert_eq!(render_fig18(&reloaded.records), direct);
    }
}
