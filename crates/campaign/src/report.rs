//! Run-health report rendered from a run ledger: wall-time breakdown,
//! worker utilization, straggler table, retry/watchdog/error rollup —
//! and, given the run's telemetry sidecars, cross-point aggregation
//! that merges the bit-deterministic counters and [`LogHistogram`]s
//! across all points grouped by axis value (histogram merging is
//! associative and commutative, so the grouping order cannot change
//! the numbers).

use crate::runlog::{stats, PointSpan, RunLedger};
use crate::sidecar::Sidecar;
use netsim::telemetry::LogHistogram;
use std::collections::BTreeMap;
use std::fmt::Write;
use std::path::Path;

/// One axis value's telemetry: the counters summed and histograms merged
/// over every scope of its points' sidecars (gauge samples are skipped —
/// aggregation wants totals and distributions, not time series).
#[derive(Default)]
struct Group {
    points: usize,
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, LogHistogram>,
}

impl Group {
    fn add(&mut self, sidecar: &Sidecar) {
        self.points += 1;
        for (counter, _, n) in &sidecar.counters {
            let total = self.counters.entry(counter.clone()).or_insert(0);
            *total = total.saturating_add(*n);
        }
        for (hist, _, h) in &sidecar.hists {
            self.hists.entry(hist.clone()).or_default().merge(h);
        }
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// `{events} ev · {ns/event} ns/ev` for one attempt, so a straggler with
/// more events reads apart from one with dearer events. A failed attempt
/// records no events and prints `-` for the ratio.
fn event_cost(p: &PointSpan) -> String {
    let wall_ns = p.end_ns.saturating_sub(p.start_ns);
    match wall_ns.checked_div(p.events) {
        Some(per_event) => format!("{} ev · {per_event} ns/ev", p.events),
        None => "0 ev · - ns/ev".to_string(),
    }
}

/// Render the run-health report. With `sidecar_dir` set, sidecars named
/// `<ordinal>.jsonl` are read for every completed ordinal and their
/// counters/histograms aggregated per axis value.
pub fn render_report(ledger: &RunLedger, sidecar_dir: Option<&Path>) -> Result<String, String> {
    let s = stats(ledger);
    let h = &ledger.header;
    let mut out = String::new();
    writeln!(out, "# run report: {}", h.campaign).unwrap();
    let scale = h.scale.as_deref().unwrap_or("?");
    let shard = match h.shard {
        Some((k, n)) => format!("{k}/{n}"),
        None => "-".to_string(),
    };
    writeln!(
        out,
        "scale {scale} · {} point(s) · {} worker(s) · shard {shard} · retries {} · profile {}",
        h.points, s.workers, h.retries, h.profile
    )
    .unwrap();

    writeln!(out, "\n## wall time").unwrap();
    writeln!(out, "total            {:>10.2} s", secs(s.wall_ns)).unwrap();
    writeln!(
        out,
        "point execution  {:>10.2} s busy across {} worker(s) ({:.0}% utilization)",
        secs(s.busy_ns),
        s.workers,
        100.0 * s.utilization
    )
    .unwrap();
    writeln!(
        out,
        "sim events       {:>10} over completed attempts",
        s.events
    )
    .unwrap();

    writeln!(out, "\n## workers").unwrap();
    let mut per_worker: BTreeMap<usize, (u64, usize)> = BTreeMap::new();
    for p in &ledger.points {
        let e = per_worker.entry(p.worker).or_insert((0, 0));
        e.0 += p.end_ns.saturating_sub(p.start_ns);
        e.1 += 1;
    }
    for (w, (busy, n)) in &per_worker {
        let util = if s.wall_ns == 0 {
            0.0
        } else {
            100.0 * *busy as f64 / s.wall_ns as f64
        };
        writeln!(
            out,
            "worker {w}: {n} attempt(s), {:.2} s busy ({util:.0}%)",
            secs(*busy)
        )
        .unwrap();
    }

    writeln!(out, "\n## stragglers").unwrap();
    writeln!(
        out,
        "point wall time p50 {:.1} ms · p99 {:.1} ms · max {:.1} ms · straggler ratio {:.1}x",
        ms(s.p50_ns),
        ms(s.p99_ns),
        ms(s.max_ns),
        s.straggler_ratio
    )
    .unwrap();
    let mut slowest: Vec<_> = ledger.points.iter().collect();
    slowest.sort_by_key(|p| std::cmp::Reverse(p.end_ns.saturating_sub(p.start_ns)));
    for p in slowest.iter().take(5) {
        writeln!(
            out,
            "  {:>8.1} ms  #{} {} · {} (worker {}, attempt {}, {})",
            ms(p.end_ns.saturating_sub(p.start_ns)),
            p.ordinal,
            p.coords.key(),
            event_cost(p),
            p.worker,
            p.attempt,
            p.outcome.name()
        )
        .unwrap();
    }

    writeln!(out, "\n## outcomes").unwrap();
    writeln!(
        out,
        "{} ok · {} failed · {} attempt(s) · {} retr{}",
        s.ok_points,
        s.failed_points,
        s.attempts,
        s.retries,
        if s.retries == 1 { "y" } else { "ies" }
    )
    .unwrap();
    let mut failures: BTreeMap<&str, usize> = BTreeMap::new();
    for p in &ledger.points {
        if !p.outcome.is_ok() {
            *failures.entry(p.outcome.name()).or_insert(0) += 1;
        }
    }
    for (kind, n) in &failures {
        writeln!(out, "  {kind}: {n} attempt(s)").unwrap();
    }

    if let Some(dir) = sidecar_dir {
        render_sidecar_aggregation(&mut out, ledger, dir)?;
    }
    Ok(out)
}

/// Cross-point telemetry aggregation: merge each completed ordinal's
/// sidecar counters and histograms, grouped by every axis value.
fn render_sidecar_aggregation(
    out: &mut String,
    ledger: &RunLedger,
    dir: &Path,
) -> Result<(), String> {
    // One parse per completed ordinal (the final attempt decides).
    let mut last_ok: BTreeMap<usize, &crate::runlog::PointSpan> = BTreeMap::new();
    for p in &ledger.points {
        if p.outcome.is_ok() {
            last_ok.insert(p.ordinal, p);
        } else {
            last_ok.remove(&p.ordinal);
        }
    }
    // Axis order from the first completed span; label order first-seen.
    let axes: Vec<&str> = last_ok
        .values()
        .next()
        .map(|p| p.coords.0.iter().map(|(a, _)| a.as_str()).collect())
        .unwrap_or_default();
    let mut groups: Vec<Vec<(&str, Group)>> = axes.iter().map(|_| Vec::new()).collect();
    let mut missing = 0usize;
    for (&ordinal, p) in &last_ok {
        let path = dir.join(format!("{ordinal}.jsonl"));
        let sidecar = match std::fs::read_to_string(&path) {
            Ok(text) => {
                Some(Sidecar::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?)
            }
            Err(_) => {
                missing += 1;
                None
            }
        };
        for (axis, groups) in axes.iter().zip(&mut groups) {
            let Some(label) = p.coords.get(axis) else {
                continue;
            };
            let i = groups
                .iter()
                .position(|(l, _)| *l == label)
                .unwrap_or_else(|| {
                    groups.push((label, Group::default()));
                    groups.len() - 1
                });
            if let Some(s) = &sidecar {
                groups[i].1.add(s);
            }
        }
    }
    writeln!(out, "\n## telemetry aggregation ({})", dir.display()).unwrap();
    if missing == last_ok.len() {
        writeln!(out, "no sidecars found for the completed ordinals").unwrap();
        return Ok(());
    }
    if missing > 0 {
        writeln!(out, "({missing} completed ordinal(s) without a sidecar)").unwrap();
    }
    for (axis, groups) in axes.iter().zip(&groups) {
        writeln!(out, "\n### axis {axis}").unwrap();
        for (label, merged) in groups {
            writeln!(out, "{axis}={label} ({} point(s)):", merged.points).unwrap();
            for (name, h) in &merged.hists {
                if h.is_empty() {
                    continue;
                }
                // qdelay histograms record nanoseconds (ms × 1e6).
                let q = |q: f64| h.quantile_upper(q).unwrap_or(0) as f64 / 1e6;
                writeln!(
                    out,
                    "  hist {name}: {} sample(s), p50 ≤ {:.3} ms, p99 ≤ {:.3} ms",
                    h.count(),
                    q(0.50),
                    q(0.99)
                )
                .unwrap();
            }
            if !merged.counters.is_empty() {
                let rendered: Vec<String> = merged
                    .counters
                    .iter()
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect();
                writeln!(out, "  counters: {}", rendered.join(" ")).unwrap();
            }
            let hit = merged.counters.get("pool_hit").copied().unwrap_or(0);
            let miss = merged.counters.get("pool_miss").copied().unwrap_or(0);
            if hit.saturating_add(miss) > 0 {
                let rate = hit as f64 / (hit as f64 + miss as f64);
                writeln!(out, "  pool hit rate: {rate:.3}").unwrap();
            }
            let samples = merged.counters.get("wheel_samples").copied().unwrap_or(0);
            if samples > 0 {
                let mean =
                    |k: &str| merged.counters.get(k).copied().unwrap_or(0) as f64 / samples as f64;
                writeln!(
                    out,
                    "  wheel occupancy mean: near {:.1} · slots {:.1} · overflow {:.1}",
                    mean("wheel_near"),
                    mean("wheel_slots"),
                    mean("wheel_overflow")
                )
                .unwrap();
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sidecar_parse_merges_counters_and_rebuilds_histograms() {
        let text = concat!(
            "{\"schema\":\"abc-telemetry/v1\",\"signals\":[\"qdelay_ms\"],\"sample_every_ns\":0}\n",
            "{\"t_ns\":5,\"signal\":\"cwnd\",\"scope\":\"flow:0\",\"v\":10}\n",
            "{\"counter\":\"rto_arm\",\"scope\":\"flow:0\",\"n\":3}\n",
            "{\"counter\":\"rto_arm\",\"scope\":\"flow:1\",\"n\":4}\n",
            "{\"hist\":\"qdelay_ns\",\"scope\":\"link:b\",\"count\":3,\"buckets\":[[0,1],[21,2]]}\n",
        );
        let sidecar = Sidecar::parse(text).expect("parses");
        let mut group = Group::default();
        group.add(&sidecar);
        assert_eq!(group.counters.get("rto_arm"), Some(&7));
        assert_eq!(group.hists.get("qdelay_ns").expect("hist").count(), 3);
        // a second point doubles everything (associative + commutative)
        group.add(&sidecar);
        assert_eq!(group.points, 2);
        assert_eq!(group.counters.get("rto_arm"), Some(&14));
        assert_eq!(group.hists.get("qdelay_ns").unwrap().count(), 6);
    }

    #[test]
    fn foreign_schema_is_rejected() {
        let ledger = RunLedger::from_jsonl(concat!(
            "{\"schema\":\"abc-runlog/v2\",\"campaign\":\"c\",\"scale\":null,\"points\":1,",
            "\"workers\":1,\"shard\":null,\"retries\":0,\"watchdog_budget_s\":null,",
            "\"keep_going\":false,\"profile\":false}\n",
            "{\"span\":\"point\",\"ordinal\":0,\"coords\":{\"seed\":\"1\"},\"attempt\":0,",
            "\"worker\":0,\"start_ns\":0,\"end_ns\":10,\"events\":5,\"events_per_sec\":1,",
            "\"outcome\":\"ok\"}\n",
        ))
        .expect("ledger parses");
        let dir = std::env::temp_dir().join(format!("abc-report-schema-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("0.jsonl"), "{\"schema\":\"nope/v9\"}\n").unwrap();
        let err = render_report(&ledger, Some(&dir)).unwrap_err();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(
            err.contains("0.jsonl") && err.contains("unsupported schema \"nope/v9\""),
            "{err}"
        );
    }
}
