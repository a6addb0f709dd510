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

/// Deterministic (sim-time) aggregates parsed out of one point's
/// telemetry sidecar: counters and histograms, summed/merged over
/// scopes within the point.
#[derive(Debug, Clone, Default)]
pub struct SidecarAgg {
    /// `counter name → total` over every scope in the sidecar.
    pub counters: BTreeMap<String, u64>,
    /// `histogram name → merged histogram` over every scope.
    pub hists: BTreeMap<String, LogHistogram>,
}

impl SidecarAgg {
    /// Fold another point's aggregates in.
    pub fn merge(&mut self, other: &SidecarAgg) {
        for (k, n) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += n;
        }
        for (k, h) in &other.hists {
            self.hists.entry(k.clone()).or_default().merge(h);
        }
    }
}

/// Sum the counters and merge the histograms of an `abc-telemetry/v1`
/// sidecar over its scopes (gauge samples are skipped — aggregation wants
/// totals and distributions, not time series).
pub fn parse_sidecar(text: &str) -> Result<SidecarAgg, String> {
    let sidecar = Sidecar::parse(text)?;
    let mut agg = SidecarAgg::default();
    for (counter, _, n) in sidecar.counters {
        *agg.counters.entry(counter).or_insert(0) += n;
    }
    for (hist, _, h) in &sidecar.hists {
        agg.hists.entry(hist.clone()).or_default().merge(h);
    }
    Ok(agg)
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
    let mut aggs: BTreeMap<usize, SidecarAgg> = BTreeMap::new();
    let mut missing = 0usize;
    for &ordinal in last_ok.keys() {
        let path = dir.join(format!("{ordinal}.jsonl"));
        match std::fs::read_to_string(&path) {
            Ok(text) => {
                let agg = parse_sidecar(&text).map_err(|e| format!("{}: {e}", path.display()))?;
                aggs.insert(ordinal, agg);
            }
            Err(_) => missing += 1,
        }
    }
    writeln!(out, "\n## telemetry aggregation ({})", dir.display()).unwrap();
    if aggs.is_empty() {
        writeln!(out, "no sidecars found for the completed ordinals").unwrap();
        return Ok(());
    }
    if missing > 0 {
        writeln!(out, "({missing} completed ordinal(s) without a sidecar)").unwrap();
    }
    // Axis order from the first completed span; label order first-seen.
    let axes: Vec<String> = last_ok
        .values()
        .next()
        .map(|p| p.coords.0.iter().map(|(a, _)| a.clone()).collect())
        .unwrap_or_default();
    for axis in &axes {
        writeln!(out, "\n### axis {axis}").unwrap();
        let mut labels: Vec<&str> = Vec::new();
        for p in last_ok.values() {
            if let Some(l) = p.coords.get(axis) {
                if !labels.contains(&l) {
                    labels.push(l);
                }
            }
        }
        for label in labels {
            let mut merged = SidecarAgg::default();
            let mut n = 0usize;
            for (ordinal, p) in &last_ok {
                if p.coords.get(axis) == Some(label) {
                    if let Some(agg) = aggs.get(ordinal) {
                        merged.merge(agg);
                        n += 1;
                    }
                }
            }
            writeln!(out, "{axis}={label} ({n} point(s)):").unwrap();
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
            if hit + miss > 0 {
                writeln!(
                    out,
                    "  pool hit rate: {:.3}",
                    hit as f64 / (hit + miss) as f64
                )
                .unwrap();
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
        let agg = parse_sidecar(text).expect("parses");
        assert_eq!(agg.counters.get("rto_arm"), Some(&7));
        let h = agg.hists.get("qdelay_ns").expect("hist");
        assert_eq!(h.count(), 3);
        // merging two parses doubles everything (associative + commutative)
        let mut twice = agg.clone();
        twice.merge(&agg);
        assert_eq!(twice.counters.get("rto_arm"), Some(&14));
        assert_eq!(twice.hists.get("qdelay_ns").unwrap().count(), 6);
    }

    #[test]
    fn foreign_schema_is_rejected() {
        assert!(parse_sidecar("{\"schema\":\"nope/v9\"}\n").is_err());
    }
}
