//! Experiment results in the units the paper reports.

use netsim::metrics::ImpairmentRecord;
use netsim::stats::Summary;
use workload::{RtcMetrics, VideoMetrics, WebMetrics};

/// Application-level outcomes of a scenario that ran workloads on top of
/// (or instead of) bulk flows. Absent (`Report::app == None`) for
/// bulk-only scenarios, which keeps their serialized records — and the
/// pinned tiny campaign baseline — byte-identical.
#[derive(Debug, Clone, Default)]
pub struct AppReport {
    /// Web request/response FCTs, aggregated over every web workload.
    pub web: Option<WebMetrics>,
    /// RTC deadline accounting, aggregated over every RTC stream.
    pub rtc: Option<RtcMetrics>,
    /// ABR video outcomes, chunk-weighted over every session.
    pub video: Option<VideoMetrics>,
}

/// Outcome of one scenario run.
///
/// `PartialEq` compares every metric bit-for-bit — the determinism tests
/// rely on two runs of the same spec producing equal `Report`s. Floats
/// are compared by bit pattern, not `==`, so `NaN` fields (Wi-Fi
/// utilization has no opportunity accounting) still compare equal across
/// identical runs.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Display name of the scheme that ran.
    pub scheme: String,
    /// Delivered bits ÷ link delivery opportunities (cellular emulation's
    /// utilization definition).
    pub utilization: f64,
    /// One-way per-packet delay (ms), receiver-observed: queuing +
    /// propagation. The paper's "95th percentile packet delay" axis.
    pub delay_ms: Summary,
    /// Queuing delay at the bottleneck (ms) — Appendix E's y-axis.
    pub qdelay_ms: Summary,
    /// Per-flow mean goodput (Mbit/s) over the measurement window.
    pub flow_tputs_mbps: Vec<f64>,
    /// Sum of the per-flow goodputs.
    pub total_tput_mbps: f64,
    /// Jain fairness index across flows.
    pub jain: f64,
    /// Packets dropped across all hops.
    pub drops: u64,
    /// (t seconds, Mbit/s) aggregate goodput series.
    pub tput_series: Vec<(f64, f64)>,
    /// (t seconds, ms) bottleneck queuing delay, downsampled.
    pub qdelay_series: Vec<(f64, f64)>,
    /// (t seconds, Mbit/s) link capacity series (for plots).
    pub capacity_series: Vec<(f64, f64)>,
    /// Application-level metrics; `None` for bulk-only scenarios.
    pub app: Option<AppReport>,
    /// Per-impairment-wire pass/hit counters, in scenario spec order.
    /// Empty for unimpaired scenarios, which keeps their serialized
    /// records — and the pinned tiny campaign baseline — byte-identical.
    pub impairments: Vec<ImpairmentRecord>,
}

/// Bitwise float equality: identical runs must compare equal even where
/// a metric is `NaN` (Wi-Fi utilization, silent RTC streams, …).
fn feq(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

fn sumeq(a: &Summary, b: &Summary) -> bool {
    a.count == b.count
        && feq(a.mean, b.mean)
        && feq(a.std_dev, b.std_dev)
        && feq(a.min, b.min)
        && feq(a.max, b.max)
        && feq(a.p50, b.p50)
        && feq(a.p95, b.p95)
        && feq(a.p99, b.p99)
}

impl PartialEq for AppReport {
    fn eq(&self, other: &Self) -> bool {
        fn webeq(a: &WebMetrics, b: &WebMetrics) -> bool {
            a.flows == b.flows && a.completed == b.completed && sumeq(&a.fct_ms, &b.fct_ms)
        }
        fn rtceq(a: &RtcMetrics, b: &RtcMetrics) -> bool {
            a.pkts == b.pkts
                && a.misses == b.misses
                && feq(a.miss_rate, b.miss_rate)
                && sumeq(&a.owd_ms, &b.owd_ms)
        }
        fn videq(a: &VideoMetrics, b: &VideoMetrics) -> bool {
            a.chunks_downloaded == b.chunks_downloaded
                && a.chunks_total == b.chunks_total
                && feq(a.mean_bitrate_kbps, b.mean_bitrate_kbps)
                && feq(a.play_s, b.play_s)
                && feq(a.rebuffer_s, b.rebuffer_s)
                && feq(a.rebuffer_ratio, b.rebuffer_ratio)
                && feq(a.startup_delay_ms, b.startup_delay_ms)
                && a.switches == b.switches
                && feq(a.qoe, b.qoe)
        }
        fn opteq<T>(a: &Option<T>, b: &Option<T>, eq: impl Fn(&T, &T) -> bool) -> bool {
            match (a, b) {
                (None, None) => true,
                (Some(x), Some(y)) => eq(x, y),
                _ => false,
            }
        }
        opteq(&self.web, &other.web, webeq)
            && opteq(&self.rtc, &other.rtc, rtceq)
            && opteq(&self.video, &other.video, videq)
    }
}

impl PartialEq for Report {
    fn eq(&self, other: &Self) -> bool {
        fn veq(a: &[f64], b: &[f64]) -> bool {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| feq(*x, *y))
        }
        fn seq(a: &[(f64, f64)], b: &[(f64, f64)]) -> bool {
            a.len() == b.len()
                && a.iter()
                    .zip(b)
                    .all(|((t1, v1), (t2, v2))| feq(*t1, *t2) && feq(*v1, *v2))
        }
        self.scheme == other.scheme
            && feq(self.utilization, other.utilization)
            && sumeq(&self.delay_ms, &other.delay_ms)
            && sumeq(&self.qdelay_ms, &other.qdelay_ms)
            && veq(&self.flow_tputs_mbps, &other.flow_tputs_mbps)
            && feq(self.total_tput_mbps, other.total_tput_mbps)
            && feq(self.jain, other.jain)
            && self.drops == other.drops
            && seq(&self.tput_series, &other.tput_series)
            && seq(&self.qdelay_series, &other.qdelay_series)
            && seq(&self.capacity_series, &other.capacity_series)
            && self.app == other.app
            && self.impairments == other.impairments
    }
}

impl Report {
    /// One row of the standard util/delay table.
    pub fn row(&self) -> String {
        format!(
            "{:<14} util {:>5.1}%  tput {:>7.3} Mbit/s  delay p50/p95/mean {:>7.1}/{:>7.1}/{:>7.1} ms  qdelay p95 {:>7.1} ms  drops {:>6}",
            self.scheme,
            self.utilization * 100.0,
            self.total_tput_mbps,
            self.delay_ms.p50,
            self.delay_ms.p95,
            self.delay_ms.mean,
            self.qdelay_ms.p95,
            self.drops
        )
    }
}

/// Downsample a dense series to at most `n` points (mean per bucket).
/// Series no longer than `n` (including empty ones) come back unchanged;
/// `n == 0` yields an empty series, honoring the "at most `n`" contract.
pub fn downsample(series: &[(f64, f64)], n: usize) -> Vec<(f64, f64)> {
    downsample_by(series.len(), n, |i| series[i])
}

/// [`downsample`] of the `len` points `at(0), …, at(len - 1)`: the same
/// buckets and the same bits, for a caller whose series is stored in
/// another form and would otherwise map it into a second buffer first.
pub fn downsample_by(len: usize, n: usize, at: impl Fn(usize) -> (f64, f64)) -> Vec<(f64, f64)> {
    if n == 0 {
        return Vec::new();
    }
    if len <= n {
        return (0..len).map(at).collect();
    }
    let bucket = len.div_ceil(n);
    (0..len)
        .step_by(bucket)
        .map(|start| {
            let end = (start + bucket).min(len);
            let t = at(start).0;
            let v = (start..end).map(|i| at(i).1).sum::<f64>() / (end - start) as f64;
            (t, v)
        })
        .collect()
}

/// Render a small ASCII sparkline of a series (figures in a terminal).
/// A constant series draws a flat mid-height bar; only a series with no
/// finite value draws nothing.
pub fn sparkline(series: &[(f64, f64)], width: usize) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let pts = downsample(series, width);
    let max = pts.iter().map(|p| p.1).fold(f64::MIN, f64::max);
    let min = pts.iter().map(|p| p.1).fold(f64::MAX, f64::min);
    if pts.is_empty() || !max.is_finite() || max < min {
        return String::new();
    }
    let span = max - min;
    pts.iter()
        .map(|p| {
            let idx = if span > 0.0 {
                ((p.1 - min) / span * 7.0).round() as usize
            } else {
                3
            };
            BARS[idx.min(7)]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn downsample_preserves_short_series() {
        let s = vec![(0.0, 1.0), (1.0, 2.0)];
        assert_eq!(downsample(&s, 10), s);
    }

    #[test]
    fn downsample_of_empty_series_is_empty() {
        assert!(downsample(&[], 10).is_empty());
        assert!(downsample(&[], 0).is_empty());
    }

    #[test]
    fn downsample_to_zero_points_is_empty() {
        let s = vec![(0.0, 1.0), (1.0, 2.0)];
        assert!(downsample(&s, 0).is_empty());
    }

    #[test]
    fn downsample_shorter_than_target_is_identity() {
        let s: Vec<(f64, f64)> = (0..5).map(|i| (i as f64, i as f64)).collect();
        assert_eq!(downsample(&s, 5), s, "len == n must be identity");
        assert_eq!(downsample(&s, 6), s, "len < n must be identity");
    }

    #[test]
    fn downsample_single_point_series() {
        let s = vec![(3.0, 9.0)];
        assert_eq!(downsample(&s, 1), s);
        assert_eq!(downsample(&s, 600), s);
    }

    #[test]
    fn downsample_never_exceeds_target() {
        for len in [1usize, 7, 99, 600, 601, 1234] {
            let s: Vec<(f64, f64)> = (0..len).map(|i| (i as f64, 0.0)).collect();
            for n in [1usize, 2, 10, 600] {
                assert!(
                    downsample(&s, n).len() <= n,
                    "len {len} downsampled to {} > {n}",
                    downsample(&s, n).len()
                );
            }
        }
    }

    #[test]
    fn downsample_buckets_means() {
        let s: Vec<(f64, f64)> = (0..100).map(|i| (i as f64, i as f64)).collect();
        let d = downsample(&s, 10);
        assert_eq!(d.len(), 10);
        assert!((d[0].1 - 4.5).abs() < 1e-9); // mean of 0..=9
    }

    #[test]
    fn sparkline_spans_range() {
        let s: Vec<(f64, f64)> = (0..64).map(|i| (i as f64, i as f64)).collect();
        let sp = sparkline(&s, 16);
        assert_eq!(sp.chars().count(), 16);
        assert!(sp.starts_with('▁'));
        assert!(sp.ends_with('█'));
    }

    #[test]
    fn sparkline_draws_a_constant_series_flat() {
        let s: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 12.0)).collect();
        assert_eq!(sparkline(&s, 60), "▄".repeat(10));
        assert_eq!(sparkline(&[], 60), "");
    }
}
