//! Measurement primitives: windowed rate estimation, EWMA, percentiles.

use crate::rate::Rate;
use crate::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Rate over a sliding time window: the ABC router measures both its
/// dequeue rate `cr(t)` and (on Wi-Fi) the link capacity `µ(t)` this way,
/// over a window `T` (§3.1.2; the Wi-Fi prototype uses `T = 40 ms`).
#[derive(Debug, Clone)]
pub struct WindowedRate {
    window: SimDuration,
    /// `window.as_secs_f64()`, hoisted out of the per-packet [`rate`]
    /// call (bit-identical: same conversion, computed once).
    window_secs: f64,
    samples: VecDeque<(SimTime, u64)>, // (when, bytes)
    total_bytes: u64,
}

impl WindowedRate {
    /// An empty estimator over a sliding `window`.
    pub fn new(window: SimDuration) -> Self {
        assert!(!window.is_zero(), "rate window must be positive");
        WindowedRate {
            window,
            window_secs: window.as_secs_f64(),
            samples: VecDeque::new(),
            total_bytes: 0,
        }
    }

    /// The configured averaging window.
    pub fn window(&self) -> SimDuration {
        self.window
    }

    /// Record `bytes` transferred at `now`.
    pub fn record(&mut self, now: SimTime, bytes: u64) {
        self.samples.push_back((now, bytes));
        self.total_bytes += bytes;
        self.expire(now);
    }

    fn expire(&mut self, now: SimTime) {
        let cutoff = now.saturating_sub(self.window);
        while let Some(&(t, b)) = self.samples.front() {
            if t < cutoff {
                self.samples.pop_front();
                self.total_bytes -= b;
            } else {
                break;
            }
        }
    }

    /// Average rate over the trailing window ending at `now`.
    pub fn rate(&mut self, now: SimTime) -> Rate {
        self.expire(now);
        // Same math as `Rate::from_bytes_per(total_bytes, window)` with
        // the window's seconds conversion precomputed (window > 0 by the
        // constructor assert, so no zero-duration branch is needed).
        Rate::from_bps(self.total_bytes as f64 * 8.0 / self.window_secs)
    }

    /// Bytes currently inside the window.
    pub fn bytes_in_window(&mut self, now: SimTime) -> u64 {
        self.expire(now);
        self.total_bytes
    }
}

/// Exponentially weighted moving average.
#[derive(Debug, Clone, Copy)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// `alpha` is the weight of each new sample (0 < alpha ≤ 1).
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha out of range: {alpha}");
        Ewma { alpha, value: None }
    }

    /// Fold in a sample and return the new average (the first sample
    /// seeds the average directly).
    pub fn update(&mut self, sample: f64) -> f64 {
        let v = match self.value {
            None => sample,
            Some(prev) => prev + self.alpha * (sample - prev),
        };
        self.value = Some(v);
        v
    }

    /// The current average, once at least one sample has arrived.
    pub fn get(&self) -> Option<f64> {
        self.value
    }

    /// Forget all samples.
    pub fn reset(&mut self) {
        self.value = None;
    }
}

/// Summary statistics over a set of `f64` samples.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    /// Number of samples summarized.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Median (50th percentile).
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

/// Percentile by linear interpolation between closest ranks
/// (the convention NumPy's default uses). `p` in [0, 100].
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    percentile_by(sorted.len(), |i| sorted[i], p)
}

/// [`percentile`] of the `n` ascending samples `at(0) ≤ … ≤ at(n - 1)`.
fn percentile_by(n: usize, at: impl Fn(usize) -> f64, p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
    match n {
        0 => f64::NAN,
        1 => at(0),
        n => {
            let rank = p / 100.0 * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            let frac = rank - lo as f64;
            at(lo) + (at(hi) - at(lo)) * frac
        }
    }
}

/// Compute a [`Summary`] of `samples` (need not be pre-sorted).
///
/// Clones the slice to sort it; hot paths that own their samples should
/// use [`summarize_in_place`] and skip the copy.
pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    summarize_in_place(&mut sorted)
}

/// Compute a [`Summary`] by sorting `samples` in place — the zero-copy
/// sibling of [`summarize`] for callers that own the buffer. Sorting is
/// deterministic: `f64` ordering with a panic on NaN, like `summarize`.
pub fn summarize_in_place(samples: &mut [f64]) -> Summary {
    samples.sort_unstable_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    summarize_sorted_by(samples.len(), |i| samples[i])
}

/// The [`Summary`] of `n` samples that `at` yields in ascending order
/// (`at(0) ≤ … ≤ at(n - 1)`). Every summary in the workspace is computed
/// here, so a caller that keeps its samples in another form — a sorted
/// `(time, delay)` series read as milliseconds — gets the same bits as
/// [`summarize`] over the mapped values: the sums run in ascending
/// order, which is the same sequence of values however ties were placed.
pub fn summarize_sorted_by(n: usize, at: impl Fn(usize) -> f64) -> Summary {
    if n == 0 {
        return Summary::default();
    }
    let mean = (0..n).map(&at).sum::<f64>() / n as f64;
    let var = (0..n).map(|i| (at(i) - mean).powi(2)).sum::<f64>() / n as f64;
    Summary {
        count: n,
        mean,
        std_dev: var.sqrt(),
        min: at(0),
        max: at(n - 1),
        p50: percentile_by(n, &at, 50.0),
        p95: percentile_by(n, &at, 95.0),
        p99: percentile_by(n, &at, 99.0),
    }
}

/// Jain's fairness index over per-flow throughputs:
/// `(Σx)² / (n·Σx²)` — 1.0 means perfectly fair.
pub fn jain_index(throughputs: &[f64]) -> f64 {
    if throughputs.is_empty() {
        return f64::NAN;
    }
    let sum: f64 = throughputs.iter().sum();
    let sum_sq: f64 = throughputs.iter().map(|x| x * x).sum();
    if sum_sq == 0.0 {
        return f64::NAN;
    }
    sum * sum / (throughputs.len() as f64 * sum_sq)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn windowed_rate_basic() {
        let mut wr = WindowedRate::new(SimDuration::from_millis(100));
        // 10 × 1500B over 100ms = 15 kB / 0.1 s = 1.2 Mbit/s
        for i in 0..10 {
            wr.record(t(10 * i), 1500);
        }
        let r = wr.rate(t(95));
        assert!((r.mbps() - 1.2).abs() < 1e-9, "got {r}");
    }

    #[test]
    fn windowed_rate_expires_old_samples() {
        let mut wr = WindowedRate::new(SimDuration::from_millis(100));
        wr.record(t(0), 100_000);
        wr.record(t(200), 1500);
        // only the second sample is inside [100ms, 200ms]
        assert_eq!(wr.bytes_in_window(t(200)), 1500);
    }

    #[test]
    fn windowed_rate_empty_is_zero() {
        let mut wr = WindowedRate::new(SimDuration::from_millis(40));
        assert_eq!(wr.rate(t(1000)), Rate::ZERO);
    }

    #[test]
    fn ewma_first_sample_initializes() {
        let mut e = Ewma::new(0.25);
        assert_eq!(e.update(8.0), 8.0);
        assert_eq!(e.update(4.0), 7.0); // 8 + 0.25·(4−8)
    }

    #[test]
    #[should_panic(expected = "alpha out of range")]
    fn ewma_rejects_zero_alpha() {
        let _ = Ewma::new(0.0);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&v, 50.0), 2.5);
        assert!((percentile(&v, 95.0) - 3.85).abs() < 1e-12);
    }

    #[test]
    fn summary_of_constant_samples() {
        let s = summarize(&[5.0; 10]);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.p95, 5.0);
        assert_eq!(s.count, 10);
    }

    #[test]
    fn summary_empty() {
        assert_eq!(summarize(&[]).count, 0);
    }

    #[test]
    fn jain_index_extremes() {
        assert!((jain_index(&[1.0, 1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        // one flow hogging everything among n flows → 1/n
        let j = jain_index(&[1.0, 0.0, 0.0, 0.0]);
        assert!((j - 0.25).abs() < 1e-12);
    }
}
