//! Application-level metric types — what each workload model reports —
//! plus the fold helpers the scenario engine uses to turn raw per-flow
//! records into them. All floats use `NaN` for "not applicable" (no
//! flows, playback never started), which the results store serializes as
//! `null`.

use netsim::stats::{summarize_in_place, Summary};
use netsim::time::SimTime;

/// Web request/response outcomes: flow-completion times.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WebMetrics {
    /// Requests the workload issued.
    pub flows: u64,
    /// Requests fully delivered before the run ended.
    pub completed: u64,
    /// Completion-time summary (ms) over the completed requests.
    pub fct_ms: Summary,
}

/// RTC deadline accounting.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RtcMetrics {
    /// Unique packets delivered to the receiver (duplicates from
    /// spurious retransmissions excluded).
    pub pkts: u64,
    /// Deliveries that busted the deadline: wire one-way delay over the
    /// budget, or data recovered via retransmission (the original was
    /// lost, so the replacement is late by at least a loss recovery).
    pub misses: u64,
    /// `misses / pkts` (`NaN` when nothing was delivered).
    pub miss_rate: f64,
    /// One-way-delay summary (ms) over the stream's packets.
    pub owd_ms: Summary,
}

/// ABR video session outcomes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct VideoMetrics {
    /// Chunks fully downloaded by stream end.
    pub chunks_downloaded: u64,
    /// Chunks the stream comprises.
    pub chunks_total: u64,
    /// Mean selected ladder rate over downloaded chunks (`NaN` if none).
    pub mean_bitrate_kbps: f64,
    /// Media seconds actually played.
    pub play_s: f64,
    /// Wall seconds stalled while media remained to play.
    pub rebuffer_s: f64,
    /// `rebuffer / (play + rebuffer)` (`NaN` before any playback).
    pub rebuffer_ratio: f64,
    /// First-frame latency (`NaN` if playback never started).
    pub startup_delay_ms: f64,
    /// Ladder-rung changes between consecutive chunks.
    pub switches: u64,
    /// Linear QoE: normalized bitrate − 4.3·rebuffer ratio − normalized
    /// switching churn.
    pub qoe: f64,
}

/// One web request's observed outcome, as the engine reads it back from
/// the metrics hub.
#[derive(Debug, Clone, Copy)]
pub struct WebFlowOutcome {
    /// When the request started.
    pub start: SimTime,
    /// Wire bytes the request was registered to deliver.
    pub expected_bytes: u64,
    /// When cumulative delivery reached `expected_bytes`, if it did.
    pub completed_at: Option<SimTime>,
}

/// Fold web request outcomes into [`WebMetrics`].
///
/// Edge cases pinned by tests: an empty schedule reports zero flows and
/// an empty summary; a zero-length request is complete the instant it
/// starts (FCT 0) even though no packet is ever delivered.
pub fn web_metrics(outcomes: &[WebFlowOutcome]) -> WebMetrics {
    let mut fcts: Vec<f64> = Vec::with_capacity(outcomes.len());
    for o in outcomes {
        if o.expected_bytes == 0 {
            fcts.push(0.0);
        } else if let Some(done) = o.completed_at {
            fcts.push(done.since(o.start).as_millis_f64());
        }
    }
    let completed = fcts.len() as u64;
    WebMetrics {
        flows: outcomes.len() as u64,
        completed,
        fct_ms: summarize_in_place(&mut fcts),
    }
}

/// Fold RTC delivery accounting into [`RtcMetrics`]. `owd_ms` consumes
/// the delay samples (sorted in place).
pub fn rtc_metrics(pkts: u64, misses: u64, delays_ms: &mut [f64]) -> RtcMetrics {
    RtcMetrics {
        pkts,
        misses,
        miss_rate: if pkts > 0 {
            misses as f64 / pkts as f64
        } else {
            f64::NAN
        },
        owd_ms: summarize_in_place(delays_ms),
    }
}

/// Merge per-session video metrics into one aggregate (chunk-weighted
/// bitrate, pooled stall time). An empty slice reports `NaN` ratios.
pub fn merge_video(sessions: &[VideoMetrics]) -> VideoMetrics {
    let chunks: u64 = sessions.iter().map(|s| s.chunks_downloaded).sum();
    let total: u64 = sessions.iter().map(|s| s.chunks_total).sum();
    let play_s: f64 = sessions.iter().map(|s| s.play_s).sum();
    let rebuffer_s: f64 = sessions.iter().map(|s| s.rebuffer_s).sum();
    let wall = play_s + rebuffer_s;
    let mean_bitrate_kbps = if chunks > 0 {
        sessions
            .iter()
            .filter(|s| s.chunks_downloaded > 0)
            .map(|s| s.mean_bitrate_kbps * s.chunks_downloaded as f64)
            .sum::<f64>()
            / chunks as f64
    } else {
        f64::NAN
    };
    let startups: Vec<f64> = sessions
        .iter()
        .map(|s| s.startup_delay_ms)
        .filter(|x| !x.is_nan())
        .collect();
    let qoes: Vec<f64> = sessions
        .iter()
        .map(|s| s.qoe)
        .filter(|x| !x.is_nan())
        .collect();
    VideoMetrics {
        chunks_downloaded: chunks,
        chunks_total: total,
        mean_bitrate_kbps,
        play_s,
        rebuffer_s,
        rebuffer_ratio: if wall > 0.0 {
            rebuffer_s / wall
        } else {
            f64::NAN
        },
        startup_delay_ms: if startups.is_empty() {
            f64::NAN
        } else {
            startups.iter().sum::<f64>() / startups.len() as f64
        },
        switches: sessions.iter().map(|s| s.switches).sum(),
        qoe: if qoes.is_empty() {
            f64::NAN
        } else {
            qoes.iter().sum::<f64>() / qoes.len() as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::time::SimDuration;

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn empty_schedule_is_zeroes_not_panics() {
        let m = web_metrics(&[]);
        assert_eq!(m.flows, 0);
        assert_eq!(m.completed, 0);
        assert_eq!(m.fct_ms.count, 0);
    }

    #[test]
    fn zero_length_flow_completes_instantly() {
        let m = web_metrics(&[WebFlowOutcome {
            start: at(500),
            expected_bytes: 0,
            completed_at: None,
        }]);
        assert_eq!(m.completed, 1);
        assert_eq!(m.fct_ms.p95, 0.0);
    }

    #[test]
    fn incomplete_flows_are_counted_but_not_summarized() {
        let m = web_metrics(&[
            WebFlowOutcome {
                start: at(0),
                expected_bytes: 3000,
                completed_at: Some(at(40)),
            },
            WebFlowOutcome {
                start: at(100),
                expected_bytes: 9000,
                completed_at: None, // run ended first
            },
        ]);
        assert_eq!(m.flows, 2);
        assert_eq!(m.completed, 1);
        assert_eq!(m.fct_ms.count, 1);
        assert_eq!(m.fct_ms.max, 40.0);
    }

    #[test]
    fn rtc_miss_rate_handles_silence() {
        let m = rtc_metrics(0, 0, &mut []);
        assert!(m.miss_rate.is_nan());
        let m = rtc_metrics(200, 30, &mut [10.0, 20.0]);
        assert!((m.miss_rate - 0.15).abs() < 1e-12);
        assert_eq!(m.owd_ms.count, 2);
    }

    #[test]
    fn merge_video_weights_by_chunks() {
        let a = VideoMetrics {
            chunks_downloaded: 10,
            chunks_total: 10,
            mean_bitrate_kbps: 1000.0,
            play_s: 20.0,
            rebuffer_s: 0.0,
            rebuffer_ratio: 0.0,
            startup_delay_ms: 100.0,
            switches: 1,
            qoe: 0.8,
        };
        let b = VideoMetrics {
            chunks_downloaded: 30,
            chunks_total: 30,
            mean_bitrate_kbps: 3000.0,
            play_s: 60.0,
            rebuffer_s: 20.0,
            rebuffer_ratio: 0.25,
            startup_delay_ms: 300.0,
            switches: 3,
            qoe: 0.2,
        };
        let m = merge_video(&[a, b]);
        assert_eq!(m.chunks_downloaded, 40);
        assert!((m.mean_bitrate_kbps - 2500.0).abs() < 1e-9);
        assert!((m.rebuffer_ratio - 0.2).abs() < 1e-12);
        assert!((m.startup_delay_ms - 200.0).abs() < 1e-9);
        assert_eq!(m.switches, 4);
        assert!((m.qoe - 0.5).abs() < 1e-12);
    }

    #[test]
    fn merge_of_nothing_is_nan() {
        let m = merge_video(&[]);
        assert!(m.mean_bitrate_kbps.is_nan());
        assert!(m.rebuffer_ratio.is_nan());
        assert_eq!(m.chunks_downloaded, 0);
    }
}
