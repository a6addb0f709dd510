//! The **RTC/interactive** workload: a constant-cadence media stream
//! (voice or interactive video) that emits one frame every `interval`,
//! judged by per-packet one-way-delay deadline misses — the metric an
//! interactive application actually feels. Conceptually the same shape as
//! live-streaming transports like SRT: traffic is clocked by the encoder,
//! not the congestion window, and late data is as bad as lost data.

use netsim::flow::AppDriver;
use netsim::packet::MTU_BYTES;
use netsim::time::{SimDuration, SimTime};

/// Spec of a constant-cadence stream.
#[derive(Debug, Clone, Copy)]
pub struct RtcWorkload {
    /// Bytes per frame (one packet per frame; must be ≤ MTU).
    pub frame_bytes: u32,
    /// Frame cadence (20 ms voice, 33 ms for 30 fps video, …).
    pub interval: SimDuration,
    /// One-way-delay budget; deliveries above it count as misses.
    pub deadline: SimDuration,
}

impl RtcWorkload {
    /// A 30 fps interactive video stream at `kbps`, 100 ms budget.
    pub fn video_call(kbps: u32) -> RtcWorkload {
        let interval = SimDuration::from_nanos(1_000_000_000 / 30);
        let frame = (kbps as u64 * 1000 / 8 / 30).clamp(1, MTU_BYTES as u64);
        RtcWorkload {
            frame_bytes: frame as u32,
            interval,
            deadline: SimDuration::from_millis(100),
        }
    }
}

/// The [`AppDriver`] realizing an [`RtcWorkload`]: frame `k` becomes
/// available at `start + k·interval`. A pure function of time, so driven
/// flows stay bit-deterministic.
#[derive(Debug)]
pub struct RtcSource {
    spec: RtcWorkload,
    start: SimTime,
}

impl RtcSource {
    /// A driver producing `spec`'s frames from `start` on.
    pub fn new(spec: RtcWorkload, start: SimTime) -> RtcSource {
        assert!(spec.frame_bytes >= 1 && spec.frame_bytes <= MTU_BYTES);
        assert!(!spec.interval.is_zero());
        RtcSource { spec, start }
    }

    /// The workload this driver realizes.
    pub fn spec(&self) -> &RtcWorkload {
        &self.spec
    }

    /// Frames generated by the encoder up to `now` (frame 0 at `start`).
    fn frames_by(&self, now: SimTime) -> u64 {
        if now < self.start {
            return 0;
        }
        now.since(self.start).as_nanos() / self.spec.interval.as_nanos() + 1
    }
}

impl AppDriver for RtcSource {
    fn available_bytes(&mut self, now: SimTime) -> u64 {
        self.frames_by(now) * self.spec.frame_bytes as u64
    }

    fn next_wakeup(&mut self, now: SimTime) -> Option<SimTime> {
        if now < self.start {
            return Some(self.start);
        }
        let next = self.frames_by(now);
        Some(self.start + SimDuration::from_nanos(next * self.spec.interval.as_nanos()))
    }

    fn on_progress(&mut self, _now: SimTime, _delivered_bytes: u64) {}

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn cadence_releases_one_frame_per_interval() {
        let spec = RtcWorkload {
            frame_bytes: 1000,
            interval: SimDuration::from_millis(20),
            deadline: SimDuration::from_millis(100),
        };
        let mut s = RtcSource::new(spec, SimTime::ZERO);
        assert_eq!(s.available_bytes(at(0)), 1000); // frame 0 at start
        assert_eq!(s.available_bytes(at(19)), 1000);
        assert_eq!(s.available_bytes(at(20)), 2000);
        assert_eq!(s.available_bytes(at(205)), 11_000);
        assert_eq!(s.next_wakeup(at(0)), Some(at(20)));
        assert_eq!(s.next_wakeup(at(25)), Some(at(40)));
    }

    #[test]
    fn delayed_start_gates_the_stream() {
        let spec = RtcWorkload {
            frame_bytes: 500,
            interval: SimDuration::from_millis(20),
            deadline: SimDuration::from_millis(100),
        };
        let mut s = RtcSource::new(spec, at(1000));
        assert_eq!(s.available_bytes(at(500)), 0);
        assert_eq!(s.next_wakeup(at(500)), Some(at(1000)));
        assert_eq!(s.available_bytes(at(1000)), 500);
    }

    #[test]
    fn video_call_helper_is_mtu_safe() {
        for kbps in [50, 300, 1000, 5000] {
            let w = RtcWorkload::video_call(kbps);
            assert!(w.frame_bytes <= MTU_BYTES);
            assert!(w.frame_bytes >= 1);
        }
        // 300 kbps / 30 fps = 1250 B frames
        assert_eq!(RtcWorkload::video_call(300).frame_bytes, 1250);
    }
}
