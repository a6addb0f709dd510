//! The ABC router (§3.1.2): target-rate computation (Eq. 1), marking
//! fraction (Eq. 2), and the deterministic token-bucket marker
//! (Algorithm 1), recomputed on **every dequeued packet**.

use netsim::packet::{Ecn, Packet};
use netsim::queue::{Qdisc, QdiscStats};
use netsim::rate::Rate;
use netsim::stats::WindowedRate;
use netsim::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Which rate the marking fraction divides by (Fig. 2 ablation):
/// dequeue-based is ABC's contribution; enqueue-based is what prior
/// explicit schemes effectively do, and doubles tail queuing delay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FeedbackBasis {
    #[default]
    /// Compute feedback at departure time (ABC, §4).
    Dequeue,
    /// Compute feedback at arrival time (prior explicit schemes).
    Enqueue,
}

/// How accelerates are spent against the token bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MarkingMode {
    /// Algorithm 1: deterministic token bucket (limits burstiness).
    #[default]
    Deterministic,
    /// Mark accelerate with probability `f(t)` (the alternative the paper
    /// mentions and rejects; kept for the ablation bench).
    Probabilistic,
}

/// Which ECN codepoints carry accel/brake (§5.1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EcnDialect {
    /// The general deployment: accelerate = ECT(1) (01), brake = ECT(0)
    /// (10); legacy CE (11) still means congestion and receivers need the
    /// (reclaimed) NS bit to echo accel/brake separately from ECE.
    #[default]
    NsBit,
    /// The proxied-network deployment: both ECT codepoints mean
    /// accelerate and the router brakes by setting CE, which an
    /// *unmodified* receiver echoes via ECE. Assumes no legacy ECN marker
    /// sits on the path (realistic behind a cellular split-TCP proxy).
    ProxiedCe,
}

/// ABC router parameters. Defaults are the paper's evaluation settings:
/// η = 0.98, δ = 133 ms, measurement window T = 40 ms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AbcRouterConfig {
    /// Target utilization η (slightly < 1 trades bandwidth for delay).
    pub eta: f64,
    /// Queue-drain time constant δ; stability needs δ > ⅔·RTT (Thm 3.1).
    pub delta: SimDuration,
    /// Delay threshold dt: queuing below this (e.g. from MAC batching)
    /// does not reduce the target rate.
    pub dt: SimDuration,
    /// Token-bucket ceiling of Algorithm 1.
    pub token_limit: f64,
    /// Sliding window T over which cr(t) (and the enqueue rate) are
    /// measured.
    pub rate_window: SimDuration,
    /// When feedback is computed (dequeue vs enqueue).
    pub basis: FeedbackBasis,
    /// How the marking fraction is turned into per-packet marks.
    pub marking: MarkingMode,
    /// Which ECN codepoints carry accelerate/brake.
    pub dialect: EcnDialect,
    /// Buffer limit in packets (tail-drop beyond).
    pub buffer_pkts: usize,
    /// Seed for the probabilistic marking mode.
    pub seed: u64,
}

impl Default for AbcRouterConfig {
    fn default() -> Self {
        AbcRouterConfig {
            eta: 0.98,
            delta: SimDuration::from_millis(133),
            dt: SimDuration::from_millis(20),
            token_limit: 10.0,
            rate_window: SimDuration::from_millis(40),
            basis: FeedbackBasis::Dequeue,
            marking: MarkingMode::Deterministic,
            dialect: EcnDialect::NsBit,
            buffer_pkts: 250,
            seed: 0xabc,
        }
    }
}

/// The ABC queueing discipline: FIFO + accel/brake marking at dequeue.
pub struct AbcQdisc {
    cfg: AbcRouterConfig,
    queue: VecDeque<Box<Packet>>,
    bytes: u64,
    /// Link capacity µ(t), fed by the link node (cellular: known from the
    /// trace; Wi-Fi: from the estimator in `wifi-mac`).
    mu: Rate,
    /// `η·µ` cached per capacity update — Eq. 1's first term is invariant
    /// between µ(t) changes, so the per-dequeue path never re-multiplies.
    eta_mu: Rate,
    /// `δ` in f64 nanoseconds, hoisted so the per-dequeue drain term costs
    /// one division with the same operands (and therefore the same bits)
    /// as the original `overage / delta` duration ratio.
    delta_ns: f64,
    dequeue_rate: WindowedRate,
    enqueue_rate: WindowedRate,
    token: f64,
    rng: StdRng,
    stats: QdiscStats,
    /// Most recent marking fraction, exposed for tests/telemetry.
    last_f: f64,
    last_target: Rate,
}

impl AbcQdisc {
    /// An empty ABC queue under `cfg`, token bucket at zero.
    pub fn new(cfg: AbcRouterConfig) -> Self {
        assert!(cfg.eta > 0.0 && cfg.eta <= 1.0, "eta out of (0,1]");
        assert!(!cfg.delta.is_zero(), "delta must be positive");
        assert!(cfg.buffer_pkts > 0);
        AbcQdisc {
            cfg,
            queue: VecDeque::new(),
            bytes: 0,
            mu: Rate::ZERO,
            eta_mu: Rate::ZERO,
            delta_ns: cfg.delta.as_nanos() as f64,
            dequeue_rate: WindowedRate::new(cfg.rate_window),
            enqueue_rate: WindowedRate::new(cfg.rate_window),
            token: 0.0,
            rng: StdRng::seed_from_u64(cfg.seed),
            stats: QdiscStats::default(),
            last_f: 1.0,
            last_target: Rate::ZERO,
        }
    }

    /// The configuration this queue runs.
    pub fn config(&self) -> &AbcRouterConfig {
        &self.cfg
    }

    /// Most recent marking fraction f(t) (tests/telemetry).
    pub fn last_marking_fraction(&self) -> f64 {
        self.last_f
    }

    /// Current token-bucket level (packets).
    pub fn token(&self) -> f64 {
        self.token
    }

    /// Eq. 1: `tr(t) = η·µ(t) − µ(t)/δ · (x(t) − dt)⁺`.
    ///
    /// Bit-identical fast path of the original per-packet math: `η·µ` is
    /// the cached [`AbcQdisc::eta_mu`], and below-threshold queuing delay
    /// (the steady-state common case) skips the drain term entirely —
    /// `µ·(0/δ) = 0` and rate subtraction of zero is the identity, so the
    /// shortcut returns the very same bits the full expression would.
    fn target_rate(&self, x: SimDuration) -> Rate {
        let overage = x.saturating_sub(self.cfg.dt);
        if overage.is_zero() {
            return self.eta_mu;
        }
        // `overage / delta` (duration ratio) is nanos-as-f64 division;
        // only the constant denominator conversion is hoisted.
        let drain = self.mu * (overage.as_nanos() as f64 / self.delta_ns);
        self.eta_mu - drain // Rate subtraction saturates at 0
    }

    /// Eq. 2: `f(t) = min(tr/(2·cr), 1)`.
    fn marking_fraction(&mut self, now: SimTime, x: SimDuration) -> f64 {
        let tr = self.target_rate(x);
        self.last_target = tr;
        let cr = match self.cfg.basis {
            FeedbackBasis::Dequeue => self.dequeue_rate.rate(now),
            FeedbackBasis::Enqueue => self.enqueue_rate.rate(now),
        };
        if cr.is_zero() {
            // no measured rate yet (link idle / startup): let senders ramp
            return 1.0;
        }
        (0.5 * (tr / cr)).clamp(0.0, 1.0)
    }

    /// Algorithm 1 applied to one departing packet.
    fn mark(&mut self, pkt: &mut Packet, f: f64) {
        self.token = (self.token + f).min(self.cfg.token_limit);
        let still_accel = match self.cfg.dialect {
            // only ECT(1) is an accelerate; ECT(0) is already a brake
            EcnDialect::NsBit => pkt.ecn == Ecn::Accelerate,
            // both ECT codepoints are accelerates; CE is the brake
            EcnDialect::ProxiedCe => pkt.ecn.is_ect(),
        };
        if !still_accel {
            // Only accel→brake demotion is allowed; brakes stay brakes, CE
            // stays CE, non-ECN traffic is untouched (multi-bottleneck rule).
            return;
        }
        let keep_accel = match self.cfg.marking {
            MarkingMode::Deterministic => {
                if self.token >= 1.0 {
                    self.token -= 1.0;
                    true
                } else {
                    false
                }
            }
            MarkingMode::Probabilistic => self.rng.gen::<f64>() < f,
        };
        if !keep_accel {
            pkt.ecn = match self.cfg.dialect {
                EcnDialect::NsBit => Ecn::Brake,
                EcnDialect::ProxiedCe => Ecn::Ce,
            };
            self.stats.braked += 1;
        }
    }
}

impl Qdisc for AbcQdisc {
    netsim::impl_qdisc_downcast!();

    fn enqueue(&mut self, mut pkt: Box<Packet>, now: SimTime) -> bool {
        if self.queue.len() >= self.cfg.buffer_pkts {
            self.stats.dropped_pkts += 1;
            return false;
        }
        self.enqueue_rate.record(now, pkt.size as u64);
        pkt.enqueued_at = now;
        self.bytes += pkt.size as u64;
        self.queue.push_back(pkt);
        self.stats.enqueued_pkts += 1;
        true
    }

    fn dequeue(&mut self, now: SimTime) -> Option<Box<Packet>> {
        let mut pkt = self.queue.pop_front()?;
        self.bytes -= pkt.size as u64;
        self.dequeue_rate.record(now, pkt.size as u64);
        // x(t): the queuing delay the departing packet experienced
        let x = now.since(pkt.enqueued_at);
        let f = self.marking_fraction(now, x);
        self.last_f = f;
        if !pkt.is_ack() {
            self.mark(&mut pkt, f);
        }
        self.stats.dequeued_pkts += 1;
        self.stats.dequeued_bytes += pkt.size as u64;
        Some(pkt)
    }

    fn peek_size(&self) -> Option<u32> {
        self.queue.front().map(|p| p.size)
    }

    fn len_pkts(&self) -> usize {
        self.queue.len()
    }

    fn len_bytes(&self) -> u64 {
        self.bytes
    }

    fn on_capacity(&mut self, rate: Rate, _now: SimTime) {
        self.mu = rate;
        self.eta_mu = rate * self.cfg.eta;
    }

    fn head_sojourn(&self, now: SimTime) -> Option<SimDuration> {
        self.queue.front().map(|p| now.since(p.enqueued_at))
    }

    fn stats(&self) -> QdiscStats {
        self.stats
    }

    fn control_signals(&self) -> Option<netsim::telemetry::ControlSignals> {
        Some(netsim::telemetry::ControlSignals {
            token: self.token,
            mark_frac: self.last_f,
            target_rate_mbps: self.last_target.mbps(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::packet::{Feedback, FlowId, NodeId, Route};

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn abc_packet(seq: u64) -> Box<Packet> {
        Box::new(Packet {
            flow: FlowId(0),
            seq,
            size: 1500,
            ecn: Ecn::Accelerate,
            feedback: Feedback::None,
            abc_capable: true,
            sent_at: SimTime::ZERO,
            retransmit: false,
            ack: None,
            route: Route::new(vec![(NodeId(0), SimDuration::ZERO)]),
            hop: 0,
            enqueued_at: SimTime::ZERO,
        })
    }

    fn qdisc() -> AbcQdisc {
        AbcQdisc::new(AbcRouterConfig::default())
    }

    #[test]
    fn target_rate_is_eta_mu_when_queue_low() {
        let mut q = qdisc();
        q.on_capacity(Rate::from_mbps(10.0), at(0));
        let tr = q.target_rate(SimDuration::from_millis(5)); // below dt
        assert!((tr.mbps() - 9.8).abs() < 1e-9);
    }

    #[test]
    fn target_rate_drains_queue_overage() {
        let mut q = qdisc();
        q.on_capacity(Rate::from_mbps(10.0), at(0));
        // x = dt + 66.5ms → drain term = µ·66.5/133 = µ/2
        let x = SimDuration::from_millis(20) + SimDuration::from_micros(66_500);
        let tr = q.target_rate(x);
        assert!((tr.mbps() - (9.8 - 5.0)).abs() < 0.01, "tr={tr}");
    }

    #[test]
    fn target_rate_fast_path_matches_reference_bitwise() {
        let mut q = qdisc();
        for mbps in [0.0, 3.7, 12.0, 96.5] {
            q.on_capacity(Rate::from_mbps(mbps), at(0));
            for ns in [
                0u64,
                5_000_000,
                19_999_999,
                20_000_000,
                20_000_001,
                86_500_000,
                2_000_000_000,
            ] {
                let x = SimDuration::from_nanos(ns);
                // the pre-hoist formula, term by term
                let reference =
                    q.mu * q.cfg.eta - q.mu * (x.saturating_sub(q.cfg.dt) / q.cfg.delta);
                assert_eq!(
                    q.target_rate(x).bps().to_bits(),
                    reference.bps().to_bits(),
                    "fast path diverged at µ={mbps} Mbit/s, x={ns}ns"
                );
            }
        }
    }

    #[test]
    fn target_rate_saturates_at_zero() {
        let mut q = qdisc();
        q.on_capacity(Rate::from_mbps(10.0), at(0));
        let tr = q.target_rate(SimDuration::from_secs(2));
        assert_eq!(tr, Rate::ZERO);
    }

    /// Drive the queue at a steady rate and check the marking fraction
    /// lands at tr/(2·cr).
    #[test]
    fn marking_fraction_matches_eq2() {
        let mut q = qdisc();
        q.on_capacity(Rate::from_mbps(12.0), at(0));
        // steady state: enqueue + dequeue 1 pkt per ms → cr = 12 Mbit/s,
        // zero queuing delay
        // one packet per ms: t tracks seq one-to-one
        for seq in 0..200u64 {
            assert!(q.enqueue(abc_packet(seq), at(seq)));
            let p = q.dequeue(at(seq)).unwrap();
            assert_eq!(p.seq, seq);
        }
        // tr = 0.98·12 = 11.76; f = 0.5·11.76/12 = 0.49
        assert!(
            (q.last_marking_fraction() - 0.49).abs() < 0.02,
            "f = {}",
            q.last_marking_fraction()
        );
    }

    #[test]
    fn token_bucket_caps_accel_share() {
        // With f = 0.49, out of 200 packets at most ~49% + tokenLimit may
        // stay accelerate.
        let mut q = qdisc();
        q.on_capacity(Rate::from_mbps(12.0), at(0));
        let mut accel = 0;
        let mut total = 0;
        // one packet per ms: t tracks seq one-to-one
        for seq in 0..400u64 {
            q.enqueue(abc_packet(seq), at(seq));
            let p = q.dequeue(at(seq)).unwrap();
            if seq >= 100 {
                // past warm-up
                total += 1;
                if p.ecn == Ecn::Accelerate {
                    accel += 1;
                }
            }
        }
        let share = accel as f64 / total as f64;
        assert!(share < 0.55, "accel share {share}");
        assert!(share > 0.40, "accel share {share}");
    }

    #[test]
    fn brakes_never_promoted() {
        let mut q = qdisc();
        q.on_capacity(Rate::from_mbps(100.0), at(0));
        let mut pkt = abc_packet(0);
        pkt.ecn = Ecn::Brake; // already braked by an upstream ABC router
        q.enqueue(pkt, at(0));
        // plenty of tokens (f=1 at startup), but a brake must stay a brake
        let out = q.dequeue(at(1)).unwrap();
        assert_eq!(out.ecn, Ecn::Brake);
    }

    #[test]
    fn ce_and_notect_untouched() {
        let mut q = qdisc();
        q.on_capacity(Rate::from_mbps(0.1), at(0)); // tiny target: f→0
        for (i, e) in [Ecn::Ce, Ecn::NotEct].into_iter().enumerate() {
            let mut p = abc_packet(i as u64);
            p.ecn = e;
            q.enqueue(p, at(i as u64));
            assert_eq!(q.dequeue(at(i as u64 + 1)).unwrap().ecn, e);
        }
    }

    #[test]
    fn outage_brakes_everything() {
        let mut q = qdisc();
        q.on_capacity(Rate::from_mbps(12.0), at(0));
        // steady state first
        let mut t = 0;
        for seq in 0..100u64 {
            q.enqueue(abc_packet(seq), at(t));
            q.dequeue(at(t));
            t += 1;
        }
        // outage: µ = 0 → tr = 0 → f = 0 → all brakes once tokens drain
        q.on_capacity(Rate::ZERO, at(t));
        let mut brakes = 0;
        for seq in 100..140u64 {
            q.enqueue(abc_packet(seq), at(t));
            let p = q.dequeue(at(t)).unwrap();
            if p.ecn == Ecn::Brake {
                brakes += 1;
            }
            t += 1;
        }
        assert!(brakes >= 30, "only {brakes} brakes during outage");
    }

    #[test]
    fn buffer_limit_tail_drops() {
        let mut q = AbcQdisc::new(AbcRouterConfig {
            buffer_pkts: 2,
            ..Default::default()
        });
        assert!(q.enqueue(abc_packet(0), at(0)));
        assert!(q.enqueue(abc_packet(1), at(0)));
        assert!(!q.enqueue(abc_packet(2), at(0)));
        assert_eq!(q.stats().dropped_pkts, 1);
    }

    #[test]
    fn acks_pass_unmarked_but_count_toward_rate() {
        let mut q = qdisc();
        q.on_capacity(Rate::from_mbps(0.1), at(0)); // f → small
        let mut p = abc_packet(0);
        p.ack = Some(netsim::packet::AckData {
            seq: 0,
            cumulative_before: 0,
            data_sent_at: SimTime::ZERO,
            data_size: 1500,
            ecn_echo: Ecn::Accelerate,
            feedback: Feedback::None,
            one_way_delay: SimDuration::ZERO,
            retransmit: false,
        });
        p.ecn = Ecn::Accelerate;
        q.enqueue(p, at(0));
        let out = q.dequeue(at(500)).unwrap(); // huge sojourn, f≈0
        assert_eq!(out.ecn, Ecn::Accelerate, "ACKs are not ABC-marked");
    }

    #[test]
    fn probabilistic_mode_tracks_f_on_average() {
        let mut q = AbcQdisc::new(AbcRouterConfig {
            marking: MarkingMode::Probabilistic,
            ..Default::default()
        });
        q.on_capacity(Rate::from_mbps(12.0), at(0));
        let mut accel = 0;
        let mut total = 0;
        // one packet per ms: t tracks seq one-to-one
        for seq in 0..2000u64 {
            q.enqueue(abc_packet(seq), at(seq));
            let p = q.dequeue(at(seq)).unwrap();
            if seq >= 100 {
                total += 1;
                if p.ecn == Ecn::Accelerate {
                    accel += 1;
                }
            }
        }
        let share = accel as f64 / total as f64;
        assert!((share - 0.49).abs() < 0.05, "share {share}");
    }
}
