//! The ABC sender (§3.1.1, §3.1.3, §5.1.1).
//!
//! * accelerate ACK → `w ← w + 1 + 1/w` (send two packets);
//! * brake ACK → `w ← w − 1 + 1/w` (send none);
//! * the `1/w` additive-increase term gives fairness (Eq. 3, Fig. 3);
//! * a second window `w_nonabc` runs Cubic against losses and CE marks so
//!   the flow is safe behind non-ABC bottlenecks (§5.1.1); the sender obeys
//!   `min(w_abc, w_nonabc)` and caps both at 2× the packets in flight.

use crate::router::EcnDialect;
use baselines::cubic::CubicWindow;
use netsim::flow::{AckEvent, CongestionControl};
use netsim::packet::Ecn;
use netsim::time::{SimDuration, SimTime};

/// Tuning knobs for the ABC sender. Defaults match the paper's evaluation.
#[derive(Debug, Clone, Copy)]
pub struct AbcSenderConfig {
    /// Apply the `+1/w` additive-increase term of Eq. 3. Disabling it
    /// reproduces the unfair MIMD variant of Fig. 3a.
    pub additive_increase: bool,
    /// Track a Cubic window against loss/CE and obey the minimum of the
    /// two windows (§5.1.1). Disabling leaves pure ABC (useful when the
    /// ABC router is known to be the only bottleneck).
    pub dual_window: bool,
    /// Cap both windows at this multiple of the in-flight packet count.
    pub inflight_cap_factor: f64,
    /// Initial congestion window (packets).
    pub init_cwnd: f64,
    /// ECN codepoint interpretation (§5.1.2): must match the routers'.
    pub dialect: EcnDialect,
}

impl Default for AbcSenderConfig {
    fn default() -> Self {
        AbcSenderConfig {
            additive_increase: true,
            dual_window: true,
            inflight_cap_factor: 2.0,
            init_cwnd: 2.0,
            dialect: EcnDialect::NsBit,
        }
    }
}

/// The ABC endpoint: the accelerate/brake window rule plus the
/// non-ABC (Cubic) companion window of §5.1.1.
pub struct AbcSender {
    cfg: AbcSenderConfig,
    w_abc: f64,
    w_nonabc: CubicWindow,
    srtt: SimDuration,
    accel_count: u64,
    brake_count: u64,
    /// Consecutive ACKs carrying neither accelerate nor brake. A long
    /// streak means the path strips/bleaches ECN (a known middlebox
    /// hazard): the sender then defers to its Cubic window alone instead
    /// of staying pinned at a w_abc that can never grow.
    signalless_streak: u32,
}

impl AbcSender {
    /// An ABC sender under the default configuration.
    pub fn new() -> Self {
        Self::with_config(AbcSenderConfig::default())
    }

    /// An ABC sender under `cfg`, both windows at their initial sizes.
    pub fn with_config(cfg: AbcSenderConfig) -> Self {
        AbcSender {
            cfg,
            w_abc: cfg.init_cwnd,
            w_nonabc: CubicWindow::new(cfg.init_cwnd * 2.0),
            srtt: SimDuration::from_millis(100),
            accel_count: 0,
            brake_count: 0,
            signalless_streak: 0,
        }
    }

    /// Convenience: ABC without the additive-increase term (Fig. 3a).
    pub fn without_additive_increase() -> Self {
        Self::with_config(AbcSenderConfig {
            additive_increase: false,
            ..Default::default()
        })
    }

    /// Current ABC window (packets).
    pub fn w_abc(&self) -> f64 {
        self.w_abc
    }

    /// Current non-ABC (Cubic) companion window (packets).
    pub fn w_nonabc(&self) -> f64 {
        self.w_nonabc.cwnd()
    }

    fn ai_term(&self) -> f64 {
        if self.cfg.additive_increase {
            1.0 / self.w_abc.max(1.0)
        } else {
            0.0
        }
    }
}

impl Default for AbcSender {
    fn default() -> Self {
        Self::new()
    }
}

impl CongestionControl for AbcSender {
    fn name(&self) -> &'static str {
        "abc"
    }

    fn on_ack(&mut self, ev: &AckEvent) {
        if !ev.srtt.is_zero() {
            self.srtt = ev.srtt;
        }
        // Decode accel/brake per the configured dialect (§5.1.2).
        #[derive(PartialEq)]
        enum Signal {
            Accel,
            Brake,
            LegacyCe,
            None,
        }
        let signal = match (self.cfg.dialect, ev.ecn_echo) {
            (EcnDialect::NsBit, Ecn::Accelerate) => Signal::Accel,
            (EcnDialect::NsBit, Ecn::Brake) => Signal::Brake,
            (EcnDialect::NsBit, Ecn::Ce) => Signal::LegacyCe,
            // proxied mode: any ECT echo is an accelerate, CE is a brake
            (EcnDialect::ProxiedCe, e) if e.is_ect() => Signal::Accel,
            (EcnDialect::ProxiedCe, Ecn::Ce) => Signal::Brake,
            _ => Signal::None,
        };
        // §3.1.1: window updates count newly acknowledged *bytes*, so an
        // ACK that cumulatively covers k packets applies the signal k
        // times — robustness to delayed, lost, and partial ACKs.
        let units = (ev.acked_bytes as f64 / netsim::packet::MTU_BYTES as f64).max(1.0);
        match signal {
            Signal::Accel | Signal::Brake => self.signalless_streak = 0,
            Signal::LegacyCe | Signal::None => {
                self.signalless_streak = self.signalless_streak.saturating_add(1)
            }
        }
        match signal {
            Signal::Accel => {
                self.accel_count += 1;
                self.w_abc += units * (1.0 + self.ai_term());
                self.w_nonabc.on_ack(ev.now, self.srtt);
            }
            Signal::Brake => {
                self.brake_count += 1;
                self.w_abc += units * (self.ai_term() - 1.0);
                self.w_nonabc.on_ack(ev.now, self.srtt);
            }
            Signal::LegacyCe => {
                // a legacy ECN router on the path signaled congestion:
                // only the non-ABC window reacts (§5.1.2)
                self.w_nonabc.on_congestion(ev.now, self.srtt);
            }
            Signal::None => {
                // feedback stripped (shouldn't happen on ABC paths); treat
                // as a plain ACK for the non-ABC window
                self.w_nonabc.on_ack(ev.now, self.srtt);
            }
        }
        self.w_abc = self.w_abc.max(1.0);

        // Cap both windows to 2× in-flight so the idle window can't grow
        // unboundedly while the other is the bottleneck (§5.1.1). The
        // just-acked packet counts as in flight for this purpose —
        // otherwise a window of w could never grow past 2(w−1), which
        // pins the initial window of 2 forever.
        let inflight = (ev.inflight_pkts + 1).max(2) as f64;
        let cap = (self.cfg.inflight_cap_factor * inflight).max(4.0);
        self.w_abc = self.w_abc.min(cap);
        self.w_nonabc.clamp_cwnd(cap);
    }

    fn on_loss(&mut self, now: SimTime) {
        // losses come from non-ABC queues (droptail); the Cubic window
        // absorbs them, w_abc keeps tracking the ABC router's feedback
        self.w_nonabc.on_congestion(now, self.srtt);
    }

    fn on_rto(&mut self, _now: SimTime) {
        self.w_nonabc.on_rto();
        // feedback stopped entirely (e.g. a link outage): restart cautiously
        self.w_abc = 1.0;
    }

    fn cwnd_pkts(&self) -> f64 {
        if !self.cfg.dual_window {
            return self.w_abc.max(1.0);
        }
        // ~1 window of ACKs with zero ABC feedback ⇒ the path is bleaching
        // ECN; run on the Cubic window alone until feedback reappears
        if self.signalless_streak > 64 {
            return self.w_nonabc.cwnd().max(1.0);
        }
        self.w_abc.min(self.w_nonabc.cwnd()).max(1.0)
    }

    fn outgoing_ecn(&self) -> Ecn {
        // every data packet leaves marked "accelerate" (= ECT(1)); routers
        // may demote to brake but never promote (§3.1.2, multi-bottleneck)
        Ecn::Accelerate
    }

    fn is_abc(&self) -> bool {
        true
    }

    fn as_abc_windows(&self) -> Option<(f64, f64)> {
        Some((self.w_abc, self.w_nonabc.cwnd()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::packet::Feedback;
    use netsim::rate::Rate;

    fn ack(ecn: Ecn, inflight: usize) -> AckEvent {
        AckEvent {
            now: SimTime::ZERO + SimDuration::from_secs(1),
            rtt: Some(SimDuration::from_millis(100)),
            min_rtt: SimDuration::from_millis(100),
            srtt: SimDuration::from_millis(100),
            acked_bytes: 1500,
            ecn_echo: ecn,
            feedback: Feedback::None,
            inflight_pkts: inflight,
            delivery_rate: Rate::ZERO,
            one_way_delay: SimDuration::from_millis(50),
        }
    }

    #[test]
    fn accelerate_adds_one_plus_ai() {
        let mut s = AbcSender::new();
        let w0 = s.w_abc();
        s.on_ack(&ack(Ecn::Accelerate, 100));
        assert!((s.w_abc() - (w0 + 1.0 + 1.0 / w0)).abs() < 1e-9);
    }

    #[test]
    fn brake_subtracts_one_minus_ai() {
        let mut s = AbcSender::new();
        s.w_abc = 10.0;
        s.on_ack(&ack(Ecn::Brake, 100));
        assert!((s.w_abc() - (10.0 - 1.0 + 0.1)).abs() < 1e-9);
    }

    #[test]
    fn without_ai_is_pure_mimd() {
        let mut s = AbcSender::without_additive_increase();
        s.w_abc = 10.0;
        s.on_ack(&ack(Ecn::Accelerate, 100));
        assert!((s.w_abc() - 11.0).abs() < 1e-9);
        s.on_ack(&ack(Ecn::Brake, 100));
        assert!((s.w_abc() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn steady_state_window_matches_fairness_argument() {
        // §3.1.3: in steady state 2f + 1/w = 1 ⇒ w = 1/(1−2f). With
        // f = 0.45 the fixed point is w = 10: feed alternating feedback
        // at that ratio and verify w converges near 10.
        let mut s = AbcSender::new();
        s.w_abc = 30.0;
        for i in 0..4000 {
            // 45% accelerates, 55% brakes, deterministically interleaved
            let e = if (i * 9) % 20 < 9 {
                Ecn::Accelerate
            } else {
                Ecn::Brake
            };
            s.on_ack(&ack(e, 1000));
        }
        assert!(
            (s.w_abc() - 10.0).abs() < 1.5,
            "steady-state w = {}",
            s.w_abc()
        );
    }

    #[test]
    fn ce_hits_only_nonabc_window() {
        let mut s = AbcSender::new();
        s.w_abc = 50.0;
        // grow cubic past slow start so a CE bite is visible
        for _ in 0..200 {
            s.on_ack(&ack(Ecn::Accelerate, 100));
        }
        let (wa0, wn0) = (s.w_abc(), s.w_nonabc());
        s.on_ack(&ack(Ecn::Ce, 100));
        assert_eq!(s.w_abc(), wa0, "CE must not touch w_abc");
        assert!(s.w_nonabc() < wn0, "CE must shrink w_nonabc");
    }

    #[test]
    fn inflight_cap_bounds_both_windows() {
        let mut s = AbcSender::new();
        for _ in 0..100 {
            s.on_ack(&ack(Ecn::Accelerate, 5));
        }
        // cap = 2×(5 in flight + the acked packet) = 12
        assert!(s.w_abc() <= 12.0 + 1e-9, "w_abc {} > 2×6", s.w_abc());
        assert!(s.w_nonabc() <= 12.0 + 1e-9);
    }

    #[test]
    fn small_initial_window_can_still_double() {
        // regression: with cap = 2×inflight (excluding the acked packet),
        // a 2-packet window could never grow
        let mut s = AbcSender::new();
        assert_eq!(s.w_abc(), 2.0);
        s.on_ack(&ack(Ecn::Accelerate, 1)); // one still in flight
        assert!(s.w_abc() > 3.0, "w_abc stuck at {}", s.w_abc());
    }

    #[test]
    fn sender_obeys_min_of_windows() {
        let mut s = AbcSender::new();
        s.w_abc = 20.0;
        // leave w_nonabc at its init (4.0): min rules
        assert!(s.cwnd_pkts() <= s.w_nonabc().min(s.w_abc()));
    }

    #[test]
    fn rto_resets_abc_window() {
        let mut s = AbcSender::new();
        s.w_abc = 40.0;
        s.on_rto(SimTime::ZERO);
        assert_eq!(s.w_abc(), 1.0);
    }

    #[test]
    fn outgoing_packets_are_accelerate_marked() {
        let s = AbcSender::new();
        assert_eq!(s.outgoing_ecn(), Ecn::Accelerate);
        assert!(s.is_abc());
    }
}
