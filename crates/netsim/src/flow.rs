//! Transport endpoints: the [`Sender`] (reliable, window- or rate-driven,
//! pluggable congestion control) and the per-flow [`Sink`] that echoes
//! feedback in ACKs.

use crate::event::EventKind;
use crate::metrics::Metrics;
use crate::node::{Context, Node, TimerId};
use crate::packet::{AckData, Ecn, Feedback, FlowId, Packet, Route, MTU_BYTES};
use crate::rate::Rate;
use crate::telemetry::{Scope, Signal};
use crate::time::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::rc::Rc;

/// Everything a congestion controller may want to know about an ACK.
#[derive(Debug, Clone, Copy)]
pub struct AckEvent {
    /// Arrival time of the ACK at the sender.
    pub now: SimTime,
    /// RTT sample for this ACK; `None` when the acked packet was a
    /// retransmission (Karn's rule).
    pub rtt: Option<SimDuration>,
    /// Minimum RTT observed on this flow so far.
    pub min_rtt: SimDuration,
    /// Smoothed RTT (EWMA) as of this ACK.
    pub srtt: SimDuration,
    /// Wire bytes newly acknowledged by this ACK.
    pub acked_bytes: u32,
    /// ECN bits as received by the peer: `Accelerate`/`Brake` for ABC,
    /// `Ce` for legacy AQM marks.
    pub ecn_echo: Ecn,
    /// Explicit-scheme feedback echoed by the peer.
    pub feedback: Feedback,
    /// Packets still in flight after this ACK was processed.
    pub inflight_pkts: usize,
    /// Delivery-rate sample (BBR-style): delivered bytes between the acked
    /// packet's send time and now, over that interval.
    pub delivery_rate: Rate,
    /// One-way delay experienced by the acked data packet.
    pub one_way_delay: SimDuration,
}

/// How the sender releases packets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pacing {
    /// Transmissions are triggered by ACK arrivals (window-based schemes).
    AckClocked,
    /// Transmissions are released by a pacing clock at this rate,
    /// still subject to the congestion window cap.
    Rate(Rate),
}

/// A pluggable congestion-control algorithm.
///
/// Implementations live in the `abc-core`, `baselines`, and `explicit`
/// crates; the sender is generic over all of them.
pub trait CongestionControl {
    /// Scheme name as it appears in reports and figures.
    fn name(&self) -> &'static str;

    /// Process an ACK (the common case — every algorithm reacts here).
    fn on_ack(&mut self, ev: &AckEvent);

    /// A loss was inferred via duplicate-ACK threshold. Called once per
    /// loss episode (per round trip), not once per lost packet.
    fn on_loss(&mut self, _now: SimTime) {}

    /// The retransmission timer fired.
    fn on_rto(&mut self, _now: SimTime) {}

    /// Current congestion window in packets (fractional windows allowed;
    /// the sender floors for admission).
    fn cwnd_pkts(&self) -> f64;

    /// How this scheme releases packets (ACK-clocked by default).
    fn pacing(&self) -> Pacing {
        Pacing::AckClocked
    }

    /// ECN codepoint stamped on outgoing data packets. ABC senders send
    /// `Accelerate`; ECN-capable legacy senders `Brake` (= ECT(0));
    /// non-ECN senders `NotEct`.
    fn outgoing_ecn(&self) -> Ecn {
        Ecn::NotEct
    }

    /// Explicit-feedback header stamped on outgoing data packets
    /// (XCP writes cwnd/rtt; RCP a rate request).
    fn outgoing_feedback(&mut self, _now: SimTime) -> Feedback {
        Feedback::None
    }

    /// Whether routers should classify this flow into the ABC queue.
    fn is_abc(&self) -> bool {
        false
    }

    /// ABC's dual windows `(w_abc, w_nonabc)`, for telemetry (Fig. 6 of
    /// the paper plots both). Non-ABC controllers return `None`.
    fn as_abc_windows(&self) -> Option<(f64, f64)> {
        None
    }
}

/// An application model driving a sender from *above* the transport — the
/// hook the `workload` crate's generators (ABR video clients, RTC sources)
/// plug into.
///
/// The sender polls [`available_bytes`](AppDriver::available_bytes) to
/// decide whether the app has data, consults
/// [`next_wakeup`](AppDriver::next_wakeup) to arm its app timer when the
/// source is exhausted, and reports cumulative delivered (ACKed) bytes via
/// [`on_progress`](AppDriver::on_progress) so request/response apps can
/// advance their own state machines (a video client picking the next
/// chunk's bitrate, say). All methods are pure functions of simulation
/// time and driver state, so driven flows stay bit-deterministic.
pub trait AppDriver: std::any::Any {
    /// Total bytes the application has made available to the transport up
    /// to `now`. Must be monotone non-decreasing in `now`.
    fn available_bytes(&mut self, now: SimTime) -> u64;

    /// The next instant at which more data may become available while the
    /// source is exhausted, or `None` if nothing will appear until
    /// [`on_progress`](AppDriver::on_progress) moves the state machine.
    fn next_wakeup(&mut self, now: SimTime) -> Option<SimTime>;

    /// The transport has cumulatively delivered (received ACKs for)
    /// `delivered_bytes` of application data. Called at least once per
    /// processed ACK; implementations must tolerate repeated calls with an
    /// unchanged value.
    fn on_progress(&mut self, now: SimTime, delivered_bytes: u64);

    /// Downcast support for post-run metric extraction.
    fn as_any(&self) -> &dyn std::any::Any;
    /// Mutable downcast support (mid-run parameter adjustment).
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
}

/// Application traffic pattern feeding the sender.
#[derive(Debug, Clone, Copy)]
pub enum TrafficSource {
    /// Always has data (iperf-style backlogged flow).
    Backlogged,
    /// Token bucket: data becomes available at `rate`, with at most
    /// `burst_bytes` accumulating while the flow is blocked.
    RateLimited {
        /// Sustained application data rate.
        rate: Rate,
        /// Bucket depth: bytes that may accumulate while blocked.
        burst_bytes: f64,
    },
    /// A flow of fixed total size; the sender stops offering data once
    /// everything has been handed to the transport.
    Finite {
        /// Total application bytes to transfer.
        bytes: u64,
    },
    /// Backlogged during `[0, on)`, silent during `[on, on+off)`, repeating.
    OnOff {
        /// Length of each talking burst.
        on: SimDuration,
        /// Length of each silence between bursts.
        off: SimDuration,
    },
}

/// Counters exposed for harnesses and tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct SenderStats {
    /// Data packets transmitted (including retransmissions).
    pub sent_pkts: u64,
    /// Wire bytes transmitted (including retransmissions).
    pub sent_bytes: u64,
    /// Data packets acknowledged.
    pub acked_pkts: u64,
    /// Wire bytes acknowledged.
    pub acked_bytes: u64,
    /// Packets retransmitted (dup-ACK or RTO recovery).
    pub retransmits: u64,
    /// Loss episodes inferred via the duplicate-ACK threshold.
    pub losses_detected: u64,
    /// Retransmission-timer expirations.
    pub rtos: u64,
    /// ACKs echoing the Accelerate codepoint.
    pub accel_acks: u64,
    /// ACKs echoing the Brake codepoint.
    pub brake_acks: u64,
}

/// One transmission of one sequence number.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SentRecord {
    sent_at: SimTime,
    size: u32,
    retransmit: bool,
    /// ACKs that passed this transmission; [`DUPACK_THRESHOLD`] ⇒
    /// inferred lost.
    passed: u8,
    /// Sender's delivered-bytes counter when this packet left (for
    /// delivery-rate sampling).
    delivered_at_send: u64,
}

/// Where one sequence number stands. Every seq the sender has handed out
/// is in exactly one state: a seq is never in flight and queued at once.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Slot {
    /// Delivered: ACKed, or credited by the receiver's cumulative point.
    Done,
    /// Sent and not yet ACKed or written off.
    InFlight(SentRecord),
    /// Written off (dup-ACK inference or RTO), waiting in the
    /// retransmit queue.
    Queued,
}

/// ACK bookkeeping for records the receiver's cumulative point covered
/// without their own ACK.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct Credit {
    pkts: u64,
    bytes: u32,
}

/// The sender's loss-recovery state: the in-flight window, the
/// retransmit queue and the loss-episode guard, with every ACK costing
/// O(1) amortised plus O(log n) per record it passes.
///
/// * **Slots.** One [`Slot`] per seq in `[base, next_seq)`, in seq
///   order; the front slot is never `Done`. A fresh send is one
///   `push_back` and an in-order ACK one `pop_front`; a retransmission or
///   an out-of-order ACK indexes its slot directly.
/// * **Pass walk.** An ACK for seq `a`, whose transmission left at
///   `t_a`, passes every in-flight record with `seq < a` and
///   `sent_at < t_a`. Records become *eligible* as ACKs reveal they were
///   sent before an ACKed packet: fresh sends are in seq order and in
///   send order at once, so a cursor over the slots releases them;
///   retransmissions are released from their own send-order log. The
///   eligible records sit in a min-heap by seq, so an ACK visits only the
///   records below `a` — one that has not yet been passed three times
///   goes back — and the lost batch comes out in seq order, the order
///   the retransmit queue has always had. With no loss nothing becomes
///   eligible and neither the log nor the heap is touched.
/// * **Watermark.** Only the running maximum of the cumulative point
///   matters: nothing below it is ever in flight or queued again, so the
///   retransmit queue drops entries below it lazily, at pop.
///
/// Heap and log entries are `(seq, sent_at)` pairs checked against the
/// slot when they are read; a pair whose transmission has since been
/// ACKed, credited or written off is stale and skipped. A seq's
/// retransmission always leaves strictly after its previous
/// transmission, so the pair names one transmission.
#[derive(Debug, Default)]
struct Scoreboard {
    slots: VecDeque<Slot>,
    /// The seq of `slots[0]`.
    base: u64,
    /// How many slots are `InFlight`: the sender's window occupancy.
    in_flight: usize,
    /// Fresh sends below this seq have been released to `eligible`, or
    /// had left flight when the cursor reached them.
    fresh_cursor: u64,
    /// Retransmissions not yet released to `eligible`, in send order.
    retx_sent: VecDeque<(u64, SimTime)>,
    /// In-flight records sent before some ACKed packet, least seq first.
    eligible: BinaryHeap<Reverse<(u64, SimTime)>>,
    /// Seqs awaiting retransmission, in order; entries below `cum` are
    /// stale.
    retx: VecDeque<u64>,
    /// Running maximum of the receiver's cumulative point.
    cum: u64,
    /// Loss-episode guard: losses on seqs below this were already
    /// reacted to.
    recovery_until: u64,
    /// Reused per-ACK scratch: eligible records the pass walk visited
    /// and kept, pushed back onto `eligible` once the walk ends.
    held: Vec<(u64, SimTime)>,
}

impl Scoreboard {
    /// The seq a fresh send takes.
    fn next_seq(&self) -> u64 {
        self.base + self.slots.len() as u64
    }

    fn slot_mut(&mut self, seq: u64) -> Option<&mut Slot> {
        let at = usize::try_from(seq.checked_sub(self.base)?).ok()?;
        self.slots.get_mut(at)
    }

    /// `seq`'s in-flight record, if it is still the transmission that
    /// left at `sent_at`.
    fn transmission_mut(&mut self, seq: u64, sent_at: SimTime) -> Option<&mut SentRecord> {
        match self.slot_mut(seq)? {
            Slot::InFlight(r) if r.sent_at == sent_at => Some(r),
            _ => None,
        }
    }

    /// Record a transmission of `seq`: `next_seq()` for a fresh send, a
    /// seq just popped off the retransmit queue otherwise.
    fn on_send(&mut self, seq: u64, rec: SentRecord) {
        if rec.retransmit {
            let slot = self.slot_mut(seq).expect("retransmitted seq has a slot");
            debug_assert_eq!(
                *slot,
                Slot::Queued,
                "seq {seq} retransmitted while not queued"
            );
            *slot = Slot::InFlight(rec);
            self.retx_sent.push_back((seq, rec.sent_at));
        } else {
            debug_assert_eq!(seq, self.next_seq(), "fresh send out of sequence");
            self.slots.push_back(Slot::InFlight(rec));
        }
        self.in_flight += 1;
    }

    /// The next seq to retransmit, if any.
    fn pop_retransmit(&mut self) -> Option<u64> {
        while let Some(seq) = self.retx.pop_front() {
            if seq >= self.cum {
                return Some(seq);
            }
        }
        None
    }

    /// An ACK for `seq` reporting cumulative point `cum`: everything
    /// below `cum` but `seq` itself is delivered (in-flight records are
    /// credited, queued ones need no retransmission), then `seq`'s own
    /// in-flight record is taken — `None` for a duplicate, or for an
    /// ACK of a transmission already written off.
    fn on_ack(&mut self, seq: u64, cum: u64) -> (Credit, Option<SentRecord>) {
        self.cum = self.cum.max(cum);
        let mut credit = Credit::default();
        let below = cum.saturating_sub(self.base).min(self.slots.len() as u64);
        for i in 0..below as usize {
            let slot = &mut self.slots[i];
            match *slot {
                Slot::InFlight(r) if self.base + i as u64 != seq => {
                    credit.pkts += 1;
                    credit.bytes += r.size;
                    self.in_flight -= 1;
                }
                Slot::Queued => {}
                _ => continue,
            }
            *slot = Slot::Done;
        }
        let rec = self.slot_mut(seq).and_then(|slot| match *slot {
            Slot::InFlight(r) => {
                *slot = Slot::Done;
                Some(r)
            }
            _ => None,
        });
        if rec.is_some() {
            self.in_flight -= 1;
        }
        while self.slots.front() == Some(&Slot::Done) {
            self.slots.pop_front();
            self.base += 1;
        }
        (credit, rec)
    }

    /// Dup-ACK-equivalent loss inference for an ACK of `acked`, whose
    /// transmission left at `acked_sent_at`. On a FIFO path every packet
    /// *transmitted before* the ACKed one that is still in flight was
    /// passed. The transmission-time check matters for
    /// retransmissions: a fresh retransmit sits behind a full queue, and
    /// ACKs of packets sent before it must not count against it (else it
    /// is spuriously retransmitted every 3 ACKs). Records passed
    /// [`DUPACK_THRESHOLD`] times move to the retransmit queue in seq
    /// order. Returns how many did, and whether one of them opens a new
    /// loss episode (the guard then moves to `next_seq()`).
    fn pass(&mut self, acked: u64, acked_sent_at: SimTime) -> (u64, bool) {
        self.fresh_cursor = self.fresh_cursor.max(self.base);
        while let Some(&slot) = self.slots.get((self.fresh_cursor - self.base) as usize) {
            if let Slot::InFlight(r) = slot {
                if !r.retransmit {
                    if r.sent_at >= acked_sent_at {
                        break;
                    }
                    self.eligible.push(Reverse((self.fresh_cursor, r.sent_at)));
                }
            }
            self.fresh_cursor += 1;
        }
        while let Some(&(seq, at)) = self.retx_sent.front() {
            if at >= acked_sent_at {
                break;
            }
            self.retx_sent.pop_front();
            if self.transmission_mut(seq, at).is_some() {
                self.eligible.push(Reverse((seq, at)));
            }
        }

        let (mut lost, mut last_lost) = (0, 0);
        while let Some(&Reverse((seq, at))) = self.eligible.peek() {
            if seq >= acked {
                break;
            }
            self.eligible.pop();
            let Some(r) = self.transmission_mut(seq, at) else {
                continue; // stale
            };
            if at < acked_sent_at {
                r.passed += 1;
                if r.passed >= DUPACK_THRESHOLD {
                    *self.slot_mut(seq).expect("in flight") = Slot::Queued;
                    self.in_flight -= 1;
                    self.retx.push_back(seq);
                    (lost, last_lost) = (lost + 1, seq);
                    continue;
                }
            }
            self.held.push((seq, at));
        }
        for &entry in &self.held {
            self.eligible.push(Reverse(entry));
        }
        self.held.clear();

        let new_episode = lost > 0 && last_lost >= self.recovery_until;
        if new_episode {
            self.recovery_until = self.next_seq();
        }
        (lost, new_episode)
    }

    /// Retransmission timeout, conservative go-back-N: everything in
    /// flight is presumed lost and queued in seq order.
    fn on_rto(&mut self) {
        let mut left = self.in_flight;
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if left == 0 {
                break;
            }
            if let Slot::InFlight(_) = slot {
                *slot = Slot::Queued;
                self.retx.push_back(self.base + i as u64);
                left -= 1;
            }
        }
        self.in_flight = 0;
        self.eligible.clear();
        self.retx_sent.clear();
        self.fresh_cursor = self.next_seq();
        self.recovery_until = self.next_seq();
    }
}

const TOK_RTO: u64 = 1;
const TOK_PACE: u64 = 2;
const TOK_APP: u64 = 3;

/// Passes before a packet is inferred lost: the classic three duplicate
/// ACKs. Paths can reorder (the `Reorder` impairment holds packets
/// back), and a packet overtaken by fewer than three later
/// transmissions is not written off.
const DUPACK_THRESHOLD: u8 = 3;
const MIN_RTO: SimDuration = SimDuration::from_millis(200);
const INITIAL_RTO: SimDuration = SimDuration::from_secs(1);

/// A reliable transport sender with pluggable congestion control.
pub struct Sender {
    flow: FlowId,
    cc: Box<dyn CongestionControl>,
    route: Rc<Route>,
    app: TrafficSource,
    pkt_size: u32,
    start_at: SimTime,
    stop_at: Option<SimTime>,

    board: Scoreboard,

    srtt: Option<SimDuration>,
    rttvar: SimDuration,
    min_rtt: SimDuration,
    rto: SimDuration,
    rto_backoff: u32,
    /// The single pending RTO timer, if any. Re-arming per send would churn
    /// the queue, so sends only move `rto_deadline`; a pending timer that
    /// fires before the deadline re-arms itself for the remainder, and a
    /// deadline that moves *earlier* than the pending fire time (the RTO
    /// estimate shrank) cancels and re-arms immediately. Quiescing (all
    /// data ACKed) cancels outright.
    rto_timer: Option<TimerId>,
    /// When the pending timer will fire (valid while `rto_timer` is Some).
    rto_timer_at: SimTime,
    rto_deadline: SimTime,
    /// Batched-dispatch mode ([`Node::handle_batch`]): while set,
    /// `arm_rto` only moves `rto_deadline`, and a single
    /// `sync_rto_timer` call at batch end reconciles the queue timer —
    /// N same-instant ACKs cost one timer operation instead of N.
    batch_rto_defer: bool,

    /// At most one pacing timer is outstanding; the flag (not a generation
    /// tag) guarantees it, so pace ticks never go stale.
    pace_armed: bool,
    /// A TOK_APP wakeup is pending; prevents every ACK from spawning an
    /// additional timer chain (each chain re-arms itself forever).
    app_timer_armed: bool,

    // token-bucket state for RateLimited
    app_tokens: f64,
    app_last: SimTime,
    app_bytes_offered: u64,
    /// Application model layered above `app`; when present it gates data
    /// availability instead of the [`TrafficSource`].
    driver: Option<Box<dyn AppDriver>>,

    delivered_bytes: u64,
    stats: SenderStats,
    started: bool,
}

impl Sender {
    /// A sender for `flow` running `cc`, sending along `route`, fed by
    /// the application pattern `app`.
    pub fn new(
        flow: FlowId,
        cc: Box<dyn CongestionControl>,
        route: Rc<Route>,
        app: TrafficSource,
    ) -> Self {
        Sender {
            flow,
            cc,
            route,
            app,
            pkt_size: MTU_BYTES,
            start_at: SimTime::ZERO,
            stop_at: None,
            board: Scoreboard::default(),
            srtt: None,
            rttvar: SimDuration::ZERO,
            min_rtt: SimDuration::MAX,
            rto: INITIAL_RTO,
            rto_backoff: 0,
            rto_timer: None,
            rto_timer_at: SimTime::ZERO,
            rto_deadline: SimTime::ZERO,
            batch_rto_defer: false,
            pace_armed: false,
            app_timer_armed: false,
            app_tokens: 0.0,
            app_last: SimTime::ZERO,
            app_bytes_offered: 0,
            driver: None,
            delivered_bytes: 0,
            stats: SenderStats::default(),
            started: false,
        }
    }

    /// Delay the flow's start (staggered-arrival experiments).
    pub fn with_start_at(mut self, t: SimTime) -> Self {
        self.start_at = t;
        self
    }

    /// Stop offering application data at `t` (staggered departures).
    pub fn with_stop_at(mut self, t: SimTime) -> Self {
        self.stop_at = Some(t);
        self
    }

    /// Use `size`-byte data packets instead of the MTU default.
    pub fn with_pkt_size(mut self, size: u32) -> Self {
        assert!(size > 0);
        self.pkt_size = size;
        self
    }

    /// Drive this sender from an [`AppDriver`] instead of the plain
    /// [`TrafficSource`] (which is then ignored).
    pub fn with_app_driver(mut self, driver: Box<dyn AppDriver>) -> Self {
        self.driver = Some(driver);
        self
    }

    /// Mutable driver access (end-of-run finalization hooks).
    pub fn app_driver_mut(&mut self) -> Option<&mut (dyn AppDriver + 'static)> {
        self.driver.as_deref_mut()
    }

    /// Lifetime transmission counters.
    pub fn stats(&self) -> SenderStats {
        self.stats
    }

    /// The congestion controller driving this sender.
    pub fn cc(&self) -> &dyn CongestionControl {
        &*self.cc
    }

    /// Current congestion window (packets, fractional).
    pub fn cwnd_pkts(&self) -> f64 {
        self.cc.cwnd_pkts()
    }

    /// Smoothed RTT, once at least one sample exists.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.srtt
    }

    /// Minimum RTT observed so far, once at least one sample exists.
    pub fn min_rtt(&self) -> Option<SimDuration> {
        (self.min_rtt != SimDuration::MAX).then_some(self.min_rtt)
    }

    /// Packets currently in flight (sent, not yet acked or written off).
    pub fn inflight(&self) -> usize {
        self.board.in_flight
    }

    fn app_has_data(&mut self, now: SimTime) -> bool {
        if self.stop_at.is_some_and(|t| now >= t) {
            return false;
        }
        if let Some(d) = &mut self.driver {
            return d.available_bytes(now) > self.app_bytes_offered;
        }
        match self.app {
            TrafficSource::Backlogged => true,
            TrafficSource::Finite { bytes } => self.app_bytes_offered < bytes,
            TrafficSource::RateLimited { rate, burst_bytes } => {
                let dt = now.since(self.app_last);
                self.app_last = now;
                self.app_tokens =
                    (self.app_tokens + rate.bps() / 8.0 * dt.as_secs_f64()).min(burst_bytes);
                self.app_tokens >= self.pkt_size as f64
            }
            TrafficSource::OnOff { on, off } => {
                let period = (on + off).as_nanos();
                let phase = now.since(self.start_at).as_nanos() % period;
                phase < on.as_nanos()
            }
        }
    }

    /// When will the app next have data, if it currently doesn't?
    fn app_next_ready(&mut self, now: SimTime) -> Option<SimTime> {
        if let Some(d) = &mut self.driver {
            return d.next_wakeup(now);
        }
        match self.app {
            TrafficSource::Backlogged | TrafficSource::Finite { .. } => None,
            TrafficSource::RateLimited { rate, .. } => {
                let deficit = (self.pkt_size as f64 - self.app_tokens).max(0.0);
                if rate.is_zero() {
                    return None;
                }
                let dt = SimDuration::from_secs_f64(deficit / (rate.bps() / 8.0));
                Some(now + dt.max(SimDuration::from_micros(100)))
            }
            TrafficSource::OnOff { on, off } => {
                let period = (on + off).as_nanos();
                let since = now.since(self.start_at).as_nanos();
                let phase = since % period;
                if phase < on.as_nanos() {
                    None // already on
                } else {
                    Some(self.start_at + SimDuration::from_nanos(since - phase + period))
                }
            }
        }
    }

    fn consume_app(&mut self, bytes: u32) {
        if self.driver.is_some() {
            self.app_bytes_offered += bytes as u64;
            return;
        }
        match &mut self.app {
            TrafficSource::RateLimited { .. } => self.app_tokens -= bytes as f64,
            TrafficSource::Finite { .. } => self.app_bytes_offered += bytes as u64,
            _ => {}
        }
    }

    fn window_allows(&self) -> bool {
        (self.board.in_flight as f64) < self.cc.cwnd_pkts().floor().max(1.0)
    }

    fn send_one(&mut self, ctx: &mut Context, seq: u64, retransmit: bool) {
        let now = ctx.now();
        let pkt = Packet {
            flow: self.flow,
            seq,
            size: self.pkt_size,
            ecn: self.cc.outgoing_ecn(),
            feedback: self.cc.outgoing_feedback(now),
            abc_capable: self.cc.is_abc(),
            sent_at: now,
            retransmit,
            ack: None,
            route: self.route.clone(),
            hop: 0,
            enqueued_at: now,
        };
        self.board.on_send(
            seq,
            SentRecord {
                sent_at: now,
                size: self.pkt_size,
                retransmit,
                passed: 0,
                delivered_at_send: self.delivered_bytes,
            },
        );
        self.stats.sent_pkts += 1;
        self.stats.sent_bytes += self.pkt_size as u64;
        if retransmit {
            self.stats.retransmits += 1;
        }
        ctx.forward(pkt);
        self.arm_rto(ctx);
    }

    /// Transmit as much as window + application allow (ACK-clocked mode),
    /// or ensure the pacing clock is armed (paced mode).
    fn try_send(&mut self, ctx: &mut Context) {
        if ctx.now() < self.start_at {
            return;
        }
        match self.cc.pacing() {
            Pacing::AckClocked => {
                while self.window_allows() {
                    if let Some(seq) = self.board.pop_retransmit() {
                        self.send_one(ctx, seq, true);
                        continue;
                    }
                    if self.app_has_data(ctx.now()) {
                        let seq = self.board.next_seq();
                        self.consume_app(self.pkt_size);
                        self.send_one(ctx, seq, false);
                    } else {
                        if !self.app_timer_armed {
                            if let Some(at) = self.app_next_ready(ctx.now()) {
                                ctx.set_timer_at(at, TOK_APP);
                                self.app_timer_armed = true;
                            }
                        }
                        break;
                    }
                }
            }
            Pacing::Rate(_) => self.arm_pacer(ctx),
        }
    }

    fn arm_pacer(&mut self, ctx: &mut Context) {
        if self.pace_armed {
            return;
        }
        if let Pacing::Rate(r) = self.cc.pacing() {
            let gap = r
                .tx_time(self.pkt_size)
                .max(SimDuration::from_micros(10))
                .min(SimDuration::from_secs(1));
            self.pace_armed = true;
            ctx.set_timer(gap, TOK_PACE);
        }
    }

    fn on_pace_tick(&mut self, ctx: &mut Context) {
        self.pace_armed = false;
        if ctx.now() < self.start_at {
            self.arm_pacer(ctx);
            return;
        }
        if self.window_allows() {
            if let Some(seq) = self.board.pop_retransmit() {
                self.send_one(ctx, seq, true);
            } else if self.app_has_data(ctx.now()) {
                let seq = self.board.next_seq();
                self.consume_app(self.pkt_size);
                self.send_one(ctx, seq, false);
            }
        }
        self.arm_pacer(ctx);
    }

    fn arm_rto(&mut self, ctx: &mut Context) {
        let backoff = 1u64 << self.rto_backoff.min(6);
        let timeout = self.rto * backoff;
        // Push the deadline; only arm a queue timer when none is pending.
        // The pending timer catches up via deferral when it fires early.
        self.rto_deadline = ctx.now() + timeout;
        ctx.count(Signal::RtoArm, Scope::Flow(self.flow.0), 1);
        if self.batch_rto_defer {
            return; // one sync_rto_timer call at batch end
        }
        self.sync_rto_timer(ctx);
    }

    /// Reconcile the queue timer with the current retransmission state:
    /// cancel it when nothing is outstanding, otherwise make sure a timer
    /// is pending no later than `rto_deadline` (a pending timer at or
    /// before the deadline defers itself at fire time).
    fn sync_rto_timer(&mut self, ctx: &mut Context) {
        if self.board.in_flight == 0 {
            // quiesce: unlink the RTO timer from the queue entirely
            if let Some(id) = self.rto_timer.take() {
                ctx.cancel_timer(id);
                ctx.count(Signal::RtoCancel, Scope::Flow(self.flow.0), 1);
            }
            return;
        }
        match self.rto_timer {
            None => {
                self.rto_timer = Some(ctx.set_timer_at(self.rto_deadline, TOK_RTO));
                self.rto_timer_at = self.rto_deadline;
            }
            // Deadline moved earlier than the pending fire time (the RTO
            // estimate shrank, e.g. after the first RTT sample replaces
            // INITIAL_RTO): deferral can only wait, so cancel and re-arm.
            Some(id) if self.rto_deadline < self.rto_timer_at => {
                ctx.cancel_timer(id);
                ctx.count(Signal::RtoCancel, Scope::Flow(self.flow.0), 1);
                self.rto_timer = Some(ctx.set_timer_at(self.rto_deadline, TOK_RTO));
                self.rto_timer_at = self.rto_deadline;
            }
            // Deadline at/after the pending fire time: the fired timer
            // defers itself to the stored deadline.
            Some(_) => {}
        }
    }

    fn update_rtt(&mut self, sample: SimDuration) {
        self.min_rtt = self.min_rtt.min(sample);
        match self.srtt {
            None => {
                self.srtt = Some(sample);
                self.rttvar = sample / 2;
            }
            Some(srtt) => {
                // RFC 6298 with α=1/8, β=1/4
                let diff = if srtt > sample {
                    srtt - sample
                } else {
                    sample - srtt
                };
                self.rttvar = self.rttvar.mul_f64(0.75) + diff.mul_f64(0.25);
                self.srtt = Some(srtt.mul_f64(0.875) + sample.mul_f64(0.125));
            }
        }
        let srtt = self.srtt.expect("just set");
        self.rto = (srtt + self.rttvar * 4).max(MIN_RTO);
    }

    fn on_ack(&mut self, ctx: &mut Context, ack: AckData) {
        let now = ctx.now();
        // Cumulative credit first: packets below the receiver's cumulative
        // point were delivered even if their individual ACKs were lost.
        // They are removed silently — no loss inference, no retransmission
        // — and their bytes are credited to this ACK (§3.1.1's byte
        // counting, which makes window updates robust to lost ACKs).
        let (credit, rec) = self.board.on_ack(ack.seq, ack.cumulative_before);
        let implicit_bytes = credit.bytes;
        self.delivered_bytes += implicit_bytes as u64;
        self.stats.acked_pkts += credit.pkts;
        self.stats.acked_bytes += implicit_bytes as u64;

        let Some(rec) = rec else {
            // duplicate / already-retransmitted ACK; the cumulative credit
            // above still applied. Resume sending if window opened.
            if implicit_bytes > 0 {
                if let Some(d) = &mut self.driver {
                    d.on_progress(now, self.delivered_bytes);
                }
                self.try_send(ctx);
            }
            return;
        };
        self.rto_backoff = 0;
        self.delivered_bytes += rec.size as u64;
        self.stats.acked_pkts += 1;
        self.stats.acked_bytes += rec.size as u64;
        match ack.ecn_echo {
            Ecn::Accelerate => self.stats.accel_acks += 1,
            Ecn::Brake => self.stats.brake_acks += 1,
            _ => {}
        }

        let rtt_sample = (!rec.retransmit).then(|| now.since(rec.sent_at));
        if let Some(s) = rtt_sample {
            self.update_rtt(s);
        }

        // delivery-rate sample over the acked packet's flight
        let interval = now.since(rec.sent_at);
        let delivery_rate = if interval.is_zero() {
            Rate::ZERO
        } else {
            Rate::from_bytes_per(self.delivered_bytes - rec.delivered_at_send, interval)
        };

        // dup-ACK-equivalent loss inference over the records this ACK passed
        let (lost, new_episode) = self.board.pass(ack.seq, rec.sent_at);
        self.stats.losses_detected += lost;
        if new_episode {
            self.cc.on_loss(now);
        }

        let ev = AckEvent {
            now,
            rtt: rtt_sample,
            min_rtt: if self.min_rtt == SimDuration::MAX {
                SimDuration::ZERO
            } else {
                self.min_rtt
            },
            srtt: self.srtt.unwrap_or(SimDuration::ZERO),
            acked_bytes: rec.size + implicit_bytes,
            ecn_echo: ack.ecn_echo,
            feedback: ack.feedback,
            inflight_pkts: self.board.in_flight,
            delivery_rate,
            one_way_delay: ack.one_way_delay,
        };
        self.cc.on_ack(&ev);
        if ctx.telemetry_on() {
            let scope = Scope::Flow(self.flow.0);
            ctx.sample(Signal::Cwnd, scope, self.cc.cwnd_pkts());
            ctx.sample(Signal::Inflight, scope, self.board.in_flight as f64);
            ctx.sample(
                Signal::SrttMs,
                scope,
                self.srtt.unwrap_or(SimDuration::ZERO).as_millis_f64(),
            );
            if let Pacing::Rate(r) = self.cc.pacing() {
                ctx.sample(Signal::PacingRateMbps, scope, r.mbps());
            }
            if ctx.wants(Signal::WAbc) || ctx.wants(Signal::WNonAbc) {
                if let Some((w_abc, w_nonabc)) = self.cc.as_abc_windows() {
                    ctx.sample(Signal::WAbc, scope, w_abc);
                    ctx.sample(Signal::WNonAbc, scope, w_nonabc);
                }
            }
        }
        if let Some(d) = &mut self.driver {
            d.on_progress(now, self.delivered_bytes);
        }
        if self.board.in_flight == 0 {
            // quiesce: unlink the RTO timer from the queue entirely (in
            // batched dispatch, the end-of-batch sync does it once)
            if !self.batch_rto_defer {
                self.sync_rto_timer(ctx);
            }
        } else {
            self.arm_rto(ctx);
        }
        self.try_send(ctx);
    }

    fn on_rto_fire(&mut self, ctx: &mut Context) {
        if self.board.in_flight == 0 {
            return;
        }
        let now = ctx.now();
        self.stats.rtos += 1;
        self.rto_backoff += 1;
        ctx.count(Signal::RtoFire, Scope::Flow(self.flow.0), 1);
        self.cc.on_rto(now);
        self.board.on_rto();
        self.try_send(ctx);
    }
}

impl Node for Sender {
    crate::impl_node_downcast!();

    fn start(&mut self, ctx: &mut Context) {
        self.started = true;
        self.app_last = ctx.now();
        if self.start_at > ctx.now() {
            ctx.set_timer_at(self.start_at, TOK_APP);
        } else {
            self.try_send(ctx);
        }
    }

    fn handle(&mut self, ctx: &mut Context, event: EventKind) {
        match event {
            EventKind::Deliver(pkt) => {
                if let Some(ack) = pkt.ack {
                    debug_assert_eq!(pkt.flow, self.flow, "ACK routed to wrong sender");
                    ctx.recycle(pkt);
                    self.on_ack(ctx, ack);
                } else {
                    ctx.recycle(pkt);
                }
            }
            EventKind::Timer(tok) => match tok {
                TOK_RTO => {
                    self.rto_timer = None;
                    if self.board.in_flight == 0 {
                        // already quiesced between arm and fire
                    } else if ctx.now() < self.rto_deadline {
                        // sends pushed the deadline since this was armed:
                        // defer instead of firing
                        let remaining = self.rto_deadline.since(ctx.now());
                        self.rto_timer = Some(ctx.set_timer(remaining, TOK_RTO));
                        self.rto_timer_at = self.rto_deadline;
                    } else {
                        self.on_rto_fire(ctx);
                    }
                }
                TOK_PACE => self.on_pace_tick(ctx),
                TOK_APP => {
                    self.app_timer_armed = false;
                    self.try_send(ctx);
                }
                _ => {}
            },
        }
    }

    /// Coalesce a same-instant ACK burst (e.g. from a batching
    /// [`Sink`]) into one RTO-timer reconciliation. Every per-ACK
    /// semantic — congestion-control updates with the per-ACK inflight
    /// count, loss inference, app progress, window-driven sends — runs
    /// per event exactly as in single dispatch; only the RTO timer's
    /// queue churn is deferred: `arm_rto` moves the deadline per event
    /// and a single `sync_rto_timer` call reconciles the queue at batch
    /// end, the same catch-up the `TOK_RTO` handler performs when a
    /// deferred timer fires early.
    fn handle_batch(&mut self, ctx: &mut Context, batch: &mut Vec<EventKind>) {
        self.batch_rto_defer = true;
        for event in batch.drain(..) {
            self.handle(ctx, event);
        }
        self.batch_rto_defer = false;
        self.sync_rto_timer(ctx);
    }
}

/// Per-flow receiver: records deliveries, echoes feedback in an ACK sent
/// along `ack_route`.
///
/// By default every data packet is acknowledged immediately. With
/// [`Sink::with_ack_batching`], ACKs are held until `batch` have
/// accumulated or `max_delay` passes, then released together — modeling
/// delayed/compressed ACKs. Each released ACK still covers exactly one
/// data packet (the feedback echo is per-packet), so batching stresses
/// senders with bursty ACK arrival without changing reliability semantics.
pub struct Sink {
    flow: FlowId,
    ack_route: Rc<Route>,
    metrics: Option<Metrics>,
    /// Data packets received (duplicates included).
    pub received_pkts: u64,
    /// Wire bytes received (duplicates included).
    pub received_bytes: u64,
    batch: usize,
    max_delay: SimDuration,
    // Held ACKs keep their pooled boxes so a flush forwards them as-is.
    #[allow(clippy::vec_box)]
    pending: Vec<Box<Packet>>,
    /// Pending partial-batch flush timer; cancelled when a full batch
    /// flushes first.
    flush_timer: Option<TimerId>,
    /// Lowest data sequence not yet received (cumulative-ACK point).
    next_expected: u64,
    /// Received sequences at/above `next_expected` (out-of-order set).
    ooo: std::collections::BTreeSet<u64>,
}

const TOK_FLUSH: u64 = 7;

impl Sink {
    /// A receiver for `flow` returning ACKs along `ack_route`,
    /// acknowledging every packet immediately.
    pub fn new(flow: FlowId, ack_route: Rc<Route>) -> Self {
        Sink {
            flow,
            ack_route,
            metrics: None,
            received_pkts: 0,
            received_bytes: 0,
            batch: 1,
            max_delay: SimDuration::ZERO,
            pending: Vec::new(),
            flush_timer: None,
            next_expected: 0,
            ooo: std::collections::BTreeSet::new(),
        }
    }

    /// Report per-delivery metrics to `metrics`.
    pub fn with_metrics(mut self, metrics: Metrics) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Hold ACKs until `batch` accumulate or `max_delay` passes.
    pub fn with_ack_batching(mut self, batch: usize, max_delay: SimDuration) -> Self {
        assert!(batch >= 1);
        self.batch = batch;
        self.max_delay = max_delay;
        self
    }

    fn flush(&mut self, ctx: &mut Context) {
        if let Some(id) = self.flush_timer.take() {
            ctx.cancel_timer(id);
        }
        for ack in self.pending.drain(..) {
            ctx.forward_boxed(ack);
        }
    }
}

impl Node for Sink {
    crate::impl_node_downcast!();

    fn handle(&mut self, ctx: &mut Context, event: EventKind) {
        let mut pkt = match event {
            EventKind::Deliver(p) => p,
            EventKind::Timer(tok) => {
                if tok == TOK_FLUSH {
                    self.flush_timer = None;
                    self.flush(ctx);
                }
                return;
            }
        };
        if pkt.is_ack() {
            ctx.recycle(pkt);
            return; // not expected at a sink
        }
        debug_assert_eq!(pkt.flow, self.flow, "data packet routed to wrong sink");
        let now = ctx.now();
        let delay = now.since(pkt.sent_at);
        self.received_pkts += 1;
        self.received_bytes += pkt.size as u64;
        // Advance the cumulative point (fast path: in-order arrival).
        // `unique` is true on the first delivery of a sequence only —
        // duplicates (spurious retransmissions) are below the cumulative
        // point or already in the out-of-order set.
        let unique = if pkt.seq == self.next_expected && self.ooo.is_empty() {
            self.next_expected += 1;
            true
        } else if pkt.seq >= self.next_expected {
            let fresh = self.ooo.insert(pkt.seq);
            while self.ooo.remove(&self.next_expected) {
                self.next_expected += 1;
            }
            fresh
        } else {
            false
        };
        if let Some(m) = &self.metrics {
            m.borrow_mut()
                .on_delivery(pkt.flow, now, delay, pkt.size, unique, pkt.retransmit);
        }
        // Reuse the data packet's box for the ACK: the sink is where data
        // allocations die and ACK allocations are born.
        *pkt = Packet {
            flow: pkt.flow,
            seq: pkt.seq,
            size: crate::packet::ACK_BYTES,
            ecn: Ecn::NotEct,
            feedback: Feedback::None,
            abc_capable: pkt.abc_capable,
            sent_at: now,
            retransmit: false,
            ack: Some(AckData {
                seq: pkt.seq,
                cumulative_before: self.next_expected,
                data_sent_at: pkt.sent_at,
                data_size: pkt.size,
                ecn_echo: pkt.ecn,
                feedback: pkt.feedback,
                one_way_delay: delay,
                retransmit: pkt.retransmit,
            }),
            route: self.ack_route.clone(),
            hop: 0,
            enqueued_at: now,
        };
        let ack = pkt;
        if self.batch <= 1 {
            ctx.forward_boxed(ack);
            return;
        }
        self.pending.push(ack);
        if self.pending.len() >= self.batch {
            self.flush(ctx);
        } else if self.pending.len() == 1 && !self.max_delay.is_zero() {
            self.flush_timer = Some(ctx.set_timer(self.max_delay, TOK_FLUSH));
        }
    }
}

/// The sender's loss bookkeeping before [`Scoreboard`]: a seq-sorted
/// window, a retransmit `VecDeque` and the episode guard, with every ACK
/// walking every older in-flight record. Kept, with the `Sender` code
/// that drove it, as the oracle for `scoreboard_matches_reference`.
#[cfg(test)]
mod reference {
    use super::{SentRecord, DUPACK_THRESHOLD};
    use crate::time::SimTime;
    use std::collections::VecDeque;

    /// The in-flight window, ordered by sequence number. Sends append at the
    /// back (seqs are monotone), ACKs pop at the front, so the common case is
    /// O(1) ring-buffer traffic instead of B-tree rebalancing; retransmissions
    /// and loss holes fall back to binary search.
    #[derive(Debug, Default)]
    struct SentWindow {
        items: VecDeque<(u64, SentRecord)>,
    }

    impl SentWindow {
        fn len(&self) -> usize {
            self.items.len()
        }

        fn insert(&mut self, seq: u64, rec: SentRecord) {
            match self.items.back() {
                Some(&(last, _)) if last >= seq => {
                    // retransmission re-entering the window out of order
                    let idx = self.items.partition_point(|&(s, _)| s < seq);
                    debug_assert!(self.items.get(idx).map(|&(s, _)| s) != Some(seq));
                    self.items.insert(idx, (seq, rec));
                }
                _ => self.items.push_back((seq, rec)),
            }
        }

        fn remove(&mut self, seq: u64) -> Option<SentRecord> {
            match self.items.front() {
                Some(&(s, _)) if s == seq => self.items.pop_front().map(|(_, r)| r),
                _ => {
                    let idx = self.items.binary_search_by_key(&seq, |&(s, _)| s).ok()?;
                    self.items.remove(idx).map(|(_, r)| r)
                }
            }
        }

        /// Sequence numbers strictly below `seq`, in order.
        fn seqs_below(&self, seq: u64) -> impl Iterator<Item = u64> + '_ {
            self.items
                .iter()
                .take_while(move |&&(s, _)| s < seq)
                .map(|&(s, _)| s)
        }

        /// Mutable records with sequence strictly below `seq`, in order.
        fn iter_mut_below(&mut self, seq: u64) -> impl Iterator<Item = (u64, &mut SentRecord)> {
            self.items
                .iter_mut()
                .take_while(move |&&mut (s, _)| s < seq)
                .map(|&mut (s, ref mut r)| (s, r))
        }

        /// All in-flight sequence numbers, in order.
        fn all_seqs(&self) -> impl Iterator<Item = u64> + '_ {
            self.items.iter().map(|&(s, _)| s)
        }

        fn clear(&mut self) {
            self.items.clear();
        }
    }

    /// The `Sender` fields the scoreboard replaced, and the parts of
    /// `on_ack`/`on_rto_fire`/`try_send` that touched them.
    #[derive(Debug, Default)]
    pub(super) struct Reference {
        pub(super) next_seq: u64,
        outstanding: SentWindow,
        pub(super) retx_queue: VecDeque<u64>,
        pub(super) recovery_until: u64,
        scratch_seqs: Vec<u64>,
    }

    impl Reference {
        pub(super) fn inflight(&self) -> usize {
            self.outstanding.len()
        }

        pub(super) fn in_flight_records(&self) -> impl Iterator<Item = (u64, SentRecord)> + '_ {
            self.outstanding.items.iter().copied()
        }

        pub(super) fn on_send(&mut self, seq: u64, rec: SentRecord) {
            if !rec.retransmit {
                self.next_seq += 1;
            }
            self.outstanding.insert(seq, rec);
        }

        pub(super) fn pop_retransmit(&mut self) -> Option<u64> {
            self.retx_queue.pop_front()
        }

        /// Cumulative credit, then the ACKed record: `(pkts, bytes, rec)`.
        pub(super) fn on_ack(&mut self, seq: u64, cum: u64) -> (u64, u32, Option<SentRecord>) {
            let (mut pkts, mut implicit_bytes) = (0, 0u32);
            let mut covered = std::mem::take(&mut self.scratch_seqs);
            covered.clear();
            covered.extend(self.outstanding.seqs_below(cum));
            for &s in &covered {
                if s == seq {
                    continue; // handled explicitly below
                }
                if let Some(r) = self.outstanding.remove(s) {
                    implicit_bytes += r.size;
                    pkts += 1;
                }
            }
            self.scratch_seqs = covered;
            if !self.retx_queue.is_empty() {
                self.retx_queue.retain(|&s| s >= cum);
            }
            (pkts, implicit_bytes, self.outstanding.remove(seq))
        }

        /// Loss inference: the lost seqs in queue order, and whether a
        /// new episode began.
        pub(super) fn pass(&mut self, seq: u64, acked_tx_time: SimTime) -> (Vec<u64>, bool) {
            let mut lost = std::mem::take(&mut self.scratch_seqs);
            lost.clear();
            for (seq, r) in self.outstanding.iter_mut_below(seq) {
                if r.sent_at < acked_tx_time {
                    r.passed += 1;
                    if r.passed >= DUPACK_THRESHOLD {
                        lost.push(seq);
                    }
                }
            }
            let mut new_episode = false;
            for &seq in &lost {
                self.outstanding.remove(seq);
                if !self.retx_queue.contains(&seq) {
                    self.retx_queue.push_back(seq);
                }
                if seq >= self.recovery_until {
                    new_episode = true;
                }
            }
            let batch = lost.clone();
            self.scratch_seqs = lost;
            if new_episode {
                self.recovery_until = self.next_seq;
            }
            (batch, new_episode)
        }

        pub(super) fn on_rto(&mut self) {
            // conservative go-back-N: everything outstanding is presumed lost
            let seqs: Vec<u64> = self.outstanding.all_seqs().collect();
            self.outstanding.clear();
            for s in seqs {
                if !self.retx_queue.contains(&s) {
                    self.retx_queue.push_back(s);
                }
            }
            self.recovery_until = self.next_seq;
        }
    }
}

#[cfg(test)]
mod scoreboard_tests {
    use super::reference::Reference;
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    impl Scoreboard {
        /// The structure behind O(1) ACKs: the front slot is never
        /// `Done`, `in_flight` counts the in-flight slots, the live
        /// retransmit entries are exactly the queued slots (each once),
        /// and every in-flight record is reachable by the pass walk
        /// exactly once — as a fresh send at or past the cursor, in the
        /// retransmission log, or in the eligible heap.
        fn check_invariants(&self) {
            assert_ne!(self.slots.front(), Some(&Slot::Done), "front slot is Done");
            assert!(self.cum <= self.base, "a slot below the cumulative point");
            assert!(self.fresh_cursor <= self.next_seq());
            assert!(self.recovery_until <= self.next_seq());

            let mut live: Vec<u64> = self
                .retx
                .iter()
                .copied()
                .filter(|&s| s >= self.cum)
                .collect();
            live.sort_unstable();
            let queued: Vec<u64> = (self.base..self.next_seq())
                .filter(|&s| self.slots[(s - self.base) as usize] == Slot::Queued)
                .collect();
            assert_eq!(live, queued, "retransmit queue and queued slots disagree");

            let mut entries: BTreeMap<(u64, SimTime), usize> = BTreeMap::new();
            for &Reverse(e) in self.eligible.iter() {
                *entries.entry(e).or_default() += 1;
            }
            for &e in &self.retx_sent {
                *entries.entry(e).or_default() += 1;
            }
            assert!(self
                .retx_sent
                .iter()
                .zip(self.retx_sent.iter().skip(1))
                .all(|(a, b)| a.1 <= b.1));
            let mut in_flight = 0;
            for (i, slot) in self.slots.iter().enumerate() {
                let Slot::InFlight(r) = slot else { continue };
                let seq = self.base + i as u64;
                in_flight += 1;
                assert!(r.passed < DUPACK_THRESHOLD, "seq {seq} should be queued");
                let listed = entries.get(&(seq, r.sent_at)).copied().unwrap_or(0);
                let pending_fresh = !r.retransmit && seq >= self.fresh_cursor;
                assert_eq!(
                    listed + pending_fresh as usize,
                    1,
                    "seq {seq} reachable {listed} + {pending_fresh} times"
                );
            }
            assert_eq!(self.in_flight, in_flight);
        }
    }

    /// The sink's cumulative-point logic (see [`Sink`]), for the model
    /// network below.
    #[derive(Default)]
    struct Receiver {
        next_expected: u64,
        ooo: BTreeSet<u64>,
    }

    impl Receiver {
        fn receive(&mut self, seq: u64) -> u64 {
            if seq == self.next_expected && self.ooo.is_empty() {
                self.next_expected += 1;
            } else if seq >= self.next_expected {
                self.ooo.insert(seq);
                while self.ooo.remove(&self.next_expected) {
                    self.next_expected += 1;
                }
            }
            self.next_expected
        }
    }

    /// One ACK through both, as `Sender::on_ack` drives them: credit,
    /// taken record, lost batch (read off the end of the retransmit
    /// queue) and episode flag must agree. Returns the bytes delivered.
    fn ack_both(board: &mut Scoreboard, naive: &mut Reference, seq: u64, cum: u64) -> u64 {
        let (credit, rec) = board.on_ack(seq, cum);
        let (pkts, bytes, want) = naive.on_ack(seq, cum);
        assert_eq!((credit.pkts, credit.bytes), (pkts, bytes), "credit");
        assert_eq!(rec, want, "record taken for seq {seq}");
        let Some(rec) = rec else {
            return bytes as u64;
        };
        let queued_before = board.retx.len();
        let (lost, new_episode) = board.pass(seq, rec.sent_at);
        let (batch, want_episode) = naive.pass(seq, rec.sent_at);
        assert!(
            board.retx.iter().skip(queued_before).eq(batch.iter()),
            "lost batch for the ACK of {seq}: want {batch:?}"
        );
        assert_eq!(lost, batch.len() as u64);
        assert_eq!(new_episode, want_episode, "episode flag");
        bytes as u64 + rec.size as u64
    }

    /// Scoreboard ≡ the pre-scoreboard code under the sender's own
    /// operation mix, interleaved from a seeded generator over a model
    /// network with loss, reordering and ACK loss: fresh sends,
    /// retransmit pops, ACKs that arrive in order, out of order, after
    /// their packet was written off, with the cumulative point stalled
    /// behind a hole or jumping when a retransmission fills it, and RTOs.
    /// After every operation the in-flight records (passed counts
    /// included), the retransmit queue in order, the episode guard and
    /// the scoreboard's invariants are checked; every ACK's credit, taken
    /// record, lost batch and episode flag are compared as they happen.
    #[test]
    fn scoreboard_matches_reference() {
        for seed in 0..48u64 {
            let mut x = 0x9E37_79B9_7F4A_7C15 ^ seed.wrapping_mul(0xD1B5_4A32_D192_ED03);
            let mut next = move || {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                x >> 16
            };
            // per-seed network: drop and reorder odds in 1/100, ACK loss
            let drop_pct = [0, 3, 20, 60][seed as usize % 4];
            let reorder_pct = [0, 25][seed as usize / 4 % 2];
            let ack_drop_pct = [0, 30][seed as usize / 8 % 2];

            let mut board = Scoreboard::default();
            let mut naive = Reference::default();
            let mut receiver = Receiver::default();
            let mut data: VecDeque<u64> = VecDeque::new();
            let mut acks: VecDeque<(u64, u64)> = VecDeque::new();
            let (mut now, mut cwnd, mut delivered) = (SimTime::ZERO, 8usize, 0u64);
            for _ in 0..3_000 {
                match next() % 20 {
                    // send up to the window: retransmissions first
                    0..=4 => {
                        while board.in_flight < cwnd {
                            let retx = board.pop_retransmit();
                            assert_eq!(retx, naive.pop_retransmit(), "next retransmit");
                            let seq = retx.unwrap_or_else(|| board.next_seq());
                            assert_eq!(seq, retx.unwrap_or(naive.next_seq));
                            let rec = SentRecord {
                                sent_at: now,
                                size: 1000 + (next() % 500) as u32,
                                retransmit: retx.is_some(),
                                passed: 0,
                                delivered_at_send: delivered,
                            };
                            board.on_send(seq, rec);
                            naive.on_send(seq, rec);
                            data.push_back(seq);
                            if next() % 3 == 0 {
                                break;
                            }
                        }
                    }
                    // the clock moves; same-instant sends stay common
                    5 | 6 => {
                        now += SimDuration::from_micros([0, 1, 100, 5_000][next() as usize % 4])
                    }
                    // one data packet leaves the network: dropped, or
                    // delivered (from the middle when reordering)
                    7..=10 if !data.is_empty() => {
                        let at = if next() % 100 < reorder_pct {
                            next() as usize % data.len()
                        } else {
                            0
                        };
                        let seq = data.remove(at).expect("index in range");
                        if next() % 100 >= drop_pct {
                            acks.push_back((seq, receiver.receive(seq)));
                        }
                    }
                    // one ACK arrives (possibly out of order) or is lost
                    11..=16 if !acks.is_empty() => {
                        let at = if next() % 100 < reorder_pct {
                            next() as usize % acks.len()
                        } else {
                            0
                        };
                        let (seq, cum) = acks.remove(at).expect("index in range");
                        if next() % 100 >= ack_drop_pct {
                            delivered += ack_both(&mut board, &mut naive, seq, cum);
                        }
                    }
                    // rare enough that most losses are inferred first
                    17 if board.in_flight > 0 && next() % 8 == 0 => {
                        board.on_rto();
                        naive.on_rto();
                    }
                    18 => cwnd = 1 + next() as usize % 48,
                    _ => {}
                }

                assert_eq!(board.in_flight, naive.inflight());
                assert_eq!(board.next_seq(), naive.next_seq);
                assert_eq!(board.recovery_until, naive.recovery_until);
                let live: Vec<u64> = board
                    .retx
                    .iter()
                    .copied()
                    .filter(|&s| s >= board.cum)
                    .collect();
                assert!(live.iter().eq(naive.retx_queue.iter()), "retransmit queue");
                let records: Vec<(u64, SentRecord)> = board
                    .slots
                    .iter()
                    .enumerate()
                    .filter_map(|(i, s)| match *s {
                        Slot::InFlight(r) => Some((board.base + i as u64, r)),
                        _ => None,
                    })
                    .collect();
                assert!(
                    records.iter().copied().eq(naive.in_flight_records()),
                    "in-flight records"
                );
                board.check_invariants();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{ConstantRate, SerialLink};
    use crate::linkqueue::LinkQueue;
    use crate::metrics::new_hub;
    use crate::packet::NodeId;
    use crate::queue::DropTail;
    use crate::sim::Simulator;

    /// Fixed-window controller for substrate tests.
    struct FixedWindow {
        w: f64,
        acks: u64,
        losses: u64,
        rtos: u64,
    }

    impl CongestionControl for FixedWindow {
        fn name(&self) -> &'static str {
            "fixed"
        }
        fn on_ack(&mut self, _ev: &AckEvent) {
            self.acks += 1;
        }
        fn on_loss(&mut self, _now: SimTime) {
            self.losses += 1;
        }
        fn on_rto(&mut self, _now: SimTime) {
            self.rtos += 1;
        }
        fn cwnd_pkts(&self) -> f64 {
            self.w
        }
    }

    /// Build sender → link → sink → sender over a `rate` link with
    /// `one_way` propagation each direction; returns (sim, sender_id, hub).
    fn loop_topology(
        rate_mbps: f64,
        buf: usize,
        w: f64,
        app: TrafficSource,
    ) -> (Simulator, NodeId, Metrics) {
        let mut sim = Simulator::new();
        let hub = new_hub();
        let sender_id = sim.reserve_node();
        let link_id = sim.reserve_node();
        let sink_id = sim.reserve_node();

        let fwd = Route::new(vec![
            (link_id, SimDuration::from_millis(10)),
            (sink_id, SimDuration::from_millis(40)),
        ]);
        let back = Route::new(vec![(sender_id, SimDuration::from_millis(50))]);

        sim.install_node(
            link_id,
            Box::new(
                LinkQueue::new(
                    Box::new(DropTail::new(buf)),
                    Box::new(SerialLink::new(ConstantRate(Rate::from_mbps(rate_mbps)))),
                )
                .with_metrics("bottleneck", hub.clone()),
            ),
        );
        sim.install_node(
            sink_id,
            Box::new(Sink::new(FlowId(1), back).with_metrics(hub.clone())),
        );
        sim.install_node(
            sender_id,
            Box::new(Sender::new(
                FlowId(1),
                Box::new(FixedWindow {
                    w,
                    acks: 0,
                    losses: 0,
                    rtos: 0,
                }),
                fwd,
                app,
            )),
        );
        (sim, sender_id, hub)
    }

    fn sender_of(sim: &Simulator, id: NodeId) -> &Sender {
        sim.node(id)
            .and_then(|n| n.as_any().downcast_ref())
            .unwrap()
    }

    #[test]
    fn window_limits_inflight_and_acks_clock_sends() {
        // 12 Mbit/s, RTT 100ms → BDP = 100 pkts; window of 10 → ~10% util
        let (mut sim, sender_id, hub) = loop_topology(12.0, 250, 10.0, TrafficSource::Backlogged);
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(10));
        let s = sender_of(&sim, sender_id);
        assert!(s.inflight() <= 10);
        assert_eq!(s.stats().losses_detected, 0);
        // expected throughput ≈ 10 pkt / 100ms ≈ 1.2 Mbit/s
        let tput = hub.borrow().flows[&FlowId(1)].throughput_over(SimDuration::from_secs(10));
        assert!(
            (tput / 1e6 - 1.2).abs() < 0.15,
            "throughput {} Mbit/s",
            tput / 1e6
        );
    }

    #[test]
    fn rtt_estimator_converges_to_path_rtt() {
        let (mut sim, sender_id, _) = loop_topology(12.0, 250, 4.0, TrafficSource::Backlogged);
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(5));
        let s = sender_of(&sim, sender_id);
        // path RTT = 100ms prop + 1ms serialization
        let srtt = s.srtt().unwrap().as_millis_f64();
        assert!((srtt - 101.0).abs() < 2.0, "srtt={srtt}ms");
        let min = s.min_rtt().unwrap().as_millis_f64();
        assert!((min - 101.0).abs() < 1.5, "min_rtt={min}ms");
    }

    #[test]
    fn overload_fills_buffer_and_detects_loss() {
        // window 400 over a 100-pkt BDP w/ 50-pkt buffer → sustained loss
        let (mut sim, sender_id, hub) = loop_topology(12.0, 50, 400.0, TrafficSource::Backlogged);
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(10));
        let s = sender_of(&sim, sender_id);
        assert!(s.stats().losses_detected > 0, "no losses detected");
        assert!(s.stats().retransmits > 0, "no retransmissions");
        assert!(hub.borrow().links["bottleneck"].dropped_pkts > 0);
        // the link itself should be saturated
        let q = hub.borrow().links["bottleneck"].delivered_pkts;
        assert!(q > 9000, "link under-driven: {q} pkts");
    }

    #[test]
    fn finite_flow_stops() {
        let (mut sim, sender_id, _) =
            loop_topology(12.0, 250, 10.0, TrafficSource::Finite { bytes: 15_000 });
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(5));
        let s = sender_of(&sim, sender_id);
        assert_eq!(s.stats().sent_pkts, 10); // 15000/1500
        assert_eq!(s.stats().acked_pkts, 10);
        assert_eq!(s.inflight(), 0);
    }

    #[test]
    fn rate_limited_app_paces_itself() {
        let (mut sim, sender_id, hub) = loop_topology(
            12.0,
            250,
            100.0,
            TrafficSource::RateLimited {
                rate: Rate::from_mbps(1.2),
                burst_bytes: 3000.0,
            },
        );
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(10));
        let s = sender_of(&sim, sender_id);
        // ~1.2 Mbit/s = 100 pkt/s for 10s ≈ 1000 pkts (±5%)
        assert!(
            (s.stats().sent_pkts as i64 - 1000).unsigned_abs() < 50,
            "sent {}",
            s.stats().sent_pkts
        );
        let tput = hub.borrow().flows[&FlowId(1)].throughput_over(SimDuration::from_secs(10));
        assert!((tput / 1e6 - 1.2).abs() < 0.1, "tput {tput}");
    }

    #[test]
    fn onoff_source_gates_sending() {
        let (mut sim, sender_id, hub) = loop_topology(
            12.0,
            250,
            10.0,
            TrafficSource::OnOff {
                on: SimDuration::from_secs(1),
                off: SimDuration::from_secs(1),
            },
        );
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(10));
        let s = sender_of(&sim, sender_id);
        assert!(s.stats().sent_pkts > 0);
        // roughly half the packets of an always-on flow (which would be
        // ~100 pkt/s · 10 s = 1000 at this window)
        assert!(
            s.stats().sent_pkts < 700,
            "on/off sent too much: {}",
            s.stats().sent_pkts
        );
        assert!(hub.borrow().flows[&FlowId(1)].delivered_pkts > 300);
    }
}

#[cfg(test)]
mod sink_batching_tests {
    use super::*;
    use crate::event::EventKind;
    use crate::node::Node;
    use crate::packet::NodeId;
    use crate::sim::Simulator;

    struct AckCounter {
        arrivals: Vec<SimTime>,
    }

    impl Node for AckCounter {
        crate::impl_node_downcast!();
        fn handle(&mut self, ctx: &mut Context, ev: EventKind) {
            if let EventKind::Deliver(p) = ev {
                assert!(p.is_ack());
                self.arrivals.push(ctx.now());
            }
        }
    }

    /// Emits `n` data packets to the sink, one per ms.
    struct DataSource {
        n: u64,
        sink: NodeId,
        sent: u64,
    }

    impl Node for DataSource {
        crate::impl_node_downcast!();
        fn start(&mut self, ctx: &mut Context) {
            ctx.set_timer(SimDuration::from_millis(1), 0);
        }
        fn handle(&mut self, ctx: &mut Context, _ev: EventKind) {
            if self.sent >= self.n {
                return;
            }
            let route = Route::new(vec![(self.sink, SimDuration::ZERO)]);
            ctx.forward(Packet {
                flow: FlowId(1),
                seq: self.sent,
                size: 1500,
                ecn: Ecn::Accelerate,
                feedback: Feedback::None,
                abc_capable: true,
                sent_at: ctx.now(),
                retransmit: false,
                ack: None,
                route,
                hop: 0,
                enqueued_at: ctx.now(),
            });
            self.sent += 1;
            ctx.set_timer(SimDuration::from_millis(1), 0);
        }
    }

    fn run_batched(n: u64, batch: usize, max_delay_ms: u64) -> Vec<SimTime> {
        let mut sim = Simulator::new();
        let sink_id = sim.reserve_node();
        let counter_id = sim.reserve_node();
        let back = Route::new(vec![(counter_id, SimDuration::ZERO)]);
        sim.install_node(
            sink_id,
            Box::new(
                Sink::new(FlowId(1), back)
                    .with_ack_batching(batch, SimDuration::from_millis(max_delay_ms)),
            ),
        );
        sim.install_node(counter_id, Box::new(AckCounter { arrivals: vec![] }));
        sim.add_node(Box::new(DataSource {
            n,
            sink: sink_id,
            sent: 0,
        }));
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(2));
        let c: &AckCounter = sim
            .node(counter_id)
            .and_then(|nd| nd.as_any().downcast_ref())
            .unwrap();
        c.arrivals.clone()
    }

    #[test]
    fn batch_of_one_acks_immediately() {
        let arrivals = run_batched(10, 1, 0);
        assert_eq!(arrivals.len(), 10);
        // one per ms, no bunching
        assert!(arrivals.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn batches_release_together() {
        let arrivals = run_batched(12, 4, 100);
        assert_eq!(arrivals.len(), 12);
        // groups of 4 share a timestamp
        for chunk in arrivals.chunks(4) {
            assert!(chunk.iter().all(|&t| t == chunk[0]), "unbatched: {chunk:?}");
        }
    }

    #[test]
    fn partial_batch_flushes_on_timeout() {
        // 2 packets with batch=4: the 10 ms timer must flush them
        let arrivals = run_batched(2, 4, 10);
        assert_eq!(arrivals.len(), 2);
        // data at 1,2 ms; flush timer armed at first pending ack → ~11 ms
        let last = arrivals[1].as_millis_f64();
        assert!((10.0..13.0).contains(&last), "flush at {last} ms");
    }
}
