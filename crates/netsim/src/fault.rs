//! Deterministic adversarial-network impairments.
//!
//! The paper's robustness story (§2, §4) is about paths that misbehave:
//! cellular outages, lost ACKs, middleboxes that bleach ECN or strip
//! unknown header options. This module makes those conditions first-class
//! simulator primitives: an [`ImpairmentWire`] is a node spliced into a
//! route that applies one [`ImpairmentKind`] — Bernoulli drop / ECN
//! bleach / feedback strip, Gilbert–Elliott burst loss, seeded
//! hold-and-release reordering, uniform delay jitter, scheduled outages
//! (optionally periodic, i.e. link flaps), or counter-based decimation
//! (the classic "keep one ACK in k") — to every packet that crosses it.
//!
//! Every impairment is **bit-deterministic**: all randomness comes from a
//! per-wire [`StdRng`] seeded from the scenario seed, outages and
//! decimation use no randomness at all, and re-scheduled (jittered or
//! held) packets flow through the ordinary event queue, so the
//! event-order fingerprint of an impaired run is identical across reruns
//! and worker-pool widths. Counters ([`ImpairmentWire::passed`] /
//! [`ImpairmentWire::impaired`]) feed the shared
//! [`MetricsHub`](crate::metrics::MetricsHub) and the telemetry signal
//! catalog, so an impaired run reports what actually hit the wire.
//!
//! Placement is described by [`ImpairmentSpec`] (which kind, data or ACK
//! direction, which hop) — the experiment engine splices wires into the
//! built routes from that description.

use crate::event::EventKind;
use crate::metrics::Metrics;
use crate::node::{Context, Node};
use crate::packet::{Ecn, Feedback};
use crate::telemetry::{Scope, Signal};
use crate::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What the legacy Bernoulli wire does to unlucky packets. Retained as
/// the compact form of the three middlebox impairments; `From` lifts a
/// `(p, Impairment)` pair into the full [`ImpairmentKind`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Impairment {
    /// Drop the packet entirely.
    Drop,
    /// Deliver it, but wipe its ECN bits to Not-ECT (a middlebox that
    /// bleaches ECN — a real deployment hazard for ABC).
    BleachEcn,
    /// Deliver it, but strip explicit-feedback headers (a middlebox that
    /// drops unknown options — §2's argument against XCP-style headers).
    StripFeedback,
}

/// Which direction of a scenario path a wire impairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Direction {
    /// The data path, sender → sink (spliced ahead of a hop queue).
    Data,
    /// The ACK/feedback return path, sink → sender.
    Ack,
}

impl Direction {
    /// Stable wire name, used in labels and TOML.
    pub fn name(self) -> &'static str {
        match self {
            Direction::Data => "data",
            Direction::Ack => "ack",
        }
    }
}

/// One impairment behavior. All probabilities are per-packet and must be
/// in `[0, 1]`; all durations are simulation time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ImpairmentKind {
    /// Bernoulli loss: drop each packet with probability `p`.
    Drop {
        /// Per-packet drop probability.
        p: f64,
    },
    /// Bernoulli ECN bleaching: wipe ECN bits to Not-ECT with
    /// probability `p`.
    BleachEcn {
        /// Per-packet bleach probability.
        p: f64,
    },
    /// Bernoulli feedback stripping: clear explicit-feedback headers
    /// with probability `p`.
    StripFeedback {
        /// Per-packet strip probability.
        p: f64,
    },
    /// Two-state Gilbert–Elliott burst loss. The wire is in a *good* or
    /// *bad* state; each packet is dropped with that state's loss rate,
    /// then the state flips with the corresponding transition
    /// probability. Exactly two RNG draws per packet (loss, then
    /// transition), in that order — the reference implementation in the
    /// tests replays the identical draw sequence.
    GilbertElliott {
        /// P(good → bad) per packet.
        p_good_bad: f64,
        /// P(bad → good) per packet.
        p_bad_good: f64,
        /// Loss rate while in the good state.
        loss_good: f64,
        /// Loss rate while in the bad state.
        loss_bad: f64,
    },
    /// Seeded hold-and-release reordering: with probability `p` a packet
    /// is held for an extra `hold` before continuing, letting later
    /// packets overtake it.
    Reorder {
        /// Per-packet hold probability.
        p: f64,
        /// Extra delay applied to held packets.
        hold: SimDuration,
    },
    /// Uniform delay jitter: every packet gets an extra delay drawn
    /// uniformly from `[0, max)`.
    Jitter {
        /// Upper bound (exclusive) of the per-packet extra delay.
        max: SimDuration,
    },
    /// Scheduled link outage: every packet arriving within the outage
    /// window is dropped. With `period`, the window repeats (link
    /// flaps): windows cover `[start + k·period, start + k·period +
    /// duration)` for `k = 0, 1, …`. No randomness.
    Outage {
        /// Offset of the first outage from simulation start.
        start: SimDuration,
        /// Length of each outage window.
        duration: SimDuration,
        /// Repeat interval; `None` means a single outage.
        period: Option<SimDuration>,
    },
    /// Counter-based decimation: keep every `keep_one_in`-th packet and
    /// drop the rest. Placed on the ACK direction this is the paper's
    /// "ABC survives ACK thinning" condition. No randomness.
    Decimate {
        /// Keep one packet in this many (`1` passes everything).
        keep_one_in: u64,
    },
}

/// Check a probability field, naming it in the error.
fn check_prob(name: &str, p: f64) -> Result<(), String> {
    if (0.0..=1.0).contains(&p) {
        Ok(())
    } else {
        Err(format!("{name} must be in [0, 1], got {p}"))
    }
}

impl ImpairmentKind {
    /// Stable kind name, used in labels, telemetry scopes, and TOML.
    pub fn name(self) -> &'static str {
        match self {
            ImpairmentKind::Drop { .. } => "drop",
            ImpairmentKind::BleachEcn { .. } => "bleach-ecn",
            ImpairmentKind::StripFeedback { .. } => "strip-feedback",
            ImpairmentKind::GilbertElliott { .. } => "gilbert-elliott",
            ImpairmentKind::Reorder { .. } => "reorder",
            ImpairmentKind::Jitter { .. } => "jitter",
            ImpairmentKind::Outage { .. } => "outage",
            ImpairmentKind::Decimate { .. } => "decimate",
        }
    }

    /// Validate parameter ranges; the TOML schema layer surfaces these
    /// messages with source positions, and wire construction asserts on
    /// them as a backstop.
    pub fn validate(self) -> Result<(), String> {
        match self {
            ImpairmentKind::Drop { p } => check_prob("drop p", p),
            ImpairmentKind::BleachEcn { p } => check_prob("bleach-ecn p", p),
            ImpairmentKind::StripFeedback { p } => check_prob("strip-feedback p", p),
            ImpairmentKind::GilbertElliott {
                p_good_bad,
                p_bad_good,
                loss_good,
                loss_bad,
            } => {
                check_prob("gilbert-elliott p_good_bad", p_good_bad)?;
                check_prob("gilbert-elliott p_bad_good", p_bad_good)?;
                check_prob("gilbert-elliott loss_good", loss_good)?;
                check_prob("gilbert-elliott loss_bad", loss_bad)
            }
            ImpairmentKind::Reorder { p, .. } => check_prob("reorder p", p),
            ImpairmentKind::Jitter { .. } => Ok(()),
            ImpairmentKind::Outage {
                duration, period, ..
            } => {
                if duration.is_zero() {
                    return Err("outage duration must be positive".into());
                }
                if matches!(period, Some(p) if p.is_zero()) {
                    return Err("outage period must be positive".into());
                }
                Ok(())
            }
            ImpairmentKind::Decimate { keep_one_in } => {
                if keep_one_in == 0 {
                    Err("decimate keep_one_in must be at least 1".into())
                } else {
                    Ok(())
                }
            }
        }
    }
}

impl From<(f64, Impairment)> for ImpairmentKind {
    fn from((p, what): (f64, Impairment)) -> ImpairmentKind {
        match what {
            Impairment::Drop => ImpairmentKind::Drop { p },
            Impairment::BleachEcn => ImpairmentKind::BleachEcn { p },
            Impairment::StripFeedback => ImpairmentKind::StripFeedback { p },
        }
    }
}

/// Where on a scenario path an impairment sits: which [`ImpairmentKind`],
/// which [`Direction`], and (for the data direction) ahead of which hop
/// queue, 0-indexed along the path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImpairmentSpec {
    /// The behavior.
    pub kind: ImpairmentKind,
    /// Data or ACK direction.
    pub direction: Direction,
    /// Data-direction hop index the wire precedes; ignored for
    /// [`Direction::Ack`] (the return path has a single leg).
    pub hop: usize,
}

impl ImpairmentSpec {
    /// An impairment on the data path, ahead of hop 0.
    pub fn data(kind: ImpairmentKind) -> Self {
        ImpairmentSpec {
            kind,
            direction: Direction::Data,
            hop: 0,
        }
    }

    /// An impairment on the ACK/feedback return path.
    pub fn ack(kind: ImpairmentKind) -> Self {
        ImpairmentSpec {
            kind,
            direction: Direction::Ack,
            hop: 0,
        }
    }

    /// Report/metrics label: `"<index>:<kind>:<direction>"`, unique per
    /// configured impairment (`index` is the position in the spec list).
    pub fn label(&self, index: usize) -> String {
        format!("{index}:{}:{}", self.kind.name(), self.direction.name())
    }

    /// Validate the kind's parameters (see [`ImpairmentKind::validate`]).
    pub fn validate(&self) -> Result<(), String> {
        self.kind.validate()
    }
}

/// What the wire decided to do with one packet.
enum Verdict {
    Pass,
    Drop,
    Bleach,
    Strip,
    Hold(SimDuration),
}

/// A route-spliced node applying one [`ImpairmentKind`] to every packet
/// it sees, forwarding survivors along their route. All state (RNG, GE
/// good/bad, decimation counter) is owned and seeded, so behavior is a
/// pure function of `(kind, seed, packet arrival order)`.
pub struct ImpairmentWire {
    kind: ImpairmentKind,
    rng: StdRng,
    /// Gilbert–Elliott: currently in the bad state.
    bad: bool,
    /// Decimate: packets seen so far.
    seen: u64,
    /// Packets forwarded untouched.
    pub passed: u64,
    /// Packets hit by the impairment (dropped, rewritten, or delayed).
    pub impaired: u64,
    /// Shared hub + registered impairment-record index, when attached.
    metrics: Option<(Metrics, usize)>,
}

impl ImpairmentWire {
    /// A Bernoulli wire applying `what` with probability `p`, randomized
    /// by `seed`.
    pub fn new(p: f64, what: Impairment, seed: u64) -> Self {
        ImpairmentWire::from_kind(ImpairmentKind::from((p, what)), seed)
    }

    /// A wire applying `kind`, with all randomness derived from `seed`.
    ///
    /// # Panics
    /// If the kind's parameters are out of range (see
    /// [`ImpairmentKind::validate`]).
    pub fn from_kind(kind: ImpairmentKind, seed: u64) -> Self {
        if let Err(e) = kind.validate() {
            panic!("invalid impairment: {e}");
        }
        ImpairmentWire {
            kind,
            rng: StdRng::seed_from_u64(seed),
            bad: false,
            seen: 0,
            passed: 0,
            impaired: 0,
            metrics: None,
        }
    }

    /// Attach the shared hub; `index` is the slot returned by
    /// [`MetricsHub::register_impairment`](crate::metrics::MetricsHub::register_impairment).
    pub fn with_metrics(mut self, hub: Metrics, index: usize) -> Self {
        self.metrics = Some((hub, index));
        self
    }

    /// The configured behavior.
    pub fn kind(&self) -> ImpairmentKind {
        self.kind
    }

    /// Decide this packet's fate, advancing RNG/state exactly as the
    /// per-kind contract documents.
    fn verdict(&mut self, now: SimTime) -> Verdict {
        match self.kind {
            ImpairmentKind::Drop { p } => {
                if self.rng.gen::<f64>() < p {
                    Verdict::Drop
                } else {
                    Verdict::Pass
                }
            }
            ImpairmentKind::BleachEcn { p } => {
                if self.rng.gen::<f64>() < p {
                    Verdict::Bleach
                } else {
                    Verdict::Pass
                }
            }
            ImpairmentKind::StripFeedback { p } => {
                if self.rng.gen::<f64>() < p {
                    Verdict::Strip
                } else {
                    Verdict::Pass
                }
            }
            ImpairmentKind::GilbertElliott {
                p_good_bad,
                p_bad_good,
                loss_good,
                loss_bad,
            } => {
                let loss = if self.bad { loss_bad } else { loss_good };
                let dropped = self.rng.gen::<f64>() < loss;
                let flip = if self.bad { p_bad_good } else { p_good_bad };
                if self.rng.gen::<f64>() < flip {
                    self.bad = !self.bad;
                }
                if dropped {
                    Verdict::Drop
                } else {
                    Verdict::Pass
                }
            }
            ImpairmentKind::Reorder { p, hold } => {
                if self.rng.gen::<f64>() < p {
                    Verdict::Hold(hold)
                } else {
                    Verdict::Pass
                }
            }
            ImpairmentKind::Jitter { max } => {
                let extra = (max.as_nanos() as f64 * self.rng.gen::<f64>()) as u64;
                Verdict::Hold(SimDuration::from_nanos(extra))
            }
            ImpairmentKind::Outage {
                start,
                duration,
                period,
            } => {
                let since_start = now.since(SimTime::ZERO).as_nanos();
                if since_start < start.as_nanos() {
                    return Verdict::Pass;
                }
                let mut off = since_start - start.as_nanos();
                if let Some(per) = period {
                    off %= per.as_nanos();
                }
                if off < duration.as_nanos() {
                    Verdict::Drop
                } else {
                    Verdict::Pass
                }
            }
            ImpairmentKind::Decimate { keep_one_in } => {
                self.seen += 1;
                if self.seen.is_multiple_of(keep_one_in) {
                    Verdict::Pass
                } else {
                    Verdict::Drop
                }
            }
        }
    }
}

impl Node for ImpairmentWire {
    crate::impl_node_downcast!();

    fn handle(&mut self, ctx: &mut Context, event: EventKind) {
        let EventKind::Deliver(mut pkt) = event else {
            return;
        };
        let verdict = self.verdict(ctx.now());
        let hit = !matches!(verdict, Verdict::Pass);
        if hit {
            self.impaired += 1;
        } else {
            self.passed += 1;
        }
        if let Some((hub, index)) = &self.metrics {
            hub.borrow_mut().on_impairment(*index, hit);
        }
        if ctx.telemetry_on() {
            let signal = if hit {
                Signal::ImpairHit
            } else {
                Signal::ImpairPass
            };
            ctx.count(signal, Scope::Link(self.kind.name()), 1);
        }
        match verdict {
            Verdict::Drop => {
                ctx.recycle(pkt);
                return;
            }
            Verdict::Bleach => pkt.ecn = Ecn::NotEct,
            Verdict::Strip => pkt.feedback = Feedback::None,
            Verdict::Hold(extra) => {
                // forward_boxed with an extra delay: advance the route by
                // hand and schedule the delivery ourselves.
                match pkt.next_hop() {
                    Some((next, delay)) => {
                        pkt.hop += 1;
                        ctx.deliver(next, delay + extra, *pkt);
                    }
                    None => ctx.recycle(pkt),
                }
                return;
            }
            Verdict::Pass => {}
        }
        if pkt.next_hop().is_some() {
            ctx.forward_boxed(pkt);
        } else {
            ctx.recycle(pkt);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, NodeId, Packet, Route};
    use crate::sim::Simulator;
    use crate::time::{SimDuration, SimTime};

    struct Counter {
        got: u64,
        ecn_seen: Vec<Ecn>,
        seqs: Vec<u64>,
        arrivals: Vec<SimTime>,
    }

    impl Node for Counter {
        crate::impl_node_downcast!();
        fn handle(&mut self, ctx: &mut Context, ev: EventKind) {
            if let EventKind::Deliver(p) = ev {
                self.got += 1;
                self.ecn_seen.push(p.ecn);
                self.seqs.push(p.seq);
                self.arrivals.push(ctx.now());
            }
        }
    }

    struct Src {
        n: u64,
        spacing: SimDuration,
        wire: NodeId,
        sink: NodeId,
    }

    impl Node for Src {
        crate::impl_node_downcast!();
        fn start(&mut self, ctx: &mut Context) {
            for seq in 0..self.n {
                let route = Route::new(vec![
                    (self.wire, SimDuration::from_millis(1) + self.spacing * seq),
                    (self.sink, SimDuration::from_millis(1)),
                ]);
                ctx.forward(Packet {
                    flow: FlowId(1),
                    seq,
                    size: 1500,
                    ecn: Ecn::Accelerate,
                    feedback: Feedback::Rcp { rate_bps: 1e6 },
                    abc_capable: true,
                    sent_at: ctx.now(),
                    retransmit: false,
                    ack: None,
                    route,
                    hop: 0,
                    enqueued_at: ctx.now(),
                });
            }
        }
        fn handle(&mut self, _: &mut Context, _: EventKind) {}
    }

    /// Push `n` packets (spaced `spacing` apart at the wire) through a
    /// wire of `kind`; return what the sink saw.
    fn run_kind(kind: ImpairmentKind, n: u64, spacing: SimDuration) -> (u64, Vec<Ecn>, Vec<u64>) {
        let mut sim = Simulator::new();
        let wire_id = sim.reserve_node();
        let sink_id = sim.reserve_node();
        sim.install_node(wire_id, Box::new(ImpairmentWire::from_kind(kind, 42)));
        sim.install_node(
            sink_id,
            Box::new(Counter {
                got: 0,
                ecn_seen: vec![],
                seqs: vec![],
                arrivals: vec![],
            }),
        );
        sim.add_node(Box::new(Src {
            n,
            spacing,
            wire: wire_id,
            sink: sink_id,
        }));
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(3600));
        let c: &Counter = sim
            .node(sink_id)
            .and_then(|nd| nd.as_any().downcast_ref())
            .unwrap();
        (c.got, c.ecn_seen.clone(), c.seqs.clone())
    }

    fn run(p: f64, what: Impairment, n: u64) -> (u64, Vec<Ecn>) {
        let (got, ecn, _) = run_kind(ImpairmentKind::from((p, what)), n, SimDuration::ZERO);
        (got, ecn)
    }

    #[test]
    fn drop_rate_matches_probability() {
        let (got, _) = run(0.2, Impairment::Drop, 10_000);
        let loss = 1.0 - got as f64 / 10_000.0;
        assert!((loss - 0.2).abs() < 0.02, "observed loss {loss}");
    }

    #[test]
    fn zero_probability_is_transparent() {
        let (got, ecn) = run(0.0, Impairment::Drop, 1000);
        assert_eq!(got, 1000);
        assert!(ecn.iter().all(|&e| e == Ecn::Accelerate));
    }

    #[test]
    fn bleaching_wipes_ecn_but_delivers() {
        let (got, ecn) = run(1.0, Impairment::BleachEcn, 1000);
        assert_eq!(got, 1000);
        assert!(ecn.iter().all(|&e| e == Ecn::NotEct));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run(0.3, Impairment::Drop, 5000).0;
        let b = run(0.3, Impairment::Drop, 5000).0;
        assert_eq!(a, b);
    }

    /// The naive Gilbert–Elliott reference: same draw order (loss first,
    /// then transition), run against a fresh `StdRng` with the wire's
    /// seed. The wire must keep exactly this mask.
    fn naive_gilbert_elliott(
        seed: u64,
        n: u64,
        p_good_bad: f64,
        p_bad_good: f64,
        loss_good: f64,
        loss_bad: f64,
    ) -> Vec<bool> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bad = false;
        let mut kept = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let loss = if bad { loss_bad } else { loss_good };
            let dropped = rng.gen::<f64>() < loss;
            let flip = if bad { p_bad_good } else { p_good_bad };
            if rng.gen::<f64>() < flip {
                bad = !bad;
            }
            kept.push(!dropped);
        }
        kept
    }

    #[test]
    fn gilbert_elliott_matches_naive_reference() {
        let (p_gb, p_bg, lg, lb) = (0.05, 0.3, 0.001, 0.5);
        let kind = ImpairmentKind::GilbertElliott {
            p_good_bad: p_gb,
            p_bad_good: p_bg,
            loss_good: lg,
            loss_bad: lb,
        };
        let n = 20_000;
        let (_, _, seqs) = run_kind(kind, n, SimDuration::from_micros(10));
        let reference = naive_gilbert_elliott(42, n, p_gb, p_bg, lg, lb);
        let expect: Vec<u64> = (0..n).filter(|&s| reference[s as usize]).collect();
        assert_eq!(seqs, expect, "wire mask diverged from the GE reference");
        // burstiness sanity: the bad state must actually bite
        let loss = 1.0 - expect.len() as f64 / n as f64;
        assert!(loss > 0.02, "GE loss suspiciously low: {loss}");
    }

    #[test]
    fn reorder_reorders_and_delivers_everything() {
        let kind = ImpairmentKind::Reorder {
            p: 0.3,
            hold: SimDuration::from_millis(50),
        };
        // 10 ms spacing, 50 ms hold: a held packet is overtaken.
        let (got, _, seqs) = run_kind(kind, 500, SimDuration::from_millis(10));
        assert_eq!(got, 500, "reordering must not lose packets");
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_ne!(seqs, sorted, "expected at least one out-of-order arrival");
        assert_eq!(sorted, (0..500).collect::<Vec<_>>());
    }

    #[test]
    fn jitter_delivers_everything_within_bound() {
        let max = SimDuration::from_millis(20);
        let kind = ImpairmentKind::Jitter { max };
        let mut sim = Simulator::new();
        let wire_id = sim.reserve_node();
        let sink_id = sim.reserve_node();
        sim.install_node(wire_id, Box::new(ImpairmentWire::from_kind(kind, 7)));
        sim.install_node(
            sink_id,
            Box::new(Counter {
                got: 0,
                ecn_seen: vec![],
                seqs: vec![],
                arrivals: vec![],
            }),
        );
        let spacing = SimDuration::from_millis(100);
        sim.add_node(Box::new(Src {
            n: 200,
            spacing,
            wire: wire_id,
            sink: sink_id,
        }));
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(60));
        let c: &Counter = sim
            .node(sink_id)
            .and_then(|nd| nd.as_any().downcast_ref())
            .unwrap();
        assert_eq!(c.got, 200);
        for (&seq, &at) in c.seqs.iter().zip(&c.arrivals) {
            // nominal path: 1 ms + seq·spacing to the wire, 1 ms onward
            let nominal = SimTime::ZERO + SimDuration::from_millis(2) + spacing * seq;
            let extra = at.since(nominal);
            assert!(extra < max, "packet {seq} jittered by {extra:?} >= {max:?}");
        }
    }

    #[test]
    fn outage_drops_exactly_the_window() {
        // packets arrive at t = 1 ms + seq·1 ms; outage [100 ms, 150 ms)
        let kind = ImpairmentKind::Outage {
            start: SimDuration::from_millis(100),
            duration: SimDuration::from_millis(50),
            period: None,
        };
        let (got, _, seqs) = run_kind(kind, 300, SimDuration::from_millis(1));
        // seq s arrives at the wire at (1 + s) ms: dropped for 99 <= s < 149
        let expect: Vec<u64> = (0..300).filter(|&s| !(99..149).contains(&s)).collect();
        assert_eq!(seqs, expect);
        assert_eq!(got, 250);
    }

    #[test]
    fn periodic_outage_flaps() {
        // windows [100, 120), [200, 220), ... in ms at the wire
        let kind = ImpairmentKind::Outage {
            start: SimDuration::from_millis(100),
            duration: SimDuration::from_millis(20),
            period: Some(SimDuration::from_millis(100)),
        };
        let (_, _, seqs) = run_kind(kind, 400, SimDuration::from_millis(1));
        let expect: Vec<u64> = (0..400)
            .filter(|&s| {
                let at_ms = 1 + s; // arrival at the wire
                at_ms < 100 || (at_ms - 100) % 100 >= 20
            })
            .collect();
        assert_eq!(seqs, expect);
    }

    #[test]
    fn decimate_keeps_exactly_one_in_k() {
        let kind = ImpairmentKind::Decimate { keep_one_in: 4 };
        let (got, _, seqs) = run_kind(kind, 100, SimDuration::from_micros(10));
        assert_eq!(got, 25);
        // the 4th, 8th, ... packets survive (seq 3, 7, 11, ...)
        assert_eq!(seqs, (0..100).filter(|s| s % 4 == 3).collect::<Vec<_>>());
    }

    #[test]
    fn counters_split_passed_and_impaired() {
        let mut wire = ImpairmentWire::from_kind(ImpairmentKind::Decimate { keep_one_in: 2 }, 1);
        let hub = crate::metrics::new_hub();
        let idx = hub
            .borrow_mut()
            .register_impairment("0:decimate:data".into());
        wire = wire.with_metrics(hub.clone(), idx);
        let mut sim = Simulator::new();
        let wire_id = sim.reserve_node();
        let sink_id = sim.reserve_node();
        sim.install_node(wire_id, Box::new(wire));
        sim.install_node(
            sink_id,
            Box::new(Counter {
                got: 0,
                ecn_seen: vec![],
                seqs: vec![],
                arrivals: vec![],
            }),
        );
        sim.add_node(Box::new(Src {
            n: 10,
            spacing: SimDuration::ZERO,
            wire: wire_id,
            sink: sink_id,
        }));
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(1));
        let w: &ImpairmentWire = sim
            .node(wire_id)
            .and_then(|nd| nd.as_any().downcast_ref())
            .unwrap();
        assert_eq!((w.passed, w.impaired), (5, 5));
        let h = hub.borrow();
        assert_eq!(h.impairments[idx].label, "0:decimate:data");
        assert_eq!(
            (h.impairments[idx].passed, h.impairments[idx].impaired),
            (5, 5)
        );
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(ImpairmentKind::Drop { p: 1.5 }.validate().is_err());
        assert!(ImpairmentKind::Decimate { keep_one_in: 0 }
            .validate()
            .is_err());
        assert!(ImpairmentKind::Outage {
            start: SimDuration::ZERO,
            duration: SimDuration::ZERO,
            period: None,
        }
        .validate()
        .is_err());
        assert!(ImpairmentKind::GilbertElliott {
            p_good_bad: 0.1,
            p_bad_good: -0.1,
            loss_good: 0.0,
            loss_bad: 1.0,
        }
        .validate()
        .is_err());
    }

    #[test]
    fn labels_are_unique_and_stable() {
        let a = ImpairmentSpec::data(ImpairmentKind::Drop { p: 0.1 });
        let b = ImpairmentSpec::ack(ImpairmentKind::Decimate { keep_one_in: 4 });
        assert_eq!(a.label(0), "0:drop:data");
        assert_eq!(b.label(1), "1:decimate:ack");
    }
}
