//! Link capacity models.
//!
//! Two abstractions:
//!
//! * [`RateProcess`] — a time-varying capacity curve `µ(t)` (constant, step
//!   schedule, square wave). Used by serialization links and by router
//!   control laws that are granted capacity knowledge (the cellular setting,
//!   §6.2: "ABC's router has knowledge of the underlying link capacity").
//! * [`Transmitter`] — the engine a [`crate::linkqueue::LinkQueue`] node uses
//!   to learn *when* the head-of-line packet finishes transmission. The
//!   trace-driven implementation reproduces Mahimahi's delivery-opportunity
//!   semantics: an opportunity arriving at an empty queue is wasted, which is
//!   exactly why utilization is a meaningful metric on these links.

use crate::rate::Rate;
use crate::time::{SimDuration, SimTime};
use std::cell::Cell;
use std::sync::Arc;

/// A deterministic capacity curve.
pub trait RateProcess {
    /// Instantaneous capacity at `t`.
    fn rate_at(&self, t: SimTime) -> Rate;

    /// Exact integral of the curve over `[a, b]`, in bits. Used for
    /// utilization accounting on serialization links.
    fn bits_between(&self, a: SimTime, b: SimTime) -> f64;
}

/// Fixed-capacity link.
#[derive(Debug, Clone, Copy)]
pub struct ConstantRate(pub Rate);

impl RateProcess for ConstantRate {
    fn rate_at(&self, _t: SimTime) -> Rate {
        self.0
    }

    fn bits_between(&self, a: SimTime, b: SimTime) -> f64 {
        self.0.bits_in(b.since(a))
    }
}

/// Piecewise-constant schedule: `steps[i] = (start_time, rate)` sorted by
/// time; the rate before the first step is the first step's rate.
#[derive(Debug, Clone)]
pub struct StepSchedule {
    steps: Vec<(SimTime, Rate)>,
}

impl StepSchedule {
    /// # Panics
    /// If `steps` is empty or not sorted by time.
    pub fn new(steps: Vec<(SimTime, Rate)>) -> Self {
        assert!(!steps.is_empty(), "empty step schedule");
        assert!(
            steps.windows(2).all(|w| w[0].0 <= w[1].0),
            "step schedule not sorted"
        );
        StepSchedule { steps }
    }

    /// Index of the step active at `t`.
    fn active_idx(&self, t: SimTime) -> usize {
        match self.steps.binary_search_by(|(s, _)| s.cmp(&t)) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        }
    }
}

impl RateProcess for StepSchedule {
    fn rate_at(&self, t: SimTime) -> Rate {
        self.steps[self.active_idx(t)].1
    }

    fn bits_between(&self, a: SimTime, b: SimTime) -> f64 {
        if b <= a {
            return 0.0;
        }
        let mut bits = 0.0;
        let mut cur = a;
        let mut idx = self.active_idx(a);
        while cur < b {
            let seg_end = self
                .steps
                .get(idx + 1)
                .map(|(s, _)| *s)
                .unwrap_or(SimTime::MAX)
                .min(b);
            bits += self.steps[idx].1.bits_in(seg_end.since(cur));
            cur = seg_end;
            idx += 1;
        }
        bits
    }
}

/// Square wave alternating between `first` and `second` every `half_period`
/// — the Appendix D "12↔24 Mbit/s every 500 ms" link (Fig. 17).
#[derive(Debug, Clone, Copy)]
pub struct SquareWave {
    /// Rate during the first half-period.
    pub first: Rate,
    /// Rate during the second half-period.
    pub second: Rate,
    /// Dwell time at each rate.
    pub half_period: SimDuration,
}

impl SquareWave {
    /// A square wave holding `first` and `second` for `half_period` each.
    pub fn new(first: Rate, second: Rate, half_period: SimDuration) -> Self {
        assert!(!half_period.is_zero(), "zero half-period");
        SquareWave {
            first,
            second,
            half_period,
        }
    }
}

impl RateProcess for SquareWave {
    fn rate_at(&self, t: SimTime) -> Rate {
        let phase = t.as_nanos() / self.half_period.as_nanos();
        if phase.is_multiple_of(2) {
            self.first
        } else {
            self.second
        }
    }

    fn bits_between(&self, a: SimTime, b: SimTime) -> f64 {
        if b <= a {
            return 0.0;
        }
        // walk half-period boundaries
        let hp = self.half_period.as_nanos();
        let mut bits = 0.0;
        let mut cur = a.as_nanos();
        let end = b.as_nanos();
        while cur < end {
            let boundary = ((cur / hp) + 1) * hp;
            let seg_end = boundary.min(end);
            let rate = self.rate_at(SimTime::from_nanos(cur));
            bits += rate.bits_in(SimDuration::from_nanos(seg_end - cur));
            cur = seg_end;
        }
        bits
    }
}

/// Answers "when does a `size`-byte head-of-line packet, ready at `now`,
/// finish transmission?" — stateful because links remember busy periods
/// and partially-consumed delivery opportunities.
pub trait Transmitter {
    /// Absolute completion time for a transmission of `size` bytes whose
    /// head-of-line packet became transmittable at `now`. Must be `≥ now`.
    /// Returns [`SimTime::MAX`] if the link can never deliver it (stalled
    /// forever) — callers park the queue.
    fn schedule_tx(&mut self, now: SimTime, size: u32) -> SimTime;

    /// Capacity the control plane may observe at `t` (routers granted
    /// capacity knowledge; `t` in the future implements PK-ABC's oracle).
    fn rate_at(&self, t: SimTime) -> Rate;

    /// Bits the link *could* have carried in `[a, b]` — the denominator of
    /// utilization.
    fn opportunity_bits(&self, a: SimTime, b: SimTime) -> f64;
}

/// Classic store-and-forward serialization link over a [`RateProcess`]:
/// transmission takes `size·8 / rate` and the link serves one packet at a
/// time.
pub struct SerialLink<P: RateProcess> {
    process: P,
    busy_until: SimTime,
}

impl<P: RateProcess> SerialLink<P> {
    /// An idle link serializing packets at the rate `process` dictates.
    pub fn new(process: P) -> Self {
        SerialLink {
            process,
            busy_until: SimTime::ZERO,
        }
    }

    /// The rate process driving this link.
    pub fn process(&self) -> &P {
        &self.process
    }
}

impl<P: RateProcess> SerialLink<P> {
    /// Fast path: seed from the analytic `bits/rate` completion time and
    /// fix up ±1 ns steps until `t` is the minimal instant with
    /// `bits_between(start, t) >= bits` — the exact value the binary
    /// search below converges to, found in a handful of evaluations when
    /// the rate is locally constant. Returns `None` (fall back to the
    /// search) when the seed straddles a rate change.
    fn refine_completion(&self, start: SimTime, guess: SimTime, bits: f64) -> Option<SimTime> {
        const FUEL: u32 = 64;
        let mut t = guess.max(start + SimDuration::from_nanos(1));
        if self.process.bits_between(start, t) >= bits {
            for _ in 0..FUEL {
                let prev = SimTime::from_nanos(t.as_nanos() - 1);
                if prev <= start || self.process.bits_between(start, prev) < bits {
                    return Some(t);
                }
                t = prev;
            }
        } else {
            for _ in 0..FUEL {
                t += SimDuration::from_nanos(1);
                if self.process.bits_between(start, t) >= bits {
                    return Some(t);
                }
            }
        }
        None
    }
}

impl<P: RateProcess> Transmitter for SerialLink<P> {
    fn schedule_tx(&mut self, now: SimTime, size: u32) -> SimTime {
        let start = now.max(self.busy_until);
        // The completion time is where the integral of the rate curve
        // reaches the packet's bits — a transmission that straddles a rate
        // step finishes at the *new* rate, so an outage ends when the link
        // recovers rather than holding the packet hostage for size/ε.
        let bits = size as f64 * 8.0;
        let rate = self.process.rate_at(start);
        if !rate.is_zero() {
            let guess = start + rate.tx_time(size);
            if let Some(done) = self.refine_completion(start, guess, bits) {
                self.busy_until = done;
                return done;
            }
        }
        // exponential search for an upper bound…
        let mut span = rate
            .tx_time(size)
            .min(SimDuration::from_secs(3600))
            .max(SimDuration::from_nanos(1_000));
        let mut hi = start + span;
        let mut guard = 0;
        while self.process.bits_between(start, hi) < bits {
            span = span * 2;
            hi = start + span;
            guard += 1;
            if guard > 40 {
                return SimTime::MAX; // link is dead as far as we can see
            }
        }
        // …then binary search to nanosecond resolution
        let mut lo = start;
        while hi.as_nanos() - lo.as_nanos() > 1 {
            let mid = SimTime::from_nanos((lo.as_nanos() + hi.as_nanos()) / 2);
            if self.process.bits_between(start, mid) < bits {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        self.busy_until = hi;
        hi
    }

    fn rate_at(&self, t: SimTime) -> Rate {
        self.process.rate_at(t)
    }

    fn opportunity_bits(&self, a: SimTime, b: SimTime) -> f64 {
        self.process.bits_between(a, b)
    }
}

/// A remembered position in one period's sorted opportunity offsets.
///
/// A link's queries are monotone in sim time, so the answer to the next
/// lookup is almost always the previous answer or a slot or two past it.
/// The cursor checks that first and falls back to the binary search on a
/// miss (a backwards jump, the period wrap, a long idle gap), so any query
/// sequence gets the exact `partition_point` answer. A fresh cursor is a
/// plain binary search.
#[derive(Debug, Default)]
pub struct TraceCursor(Cell<usize>);

impl TraceCursor {
    /// Slots walked forward before giving up and searching the rest.
    const WALK: usize = 8;

    /// Number of `opps` strictly below `offset` (equivalently, the index
    /// of the first opportunity at or after it).
    fn rank(&self, opps: &[SimDuration], offset: SimDuration) -> usize {
        let mut i = self.0.get().min(opps.len());
        if i > 0 && opps[i - 1] >= offset {
            i = opps.partition_point(|&o| o < offset);
        } else {
            let stop = (i + Self::WALK).min(opps.len());
            while i < stop && opps[i] < offset {
                i += 1;
            }
            if i == stop {
                i += opps[i..].partition_point(|&o| o < offset);
            }
        }
        self.0.set(i);
        i
    }
}

/// Opportunities of the endlessly repeating trace (`opps` sorted, each
/// `< period`) that fall in `[0, t)` — the one lookup every trace-driven
/// capacity query in the workspace goes through.
pub fn opportunities_before(
    opps: &[SimDuration],
    period: SimDuration,
    t: SimTime,
    cursor: &TraceCursor,
) -> u64 {
    let (tn, period) = (t.as_nanos(), period.as_nanos());
    let within = cursor.rank(opps, SimDuration::from_nanos(tn % period));
    tn / period * opps.len() as u64 + within as u64
}

/// Opportunities of the repeating trace in `[a, b)` — a one-off query
/// (end-of-run accounting, plotting) that remembers nothing.
pub fn opportunities_between(
    opps: &[SimDuration],
    period: SimDuration,
    a: SimTime,
    b: SimTime,
) -> u64 {
    let cursor = TraceCursor::default();
    opportunities_before(opps, period, b, &cursor)
        .saturating_sub(opportunities_before(opps, period, a, &cursor))
}

/// First opportunity of the repeating trace at time ≥ `t`.
pub fn next_opportunity(
    opps: &[SimDuration],
    period: SimDuration,
    t: SimTime,
    cursor: &TraceCursor,
) -> SimTime {
    let (tn, period) = (t.as_nanos(), period.as_nanos());
    let cycle = tn / period;
    match opps.get(cursor.rank(opps, SimDuration::from_nanos(tn % period))) {
        Some(o) => SimTime::from_nanos(cycle * period + o.as_nanos()),
        None => SimTime::from_nanos((cycle + 1) * period + opps[0].as_nanos()),
    }
}

/// Wire bytes one [`TraceLink`] opportunity may deliver: one MTU.
const BYTES_PER_OPP: u32 = crate::packet::MTU_BYTES;

/// Smoothing window of a [`TraceLink`]'s [`Transmitter::rate_at`].
const RATE_WINDOW: SimDuration = SimDuration::from_millis(40);

/// Mahimahi-style trace-driven link: the trace is a sorted list of delivery
/// opportunities (times at which up to `BYTES_PER_OPP` bytes may leave the
/// queue). The trace repeats with period `period`. Opportunities that find
/// an empty queue are wasted; leftover budget within one opportunity serves
/// the next packet at the same instant (so several 40-byte ACKs ride one
/// 1500-byte opportunity, as in Mahimahi).
pub struct TraceLink {
    /// Opportunity offsets within one period, sorted, each < period.
    /// Shared with whoever built the link: a trace is never copied.
    opportunities: Arc<[SimDuration]>,
    period: SimDuration,
    /// `Some((t, bytes))`: the opportunity at `t` has been claimed and has
    /// `bytes` of budget left (possibly zero, meaning fully consumed).
    credit: Option<(SimTime, u32)>,
    /// One cursor per monotone query stream: transmissions, and the two
    /// edges of the sliding rate window.
    tx_cursor: TraceCursor,
    window_start_cursor: TraceCursor,
    window_end_cursor: TraceCursor,
}

impl TraceLink {
    /// A link over the shared opportunity list `opportunities`.
    ///
    /// # Panics
    /// If the trace is empty, unsorted, or has opportunities ≥ `period`.
    pub fn new(opportunities: Arc<[SimDuration]>, period: SimDuration) -> Self {
        assert!(!opportunities.is_empty(), "empty trace");
        assert!(
            opportunities.windows(2).all(|w| w[0] <= w[1]),
            "trace not sorted"
        );
        assert!(
            *opportunities.last().unwrap() < period,
            "opportunity at/after trace period"
        );
        TraceLink {
            opportunities,
            period,
            credit: None,
            tx_cursor: TraceCursor::default(),
            window_start_cursor: TraceCursor::default(),
            window_end_cursor: TraceCursor::default(),
        }
    }

    /// Length of the trace before it repeats.
    pub fn period(&self) -> SimDuration {
        self.period
    }

    /// Number of opportunities in one period.
    pub fn opportunities_per_period(&self) -> usize {
        self.opportunities.len()
    }

    /// Mean capacity of the trace over one full period.
    pub fn mean_rate(&self) -> Rate {
        Rate::from_bytes_per(
            self.opportunities.len() as u64 * BYTES_PER_OPP as u64,
            self.period,
        )
    }

    /// Opportunities in `[0, t)`, looked up from `cursor`.
    fn before(&self, t: SimTime, cursor: &TraceCursor) -> u64 {
        opportunities_before(&self.opportunities, self.period, t, cursor)
    }
}

impl Transmitter for TraceLink {
    fn schedule_tx(&mut self, now: SimTime, size: u32) -> SimTime {
        let mut remaining = size;
        let mut search_from = now;
        if let Some((ct, cb)) = self.credit {
            // Leftover budget is usable only if the head-of-line packet was
            // already waiting when that opportunity fired (ct ≥ now);
            // otherwise the opportunity passed an empty queue and is gone.
            if ct >= now {
                let used = remaining.min(cb);
                remaining -= used;
                if remaining == 0 {
                    self.credit = Some((ct, cb - used));
                    return ct;
                }
                // that opportunity is exhausted; continue strictly after it
                search_from = ct + SimDuration::from_nanos(1);
            }
        }
        let mut t = search_from;
        loop {
            let opp = next_opportunity(&self.opportunities, self.period, t, &self.tx_cursor);
            if remaining <= BYTES_PER_OPP {
                self.credit = Some((opp, BYTES_PER_OPP - remaining));
                return opp;
            }
            remaining -= BYTES_PER_OPP;
            t = opp + SimDuration::from_nanos(1);
        }
    }

    fn rate_at(&self, t: SimTime) -> Rate {
        let from = t.saturating_sub(RATE_WINDOW);
        let n = self.before(t + SimDuration::from_nanos(1), &self.window_end_cursor)
            - self.before(from, &self.window_start_cursor);
        Rate::from_bytes_per(n * BYTES_PER_OPP as u64, RATE_WINDOW)
    }

    fn opportunity_bits(&self, a: SimTime, b: SimTime) -> f64 {
        opportunities_between(&self.opportunities, self.period, a, b) as f64
            * BYTES_PER_OPP as f64
            * 8.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> SimDuration {
        SimDuration::from_millis(x)
    }
    fn at(x: u64) -> SimTime {
        SimTime::ZERO + ms(x)
    }

    #[test]
    fn constant_rate_integral() {
        let p = ConstantRate(Rate::from_mbps(12.0));
        assert!((p.bits_between(at(0), at(1000)) - 12e6).abs() < 1.0);
    }

    #[test]
    fn step_schedule_lookup_and_integral() {
        let p = StepSchedule::new(vec![
            (at(0), Rate::from_mbps(10.0)),
            (at(100), Rate::from_mbps(20.0)),
        ]);
        assert_eq!(p.rate_at(at(50)).mbps(), 10.0);
        assert_eq!(p.rate_at(at(100)).mbps(), 20.0);
        assert_eq!(p.rate_at(at(500)).mbps(), 20.0);
        // 100ms @10 + 100ms @20 = 1e6 + 2e6 bits
        assert!((p.bits_between(at(0), at(200)) - 3e6).abs() < 1.0);
    }

    #[test]
    fn square_wave_alternates() {
        let p = SquareWave::new(Rate::from_mbps(12.0), Rate::from_mbps(24.0), ms(500));
        assert_eq!(p.rate_at(at(0)).mbps(), 12.0);
        assert_eq!(p.rate_at(at(499)).mbps(), 12.0);
        assert_eq!(p.rate_at(at(500)).mbps(), 24.0);
        assert_eq!(p.rate_at(at(1000)).mbps(), 12.0);
        // one full second = 500ms of each
        assert!((p.bits_between(at(0), at(1000)) - 18e6).abs() < 1.0);
        // straddling a boundary
        assert!((p.bits_between(at(400), at(600)) - (12e6 * 0.1 + 24e6 * 0.1)).abs() < 1.0);
    }

    #[test]
    fn serial_link_serializes_back_to_back() {
        let mut l = SerialLink::new(ConstantRate(Rate::from_mbps(12.0)));
        // 1500B at 12 Mbit/s = 1 ms
        let d1 = l.schedule_tx(at(0), 1500);
        assert_eq!(d1, at(1));
        let d2 = l.schedule_tx(at(0), 1500); // queued behind the first
        assert_eq!(d2, at(2));
        // after idle, starts immediately
        let d3 = l.schedule_tx(at(10), 1500);
        assert_eq!(d3, at(11));
    }

    #[test]
    fn serial_link_zero_rate_parks() {
        let mut l = SerialLink::new(ConstantRate(Rate::ZERO));
        assert_eq!(l.schedule_tx(at(5), 1500), SimTime::MAX);
    }

    fn trace_every_ms() -> TraceLink {
        // one opportunity per ms → 12 Mbit/s with 1500B packets
        let opps = (0..1000).map(ms).collect();
        TraceLink::new(opps, SimDuration::from_secs(1))
    }

    #[test]
    fn trace_link_mean_rate() {
        let l = trace_every_ms();
        assert!((l.mean_rate().mbps() - 12.0).abs() < 1e-9);
    }

    #[test]
    fn trace_link_delivers_at_opportunities() {
        let mut l = trace_every_ms();
        // packet ready at 0.5ms → next opportunity at 1ms
        let d = l.schedule_tx(at(0) + SimDuration::from_micros(500), 1500);
        assert_eq!(d, at(1));
        // next full packet: strictly later opportunity (2ms)
        let d2 = l.schedule_tx(d, 1500);
        assert_eq!(d2, at(2));
    }

    #[test]
    fn trace_link_wastes_idle_opportunities() {
        let mut l = trace_every_ms();
        let d = l.schedule_tx(at(0), 1500);
        assert_eq!(d, at(0)); // opportunity exactly at 0
                              // idle until 5.5ms → opportunity at 6ms, the ones at 1..5ms wasted
        let d2 = l.schedule_tx(at(5) + SimDuration::from_micros(500), 1500);
        assert_eq!(d2, at(6));
    }

    #[test]
    fn trace_link_packs_small_packets_into_one_opportunity() {
        let mut l = trace_every_ms();
        let d1 = l.schedule_tx(at(0), 40);
        assert_eq!(d1, at(0));
        // 36 more ACKs fit in the same 1500B opportunity (37·40=1480)
        for _ in 0..36 {
            assert_eq!(l.schedule_tx(d1, 40), at(0));
        }
        // the 38th spills into the next opportunity
        assert_eq!(l.schedule_tx(d1, 40), at(1));
    }

    #[test]
    fn trace_link_spans_periods() {
        let opps = vec![ms(0), ms(500)];
        let mut l = TraceLink::new(opps.into(), SimDuration::from_secs(1));
        let d = l.schedule_tx(at(600), 1500);
        assert_eq!(d, at(1000)); // wraps into the next period
        let d2 = l.schedule_tx(at(1100), 1500);
        assert_eq!(d2, at(1500));
    }

    #[test]
    fn trace_link_rate_window() {
        let l = trace_every_ms();
        // 40ms window with one 1500B opportunity per ms = 12 Mbit/s
        let r = l.rate_at(at(100));
        assert!((r.mbps() - 12.0).abs() < 0.5, "got {r}");
    }

    #[test]
    fn trace_link_opportunity_bits() {
        let l = trace_every_ms();
        let bits = l.opportunity_bits(at(0), at(1000));
        assert!((bits - 12e6).abs() < 1e-6);
    }

    #[test]
    fn trace_link_large_packet_spans_opportunities() {
        let mut l = trace_every_ms();
        // 3000B needs two opportunities: 0ms and 1ms
        let d = l.schedule_tx(at(0), 3000);
        assert_eq!(d, at(1));
    }

    /// The oracle the cursor is held to: [`TraceLink`] as it was before it
    /// remembered anything — every lookup a `partition_point` over the
    /// whole period.
    struct SearchLink {
        opps: Vec<SimDuration>,
        period: SimDuration,
        credit: Option<(SimTime, u32)>,
    }

    impl SearchLink {
        const BYTES_PER_OPP: u32 = crate::packet::MTU_BYTES;
        const RATE_WINDOW: SimDuration = SimDuration::from_millis(40);

        fn rank(&self, t: SimTime) -> (u64, usize) {
            let (tn, period) = (t.as_nanos(), self.period.as_nanos());
            let offset = SimDuration::from_nanos(tn % period);
            (tn / period, self.opps.partition_point(|&o| o < offset))
        }

        fn before(&self, t: SimTime) -> u64 {
            let (cycle, within) = self.rank(t);
            cycle * self.opps.len() as u64 + within as u64
        }

        fn next_opportunity(&self, t: SimTime) -> SimTime {
            let (cycle, idx) = self.rank(t);
            let period = self.period.as_nanos();
            match self.opps.get(idx) {
                Some(o) => SimTime::from_nanos(cycle * period + o.as_nanos()),
                None => SimTime::from_nanos((cycle + 1) * period + self.opps[0].as_nanos()),
            }
        }

        fn schedule_tx(&mut self, now: SimTime, size: u32) -> SimTime {
            let mut remaining = size;
            let mut t = now;
            if let Some((ct, cb)) = self.credit.filter(|&(ct, _)| ct >= now) {
                let used = remaining.min(cb);
                remaining -= used;
                if remaining == 0 {
                    self.credit = Some((ct, cb - used));
                    return ct;
                }
                t = ct + SimDuration::from_nanos(1);
            }
            loop {
                let opp = self.next_opportunity(t);
                if remaining <= Self::BYTES_PER_OPP {
                    self.credit = Some((opp, Self::BYTES_PER_OPP - remaining));
                    return opp;
                }
                remaining -= Self::BYTES_PER_OPP;
                t = opp + SimDuration::from_nanos(1);
            }
        }

        fn rate_at(&self, t: SimTime) -> Rate {
            let n = self.before(t + SimDuration::from_nanos(1))
                - self.before(t.saturating_sub(Self::RATE_WINDOW));
            Rate::from_bytes_per(n * Self::BYTES_PER_OPP as u64, Self::RATE_WINDOW)
        }

        fn opportunity_bits(&self, a: SimTime, b: SimTime) -> f64 {
            self.before(b).saturating_sub(self.before(a)) as f64 * Self::BYTES_PER_OPP as f64 * 8.0
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Cursor ≡ search: over random sorted traces (duplicates, gaps,
        /// single-entry) and query sequences that step forward, jump
        /// backwards, skip whole periods, land exactly on an opportunity
        /// and straddle the period wrap, every answer equals the
        /// `partition_point` oracle's.
        #[test]
        fn cursor_lookups_equal_the_search(
            period_us in 1u64..400_000,
            raw in proptest::collection::vec(0u64..u64::MAX, 1..120),
            moves in proptest::collection::vec((0u8..8, 0u64..u64::MAX, 40u32..4000), 1..250),
        ) {
            let period = SimDuration::from_micros(period_us);
            // coarse offsets so several opportunities share an instant
            let mut opps: Vec<SimDuration> = raw
                .iter()
                .map(|r| SimDuration::from_nanos(r % period.as_nanos() / 1000 * 1000))
                .collect();
            opps.sort();
            let mut link = TraceLink::new(opps.clone().into(), period);
            let mut oracle = SearchLink { opps: opps.clone(), period, credit: None };

            let (before_cursor, next_cursor) = (TraceCursor::default(), TraceCursor::default());
            let mut now = SimTime::ZERO;
            for &(kind, r, size) in &moves {
                let pn = period.as_nanos();
                let cycle = now.as_nanos() / pn;
                now = match kind {
                    // the common case: a step of about one opportunity gap
                    0..=2 => now + SimDuration::from_nanos(r % (2 * pn / opps.len() as u64 + 2)),
                    // anywhere within a period ahead
                    3 => now + SimDuration::from_nanos(r % pn),
                    // multi-period skip
                    4 => now + SimDuration::from_nanos(r % (5 * pn)),
                    // backwards jump (never asked of a live link, still exact)
                    5 => SimTime::from_nanos(now.as_nanos().saturating_sub(r % (3 * pn))),
                    // exactly on an opportunity next to the last answer (or
                    // one nanosecond past it), a slot or two either side
                    6 => SimTime::from_nanos(
                        cycle * pn
                            + opps[(oracle.rank(now).1 + r as usize % 5).saturating_sub(2)
                                % opps.len()]
                            .as_nanos()
                            + (r >> 32) % 2,
                    ),
                    // the period wrap: last nanosecond, or first of the next
                    _ => SimTime::from_nanos((cycle + 1) * pn - 1 + (r >> 32) % 2),
                };
                prop_assert_eq!(
                    opportunities_before(&opps, period, now, &before_cursor),
                    oracle.before(now)
                );
                prop_assert_eq!(
                    next_opportunity(&opps, period, now, &next_cursor),
                    oracle.next_opportunity(now)
                );
                prop_assert_eq!(link.schedule_tx(now, size), oracle.schedule_tx(now, size));
                prop_assert_eq!(link.rate_at(now).bps(), oracle.rate_at(now).bps());
                let earlier = SimTime::from_nanos(r % (now.as_nanos() + 1));
                prop_assert_eq!(
                    link.opportunity_bits(earlier, now),
                    oracle.opportunity_bits(earlier, now)
                );
            }
        }
    }
}
