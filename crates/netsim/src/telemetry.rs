//! Deterministic, schema-versioned observability for the simulator.
//!
//! Three legs, per the design doc:
//!
//! 1. **Signal probes** — gauges sampled on sim-time events (cwnd,
//!    in-flight, qdisc depth, ABC token level, …), counters (RTO arms/
//!    cancels/fires), and log-bucketed histograms, all recorded through
//!    the [`TelemetrySink`] threaded into every [`Context`]. Probe sites
//!    are one-line `ctx.sample(..)` calls guarded by the sink's
//!    selected-signal mask, which the simulator caches when the sink is
//!    installed: an unselected signal costs one bit test and no call, and
//!    with the default [`Off`] sink (mask 0) every probe is a dead
//!    branch — the event-order fingerprint and every results-store byte
//!    are identical with telemetry compiled in but disabled.
//! 2. **Host self-profiling** — an opt-in wall-clock [`Profiler`] for the
//!    event loop (time per dispatch phase, events/sec over wall time,
//!    wheel occupancy, packet-pool hit rate). It reads the clock around
//!    one dispatch in 16, picked by a fixed hash of the dispatch counter:
//!    event and dispatch counts are exact, phase times are estimates.
//!    Wall-clock numbers are machine-dependent by nature and are *never*
//!    written to a results store; they exist to explain bench
//!    trajectories.
//! 3. **The sidecar** — [`TelemetryHub::render_jsonl`] emits a
//!    self-describing JSONL document (schema header first, then sample /
//!    counter / histogram / event rows) that downstream tooling renders
//!    into paper-style dynamics timelines without re-running anything.
//!
//! Sim-time signals are bit-deterministic: identical scenario, identical
//! sidecar bytes, regardless of host, worker-pool width, or wall-clock
//! load.
//!
//! [`Context`]: crate::node::Context

use crate::packet::NodeId;
use crate::time::{SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// Version tag written as the `schema` field of a sidecar's header line.
pub const SIDECAR_SCHEMA: &str = "abc-telemetry/v1";

/// A probe signal. The numeric value doubles as the bit index in the
/// hub's enabled-signal mask, so membership tests are one shift.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Signal {
    /// Congestion window, packets (per flow; fractional).
    Cwnd = 0,
    /// Packets in flight after each ACK (per flow).
    Inflight = 1,
    /// Pacing-clock rate in Mbit/s (per flow; rate-paced schemes only).
    PacingRateMbps = 2,
    /// Smoothed RTT in milliseconds (per flow).
    SrttMs = 3,
    /// Bottleneck qdisc depth in packets, sampled at each dequeue (per link).
    QdiscDepthPkts = 4,
    /// Per-packet queueing (sojourn) delay in milliseconds (per link).
    QdelayMs = 5,
    /// ABC token-bucket level, in tokens (per link; ABC qdiscs only).
    AbcToken = 6,
    /// ABC accelerate fraction `f(t)` from the last control-law update
    /// (per link; ABC qdiscs only).
    MarkFrac = 7,
    /// ABC target rate `tr(t)` in Mbit/s (per link; ABC qdiscs only).
    TargetRateMbps = 8,
    /// RTO timer armed / deadline pushed (counter, per flow).
    RtoArm = 9,
    /// RTO timer cancelled on quiesce or re-arm (counter, per flow).
    RtoCancel = 10,
    /// RTO timer actually fired (counter, per flow).
    RtoFire = 11,
    /// Raw `(time, node, seq)` event-order trace. Off by default: one
    /// row per processed event is bulky.
    Events = 12,
    /// Packets an impairment wire forwarded untouched (counter, per
    /// impairment kind — see [`crate::fault`]).
    ImpairPass = 13,
    /// Packets an impairment wire dropped, rewrote, or delayed (counter,
    /// per impairment kind).
    ImpairHit = 14,
    /// Packet-pool allocations served from the free list (counter,
    /// global). With [`Signal::PoolMiss`] this yields the pool hit rate
    /// without the bench profiler.
    PoolHit = 15,
    /// Packet-pool allocations that fell through to a fresh `Box`
    /// (counter, global).
    PoolMiss = 16,
    /// Timer-wheel near-ring occupancy, summed over checkpoints taken
    /// every 1024 processed events (counter, global). Divide by
    /// [`Signal::WheelSamples`] for the mean.
    WheelNear = 17,
    /// Timer-wheel occupied-slot count, summed over the same
    /// checkpoints (counter, global).
    WheelSlots = 18,
    /// Timer-wheel overflow-heap depth, summed over the same
    /// checkpoints (counter, global).
    WheelOverflow = 19,
    /// Number of wheel-occupancy checkpoints taken (counter, global) —
    /// the denominator for the three `wheel_*` sums.
    WheelSamples = 20,
    /// Goodput in Mbit/s per 100 ms metrics bin (per flow). Written once
    /// at the end of the run from the metrics hub's per-flow bins, after
    /// the in-run samples; not in [`Signal::DEFAULT`].
    GoodputMbps = 21,
    /// ABC's accel/brake window `w_abc`, packets (per flow; ABC senders
    /// only). Not in [`Signal::DEFAULT`].
    WAbc = 22,
    /// ABC's legacy (Cubic) window `w_nonabc`, packets (per flow; ABC
    /// senders only). Not in [`Signal::DEFAULT`].
    WNonAbc = 23,
}

impl Signal {
    /// Every signal, in mask-bit order.
    pub const ALL: [Signal; 24] = [
        Signal::Cwnd,
        Signal::Inflight,
        Signal::PacingRateMbps,
        Signal::SrttMs,
        Signal::QdiscDepthPkts,
        Signal::QdelayMs,
        Signal::AbcToken,
        Signal::MarkFrac,
        Signal::TargetRateMbps,
        Signal::RtoArm,
        Signal::RtoCancel,
        Signal::RtoFire,
        Signal::Events,
        Signal::ImpairPass,
        Signal::ImpairHit,
        Signal::PoolHit,
        Signal::PoolMiss,
        Signal::WheelNear,
        Signal::WheelSlots,
        Signal::WheelOverflow,
        Signal::WheelSamples,
        Signal::GoodputMbps,
        Signal::WAbc,
        Signal::WNonAbc,
    ];

    /// The default selection: everything except the bulky [`Signal::Events`]
    /// and the three figure-only signals (`goodput_mbps`, `w_abc`,
    /// `w_nonabc`).
    pub const DEFAULT: [Signal; 20] = [
        Signal::Cwnd,
        Signal::Inflight,
        Signal::PacingRateMbps,
        Signal::SrttMs,
        Signal::QdiscDepthPkts,
        Signal::QdelayMs,
        Signal::AbcToken,
        Signal::MarkFrac,
        Signal::TargetRateMbps,
        Signal::RtoArm,
        Signal::RtoCancel,
        Signal::RtoFire,
        Signal::ImpairPass,
        Signal::ImpairHit,
        Signal::PoolHit,
        Signal::PoolMiss,
        Signal::WheelNear,
        Signal::WheelSlots,
        Signal::WheelOverflow,
        Signal::WheelSamples,
    ];

    /// Stable wire name, used in sidecar rows and `[telemetry]` tables.
    pub fn name(self) -> &'static str {
        match self {
            Signal::Cwnd => "cwnd",
            Signal::Inflight => "inflight",
            Signal::PacingRateMbps => "pacing_rate_mbps",
            Signal::SrttMs => "srtt_ms",
            Signal::QdiscDepthPkts => "qdisc_depth_pkts",
            Signal::QdelayMs => "qdelay_ms",
            Signal::AbcToken => "abc_token",
            Signal::MarkFrac => "mark_frac",
            Signal::TargetRateMbps => "target_rate_mbps",
            Signal::RtoArm => "rto_arm",
            Signal::RtoCancel => "rto_cancel",
            Signal::RtoFire => "rto_fire",
            Signal::Events => "events",
            Signal::ImpairPass => "impair_pass",
            Signal::ImpairHit => "impair_hit",
            Signal::PoolHit => "pool_hit",
            Signal::PoolMiss => "pool_miss",
            Signal::WheelNear => "wheel_near",
            Signal::WheelSlots => "wheel_slots",
            Signal::WheelOverflow => "wheel_overflow",
            Signal::WheelSamples => "wheel_samples",
            Signal::GoodputMbps => "goodput_mbps",
            Signal::WAbc => "w_abc",
            Signal::WNonAbc => "w_nonabc",
        }
    }

    /// Inverse of [`Signal::name`]; `None` for unknown names (the TOML
    /// layer turns that into a schema error listing the catalog).
    pub fn from_name(name: &str) -> Option<Signal> {
        Signal::ALL.iter().copied().find(|s| s.name() == name)
    }

    /// Counters accumulate and emit once at end-of-run; gauges are
    /// sampled (and cadence-decimated) along the way.
    pub fn is_counter(self) -> bool {
        matches!(
            self,
            Signal::RtoArm
                | Signal::RtoCancel
                | Signal::RtoFire
                | Signal::ImpairPass
                | Signal::ImpairHit
                | Signal::PoolHit
                | Signal::PoolMiss
                | Signal::WheelNear
                | Signal::WheelSlots
                | Signal::WheelOverflow
                | Signal::WheelSamples
        )
    }

    /// Gauges whose every observation additionally feeds a
    /// [`LogHistogram`] (distribution shape survives decimation).
    pub fn is_histogrammed(self) -> bool {
        matches!(self, Signal::QdelayMs)
    }

    /// This signal's bit in a selected-signal mask
    /// (see [`TelemetrySink::mask`]).
    #[inline]
    pub fn bit(self) -> u32 {
        1 << (self as u8)
    }
}

/// What a sample or counter is *about*. Ordered so end-of-run emission
/// (counters, histograms) is deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Scope {
    /// Simulation-wide, no particular entity.
    Global,
    /// A transport flow, by flow id.
    Flow(u32),
    /// A link queue, by its metrics tag.
    Link(&'static str),
}

impl Scope {
    /// `self == other`, trying the tag's address before its bytes: a link
    /// probes with the one `&'static str` it was built with.
    #[inline]
    fn same_as(self, other: Scope) -> bool {
        match (self, other) {
            (Scope::Link(a), Scope::Link(b)) => std::ptr::eq(a, b) || a == b,
            _ => self == other,
        }
    }

    /// Append the stable wire form: `global`, `flow:3`, `link:bottleneck`.
    fn push_to(self, out: &mut String) {
        match self {
            Scope::Global => out.push_str("global"),
            Scope::Flow(id) => {
                out.push_str("flow:");
                push_u64(out, id.into());
            }
            Scope::Link(tag) => {
                out.push_str("link:");
                out.push_str(tag);
            }
        }
    }
}

/// ABC control-law internals surfaced through the qdisc trait for the
/// per-link probe site (netsim cannot name `abc-core` types directly).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlSignals {
    /// Token-bucket level, tokens.
    pub token: f64,
    /// Accelerate fraction `f(t)` from the last dequeue.
    pub mark_frac: f64,
    /// Target rate `tr(t)`, Mbit/s.
    pub target_rate_mbps: f64,
}

/// Which signals to record and how densely to sample gauges.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryConfig {
    /// Enabled signals (see [`Signal::DEFAULT`]).
    pub signals: Vec<Signal>,
    /// Minimum sim-time gap between consecutive samples of one
    /// `(signal, scope)` gauge series; `ZERO` keeps every observation.
    pub sample_every: SimDuration,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            signals: Signal::DEFAULT.to_vec(),
            sample_every: SimDuration::from_millis(10),
        }
    }
}

impl TelemetryConfig {
    /// A config selecting `names`, or the unknown name that failed to
    /// resolve (callers render the catalog in their error message).
    pub fn from_names<S: AsRef<str>>(names: &[S]) -> Result<Self, String> {
        let mut signals = Vec::with_capacity(names.len());
        for n in names {
            match Signal::from_name(n.as_ref()) {
                Some(s) => signals.push(s),
                None => return Err(n.as_ref().to_string()),
            }
        }
        Ok(TelemetryConfig {
            signals,
            ..TelemetryConfig::default()
        })
    }

    /// Builder: set the gauge sample cadence.
    pub fn with_sample_every(mut self, d: SimDuration) -> Self {
        self.sample_every = d;
        self
    }

    /// The selected signals' bits (see [`TelemetrySink::mask`]).
    pub fn mask(&self) -> u32 {
        self.signals.iter().fold(0, |m, s| m | s.bit())
    }
}

/// A power-of-two log-bucketed histogram over `u64` values.
///
/// Bucket 0 holds the value 0; bucket `i ≥ 1` holds values whose highest
/// set bit is `i − 1`, i.e. `[2^(i−1), 2^i)`. Recording and merging are
/// integer-only, so a histogram is bit-deterministic and merging is
/// associative and commutative — shard-local histograms fold into the
/// same result in any grouping (property-tested in this crate).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    buckets: [u64; 65],
    count: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            buckets: [0; 65],
            count: 0,
        }
    }

    /// The bucket index `v` falls into.
    pub fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// Inclusive upper bound of bucket `i` (used when reporting quantiles).
    pub fn bucket_upper(i: usize) -> u64 {
        if i == 0 {
            0
        } else if i >= 64 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Record one observation.
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
    }

    /// Add `n` observations directly into bucket `i` (clamped to the
    /// last bucket). This is the sidecar-side inverse of
    /// [`LogHistogram::nonzero_buckets`]: a reader reconstructs the
    /// exact histogram from serialized `[bucket, count]` pairs, then
    /// merges across points. Counts saturate at `u64::MAX`, which no
    /// recorded histogram reaches, so a hostile sidecar cannot overflow.
    pub fn add_bucket(&mut self, i: usize, n: u64) {
        let bucket = &mut self.buckets[i.min(64)];
        *bucket = bucket.saturating_add(n);
        self.count = self.count.saturating_add(n);
    }

    /// Fold another histogram in (element-wise bucket addition,
    /// saturating like [`LogHistogram::add_bucket`]).
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a = a.saturating_add(*b);
        }
        self.count = self.count.saturating_add(other.count);
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Upper bound of the bucket containing the `q`-quantile
    /// (`0.0 ≤ q ≤ 1.0`), or `None` when empty.
    pub fn quantile_upper(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(n);
            if seen >= rank {
                return Some(Self::bucket_upper(i));
            }
        }
        Some(u64::MAX)
    }

    /// Sparse `(bucket, count)` pairs for nonempty buckets, low to high.
    pub fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(i, &n)| (i, n))
            .collect()
    }
}

/// One emitted gauge sample of the series in slot `series`.
#[derive(Debug)]
struct SampleRow {
    t_ns: u64,
    series: u32,
    value: f64,
}

/// What the hub keeps about one `(signal, scope)` series, beside its
/// next-emit time in [`TelemetryHub`]'s `next_emit`.
#[derive(Debug)]
struct Series {
    signal: Signal,
    scope: Scope,
    /// Counter total; `None` until the first [`TelemetryHub::count`]
    /// (which makes a row even for a zero delta).
    counter: Option<u64>,
    /// Distribution of a histogrammed gauge's observations.
    hist: Option<Box<LogHistogram>>,
}

/// One scope's series slots, by signal; [`NO_SLOT`] where it has none.
type ScopeSlots = [u32; Signal::ALL.len()];

/// Marks a signal with no series yet in a [`ScopeSlots`] row.
const NO_SLOT: u32 = u32::MAX;

/// Flow ids below this find their slots through an index by flow id;
/// larger ones (the scenario builder never makes them) share the scope
/// list with links, so a stray id cannot size the index.
const FLOW_INDEX_CAP: u32 = 1 << 16;

/// The recording half of the telemetry layer: receives probe calls
/// (usually via the [`Shared`] sink), applies signal selection and
/// cadence decimation, and renders the JSONL sidecar at end-of-run.
///
/// Each `(signal, scope)` series owns one slot of a table holding its
/// next-emit time, counter and histogram. A flow's slots are found
/// through an index by flow id, a link's or the global ones in a short
/// scope list, each as one row indexed by signal; counters and
/// histograms are put in key order once, at render.
#[derive(Debug)]
pub struct TelemetryHub {
    cfg: TelemetryConfig,
    mask: u32,
    sample_every_ns: u64,
    samples: Vec<SampleRow>,
    series: Vec<Series>,
    /// Per slot: sim time from which the series' next gauge sample is
    /// emitted (the last emit plus the cadence; 0 before the first). Kept
    /// beside `series` so the decimation test touches one word.
    next_emit: Vec<u64>,
    /// Series slots of each flow, by flow id.
    flow_slots: Vec<ScopeSlots>,
    /// Series slots of the global scope, each link and any flow past
    /// the index.
    scope_slots: Vec<(Scope, ScopeSlots)>,
    events: Vec<(SimTime, NodeId, u64)>,
}

impl TelemetryHub {
    /// A hub recording the signals `cfg` selects.
    pub fn new(cfg: TelemetryConfig) -> Self {
        let mask = cfg.mask();
        let sample_every_ns = cfg.sample_every.as_nanos();
        TelemetryHub {
            cfg,
            mask,
            sample_every_ns,
            samples: Vec::new(),
            series: Vec::new(),
            next_emit: Vec::new(),
            flow_slots: Vec::new(),
            scope_slots: Vec::new(),
            events: Vec::new(),
        }
    }

    /// The config this hub was built with.
    pub fn config(&self) -> &TelemetryConfig {
        &self.cfg
    }

    /// Whether `signal` is selected.
    pub fn wants(&self, signal: Signal) -> bool {
        self.mask & signal.bit() != 0
    }

    /// The slot of the `(signal, scope)` series, created on first use.
    #[inline(always)]
    fn slot(&mut self, signal: Signal, scope: Scope) -> usize {
        let slots = match scope {
            Scope::Flow(id) if id < FLOW_INDEX_CAP => self.flow_slots.get(id as usize),
            _ => self
                .scope_slots
                .iter()
                .find(|(k, _)| k.same_as(scope))
                .map(|(_, slots)| slots),
        };
        match slots.map(|slots| slots[signal as usize]) {
            Some(slot) if slot != NO_SLOT => slot as usize,
            _ => self.new_slot(signal, scope),
        }
    }

    #[cold]
    fn new_slot(&mut self, signal: Signal, scope: Scope) -> usize {
        let slot = self.series.len();
        self.series.push(Series {
            signal,
            scope,
            counter: None,
            hist: None,
        });
        self.next_emit.push(0);
        let slots = match scope {
            Scope::Flow(id) if id < FLOW_INDEX_CAP => {
                let id = id as usize;
                if self.flow_slots.len() <= id {
                    self.flow_slots.resize(id + 1, [NO_SLOT; Signal::ALL.len()]);
                }
                &mut self.flow_slots[id]
            }
            _ => match self.scope_slots.iter().position(|(k, _)| k.same_as(scope)) {
                Some(i) => &mut self.scope_slots[i].1,
                None => {
                    self.scope_slots.push((scope, [NO_SLOT; Signal::ALL.len()]));
                    &mut self.scope_slots.last_mut().expect("just pushed").1
                }
            },
        };
        slots[signal as usize] = slot as u32;
        slot
    }

    /// Record a gauge observation at sim time `now`. Observations inside
    /// the cadence window are dropped (histogrammed signals still feed
    /// their histogram, so distributions stay exact).
    #[inline]
    pub fn sample(&mut self, now: SimTime, signal: Signal, scope: Scope, value: f64) {
        if !self.wants(signal) {
            return;
        }
        let t_ns = now.as_nanos();
        let slot = self.slot(signal, scope);
        if signal.is_histogrammed() && value.is_finite() && value >= 0.0 {
            // nanosecond resolution for time-valued signals
            let v = if signal == Signal::QdelayMs {
                (value * 1e6) as u64
            } else {
                value as u64
            };
            let hist = &mut self.series[slot].hist;
            hist.get_or_insert_with(Default::default).record(v);
        }
        let next_emit = &mut self.next_emit[slot];
        if t_ns < *next_emit {
            return;
        }
        *next_emit = t_ns.saturating_add(self.sample_every_ns);
        self.samples.push(SampleRow {
            t_ns,
            series: slot as u32,
            value,
        });
    }

    /// Bump a counter signal.
    #[inline]
    pub fn count(&mut self, signal: Signal, scope: Scope, delta: u64) {
        if !self.wants(signal) {
            return;
        }
        let slot = self.slot(signal, scope);
        *self.series[slot].counter.get_or_insert(0) += delta;
    }

    /// Record one processed event for the `events` signal.
    pub fn event(&mut self, time: SimTime, node: NodeId, seq: u64) {
        if self.wants(Signal::Events) {
            self.events.push((time, node, seq));
        }
    }

    /// Drain the recorded `events` rows.
    pub fn take_events(&mut self) -> Vec<(SimTime, NodeId, u64)> {
        std::mem::take(&mut self.events)
    }

    /// Number of gauge samples emitted so far.
    pub fn samples_len(&self) -> usize {
        self.samples.len()
    }

    /// Render the self-describing JSONL sidecar: one header object, then
    /// one object per gauge sample (sim-time order), per counter, per
    /// histogram (key order), per raw event. Bit-deterministic for a
    /// given scenario. Every row is appended piece by piece to the one
    /// output string.
    pub fn render_jsonl(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        out.push_str("{\"schema\":\"");
        out.push_str(SIDECAR_SCHEMA);
        out.push_str("\",\"signals\":[");
        for (i, s) in self.cfg.signals.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(s.name());
            out.push('"');
        }
        out.push_str("],\"sample_every_ns\":");
        push_u64(&mut out, self.sample_every_ns);
        out.push_str("}\n");
        for r in &self.samples {
            let series = &self.series[r.series as usize];
            out.push_str("{\"t_ns\":");
            push_u64(&mut out, r.t_ns);
            out.push_str(",\"signal\":\"");
            out.push_str(series.signal.name());
            out.push_str("\",\"scope\":\"");
            series.scope.push_to(&mut out);
            out.push_str("\",\"v\":");
            // Rust's shortest round-trip form; a non-finite value (no
            // well-formed probe makes one) as `null`, so the row parses
            if r.value.is_finite() {
                // writing into a String cannot fail
                let _ = write!(out, "{}", r.value);
            } else {
                out.push_str("null");
            }
            out.push_str("}\n");
        }
        let mut keyed: Vec<&Series> = self.series.iter().collect();
        keyed.sort_unstable_by_key(|s| (s.signal, s.scope));
        for s in &keyed {
            if let Some(n) = s.counter {
                out.push_str("{\"counter\":\"");
                out.push_str(s.signal.name());
                out.push_str("\",\"scope\":\"");
                s.scope.push_to(&mut out);
                out.push_str("\",\"n\":");
                push_u64(&mut out, n);
                out.push_str("}\n");
            }
        }
        for s in &keyed {
            if let Some(h) = &s.hist {
                out.push_str("{\"hist\":\"");
                out.push_str(s.signal.name().trim_end_matches("_ms"));
                out.push_str("_ns\",\"scope\":\"");
                s.scope.push_to(&mut out);
                out.push_str("\",\"count\":");
                push_u64(&mut out, h.count());
                out.push_str(",\"buckets\":[");
                let mut first = true;
                for (b, &n) in h.buckets.iter().enumerate().filter(|&(_, &n)| n > 0) {
                    if !first {
                        out.push(',');
                    }
                    first = false;
                    out.push('[');
                    push_u64(&mut out, b as u64);
                    out.push(',');
                    push_u64(&mut out, n);
                    out.push(']');
                }
                out.push_str("]}\n");
            }
        }
        for &(time, node, seq) in &self.events {
            out.push_str("{\"t_ns\":");
            push_u64(&mut out, time.as_nanos());
            out.push_str(",\"signal\":\"events\",\"node\":");
            push_u64(&mut out, node.0.into());
            out.push_str(",\"seq\":");
            push_u64(&mut out, seq);
            out.push_str("}\n");
        }
        out
    }
}

/// Append `n` in decimal.
fn push_u64(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[i..]).expect("decimal digits are ASCII"));
}

/// The sink every [`Context`](crate::node::Context) carries. All methods
/// default to no-ops so [`Off`] is a zero-cost implementation. The
/// simulator reads [`TelemetrySink::mask`] once, when the sink is
/// installed, and calls in only for selected signals: an unselected
/// probe — every probe, under [`Off`] — costs one predictable branch.
pub trait TelemetrySink {
    /// The selected signals, one [`Signal::bit`] each; 0 turns every
    /// probe off. Read once at install, so it must not change after.
    fn mask(&self) -> u32 {
        0
    }

    /// A gauge observation at sim time `now` (selected signals only).
    fn sample(&mut self, _now: SimTime, _signal: Signal, _scope: Scope, _value: f64) {}

    /// A counter increment (selected signals only).
    fn count(&mut self, _signal: Signal, _scope: Scope, _delta: u64) {}

    /// One processed event, for the `events` signal (called only when it
    /// is selected).
    fn event(&mut self, _time: SimTime, _node: NodeId, _seq: u64) {}
}

/// The default sink: telemetry disabled, every probe a dead branch.
#[derive(Debug, Default, Clone, Copy)]
pub struct Off;

impl TelemetrySink for Off {}

/// A sink recording into a shared [`TelemetryHub`] — the handle half
/// stays with the harness for end-of-run extraction, mirroring the
/// `Metrics = Rc<RefCell<MetricsHub>>` idiom.
#[derive(Debug, Clone)]
pub struct Shared(pub Rc<RefCell<TelemetryHub>>);

impl TelemetrySink for Shared {
    fn mask(&self) -> u32 {
        self.0.borrow().mask
    }

    fn sample(&mut self, now: SimTime, signal: Signal, scope: Scope, value: f64) {
        self.0.borrow_mut().sample(now, signal, scope, value);
    }

    fn count(&mut self, signal: Signal, scope: Scope, delta: u64) {
        self.0.borrow_mut().count(signal, scope, delta);
    }

    fn event(&mut self, time: SimTime, node: NodeId, seq: u64) {
        self.0.borrow_mut().event(time, node, seq);
    }
}

/// A fresh shared hub for `cfg`; install the sink half with
/// [`Simulator::set_telemetry`](crate::sim::Simulator::set_telemetry):
///
/// ```
/// use netsim::sim::Simulator;
/// use netsim::telemetry::{new_hub, Shared, TelemetryConfig};
///
/// let hub = new_hub(TelemetryConfig::default());
/// let mut sim = Simulator::new();
/// sim.set_telemetry(Box::new(Shared(hub.clone())));
/// // … run …
/// let sidecar = hub.borrow().render_jsonl();
/// assert!(sidecar.starts_with("{\"schema\":\"abc-telemetry/v1\""));
/// ```
pub fn new_hub(cfg: TelemetryConfig) -> Rc<RefCell<TelemetryHub>> {
    Rc::new(RefCell::new(TelemetryHub::new(cfg)))
}

/// Packet-pool traffic counters, kept unconditionally by the simulator
/// (two integer increments per packet — no observable output unless the
/// profiler reads them).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// `Context::boxed` served from the recycled-box pool.
    pub hits: u64,
    /// `Context::boxed` had to heap-allocate.
    pub misses: u64,
}

impl PoolStats {
    /// Pool hit rate in `[0, 1]`; `1.0` when no allocations happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Event-loop dispatch phases the profiler attributes wall time to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Singleton `Deliver` dispatch.
    Deliver,
    /// Singleton `Timer` dispatch.
    Timer,
    /// Batched same-instant `Deliver` dispatch (`handle_batch`).
    Batch,
}

/// One phase's exact counts and its timed subset.
#[derive(Debug, Clone, Copy, Default)]
struct PhaseTally {
    events: u64,
    dispatches: u64,
    timed: u64,
    timed_ns: u64,
}

impl PhaseTally {
    /// Timed ns scaled up to every dispatch of the phase.
    fn estimated_ns(&self) -> u64 {
        if self.timed == 0 {
            return 0;
        }
        (u128::from(self.timed_ns) * u128::from(self.dispatches) / u128::from(self.timed)) as u64
    }
}

/// Opt-in wall-clock profiler for [`Simulator::run_until`]
/// (see [`Simulator::enable_profiler`]).
///
/// Reading the clock costs about as much as a dispatch, so the loop
/// times one dispatch in 16 ([`Profiler::times_next_dispatch`]), picked
/// by a fixed hash of the dispatch counter rather than every 16th: a
/// plain stride would alias with the loop's period-2 deliver/ACK
/// alternation. Event and dispatch counts are exact; a phase's time is
/// its timed ns × its dispatches ÷ its timed dispatches.
///
/// Everything here is host wall time — useful for explaining a bench
/// number, excluded by contract from any deterministic artifact.
///
/// [`Simulator::run_until`]: crate::sim::Simulator::run_until
/// [`Simulator::enable_profiler`]: crate::sim::Simulator::enable_profiler
#[derive(Debug)]
pub struct Profiler {
    started: std::time::Instant,
    /// Dispatches so far, the input of the sampling hash.
    dispatches: u64,
    /// Indexed by `Phase as usize`.
    phases: [PhaseTally; 3],
    occ_samples: u64,
    occ_near: u64,
    occ_slots: u64,
    occ_overflow: u64,
    dispatch_ns_hist: LogHistogram,
}

impl Profiler {
    /// A profiler whose wall clock starts now.
    pub fn new() -> Self {
        Profiler {
            started: std::time::Instant::now(),
            dispatches: 0,
            phases: [PhaseTally::default(); 3],
            occ_samples: 0,
            occ_near: 0,
            occ_slots: 0,
            occ_overflow: 0,
            dispatch_ns_hist: LogHistogram::new(),
        }
    }

    /// Whether to time the dispatch about to start: true for one
    /// dispatch in 16, those whose counter's Fibonacci hash has its top
    /// four bits clear. Call once before each dispatch.
    #[inline]
    pub fn times_next_dispatch(&mut self) -> bool {
        let n = self.dispatches;
        self.dispatches += 1;
        n.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 60 == 0
    }

    /// Attribute one dispatch of `events` events to `phase`; `ns` is its
    /// wall time when [`Profiler::times_next_dispatch`] chose to time it.
    pub fn note_dispatch(&mut self, phase: Phase, events: u64, ns: Option<u64>) {
        let tally = &mut self.phases[phase as usize];
        tally.events += events;
        tally.dispatches += 1;
        if let Some(ns) = ns {
            tally.timed += 1;
            tally.timed_ns += ns;
            self.dispatch_ns_hist.record(ns);
        }
    }

    /// Record an event-queue occupancy observation
    /// (near heap / wheel slots / overflow heap).
    pub fn note_occupancy(&mut self, near: usize, slots: usize, overflow: usize) {
        self.occ_samples += 1;
        self.occ_near += near as u64;
        self.occ_slots += slots as u64;
        self.occ_overflow += overflow as u64;
    }

    /// Snapshot a report; `pool` comes from the simulator's counters.
    pub fn report(&self, pool: PoolStats) -> ProfileReport {
        let wall_secs = self.started.elapsed().as_secs_f64();
        let [deliver, timer, batch] = self.phases;
        let events = deliver.events + timer.events + batch.events;
        let occ = |sum: u64| {
            if self.occ_samples == 0 {
                0.0
            } else {
                sum as f64 / self.occ_samples as f64
            }
        };
        ProfileReport {
            wall_secs,
            events,
            events_per_wall_sec: if wall_secs > 0.0 {
                events as f64 / wall_secs
            } else {
                0.0
            },
            deliver_ns: deliver.estimated_ns(),
            deliver_events: deliver.events,
            timer_ns: timer.estimated_ns(),
            timer_events: timer.events,
            batch_ns: batch.estimated_ns(),
            batch_events: batch.events,
            batches: batch.dispatches,
            timed_dispatches: deliver.timed + timer.timed + batch.timed,
            avg_near: occ(self.occ_near),
            avg_slots: occ(self.occ_slots),
            avg_overflow: occ(self.occ_overflow),
            pool,
            dispatch_ns_hist: self.dispatch_ns_hist.clone(),
        }
    }
}

impl Default for Profiler {
    fn default() -> Self {
        Self::new()
    }
}

/// End-of-run event-loop profile (see [`Profiler`]). Wall-clock only;
/// by contract never part of a results store or sidecar.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// Wall seconds from profiler creation to the report snapshot.
    pub wall_secs: f64,
    /// Events dispatched while profiled.
    pub events: u64,
    /// Events per wall second.
    pub events_per_wall_sec: f64,
    /// Wall ns in singleton `Deliver` dispatch (estimated from the timed
    /// dispatches, like `timer_ns` and `batch_ns`).
    pub deliver_ns: u64,
    /// Events dispatched as singleton `Deliver`s.
    pub deliver_events: u64,
    /// Wall ns in singleton `Timer` dispatch.
    pub timer_ns: u64,
    /// Events dispatched as singleton `Timer`s.
    pub timer_events: u64,
    /// Wall ns in batched dispatch.
    pub batch_ns: u64,
    /// Events dispatched inside batches.
    pub batch_events: u64,
    /// Number of batched dispatches.
    pub batches: u64,
    /// Dispatches whose wall time was read (about one in 16).
    pub timed_dispatches: u64,
    /// Mean near-heap occupancy over the sampled checkpoints.
    pub avg_near: f64,
    /// Mean wheel-slot occupancy over the sampled checkpoints.
    pub avg_slots: f64,
    /// Mean overflow-heap occupancy over the sampled checkpoints.
    pub avg_overflow: f64,
    /// Packet-pool traffic counters.
    pub pool: PoolStats,
    /// Wall-ns-per-dispatch distribution over the timed dispatches.
    pub dispatch_ns_hist: LogHistogram,
}

impl ProfileReport {
    /// Fraction of attributed dispatch time spent in `phase`.
    pub fn phase_frac(&self, phase: Phase) -> f64 {
        let total = (self.deliver_ns + self.timer_ns + self.batch_ns) as f64;
        if total == 0.0 {
            return 0.0;
        }
        let ns = match phase {
            Phase::Deliver => self.deliver_ns,
            Phase::Timer => self.timer_ns,
            Phase::Batch => self.batch_ns,
        };
        ns as f64 / total
    }

    /// Structured, human-readable end-of-run report.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        writeln!(
            out,
            "# event-loop profile (wall clock — not a store artifact; \
             phase times estimated from {} timed dispatches)",
            self.timed_dispatches
        )
        .unwrap();
        writeln!(
            out,
            "events: {} in {:.3}s wall = {:.2} Mev/s",
            self.events,
            self.wall_secs,
            self.events_per_wall_sec / 1e6
        )
        .unwrap();
        let phase = |name: &str, ns: u64, ev: u64, frac: f64| {
            format!(
                "  {name:<8} {:>8.1} ms ({:>5.1}%) over {ev} events",
                ns as f64 / 1e6,
                frac * 100.0
            )
        };
        writeln!(
            out,
            "{}",
            phase(
                "deliver",
                self.deliver_ns,
                self.deliver_events,
                self.phase_frac(Phase::Deliver)
            )
        )
        .unwrap();
        writeln!(
            out,
            "{}",
            phase(
                "timer",
                self.timer_ns,
                self.timer_events,
                self.phase_frac(Phase::Timer)
            )
        )
        .unwrap();
        writeln!(
            out,
            "{} in {} batches",
            phase(
                "batch",
                self.batch_ns,
                self.batch_events,
                self.phase_frac(Phase::Batch)
            ),
            self.batches
        )
        .unwrap();
        writeln!(
            out,
            "wheel occupancy (mean): near {:.1} / slots {:.1} / overflow {:.1}",
            self.avg_near, self.avg_slots, self.avg_overflow
        )
        .unwrap();
        writeln!(
            out,
            "packet pool: {} hits / {} misses ({:.1}% hit rate)",
            self.pool.hits,
            self.pool.misses,
            self.pool.hit_rate() * 100.0
        )
        .unwrap();
        if let Some(p50) = self.dispatch_ns_hist.quantile_upper(0.5) {
            writeln!(
                out,
                "dispatch wall ns: p50 ≤ {} / p99 ≤ {}",
                p50,
                self.dispatch_ns_hist.quantile_upper(0.99).unwrap_or(0)
            )
            .unwrap();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn off_sink_reports_disabled() {
        assert_eq!(Off.mask(), 0);
        let cfg = TelemetryConfig::from_names(&["cwnd", "events"]).unwrap();
        let hub = new_hub(cfg);
        assert_eq!(
            Shared(hub).mask(),
            Signal::Cwnd.bit() | Signal::Events.bit()
        );
    }

    #[test]
    fn hub_filters_unselected_signals() {
        let cfg = TelemetryConfig::from_names(&["cwnd"]).unwrap();
        let mut hub = TelemetryHub::new(cfg);
        hub.sample(t(0), Signal::Cwnd, Scope::Flow(1), 10.0);
        hub.sample(t(0), Signal::QdelayMs, Scope::Link("x"), 3.0);
        hub.count(Signal::RtoArm, Scope::Flow(1), 1);
        assert_eq!(hub.samples_len(), 1);
        assert!(hub.series.iter().all(|s| s.counter.is_none()));
    }

    #[test]
    fn cadence_decimates_gauges_per_series() {
        let cfg = TelemetryConfig::default().with_sample_every(SimDuration::from_millis(10));
        let mut hub = TelemetryHub::new(cfg);
        for ms in 0..30 {
            hub.sample(t(ms), Signal::Cwnd, Scope::Flow(1), ms as f64);
            hub.sample(t(ms), Signal::Cwnd, Scope::Flow(2), ms as f64);
        }
        // each series keeps t=0,10,20
        assert_eq!(hub.samples_len(), 6);
    }

    #[test]
    fn histogrammed_signals_survive_decimation() {
        let cfg = TelemetryConfig::default().with_sample_every(SimDuration::from_secs(1));
        let mut hub = TelemetryHub::new(cfg);
        for ms in 0..100 {
            hub.sample(t(ms), Signal::QdelayMs, Scope::Link("b"), 1.0);
        }
        assert_eq!(hub.samples_len(), 1); // decimated to one row
        let slot = hub.slot(Signal::QdelayMs, Scope::Link("b"));
        let h = hub.series[slot].hist.as_ref().unwrap();
        assert_eq!(h.count(), 100); // histogram saw everything
    }

    #[test]
    fn sidecar_header_is_first_and_schema_versioned() {
        let mut hub = TelemetryHub::new(TelemetryConfig::default());
        hub.sample(t(1), Signal::Cwnd, Scope::Flow(0), 4.0);
        hub.count(Signal::RtoFire, Scope::Flow(0), 2);
        let jsonl = hub.render_jsonl();
        let first = jsonl.lines().next().unwrap();
        assert!(first.contains("\"schema\":\"abc-telemetry/v1\""));
        assert!(first.contains("\"signals\":["));
        assert!(jsonl.contains("\"signal\":\"cwnd\""));
        assert!(jsonl.contains("\"counter\":\"rto_fire\""));
    }

    #[test]
    fn sidecar_is_reproducible() {
        let build = || {
            let mut hub = TelemetryHub::new(TelemetryConfig::default());
            for ms in 0..50 {
                hub.sample(t(ms), Signal::Cwnd, Scope::Flow(0), (ms as f64).sqrt());
                hub.sample(t(ms), Signal::QdelayMs, Scope::Link("b"), ms as f64 * 0.3);
            }
            hub.count(Signal::RtoArm, Scope::Flow(0), 7);
            hub.render_jsonl()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn signal_names_round_trip() {
        for s in Signal::ALL {
            assert_eq!(Signal::from_name(s.name()), Some(s));
        }
        assert_eq!(Signal::from_name("bogus"), None);
    }

    #[test]
    fn log_histogram_buckets_powers_of_two() {
        assert_eq!(LogHistogram::bucket_of(0), 0);
        assert_eq!(LogHistogram::bucket_of(1), 1);
        assert_eq!(LogHistogram::bucket_of(2), 2);
        assert_eq!(LogHistogram::bucket_of(3), 2);
        assert_eq!(LogHistogram::bucket_of(4), 3);
        assert_eq!(LogHistogram::bucket_of(u64::MAX), 64);
        let mut h = LogHistogram::new();
        h.record(0);
        h.record(3);
        h.record(1000);
        assert_eq!(h.count(), 3);
        assert_eq!(h.quantile_upper(0.0), Some(0));
        assert_eq!(h.quantile_upper(1.0), Some(LogHistogram::bucket_upper(10)));
    }

    /// Drives the profiler the way the event loop does over 100 k
    /// synthetic dispatches whose costs have a period-2 component (the
    /// deliver/ACK alternation): the hashed 1-in-16 schedule must keep
    /// counts exact and each phase's estimate within 5% of its true sum.
    #[test]
    fn sampled_profiler_is_unbiased() {
        let mut p = Profiler::new();
        let mut truth = [0u64; 3];
        let mut events = [0u64; 3];
        for i in 0..100_000u64 {
            let (phase, n, ns) = if i % 50 == 49 {
                (Phase::Batch, 4, 700)
            } else if i % 7 == 3 {
                (Phase::Timer, 1, 300)
            } else if i % 2 == 0 {
                (Phase::Deliver, 1, 100)
            } else {
                (Phase::Deliver, 1, 1_000)
            };
            truth[phase as usize] += ns;
            events[phase as usize] += n;
            let timed = p.times_next_dispatch();
            p.note_dispatch(phase, n, timed.then_some(ns));
        }
        p.note_occupancy(3, 10, 1);
        let r = p.report(PoolStats { hits: 9, misses: 1 });
        assert_eq!([r.deliver_events, r.timer_events, r.batch_events], events);
        assert_eq!(r.events, events.iter().sum::<u64>());
        assert_eq!(r.batches, 2_000);
        assert_eq!(r.dispatch_ns_hist.count(), r.timed_dispatches);
        assert!(
            (5_000..7_500).contains(&r.timed_dispatches),
            "{} timed",
            r.timed_dispatches
        );
        for (est, truth) in [r.deliver_ns, r.timer_ns, r.batch_ns]
            .into_iter()
            .zip(truth)
        {
            let err = (est as f64 - truth as f64).abs() / truth as f64;
            assert!(err < 0.05, "estimate {est} vs {truth}: {err:.3} off");
        }
        let sum =
            r.phase_frac(Phase::Deliver) + r.phase_frac(Phase::Timer) + r.phase_frac(Phase::Batch);
        assert!((sum - 1.0).abs() < 1e-12);
        assert!((r.pool.hit_rate() - 0.9).abs() < 1e-12);
        assert!(r.render().contains("event-loop profile"));
    }
}
