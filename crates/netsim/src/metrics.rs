//! Simulation-wide measurement collection.
//!
//! A [`MetricsHub`] is shared (single-threaded `Rc<RefCell>`) between the
//! nodes that produce measurements and the harness that reports them. The
//! quantities match what the paper reports: per-packet delay (mean and
//! 95th percentile), link utilization, per-flow throughput, and time series
//! for the figure plots.

use crate::packet::FlowId;
use crate::stats::{jain_index, summarize_in_place, Summary};
use crate::time::{SimDuration, SimTime};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

/// Dense arena-backed flow table: a sparse `FlowId → slot` index over
/// struct-of-arrays per-slot storage.
///
/// The per-delivery hot path (`MetricsHub::on_delivery`) resolves a flow
/// to a slot with one bounds-checked vector load and then touches dense,
/// cache-adjacent arrays — no tree walk, no per-flow allocation beyond
/// the slot itself. This is what keeps O(10³–10⁴)-flow scenarios flat
/// relative to the sparse regime.
///
/// The read API mirrors the `BTreeMap<FlowId, FlowRecord>` it replaced:
/// [`get`](FlowTable::get), [`values`](FlowTable::values),
/// [`iter`](FlowTable::iter), `table[&flow]`, [`len`](FlowTable::len).
/// Iteration yields flows in ascending `FlowId` order (slots are sorted
/// on demand — iteration is a cold, report-time path), so aggregate
/// float reductions downstream remain bit-identical to the map era.
///
/// `FlowId`s are expected to be small dense integers (the experiment
/// engine assigns `1..=n`); the sparse index is a flat vector sized to
/// the largest id seen.
#[derive(Debug, Default)]
pub struct FlowTable {
    /// `FlowId.0 → slot + 1` (0 = no slot yet).
    index: Vec<u32>,
    /// FlowId of each slot (parallel to `records`).
    ids: Vec<FlowId>,
    /// Per-slot delivery accounting.
    records: Vec<FlowRecord>,
    /// Per-slot application expectations (see `register_app_flow`).
    metas: Vec<Option<AppFlowMeta>>,
    /// Slot visibility. App-flow registration pre-creates a *hidden*
    /// slot; it becomes a reportable flow only on its first post-epoch
    /// delivery — exactly the old map semantics, where registration
    /// never created a `FlowRecord` (a registered-but-idle flow must not
    /// show up in fairness or throughput aggregates).
    live: Vec<bool>,
    /// Number of live (visible) slots.
    live_count: usize,
    /// Number of slots carrying an `AppFlowMeta`; the per-delivery
    /// fast path skips all app accounting while this is zero.
    meta_count: usize,
}

impl FlowTable {
    /// Slot for `flow`, creating a hidden one on first touch.
    fn slot_of(&mut self, flow: FlowId) -> usize {
        let key = flow.0 as usize;
        if key >= self.index.len() {
            self.index.resize(key + 1, 0);
        }
        match self.index[key] {
            0 => {
                let slot = self.ids.len();
                self.index[key] = slot as u32 + 1;
                self.ids.push(flow);
                self.records.push(FlowRecord::default());
                self.metas.push(None);
                self.live.push(false);
                slot
            }
            s => s as usize - 1,
        }
    }

    /// Slot for `flow` if one was ever created (live or hidden).
    fn slot_lookup(&self, flow: FlowId) -> Option<usize> {
        match self.index.get(flow.0 as usize) {
            Some(&s) if s != 0 => Some(s as usize - 1),
            _ => None,
        }
    }

    /// Live slot indices in ascending `FlowId` order.
    fn ordered(&self) -> Vec<usize> {
        let mut v: Vec<usize> = (0..self.ids.len()).filter(|&i| self.live[i]).collect();
        v.sort_unstable_by_key(|&i| self.ids[i]);
        v
    }

    /// The record for `flow`, if it has delivered anything.
    pub fn get(&self, flow: &FlowId) -> Option<&FlowRecord> {
        let slot = self.slot_lookup(*flow)?;
        self.live[slot].then(|| &self.records[slot])
    }

    /// Number of flows that have delivered at least one packet.
    pub fn len(&self) -> usize {
        self.live_count
    }

    /// True if no flow has delivered anything yet.
    pub fn is_empty(&self) -> bool {
        self.live_count == 0
    }

    /// Flow records in ascending `FlowId` order.
    pub fn values(&self) -> impl Iterator<Item = &FlowRecord> + '_ {
        self.ordered().into_iter().map(move |i| &self.records[i])
    }

    /// `(FlowId, record)` pairs in ascending `FlowId` order.
    pub fn iter(&self) -> impl Iterator<Item = (FlowId, &FlowRecord)> + '_ {
        self.ordered()
            .into_iter()
            .map(move |i| (self.ids[i], &self.records[i]))
    }
}

impl std::ops::Index<&FlowId> for FlowTable {
    type Output = FlowRecord;
    fn index(&self, flow: &FlowId) -> &FlowRecord {
        self.get(flow).expect("no record for flow")
    }
}

/// Initial capacity hint for per-packet sample vectors: a few thousand
/// deliveries is the floor for any measured scenario, so early growth
/// reallocations are skipped.
const SAMPLES_HINT: usize = 4096;

/// Cheap shared handle to the hub.
pub type Metrics = Rc<RefCell<MetricsHub>>;

/// A fresh, empty, shareable [`MetricsHub`].
pub fn new_hub() -> Metrics {
    Rc::new(RefCell::new(MetricsHub::default()))
}

/// Application-level expectations for a flow, registered by the harness
/// before the run (see [`MetricsHub::register_app_flow`]). Everything is
/// optional so a flow can be tracked for completion, deadlines, or both.
#[derive(Debug, Clone, Copy, Default)]
pub struct AppFlowMeta {
    /// When the application started the flow (FCT measures from here).
    pub start: SimTime,
    /// The flow is complete once this many bytes have been delivered.
    pub expected_bytes: Option<u64>,
    /// Per-packet one-way-delay budget; first deliveries above it — or
    /// recovered via retransmission at all — count as deadline misses
    /// (RTC/interactive workloads: late data is as bad as lost data).
    pub deadline: Option<SimDuration>,
}

/// Per-flow delivery accounting (recorded by sinks).
#[derive(Debug, Clone, Default)]
pub struct FlowRecord {
    /// Wire bytes delivered (duplicates included).
    pub delivered_bytes: u64,
    /// Packets delivered (duplicates included).
    pub delivered_pkts: u64,
    /// Bytes/packets counted once per sequence number: duplicates from
    /// spurious retransmissions are excluded. App-level completion and
    /// deadline accounting key off these, never the wire counts.
    pub unique_bytes: u64,
    /// Packets counted once per sequence number.
    pub unique_pkts: u64,
    /// When the flow's first packet arrived (post-epoch).
    pub first_delivery: Option<SimTime>,
    /// When the flow's most recent packet arrived.
    pub last_delivery: Option<SimTime>,
    /// One-way packet delays (s), as observed by the receiver.
    pub delays_s: Vec<f64>,
    /// When cumulative *unique* delivery first reached the registered
    /// [`AppFlowMeta::expected_bytes`] (flow-completion instant).
    pub completed_at: Option<SimTime>,
    /// Unique deliveries that busted the registered
    /// [`AppFlowMeta::deadline`]: wire OWD above the budget, or data
    /// that had to be retransmitted (its first copy was lost, so the
    /// replacement is at least a loss-recovery delay late — the wire
    /// OWD of the retransmission alone would hide that).
    pub deadline_misses: u64,
}

impl FlowRecord {
    /// Average goodput over an externally-chosen window (the usual choice:
    /// the whole experiment, so idle flows score zero, matching how the
    /// paper computes aggregate utilization).
    pub fn throughput_over(&self, window: SimDuration) -> f64 {
        if window.is_zero() {
            return 0.0;
        }
        self.delivered_bytes as f64 * 8.0 / window.as_secs_f64()
    }
}

/// Per-link accounting (recorded by link nodes).
#[derive(Debug, Clone, Default)]
pub struct LinkRecord {
    /// Wire bytes the link transmitted.
    pub delivered_bytes: u64,
    /// Packets the link transmitted.
    pub delivered_pkts: u64,
    /// Packets the link's qdisc dropped.
    pub dropped_pkts: u64,
    /// Packets offered to the link (accepted or dropped). Conservation:
    /// `offered == delivered + dropped + still queued` over a full
    /// measurement window (warmup 0, so no arrival predates the epoch).
    pub offered_pkts: u64,
    /// Bytes offered to the link (accepted or dropped).
    pub offered_bytes: u64,
    /// Bits the link could have carried while the experiment ran.
    pub opportunity_bits: f64,
    /// (time, queuing delay) samples taken at each dequeue.
    pub qdelay_series: Vec<(SimTime, SimDuration)>,
    /// Sort-once cache for [`LinkRecord::qdelay_summary_ms`], keyed by the
    /// series length at computation time.
    qdelay_cache: Cell<Option<(usize, Summary)>>,
}

impl LinkRecord {
    /// Delivered bits over opportunity bits, clamped to 1 (zero when no
    /// opportunity accounting ran).
    pub fn utilization(&self) -> f64 {
        if self.opportunity_bits <= 0.0 {
            return 0.0;
        }
        (self.delivered_bytes as f64 * 8.0 / self.opportunity_bits).min(1.0)
    }

    /// Queuing-delay summary (ms). Computed once per series state: repeat
    /// calls between dequeues return the cached summary instead of
    /// re-collecting and re-sorting the samples.
    pub fn qdelay_summary_ms(&self) -> Summary {
        let n = self.qdelay_series.len();
        if let Some((k, s)) = self.qdelay_cache.get() {
            if k == n {
                return s;
            }
        }
        let mut v: Vec<f64> = self
            .qdelay_series
            .iter()
            .map(|(_, d)| d.as_millis_f64())
            .collect();
        let s = summarize_in_place(&mut v);
        self.qdelay_cache.set(Some((n, s)));
        s
    }
}

/// One throughput sample bin: delivered bytes per flow in `[start, start+width)`.
#[derive(Debug, Clone)]
pub struct ThroughputBin {
    /// Bin start time.
    pub start: SimTime,
    /// Delivered bytes per [`FlowTable`] slot (dense, grown on write;
    /// slots beyond the vector's length delivered nothing in this bin).
    pub bytes: Vec<u64>,
}

/// Pass/hit accounting for one configured impairment wire (see
/// [`crate::fault`]). `label` is the spec's stable
/// `"<index>:<kind>:<direction>"` form, so a report names each wire
/// unambiguously even when two share a kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImpairmentRecord {
    /// Stable identity: `"<index>:<kind>:<direction>"`.
    pub label: String,
    /// Packets forwarded untouched.
    pub passed: u64,
    /// Packets dropped, rewritten, or delayed.
    pub impaired: u64,
}

/// Width of the [`MetricsHub`] throughput time-series bins.
const BIN_WIDTH: SimDuration = SimDuration::from_millis(100);

/// The simulation-wide measurement collector (see the module docs).
#[derive(Debug)]
pub struct MetricsHub {
    /// Per-flow delivery accounting.
    pub flows: FlowTable,
    /// Per-link accounting, keyed by the link's metrics tag.
    pub links: BTreeMap<&'static str, LinkRecord>,
    /// Per-impairment-wire counters, in scenario spec order.
    pub impairments: Vec<ImpairmentRecord>,
    bins: Vec<ThroughputBin>,
    /// Measurement starts here; earlier samples are warm-up and ignored.
    epoch: SimTime,
    /// Sort-once cache for [`MetricsHub::delay_summary_ms`], keyed by the
    /// total delivered-sample count.
    delay_cache: Cell<Option<(usize, Summary)>>,
}

impl Default for MetricsHub {
    fn default() -> Self {
        MetricsHub {
            flows: FlowTable::default(),
            links: BTreeMap::new(),
            impairments: Vec::new(),
            bins: Vec::new(),
            epoch: SimTime::ZERO,
            delay_cache: Cell::new(None),
        }
    }
}

impl MetricsHub {
    /// Ignore everything recorded before `t` (warm-up trimming).
    pub fn set_epoch(&mut self, t: SimTime) {
        self.epoch = t;
    }

    /// The configured measurement-start instant.
    pub fn epoch(&self) -> SimTime {
        self.epoch
    }

    /// Register application expectations for `flow` (FCT completion
    /// target and/or a per-packet delay deadline). Call before the run;
    /// bytes delivered during warmup do not count toward completion.
    /// Registration pre-creates a hidden arena slot; the flow is not
    /// visible in reports until its first post-epoch delivery.
    pub fn register_app_flow(&mut self, flow: FlowId, meta: AppFlowMeta) {
        let slot = self.flows.slot_of(flow);
        if self.flows.metas[slot].is_none() {
            self.flows.meta_count += 1;
        }
        self.flows.metas[slot] = Some(meta);
    }

    /// Register an impairment wire by label, returning the slot its
    /// [`on_impairment`](MetricsHub::on_impairment) updates. Call in spec
    /// order so reports list wires deterministically.
    pub fn register_impairment(&mut self, label: String) -> usize {
        self.impairments.push(ImpairmentRecord {
            label,
            passed: 0,
            impaired: 0,
        });
        self.impairments.len() - 1
    }

    /// Called by an impairment wire for every packet it inspects; `hit`
    /// marks packets the impairment touched (dropped/rewrote/delayed).
    pub fn on_impairment(&mut self, index: usize, hit: bool) {
        let rec = &mut self.impairments[index];
        if hit {
            rec.impaired += 1;
        } else {
            rec.passed += 1;
        }
    }

    /// Called by sinks for every delivered data packet. `unique` is false
    /// for duplicate deliveries of an already-received sequence (spurious
    /// retransmissions); `retransmit` marks a retransmitted copy. Wire
    /// counters take every delivery; app-level completion and deadline
    /// accounting only move on unique ones, so duplicates can neither
    /// complete a request early nor dilute a miss rate.
    pub fn on_delivery(
        &mut self,
        flow: FlowId,
        now: SimTime,
        delay: SimDuration,
        bytes: u32,
        unique: bool,
        retransmit: bool,
    ) {
        if now < self.epoch {
            return;
        }
        let ft = &mut self.flows;
        let slot = ft.slot_of(flow);
        if !ft.live[slot] {
            ft.live[slot] = true;
            ft.live_count += 1;
        }
        // Copy the meta out before the record borrow: one slot resolution
        // serves both, where the map era paid two tree lookups.
        let meta = if unique && ft.meta_count > 0 {
            ft.metas[slot]
        } else {
            None
        };
        let rec = &mut ft.records[slot];
        rec.delivered_bytes += bytes as u64;
        rec.delivered_pkts += 1;
        if unique {
            rec.unique_bytes += bytes as u64;
            rec.unique_pkts += 1;
        }
        rec.first_delivery.get_or_insert(now);
        rec.last_delivery = Some(now);
        if rec.delays_s.capacity() == 0 {
            rec.delays_s.reserve(SAMPLES_HINT);
        }
        rec.delays_s.push(delay.as_secs_f64());
        if let Some(meta) = meta {
            // A retransmitted frame busts the deadline regardless of
            // its own wire OWD: the original was lost, and the
            // replacement arrives at least a loss-recovery delay
            // after the application produced it.
            if meta.deadline.is_some_and(|d| retransmit || delay > d) {
                rec.deadline_misses += 1;
            }
            if rec.completed_at.is_none()
                && meta.expected_bytes.is_some_and(|b| rec.unique_bytes >= b)
            {
                rec.completed_at = Some(now);
            }
        }

        // throughput time series: dense per-slot counters per bin
        let bin_idx = (now.since(self.epoch).as_nanos() / BIN_WIDTH.as_nanos()) as usize;
        while self.bins.len() <= bin_idx {
            let start = self.epoch + BIN_WIDTH * self.bins.len() as u64;
            self.bins.push(ThroughputBin {
                start,
                bytes: Vec::new(),
            });
        }
        let bin = &mut self.bins[bin_idx];
        if bin.bytes.len() <= slot {
            bin.bytes.resize(slot + 1, 0);
        }
        bin.bytes[slot] += bytes as u64;
    }

    /// Called by link nodes at each dequeue.
    pub fn on_link_dequeue(
        &mut self,
        link: &'static str,
        now: SimTime,
        qdelay: SimDuration,
        bytes: u32,
    ) {
        if now < self.epoch {
            return;
        }
        let rec = self.links.entry(link).or_default();
        rec.delivered_bytes += bytes as u64;
        rec.delivered_pkts += 1;
        if rec.qdelay_series.capacity() == 0 {
            rec.qdelay_series.reserve(SAMPLES_HINT);
        }
        rec.qdelay_series.push((now, qdelay));
    }

    /// Called by link nodes for every packet arriving at their qdisc,
    /// before the enqueue decision — the arrival side of the per-hop
    /// byte-conservation ledger (`offered == delivered + dropped +
    /// queued`).
    pub fn on_link_offered(&mut self, link: &'static str, now: SimTime, bytes: u32) {
        if now < self.epoch {
            return;
        }
        let rec = self.links.entry(link).or_default();
        rec.offered_pkts += 1;
        rec.offered_bytes += bytes as u64;
    }

    /// Called by link nodes for every packet their qdisc drops.
    pub fn on_link_drop(&mut self, link: &'static str, now: SimTime) {
        if now < self.epoch {
            return;
        }
        self.links.entry(link).or_default().dropped_pkts += 1;
    }

    /// Called once, at teardown, with the link's total opportunity bits
    /// over the measurement period.
    pub fn set_link_opportunity(&mut self, link: &'static str, bits: f64) {
        self.links.entry(link).or_default().opportunity_bits = bits;
    }

    /// One-way delay summary (ms) across all packets of all flows.
    /// Sorted once per recorded state and cached for repeat calls.
    pub fn delay_summary_ms(&self) -> Summary {
        let n: usize = self.flows.values().map(|f| f.delays_s.len()).sum();
        if let Some((k, s)) = self.delay_cache.get() {
            if k == n {
                return s;
            }
        }
        let mut v: Vec<f64> = Vec::with_capacity(n);
        v.extend(
            self.flows
                .values()
                .flat_map(|f| f.delays_s.iter().map(|d| d * 1e3)),
        );
        let s = summarize_in_place(&mut v);
        self.delay_cache.set(Some((n, s)));
        s
    }

    /// Jain fairness index of per-flow throughput over `window`.
    pub fn jain(&self, window: SimDuration) -> f64 {
        let tputs: Vec<f64> = self
            .flows
            .values()
            .map(|f| f.throughput_over(window))
            .collect();
        jain_index(&tputs)
    }

    /// Throughput time series for `flow`: (bin start seconds, Mbit/s).
    pub fn throughput_series_mbps(&self, flow: FlowId) -> Vec<(f64, f64)> {
        let w = BIN_WIDTH.as_secs_f64();
        // Resolve the arena slot once, not once per bin.
        let slot = self.flows.slot_lookup(flow);
        self.bins
            .iter()
            .map(|b| {
                let bytes = slot.and_then(|s| b.bytes.get(s)).copied().unwrap_or(0);
                (b.start.as_secs_f64(), bytes as f64 * 8.0 / w / 1e6)
            })
            .collect()
    }

    /// Aggregate throughput time series across all flows.
    pub fn total_throughput_series_mbps(&self) -> Vec<(f64, f64)> {
        let w = BIN_WIDTH.as_secs_f64();
        self.bins
            .iter()
            .map(|b| {
                let bytes: u64 = b.bytes.iter().sum();
                (b.start.as_secs_f64(), bytes as f64 * 8.0 / w / 1e6)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn delivery_accounting() {
        let hub = new_hub();
        {
            let mut h = hub.borrow_mut();
            for i in 0..10 {
                h.on_delivery(
                    FlowId(1),
                    at(100 * i),
                    SimDuration::from_millis(20),
                    1500,
                    true,
                    false,
                );
            }
        }
        let h = hub.borrow();
        let f = &h.flows[&FlowId(1)];
        assert_eq!(f.delivered_bytes, 15000);
        assert_eq!(f.delivered_pkts, 10);
        // 15000B over 1s window = 120 kbit/s
        assert!((f.throughput_over(SimDuration::from_secs(1)) - 120_000.0).abs() < 1.0);
    }

    #[test]
    fn epoch_trims_warmup() {
        let hub = new_hub();
        {
            let mut h = hub.borrow_mut();
            h.set_epoch(at(1000));
            h.on_delivery(
                FlowId(1),
                at(500),
                SimDuration::from_millis(5),
                1500,
                true,
                false,
            );
            h.on_delivery(
                FlowId(1),
                at(1500),
                SimDuration::from_millis(5),
                1500,
                true,
                false,
            );
        }
        assert_eq!(hub.borrow().flows[&FlowId(1)].delivered_pkts, 1);
    }

    #[test]
    fn utilization_capped_at_one() {
        let mut rec = LinkRecord {
            delivered_bytes: 2000,
            opportunity_bits: 8000.0,
            ..Default::default()
        };
        assert_eq!(rec.utilization(), 1.0);
        rec.delivered_bytes = 500;
        assert!((rec.utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn throughput_series_bins() {
        let hub = new_hub();
        {
            let mut h = hub.borrow_mut();
            h.on_delivery(FlowId(1), at(50), SimDuration::ZERO, 1500, true, false);
            h.on_delivery(FlowId(1), at(250), SimDuration::ZERO, 1500, true, false);
            h.on_delivery(FlowId(1), at(260), SimDuration::ZERO, 1500, true, false);
        }
        let series = hub.borrow().throughput_series_mbps(FlowId(1));
        assert_eq!(series.len(), 3);
        // bin 0: 1500B/100ms = 0.12 Mbit/s
        assert!((series[0].1 - 0.12).abs() < 1e-9);
        assert!((series[1].1 - 0.0).abs() < 1e-12);
        assert!((series[2].1 - 0.24).abs() < 1e-9);
    }

    #[test]
    fn duplicates_cannot_complete_and_retransmits_always_miss() {
        let hub = new_hub();
        {
            let mut h = hub.borrow_mut();
            h.register_app_flow(
                FlowId(1),
                AppFlowMeta {
                    start: at(0),
                    expected_bytes: Some(3000),
                    deadline: Some(SimDuration::from_millis(100)),
                },
            );
            // unique on-time delivery: no miss, not yet complete
            h.on_delivery(
                FlowId(1),
                at(10),
                SimDuration::from_millis(20),
                1500,
                true,
                false,
            );
            // duplicate deliveries never advance completion or misses,
            // however late they are
            h.on_delivery(
                FlowId(1),
                at(20),
                SimDuration::from_millis(500),
                1500,
                false,
                true,
            );
            assert!(h.flows[&FlowId(1)].completed_at.is_none());
            assert_eq!(h.flows[&FlowId(1)].deadline_misses, 0);
        }
        {
            let mut h = hub.borrow_mut();
            // a recovered (retransmitted) frame is a miss even with a
            // fast wire OWD, and its unique bytes complete the flow
            h.on_delivery(
                FlowId(1),
                at(300),
                SimDuration::from_millis(20),
                1500,
                true,
                true,
            );
        }
        let h = hub.borrow();
        let rec = &h.flows[&FlowId(1)];
        assert_eq!(rec.completed_at, Some(at(300)));
        assert_eq!(rec.deadline_misses, 1);
        assert_eq!(rec.unique_pkts, 2);
        assert_eq!(rec.delivered_pkts, 3);
        assert_eq!(rec.unique_bytes, 3000);
        assert_eq!(rec.delivered_bytes, 4500);
    }

    #[test]
    fn jain_over_flows() {
        let hub = new_hub();
        {
            let mut h = hub.borrow_mut();
            h.on_delivery(FlowId(1), at(10), SimDuration::ZERO, 1000, true, false);
            h.on_delivery(FlowId(2), at(10), SimDuration::ZERO, 1000, true, false);
        }
        let j = hub.borrow().jain(SimDuration::from_secs(1));
        assert!((j - 1.0).abs() < 1e-12);
    }
}
