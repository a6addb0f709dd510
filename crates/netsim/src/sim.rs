//! The simulator: node registry, virtual clock, and the run loop.

use crate::event::{EventKind, EventQueue};
use crate::node::{Context, PACKET_POOL_CAP};
use crate::packet::{NodeId, Packet};
use crate::telemetry::{
    Off, Phase, PoolStats, ProfileReport, Profiler, Scope, Signal, TelemetrySink,
};
use crate::time::SimTime;

/// A deterministic discrete-event simulator.
///
/// ```
/// use netsim::sim::Simulator;
/// use netsim::node::{Context, Node};
/// use netsim::event::EventKind;
/// use netsim::time::{SimDuration, SimTime};
///
/// struct Ticker { fired: u32 }
/// impl Node for Ticker {
///     netsim::impl_node_downcast!();
///     fn start(&mut self, ctx: &mut Context) {
///         ctx.set_timer(SimDuration::from_millis(10), 0);
///     }
///     fn handle(&mut self, ctx: &mut Context, ev: EventKind) {
///         if let EventKind::Timer(_) = ev {
///             self.fired += 1;
///             if self.fired < 5 {
///                 ctx.set_timer(SimDuration::from_millis(10), 0);
///             }
///         }
///     }
/// }
///
/// let mut sim = Simulator::new();
/// sim.add_node(Box::new(Ticker { fired: 0 }));
/// sim.run_until(SimTime::ZERO + SimDuration::from_secs(1));
/// // five ticks processed, then the clock idles forward to the deadline
/// assert_eq!(sim.now(), SimTime::ZERO + SimDuration::from_secs(1));
/// assert_eq!(sim.events_processed(), 5);
/// ```
pub struct Simulator {
    clock: SimTime,
    queue: EventQueue,
    nodes: Vec<Option<Box<dyn Node>>>,
    started: bool,
    // Boxes are the pooled resource itself (reused Deliver allocations),
    // not an indirection — hence the suppressed lint.
    #[allow(clippy::vec_box)]
    pool: Vec<Box<Packet>>,
    events_processed: u64,
    /// FNV-1a over the `(time, node, kind)` sequence of processed events —
    /// a cheap always-on order witness for determinism tests.
    fingerprint: u64,
    /// Packet-pool hit/miss counters (always on; read by the profiler).
    pool_stats: PoolStats,
    /// Snapshot of `pool_stats` at the last telemetry counter flush, so
    /// repeated `run_until` calls emit deltas, not running totals.
    pool_flushed: PoolStats,
    /// The telemetry sink probes record through; [`Off`] by default.
    telemetry: Box<dyn TelemetrySink>,
    /// `telemetry.mask()`, cached at install time so per-event accounting
    /// and every probe pay one bit test, not a virtual call.
    telemetry_mask: u32,
    /// Opt-in wall-clock event-loop profiler.
    profiler: Option<Profiler>,
    /// Cooperative run budgets; all `None` by default (no overhead
    /// beyond one predictable branch per event).
    guards: RunGuards,
    /// Set when a guard trips; sticky until [`Simulator::set_guards`].
    aborted: Option<AbortReason>,
    /// Event count at which the wall-clock guard next reads the clock.
    next_wall_poll: u64,
}

/// Cooperative budgets for [`Simulator::run_until`]: the event loop
/// checks them between events (its only cancellation point) and stops
/// early when one trips, recording an [`AbortReason`]. This is how the
/// campaign runner's watchdog cancels a runaway or livelocked scenario
/// without killing the process.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunGuards {
    /// Stop once this many events have been processed (lifetime total).
    pub max_events: Option<u64>,
    /// Stop once this much wall-clock time has elapsed since the current
    /// `run_until` call began. Polled once 4096 more events have been
    /// processed since the last poll — counted as events, so batched
    /// dispatch cannot step over a poll — and enforcement lags by at
    /// most one poll interval (plus the batch that crossed it).
    pub max_wall_time: Option<std::time::Duration>,
}

impl RunGuards {
    /// True when at least one budget is set.
    pub fn active(&self) -> bool {
        self.max_events.is_some() || self.max_wall_time.is_some()
    }
}

/// Why a guarded run stopped early. [`AbortReason::describe`] names the
/// *budget*, never the elapsed amount, so the message is deterministic
/// and safe to write into a results store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortReason {
    /// The [`RunGuards::max_events`] budget was exhausted.
    MaxEvents(u64),
    /// The [`RunGuards::max_wall_time`] budget was exhausted.
    WallClock(std::time::Duration),
}

impl AbortReason {
    /// Deterministic human-readable form (budget, not elapsed time).
    pub fn describe(&self) -> String {
        match self {
            AbortReason::MaxEvents(n) => {
                format!("exceeded event budget of {n} events")
            }
            AbortReason::WallClock(d) => {
                format!("exceeded wall-clock budget of {}s", d.as_secs_f64())
            }
        }
    }
}

use crate::node::Node;

impl Default for Simulator {
    fn default() -> Self {
        Self::new()
    }
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;

/// Events between two wall-clock polls of [`RunGuards::max_wall_time`].
const WALL_POLL_EVERY: u64 = 4096;

/// One-multiply word mix (xorshift-multiply): fast enough to run on every
/// event, strong enough that any reordering flips the final fingerprint.
#[inline]
fn fnv_mix(h: u64, x: u64) -> u64 {
    let mut v = h ^ x;
    v = v.wrapping_mul(0x9E3779B97F4A7C15);
    v ^ (v >> 29)
}

impl Simulator {
    /// A simulator at time zero with an empty event queue.
    pub fn new() -> Self {
        Simulator {
            clock: SimTime::ZERO,
            queue: EventQueue::new(),
            nodes: Vec::new(),
            started: false,
            pool: Vec::new(),
            events_processed: 0,
            fingerprint: FNV_OFFSET,
            pool_stats: PoolStats::default(),
            pool_flushed: PoolStats::default(),
            telemetry: Box::new(Off),
            telemetry_mask: 0,
            profiler: None,
            guards: RunGuards::default(),
            aborted: None,
            next_wall_poll: 0,
        }
    }

    /// Register a node; the returned id is how packets route to it.
    pub fn add_node(&mut self, node: Box<dyn Node>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Some(node));
        id
    }

    /// Reserve an id before the node exists — lets topologies with cycles
    /// (sender → … → sender) build routes first and install nodes after.
    pub fn reserve_node(&mut self) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(None);
        id
    }

    /// Install a node into a reserved slot.
    ///
    /// # Panics
    /// If the slot is already occupied.
    pub fn install_node(&mut self, id: NodeId, node: Box<dyn Node>) {
        let slot = &mut self.nodes[id.0 as usize];
        assert!(slot.is_none(), "node slot {id:?} already installed");
        *slot = Some(node);
    }

    /// The current simulation clock.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Total events handled since construction.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Order witness: FNV-1a over every processed `(time, node, kind)`.
    /// Two runs that processed the same events in the same order agree.
    pub fn events_fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Install a telemetry sink; probes in every node's `Context` and the
    /// per-event accounting record through it from now on, for the
    /// signals its [`TelemetrySink::mask`] — read here, once — selects.
    /// Installing [`Off`] (the default) disables telemetry again.
    pub fn set_telemetry(&mut self, sink: Box<dyn TelemetrySink>) {
        self.telemetry_mask = sink.mask();
        self.telemetry = sink;
    }

    /// Start the wall-clock event-loop profiler (see
    /// [`Simulator::profile_report`]). Wall time is host-dependent by
    /// nature: profiles explain bench numbers and are never part of a
    /// deterministic artifact.
    pub fn enable_profiler(&mut self) {
        self.profiler = Some(Profiler::new());
    }

    /// Snapshot the profiler's report, or `None` when
    /// [`Simulator::enable_profiler`] was never called.
    pub fn profile_report(&self) -> Option<ProfileReport> {
        self.profiler.as_ref().map(|p| p.report(self.pool_stats))
    }

    /// Packet-pool hit/miss counters (always maintained).
    pub fn pool_stats(&self) -> PoolStats {
        self.pool_stats
    }

    /// The capability `node_id`'s handler acts through. It borrows the
    /// whole simulator, so the caller must first take the handling node
    /// out of the registry.
    fn context(&mut self, node_id: NodeId) -> Context<'_> {
        Context::new(
            self.clock,
            node_id,
            &mut self.queue,
            &mut self.pool,
            &mut self.pool_stats,
            &mut *self.telemetry,
            self.telemetry_mask,
        )
    }

    fn start_all(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.nodes.len() {
            if let Some(mut node) = self.nodes[i].take() {
                node.start(&mut self.context(NodeId(i as u32)));
                self.nodes[i] = Some(node);
            }
        }
    }

    /// Per-event accounting: the processed-event counter, the order
    /// fingerprint, and the `events` trace when that signal is selected.
    /// Runs for every event exactly when it is popped, so batched
    /// dispatch is indistinguishable from one-at-a-time dispatch to every
    /// order witness.
    fn account(&mut self, time: SimTime, node: NodeId, kind: &EventKind, seq: u64) {
        self.events_processed += 1;
        let mut h = fnv_mix(self.fingerprint, time.as_nanos());
        h = fnv_mix(h, node.0 as u64);
        h = match kind {
            EventKind::Timer(tok) => fnv_mix(fnv_mix(h, 1), *tok),
            EventKind::Deliver(p) => fnv_mix(fnv_mix(fnv_mix(h, 2), p.flow.0 as u64), p.seq),
        };
        self.fingerprint = h;
        if self.telemetry_mask & Signal::Events.bit() != 0 {
            self.telemetry.event(time, node, seq);
        }
    }

    /// Bump a global counter signal if it is selected.
    fn count(&mut self, signal: Signal, delta: u64) {
        if self.telemetry_mask & signal.bit() != 0 {
            self.telemetry.count(signal, Scope::Global, delta);
        }
    }

    /// Run until the clock reaches `deadline` (events at exactly `deadline`
    /// are processed) or the event queue drains, whichever is first.
    ///
    /// Adjacent same-instant `Deliver` events to one node are dispatched
    /// as a single [`Node::handle_batch`] call. This is order-equivalent
    /// to one-at-a-time dispatch: batch members were already queued ahead
    /// of anything a batch handler can schedule (new events always get
    /// higher sequence numbers at times ≥ now), and `Deliver` events can
    /// never be cancelled, so nothing a handler does can invalidate or
    /// reorder the collected batch.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.start_all();
        let guards_active = self.guards.active() || self.aborted.is_some();
        let run_start = std::time::Instant::now();
        self.next_wall_poll = self.events_processed + WALL_POLL_EVERY;
        let mut batch: Vec<EventKind> = Vec::new();
        while let Some(ev) = self.queue.pop_before(deadline) {
            if guards_active && self.guard_tripped(run_start) {
                // The popped event is discarded: an aborted run's results
                // are never reported, only the abort reason.
                if let EventKind::Deliver(b) = ev.kind {
                    if self.pool.len() < PACKET_POOL_CAP {
                        self.pool.push(b);
                    }
                }
                return;
            }
            debug_assert!(ev.time >= self.clock, "event queue time went backwards");
            self.clock = ev.time;
            let (time, node_id) = (ev.time, ev.node);
            self.account(time, node_id, &ev.kind, ev.seq());
            let idx = node_id.0 as usize;
            // Take the node out so the handler can't alias the registry.
            // A missing node (reserved but never installed) drops the event.
            if let Some(mut node) = self.nodes.get_mut(idx).and_then(Option::take) {
                // Wall-clock instrumentation only when the profiler is on
                // (the disabled path pays one branch per dispatch), and
                // then only for the one dispatch in 16 it times.
                let prof_t0 = match &mut self.profiler {
                    Some(p) => p.times_next_dispatch().then(std::time::Instant::now),
                    None => None,
                };
                let mut phase = match ev.kind {
                    EventKind::Timer(_) => Phase::Timer,
                    EventKind::Deliver(_) => Phase::Deliver,
                };
                let mut dispatched: u64 = 1;
                // One peek decides singleton vs batch; the common
                // singleton case dispatches directly, no Vec traffic.
                match self.queue.pop_if_deliver_matching(time, node_id) {
                    None => node.handle(&mut self.context(node_id), ev.kind),
                    Some(second) => {
                        phase = Phase::Batch;
                        dispatched = 2;
                        self.account(time, node_id, &second.kind, second.seq());
                        batch.clear();
                        batch.push(ev.kind);
                        batch.push(second.kind);
                        while let Some(next) = self.queue.pop_if_deliver_matching(time, node_id) {
                            self.account(time, node_id, &next.kind, next.seq());
                            batch.push(next.kind);
                            dispatched += 1;
                        }
                        node.handle_batch(&mut self.context(node_id), &mut batch);
                        debug_assert!(batch.is_empty(), "handle_batch must drain the batch");
                    }
                }
                self.nodes[idx] = Some(node);
                if let Some(p) = &mut self.profiler {
                    let ns = prof_t0.map(|t0| t0.elapsed().as_nanos() as u64);
                    p.note_dispatch(phase, dispatched, ns);
                }
                // Occupancy checkpoint every 1024 processed events. The
                // checkpoint schedule is a pure function of the event
                // count, so the `wheel_*` counters are deterministic.
                if (self.profiler.is_some() || self.telemetry_mask != 0)
                    && self.events_processed & 0x3ff == 0
                {
                    let (near, slots, overflow) = self.queue.occupancy();
                    if let Some(p) = &mut self.profiler {
                        p.note_occupancy(near, slots, overflow);
                    }
                    self.count(Signal::WheelNear, near as u64);
                    self.count(Signal::WheelSlots, slots as u64);
                    self.count(Signal::WheelOverflow, overflow as u64);
                    self.count(Signal::WheelSamples, 1);
                }
            } else if let EventKind::Deliver(b) = ev.kind {
                if self.pool.len() < PACKET_POOL_CAP {
                    self.pool.push(b);
                }
            }
        }
        // Flush packet-pool deltas into the pool_hit/pool_miss counters.
        // Not reached on the guard-abort path above: an aborted run
        // reports nothing but its abort reason.
        if self.telemetry_mask != 0 {
            let hits = self.pool_stats.hits - self.pool_flushed.hits;
            let misses = self.pool_stats.misses - self.pool_flushed.misses;
            if hits > 0 {
                self.count(Signal::PoolHit, hits);
            }
            if misses > 0 {
                self.count(Signal::PoolMiss, misses);
            }
            self.pool_flushed = self.pool_stats;
        }
        // Advance the clock to the deadline even if we idled out early.
        if self.clock < deadline {
            self.clock = deadline;
        }
    }

    /// Install cooperative run budgets (see [`RunGuards`]) and clear any
    /// previous abort.
    pub fn set_guards(&mut self, guards: RunGuards) {
        self.guards = guards;
        self.aborted = None;
    }

    /// Why the last guarded run stopped early, if it did. Sticky across
    /// `run_until` calls until guards are (re)installed.
    pub fn aborted(&self) -> Option<AbortReason> {
        self.aborted
    }

    /// Check budgets between events; sets [`Simulator::aborted`] and
    /// returns true when one trips. Wall clock is polled when the event
    /// count reaches `next_wall_poll`, which then moves [`WALL_POLL_EVERY`]
    /// events on, so the common path stays syscall-free.
    fn guard_tripped(&mut self, run_start: std::time::Instant) -> bool {
        if self.aborted.is_some() {
            return true;
        }
        if let Some(max) = self.guards.max_events {
            if self.events_processed >= max {
                self.aborted = Some(AbortReason::MaxEvents(max));
                return true;
            }
        }
        if let Some(budget) = self.guards.max_wall_time {
            if self.events_processed >= self.next_wall_poll {
                self.next_wall_poll = self.events_processed + WALL_POLL_EVERY;
                if run_start.elapsed() >= budget {
                    self.aborted = Some(AbortReason::WallClock(budget));
                    return true;
                }
            }
        }
        false
    }

    /// Run for `dur` of simulated time from the current clock.
    pub fn run_for(&mut self, dur: crate::time::SimDuration) {
        let deadline = self.clock + dur;
        self.run_until(deadline);
    }

    /// Access a node for post-run inspection (e.g. reading counters).
    /// Returns `None` for reserved-but-empty slots.
    pub fn node(&self, id: NodeId) -> Option<&dyn Node> {
        self.nodes.get(id.0 as usize).and_then(|n| n.as_deref())
    }

    /// Mutable access, for test scaffolding.
    pub fn node_mut(&mut self, id: NodeId) -> Option<&mut Box<dyn Node>> {
        self.nodes.get_mut(id.0 as usize).and_then(|n| n.as_mut())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Ecn, Feedback, FlowId, Packet, Route};
    use crate::time::SimDuration;

    /// Bounces a counter packet back and forth with a peer.
    struct PingPong {
        peer: Option<NodeId>,
        received: u32,
        limit: u32,
    }

    impl Node for PingPong {
        crate::impl_node_downcast!();

        fn start(&mut self, ctx: &mut Context) {
            if let Some(peer) = self.peer {
                let route = Route::new(vec![(peer, SimDuration::from_millis(5))]);
                let pkt = Packet {
                    flow: FlowId(0),
                    seq: 0,
                    size: 100,
                    ecn: Ecn::NotEct,
                    feedback: Feedback::None,
                    abc_capable: false,
                    sent_at: ctx.now(),
                    retransmit: false,
                    ack: None,
                    route,
                    hop: 0,
                    enqueued_at: ctx.now(),
                };
                ctx.forward(pkt);
            }
        }

        fn handle(&mut self, ctx: &mut Context, ev: EventKind) {
            if let EventKind::Deliver(pkt) = ev {
                self.received += 1;
                if self.received < self.limit {
                    // send it back to whoever it came from via a fresh route
                    let from = if let Some(peer) = self.peer {
                        peer
                    } else {
                        // responder learns the peer from the packet's route origin:
                        // route carried us as the only hop; reply to flow origin
                        // is modeled by tests wiring both sides with peers.
                        return;
                    };
                    let mut reply = pkt;
                    reply.route = Route::new(vec![(from, SimDuration::from_millis(5))]);
                    reply.hop = 0;
                    ctx.forward_boxed(reply);
                }
            }
        }
    }

    #[test]
    fn ping_pong_advances_clock_by_propagation() {
        let mut sim = Simulator::new();
        let a = sim.reserve_node();
        let b = sim.reserve_node();
        sim.install_node(
            a,
            Box::new(PingPong {
                peer: Some(b),
                received: 0,
                limit: 3,
            }),
        );
        sim.install_node(
            b,
            Box::new(PingPong {
                peer: Some(a),
                received: 0,
                limit: 3,
            }),
        );
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(1));
        // a starts -> b (5ms). b replies -> a (10ms). a replies -> b (15ms)...
        // each side also fires its own start packet; just sanity-check time
        // advanced in 5ms multiples and the sim terminated.
        assert!(sim.now() == SimTime::ZERO + SimDuration::from_secs(1));
        assert!(sim.events_processed() >= 4);
    }

    #[test]
    fn run_until_is_resumable() {
        struct T {
            count: u32,
        }
        impl Node for T {
            crate::impl_node_downcast!();

            fn start(&mut self, ctx: &mut Context) {
                ctx.set_timer(SimDuration::from_millis(10), 0);
            }
            fn handle(&mut self, ctx: &mut Context, _: EventKind) {
                self.count += 1;
                ctx.set_timer(SimDuration::from_millis(10), 0);
            }
        }
        let mut sim = Simulator::new();
        let id = sim.add_node(Box::new(T { count: 0 }));
        sim.run_until(SimTime::ZERO + SimDuration::from_millis(35));
        sim.run_until(SimTime::ZERO + SimDuration::from_millis(100));
        // timers at 10,20,...,100 → 10 firings
        let t: &T = sim
            .node(id)
            .and_then(|n| n.as_any().downcast_ref())
            .unwrap();
        assert_eq!(t.count, 10);
    }

    #[test]
    fn deadline_without_events_advances_clock() {
        let mut sim = Simulator::new();
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(5));
        assert_eq!(sim.now(), SimTime::ZERO + SimDuration::from_secs(5));
    }

    #[test]
    fn cancelled_timer_never_fires() {
        struct T {
            fired: u32,
        }
        impl Node for T {
            crate::impl_node_downcast!();
            fn start(&mut self, ctx: &mut Context) {
                let id = ctx.set_timer(SimDuration::from_millis(10), 1);
                ctx.set_timer(SimDuration::from_millis(20), 2);
                ctx.cancel_timer(id);
            }
            fn handle(&mut self, _ctx: &mut Context, ev: EventKind) {
                if let EventKind::Timer(tok) = ev {
                    assert_eq!(tok, 2, "cancelled timer fired");
                    self.fired += 1;
                }
            }
        }
        let mut sim = Simulator::new();
        let id = sim.add_node(Box::new(T { fired: 0 }));
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(1));
        let t: &T = sim
            .node(id)
            .and_then(|n| n.as_any().downcast_ref())
            .unwrap();
        assert_eq!(t.fired, 1);
        assert_eq!(sim.events_processed(), 1);
    }

    #[test]
    fn fingerprint_is_stable_across_runs() {
        let run = || {
            let mut sim = Simulator::new();
            let a = sim.reserve_node();
            let b = sim.reserve_node();
            sim.install_node(
                a,
                Box::new(PingPong {
                    peer: Some(b),
                    received: 0,
                    limit: 5,
                }),
            );
            sim.install_node(
                b,
                Box::new(PingPong {
                    peer: Some(a),
                    received: 0,
                    limit: 5,
                }),
            );
            sim.run_until(SimTime::ZERO + SimDuration::from_secs(1));
            sim.events_fingerprint()
        };
        assert_eq!(run(), run());
        assert_ne!(run(), FNV_OFFSET, "fingerprint never updated");
    }

    /// Re-arms a short timer forever: a livelocked node only a guard
    /// can stop.
    struct Spinner;

    impl Node for Spinner {
        crate::impl_node_downcast!();
        fn start(&mut self, ctx: &mut Context) {
            ctx.set_timer(SimDuration::from_nanos(1), 0);
        }
        fn handle(&mut self, ctx: &mut Context, _: EventKind) {
            ctx.set_timer(SimDuration::from_nanos(1), 0);
        }
    }

    #[test]
    fn max_events_guard_aborts_a_runaway_run() {
        let mut sim = Simulator::new();
        sim.add_node(Box::new(Spinner));
        sim.set_guards(RunGuards {
            max_events: Some(1000),
            max_wall_time: None,
        });
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(3600));
        assert_eq!(sim.aborted(), Some(AbortReason::MaxEvents(1000)));
        assert_eq!(sim.events_processed(), 1000);
        assert_eq!(
            AbortReason::MaxEvents(1000).describe(),
            "exceeded event budget of 1000 events"
        );
    }

    #[test]
    fn wall_clock_guard_cancels_a_livelock() {
        let mut sim = Simulator::new();
        sim.add_node(Box::new(Spinner));
        sim.set_guards(RunGuards {
            max_events: None,
            max_wall_time: Some(std::time::Duration::from_millis(20)),
        });
        // One simulated hour of 1 ns self-timers would take minutes of
        // wall time; the guard must cut it off promptly.
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(3600));
        assert!(matches!(sim.aborted(), Some(AbortReason::WallClock(_))));
    }

    /// Fires one timer, then bounces two packets to itself 1 ns apart
    /// forever: every dispatch after the first is a same-instant batch of
    /// two, so the processed-event count only ever takes odd values.
    struct BatchSpinner;

    impl Node for BatchSpinner {
        crate::impl_node_downcast!();
        fn start(&mut self, ctx: &mut Context) {
            ctx.set_timer(SimDuration::from_nanos(1), 0);
        }
        fn handle(&mut self, ctx: &mut Context, ev: EventKind) {
            let me = ctx.self_id();
            let pkt = match ev {
                EventKind::Deliver(pkt) => *pkt,
                EventKind::Timer(_) => {
                    let pkt = Packet {
                        flow: FlowId(0),
                        seq: 0,
                        size: 100,
                        ecn: Ecn::NotEct,
                        feedback: Feedback::None,
                        abc_capable: false,
                        sent_at: ctx.now(),
                        retransmit: false,
                        ack: None,
                        route: Route::new(Vec::new()),
                        hop: 0,
                        enqueued_at: ctx.now(),
                    };
                    ctx.deliver(me, SimDuration::from_nanos(1), pkt.clone());
                    pkt
                }
            };
            ctx.deliver(me, SimDuration::from_nanos(1), pkt);
        }
    }

    #[test]
    fn wall_clock_guard_cancels_a_batched_livelock() {
        let mut sim = Simulator::new();
        sim.add_node(Box::new(BatchSpinner));
        sim.set_guards(RunGuards {
            max_events: None,
            max_wall_time: Some(std::time::Duration::from_millis(20)),
        });
        // 2 M batches of two: far more than 20 ms of wall time even in
        // an optimised build, yet short enough that a guard which never
        // polls lets the run finish (and this assertion fail) quickly.
        sim.run_until(SimTime::ZERO + SimDuration::from_millis(2));
        assert!(
            matches!(sim.aborted(), Some(AbortReason::WallClock(_))),
            "ran all {} events unguarded",
            sim.events_processed()
        );
    }

    #[test]
    fn inactive_guards_change_nothing() {
        let run = |guarded: bool| {
            let mut sim = Simulator::new();
            let a = sim.reserve_node();
            let b = sim.reserve_node();
            sim.install_node(
                a,
                Box::new(PingPong {
                    peer: Some(b),
                    received: 0,
                    limit: 5,
                }),
            );
            sim.install_node(
                b,
                Box::new(PingPong {
                    peer: Some(a),
                    received: 0,
                    limit: 5,
                }),
            );
            if guarded {
                sim.set_guards(RunGuards::default());
            }
            sim.run_until(SimTime::ZERO + SimDuration::from_secs(1));
            assert_eq!(sim.aborted(), None);
            sim.events_fingerprint()
        };
        assert_eq!(run(false), run(true));
    }
}
