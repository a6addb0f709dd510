//! The `Node` trait and the `Context` through which nodes act on the world.

use crate::event::{EventHandle, EventKind, EventQueue};
use crate::packet::{NodeId, Packet};
use crate::telemetry::{PoolStats, Scope, Signal, TelemetrySink};
use crate::time::{SimDuration, SimTime};

/// Recycled `Deliver` boxes kept per simulator; bounds pool memory while
/// letting steady-state traffic run allocation-free. Shared by the
/// simulator's dead-letter path and [`Context::recycle`].
pub(crate) const PACKET_POOL_CAP: usize = 1024;

/// Handle to a pending timer, returned by [`Context::set_timer`] /
/// [`Context::set_timer_at`] and consumed by [`Context::cancel_timer`].
/// A handle is dead as soon as its `Timer` event is delivered: cancelling
/// it then does nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerId(EventHandle);

/// The capability handed to a node while it handles an event.
///
/// Scheduling is direct: [`Context::set_timer`], [`Context::forward`] and
/// [`Context::cancel_timer`] act on the event queue as they are called, in
/// program order, so scheduling and then cancelling the same timer in one
/// handler is well-defined. Nothing aliases — the simulator takes the
/// handling node out of its registry for the duration of the call, and
/// the loop pops nothing until the handler returns.
pub struct Context<'a> {
    now: SimTime,
    self_id: NodeId,
    queue: &'a mut EventQueue,
    /// Recycled `Deliver` boxes — steady-state traffic reuses them instead
    /// of allocating per packet. The boxes are the pooled resource, not an
    /// indirection.
    #[allow(clippy::vec_box)]
    pool: &'a mut Vec<Box<Packet>>,
    /// Pool hit/miss counters (simulator-owned, always on — two integer
    /// increments per packet with no observable output unless profiled).
    pool_stats: &'a mut PoolStats,
    /// The telemetry sink probes record through.
    sink: &'a mut dyn TelemetrySink,
    /// `sink.mask()`, cached by the simulator when the sink is installed
    /// so each probe site costs one bit test instead of a virtual call.
    mask: u32,
}

impl<'a> Context<'a> {
    #[allow(clippy::vec_box)]
    pub(crate) fn new(
        now: SimTime,
        self_id: NodeId,
        queue: &'a mut EventQueue,
        pool: &'a mut Vec<Box<Packet>>,
        pool_stats: &'a mut PoolStats,
        sink: &'a mut dyn TelemetrySink,
        mask: u32,
    ) -> Self {
        Context {
            now,
            self_id,
            queue,
            pool,
            pool_stats,
            sink,
            mask,
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id under which this node is registered.
    pub fn self_id(&self) -> NodeId {
        self.self_id
    }

    #[inline]
    fn boxed(&mut self, pkt: Packet) -> Box<Packet> {
        match self.pool.pop() {
            Some(mut b) => {
                self.pool_stats.hits += 1;
                *b = pkt;
                b
            }
            None => {
                self.pool_stats.misses += 1;
                Box::new(pkt)
            }
        }
    }

    /// Forward `pkt` along its route: deliver it to the next hop after that
    /// segment's propagation delay. Packets whose route is exhausted are
    /// dropped with a debug assertion — a terminal node (sender absorbing
    /// its own ACK) should simply not forward.
    pub fn forward(&mut self, pkt: Packet) {
        let boxed = self.boxed(pkt);
        self.forward_boxed(boxed);
    }

    /// Forward an already-boxed packet, reusing its allocation across hops.
    pub fn forward_boxed(&mut self, mut pkt: Box<Packet>) {
        match pkt.next_hop() {
            Some((next, delay)) => {
                pkt.hop += 1;
                let time = self.now + delay;
                self.queue.push(time, next, EventKind::Deliver(pkt));
            }
            None => {
                debug_assert!(false, "forward() on exhausted route");
            }
        }
    }

    /// Deliver `pkt` to an explicit node after `delay`, ignoring the route.
    /// Used by link nodes delivering to themselves, e.g. loopback tests.
    pub fn deliver(&mut self, to: NodeId, delay: SimDuration, pkt: Packet) {
        let boxed = self.boxed(pkt);
        let time = self.now + delay;
        self.queue.push(time, to, EventKind::Deliver(boxed));
    }

    /// Return a spent `Deliver` box to the packet pool. Terminal nodes
    /// (senders absorbing ACKs, sinks consuming data) call this so the
    /// allocation is reused by the next [`Context::forward`].
    pub fn recycle(&mut self, pkt: Box<Packet>) {
        // Capped so a burst of drops can't pin unbounded memory.
        if self.pool.len() < PACKET_POOL_CAP {
            self.pool.push(pkt);
        }
    }

    /// Fire `Timer(token)` on this node after `delay`. The returned handle
    /// cancels the timer while it is still pending.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) -> TimerId {
        let time = self.now + delay;
        TimerId(self.queue.push(time, self.self_id, EventKind::Timer(token)))
    }

    /// Fire `Timer(token)` on this node at absolute time `at` (clamped to
    /// be no earlier than now).
    pub fn set_timer_at(&mut self, at: SimTime, token: u64) -> TimerId {
        let at = at.max(self.now);
        TimerId(self.queue.push(at, self.self_id, EventKind::Timer(token)))
    }

    /// Cancel a pending timer in O(1): it will never fire. Cancelling a
    /// timer that already fired (or was already cancelled) does nothing.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.queue.cancel(id.0);
    }

    /// Whether any signal is selected. Probe sites that need to compute
    /// values before sampling guard on this so the disabled path does no
    /// work at all.
    #[inline]
    pub fn telemetry_on(&self) -> bool {
        self.mask != 0
    }

    /// Whether `signal` is selected (always false while telemetry is off).
    #[inline]
    pub fn wants(&self, signal: Signal) -> bool {
        self.mask & signal.bit() != 0
    }

    /// Record a gauge observation (one line at a probe site; a dead
    /// branch when the signal is not selected, as under
    /// [`Off`](crate::telemetry::Off)).
    #[inline]
    pub fn sample(&mut self, signal: Signal, scope: Scope, value: f64) {
        if self.wants(signal) {
            self.sink.sample(self.now, signal, scope, value);
        }
    }

    /// Bump a counter signal (same cost contract as [`Context::sample`]).
    #[inline]
    pub fn count(&mut self, signal: Signal, scope: Scope, delta: u64) {
        if self.wants(signal) {
            self.sink.count(signal, scope, delta);
        }
    }
}

/// A simulation participant: a traffic source, a link queue, a sink…
/// Nodes own all their state; the simulator only routes events.
pub trait Node: std::any::Any {
    /// Called once when the simulation starts, so nodes can arm their
    /// first timers (pacing clocks, trace cursors, …).
    fn start(&mut self, _ctx: &mut Context) {}

    /// Handle a delivered packet or a fired timer.
    fn handle(&mut self, ctx: &mut Context, event: EventKind);

    /// Handle a run of same-instant events addressed to this node in one
    /// event-loop drain. The simulator only batches adjacent `Deliver`
    /// events (they can never be cancelled, so membership is fixed at
    /// collection time); the first element may be any kind. The default
    /// dispatches each event to [`Node::handle`] in pop order, which is
    /// semantically identical to individual delivery. Nodes with
    /// expensive per-event bookkeeping (e.g. the sender's RTO re-arm)
    /// override this to coalesce that bookkeeping across the batch —
    /// the override must preserve per-event observable behavior.
    fn handle_batch(&mut self, ctx: &mut Context, batch: &mut Vec<EventKind>) {
        for event in batch.drain(..) {
            self.handle(ctx, event);
        }
    }

    /// Downcast support for post-run inspection of node state.
    fn as_any(&self) -> &dyn std::any::Any;
    /// Mutable downcast support (end-of-run finalization hooks).
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
}

/// Implements the `as_any_qdisc` boilerplate for a qdisc type.
#[macro_export]
macro_rules! impl_qdisc_downcast {
    () => {
        fn as_any_qdisc(&self) -> &dyn std::any::Any {
            self
        }
    };
}

/// Implements the two `as_any` boilerplate methods for a node type.
#[macro_export]
macro_rules! impl_node_downcast {
    () => {
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    };
}
