//! The event queue: a hierarchical timer-wheel / calendar queue with a
//! far-future overflow heap, deterministic `(time, seq)` pop order, and
//! O(1) lazy cancellation.
//!
//! Three tiers by distance from the cursor:
//!
//! * **near** — a small binary heap holding every event whose slot is at or
//!   before the cursor slot. Pops come from here, so intra-slot ordering is
//!   exact `(time, seq)` — bit-identical to a global comparison heap.
//! * **wheel** — `WHEEL_SLOTS` unsorted buckets of `2^slot_shift` ns
//!   covering the next ~67 ms. Every bucket is a singly linked list threaded
//!   through one shared cell arena (drained cells go on a free list), so a
//!   sparse simulation's whole queue is a few KB, not 1024 separate buffers.
//!   Order inside a bucket is whatever linking produced: a bucket is only
//!   ever drained whole into `near`, which re-sorts by the strict
//!   `(time, seq)` order, so intra-slot order costs nothing to ignore.
//! * **overflow** — a heap for events beyond the wheel horizon (RTO timers,
//!   long trace gaps); refilled into the wheel as the cursor advances.
//!
//! An occupancy bitmap (one bit per bucket) lets the cursor jump straight
//! to the next non-empty bucket with `trailing_zeros`: it never visits an
//! empty slot. Jumping ends in the same state as stepping would, because
//! every overflow event sits at least a full wheel turn past the cursor and
//! so can only migrate into buckets beyond the one jumped to.
//!
//! Cancellation is lazy: cancelled sequence numbers go into a tombstone set
//! and are skipped (and forgotten) when their event surfaces. The queue
//! never reports tombstones in `len()`, so a fully-cancelled queue is empty.
//!
//! [`EventQueue::new_reference`] builds the same queue over a plain
//! `BinaryHeap` — the pre-wheel implementation — kept as the ordering
//! oracle for the golden pop-order and property tests.

use crate::packet::{NodeId, Packet};
use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-xor hasher for the `u64` tombstone set: the default SipHash
/// costs more than the queue operation it guards. Determinism is
/// unaffected — the set is only probed for membership, never iterated.
#[derive(Default)]
pub struct SeqHasher(u64);

impl Hasher for SeqHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100000001b3);
        }
    }
    #[inline]
    fn write_u64(&mut self, x: u64) {
        let mut h = x.wrapping_mul(0x9E3779B97F4A7C15);
        h ^= h >> 32;
        self.0 = h;
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

type SeqSet = HashSet<u64, BuildHasherDefault<SeqHasher>>;

/// What a node is asked to do when its event fires.
#[derive(Debug)]
pub enum EventKind {
    /// A packet arrives at the node (propagation already elapsed). Boxed so
    /// queue operations move 8 bytes, not the whole packet; the box itself
    /// is pooled by the simulator and reused across hops.
    Deliver(Box<Packet>),
    /// A timer previously set by the node fires; the token is whatever the
    /// node passed to [`crate::node::Context::set_timer`].
    Timer(u64),
}

/// A scheduled occurrence: `kind` happens at `node` when the clock
/// reaches `time`.
#[derive(Debug)]
pub struct Event {
    /// When the event fires.
    pub time: SimTime,
    /// The node that handles it.
    pub node: NodeId,
    /// What happens (packet delivery or timer).
    pub kind: EventKind,
    /// Global insertion order: equal-time events fire in the order they
    /// were scheduled, which makes runs bit-reproducible.
    seq: u64,
}

impl Event {
    /// The event's scheduling sequence number (its cancellation handle).
    pub fn seq(&self) -> u64 {
        self.seq
    }
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so earliest (then first-scheduled)
        // pops first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Default slot width exponent: 2^16 ns ≈ 65.5 µs — near the densest
/// inter-event gap the pacing clocks produce, so a slot rarely holds more
/// than a handful of events and the near heap stays tiny.
pub const DEFAULT_SLOT_SHIFT: u32 = 16;
/// Accepted range for a configured slot-width exponent: 2^10 ns (1 µs,
/// heap-like precision) up to 2^26 ns (~67 ms slots, ~69 s horizon).
pub const SLOT_SHIFT_RANGE: std::ops::RangeInclusive<u32> = 10..=26;
/// Wheel span: 1024 slots (≈ 67 ms at the default shift) — longer than
/// any propagation or serialization delay in the evaluated scenarios, so
/// only RTO-scale timers ever touch the overflow heap.
const WHEEL_SLOTS: u64 = 1024;

/// End-of-list / empty-list marker in the wheel's cell arena.
const NIL: u32 = u32::MAX;

/// The timer-wheel backend.
#[derive(Debug)]
struct Wheel {
    near: BinaryHeap<Event>,
    /// The arena every bucket lives in: `(event, next cell)`. Cells
    /// holding an event are chained from `heads`, vacant ones from `free`.
    cells: Vec<(Option<Event>, u32)>,
    /// Head of the vacant-cell list.
    free: u32,
    /// Per-bucket list head into `cells`.
    heads: Box<[u32; WHEEL_SLOTS as usize]>,
    /// Bit `b` set ⇔ bucket `b` is non-empty.
    occupied: [u64; WHEEL_SLOTS as usize / 64],
    /// Events currently held in the buckets.
    wheel_len: usize,
    overflow: BinaryHeap<Event>,
    /// All events with `slot <= cur_slot` live in `near`; slots in
    /// `(cur_slot, cur_slot + WHEEL_SLOTS)` map to bucket `slot % WHEEL_SLOTS`
    /// (so the cursor's own bucket is always empty); later ones wait in
    /// `overflow`.
    cur_slot: u64,
    /// Slot width exponent: a slot spans `2^slot_shift` ns. Wider slots
    /// trade per-push wheel precision for larger intra-slot batches —
    /// the right trade once µs-dense event storms (thousands of flows)
    /// put many events into every slot anyway. Pop order is exact
    /// `(time, seq)` at every width: the near heap re-sorts whatever a
    /// slot drains into it, so the shift is a pure performance knob.
    slot_shift: u32,
}

impl Wheel {
    fn new(slot_shift: u32) -> Self {
        Wheel {
            near: BinaryHeap::new(),
            cells: Vec::new(),
            free: NIL,
            heads: Box::new([NIL; WHEEL_SLOTS as usize]),
            occupied: [0; WHEEL_SLOTS as usize / 64],
            wheel_len: 0,
            overflow: BinaryHeap::new(),
            cur_slot: 0,
            slot_shift,
        }
    }

    #[inline]
    fn slot_of(&self, t: SimTime) -> u64 {
        t.as_nanos() >> self.slot_shift
    }

    fn push(&mut self, ev: Event) {
        let s = self.slot_of(ev.time);
        if s <= self.cur_slot {
            self.near.push(ev);
        } else if s < self.cur_slot + WHEEL_SLOTS {
            self.link((s % WHEEL_SLOTS) as usize, ev);
        } else {
            self.overflow.push(ev);
        }
    }

    /// Prepend `ev` to `bucket`'s list, reusing a vacant cell if any.
    fn link(&mut self, bucket: usize, ev: Event) {
        let cell = (Some(ev), self.heads[bucket]);
        if self.free == NIL {
            assert!(
                self.cells.len() < NIL as usize,
                "wheel arena outgrew its u32 links"
            );
            self.heads[bucket] = self.cells.len() as u32;
            self.cells.push(cell);
        } else {
            self.heads[bucket] = self.free;
            let vacant = &mut self.cells[self.free as usize];
            self.free = vacant.1;
            *vacant = cell;
        }
        self.occupied[bucket / 64] |= 1 << (bucket % 64);
        self.wheel_len += 1;
    }

    /// Move every event of `bucket` into `near`, freeing its cells.
    fn drain(&mut self, bucket: usize) {
        let mut at = std::mem::replace(&mut self.heads[bucket], NIL);
        while at != NIL {
            let cell = &mut self.cells[at as usize];
            self.near
                .push(cell.0.take().expect("linked wheel cell is vacant"));
            let next = std::mem::replace(&mut cell.1, self.free);
            self.free = at;
            self.wheel_len -= 1;
            at = next;
        }
        self.occupied[bucket / 64] &= !(1 << (bucket % 64));
    }

    /// The slot of the first non-empty bucket in cursor order. The
    /// cursor's own bucket is always empty, so the circular scan may start
    /// on it: whatever it finds lies 1..WHEEL_SLOTS slots ahead. Requires
    /// `wheel_len > 0`.
    fn next_occupied_slot(&self) -> u64 {
        let cur = self.cur_slot % WHEEL_SLOTS;
        let mut word = (cur / 64) as usize;
        let mut bits = self.occupied[word] & (!0 << (cur % 64));
        // The last round is the cursor's word again, unmasked: any bit
        // still set there lies below the cursor, almost a full turn ahead.
        for _ in 0..=self.occupied.len() {
            if bits != 0 {
                let bucket = word as u64 * 64 + bits.trailing_zeros() as u64;
                return self.cur_slot + (bucket + WHEEL_SLOTS - cur) % WHEEL_SLOTS;
            }
            word = (word + 1) % self.occupied.len();
            bits = self.occupied[word];
        }
        unreachable!("wheel_len > 0 but the occupancy bitmap is empty")
    }

    /// With `near` empty, move the cursor so that `near` holds the
    /// globally earliest event (or everything is empty): one jump to the
    /// next occupied bucket, or to the overflow head's slot when the wheel
    /// is empty.
    fn advance(&mut self) {
        if self.wheel_len == 0 {
            let Some(head) = self.overflow.peek() else {
                return;
            };
            self.cur_slot = self.slot_of(head.time);
        } else {
            self.cur_slot = self.next_occupied_slot();
            self.drain((self.cur_slot % WHEEL_SLOTS) as usize);
        }
        // The horizon moved: migrate overflow events that now fit.
        while let Some(head) = self.overflow.peek() {
            if self.slot_of(head.time) >= self.cur_slot + WHEEL_SLOTS {
                break;
            }
            let ev = self.overflow.pop().expect("peeked overflow vanished");
            self.push(ev);
        }
        debug_assert!(!self.near.is_empty(), "cursor advanced onto nothing");
    }
}

/// Queue implementation selector: the production wheel, or the original
/// comparison heap kept as a reference for ordering tests.
// One queue per simulator, and the large variant is the production one:
// boxing it would put a pointer chase on every queue operation.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum Backend {
    Wheel(Wheel),
    Naive(BinaryHeap<Event>),
}

impl Backend {
    #[inline]
    fn push(&mut self, ev: Event) {
        match self {
            Backend::Wheel(w) => w.push(ev),
            Backend::Naive(h) => h.push(ev),
        }
    }

    /// The earliest event, tombstones included; the wheel advances its
    /// cursor to expose it.
    #[inline]
    fn peek_min(&mut self) -> Option<&Event> {
        match self {
            Backend::Wheel(w) => {
                if w.near.is_empty() {
                    w.advance();
                }
                w.near.peek()
            }
            Backend::Naive(h) => h.peek(),
        }
    }

    /// Pop the event the preceding `peek_min` returned — no second cursor
    /// advance.
    #[inline]
    fn pop_peeked(&mut self) -> Event {
        match self {
            Backend::Wheel(w) => w.near.pop(),
            Backend::Naive(h) => h.pop(),
        }
        .expect("peeked event vanished")
    }
}

/// Time-ordered event queue with cancellation.
#[derive(Debug)]
pub struct EventQueue {
    backend: Backend,
    /// Tombstones: sequence numbers cancelled but not yet surfaced.
    cancelled: SeqSet,
    /// Live (non-cancelled) events currently queued.
    live: usize,
    next_seq: u64,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue {
    /// An empty queue at the default timer-wheel slot width
    /// ([`DEFAULT_SLOT_SHIFT`]).
    pub fn new() -> Self {
        Self::with_slot_shift(DEFAULT_SLOT_SHIFT)
    }

    /// A wheel-backed queue with a configured slot width of `2^shift` ns.
    /// Pop order is identical at every width (the near heap restores
    /// exact `(time, seq)` order within a drained slot); wider slots
    /// amortize cursor advances when µs-dense event storms put many
    /// events into every slot. `shift` must lie in [`SLOT_SHIFT_RANGE`].
    pub fn with_slot_shift(shift: u32) -> Self {
        assert!(
            SLOT_SHIFT_RANGE.contains(&shift),
            "slot shift {shift} outside supported range {SLOT_SHIFT_RANGE:?}"
        );
        EventQueue {
            backend: Backend::Wheel(Wheel::new(shift)),
            cancelled: SeqSet::default(),
            live: 0,
            next_seq: 0,
        }
    }

    /// The pre-wheel `BinaryHeap` implementation, kept as the ordering
    /// oracle for golden pop-order and property tests.
    pub fn new_reference() -> Self {
        EventQueue {
            backend: Backend::Naive(BinaryHeap::new()),
            cancelled: SeqSet::default(),
            live: 0,
            next_seq: 0,
        }
    }

    /// Schedule an event; the returned sequence number doubles as the
    /// handle for [`EventQueue::cancel`].
    pub fn push(&mut self, time: SimTime, node: NodeId, kind: EventKind) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.live += 1;
        self.backend.push(Event {
            time,
            node,
            kind,
            seq,
        });
        seq
    }

    /// Cancel a pending event by its sequence number. The caller must only
    /// cancel events that are still queued (the simulator's timer handles
    /// enforce this); cancelling is O(1) and the slot is reclaimed lazily.
    pub fn cancel(&mut self, seq: u64) {
        debug_assert!(seq < self.next_seq, "cancel of never-issued seq {seq}");
        if self.cancelled.insert(seq) {
            debug_assert!(self.live > 0, "cancel on empty queue");
            self.live = self.live.saturating_sub(1);
        }
    }

    /// Whether `seq` is tombstoned. The set is almost always empty (a
    /// sender keeps one lazily re-armed RTO timer), so the common case is
    /// a length check, not a hash probe.
    #[inline]
    fn is_cancelled(&self, seq: u64) -> bool {
        !self.cancelled.is_empty() && self.cancelled.contains(&seq)
    }

    /// Pop the head the preceding `peek_min` exposed; `None` if it was a
    /// tombstone, which is thereby skipped and forgotten.
    #[inline]
    fn take_peeked(&mut self) -> Option<Event> {
        let ev = self.backend.pop_peeked();
        if !self.cancelled.is_empty() && self.cancelled.remove(&ev.seq) {
            return None;
        }
        self.live -= 1;
        Some(ev)
    }

    /// Remove and return the earliest live event (time, then insertion
    /// order); cancelled tombstones are skipped.
    pub fn pop(&mut self) -> Option<Event> {
        loop {
            self.backend.peek_min()?;
            if let Some(ev) = self.take_peeked() {
                return Some(ev);
            }
        }
    }

    /// Pop the earliest event only if it fires at or before `deadline`.
    pub fn pop_before(&mut self, deadline: SimTime) -> Option<Event> {
        loop {
            if self.backend.peek_min()?.time > deadline {
                return None;
            }
            if let Some(ev) = self.take_peeked() {
                return Some(ev);
            }
        }
    }

    /// Pop the head event only if it is a `Deliver` firing at exactly
    /// `time` for `node`.
    ///
    /// The simulator uses this to coalesce an adjacent run of
    /// same-instant deliveries to one node into a single batched handler
    /// call ([`crate::node::Node::handle_batch`]). The check is
    /// restricted to `Deliver` events because delivers can never be
    /// tombstoned — only timers hand out cancellation handles — so an
    /// earlier handler in the batch cannot invalidate a later batch
    /// member, and batching stays order-equivalent to popping one event
    /// at a time.
    pub fn pop_if_deliver_matching(&mut self, time: SimTime, node: NodeId) -> Option<Event> {
        loop {
            let head = self.backend.peek_min()?;
            let wanted = head.time == time
                && head.node == node
                && matches!(head.kind, EventKind::Deliver(_));
            let seq = head.seq;
            // A tombstoned head is skipped whatever it is.
            if !wanted && !self.is_cancelled(seq) {
                return None;
            }
            if let Some(ev) = self.take_peeked() {
                return Some(ev);
            }
        }
    }

    /// Earliest pending event time. Takes `&mut self`: the wheel advances
    /// its cursor and discards tombstones to find the head.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        loop {
            let head = self.backend.peek_min()?;
            let (time, seq) = (head.time, head.seq);
            if !self.is_cancelled(seq) {
                return Some(time);
            }
            self.take_peeked();
        }
    }

    /// Live (not-cancelled) events still queued.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Tier occupancy `(near, wheel slots, overflow)`, tombstones
    /// included — a raw structural snapshot for the event-loop profiler.
    /// The reference heap reports everything as `near`.
    pub fn occupancy(&self) -> (usize, usize, usize) {
        match &self.backend {
            Backend::Wheel(w) => (w.near.len(), w.wheel_len, w.overflow.len()),
            Backend::Naive(h) => (h.len(), 0, 0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn drain_tokens(q: &mut EventQueue) -> Vec<u64> {
        std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Timer(x) => x,
                _ => unreachable!(),
            })
            .collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(30), NodeId(0), EventKind::Timer(3));
        q.push(t(10), NodeId(0), EventKind::Timer(1));
        q.push(t(20), NodeId(0), EventKind::Timer(2));
        assert_eq!(drain_tokens(&mut q), vec![1, 2, 3]);
    }

    #[test]
    fn equal_times_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100u64 {
            q.push(t(5), NodeId(0), EventKind::Timer(i));
        }
        for i in 0..100u64 {
            match q.pop().unwrap().kind {
                EventKind::Timer(x) => assert_eq!(x, i),
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn peek_time_sees_earliest() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(t(42), NodeId(1), EventKind::Timer(0));
        q.push(t(7), NodeId(1), EventKind::Timer(0));
        assert_eq!(q.peek_time(), Some(t(7)));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn far_future_events_route_through_overflow() {
        let mut q = EventQueue::new();
        // seconds apart — far beyond the wheel horizon
        q.push(t(5_000), NodeId(0), EventKind::Timer(2));
        q.push(t(1), NodeId(0), EventKind::Timer(0));
        q.push(t(900), NodeId(0), EventKind::Timer(1));
        q.push(t(60_000), NodeId(0), EventKind::Timer(3));
        assert_eq!(drain_tokens(&mut q), vec![0, 1, 2, 3]);
    }

    #[test]
    fn cancel_removes_event_and_len() {
        let mut q = EventQueue::new();
        let a = q.push(t(10), NodeId(0), EventKind::Timer(1));
        let b = q.push(t(20), NodeId(0), EventKind::Timer(2));
        q.push(t(30), NodeId(0), EventKind::Timer(3));
        assert_eq!(q.len(), 3);
        q.cancel(a);
        q.cancel(b);
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(t(30)));
        assert_eq!(drain_tokens(&mut q), vec![3]);
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_everything_empties_queue() {
        let mut q = EventQueue::new();
        let seqs: Vec<u64> = (0..10)
            .map(|i| q.push(t(i * 7), NodeId(0), EventKind::Timer(i)))
            .collect();
        for s in seqs {
            q.cancel(s);
        }
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        assert!(q.pop().is_none());
    }

    #[test]
    fn interleaved_pop_push_preserves_order() {
        let mut q = EventQueue::new();
        q.push(t(10), NodeId(0), EventKind::Timer(0));
        q.push(t(200), NodeId(0), EventKind::Timer(2));
        assert_eq!(q.pop().unwrap().time, t(10));
        // push between the cursor and the queued far event
        q.push(t(50), NodeId(0), EventKind::Timer(1));
        assert_eq!(q.pop().unwrap().time, t(50));
        assert_eq!(q.pop().unwrap().time, t(200));
    }

    impl Wheel {
        /// The structural invariants behind the bitmap skip and the
        /// arena: bit set ⇔ bucket list non-empty, `wheel_len` = Σ list
        /// lengths, lists and free list partition the arena, and every
        /// event sits in the tier (and bucket) its slot says it should.
        fn check_invariants(&self) {
            let mut seen = vec![false; self.cells.len()];
            let mut visit = |at: u32| {
                assert!(
                    !std::mem::replace(&mut seen[at as usize], true),
                    "cell {at} is on two lists"
                );
            };
            let mut linked = 0;
            for (b, &head) in self.heads.iter().enumerate() {
                let (mut at, mut n) = (head, 0);
                while at != NIL {
                    visit(at);
                    let (ev, next) = &self.cells[at as usize];
                    let s = self.slot_of(ev.as_ref().expect("linked cell is vacant").time);
                    assert_eq!((s % WHEEL_SLOTS) as usize, b, "event in the wrong bucket");
                    assert!(self.cur_slot < s && s < self.cur_slot + WHEEL_SLOTS);
                    n += 1;
                    at = *next;
                }
                let bit = self.occupied[b / 64] >> (b % 64) & 1;
                assert_eq!(bit == 1, n > 0, "bitmap bit {b} disagrees with its list");
                linked += n;
            }
            assert_eq!(self.wheel_len, linked);
            let mut at = self.free;
            while at != NIL {
                visit(at);
                assert!(
                    self.cells[at as usize].0.is_none(),
                    "free cell holds an event"
                );
                at = self.cells[at as usize].1;
            }
            assert!(seen.iter().all(|&v| v), "arena cell on no list");
            assert!(self
                .near
                .iter()
                .all(|e| self.slot_of(e.time) <= self.cur_slot));
            assert!(self
                .overflow
                .iter()
                .all(|e| self.slot_of(e.time) >= self.cur_slot + WHEEL_SLOTS));
        }
    }

    /// Wheel ≡ reference heap under the operations the run loop really
    /// issues, interleaved from a seeded generator: pushes at or after the
    /// clock (same slot, in-wheel, 0.1–5 s gaps that send the cursor
    /// through many wheel turns, and the exact horizon-boundary slots),
    /// `cancel`, `pop_before` with deadlines that often fall before the
    /// head, the batch probe `pop_if_deliver_matching`, `pop` and
    /// `peek_time`. The queue is kept sparse so it drains and jumps often.
    /// Every result, `len()` and the wheel's invariants are checked after
    /// every operation, at every slot width.
    #[test]
    fn wheel_matches_reference_under_loop_operations_at_every_shift() {
        let key = |e: Option<Event>| e.map(|e| (e.time, e.seq));
        for shift in [10u32, 16, 20, 26] {
            for seed in 0..8u64 {
                let mut x = 0x9E37_79B9_7F4A_7C15 ^ (seed << 32 | shift as u64);
                let mut next = move || {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    x >> 16
                };
                let mut wheel = EventQueue::with_slot_shift(shift);
                let mut naive = EventQueue::new_reference();
                let mut timers: Vec<u64> = Vec::new();
                let (mut now, mut last_node) = (SimTime::ZERO, NodeId(0));
                for _ in 0..4_000 {
                    let r = next();
                    // A full-enough queue gets no pushes: it stays sparse.
                    match if wheel.len() < 6 { r % 16 } else { 6 + r % 10 } {
                        0..=5 => {
                            let Backend::Wheel(w) = &wheel.backend else {
                                unreachable!()
                            };
                            let slot_ns = 1u64 << shift;
                            let ns = match next() % 9 {
                                0 | 1 => now.as_nanos() + next() % slot_ns,
                                2 | 3 => now.as_nanos() + next() % (1023 * slot_ns),
                                4 => now.as_nanos() + 100_000_000 + next() % 4_900_000_000,
                                5 => now.as_nanos(),
                                // the last wheel slot and the first two beyond it
                                k => ((w.cur_slot + 1017 + k) << shift) + next() % slot_ns,
                            };
                            let time = SimTime::from_nanos(ns.max(now.as_nanos()));
                            let node = NodeId((next() % 3) as u32);
                            let deliver = next() % 2 == 0;
                            let kind = || match deliver {
                                true => EventKind::Deliver(crate::queue::test_packet(0, 100)),
                                false => EventKind::Timer(r),
                            };
                            let seq = wheel.push(time, node, kind());
                            assert_eq!(seq, naive.push(time, node, kind()));
                            if !deliver {
                                timers.push(seq);
                            }
                        }
                        6 if !timers.is_empty() => {
                            let victim = timers.swap_remove(next() as usize % timers.len());
                            wheel.cancel(victim);
                            naive.cancel(victim);
                        }
                        7..=10 => {
                            let reach = [1_000, 1_000_000, 100_000_000, 10_000_000_000];
                            let deadline = SimTime::from_nanos(
                                now.as_nanos() + next() % reach[next() as usize % 4],
                            );
                            let got = wheel.pop_before(deadline);
                            if let Some(e) = &got {
                                assert!(e.time >= now && e.time <= deadline);
                                (now, last_node) = (e.time, e.node);
                                timers.retain(|&s| s != e.seq);
                            }
                            assert_eq!(key(got), key(naive.pop_before(deadline)));
                        }
                        11..=13 => {
                            let got = wheel.pop_if_deliver_matching(now, last_node);
                            assert_eq!(
                                key(got),
                                key(naive.pop_if_deliver_matching(now, last_node))
                            );
                        }
                        14 => {
                            let got = wheel.pop();
                            if let Some(e) = &got {
                                (now, last_node) = (e.time, e.node);
                                timers.retain(|&s| s != e.seq);
                            }
                            assert_eq!(key(got), key(naive.pop()));
                        }
                        _ => assert_eq!(wheel.peek_time(), naive.peek_time()),
                    }
                    assert_eq!(wheel.len(), naive.len());
                    let Backend::Wheel(w) = &wheel.backend else {
                        unreachable!()
                    };
                    w.check_invariants();
                }
                while let Some(e) = wheel.pop() {
                    assert_eq!(key(Some(e)), key(naive.pop()));
                }
                assert!(naive.pop().is_none() && wheel.is_empty());
            }
        }
    }

    #[test]
    fn pop_if_deliver_matching_takes_only_adjacent_deliveries() {
        let mut q = EventQueue::new();
        let pkt = || EventKind::Deliver(crate::queue::test_packet(0, 100));
        q.push(t(10), NodeId(2), pkt());
        q.push(t(10), NodeId(2), pkt());
        q.push(t(10), NodeId(2), EventKind::Timer(7));
        q.push(t(10), NodeId(3), pkt());
        // no head yet at a different coordinate
        assert!(q.pop_if_deliver_matching(t(10), NodeId(3)).is_none());
        let first = q.pop().unwrap();
        assert_eq!(first.node, NodeId(2));
        // second same-instant delivery to the same node batches…
        assert!(q.pop_if_deliver_matching(t(10), NodeId(2)).is_some());
        // …but the timer stops the batch even at the same (time, node)
        assert!(q.pop_if_deliver_matching(t(10), NodeId(2)).is_none());
        assert!(matches!(q.pop().unwrap().kind, EventKind::Timer(7)));
        assert_eq!(q.pop().unwrap().node, NodeId(3));
    }

    #[test]
    fn wheel_matches_reference_on_dense_schedule() {
        // deterministic LCG: a mix of near, mid, and far times with ties
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        let mut times = Vec::new();
        for i in 0..5_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let ns = match i % 5 {
                0 => x % 1_000,          // sub-µs ties
                1 => x % 1_000_000,      // same-slot
                2 => x % 100_000_000,    // in-wheel
                _ => x % 10_000_000_000, // overflow
            };
            times.push(ns);
        }
        // The slot width is a pure performance knob: every shift must
        // reproduce the reference heap's exact (time, seq) pop order.
        for shift in [10u32, 16, 20, 26] {
            let mut wheel = EventQueue::with_slot_shift(shift);
            let mut naive = EventQueue::new_reference();
            for (i, &ns) in times.iter().enumerate() {
                let tm = SimTime::from_nanos(ns);
                wheel.push(tm, NodeId(0), EventKind::Timer(i as u64));
                naive.push(tm, NodeId(0), EventKind::Timer(i as u64));
            }
            loop {
                match (wheel.pop(), naive.pop()) {
                    (Some(a), Some(b)) => {
                        assert_eq!((a.time, a.seq), (b.time, b.seq), "shift {shift}")
                    }
                    (None, None) => break,
                    _ => panic!("shift {shift}: queues drained at different lengths"),
                }
            }
        }
    }
}
