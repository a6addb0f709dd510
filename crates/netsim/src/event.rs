//! The event queue: a hierarchical timer-wheel / calendar queue with a
//! far-future overflow heap, deterministic `(time, seq)` pop order, and
//! O(1) cancellation.
//!
//! **Cells and keys.** [`EventQueue::push`] writes each event's payload —
//! time, sequence number, node, kind — into one cell of a slab, exactly
//! once. The tiers below never move a payload: they hold or link only a
//! 24-byte key `(time, seq, cell)`, ordered by `(time, seq)`. A pop
//! takes the payload out of its cell once and puts the cell on the slab's
//! free list, which the next push reuses first, so the slab stays as large
//! as the most events ever pending at once.
//!
//! Three tiers by distance from the cursor:
//!
//! * **near** — a small binary heap of keys for every event whose slot is
//!   at or before the cursor slot. Pops come from here, so intra-slot
//!   ordering is exact `(time, seq)` — bit-identical to a global
//!   comparison heap.
//! * **wheel** — `WHEEL_SLOTS` unsorted buckets of `2^SLOT_SHIFT` ns
//!   (≈ 65.5 µs each) covering the next ~67 ms. Every bucket is a singly
//!   linked list threaded through the slab cells' `next` links, so a
//!   sparse simulation's whole queue is a few KB, not 1024 separate
//!   buffers.
//!   Order inside a bucket is whatever linking produced: a bucket is only
//!   ever drained whole into `near`, which re-sorts by the strict
//!   `(time, seq)` order, so intra-slot order costs nothing to ignore.
//! * **overflow** — a heap of keys for events beyond the wheel horizon (RTO
//!   timers, long trace gaps); linked into the wheel as the cursor
//!   advances.
//!
//! An occupancy bitmap (one bit per bucket) lets the cursor jump straight
//! to the next non-empty bucket with `trailing_zeros`: it never visits an
//! empty slot. Jumping ends in the same state as stepping would, because
//! every overflow event sits at least a full wheel turn past the cursor and
//! so can only migrate into buckets beyond the one jumped to.
//!
//! **Cancellation** goes through the slab. [`EventQueue::push`] returns an
//! [`EventHandle`] `{ seq, cell }`; [`EventQueue::cancel`] clears the
//! cell's payload only while the cell still holds that `seq`, so a stale
//! handle — its event fired and its cell reused — is a no-op. A cleared
//! cell's key stays in its tier and is skipped (its cell freed) when it
//! surfaces. `len()` counts only cells that still hold a payload, so a
//! fully-cancelled queue is empty.
//!
//! The tests hold the queue to an independent oracle: an ordered map from
//! `(time, seq)` to each event, which shares no slab, cancel or release
//! code with the wheel.

use crate::packet::{NodeId, Packet};
use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// What a node is asked to do when its event fires.
#[derive(Debug)]
pub enum EventKind {
    /// A packet arrives at the node (propagation already elapsed). Boxed so
    /// a cell holds 8 bytes, not the whole packet; the box itself is pooled
    /// by the simulator and reused across hops.
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
    /// The event's scheduling sequence number.
    pub fn seq(&self) -> u64 {
        self.seq
    }
}

/// Handle to a pushed event: its sequence number and its slab cell.
/// Returned by [`EventQueue::push`], taken by [`EventQueue::cancel`].
/// Cancelling through a handle whose event already fired does nothing:
/// the cell may have been reused, but never under the same `seq`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventHandle {
    seq: u64,
    cell: u32,
}

impl EventHandle {
    /// The event's scheduling sequence number (the `seq` of the
    /// [`Event`] that `pop` returns for it).
    pub fn seq(self) -> u64 {
        self.seq
    }
}

/// One slab cell: a pending event's payload, written once by `push`.
#[derive(Debug)]
struct Cell {
    time: SimTime,
    seq: u64,
    node: NodeId,
    /// The next cell of the same wheel bucket while linked, of the free
    /// list while vacant; [`NIL`] ends either list.
    next: u32,
    /// `None` once the event is cancelled or popped.
    kind: Option<EventKind>,
}

/// What the tiers order: an event's `(time, seq)` and where its payload
/// lives. Ordered by `(time, seq)` alone; that pair is unique per event,
/// so the derived equality agrees with the order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Key {
    time: SimTime,
    seq: u64,
    cell: u32,
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so earliest (then first-scheduled)
        // pops first. One 128-bit compare of `(time, seq)`, not two
        // branches.
        let rank = |k: &Key| (k.time.as_nanos() as u128) << 64 | k.seq as u128;
        rank(other).cmp(&rank(self))
    }
}

/// Slot width exponent: 2^16 ns ≈ 65.5 µs — near the densest inter-event
/// gap the pacing clocks produce, so a slot rarely holds more than a
/// handful of events and the near heap stays tiny. On a 1000-flow ABC
/// point (96 Mbit/s, 30 s, 2-vCPU Xeon VM) a run took 0.093 s here, and
/// 0.133, 0.102 and 0.113 s at 2^12, 2^20 and 2^24 ns slots.
const SLOT_SHIFT: u32 = 16;
/// Wheel span: 1024 slots (≈ 67 ms) — longer than any propagation or
/// serialization delay in the evaluated scenarios, so only RTO-scale
/// timers ever touch the overflow heap.
const WHEEL_SLOTS: u64 = 1024;

/// End-of-list / empty-list marker for cell links.
const NIL: u32 = u32::MAX;

/// The timer wheel's three tiers of keys.
#[derive(Debug)]
struct Wheel {
    near: BinaryHeap<Key>,
    /// Per-bucket list head into the slab.
    heads: Box<[u32; WHEEL_SLOTS as usize]>,
    /// Bit `b` set ⇔ bucket `b` is non-empty.
    occupied: [u64; WHEEL_SLOTS as usize / 64],
    /// Events currently linked into the buckets.
    wheel_len: usize,
    overflow: BinaryHeap<Key>,
    /// All events with `slot <= cur_slot` live in `near`; slots in
    /// `(cur_slot, cur_slot + WHEEL_SLOTS)` map to bucket `slot % WHEEL_SLOTS`
    /// (so the cursor's own bucket is always empty); later ones wait in
    /// `overflow`.
    cur_slot: u64,
}

/// The slot `t` falls in.
#[inline]
fn slot_of(t: SimTime) -> u64 {
    t.as_nanos() >> SLOT_SHIFT
}

impl Wheel {
    fn new() -> Self {
        Wheel {
            near: BinaryHeap::new(),
            heads: Box::new([NIL; WHEEL_SLOTS as usize]),
            occupied: [0; WHEEL_SLOTS as usize / 64],
            wheel_len: 0,
            overflow: BinaryHeap::new(),
            cur_slot: 0,
        }
    }

    fn push(&mut self, key: Key, cells: &mut [Cell]) {
        let s = slot_of(key.time);
        if s <= self.cur_slot {
            self.near.push(key);
        } else if s < self.cur_slot + WHEEL_SLOTS {
            // Prepend the cell to its bucket's list.
            let bucket = (s % WHEEL_SLOTS) as usize;
            cells[key.cell as usize].next = self.heads[bucket];
            self.heads[bucket] = key.cell;
            self.occupied[bucket / 64] |= 1 << (bucket % 64);
            self.wheel_len += 1;
        } else {
            self.overflow.push(key);
        }
    }

    /// Move the key of every cell linked into `bucket` into `near`.
    fn drain(&mut self, bucket: usize, cells: &[Cell]) {
        let mut at = std::mem::replace(&mut self.heads[bucket], NIL);
        while at != NIL {
            let cell = &cells[at as usize];
            self.near.push(Key {
                time: cell.time,
                seq: cell.seq,
                cell: at,
            });
            self.wheel_len -= 1;
            at = cell.next;
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
    /// globally earliest key (or everything is empty): one jump to the
    /// next occupied bucket, or to the overflow head's slot when the wheel
    /// is empty.
    fn advance(&mut self, cells: &mut [Cell]) {
        if self.wheel_len == 0 {
            let Some(head) = self.overflow.peek() else {
                return;
            };
            self.cur_slot = slot_of(head.time);
        } else {
            self.cur_slot = self.next_occupied_slot();
            self.drain((self.cur_slot % WHEEL_SLOTS) as usize, cells);
        }
        // The horizon moved: migrate overflow keys that now fit.
        while let Some(&head) = self.overflow.peek() {
            if slot_of(head.time) >= self.cur_slot + WHEEL_SLOTS {
                break;
            }
            self.overflow.pop();
            self.push(head, cells);
        }
        debug_assert!(!self.near.is_empty(), "cursor advanced onto nothing");
    }

    /// The earliest key, cancelled ones included, advancing the cursor to
    /// expose it.
    #[inline]
    fn peek_min(&mut self, cells: &mut [Cell]) -> Option<Key> {
        if self.near.is_empty() {
            self.advance(cells);
        }
        self.near.peek().copied()
    }

    /// Drop the key the preceding `peek_min` returned — no second cursor
    /// advance.
    #[inline]
    fn pop_peeked(&mut self) {
        self.near.pop().expect("peeked key vanished");
    }
}

/// Time-ordered event queue with cancellation.
#[derive(Debug)]
pub struct EventQueue {
    wheel: Wheel,
    /// The slab every pending event's payload lives in.
    cells: Vec<Cell>,
    /// Head of the vacant-cell list.
    free: u32,
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
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            wheel: Wheel::new(),
            cells: Vec::new(),
            free: NIL,
            live: 0,
            next_seq: 0,
        }
    }

    /// Schedule an event; the returned handle cancels it through
    /// [`EventQueue::cancel`].
    pub fn push(&mut self, time: SimTime, node: NodeId, kind: EventKind) -> EventHandle {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.live += 1;
        let payload = Cell {
            time,
            seq,
            node,
            next: NIL,
            kind: Some(kind),
        };
        let cell = if self.free == NIL {
            assert!(
                self.cells.len() < NIL as usize,
                "event slab outgrew its u32 links"
            );
            self.cells.push(payload);
            self.cells.len() as u32 - 1
        } else {
            let at = self.free;
            let vacant = &mut self.cells[at as usize];
            self.free = vacant.next;
            *vacant = payload;
            at
        };
        self.wheel.push(Key { time, seq, cell }, &mut self.cells);
        EventHandle { seq, cell }
    }

    /// Cancel a pending event. O(1): the payload is dropped now, its key
    /// is skipped when it surfaces. A handle whose event already fired
    /// (or was already cancelled) cancels nothing.
    pub fn cancel(&mut self, handle: EventHandle) {
        debug_assert!(
            handle.seq < self.next_seq,
            "cancel of never-issued {handle:?}"
        );
        let cell = &mut self.cells[handle.cell as usize];
        if cell.seq == handle.seq && cell.kind.take().is_some() {
            self.live -= 1;
        }
    }

    /// Put the cell of the key just dropped from its tier on the free
    /// list, returning its payload — `None` for a cancelled event.
    #[inline]
    fn release(&mut self, key: Key) -> Option<Event> {
        let cell = &mut self.cells[key.cell as usize];
        let kind = cell.kind.take();
        let node = cell.node;
        cell.next = self.free;
        self.free = key.cell;
        let kind = kind?;
        self.live -= 1;
        Some(Event {
            time: key.time,
            node,
            kind,
            seq: key.seq,
        })
    }

    /// Remove and return the earliest live event (time, then insertion
    /// order); cancelled keys are skipped.
    pub fn pop(&mut self) -> Option<Event> {
        loop {
            let key = self.wheel.peek_min(&mut self.cells)?;
            self.wheel.pop_peeked();
            if let Some(ev) = self.release(key) {
                return Some(ev);
            }
        }
    }

    /// Pop the earliest event only if it fires at or before `deadline`.
    pub fn pop_before(&mut self, deadline: SimTime) -> Option<Event> {
        loop {
            let key = self.wheel.peek_min(&mut self.cells)?;
            if key.time > deadline {
                return None;
            }
            self.wheel.pop_peeked();
            if let Some(ev) = self.release(key) {
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
    /// restricted to `Deliver` events because delivers are never
    /// cancelled — only timers hand their handles to nodes — so an
    /// earlier handler in the batch cannot invalidate a later batch
    /// member, and batching stays order-equivalent to popping one event
    /// at a time.
    pub fn pop_if_deliver_matching(&mut self, time: SimTime, node: NodeId) -> Option<Event> {
        loop {
            let key = self.wheel.peek_min(&mut self.cells)?;
            let cell = &self.cells[key.cell as usize];
            match cell.kind {
                // A cancelled head is skipped whatever it was.
                None => {}
                Some(EventKind::Deliver(_)) if key.time == time && cell.node == node => {}
                Some(_) => return None,
            }
            self.wheel.pop_peeked();
            if let Some(ev) = self.release(key) {
                return Some(ev);
            }
        }
    }

    /// Earliest pending event time. Takes `&mut self`: the wheel advances
    /// its cursor and discards cancelled keys to find the head.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        loop {
            let key = self.wheel.peek_min(&mut self.cells)?;
            if self.cells[key.cell as usize].kind.is_some() {
                return Some(key.time);
            }
            self.wheel.pop_peeked();
            self.release(key);
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

    /// Tier occupancy `(near, wheel slots, overflow)` in keys, cancelled
    /// ones included — a raw structural snapshot for the event-loop
    /// profiler.
    pub fn occupancy(&self) -> (usize, usize, usize) {
        let w = &self.wheel;
        (w.near.len(), w.wheel_len, w.overflow.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

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
        let handles: Vec<EventHandle> = (0..10)
            .map(|i| q.push(t(i * 7), NodeId(0), EventKind::Timer(i)))
            .collect();
        for h in handles {
            q.cancel(h);
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

    /// The independent oracle: every pending event in one ordered map.
    /// It shares no slab, cancel handle or release path with the queue
    /// under test, so a bug in that code cannot hide by being on both
    /// sides of the comparison.
    #[derive(Default)]
    struct Oracle {
        /// `(time, seq) → (node, is_deliver)` of every pending event.
        pending: BTreeMap<(SimTime, u64), (NodeId, bool)>,
        /// `seq → time` of every pending event, for cancels.
        times: BTreeMap<u64, SimTime>,
        next_seq: u64,
    }

    /// What both sides report of a popped event.
    type Popped = Option<(SimTime, u64, NodeId, bool)>;

    fn popped(e: Option<Event>) -> Popped {
        e.map(|e| {
            let deliver = matches!(e.kind, EventKind::Deliver(_));
            (e.time, e.seq, e.node, deliver)
        })
    }

    impl Oracle {
        fn push(&mut self, time: SimTime, node: NodeId, deliver: bool) -> u64 {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.pending.insert((time, seq), (node, deliver));
            self.times.insert(seq, time);
            seq
        }

        /// Cancelling a fired or cancelled event does nothing.
        fn cancel(&mut self, seq: u64) {
            if let Some(time) = self.times.remove(&seq) {
                self.pending.remove(&(time, seq));
            }
        }

        /// Pop the earliest event if `take(time, node, is_deliver)` holds.
        fn pop_where(&mut self, take: impl FnOnce(SimTime, NodeId, bool) -> bool) -> Popped {
            let (&(time, seq), &(node, deliver)) = self.pending.first_key_value()?;
            if !take(time, node, deliver) {
                return None;
            }
            self.pending.pop_first();
            self.times.remove(&seq);
            Some((time, seq, node, deliver))
        }

        fn pop(&mut self) -> Popped {
            self.pop_where(|_, _, _| true)
        }

        fn pop_before(&mut self, deadline: SimTime) -> Popped {
            self.pop_where(|time, _, _| time <= deadline)
        }

        fn pop_if_deliver_matching(&mut self, at: SimTime, to: NodeId) -> Popped {
            self.pop_where(|time, node, deliver| deliver && time == at && node == to)
        }

        fn peek_time(&self) -> Option<SimTime> {
            self.pending.first_key_value().map(|(&(time, _), _)| time)
        }

        fn len(&self) -> usize {
            self.pending.len()
        }
    }

    /// Pop both sides to the end, event for event.
    fn drain_both(q: &mut EventQueue, oracle: &mut Oracle) {
        loop {
            let (got, want) = (popped(q.pop()), oracle.pop());
            assert_eq!(got, want);
            if got.is_none() {
                return;
            }
        }
    }

    impl EventQueue {
        /// The slab's and the tiers' structural invariants: every occupied
        /// cell is referenced by exactly one key (in `near`, a bucket or
        /// `overflow`) carrying its `(time, seq)`, the free list is
        /// disjoint from the referenced cells and together they cover the
        /// slab, `live` counts the referenced cells still holding a
        /// payload, bit set ⇔ bucket list non-empty, `wheel_len` = Σ list
        /// lengths, and every key sits in the tier (and bucket) its slot
        /// says it should.
        fn check_invariants(&self) {
            let mut seen = vec![false; self.cells.len()];
            let mut live = 0;
            let mut refer = |at: u32, what: &str| {
                assert!(
                    !std::mem::replace(&mut seen[at as usize], true),
                    "cell {at} referenced twice (second time from {what})"
                );
                live += self.cells[at as usize].kind.is_some() as usize;
            };
            let mut refer_key = |k: &Key, what: &str| {
                let cell = &self.cells[k.cell as usize];
                assert_eq!(
                    (cell.time, cell.seq),
                    (k.time, k.seq),
                    "{what} key ≠ its cell"
                );
                refer(k.cell, what);
            };
            let w = &self.wheel;
            for k in &w.near {
                refer_key(k, "near");
                assert!(slot_of(k.time) <= w.cur_slot, "near key beyond the cursor");
            }
            for k in &w.overflow {
                refer_key(k, "overflow");
                assert!(
                    slot_of(k.time) >= w.cur_slot + WHEEL_SLOTS,
                    "overflow key within the horizon"
                );
            }
            let mut linked = 0;
            for (b, &head) in w.heads.iter().enumerate() {
                let (mut at, mut n) = (head, 0);
                while at != NIL {
                    refer(at, "bucket");
                    let cell = &self.cells[at as usize];
                    let s = slot_of(cell.time);
                    assert_eq!((s % WHEEL_SLOTS) as usize, b, "event in the wrong bucket");
                    assert!(w.cur_slot < s && s < w.cur_slot + WHEEL_SLOTS);
                    n += 1;
                    at = cell.next;
                }
                let bit = w.occupied[b / 64] >> (b % 64) & 1;
                assert_eq!(bit == 1, n > 0, "bitmap bit {b} disagrees with its list");
                linked += n;
            }
            assert_eq!(w.wheel_len, linked);
            assert_eq!(self.live, live, "live disagrees with the occupied cells");
            let mut at = self.free;
            while at != NIL {
                assert!(
                    !std::mem::replace(&mut seen[at as usize], true),
                    "free cell {at} referenced"
                );
                let cell = &self.cells[at as usize];
                assert!(cell.kind.is_none(), "free cell holds an event");
                at = cell.next;
            }
            assert!(
                seen.iter().all(|&v| v),
                "slab cell neither referenced nor free"
            );
        }
    }

    #[test]
    fn stale_handle_to_a_reused_cell_cancels_nothing() {
        let mut q = EventQueue::new();
        let fired = q.push(t(1), NodeId(0), EventKind::Timer(1));
        assert_eq!(q.pop().unwrap().seq(), fired.seq());
        // The fired timer's cell is the only vacant one: reused here.
        let next = q.push(t(2), NodeId(0), EventKind::Timer(2));
        assert_eq!((next.cell, q.cells.len()), (fired.cell, 1));
        q.cancel(fired);
        assert_eq!(q.len(), 1);
        q.check_invariants();
        // Cancelling twice is as harmless as cancelling after firing.
        q.cancel(next);
        q.cancel(next);
        assert!(q.is_empty());
        q.check_invariants();
        let last = q.push(t(3), NodeId(0), EventKind::Timer(3));
        q.cancel(next);
        assert_eq!(drain_tokens(&mut q), vec![3]);
        q.cancel(last);
        assert!(q.is_empty() && q.pop().is_none());
        q.check_invariants();
    }

    /// Queue ≡ oracle under the operations the run loop really issues,
    /// interleaved from a seeded generator: pushes at or after the clock
    /// (same slot, in-wheel, 0.1–5 s gaps that send the cursor through
    /// many wheel turns, and the exact horizon-boundary slots), `cancel`
    /// (of pending timers, and of handles whose timer already fired or was
    /// cancelled, whose cells are often reused by then), `pop_before` with
    /// deadlines that often fall before the head, the batch probe
    /// `pop_if_deliver_matching`, `pop` and `peek_time`. The queue is kept
    /// sparse so it drains and jumps often. Every result, every handle's
    /// `seq`, `len()` and the queue's invariants are checked after every
    /// operation.
    #[test]
    fn wheel_matches_reference_under_loop_operations() {
        for seed in 0..32u64 {
            let mut x = 0x9E37_79B9_7F4A_7C15 ^ seed << 32;
            let mut next = move || {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                x >> 16
            };
            let mut q = EventQueue::new();
            let mut oracle = Oracle::default();
            // Handles of pending timers, and of fired or cancelled ones.
            let (mut timers, mut dead) = (Vec::new(), Vec::new());
            let retire = |timers: &mut Vec<EventHandle>, dead: &mut Vec<_>, seq: u64| {
                if let Some(i) = timers.iter().position(|h| h.seq() == seq) {
                    dead.push(timers.swap_remove(i));
                }
            };
            let (mut now, mut last_node) = (SimTime::ZERO, NodeId(0));
            for _ in 0..4_000 {
                let r = next();
                // A full-enough queue gets no pushes: it stays sparse.
                match if q.len() < 6 { r % 16 } else { 6 + r % 10 } {
                    0..=5 => {
                        let slot_ns = 1u64 << SLOT_SHIFT;
                        let ns = match next() % 9 {
                            0 | 1 => now.as_nanos() + next() % slot_ns,
                            2 | 3 => now.as_nanos() + next() % (1023 * slot_ns),
                            4 => now.as_nanos() + 100_000_000 + next() % 4_900_000_000,
                            5 => now.as_nanos(),
                            // the last wheel slot and the first two beyond it
                            k => ((q.wheel.cur_slot + 1017 + k) << SLOT_SHIFT) + next() % slot_ns,
                        };
                        let time = SimTime::from_nanos(ns.max(now.as_nanos()));
                        let node = NodeId((next() % 3) as u32);
                        let deliver = next() % 2 == 0;
                        let kind = match deliver {
                            true => EventKind::Deliver(crate::queue::test_packet(0, 100)),
                            false => EventKind::Timer(r),
                        };
                        let handle = q.push(time, node, kind);
                        assert_eq!(handle.seq(), oracle.push(time, node, deliver));
                        if !deliver {
                            timers.push(handle);
                        }
                    }
                    6 if !dead.is_empty() && next() % 4 == 0 => {
                        let stale = dead[next() as usize % dead.len()];
                        q.cancel(stale);
                        oracle.cancel(stale.seq());
                    }
                    6 if !timers.is_empty() => {
                        let victim = timers.swap_remove(next() as usize % timers.len());
                        q.cancel(victim);
                        oracle.cancel(victim.seq());
                        dead.push(victim);
                    }
                    7..=10 => {
                        let reach = [1_000, 1_000_000, 100_000_000, 10_000_000_000];
                        let deadline = SimTime::from_nanos(
                            now.as_nanos() + next() % reach[next() as usize % 4],
                        );
                        let got = popped(q.pop_before(deadline));
                        if let Some((time, seq, node, _)) = got {
                            assert!(time >= now && time <= deadline);
                            (now, last_node) = (time, node);
                            retire(&mut timers, &mut dead, seq);
                        }
                        assert_eq!(got, oracle.pop_before(deadline));
                    }
                    11..=13 => {
                        let got = popped(q.pop_if_deliver_matching(now, last_node));
                        assert_eq!(got, oracle.pop_if_deliver_matching(now, last_node));
                    }
                    14 => {
                        let got = popped(q.pop());
                        if let Some((time, seq, node, _)) = got {
                            (now, last_node) = (time, node);
                            retire(&mut timers, &mut dead, seq);
                        }
                        assert_eq!(got, oracle.pop());
                    }
                    _ => assert_eq!(q.peek_time(), oracle.peek_time()),
                }
                assert_eq!(q.len(), oracle.len());
                q.check_invariants();
            }
            drain_both(&mut q, &mut oracle);
            assert!(q.is_empty());
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
        let mut q = EventQueue::new();
        let mut oracle = Oracle::default();
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
            let time = SimTime::from_nanos(ns);
            q.push(time, NodeId(0), EventKind::Timer(i));
            oracle.push(time, NodeId(0), false);
        }
        drain_both(&mut q, &mut oracle);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Arbitrary push/cancel/pop interleavings over near, mid and
        /// far-future times: the queue must agree with the oracle event
        /// for event.
        #[test]
        fn wheel_matches_reference_under_push_cancel_pop(
            ops in proptest::collection::vec((0u8..10, 0u64..20_000_000_000), 1..400),
        ) {
            let mut q = EventQueue::new();
            let mut oracle = Oracle::default();
            let mut pending: Vec<EventHandle> = Vec::new();
            for &(op, arg) in &ops {
                match op {
                    // 60%: push
                    0..=5 => {
                        let time = SimTime::from_nanos(arg);
                        let handle = q.push(time, NodeId(0), EventKind::Timer(arg));
                        prop_assert_eq!(handle.seq(), oracle.push(time, NodeId(0), false));
                        pending.push(handle);
                    }
                    // 20%: cancel a pending event
                    6..=7 => {
                        if !pending.is_empty() {
                            let victim = pending.swap_remove(arg as usize % pending.len());
                            q.cancel(victim);
                            oracle.cancel(victim.seq());
                        }
                    }
                    // 20%: pop
                    _ => {
                        let got = popped(q.pop());
                        prop_assert_eq!(got, oracle.pop());
                        if let Some((_, seq, _, _)) = got {
                            pending.retain(|h| h.seq() != seq);
                        }
                    }
                }
                prop_assert_eq!(q.len(), oracle.len());
            }
            drain_both(&mut q, &mut oracle);
        }
    }
}
