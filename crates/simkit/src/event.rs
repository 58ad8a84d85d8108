//! Deterministic discrete-event queues.
//!
//! Events scheduled at the same instant are delivered in insertion order
//! (FIFO tie-breaking), which keeps every simulation in this workspace
//! fully deterministic for a given RNG seed.
//!
//! Two engines back the queue, selected at construction:
//!
//! * [`Engine::Hybrid`] (the default) — a bucketed calendar for
//!   near-horizon events with O(1) schedule and amortised-O(1) pop,
//!   falling back to a binary heap for events beyond the calendar
//!   window. The datapath's 2.494 ns flit-clock ticks, serDES/stack
//!   crossings and DRAM completions all land in the calendar; only
//!   multi-microsecond timers take the heap path.
//! * [`Engine::HeapOnly`] — the original pure-`BinaryHeap` engine, kept
//!   as the reference implementation. Property tests assert that both
//!   engines pop every schedule in the identical order, so simulations
//!   are byte-for-byte reproducible on either.
//!
//! Payloads and ordering are stored apart. Every pending payload sits in
//! one slab (`Vec<Option<E>>`) whose freed slots are reused LIFO, so the
//! slab never grows past the peak pending count and a steady-state
//! schedule allocates nothing. The drain, the calendar buckets and the
//! far-future heap hold only 24-byte `(at, seq, slot)` keys: ordering a
//! bucket sorts keys instead of shuffling full payloads (which on the
//! fabric hot path carry whole LLC frames), and a payload is moved
//! exactly once on schedule and once on pop. Both engines order by
//! `(at, seq)` alone; the slot never breaks a tie.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Calendar bucket width as a power of two: 2^12 ps = 4.096 ns, about
/// 1.6 flit cycles of the 401 MHz prototype clock.
const SLOT_SHIFT: u32 = 12;

/// Number of calendar buckets; together with [`SLOT_SHIFT`] this spans a
/// ~4.2 µs near horizon, several flit round trips deep.
const NUM_BUCKETS: usize = 1024;

/// Which scheduling engine backs an [`EventQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Calendar buckets near the horizon, heap beyond it (fast path).
    #[default]
    Hybrid,
    /// The original pure binary-heap engine (reference baseline).
    HeapOnly,
}

/// A pending event's key: delivery instant, the monotonically increasing
/// sequence number that breaks ties FIFO, and the slab slot holding the
/// payload. Sequence numbers are unique, so comparing keys compares
/// `(at, seq)` and never reaches the slot.
type Key = (SimTime, u64, u32);

/// A key-only event lane backing a calendar bucket or the drain.
/// Buckets keep keys in arrival order; the drain keeps them sorted
/// **descending** so the next event pops from the back.
type Lane = Vec<Key>;

/// A discrete-event queue over an arbitrary event type `E`.
///
/// The queue tracks the current simulated instant: popping an event
/// advances [`EventQueue::now`] to that event's scheduled time.
///
/// # Example
///
/// ```
/// use simkit::event::EventQueue;
/// use simkit::time::SimTime;
///
/// #[derive(Debug, PartialEq)]
/// enum Ev { Tick, Tock }
///
/// let mut q = EventQueue::new();
/// q.schedule_in(SimTime::from_ns(10), Ev::Tock);
/// q.schedule_in(SimTime::from_ns(1), Ev::Tick);
/// assert_eq!(q.pop().unwrap().1, Ev::Tick);
/// assert_eq!(q.now(), SimTime::from_ns(1));
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    engine: Engine,
    seq: u64,
    now: SimTime,
    popped: u64,
    pending: usize,
    /// Every pending payload, indexed by its key's slot; a slot empties
    /// when its key pops.
    slab: Vec<Option<E>>,
    /// Empty slab slots, reused last-freed first.
    free: Vec<u32>,
    /// Far-future keys (all keys in `HeapOnly` mode), earliest on top.
    heap: BinaryHeap<Reverse<Key>>,
    /// The currently ingested calendar slice, keys sorted **descending**
    /// by `(at, seq)`; the next event pops from the back. Also absorbs
    /// late schedules that land inside the already-ingested window.
    drain: Lane,
    /// Unsorted calendar buckets; bucket `slot % NUM_BUCKETS` holds the
    /// keys of `slot` for slots in `[cursor_slot, cursor_slot + N)`.
    buckets: Vec<Lane>,
    /// One bit per bucket: whether it holds any events.
    occupied: Vec<u64>,
    /// First slot not yet ingested into `drain`.
    cursor_slot: u64,
    /// Events currently resident in `buckets`.
    in_buckets: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty hybrid-engine queue at instant zero.
    pub fn new() -> Self {
        Self::with_engine(Engine::Hybrid)
    }

    /// Creates an empty queue backed by the reference binary-heap
    /// engine (used by equivalence tests and the engine benchmark).
    pub fn new_heap_only() -> Self {
        Self::with_engine(Engine::HeapOnly)
    }

    /// Creates an empty queue with an explicit engine choice.
    pub fn with_engine(engine: Engine) -> Self {
        let n = match engine {
            Engine::Hybrid => NUM_BUCKETS,
            Engine::HeapOnly => 0,
        };
        EventQueue {
            engine,
            seq: 0,
            now: SimTime::ZERO,
            popped: 0,
            pending: 0,
            slab: Vec::new(),
            free: Vec::new(),
            heap: BinaryHeap::new(),
            drain: Lane::new(),
            buckets: (0..n).map(|_| Lane::new()).collect(),
            occupied: vec![0u64; n.div_ceil(64)],
            cursor_slot: 0,
            in_buckets: 0,
        }
    }

    /// The engine backing this queue.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// The current simulated instant (the timestamp of the last popped
    /// event, or zero if nothing has been popped yet).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events popped over the queue's lifetime (the engine
    /// benchmark's events/sec numerator).
    pub fn popped(&self) -> u64 {
        self.popped
    }

    fn slot_of(&self, at: SimTime) -> u64 {
        at.as_ps() >> SLOT_SHIFT
    }

    /// Parks `event` in the slab, reusing the most recently freed slot.
    fn store(&mut self, event: E) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(event);
                slot
            }
            None => {
                let slot = u32::try_from(self.slab.len()).expect("pending events fit u32");
                self.slab.push(Some(event));
                slot
            }
        }
    }

    /// Schedules `event` for delivery at absolute instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (before [`EventQueue::now`]); a
    /// discrete-event simulation must never travel backwards.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: at={at}, now={}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.pending += 1;
        let key = (at, seq, self.store(event));
        if self.buckets.is_empty() {
            self.heap.push(Reverse(key));
            return;
        }
        // With the calendar empty the cursor can jump over quiet gaps,
        // keeping the bucket window anchored at the present.
        if self.in_buckets == 0 && self.drain.is_empty() {
            let now_slot = self.slot_of(self.now);
            if now_slot > self.cursor_slot {
                self.cursor_slot = now_slot;
            }
        }
        let slot = self.slot_of(at);
        if slot < self.cursor_slot {
            // Inside the already-ingested window: merge into the sorted
            // drain at its (at, seq) position.
            let pos = self.drain.partition_point(|&k| k > key);
            self.drain.insert(pos, key);
        } else if slot - self.cursor_slot < self.buckets.len() as u64 {
            let idx = usize::try_from(slot % self.buckets.len() as u64)
                .expect("bucket count fits usize");
            self.buckets[idx].push(key);
            self.occupied[idx / 64] |= 1u64 << (idx % 64);
            self.in_buckets += 1;
        } else {
            self.heap.push(Reverse(key));
        }
    }

    /// Schedules `event` for delivery `delay` after the current instant.
    pub fn schedule_in(&mut self, delay: SimTime, event: E) {
        self.schedule(self.now + delay, event);
    }

    /// Index of the first occupied bucket at or (cyclically) after
    /// `start`. Only meaningful while `in_buckets > 0`.
    fn next_occupied(&self, start: usize) -> usize {
        let words = self.occupied.len();
        let w0 = start / 64;
        let masked = self.occupied[w0] & (!0u64 << (start % 64));
        if masked != 0 {
            return w0 * 64 + usize::try_from(masked.trailing_zeros()).expect("bit index");
        }
        for step in 1..=words {
            let w = (w0 + step) % words;
            if self.occupied[w] != 0 {
                return w * 64
                    + usize::try_from(self.occupied[w].trailing_zeros()).expect("bit index");
            }
        }
        unreachable!("next_occupied called with empty calendar");
    }

    /// Refills `drain` from the next occupied bucket when it runs dry.
    fn ensure_drain(&mut self) {
        if !self.drain.is_empty() || self.in_buckets == 0 {
            return;
        }
        let n = self.buckets.len() as u64;
        let start = usize::try_from(self.cursor_slot % n).expect("bucket count fits usize");
        let idx = self.next_occupied(start);
        let delta = if idx >= start {
            (idx - start) as u64
        } else {
            n - (start - idx) as u64
        };
        // Swap keeps the bucket's allocation alive for its next lap.
        std::mem::swap(&mut self.drain, &mut self.buckets[idx]);
        self.occupied[idx / 64] &= !(1u64 << (idx % 64));
        self.in_buckets -= self.drain.len();
        self.drain.sort_unstable_by(|a, b| b.cmp(a));
        self.cursor_slot = self.cursor_slot + delta + 1;
    }

    /// The key of the next event — the earlier of the drain's back and
    /// the heap's top — and whether it sits in the heap. Call after
    /// [`EventQueue::ensure_drain`].
    fn front(&self) -> Option<(Key, bool)> {
        match (self.drain.last(), self.heap.peek()) {
            (None, None) => None,
            (None, Some(&Reverse(h))) => Some((h, true)),
            (Some(&d), None) => Some((d, false)),
            (Some(&d), Some(&Reverse(h))) => Some(if h < d { (h, true) } else { (d, false) }),
        }
    }

    /// Removes the front key found by [`EventQueue::front`], moves its
    /// payload out of the slab and frees the slot.
    fn pop_front(&mut self, from_heap: bool) -> E {
        let (_, _, slot) = if from_heap {
            self.heap.pop().expect("front key exists").0
        } else {
            self.drain.pop().expect("front key exists")
        };
        self.pending -= 1;
        self.popped += 1;
        let event = self.slab[slot as usize]
            .take()
            .expect("pending slot holds its payload");
        self.free.push(slot);
        #[cfg(feature = "sanitize")]
        assert_eq!(
            self.slab.len() - self.free.len(),
            self.pending,
            "sanitize: event slab holds {} payloads for {} pending events",
            self.slab.len() - self.free.len(),
            self.pending
        );
        event
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// delivery time. Returns `None` when the queue is exhausted.
    ///
    /// With the `sanitize` feature on, asserts that simulated time never
    /// regresses — the ordering invariant every simulation depends on —
    /// and that the slab holds exactly one payload per pending event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.ensure_drain();
        let ((at, _, _), from_heap) = self.front()?;
        #[cfg(feature = "sanitize")]
        assert!(
            at >= self.now,
            "sanitize: event queue clock regressed: {} -> {}",
            self.now,
            at
        );
        let event = self.pop_front(from_heap);
        self.now = at;
        Some((at, event))
    }

    /// Pops the next event only when it is due at exactly the current
    /// instant **and** `pred` accepts it; otherwise leaves the queue
    /// untouched and returns `None`.
    ///
    /// This is the flit-burst batching hook: after popping one event, a
    /// simulation can drain every coincident sibling (same instant, same
    /// kind) and process the burst in one pass instead of re-entering
    /// its dispatch loop per event.
    pub fn pop_coincident<F>(&mut self, pred: F) -> Option<E>
    where
        F: FnOnce(&E) -> bool,
    {
        self.ensure_drain();
        let ((at, _, slot), from_heap) = self.front()?;
        if at != self.now {
            return None;
        }
        let payload = self.slab[slot as usize]
            .as_ref()
            .expect("pending slot holds its payload");
        if !pred(payload) {
            return None;
        }
        Some(self.pop_front(from_heap))
    }

    /// The delivery time of the next event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        let near = if let Some(&(at, _, _)) = self.drain.last() {
            Some(at)
        } else if self.in_buckets > 0 {
            let n = self.buckets.len() as u64;
            let start = usize::try_from(self.cursor_slot % n).expect("bucket count fits usize");
            let idx = self.next_occupied(start);
            self.buckets[idx].iter().map(|&(at, _, _)| at).min()
        } else {
            None
        };
        let far = self.heap.peek().map(|&Reverse((at, _, _))| at);
        match (near, far) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.pending
    }

    /// Whether there are no pending events.
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Drains events while `cond(next_event_time)` holds, applying `f`.
    ///
    /// Runs the classic event loop "until time T" pattern without the
    /// caller owning the loop. Returns the number of events processed.
    pub fn run_while<F, C>(&mut self, mut cond: C, mut f: F) -> u64
    where
        F: FnMut(&mut Self, SimTime, E),
        C: FnMut(SimTime) -> bool,
    {
        let mut n = 0;
        while let Some(t) = self.peek_time() {
            if !cond(t) {
                break;
            }
            let (t, ev) = self.pop().expect("peeked event exists");
            f(self, t, ev);
            n += 1;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs every test body against both engines.
    fn on_both_engines(test: impl Fn(EventQueue<i32>)) {
        test(EventQueue::new());
        test(EventQueue::new_heap_only());
    }

    #[test]
    fn pops_in_time_order() {
        on_both_engines(|mut q| {
            q.schedule(SimTime::from_ns(30), 3);
            q.schedule(SimTime::from_ns(10), 1);
            q.schedule(SimTime::from_ns(20), 2);
            let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
            assert_eq!(order, vec![1, 2, 3]);
        });
    }

    #[test]
    fn ties_break_fifo() {
        on_both_engines(|mut q| {
            let t = SimTime::from_ns(5);
            for i in 0..100 {
                q.schedule(t, i);
            }
            let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
            assert_eq!(order, (0..100).collect::<Vec<_>>());
        });
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_ns(7));
        assert_eq!(q.popped(), 1);
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(10), "a");
        q.pop();
        q.schedule_in(SimTime::from_ns(5), "b");
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(15)));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(10), ());
        q.pop();
        q.schedule(SimTime::from_ns(5), ());
    }

    #[test]
    fn run_while_stops_at_horizon() {
        let mut q = EventQueue::new();
        for i in 1..=10u64 {
            q.schedule(SimTime::from_ns(i), i);
        }
        let mut seen = Vec::new();
        let horizon = SimTime::from_ns(5);
        let n = q.run_while(|t| t <= horizon, |_, _, e| seen.push(e));
        assert_eq!(n, 5);
        assert_eq!(seen, vec![1, 2, 3, 4, 5]);
        assert_eq!(q.len(), 5);
    }

    #[test]
    fn run_while_can_reschedule() {
        // A self-perpetuating ticker: each event schedules the next.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(1), ());
        let horizon = SimTime::from_ns(100);
        let n = q.run_while(
            |t| t <= horizon,
            |q, _, ()| {
                q.schedule_in(SimTime::from_ns(1), ());
            },
        );
        assert_eq!(n, 100);
    }

    #[test]
    fn engines_agree_on_a_mixed_schedule() {
        // Near ticks, far timers, same-instant bursts and late merges —
        // the pop order must be identical event for event.
        let mut hybrid = EventQueue::new();
        let mut heap = EventQueue::new_heap_only();
        let mut tag = 0u32;
        for round in 0..50u64 {
            for (q, _) in [(&mut hybrid, 0), (&mut heap, 1)] {
                q.schedule(SimTime::from_ps(round * 2_494), tag);
                q.schedule(SimTime::from_ns(round * 3 + 950), tag + 1);
                q.schedule(SimTime::from_us(round + 10), tag + 2);
                // Same-instant burst.
                q.schedule(SimTime::from_ns(40), tag + 3);
            }
            tag += 4;
        }
        loop {
            let a = hybrid.pop();
            let b = heap.pop();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn engines_agree_under_interleaved_pop_and_schedule() {
        let mut hybrid = EventQueue::new();
        let mut heap = EventQueue::new_heap_only();
        for q in [&mut hybrid, &mut heap] {
            q.schedule(SimTime::from_ns(1), 0);
        }
        // Each popped event reschedules two successors (one near, one
        // far), exercising drain merges and cursor fast-forwarding.
        for step in 0..2_000u64 {
            let a = hybrid.pop();
            let b = heap.pop();
            assert_eq!(a, b, "step {step}");
            let Some((_, v)) = a else { break };
            if v < 300 {
                for q in [&mut hybrid, &mut heap] {
                    q.schedule_in(SimTime::from_ps(2_494), v + 1);
                    q.schedule_in(SimTime::from_us(5), v + 2);
                }
            }
        }
    }

    #[test]
    fn far_future_events_cross_the_calendar_horizon() {
        let mut q = EventQueue::new();
        // Beyond the ~4.2 µs calendar window: takes the heap path.
        q.schedule(SimTime::from_ms(50), "far");
        q.schedule(SimTime::from_ns(3), "near");
        assert_eq!(q.pop().unwrap().1, "near");
        assert_eq!(q.pop().unwrap().1, "far");
        assert_eq!(q.now(), SimTime::from_ms(50));
        // After the jump the calendar re-anchors at the present.
        q.schedule_in(SimTime::from_ns(1), "tail");
        assert_eq!(q.pop().unwrap().1, "tail");
    }

    #[test]
    fn pop_coincident_drains_same_instant_only() {
        on_both_engines(|mut q| {
            let t = SimTime::from_ns(5);
            q.schedule(t, 1);
            q.schedule(t, 2);
            q.schedule(t, 3);
            q.schedule(SimTime::from_ns(6), 4);
            assert_eq!(q.pop().unwrap().1, 1);
            assert_eq!(q.pop_coincident(|e| *e == 2), Some(2));
            // Predicate rejection leaves the event queued.
            assert_eq!(q.pop_coincident(|e| *e == 99), None);
            assert_eq!(q.pop_coincident(|_| true), Some(3));
            // Next event is at a later instant: not coincident.
            assert_eq!(q.pop_coincident(|_| true), None);
            assert_eq!(q.pop().unwrap().1, 4);
        });
    }

    #[test]
    fn slab_slots_recycle_across_bucket_laps() {
        // Freed slab slots are reused LIFO; pouring many laps through
        // the same buckets must keep FIFO order intact as slots and key
        // lanes are reused.
        let mut q = EventQueue::new();
        for lap in 0..100u64 {
            for i in 0..64u64 {
                q.schedule(SimTime::from_ns(lap * 10 + 1), (lap, i));
            }
            for i in 0..64u64 {
                assert_eq!(q.pop().unwrap().1, (lap, i));
            }
        }
        assert!(q.is_empty());
        assert_eq!(q.popped(), 6_400);
        assert_eq!(q.slab.len(), 64);
    }

    #[test]
    fn slab_never_grows_past_peak_pending() {
        // A rolling window of at most K pending events, each pop
        // replaced by a schedule a few buckets to a few laps ahead
        // (some past the calendar horizon, into the heap): the slab
        // must settle at K slots, never one more.
        const K: usize = 37;
        for mut q in [EventQueue::new(), EventQueue::new_heap_only()] {
            for i in 0..K as u64 {
                q.schedule(SimTime::from_ps(i * 997), i);
            }
            for i in K as u64..50_000 {
                let (_, v) = q.pop().unwrap();
                assert!(v < i);
                let delta = match i % 5 {
                    0 => 0,
                    1 => 2_494,
                    2 => 900_000,
                    3 => 6_000_000,
                    _ => 13_000,
                };
                q.schedule_in(SimTime::from_ps(delta), i);
                assert_eq!(q.len(), K);
                assert!(q.slab.len() <= K, "slab grew to {}", q.slab.len());
                assert_eq!(q.slab.len() - q.free.len(), q.len());
            }
            while q.pop().is_some() {}
            assert_eq!(q.free.len(), q.slab.len());
        }
    }

    #[test]
    fn dropping_the_queue_drops_pending_payloads() {
        use std::rc::Rc;
        let token = Rc::new(());
        for mut q in [EventQueue::new(), EventQueue::new_heap_only()] {
            for i in 0..100u64 {
                // Near, mid-calendar and far-future (heap) payloads.
                q.schedule(SimTime::from_ps(i * 50_000), Rc::clone(&token));
            }
            for _ in 0..40 {
                q.pop();
            }
            assert_eq!(Rc::strong_count(&token), 61);
            drop(q);
            assert_eq!(Rc::strong_count(&token), 1);
        }
    }

    #[test]
    fn late_schedule_into_ingested_window_merges_in_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(100), 1);
        q.schedule(SimTime::from_ns(100), 2);
        assert_eq!(q.pop().unwrap().1, 1);
        // now == 100 ns; the 100 ns slot is already ingested into the
        // drain, so this merges mid-drain and must pop FIFO after 2.
        q.schedule(SimTime::from_ns(100), 3);
        q.schedule(SimTime::from_ps(100_500), 4);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
        assert_eq!(q.pop().unwrap().1, 4);
    }
}
