//! A minimal deterministic discrete-event engine.
//!
//! Events are ordered by `(time, insertion sequence)`, so simultaneous
//! events fire in the order they were scheduled — runs are bit-reproducible
//! regardless of platform or hash-map iteration order.
//!
//! # Sliding calendar queue
//!
//! Almost every event a cycle-level simulation schedules lands within a
//! few hundred cycles of "now" (TLB lookups, walker steps, DRAM timings),
//! so a comparison-based heap pays `O(log n)` per event for ordering the
//! queue almost never needs. [`EventQueue`] instead keeps a ring of
//! [`HORIZON`] one-cycle buckets that covers the window
//! `[now, now + HORIZON)` — schedule and pop are O(1) plus a
//! word-at-a-time occupancy-bitmap scan — and puts an event at or past the
//! window's end into a fallback [`BinaryHeap`]. The window slides with
//! `now`: every pop that advances the clock moves the far events the
//! window has reached into their buckets. Only when the ring is empty does
//! the clock jump, straight to the earliest far event.
//!
//! Storage follows the events pending, not the ring width. A bucket owns
//! a buffer only while it is occupied: a drained or emptied bucket hands
//! its buffer to a LIFO pool, and the next push into an empty bucket takes
//! one back. The queue so holds at most one buffer per bucket that was
//! occupied at the busiest moment, plus the one the drain loop swaps in.
//!
//! The `(time, insertion sequence)` total order is preserved exactly:
//!
//! * ring events precede far events. The ring holds
//!   `now ≤ at < now + HORIZON` and the heap `at ≥ now + HORIZON`; a pop
//!   restores both for the new `now` before it returns. The window is
//!   exactly `HORIZON` cycles wide, so distinct pending times occupy
//!   distinct buckets.
//! * within a one-cycle bucket, FIFO push order *is* sequence order.
//!   Direct inserts carry increasing sequence numbers. A far event at time
//!   `t` was scheduled while `t ≥ now + HORIZON`, so any direct insert at
//!   `t` comes after a later pop has slid the window over `t` — and that
//!   pop already moved the far event into the bucket, before its caller
//!   could schedule again. The heap releases events in `(at, seq)` order,
//!   so far events that share a cycle also land in sequence order.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ptw_types::time::Cycle;

/// Width of the ring in cycles. Must be a power of two. DRAM row
/// conflicts (~104 cycles), full walk chains (4 reads) and the queueing in
/// front of them keep 99.998% of scheduling deltas below 1024 cycles on
/// the benchmark workloads (EXPERIMENTS.md has the histogram), so the far
/// heap sees about two events in 10⁵.
pub const HORIZON: u64 = 1024;

const WORDS: usize = (HORIZON as usize) / 64;

#[derive(Debug, PartialEq, Eq)]
struct Scheduled<E> {
    at: Cycle,
    seq: u64,
    event: E,
}

impl<E: Eq> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl<E: Eq> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A time-ordered event queue.
///
/// ```
/// use ptw_sim::engine::EventQueue;
/// use ptw_types::time::Cycle;
///
/// let mut q: EventQueue<&str> = EventQueue::new();
/// q.schedule(Cycle::new(10), "later");
/// q.schedule(Cycle::new(5), "sooner");
/// assert_eq!(q.pop(), Some((Cycle::new(5), "sooner")));
/// assert_eq!(q.pop(), Some((Cycle::new(10), "later")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// One-cycle buckets for events with `now ≤ at < now + HORIZON`;
    /// bucket index is `at % HORIZON`. Within a bucket, front-to-back
    /// order is sequence order (see module docs). Plain `Vec`s: events are
    /// appended in sequence order and drained wholesale by
    /// [`pop_bucket_into`](Self::pop_bucket_into), which hands the
    /// bucket's buffer to the caller instead of copying events one by one.
    /// An empty bucket holds an unallocated `Vec`.
    near: Vec<Vec<E>>,
    /// Occupancy bitmap over `near`: bit `i` set iff `near[i]` is
    /// non-empty.
    occ: [u64; WORDS],
    /// Number of events currently in the ring.
    near_len: usize,
    /// Allocated, empty buffers for the next buckets to become occupied;
    /// last in, first out, so the most recently used buffer is reused.
    pool: Vec<Vec<E>>,
    /// Events with `at ≥ now + HORIZON`.
    far: BinaryHeap<Reverse<Scheduled<E>>>,
    next_seq: u64,
    now: Cycle,
    processed: u64,
}

impl<E: Eq> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Eq> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            near: (0..HORIZON).map(|_| Vec::new()).collect(),
            occ: [0; WORDS],
            near_len: 0,
            pool: Vec::new(),
            far: BinaryHeap::new(),
            next_seq: 0,
            now: Cycle::ZERO,
            processed: 0,
        }
    }

    /// The time of the most recently popped event.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Number of events popped so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of events waiting.
    pub fn len(&self) -> usize {
        self.near_len + self.far.len()
    }

    /// Whether no events are waiting.
    pub fn is_empty(&self) -> bool {
        self.near_len == 0 && self.far.is_empty()
    }

    /// Schedules `event` to fire at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time — an event cannot
    /// fire in the past.
    pub fn schedule(&mut self, at: Cycle, event: E) {
        assert!(
            at >= self.now,
            "scheduling into the past: {at} < {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        if at.raw() - self.now.raw() < HORIZON {
            self.push_near(at, event);
        } else {
            self.far.push(Reverse(Scheduled { at, seq, event }));
        }
    }

    /// Appends `event` to the bucket of `at`, which must lie in the window.
    /// The first push into an empty bucket takes a pooled buffer.
    fn push_near(&mut self, at: Cycle, event: E) {
        let bucket = (at.raw() % HORIZON) as usize;
        let (word, bit) = (bucket / 64, 1u64 << (bucket % 64));
        if self.occ[word] & bit == 0 {
            self.occ[word] |= bit;
            if let Some(buf) = self.pool.pop() {
                debug_assert_eq!(
                    self.near[bucket].capacity(),
                    0,
                    "empty bucket kept a buffer"
                );
                self.near[bucket] = buf;
            }
        }
        self.near[bucket].push(event);
        self.near_len += 1;
    }

    /// Marks `bucket` empty and returns its (empty) buffer to the pool.
    fn release(&mut self, bucket: usize) {
        self.occ[bucket / 64] &= !(1u64 << (bucket % 64));
        let buf = std::mem::take(&mut self.near[bucket]);
        debug_assert!(buf.is_empty(), "released a bucket with events");
        self.pool.push(buf);
    }

    /// Earliest occupied ring time, at or after `now`. O(HORIZON/64)
    /// worst case; one word read in the common dense case.
    fn next_occupied(&self) -> Option<Cycle> {
        if self.near_len == 0 {
            return None;
        }
        let from = self.now.raw();
        let start = (from % HORIZON) as usize;
        let mut word_idx = start / 64;
        let mut word = self.occ[word_idx] & (!0u64 << (start % 64));
        // ≤ WORDS + 1 iterations: the full ring, plus revisiting the
        // first word with its below-`start` bits unmasked (those map to
        // times in the window's final cycles).
        for _ in 0..=WORDS {
            if word != 0 {
                let bucket = (word_idx * 64 + word.trailing_zeros() as usize) as u64;
                // `at ≡ bucket (mod HORIZON)` and `from ≤ at < from +
                // HORIZON`, so the wrapped delta reconstructs `at`.
                let delta = bucket.wrapping_sub(from) % HORIZON;
                return Some(Cycle::new(from + delta));
            }
            word_idx = (word_idx + 1) % WORDS;
            word = self.occ[word_idx];
        }
        unreachable!("ring reports {} events but no occupied bucket", {
            self.near_len
        })
    }

    /// Advances the clock to the earliest pending event — the earliest
    /// ring event, or, when the ring is empty, the earliest far event —
    /// then slides the window: every far event below `now + HORIZON` moves
    /// into its bucket. Returns the bucket of `now`, or `None` if the
    /// queue is empty.
    fn advance(&mut self) -> Option<usize> {
        let at = match self.next_occupied() {
            Some(at) => at,
            None => self.far.peek()?.0.at,
        };
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        while let Some(Reverse(s)) = self.far.peek() {
            if s.at.raw() - at.raw() >= HORIZON {
                break;
            }
            let Reverse(s) = self.far.pop().expect("peeked entry");
            self.push_near(s.at, s.event);
        }
        Some((at.raw() % HORIZON) as usize)
    }

    /// Pops the earliest event, advancing the clock to its time.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        let bucket = self.advance()?;
        let event = self.near[bucket].remove(0); // front of a small bucket
        if self.near[bucket].is_empty() {
            self.release(bucket);
        }
        self.near_len -= 1;
        self.processed += 1;
        Some((self.now, event))
    }

    /// Drains the entire earliest one-cycle bucket into `into`, advancing
    /// the clock to its time; its events arrive in `(time, seq)` pop
    /// order. Returns the bucket's cycle, or `None` if the queue is empty.
    ///
    /// Equivalent to calling [`pop`](Self::pop) until the popped time
    /// changes, but pays the occupancy scan and clock bookkeeping once per
    /// cycle instead of once per event. Events scheduled *at the returned
    /// cycle* after the drain land in the (now empty) bucket and are
    /// returned by the next call with the same cycle — exactly the order
    /// per-event popping would observe, since a same-cycle insert always
    /// carries a larger sequence number than anything already drained.
    ///
    /// The bucket's buffer *becomes* `into` — the hot loop moves three
    /// pointers per cycle, not one memcpy per event — and the buffer
    /// `into` held goes to the pool for the next bucket to fill.
    ///
    /// # Panics
    ///
    /// Panics if `into` is not empty: a drain loop clears its batch
    /// between calls.
    pub fn pop_bucket_into(&mut self, into: &mut Vec<E>) -> Option<Cycle> {
        assert!(into.is_empty(), "pop_bucket_into needs an empty batch");
        let bucket = self.advance()?;
        std::mem::swap(into, &mut self.near[bucket]);
        self.release(bucket);
        self.near_len -= into.len();
        self.processed += into.len() as u64;
        Some(self.now)
    }

    /// The time of the earliest pending event.
    pub fn peek_time(&self) -> Option<Cycle> {
        self.next_occupied()
            .or_else(|| self.far.peek().map(|Reverse(s)| s.at))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.schedule(Cycle::new(3), 'c');
        q.schedule(Cycle::new(1), 'a');
        q.schedule(Cycle::new(2), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn fifo_among_simultaneous_events() {
        let mut q = EventQueue::new();
        for i in 0..5 {
            q.schedule(Cycle::new(7), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(Cycle::new(5), ());
        q.schedule(Cycle::new(5), ());
        q.schedule(Cycle::new(9), ());
        let mut last = Cycle::ZERO;
        while let Some((t, ())) = q.pop() {
            assert!(t >= last);
            last = t;
        }
        assert_eq!(q.now(), Cycle::new(9));
        assert_eq!(q.processed(), 3);
    }

    #[test]
    #[should_panic]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(Cycle::new(10), ());
        q.pop();
        q.schedule(Cycle::new(5), ());
    }

    #[test]
    fn schedule_at_current_time_is_allowed() {
        let mut q = EventQueue::new();
        q.schedule(Cycle::new(10), 1);
        q.pop();
        q.schedule(Cycle::new(10), 2);
        assert_eq!(q.pop(), Some((Cycle::new(10), 2)));
    }

    #[test]
    fn far_horizon_events_pop_in_order() {
        let mut q = EventQueue::new();
        // Straddle several horizons, out of order, with a tie far out.
        q.schedule(Cycle::new(3 * HORIZON + 7), 'd');
        q.schedule(Cycle::new(5), 'a');
        q.schedule(Cycle::new(3 * HORIZON + 7), 'e');
        q.schedule(Cycle::new(HORIZON + 1), 'c');
        q.schedule(Cycle::new(HORIZON - 1), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c', 'd', 'e']);
        assert_eq!(q.now(), Cycle::new(3 * HORIZON + 7));
    }

    #[test]
    fn empty_ring_jump_keeps_interleaving_with_new_inserts() {
        let mut q = EventQueue::new();
        q.schedule(Cycle::new(2 * HORIZON), 1); // far
        q.schedule(Cycle::new(10), 0); // near
        assert_eq!(q.pop(), Some((Cycle::new(10), 0)));
        // Ring is empty; the next pop jumps to the far event. An insert
        // at the same cycle after the jump must still fire after it.
        assert_eq!(q.pop(), Some((Cycle::new(2 * HORIZON), 1)));
        q.schedule(Cycle::new(2 * HORIZON), 2);
        q.schedule(Cycle::new(2 * HORIZON + 3), 3);
        assert_eq!(q.pop(), Some((Cycle::new(2 * HORIZON), 2)));
        assert_eq!(q.pop(), Some((Cycle::new(2 * HORIZON + 3), 3)));
    }

    #[test]
    fn pop_bucket_drains_one_cycle_in_fifo_order() {
        let mut q = EventQueue::new();
        q.schedule(Cycle::new(4), 'a');
        q.schedule(Cycle::new(7), 'c');
        q.schedule(Cycle::new(4), 'b');
        let mut batch = Vec::new();
        assert_eq!(q.pop_bucket_into(&mut batch), Some(Cycle::new(4)));
        assert_eq!(batch, vec!['a', 'b']);
        assert_eq!(q.now(), Cycle::new(4));
        assert_eq!(q.processed(), 2);
        batch.clear();
        assert_eq!(q.pop_bucket_into(&mut batch), Some(Cycle::new(7)));
        assert_eq!(batch, vec!['c']);
        batch.clear();
        assert_eq!(q.pop_bucket_into(&mut batch), None);
        assert!(q.is_empty());
    }

    #[test]
    fn pop_bucket_sees_same_cycle_reinserts_next_call() {
        // A handler scheduling at the drained cycle must be served by the
        // next call at the same cycle — after everything already drained.
        let mut q = EventQueue::new();
        q.schedule(Cycle::new(3), 1);
        let mut batch = Vec::new();
        assert_eq!(q.pop_bucket_into(&mut batch), Some(Cycle::new(3)));
        assert_eq!(batch, vec![1]);
        q.schedule(Cycle::new(3), 2);
        q.schedule(Cycle::new(5), 3);
        batch.clear();
        assert_eq!(q.pop_bucket_into(&mut batch), Some(Cycle::new(3)));
        assert_eq!(batch, vec![2]);
        batch.clear();
        assert_eq!(q.pop_bucket_into(&mut batch), Some(Cycle::new(5)));
        assert_eq!(batch, vec![3]);
    }

    #[test]
    fn pop_bucket_jumps_to_far_events() {
        let mut q = EventQueue::new();
        q.schedule(Cycle::new(2 * HORIZON + 1), 'z');
        q.schedule(Cycle::new(2 * HORIZON + 1), 'w');
        let mut batch = Vec::new();
        assert_eq!(
            q.pop_bucket_into(&mut batch),
            Some(Cycle::new(2 * HORIZON + 1))
        );
        assert_eq!(batch, vec!['z', 'w']);
        assert_eq!(q.now(), Cycle::new(2 * HORIZON + 1));
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn pop_bucket_rejects_a_non_empty_batch() {
        let mut q = EventQueue::new();
        q.schedule(Cycle::new(1), 'b');
        q.pop_bucket_into(&mut vec!['a']);
    }

    #[test]
    fn pop_and_pop_bucket_interleave_consistently() {
        let mut q = EventQueue::new();
        for i in 0..4 {
            q.schedule(Cycle::new(9), i);
        }
        q.schedule(Cycle::new(12), 9);
        assert_eq!(q.pop(), Some((Cycle::new(9), 0)));
        let mut batch = Vec::new();
        assert_eq!(q.pop_bucket_into(&mut batch), Some(Cycle::new(9)));
        assert_eq!(batch, vec![1, 2, 3], "bucket drain picks up the remainder");
        assert_eq!(q.pop(), Some((Cycle::new(12), 9)));
        assert_eq!(q.processed(), 5);
    }

    #[test]
    fn peek_time_sees_near_and_far() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule(Cycle::new(2 * HORIZON), 1);
        assert_eq!(q.peek_time(), Some(Cycle::new(2 * HORIZON)));
        q.schedule(Cycle::new(9), 2);
        assert_eq!(q.peek_time(), Some(Cycle::new(9)));
        q.pop();
        assert_eq!(q.peek_time(), Some(Cycle::new(2 * HORIZON)));
    }

    #[test]
    fn bucket_wraparound_preserves_order() {
        // Drive `now` deep into the ring, then schedule across the wrap
        // point so low bucket indices hold later times than high ones.
        let mut q = EventQueue::new();
        q.schedule(Cycle::new(HORIZON - 10), 0);
        assert_eq!(q.pop(), Some((Cycle::new(HORIZON - 10), 0)));
        q.schedule(Cycle::new(HORIZON + 5), 2); // wraps to bucket 5
        q.schedule(Cycle::new(HORIZON - 3), 1); // high bucket, earlier time
        assert_eq!(q.pop(), Some((Cycle::new(HORIZON - 3), 1)));
        assert_eq!(q.pop(), Some((Cycle::new(HORIZON + 5), 2)));
    }

    /// Allocated bucket buffers the queue holds: the occupied buckets'
    /// plus the pool's.
    fn buffers<E>(q: &EventQueue<E>) -> usize {
        q.near
            .iter()
            .chain(&q.pool)
            .filter(|b| b.capacity() > 0)
            .count()
    }

    fn occupied<E>(q: &EventQueue<E>) -> usize {
        q.occ.iter().map(|w| w.count_ones() as usize).sum()
    }

    #[test]
    fn bucket_buffers_are_bounded_by_peak_occupancy() {
        // Every cycle schedules a small burst one to three cycles ahead and
        // drains one bucket, so `now` walks every bucket of the ring twice
        // while only a few buckets are occupied at any moment.
        let mut q = EventQueue::new();
        let mut batch = Vec::new();
        let mut peak = 0;
        q.schedule(Cycle::ZERO, 0u64);
        while let Some(at) = q.pop_bucket_into(&mut batch) {
            if at.raw() < 2 * HORIZON {
                for d in [1, 1, 2, 3] {
                    q.schedule(Cycle::new(at.raw() + d), d);
                }
            }
            peak = peak.max(occupied(&q));
            batch.clear();
        }
        assert!(peak >= 3, "the drive keeps several buckets occupied");
        assert!(
            buffers(&q) <= peak + 1,
            "{} buffers held for a peak of {peak} occupied buckets",
            buffers(&q)
        );
    }

    #[test]
    fn window_edges_hold_after_the_ring_slides() {
        let mut q = EventQueue::new();
        // Slide `now` past HORIZON by popping, not by an empty-ring jump.
        q.schedule(Cycle::new(HORIZON - 2), 'p');
        q.schedule(Cycle::new(HORIZON + 5), 'q');
        assert_eq!(q.pop(), Some((Cycle::new(HORIZON - 2), 'p')));
        assert_eq!(q.pop(), Some((Cycle::new(HORIZON + 5), 'q')));
        let now = q.now().raw();
        // The window's last cycle shares no bucket with `now`; its first
        // cycle past the end does, and must wait in the far heap.
        q.schedule(Cycle::new(now + HORIZON - 1), 'a');
        q.schedule(Cycle::new(now + HORIZON), 'c');
        q.schedule(Cycle::new(now + HORIZON - 1), 'b');
        q.schedule(Cycle::new(now + HORIZON), 'd');
        q.schedule(Cycle::new(now + 1), 'x');
        assert_eq!(q.len(), 5);
        assert_eq!(q.pop(), Some((Cycle::new(now + 1), 'x')));
        // That pop slid the window over `now + HORIZON`: a direct insert
        // there must still fire after the far events admitted before it.
        q.schedule(Cycle::new(now + HORIZON), 'e');
        assert_eq!(q.peek_time(), Some(Cycle::new(now + HORIZON - 1)));
        let rest: Vec<(u64, char)> =
            std::iter::from_fn(|| q.pop().map(|(t, e)| (t.raw() - now, e))).collect();
        let h = HORIZON;
        assert_eq!(
            rest,
            vec![(h - 1, 'a'), (h - 1, 'b'), (h, 'c'), (h, 'd'), (h, 'e')]
        );
    }
}
