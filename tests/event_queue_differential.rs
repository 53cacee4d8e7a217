//! Randomized differential test of the bucketed [`EventQueue`].
//!
//! The production queue is a two-level calendar (near ring of one-cycle
//! buckets + far-horizon heap). This test drives it side by side with the
//! obviously-correct implementation it replaced — a plain
//! `BinaryHeap<(time, seq)>` — through 10⁵ mixed schedule/pop operations
//! drawn from a SplitMix64 stream, asserting identical pop sequences
//! (time *and* payload). The operation mix deliberately hits the hard
//! cases:
//!
//! * same-cycle bursts, so FIFO tie-breaking is exercised constantly;
//! * far-horizon events (beyond `HORIZON` cycles ahead), so spill and
//!   migration as the ring slides interleave with direct near inserts;
//! * pop droughts that drain the ring completely, forcing the clock to
//!   jump to the earliest far event.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ptw_sim::engine::{EventQueue, HORIZON};
use ptw_types::rng::SplitMix64;
use ptw_types::time::Cycle;

/// The pre-overhaul implementation, kept verbatim as the oracle: a heap
/// ordered by `(time, insertion sequence)`.
#[derive(Default)]
struct HeapQueue {
    heap: BinaryHeap<Reverse<(Cycle, u64, u64)>>,
    next_seq: u64,
    now: Cycle,
}

impl HeapQueue {
    fn schedule(&mut self, at: Cycle, payload: u64) {
        assert!(at >= self.now, "oracle scheduled into the past");
        self.heap.push(Reverse((at, self.next_seq, payload)));
        self.next_seq += 1;
    }

    fn pop(&mut self) -> Option<(Cycle, u64)> {
        let Reverse((at, _, payload)) = self.heap.pop()?;
        self.now = at;
        Some((at, payload))
    }
}

#[test]
fn bucketed_queue_matches_binary_heap_oracle() {
    let mut rng = SplitMix64::new(0xD1FF_E4E7);
    let mut dut: EventQueue<u64> = EventQueue::new();
    let mut oracle = HeapQueue::default();
    let mut payload = 0u64;
    let mut pending = 0usize;

    for op in 0..100_000u32 {
        // Weighted op mix; occasional droughts drain the queue entirely.
        let drought = op % 9973 == 0;
        let schedule = !drought && pending < 4096 && (pending == 0 || rng.next_below(5) < 3);
        if schedule {
            let delta = match rng.next_below(100) {
                0..=39 => 0,                                // same-cycle burst
                40..=79 => rng.next_below(96),              // typical device latency
                80..=95 => rng.next_below(HORIZON - 1),     // anywhere in the ring
                _ => HORIZON + rng.next_below(3 * HORIZON), // far horizon
            };
            let at = Cycle::new(dut.now().raw() + delta);
            dut.schedule(at, payload);
            oracle.schedule(at, payload);
            payload += 1;
            pending += 1;
        } else {
            let drain = if drought { pending } else { 1 };
            for _ in 0..drain {
                let got = dut.pop();
                let want = oracle.pop();
                assert_eq!(got, want, "divergence at op {op}");
                pending -= 1;
            }
        }
    }

    // Final full drain must agree to the last event.
    loop {
        let got = dut.pop();
        let want = oracle.pop();
        assert_eq!(got, want, "divergence during final drain");
        if got.is_none() {
            break;
        }
    }
    assert_eq!(dut.len(), 0);
}

/// Same differential drive, but the DUT drains via [`EventQueue::
/// pop_bucket_into`] (the batched-dispatch entry point), interleaved with
/// single pops. Every drained bucket must reproduce, element for element,
/// the per-event pop sequence of the heap oracle — bucket draining is
/// pure mechanics, never ordering.
#[test]
fn bucket_drain_matches_binary_heap_oracle() {
    let mut rng = SplitMix64::new(0xB0CC_E7ED);
    let mut dut: EventQueue<u64> = EventQueue::new();
    let mut oracle = HeapQueue::default();
    let mut payload = 0u64;
    let mut pending = 0usize;
    let mut batch: Vec<u64> = Vec::new();

    for op in 0..100_000u32 {
        let schedule = pending < 4096 && (pending == 0 || rng.next_below(5) < 3);
        if schedule {
            let delta = match rng.next_below(100) {
                0..=39 => 0,
                40..=79 => rng.next_below(96),
                80..=95 => rng.next_below(HORIZON - 1),
                _ => HORIZON + rng.next_below(3 * HORIZON),
            };
            let at = Cycle::new(dut.now().raw() + delta);
            dut.schedule(at, payload);
            oracle.schedule(at, payload);
            payload += 1;
            pending += 1;
        } else if rng.next_below(4) == 0 {
            // Occasional single pop keeps the two drain styles interleaved.
            let got = dut.pop();
            let want = oracle.pop();
            assert_eq!(got, want, "single-pop divergence at op {op}");
            pending -= 1;
        } else {
            batch.clear();
            let at = dut.pop_bucket_into(&mut batch).expect("pending > 0");
            assert!(!batch.is_empty(), "a drained bucket is never empty");
            for &got in &batch {
                let (want_at, want) = oracle.pop().expect("oracle has pending events");
                assert_eq!(at, want_at, "bucket time divergence at op {op}");
                assert_eq!(got, want, "bucket payload divergence at op {op}");
            }
            assert_eq!(dut.now(), at, "queue clock follows the drained bucket");
            pending -= batch.len();
        }
    }

    // Final drain, all buckets.
    batch.clear();
    while let Some(at) = dut.pop_bucket_into(&mut batch) {
        for &got in &batch {
            let (want_at, want) = oracle.pop().expect("oracle drains in lockstep");
            assert_eq!((at, got), (want_at, want), "divergence during final drain");
        }
        batch.clear();
    }
    assert_eq!(oracle.pop(), None, "oracle must drain with the DUT");
    assert_eq!(dut.len(), 0);
}
