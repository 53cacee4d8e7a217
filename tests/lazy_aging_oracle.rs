//! Differential oracle for the candidate index's lazy aging.
//!
//! The index counts bypasses as tags on buffer neighbours instead of
//! per-entry counters (see the `ptw_core::index` module docs). Random
//! push / pick / walk-completion churn drives a bare `WalkBuffer` plus
//! `CandidateIndex` next to a plain per-entry count, and after every step
//! each pending entry's lazy count, the cursor's count, and the index's
//! own invariants (`validate`) must match.

use ptw_core::buffer::WalkBuffer;
use ptw_core::index::CandidateIndex;
use ptw_core::request::WalkRequest;
use ptw_types::addr::VirtPage;
use ptw_types::ids::InstrId;
use ptw_types::rng::SplitMix64;
use ptw_types::time::Cycle;
use std::collections::HashMap;

/// Buffer, index, inflight pages, and the eager per-entry bypass
/// counts (by seq) the lazy tags must reproduce.
struct Model {
    buf: WalkBuffer<()>,
    index: CandidateIndex,
    inflight: Vec<(u64, usize)>,
    eager: HashMap<u64, u64>,
    next_seq: u64,
}

impl Model {
    fn new(window: usize) -> Self {
        Model {
            buf: WalkBuffer::new(),
            index: CandidateIndex::new(window),
            inflight: Vec::new(),
            eager: HashMap::new(),
            next_seq: 0,
        }
    }

    fn blocked(&self, page: u64) -> bool {
        self.inflight.iter().any(|&(p, _)| p == page)
    }

    fn push(&mut self, page: u64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let h = self.buf.push(WalkRequest {
            page: VirtPage::new(page),
            instr: InstrId::new((seq % 3) as u32),
            seq,
            enqueued_at: Cycle::ZERO,
            own_estimate: 1,
            score: 1,
            bypassed: 0,
            waiter: (),
        });
        self.index.on_push(&self.buf, h, self.blocked(page));
        self.eager.insert(seq, 0);
    }

    fn remove(&mut self, h: u32) {
        self.index.pre_remove(&self.buf, h);
        let r = self.buf.remove(h);
        self.index.finish_remove(&self.buf);
        self.eager.remove(&r.seq);
    }

    /// Picks the `r`-th candidate, ages everything older, and starts
    /// its walk (removal plus page block), as the IOMMU does.
    fn pick(&mut self, r: usize) {
        let chosen = self.index.nth_eligible(&self.buf, r);
        let chosen_seq = self.buf.get(chosen).seq;
        for (_, e) in self.buf.iter() {
            if e.seq < chosen_seq && !self.blocked(e.page.raw()) {
                *self.eager.get_mut(&e.seq).unwrap() += 1;
            }
        }
        self.index.record_bypass(&self.buf, chosen);
        let page = self.buf.get(chosen).page.raw();
        self.remove(chosen);
        self.inflight.push((page, 0));
        self.index.block_page(&mut self.buf, page);
    }

    /// Completes the oldest inflight walk: drains its page chain.
    fn complete(&mut self) {
        let (page, _) = self.inflight.remove(0);
        while let Some(h) = self.index.page_first(page) {
            self.remove(h);
        }
    }

    fn check(&self) {
        self.index.validate(&self.buf, &self.inflight);
        for (h, r) in self.buf.iter() {
            assert_eq!(
                self.index.bypassed(&self.buf, h),
                self.eager[&r.seq],
                "bypass count of seq {}",
                r.seq
            );
        }
        let cursor = self.buf.iter().find(|(_, r)| !self.blocked(r.page.raw()));
        let want = cursor.map_or(0, |(_, r)| self.eager[&r.seq]);
        assert_eq!(self.index.cursor_bypass(), want, "cursor bypass count");
    }
}

/// Random push / pick / complete churn over a small page set (so
/// pages repeat and block) and a window smaller than the buffer: the
/// lazy counts must equal eager per-entry counting at every step.
#[test]
fn lazy_counts_match_eager_counting() {
    let mut rng = SplitMix64::new(0x1A2E);
    for window in [1usize, 4, 16] {
        let mut m = Model::new(window);
        for _ in 0..4_000 {
            match rng.next_below(8) {
                0..=3 => m.push(rng.next_below(24)),
                4..=5 if m.index.eligible_in_window() > 0 => {
                    let r = rng.index(m.index.eligible_in_window());
                    m.pick(r);
                }
                _ if !m.inflight.is_empty() => m.complete(),
                _ => {}
            }
            m.check();
        }
    }
}

/// A pick of the oldest candidate bypasses nothing; a younger pick
/// counts once against each older candidate and none against the
/// younger ones.
#[test]
fn picks_count_against_older_candidates_only() {
    let mut m = Model::new(8);
    for page in 0..4 {
        m.push(page);
    }
    m.pick(0);
    assert_eq!(m.index.cursor_bypass(), 0);
    m.pick(1); // pages 1, 2, 3 pending: picks page 2
    m.check();
    assert_eq!(m.index.cursor_bypass(), 1);
    let counts: Vec<u64> = m
        .buf
        .iter()
        .map(|(h, _)| m.index.bypassed(&m.buf, h))
        .collect();
    assert_eq!(counts, [1, 0]);
}
