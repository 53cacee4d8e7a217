//! A bare `WalkBuffer` + `CandidateIndex` pair driven the way the IOMMU
//! drives them — push, rescore, walk start (removal plus page block),
//! walk completion (draining the page's chain) — beside a mirror of the
//! pending requests whose `bypassed` fields hold eagerly counted aging.
//!
//! Whoever picks keeps the mirror's counts: the reference scheduler ages
//! the mirror as it picks, and [`Model::check`] compares every pending
//! request's lazy count in the index with the mirror's.

use ptw_core::buffer::WalkBuffer;
use ptw_core::index::CandidateIndex;
use ptw_core::request::WalkRequest;
use ptw_types::addr::VirtPage;
use ptw_types::ids::InstrId;
use ptw_types::time::Cycle;

/// Production buffer + index, the inflight pages, and the eager mirror.
pub struct Model {
    pub buf: WalkBuffer<()>,
    pub index: CandidateIndex,
    /// Pages with a walk in flight (the index's blocked set), oldest
    /// walk first.
    pub inflight: Vec<(u64, usize)>,
    /// The pending requests in arrival order, aged eagerly.
    pub mirror: Vec<WalkRequest<()>>,
    /// Scheduler lookahead: the index's window.
    pub window: usize,
    /// Arrival order of the next pushed request.
    pub next_seq: u64,
}

impl Model {
    /// An empty model with a `window`-entry lookahead.
    pub fn new(window: usize) -> Self {
        Model {
            buf: WalkBuffer::new(),
            index: CandidateIndex::new(window),
            inflight: Vec::new(),
            mirror: Vec::new(),
            window,
            next_seq: 0,
        }
    }

    /// Whether `page` has a walk in flight.
    pub fn blocked(&self, page: u64) -> bool {
        self.inflight.iter().any(|&(p, _)| p == page)
    }

    /// Enqueues a request for `page` from `instr` with its own `score`.
    pub fn push(&mut self, page: u64, instr: u32, score: u32) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let r = WalkRequest {
            page: VirtPage::new(page),
            instr: InstrId::new(instr),
            seq,
            enqueued_at: Cycle::ZERO,
            own_estimate: 1,
            score,
            bypassed: 0,
            waiter: (),
        };
        self.mirror.push(r.clone());
        let h = self.buf.push(r);
        self.index.on_push(&self.buf, h, self.blocked(page));
    }

    /// Enqueues a scored request as the IOMMU does when no walker is
    /// free: `instr`'s pending requests and the new one share the prior
    /// shared score plus `estimate`.
    pub fn push_scored(&mut self, page: u64, instr: u32, estimate: u32) {
        let id = InstrId::new(instr);
        let prior = self
            .buf
            .instr_first(id)
            .map_or(0, |h| self.buf.get(h).score);
        let score = prior + estimate;
        let mut cur = self.buf.instr_first(id);
        while let Some(h) = cur {
            self.buf.get_mut(h).score = score;
            cur = self.buf.instr_next(h);
        }
        self.index.on_rescore(&self.buf, id, score);
        for r in self.mirror.iter_mut().filter(|r| r.instr == id) {
            r.score = score;
        }
        self.push(page, instr, score);
    }

    /// Starts the walk of pending request `h`: removes it, marks its page
    /// inflight and blocks the page's other pending requests.
    pub fn start(&mut self, h: u32) {
        let page = self.remove(h);
        self.inflight.push((page, 0));
        self.index.block_page(&mut self.buf, page);
    }

    /// Completes the `i`-th inflight walk: every pending request of its
    /// page finishes with it.
    pub fn complete(&mut self, i: usize) {
        let (page, _) = self.inflight.remove(i);
        while let Some(h) = self.index.page_first(page) {
            self.remove(h);
        }
    }

    /// Removes pending request `h` from buffer, index and mirror;
    /// returns its page.
    fn remove(&mut self, h: u32) -> u64 {
        self.index.pre_remove(&self.buf, h);
        let r = self.buf.remove(h);
        self.index.finish_remove(&self.buf);
        let pos = self
            .mirror
            .iter()
            .position(|m| m.seq == r.seq)
            .expect("mirrored");
        self.mirror.remove(pos);
        r.page.raw()
    }

    /// Recomputes the index from scratch (`validate`), then requires the
    /// mirror to match the buffer request for request and every lazy
    /// bypass count, the cursor's included, to equal the eager one.
    pub fn check(&self) {
        self.index.validate(&self.buf, &self.inflight);
        assert_eq!(self.buf.len(), self.mirror.len(), "pending count");
        for ((h, r), m) in self.buf.iter().zip(&self.mirror) {
            assert_eq!((r.seq, r.score), (m.seq, m.score), "mirror out of step");
            assert_eq!(
                self.index.bypassed(&self.buf, h),
                m.bypassed,
                "bypass count of seq {}",
                r.seq
            );
        }
        let cursor = self.mirror.iter().find(|r| !self.blocked(r.page.raw()));
        let want = cursor.map_or(0, |r| r.bypassed);
        assert_eq!(self.index.cursor_bypass(), want, "cursor bypass count");
    }
}
