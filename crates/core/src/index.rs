//! Incremental candidate index over the IOMMU walk buffer.
//!
//! Before this module, every walker kick re-derived the scheduler's
//! candidate set from scratch: scan the window (up to 256 entries), test
//! each entry's page against the inflight set (up to `walkers` entries),
//! copy the survivors into a scratch buffer, and only then let the policy
//! pick — `O(window × walkers)` per select. Walk completion was worse: the
//! same-page piggyback collection walked the *entire* buffer, which at
//! paper scale holds thousands of entries beyond the 256-entry window.
//!
//! [`CandidateIndex`] makes both incremental. It shadows the
//! [`WalkBuffer`] with derived state that is updated on every enqueue,
//! dequeue, walk start, and rescore, so selection touches only the delta
//! since the last kick:
//!
//! * **Blocked flags** — an entry is *blocked* when its page has a walk in
//!   flight. Blocking is monotone: a blocked entry never becomes eligible
//!   again, because the completing walk removes it (piggyback). The flag
//!   is therefore set exactly twice — at push (page already inflight) and
//!   at walk start ([`block_page`](CandidateIndex::block_page)) — and eligibility
//!   tests become one bool load instead of an inflight-set scan.
//! * **Window tracking** — the scheduler only sees the `window_cap` oldest
//!   entries. The window is a prefix of the arrival list, so membership is
//!   also monotone: entries enter at the back (when a removal makes room)
//!   and leave only by removal. One tail cursor maintains it in O(1).
//! * **Per-instruction aggregates** — for each instruction with at least
//!   one eligible in-window entry: the eligible count, the oldest such
//!   entry (batching picks, FCFS-of-instruction), and the min/max
//!   `(score, seq)` keys (SJF / heaviest-first picks). The active
//!   instructions form a compact list for round-robin rotation.
//! * **Score buckets** — active instructions bucketed by their minimum
//!   score (the page-size-aware `estimate_sized` accumulation) with an
//!   occupancy bitmap, so the SJF global minimum is found without
//!   scanning all active instructions.
//! * **Eligible-head cursor** — the oldest non-blocked entry, for FCFS
//!   (and batching fallbacks) in O(1).
//! * **Lazy aging** — an aging pick must count one bypass against every
//!   eligible entry older than the pick. Those counts never increase in
//!   arrival order among eligible entries: blocking is monotone, so an
//!   entry eligible now was eligible for its whole life, and every pick
//!   that bypassed a younger eligible entry also bypassed it. The oldest
//!   starved candidate is therefore always the eligible-head `cursor`,
//!   and starvation is one comparison. The counts are kept as `u32` tags
//!   instead of per-entry counters: a pick adds 1 to the tag of the
//!   chosen entry's buffer predecessor, and a removed entry hands its tag
//!   to its predecessor, so an eligible entry's count is the sum of the
//!   tags from it to the buffer tail. Every nonzero tag sits inside the
//!   window (picks are in-window and tags only move toward the head), so
//!   that sum never walks past the window tail. `cursor_bypass` holds the
//!   sum for the cursor: a pick that skips the cursor adds 1, and each
//!   tag the cursor moves past is subtracted. A blocked entry's count is
//!   frozen into its `bypassed` field when it blocks.
//! * **Page chains** — all pending entries of one page, in arrival order.
//!   Walk completion drains exactly the same-page chain instead of
//!   scanning the whole buffer. Each chain's head and tail sit in a
//!   [`U64Map`] keyed by page number (the workspace's one open-addressed
//!   map), pre-sized so a warmed index never grows it.
//!
//! The index never decides anything by itself: each policy's arm of
//! [`Scheduler::select`](crate::sched::Scheduler::select) is one or two of
//! its queries. Their answers equal a scan of the window's eligible
//! entries with eager per-entry aging; the reference scan lives in the
//! integration tests (`tests/common/`), which compare the two pick by
//! pick.
//!
//! Each entry or instruction a loop of the index visits (the page-chain
//! and aging walks of `block_page`, the cursor advance, the
//! instruction-chain walks, the active-instruction scans and the Random
//! pick's walk) counts as one [`Work::IndexVisits`].
//!
//! # Update contract
//!
//! The owning [`Iommu`](crate::iommu::Iommu) must call, in order:
//!
//! * [`on_push`](CandidateIndex::on_push) *after* `buffer.push`, with the entry's
//!   blocked state (page already inflight);
//! * [`on_rescore`](CandidateIndex::on_rescore) when an instruction's pending chain
//!   is rescored to a new shared score;
//! * [`block_page`](CandidateIndex::block_page) when a walk starts on a page (after
//!   removing the started entry itself);
//! * [`pre_remove`](CandidateIndex::pre_remove) *before* and
//!   [`finish_remove`](CandidateIndex::finish_remove) *after* every
//!   `buffer.remove`, whatever the reason for the removal.

use std::collections::HashMap;

use ptw_types::ids::InstrId;
use ptw_types::map::U64Map;
use ptw_types::work::{self, Work};

use crate::buffer::WalkBuffer;

/// Sentinel for "no slot / no position".
const NIL: u32 = u32::MAX;

/// Per-handle shadow state (parallel to the buffer's slab).
#[derive(Clone, Copy, Debug)]
struct HandleMeta {
    /// The entry's page has a walk in flight; it will be consumed by that
    /// walk's completion and is never a candidate. Monotone.
    blocked: bool,
    /// The entry is among the `window_cap` oldest (a candidate if also
    /// not blocked). Monotone per entry: set at push or when older
    /// removals make room, cleared only by removal.
    in_window: bool,
    /// Same-page chain links (arrival order within the page).
    page_prev: u32,
    page_next: u32,
    /// Lazy-aging tag: bypasses counted against every entry up to and
    /// including this one (see the module docs).
    tag: u32,
}

// Keep `HandleMeta` at 16 bytes, with the tag in the slot after the page
// links: four handles share a cache line, and a wider array can raise
// `simbench`'s `setup_s` through glibc heap trimming (a 24-byte layout was
// reported at 6.2 → 10 ms on `sharded-2m`; see EXPERIMENTS.md).
const _: () = assert!(std::mem::size_of::<HandleMeta>() == 16);

const EMPTY_META: HandleMeta = HandleMeta {
    blocked: false,
    in_window: false,
    page_prev: NIL,
    page_next: NIL,
    tag: 0,
};

/// Aggregates over one instruction's *eligible in-window* entries.
#[derive(Clone, Copy, Debug)]
struct InstrAgg {
    /// Number of eligible in-window entries; the instruction is *active*
    /// (listed, bucketed) iff this is non-zero.
    count: u32,
    /// Handle of the oldest eligible in-window entry.
    oldest: u32,
    /// Minimum `(score, seq)` key and its holder (SJF pick).
    min_score: u32,
    min_seq: u64,
    min_handle: u32,
    /// Maximum-score key, oldest on ties, and its holder (heaviest pick).
    max_score: u32,
    max_seq: u64,
    max_handle: u32,
    /// Position in the active list, or `NIL`.
    active_pos: u32,
    /// Position in `buckets.lists[min_score]`, or `NIL`.
    bucket_pos: u32,
}

const EMPTY_AGG: InstrAgg = InstrAgg {
    count: 0,
    oldest: NIL,
    min_score: 0,
    min_seq: 0,
    min_handle: NIL,
    max_score: 0,
    max_seq: 0,
    max_handle: NIL,
    active_pos: NIL,
    bucket_pos: NIL,
};

/// Active instructions bucketed by their minimum score, with an occupancy
/// bitmap for O(1) lowest-nonempty-score lookup.
#[derive(Debug, Default)]
struct ScoreBuckets {
    lists: Vec<Vec<u32>>,
    occ: Vec<u64>,
}

impl ScoreBuckets {
    fn ensure(&mut self, score: u32) {
        let s = score as usize;
        if s >= self.lists.len() {
            self.lists.resize_with(s + 1, Vec::new);
            self.occ.resize(s / 64 + 1, 0);
        }
    }

    fn min_score(&self) -> Option<u32> {
        for (w, &bits) in self.occ.iter().enumerate() {
            if bits != 0 {
                return Some((w * 64 + bits.trailing_zeros() as usize) as u32);
            }
        }
        None
    }
}

/// First/last pending entry of one page (arrival order).
#[derive(Clone, Copy, Debug, Default)]
struct PageChain {
    head: u32,
    tail: u32,
}

/// Bookkeeping carried from [`CandidateIndex::pre_remove`] to
/// [`CandidateIndex::finish_remove`].
#[derive(Clone, Copy, Debug)]
struct PendingRemove {
    /// The removed entry was in the window (an entrant may be pulled).
    in_window: bool,
    /// `win_tail` to resume from after the removal: the removed entry's
    /// predecessor when it *was* the tail, the unchanged tail otherwise.
    win_tail_base: u32,
}

/// Incremental, policy-aware candidate state over a [`WalkBuffer`]. See
/// the module docs for the design and the update contract.
#[derive(Debug)]
pub struct CandidateIndex {
    /// Scheduler lookahead (the IOMMU's `buffer_entries`).
    window_cap: usize,
    meta: Vec<HandleMeta>,
    /// Youngest in-window handle (`NIL` when the buffer is empty).
    win_tail: u32,
    /// Number of in-window entries: `min(len, window_cap)`.
    win_count: usize,
    /// Total eligible (non-blocked) in-window entries.
    elig_count: usize,
    /// Oldest non-blocked entry in arrival order, window or not (`NIL`
    /// when every pending entry is blocked). The FCFS pick when in-window.
    cursor: u32,
    /// Bypass count of `cursor`: the tags summed from it to the window
    /// tail (0 when `cursor` is `NIL`).
    cursor_bypass: u64,
    /// Per-instruction aggregates, direct-indexed by raw id.
    instr: Vec<InstrAgg>,
    /// Raw ids of active instructions (unordered, swap-removed).
    active: Vec<u32>,
    buckets: ScoreBuckets,
    pages: U64Map<PageChain>,
    pending_remove: Option<PendingRemove>,
}

impl CandidateIndex {
    /// An empty index for a scheduler window of `window_cap` entries.
    pub fn new(window_cap: usize) -> Self {
        CandidateIndex {
            window_cap,
            meta: Vec::new(),
            win_tail: NIL,
            win_count: 0,
            elig_count: 0,
            cursor: NIL,
            cursor_bypass: 0,
            instr: Vec::new(),
            active: Vec::new(),
            buckets: ScoreBuckets::default(),
            pages: U64Map::with_capacity(1024),
            pending_remove: None,
        }
    }

    /// Number of eligible in-window entries: the candidate count.
    pub fn eligible_in_window(&self) -> usize {
        self.elig_count
    }

    // ------------------------------------------------------------------
    // Mutation hooks
    // ------------------------------------------------------------------

    /// Records a freshly pushed entry. `blocked` is whether its page
    /// already has a walk in flight. Call *after* `buffer.push`.
    pub fn on_push<W>(&mut self, buf: &WalkBuffer<W>, handle: u32, blocked: bool) {
        debug_assert!(self.pending_remove.is_none(), "push during removal");
        let h = handle as usize;
        if h >= self.meta.len() {
            self.meta.resize(h + 1, EMPTY_META);
        }
        self.meta[h] = HandleMeta {
            blocked,
            ..EMPTY_META
        };
        let r = buf.get(handle);
        let raw = r.instr.raw() as usize;
        if raw >= self.instr.len() {
            self.instr.resize(raw + 1, EMPTY_AGG);
        }

        // Page chain: append (arrival order).
        let key = r.page.raw();
        match self.pages.get_mut(key) {
            Some(chain) => {
                self.meta[h].page_prev = chain.tail;
                self.meta[chain.tail as usize].page_next = handle;
                chain.tail = handle;
            }
            None => {
                self.pages.insert(
                    key,
                    PageChain {
                        head: handle,
                        tail: handle,
                    },
                );
            }
        }

        if !blocked && self.cursor == NIL {
            debug_assert_eq!(self.cursor_bypass, 0, "tags left behind the cursor");
            self.cursor = handle;
        }
        if self.win_count < self.window_cap {
            self.meta[h].in_window = true;
            self.win_count += 1;
            self.win_tail = handle;
            if !blocked {
                self.agg_add(handle, r.instr.raw(), r.seq, r.score);
            }
        }
    }

    /// Records that `instr`'s pending chain was rescored to the shared
    /// `score`. All of the instruction's eligible entries now carry the
    /// same score, so both extremum keys collapse onto its oldest entry.
    pub fn on_rescore<W>(&mut self, buf: &WalkBuffer<W>, instr: InstrId, score: u32) {
        let raw = instr.raw() as usize;
        let Some(a) = self.instr.get(raw) else { return };
        if a.count == 0 {
            return;
        }
        let oldest = a.oldest;
        let oseq = buf.get(oldest).seq;
        let old_key = a.min_score;
        let a = &mut self.instr[raw];
        a.min_score = score;
        a.min_seq = oseq;
        a.min_handle = oldest;
        a.max_score = score;
        a.max_seq = oseq;
        a.max_handle = oldest;
        if old_key != score {
            self.bucket_move(raw as u32, old_key, score);
        }
    }

    /// Marks every pending entry of `page` blocked: a walk on it just
    /// started, so they will complete by piggyback, never by selection.
    /// Each newly blocked entry's bypass count freezes into its
    /// `bypassed` field. Call after removing the started entry itself
    /// from the buffer.
    pub fn block_page<W>(&mut self, buf: &mut WalkBuffer<W>, page: u64) {
        let Some(PageChain { tail, .. }) = self.pages.get(page) else {
            return;
        };
        // A newly blocked in-window entry's count is the sum of the tags
        // from it to the window tail. Visiting the page's entries youngest
        // first, one backward walk from the window tail collects them all;
        // with `cursor_bypass == 0` every such sum is zero.
        let aging = self.cursor_bypass > 0;
        let mut walk = self.win_tail;
        let mut suffix = 0u64;
        let mut visits = 0;
        let mut cur = tail;
        while cur != NIL {
            let h = cur;
            cur = self.meta[h as usize].page_prev;
            visits += 1;
            let m = self.meta[h as usize];
            if m.blocked {
                continue;
            }
            self.meta[h as usize].blocked = true;
            if m.in_window {
                if aging {
                    loop {
                        suffix += u64::from(self.meta[walk as usize].tag);
                        visits += 1;
                        let at = walk;
                        walk = buf.prev(walk).unwrap_or(NIL);
                        if at == h {
                            break;
                        }
                    }
                    buf.get_mut(h).bypassed += suffix;
                }
                let raw = buf.get(h).instr.raw();
                self.agg_remove(buf, h, raw);
            }
            if self.cursor == h {
                self.advance_cursor(buf);
            }
        }
        work::add(Work::IndexVisits, visits);
    }

    /// First half of a removal: updates every derived structure that needs
    /// the entry's links while it is still threaded. Call *before*
    /// `buffer.remove(handle)`, then [`finish_remove`](CandidateIndex::finish_remove)
    /// after it.
    pub fn pre_remove<W>(&mut self, buf: &WalkBuffer<W>, handle: u32) {
        debug_assert!(self.pending_remove.is_none(), "nested removal");
        let h = handle as usize;
        let r = buf.get(handle);

        // Page chain unlink.
        let (pp, pn) = (self.meta[h].page_prev, self.meta[h].page_next);
        let key = r.page.raw();
        if pp != NIL {
            self.meta[pp as usize].page_next = pn;
        }
        if pn != NIL {
            self.meta[pn as usize].page_prev = pp;
        }
        let chain = self.pages.get_mut(key).expect("entry has a page chain");
        if chain.head == handle && chain.tail == handle {
            // Last entry of the page: drop the chain.
            self.pages.remove(key);
        } else {
            if chain.head == handle {
                chain.head = pn;
            }
            if chain.tail == handle {
                chain.tail = pp;
            }
        }

        if self.meta[h].in_window && !self.meta[h].blocked {
            self.agg_remove(buf, handle, r.instr.raw());
        }
        if self.cursor == handle {
            self.advance_cursor(buf);
        }
        // Entries older than this one keep the bypasses its tag counted.
        let tag = self.meta[h].tag;
        if let Some(p) = buf.prev(handle).filter(|_| tag != 0) {
            self.meta[p as usize].tag += tag;
        }
        self.pending_remove = Some(PendingRemove {
            in_window: self.meta[h].in_window,
            win_tail_base: if self.win_tail == handle {
                buf.prev(handle).unwrap_or(NIL)
            } else {
                self.win_tail
            },
        });
    }

    /// Second half of a removal: pulls the next entry into the window (if
    /// any) now that an in-window slot freed up. Call *after*
    /// `buffer.remove`.
    pub fn finish_remove<W>(&mut self, buf: &WalkBuffer<W>) {
        let pending = self.pending_remove.take().expect("pre_remove first");
        if !pending.in_window {
            return;
        }
        let entrant = match pending.win_tail_base {
            NIL => buf.first(),
            base => buf.next(base),
        };
        match entrant {
            Some(e) => {
                let m = &mut self.meta[e as usize];
                debug_assert!(!m.in_window, "window entrant already in window");
                m.in_window = true;
                self.win_tail = e;
                if !m.blocked {
                    let r = buf.get(e);
                    self.agg_add(e, r.instr.raw(), r.seq, r.score);
                }
            }
            None => {
                self.win_count -= 1;
                self.win_tail = pending.win_tail_base;
            }
        }
    }

    /// Applies the aging bookkeeping of a successful pick: every eligible
    /// entry older than `chosen` was bypassed once. O(1): one tag on the
    /// chosen entry's predecessor (see the module docs).
    pub fn record_bypass<W>(&mut self, buf: &WalkBuffer<W>, chosen: u32) {
        if chosen == self.cursor {
            // Nothing eligible is older than the oldest eligible entry.
            return;
        }
        let p = buf.prev(chosen).expect("the cursor precedes the pick");
        self.meta[p as usize].tag += 1;
        self.cursor_bypass += 1;
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Bypass count of the oldest eligible entry — the largest count of
    /// any candidate, so it alone decides starvation (module docs).
    pub fn cursor_bypass(&self) -> u64 {
        self.cursor_bypass
    }

    /// Exact bypass count of the pending entry `handle`: its frozen
    /// `bypassed` field if blocked, plus the tags from it to the window
    /// tail if eligible. Walks at most the window; for diagnostics.
    pub fn bypassed<W>(&self, buf: &WalkBuffer<W>, handle: u32) -> u64 {
        let frozen = buf.get(handle).bypassed;
        if self.meta[handle as usize].blocked {
            return frozen;
        }
        let tags = std::iter::successors(Some(handle), |&h| buf.next(h))
            .map(|h| self.meta[h as usize])
            .take_while(|m| m.in_window)
            .map(|m| u64::from(m.tag));
        frozen + tags.sum::<u64>()
    }

    /// The FCFS pick: the oldest eligible entry, when it is inside the
    /// window.
    pub fn fcfs_pick(&self) -> Option<u32> {
        (self.cursor != NIL && self.meta[self.cursor as usize].in_window).then_some(self.cursor)
    }

    /// The SJF pick: minimum `(score, seq)` over all candidates, via the
    /// score buckets.
    pub fn sjf_pick(&self) -> Option<u32> {
        let s = self.buckets.min_score()?;
        let bucket = &self.buckets.lists[s as usize];
        work::add(Work::IndexVisits, bucket.len() as u64);
        let best = bucket
            .iter()
            .min_by_key(|&&raw| self.instr[raw as usize].min_seq)
            .expect("occupied bucket is non-empty");
        Some(self.instr[*best as usize].min_handle)
    }

    /// The heaviest-first pick: maximum score, oldest on ties, via a scan
    /// of the active instructions' max keys.
    pub fn heaviest_pick(&self) -> Option<u32> {
        let mut best: Option<(u32, u64, u32)> = None;
        work::add(Work::IndexVisits, self.active.len() as u64);
        for &raw in &self.active {
            let a = &self.instr[raw as usize];
            let better = match best {
                None => true,
                Some((s, q, _)) => a.max_score > s || (a.max_score == s && a.max_seq < q),
            };
            if better {
                best = Some((a.max_score, a.max_seq, a.max_handle));
            }
        }
        best.map(|(_, _, h)| h)
    }

    /// The oldest candidate of `instr`, if it has any (batching picks).
    pub fn oldest_of_instr(&self, instr: InstrId) -> Option<u32> {
        let a = self.instr.get(instr.raw() as usize)?;
        (a.count > 0).then_some(a.oldest)
    }

    /// Round-robin rotation minima over the active instructions: the
    /// smallest raw id overall and the smallest strictly above `last`.
    /// Returns `None` when nothing is eligible.
    pub fn rr_minima(&self, last: Option<u32>) -> Option<(u32, u32)> {
        if self.active.is_empty() {
            return None;
        }
        let mut min_all = u32::MAX;
        let mut min_above = u32::MAX;
        work::add(Work::IndexVisits, self.active.len() as u64);
        for &raw in &self.active {
            min_all = min_all.min(raw);
            if last.is_some_and(|l| raw > l) {
                min_above = min_above.min(raw);
            }
        }
        Some((min_all, min_above))
    }

    /// The `r`-th candidate in arrival order (the Random pick). `r` must
    /// be below [`eligible_in_window`](Self::eligible_in_window); every
    /// candidate precedes every out-of-window entry, so the walk never
    /// leaves the window.
    pub fn nth_eligible<W>(&self, buf: &WalkBuffer<W>, r: usize) -> u32 {
        debug_assert!(r < self.elig_count);
        let mut seen = 0usize;
        let mut visits = 0;
        let mut cur = buf.first();
        while let Some(h) = cur {
            cur = buf.next(h);
            visits += 1;
            if self.meta[h as usize].blocked {
                continue;
            }
            if seen == r {
                work::add(Work::IndexVisits, visits);
                return h;
            }
            seen += 1;
        }
        unreachable!("r < eligible_in_window")
    }

    /// Head of `page`'s pending chain (arrival order), for piggyback
    /// collection on walk completion.
    pub fn page_first(&self, page: u64) -> Option<u32> {
        self.pages.get(page).map(|c| c.head)
    }

    /// `page`-chain successor of `handle`.
    pub fn page_next(&self, handle: u32) -> Option<u32> {
        let n = self.meta[handle as usize].page_next;
        (n != NIL).then_some(n)
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// `handle` (of `raw`/`seq`/`score`) became a candidate: newly pushed
    /// in-window, or pulled into the window by a removal. In both cases it
    /// is the *youngest* of its instruction's candidates.
    fn agg_add(&mut self, handle: u32, raw: u32, seq: u64, score: u32) {
        self.elig_count += 1;
        let a = &mut self.instr[raw as usize];
        if a.count == 0 {
            *a = InstrAgg {
                count: 1,
                oldest: handle,
                min_score: score,
                min_seq: seq,
                min_handle: handle,
                max_score: score,
                max_seq: seq,
                max_handle: handle,
                active_pos: self.active.len() as u32,
                bucket_pos: NIL,
            };
            self.active.push(raw);
            self.bucket_insert(raw, score);
        } else {
            a.count += 1;
            debug_assert!(a.min_seq < seq && a.max_seq < seq);
            if score < a.min_score {
                let old = a.min_score;
                a.min_score = score;
                a.min_seq = seq;
                a.min_handle = handle;
                self.bucket_move(raw, old, score);
            }
            let a = &mut self.instr[raw as usize];
            if score > a.max_score {
                a.max_score = score;
                a.max_seq = seq;
                a.max_handle = handle;
            }
        }
    }

    /// `handle` stops being a candidate: it is being removed, or its page
    /// just went inflight (blocked). Call while it is still threaded on
    /// its instruction chain (the chain walk skips it by handle).
    fn agg_remove<W>(&mut self, buf: &WalkBuffer<W>, handle: u32, raw: u32) {
        self.elig_count -= 1;
        let a = &mut self.instr[raw as usize];
        a.count -= 1;
        if a.count == 0 {
            let (pos, bucket, key) = (a.active_pos, a.bucket_pos, a.min_score);
            *a = EMPTY_AGG;
            let removed = self.active.swap_remove(pos as usize);
            debug_assert_eq!(removed, raw);
            if (pos as usize) < self.active.len() {
                let m = self.active[pos as usize];
                self.instr[m as usize].active_pos = pos;
            }
            self.bucket_remove_at(key, bucket);
            return;
        }
        let a = self.instr[raw as usize];
        if a.oldest == handle {
            self.instr[raw as usize].oldest = self.advance_chain(buf, handle);
        }
        if a.min_handle == handle || a.max_handle == handle {
            self.recompute_extrema(buf, handle, raw);
        }
    }

    /// Finds the next eligible in-window entry on `handle`'s instruction
    /// chain (guaranteed to exist: the aggregate count is non-zero).
    fn advance_chain<W>(&self, buf: &WalkBuffer<W>, handle: u32) -> u32 {
        let mut cur = buf.instr_next(handle);
        let mut visits = 0;
        while let Some(h) = cur {
            let m = &self.meta[h as usize];
            debug_assert!(m.in_window, "younger candidate implies in-window");
            visits += 1;
            if !m.blocked {
                work::add(Work::IndexVisits, visits);
                return h;
            }
            cur = buf.instr_next(h);
        }
        unreachable!("aggregate count > 0 but no eligible chain entry")
    }

    /// Recomputes an instruction's min/max keys by walking its chain from
    /// the (already updated) oldest candidate, skipping `exclude` and the
    /// blocked, stopping at the first out-of-window entry (the chain is
    /// arrival-ordered, so out-of-window entries form a suffix).
    fn recompute_extrema<W>(&mut self, buf: &WalkBuffer<W>, exclude: u32, raw: u32) {
        let a = &self.instr[raw as usize];
        let old_key = a.min_score;
        let mut min: Option<(u32, u64, u32)> = None;
        let mut max: Option<(u32, u64, u32)> = None;
        let mut visits = 0;
        let mut cur = Some(a.oldest);
        while let Some(h) = cur {
            cur = buf.instr_next(h);
            visits += 1;
            if h == exclude {
                continue;
            }
            let m = &self.meta[h as usize];
            if !m.in_window {
                break;
            }
            if m.blocked {
                continue;
            }
            let r = buf.get(h);
            // Chain order is seq-ascending, so strict comparisons keep
            // the oldest holder on score ties (both extrema break ties
            // to the oldest).
            if min.is_none_or(|(s, _, _)| r.score < s) {
                min = Some((r.score, r.seq, h));
            }
            if max.is_none_or(|(s, _, _)| r.score > s) {
                max = Some((r.score, r.seq, h));
            }
        }
        work::add(Work::IndexVisits, visits);
        let (ms, mq, mh) = min.expect("count > 0");
        let (xs, xq, xh) = max.expect("count > 0");
        let a = &mut self.instr[raw as usize];
        a.min_score = ms;
        a.min_seq = mq;
        a.min_handle = mh;
        a.max_score = xs;
        a.max_seq = xq;
        a.max_handle = xh;
        if old_key != ms {
            self.bucket_move(raw, old_key, ms);
        }
    }

    /// Moves the cursor off the entry it names (being blocked or removed,
    /// still threaded) to the next eligible entry, subtracting every tag
    /// it moves past from `cursor_bypass`.
    fn advance_cursor<W>(&mut self, buf: &WalkBuffer<W>) {
        let mut h = self.cursor;
        let mut visits = 0;
        loop {
            self.cursor_bypass -= u64::from(self.meta[h as usize].tag);
            h = buf.next(h).unwrap_or(NIL);
            visits += 1;
            if h == NIL || !self.meta[h as usize].blocked {
                work::add(Work::IndexVisits, visits);
                self.cursor = h;
                return;
            }
        }
    }

    fn bucket_insert(&mut self, raw: u32, score: u32) {
        self.buckets.ensure(score);
        let list = &mut self.buckets.lists[score as usize];
        self.instr[raw as usize].bucket_pos = list.len() as u32;
        list.push(raw);
        self.buckets.occ[score as usize / 64] |= 1u64 << (score % 64);
    }

    fn bucket_remove_at(&mut self, score: u32, pos: u32) {
        let list = &mut self.buckets.lists[score as usize];
        list.swap_remove(pos as usize);
        if (pos as usize) < list.len() {
            let moved = list[pos as usize];
            self.instr[moved as usize].bucket_pos = pos;
        }
        if list.is_empty() {
            self.buckets.occ[score as usize / 64] &= !(1u64 << (score % 64));
        }
    }

    fn bucket_move(&mut self, raw: u32, from: u32, to: u32) {
        let pos = self.instr[raw as usize].bucket_pos;
        self.bucket_remove_at(from, pos);
        self.bucket_insert(raw, to);
    }

    /// Exhaustively recomputes every derived structure from the buffer and
    /// `inflight` pages and asserts it matches — the test-only consistency
    /// oracle. O(buffer²); never call on a hot path.
    #[doc(hidden)]
    pub fn validate<W>(&self, buf: &WalkBuffer<W>, inflight: &[(u64, usize)]) {
        let mut elig = 0usize;
        let mut win = 0usize;
        let mut first_eligible = None;
        let mut counts: HashMap<u32, u32> = HashMap::new();
        // Tags summed from the cursor onward, and the previous eligible
        // entry's bypass count (counts never increase in arrival order).
        let mut cursor_tags = 0u64;
        let mut last_count = u64::MAX;
        for (pos, (h, r)) in buf.iter().enumerate() {
            let m = &self.meta[h as usize];
            let inflight_now = inflight.iter().any(|&(p, _)| p == r.page.raw());
            assert_eq!(m.blocked, inflight_now, "blocked flag for seq {}", r.seq);
            assert_eq!(
                m.in_window,
                pos < self.window_cap,
                "window flag for seq {}",
                r.seq
            );
            if m.in_window {
                win += 1;
            }
            if !m.blocked && first_eligible.is_none() {
                first_eligible = Some(h);
            }
            if first_eligible.is_some() {
                cursor_tags += u64::from(m.tag);
            }
            if !m.in_window {
                assert_eq!(m.tag, 0, "tag outside the window at seq {}", r.seq);
            }
            if m.in_window && !m.blocked {
                elig += 1;
                *counts.entry(r.instr.raw()).or_insert(0) += 1;
                let count = self.bypassed(buf, h);
                assert!(
                    count <= last_count,
                    "bypass count rises in arrival order at seq {}",
                    r.seq
                );
                last_count = count;
            }
        }
        assert_eq!(self.cursor_bypass, cursor_tags, "cursor bypass count");
        assert_eq!(self.elig_count, elig, "eligible count");
        assert_eq!(self.win_count, win, "window count");
        assert_eq!(
            (self.cursor != NIL).then_some(self.cursor),
            first_eligible,
            "eligible-head cursor"
        );
        assert_eq!(self.active.len(), counts.len(), "active instruction set");
        for &raw in &self.active {
            let a = &self.instr[raw as usize];
            assert_eq!(Some(&a.count), counts.get(&raw), "count of instr {raw}");
            let entries: Vec<(u32, &crate::request::WalkRequest<W>)> = buf
                .iter()
                .filter(|(h, r)| {
                    r.instr.raw() == raw
                        && self.meta[*h as usize].in_window
                        && !self.meta[*h as usize].blocked
                })
                .collect();
            let oldest = entries.iter().min_by_key(|(_, r)| r.seq).unwrap();
            assert_eq!(a.oldest, oldest.0, "oldest of instr {raw}");
            let min = entries
                .iter()
                .min_by_key(|(_, r)| (r.score, r.seq))
                .unwrap();
            assert_eq!(
                (a.min_score, a.min_seq, a.min_handle),
                (min.1.score, min.1.seq, min.0),
                "min key of instr {raw}"
            );
            let max = entries
                .iter()
                .max_by_key(|(_, r)| (r.score, u64::MAX - r.seq))
                .unwrap();
            assert_eq!(
                (a.max_score, a.max_seq, a.max_handle),
                (max.1.score, max.1.seq, max.0),
                "max key of instr {raw}"
            );
            assert_eq!(
                self.buckets.lists[a.min_score as usize][a.bucket_pos as usize], raw,
                "bucket membership of instr {raw}"
            );
        }
    }
}
