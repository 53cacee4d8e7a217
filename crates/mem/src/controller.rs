//! The DRAM memory controller.
//!
//! An event-driven model of a per-channel memory controller with
//! first-ready-first-come-first-serve (FR-FCFS) scheduling [Rixner et al.,
//! ISCA 2000], the policy the paper assumes for the memory side (Section
//! III: "A keen reader will notice the parallel between the scheduling of
//! page table walks and the scheduling of memory (DRAM) accesses at the
//! memory controller"). A strict FCFS variant is provided for ablation.
//!
//! Both the GPU data path (cache misses) and the IOMMU's page table walkers
//! submit requests here, so page walks and data fetches contend for the same
//! banks — an interaction the paper's results depend on.
//!
//! # Per-bank request index
//!
//! Requests live in a per-channel slab threaded by *two* intrusive doubly
//! linked lists: a channel-wide arrival list (exact submission order, which
//! is also `MemReqId` order) and a per-bank FIFO. Each bank caches the
//! oldest queued request that hits its currently open row, so FR-FCFS
//! selection reduces to a scan over the channel's *active banks* (banks
//! with at least one queued request) instead of the whole request queue:
//! within one bank the oldest gated request is always the FIFO head and the
//! oldest gated row hit is always the cached hit, so only one or two
//! candidates per bank can ever win. Each (bank, row) chain's youngest
//! request, its append point, is kept in a [`U64Map`] keyed by the packed
//! (row, bank) pair. Shallow queues take an arrival-order
//! scan instead, whose search for a younger gate-ready row hit reads a
//! per-channel bitset of banks with a cached hit rather than the rest of
//! the queue. Each channel carries its next pick (time and request), kept
//! exact in O(1) by `submit`, so an issue costs one selection. The unit
//! tests keep the pre-index two-phase scan over the arrival list as the
//! reference every pick is checked against. DESIGN.md §13 states the
//! invariants and the equivalence argument.
//!
//! # Driving the controller
//!
//! The controller is passive: callers [`submit`](MemoryController::submit)
//! requests, then alternate [`advance`](MemoryController::advance) (which
//! issues every command schedulable at or before `now` and returns finished
//! requests) with [`next_event_time`](MemoryController::next_event_time)
//! (which tells the event loop when to come back).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ptw_types::addr::LineAddr;
use ptw_types::map::U64Map;
use ptw_types::time::Cycle;
use ptw_types::work::{self, Work};

use crate::dram::{map_address, DramConfig, DramCoord};

/// Null handle for the intrusive lists below.
const NIL: u32 = u32::MAX;

/// Identifier of an in-flight memory request, unique within one controller.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MemReqId(pub u64);

/// Who issued a memory request; used for statistics and debugging only —
/// the controller schedules both identically.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MemSource {
    /// A data-cache miss (GPU L2 miss).
    Data,
    /// A page-table access from an IOMMU walker.
    PageWalk,
}

/// Scheduling policy for pending DRAM commands.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum MemSchedPolicy {
    /// First-ready FCFS: row-buffer hits first, then oldest.
    #[default]
    FrFcfs,
    /// Strict arrival order per channel (ablation baseline).
    Fcfs,
}

/// A finished memory request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemCompletion {
    /// The request that finished.
    pub id: MemReqId,
    /// Cycle at which the data is available.
    pub at: Cycle,
    /// The line that was fetched.
    pub line: LineAddr,
    /// Originator tag the request was submitted with.
    pub source: MemSource,
}

/// One queued request: a slab slot threaded by the channel arrival list
/// (`prev`/`next`), its bank's FIFO (`bank_prev`/`bank_next`), and its
/// (bank, row) chain (`row_next`). Arrival order equals `MemReqId` order,
/// so `id` doubles as the global arrival sequence the cross-bank
/// tie-breaks compare.
#[derive(Clone, Copy, Debug)]
struct Pending {
    id: MemReqId,
    line: LineAddr,
    coord: DramCoord,
    source: MemSource,
    arrived: Cycle,
    prev: u32,
    next: u32,
    bank_prev: u32,
    bank_next: u32,
    /// Next-younger queued request with the same (bank, row), or `NIL`.
    /// Forward-only: issues always remove a chain *head* (see the hit-cache
    /// repair in [`MemoryController::advance_into`]), so no back-link is
    /// ever followed.
    row_next: u32,
}

/// Sentinel for "no row open" in [`Bank::open_row`]. Real row indices are
/// `line address / (row_bytes × total banks)`, far below `u64::MAX`
/// (checked by a debug assertion at every row open), so a plain `u64`
/// with a sentinel keeps the struct one cache line where `Option<u64>`
/// would spill it.
const NO_ROW: u64 = u64::MAX;

/// Per-bank FIFO state plus the cached facts [`MemoryController::
/// next_issue`] reduces over. Everything the scan reads per bank lives
/// here — one 64-byte struct, no slab dereferences on the scan path.
#[derive(Clone, Debug)]
struct Bank {
    ready_at: Cycle,
    /// Currently open row, or [`NO_ROW`].
    open_row: u64,
    /// Oldest / youngest queued request for this bank (FIFO ends).
    head: u32,
    tail: u32,
    /// Oldest queued request whose row equals `open_row`, or `NIL`.
    /// Maintained incrementally on enqueue (only a first hit can appear —
    /// later arrivals are younger) and repaired in O(1) after each issue
    /// (the only point where `open_row` changes): the issued entry is
    /// always the head of its (bank, row) chain, so its `row_next` is the
    /// next-oldest request for whatever row is open afterwards. Written
    /// only through [`Channel::set_hit`], which mirrors it in `hit_mask`.
    hit: u32,
    /// Index of this bank in the channel's `active` list, or `NIL` when the
    /// bank FIFO is empty.
    active_pos: u32,
    /// `arrived` / global sequence of the FIFO head (valid while
    /// `head != NIL`).
    head_arrived: Cycle,
    head_seq: u64,
    /// `arrived` / global sequence of `hit` (valid while `hit != NIL`).
    hit_arrived: Cycle,
    hit_seq: u64,
}

const _: () = assert!(
    std::mem::size_of::<Bank>() == 64,
    "Bank must stay one cache line"
);

/// Packs a (bank, row) pair into one map key. Real rows are tiny (a line
/// address divided by row bytes × total banks) and banks fit a byte
/// ([`DramConfig::validate`] bounds a channel at 256 banks), so the packed
/// key stays below 2⁶³, clear of the map's free-slot sentinel.
#[inline]
fn chain_key(bank: usize, row: u64) -> u64 {
    debug_assert!(bank < 256, "bank index exceeds the 8-bit key field");
    debug_assert!(row < 1 << 55, "row index exceeds the 55-bit key field");
    (row << 8) | bank as u64
}

impl Default for Bank {
    fn default() -> Self {
        Bank {
            ready_at: Cycle::ZERO,
            open_row: NO_ROW,
            head: NIL,
            tail: NIL,
            hit: NIL,
            active_pos: NIL,
            head_arrived: Cycle::ZERO,
            head_seq: 0,
            hit_arrived: Cycle::ZERO,
            hit_seq: 0,
        }
    }
}

#[derive(Clone, Debug)]
struct Channel {
    /// Backing store for queued requests; freed slots are chained through
    /// `next` from `free`.
    slab: Vec<Pending>,
    free: u32,
    /// Channel-wide arrival list (oldest first).
    head: u32,
    tail: u32,
    /// Number of queued (not yet issued) requests.
    len: u64,
    /// Banks that currently have at least one queued request. Unordered
    /// (swap-removed); safe because every cross-bank choice in
    /// [`MemoryController::next_issue`] compares arrival sequences
    /// explicitly, so iteration order never affects the pick.
    active: Vec<u32>,
    next_issue_at: Cycle,
    banks: Vec<Bank>,
    /// Youngest queued request per live (bank, row) chain — the O(1)
    /// append point for `row_next` threading.
    row_tails: U64Map<u32>,
    /// Bitset over banks whose cached `hit` is set (bit `b % 64` of word
    /// `b / 64`); kept in step with every write of [`Bank::hit`] by
    /// [`Channel::set_hit`]. The arrival scan's phase 2 reads it instead
    /// of walking the queue.
    hit_mask: Vec<u64>,
    /// The channel's next command: the earliest time it could issue and
    /// the slab handle it would pick then, or `None` when nothing is
    /// queued — always equal to a fresh [`MemoryController::select`].
    /// Issues re-select once; submits update it in O(1) (see
    /// [`MemoryController::submit`]), so the event loop's "when next?"
    /// and the following issue share a single selection.
    pick: Option<(Cycle, u32)>,
}

impl Channel {
    fn alloc(&mut self, p: Pending) -> u32 {
        if self.free != NIL {
            let h = self.free;
            self.free = self.slab[h as usize].next;
            self.slab[h as usize] = p;
            h
        } else {
            let h = self.slab.len() as u32;
            self.slab.push(p);
            h
        }
    }

    /// Links a new request at the tail of the arrival list, its bank's
    /// FIFO, and its (bank, row) chain, activating the bank and seeding
    /// the row-hit cache as needed. Returns the slab handle.
    fn enqueue(&mut self, mut p: Pending) -> u32 {
        let bank_idx = p.coord.bank;
        let row = p.coord.row;
        p.prev = self.tail;
        p.next = NIL;
        p.bank_prev = self.banks[bank_idx].tail;
        p.bank_next = NIL;
        p.row_next = NIL;
        let h = self.alloc(p);
        if let Some(prev_tail) = self.row_tails.insert(chain_key(bank_idx, row), h) {
            self.slab[prev_tail as usize].row_next = h;
        }
        if self.tail != NIL {
            self.slab[self.tail as usize].next = h;
        } else {
            self.head = h;
        }
        self.tail = h;
        let bank = &mut self.banks[bank_idx];
        if bank.head == NIL {
            bank.head = h;
            bank.tail = h;
            bank.head_arrived = p.arrived;
            bank.head_seq = p.id.0;
            bank.active_pos = self.active.len() as u32;
            self.active.push(bank_idx as u32);
        } else {
            let old_tail = bank.tail;
            bank.tail = h;
            self.slab[old_tail as usize].bank_next = h;
        }
        let bank = &self.banks[bank_idx];
        if bank.hit == NIL && bank.open_row == row {
            self.set_hit(bank_idx, h, p.arrived, p.id.0);
        }
        self.len += 1;
        h
    }

    /// Sets bank `b`'s cached oldest open-row request to `h` (`NIL` for
    /// none) with its arrival time and sequence, and its `hit_mask` bit to
    /// match.
    #[inline]
    fn set_hit(&mut self, b: usize, h: u32, arrived: Cycle, seq: u64) {
        let bank = &mut self.banks[b];
        bank.hit = h;
        bank.hit_arrived = arrived;
        bank.hit_seq = seq;
        let bit = 1u64 << (b % 64);
        if h == NIL {
            self.hit_mask[b / 64] &= !bit;
        } else {
            self.hit_mask[b / 64] |= bit;
        }
    }

    /// Unlinks `h` from the arrival list, its bank FIFO, and its
    /// (bank, row) chain, deactivates its bank if that emptied the bank
    /// FIFO, and returns the slot to the free list. Leaves the bank's hit
    /// cache to the caller, which rewrites it from `h`'s `row_next` after
    /// updating `open_row`. `h` must be the head of its chain — true of
    /// every issued request, the only thing ever unlinked.
    fn unlink(&mut self, h: u32) {
        let p = self.slab[h as usize];
        let bank_idx = p.coord.bank;
        // The issued entry was its chain's head, so no successor means the
        // chain just emptied.
        if p.row_next == NIL {
            let tail = self.row_tails.remove(chain_key(bank_idx, p.coord.row));
            debug_assert_eq!(tail, Some(h), "chain tail map out of step");
        }
        if p.prev != NIL {
            self.slab[p.prev as usize].next = p.next;
        } else {
            self.head = p.next;
        }
        if p.next != NIL {
            self.slab[p.next as usize].prev = p.prev;
        } else {
            self.tail = p.prev;
        }
        if p.bank_prev != NIL {
            self.slab[p.bank_prev as usize].bank_next = p.bank_next;
        }
        if p.bank_next != NIL {
            self.slab[p.bank_next as usize].bank_prev = p.bank_prev;
        }
        {
            let new_head = if self.banks[bank_idx].head == h {
                let nh = p.bank_next;
                if nh != NIL {
                    let np = &self.slab[nh as usize];
                    Some((nh, np.arrived, np.id.0))
                } else {
                    Some((NIL, Cycle::ZERO, 0))
                }
            } else {
                None
            };
            let bank = &mut self.banks[bank_idx];
            if let Some((nh, arrived, seq)) = new_head {
                bank.head = nh;
                bank.head_arrived = arrived;
                bank.head_seq = seq;
            }
            if bank.tail == h {
                bank.tail = p.bank_prev;
            }
        }
        if self.banks[bank_idx].head == NIL {
            let pos = self.banks[bank_idx].active_pos as usize;
            self.banks[bank_idx].active_pos = NIL;
            let last = self.active.pop().expect("emptied bank was active");
            if pos < self.active.len() {
                self.active[pos] = last;
                self.banks[last as usize].active_pos = pos as u32;
            }
        }
        self.slab[h as usize].next = self.free;
        self.free = h;
        self.len -= 1;
    }
}

/// Strict FCFS: the queue head, when its bank and the bus gate allow.
fn fcfs_pick(ch: &Channel) -> Option<(Cycle, u32)> {
    if ch.head == NIL {
        return None;
    }
    work::add(Work::SelectExamined, 1);
    let p = &ch.slab[ch.head as usize];
    let t = ch.banks[p.coord.bank].ready_at.max(p.arrived);
    Some((t.max(ch.next_issue_at), ch.head))
}

/// Where the FR-FCFS arrival-order scan's phase 1 stopped.
enum ScanHead {
    /// The first gate-ready request is a row hit: the pick, at the gate.
    GatedHit(u32),
    /// The first gate-ready request is no row hit. Phase 2 looks for a
    /// younger gate-ready row hit.
    Gated { first: u32 },
    /// No request is ready by the gate: the pick at the earliest ready
    /// time (`None` for an empty queue).
    Ungated(Option<(Cycle, u32)>),
}

/// Phase 1 of the FR-FCFS arrival-order scan, shared verbatim by the
/// production scan and the unit tests' legacy scan: walk the arrival list
/// until the first request ready by the bus gate. Until then the
/// earliest-ready request(s) set the candidate time, row hits breaking
/// `t_p` ties.
fn scan_phase1(ch: &Channel) -> ScanHead {
    let gate = ch.next_issue_at;
    let mut h = ch.head;
    let mut min_t: Option<Cycle> = None;
    let mut min_first: u32 = NIL;
    let mut min_hit: Option<u32> = None;
    let mut examined = 0;
    while h != NIL {
        let p = &ch.slab[h as usize];
        let bank = &ch.banks[p.coord.bank];
        let t_p = bank.ready_at.max(p.arrived);
        let hit = bank.open_row == p.coord.row;
        examined += 1;
        if t_p <= gate {
            work::add(Work::SelectExamined, examined);
            if hit {
                return ScanHead::GatedHit(h);
            }
            return ScanHead::Gated { first: h };
        }
        match min_t {
            None => {
                min_t = Some(t_p);
                min_first = h;
                min_hit = hit.then_some(h);
            }
            Some(m) if t_p < m => {
                min_t = Some(t_p);
                min_first = h;
                min_hit = hit.then_some(h);
            }
            Some(m) if t_p == m && hit && min_hit.is_none() => {
                min_hit = Some(h);
            }
            _ => {}
        }
        h = p.next;
    }
    work::add(Work::SelectExamined, examined);
    ScanHead::Ungated(min_t.map(|t| (t.max(gate), min_hit.unwrap_or(min_first))))
}

/// Aggregate statistics for one controller.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Requests submitted by the data path.
    pub data_requests: u64,
    /// Requests submitted by page walkers.
    pub walk_requests: u64,
    /// Commands that hit the open row.
    pub row_hits: u64,
    /// Commands that needed precharge + activate.
    pub row_conflicts: u64,
    /// Sum over completed requests of (completion − arrival), for average
    /// memory latency.
    pub total_latency: u64,
    /// Number of completed requests.
    pub completed: u64,
    /// Deepest request queue any single channel ever held (entries).
    pub peak_queue_depth: u64,
    /// Most banks with queued requests any single channel ever had at once.
    pub peak_busy_banks: u64,
    /// Time integral of queued requests: Σ over observed intervals of
    /// (total queued requests across all channels) × (interval cycles).
    /// Divide by [`observed_cycles`](Self::observed_cycles) for the
    /// time-weighted mean ([`mean_queue_depth`](Self::mean_queue_depth)).
    pub queue_depth_cycles: u64,
    /// Time integral of bank occupancy: Σ over observed intervals of
    /// (banks with queued requests across all channels) × (interval
    /// cycles).
    pub busy_bank_cycles: u64,
    /// Cycles covered by the two integrals above (first submit → last
    /// observed event).
    pub observed_cycles: u64,
}

impl MemStats {
    /// Average request latency in cycles (0 when nothing completed).
    pub fn avg_latency(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.total_latency as f64 / self.completed as f64
        }
    }

    /// Row-buffer hit rate over all issued commands.
    pub fn row_hit_rate(&self) -> f64 {
        let t = self.row_hits + self.row_conflicts;
        if t == 0 {
            0.0
        } else {
            self.row_hits as f64 / t as f64
        }
    }

    /// Time-weighted mean queued requests across the whole controller
    /// (0 when nothing was observed).
    pub fn mean_queue_depth(&self) -> f64 {
        if self.observed_cycles == 0 {
            0.0
        } else {
            self.queue_depth_cycles as f64 / self.observed_cycles as f64
        }
    }

    /// Time-weighted mean number of banks with queued requests across the
    /// whole controller (0 when nothing was observed).
    pub fn mean_busy_banks(&self) -> f64 {
        if self.observed_cycles == 0 {
            0.0
        } else {
            self.busy_bank_cycles as f64 / self.observed_cycles as f64
        }
    }
}

#[derive(Debug, PartialEq, Eq)]
struct InFlight {
    at: Cycle,
    id: MemReqId,
    line: LineAddr,
    source: MemSource,
}

impl Ord for InFlight {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.id).cmp(&(other.at, other.id))
    }
}

impl PartialOrd for InFlight {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The DRAM memory controller (all channels).
#[derive(Debug)]
pub struct MemoryController {
    cfg: DramConfig,
    policy: MemSchedPolicy,
    channels: Vec<Channel>,
    inflight: BinaryHeap<Reverse<InFlight>>,
    next_id: u64,
    stats: MemStats,
    /// Last cycle at which the queue-depth/bank-occupancy integrals were
    /// brought up to date.
    last_obs: Cycle,
    /// Queued requests summed over all channels (excludes in-flight).
    queued_total: u64,
    /// Active banks (non-empty bank FIFOs) summed over all channels.
    busy_banks_total: u64,
}

impl MemoryController {
    /// Creates a controller for the given DRAM configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`DramConfig::validate`].
    pub fn new(cfg: DramConfig, policy: MemSchedPolicy) -> Self {
        cfg.validate().expect("invalid DRAM configuration");
        let channels = (0..cfg.channels)
            .map(|_| Channel {
                slab: Vec::new(),
                free: NIL,
                head: NIL,
                tail: NIL,
                len: 0,
                active: Vec::new(),
                next_issue_at: Cycle::ZERO,
                banks: vec![Bank::default(); cfg.banks_per_channel()],
                row_tails: U64Map::with_capacity(32),
                hit_mask: vec![0; cfg.banks_per_channel().div_ceil(64)],
                pick: None,
            })
            .collect();
        MemoryController {
            cfg,
            policy,
            channels,
            inflight: BinaryHeap::new(),
            next_id: 0,
            stats: MemStats::default(),
            last_obs: Cycle::ZERO,
            queued_total: 0,
            busy_banks_total: 0,
        }
    }

    /// The configuration this controller was built with.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Number of requests waiting or in flight.
    pub fn outstanding(&self) -> usize {
        self.channels.iter().map(|c| c.len as usize).sum::<usize>() + self.inflight.len()
    }

    /// Brings the queue-depth and bank-occupancy time integrals up to
    /// `now`. Called at every externally observed time (`submit` /
    /// `advance_into`), so the integrals are a pure function of the
    /// submit/advance call sequence — identical across event-loop
    /// dispatch orders and across thread/process sweep paths.
    fn observe(&mut self, now: Cycle) {
        if now > self.last_obs {
            let dt = now - self.last_obs;
            self.stats.queue_depth_cycles += self.queued_total * dt;
            self.stats.busy_bank_cycles += self.busy_banks_total * dt;
            self.stats.observed_cycles += dt;
            self.last_obs = now;
        }
    }

    /// Submits a read request for `line`, arriving at cycle `now`.
    ///
    /// Keeps the channel's carried pick exact in O(1) instead of
    /// re-selecting: bank state and the bus gate only change in
    /// [`advance_into`](Self::advance_into), so a new request only adds
    /// one candidate, issuable at `x = max(bank ready, arrival, gate)`.
    /// With `(t, h)` the carried pick, under FR-FCFS the new request wins
    /// iff `x < t` (it alone is ready that early), or `x == t`, it hits
    /// its bank's open row, and `h` does not (`h` is then the oldest
    /// eligible request and no eligible row hit exists, so the youngest
    /// request wins only as the sole hit). Under strict FCFS only the
    /// queue head is picked, so the pick changes only if the queue was
    /// empty. DESIGN.md §13 gives the argument in full.
    pub fn submit(&mut self, line: LineAddr, source: MemSource, now: Cycle) -> MemReqId {
        self.observe(now);
        let id = MemReqId(self.next_id);
        self.next_id += 1;
        match source {
            MemSource::Data => self.stats.data_requests += 1,
            MemSource::PageWalk => self.stats.walk_requests += 1,
        }
        let coord = map_address(&self.cfg, line);
        let ch = &mut self.channels[coord.channel];
        let active_before = ch.active.len();
        let h = ch.enqueue(Pending {
            id,
            line,
            coord,
            source,
            arrived: now,
            prev: NIL,
            next: NIL,
            bank_prev: NIL,
            bank_next: NIL,
            row_next: NIL,
        });
        if ch.active.len() > active_before {
            self.busy_banks_total += 1;
        }
        self.queued_total += 1;
        self.stats.peak_queue_depth = self.stats.peak_queue_depth.max(ch.len);
        self.stats.peak_busy_banks = self.stats.peak_busy_banks.max(ch.active.len() as u64);
        let bank = &ch.banks[coord.bank];
        let x = bank.ready_at.max(now).max(ch.next_issue_at);
        let is_hit = |q: u32| {
            let c = ch.slab[q as usize].coord;
            ch.banks[c.bank].open_row == c.row
        };
        ch.pick = match (ch.pick, self.policy) {
            (None, _) => Some((x, h)),
            (Some((t, _)), MemSchedPolicy::FrFcfs) if x < t => Some((x, h)),
            (Some((t, old)), MemSchedPolicy::FrFcfs) if x == t && is_hit(h) && !is_hit(old) => {
                Some((x, h))
            }
            (carried, _) => carried,
        };
        id
    }

    /// The earliest time `channel` could issue its next command and the
    /// slab handle it would pick then, or `None` if nothing is queued —
    /// computed from the per-bank index in O(active banks).
    ///
    /// Equivalence with the legacy whole-queue scan (the unit tests'
    /// `next_issue_legacy`) rests on arrival times being non-decreasing
    /// along each bank FIFO (they are enqueued in arrival order), which
    /// pins every per-bank minimum to the FIFO head and every per-bank
    /// oldest row hit to the cached `hit` entry; see DESIGN.md §13 for the
    /// case analysis.
    fn next_issue(&self, channel: usize) -> Option<(Cycle, u32)> {
        let ch = &self.channels[channel];
        match self.policy {
            MemSchedPolicy::Fcfs => fcfs_pick(ch),
            MemSchedPolicy::FrFcfs => {
                if ch.head == NIL {
                    return None;
                }
                let gate = ch.next_issue_at;
                // Fast path: the globally-oldest request is a gate-ready
                // row hit — it is the oldest gate-ready hit there could
                // be, so no other candidate can displace it. This is the
                // case the legacy scan early-returned on after its first
                // iteration, and it dominates row-locality streams.
                let head = &ch.slab[ch.head as usize];
                let hb = &ch.banks[head.coord.bank];
                work::add(Work::SelectExamined, 1);
                if hb.ready_at.max(head.arrived) <= gate && hb.open_row == head.coord.row {
                    return Some((gate, ch.head));
                }
                work::add(Work::SelectExamined, ch.active.len() as u64);
                // General reduction over active banks. Everything read
                // here lives in the 64-byte `Bank` struct: a bank's
                // earliest candidate is its FIFO head
                // (`t_b = max(ready_at, head_arrived)`, arrivals are
                // non-decreasing along the FIFO), its oldest gate-ready
                // row hit is the cached `hit` iff that arrived by the
                // gate, and its oldest hit achieving `t_b` is the cached
                // `hit` iff that arrived by `t_b`.
                let mut gated_first: (u64, u32) = (u64::MAX, NIL); // (seq, handle)
                let mut gated_hit: (u64, u32) = (u64::MAX, NIL);
                let mut min_t = Cycle::MAX;
                let mut min_first: (u64, u32) = (u64::MAX, NIL);
                let mut min_hit: (u64, u32) = (u64::MAX, NIL);
                for &b in &ch.active {
                    let bank = &ch.banks[b as usize];
                    let t_b = bank.ready_at.max(bank.head_arrived);
                    if t_b <= gate {
                        if bank.head_seq < gated_first.0 {
                            gated_first = (bank.head_seq, bank.head);
                        }
                        if bank.hit != NIL && bank.hit_arrived <= gate && bank.hit_seq < gated_hit.0
                        {
                            gated_hit = (bank.hit_seq, bank.hit);
                        }
                    } else if gated_first.1 == NIL {
                        // Min tracking matters only while no bank is
                        // gate-ready: once one is, the pick happens at
                        // `gate` and ungated banks cannot contribute.
                        if t_b < min_t {
                            min_t = t_b;
                            min_first = (bank.head_seq, bank.head);
                            min_hit = if bank.hit != NIL && bank.hit_arrived <= t_b {
                                (bank.hit_seq, bank.hit)
                            } else {
                                (u64::MAX, NIL)
                            };
                        } else if t_b == min_t {
                            if bank.head_seq < min_first.0 {
                                min_first = (bank.head_seq, bank.head);
                            }
                            if bank.hit != NIL
                                && bank.hit_arrived <= t_b
                                && bank.hit_seq < min_hit.0
                            {
                                min_hit = (bank.hit_seq, bank.hit);
                            }
                        }
                    }
                }
                if gated_first.1 != NIL {
                    let h = if gated_hit.1 != NIL {
                        gated_hit.1
                    } else {
                        gated_first.1
                    };
                    return Some((gate, h));
                }
                debug_assert!(min_first.1 != NIL, "non-empty queue must yield a candidate");
                let h = if min_hit.1 != NIL {
                    min_hit.1
                } else {
                    min_first.1
                };
                Some((min_t.max(gate), h))
            }
        }
    }

    /// The production arrival-order scan: the legacy scan's phase 1, then
    /// phase 2 answered from the row-hit bank mask instead of the rest of
    /// the queue. Phase 1 stopped at the first gate-ready request, which is
    /// no row hit, and every request before it is not gate-ready, so phase
    /// 2's answer — the first gate-ready row hit after it — is the oldest
    /// gate-ready row hit in the whole queue. A bank's oldest row hit is
    /// its cached `hit`, and hits along a bank arrive in order, so that is
    /// the minimum `hit_seq` over masked banks with `ready_at` and
    /// `hit_arrived` both by the gate.
    fn next_issue_scan(&self, channel: usize) -> Option<(Cycle, u32)> {
        let ch = &self.channels[channel];
        match self.policy {
            MemSchedPolicy::Fcfs => fcfs_pick(ch),
            MemSchedPolicy::FrFcfs => match scan_phase1(ch) {
                ScanHead::GatedHit(h) => Some((ch.next_issue_at, h)),
                ScanHead::Gated { first } => {
                    let gate = ch.next_issue_at;
                    let mut best: (u64, u32) = (u64::MAX, first);
                    let mut examined = 0;
                    for (w, &word) in ch.hit_mask.iter().enumerate() {
                        let mut bits = word;
                        while bits != 0 {
                            let bank = &ch.banks[w * 64 + bits.trailing_zeros() as usize];
                            bits &= bits - 1;
                            examined += 1;
                            if bank.ready_at <= gate
                                && bank.hit_arrived <= gate
                                && bank.hit_seq < best.0
                            {
                                best = (bank.hit_seq, bank.hit);
                            }
                        }
                    }
                    work::add(Work::SelectExamined, examined);
                    Some((gate, best.1))
                }
                ScanHead::Ungated(pick) => pick,
            },
        }
    }

    /// The scheduling function: the per-bank index or the arrival scan.
    ///
    /// Both pick functions are bit-for-bit identical (§13), so this is
    /// free to route on expected cost alone: when per-bank depth is ≈ 1
    /// (queue barely longer than the active-bank list), the arrival-order
    /// scan wins — its phase 1 exits at the first gate-ready request,
    /// usually the queue head once the bus gate is pacing issue. The bank
    /// reduction only pays off when queues are deep enough that active
    /// banks ≪ queued requests. Forcing either path alone was measured
    /// slower (EXPERIMENTS.md, "The hybrid DRAM pick, measured"): the
    /// index alone on `regular` and `sharded-2m`, the scan alone on
    /// `irregular`.
    ///
    /// Each call counts one [`Work::SelectScan`] or [`Work::SelectIndex`];
    /// the queue entries and banks the chosen path reads count as
    /// [`Work::SelectExamined`].
    fn select(&self, channel: usize) -> Option<(Cycle, u32)> {
        let ch = &self.channels[channel];
        if (ch.len as usize) < ch.active.len() * 2 {
            work::add(Work::SelectScan, 1);
            self.next_issue_scan(channel)
        } else {
            work::add(Work::SelectIndex, 1);
            self.next_issue(channel)
        }
    }

    /// Issues every command schedulable at or before `now` and appends all
    /// requests that have completed by `now` to `out`, in completion order.
    pub fn advance_into(&mut self, now: Cycle, out: &mut Vec<MemCompletion>) {
        self.observe(now);
        for channel in 0..self.channels.len() {
            // The carried pick is exact, so each issue takes it as is and
            // pays one selection afterwards for the next.
            while let Some((t, h)) = self.channels[channel].pick {
                if t > now {
                    break;
                }
                let ch = &mut self.channels[channel];
                let p = ch.slab[h as usize];
                let active_before = ch.active.len();
                let was_hit_cache = ch.banks[p.coord.bank].hit == h;
                ch.unlink(h);
                if ch.active.len() < active_before {
                    self.busy_banks_total -= 1;
                }
                self.queued_total -= 1;
                let bank = &mut ch.banks[p.coord.bank];
                let hit = bank.open_row == p.coord.row;
                let service = if hit {
                    self.stats.row_hits += 1;
                    self.cfg.row_hit_cycles
                } else {
                    self.stats.row_conflicts += 1;
                    self.cfg.row_conflict_cycles
                };
                let done = t + service;
                bank.ready_at = done;
                debug_assert!(p.coord.row != NO_ROW, "row index clashes with the sentinel");
                bank.open_row = p.coord.row;
                ch.next_issue_at = t + self.cfg.bus_cycles;
                // The hit cache repairs in O(1): the issued entry was the
                // head of its (bank, row) chain — on a row *hit* it was the
                // cached oldest open-row request, on a conflict it was the
                // bank FIFO head (oldest in the bank, a fortiori oldest of
                // its row) and its row is the one now open — so either way
                // the next-oldest request for the open row is its
                // `row_next`.
                debug_assert!(
                    !hit || was_hit_cache,
                    "a row-hit issue must take the cached hit"
                );
                let nh = p.row_next;
                let (nh_arrived, nh_seq) = if nh != NIL {
                    let np = &ch.slab[nh as usize];
                    (np.arrived, np.id.0)
                } else {
                    (Cycle::ZERO, 0)
                };
                ch.set_hit(p.coord.bank, nh, nh_arrived, nh_seq);
                self.inflight.push(Reverse(InFlight {
                    at: done,
                    id: p.id,
                    line: p.line,
                    source: p.source,
                }));
                self.stats.total_latency += done - p.arrived;
                self.stats.completed += 1;
                self.channels[channel].pick = self.select(channel);
            }
        }
        while let Some(Reverse(top)) = self.inflight.peek() {
            if top.at > now {
                break;
            }
            let Reverse(f) = self.inflight.pop().expect("peeked");
            out.push(MemCompletion {
                id: f.id,
                at: f.at,
                line: f.line,
                source: f.source,
            });
        }
    }

    /// Allocating convenience form of [`advance_into`](Self::advance_into).
    pub fn advance(&mut self, now: Cycle) -> Vec<MemCompletion> {
        let mut out = Vec::new();
        self.advance_into(now, &mut out);
        out
    }

    /// The next cycle at which calling [`advance`](Self::advance) could make
    /// progress (a completion or an issue), or `None` if the controller is
    /// idle.
    pub fn next_event_time(&self) -> Option<Cycle> {
        let next_completion = self.inflight.peek().map(|Reverse(f)| f.at);
        let next_issue = self
            .channels
            .iter()
            .filter_map(|c| c.pick)
            .map(|(t, _)| t)
            .min();
        match (next_completion, next_issue) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptw_types::rng::SplitMix64;

    fn ctrl(policy: MemSchedPolicy) -> MemoryController {
        MemoryController::new(DramConfig::paper_baseline(), policy)
    }

    impl MemoryController {
        /// The pre-index whole-queue scan, kept verbatim as the reference
        /// pick: one pass over the channel's arrival list that fuses ready
        /// time and pick. Writing `t_p` for a request's own ready time
        /// (`max(bank ready, arrival)`), the issue time is
        /// `max(min t_p, next_issue_at)` and the pick at that time is the
        /// oldest row hit among eligible requests, else the oldest eligible —
        /// exactly FR-FCFS (or the queue head under strict FCFS).
        fn next_issue_legacy(&self, channel: usize) -> Option<(Cycle, u32)> {
            let ch = &self.channels[channel];
            match self.policy {
                MemSchedPolicy::Fcfs => fcfs_pick(ch),
                MemSchedPolicy::FrFcfs => match scan_phase1(ch) {
                    ScanHead::GatedHit(h) => Some((ch.next_issue_at, h)),
                    // Phase 2: a gated request exists, so the issue happens at
                    // `gate` and only an *earlier-in-queue-order* gated row hit
                    // could displace it — min tracking is dead weight from here
                    // on. Scan the remainder for the first gated hit alone.
                    ScanHead::Gated { first } => {
                        let gate = ch.next_issue_at;
                        let mut j = ch.slab[first as usize].next;
                        while j != NIL {
                            let q = &ch.slab[j as usize];
                            let bank = &ch.banks[q.coord.bank];
                            if bank.open_row == q.coord.row && bank.ready_at.max(q.arrived) <= gate
                            {
                                return Some((gate, j));
                            }
                            j = q.next;
                        }
                        Some((gate, first))
                    }
                    ScanHead::Ungated(pick) => pick,
                },
            }
        }

        /// `next_event_time` recomputed from fresh selections instead of
        /// the carried picks: the ground truth the carried picks must match.
        fn rescanned_next_event_time(&self) -> Option<Cycle> {
            let next_completion = self.inflight.peek().map(|Reverse(f)| f.at);
            let next_issue = (0..self.channels.len())
                .filter_map(|c| self.select(c))
                .map(|(t, _)| t)
                .min();
            match (next_completion, next_issue) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            }
        }

        /// Exhaustive structural check of the per-bank index: both
        /// intrusive lists well-formed and mutually consistent, the active
        /// list exactly the non-empty banks, and every hit cache the oldest
        /// queued match of its bank's open row.
        fn check_index_invariants(&self) {
            for ch in &self.channels {
                // Arrival list: well-linked, ids strictly increasing.
                let mut seen = vec![false; ch.slab.len()];
                let mut queued = 0usize;
                let mut h = ch.head;
                let mut prev = NIL;
                while h != NIL {
                    let p = &ch.slab[h as usize];
                    assert_eq!(p.prev, prev, "arrival back-link broken");
                    if prev != NIL {
                        assert!(
                            ch.slab[prev as usize].id < p.id,
                            "arrival list out of id order"
                        );
                    }
                    seen[h as usize] = true;
                    queued += 1;
                    prev = h;
                    h = p.next;
                }
                assert_eq!(ch.tail, prev, "arrival tail stale");
                assert_eq!(ch.len as usize, queued, "len out of sync");
                // Bank FIFOs: partition of the arrival list, per-bank
                // arrival order, correct head/tail/hit/active bookkeeping.
                let mut in_banks = 0usize;
                for (b, bank) in ch.banks.iter().enumerate() {
                    let mut h = bank.head;
                    let mut prev = NIL;
                    let mut oldest_hit = NIL;
                    while h != NIL {
                        let p = &ch.slab[h as usize];
                        assert_eq!(p.coord.bank, b, "entry in wrong bank FIFO");
                        assert_eq!(p.bank_prev, prev, "bank back-link broken");
                        assert!(seen[h as usize], "bank entry not in arrival list");
                        if prev != NIL {
                            assert!(
                                ch.slab[prev as usize].id < p.id,
                                "bank FIFO out of arrival order"
                            );
                        }
                        if oldest_hit == NIL && bank.open_row == p.coord.row {
                            oldest_hit = h;
                        }
                        in_banks += 1;
                        prev = h;
                        h = p.bank_next;
                    }
                    assert_eq!(bank.tail, prev, "bank tail stale");
                    assert_eq!(bank.hit, oldest_hit, "hit cache wrong for bank {b}");
                    assert_eq!(
                        ch.hit_mask[b / 64] >> (b % 64) & 1 == 1,
                        bank.hit != NIL,
                        "hit mask bit wrong for bank {b}"
                    );
                    if bank.head != NIL {
                        let hp = &ch.slab[bank.head as usize];
                        assert_eq!(bank.head_arrived, hp.arrived, "head_arrived stale");
                        assert_eq!(bank.head_seq, hp.id.0, "head_seq stale");
                    }
                    if bank.hit != NIL {
                        let hp = &ch.slab[bank.hit as usize];
                        assert_eq!(bank.hit_arrived, hp.arrived, "hit_arrived stale");
                        assert_eq!(bank.hit_seq, hp.id.0, "hit_seq stale");
                    }
                    if bank.head == NIL {
                        assert_eq!(bank.active_pos, NIL, "empty bank marked active");
                    } else {
                        let pos = bank.active_pos as usize;
                        assert_eq!(
                            ch.active.get(pos).copied(),
                            Some(b as u32),
                            "active_pos stale for bank {b}"
                        );
                    }
                }
                assert_eq!(in_banks, queued, "bank FIFOs don't partition queue");
                // (bank, row) chains: `row_next` threads same-row entries
                // in arrival order, and the tail map holds exactly the
                // live chains, each pointing at its youngest member.
                let mut chains: std::collections::HashMap<u64, Vec<u32>> = Default::default();
                let mut h = ch.head;
                while h != NIL {
                    let p = &ch.slab[h as usize];
                    chains
                        .entry(chain_key(p.coord.bank, p.coord.row))
                        .or_default()
                        .push(h);
                    h = p.next;
                }
                for (key, members) in &chains {
                    for w in members.windows(2) {
                        assert_eq!(
                            ch.slab[w[0] as usize].row_next, w[1],
                            "row chain link broken"
                        );
                    }
                    let last = *members.last().expect("chains are non-empty");
                    assert_eq!(
                        ch.slab[last as usize].row_next, NIL,
                        "chain tail has a successor"
                    );
                    assert_eq!(
                        ch.row_tails.get(*key),
                        Some(last),
                        "cached chain tail stale"
                    );
                }
                assert_eq!(
                    ch.row_tails.len(),
                    chains.len(),
                    "tail map holds dead chains"
                );
            }
        }
    }

    /// The submit-time incremental ready-cache update must agree with a
    /// full queue rescan after every operation, under both policies, across
    /// random bursts of submits interleaved with advances.
    #[test]
    fn incremental_ready_cache_matches_rescan() {
        for policy in [MemSchedPolicy::FrFcfs, MemSchedPolicy::Fcfs] {
            let mut c = ctrl(policy);
            let mut rng = SplitMix64::new(0xCAC4E);
            let mut now = Cycle::ZERO;
            let mut out = Vec::new();
            for op in 0..2_000u32 {
                if rng.next_below(4) < 3 {
                    let line = LineAddr::new(rng.next_below(1 << 20) * 64);
                    let src = if rng.next_below(2) == 0 {
                        MemSource::Data
                    } else {
                        MemSource::PageWalk
                    };
                    c.submit(line, src, now);
                } else if let Some(t) = c.next_event_time() {
                    now = t.max(now);
                    c.advance_into(now, &mut out);
                    out.clear();
                }
                let incremental = c.next_event_time();
                let rescanned = c.rescanned_next_event_time();
                assert_eq!(incremental, rescanned, "{policy:?} diverged at op {op}");
            }
        }
    }

    /// Paper-baseline address of `(channel, bank, row)`: lines alternate
    /// channels, banks stride by 128 bytes, rows by the whole bank set.
    fn line_for(cfg: &DramConfig, channel: u64, bank: u64, row: u64) -> LineAddr {
        let row_stride = cfg.row_bytes * cfg.channels as u64 * cfg.banks_per_channel() as u64;
        LineAddr::new(row * row_stride + bank * 128 + channel * 64)
    }

    /// The shape of one seeded submit/advance stream.
    #[derive(Clone, Copy, Debug)]
    enum Stream {
        /// One submit (weight `submit_w` out of 8, over `banks` × `rows`
        /// of both channels, now and then after the clock ran ahead of
        /// the last advance) or one advance to the next event, sometimes
        /// overshooting so several issues drain at once.
        Mixed {
            submit_w: u64,
            banks: u64,
            rows: u64,
        },
        /// Half bursts of 1–4 same-cycle submits from mixed sources over
        /// 6 banks × 3 rows of both channels, three in ten advances of a
        /// few cycles (which usually stop between an issue and its
        /// completion, so later submits queue behind the bus gate), two in
        /// ten advances to the next event.
        Churn,
    }

    #[derive(Debug, Default)]
    struct Coverage {
        carried_issues: u64,
        shallow_states: u64,
        deep_states: u64,
        masked_phase2_hits: u64,
        displaced_earlier: u64,
        displaced_row_hit: u64,
        burst_submits: u64,
        behind_gate_submits: u64,
    }

    /// Submits `line`, counting how it moved its channel's carried pick.
    fn submit_counting(
        c: &mut MemoryController,
        line: LineAddr,
        source: MemSource,
        now: Cycle,
        cov: &mut Coverage,
    ) {
        let channel = map_address(&c.cfg, line).channel;
        let before = c.channels[channel].pick;
        if c.channels[channel].next_issue_at > now {
            cov.behind_gate_submits += 1;
        }
        let id = c.submit(line, source, now);
        let ch = &c.channels[channel];
        if let (Some((t0, _)), Some((t1, h1))) = (before, ch.pick) {
            if ch.slab[h1 as usize].id == id {
                if t1 < t0 {
                    cov.displaced_earlier += 1;
                } else {
                    cov.displaced_row_hit += 1;
                }
            }
        }
    }

    /// Advances to `now`, counting the carried picks that fell due.
    fn advance_counting(c: &mut MemoryController, now: Cycle, cov: &mut Coverage) {
        cov.carried_issues += c
            .channels
            .iter()
            .filter(|ch| ch.pick.is_some_and(|(t, _)| t <= now))
            .count() as u64;
        c.advance_into(now, &mut Vec::new());
    }

    /// Every channel's carried `(time, handle)` against a fresh `select`,
    /// the verbatim scan, the per-bank reduction and the production
    /// arrival scan on the same state, plus the hit mask bits.
    fn check_picks(c: &MemoryController, policy: MemSchedPolicy, at: &str, cov: &mut Coverage) {
        for channel in 0..c.cfg.channels {
            let carried = c.channels[channel].pick;
            let at = format!("{at} channel {channel}");
            assert_eq!(carried, c.select(channel), "select: {at}");
            assert_eq!(carried, c.next_issue_legacy(channel), "legacy: {at}");
            assert_eq!(carried, c.next_issue(channel), "per-bank: {at}");
            assert_eq!(carried, c.next_issue_scan(channel), "scan: {at}");
            let ch = &c.channels[channel];
            for (b, bank) in ch.banks.iter().enumerate() {
                let bit = ch.hit_mask[b / 64] >> (b % 64) & 1 == 1;
                assert_eq!(bit, bank.hit != NIL, "mask bank {b}: {at}");
            }
            let routed = (ch.len as usize) < ch.active.len() * 2;
            if routed {
                cov.shallow_states += 1;
            } else {
                cov.deep_states += 1;
            }
            if let ScanHead::Gated { first } = scan_phase1(ch) {
                if policy == MemSchedPolicy::FrFcfs
                    && routed
                    && carried.is_some_and(|(_, h)| h != first)
                {
                    cov.masked_phase2_hits += 1;
                }
            }
        }
        assert_eq!(c.next_event_time(), c.rescanned_next_event_time(), "{at}");
    }

    /// The carried pick, the row-hit mask and the masked phase 2 against
    /// fresh selections. Seeded submit/advance streams run under both
    /// policies: mixed streams with shallow and deep queues and high and
    /// low row locality, and churn streams of same-cycle bursts under two
    /// seeds. After every call, each channel's carried pick must equal
    /// every selection function on the same state, which by induction
    /// makes the controller's issue order, completions and statistics
    /// those of the legacy scan. The index invariants (hit mask included)
    /// are checked after every churn operation and every 64th mixed one,
    /// and the churn streams drain to completion.
    /// Coverage floors make sure the streams exercised carried issues,
    /// masked phase-2 row-hit picks, both submit displacement rules,
    /// same-cycle bursts and submits behind the bus gate.
    #[test]
    fn carried_pick_and_hit_mask_match_fresh_selection() {
        let mut cov = Coverage::default();
        let cfg = DramConfig::paper_baseline();
        let mixed = [(6, 32, 2), (6, 8, 1024), (3, 32, 2), (3, 6, 3), (7, 4, 2)].map(
            |(submit_w, banks, rows)| Stream::Mixed {
                submit_w,
                banks,
                rows,
            },
        );
        for policy in [MemSchedPolicy::FrFcfs, MemSchedPolicy::Fcfs] {
            let streams = mixed
                .iter()
                .enumerate()
                .map(|(i, &s)| (0x0CA4_41ED + i as u64, s))
                .chain([(0x5eed_0002, Stream::Churn), (0xdead_f00d, Stream::Churn)]);
            for (seed, stream) in streams {
                let mut c = MemoryController::new(cfg.clone(), policy);
                let mut rng = SplitMix64::new(seed);
                let mut now = Cycle::ZERO;
                for op in 0..3_000u32 {
                    match stream {
                        Stream::Mixed {
                            submit_w,
                            banks,
                            rows,
                        } => {
                            if rng.next_below(8) < submit_w {
                                if rng.next_below(32) == 0 {
                                    now += rng.next_below(200);
                                }
                                let row = rng.next_below(rows);
                                let bank = rng.next_below(banks);
                                let line = line_for(&cfg, rng.next_below(2), bank, row);
                                submit_counting(&mut c, line, MemSource::Data, now, &mut cov);
                            } else {
                                if let Some(t) = c.next_event_time() {
                                    now = t.max(now) + rng.next_below(3);
                                }
                                advance_counting(&mut c, now, &mut cov);
                            }
                        }
                        Stream::Churn => match rng.next_below(10) {
                            0..=4 => {
                                let burst = 1 + rng.next_below(4);
                                for _ in 0..burst {
                                    let channel = rng.next_below(cfg.channels as u64);
                                    let line = line_for(
                                        &cfg,
                                        channel,
                                        rng.next_below(6),
                                        rng.next_below(3),
                                    );
                                    let source = if rng.next_below(2) == 0 {
                                        MemSource::Data
                                    } else {
                                        MemSource::PageWalk
                                    };
                                    submit_counting(&mut c, line, source, now, &mut cov);
                                }
                                if burst > 1 {
                                    cov.burst_submits += burst;
                                }
                            }
                            5..=7 => {
                                now += 1 + rng.next_below(25);
                                advance_counting(&mut c, now, &mut cov);
                            }
                            _ => {
                                if let Some(t) = c.next_event_time() {
                                    now = now.max(t);
                                    advance_counting(&mut c, now, &mut cov);
                                }
                            }
                        },
                    }
                    let at = format!("{policy:?} {stream:?} seed {seed:#x} op {op}");
                    check_picks(&c, policy, &at, &mut cov);
                    if op % 64 == 0 || matches!(stream, Stream::Churn) {
                        c.check_index_invariants();
                    }
                }
                c.check_index_invariants();
                if let Stream::Churn = stream {
                    while let Some(t) = c.next_event_time() {
                        now = now.max(t);
                        advance_counting(&mut c, now, &mut cov);
                        check_picks(&c, policy, &format!("{policy:?} churn drain"), &mut cov);
                    }
                    c.check_index_invariants();
                    let s = c.stats();
                    assert_eq!(s.completed, c.next_id, "{policy:?}: churn did not drain");
                    assert!(s.data_requests > 0 && s.walk_requests > 0, "{s:?}");
                    assert!(s.row_hits > 0 && s.row_conflicts > 0, "{s:?}");
                }
            }
        }
        assert!(cov.carried_issues >= 1_000, "{cov:?}");
        assert!(cov.shallow_states >= 1_000, "{cov:?}");
        assert!(cov.deep_states >= 1_000, "{cov:?}");
        assert!(cov.masked_phase2_hits >= 50, "{cov:?}");
        assert!(cov.displaced_earlier >= 100, "{cov:?}");
        assert!(cov.displaced_row_hit >= 20, "{cov:?}");
        assert!(cov.burst_submits >= 5_000, "{cov:?}");
        assert!(cov.behind_gate_submits >= 5_000, "{cov:?}");
    }

    /// Bus-gate displacement: a gated non-hit head must be displaced by a
    /// younger gated row hit, under both the index and the legacy scan.
    #[test]
    fn gated_row_hit_displaces_older_gated_conflict() {
        let cfg = DramConfig::paper_baseline();
        let mut c = MemoryController::new(cfg.clone(), MemSchedPolicy::FrFcfs);
        // Open row 0 in banks 0 and 1 of channel 0, drain fully.
        c.submit(line_for(&cfg, 0, 0, 0), MemSource::Data, Cycle::ZERO);
        c.submit(line_for(&cfg, 0, 1, 0), MemSource::Data, Cycle::ZERO);
        let t = drain(&mut c).last().unwrap().at;
        // Issue a cold request to bank 2 at `t`; the bus gate moves to
        // t + bus_cycles, i.e. *ahead* of `t`.
        c.submit(line_for(&cfg, 0, 2, 0), MemSource::Data, t);
        c.advance_into(t, &mut Vec::new());
        // Both submitted at `t` with banks ready by `t`, so both sit
        // behind the bus gate: an older conflict (bank 0, new row) and
        // a younger row hit (bank 1, open row). The issue happens at
        // the gate and the younger hit must displace the older miss —
        // the legacy scan's phase-2 path.
        let miss = c.submit(line_for(&cfg, 0, 0, 7), MemSource::Data, t);
        let hit = c.submit(line_for(&cfg, 0, 1, 0), MemSource::Data, t);
        let (gt, first) = c.next_issue(0).expect("work queued");
        assert_eq!(Some((gt, first)), c.next_issue_legacy(0));
        assert_eq!(gt, t + cfg.bus_cycles, "issue pinned to the bus gate");
        assert_eq!(
            c.channels[0].slab[first as usize].id, hit,
            "gated row hit must displace older conflict"
        );
        let done = drain(&mut c);
        assert_eq!(done[0].id, hit, "displaced hit completes first");
        assert_eq!(
            done.last().unwrap().id,
            miss,
            "older conflict completes last"
        );
    }

    /// Drains the controller fully, returning completions in order.
    fn drain(c: &mut MemoryController) -> Vec<MemCompletion> {
        let mut out = Vec::new();
        let mut guard = 0;
        while let Some(t) = c.next_event_time() {
            out.extend(c.advance(t));
            guard += 1;
            assert!(guard < 100_000, "controller did not drain");
        }
        out
    }

    /// `select` routes on queue depth per active bank. After the first
    /// issue, one request left on each of three banks is shallow: the scan
    /// reads the first, already gate-ready entry. Seven left on one bank
    /// are deep: the index reads the head, then its one active bank.
    #[test]
    #[cfg_attr(not(debug_assertions), ignore)]
    fn select_scans_shallow_queues_and_indexes_deep_ones() {
        let select_after_one_issue = |lines: &[u64]| {
            let mut c = ctrl(MemSchedPolicy::FrFcfs);
            for &line in lines {
                c.submit(LineAddr::new(line), MemSource::Data, Cycle::ZERO);
            }
            work::take();
            c.advance_into(Cycle::ZERO, &mut Vec::new());
            let w = work::take();
            let count = |k: Work| w[k as usize];
            (
                count(Work::SelectScan),
                count(Work::SelectIndex),
                count(Work::SelectExamined),
            )
        };
        // Two channels: line numbers 0, 2, 4 and 6 are banks 0 to 3 of channel 0.
        assert_eq!(select_after_one_issue(&[0, 128, 256, 384]), (1, 0, 1));
        assert_eq!(select_after_one_issue(&[0; 8]), (0, 1, 2));
    }

    #[test]
    fn single_request_completes_with_conflict_latency() {
        let mut c = ctrl(MemSchedPolicy::FrFcfs);
        let id = c.submit(LineAddr::new(0), MemSource::Data, Cycle::ZERO);
        let done = drain(&mut c);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, id);
        // Cold bank: row conflict timing.
        assert_eq!(done[0].at.raw(), c.config().row_conflict_cycles);
        assert_eq!(c.stats().row_conflicts, 1);
    }

    #[test]
    fn second_access_same_row_is_a_hit() {
        let mut c = ctrl(MemSchedPolicy::FrFcfs);
        c.submit(LineAddr::new(0), MemSource::Data, Cycle::ZERO);
        let done1 = drain(&mut c);
        let t = done1[0].at;
        c.submit(LineAddr::new(0), MemSource::Data, t);
        drain(&mut c);
        assert_eq!(c.stats().row_hits, 1);
        assert_eq!(c.stats().row_conflicts, 1);
    }

    #[test]
    fn same_bank_requests_serialize() {
        let mut c = ctrl(MemSchedPolicy::FrFcfs);
        // Same line twice -> same bank; second must wait for first.
        c.submit(LineAddr::new(0), MemSource::Data, Cycle::ZERO);
        c.submit(LineAddr::new(0), MemSource::Data, Cycle::ZERO);
        let done = drain(&mut c);
        assert_eq!(done.len(), 2);
        let gap = done[1].at - done[0].at;
        assert_eq!(gap, c.config().row_hit_cycles); // second is a row hit
    }

    #[test]
    fn different_channels_overlap() {
        let mut c = ctrl(MemSchedPolicy::FrFcfs);
        // Lines 0 and 64 map to different channels -> fully parallel.
        c.submit(LineAddr::new(0), MemSource::Data, Cycle::ZERO);
        c.submit(LineAddr::new(64), MemSource::Data, Cycle::ZERO);
        let done = drain(&mut c);
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].at, done[1].at); // identical cold-latency finishes
    }

    #[test]
    fn frfcfs_prefers_row_hit_over_older_conflict() {
        let cfg = DramConfig::paper_baseline();
        let mut c = MemoryController::new(cfg.clone(), MemSchedPolicy::FrFcfs);
        // Open row 0 of bank 0 / channel 0.
        c.submit(LineAddr::new(0), MemSource::Data, Cycle::ZERO);
        let opened = drain(&mut c);
        let t = opened[0].at;
        // Now queue: (a) older request to a *different row* of bank 0,
        // (b) younger request that hits row 0 of bank 0.
        let row_stride = cfg.row_bytes * cfg.channels as u64 * cfg.banks_per_channel() as u64;
        let a = c.submit(LineAddr::new(row_stride), MemSource::Data, t);
        let b = c.submit(LineAddr::new(0), MemSource::Data, t);
        let done = drain(&mut c);
        assert_eq!(done[0].id, b, "row hit must be served first");
        assert_eq!(done[1].id, a);
    }

    #[test]
    fn fcfs_respects_arrival_order() {
        let cfg = DramConfig::paper_baseline();
        let mut c = MemoryController::new(cfg.clone(), MemSchedPolicy::Fcfs);
        c.submit(LineAddr::new(0), MemSource::Data, Cycle::ZERO);
        let opened = drain(&mut c);
        let t = opened[0].at;
        let row_stride = cfg.row_bytes * cfg.channels as u64 * cfg.banks_per_channel() as u64;
        let a = c.submit(LineAddr::new(row_stride), MemSource::Data, t);
        let b = c.submit(LineAddr::new(0), MemSource::Data, t);
        let done = drain(&mut c);
        assert_eq!(done[0].id, a, "FCFS serves the older request first");
        assert_eq!(done[1].id, b);
    }

    #[test]
    fn bus_spacing_enforced_across_banks() {
        let mut c = ctrl(MemSchedPolicy::FrFcfs);
        // Two requests to different banks of channel 0 (lines 0 and 128).
        c.submit(LineAddr::new(0), MemSource::Data, Cycle::ZERO);
        c.submit(LineAddr::new(128), MemSource::Data, Cycle::ZERO);
        let done = drain(&mut c);
        // Banks are parallel but command issue is spaced by bus_cycles.
        let gap = done[1].at - done[0].at;
        assert_eq!(gap, c.config().bus_cycles);
    }

    #[test]
    fn stats_track_sources() {
        let mut c = ctrl(MemSchedPolicy::FrFcfs);
        c.submit(LineAddr::new(0), MemSource::Data, Cycle::ZERO);
        c.submit(LineAddr::new(64), MemSource::PageWalk, Cycle::ZERO);
        drain(&mut c);
        assert_eq!(c.stats().data_requests, 1);
        assert_eq!(c.stats().walk_requests, 1);
        assert_eq!(c.stats().completed, 2);
        assert!(c.stats().avg_latency() > 0.0);
    }

    #[test]
    fn next_event_time_none_when_idle() {
        let mut c = ctrl(MemSchedPolicy::FrFcfs);
        assert_eq!(c.next_event_time(), None);
        c.submit(LineAddr::new(0), MemSource::Data, Cycle::new(5));
        assert!(c.next_event_time().is_some());
        drain(&mut c);
        assert_eq!(c.next_event_time(), None);
        assert_eq!(c.outstanding(), 0);
    }

    #[test]
    fn advance_is_monotonic_in_completions() {
        let mut c = ctrl(MemSchedPolicy::FrFcfs);
        for i in 0..50u64 {
            c.submit(LineAddr::new(i * 64), MemSource::Data, Cycle::ZERO);
        }
        let done = drain(&mut c);
        assert_eq!(done.len(), 50);
        for w in done.windows(2) {
            assert!(w[0].at <= w[1].at, "completions out of order");
        }
    }

    #[test]
    fn heavy_load_makes_queueing_visible() {
        // With many requests to one bank, average latency must grow well
        // beyond the unloaded latency — queueing is what the paper's
        // scheduler exploits.
        let mut c = ctrl(MemSchedPolicy::FrFcfs);
        let row_stride = {
            let cfg = c.config();
            cfg.row_bytes * cfg.channels as u64 * cfg.banks_per_channel() as u64
        };
        for i in 0..32u64 {
            // All to bank 0/channel 0, alternating rows (all conflicts).
            c.submit(LineAddr::new(i * row_stride), MemSource::Data, Cycle::ZERO);
        }
        drain(&mut c);
        assert!(c.stats().avg_latency() > 10.0 * c.config().row_conflict_cycles as f64 / 2.0);
    }

    /// The queue-depth / bank-occupancy observability counters: peaks see
    /// the burst, the time integrals cover the drain, and the means are
    /// consistent with the integrals.
    #[test]
    fn occupancy_counters_track_load() {
        let mut c = ctrl(MemSchedPolicy::FrFcfs);
        // 8 requests to distinct banks of channel 0 plus 8 more to bank 0,
        // all at cycle 0.
        for i in 0..8u64 {
            c.submit(LineAddr::new(i * 128), MemSource::Data, Cycle::ZERO);
        }
        for _ in 0..8 {
            c.submit(LineAddr::new(0), MemSource::Data, Cycle::ZERO);
        }
        drain(&mut c);
        let s = *c.stats();
        assert_eq!(s.peak_queue_depth, 16, "all 16 were queued at once");
        assert_eq!(s.peak_busy_banks, 8, "eight distinct banks were busy");
        assert!(s.observed_cycles > 0);
        assert!(s.queue_depth_cycles > 0);
        assert!(s.busy_bank_cycles > 0);
        assert!(s.mean_queue_depth() > 0.0);
        assert!(s.mean_busy_banks() <= s.mean_queue_depth());
        // The integrals observed the full drain: the last issue happens
        // strictly after cycle 0, so observed time is positive and bounded
        // by the last completion.
        let drained_by = s.observed_cycles;
        assert!(drained_by <= c.next_id * c.config().row_conflict_cycles);
    }

    /// An idle controller observes nothing; counters stay zero.
    #[test]
    fn occupancy_counters_zero_when_idle() {
        let c = ctrl(MemSchedPolicy::FrFcfs);
        assert_eq!(c.next_event_time(), None);
        let s = *c.stats();
        assert_eq!(s.peak_queue_depth, 0);
        assert_eq!(s.observed_cycles, 0);
        assert_eq!(s.mean_queue_depth(), 0.0);
        assert_eq!(s.mean_busy_banks(), 0.0);
    }
}
