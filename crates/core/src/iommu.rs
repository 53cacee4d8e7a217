//! The IOMMU: TLBs, the page-walk request buffer, and the walker pool.
//!
//! This is the hardware block the paper modifies (Figure 7). Translation
//! requests that missed the GPU's TLB hierarchy arrive here; they look up
//! the IOMMU's two TLB levels, queue in the **IOMMU buffer** on a miss, and
//! are eventually picked up by one of the hardware page-table walkers. The
//! scheduler decides *which* pending request a freed walker services — the
//! paper's contribution.
//!
//! The two scheduler hooks from Figure 7 are implemented exactly:
//!
//! 1. **Arrival** ([`Iommu::translate`]): if no walker is idle and the
//!    policy is score-based, the new request probes the PWC (1-a) and the
//!    instruction's pending requests are rescored (1-b).
//! 2. **Walker ready** ([`Iommu::start_walkers`]): the scheduler picks
//!    from the buffer window (2-a) and the chosen request performs its
//!    PWC lookup and walk (2-b).
//!
//! Each PWC action reads each cached level above the page's leaf once
//! ([`PageWalkCache`]). The TLBs and the PWC stay private: what the
//! IOMMU did is reported through [`IommuStats`] alone.
//!
//! # Driving the walkers
//!
//! Walkers read PTEs from DRAM one level at a time. The IOMMU is passive:
//! [`start_walkers`](Iommu::start_walkers) hands back the first read of
//! each newly started walk as a [`MemRead`]; the caller submits it to the
//! memory controller and reports the completion via
//! [`memory_done_into`](Iommu::memory_done_into), which either returns the
//! next read or appends the finished translations to the caller-owned
//! completion buffer.

#[cfg(debug_assertions)]
use std::collections::HashMap;

use ptw_pagetable::pwc::{PageWalkCache, PwcConfig, WalkPlan};
use ptw_pagetable::table::PageTable;
use ptw_tlb::{Tlb, TlbConfig};
use ptw_types::addr::{PageSize, PhysAddr, PhysFrame, VirtPage};
use ptw_types::ids::{InstrId, WalkerId};
use ptw_types::time::Cycle;

use crate::buffer::WalkBuffer;
use crate::index::CandidateIndex;
use crate::request::WalkRequest;
use crate::sched::{Scheduler, SchedulerKind};

/// Configuration of the IOMMU (Table I baseline in
/// [`paper_baseline`](IommuConfig::paper_baseline)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IommuConfig {
    /// IOMMU buffer entries — the scheduler's lookahead window (256).
    pub buffer_entries: usize,
    /// Number of concurrent hardware page table walkers (8).
    pub walkers: usize,
    /// IOMMU L1 TLB geometry (32 entries).
    pub l1_tlb: TlbConfig,
    /// IOMMU L2 TLB geometry (256 entries).
    pub l2_tlb: TlbConfig,
    /// Page-walk-cache geometry and counter-pinning switch.
    pub pwc: PwcConfig,
    /// Which walk scheduling policy to use.
    pub scheduler: SchedulerKind,
    /// Bypass count after which a starved request is force-prioritized
    /// (the paper found two million works well).
    pub aging_threshold: u64,
    /// Latency of one IOMMU TLB level lookup, in GPU cycles.
    pub tlb_cycles: u64,
    /// Latency of a PWC lookup before the walk starts, in GPU cycles.
    pub pwc_cycles: u64,
    /// Seed for the Random scheduling policy.
    pub seed: u64,
}

impl IommuConfig {
    /// Table I: 256 buffer entries, 8 walkers, 32/256-entry L1/L2 TLBs,
    /// FCFS scheduling.
    pub fn paper_baseline() -> Self {
        IommuConfig {
            buffer_entries: 256,
            walkers: 8,
            l1_tlb: TlbConfig::paper_iommu_l1(),
            l2_tlb: TlbConfig::paper_iommu_l2(),
            pwc: PwcConfig::paper_baseline(),
            scheduler: SchedulerKind::Fcfs,
            // The paper uses two million requests on full-length gem5 runs
            // (tens of millions of walk requests); our scaled workloads see
            // tens of thousands of walks, so the equivalent proportional
            // bound is a few thousand. Override for paper-scale runs.
            aging_threshold: 1_500,
            tlb_cycles: 8,
            pwc_cycles: 4,
            seed: 0x10_1010,
        }
    }

    /// The baseline with a different scheduler.
    pub fn with_scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = scheduler;
        self
    }
}

impl Default for IommuConfig {
    fn default() -> Self {
        Self::paper_baseline()
    }
}

/// Immediate outcome of a translation request arriving at the IOMMU.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TranslationOutcome {
    /// Hit in an IOMMU TLB; the translation is available at `ready_at`.
    Hit {
        /// The translated frame.
        frame: PhysFrame,
        /// When the reply leaves the IOMMU.
        ready_at: Cycle,
        /// Whether the hit came from a 2 MiB large-page entry.
        large: bool,
    },
    /// Missed everywhere; a walk request was enqueued. The waiter token is
    /// returned later through a completed-walk
    /// [`memory_done_into`](Iommu::memory_done_into).
    WalkPending,
}

/// A PTE read a walker wants the memory system to perform.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemRead {
    /// Which walker issued the read.
    pub walker: WalkerId,
    /// Physical address of the PTE.
    pub addr: PhysAddr,
    /// Earliest cycle the read may be submitted to the controller.
    pub issue_at: Cycle,
}

/// A translation completed by the walker pool.
#[derive(Clone, Debug)]
pub struct CompletedTranslation<W> {
    /// The translated page.
    pub page: VirtPage,
    /// The resulting frame.
    pub frame: PhysFrame,
    /// Instruction that issued the request.
    pub instr: InstrId,
    /// When the request entered the IOMMU buffer.
    pub enqueued_at: Cycle,
    /// When the translation completed.
    pub completed_at: Cycle,
    /// `true` if this entry's own walk produced the result; `false` if it
    /// piggybacked on a concurrent walk of the same page.
    pub via_walk: bool,
    /// Memory accesses performed by the satisfying walk.
    pub walk_accesses: u8,
    /// Global service-order number of the satisfying walk (used for the
    /// interleaving analysis, Figure 5).
    pub service_seq: u64,
    /// Whether the satisfying walk resolved a 2 MiB large-page leaf.
    pub large: bool,
    /// Caller token from [`Iommu::translate`].
    pub waiter: W,
}

/// Counters the experiment harness reads out.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IommuStats {
    /// Walk requests enqueued = misses in the whole TLB hierarchy
    /// (the paper's Figure 11 metric).
    pub walk_requests: u64,
    /// Walks actually executed by a walker.
    pub walks_performed: u64,
    /// Requests satisfied by piggybacking on a same-page walk.
    pub merged_completions: u64,
    /// Total PTE memory reads issued.
    pub total_walk_accesses: u64,
    /// Peak number of pending requests observed in the buffer.
    pub peak_pending: usize,
    /// Sum of (completion − enqueue) over all completed walk requests.
    pub total_walk_latency: u64,
    /// Number of completed walk requests (own + merged).
    pub completed_requests: u64,
    /// Walks that resolved a 2 MiB large-page leaf (subset of
    /// `walks_performed`).
    pub large_walks_performed: u64,
    /// Completed requests satisfied by a large-page walk (subset of
    /// `completed_requests`).
    pub large_completed_requests: u64,
    /// Sum of (completion − enqueue) over large-page walk requests
    /// (subset of `total_walk_latency`).
    pub large_total_walk_latency: u64,
}

impl IommuStats {
    /// Average walk-request latency in cycles.
    pub fn avg_walk_latency(&self) -> f64 {
        if self.completed_requests == 0 {
            0.0
        } else {
            self.total_walk_latency as f64 / self.completed_requests as f64
        }
    }

    /// Average memory accesses per executed walk.
    pub fn avg_accesses_per_walk(&self) -> f64 {
        if self.walks_performed == 0 {
            0.0
        } else {
            self.total_walk_accesses as f64 / self.walks_performed as f64
        }
    }

    /// Average large-page walk-request latency in cycles.
    pub fn avg_large_walk_latency(&self) -> f64 {
        if self.large_completed_requests == 0 {
            0.0
        } else {
            self.large_total_walk_latency as f64 / self.large_completed_requests as f64
        }
    }

    /// Average base (4 KiB) walk-request latency in cycles.
    pub fn avg_base_walk_latency(&self) -> f64 {
        let base_requests = self.completed_requests - self.large_completed_requests;
        if base_requests == 0 {
            0.0
        } else {
            (self.total_walk_latency - self.large_total_walk_latency) as f64 / base_requests as f64
        }
    }

    /// Merges `other`'s counters into `self` (summing per-IOMMU stats
    /// into the topology aggregate; `peak_pending` takes the max since
    /// the shards' peaks need not coincide in time).
    pub fn absorb(&mut self, other: &IommuStats) {
        self.walk_requests += other.walk_requests;
        self.walks_performed += other.walks_performed;
        self.merged_completions += other.merged_completions;
        self.total_walk_accesses += other.total_walk_accesses;
        self.peak_pending = self.peak_pending.max(other.peak_pending);
        self.total_walk_latency += other.total_walk_latency;
        self.completed_requests += other.completed_requests;
        self.large_walks_performed += other.large_walks_performed;
        self.large_completed_requests += other.large_completed_requests;
        self.large_total_walk_latency += other.large_total_walk_latency;
    }
}

#[derive(Debug)]
enum WalkerState<W> {
    Idle,
    Busy {
        request: WalkRequest<W>,
        plan: WalkPlan,
        reads_done: usize,
        service_seq: u64,
    },
}

/// One pending buffer entry as captured by [`Iommu::snapshot`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PendingWalkSnapshot {
    /// Raw virtual page number.
    pub page: u64,
    /// Raw instruction id.
    pub instr: u32,
    /// Arrival sequence number.
    pub seq: u64,
    /// Shared per-instruction score.
    pub score: u32,
    /// Aging bypass counter.
    pub bypassed: u64,
}

/// One walker's state as captured by [`Iommu::snapshot`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalkerSnapshot {
    /// The walker has no walk in flight.
    Idle,
    /// The walker is mid-walk.
    Busy {
        /// Raw virtual page number being walked.
        page: u64,
        /// Raw id of the instruction that requested the walk.
        instr: u32,
        /// PTE reads already completed.
        reads_done: usize,
        /// PTE reads the walk needs in total.
        reads_total: usize,
    },
}

/// A diagnostic freeze-frame of the scheduling state, attached to livelock
/// and budget-exhaustion errors so a wedged run explains itself: how many
/// requests are queued and for which instructions, the oldest entries in
/// arrival order, and what every walker is doing.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IommuSnapshot {
    /// Which IOMMU of a multi-IOMMU topology this is (`None` when there
    /// is only one, which keeps its report unnumbered).
    pub iommu: Option<usize>,
    /// Requests waiting in the buffer.
    pub pending: usize,
    /// Pending request count per instruction (raw id, count), sorted by
    /// instruction id.
    pub pending_per_instr: Vec<(u32, usize)>,
    /// The oldest pending entries in arrival order (capped at
    /// [`IommuSnapshot::OLDEST_CAP`] to bound diagnostic size).
    pub oldest: Vec<PendingWalkSnapshot>,
    /// Every walker's state, indexed by walker id.
    pub walkers: Vec<WalkerSnapshot>,
}

impl IommuSnapshot {
    /// Maximum buffer entries reproduced verbatim in [`IommuSnapshot::oldest`].
    pub const OLDEST_CAP: usize = 8;

    /// Number of walkers captured mid-walk.
    pub fn busy_walkers(&self) -> usize {
        self.walkers
            .iter()
            .filter(|w| matches!(w, WalkerSnapshot::Busy { .. }))
            .count()
    }
}

impl std::fmt::Display for IommuSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if let Some(i) = self.iommu {
            write!(f, "IOMMU {i}: ")?;
        }
        writeln!(
            f,
            "{} pending walk request(s), {}/{} walkers busy",
            self.pending,
            self.busy_walkers(),
            self.walkers.len()
        )?;
        if !self.pending_per_instr.is_empty() {
            write!(f, "  pending per instruction:")?;
            for (instr, n) in &self.pending_per_instr {
                write!(f, " i{instr}x{n}")?;
            }
            writeln!(f)?;
        }
        for p in &self.oldest {
            writeln!(
                f,
                "  oldest: seq={} page={:#x} instr={} score={} bypassed={}",
                p.seq, p.page, p.instr, p.score, p.bypassed
            )?;
        }
        for (i, w) in self.walkers.iter().enumerate() {
            match w {
                WalkerSnapshot::Idle => writeln!(f, "  walker {i}: idle")?,
                WalkerSnapshot::Busy {
                    page,
                    instr,
                    reads_done,
                    reads_total,
                } => writeln!(
                    f,
                    "  walker {i}: page {page:#x} instr {instr} ({reads_done}/{reads_total} reads)"
                )?,
            }
        }
        Ok(())
    }
}

/// The IOMMU.
///
/// Generic over the caller's waiter token `W`, returned when the
/// translation completes.
#[derive(Debug)]
pub struct Iommu<W> {
    cfg: IommuConfig,
    l1_tlb: Tlb,
    l2_tlb: Tlb,
    pwc: PageWalkCache,
    scheduler: Scheduler,
    buffer: WalkBuffer<W>,
    /// Incremental candidate state shadowing `buffer` (blocked flags,
    /// window membership, per-instruction aggregates, same-page chains),
    /// maintained on every push/remove/walk-start. The scheduler selects
    /// from it, and the completion fan-out drains its page chains.
    index: CandidateIndex,
    walkers: Vec<WalkerState<W>>,
    /// Pages currently being walked → walker index, to stop a second
    /// walker from redundantly walking the same page. At most one entry
    /// per walker, so a dense pair list beats a hash map: the blocked
    /// probe on arrival is a ≤-16-entry linear scan with no hashing.
    inflight_pages: Vec<(u64, usize)>,
    /// Count of `Busy` entries in `walkers`, maintained on every state
    /// transition: the free-walker test sits inside the per-arrival and
    /// per-completion hot loops, where an O(walkers) rescan shows up.
    busy_count: usize,
    /// Memoised "the last selection found nothing eligible". A fruitless
    /// select has no side effects (no aging, no RNG draw), and its inputs
    /// are only the buffered requests and the inflight-page set — so the
    /// outcome holds, and selection can be skipped, until one of those
    /// changes: a new request entering the buffer or a walk completing.
    /// Starvation state cannot flip it either, because bypass counts move
    /// only on *successful* selects.
    start_blocked: bool,
    next_seq: u64,
    next_service_seq: u64,
    stats: IommuStats,
    /// Debug-build bookkeeping for the score invariant: how many scored
    /// requests each instruction has contributed since its accumulated
    /// score last restarted from zero. The paper's scoring adds one PWC
    /// estimate in `1..=4` per scored arrival, so after `n` such arrivals
    /// the shared score must sit in `n..=4n`.
    #[cfg(debug_assertions)]
    debug_scored: HashMap<u32, u32>,
}

impl<W> Iommu<W> {
    /// Creates an idle IOMMU.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero walkers or buffer entries.
    pub fn new(cfg: IommuConfig) -> Self {
        assert!(cfg.walkers > 0, "IOMMU needs at least one walker");
        assert!(cfg.buffer_entries > 0, "IOMMU buffer cannot be empty");
        let mut walkers = Vec::with_capacity(cfg.walkers);
        walkers.resize_with(cfg.walkers, || WalkerState::Idle);
        Iommu {
            cfg,
            l1_tlb: Tlb::new(cfg.l1_tlb),
            l2_tlb: Tlb::new(cfg.l2_tlb),
            pwc: PageWalkCache::new(cfg.pwc),
            scheduler: Scheduler::new(cfg.scheduler, cfg.aging_threshold, cfg.seed),
            buffer: WalkBuffer::new(),
            index: CandidateIndex::new(cfg.buffer_entries),
            walkers,
            inflight_pages: Vec::new(),
            busy_count: 0,
            start_blocked: false,
            next_seq: 0,
            next_service_seq: 0,
            stats: IommuStats::default(),
            #[cfg(debug_assertions)]
            debug_scored: HashMap::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &IommuConfig {
        &self.cfg
    }

    /// Accumulated counters.
    pub fn stats(&self) -> &IommuStats {
        &self.stats
    }

    /// Number of requests waiting in the buffer.
    pub fn pending(&self) -> usize {
        self.buffer.len()
    }

    /// Number of walkers currently executing a walk.
    pub fn busy_walkers(&self) -> usize {
        debug_assert_eq!(
            self.busy_count,
            self.walkers
                .iter()
                .filter(|w| matches!(w, WalkerState::Busy { .. }))
                .count(),
            "busy_count out of sync with walker states"
        );
        self.busy_count
    }

    fn has_free_walker(&self) -> bool {
        self.busy_walkers() < self.walkers.len()
    }

    /// Whether a [`start_walkers`](Self::start_walkers) call could start
    /// anything at all: an idle walker exists, the buffer is non-empty,
    /// and the pending set is not known-blocked from a previous selection.
    /// Callers use this to skip the whole selection path on the (common)
    /// cycles where every walker is busy or no walk can be dispatched.
    pub fn can_start(&self) -> bool {
        !self.start_blocked && self.has_free_walker() && !self.buffer.is_empty()
    }

    /// Test-only: exhaustively recomputes the candidate index from the
    /// buffer and inflight-page set and panics on any divergence.
    #[doc(hidden)]
    pub fn validate_candidate_index(&self) {
        self.index.validate(&self.buffer, &self.inflight_pages);
    }

    /// Test-only: picks where a starved request pre-empted the policy.
    #[doc(hidden)]
    pub fn starvation_forced_picks(&self) -> u64 {
        self.scheduler.forced_picks()
    }

    /// Captures a diagnostic freeze-frame of buffer and walker state for
    /// attachment to livelock / budget-exhaustion errors.
    pub fn snapshot(&self) -> IommuSnapshot {
        // Aggregate per-instruction counts without a hash map: collect the
        // raw ids, sort, and run-length encode.
        let mut ids: Vec<u32> = self.buffer.iter().map(|(_, r)| r.instr.raw()).collect();
        ids.sort_unstable();
        let mut pending_per_instr: Vec<(u32, usize)> = Vec::new();
        for id in ids {
            match pending_per_instr.last_mut() {
                Some((last, n)) if *last == id => *n += 1,
                _ => pending_per_instr.push((id, 1)),
            }
        }
        // The arrival list is already in ascending-seq order.
        let oldest: Vec<PendingWalkSnapshot> = self
            .buffer
            .iter()
            .take(IommuSnapshot::OLDEST_CAP)
            .map(|(h, r)| PendingWalkSnapshot {
                page: r.page.raw(),
                instr: r.instr.raw(),
                seq: r.seq,
                score: r.score,
                bypassed: self.index.bypassed(&self.buffer, h),
            })
            .collect();
        let walkers = self
            .walkers
            .iter()
            .map(|w| match w {
                WalkerState::Idle => WalkerSnapshot::Idle,
                WalkerState::Busy {
                    request,
                    plan,
                    reads_done,
                    ..
                } => WalkerSnapshot::Busy {
                    page: request.page.raw(),
                    instr: request.instr.raw(),
                    reads_done: *reads_done,
                    reads_total: plan.pte_reads().len(),
                },
            })
            .collect();
        IommuSnapshot {
            iommu: None,
            pending: self.buffer.len(),
            pending_per_instr,
            oldest,
            walkers,
        }
    }

    /// A translation request (one coalesced page of one SIMD instruction)
    /// arrives from the GPU at cycle `now`.
    ///
    /// On an IOMMU TLB hit the frame is returned with its ready time. On a
    /// miss the request joins the walk buffer (scored per the paper when
    /// the policy needs it) and `waiter` will come back from a later
    /// completed-walk [`memory_done_into`](Self::memory_done_into).
    pub fn translate(
        &mut self,
        page: VirtPage,
        instr: InstrId,
        waiter: W,
        now: Cycle,
    ) -> TranslationOutcome {
        self.translate_sized(page, PageSize::Base4K, instr, waiter, now)
    }

    /// Page-size-aware form of [`translate`](Self::translate): `size` is
    /// the caller's knowledge of the page's mapping size (from the
    /// workload's page table), so SJF scoring estimates the shorter large
    /// walk correctly. The all-4K call path is bit-identical to
    /// [`translate`](Self::translate).
    pub fn translate_sized(
        &mut self,
        page: VirtPage,
        size: PageSize,
        instr: InstrId,
        waiter: W,
        now: Cycle,
    ) -> TranslationOutcome {
        if let Some((frame, large)) = self.l1_tlb.lookup_sized(page) {
            return TranslationOutcome::Hit {
                frame,
                ready_at: now + self.cfg.tlb_cycles,
                large,
            };
        }
        if let Some((frame, large)) = self.l2_tlb.lookup_sized(page) {
            if large {
                let base = PhysFrame::new(frame.raw() - page.large_offset());
                self.l1_tlb.fill_large(page, base);
            } else {
                self.l1_tlb.fill(page, frame);
            }
            return TranslationOutcome::Hit {
                frame,
                ready_at: now + 2 * self.cfg.tlb_cycles,
                large,
            };
        }
        let enqueued_at = now + 2 * self.cfg.tlb_cycles;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.stats.walk_requests += 1;

        // Paper, action 1: when a walker is idle the request will start
        // immediately and no scoring happens; otherwise score-based
        // policies probe the PWC (1-a) and rescore the instruction's
        // pending requests (1-b).
        let mut own_estimate = 0u8;
        let mut score = 0u32;
        if !self.has_free_walker() && self.cfg.scheduler.uses_scores() {
            own_estimate = self.pwc.estimate_sized(page, size).accesses;
            // All pending requests of one instruction share a score, so
            // the chain head holds the prior (O(1)); the rescore walks
            // only this instruction's chain (O(chain), not O(buffer)).
            let prior = self
                .buffer
                .instr_first(instr)
                .map(|h| self.buffer.get(h).score)
                .unwrap_or(0);
            score = prior + own_estimate as u32;
            let mut cursor = self.buffer.instr_first(instr);
            while let Some(h) = cursor {
                self.buffer.get_mut(h).score = score;
                cursor = self.buffer.instr_next(h);
            }
            self.index.on_rescore(&self.buffer, instr, score);
            #[cfg(debug_assertions)]
            {
                // `prior == 0` means no scored contribution of this
                // instruction is still pending, so accumulation restarts.
                let n = self
                    .debug_scored
                    .entry(instr.raw())
                    .and_modify(|n| *n = if prior == 0 { 1 } else { *n + 1 })
                    .or_insert(1);
                debug_assert!(
                    (*n..=4 * *n).contains(&score),
                    "instr {instr:?} score {score} outside {n}..=4*{n} after {n} scored walks",
                );
            }
        }

        let blocked = self.inflight_pages.iter().any(|&(p, _)| p == page.raw());
        let handle = self.buffer.push(WalkRequest {
            page,
            instr,
            seq,
            enqueued_at,
            own_estimate,
            score,
            bypassed: 0,
            waiter,
        });
        self.index.on_push(&self.buffer, handle, blocked);
        self.start_blocked = false;
        self.stats.peak_pending = self.stats.peak_pending.max(self.buffer.len());
        TranslationOutcome::WalkPending
    }

    /// Assigns pending requests to idle walkers (scheduler action 2-a) and
    /// returns the first PTE read of each started walk.
    ///
    /// Call after [`translate`](Self::translate) misses and after every
    /// walk-completing [`memory_done_into`](Self::memory_done_into).
    ///
    /// # Panics
    ///
    /// Panics if a scheduled page is not mapped in `table` — workloads
    /// premap every page they touch, so this indicates a harness bug.
    pub fn start_walkers(&mut self, table: &PageTable, now: Cycle) -> Vec<MemRead> {
        let mut reads = Vec::new();
        self.start_walkers_into(table, now, &mut reads);
        reads
    }

    /// Buffer-reusing form of [`start_walkers`](Self::start_walkers):
    /// appends the first PTE read of each started walk to `reads` instead
    /// of allocating a fresh vector.
    ///
    /// # Panics
    ///
    /// As [`start_walkers`](Self::start_walkers).
    pub fn start_walkers_into(&mut self, table: &PageTable, now: Cycle, reads: &mut Vec<MemRead>) {
        if self.start_blocked {
            return;
        }
        while self.has_free_walker() && !self.buffer.is_empty() {
            let Some(handle) = self.scheduler.select(&self.buffer, &mut self.index) else {
                // The index sees window *membership* exactly (pull-ins
                // included), and eligibility is monotone — so "nothing
                // eligible" holds until an arrival or completion perturbs
                // it, and both of those clear the flag.
                self.start_blocked = true;
                break;
            };
            self.index.pre_remove(&self.buffer, handle);
            let request = self.buffer.remove(handle);
            self.index.finish_remove(&self.buffer);
            let walker_idx = self
                .walkers
                .iter()
                .position(|w| matches!(w, WalkerState::Idle))
                .expect("has_free_walker checked");
            let plan = self
                .pwc
                .begin_walk(table, request.page)
                .unwrap_or_else(|| panic!("page {:?} not mapped", request.page));
            let service_seq = self.next_service_seq;
            self.next_service_seq += 1;
            self.stats.walks_performed += 1;
            self.stats.total_walk_accesses += plan.accesses() as u64;
            self.inflight_pages.push((request.page.raw(), walker_idx));
            self.index.block_page(&mut self.buffer, request.page.raw());
            reads.push(MemRead {
                walker: WalkerId(walker_idx as u8),
                addr: plan.pte_reads()[0],
                issue_at: now + self.cfg.pwc_cycles,
            });
            self.walkers[walker_idx] = WalkerState::Busy {
                request,
                plan,
                reads_done: 0,
                service_seq,
            };
            self.busy_count += 1;
        }
    }

    /// Reports that the outstanding PTE read of `walker` finished at `now`.
    ///
    /// Returns `Some(read)` when the walk needs another PTE read, or
    /// `None` when it finished — in which case the completed translations
    /// (the walker's own plus all piggybacked same-page requests) have
    /// been *appended* to `completions`; call
    /// [`start_walkers`](Self::start_walkers) afterwards to refill the
    /// idle walker. The caller owns (and reuses) the completion buffer:
    /// with a warmed buffer this path performs no heap allocation.
    ///
    /// # Panics
    ///
    /// Panics if `walker` is idle (a protocol violation by the caller).
    pub fn memory_done_into(
        &mut self,
        walker: WalkerId,
        now: Cycle,
        completions: &mut Vec<CompletedTranslation<W>>,
    ) -> Option<MemRead> {
        let widx = walker.0 as usize;
        let state = &mut self.walkers[widx];
        let WalkerState::Busy {
            plan, reads_done, ..
        } = state
        else {
            panic!("memory_done on idle {walker:?}");
        };
        *reads_done += 1;
        if *reads_done < plan.pte_reads().len() {
            return Some(MemRead {
                walker,
                addr: plan.pte_reads()[*reads_done],
                issue_at: now,
            });
        }
        // Walk complete.
        let WalkerState::Busy {
            request,
            plan,
            service_seq,
            ..
        } = std::mem::replace(state, WalkerState::Idle)
        else {
            unreachable!("matched Busy above");
        };
        self.busy_count -= 1;
        self.start_blocked = false;
        let page = request.page;
        let frame = plan.frame;
        let large = plan.is_large();
        self.pwc.complete_walk(&plan);
        if large {
            let base = plan.base_frame();
            self.l2_tlb.fill_large(page, base);
            self.l1_tlb.fill_large(page, base);
            self.stats.large_walks_performed += 1;
        } else {
            self.l2_tlb.fill(page, frame);
            self.l1_tlb.fill(page, frame);
        }
        if let Some(i) = self
            .inflight_pages
            .iter()
            .position(|&(p, _)| p == page.raw())
        {
            self.inflight_pages.swap_remove(i);
        }

        // A walk started on arrival outruns its own request's modelled
        // enqueue time (arrival + both TLB lookups) when the PWC and DRAM
        // are faster than the lookups; like a young piggybacked entry
        // below, the request then completes as soon as it is enqueued.
        let done_at = now.max(request.enqueued_at);
        self.stats.total_walk_latency += done_at - request.enqueued_at;
        self.stats.completed_requests += 1;
        if large {
            self.stats.large_total_walk_latency += done_at - request.enqueued_at;
            self.stats.large_completed_requests += 1;
        }
        completions.push(CompletedTranslation {
            page,
            frame,
            instr: request.instr,
            enqueued_at: request.enqueued_at,
            completed_at: done_at,
            via_walk: true,
            walk_accesses: plan.accesses(),
            service_seq,
            large,
            waiter: request.waiter,
        });
        // Same-page requests piggyback on this walk's TLB fill. The
        // index's page chain lists exactly those entries in arrival order
        // (the order the old whole-buffer scan produced), so the drain
        // touches only the piggybacking requests — at paper scale the
        // buffer holds thousands of entries and this scan dominated the
        // completion path.
        let mut cursor = self.index.page_first(page.raw());
        while let Some(h) = cursor {
            cursor = self.index.page_next(h);
            self.index.pre_remove(&self.buffer, h);
            let r = self.buffer.remove(h);
            self.index.finish_remove(&self.buffer);
            debug_assert_eq!(r.page, page, "page chain entry on the wrong page");
            // A very young same-page entry may have a modelled enqueue
            // time (arrival + TLB lookup latency) slightly after the
            // walk finished; it completes as soon as it is enqueued.
            let done_at = now.max(r.enqueued_at);
            self.stats.merged_completions += 1;
            self.stats.total_walk_latency += done_at - r.enqueued_at;
            self.stats.completed_requests += 1;
            if large {
                self.stats.large_total_walk_latency += done_at - r.enqueued_at;
                self.stats.large_completed_requests += 1;
            }
            completions.push(CompletedTranslation {
                page,
                frame,
                instr: r.instr,
                enqueued_at: r.enqueued_at,
                completed_at: done_at,
                via_walk: false,
                walk_accesses: plan.accesses(),
                service_seq,
                large,
                waiter: r.waiter,
            });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptw_pagetable::frames::{FrameAllocator, FrameLayout};

    struct Fixture {
        alloc: FrameAllocator,
        table: PageTable,
        iommu: Iommu<u64>,
    }

    fn fixture(cfg: IommuConfig) -> Fixture {
        let mut alloc = FrameAllocator::new(0x1000, 1 << 22, FrameLayout::Sequential);
        let table = PageTable::new(&mut alloc);
        Fixture {
            alloc,
            table,
            iommu: Iommu::new(cfg),
        }
    }

    fn map(f: &mut Fixture, vpn: u64) -> VirtPage {
        let page = VirtPage::new(vpn);
        let frame = f.alloc.alloc();
        f.table.map(page, frame, &mut f.alloc).unwrap();
        page
    }

    /// Drives a single walker's reads to completion with a fixed per-read
    /// memory latency, returning the completions and the finish time.
    fn run_walk(
        f: &mut Fixture,
        mut read: MemRead,
        mem_latency: u64,
    ) -> (Vec<CompletedTranslation<u64>>, Cycle) {
        let mut t = read.issue_at;
        let mut done = Vec::new();
        loop {
            t += mem_latency;
            match f.iommu.memory_done_into(read.walker, t, &mut done) {
                Some(next) => read = next,
                None => return (done, t),
            }
        }
    }

    #[test]
    fn miss_walk_hit_round_trip() {
        let mut f = fixture(IommuConfig::paper_baseline());
        let page = map(&mut f, 0x7000);
        let out = f.iommu.translate(page, InstrId::new(1), 99, Cycle::ZERO);
        assert_eq!(out, TranslationOutcome::WalkPending);
        let reads = f.iommu.start_walkers(&f.table, Cycle::new(16));
        assert_eq!(reads.len(), 1);
        let (done, _) = run_walk(&mut f, reads[0], 100);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].waiter, 99);
        assert!(done[0].via_walk);
        assert_eq!(done[0].walk_accesses, 4); // cold PWC

        // The IOMMU TLBs now hold the page.
        match f
            .iommu
            .translate(page, InstrId::new(2), 1, Cycle::new(10_000))
        {
            TranslationOutcome::Hit {
                frame,
                ready_at,
                large,
            } => {
                assert_eq!(frame, done[0].frame);
                assert_eq!(ready_at.raw(), 10_000 + 8);
                assert!(!large);
            }
            other => panic!("expected hit, got {other:?}"),
        }
    }

    /// A walk started on arrival can finish before its own request's
    /// modelled enqueue time (arrival + both TLB lookups) when the PWC
    /// and memory are faster than the lookups. It then completes at that
    /// enqueue time, with zero walk latency, instead of underflowing.
    #[test]
    fn walk_faster_than_the_tlb_lookups_completes_at_enqueue() {
        let mut cfg = IommuConfig::paper_baseline();
        cfg.tlb_cycles = 50;
        cfg.pwc_cycles = 0;
        let mut f = fixture(cfg);
        let page = map(&mut f, 0x7000);
        f.iommu.translate(page, InstrId::new(1), 7, Cycle::ZERO);
        let reads = f.iommu.start_walkers(&f.table, Cycle::ZERO);
        let (done, t) = run_walk(&mut f, reads[0], 10);
        assert!(t < Cycle::new(100), "walk finished at {t}");
        assert_eq!(done[0].completed_at, Cycle::new(100));
        assert_eq!(f.iommu.stats().total_walk_latency, 0);
    }

    #[test]
    fn l2_hit_costs_two_lookups() {
        // A 1-entry IOMMU L1 TLB makes the eviction deterministic.
        let mut cfg = IommuConfig::paper_baseline();
        cfg.l1_tlb = ptw_tlb::TlbConfig {
            entries: 1,
            ways: 1,
            policy: ptw_mem::assoc::Replacement::Lru,
        };
        let mut f = fixture(cfg);
        let page = map(&mut f, 0x8000);
        f.iommu.translate(page, InstrId::new(1), 0, Cycle::ZERO);
        let reads = f.iommu.start_walkers(&f.table, Cycle::ZERO);
        run_walk(&mut f, reads[0], 50);
        // A second page's walk evicts `page` from the 1-entry L1 TLB but
        // leaves it in the 256-entry L2 TLB.
        let other = map(&mut f, 0x9000);
        f.iommu
            .translate(other, InstrId::new(2), 0, Cycle::new(10_000));
        for r in f.iommu.start_walkers(&f.table, Cycle::new(10_000)) {
            run_walk(&mut f, r, 50);
        }
        match f
            .iommu
            .translate(page, InstrId::new(3), 0, Cycle::new(50_000))
        {
            TranslationOutcome::Hit { ready_at, .. } => {
                assert_eq!(ready_at.raw(), 50_000 + 16); // L1 miss + L2 hit
            }
            other => panic!("expected L2 hit, got {other:?}"),
        }
    }

    #[test]
    fn sequential_reads_within_one_walk() {
        let mut f = fixture(IommuConfig::paper_baseline());
        let page = map(&mut f, 0xa000);
        f.iommu.translate(page, InstrId::new(1), 0, Cycle::ZERO);
        let reads = f.iommu.start_walkers(&f.table, Cycle::ZERO);
        // A cold walk needs 4 reads: 3 intermediate + final.
        let mut count = 1;
        let mut read = reads[0];
        let mut t = read.issue_at;
        let mut done = Vec::new();
        loop {
            t += 100;
            match f.iommu.memory_done_into(read.walker, t, &mut done) {
                Some(next) => {
                    count += 1;
                    read = next;
                }
                None => break,
            }
        }
        assert_eq!(count, 4);
        assert_eq!(f.iommu.stats().total_walk_accesses, 4);
    }

    #[test]
    fn same_page_requests_piggyback() {
        let mut f = fixture(IommuConfig::paper_baseline());
        let page = map(&mut f, 0xb000);
        f.iommu.translate(page, InstrId::new(1), 1, Cycle::ZERO);
        let reads = f.iommu.start_walkers(&f.table, Cycle::ZERO);
        assert_eq!(reads.len(), 1);
        // Second request for the same page while the walk is in flight.
        f.iommu.translate(page, InstrId::new(2), 2, Cycle::new(5));
        // No new walker should start on the same page.
        assert!(f.iommu.start_walkers(&f.table, Cycle::new(6)).is_empty());
        let (done, _) = run_walk(&mut f, reads[0], 100);
        assert_eq!(done.len(), 2);
        assert!(done[0].via_walk);
        assert!(!done[1].via_walk);
        assert_eq!(done[1].waiter, 2);
        assert_eq!(done[0].service_seq, done[1].service_seq);
        assert_eq!(f.iommu.stats().merged_completions, 1);
        assert_eq!(f.iommu.stats().walks_performed, 1);
        assert_eq!(f.iommu.stats().walk_requests, 2);
    }

    #[test]
    fn walker_pool_limits_concurrency() {
        let mut cfg = IommuConfig::paper_baseline();
        cfg.walkers = 2;
        let mut f = fixture(cfg);
        let pages: Vec<VirtPage> = (0..5).map(|i| map(&mut f, 0xc000 + i * 0x1000)).collect();
        for (i, &p) in pages.iter().enumerate() {
            f.iommu
                .translate(p, InstrId::new(i as u32), i as u64, Cycle::ZERO);
        }
        let reads = f.iommu.start_walkers(&f.table, Cycle::ZERO);
        assert_eq!(reads.len(), 2);
        assert_eq!(f.iommu.busy_walkers(), 2);
        assert_eq!(f.iommu.pending(), 3);
        // Finish one walk; refill starts exactly one more.
        let (_, t) = run_walk(&mut f, reads[0], 100);
        let refill = f.iommu.start_walkers(&f.table, t);
        assert_eq!(refill.len(), 1);
    }

    #[test]
    fn fcfs_services_in_arrival_order() {
        let mut cfg = IommuConfig::paper_baseline();
        cfg.walkers = 1;
        let mut f = fixture(cfg);
        let pages: Vec<VirtPage> = (0..3).map(|i| map(&mut f, 0xd000 + i * 0x1000)).collect();
        for (i, &p) in pages.iter().enumerate() {
            f.iommu
                .translate(p, InstrId::new(i as u32), i as u64, Cycle::new(i as u64));
        }
        let mut order = Vec::new();
        let mut t = Cycle::ZERO;
        for _ in 0..3 {
            let reads = f.iommu.start_walkers(&f.table, t);
            let (done, tdone) = run_walk(&mut f, reads[0], 100);
            order.push(done[0].waiter);
            t = tdone;
        }
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn simt_aware_prefers_light_instruction() {
        // One walker busy so arrivals are scored; then instr 1 (1 walk)
        // must be serviced before instr 0 (3 walks) once the walker frees.
        let mut cfg = IommuConfig::paper_baseline().with_scheduler(SchedulerKind::SimtAware);
        cfg.walkers = 1;
        let mut f = fixture(cfg);
        let blocker = map(&mut f, 0xe000);
        f.iommu
            .translate(blocker, InstrId::new(9), 999, Cycle::ZERO);
        let reads = f.iommu.start_walkers(&f.table, Cycle::ZERO);

        // Heavy instruction 0: three pages; light instruction 1: one page.
        for i in 0..3 {
            let p = map(&mut f, 0xf000 + i * 0x1000);
            f.iommu.translate(p, InstrId::new(0), 10 + i, Cycle::new(1));
        }
        let light = map(&mut f, 0x2_0000);
        f.iommu.translate(light, InstrId::new(1), 20, Cycle::new(2));

        let (_, t) = run_walk(&mut f, reads[0], 100);
        let next = f.iommu.start_walkers(&f.table, t);
        // The light pick bypassed each older heavy request once.
        let oldest = f.iommu.snapshot().oldest;
        assert!(oldest.iter().map(|p| p.bypassed).eq([1, 1, 1]));
        let (done, _) = run_walk(&mut f, next[0], 100);
        assert_eq!(done[0].instr, InstrId::new(1), "light instruction first");
        assert_eq!(done[0].waiter, 20);
    }

    #[test]
    fn batching_keeps_instruction_together() {
        let mut cfg = IommuConfig::paper_baseline().with_scheduler(SchedulerKind::SimtAware);
        cfg.walkers = 1;
        let mut f = fixture(cfg);
        let blocker = map(&mut f, 0x3_0000);
        f.iommu.translate(blocker, InstrId::new(9), 0, Cycle::ZERO);
        let reads = f.iommu.start_walkers(&f.table, Cycle::ZERO);

        // Two instructions with two pages each, interleaved arrivals, and
        // scores arranged equal so batching (not SJF) decides.
        let pages: Vec<VirtPage> = (0..4).map(|i| map(&mut f, 0x4_0000 + i * 0x1000)).collect();
        f.iommu
            .translate(pages[0], InstrId::new(0), 0, Cycle::new(1));
        f.iommu
            .translate(pages[1], InstrId::new(1), 1, Cycle::new(2));
        f.iommu
            .translate(pages[2], InstrId::new(0), 2, Cycle::new(3));
        f.iommu
            .translate(pages[3], InstrId::new(1), 3, Cycle::new(4));

        let (_, mut t) = run_walk(&mut f, reads[0], 100);
        let mut service_order = Vec::new();
        for _ in 0..4 {
            let reads = f.iommu.start_walkers(&f.table, t);
            let (done, tdone) = run_walk(&mut f, reads[0], 100);
            service_order.push(done[0].instr.raw());
            t = tdone;
        }
        // Whichever instruction goes first, its partner walk must follow
        // immediately (batched), giving [a, a, b, b].
        assert_eq!(service_order[0], service_order[1]);
        assert_eq!(service_order[2], service_order[3]);
        assert_ne!(service_order[0], service_order[2]);
    }

    #[test]
    fn scores_accumulate_across_an_instructions_requests() {
        let mut cfg = IommuConfig::paper_baseline().with_scheduler(SchedulerKind::SimtAware);
        cfg.walkers = 1;
        let mut f = fixture(cfg);
        let blocker = map(&mut f, 0x5_0000);
        f.iommu.translate(blocker, InstrId::new(9), 0, Cycle::ZERO);
        f.iommu.start_walkers(&f.table, Cycle::ZERO);
        // Three cold pages of one instruction: each estimates 4 accesses.
        for i in 0..3 {
            let p = map(&mut f, 0x6_0000 + i * 0x1000);
            f.iommu.translate(p, InstrId::new(5), i, Cycle::new(1 + i));
        }
        // All three buffered entries share the accumulated score 12.
        // (White-box check through pending debug info: scores are equal
        // and the walk-request count matches.)
        assert_eq!(f.iommu.pending(), 3);
        assert_eq!(f.iommu.stats().walk_requests, 4);
    }

    #[test]
    fn stats_latency_accounting() {
        let mut f = fixture(IommuConfig::paper_baseline());
        let page = map(&mut f, 0x7_0000);
        f.iommu.translate(page, InstrId::new(1), 0, Cycle::ZERO);
        let reads = f.iommu.start_walkers(&f.table, Cycle::new(16));
        let (done, t) = run_walk(&mut f, reads[0], 100);
        assert_eq!(f.iommu.stats().completed_requests, 1);
        let expected = t - done[0].enqueued_at;
        assert_eq!(f.iommu.stats().total_walk_latency, expected);
        assert!(f.iommu.stats().avg_walk_latency() > 0.0);
    }

    #[test]
    fn large_page_walk_round_trip() {
        let mut f = fixture(IommuConfig::paper_baseline());
        let base = f
            .alloc
            .alloc_contiguous(ptw_types::addr::PAGES_PER_LARGE_PAGE);
        let start = VirtPage::new(8 << 9);
        f.table.map_large(start, base, &mut f.alloc).unwrap();
        let page = VirtPage::new(start.raw() + 5);
        let out = f
            .iommu
            .translate_sized(page, PageSize::Large2M, InstrId::new(1), 7, Cycle::ZERO);
        assert_eq!(out, TranslationOutcome::WalkPending);
        let reads = f.iommu.start_walkers(&f.table, Cycle::ZERO);
        // A cold large walk needs exactly 3 reads (levels 4, 3, 2).
        let mut count = 1;
        let mut read = reads[0];
        let mut t = read.issue_at;
        let mut done = Vec::new();
        loop {
            t += 100;
            match f.iommu.memory_done_into(read.walker, t, &mut done) {
                Some(next) => {
                    count += 1;
                    read = next;
                }
                None => break,
            }
        }
        assert_eq!(count, 3);
        assert!(done[0].large);
        assert_eq!(done[0].walk_accesses, 3);
        assert_eq!(done[0].frame, PhysFrame::new(base.raw() + 5));
        assert_eq!(f.iommu.stats().large_walks_performed, 1);
        assert_eq!(f.iommu.stats().large_completed_requests, 1);

        // A *different* page of the same region now hits the large-side
        // TLB entry.
        let sibling = VirtPage::new(start.raw() + 300);
        match f
            .iommu
            .translate_sized(sibling, PageSize::Large2M, InstrId::new(2), 8, t)
        {
            TranslationOutcome::Hit { frame, large, .. } => {
                assert!(large);
                assert_eq!(frame, PhysFrame::new(base.raw() + 300));
            }
            other => panic!("expected large hit, got {other:?}"),
        }
    }

    #[test]
    fn memory_done_into_appends_without_wrapper() {
        let mut f = fixture(IommuConfig::paper_baseline());
        let page = map(&mut f, 0x7100);
        f.iommu.translate(page, InstrId::new(1), 42, Cycle::ZERO);
        let reads = f.iommu.start_walkers(&f.table, Cycle::ZERO);
        let mut completions = Vec::new();
        let mut read = reads[0];
        let mut t = read.issue_at;
        loop {
            t += 100;
            match f.iommu.memory_done_into(read.walker, t, &mut completions) {
                Some(next) => read = next,
                None => break,
            }
        }
        assert_eq!(completions.len(), 1);
        assert_eq!(completions[0].waiter, 42);
        // The buffer is appended to, not cleared: a second walk adds to it.
        let page2 = map(&mut f, 0x7200);
        f.iommu.translate(page2, InstrId::new(2), 43, t);
        let reads = f.iommu.start_walkers(&f.table, t);
        let mut read = reads[0];
        loop {
            t += 100;
            match f.iommu.memory_done_into(read.walker, t, &mut completions) {
                Some(next) => read = next,
                None => break,
            }
        }
        assert_eq!(completions.len(), 2);
        assert_eq!(completions[1].waiter, 43);
    }

    #[test]
    #[should_panic]
    fn memory_done_on_idle_walker_panics() {
        let mut f = fixture(IommuConfig::paper_baseline());
        f.iommu
            .memory_done_into(WalkerId(0), Cycle::ZERO, &mut Vec::new());
    }
}
