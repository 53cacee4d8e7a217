//! The full simulated system and its event loop.
//!
//! Wires together every component along the paper's Figure 1: wavefronts on
//! CUs issue SIMD memory instructions; the coalescer merges lanes; the GPU
//! TLB hierarchy filters translation requests; misses travel to the IOMMU
//! whose schedulable walker pool reads the in-memory page table through the
//! shared DRAM controller; translated instructions then fetch their cache
//! lines through the L1/L2 data caches and the same DRAM.
//!
//! The "life of a GPU address translation request" from Section II-B maps
//! onto events as:
//!
//! 1–2. generation + coalescing — the `WfReady` handler;
//! 3. GPU L1 TLB lookup inline in the issue handler, then the L2 TLB via
//!    the per-CU miss port (`L2TlbArrive`/`L2TlbLookup`);
//! 4–6. IOMMU TLBs + buffer — `IommuArrival`;
//! 7–8. walker selection + PWC + page table reads —
//!      `WalkerIssue` / `MemTick`;
//! 9. reply — `TranslationDone`, after which the data phase runs
//!    (`DataSubmit`, `LineDone`).

use ptw_core::iommu::{CompletedTranslation, Iommu, IommuSnapshot, TranslationOutcome};
use ptw_core::IommuStats;
use ptw_gpu::{coalesce_split, Cu, InstructionStream, Wavefront, WavefrontPhase};
use ptw_mem::cache::{Cache, Mshr, MshrOutcome};
use ptw_mem::controller::{MemSource, MemStats, MemoryController};
use ptw_tlb::Tlb;
use ptw_types::addr::{LineAddr, PhysAddr, PhysFrame, VirtAddr, VirtPage};
use ptw_types::ids::{InstrId, InstrIdAllocator, WavefrontId};
use ptw_types::time::Cycle;
use ptw_workloads::Workload;

use crate::config::{FaultKind, SystemConfig};
use crate::engine::EventQueue;
use crate::error::{ConfigError, SimError};
use crate::metrics::{InstrWalkLog, MetricsCollector, RunMetrics, WalkObservation};

/// Token attached to IOMMU walk requests: which wavefront is waiting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Token {
    wf: u32,
}

/// Executes the process-fatal injected fault kinds. `Abort` kills the
/// process outright (not catchable by `catch_unwind`); `Hang` sleeps
/// forever without consuming events. Neither returns — only a supervising
/// parent process (kill on timeout, reap on crash) recovers, which is
/// exactly what these faults exist to exercise.
fn trip_fatal_fault(kind: FaultKind, at_event: u64, now: Cycle) -> ! {
    match kind {
        FaultKind::Abort => {
            eprintln!("injected fault: abort at event {at_event} (cycle {now})");
            std::process::abort();
        }
        FaultKind::Hang => {
            eprintln!("injected fault: hang at event {at_event} (cycle {now})");
            loop {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
        }
        FaultKind::Panic | FaultKind::Livelock => {
            unreachable!("handled inline in the event loop")
        }
    }
}

/// Events of the system-level simulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Event {
    /// Wavefront may issue its next instruction.
    WfReady(u32),
    /// One translation of the wavefront's current instruction finished.
    TranslationDone { wf: u32 },
    /// An L1 TLB miss, forwarded by its CU, reaches the shared L2 TLB's
    /// port queue.
    L2TlbArrive { wf: u32, page: VirtPage },
    /// A granted GPU shared-L2-TLB lookup produces its result.
    L2TlbLookup { wf: u32, page: VirtPage },
    /// A GPU-TLB-missing translation request reaches the IOMMU.
    IommuArrival { wf: u32, page: VirtPage },
    /// A walker submits a PTE read to the memory controller.
    WalkerIssue {
        iommu: u8,
        walker: u8,
        addr: PhysAddr,
    },
    /// Fused form of a same-cycle run of `WalkerIssue` events: every
    /// first PTE read started by one walker kick. The payload lives in
    /// [`System::walk_batch_slots`] under `slot`; the handler replays the
    /// per-read submits in order, so the run is indistinguishable from
    /// the plain events it replaces (DESIGN.md §14).
    WalkerIssueBatch { iommu: u8, slot: u32 },
    /// A data-cache miss is submitted to the memory controller.
    DataSubmit { line: LineAddr },
    /// One cache-line fetch of the wavefront's instruction finished.
    LineDone { wf: u32 },
    /// Fused form of a same-cycle run of `TranslationDone` events: the
    /// fan-out of one finished walk (the walker's own request plus its
    /// piggybacked merges, when their completion times coincide). The
    /// waiting wavefronts live in [`System::done_batch_slots`] under
    /// `slot`; the handler replays them in push order.
    TranslationDoneBatch { slot: u32 },
    /// Wake the memory controller.
    MemTick,
}

/// [`EventQueue::pop_bucket_into`] swaps whole bucket buffers into the
/// drain batch, but events are still copied on `schedule` and iterated in
/// the dispatch loop, so `Event`'s size is hot-loop traffic either way.
/// Keep the payload within one 16-byte slot: tag + the widest field
/// (`PhysAddr`/`VirtPage`, 8 bytes) pack into two words. Growing a variant
/// past this budget is a deliberate perf decision, not an accident — this
/// assert makes it one.
const _: () = assert!(
    std::mem::size_of::<Event>() <= 16,
    "Event grew past its 16-byte copy budget"
);

/// Everything a finished run reports.
///
/// `PartialEq` is exact (f64 fields included): two runs of the same spec
/// must produce bit-identical results however they were executed.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    /// The per-figure metrics.
    pub metrics: RunMetrics,
    /// IOMMU counters (walks, merges, latencies), summed over every
    /// IOMMU in the topology.
    pub iommu: IommuStats,
    /// Walks performed by each IOMMU, indexed by topology position.
    pub per_iommu_walks: Vec<u64>,
    /// Load imbalance across IOMMUs: the busiest IOMMU's walk count over
    /// the mean walk count (1.0 = perfectly balanced or a single IOMMU).
    pub iommu_imbalance: f64,
    /// Large-page (2 MiB) hits across every GPU TLB (per-CU L1s plus the
    /// per-shard L2s). Zero in an all-4K run.
    pub gpu_tlb_large_hits: u64,
    /// DRAM counters.
    pub mem: MemStats,
    /// GPU per-CU L1 TLB aggregate hit rate.
    pub gpu_l1_tlb_hit_rate: f64,
    /// GPU shared L2 TLB hit rate.
    pub gpu_l2_tlb_hit_rate: f64,
    /// L1 data cache aggregate hit rate.
    pub l1_cache_hit_rate: f64,
    /// L2 data cache hit rate.
    pub l2_cache_hit_rate: f64,
    /// Events processed (simulation cost, not a paper metric).
    pub events: u64,
    /// Fairness: the latest wavefront finish time over the mean finish
    /// time (1.0 = perfectly balanced; large = stragglers). Not a paper
    /// figure — supports the QoS follow-on study the paper anticipates in
    /// Section III.
    pub finish_spread: f64,
}

struct InflightInstr {
    instr: InstrId,
    lines: Vec<VirtAddr>,
    walk_log: InstrWalkLog,
}

/// The simulated system.
pub struct System {
    cfg: SystemConfig,
    queue: EventQueue<Event>,
    workload: Workload,
    wavefronts: Vec<Wavefront>,
    cus: Vec<Cu>,
    gpu_l1_tlbs: Vec<Tlb>,
    /// One shared L2 TLB per GPU shard (a single TLB in the pinned
    /// default topology).
    gpu_l2_tlbs: Vec<Tlb>,
    /// One IOMMU per topology position; walk traffic is routed by
    /// [`TopologyConfig::iommu_of_page`](crate::config::TopologyConfig).
    iommus: Vec<Iommu<Token>>,
    /// Shard owning each CU, precomputed from the topology.
    cu_shards: Vec<usize>,
    l1_caches: Vec<Cache>,
    l2_cache: Cache,
    l2_mshr: Mshr<(usize, u32)>,
    mem: MemoryController,
    /// Outstanding PTE reads: at most one per walker per IOMMU, so a
    /// tiny dense list beats a hash map in the per-completion lookup.
    walk_reads: Vec<(ptw_mem::MemReqId, u8, ptw_types::ids::WalkerId)>,
    mem_tick_at: Option<Cycle>,
    /// Next cycle at which each shard's L2 TLB can accept a lookup.
    l2_tlb_free: Vec<Cycle>,
    /// Next cycle at which each CU can forward an L1 TLB miss.
    l1_miss_free: Vec<Cycle>,
    inflight: Vec<Option<InflightInstr>>,
    instr_ids: InstrIdAllocator,
    metrics: MetricsCollector,
    /// Per-wavefront retirement times (fairness metric).
    finish_times: Vec<Cycle>,
    /// Scratch: per-lane addresses of the instruction being issued.
    addr_scratch: Vec<VirtAddr>,
    /// Scratch: coalesced pages of the instruction being issued.
    page_scratch: Vec<VirtPage>,
    /// Scratch: waiters drained from the L2 MSHR on a refill.
    mshr_waiters: Vec<(usize, u32)>,
    /// Scratch: DRAM completions drained on a memory tick.
    mem_completions: Vec<ptw_mem::MemCompletion>,
    /// Scratch: first PTE reads of walks started by a walker kick.
    walker_reads: Vec<ptw_core::iommu::MemRead>,
    /// Scratch: completed translations drained from a finishing walker.
    walk_completions: Vec<CompletedTranslation<Token>>,
    /// Recycled line buffers for [`InflightInstr::lines`].
    line_pool: Vec<Vec<VirtAddr>>,
    /// Payloads of pending [`Event::WalkerIssueBatch`] events, indexed by
    /// the event's `slot`: the `(walker, first PTE address)` pairs of one
    /// walker kick. Slots are recycled through `walk_batch_free`, so the
    /// steady state allocates nothing.
    walk_batch_slots: Vec<Vec<(u8, PhysAddr)>>,
    /// Free slots in `walk_batch_slots`.
    walk_batch_free: Vec<u32>,
    /// Payloads of pending [`Event::TranslationDoneBatch`] events: the
    /// wavefronts awoken by one walk's completion fan-out.
    done_batch_slots: Vec<Vec<u32>>,
    /// Free slots in `done_batch_slots`.
    done_batch_free: Vec<u32>,
    /// Emit fused batch events for same-cycle walk-start and completion
    /// fan-out runs (the default). Cleared by
    /// [`force_unfused`](System::force_unfused), the differential-test
    /// mode that pins the fused and unfused event streams to identical
    /// simulated results.
    fuse_events: bool,
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("workload", &self.workload.id())
            .field("now", &self.queue.now())
            .field("events", &self.queue.processed())
            .finish()
    }
}

impl System {
    /// Builds a system around `workload`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; use
    /// [`try_new`](Self::try_new) to get the rejection as data.
    pub fn new(cfg: SystemConfig, workload: Workload) -> Self {
        Self::try_new(cfg, workload).unwrap_or_else(|e| panic!("invalid config: {e}"))
    }

    /// Builds a system around `workload`, rejecting invalid configurations
    /// with a typed [`ConfigError`] instead of panicking.
    pub fn try_new(cfg: SystemConfig, workload: Workload) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let n_wf = workload.wavefronts() as usize;
        let cus_n = cfg.gpu.cus;
        let mut per_cu = vec![0usize; cus_n];
        for wf in 0..n_wf {
            per_cu[wf % cus_n] += 1;
        }
        let wavefronts = (0..n_wf)
            .map(|wf| {
                Wavefront::new(
                    WavefrontId(wf as u32),
                    ptw_types::ids::CuId((wf % cus_n) as u16),
                )
            })
            .collect();
        let cus = (0..cus_n)
            .map(|c| Cu::new(ptw_types::ids::CuId(c as u16), per_cu[c]))
            .collect();
        let mut queue = EventQueue::new();
        for wf in 0..n_wf {
            queue.schedule(Cycle::ZERO, Event::WfReady(wf as u32));
        }
        let shards = cfg.topology.gpu_shards;
        Ok(System {
            queue,
            wavefronts,
            cus,
            gpu_l1_tlbs: (0..cus_n).map(|_| Tlb::new(cfg.gpu_l1_tlb)).collect(),
            // Salt 0 reproduces the single-TLB replacement stream exactly,
            // so shard 0 of any topology matches the pinned default.
            gpu_l2_tlbs: (0..shards)
                .map(|s| Tlb::with_seed_salt(cfg.gpu_l2_tlb, s as u64))
                .collect(),
            iommus: (0..cfg.topology.iommus)
                .map(|_| Iommu::new(cfg.iommu))
                .collect(),
            cu_shards: (0..cus_n)
                .map(|c| cfg.topology.shard_of_cu(c, cus_n))
                .collect(),
            l1_caches: (0..cus_n).map(|_| Cache::new(cfg.l1_cache)).collect(),
            l2_cache: Cache::new(cfg.l2_cache),
            l2_mshr: Mshr::new(),
            mem: MemoryController::new(cfg.dram.clone(), cfg.mem_policy),
            walk_reads: Vec::new(),
            mem_tick_at: None,
            l2_tlb_free: vec![Cycle::ZERO; shards],
            l1_miss_free: vec![Cycle::ZERO; cus_n],
            inflight: (0..n_wf).map(|_| None).collect(),
            instr_ids: InstrIdAllocator::new(),
            metrics: MetricsCollector::new(cfg.epoch_accesses),
            finish_times: Vec::with_capacity(n_wf),
            addr_scratch: Vec::new(),
            page_scratch: Vec::new(),
            mshr_waiters: Vec::new(),
            mem_completions: Vec::new(),
            walker_reads: Vec::new(),
            walk_completions: Vec::new(),
            line_pool: Vec::new(),
            walk_batch_slots: Vec::new(),
            walk_batch_free: Vec::new(),
            done_batch_slots: Vec::new(),
            done_batch_free: Vec::new(),
            fuse_events: true,
            workload,
            cfg,
        })
    }

    /// Turns fused batch events off (`true`) or back on. Differential-test
    /// hook; not part of the stable API.
    #[doc(hidden)]
    pub fn force_unfused(&mut self, on: bool) {
        self.fuse_events = !on;
    }

    /// Routes DRAM scheduling through the controller's legacy whole-queue
    /// scan (`true`) or its per-bank index (`false`, the default).
    /// Differential-test hook; not part of the stable API.
    #[doc(hidden)]
    pub fn force_dram_oracle(&mut self, on: bool) {
        self.mem.force_oracle(on);
    }

    /// Claims a recycled slot for a walker-kick batch payload.
    fn alloc_walk_batch(&mut self) -> u32 {
        self.walk_batch_free.pop().unwrap_or_else(|| {
            self.walk_batch_slots.push(Vec::new());
            (self.walk_batch_slots.len() - 1) as u32
        })
    }

    /// Claims a recycled slot for a completion fan-out batch payload.
    fn alloc_done_batch(&mut self) -> u32 {
        self.done_batch_free.pop().unwrap_or_else(|| {
            self.done_batch_slots.push(Vec::new());
            (self.done_batch_slots.len() - 1) as u32
        })
    }

    fn cu_of(&self, wf: u32) -> usize {
        (wf as usize) % self.cfg.gpu.cus
    }

    /// Re-arms the memory controller wakeup if it has earlier work.
    ///
    /// The wakeup is next-completion-time driven (`next_event_time`), not
    /// periodic polling; a superseded earlier tick is left in the queue
    /// rather than cancelled. A stale tick's position among same-cycle
    /// events is observable — when a later re-arm lands on the same cycle,
    /// the *stale* event is the one that passes the `mem_tick_at` guard
    /// and drives `mem.advance`, ahead of any submits queued between the
    /// two — so removing it would change simulated timing, and run results
    /// are pinned bit-identical. This is why `EventQueue` carries no
    /// cancellation API (DESIGN.md §10 tells the full story).
    fn touch_mem(&mut self, now: Cycle) {
        if let Some(t) = self.mem.next_event_time() {
            let t = t.max(now);
            if self.mem_tick_at.is_none_or(|s| t < s) {
                self.queue.schedule(t, Event::MemTick);
                self.mem_tick_at = Some(t);
            }
        }
    }

    /// Starts idle walkers of IOMMU `io` on pending requests and
    /// schedules their reads.
    fn kick_walkers(&mut self, io: usize, now: Cycle) {
        if !self.iommus[io].can_start() {
            return;
        }
        let mut reads = std::mem::take(&mut self.walker_reads);
        let table = self.workload.space().table();
        self.iommus[io].start_walkers_into(table, now, &mut reads);
        if self.fuse_events && reads.len() > 1 {
            // Every first read of a kick is issued one PWC latency after
            // `now` (`start_walkers_into`), so the run shares one cycle
            // and its plain events would carry consecutive sequence
            // numbers — exactly the shape a single batch event replayed
            // in push order reproduces (DESIGN.md §14).
            debug_assert!(
                reads.iter().all(|r| r.issue_at == reads[0].issue_at),
                "walker kick produced mixed issue times"
            );
            let slot = self.alloc_walk_batch();
            self.walk_batch_slots[slot as usize].extend(reads.iter().map(|r| (r.walker.0, r.addr)));
            self.queue.schedule(
                reads[0].issue_at.max(now),
                Event::WalkerIssueBatch {
                    iommu: io as u8,
                    slot,
                },
            );
        } else {
            for &r in &reads {
                self.queue.schedule(
                    r.issue_at.max(now),
                    Event::WalkerIssue {
                        iommu: io as u8,
                        walker: r.walker.0,
                        addr: r.addr,
                    },
                );
            }
        }
        reads.clear();
        self.walker_reads = reads;
    }

    /// Kicks every IOMMU's walker pool (IOMMU order is fixed, so the
    /// event sequence stays deterministic).
    fn kick_all_walkers(&mut self, now: Cycle) {
        for io in 0..self.iommus.len() {
            self.kick_walkers(io, now);
        }
    }

    /// Installs a finished translation in a CU's L1 TLB and its shard's
    /// L2 TLB, using the large-page side when the mapping is 2 MiB.
    fn fill_gpu_tlbs(&mut self, cu: usize, page: VirtPage, frame: PhysFrame, large: bool) {
        let shard = self.cu_shards[cu];
        if large {
            let base = PhysFrame::new(frame.raw() - page.large_offset());
            self.gpu_l2_tlbs[shard].fill_large(page, base);
            self.gpu_l1_tlbs[cu].fill_large(page, base);
        } else {
            self.gpu_l2_tlbs[shard].fill(page, frame);
            self.gpu_l1_tlbs[cu].fill(page, frame);
        }
    }

    fn handle_wf_ready(&mut self, wf: u32, now: Cycle) {
        let wfi = wf as usize;
        if self.wavefronts[wfi].phase() == WavefrontPhase::Computing {
            self.wavefronts[wfi].compute_done();
        }
        let mut addrs = std::mem::take(&mut self.addr_scratch);
        if !self
            .workload
            .next_instruction_into(WavefrontId(wf), &mut addrs)
        {
            self.addr_scratch = addrs;
            self.wavefronts[wfi].retire();
            let cu = self.cu_of(wf);
            self.cus[cu].wavefront_retired(now);
            self.finish_times.push(now);
            return;
        }
        let mut pages = std::mem::take(&mut self.page_scratch);
        let mut lines = self.line_pool.pop().unwrap_or_default();
        coalesce_split(&addrs, &mut pages, &mut lines);
        self.addr_scratch = addrs;
        let instr = self.instr_ids.next_id();
        let cu = self.cu_of(wf);
        self.wavefronts[wfi].issue(instr, pages.len(), now);
        self.cus[cu].wavefront_blocked(now);
        self.inflight[wfi] = Some(InflightInstr {
            instr,
            lines,
            walk_log: InstrWalkLog::default(),
        });
        let g = &self.cfg.gpu;
        for &page in &pages {
            if self.gpu_l1_tlbs[cu].lookup(page).is_some() {
                self.queue
                    .schedule(now + g.l1_tlb_cycles, Event::TranslationDone { wf });
                continue;
            }
            // Each CU forwards its L1 TLB misses one at a time; the
            // per-CU streams then percolate toward the shared L2 TLB in
            // real time and merge — interleaved — at its port (Section
            // III-B's source of walk interleaving). The L2 port itself is
            // granted in arrival order, in the arrival handler below.
            let cu_grant = self.l1_miss_free[cu].max(now + g.l1_tlb_cycles);
            self.l1_miss_free[cu] = cu_grant + g.l1_tlb_miss_port_cycles;
            self.queue
                .schedule(cu_grant, Event::L2TlbArrive { wf, page });
        }
        self.page_scratch = pages;
    }

    fn handle_l2_tlb_arrive(&mut self, wf: u32, page: VirtPage, now: Cycle) {
        let shard = self.cu_shards[self.cu_of(wf)];
        let g = &self.cfg.gpu;
        let grant = self.l2_tlb_free[shard].max(now);
        self.l2_tlb_free[shard] = grant + g.l2_tlb_port_cycles;
        self.queue
            .schedule(grant + g.l2_tlb_cycles, Event::L2TlbLookup { wf, page });
    }

    fn handle_l2_tlb_lookup(&mut self, wf: u32, page: VirtPage, now: Cycle) {
        let cu = self.cu_of(wf);
        let shard = self.cu_shards[cu];
        self.metrics.l2_tlb_access(wf);
        if let Some((frame, large)) = self.gpu_l2_tlbs[shard].lookup_sized(page) {
            if large {
                let base = PhysFrame::new(frame.raw() - page.large_offset());
                self.gpu_l1_tlbs[cu].fill_large(page, base);
            } else {
                self.gpu_l1_tlbs[cu].fill(page, frame);
            }
            self.queue.schedule(now, Event::TranslationDone { wf });
        } else {
            self.queue.schedule(
                now + self.cfg.gpu.iommu_hop_cycles,
                Event::IommuArrival { wf, page },
            );
        }
    }

    fn handle_iommu_arrival(&mut self, wf: u32, page: VirtPage, now: Cycle) {
        let instr = self.inflight[wf as usize]
            .as_ref()
            .expect("arrival for idle wavefront")
            .instr;
        let io = self.cfg.topology.iommu_of_page(page);
        let size = self.workload.space().table().page_size_of(page);
        match self.iommus[io].translate_sized(page, size, instr, Token { wf }, now) {
            TranslationOutcome::Hit {
                frame,
                ready_at,
                large,
            } => {
                let cu = self.cu_of(wf);
                self.fill_gpu_tlbs(cu, page, frame, large);
                self.queue.schedule(
                    ready_at + self.cfg.gpu.iommu_hop_cycles,
                    Event::TranslationDone { wf },
                );
            }
            TranslationOutcome::WalkPending => {
                self.kick_walkers(io, now);
            }
        }
    }

    fn handle_walker_issue(&mut self, iommu: u8, walker: u8, addr: PhysAddr, now: Cycle) {
        let id = self.mem.submit(addr.line(), MemSource::PageWalk, now);
        self.walk_reads
            .push((id, iommu, ptw_types::ids::WalkerId(walker)));
        self.touch_mem(now);
    }

    /// Replays one fused walker kick: the exact per-read submit /
    /// bookkeeping / re-arm sequence the plain `WalkerIssue` handlers
    /// would have run back-to-back (they are adjacent in their calendar
    /// bucket, so nothing could have dispatched between them).
    fn handle_walker_issue_batch(&mut self, iommu: u8, slot: u32, now: Cycle) {
        let mut batch = std::mem::take(&mut self.walk_batch_slots[slot as usize]);
        for &(walker, addr) in &batch {
            let id = self.mem.submit(addr.line(), MemSource::PageWalk, now);
            self.walk_reads
                .push((id, iommu, ptw_types::ids::WalkerId(walker)));
            self.touch_mem(now);
        }
        batch.clear();
        self.walk_batch_slots[slot as usize] = batch;
        self.walk_batch_free.push(slot);
    }

    /// Replays one fused completion fan-out: wakes each waiting wavefront
    /// in the order its plain `TranslationDone` event would have fired.
    fn handle_translation_done_batch(&mut self, slot: u32, now: Cycle) {
        let mut batch = std::mem::take(&mut self.done_batch_slots[slot as usize]);
        for &wf in &batch {
            self.handle_translation_done(wf, now);
        }
        batch.clear();
        self.done_batch_slots[slot as usize] = batch;
        self.done_batch_free.push(slot);
    }

    fn handle_data_submit(&mut self, line: LineAddr, now: Cycle) {
        self.mem.submit(line, MemSource::Data, now);
        self.touch_mem(now);
    }

    fn handle_mem_tick(&mut self, now: Cycle) {
        if self.mem_tick_at != Some(now) {
            return; // superseded wakeup
        }
        self.mem_tick_at = None;
        let mut completions = std::mem::take(&mut self.mem_completions);
        self.mem.advance_into(now, &mut completions);
        let mut walker_finished = false;
        for &c in &completions {
            match c.source {
                MemSource::PageWalk => {
                    let slot = self
                        .walk_reads
                        .iter()
                        .position(|(id, _, _)| *id == c.id)
                        .expect("walk read without walker");
                    let (_, io, walker) = self.walk_reads.swap_remove(slot);
                    // Completions land in a reusable scratch buffer
                    // (`memory_done_into`) — the per-walk `Vec` the
                    // allocating wrapper would build was the hot-path
                    // fan-out cost here.
                    let mut done = std::mem::take(&mut self.walk_completions);
                    match self.iommus[io as usize].memory_done_into(walker, now, &mut done) {
                        Some(r) => {
                            self.queue.schedule(
                                r.issue_at.max(now),
                                Event::WalkerIssue {
                                    iommu: io,
                                    walker: r.walker.0,
                                    addr: r.addr,
                                },
                            );
                        }
                        None => {
                            walker_finished = true;
                            let hop = self.cfg.gpu.iommu_hop_cycles;
                            // One finished walk fans out to its own waiter
                            // plus every piggybacked merge. The plain
                            // events of one equal-completion-time run
                            // would carry consecutive sequence numbers, so
                            // a single batch event replayed in push order
                            // is indistinguishable; a straggler whose
                            // merge was enqueued after the walk finished
                            // completes later and starts a new run at its
                            // own time (DESIGN.md §14).
                            let mut i = 0;
                            while i < done.len() {
                                let at = done[i].completed_at;
                                let mut j = i + 1;
                                while j < done.len() && done[j].completed_at == at {
                                    j += 1;
                                }
                                for ct in &done[i..j] {
                                    let wf = ct.waiter.wf;
                                    let cu = self.cu_of(wf);
                                    self.fill_gpu_tlbs(cu, ct.page, ct.frame, ct.large);
                                    self.inflight[wf as usize]
                                        .as_mut()
                                        .expect("completion for idle wavefront")
                                        .walk_log
                                        .record(WalkObservation {
                                            latency: ct.completed_at - ct.enqueued_at,
                                            completed_at: ct.completed_at,
                                            service_seq: ct.service_seq,
                                            via_walk: ct.via_walk,
                                            accesses: ct.walk_accesses,
                                        });
                                }
                                if self.fuse_events && j - i > 1 {
                                    let slot = self.alloc_done_batch();
                                    self.done_batch_slots[slot as usize]
                                        .extend(done[i..j].iter().map(|ct| ct.waiter.wf));
                                    self.queue
                                        .schedule(at + hop, Event::TranslationDoneBatch { slot });
                                } else {
                                    for ct in &done[i..j] {
                                        self.queue.schedule(
                                            at + hop,
                                            Event::TranslationDone { wf: ct.waiter.wf },
                                        );
                                    }
                                }
                                i = j;
                            }
                        }
                    }
                    done.clear();
                    self.walk_completions = done;
                }
                MemSource::Data => {
                    let mut waiters = std::mem::take(&mut self.mshr_waiters);
                    self.l2_mshr.complete_into(c.line, &mut waiters);
                    self.l2_cache.fill(c.line);
                    for &(cu, wf) in &waiters {
                        self.l1_caches[cu].fill(c.line);
                        self.queue.schedule(now, Event::LineDone { wf });
                    }
                    waiters.clear();
                    self.mshr_waiters = waiters;
                }
            }
        }
        completions.clear();
        self.mem_completions = completions;
        if walker_finished {
            self.kick_all_walkers(now);
        }
        self.touch_mem(now);
    }

    fn handle_translation_done(&mut self, wf: u32, now: Cycle) {
        let wfi = wf as usize;
        let lines = self.inflight[wfi]
            .as_ref()
            .expect("translation for idle wavefront")
            .lines
            .len();
        if !self.wavefronts[wfi].translation_done(lines) {
            return;
        }
        // All translations in: start the data phase. The line list is done
        // being counted, so move it out of the inflight slot (no further
        // TranslationDone fires for this instruction) and recycle the
        // buffer afterwards instead of cloning it.
        let cu = self.cu_of(wf);
        let g = &self.cfg.gpu;
        let lines = std::mem::take(&mut self.inflight[wfi].as_mut().expect("checked above").lines);
        for &va in &lines {
            let pa = self.workload.space().translate_data(va);
            let line = pa.line();
            if self.l1_caches[cu].access(line) {
                self.queue
                    .schedule(now + g.l1_cache_cycles, Event::LineDone { wf });
            } else if self.l2_cache.access(line) {
                self.l1_caches[cu].fill(line);
                self.queue.schedule(
                    now + g.l1_cache_cycles + g.l2_cache_cycles,
                    Event::LineDone { wf },
                );
            } else {
                let outcome = self.l2_mshr.register(line, (cu, wf));
                if outcome == MshrOutcome::Allocated {
                    self.queue.schedule(
                        now + g.l1_cache_cycles + g.l2_cache_cycles,
                        Event::DataSubmit { line },
                    );
                }
            }
        }
        let mut lines = lines;
        lines.clear();
        self.line_pool.push(lines);
    }

    fn handle_line_done(&mut self, wf: u32, now: Cycle) {
        let wfi = wf as usize;
        if !self.wavefronts[wfi].fetch_done(now) {
            return;
        }
        let cu = self.cu_of(wf);
        self.cus[cu].wavefront_unblocked(now);
        let entry = self.inflight[wfi]
            .take()
            .expect("line done for idle wavefront");
        self.metrics.instruction_done(&entry.walk_log);
        self.queue
            .schedule(now + self.cfg.gpu.compute_delay, Event::WfReady(wf));
    }

    /// Runs the simulation to completion and reports the results.
    ///
    /// # Panics
    ///
    /// Panics on any [`SimError`] — exhausted event budget, watchdog
    /// livelock, or drained-queue deadlock. Use [`try_run`](Self::try_run)
    /// to get the abort as data instead.
    pub fn run(self) -> RunResult {
        self.try_run().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Dispatches one event to its handler.
    fn handle_event(&mut self, event: Event, now: Cycle) {
        match event {
            Event::WfReady(wf) => self.handle_wf_ready(wf, now),
            Event::TranslationDone { wf } => self.handle_translation_done(wf, now),
            Event::L2TlbArrive { wf, page } => self.handle_l2_tlb_arrive(wf, page, now),
            Event::L2TlbLookup { wf, page } => self.handle_l2_tlb_lookup(wf, page, now),
            Event::IommuArrival { wf, page } => self.handle_iommu_arrival(wf, page, now),
            Event::WalkerIssue {
                iommu,
                walker,
                addr,
            } => self.handle_walker_issue(iommu, walker, addr, now),
            Event::WalkerIssueBatch { iommu, slot } => {
                self.handle_walker_issue_batch(iommu, slot, now)
            }
            Event::DataSubmit { line } => self.handle_data_submit(line, now),
            Event::LineDone { wf } => self.handle_line_done(wf, now),
            Event::TranslationDoneBatch { slot } => self.handle_translation_done_batch(slot, now),
            Event::MemTick => self.handle_mem_tick(now),
        }
    }

    /// Host-cache hint issued one event ahead of dispatch: pulls the set
    /// lines the *next* event's handler will probe while the current one
    /// runs. Purely a performance hint — prefetches never change
    /// simulated behavior, so the unbatched oracle loop skips them
    /// without diverging.
    #[inline]
    fn prefetch_for(&self, event: &Event) {
        match *event {
            Event::L2TlbLookup { wf, page } => {
                let shard = self.cu_shards[self.cu_of(wf)];
                self.gpu_l2_tlbs[shard].prefetch(page);
            }
            Event::IommuArrival { wf: _, page } => {
                let io = self.cfg.topology.iommu_of_page(page);
                self.iommus[io].prefetch_translate(page);
                self.workload.space().table().prefetch_translate(page);
            }
            _ => {}
        }
    }

    /// Dispatches one drained calendar bucket; every event shares `now`.
    ///
    /// Two same-cycle shapes are exploited (the equivalence argument for
    /// each lives in DESIGN.md §10):
    ///
    /// * **Fused submit runs.** Consecutive `WalkerIssue`/`DataSubmit`
    ///   events touch the memory controller back-to-back. Their handlers
    ///   schedule nothing except the `touch_mem` re-arm tick, so the
    ///   per-submit re-arm decision is replayed into `ticks` (tracking a
    ///   shadow of `mem_tick_at`) and flushed to the queue once at the end
    ///   of the run: the deferred ticks receive the same insertion
    ///   sequence numbers the eager ones would have, leaving the queue
    ///   state bit-identical while the controller is touched by one tight
    ///   loop instead of one handler frame per event.
    /// * **Superseded `MemTick`s** are skipped without a dispatch — the
    ///   handler's first action is the identical `mem_tick_at` guard.
    fn dispatch_bucket(&mut self, batch: &[Event], now: Cycle, ticks: &mut Vec<Cycle>) {
        let mut i = 0;
        while i < batch.len() {
            match batch[i] {
                Event::WalkerIssue { .. } | Event::DataSubmit { .. } => {
                    let mut armed = self.mem_tick_at;
                    loop {
                        match batch.get(i) {
                            Some(&Event::WalkerIssue {
                                iommu,
                                walker,
                                addr,
                            }) => {
                                let id = self.mem.submit(addr.line(), MemSource::PageWalk, now);
                                self.walk_reads
                                    .push((id, iommu, ptw_types::ids::WalkerId(walker)));
                            }
                            Some(&Event::DataSubmit { line }) => {
                                self.mem.submit(line, MemSource::Data, now);
                            }
                            _ => break,
                        }
                        if let Some(t) = self.mem.next_event_time() {
                            let t = t.max(now);
                            if armed.is_none_or(|s| t < s) {
                                ticks.push(t);
                                armed = Some(t);
                            }
                        }
                        i += 1;
                    }
                    for &t in ticks.iter() {
                        self.queue.schedule(t, Event::MemTick);
                    }
                    ticks.clear();
                    self.mem_tick_at = armed;
                }
                Event::MemTick => {
                    if self.mem_tick_at == Some(now) {
                        self.handle_mem_tick(now);
                    }
                    i += 1;
                }
                event => {
                    if let Some(next) = batch.get(i + 1) {
                        self.prefetch_for(next);
                    }
                    self.handle_event(event, now);
                    i += 1;
                }
            }
        }
    }

    /// Runs the simulation to completion, reporting aborts as typed
    /// [`SimError`]s.
    ///
    /// The loop drains whole same-cycle calendar buckets at once
    /// ([`EventQueue::pop_bucket_into`]) and dispatches each bucket through
    /// [`dispatch_bucket`](Self::dispatch_bucket). Same-cycle events newly
    /// scheduled by a bucket's handlers carry larger insertion sequence
    /// numbers than anything drained, so re-draining the same cycle on the
    /// next iteration reproduces the exact `(time, seq)` order of the
    /// one-event-at-a-time loop ([`try_run_unbatched`]
    /// (Self::try_run_unbatched) keeps that loop as the differential
    /// oracle).
    ///
    /// Besides the `cfg.max_events` budget, a watchdog samples the retired
    /// instruction count every `cfg.watchdog.check_events` events: if it
    /// stands still for `cfg.watchdog.stall_epochs` consecutive samples
    /// while events keep flowing, the run is declared livelocked and the
    /// error carries a snapshot of the IOMMU scheduling state. These
    /// per-event checks are hoisted to a per-bucket checkpoint: a bucket
    /// whose last event provably stays below every trigger threshold takes
    /// a check-free fast path; otherwise a slow path replays the exact
    /// per-event check order with a virtual event counter, so budget,
    /// watchdog, and injected faults trigger at the same event counts with
    /// the same payloads as the unbatched loop.
    pub fn try_run(mut self) -> Result<RunResult, SimError> {
        let watchdog = self.cfg.watchdog;
        let mut wd_next_check = if watchdog.enabled() {
            watchdog.check_events
        } else {
            u64::MAX
        };
        let mut wd_last_retired = 0u64;
        let mut wd_stalled = 0u64;
        let fault = self.cfg.fault;
        let budget = if self.cfg.max_events > 0 {
            self.cfg.max_events
        } else {
            u64::MAX
        };
        // Largest processed-event count at which an injected fault still
        // cannot fire (`processed >= at_event` is the trigger).
        let fault_clear = fault.map_or(u64::MAX, |f| f.at_event.saturating_sub(1));
        let mut batch: Vec<Event> = Vec::new();
        let mut ticks: Vec<Cycle> = Vec::new();
        loop {
            let before = self.queue.processed();
            batch.clear();
            let Some(now) = self.queue.pop_bucket_into(&mut batch) else {
                break;
            };
            let after = before + batch.len() as u64;
            // Fast path: no check can trigger anywhere in this bucket.
            let clear = budget.min(wd_next_check.saturating_sub(1)).min(fault_clear);
            if after <= clear {
                self.dispatch_bucket(&batch, now, &mut ticks);
                continue;
            }
            // Slow path: replay the exact per-event check order of the
            // unbatched loop; `processed` is the count the queue would
            // have reported right after popping this event.
            for (i, &event) in batch.iter().enumerate() {
                let processed = before + i as u64 + 1;
                if self.cfg.max_events > 0 && processed > self.cfg.max_events {
                    return Err(SimError::EventBudgetExhausted {
                        events: processed,
                        now: now.raw(),
                        snapshot: self.stall_snapshot(),
                    });
                }
                if processed >= wd_next_check {
                    wd_next_check = processed + watchdog.check_events;
                    let retired = self.metrics.instructions_completed();
                    if retired == wd_last_retired {
                        wd_stalled += 1;
                        if wd_stalled >= watchdog.stall_epochs {
                            return Err(SimError::Livelock {
                                events: processed,
                                now: now.raw(),
                                stalled_epochs: wd_stalled,
                                retired_instructions: retired,
                                snapshot: self.stall_snapshot(),
                            });
                        }
                    } else {
                        wd_stalled = 0;
                        wd_last_retired = retired;
                    }
                }
                if let Some(fault) = fault {
                    if processed >= fault.at_event {
                        match fault.kind {
                            FaultKind::Panic => panic!(
                                "injected fault: panic at event {} (cycle {now})",
                                fault.at_event
                            ),
                            FaultKind::Livelock => {
                                // Swallow the event and push it one cycle
                                // out: the event stream keeps flowing while
                                // retired instructions freeze — the exact
                                // signature the watchdog exists to catch.
                                self.queue.schedule(now + 1u64, event);
                                continue;
                            }
                            FaultKind::Abort | FaultKind::Hang => {
                                trip_fatal_fault(fault.kind, fault.at_event, now)
                            }
                        }
                    }
                }
                self.handle_event(event, now);
            }
        }
        self.finish()
    }

    /// The pre-batching event loop: pops and checks one event at a time.
    ///
    /// Kept verbatim as the differential oracle for
    /// [`try_run`](Self::try_run) — `tests/batched_dispatch_oracle.rs`
    /// pins every (benchmark × policy) cell to a bit-identical
    /// [`RunResult`] across the two loops.
    pub fn try_run_unbatched(mut self) -> Result<RunResult, SimError> {
        let watchdog = self.cfg.watchdog;
        let mut wd_next_check = if watchdog.enabled() {
            watchdog.check_events
        } else {
            u64::MAX
        };
        let mut wd_last_retired = 0u64;
        let mut wd_stalled = 0u64;
        let fault = self.cfg.fault;
        while let Some((now, event)) = self.queue.pop() {
            let processed = self.queue.processed();
            if self.cfg.max_events > 0 && processed > self.cfg.max_events {
                return Err(SimError::EventBudgetExhausted {
                    events: processed,
                    now: now.raw(),
                    snapshot: self.stall_snapshot(),
                });
            }
            if processed >= wd_next_check {
                wd_next_check = processed + watchdog.check_events;
                let retired = self.metrics.instructions_completed();
                if retired == wd_last_retired {
                    wd_stalled += 1;
                    if wd_stalled >= watchdog.stall_epochs {
                        return Err(SimError::Livelock {
                            events: processed,
                            now: now.raw(),
                            stalled_epochs: wd_stalled,
                            retired_instructions: retired,
                            snapshot: self.stall_snapshot(),
                        });
                    }
                } else {
                    wd_stalled = 0;
                    wd_last_retired = retired;
                }
            }
            if let Some(fault) = fault {
                if processed >= fault.at_event {
                    match fault.kind {
                        FaultKind::Panic => panic!(
                            "injected fault: panic at event {} (cycle {now})",
                            fault.at_event
                        ),
                        FaultKind::Livelock => {
                            self.queue.schedule(now + 1u64, event);
                            continue;
                        }
                        FaultKind::Abort | FaultKind::Hang => {
                            trip_fatal_fault(fault.kind, fault.at_event, now)
                        }
                    }
                }
            }
            self.handle_event(event, now);
        }
        self.finish()
    }

    /// Diagnostic snapshot for an aborted run: the IOMMU with the most
    /// pending walks (the lowest index on ties), numbered when the
    /// topology has more than one.
    fn stall_snapshot(&self) -> Box<IommuSnapshot> {
        // `max_by_key` keeps the last maximum: walk the IOMMUs backwards.
        let (i, iommu) = self
            .iommus
            .iter()
            .enumerate()
            .rev()
            .max_by_key(|(_, io)| io.pending())
            .expect("a topology has at least one IOMMU");
        let mut snapshot = iommu.snapshot();
        if self.iommus.len() > 1 {
            snapshot.iommu = Some(i);
        }
        Box::new(snapshot)
    }

    /// Post-loop result assembly shared by both run loops: deadlock
    /// detection, CU finishing, and metric aggregation.
    fn finish(mut self) -> Result<RunResult, SimError> {
        let end = self.queue.now();
        let unretired = self
            .wavefronts
            .iter()
            .filter(|wf| wf.phase() != WavefrontPhase::Retired)
            .count();
        if unretired > 0 {
            return Err(SimError::Deadlock {
                now: end.raw(),
                unretired_wavefronts: unretired,
                snapshot: self.stall_snapshot(),
            });
        }
        for cu in &mut self.cus {
            cu.finish(end);
        }
        let stall: u64 = self.cus.iter().map(Cu::stall_cycles).sum();
        let instructions = self.workload.issued_instructions();
        // Sum per-IOMMU counters into the pinned aggregate; the per-IOMMU
        // breakdown survives alongside it for the imbalance figure.
        let mut iommu_stats = *self.iommus[0].stats();
        for io in &self.iommus[1..] {
            iommu_stats.absorb(io.stats());
        }
        let per_iommu_walks: Vec<u64> = self
            .iommus
            .iter()
            .map(|io| io.stats().walks_performed)
            .collect();
        let iommu_imbalance = {
            let max = per_iommu_walks.iter().copied().max().unwrap_or(0);
            let mean = per_iommu_walks.iter().sum::<u64>() as f64 / per_iommu_walks.len() as f64;
            if mean == 0.0 {
                1.0
            } else {
                max as f64 / mean
            }
        };
        let metrics = self.metrics.finish(
            end.raw(),
            instructions,
            stall,
            iommu_stats.walk_requests,
            iommu_stats.walks_performed,
        );
        let l1_tlb_rate = {
            let (h, t) = self.gpu_l1_tlbs.iter().fold((0u64, 0u64), |(h, t), tlb| {
                (h + tlb.stats().hits(), t + tlb.stats().total())
            });
            if t == 0 {
                0.0
            } else {
                h as f64 / t as f64
            }
        };
        let l1_cache_rate = {
            let (h, t) = self.l1_caches.iter().fold((0u64, 0u64), |(h, t), c| {
                (h + c.stats().hits(), t + c.stats().total())
            });
            if t == 0 {
                0.0
            } else {
                h as f64 / t as f64
            }
        };
        let finish_spread = if self.finish_times.is_empty() {
            1.0
        } else {
            let max = self
                .finish_times
                .iter()
                .map(|t| t.raw())
                .max()
                .expect("non-empty");
            let mean = self.finish_times.iter().map(|t| t.raw()).sum::<u64>() as f64
                / self.finish_times.len() as f64;
            if mean == 0.0 {
                1.0
            } else {
                max as f64 / mean
            }
        };
        let l2_tlb_rate = {
            let (h, t) = self.gpu_l2_tlbs.iter().fold((0u64, 0u64), |(h, t), tlb| {
                (h + tlb.stats().hits(), t + tlb.stats().total())
            });
            if t == 0 {
                0.0
            } else {
                h as f64 / t as f64
            }
        };
        let gpu_tlb_large_hits = self
            .gpu_l1_tlbs
            .iter()
            .chain(self.gpu_l2_tlbs.iter())
            .map(Tlb::large_hits)
            .sum();
        Ok(RunResult {
            metrics,
            iommu: iommu_stats,
            per_iommu_walks,
            iommu_imbalance,
            gpu_tlb_large_hits,
            mem: *self.mem.stats(),
            gpu_l1_tlb_hit_rate: l1_tlb_rate,
            gpu_l2_tlb_hit_rate: l2_tlb_rate,
            l1_cache_hit_rate: l1_cache_rate,
            l2_cache_hit_rate: self.l2_cache.stats().rate(),
            events: self.queue.processed(),
            finish_spread,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptw_core::sched::SchedulerKind;
    use ptw_workloads::{build, BenchmarkId, Scale};

    fn run(id: BenchmarkId, sched: SchedulerKind) -> RunResult {
        let cfg = SystemConfig::paper_baseline().with_scheduler(sched);
        let w = build(id, Scale::Small, 1);
        System::new(cfg, w).run()
    }

    #[test]
    fn event_stays_within_its_copy_budget() {
        // Mirrors the const assert above so the budget shows up in test
        // output; the exact size today is 16 bytes (tag word + payload).
        assert_eq!(std::mem::size_of::<Event>(), 16);
        assert_eq!(std::mem::align_of::<Event>(), 8);
    }

    #[test]
    fn kmn_runs_to_completion() {
        let r = run(BenchmarkId::Kmn, SchedulerKind::Fcfs);
        assert!(r.metrics.cycles > 0);
        assert!(r.metrics.instructions > 0);
        assert!(r.events > 0);
    }

    #[test]
    fn regular_workload_hits_tlbs() {
        let r = run(BenchmarkId::Hot, SchedulerKind::Fcfs);
        // Coalesced streaming: almost every translation is an L1 TLB hit.
        assert!(
            r.gpu_l1_tlb_hit_rate > 0.5,
            "rate {}",
            r.gpu_l1_tlb_hit_rate
        );
    }

    #[test]
    fn irregular_workload_generates_walks() {
        let r = run(BenchmarkId::Mvt, SchedulerKind::Fcfs);
        assert!(
            r.metrics.walk_requests > 1000,
            "{}",
            r.metrics.walk_requests
        );
        assert!(r.metrics.instructions_with_walks > 0);
        assert!(r.metrics.mean_last_latency >= r.metrics.mean_first_latency);
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run(BenchmarkId::Mvt, SchedulerKind::SimtAware);
        let b = run(BenchmarkId::Mvt, SchedulerKind::SimtAware);
        assert_eq!(a.metrics.cycles, b.metrics.cycles);
        assert_eq!(a.metrics.walk_requests, b.metrics.walk_requests);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn schedulers_change_behaviour_on_irregular() {
        let fcfs = run(BenchmarkId::Mvt, SchedulerKind::Fcfs);
        let simt = run(BenchmarkId::Mvt, SchedulerKind::SimtAware);
        assert_ne!(fcfs.metrics.cycles, simt.metrics.cycles);
    }

    #[test]
    fn default_topology_reports_single_iommu_shape() {
        let r = run(BenchmarkId::Mvt, SchedulerKind::Fcfs);
        assert_eq!(r.per_iommu_walks, vec![r.iommu.walks_performed]);
        assert_eq!(r.iommu_imbalance, 1.0);
        assert_eq!(r.gpu_tlb_large_hits, 0, "all-4K run saw a 2M hit");
        assert_eq!(r.iommu.large_walks_performed, 0);
    }

    #[test]
    fn sharded_mixed_page_topology_runs_end_to_end() {
        let cfg = SystemConfig::paper_baseline()
            .with_scheduler(SchedulerKind::SimtAware)
            .with_topology(2, 2)
            .with_large_page_permille(500);
        let w = ptw_workloads::build_with_large_pages(BenchmarkId::Mvt, Scale::Small, 1, 500);
        let r = System::new(cfg, w).run();
        assert!(r.metrics.cycles > 0);
        assert_eq!(r.per_iommu_walks.len(), 2);
        assert_eq!(
            r.per_iommu_walks.iter().sum::<u64>(),
            r.iommu.walks_performed
        );
        // Interleaved VA sharding spreads MVT's divergent rows over both
        // IOMMUs...
        assert!(
            r.per_iommu_walks.iter().all(|&w| w > 0),
            "an IOMMU sat idle: {:?}",
            r.per_iommu_walks
        );
        assert!(r.iommu_imbalance >= 1.0);
        // ...and half the eligible regions are 2 MiB, so large-page walks
        // and GPU large-TLB hits both appear.
        assert!(r.iommu.large_walks_performed > 0, "no 2M walk performed");
        assert!(r.gpu_tlb_large_hits > 0, "no 2M GPU TLB hit");
        assert!(
            r.iommu.large_walks_performed < r.iommu.walks_performed,
            "4K walks vanished"
        );
    }

    #[test]
    fn mixed_topology_is_deterministic() {
        let run_once = || {
            let cfg = SystemConfig::paper_baseline()
                .with_topology(2, 2)
                .with_large_page_permille(250);
            let w = ptw_workloads::build_with_large_pages(BenchmarkId::Xsb, Scale::Small, 3, 250);
            System::new(cfg, w).run()
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a, b);
    }
}
