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
use ptw_types::work::{self, Work};
use ptw_workloads::Workload;

use crate::config::{FaultInjection, FaultKind, SystemConfig, WatchdogConfig};
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

/// The per-event run checks' state: event budget, livelock watchdog and
/// injected fault ([`System::check_event`]).
struct RunChecks {
    /// Largest accepted processed-event count (`u64::MAX` = unlimited).
    budget: u64,
    watchdog: WatchdogConfig,
    /// Processed-event count of the next watchdog sample.
    wd_next_check: u64,
    wd_last_retired: u64,
    wd_stalled: u64,
    fault: Option<FaultInjection>,
}

impl RunChecks {
    fn new(cfg: &SystemConfig) -> Self {
        RunChecks {
            budget: if cfg.max_events > 0 {
                cfg.max_events
            } else {
                u64::MAX
            },
            watchdog: cfg.watchdog,
            wd_next_check: if cfg.watchdog.enabled() {
                cfg.watchdog.check_events
            } else {
                u64::MAX
            },
            wd_last_retired: 0,
            wd_stalled: 0,
            fault: cfg.fault,
        }
    }

    /// The largest processed-event count at which no check can trigger.
    fn quiet_until(&self) -> u64 {
        let fault = self
            .fault
            .map_or(u64::MAX, |f| f.at_event.saturating_sub(1));
        self.budget
            .min(self.wd_next_check.saturating_sub(1))
            .min(fault)
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
    /// A data-cache miss is submitted to the memory controller.
    DataSubmit { line: LineAddr },
    /// One cache-line fetch of the wavefront's instruction finished.
    LineDone { wf: u32 },
    /// Wake the memory controller.
    MemTick,
}

impl Event {
    /// The work counter of this event's kind.
    fn work(&self) -> Work {
        match self {
            Event::WfReady(_) => Work::WfReady,
            Event::TranslationDone { .. } => Work::TranslationDone,
            Event::L2TlbArrive { .. } => Work::L2TlbArrive,
            Event::L2TlbLookup { .. } => Work::L2TlbLookup,
            Event::IommuArrival { .. } => Work::IommuArrival,
            Event::WalkerIssue { .. } => Work::WalkerIssue,
            Event::DataSubmit { .. } => Work::DataSubmit,
            Event::LineDone { .. } => Work::LineDone,
            Event::MemTick => Work::MemTick,
        }
    }
}

/// Adds one popped bucket to the per-kind event counters, once per kind.
fn count_events(batch: &[Event]) {
    let mut tally = [0u64; work::N];
    for event in batch {
        tally[event.work() as usize] += 1;
    }
    for (&w, n) in Work::ALL.iter().zip(tally) {
        work::add(w, n);
    }
}

/// [`EventQueue::pop_bucket_into`] hands whole bucket buffers to the
/// drain batch, but events are still copied on `schedule` and iterated in
/// the dispatch loop, so `Event`'s size is hot-loop traffic either way. It
/// also sizes the queue's memory: each pooled bucket buffer holds up to
/// the largest same-cycle burst (~50 events per SIMD instruction on the
/// irregular workloads) at this many bytes per event.
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
            workload,
            cfg,
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
                            // One finished walk fans out to its own waiter
                            // plus every piggybacked merge.
                            walker_finished = true;
                            for ct in &done {
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
                                self.queue.schedule(
                                    ct.completed_at + self.cfg.gpu.iommu_hop_cycles,
                                    Event::TranslationDone { wf },
                                );
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
            Event::DataSubmit { line } => self.handle_data_submit(line, now),
            Event::LineDone { wf } => self.handle_line_done(wf, now),
            Event::MemTick => self.handle_mem_tick(now),
        }
    }

    /// Dispatches one drained calendar bucket; every event shares `now`.
    ///
    /// Two same-cycle shapes are exploited (the equivalence argument for
    /// each lives in DESIGN.md §10):
    ///
    /// * **Submit runs.** Consecutive `WalkerIssue`/`DataSubmit`
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
    /// `dispatch_bucket`. Same-cycle events newly
    /// scheduled by a bucket's handlers carry larger insertion sequence
    /// numbers than anything drained, so re-draining the same cycle on the
    /// next iteration reproduces the exact `(time, seq)` order of a
    /// one-event-at-a-time loop (the tests keep that loop as a reference).
    ///
    /// Besides the `cfg.max_events` budget, a watchdog samples the retired
    /// instruction count every `cfg.watchdog.check_events` events: if it
    /// stands still for `cfg.watchdog.stall_epochs` consecutive samples
    /// while events keep flowing, the run is declared livelocked and the
    /// error carries a snapshot of the IOMMU scheduling state. These
    /// per-event checks are hoisted to a per-bucket checkpoint: a bucket
    /// whose last event provably stays below every trigger threshold takes
    /// a check-free fast path; otherwise a slow path runs
    /// `check_event` before each event with the count
    /// the queue would have reported after popping it alone, so budget,
    /// watchdog, and injected faults trigger at the same event counts with
    /// the same payloads as a per-event loop.
    pub fn try_run(mut self) -> Result<RunResult, SimError> {
        let mut checks = RunChecks::new(&self.cfg);
        let mut batch: Vec<Event> = Vec::new();
        let mut ticks: Vec<Cycle> = Vec::new();
        loop {
            let before = self.queue.processed();
            batch.clear();
            let Some(now) = self.queue.pop_bucket_into(&mut batch) else {
                break;
            };
            // Every popped event counts, on both paths below: superseded
            // `MemTick`s and swallowed livelock events included.
            if cfg!(debug_assertions) {
                count_events(&batch);
            }
            if before + batch.len() as u64 <= checks.quiet_until() {
                self.dispatch_bucket(&batch, now, &mut ticks);
                continue;
            }
            for (i, &event) in batch.iter().enumerate() {
                if self.check_event(&mut checks, before + i as u64 + 1, event, now)? {
                    self.handle_event(event, now);
                }
            }
        }
        self.finish()
    }

    /// The budget, watchdog and fault checks for the `processed`-th event
    /// of the run, `event`, popped at `now`. Returns whether to dispatch
    /// it: an injected livelock swallows the event instead, pushing it one
    /// cycle out.
    fn check_event(
        &mut self,
        checks: &mut RunChecks,
        processed: u64,
        event: Event,
        now: Cycle,
    ) -> Result<bool, SimError> {
        if processed > checks.budget {
            return Err(SimError::EventBudgetExhausted {
                events: processed,
                now: now.raw(),
                snapshot: self.stall_snapshot(),
            });
        }
        if processed >= checks.wd_next_check {
            checks.wd_next_check = processed + checks.watchdog.check_events;
            let retired = self.metrics.instructions_completed();
            if retired == checks.wd_last_retired {
                checks.wd_stalled += 1;
                if checks.wd_stalled >= checks.watchdog.stall_epochs {
                    return Err(SimError::Livelock {
                        events: processed,
                        now: now.raw(),
                        stalled_epochs: checks.wd_stalled,
                        retired_instructions: retired,
                        snapshot: self.stall_snapshot(),
                    });
                }
            } else {
                checks.wd_stalled = 0;
                checks.wd_last_retired = retired;
            }
        }
        match checks.fault {
            Some(fault) if processed >= fault.at_event => match fault.kind {
                FaultKind::Panic => panic!(
                    "injected fault: panic at event {} (cycle {now})",
                    fault.at_event
                ),
                FaultKind::Livelock => {
                    // The event stream keeps flowing while retired
                    // instructions freeze — the exact signature the
                    // watchdog exists to catch.
                    self.queue.schedule(now + 1u64, event);
                    Ok(false)
                }
                FaultKind::Abort | FaultKind::Hang => {
                    trip_fatal_fault(fault.kind, fault.at_event, now)
                }
            },
            _ => Ok(true),
        }
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

    /// Post-loop result assembly: deadlock detection, CU finishing, and
    /// metric aggregation.
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

    impl System {
        /// The per-event reference loop: pops, checks and dispatches one
        /// event at a time, with none of `try_run`'s bucket draining,
        /// submit runs, stale-tick skipping or hoisted checks.
        fn try_run_per_event(mut self) -> Result<RunResult, SimError> {
            let mut checks = RunChecks::new(&self.cfg);
            while let Some((now, event)) = self.queue.pop() {
                let processed = self.queue.processed();
                if self.check_event(&mut checks, processed, event, now)? {
                    self.handle_event(event, now);
                }
            }
            self.finish()
        }
    }

    /// Runs `cfg` on a small-scale `bench` through both loops.
    fn run_both(
        cfg: SystemConfig,
        bench: BenchmarkId,
    ) -> (Result<RunResult, SimError>, Result<RunResult, SimError>) {
        let sys = || System::new(cfg.clone(), build(bench, Scale::Small, 0xC0FFEE));
        (sys().try_run(), sys().try_run_per_event())
    }

    /// `RunResult`'s equality is exact (f64 fields and the `events` count
    /// included), so batching may neither change a simulated result nor
    /// create or lose a single event, in any cell.
    #[test]
    fn every_cell_is_bit_identical_across_loops() {
        for bench in BenchmarkId::ALL {
            for sched in SchedulerKind::EXTENDED {
                let cfg = SystemConfig::paper_baseline().with_scheduler(sched);
                let (batched, per_event) = run_both(cfg, bench);
                let batched = batched.unwrap_or_else(|e| panic!("{bench}/{sched:?}: {e}"));
                assert_eq!(Ok(batched), per_event, "{bench}/{sched:?}");
            }
        }
    }

    /// The slow path reports the exact abort of the per-event loop: same
    /// event count, cycle and snapshot.
    #[test]
    fn budget_error_is_identical_across_loops() {
        let mut cfg = SystemConfig::paper_baseline();
        cfg.max_events = 1_000;
        let (batched, per_event) = run_both(cfg, BenchmarkId::Mvt);
        assert!(
            matches!(
                batched,
                Err(SimError::EventBudgetExhausted { events: 1_001, .. })
            ),
            "budget trips on the first event past it: {batched:?}"
        );
        assert_eq!(batched, per_event);
    }

    #[test]
    fn injected_livelock_trips_the_watchdog_identically_across_loops() {
        let cfg = SystemConfig::paper_baseline()
            .with_watchdog(WatchdogConfig {
                check_events: 500,
                stall_epochs: 3,
            })
            .with_fault(FaultInjection::livelock_at(2_000));
        let (batched, per_event) = run_both(cfg, BenchmarkId::Mvt);
        assert!(
            matches!(batched, Err(SimError::Livelock { .. })),
            "{batched:?}"
        );
        assert_eq!(batched, per_event);
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
        for sched in [SchedulerKind::Fcfs, SchedulerKind::SimtAware] {
            let cfg = SystemConfig::paper_baseline()
                .with_scheduler(sched)
                .with_topology(2, 2)
                .with_large_page_permille(500);
            let w = ptw_workloads::build_with_large_pages(BenchmarkId::Mvt, Scale::Small, 1, 500);
            let r = System::new(cfg, w).run();
            assert!(r.metrics.cycles > 0, "{sched:?}");
            assert_eq!(r.per_iommu_walks.len(), 2, "{sched:?}");
            assert_eq!(
                r.per_iommu_walks.iter().sum::<u64>(),
                r.iommu.walks_performed,
                "{sched:?}"
            );
            // Interleaved VA sharding spreads MVT's divergent rows over
            // both IOMMUs...
            assert!(
                r.per_iommu_walks.iter().all(|&w| w > 0),
                "{sched:?}: an IOMMU sat idle: {:?}",
                r.per_iommu_walks
            );
            assert!(r.iommu_imbalance >= 1.0, "{sched:?}");
            // ...and half the eligible regions are 2 MiB, so large-page
            // walks and GPU large-TLB hits both appear.
            assert!(
                r.iommu.large_walks_performed > 0,
                "{sched:?}: no 2M walk performed"
            );
            assert!(r.gpu_tlb_large_hits > 0, "{sched:?}: no 2M GPU TLB hit");
            assert!(
                r.iommu.large_walks_performed < r.iommu.walks_performed,
                "{sched:?}: 4K walks vanished"
            );
        }
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
