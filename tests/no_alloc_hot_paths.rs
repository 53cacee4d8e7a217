//! Proves the per-lookup hot paths are heap-allocation-free.
//!
//! A counting wrapper around the system allocator tallies every
//! `alloc`/`realloc`/`alloc_zeroed`; after warming each structure the test
//! asserts a zero allocation delta across:
//!
//! * TLB lookup (hit and miss) and fill (including an eviction),
//! * page-walk-cache `estimate`, `begin_walk` and `complete_walk`,
//! * MSHR `register` (allocate and merge) and `complete_into`,
//! * the coalescer's buffer-reusing `coalesce_split` form,
//! * a full IOMMU walk stepped through `memory_done_into` with a
//!   caller-owned completions buffer,
//! * SIMT-aware selection with starvation aging: bypassing picks, a
//!   starvation-forced pick, walk starts that block a multi-entry page
//!   chain, and the completion fan-out that drains it,
//! * the metrics collector's `instruction_done` on a multi-walk log and
//!   its `l2_tlb_access`, once one instruction and one epoch have sized
//!   the span log and the wavefront set.
//!
//! Everything runs in a single `#[test]` so no concurrent test can disturb
//! the allocation counter between the before/after reads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ptw_core::iommu::{CompletedTranslation, Iommu, IommuConfig, MemRead, TranslationOutcome};
use ptw_core::sched::SchedulerKind;
use ptw_gpu::coalesce_split;
use ptw_mem::{Mshr, MshrOutcome};
use ptw_pagetable::frames::{FrameAllocator, FrameLayout};
use ptw_pagetable::{PageTable, PageWalkCache, PwcConfig};
use ptw_sim::metrics::{InstrWalkLog, MetricsCollector, WalkObservation};
use ptw_tlb::{Tlb, TlbConfig};
use ptw_types::addr::{LineAddr, PhysFrame, VirtAddr, VirtPage};
use ptw_types::ids::InstrId;
use ptw_types::time::Cycle;

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and asserts the allocator was never called inside it.
fn assert_no_alloc<T>(what: &str, f: impl FnOnce() -> T) -> T {
    let before = ALLOC_CALLS.load(Ordering::SeqCst);
    let out = f();
    let delta = ALLOC_CALLS.load(Ordering::SeqCst) - before;
    assert_eq!(
        delta, 0,
        "{what}: {delta} heap allocation(s) on the hot path"
    );
    out
}

/// Drives the single started walker's walk to completion.
fn drive(
    iommu: &mut Iommu<u32>,
    reads: &mut Vec<MemRead>,
    done: &mut Vec<CompletedTranslation<u32>>,
) {
    let mut cur = reads.pop().expect("one started walker");
    while let Some(next) = iommu.memory_done_into(cur.walker, cur.issue_at, done) {
        cur = next;
    }
}

/// One round of SIMT-aware scheduling on a one-walker IOMMU whose aging
/// threshold is 2, over the eight pages from `base`, starting at cycle
/// `t`. While a blocker walk is in flight (so arrivals are scored), a
/// heavy instruction queues four pages, one of them shared with two
/// light instructions. The first light pick bypasses the heavy entries
/// and blocks the shared page's two other entries; its walk fans out to
/// all three. A second light pick bypasses the heavy entries again, so
/// the next pick is forced to the starved heavy head over a third light
/// instruction. Instruction ids repeat across rounds, so a warmed IOMMU
/// meets no new instruction in the measured round.
fn simt_round(
    iommu: &mut Iommu<u32>,
    table: &PageTable,
    base: u64,
    t: u64,
    reads: &mut Vec<MemRead>,
    done: &mut Vec<CompletedTranslation<u32>>,
) {
    let page = |k: u64| VirtPage::new(base + k);
    let arrive = |iommu: &mut Iommu<u32>, k: u64, instr: u32, at: u64| {
        let out = iommu.translate(page(k), InstrId::new(instr), k as u32, Cycle::new(at));
        assert!(matches!(out, TranslationOutcome::WalkPending));
    };
    arrive(iommu, 0, 0, t);
    iommu.start_walkers_into(table, Cycle::new(t + 100), reads);
    // Heavy instruction 1: pages 1, 2, 3 (shared), 4.
    for k in 1..=4 {
        arrive(iommu, k, 1, t + 200);
    }
    arrive(iommu, 3, 2, t + 200); // light: the shared page
    arrive(iommu, 3, 3, t + 200); // light: the shared page again
    arrive(iommu, 5, 4, t + 200); // light
    drive(iommu, reads, done); // the blocker
                               // Light pick of page 3: bypasses pages 1-4 and blocks the two other
                               // page-3 entries, which then piggyback on its walk.
    iommu.start_walkers_into(table, Cycle::new(t + 300), reads);
    drive(iommu, reads, done);
    assert_eq!(done.len(), 4, "blocker + own walk + two piggybacks");
    // Light pick of page 5: the heavy head reaches the threshold.
    iommu.start_walkers_into(table, Cycle::new(t + 400), reads);
    arrive(iommu, 6, 5, t + 410); // light, scored while page 5 walks
    drive(iommu, reads, done);
    let forced = iommu.starvation_forced_picks();
    iommu.start_walkers_into(table, Cycle::new(t + 500), reads);
    drive(iommu, reads, done);
    assert_eq!(iommu.starvation_forced_picks(), forced + 1, "forced pick");
    assert_eq!(done.last().map(|c| c.waiter), Some(1), "starved head first");
    for step in 0..3 {
        iommu.start_walkers_into(table, Cycle::new(t + 600 + 100 * step), reads);
        drive(iommu, reads, done);
    }
    assert_eq!(done.len(), 9, "every request completed");
    assert_eq!(iommu.pending(), 0);
    done.clear();
}

#[test]
fn hot_paths_do_not_allocate() {
    // --- TLB: storage is preallocated at construction. ---
    let mut tlb = Tlb::new(TlbConfig::paper_gpu_l2());
    let entries = tlb.config().entries as u64;
    for vpn in 0..entries {
        tlb.fill(VirtPage::new(vpn), PhysFrame::new(vpn + 0x1000));
    }
    assert_no_alloc("tlb lookup/fill", || {
        assert!(tlb.lookup(VirtPage::new(3)).is_some());
        assert!(tlb.lookup(VirtPage::new(entries + 7)).is_none());
        // The TLB is full, so this fill must evict — still without heap work.
        let evicted = tlb.fill(VirtPage::new(entries + 7), PhysFrame::new(0x9999));
        assert!(evicted.is_some());
    });

    // --- Page walk cache: plans are fixed-size, arrays preallocated. ---
    let mut frames = FrameAllocator::new(0x100, 1 << 20, FrameLayout::Sequential);
    let mut table = PageTable::new(&mut frames);
    for vpn in 0..64u64 {
        // Spread pages across leaf tables so walks touch distinct paths.
        table
            .map(
                VirtPage::new(vpn << 9),
                PhysFrame::new(0x4000 + vpn),
                &mut frames,
            )
            .expect("fresh mapping");
    }
    let mut pwc = PageWalkCache::new(PwcConfig::paper_baseline());
    // Warm a few walks so complete_walk exercises both insert and update.
    for vpn in 0..8u64 {
        let plan = pwc
            .begin_walk(&table, VirtPage::new(vpn << 9))
            .expect("mapped page");
        pwc.complete_walk(&plan);
    }
    assert_no_alloc("pwc estimate/begin_walk/complete_walk", || {
        for vpn in 0..64u64 {
            let page = VirtPage::new(vpn << 9);
            let _ = pwc.estimate(page);
            let plan = pwc.begin_walk(&table, page).expect("mapped page");
            assert!(plan.accesses() >= 1);
            pwc.complete_walk(&plan);
        }
    });

    // --- MSHR: slab entries and waiter buffers are recycled. ---
    let mut mshr: Mshr<(usize, u32)> = Mshr::new();
    let mut waiters: Vec<(usize, u32)> = Vec::with_capacity(16);
    let line_a = LineAddr::new(0x1000);
    let line_b = LineAddr::new(0x2000);
    // Warm: one full register/complete cycle leaves a spare waiter buffer
    // (capacity 4) and slack in the entry slab and output vector.
    for w in 0..4u32 {
        mshr.register(line_a, (0, w));
    }
    mshr.register(line_b, (1, 0));
    mshr.complete_into(line_a, &mut waiters);
    mshr.complete_into(line_b, &mut waiters);
    waiters.clear();
    assert_no_alloc("mshr register/complete_into", || {
        assert_eq!(mshr.register(line_a, (2, 0)), MshrOutcome::Allocated);
        assert_eq!(mshr.register(line_a, (2, 1)), MshrOutcome::Merged);
        mshr.complete_into(line_a, &mut waiters);
        assert_eq!(waiters.len(), 2);
        waiters.clear();
    });

    // --- Metrics: per-instruction and per-L2-TLB-access bookkeeping. ---
    let mut metrics = MetricsCollector::new(16);
    let mut log = InstrWalkLog::default();
    for (seq, via_walk) in [(7, true), (9, true), (8, false), (12, true)] {
        log.record(WalkObservation {
            latency: 100 + seq,
            completed_at: Cycle::new(1_000 + seq),
            service_seq: seq,
            via_walk,
            accesses: 4,
        });
    }
    // Warm: one full epoch sizes the epoch's wavefront set, and one
    // instruction gives the span log room (it grows by doubling, so a
    // run reallocates it O(log n) times, never once per instruction).
    for wf in 0..16u32 {
        metrics.l2_tlb_access(wf);
    }
    metrics.instruction_done(&log);
    assert_no_alloc("metrics instruction_done / l2_tlb_access", || {
        metrics.instruction_done(&log);
        for wf in 0..16u32 {
            metrics.l2_tlb_access(15 - wf);
        }
    });

    // --- Coalescer: the split form reuses the caller's buffers. ---
    let addrs: Vec<VirtAddr> = (0..64u64).map(|i| VirtAddr::new(i * 0x40)).collect();
    let mut pages = Vec::new();
    let mut lines = Vec::new();
    coalesce_split(&addrs, &mut pages, &mut lines);
    assert_no_alloc("coalesce_split with warmed buffers", || {
        coalesce_split(&addrs, &mut pages, &mut lines);
        assert_eq!(pages.len(), 1);
        assert_eq!(lines.len(), 64);
    });

    // --- IOMMU walk loop: memory_done_into appends into caller buffers. ---
    let mut iommu: Iommu<u32> = Iommu::new(IommuConfig::paper_baseline());
    let mut reads: Vec<MemRead> = Vec::with_capacity(8);
    let mut done: Vec<CompletedTranslation<u32>> = Vec::with_capacity(8);
    // Warm: one full walk sizes the walker slab and the completions buffer.
    // (Walks complete after their enqueue time, hence the forward clock.)
    let miss = iommu.translate(VirtPage::new(10 << 9), InstrId::new(0), 7, Cycle::ZERO);
    assert!(matches!(miss, TranslationOutcome::WalkPending));
    iommu.start_walkers_into(&table, Cycle::new(100), &mut reads);
    drive(&mut iommu, &mut reads, &mut done);
    assert_eq!(done.len(), 1);
    done.clear();
    // Measured: a second walk to a fresh page reuses every buffer.
    let miss = iommu.translate(VirtPage::new(11 << 9), InstrId::new(1), 8, Cycle::new(200));
    assert!(matches!(miss, TranslationOutcome::WalkPending));
    iommu.start_walkers_into(&table, Cycle::new(300), &mut reads);
    assert_no_alloc("iommu memory_done_into with warmed buffers", || {
        drive(&mut iommu, &mut reads, &mut done);
        assert_eq!(done.len(), 1);
        done.clear();
    });

    // --- Full completion fan-out: several same-page requests piggyback on
    // one walk and drain through the candidate index's page chain. ---
    // Warm: three same-page requests size the buffer slab (3 live slots),
    // the index's per-handle metadata and page map, and the completions
    // vector; the walk then exercises the whole chain drain once.
    let warm_page = VirtPage::new(12 << 9);
    for w in 0..3u32 {
        let out = iommu.translate(warm_page, InstrId::new(w % 2), 20 + w, Cycle::new(400));
        assert!(matches!(out, TranslationOutcome::WalkPending));
    }
    iommu.start_walkers_into(&table, Cycle::new(500), &mut reads);
    drive(&mut iommu, &mut reads, &mut done);
    assert_eq!(done.len(), 3);
    done.clear();
    // Measured: the same shape on a fresh page touches translate (buffer
    // push + index update), walker start (indexed selection + page-chain
    // blocking), and the multi-entry piggyback drain — zero allocations.
    // This shape is one finished walk's fan-out in `System`: the walker's
    // own completion plus its piggybacked merges, all sharing a
    // completion time, each scheduled as its own `TranslationDone`.
    let hot_page = VirtPage::new(13 << 9);
    assert_no_alloc(
        "completion fan-out (translate, select, piggyback drain)",
        || {
            for w in 0..3u32 {
                let out = iommu.translate(hot_page, InstrId::new(w % 2), 30 + w, Cycle::new(600));
                assert!(matches!(out, TranslationOutcome::WalkPending));
            }
            iommu.start_walkers_into(&table, Cycle::new(700), &mut reads);
            drive(&mut iommu, &mut reads, &mut done);
            assert_eq!(done.len(), 3, "one own walk + two piggybacks");
            assert_eq!(done.iter().filter(|c| !c.via_walk).count(), 2);
            done.clear();
        },
    );

    // --- SIMT-aware selection with starvation aging at threshold 2. ---
    let mut cfg = IommuConfig::paper_baseline().with_scheduler(SchedulerKind::SimtAware);
    cfg.walkers = 1;
    cfg.aging_threshold = 2;
    let mut iommu: Iommu<u32> = Iommu::new(cfg);
    // Every round's pages share one leaf table, so once the page-walk
    // cache holds its upper levels each arrival scores the same, and the
    // warm rounds touch every score bucket the measured round touches.
    let region = 0x20_0000u64;
    for vpn in region..region + 40 {
        table
            .map(
                VirtPage::new(vpn),
                PhysFrame::new(0x8000 + vpn - region),
                &mut frames,
            )
            .expect("fresh mapping");
    }
    for round in 0..4 {
        simt_round(
            &mut iommu,
            &table,
            region + 8 * round,
            1_000 * round,
            &mut reads,
            &mut done,
        );
    }
    assert_no_alloc(
        "SIMT-aware aging (bypassing picks, forced pick, page-chain block, fan-out)",
        || {
            simt_round(
                &mut iommu,
                &table,
                region + 32,
                4_000,
                &mut reads,
                &mut done,
            )
        },
    );
}
