//! Candidate-index consistency under full IOMMU churn.
//!
//! One IOMMU is driven through thousands of steps of interleaved
//! translations over a 4K/2M page mix, walker kicks, and out-of-order
//! memory completions, and after every step its candidate index is
//! recomputed from scratch and compared (`validate_candidate_index`):
//! blocked flags, window membership, per-instruction aggregates, and the
//! lazy aging counts. The index's picks themselves are pinned against the
//! reference scan in `tests/scheduler_oracle.rs`; this test covers what
//! only the IOMMU does to the index — scoring on arrival, piggyback
//! fan-out on completion, large-page walks — and checks every walk still
//! completes.
//!
//! The configuration is deliberately hostile: a 12-entry lookahead window
//! so the buffer routinely outgrows it (exercising window pull-in on
//! removal), and an aging threshold of 40 so starvation preemption fires
//! constantly. All seven scheduling policies run under two seeds each.

use ptw_core::iommu::{CompletedTranslation, Iommu, IommuConfig, MemRead, TranslationOutcome};
use ptw_core::sched::SchedulerKind;
use ptw_pagetable::frames::{FrameAllocator, FrameLayout};
use ptw_pagetable::table::PageTable;
use ptw_types::addr::{PageSize, VirtPage, PAGES_PER_LARGE_PAGE};
use ptw_types::ids::InstrId;
use ptw_types::rng::SplitMix64;
use ptw_types::time::Cycle;

const POLICIES: [SchedulerKind; 7] = [
    SchedulerKind::Fcfs,
    SchedulerKind::Random,
    SchedulerKind::SjfOnly,
    SchedulerKind::BatchOnly,
    SchedulerKind::SimtAware,
    SchedulerKind::HeaviestFirst,
    SchedulerKind::RoundRobin,
];

const STEPS: usize = 2_500;
const INSTRS: u64 = 6;

/// Builds one shared page table: 768 scattered 4 KiB pages (well past the
/// IOMMU L2 TLB's 256-entry reach, so walks keep coming) plus two 2 MiB
/// regions, and returns the pool of (page, size) pairs churn draws from.
fn build_pool() -> (PageTable, Vec<(VirtPage, PageSize)>) {
    let mut alloc = FrameAllocator::new(0x1000, 1 << 22, FrameLayout::Sequential);
    let mut table = PageTable::new(&mut alloc);
    let mut pool = Vec::new();
    for i in 0..768u64 {
        // Stride 3 crosses leaf-table boundaries at irregular offsets.
        let page = VirtPage::new(0x40_0000 + i * 3);
        let f = alloc.alloc();
        table.map(page, f, &mut alloc).expect("fresh 4K page");
        pool.push((page, PageSize::Base4K));
    }
    for r in 0..2u64 {
        let base = VirtPage::new(0x90_0000 + r * PAGES_PER_LARGE_PAGE);
        let run = alloc.alloc_contiguous(PAGES_PER_LARGE_PAGE);
        table
            .map_large(base, run, &mut alloc)
            .expect("fresh region");
        for j in 0..24u64 {
            pool.push((VirtPage::new(base.raw() + j * 21), PageSize::Large2M));
        }
    }
    (table, pool)
}

/// One churn run of `kind` under `seed`. Returns the number of
/// starvation-forced picks.
fn churn(kind: SchedulerKind, seed: u64) -> u64 {
    let (table, pool) = build_pool();
    let mut cfg = IommuConfig::paper_baseline().with_scheduler(kind);
    cfg.buffer_entries = 12;
    cfg.aging_threshold = 40;
    // Two walkers against bursty arrivals: the buffer must back up past
    // the window or the selection policies never face a real choice.
    cfg.walkers = 2;
    let mut iommu: Iommu<u32> = Iommu::new(cfg);

    let mut rng = SplitMix64::new(seed);
    let mut outstanding: Vec<MemRead> = Vec::new();
    let mut reads = Vec::new();
    let mut done: Vec<CompletedTranslation<u32>> = Vec::new();
    let mut completed = 0usize;
    let mut now = 0u64;

    let mut complete_one =
        |i: usize, outstanding: &mut Vec<MemRead>, iommu: &mut Iommu<u32>, now: u64| {
            let read = outstanding.swap_remove(i);
            let at = Cycle::new(now.max(read.issue_at.raw()) + 40);
            done.clear();
            if let Some(next) = iommu.memory_done_into(read.walker, at, &mut done) {
                outstanding.push(next);
            }
            completed += done.len();
        };

    let mut arrived = 0usize;
    for _ in 0..STEPS {
        now += 1 + rng.next_below(3);
        match rng.next_below(10) {
            0..=4 => {
                // A burst of arrivals, wavefront-style: several pages on
                // behalf of a handful of instructions in one cycle.
                for _ in 0..=rng.next_below(5) {
                    let (page, size) = pool[rng.next_below(pool.len() as u64) as usize];
                    let instr = InstrId::new(rng.next_below(INSTRS) as u32);
                    let waiter = arrived as u32;
                    if iommu.translate_sized(page, size, instr, waiter, Cycle::new(now))
                        == TranslationOutcome::WalkPending
                    {
                        arrived += 1;
                    }
                }
            }
            // Two completions, or a burst drain of eight that pulls the
            // queue down so the buffer cannot grow without bound.
            c => {
                let n = if c == 9 { 8 } else { 2 };
                for _ in 0..n {
                    if outstanding.is_empty() {
                        break;
                    }
                    let i = rng.next_below(outstanding.len() as u64) as usize;
                    complete_one(i, &mut outstanding, &mut iommu, now);
                }
            }
        }
        reads.clear();
        iommu.start_walkers_into(&table, Cycle::new(now), &mut reads);
        outstanding.extend(reads.iter().copied());
        iommu.validate_candidate_index();
    }

    // Drain to quiescence: every remaining walk must finish.
    let mut guard = 0;
    while !outstanding.is_empty() || iommu.pending() > 0 {
        guard += 1;
        assert!(guard < 200_000, "{kind:?}: drain did not quiesce");
        now += 5;
        if !outstanding.is_empty() {
            let i = rng.next_below(outstanding.len() as u64) as usize;
            complete_one(i, &mut outstanding, &mut iommu, now);
        }
        reads.clear();
        iommu.start_walkers_into(&table, Cycle::new(now), &mut reads);
        outstanding.extend(reads.iter().copied());
        iommu.validate_candidate_index();
    }
    assert_eq!(
        completed, arrived,
        "{kind:?}: a pending walk never completed"
    );

    // Coverage floor: the run must actually have visited the regimes the
    // oracle exists to check, or a pool/latency tweak could silently
    // reduce this test to an idle-walker smoke test.
    let s = iommu.stats();
    assert!(
        s.walks_performed > 300,
        "{kind:?}: only {} walks",
        s.walks_performed
    );
    assert!(
        s.merged_completions > 0,
        "{kind:?}: piggybacking never fired"
    );
    assert!(s.large_walks_performed > 0, "{kind:?}: no 2 MiB walks");
    assert!(
        s.peak_pending > 12,
        "{kind:?}: buffer never outgrew the window (peak {})",
        s.peak_pending
    );
    // FCFS and Random opt out of aging. The score-ranked policies starve
    // expensive requests in this churn, so aging must have pre-empted
    // them (batch-only and round-robin never reach the threshold here).
    let forced = iommu.starvation_forced_picks();
    if matches!(kind, SchedulerKind::Fcfs | SchedulerKind::Random) {
        assert_eq!(forced, 0, "{kind:?}: aging pre-empted an opted-out policy");
    }
    if kind.uses_scores() {
        assert!(forced > 0, "{kind:?}: no starvation-forced pick");
    }
    forced
}

#[test]
fn candidate_index_stays_consistent_under_iommu_churn() {
    let mut forced = 0;
    for kind in POLICIES {
        for seed in [0x5eed_0001u64, 0xfeed_beef] {
            forced += churn(kind, seed);
        }
    }
    assert!(forced > 100, "only {forced} starvation-forced picks");
}
