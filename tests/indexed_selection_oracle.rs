//! Randomized differential oracle for the incremental candidate index.
//!
//! Two IOMMUs with identical configuration — one using the incremental
//! [`CandidateIndex`] selection path (the default), one forced onto the
//! legacy one-pass window scan via `set_indexed_selection(false)` — are
//! driven through thousands of steps of identical churn: interleaved
//! translations over a 4K/2M page mix, walker kicks, and out-of-order
//! memory completions. After every operation the two must agree on every
//! externally visible bit: translation outcomes, the exact PTE reads each
//! walker kick issues, completion fan-out (order included), pending
//! counts, the aging bypass count of every pending entry (kept lazily by
//! the index, eagerly by the scan), statistics counters, and diagnostic
//! snapshots. The indexed IOMMU's internal invariants are additionally
//! recomputed from scratch at intervals via `validate_candidate_index`.
//!
//! The configuration is deliberately hostile: a 12-entry lookahead window
//! so the buffer routinely outgrows it (exercising window pull-in on
//! removal), and an aging threshold of 40 so starvation preemption fires
//! constantly. All seven scheduling policies run under two seeds each.

use ptw_core::iommu::{CompletedTranslation, Iommu, IommuConfig, MemRead};
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

fn assert_same_completions(
    kind: SchedulerKind,
    step: usize,
    a: &[CompletedTranslation<u32>],
    b: &[CompletedTranslation<u32>],
) {
    assert_eq!(a.len(), b.len(), "{kind:?} step {step}: fan-out size");
    for (x, y) in a.iter().zip(b) {
        let same = x.page == y.page
            && x.frame == y.frame
            && x.instr == y.instr
            && x.enqueued_at == y.enqueued_at
            && x.completed_at == y.completed_at
            && x.via_walk == y.via_walk
            && x.walk_accesses == y.walk_accesses
            && x.service_seq == y.service_seq
            && x.large == y.large
            && x.waiter == y.waiter;
        assert!(
            same,
            "{kind:?} step {step}: completion diverged:\n  indexed: {x:?}\n  legacy:  {y:?}"
        );
    }
}

/// One churn run: `kind` under `seed`, indexed vs legacy in lockstep.
/// Returns the number of starvation-forced picks.
fn churn(kind: SchedulerKind, seed: u64) -> u64 {
    let (table, pool) = build_pool();
    let mut cfg = IommuConfig::paper_baseline().with_scheduler(kind);
    cfg.buffer_entries = 12;
    cfg.aging_threshold = 40;
    // Two walkers against bursty arrivals: the buffer must back up past
    // the window or the selection policies never face a real choice.
    cfg.walkers = 2;
    let mut indexed: Iommu<u32> = Iommu::new(cfg);
    let mut legacy: Iommu<u32> = Iommu::new(cfg);
    legacy.set_indexed_selection(false);

    let mut rng = SplitMix64::new(seed);
    // Reads issued by *both* IOMMUs (asserted identical at issue time).
    let mut outstanding: Vec<MemRead> = Vec::new();
    let (mut reads_a, mut reads_b) = (Vec::new(), Vec::new());
    let (mut done_a, mut done_b): (Vec<CompletedTranslation<u32>>, _) = (Vec::new(), Vec::new());
    let mut now = 0u64;

    let complete_one = |i: usize,
                        outstanding: &mut Vec<MemRead>,
                        indexed: &mut Iommu<u32>,
                        legacy: &mut Iommu<u32>,
                        done_a: &mut Vec<CompletedTranslation<u32>>,
                        done_b: &mut Vec<CompletedTranslation<u32>>,
                        now: u64,
                        step: usize| {
        let read = outstanding.swap_remove(i);
        let at = Cycle::new(now.max(read.issue_at.raw()) + 40);
        done_a.clear();
        done_b.clear();
        let next_a = indexed.memory_done_into(read.walker, at, done_a);
        let next_b = legacy.memory_done_into(read.walker, at, done_b);
        assert_eq!(next_a, next_b, "{kind:?} step {step}: walker next read");
        assert_same_completions(kind, step, done_a, done_b);
        if let Some(next) = next_a {
            outstanding.push(next);
        }
    };

    for step in 0..STEPS {
        now += 1 + rng.next_below(3);
        match rng.next_below(10) {
            0..=4 => {
                // A burst of arrivals, wavefront-style: several pages on
                // behalf of a handful of instructions in one cycle.
                for burst in 0..=rng.next_below(5) {
                    let (page, size) = pool[rng.next_below(pool.len() as u64) as usize];
                    let instr = InstrId::new(rng.next_below(INSTRS) as u32);
                    let t = Cycle::new(now);
                    let waiter = (step * 8 + burst as usize) as u32;
                    let out_a = indexed.translate_sized(page, size, instr, waiter, t);
                    let out_b = legacy.translate_sized(page, size, instr, waiter, t);
                    assert_eq!(out_a, out_b, "{kind:?} step {step}: translate outcome");
                }
            }
            5..=8 => {
                for _ in 0..2 {
                    if outstanding.is_empty() {
                        break;
                    }
                    let i = rng.next_below(outstanding.len() as u64) as usize;
                    complete_one(
                        i,
                        &mut outstanding,
                        &mut indexed,
                        &mut legacy,
                        &mut done_a,
                        &mut done_b,
                        now,
                        step,
                    );
                }
            }
            _ => {
                // Burst drain: pull the queue down so the buffer cannot
                // grow without bound over a long run.
                for _ in 0..8 {
                    if outstanding.is_empty() {
                        break;
                    }
                    let i = rng.next_below(outstanding.len() as u64) as usize;
                    complete_one(
                        i,
                        &mut outstanding,
                        &mut indexed,
                        &mut legacy,
                        &mut done_a,
                        &mut done_b,
                        now,
                        step,
                    );
                }
            }
        }
        reads_a.clear();
        reads_b.clear();
        indexed.start_walkers_into(&table, Cycle::new(now), &mut reads_a);
        legacy.start_walkers_into(&table, Cycle::new(now), &mut reads_b);
        assert_eq!(reads_a, reads_b, "{kind:?} step {step}: issued reads");
        outstanding.extend(reads_a.iter().copied());
        assert_eq!(
            indexed.pending(),
            legacy.pending(),
            "{kind:?} step {step}: pending count"
        );
        assert_eq!(
            indexed.pending_bypass_counts(),
            legacy.pending_bypass_counts(),
            "{kind:?} step {step}: per-entry bypass counts"
        );
        if step % 127 == 0 {
            indexed.validate_candidate_index();
        }
        if step % 97 == 0 {
            assert_eq!(
                indexed.snapshot(),
                legacy.snapshot(),
                "{kind:?} step {step}: snapshot (incl. bypass counters)"
            );
            assert_eq!(
                indexed.stats(),
                legacy.stats(),
                "{kind:?} step {step}: stats"
            );
        }
    }

    // Drain to quiescence: every remaining walk must finish identically.
    let mut guard = 0;
    while !outstanding.is_empty() || indexed.pending() > 0 {
        guard += 1;
        assert!(guard < 200_000, "{kind:?}: drain did not quiesce");
        now += 5;
        if !outstanding.is_empty() {
            let i = rng.next_below(outstanding.len() as u64) as usize;
            complete_one(
                i,
                &mut outstanding,
                &mut indexed,
                &mut legacy,
                &mut done_a,
                &mut done_b,
                now,
                STEPS,
            );
        }
        reads_a.clear();
        reads_b.clear();
        indexed.start_walkers_into(&table, Cycle::new(now), &mut reads_a);
        legacy.start_walkers_into(&table, Cycle::new(now), &mut reads_b);
        assert_eq!(reads_a, reads_b, "{kind:?} drain: issued reads");
        outstanding.extend(reads_a.iter().copied());
    }
    indexed.validate_candidate_index();
    assert_eq!(
        indexed.snapshot(),
        legacy.snapshot(),
        "{kind:?}: final snapshot"
    );
    assert_eq!(indexed.stats(), legacy.stats(), "{kind:?}: final stats");
    assert_eq!(legacy.pending(), 0, "{kind:?}: legacy did not drain");
    assert_eq!(
        indexed.starvation_forced_picks(),
        legacy.starvation_forced_picks(),
        "{kind:?}: starvation-forced picks"
    );

    // Coverage floor: the run must actually have visited the regimes the
    // oracle exists to compare, or a pool/latency tweak could silently
    // reduce this test to an idle-walker smoke test.
    let s = indexed.stats();
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
    let forced = indexed.starvation_forced_picks();
    if matches!(kind, SchedulerKind::Fcfs | SchedulerKind::Random) {
        assert_eq!(forced, 0, "{kind:?}: aging pre-empted an opted-out policy");
    }
    if kind.uses_scores() {
        assert!(forced > 0, "{kind:?}: no starvation-forced pick");
    }
    forced
}

#[test]
fn indexed_selection_is_bit_identical_to_the_window_scan() {
    let mut forced = 0;
    for kind in POLICIES {
        for seed in [0x5eed_0001u64, 0xfeed_beef] {
            forced += churn(kind, seed);
        }
    }
    assert!(forced > 100, "only {forced} starvation-forced picks");
}
