//! Component micro-benchmarks: the hot structures of the simulator.
//!
//! These do not correspond to paper figures; they keep the substrate's own
//! performance visible (a cycle-level simulator is only useful if runs
//! stay cheap) and exercise each crate's hot path in isolation.

use ptw_bench::{black_box, Runner, SampleConfig};
use ptw_core::buffer::WalkBuffer;
use ptw_core::index::CandidateIndex;
use ptw_core::iommu::{Iommu, IommuConfig};
use ptw_core::request::WalkRequest;
use ptw_core::sched::{Scheduler, SchedulerKind};
use ptw_gpu::coalesce;
use ptw_mem::cache::{Cache, CacheConfig};
use ptw_mem::controller::{MemSchedPolicy, MemSource, MemoryController};
use ptw_mem::dram::DramConfig;
use ptw_pagetable::frames::{FrameAllocator, FrameLayout};
use ptw_pagetable::pwc::{PageWalkCache, PwcConfig};
use ptw_pagetable::table::PageTable;
use ptw_tlb::{Tlb, TlbConfig};
use ptw_types::addr::{LineAddr, VirtAddr, VirtPage};
use ptw_types::ids::InstrId;
use ptw_types::rng::SplitMix64;
use ptw_types::time::Cycle;

fn bench_tlb_lookup(r: &mut Runner) {
    let mut tlb = Tlb::new(TlbConfig::paper_gpu_l2());
    for i in 0..512u64 {
        tlb.fill(VirtPage::new(i), ptw_types::addr::PhysFrame::new(i));
    }
    let mut i = 0u64;
    r.bench("micro/tlb_lookup_hit", || {
        let mut hits = 0usize;
        for _ in 0..10_000 {
            i = (i + 1) % 512;
            hits += usize::from(black_box(tlb.lookup(VirtPage::new(i))).is_some());
        }
        hits
    });
}

fn bench_pwc_estimate(r: &mut Runner) {
    let mut alloc = FrameAllocator::new(0x1000, 1 << 22, FrameLayout::Sequential);
    let mut table = PageTable::new(&mut alloc);
    let mut pwc = PageWalkCache::new(PwcConfig::paper_baseline());
    for i in 0..64u64 {
        let page = VirtPage::new(i << 9);
        let f = alloc.alloc();
        table.map(page, f, &mut alloc).unwrap();
        let plan = pwc.begin_walk(&table, page).unwrap();
        pwc.complete_walk(&plan);
    }
    let mut i = 0u64;
    r.bench("micro/pwc_estimate_probe", || {
        let mut acc = 0u32;
        for _ in 0..10_000 {
            i = (i + 1) % 64;
            acc += black_box(pwc.estimate(VirtPage::new(i << 9))).accesses as u32;
        }
        acc
    });
}

fn bench_scheduler_select(r: &mut Runner) {
    // A full 256-entry window, the paper's baseline lookahead, kept full:
    // each iteration enqueues one request, then picks and removes one.
    for kind in [SchedulerKind::Fcfs, SchedulerKind::SimtAware] {
        let mut rng = SplitMix64::new(1);
        let mut buf: WalkBuffer<u32> = WalkBuffer::new();
        let mut index = CandidateIndex::new(256);
        let mut seq = 0u64;
        let mut push = |buf: &mut WalkBuffer<u32>, index: &mut CandidateIndex| {
            let h = buf.push(WalkRequest {
                page: VirtPage::new(seq),
                instr: InstrId::new((seq % 24) as u32),
                seq,
                enqueued_at: Cycle::new(seq),
                own_estimate: (rng.next_below(4) + 1) as u8,
                score: rng.next_below(256) as u32 + 1,
                bypassed: 0,
                waiter: seq as u32,
            });
            index.on_push(buf, h, false);
            seq += 1;
        };
        for _ in 0..255 {
            push(&mut buf, &mut index);
        }
        let mut sched = Scheduler::new(kind, 2_000_000, 7);
        r.bench(&format!("micro/select_256_{}", kind.label()), || {
            let mut picked = 0u32;
            for _ in 0..1_000 {
                push(&mut buf, &mut index);
                let h = black_box(sched.select(&buf, &mut index)).expect("window is full");
                index.pre_remove(&buf, h);
                picked ^= buf.remove(h).waiter;
                index.finish_remove(&buf);
            }
            picked
        });
    }
}

fn bench_dram_controller(r: &mut Runner) {
    r.bench("micro/dram_256_requests", || {
        let mut mc = MemoryController::new(DramConfig::paper_baseline(), MemSchedPolicy::FrFcfs);
        let mut rng = SplitMix64::new(3);
        for i in 0..256u64 {
            mc.submit(
                LineAddr::new(rng.next_below(1 << 26)),
                MemSource::Data,
                Cycle::new(i),
            );
        }
        let mut served = 0;
        while let Some(t) = mc.next_event_time() {
            served += mc.advance(t).len();
        }
        black_box(served)
    });
}

fn bench_coalescer(r: &mut Runner) {
    let mut rng = SplitMix64::new(9);
    let divergent: Vec<VirtAddr> = (0..64)
        .map(|_| VirtAddr::new(rng.next_below(1 << 30)))
        .collect();
    let coalesced: Vec<VirtAddr> = (0..64).map(|i| VirtAddr::new(0x1000 + i * 8)).collect();
    r.bench("micro/coalesce_divergent_64", || {
        black_box(coalesce(&divergent))
    });
    r.bench("micro/coalesce_unit_stride_64", || {
        black_box(coalesce(&coalesced))
    });
}

fn bench_page_table_walk_path(r: &mut Runner) {
    let mut alloc = FrameAllocator::new(0x1000, 1 << 22, FrameLayout::Sequential);
    let mut table = PageTable::new(&mut alloc);
    for i in 0..4096u64 {
        let f = alloc.alloc();
        table
            .map(VirtPage::new(0x7f_0000 + i), f, &mut alloc)
            .unwrap();
    }
    let mut i = 0u64;
    r.bench("micro/page_table_walk_path", || {
        let mut found = 0usize;
        for _ in 0..1_000 {
            i = (i + 1) % 4096;
            found +=
                usize::from(black_box(table.walk_path(VirtPage::new(0x7f_0000 + i))).is_some());
        }
        found
    });
}

fn bench_cache_access(r: &mut Runner) {
    let mut cache = Cache::new(CacheConfig::paper_l2());
    let mut rng = SplitMix64::new(5);
    r.bench("micro/l2_cache_access_fill", || {
        let mut hits = 0usize;
        for _ in 0..10_000 {
            let line = LineAddr::new(rng.next_below(1 << 24));
            if cache.access(line) {
                hits += 1;
            } else {
                cache.fill(line);
            }
        }
        hits
    });
}

fn bench_iommu_translate(r: &mut Runner) {
    let mut alloc = FrameAllocator::new(0x1000, 1 << 22, FrameLayout::Sequential);
    let mut table = PageTable::new(&mut alloc);
    for i in 0..1024u64 {
        let f = alloc.alloc();
        table.map(VirtPage::new(i), f, &mut alloc).unwrap();
    }
    let mut iommu: Iommu<u64> = Iommu::new(IommuConfig::paper_baseline());
    let mut i = 0u64;
    let mut t = Cycle::ZERO;
    let mut completions = Vec::new();
    r.bench("micro/iommu_translate_and_start", || {
        for _ in 0..1_000 {
            i = (i + 1) % 1024;
            t += 1;
            black_box(iommu.translate(VirtPage::new(i), InstrId::new(i as u32), i, t));
            // Drain walkers instantly so the buffer cannot grow unbounded.
            for read in iommu.start_walkers(&table, t) {
                completions.clear();
                let mut step = iommu.memory_done_into(read.walker, t + 100, &mut completions);
                while let Some(next) = step {
                    step = iommu.memory_done_into(next.walker, t + 100, &mut completions);
                }
            }
        }
    });
}

fn main() {
    let mut r = Runner::from_args().with_config(SampleConfig {
        warmup_iters: 2,
        samples: 20,
        budget: std::time::Duration::from_secs(2),
    });
    bench_tlb_lookup(&mut r);
    bench_pwc_estimate(&mut r);
    bench_scheduler_select(&mut r);
    bench_dram_controller(&mut r);
    bench_coalescer(&mut r);
    bench_page_table_walk_path(&mut r);
    bench_cache_access(&mut r);
    bench_iommu_translate(&mut r);
    r.finish();
}
