//! Seeded config fuzz: random `SystemConfig`s over every field, each
//! either inside every `SystemConfig::validate` bound or just outside
//! exactly one of them.
//!
//! A config inside the bounds must build (`System::try_new` is `Ok`) and
//! its run must end in a result or a typed `SimError`; a config outside
//! one bound must be rejected by `try_new` with a `ConfigError`. Neither
//! may panic. Each config runs a random small-scale benchmark built with
//! the config's own large-page fraction, under a bounded event budget.

use std::panic::{catch_unwind, AssertUnwindSafe};

use ptw_core::sched::SchedulerKind;
use ptw_mem::assoc::{Replacement, MAX_WAYS};
use ptw_mem::controller::MemSchedPolicy;
use ptw_mem::dram::MAX_BANKS_PER_CHANNEL;
use ptw_sim::config::{
    FaultInjection, ShardMap, VaRange, MAX_EPOCH_ACCESSES, MAX_IOMMUS, MAX_LARGE_PAGE_PERMILLE,
    MAX_WALKERS,
};
use ptw_sim::{System, SystemConfig};
use ptw_tlb::TlbConfig;
use ptw_types::rng::SplitMix64;
use ptw_workloads::{build_with_large_pages, BenchmarkId, Scale};

/// Configs drawn; about a third of them break one bound.
const CONFIGS: usize = 300;

/// Event budgets: most runs stop early, one in four may finish.
const SHORT_RUN: u64 = 40_000;
const LONG_RUN: u64 = 1_000_000;

/// The validate bounds a draw can break, one at a time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Break {
    Walkers,
    BufferEntries,
    Cus,
    Tlb,
    Pwc,
    Cache,
    Dram,
    Epoch,
    Watchdog,
    Iommus,
    GpuShards,
    LargePages,
    ShardMap,
}

const BREAKS: [Break; 13] = [
    Break::Walkers,
    Break::BufferEntries,
    Break::Cus,
    Break::Tlb,
    Break::Pwc,
    Break::Cache,
    Break::Dram,
    Break::Epoch,
    Break::Watchdog,
    Break::Iommus,
    Break::GpuShards,
    Break::LargePages,
    Break::ShardMap,
];

struct Draw(SplitMix64);

impl Draw {
    fn below(&mut self, n: u64) -> u64 {
        self.0.next_below(n)
    }

    /// A value in `lo..=hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    fn usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range(lo as u64, hi as u64) as usize
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }

    fn coin(&mut self) -> bool {
        self.below(2) == 0
    }

    fn replacement(&mut self) -> Replacement {
        self.pick(&[Replacement::Lru, Replacement::TreePlru, Replacement::Random])
    }

    /// A valid TLB: a power-of-two set count, 1..=64 ways, and
    /// power-of-two ways under tree-PLRU.
    fn tlb(&mut self) -> TlbConfig {
        let policy = self.replacement();
        let ways = if policy == Replacement::TreePlru {
            1 << self.below(7)
        } else {
            self.usize(1, MAX_WAYS)
        };
        TlbConfig {
            entries: ways << self.below(6),
            ways,
            policy,
        }
    }

    /// A TLB just outside one of its rules.
    fn bad_tlb(&mut self) -> TlbConfig {
        let mut t = self.tlb();
        match self.below(5) {
            0 => t.entries = 0,
            1 => t.ways = 0,
            2 => {
                t.ways = MAX_WAYS + 1;
                t.entries = t.ways;
            }
            3 => {
                // Three sets: entries divide, but not into a power of two.
                t.policy = Replacement::Random;
                t.entries = 3 * t.ways;
            }
            _ => {
                t.policy = Replacement::TreePlru;
                t.ways = self.pick(&[3, 5, 6, 12, 24]);
                t.entries = t.ways;
            }
        }
        t
    }
}

/// Draws one config and the bound it breaks, if any.
fn draw_config(d: &mut Draw) -> (SystemConfig, Option<Break>) {
    let mut c = SystemConfig::paper_baseline();
    let g = &mut c.gpu;
    g.cus = d.usize(1, 16);
    g.wavefront_width = d.pick(&[1, 16, 64]);
    g.wavefronts_per_cu = d.usize(1, 40);
    g.compute_delay = d.range(0, 80);
    g.l1_tlb_cycles = d.range(0, 4);
    g.l2_tlb_cycles = d.range(0, 32);
    g.l2_tlb_port_cycles = d.range(0, 4);
    g.l1_tlb_miss_port_cycles = d.range(0, 4);
    g.iommu_hop_cycles = d.range(0, 200);
    g.l1_cache_cycles = d.range(0, 8);
    g.l2_cache_cycles = d.range(0, 40);
    c.gpu_l1_tlb = d.tlb();
    c.gpu_l2_tlb = d.tlb();
    let io = &mut c.iommu;
    io.buffer_entries = d.usize(1, 512);
    io.walkers = d.pick(&[1, 2, 8, 16, MAX_WALKERS]);
    io.l1_tlb = d.tlb();
    io.l2_tlb = d.tlb();
    io.pwc.ways = d.usize(1, MAX_WAYS);
    io.pwc.entries_per_level = io.pwc.ways * d.usize(1, 8);
    io.pwc.counter_pinning = d.coin();
    io.scheduler = d.pick(&SchedulerKind::EXTENDED);
    io.aging_threshold = d.pick(&[0, 1, 100, 1_500, u64::MAX]);
    io.tlb_cycles = d.range(0, 16);
    io.pwc_cycles = d.range(0, 16);
    io.seed = d.0.next_u64();
    for cache in [&mut c.l1_cache, &mut c.l2_cache] {
        cache.ways = d.usize(1, MAX_WAYS);
        cache.size_bytes = 64 * cache.ways * d.usize(1, 64);
    }
    let dram = &mut c.dram;
    dram.channels = 1 << d.below(3);
    dram.ranks_per_channel = 1 << d.below(3);
    dram.banks_per_rank = 1 << d.below(6);
    dram.row_bytes = 64 << d.below(7);
    dram.row_hit_cycles = d.range(1, 60);
    dram.row_conflict_cycles = dram.row_hit_cycles + d.range(0, 100);
    dram.bus_cycles = d.range(0, 20);
    c.mem_policy = d.pick(&[MemSchedPolicy::FrFcfs, MemSchedPolicy::Fcfs]);
    c.max_events = if d.below(4) == 0 {
        LONG_RUN
    } else {
        d.range(1, SHORT_RUN)
    };
    c.epoch_accesses = d.pick(&[1, 64, 1024, MAX_EPOCH_ACCESSES]);
    c.watchdog.check_events = d.pick(&[0, 100, 5_000, 2_000_000]);
    c.watchdog.stall_epochs = d.range(1, 8);
    if d.below(8) == 0 {
        c.fault = Some(FaultInjection::livelock_at(d.range(1, SHORT_RUN)));
    }
    let t = &mut c.topology;
    t.iommus = d.pick(&[1, 2, 3, 4, MAX_IOMMUS]);
    t.gpu_shards = d.usize(1, c.gpu.cus);
    t.large_page_permille = d.pick(&[0, 1, 125, 500, MAX_LARGE_PAGE_PERMILLE]);
    if d.below(4) == 0 {
        // Disjoint ranges, each owned by an existing IOMMU.
        let mut start = d.range(0, 1 << 20);
        let ranges = (0..d.range(1, 3))
            .map(|_| {
                let end = start + d.range(1, 1 << 16);
                let r = VaRange {
                    start_page: start,
                    end_page: end,
                    iommu: d.usize(0, t.iommus - 1),
                };
                start = end + d.range(0, 1 << 10);
                r
            })
            .collect();
        t.shard_map = ShardMap::VaRanges(ranges);
    }

    if d.below(3) != 0 {
        return (c, None);
    }
    let broken = d.pick(&BREAKS);
    match broken {
        Break::Walkers => c.iommu.walkers = d.pick(&[0, MAX_WALKERS + 1]),
        Break::BufferEntries => c.iommu.buffer_entries = 0,
        Break::Cus => c.gpu.cus = 0,
        Break::Tlb => {
            let bad = d.bad_tlb();
            match d.below(4) {
                0 => c.gpu_l1_tlb = bad,
                1 => c.gpu_l2_tlb = bad,
                2 => c.iommu.l1_tlb = bad,
                _ => c.iommu.l2_tlb = bad,
            }
        }
        Break::Pwc => {
            let pwc = &mut c.iommu.pwc;
            match d.below(3) {
                0 => pwc.entries_per_level = 0,
                1 => pwc.ways = d.pick(&[0, MAX_WAYS + 1, 2 * MAX_WAYS]),
                _ => {
                    pwc.ways = d.pick(&[3, 5, 7]);
                    pwc.entries_per_level = pwc.ways * 4 + 1;
                }
            }
        }
        Break::Cache => {
            let cache = if d.coin() {
                &mut c.l1_cache
            } else {
                &mut c.l2_cache
            };
            match d.below(3) {
                0 => cache.ways = d.pick(&[0, MAX_WAYS + 1]),
                1 => cache.size_bytes = d.usize(0, 63),
                _ => {
                    cache.ways = 3;
                    cache.size_bytes = 64 * 4;
                }
            }
        }
        Break::Dram => {
            let dram = &mut c.dram;
            match d.below(5) {
                0 => dram.channels = d.pick(&[0, 3, 6]),
                1 => dram.banks_per_rank = 0,
                2 => {
                    dram.ranks_per_channel = 1;
                    dram.banks_per_rank = d.pick(&[3, 2 * MAX_BANKS_PER_CHANNEL]);
                }
                3 => dram.row_bytes = d.pick(&[0, 32, 100, 2047]),
                _ => {
                    if d.coin() {
                        dram.row_hit_cycles = 0;
                    } else {
                        dram.row_conflict_cycles = dram.row_hit_cycles - 1;
                    }
                }
            }
        }
        Break::Epoch => c.epoch_accesses = d.pick(&[0, MAX_EPOCH_ACCESSES + 1]),
        Break::Watchdog => {
            c.watchdog.check_events = d.range(1, 5_000);
            c.watchdog.stall_epochs = 0;
        }
        Break::Iommus => c.topology.iommus = d.pick(&[0, MAX_IOMMUS + 1]),
        Break::GpuShards => c.topology.gpu_shards = d.pick(&[0, c.gpu.cus + 1]),
        Break::LargePages => c.topology.large_page_permille = MAX_LARGE_PAGE_PERMILLE + 1,
        Break::ShardMap => {
            let iommus = c.topology.iommus;
            c.topology.shard_map = ShardMap::VaRanges(match d.below(4) {
                0 => vec![],
                1 => vec![VaRange {
                    start_page: 10,
                    end_page: 10,
                    iommu: 0,
                }],
                2 => vec![VaRange {
                    start_page: 0,
                    end_page: 10,
                    iommu: iommus,
                }],
                _ => vec![
                    VaRange {
                        start_page: 0,
                        end_page: 100,
                        iommu: 0,
                    },
                    VaRange {
                        start_page: 99,
                        end_page: 200,
                        iommu: 0,
                    },
                ],
            });
        }
    }
    (c, Some(broken))
}

#[test]
fn random_configs_build_and_run_or_are_rejected_without_panicking() {
    let mut d = Draw(SplitMix64::new(0xF022_C0DE));
    let (mut finished, mut aborted, mut rejected) = (0, 0, 0);
    for i in 0..CONFIGS {
        let (cfg, broken) = draw_config(&mut d);
        let bench = d.pick(&BenchmarkId::ALL);
        let seed = d.0.next_u64();
        let permille = cfg
            .topology
            .large_page_permille
            .min(MAX_LARGE_PAGE_PERMILLE);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let w = build_with_large_pages(bench, Scale::Small, seed, permille);
            System::try_new(cfg.clone(), w).map(System::try_run)
        }));
        let at = || format!("config {i} ({bench}, broken: {broken:?}): {cfg:#?}");
        match (outcome, broken) {
            (Err(_), _) => panic!("panicked on {}", at()),
            (Ok(Ok(Ok(_))), None) => finished += 1,
            (Ok(Ok(Err(_))), None) => aborted += 1,
            (Ok(Err(_)), Some(_)) => rejected += 1,
            (Ok(Ok(_)), Some(_)) => panic!("a config outside a bound was built: {}", at()),
            (Ok(Err(e)), None) => {
                panic!("a config inside every bound was rejected ({e}): {}", at())
            }
        }
    }
    let counts = format!("{finished} finished, {aborted} aborted, {rejected} rejected");
    assert!(finished >= CONFIGS / 10, "{counts}");
    assert!(aborted >= CONFIGS / 5, "{counts}");
    assert!(rejected >= CONFIGS / 5, "{counts}");
}
