//! Whole-system configuration (Table I plus the sensitivity variants).

use ptw_core::iommu::IommuConfig;
use ptw_core::sched::SchedulerKind;
use ptw_gpu::GpuConfig;
use ptw_mem::assoc::{Replacement, MAX_WAYS};
use ptw_mem::cache::CacheConfig;
use ptw_mem::controller::MemSchedPolicy;
use ptw_mem::dram::DramConfig;
use ptw_tlb::TlbConfig;
use ptw_types::rng::SplitMix64;

use crate::error::ConfigError;

/// Largest accepted Figure 12 epoch length (in GPU L2 TLB accesses); an
/// epoch longer than this could never complete at our workload scales.
pub const MAX_EPOCH_ACCESSES: u64 = 1 << 30;

/// Largest walker pool per IOMMU and largest IOMMU count: walker and
/// IOMMU indices travel through the simulator as `u8`.
pub const MAX_WALKERS: usize = 256;

/// Largest IOMMU count of a topology (see [`MAX_WALKERS`]).
pub const MAX_IOMMUS: usize = 256;

/// Livelock-watchdog thresholds.
///
/// Every `check_events` processed events the watchdog samples the retired
/// instruction count; `stall_epochs` consecutive samples without progress
/// abort the run with [`SimError::Livelock`](crate::error::SimError).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Events between progress samples (0 disables the watchdog).
    pub check_events: u64,
    /// Consecutive no-progress samples before the run is declared
    /// livelocked.
    pub stall_epochs: u64,
}

impl WatchdogConfig {
    /// Default thresholds: a healthy medium-scale run retires an
    /// instruction every few thousand events, so 2M events × 8 epochs of
    /// zero retirement is far outside normal jitter yet trips long before
    /// the 2G event budget.
    pub fn paper_baseline() -> Self {
        WatchdogConfig {
            check_events: 2_000_000,
            stall_epochs: 8,
        }
    }

    /// A disabled watchdog (never fires).
    pub fn disabled() -> Self {
        WatchdogConfig {
            check_events: 0,
            stall_epochs: 8,
        }
    }

    /// Whether the watchdog is active.
    pub fn enabled(&self) -> bool {
        self.check_events > 0
    }
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        Self::paper_baseline()
    }
}

/// Which failure a [`FaultInjection`] forces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic when the trigger event is processed.
    Panic,
    /// From the trigger event on, swallow every popped event and reschedule
    /// it one cycle later: events keep flowing but no instruction ever
    /// retires again — exactly the signature the watchdog exists to catch.
    Livelock,
    /// Call `std::process::abort()` when the trigger event is processed.
    /// `catch_unwind` cannot observe an abort, so this fault is only
    /// survivable under process isolation — it exists to exercise the
    /// supervisor's crash-classification path deterministically.
    Abort,
    /// Stop consuming events and sleep forever once the trigger event is
    /// processed: the process stays alive but makes no progress and never
    /// answers. Only the supervisor's wall-clock timeout (kill + reap)
    /// recovers from this; under thread isolation it wedges the sweep.
    Hang,
}

impl FaultKind {
    /// Lower-case name used by the `--inject-fault` CLI syntax.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::Livelock => "livelock",
            FaultKind::Abort => "abort",
            FaultKind::Hang => "hang",
        }
    }

    /// Parses a [`label`](Self::label) (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        [
            FaultKind::Panic,
            FaultKind::Livelock,
            FaultKind::Abort,
            FaultKind::Hang,
        ]
        .into_iter()
        .find(|k| k.label().eq_ignore_ascii_case(s))
    }
}

/// A deterministic fault-injection hook: force a run to panic or livelock
/// once the event counter reaches `at_event`.
///
/// Exists so tests (and the CI smoke run) can prove the fault-tolerance
/// layer end-to-end on demand instead of waiting for a real bug.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultInjection {
    /// Which failure to force.
    pub kind: FaultKind,
    /// Event count at which the fault triggers.
    pub at_event: u64,
}

impl FaultInjection {
    /// A panic at event `at_event`.
    pub fn panic_at(at_event: u64) -> Self {
        FaultInjection {
            kind: FaultKind::Panic,
            at_event,
        }
    }

    /// A livelock starting at event `at_event`.
    pub fn livelock_at(at_event: u64) -> Self {
        FaultInjection {
            kind: FaultKind::Livelock,
            at_event,
        }
    }

    /// A process abort at event `at_event` (process-isolation tests only).
    pub fn abort_at(at_event: u64) -> Self {
        FaultInjection {
            kind: FaultKind::Abort,
            at_event,
        }
    }

    /// An eternal hang starting at event `at_event` (process-isolation
    /// tests only — survivable only via the supervisor's timeout).
    pub fn hang_at(at_event: u64) -> Self {
        FaultInjection {
            kind: FaultKind::Hang,
            at_event,
        }
    }

    /// A fault at a SplitMix64-derived event in `1..=max_event`, so
    /// randomized tests hit reproducible but arbitrary trigger points.
    pub fn seeded(kind: FaultKind, seed: u64, max_event: u64) -> Self {
        assert!(max_event > 0, "need a positive trigger range");
        FaultInjection {
            kind,
            at_event: 1 + SplitMix64::new(seed).next_below(max_event),
        }
    }
}

/// Largest accepted large-page fraction, in permille (1000 = promote
/// every eligible 2 MiB region).
pub const MAX_LARGE_PAGE_PERMILLE: u32 = 1000;

/// A half-open virtual-page range `[start_page, end_page)` owned by one
/// IOMMU in an explicit shard map.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VaRange {
    /// First VPN of the range.
    pub start_page: u64,
    /// One past the last VPN of the range.
    pub end_page: u64,
    /// Index of the owning IOMMU.
    pub iommu: usize,
}

impl VaRange {
    fn overlaps(&self, other: &VaRange) -> bool {
        self.start_page < other.end_page && other.start_page < self.end_page
    }
}

/// How walk traffic is sharded across IOMMUs.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub enum ShardMap {
    /// Interleave 2 MiB-region indices modulo the IOMMU count (the
    /// default). Keeping a whole 2 MiB region on one IOMMU means a large
    /// page never straddles shards.
    #[default]
    Interleave,
    /// Explicit VA ranges, each owned by one IOMMU; pages outside every
    /// range fall back to interleaving.
    VaRanges(Vec<VaRange>),
}

/// Shape of the translation fabric: how many GPU shards feed how many
/// IOMMUs, how traffic is sharded, and what fraction of eligible 2 MiB
/// regions the workload promotes to large pages.
///
/// The default (`1×1`, interleaved, all-4K) is pinned bit-identical to the
/// pre-topology simulator — golden metrics must not move.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TopologyConfig {
    /// GPU shards (each with its own shared L2 TLB).
    pub gpu_shards: usize,
    /// IOMMUs the walk traffic is sharded across.
    pub iommus: usize,
    /// How pages map to IOMMUs.
    pub shard_map: ShardMap,
    /// Fraction of eligible 2 MiB regions promoted to large pages, in
    /// permille (`0..=1000`). Zero keeps the all-4K behaviour.
    pub large_page_permille: u32,
}

impl TopologyConfig {
    /// The equivalence-pinned single-IOMMU, all-4K topology.
    pub fn single() -> Self {
        TopologyConfig {
            gpu_shards: 1,
            iommus: 1,
            shard_map: ShardMap::Interleave,
            large_page_permille: 0,
        }
    }

    /// An `N×M` interleaved topology with a large-page fraction.
    pub fn sharded(gpu_shards: usize, iommus: usize, large_page_permille: u32) -> Self {
        TopologyConfig {
            gpu_shards,
            iommus,
            shard_map: ShardMap::Interleave,
            large_page_permille,
        }
    }

    /// Whether this is the pinned `1×1` all-4K default.
    pub fn is_single(&self) -> bool {
        *self == Self::single()
    }

    /// The IOMMU owning `page`'s walk traffic. Sharding is by 2 MiB
    /// region so a large page never straddles IOMMUs.
    pub fn iommu_of_page(&self, page: ptw_types::addr::VirtPage) -> usize {
        if self.iommus <= 1 {
            return 0;
        }
        if let ShardMap::VaRanges(ranges) = &self.shard_map {
            let vpn = page.raw();
            if let Some(r) = ranges
                .iter()
                .find(|r| r.start_page <= vpn && vpn < r.end_page)
            {
                return r.iommu;
            }
        }
        (page.large_index() % self.iommus as u64) as usize
    }

    /// The GPU shard a compute unit belongs to (CUs are striped evenly).
    pub fn shard_of_cu(&self, cu: usize, cus: usize) -> usize {
        if self.gpu_shards <= 1 {
            return 0;
        }
        let per = cus.div_ceil(self.gpu_shards);
        (cu / per).min(self.gpu_shards - 1)
    }
}

impl Default for TopologyConfig {
    fn default() -> Self {
        Self::single()
    }
}

/// The complete configuration of the simulated system.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SystemConfig {
    /// GPU front-end (CUs, wavefronts, timings).
    pub gpu: GpuConfig,
    /// GPU TLB hierarchy.
    pub gpu_l1_tlb: TlbConfig,
    /// GPU shared L2 TLB (the Figure 13 sweep changes this).
    pub gpu_l2_tlb: TlbConfig,
    /// IOMMU (buffer, walkers, PWC, scheduler).
    pub iommu: IommuConfig,
    /// Per-CU L1 data cache.
    pub l1_cache: CacheConfig,
    /// Shared L2 data cache.
    pub l2_cache: CacheConfig,
    /// DRAM geometry and timing.
    pub dram: DramConfig,
    /// Memory-controller scheduling policy.
    pub mem_policy: MemSchedPolicy,
    /// Safety valve: abort a run after this many events (0 = unlimited).
    pub max_events: u64,
    /// Epoch length, in GPU L2 TLB accesses, for the Figure 12 metric.
    pub epoch_accesses: u64,
    /// Livelock-watchdog thresholds.
    pub watchdog: WatchdogConfig,
    /// Optional deterministic fault injection (tests / CI smoke only).
    pub fault: Option<FaultInjection>,
    /// Translation-fabric topology and page-size mix.
    pub topology: TopologyConfig,
}

impl SystemConfig {
    /// The Table I baseline system.
    pub fn paper_baseline() -> Self {
        SystemConfig {
            gpu: GpuConfig::paper_baseline(),
            gpu_l1_tlb: TlbConfig::paper_gpu_l1(),
            gpu_l2_tlb: TlbConfig::paper_gpu_l2(),
            iommu: IommuConfig::paper_baseline(),
            l1_cache: CacheConfig::paper_l1(),
            l2_cache: CacheConfig::paper_l2(),
            dram: DramConfig::paper_baseline(),
            mem_policy: MemSchedPolicy::FrFcfs,
            max_events: 2_000_000_000,
            epoch_accesses: 1024,
            watchdog: WatchdogConfig::paper_baseline(),
            fault: None,
            topology: TopologyConfig::single(),
        }
    }

    /// Baseline with different watchdog thresholds.
    pub fn with_watchdog(mut self, watchdog: WatchdogConfig) -> Self {
        self.watchdog = watchdog;
        self
    }

    /// Baseline with a fault injected (tests / CI smoke only).
    pub fn with_fault(mut self, fault: FaultInjection) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Rejects configurations that cannot describe a real machine, before
    /// any simulation state is built.
    ///
    /// Checks: walker pool in `1..=`[`MAX_WALKERS`], nonzero IOMMU buffer,
    /// nonzero CU count, IOMMU count in `1..=`[`MAX_IOMMUS`],
    /// well-formed TLB geometries (entries a positive multiple of 1..=64
    /// ways, power-of-two set count, power-of-two ways under tree-PLRU),
    /// a well-formed page-walk cache (entries per level a positive
    /// multiple of 1..=64 ways), well-formed data caches
    /// ([`CacheConfig::validate`](ptw_mem::cache::CacheConfig::validate)),
    /// a consistent DRAM configuration
    /// ([`DramConfig::validate`]), epoch length in `1..=`
    /// [`MAX_EPOCH_ACCESSES`], and watchdog thresholds that can fire.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.iommu.walkers == 0 {
            return Err(ConfigError::ZeroWalkers);
        }
        if self.iommu.walkers > MAX_WALKERS {
            return Err(ConfigError::TooManyWalkers {
                got: self.iommu.walkers,
            });
        }
        if self.iommu.buffer_entries == 0 {
            return Err(ConfigError::ZeroBufferEntries);
        }
        if self.gpu.cus == 0 {
            return Err(ConfigError::ZeroCus);
        }
        for (name, tlb) in [
            ("gpu-l1", &self.gpu_l1_tlb),
            ("gpu-l2", &self.gpu_l2_tlb),
            ("iommu-l1", &self.iommu.l1_tlb),
            ("iommu-l2", &self.iommu.l2_tlb),
        ] {
            let bad = tlb.entries == 0
                || !(1..=MAX_WAYS).contains(&tlb.ways)
                || tlb.entries % tlb.ways != 0
                || !(tlb.entries / tlb.ways).is_power_of_two()
                || (tlb.policy == Replacement::TreePlru && !tlb.ways.is_power_of_two());
            if bad {
                return Err(ConfigError::TlbGeometry {
                    tlb: name,
                    entries: tlb.entries,
                    ways: tlb.ways,
                });
            }
        }
        let pwc = &self.iommu.pwc;
        if pwc.entries_per_level == 0
            || !(1..=MAX_WAYS).contains(&pwc.ways)
            || !pwc.entries_per_level.is_multiple_of(pwc.ways)
        {
            return Err(ConfigError::PwcGeometry {
                entries_per_level: pwc.entries_per_level,
                ways: pwc.ways,
            });
        }
        for (name, cache) in [("l1", &self.l1_cache), ("l2", &self.l2_cache)] {
            if cache.validate().is_err() {
                return Err(ConfigError::CacheGeometry {
                    cache: name,
                    size_bytes: cache.size_bytes,
                    ways: cache.ways,
                });
            }
        }
        if let Err(reason) = self.dram.validate() {
            return Err(ConfigError::DramGeometry { reason });
        }
        if self.epoch_accesses == 0 || self.epoch_accesses > MAX_EPOCH_ACCESSES {
            return Err(ConfigError::EpochAccessesOutOfRange {
                got: self.epoch_accesses,
            });
        }
        if self.watchdog.enabled() && self.watchdog.stall_epochs == 0 {
            return Err(ConfigError::WatchdogStallEpochsZero);
        }
        let topo = &self.topology;
        if topo.iommus == 0 {
            return Err(ConfigError::ZeroIommus);
        }
        if topo.iommus > MAX_IOMMUS {
            return Err(ConfigError::TooManyIommus { got: topo.iommus });
        }
        if topo.gpu_shards == 0 {
            return Err(ConfigError::ZeroGpuShards);
        }
        if topo.gpu_shards > self.gpu.cus {
            return Err(ConfigError::MoreShardsThanCus {
                shards: topo.gpu_shards,
                cus: self.gpu.cus,
            });
        }
        if topo.large_page_permille > MAX_LARGE_PAGE_PERMILLE {
            return Err(ConfigError::LargePagePermilleOutOfRange {
                got: topo.large_page_permille,
            });
        }
        if let ShardMap::VaRanges(ranges) = &topo.shard_map {
            if ranges.is_empty() {
                return Err(ConfigError::EmptyShardMap);
            }
            for r in ranges {
                if r.start_page >= r.end_page {
                    return Err(ConfigError::EmptyVaRange {
                        start_page: r.start_page,
                        end_page: r.end_page,
                    });
                }
                if r.iommu >= topo.iommus {
                    return Err(ConfigError::ShardTargetOutOfRange {
                        iommu: r.iommu,
                        iommus: topo.iommus,
                    });
                }
            }
            for (i, a) in ranges.iter().enumerate() {
                for b in &ranges[i + 1..] {
                    if a.overlaps(b) {
                        return Err(ConfigError::OverlappingVaRanges {
                            first: (a.start_page, a.end_page),
                            second: (b.start_page, b.end_page),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Baseline with a different page-walk scheduler.
    pub fn with_scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.iommu.scheduler = scheduler;
        self
    }

    /// Baseline with a different GPU L2 TLB size (Figure 13).
    pub fn with_gpu_l2_tlb_entries(mut self, entries: usize) -> Self {
        self.gpu_l2_tlb = TlbConfig::gpu_l2_with_entries(entries);
        self
    }

    /// Baseline with a different page-table-walker count (Figure 13).
    pub fn with_walkers(mut self, walkers: usize) -> Self {
        self.iommu.walkers = walkers;
        self
    }

    /// Baseline with a different IOMMU buffer size (Figure 14).
    pub fn with_iommu_buffer(mut self, entries: usize) -> Self {
        self.iommu.buffer_entries = entries;
        self
    }

    /// Baseline with an `N×M` sharded topology (interleaved sharding).
    pub fn with_topology(mut self, gpu_shards: usize, iommus: usize) -> Self {
        self.topology.gpu_shards = gpu_shards;
        self.topology.iommus = iommus;
        self
    }

    /// Baseline with a large-page promotion fraction in permille.
    pub fn with_large_page_permille(mut self, permille: u32) -> Self {
        self.topology.large_page_permille = permille;
        self
    }

    /// Baseline with an explicit VA-range shard map.
    pub fn with_shard_map(mut self, map: ShardMap) -> Self {
        self.topology.shard_map = map;
        self
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::paper_baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table_one() {
        let c = SystemConfig::paper_baseline();
        assert_eq!(c.gpu.cus, 8);
        assert_eq!(c.gpu_l1_tlb.entries, 32);
        assert_eq!(c.gpu_l2_tlb.entries, 512);
        assert_eq!(c.iommu.buffer_entries, 256);
        assert_eq!(c.iommu.walkers, 8);
        assert_eq!(c.l1_cache.size_bytes, 32 * 1024);
        assert_eq!(c.l2_cache.size_bytes, 4 * 1024 * 1024);
        assert_eq!(c.dram.channels, 2);
        assert_eq!(c.iommu.scheduler, SchedulerKind::Fcfs);
    }

    #[test]
    fn default_topology_is_the_pinned_single() {
        let c = SystemConfig::paper_baseline();
        assert!(c.topology.is_single());
        assert_eq!(c.topology, TopologyConfig::default());
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validate_bounds_the_walker_pool_to_u8_ids() {
        let c = SystemConfig::paper_baseline().with_walkers(MAX_WALKERS);
        assert!(c.validate().is_ok());
        let c = SystemConfig::paper_baseline().with_walkers(MAX_WALKERS + 1);
        assert_eq!(
            c.validate(),
            Err(ConfigError::TooManyWalkers {
                got: MAX_WALKERS + 1
            })
        );
    }

    #[test]
    fn validate_rejects_degenerate_topologies() {
        use crate::error::ConfigError;
        let mut c = SystemConfig::paper_baseline();
        c.topology.iommus = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroIommus));

        let mut c = SystemConfig::paper_baseline();
        c.topology.gpu_shards = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroGpuShards));

        let c = SystemConfig::paper_baseline().with_topology(1, MAX_IOMMUS);
        assert!(c.validate().is_ok());
        let c = SystemConfig::paper_baseline().with_topology(1, MAX_IOMMUS + 1);
        assert_eq!(
            c.validate(),
            Err(ConfigError::TooManyIommus {
                got: MAX_IOMMUS + 1
            })
        );

        let c = SystemConfig::paper_baseline().with_topology(64, 2);
        assert_eq!(
            c.validate(),
            Err(ConfigError::MoreShardsThanCus { shards: 64, cus: 8 })
        );

        let c = SystemConfig::paper_baseline().with_large_page_permille(1001);
        assert_eq!(
            c.validate(),
            Err(ConfigError::LargePagePermilleOutOfRange { got: 1001 })
        );

        let c = SystemConfig::paper_baseline().with_shard_map(ShardMap::VaRanges(vec![]));
        assert_eq!(c.validate(), Err(ConfigError::EmptyShardMap));

        let c = SystemConfig::paper_baseline()
            .with_topology(2, 2)
            .with_shard_map(ShardMap::VaRanges(vec![VaRange {
                start_page: 10,
                end_page: 10,
                iommu: 0,
            }]));
        assert_eq!(
            c.validate(),
            Err(ConfigError::EmptyVaRange {
                start_page: 10,
                end_page: 10
            })
        );

        let c = SystemConfig::paper_baseline()
            .with_topology(2, 2)
            .with_shard_map(ShardMap::VaRanges(vec![VaRange {
                start_page: 0,
                end_page: 10,
                iommu: 5,
            }]));
        assert_eq!(
            c.validate(),
            Err(ConfigError::ShardTargetOutOfRange {
                iommu: 5,
                iommus: 2
            })
        );

        let c = SystemConfig::paper_baseline()
            .with_topology(2, 2)
            .with_shard_map(ShardMap::VaRanges(vec![
                VaRange {
                    start_page: 0,
                    end_page: 100,
                    iommu: 0,
                },
                VaRange {
                    start_page: 50,
                    end_page: 150,
                    iommu: 1,
                },
            ]));
        assert_eq!(
            c.validate(),
            Err(ConfigError::OverlappingVaRanges {
                first: (0, 100),
                second: (50, 150)
            })
        );

        // A well-formed sharded topology passes.
        let c = SystemConfig::paper_baseline()
            .with_topology(2, 2)
            .with_large_page_permille(500);
        assert!(c.validate().is_ok());
    }

    /// Geometries that `System::try_new` could not build: each must be a
    /// typed rejection, not a panic in the PWC or TLB constructors.
    #[test]
    fn validate_rejects_unbuildable_pwc_and_tlb_geometries() {
        for (entries_per_level, ways) in [(0, 32), (32, 0), (32, 5), (128, 128)] {
            let mut c = SystemConfig::paper_baseline();
            c.iommu.pwc.entries_per_level = entries_per_level;
            c.iommu.pwc.ways = ways;
            assert_eq!(
                c.validate(),
                Err(ConfigError::PwcGeometry {
                    entries_per_level,
                    ways
                })
            );
        }
        let mut c = SystemConfig::paper_baseline();
        c.gpu_l2_tlb.entries = 128;
        c.gpu_l2_tlb.ways = 128;
        assert_eq!(
            c.validate(),
            Err(ConfigError::TlbGeometry {
                tlb: "gpu-l2",
                entries: 128,
                ways: 128
            })
        );
        let mut c = SystemConfig::paper_baseline();
        c.gpu_l1_tlb.entries = 12;
        c.gpu_l1_tlb.ways = 3;
        c.gpu_l1_tlb.policy = Replacement::TreePlru;
        assert_eq!(
            c.validate(),
            Err(ConfigError::TlbGeometry {
                tlb: "gpu-l1",
                entries: 12,
                ways: 3
            })
        );
        // The same 12 × 3 shape is fine under the other policies, and the
        // limits themselves are accepted.
        c.gpu_l1_tlb.policy = Replacement::Random;
        c.iommu.pwc.entries_per_level = 128;
        c.iommu.pwc.ways = MAX_WAYS;
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn interleave_sharding_keeps_regions_whole() {
        use ptw_types::addr::{VirtPage, PAGES_PER_LARGE_PAGE};
        let t = TopologyConfig::sharded(2, 2, 0);
        // Every page of one 2 MiB region lands on the same IOMMU.
        let region = 7 * PAGES_PER_LARGE_PAGE;
        let owner = t.iommu_of_page(VirtPage::new(region));
        for off in [0, 1, 255, 511] {
            assert_eq!(t.iommu_of_page(VirtPage::new(region + off)), owner);
        }
        // Adjacent regions alternate.
        assert_ne!(
            t.iommu_of_page(VirtPage::new(region)),
            t.iommu_of_page(VirtPage::new(region + PAGES_PER_LARGE_PAGE))
        );
        // Explicit ranges override the interleave.
        let t = TopologyConfig {
            shard_map: ShardMap::VaRanges(vec![VaRange {
                start_page: 0,
                end_page: 1 << 30,
                iommu: 1,
            }]),
            ..TopologyConfig::sharded(2, 2, 0)
        };
        assert_eq!(t.iommu_of_page(VirtPage::new(12345)), 1);
    }

    #[test]
    fn cu_striping_covers_all_shards() {
        let t = TopologyConfig::sharded(2, 2, 0);
        let shards: Vec<usize> = (0..8).map(|cu| t.shard_of_cu(cu, 8)).collect();
        assert_eq!(shards, [0, 0, 0, 0, 1, 1, 1, 1]);
        // Uneven split still places every CU in range.
        let t3 = TopologyConfig::sharded(3, 1, 0);
        for cu in 0..8 {
            assert!(t3.shard_of_cu(cu, 8) < 3);
        }
    }

    #[test]
    fn builders_compose() {
        let c = SystemConfig::paper_baseline()
            .with_scheduler(SchedulerKind::SimtAware)
            .with_gpu_l2_tlb_entries(1024)
            .with_walkers(16)
            .with_iommu_buffer(512);
        assert_eq!(c.iommu.scheduler, SchedulerKind::SimtAware);
        assert_eq!(c.gpu_l2_tlb.entries, 1024);
        assert_eq!(c.iommu.walkers, 16);
        assert_eq!(c.iommu.buffer_entries, 512);
    }
}
