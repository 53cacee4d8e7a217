//! Translation lookaside buffers.
//!
//! Models every TLB in the paper's Figure 1 translation path with the
//! Table I geometries:
//!
//! | TLB | geometry |
//! |---|---|
//! | GPU L1 (per CU)  | 32 entries, fully associative |
//! | GPU L2 (shared)  | 512 entries, 16-way |
//! | IOMMU L1         | 32 entries, fully associative |
//! | IOMMU L2         | 256 entries, 16-way |
//!
//! The TLB itself is a *state* model (hit/miss + contents); lookup and fill
//! latencies are composed by the simulator's translation path. All TLBs map
//! a [`VirtPage`] to a [`PhysFrame`]; replacement is configurable and
//! defaults to the deterministic pseudo-random policy of real TLBs.
//!
//! # Example
//!
//! ```
//! use ptw_tlb::{Tlb, TlbConfig};
//! use ptw_types::addr::{PhysFrame, VirtPage};
//!
//! let mut tlb = Tlb::new(TlbConfig::paper_gpu_l1());
//! let page = VirtPage::new(0x7f00);
//! assert_eq!(tlb.lookup(page), None);
//! tlb.fill(page, PhysFrame::new(42));
//! assert_eq!(tlb.lookup(page), Some(PhysFrame::new(42)));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use ptw_mem::assoc::{AssocArray, Replacement, SetIndex};
use ptw_types::addr::{PhysFrame, VirtPage, PAGES_PER_LARGE_PAGE};
use ptw_types::stats::HitRate;

/// Geometry of one TLB.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TlbConfig {
    /// Total entries.
    pub entries: usize,
    /// Associativity (`entries` for fully associative).
    pub ways: usize,
    /// Replacement policy. Defaults to pseudo-random in the `paper_*`
    /// constructors: hardware TLBs commonly use (pseudo-)random victims,
    /// and unlike LRU it does not collapse to a 0% hit rate when a cyclic
    /// working set slightly exceeds capacity — the regime every irregular
    /// workload in the paper lives in.
    pub policy: Replacement,
}

impl TlbConfig {
    /// Table I GPU L1 TLB: 32 entries, fully associative.
    pub fn paper_gpu_l1() -> Self {
        TlbConfig {
            entries: 32,
            ways: 32,
            policy: Replacement::Random,
        }
    }

    /// Table I GPU shared L2 TLB: 512 entries, 16-way set associative.
    pub fn paper_gpu_l2() -> Self {
        TlbConfig {
            entries: 512,
            ways: 16,
            policy: Replacement::Random,
        }
    }

    /// Table I IOMMU L1 TLB: 32 entries (fully associative).
    pub fn paper_iommu_l1() -> Self {
        TlbConfig {
            entries: 32,
            ways: 32,
            policy: Replacement::Random,
        }
    }

    /// Table I IOMMU L2 TLB: 256 entries (16-way).
    pub fn paper_iommu_l2() -> Self {
        TlbConfig {
            entries: 256,
            ways: 16,
            policy: Replacement::Random,
        }
    }

    /// A GPU L2 TLB with `entries` total entries (sensitivity sweeps,
    /// Figure 13), keeping 16-way associativity where possible.
    pub fn gpu_l2_with_entries(entries: usize) -> Self {
        let ways = if entries >= 16 { 16 } else { entries };
        TlbConfig {
            entries,
            ways,
            policy: Replacement::Random,
        }
    }

    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a positive multiple of `ways`.
    pub fn sets(&self) -> usize {
        assert!(
            self.ways > 0 && self.entries > 0 && self.entries.is_multiple_of(self.ways),
            "TLB geometry {}x{} invalid",
            self.entries,
            self.ways
        );
        self.entries / self.ways
    }
}

/// The 2 MiB side of a split TLB, keyed by large-region index and caching
/// the base frame of the backing contiguous run.
#[derive(Debug)]
struct LargeSide {
    set_ix: SetIndex,
    array: AssocArray<PhysFrame>,
}

/// A single TLB (any level).
///
/// The structure is a split design: the base array holds 4 KiB
/// translations keyed by VPN, and a second array of the same geometry —
/// created lazily on the first large-page fill, so an all-4K run carries
/// no extra state and draws no extra replacement randomness — holds 2 MiB
/// translations keyed by large-region index.
#[derive(Debug)]
pub struct Tlb {
    cfg: TlbConfig,
    seed: u64,
    set_ix: SetIndex,
    array: AssocArray<PhysFrame>,
    large: Option<LargeSide>,
    stats: HitRate,
    large_hits: u64,
}

impl Tlb {
    /// Creates an empty TLB.
    pub fn new(cfg: TlbConfig) -> Self {
        Self::with_seed_salt(cfg, 0)
    }

    /// Creates an empty TLB whose replacement RNG seed is salted with
    /// `salt` — distinct shards of a sharded topology use distinct salts
    /// so their eviction streams decorrelate. Salt 0 is exactly
    /// [`new`](Self::new).
    pub fn with_seed_salt(cfg: TlbConfig, salt: u64) -> Self {
        let sets = cfg.sets();
        let seed = 0x71b_5eed ^ (cfg.entries as u64) << 8 ^ cfg.ways as u64 ^ salt;
        Tlb {
            cfg,
            seed,
            set_ix: SetIndex::new(sets),
            array: AssocArray::with_seed(sets, cfg.ways, cfg.policy, seed),
            large: None,
            stats: HitRate::new(),
            large_hits: 0,
        }
    }

    /// The geometry this TLB was built with.
    pub fn config(&self) -> &TlbConfig {
        &self.cfg
    }

    #[inline]
    fn set_of(&self, page: VirtPage) -> usize {
        self.set_ix.of(page.raw())
    }

    /// Demand lookup: returns the cached translation on hit (recency
    /// updated), `None` on miss. Hit/miss statistics are recorded.
    pub fn lookup(&mut self, page: VirtPage) -> Option<PhysFrame> {
        self.lookup_sized(page).map(|(frame, _)| frame)
    }

    /// Demand lookup consulting both page sizes: returns the translation
    /// and whether it came from the 2 MiB side. The base side is checked
    /// first; a large-side hit adds the page's offset within its region to
    /// the cached run base.
    pub fn lookup_sized(&mut self, page: VirtPage) -> Option<(PhysFrame, bool)> {
        let set = self.set_of(page);
        if let Some(&frame) = self.array.lookup(set, page.raw()) {
            self.stats.hit();
            return Some((frame, false));
        }
        if let Some(ls) = self.large.as_mut() {
            let key = page.large_index();
            let lset = ls.set_ix.of(key);
            if let Some(&base) = ls.array.lookup(lset, key) {
                self.stats.hit();
                self.large_hits += 1;
                return Some((PhysFrame::new(base.raw() + page.large_offset()), true));
            }
        }
        self.stats.miss();
        None
    }

    /// Checks for a translation without updating recency or statistics.
    pub fn probe(&self, page: VirtPage) -> Option<PhysFrame> {
        self.array.probe(self.set_of(page), page.raw()).copied()
    }

    /// Installs a translation, returning the evicted page if the set was
    /// full. Filling an already-present page refreshes it in place.
    pub fn fill(&mut self, page: VirtPage, frame: PhysFrame) -> Option<VirtPage> {
        let set = self.set_of(page);
        self.array
            .fill(set, page.raw(), frame)
            .map(|(vpn, _)| VirtPage::new(vpn))
    }

    /// Installs a 2 MiB translation for `page`'s region, caching `base`
    /// (the first frame of the backing run). Returns the start page of the
    /// evicted region, if any. The large side is created on first use.
    pub fn fill_large(&mut self, page: VirtPage, base: PhysFrame) -> Option<VirtPage> {
        let cfg = self.cfg;
        let seed = self.seed;
        let ls = self.large.get_or_insert_with(|| {
            let sets = cfg.sets();
            LargeSide {
                set_ix: SetIndex::new(sets),
                // Distinct seed stream from the base side.
                array: AssocArray::with_seed(sets, cfg.ways, cfg.policy, seed ^ 0x2A17E),
            }
        });
        let key = page.large_index();
        let set = ls.set_ix.of(key);
        ls.array
            .fill(set, key, base)
            .map(|(li, _)| VirtPage::new(li * PAGES_PER_LARGE_PAGE))
    }

    /// Removes a translation if present.
    pub fn invalidate(&mut self, page: VirtPage) {
        let set = self.set_of(page);
        self.array.invalidate(set, page.raw());
    }

    /// Removes every translation (e.g. on context switch).
    pub fn flush(&mut self) {
        self.array.clear();
        if let Some(ls) = self.large.as_mut() {
            ls.array.clear();
        }
    }

    /// Number of valid entries (both page sizes).
    pub fn resident(&self) -> usize {
        self.array.len() + self.large.as_ref().map_or(0, |ls| ls.array.len())
    }

    /// Hit/miss statistics.
    pub fn stats(&self) -> &HitRate {
        &self.stats
    }

    /// Hits served by the 2 MiB side (a subset of
    /// [`stats`](Self::stats)' hits).
    pub fn large_hits(&self) -> u64 {
        self.large_hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(n: u64) -> VirtPage {
        VirtPage::new(n)
    }

    fn frame(n: u64) -> PhysFrame {
        PhysFrame::new(n)
    }

    #[test]
    fn paper_geometries_are_consistent() {
        assert_eq!(TlbConfig::paper_gpu_l1().sets(), 1);
        assert_eq!(TlbConfig::paper_gpu_l2().sets(), 32);
        assert_eq!(TlbConfig::paper_iommu_l1().sets(), 1);
        assert_eq!(TlbConfig::paper_iommu_l2().sets(), 16);
        assert_eq!(TlbConfig::gpu_l2_with_entries(1024).sets(), 64);
    }

    #[test]
    fn miss_fill_hit() {
        let mut t = Tlb::new(TlbConfig::paper_gpu_l1());
        assert_eq!(t.lookup(page(1)), None);
        t.fill(page(1), frame(100));
        assert_eq!(t.lookup(page(1)), Some(frame(100)));
        assert_eq!(t.stats().hits(), 1);
        assert_eq!(t.stats().misses(), 1);
    }

    #[test]
    fn capacity_is_bounded() {
        let mut t = Tlb::new(TlbConfig {
            entries: 4,
            ways: 4,
            policy: Replacement::Lru,
        });
        for i in 0..100 {
            t.fill(page(i), frame(i));
        }
        assert_eq!(t.resident(), 4);
    }

    #[test]
    fn lru_eviction_order() {
        let mut t = Tlb::new(TlbConfig {
            entries: 2,
            ways: 2,
            policy: Replacement::Lru,
        });
        t.fill(page(1), frame(1));
        t.fill(page(2), frame(2));
        t.lookup(page(1)); // 2 becomes LRU
        let evicted = t.fill(page(3), frame(3));
        assert_eq!(evicted, Some(page(2)));
    }

    #[test]
    fn set_mapping_isolates_conflicts() {
        // 2 sets × 1 way: pages 0 and 2 conflict (set 0); page 1 does not.
        let mut t = Tlb::new(TlbConfig {
            entries: 2,
            ways: 1,
            policy: Replacement::Lru,
        });
        t.fill(page(0), frame(0));
        t.fill(page(1), frame(1));
        t.fill(page(2), frame(2)); // evicts page 0
        assert_eq!(t.probe(page(0)), None);
        assert_eq!(t.probe(page(1)), Some(frame(1)));
        assert_eq!(t.probe(page(2)), Some(frame(2)));
    }

    #[test]
    fn probe_does_not_touch_stats_or_recency() {
        let mut t = Tlb::new(TlbConfig {
            entries: 2,
            ways: 2,
            policy: Replacement::Lru,
        });
        t.fill(page(1), frame(1));
        t.fill(page(2), frame(2));
        t.probe(page(1));
        assert_eq!(t.stats().total(), 0);
        let evicted = t.fill(page(3), frame(3));
        assert_eq!(evicted, Some(page(1))); // probe did not refresh page 1
    }

    #[test]
    fn flush_empties() {
        let mut t = Tlb::new(TlbConfig::paper_gpu_l1());
        t.fill(page(1), frame(1));
        t.flush();
        assert_eq!(t.resident(), 0);
        assert_eq!(t.probe(page(1)), None);
    }

    #[test]
    fn refill_same_page_updates_frame_in_place() {
        let mut t = Tlb::new(TlbConfig {
            entries: 2,
            ways: 2,
            policy: Replacement::Lru,
        });
        t.fill(page(1), frame(1));
        assert_eq!(t.fill(page(1), frame(9)), None);
        assert_eq!(t.probe(page(1)), Some(frame(9)));
        assert_eq!(t.resident(), 1);
    }

    #[test]
    fn large_fill_serves_every_subpage() {
        let mut t = Tlb::new(TlbConfig::paper_gpu_l1());
        let start = page(4 << 9); // 2 MiB-aligned
        t.fill_large(start, frame(0x8000));
        for off in [0u64, 1, 300, 511] {
            let (f, large) = t.lookup_sized(page(start.raw() + off)).unwrap();
            assert!(large);
            assert_eq!(f, frame(0x8000 + off));
        }
        assert_eq!(t.large_hits(), 4);
        assert_eq!(t.stats().hits(), 4);
        // A page outside the region still misses.
        assert_eq!(t.lookup_sized(page(5 << 9)), None);
        assert_eq!(t.resident(), 1);
    }

    #[test]
    fn base_side_wins_over_large_side() {
        let mut t = Tlb::new(TlbConfig::paper_gpu_l1());
        let start = page(4 << 9);
        t.fill_large(start, frame(0x8000));
        t.fill(page(start.raw() + 7), frame(0x99));
        let (f, large) = t.lookup_sized(page(start.raw() + 7)).unwrap();
        assert!(!large);
        assert_eq!(f, frame(0x99));
        assert_eq!(t.large_hits(), 0);
    }

    #[test]
    fn lookup_without_large_fills_is_unchanged() {
        // lookup() and lookup_sized() agree, and the large side stays
        // unallocated (all-4K equivalence path).
        let mut t = Tlb::new(TlbConfig::paper_gpu_l2());
        t.fill(page(1), frame(1));
        assert_eq!(t.lookup(page(1)), Some(frame(1)));
        assert_eq!(t.lookup(page(2)), None);
        assert_eq!(t.lookup_sized(page(1)), Some((frame(1), false)));
        assert_eq!(t.large_hits(), 0);
        assert_eq!(t.stats().hits(), 2);
        assert_eq!(t.stats().misses(), 1);
    }

    #[test]
    fn flush_clears_both_sides() {
        let mut t = Tlb::new(TlbConfig::paper_gpu_l1());
        t.fill(page(1), frame(1));
        t.fill_large(page(4 << 9), frame(0x8000));
        assert_eq!(t.resident(), 2);
        t.flush();
        assert_eq!(t.resident(), 0);
        assert_eq!(t.lookup_sized(page((4 << 9) + 3)), None);
    }

    #[test]
    fn seed_salt_zero_is_identity() {
        // Drive an eviction-heavy sequence through both constructions and
        // require identical victim streams.
        let cfg = TlbConfig {
            entries: 4,
            ways: 4,
            policy: Replacement::Random,
        };
        let mut a = Tlb::new(cfg);
        let mut b = Tlb::with_seed_salt(cfg, 0);
        let mut c = Tlb::with_seed_salt(cfg, 0xDEAD);
        let mut diverged = false;
        for i in 0..64u64 {
            let ea = a.fill(page(i), frame(i));
            let eb = b.fill(page(i), frame(i));
            let ec = c.fill(page(i), frame(i));
            assert_eq!(ea, eb);
            diverged |= ea != ec;
        }
        assert!(diverged, "salted TLB should evict differently");
    }

    #[test]
    fn invalidate_is_idempotent() {
        let mut t = Tlb::new(TlbConfig::paper_gpu_l1());
        t.fill(page(5), frame(5));
        t.invalidate(page(5));
        t.invalidate(page(5));
        assert_eq!(t.resident(), 0);
    }
}

#[cfg(test)]
mod randomized {
    //! Randomized invariant tests driven by the in-tree `SplitMix64`.

    use super::*;
    use ptw_types::rng::SplitMix64;
    use std::collections::HashSet;

    /// Residency never exceeds capacity.
    #[test]
    fn residency_bounded() {
        let mut rng = SplitMix64::new(0x71B1);
        for _ in 0..64 {
            let mut t = Tlb::new(TlbConfig {
                entries: 8,
                ways: 2,
                policy: Replacement::Lru,
            });
            for _ in 0..(1 + rng.index(199)) {
                t.fill(
                    VirtPage::new(rng.next_below(64)),
                    PhysFrame::new(rng.next_below(1000)),
                );
                assert!(t.resident() <= 8);
            }
        }
    }

    /// A fill is immediately visible, regardless of prior history.
    #[test]
    fn fill_then_lookup_hits() {
        let mut rng = SplitMix64::new(0xF177);
        for _ in 0..64 {
            let mut t = Tlb::new(TlbConfig {
                entries: 4,
                ways: 4,
                policy: Replacement::Lru,
            });
            for _ in 0..rng.index(100) {
                let h = rng.next_below(32);
                t.fill(VirtPage::new(h), PhysFrame::new(h));
            }
            let vpn = rng.next_below(32);
            t.fill(VirtPage::new(vpn), PhysFrame::new(777));
            assert_eq!(t.lookup(VirtPage::new(vpn)), Some(PhysFrame::new(777)));
        }
    }

    /// The TLB holds no duplicate VPNs: the number of distinct probe hits
    /// equals the number of resident entries.
    #[test]
    fn no_duplicate_vpns() {
        let mut rng = SplitMix64::new(0xD0D0);
        for _ in 0..64 {
            let mut t = Tlb::new(TlbConfig {
                entries: 8,
                ways: 4,
                policy: Replacement::Lru,
            });
            let mut filled = HashSet::new();
            for _ in 0..(1 + rng.index(99)) {
                let vpn = rng.next_below(16);
                t.fill(VirtPage::new(vpn), PhysFrame::new(vpn));
                filled.insert(vpn);
            }
            let hits = filled
                .iter()
                .filter(|&&v| t.probe(VirtPage::new(v)).is_some())
                .count();
            assert_eq!(hits, t.resident());
        }
    }
}
