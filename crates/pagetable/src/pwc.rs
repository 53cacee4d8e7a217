//! Page walk caches (PWCs) with the paper's 2-bit counter scheme.
//!
//! The IOMMU keeps small caches for the *upper three levels* of the page
//! table (Section II-B): a hit for the level-2 (PD) entry leaves only the
//! leaf PTE to fetch (1 memory access); a hit for only the root (PML4)
//! entry leaves 3; a complete miss costs the full 4.
//!
//! Section IV's "Design Subtleties" add a feedback mechanism the SIMT-aware
//! scheduler relies on: each PWC entry carries a **2-bit saturating
//! counter**. When a newly-arrived walk request's *estimate probe* hits an
//! entry (action 1-a), the counter is incremented — the entry now backs an
//! estimate of a request still waiting in the IOMMU buffer. When the
//! scheduled walk actually consumes the entry (action 2-b), the counter is
//! decremented. Replacement avoids victimizing entries with non-zero
//! counters (falling back to plain pseudo-LRU when every way is pinned),
//! keeping arrival-time scores honest.
//!
//! Each action reads each cached level above the leaf at most once: the
//! loop that moves the counters also finds the deepest hit, and a fill is
//! one insert per level the walk read.

use ptw_mem::assoc::{AssocArray, Replacement, SetIndex};
use ptw_types::addr::{PageSize, PhysAddr, PhysFrame, VirtPage};

use crate::table::{PageTable, WalkPath};

/// The page-table levels cached by the PWC, deepest first.
/// (Level 1 — the leaf PT — is never cached; that is the TLB's job.)
pub const PWC_LEVELS: [u8; 3] = [2, 3, 4];

/// Configuration of the page walk caches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PwcConfig {
    /// Entries per cached level (each of levels 4, 3, 2 has its own array).
    pub entries_per_level: usize,
    /// Associativity of each per-level array.
    pub ways: usize,
    /// Enables the 2-bit counter + pinned-replacement scheme from the
    /// paper. Disable for the ablation study.
    pub counter_pinning: bool,
}

impl PwcConfig {
    /// Default geometry: three 32-entry fully-associative per-level caches,
    /// in line with published MMU-cache designs (Bhattacharjee, MICRO'13),
    /// with counter pinning enabled.
    pub fn paper_baseline() -> Self {
        PwcConfig {
            entries_per_level: 32,
            ways: 32,
            counter_pinning: true,
        }
    }

    fn sets(&self) -> usize {
        assert!(
            self.entries_per_level > 0
                && self.ways > 0
                && self.entries_per_level.is_multiple_of(self.ways),
            "PWC geometry {}x{} invalid",
            self.entries_per_level,
            self.ways
        );
        self.entries_per_level / self.ways
    }
}

impl Default for PwcConfig {
    fn default() -> Self {
        Self::paper_baseline()
    }
}

#[derive(Clone, Copy, Debug)]
struct PwcEntry {
    child: PhysFrame,
    /// 2-bit saturating reservation counter (0..=3).
    counter: u8,
}

/// The result of consulting the PWC for a walk (or an estimate).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PwcHit {
    /// Deepest cached level on the page's path (2, 3 or 4 for base pages;
    /// 3 or 4 for large pages, whose leaf *is* level 2), or `None` on a
    /// complete miss.
    pub deepest: Option<u8>,
    /// Memory accesses the walk needs: 1 (hit one level above the leaf) up
    /// to 4 for a base-page miss, or 3 for a large-page miss (large walks
    /// terminate at the level-2 leaf).
    pub accesses: u8,
}

/// The fully resolved plan for one hardware page walk.
///
/// Produced by [`PageWalkCache::begin_walk`]; the IOMMU walker issues the
/// [`pte_reads`](Self::pte_reads) sequentially to DRAM and calls
/// [`PageWalkCache::complete_walk`] when the last read returns.
///
/// A walk touches at most four levels, so the read list is a fixed inline
/// array with a length — building a plan never allocates, and the whole
/// plan is `Copy`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalkPlan {
    /// The page being translated.
    pub page: VirtPage,
    /// PTE physical addresses to read, in walk order (highest level
    /// first); only the first `len` slots are meaningful.
    pte_reads: [PhysAddr; 4],
    /// Page-table level of each read in `pte_reads` (e.g. `[3, 2, 1]`).
    levels: [u8; 4],
    /// Number of reads the walk performs (1–4).
    len: u8,
    /// The translation the walk will produce.
    pub frame: PhysFrame,
    /// The underlying full path (for PWC fills on completion).
    path: WalkPath,
}

impl WalkPlan {
    /// PTE physical addresses to read, in walk order (highest level first).
    pub fn pte_reads(&self) -> &[PhysAddr] {
        &self.pte_reads[..self.len as usize]
    }

    /// Page-table level of each read in [`pte_reads`](Self::pte_reads).
    pub fn levels(&self) -> &[u8] {
        &self.levels[..self.len as usize]
    }

    /// Number of memory accesses this walk performs (1–4).
    pub fn accesses(&self) -> u8 {
        self.len
    }

    /// Page size of the mapping this walk resolves.
    pub fn page_size(&self) -> PageSize {
        self.path.page_size()
    }

    /// Whether this walk terminates at a 2 MiB large-page leaf.
    pub fn is_large(&self) -> bool {
        self.path.leaf_level == 2
    }

    /// Base frame of the mapping: for a large page, the first frame of the
    /// contiguous 512-frame run (what the large-side TLB caches); for a
    /// base page, simply [`frame`](Self::frame).
    pub fn base_frame(&self) -> PhysFrame {
        if self.is_large() {
            PhysFrame::new(self.frame.raw() - self.page.large_offset())
        } else {
            self.frame
        }
    }
}

/// The three per-level page walk caches.
#[derive(Debug)]
pub struct PageWalkCache {
    cfg: PwcConfig,
    /// Index 0 ↔ level 4, 1 ↔ level 3, 2 ↔ level 2.
    levels: [AssocArray<PwcEntry>; 3],
    set_ix: SetIndex,
}

fn level_slot(level: u8) -> usize {
    debug_assert!((2..=4).contains(&level));
    (4 - level) as usize
}

impl PageWalkCache {
    /// Creates empty PWCs.
    pub fn new(cfg: PwcConfig) -> Self {
        let sets = cfg.sets();
        let mk = || AssocArray::new(sets, cfg.ways, Replacement::Lru);
        PageWalkCache {
            cfg,
            levels: [mk(), mk(), mk()],
            set_ix: SetIndex::new(sets),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &PwcConfig {
        &self.cfg
    }

    #[inline]
    fn set_of(&self, key: u64) -> usize {
        self.set_ix.of(key)
    }

    fn hit_to_accesses(deepest: Option<u8>, leaf_level: u8) -> u8 {
        match deepest {
            Some(level) => level - leaf_level,
            None => 5 - leaf_level,
        }
    }

    /// Scheduler action **1-a**: probes the PWC to *estimate* how many
    /// memory accesses a walk for `page` would need right now, assuming a
    /// base 4 KiB mapping.
    ///
    /// Does not update recency (it is a probe, not a use); when counter
    /// pinning is enabled, increments the 2-bit counters of every entry on
    /// the page's cached path, reserving them for the eventual walk. Each
    /// cached level is probed at most once; without pinning the probe
    /// stops at the deepest hit.
    pub fn estimate(&mut self, page: VirtPage) -> PwcHit {
        self.estimate_sized(page, PageSize::Base4K)
    }

    /// Page-size-aware form of [`estimate`](Self::estimate): a
    /// [`PageSize::Large2M`] page walks to the level-2 leaf, so only
    /// levels 3 and 4 are probed (and reserved) and a complete miss costs
    /// 3 accesses instead of 4. (Levels at or below the leaf are the
    /// TLB's job: a large page's level-2 entry is its leaf.)
    pub fn estimate_sized(&mut self, page: VirtPage, size: PageSize) -> PwcHit {
        let leaf = size.leaf_level();
        let pinning = self.cfg.counter_pinning;
        let mut deepest = None;
        for level in PWC_LEVELS.into_iter().filter(|&l| l > leaf) {
            let key = page.prefix(level);
            let set = self.set_of(key);
            if let Some(e) = self.levels[level_slot(level)].probe_mut(set, key) {
                deepest = deepest.or(Some(level));
                if !pinning {
                    break;
                }
                e.counter = (e.counter + 1).min(3);
            }
        }
        PwcHit {
            deepest,
            accesses: Self::hit_to_accesses(deepest, leaf),
        }
    }

    /// Scheduler action **2-b**: performs the walk-time PWC lookup and
    /// returns the concrete [`WalkPlan`].
    ///
    /// Looks up each cached level above the leaf once: every hit updates
    /// recency and, under counter pinning, decrements its reservation
    /// counter. Returns `None` if the page is not mapped in `table`.
    pub fn begin_walk(&mut self, table: &PageTable, page: VirtPage) -> Option<WalkPlan> {
        let path = table.walk_path(page)?;
        let leaf = path.leaf_level;
        let pinning = self.cfg.counter_pinning;
        let mut deepest = None;
        for level in PWC_LEVELS.into_iter().filter(|&l| l > leaf) {
            let key = page.prefix(level);
            let set = self.set_of(key);
            if let Some(e) = self.levels[level_slot(level)].lookup_mut(set, key) {
                deepest = deepest.or(Some(level));
                if pinning {
                    e.counter = e.counter.saturating_sub(1);
                }
            }
        }
        let start = match deepest {
            Some(level) => level - 1,
            None => 4,
        };
        let mut levels = [0u8; 4];
        let mut pte_reads = [PhysAddr::default(); 4];
        let mut len = 0usize;
        for l in (leaf..=start).rev() {
            levels[len] = l;
            pte_reads[len] = path.pte_addr(l);
            len += 1;
        }
        Some(WalkPlan {
            page,
            pte_reads,
            levels,
            len: len as u8,
            frame: path.frame,
            path,
        })
    }

    /// Installs PWC entries for every upper level the finished walk read.
    ///
    /// Entries whose counters are non-zero are protected from eviction
    /// (falling back to LRU when all ways are pinned), per the paper.
    pub fn complete_walk(&mut self, plan: &WalkPlan) {
        for &level in plan.levels() {
            if !(2..=4).contains(&level) || level <= plan.path.leaf_level {
                continue; // the leaf PTE goes to the TLBs, not the PWC
            }
            let key = plan.page.prefix(level);
            let set = self.set_of(key);
            let slot = level_slot(level);
            let entry = PwcEntry {
                child: plan.path.child_frame(level),
                counter: 0,
            };
            if self.cfg.counter_pinning {
                self.levels[slot].fill_pinned(set, key, entry, |_, e| e.counter > 0);
            } else {
                self.levels[slot].fill(set, key, entry);
            }
        }
    }

    /// The cached child frame for `page` at `level`, if present (test/debug
    /// aid).
    pub fn cached_child(&self, page: VirtPage, level: u8) -> Option<PhysFrame> {
        let key = page.prefix(level);
        self.levels[level_slot(level)]
            .probe(self.set_of(key), key)
            .map(|e| e.child)
    }

    /// The reservation counter for `page`'s entry at `level`, if present.
    pub fn counter(&self, page: VirtPage, level: u8) -> Option<u8> {
        let key = page.prefix(level);
        self.levels[level_slot(level)]
            .probe(self.set_of(key), key)
            .map(|e| e.counter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frames::{FrameAllocator, FrameLayout};

    fn setup() -> (FrameAllocator, PageTable, PageWalkCache) {
        let mut alloc = FrameAllocator::new(0x1000, 1 << 22, FrameLayout::Sequential);
        let pt = PageTable::new(&mut alloc);
        let pwc = PageWalkCache::new(PwcConfig::paper_baseline());
        (alloc, pt, pwc)
    }

    fn map(alloc: &mut FrameAllocator, pt: &mut PageTable, vpn: u64) -> VirtPage {
        let page = VirtPage::new(vpn);
        let f = alloc.alloc();
        pt.map(page, f, alloc).unwrap();
        page
    }

    #[test]
    fn cold_walk_needs_four_accesses() {
        let (mut alloc, mut pt, mut pwc) = setup();
        let page = map(&mut alloc, &mut pt, 0x123456);
        assert_eq!(pwc.estimate(page).accesses, 4);
        let plan = pwc.begin_walk(&pt, page).unwrap();
        assert_eq!(plan.accesses(), 4);
        assert_eq!(plan.levels(), &[4, 3, 2, 1][..]);
    }

    #[test]
    fn warm_walk_needs_one_access() {
        let (mut alloc, mut pt, mut pwc) = setup();
        let page = map(&mut alloc, &mut pt, 0x123456);
        let plan = pwc.begin_walk(&pt, page).unwrap();
        pwc.complete_walk(&plan);
        // Same page again: level-2 entry cached → leaf only.
        assert_eq!(pwc.estimate(page).accesses, 1);
        let plan2 = pwc.begin_walk(&pt, page).unwrap();
        assert_eq!(plan2.levels(), &[1][..]);
        assert_eq!(plan2.frame, plan.frame);
    }

    #[test]
    fn sibling_page_in_same_2mb_region_reuses_pd_entry() {
        let (mut alloc, mut pt, mut pwc) = setup();
        let a = map(&mut alloc, &mut pt, 0x1000);
        let b = map(&mut alloc, &mut pt, 0x1001);
        let plan = pwc.begin_walk(&pt, a).unwrap();
        pwc.complete_walk(&plan);
        // b shares all upper levels with a.
        assert_eq!(pwc.estimate(b).accesses, 1);
    }

    #[test]
    fn partial_hit_counts_intermediate_levels() {
        let (mut alloc, mut pt, mut pwc) = setup();
        let a = map(&mut alloc, &mut pt, 0);
        // Same PML4+PDPT entries, different PD entry (different 2MiB region
        // within the same 1GiB region).
        let b = map(&mut alloc, &mut pt, 1 << 9);
        let plan = pwc.begin_walk(&pt, a).unwrap();
        pwc.complete_walk(&plan);
        assert_eq!(pwc.estimate(b).accesses, 2); // level-3 hit → read PD, PT
        let plan_b = pwc.begin_walk(&pt, b).unwrap();
        assert_eq!(plan_b.levels(), &[2, 1][..]);
    }

    #[test]
    fn estimate_increments_and_walk_decrements_counters() {
        let (mut alloc, mut pt, mut pwc) = setup();
        let page = map(&mut alloc, &mut pt, 0x5000);
        let plan = pwc.begin_walk(&pt, page).unwrap();
        pwc.complete_walk(&plan);
        assert_eq!(pwc.counter(page, 2), Some(0));
        pwc.estimate(page);
        pwc.estimate(page);
        assert_eq!(pwc.counter(page, 2), Some(2));
        pwc.begin_walk(&pt, page).unwrap();
        assert_eq!(pwc.counter(page, 2), Some(1));
    }

    #[test]
    fn counters_saturate_at_three() {
        let (mut alloc, mut pt, mut pwc) = setup();
        let page = map(&mut alloc, &mut pt, 0x5000);
        let plan = pwc.begin_walk(&pt, page).unwrap();
        pwc.complete_walk(&plan);
        for _ in 0..10 {
            pwc.estimate(page);
        }
        assert_eq!(pwc.counter(page, 2), Some(3));
    }

    #[test]
    fn pinned_entry_survives_eviction_pressure() {
        // Tiny PWC: 2 entries per level, fully associative.
        let mut alloc = FrameAllocator::new(0x1000, 1 << 22, FrameLayout::Sequential);
        let mut pt = PageTable::new(&mut alloc);
        let mut pwc = PageWalkCache::new(PwcConfig {
            entries_per_level: 2,
            ways: 2,
            counter_pinning: true,
        });
        // Three pages in three different 2MiB regions → 3 distinct level-2
        // entries competing for 2 ways.
        let pages: Vec<VirtPage> = (0..3).map(|i| map(&mut alloc, &mut pt, i << 9)).collect();
        let plan0 = pwc.begin_walk(&pt, pages[0]).unwrap();
        pwc.complete_walk(&plan0);
        pwc.estimate(pages[0]); // pin page 0's entries
        for &p in &pages[1..] {
            let plan = pwc.begin_walk(&pt, p).unwrap();
            pwc.complete_walk(&plan);
        }
        // Page 0's level-2 entry must have survived (it was pinned), so
        // its pending walk still needs only 1 access.
        assert!(pwc.cached_child(pages[0], 2).is_some());
    }

    #[test]
    fn without_pinning_reserved_entry_can_be_evicted() {
        let mut alloc = FrameAllocator::new(0x1000, 1 << 22, FrameLayout::Sequential);
        let mut pt = PageTable::new(&mut alloc);
        let mut pwc = PageWalkCache::new(PwcConfig {
            entries_per_level: 2,
            ways: 2,
            counter_pinning: false,
        });
        let pages: Vec<VirtPage> = (0..3).map(|i| map(&mut alloc, &mut pt, i << 9)).collect();
        let plan0 = pwc.begin_walk(&pt, pages[0]).unwrap();
        pwc.complete_walk(&plan0);
        pwc.estimate(pages[0]);
        for &p in &pages[1..] {
            let plan = pwc.begin_walk(&pt, p).unwrap();
            pwc.complete_walk(&plan);
        }
        // LRU evicted page 0's level-2 entry despite the earlier estimate.
        assert_eq!(pwc.cached_child(pages[0], 2), None);
    }

    #[test]
    fn large_page_cold_walk_needs_three_accesses() {
        let (mut alloc, mut pt, mut pwc) = setup();
        let base = alloc.alloc_contiguous(ptw_types::addr::PAGES_PER_LARGE_PAGE);
        let page = VirtPage::new(6 << 9);
        pt.map_large(page, base, &mut alloc).unwrap();
        assert_eq!(pwc.estimate_sized(page, PageSize::Large2M).accesses, 3);
        let plan = pwc.begin_walk(&pt, page).unwrap();
        assert!(plan.is_large());
        assert_eq!(plan.page_size(), PageSize::Large2M);
        assert_eq!(plan.levels(), &[4, 3, 2][..]);
        assert_eq!(plan.base_frame(), base);
    }

    #[test]
    fn warm_large_walk_needs_one_access_and_skips_level_two_fill() {
        let (mut alloc, mut pt, mut pwc) = setup();
        let base = alloc.alloc_contiguous(ptw_types::addr::PAGES_PER_LARGE_PAGE);
        let page = VirtPage::new(6 << 9);
        pt.map_large(page, base, &mut alloc).unwrap();
        let plan = pwc.begin_walk(&pt, page).unwrap();
        pwc.complete_walk(&plan);
        // Levels 4 and 3 are cached; the level-2 leaf must NOT be (its
        // "child" is the translation, which belongs in the TLB).
        assert!(pwc.cached_child(page, 4).is_some());
        assert!(pwc.cached_child(page, 3).is_some());
        assert_eq!(pwc.cached_child(page, 2), None);
        assert_eq!(pwc.estimate_sized(page, PageSize::Large2M).accesses, 1);
        let warm = pwc.begin_walk(&pt, page).unwrap();
        assert_eq!(warm.levels(), &[2][..]);
        let inner = VirtPage::new(page.raw() + 300);
        assert_eq!(warm.base_frame(), base);
        let inner_plan = pwc.begin_walk(&pt, inner).unwrap();
        assert_eq!(inner_plan.frame, PhysFrame::new(base.raw() + 300));
        assert_eq!(inner_plan.base_frame(), base);
    }

    #[test]
    fn unmapped_page_yields_no_plan() {
        let (_alloc, pt, mut pwc) = setup();
        assert!(pwc.begin_walk(&pt, VirtPage::new(42)).is_none());
    }

    /// Levels above `leaf` whose entry for `page` is cached, with counters.
    fn cached_path(pwc: &PageWalkCache, page: VirtPage, leaf: u8) -> Vec<(u8, Option<u8>)> {
        PWC_LEVELS
            .into_iter()
            .filter(|&l| l > leaf)
            .map(|l| (l, pwc.counter(page, l)))
            .collect()
    }

    /// Random interleavings of estimates, walk starts and walk completions
    /// over base and large pages: the deepest hit each action reports is
    /// the deepest cached level before the call, each hit level's counter
    /// moves by exactly one step, and without pinning no counter moves.
    #[test]
    fn random_actions_keep_deepest_and_counters_exact() {
        use ptw_types::addr::PAGES_PER_LARGE_PAGE;
        use ptw_types::rng::SplitMix64;

        for (seed, (entries, ways), pinning) in [
            (1u64, (4, 2), true),
            (2, (4, 2), false),
            (3, (4, 4), true),
            (4, (4, 4), false),
            (5, (8, 2), true),
            (6, (8, 2), false),
        ] {
            let mut rng = SplitMix64::new(0x9C0_0000 + seed);
            let mut alloc = FrameAllocator::new(0x1000, 1 << 22, FrameLayout::Sequential);
            let mut pt = PageTable::new(&mut alloc);
            let mut pwc = PageWalkCache::new(PwcConfig {
                entries_per_level: entries,
                ways,
                counter_pinning: pinning,
            });
            // Two PML4 regions x two PDPT regions, each holding four 2 MiB
            // regions of base pages and two large pages, so hits land at
            // every level and the tiny caches keep evicting.
            let mut pages = Vec::new();
            for pml4 in 0..2u64 {
                for pdpt in 0..2u64 {
                    let region = (pml4 << 27) | (pdpt << 18);
                    for pd in 0..4u64 {
                        for pte in 0..3u64 {
                            pages.push(map(&mut alloc, &mut pt, region | (pd << 9) | pte));
                        }
                    }
                    for pd in 4..6u64 {
                        let page = VirtPage::new(region | (pd << 9));
                        let base = alloc.alloc_contiguous(PAGES_PER_LARGE_PAGE);
                        pt.map_large(page, base, &mut alloc).unwrap();
                        pages.push(page);
                        pages.push(VirtPage::new(page.raw() + 77));
                    }
                }
            }
            let mut inflight: Vec<WalkPlan> = Vec::new();
            for step in 0..3000 {
                let page = pages[rng.index(pages.len())];
                let leaf = pt.page_size_of(page).leaf_level();
                let before = cached_path(&pwc, page, leaf);
                let expect_deepest = before.iter().find(|(_, c)| c.is_some()).map(|&(l, _)| l);
                let ctx = format!("seed {seed} step {step} page {page:?}");
                match rng.index(3) {
                    0 => {
                        let hit = pwc.estimate_sized(page, pt.page_size_of(page));
                        assert_eq!(hit.deepest, expect_deepest, "{ctx}: estimate deepest");
                        assert_eq!(
                            hit.accesses,
                            PageWalkCache::hit_to_accesses(hit.deepest, leaf)
                        );
                        for (&(l, b), (_, a)) in before.iter().zip(cached_path(&pwc, page, leaf)) {
                            let want = b.map(|c| if pinning { (c + 1).min(3) } else { c });
                            assert_eq!(a, want, "{ctx}: estimate counter at level {l}");
                        }
                    }
                    1 => {
                        let plan = pwc.begin_walk(&pt, page).unwrap();
                        let first = plan.levels()[0];
                        let deepest = (first < 4).then_some(first + 1);
                        assert_eq!(deepest, expect_deepest, "{ctx}: walk deepest");
                        assert_eq!(*plan.levels().last().unwrap(), leaf);
                        for (&(l, b), (_, a)) in before.iter().zip(cached_path(&pwc, page, leaf)) {
                            let want = b.map(|c| if pinning { c.saturating_sub(1) } else { c });
                            assert_eq!(a, want, "{ctx}: walk counter at level {l}");
                        }
                        inflight.push(plan);
                    }
                    _ if !inflight.is_empty() => {
                        let plan = inflight.swap_remove(rng.index(inflight.len()));
                        pwc.complete_walk(&plan);
                        for &l in plan.levels().iter().filter(|&&l| l > plan.path.leaf_level) {
                            assert_eq!(
                                pwc.cached_child(plan.page, l),
                                Some(plan.path.child_frame(l)),
                                "{ctx}: fill at level {l}"
                            );
                        }
                    }
                    _ => {}
                }
                if !pinning {
                    for &p in &pages {
                        for l in PWC_LEVELS {
                            assert!(
                                matches!(pwc.counter(p, l), None | Some(0)),
                                "{ctx}: counter moved without pinning"
                            );
                        }
                    }
                }
            }
        }
    }
}
