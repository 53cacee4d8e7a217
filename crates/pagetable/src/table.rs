//! A four-level x86-64 page table in simulated physical memory.
//!
//! The IOMMU's page table walkers "walk the same four-level x86-64 page
//! table as the CPU" (Section II-B). We build the real radix tree: every
//! node occupies a physical frame handed out by the
//! [`FrameAllocator`], so a walker's four
//! (or fewer) PTE reads target *actual* physical addresses that contend in
//! the DRAM model exactly as the paper's do.
//!
//! Level numbering follows the hardware: level 4 = PML4 (root), 3 = PDPT,
//! 2 = PD, 1 = PT (leaf). The entry read at level *L* lives in the node of
//! level *L* and points to the node (or final frame) of level *L − 1*.

use ptw_types::addr::{PageSize, PhysAddr, PhysFrame, VirtPage, PAGES_PER_LARGE_PAGE};
use ptw_types::map::U64Map;

use crate::frames::FrameAllocator;

/// Size of one page-table entry in bytes.
pub const PTE_BYTES: u64 = 8;
/// Entries per page-table node (512 for 4 KiB nodes with 8 B entries).
pub const NODE_ENTRIES: usize = 512;

/// Error returned by [`PageTable::map`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MapError {
    /// The virtual page already has a mapping.
    AlreadyMapped(VirtPage),
}

impl std::fmt::Display for MapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapError::AlreadyMapped(p) => write!(f, "virtual page {:?} is already mapped", p),
        }
    }
}

impl std::error::Error for MapError {}

/// One interior node of the radix tree.
#[derive(Clone, Debug)]
struct Node {
    /// Physical frame this node occupies (its entries live at
    /// `frame.base() + index * PTE_BYTES`).
    frame: PhysFrame,
    /// Child node indices (interior levels) or leaf frames (level 1).
    children: Box<[Option<u64>; NODE_ENTRIES]>,
}

impl Node {
    fn new(frame: PhysFrame) -> Self {
        Node {
            frame,
            children: Box::new([None; NODE_ENTRIES]),
        }
    }
}

/// The full path a hardware walk would take for one virtual page.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalkPath {
    /// Physical address of the PTE read at each level; index 0 is level 4
    /// (root) and index 3 is level 1 (leaf).
    pub pte_addrs: [PhysAddr; 4],
    /// Frame of the node *at* each level (node whose entry is read);
    /// index 0 is the level-4 node (root frame).
    pub node_frames: [PhysFrame; 4],
    /// The final translation.
    pub frame: PhysFrame,
    /// Level whose entry is the leaf PTE: 1 for a 4 KiB mapping, 2 for a
    /// 2 MiB large-page mapping (the walk reads one fewer level). Slots
    /// below the leaf level in `pte_addrs`/`node_frames` are unused.
    pub leaf_level: u8,
}

impl WalkPath {
    /// PTE address read at page-table `level` (4 = root … 1 = leaf).
    ///
    /// # Panics
    ///
    /// Panics if `level` is not in `1..=4`.
    pub fn pte_addr(&self, level: u8) -> PhysAddr {
        assert!((1..=4).contains(&level));
        self.pte_addrs[(4 - level) as usize]
    }

    /// Frame of the child node reached *after* reading the entry at
    /// `level` — i.e. the value a PWC entry for `level` caches. For
    /// `level == leaf_level` this is the final translation frame; levels
    /// below the leaf have no child node (the PWC must not cache them).
    ///
    /// # Panics
    ///
    /// Panics if `level` is not in `leaf_level..=4`.
    pub fn child_frame(&self, level: u8) -> PhysFrame {
        assert!((self.leaf_level..=4).contains(&level));
        if level == self.leaf_level {
            self.frame
        } else {
            self.node_frames[(4 - level) as usize + 1]
        }
    }

    /// Page size of the mapping this path resolves.
    pub fn page_size(&self) -> PageSize {
        if self.leaf_level == 2 {
            PageSize::Large2M
        } else {
            PageSize::Base4K
        }
    }
}

/// A four-level page table.
///
/// ```
/// use ptw_pagetable::frames::{FrameAllocator, FrameLayout};
/// use ptw_pagetable::table::PageTable;
/// use ptw_types::addr::VirtPage;
///
/// let mut alloc = FrameAllocator::new(0x1000, 1 << 20, FrameLayout::Sequential);
/// let mut pt = PageTable::new(&mut alloc);
/// let page = VirtPage::new(0x7f1234);
/// let frame = alloc.alloc();
/// pt.map(page, frame, &mut alloc).unwrap();
/// assert_eq!(pt.translate(page), Some(frame));
/// let path = pt.walk_path(page).unwrap();
/// assert_eq!(path.frame, frame);
/// ```
#[derive(Debug)]
pub struct PageTable {
    nodes: Vec<Node>,
    /// Root node index (always 0).
    root: usize,
    mapped: U64Map<PhysFrame>,
    /// 2 MiB large-page leaves: large-region index → base frame of the
    /// 512-frame contiguous physical run backing the region.
    large: U64Map<PhysFrame>,
}

impl PageTable {
    /// Creates an empty page table, allocating a frame for the root node.
    pub fn new(alloc: &mut FrameAllocator) -> Self {
        let root_frame = alloc.alloc();
        PageTable {
            nodes: vec![Node::new(root_frame)],
            root: 0,
            mapped: U64Map::with_capacity(8),
            large: U64Map::with_capacity(8),
        }
    }

    /// Physical frame of the root (PML4) node — the CR3 value.
    pub fn root_frame(&self) -> PhysFrame {
        self.nodes[self.root].frame
    }

    /// Number of mapped virtual pages.
    pub fn mapped_pages(&self) -> usize {
        self.mapped.len()
    }

    /// Number of page-table nodes (all levels, including the root).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of 2 MiB large-page regions mapped via [`map_large`].
    ///
    /// [`map_large`]: PageTable::map_large
    pub fn large_regions(&self) -> usize {
        self.large.len()
    }

    /// Whether `page` is backed by a 2 MiB large-page leaf.
    pub fn is_large(&self, page: VirtPage) -> bool {
        self.large.get(page.large_index()).is_some()
    }

    /// Page size backing `page` (meaningful only for mapped pages;
    /// unmapped pages report [`PageSize::Base4K`]).
    pub fn page_size_of(&self, page: VirtPage) -> PageSize {
        if self.is_large(page) {
            PageSize::Large2M
        } else {
            PageSize::Base4K
        }
    }

    /// Maps `page` to `frame`, allocating interior nodes as needed.
    ///
    /// # Errors
    ///
    /// Returns [`MapError::AlreadyMapped`] if the page already has a
    /// translation.
    pub fn map(
        &mut self,
        page: VirtPage,
        frame: PhysFrame,
        alloc: &mut FrameAllocator,
    ) -> Result<(), MapError> {
        if self.mapped.get(page.raw()).is_some() || self.is_large(page) {
            return Err(MapError::AlreadyMapped(page));
        }
        let mut node = self.root;
        for level in [4u8, 3, 2] {
            let idx = page.table_index(level);
            let next = match self.nodes[node].children[idx] {
                Some(child) => child as usize,
                None => {
                    let child_frame = alloc.alloc();
                    self.nodes.push(Node::new(child_frame));
                    let child = self.nodes.len() - 1;
                    self.nodes[node].children[idx] = Some(child as u64);
                    child
                }
            };
            node = next;
        }
        let leaf_idx = page.table_index(1);
        debug_assert!(
            self.nodes[node].children[leaf_idx].is_none(),
            "leaf slot occupied but page not in mapped index"
        );
        self.nodes[node].children[leaf_idx] = Some(frame.raw());
        self.mapped.insert(page.raw(), frame);
        Ok(())
    }

    /// Maps the 2 MiB region containing `page` as a large-page leaf
    /// backed by the contiguous 512-frame physical run starting at
    /// `base_frame` (reserve it with
    /// [`FrameAllocator::alloc_contiguous`]). The level-2 (PD) entry
    /// becomes the leaf, so hardware walks terminate one level early.
    ///
    /// # Errors
    ///
    /// Returns [`MapError::AlreadyMapped`] if any 4 KiB page inside the
    /// region already has a translation (base or large).
    ///
    /// # Panics
    ///
    /// Panics if `page` is not 2 MiB-aligned.
    pub fn map_large(
        &mut self,
        page: VirtPage,
        base_frame: PhysFrame,
        alloc: &mut FrameAllocator,
    ) -> Result<(), MapError> {
        assert!(
            page.is_large_aligned(),
            "large mapping must start on a 2 MiB boundary: {page:?}"
        );
        if self.is_large(page) {
            return Err(MapError::AlreadyMapped(page));
        }
        for i in 0..PAGES_PER_LARGE_PAGE {
            if self.mapped.get(page.raw() + i).is_some() {
                return Err(MapError::AlreadyMapped(VirtPage::new(page.raw() + i)));
            }
        }
        let mut node = self.root;
        for level in [4u8, 3] {
            let idx = page.table_index(level);
            let next = match self.nodes[node].children[idx] {
                Some(child) => child as usize,
                None => {
                    let child_frame = alloc.alloc();
                    self.nodes.push(Node::new(child_frame));
                    let child = self.nodes.len() - 1;
                    self.nodes[node].children[idx] = Some(child as u64);
                    child
                }
            };
            node = next;
        }
        let pd_idx = page.table_index(2);
        debug_assert!(
            self.nodes[node].children[pd_idx].is_none(),
            "PD slot occupied but no page in the region is mapped"
        );
        // The PD entry holds the base frame of the large leaf. It is never
        // followed as a node index: `map` and `walk_path` consult the
        // `large` map before descending past level 3.
        self.nodes[node].children[pd_idx] = Some(base_frame.raw());
        for i in 0..PAGES_PER_LARGE_PAGE {
            self.mapped
                .insert(page.raw() + i, PhysFrame::new(base_frame.raw() + i));
        }
        self.large.insert(page.large_index(), base_frame);
        Ok(())
    }

    /// Looks up the translation for `page` without modelling the walk.
    pub fn translate(&self, page: VirtPage) -> Option<PhysFrame> {
        self.mapped.get(page.raw())
    }

    /// Returns the full hardware walk path for `page`, or `None` if the
    /// page is unmapped. A page inside a large-page region yields a
    /// three-read path terminating at the level-2 leaf.
    pub fn walk_path(&self, page: VirtPage) -> Option<WalkPath> {
        let large_base = self.large.get(page.large_index());
        let mut node = self.root;
        let mut pte_addrs = [PhysAddr::new(0); 4];
        let mut node_frames = [PhysFrame::new(0); 4];
        for (i, level) in [4u8, 3].into_iter().enumerate() {
            let idx = page.table_index(level);
            node_frames[i] = self.nodes[node].frame;
            pte_addrs[i] = self.nodes[node].frame.addr_at(idx as u64 * PTE_BYTES);
            node = self.nodes[node].children[idx]? as usize;
        }
        let pd_idx = page.table_index(2);
        node_frames[2] = self.nodes[node].frame;
        pte_addrs[2] = self.nodes[node].frame.addr_at(pd_idx as u64 * PTE_BYTES);
        if let Some(base) = large_base {
            // The level-2 entry is the leaf: the walk stops here.
            let frame = PhysFrame::new(base.raw() + page.large_offset());
            return Some(WalkPath {
                pte_addrs,
                node_frames,
                frame,
                leaf_level: 2,
            });
        }
        node = self.nodes[node].children[pd_idx]? as usize;
        let leaf_idx = page.table_index(1);
        node_frames[3] = self.nodes[node].frame;
        pte_addrs[3] = self.nodes[node].frame.addr_at(leaf_idx as u64 * PTE_BYTES);
        let frame = PhysFrame::new(self.nodes[node].children[leaf_idx]?);
        Some(WalkPath {
            pte_addrs,
            node_frames,
            frame,
            leaf_level: 1,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frames::FrameLayout;

    fn setup() -> (FrameAllocator, PageTable) {
        let mut alloc = FrameAllocator::new(0x1000, 1 << 22, FrameLayout::Sequential);
        let pt = PageTable::new(&mut alloc);
        (alloc, pt)
    }

    #[test]
    fn map_translate_round_trip() {
        let (mut alloc, mut pt) = setup();
        let page = VirtPage::new(0xabc_def0);
        let frame = alloc.alloc();
        pt.map(page, frame, &mut alloc).unwrap();
        assert_eq!(pt.translate(page), Some(frame));
        assert_eq!(pt.translate(VirtPage::new(1)), None);
    }

    #[test]
    fn double_map_is_an_error() {
        let (mut alloc, mut pt) = setup();
        let page = VirtPage::new(7);
        let f = alloc.alloc();
        pt.map(page, f, &mut alloc).unwrap();
        assert_eq!(
            pt.map(page, f, &mut alloc),
            Err(MapError::AlreadyMapped(page))
        );
    }

    #[test]
    fn walk_path_touches_four_distinct_nodes() {
        let (mut alloc, mut pt) = setup();
        let page = VirtPage::new(0x12_3456);
        let f = alloc.alloc();
        pt.map(page, f, &mut alloc).unwrap();
        let path = pt.walk_path(page).unwrap();
        // Root must be first.
        assert_eq!(path.node_frames[0], pt.root_frame());
        // All node frames distinct (fresh tree).
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert_ne!(path.node_frames[i], path.node_frames[j]);
            }
        }
        assert_eq!(path.frame, f);
    }

    #[test]
    fn pte_addresses_match_indices() {
        let (mut alloc, mut pt) = setup();
        let page = VirtPage::new((3 << 27) | (1 << 18) | (4 << 9) | 5);
        let f = alloc.alloc();
        pt.map(page, f, &mut alloc).unwrap();
        let path = pt.walk_path(page).unwrap();
        assert_eq!(path.pte_addr(4), pt.root_frame().addr_at(3 * PTE_BYTES));
        // Leaf PTE is at index 5 in the level-1 node.
        assert_eq!(path.pte_addr(1).page_offset(), 5 * PTE_BYTES);
    }

    #[test]
    fn neighbouring_pages_share_interior_nodes() {
        let (mut alloc, mut pt) = setup();
        let a = VirtPage::new(0x1000);
        let b = VirtPage::new(0x1001);
        let fa = alloc.alloc();
        let fb = alloc.alloc();
        pt.map(a, fa, &mut alloc).unwrap();
        let nodes_after_a = pt.node_count();
        pt.map(b, fb, &mut alloc).unwrap();
        // Same 2 MiB region: no new nodes needed.
        assert_eq!(pt.node_count(), nodes_after_a);
        let pa = pt.walk_path(a).unwrap();
        let pb = pt.walk_path(b).unwrap();
        assert_eq!(pa.node_frames, pb.node_frames);
        assert_ne!(pa.pte_addr(1), pb.pte_addr(1));
    }

    #[test]
    fn distant_pages_diverge_at_the_root() {
        let (mut alloc, mut pt) = setup();
        let a = VirtPage::new(0);
        let b = VirtPage::new(1 << 27); // different PML4 entry
        let fa = alloc.alloc();
        let fb = alloc.alloc();
        pt.map(a, fa, &mut alloc).unwrap();
        pt.map(b, fb, &mut alloc).unwrap();
        let pa = pt.walk_path(a).unwrap();
        let pb = pt.walk_path(b).unwrap();
        assert_eq!(pa.node_frames[0], pb.node_frames[0]); // shared root
        assert_ne!(pa.node_frames[1], pb.node_frames[1]);
    }

    #[test]
    fn child_frame_matches_next_node() {
        let (mut alloc, mut pt) = setup();
        let page = VirtPage::new(0x42_4242);
        let f = alloc.alloc();
        pt.map(page, f, &mut alloc).unwrap();
        let path = pt.walk_path(page).unwrap();
        assert_eq!(path.child_frame(4), path.node_frames[1]);
        assert_eq!(path.child_frame(3), path.node_frames[2]);
        assert_eq!(path.child_frame(2), path.node_frames[3]);
        assert_eq!(path.child_frame(1), f);
    }

    #[test]
    fn walk_path_unmapped_is_none() {
        let (_alloc, pt) = setup();
        assert!(pt.walk_path(VirtPage::new(99)).is_none());
    }

    #[test]
    fn map_large_round_trips_every_subpage() {
        let (mut alloc, mut pt) = setup();
        let page = VirtPage::new(2 << 9); // 2 MiB-aligned (large_offset == 0)
        let base = alloc.alloc_contiguous(PAGES_PER_LARGE_PAGE);
        pt.map_large(page, base, &mut alloc).unwrap();
        assert!(pt.is_large(page));
        assert_eq!(pt.large_regions(), 1);
        assert_eq!(pt.page_size_of(page), PageSize::Large2M);
        for i in [0u64, 1, 255, 511] {
            let p = VirtPage::new(page.raw() + i);
            assert_eq!(pt.translate(p), Some(PhysFrame::new(base.raw() + i)));
        }
    }

    #[test]
    fn large_walk_path_has_three_levels() {
        let (mut alloc, mut pt) = setup();
        let page = VirtPage::new(7 << 9);
        let base = alloc.alloc_contiguous(PAGES_PER_LARGE_PAGE);
        pt.map_large(page, base, &mut alloc).unwrap();
        let inner = VirtPage::new(page.raw() + 42);
        let path = pt.walk_path(inner).unwrap();
        assert_eq!(path.leaf_level, 2);
        assert_eq!(path.page_size(), PageSize::Large2M);
        assert_eq!(path.frame, PhysFrame::new(base.raw() + 42));
        assert_eq!(path.node_frames[0], pt.root_frame());
        // Three distinct node frames, rooted at CR3; the level-1 slot is
        // unused.
        for i in 0..3 {
            for j in (i + 1)..3 {
                assert_ne!(path.node_frames[i], path.node_frames[j]);
            }
        }
        // The leaf PTE is the level-2 entry; child_frame at the leaf is
        // the final translation.
        assert_eq!(
            path.pte_addr(2),
            path.node_frames[2].addr_at(inner.table_index(2) as u64 * PTE_BYTES)
        );
        assert_eq!(path.child_frame(2), path.frame);
    }

    #[test]
    fn large_and_base_mappings_conflict() {
        let (mut alloc, mut pt) = setup();
        let page = VirtPage::new(3 << 9);
        let f = alloc.alloc();
        pt.map(VirtPage::new(page.raw() + 5), f, &mut alloc)
            .unwrap();
        let base = alloc.alloc_contiguous(PAGES_PER_LARGE_PAGE);
        // A 4K page inside the region blocks the large mapping…
        assert!(matches!(
            pt.map_large(page, base, &mut alloc),
            Err(MapError::AlreadyMapped(_))
        ));
        // …and a large mapping blocks later 4K maps inside it.
        let other = VirtPage::new(9 << 9);
        pt.map_large(other, base, &mut alloc).unwrap();
        assert_eq!(
            pt.map(VirtPage::new(other.raw() + 100), f, &mut alloc),
            Err(MapError::AlreadyMapped(VirtPage::new(other.raw() + 100)))
        );
        assert_eq!(
            pt.map_large(other, base, &mut alloc),
            Err(MapError::AlreadyMapped(other))
        );
    }

    #[test]
    fn large_region_coexists_with_neighbouring_base_pages() {
        let (mut alloc, mut pt) = setup();
        let base = alloc.alloc_contiguous(PAGES_PER_LARGE_PAGE);
        let large = VirtPage::new(4 << 9);
        let small = VirtPage::new((5 << 9) + 3); // next 2 MiB region
        let f = alloc.alloc();
        pt.map_large(large, base, &mut alloc).unwrap();
        pt.map(small, f, &mut alloc).unwrap();
        assert!(pt.is_large(large));
        assert!(!pt.is_large(small));
        let pl = pt.walk_path(VirtPage::new(large.raw() + 1)).unwrap();
        let ps = pt.walk_path(small).unwrap();
        assert_eq!(pl.leaf_level, 2);
        assert_eq!(ps.leaf_level, 1);
        // Same PD node (adjacent regions), different PD entries.
        assert_eq!(pl.node_frames[2], ps.node_frames[2]);
        assert_ne!(pl.pte_addr(2), ps.pte_addr(2));
        assert_eq!(ps.frame, f);
    }

    #[test]
    fn large_mapping_count_node_growth_is_sublinear() {
        let (mut alloc, mut pt) = setup();
        // 10_000 consecutive pages ≈ 40 MB: should need ~20 leaf nodes,
        // not thousands.
        for i in 0..10_000u64 {
            let f = alloc.alloc();
            pt.map(VirtPage::new(0x10_0000 + i), f, &mut alloc).unwrap();
        }
        assert_eq!(pt.mapped_pages(), 10_000);
        assert!(pt.node_count() < 30, "node count {}", pt.node_count());
    }
}

#[cfg(test)]
mod randomized {
    //! Randomized invariant tests driven by the in-tree `SplitMix64`.

    use super::*;
    use crate::frames::{FrameAllocator, FrameLayout};
    use ptw_types::rng::SplitMix64;
    use std::collections::{HashMap, HashSet};

    fn random_vpns(rng: &mut SplitMix64, bits: u32, max: usize) -> HashSet<u64> {
        let n = 1 + rng.index(max - 1);
        let mut vpns = HashSet::new();
        while vpns.len() < n {
            vpns.insert(rng.next_below(1 << bits));
        }
        vpns
    }

    /// Mapping arbitrary distinct pages: every translation round-trips and
    /// the hardware walk path agrees with the functional lookup.
    #[test]
    fn map_translate_walk_agree() {
        let mut rng = SplitMix64::new(0x7AB1E);
        for _ in 0..32 {
            let vpns = random_vpns(&mut rng, 36, 64);
            let mut alloc = FrameAllocator::new(0x1000, 1 << 22, FrameLayout::Sequential);
            let mut pt = PageTable::new(&mut alloc);
            let mut expected = HashMap::new();
            for &vpn in &vpns {
                let frame = alloc.alloc();
                pt.map(VirtPage::new(vpn), frame, &mut alloc).unwrap();
                expected.insert(vpn, frame);
            }
            assert_eq!(pt.mapped_pages(), vpns.len());
            for (&vpn, &frame) in &expected {
                let page = VirtPage::new(vpn);
                assert_eq!(pt.translate(page), Some(frame));
                let path = pt.walk_path(page).expect("mapped");
                assert_eq!(path.frame, frame);
                // The four PTE reads live in four distinct frames, rooted
                // at CR3.
                assert_eq!(path.node_frames[0], pt.root_frame());
                for level in 1..=4u8 {
                    let pte = path.pte_addr(level);
                    assert_eq!(pte.frame(), path.node_frames[(4 - level) as usize]);
                }
            }
        }
    }

    /// Node count is bounded by the radix-tree structure: at most 1 root +
    /// 3 interior nodes per mapped page (and at least the depth of one
    /// path).
    #[test]
    fn node_count_is_bounded() {
        let mut rng = SplitMix64::new(0xB0B);
        for _ in 0..32 {
            let vpns = random_vpns(&mut rng, 30, 40);
            let mut alloc = FrameAllocator::new(0x1000, 1 << 22, FrameLayout::Sequential);
            let mut pt = PageTable::new(&mut alloc);
            for &vpn in &vpns {
                let frame = alloc.alloc();
                pt.map(VirtPage::new(vpn), frame, &mut alloc).unwrap();
            }
            assert!(pt.node_count() >= 4);
            assert!(pt.node_count() <= 1 + 3 * vpns.len());
        }
    }
}
