//! Process address-space construction for workloads.
//!
//! Workloads declare the buffers their kernels touch (matrices, vectors,
//! lookup tables); [`AddressSpace`] lays them out in virtual memory with
//! guard gaps and eagerly maps every page, mirroring the pre-touched heaps
//! the paper's gem5 runs walk. It also offers the data-path translation
//! (`translate_data`) used to turn virtual lane addresses into physical
//! line addresses once the TLB lookup has (functionally) succeeded.

use ptw_types::addr::{PhysAddr, PhysFrame, VirtAddr, VirtPage, PAGES_PER_LARGE_PAGE, PAGE_SIZE};
use ptw_types::map::U64Map;

use crate::frames::FrameAllocator;
use crate::table::PageTable;

/// Base of the workload heap (an arbitrary canonical user-space address).
pub const HEAP_BASE: u64 = 0x7f00_0000_0000;
/// Guard gap between buffers, in pages, so off-by-one strides fault loudly
/// instead of silently touching a neighbouring buffer.
pub const GUARD_PAGES: u64 = 16;

/// A named, page-aligned virtual buffer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Buffer {
    /// Human-readable name (for diagnostics).
    pub name: String,
    /// First virtual address of the buffer.
    pub base: VirtAddr,
    /// Length in bytes (rounded up to whole pages when mapped).
    pub len: u64,
}

impl Buffer {
    /// The virtual address `offset` bytes into the buffer.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `offset >= len`.
    pub fn at(&self, offset: u64) -> VirtAddr {
        debug_assert!(
            offset < self.len,
            "offset {offset} out of buffer {}",
            self.name
        );
        self.base + offset
    }

    /// Number of pages the buffer spans.
    pub fn pages(&self) -> u64 {
        self.len.div_ceil(PAGE_SIZE as u64)
    }
}

/// A set of 2 MiB regions to promote to large-page leaves, each backed by
/// a contiguous 512-frame physical run reserved up front with
/// [`FrameAllocator::alloc_contiguous`].
///
/// Scrambled-layout allocators require every contiguous run to be reserved
/// before the first single-frame allocation (including the page-table
/// root), so promotion is planned in two passes: [`plan_buffer_bases`] +
/// [`eligible_large_regions`] decide *which* regions promote before any
/// frame is handed out, runs are reserved, and the resulting plan is
/// passed to [`AddressSpace::alloc_buffer_promoted`].
#[derive(Clone, Debug, Default)]
pub struct LargePagePlan {
    /// Large-region index → base frame of the reserved run.
    regions: U64Map<PhysFrame>,
}

impl LargePagePlan {
    /// Registers the region starting at 2 MiB-aligned `start` as promoted,
    /// backed by the run beginning at `base`.
    ///
    /// # Panics
    ///
    /// Panics if `start` is not 2 MiB-aligned.
    pub fn insert(&mut self, start: VirtPage, base: PhysFrame) {
        assert!(start.is_large_aligned(), "plan region {start:?} unaligned");
        self.regions.insert(start.large_index(), base);
    }

    /// The reserved run base backing `page`'s region, if promoted.
    pub fn base_of(&self, page: VirtPage) -> Option<PhysFrame> {
        self.regions.get(page.large_index())
    }

    /// Number of promoted regions in the plan.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// Whether the plan promotes no regions.
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }
}

/// Base virtual addresses [`AddressSpace::alloc_buffer`] will assign to a
/// sequence of buffers with the given byte lengths, without building
/// anything — the planning half of the two-pass promotion flow.
pub fn plan_buffer_bases(lens: &[u64]) -> Vec<VirtAddr> {
    let mut next_va = HEAP_BASE;
    lens.iter()
        .map(|&len| {
            assert!(len > 0, "zero-length buffer in layout plan");
            let base = VirtAddr::new(next_va);
            let pages = len.div_ceil(PAGE_SIZE as u64);
            next_va += (pages + GUARD_PAGES) * PAGE_SIZE as u64;
            base
        })
        .collect()
}

/// The 2 MiB-aligned region start pages fully covered by a buffer at
/// `base` spanning `len` bytes — its large-page promotion candidates, in
/// ascending VA order.
pub fn eligible_large_regions(base: VirtAddr, len: u64) -> Vec<VirtPage> {
    let first = base.page().raw();
    let pages = len.div_ceil(PAGE_SIZE as u64);
    let mut out = Vec::new();
    // First 2 MiB boundary at or after the buffer start.
    let mut start = first.next_multiple_of(PAGES_PER_LARGE_PAGE);
    while start + PAGES_PER_LARGE_PAGE <= first + pages {
        out.push(VirtPage::new(start));
        start += PAGES_PER_LARGE_PAGE;
    }
    out
}

/// A fully mapped process address space.
///
/// ```
/// use ptw_pagetable::frames::{FrameAllocator, FrameLayout};
/// use ptw_pagetable::space::AddressSpace;
///
/// let mut alloc = FrameAllocator::new(0x1000, 1 << 22, FrameLayout::Sequential);
/// let mut space = AddressSpace::new(&mut alloc);
/// let buf = space.alloc_buffer("A", 3 * 4096 + 5, &mut alloc);
/// assert_eq!(buf.pages(), 4);
/// assert!(space.table().translate(buf.base.page()).is_some());
/// ```
#[derive(Debug)]
pub struct AddressSpace {
    table: PageTable,
    next_va: u64,
    buffers: Vec<Buffer>,
}

impl AddressSpace {
    /// Creates an empty address space with a fresh page table.
    pub fn new(alloc: &mut FrameAllocator) -> Self {
        AddressSpace {
            table: PageTable::new(alloc),
            next_va: HEAP_BASE,
            buffers: Vec::new(),
        }
    }

    /// Allocates and eagerly maps a buffer of `len` bytes with 4 KiB pages.
    ///
    /// # Panics
    ///
    /// Panics if physical memory is exhausted.
    pub fn alloc_buffer(&mut self, name: &str, len: u64, alloc: &mut FrameAllocator) -> Buffer {
        // An empty plan never allocates (`U64Map::default` is lazy) and takes
        // the exact 4 KiB mapping path below.
        self.alloc_buffer_promoted(name, len, alloc, &LargePagePlan::default())
    }

    /// Allocates and eagerly maps a buffer of `len` bytes, promoting the
    /// 2 MiB regions listed in `plan` to large-page leaves. Regions in the
    /// plan must have been reserved with
    /// [`FrameAllocator::alloc_contiguous`] beforehand; pages outside any
    /// planned region are mapped with individually allocated 4 KiB frames
    /// in exactly the order [`alloc_buffer`](Self::alloc_buffer) would use.
    ///
    /// # Panics
    ///
    /// Panics if physical memory is exhausted.
    pub fn alloc_buffer_promoted(
        &mut self,
        name: &str,
        len: u64,
        alloc: &mut FrameAllocator,
        plan: &LargePagePlan,
    ) -> Buffer {
        assert!(len > 0, "zero-length buffer {name}");
        let base = VirtAddr::new(self.next_va);
        let pages = len.div_ceil(PAGE_SIZE as u64);
        let mut i = 0;
        while i < pages {
            let page = VirtPage::new(base.page().raw() + i);
            if page.is_large_aligned() && i + PAGES_PER_LARGE_PAGE <= pages {
                if let Some(run_base) = plan.base_of(page) {
                    self.table
                        .map_large(page, run_base, alloc)
                        .expect("fresh VA range cannot be double-mapped");
                    i += PAGES_PER_LARGE_PAGE;
                    continue;
                }
            }
            let frame = alloc.alloc();
            self.table
                .map(page, frame, alloc)
                .expect("fresh VA range cannot be double-mapped");
            i += 1;
        }
        self.next_va += (pages + GUARD_PAGES) * PAGE_SIZE as u64;
        let buf = Buffer {
            name: name.to_owned(),
            base,
            len,
        };
        self.buffers.push(buf.clone());
        buf
    }

    /// The underlying page table.
    pub fn table(&self) -> &PageTable {
        &self.table
    }

    /// All buffers allocated so far.
    pub fn buffers(&self) -> &[Buffer] {
        &self.buffers
    }

    /// Total mapped data footprint in bytes (whole pages, excluding
    /// page-table nodes) — the quantity Table II reports.
    pub fn footprint_bytes(&self) -> u64 {
        self.buffers
            .iter()
            .map(|b| b.pages() * PAGE_SIZE as u64)
            .sum()
    }

    /// Functional (zero-time) translation of a data virtual address.
    ///
    /// # Panics
    ///
    /// Panics if the address is unmapped — workloads only touch buffers
    /// they allocated, so an unmapped access is a generator bug.
    pub fn translate_data(&self, va: VirtAddr) -> PhysAddr {
        let frame = self
            .table
            .translate(va.page())
            .unwrap_or_else(|| panic!("unmapped data access at {va}"));
        frame.addr_at(va.page_offset())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frames::FrameLayout;

    fn space() -> (FrameAllocator, AddressSpace) {
        let mut alloc = FrameAllocator::new(0x1000, 1 << 22, FrameLayout::Sequential);
        let s = AddressSpace::new(&mut alloc);
        (alloc, s)
    }

    #[test]
    fn buffers_do_not_overlap() {
        let (mut alloc, mut s) = space();
        let a = s.alloc_buffer("a", 10 * 4096, &mut alloc);
        let b = s.alloc_buffer("b", 4096, &mut alloc);
        assert!(b.base.raw() >= a.base.raw() + a.len + GUARD_PAGES * 4096);
    }

    #[test]
    fn every_page_is_mapped() {
        let (mut alloc, mut s) = space();
        let a = s.alloc_buffer("a", 5 * 4096, &mut alloc);
        for i in 0..5 {
            let va = a.at(i * 4096);
            assert!(s.table().translate(va.page()).is_some());
        }
    }

    #[test]
    fn translate_data_preserves_offset() {
        let (mut alloc, mut s) = space();
        let a = s.alloc_buffer("a", 4096, &mut alloc);
        let va = a.at(123);
        let pa = s.translate_data(va);
        assert_eq!(pa.page_offset(), 123);
    }

    #[test]
    #[should_panic]
    fn unmapped_translation_panics() {
        let (_alloc, s) = space();
        s.translate_data(VirtAddr::new(0x1000));
    }

    #[test]
    fn footprint_counts_whole_pages() {
        let (mut alloc, mut s) = space();
        s.alloc_buffer("a", 4097, &mut alloc);
        assert_eq!(s.footprint_bytes(), 2 * 4096);
    }

    #[test]
    fn plan_buffer_bases_matches_alloc_buffer() {
        let (mut alloc, mut s) = space();
        let lens = [10 * 4096u64, 4097, 4096];
        let planned = plan_buffer_bases(&lens);
        for (i, &len) in lens.iter().enumerate() {
            let b = s.alloc_buffer("x", len, &mut alloc);
            assert_eq!(b.base, planned[i]);
        }
    }

    #[test]
    fn eligible_regions_require_full_coverage() {
        // HEAP_BASE is 2 MiB-aligned, so a buffer there is region-aligned.
        let base = VirtAddr::new(HEAP_BASE);
        let two_mb = PAGES_PER_LARGE_PAGE * PAGE_SIZE as u64;
        assert_eq!(eligible_large_regions(base, 2 * two_mb).len(), 2);
        // Lengths round up to whole pages, so one byte short still covers
        // both regions; one *page* short leaves only the first eligible.
        assert_eq!(eligible_large_regions(base, 2 * two_mb - 1).len(), 2);
        assert_eq!(eligible_large_regions(base, 2 * two_mb - 4096).len(), 1);
        // Unaligned start: the partial leading region is skipped.
        let off = VirtAddr::new(HEAP_BASE + 4096);
        assert_eq!(eligible_large_regions(off, 2 * two_mb).len(), 1);
        assert_eq!(
            eligible_large_regions(off, 2 * two_mb)[0],
            VirtPage::new(base.page().raw() + PAGES_PER_LARGE_PAGE)
        );
    }

    #[test]
    fn promoted_buffer_mixes_large_and_base_pages() {
        let mut alloc = FrameAllocator::new(0x1000, 1 << 24, FrameLayout::Sequential);
        let two_mb = PAGES_PER_LARGE_PAGE * PAGE_SIZE as u64;
        let len = 2 * two_mb + 3 * 4096; // two regions + 3 tail pages
        let bases = plan_buffer_bases(&[len]);
        let regions = eligible_large_regions(bases[0], len);
        assert_eq!(regions.len(), 2);
        // Promote only the second region.
        let mut plan = LargePagePlan::default();
        let run = alloc.alloc_contiguous(PAGES_PER_LARGE_PAGE);
        plan.insert(regions[1], run);
        let mut s = AddressSpace::new(&mut alloc);
        let buf = s.alloc_buffer_promoted("m", len, &mut alloc, &plan);
        assert_eq!(buf.base, bases[0]);
        assert_eq!(s.table().large_regions(), 1);
        assert!(!s.table().is_large(buf.base.page()));
        assert!(s.table().is_large(regions[1]));
        // Every page still translates, and offsets inside the large region
        // land in the reserved run.
        let inside = regions[1].raw() + 17 - buf.base.page().raw();
        let pa = s.translate_data(buf.at(inside * 4096 + 5));
        assert_eq!(pa.frame(), PhysFrame::new(run.raw() + 17));
        let tail = s.translate_data(buf.at(len - 1));
        assert!(tail.frame().raw() < run.raw()); // tail pages use singles
    }

    #[test]
    fn distinct_buffers_translate_to_distinct_frames() {
        let (mut alloc, mut s) = space();
        let a = s.alloc_buffer("a", 4096, &mut alloc);
        let b = s.alloc_buffer("b", 4096, &mut alloc);
        assert_ne!(
            s.translate_data(a.base).frame(),
            s.translate_data(b.base).frame()
        );
    }
}
