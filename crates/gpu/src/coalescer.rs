//! The hardware memory-access coalescer.
//!
//! When a wavefront executes a SIMD memory instruction, each active lane
//! produces a virtual address. The coalescer merges lanes that fall on the
//! same cache line into one cache access, and lanes that fall on the same
//! 4 KiB page into one address-translation request (Section II: "a hardware
//! coalescer combines these requests into single cache access"; "This is
//! exploited by a hardware coalescer to lookup the TLB only once for such
//! same page accesses").
//!
//! For a regular (unit-stride) instruction the 64 lanes collapse to a
//! handful of lines on one page; for a fully divergent instruction nothing
//! collapses and the instruction needs up to 64 translations — the memory
//! access divergence that drives the whole paper.

use ptw_types::addr::{VirtAddr, VirtPage, LINE_SHIFT, LINE_SIZE};

/// The coalesced form of one SIMD memory instruction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoalesceResult {
    /// Unique pages touched, in order of first appearance — one address
    /// translation request each.
    pub pages: Vec<VirtPage>,
    /// Unique cache lines touched (line-aligned virtual addresses), in
    /// order of first appearance — one cache access each.
    pub lines: Vec<VirtAddr>,
}

impl CoalesceResult {
    /// Degree of translation divergence: unique pages per instruction.
    pub fn page_divergence(&self) -> usize {
        self.pages.len()
    }

    /// Degree of cache-access divergence: unique lines per instruction.
    pub fn line_divergence(&self) -> usize {
        self.lines.len()
    }
}

/// Coalesces the per-lane addresses of one SIMD instruction.
///
/// # Panics
///
/// Panics if `addrs` is empty — an instruction with no active lanes never
/// reaches the memory pipeline.
pub fn coalesce(addrs: &[VirtAddr]) -> CoalesceResult {
    let mut pages: Vec<VirtPage> = Vec::new();
    let mut lines: Vec<VirtAddr> = Vec::new();
    coalesce_split(addrs, &mut pages, &mut lines);
    CoalesceResult { pages, lines }
}

/// Slots of one dedup table: twice the keys it holds, so probe runs stay
/// short and always end at an empty slot.
const TABLE_SLOTS: usize = 256;

/// Unique keys a dedup table indexes. Keys past this many (instructions
/// with more than 128 distinct pages or lines) are found by scanning the
/// output's un-indexed tail; at 64 lanes the tail is always empty.
const TABLE_KEYS: usize = TABLE_SLOTS / 2;

/// An open-addressed, stack-allocated set over one instruction's unique
/// keys. Slots hold `index + 1` into the output vector (0 = empty), so the
/// output stays the one copy of each key and keeps first-appearance order.
struct Dedup {
    slots: [u8; TABLE_SLOTS],
}

impl Dedup {
    fn new() -> Self {
        Dedup {
            slots: [0; TABLE_SLOTS],
        }
    }

    /// Whether `key` (whose hash input is `raw`) is missing from `out`, the
    /// unique keys so far. A new key is indexed before returning `true`;
    /// the caller then pushes it, at index `out.len()`.
    #[inline]
    fn is_new<T: Copy + PartialEq>(&mut self, out: &[T], key: T, raw: u64) -> bool {
        // The multiply of `U64Map`'s hash; its top byte picks the home slot.
        let mut i = (raw.wrapping_mul(0xf135_7aea_2e62_a9c5) >> 56) as usize;
        while self.slots[i] != 0 {
            if out[self.slots[i] as usize - 1] == key {
                return false;
            }
            i = (i + 1) % TABLE_SLOTS;
        }
        if out
            .get(TABLE_KEYS..)
            .is_some_and(|tail| tail.contains(&key))
        {
            return false;
        }
        if out.len() < TABLE_KEYS {
            self.slots[i] = out.len() as u8 + 1;
        }
        true
    }
}

/// Allocation-free form of [`coalesce`]: writes the unique pages and lines
/// into caller-provided buffers (cleared first), so a simulator issuing one
/// instruction per event can recycle the same two buffers forever.
///
/// Each lane's page and line is checked against a small hash table on the
/// stack (`Dedup`) instead of scanning the keys found so far, so a
/// divergent 64-lane instruction costs 64 probes per kind rather than
/// about 2,000 comparisons.
///
/// # Panics
///
/// Panics if `addrs` is empty — an instruction with no active lanes never
/// reaches the memory pipeline.
pub fn coalesce_split(addrs: &[VirtAddr], pages: &mut Vec<VirtPage>, lines: &mut Vec<VirtAddr>) {
    assert!(!addrs.is_empty(), "memory instruction with no active lanes");
    pages.clear();
    lines.clear();
    let (mut seen_pages, mut seen_lines) = (Dedup::new(), Dedup::new());
    for &a in addrs {
        let page = a.page();
        if seen_pages.is_new(pages, page, page.raw()) {
            pages.push(page);
        }
        let line = VirtAddr::new(a.raw() & !(LINE_SIZE as u64 - 1));
        if seen_lines.is_new(lines, line, line.raw() >> LINE_SHIFT) {
            lines.push(line);
        }
    }
}

/// The quadratic dedup [`coalesce_split`] replaced, kept as the reference
/// its randomized test compares against.
#[cfg(test)]
fn coalesce_split_reference(
    addrs: &[VirtAddr],
    pages: &mut Vec<VirtPage>,
    lines: &mut Vec<VirtAddr>,
) {
    assert!(!addrs.is_empty(), "memory instruction with no active lanes");
    pages.clear();
    lines.clear();
    for &a in addrs {
        let page = a.page();
        if !pages.contains(&page) {
            pages.push(page);
        }
        let line = VirtAddr::new(a.raw() & !(LINE_SIZE as u64 - 1));
        if !lines.contains(&line) {
            lines.push(line);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptw_types::addr::PAGE_SIZE;

    #[test]
    fn unit_stride_collapses_to_one_page() {
        // 64 lanes × 8-byte elements, consecutive: 512 bytes = 8 lines,
        // 1 page.
        let addrs: Vec<VirtAddr> = (0..64).map(|l| VirtAddr::new(0x10_0000 + l * 8)).collect();
        let r = coalesce(&addrs);
        assert_eq!(r.page_divergence(), 1);
        assert_eq!(r.line_divergence(), 8);
    }

    #[test]
    fn page_strided_lanes_fully_diverge() {
        // Lane l accesses base + l * 32 KiB: 64 pages, 64 lines.
        let addrs: Vec<VirtAddr> = (0..64)
            .map(|l| VirtAddr::new(0x10_0000 + l * 32 * 1024))
            .collect();
        let r = coalesce(&addrs);
        assert_eq!(r.page_divergence(), 64);
        assert_eq!(r.line_divergence(), 64);
    }

    #[test]
    fn duplicate_addresses_coalesce_fully() {
        let addrs = vec![VirtAddr::new(64); 16];
        let r = coalesce(&addrs);
        assert_eq!(r.page_divergence(), 1);
        assert_eq!(r.line_divergence(), 1);
    }

    #[test]
    fn same_page_different_lines() {
        let addrs: Vec<VirtAddr> = (0..4).map(|l| VirtAddr::new(l * 1024)).collect();
        let r = coalesce(&addrs);
        assert_eq!(r.page_divergence(), 1);
        assert_eq!(r.line_divergence(), 4);
    }

    #[test]
    fn order_of_first_appearance_is_preserved() {
        let addrs = vec![
            VirtAddr::new(3 * PAGE_SIZE as u64),
            VirtAddr::new(PAGE_SIZE as u64),
            VirtAddr::new(3 * PAGE_SIZE as u64 + 8),
        ];
        let r = coalesce(&addrs);
        assert_eq!(r.pages, vec![VirtPage::new(3), VirtPage::new(1)]);
    }

    #[test]
    #[should_panic]
    fn empty_lanes_panic() {
        coalesce(&[]);
    }

    #[test]
    fn split_form_matches_and_clears_stale_contents() {
        let mut pages = vec![VirtPage::new(999)];
        let mut lines = vec![VirtAddr::new(999 * 64)];
        for base in [0u64, 0x10_0000, 0x20_0000] {
            let addrs: Vec<VirtAddr> = (0..16).map(|l| VirtAddr::new(base + l * 8)).collect();
            coalesce_split(&addrs, &mut pages, &mut lines);
            let r = coalesce(&addrs);
            assert_eq!(pages, r.pages);
            assert_eq!(lines, r.lines);
        }
    }
}

#[cfg(test)]
mod randomized {
    //! Randomized invariant tests driven by the in-tree `SplitMix64`.

    use super::*;
    use ptw_types::rng::SplitMix64;
    use std::collections::HashSet;

    fn random_addrs(rng: &mut SplitMix64, max: usize) -> Vec<u64> {
        (0..(1 + rng.index(max - 1)))
            .map(|_| rng.next_below(1 << 24))
            .collect()
    }

    /// Unique pages/lines out never exceed lanes in, and exactly match the
    /// set-wise unique counts.
    #[test]
    fn counts_match_sets() {
        let mut rng = SplitMix64::new(0xC0A1);
        for _ in 0..64 {
            let raw = random_addrs(&mut rng, 128);
            let addrs: Vec<VirtAddr> = raw.iter().map(|&a| VirtAddr::new(a)).collect();
            let r = coalesce(&addrs);
            let page_set: HashSet<u64> = raw.iter().map(|a| a >> 12).collect();
            let line_set: HashSet<u64> = raw.iter().map(|a| a >> 6).collect();
            assert_eq!(r.page_divergence(), page_set.len());
            assert_eq!(r.line_divergence(), line_set.len());
            assert!(r.page_divergence() <= addrs.len());
            // A page holds at least one touched line.
            assert!(r.page_divergence() <= r.line_divergence());
        }
    }

    /// Every returned line is line-aligned and belongs to a returned page.
    #[test]
    fn lines_are_aligned_and_covered() {
        let mut rng = SplitMix64::new(0xA119);
        for _ in 0..64 {
            let raw = random_addrs(&mut rng, 64);
            let addrs: Vec<VirtAddr> = raw.iter().map(|&a| VirtAddr::new(a)).collect();
            let r = coalesce(&addrs);
            for line in &r.lines {
                assert_eq!(line.raw() % 64, 0);
                assert!(r.pages.contains(&line.page()));
            }
        }
    }

    /// The hashed dedup returns exactly the reference's pages and lines,
    /// in the same order, at every lane count from 1 to 128 — for
    /// duplicate-heavy lanes (few pages, shared lines), all-distinct
    /// lanes, and page-number patterns that share hash slots — and past
    /// the table's capacity, where the un-indexed tail is scanned.
    #[test]
    fn hashed_dedup_matches_the_reference() {
        let mut rng = SplitMix64::new(0xDED0);
        let (mut pages, mut lines) = (Vec::new(), Vec::new());
        let (mut want_pages, mut want_lines) = (Vec::new(), Vec::new());
        let lane_counts = (1..=128).chain([129, 200, 256, 257, 400]);
        for lanes in lane_counts {
            for shape in 0..4 {
                let raw: Vec<u64> = (0..lanes as u64)
                    .map(|l| match shape {
                        // Duplicate-heavy: a handful of pages and lines.
                        0 => (rng.next_below(3) << 12) | (rng.next_below(4) << 6),
                        // All distinct: one page per lane, shuffled.
                        1 => (l * 7919 + rng.next_below(7)) << 12 | rng.next_below(4096),
                        // Page numbers 256 apart, so many share a home slot.
                        2 => (l << 20) + (rng.next_below(2) << 8),
                        // Random over a small space: some repeats.
                        _ => rng.next_below(1 << 18),
                    })
                    .collect();
                let addrs: Vec<VirtAddr> = raw.iter().map(|&a| VirtAddr::new(a)).collect();
                coalesce_split(&addrs, &mut pages, &mut lines);
                coalesce_split_reference(&addrs, &mut want_pages, &mut want_lines);
                assert_eq!(pages, want_pages, "pages: {lanes} lanes, shape {shape}");
                assert_eq!(lines, want_lines, "lines: {lanes} lanes, shape {shape}");
            }
        }
    }
}
