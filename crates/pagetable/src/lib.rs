//! x86-64 page-table substrate: frames, the four-level radix table, page
//! walk caches, and workload address spaces.
//!
//! The paper's IOMMU walks a real in-memory x86-64 page table; this crate
//! builds that table in simulated physical memory so walker reads are real
//! DRAM addresses:
//!
//! * [`frames`] — deterministic physical frame allocation;
//! * [`table`] — the four-level radix tree and per-page walk paths;
//! * [`pwc`] — page walk caches with the paper's 2-bit counter pinning;
//! * [`space`] — buffer layout + eager mapping for workloads.
//!
//! # Example: a complete cold walk plan
//!
//! ```
//! use ptw_pagetable::frames::{FrameAllocator, FrameLayout};
//! use ptw_pagetable::pwc::{PageWalkCache, PwcConfig};
//! use ptw_pagetable::table::PageTable;
//! use ptw_types::addr::VirtPage;
//!
//! let mut alloc = FrameAllocator::new(0x1000, 1 << 20, FrameLayout::Sequential);
//! let mut pt = PageTable::new(&mut alloc);
//! let page = VirtPage::new(0x7f_0042);
//! let frame = alloc.alloc();
//! pt.map(page, frame, &mut alloc)?;
//!
//! let mut pwc = PageWalkCache::new(PwcConfig::paper_baseline());
//! let plan = pwc.begin_walk(&pt, page).expect("page is mapped");
//! assert_eq!(plan.accesses(), 4); // cold PWC: full four-level walk
//! pwc.complete_walk(&plan);
//! assert_eq!(pwc.begin_walk(&pt, page).unwrap().accesses(), 1); // warm
//! # Ok::<(), ptw_pagetable::table::MapError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod frames;
pub mod pwc;
pub mod space;
pub mod table;

pub use frames::{FrameAllocator, FrameLayout};
pub use pwc::{PageWalkCache, PwcConfig, PwcHit, WalkPlan};
pub use space::{AddressSpace, Buffer};
pub use table::{MapError, PageTable, WalkPath};
