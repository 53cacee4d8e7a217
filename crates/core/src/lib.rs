//! The paper's primary contribution: page-table-walk scheduling in the
//! IOMMU.
//!
//! *Scheduling Page Table Walks for Irregular GPU Applications* (ISCA 2018)
//! observes that the **order** in which an IOMMU's limited page-table
//! walkers service pending walk requests strongly affects irregular GPU
//! applications, and proposes a **SIMT-aware scheduler** that
//!
//! 1. prioritizes walks from SIMD instructions whose total translation work
//!    (estimated via page-walk-cache probes) is smallest, and
//! 2. batches walks of the same SIMD instruction so one instruction's
//!    walks are not interleaved with another's.
//!
//! Crate layout:
//!
//! * [`request`] — the buffered walk request (instruction ID, score, aging);
//! * [`buffer`] — the pending-walk buffer: an arrival-ordered slab with a
//!   per-instruction index (stable `u32` handles, O(1) insert/remove);
//! * [`index`] — the incremental [`CandidateIndex`](index::CandidateIndex)
//!   over the buffer window: eligibility, per-instruction aggregates, lazy
//!   aging counts, same-page chains;
//! * [`sched`] — the [`SchedulerKind`](sched::SchedulerKind) policy names
//!   (FCFS / Random / SJF-only / Batch-only / SIMT-aware / Heaviest-first /
//!   Round-robin) and the [`Scheduler`](sched::Scheduler) that answers each
//!   of them from the candidate index, with starvation aging;
//! * [`iommu`] — the IOMMU block: two TLB levels, the pending-walk buffer,
//!   page-walk caches with 2-bit counter pinning, and the walker pool.
//!
//! # Example
//!
//! ```
//! use ptw_core::iommu::{Iommu, IommuConfig, TranslationOutcome};
//! use ptw_core::sched::SchedulerKind;
//! use ptw_pagetable::frames::{FrameAllocator, FrameLayout};
//! use ptw_pagetable::table::PageTable;
//! use ptw_types::addr::VirtPage;
//! use ptw_types::ids::InstrId;
//! use ptw_types::time::Cycle;
//!
//! // A mapped page and a SIMT-aware IOMMU.
//! let mut alloc = FrameAllocator::new(0x1000, 1 << 20, FrameLayout::Sequential);
//! let mut table = PageTable::new(&mut alloc);
//! let page = VirtPage::new(0x7f42);
//! let frame = alloc.alloc();
//! table.map(page, frame, &mut alloc).unwrap();
//!
//! let cfg = IommuConfig::paper_baseline().with_scheduler(SchedulerKind::SimtAware);
//! let mut iommu: Iommu<&str> = Iommu::new(cfg);
//!
//! // Miss → walk → completion.
//! let out = iommu.translate(page, InstrId::new(1), "req-0", Cycle::ZERO);
//! assert_eq!(out, TranslationOutcome::WalkPending);
//! let mut read = iommu.start_walkers(&table, Cycle::ZERO).remove(0);
//! let mut t = read.issue_at;
//! let mut done = Vec::new(); // caller-owned, reused across completions
//! loop {
//!     t = t + 100; // pretend DRAM takes 100 cycles
//!     match iommu.memory_done_into(read.walker, t, &mut done) {
//!         Some(next) => read = next,
//!         None => {
//!             assert_eq!(done[0].waiter, "req-0");
//!             assert_eq!(done[0].frame, frame);
//!             break;
//!         }
//!     }
//! }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod buffer;
pub mod index;
pub mod iommu;
pub mod request;
pub mod sched;

pub use buffer::WalkBuffer;
pub use index::CandidateIndex;
pub use iommu::{
    CompletedTranslation, Iommu, IommuConfig, IommuStats, MemRead, TranslationOutcome,
};
pub use request::WalkRequest;
pub use sched::{Scheduler, SchedulerKind};
