//! Memory-system substrate: DRAM, memory controller, data caches.
//!
//! This crate models the memory side of the baseline system in Table I of
//! *Scheduling Page Table Walks for Irregular GPU Applications* (ISCA 2018):
//!
//! * [`dram`] — DDR3-1600 geometry/timing and physical address mapping;
//! * [`controller`] — an event-driven FR-FCFS (or FCFS) memory controller
//!   shared by the GPU data path and the IOMMU's page table walkers;
//! * [`cache`] — set-associative L1/L2 data caches with MSHR merging;
//! * [`assoc`] — the generic set-associative array reused by the TLB and
//!   page-walk-cache crates.
//!
//! # Example
//!
//! ```
//! use ptw_mem::controller::{MemoryController, MemSchedPolicy, MemSource};
//! use ptw_mem::dram::DramConfig;
//! use ptw_types::addr::LineAddr;
//! use ptw_types::time::Cycle;
//!
//! let mut mc = MemoryController::new(DramConfig::paper_baseline(), MemSchedPolicy::FrFcfs);
//! mc.submit(LineAddr::new(0x1000), MemSource::Data, Cycle::ZERO);
//! let mut done = Vec::new();
//! while let Some(t) = mc.next_event_time() {
//!     done.extend(mc.advance(t)); // first wakeup issues, second completes
//! }
//! assert_eq!(done.len(), 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod assoc;
pub mod cache;
pub mod controller;
pub mod dram;

pub use assoc::{AssocArray, Replacement, SetIndex};
pub use cache::{Cache, CacheConfig, Mshr, MshrOutcome};
pub use controller::{
    MemCompletion, MemReqId, MemSchedPolicy, MemSource, MemStats, MemoryController,
};
pub use dram::{DramConfig, DramCoord};
