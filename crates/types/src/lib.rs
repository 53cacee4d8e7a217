//! Shared primitive types for the `ptw-sched` simulator workspace.
//!
//! This crate is the bottom of the dependency DAG. It defines the vocabulary
//! every other crate speaks:
//!
//! * [`addr`] — virtual/physical addresses, page and cache-line geometry;
//! * [`map`] — [`map::U64Map`], the open-addressed `u64 → V` map behind
//!   the page table, the IOMMU candidate index, the MSHR and the DRAM
//!   controller;
//! * [`ids`] — newtyped identifiers for compute units, wavefronts, SIMD
//!   instructions, lanes and page-table walkers;
//! * [`time`] — the [`time::Cycle`] timestamp used by the
//!   discrete-event engine;
//! * [`rng`] — a small deterministic PRNG ([`rng::SplitMix64`]) so simulation
//!   results are bit-reproducible across platforms (we deliberately avoid
//!   pulling `rand` into the simulator core);
//! * [`stats`] — counters, online means and bucketed histograms used by the
//!   metrics pipeline.
//!
//! # Example
//!
//! ```
//! use ptw_types::addr::{VirtAddr, PAGE_SIZE};
//! use ptw_types::time::Cycle;
//!
//! let va = VirtAddr::new(0x7f00_1234_5678);
//! assert_eq!(va.page().base().raw() % PAGE_SIZE as u64, 0);
//! let t = Cycle::ZERO + 100;
//! assert_eq!(t.raw(), 100);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod addr;
pub mod ids;
pub mod map;
pub mod rng;
pub mod stats;
pub mod time;

pub use addr::{PhysAddr, PhysFrame, VirtAddr, VirtPage, LINE_SIZE, PAGE_SIZE};
pub use ids::{CuId, InstrId, LaneId, WalkerId, WavefrontId};
pub use rng::SplitMix64;
pub use time::Cycle;
