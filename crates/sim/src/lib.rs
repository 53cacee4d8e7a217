//! Full-system simulator and experiment harness for the ISCA 2018 paper
//! *Scheduling Page Table Walks for Irregular GPU Applications*.
//!
//! * [`engine`] — deterministic discrete-event queue;
//! * [`config`] — Table I system configuration and sensitivity variants;
//! * [`system`] — the wired-up machine (GPU + TLBs + IOMMU + caches + DRAM);
//! * [`error`] — the typed failure taxonomy (config / sim / run errors);
//! * [`metrics`] — per-figure metric collection;
//! * [`runner`] — one-call experiment execution;
//! * [`sweep`] — panic-isolated parallel fan-out of independent runs;
//! * [`supervisor`] — process-isolated sweep workers (spawn/timeout/reap);
//! * [`wire`] — the one-JSON-line-per-direction worker protocol;
//! * [`checkpoint`] — crash-safe JSONL persistence of sweep results;
//! * [`figures`] — regeneration of every table and figure;
//! * [`report`] — plain-text table rendering;
//! * [`json`] — minimal JSON reader (`BENCH_*.json` baselines, checkpoint
//!   and wire lines);
//! * [`out`] — broken-pipe-safe stdout for the CLI binaries.
//!
//! # Example: one run
//!
//! ```
//! use ptw_core::sched::SchedulerKind;
//! use ptw_sim::config::SystemConfig;
//! use ptw_sim::system::System;
//! use ptw_workloads::{build, BenchmarkId, Scale};
//!
//! let cfg = SystemConfig::paper_baseline().with_scheduler(SchedulerKind::SimtAware);
//! let workload = build(BenchmarkId::Kmn, Scale::Small, 1);
//! let result = System::new(cfg, workload).run();
//! assert!(result.metrics.cycles > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod checkpoint;
pub mod config;
pub mod engine;
pub mod error;
pub mod figures;
mod flat;
pub mod json;
pub mod metrics;
pub mod out;
pub mod report;
pub mod runner;
pub mod supervisor;
pub mod sweep;
pub mod system;
pub mod wire;

pub use config::SystemConfig;
pub use error::{ConfigError, RunError, SimError};
pub use metrics::RunMetrics;
pub use runner::{run_benchmark, RunSpec};
pub use supervisor::Supervisor;
pub use sweep::{CellExecutor, SweepExecutor, SweepReport};
pub use system::{RunResult, System};
