//! One-call experiment execution, with caching across figures.
//!
//! A figure needs runs of `(benchmark, scheduler, system variant)`; several
//! figures share the same runs (e.g. the FCFS and SIMT-aware baselines feed
//! Figures 8–12). [`Lab`] memoizes results so the `figures` binary performs
//! each run once.
//!
//! Reading a cell never runs it. A read of a cell the lab has not run yet
//! returns `None` and records the key; [`Lab::take_missing`] hands the
//! recorded keys to [`Lab::prefetch`], the one place a lab cell runs, on
//! whatever [`CellExecutor`] the caller chose.
//!
//! # Fault tolerance
//!
//! Every run goes through a fault-isolated [`CellExecutor`], so a crashing
//! or diverging simulation becomes a recorded [`CellFailure`] instead of
//! killing the whole figures sweep. Failures are *sticky*: once a cell
//! fails, later reads return `None` without recording it again. Attaching
//! a [`SweepCheckpoint`] persists every completed result so an interrupted
//! sweep resumes where it stopped.

use std::collections::HashMap;
use std::io;
use std::path::PathBuf;

use ptw_core::sched::SchedulerKind;
use ptw_workloads::{build_with_large_pages, BenchmarkId, Scale};

use crate::checkpoint::{CellKey, SweepCheckpoint};
use crate::config::{FaultInjection, SystemConfig};
use crate::error::RunError;
use crate::sweep::CellExecutor;
use crate::system::{RunResult, System};

/// A fully specified simulation run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunSpec {
    /// Which Table II benchmark to run.
    pub benchmark: BenchmarkId,
    /// Page-walk scheduling policy.
    pub scheduler: SchedulerKind,
    /// Workload scale.
    pub scale: Scale,
    /// Workload seed.
    pub seed: u64,
    /// System configuration (the scheduler field is overridden by
    /// `scheduler`).
    pub config: SystemConfig,
}

impl RunSpec {
    /// Baseline-system run of `benchmark` under `scheduler`.
    pub fn new(benchmark: BenchmarkId, scheduler: SchedulerKind, scale: Scale) -> Self {
        RunSpec {
            benchmark,
            scheduler,
            scale,
            seed: 0xC0FFEE,
            config: SystemConfig::paper_baseline(),
        }
    }

    /// Human-readable identity for error reports: names the benchmark,
    /// scheduler and scale so a failure message pinpoints the cell.
    pub fn label(&self) -> String {
        format!(
            "{} / {} @ {}",
            self.benchmark,
            self.scheduler.label(),
            self.scale.label()
        )
    }
}

/// Executes one run, returning the result or a typed failure.
///
/// Configuration problems surface as [`RunError::Config`] before any event
/// executes; runtime divergence (budget exhaustion, livelock, deadlock) as
/// [`RunError::Sim`]. Panics are *not* caught here — callers who need
/// isolation go through a [`CellExecutor`].
pub fn run_benchmark(spec: &RunSpec) -> Result<RunResult, RunError> {
    let cfg = spec.config.clone().with_scheduler(spec.scheduler);
    // The topology's large-page knob reaches the workload builder here:
    // at the default 0‰ this is exactly the all-4K `build` path.
    let workload = build_with_large_pages(
        spec.benchmark,
        spec.scale,
        spec.seed,
        cfg.topology.large_page_permille,
    );
    Ok(System::try_new(cfg, workload)?.try_run()?)
}

/// The spec of sweep cell `key` at `(scale, seed)`, without any injected
/// fault: the one mapping both [`Lab`] and the checkpoint's spec binding
/// use.
pub(crate) fn cell_spec(key: CellKey, scale: Scale, seed: u64) -> RunSpec {
    let (benchmark, scheduler, variant) = key;
    RunSpec {
        benchmark,
        scheduler,
        scale,
        seed,
        config: variant.config(),
    }
}

/// System variants used by the sensitivity studies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ConfigVariant {
    /// Table I baseline.
    Baseline,
    /// Figure 13a: 1024-entry GPU L2 TLB, 8 walkers.
    BigTlb,
    /// Figure 13b: 512-entry GPU L2 TLB, 16 walkers.
    MoreWalkers,
    /// Figure 13c: 1024-entry GPU L2 TLB, 16 walkers.
    BigTlbMoreWalkers,
    /// Figure 14a: 128-entry IOMMU buffer.
    SmallBuffer,
    /// Figure 14b: 512-entry IOMMU buffer.
    BigBuffer,
    /// Ablation: SIMT-aware without PWC counter pinning.
    NoPinning,
    /// Ablation: memory controller in strict FCFS mode.
    MemFcfs,
}

impl ConfigVariant {
    /// Every variant, in presentation order.
    pub const ALL: [ConfigVariant; 8] = [
        ConfigVariant::Baseline,
        ConfigVariant::BigTlb,
        ConfigVariant::MoreWalkers,
        ConfigVariant::BigTlbMoreWalkers,
        ConfigVariant::SmallBuffer,
        ConfigVariant::BigBuffer,
        ConfigVariant::NoPinning,
        ConfigVariant::MemFcfs,
    ];

    /// Builds the corresponding system configuration.
    pub fn config(self) -> SystemConfig {
        let base = SystemConfig::paper_baseline();
        match self {
            ConfigVariant::Baseline => base,
            ConfigVariant::BigTlb => base.with_gpu_l2_tlb_entries(1024),
            ConfigVariant::MoreWalkers => base.with_walkers(16),
            ConfigVariant::BigTlbMoreWalkers => base.with_gpu_l2_tlb_entries(1024).with_walkers(16),
            ConfigVariant::SmallBuffer => base.with_iommu_buffer(128),
            ConfigVariant::BigBuffer => base.with_iommu_buffer(512),
            ConfigVariant::NoPinning => {
                let mut c = base;
                c.iommu.pwc.counter_pinning = false;
                c
            }
            ConfigVariant::MemFcfs => {
                let mut c = base;
                c.mem_policy = ptw_mem::MemSchedPolicy::Fcfs;
                c
            }
        }
    }

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            ConfigVariant::Baseline => "baseline",
            ConfigVariant::BigTlb => "1024-entry L2 TLB / 8 walkers",
            ConfigVariant::MoreWalkers => "512-entry L2 TLB / 16 walkers",
            ConfigVariant::BigTlbMoreWalkers => "1024-entry L2 TLB / 16 walkers",
            ConfigVariant::SmallBuffer => "128-entry IOMMU buffer",
            ConfigVariant::BigBuffer => "512-entry IOMMU buffer",
            ConfigVariant::NoPinning => "no PWC counter pinning",
            ConfigVariant::MemFcfs => "FCFS memory controller",
        }
    }

    /// Stable machine key: used in checkpoint files, so it must never
    /// change for an existing variant.
    pub fn key(self) -> &'static str {
        match self {
            ConfigVariant::Baseline => "baseline",
            ConfigVariant::BigTlb => "big-tlb",
            ConfigVariant::MoreWalkers => "more-walkers",
            ConfigVariant::BigTlbMoreWalkers => "big-tlb-more-walkers",
            ConfigVariant::SmallBuffer => "small-buffer",
            ConfigVariant::BigBuffer => "big-buffer",
            ConfigVariant::NoPinning => "no-pinning",
            ConfigVariant::MemFcfs => "mem-fcfs",
        }
    }

    /// Parses a [`key`](Self::key) back into a variant (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL
            .into_iter()
            .find(|v| v.key().eq_ignore_ascii_case(s))
    }
}

/// Why one lab cell has no result.
#[derive(Clone, Debug)]
pub struct CellFailure {
    /// Human-readable spec label (benchmark / scheduler / scale).
    pub label: String,
    /// Attempts consumed before giving up.
    pub attempts: u32,
    /// The typed failure of the final attempt.
    pub error: RunError,
}

/// Memoizing run executor shared by all figures.
#[derive(Debug)]
pub struct Lab {
    scale: Scale,
    seed: u64,
    cache: HashMap<CellKey, RunResult>,
    /// Cells that failed, by key — sticky so a bad cell runs at most once.
    failures: HashMap<CellKey, CellFailure>,
    /// When attached, every completed result is appended here.
    checkpoint: Option<SweepCheckpoint>,
    /// Deterministic fault injected into exactly one cell's runs.
    fault: Option<(CellKey, FaultInjection)>,
    /// Keys read before they ran, in first-read order, for
    /// [`take_missing`](Self::take_missing).
    missing: Vec<CellKey>,
    /// Runs actually executed (for progress reporting).
    pub executed: u64,
    /// Whether to print progress lines to stderr.
    pub verbose: bool,
}

impl Lab {
    /// Creates a lab running workloads at `scale` with `seed`.
    pub fn new(scale: Scale, seed: u64) -> Self {
        Lab {
            scale,
            seed,
            cache: HashMap::new(),
            failures: HashMap::new(),
            checkpoint: None,
            fault: None,
            missing: Vec::new(),
            executed: 0,
            verbose: false,
        }
    }

    /// The workload scale in use.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// The workload seed in use.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Attaches a crash-safe checkpoint file: previously persisted results
    /// for this `(scale, seed)` are loaded into the cache (so they are not
    /// re-run) and every future completed run is appended. Returns how many
    /// results were resumed from the file; a file
    /// [`SweepCheckpoint::open`] refuses is an error.
    pub fn attach_checkpoint(&mut self, path: impl Into<PathBuf>) -> io::Result<usize> {
        let (cp, loaded) = SweepCheckpoint::open(path, self.scale, self.seed)?;
        let n = loaded.len();
        for (key, result) in loaded {
            self.cache.entry(key).or_insert(result);
        }
        self.checkpoint = Some(cp);
        Ok(n)
    }

    /// Injects a deterministic fault into every run of `key`'s cell
    /// (the fault-injection hook of the robustness test harness).
    pub fn set_fault(&mut self, key: CellKey, fault: FaultInjection) {
        self.fault = Some((key, fault));
    }

    /// Failed cells, by key.
    pub fn failures(&self) -> &HashMap<CellKey, CellFailure> {
        &self.failures
    }

    /// Whether any cell has failed so far.
    pub fn has_failures(&self) -> bool {
        !self.failures.is_empty()
    }

    /// One line per failed cell (sorted by label, so the output is
    /// deterministic), suitable for stderr.
    pub fn failure_summary(&self) -> String {
        let mut lines: Vec<String> = self
            .failures
            .values()
            .map(|f| {
                format!(
                    "{} failed after {} attempt(s): {}",
                    f.label, f.attempts, f.error
                )
            })
            .collect();
        lines.sort();
        lines.join("\n")
    }

    /// `key`'s spec, with the injected fault if this is the faulted cell.
    fn spec_for(&self, key: CellKey) -> RunSpec {
        let mut spec = cell_spec(key, self.scale, self.seed);
        if let Some((fault_key, fault)) = self.fault {
            if fault_key == key {
                spec.config.fault = Some(fault);
            }
        }
        spec
    }

    /// Result of `(benchmark, scheduler)` on the baseline system, or
    /// `None` if the run failed (see [`failures`](Self::failures)) or has
    /// not run yet (see [`take_missing`](Self::take_missing)).
    pub fn try_result(
        &mut self,
        benchmark: BenchmarkId,
        scheduler: SchedulerKind,
    ) -> Option<&RunResult> {
        self.try_result_with(benchmark, scheduler, ConfigVariant::Baseline)
    }

    /// Result on a system variant, or `None` if the run failed or has not
    /// run yet. A key that is neither cached nor failed is recorded for
    /// [`take_missing`](Self::take_missing).
    pub fn try_result_with(
        &mut self,
        benchmark: BenchmarkId,
        scheduler: SchedulerKind,
        variant: ConfigVariant,
    ) -> Option<&RunResult> {
        let key = (benchmark, scheduler, variant);
        if !self.cache.contains_key(&key)
            && !self.failures.contains_key(&key)
            && !self.missing.contains(&key)
        {
            self.missing.push(key);
        }
        self.cache.get(&key)
    }

    /// The keys read since the last call that had neither run nor failed,
    /// each once, in first-read order: the input for
    /// [`prefetch`](Self::prefetch).
    pub fn take_missing(&mut self) -> Vec<CellKey> {
        std::mem::take(&mut self.missing)
    }

    /// Runs every not-yet-cached `(benchmark, scheduler, variant)` key on
    /// `exec` and stores the outcomes, so later reads of those keys are
    /// cache (or failure) hits. Returns the number of runs executed.
    ///
    /// Duplicate keys are executed once; insertion order is the first
    /// occurrence in `keys`, so the cache contents (and `executed`) are
    /// independent of the executor's worker count. Failed cells are
    /// recorded in [`failures`](Self::failures) — one bad run never stops
    /// the rest of the sweep.
    ///
    /// With a checkpoint attached, each completed result is appended **as
    /// it arrives** (completion order), not after the whole sweep returns:
    /// killing the supervisor mid-sweep loses at most the in-flight cells,
    /// and `--resume` picks up every finished one. With
    /// [`verbose`](Self::verbose) set, each finished cell also prints one
    /// progress line to stderr.
    pub fn prefetch(
        &mut self,
        exec: &dyn CellExecutor,
        keys: impl IntoIterator<Item = CellKey>,
    ) -> usize {
        let mut missing: Vec<CellKey> = Vec::new();
        for key in keys {
            if !self.cache.contains_key(&key)
                && !self.failures.contains_key(&key)
                && !missing.contains(&key)
            {
                missing.push(key);
            }
        }
        if missing.is_empty() {
            return 0;
        }
        if self.verbose {
            eprintln!(
                "[lab] prefetching {} runs on {} worker(s)",
                missing.len(),
                exec.workers()
            );
        }
        let specs: Vec<RunSpec> = missing.iter().map(|&key| self.spec_for(key)).collect();
        // The checkpoint moves into the streaming sink for the duration of
        // the sweep (the sink borrows it mutably while `self` stays
        // readable), then moves back.
        let mut checkpoint = self.checkpoint.take();
        let verbose = self.verbose;
        let report = exec.run_cells(&specs, &mut |outcome| {
            if verbose {
                let (benchmark, scheduler, variant) = missing[outcome.index];
                let secs = outcome.elapsed.as_secs_f64();
                let done = match &outcome.result {
                    Ok(result) => format!("{} events", result.events),
                    Err(e) => format!("FAILED: {e}"),
                };
                eprintln!(
                    "[lab] {benchmark} / {scheduler} / {}: {} attempt(s), {secs:.2}s, {done}",
                    variant.label(),
                    outcome.attempts
                );
            }
            if let (Some(cp), Ok(result)) = (checkpoint.as_mut(), outcome.result.as_ref()) {
                if let Err(e) = cp.append(missing[outcome.index], result) {
                    // Losing the checkpoint must not fail the sweep itself.
                    eprintln!(
                        "[lab] warning: checkpoint append to {} failed: {e}",
                        cp.path().display()
                    );
                }
            }
        });
        self.checkpoint = checkpoint;
        let executed = missing.len();
        for (key, cell) in missing.into_iter().zip(report.cells) {
            self.executed += 1;
            match cell.result {
                Ok(result) => {
                    // Already persisted by the streaming sink above.
                    self.cache.insert(key, result);
                }
                Err(error) => {
                    self.failures.insert(
                        key,
                        CellFailure {
                            label: cell.label,
                            attempts: cell.attempts,
                            error,
                        },
                    );
                }
            }
        }
        executed
    }

    /// Speedup of `scheduler` over `baseline` for `benchmark` (ratio of
    /// cycle counts) on the baseline system, or `None` if either run
    /// failed or has not run yet. Both keys are read (and recorded when
    /// missing) before they are combined.
    pub fn try_speedup(
        &mut self,
        benchmark: BenchmarkId,
        scheduler: SchedulerKind,
        baseline: SchedulerKind,
    ) -> Option<f64> {
        let base = self
            .try_result(benchmark, baseline)
            .map(|r| r.metrics.cycles);
        let x = self
            .try_result(benchmark, scheduler)
            .map(|r| r.metrics.cycles);
        Some(base? as f64 / x? as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::SweepExecutor;

    /// Runs every key the lab's reads recorded, serially.
    fn run_missing(lab: &mut Lab) -> usize {
        let keys = lab.take_missing();
        lab.prefetch(&SweepExecutor::serial(), keys)
    }

    #[test]
    fn lab_caches_runs() {
        let mut lab = Lab::new(Scale::Small, 1);
        assert!(lab
            .try_result(BenchmarkId::Kmn, SchedulerKind::Fcfs)
            .is_none());
        assert_eq!(lab.executed, 0, "a read never runs a cell");
        assert_eq!(run_missing(&mut lab), 1);
        assert_eq!(lab.executed, 1);
        let a = lab
            .try_result(BenchmarkId::Kmn, SchedulerKind::Fcfs)
            .expect("prefetched")
            .metrics
            .cycles;
        let b = lab
            .try_result(BenchmarkId::Kmn, SchedulerKind::Fcfs)
            .expect("cached")
            .metrics
            .cycles;
        assert_eq!(a, b);
        assert!(lab.take_missing().is_empty(), "cached reads record nothing");
        assert_eq!(run_missing(&mut lab), 0);
        assert_eq!(lab.executed, 1); // cached
    }

    #[test]
    fn speedup_of_identical_runs_is_one() {
        let mut lab = Lab::new(Scale::Small, 1);
        let k = SchedulerKind::Fcfs;
        assert_eq!(lab.try_speedup(BenchmarkId::Kmn, k, k), None);
        assert_eq!(run_missing(&mut lab), 1, "one key, recorded once");
        let s = lab.try_speedup(BenchmarkId::Kmn, k, k).expect("prefetched");
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn try_speedup_records_both_keys() {
        let mut lab = Lab::new(Scale::Small, 1);
        let (simt, fcfs) = (SchedulerKind::SimtAware, SchedulerKind::Fcfs);
        assert_eq!(lab.try_speedup(BenchmarkId::Kmn, simt, fcfs), None);
        let base = ConfigVariant::Baseline;
        assert_eq!(
            lab.take_missing(),
            [
                (BenchmarkId::Kmn, fcfs, base),
                (BenchmarkId::Kmn, simt, base)
            ]
        );
        assert_eq!(lab.executed, 0);
    }

    #[test]
    fn prefetch_fills_the_cache_once() {
        let mut lab = Lab::new(Scale::Small, 1);
        let keys = [
            (
                BenchmarkId::Kmn,
                SchedulerKind::Fcfs,
                ConfigVariant::Baseline,
            ),
            (
                BenchmarkId::Kmn,
                SchedulerKind::SimtAware,
                ConfigVariant::Baseline,
            ),
            // Duplicate: must be executed once.
            (
                BenchmarkId::Kmn,
                SchedulerKind::Fcfs,
                ConfigVariant::Baseline,
            ),
        ];
        let ran = lab.prefetch(&SweepExecutor::new(2), keys);
        assert_eq!(ran, 2);
        assert_eq!(lab.executed, 2);
        // Subsequent lookups are cache hits...
        let cycles = lab
            .try_result(BenchmarkId::Kmn, SchedulerKind::Fcfs)
            .expect("prefetched")
            .metrics
            .cycles;
        assert_eq!(lab.executed, 2);
        // ...and match a serial lab exactly.
        let mut serial = Lab::new(Scale::Small, 1);
        serial.prefetch(&SweepExecutor::serial(), [keys[0]]);
        assert_eq!(
            cycles,
            serial
                .try_result(BenchmarkId::Kmn, SchedulerKind::Fcfs)
                .expect("prefetched")
                .metrics
                .cycles
        );
        // Prefetching already-cached keys is free.
        assert_eq!(lab.prefetch(&SweepExecutor::serial(), keys), 0);
    }

    #[test]
    fn config_variants_differ_from_baseline() {
        for v in [
            ConfigVariant::BigTlb,
            ConfigVariant::MoreWalkers,
            ConfigVariant::BigTlbMoreWalkers,
            ConfigVariant::SmallBuffer,
            ConfigVariant::BigBuffer,
            ConfigVariant::NoPinning,
            ConfigVariant::MemFcfs,
        ] {
            assert_ne!(v.config(), SystemConfig::paper_baseline(), "{}", v.label());
        }
    }

    #[test]
    fn variant_keys_roundtrip() {
        for v in ConfigVariant::ALL {
            assert_eq!(ConfigVariant::parse(v.key()), Some(v), "{}", v.key());
            assert_eq!(
                ConfigVariant::parse(&v.key().to_uppercase()),
                Some(v),
                "case-insensitive"
            );
        }
        assert_eq!(ConfigVariant::parse("nonsense"), None);
    }

    #[test]
    fn spec_label_names_the_cell() {
        let spec = RunSpec::new(BenchmarkId::Kmn, SchedulerKind::SimtAware, Scale::Small);
        let label = spec.label();
        assert!(label.contains("KMN"), "{label}");
        assert!(label.contains("SIMT-aware"), "{label}");
        assert!(label.contains("small"), "{label}");
    }

    #[test]
    fn injected_fault_fails_only_its_cell_and_is_sticky() {
        let mut lab = Lab::new(Scale::Small, 1);
        let key = (
            BenchmarkId::Kmn,
            SchedulerKind::Fcfs,
            ConfigVariant::Baseline,
        );
        lab.set_fault(key, FaultInjection::panic_at(1_000));
        assert!(lab
            .try_result(BenchmarkId::Kmn, SchedulerKind::Fcfs)
            .is_none());
        assert_eq!(run_missing(&mut lab), 1);
        assert_eq!(lab.executed, 1);
        assert!(lab.has_failures());
        assert!(lab.failure_summary().contains("KMN"));
        assert!(lab.failure_summary().contains("injected fault"));
        // Sticky: the failed cell is neither recorded again nor re-run.
        assert!(lab
            .try_result(BenchmarkId::Kmn, SchedulerKind::Fcfs)
            .is_none());
        assert!(lab.take_missing().is_empty());
        assert_eq!(lab.prefetch(&SweepExecutor::serial(), [key]), 0);
        assert_eq!(lab.executed, 1);
        // Other cells are untouched.
        lab.try_result(BenchmarkId::Kmn, SchedulerKind::SimtAware);
        assert_eq!(run_missing(&mut lab), 1);
        assert!(lab
            .try_result(BenchmarkId::Kmn, SchedulerKind::SimtAware)
            .is_some());
        assert!(lab
            .try_speedup(
                BenchmarkId::Kmn,
                SchedulerKind::SimtAware,
                SchedulerKind::Fcfs
            )
            .is_none());
    }
}
