//! Panic-isolated parallel execution of independent simulation runs.
//!
//! A figures sweep is dozens of completely independent `(benchmark,
//! scheduler, variant)` simulations; each run is single-threaded and
//! deterministic, so the only way to use a multi-core host is to run many
//! of them at once. [`SweepExecutor`] fans a slice of [`RunSpec`]s across
//! `std::thread` workers (no external dependencies) and returns results
//! **in spec order**, so callers observe exactly the same outputs as a
//! serial loop — parallelism changes wall-clock time and nothing else.
//!
//! Work is distributed dynamically (an atomic next-index counter) because
//! run times vary wildly across benchmarks; static chunking would leave
//! workers idle behind one slow stripe.
//!
//! # Fault tolerance
//!
//! One bad run must not kill the batch. Every spec executes under
//! [`catch_unwind`], so a panicking simulation becomes a
//! [`RunError::Panicked`] in that cell's [`CellOutcome`] while the other
//! cells complete normally. Retryable failures (an exhausted event budget)
//! are retried up to [`RetryPolicy::max_attempts`] times with the budget
//! escalated by [`RetryPolicy::budget_factor`] each attempt — the
//! simulator is deterministic, so retrying helps only when the retry
//! changes something.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use crate::error::{RunError, SimError};
use crate::runner::{run_benchmark, RunSpec};
use crate::system::RunResult;

/// How a sweep retries a failed cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per spec (1 = no retry).
    pub max_attempts: u32,
    /// Multiplier applied to `max_events` before each retry after a
    /// budget-exhaustion failure.
    pub budget_factor: u64,
    /// Base delay before the first retry, doubled for every further retry
    /// (exponential backoff). Zero retries immediately — right for
    /// in-process retries of a deterministic simulator, while the
    /// process-isolated [`Supervisor`](crate::supervisor::Supervisor)
    /// defaults to a nonzero base so a worker killed by host-side pressure
    /// (OOM, scheduling) is respawned into a calmer machine.
    pub backoff_ms: u64,
}

impl RetryPolicy {
    /// No retries: every spec gets exactly one attempt.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            budget_factor: 1,
            backoff_ms: 0,
        }
    }

    /// The same policy with a different backoff base.
    pub fn with_backoff_ms(mut self, backoff_ms: u64) -> Self {
        self.backoff_ms = backoff_ms;
        self
    }

    /// The delay to sleep before retry attempt number `attempt`
    /// (1-based; the first attempt of all never waits): the base backoff
    /// doubled per prior retry, i.e. `backoff_ms × 2^(attempt − 2)`.
    pub fn backoff_before(&self, attempt: u32) -> Duration {
        if self.backoff_ms == 0 || attempt < 2 {
            return Duration::ZERO;
        }
        let exp = (attempt - 2).min(16);
        Duration::from_millis(self.backoff_ms.saturating_mul(1u64 << exp))
    }
}

impl Default for RetryPolicy {
    /// Three attempts with a 4× budget escalation each: a budget that was
    /// merely too tight gets 16× headroom before the cell is abandoned.
    /// No backoff — in-process failures are deterministic, so waiting
    /// between attempts buys nothing.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            budget_factor: 4,
            backoff_ms: 0,
        }
    }
}

/// The outcome of one sweep cell: the result (or typed error) plus enough
/// context to name the failing spec in a report.
#[derive(Clone, Debug)]
pub struct CellOutcome {
    /// Position in the input spec slice.
    pub index: usize,
    /// Human-readable spec label (benchmark / scheduler).
    pub label: String,
    /// Attempts consumed (≥ 2 means the retry path fired).
    pub attempts: u32,
    /// The `max_events` budget of the final attempt (escalated by
    /// [`RetryPolicy::budget_factor`] on every budget-exhaustion retry).
    pub budget_events: u64,
    /// The run's result or its typed failure.
    pub result: Result<RunResult, RunError>,
}

/// Everything a sweep produced, successes and failures alike, in spec
/// order.
#[derive(Clone, Debug, Default)]
pub struct SweepReport {
    /// One outcome per input spec, in spec order.
    pub cells: Vec<CellOutcome>,
}

impl SweepReport {
    /// The failed cells, in spec order.
    pub fn failed(&self) -> impl Iterator<Item = &CellOutcome> {
        self.cells.iter().filter(|c| c.result.is_err())
    }

    /// Whether every cell succeeded.
    pub fn all_ok(&self) -> bool {
        self.cells.iter().all(|c| c.result.is_ok())
    }

    /// A one-line-per-failure summary suitable for stderr.
    pub fn failure_summary(&self) -> String {
        self.failed()
            .map(|c| {
                let err = c.result.as_ref().expect_err("failed() yields errors");
                format!(
                    "cell {} ({}) failed after {} attempt(s): {err}",
                    c.index, c.label, c.attempts
                )
            })
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Renders a caught panic payload (`Box<dyn Any>`) as text.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// What one finished attempt loop reports: attempts consumed, the final
/// attempt's event budget, and the result.
pub(crate) type AttemptOutcome = (u32, u64, Result<RunResult, RunError>);

/// Drives the shared retry loop: `run_attempt` executes one attempt of
/// `spec`; retryable failures re-run after [`RetryPolicy::backoff_before`],
/// with the event budget escalated by [`RetryPolicy::budget_factor`] when
/// the failure was budget exhaustion. Used verbatim by both the
/// thread-isolated executor and the process-isolated supervisor, so the
/// two isolation modes retry identically.
pub(crate) fn retry_loop(
    spec: &RunSpec,
    retry: RetryPolicy,
    run_attempt: impl Fn(&RunSpec) -> Result<RunResult, RunError>,
) -> AttemptOutcome {
    let mut spec = spec.clone();
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        match run_attempt(&spec) {
            Err(e) if e.is_retryable() && attempts < retry.max_attempts => {
                if matches!(e, RunError::Sim(SimError::EventBudgetExhausted { .. }))
                    && spec.config.max_events > 0
                {
                    spec.config.max_events = spec
                        .config
                        .max_events
                        .saturating_mul(retry.budget_factor.max(1));
                }
                let delay = retry.backoff_before(attempts + 1);
                if !delay.is_zero() {
                    thread::sleep(delay);
                }
            }
            other => return (attempts, spec.config.max_events, other),
        }
    }
}

/// Runs one spec to its final outcome on the calling thread: panics are
/// caught, and retryable failures re-run with an escalated event budget
/// per `retry`.
fn attempt_spec(spec: &RunSpec, retry: RetryPolicy) -> AttemptOutcome {
    retry_loop(spec, retry, |spec| {
        match catch_unwind(AssertUnwindSafe(|| run_benchmark(spec))) {
            Ok(r) => r,
            Err(payload) => Err(RunError::Panicked {
                message: panic_message(payload),
            }),
        }
    })
}

/// Anything that can execute a batch of independent [`RunSpec`]s with
/// per-cell fault isolation: the thread-pool [`SweepExecutor`] or the
/// process-isolated [`Supervisor`](crate::supervisor::Supervisor).
///
/// Both must return results **in spec order** and produce identical result
/// rows for an all-healthy sweep; they differ only in what failures they
/// can survive (a panic vs. an abort/OOM/hang) and in per-cell overhead.
pub trait CellExecutor: Sync {
    /// Worker parallelism (threads or processes).
    fn workers(&self) -> usize;

    /// Executes every spec, streaming each completed cell's outcome to
    /// `sink` **as it arrives** (completion order, not spec order — the
    /// hook crash-safe checkpointing rides on), and returns the full
    /// report in spec order.
    fn run_cells(&self, specs: &[RunSpec], sink: &mut dyn FnMut(&CellOutcome)) -> SweepReport;

    /// Executes every spec and returns the report in spec order,
    /// discarding the stream.
    fn try_run_cells(&self, specs: &[RunSpec]) -> SweepReport {
        self.run_cells(specs, &mut |_| {})
    }
}

/// Shared fan-out engine behind every [`CellExecutor`]: distributes cells
/// dynamically over `workers` threads (each thread runs `attempt` — which
/// may itself block on a child process), streams outcomes to `sink` as
/// they complete, and assembles the spec-order report.
pub(crate) fn fan_out_cells(
    workers: usize,
    specs: &[RunSpec],
    sink: &mut dyn FnMut(&CellOutcome),
    attempt: &(dyn Fn(&RunSpec) -> AttemptOutcome + Sync),
) -> SweepReport {
    let mut slots: Vec<Option<CellOutcome>> = (0..specs.len()).map(|_| None).collect();
    if workers <= 1 || specs.len() <= 1 {
        for (index, spec) in specs.iter().enumerate() {
            let (attempts, budget_events, result) = attempt(spec);
            let outcome = CellOutcome {
                index,
                label: spec.label(),
                attempts,
                budget_events,
                result,
            };
            sink(&outcome);
            slots[index] = Some(outcome);
        }
    } else {
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<CellOutcome>();
        thread::scope(|scope| {
            for _ in 0..workers.min(specs.len()) {
                let tx = tx.clone();
                let next = &next;
                scope.spawn(move || loop {
                    // Dynamic work-stealing off a shared counter; outcomes
                    // flow back over the channel as soon as they finish so
                    // the sink (checkpointing) sees them immediately.
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(spec) = specs.get(i) else { break };
                    let (attempts, budget_events, result) = attempt(spec);
                    let outcome = CellOutcome {
                        index: i,
                        label: spec.label(),
                        attempts,
                        budget_events,
                        result,
                    };
                    if tx.send(outcome).is_err() {
                        break;
                    }
                });
            }
            drop(tx);
            // A worker thread dying is all but impossible (every attempt is
            // fault-isolated), but if one does its claimed cells simply
            // never arrive and are reported as failures below — never a
            // process abort. The receive loop ends when every sender is
            // gone.
            for outcome in rx {
                sink(&outcome);
                let index = outcome.index;
                slots[index] = Some(outcome);
            }
        });
    }
    let cells = slots
        .into_iter()
        .enumerate()
        .map(|(index, slot)| {
            slot.unwrap_or_else(|| {
                let label = specs[index].label();
                CellOutcome {
                    index,
                    label: label.clone(),
                    attempts: 0,
                    budget_events: specs[index].config.max_events,
                    result: Err(RunError::Panicked {
                        message: format!("sweep worker died before reporting {label}"),
                    }),
                }
            })
        })
        .collect();
    SweepReport { cells }
}

/// Runs batches of independent [`RunSpec`]s on a fixed number of worker
/// threads.
#[derive(Clone, Copy, Debug)]
pub struct SweepExecutor {
    workers: usize,
    retry: RetryPolicy,
}

impl SweepExecutor {
    /// An executor with exactly `workers` threads; `0` means
    /// [`auto`](Self::auto) (one worker per available hardware thread).
    pub fn new(workers: usize) -> Self {
        if workers == 0 {
            return Self::auto();
        }
        SweepExecutor {
            workers,
            retry: RetryPolicy::default(),
        }
    }

    /// One worker: runs every spec on the calling thread, in order.
    pub fn serial() -> Self {
        SweepExecutor::new(1)
    }

    /// One worker per available hardware thread (falls back to 1 when the
    /// parallelism cannot be queried).
    pub fn auto() -> Self {
        SweepExecutor::new(thread::available_parallelism().map_or(1, |n| n.get()))
    }

    /// The same executor with a different retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// The worker-thread count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The retry policy in use.
    pub fn retry(&self) -> RetryPolicy {
        self.retry
    }

    /// Executes every spec, isolating failures per cell, and returns a
    /// [`SweepReport`] in spec order.
    ///
    /// Successful results are deterministic and identical to a serial
    /// `specs.iter().map(run_benchmark)` loop: each run is an isolated
    /// simulation, and every outcome is placed by its spec index
    /// regardless of which worker ran it or when it finished. A panic in
    /// one cell never disturbs the others.
    pub fn try_run(&self, specs: &[RunSpec]) -> SweepReport {
        self.try_run_cells(specs)
    }

    /// Executes every spec and returns the results in spec order,
    /// panicking on the first failed cell.
    ///
    /// # Panics
    ///
    /// Panics with a message naming the failing [`RunSpec`] if any cell
    /// failed; use [`try_run`](Self::try_run) to get failures as data.
    pub fn run(&self, specs: &[RunSpec]) -> Vec<RunResult> {
        self.try_run(specs)
            .cells
            .into_iter()
            .map(|c| match c.result {
                Ok(r) => r,
                Err(e) => panic!("sweep cell {} ({}) failed: {e}", c.index, c.label),
            })
            .collect()
    }
}

impl CellExecutor for SweepExecutor {
    fn workers(&self) -> usize {
        self.workers
    }

    fn run_cells(&self, specs: &[RunSpec], sink: &mut dyn FnMut(&CellOutcome)) -> SweepReport {
        let retry = self.retry;
        fan_out_cells(self.workers, specs, sink, &move |spec| {
            attempt_spec(spec, retry)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptw_core::sched::SchedulerKind;
    use ptw_workloads::{BenchmarkId, Scale};

    fn specs() -> Vec<RunSpec> {
        let mut v = Vec::new();
        for id in [BenchmarkId::Kmn, BenchmarkId::Ssp, BenchmarkId::Atx] {
            for kind in [SchedulerKind::Fcfs, SchedulerKind::SimtAware] {
                v.push(RunSpec::new(id, kind, Scale::Small));
            }
        }
        v
    }

    #[test]
    fn worker_count_zero_means_auto() {
        assert_eq!(
            SweepExecutor::new(0).workers(),
            SweepExecutor::auto().workers()
        );
        assert_eq!(SweepExecutor::serial().workers(), 1);
        assert!(SweepExecutor::auto().workers() >= 1);
    }

    #[test]
    fn results_arrive_in_spec_order() {
        let specs = specs();
        let results = SweepExecutor::new(4).run(&specs);
        assert_eq!(results.len(), specs.len());
        for (spec, result) in specs.iter().zip(&results) {
            // Each slot must hold its own spec's run: verify against a
            // fresh serial execution of that spec alone.
            let serial = run_benchmark(spec).expect("clean spec");
            assert_eq!(result.metrics, serial.metrics, "{spec:?}");
        }
    }

    #[test]
    fn empty_sweep_is_empty() {
        assert!(SweepExecutor::new(4).run(&[]).is_empty());
        assert!(SweepExecutor::new(4).try_run(&[]).cells.is_empty());
    }

    #[test]
    fn budget_exhaustion_is_retried_with_escalation() {
        // A budget far too small for the run: the default policy escalates
        // 4× per attempt and either recovers or reports the typed error
        // after exactly max_attempts tries.
        let mut spec = RunSpec::new(BenchmarkId::Kmn, SchedulerKind::Fcfs, Scale::Small);
        spec.config.max_events = 10;
        let retry = RetryPolicy {
            max_attempts: 2,
            budget_factor: 2,
            backoff_ms: 0,
        };
        let report = SweepExecutor::serial()
            .with_retry(retry)
            .try_run(std::slice::from_ref(&spec));
        let cell = &report.cells[0];
        assert_eq!(cell.attempts, 2, "both attempts consumed");
        assert_eq!(
            cell.budget_events, 20,
            "final attempt ran with the escalated budget"
        );
        assert!(
            matches!(
                cell.result,
                Err(RunError::Sim(
                    crate::error::SimError::EventBudgetExhausted { .. }
                ))
            ),
            "{:?}",
            cell.result
        );
    }

    #[test]
    fn retry_none_gives_single_attempt() {
        let mut spec = RunSpec::new(BenchmarkId::Kmn, SchedulerKind::Fcfs, Scale::Small);
        spec.config.max_events = 10;
        let report = SweepExecutor::serial()
            .with_retry(RetryPolicy::none())
            .try_run(std::slice::from_ref(&spec));
        assert_eq!(report.cells[0].attempts, 1);
        assert!(!report.all_ok());
        assert!(report.failure_summary().contains("KMN"));
    }

    #[test]
    fn backoff_schedule_doubles_per_retry() {
        let retry = RetryPolicy::default().with_backoff_ms(100);
        assert_eq!(retry.backoff_before(1), Duration::ZERO);
        assert_eq!(retry.backoff_before(2), Duration::from_millis(100));
        assert_eq!(retry.backoff_before(3), Duration::from_millis(200));
        assert_eq!(retry.backoff_before(4), Duration::from_millis(400));
        assert_eq!(
            RetryPolicy::default().backoff_before(5),
            Duration::ZERO,
            "zero base never waits"
        );
    }

    #[test]
    fn run_cells_streams_every_outcome() {
        let specs = specs();
        let mut streamed = Vec::new();
        let report = SweepExecutor::new(4).run_cells(&specs, &mut |c| streamed.push(c.index));
        assert_eq!(streamed.len(), specs.len(), "one sink call per cell");
        streamed.sort_unstable();
        assert_eq!(streamed, (0..specs.len()).collect::<Vec<_>>());
        assert!(report.all_ok());
    }
}
