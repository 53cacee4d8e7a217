//! Process-isolated sweep supervision end to end, against **real child
//! processes**: this test binary re-executes itself as the stdin/stdout
//! worker (`harness = false` so `main` can dispatch the `worker` argv),
//! exactly like `figures worker` / `simbench worker`.
//!
//! Covered here:
//! * an all-healthy process-isolated sweep produces result rows identical
//!   to the thread-isolated sweep;
//! * an `abort@event` cell kills only its own worker — retried, then
//!   degraded to a FAILED row while every other cell completes;
//! * a `hang@event` cell trips the per-cell wall-clock timeout, is killed
//!   and reaped, and degrades the same way;
//! * budget escalation works across the process boundary: a cell that
//!   exhausts its event budget on attempts one and two succeeds on the
//!   third with a 16× budget (satellite to the thread-mode twin in
//!   `fault_tolerance.rs`);
//! * a supervisor that dies mid-sweep leaves a checkpoint — possibly with
//!   a torn trailing line — from which a resumed process-isolated sweep
//!   completes without recomputing the finished cells.

use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use ptw_core::sched::SchedulerKind;
use ptw_sim::config::FaultInjection;
use ptw_sim::error::RunError;
use ptw_sim::runner::{run_benchmark, ConfigVariant, Lab, RunSpec};
use ptw_sim::sweep::{CellExecutor, RetryPolicy, SweepExecutor};
use ptw_sim::Supervisor;
use ptw_workloads::{BenchmarkId, Scale};

fn main() {
    // The supervisor under test spawns this very binary with `worker` as
    // its first argument — same dispatch as the sweep binaries.
    if std::env::args().nth(1).as_deref() == Some("worker") {
        std::process::exit(i32::from(ptw_sim::supervisor::worker_main()));
    }

    let tests: &[(&str, fn())] = &[
        (
            "healthy_process_sweep_matches_thread_rows",
            healthy_process_sweep_matches_thread_rows,
        ),
        (
            "aborting_worker_degrades_only_its_cell",
            aborting_worker_degrades_only_its_cell,
        ),
        (
            "hung_worker_times_out_and_degrades",
            hung_worker_times_out_and_degrades,
        ),
        (
            "process_mode_budget_escalation_succeeds_on_attempt_three",
            process_mode_budget_escalation_succeeds_on_attempt_three,
        ),
        (
            "dead_supervisor_resumes_from_torn_checkpoint",
            dead_supervisor_resumes_from_torn_checkpoint,
        ),
    ];
    let mut failed = 0usize;
    for (name, test) in tests {
        match catch_unwind(AssertUnwindSafe(test)) {
            Ok(()) => eprintln!("test {name} ... ok"),
            Err(_) => {
                eprintln!("test {name} ... FAILED");
                failed += 1;
            }
        }
    }
    if failed > 0 {
        eprintln!(
            "{failed} of {} process-isolation test(s) failed",
            tests.len()
        );
        std::process::exit(1);
    }
}

/// A supervisor whose workers are this test binary in `worker` mode.
fn supervisor(workers: usize) -> Supervisor {
    Supervisor::self_exec(&["worker"], workers).expect("own executable must be locatable")
}

/// The shared six-cell spec grid the sweep tests run over.
fn specs() -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for bench in [BenchmarkId::Kmn, BenchmarkId::Mvt, BenchmarkId::Atx] {
        for sched in [SchedulerKind::Fcfs, SchedulerKind::SimtAware] {
            specs.push(RunSpec::new(bench, sched, Scale::Small));
        }
    }
    specs
}

fn healthy_process_sweep_matches_thread_rows() {
    let specs = specs();
    let threads = SweepExecutor::new(3).try_run(&specs);
    let processes = supervisor(3).try_run_cells(&specs);
    assert_eq!(threads.cells.len(), processes.cells.len());
    for (t, p) in threads.cells.iter().zip(&processes.cells) {
        assert_eq!(t.index, p.index);
        assert_eq!(t.label, p.label);
        let t_result = t.result.as_ref().expect("thread cell healthy");
        let p_result = p.result.as_ref().expect("process cell healthy");
        assert_eq!(t_result, p_result, "{} diverged across the pipe", t.label);
    }
}

fn aborting_worker_degrades_only_its_cell() {
    let clean = specs();
    let victim = 2;
    let mut faulty = clean.clone();
    faulty[victim].config = faulty[victim]
        .config
        .clone()
        .with_fault(FaultInjection::abort_at(1_000));

    // Two attempts with minimal backoff: proves the dead worker is
    // respawned, and that a deterministic abort still degrades.
    let report = supervisor(3)
        .with_retry(RetryPolicy {
            max_attempts: 2,
            budget_factor: 1,
            backoff_ms: 1,
        })
        .try_run_cells(&faulty);

    assert_eq!(report.cells.len(), clean.len());
    let failed: Vec<_> = report.failed().collect();
    assert_eq!(failed.len(), 1, "{}", report.failure_summary());
    assert_eq!(failed[0].index, victim);
    assert_eq!(failed[0].attempts, 2, "the aborting cell was retried");
    match &failed[0].result {
        Err(RunError::WorkerDied { message }) => {
            assert!(
                message.contains("signal"),
                "abort should surface as a signal death: {message}"
            );
        }
        other => panic!("expected WorkerDied, got {other:?}"),
    }
    for (i, cell) in report.cells.iter().enumerate() {
        if i == victim {
            continue;
        }
        let result = cell.result.as_ref().expect("healthy cell completed");
        let expected = run_benchmark(&clean[i]).expect("clean serial run");
        assert_eq!(result, &expected, "cell {i} diverged");
    }
}

fn hung_worker_times_out_and_degrades() {
    let clean = specs();
    let victim = 1;
    let mut faulty = clean.clone();
    faulty[victim].config = faulty[victim]
        .config
        .clone()
        .with_fault(FaultInjection::hang_at(1_000));

    // 2 s: an order of magnitude above a debug-build small cell's
    // round-trip, an eternity below the forever-hang it must cut short.
    let started = Instant::now();
    let report = supervisor(3)
        .with_retry(RetryPolicy::none())
        .with_cell_timeout(Some(Duration::from_secs(2)))
        .try_run_cells(&faulty);
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "the hung worker must have been killed, not waited out"
    );

    let failed: Vec<_> = report.failed().collect();
    assert_eq!(failed.len(), 1, "{}", report.failure_summary());
    assert_eq!(failed[0].index, victim);
    match &failed[0].result {
        Err(RunError::WorkerTimeout { timeout_ms }) => assert_eq!(*timeout_ms, 2_000),
        other => panic!("expected WorkerTimeout, got {other:?}"),
    }
    for (i, cell) in report.cells.iter().enumerate() {
        if i == victim {
            continue;
        }
        assert!(cell.result.is_ok(), "cell {i} should have completed");
    }
}

fn process_mode_budget_escalation_succeeds_on_attempt_three() {
    let spec = RunSpec::new(BenchmarkId::Kmn, SchedulerKind::Fcfs, Scale::Small);
    let clean = run_benchmark(&spec).expect("clean run");
    assert!(clean.events >= 16, "need a nontrivial run to starve");

    // Fails at B and 4B, passes at 16B: attempts one and two exhaust the
    // budget *inside the worker*, travel back as typed budget errors, and
    // the supervisor-side retry escalates — identical to the thread path.
    let budget = clean.events / 8;
    let mut starved = spec;
    starved.config.max_events = budget;
    let report = supervisor(1)
        .with_retry(RetryPolicy {
            max_attempts: 3,
            budget_factor: 4,
            backoff_ms: 1,
        })
        .try_run_cells(std::slice::from_ref(&starved));

    let cell = &report.cells[0];
    let result = cell
        .result
        .as_ref()
        .expect("third attempt must fit the escalated budget");
    assert_eq!(cell.attempts, 3);
    assert_eq!(cell.budget_events, budget * 16);
    assert_eq!(result, &clean, "escalated run diverged from the clean run");
}

fn dead_supervisor_resumes_from_torn_checkpoint() {
    let path =
        std::env::temp_dir().join(format!("ptw-process-resume-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
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
        (
            BenchmarkId::Mvt,
            SchedulerKind::Fcfs,
            ConfigVariant::Baseline,
        ),
        (
            BenchmarkId::Mvt,
            SchedulerKind::SimtAware,
            ConfigVariant::Baseline,
        ),
        (
            BenchmarkId::Atx,
            SchedulerKind::Fcfs,
            ConfigVariant::Baseline,
        ),
    ];

    // A supervisor that dies mid-sweep leaves the cells completed so far
    // (each appended durably as it arrived) plus, at worst, one torn
    // trailing line from an append cut off mid-write.
    let mut first = Lab::new(Scale::Small, 11);
    first.attach_checkpoint(&path).expect("create checkpoint");
    first.prefetch(&supervisor(2), keys[..3].iter().copied());
    assert_eq!(first.executed, 3);
    assert!(first.failures().is_empty());
    {
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .expect("reopen checkpoint");
        write!(file, "{{\"key\":\"KMN/FCFS/torn...").expect("write torn line");
    }

    // Resume: the three durable records load, the torn line is discarded,
    // and only the two missing cells run.
    let mut resumed = Lab::new(Scale::Small, 11);
    let loaded = resumed.attach_checkpoint(&path).expect("reopen checkpoint");
    assert_eq!(loaded, 3, "finished cells survive the crash");
    resumed.prefetch(&supervisor(2), keys);
    assert_eq!(resumed.executed, 2, "finished cells are not recomputed");
    assert!(resumed.failures().is_empty());

    // The resumed results are bit-identical to a from-scratch lab.
    let mut fresh = Lab::new(Scale::Small, 11);
    for (b, s, v) in keys {
        assert_eq!(
            fresh.result_with(b, s, v),
            resumed.result_with(b, s, v),
            "{b:?}/{s:?}"
        );
    }
    let _ = std::fs::remove_file(&path);
}
