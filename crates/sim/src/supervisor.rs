//! Process-isolated sweep execution: spawn, feed, supervise, reap.
//!
//! The in-process [`SweepExecutor`](crate::sweep::SweepExecutor) survives
//! a panicking cell but nothing harsher: an abort, a stack overflow, an
//! OOM kill, or a cell that wedges past the livelock watchdog takes the
//! whole sweep with it. [`Supervisor`] runs each cell in a **child
//! process** instead — the sweep binary re-invoked in `worker` mode — so
//! the blast radius of any failure is one process:
//!
//! * the spec travels to the worker as one JSON line on stdin
//!   ([`crate::wire::encode_spec`]); the worker answers with one line and
//!   exits;
//! * a worker that exceeds the per-cell wall-clock timeout is killed and
//!   reaped, classified [`RunError::WorkerTimeout`];
//! * a worker that exits nonzero, dies to a signal, or produces no
//!   decodable response line is classified [`RunError::WorkerDied`] with a
//!   tail of its stderr;
//! * both classifications are retryable — host-side conditions (memory
//!   pressure, scheduling) are not deterministic — so the shared
//!   `retry_loop` respawns with exponential backoff and the same budget
//!   escalation as the in-process path;
//! * a cell whose retries are exhausted degrades to a FAILED row exactly
//!   like the thread-isolated path; the other cells complete.
//!
//! Spec-order merge, dynamic distribution, and the streaming-checkpoint
//! sink all come from the same `fan_out_cells` engine the thread path
//! uses, so the two isolation modes produce identical result rows for an
//! all-healthy sweep.

use std::io::{BufReader, Read, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use crate::error::RunError;
use crate::runner::{run_benchmark, RunSpec};
use crate::sweep::{
    fan_out_cells, retry_loop, CellExecutor, CellOutcome, RetryPolicy, SweepReport,
};
use crate::system::RunResult;
use crate::wire::{decode_response, decode_spec, encode_response, encode_spec};

/// Default base backoff before respawning a dead worker. Nonzero, unlike
/// the in-process default: a worker killed by host-side pressure benefits
/// from being respawned into a calmer machine.
pub const DEFAULT_BACKOFF_MS: u64 = 250;

/// How long the stderr tail kept in a [`RunError::WorkerDied`] may grow.
const STDERR_TAIL_BYTES: usize = 512;

/// Poll interval while waiting on a child with a deadline.
const REAP_POLL: Duration = Duration::from_millis(10);

/// Runs sweep cells in supervised child processes.
#[derive(Clone, Debug)]
pub struct Supervisor {
    /// Worker command line: program followed by its arguments.
    command: Vec<String>,
    workers: usize,
    retry: RetryPolicy,
    cell_timeout: Option<Duration>,
}

impl Supervisor {
    /// A supervisor spawning `command` (program + arguments, e.g.
    /// `["target/release/figures", "worker"]`) on `workers` concurrent
    /// children; `0` means one per available hardware thread.
    ///
    /// # Panics
    ///
    /// Panics if `command` is empty.
    pub fn new(command: Vec<String>, workers: usize) -> Self {
        assert!(!command.is_empty(), "worker command must name a program");
        let workers = if workers == 0 {
            thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            workers
        };
        Supervisor {
            command,
            workers,
            retry: RetryPolicy::default().with_backoff_ms(DEFAULT_BACKOFF_MS),
            cell_timeout: None,
        }
    }

    /// A supervisor whose workers are this very executable re-invoked with
    /// the given arguments — the usual arrangement for the sweep binaries.
    pub fn self_exec(args: &[&str], workers: usize) -> std::io::Result<Self> {
        let exe = std::env::current_exe()?;
        let mut command = vec![exe.to_string_lossy().into_owned()];
        command.extend(args.iter().map(|s| (*s).to_owned()));
        Ok(Self::new(command, workers))
    }

    /// The same supervisor with a different retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// The same supervisor with a per-cell wall-clock timeout: a worker
    /// still running after `timeout` is killed, reaped, and classified
    /// [`RunError::WorkerTimeout`]. `None` (the default) waits forever.
    pub fn with_cell_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.cell_timeout = timeout;
        self
    }

    /// The retry policy in use.
    pub fn retry(&self) -> RetryPolicy {
        self.retry
    }

    /// The per-cell timeout in use.
    pub fn cell_timeout(&self) -> Option<Duration> {
        self.cell_timeout
    }

    /// Runs one spec in one supervised child process — a **single
    /// attempt**, no retry. [`run_cells`](CellExecutor::run_cells) wraps
    /// this in the shared retry loop; a caller timing one supervised
    /// round-trip uses it directly so respawns never pollute the time.
    pub fn run_spec(&self, spec: &RunSpec) -> Result<RunResult, RunError> {
        self.run_one(spec)
    }

    /// Runs one spec in one fresh child process: spawn, feed the spec,
    /// drain, wait (bounded by the cell timeout), classify.
    fn run_one(&self, spec: &RunSpec) -> Result<RunResult, RunError> {
        let mut child = Command::new(&self.command[0])
            .args(&self.command[1..])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| RunError::WorkerDied {
                message: format!("spawn of {} failed: {e}", self.command[0]),
            })?;

        // Feed the spec and close stdin so the worker sees EOF. A write
        // failure here means the child died before reading — fall through
        // and classify from its exit status.
        if let Some(mut stdin) = child.stdin.take() {
            let _ = writeln!(stdin, "{}", encode_spec(spec));
        }

        // Drain stdout/stderr on their own threads so a chatty worker can
        // never deadlock against a full pipe buffer while we wait on it.
        let stdout = child.stdout.take().expect("stdout was piped");
        let stderr = child.stderr.take().expect("stderr was piped");
        let out_thread = thread::spawn(move || read_all(stdout));
        let err_thread = thread::spawn(move || read_all(stderr));

        let status = match self.wait_with_deadline(&mut child) {
            Ok(status) => status,
            Err(e) => {
                // Kill + reap, but do not join the drainers: a descendant
                // of the worker (e.g. a command under `sh -c`) can keep the
                // pipes open past the kill. The drainers exit on their own
                // once the last writer closes them.
                let _ = child.kill();
                let _ = child.wait();
                return Err(e);
            }
        };
        let stdout = out_thread.join().unwrap_or_default();
        let stderr = err_thread.join().unwrap_or_default();

        if !status.success() {
            return Err(RunError::WorkerDied {
                message: format!("{status}; stderr: {}", tail(&stderr)),
            });
        }
        let line = stdout.lines().find(|l| !l.trim().is_empty()).unwrap_or("");
        decode_response(line).unwrap_or_else(|| {
            Err(RunError::WorkerDied {
                message: format!(
                    "exited 0 without a decodable response line (got {:?}); stderr: {}",
                    truncate(line, 120),
                    tail(&stderr)
                ),
            })
        })
    }

    /// Waits for `child`, bounded by the cell timeout. An `Err` means the
    /// child is still running (deadline passed) or unobservable; it is not
    /// yet killed — the caller kills and reaps.
    fn wait_with_deadline(&self, child: &mut Child) -> Result<std::process::ExitStatus, RunError> {
        let died = |e: std::io::Error| RunError::WorkerDied {
            message: format!("wait on worker failed: {e}"),
        };
        let Some(timeout) = self.cell_timeout else {
            return child.wait().map_err(died);
        };
        let deadline = Instant::now() + timeout;
        loop {
            match child.try_wait() {
                Ok(Some(status)) => return Ok(status),
                Ok(None) => {
                    if Instant::now() >= deadline {
                        return Err(RunError::WorkerTimeout {
                            timeout_ms: timeout.as_millis() as u64,
                        });
                    }
                    thread::sleep(REAP_POLL);
                }
                Err(e) => return Err(died(e)),
            }
        }
    }
}

impl CellExecutor for Supervisor {
    fn workers(&self) -> usize {
        self.workers
    }

    fn run_cells(&self, specs: &[RunSpec], sink: &mut dyn FnMut(&CellOutcome)) -> SweepReport {
        fan_out_cells(self.workers, specs, sink, &|spec| {
            retry_loop(spec, self.retry, |s| self.run_one(s))
        })
    }
}

fn read_all(mut r: impl Read) -> String {
    let mut buf = String::new();
    let _ = BufReader::new(&mut r).read_to_string(&mut buf);
    buf
}

/// The last [`STDERR_TAIL_BYTES`] of `s`, newlines flattened, or a
/// placeholder when the worker said nothing.
fn tail(s: &str) -> String {
    let s = s.trim();
    if s.is_empty() {
        return "(empty)".to_owned();
    }
    let start = s.len().saturating_sub(STDERR_TAIL_BYTES);
    let mut at = start;
    while at < s.len() && !s.is_char_boundary(at) {
        at += 1;
    }
    s[at..].replace('\n', " | ")
}

fn truncate(s: &str, max: usize) -> String {
    if s.len() <= max {
        return s.to_owned();
    }
    let mut at = max;
    while at > 0 && !s.is_char_boundary(at) {
        at -= 1;
    }
    format!("{}…", &s[..at])
}

/// The worker half of the protocol: reads one spec line from stdin, runs
/// it (panics caught), writes one response line to stdout, and returns the
/// process exit code. The sweep binaries dispatch their `worker`
/// subcommand here.
pub fn worker_main() -> u8 {
    let mut line = String::new();
    if std::io::stdin().read_line(&mut line).is_err() {
        eprintln!("worker: failed to read the spec line from stdin");
        return 2;
    }
    let Some(spec) = decode_spec(line.trim()) else {
        eprintln!(
            "worker: malformed spec line: {:?}",
            truncate(line.trim(), 200)
        );
        return 2;
    };
    let result = match catch_unwind(AssertUnwindSafe(|| run_benchmark(&spec))) {
        Ok(r) => r,
        Err(payload) => {
            let message = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_owned()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_owned()
            };
            Err(RunError::Panicked { message })
        }
    };
    let stdout = std::io::stdout();
    let mut lock = stdout.lock();
    let wrote = writeln!(lock, "{}", encode_response(&result)).and_then(|()| lock.flush());
    if wrote.is_err() {
        // The supervisor is gone; nothing useful left to report.
        return 3;
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spawn_failure_is_a_dead_worker() {
        let sup = Supervisor::new(vec!["/nonexistent/ptw-worker-binary".into()], 1)
            .with_retry(RetryPolicy::none());
        let spec = RunSpec::new(
            ptw_workloads::BenchmarkId::Kmn,
            ptw_core::sched::SchedulerKind::Fcfs,
            ptw_workloads::Scale::Small,
        );
        let report = sup.try_run_cells(std::slice::from_ref(&spec));
        match &report.cells[0].result {
            Err(RunError::WorkerDied { message }) => {
                assert!(message.contains("spawn"), "{message}");
            }
            other => panic!("expected WorkerDied, got {other:?}"),
        }
    }

    #[test]
    fn garbled_worker_output_is_a_dead_worker() {
        // `true` exits 0 without writing a response line.
        let sup = Supervisor::new(vec!["/bin/true".into()], 1).with_retry(RetryPolicy::none());
        let spec = RunSpec::new(
            ptw_workloads::BenchmarkId::Kmn,
            ptw_core::sched::SchedulerKind::Fcfs,
            ptw_workloads::Scale::Small,
        );
        let report = sup.try_run_cells(std::slice::from_ref(&spec));
        match &report.cells[0].result {
            Err(RunError::WorkerDied { message }) => {
                assert!(message.contains("decodable"), "{message}");
            }
            other => panic!("expected WorkerDied, got {other:?}"),
        }
    }

    #[test]
    fn nonzero_exit_is_a_dead_worker_with_stderr_tail() {
        let sup = Supervisor::new(
            vec![
                "/bin/sh".into(),
                "-c".into(),
                "echo boom-diagnostic >&2; exit 7".into(),
            ],
            1,
        )
        .with_retry(RetryPolicy::none());
        let spec = RunSpec::new(
            ptw_workloads::BenchmarkId::Kmn,
            ptw_core::sched::SchedulerKind::Fcfs,
            ptw_workloads::Scale::Small,
        );
        let report = sup.try_run_cells(std::slice::from_ref(&spec));
        match &report.cells[0].result {
            Err(RunError::WorkerDied { message }) => {
                assert!(message.contains("boom-diagnostic"), "{message}");
            }
            other => panic!("expected WorkerDied, got {other:?}"),
        }
        assert_eq!(report.cells[0].attempts, 1);
    }

    #[test]
    fn timeout_kills_and_classifies() {
        let sup = Supervisor::new(vec!["/bin/sh".into(), "-c".into(), "sleep 30".into()], 1)
            .with_retry(RetryPolicy::none())
            .with_cell_timeout(Some(Duration::from_millis(200)));
        let spec = RunSpec::new(
            ptw_workloads::BenchmarkId::Kmn,
            ptw_core::sched::SchedulerKind::Fcfs,
            ptw_workloads::Scale::Small,
        );
        let started = Instant::now();
        let report = sup.try_run_cells(std::slice::from_ref(&spec));
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "the child was killed, not waited out"
        );
        match &report.cells[0].result {
            Err(RunError::WorkerTimeout { timeout_ms }) => assert_eq!(*timeout_ms, 200),
            other => panic!("expected WorkerTimeout, got {other:?}"),
        }
    }

    #[test]
    fn dead_workers_are_retried_with_backoff() {
        let sup = Supervisor::new(vec!["/bin/false".into()], 1).with_retry(RetryPolicy {
            max_attempts: 3,
            budget_factor: 1,
            backoff_ms: 1,
        });
        let spec = RunSpec::new(
            ptw_workloads::BenchmarkId::Kmn,
            ptw_core::sched::SchedulerKind::Fcfs,
            ptw_workloads::Scale::Small,
        );
        let report = sup.try_run_cells(std::slice::from_ref(&spec));
        assert_eq!(report.cells[0].attempts, 3, "every attempt consumed");
        assert!(matches!(
            report.cells[0].result,
            Err(RunError::WorkerDied { .. })
        ));
    }

    #[test]
    fn tail_and_truncate_respect_char_boundaries() {
        let s = "µ".repeat(600);
        assert!(tail(&s).len() <= STDERR_TAIL_BYTES + 2);
        assert!(truncate(&s, 7).starts_with('µ'));
        assert_eq!(tail(""), "(empty)");
    }
}
