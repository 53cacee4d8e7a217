//! Regenerates the paper's tables and figures.
//!
//! ```text
//! figures [NAMES...] [--scale small|medium|paper] [--seed N] [--quiet]
//!         [--csv DIR] [--jobs N | --serial] [--resume FILE]
//!         [--isolation thread|process] [--cell-timeout SECS]
//!         [--inject-fault BENCH:SCHED:KIND@EVENT] [--fail-fast]
//! figures worker        (internal: one-cell stdin/stdout worker)
//!
//! NAMES: table1 table2 fig2 fig3 fig4 fig5 fig6 fig8 fig9 fig10 fig11
//!        fig12 fig13 fig14 ablation followon seeds stats all (default: all)
//!        topology (explicit-only: never included in `all`)
//! ```
//!
//! Output is a sequence of markdown tables, one per figure, each with a
//! `paper` row citing the value the paper reports so measured-vs-paper can
//! be compared at a glance.
//!
//! The figures name their own runs: the requested figures are first
//! rendered against the run cache and thrown away, which records every run
//! they read, and those runs then fan out in one sweep on the chosen
//! executor (default: a thread pool with one worker per hardware thread;
//! `--jobs N` to pin, `--serial` for the single-threaded order). This
//! repeats until a render records nothing, and only then are the tables
//! printed. Runs are deterministic and merged in spec order, so every table
//! is byte-identical whatever the worker count. Each finished run prints a
//! progress line to stderr (key, attempts, host seconds, events or error)
//! unless `--quiet` is given.
//!
//! # Fault tolerance
//!
//! A failed run (panic, exhausted event budget, livelock) does not abort
//! the sweep: its cells render as `FAILED`, a summary of every failure
//! goes to stderr, and the process exits nonzero. `--fail-fast` instead
//! stops at the first failure. `--resume FILE` (alias `--checkpoint`)
//! persists every completed run to a JSONL checkpoint; rerunning with the
//! same file, scale and seed re-executes only the missing cells.
//! `--inject-fault kmn:fcfs:panic@1000` forces a deterministic fault into
//! one cell's run — the fault-injection hook the robustness tests and CI
//! smoke run use.
//!
//! `--isolation process` runs every cell in a freshly spawned copy of this
//! binary (`figures worker`): a crashed, aborted or hung cell kills only
//! its child process, is retried with backoff, and finally degrades to a
//! `FAILED` row while every other cell completes. `--cell-timeout SECS`
//! bounds each attempt's wall clock in that mode.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use ptw_core::sched::SchedulerKind;
use ptw_sim::config::{FaultInjection, FaultKind};
use ptw_sim::figures::{self, Render};
use ptw_sim::runner::{ConfigVariant, Lab};
use ptw_sim::sweep::{CellExecutor, SweepExecutor};
use ptw_sim::Supervisor;
use ptw_workloads::{BenchmarkId, Scale};

// `figures all | head` must exit cleanly when the reader closes the pipe,
// not panic mid-write: shadow `println!` with the checked writer.
macro_rules! println {
    ($($arg:tt)*) => { ptw_sim::out::println(format_args!($($arg)*)) };
}

/// Parses `BENCH:SCHED:KIND@EVENT` (case-insensitive), e.g.
/// `kmn:fcfs:panic@1000` or `mvt:simt-aware:abort@50000`.
fn parse_fault(s: &str) -> Option<(BenchmarkId, SchedulerKind, FaultInjection)> {
    let (head, at) = s.rsplit_once('@')?;
    let at_event: u64 = at.parse().ok()?;
    let mut parts = head.split(':');
    let bench = BenchmarkId::parse(parts.next()?)?;
    let sched = SchedulerKind::parse(parts.next()?)?;
    let kind = FaultKind::parse(parts.next()?)?;
    if parts.next().is_some() {
        return None;
    }
    Some((bench, sched, FaultInjection { kind, at_event }))
}

/// What `figures all` renders: every figure but the `topology` study,
/// which runs only when asked for by name (the `all` output is
/// equivalence-pinned).
fn all_figures() -> impl Iterator<Item = (&'static str, Render)> {
    figures::FIGURES
        .into_iter()
        .filter(|(name, _)| *name != "topology")
}

fn main() -> ExitCode {
    // `figures worker` is the internal entry the process-isolation
    // supervisor spawns: one spec in on stdin, one result line on stdout.
    if std::env::args().nth(1).as_deref() == Some("worker") {
        return ExitCode::from(ptw_sim::supervisor::worker_main());
    }

    // A sweep worker's caught panic is reported by the default hook, which
    // writes to stderr without taking its lock; holding the lock keeps the
    // report and backtrace from splicing into a progress line mid-line.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let _stderr = std::io::stderr().lock();
        default_hook(info);
    }));

    let mut wanted: Vec<(&str, Render)> = Vec::new();
    let mut scale = Scale::Medium;
    let mut seed = 0xC0FFEE_u64;
    let mut verbose = true;
    let mut csv_dir: Option<std::path::PathBuf> = None;
    let mut jobs = 0_usize; // 0 = one worker per hardware thread
    let mut process_isolation = false;
    let mut cell_timeout: Option<Duration> = None;
    let mut checkpoint: Option<std::path::PathBuf> = None;
    let mut fault: Option<(BenchmarkId, SchedulerKind, FaultInjection)> = None;
    let mut fail_fast = false;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                scale = match args.next().as_deref().and_then(Scale::parse) {
                    Some(s) => s,
                    None => {
                        eprintln!("--scale needs one of small|medium|paper");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--seed" => match args.next().and_then(|s| s.parse().ok()) {
                Some(s) => seed = s,
                None => {
                    eprintln!("--seed needs an integer");
                    return ExitCode::FAILURE;
                }
            },
            "--quiet" => verbose = false,
            "--csv" => match args.next() {
                Some(dir) => csv_dir = Some(dir.into()),
                None => {
                    eprintln!("--csv needs a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--jobs" => match args.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(n) => jobs = n, // 0 = auto
                None => {
                    eprintln!("--jobs needs an integer (0 = one per hardware thread)");
                    return ExitCode::FAILURE;
                }
            },
            "--serial" => jobs = 1,
            "--isolation" => match args.next().as_deref() {
                Some("thread") => process_isolation = false,
                Some("process") => process_isolation = true,
                _ => {
                    eprintln!("--isolation needs thread or process");
                    return ExitCode::FAILURE;
                }
            },
            "--cell-timeout" => match args.next().and_then(|s| s.parse::<u64>().ok()) {
                Some(secs) if secs > 0 => cell_timeout = Some(Duration::from_secs(secs)),
                _ => {
                    eprintln!("--cell-timeout needs a positive number of seconds");
                    return ExitCode::FAILURE;
                }
            },
            "--resume" | "--checkpoint" => match args.next() {
                Some(path) => checkpoint = Some(path.into()),
                None => {
                    eprintln!("{a} needs a file path");
                    return ExitCode::FAILURE;
                }
            },
            "--inject-fault" => match args.next().as_deref().and_then(parse_fault) {
                Some(f) => fault = Some(f),
                None => {
                    eprintln!(
                        "--inject-fault needs BENCH:SCHED:KIND@EVENT \
                         (e.g. kmn:fcfs:panic@1000; KIND is panic, livelock, abort or hang)"
                    );
                    return ExitCode::FAILURE;
                }
            },
            "--fail-fast" => fail_fast = true,
            "--keep-going" => fail_fast = false,
            "--help" | "-h" => {
                eprintln!(
                    "usage: figures [NAMES...] [--scale small|medium|paper] [--seed N] \
                     [--quiet] [--csv DIR] [--jobs N | --serial] [--resume FILE] \
                     [--isolation thread|process] [--cell-timeout SECS] \
                     [--inject-fault BENCH:SCHED:KIND@EVENT] [--fail-fast | --keep-going]\n\
                     names: {} all",
                    figures::FIGURES.map(|(name, _)| name).join(" ")
                );
                return ExitCode::SUCCESS;
            }
            "all" => wanted.extend(all_figures()),
            name => match figures::FIGURES.iter().find(|(n, _)| *n == name) {
                Some(&figure) => wanted.push(figure),
                None => {
                    eprintln!("unknown figure {name:?}; try --help");
                    return ExitCode::FAILURE;
                }
            },
        }
    }
    if wanted.is_empty() {
        wanted.extend(all_figures());
    }
    if cell_timeout.is_some() && !process_isolation {
        eprintln!("--cell-timeout requires --isolation process");
        return ExitCode::FAILURE;
    }
    let exec: Box<dyn CellExecutor> = if process_isolation {
        match Supervisor::self_exec(&["worker"], jobs) {
            Ok(sup) => Box::new(sup.with_cell_timeout(cell_timeout)),
            Err(e) => {
                eprintln!("cannot locate own executable for --isolation process: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        Box::new(SweepExecutor::new(jobs))
    };

    let started = Instant::now();
    let mut lab = Lab::new(scale, seed);
    lab.verbose = verbose;
    if let Some(path) = &checkpoint {
        match lab.attach_checkpoint(path) {
            Ok(resumed) if verbose => {
                eprintln!(
                    "[lab] checkpoint {}: {resumed} run(s) resumed",
                    path.display()
                );
            }
            Ok(_) => {}
            Err(e) => {
                eprintln!("cannot open checkpoint {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some((bench, sched, inj)) = fault {
        lab.set_fault((bench, sched, ConfigVariant::Baseline), inj);
        if verbose {
            eprintln!(
                "[lab] injecting {} into {bench} / {} at event {}",
                inj.kind.label(),
                sched.label(),
                inj.at_event
            );
        }
    }
    // Render the lab figures, throwing the tables away, to record the runs
    // they read; fan those out in one sweep and repeat until a render
    // records nothing. Printing below then hits only the lab cache (or its
    // failure ledger).
    loop {
        for (_, render) in &wanted {
            if let Render::Lab(f) = render {
                f(&mut lab);
            }
        }
        let missing = lab.take_missing();
        if missing.is_empty() {
            break;
        }
        lab.prefetch(&*exec, missing);
    }
    // Printing runs no lab cell, so the lab's failures are final here.
    if fail_fast && lab.has_failures() {
        eprintln!(
            "[figures] aborting (--fail-fast):\n{}",
            lab.failure_summary()
        );
        return ExitCode::FAILURE;
    }
    let mut extra_failures: Vec<String> = Vec::new();
    for (name, render) in wanted {
        let table = match render {
            Render::Static(f) => f(&lab),
            Render::Lab(f) => f(&mut lab),
            Render::Sweep(f) => {
                let (t, failures) = f(&lab, &*exec);
                extra_failures.extend(failures);
                t
            }
        };
        println!("{table}");
        if let Some(dir) = &csv_dir {
            if let Err(e) = std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(dir.join(format!("{name}.csv")), table.to_csv()))
            {
                eprintln!("failed to write {name}.csv: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if verbose {
        eprintln!(
            "[lab] {} simulation runs executed on {} worker(s) in {:.1}s",
            lab.executed,
            exec.workers(),
            started.elapsed().as_secs_f64()
        );
    }
    let failed = lab.failures().len() + extra_failures.len();
    if failed > 0 {
        eprintln!("[figures] {failed} cell(s) FAILED:");
        let summary = lab.failure_summary();
        if !summary.is_empty() {
            eprintln!("{summary}");
        }
        for line in &extra_failures {
            eprintln!("{line}");
        }
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
