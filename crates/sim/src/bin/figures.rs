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
//! The simulation runs behind the requested figures are prefetched on a
//! thread pool (default: one worker per hardware thread; `--jobs N` to
//! pin, `--serial` for the single-threaded order). Runs are deterministic
//! and merged in spec order, so every table is byte-identical whatever the
//! worker count.
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
use ptw_sim::figures;
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

fn main() -> ExitCode {
    // `figures worker` is the internal entry the process-isolation
    // supervisor spawns: one spec in on stdin, one result line on stdout.
    if std::env::args().nth(1).as_deref() == Some("worker") {
        return ExitCode::from(ptw_sim::supervisor::worker_main());
    }

    let mut names: Vec<String> = Vec::new();
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
                     names: {} all topology",
                    figures::NAMES.join(" ")
                );
                return ExitCode::SUCCESS;
            }
            "all" => names.extend(figures::NAMES.iter().map(|s| (*s).to_owned())),
            // Explicit-only studies: never part of `all` (whose output is
            // equivalence-pinned), must be asked for by name.
            "topology" => names.push(a),
            name if figures::NAMES.contains(&name) => names.push(name.to_owned()),
            other => {
                eprintln!("unknown figure {other:?}; try --help");
                return ExitCode::FAILURE;
            }
        }
    }
    if names.is_empty() {
        names.extend(figures::NAMES.iter().map(|s| (*s).to_owned()));
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
    // Fan the requested figures' runs out across the executor up front;
    // rendering below then hits only the lab cache (or its failure ledger).
    let wanted: Vec<_> = names
        .iter()
        .flat_map(|n| figures::prefetch_keys(n))
        .collect();
    lab.prefetch(&*exec, wanted);
    let mut extra_failures: Vec<String> = Vec::new();
    if fail_fast && lab.has_failures() {
        eprintln!(
            "[figures] aborting (--fail-fast):\n{}",
            lab.failure_summary()
        );
        return ExitCode::FAILURE;
    }
    for name in &names {
        let table = match name.as_str() {
            "table1" => figures::table1(),
            "table2" => figures::table2(&lab),
            "fig2" => figures::fig2(&mut lab),
            "fig3" => figures::fig3(&mut lab),
            "fig4" => figures::fig4(),
            "fig5" => figures::fig5(&mut lab),
            "fig6" => figures::fig6(&mut lab),
            "fig8" => figures::fig8(&mut lab),
            "fig9" => figures::fig9(&mut lab),
            "fig10" => figures::fig10(&mut lab),
            "fig11" => figures::fig11(&mut lab),
            "fig12" => figures::fig12(&mut lab),
            "fig13" => figures::fig13(&mut lab),
            "fig14" => figures::fig14(&mut lab),
            "ablation" => figures::ablation(&mut lab),
            "stats" => figures::stats(&mut lab),
            "followon" => figures::followon(&mut lab),
            "seeds" => {
                let (t, failures) = figures::seeds(&lab, &*exec);
                extra_failures.extend(failures);
                t
            }
            "topology" => {
                let (t, failures) = figures::topology(&lab, &*exec);
                extra_failures.extend(failures);
                t
            }
            _ => unreachable!("validated above"),
        };
        println!("{table}");
        if fail_fast && lab.has_failures() {
            eprintln!(
                "[figures] aborting (--fail-fast):\n{}",
                lab.failure_summary()
            );
            return ExitCode::FAILURE;
        }
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
