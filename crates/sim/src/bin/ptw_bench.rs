//! Simulator-throughput benchmark harness (`ptw-bench`).
//!
//! Measures how fast the *simulator itself* runs — events per wall-clock
//! second — so performance PRs have a recorded baseline instead of a
//! claim. One cell = one serial `(benchmark, scheduler)` run of the Table
//! I baseline system; the sweep covers every Table II benchmark × every
//! extended scheduling policy.
//!
//! ```text
//! ptw-bench [--scale small|medium|paper] [--seed N]
//!           [--reps N]              # timed repetitions per cell (default 3)
//!           [--jobs N]              # cells on N threads, 0 = auto (default 1)
//!           [--policies LIST]       # comma-separated subset (default: all 7)
//!           [--topology NxM]        # N GPU shards x M IOMMUs (default 1x1)
//!           [--large-page-frac F]   # 2 MiB promotion fraction in permille
//!           [--isolation MODE]      # thread (default) or process
//!           [--cell-timeout SECS]   # per-attempt wall bound (process mode)
//!           [--pin]                 # pin workers to CPUs (process mode)
//!           [--out FILE]            # write/refresh a BENCH_*.json baseline
//!           [--label TEXT]          # history label recorded with --out
//!           [--check FILE]          # CI smoke: compare against a baseline
//!           [--max-regress PCT]     # allowed events/sec regression (default 20)
//!           [--ab BASELINE_BIN]     # interleaved A/B against an older binary
//!           [--quiet]
//! ptw-bench worker                  # internal: one-cell stdin/stdout worker
//! ```
//!
//! `--ab OLD_BIN` measures a perf PR the way the box's ±4% day-to-day
//! drift demands: instead of comparing today's sweep against a JSON
//! recorded last week, it runs every cell through *both* binaries in the
//! same session — baseline rep, candidate rep, alternating which side
//! goes first — and reports the **median of paired wall-time ratios**
//! per cell plus a geometric mean across cells. Both sides run as
//! supervised one-cell child processes (the `worker` entry both binaries
//! expose), so spawn and hand-off overhead cancel out of the ratio. Wall
//! time, not events/s, is the compared quantity: a change to how events
//! are batched or split lets the two binaries legitimately pop different
//! event counts for the same simulated run, and the ratio of
//! simulated-events-per-second would conflate that with host speed. The greppable `ab-summary:` /
//! `ab-xsb:` lines carry the headline numbers (EXPERIMENTS.md §PR 10).
//!
//! `--topology` and `--large-page-frac` override the Table I baseline's
//! single-IOMMU all-4K configuration for every cell; when either is given,
//! the run ends with a greppable `topology-smoke:` aggregate line (total
//! 2 MiB walks, the least-loaded IOMMU's walk count, worst imbalance).
//!
//! Each cell is simulated `--reps` times and timed independently; the
//! recorded `wall_ms` is the **minimum** across repetitions (the run
//! least disturbed by the host), with the median kept alongside as a
//! noise indicator. Simulated event counts are deterministic across
//! repetitions, so only the wall clock varies.
//!
//! `--jobs N` fans whole cells across threads through [`SweepExecutor`]
//! (`0` = one worker per hardware thread, matching `figures --jobs 0`);
//! repetitions stay serial within a cell and the JSON output is in spec
//! order at any worker count. **Timing-noise caveat:** concurrent cells
//! contend for cache and memory bandwidth, inflating per-cell wall times
//! — use parallelism to shorten exploratory sweeps, but record committed
//! baselines at `--jobs 1` (min-of-reps absorbs scheduling blips, not
//! sustained contention).
//!
//! `--out` writes the JSON baseline (schema: `{commit, date, scale, reps,
//! cells: [{bench, sched, events, wall_ms, wall_ms_median,
//! events_per_sec}], total, ci_smoke, history}`). An existing file's
//! `history` array is carried over and the new aggregate appended, so
//! successive refreshes record the perf trajectory. `ci_smoke` holds a
//! small-scale aggregate used by the CI bench smoke: `--check
//! FILE` re-runs the small sweep (same min-of-reps rule) and exits
//! nonzero if measured events/sec fall more than `--max-regress` percent
//! below the stored smoke baseline.
//!
//! `--isolation process` runs every repetition in a freshly spawned copy
//! of this binary (`ptw-bench worker`), timing the full supervised
//! round-trip — spawn, spec hand-off, simulation, result decode. That
//! measures process-isolated sweep cost (what `figures --isolation
//! process` pays per cell), not raw simulator throughput; committed
//! baselines stay thread-mode.
//!
//! Wall-clock numbers are machine-dependent; refresh baselines on the
//! machine that will compare against them.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use ptw_core::sched::SchedulerKind;
use ptw_mem::controller::MemStats;
use ptw_sim::json::{escape, Value};
use ptw_sim::runner::{run_benchmark, RunSpec};
use ptw_sim::sweep::SweepExecutor;
use ptw_sim::Supervisor;
use ptw_workloads::{BenchmarkId, Scale};

// `ptw-bench ... | head` must exit cleanly when the reader closes the
// pipe, not panic mid-write: shadow `println!` with the checked writer.
macro_rules! println {
    ($($arg:tt)*) => { ptw_sim::out::println(format_args!($($arg)*)) };
}

/// One measured `(benchmark, scheduler)` cell. `wall_ms` is the minimum
/// across repetitions; `wall_ms_median` the median (noise indicator).
struct Cell {
    bench: BenchmarkId,
    sched: SchedulerKind,
    events: u64,
    wall_ms: f64,
    wall_ms_median: f64,
    /// 2 MiB walks performed (summed over IOMMUs); zero in all-4K runs.
    large_walks: u64,
    /// Walks per IOMMU, in topology order.
    per_iommu_walks: Vec<u64>,
    /// Busiest IOMMU's walks over the mean (1.0 = balanced).
    imbalance: f64,
    /// DRAM counters (row locality + queue occupancy), from the first
    /// repetition — deterministic, like the event count.
    mem: MemStats,
}

impl Cell {
    fn events_per_sec(&self) -> f64 {
        if self.wall_ms <= 0.0 {
            0.0
        } else {
            self.events as f64 / (self.wall_ms / 1000.0)
        }
    }
}

/// Topology overrides applied to every cell of a sweep
/// (`None` / 0‰ = the Table I single-IOMMU all-4K baseline).
#[derive(Clone, Copy)]
struct TopologyShape {
    /// `(gpu_shards, iommus)` when `--topology NxM` was given.
    topology: Option<(usize, usize)>,
    /// `--large-page-frac` in permille (0 = all 4K).
    large_page_permille: u32,
}

impl TopologyShape {
    const BASELINE: TopologyShape = TopologyShape {
        topology: None,
        large_page_permille: 0,
    };

    fn is_baseline(self) -> bool {
        self.topology.is_none() && self.large_page_permille == 0
    }
}

/// A sweep's aggregate throughput.
struct Totals {
    events: u64,
    wall_ms: f64,
}

impl Totals {
    fn of(cells: &[Cell]) -> Totals {
        Totals {
            events: cells.iter().map(|c| c.events).sum(),
            wall_ms: cells.iter().map(|c| c.wall_ms).sum(),
        }
    }

    fn events_per_sec(&self) -> f64 {
        if self.wall_ms <= 0.0 {
            0.0
        } else {
            self.events as f64 / (self.wall_ms / 1000.0)
        }
    }
}

/// Times one `(benchmark, scheduler)` cell: `reps` serial repetitions on
/// the calling thread, recording the minimum and median wall time. Event
/// counts are deterministic per cell, so the first repetition's count
/// stands for all of them. With a supervisor, each repetition is one
/// supervised child process and the wall time covers the full round-trip.
#[allow(clippy::too_many_arguments)]
fn time_cell(
    bench: BenchmarkId,
    sched: SchedulerKind,
    scale: Scale,
    seed: u64,
    reps: usize,
    shape: TopologyShape,
    supervisor: Option<&Supervisor>,
) -> Result<Cell, String> {
    let mut spec = RunSpec::new(bench, sched, scale);
    spec.seed = seed;
    if let Some((shards, iommus)) = shape.topology {
        spec.config = spec.config.with_topology(shards, iommus);
    }
    spec.config = spec
        .config
        .with_large_page_permille(shape.large_page_permille);
    let mut walls = Vec::with_capacity(reps);
    let mut events = 0u64;
    let mut large_walks = 0u64;
    let mut per_iommu_walks = Vec::new();
    let mut imbalance = 1.0f64;
    let mut mem = MemStats::default();
    for rep in 0..reps {
        let started = Instant::now();
        let result = match supervisor {
            Some(sup) => sup.run_spec(&spec),
            None => run_benchmark(&spec),
        }
        .map_err(|e| format!("bench cell {} failed: {e}", spec.label()))?;
        walls.push(started.elapsed().as_secs_f64() * 1000.0);
        if rep == 0 {
            events = result.events;
            large_walks = result.iommu.large_walks_performed;
            per_iommu_walks = result.per_iommu_walks;
            imbalance = result.iommu_imbalance;
            mem = result.mem;
        } else {
            debug_assert_eq!(events, result.events, "simulation must be deterministic");
        }
    }
    walls.sort_by(f64::total_cmp);
    Ok(Cell {
        bench,
        sched,
        events,
        wall_ms: walls[0],
        wall_ms_median: walls[walls.len() / 2],
        large_walks,
        per_iommu_walks,
        imbalance,
        mem,
    })
}

/// Runs the benchmark × `policies` sweep at `scale`, fanning **cells**
/// across `jobs` worker threads (`0` = one per hardware thread, matching
/// `figures --jobs 0`). Repetitions stay serial *within* each cell and the
/// returned cells are always in spec order, so the output is deterministic
/// at any worker count — but concurrent cells contend for cache and memory
/// bandwidth, which inflates per-cell wall times. Committed baselines
/// should be recorded with `jobs = 1`.
#[allow(clippy::too_many_arguments)]
fn sweep(
    scale: Scale,
    seed: u64,
    reps: usize,
    jobs: usize,
    policies: &[SchedulerKind],
    shape: TopologyShape,
    supervisor: Option<&Supervisor>,
    quiet: bool,
) -> Result<Vec<Cell>, String> {
    assert!(reps >= 1, "sweep needs at least one repetition");
    let mut specs = Vec::new();
    for bench in BenchmarkId::ALL {
        for &sched in policies {
            specs.push((bench, sched));
        }
    }
    let outcomes = SweepExecutor::new(jobs).map(&specs, |_, &(bench, sched)| {
        time_cell(bench, sched, scale, seed, reps, shape, supervisor)
    });
    let mut cells = Vec::with_capacity(outcomes.len());
    for outcome in outcomes {
        let cell = outcome?;
        if !quiet {
            eprintln!(
                "[ptw-bench] {} / {} — {} events, min {:.1} ms / median {:.1} ms \
                 over {reps} reps ({:.0} events/s)",
                cell.bench,
                cell.sched.label(),
                cell.events,
                cell.wall_ms,
                cell.wall_ms_median,
                cell.events_per_sec()
            );
            eprintln!(
                "[ptw-bench]   dram: hit_rate {:.3}, depth peak {} / mean {:.2}, \
                 busy banks peak {} / mean {:.2}",
                cell.mem.row_hit_rate(),
                cell.mem.peak_queue_depth,
                cell.mem.mean_queue_depth(),
                cell.mem.peak_busy_banks,
                cell.mem.mean_busy_banks()
            );
        }
        cells.push(cell);
    }
    Ok(cells)
}

/// Parses a comma-separated policy list (`fcfs,simt-aware`, any label
/// spelling [`SchedulerKind::parse`] accepts).
fn parse_policies(list: &str) -> Result<Vec<SchedulerKind>, String> {
    let mut out = Vec::new();
    for name in list.split(',') {
        let kind = SchedulerKind::parse(name)
            .ok_or_else(|| format!("unknown policy {name:?} in --policies"))?;
        if !out.contains(&kind) {
            out.push(kind);
        }
    }
    if out.is_empty() {
        return Err("--policies needs at least one policy".to_string());
    }
    Ok(out)
}

/// `git rev-parse HEAD`, or `"unknown"` outside a git checkout.
fn current_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Today's UTC date as `YYYY-MM-DD`, derived from the system clock with
/// the classic civil-from-days conversion (no chrono dependency).
fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let days = (secs / 86_400) as i64;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

fn cell_json(c: &Cell) -> String {
    format!(
        "{{\"bench\": \"{}\", \"sched\": \"{}\", \"events\": {}, \"wall_ms\": {:.3}, \
         \"wall_ms_median\": {:.3}, \"events_per_sec\": {:.1}, \"dram_hit_rate\": {:.4}, \
         \"dram_peak_depth\": {}, \"dram_mean_depth\": {:.2}}}",
        c.bench,
        escape(c.sched.label()),
        c.events,
        c.wall_ms,
        c.wall_ms_median,
        c.events_per_sec(),
        c.mem.row_hit_rate(),
        c.mem.peak_queue_depth,
        c.mem.mean_queue_depth()
    )
}

fn totals_json(t: &Totals) -> String {
    format!(
        "{{\"events\": {}, \"wall_ms\": {:.3}, \"events_per_sec\": {:.1}}}",
        t.events,
        t.wall_ms,
        t.events_per_sec()
    )
}

/// Re-encodes a history entry loaded from a previous baseline file.
fn history_entry_json(v: &Value) -> Option<String> {
    let label = v.get("label")?.as_str()?;
    let commit = v.get("commit").and_then(Value::as_str).unwrap_or("unknown");
    let date = v.get("date").and_then(Value::as_str).unwrap_or("unknown");
    let eps = v.get("events_per_sec")?.as_f64()?;
    Some(format!(
        "{{\"label\": \"{}\", \"commit\": \"{}\", \"date\": \"{}\", \"events_per_sec\": {eps:.1}}}",
        escape(label),
        escape(commit),
        escape(date)
    ))
}

/// Builds the complete baseline JSON document.
#[allow(clippy::too_many_arguments)]
fn render_baseline(
    scale: Scale,
    reps: usize,
    jobs: usize,
    policies: &[SchedulerKind],
    cells: &[Cell],
    smoke: &Totals,
    prior_history: &[String],
    label: &str,
) -> String {
    let total = Totals::of(cells);
    let commit = current_commit();
    let date = today_utc();
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"commit\": \"{}\",", escape(&commit));
    let _ = writeln!(out, "  \"date\": \"{date}\",");
    let _ = writeln!(out, "  \"scale\": \"{}\",", scale.label());
    let _ = writeln!(out, "  \"reps\": {reps},");
    let _ = writeln!(out, "  \"jobs\": {jobs},");
    let _ = writeln!(
        out,
        "  \"policies\": [{}],",
        policies
            .iter()
            .map(|p| format!("\"{}\"", escape(p.label())))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(out, "  \"cells\": [");
    for (i, c) in cells.iter().enumerate() {
        let comma = if i + 1 < cells.len() { "," } else { "" };
        let _ = writeln!(out, "    {}{comma}", cell_json(c));
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"total\": {},", totals_json(&total));
    let _ = writeln!(
        out,
        "  \"ci_smoke\": {{\"scale\": \"small\", \"events\": {}, \"wall_ms\": {:.3}, \
         \"events_per_sec\": {:.1}}},",
        smoke.events,
        smoke.wall_ms,
        smoke.events_per_sec()
    );
    let _ = writeln!(out, "  \"history\": [");
    let new_entry = format!(
        "{{\"label\": \"{}\", \"commit\": \"{}\", \"date\": \"{date}\", \
         \"events_per_sec\": {:.1}}}",
        escape(label),
        escape(&commit),
        total.events_per_sec()
    );
    for h in prior_history {
        let _ = writeln!(out, "    {h},");
    }
    let _ = writeln!(out, "    {new_entry}");
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

/// Loads the history array from an existing baseline file (empty when the
/// file is missing or unparseable — a refresh must never fail on it).
fn load_history(path: &str) -> Vec<String> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let Some(doc) = Value::parse(&text) else {
        eprintln!("[ptw-bench] warning: {path} is not valid JSON; starting fresh history");
        return Vec::new();
    };
    doc.get("history")
        .and_then(Value::as_arr)
        .map(|entries| entries.iter().filter_map(history_entry_json).collect())
        .unwrap_or_default()
}

/// The committed small-scale smoke baseline (events/sec) from `path`.
fn load_smoke_baseline(path: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = Value::parse(&text).ok_or_else(|| format!("{path} is not valid JSON"))?;
    doc.get("ci_smoke")
        .and_then(|s| s.get("events_per_sec"))
        .and_then(Value::as_f64)
        .filter(|eps| *eps > 0.0)
        .ok_or_else(|| format!("{path} has no ci_smoke.events_per_sec"))
}

/// One cell of an interleaved A/B comparison.
struct AbCell {
    bench: BenchmarkId,
    sched: SchedulerKind,
    /// Events popped by each binary (deterministic per side; they differ
    /// when the candidate fuses events the baseline does not).
    base_events: u64,
    cand_events: u64,
    /// Minimum wall time across repetitions, per side.
    base_wall_ms: f64,
    cand_wall_ms: f64,
    /// Median of the per-repetition paired `baseline / candidate` wall
    /// ratios (> 1 means the candidate is faster).
    ratio: f64,
}

/// Times one supervised single-cell child run, returning `(wall_ms,
/// events)`.
fn timed_child(sup: &Supervisor, spec: &RunSpec, side: &str) -> Result<(f64, u64), String> {
    let started = Instant::now();
    let result = sup
        .run_spec(spec)
        .map_err(|e| format!("{side} run of {} failed: {e}", spec.label()))?;
    Ok((started.elapsed().as_secs_f64() * 1000.0, result.events))
}

/// Interleaved A/B sweep: every `(benchmark, policy)` cell is repeated
/// `reps` times on both binaries, alternating which side runs first, and
/// scored by the median of the paired wall-time ratios. Serial by design
/// — paired timing is the contention control, parallel cells would
/// reintroduce the noise the interleaving removes.
fn ab_sweep(
    baseline_bin: &str,
    scale: Scale,
    seed: u64,
    reps: usize,
    policies: &[SchedulerKind],
    shape: TopologyShape,
) -> Result<Vec<AbCell>, String> {
    if !std::path::Path::new(baseline_bin).is_file() {
        return Err(format!("--ab baseline binary {baseline_bin:?} not found"));
    }
    let base_sup = Supervisor::new(vec![baseline_bin.to_string(), "worker".to_string()], 1);
    let cand_sup = Supervisor::self_exec(&["worker"], 1)
        .map_err(|e| format!("cannot locate own executable for --ab: {e}"))?;
    let mut cells = Vec::new();
    for bench in BenchmarkId::ALL {
        for &sched in policies {
            let mut spec = RunSpec::new(bench, sched, scale);
            spec.seed = seed;
            if let Some((shards, iommus)) = shape.topology {
                spec.config = spec.config.with_topology(shards, iommus);
            }
            spec.config = spec
                .config
                .with_large_page_permille(shape.large_page_permille);
            let mut base_walls = Vec::with_capacity(reps);
            let mut cand_walls = Vec::with_capacity(reps);
            let mut base_events = 0u64;
            let mut cand_events = 0u64;
            for rep in 0..reps {
                // Alternate the order within each pair so slow host drift
                // (thermal, background load) debits both sides equally.
                let (b, c) = if rep % 2 == 0 {
                    let b = timed_child(&base_sup, &spec, "baseline")?;
                    let c = timed_child(&cand_sup, &spec, "candidate")?;
                    (b, c)
                } else {
                    let c = timed_child(&cand_sup, &spec, "candidate")?;
                    let b = timed_child(&base_sup, &spec, "baseline")?;
                    (b, c)
                };
                base_events = b.1;
                cand_events = c.1;
                base_walls.push(b.0);
                cand_walls.push(c.0);
            }
            let mut ratios: Vec<f64> = base_walls
                .iter()
                .zip(&cand_walls)
                .map(|(b, c)| b / c)
                .collect();
            ratios.sort_by(f64::total_cmp);
            let cell = AbCell {
                bench,
                sched,
                base_events,
                cand_events,
                base_wall_ms: base_walls.iter().copied().fold(f64::INFINITY, f64::min),
                cand_wall_ms: cand_walls.iter().copied().fold(f64::INFINITY, f64::min),
                ratio: ratios[ratios.len() / 2],
            };
            eprintln!(
                "[ptw-bench] ab: {} / {} — baseline {:.1} ms ({} events) vs candidate \
                 {:.1} ms ({} events), paired speedup x{:.3}",
                cell.bench,
                cell.sched.label(),
                cell.base_wall_ms,
                cell.base_events,
                cell.cand_wall_ms,
                cell.cand_events,
                cell.ratio
            );
            cells.push(cell);
        }
    }
    Ok(cells)
}

/// Geometric mean of the cells' paired ratios.
fn ab_geomean(cells: &[AbCell]) -> f64 {
    if cells.is_empty() {
        return 1.0;
    }
    (cells.iter().map(|c| c.ratio.ln()).sum::<f64>() / cells.len() as f64).exp()
}

fn main() -> ExitCode {
    // `ptw-bench worker` is the internal entry the process-isolation
    // supervisor spawns: one spec in on stdin, one result line on stdout.
    if std::env::args().nth(1).as_deref() == Some("worker") {
        return ExitCode::from(ptw_sim::supervisor::worker_main());
    }

    let mut scale = Scale::Medium;
    let mut seed = 0xC0FFEE_u64;
    let mut reps = 3usize;
    let mut jobs = 1usize;
    let mut policies: Vec<SchedulerKind> = SchedulerKind::EXTENDED.to_vec();
    let mut process_isolation = false;
    let mut cell_timeout: Option<Duration> = None;
    let mut pin = false;
    let mut out: Option<String> = None;
    let mut check: Option<String> = None;
    let mut ab: Option<String> = None;
    let mut label = String::from("measurement");
    let mut max_regress_pct = 20.0f64;
    let mut quiet = false;
    let mut shape = TopologyShape::BASELINE;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => match args.next().as_deref().and_then(Scale::parse) {
                Some(s) => scale = s,
                None => {
                    eprintln!("--scale needs one of small|medium|paper");
                    return ExitCode::FAILURE;
                }
            },
            "--seed" => match args.next().and_then(|s| s.parse().ok()) {
                Some(s) => seed = s,
                None => {
                    eprintln!("--seed needs an integer");
                    return ExitCode::FAILURE;
                }
            },
            "--reps" => match args.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(r) if r >= 1 => reps = r,
                _ => {
                    eprintln!("--reps needs an integer >= 1");
                    return ExitCode::FAILURE;
                }
            },
            "--jobs" => match args.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(j) => jobs = j,
                None => {
                    eprintln!("--jobs needs an integer (0 = one worker per hardware thread)");
                    return ExitCode::FAILURE;
                }
            },
            "--policies" => match args.next().as_deref().map(parse_policies) {
                Some(Ok(p)) => policies = p,
                Some(Err(e)) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
                None => {
                    eprintln!("--policies needs a comma-separated list (e.g. fcfs,simt-aware)");
                    return ExitCode::FAILURE;
                }
            },
            "--out" => match args.next() {
                Some(p) => out = Some(p),
                None => {
                    eprintln!("--out needs a file path");
                    return ExitCode::FAILURE;
                }
            },
            "--check" => match args.next() {
                Some(p) => check = Some(p),
                None => {
                    eprintln!("--check needs a baseline file path");
                    return ExitCode::FAILURE;
                }
            },
            "--ab" => match args.next() {
                Some(p) => ab = Some(p),
                None => {
                    eprintln!("--ab needs a path to a baseline ptw-bench binary");
                    return ExitCode::FAILURE;
                }
            },
            "--label" => match args.next() {
                Some(l) => label = l,
                None => {
                    eprintln!("--label needs text");
                    return ExitCode::FAILURE;
                }
            },
            "--max-regress" => match args.next().and_then(|s| s.parse::<f64>().ok()) {
                Some(p) if (0.0..100.0).contains(&p) => max_regress_pct = p,
                _ => {
                    eprintln!("--max-regress needs a percentage in 0..100");
                    return ExitCode::FAILURE;
                }
            },
            "--topology" => {
                let parsed = args.next().and_then(|s| {
                    let (n, m) = s.split_once(['x', 'X'])?;
                    Some((n.parse::<usize>().ok()?, m.parse::<usize>().ok()?))
                });
                match parsed {
                    Some((n, m)) if n >= 1 && m >= 1 => shape.topology = Some((n, m)),
                    _ => {
                        eprintln!("--topology needs NxM with N, M >= 1 (e.g. 2x2)");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--large-page-frac" => match args.next().and_then(|s| s.parse::<u32>().ok()) {
                Some(f) if f <= 1000 => shape.large_page_permille = f,
                _ => {
                    eprintln!("--large-page-frac needs a permille value in 0..=1000");
                    return ExitCode::FAILURE;
                }
            },
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
            "--pin" => pin = true,
            "--quiet" => quiet = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: ptw-bench [--scale small|medium|paper] [--seed N] [--reps N] \
                     [--jobs N] [--policies LIST] [--isolation thread|process] \
                     [--cell-timeout SECS] [--pin] [--out FILE] [--label TEXT] \
                     [--check FILE] [--max-regress PCT] [--ab BASELINE_BIN] [--quiet]\n\
                     \n\
                     --jobs N fans cells across N threads (0 = one per hardware thread, \
                     matching figures); reps stay serial within each cell and output is in \
                     spec order. Caveat: concurrent cells contend for cache and memory \
                     bandwidth, inflating per-cell wall times — record committed baselines \
                     with --jobs 1.\n\
                     --policies takes a comma-separated subset (e.g. fcfs,simt-aware); \
                     default is all 7 extended policies.\n\
                     --topology NxM runs every cell on N GPU shards x M IOMMUs and \
                     --large-page-frac F promotes roughly F permille of eligible 2 MiB \
                     regions; either flag adds a greppable topology-smoke summary line.\n\
                     --isolation process runs each repetition in a fresh supervised child \
                     process (timing the full round-trip); --cell-timeout SECS bounds one \
                     attempt's wall clock and --pin pins each worker to one CPU \
                     (round-robin, Linux-only) in that mode.\n\
                     --ab BASELINE_BIN interleaves every cell between an older ptw-bench \
                     binary and this one (both as one-cell child processes, alternating \
                     order) and reports median paired wall-time ratios — the drift-immune \
                     way to score a perf PR."
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument {other:?}; try --help");
                return ExitCode::FAILURE;
            }
        }
    }

    // Resolve auto up front so prints and the JSON record the real count.
    let jobs = SweepExecutor::new(jobs).workers();
    if cell_timeout.is_some() && !process_isolation {
        eprintln!("--cell-timeout requires --isolation process");
        return ExitCode::FAILURE;
    }
    if pin && !process_isolation {
        eprintln!("--pin requires --isolation process");
        return ExitCode::FAILURE;
    }
    let supervisor = if process_isolation {
        match Supervisor::self_exec(&["worker"], jobs) {
            Ok(sup) => Some(sup.with_cell_timeout(cell_timeout).with_pin(pin)),
            Err(e) => {
                eprintln!("cannot locate own executable for --isolation process: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };
    let supervisor = supervisor.as_ref();

    // Interleaved A/B mode: both sides already run as supervised child
    // processes, so the other execution modes don't compose with it.
    if let Some(baseline_bin) = ab {
        if out.is_some() || check.is_some() || process_isolation {
            eprintln!("--ab cannot be combined with --out, --check, or --isolation process");
            return ExitCode::FAILURE;
        }
        let cells = match ab_sweep(&baseline_bin, scale, seed, reps, &policies, shape) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("[ptw-bench] {e}");
                return ExitCode::FAILURE;
            }
        };
        // The scattered-footprint benchmark gets its own line: XSB is the
        // cell whose per-walk piggyback fan-out the paper's scheduling
        // problem (and this repo's perf work) cares most about.
        let mut xsb: Vec<f64> = cells
            .iter()
            .filter(|c| c.bench == BenchmarkId::Xsb)
            .map(|c| c.ratio)
            .collect();
        xsb.sort_by(f64::total_cmp);
        if !xsb.is_empty() {
            println!(
                "[ptw-bench] ab-xsb: median paired speedup x{:.3} over {} XSB cells",
                xsb[xsb.len() / 2],
                xsb.len()
            );
        }
        println!(
            "[ptw-bench] ab-summary: geomean paired speedup x{:.3} over {} cells \
             (scale {}, {} paired reps, baseline {})",
            ab_geomean(&cells),
            cells.len(),
            scale.label(),
            reps,
            baseline_bin
        );
        return ExitCode::SUCCESS;
    }

    // CI smoke mode: small-scale sweep against the committed baseline.
    if let Some(path) = check {
        let baseline = match load_smoke_baseline(&path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("[ptw-bench] {e}");
                return ExitCode::FAILURE;
            }
        };
        let cells = match sweep(
            Scale::Small,
            seed,
            reps,
            jobs,
            &policies,
            shape,
            supervisor,
            true,
        ) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("[ptw-bench] {e}");
                return ExitCode::FAILURE;
            }
        };
        let measured = Totals::of(&cells).events_per_sec();
        let floor = baseline * (1.0 - max_regress_pct / 100.0);
        println!(
            "[ptw-bench] smoke: measured {measured:.0} events/s, baseline {baseline:.0}, \
             floor {floor:.0} ({max_regress_pct:.0}% regression allowed)"
        );
        if measured < floor {
            eprintln!("[ptw-bench] FAIL: events/sec regressed past the allowed floor");
            return ExitCode::FAILURE;
        }
        println!("[ptw-bench] smoke OK");
        return ExitCode::SUCCESS;
    }

    let started = Instant::now();
    let cells = match sweep(scale, seed, reps, jobs, &policies, shape, supervisor, quiet) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("[ptw-bench] {e}");
            return ExitCode::FAILURE;
        }
    };
    let total = Totals::of(&cells);
    println!(
        "[ptw-bench] {} cells at {} scale ({} reps, min-of-reps, {} worker{}): {} events in \
         {:.1} ms of per-cell wall time ({:.0} events/s; harness wall {:.1}s)",
        cells.len(),
        scale.label(),
        reps,
        jobs,
        if jobs == 1 { "" } else { "s" },
        total.events,
        total.wall_ms,
        total.events_per_sec(),
        started.elapsed().as_secs_f64()
    );
    // Aggregate DRAM counters: summed locality and integrals, max peaks.
    // Deterministic for a given spec, so two builds can be compared by
    // this one greppable line.
    {
        let hits: u64 = cells.iter().map(|c| c.mem.row_hits).sum();
        let conflicts: u64 = cells.iter().map(|c| c.mem.row_conflicts).sum();
        let agg = MemStats {
            row_hits: hits,
            row_conflicts: conflicts,
            peak_queue_depth: cells
                .iter()
                .map(|c| c.mem.peak_queue_depth)
                .max()
                .unwrap_or(0),
            peak_busy_banks: cells
                .iter()
                .map(|c| c.mem.peak_busy_banks)
                .max()
                .unwrap_or(0),
            queue_depth_cycles: cells.iter().map(|c| c.mem.queue_depth_cycles).sum(),
            busy_bank_cycles: cells.iter().map(|c| c.mem.busy_bank_cycles).sum(),
            observed_cycles: cells.iter().map(|c| c.mem.observed_cycles).sum(),
            ..MemStats::default()
        };
        println!(
            "[ptw-bench] dram-smoke: row_hits={hits} row_conflicts={conflicts} \
             hit_rate={:.4} peak_depth={} peak_banks={} mean_depth={:.3} mean_banks={:.3}",
            agg.row_hit_rate(),
            agg.peak_queue_depth,
            agg.peak_busy_banks,
            agg.mean_queue_depth(),
            agg.mean_busy_banks()
        );
    }
    if !shape.is_baseline() {
        // Aggregate across cells: elementwise per-IOMMU sums, total 2 MiB
        // walks, and the worst per-cell imbalance, as one greppable line.
        let width = cells
            .iter()
            .map(|c| c.per_iommu_walks.len())
            .max()
            .unwrap_or(0);
        let mut per_iommu = vec![0u64; width];
        for c in &cells {
            for (total, &w) in per_iommu.iter_mut().zip(&c.per_iommu_walks) {
                *total += w;
            }
        }
        let large_walks: u64 = cells.iter().map(|c| c.large_walks).sum();
        let min_iommu_walks = per_iommu.iter().copied().min().unwrap_or(0);
        let max_imbalance = cells.iter().map(|c| c.imbalance).fold(1.0f64, f64::max);
        let (shards, iommus) = shape.topology.unwrap_or((1, 1));
        println!(
            "[ptw-bench] topology-smoke: topology={shards}x{iommus} \
             permille={} large_walks={large_walks} min_iommu_walks={min_iommu_walks} \
             max_imbalance={max_imbalance:.3} per_iommu={per_iommu:?}",
            shape.large_page_permille
        );
    }

    if let Some(path) = out {
        // The small-scale smoke aggregate rides along in the same file so
        // CI has a fast comparison point.
        let smoke_cells = match sweep(
            Scale::Small,
            seed,
            reps,
            jobs,
            &policies,
            shape,
            supervisor,
            true,
        ) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("[ptw-bench] {e}");
                return ExitCode::FAILURE;
            }
        };
        let smoke = Totals::of(&smoke_cells);
        let history = load_history(&path);
        let doc = render_baseline(
            scale, reps, jobs, &policies, &cells, &smoke, &history, &label,
        );
        if let Err(e) = std::fs::write(&path, &doc) {
            eprintln!("[ptw-bench] cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "[ptw-bench] wrote {path} (smoke {:.0} events/s, history now {} entr{})",
            smoke.events_per_sec(),
            history.len() + 1,
            if history.len() + 1 == 1 { "y" } else { "ies" }
        );
    }
    ExitCode::SUCCESS
}
