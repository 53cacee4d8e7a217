//! Exact gate on the simulator's deterministic work counts.
//!
//! Each cell of the benchmark's three workloads runs at small scale and
//! reports the work its layers did (`ptw_types::work`): events popped, by
//! kind; `U64Map` slots examined; `AssocArray` fingerprint words tested
//! and full tags compared; DRAM selects by path and the entries and banks
//! they examined; IOMMU candidate-index steps. Unlike host time these counts do not depend on the machine, so
//! they are compared exactly: any change fails, and the message marks
//! each counter that rose.
//!
//! The counters count only with debug assertions on, as in `cargo test`;
//! under `--release` these tests are ignored.
//!
//! To re-bless after an intentional change in work:
//!
//! ```text
//! PTW_BLESS=1 cargo test --test work_counts
//! ```

use std::fmt::Write as _;
use std::sync::Mutex;

use ptw_core::sched::SchedulerKind;
use ptw_sim::runner::{run_benchmark, RunSpec};
use ptw_sim::SystemConfig;
use ptw_types::work::{self, Work};
use ptw_workloads::{BenchmarkId, Scale};

const GOLDEN: &str = include_str!("golden/work_counts.txt");

/// The benchmark's default workload seed.
const SEED: u64 = 0xC0FFEE;

/// The workloads, in golden-file order.
const WORKLOADS: [&str; 3] = ["irregular", "regular", "sharded-2m"];

/// Serializes re-blessing: the three tests rewrite one file.
static BLESS: Mutex<()> = Mutex::new(());

/// The cells of `workload` at small scale, mirroring
/// `simbench/src/cells.rs::Workload::cells`: 10 irregular, 8 regular and
/// 12 sharded-2m cells (2 MiB layouts from seeds `SEED..SEED + 6`).
fn cells(workload: &str) -> Vec<RunSpec> {
    use BenchmarkId::*;
    use SchedulerKind::*;
    let base = SystemConfig::paper_baseline();
    let (benches, layouts, config): (&[BenchmarkId], u64, _) = match workload {
        "irregular" => (&[Xsb, Mvt, Atx, Nw, Gev], 1, base),
        "regular" => (&[Ssp, Clr, Bck, Kmn], 1, base),
        "sharded-2m" => (
            &[Xsb],
            6,
            base.with_topology(2, 2).with_large_page_permille(125),
        ),
        other => unreachable!("no workload {other}"),
    };
    let mut cells = Vec::new();
    for layout in 0..layouts {
        for &benchmark in benches {
            for scheduler in [Fcfs, SimtAware] {
                cells.push(RunSpec {
                    benchmark,
                    scheduler,
                    scale: Scale::Small,
                    seed: SEED + layout,
                    config: config.clone(),
                });
            }
        }
    }
    cells
}

/// Runs one cell and renders its golden line:
/// `WORKLOAD BENCH/POLICY seed=N: events=E label=count ...`.
fn run_line(workload: &str, spec: &RunSpec) -> String {
    work::take();
    let result = run_benchmark(spec).expect("cell runs");
    let counts = work::take();
    let name = format!(
        "{workload} {}/{} seed={:#x}",
        spec.benchmark,
        spec.scheduler.label(),
        spec.seed
    );
    let by_kind: u64 = counts[..=Work::MemTick as usize].iter().sum();
    assert_eq!(
        by_kind, result.events,
        "{name}: the per-kind event counts do not sum to RunResult::events"
    );
    let mut line = format!("{name}: events={}", result.events);
    for (&w, n) in Work::ALL.iter().zip(counts) {
        write!(line, " {}={n}", w.label()).expect("string write");
    }
    line
}

/// `key=value` pairs of a line's counts.
fn fields(line: &str) -> Vec<(&str, u64)> {
    let counts = line.split_once(": ").map_or("", |(_, c)| c);
    counts
        .split(' ')
        .filter_map(|kv| kv.split_once('='))
        .map(|(k, v)| (k, v.parse().expect("golden counts are integers")))
        .collect()
}

/// What changed between a golden line and a fresh one, one counter a line.
fn diff(golden: &str, now: &str) -> String {
    let mut out = String::new();
    let now = fields(now);
    for (k, g) in fields(golden) {
        match now.iter().find(|(n, _)| *n == k) {
            Some(&(_, v)) if v == g => {}
            Some(&(_, v)) => {
                let rise = if v > g { "  <- ROSE" } else { "" };
                writeln!(out, "    {k}: {g} -> {v}{rise}").expect("string write");
            }
            None => writeln!(out, "    {k}: {g} -> missing").expect("string write"),
        }
    }
    out
}

fn bless(workload: &str, lines: &[String]) {
    let _guard = BLESS.lock().unwrap_or_else(|e| e.into_inner());
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/work_counts.txt");
    let old = std::fs::read_to_string(&path).unwrap_or_default();
    let mut all: Vec<String> = old
        .lines()
        .filter(|l| !l.starts_with(&format!("{workload} ")))
        .map(str::to_owned)
        .chain(lines.iter().cloned())
        .collect();
    let rank = |l: &String| {
        WORKLOADS
            .iter()
            .position(|w| l.starts_with(&format!("{w} ")))
    };
    all.sort_by_key(rank);
    std::fs::write(&path, all.join("\n") + "\n").expect("write golden");
    eprintln!("blessed {workload} in {}", path.display());
}

fn check(workload: &str) {
    let got: Vec<String> = cells(workload)
        .iter()
        .map(|spec| run_line(workload, spec))
        .collect();
    if std::env::var_os("PTW_BLESS").is_some() {
        bless(workload, &got);
        return;
    }
    let golden: Vec<&str> = GOLDEN
        .lines()
        .filter(|l| l.starts_with(&format!("{workload} ")))
        .collect();
    let mut report = String::new();
    for line in &got {
        let name = line.split(": ").next().expect("named line");
        match golden.iter().find(|g| g.split(": ").next() == Some(name)) {
            Some(g) if *g == line => {}
            Some(g) => writeln!(report, "  {name}:\n{}", diff(g, line)).expect("string write"),
            None => writeln!(report, "  {name}: no golden line").expect("string write"),
        }
    }
    assert!(
        report.is_empty(),
        "{workload}: work counts differ from tests/golden/work_counts.txt \
         (golden -> now):\n{report}re-bless with PTW_BLESS=1 if the change is intended"
    );
    assert_eq!(
        golden.len(),
        got.len(),
        "{workload}: golden has a different cell count"
    );
}

#[test]
#[cfg_attr(not(debug_assertions), ignore)]
fn irregular_work_matches_golden() {
    check("irregular");
}

#[test]
#[cfg_attr(not(debug_assertions), ignore)]
fn regular_work_matches_golden() {
    check("regular");
}

#[test]
#[cfg_attr(not(debug_assertions), ignore)]
fn sharded_2m_work_matches_golden() {
    check("sharded-2m");
}
