//! Full-run metric equivalence test.
//!
//! The PR-1 golden trace (`policy_equivalence.rs`) pins the *scheduler's
//! selection order* in isolation. This test pins the *whole simulated
//! system*: every field of `RunResult` but one, for two contrasting
//! benchmarks under all seven scheduling policies, plus XSB under FCFS and
//! SIMT-aware on a sharded topology with 2 MiB pages. Any hot-path rework
//! must reproduce these numbers bit-for-bit; only then is it a pure
//! data-structure change.
//!
//! # Line format
//!
//! Each line of `golden/run_metrics.txt` is one cell: its name
//! (`MVT/FCFS`, `XSB/SIMT-aware/sharded-2m`), one space, then
//! `wire::encode_response(&Ok(r))` for the cell's result `r`: the
//! flat-line encoding the worker wire and the sweep checkpoint use. So
//! `RunResult`'s fields are listed once, in the library's schema, and a new
//! field shows up as one more member of every line. `f64`s are stored as
//! their bit patterns, so "equal" means bit-identical.
//!
//! The one field deliberately *not* pinned is `RunResult::events`, which
//! every line records as 0: the number of queue pops is simulation cost,
//! not simulated behavior. Replacing polled events with scheduled ones, or
//! batching same-cycle ones, moves it without touching any outcome.
//!
//! The sweep checkpoint's header carries a digest of this file, so a
//! re-bless also resets every checkpoint written before it. The digest
//! covers only the cells pinned here: a model change has to move a value
//! in this file to reach old checkpoints.
//!
//! To re-bless after an *intentional* behavior change:
//!
//! ```text
//! PTW_BLESS=1 cargo test --test run_metrics_equivalence
//! ```

use ptw_core::sched::SchedulerKind;
use ptw_sim::json::Value;
use ptw_sim::runner::{run_benchmark, RunSpec};
use ptw_sim::wire;
use ptw_workloads::{BenchmarkId, Scale};

const GOLDEN: &str = include_str!("golden/run_metrics.txt");

/// The two pinned benchmarks: one irregular graph workload with heavy
/// TLB-miss pressure (MVT) and one regular streaming workload (XSB), so
/// both the contended and the uncontended IOMMU paths are covered.
const BENCHES: [BenchmarkId; 2] = [BenchmarkId::Mvt, BenchmarkId::Xsb];

/// The pinned cells in golden order, each with its name: every policy on
/// each of [`BENCHES`], then XSB under FCFS and SIMT-aware on
/// `sharded-2m`'s first layout (2 GPU shards, 2 IOMMUs, 125‰ 2 MiB pages;
/// see `tests/work_counts.rs`), which pins the per-IOMMU walks, the
/// imbalance and the large-page counters.
fn cells() -> Vec<(String, RunSpec)> {
    let mut cells = Vec::new();
    for bench in BENCHES {
        for sched in SchedulerKind::EXTENDED {
            let spec = RunSpec::new(bench, sched, Scale::Small);
            cells.push((format!("{bench}/{}", sched.label()), spec));
        }
    }
    for sched in [SchedulerKind::Fcfs, SchedulerKind::SimtAware] {
        let mut spec = RunSpec::new(BenchmarkId::Xsb, sched, Scale::Small);
        spec.config = spec
            .config
            .with_topology(2, 2)
            .with_large_page_permille(125);
        cells.push((format!("XSB/{}/sharded-2m", sched.label()), spec));
    }
    cells
}

/// Runs `spec` and renders its golden line under `name`.
fn line(name: &str, spec: &RunSpec) -> String {
    let mut result = run_benchmark(spec).expect("pinned run must succeed");
    result.events = 0;
    format!("{name} {}", wire::encode_response(&Ok(result)))
}

/// A golden line's cell name and its flat JSON.
fn split(line: &str) -> (&str, &str) {
    line.split_once(' ').unwrap_or((line, ""))
}

/// Names what differs between two lines of one cell: each changed member
/// as `path: golden → got` (the first 10), then each member only one side
/// has.
fn describe_diff(golden: &str, got: &str) -> String {
    let members = |line: &str| match Value::parse(split(line).1) {
        Some(Value::Obj(members)) => members,
        _ => Vec::new(),
    };
    let (want, have) = (members(golden), members(got));
    fn find<'a>(side: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
        side.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
    let show = |v: &Value| match v {
        Value::U64(x) => x.to_string(),
        Value::Arr(xs) => format!(
            "{:?}",
            xs.iter().filter_map(Value::as_u64).collect::<Vec<_>>()
        ),
        other => format!("{other:?}"),
    };
    let mut out = Vec::new();
    let changed = want.iter().filter_map(|(k, w)| {
        let h = find(&have, k)?;
        (h != w).then(|| format!("  {k}: {} → {}", show(w), show(h)))
    });
    out.extend(changed.take(10));
    for (side, this, other) in [("the golden", &want, &have), ("this run", &have, &want)] {
        let alone = this.iter().filter(|(k, _)| find(other, k).is_none());
        out.extend(alone.map(|(k, _)| format!("  {k}: only in {side}")));
    }
    if out.is_empty() {
        out.push(format!("  golden: {golden}\n  got:    {got}"));
    }
    out.join("\n")
}

#[test]
fn full_run_metrics_match_golden() {
    let got: Vec<String> = cells()
        .iter()
        .map(|(name, spec)| line(name, spec))
        .collect();
    if std::env::var_os("PTW_BLESS").is_some() {
        let path =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/run_metrics.txt");
        std::fs::write(&path, got.join("\n") + "\n").expect("write golden");
        eprintln!("blessed {}", path.display());
        return;
    }
    let golden: Vec<&str> = GOLDEN.lines().collect();
    let want: Vec<&str> = golden.iter().map(|l| split(l).0).collect();
    let have: Vec<&str> = got.iter().map(|l| split(l).0).collect();
    let missing = |from: &[&str], of: &[&str]| -> Vec<String> {
        of.iter()
            .filter(|n| !from.contains(n))
            .map(|n| n.to_string())
            .collect()
    };
    assert!(
        have == want,
        "{} cells against {} golden lines; no run for {:?}; no golden line for {:?}; \
         re-bless deliberately if intended",
        have.len(),
        want.len(),
        missing(&have, &want),
        missing(&want, &have)
    );
    for (g, e) in got.iter().zip(&golden) {
        assert!(
            g == e,
            "run {} diverged from the golden metrics:\n{}",
            split(g).0,
            describe_diff(e, g)
        );
    }
}

/// An *explicit* 1×1 all-4K topology is the same machine as the implicit
/// default: its metrics must match the golden file bit-for-bit, with no
/// re-blessing. This pins the multi-IOMMU refactor's equivalence claim —
/// sharding and page-size support ride entirely on config, and the
/// degenerate config reproduces the pre-refactor system exactly.
#[test]
fn explicit_default_topology_matches_golden() {
    for (bench, sched) in [
        (BenchmarkId::Mvt, SchedulerKind::SimtAware),
        (BenchmarkId::Xsb, SchedulerKind::Fcfs),
    ] {
        let mut spec = RunSpec::new(bench, sched, Scale::Small);
        spec.config = spec.config.with_topology(1, 1).with_large_page_permille(0);
        let line = line(&format!("{bench}/{}", sched.label()), &spec);
        assert!(
            GOLDEN.lines().any(|l| l == line),
            "explicit 1x1 all-4K topology diverged from golden for {bench}/{}",
            sched.label()
        );
    }
}

/// The golden file covers every cell, and each line reads back through the
/// wire decoder as a result that re-encodes to the same line.
#[test]
fn golden_covers_every_cell() {
    for (name, _) in cells() {
        let prefix = format!("{name} ");
        assert!(
            GOLDEN.lines().any(|l| l.starts_with(&prefix)),
            "no golden metrics for {name}"
        );
    }
    for golden in GOLDEN.lines() {
        let (name, json) = split(golden);
        let Some(Ok(result)) = wire::decode_response(json) else {
            panic!("golden line {name} does not decode as a result");
        };
        assert_eq!(result.events, 0, "{name} pins events");
        assert_eq!(wire::encode_response(&Ok(result)), json, "{name}");
    }
}
