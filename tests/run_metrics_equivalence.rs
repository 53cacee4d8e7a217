//! Full-run metric equivalence test.
//!
//! The PR-1 golden trace (`policy_equivalence.rs`) pins the *scheduler's
//! selection order* in isolation. This test pins the *whole simulated
//! system*: every metric a figure can read — cycles, stalls, latencies,
//! histograms, TLB/cache hit rates, DRAM counters — for two contrasting
//! benchmarks under all seven scheduling policies. Any hot-path rework of
//! the event queue, IOMMU buffer, or inflight tracking must reproduce
//! these numbers bit-for-bit; only then is it a pure data-structure change.
//!
//! The one field deliberately *not* pinned is `RunResult::events`: the
//! number of queue pops is simulation cost, not simulated behavior, and
//! replacing polled `MemTick` events with next-completion-time scheduling
//! legitimately removes superseded ticks without touching any simulated
//! outcome. Scheduling one walk's same-cycle starts or completions as
//! one batch event or as one event each moves the count the same way.
//!
//! Floats are recorded via `f64::to_bits` so "equal" means bit-identical,
//! not approximately close.
//!
//! To re-bless after an *intentional* behavior change:
//!
//! ```text
//! PTW_BLESS=1 cargo test --test run_metrics_equivalence
//! ```

use std::fmt::Write as _;

use ptw_core::sched::SchedulerKind;
use ptw_sim::runner::{run_benchmark, RunSpec};
use ptw_sim::RunResult;
use ptw_workloads::{BenchmarkId, Scale};

const GOLDEN: &str = include_str!("golden/run_metrics.txt");

/// The two pinned benchmarks: one irregular graph workload with heavy
/// TLB-miss pressure (MVT) and one regular streaming workload (XSB), so
/// both the contended and the uncontended IOMMU paths are covered.
const BENCHES: [BenchmarkId; 2] = [BenchmarkId::Mvt, BenchmarkId::Xsb];

fn bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

/// Serializes every field of `RunResult` except `events` as stable
/// `key=value` pairs.
fn encode(r: &RunResult) -> String {
    let m = &r.metrics;
    let mut s = String::new();
    let kv_u = |s: &mut String, k: &str, v: u64| {
        let _ = write!(s, " {k}={v}");
    };
    let kv_f = |s: &mut String, k: &str, v: f64| {
        let _ = write!(s, " {k}={}", bits(v));
    };
    kv_u(&mut s, "cycles", m.cycles);
    kv_u(&mut s, "instructions", m.instructions);
    kv_u(&mut s, "cu_stall_cycles", m.cu_stall_cycles);
    kv_u(&mut s, "walk_requests", m.walk_requests);
    kv_u(&mut s, "walks_performed", m.walks_performed);
    let counts: Vec<String> = m.work_hist.counts().iter().map(|c| c.to_string()).collect();
    let _ = write!(
        s,
        " work_hist={}+{}/{}",
        counts.join(","),
        m.work_hist.overflow(),
        m.work_hist.total()
    );
    kv_f(&mut s, "interleaved_fraction", m.interleaved_fraction);
    kv_f(&mut s, "mean_first_latency", m.mean_first_latency);
    kv_f(&mut s, "mean_last_latency", m.mean_last_latency);
    kv_f(&mut s, "mean_latency_gap", m.mean_latency_gap);
    kv_f(&mut s, "mean_epoch_wavefronts", m.mean_epoch_wavefronts);
    kv_u(&mut s, "l2_tlb_accesses", m.l2_tlb_accesses);
    kv_u(&mut s, "instructions_with_walks", m.instructions_with_walks);
    kv_u(&mut s, "multi_walk_instructions", m.multi_walk_instructions);
    kv_u(&mut s, "iommu.walk_requests", r.iommu.walk_requests);
    kv_u(&mut s, "iommu.walks_performed", r.iommu.walks_performed);
    kv_u(
        &mut s,
        "iommu.merged_completions",
        r.iommu.merged_completions,
    );
    kv_u(
        &mut s,
        "iommu.total_walk_accesses",
        r.iommu.total_walk_accesses,
    );
    kv_u(&mut s, "iommu.peak_pending", r.iommu.peak_pending as u64);
    kv_u(
        &mut s,
        "iommu.total_walk_latency",
        r.iommu.total_walk_latency,
    );
    kv_u(
        &mut s,
        "iommu.completed_requests",
        r.iommu.completed_requests,
    );
    kv_u(&mut s, "mem.data_requests", r.mem.data_requests);
    kv_u(&mut s, "mem.walk_requests", r.mem.walk_requests);
    kv_u(&mut s, "mem.row_hits", r.mem.row_hits);
    kv_u(&mut s, "mem.row_conflicts", r.mem.row_conflicts);
    kv_u(&mut s, "mem.total_latency", r.mem.total_latency);
    kv_u(&mut s, "mem.completed", r.mem.completed);
    kv_f(&mut s, "gpu_l1_tlb_hit_rate", r.gpu_l1_tlb_hit_rate);
    kv_f(&mut s, "gpu_l2_tlb_hit_rate", r.gpu_l2_tlb_hit_rate);
    kv_f(&mut s, "l1_cache_hit_rate", r.l1_cache_hit_rate);
    kv_f(&mut s, "l2_cache_hit_rate", r.l2_cache_hit_rate);
    kv_f(&mut s, "finish_spread", r.finish_spread);
    s
}

fn full_trace() -> String {
    let mut out = String::new();
    for bench in BENCHES {
        for sched in SchedulerKind::EXTENDED {
            let spec = RunSpec::new(bench, sched, Scale::Small);
            let result = run_benchmark(&spec).expect("pinned run must succeed");
            writeln!(out, "{bench}/{}:{}", sched.label(), encode(&result)).expect("string write");
        }
    }
    out
}

#[test]
fn full_run_metrics_match_golden() {
    let got = full_trace();
    if std::env::var_os("PTW_BLESS").is_some() {
        let path =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/run_metrics.txt");
        std::fs::write(&path, &got).expect("write golden");
        eprintln!("blessed {}", path.display());
        return;
    }
    for (g, e) in got.lines().zip(GOLDEN.lines()) {
        let name = g.split(':').next().unwrap_or("?");
        assert_eq!(g, e, "run {name} diverged from the golden metrics");
    }
    assert_eq!(
        got.lines().count(),
        GOLDEN.lines().count(),
        "run count changed; re-bless deliberately if intended"
    );
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
        let result = run_benchmark(&spec).expect("pinned run must succeed");
        let line = format!("{bench}/{}:{}", sched.label(), encode(&result));
        assert!(
            GOLDEN.lines().any(|l| l == line),
            "explicit 1x1 all-4K topology diverged from golden for {bench}/{}",
            sched.label()
        );
    }
}

/// The golden file covers every policy for every pinned benchmark.
#[test]
fn golden_covers_every_cell() {
    for bench in BENCHES {
        for sched in SchedulerKind::EXTENDED {
            let prefix = format!("{bench}/{}:", sched.label());
            assert!(
                GOLDEN.lines().any(|l| l.starts_with(&prefix)),
                "no golden metrics for {prefix}"
            );
        }
    }
}
