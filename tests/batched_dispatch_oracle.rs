//! Batched-dispatch differential oracle.
//!
//! `System::try_run` drains whole same-cycle calendar buckets and
//! dispatches them with fused submit runs, skipped stale `MemTick`s, and
//! hoisted watchdog/fault/budget checks. `System::try_run_unbatched` keeps
//! the pre-batching loop: one pop, one check block, one dispatch per
//! event. The two must be indistinguishable — this test runs **every**
//! (benchmark × extended policy) cell at small scale through both loops
//! and requires bit-identical [`RunResult`]s.
//!
//! `RunResult::PartialEq` is exact (f64 fields compare by value, and the
//! `events` count is included), so this pins not just the simulated
//! outcome but the queue-pop count: batching may not create or lose a
//! single event. The golden-metrics test guards the numbers across
//! history; this one guards the two loops against each other at every
//! cell, so a same-cycle ordering bug in the batcher cannot hide in a
//! benchmark the goldens don't cover.
//!
//! The same file pins the simulator's two other differential hooks at
//! every small-scale benchmark under FCFS and SIMT-aware: unfused walk
//! events (`System::force_unfused`) may change only the event count, and
//! the DRAM controller's legacy whole-queue scan
//! (`System::force_dram_oracle`) may change nothing at all.

use ptw_core::sched::SchedulerKind;
use ptw_sim::{RunResult, SimError, System, SystemConfig};
use ptw_workloads::{build, BenchmarkId, Scale};

fn run_both(
    bench: BenchmarkId,
    sched: SchedulerKind,
) -> (Result<RunResult, SimError>, Result<RunResult, SimError>) {
    let cfg = SystemConfig::paper_baseline().with_scheduler(sched);
    let batched = System::try_new(cfg.clone(), build(bench, Scale::Small, 0xC0FFEE))
        .expect("valid config")
        .try_run();
    let unbatched = System::try_new(cfg, build(bench, Scale::Small, 0xC0FFEE))
        .expect("valid config")
        .try_run_unbatched();
    (batched, unbatched)
}

#[test]
fn every_cell_is_bit_identical_across_loops() {
    for bench in BenchmarkId::ALL {
        for sched in SchedulerKind::EXTENDED {
            let (batched, unbatched) = run_both(bench, sched);
            let batched = batched.unwrap_or_else(|e| panic!("{bench}/{sched:?} batched: {e}"));
            let unbatched =
                unbatched.unwrap_or_else(|e| panic!("{bench}/{sched:?} unbatched: {e}"));
            assert_eq!(
                batched, unbatched,
                "batched and unbatched RunResult diverged for {bench}/{sched:?}"
            );
        }
    }
}

#[test]
fn event_fusion_and_dram_oracle_change_no_result() {
    let (mut fused_total, mut unfused_total) = (0u64, 0u64);
    for bench in BenchmarkId::ALL {
        for sched in [SchedulerKind::Fcfs, SchedulerKind::SimtAware] {
            let cfg = SystemConfig::paper_baseline().with_scheduler(sched);
            let run = |tweak: fn(&mut System)| {
                let mut sys = System::try_new(cfg.clone(), build(bench, Scale::Small, 0xC0FFEE))
                    .expect("valid config");
                tweak(&mut sys);
                sys.try_run()
                    .unwrap_or_else(|e| panic!("{bench}/{sched:?}: {e}"))
            };
            let base = run(|_| {});
            let unfused = run(|s| s.force_unfused(true));
            let oracle = run(|s| s.force_dram_oracle(true));

            assert!(
                base.events <= unfused.events,
                "{bench}/{sched:?}: fusion added events ({} vs {})",
                base.events,
                unfused.events
            );
            fused_total += base.events;
            unfused_total += unfused.events;
            let normalized = RunResult {
                events: base.events,
                ..unfused
            };
            assert_eq!(
                base, normalized,
                "{bench}/{sched:?}: unfused events changed the simulated result"
            );
            assert_eq!(
                base, oracle,
                "{bench}/{sched:?}: the DRAM legacy scan changed the result"
            );
        }
    }
    assert!(
        fused_total < unfused_total,
        "fusion saved no events: {fused_total} vs {unfused_total}"
    );
}

#[test]
fn budget_error_is_identical_across_loops() {
    // The hoisted slow path must report the exact same abort as the
    // per-event loop: same event count, same cycle.
    let mut cfg = SystemConfig::paper_baseline().with_scheduler(SchedulerKind::Fcfs);
    cfg.max_events = 1_000;
    let batched = System::try_new(cfg.clone(), build(BenchmarkId::Mvt, Scale::Small, 0xC0FFEE))
        .expect("valid config")
        .try_run();
    let unbatched = System::try_new(cfg, build(BenchmarkId::Mvt, Scale::Small, 0xC0FFEE))
        .expect("valid config")
        .try_run_unbatched();
    match (batched, unbatched) {
        (
            Err(SimError::EventBudgetExhausted {
                events: be,
                now: bn,
                ..
            }),
            Err(SimError::EventBudgetExhausted {
                events: ue,
                now: un,
                ..
            }),
        ) => {
            assert_eq!(be, ue, "abort event count diverged");
            assert_eq!(bn, un, "abort cycle diverged");
            assert_eq!(be, 1_001, "budget trips on the first event past it");
        }
        (b, u) => panic!("expected budget exhaustion from both loops, got {b:?} / {u:?}"),
    }
}
