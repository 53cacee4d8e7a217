//! Parallel execution must be an implementation detail: the sweep
//! executor fanning runs across threads has to produce results
//! bit-identical to a serial loop over the same specs, in the same order,
//! at any worker count.

use ptw_core::sched::SchedulerKind;
use ptw_sim::runner::{run_benchmark, ConfigVariant, Lab, RunSpec};
use ptw_sim::sweep::SweepExecutor;
use ptw_workloads::{BenchmarkId, Scale};

fn sweep_specs() -> Vec<RunSpec> {
    // A mixed bag: different benchmarks, schedulers, and seeds, so slow
    // and fast runs interleave and finish out of submission order.
    let mut specs = Vec::new();
    for id in [
        BenchmarkId::Kmn,
        BenchmarkId::Ssp,
        BenchmarkId::Atx,
        BenchmarkId::Mvt,
    ] {
        for kind in [
            SchedulerKind::Fcfs,
            SchedulerKind::SimtAware,
            SchedulerKind::Random,
        ] {
            let mut spec = RunSpec::new(id, kind, Scale::Small);
            spec.seed = 0x5EED ^ specs.len() as u64;
            specs.push(spec);
        }
    }
    specs
}

#[test]
fn parallel_sweep_is_bit_identical_to_serial() {
    let specs = sweep_specs();
    let serial: Vec<_> = specs
        .iter()
        .map(|s| run_benchmark(s).expect("clean spec"))
        .collect();
    for workers in [2, 4, 7] {
        let parallel = SweepExecutor::new(workers).run(&specs);
        assert_eq!(parallel.len(), serial.len());
        for ((spec, s), p) in specs.iter().zip(&serial).zip(&parallel) {
            // RunResult's PartialEq is exact, f64 fields included.
            assert_eq!(s, p, "divergence at {workers} workers for {spec:?}");
        }
    }
}

#[test]
fn parallel_prefetch_matches_serial_prefetch() {
    let keys = [
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
            BenchmarkId::Mvt,
            SchedulerKind::SimtAware,
            ConfigVariant::NoPinning,
        ),
        (
            BenchmarkId::Kmn,
            SchedulerKind::Fcfs,
            ConfigVariant::Baseline,
        ),
    ];
    let mut parallel = Lab::new(Scale::Small, 0xC0FFEE);
    assert_eq!(parallel.prefetch(&SweepExecutor::new(4), keys), keys.len());
    let mut serial = Lab::new(Scale::Small, 0xC0FFEE);
    assert_eq!(serial.prefetch(&SweepExecutor::serial(), keys), keys.len());
    for (id, kind, variant) in keys {
        assert_eq!(
            parallel
                .try_result_with(id, kind, variant)
                .expect("prefetched"),
            serial
                .try_result_with(id, kind, variant)
                .expect("prefetched"),
            "{id:?}/{kind:?}/{}",
            variant.label()
        );
    }
    // The prefetch covered everything: no read found a missing cell and no
    // further runs were executed.
    assert!(parallel.take_missing().is_empty());
    assert_eq!(parallel.executed, keys.len() as u64);
}

#[test]
fn executor_worker_count_does_not_leak_into_results() {
    // Same spec list through 1, 3, and 8 workers: the three result
    // vectors must be indistinguishable.
    let specs: Vec<RunSpec> = [SchedulerKind::Fcfs, SchedulerKind::SimtAware]
        .into_iter()
        .map(|k| RunSpec::new(BenchmarkId::Ssp, k, Scale::Small))
        .collect();
    let one = SweepExecutor::serial().run(&specs);
    let three = SweepExecutor::new(3).run(&specs);
    let eight = SweepExecutor::new(8).run(&specs);
    assert_eq!(one, three);
    assert_eq!(three, eight);
}
