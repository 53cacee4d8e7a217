//! The fault-tolerant run layer end to end: config validation, typed
//! simulation aborts, panic isolation inside a sweep, the livelock
//! watchdog, and crash-safe checkpoint resume.

use ptw_core::sched::SchedulerKind;
use ptw_sim::config::{FaultInjection, WatchdogConfig};
use ptw_sim::error::{ConfigError, RunError, SimError};
use ptw_sim::runner::{run_benchmark, ConfigVariant, Lab, RunSpec};
use ptw_sim::sweep::{RetryPolicy, SweepExecutor};
use ptw_sim::{System, SystemConfig};
use ptw_workloads::{build, BenchmarkId, Scale};

#[test]
fn validate_rejects_each_degenerate_config() {
    let base = SystemConfig::paper_baseline();
    assert_eq!(base.validate(), Ok(()));

    let mut c = base.clone();
    c.iommu.walkers = 0;
    assert_eq!(c.validate(), Err(ConfigError::ZeroWalkers));

    let mut c = base.clone();
    c.iommu.buffer_entries = 0;
    assert_eq!(c.validate(), Err(ConfigError::ZeroBufferEntries));

    let mut c = base.clone();
    c.gpu.cus = 0;
    assert_eq!(c.validate(), Err(ConfigError::ZeroCus));

    // Ways not dividing entries.
    let mut c = base.clone();
    c.gpu_l2_tlb.entries = 12;
    c.gpu_l2_tlb.ways = 5;
    assert_eq!(
        c.validate(),
        Err(ConfigError::TlbGeometry {
            tlb: "gpu-l2",
            entries: 12,
            ways: 5,
        })
    );

    // Entries/ways divide but the set count (3) is not a power of two.
    let mut c = base.clone();
    c.iommu.l1_tlb.entries = 48;
    c.iommu.l1_tlb.ways = 16;
    assert!(matches!(
        c.validate(),
        Err(ConfigError::TlbGeometry {
            tlb: "iommu-l1",
            ..
        })
    ));

    let mut c = base.clone();
    c.epoch_accesses = 0;
    assert_eq!(
        c.validate(),
        Err(ConfigError::EpochAccessesOutOfRange { got: 0 })
    );

    let mut c = base.clone();
    c.watchdog = WatchdogConfig {
        check_events: 1_000,
        stall_epochs: 0,
    };
    assert_eq!(c.validate(), Err(ConfigError::WatchdogStallEpochsZero));

    // The same rejection surfaces from System construction and from the
    // run layer as a typed RunError, naming the problem.
    let mut bad = base.clone();
    bad.iommu.walkers = 0;
    let err = System::try_new(bad.clone(), build(BenchmarkId::Kmn, Scale::Small, 1))
        .expect_err("zero walkers must be rejected");
    assert_eq!(err, ConfigError::ZeroWalkers);
    let mut spec = RunSpec::new(BenchmarkId::Kmn, SchedulerKind::Fcfs, Scale::Small);
    spec.config = bad;
    match run_benchmark(&spec) {
        Err(RunError::Config(ConfigError::ZeroWalkers)) => {}
        other => panic!("expected a config error, got {other:?}"),
    }
}

/// DRAM and data-cache geometries the memory side cannot build are
/// rejected as typed config errors by `validate`, `System::try_new` and
/// the run layer alike, instead of panicking inside a constructor; and the
/// largest bank count the DRAM controller's chain keys hold is accepted.
#[test]
fn validate_rejects_bad_dram_and_cache_geometries() {
    let base = SystemConfig::paper_baseline();
    let mut three_channels = base.clone();
    three_channels.dram.channels = 3;
    let mut odd_l1 = base.clone();
    odd_l1.l1_cache.size_bytes = 100;
    let mut too_many_banks = base.clone();
    too_many_banks.dram.banks_per_rank = 256; // 512 banks per channel
    let cases = [
        (three_channels, "channels"),
        (odd_l1, "l1"),
        (too_many_banks, "banks per channel"),
    ];
    for (cfg, what) in cases {
        let err = cfg.validate().expect_err(what);
        match &err {
            ConfigError::DramGeometry { reason } => assert!(reason.contains(what), "{reason}"),
            ConfigError::CacheGeometry { cache, .. } => assert_eq!(*cache, what),
            other => panic!("{what}: unexpected {other:?}"),
        }
        let built = System::try_new(cfg.clone(), build(BenchmarkId::Kmn, Scale::Small, 1));
        assert_eq!(built.err(), Some(err.clone()), "{what}");
        let mut spec = RunSpec::new(BenchmarkId::Kmn, SchedulerKind::Fcfs, Scale::Small);
        spec.config = cfg;
        match run_benchmark(&spec) {
            Err(RunError::Config(e)) => assert_eq!(e, err, "{what}"),
            other => panic!("{what}: expected a config error, got {other:?}"),
        }
    }

    // 2 ranks x 128 banks: exactly the 256-bank limit.
    let mut widest = base.clone();
    widest.dram.banks_per_rank = 128;
    assert_eq!(widest.validate(), Ok(()));
    assert!(System::try_new(widest, build(BenchmarkId::Kmn, Scale::Small, 1)).is_ok());
}

#[test]
fn exhausted_budget_is_a_typed_error_with_snapshot() {
    let mut spec = RunSpec::new(BenchmarkId::Kmn, SchedulerKind::Fcfs, Scale::Small);
    spec.config.max_events = 1_000;
    match run_benchmark(&spec) {
        Err(RunError::Sim(SimError::EventBudgetExhausted {
            events, snapshot, ..
        })) => {
            assert_eq!(events, 1_001, "budget trips on the first event past it");
            // The diagnostic snapshot renders the scheduling state.
            let text = snapshot.to_string();
            assert!(text.contains("walker"), "{text}");
        }
        other => panic!("expected budget exhaustion, got {other:?}"),
    }
}

/// In a 2x4 interleaved topology the budget error describes the IOMMU
/// with the most pending walks when the run aborts (IOMMU 2 here, not
/// the first one), and its text names that IOMMU.
#[test]
fn budget_error_snapshots_the_stalled_iommu() {
    let mut spec = RunSpec::new(BenchmarkId::Xsb, SchedulerKind::SimtAware, Scale::Small);
    spec.config = spec.config.with_topology(2, 4);
    spec.config.max_events = 5_000;
    match run_benchmark(&spec) {
        Err(RunError::Sim(SimError::EventBudgetExhausted { snapshot, .. })) => {
            assert_eq!(snapshot.iommu, Some(2), "{snapshot}");
            assert!(
                snapshot.pending > 0 || snapshot.busy_walkers() > 0,
                "empty snapshot: {snapshot}"
            );
            assert!(snapshot.to_string().starts_with("IOMMU 2: "), "{snapshot}");
        }
        other => panic!("expected budget exhaustion, got {other:?}"),
    }
}

#[test]
fn watchdog_catches_injected_livelock() {
    let cfg = SystemConfig::paper_baseline()
        .with_watchdog(WatchdogConfig {
            check_events: 5_000,
            stall_epochs: 3,
        })
        .with_fault(FaultInjection::livelock_at(10_000));
    let sys = System::try_new(cfg, build(BenchmarkId::Kmn, Scale::Small, 1)).expect("valid");
    match sys.try_run() {
        Err(SimError::Livelock {
            events,
            stalled_epochs,
            snapshot,
            ..
        }) => {
            assert!(events > 10_000, "fired after the injection point: {events}");
            assert_eq!(stalled_epochs, 3);
            let text = snapshot.to_string();
            assert!(text.contains("pending"), "{text}");
        }
        other => panic!("expected a livelock diagnosis, got {other:?}"),
    }
}

/// The ISSUE acceptance scenario: an injected panic in one run of an
/// 8-spec sweep leaves the other seven results byte-identical to a clean
/// serial sweep and produces exactly one typed error naming the spec.
#[test]
fn injected_panic_isolates_one_cell_of_eight() {
    let mut specs = Vec::new();
    for id in [
        BenchmarkId::Kmn,
        BenchmarkId::Atx,
        BenchmarkId::Mvt,
        BenchmarkId::Ssp,
    ] {
        for kind in [SchedulerKind::Fcfs, SchedulerKind::SimtAware] {
            specs.push(RunSpec::new(id, kind, Scale::Small));
        }
    }
    let clean: Vec<_> = specs
        .iter()
        .map(|s| run_benchmark(s).expect("clean serial run"))
        .collect();

    let victim = 3;
    let mut faulty = specs.clone();
    faulty[victim].config = faulty[victim]
        .config
        .clone()
        .with_fault(FaultInjection::panic_at(1_000));
    let report = SweepExecutor::new(4)
        .with_retry(RetryPolicy::none())
        .try_run(&faulty);

    assert_eq!(report.cells.len(), 8);
    let failed: Vec<_> = report.failed().collect();
    assert_eq!(failed.len(), 1, "{}", report.failure_summary());
    assert_eq!(failed[0].index, victim);
    assert!(
        failed[0].label.contains(specs[victim].benchmark.abbrev()),
        "error names the spec: {}",
        failed[0].label
    );
    match &failed[0].result {
        Err(RunError::Panicked { message }) => {
            assert!(message.contains("injected fault"), "{message}");
        }
        other => panic!("expected a caught panic, got {other:?}"),
    }
    for (i, cell) in report.cells.iter().enumerate() {
        if i == victim {
            continue;
        }
        let r = cell.result.as_ref().expect("healthy cell");
        assert_eq!(r, &clean[i], "cell {i} diverged from the serial sweep");
    }
}

/// Thread-mode twin of the process-mode escalation test in
/// `process_isolation.rs`: a budget that exhausts on attempts one and two
/// (B, then 4B) succeeds on the third attempt at 16B, and the escalated
/// run is bit-identical to an unconstrained one.
#[test]
fn budget_escalation_succeeds_on_the_third_attempt() {
    let spec = RunSpec::new(BenchmarkId::Kmn, SchedulerKind::Fcfs, Scale::Small);
    let clean = run_benchmark(&spec).expect("clean run");
    assert!(clean.events >= 16, "need a nontrivial run to starve");

    let budget = clean.events / 8;
    let mut starved = spec;
    starved.config.max_events = budget;
    let report = SweepExecutor::serial()
        .with_retry(RetryPolicy {
            max_attempts: 3,
            budget_factor: 4,
            backoff_ms: 0,
        })
        .try_run(std::slice::from_ref(&starved));

    let cell = &report.cells[0];
    let result = cell
        .result
        .as_ref()
        .expect("third attempt must fit the escalated budget");
    assert_eq!(cell.attempts, 3);
    assert_eq!(cell.budget_events, budget * 16);
    assert_eq!(result, &clean, "escalated run diverged from the clean run");
}

#[test]
fn checkpoint_resume_reruns_only_the_failed_cell() {
    let path = std::env::temp_dir().join(format!("ptw-resume-{}.jsonl", std::process::id()));
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
    ];

    // First sweep: one cell panics; the three completed results are
    // persisted to the checkpoint.
    let mut lab = Lab::new(Scale::Small, 7);
    lab.attach_checkpoint(&path).expect("create checkpoint");
    lab.set_fault(keys[0], FaultInjection::panic_at(500));
    lab.prefetch(&SweepExecutor::serial(), keys);
    assert_eq!(lab.executed, 4);
    assert_eq!(lab.failures().len(), 1);
    assert!(lab.failure_summary().contains("KMN"));

    // Rerun without the fault, resuming from the checkpoint: only the
    // failed cell executes again.
    let mut resumed = Lab::new(Scale::Small, 7);
    let loaded = resumed.attach_checkpoint(&path).expect("reopen checkpoint");
    assert_eq!(loaded, 3, "three clean results resumed");
    resumed.prefetch(&SweepExecutor::serial(), keys);
    assert_eq!(resumed.executed, 1, "only the failed cell re-ran");
    assert!(resumed.failures().is_empty());

    // The resumed results are bit-identical to a from-scratch lab.
    let mut fresh = Lab::new(Scale::Small, 7);
    fresh.prefetch(&SweepExecutor::serial(), keys);
    assert!(fresh.failures().is_empty());
    for (b, s, v) in keys {
        assert_eq!(
            fresh.try_result_with(b, s, v).expect("fresh cell ran"),
            resumed.try_result_with(b, s, v).expect("resumed cell ran"),
            "{b:?}/{s:?}"
        );
    }
    let _ = std::fs::remove_file(&path);
}
