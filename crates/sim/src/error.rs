//! Typed failure taxonomy of the run layer.
//!
//! A figures sweep is dozens of long, independent simulations; one bad run
//! must fail *as data*, not as a process abort. Three layers of errors:
//!
//! * [`ConfigError`] — the configuration was rejected before the system
//!   was even built ([`SystemConfig::validate`](crate::SystemConfig::validate));
//! * [`SimError`] — a running simulation aborted itself (event budget
//!   exhausted, watchdog-detected livelock, drained-queue deadlock), each
//!   carrying an [`IommuSnapshot`] so a wedged run explains itself;
//! * [`RunError`] — everything one sweep cell can report upward: a config
//!   or simulation error, or a panic caught at the sweep boundary.

use ptw_core::iommu::IommuSnapshot;

/// A [`SystemConfig`](crate::SystemConfig) that cannot describe a real
/// machine, rejected before any simulation state is built.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// The IOMMU walker pool is empty; no walk could ever be serviced.
    ZeroWalkers,
    /// More walkers than [`MAX_WALKERS`](crate::config::MAX_WALKERS):
    /// walker ids are `u8`.
    TooManyWalkers {
        /// The rejected walker count.
        got: usize,
    },
    /// The IOMMU buffer holds zero entries; no walk could ever be queued.
    ZeroBufferEntries,
    /// The GPU has zero compute units; no wavefront could ever run.
    ZeroCus,
    /// A TLB's geometry is degenerate: zero entries, a way count outside
    /// 1..=64 or not dividing the entry count, a non-power-of-two set
    /// count (the index function requires power-of-two sets), or a
    /// non-power-of-two way count under tree pseudo-LRU replacement.
    TlbGeometry {
        /// Which TLB ("gpu-l1", "gpu-l2", "iommu-l1", "iommu-l2").
        tlb: &'static str,
        /// The offending entry count.
        entries: usize,
        /// The offending way count.
        ways: usize,
    },
    /// A page-walk cache's per-level geometry is degenerate: zero entries,
    /// or a way count outside 1..=64 or not dividing the entry count.
    PwcGeometry {
        /// The offending entry count per level.
        entries_per_level: usize,
        /// The offending way count.
        ways: usize,
    },
    /// A data cache's geometry is degenerate: fewer than one whole set of
    /// 64 B lines, or a way count outside 1..=64 or not dividing the line
    /// count.
    CacheGeometry {
        /// Which cache ("l1" or "l2").
        cache: &'static str,
        /// The offending capacity in bytes.
        size_bytes: usize,
        /// The offending way count.
        ways: usize,
    },
    /// The DRAM geometry or timing is inconsistent (see
    /// [`DramConfig::validate`](ptw_mem::dram::DramConfig::validate)):
    /// channel or per-channel bank counts that are not powers of two,
    /// more than [`MAX_BANKS_PER_CHANNEL`](ptw_mem::dram::MAX_BANKS_PER_CHANNEL)
    /// banks per channel, a row under 64 B, or row timings out of order.
    DramGeometry {
        /// The violated constraint.
        reason: String,
    },
    /// The Figure 12 epoch length is zero or implausibly large.
    EpochAccessesOutOfRange {
        /// The rejected value.
        got: u64,
    },
    /// The watchdog is enabled (`check_events > 0`) but would never fire
    /// because `stall_epochs` is zero.
    WatchdogStallEpochsZero,
    /// The topology has zero IOMMUs; no walk could ever be serviced.
    ZeroIommus,
    /// More IOMMUs than [`MAX_IOMMUS`](crate::config::MAX_IOMMUS): IOMMU
    /// indices are `u8`.
    TooManyIommus {
        /// The rejected IOMMU count.
        got: usize,
    },
    /// The topology has zero GPU shards; no CU could be placed.
    ZeroGpuShards,
    /// More GPU shards than compute units: some shards would be empty.
    MoreShardsThanCus {
        /// Requested shard count.
        shards: usize,
        /// Available compute units.
        cus: usize,
    },
    /// The large-page fraction exceeds 1000 permille.
    LargePagePermilleOutOfRange {
        /// The rejected value.
        got: u32,
    },
    /// An explicit shard map was given but contains no VA ranges.
    EmptyShardMap,
    /// A shard-map VA range is empty (`start_page >= end_page`).
    EmptyVaRange {
        /// First VPN of the rejected range.
        start_page: u64,
        /// One past the last VPN of the rejected range.
        end_page: u64,
    },
    /// A shard-map range names an IOMMU index outside the topology.
    ShardTargetOutOfRange {
        /// The out-of-range IOMMU index.
        iommu: usize,
        /// The topology's IOMMU count.
        iommus: usize,
    },
    /// Two shard-map VA ranges overlap; a page would have two owners.
    OverlappingVaRanges {
        /// `(start_page, end_page)` of the first range.
        first: (u64, u64),
        /// `(start_page, end_page)` of the overlapping range.
        second: (u64, u64),
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroWalkers => write!(f, "IOMMU needs at least one page-table walker"),
            ConfigError::TooManyWalkers { got } => write!(
                f,
                "IOMMU has {got} walkers (at most {})",
                crate::config::MAX_WALKERS
            ),
            ConfigError::ZeroBufferEntries => {
                write!(f, "IOMMU buffer needs at least one entry")
            }
            ConfigError::ZeroCus => write!(f, "GPU needs at least one compute unit"),
            ConfigError::TlbGeometry { tlb, entries, ways } => write!(
                f,
                "{tlb} TLB geometry invalid: {entries} entries / {ways} ways \
                 (need entries a positive multiple of 1..=64 ways, a power-of-two set count, \
                 and power-of-two ways under tree-PLRU)"
            ),
            ConfigError::PwcGeometry {
                entries_per_level,
                ways,
            } => write!(
                f,
                "page-walk cache geometry invalid: {entries_per_level} entries per level / \
                 {ways} ways (need entries a positive multiple of 1..=64 ways)"
            ),
            ConfigError::CacheGeometry {
                cache,
                size_bytes,
                ways,
            } => write!(
                f,
                "{cache} data cache geometry invalid: {size_bytes} bytes / {ways} ways \
                 (need 1..=64 ways dividing a positive number of 64B lines)"
            ),
            ConfigError::DramGeometry { reason } => {
                write!(f, "DRAM configuration invalid: {reason}")
            }
            ConfigError::EpochAccessesOutOfRange { got } => write!(
                f,
                "epoch length {got} out of range (need 1..={})",
                crate::config::MAX_EPOCH_ACCESSES
            ),
            ConfigError::WatchdogStallEpochsZero => write!(
                f,
                "watchdog enabled but stall_epochs is zero; it would never fire"
            ),
            ConfigError::ZeroIommus => write!(f, "topology needs at least one IOMMU"),
            ConfigError::TooManyIommus { got } => write!(
                f,
                "topology has {got} IOMMUs (at most {})",
                crate::config::MAX_IOMMUS
            ),
            ConfigError::ZeroGpuShards => write!(f, "topology needs at least one GPU shard"),
            ConfigError::MoreShardsThanCus { shards, cus } => write!(
                f,
                "topology has {shards} GPU shards but only {cus} compute units"
            ),
            ConfigError::LargePagePermilleOutOfRange { got } => write!(
                f,
                "large-page fraction {got}\u{2030} out of range (need 0..=1000)"
            ),
            ConfigError::EmptyShardMap => {
                write!(f, "explicit shard map contains no VA ranges")
            }
            ConfigError::EmptyVaRange {
                start_page,
                end_page,
            } => write!(
                f,
                "shard-map VA range [{start_page:#x}, {end_page:#x}) is empty"
            ),
            ConfigError::ShardTargetOutOfRange { iommu, iommus } => write!(
                f,
                "shard-map range targets IOMMU {iommu} but the topology has {iommus}"
            ),
            ConfigError::OverlappingVaRanges { first, second } => write!(
                f,
                "shard-map VA ranges [{:#x}, {:#x}) and [{:#x}, {:#x}) overlap",
                first.0, first.1, second.0, second.1
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// A simulation that aborted itself mid-run.
///
/// Each variant carries the event count and cycle at abort plus an
/// [`IommuSnapshot`] of the scheduling state, so the diagnostic names the
/// stuck instructions and walkers instead of just "it hung".
#[derive(Clone, Debug, PartialEq)]
pub enum SimError {
    /// The run exceeded `cfg.max_events` — the coarse safety valve.
    EventBudgetExhausted {
        /// Events processed when the budget tripped.
        events: u64,
        /// Simulated cycle at abort.
        now: u64,
        /// Scheduling state at abort.
        snapshot: Box<IommuSnapshot>,
    },
    /// The watchdog saw events advancing while retired instructions stood
    /// still for `stalled_epochs` consecutive check intervals.
    Livelock {
        /// Events processed when the watchdog fired.
        events: u64,
        /// Simulated cycle at abort.
        now: u64,
        /// Consecutive no-progress check intervals observed.
        stalled_epochs: u64,
        /// Instructions retired when progress stopped.
        retired_instructions: u64,
        /// Scheduling state at abort.
        snapshot: Box<IommuSnapshot>,
    },
    /// The event queue drained with unretired wavefronts — the machine
    /// stopped dead rather than spinning.
    Deadlock {
        /// Simulated cycle when the queue drained.
        now: u64,
        /// Wavefronts left unretired.
        unretired_wavefronts: usize,
        /// Scheduling state at abort.
        snapshot: Box<IommuSnapshot>,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::EventBudgetExhausted {
                events,
                now,
                snapshot,
            } => write!(
                f,
                "event budget exhausted at cycle {now} ({events} events)\n{snapshot}"
            ),
            SimError::Livelock {
                events,
                now,
                stalled_epochs,
                retired_instructions,
                snapshot,
            } => write!(
                f,
                "livelock at cycle {now}: {retired_instructions} instructions retired, \
                 none for {stalled_epochs} watchdog epochs ({events} events)\n{snapshot}"
            ),
            SimError::Deadlock {
                now,
                unretired_wavefronts,
                snapshot,
            } => write!(
                f,
                "deadlock: event queue drained at cycle {now} with \
                 {unretired_wavefronts} unretired wavefront(s)\n{snapshot}"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Everything one sweep cell can report upward.
#[derive(Clone, Debug, PartialEq)]
pub enum RunError {
    /// The configuration was rejected before the run started.
    Config(ConfigError),
    /// The simulation aborted itself with a typed diagnostic.
    Sim(SimError),
    /// The run panicked; the payload was caught at the sweep boundary.
    Panicked {
        /// The panic message (or a placeholder for non-string payloads).
        message: String,
    },
    /// A worker process died without reporting a result: nonzero exit,
    /// killed by a signal (abort, OOM kill, stack overflow), or its stdout
    /// held no decodable result line.
    WorkerDied {
        /// Exit classification plus a tail of the worker's stderr.
        message: String,
    },
    /// A worker process exceeded the per-cell wall-clock timeout and was
    /// killed and reaped by the supervisor.
    WorkerTimeout {
        /// The timeout that was enforced, in milliseconds.
        timeout_ms: u64,
    },
    /// A worker process ran the cell and reported a failure the wire
    /// protocol does not reconstruct as a fully typed error (config
    /// rejection, livelock, deadlock); the message preserves the worker's
    /// rendered diagnostic.
    WorkerReported {
        /// The worker-side error's full display text.
        message: String,
    },
}

impl RunError {
    /// Whether retrying the same spec could plausibly succeed.
    ///
    /// The simulator is deterministic, so a retry only helps when the
    /// retry changes something. Two failure modes qualify: an event budget
    /// set too low for a slow-but-progressing run (the executor escalates
    /// the budget between attempts), and a worker process that died or
    /// timed out (host-side conditions — memory pressure, scheduling — are
    /// not deterministic, so a backoff-delayed respawn can succeed).
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            RunError::Sim(SimError::EventBudgetExhausted { .. })
                | RunError::WorkerDied { .. }
                | RunError::WorkerTimeout { .. }
        )
    }
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Config(e) => write!(f, "invalid config: {e}"),
            RunError::Sim(e) => write!(f, "simulation failed: {e}"),
            RunError::Panicked { message } => write!(f, "run panicked: {message}"),
            RunError::WorkerDied { message } => write!(f, "worker died: {message}"),
            RunError::WorkerTimeout { timeout_ms } => {
                write!(f, "worker killed after {timeout_ms} ms cell timeout")
            }
            RunError::WorkerReported { message } => write!(f, "worker reported: {message}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<ConfigError> for RunError {
    fn from(e: ConfigError) -> Self {
        RunError::Config(e)
    }
}

impl From<SimError> for RunError {
    fn from(e: SimError) -> Self {
        RunError::Sim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_failures_classify_and_display() {
        let died = RunError::WorkerDied {
            message: "exit status: 134; stderr: abort".into(),
        };
        assert!(died.is_retryable(), "a dead worker is worth a respawn");
        assert!(died.to_string().contains("worker died"));
        let timeout = RunError::WorkerTimeout { timeout_ms: 1500 };
        assert!(timeout.is_retryable());
        assert!(timeout.to_string().contains("1500 ms"));
        let reported = RunError::WorkerReported {
            message: "simulation failed: livelock at cycle 10".into(),
        };
        assert!(!reported.is_retryable(), "typed worker reports are final");
        assert!(reported.to_string().contains("livelock"));
    }

    #[test]
    fn in_process_retryability_is_budget_exhaustion_only() {
        let snap = Box::new(IommuSnapshot::default());
        let budget = RunError::Sim(SimError::EventBudgetExhausted {
            events: 10,
            now: 100,
            snapshot: snap.clone(),
        });
        assert!(budget.is_retryable());
        let livelock = RunError::Sim(SimError::Livelock {
            events: 10,
            now: 100,
            stalled_epochs: 3,
            retired_instructions: 7,
            snapshot: snap.clone(),
        });
        assert!(!livelock.is_retryable());
        assert!(!RunError::Config(ConfigError::ZeroWalkers).is_retryable());
        assert!(!RunError::Panicked {
            message: "boom".into()
        }
        .is_retryable());
    }

    #[test]
    fn display_names_the_failure() {
        let e = RunError::Config(ConfigError::TlbGeometry {
            tlb: "gpu-l2",
            entries: 12,
            ways: 5,
        });
        let s = e.to_string();
        assert!(s.contains("gpu-l2"), "{s}");
        assert!(s.contains("12"), "{s}");
    }
}
