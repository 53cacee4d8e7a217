//! Per-run metric collection for every figure in the paper.
//!
//! The simulator feeds raw events into [`MetricsCollector`]; at the end of
//! a run it is frozen into [`RunMetrics`], from which the experiment
//! harness derives each figure's normalized quantity:
//!
//! | Figure | quantity | source here |
//! |---|---|---|
//! | 2, 8, 13, 14 | speedup | [`RunMetrics::cycles`] |
//! | 3 | per-instruction walk-access histogram | [`RunMetrics::work_hist`] |
//! | 5 | fraction of instructions with interleaved walks | [`RunMetrics::interleaved_fraction`] |
//! | 6 | first- vs last-completed walk latency | [`RunMetrics::mean_first_latency`], [`mean_last_latency`](RunMetrics::mean_last_latency) |
//! | 9 | CU stall cycles | [`RunMetrics::cu_stall_cycles`] |
//! | 10 | first↔last latency gap | [`RunMetrics::mean_latency_gap`] |
//! | 11 | number of page walk requests | [`RunMetrics::walk_requests`] |
//! | 12 | distinct wavefronts per GPU-L2-TLB epoch | [`RunMetrics::mean_epoch_wavefronts`] |

use std::collections::HashSet;

use ptw_types::stats::{BucketHistogram, OnlineMean};
use ptw_types::time::Cycle;

/// The Figure 3 bucket edges (memory accesses per instruction).
pub const WORK_BUCKETS: [u64; 6] = [16, 32, 48, 64, 80, 256];

/// One completed walk request of one instruction, as observed by the GPU.
#[derive(Clone, Copy, Debug)]
pub struct WalkObservation {
    /// Latency from IOMMU-buffer entry to completion.
    pub latency: u64,
    /// Completion cycle.
    pub completed_at: Cycle,
    /// Global service order of the satisfying walk.
    pub service_seq: u64,
    /// Whether this request's own walk produced the result (as opposed to
    /// piggybacking on a same-page walk).
    pub via_walk: bool,
    /// Memory accesses the satisfying walk performed.
    pub accesses: u8,
}

/// Accumulates walk observations for one in-flight instruction.
#[derive(Clone, Debug, Default)]
pub struct InstrWalkLog {
    observations: Vec<WalkObservation>,
}

impl InstrWalkLog {
    /// Records one completed walk request.
    pub fn record(&mut self, obs: WalkObservation) {
        self.observations.push(obs);
    }

    /// Number of walk requests this instruction generated.
    pub fn walk_requests(&self) -> usize {
        self.observations.len()
    }

    /// Total page-walk memory accesses attributed to this instruction
    /// (its own walks only, so shared walks are not double-counted).
    pub fn total_accesses(&self) -> u64 {
        self.observations
            .iter()
            .filter(|o| o.via_walk)
            .map(|o| o.accesses as u64)
            .sum()
    }
}

/// Collects everything the figures need during one run.
#[derive(Debug)]
pub struct MetricsCollector {
    /// Per-instruction walk-access histogram (Figure 3).
    work_hist: BucketHistogram,
    /// Instructions that generated ≥2 walk requests.
    multi_walk_instructions: u64,
    /// … of which had a foreign walk serviced inside their service-seq
    /// span (Figure 5).
    interleaved_instructions: u64,
    /// Latency of the first-completed walk request per instruction (Fig 6).
    first_latency: OnlineMean,
    /// Latency of the last-completed walk request per instruction (Fig 6).
    last_latency: OnlineMean,
    /// last − first completion gap per instruction (Figure 10).
    latency_gap: OnlineMean,
    /// (instruction's own-walk count, min/max service seq) feed: resolved
    /// against the global walk log at finalize time.
    instr_spans: Vec<(u64, u64, u64)>, // (own_walks, min_seq, max_seq)
    /// Distinct wavefronts per GPU L2 TLB epoch (Figure 12).
    epoch_len: u64,
    epoch_count: u64,
    epoch_set: HashSet<u32>,
    epoch_mean: OnlineMean,
    /// Total GPU L2 TLB accesses.
    l2_tlb_accesses: u64,
    instructions_with_walks: u64,
    instructions_completed: u64,
}

impl MetricsCollector {
    /// Creates a collector; `epoch_len` is the Figure 12 epoch length in
    /// GPU L2 TLB accesses (the paper uses 1024).
    pub fn new(epoch_len: u64) -> Self {
        assert!(epoch_len > 0, "epoch length must be positive");
        MetricsCollector {
            work_hist: BucketHistogram::new(&WORK_BUCKETS),
            multi_walk_instructions: 0,
            interleaved_instructions: 0,
            first_latency: OnlineMean::new(),
            last_latency: OnlineMean::new(),
            latency_gap: OnlineMean::new(),
            instr_spans: Vec::new(),
            epoch_len,
            epoch_count: 0,
            epoch_set: HashSet::new(),
            epoch_mean: OnlineMean::new(),
            l2_tlb_accesses: 0,
            instructions_with_walks: 0,
            instructions_completed: 0,
        }
    }

    /// Instructions retired so far — the progress signal the livelock
    /// watchdog samples between event epochs.
    pub fn instructions_completed(&self) -> u64 {
        self.instructions_completed
    }

    /// Records one GPU shared-L2-TLB access by wavefront `wf` (Figure 12).
    pub fn l2_tlb_access(&mut self, wf: u32) {
        self.l2_tlb_accesses += 1;
        self.epoch_set.insert(wf);
        self.epoch_count += 1;
        if self.epoch_count == self.epoch_len {
            self.epoch_mean.add(self.epoch_set.len() as f64);
            self.epoch_set.clear();
            self.epoch_count = 0;
        }
    }

    /// Finalizes one completed instruction's walk log.
    pub fn instruction_done(&mut self, log: &InstrWalkLog) {
        self.instructions_completed += 1;
        if log.observations.is_empty() {
            return; // Figure 3 excludes instructions with no walks.
        }
        self.instructions_with_walks += 1;
        self.work_hist.add(log.total_accesses().max(1));

        if log.observations.len() < 2 {
            return; // interleaving and first/last need ≥2 requests
        }
        self.multi_walk_instructions += 1;
        let first = log
            .observations
            .iter()
            .min_by_key(|o| (o.completed_at, o.service_seq))
            .expect("non-empty");
        let last = log
            .observations
            .iter()
            .max_by_key(|o| (o.completed_at, o.service_seq))
            .expect("non-empty");
        self.first_latency.add(first.latency as f64);
        self.last_latency.add(last.latency as f64);
        self.latency_gap
            .add((last.completed_at.raw() - first.completed_at.raw()) as f64);

        // Interleaving: the instruction's own walks occupy a span of the
        // global walk service order; foreign walks in that span mean the
        // instruction's walks were interleaved (Figure 5).
        let (own, min, max) = log
            .observations
            .iter()
            .filter(|o| o.via_walk)
            .fold((0u64, u64::MAX, 0u64), |(n, lo, hi), o| {
                (n + 1, lo.min(o.service_seq), hi.max(o.service_seq))
            });
        if own >= 2 {
            self.instr_spans.push((own, min, max));
        }
    }

    /// Freezes the collector into the final metrics.
    ///
    /// `cycles`, `cu_stall_cycles` and the IOMMU counters come from the
    /// simulator's components at end of run.
    pub fn finish(
        mut self,
        cycles: u64,
        instructions: u64,
        cu_stall_cycles: u64,
        walk_requests: u64,
        walks_performed: u64,
    ) -> RunMetrics {
        for &(own, min, max) in &self.instr_spans {
            // Service seqs are unique per walk, so a span wider than the
            // instruction's own walk count contains foreign walks.
            if max - min + 1 > own {
                self.interleaved_instructions += 1;
            }
        }
        RunMetrics {
            cycles,
            instructions,
            cu_stall_cycles,
            walk_requests,
            walks_performed,
            work_hist: self.work_hist,
            interleaved_fraction: if self.multi_walk_instructions == 0 {
                0.0
            } else {
                self.interleaved_instructions as f64 / self.multi_walk_instructions as f64
            },
            mean_first_latency: self.first_latency.mean(),
            mean_last_latency: self.last_latency.mean(),
            mean_latency_gap: self.latency_gap.mean(),
            mean_epoch_wavefronts: self.epoch_mean.mean(),
            l2_tlb_accesses: self.l2_tlb_accesses,
            instructions_with_walks: self.instructions_with_walks,
            multi_walk_instructions: self.multi_walk_instructions,
        }
    }
}

/// The frozen metrics of one simulation run.
///
/// `PartialEq` compares every field exactly (including the `f64` means) —
/// the determinism tests rely on bit-identical results across serial and
/// parallel execution.
#[derive(Clone, Debug, PartialEq)]
pub struct RunMetrics {
    /// Total cycles until the last wavefront retired (performance).
    pub cycles: u64,
    /// SIMD memory instructions executed.
    pub instructions: u64,
    /// Sum of per-CU stall cycles (Figure 9).
    pub cu_stall_cycles: u64,
    /// Page walk requests enqueued at the IOMMU (Figure 11).
    pub walk_requests: u64,
    /// Walks actually executed by walkers.
    pub walks_performed: u64,
    /// Figure 3 histogram.
    pub work_hist: BucketHistogram,
    /// Figure 5 fraction.
    pub interleaved_fraction: f64,
    /// Figure 6: mean latency of first-completed walk per instruction.
    pub mean_first_latency: f64,
    /// Figure 6: mean latency of last-completed walk per instruction.
    pub mean_last_latency: f64,
    /// Figure 10: mean (last − first) completion gap.
    pub mean_latency_gap: f64,
    /// Figure 12: mean distinct wavefronts per L2-TLB epoch.
    pub mean_epoch_wavefronts: f64,
    /// Total GPU L2 TLB accesses.
    pub l2_tlb_accesses: u64,
    /// Instructions that generated at least one walk request.
    pub instructions_with_walks: u64,
    /// Instructions that generated at least two walk requests.
    pub multi_walk_instructions: u64,
}

impl RunMetrics {
    /// Figure 6's ratio: mean last-completed latency over mean
    /// first-completed latency.
    pub fn last_over_first(&self) -> f64 {
        if self.mean_first_latency == 0.0 {
            0.0
        } else {
            self.mean_last_latency / self.mean_first_latency
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(latency: u64, at: u64, seq: u64, via_walk: bool, accesses: u8) -> WalkObservation {
        WalkObservation {
            latency,
            completed_at: Cycle::new(at),
            service_seq: seq,
            via_walk,
            accesses,
        }
    }

    #[test]
    fn instruction_without_walks_is_excluded() {
        let mut m = MetricsCollector::new(1024);
        m.instruction_done(&InstrWalkLog::default());
        let r = m.finish(100, 1, 0, 0, 0);
        assert_eq!(r.instructions_with_walks, 0);
        assert_eq!(r.work_hist.total(), 0);
    }

    #[test]
    fn work_histogram_buckets_accesses() {
        let mut m = MetricsCollector::new(1024);
        let mut log = InstrWalkLog::default();
        for i in 0..16 {
            log.record(obs(100, 100 + i, i, true, 4)); // 64 accesses
        }
        m.instruction_done(&log);
        let r = m.finish(1, 1, 0, 16, 16);
        assert_eq!(r.work_hist.counts()[3], 1); // 49-64 bucket
    }

    #[test]
    fn merged_walks_do_not_double_count_accesses() {
        let mut log = InstrWalkLog::default();
        log.record(obs(10, 10, 1, true, 4));
        log.record(obs(10, 10, 1, false, 4)); // piggybacked
        assert_eq!(log.total_accesses(), 4);
    }

    #[test]
    fn interleaving_detected_from_span() {
        let mut m = MetricsCollector::new(1024);
        // Instruction A: walks at seq 1 and 3 → span 3, own 2 → foreign
        // walk (seq 2) in between → interleaved.
        let mut a = InstrWalkLog::default();
        a.record(obs(10, 10, 1, true, 1));
        a.record(obs(30, 30, 3, true, 1));
        m.instruction_done(&a);
        // Instruction B: walks at seq 4 and 5 → contiguous → batched.
        let mut b = InstrWalkLog::default();
        b.record(obs(10, 40, 4, true, 1));
        b.record(obs(12, 50, 5, true, 1));
        m.instruction_done(&b);
        let r = m.finish(1, 2, 0, 4, 4);
        assert_eq!(r.multi_walk_instructions, 2);
        assert!((r.interleaved_fraction - 0.5).abs() < 1e-12);
    }

    #[test]
    fn first_last_latency_and_gap() {
        let mut m = MetricsCollector::new(1024);
        let mut log = InstrWalkLog::default();
        log.record(obs(100, 1000, 1, true, 1));
        log.record(obs(400, 1300, 2, true, 1));
        m.instruction_done(&log);
        let r = m.finish(1, 1, 0, 2, 2);
        assert_eq!(r.mean_first_latency, 100.0);
        assert_eq!(r.mean_last_latency, 400.0);
        assert_eq!(r.mean_latency_gap, 300.0);
        assert_eq!(r.last_over_first(), 4.0);
    }

    #[test]
    fn single_walk_instruction_skips_gap_metrics() {
        let mut m = MetricsCollector::new(1024);
        let mut log = InstrWalkLog::default();
        log.record(obs(100, 1000, 1, true, 2));
        m.instruction_done(&log);
        let r = m.finish(1, 1, 0, 1, 1);
        assert_eq!(r.multi_walk_instructions, 0);
        assert_eq!(r.mean_latency_gap, 0.0);
        assert_eq!(r.work_hist.total(), 1);
    }

    #[test]
    fn epochs_count_distinct_wavefronts() {
        let mut m = MetricsCollector::new(4);
        // Epoch 1: wavefronts 1,2 → 2 distinct. Epoch 2: 1,1,1,1 → 1.
        for wf in [1, 2, 1, 2] {
            m.l2_tlb_access(wf);
        }
        for _ in 0..4 {
            m.l2_tlb_access(1);
        }
        let r = m.finish(1, 0, 0, 0, 0);
        assert!((r.mean_epoch_wavefronts - 1.5).abs() < 1e-12);
        assert_eq!(r.l2_tlb_accesses, 8);
    }

    #[test]
    fn partial_epoch_is_discarded() {
        let mut m = MetricsCollector::new(100);
        m.l2_tlb_access(1);
        let r = m.finish(1, 0, 0, 0, 0);
        assert_eq!(r.mean_epoch_wavefronts, 0.0);
    }
}
