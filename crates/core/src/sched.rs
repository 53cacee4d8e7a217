//! Page-table-walk scheduling: the policy names and the scheduler.
//!
//! The paper's central claim is that *which pending walk the freed walker
//! services next* matters. This module provides:
//!
//! * [`SchedulerKind`] — the seven built-in policies, with their
//!   parse/display names and capability flags;
//! * [`Scheduler`] — the state machine the IOMMU drives. One entry point,
//!   [`Scheduler::select`], answers every policy straight from the
//!   incremental [`CandidateIndex`], applies starvation aging (the forced
//!   pick past the threshold and the bypass bookkeeping), and keeps the
//!   per-policy state: the batching target, the round-robin cursor and
//!   Random's stream.
//!
//! The paper's policies, in paper order:
//!
//! * [`SchedulerKind::Fcfs`] — the baseline: oldest request first;
//! * [`SchedulerKind::Random`] — the naive straw-man (slows apps by ~26%);
//! * [`SchedulerKind::SjfOnly`] — key idea 1 alone: lowest score first;
//! * [`SchedulerKind::BatchOnly`] — key idea 2 alone: batch same-instruction
//!   walks, otherwise FCFS;
//! * [`SchedulerKind::SimtAware`] — the paper's scheduler: batch first,
//!   then lowest score, oldest on ties, with starvation aging.
//!
//! Selection operates on a *window* of the pending queue (the IOMMU buffer
//! capacity — "the size of the lookahead for the scheduler", Section V-B2).

use ptw_types::ids::InstrId;
use ptw_types::rng::SplitMix64;

use crate::buffer::WalkBuffer;
use crate::index::CandidateIndex;

/// Which scheduling policy the IOMMU uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum SchedulerKind {
    /// First-come-first-serve (the paper's baseline).
    #[default]
    Fcfs,
    /// Uniformly random among pending requests.
    Random,
    /// Shortest-job-first on the per-instruction score only (ablation).
    SjfOnly,
    /// Same-instruction batching only, FCFS otherwise (ablation).
    BatchOnly,
    /// The paper's SIMT-aware scheduler (batching + SJF + aging).
    SimtAware,
    /// Follow-on probe: *longest*-job-first with batching — the exact
    /// inverse of the paper's key idea 1. Included to demonstrate that the
    /// SJF *direction* (not merely reordering) is what produces the gains;
    /// Section III anticipates such policy exploration by analogy to
    /// memory-controller scheduling.
    HeaviestFirst,
    /// Follow-on policy: round-robin one request per distinct instruction
    /// present in the window — an equal-share/QoS-flavoured policy.
    RoundRobin,
}

impl SchedulerKind {
    /// The policies the paper evaluates or ablates, for sweeps.
    pub const ALL: [SchedulerKind; 5] = [
        SchedulerKind::Fcfs,
        SchedulerKind::Random,
        SchedulerKind::SjfOnly,
        SchedulerKind::BatchOnly,
        SchedulerKind::SimtAware,
    ];

    /// Every policy including the follow-on explorations.
    pub const EXTENDED: [SchedulerKind; 7] = [
        SchedulerKind::Fcfs,
        SchedulerKind::Random,
        SchedulerKind::SjfOnly,
        SchedulerKind::BatchOnly,
        SchedulerKind::SimtAware,
        SchedulerKind::HeaviestFirst,
        SchedulerKind::RoundRobin,
    ];

    /// Short label used in reports ("FCFS", "Random", …).
    pub fn label(self) -> &'static str {
        match self {
            SchedulerKind::Fcfs => "FCFS",
            SchedulerKind::Random => "Random",
            SchedulerKind::SjfOnly => "SJF-only",
            SchedulerKind::BatchOnly => "Batch-only",
            SchedulerKind::SimtAware => "SIMT-aware",
            SchedulerKind::HeaviestFirst => "Heaviest-first",
            SchedulerKind::RoundRobin => "Round-robin",
        }
    }

    /// Parses a policy name: canonical labels, common CLI spellings, any
    /// ASCII case. Returns `None` for unknown names.
    pub fn parse(name: &str) -> Option<SchedulerKind> {
        let norm = name.trim().to_ascii_lowercase();
        Some(match norm.as_str() {
            "fcfs" | "first-come-first-serve" => SchedulerKind::Fcfs,
            "random" | "rand" => SchedulerKind::Random,
            "sjf" | "sjf-only" | "shortest-job-first" => SchedulerKind::SjfOnly,
            "batch" | "batch-only" => SchedulerKind::BatchOnly,
            "simt" | "simt-aware" => SchedulerKind::SimtAware,
            "heaviest" | "heaviest-first" | "ljf" => SchedulerKind::HeaviestFirst,
            "rr" | "round-robin" | "roundrobin" => SchedulerKind::RoundRobin,
            _ => return None,
        })
    }

    /// Whether this policy uses per-instruction scores (and therefore needs
    /// the arrival-time PWC estimate probe, action 1-a).
    pub fn uses_scores(self) -> bool {
        matches!(
            self,
            SchedulerKind::SjfOnly | SchedulerKind::SimtAware | SchedulerKind::HeaviestFirst
        )
    }

    /// Whether starved requests pre-empt this policy's choice. The pure
    /// baselines opt out: FCFS is starvation-free by construction and
    /// Random stays the paper's unmodified straw-man.
    pub fn honors_aging(self) -> bool {
        !matches!(self, SchedulerKind::Fcfs | SchedulerKind::Random)
    }
}

impl std::fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Error returned when parsing an unknown policy name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownPolicy(pub String);

impl std::fmt::Display for UnknownPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown scheduling policy `{}`", self.0)
    }
}

impl std::error::Error for UnknownPolicy {}

impl std::str::FromStr for SchedulerKind {
    type Err = UnknownPolicy;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        SchedulerKind::parse(s).ok_or_else(|| UnknownPolicy(s.to_string()))
    }
}

/// The walk scheduler: picks which pending request a freed walker
/// services next.
///
/// Every policy is answered from the [`CandidateIndex`] that shadows the
/// IOMMU's [`WalkBuffer`]; eligibility is the index's blocked flag ("no
/// walk in flight for the page"). Shared across policies:
///
/// 1. starved requests pre-empt the policy's choice when the policy
///    [honors aging](SchedulerKind::honors_aging);
/// 2. every eligible request older than the pick is counted as bypassed
///    (kept lazily by the index);
/// 3. the pick's instruction becomes the batching target.
#[derive(Debug)]
pub struct Scheduler {
    kind: SchedulerKind,
    /// Bypass count at which a request is force-prioritized.
    aging_threshold: u64,
    /// Instruction of the most recently dispatched walk, forced picks
    /// included: the batching target.
    last_instr: Option<InstrId>,
    /// Round-robin cursor: the last instruction the rotation granted. A
    /// starvation-forced pick does not move it.
    rr_last: Option<InstrId>,
    /// Random's stream; one draw per non-forced pick.
    rng: SplitMix64,
    /// Picks where a starved request pre-empted the policy's choice.
    forced_picks: u64,
}

impl Scheduler {
    /// Creates a scheduler for `kind`. `aging_threshold` is the paper's
    /// two-million-requests starvation bound; `seed` feeds the Random
    /// policy.
    pub fn new(kind: SchedulerKind, aging_threshold: u64, seed: u64) -> Self {
        Scheduler {
            kind,
            aging_threshold,
            last_instr: None,
            rr_last: None,
            rng: SplitMix64::new(seed),
            forced_picks: 0,
        }
    }

    /// How many picks a starved request forced past the policy's choice.
    pub fn forced_picks(&self) -> u64 {
        self.forced_picks
    }

    /// Picks the next request to service and returns its buffer handle,
    /// or `None` (with no side effect) when no request in the window is
    /// eligible.
    ///
    /// `index` must shadow `buf` exactly (see the [`index`](crate::index)
    /// module docs for the update contract). On a pick the index records
    /// the bypasses and the pick becomes the batching target; the caller
    /// then removes the request from `buf` and `index`.
    pub fn select<W>(&mut self, buf: &WalkBuffer<W>, index: &mut CandidateIndex) -> Option<u32> {
        if index.eligible_in_window() == 0 {
            return None;
        }
        let honors = self.kind.honors_aging();
        // Bypass counts never increase in arrival order among candidates,
        // so the oldest candidate is the oldest starved one whenever any
        // is. When it wins, the policy's own rule is never consulted: no
        // RNG draw, no rotation-cursor move.
        let starved = if honors && index.cursor_bypass() >= self.aging_threshold {
            index.fcfs_pick()
        } else {
            None
        };
        let choice = match starved {
            Some(h) => {
                self.forced_picks += 1;
                h
            }
            None => self.policy_pick(buf, index),
        };

        // Aging: every eligible request older than the choice was bypassed.
        // The oldest candidate holds the largest count, so it alone bounds
        // them.
        index.record_bypass(buf, choice);
        debug_assert!(
            !honors || index.cursor_bypass() <= self.aging_threshold,
            "oldest candidate bypassed {} times, past the aging threshold {}",
            index.cursor_bypass(),
            self.aging_threshold,
        );
        self.last_instr = Some(buf.get(choice).instr);
        Some(choice)
    }

    /// The policy's own pick among a non-empty candidate set.
    fn policy_pick<W>(&mut self, buf: &WalkBuffer<W>, index: &CandidateIndex) -> u32 {
        let pick = match self.kind {
            SchedulerKind::Fcfs => index.fcfs_pick(),
            SchedulerKind::Random => {
                let r = self.rng.index(index.eligible_in_window());
                Some(index.nth_eligible(buf, r))
            }
            SchedulerKind::SjfOnly => index.sjf_pick(),
            SchedulerKind::BatchOnly => self.batch_pick(index).or_else(|| index.fcfs_pick()),
            SchedulerKind::SimtAware => self.batch_pick(index).or_else(|| index.sjf_pick()),
            SchedulerKind::HeaviestFirst => {
                self.batch_pick(index).or_else(|| index.heaviest_pick())
            }
            SchedulerKind::RoundRobin => {
                // Smallest eligible instruction id strictly above the
                // cursor, wrapping to the smallest overall.
                let (min_all, min_above) = index
                    .rr_minima(self.rr_last.map(InstrId::raw))
                    .expect("candidates nonempty");
                let next = InstrId::new(if min_above != u32::MAX {
                    min_above
                } else {
                    min_all
                });
                self.rr_last = Some(next);
                index.oldest_of_instr(next)
            }
        };
        pick.expect("candidates nonempty")
    }

    /// The batching target's oldest candidate, if it has one (action 2-a).
    fn batch_pick(&self, index: &CandidateIndex) -> Option<u32> {
        self.last_instr.and_then(|l| index.oldest_of_instr(l))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::WalkRequest;
    use ptw_types::addr::VirtPage;
    use ptw_types::time::Cycle;

    /// A bare buffer + index pair, driven the way the IOMMU drives them.
    /// Every request gets its own page (its `seq`), so blocking one page
    /// makes exactly one request ineligible.
    struct Pending {
        buf: WalkBuffer<()>,
        index: CandidateIndex,
        next_seq: u64,
    }

    impl Pending {
        fn new(window: usize) -> Self {
            Pending {
                buf: WalkBuffer::new(),
                index: CandidateIndex::new(window),
                next_seq: 0,
            }
        }

        /// Enqueues a request of `instr` with `score`; returns its seq.
        fn push(&mut self, instr: u32, score: u32) -> u64 {
            let seq = self.next_seq;
            self.next_seq += 1;
            let h = self.buf.push(WalkRequest {
                page: VirtPage::new(seq),
                instr: InstrId::new(instr),
                seq,
                enqueued_at: Cycle::ZERO,
                own_estimate: 1,
                score,
                bypassed: 0,
                waiter: (),
            });
            self.index.on_push(&self.buf, h, false);
            seq
        }

        /// Makes request `seq` ineligible: a walk on its page started.
        fn block(&mut self, seq: u64) {
            self.index.block_page(&mut self.buf, seq);
        }

        /// One scheduler pick, removed from the buffer as a walk start
        /// would: `(seq, instr)` of the pick.
        fn pick(&mut self, s: &mut Scheduler) -> Option<(u64, u32)> {
            let h = s.select(&self.buf, &mut self.index)?;
            self.index.pre_remove(&self.buf, h);
            let r = self.buf.remove(h);
            self.index.finish_remove(&self.buf);
            Some((r.seq, r.instr.raw()))
        }

        fn pick_seq(&mut self, s: &mut Scheduler) -> u64 {
            self.pick(s).expect("a candidate").0
        }

        /// Drains every eligible request; the picked instructions in order.
        fn drain_instrs(&mut self, s: &mut Scheduler) -> Vec<u32> {
            std::iter::from_fn(|| self.pick(s).map(|(_, i)| i)).collect()
        }
    }

    /// `(instr, score)` requests, enqueued in order into a 256-entry window.
    fn pending(reqs: &[(u32, u32)]) -> Pending {
        let mut p = Pending::new(256);
        for &(instr, score) in reqs {
            p.push(instr, score);
        }
        p
    }

    fn sched(kind: SchedulerKind) -> Scheduler {
        Scheduler::new(kind, 2_000_000, 42)
    }

    #[test]
    fn fcfs_picks_oldest() {
        let mut s = sched(SchedulerKind::Fcfs);
        let mut p = pending(&[(0, 9), (1, 1), (2, 1)]);
        assert_eq!(p.pick_seq(&mut s), 0);
    }

    #[test]
    fn sjf_picks_lowest_score_with_seq_tiebreak() {
        let mut s = sched(SchedulerKind::SjfOnly);
        let mut p = pending(&[(0, 8), (1, 3), (2, 3)]);
        assert_eq!(p.pick_seq(&mut s), 1);
    }

    #[test]
    fn simt_aware_batches_before_sjf() {
        let mut s = sched(SchedulerKind::SimtAware);
        let mut p = pending(&[(3, 10), (7, 2), (3, 10), (7, 2)]);
        // First pick: no batching state, lowest score wins (instr 7).
        assert_eq!(p.pick_seq(&mut s), 1);
        // Now instr 7 is the batching target: its remaining request.
        assert_eq!(p.pick_seq(&mut s), 3);
        // No instr-7 requests left: falls back to lowest score among rest.
        assert_eq!(p.pick(&mut s).map(|(_, i)| i), Some(3));
    }

    #[test]
    fn batch_only_falls_back_to_fcfs() {
        let mut s = sched(SchedulerKind::BatchOnly);
        let mut p = pending(&[(1, 9), (0, 1)]);
        // No batching state yet → oldest.
        assert_eq!(p.pick_seq(&mut s), 0);
        // instr 1 gone → fallback oldest again, ignoring scores.
        assert_eq!(p.pick_seq(&mut s), 1);
    }

    #[test]
    fn batching_prefers_oldest_within_instruction() {
        let mut s = sched(SchedulerKind::SimtAware);
        let mut p = pending(&[(5, 1)]);
        assert_eq!(p.pick_seq(&mut s), 0);
        p.push(6, 1);
        p.push(5, 50);
        p.push(5, 50);
        // Batching on instr 5 beats the older, cheaper instr 6, and takes
        // instr 5's requests oldest first.
        assert_eq!(p.pick_seq(&mut s), 2);
        assert_eq!(p.pick_seq(&mut s), 3);
        assert_eq!(p.pick_seq(&mut s), 1);
    }

    #[test]
    fn random_is_deterministic_per_seed_and_in_range() {
        let reqs: Vec<(u32, u32)> = (0..8).map(|i| (i, 1)).collect();
        let (mut p1, mut p2) = (pending(&reqs), pending(&reqs));
        let mut s1 = Scheduler::new(SchedulerKind::Random, 0, 9);
        let mut s2 = Scheduler::new(SchedulerKind::Random, 0, 9);
        let order1: Vec<u64> = std::iter::from_fn(|| p1.pick(&mut s1).map(|(q, _)| q)).collect();
        let order2: Vec<u64> = std::iter::from_fn(|| p2.pick(&mut s2).map(|(q, _)| q)).collect();
        assert_eq!(order1, order2);
        let mut sorted = order1.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..8).collect::<Vec<u64>>());
        assert_ne!(order1, sorted, "seed 9 happens to draw arrival order");
    }

    #[test]
    fn eligibility_filter_respected() {
        let mut s = sched(SchedulerKind::Fcfs);
        let mut p = pending(&[(0, 1), (1, 1), (2, 1)]);
        p.block(0);
        assert_eq!(p.pick_seq(&mut s), 1);
        p.block(2);
        assert_eq!(p.pick(&mut s), None);
    }

    #[test]
    fn aging_counts_bypasses_and_preempts() {
        let mut s = Scheduler::new(SchedulerKind::SjfOnly, 3, 1);
        let mut p = pending(&[(0, 100), (1, 1), (2, 1), (3, 1)]);
        // Three selections pick cheap younger requests, bypassing seq 0.
        for _ in 0..3 {
            assert_ne!(p.pick_seq(&mut s), 0);
            p.push(9, 1);
        }
        assert_eq!(s.forced_picks(), 0);
        // seq 0 has now been bypassed 3 times (= threshold): forced next.
        assert_eq!(p.pick_seq(&mut s), 0);
        assert_eq!(s.forced_picks(), 1);
    }

    #[test]
    fn baselines_ignore_aging() {
        // Threshold 0 would force every pick of an aging-honoring policy.
        for kind in [SchedulerKind::Fcfs, SchedulerKind::Random] {
            let mut s = Scheduler::new(kind, 0, 1);
            let mut p = pending(&[(0, 1), (1, 1), (2, 1), (3, 1)]);
            while p.pick(&mut s).is_some() {}
            assert_eq!(s.forced_picks(), 0, "{kind:?}");
        }
        let mut s = Scheduler::new(SchedulerKind::Fcfs, 0, 1);
        let mut p = pending(&[(0, 9), (1, 1)]);
        assert_eq!(p.pick_seq(&mut s), 0);
    }

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::HashSet<_> =
            SchedulerKind::EXTENDED.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), SchedulerKind::EXTENDED.len());
    }

    #[test]
    fn heaviest_first_is_the_mirror_of_simt_aware() {
        let mut s = sched(SchedulerKind::HeaviestFirst);
        // Heaviest instruction (score 9) goes first, batched to completion.
        let mut p = pending(&[(0, 2), (1, 9), (0, 2), (1, 9)]);
        assert_eq!(p.drain_instrs(&mut s), vec![1, 1, 0, 0]);
    }

    #[test]
    fn round_robin_alternates_instructions() {
        let mut s = sched(SchedulerKind::RoundRobin);
        let mut p = pending(&[(0, 1), (1, 1), (0, 1), (1, 1)]);
        assert_eq!(p.drain_instrs(&mut s), vec![0, 1, 0, 1]);
    }

    #[test]
    fn round_robin_wraps_around() {
        let mut s = sched(SchedulerKind::RoundRobin);
        let mut p = pending(&[(5, 1), (9, 1), (5, 1)]);
        // 5, then 9, then only instr 5 remains: rotation wraps back to it.
        assert_eq!(p.drain_instrs(&mut s), vec![5, 9, 5]);
    }

    #[test]
    fn round_robin_cursor_ignores_forced_picks() {
        // Threshold 1: the rotation's second pick (instr 2) bypasses seq 1
        // (instr 3), which is then forced. The forced pick leaves the
        // cursor at 2, so the rotation next grants instr 3, not instr 4.
        let mut s = Scheduler::new(SchedulerKind::RoundRobin, 1, 0);
        let mut p = pending(&[(1, 1), (3, 1), (2, 1), (3, 1), (4, 1)]);
        assert_eq!(p.pick(&mut s), Some((0, 1)));
        assert_eq!(p.pick(&mut s), Some((2, 2)));
        assert_eq!(p.pick(&mut s), Some((1, 3)), "forced: seq 1 starved");
        assert_eq!(s.forced_picks(), 1);
        assert_eq!(p.pick(&mut s), Some((3, 3)));
        assert_eq!(p.pick(&mut s), Some((4, 4)));
    }

    #[test]
    fn capability_flags() {
        use SchedulerKind::*;
        let flags = |k: SchedulerKind| (k.uses_scores(), k.honors_aging());
        assert_eq!(flags(Fcfs), (false, false));
        assert_eq!(flags(Random), (false, false));
        assert_eq!(flags(SjfOnly), (true, true));
        assert_eq!(flags(BatchOnly), (false, true));
        assert_eq!(flags(SimtAware), (true, true));
        assert_eq!(flags(HeaviestFirst), (true, true));
        assert_eq!(flags(RoundRobin), (false, true));
    }

    #[test]
    fn parse_roundtrips_labels_and_aliases() {
        for kind in SchedulerKind::EXTENDED {
            assert_eq!(SchedulerKind::parse(kind.label()), Some(kind));
            assert_eq!(kind.label().parse::<SchedulerKind>(), Ok(kind));
        }
        assert_eq!(SchedulerKind::parse("simt"), Some(SchedulerKind::SimtAware));
        assert_eq!(SchedulerKind::parse("SJF"), Some(SchedulerKind::SjfOnly));
        assert_eq!(
            SchedulerKind::parse(" rr "),
            Some(SchedulerKind::RoundRobin)
        );
        assert_eq!(SchedulerKind::parse("nope"), None);
        assert!("nope".parse::<SchedulerKind>().is_err());
    }

    // ------------------------------------------------------------------
    // Randomized invariants, driven by the in-tree SplitMix64
    // (deterministic, offline — no external property-testing crate).
    // ------------------------------------------------------------------

    /// Every policy always returns an eligible in-window handle (or `None`
    /// exactly when nothing in the window is eligible), for arbitrary
    /// windows and blocked sets.
    #[test]
    fn select_returns_valid_eligible_index() {
        let mut rng = SplitMix64::new(0xCA11D1DA7E);
        for case in 0..256 {
            let kind = SchedulerKind::EXTENDED[rng.index(SchedulerKind::EXTENDED.len())];
            let len = 1 + rng.index(63);
            let window = 1 + rng.index(len);
            let mut p = Pending::new(window);
            for _ in 0..len {
                p.push(rng.next_below(8) as u32, 1 + rng.next_below(299) as u32);
            }
            let blocked: Vec<bool> = (0..len).map(|_| rng.chance(0.5)).collect();
            for seq in (0..len).filter(|&q| blocked[q]) {
                p.block(seq as u64);
            }
            let mut s = Scheduler::new(kind, 1_000, 42 + case);
            match s.select(&p.buf, &mut p.index) {
                Some(h) => {
                    let seq = p.buf.get(h).seq as usize;
                    assert!(seq < window, "{kind:?}: pick outside the window");
                    assert!(!blocked[seq], "{kind:?}: picked a blocked request");
                }
                None => assert!(blocked[..window].iter().all(|&b| b), "{kind:?}"),
            }
        }
    }

    /// Starvation freedom: draining a continuously refilled window, every
    /// policy (except pure Random) serves the very first request within a
    /// bounded number of selections once aging kicks in.
    #[test]
    fn aging_bounds_starvation() {
        let mut rng = SplitMix64::new(0x57A47E);
        for kind in SchedulerKind::EXTENDED {
            if kind == SchedulerKind::Random {
                continue;
            }
            for _ in 0..8 {
                let churn = 1 + rng.next_below(5);
                let threshold = 20u64;
                let mut s = Scheduler::new(kind, threshold, 7);
                // Victim: an expensive old request; competitors: endless
                // cheap ones.
                let mut p = pending(&[(0, 250)]);
                let mut selections = 0u64;
                loop {
                    while p.buf.len() < 8 {
                        let seq = p.next_seq;
                        p.push(1 + (seq % churn) as u32, 1);
                    }
                    selections += 1;
                    if p.pick_seq(&mut s) == 0 {
                        break;
                    }
                    assert!(
                        selections <= threshold + 64,
                        "{kind:?}: victim starved past the aging bound"
                    );
                }
            }
        }
    }

    /// Batching policies keep servicing the same instruction while it has
    /// eligible requests.
    #[test]
    fn batching_is_sticky() {
        let mut rng = SplitMix64::new(0xBA7C4E);
        for kind in [
            SchedulerKind::BatchOnly,
            SchedulerKind::SimtAware,
            SchedulerKind::HeaviestFirst,
        ] {
            for _ in 0..32 {
                let len = 8 + rng.index(24);
                let mut p = Pending::new(256);
                for _ in 0..len {
                    let instr = rng.next_below(4) as u32;
                    p.push(instr, 1 + instr);
                }
                let mut s = Scheduler::new(kind, 1_000_000, 3);
                let mut last: Option<u32> = None;
                while let Some((_, picked)) = p.pick(&mut s) {
                    if let Some(prev) = last.filter(|&prev| prev != picked) {
                        // Leaving an instruction is only allowed once it
                        // has no request left.
                        assert!(
                            p.index.oldest_of_instr(InstrId::new(prev)).is_none(),
                            "batch broken under {kind:?}"
                        );
                    }
                    last = Some(picked);
                }
            }
        }
    }
}
