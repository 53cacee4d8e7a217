//! Page-table-walk scheduling: the scheduler shell and the policy façade.
//!
//! The paper's central claim is that *which pending walk the freed walker
//! services next* matters. The concrete ranking strategies live in
//! [`crate::policy`] behind the open [`WalkPolicy`] trait; this module
//! provides:
//!
//! * [`SchedulerKind`] — the named built-in policies, kept as a thin
//!   parse/display façade so configs, CLI flags, and sweep tables keep
//!   working with plain enum values;
//! * [`Scheduler`] — the stateful shell the IOMMU drives. It owns the
//!   boxed policy plus everything every policy shares: the eligibility
//!   scan (into a reusable, allocation-free candidate buffer), starvation
//!   aging (bypass counting and the forced pick past the threshold), and
//!   dispatch notification.
//!
//! The built-in policies, in paper order:
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

use crate::buffer::WalkBuffer;
use crate::index::CandidateIndex;
use crate::policy::{
    BatchFallback, Candidate, IndexedSelect, PolicyParams, PolicyRegistry, WalkPolicy,
};
use crate::request::WalkRequest;

/// Which built-in scheduling policy the IOMMU uses.
///
/// This is a *name*, not the implementation: each variant maps through
/// [`PolicyRegistry::builtin`] to a [`WalkPolicy`] instance. Custom
/// policies bypass the enum entirely via [`Scheduler::with_policy`].
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

    /// Short label used in reports ("FCFS", "Random", …). Doubles as the
    /// canonical [`PolicyRegistry`] name of the built-in policy.
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

    /// Whether this policy batches same-instruction requests.
    pub fn batches(self) -> bool {
        matches!(
            self,
            SchedulerKind::BatchOnly | SchedulerKind::SimtAware | SchedulerKind::HeaviestFirst
        )
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

/// Stateful selector: the shell around a [`WalkPolicy`].
///
/// The shell owns the cross-policy machinery so policies stay small:
///
/// 1. it scans the window once per call, copying eligible requests into a
///    reusable [`Candidate`] buffer (no per-call allocation on the hot
///    path) and locating the oldest starved request;
/// 2. starved requests pre-empt the policy's choice when the policy
///    [honors aging](WalkPolicy::honors_aging);
/// 3. it performs the aging bookkeeping (every eligible request older than
///    the pick was bypassed) and notifies the policy of the dispatch.
#[derive(Debug)]
pub struct Scheduler {
    /// The built-in kind, if constructed from one (`None` for custom
    /// policies installed via [`Scheduler::with_policy`]).
    kind: Option<SchedulerKind>,
    policy: Box<dyn WalkPolicy>,
    /// Instruction of the most recently dispatched walk.
    last_instr: Option<InstrId>,
    /// Bypass count threshold above which a request is force-prioritized.
    aging_threshold: u64,
    /// Reusable candidate buffer; cleared and refilled by every `select`.
    scratch: Vec<Candidate>,
    /// Picks where a starved request pre-empted the policy's choice.
    forced_picks: u64,
}

impl Scheduler {
    /// Creates a scheduler for a built-in policy. `aging_threshold` is the
    /// paper's two-million-requests starvation bound; `seed` feeds the
    /// Random policy.
    pub fn new(kind: SchedulerKind, aging_threshold: u64, seed: u64) -> Self {
        let params = PolicyParams {
            aging_threshold,
            seed,
        };
        let policy = PolicyRegistry::builtin()
            .build(kind.label(), &params)
            .expect("every SchedulerKind is registered as a builtin policy");
        Scheduler {
            kind: Some(kind),
            ..Self::with_policy(policy, aging_threshold)
        }
    }

    /// Creates a scheduler around an arbitrary policy — the extension
    /// point for experiments outside [`SchedulerKind`].
    pub fn with_policy(policy: Box<dyn WalkPolicy>, aging_threshold: u64) -> Self {
        Scheduler {
            kind: None,
            policy,
            last_instr: None,
            aging_threshold,
            scratch: Vec::new(),
            forced_picks: 0,
        }
    }

    /// The built-in policy in use, or `None` for a custom policy.
    pub fn kind(&self) -> Option<SchedulerKind> {
        self.kind
    }

    /// The active policy's name.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Whether the active policy ranks by per-instruction scores (drives
    /// the IOMMU's arrival-time PWC probe).
    pub fn uses_scores(&self) -> bool {
        self.policy.uses_scores()
    }

    /// Whether the active policy batches same-instruction requests.
    pub fn batches(&self) -> bool {
        self.policy.batches()
    }

    /// The instruction of the most recently dispatched walk, if any.
    pub fn last_instr(&self) -> Option<InstrId> {
        self.last_instr
    }

    /// How many picks a starved request forced past the policy's choice.
    pub fn forced_picks(&self) -> u64 {
        self.forced_picks
    }

    /// Selects the index (into `window`) of the next request to service.
    ///
    /// `eligible` filters out requests that cannot start (e.g. their page
    /// is already being walked). Returns `None` when nothing is eligible.
    ///
    /// On success the policy is notified of the dispatch and the bypass
    /// counters of all *older* eligible requests that were passed over are
    /// incremented (aging bookkeeping).
    pub fn select<W>(
        &mut self,
        window: &mut [WalkRequest<W>],
        eligible: impl Fn(&WalkRequest<W>) -> bool,
    ) -> Option<usize> {
        // One pass: gather candidates and the oldest starved request.
        self.scratch.clear();
        let mut starved = None;
        for (i, r) in window.iter().enumerate() {
            if eligible(r) {
                self.gather(i, r, &mut starved);
            }
        }
        self.pick_gathered(starved, |i| {
            window[i].bypassed += 1;
            window[i].bypassed
        })
    }

    /// [`select`](Self::select) over a [`WalkBuffer`] window: considers the
    /// `window_len` oldest pending requests in arrival order and returns
    /// the chosen request's buffer *handle*.
    ///
    /// Selection, aging bookkeeping, and dispatch notification are
    /// identical to the slice version — candidates are presented to the
    /// policy in the same order with the same fields (the opaque
    /// [`Candidate::index`] carries the handle instead of a slice index;
    /// no policy interprets it) — so the two entry points make
    /// bit-identical decisions on the same pending set.
    pub fn select_in_buffer<W>(
        &mut self,
        buf: &mut WalkBuffer<W>,
        window_len: usize,
        eligible: impl Fn(&WalkRequest<W>) -> bool,
    ) -> Option<u32> {
        // One pass: gather candidates and the oldest starved request.
        self.scratch.clear();
        let mut starved = None;
        let mut cursor = buf.first();
        for _ in 0..window_len {
            let Some(h) = cursor else { break };
            cursor = buf.next(h);
            buf.prefetch(cursor);
            let r = buf.get(h);
            if eligible(r) {
                self.gather(h as usize, r, &mut starved);
            }
        }
        self.pick_gathered(starved, |h| {
            let r = buf.get_mut(h as u32);
            r.bypassed += 1;
            r.bypassed
        })
        .map(|h| h as u32)
    }

    /// Appends one eligible request to the candidate buffer under the
    /// opaque `index`, tracking the position of the oldest starved one.
    fn gather<W>(&mut self, index: usize, r: &WalkRequest<W>, starved: &mut Option<usize>) {
        if r.is_starved(self.aging_threshold)
            && starved.is_none_or(|pos| r.seq < self.scratch[pos].seq)
        {
            *starved = Some(self.scratch.len());
        }
        self.scratch.push(Candidate {
            index,
            instr: r.instr,
            seq: r.seq,
            score: r.score,
        });
    }

    /// Shared tail of the scan paths: picks among the gathered candidates
    /// and returns the pick's opaque index. Starved requests pre-empt the
    /// policy's choice unless the policy opts out (FCFS is starvation-free
    /// by construction; Random stays the paper's unmodified "naive random"
    /// straw-man). Every candidate older than the pick was bypassed:
    /// `bump` increments its counter and returns the new count.
    fn pick_gathered(
        &mut self,
        starved: Option<usize>,
        mut bump: impl FnMut(usize) -> u64,
    ) -> Option<usize> {
        if self.scratch.is_empty() {
            return None;
        }
        let honors = self.policy.honors_aging();
        let pos = match starved {
            Some(pos) if honors => {
                self.forced_picks += 1;
                pos
            }
            _ => self.policy.select(&self.scratch),
        };
        let chosen = self.scratch[pos];
        for c in &self.scratch {
            if c.seq < chosen.seq {
                let bypassed = bump(c.index);
                // Aging bound: under an aging-honoring policy the oldest
                // starved request pre-empts the pick, so no candidate can
                // be bypassed past the threshold — it would have been
                // chosen (or be younger than the chosen starved request,
                // and left untouched).
                debug_assert!(
                    !honors || bypassed <= self.aging_threshold,
                    "request seq {} bypassed {} times, past the aging threshold {}",
                    c.seq,
                    bypassed,
                    self.aging_threshold,
                );
            }
        }
        self.last_instr = Some(chosen.instr);
        self.policy.on_dispatch(chosen.instr);
        Some(chosen.index)
    }

    /// [`select_in_buffer`](Self::select_in_buffer) answered from the
    /// incremental [`CandidateIndex`] instead of a window scan.
    ///
    /// The index must shadow `buf` exactly (same pushes/removes/blocks, see
    /// the [`index`](crate::index) module docs for the update contract);
    /// eligibility is the index's blocked flag, i.e. "no walk in flight for
    /// the page". Decisions — pick, policy-state updates, RNG stream
    /// consumption, bypass counts — are bit-identical to the scan path;
    /// `tests/indexed_selection_oracle.rs` pins this differentially. The
    /// bypass counts are kept lazily by the index (its `bypassed` query
    /// reads them), not in the requests' `bypassed` fields, so one buffer
    /// must be driven through this path or the scan paths, never both.
    ///
    /// Returns [`IndexedOutcome::Unsupported`] (before any side effect)
    /// when the active policy has no [`WalkPolicy::indexed_select`] form;
    /// the caller then falls back to the scan path for this call.
    pub fn select_in_buffer_indexed<W>(
        &mut self,
        buf: &WalkBuffer<W>,
        index: &mut CandidateIndex,
    ) -> IndexedOutcome {
        if self.policy.indexed_select().is_none() {
            return IndexedOutcome::Unsupported;
        }
        if index.eligible_in_window() == 0 {
            return IndexedOutcome::NoneEligible;
        }
        let honors = self.policy.honors_aging();

        // Starved requests pre-empt the policy's choice (same gate as the
        // scan path). Bypass counts never increase in arrival order among
        // candidates, so the oldest candidate is the oldest starved one
        // whenever any is. When it wins, the policy's own selection
        // machinery is never consulted: no RNG draw, no rotation-cursor
        // move.
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
            None => {
                let shape = self.policy.indexed_select().expect("checked above");
                match shape {
                    IndexedSelect::Oldest => index.fcfs_pick().expect("candidates nonempty"),
                    IndexedSelect::LowestScore => index.sjf_pick().expect("candidates nonempty"),
                    IndexedSelect::HighestScore => {
                        index.heaviest_pick().expect("candidates nonempty")
                    }
                    IndexedSelect::Batch { last, fallback } => last
                        .and_then(|l| index.oldest_of_instr(l))
                        .unwrap_or_else(|| {
                            match fallback {
                                BatchFallback::Oldest => index.fcfs_pick(),
                                BatchFallback::LowestScore => index.sjf_pick(),
                                BatchFallback::HighestScore => index.heaviest_pick(),
                            }
                            .expect("candidates nonempty")
                        }),
                    IndexedSelect::RoundRobin { cursor } => {
                        let last = cursor.map(InstrId::raw);
                        let (min_all, min_above) =
                            index.rr_minima(last).expect("candidates nonempty");
                        let next = if min_above != u32::MAX {
                            min_above
                        } else {
                            min_all
                        };
                        *cursor = Some(InstrId::new(next));
                        index
                            .oldest_of_instr(InstrId::new(next))
                            .expect("chosen instruction has a candidate")
                    }
                    IndexedSelect::Random { rng } => {
                        let r = rng.index(index.eligible_in_window());
                        index.nth_eligible(buf, r)
                    }
                }
            }
        };

        // Aging: every eligible request older than the choice was bypassed.
        // The oldest candidate holds the largest count, so it alone bounds
        // them (as on the scan path).
        index.record_bypass(buf, choice);
        debug_assert!(
            !honors || index.cursor_bypass() <= self.aging_threshold,
            "oldest candidate bypassed {} times, past the aging threshold {}",
            index.cursor_bypass(),
            self.aging_threshold,
        );
        let instr = buf.get(choice).instr;
        self.last_instr = Some(instr);
        self.policy.on_dispatch(instr);
        IndexedOutcome::Selected(choice)
    }
}

/// Result of [`Scheduler::select_in_buffer_indexed`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IndexedOutcome {
    /// A request was chosen (buffer handle); aging bookkeeping and dispatch
    /// notification have been applied, exactly as the scan path would.
    Selected(u32),
    /// No pending request is eligible inside the window. No side effects.
    NoneEligible,
    /// The active policy has no indexed form — fall back to the scan path.
    /// No side effects.
    Unsupported,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptw_types::addr::VirtPage;
    use ptw_types::time::Cycle;

    fn req(seq: u64, instr: u32, score: u32) -> WalkRequest<()> {
        WalkRequest {
            page: VirtPage::new(seq),
            instr: InstrId::new(instr),
            seq,
            enqueued_at: Cycle::ZERO,
            own_estimate: 1,
            score,
            bypassed: 0,
            waiter: (),
        }
    }

    fn sched(kind: SchedulerKind) -> Scheduler {
        Scheduler::new(kind, 2_000_000, 42)
    }

    #[test]
    fn fcfs_picks_oldest() {
        let mut s = sched(SchedulerKind::Fcfs);
        let mut w = vec![req(5, 0, 1), req(2, 1, 9), req(7, 2, 1)];
        assert_eq!(s.select(&mut w, |_| true), Some(1));
    }

    #[test]
    fn sjf_picks_lowest_score_with_seq_tiebreak() {
        let mut s = sched(SchedulerKind::SjfOnly);
        let mut w = vec![req(1, 0, 8), req(2, 1, 3), req(3, 2, 3)];
        assert_eq!(s.select(&mut w, |_| true), Some(1));
    }

    #[test]
    fn simt_aware_batches_before_sjf() {
        let mut s = sched(SchedulerKind::SimtAware);
        // First pick: no batching state, lowest score wins (instr 7).
        let mut w = vec![req(1, 3, 10), req(2, 7, 2), req(3, 3, 10), req(4, 7, 2)];
        assert_eq!(s.select(&mut w, |_| true), Some(1));
        w.remove(1);
        // Now instr 7 is the batching target: its remaining request (seq 4)
        // is chosen even though scores tie structure is unchanged.
        assert_eq!(s.select(&mut w, |_| true), Some(2));
        w.remove(2);
        // No instr-7 requests left: falls back to lowest score among rest.
        let pick = s.select(&mut w, |_| true).unwrap();
        assert_eq!(w[pick].instr, InstrId::new(3));
    }

    #[test]
    fn batch_only_falls_back_to_fcfs() {
        let mut s = sched(SchedulerKind::BatchOnly);
        let mut w = vec![req(2, 1, 9), req(5, 0, 1)];
        // No batching state yet → oldest (seq 2).
        assert_eq!(s.select(&mut w, |_| true), Some(0));
        w.remove(0);
        // instr 1 gone → fallback oldest again, ignoring scores.
        assert_eq!(s.select(&mut w, |_| true), Some(0));
    }

    #[test]
    fn batching_prefers_oldest_within_instruction() {
        let mut s = sched(SchedulerKind::SimtAware);
        let mut w = vec![req(1, 5, 1)];
        s.select(&mut w, |_| true);
        w.clear();
        w.push(req(9, 5, 50));
        w.push(req(3, 5, 50));
        assert_eq!(s.select(&mut w, |_| true), Some(1)); // seq 3 first
    }

    #[test]
    fn random_is_deterministic_per_seed_and_in_range() {
        let mut s1 = Scheduler::new(SchedulerKind::Random, 0, 9);
        let mut s2 = Scheduler::new(SchedulerKind::Random, 0, 9);
        let mut w = vec![req(1, 0, 1), req(2, 1, 1), req(3, 2, 1)];
        for _ in 0..10 {
            let a = s1.select(&mut w, |_| true);
            let b = s2.select(&mut w, |_| true);
            assert_eq!(a, b);
            assert!(a.unwrap() < w.len());
        }
    }

    #[test]
    fn eligibility_filter_respected() {
        let mut s = sched(SchedulerKind::Fcfs);
        let mut w = vec![req(1, 0, 1), req(2, 1, 1)];
        let pick = s.select(&mut w, |r| r.seq != 1);
        assert_eq!(pick, Some(1));
        let none = s.select(&mut w, |_| false);
        assert_eq!(none, None);
    }

    #[test]
    fn aging_counts_bypasses_and_preempts() {
        let mut s = Scheduler::new(SchedulerKind::SjfOnly, 3, 1);
        let mut w = vec![req(1, 0, 100), req(2, 1, 1), req(3, 2, 1), req(4, 3, 1)];
        // Three selections pick cheap younger requests, bypassing seq 1.
        for _ in 0..3 {
            let i = s.select(&mut w, |_| true).unwrap();
            assert_ne!(w[i].seq, 1);
            w.remove(i);
            w.push(req(10 + w.len() as u64, 9, 1));
        }
        // seq 1 has now been bypassed 3 times (= threshold): forced next.
        let i = s.select(&mut w, |_| true).unwrap();
        assert_eq!(w[i].seq, 1);
    }

    #[test]
    fn fcfs_never_needs_aging() {
        let mut s = Scheduler::new(SchedulerKind::Fcfs, 1, 1);
        let mut w = vec![req(1, 0, 1), req(2, 1, 1)];
        w[1].bypassed = 100; // pretend it starved
                             // FCFS still picks the oldest.
        assert_eq!(s.select(&mut w, |_| true), Some(0));
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
        let mut w = vec![req(1, 0, 2), req(2, 1, 9), req(3, 0, 2), req(4, 1, 9)];
        let mut order = Vec::new();
        while !w.is_empty() {
            let i = s.select(&mut w, |_| true).unwrap();
            order.push(w[i].instr.raw());
            w.remove(i);
        }
        assert_eq!(order, vec![1, 1, 0, 0]);
    }

    #[test]
    fn round_robin_alternates_instructions() {
        let mut s = sched(SchedulerKind::RoundRobin);
        let mut w = vec![req(1, 0, 1), req(2, 1, 1), req(3, 0, 1), req(4, 1, 1)];
        let mut order = Vec::new();
        while !w.is_empty() {
            let i = s.select(&mut w, |_| true).unwrap();
            order.push(w[i].instr.raw());
            w.remove(i);
        }
        assert_eq!(order, vec![0, 1, 0, 1]);
    }

    #[test]
    fn round_robin_wraps_around() {
        let mut s = sched(SchedulerKind::RoundRobin);
        let mut w = vec![req(1, 5, 1), req(2, 9, 1), req(3, 5, 1)];
        let first = s.select(&mut w, |_| true).unwrap();
        assert_eq!(w[first].instr.raw(), 5);
        let i = s.select(&mut w, |_| true).unwrap();
        assert_eq!(w[i].instr.raw(), 9);
        w.remove(i);
        // Only instr 5 remains; rotation wraps back to it.
        let i = s.select(&mut w, |_| true).unwrap();
        assert_eq!(w[i].instr.raw(), 5);
    }

    #[test]
    fn extended_policies_have_flags() {
        assert!(SchedulerKind::HeaviestFirst.uses_scores());
        assert!(SchedulerKind::HeaviestFirst.batches());
        assert!(!SchedulerKind::RoundRobin.uses_scores());
        assert!(!SchedulerKind::RoundRobin.batches());
    }

    #[test]
    fn capability_flags() {
        assert!(SchedulerKind::SimtAware.uses_scores());
        assert!(SchedulerKind::SimtAware.batches());
        assert!(SchedulerKind::SjfOnly.uses_scores());
        assert!(!SchedulerKind::SjfOnly.batches());
        assert!(!SchedulerKind::Fcfs.uses_scores());
        assert!(SchedulerKind::BatchOnly.batches());
    }

    #[test]
    fn scheduler_flags_delegate_to_policy() {
        for kind in SchedulerKind::EXTENDED {
            let s = sched(kind);
            assert_eq!(s.kind(), Some(kind));
            assert_eq!(s.policy_name(), kind.label());
            assert_eq!(s.uses_scores(), kind.uses_scores(), "{kind:?}");
            assert_eq!(s.batches(), kind.batches(), "{kind:?}");
        }
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

    #[test]
    fn custom_policy_runs_through_the_shell() {
        // Youngest-first: exists only in this test — no enum edit needed.
        #[derive(Debug)]
        struct YoungestFirst;
        impl WalkPolicy for YoungestFirst {
            fn name(&self) -> &'static str {
                "Youngest-first"
            }
            fn select(&mut self, candidates: &[Candidate]) -> usize {
                candidates
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, c)| c.seq)
                    .map(|(pos, _)| pos)
                    .expect("nonempty")
            }
            fn on_dispatch(&mut self, _instr: InstrId) {}
        }

        let mut s = Scheduler::with_policy(Box::new(YoungestFirst), 3);
        assert_eq!(s.kind(), None);
        assert_eq!(s.policy_name(), "Youngest-first");
        let mut w = vec![req(1, 0, 1), req(2, 1, 1), req(3, 2, 1)];
        // Picks the youngest (seq 3)...
        assert_eq!(s.select(&mut w, |_| true), Some(2));
        w.remove(2);
        // ...and the shell's aging still protects the old request: after
        // enough bypasses, seq 1 is forced despite the policy's preference.
        for next in 4..=10u64 {
            w.push(req(next, next as u32, 1));
            let i = s.select(&mut w, |_| true).unwrap();
            let served = w.remove(i).seq;
            if served == 1 {
                return; // aging pre-empted youngest-first, as required
            }
        }
        panic!("shell aging never pre-empted the custom policy");
    }
}

#[cfg(test)]
mod randomized {
    //! Randomized invariant tests driven by the in-tree [`SplitMix64`]
    //! (deterministic, offline — no external property-testing crate).

    use super::*;
    use ptw_types::addr::VirtPage;
    use ptw_types::rng::SplitMix64;
    use ptw_types::time::Cycle;

    fn req(seq: u64, instr: u32, score: u32) -> WalkRequest<()> {
        WalkRequest {
            page: VirtPage::new(seq),
            instr: InstrId::new(instr),
            seq,
            enqueued_at: Cycle::ZERO,
            own_estimate: 1,
            score,
            bypassed: 0,
            waiter: (),
        }
    }

    /// Every policy always returns an eligible in-bounds index (or `None`
    /// when nothing is eligible), for arbitrary windows.
    #[test]
    fn select_returns_valid_eligible_index() {
        let mut rng = SplitMix64::new(0xCA11D1DA7E);
        for case in 0..256 {
            let kind = SchedulerKind::EXTENDED[rng.index(SchedulerKind::EXTENDED.len())];
            let len = 1 + rng.index(63);
            let mut window: Vec<WalkRequest<()>> = (0..len)
                .map(|i| {
                    req(
                        i as u64,
                        rng.next_below(8) as u32,
                        1 + rng.next_below(299) as u32,
                    )
                })
                .collect();
            let eligible_set: Vec<bool> = (0..len).map(|_| rng.chance(0.5)).collect();
            let mut sched = Scheduler::new(kind, 1_000, 42 + case);
            let pick = sched.select(&mut window, |r| eligible_set[r.seq as usize]);
            match pick {
                Some(i) => {
                    assert!(i < window.len());
                    assert!(eligible_set[window[i].seq as usize]);
                }
                None => assert!(eligible_set.iter().all(|&e| !e)),
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
                let mut sched = Scheduler::new(kind, threshold, 7);
                // Victim: an expensive old request; competitors: endless
                // cheap ones.
                let mut window = vec![req(0, 0, 250)];
                let mut next_seq = 1u64;
                let mut selections = 0u64;
                loop {
                    while window.len() < 8 {
                        window.push(req(next_seq, 1 + (next_seq % churn) as u32, 1));
                        next_seq += 1;
                    }
                    let i = sched.select(&mut window, |_| true).expect("non-empty");
                    let served = window.remove(i);
                    selections += 1;
                    if served.seq == 0 {
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
                let mut window: Vec<WalkRequest<()>> = (0..len)
                    .map(|i| {
                        let instr = rng.next_below(4) as u32;
                        req(i as u64, instr, 1 + instr)
                    })
                    .collect();
                let mut sched = Scheduler::new(kind, 1_000_000, 3);
                let mut last: Option<u32> = None;
                while !window.is_empty() {
                    let i = sched.select(&mut window, |_| true).expect("non-empty");
                    let picked = window.remove(i).instr.raw();
                    if let Some(prev) = last {
                        // If the previous instruction still has requests,
                        // the batching policy must stay with it.
                        if window.iter().any(|r| r.instr.raw() == prev) {
                            assert_eq!(picked, prev, "batch broken under {kind:?}");
                        }
                    }
                    last = Some(picked);
                }
            }
        }
    }
}
