//! The open walk-scheduling policy layer.
//!
//! The paper's contribution is the IOMMU walk scheduler, so the scheduler
//! layer must be the easiest place in the repo to experiment: a new policy
//! is one struct implementing [`WalkPolicy`] plus one
//! [`PolicyRegistry::register`] call — no enum edits, no `match` arms
//! spread over three files. Related work explores whole families of such
//! policies (memory-controller-style QoS schedulers, prefetch-mimicking
//! warp schedulers), and this trait is the seam they plug into.
//!
//! Architecture:
//!
//! * [`WalkPolicy`] — the strategy interface. A policy ranks *candidates*
//!   (eligible requests in the scheduler's lookahead window) and keeps its
//!   own state (batching target, round-robin cursor, RNG, …).
//! * [`Candidate`] — the non-generic view of a pending request a policy
//!   sees. The IOMMU buffer stores `WalkRequest<W>` generic over the
//!   caller's waiter token; copying the four policy-relevant fields out
//!   keeps the trait object-safe and the hot path allocation-free (the
//!   scheduler owns one reusable scratch buffer).
//! * [`PolicyRegistry`] — maps policy names to factories. The built-in
//!   table covers the seven [`SchedulerKind`](crate::sched::SchedulerKind)s;
//!   experiments can register more at runtime.
//!
//! Shared concerns stay *outside* the policies: the scheduler applies
//! starvation aging (bypass counting + forced pick past the threshold)
//! uniformly, so a policy only expresses its preference order. A policy
//! opts out of aging (the pure baselines do) via
//! [`WalkPolicy::honors_aging`].

use ptw_types::ids::InstrId;
use ptw_types::rng::SplitMix64;

/// Policy-visible view of one *eligible* pending walk request.
///
/// `index` points back into the scheduler's window; the remaining fields
/// are copies of the request's policy-relevant state. Candidates are
/// always presented in window order (ascending buffer position).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Candidate {
    /// Position of the request in the scheduler's window.
    pub index: usize,
    /// SIMD instruction that issued the request.
    pub instr: InstrId,
    /// Arrival order at the IOMMU buffer (unique, monotonic).
    pub seq: u64,
    /// Per-instruction score (estimated total walk accesses). The estimate
    /// is page-size-aware: a walk to a 2 MiB mapping terminates at the
    /// level-2 leaf, so it contributes at most 3 accesses (fewer on PWC
    /// hits) where a 4 KiB walk contributes up to 4 — SJF-style policies
    /// therefore naturally prefer large-page walks of equal PWC locality.
    pub score: u32,
}

/// Declarative description of a policy's selection rule, for the
/// incremental candidate index.
///
/// A policy that can express its [`WalkPolicy::select`] as one of these
/// shapes returns it from [`WalkPolicy::indexed_select`], and the
/// scheduler answers it straight from the
/// [`CandidateIndex`](crate::index::CandidateIndex) without gathering
/// candidates at all. The shapes carry exactly the state `select` would
/// have read or written, so the pick — and every side effect on policy
/// state or RNG streams — is bit-identical to the one-pass scan.
#[derive(Debug)]
pub enum IndexedSelect<'a> {
    /// Pick the oldest candidate (FCFS).
    Oldest,
    /// Pick the minimum `(score, seq)` candidate (SJF).
    LowestScore,
    /// Pick the maximum-score candidate, oldest on ties (heaviest-first).
    HighestScore,
    /// Batch on `last`'s oldest candidate when it has one, otherwise fall
    /// back to `fallback`.
    Batch {
        /// The batching target (the policy's `last_instr`).
        last: Option<InstrId>,
        /// Rule applied when the target has no candidate.
        fallback: BatchFallback,
    },
    /// Rotate over eligible instructions: smallest instruction id strictly
    /// above the cursor, wrapping to the smallest overall; then that
    /// instruction's oldest candidate. The scheduler writes the granted
    /// instruction back through `cursor` exactly when the rotation itself
    /// picks (never on starvation pre-emption), matching
    /// [`RoundRobinPolicy`].
    RoundRobin {
        /// The policy's rotation cursor, updated in place on a pick.
        cursor: &'a mut Option<InstrId>,
    },
    /// Pick uniformly at random among the candidates, drawing exactly one
    /// `rng.index(count)` per non-empty selection (the same stream
    /// consumption as the scan path).
    Random {
        /// The policy's RNG, advanced in place on a pick.
        rng: &'a mut SplitMix64,
    },
}

/// Fallback rule for [`IndexedSelect::Batch`] when the batching target has
/// no eligible request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchFallback {
    /// Oldest candidate ([`BatchFcfsPolicy`]).
    Oldest,
    /// Minimum `(score, seq)` ([`SimtAwarePolicy`]).
    LowestScore,
    /// Maximum score, oldest on ties ([`HeaviestFirstPolicy`]).
    HighestScore,
}

/// Construction parameters the registry hands to policy factories.
#[derive(Clone, Copy, Debug)]
pub struct PolicyParams {
    /// The scheduler's starvation bound, for policies that want it.
    pub aging_threshold: u64,
    /// Seed for stochastic policies.
    pub seed: u64,
}

/// A page-walk scheduling policy.
///
/// Implementations are *strategies*: given the eligible candidates of the
/// current window they pick one, and they observe every dispatch (their
/// own picks *and* starvation-forced picks) to maintain state such as the
/// batching target. See the module docs for the division of labour with
/// the scheduler.
pub trait WalkPolicy: std::fmt::Debug + Send {
    /// Short human-readable name used in reports and registry lookups.
    fn name(&self) -> &'static str;

    /// Chooses the next request to service.
    ///
    /// Returns a position into `candidates` (NOT a window index — the
    /// scheduler translates via [`Candidate::index`]). `candidates` is
    /// never empty and is sorted by window position.
    fn select(&mut self, candidates: &[Candidate]) -> usize;

    /// Observes that a request of `instr` was dispatched to a walker.
    ///
    /// Called for every dispatch, including starvation-forced ones that
    /// bypassed [`select`](Self::select), so batching state tracks what
    /// the walkers actually received.
    fn on_dispatch(&mut self, instr: InstrId);

    /// Whether the policy ranks by the paper's per-instruction score (and
    /// therefore needs the arrival-time PWC probe, action 1-a).
    fn uses_scores(&self) -> bool {
        false
    }

    /// Whether the policy batches same-instruction requests (action 2-a).
    fn batches(&self) -> bool {
        false
    }

    /// Whether starved requests pre-empt this policy's choice. The pure
    /// baselines opt out: FCFS is starvation-free by construction and
    /// Random stays the paper's unmodified straw-man.
    fn honors_aging(&self) -> bool {
        true
    }

    /// Declarative form of [`select`](Self::select) for the incremental
    /// candidate index, or `None` when the policy can only be driven
    /// through the candidate-slice interface (the scheduler then falls
    /// back to the one-pass window scan — custom registered policies work
    /// unchanged, just without the fast path).
    ///
    /// Contract: the returned shape must describe *exactly* what `select`
    /// computes, including tie-breaking and internal-state updates, or
    /// scheduling decisions change between the two paths.
    fn indexed_select(&mut self) -> Option<IndexedSelect<'_>> {
        None
    }
}

/// Position of the oldest candidate.
pub fn oldest(candidates: &[Candidate]) -> usize {
    pos_min_by_key(candidates, |c| c.seq)
}

/// Position of the lowest-score candidate, oldest on ties (paper key
/// idea 1: shortest job first).
pub fn lowest_score(candidates: &[Candidate]) -> usize {
    pos_min_by_key(candidates, |c| (c.score, c.seq))
}

/// Position of the highest-score candidate, oldest on ties (the inverse
/// probe policy).
pub fn highest_score(candidates: &[Candidate]) -> usize {
    pos_max_by_key(candidates, |c| (c.score, u64::MAX - c.seq))
}

/// Position of the oldest candidate from `instr`, if any (action 2-a).
pub fn oldest_of_instr(candidates: &[Candidate], instr: InstrId) -> Option<usize> {
    candidates
        .iter()
        .enumerate()
        .filter(|(_, c)| c.instr == instr)
        .min_by_key(|(_, c)| c.seq)
        .map(|(pos, _)| pos)
}

fn pos_min_by_key<K: Ord>(candidates: &[Candidate], key: impl Fn(&Candidate) -> K) -> usize {
    candidates
        .iter()
        .enumerate()
        .min_by_key(|(_, c)| key(c))
        .map(|(pos, _)| pos)
        .expect("candidates nonempty")
}

fn pos_max_by_key<K: Ord>(candidates: &[Candidate], key: impl Fn(&Candidate) -> K) -> usize {
    candidates
        .iter()
        .enumerate()
        .max_by_key(|(_, c)| key(c))
        .map(|(pos, _)| pos)
        .expect("candidates nonempty")
}

/// First-come-first-serve: the paper's baseline.
#[derive(Clone, Copy, Debug, Default)]
pub struct FcfsPolicy;

impl WalkPolicy for FcfsPolicy {
    fn name(&self) -> &'static str {
        "FCFS"
    }

    fn select(&mut self, candidates: &[Candidate]) -> usize {
        oldest(candidates)
    }

    fn on_dispatch(&mut self, _instr: InstrId) {}

    fn honors_aging(&self) -> bool {
        false
    }

    fn indexed_select(&mut self) -> Option<IndexedSelect<'_>> {
        Some(IndexedSelect::Oldest)
    }
}

/// Uniformly random among pending requests: the paper's straw-man.
#[derive(Clone, Debug)]
pub struct RandomPolicy {
    rng: SplitMix64,
}

impl RandomPolicy {
    /// Creates the policy with its own deterministic stream.
    pub fn new(seed: u64) -> Self {
        RandomPolicy {
            rng: SplitMix64::new(seed),
        }
    }
}

impl WalkPolicy for RandomPolicy {
    fn name(&self) -> &'static str {
        "Random"
    }

    fn select(&mut self, candidates: &[Candidate]) -> usize {
        self.rng.index(candidates.len())
    }

    fn on_dispatch(&mut self, _instr: InstrId) {}

    fn honors_aging(&self) -> bool {
        false
    }

    fn indexed_select(&mut self) -> Option<IndexedSelect<'_>> {
        Some(IndexedSelect::Random { rng: &mut self.rng })
    }
}

/// Shortest-job-first on the per-instruction score alone (ablation of the
/// paper's key idea 1).
#[derive(Clone, Copy, Debug, Default)]
pub struct SjfPolicy;

impl WalkPolicy for SjfPolicy {
    fn name(&self) -> &'static str {
        "SJF-only"
    }

    fn select(&mut self, candidates: &[Candidate]) -> usize {
        lowest_score(candidates)
    }

    fn on_dispatch(&mut self, _instr: InstrId) {}

    fn uses_scores(&self) -> bool {
        true
    }

    fn indexed_select(&mut self) -> Option<IndexedSelect<'_>> {
        Some(IndexedSelect::LowestScore)
    }
}

/// Same-instruction batching only, FCFS otherwise (ablation of the
/// paper's key idea 2).
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchFcfsPolicy {
    last_instr: Option<InstrId>,
}

impl WalkPolicy for BatchFcfsPolicy {
    fn name(&self) -> &'static str {
        "Batch-only"
    }

    fn select(&mut self, candidates: &[Candidate]) -> usize {
        self.last_instr
            .and_then(|last| oldest_of_instr(candidates, last))
            .unwrap_or_else(|| oldest(candidates))
    }

    fn on_dispatch(&mut self, instr: InstrId) {
        self.last_instr = Some(instr);
    }

    fn batches(&self) -> bool {
        true
    }

    fn indexed_select(&mut self) -> Option<IndexedSelect<'_>> {
        Some(IndexedSelect::Batch {
            last: self.last_instr,
            fallback: BatchFallback::Oldest,
        })
    }
}

/// The paper's SIMT-aware scheduler: batch first, then lowest score,
/// oldest on ties (aging is applied by the scheduler shell).
#[derive(Clone, Copy, Debug, Default)]
pub struct SimtAwarePolicy {
    last_instr: Option<InstrId>,
}

impl WalkPolicy for SimtAwarePolicy {
    fn name(&self) -> &'static str {
        "SIMT-aware"
    }

    fn select(&mut self, candidates: &[Candidate]) -> usize {
        self.last_instr
            .and_then(|last| oldest_of_instr(candidates, last))
            .unwrap_or_else(|| lowest_score(candidates))
    }

    fn on_dispatch(&mut self, instr: InstrId) {
        self.last_instr = Some(instr);
    }

    fn uses_scores(&self) -> bool {
        true
    }

    fn batches(&self) -> bool {
        true
    }

    fn indexed_select(&mut self) -> Option<IndexedSelect<'_>> {
        Some(IndexedSelect::Batch {
            last: self.last_instr,
            fallback: BatchFallback::LowestScore,
        })
    }
}

/// Longest-job-first with batching: the exact inverse of the paper's key
/// idea 1, kept to demonstrate the SJF *direction* is what matters.
#[derive(Clone, Copy, Debug, Default)]
pub struct HeaviestFirstPolicy {
    last_instr: Option<InstrId>,
}

impl WalkPolicy for HeaviestFirstPolicy {
    fn name(&self) -> &'static str {
        "Heaviest-first"
    }

    fn select(&mut self, candidates: &[Candidate]) -> usize {
        self.last_instr
            .and_then(|last| oldest_of_instr(candidates, last))
            .unwrap_or_else(|| highest_score(candidates))
    }

    fn on_dispatch(&mut self, instr: InstrId) {
        self.last_instr = Some(instr);
    }

    fn uses_scores(&self) -> bool {
        true
    }

    fn batches(&self) -> bool {
        true
    }

    fn indexed_select(&mut self) -> Option<IndexedSelect<'_>> {
        Some(IndexedSelect::Batch {
            last: self.last_instr,
            fallback: BatchFallback::HighestScore,
        })
    }
}

/// Round-robin one request per distinct instruction in the window — an
/// equal-share/QoS-flavoured follow-on policy.
#[derive(Clone, Debug, Default)]
pub struct RoundRobinPolicy {
    /// The last instruction granted a turn. Unlike the batching target
    /// this advances only when the rotation itself picks (a starvation
    /// pre-emption does not move the cursor), matching the pre-refactor
    /// behavior bit for bit.
    rr_last: Option<InstrId>,
}

impl WalkPolicy for RoundRobinPolicy {
    fn name(&self) -> &'static str {
        "Round-robin"
    }

    fn select(&mut self, candidates: &[Candidate]) -> usize {
        // One request per distinct instruction in rotation: pick the
        // eligible instruction with the smallest ID strictly greater than
        // the last-served one, wrapping. Both "smallest id overall" and
        // "smallest id above the cursor" fall out of one linear pass —
        // the sorted/deduped rotation list an earlier version built per
        // call computed exactly these two minima.
        let mut min_all = u32::MAX;
        let mut min_above = u32::MAX;
        let last = self.rr_last.map(InstrId::raw);
        for c in candidates {
            let id = c.instr.raw();
            min_all = min_all.min(id);
            if last.is_some_and(|l| id > l) {
                min_above = min_above.min(id);
            }
        }
        let next = if min_above != u32::MAX {
            min_above
        } else {
            min_all
        };
        self.rr_last = Some(InstrId::new(next));
        candidates
            .iter()
            .enumerate()
            .filter(|(_, c)| c.instr.raw() == next)
            .min_by_key(|(_, c)| c.seq)
            .map(|(pos, _)| pos)
            .expect("chosen instruction has a candidate")
    }

    fn on_dispatch(&mut self, _instr: InstrId) {}

    fn indexed_select(&mut self) -> Option<IndexedSelect<'_>> {
        Some(IndexedSelect::RoundRobin {
            cursor: &mut self.rr_last,
        })
    }
}

/// Builds one boxed policy instance.
pub type PolicyFactory = fn(&PolicyParams) -> Box<dyn WalkPolicy>;

/// One registry row: a canonical name, lookup aliases, and a factory.
#[derive(Clone, Copy, Debug)]
pub struct PolicyEntry {
    /// Canonical name (matches [`WalkPolicy::name`]).
    pub name: &'static str,
    /// Extra names accepted by [`PolicyRegistry::build`] (CLI spellings).
    pub aliases: &'static [&'static str],
    /// Constructor.
    pub factory: PolicyFactory,
}

/// Name → factory table for walk policies.
///
/// [`PolicyRegistry::builtin`] carries the seven policies the figures
/// sweep; experiments add their own with [`register`](Self::register).
/// Lookups are case-insensitive over names and aliases.
#[derive(Clone, Debug, Default)]
pub struct PolicyRegistry {
    entries: Vec<PolicyEntry>,
}

impl PolicyRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The built-in policies (the seven `SchedulerKind`s).
    pub fn builtin() -> Self {
        let mut r = Self::new();
        r.register(PolicyEntry {
            name: "FCFS",
            aliases: &["fcfs", "first-come-first-serve"],
            factory: |_| Box::new(FcfsPolicy),
        });
        r.register(PolicyEntry {
            name: "Random",
            aliases: &["random", "rand"],
            factory: |p| Box::new(RandomPolicy::new(p.seed)),
        });
        r.register(PolicyEntry {
            name: "SJF-only",
            aliases: &["sjf", "sjf-only", "shortest-job-first"],
            factory: |_| Box::new(SjfPolicy),
        });
        r.register(PolicyEntry {
            name: "Batch-only",
            aliases: &["batch", "batch-only"],
            factory: |_| Box::new(BatchFcfsPolicy::default()),
        });
        r.register(PolicyEntry {
            name: "SIMT-aware",
            aliases: &["simt", "simt-aware"],
            factory: |_| Box::new(SimtAwarePolicy::default()),
        });
        r.register(PolicyEntry {
            name: "Heaviest-first",
            aliases: &["heaviest", "heaviest-first", "ljf"],
            factory: |_| Box::new(HeaviestFirstPolicy::default()),
        });
        r.register(PolicyEntry {
            name: "Round-robin",
            aliases: &["rr", "round-robin", "roundrobin"],
            factory: |_| Box::new(RoundRobinPolicy::default()),
        });
        r
    }

    /// Adds (or replaces, by canonical name) a policy.
    pub fn register(&mut self, entry: PolicyEntry) {
        if let Some(slot) = self.entries.iter_mut().find(|e| e.name == entry.name) {
            *slot = entry;
        } else {
            self.entries.push(entry);
        }
    }

    /// Instantiates the policy registered under `name` (or an alias).
    pub fn build(&self, name: &str, params: &PolicyParams) -> Option<Box<dyn WalkPolicy>> {
        self.entries
            .iter()
            .find(|e| {
                e.name.eq_ignore_ascii_case(name)
                    || e.aliases.iter().any(|a| a.eq_ignore_ascii_case(name))
            })
            .map(|e| (e.factory)(params))
    }

    /// Canonical names, in registration order.
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.entries.iter().map(|e| e.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(index: usize, instr: u32, seq: u64, score: u32) -> Candidate {
        Candidate {
            index,
            instr: InstrId::new(instr),
            seq,
            score,
        }
    }

    const PARAMS: PolicyParams = PolicyParams {
        aging_threshold: 100,
        seed: 7,
    };

    #[test]
    fn builtin_registry_builds_all_seven() {
        let reg = PolicyRegistry::builtin();
        assert_eq!(reg.names().count(), 7);
        for name in [
            "FCFS",
            "Random",
            "SJF-only",
            "Batch-only",
            "SIMT-aware",
            "Heaviest-first",
            "Round-robin",
        ] {
            let p = reg
                .build(name, &PARAMS)
                .unwrap_or_else(|| panic!("missing {name}"));
            assert_eq!(p.name(), name);
        }
    }

    #[test]
    fn aliases_and_case_insensitivity() {
        let reg = PolicyRegistry::builtin();
        assert_eq!(reg.build("fcfs", &PARAMS).unwrap().name(), "FCFS");
        assert_eq!(reg.build("SIMT", &PARAMS).unwrap().name(), "SIMT-aware");
        assert_eq!(reg.build("rr", &PARAMS).unwrap().name(), "Round-robin");
        assert!(reg.build("no-such-policy", &PARAMS).is_none());
    }

    #[test]
    fn register_replaces_by_name() {
        let mut reg = PolicyRegistry::builtin();
        let before = reg.names().count();
        reg.register(PolicyEntry {
            name: "FCFS",
            aliases: &[],
            factory: |_| Box::new(FcfsPolicy),
        });
        assert_eq!(reg.names().count(), before);
    }

    #[test]
    fn custom_policy_plugs_in() {
        // A "youngest-first" policy: the open-layer smoke test — no enum
        // was edited to add it.
        #[derive(Debug)]
        struct YoungestFirst;
        impl WalkPolicy for YoungestFirst {
            fn name(&self) -> &'static str {
                "Youngest-first"
            }
            fn select(&mut self, candidates: &[Candidate]) -> usize {
                pos_max_by_key(candidates, |c| c.seq)
            }
            fn on_dispatch(&mut self, _instr: InstrId) {}
        }
        let mut reg = PolicyRegistry::builtin();
        reg.register(PolicyEntry {
            name: "Youngest-first",
            aliases: &["yf"],
            factory: |_| Box::new(YoungestFirst),
        });
        let mut p = reg.build("yf", &PARAMS).expect("registered");
        let cands = [cand(0, 0, 10, 1), cand(2, 1, 30, 1), cand(5, 2, 20, 1)];
        assert_eq!(p.select(&cands), 1);
    }

    #[test]
    fn selection_helpers_tiebreak_like_the_enum_match() {
        // lowest_score ties break to the oldest; highest_score ties break
        // to the oldest via the (score, MAX - seq) key.
        let cands = [cand(0, 0, 5, 3), cand(1, 1, 2, 3), cand(2, 2, 9, 3)];
        assert_eq!(lowest_score(&cands), 1);
        assert_eq!(highest_score(&cands), 1);
        assert_eq!(oldest(&cands), 1);
        assert_eq!(oldest_of_instr(&cands, InstrId::new(2)), Some(2));
        assert_eq!(oldest_of_instr(&cands, InstrId::new(9)), None);
    }

    #[test]
    fn capability_flags_match_facade() {
        use crate::sched::SchedulerKind;
        let reg = PolicyRegistry::builtin();
        for kind in SchedulerKind::EXTENDED {
            let p = reg.build(kind.label(), &PARAMS).expect("builtin");
            assert_eq!(p.uses_scores(), kind.uses_scores(), "{kind:?}");
            assert_eq!(p.batches(), kind.batches(), "{kind:?}");
            assert_eq!(
                p.honors_aging(),
                !matches!(kind, SchedulerKind::Fcfs | SchedulerKind::Random),
                "{kind:?}"
            );
        }
    }
}
