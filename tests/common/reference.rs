//! Reference walk scheduler: one pass over the window gathers the
//! eligible requests, one of seven slice picks chooses among them, and
//! every eligible request older than the pick has its `bypassed` count
//! incremented on the spot.
//!
//! This is the scan the production `Scheduler` replaced with queries on
//! the incremental `CandidateIndex`. It stays here as the specification:
//! `tests/policy_equivalence.rs` pins it to the golden trace, and
//! `tests/scheduler_oracle.rs` compares the production scheduler with it
//! pick by pick.

use ptw_core::request::WalkRequest;
use ptw_core::sched::SchedulerKind;
use ptw_types::ids::InstrId;
use ptw_types::rng::SplitMix64;

/// Copy of one eligible request, in window order.
#[derive(Clone, Copy, Debug)]
struct Candidate {
    /// Position in the window.
    pos: usize,
    instr: InstrId,
    seq: u64,
    score: u32,
}

/// The reference scheduler; state mirrors the production one.
#[derive(Debug)]
pub struct RefScheduler {
    kind: SchedulerKind,
    threshold: u64,
    /// Instruction of the last pick, forced ones included.
    last_instr: Option<InstrId>,
    /// Last instruction the round-robin rotation itself granted.
    rr_last: Option<InstrId>,
    rng: SplitMix64,
    /// Picks where a starved request pre-empted the policy.
    pub forced_picks: u64,
    scratch: Vec<Candidate>,
}

impl RefScheduler {
    /// Same arguments as `Scheduler::new`.
    pub fn new(kind: SchedulerKind, threshold: u64, seed: u64) -> Self {
        RefScheduler {
            kind,
            threshold,
            last_instr: None,
            rr_last: None,
            rng: SplitMix64::new(seed),
            forced_picks: 0,
            scratch: Vec::new(),
        }
    }

    /// Picks among the requests of `window` (arrival order) that pass
    /// `eligible` and returns the pick's window position, or `None` when
    /// none passes. Ages every eligible request older than the pick.
    pub fn select<W>(
        &mut self,
        window: &mut [WalkRequest<W>],
        eligible: impl Fn(&WalkRequest<W>) -> bool,
    ) -> Option<usize> {
        self.scratch.clear();
        let mut starved: Option<usize> = None;
        for (pos, r) in window.iter().enumerate() {
            if !eligible(r) {
                continue;
            }
            if r.bypassed >= self.threshold && starved.is_none_or(|i| r.seq < self.scratch[i].seq) {
                starved = Some(self.scratch.len());
            }
            self.scratch.push(Candidate {
                pos,
                instr: r.instr,
                seq: r.seq,
                score: r.score,
            });
        }
        if self.scratch.is_empty() {
            return None;
        }
        let honors = self.kind.honors_aging();
        let i = match starved {
            Some(i) if honors => {
                self.forced_picks += 1;
                i
            }
            _ => self.policy_pick(),
        };
        let chosen = self.scratch[i];
        for c in &self.scratch {
            if c.seq < chosen.seq {
                let r = &mut window[c.pos];
                r.bypassed += 1;
                assert!(
                    !honors || r.bypassed <= self.threshold,
                    "seq {} bypassed past the aging threshold",
                    r.seq
                );
            }
        }
        self.last_instr = Some(chosen.instr);
        Some(chosen.pos)
    }

    /// The policy's own choice: an index into `scratch`.
    fn policy_pick(&mut self) -> usize {
        let c = &self.scratch;
        let batch = self.last_instr.and_then(|l| oldest_of_instr(c, l));
        match self.kind {
            SchedulerKind::Fcfs => oldest(c),
            SchedulerKind::Random => self.rng.index(c.len()),
            SchedulerKind::SjfOnly => lowest_score(c),
            SchedulerKind::BatchOnly => batch.unwrap_or_else(|| oldest(c)),
            SchedulerKind::SimtAware => batch.unwrap_or_else(|| lowest_score(c)),
            SchedulerKind::HeaviestFirst => batch.unwrap_or_else(|| highest_score(c)),
            SchedulerKind::RoundRobin => {
                // The eligible instruction with the smallest id above the
                // last one granted, wrapping to the smallest overall.
                let last = self.rr_last.map(InstrId::raw);
                let ids = || c.iter().map(|c| c.instr.raw());
                let next = ids()
                    .filter(|&id| last.is_some_and(|l| id > l))
                    .min()
                    .or_else(|| ids().min())
                    .expect("candidates nonempty");
                self.rr_last = Some(InstrId::new(next));
                oldest_of_instr(c, InstrId::new(next)).expect("chosen instruction is eligible")
            }
        }
    }
}

fn oldest(c: &[Candidate]) -> usize {
    position_min_by_key(c, |c| c.seq)
}

/// Shortest job first, oldest on ties.
fn lowest_score(c: &[Candidate]) -> usize {
    position_min_by_key(c, |c| (c.score, c.seq))
}

/// Longest job first, oldest on ties.
fn highest_score(c: &[Candidate]) -> usize {
    position_min_by_key(c, |c| (u32::MAX - c.score, c.seq))
}

fn oldest_of_instr(c: &[Candidate], instr: InstrId) -> Option<usize> {
    (0..c.len())
        .filter(|&i| c[i].instr == instr)
        .min_by_key(|&i| c[i].seq)
}

fn position_min_by_key<K: Ord>(c: &[Candidate], key: impl Fn(&Candidate) -> K) -> usize {
    (0..c.len())
        .min_by_key(|&i| key(&c[i]))
        .expect("candidates nonempty")
}
