//! Randomized differential oracle for the production walk scheduler.
//!
//! `Scheduler::select` answers every policy from the incremental
//! `CandidateIndex`; the reference scheduler (`tests/common/reference.rs`)
//! scans the window and ages every bypassed request eagerly. Both pick
//! from the same pending set — the shared buffer + index model
//! (`tests/common/model.rs`) and its eagerly aged mirror — through random
//! churn: plain and IOMMU-style scored arrivals over a small page set (so
//! pages repeat and block), walk starts up to a walker limit, and
//! out-of-order walk completions. After every pick the two must agree on
//! the chosen request, on every pending request's bypass count, and on
//! the number of starvation-forced picks; the index's invariants are
//! recomputed from scratch after every step.
//!
//! The setup is hostile on purpose: a 12-entry window the buffer routinely
//! outgrows, scores that collide (so tie-breaks decide), and an aging
//! threshold of 12 so starvation pre-emption fires constantly. All seven
//! policies run under two seeds each.

mod common;

use common::model::Model;
use common::reference::RefScheduler;
use ptw_core::sched::{Scheduler, SchedulerKind};
use ptw_types::rng::SplitMix64;

const STEPS: usize = 3_000;
const WINDOW: usize = 12;
const THRESHOLD: u64 = 12;
const WALKERS: usize = 3;
const PAGES: u64 = 16;
const INSTRS: u64 = 6;

/// The reference's pick over the model's window, as a `seq`.
fn reference_pick(m: &mut Model, reference: &mut RefScheduler) -> Option<u64> {
    let len = m.mirror.len().min(m.window);
    let inflight = &m.inflight;
    let window = &mut m.mirror[..len];
    let pos = reference.select(window, |r| {
        !inflight.iter().any(|&(p, _)| p == r.page.raw())
    })?;
    Some(window[pos].seq)
}

/// Counters showing the churn reached the regimes worth comparing.
#[derive(Default)]
struct Coverage {
    picks: u64,
    /// Selections that found nothing eligible in the window.
    empty: u64,
    /// Picks made while the buffer held more than the window.
    overflowed: u64,
    /// Pushes whose page already had a walk in flight.
    blocked_pushes: u64,
}

/// One churn run of `kind` under `seed`; returns the forced-pick count.
fn churn(kind: SchedulerKind, seed: u64) -> u64 {
    let mut rng = SplitMix64::new(seed);
    let mut m = Model::new(WINDOW);
    let mut sched = Scheduler::new(kind, THRESHOLD, seed);
    let mut reference = RefScheduler::new(kind, THRESHOLD, seed);
    let mut cov = Coverage::default();

    for step in 0..STEPS {
        match rng.next_below(10) {
            0..=3 => {
                for _ in 0..=rng.next_below(2) {
                    let page = rng.next_below(PAGES);
                    let instr = rng.next_below(INSTRS) as u32;
                    cov.blocked_pushes += u64::from(m.blocked(page));
                    if rng.chance(0.5) {
                        m.push_scored(page, instr, 1 + rng.next_below(4) as u32);
                    } else {
                        m.push(page, instr, rng.next_below(6) as u32);
                    }
                }
            }
            4..=6 => {
                while m.inflight.len() < WALKERS {
                    let got = sched.select(&m.buf, &mut m.index);
                    let got_seq = got.map(|h| m.buf.get(h).seq);
                    let want = reference_pick(&mut m, &mut reference);
                    assert_eq!(got_seq, want, "{kind:?} seed {seed:#x} step {step}: pick");
                    assert_eq!(
                        sched.forced_picks(),
                        reference.forced_picks,
                        "{kind:?} seed {seed:#x} step {step}: forced picks"
                    );
                    let Some(h) = got else {
                        cov.empty += 1;
                        break;
                    };
                    cov.picks += 1;
                    cov.overflowed += u64::from(m.buf.len() > WINDOW);
                    m.start(h);
                    m.check();
                }
            }
            _ => {
                for _ in 0..=rng.next_below(2) {
                    if !m.inflight.is_empty() {
                        let i = rng.index(m.inflight.len());
                        m.complete(i);
                    }
                }
            }
        }
        m.check();
    }

    assert!(cov.picks > 800, "{kind:?}: only {} picks", cov.picks);
    assert!(cov.empty > 20, "{kind:?}: rarely ran out of candidates");
    assert!(cov.overflowed > 150, "{kind:?}: window rarely full");
    assert!(cov.blocked_pushes > 100, "{kind:?}: pages rarely blocked");
    let forced = sched.forced_picks();
    if kind.honors_aging() {
        if kind.uses_scores() {
            assert!(forced > 0, "{kind:?}: no starvation-forced pick");
        }
    } else {
        assert_eq!(forced, 0, "{kind:?}: aging pre-empted an opted-out policy");
    }
    forced
}

#[test]
fn scheduler_matches_the_reference_scan_pick_by_pick() {
    let mut forced = 0;
    for kind in SchedulerKind::EXTENDED {
        for seed in [0x5eed_0001u64, 0xfeed_beef] {
            forced += churn(kind, seed);
        }
    }
    assert!(forced > 100, "only {forced} starvation-forced picks");
}
