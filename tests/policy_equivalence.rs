//! Policy-equivalence regression test.
//!
//! This golden test pins the *selection rules* of the seven policies: the
//! reference scheduler (`tests/common/reference.rs`, a window scan with
//! eager aging) is driven through a long, deterministic sequence of
//! walk-request windows (with churn, ineligibility, aging pressure, and
//! duplicate scores), and the sequence of chosen request `seq` numbers is
//! compared against a recorded trace. `tests/scheduler_oracle.rs` ties
//! the production `Scheduler` to the same reference pick by pick.
//!
//! To re-bless the golden file after an *intentional* behavior change:
//!
//! ```text
//! PTW_BLESS=1 cargo test --test policy_equivalence
//! ```

mod common;

use std::fmt::Write as _;

use common::reference::RefScheduler;
use ptw_core::request::WalkRequest;
use ptw_core::sched::SchedulerKind;
use ptw_types::addr::VirtPage;
use ptw_types::ids::InstrId;
use ptw_types::rng::SplitMix64;
use ptw_types::time::Cycle;

const GOLDEN: &str = include_str!("golden/policy_trace.txt");

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

/// Drives `kind` through a deterministic request stream and returns the
/// comma-separated `seq` numbers it served, in order.
///
/// The stream is generated from a fixed [`SplitMix64`] seed shared by all
/// policies, so every policy sees byte-identical windows. Eligibility is
/// also drawn deterministically: roughly one request in five is
/// temporarily ineligible (modelling a same-page walk in flight). The
/// aging threshold is set low (24 bypasses) so the starvation-preemption
/// path is exercised inside the trace, not just in the common case.
fn trace(kind: SchedulerKind) -> String {
    let mut rng = SplitMix64::new(0x901DE4);
    let mut sched = RefScheduler::new(kind, 24, 0xC0FFEE);
    let mut window: Vec<WalkRequest<()>> = Vec::new();
    let mut next_seq = 0u64;
    let mut picks = Vec::new();

    for step in 0..400 {
        // Keep the window topped up to 16 pending requests, drawn from a
        // small instruction set with clustered scores (ties matter).
        while window.len() < 16 {
            let instr = rng.next_below(5) as u32;
            let score = 1 + rng.next_below(8) as u32;
            window.push(req(next_seq, instr, score));
            next_seq += 1;
        }
        // Deterministic eligibility: ~20% of requests sit out this round.
        let mask: Vec<bool> = window.iter().map(|_| rng.next_below(5) != 0).collect();
        let before: Vec<u64> = window.iter().map(|r| r.seq).collect();
        match sched.select(&mut window, |r| {
            mask[before.iter().position(|&s| s == r.seq).expect("present")]
        }) {
            Some(i) => {
                picks.push(window[i].seq.to_string());
                window.remove(i);
            }
            None => picks.push("-".into()),
        }
        // Periodically drain a burst, so batching sees instructions run dry.
        if step % 37 == 0 {
            for _ in 0..window.len().min(6) {
                if let Some(i) = sched.select(&mut window, |_| true) {
                    picks.push(window[i].seq.to_string());
                    window.remove(i);
                }
            }
        }
    }
    picks.join(",")
}

fn full_trace() -> String {
    let mut out = String::new();
    for kind in SchedulerKind::EXTENDED {
        writeln!(out, "{}: {}", kind.label(), trace(kind)).expect("string write");
    }
    out
}

#[test]
fn policies_match_pre_refactor_golden_trace() {
    let got = full_trace();
    if std::env::var_os("PTW_BLESS").is_some() {
        let path =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/policy_trace.txt");
        std::fs::write(&path, &got).expect("write golden");
        eprintln!("blessed {}", path.display());
        return;
    }
    for (g, e) in got.lines().zip(GOLDEN.lines()) {
        let name = g.split(':').next().unwrap_or("?");
        assert_eq!(g, e, "policy {name} diverged from the pre-refactor trace");
    }
    assert_eq!(
        got.lines().count(),
        GOLDEN.lines().count(),
        "policy count changed; re-bless deliberately if intended"
    );
}

/// The golden file covers every policy the façade exposes.
#[test]
fn golden_covers_every_policy() {
    for kind in SchedulerKind::EXTENDED {
        assert!(
            GOLDEN
                .lines()
                .any(|l| l.starts_with(&format!("{}:", kind.label()))),
            "no golden trace for {kind:?}"
        );
    }
}
