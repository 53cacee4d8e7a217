//! Differential oracle for the candidate index's lazy aging.
//!
//! The index counts bypasses as tags on buffer neighbours instead of
//! per-entry counters (see the `ptw_core::index` module docs). Random
//! push / pick / walk-completion churn drives the shared bare
//! `WalkBuffer` + `CandidateIndex` model (`tests/common/model.rs`) next
//! to a plain per-entry count, and after every step each pending entry's
//! lazy count, the cursor's count, and the index's own invariants
//! (`validate`) must match.

mod common;

use common::model::Model;
use ptw_types::rng::SplitMix64;

/// Picks the `r`-th candidate, ages every older eligible request in the
/// mirror, records the pick in the index, and starts its walk.
fn pick(m: &mut Model, r: usize) {
    let chosen = m.index.nth_eligible(&m.buf, r);
    let chosen_seq = m.buf.get(chosen).seq;
    let inflight = &m.inflight;
    for e in &mut m.mirror {
        if e.seq < chosen_seq && !inflight.iter().any(|&(p, _)| p == e.page.raw()) {
            e.bypassed += 1;
        }
    }
    m.index.record_bypass(&m.buf, chosen);
    m.start(chosen);
}

/// Pushes a request for `page`; instructions rotate over three ids.
fn push(m: &mut Model, page: u64) {
    m.push(page, (m.next_seq % 3) as u32, 1);
}

/// Random push / pick / complete churn over a small page set (so
/// pages repeat and block) and a window smaller than the buffer: the
/// lazy counts must equal eager per-entry counting at every step.
#[test]
fn lazy_counts_match_eager_counting() {
    let mut rng = SplitMix64::new(0x1A2E);
    for window in [1usize, 4, 16] {
        let mut m = Model::new(window);
        for _ in 0..4_000 {
            match rng.next_below(8) {
                0..=3 => push(&mut m, rng.next_below(24)),
                4..=5 if m.index.eligible_in_window() > 0 => {
                    let r = rng.index(m.index.eligible_in_window());
                    pick(&mut m, r);
                }
                _ if !m.inflight.is_empty() => m.complete(0),
                _ => {}
            }
            m.check();
        }
    }
}

/// A pick of the oldest candidate bypasses nothing; a younger pick
/// counts once against each older candidate and none against the
/// younger ones.
#[test]
fn picks_count_against_older_candidates_only() {
    let mut m = Model::new(8);
    for page in 0..4 {
        push(&mut m, page);
    }
    pick(&mut m, 0);
    assert_eq!(m.index.cursor_bypass(), 0);
    pick(&mut m, 1); // pages 1, 2, 3 pending: picks page 2
    m.check();
    assert_eq!(m.index.cursor_bypass(), 1);
    let counts: Vec<u64> = m
        .buf
        .iter()
        .map(|(h, _)| m.index.bypassed(&m.buf, h))
        .collect();
    assert_eq!(counts, [1, 0]);
}
