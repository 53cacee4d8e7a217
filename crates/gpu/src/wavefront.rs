//! Wavefront execution state.
//!
//! A wavefront (64 work-items, Table I) executes SIMD memory instructions
//! in order. An instruction proceeds through three phases:
//!
//! 1. **translation** — every coalesced page of the instruction must be
//!    translated (the instruction stalls until the *last* translation
//!    returns; this all-or-nothing property is what makes walk scheduling
//!    matter);
//! 2. **data** — every coalesced cache line must be fetched;
//! 3. **compute** — a fixed delay abstracting the ALU work before the next
//!    memory instruction issues.
//!
//! The [`Wavefront`] type is a pure state machine; the simulator supplies
//! the timing.

use ptw_types::ids::{CuId, InstrId, WavefrontId};
use ptw_types::time::Cycle;

/// What a wavefront is doing right now.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WavefrontPhase {
    /// Ready to issue its next memory instruction.
    Ready,
    /// Waiting for outstanding address translations of the current
    /// instruction.
    Translating {
        /// Translations not yet returned.
        outstanding: usize,
    },
    /// Waiting for outstanding cache-line fetches of the current
    /// instruction.
    Fetching {
        /// Line fetches not yet returned.
        outstanding: usize,
    },
    /// Executing the post-memory compute delay.
    Computing,
    /// The instruction stream is exhausted.
    Retired,
}

/// One wavefront's in-flight state.
#[derive(Clone, Debug)]
pub struct Wavefront {
    /// Global wavefront ID.
    pub id: WavefrontId,
    /// The CU this wavefront resides on.
    pub cu: CuId,
    phase: WavefrontPhase,
    current_instr: Option<InstrId>,
    issued_instructions: u64,
    /// Cycles spent with at least one outstanding memory/translation op.
    blocked_cycles: u64,
    blocked_since: Option<Cycle>,
}

impl Wavefront {
    /// Creates a wavefront in the [`Ready`](WavefrontPhase::Ready) state.
    pub fn new(id: WavefrontId, cu: CuId) -> Self {
        Wavefront {
            id,
            cu,
            phase: WavefrontPhase::Ready,
            current_instr: None,
            issued_instructions: 0,
            blocked_cycles: 0,
            blocked_since: None,
        }
    }

    /// Current phase.
    pub fn phase(&self) -> WavefrontPhase {
        self.phase
    }

    /// The instruction currently in flight, if any.
    pub fn current_instr(&self) -> Option<InstrId> {
        self.current_instr
    }

    /// Instructions issued so far.
    pub fn issued_instructions(&self) -> u64 {
        self.issued_instructions
    }

    /// Total cycles this wavefront spent blocked on memory.
    pub fn blocked_cycles(&self) -> u64 {
        self.blocked_cycles
    }

    /// Issues a memory instruction needing `pages` translations, entering
    /// the translating phase.
    ///
    /// # Panics
    ///
    /// Panics unless the wavefront is `Ready`, or if `pages == 0`.
    pub fn issue(&mut self, instr: InstrId, pages: usize, now: Cycle) {
        assert_eq!(
            self.phase,
            WavefrontPhase::Ready,
            "issue from {:?}",
            self.phase
        );
        assert!(pages > 0, "memory instruction touching zero pages");
        self.phase = WavefrontPhase::Translating { outstanding: pages };
        self.current_instr = Some(instr);
        self.issued_instructions += 1;
        self.blocked_since = Some(now);
    }

    /// One translation of the current instruction returned. When the last
    /// one arrives the wavefront moves to the fetching phase, needing
    /// `lines` cache fetches; returns `true` on that transition.
    ///
    /// # Panics
    ///
    /// Panics unless the wavefront is `Translating`, or if `lines == 0`.
    pub fn translation_done(&mut self, lines: usize) -> bool {
        let WavefrontPhase::Translating { outstanding } = &mut self.phase else {
            panic!("translation_done in phase {:?}", self.phase);
        };
        assert!(lines > 0, "instruction with zero cache lines");
        *outstanding -= 1;
        if *outstanding == 0 {
            self.phase = WavefrontPhase::Fetching { outstanding: lines };
            true
        } else {
            false
        }
    }

    /// One cache-line fetch of the current instruction returned. When the
    /// last one arrives the wavefront enters the compute phase; returns
    /// `true` on that transition (the caller schedules the next issue after
    /// its compute delay).
    ///
    /// # Panics
    ///
    /// Panics unless the wavefront is `Fetching`.
    pub fn fetch_done(&mut self, now: Cycle) -> bool {
        let WavefrontPhase::Fetching { outstanding } = &mut self.phase else {
            panic!("fetch_done in phase {:?}", self.phase);
        };
        *outstanding -= 1;
        if *outstanding == 0 {
            self.phase = WavefrontPhase::Computing;
            self.current_instr = None;
            if let Some(since) = self.blocked_since.take() {
                self.blocked_cycles += now - since;
            }
            true
        } else {
            false
        }
    }

    /// The compute delay elapsed; the wavefront is ready to issue again.
    ///
    /// # Panics
    ///
    /// Panics unless the wavefront is `Computing`.
    pub fn compute_done(&mut self) {
        assert_eq!(
            self.phase,
            WavefrontPhase::Computing,
            "compute_done in {:?}",
            self.phase
        );
        self.phase = WavefrontPhase::Ready;
    }

    /// Marks the wavefront's instruction stream as exhausted.
    ///
    /// # Panics
    ///
    /// Panics unless the wavefront is `Ready` (streams end at an issue
    /// boundary).
    pub fn retire(&mut self) {
        assert_eq!(
            self.phase,
            WavefrontPhase::Ready,
            "retire from {:?}",
            self.phase
        );
        self.phase = WavefrontPhase::Retired;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wf() -> Wavefront {
        Wavefront::new(WavefrontId(3), CuId(1))
    }

    #[test]
    fn full_lifecycle() {
        let mut w = wf();
        assert_eq!(w.phase(), WavefrontPhase::Ready);
        w.issue(InstrId::new(7), 2, Cycle::new(10));
        assert!(matches!(w.phase(), WavefrontPhase::Translating { .. }));
        assert_eq!(w.current_instr(), Some(InstrId::new(7)));
        assert!(!w.translation_done(3));
        assert!(w.translation_done(3));
        assert_eq!(w.phase(), WavefrontPhase::Fetching { outstanding: 3 });
        assert!(!w.fetch_done(Cycle::new(50)));
        assert!(!w.fetch_done(Cycle::new(60)));
        assert!(w.fetch_done(Cycle::new(100)));
        assert_eq!(w.phase(), WavefrontPhase::Computing);
        assert_eq!(w.blocked_cycles(), 90);
        w.compute_done();
        assert_eq!(w.phase(), WavefrontPhase::Ready);
        w.retire();
        assert_eq!(w.phase(), WavefrontPhase::Retired);
        assert_eq!(w.issued_instructions(), 1);
    }

    #[test]
    fn blocked_cycles_accumulate_across_instructions() {
        let mut w = wf();
        for (start, end) in [(0u64, 30u64), (100, 140)] {
            w.issue(InstrId::new(1), 1, Cycle::new(start));
            w.translation_done(1);
            w.fetch_done(Cycle::new(end));
            w.compute_done();
        }
        assert_eq!(w.blocked_cycles(), 30 + 40);
    }

    #[test]
    #[should_panic]
    fn double_issue_panics() {
        let mut w = wf();
        w.issue(InstrId::new(1), 1, Cycle::ZERO);
        w.issue(InstrId::new(2), 1, Cycle::ZERO);
    }

    #[test]
    #[should_panic]
    fn translation_done_when_ready_panics() {
        let mut w = wf();
        w.translation_done(1);
    }

    #[test]
    #[should_panic]
    fn fetch_done_when_translating_panics() {
        let mut w = wf();
        w.issue(InstrId::new(1), 2, Cycle::ZERO);
        w.fetch_done(Cycle::ZERO);
    }

    #[test]
    #[should_panic]
    fn retire_mid_instruction_panics() {
        let mut w = wf();
        w.issue(InstrId::new(1), 1, Cycle::ZERO);
        w.retire();
    }

    #[test]
    #[should_panic]
    fn zero_page_instruction_panics() {
        let mut w = wf();
        w.issue(InstrId::new(1), 0, Cycle::ZERO);
    }
}

#[cfg(test)]
mod randomized {
    //! Randomized invariant tests driven by the in-tree `SplitMix64`.

    use super::*;
    use ptw_types::rng::SplitMix64;

    /// Arbitrary (pages, lines, timing) sequences drive the state machine
    /// through whole instructions without violating any phase invariant,
    /// and blocked-cycle accounting equals the sum of the memory windows.
    #[test]
    fn lifecycle_accounting() {
        let mut rng = SplitMix64::new(0x11FE);
        for _ in 0..64 {
            let instrs: Vec<(usize, usize, u64)> = (0..(1 + rng.index(19)))
                .map(|_| {
                    (
                        1 + rng.index(63),
                        1 + rng.index(63),
                        1 + rng.next_below(499),
                    )
                })
                .collect();
            let mut w = Wavefront::new(WavefrontId(0), CuId(0));
            let mut t = 0u64;
            let mut expected_blocked = 0u64;
            for (i, &(pages, lines, mem_time)) in instrs.iter().enumerate() {
                w.issue(InstrId::new(i as u32), pages, Cycle::new(t));
                for k in 0..pages {
                    assert_eq!(w.translation_done(lines), k == pages - 1);
                }
                let done_at = t + mem_time;
                for k in 0..lines {
                    assert_eq!(w.fetch_done(Cycle::new(done_at)), k == lines - 1);
                }
                expected_blocked += mem_time;
                assert_eq!(w.phase(), WavefrontPhase::Computing);
                w.compute_done();
                t = done_at + 40;
            }
            w.retire();
            assert_eq!(w.issued_instructions(), instrs.len() as u64);
            assert_eq!(w.blocked_cycles(), expected_blocked);
        }
    }
}
