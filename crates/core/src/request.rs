//! Page walk requests pending in the IOMMU buffer.

use ptw_types::addr::VirtPage;
use ptw_types::ids::InstrId;
use ptw_types::time::Cycle;

/// One pending page-table walk request in the IOMMU buffer.
///
/// Carries the paper's additions to the baseline buffer entry: the 20-bit
/// [`InstrId`] of the SIMD instruction that generated it, the shared
/// per-instruction *score* (estimated total memory accesses needed to
/// service **all** of the instruction's pending walks), and the aging
/// bypass counter.
#[derive(Clone, Debug)]
pub struct WalkRequest<W> {
    /// The virtual page to translate.
    pub page: VirtPage,
    /// The SIMD instruction that generated the request.
    pub instr: InstrId,
    /// Arrival order at the IOMMU buffer (unique, monotonically increasing).
    pub seq: u64,
    /// Cycle the request was enqueued.
    pub enqueued_at: Cycle,
    /// This request's own PWC-probe estimate of its walk cost (1–4).
    pub own_estimate: u8,
    /// Estimated memory accesses to service *all* pending walks of
    /// `instr` (shared across the instruction's buffer entries; 1–256).
    pub score: u32,
    /// Number of younger requests scheduled ahead of this one (aging).
    /// Under index-answered selection the
    /// [`CandidateIndex`](crate::index::CandidateIndex) keeps the count of
    /// a schedulable request lazily and writes it here only when the
    /// request's page blocks; read counts through
    /// [`Iommu::snapshot`](crate::iommu::Iommu::snapshot).
    pub bypassed: u64,
    /// Caller token released when the translation completes.
    pub waiter: W,
}

impl<W> WalkRequest<W> {
    /// Whether this request has starved past `threshold` bypasses and must
    /// be prioritized (Section IV "Design Subtleties").
    pub fn is_starved(&self, threshold: u64) -> bool {
        self.bypassed >= threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starvation_threshold() {
        let r = WalkRequest {
            page: VirtPage::new(1),
            instr: InstrId::new(0),
            seq: 0,
            enqueued_at: Cycle::ZERO,
            own_estimate: 4,
            score: 4,
            bypassed: 5,
            waiter: (),
        };
        assert!(!r.is_starved(6));
        assert!(r.is_starved(5));
        assert!(r.is_starved(0));
    }
}
