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
    /// Frozen aging count of a blocked request: how many younger
    /// requests were scheduled ahead of it before its page went inflight.
    /// The [`CandidateIndex`](crate::index::CandidateIndex) keeps a
    /// schedulable request's count lazily and writes it here only when the
    /// request's page blocks, so this reads 0 until then; read live counts
    /// through [`Iommu::snapshot`](crate::iommu::Iommu::snapshot).
    pub bypassed: u64,
    /// Caller token released when the translation completes.
    pub waiter: W,
}
