//! GPU execution substrate: coalescer, wavefronts, compute units.
//!
//! Models the SIMT side of the paper's baseline (Table I: 8 CUs, 4 SIMD
//! units per CU, 16-wide SIMD, 64 work-items per wavefront) at memory-
//! instruction granularity:
//!
//! * [`coalescer`] — merges per-lane addresses into unique cache lines and
//!   unique pages (translation requests);
//! * [`wavefront`] — the per-wavefront state machine (translate → fetch →
//!   compute), enforcing the SIMT rule that an instruction retires only
//!   when its *last* translation and fetch return;
//! * [`cu`] — per-CU stall accounting (Figure 9's metric);
//! * [`InstructionStream`] — the interface workload generators implement.
//!
//! Compute pipelines are abstracted into a fixed inter-instruction delay:
//! the paper's irregular applications are bound by address translation, and
//! its regular applications spend so little time in translation that walk
//! scheduling cannot affect them either way (both properties hold in this
//! model; see EXPERIMENTS.md).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod coalescer;
pub mod cu;
pub mod wavefront;

use ptw_types::addr::VirtAddr;
use ptw_types::ids::WavefrontId;

pub use coalescer::{coalesce, coalesce_split, CoalesceResult};
pub use cu::Cu;
pub use wavefront::{Wavefront, WavefrontPhase};

/// A supply of SIMD memory instructions, one stream per wavefront.
///
/// Implemented by the workload generators in `ptw-workloads`. The simulator
/// calls [`next_instruction`](Self::next_instruction) each time a wavefront
/// is ready to issue; `None` retires the wavefront.
pub trait InstructionStream {
    /// Per-lane virtual addresses of wavefront `wf`'s next SIMD memory
    /// instruction, or `None` when the wavefront's work is finished.
    ///
    /// The returned vector has one entry per *active* lane (1..=64 entries).
    fn next_instruction(&mut self, wf: WavefrontId) -> Option<Vec<VirtAddr>>;

    /// Allocation-free form of [`next_instruction`](Self::next_instruction):
    /// writes the per-lane addresses into `out` (cleared first) and returns
    /// `false` when the wavefront's work is finished.
    ///
    /// The default forwards to `next_instruction`; generators on the
    /// simulator's hot path override it to reuse the caller's buffer.
    fn next_instruction_into(&mut self, wf: WavefrontId, out: &mut Vec<VirtAddr>) -> bool {
        match self.next_instruction(wf) {
            Some(addrs) => {
                out.clear();
                out.extend_from_slice(&addrs);
                true
            }
            None => false,
        }
    }

    /// Total number of wavefronts in the kernel (IDs `0..wavefronts()`).
    fn wavefronts(&self) -> u32;
}

/// Configuration of the GPU front end.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GpuConfig {
    /// Number of compute units (Table I: 8).
    pub cus: usize,
    /// Work-items per wavefront (Table I: 64).
    pub wavefront_width: usize,
    /// Resident wavefronts per CU (occupancy).
    pub wavefronts_per_cu: usize,
    /// Fixed compute delay between a wavefront's memory instructions, in
    /// GPU cycles.
    pub compute_delay: u64,
    /// GPU L1 TLB lookup latency in cycles.
    pub l1_tlb_cycles: u64,
    /// GPU shared L2 TLB lookup latency in cycles.
    pub l2_tlb_cycles: u64,
    /// Port occupancy of the shared L2 TLB: one lookup may start every
    /// this many cycles.
    pub l2_tlb_port_cycles: u64,
    /// Per-CU L1-TLB miss port: each CU forwards one L1 TLB miss to the
    /// shared L2 TLB every this many cycles. Different CUs' miss streams
    /// therefore *percolate* into the shared L2 TLB concurrently and merge
    /// interleaved — the paper traces the interleaving of walk requests to
    /// exactly this effect (Section III-B).
    pub l1_tlb_miss_port_cycles: u64,
    /// One-way latency between the GPU and the IOMMU, in cycles.
    pub iommu_hop_cycles: u64,
    /// L1 data cache hit latency in cycles.
    pub l1_cache_cycles: u64,
    /// L2 data cache hit latency in cycles.
    pub l2_cache_cycles: u64,
}

impl GpuConfig {
    /// The Table I baseline with the timing defaults from DESIGN.md §6.
    pub fn paper_baseline() -> Self {
        GpuConfig {
            cus: 8,
            wavefront_width: 64,
            wavefronts_per_cu: 16,
            compute_delay: 40,
            l1_tlb_cycles: 1,
            l2_tlb_cycles: 16,
            l2_tlb_port_cycles: 2,
            l1_tlb_miss_port_cycles: 8,
            iommu_hop_cycles: 100,
            l1_cache_cycles: 32,
            l2_cache_cycles: 120,
        }
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        Self::paper_baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table_one() {
        let g = GpuConfig::paper_baseline();
        assert_eq!(g.cus, 8);
        assert_eq!(g.wavefront_width, 64);
        assert_eq!(g.cus * g.wavefronts_per_cu, 128);
    }

    /// A trivial in-memory stream to validate the trait contract.
    struct TwoInstr {
        left: Vec<u8>,
    }

    impl InstructionStream for TwoInstr {
        fn next_instruction(&mut self, wf: WavefrontId) -> Option<Vec<VirtAddr>> {
            let n = &mut self.left[wf.0 as usize];
            if *n == 0 {
                None
            } else {
                *n -= 1;
                Some(vec![VirtAddr::new(0x1000)])
            }
        }
        fn wavefronts(&self) -> u32 {
            self.left.len() as u32
        }
    }

    #[test]
    fn instruction_stream_contract() {
        let mut s = TwoInstr { left: vec![2, 1] };
        assert_eq!(s.wavefronts(), 2);
        assert!(s.next_instruction(WavefrontId(0)).is_some());
        assert!(s.next_instruction(WavefrontId(0)).is_some());
        assert!(s.next_instruction(WavefrontId(0)).is_none());
        assert!(s.next_instruction(WavefrontId(1)).is_some());
        assert!(s.next_instruction(WavefrontId(1)).is_none());
    }

    #[test]
    fn default_into_form_clears_buffer_and_signals_retirement() {
        let mut s = TwoInstr { left: vec![1] };
        let mut out = vec![VirtAddr::new(0xdead)];
        assert!(s.next_instruction_into(WavefrontId(0), &mut out));
        assert_eq!(out, vec![VirtAddr::new(0x1000)]);
        assert!(!s.next_instruction_into(WavefrontId(0), &mut out));
        assert_eq!(out, vec![VirtAddr::new(0x1000)], "untouched on retire");
    }
}
