//! The benchmark registry: Table II of the paper.
//!
//! Every benchmark the paper evaluates is reproduced as a synthetic kernel
//! composition (see DESIGN.md §4 for the per-benchmark rationale). Paper
//! footprints are kept in [`BenchmarkId::paper_footprint_mb`]; the actual
//! generated footprint depends on the chosen [`Scale`], because the paper's
//! full footprints make cycle-level simulation needlessly slow while the
//! *regime* that matters — data footprint ≫ TLB reach — is preserved at
//! every scale (the baseline GPU's L2 TLB reaches 2 MiB; even the `Small`
//! scale exceeds it several-fold for the irregular benchmarks).

use ptw_pagetable::frames::{FrameAllocator, FrameLayout};
use ptw_pagetable::space::{
    eligible_large_regions, plan_buffer_bases, AddressSpace, LargePagePlan,
};
use ptw_types::addr::PAGES_PER_LARGE_PAGE;
use ptw_types::rng::SplitMix64;

use crate::kernel::{BufferRef, Kernel, LANES};
use crate::workload::Workload;

/// How large to build each workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Scale {
    /// Table II footprints and full iteration counts. Slow; for record
    /// runs.
    Paper,
    /// Reduced footprints (tens of MiB) and capped iterations; the default
    /// for regenerating figures.
    #[default]
    Medium,
    /// Minimal footprints for tests, CI and the bench smoke.
    Small,
}

impl Scale {
    /// Lower-case name, matching the `--scale` CLI values.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Paper => "paper",
            Scale::Medium => "medium",
            Scale::Small => "small",
        }
    }

    /// Parses a [`label`](Self::label) (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        [Scale::Paper, Scale::Medium, Scale::Small]
            .into_iter()
            .find(|v| v.label().eq_ignore_ascii_case(s))
    }
}

/// The twelve benchmarks of Table II.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BenchmarkId {
    /// XSBench — Monte Carlo neutronics lookups (irregular).
    Xsb,
    /// MVT — matrix–vector product and transpose (irregular).
    Mvt,
    /// ATAX — A·Aᵀ·x (irregular).
    Atx,
    /// NW — Needleman-Wunsch DNA alignment (irregular).
    Nw,
    /// BICG — BiCGStab sub-kernel (irregular).
    Bcg,
    /// GESUMMV — scalar–vector–matrix multiply (irregular).
    Gev,
    /// SSSP — single-source shortest paths (regular per the paper).
    Ssp,
    /// MIS — maximal independent set (regular).
    Mis,
    /// Color — graph coloring (regular).
    Clr,
    /// Back-propagation (regular).
    Bck,
    /// K-Means clustering (regular).
    Kmn,
    /// Hotspot thermal simulation (regular).
    Hot,
}

impl BenchmarkId {
    /// All benchmarks, irregular first (the paper's presentation order).
    pub const ALL: [BenchmarkId; 12] = [
        BenchmarkId::Xsb,
        BenchmarkId::Mvt,
        BenchmarkId::Atx,
        BenchmarkId::Nw,
        BenchmarkId::Bcg,
        BenchmarkId::Gev,
        BenchmarkId::Ssp,
        BenchmarkId::Mis,
        BenchmarkId::Clr,
        BenchmarkId::Bck,
        BenchmarkId::Kmn,
        BenchmarkId::Hot,
    ];

    /// The six irregular benchmarks (the paper's focus).
    pub const IRREGULAR: [BenchmarkId; 6] = [
        BenchmarkId::Xsb,
        BenchmarkId::Mvt,
        BenchmarkId::Atx,
        BenchmarkId::Nw,
        BenchmarkId::Bcg,
        BenchmarkId::Gev,
    ];

    /// The six regular benchmarks.
    pub const REGULAR: [BenchmarkId; 6] = [
        BenchmarkId::Ssp,
        BenchmarkId::Mis,
        BenchmarkId::Clr,
        BenchmarkId::Bck,
        BenchmarkId::Kmn,
        BenchmarkId::Hot,
    ];

    /// The four benchmarks plotted in Figures 2, 3, 5 and 6.
    pub const MOTIVATION: [BenchmarkId; 4] = [
        BenchmarkId::Mvt,
        BenchmarkId::Atx,
        BenchmarkId::Bcg,
        BenchmarkId::Gev,
    ];

    /// Paper abbreviation (Table II).
    pub fn abbrev(self) -> &'static str {
        match self {
            BenchmarkId::Xsb => "XSB",
            BenchmarkId::Mvt => "MVT",
            BenchmarkId::Atx => "ATX",
            BenchmarkId::Nw => "NW",
            BenchmarkId::Bcg => "BIC",
            BenchmarkId::Gev => "GEV",
            BenchmarkId::Ssp => "SSP",
            BenchmarkId::Mis => "MIS",
            BenchmarkId::Clr => "CLR",
            BenchmarkId::Bck => "BCK",
            BenchmarkId::Kmn => "KMN",
            BenchmarkId::Hot => "HOT",
        }
    }

    /// Full benchmark name.
    pub fn name(self) -> &'static str {
        match self {
            BenchmarkId::Xsb => "XSBench",
            BenchmarkId::Mvt => "MVT",
            BenchmarkId::Atx => "ATAX",
            BenchmarkId::Nw => "NW",
            BenchmarkId::Bcg => "BICG",
            BenchmarkId::Gev => "GESUMMV",
            BenchmarkId::Ssp => "SSSP",
            BenchmarkId::Mis => "MIS",
            BenchmarkId::Clr => "Color",
            BenchmarkId::Bck => "Back Prop.",
            BenchmarkId::Kmn => "K-Means",
            BenchmarkId::Hot => "Hotspot",
        }
    }

    /// Table II description.
    pub fn description(self) -> &'static str {
        match self {
            BenchmarkId::Xsb => "Monte Carlo neutronics application",
            BenchmarkId::Mvt => "Matrix vector product and transpose",
            BenchmarkId::Atx => "Matrix transpose and vector multiplication",
            BenchmarkId::Nw => "Optimization algorithm for DNA sequence alignments",
            BenchmarkId::Bcg => "Sub kernel of BiCGStab linear solver",
            BenchmarkId::Gev => "Scalar, vector and matrix multiplication",
            BenchmarkId::Ssp => "Shortest path search algorithm",
            BenchmarkId::Mis => "Maximal subset search algorithm",
            BenchmarkId::Clr => "Graph coloring algorithm",
            BenchmarkId::Bck => "Machine learning algorithm",
            BenchmarkId::Kmn => "Clustering algorithm",
            BenchmarkId::Hot => "Processor thermal simulation algorithm",
        }
    }

    /// Memory footprint the paper reports (Table II), in MB.
    pub fn paper_footprint_mb(self) -> f64 {
        match self {
            BenchmarkId::Xsb => 212.25,
            BenchmarkId::Mvt => 128.14,
            BenchmarkId::Atx => 64.06,
            BenchmarkId::Nw => 531.82,
            BenchmarkId::Bcg => 128.11,
            BenchmarkId::Gev => 128.06,
            BenchmarkId::Ssp => 104.32,
            BenchmarkId::Mis => 72.38,
            BenchmarkId::Clr => 26.68,
            BenchmarkId::Bck => 108.03,
            BenchmarkId::Kmn => 4.33,
            BenchmarkId::Hot => 12.02,
        }
    }

    /// Whether the paper classifies this benchmark as irregular.
    pub fn is_irregular(self) -> bool {
        Self::IRREGULAR.contains(&self)
    }

    /// Parses a Table II abbreviation (case-insensitive), e.g. `"kmn"`.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL
            .into_iter()
            .find(|b| b.abbrev().eq_ignore_ascii_case(s))
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.abbrev())
    }
}

/// Per-scale sizing knobs shared by the builders.
struct Dims {
    /// Rows of the main matrix (also wavefronts × 64 lanes cover them).
    rows: u64,
    /// Bytes per matrix row (≥ 4 KiB for full divergence).
    row_stride: u64,
    /// Strided iterations per wavefront.
    iters: u64,
    /// Coalesced iterations per wavefront for regular kernels.
    reg_iters: u64,
    /// Lookup-table bytes for gathers (scaled from the paper footprint).
    table_shift: u32,
}

fn dims(scale: Scale) -> Dims {
    // One page per lane-row: a 64-lane instruction diverges to 64 pages
    // (the paper's full memory-access divergence), and the GPU-wide active
    // page set lands at a small multiple of the 512-entry L2 TLB's reach:
    // the partially-thrashing regime the paper's irregular applications
    // occupy (their TLB hit rates are visibly non-zero — Figure 3 has
    // substantial mass in the 1-16 bucket).
    match scale {
        Scale::Paper => Dims {
            rows: 4096,
            row_stride: 4096 * 8,
            iters: 4096,
            reg_iters: 4096,
            table_shift: 0,
        },
        Scale::Medium => Dims {
            rows: 1024,
            row_stride: 4096,
            iters: 176,
            reg_iters: 352,
            table_shift: 4, // footprints / 16
        },
        Scale::Small => Dims {
            rows: 1024,
            row_stride: 4096,
            iters: 48,
            reg_iters: 96,
            table_shift: 5, // footprints / 32
        },
    }
}

/// Builds the synthetic workload for `id` at `scale`, all-4K mapped.
///
/// `seed` controls the random gathers and the physical frame scramble;
/// runs with equal `(id, scale, seed)` are bit-identical. Equivalent to
/// [`build_with_large_pages`] at 0‰ — the pinned-golden configuration.
pub fn build(id: BenchmarkId, scale: Scale, seed: u64) -> Workload {
    build_with_large_pages(id, scale, seed, 0)
}

/// Builds the synthetic workload for `id` at `scale`, promoting roughly
/// `large_page_permille`/1000 of each buffer's fully covered 2 MiB-aligned
/// regions to large-page (2 MiB) leaves.
///
/// Buffers are laid out in two passes: the first assigns virtual bases
/// without touching the frame allocator (a Scrambled layout requires every
/// contiguous 512-frame run to be reserved before the first single-frame
/// allocation, page-table root included), each eligible region then rolls
/// an independent promotion decision from a `seed`-derived stream, and
/// only afterwards are the buffers physically mapped. At 0‰ the plan is
/// empty and the allocator sees the exact request sequence [`build`]
/// always issued, so the all-4K workload is bit-identical to the goldens.
pub fn build_with_large_pages(
    id: BenchmarkId,
    scale: Scale,
    seed: u64,
    large_page_permille: u32,
) -> Workload {
    assert!(large_page_permille <= 1000, "fraction above 1000\u{2030}");
    let d = dims(scale);
    let mut planned: Vec<(String, u64)> = Vec::new();
    let mut mk = |name: &str, len: u64| -> BufferRef {
        planned.push((name.to_owned(), len));
        let lens: Vec<u64> = planned.iter().map(|&(_, len)| len).collect();
        let base = *plan_buffer_bases(&lens).last().expect("just pushed");
        BufferRef { base, len }
    };

    let matrix_len = d.rows * d.row_stride;
    let vec_len = (d.rows * 8).max(4096);
    let table_len = |mb: f64| -> u64 {
        (((mb * 1024.0 * 1024.0) as u64) >> d.table_shift)
            .next_power_of_two()
            .max(1 << 21)
    };
    let strided = |buffer: BufferRef, iters: u64, skew: bool| Kernel::Strided {
        buffer,
        rows: d.rows,
        row_stride: d.row_stride,
        elem: 8,
        iters,
        skew,
    };
    let with_vector = |primary: Kernel, vector: BufferRef| Kernel::Interleaved {
        primary: Box::new(primary),
        secondary: Box::new(Kernel::Coalesced {
            buffer: vector,
            elem: 8,
            iters: u64::MAX / 2,
        }),
        period: 8,
    };

    let wavefronts = (d.rows / LANES) as u32;
    let kernels: Vec<Kernel> = match id {
        BenchmarkId::Mvt => {
            // x1 = A·y1 (row-per-thread, divergent) then x2 = Aᵀ·y2
            // (column access of row-major A = unit-stride per instruction,
            // streaming).
            let a = mk("A", matrix_len);
            let y1 = mk("y1", vec_len);
            let a2 = mk("A-stream", matrix_len / 4);
            vec![
                with_vector(strided(a, d.iters, false), y1),
                Kernel::Coalesced {
                    buffer: a2,
                    elem: 8,
                    iters: d.iters / 4,
                },
            ]
        }
        BenchmarkId::Atx => {
            // tmp = A·x (divergent), y = Aᵀ·tmp (streaming). Half the MVT
            // footprint (Table II: 64 MB vs 128 MB).
            let a = mk("A", matrix_len);
            let x = mk("x", vec_len);
            let a2 = mk("A-stream", matrix_len / 8);
            vec![
                with_vector(strided(a, d.iters * 3 / 4, false), x),
                Kernel::Coalesced {
                    buffer: a2,
                    elem: 8,
                    iters: d.iters / 4,
                },
            ]
        }
        BenchmarkId::Bcg => {
            // q = A·p (divergent rows) and s = Aᵀ·r (streaming).
            let a = mk("A", matrix_len);
            let p = mk("p", vec_len);
            let a2 = mk("A-stream", matrix_len / 4);
            vec![
                with_vector(strided(a, d.iters, false), p),
                Kernel::Coalesced {
                    buffer: a2,
                    elem: 8,
                    iters: d.iters / 4,
                },
            ]
        }
        BenchmarkId::Gev => {
            // y = α·A·x + β·B·x: two divergent matrices touched in
            // alternation — the heaviest translation load (Figure 3's GEV
            // tail).
            let a = mk("A", matrix_len / 2);
            let b = mk("B", matrix_len / 2);
            let x = mk("x", vec_len);
            let half = |buffer| Kernel::Strided {
                buffer,
                rows: d.rows / 2,
                row_stride: d.row_stride,
                elem: 8,
                iters: u64::MAX / 2,
                skew: false,
            };
            vec![Kernel::Interleaved {
                primary: Box::new(Kernel::Interleaved {
                    primary: Box::new(half(a)),
                    secondary: Box::new(half(b)),
                    period: 2,
                }),
                secondary: Box::new(Kernel::Coalesced {
                    buffer: x,
                    elem: 8,
                    iters: u64::MAX / 2,
                }),
                period: 17,
            }
            .with_iters(d.iters)]
        }
        BenchmarkId::Xsb => {
            // Monte-Carlo cross-section lookups: fully divergent random
            // gathers over a large nuclide grid.
            let grid = mk("nuclide-grid", table_len(212.25));
            let energy = mk("energy", vec_len);
            vec![Kernel::Interleaved {
                primary: Box::new(Kernel::Gather {
                    buffer: grid,
                    elem: 8,
                    iters: d.iters,
                    groups: 32,
                    seed: seed ^ 0xbeef,
                }),
                secondary: Box::new(Kernel::Coalesced {
                    buffer: energy,
                    elem: 8,
                    iters: u64::MAX / 2,
                }),
                period: 6,
            }]
        }
        BenchmarkId::Nw => {
            // Diagonal dynamic-programming sweep over the huge alignment
            // table: strided with per-lane skew.
            let t = mk("dp-table", table_len(531.82));
            // The DP sweep's *active* diagonal band covers d.rows rows at a
            // time even though the table is far larger.
            let rows = (t.len / d.row_stride).min(d.rows * 5 / 4);
            vec![Kernel::Strided {
                buffer: t,
                rows,
                row_stride: d.row_stride,
                elem: 8,
                iters: d.iters,
                skew: true,
            }]
        }
        BenchmarkId::Ssp | BenchmarkId::Mis | BenchmarkId::Clr => {
            // Frontier-based graph kernels: mostly coalesced CSR scans with
            // an occasional small neighbour gather (the paper found these
            // regular on their inputs).
            let mb = id.paper_footprint_mb();
            let csr = mk("csr", table_len(mb));
            let frontier = mk("frontier", table_len(mb / 8.0));
            vec![Kernel::Interleaved {
                primary: Box::new(Kernel::Coalesced {
                    buffer: csr,
                    elem: 8,
                    iters: d.reg_iters,
                }),
                secondary: Box::new(Kernel::Gather {
                    buffer: frontier,
                    elem: 8,
                    iters: u64::MAX / 2,
                    groups: 4,
                    seed: seed ^ 0x5115,
                }),
                period: 16,
            }]
        }
        BenchmarkId::Bck | BenchmarkId::Kmn | BenchmarkId::Hot => {
            // Dense streaming kernels: fully coalesced.
            let mb = id.paper_footprint_mb();
            let data = mk("data", table_len(mb));
            let weights = mk("weights", table_len(mb / 16.0));
            vec![Kernel::Interleaved {
                primary: Box::new(Kernel::Coalesced {
                    buffer: data,
                    elem: 8,
                    iters: d.reg_iters,
                }),
                secondary: Box::new(Kernel::Coalesced {
                    buffer: weights,
                    elem: 8,
                    iters: u64::MAX / 2,
                }),
                period: 4,
            }]
        }
    };

    let mut alloc = FrameAllocator::with_memory_bytes_seeded(2 << 30, FrameLayout::Scrambled, seed);
    let mut plan = LargePagePlan::default();
    if large_page_permille > 0 {
        let lens: Vec<u64> = planned.iter().map(|&(_, len)| len).collect();
        let bases = plan_buffer_bases(&lens);
        let mut rng = SplitMix64::new(seed ^ 0x2a17_9e05);
        for (&base, &(_, len)) in bases.iter().zip(planned.iter()) {
            for region in eligible_large_regions(base, len) {
                if rng.next_below(1000) < u64::from(large_page_permille) {
                    let run = alloc.alloc_contiguous(PAGES_PER_LARGE_PAGE);
                    plan.insert(region, run);
                }
            }
        }
    }
    let mut space = AddressSpace::new(&mut alloc);
    for (name, len) in &planned {
        space.alloc_buffer_promoted(name, *len, &mut alloc, &plan);
    }

    Workload::new(id, space, kernels, wavefronts)
}

impl Kernel {
    /// Returns the same kernel with the primary iteration count replaced
    /// (used when composing nested interleaves).
    fn with_iters(mut self, n: u64) -> Kernel {
        match &mut self {
            Kernel::Strided { iters, .. }
            | Kernel::Coalesced { iters, .. }
            | Kernel::Gather { iters, .. } => *iters = n,
            Kernel::Interleaved { primary, .. } => {
                let inner = std::mem::replace(
                    primary.as_mut(),
                    Kernel::Coalesced {
                        buffer: BufferRef {
                            base: ptw_types::addr::VirtAddr::new(0),
                            len: 1,
                        },
                        elem: 1,
                        iters: 0,
                    },
                );
                **primary = inner.with_iters(n);
            }
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptw_gpu::{coalesce, InstructionStream};
    use ptw_types::ids::WavefrontId;

    #[test]
    fn registry_covers_table_two() {
        assert_eq!(BenchmarkId::ALL.len(), 12);
        assert_eq!(
            BenchmarkId::IRREGULAR.len() + BenchmarkId::REGULAR.len(),
            12
        );
        for id in BenchmarkId::ALL {
            assert!(!id.abbrev().is_empty());
            assert!(id.paper_footprint_mb() > 0.0);
        }
    }

    #[test]
    fn every_benchmark_builds_and_streams_small() {
        for id in BenchmarkId::ALL {
            let mut w = build(id, Scale::Small, 1);
            assert!(w.wavefronts() > 0, "{id}: no wavefronts");
            let addrs = w
                .next_instruction(WavefrontId(0))
                .unwrap_or_else(|| panic!("{id}: empty stream"));
            assert!(!addrs.is_empty());
            // Every generated address must be mapped.
            for a in &addrs {
                assert!(
                    w.space().table().translate(a.page()).is_some(),
                    "{id}: unmapped address {a}"
                );
            }
        }
    }

    #[test]
    fn irregular_benchmarks_diverge_and_regular_do_not() {
        for id in BenchmarkId::ALL {
            let mut w = build(id, Scale::Small, 2);
            let mut total_pages = 0usize;
            let mut n = 0usize;
            for _ in 0..32 {
                if let Some(addrs) = w.next_instruction(WavefrontId(0)) {
                    total_pages += coalesce(&addrs).page_divergence();
                    n += 1;
                }
            }
            let avg = total_pages as f64 / n as f64;
            if id.is_irregular() {
                assert!(
                    avg > 16.0,
                    "{id}: avg divergence {avg} too low for irregular"
                );
            } else {
                assert!(avg < 4.0, "{id}: avg divergence {avg} too high for regular");
            }
        }
    }

    #[test]
    fn streams_are_deterministic() {
        let mut a = build(BenchmarkId::Xsb, Scale::Small, 7);
        let mut b = build(BenchmarkId::Xsb, Scale::Small, 7);
        for wf in [WavefrontId(0), WavefrontId(1)] {
            for _ in 0..20 {
                assert_eq!(a.next_instruction(wf), b.next_instruction(wf));
            }
        }
    }

    #[test]
    fn streams_eventually_end() {
        let mut w = build(BenchmarkId::Kmn, Scale::Small, 1);
        let mut count = 0u64;
        while w.next_instruction(WavefrontId(0)).is_some() {
            count += 1;
            assert!(count < 1_000_000, "stream does not terminate");
        }
        assert!(count > 0);
    }

    #[test]
    fn footprint_exceeds_tlb_reach_for_irregular() {
        // The GPU L2 TLB covers 512 × 4 KiB = 2 MiB; irregular workloads
        // must exceed that reach even at Small scale or the paper's
        // bottleneck disappears.
        for id in BenchmarkId::IRREGULAR {
            let w = build(id, Scale::Small, 3);
            assert!(
                w.space().footprint_bytes() > 2 * 1024 * 1024,
                "{id}: footprint {} too small",
                w.space().footprint_bytes()
            );
        }
    }

    #[test]
    fn zero_permille_build_matches_plain_build() {
        let mut a = build(BenchmarkId::Mvt, Scale::Small, 11);
        let mut b = build_with_large_pages(BenchmarkId::Mvt, Scale::Small, 11, 0);
        assert!(a.space().table().large_regions() == 0);
        assert!(b.space().table().large_regions() == 0);
        for _ in 0..16 {
            let ia = a.next_instruction(WavefrontId(0));
            let ib = b.next_instruction(WavefrontId(0));
            assert_eq!(ia, ib);
            let Some(addrs) = ia else { break };
            for addr in addrs {
                assert_eq!(
                    a.space().table().translate(addr.page()),
                    b.space().table().translate(addr.page()),
                    "frame divergence at {addr}"
                );
            }
        }
    }

    #[test]
    fn full_promotion_creates_large_mappings_everywhere_eligible() {
        for id in [BenchmarkId::Mvt, BenchmarkId::Xsb, BenchmarkId::Kmn] {
            let mut w = build_with_large_pages(id, Scale::Small, 5, 1000);
            assert!(
                w.space().table().large_regions() > 0,
                "{id}: no region promoted at 1000\u{2030}"
            );
            // Promotion must not change reachability: every generated
            // address still translates.
            for _ in 0..8 {
                let Some(addrs) = w.next_instruction(WavefrontId(0)) else {
                    break;
                };
                for a in &addrs {
                    assert!(
                        w.space().table().translate(a.page()).is_some(),
                        "{id}: unmapped address {a}"
                    );
                }
            }
        }
    }

    #[test]
    fn partial_promotion_is_deterministic_and_between_extremes() {
        let w1 = build_with_large_pages(BenchmarkId::Xsb, Scale::Small, 9, 500);
        let w2 = build_with_large_pages(BenchmarkId::Xsb, Scale::Small, 9, 500);
        assert_eq!(
            w1.space().table().large_regions(),
            w2.space().table().large_regions()
        );
        let all = build_with_large_pages(BenchmarkId::Xsb, Scale::Small, 9, 1000);
        let half = w1.space().table().large_regions();
        assert!(half > 0, "500\u{2030} promoted nothing");
        assert!(
            half < all.space().table().large_regions(),
            "500\u{2030} promoted as much as 1000\u{2030}"
        );
    }

    #[test]
    fn gev_touches_two_matrices() {
        let mut w = build(BenchmarkId::Gev, Scale::Small, 1);
        let mut pages = std::collections::HashSet::new();
        for _ in 0..8 {
            if let Some(addrs) = w.next_instruction(WavefrontId(0)) {
                for a in addrs {
                    pages.insert(a.page().raw());
                }
            }
        }
        // Two alternating matrices: the page set per wavefront is about
        // twice a single-matrix kernel's 32.
        assert!(pages.len() > 48, "got {}", pages.len());
    }
}
