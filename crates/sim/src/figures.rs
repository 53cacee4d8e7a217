//! Regeneration of every table and figure in the paper's evaluation.
//!
//! Each `figN` function reads the runs that figure needs from the memoizing
//! [`Lab`] and renders a [`Table`] whose rows mirror the figure's
//! bars/series, alongside the paper's reported values where the text states
//! them. The figure bodies are the only list of the cells they read: a
//! render on a lab that lacks them records the keys, which the caller runs
//! with [`Lab::prefetch`] before it renders again. Absolute numbers are not expected to match (our
//! substrate is a from-scratch simulator, not the authors' gem5 setup); the
//! *shape* — who wins, by roughly what factor, how trends move with
//! configuration — is the reproduction target. EXPERIMENTS.md records
//! paper-vs-measured for each entry.

use ptw_core::iommu::{Iommu, IommuConfig};
use ptw_core::sched::SchedulerKind;
use ptw_pagetable::frames::{FrameAllocator, FrameLayout};
use ptw_pagetable::table::PageTable;
use ptw_types::addr::VirtPage;
use ptw_types::ids::InstrId;
use ptw_types::stats::geometric_mean;
use ptw_types::time::Cycle;
use ptw_workloads::{build, BenchmarkId};

use crate::report::{percent, ratio, Table};
use crate::runner::{ConfigVariant, Lab};
use crate::sweep::CellExecutor;

/// Rendered in place of any value whose underlying run failed: figures
/// degrade cell-by-cell instead of aborting the whole sweep.
pub const FAILED_CELL: &str = "FAILED";

fn ratio_or_failed(v: Option<f64>) -> String {
    v.map_or_else(|| FAILED_CELL.to_owned(), ratio)
}

fn percent_or_failed(v: Option<f64>) -> String {
    v.map_or_else(|| FAILED_CELL.to_owned(), percent)
}

/// Geometric-mean cell over the runs that succeeded; `-` when every
/// contributing run failed.
fn gmean_cell(vals: &[f64]) -> String {
    if vals.is_empty() {
        "-".to_owned()
    } else {
        ratio(geometric_mean(vals))
    }
}

/// How a figure gets its numbers.
#[derive(Clone, Copy, Debug)]
pub enum Render {
    /// Reads no lab cell (the scale at most).
    Static(fn(&Lab) -> Table),
    /// Reads [`Lab`] cells: a cell that has not run renders as
    /// [`FAILED_CELL`] and is recorded for [`Lab::take_missing`].
    Lab(fn(&mut Lab) -> Table),
    /// Runs its own sweep on the executor, for cells the lab cache does not
    /// key on; returns the table and one line per failed cell.
    Sweep(fn(&Lab, &dyn CellExecutor) -> (Table, Vec<String>)),
}

/// Every figure and table by name, in presentation order. `figures all`
/// renders all but `topology`, which runs only when asked for by name.
pub const FIGURES: [(&str, Render); 19] = [
    ("table1", Render::Static(|_| table1())),
    ("table2", Render::Static(table2)),
    ("fig2", Render::Lab(fig2)),
    ("fig3", Render::Lab(fig3)),
    ("fig4", Render::Static(|_| fig4())),
    ("fig5", Render::Lab(fig5)),
    ("fig6", Render::Lab(fig6)),
    ("fig8", Render::Lab(fig8)),
    ("fig9", Render::Lab(fig9)),
    ("fig10", Render::Lab(fig10)),
    ("fig11", Render::Lab(fig11)),
    ("fig12", Render::Lab(fig12)),
    ("fig13", Render::Lab(fig13)),
    ("fig14", Render::Lab(fig14)),
    ("ablation", Render::Lab(ablation)),
    ("followon", Render::Lab(followon)),
    ("seeds", Render::Sweep(seeds)),
    ("stats", Render::Lab(stats)),
    ("topology", Render::Sweep(topology)),
];

/// Table I: the baseline system configuration (echoed from the config
/// structs so drift between code and documentation is impossible).
pub fn table1() -> Table {
    let c = crate::config::SystemConfig::paper_baseline();
    let mut t = Table::new(
        "Table I: baseline system configuration",
        &["component", "modelled value", "paper value"],
    );
    let mut row = |a: &str, b: String, c: &str| t.row(vec![a.into(), b, c.into()]);
    row("GPU CUs", format!("{}", c.gpu.cus), "8 CUs, 2GHz");
    row(
        "Wavefront",
        format!("{} threads", c.gpu.wavefront_width),
        "64 threads per wavefront",
    );
    row(
        "L1 data cache",
        format!(
            "{} KiB, {}-way",
            c.l1_cache.size_bytes / 1024,
            c.l1_cache.ways
        ),
        "32KB, 16-way, 64B block",
    );
    row(
        "L2 data cache",
        format!(
            "{} MiB, {}-way",
            c.l2_cache.size_bytes / (1024 * 1024),
            c.l2_cache.ways
        ),
        "4MB, 16-way, 64B block",
    );
    row(
        "L1 TLB",
        format!("{} entries, fully-assoc", c.gpu_l1_tlb.entries),
        "32 entries, fully-associative",
    );
    row(
        "L2 TLB",
        format!(
            "{} entries, {}-way",
            c.gpu_l2_tlb.entries, c.gpu_l2_tlb.ways
        ),
        "512 entries, 16-way",
    );
    row(
        "IOMMU",
        format!(
            "{} buffer entries, {} walkers, {}/{} TLB",
            c.iommu.buffer_entries, c.iommu.walkers, c.iommu.l1_tlb.entries, c.iommu.l2_tlb.entries
        ),
        "256 buffer, 8 walkers, 32/256 TLBs, FCFS",
    );
    row(
        "DRAM",
        format!(
            "{} channels, {} ranks/ch, {} banks/rank",
            c.dram.channels, c.dram.ranks_per_channel, c.dram.banks_per_rank
        ),
        "DDR3-1600, 2 channel, 2 ranks/ch, 16 banks/rank",
    );
    t
}

/// Table II: the benchmarks, their paper footprints and the footprints we
/// actually generate at the lab's scale.
pub fn table2(lab: &Lab) -> Table {
    let mut t = Table::new(
        "Table II: GPU benchmarks",
        &["bench", "class", "description", "paper MB", "generated MB"],
    );
    for id in BenchmarkId::ALL {
        let w = build(id, lab.scale(), 0);
        t.row(vec![
            id.abbrev().into(),
            if id.is_irregular() {
                "irregular"
            } else {
                "regular"
            }
            .into(),
            id.description().into(),
            format!("{:.2}", id.paper_footprint_mb()),
            format!(
                "{:.2}",
                w.space().footprint_bytes() as f64 / (1024.0 * 1024.0)
            ),
        ]);
    }
    t
}

/// Figure 2: performance impact of page walk scheduling (Random / FCFS /
/// SIMT-aware, normalized to Random) on the four motivation benchmarks.
pub fn fig2(lab: &mut Lab) -> Table {
    let mut t = Table::new(
        "Figure 2: speedup over random scheduler",
        &["bench", "Random", "FCFS", "SIMT-aware"],
    );
    for id in BenchmarkId::MOTIVATION {
        let fcfs = lab.try_speedup(id, SchedulerKind::Fcfs, SchedulerKind::Random);
        let simt = lab.try_speedup(id, SchedulerKind::SimtAware, SchedulerKind::Random);
        t.row(vec![
            id.abbrev().into(),
            ratio(1.0),
            ratio_or_failed(fcfs),
            ratio_or_failed(simt),
        ]);
    }
    t.row(vec![
        "paper".into(),
        ratio(1.0),
        "~1.35x (random costs ~26%)".into(),
        "up to >2.1x".into(),
    ]);
    t
}

/// Figure 3: distribution of per-instruction page-walk memory accesses
/// under the FCFS baseline.
pub fn fig3(lab: &mut Lab) -> Table {
    let mut t = Table::new(
        "Figure 3: fraction of SIMD instructions by page-walk memory accesses",
        &[
            "bench", "1-16", "17-32", "33-48", "49-64", "65-80", "81-256",
        ],
    );
    for id in BenchmarkId::MOTIVATION {
        let mut row = vec![id.abbrev().to_owned()];
        match lab.try_result(id, SchedulerKind::Fcfs) {
            Some(r) => row.extend(r.metrics.work_hist.fractions().iter().map(|&x| percent(x))),
            None => row.extend((0..6).map(|_| FAILED_CELL.to_owned())),
        }
        t.row(row);
    }
    t.row(vec![
        "paper".into(),
        "27-61%".into(),
        "-".into(),
        "-".into(),
        "33-70% at 49+".into(),
        "GEV ~31% at 65+".into(),
        "-".into(),
    ]);
    t
}

/// Figure 4: the interleaving illustration, replayed as a concrete
/// two-instruction scenario on a single-walker IOMMU: FCFS interleaves
/// `load A`'s and `load B`'s walks; batching completes A much earlier
/// without delaying B's last walk.
pub fn fig4() -> Table {
    let mut t = Table::new(
        "Figure 4: two-instruction interleaving scenario (1 walker, 100-cycle memory)",
        &["scheduler", "load A done", "load B done"],
    );
    for kind in [SchedulerKind::Fcfs, SchedulerKind::SimtAware] {
        let (a, b) = interleaving_scenario(kind);
        t.row(vec![kind.label().into(), a.to_string(), b.to_string()]);
    }
    t.row(vec![
        "paper".into(),
        "batching completes A earlier".into(),
        "without delaying B".into(),
    ]);
    t
}

/// Runs the Figure 4 scenario, returning the completion cycles of the two
/// instructions' translation phases.
fn interleaving_scenario(kind: SchedulerKind) -> (u64, u64) {
    let mut alloc = FrameAllocator::new(0x1000, 1 << 22, FrameLayout::Sequential);
    let mut table = PageTable::new(&mut alloc);
    let mut map = |vpn: u64| {
        let page = VirtPage::new(vpn);
        let f = alloc.alloc();
        table.map(page, f, &mut alloc).expect("fresh page");
        page
    };
    // load A: 3 pages; load B: 5 pages — interleaved arrival like Fig 4.
    let a_pages: Vec<VirtPage> = (0..3).map(|i| map(0x100 + i * 0x200)).collect();
    let b_pages: Vec<VirtPage> = (0..5).map(|i| map(0x10_000 + i * 0x200)).collect();

    let mut cfg = IommuConfig::paper_baseline().with_scheduler(kind);
    cfg.walkers = 1;
    let mut iommu: Iommu<u8> = Iommu::new(cfg);
    // A blocker walk so arrivals are scored/buffered rather than started.
    let blocker = map(0x50_000);
    iommu.translate(blocker, InstrId::new(9), 9, Cycle::ZERO);
    let mut reads = iommu.start_walkers(&table, Cycle::ZERO);

    // Interleaved arrivals: A0 B0 B1 A1 B2 A2 B3 B4 (A = instr 0, B = 1).
    let arrivals: [(u8, usize); 8] = [
        (0, 0),
        (1, 0),
        (1, 1),
        (0, 1),
        (1, 2),
        (0, 2),
        (1, 3),
        (1, 4),
    ];
    for (i, &(instr, idx)) in arrivals.iter().enumerate() {
        let page = if instr == 0 {
            a_pages[idx]
        } else {
            b_pages[idx]
        };
        iommu.translate(
            page,
            InstrId::new(instr as u32),
            instr,
            Cycle::new(1 + i as u64),
        );
    }

    let (mut a_left, mut b_left) = (3u32, 5u32);
    let (mut a_done, mut b_done) = (0u64, 0u64);
    let mut t = Cycle::ZERO;
    while a_left > 0 || b_left > 0 {
        let read = if !reads.is_empty() {
            reads.remove(0)
        } else {
            let r = iommu.start_walkers(&table, t);
            assert!(!r.is_empty(), "walker starved with work pending");
            let mut r = r;
            r.remove(0)
        };
        let mut cur = read;
        let mut done = Vec::new();
        loop {
            t = cur.issue_at.max(t) + 100;
            match iommu.memory_done_into(cur.walker, t, &mut done) {
                Some(next) => cur = next,
                None => {
                    for c in done.drain(..) {
                        match c.waiter {
                            0 => {
                                a_left -= 1;
                                a_done = c.completed_at.raw();
                            }
                            1 => {
                                b_left -= 1;
                                b_done = c.completed_at.raw();
                            }
                            _ => {} // the blocker
                        }
                    }
                    break;
                }
            }
        }
    }
    (a_done, b_done)
}

/// Figure 5: fraction of multi-walk instructions whose walks were
/// interleaved with another instruction's (FCFS baseline).
pub fn fig5(lab: &mut Lab) -> Table {
    let mut t = Table::new(
        "Figure 5: fraction of instructions with interleaved page walks (FCFS)",
        &["bench", "interleaved"],
    );
    for id in BenchmarkId::MOTIVATION {
        let f = lab
            .try_result(id, SchedulerKind::Fcfs)
            .map(|r| r.metrics.interleaved_fraction);
        t.row(vec![id.abbrev().into(), percent_or_failed(f)]);
    }
    t.row(vec!["paper".into(), "45-77%".into()]);
    t
}

/// Figure 6: average latency of the last-completed walk per instruction,
/// normalized to the first-completed (FCFS baseline).
pub fn fig6(lab: &mut Lab) -> Table {
    let mut t = Table::new(
        "Figure 6: first- vs last-completed walk latency (FCFS, normalized to first)",
        &["bench", "first", "last"],
    );
    for id in BenchmarkId::MOTIVATION {
        let last = lab
            .try_result(id, SchedulerKind::Fcfs)
            .map(|r| r.metrics.last_over_first());
        t.row(vec![id.abbrev().into(), ratio(1.0), ratio_or_failed(last)]);
    }
    t.row(vec!["paper".into(), ratio(1.0), "often 2-3x".into()]);
    t
}

/// Figure 8: speedup of the SIMT-aware scheduler over FCFS, all twelve
/// benchmarks plus group geometric means.
pub fn fig8(lab: &mut Lab) -> Table {
    let mut t = Table::new(
        "Figure 8: speedup with SIMT-aware page walk scheduler over FCFS",
        &["bench", "class", "speedup"],
    );
    let mut groups: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    for id in BenchmarkId::ALL {
        let s = lab.try_speedup(id, SchedulerKind::SimtAware, SchedulerKind::Fcfs);
        if let Some(s) = s {
            groups[if id.is_irregular() { 0 } else { 1 }].push(s);
        }
        t.row(vec![
            id.abbrev().into(),
            if id.is_irregular() {
                "irregular"
            } else {
                "regular"
            }
            .into(),
            ratio_or_failed(s),
        ]);
    }
    t.row(vec![
        "gmean".into(),
        "irregular".into(),
        gmean_cell(&groups[0]),
    ]);
    t.row(vec![
        "gmean".into(),
        "regular".into(),
        gmean_cell(&groups[1]),
    ]);
    t.row(vec![
        "paper".into(),
        "irregular / regular".into(),
        "1.30x gmean (up to 1.41x) / ~1.00x".into(),
    ]);
    t
}

/// A generic "SIMT-aware normalized to FCFS" metric figure over a set of
/// benchmarks.
fn normalized_metric(
    lab: &mut Lab,
    title: &str,
    header: &str,
    benchmarks: &[BenchmarkId],
    paper: &str,
    metric: impl Fn(&crate::metrics::RunMetrics) -> f64,
) -> Table {
    let mut t = Table::new(title, &["bench", header]);
    let mut vals = Vec::new();
    for &id in benchmarks {
        let base = lab
            .try_result(id, SchedulerKind::Fcfs)
            .map(|r| metric(&r.metrics));
        let simt = lab
            .try_result(id, SchedulerKind::SimtAware)
            .map(|r| metric(&r.metrics));
        let norm = base
            .zip(simt)
            .map(|(b, s)| if b == 0.0 { 1.0 } else { s / b });
        if let Some(n) = norm {
            vals.push(n.max(1e-9));
        }
        t.row(vec![id.abbrev().into(), ratio_or_failed(norm)]);
    }
    t.row(vec!["gmean".into(), gmean_cell(&vals)]);
    t.row(vec!["paper".into(), paper.into()]);
    t
}

/// Figure 9: CU stall cycles, SIMT-aware normalized to FCFS (all twelve).
pub fn fig9(lab: &mut Lab) -> Table {
    normalized_metric(
        lab,
        "Figure 9: normalized CU stall cycles (SIMT-aware / FCFS)",
        "stalls",
        &BenchmarkId::ALL,
        "0.77x mean on irregular (up to 0.71x); ~1.0x regular",
        |m| m.cu_stall_cycles as f64,
    )
}

/// Figure 10: first↔last walk completion gap, normalized to FCFS
/// (irregular benchmarks).
pub fn fig10(lab: &mut Lab) -> Table {
    normalized_metric(
        lab,
        "Figure 10: normalized first-to-last walk latency gap (SIMT-aware / FCFS)",
        "gap",
        &BenchmarkId::IRREGULAR,
        "0.63x mean (gap reduced 37%)",
        |m| m.mean_latency_gap,
    )
}

/// Figure 11: number of page walk requests, normalized to FCFS.
pub fn fig11(lab: &mut Lab) -> Table {
    normalized_metric(
        lab,
        "Figure 11: normalized number of page walk requests (SIMT-aware / FCFS)",
        "walks",
        &BenchmarkId::IRREGULAR,
        "0.79x mean (21% fewer; up to 30%)",
        |m| m.walk_requests as f64,
    )
}

/// Figure 12: distinct wavefronts accessing the GPU L2 TLB per epoch,
/// normalized to FCFS.
pub fn fig12(lab: &mut Lab) -> Table {
    normalized_metric(
        lab,
        "Figure 12: normalized active wavefronts per L2-TLB epoch (SIMT-aware / FCFS)",
        "wavefronts",
        &BenchmarkId::IRREGULAR,
        "0.58x mean (42% fewer)",
        |m| m.mean_epoch_wavefronts,
    )
}

/// Figure 13: sensitivity to GPU L2 TLB size and walker count.
pub fn fig13(lab: &mut Lab) -> Table {
    variant_speedups(
        lab,
        "Figure 13: SIMT-aware speedup over FCFS under bigger TLB / more walkers",
        [
            "1024 TLB/8 walkers",
            "512 TLB/16 walkers",
            "1024 TLB/16 walkers",
        ],
        [
            ConfigVariant::BigTlb,
            ConfigVariant::MoreWalkers,
            ConfigVariant::BigTlbMoreWalkers,
        ],
        ["1.25x", "1.084x", "1.053x"],
    )
}

/// Figure 14: sensitivity to the IOMMU buffer (scheduler lookahead) size.
pub fn fig14(lab: &mut Lab) -> Table {
    variant_speedups(
        lab,
        "Figure 14: SIMT-aware speedup over FCFS vs IOMMU buffer size",
        ["128 entries", "256 entries (baseline)", "512 entries"],
        [
            ConfigVariant::SmallBuffer,
            ConfigVariant::Baseline,
            ConfigVariant::BigBuffer,
        ],
        ["1.13x", "1.30x", "1.50x"],
    )
}

/// SIMT-aware speedup over FCFS on the irregular benchmarks under three
/// system variants, one column each, plus their geometric means and the
/// paper's values.
fn variant_speedups(
    lab: &mut Lab,
    title: &str,
    columns: [&str; 3],
    variants: [ConfigVariant; 3],
    paper: [&str; 3],
) -> Table {
    let mut t = Table::new(title, &["bench", columns[0], columns[1], columns[2]]);
    let mut means: [Vec<f64>; 3] = Default::default();
    for id in BenchmarkId::IRREGULAR {
        let mut row = vec![id.abbrev().to_owned()];
        for (i, v) in variants.into_iter().enumerate() {
            let base = lab
                .try_result_with(id, SchedulerKind::Fcfs, v)
                .map(|r| r.metrics.cycles as f64);
            let simt = lab
                .try_result_with(id, SchedulerKind::SimtAware, v)
                .map(|r| r.metrics.cycles as f64);
            let s = base.zip(simt).map(|(b, s)| b / s);
            if let Some(s) = s {
                means[i].push(s);
            }
            row.push(ratio_or_failed(s));
        }
        t.row(row);
    }
    t.row(vec![
        "gmean".into(),
        gmean_cell(&means[0]),
        gmean_cell(&means[1]),
        gmean_cell(&means[2]),
    ]);
    let mut paper_row = vec!["paper".to_owned()];
    paper_row.extend(paper.map(str::to_owned));
    t.row(paper_row);
    t
}

/// Follow-on study: the memory-controller-inspired policies the paper
/// anticipates (Section III: "there exist opportunities for follow-on work
/// to explore different flavors of page walk scheduling for both
/// performance and QoS"), evaluated for performance *and* fairness.
pub fn followon(lab: &mut Lab) -> Table {
    let mut t = Table::new(
        "Follow-on: performance and fairness of extended walk schedulers",
        &[
            "scheduler",
            "MVT speedup",
            "MVT fairness",
            "XSB speedup",
            "XSB fairness",
        ],
    );
    let fairness = |lab: &mut Lab, id, sched| {
        lab.try_result(id, sched)
            .map(|r| r.finish_spread)
            .map_or_else(|| FAILED_CELL.to_owned(), |f| format!("{f:.2}"))
    };
    for kind in SchedulerKind::EXTENDED {
        let mvt = lab.try_speedup(BenchmarkId::Mvt, kind, SchedulerKind::Fcfs);
        let mvt_fair = fairness(lab, BenchmarkId::Mvt, kind);
        let xsb = lab.try_speedup(BenchmarkId::Xsb, kind, SchedulerKind::Fcfs);
        let xsb_fair = fairness(lab, BenchmarkId::Xsb, kind);
        t.row(vec![
            kind.label().into(),
            ratio_or_failed(mvt),
            mvt_fair,
            ratio_or_failed(xsb),
            xsb_fair,
        ]);
    }
    t.row(vec![
        "note".into(),
        "fairness = latest wavefront finish / mean finish (1.0 = balanced)".into(),
        "-".into(),
        "-".into(),
        "-".into(),
    ]);
    t
}

/// Robustness study: the Figure 8 headline re-measured over several
/// workload seeds (not a paper figure — the paper reports single gem5
/// runs; we quantify our synthetic workloads' run-to-run spread).
///
/// These runs bypass the [`Lab`] cache (they vary the workload seed, which
/// the cache does not key on), so they go straight through `exec`. Because
/// of that they also bypass the lab's failure ledger: the second element of
/// the return value lists any cells that failed (empty when all ran
/// cleanly), one summary line each.
pub fn seeds(lab: &Lab, exec: &dyn CellExecutor) -> (Table, Vec<String>) {
    use crate::runner::RunSpec;
    use crate::SystemConfig;

    let mut t = Table::new(
        "Robustness: SIMT-aware speedup over FCFS across workload seeds",
        &["bench", "seed A", "seed B", "seed C", "min..max"],
    );
    let seeds = [0xC0FFEE_u64, 0xBEEF, 0x5EED];
    // One flat spec list (bench-major, FCFS/SIMT-aware pairs per seed) so
    // the whole study fans out in a single sweep.
    let mut specs = Vec::new();
    for id in BenchmarkId::IRREGULAR {
        for &seed in &seeds {
            for kind in [SchedulerKind::Fcfs, SchedulerKind::SimtAware] {
                specs.push(RunSpec {
                    benchmark: id,
                    scheduler: kind,
                    scale: lab.scale(),
                    seed,
                    config: SystemConfig::paper_baseline(),
                });
            }
        }
    }
    let report = exec.try_run_cells(&specs);
    let failures: Vec<String> = report
        .failed()
        .map(|c| {
            let err = c.result.as_ref().expect_err("failed() yields errors");
            format!("{} (seed study) failed: {err}", c.label)
        })
        .collect();
    let mut pairs = report.cells.chunks_exact(2);
    let mut all: Vec<f64> = Vec::new();
    for id in BenchmarkId::IRREGULAR {
        let mut row = vec![id.abbrev().to_owned()];
        let mut vals = Vec::new();
        for _ in &seeds {
            let pair = pairs.next().expect("one FCFS/SIMT-aware pair per seed");
            let s = match (&pair[0].result, &pair[1].result) {
                (Ok(fcfs), Ok(simt)) => {
                    Some(fcfs.metrics.cycles as f64 / simt.metrics.cycles as f64)
                }
                _ => None,
            };
            if let Some(s) = s {
                vals.push(s);
            }
            row.push(ratio_or_failed(s));
        }
        all.extend(vals.iter().copied());
        if vals.is_empty() {
            row.push(FAILED_CELL.to_owned());
        } else {
            let (min, max) = vals.iter().fold((f64::INFINITY, 0.0_f64), |(lo, hi), &v| {
                (lo.min(v), hi.max(v))
            });
            row.push(format!("{min:.2}..{max:.2}"));
        }
        t.row(row);
    }
    t.row(vec![
        "gmean".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        gmean_cell(&all),
    ]);
    (t, failures)
}

/// Extension study: the irregular benchmarks on a 2×2 sharded topology
/// (2 GPU shards × 2 IOMMUs) with half of all 2 MiB-aligned buffer regions
/// promoted to large pages. Reports the new per-IOMMU occupancy and
/// per-page-size latency columns the multi-IOMMU refactor added.
///
/// Not a paper figure, and deliberately *not* part of `figures all`: that
/// output is equivalence-pinned, so this study only runs when asked for by
/// name (`figures topology`). Like [`seeds`], its runs vary
/// config knobs the [`Lab`] cache does not key on, so they bypass the cache
/// (and its failure ledger) and go straight through `exec`; the second
/// element of the return value lists any cells that failed.
pub fn topology(lab: &Lab, exec: &dyn CellExecutor) -> (Table, Vec<String>) {
    use crate::runner::RunSpec;
    use crate::SystemConfig;

    let mut t = Table::new(
        "Extension: 2x2 sharded topology, 500\u{2030} large-page promotion",
        &[
            "bench",
            "sched",
            "per-IOMMU walks",
            "imbalance",
            "2M walks",
            "4K walk lat",
            "2M walk lat",
            "GPU TLB 2M hits",
        ],
    );
    let kinds = [SchedulerKind::Fcfs, SchedulerKind::SimtAware];
    let mut specs = Vec::new();
    for id in BenchmarkId::IRREGULAR {
        for kind in kinds {
            specs.push(RunSpec {
                benchmark: id,
                scheduler: kind,
                scale: lab.scale(),
                seed: lab.seed(),
                config: SystemConfig::paper_baseline()
                    .with_topology(2, 2)
                    .with_large_page_permille(500),
            });
        }
    }
    let report = exec.try_run_cells(&specs);
    let failures: Vec<String> = report
        .failed()
        .map(|c| {
            let err = c.result.as_ref().expect_err("failed() yields errors");
            format!("{} (topology study) failed: {err}", c.label)
        })
        .collect();
    let mut cells = report.cells.iter();
    for id in BenchmarkId::IRREGULAR {
        for kind in kinds {
            let cell = cells.next().expect("one cell per (bench, sched)");
            let mut row = vec![id.abbrev().to_owned(), kind.label().to_owned()];
            match &cell.result {
                Ok(r) => {
                    row.push(format!("{:?}", r.per_iommu_walks));
                    row.push(format!("{:.3}", r.iommu_imbalance));
                    row.push(r.iommu.large_walks_performed.to_string());
                    row.push(format!("{:.0}", r.iommu.avg_base_walk_latency()));
                    row.push(format!("{:.0}", r.iommu.avg_large_walk_latency()));
                    row.push(r.gpu_tlb_large_hits.to_string());
                }
                Err(_) => row.extend((0..6).map(|_| FAILED_CELL.to_owned())),
            }
            t.row(row);
        }
    }
    t.row(vec![
        "note".into(),
        "-".into(),
        "imbalance = max/mean IOMMU walks (1.0 = balanced)".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
    ]);
    (t, failures)
}

/// Diagnostic summary of every benchmark under FCFS (not a paper figure;
/// used to sanity-check the simulated regime).
pub fn stats(lab: &mut Lab) -> Table {
    let mut t = Table::new(
        "Diagnostics: FCFS baseline run summaries",
        &[
            "bench",
            "cycles",
            "instrs",
            "walks",
            "perf'd",
            "L1 TLB",
            "L2 TLB",
            "peak buf",
            "multi-walk",
            "interleaved",
            "avg walk lat",
            "stall%",
        ],
    );
    for id in BenchmarkId::ALL {
        let Some(r) = lab.try_result(id, SchedulerKind::Fcfs).cloned() else {
            let mut row = vec![id.abbrev().to_owned()];
            row.extend((0..11).map(|_| FAILED_CELL.to_owned()));
            t.row(row);
            continue;
        };
        t.row(vec![
            id.abbrev().into(),
            r.metrics.cycles.to_string(),
            r.metrics.instructions.to_string(),
            r.metrics.walk_requests.to_string(),
            r.metrics.walks_performed.to_string(),
            percent(r.gpu_l1_tlb_hit_rate),
            percent(r.gpu_l2_tlb_hit_rate),
            r.iommu.peak_pending.to_string(),
            r.metrics.multi_walk_instructions.to_string(),
            percent(r.metrics.interleaved_fraction),
            format!("{:.0}", r.iommu.avg_walk_latency()),
            percent(r.metrics.cu_stall_cycles as f64 / (r.metrics.cycles as f64 * 8.0)),
        ]);
    }
    t
}

/// Ablation of the SIMT-aware design's parts: SJF-only, Batch-only, the
/// full scheduler, and the full scheduler without PWC counter pinning.
pub fn ablation(lab: &mut Lab) -> Table {
    let mut t = Table::new(
        "Ablation: speedup over FCFS of each design ingredient",
        &[
            "bench",
            "SJF-only",
            "Batch-only",
            "SIMT-aware",
            "SIMT-aware w/o pinning",
        ],
    );
    let mut cols: [Vec<f64>; 4] = Default::default();
    for id in BenchmarkId::IRREGULAR {
        let base = lab
            .try_result(id, SchedulerKind::Fcfs)
            .map(|r| r.metrics.cycles as f64);
        let mut row = vec![id.abbrev().to_owned()];
        let mut push = |i: usize, cycles: Option<f64>, row: &mut Vec<String>| {
            let s = base.zip(cycles).map(|(b, c)| b / c);
            if let Some(s) = s {
                cols[i].push(s);
            }
            row.push(ratio_or_failed(s));
        };
        let sjf = lab
            .try_result(id, SchedulerKind::SjfOnly)
            .map(|r| r.metrics.cycles as f64);
        push(0, sjf, &mut row);
        let batch = lab
            .try_result(id, SchedulerKind::BatchOnly)
            .map(|r| r.metrics.cycles as f64);
        push(1, batch, &mut row);
        let simt = lab
            .try_result(id, SchedulerKind::SimtAware)
            .map(|r| r.metrics.cycles as f64);
        push(2, simt, &mut row);
        let nopin = lab
            .try_result_with(id, SchedulerKind::SimtAware, ConfigVariant::NoPinning)
            .map(|r| r.metrics.cycles as f64);
        push(3, nopin, &mut row);
        t.row(row);
    }
    t.row(vec![
        "gmean".into(),
        gmean_cell(&cols[0]),
        gmean_cell(&cols[1]),
        gmean_cell(&cols[2]),
        gmean_cell(&cols[3]),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptw_workloads::Scale;

    #[test]
    fn static_tables_render() {
        let t1 = table1();
        assert!(t1.to_string().contains("IOMMU"));
        let lab = Lab::new(Scale::Small, 1);
        let t2 = table2(&lab);
        assert_eq!(t2.rows.len(), 12);
    }

    #[test]
    fn every_lab_figure_records_its_cells_without_running_them() {
        let mut lab = Lab::new(Scale::Small, 1);
        for (name, render) in FIGURES {
            match render {
                Render::Lab(f) => {
                    let t = f(&mut lab);
                    assert!(t.to_string().contains(FAILED_CELL), "{name}");
                    assert!(!lab.take_missing().is_empty(), "{name} records no cell");
                }
                Render::Static(f) => {
                    f(&lab);
                    assert!(lab.take_missing().is_empty(), "{name} reads a cell");
                }
                Render::Sweep(_) => {}
            }
        }
        assert_eq!(lab.executed, 0, "a render never runs a cell");
    }

    #[test]
    fn fig4_scenario_batching_helps_first_instruction() {
        let (a_fcfs, b_fcfs) = interleaving_scenario(SchedulerKind::Fcfs);
        let (a_simt, b_simt) = interleaving_scenario(SchedulerKind::SimtAware);
        // Batching must finish one of the instructions strictly earlier
        // than interleaved FCFS finished its first instruction, without
        // delaying the overall completion.
        let first_fcfs = a_fcfs.min(b_fcfs);
        let first_simt = a_simt.min(b_simt);
        assert!(
            first_simt < first_fcfs,
            "batching {first_simt} vs FCFS {first_fcfs}"
        );
        assert!(a_simt.max(b_simt) <= a_fcfs.max(b_fcfs));
    }
}
