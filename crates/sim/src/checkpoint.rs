//! Crash-safe persistence of completed sweep results.
//!
//! A paper-scale figures sweep is hours of simulation; a crash (or an
//! injected fault) must not forfeit the finished cells. [`SweepCheckpoint`]
//! appends one JSON line per completed `(benchmark, scheduler, variant)`
//! run to a file, flushed per record, so a rerun of `figures --resume`
//! reloads every finished cell and re-executes only what is missing.
//!
//! # Format
//!
//! Line 1 is a header binding the file to a `(version, scale, seed)`
//! triple; a mismatched header discards the stale content (results from a
//! different scale or seed are not reusable). Every further line is one
//! flat JSON object holding a cell key (`"KMN|FCFS|baseline"`) and every
//! field of its [`RunResult`]. `f64` fields are stored as their IEEE-754
//! bit patterns (`f64::to_bits`) so a resumed result is **bit-identical**
//! to the original run — decimal text would round.
//!
//! A torn final line (the process died mid-write) fails to parse and is
//! simply skipped; every earlier line is intact because records are
//! flushed whole.
//!
//! Everything here is hand-rolled over `std` — the repo builds offline
//! with zero third-party dependencies, so no serde. Lines are read with
//! `crate::json`, whose integral literals are exact `u64`s.

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use ptw_core::sched::SchedulerKind;
use ptw_core::IommuStats;
use ptw_mem::controller::MemStats;
use ptw_types::stats::BucketHistogram;
use ptw_workloads::{BenchmarkId, Scale};

use crate::json::Value;
use crate::metrics::RunMetrics;
use crate::runner::ConfigVariant;
use crate::system::RunResult;

/// Checkpoint format version (bump on any encoding change).
///
/// v2 added the topology fields: per-IOMMU walk counts, the imbalance
/// ratio, the per-page-size IOMMU counters, and GPU large-page TLB hits.
/// v3 added the DRAM occupancy counters: peak/time-weighted queue depth
/// and busy-bank occupancy plus the observed-cycle integral base.
const VERSION: u64 = 3;

/// One sweep cell's identity.
pub type CellKey = (BenchmarkId, SchedulerKind, ConfigVariant);

/// An append-only JSONL store of completed [`RunResult`]s.
#[derive(Debug)]
pub struct SweepCheckpoint {
    path: PathBuf,
    file: File,
}

impl SweepCheckpoint {
    /// Opens (creating if necessary) the checkpoint at `path` for runs at
    /// `(scale, seed)`, returning previously persisted results.
    ///
    /// A missing file is created with a fresh header. A file whose header
    /// names a different version, scale or seed is truncated — its results
    /// are not reusable. Malformed record lines (e.g. a torn final write)
    /// are skipped.
    pub fn open(
        path: impl Into<PathBuf>,
        scale: Scale,
        seed: u64,
    ) -> io::Result<(Self, Vec<(CellKey, RunResult)>)> {
        let path = path.into();
        let mut loaded = Vec::new();
        let mut keep = false;
        if let Ok(content) = std::fs::read_to_string(&path) {
            let mut lines = content.lines();
            if lines.next().is_some_and(|h| header_matches(h, scale, seed)) {
                keep = true;
                for line in lines {
                    if let Some(entry) = decode_record(line) {
                        loaded.push(entry);
                    }
                }
            }
        }
        let file = if keep {
            OpenOptions::new().append(true).open(&path)?
        } else {
            loaded.clear();
            let mut f = File::create(&path)?;
            writeln!(
                f,
                "{{\"v\":{VERSION},\"scale\":\"{}\",\"seed\":{seed}}}",
                scale.label()
            )?;
            f.flush()?;
            f
        };
        Ok((SweepCheckpoint { path, file }, loaded))
    }

    /// The file this checkpoint persists to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one completed cell, flushed **and fsynced** before
    /// returning: once this call returns, the record survives not just a
    /// process crash but a host power loss. A crash mid-append can lose at
    /// most the in-flight line, which the torn-line skip in
    /// [`open`](Self::open) tolerates.
    pub fn append(&mut self, key: CellKey, result: &RunResult) -> io::Result<()> {
        let line = encode_record(key, result);
        writeln!(self.file, "{line}")?;
        self.file.flush()?;
        self.file.sync_data()
    }
}

fn header_matches(line: &str, scale: Scale, seed: u64) -> bool {
    let Some(fields) = parse_flat_json(line) else {
        return false;
    };
    fields.get("v").and_then(Value::as_u64) == Some(VERSION)
        && fields.get("scale").and_then(Value::as_str) == Some(scale.label())
        && fields.get("seed").and_then(Value::as_u64) == Some(seed)
}

/// Serializes `key` for the record line: `"KMN|FCFS|baseline"`.
fn encode_key(key: CellKey) -> String {
    format!("{}|{}|{}", key.0.abbrev(), key.1.label(), key.2.key())
}

fn decode_key(s: &str) -> Option<CellKey> {
    let mut parts = s.split('|');
    let benchmark = BenchmarkId::parse(parts.next()?)?;
    let scheduler = SchedulerKind::parse(parts.next()?)?;
    let variant = ConfigVariant::parse(parts.next()?)?;
    if parts.next().is_some() {
        return None;
    }
    Some((benchmark, scheduler, variant))
}

fn encode_record(key: CellKey, r: &RunResult) -> String {
    format!(
        "{{\"key\":\"{}\",{}}}",
        encode_key(key),
        encode_result_fields(r)
    )
}

/// Serializes every field of a [`RunResult`] as the comma-joined members
/// of a flat JSON object (no surrounding braces). Shared between the
/// checkpoint record line and the worker wire protocol
/// (`crate::wire`), so both persist results bit-identically.
pub(crate) fn encode_result_fields(r: &RunResult) -> String {
    let m = &r.metrics;
    let io = &r.iommu;
    let mem = &r.mem;
    let arr = |xs: &[u64]| -> String {
        let items: Vec<String> = xs.iter().map(u64::to_string).collect();
        format!("[{}]", items.join(","))
    };
    format!(
        concat!(
            "\"cycles\":{cycles},\"instructions\":{instructions},",
            "\"cu_stall_cycles\":{cu_stall},\"walk_requests\":{walk_reqs},",
            "\"walks_performed\":{walks},",
            "\"hist_edges\":{edges},\"hist_counts\":{counts},",
            "\"hist_overflow\":{overflow},\"hist_total\":{total},",
            "\"interleaved_bits\":{interleaved},\"first_bits\":{first},",
            "\"last_bits\":{last},\"gap_bits\":{gap},\"epoch_wf_bits\":{epoch},",
            "\"l2_tlb_accesses\":{l2acc},\"instructions_with_walks\":{iww},",
            "\"multi_walk_instructions\":{mwi},",
            "\"io_walk_requests\":{io_wr},\"io_walks_performed\":{io_wp},",
            "\"io_merged\":{io_m},\"io_accesses\":{io_a},",
            "\"io_peak_pending\":{io_pp},\"io_latency\":{io_l},",
            "\"io_completed\":{io_c},",
            "\"io_large_walks\":{io_lw},\"io_large_completed\":{io_lc},",
            "\"io_large_latency\":{io_ll},",
            "\"per_iommu_walks\":{per_io},\"imbalance_bits\":{imb},",
            "\"gpu_large_hits\":{glh},",
            "\"mem_data\":{mem_d},\"mem_walk\":{mem_w},",
            "\"mem_row_hits\":{mem_rh},\"mem_row_conflicts\":{mem_rc},",
            "\"mem_latency\":{mem_l},\"mem_completed\":{mem_c},",
            "\"mem_peak_depth\":{mem_pd},\"mem_peak_banks\":{mem_pb},",
            "\"mem_depth_cycles\":{mem_dc},\"mem_bank_cycles\":{mem_bc},",
            "\"mem_obs_cycles\":{mem_oc},",
            "\"l1_tlb_bits\":{l1t},\"l2_tlb_bits\":{l2t},",
            "\"l1_cache_bits\":{l1c},\"l2_cache_bits\":{l2c},",
            "\"events\":{events},\"spread_bits\":{spread}"
        ),
        cycles = m.cycles,
        instructions = m.instructions,
        cu_stall = m.cu_stall_cycles,
        walk_reqs = m.walk_requests,
        walks = m.walks_performed,
        edges = arr(m.work_hist.edges()),
        counts = arr(m.work_hist.counts()),
        overflow = m.work_hist.overflow(),
        total = m.work_hist.total(),
        interleaved = m.interleaved_fraction.to_bits(),
        first = m.mean_first_latency.to_bits(),
        last = m.mean_last_latency.to_bits(),
        gap = m.mean_latency_gap.to_bits(),
        epoch = m.mean_epoch_wavefronts.to_bits(),
        l2acc = m.l2_tlb_accesses,
        iww = m.instructions_with_walks,
        mwi = m.multi_walk_instructions,
        io_wr = io.walk_requests,
        io_wp = io.walks_performed,
        io_m = io.merged_completions,
        io_a = io.total_walk_accesses,
        io_pp = io.peak_pending,
        io_l = io.total_walk_latency,
        io_c = io.completed_requests,
        io_lw = io.large_walks_performed,
        io_lc = io.large_completed_requests,
        io_ll = io.large_total_walk_latency,
        per_io = arr(&r.per_iommu_walks),
        imb = r.iommu_imbalance.to_bits(),
        glh = r.gpu_tlb_large_hits,
        mem_d = mem.data_requests,
        mem_w = mem.walk_requests,
        mem_rh = mem.row_hits,
        mem_rc = mem.row_conflicts,
        mem_l = mem.total_latency,
        mem_c = mem.completed,
        mem_pd = mem.peak_queue_depth,
        mem_pb = mem.peak_busy_banks,
        mem_dc = mem.queue_depth_cycles,
        mem_bc = mem.busy_bank_cycles,
        mem_oc = mem.observed_cycles,
        l1t = r.gpu_l1_tlb_hit_rate.to_bits(),
        l2t = r.gpu_l2_tlb_hit_rate.to_bits(),
        l1c = r.l1_cache_hit_rate.to_bits(),
        l2c = r.l2_cache_hit_rate.to_bits(),
        events = r.events,
        spread = r.finish_spread.to_bits(),
    )
}

fn decode_record(line: &str) -> Option<(CellKey, RunResult)> {
    let fields = parse_flat_json(line)?;
    let key = decode_key(fields.get("key")?.as_str()?)?;
    Some((key, decode_result_fields(&fields)?))
}

/// Reconstructs a [`RunResult`] from the flat fields written by
/// [`encode_result_fields`]; the inverse half of the shared codec.
pub(crate) fn decode_result_fields(fields: &Value) -> Option<RunResult> {
    let u = |name: &str| -> Option<u64> { fields.get(name)?.as_u64() };
    let f = |name: &str| -> Option<f64> { Some(f64::from_bits(fields.get(name)?.as_u64()?)) };
    let a = |name: &str| -> Option<Vec<u64>> { u64s(fields.get(name)?) };
    let work_hist = BucketHistogram::from_parts(
        a("hist_edges")?,
        a("hist_counts")?,
        u("hist_overflow")?,
        u("hist_total")?,
    )?;
    let metrics = RunMetrics {
        cycles: u("cycles")?,
        instructions: u("instructions")?,
        cu_stall_cycles: u("cu_stall_cycles")?,
        walk_requests: u("walk_requests")?,
        walks_performed: u("walks_performed")?,
        work_hist,
        interleaved_fraction: f("interleaved_bits")?,
        mean_first_latency: f("first_bits")?,
        mean_last_latency: f("last_bits")?,
        mean_latency_gap: f("gap_bits")?,
        mean_epoch_wavefronts: f("epoch_wf_bits")?,
        l2_tlb_accesses: u("l2_tlb_accesses")?,
        instructions_with_walks: u("instructions_with_walks")?,
        multi_walk_instructions: u("multi_walk_instructions")?,
    };
    let iommu = IommuStats {
        walk_requests: u("io_walk_requests")?,
        walks_performed: u("io_walks_performed")?,
        merged_completions: u("io_merged")?,
        total_walk_accesses: u("io_accesses")?,
        peak_pending: usize::try_from(u("io_peak_pending")?).ok()?,
        total_walk_latency: u("io_latency")?,
        completed_requests: u("io_completed")?,
        large_walks_performed: u("io_large_walks")?,
        large_completed_requests: u("io_large_completed")?,
        large_total_walk_latency: u("io_large_latency")?,
    };
    let mem = MemStats {
        data_requests: u("mem_data")?,
        walk_requests: u("mem_walk")?,
        row_hits: u("mem_row_hits")?,
        row_conflicts: u("mem_row_conflicts")?,
        total_latency: u("mem_latency")?,
        completed: u("mem_completed")?,
        peak_queue_depth: u("mem_peak_depth")?,
        peak_busy_banks: u("mem_peak_banks")?,
        queue_depth_cycles: u("mem_depth_cycles")?,
        busy_bank_cycles: u("mem_bank_cycles")?,
        observed_cycles: u("mem_obs_cycles")?,
    };
    Some(RunResult {
        metrics,
        iommu,
        per_iommu_walks: a("per_iommu_walks")?,
        iommu_imbalance: f("imbalance_bits")?,
        gpu_tlb_large_hits: u("gpu_large_hits")?,
        mem,
        gpu_l1_tlb_hit_rate: f("l1_tlb_bits")?,
        gpu_l2_tlb_hit_rate: f("l2_tlb_bits")?,
        l1_cache_hit_rate: f("l1_cache_bits")?,
        l2_cache_hit_rate: f("l2_cache_bits")?,
        events: u("events")?,
        finish_spread: f("spread_bits")?,
    })
}

/// Parses one checkpoint or wire line: a JSON object whose members are
/// all unsigned integers, strings, or arrays of unsigned integers.
/// Integers decode as exact `u64`s, so `f64::to_bits` patterns survive.
/// Returns `None` on any deviation — a malformed line is skipped, not
/// guessed at.
pub(crate) fn parse_flat_json(line: &str) -> Option<Value> {
    let flat = |v: &Value| match v {
        Value::U64(_) | Value::Str(_) => true,
        Value::Arr(xs) => xs.iter().all(|x| matches!(x, Value::U64(_))),
        _ => false,
    };
    match Value::parse(line)? {
        Value::Obj(members) if members.iter().all(|(_, v)| flat(v)) => Some(Value::Obj(members)),
        _ => None,
    }
}

/// The elements of a flat `u64` array member.
pub(crate) fn u64s(v: &Value) -> Option<Vec<u64>> {
    v.as_arr()?.iter().map(Value::as_u64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptw_types::rng::SplitMix64;

    fn synthetic_result(rng: &mut SplitMix64) -> RunResult {
        let mut hist = BucketHistogram::new(&crate::metrics::WORK_BUCKETS);
        for _ in 0..10 {
            hist.add(1 + rng.next_below(300));
        }
        RunResult {
            metrics: RunMetrics {
                cycles: rng.next_u64() >> 32,
                instructions: rng.next_below(1 << 20),
                cu_stall_cycles: rng.next_u64() >> 40,
                walk_requests: rng.next_below(1 << 16),
                walks_performed: rng.next_below(1 << 16),
                work_hist: hist,
                interleaved_fraction: rng.next_f64(),
                mean_first_latency: rng.next_f64() * 1e4,
                mean_last_latency: rng.next_f64() * 1e5,
                mean_latency_gap: rng.next_f64() * 1e3,
                mean_epoch_wavefronts: rng.next_f64() * 64.0,
                l2_tlb_accesses: rng.next_below(1 << 24),
                instructions_with_walks: rng.next_below(1 << 12),
                multi_walk_instructions: rng.next_below(1 << 12),
            },
            iommu: IommuStats {
                walk_requests: rng.next_below(1 << 16),
                walks_performed: rng.next_below(1 << 16),
                merged_completions: rng.next_below(1 << 10),
                total_walk_accesses: rng.next_below(1 << 18),
                peak_pending: rng.index(500),
                total_walk_latency: rng.next_u64() >> 32,
                completed_requests: rng.next_below(1 << 16),
                large_walks_performed: rng.next_below(1 << 12),
                large_completed_requests: rng.next_below(1 << 12),
                large_total_walk_latency: rng.next_u64() >> 40,
            },
            mem: MemStats {
                data_requests: rng.next_below(1 << 24),
                walk_requests: rng.next_below(1 << 20),
                row_hits: rng.next_below(1 << 22),
                row_conflicts: rng.next_below(1 << 22),
                total_latency: rng.next_u64() >> 24,
                completed: rng.next_below(1 << 24),
                peak_queue_depth: rng.next_below(1 << 10),
                peak_busy_banks: rng.next_below(64),
                queue_depth_cycles: rng.next_u64() >> 20,
                busy_bank_cycles: rng.next_u64() >> 24,
                observed_cycles: rng.next_u64() >> 32,
            },
            per_iommu_walks: vec![rng.next_below(1 << 14), rng.next_below(1 << 14)],
            iommu_imbalance: 1.0 + rng.next_f64(),
            gpu_tlb_large_hits: rng.next_below(1 << 18),
            gpu_l1_tlb_hit_rate: rng.next_f64(),
            gpu_l2_tlb_hit_rate: rng.next_f64(),
            l1_cache_hit_rate: rng.next_f64(),
            l2_cache_hit_rate: rng.next_f64(),
            events: rng.next_u64() >> 16,
            finish_spread: 1.0 + rng.next_f64(),
        }
    }

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ptw-checkpoint-{tag}-{}.jsonl", std::process::id()))
    }

    #[test]
    fn record_roundtrip_is_bit_identical() {
        let mut rng = SplitMix64::new(0xDECAF);
        for kind in [SchedulerKind::Fcfs, SchedulerKind::SimtAware] {
            let key = (BenchmarkId::Kmn, kind, ConfigVariant::Baseline);
            let result = synthetic_result(&mut rng);
            let line = encode_record(key, &result);
            let (k2, r2) = decode_record(&line).expect("roundtrip parse");
            assert_eq!(k2, key);
            assert_eq!(r2, result, "RunResult must round-trip exactly");
        }
    }

    #[test]
    fn open_append_reload() {
        let path = temp_path("reload");
        let _ = std::fs::remove_file(&path);
        let mut rng = SplitMix64::new(7);
        let result = synthetic_result(&mut rng);
        let key = (
            BenchmarkId::Mvt,
            SchedulerKind::SimtAware,
            ConfigVariant::BigTlb,
        );
        {
            let (mut cp, loaded) = SweepCheckpoint::open(&path, Scale::Small, 42).expect("create");
            assert!(loaded.is_empty());
            cp.append(key, &result).expect("append");
        }
        let (_cp, loaded) = SweepCheckpoint::open(&path, Scale::Small, 42).expect("reopen");
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].0, key);
        assert_eq!(loaded[0].1, result);
        // A different (scale, seed) discards the stale contents.
        let (_cp, loaded) = SweepCheckpoint::open(&path, Scale::Small, 43).expect("mismatch");
        assert!(loaded.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_final_line_is_skipped() {
        let path = temp_path("torn");
        let _ = std::fs::remove_file(&path);
        let mut rng = SplitMix64::new(9);
        let result = synthetic_result(&mut rng);
        let key = (
            BenchmarkId::Atx,
            SchedulerKind::Fcfs,
            ConfigVariant::Baseline,
        );
        {
            let (mut cp, _) = SweepCheckpoint::open(&path, Scale::Small, 1).expect("create");
            cp.append(key, &result).expect("append");
        }
        // Simulate a crash mid-write: a truncated record line.
        let mut content = std::fs::read_to_string(&path).expect("read");
        content.push_str("{\"key\":\"KMN|FCFS|base");
        std::fs::write(&path, content).expect("write");
        let (_cp, loaded) = SweepCheckpoint::open(&path, Scale::Small, 1).expect("reopen");
        assert_eq!(loaded.len(), 1, "intact record kept, torn record dropped");
        assert_eq!(loaded[0].0, key);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn v1_header_is_truncated_and_rerun() {
        // Pins the current codec behavior: a file written by the v1 codec
        // (no topology fields) must be discarded wholesale under --resume,
        // not mis-decoded record by record.
        let path = temp_path("v1-header");
        let _ = std::fs::remove_file(&path);
        let mut rng = SplitMix64::new(11);
        let result = synthetic_result(&mut rng);
        let key = (
            BenchmarkId::Kmn,
            SchedulerKind::SimtAware,
            ConfigVariant::Baseline,
        );
        let v1_line = {
            // A v1-era record: same key, no per-IOMMU fields. Even if it
            // decoded, its values must never be trusted under v2.
            let full = encode_record(key, &result);
            full.replace(",\"per_iommu_walks\":", ",\"v1_walks\":")
        };
        std::fs::write(
            &path,
            format!("{{\"v\":1,\"scale\":\"small\",\"seed\":5}}\n{v1_line}\n"),
        )
        .expect("write v1 file");
        let (mut cp, loaded) = SweepCheckpoint::open(&path, Scale::Small, 5).expect("reopen");
        assert!(loaded.is_empty(), "v1 contents discarded, not decoded");
        // The file was truncated and re-headered: a v2 append then reloads.
        cp.append(key, &result).expect("append after truncate");
        drop(cp);
        let (_cp, loaded) = SweepCheckpoint::open(&path, Scale::Small, 5).expect("reload");
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].1, result);
        let content = std::fs::read_to_string(&path).expect("read");
        assert!(
            content.starts_with("{\"v\":3,"),
            "header rewritten to the current version: {content:?}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn strings_with_escapes_round_trip() {
        let message = "walk stalled\n\tpending=3 \"deadlock\" a\\b µ\u{1}";
        let line = format!(
            "{{\"err\":\"{}\",\"events\":7}}",
            crate::json::escape(message)
        );
        let fields = parse_flat_json(&line).expect("parse");
        assert_eq!(
            fields.get("err").and_then(Value::as_str),
            Some(message),
            "escaped string round-trips through the checkpoint parser"
        );
        assert_eq!(fields.get("events").and_then(Value::as_u64), Some(7));
    }

    #[test]
    fn malformed_lines_never_parse() {
        for line in [
            "",
            "{",
            "{}extra",
            "{\"a\":}",
            "{\"a\":-1}",
            "{\"a\":1.5}",
            "{\"a\":[1,]}",
            "not json at all",
        ] {
            assert!(parse_flat_json(line).is_none(), "{line:?}");
            assert!(decode_record(line).is_none(), "{line:?}");
        }
        // A valid record with one member outside the flat subset (the only
        // shapes the checkpoint writes) is rejected whole.
        let key = (
            BenchmarkId::Kmn,
            SchedulerKind::Fcfs,
            ConfigVariant::Baseline,
        );
        let line = encode_record(key, &synthetic_result(&mut SplitMix64::new(3)));
        assert!(decode_record(&line).is_some());
        let open = line.strip_suffix('}').expect("an object");
        for extra in [
            "true", "null", "-1", "1.5", "1e3", "+1", "{}", "[\"a\"]", "[-1]",
        ] {
            let bad = format!("{open},\"x\":{extra}}}");
            assert!(decode_record(&bad).is_none(), "{bad}");
        }
    }

    #[test]
    fn extreme_bit_patterns_round_trip() {
        let mut result = synthetic_result(&mut SplitMix64::new(5));
        result.metrics.interleaved_fraction = f64::NAN;
        result.metrics.mean_first_latency = -0.0;
        result.metrics.mean_last_latency = f64::from_bits(1);
        result.finish_spread = f64::from_bits(u64::MAX);
        result.events = u64::MAX;
        let key = (
            BenchmarkId::Xsb,
            SchedulerKind::Fcfs,
            ConfigVariant::Baseline,
        );
        let (_, back) = decode_record(&encode_record(key, &result)).expect("roundtrip parse");
        let bits = |r: &RunResult| {
            let m = &r.metrics;
            [
                m.interleaved_fraction.to_bits(),
                m.mean_first_latency.to_bits(),
                m.mean_last_latency.to_bits(),
                r.finish_spread.to_bits(),
                r.events,
            ]
        };
        assert_eq!(bits(&back), bits(&result));
    }
}
