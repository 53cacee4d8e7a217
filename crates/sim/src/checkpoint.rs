//! Crash-safe persistence of completed sweep results.
//!
//! A paper-scale figures sweep is hours of simulation; a crash (or an
//! injected fault) must not forfeit the finished cells. [`SweepCheckpoint`]
//! appends one JSON line per completed `(benchmark, scheduler, variant)`
//! run to a file, flushed per record, so a rerun of `figures --resume`
//! reloads every finished cell and re-executes only what is missing.
//!
//! # Format (v4)
//!
//! Line 1 is a header binding the file to a `(version, scale, seed)`
//! triple; a mismatched header discards the stale content (results from a
//! different scale or seed are not reusable). Every further line is one
//! flat line (`crate::flat`) holding a cell key (`"KMN|FCFS|baseline"`),
//! the digest of the cell's spec, and every field of its [`RunResult`]
//! under its field path (`metrics.cycles`, `mem.row_hits`, …). `f64`
//! fields are stored as their IEEE-754 bit patterns, so a resumed result
//! is **bit-identical** to the original run.
//!
//! The spec digest is the FNV-1a hash of the `crate::wire` encoding of the
//! cell's [`RunSpec`](crate::RunSpec) without any injected fault. A record
//! whose digest differs from the current spec of its key was produced by
//! another configuration; it is skipped and its cell re-runs.
//!
//! A torn final line (the process died mid-write) has no `\n`; it is
//! skipped and cut off before the next append, so that append starts a
//! line of its own. Every earlier line is intact because records are
//! flushed whole.

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use ptw_core::sched::SchedulerKind;
use ptw_workloads::{BenchmarkId, Scale};

use crate::flat::{self, parse_flat_json, Flat};
use crate::json::Value;
use crate::runner::{cell_spec, ConfigVariant};
use crate::system::RunResult;

/// Checkpoint format version (bump on any encoding change).
///
/// v2 added the topology fields, v3 the DRAM occupancy counters. v4 keys
/// every field by its path from the one schema in `crate::flat` and binds
/// each record to its cell's spec digest.
const VERSION: u64 = 4;

/// One sweep cell's identity.
pub type CellKey = (BenchmarkId, SchedulerKind, ConfigVariant);

/// An append-only JSONL store of completed [`RunResult`]s.
#[derive(Debug)]
pub struct SweepCheckpoint {
    path: PathBuf,
    file: File,
    scale: Scale,
    seed: u64,
}

impl SweepCheckpoint {
    /// Opens (creating if necessary) the checkpoint at `path` for runs at
    /// `(scale, seed)`, returning previously persisted results.
    ///
    /// A missing file is created with a fresh header. A file whose header
    /// names a different version, scale or seed is truncated — its results
    /// are not reusable. Malformed record lines and records bound to
    /// another spec are skipped; a torn final line is cut off.
    pub fn open(
        path: impl Into<PathBuf>,
        scale: Scale,
        seed: u64,
    ) -> io::Result<(Self, Vec<(CellKey, RunResult)>)> {
        let path = path.into();
        let mut loaded = Vec::new();
        let mut kept = None;
        if let Ok(content) = std::fs::read_to_string(&path) {
            // Only whole lines count: a torn tail without `\n` is dropped.
            let whole = &content[..content.rfind('\n').map_or(0, |i| i + 1)];
            let mut lines = whole.lines();
            if lines.next().is_some_and(|h| header_matches(h, scale, seed)) {
                kept = Some(whole.len() as u64);
                loaded.extend(lines.filter_map(|line| {
                    let (key, digest, result) = decode_record(line)?;
                    (digest == spec_digest(key, scale, seed)).then_some((key, result))
                }));
            }
        }
        let file = if let Some(len) = kept {
            let f = OpenOptions::new().append(true).open(&path)?;
            f.set_len(len)?;
            f
        } else {
            let mut f = File::create(&path)?;
            writeln!(
                f,
                "{{\"v\":{VERSION},\"scale\":\"{}\",\"seed\":{seed}}}",
                scale.label()
            )?;
            f.flush()?;
            f
        };
        let checkpoint = SweepCheckpoint {
            path,
            file,
            scale,
            seed,
        };
        Ok((checkpoint, loaded))
    }

    /// The file this checkpoint persists to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one completed cell, flushed **and fsynced** before
    /// returning: once this call returns, the record survives not just a
    /// process crash but a host power loss. A crash mid-append can lose at
    /// most the in-flight line, which [`open`](Self::open) cuts off.
    pub fn append(&mut self, key: CellKey, result: &RunResult) -> io::Result<()> {
        let line = encode_record(key, spec_digest(key, self.scale, self.seed), result);
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

/// FNV-1a of the wire encoding of `key`'s spec at `(scale, seed)`.
fn spec_digest(key: CellKey, scale: Scale, seed: u64) -> u64 {
    let line = crate::wire::encode_spec(&cell_spec(key, scale, seed));
    line.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
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

fn encode_record(key: CellKey, digest: u64, r: &RunResult) -> String {
    let head = format!("\"key\":\"{}\",\"spec\":{digest},", encode_key(key));
    flat::line(&head, r)
}

fn decode_record(line: &str) -> Option<(CellKey, u64, RunResult)> {
    let fields = parse_flat_json(line)?;
    let key = decode_key(fields.get("key")?.as_str()?)?;
    let digest = fields.get("spec")?.as_u64()?;
    Some((key, digest, RunResult::take(&fields, "")?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::RunMetrics;
    use ptw_core::IommuStats;
    use ptw_mem::controller::MemStats;
    use ptw_types::rng::SplitMix64;
    use ptw_types::stats::BucketHistogram;

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
            let line = encode_record(key, 7, &result);
            let (k2, digest, r2) = decode_record(&line).expect("roundtrip parse");
            assert_eq!((k2, digest), (key, 7));
            assert_eq!(r2, result, "RunResult must round-trip exactly");
        }
    }

    #[test]
    fn every_record_member_is_needed_and_read_back() {
        let key = (BenchmarkId::Nw, SchedulerKind::Fcfs, ConfigVariant::MemFcfs);
        let line = encode_record(key, 7, &synthetic_result(&mut SplitMix64::new(17)));
        flat::assert_every_member_is_needed(&line, decode_record);
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
    fn record_appended_after_a_torn_tail_survives() {
        let path = temp_path("torn-append");
        let _ = std::fs::remove_file(&path);
        let mut rng = SplitMix64::new(13);
        let a = (
            BenchmarkId::Atx,
            SchedulerKind::Fcfs,
            ConfigVariant::Baseline,
        );
        let b = (
            BenchmarkId::Nw,
            SchedulerKind::SimtAware,
            ConfigVariant::BigTlb,
        );
        let (ra, rb) = (synthetic_result(&mut rng), synthetic_result(&mut rng));
        {
            let (mut cp, _) = SweepCheckpoint::open(&path, Scale::Small, 1).expect("create");
            cp.append(a, &ra).expect("append A");
        }
        let mut content = std::fs::read_to_string(&path).expect("read");
        content.push_str("{\"key\":\"KMN|FCFS|base");
        std::fs::write(&path, content).expect("tear the tail");
        {
            let (mut cp, loaded) = SweepCheckpoint::open(&path, Scale::Small, 1).expect("reopen");
            assert_eq!(loaded.len(), 1);
            cp.append(b, &rb).expect("append B");
        }
        let (_cp, loaded) = SweepCheckpoint::open(&path, Scale::Small, 1).expect("reload");
        assert_eq!(loaded, vec![(a, ra), (b, rb)], "B starts a line of its own");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn record_bound_to_another_spec_is_not_loaded() {
        let path = temp_path("spec-bound");
        let _ = std::fs::remove_file(&path);
        let mut rng = SplitMix64::new(15);
        let keys = [
            (
                BenchmarkId::Mvt,
                SchedulerKind::Fcfs,
                ConfigVariant::Baseline,
            ),
            (
                BenchmarkId::Mvt,
                SchedulerKind::SimtAware,
                ConfigVariant::Baseline,
            ),
            (
                BenchmarkId::Gev,
                SchedulerKind::Fcfs,
                ConfigVariant::NoPinning,
            ),
        ];
        let results: Vec<RunResult> = keys.iter().map(|_| synthetic_result(&mut rng)).collect();
        {
            let (mut cp, _) = SweepCheckpoint::open(&path, Scale::Small, 3).expect("create");
            for (&key, result) in keys.iter().zip(&results) {
                cp.append(key, result).expect("append");
            }
        }
        // Alter the digest of the second record only.
        let content = std::fs::read_to_string(&path).expect("read");
        let mut lines: Vec<String> = content.lines().map(str::to_owned).collect();
        let digest = spec_digest(keys[1], Scale::Small, 3);
        let member = format!("\"spec\":{digest},");
        assert!(lines[2].contains(&member), "{}", lines[2]);
        lines[2] = lines[2].replace(&member, &format!("\"spec\":{},", digest ^ 1));
        std::fs::write(&path, lines.join("\n") + "\n").expect("write");
        let (_cp, loaded) = SweepCheckpoint::open(&path, Scale::Small, 3).expect("reopen");
        let expected = vec![(keys[0], results[0].clone()), (keys[2], results[2].clone())];
        assert_eq!(
            loaded, expected,
            "the altered record re-runs, the others load"
        );
        // The digest tells keys and seeds apart.
        assert_ne!(spec_digest(keys[0], Scale::Small, 3), digest);
        assert_ne!(spec_digest(keys[1], Scale::Small, 4), digest);
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
            let full = encode_record(key, spec_digest(key, Scale::Small, 5), &result);
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
            content.starts_with("{\"v\":4,"),
            "header rewritten to the current version: {content:?}"
        );

        // A v3 file (flat `cycles`, `io_*`, `mem_*` keys, no spec digest)
        // is discarded the same way.
        const V3_RECORD: &str = concat!(
            "{\"key\":\"MVT|FCFS|baseline\",\"cycles\":510596,\"instructions\":960,",
            "\"cu_stall_cycles\":3776459,\"walk_requests\":10382,\"walks_performed\":10356,",
            "\"hist_edges\":[16,32,48,64,80,256],\"hist_counts\":[409,151,51,18,16,0],",
            "\"hist_overflow\":0,\"hist_total\":645,\"interleaved_bits\":4604029899060858061,",
            "\"first_bits\":4661921383250387369,\"last_bits\":4663813954290084401,",
            "\"gap_bits\":4656717250150705835,\"epoch_wf_bits\":4623197374371485767,",
            "\"l2_tlb_accesses\":30391,\"instructions_with_walks\":645,",
            "\"multi_walk_instructions\":540,\"io_walk_requests\":10382,",
            "\"io_walks_performed\":10356,\"io_merged\":26,\"io_accesses\":10389,",
            "\"io_peak_pending\":897,\"io_latency\":61610186,\"io_completed\":10382,",
            "\"io_large_walks\":0,\"io_large_completed\":0,\"io_large_latency\":0,",
            "\"per_iommu_walks\":[10356],\"imbalance_bits\":4607182418800017408,",
            "\"gpu_large_hits\":0,\"mem_data\":7809,\"mem_walk\":10389,\"mem_row_hits\":7617,",
            "\"mem_row_conflicts\":10581,\"mem_latency\":119555326,\"mem_completed\":18198,",
            "\"mem_peak_depth\":991,\"mem_peak_banks\":29,\"mem_depth_cycles\":118150222,",
            "\"mem_bank_cycles\":999345,\"mem_obs_cycles\":510556,",
            "\"l1_tlb_bits\":4599041072356118803,\"l2_tlb_bits\":4603528384394709860,",
            "\"l1_cache_bits\":0,\"l2_cache_bits\":4605629734447554884,\"events\":208141,",
            "\"spread_bits\":4607684915406009883}",
        );
        let v3_file = format!("{{\"v\":3,\"scale\":\"small\",\"seed\":12648430}}\n{V3_RECORD}\n");
        std::fs::write(&path, v3_file).expect("write v3 file");
        let (_cp, loaded) = SweepCheckpoint::open(&path, Scale::Small, 12_648_430).expect("v3");
        assert!(loaded.is_empty(), "v3 contents discarded, not decoded");
        let content = std::fs::read_to_string(&path).expect("read");
        assert_eq!(content, "{\"v\":4,\"scale\":\"small\",\"seed\":12648430}\n");
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
        let line = encode_record(key, 1, &synthetic_result(&mut SplitMix64::new(3)));
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
        let (_, _, back) = decode_record(&encode_record(key, 1, &result)).expect("roundtrip parse");
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
