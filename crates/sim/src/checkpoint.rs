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
//! Line 1 is a header binding the file to a `(model, scale, seed)` triple.
//! `model` is the FNV-1a digest of the committed run-metrics golden
//! (`tests/golden/run_metrics.txt`), so a re-bless of the golden resets
//! every checkpoint written before it: a file whose header names another
//! model, or the retired `"v"` format of earlier versions, is truncated
//! and its cells re-run. The digest covers only the cells that golden
//! pins, so a model change must move a golden value to reach old
//! checkpoints, which the re-bless rule requires anyway. A file that is
//! not a checkpoint, or a checkpoint of another scale or seed, is refused
//! and left as it is.
//!
//! Every further line is one flat line (`crate::flat`) holding a cell key
//! (`"KMN|FCFS|baseline"`), the digest of the cell's spec, and every field
//! of its [`RunResult`] under its field path (`metrics.cycles`,
//! `mem.row_hits`, …). `f64` fields are stored as their IEEE-754 bit
//! patterns, so a resumed result is **bit-identical** to the original run.
//! A record whose framing no longer decodes is skipped and its cell
//! re-runs, so a framing change needs no version number either.
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

/// The committed run-metrics golden; its digest names the model a
/// checkpoint's records come from.
const GOLDEN: &[u8] = include_bytes!("../../../tests/golden/run_metrics.txt");
const MODEL: u64 = fnv1a(GOLDEN);

/// The 64-bit FNV-1a hash of `bytes`.
const fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    let mut i = 0;
    while i < bytes.len() {
        hash = (hash ^ bytes[i] as u64).wrapping_mul(0x0100_0000_01b3);
        i += 1;
    }
    hash
}

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
    /// A missing or empty file gets a fresh header, and so does a file
    /// whose header names another model: its results are stale. A
    /// non-empty file that is not a checkpoint, or a checkpoint of another
    /// scale or seed, is refused with [`io::ErrorKind::InvalidData`] and
    /// left untouched. Malformed record lines and records bound to another
    /// spec are skipped; a torn final line is cut off.
    pub fn open(
        path: impl Into<PathBuf>,
        scale: Scale,
        seed: u64,
    ) -> io::Result<(Self, Vec<(CellKey, RunResult)>)> {
        let path = path.into();
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        // Only whole lines count: a torn tail without `\n` is dropped.
        let whole = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        let resume = if bytes.is_empty() {
            false
        } else {
            let header = bytes.split(|&b| b == b'\n').next().unwrap_or_default();
            header_is_current(&path, &String::from_utf8_lossy(header), scale, seed)? && whole > 0
        };
        let mut loaded = Vec::new();
        let file = if resume {
            let lines = String::from_utf8_lossy(&bytes[..whole]);
            loaded.extend(lines.lines().skip(1).filter_map(|line| {
                let (key, digest, result) = decode_record(line)?;
                (digest == spec_digest(key, scale, seed)).then_some((key, result))
            }));
            let f = OpenOptions::new().append(true).open(&path)?;
            f.set_len(whole as u64)?;
            f
        } else {
            let mut f = File::create(&path)?;
            writeln!(f, "{}", header(scale, seed))?;
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

/// The header line of a checkpoint of this model at `(scale, seed)`.
fn header(scale: Scale, seed: u64) -> String {
    format!(
        "{{\"model\":{MODEL},\"scale\":\"{}\",\"seed\":{seed}}}",
        scale.label()
    )
}

/// Reads the first line of a non-empty file: `Ok(true)` for a checkpoint
/// of this model at `(scale, seed)`, `Ok(false)` for one of another model
/// or in the retired `"v"` format, which is reset. Anything else is
/// refused with [`io::ErrorKind::InvalidData`].
fn header_is_current(path: &Path, line: &str, scale: Scale, seed: u64) -> io::Result<bool> {
    let fields = parse_flat_json(line).unwrap_or(Value::Null);
    let model = fields.get("model").and_then(Value::as_u64);
    let stamped = model.is_some() || fields.get("v").and_then(Value::as_u64).is_some();
    let file_scale = fields.get("scale").and_then(Value::as_str);
    let file_seed = fields.get("seed").and_then(Value::as_u64);
    let why = match (stamped, file_scale, file_seed) {
        (true, Some(s), Some(d)) if (s, d) == (scale.label(), seed) => {
            return Ok(model == Some(MODEL))
        }
        (true, Some(s), Some(d)) => format!("a checkpoint of scale {s} seed {d}"),
        _ => "not a sweep checkpoint".to_owned(),
    };
    let message = format!("{} is {why}; refusing to overwrite it", path.display());
    Err(io::Error::new(io::ErrorKind::InvalidData, message))
}

/// FNV-1a of the wire encoding of `key`'s spec at `(scale, seed)`.
fn spec_digest(key: CellKey, scale: Scale, seed: u64) -> u64 {
    fnv1a(crate::wire::encode_spec(&cell_spec(key, scale, seed)).as_bytes())
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

    /// The results the run-metrics golden pins: real runs' (with `events`
    /// 0), the last two on a sharded topology with 2 MiB pages.
    fn golden_results() -> Vec<RunResult> {
        let golden = std::str::from_utf8(GOLDEN).expect("a UTF-8 golden");
        let decode = |line: &str| crate::wire::decode_response(line.split_once(' ')?.1)?.ok();
        golden
            .lines()
            .map(|l| decode(l).expect("a golden result"))
            .collect()
    }

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ptw-checkpoint-{tag}-{}.jsonl", std::process::id()))
    }

    #[test]
    fn record_roundtrip_is_bit_identical() {
        for (i, result) in golden_results().into_iter().enumerate() {
            let kind = [SchedulerKind::Fcfs, SchedulerKind::SimtAware][i % 2];
            let key = (BenchmarkId::Kmn, kind, ConfigVariant::Baseline);
            let line = encode_record(key, 7, &result);
            let (k2, digest, r2) = decode_record(&line).expect("roundtrip parse");
            assert_eq!((k2, digest), (key, 7));
            assert_eq!(r2, result, "RunResult must round-trip exactly");
        }
    }

    #[test]
    fn every_record_member_is_needed_and_read_back() {
        let key = (BenchmarkId::Nw, SchedulerKind::Fcfs, ConfigVariant::MemFcfs);
        let line = encode_record(key, 7, &golden_results().remove(15));
        flat::assert_every_member_is_needed(&line, decode_record);
    }

    /// Asserts that `open` refuses the file at `path` with an error that
    /// names it, and leaves the file byte-identical.
    fn assert_refused(path: &Path, scale: Scale, seed: u64) {
        let before = std::fs::read(path).expect("read");
        let err = SweepCheckpoint::open(path, scale, seed).expect_err("refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let name = path.display().to_string();
        assert!(err.to_string().contains(&name), "{err}");
        assert_eq!(std::fs::read(path).expect("read"), before, "untouched");
    }

    #[test]
    fn open_append_reload() {
        let path = temp_path("reload");
        std::fs::write(&path, "").expect("an empty file gets a header");
        let result = golden_results().remove(4);
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
        assert_eq!(loaded, vec![(key, result)]);
        // A checkpoint of another (scale, seed) is refused, not truncated.
        assert_refused(&path, Scale::Small, 43);
        assert_refused(&path, Scale::Medium, 42);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn file_that_is_not_a_checkpoint_is_refused_untouched() {
        let path = temp_path("foreign");
        let unstamped = header(Scale::Small, 42).replace("model", "m") + "\n";
        for content in [
            "# my notes\nimportant line\n".as_bytes(),
            b"important line without a newline",
            b"\n",
            b"\xff\xfe not utf-8\n",
            unstamped.as_bytes(),
        ] {
            std::fs::write(&path, content).expect("write");
            assert_refused(&path, Scale::Small, 42);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn header_of_another_model_is_reset_and_its_cells_rerun() {
        let path = temp_path("model");
        let _ = std::fs::remove_file(&path);
        let key = (
            BenchmarkId::Mvt,
            SchedulerKind::Fcfs,
            ConfigVariant::Baseline,
        );
        let result = golden_results().remove(0);
        {
            let (mut cp, _) = SweepCheckpoint::open(&path, Scale::Small, 42).expect("create");
            cp.append(key, &result).expect("append");
        }
        let content = std::fs::read_to_string(&path).expect("read");
        let current = header(Scale::Small, 42);
        let stale = current.replace(&MODEL.to_string(), &(MODEL ^ 1).to_string());
        std::fs::write(&path, content.replacen(&current, &stale, 1)).expect("write");
        let (mut cp, loaded) = SweepCheckpoint::open(&path, Scale::Small, 42).expect("reset");
        assert!(loaded.is_empty(), "records of another model are not loaded");
        let content = std::fs::read_to_string(&path).expect("read");
        assert_eq!(content, current + "\n", "reset to a fresh header");
        cp.append(key, &result).expect("append after reset");
        drop(cp);
        let (_cp, loaded) = SweepCheckpoint::open(&path, Scale::Small, 42).expect("reload");
        assert_eq!(loaded, vec![(key, result)]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn record_appended_after_a_torn_tail_survives() {
        let path = temp_path("torn-append");
        let _ = std::fs::remove_file(&path);
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
        let results = golden_results();
        let (ra, rb) = (results[2].clone(), results[14].clone());
        {
            let (mut cp, _) = SweepCheckpoint::open(&path, Scale::Small, 1).expect("create");
            cp.append(a, &ra).expect("append A");
        }
        // A garbled line that is not even UTF-8, then a torn tail.
        let mut content = std::fs::read(&path).expect("read");
        content.extend_from_slice(b"\xff\xfe garbled\n{\"key\":\"KMN|FCFS|base");
        std::fs::write(&path, content).expect("tear the tail");
        {
            let (mut cp, loaded) = SweepCheckpoint::open(&path, Scale::Small, 1).expect("reopen");
            assert_eq!(loaded, vec![(a, ra.clone())], "only whole records load");
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
        let results = golden_results()[5..8].to_vec();
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
        let result = golden_results().remove(14);
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
            content.starts_with(&header(Scale::Small, 5)),
            "header rewritten to the current model: {content:?}"
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
        assert_eq!(content, header(Scale::Small, 12_648_430) + "\n");
        let _ = std::fs::remove_file(&path);
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
        let line = encode_record(key, 1, &golden_results().remove(3));
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
        let mut result = golden_results().remove(6);
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
