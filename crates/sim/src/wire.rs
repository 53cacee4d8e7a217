//! The worker wire protocol: one JSON line per direction.
//!
//! A process-isolated sweep sends each cell to a child process running the
//! sweep binary in `worker` mode. The supervisor writes the full
//! [`RunSpec`] to the worker's stdin as **one flat JSON line**; the worker
//! answers with one line — either the complete [`RunResult`] or a typed
//! failure — and exits. One line each way keeps framing trivial (no length
//! prefixes, no partial-read states) and makes a garbled or truncated
//! response unambiguously classifiable as a dead worker.
//!
//! # Encoding
//!
//! The codec rides on the checkpoint module's flat-JSON subset
//! (`crate::checkpoint`): one object of unsigned integers, strings and
//! integer arrays, read by `crate::json` with exact `u64` integers so the
//! `f64::to_bits` patterns a [`RunResult`] needs for bit-identical
//! transport survive. Enums travel as their stable labels, bools as
//! `0`/`1`, and the optional shard-map VA ranges as three parallel `u64`
//! arrays. The whole [`SystemConfig`] is flattened with prefixed keys
//! (`gpu_`, `io_`, `dram_`, …) so *any* spec round-trips — including the
//! escalated event budgets and seeded topologies a retrying supervisor
//! produces.
//!
//! # Failure transport
//!
//! A worker-side failure is tagged: `budget` reconstructs the typed
//! [`SimError::EventBudgetExhausted`] (so the supervisor's retry loop
//! still sees it as retryable and escalates), `panic` reconstructs
//! [`RunError::Panicked`], and everything else (config rejection,
//! livelock, deadlock) becomes [`RunError::WorkerReported`] carrying the
//! worker's full rendered diagnostic.

use ptw_core::sched::SchedulerKind;
use ptw_mem::assoc::Replacement;
use ptw_mem::controller::MemSchedPolicy;
use ptw_tlb::TlbConfig;
use ptw_workloads::{BenchmarkId, Scale};

use crate::checkpoint::{decode_result_fields, encode_result_fields, parse_flat_json, u64s};
use crate::config::{FaultKind, ShardMap, SystemConfig, VaRange};
use crate::error::{RunError, SimError};
use crate::json::escape;
use crate::runner::RunSpec;
use crate::system::RunResult;

fn replacement_label(p: Replacement) -> &'static str {
    match p {
        Replacement::Lru => "lru",
        Replacement::TreePlru => "tree-plru",
        Replacement::Random => "random",
    }
}

fn replacement_parse(s: &str) -> Option<Replacement> {
    match s {
        "lru" => Some(Replacement::Lru),
        "tree-plru" => Some(Replacement::TreePlru),
        "random" => Some(Replacement::Random),
        _ => None,
    }
}

fn mem_policy_label(p: MemSchedPolicy) -> &'static str {
    match p {
        MemSchedPolicy::FrFcfs => "fr-fcfs",
        MemSchedPolicy::Fcfs => "fcfs",
    }
}

fn mem_policy_parse(s: &str) -> Option<MemSchedPolicy> {
    match s {
        "fr-fcfs" => Some(MemSchedPolicy::FrFcfs),
        "fcfs" => Some(MemSchedPolicy::Fcfs),
        _ => None,
    }
}

fn push_tlb(out: &mut String, prefix: &str, tlb: &TlbConfig) {
    out.push_str(&format!(
        "\"{prefix}_entries\":{},\"{prefix}_ways\":{},\"{prefix}_policy\":\"{}\",",
        tlb.entries,
        tlb.ways,
        replacement_label(tlb.policy)
    ));
}

fn arr(xs: impl Iterator<Item = u64>) -> String {
    let items: Vec<String> = xs.map(|x| x.to_string()).collect();
    format!("[{}]", items.join(","))
}

/// Serializes a full [`RunSpec`] as one flat JSON line (no trailing
/// newline). Every field of the spec — workload identity, seed, and the
/// complete flattened [`SystemConfig`] — is present, so
/// [`decode_spec`] reconstructs the spec exactly.
pub fn encode_spec(spec: &RunSpec) -> String {
    let c = &spec.config;
    let g = &c.gpu;
    let io = &c.iommu;
    let d = &c.dram;
    let t = &c.topology;
    let mut out = String::with_capacity(1024);
    out.push('{');
    out.push_str(&format!(
        "\"benchmark\":\"{}\",\"scheduler\":\"{}\",\"scale\":\"{}\",\"seed\":{},",
        spec.benchmark.abbrev(),
        spec.scheduler.label(),
        spec.scale.label(),
        spec.seed
    ));
    out.push_str(&format!(
        concat!(
            "\"gpu_cus\":{},\"gpu_wavefront_width\":{},\"gpu_wavefronts_per_cu\":{},",
            "\"gpu_compute_delay\":{},\"gpu_l1_tlb_cycles\":{},\"gpu_l2_tlb_cycles\":{},",
            "\"gpu_l2_tlb_port_cycles\":{},\"gpu_l1_tlb_miss_port_cycles\":{},",
            "\"gpu_iommu_hop_cycles\":{},\"gpu_l1_cache_cycles\":{},\"gpu_l2_cache_cycles\":{},"
        ),
        g.cus,
        g.wavefront_width,
        g.wavefronts_per_cu,
        g.compute_delay,
        g.l1_tlb_cycles,
        g.l2_tlb_cycles,
        g.l2_tlb_port_cycles,
        g.l1_tlb_miss_port_cycles,
        g.iommu_hop_cycles,
        g.l1_cache_cycles,
        g.l2_cache_cycles,
    ));
    push_tlb(&mut out, "l1tlb", &c.gpu_l1_tlb);
    push_tlb(&mut out, "l2tlb", &c.gpu_l2_tlb);
    out.push_str(&format!(
        "\"io_buffer_entries\":{},\"io_walkers\":{},",
        io.buffer_entries, io.walkers
    ));
    push_tlb(&mut out, "io_l1tlb", &io.l1_tlb);
    push_tlb(&mut out, "io_l2tlb", &io.l2_tlb);
    out.push_str(&format!(
        concat!(
            "\"pwc_entries_per_level\":{},\"pwc_ways\":{},\"pwc_counter_pinning\":{},",
            "\"io_scheduler\":\"{}\",\"io_aging_threshold\":{},",
            "\"io_tlb_cycles\":{},\"io_pwc_cycles\":{},\"io_seed\":{},"
        ),
        io.pwc.entries_per_level,
        io.pwc.ways,
        u64::from(io.pwc.counter_pinning),
        io.scheduler.label(),
        io.aging_threshold,
        io.tlb_cycles,
        io.pwc_cycles,
        io.seed,
    ));
    out.push_str(&format!(
        concat!(
            "\"l1c_size_bytes\":{},\"l1c_ways\":{},\"l2c_size_bytes\":{},\"l2c_ways\":{},",
            "\"dram_channels\":{},\"dram_ranks\":{},\"dram_banks\":{},\"dram_row_bytes\":{},",
            "\"dram_row_hit\":{},\"dram_row_conflict\":{},\"dram_bus\":{},",
            "\"mem_policy\":\"{}\",\"max_events\":{},\"epoch_accesses\":{},",
            "\"wd_check_events\":{},\"wd_stall_epochs\":{},"
        ),
        c.l1_cache.size_bytes,
        c.l1_cache.ways,
        c.l2_cache.size_bytes,
        c.l2_cache.ways,
        d.channels,
        d.ranks_per_channel,
        d.banks_per_rank,
        d.row_bytes,
        d.row_hit_cycles,
        d.row_conflict_cycles,
        d.bus_cycles,
        mem_policy_label(c.mem_policy),
        c.max_events,
        c.epoch_accesses,
        c.watchdog.check_events,
        c.watchdog.stall_epochs,
    ));
    if let Some(fault) = c.fault {
        out.push_str(&format!(
            "\"fault_kind\":\"{}\",\"fault_at\":{},",
            fault.kind.label(),
            fault.at_event
        ));
    }
    let (map_label, ranges): (&str, &[VaRange]) = match &t.shard_map {
        ShardMap::Interleave => ("interleave", &[]),
        ShardMap::VaRanges(rs) => ("ranges", rs),
    };
    out.push_str(&format!(
        concat!(
            "\"topo_gpu_shards\":{},\"topo_iommus\":{},\"topo_large_permille\":{},",
            "\"topo_map\":\"{}\",\"topo_range_starts\":{},\"topo_range_ends\":{},",
            "\"topo_range_iommus\":{}"
        ),
        t.gpu_shards,
        t.iommus,
        t.large_page_permille,
        map_label,
        arr(ranges.iter().map(|r| r.start_page)),
        arr(ranges.iter().map(|r| r.end_page)),
        arr(ranges.iter().map(|r| r.iommu as u64)),
    ));
    out.push('}');
    out
}

/// Reconstructs the [`RunSpec`] encoded by [`encode_spec`]. Returns `None`
/// on any malformed, missing, or out-of-range field — a supervisor bug or
/// a torn pipe, never something to guess through.
pub fn decode_spec(line: &str) -> Option<RunSpec> {
    let fields = parse_flat_json(line)?;
    let u = |name: &str| -> Option<u64> { fields.get(name)?.as_u64() };
    let us = |name: &str| -> Option<usize> { usize::try_from(u(name)?).ok() };
    let s = |name: &str| -> Option<&str> { fields.get(name)?.as_str() };
    let tlb = |prefix: &str| -> Option<TlbConfig> {
        Some(TlbConfig {
            entries: us(&format!("{prefix}_entries"))?,
            ways: us(&format!("{prefix}_ways"))?,
            policy: replacement_parse(s(&format!("{prefix}_policy"))?)?,
        })
    };
    let mut config = SystemConfig::paper_baseline();
    config.gpu.cus = us("gpu_cus")?;
    config.gpu.wavefront_width = us("gpu_wavefront_width")?;
    config.gpu.wavefronts_per_cu = us("gpu_wavefronts_per_cu")?;
    config.gpu.compute_delay = u("gpu_compute_delay")?;
    config.gpu.l1_tlb_cycles = u("gpu_l1_tlb_cycles")?;
    config.gpu.l2_tlb_cycles = u("gpu_l2_tlb_cycles")?;
    config.gpu.l2_tlb_port_cycles = u("gpu_l2_tlb_port_cycles")?;
    config.gpu.l1_tlb_miss_port_cycles = u("gpu_l1_tlb_miss_port_cycles")?;
    config.gpu.iommu_hop_cycles = u("gpu_iommu_hop_cycles")?;
    config.gpu.l1_cache_cycles = u("gpu_l1_cache_cycles")?;
    config.gpu.l2_cache_cycles = u("gpu_l2_cache_cycles")?;
    config.gpu_l1_tlb = tlb("l1tlb")?;
    config.gpu_l2_tlb = tlb("l2tlb")?;
    config.iommu.buffer_entries = us("io_buffer_entries")?;
    config.iommu.walkers = us("io_walkers")?;
    config.iommu.l1_tlb = tlb("io_l1tlb")?;
    config.iommu.l2_tlb = tlb("io_l2tlb")?;
    config.iommu.pwc.entries_per_level = us("pwc_entries_per_level")?;
    config.iommu.pwc.ways = us("pwc_ways")?;
    config.iommu.pwc.counter_pinning = match u("pwc_counter_pinning")? {
        0 => false,
        1 => true,
        _ => return None,
    };
    config.iommu.scheduler = SchedulerKind::parse(s("io_scheduler")?)?;
    config.iommu.aging_threshold = u("io_aging_threshold")?;
    config.iommu.tlb_cycles = u("io_tlb_cycles")?;
    config.iommu.pwc_cycles = u("io_pwc_cycles")?;
    config.iommu.seed = u("io_seed")?;
    config.l1_cache.size_bytes = us("l1c_size_bytes")?;
    config.l1_cache.ways = us("l1c_ways")?;
    config.l2_cache.size_bytes = us("l2c_size_bytes")?;
    config.l2_cache.ways = us("l2c_ways")?;
    config.dram.channels = us("dram_channels")?;
    config.dram.ranks_per_channel = us("dram_ranks")?;
    config.dram.banks_per_rank = us("dram_banks")?;
    config.dram.row_bytes = u("dram_row_bytes")?;
    config.dram.row_hit_cycles = u("dram_row_hit")?;
    config.dram.row_conflict_cycles = u("dram_row_conflict")?;
    config.dram.bus_cycles = u("dram_bus")?;
    config.mem_policy = mem_policy_parse(s("mem_policy")?)?;
    config.max_events = u("max_events")?;
    config.epoch_accesses = u("epoch_accesses")?;
    config.watchdog.check_events = u("wd_check_events")?;
    config.watchdog.stall_epochs = u("wd_stall_epochs")?;
    config.fault = match (fields.get("fault_kind"), fields.get("fault_at")) {
        (None, None) => None,
        (Some(kind), Some(at)) => Some(crate::config::FaultInjection {
            kind: FaultKind::parse(kind.as_str()?)?,
            at_event: at.as_u64()?,
        }),
        _ => return None,
    };
    config.topology.gpu_shards = us("topo_gpu_shards")?;
    config.topology.iommus = us("topo_iommus")?;
    config.topology.large_page_permille = u32::try_from(u("topo_large_permille")?).ok()?;
    config.topology.shard_map = match s("topo_map")? {
        "interleave" => ShardMap::Interleave,
        "ranges" => {
            let starts = u64s(fields.get("topo_range_starts")?)?;
            let ends = u64s(fields.get("topo_range_ends")?)?;
            let iommus = u64s(fields.get("topo_range_iommus")?)?;
            if starts.len() != ends.len() || starts.len() != iommus.len() {
                return None;
            }
            ShardMap::VaRanges(
                starts
                    .into_iter()
                    .zip(ends)
                    .zip(iommus)
                    .map(|((start_page, end_page), iommu)| {
                        Some(VaRange {
                            start_page,
                            end_page,
                            iommu: usize::try_from(iommu).ok()?,
                        })
                    })
                    .collect::<Option<Vec<_>>>()?,
            )
        }
        _ => return None,
    };
    Some(RunSpec {
        benchmark: BenchmarkId::parse(s("benchmark")?)?,
        scheduler: SchedulerKind::parse(s("scheduler")?)?,
        scale: Scale::parse(s("scale")?)?,
        seed: u("seed")?,
        config,
    })
}

/// Serializes a worker's final outcome as one JSON line (no trailing
/// newline): `{"ok":1,…result fields…}` on success, or
/// `{"ok":0,"err":…,…}` with a failure tag on error.
pub fn encode_response(result: &Result<RunResult, RunError>) -> String {
    match result {
        Ok(r) => format!("{{\"ok\":1,{}}}", encode_result_fields(r)),
        Err(RunError::Sim(SimError::EventBudgetExhausted { events, now, .. })) => {
            format!("{{\"ok\":0,\"err\":\"budget\",\"events\":{events},\"now\":{now}}}")
        }
        Err(RunError::Panicked { message }) => format!(
            "{{\"ok\":0,\"err\":\"panic\",\"message\":\"{}\"}}",
            escape(message)
        ),
        Err(e) => format!(
            "{{\"ok\":0,\"err\":\"other\",\"message\":\"{}\"}}",
            escape(&e.to_string())
        ),
    }
}

/// Decodes the line written by [`encode_response`]. `None` means the line
/// is not a well-formed response at all — the supervisor classifies that
/// as a dead worker, never as a result.
pub fn decode_response(line: &str) -> Option<Result<RunResult, RunError>> {
    let fields = parse_flat_json(line)?;
    match fields.get("ok")?.as_u64()? {
        1 => Some(Ok(decode_result_fields(&fields)?)),
        0 => {
            let err = match fields.get("err")?.as_str()? {
                // Reconstructed as the typed variant so the supervisor's
                // retry loop escalates the budget exactly like the
                // in-process path. The snapshot is not transported — a
                // budget failure that survives every retry reports without
                // the per-walker state.
                "budget" => RunError::Sim(SimError::EventBudgetExhausted {
                    events: fields.get("events")?.as_u64()?,
                    now: fields.get("now")?.as_u64()?,
                    snapshot: Box::default(),
                }),
                "panic" => RunError::Panicked {
                    message: fields.get("message")?.as_str()?.to_owned(),
                },
                "other" => RunError::WorkerReported {
                    message: fields.get("message")?.as_str()?.to_owned(),
                },
                _ => return None,
            };
            Some(Err(err))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FaultInjection;
    use crate::error::ConfigError;

    #[test]
    fn baseline_spec_round_trips() {
        let spec = RunSpec::new(BenchmarkId::Kmn, SchedulerKind::SimtAware, Scale::Small);
        let line = encode_spec(&spec);
        let back = decode_spec(&line).expect("decode");
        assert_eq!(back, spec);
    }

    #[test]
    fn mutated_spec_round_trips() {
        // Every kind of mutation a real sweep produces: escalated budget,
        // injected fault, sharded topology with explicit VA ranges, large
        // pages, non-default policies.
        let mut spec = RunSpec::new(
            BenchmarkId::Ssp,
            SchedulerKind::HeaviestFirst,
            Scale::Medium,
        );
        spec.seed = u64::MAX;
        spec.config.max_events = 10 * 16;
        spec.config.fault = Some(FaultInjection::hang_at(12_345));
        spec.config.mem_policy = MemSchedPolicy::Fcfs;
        spec.config.iommu.pwc.counter_pinning = false;
        spec.config.gpu_l2_tlb.policy = Replacement::TreePlru;
        spec.config.topology = crate::config::TopologyConfig {
            gpu_shards: 2,
            iommus: 4,
            shard_map: ShardMap::VaRanges(vec![
                VaRange {
                    start_page: 0,
                    end_page: 1 << 40,
                    iommu: 3,
                },
                VaRange {
                    start_page: 1 << 40,
                    end_page: 1 << 41,
                    iommu: 1,
                },
            ]),
            large_page_permille: 500,
        };
        let back = decode_spec(&encode_spec(&spec)).expect("decode");
        assert_eq!(back, spec);
    }

    #[test]
    fn ok_response_is_bit_identical() {
        let spec = RunSpec::new(BenchmarkId::Kmn, SchedulerKind::Fcfs, Scale::Small);
        let result = crate::runner::run_benchmark(&spec).expect("clean run");
        let line = encode_response(&Ok(result.clone()));
        match decode_response(&line).expect("decode") {
            Ok(back) => assert_eq!(back, result, "RunResult transported bit-identically"),
            Err(e) => panic!("expected Ok, got {e}"),
        }
    }

    #[test]
    fn error_responses_classify() {
        let budget = RunError::Sim(SimError::EventBudgetExhausted {
            events: 1000,
            now: 99,
            snapshot: Box::default(),
        });
        match decode_response(&encode_response(&Err(budget))).expect("decode") {
            Err(RunError::Sim(SimError::EventBudgetExhausted { events, now, .. })) => {
                assert_eq!((events, now), (1000, 99));
            }
            other => panic!("expected budget error, got {other:?}"),
        }

        let panic_err = RunError::Panicked {
            message: "injected fault: panic at event 5\nwith a second line".into(),
        };
        match decode_response(&encode_response(&Err(panic_err.clone()))).expect("decode") {
            Err(back) => assert_eq!(back, panic_err, "panic message survives escaping"),
            Ok(_) => panic!("expected Err"),
        }

        let config_err = RunError::Config(ConfigError::ZeroWalkers);
        match decode_response(&encode_response(&Err(config_err.clone()))).expect("decode") {
            Err(RunError::WorkerReported { message }) => {
                assert_eq!(message, config_err.to_string());
            }
            other => panic!("expected WorkerReported, got {other:?}"),
        }
    }

    #[test]
    fn garbled_lines_are_not_responses() {
        for line in [
            "",
            "{",
            "{\"ok\":2}",
            "{\"ok\":1}",
            "plain text",
            "{\"ok\":0}",
        ] {
            assert!(decode_response(line).is_none(), "{line:?}");
        }
        assert!(decode_spec("{\"benchmark\":\"KMN\"}").is_none());
    }
}
