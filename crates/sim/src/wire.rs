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
//! Both lines use the flat-line format of `crate::flat`, the same one the
//! checkpoint writes: one object of unsigned integers, strings and integer
//! arrays, every leaf keyed by its field path (`seed`,
//! `config.iommu.pwc.ways`, `metrics.cycles`, …). Each record type lists
//! its fields once in that module's schema, so the spec line, the response
//! line and the checkpoint record cannot drift apart. Integers are read
//! back exactly, so the `f64::to_bits` patterns a [`RunResult`] needs for
//! bit-identical transport survive. The whole
//! [`SystemConfig`](crate::SystemConfig) travels, so *any* spec
//! round-trips — including the escalated event budgets and seeded
//! topologies a retrying supervisor produces.
//!
//! # Failure transport
//!
//! A worker-side failure is tagged: `budget` reconstructs the typed
//! [`SimError::EventBudgetExhausted`] (so the supervisor's retry loop
//! still sees it as retryable and escalates), `panic` reconstructs
//! [`RunError::Panicked`], and everything else (config rejection,
//! livelock, deadlock) becomes [`RunError::WorkerReported`] carrying the
//! worker's full rendered diagnostic.

use crate::error::{RunError, SimError};
use crate::flat::{self, parse_flat_json, Flat};
use crate::json::escape;
use crate::runner::RunSpec;
use crate::system::RunResult;

/// Serializes a full [`RunSpec`] as one flat JSON line (no trailing
/// newline). Every field of the spec — workload identity, seed, and the
/// complete flattened [`SystemConfig`](crate::SystemConfig) — is present,
/// so [`decode_spec`] reconstructs the spec exactly.
pub fn encode_spec(spec: &RunSpec) -> String {
    flat::line("", spec)
}

/// Reconstructs the [`RunSpec`] encoded by [`encode_spec`]. Returns `None`
/// on any malformed, missing, or out-of-range field — a supervisor bug or
/// a torn pipe, never something to guess through.
pub fn decode_spec(line: &str) -> Option<RunSpec> {
    RunSpec::take(&parse_flat_json(line)?, "")
}

/// Serializes a worker's final outcome as one JSON line (no trailing
/// newline): `{"ok":1,…result fields…}` on success, or
/// `{"ok":0,"err":…,…}` with a failure tag on error.
pub fn encode_response(result: &Result<RunResult, RunError>) -> String {
    match result {
        Ok(r) => flat::line("\"ok\":1,", r),
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
        1 => Some(Ok(RunResult::take(&fields, "")?)),
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
    use crate::config::{FaultInjection, TopologyConfig};
    use crate::error::ConfigError;
    use ptw_core::sched::SchedulerKind;
    use ptw_mem::assoc::Replacement;
    use ptw_mem::controller::MemSchedPolicy;
    use ptw_workloads::{BenchmarkId, Scale};

    #[test]
    fn baseline_spec_round_trips() {
        let spec = RunSpec::new(BenchmarkId::Kmn, SchedulerKind::SimtAware, Scale::Small);
        let line = encode_spec(&spec);
        let back = decode_spec(&line).expect("decode");
        assert_eq!(back, spec);
    }

    /// A spec with every kind of mutation a real sweep produces: escalated budget,
    /// injected fault, sharded topology, large pages, non-default
    /// policies.
    fn mutated_spec() -> RunSpec {
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
        spec.config.gpu_l2_tlb.policy = Replacement::Lru;
        spec.config.topology = TopologyConfig::sharded(2, 4, 500);
        spec
    }

    #[test]
    fn mutated_spec_round_trips() {
        let spec = mutated_spec();
        let back = decode_spec(&encode_spec(&spec)).expect("decode");
        assert_eq!(back, spec);
    }

    #[test]
    fn every_spec_member_is_needed_and_read_back() {
        let baseline = RunSpec::new(BenchmarkId::Kmn, SchedulerKind::SimtAware, Scale::Small);
        for spec in [mutated_spec(), baseline] {
            flat::assert_every_member_is_needed(&encode_spec(&spec), decode_spec);
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
