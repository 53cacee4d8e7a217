//! The flat-line format shared by the sweep checkpoint and the worker wire.
//!
//! A checkpoint record (`crate::checkpoint`), a worker's spec and a
//! worker's response (`crate::wire`) are each one JSON object whose
//! members are unsigned integers, strings or arrays of unsigned integers.
//! Nested records are flattened: every leaf is one member keyed by its
//! field path, such as `metrics.cycles` or `config.iommu.pwc.ways`.
//!
//! Each record type names its fields exactly once, in the [`flat_struct!`]
//! list below. The encoder destructures the struct exhaustively and the
//! decoder builds it with a struct literal, so a field missing from the
//! list does not compile. Leaves are integers, bools as `0`/`1`, `f64`s
//! as their bit patterns (so decoding is bit-exact) and enums as their
//! stable labels; an absent `Option` writes no member. Decoding returns
//! `None` on any missing, malformed or out-of-range member: a torn or
//! foreign line is rejected whole, never guessed at.

use std::fmt::{Display, Write as _};

use ptw_core::iommu::IommuConfig;
use ptw_core::sched::SchedulerKind;
use ptw_core::IommuStats;
use ptw_gpu::GpuConfig;
use ptw_mem::assoc::Replacement;
use ptw_mem::cache::CacheConfig;
use ptw_mem::controller::{MemSchedPolicy, MemStats};
use ptw_mem::dram::DramConfig;
use ptw_pagetable::pwc::PwcConfig;
use ptw_tlb::TlbConfig;
use ptw_types::stats::BucketHistogram;
use ptw_workloads::{BenchmarkId, Scale};

use crate::config::{FaultInjection, FaultKind, SystemConfig, TopologyConfig, WatchdogConfig};
use crate::json::Value;
use crate::metrics::RunMetrics;
use crate::runner::RunSpec;
use crate::system::RunResult;

/// A value that flattens into the members of one flat line.
pub(crate) trait Flat: Sized {
    /// Appends this value's members under `key`, each as `"path":value,`.
    fn put(&self, key: &str, out: &mut String);
    /// Reads back what [`put`](Self::put) wrote under `key`.
    fn take(fields: &Value, key: &str) -> Option<Self>;
}

/// One flat line: `head` (members that each end in a comma, or empty),
/// then every member of `value`.
pub(crate) fn line<T: Flat>(head: &str, value: &T) -> String {
    let mut out = String::with_capacity(2048);
    out.push('{');
    out.push_str(head);
    value.put("", &mut out);
    out.pop(); // the last member's comma
    out.push('}');
    out
}

/// Parses one flat line: a JSON object whose members are all unsigned
/// integers, strings, or arrays of unsigned integers. Integers decode as
/// exact `u64`s, so `f64::to_bits` patterns survive. Returns `None` on
/// any deviation.
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

/// The member path of `field` inside the record at `key`.
fn path(key: &str, field: &str) -> String {
    if key.is_empty() {
        field.to_owned()
    } else {
        format!("{key}.{field}")
    }
}

fn member(out: &mut String, key: &str, value: impl Display) {
    let _ = write!(out, "\"{key}\":{value},");
}

fn put_u64s(out: &mut String, key: &str, xs: &[u64]) {
    let items: Vec<String> = xs.iter().map(u64::to_string).collect();
    member(out, key, format_args!("[{}]", items.join(",")));
}

/// Integers, read back exactly and range-checked.
macro_rules! flat_int {
    ($($ty:ty),*) => {$(
        impl Flat for $ty {
            fn put(&self, key: &str, out: &mut String) {
                member(out, key, self);
            }
            fn take(fields: &Value, key: &str) -> Option<Self> {
                <$ty>::try_from(fields.get(key)?.as_u64()?).ok()
            }
        }
    )*};
}

flat_int!(u64, usize, u32);

impl Flat for bool {
    fn put(&self, key: &str, out: &mut String) {
        u64::from(*self).put(key, out);
    }
    fn take(fields: &Value, key: &str) -> Option<Self> {
        match u64::take(fields, key)? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

impl Flat for f64 {
    fn put(&self, key: &str, out: &mut String) {
        self.to_bits().put(key, out);
    }
    fn take(fields: &Value, key: &str) -> Option<Self> {
        u64::take(fields, key).map(f64::from_bits)
    }
}

impl Flat for Vec<u64> {
    fn put(&self, key: &str, out: &mut String) {
        put_u64s(out, key, self);
    }
    fn take(fields: &Value, key: &str) -> Option<Self> {
        let items = fields.get(key)?.as_arr()?;
        items.iter().map(Value::as_u64).collect()
    }
}

/// Enums that already have a stable label and its parser.
macro_rules! flat_label {
    ($($ty:ident: $label:ident / $parse:ident),* $(,)?) => {$(
        impl Flat for $ty {
            fn put(&self, key: &str, out: &mut String) {
                member(out, key, format_args!("\"{}\"", self.$label()));
            }
            fn take(fields: &Value, key: &str) -> Option<Self> {
                $ty::$parse(fields.get(key)?.as_str()?)
            }
        }
    )*};
}

flat_label!(BenchmarkId: abbrev / parse, SchedulerKind: label / parse);
flat_label!(Scale: label / parse, FaultKind: label / parse);

/// Enums whose one label table lives here.
macro_rules! flat_table {
    ($($ty:ident { $($variant:ident => $label:literal),* $(,)? })*) => {$(
        impl Flat for $ty {
            fn put(&self, key: &str, out: &mut String) {
                let label = match self {
                    $($ty::$variant => $label,)*
                };
                member(out, key, format_args!("\"{label}\""));
            }
            fn take(fields: &Value, key: &str) -> Option<Self> {
                match fields.get(key)?.as_str()? {
                    $($label => Some($ty::$variant),)*
                    _ => None,
                }
            }
        }
    )*};
}

flat_table! {
    Replacement { Lru => "lru", Random => "random" }
    MemSchedPolicy { FrFcfs => "fr-fcfs", Fcfs => "fcfs" }
}

impl Flat for BucketHistogram {
    fn put(&self, key: &str, out: &mut String) {
        put_u64s(out, &path(key, "edges"), self.edges());
        put_u64s(out, &path(key, "counts"), self.counts());
        self.overflow().put(&path(key, "overflow"), out);
        self.total().put(&path(key, "total"), out);
    }
    fn take(fields: &Value, key: &str) -> Option<Self> {
        BucketHistogram::from_parts(
            Flat::take(fields, &path(key, "edges"))?,
            Flat::take(fields, &path(key, "counts"))?,
            Flat::take(fields, &path(key, "overflow"))?,
            Flat::take(fields, &path(key, "total"))?,
        )
    }
}

impl<T: Flat> Flat for Option<T> {
    fn put(&self, key: &str, out: &mut String) {
        if let Some(value) = self {
            value.put(key, out);
        }
    }
    fn take(fields: &Value, key: &str) -> Option<Self> {
        if let Some(value) = T::take(fields, key) {
            return Some(Some(value));
        }
        // Absent only when nothing at all was written under `key`: a
        // partial value is a malformed line, not a `None`.
        let under = |k: &str| {
            k.strip_prefix(key)
                .is_some_and(|r| r.is_empty() || r.starts_with('.'))
        };
        let partial = matches!(fields, Value::Obj(m) if m.iter().any(|(k, _)| under(k)));
        (!partial).then_some(None)
    }
}

/// Records: each type's fields, listed once.
macro_rules! flat_struct {
    ($($ty:ident { $($field:ident),* $(,)? })*) => {$(
        impl Flat for $ty {
            fn put(&self, key: &str, out: &mut String) {
                let $ty { $($field),* } = self;
                $($field.put(&path(key, stringify!($field)), out);)*
            }
            fn take(fields: &Value, key: &str) -> Option<Self> {
                Some($ty {
                    $($field: Flat::take(fields, &path(key, stringify!($field)))?,)*
                })
            }
        }
    )*};
}

flat_struct! {
    RunResult {
        metrics, iommu, per_iommu_walks, iommu_imbalance, gpu_tlb_large_hits, mem,
        gpu_l1_tlb_hit_rate, gpu_l2_tlb_hit_rate, l1_cache_hit_rate, l2_cache_hit_rate, events,
        finish_spread,
    }
    RunMetrics {
        cycles, instructions, cu_stall_cycles, walk_requests, walks_performed, work_hist,
        interleaved_fraction, mean_first_latency, mean_last_latency, mean_latency_gap,
        mean_epoch_wavefronts, l2_tlb_accesses, instructions_with_walks, multi_walk_instructions,
    }
    IommuStats {
        walk_requests, walks_performed, merged_completions, total_walk_accesses, peak_pending,
        total_walk_latency, completed_requests, large_walks_performed, large_completed_requests,
        large_total_walk_latency,
    }
    MemStats {
        data_requests, walk_requests, row_hits, row_conflicts, total_latency, completed,
        peak_queue_depth, peak_busy_banks, queue_depth_cycles, busy_bank_cycles, observed_cycles,
    }
    RunSpec { benchmark, scheduler, scale, seed, config }
    SystemConfig {
        gpu, gpu_l1_tlb, gpu_l2_tlb, iommu, l1_cache, l2_cache, dram, mem_policy, max_events,
        epoch_accesses, watchdog, fault, topology,
    }
    GpuConfig {
        cus, wavefront_width, wavefronts_per_cu, compute_delay, l1_tlb_cycles, l2_tlb_cycles,
        l2_tlb_port_cycles, l1_tlb_miss_port_cycles, iommu_hop_cycles, l1_cache_cycles,
        l2_cache_cycles,
    }
    TlbConfig { entries, ways, policy }
    IommuConfig {
        buffer_entries, walkers, l1_tlb, l2_tlb, pwc, scheduler, aging_threshold, tlb_cycles,
        pwc_cycles, seed,
    }
    PwcConfig { entries_per_level, ways, counter_pinning }
    CacheConfig { size_bytes, ways }
    DramConfig {
        channels, ranks_per_channel, banks_per_rank, row_bytes, row_hit_cycles,
        row_conflict_cycles, bus_cycles,
    }
    WatchdogConfig { check_events, stall_epochs }
    FaultInjection { kind, at_event }
    TopologyConfig { gpu_shards, iommus, large_page_permille }
}

/// Asserts that every member of the flat `line` is needed and read back:
/// deleting any member makes `decode` return `None`, and adding 1 to any
/// integer member (or to one element of an array member) changes the
/// decoded value or gets the line rejected. This catches two fields that
/// share a key, which a plain round trip misses.
#[cfg(test)]
pub(crate) fn assert_every_member_is_needed<T: PartialEq + std::fmt::Debug>(
    line: &str,
    decode: impl Fn(&str) -> Option<T>,
) {
    let Some(Value::Obj(members)) = parse_flat_json(line) else {
        panic!("not a flat line: {line}");
    };
    let original = decode(line);
    assert!(original.is_some(), "the unmutated line decodes");
    let render = |members: &[(String, Value)], bump: Option<(usize, usize)>| -> String {
        let mut out = String::from("{");
        for (i, (k, v)) in members.iter().enumerate() {
            let num = |j: usize, x: u64| match bump {
                Some(b) if b == (i, j) => (u128::from(x) + 1).to_string(),
                _ => x.to_string(),
            };
            let text = match v {
                Value::U64(x) => num(0, *x),
                Value::Str(s) => format!("\"{}\"", crate::json::escape(s)),
                Value::Arr(xs) => {
                    let xs: Vec<String> = xs
                        .iter()
                        .enumerate()
                        .map(|(j, x)| num(j, x.as_u64().expect("u64 element")))
                        .collect();
                    format!("[{}]", xs.join(","))
                }
                other => panic!("non-flat member {other:?}"),
            };
            let _ = write!(out, "\"{k}\":{text},");
        }
        out.pop();
        out.push('}');
        out
    };
    assert_eq!(
        decode(&render(&members, None)),
        original,
        "re-rendered line"
    );
    for i in 0..members.len() {
        let key = &members[i].0;
        let mut without = members.clone();
        without.remove(i);
        assert_eq!(decode(&render(&without, None)), None, "deleted {key}");
        let elements = match &members[i].1 {
            Value::U64(_) => 1,
            Value::Arr(xs) => xs.len(),
            _ => 0,
        };
        for j in 0..elements {
            let bumped = decode(&render(&members, Some((i, j))));
            assert_ne!(bumped, original, "{key}[{j}] + 1 was not read back");
        }
    }
}
