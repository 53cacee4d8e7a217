#!/usr/bin/env bash
# Offline CI gate: formatting, lints, release build, tier-1 tests.
#
# Everything here runs without network access (the workspace has no
# third-party dependencies). The full workspace suite is `cargo test
# --workspace`; tier-1 (the gate) is the root package's integration tests.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all -- --check
# simbench is its own workspace, so `--all` does not reach it.
cargo fmt --manifest-path simbench/Cargo.toml -- --check

echo "== cargo clippy (all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings
cargo clippy --offline --manifest-path simbench/Cargo.toml --all-targets -- -D warnings

echo "== cargo doc (broken or private intra-doc links are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== cargo build --release (workspace, including bin targets)"
cargo build --release --workspace

echo "== cargo test (tier-1)"
cargo test -q

echo "== fault-injection smoke run (partial sweep must render and exit nonzero)"
smoke_out="$(mktemp)"
trap 'rm -f "$smoke_out"' EXIT
if ./target/release/figures fig2 --scale small --quiet \
    --inject-fault mvt:fcfs:panic@1000 >"$smoke_out" 2>&1; then
  echo "FAIL: figures exited zero despite an injected fault"
  cat "$smoke_out"
  exit 1
fi
grep -q "FAILED" "$smoke_out" || {
  echo "FAIL: degraded output does not mark the failed cell"
  cat "$smoke_out"
  exit 1
}
grep -q "Figure 2" "$smoke_out" || {
  echo "FAIL: partial sweep did not render the figure"
  cat "$smoke_out"
  exit 1
}

echo "== process-isolation smoke (abort@event worker must degrade to one FAILED cell)"
# A worker that dies to SIGABRT mid-cell must cost exactly its own cell:
# the supervisor respawns it, gives up after the retry budget, renders the
# figure with one degraded FAILED row, and exits nonzero.
proc_out="$(mktemp)"
trap 'rm -f "$smoke_out" "$proc_out"' EXIT
if ./target/release/figures fig2 --scale small --quiet --isolation process \
    --inject-fault mvt:fcfs:abort@1000 >"$proc_out" 2>&1; then
  echo "FAIL: figures exited zero despite an aborting worker"
  cat "$proc_out"
  exit 1
fi
grep -q "1 cell(s) FAILED" "$proc_out" || {
  echo "FAIL: the aborting worker did not degrade to exactly one FAILED cell"
  cat "$proc_out"
  exit 1
}
grep -q "Figure 2" "$proc_out" || {
  echo "FAIL: the process-isolated partial sweep did not render the figure"
  cat "$proc_out"
  exit 1
}
if ./target/release/figures fig2 --scale small --quiet --isolation process \
    --inject-fault mvt:fcfs:abort@1000 --fail-fast >/dev/null 2>&1; then
  echo "FAIL: --fail-fast exited zero despite an aborting worker"
  exit 1
fi

echo "== resume smoke (a process-isolated sweep's checkpoint resumes every cell in thread mode)"
# The first run's workers send results over the wire codec and the
# supervisor appends them with the checkpoint codec; the second run must
# load every cell back, re-run none, and print the same rows.
resume_file="$(mktemp)"
resume_first="$(mktemp)"
resume_second="$(mktemp)"
trap 'rm -f "$smoke_out" "$proc_out" "$resume_file" "$resume_first" "$resume_second"' EXIT
./target/release/figures fig2 --scale small --quiet --isolation process \
    --resume "$resume_file" >"$resume_first"
lines_before="$(wc -l <"$resume_file")"
./target/release/figures fig2 --scale small --quiet --resume "$resume_file" >"$resume_second"
cmp -s "$resume_first" "$resume_second" || {
  echo "FAIL: the resumed sweep printed different rows"
  diff "$resume_first" "$resume_second" || true
  exit 1
}
[[ "$(wc -l <"$resume_file")" == "$lines_before" ]] || {
  echo "FAIL: the resumed sweep re-ran cells ($lines_before checkpoint lines before, $(wc -l <"$resume_file") after)"
  exit 1
}

echo "== figures golden (the full small sweep prints the pinned tables)"
# tests/golden/figures_small.txt is `figures all --scale small --quiet`;
# it changes only under the ROADMAP re-bless rule. Thread and process
# isolation must both print it byte for byte.
figures_out="$(mktemp)"
trap 'rm -f "$smoke_out" "$proc_out" "$resume_file" "$resume_first" "$resume_second" "$figures_out"' EXIT
./target/release/figures all --scale small --quiet --jobs 2 >"$figures_out"
cmp tests/golden/figures_small.txt "$figures_out" || {
  echo "FAIL: figures output (--jobs 2) differs from tests/golden/figures_small.txt"
  exit 1
}
./target/release/figures all --scale small --quiet --isolation process --jobs 2 >"$figures_out"
cmp tests/golden/figures_small.txt "$figures_out" || {
  echo "FAIL: figures output (--isolation process --jobs 2) differs from tests/golden/figures_small.txt"
  exit 1
}

echo "== workspace unit tests (every crate's lib tests)"
# Tier-1 runs only the root package's integration tests, among them the
# exact work-count gate (tests/work_counts.rs). The randomized oracles,
# test-only references and the work counters' meaning tests live in the
# crates' unit tests: the shared U64Map against a std HashMap, and the
# slots a lookup examines (ptw-types); the packed AssocArray at
# fingerprint-word-crossing geometries and the fingerprint words and tags
# a lookup reads, the keyed MSHR, and the DRAM controller's carried
# pick against the legacy whole-queue scan over seeded submit/advance
# streams, and which select path a queue depth takes (ptw-mem, DESIGN.md
# §10/§13/§14); the candidate index, scheduler and IOMMU
# (ptw-core); the batched run loop against the per-event reference loop on
# every small benchmark and policy plus its budget and watchdog aborts, the
# 2x2 mixed-page topology under FCFS and SIMT-aware, the config and
# supervisor, and the one flat-line schema (flat.rs) behind the wire and
# checkpoint codecs, with every member of a spec and a result line
# checked as needed and read back (ptw-sim); the hashed coalescer
# dedup against its `contains` reference (ptw-gpu); and the page-table,
# TLB and workload unit tests.
cargo test -q --workspace --lib

echo "== simbench builds and passes its unit tests (its own workspace)"
# The benchmark links the library crates but sits outside this workspace,
# so nothing above compiles it; an API change would otherwise surface only
# at the next benchmark run.
cargo test --release --offline -q --manifest-path simbench/Cargo.toml

echo "CI OK"
