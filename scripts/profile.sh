#!/usr/bin/env bash
# Profile one workload of the simulator's benchmark (simbench).
#
# Usage: scripts/profile.sh [--workload irregular|regular|sharded-2m]
#                           [--seconds S]
#
# With `perf` installed this records a cycles profile of one untraced
# simbench run and prints the top of the report. Without it (containers,
# locked-down kernels) it runs simbench as is and prints its `host:` line
# and its JSON report: the end-to-end figures, enough to spot which
# workload regressed before reaching for a profiler on another machine.
#
# simbench runs its cells serially on one thread, so the profile is that
# of the cells alone, not of cells fighting over one core's cache.

set -euo pipefail
cd "$(dirname "$0")/.."

workload="irregular"
seconds="10"
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seconds)  seconds="$2"; shift 2 ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done
case "$workload" in
  irregular|regular|sharded-2m) ;;
  *) echo "--workload needs irregular, regular or sharded-2m" >&2; exit 2 ;;
esac

cargo build --release --offline --manifest-path simbench/Cargo.toml 2>&1 | tail -1
bench=(./simbench/target/release/simbench --workload "$workload"
       --seconds "$seconds" --trace 0)

if command -v perf >/dev/null 2>&1 &&
   perf stat -e cycles true >/dev/null 2>&1; then
  echo "== perf record (cycles) of: ${bench[*]}"
  out="$(mktemp -d)/perf.data"
  perf record -o "$out" -g --call-graph dwarf -F 997 -- "${bench[@]}"
  perf report -i "$out" --stdio --percent-limit 1 | head -60
  echo "full profile: perf report -i $out"
else
  echo "== perf unavailable (no binary or no perf_event access); falling" \
       "back to simbench's end-to-end figures"
  "${bench[@]}" | grep -E '^(host:|\{)'
  echo
  echo "For instruction-level attribution re-run on a machine with perf:"
  echo "  perf record -g --call-graph dwarf -- ${bench[*]}"
fi
