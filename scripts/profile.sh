#!/usr/bin/env bash
# Profile one benchmark x policy cell of the simulator.
#
# Usage: scripts/profile.sh [--scale small|medium|paper] [--policies LIST]
#                           [-- <extra ptw-bench args>]
#
# With `perf` installed this records a cycles profile of a single-cell
# sweep and prints the top of the report. Without it (containers, locked
# -down kernels) it degrades to coarse timing: the per-cell wall times
# ptw-bench already reports, which is enough to spot which cell regressed
# before reaching for a real profiler on another machine.
#
# Keep cells serial (--jobs 1): the profile of two cells fighting over
# one core's cache is not the profile of either.

set -euo pipefail
cd "$(dirname "$0")/.."

scale="medium"
policies="fcfs"
extra=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --scale)    scale="$2"; shift 2 ;;
    --policies) policies="$2"; shift 2 ;;
    --)         shift; extra=("$@"); break ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

cargo build --release -p ptw-sim --bin ptw-bench 2>&1 | tail -1
bench=(./target/release/ptw-bench --scale "$scale" --policies "$policies"
       --reps 1 --jobs 1)
[[ ${#extra[@]} -gt 0 ]] && bench+=("${extra[@]}")

if command -v perf >/dev/null 2>&1 &&
   perf stat -e cycles true >/dev/null 2>&1; then
  echo "== perf record (cycles) of: ${bench[*]}"
  out="$(mktemp -d)/perf.data"
  perf record -o "$out" -g --call-graph dwarf -F 997 -- "${bench[@]}"
  perf report -i "$out" --stdio --percent-limit 1 | head -60
  echo "full profile: perf report -i $out"
else
  echo "== perf unavailable (no binary or no perf_event access); falling" \
       "back to per-cell wall times"
  "${bench[@]}"
  echo
  echo "For instruction-level attribution re-run on a machine with perf:"
  echo "  perf record -g --call-graph dwarf -- ${bench[*]}"
fi
