#!/usr/bin/env bash
# Build one Release benchmark and record its trajectory in
# BENCH_<name>.json (repo root, or $HAMS_BENCH_JSON).
#
# Usage: scripts/bench.sh <name> [args...]
#   e.g. scripts/bench.sh hotpaths --benchmark_filter='HamsMiss'
#   HAMS_BENCH_SCALE=N enlarges the runs (default 1 = smoke size).
#   HAMS_BENCH_THREADS=N caps the cross-cell worker pool.
#
# <name>     binary          what it records; exits non-zero when
# hotpaths   micro_hotpaths  per-component host cost (google-benchmark;
#                            extra args go to it); an argument is unknown
# paper      fig_paper       Figs. 7a, 10a and 16-19 from one 11 x 12
#                            grid, and each claim against the paper; a
#                            gated comparison leaves the paper's side
# multicore  fig_multicore   N-core throughput, scaling efficiency and
#                            the HAMS contention counters; never (no gates)
# gc         fig_gc          foreground latency and throughput under
#                            synchronous, background and paced GC; no
#                            paced cell engages the pacer
# recovery   fig_recovery    recovery time after seeded power cuts; the
#                            doubled sweep diverges, a cell verifies no
#                            acked write or its first service is not
#                            before full recovery, or a churn cell's RTO
#                            or replay entries do not exceed its idle twin's
# scaleout   fig_scaleout    N cores x M sharded stacks; M=1 or an M=4
#                            rerun diverges, a 4-device rndRd cell scales
#                            below 0.7, or a multi-device update cell has
#                            no flush barriers or no fence cost
# tiering    fig_tiering     mmap tiering off / pin / mig / tier under
#                            zipfian skew; a rerun diverges, tiering
#                            loses at high skew, or migration never
#                            moves a frame
#
# Every binary also exits non-zero when a sweep cell throws or the JSON
# cannot be written.

set -euo pipefail

name="${1:?usage: scripts/bench.sh <name> [args...]}"
shift
case "${name}" in
  hotpaths) target=micro_hotpaths; set -- --benchmark_min_time=0.2 "$@" ;;
  paper | multicore | gc | recovery | scaleout | tiering) target="fig_${name}" ;;
  *) echo "scripts/bench.sh: unknown benchmark '${name}'" >&2; exit 2 ;;
esac

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${repo_root}/build-bench"

cmake -B "${build_dir}" -S "${repo_root}" \
      -DCMAKE_BUILD_TYPE=Release \
      -DHAMS_BUILD_TESTS=OFF \
      -DHAMS_BUILD_EXAMPLES=OFF
cmake --build "${build_dir}" --target "${target}" -j"$(nproc)"

export HAMS_BENCH_JSON="${HAMS_BENCH_JSON:-${repo_root}/BENCH_${name}.json}"
"${build_dir}/${target}" "$@"
