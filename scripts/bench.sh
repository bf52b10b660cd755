#!/usr/bin/env bash
# Build one Release benchmark and record its trajectory in
# BENCH_<name>.json (repo root, or $HAMS_BENCH_JSON).
#
# Usage: scripts/bench.sh <name> [args...]
#   e.g. scripts/bench.sh hotpaths --benchmark_filter='HamsMiss'
#   HAMS_BENCH_SCALE=N enlarges the runs (default 1 = smoke size).
#   HAMS_BENCH_THREADS=N caps the cross-cell worker pool.
#
# <name>     binary          what it records
# hotpaths   micro_hotpaths  per-component host cost (google-benchmark;
#                            extra args go to it)
# macro      macro_endtoend  host-ns per simulated access through the
#                            full core stack, fast path off vs on; exits
#                            non-zero if the simulated outputs diverge
# multicore  fig_multicore   N-core throughput, scaling efficiency and
#                            the HAMS contention counters
# gc         fig_gc          foreground latency and throughput under
#                            synchronous, background and paced GC
# recovery   fig_recovery    recovery time after seeded power cuts;
#                            exits non-zero if the doubled sweep diverges
# scaleout   fig_scaleout    N cores x M sharded stacks; exits non-zero if
#                            M=1 or an M=4 rerun diverges
# tiering    fig_tiering     mmap tiering off / pin / mig / tier under
#                            zipfian skew; exits non-zero on a rerun
#                            divergence, tiering losing at high skew, or
#                            migration never moving a frame

set -euo pipefail

name="${1:?usage: scripts/bench.sh <name> [args...]}"
shift
case "${name}" in
  hotpaths) target=micro_hotpaths; set -- --benchmark_min_time=0.2 "$@" ;;
  macro) target=macro_endtoend ;;
  multicore | gc | recovery | scaleout | tiering) target="fig_${name}" ;;
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

echo
echo "Results written to ${HAMS_BENCH_JSON}"
