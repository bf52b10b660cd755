#!/usr/bin/env bash
# Same-host A/B of the seeded benchmark (perfbench/) between a base
# revision and the working tree.
#
# Usage: scripts/bench_ab.sh <base-rev> <workload> [pairs] [seconds]
#
# Exports <base-rev> with `git archive` into $BENCH_AB_DIR/<commit>
# (default ${TMPDIR:-/tmp}/bench_ab; reused across calls), then runs
# `perfbench/run.py --trace 0` in the base tree and in the working tree
# for <pairs> pairs (default 10) of <seconds> each (default 30). Pair i
# uses seed BENCH_AB_SEED + i - 1 (default BENCH_AB_SEED=1) in both
# trees; odd pairs run the base first, even pairs the working tree.
#
# Prints every pair, then per end-to-end metric both medians, both
# quartiles, the median ratio (working tree / base) and how many pairs
# the working tree won. Exits 1 if any sim_* metric differs within a
# pair, 2 if a run fails or the arguments are wrong.

set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 2 ] || [ $# -gt 4 ]; then
    sed -n '5p' "$0" | sed 's/^# //' >&2
    exit 2
fi
base_rev=$1
workload=$2
pairs=${3:-10}
seconds=${4:-30}
seed0=${BENCH_AB_SEED:-1}
for n in "$pairs" "$seed0"; do
    if ! [[ $n =~ ^[0-9]+$ ]]; then
        echo "bench_ab: pairs and BENCH_AB_SEED must be integers" >&2
        exit 2
    fi
done
if [ "$pairs" -lt 1 ]; then
    echo "bench_ab: pairs must be >= 1" >&2
    exit 2
fi

commit=$(git rev-parse --verify "$base_rev^{commit}")
root=${BENCH_AB_DIR:-${TMPDIR:-/tmp}/bench_ab}
base_dir=$root/$commit
mkdir -p "$root"
if [ ! -f "$base_dir/perfbench/run.py" ]; then
    rm -rf "$base_dir"
    mkdir -p "$base_dir"
    git archive "$commit" | tar -x -C "$base_dir"
fi
work_dir=$PWD
results=$(mktemp "$root/results.XXXXXX")
log=$results.log

run() { # <tree> <side> <pair> <seed>
    local line
    if ! line=$(cd "$1" && python3 perfbench/run.py --workload "$workload" \
                    --seed "$4" --seconds "$seconds" --trace 0 2>>"$log" |
                    tail -n 1); then
        echo "bench_ab: perfbench failed in $1 (seed $4); see $log" >&2
        exit 2
    fi
    printf '%s %s %s\n' "$2" "$3" "$line" >>"$results"
}

for ((i = 1; i <= pairs; i++)); do
    seed=$((seed0 + i - 1))
    echo "pair $i/$pairs (seed $seed)" >&2
    if ((i % 2)); then
        run "$base_dir" base "$i" "$seed"
        run "$work_dir" change "$i" "$seed"
    else
        run "$work_dir" change "$i" "$seed"
        run "$base_dir" base "$i" "$seed"
    fi
done

echo "raw results: $results" >&2
python3 - "$results" "$base_rev" "$workload" "$seed0" <<'EOF'
import json
import sys

path, base_rev, workload, seed0 = sys.argv[1:5]
spec = json.load(open("BENCHMARK.json"))
better = {m["name"]: m["better"] for m in spec["end_to_end"]}
runs = {}
for line in open(path):
    side, pair, result = line.split(" ", 2)
    runs.setdefault(int(pair), {})[side] = json.loads(result)["metrics"]
pairs = sorted(runs)

def quantile(xs, q):
    xs = sorted(xs)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

print("A/B %s: base %s vs working tree, %d pair(s), seeds %s-%d"
      % (workload, base_rev, len(pairs), seed0, int(seed0) + len(pairs) - 1))
host = [m for m in better if not m.startswith("sim_")]
print("%-5s %-6s " % ("pair", "first") +
      " ".join("%27s" % (m + " base/change") for m in host))
for p in pairs:
    b, c = runs[p]["base"], runs[p]["change"]
    print("%-5d %-6s " % (p, "base" if p % 2 else "change") +
          " ".join("%13.6g/%-13.6g" % (b[m]["value"], c[m]["value"])
                   for m in host))

print()
print("%-22s %12s %12s %12s %12s %12s %12s %7s %6s" %
      ("metric", "base_med", "base_q1", "base_q3", "chg_med", "chg_q1",
       "chg_q3", "ratio", "wins"))
diverged = []
for m, direction in better.items():
    b = [runs[p]["base"][m]["value"] for p in pairs]
    c = [runs[p]["change"][m]["value"] for p in pairs]
    if m.startswith("sim_"):
        diverged += ["%s (pair %d)" % (m, p)
                     for p, x, y in zip(pairs, b, c) if x != y]
    wins = sum((y > x) if direction == "higher" else (y < x)
               for x, y in zip(b, c))
    bm, cm = quantile(b, 0.5), quantile(c, 0.5)
    print("%-22s %12.6g %12.6g %12.6g %12.6g %12.6g %12.6g %7.3f %3d/%-2d" %
          (m, bm, quantile(b, 0.25), quantile(b, 0.75), cm,
           quantile(c, 0.25), quantile(c, 0.75),
           cm / bm if bm else float("nan"), wins, len(pairs)))
if diverged:
    print("FAIL: simulated outputs differ: " + ", ".join(diverged))
    sys.exit(1)
print("sim_* identical in every pair")
EOF
