#!/usr/bin/env python3
"""Build and run the seeded benchmark; print its result as one JSON line.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (CMake, Release) into .bench_build/perfbench, runs one
workload, and prints the run's context, its layer table and, as the last
line, {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones. Full results, and with
--trace 1 the sampled spans, are written under .bench_out/. The exit
code is 0 only when every output check passed. README.md beside this
file describes the workloads and metrics.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(".bench_build", "perfbench")
OUT = ".bench_out"
WORKLOADS = ("te_hit_read", "tp_gc_mixed", "mmap_sql_update")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, log):
    with open(log, "ab") as f:
        return subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode


def build():
    """Configure and build the benchmark binary; return its path."""
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(BUILD, "build.log")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run_logged(cmd, log) != 0:
            msg = "configure failed" + tail(log)
            shutil.rmtree(BUILD, ignore_errors=True)
            fail(msg)
    jobs = str(min(4, os.cpu_count() or 1))
    if run_logged(["cmake", "--build", BUILD, "--target", "perfbench",
                   "-j", jobs], log) != 0:
        fail("build failed" + tail(log))
    return os.path.join(BUILD, "perfbench")


def tail(log, n=30):
    try:
        with open(log, errors="replace") as f:
            return "\n" + "".join(f.readlines()[-n:])
    except OSError:
        return ""


def cache_value(key):
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_rev():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                           text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "none (not a git checkout)"


def compiler():
    cxx = cache_value("CMAKE_CXX_COMPILER")
    try:
        r = subprocess.run([cxx, "--version"], capture_output=True, text=True,
                           timeout=10)
        return r.stdout.splitlines()[0]
    except (OSError, subprocess.SubprocessError, IndexError):
        return cxx


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 0:
        fail("--seed and --seconds must not be negative")

    binary = build()
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, "%s-seed%d-trace%d" % (args.workload, args.seed,
                                                     args.trace))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", stem + "-spans.json"]

    load_start = os.getloadavg()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 1)
    load_end = os.getloadavg()
    sys.stderr.write(proc.stderr)
    try:
        res = json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        fail("no result from the benchmark binary (exit %d)" % proc.returncode,
             1)

    context = {
        "git_rev": git_rev(),
        "build_type": cache_value("CMAKE_BUILD_TYPE"),
        "compiler": compiler(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "loadavg_start": list(load_start),
        "loadavg_end": list(load_end),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": res["samples"],
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    with open(stem + ".json", "w") as f:
        json.dump({"context": context, "result": res}, f, indent=1)

    print("context " + json.dumps(context))
    for section in ("layers", "layer_counts", "details"):
        for name, m in res.get(section, {}).items():
            print("%-13s %-36s %16.6g %s" % (section, name, m["value"],
                                             m["unit"]))
    for check in res["checks"]:
        print("FAILED CHECK: " + check)

    ok = proc.returncode == 0 and res["correct"]
    print(json.dumps({"correct": bool(ok), "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": res["metrics"]}))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
