/**
 * @file
 * Scale-out sweep: N cores driving M full device stacks behind one
 * range-sharded ShardedPlatform (baselines/sharded_platform.hh) — the
 * multi-device deployment the paper's single-device evaluation stops
 * short of, over the same HAMS configurations.
 *
 * Grid: {hams-TE, hams-TP} x {rndRd, update} x M ∈ {1, 2, 4, 8}
 * devices x {1, 4} cores per device (N = M x cores-per-device <= 32).
 * Every shard carries the full single-device geometry and its cores'
 * traffic stays inside the shard's range (weak scaling, shard-friendly
 * placement), so scaling_efficiency compares the M-device aggregate
 * against M perfectly-scaled copies of the matching 1-device cell.
 * The cost of cross-shard ordering gets its own columns: barriers, the
 * skew the slowest shard adds, and the fence release charge (update
 * carries SQLite-style durability barriers; rndRd never flushes).
 *
 * Gates (the binary exits non-zero if any fails):
 *  - m1_identical (also in the JSON): every M = 1 grid configuration
 *    rerun through a 1-shard ShardedPlatform is bit-identical to the
 *    bare platform;
 *  - rerun_identical (also in the JSON): an M = 4 cell rerun from
 *    scratch reproduces the sweep's result bit for bit;
 *  - scaling_efficiency >= 0.7 on every 4-device rndRd cell;
 *  - flush_barriers > 0 and fence_ns_per_barrier > 0 on every
 *    multi-device update cell.
 *
 * Deterministic: fixed-seed shard/core workload streams on fresh
 * platforms per cell — reruns at any HAMS_BENCH_THREADS are
 * byte-identical. Results land in BENCH_scaleout.json
 * (HAMS_BENCH_JSON overrides; HAMS_BENCH_SCALE enlarges the runs).
 */

#include <string>
#include <vector>

#include "bench_util.hh"

namespace {

bool
sameSmp(const hams::SmpResult& a, const hams::SmpResult& b)
{
    if (a.perCore.size() != b.perCore.size())
        return false;
    for (std::size_t i = 0; i < a.perCore.size(); ++i)
        if (!hams::sameSimOutputs(a.perCore[i], b.perCore[i]))
            return false;
    return hams::sameSimOutputs(a.combined, b.combined);
}

} // namespace

int
main()
{
    using namespace hams;
    using namespace hams::bench;

    banner("scaleout",
           "N-core x M-device sharded-platform scaling (ShardedPlatform)");
    BenchGeometry geom = BenchGeometry::scaled();

    const std::vector<std::string> platforms = {"hams-TE", "hams-TP"};
    const std::vector<std::string> workloads = {"rndRd", "update"};
    const std::vector<std::uint32_t> cpds = {1, 4}; // cores per device
    const std::vector<std::uint32_t> devices = {1, 2, 4, 8};

    std::vector<SmpSweepCell> cells;
    for (const auto& p : platforms)
        for (const auto& w : workloads)
            for (std::uint32_t cpd : cpds)
                for (std::uint32_t m : devices)
                    cells.push_back({p, w, cpd * m, geom, m});
    std::vector<SmpCellResult> results = runSmpSweep(cells);

    // m1_identical: the 1-shard ShardedPlatform is a pure pass-through,
    // so every M = 1 configuration is bit-identical to the bare
    // platform the sweep ran. rerun_identical: rerunning an M = 4 cell
    // from scratch reproduces the sweep's result bit for bit.
    bool m1_identical = true;
    bool rerun_identical = true;
    std::size_t twin_cursor = 0;
    for (const auto& p : platforms)
        for (const auto& w : workloads)
            for (std::uint32_t cpd : cpds)
                for (std::uint32_t m : devices) {
                    const SmpResult& swept = results[twin_cursor++].smp;
                    if (m == 1) {
                        auto sp = makeShardedPlatform(p, geom, 1);
                        m1_identical &= sameSmp(
                            runShardedSmpOn(*sp, w, cpd, geom), swept);
                    } else if (m == 4 && p == "hams-TE" && cpd == 4) {
                        auto sp = makeShardedPlatform(p, geom, 4);
                        rerun_identical &= sameSmp(
                            runShardedSmpOn(*sp, w, cpd * m, geom), swept);
                    }
                }

    Report rep("scaleout",
               {{"name", "%s"},
                {nullptr, nullptr, "platform", "%-8s"},
                {nullptr, nullptr, "workload", "%-8s"},
                {"devices", "%llu", "dev", "%4llu"},
                {nullptr, nullptr, "c/d", "%4llu"},
                {"cores", "%llu", "cores", "%6llu"},
                {"ops_per_sec", "%.1f", "ops/s(agg)", "%14.0f"},
                {"bytes_per_sec", "%.1f"},
                {"sim_time_ticks", "%llu"},
                {"scaling_efficiency", "%.4f", "scale", "%7.2f"},
                {"routed_accesses", "%llu"},
                {"flush_barriers", "%llu", "barriers", "%9llu"},
                {"flush_skew_ns_per_barrier", "%.1f", "skew-ns/f", "%11.1f"},
                {"fence_ns_per_barrier", "%.1f", "fence-ns/f", "%11.1f"}});
    rep.meta("m1_identical", m1_identical);
    rep.meta("rerun_identical", rerun_identical);
    rep.gate(m1_identical,
             "M=1 sharded cells diverged from the bare platform");
    rep.gate(rerun_identical, "M=4 rerun diverged");

    std::size_t cursor = 0;
    for (const auto& p : platforms) {
        for (const auto& w : workloads) {
            for (std::uint32_t cpd : cpds) {
                double base_ops = 0;
                for (std::uint32_t m : devices) {
                    const SmpCellResult& cell = results[cursor++];
                    const RunResult& comb = cell.smp.combined;
                    if (m == 1)
                        base_ops = comb.opsPerSec;
                    // Weak-scaling efficiency: M devices (and M x the
                    // cores) vs M perfectly-scaled 1-device cells.
                    double eff = base_ops > 0
                                     ? comb.opsPerSec / (base_ops * m)
                                     : 0;

                    const ShardedStats& st = cell.sharded;
                    std::uint64_t barriers = st.flushBarriers;
                    auto per_barrier = [barriers](Tick t) {
                        return barriers ? static_cast<double>(t) /
                                              (1000.0 * barriers)
                                        : 0;
                    };
                    double fence_ns = per_barrier(st.fenceTicks);
                    std::string name = strf("scaleout/%s/%s/d%u/c%u",
                                            p.c_str(), w.c_str(), m, cpd);
                    rep.row({name, p, w, m, cpd, cpd * m, comb.opsPerSec,
                             comb.bytesPerSec, comb.simTime, eff,
                             st.routedAccesses, barriers,
                             per_barrier(st.flushSkewTicks), fence_ns});

                    // Shard-friendly reads scale: >= 0.7 weak-scaling
                    // efficiency at 4 devices.
                    if (w == "rndRd" && m == 4)
                        rep.gate(eff >= 0.7, name + ": efficiency below "
                                                    "0.7 at 4 devices");
                    // Durability barriers cross every shard, and the
                    // fence release is charged.
                    if (w == "update" && m > 1) {
                        rep.gate(barriers > 0,
                                 name + ": no cross-shard flush barriers");
                        rep.gate(fence_ns > 0,
                                 name + ": fence cost column empty");
                    }
                }
            }
        }
    }
    return rep.finish();
}
