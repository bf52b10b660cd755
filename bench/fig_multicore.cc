/**
 * @file
 * Multi-core scaling sweep: N in-order cores sharing one platform
 * (cpu/smp_model.hh), the shape of the paper's Table II host (8-core
 * ARM v8) that the single-core figure harnesses cannot reach.
 *
 * N ∈ {1, 2, 4, 8} cores × {hams-TE, hams-TP, mmap, optane-P} ×
 * {rndRd, update}: aggregate throughput, scaling efficiency vs the
 * 1-core run, and — for the HAMS variants — the contention counters
 * that only exist under overlapping outstanding accesses: accesses
 * parked on busy frames (waitQueued), the deepest per-frame wait list
 * (waiterPeakDepth) and the persist-gate queue (persistGateWaits /
 * gateQueuePeakDepth).
 *
 * Deterministic: every cell is a fixed-seed sharded workload on a
 * fresh platform, so reruns — at any HAMS_BENCH_THREADS setting —
 * produce byte-identical tables. Results land in BENCH_multicore.json
 * (HAMS_BENCH_JSON overrides; HAMS_BENCH_SCALE enlarges the runs).
 */

#include <string>
#include <vector>

#include "bench_util.hh"

int
main()
{
    using namespace hams;
    using namespace hams::bench;

    banner("multicore",
           "N-core shared-platform scaling (SmpModel, Table II host)");
    BenchGeometry geom = BenchGeometry::scaled();

    const std::vector<std::uint32_t> core_counts = {1, 2, 4, 8};
    const std::vector<std::string> platforms = {"hams-TE", "hams-TP",
                                                "mmap", "optane-P"};
    const std::vector<std::string> workloads = {"rndRd", "update"};

    std::vector<SmpSweepCell> cells;
    for (const auto& p : platforms)
        for (const auto& w : workloads)
            for (std::uint32_t n : core_counts)
                cells.push_back({p, w, n, geom});
    std::vector<SmpCellResult> results = runSmpSweep(cells);

    Report rep("multicore",
               {{"name", "%s"},
                {nullptr, nullptr, "platform", "%-10s"},
                {nullptr, nullptr, "workload", "%-8s"},
                {"cores", "%llu", "cores", "%5llu"},
                {"ops_per_sec", "%.1f", "ops/s(agg)", "%14.0f"},
                {"bytes_per_sec", "%.1f"},
                {"agg_ipc", "%.4f"},
                {"sim_time_ticks", "%llu"},
                {"scaling_efficiency", "%.4f", "scale", "%7.2f"},
                {"wait_queued", "%llu", "waitQd", "%10llu"},
                {"waiter_peak_depth", "%llu", "waitPeak", "%9llu"},
                {"persist_gate_waits", "%llu", "gateWaits", "%10llu"},
                {"gate_queue_peak_depth", "%llu", "gatePeak", "%9llu"}});

    std::size_t cursor = 0;
    for (const auto& p : platforms) {
        for (const auto& w : workloads) {
            double base_ops = 0;
            for (std::uint32_t n : core_counts) {
                const SmpCellResult& cell = results[cursor++];
                const RunResult& comb = cell.smp.combined;
                if (n == 1)
                    base_ops = comb.opsPerSec;
                // Scaling efficiency: aggregate throughput relative to
                // a perfectly scaled 1-core run.
                double scale_eff =
                    base_ops > 0 ? comb.opsPerSec / (base_ops * n) : 0;
                HamsStats hams = cell.hasHamsStats ? cell.hams : HamsStats{};
                rep.row({strf("multicore/%s/%s/n%u", p.c_str(), w.c_str(), n),
                         p, w, n, comb.opsPerSec, comb.bytesPerSec, comb.ipc,
                         comb.simTime, scale_eff, hams.waitQueued,
                         hams.waiterPeakDepth, hams.persistGateWaits,
                         hams.gateQueuePeakDepth});
            }
        }
    }
    return rep.finish();
}
