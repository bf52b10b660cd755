/**
 * @file
 * Fig. 7(b) reproduction: why naive hardware bypass does not suffice.
 * IPC of bypass strategies: NVDIMM, raw ULL as memory, ULL with a
 * small page buffer (paper: 0.06 vs 0.001 vs 0.003 on the
 * microbenchmarks).
 *
 * Fig. 7(a), the mmap execution breakdown, reads the paper grid and
 * prints from fig_paper.
 */

#include <cstdio>
#include <vector>

#include "baselines/flatflash_platform.hh"
#include "bench_util.hh"

int
main()
{
    using namespace hams;
    using namespace hams::bench;

    banner("Fig. 7(b)", "naive-bypass IPC");
    BenchGeometry geom = BenchGeometry::scaled();

    std::vector<std::string> workloads;
    for (const auto& n : microWorkloadNames())
        workloads.push_back(n);
    for (const auto& n : sqliteWorkloadNames())
        workloads.push_back(n);

    // ---- (b) IPC of bypass strategies ----
    auto make_ull_direct = [&](bool buffered) {
        FlatFlashConfig c;
        c.hostCaching = buffered;
        // A small page buffer, not a full host cache (paper's ULL-buff).
        c.hostDramBytes = 8ull << 20;
        c.ssdRawBytes = geom.ssdRawBytes;
        c.mmioOverhead = microseconds(0.4); // raw load/store bypass
        c.promoteThreshold = 1;
        return std::make_unique<FlatFlashPlatform>(c);
    };

    std::printf("\n(b) IPC of bypass strategies\n");
    std::printf("%-10s %12s %12s %12s\n", "workload", "NVDIMM", "ULL",
                "ULL-buff");
    double sum_nv = 0, sum_ull = 0, sum_buf = 0;
    for (const auto& wl : workloads) {
        auto nvdimm = makePlatform("oracle", geom);
        RunResult rn = runOn(*nvdimm, wl, geom);
        auto ull = make_ull_direct(false);
        RunResult ru = runOn(*ull, wl, geom);
        auto ull_buf = make_ull_direct(true);
        RunResult rb = runOn(*ull_buf, wl, geom);
        std::printf("%-10s %12.4f %12.4f %12.4f\n", wl.c_str(), rn.ipc,
                    ru.ipc, rb.ipc);
        sum_nv += rn.ipc;
        sum_ull += ru.ipc;
        sum_buf += rb.ipc;
    }
    std::printf("average: NVDIMM %.4f, ULL %.4f, ULL-buff %.4f "
                "(paper micro: 0.06 / 0.001 / 0.003)\n",
                sum_nv / workloads.size(), sum_ull / workloads.size(),
                sum_buf / workloads.size());
    return 0;
}
