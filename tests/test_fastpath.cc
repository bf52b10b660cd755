/**
 * @file
 * Immediate-completion fast-path tests: the CoreModel trampoline with
 * tryAccess inline completions must be observationally identical to the
 * all-events path — every simulated-time field of RunResult, the
 * event-queue time at every run boundary, the HAMS controller stats and
 * the NVMe engine stats bit-for-bit — on nine bench cells at the bench
 * geometry, and the hit path must stay allocation-free through the
 * *full* core loop, not just the controller.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "core/hams_system.hh"
#include "cpu/core_model.hh"
#include "sim/alloc_hook.hh"
#include "workload/workload.hh"

#include "same_run.hh"

namespace hams {
namespace {

std::unique_ptr<HamsSystem>
smallHams()
{
    HamsSystemConfig c = HamsSystemConfig::tightExtend();
    c.nvdimm.capacity = 96ull << 20;
    c.ssdRawBytes = 1ull << 30;
    c.pinnedBytes = 32ull << 20;
    c.functionalData = false;
    return std::make_unique<HamsSystem>(c);
}

/** One (platform × workload) cell of the differential. */
struct Cell
{
    const char* platform;
    const char* workload;
    /** Extend-mode HAMS: hits complete inline, so the fast path must
     *  fire well under half the all-events run's events. */
    bool inlineHits = false;
};

/**
 * Hit-dominated cells, where the fast path engages, plus miss-heavy
 * and persist-mode cells (hams-TP declines every inline completion),
 * where it must change nothing.
 */
const std::vector<Cell> cells = {
    {"mmap", "rndRd"},          {"mmap", "rndWr"},
    {"mmap", "update"},         {"oracle", "rndRd"},
    {"optane-P", "rndWr"},      {"hams-TE", "rndRd", true},
    {"hams-TE", "rndWr", true}, {"hams-TE", "update", true},
    {"hams-TP", "rndRd"},
};

/** Measured windows after the warmup run. */
constexpr int windows = 5;

/** One fast-path-on or -off half of a cell, after its runs. */
struct Half
{
    std::unique_ptr<MemoryPlatform> platform;
    std::vector<RunResult> runs; //!< warmup, then the measured windows
    std::vector<Tick> ends;      //!< eventQueue().now() after each run
};

/**
 * Drive @p cell the way the figure harnesses do — bench platform and
 * dataset, one core, a warmup run of half the budget — then @p windows
 * chained runs of the full budget. Every run() ends with the
 * conductor's run-boundary resync, so both halves start each run from
 * the same simulated time.
 */
Half
drive(const Cell& cell, const bench::BenchGeometry& geom, bool inline_on)
{
    Half h;
    h.platform = bench::makePlatform(cell.platform, geom);
    auto gen = makeWorkload(cell.workload,
                            geom.datasetBytesFor(cell.workload));
    CoreConfig cc;
    cc.inlineFastPath = inline_on;
    CoreModel core(*h.platform, cc);
    for (int i = 0; i <= windows; ++i) {
        h.runs.push_back(core.run(*gen, i == 0 ? geom.instructionBudget / 2
                                               : geom.instructionBudget));
        h.ends.push_back(h.platform->eventQueue().now());
    }
    return h;
}

TEST(FastPathDifferential, BenchCellsIdenticalOnAndOff)
{
    // The scale-1 bench geometry with a 4x instruction budget.
    bench::BenchGeometry geom;
    geom.instructionBudget *= 4;

    // Cell i / 2, fast path on for even i: the halves run in parallel.
    std::vector<Half> halves(2 * cells.size());
    bench::runCells(
        halves.size(),
        [](std::size_t i) {
            return std::string(cells[i / 2].platform) + " x " +
                   cells[i / 2].workload + (i % 2 ? " off" : " on");
        },
        [&](std::size_t i) {
            halves[i] = drive(cells[i / 2], geom, i % 2 == 0);
        });

    for (std::size_t c = 0; c < cells.size(); ++c) {
        const Half& on = halves[2 * c];
        const Half& off = halves[2 * c + 1];
        std::string tag =
            std::string(cells[c].workload) + " on " + cells[c].platform;
        for (std::size_t r = 0; r < on.runs.size(); ++r) {
            std::string what = tag + ", run " + std::to_string(r);
            expectIdentical(on.runs[r], off.runs[r], what.c_str());
            EXPECT_EQ(on.ends[r], off.ends[r]) << what;
        }

        auto* hams_on = dynamic_cast<HamsSystem*>(on.platform.get());
        auto* hams_off = dynamic_cast<HamsSystem*>(off.platform.get());
        if (!hams_on || !hams_off)
            continue;
        expectIdentical(hams_on->stats(), hams_off->stats(), tag.c_str());
        expectIdentical(hams_on->engineStats(), hams_off->engineStats(),
                        tag.c_str());
        // The fast path actually engaged: hits dominate and each inline
        // completion skips the event round trip.
        if (cells[c].inlineHits) {
            EXPECT_LT(on.platform->eventQueue().fired(),
                      off.platform->eventQueue().fired() / 2)
                << tag;
        }
    }
}

TEST(FastPathZeroAlloc, HitPathThroughFullCoreLoop)
{
    // A working set that fits the NVDIMM cache: after the warmup run
    // every platform access is an extend-mode hit, completed inline.
    // The measured runs differ only in op count, so equal allocation
    // deltas mean the per-access cost is literally zero — any per-op
    // allocation anywhere in the core loop (workload gen, caches,
    // callbacks, controller) would separate them.
    auto sys = smallHams();
    auto gen = makeWorkload("rndRd", 16ull << 20);
    CoreModel core(*sys);
    core.run(*gen, 300000); // warm caches, pools, arenas

    alloc_hook::AllocCounter allocs;
    core.run(*gen, 100000);
    std::uint64_t small = allocs.delta();
    allocs.rebase();
    core.run(*gen, 400000);
    std::uint64_t large = allocs.delta();
    EXPECT_EQ(small, large)
        << "per-access allocations on the inline hit path";
    EXPECT_GT(sys->stats().hits, 0u);
}

} // namespace
} // namespace hams
