/**
 * @file
 * google-benchmark microbenchmarks over the simulator's hot paths and
 * the design-choice ablations DESIGN.md calls out (tag probe cost,
 * dual-channel split, clone-vs-serialize hazard policies).
 *
 * Results are written to BENCH_hotpaths.json (override the path with
 * HAMS_BENCH_JSON) so every PR records a perf trajectory; the
 * `allocs_per_op` counters report steady-state heap allocations per
 * simulated operation, which the hot paths keep at zero.
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "core/hams_system.hh"
#include "core/mos_tag_array.hh"
#include "cpu/cache_model.hh"
#include "dram/dram_device.hh"
#include "flash/fil.hh"
#include "ftl/page_ftl.hh"
#include "mem/sparse_memory.hh"
#include "nvme/queue_pair.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "ssd/device_configs.hh"
#include "ssd/dram_buffer.hh"

namespace {

using namespace hams;

/** Report heap allocations per loop iteration of the timed run. */
void
reportAllocRate(benchmark::State& state, std::uint64_t alloc_start)
{
    state.counters["allocs_per_op"] = benchmark::Counter(
        static_cast<double>(bench::threadAllocCallsNow() - alloc_start) /
        static_cast<double>(state.iterations()));
}

void
BM_EventQueueScheduleRun(benchmark::State& state)
{
    EventQueue eq;
    std::uint64_t sink = 0;
    std::uint64_t allocs = bench::threadAllocCallsNow();
    for (auto _ : state) {
        for (int i = 0; i < 64; ++i)
            eq.schedule(i, [&sink] { ++sink; });
        eq.run();
    }
    benchmark::DoNotOptimize(sink);
    reportAllocRate(state, allocs);
}
BENCHMARK(BM_EventQueueScheduleRun);

void
BM_EventQueueScheduleCancel(benchmark::State& state)
{
    // Schedule/deschedule churn: the generation-tagged free-list arena
    // replaces the old hash-set lazy-cancel scheme.
    EventQueue eq;
    EventId ids[64];
    std::uint64_t allocs = bench::threadAllocCallsNow();
    for (auto _ : state) {
        for (int i = 0; i < 64; ++i)
            ids[i] = eq.schedule(i + 1, [] {});
        for (int i = 0; i < 64; ++i)
            eq.deschedule(ids[i]);
        eq.run();
    }
    reportAllocRate(state, allocs);
}
BENCHMARK(BM_EventQueueScheduleCancel);

void
BM_TagArrayProbe(benchmark::State& state)
{
    MosTagArray tags(8ull << 30, 128 * 1024);
    Rng rng(1);
    std::uint64_t hits = 0;
    for (auto _ : state) {
        Addr a = rng.below(64ull << 30);
        hits += tags.hit(a);
    }
    benchmark::DoNotOptimize(hits);
}
BENCHMARK(BM_TagArrayProbe);

void
BM_DramAccess64B(benchmark::State& state)
{
    DramDevice dram(Ddr4Timing::speedGrade(2133), 1ull << 30);
    Rng rng(2);
    Tick t = 0;
    for (auto _ : state)
        t = dram.access(rng.below(1ull << 30) & ~Addr(63), 64,
                        MemOp::Read, t).ready;
    benchmark::DoNotOptimize(t);
}
BENCHMARK(BM_DramAccess64B);

void
BM_FtlWritePage(benchmark::State& state)
{
    FlashGeometry g;
    g.channels = 8;
    g.blocksPerPlane = 256;
    g.pageSize = 2048;
    Fil fil(g, NandTiming::zNand());
    PageFtl ftl(g, fil);
    Rng rng(3);
    Tick t = 0;
    std::uint64_t hot = ftl.logicalPages() / 2;
    for (auto _ : state)
        t = ftl.writePage(rng.below(hot), 2048, t);
    benchmark::DoNotOptimize(t);
}
BENCHMARK(BM_FtlWritePage);

void
BM_FtlAllocate(benchmark::State& state)
{
    // Stress the free-block allocator: tiny blocks so nearly every
    // write opens a fresh one, thousands of free blocks in the unit so
    // the old O(free-list) wear scan would dominate. The min-wear heap
    // keeps this O(log n) — and allocation-free.
    FlashGeometry g;
    g.channels = 1;
    g.packagesPerChannel = 1;
    g.diesPerPackage = 1;
    g.planesPerDie = 1;
    g.blocksPerPlane = 4096;
    g.pagesPerBlock = 4;
    g.pageSize = 2048;
    Fil fil(g, NandTiming::zNand());
    PageFtl ftl(g, fil);
    Rng rng(5);
    std::uint64_t hot = ftl.logicalPages() / 2;
    Tick t = 0;
    // Warm every block's lazy reverse-map arrays (first-touch is
    // amortized, like sparse memory's) so the timed loop measures the
    // steady-state allocator.
    for (std::uint64_t i = 0; i < hot * 4; ++i)
        t = ftl.writePage(rng.below(hot), 2048, t);
    std::uint64_t allocs = bench::threadAllocCallsNow();
    for (auto _ : state)
        t = ftl.writePage(rng.below(hot), 2048, t);
    benchmark::DoNotOptimize(t);
    reportAllocRate(state, allocs);
}
BENCHMARK(BM_FtlAllocate);

/**
 * A foreground read that suspends background work, with N tracked
 * background erases spread one per die over the first N of 256 dies.
 * Each read goes to a die holding one of them, so every read suspends
 * exactly one op; the other N - 1 sit on other dies. The suspension
 * extends its own die's ops only, so ns/op must not grow with N.
 */
void
BM_FilSuspendWithLiveOps(benchmark::State& state)
{
    FlashGeometry g;
    g.channels = 16;
    g.packagesPerChannel = 8;
    g.diesPerPackage = 2;
    Fil fil(g, NandTiming::zNand());
    auto dieAddress = [&g](std::uint64_t die) {
        return FlashAddress{
            static_cast<std::uint32_t>(die % g.channels),
            static_cast<std::uint32_t>(die / g.channels %
                                       g.packagesPerChannel),
            static_cast<std::uint32_t>(die / g.channels /
                                       g.packagesPerChannel),
            0, 0, 0}.flatten(g);
    };
    const auto live = static_cast<std::uint64_t>(state.range(0));
    std::vector<FlashOpHandle> ops;
    for (std::uint64_t die = 0; die < live; ++die)
        ops.push_back(fil.submitTracked(
            {FlashOp::Type::Erase, dieAddress(die), 0, true}, 0));
    // Each read finds its die's erase pending, suspends it and pushes
    // it out by the read's occupancy, so the next read on that die
    // suspends again.
    std::uint64_t next = 0;
    Tick t = 0;
    std::uint64_t suspensions = fil.activity().suspensions;
    std::uint64_t allocs = bench::threadAllocCallsNow();
    for (auto _ : state)
        t = fil.submit(
            {FlashOp::Type::Read, dieAddress(next++ % live), 4096}, 0);
    benchmark::DoNotOptimize(t);
    reportAllocRate(state, allocs);
    state.counters["suspensions_per_op"] = benchmark::Counter(
        static_cast<double>(fil.activity().suspensions - suspensions) /
        static_cast<double>(state.iterations()));
    for (FlashOpHandle h : ops)
        fil.release(h);
}
BENCHMARK(BM_FilSuspendWithLiveOps)->Arg(16)->Arg(256);

/**
 * One foreground read and one program through the FIL on the stock
 * ULL-Flash geometry, each on a different parallel unit: the per-op
 * cost of resolving a PPN to its site plus the timeline arithmetic.
 */
void
BM_FilSubmit(benchmark::State& state)
{
    SsdConfig cfg = ullFlashConfig(1ull << 30, false);
    Fil fil(cfg.geom, cfg.nand);
    const std::uint64_t pages = cfg.geom.totalPages();
    const std::uint64_t stride = cfg.geom.pagesPerPlane() + 1;
    std::uint64_t ppn = 0;
    Tick t = 0;
    std::uint64_t allocs = bench::threadAllocCallsNow();
    for (auto _ : state) {
        t = fil.submit({FlashOp::Type::Read, ppn, 2048}, t);
        ppn = (ppn + stride) % pages;
        t = fil.submit({FlashOp::Type::Program, ppn, 2048}, t);
        ppn = (ppn + stride) % pages;
    }
    benchmark::DoNotOptimize(t);
    reportAllocRate(state, allocs);
}
BENCHMARK(BM_FilSubmit);

void
BM_QueuePairPushFetch(benchmark::State& state)
{
    SparseMemory mem(1 << 20);
    QueuePair qp(mem, 0, 512 << 10, 256);
    NvmeCommand cmd = makeReadCommand(1, 0, 32, 0);
    for (auto _ : state) {
        qp.push(cmd);
        benchmark::DoNotOptimize(qp.fetch());
    }
}
BENCHMARK(BM_QueuePairPushFetch);

void
BM_CacheModelAccess(benchmark::State& state)
{
    CacheModel l1(CacheConfig{64 * 1024, 64, 4, nanoseconds(1)});
    Rng rng(4);
    std::uint64_t hits = 0;
    for (auto _ : state)
        hits += l1.access(rng.below(1 << 20), false).hit;
    benchmark::DoNotOptimize(hits);
}
BENCHMARK(BM_CacheModelAccess);

/**
 * One msync-sized dirtyFrames() round over the mmap_sql_update page
 * cache: 48 MiB of 4 KiB frames, all resident, 64 of them dirty and
 * spread evenly through the LRU order. The caller's scratch is reused,
 * so allocs_per_op must read 0.
 */
void
BM_DramBufferDirtyFrames(benchmark::State& state)
{
    DramBufferConfig cfg;
    cfg.capacity = 48ull << 20;
    DramBuffer buf(cfg);
    const std::uint64_t frames = buf.maxFrames();
    for (std::uint64_t i = 0; i < frames; ++i)
        buf.insert(i * 3, /*dirty=*/i % (frames / 64) == 0);
    std::vector<std::uint64_t> scratch;
    buf.dirtyFrames(scratch);
    std::uint64_t allocs = bench::threadAllocCallsNow();
    for (auto _ : state) {
        buf.dirtyFrames(scratch);
        benchmark::DoNotOptimize(scratch.data());
        benchmark::ClobberMemory();
    }
    reportAllocRate(state, allocs);
    state.counters["dirty_frames"] =
        benchmark::Counter(static_cast<double>(scratch.size()));
}
BENCHMARK(BM_DramBufferDirtyFrames);

void
BM_SparseMemoryWrite4K(benchmark::State& state)
{
    // Steady state: the 64 MiB working set is pre-touched, so the loop
    // measures the two-level table walk + memcpy, not first-touch
    // allocation (see BM_SparseMemoryFirstTouch for that).
    constexpr std::uint64_t working_set = 64ull << 20;
    SparseMemory mem(1ull << 30);
    std::vector<std::uint8_t> buf(4096, 0xAB);
    mem.fill(0, 0, working_set);
    Rng rng(5);
    std::uint64_t allocs = bench::threadAllocCallsNow();
    for (auto _ : state)
        mem.write(rng.below(working_set / 4096) * 4096, buf.data(),
                  buf.size());
    reportAllocRate(state, allocs);
}
BENCHMARK(BM_SparseMemoryWrite4K);

void
BM_SparseMemoryFirstTouch(benchmark::State& state)
{
    // Cold path: every write allocates (and zeroes) a fresh frame.
    SparseMemory mem(1ull << 40);
    std::vector<std::uint8_t> buf(4096, 0xCD);
    Addr next = 0;
    for (auto _ : state) {
        mem.write(next, buf.data(), buf.size());
        next += 4096;
    }
}
BENCHMARK(BM_SparseMemoryFirstTouch);

void
BM_SparseMemorySpanRead128K(benchmark::State& state)
{
    // The MoS-page-sized span transfer of the miss path: 32 frames per
    // read, walked with direct indexing.
    SparseMemory mem(1ull << 30);
    std::vector<std::uint8_t> buf(128 * 1024);
    mem.fill(0, 0x5A, 16ull << 20);
    Rng rng(6);
    std::uint64_t allocs = bench::threadAllocCallsNow();
    for (auto _ : state)
        mem.read(rng.below((16ull << 20) / buf.size()) * buf.size(),
                 buf.data(), buf.size());
    reportAllocRate(state, allocs);
}
BENCHMARK(BM_SparseMemorySpanRead128K);

/** The HAMS hit path: logic latency + one NVDIMM access, no I/O. */
void
BM_HamsHit_Extend(benchmark::State& state)
{
    HamsSystemConfig cfg = HamsSystemConfig::looseExtend();
    cfg.nvdimm.capacity = 128ull << 20;
    cfg.ssdRawBytes = 1ull << 30;
    cfg.pinnedBytes = 32ull << 20;
    cfg.functionalData = false;
    HamsSystem sys(cfg);

    std::uint32_t v = 1;
    sys.write(0, &v, sizeof(v)); // fault the page in once
    std::uint64_t allocs = bench::threadAllocCallsNow();
    int flip = 0;
    for (auto _ : state) {
        // Bounce within the resident page: every access hits.
        sys.write((flip++ % 2) ? 64 : 0, &v, sizeof(v));
    }
    reportAllocRate(state, allocs);
    state.counters["sim_us_per_hit"] = benchmark::Counter(
        ticksToUs(sys.eventQueue().now()) /
        static_cast<double>(state.iterations()));
}
BENCHMARK(BM_HamsHit_Extend);

/** Ablation: HAMS end-to-end miss latency per hazard policy. */
void
hamsMissLatency(benchmark::State& state, HazardPolicy policy)
{
    HamsSystemConfig cfg = HamsSystemConfig::looseExtend();
    cfg.hazard = policy;
    cfg.nvdimm.capacity = 128ull << 20;
    cfg.ssdRawBytes = 1ull << 30;
    cfg.pinnedBytes = 32ull << 20;
    cfg.functionalData = false;
    HamsSystem sys(cfg);
    std::uint64_t cache = sys.pinnedRegion().cacheBytes();

    std::uint32_t v = 1;
    int flip = 0;
    std::uint64_t allocs = bench::threadAllocCallsNow();
    for (auto _ : state) {
        // Alternate aliasing dirty pages: every write is a miss with a
        // dirty eviction — the worst case each policy must handle.
        sys.write((flip++ % 2) ? cache : 0, &v, sizeof(v));
    }
    reportAllocRate(state, allocs);
    state.counters["sim_us_per_miss"] = benchmark::Counter(
        ticksToUs(sys.eventQueue().now()) /
        static_cast<double>(state.iterations()));
}

void
BM_HamsMiss_PrpClone(benchmark::State& state)
{
    hamsMissLatency(state, HazardPolicy::PrpClone);
}
BENCHMARK(BM_HamsMiss_PrpClone);

void
BM_HamsMiss_SerializeEvictFill(benchmark::State& state)
{
    hamsMissLatency(state, HazardPolicy::SerializeEvictFill);
}
BENCHMARK(BM_HamsMiss_SerializeEvictFill);

/** Ablation: dual-channel split vs whole-page FTL units. */
void
ssdReadLatency(benchmark::State& state, std::uint32_t unit)
{
    SsdConfig cfg = ullFlashConfig(1ull << 30, false);
    cfg.hasBuffer = false;
    if (unit == 4096) {
        cfg.geom.pageSize = 4096;
        cfg.geom.blocksPerPlane /= 2;
    }
    Ssd ssd(cfg);
    Tick t = ssd.hostWrite(0, 1, true, 0);
    for (auto _ : state)
        t = ssd.hostRead(0, 1, t);
    state.counters["sim_us_per_read"] = benchmark::Counter(
        ticksToUs(t) / static_cast<double>(state.iterations()));
}

void
BM_SsdRead_SplitUnits(benchmark::State& state)
{
    ssdReadLatency(state, 2048);
}
BENCHMARK(BM_SsdRead_SplitUnits);

void
BM_SsdRead_WholeUnits(benchmark::State& state)
{
    ssdReadLatency(state, 4096);
}
BENCHMARK(BM_SsdRead_WholeUnits);

} // namespace

/**
 * Custom main: mirror the console output into a JSON file
 * (BENCH_hotpaths.json by default, HAMS_BENCH_JSON to override) so CI
 * and scripts/bench.sh hotpaths can track the perf trajectory.
 */
int
main(int argc, char** argv)
{
    // Default to JSON output in BENCH_hotpaths.json unless the caller
    // passed an explicit --benchmark_out.
    std::vector<char*> args(argv, argv + argc);
    std::string out_path = hams::bench::jsonOutPath("BENCH_hotpaths.json");
    std::string out_flag;
    bool has_out = false;
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]).rfind("--benchmark_out=", 0) == 0)
            has_out = true;
    std::string fmt_flag = "--benchmark_out_format=json";
    if (!has_out) {
        out_flag = "--benchmark_out=" + out_path;
        args.push_back(out_flag.data());
        args.push_back(fmt_flag.data());
    }
    int args_count = static_cast<int>(args.size());

    benchmark::Initialize(&args_count, args.data());
    if (benchmark::ReportUnrecognizedArguments(args_count, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    if (!has_out)
        std::printf("\nResults written to %s\n", out_path.c_str());
    return 0;
}
