/**
 * @file
 * Core-model tests: cache hierarchy filtering, IPC accounting, stall
 * attribution and the platform-sensitivity property that drives the
 * paper's Fig. 7b.
 */

#include <gtest/gtest.h>

#include "baselines/mmap_platform.hh"
#include "baselines/oracle_platform.hh"
#include "core/hams_system.hh"
#include "cpu/cache_model.hh"
#include "cpu/core_model.hh"
#include "sim/logging.hh"
#include "workload/workload.hh"

namespace hams {
namespace {

/** @p stmt must fatal() with a message naming @p field. */
#define EXPECT_FATAL_NAMING(stmt, field)                                  \
    EXPECT_THROW(                                                         \
        {                                                                 \
            try {                                                         \
                stmt;                                                     \
            } catch (const FatalError& e) {                               \
                EXPECT_NE(std::string(e.what()).find(field),              \
                          std::string::npos)                              \
                    << e.what();                                          \
                throw;                                                    \
            }                                                             \
        },                                                                \
        FatalError)

TEST(CacheModelTest, HitAfterMiss)
{
    CacheModel c(CacheConfig{1024, 64, 2, nanoseconds(1)});
    EXPECT_FALSE(c.access(0, false).hit);
    EXPECT_TRUE(c.access(0, false).hit);
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(CacheModelTest, LruReplacementWithinSet)
{
    // 2-way, 8 sets of 64 B lines: lines 0, 512, 1024 alias set 0.
    CacheModel c(CacheConfig{1024, 64, 2, nanoseconds(1)});
    c.access(0, false);
    c.access(512, false);
    c.access(0, false);      // refresh line 0
    c.access(1024, false);   // evicts 512 (LRU)
    EXPECT_TRUE(c.access(0, false).hit);
    EXPECT_FALSE(c.access(512, false).hit);
}

TEST(CacheModelTest, DirtyVictimReported)
{
    // 128 B direct-mapped cache, 64 B lines: addresses 0 and 128 alias
    // set 0, so the second access evicts the dirty line 0.
    CacheModel d(CacheConfig{128, 64, 1, nanoseconds(1)});
    d.access(0, true); // dirty
    CacheResult r = d.access(128, false);
    EXPECT_TRUE(r.evictedDirty);
    EXPECT_EQ(r.evictedLine, 0u);
}

TEST(CacheModelTest, FlushInvalidates)
{
    CacheModel c(CacheConfig{1024, 64, 2, nanoseconds(1)});
    c.access(0, true);
    c.flush();
    EXPECT_FALSE(c.access(0, false).hit);
}

TEST(CacheModelTest, BadGeometryFatalsNamingTheField)
{
    EXPECT_FATAL_NAMING((void)CacheModel(CacheConfig{1024, 64, 0, 1}),
                        "CacheConfig::ways");
    EXPECT_FATAL_NAMING((void)CacheModel(CacheConfig{1024, 0, 2, 1}),
                        "CacheConfig::lineBytes");
    // One 64 B line cannot fill a 2-way set: zero sets.
    EXPECT_FATAL_NAMING((void)CacheModel(CacheConfig{64, 64, 2, 1}),
                        "CacheConfig::sizeBytes");
    // Three lines do not split into 2-way sets.
    EXPECT_FATAL_NAMING((void)CacheModel(CacheConfig{192, 64, 2, 1}),
                        "CacheConfig::ways (2) must divide");
}

TEST(CoreModel, BadConfigFatalsNamingTheField)
{
    OraclePlatform oracle({1ull << 30, 2133});
    CoreConfig zero_freq;
    zero_freq.freqGhz = 0;
    EXPECT_FATAL_NAMING((void)CoreModel(oracle, zero_freq),
                        "CoreConfig::freqGhz");
    CoreConfig negative_cpi;
    negative_cpi.baseCpi = -1;
    EXPECT_FATAL_NAMING((void)CoreModel(oracle, negative_cpi),
                        "CoreConfig::baseCpi");
}

TEST(CoreModel, NullGeneratorFatalsNamingIt)
{
    OraclePlatform oracle({1ull << 30, 2133});
    auto gen = makeWorkload("rndRd", 16ull << 20);
    std::vector<WorkloadGenerator*> gens{gen.get(), nullptr};
    SmpModel smp(oracle);
    EXPECT_FATAL_NAMING((void)smp.run(gens, 1000), "gens[1]");
}

TEST(CoreModel, RunsBudgetedInstructions)
{
    OraclePlatform oracle({1ull << 30, 2133});
    CoreModel core(oracle);
    auto gen = makeWorkload("seqRd", 16ull << 20);
    RunResult r = core.run(*gen, 100000);
    EXPECT_GE(r.instructions, 100000u);
    EXPECT_GT(r.simTime, 0u);
    EXPECT_GT(r.ipc, 0.0);
    EXPECT_GT(r.opsCompleted, 0u);
}

TEST(CoreModel, CachesFilterPlatformTraffic)
{
    OraclePlatform oracle({1ull << 30, 2133});
    CoreModel core(oracle);
    // A 1 MiB random working set fits in the 2 MB L2: after warmup the
    // caches absorb most of the traffic.
    WorkloadSpec spec;
    spec.name = "hotset";
    spec.family = "micro";
    spec.datasetBytes = 1ull << 20;
    spec.pattern = AccessPattern::Random;
    spec.readFraction = 1.0;
    spec.accessesPerOp = 16;
    spec.computePerAccess = 1;
    SyntheticWorkload gen(spec);
    RunResult r = core.run(gen, 200000);
    EXPECT_LT(r.platformAccesses, r.memInstructions);
    EXPECT_GT(r.l1Hits + r.l2Hits, 0u);
}

TEST(CoreModel, IpcCollapsesOnSlowPlatform)
{
    // The paper's Fig. 7b: the same workload's IPC collapses by orders
    // of magnitude when raw flash backs the MMU instead of DRAM.
    auto gen1 = makeWorkload("rndRd", 32ull << 20);
    auto gen2 = makeWorkload("rndRd", 32ull << 20);

    OraclePlatform oracle({1ull << 30, 2133});
    CoreModel fast_core(oracle);
    RunResult fast = fast_core.run(*gen1, 300000);

    MmapConfig mcfg;
    mcfg.dramBytes = 64ull << 20;
    mcfg.pageCacheBytes = 8ull << 20; // thrashes
    mcfg.ssdRawBytes = 1ull << 30;
    MmapPlatform slow(mcfg);
    CoreModel slow_core(slow);
    RunResult slow_r = slow_core.run(*gen2, 300000);

    EXPECT_GT(fast.ipc, 5 * slow_r.ipc);
    EXPECT_GT(slow_r.stallTime, slow_r.activeTime);
}

TEST(CoreModel, StallBreakdownPopulated)
{
    MmapConfig mcfg;
    mcfg.dramBytes = 64ull << 20;
    mcfg.pageCacheBytes = 8ull << 20;
    mcfg.ssdRawBytes = 1ull << 30;
    MmapPlatform p(mcfg);
    CoreModel core(p);
    auto gen = makeWorkload("rndWr", 32ull << 20);
    RunResult r = core.run(*gen, 200000);
    EXPECT_GT(r.stallBreakdown.os, 0u);
    EXPECT_GT(r.stallBreakdown.ssd, 0u);
}

TEST(CoreModel, HamsBeatsMmapOnRandomPages)
{
    // The headline claim, in miniature: HAMS-backed random page access
    // must outrun the MMF stack.
    auto gen1 = makeWorkload("rndRd", 32ull << 20);
    auto gen2 = makeWorkload("rndRd", 32ull << 20);

    HamsSystemConfig hcfg = HamsSystemConfig::tightExtend();
    hcfg.nvdimm.capacity = 64ull << 20;
    hcfg.ssdRawBytes = 1ull << 30;
    hcfg.pinnedBytes = 32ull << 20;
    hcfg.functionalData = false;
    HamsSystem hams(hcfg);
    CoreModel hams_core(hams);
    RunResult hr = hams_core.run(*gen1, 200000);

    MmapConfig mcfg;
    mcfg.dramBytes = 64ull << 20;
    mcfg.pageCacheBytes = 24ull << 20;
    mcfg.ssdRawBytes = 1ull << 30;
    MmapPlatform mmap(mcfg);
    CoreModel mmap_core(mmap);
    RunResult mr = mmap_core.run(*gen2, 200000);

    EXPECT_GT(hr.pagesPerSec, mr.pagesPerSec);
}

TEST(CoreModel, CpuEnergyScalesWithTime)
{
    OraclePlatform oracle({1ull << 30, 2133});
    CoreModel core(oracle);
    auto gen = makeWorkload("KMN", 16ull << 20);
    RunResult r = core.run(*gen, 150000);
    EXPECT_GT(r.cpuEnergyJ, 0.0);
}

TEST(CoreModel, FlushBarriersStallOnMmap)
{
    MmapConfig mcfg;
    mcfg.dramBytes = 64ull << 20;
    mcfg.pageCacheBytes = 32ull << 20;
    mcfg.ssdRawBytes = 1ull << 30;
    MmapPlatform p(mcfg);
    CoreModel core(p);
    // rndIns flushes every 32 ops at ~20 K instructions per op, so the
    // budget must span a whole commit group.
    auto gen = makeWorkload("rndIns", 32ull << 20);
    RunResult r = core.run(*gen, 2000000);
    EXPECT_GT(r.flushTime, 0u);
}

} // namespace
} // namespace hams
