/**
 * @file
 * Core-driver tests: one- and N-core runs reproduce pinned fingerprints
 * (full RunResult plus platform stats) with the fast path on and off;
 * N-core runs are bit-identical across reruns; contention counters
 * (wait lists, persist gate) grow with core count on a shared HAMS
 * platform; bad inputs fatal(); and the per-core hit path through the
 * conductor stays allocation-free.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "baselines/mmap_platform.hh"
#include "core/hams_system.hh"
#include "cpu/core_model.hh"
#include "cpu/smp_model.hh"
#include "ftl/page_ftl.hh"
#include "sim/alloc_hook.hh"
#include "ssd/ssd.hh"
#include "workload/workload.hh"

#include "same_run.hh"

namespace hams {
namespace {

std::unique_ptr<HamsSystem>
smallHams(HamsMode mode)
{
    HamsSystemConfig c = mode == HamsMode::Persist
                             ? HamsSystemConfig::tightPersist()
                             : HamsSystemConfig::tightExtend();
    c.nvdimm.capacity = 96ull << 20;
    c.ssdRawBytes = 1ull << 30;
    c.pinnedBytes = 32ull << 20;
    c.functionalData = false;
    return std::make_unique<HamsSystem>(c);
}

std::unique_ptr<MmapPlatform>
smallMmap()
{
    MmapConfig c;
    c.dramBytes = 64ull << 20;
    c.pageCacheBytes = 48ull << 20;
    c.ssdRawBytes = 1ull << 30;
    return std::make_unique<MmapPlatform>(c);
}

/**
 * A small HAMS machine whose ULL-Flash runs background GC, prefilled
 * to 65% so the dirty evictions of a cache-overflowing write workload
 * overwrite live LBAs and drive real collection during the run.
 */
std::unique_ptr<HamsSystem>
smallHamsBgGc()
{
    HamsSystemConfig c = HamsSystemConfig::tightExtend();
    c.nvdimm.capacity = 96ull << 20;
    c.ssdRawBytes = 512ull << 20; // 8 blocks/plane: GC within reach
    c.pinnedBytes = 32ull << 20;
    c.functionalData = false;
    c.ftl.backgroundGc = true;
    auto sys = std::make_unique<HamsSystem>(c);

    Ssd& ssd = sys->ullFlash();
    PageFtl& ftl = ssd.pageFtl();
    std::uint64_t pages = ftl.logicalPages() * 65 / 100;
    Tick t = 0;
    for (std::uint64_t lpn = 0; lpn < pages; ++lpn)
        t = ftl.writePage(lpn, ssd.config().geom.pageSize, t);
    sys->eventQueue().run(); // settle pre-run idle collection
    ssd.flashLayer().reset(); // prefilled but idle device
    ftl.onFlashReset();       // handles died with the FIL's registry
    return sys;
}

/** Warmup-then-measure an N-core SMP run on a fresh platform. */
SmpResult
runSmp(MemoryPlatform& platform, const std::string& workload,
       std::uint32_t cores, std::uint64_t budget)
{
    std::vector<std::unique_ptr<WorkloadGenerator>> gens;
    std::vector<WorkloadGenerator*> raw;
    for (std::uint32_t c = 0; c < cores; ++c) {
        gens.push_back(makeCoreWorkload(workload, 32ull << 20, c, cores));
        raw.push_back(gens.back().get());
    }
    SmpModel smp(platform);
    smp.run(raw, budget / 2);
    return smp.run(raw, budget);
}

// ---------------------------------------------------------------------
// Fingerprints: every field a run produces, pinned to values recorded
// before the single-core driver was folded into the conductor (one-core
// cells from that separate loop, N-core cells from the conductor), so
// the shared loop must reproduce both. One constant per cell holds for
// the inline fast path on and off. A mismatch prints the fields.
// ---------------------------------------------------------------------

/** One run's fields as "name=value" text; doubles as their bit patterns. */
class Fingerprint
{
  public:
    Fingerprint& operator()(const char* name, std::uint64_t v)
    {
        text += name;
        text += '=';
        text += std::to_string(v);
        text += ' ';
        return *this;
    }

    Fingerprint& operator()(const char* name, double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        return (*this)(name, bits);
    }

    Fingerprint& operator()(const RunResult& r)
    {
        return (*this)("simTime", r.simTime)("instr", r.instructions)(
            "mem", r.memInstructions)("plat", r.platformAccesses)(
            "l1", r.l1Hits)("l2", r.l2Hits)("ops", r.opsCompleted)(
            "pages", r.pagesTouched)("active", r.activeTime)(
            "stall", r.stallTime)("flush", r.flushTime)(
            r.stallBreakdown)("ipc", r.ipc)("opsPerSec", r.opsPerSec)(
            "pagesPerSec", r.pagesPerSec)("bytesPerSec", r.bytesPerSec)(
            "cpuJ", r.cpuEnergyJ);
    }

    Fingerprint& operator()(const LatencyBreakdown& b)
    {
        return (*this)("os", b.os)("nvdimm", b.nvdimm)("dma", b.dma)(
            "ssd", b.ssd)("cpu", b.cpu);
    }

    Fingerprint& operator()(HamsSystem& sys)
    {
        const HamsStats& s = sys.stats();
        const NvmeEngineStats& e = sys.engineStats();
        return (*this)("acc", s.accesses)("hits", s.hits)("misses", s.misses)(
            "fills", s.fills)("clean", s.cleanVictims)(
            "dirty", s.dirtyEvictions)("prp", s.prpClones)(
            "waitQ", s.waitQueued)("redundant", s.redundantEvictionsAvoided)(
            "gateW", s.persistGateWaits)("waitPeak", s.waiterPeakDepth)(
            "gatePeak", s.gateQueuePeakDepth)("replayed", s.replayedCommands)(
            "degraded", s.degradedAccesses)("restoreSt", s.restoreStalls)(
            "recGate", s.recoveryGateWaits)(s.memoryDelay)(
            "submitted", e.submitted)("completed", e.completed)(
            "jSets", e.journalSets)("jClears", e.journalClears)(
            "jReplayed", e.replayed)(sys.ullFlash().ftlStats());
    }

    Fingerprint& operator()(const FtlStats& s)
    {
        return (*this)("gcBatches", s.gcBatches)("gcReloc", s.gcRelocations)(
            "erases", s.erases)("gcStalls", s.gcWriteStalls);
    }

    Fingerprint& operator()(const MmapPlatform& m)
    {
        return (*this)("faults", m.pageFaults())("pcHits", m.pageCacheHits())(
            "writebacks", m.writebacks());
    }

    /** FNV-1a of the text: one constant pins every field. */
    std::uint64_t hash() const
    {
        std::uint64_t h = 14695981039346656037ull;
        for (unsigned char ch : text)
            h = (h ^ ch) * 1099511628211ull;
        return h;
    }

    std::string text;
};

/** Every pinned cell, fast path on then off. */
template <typename Cell>
void
expectFingerprint(Cell cell, std::uint64_t expected, const std::string& what)
{
    for (bool inline_on : {true, false}) {
        CoreConfig cc;
        cc.inlineFastPath = inline_on;
        Fingerprint f;
        cell(cc, f);
        EXPECT_EQ(f.hash(), expected)
            << what << ", inline " << inline_on << ": " << f.text;
    }
}

/** One core, one run() call (no run-boundary resync in between). */
template <typename MakePlatform>
void
expectOneCoreFingerprint(MakePlatform make, const std::string& workload,
                         std::uint64_t dataset, std::uint64_t budget,
                         std::uint64_t expected)
{
    expectFingerprint(
        [&](const CoreConfig& cc, Fingerprint& f) {
            auto p = make();
            auto gen = makeWorkload(workload, dataset);
            CoreModel core(*p, cc);
            f(core.run(*gen, budget))(*p);
        },
        expected, workload);
}

TEST(SmpFingerprint, OneCoreMmapRndWr)
{
    expectOneCoreFingerprint(smallMmap, "rndWr", 32ull << 20, 200000,
                             0x73352f63de227a16ull);
}

TEST(SmpFingerprint, OneCoreMmapUpdateWithFlushes)
{
    expectOneCoreFingerprint(smallMmap, "update", 32ull << 20, 4000000,
                             0x4477e32a4f03b8faull);
}

TEST(SmpFingerprint, OneCoreHamsExtendUpdate)
{
    expectOneCoreFingerprint([] { return smallHams(HamsMode::Extend); },
                             "update", 32ull << 20, 4000000,
                             0x7058b8ee2cc7a67full);
}

TEST(SmpFingerprint, OneCoreHamsPersistRndRd)
{
    expectOneCoreFingerprint([] { return smallHams(HamsMode::Persist); },
                             "rndRd", 32ull << 20, 150000,
                             0x8a08d493bf0f281eull);
}

TEST(SmpFingerprint, OneCoreHamsExtendRndWrUnderBackgroundGc)
{
    // Background GC schedules from now(), which the lone core's
    // advanceTo() after each inline completion keeps current.
    expectOneCoreFingerprint(smallHamsBgGc, "rndWr", 128ull << 20, 400000,
                             0xc4d4f6870fdeb27cull);
}

/** N cores of hams-TE in one run(): pins the issue order. */
void
expectMultiCoreFingerprint(const std::string& workload, std::uint32_t cores,
                           std::uint64_t dataset, std::uint64_t budget,
                           std::uint64_t expected)
{
    expectFingerprint(
        [&](const CoreConfig& cc, Fingerprint& f) {
            auto sys = smallHams(HamsMode::Extend);
            std::vector<std::unique_ptr<WorkloadGenerator>> gens;
            std::vector<WorkloadGenerator*> raw;
            for (std::uint32_t c = 0; c < cores; ++c) {
                gens.push_back(makeCoreWorkload(workload, dataset, c, cores));
                raw.push_back(gens.back().get());
            }
            SmpModel smp(*sys, cc);
            SmpResult r = smp.run(raw, budget);
            for (const RunResult& rr : r.perCore)
                f(rr);
            f(r.combined)(*sys);
        },
        expected, std::to_string(cores) + "-core " + workload);
}

TEST(SmpFingerprint, TwoCoreHamsExtendUpdate)
{
    expectMultiCoreFingerprint("update", 2, 32ull << 20, 3000000,
                               0x3f13033fc9e91f77ull);
}

TEST(SmpFingerprint, FourCoreHamsExtendUpdate)
{
    expectMultiCoreFingerprint("update", 4, 32ull << 20, 3000000,
                               0x651edb8ca33ed5baull);
}

TEST(SmpFingerprint, FourCoreHamsExtendRndWrWithWritebacks)
{
    // A footprint past the L2 sends dirty victims through the
    // conductor as background writebacks.
    expectMultiCoreFingerprint("rndWr", 4, 128ull << 20, 200000,
                               0xbe253ad0f390f042ull);
}

// ---------------------------------------------------------------------
// N-core determinism: rerun-identical, fast path on and off.
// ---------------------------------------------------------------------

void
rerunIdentical(const std::string& workload, HamsMode mode,
               std::uint32_t cores, bool inline_on)
{
    auto run_once = [&](HamsSystem& sys, SmpResult& out) {
        std::vector<std::unique_ptr<WorkloadGenerator>> gens;
        std::vector<WorkloadGenerator*> raw;
        for (std::uint32_t c = 0; c < cores; ++c) {
            gens.push_back(
                makeCoreWorkload(workload, 32ull << 20, c, cores));
            raw.push_back(gens.back().get());
        }
        CoreConfig cfg;
        cfg.inlineFastPath = inline_on;
        SmpModel smp(sys, cfg);
        smp.run(raw, 100000);
        out = smp.run(raw, 200000);
    };

    auto p1 = smallHams(mode);
    auto p2 = smallHams(mode);
    SmpResult r1, r2;
    run_once(*p1, r1);
    run_once(*p2, r2);

    ASSERT_EQ(r1.cores(), cores);
    ASSERT_EQ(r2.cores(), cores);
    for (std::uint32_t c = 0; c < cores; ++c) {
        std::string tag = workload + " core " + std::to_string(c);
        expectIdentical(r1.perCore[c], r2.perCore[c], tag.c_str());
    }
    expectIdentical(r1.combined, r2.combined, "combined");
    expectIdentical(p1->stats(), p2->stats(), "HamsStats");
    expectIdentical(p1->engineStats(), p2->engineStats(),
                    "NvmeEngineStats");
    EXPECT_EQ(p1->eventQueue().now(), p2->eventQueue().now());
    EXPECT_EQ(p1->eventQueue().fired(), p2->eventQueue().fired());
}

TEST(SmpDeterminism, FourCoreExtendRerunIdentical)
{
    rerunIdentical("update", HamsMode::Extend, 4, true);
}

TEST(SmpDeterminism, FourCorePersistRerunIdentical)
{
    rerunIdentical("rndWr", HamsMode::Persist, 4, true);
}

TEST(SmpDeterminism, EightCoreEventPathRerunIdentical)
{
    rerunIdentical("rndRd", HamsMode::Extend, 8, false);
}

// ---------------------------------------------------------------------
// Contention: shared-frame wait lists and the persist gate engage and
// deepen as cores are added.
// ---------------------------------------------------------------------

TEST(SmpContention, WaitListsDeepenWithCores)
{
    std::uint64_t prev_wait = 0;
    std::uint64_t prev_peak = 0;
    for (std::uint32_t n : {1u, 2u, 4u, 8u}) {
        auto sys = smallHams(HamsMode::Extend);
        runSmp(*sys, "update", n, 200000);
        const HamsStats& s = sys->stats();
        EXPECT_GE(s.waitQueued, prev_wait) << n << " cores";
        EXPECT_GE(s.waiterPeakDepth, prev_peak) << n << " cores";
        prev_wait = s.waitQueued;
        prev_peak = s.waiterPeakDepth;
    }
    // With 8 cores on one tag array, contention must actually exist.
    EXPECT_GT(prev_wait, 0u);
    EXPECT_GT(prev_peak, 1u);
}

TEST(SmpContention, PersistGateSerialisesAcrossCores)
{
    auto solo = smallHams(HamsMode::Persist);
    runSmp(*solo, "rndRd", 1, 150000);
    // One in-order core has at most one miss in flight: the gate never
    // queues.
    EXPECT_EQ(solo->stats().persistGateWaits, 0u);
    EXPECT_EQ(solo->stats().gateQueuePeakDepth, 0u);

    auto quad = smallHams(HamsMode::Persist);
    runSmp(*quad, "rndRd", 4, 150000);
    EXPECT_GT(quad->stats().persistGateWaits, 0u);
    EXPECT_GT(quad->stats().gateQueuePeakDepth, 0u);
}

// ---------------------------------------------------------------------
// Hot-path discipline: the per-core hit path through the SMP conductor
// allocates nothing in steady state.
// ---------------------------------------------------------------------

// ---------------------------------------------------------------------
// Background GC under SMP: device-internal collection events share the
// queue with four cores' accesses. Runs must stay rerun-deterministic,
// the inline fast-path gate must keep declining while GC events are
// pending (pinned end-to-end by inline-on == inline-off bit-identity),
// and the hit path stays allocation-free with the engine enabled.
// ---------------------------------------------------------------------

SmpResult
runBgGcSmp(HamsSystem& sys, bool inline_on)
{
    std::vector<std::unique_ptr<WorkloadGenerator>> gens;
    std::vector<WorkloadGenerator*> raw;
    for (std::uint32_t c = 0; c < 4; ++c) {
        gens.push_back(makeCoreWorkload("rndWr", 128ull << 20, c, 4));
        raw.push_back(gens.back().get());
    }
    CoreConfig cfg;
    cfg.inlineFastPath = inline_on;
    SmpModel smp(sys, cfg);
    smp.run(raw, 100000);
    return smp.run(raw, 200000);
}

TEST(SmpBackgroundGc, FourCoreRerunIdenticalAndGateSound)
{
    auto p1 = smallHamsBgGc();
    auto p2 = smallHamsBgGc();
    SmpResult r1 = runBgGcSmp(*p1, /*inline_on=*/true);
    SmpResult r2 = runBgGcSmp(*p2, /*inline_on=*/true);

    // Collection genuinely ran as background events and overlapped
    // with host traffic (it may still be mid-victim when the budget
    // runs out — an active machine then holds a pending step event,
    // which is exactly what keeps the inline gate declining).
    const FtlStats& fs = p1->ullFlash().ftlStats();
    EXPECT_GT(fs.gcBatches, 0u) << "background GC never stepped";
    EXPECT_GT(fs.gcForegroundOverlap, 0u)
        << "no host op overlapped active collection";
    if (p1->ullFlash().pageFtl().gcActive())
        EXPECT_GT(p1->eventQueue().pending(), 0u)
            << "active machine with an empty queue";

    // Rerun-deterministic, including the device-internal engine.
    for (std::uint32_t c = 0; c < 4; ++c)
        expectIdentical(r1.perCore[c], r2.perCore[c], "bg-GC rerun");
    expectIdentical(r1.combined, r2.combined, "bg-GC combined");
    expectIdentical(p1->stats(), p2->stats(), "bg-GC HamsStats");
    EXPECT_EQ(p1->eventQueue().now(), p2->eventQueue().now());
    EXPECT_EQ(p1->eventQueue().fired(), p2->eventQueue().fired());
    expectIdentical(fs, p2->ullFlash().ftlStats(), "bg-GC FtlStats");

    // Gate soundness, end to end: pending GC events force the event
    // path, so enabling the inline fast path must not change a single
    // simulated result. A gate that wrongly accepted while collection
    // events were pending would complete inline at a tick that ignores
    // them and diverge here.
    auto p3 = smallHamsBgGc();
    SmpResult r3 = runBgGcSmp(*p3, /*inline_on=*/false);
    for (std::uint32_t c = 0; c < 4; ++c)
        expectIdentical(r1.perCore[c], r3.perCore[c],
                        "bg-GC inline on vs off");
    expectIdentical(p1->stats(), p3->stats(),
                    "bg-GC HamsStats inline on vs off");
    EXPECT_EQ(p1->eventQueue().now(), p3->eventQueue().now());
}

TEST(SmpBackgroundGc, HitPathStaysAllocationFree)
{
    // Same discipline as SmpZeroAlloc.HitPathThroughConductor, with
    // the background collector enabled and engaged: equal allocation
    // deltas between a short and a long measured run mean the per-op
    // cost — host path and GC machinery included — is zero.
    auto sys = smallHamsBgGc();
    std::vector<std::unique_ptr<WorkloadGenerator>> gens;
    std::vector<WorkloadGenerator*> raw;
    for (std::uint32_t c = 0; c < 4; ++c) {
        gens.push_back(makeCoreWorkload("rndWr", 128ull << 20, c, 4));
        raw.push_back(gens.back().get());
    }
    SmpModel smp(*sys);
    // Warm pools, arenas, GC machines and every block's lazily
    // allocated page arrays: collection keeps opening fresh blocks,
    // so the first-touch tail is longer than the host-only paths'.
    smp.run(raw, 600000);

    alloc_hook::AllocCounter allocs;
    smp.run(raw, 50000);
    std::uint64_t small = allocs.delta();
    allocs.rebase();
    smp.run(raw, 200000);
    std::uint64_t large = allocs.delta();
    EXPECT_EQ(small, large)
        << "per-op allocations on the SMP path with background GC";
    EXPECT_GT(sys->ullFlash().ftlStats().gcBatches, 0u);
}

TEST(SmpZeroAlloc, HitPathThroughConductor)
{
    // Working set fits the NVDIMM cache: after warmup every platform
    // access is an extend-mode hit. Equal allocation deltas between a
    // short and a long measured run mean the per-access (and per-op)
    // cost is literally zero.
    auto sys = smallHams(HamsMode::Extend);
    std::vector<std::unique_ptr<WorkloadGenerator>> gens;
    std::vector<WorkloadGenerator*> raw;
    for (std::uint32_t c = 0; c < 4; ++c) {
        gens.push_back(makeCoreWorkload("rndRd", 16ull << 20, c, 4));
        raw.push_back(gens.back().get());
    }
    SmpModel smp(*sys);
    smp.run(raw, 150000); // warm caches, pools, arenas

    alloc_hook::AllocCounter allocs;
    smp.run(raw, 50000);
    std::uint64_t small = allocs.delta();
    allocs.rebase();
    smp.run(raw, 200000);
    std::uint64_t large = allocs.delta();
    EXPECT_EQ(small, large)
        << "per-access allocations in the SMP conductor hit path";
    EXPECT_GT(sys->stats().hits, 0u);
}

} // namespace
} // namespace hams
