#include "workloads.hh"

#include <algorithm>
#include <stdexcept>

#include "bench_util.hh"
#include "sim/alloc_hook.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace perfbench {

using namespace hams;
using namespace hams::bench;

namespace {

/** Tracked accesses and flushes one driver can have in flight. */
constexpr std::size_t maxOutstanding = 16;

/** tp_gc_mixed: accesses kept in flight, as in fig_gc. */
constexpr std::uint32_t loopDepth = 8;

/**
 * tp_gc_mixed's access stream: 64 B accesses, 70% writes, uniform over
 * a window of @p window bytes. One op is one access.
 */
class MixedStream : public WorkloadGenerator
{
  public:
    MixedStream(std::uint64_t window, std::uint64_t seed)
        : seed(seed), rng(seed)
    {
        s.name = "tp_gc_mixed";
        s.family = "micro";
        s.datasetBytes = window;
        s.pattern = AccessPattern::Random;
        s.readFraction = 0.3;
        s.accessesPerOp = 1;
        s.computePerAccess = 0;
    }

    const WorkloadSpec& spec() const override { return s; }

    bool
    next(WorkloadOp& op) override
    {
        op = WorkloadOp{};
        op.hasAccess = true;
        op.opBoundary = true;
        op.access.addr = rng.below(s.datasetBytes) & ~Addr(63);
        op.access.size = 64;
        op.access.op = rng.chance(1.0 - s.readFraction) ? MemOp::Write
                                                         : MemOp::Read;
        return true;
    }

    void reset() override { rng = Rng(seed); }

  private:
    WorkloadSpec s;
    std::uint64_t seed;
    Rng rng;
};

BenchGeometry
geometry()
{
    return BenchGeometry{}; // fixed: HAMS_BENCH_SCALE must not apply
}

/** hams-TP as makePlatform builds it, with background GC on. */
std::unique_ptr<MemoryPlatform>
makeGcPlatform(const BenchGeometry& geom)
{
    setQuiet(true);
    HamsSystemConfig c = HamsSystemConfig::tightPersist();
    c.pinnedBytes = 32ull << 20;
    c.nvdimm.capacity = geom.hostMemBytes + c.pinnedBytes;
    c.ssdRawBytes = geom.ssdRawBytes;
    c.mosPageBytes = geom.mosPageBytes;
    c.queueEntries = 1024;
    c.functionalData = false;
    c.ftl.backgroundGc = true;
    return std::make_unique<HamsSystem>(c);
}

} // namespace

const std::vector<std::string>&
workloadNames()
{
    static const std::vector<std::string> names = {
        "te_hit_read", "tp_gc_mixed", "mmap_sql_update"};
    return names;
}

std::unique_ptr<WorkloadGenerator>
makeStream(const std::string& workload, std::uint64_t seed)
{
    BenchGeometry g = geometry();
    if (workload == "te_hit_read")
        return makeWorkload("rndRd", g.datasetBytesFor("rndRd"), seed);
    if (workload == "mmap_sql_update")
        return makeWorkload("update", g.datasetBytesFor("update"), seed);
    if (workload == "tp_gc_mixed")
        // Uniform over 3x the cache, so about 2/3 of accesses miss.
        return std::make_unique<MixedStream>(3 * g.hostMemBytes, seed);
    throw std::invalid_argument("unknown workload '" + workload + "'");
}

/**
 * @p depth independent closed loops over one platform, conducted like
 * fig_gc and SmpModel: always issue the idle slot with the lowest issue
 * tick, after firing every strictly earlier event. An access may
 * complete inline only while no event is pending (platform.hh).
 */
class WorkloadRun::ClosedLoop
{
  public:
    ClosedLoop(MemoryPlatform& p, WorkloadGenerator& gen,
               std::uint32_t depth)
        : p(p), cond(p.conductor()), gen(gen), slots(depth)
    {
    }

    void setTracer(Tracer* t) { tracer = t; }

    /** Issue until @p n more accesses have completed. */
    void
    run(std::uint64_t n)
    {
        std::uint64_t target = completions + n;
        while (completions < target) {
            Slot* next = nullptr;
            for (Slot& s : slots)
                if (!s.inflight && (!next || s.nextIssue < next->nextIssue))
                    next = &s;
            if (!next) {
                waitOne();
                continue;
            }
            while (cond.nextTick() < next->nextIssue && step()) {
            }
            // A completion that landed may free an earlier-issuing slot.
            if (harvest())
                continue;
            issue(*next);
        }
    }

    /** Wait for every access in flight. */
    void
    drain()
    {
        while (std::any_of(slots.begin(), slots.end(),
                           [](const Slot& s) { return s.inflight; }))
            waitOne();
    }

    std::uint64_t completed() const { return completions; }
    Tick lastDone() const { return last; }
    /** Sum of issue-to-completion ticks: a fingerprint of the run. */
    Tick latencySum() const { return latSum; }

  private:
    struct Slot
    {
        Tick nextIssue = 0;
        Tick issued = 0;
        Tick done = 0;
        bool inflight = false;
        bool arrived = false;
    };

    bool
    step()
    {
        ScopedSpan span(tracer, Span::SimStep);
        return cond.step();
    }

    void
    waitOne()
    {
        bool stepped = true;
        while (!harvest() && (stepped = step())) {
        }
        if (!stepped)
            throw std::runtime_error("tp_gc_mixed: event queue drained "
                                     "with accesses in flight");
    }

    bool
    harvest()
    {
        bool any = false;
        for (Slot& s : slots) {
            if (!s.arrived)
                continue;
            ++completions;
            latSum += s.done - s.issued;
            last = std::max(last, s.done);
            s.nextIssue = s.done;
            s.inflight = false;
            s.arrived = false;
            any = true;
        }
        return any;
    }

    void
    issue(Slot& s)
    {
        WorkloadOp op;
        if (!gen.next(op) || !op.hasAccess)
            throw std::runtime_error("tp_gc_mixed: stream ended");
        s.inflight = true;
        s.arrived = false;
        s.issued = s.nextIssue;
        InlineCompletion ic;
        if (cond.empty() && p.tryAccess(op.access, s.issued, ic)) {
            s.done = ic.done;
            s.arrived = true;
            return;
        }
        Slot* slot = &s;
        p.access(op.access, s.issued,
                 [slot](Tick done, const LatencyBreakdown&) {
                     slot->arrived = true;
                     slot->done = done;
                 });
    }

    MemoryPlatform& p;
    DomainConductor& cond;
    WorkloadGenerator& gen;
    Tracer* tracer = nullptr;
    std::vector<Slot> slots;
    std::uint64_t completions = 0;
    Tick last = 0;
    Tick latSum = 0;
};

WorkloadRun::WorkloadRun(const std::string& workload, std::uint64_t seed,
                         Tracer* tracer, bool observe)
    : tracer(tracer)
{
    BenchGeometry g = geometry();
    gen = makeStream(workload, seed);

    std::uint64_t warmup = 0;
    std::size_t latency_capacity = 0;
    // Chunks take a few to tens of host milliseconds. Windows hold 10^5+
    // latency samples (3 x 10^4 on the slow GC workload), which keeps the
    // seed-to-seed spread of the simulated metrics near 2%.
    if (workload == "te_hit_read") {
        plat = makePlatform("hams-TE", g);
        chunkInstructions = g.instructionBudget;
        warmup = g.instructionBudget / 2;
        opsArePages = true;
        window = 4;
        latency_capacity = 1u << 20;
    } else if (workload == "mmap_sql_update") {
        plat = makePlatform("mmap", g);
        // SQLite budgets are 16x the micro ones (bench_util's runOn).
        // The page cache takes ~150 chunks to reach its steady fault
        // rate, so the warmup is 150 chunks.
        chunkInstructions = g.instructionBudget * 16;
        warmup = chunkInstructions * 150;
        window = 512;
        latency_capacity = 1u << 20;
    } else {
        plat = makeGcPlatform(g);
        chunkAccesses = 2000;
        window = 16;
        latency_capacity = window * chunkAccesses + loopDepth;
    }
    hams = dynamic_cast<HamsSystem*>(plat.get());
    mmap = dynamic_cast<MmapPlatform*>(plat.get());
    ssd = hams ? &hams->ullFlash() : &mmap->backingSsd();

    driveGen = gen.get();
    drivePlat = plat.get();
    if (observe) {
        ogen = std::make_unique<ObservedWorkload>(*gen);
        oplat = std::make_unique<ObservedPlatform>(*plat, maxOutstanding,
                                                   latency_capacity);
        driveGen = ogen.get();
        drivePlat = oplat.get();
    }

    if (chunkInstructions > 0) {
        core = std::make_unique<CoreModel>(*drivePlat);
        addCoreRun(core->run(*driveGen, warmup));
    } else {
        // Lay data out on 70% of the logical pages, then clear the
        // flash busy state: the device starts measuring idle but full.
        prefill(0.70);
        loop = std::make_unique<ClosedLoop>(*drivePlat, *driveGen,
                                            loopDepth);
        loop->run(3000);
    }

    if (observe) {
        ogen->setTracer(tracer);
        oplat->setTracer(tracer);
    }
    if (loop)
        loop->setTracer(tracer);
}

WorkloadRun::~WorkloadRun() = default;

void
WorkloadRun::prefill(double frac)
{
    PageFtl& ftl = ssd->pageFtl();
    auto pages = static_cast<std::uint64_t>(
        static_cast<double>(ftl.logicalPages()) * frac);
    std::uint32_t page_size = ssd->config().geom.pageSize;
    Tick t = 0;
    for (std::uint64_t lpn = 0; lpn < pages; ++lpn) {
        if (tracer)
            tracer->setRequest(lpn);
        ScopedSpan span(tracer, Span::FtlPrefill);
        t = ftl.writePage(lpn, page_size, t);
    }
    ssd->flashLayer().reset();
    ftl.onFlashReset(); // handles died with the FIL's registry
}

void
WorkloadRun::runChunk()
{
    ScopedSpan span(tracer, Span::Driver);
    if (core)
        addCoreRun(core->run(*driveGen, chunkInstructions));
    else
        loop->run(chunkAccesses);
}

void
WorkloadRun::addCoreRun(const RunResult& r)
{
    // Each run call starts where the last one's queue left off, so
    // simulated time adds up (mergeRunResult would take the max).
    mergeRunResult(coreSum, r);
    coreSum.cpuEnergyJ += r.cpuEnergyJ;
    coreElapsed += r.simTime;
}

Snapshot
WorkloadRun::snapshot() const
{
    Snapshot s;
    s.events = plat->conductor().fired();
    s.allocs = alloc_hook::threadNewCalls();
    if (ogen) {
        s.accesses = ogen->accesses();
        s.plat = oplat->counters();
    }
    if (core) {
        s.simElapsed = coreElapsed;
        s.simOps = opsArePages ? coreSum.pagesTouched : coreSum.opsCompleted;
        s.instructions = coreSum.instructions;
        s.memInstructions = coreSum.memInstructions;
        s.platformAccesses = coreSum.platformAccesses;
        s.l1Hits = coreSum.l1Hits;
        s.l2Hits = coreSum.l2Hits;
        s.activeTime = coreSum.activeTime;
        s.stallTime = coreSum.stallTime;
        s.cpuEnergyJ = coreSum.cpuEnergyJ;
    } else {
        s.simElapsed = loop->lastDone();
        s.simOps = loop->completed();
        s.loopLatencySum = loop->latencySum();
    }
    s.memEnergyJ = plat->memoryEnergy(s.simElapsed).total();
    if (hams) {
        s.hams = hams->stats();
        s.nvme = hams->engineStats();
    }
    s.ssd = ssd->stats();
    s.ftl = ssd->ftlStats();
    s.flash = ssd->flashActivity();
    if (mmap) {
        s.mmapFaults = mmap->pageFaults();
        s.mmapHits = mmap->pageCacheHits();
        s.mmapWritebacks = mmap->writebacks();
    }
    return s;
}

std::vector<std::string>
WorkloadRun::finish()
{
    std::vector<std::string> fails;
    if (loop)
        loop->drain();
    // Let posted writebacks and background work land, bounded so a
    // device that keeps rearming itself cannot hang the benchmark.
    DomainConductor& cond = plat->conductor();
    for (std::uint64_t i = 0; i < 50'000'000 && cond.step(); ++i) {
    }
    if (!cond.empty())
        fails.push_back("event queue did not drain");

    if (oplat) {
        const PlatformCounters& c = oplat->counters();
        if (c.failed > 0)
            fails.push_back(std::to_string(c.failed) +
                            " accesses/flushes completed early or twice");
        if (oplat->outstanding() > 0)
            fails.push_back(std::to_string(oplat->outstanding()) +
                            " accesses/flushes never completed");
    }
    if (hams) {
        const HamsStats& h = hams->stats();
        // A parked access is counted again when its frame frees up and
        // it is re-issued (the invariant tests/test_hams_controller.cc
        // pins), so parked ones are part of the sum.
        if (h.hits + h.misses + h.waitQueued != h.accesses)
            fails.push_back("HamsStats hits + misses + waitQueued != accesses");
        const NvmeEngineStats& n = hams->engineStats();
        if (n.submitted != n.completed)
            fails.push_back("NvmeEngineStats submitted != completed");
    }
    return fails;
}

} // namespace perfbench
