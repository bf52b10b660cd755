/**
 * @file
 * The core driver: N in-order cores (paper Table II: an 8-core ARM v8
 * class host at 2 GHz with 64 KB L1D and 2 MB L2 per core) sharing one
 * MemoryPlatform. CoreModel (cpu/core_model.hh) is its one-core case,
 * so single- and multi-core runs share one retire loop.
 *
 * Each core retires compute instructions at a base CPI, filters memory
 * instructions through its private L1/L2 CacheModel, and blocks on the
 * platform for misses — the behaviour that produces the paper's IPC
 * collapse when a slow platform sits under the MMU (Fig. 7b) and the
 * execution breakdowns of Figs. 17/18. Each core has its own
 * deterministic WorkloadGenerator (see makeCoreWorkload in
 * workload/workload.hh for per-core seed streams / staggered
 * sequential shards over the shared dataset). The platform — MoS tag
 * array, persist gate, NVMe path — is shared, so accesses from
 * different cores genuinely overlap: a core blocked on a miss parks on
 * its completion event while the other cores keep retiring, which is
 * what drives the HAMS controller's per-frame wait lists and
 * persist-gate queue under real cross-core contention
 * (HamsStats::waiterPeakDepth / gateQueuePeakDepth).
 *
 * Ordering contract
 * -----------------
 * Platforms apply their side effects at access()/flush() call time, so
 * call order across cores IS simulated-time order. The conductor
 * therefore always issues the ready core with the smallest issue tick
 * (ties broken by core index) and, with more than one core, first
 * drains every pending event strictly earlier than that tick — a
 * completion that lands may unblock a core whose next access belongs
 * before the one about to be issued. A lone core issues without
 * draining. Same-tick ties issue first: the access is applied, then
 * pending events at that tick fire.
 *
 * The conductor is itself a client of the platform's DomainConductor
 * (sim/domain_conductor.hh): "pending events" above means events in
 * ANY of the platform's event-queue domains, drained in global tick
 * order with the conductor's fixed cross-domain tie-break. On a
 * single-device platform that is one queue; on a ShardedPlatform the
 * retire loop is unchanged while M device stacks run underneath.
 *
 * Horizon rule
 * ------------
 * Issuing is a trampoline, not a round trip through the pick. After an
 * interaction that leaves a core ready (an inline completion or a
 * background writeback), the core keeps retiring and issuing while the
 * pick would choose it again anyway: its (issue tick, index) is below
 * every other ready core's — fixed while it runs, since only firing
 * events changes other cores — and, with more than one core, no event
 * is pending before its issue tick. With one core that is a flat loop;
 * with N cores the issue order is exactly the pick's.
 *
 * The immediate-completion fast path stays gated on an empty event
 * queue (contract in baselines/platform.hh): any other core's
 * outstanding access holds a live completion event, so the gate
 * naturally declines and the access takes the event path. A lone core
 * advanceTo()s each inline completion, keeping now() where the fired
 * completion event would have left it (background GC scheduling reads
 * it); with several cores it must not — other cores may still legally
 * issue below the completed tick.
 *
 * Run boundary
 * ------------
 * Before run() returns, simulated time is resynced to the cores: every
 * event at or before the latest core's end tick fires and every domain
 * advances to it. The next run() starts at eq.now(); left lagging, the
 * devices' absolute-tick busy state (DRAM bank freeAt, link busyUntil)
 * would charge this run's tail to the next run as phantom queueing,
 * leaking warmup into measurement. Later events stay pending.
 */

#ifndef HAMS_CPU_SMP_MODEL_HH_
#define HAMS_CPU_SMP_MODEL_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "baselines/platform.hh"
#include "cpu/cache_model.hh"
#include "energy/cpu_power.hh"
#include "sim/annotations.hh"
#include "sim/field_list.hh"
#include "workload/workload.hh"

namespace hams {

/** Per-core configuration; every core of a run gets the same one. */
struct CoreConfig
{
    double freqGhz = 2.0;
    double baseCpi = 1.0;
    CacheConfig l1{64 * 1024, 64, 4, nanoseconds(1)};
    CacheConfig l2{2 * 1024 * 1024, 64, 8, nanoseconds(5)};
    /**
     * Use MemoryPlatform::tryAccess to complete accesses inline when
     * the event queue is empty. Simulated-time outputs are bit-identical
     * either way (tests/test_fastpath.cc asserts it); off exists for
     * that differential test and for before/after benchmarking.
     */
    bool inlineFastPath = true;
};

/** Everything a run produces. */
struct RunResult
{
    std::string workload;
    std::string platform;
    Tick simTime = 0;
    std::uint64_t instructions = 0;
    std::uint64_t memInstructions = 0;
    std::uint64_t platformAccesses = 0;
    std::uint64_t l1Hits = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t opsCompleted = 0;
    std::uint64_t pagesTouched = 0;
    Tick activeTime = 0;
    Tick stallTime = 0;
    LatencyBreakdown stallBreakdown; //!< platform-attributed stall time
    Tick flushTime = 0;

    double ipc = 0;
    double opsPerSec = 0;
    double pagesPerSec = 0;
    double bytesPerSec = 0;

    /** CPU energy (memory-side energy comes from the platform). */
    double cpuEnergyJ = 0;

    /** The field list (sim/field_list.hh): simTime takes the max;
     *  labels, rates and energy keep the left-hand value. */
    static constexpr auto
    fields()
    {
        using S = RunResult;
        return std::make_tuple(
            field<Combine::Keep>("workload", &S::workload),
            field<Combine::Keep>("platform", &S::platform),
            field<Combine::Max>("simTime", &S::simTime),
            field("instructions", &S::instructions),
            field("memInstructions", &S::memInstructions),
            field("platformAccesses", &S::platformAccesses),
            field("l1Hits", &S::l1Hits),
            field("l2Hits", &S::l2Hits),
            field("opsCompleted", &S::opsCompleted),
            field("pagesTouched", &S::pagesTouched),
            field("activeTime", &S::activeTime),
            field("stallTime", &S::stallTime),
            field("stallBreakdown", &S::stallBreakdown),
            field("flushTime", &S::flushTime),
            field<Combine::Keep>("ipc", &S::ipc),
            field<Combine::Keep>("opsPerSec", &S::opsPerSec),
            field<Combine::Keep>("pagesPerSec", &S::pagesPerSec),
            field<Combine::Keep>("bytesPerSec", &S::bytesPerSec),
            field<Combine::Keep>("cpuEnergyJ", &S::cpuEnergyJ));
    }
};

/**
 * Fill @p res's derived rate/energy fields from its raw counters. For
 * a combined view the counters are sums and simTime the max core time,
 * making ipc/opsPerSec aggregate (cross-core) rates.
 */
void finalizeRunResult(RunResult& res, double freq_ghz,
                       const CpuPowerModel& cpu_power);

/**
 * Merge @p from into @p into through RunResult::fields(): event
 * counters sum, simTime takes the max, and the labels and derived
 * rate/energy fields keep @p into's values — call finalizeRunResult
 * afterwards to rebuild the rates as aggregate cross-entity rates.
 * The one merge used for per-core views (SmpModel::run) and per-shard
 * views (bench scale-out tables).
 */
void mergeRunResult(RunResult& into, const RunResult& from);

/**
 * Bit-equality of two runs over every RunResult field
 * (firstDifference over RunResult::fields()): the labels, the raw
 * counters, the stall breakdown and the derived rates and energy. The
 * one equality behind the benches' determinism gates. On a mismatch,
 * @p field (if non-null) is set to the first differing field's name,
 * e.g. "stallBreakdown.os"; the string stays valid until the calling
 * thread's next mismatch.
 */
bool sameSimOutputs(const RunResult& a, const RunResult& b,
                    const char** field = nullptr);

/** What an N-core run produces. */
struct SmpResult
{
    /** One RunResult per core, in core-index order. */
    std::vector<RunResult> perCore;

    /**
     * Aggregate view: counters summed across cores, simTime the
     * longest core's time, rates (ipc, opsPerSec, bytesPerSec)
     * therefore aggregate cross-core rates over the run's wall
     * simulated time.
     */
    RunResult combined;

    std::uint32_t cores() const
    {
        return static_cast<std::uint32_t>(perCore.size());
    }
};

/**
 * Drives N WorkloadGenerators against one shared MemoryPlatform with
 * overlapping outstanding accesses.
 */
class SmpModel
{
  public:
    /** fatal()s on a CoreConfig field out of range (cache geometry is
     *  checked by CacheModel when a run builds the caches). */
    explicit SmpModel(MemoryPlatform& platform, const CoreConfig& cfg = {});

    /**
     * Run every generator for @p per_core_budget instructions on its
     * own core (gens.size() cores). Generators keep their stream
     * position across calls, so warmup-then-measure works; caches are
     * rebuilt cold per call.
     */
    HAMS_HOT_PATH SmpResult run(const std::vector<WorkloadGenerator*>& gens,
                  std::uint64_t per_core_budget);

  private:
    friend class CoreModel;
    struct CoreCtx;

    /** One core (CoreModel::run): the same loop, no per-core vectors. */
    HAMS_HOT_PATH RunResult runOne(WorkloadGenerator& gen,
                                   std::uint64_t instruction_budget);

    Tick cycles(double n) const
    {
        return static_cast<Tick>(n * 1000.0 / cfg.freqGhz);
    }

    /** The conductor: pick, drive, resync and finalize @p n cores. */
    HAMS_HOT_PATH void conduct(CoreCtx* cores, std::size_t n);

    /**
     * The retire loop. Issues @p c's pending interaction, if any (the
     * pick granted it), then retires ops — compute, L1/L2 hits — and
     * issues each further platform interaction while @p c holds the
     * horizon: its issue tick is below @p horizon and, unless it is the
     * @p lone core, no event is pending before it. Returns when @p c
     * waits on a completion event, finishes its budget or stream, or
     * stops at an interaction it may not issue yet (c.pending; horizon
     * 0 retires up to the next interaction only).
     */
    HAMS_HOT_PATH void drive(CoreCtx& c, Tick horizon, bool lone);

    /** Completion of @p c's event-path access (@p bd set) or flush. */
    HAMS_HOT_PATH void onDone(CoreCtx& c, Tick done,
                              const LatencyBreakdown* bd);

    MemoryPlatform& platform;
    /** The platform's domain conductor (sim/domain_conductor.hh). */
    DomainConductor& eq;
    CoreConfig cfg;
    CpuPowerModel cpuPower;
};

} // namespace hams

#endif // HAMS_CPU_SMP_MODEL_HH_
