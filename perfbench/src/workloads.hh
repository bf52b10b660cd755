/**
 * @file
 * The benchmark's three workloads, each a platform, a seeded op stream
 * and a closed-loop driver, set up and then run in equal chunks of
 * simulated work. README.md gives the reason for each workload.
 *
 *  - te_hit_read: hams-TE, Table III rndRd, CoreModel (1 outstanding).
 *  - tp_gc_mixed: hams-TP with background GC on a ULL-Flash prefilled
 *    to 70%; 8 outstanding 64 B accesses, 70% writes, uniform over a
 *    window 3x the NVDIMM cache.
 *  - mmap_sql_update: mmap over ULL-Flash, Table III SQLite update,
 *    CoreModel.
 *
 * The driver reaches the library only through ObservedWorkload and
 * ObservedPlatform, which forward every call unchanged.
 */

#ifndef PERFBENCH_WORKLOADS_HH_
#define PERFBENCH_WORKLOADS_HH_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "baselines/mmap_platform.hh"
#include "core/hams_system.hh"
#include "cpu/core_model.hh"
#include "observed.hh"
#include "tracer.hh"

namespace perfbench {

/** Workload names in the order BENCHMARK.json lists them. */
const std::vector<std::string>& workloadNames();

/** The seeded op stream @p workload draws its accesses from. */
std::unique_ptr<hams::WorkloadGenerator>
makeStream(const std::string& workload, std::uint64_t seed);

/** Monotone counters read at one point of a run. */
struct Snapshot
{
    hams::Tick simElapsed = 0; //!< simulated time since the build
    std::uint64_t events = 0;  //!< events fired, all domains
    std::uint64_t allocs = 0;  //!< heap allocations, this thread
    std::uint64_t accesses = 0; //!< workload ops that carry an access
    std::uint64_t simOps = 0;  //!< Fig. 16 ops (page, SQL op, access)
    hams::Tick loopLatencySum = 0; //!< tp_gc_mixed: summed access latency
    double memEnergyJ = 0;
    PlatformCounters plat;

    /** @name Core model (CoreModel-driven workloads). */
    ///@{
    std::uint64_t instructions = 0;
    std::uint64_t memInstructions = 0;
    std::uint64_t platformAccesses = 0;
    std::uint64_t l1Hits = 0;
    std::uint64_t l2Hits = 0;
    hams::Tick activeTime = 0;
    hams::Tick stallTime = 0;
    double cpuEnergyJ = 0;
    ///@}

    hams::HamsStats hams;        //!< HAMS workloads
    hams::NvmeEngineStats nvme;  //!< HAMS workloads
    hams::SsdStats ssd;
    hams::FtlStats ftl;
    hams::FlashActivity flash;
    std::uint64_t mmapFaults = 0;
    std::uint64_t mmapHits = 0;
    std::uint64_t mmapWritebacks = 0;
};

/** One workload, built, prefilled and warmed up by the constructor. */
class WorkloadRun
{
  public:
    /**
     * @param observe route the driver through the forwarding wrappers
     *                (false only in the wrapper-transparency test)
     * @throws std::invalid_argument for an unknown workload name
     */
    WorkloadRun(const std::string& workload, std::uint64_t seed,
                Tracer* tracer = nullptr, bool observe = true);
    ~WorkloadRun();
    WorkloadRun(const WorkloadRun&) = delete;
    WorkloadRun& operator=(const WorkloadRun&) = delete;

    /** Run one chunk of simulated work (one Driver span). */
    void runChunk();

    /** Chunks whose simulated outputs the benchmark reports. */
    std::size_t windowChunks() const { return window; }

    Snapshot snapshot() const;

    /**
     * Let every access in flight complete and run the end-of-run
     * checks. @return one line per failed check (empty when all pass).
     */
    std::vector<std::string> finish();

    /** Accesses the workload has issued (valid when observing). */
    std::uint64_t accesses() const { return ogen->accesses(); }
    /** Valid when observing. */
    ObservedPlatform& observed() { return *oplat; }
    bool hasCore() const { return core != nullptr; }
    bool isHams() const { return hams != nullptr; }
    bool isMmap() const { return mmap != nullptr; }

  private:
    class ClosedLoop;

    void prefill(double frac);
    void addCoreRun(const hams::RunResult& r);

    Tracer* tracer;
    std::unique_ptr<hams::MemoryPlatform> plat;
    hams::HamsSystem* hams = nullptr;
    hams::MmapPlatform* mmap = nullptr;
    hams::Ssd* ssd = nullptr;
    std::unique_ptr<hams::WorkloadGenerator> gen;
    std::unique_ptr<ObservedWorkload> ogen;
    std::unique_ptr<ObservedPlatform> oplat;
    hams::WorkloadGenerator* driveGen = nullptr;
    hams::MemoryPlatform* drivePlat = nullptr;

    std::unique_ptr<hams::CoreModel> core;
    std::uint64_t chunkInstructions = 0;
    bool opsArePages = false;
    hams::RunResult coreSum; //!< counters summed over every run call
    hams::Tick coreElapsed = 0;

    std::unique_ptr<ClosedLoop> loop;
    std::uint64_t chunkAccesses = 0;

    std::size_t window = 0;
};

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH_
