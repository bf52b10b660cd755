/**
 * @file
 * In-order core model (paper Table II: ARM v8 class at 2 GHz with
 * 64 KB L1D and 2 MB L2): the one-core case of the core driver in
 * cpu/smp_model.hh, which also defines CoreConfig and RunResult.
 */

#ifndef HAMS_CPU_CORE_MODEL_HH_
#define HAMS_CPU_CORE_MODEL_HH_

#include <cstdint>

#include "cpu/smp_model.hh"

namespace hams {

/**
 * Drives one WorkloadGenerator against a MemoryPlatform.
 */
class CoreModel
{
  public:
    CoreModel(MemoryPlatform& platform, const CoreConfig& cfg = {})
        : smp(platform, cfg)
    {
    }

    /**
     * Execute @p instruction_budget instructions (compute + memory) and
     * return the run's metrics. A lone core always holds the horizon,
     * so ops retire in a flat trampoline: accesses the platform
     * completes inline (tryAccess, while the event queue is empty) cost
     * no event, and only true misses and flushes wait on a completion
     * event. Simulated time is resynced to the core before returning
     * (run boundary, cpu/smp_model.hh).
     */
    HAMS_HOT_PATH RunResult
    run(WorkloadGenerator& gen, std::uint64_t instruction_budget)
    {
        return smp.runOne(gen, instruction_budget);
    }

  private:
    SmpModel smp;
};

} // namespace hams

#endif // HAMS_CPU_CORE_MODEL_HH_
