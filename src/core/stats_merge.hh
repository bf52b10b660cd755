/**
 * @file
 * One place that knows how to aggregate per-shard (or per-device)
 * engine statistics without double-counting.
 *
 * A sharded platform runs M independent HAMS stacks; benches and tests
 * want ONE HamsStats/NvmeEngineStats/FtlStats view of the whole
 * platform. Plain event counters sum across shards, but depth peaks
 * (waiterPeakDepth, gateQueuePeakDepth, paceLevelMax) are maxima of
 * per-shard maxima — summing them would report contention no single
 * structure ever saw. These helpers encode that distinction once, so
 * the sharded platform, the benches and the tests can never aggregate
 * differently (the RunResult twin lives next to finalizeRunResult in
 * cpu/smp_model.hh).
 */

#ifndef HAMS_CORE_STATS_MERGE_HH_
#define HAMS_CORE_STATS_MERGE_HH_

#include "core/hams_controller.hh"
#include "core/nvme_engine.hh"
#include "ftl/page_ftl.hh"

namespace hams {

/** Sum @p from's counters into @p into; peak depths take the max. */
void mergeHamsStats(HamsStats& into, const HamsStats& from);

/** Sum @p from's counters into @p into (all plain counters). */
void mergeEngineStats(NvmeEngineStats& into, const NvmeEngineStats& from);

/** Sum @p from's counters into @p into; pacer levels take the max. */
void mergeFtlStats(FtlStats& into, const FtlStats& from);

} // namespace hams

#endif // HAMS_CORE_STATS_MERGE_HH_
