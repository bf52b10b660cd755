#include "core/stats_merge.hh"

#include <algorithm>

namespace hams {

void
mergeHamsStats(HamsStats& into, const HamsStats& from)
{
    into.accesses += from.accesses;
    into.hits += from.hits;
    into.misses += from.misses;
    into.fills += from.fills;
    into.cleanVictims += from.cleanVictims;
    into.dirtyEvictions += from.dirtyEvictions;
    into.prpClones += from.prpClones;
    into.waitQueued += from.waitQueued;
    into.redundantEvictionsAvoided += from.redundantEvictionsAvoided;
    into.persistGateWaits += from.persistGateWaits;
    // Depth peaks: each shard's wait lists and gate queue are separate
    // structures — the platform-wide peak is the deepest any one of
    // them got, not the sum.
    into.waiterPeakDepth =
        std::max(into.waiterPeakDepth, from.waiterPeakDepth);
    into.gateQueuePeakDepth =
        std::max(into.gateQueuePeakDepth, from.gateQueuePeakDepth);
    into.replayedCommands += from.replayedCommands;
    into.degradedAccesses += from.degradedAccesses;
    into.restoreStalls += from.restoreStalls;
    into.recoveryGateWaits += from.recoveryGateWaits;
    into.memoryDelay += from.memoryDelay;
}

void
mergeEngineStats(NvmeEngineStats& into, const NvmeEngineStats& from)
{
    into.submitted += from.submitted;
    into.completed += from.completed;
    into.journalSets += from.journalSets;
    into.journalClears += from.journalClears;
    into.replayed += from.replayed;
}

void
mergeFtlStats(FtlStats& into, const FtlStats& from)
{
    into.hostReads += from.hostReads;
    into.hostWrites += from.hostWrites;
    into.gcRuns += from.gcRuns;
    into.gcRelocations += from.gcRelocations;
    into.erases += from.erases;
    into.gcBatches += from.gcBatches;
    into.gcIdleKicks += from.gcIdleKicks;
    into.gcWriteStalls += from.gcWriteStalls;
    into.gcStallTicks += from.gcStallTicks;
    into.gcForegroundOverlap += from.gcForegroundOverlap;
    into.gcStreamBlocks += from.gcStreamBlocks;
    into.gcQualityDeferrals += from.gcQualityDeferrals;
    into.tierBgReads += from.tierBgReads;
    into.tierBgWrites += from.tierBgWrites;
    // Pacer levels are instantaneous/peak readings per shard, not
    // event counts: aggregate as maxima.
    into.paceLevel = std::max(into.paceLevel, from.paceLevel);
    into.paceLevelMax = std::max(into.paceLevelMax, from.paceLevelMax);
}

} // namespace hams
