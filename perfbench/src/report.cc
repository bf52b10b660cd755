#include "report.hh"

#include "metrics.hh"

namespace perfbench {

using namespace hams;

namespace {

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

double
ns(Tick t)
{
    return ticksToSeconds(t) * 1e9;
}

template <typename T>
double
diff(T after, T before)
{
    return static_cast<double>(after) - static_cast<double>(before);
}

} // namespace

void
simulatedMetrics(const Window& w, std::vector<Metric>& out)
{
    const Snapshot& a = w.after;
    const Snapshot& b = w.before;
    double ops = diff(a.simOps, b.simOps);
    out.push_back({"sim_ops_per_s", "1/s",
                   ops / ticksToSeconds(a.simElapsed - b.simElapsed)});
    double sum = 0;
    for (Tick t : w.latencies)
        sum += ns(t);
    out.push_back({"sim_lat_mean_ns", "ns",
                   ratio(sum, static_cast<double>(w.latencies.size()))});
    double joules = (a.memEnergyJ - b.memEnergyJ) + (a.cpuEnergyJ - b.cpuEnergyJ);
    out.push_back({"sim_energy_nj_per_op", "nJ", joules * 1e9 / ops});
}

bool
latencyPercentiles(const Window& w, std::vector<Metric>& out)
{
    bool ok = true;
    const struct
    {
        const char* name;
        double q;
    } pcts[] = {{"sim_lat_p50_ns", 0.50},
                {"sim_lat_p99_ns", 0.99},
                {"sim_lat_p999_ns", 0.999}};
    for (const auto& p : pcts) {
        Tick v = 0;
        if (percentile(w.latencies, p.q, v))
            out.push_back({p.name, "ns", ns(v)});
        else
            ok = false;
    }
    out.push_back({"sim_lat_samples", "count",
                   static_cast<double>(w.latencies.size())});
    return ok;
}

void
layerCounts(const Window& w, std::vector<Metric>& out)
{
    const Snapshot& a = w.after;
    const Snapshot& b = w.before;
    double acc = diff(a.accesses, b.accesses);
    double issued = diff(a.plat.inlineDone, b.plat.inlineDone) +
                    diff(a.plat.eventIssued, b.plat.eventIssued) +
                    diff(a.plat.posted, b.plat.posted);

    out.push_back({"platform.inline_frac", "ratio",
                   ratio(diff(a.plat.inlineDone, b.plat.inlineDone), issued)});
    out.push_back({"sim.events_per_access", "count",
                   ratio(diff(a.events, b.events), acc)});
    out.push_back({"sim.allocs_per_access", "count",
                   ratio(diff(a.allocs, b.allocs), acc)});

    // Fig. 17 attribution of the platform's accesses, as shares.
    LatencyBreakdown bd = a.plat.bd;
    bd.os -= b.plat.bd.os;
    bd.nvdimm -= b.plat.bd.nvdimm;
    bd.dma -= b.plat.bd.dma;
    bd.ssd -= b.plat.bd.ssd;
    double total = static_cast<double>(bd.os + bd.nvdimm + bd.dma + bd.ssd);
    out.push_back({"stall.os_frac", "ratio", ratio(static_cast<double>(bd.os), total)});
    out.push_back({"stall.nvdimm_frac", "ratio",
                   ratio(static_cast<double>(bd.nvdimm), total)});
    out.push_back({"stall.dma_frac", "ratio", ratio(static_cast<double>(bd.dma), total)});
    out.push_back({"stall.ssd_frac", "ratio", ratio(static_cast<double>(bd.ssd), total)});

    out.push_back({"energy.memory_nj_per_op", "nJ",
                   ratio((a.memEnergyJ - b.memEnergyJ) * 1e9,
                         diff(a.simOps, b.simOps))});

    out.push_back({"ftl.erases", "count", diff(a.ftl.erases, b.ftl.erases)});
    out.push_back({"ftl.gc_write_stalls", "count",
                   diff(a.ftl.gcWriteStalls, b.ftl.gcWriteStalls)});

    double flash_ops = diff(a.flash.reads + a.flash.programs + a.flash.erases,
                            b.flash.reads + b.flash.programs + b.flash.erases);
    out.push_back({"flash.ops_per_access", "count", ratio(flash_ops, acc)});
    out.push_back({"flash.gc_ops", "count",
                   diff(a.flash.gcReads + a.flash.gcPrograms + a.flash.gcErases,
                        b.flash.gcReads + b.flash.gcPrograms + b.flash.gcErases)});
    out.push_back({"flash.suspensions", "count",
                   diff(a.flash.suspensions, b.flash.suspensions)});
}

void
workloadLayerCounts(const WorkloadRun& run, const Window& w,
                    std::vector<Metric>& out)
{
    const Snapshot& a = w.after;
    const Snapshot& b = w.before;
    double acc = diff(a.accesses, b.accesses);
    double ops = diff(a.simOps, b.simOps);
    double done = diff(a.plat.accessesDone, b.plat.accessesDone);

    // Fig. 17 attribution per platform access, in simulated ns.
    out.push_back({"stall.os_ns", "ns", ratio(ns(a.plat.bd.os) - ns(b.plat.bd.os), done)});
    out.push_back({"stall.nvdimm_ns", "ns",
                   ratio(ns(a.plat.bd.nvdimm) - ns(b.plat.bd.nvdimm), done)});
    out.push_back({"stall.dma_ns", "ns",
                   ratio(ns(a.plat.bd.dma) - ns(b.plat.bd.dma), done)});
    out.push_back({"stall.ssd_ns", "ns",
                   ratio(ns(a.plat.bd.ssd) - ns(b.plat.bd.ssd), done)});
    out.push_back({"ftl.gc_stall_ns_per_access", "ns",
                   ratio(ns(a.ftl.gcStallTicks) - ns(b.ftl.gcStallTicks), acc)});

    if (run.hasCore()) {
        double mem = diff(a.memInstructions, b.memInstructions);
        double l1 = diff(a.l1Hits, b.l1Hits);
        double active = diff(a.activeTime, b.activeTime);
        double stall = diff(a.stallTime, b.stallTime);
        out.push_back({"cpu.l1_hit_ratio", "ratio", ratio(l1, mem)});
        out.push_back({"cpu.l2_hit_ratio", "ratio",
                       ratio(diff(a.l2Hits, b.l2Hits), mem - l1)});
        out.push_back({"cpu.platform_per_access", "count",
                       ratio(diff(a.platformAccesses, b.platformAccesses), mem)});
        out.push_back({"cpu.stall_frac", "ratio", ratio(stall, active + stall)});
        out.push_back({"energy.cpu_nj_per_op", "nJ",
                       ratio((a.cpuEnergyJ - b.cpuEnergyJ) * 1e9, ops)});
    }

    if (run.isHams()) {
        const HamsStats& ha = a.hams;
        const HamsStats& hb = b.hams;
        double hacc = diff(ha.accesses, hb.accesses);
        double hits = diff(ha.hits, hb.hits);
        out.push_back({"core.hit_ratio", "ratio",
                       ratio(hits, hits + diff(ha.misses, hb.misses))});
        out.push_back({"core.dirty_evictions_per_access", "count",
                       ratio(diff(ha.dirtyEvictions, hb.dirtyEvictions), hacc)});
        out.push_back({"core.prp_clones", "count", diff(ha.prpClones, hb.prpClones)});
        out.push_back({"core.wait_queued", "count", diff(ha.waitQueued, hb.waitQueued)});
        out.push_back({"core.persist_gate_waits", "count",
                       diff(ha.persistGateWaits, hb.persistGateWaits)});
        // Fig. 18: memory delay per controller access.
        out.push_back({"core.delay_nvdimm_ns", "ns",
                       ratio(ns(ha.memoryDelay.nvdimm) - ns(hb.memoryDelay.nvdimm), hacc)});
        out.push_back({"core.delay_dma_ns", "ns",
                       ratio(ns(ha.memoryDelay.dma) - ns(hb.memoryDelay.dma), hacc)});
        out.push_back({"core.delay_ssd_ns", "ns",
                       ratio(ns(ha.memoryDelay.ssd) - ns(hb.memoryDelay.ssd), hacc)});
        out.push_back({"nvme.commands_per_access", "count",
                       ratio(diff(a.nvme.submitted, b.nvme.submitted), acc)});
        out.push_back({"nvme.journal_sets", "count",
                       diff(a.nvme.journalSets, b.nvme.journalSets)});
    }

    out.push_back({"ssd.flushes", "count", diff(a.ssd.flushes, b.ssd.flushes)});
    out.push_back({"ssd.throttled", "count",
                   diff(a.ssd.throttledCommands, b.ssd.throttledCommands)});
    double buf = diff(a.ssd.bufferHits + a.ssd.bufferMisses,
                      b.ssd.bufferHits + b.ssd.bufferMisses);
    if (buf > 0)
        out.push_back({"ssd.buffer_hit_ratio", "ratio",
                       diff(a.ssd.bufferHits, b.ssd.bufferHits) / buf});
    double host_writes = diff(a.ftl.hostWrites, b.ftl.hostWrites);
    if (host_writes > 0)
        out.push_back({"ftl.write_amp", "ratio",
                       1.0 + diff(a.ftl.gcRelocations, b.ftl.gcRelocations) /
                                 host_writes});

    if (run.isMmap()) {
        double faults = diff(a.mmapFaults, b.mmapFaults);
        double hits = diff(a.mmapHits, b.mmapHits);
        out.push_back({"mmap.fault_rate", "ratio", ratio(faults, acc)});
        out.push_back({"mmap.page_cache_hit_ratio", "ratio",
                       ratio(hits, hits + faults)});
        out.push_back({"mmap.writebacks", "count",
                       diff(a.mmapWritebacks, b.mmapWritebacks)});
    }
}

} // namespace perfbench
