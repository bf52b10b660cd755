/**
 * @file
 * Metrics of one measured window, computed from the counters read at
 * its two ends. Everything here is simulated or counted, so it is a
 * pure function of the workload and seed.
 */

#ifndef PERFBENCH_REPORT_HH_
#define PERFBENCH_REPORT_HH_

#include <string>
#include <vector>

#include "workloads.hh"

namespace perfbench {

struct Metric
{
    std::string name;
    std::string unit;
    double value = 0;
};

/** The counters at both ends of a window and its sorted latencies. */
struct Window
{
    Snapshot before;
    Snapshot after;
    std::vector<hams::Tick> latencies;
};

/**
 * End-to-end simulated metrics: sim_ops_per_s, sim_lat_mean_ns (per
 * platform access, issue to completion) and sim_energy_nj_per_op.
 */
void simulatedMetrics(const Window& w, std::vector<Metric>& out);

/**
 * The latency percentiles that have at least samplesBeyondMin samples
 * beyond them, then the sample count. @return false when one is left
 * out for lack of samples.
 */
bool latencyPercentiles(const Window& w, std::vector<Metric>& out);

/**
 * Per-layer counts defined on every workload. None is a time, so none
 * reads the same on every run merely because a layer is idle.
 */
void layerCounts(const Window& w, std::vector<Metric>& out);

/**
 * Per-layer counts of the layers only some workloads have, and the
 * simulated-time ones that are zero where a layer is idle.
 */
void workloadLayerCounts(const WorkloadRun& run, const Window& w,
                         std::vector<Metric>& out);

} // namespace perfbench

#endif // PERFBENCH_REPORT_HH_
