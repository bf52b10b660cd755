/**
 * @file
 * perfbench: run one workload with one seed, print its metrics as one
 * JSON line. perfbench/run.py builds this binary and wraps its output
 * with the run's context; README.md documents the metrics.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--spans <file>]
 *
 * A run is a series of passes, each a fresh setup of the seed followed
 * by the workload's fixed window of chunks, repeated until s seconds
 * have passed and at least minPasses have run. Every pass does the same
 * simulated work, and its simulated outputs must match the first
 * pass's bit for bit.
 *
 * Host times are scaled to a reference host speed: a fixed reference
 * loop (refloop.hh) is timed after every group of chunks, and each
 * pass's setup and window times are multiplied by RefLoop::nominalS
 * over the pass's mean slice time. The raw times are details.
 *
 * --trace 0 measures the end-to-end metrics: setup_s is the median
 * scaled setup time and host_accesses_per_s the median over passes of
 * the window's accesses per scaled host second; the simulated metrics
 * are the window's.
 *
 * --trace 1 measures the per-layer metrics: passes alternate between
 * untraced and traced, and the ratio of their median window times is
 * the tracing overhead. Span aggregates cover every traced pass.
 * --spans writes the sampled spans.
 */

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "metrics.hh"
#include "refloop.hh"
#include "report.hh"
#include "tracer.hh"
#include "workloads.hh"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string spans;
};

/** Passes a run makes at least, so setup_s is a median of 15 setups. */
constexpr int minPasses = 15;

double
secondsSince(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

/** Reference slices a pass's window is split by, at most. */
constexpr std::size_t refSlices = 8;

/** What one pass's window produced. */
struct Measured
{
    Window win;
    double setupS = 0;          //!< host seconds the pass's setup took
    double hostS = 0;           //!< host seconds the window's chunks took
    double refS = 0;            //!< mean host seconds of a reference slice
    std::uint64_t accesses = 0; //!< workload accesses in the window
    std::uint64_t latencyOverflow = 0;
    std::vector<Metric> counts; //!< the window's workloadLayerCounts
};

/**
 * Run the window's chunks in equal groups, timing each group and a
 * reference slice after it.
 */
Measured
measure(WorkloadRun& run, RefLoop& ref)
{
    Measured m;
    ObservedPlatform& op = run.observed();
    std::uint64_t first = run.accesses();
    std::size_t group = std::max<std::size_t>(1, run.windowChunks() / refSlices);
    std::size_t slices = 0;
    m.win.before = run.snapshot();
    op.startWindow();
    for (std::size_t chunk = 0; chunk < run.windowChunks();) {
        Clock::time_point t0 = Clock::now();
        for (std::size_t end = std::min(chunk + group, run.windowChunks());
             chunk < end; ++chunk)
            run.runChunk();
        m.hostS += secondsSince(t0, Clock::now());
        m.refS += ref.slice();
        ++slices;
    }
    m.refS /= static_cast<double>(slices);
    m.win.after = run.snapshot();
    op.stopWindow();
    m.accesses = run.accesses() - first;
    m.win.latencies = op.latencies();
    m.latencyOverflow = op.latencyOverflow();
    return m;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Everything one invocation prints. */
struct Result
{
    std::vector<std::string> checks; //!< failed checks
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    std::vector<Metric> layers;        //!< layer table: spans
    std::vector<Metric> layerCounts;   //!< layer table: counts
    std::vector<Metric> details;       //!< percentiles, error rate
    std::vector<std::pair<std::string, double>> samples;
};

/** Add a pass's attempts and failures of tracked accesses and flushes. */
void
tally(WorkloadRun& run, Result& r)
{
    const PlatformCounters& c = run.observed().counters();
    r.attempted += c.eventIssued + c.inlineDone + c.flushes;
    r.failed += c.failed + run.observed().outstanding();
}

void
errorRate(Result& r)
{
    r.details.push_back({"error_rate", "ratio",
                         r.attempted ? static_cast<double>(r.failed) /
                                           static_cast<double>(r.attempted)
                                     : 0.0});
}

/** Add @p fails to the result's failed checks, each line once. */
void
addChecks(const std::vector<std::string>& fails, Result& r)
{
    for (const std::string& f : fails)
        if (std::find(r.checks.begin(), r.checks.end(), f) == r.checks.end())
            r.checks.push_back(f);
}

/**
 * The passes of one run. Each pass's window must reproduce the first
 * pass's simulated outputs: its latency samples in completion order
 * and the counters the simulated metrics come from.
 */
class Passes
{
  public:
    Passes(const Args& a, Result& r) : a(a), r(r), start(Clock::now()) {}

    bool
    more() const
    {
        return count < minPasses || secondsSince(start, Clock::now()) < a.seconds;
    }

    /**
     * Set up, run the window and finish one pass. @return its window
     * (latencies sorted on the first pass, left empty on later ones).
     */
    Measured
    run(Tracer* tracer)
    {
        Clock::time_point t0 = Clock::now();
        WorkloadRun run(a.workload, a.seed, tracer);
        double setup_s = secondsSince(t0, Clock::now());
        std::array<SpanAggregate, spanKinds> before{};
        if (tracer)
            before = tracer->aggregates();
        Measured m = measure(run, ref);
        m.setupS = setup_s;
        // Take the window's spans before finish() pumps the queue
        // outside a chunk.
        for (std::size_t i = 0; tracer && i < spanKinds; ++i) {
            const SpanAggregate& after = tracer->aggregates()[i];
            spans[i].calls += after.calls - before[i].calls;
            spans[i].totalNs += after.totalNs - before[i].totalNs;
            spans[i].selfNs += after.selfNs - before[i].selfNs;
        }
        if (m.latencyOverflow > 0)
            addChecks({"latency sample buffer overflowed"}, r);
        workloadLayerCounts(run, m.win, m.counts);
        if (count == 0) {
            firstLat = m.win.latencies;
            firstSim = simulated(m);
            std::sort(m.win.latencies.begin(), m.win.latencies.end());
        } else {
            if (m.win.latencies != firstLat || simulated(m) != firstSim)
                addChecks({"a pass's simulated outputs differ from the "
                           "first pass's"},
                          r);
            m.win.latencies.clear();
        }
        addChecks(run.finish(), r);
        tally(run, r);
        ++count;
        return m;
    }

    int passes() const { return count; }
    /** Span aggregates summed over the traced passes' windows. */
    const std::array<SpanAggregate, spanKinds>& windowSpans() const
    {
        return spans;
    }

  private:
    /** Every simulated value a window yields, in a fixed order. */
    static std::vector<double>
    simulated(const Measured& m)
    {
        std::vector<Metric> v;
        simulatedMetrics(m.win, v);
        v.insert(v.end(), m.counts.begin(), m.counts.end());
        std::vector<double> vals;
        for (const Metric& x : v)
            vals.push_back(x.value);
        vals.push_back(
            static_cast<double>(m.win.after.events - m.win.before.events));
        return vals;
    }

    const Args& a;
    Result& r;
    RefLoop ref;
    Clock::time_point start;
    int count = 0;
    std::vector<hams::Tick> firstLat;
    std::vector<double> firstSim;
    std::array<SpanAggregate, spanKinds> spans{};
};

Result
endToEnd(const Args& a)
{
    Result r;
    Passes passes(a, r);
    std::vector<double> setup_s, rates, raw_setup_s, raw_rates, ref_s;
    Measured first;
    while (passes.more()) {
        Measured m = passes.run(nullptr);
        double scale = RefLoop::nominalS / m.refS;
        setup_s.push_back(m.setupS * scale);
        rates.push_back(static_cast<double>(m.accesses) / (m.hostS * scale));
        raw_setup_s.push_back(m.setupS);
        raw_rates.push_back(static_cast<double>(m.accesses) / m.hostS);
        ref_s.push_back(m.refS);
        if (passes.passes() == 1)
            first = std::move(m);
    }

    r.metrics.push_back({"host_accesses_per_s", "1/s", median(rates)});
    r.metrics.push_back({"setup_s", "s", median(setup_s)});
    r.details.push_back({"host.raw_accesses_per_s", "1/s", median(raw_rates)});
    r.details.push_back({"host.raw_setup_s", "s", median(raw_setup_s)});
    r.details.push_back({"host.ref_slice_s", "s", median(ref_s)});
    r.metrics.push_back({"peak_rss_mb", "MB", peakRssMb()});
    simulatedMetrics(first.win, r.metrics);
    if (!latencyPercentiles(first.win, r.details))
        r.checks.push_back("too few latency samples for a percentile");
    errorRate(r);

    r.samples = {{"passes", static_cast<double>(passes.passes())},
                 {"window_accesses", static_cast<double>(first.accesses)},
                 {"sim_lat", static_cast<double>(first.win.latencies.size())}};
    return r;
}

Result
perLayer(const Args& a)
{
    Result r;
    Passes passes(a, r);
    Tracer tracer(1 << 15, 4096);
    std::vector<double> plain_s, traced_s;
    Measured first;
    while (passes.more() || traced_s.empty()) {
        bool traced = passes.passes() % 2 == 1;
        Measured m = passes.run(traced ? &tracer : nullptr);
        (traced ? traced_s : plain_s).push_back(m.hostS);
        if (passes.passes() == 1)
            first = std::move(m);
    }

    const std::array<SpanAggregate, spanKinds>& spans = passes.windowSpans();
    auto acc = static_cast<double>(first.accesses * traced_s.size());
    auto agg = [&](Span s) -> const SpanAggregate& {
        return spans[static_cast<std::size_t>(s)];
    };
    auto self = [&](Span s) { return static_cast<double>(agg(s).selfNs); };
    auto perCall = [&](Span s) {
        return agg(s).calls ? self(s) / static_cast<double>(agg(s).calls) : 0.0;
    };
    const Span measured[] = {Span::Driver, Span::WorkloadNext,
                             Span::PlatformIssue, Span::SimStep};
    // The measured host time with the tracer's cost taken out: the sum
    // of the self times under the driver spans.
    double measured_ns = 0;
    for (Span s : measured)
        measured_ns += self(s);
    double plain_ns_per_access =
        median(plain_s) * 1e9 / static_cast<double>(first.accesses);

    // Spans every workload has, per call; then each span's share of the
    // measured host time, which is 0 for the event-step span where
    // CoreModel pumps events itself.
    r.metrics.push_back({"workload.next_ns", "ns", perCall(Span::WorkloadNext)});
    r.metrics.push_back({"driver.self_ns", "ns", self(Span::Driver) / acc});
    r.metrics.push_back({"platform.issue_ns", "ns", perCall(Span::PlatformIssue)});
    for (Span s : measured)
        r.metrics.push_back({std::string(spanName(s)) + ".share", "ratio",
                             self(s) / measured_ns});
    r.metrics.push_back({"trace.overhead_frac", "ratio",
                         median(traced_s) / median(plain_s) - 1.0});
    layerCounts(first.win, r.metrics);

    // The rest of the layer table: calls and self time per access, and
    // how far the traced self times, summed, are from the untraced
    // passes' host time per access.
    for (Span s : measured) {
        std::string n = spanName(s);
        r.layers.push_back({n + ".calls_per_access", "count",
                            static_cast<double>(agg(s).calls) / acc});
        r.layers.push_back({n + ".self_ns_per_access", "ns", self(s) / acc});
    }
    r.layers.push_back({"trace.residual_frac", "ratio",
                        measured_ns / acc / plain_ns_per_access - 1.0});
    r.layers.push_back({"trace.inner_cost_ns", "ns",
                        static_cast<double>(tracer.innerCostNs())});
    r.layers.push_back({"trace.outer_cost_ns", "ns",
                        static_cast<double>(tracer.outerCostNs())});
    const SpanAggregate& prefill = tracer.aggregates()[static_cast<std::size_t>(
        Span::FtlPrefill)];
    if (prefill.calls > 0)
        r.layers.push_back({"ftl.prefill_ns_per_page", "ns",
                            static_cast<double>(prefill.selfNs) /
                                static_cast<double>(prefill.calls)});
    r.layers.push_back({"host.untraced_ns_per_access", "ns", plain_ns_per_access});
    r.layerCounts = first.counts;
    latencyPercentiles(first.win, r.details);
    errorRate(r);

    r.samples = {{"passes", static_cast<double>(passes.passes())},
                 {"traced_passes", static_cast<double>(traced_s.size())},
                 {"window_accesses", static_cast<double>(first.accesses)},
                 {"span_records", static_cast<double>(tracer.records().size())},
                 {"span_records_dropped",
                  static_cast<double>(tracer.droppedRecords())}};

    if (!a.spans.empty()) {
        std::FILE* f = std::fopen(a.spans.c_str(), "w");
        if (!f)
            throw std::runtime_error("cannot write " + a.spans);
        tracer.writeRecords(f);
        std::fclose(f);
    }
    return r;
}

void
printMetrics(const std::vector<Metric>& v)
{
    std::printf("{");
    for (std::size_t i = 0; i < v.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", v[i].name.c_str(), v[i].value,
                    v[i].unit.c_str());
    std::printf("}");
}

void
print(const Result& r)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": ",
                r.checks.empty() && r.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    printMetrics(r.metrics);
    std::printf(", \"layers\": ");
    printMetrics(r.layers);
    std::printf(", \"layer_counts\": ");
    printMetrics(r.layerCounts);
    std::printf(", \"details\": ");
    printMetrics(r.details);
    std::printf(", \"samples\": {");
    for (std::size_t i = 0; i < r.samples.size(); ++i)
        std::printf("%s\"%s\": %.17g", i ? ", " : "",
                    r.samples[i].first.c_str(), r.samples[i].second);
    std::printf("}, \"checks\": [");
    for (std::size_t i = 0; i < r.checks.size(); ++i)
        std::printf("%s\"%s\"", i ? ", " : "", r.checks[i].c_str());
    std::printf("]}\n");
}

int
usage(const char* msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> "
                 "--seed <n> --seconds <s> --trace <0|1> [--spans <file>]\n",
                 msg);
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        if (i + 1 >= argc)
            return usage("missing value");
        const char* k = argv[i];
        const char* v = argv[++i];
        char* end = nullptr;
        if (!std::strcmp(k, "--workload"))
            a.workload = v;
        else if (!std::strcmp(k, "--seed"))
            a.seed = std::strtoull(v, &end, 10);
        else if (!std::strcmp(k, "--seconds"))
            a.seconds = std::strtod(v, &end);
        else if (!std::strcmp(k, "--trace"))
            a.trace = std::strcmp(v, "0") != 0;
        else if (!std::strcmp(k, "--spans"))
            a.spans = v;
        else
            return usage("unknown option");
        if (end && *end)
            return usage("bad number");
    }
    if (std::find(workloadNames().begin(), workloadNames().end(),
                  a.workload) == workloadNames().end())
        return usage("unknown workload");
    if (!(a.seconds >= 0))
        return usage("bad --seconds");

    try {
        Result r = a.trace ? perLayer(a) : endToEnd(a);
        for (const Metric& m : r.metrics)
            if (!std::isfinite(m.value))
                r.checks.push_back("metric " + m.name + " is not finite");
        print(r);
        return r.checks.empty() && r.failed == 0 ? 0 : 1;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
