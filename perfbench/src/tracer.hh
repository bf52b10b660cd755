/**
 * @file
 * Host-time spans recorded around the benchmark's calls into the
 * simulator's layers.
 *
 * Every span carries a name, start, end, parent span and request id
 * (the workload's op sequence number). Per-name aggregates (calls,
 * total and self time) are kept for every span; full records are kept
 * only for requests whose id is a multiple of the sampling stride, in
 * a buffer sized at construction, so tracing allocates nothing while
 * it runs. Self time is a span's duration minus the time its direct
 * children cover.
 *
 * The tracer's own work would otherwise land in the self times: the
 * clock read inside a span in the span's own, and the rest of each
 * begin()/end() pair in its parent's. The constructor times empty
 * spans to measure both costs, and end() subtracts them, so self times
 * hold the traced code's time. Durations (totalNs) are left as read.
 */

#ifndef PERFBENCH_TRACER_HH_
#define PERFBENCH_TRACER_HH_

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

namespace perfbench {

/** The layer boundaries the benchmark wraps. */
enum class Span : std::uint8_t {
    Driver,        //!< one CoreModel::run call or one closed-loop chunk
    WorkloadNext,  //!< WorkloadGenerator::next
    PlatformIssue, //!< MemoryPlatform::access / tryAccess / flush
    SimStep,       //!< an event-step call made by the benchmark's driver
    FtlPrefill,    //!< one PageFtl::writePage call of the prefill
    Count
};

inline constexpr std::size_t spanKinds = static_cast<std::size_t>(Span::Count);

/** Metric-style name of @p s ("driver", "workload.next", ...). */
const char* spanName(Span s);

/** Totals of one span name. */
struct SpanAggregate
{
    std::uint64_t calls = 0;
    std::int64_t totalNs = 0; //!< durations as read
    std::int64_t selfNs = 0;  //!< tracer cost subtracted
};

/** One sampled span. Ids start at 1; parent 0 means a root span. */
struct SpanRecord
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t request = 0;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    Span name = Span::Driver;
};

class Tracer
{
  public:
    /**
     * @param record_capacity sampled span records kept at most
     * @param sample_every    keep full records of request ids that are
     *                        multiples of this stride
     */
    Tracer(std::size_t record_capacity, std::uint64_t sample_every);

    /** Request id given to the spans that open from now on. */
    void setRequest(std::uint64_t id) { request = id; }

    void begin(Span s);
    void end();

    const SpanAggregate&
    aggregate(Span s) const
    {
        return totals[static_cast<std::size_t>(s)];
    }

    /** Every span name's aggregate, indexed by Span. */
    const std::array<SpanAggregate, spanKinds>& aggregates() const
    {
        return totals;
    }

    const std::vector<SpanRecord>& records() const { return recs; }
    std::uint64_t droppedRecords() const { return dropped; }

    /** Write the sampled records as a JSON array. */
    void writeRecords(std::FILE* f) const;

    /** Tracer time inside each span: taken from the span's self time. */
    std::int64_t innerCostNs() const { return innerNs; }
    /** Tracer time around each span: taken from its parent's self time. */
    std::int64_t outerCostNs() const { return outerNs; }

  private:
    struct Open
    {
        std::uint64_t id;
        std::uint64_t request;
        std::int64_t start;
        std::int64_t childNs;
        Span name;
        bool sampled;
    };

    void calibrate();

    std::int64_t
    nowNs() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - epoch)
            .count();
    }

    std::chrono::steady_clock::time_point epoch;
    std::uint64_t sampleEvery;
    std::uint64_t request = 0;
    std::uint64_t nextId = 1;
    std::array<Open, 8> stack{};
    std::size_t depth = 0;
    std::array<SpanAggregate, spanKinds> totals{};
    std::vector<SpanRecord> recs;
    std::uint64_t dropped = 0;
    std::int64_t innerNs = 0;
    std::int64_t outerNs = 0;
};

/** RAII span; a null tracer makes it a no-op. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer* t, Span s) : tracer(t)
    {
        if (tracer)
            tracer->begin(s);
    }
    ~ScopedSpan()
    {
        if (tracer)
            tracer->end();
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

  private:
    Tracer* tracer;
};

} // namespace perfbench

#endif // PERFBENCH_TRACER_HH_
