/**
 * @file
 * Forwarding wrappers around the two interfaces a driver calls: the
 * workload generator and the memory platform.
 *
 * They only forward. Every call reaches the wrapped object with the
 * same arguments in the same order, a null completion callback stays
 * null, and eventQueue()/conductor() hand out the wrapped platform's
 * own, so a run through the wrappers is the same simulation as a run
 * without them (tests/selftest.cc checks this on every workload).
 * Around the forwarded calls they count, record per-access simulated
 * latency, check that every tracked access and flush completes exactly
 * once at or after its issue tick, and, given a Tracer (setTracer),
 * open spans.
 */

#ifndef PERFBENCH_OBSERVED_HH_
#define PERFBENCH_OBSERVED_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "baselines/platform.hh"
#include "tracer.hh"
#include "workload/workload.hh"

namespace perfbench {

/** Forwards a WorkloadGenerator; numbers the ops as request ids. */
class ObservedWorkload : public hams::WorkloadGenerator
{
  public:
    explicit ObservedWorkload(hams::WorkloadGenerator& inner) : inner(inner)
    {
    }

    const hams::WorkloadSpec& spec() const override { return inner.spec(); }

    bool
    next(hams::WorkloadOp& op) override
    {
        if (tracer)
            tracer->setRequest(opCount);
        bool more;
        {
            ScopedSpan span(tracer, Span::WorkloadNext);
            more = inner.next(op);
        }
        if (more) {
            ++opCount;
            accessCount += op.hasAccess;
        }
        return more;
    }

    void reset() override { inner.reset(); }

    void setTracer(Tracer* t) { tracer = t; }

    /** Ops that carried a memory access. */
    std::uint64_t accesses() const { return accessCount; }

  private:
    hams::WorkloadGenerator& inner;
    Tracer* tracer = nullptr;
    std::uint64_t opCount = 0;
    std::uint64_t accessCount = 0;
};

/** What an ObservedPlatform has seen, cumulative since construction. */
struct PlatformCounters
{
    std::uint64_t issueCalls = 0;   //!< access + tryAccess + flush calls
    std::uint64_t inlineDone = 0;   //!< tryAccess calls that completed
    std::uint64_t eventIssued = 0;  //!< access calls with a callback
    std::uint64_t posted = 0;       //!< access calls without a callback
    std::uint64_t flushes = 0;
    std::uint64_t failed = 0;       //!< early or repeated completions
    std::uint64_t accessesDone = 0; //!< completed accesses, inline too
    hams::LatencyBreakdown bd;      //!< summed over accessesDone
};

class ObservedPlatform : public hams::MemoryPlatform
{
  public:
    /**
     * @param max_outstanding tracked accesses + flushes in flight at once
     * @param latency_capacity latency samples kept per window
     */
    ObservedPlatform(hams::MemoryPlatform& inner,
                     std::size_t max_outstanding,
                     std::size_t latency_capacity);

    const std::string& name() const override { return inner.name(); }
    std::uint64_t capacity() const override { return inner.capacity(); }
    hams::EventQueue& eventQueue() override { return inner.eventQueue(); }
    hams::DomainConductor& conductor() override { return inner.conductor(); }
    bool persistent() const override { return inner.persistent(); }
    hams::EnergyBreakdownJ
    memoryEnergy(hams::Tick elapsed) const override
    {
        return inner.memoryEnergy(elapsed);
    }

    void access(const hams::MemAccess& acc, hams::Tick at,
                AccessCb cb) override;
    bool tryAccess(const hams::MemAccess& acc, hams::Tick at,
                   hams::InlineCompletion& out) override;
    void flush(hams::Tick at, AccessCb cb) override;

    void setTracer(Tracer* t) { tracer = t; }

    /** Start keeping latency samples (clears earlier ones). */
    void startWindow();
    /** Stop keeping latency samples. */
    void stopWindow() { recording = false; }
    /** Issue-to-completion ticks of the accesses completed in the window. */
    const std::vector<hams::Tick>& latencies() const { return lat; }
    /** Completed accesses the full sample buffer could not keep. */
    std::uint64_t latencyOverflow() const { return overflow; }

    const PlatformCounters& counters() const { return c; }
    /** Tracked accesses and flushes still awaiting completion. */
    std::uint64_t outstanding() const { return live; }

  private:
    struct Pending
    {
        AccessCb cb;
        hams::Tick issue = 0;
        std::uint32_t gen = 0;
        bool busy = false;
        bool isFlush = false;
    };

    std::uint32_t track(AccessCb cb, hams::Tick at, bool is_flush);
    AccessCb relay(std::uint32_t slot);
    void complete(std::uint32_t slot, std::uint32_t gen, hams::Tick done,
                  const hams::LatencyBreakdown& bd);
    void sample(hams::Tick issue, hams::Tick done);

    hams::MemoryPlatform& inner;
    Tracer* tracer = nullptr;
    std::vector<Pending> slots;
    std::vector<std::uint32_t> freeSlots;
    std::uint64_t live = 0;
    std::vector<hams::Tick> lat;
    bool recording = false;
    std::uint64_t overflow = 0;
    PlatformCounters c;
};

} // namespace perfbench

#endif // PERFBENCH_OBSERVED_HH_
