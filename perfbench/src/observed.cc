#include "observed.hh"

#include <stdexcept>
#include <utility>

namespace perfbench {

using namespace hams;

ObservedPlatform::ObservedPlatform(MemoryPlatform& inner,
                                   std::size_t max_outstanding,
                                   std::size_t latency_capacity)
    : inner(inner), slots(max_outstanding)
{
    freeSlots.reserve(max_outstanding);
    for (std::size_t i = max_outstanding; i-- > 0;)
        freeSlots.push_back(static_cast<std::uint32_t>(i));
    lat.reserve(latency_capacity);
}

void
ObservedPlatform::startWindow()
{
    lat.clear();
    overflow = 0;
    recording = true;
}

std::uint32_t
ObservedPlatform::track(AccessCb cb, Tick at, bool is_flush)
{
    if (freeSlots.empty())
        throw std::runtime_error("observed platform: too many accesses "
                                 "in flight for the tracking table");
    std::uint32_t s = freeSlots.back();
    freeSlots.pop_back();
    Pending& p = slots[s];
    p.cb = std::move(cb);
    p.issue = at;
    ++p.gen;
    p.busy = true;
    p.isFlush = is_flush;
    ++live;
    return s;
}

AccessCb
ObservedPlatform::relay(std::uint32_t slot)
{
    std::uint32_t gen = slots[slot].gen;
    return [this, slot, gen](Tick done, const LatencyBreakdown& bd) {
        complete(slot, gen, done, bd);
    };
}

void
ObservedPlatform::complete(std::uint32_t slot, std::uint32_t gen,
                           Tick done, const LatencyBreakdown& bd)
{
    Pending& p = slots[slot];
    if (!p.busy || p.gen != gen) {
        ++c.failed; // a second completion of an access already done
        return;
    }
    p.busy = false;
    --live;
    if (done < p.issue)
        ++c.failed;
    if (!p.isFlush) {
        ++c.accessesDone;
        c.bd += bd;
        sample(p.issue, done);
    }
    AccessCb cb = std::move(p.cb);
    freeSlots.push_back(slot);
    cb(done, bd);
}

void
ObservedPlatform::sample(Tick issue, Tick done)
{
    if (!recording)
        return;
    if (lat.size() == lat.capacity()) {
        ++overflow;
        return;
    }
    lat.push_back(done - issue);
}

void
ObservedPlatform::access(const MemAccess& acc, Tick at, AccessCb cb)
{
    ScopedSpan span(tracer, Span::PlatformIssue);
    ++c.issueCalls;
    if (!cb) {
        // Fire-and-forget (a core's background writeback): forward it
        // as is, since adding a callback would add a completion event.
        ++c.posted;
        inner.access(acc, at, nullptr);
        return;
    }
    ++c.eventIssued;
    inner.access(acc, at, relay(track(std::move(cb), at, false)));
}

bool
ObservedPlatform::tryAccess(const MemAccess& acc, Tick at,
                            InlineCompletion& out)
{
    ScopedSpan span(tracer, Span::PlatformIssue);
    ++c.issueCalls;
    if (!inner.tryAccess(acc, at, out))
        return false;
    ++c.inlineDone;
    ++c.accessesDone;
    if (out.done < at)
        ++c.failed;
    c.bd += out.bd;
    sample(at, out.done);
    return true;
}

void
ObservedPlatform::flush(Tick at, AccessCb cb)
{
    ScopedSpan span(tracer, Span::PlatformIssue);
    ++c.issueCalls;
    ++c.flushes;
    if (!cb) {
        inner.flush(at, nullptr);
        return;
    }
    inner.flush(at, relay(track(std::move(cb), at, true)));
}

} // namespace perfbench
