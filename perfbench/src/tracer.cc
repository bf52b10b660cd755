#include "tracer.hh"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>

namespace perfbench {

const char*
spanName(Span s)
{
    switch (s) {
      case Span::Driver: return "driver";
      case Span::WorkloadNext: return "workload.next";
      case Span::PlatformIssue: return "platform.issue";
      case Span::SimStep: return "sim.step";
      case Span::FtlPrefill: return "ftl.prefill";
      case Span::Count: break;
    }
    return "?";
}

Tracer::Tracer(std::size_t record_capacity, std::uint64_t sample_every)
    : epoch(std::chrono::steady_clock::now()),
      sampleEvery(sample_every == 0 ? 1 : sample_every)
{
    calibrate();
    recs.reserve(record_capacity);
}

void
Tracer::calibrate()
{
    // Batches of empty spans under one parent; the median batch is the
    // cost. No record is kept: request 1 is never a multiple of the
    // stride set here.
    constexpr int batches = 15;
    constexpr int pairs = 4096;
    std::uint64_t stride = sampleEvery;
    sampleEvery = std::numeric_limits<std::uint64_t>::max();
    request = 1;
    std::vector<std::int64_t> pair_ns, inner_ns;
    for (int b = 0; b < batches; ++b) {
        SpanAggregate& a = totals[static_cast<std::size_t>(Span::SimStep)];
        a = SpanAggregate{};
        std::int64_t t0 = nowNs();
        for (int i = 0; i < pairs; ++i) {
            begin(Span::SimStep);
            end();
        }
        std::int64_t t1 = nowNs();
        pair_ns.push_back((t1 - t0) / pairs);
        inner_ns.push_back(a.totalNs / pairs);
    }
    std::sort(pair_ns.begin(), pair_ns.end());
    std::sort(inner_ns.begin(), inner_ns.end());
    innerNs = inner_ns[batches / 2];
    outerNs = std::max<std::int64_t>(0, pair_ns[batches / 2] - innerNs);
    totals = {};
    sampleEvery = stride;
    request = 0;
    nextId = 1;
}

void
Tracer::begin(Span s)
{
    if (depth == stack.size())
        throw std::logic_error("tracer: spans nested too deeply");
    // Driver spans are always sampled so every sampled child has its
    // parent in the record set.
    bool sampled = s == Span::Driver || request % sampleEvery == 0;
    stack[depth++] = Open{nextId++, request, nowNs(), 0, s, sampled};
}

void
Tracer::end()
{
    std::int64_t t = nowNs();
    const Open& o = stack[--depth];
    std::int64_t dur = t - o.start;
    SpanAggregate& a = totals[static_cast<std::size_t>(o.name)];
    ++a.calls;
    a.totalNs += dur;
    a.selfNs += dur - o.childNs - innerNs;
    if (depth > 0)
        stack[depth - 1].childNs += dur + outerNs;
    if (!o.sampled)
        return;
    if (recs.size() == recs.capacity()) {
        ++dropped;
        return;
    }
    recs.push_back(SpanRecord{o.id, depth > 0 ? stack[depth - 1].id : 0,
                              o.request, o.start, t, o.name});
}

void
Tracer::writeRecords(std::FILE* f) const
{
    std::fprintf(f, "[");
    for (std::size_t i = 0; i < recs.size(); ++i) {
        const SpanRecord& r = recs[i];
        std::fprintf(f,
                     "%s\n{\"id\": %llu, \"parent\": %llu, \"request\": %llu, "
                     "\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld}",
                     i ? "," : "", static_cast<unsigned long long>(r.id),
                     static_cast<unsigned long long>(r.parent),
                     static_cast<unsigned long long>(r.request),
                     spanName(r.name), static_cast<long long>(r.startNs),
                     static_cast<long long>(r.endNs));
    }
    std::fprintf(f, "]");
}

} // namespace perfbench
