#include "core/hotness_tracker.hh"

#include "sim/logging.hh"

namespace hams {

HotnessTracker::HotnessTracker(std::uint64_t span_bytes,
                               const TieringConfig& cfg)
    : epochAccesses(cfg.epochAccesses), hotThreshold(cfg.hotThreshold)
{
    if (cfg.epochAccesses == 0)
        fatal("TieringConfig::epochAccesses must be non-zero");
    if (cfg.hotThreshold == 0)
        fatal("TieringConfig::hotThreshold must be non-zero (0 would mark "
              "every frame hot and pin the whole cache)");
    std::uint64_t n = (span_bytes + nvmeBlockSize - 1) / nvmeBlockSize;
    if (n == 0)
        fatal("hotness tracker spans zero frames");
    entries.assign(n, Entry{});
}

} // namespace hams
