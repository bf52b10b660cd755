#include "refloop.hh"

#include <algorithm>
#include <chrono>

namespace perfbench {

namespace {

constexpr std::size_t ways = 16;
constexpr std::size_t sets = 2048;     //!< 2048 x 16 x 8 B = 256 KiB
constexpr std::uint64_t addrsPerSet = 24; //!< 16 of 24 fit: ~2/3 hit
constexpr int sliceIters = 150000;

} // namespace

RefLoop::RefLoop() : tags(sets * ways, 0) {}

double
RefLoop::slice()
{
    // Same start state every slice; the fill also brings the array
    // back into cache after the simulator evicted it.
    std::fill(tags.begin(), tags.end(), 0);
    auto t0 = std::chrono::steady_clock::now();
    std::uint64_t x = 88172645463325252ull;
    std::uint64_t hits = 0;
    for (int i = 0; i < sliceIters; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        std::uint64_t tag = x % (sets * addrsPerSet) + 1;
        std::uint64_t* w = &tags[(tag * 0x9E3779B97F4A7C15ull >> 40) %
                                 sets * ways];
        std::size_t j = 0;
        while (j < ways && w[j] != tag)
            ++j;
        hits += j < ways;
        // Move to the front; a miss drops the least recent way.
        for (j = std::min(j, ways - 1); j > 0; --j)
            w[j] = w[j - 1];
        w[0] = tag;
    }
    auto t1 = std::chrono::steady_clock::now();
    sink += hits;
    return std::chrono::duration<double>(t1 - t0).count();
}

} // namespace perfbench
