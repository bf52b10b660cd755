/**
 * @file
 * Order statistics the benchmark reports.
 */

#ifndef PERFBENCH_METRICS_HH_
#define PERFBENCH_METRICS_HH_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

/** Samples a percentile needs beyond it before it is reported. */
inline constexpr std::size_t samplesBeyondMin = 10;

/**
 * Nearest-rank percentile @p q (in (0, 1)) of @p sorted: the value at
 * rank ceil(q * n). @return false, leaving @p out alone, when fewer
 * than samplesBeyondMin samples lie beyond that rank.
 */
template <typename T>
bool
percentile(const std::vector<T>& sorted, double q, T& out)
{
    std::size_t n = sorted.size();
    // The epsilon keeps q * n from rounding up past an exact rank.
    auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n) - 1e-9));
    if (rank == 0 || rank > n || n - rank < samplesBeyondMin)
        return false;
    out = sorted[rank - 1];
    return true;
}

/** Median of @p v (mean of the middle two for even sizes); 0 if empty. */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2;
}

} // namespace perfbench

#endif // PERFBENCH_METRICS_HH_
