/**
 * @file
 * A fixed reference loop that measures how fast the host runs right
 * now, so host times can be scaled to one reference host speed.
 *
 * On a host shared with other tenants, what they run can change the
 * speed of cache-bound code by 1.6x for seconds to minutes at a time,
 * with no steal time to show for it (README.md has the measurements).
 * The loop does the kind of work the simulator's hot paths do (seeded
 * 16-way LRU tag lookups over a 256 KiB array, so it misses L1 and
 * hits L2) and always the same amount of it. Timed between chunks of a
 * pass, it slows down when the simulator does; dividing by it cancels
 * most of the host's drift. The loop lives in the benchmark's own
 * files, so a change to the simulator does not change it.
 */

#ifndef PERFBENCH_REFLOOP_HH_
#define PERFBENCH_REFLOOP_HH_

#include <cstdint>
#include <vector>

namespace perfbench {

class RefLoop
{
  public:
    /**
     * Host seconds one slice takes on the reference host. Scaling a
     * time by nominalS / (measured seconds per slice) expresses it in
     * seconds of that host.
     */
    static constexpr double nominalS = 4.0e-3;

    RefLoop();

    /** Reset the tag array and time one slice. @return host seconds. */
    double slice();

  private:
    std::vector<std::uint64_t> tags;
    std::uint64_t sink = 0; //!< keeps the loop's result alive
};

} // namespace perfbench

#endif // PERFBENCH_REFLOOP_HH_
