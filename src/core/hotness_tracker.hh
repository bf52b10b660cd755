/**
 * @file
 * Decaying access-frequency/recency monitor and the tiering knobs it
 * feeds — the CHMU-style hotness signal behind the mmap baseline's two
 * tiering consumers: hot-frame pinning (cold-first eviction) in the
 * page cache and the SSD-internal buffer, and the backing SSD's
 * background promotion/demotion. The platform builds a tracker only
 * when a consumer is on (TieringConfig::enabled()).
 *
 * HAMS itself carries no tracker: the paper's MoS is a direct-mapped
 * cache with no replacement choice for a hotness policy to steer.
 *
 * ## Decay/epoch contract
 *
 * The tracker keeps one saturating 16-bit counter per 4 KiB frame
 * (nvmeBlockSize, so page-cache keys, SSD LBAs and tracker frames
 * coincide) in a table pre-sized at construction (no growth, ever).
 * Time is measured in *epochs*: a global epoch counter advances once
 * every TieringConfig::epochAccesses touches. Counters are not swept
 * when an epoch turns — that would cost O(frames) on the hot path —
 * instead each entry carries the epoch stamp of its last touch and
 * decays *lazily*: a reader right-shifts the stored count by the
 * number of epochs elapsed since the stamp (a halving per epoch,
 * clamped so shifts >= 16 read as zero). touch() applies the same
 * decay, then saturating-increments and restamps. The observable value
 * of a frame is therefore always `count >> (epoch - stamp)` — frequency
 * with exponential recency decay — and two runs issuing the same touch
 * sequence read bit-identical values at every point: the tracker is
 * pure integer state driven only by the access stream.
 *
 * A frame is *hot* when its decayed count reaches
 * TieringConfig::hotThreshold. With the default epochAccesses = 4096
 * and hotThreshold = 4, a frame needs ~4 touches within the last
 * couple of epochs to qualify — a working-set membership test, not a
 * lifetime popularity contest.
 *
 * Hot-path discipline: touch()/isHotFrame() are O(1), allocation-free,
 * probe no hash and take no locks; the table is plain contiguous
 * memory.
 */

#ifndef HAMS_CORE_HOTNESS_TRACKER_HH_
#define HAMS_CORE_HOTNESS_TRACKER_HH_

#include <cstdint>
#include <vector>

#include "nvme/nvme_types.hh"
#include "sim/annotations.hh"
#include "sim/types.hh"

namespace hams {

/**
 * Tiering knobs, documented FtlConfig-style: each consumer has its own
 * enable. All defaults OFF — a default-constructed TieringConfig builds
 * no tracker and the simulated outputs are those of a plain LRU cache.
 */
struct TieringConfig
{
    /** Touches per epoch: the decay clock. Smaller = faster forgetting
     *  (recency-biased), larger = frequency-biased. */
    std::uint32_t epochAccesses = 4096;

    /** Decayed count at/above which a frame counts as hot. */
    std::uint16_t hotThreshold = 4;

    /** Consumer 1: cold-first eviction / hot-frame pinning in the
     *  DramBuffer LRU (page cache and SSD-internal buffer). */
    bool pinHotFrames = false;

    /** How many LRU-tail candidates the cold-first victim selector
     *  examines before giving up and taking the exact LRU tail. Bounds
     *  the per-eviction work (and the pinned fraction: at most the
     *  scan window can be skipped over). */
    std::uint32_t pinScanLimit = 8;

    /** Consumer 2: background promotion (flash -> buffer) and early
     *  demotion (dirty buffer frame -> flash) of frames as
     *  background-priority tracked flash ops, paced off the GC
     *  watermark band. Schedules events: platforms whose inline path
     *  reaches the SSD must decline tryAccess() while this is on. */
    bool migration = false;

    /** Tracker frames scanned per migration step while hunting for
     *  candidates (bounds per-step work on large devices). Must be
     *  non-zero when migration is on. */
    std::uint32_t migScanFrames = 256;

    /** Quiet window after the last host op before a migration step
     *  fires (idle-time tiering, like the FTL's gcIdleThreshold). */
    Tick migIdleDelay = microseconds(50);

    /** True when some consumer is on, i.e. a tracker is needed. */
    bool enabled() const { return pinHotFrames || migration; }
};

/**
 * Per-frame decaying hotness monitor (see the file header for the
 * decay/epoch contract). Pre-sized at construction; every method is
 * O(1).
 */
class HotnessTracker
{
  public:
    /** Track @p span_bytes of address space at nvmeBlockSize grain. */
    HotnessTracker(std::uint64_t span_bytes, const TieringConfig& cfg);

    /** Record one access to @p addr (decay + saturating increment). */
    HAMS_HOT_PATH void
    touch(Addr addr)
    {
        std::uint64_t frame = addr / nvmeBlockSize;
        if (frame >= entries.size())
            return; // folded/out-of-span addresses carry no signal
        Entry& e = entries[frame];
        std::uint32_t shift = _epoch - e.stamp;
        std::uint16_t c = shift >= 16 ? 0
                                      : static_cast<std::uint16_t>(
                                            e.count >> shift);
        if (c != 0xFFFF)
            ++c;
        e.count = c;
        e.stamp = _epoch;
        if (++sinceEpoch >= epochAccesses) {
            sinceEpoch = 0;
            ++_epoch;
        }
    }

    /** Decayed count of @p frame right now (no state change). */
    HAMS_HOT_PATH std::uint16_t
    countOf(std::uint64_t frame) const
    {
        const Entry& e = entries[frame];
        std::uint32_t shift = _epoch - e.stamp;
        return shift >= 16
                   ? 0
                   : static_cast<std::uint16_t>(e.count >> shift);
    }

    /** True when @p frame's decayed count reaches the hot threshold. */
    HAMS_HOT_PATH bool
    isHotFrame(std::uint64_t frame) const
    {
        return frame < entries.size() && countOf(frame) >= hotThreshold;
    }

    std::uint64_t frames() const { return entries.size(); }
    std::uint32_t epoch() const { return _epoch; }

  private:
    /** One frame: last-touch epoch stamp + saturating counter. */
    struct Entry
    {
        std::uint16_t count = 0;
        std::uint32_t stamp = 0;
    };

    std::uint32_t epochAccesses;
    std::uint16_t hotThreshold;
    std::vector<Entry> entries;
    std::uint32_t _epoch = 0;
    std::uint32_t sinceEpoch = 0;
};

} // namespace hams

#endif // HAMS_CORE_HOTNESS_TRACKER_HH_
