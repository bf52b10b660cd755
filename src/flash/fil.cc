#include "flash/fil.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sim/logging.hh"

namespace hams {

namespace {

/**
 * Reject a flash configuration the model cannot time: a zero count
 * divides by zero when a PPN is resolved to its site; a die or plane
 * count past 32 bits overflows the pool's site and list indices, and
 * a page or byte count past 64 bits wraps PPNs and capacities; a
 * non-positive or non-finite channel bandwidth turns transferTime
 * into an out-of-range float-to-Tick cast. Each failure is a fatal
 * naming the field, raised before anything is sized from the counts.
 */
const FlashGeometry&
checkedGeometry(const FlashGeometry& g, const NandTiming& t)
{
    // Each count multiplies into the running `what` count, which must
    // stay within `limit`: die and plane indices are uint32_t, and the
    // dies share the pool's list indices with one list per channel.
    constexpr std::uint64_t u32 = std::numeric_limits<std::uint32_t>::max();
    constexpr std::uint64_t u64 = std::numeric_limits<std::uint64_t>::max();
    const std::uint64_t dies = u32 - g.channels;
    const struct
    {
        const char* name;
        std::uint32_t value;
        const char* what;
        std::uint64_t limit;
    } counts[] = {
        {"channels", g.channels, "die", dies},
        {"packagesPerChannel", g.packagesPerChannel, "die", dies},
        {"diesPerPackage", g.diesPerPackage, "die", dies},
        {"planesPerDie", g.planesPerDie, "plane", u32},
        {"blocksPerPlane", g.blocksPerPlane, "page", u64},
        {"pagesPerBlock", g.pagesPerBlock, "page", u64},
        {"pageSize", g.pageSize, "byte", u64},
    };
    std::uint64_t n = 1;
    for (const auto& c : counts) {
        if (c.value == 0)
            fatal("FlashGeometry::", c.name, " is 0; every flash "
                  "geometry count must be positive");
        if (n > c.limit / c.value)
            fatal("FlashGeometry::", c.name, " = ", c.value,
                  " overflows the ", c.what, " count");
        n *= c.value;
    }
    if (!std::isfinite(t.channelBandwidth) || t.channelBandwidth <= 0)
        fatal("NandTiming::channelBandwidth is ", t.channelBandwidth,
              "; it must be a finite positive bytes/s");
    return g;
}

} // namespace

Fil::Fil(const FlashGeometry& geom, const NandTiming& timing)
    : _timing(timing), pool(checkedGeometry(geom, timing)),
      totalPages(geom.totalPages()), pagesPerPlane(geom.pagesPerPlane())
{
    channelFree.assign(geom.channels, 0);
    channelBgFree.assign(geom.channels, 0);
}

Tick
Fil::claimChannel(std::uint32_t ch, Tick earliest, Tick duration,
                  bool background)
{
    Tick& fg = channelFree[ch];
    Tick& bg = channelBgFree[ch];
    if (background) {
        Tick start = std::max({earliest, fg, bg});
        bg = std::max(bg, start + duration);
        return start;
    }
    Tick start = std::max(earliest, fg);
    // Foreground traffic owns the bus: a background transfer still
    // pending at our start slips behind us by our occupancy, and any
    // tracked background op still in flight on this channel finishes
    // later by the same window.
    if (bg > start) {
        bg += duration;
        pool.bumpChannelOps(ch, start, duration);
    }
    fg = std::max(fg, start + duration);
    return start;
}

FlashOpHandle
Fil::submitTracked(const FlashOp& op, Tick at)
{
    if (!op.background)
        panic("submitTracked is for background ops: a foreground op is "
              "never suspended, so its latched submit() tick is final");
    const FlashSite& s = siteOf(op.ppn);
    // Only a read's completion is a channel transfer (register drain);
    // program/erase completions are cell work, whose extensions come
    // from the die-suspension push alone.
    return pool.trackOp(s, submitAt(op, s, at),
                        /*transfer_tailed=*/op.type ==
                            FlashOp::Type::Read);
}

const FlashSite&
Fil::siteOf(std::uint64_t ppn) const
{
    if (ppn >= totalPages)
        panic("PPN ", ppn, " out of range (", totalPages, " pages)");
    return pool.site(ppn / pagesPerPlane);
}

Tick
Fil::submit(const FlashOp& op, Tick at)
{
    return submitAt(op, siteOf(op.ppn), at);
}

Tick
Fil::submitAt(const FlashOp& op, const FlashSite& s, Tick at)
{
    if (op.bytes > pool.geometry().pageSize)
        panic("flash op bytes ", op.bytes, " exceed page size ",
              pool.geometry().pageSize);

    switch (op.type) {
      case FlashOp::Type::Read:
        return read(s, op.bytes, at, op.background);
      case FlashOp::Type::Program:
        return program(s, op.bytes, at, op.background);
      case FlashOp::Type::Erase:
        return erase(s, at, op.background);
    }
    panic("unreachable flash op type");
}

Tick
Fil::admitForeground(const FlashSite& s, Tick at, bool background,
                     bool& suspended, Tick& suspend_from)
{
    suspended = false;
    suspend_from = 0;
    if (background)
        return at;
    Tick all_gate = std::max(pool.dieFreeAt(s), pool.planeFreeAt(s));
    if (all_gate <= at)
        return at; // resource idle: nothing to preempt
    Tick fg_gate = std::max(pool.dieFgFreeAt(s), pool.planeFgFreeAt(s));
    if (all_gate <= fg_gate)
        return at; // foreground work is the blocker: queue normally
    // Only background cell work extends past the foreground timeline:
    // suspend it and take the die/plane after the handshake.
    suspended = true;
    suspend_from = std::max(at, fg_gate);
    ++_activity.suspensions;
    return suspend_from + _timing.tSuspend;
}

Tick
Fil::read(const FlashSite& s, std::uint32_t bytes, Tick at,
          bool background)
{
    bool suspended;
    Tick suspend_from;
    at = admitForeground(s, at, background, suspended, suspend_from);

    // Command/address cycles ride the CA bus (no data-bus occupancy);
    // the cell read runs on the plane; the data transfer then drains
    // the die register over the channel data bus. Under a suspension
    // the die/plane belong to this op from `at`.
    Tick cmd_start = std::max(at, suspended ? at : pool.dieFreeAt(s));
    Tick cmd_done = cmd_start + _timing.cmdOverhead;

    Tick cell_start =
        std::max(cmd_done, suspended ? cmd_done : pool.planeFreeAt(s));
    Tick cell_done = cell_start + _timing.tR;

    Tick xfer = _timing.transferTime(bytes);
    Tick xfer_done = claimChannel(s.channel, cell_done, xfer, background) +
                     xfer;

    if (background) {
        pool.occupyPlaneBg(s, cell_done);
        pool.occupyDieBg(s, xfer_done);
        ++_activity.gcReads;
    } else {
        pool.occupyPlane(s, cell_done);
        pool.occupyDie(s, xfer_done);
        finishSuspend(s, suspended, suspend_from, xfer_done);
    }

    ++_activity.reads;
    _activity.bytesTransferred += bytes;
    return xfer_done;
}

Tick
Fil::program(const FlashSite& s, std::uint32_t bytes, Tick at,
             bool background)
{
    bool suspended;
    Tick suspend_from;
    at = admitForeground(s, at, background, suspended, suspend_from);

    // Data loads into the die register over the channel first, then the
    // cell program proceeds without holding the bus.
    Tick earliest = std::max(at, suspended ? at : pool.dieFreeAt(s));
    Tick duration = _timing.cmdOverhead + _timing.transferTime(bytes);
    Tick xfer_start = claimChannel(s.channel, earliest, duration,
                                   background);
    Tick xfer_done = xfer_start + duration;

    Tick cell_start =
        std::max(xfer_done, suspended ? xfer_done : pool.planeFreeAt(s));
    Tick cell_done = cell_start + _timing.tPROG;

    if (background) {
        pool.occupyPlaneBg(s, cell_done);
        pool.occupyDieBg(s, cell_done);
        ++_activity.gcPrograms;
    } else {
        pool.occupyPlane(s, cell_done);
        pool.occupyDie(s, cell_done);
        finishSuspend(s, suspended, suspend_from, cell_done);
    }

    ++_activity.programs;
    _activity.bytesTransferred += bytes;
    return cell_done;
}

Tick
Fil::erase(const FlashSite& s, Tick at, bool background)
{
    bool suspended;
    Tick suspend_from;
    at = admitForeground(s, at, background, suspended, suspend_from);

    Tick cmd_start = std::max(at, suspended ? at : pool.dieFreeAt(s));
    Tick cmd_done = cmd_start + _timing.cmdOverhead;

    Tick cell_start =
        std::max(cmd_done, suspended ? cmd_done : pool.planeFreeAt(s));
    Tick cell_done = cell_start + _timing.tERASE;

    if (background) {
        pool.occupyPlaneBg(s, cell_done);
        pool.occupyDieBg(s, cell_done);
        ++_activity.gcErases;
    } else {
        pool.occupyPlane(s, cell_done);
        pool.occupyDie(s, cell_done);
        finishSuspend(s, suspended, suspend_from, cell_done);
    }

    ++_activity.erases;
    return cell_done;
}

void
Fil::reset()
{
    pool.reset();
    std::fill(channelFree.begin(), channelFree.end(), 0);
    std::fill(channelBgFree.begin(), channelBgFree.end(), 0);
}

} // namespace hams
