#include "flash/fil.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace hams {

namespace {

/**
 * Reject a flash configuration the model cannot time: a zero count
 * divides by zero in FlashAddress::decompose, and a non-positive or
 * non-finite channel bandwidth turns transferTime into an out-of-range
 * float-to-Tick cast. Each failure is a fatal naming the field.
 */
const FlashGeometry&
checkedGeometry(const FlashGeometry& g, const NandTiming& t)
{
    const struct
    {
        const char* name;
        std::uint32_t value;
    } counts[] = {
        {"channels", g.channels},
        {"packagesPerChannel", g.packagesPerChannel},
        {"diesPerPackage", g.diesPerPackage},
        {"planesPerDie", g.planesPerDie},
        {"blocksPerPlane", g.blocksPerPlane},
        {"pagesPerBlock", g.pagesPerBlock},
        {"pageSize", g.pageSize},
    };
    for (const auto& c : counts)
        if (c.value == 0)
            fatal("FlashGeometry::", c.name, " is 0; every flash "
                  "geometry count must be positive");
    if (!std::isfinite(t.channelBandwidth) || t.channelBandwidth <= 0)
        fatal("NandTiming::channelBandwidth is ", t.channelBandwidth,
              "; it must be a finite positive bytes/s");
    return g;
}

} // namespace

Fil::Fil(const FlashGeometry& geom, const NandTiming& timing)
    : _timing(timing), pool(checkedGeometry(geom, timing))
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
    FlashAddress a = FlashAddress::decompose(op.ppn, pool.geometry());
    // Only a read's completion is a channel transfer (register drain);
    // program/erase completions are cell work, whose extensions come
    // from the die-suspension push alone.
    return pool.trackOp(a, submitAt(op, a, at),
                        /*transfer_tailed=*/op.type ==
                            FlashOp::Type::Read);
}

Tick
Fil::submit(const FlashOp& op, Tick at)
{
    return submitAt(op, FlashAddress::decompose(op.ppn, pool.geometry()),
                    at);
}

Tick
Fil::submitAt(const FlashOp& op, const FlashAddress& a, Tick at)
{
    if (op.bytes > pool.geometry().pageSize)
        panic("flash op bytes ", op.bytes, " exceed page size ",
              pool.geometry().pageSize);

    switch (op.type) {
      case FlashOp::Type::Read:
        return read(a, op.bytes, at, op.background);
      case FlashOp::Type::Program:
        return program(a, op.bytes, at, op.background);
      case FlashOp::Type::Erase:
        return erase(a, at, op.background);
    }
    panic("unreachable flash op type");
}

Tick
Fil::admitForeground(const FlashAddress& a, Tick at, bool background,
                     bool& suspended, Tick& suspend_from)
{
    suspended = false;
    suspend_from = 0;
    if (background)
        return at;
    Tick all_gate = std::max(pool.dieFreeAt(a), pool.planeFreeAt(a));
    if (all_gate <= at)
        return at; // resource idle: nothing to preempt
    Tick fg_gate = std::max(pool.dieFgFreeAt(a), pool.planeFgFreeAt(a));
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
Fil::read(const FlashAddress& a, std::uint32_t bytes, Tick at,
          bool background)
{
    bool suspended;
    Tick suspend_from;
    at = admitForeground(a, at, background, suspended, suspend_from);

    // Command/address cycles ride the CA bus (no data-bus occupancy);
    // the cell read runs on the plane; the data transfer then drains
    // the die register over the channel data bus. Under a suspension
    // the die/plane belong to this op from `at`.
    Tick cmd_start = std::max(at, suspended ? at : pool.dieFreeAt(a));
    Tick cmd_done = cmd_start + _timing.cmdOverhead;

    Tick cell_start =
        std::max(cmd_done, suspended ? cmd_done : pool.planeFreeAt(a));
    Tick cell_done = cell_start + _timing.tR;

    Tick xfer_start = claimChannel(a.channel, cell_done,
                                   _timing.transferTime(bytes), background);
    Tick xfer_done = xfer_start + _timing.transferTime(bytes);

    if (background) {
        pool.occupyPlaneBg(a, cell_done);
        pool.occupyDieBg(a, xfer_done);
        ++_activity.gcReads;
    } else {
        pool.occupyPlane(a, cell_done);
        pool.occupyDie(a, xfer_done);
        finishSuspend(a, suspended, suspend_from, xfer_done);
    }

    ++_activity.reads;
    _activity.bytesTransferred += bytes;
    return xfer_done;
}

Tick
Fil::program(const FlashAddress& a, std::uint32_t bytes, Tick at,
             bool background)
{
    bool suspended;
    Tick suspend_from;
    at = admitForeground(a, at, background, suspended, suspend_from);

    // Data loads into the die register over the channel first, then the
    // cell program proceeds without holding the bus.
    Tick earliest = std::max(at, suspended ? at : pool.dieFreeAt(a));
    Tick duration = _timing.cmdOverhead + _timing.transferTime(bytes);
    Tick xfer_start = claimChannel(a.channel, earliest, duration,
                                   background);
    Tick xfer_done = xfer_start + duration;

    Tick cell_start =
        std::max(xfer_done, suspended ? xfer_done : pool.planeFreeAt(a));
    Tick cell_done = cell_start + _timing.tPROG;

    if (background) {
        pool.occupyPlaneBg(a, cell_done);
        pool.occupyDieBg(a, cell_done);
        ++_activity.gcPrograms;
    } else {
        pool.occupyPlane(a, cell_done);
        pool.occupyDie(a, cell_done);
        finishSuspend(a, suspended, suspend_from, cell_done);
    }

    ++_activity.programs;
    _activity.bytesTransferred += bytes;
    return cell_done;
}

Tick
Fil::erase(const FlashAddress& a, Tick at, bool background)
{
    bool suspended;
    Tick suspend_from;
    at = admitForeground(a, at, background, suspended, suspend_from);

    Tick cmd_start = std::max(at, suspended ? at : pool.dieFreeAt(a));
    Tick cmd_done = cmd_start + _timing.cmdOverhead;

    Tick cell_start =
        std::max(cmd_done, suspended ? cmd_done : pool.planeFreeAt(a));
    Tick cell_done = cell_start + _timing.tERASE;

    if (background) {
        pool.occupyPlaneBg(a, cell_done);
        pool.occupyDieBg(a, cell_done);
        ++_activity.gcErases;
    } else {
        pool.occupyPlane(a, cell_done);
        pool.occupyDie(a, cell_done);
        finishSuspend(a, suspended, suspend_from, cell_done);
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
