#include "flash/nand_package.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace hams {

NandPackagePool::NandPackagePool(const FlashGeometry& geom) : geom(geom)
{
    std::size_t dies = std::size_t(geom.channels) * geom.packagesPerChannel *
                       geom.diesPerPackage;
    sites.resize(geom.parallelUnits());
    for (std::uint64_t pu = 0; pu < sites.size(); ++pu) {
        FlashAddress a =
            FlashAddress::decompose(pu * geom.pagesPerPlane(), geom);
        auto die = static_cast<std::uint32_t>(
            (std::uint64_t(a.channel) * geom.packagesPerChannel +
             a.package) * geom.diesPerPackage + a.die);
        sites[pu] = {a.channel, die, die * geom.planesPerDie + a.plane};
    }
    dieFree.assign(dies, 0);
    planeFree.assign(dies * geom.planesPerDie, 0);
    dieBgFree.assign(dies, 0);
    planeBgFree.assign(dies * geom.planesPerDie, 0);
    opHeads.assign(dies + geom.channels, nil);
}

void
NandPackagePool::pushBackgroundOut(const FlashSite& s, Tick from, Tick delta)
{
    Tick& d = dieBgFree[s.die];
    if (d > from)
        d += delta;
    Tick& p = planeBgFree[s.plane];
    if (p > from)
        p += delta;
    // Every cell-tailed tracked op on this die still in flight at the
    // suspension point finishes later by the stolen window. Each op is
    // extended by exactly one mechanism — cell-tailed ops by the die
    // push here, transfer-tailed ops by bumpChannelOps — so one
    // foreground op that both claims the channel and suspends the die
    // can never double-count against a single record. Uniform
    // extension preserves the relative order of ops on the same die,
    // so the latest-latched op stays the latest — the FTL relies on
    // this to track one handle per GC slice.
    extendList(s.die, from, delta);
}

void
NandPackagePool::bumpChannelOps(std::uint32_t ch, Tick from, Tick delta)
{
    extendList(channelList(ch), from, delta);
}

void
NandPackagePool::extendList(std::uint32_t list, Tick from, Tick delta)
{
    for (std::uint32_t slot = opHeads[list]; slot != nil;) {
        OpRecord& r = ops[slot];
        if (r.completion > from)
            r.completion += delta;
        slot = r.next;
    }
}

FlashOpHandle
NandPackagePool::trackOp(const FlashSite& s, Tick completion,
                         bool transfer_tailed)
{
    std::uint32_t slot = freeHead;
    if (slot != nil) {
        freeHead = ops[slot].next;
    } else {
        slot = static_cast<std::uint32_t>(ops.size());
        HAMS_LINT_SUPPRESS("op-arena growth to the high-water mark of "
                           "tracked flash ops; steady state recycles "
                           "slots off the free stack")
        ops.emplace_back();
    }
    OpRecord& r = ops[slot];
    r.live = true;
    r.list = transfer_tailed ? channelList(s.channel) : s.die;
    r.completion = completion;
    // Link at the head of the die's or channel's list.
    std::uint32_t& head = opHeads[r.list];
    r.prev = nil;
    r.next = head;
    if (head != nil)
        ops[head].prev = slot;
    head = slot;
    ++liveCount;
    return {slot, r.gen};
}

Tick
NandPackagePool::completionOf(FlashOpHandle h) const
{
    if (h.slot >= ops.size() || ops[h.slot].gen != h.gen ||
        !ops[h.slot].live)
        panic("completionOf on a stale or invalid FlashOpHandle (slot ",
              h.slot, " gen ", h.gen, ")");
    return ops[h.slot].completion;
}

void
NandPackagePool::releaseOp(FlashOpHandle h)
{
    if (h.slot >= ops.size() || ops[h.slot].gen != h.gen ||
        !ops[h.slot].live)
        panic("releaseOp on a stale or invalid FlashOpHandle (slot ",
              h.slot, " gen ", h.gen, ")");
    unlinkOp(ops[h.slot]);
    pushFree(h.slot);
    --liveCount;
}

void
NandPackagePool::unlinkOp(OpRecord& r)
{
    if (r.prev != nil)
        ops[r.prev].next = r.next;
    else
        opHeads[r.list] = r.next;
    if (r.next != nil)
        ops[r.next].prev = r.prev;
}

void
NandPackagePool::pushFree(std::uint32_t slot)
{
    OpRecord& r = ops[slot];
    r.live = false;
    ++r.gen;
    r.prev = nil;
    r.next = freeHead;
    freeHead = slot;
}

void
NandPackagePool::reset()
{
    std::fill(dieFree.begin(), dieFree.end(), 0);
    std::fill(planeFree.begin(), planeFree.end(), 0);
    std::fill(dieBgFree.begin(), dieBgFree.end(), 0);
    std::fill(planeBgFree.begin(), planeBgFree.end(), 0);
    // Power cycle: every outstanding handle dies with the in-flight
    // work. Generation bumps make pre-reset handles detectably stale.
    for (std::uint32_t& head : opHeads) {
        while (head != nil) {
            std::uint32_t slot = head;
            head = ops[slot].next;
            pushFree(slot);
        }
    }
    liveCount = 0;
}

} // namespace hams
