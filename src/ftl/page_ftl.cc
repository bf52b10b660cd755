#include "ftl/page_ftl.hh"

#include <algorithm>
#include <functional>
#include <limits>

#include "sim/logging.hh"

namespace hams {

PageFtl::PageFtl(const FlashGeometry& geom, Fil& fil, const FtlConfig& cfg)
    : geom(geom), fil(fil), cfg(cfg)
{
    if (cfg.overProvision <= 0.0 || cfg.overProvision >= 0.5)
        fatal("FTL over-provisioning must be in (0, 0.5), got ",
              cfg.overProvision);
    if (cfg.gcHighWater <= cfg.gcLowWater)
        fatal("FTL gcHighWater must exceed gcLowWater");
    if (geom.blocksPerPlane <= cfg.gcHighWater + 1)
        fatal("flash geometry too small for the GC watermarks");
    if (cfg.backgroundGc) {
        if (cfg.gcReserveBlocks >= cfg.gcLowWater)
            fatal("FTL gcReserveBlocks (", cfg.gcReserveBlocks,
                  ") must stay below gcLowWater (", cfg.gcLowWater,
                  ") so background GC starts before the reserve is hit");
        if (cfg.gcBatchPages == 0)
            fatal("FTL gcBatchPages must be at least 1");
    }
    if (cfg.gcAdaptivePacing && !cfg.backgroundGc)
        fatal("FTL gcAdaptivePacing requires backgroundGc: the pacer "
              "rate-limits the background machines");

    _logicalPages = static_cast<std::uint64_t>(
        static_cast<double>(geom.totalPages()) * (1.0 - cfg.overProvision));

    l2p.init(_logicalPages);

    std::uint64_t pu_count = geom.parallelUnits();
    units.resize(pu_count);
    blocks.resize(pu_count * geom.blocksPerPlane);
    for (std::uint64_t pu = 0; pu < pu_count; ++pu) {
        Unit& u = units[pu];
        // Every block of the unit can sit on either list, so reserving
        // both to unit capacity up front makes the steady-state write
        // path literally allocation-free: closing a block or recycling
        // a GC victim never grows a vector.
        u.freeBlocks.reserve(geom.blocksPerPlane);
        u.closedBlocks.reserve(geom.blocksPerPlane);
        // LIFO pop order: push high indices first so block 0 pops first.
        for (std::uint32_t b = geom.blocksPerPlane; b-- > 0;)
            u.freeBlocks.push_back(freeKey(0, b));
        // The vector is a min-heap on the packed (wear, block) key, so
        // the least-worn block pops first; fresh blocks pop in index
        // order, exactly the old linear scan's order.
        std::make_heap(u.freeBlocks.begin(), u.freeBlocks.end(),
                       std::greater<>());
    }
}

std::uint64_t
PageFtl::blockGlobalIndex(std::uint64_t pu, std::uint32_t block) const
{
    return pu * geom.blocksPerPlane + block;
}

std::uint64_t
PageFtl::makePpn(std::uint64_t pu, std::uint32_t block,
                 std::uint32_t page) const
{
    return (pu * geom.blocksPerPlane + block) * geom.pagesPerBlock + page;
}

PageFtl::Block&
PageFtl::blockOf(std::uint64_t pu, std::uint32_t block)
{
    return blocks[blockGlobalIndex(pu, block)];
}

void
PageFtl::ensureBlockArrays(Block& b)
{
    if (b.pageLpns.empty()) {
        HAMS_LINT_SUPPRESS("first-touch per-block metadata; sized once "
                           "and reused across erase cycles")
        b.pageLpns.assign(geom.pagesPerBlock,
                          std::numeric_limits<std::uint64_t>::max());
        HAMS_LINT_SUPPRESS("first-touch per-block metadata; sized once "
                           "and reused across erase cycles")
        b.validBits.assign((geom.pagesPerBlock + 63) / 64, 0);
    }
}

void
PageFtl::invalidate(std::uint64_t ppn)
{
    Block& b = blocks[ppn / geom.pagesPerBlock];
    auto page = static_cast<std::uint32_t>(ppn % geom.pagesPerBlock);
    ensureBlockArrays(b);
    std::uint64_t& word = b.validBits[page / 64];
    std::uint64_t mask = 1ull << (page % 64);
    if (word & mask) {
        word &= ~mask;
        --b.validCount;
    }
}

Tick
PageFtl::readPage(std::uint64_t lpn, std::uint32_t bytes, Tick at)
{
    ++_stats.hostReads;
    if (gcActiveMachines > 0)
        ++_stats.gcForegroundOverlap;
    std::uint64_t ppn = l2p.get(lpn);
    if (ppn == L2pMap::unmapped) {
        if (backgroundGcEnabled())
            noteHostActivity(at);
        return at; // unmapped: zero-fill, no flash access
    }
    Tick done = fil.submit({FlashOp::Type::Read, ppn, bytes}, at);
    if (backgroundGcEnabled())
        noteHostActivity(done);
    return done;
}

std::uint32_t
PageFtl::takeFreeBlock(Unit& u, std::uint64_t pu)
{
    if (u.freeBlocks.empty())
        fatal("parallel unit ", pu, " has no free blocks: GC cannot keep "
              "up with the write load (watermarks: reserve=",
              cfg.gcReserveBlocks, " low=", cfg.gcLowWater,
              " high=", cfg.gcHighWater, "; closedBlocks=",
              u.closedBlocks.size(), ", victim=", u.gc.victim,
              " cursor=", u.gc.nextPage, " pendingFree=", u.gc.pendingFree,
              ", active=", u.activeBlock, " writePtr=",
              u.activeBlock >= 0
                  ? blockOf(pu, static_cast<std::uint32_t>(u.activeBlock))
                        .writePtr
                  : 0,
              ", gcStream=", u.gcStreamBlock, " streamWritePtr=",
              u.gcStreamBlock >= 0
                  ? blockOf(pu,
                            static_cast<std::uint32_t>(u.gcStreamBlock))
                        .writePtr
                  : 0,
              " streamsOpened=", _stats.gcStreamBlocks, ", paceLevel=",
              _stats.paceLevel,
              ", gc machine ", u.gc.active ? "active" : "idle", ", mode ",
              backgroundGcEnabled() ? "background" : "synchronous", ")");
    std::pop_heap(u.freeBlocks.begin(), u.freeBlocks.end(),
                  std::greater<>());
    std::uint64_t key = u.freeBlocks.back();
    u.freeBlocks.pop_back();
    return keyBlock(key);
}

void
PageFtl::pushFreeBlock(std::uint64_t pu, std::uint32_t block)
{
    Unit& u = units[pu];
    HAMS_LINT_SUPPRESS("free-pool return; capacity is bounded by the "
                       "unit's physical block count")
    u.freeBlocks.push_back(freeKey(blockOf(pu, block).eraseCount, block));
    std::push_heap(u.freeBlocks.begin(), u.freeBlocks.end(),
                   std::greater<>());
}

std::uint64_t
PageFtl::allocate(std::uint64_t pu, Tick& at, bool for_gc)
{
    Unit& u = units[pu];
    // Dedicated relocation stream: GC victims pack into a per-unit
    // stream block, so relocation write amplification never churns
    // the foreground active block and cold valid pages consolidate
    // together. A full stream block joins closedBlocks like any
    // other. Packing is strictly best-effort: the stream never draws
    // on the reserve (a fresh stream block opens only above it), and
    // with no stream slack available the relocation falls through to
    // the shared active path below. The reserve block is therefore always
    // consumed *fresh* by a relocation crisis — exactly the PR 4
    // completion guarantee — while leftover stream slack on an empty
    // pool is headroom PR 4 never had (canStartVictim()).
    if (for_gc && cfg.gcStreamBlocks > 0) {
        if (u.gcStreamBlock < 0 &&
            u.freeBlocks.size() > cfg.gcReserveBlocks) {
            u.gcStreamBlock = takeFreeBlock(u, pu);
            ++_stats.gcStreamBlocks;
        }
        if (u.gcStreamBlock >= 0) {
            auto block = static_cast<std::uint32_t>(u.gcStreamBlock);
            Block& b = blockOf(pu, block);
            ensureBlockArrays(b);
            std::uint32_t page = b.writePtr++;
            // Rotate a just-filled stream block onto closedBlocks
            // eagerly, not on the next relocation: a dormant machine's
            // full stream block must be victimizable once churn kills
            // its pages, or a reclaimable block sits invisible while
            // the pool exhausts.
            if (b.full(geom.pagesPerBlock)) {
                HAMS_LINT_SUPPRESS("closed-block list is bounded by the "
                                   "unit's physical block count")
                u.closedBlocks.push_back(block);
                u.gcStreamBlock = -1;
            }
            b.pageLpns[page] = std::numeric_limits<std::uint64_t>::max();
            return makePpn(pu, block, page);
        }
    }
    // A half-relocated victim can always finish inside the active
    // block's slack plus one reserve block (victims are never fully
    // valid) — but only if foreground writes don't consume that slack
    // while the pool is empty. Settle the in-flight victim first.
    if (!for_gc && backgroundGcEnabled() && u.freeBlocks.empty() &&
        (u.gc.victim >= 0 || u.gc.pendingFree >= 0))
        at = reclaimForeground(pu, at);
    if (u.activeBlock < 0 ||
        blockOf(pu, static_cast<std::uint32_t>(u.activeBlock))
            .full(geom.pagesPerBlock)) {
        if (u.activeBlock >= 0) {
            HAMS_LINT_SUPPRESS("closed-block list is bounded by the "
                               "unit's physical block count")
            u.closedBlocks.push_back(
                static_cast<std::uint32_t>(u.activeBlock));
            // Settle the cursor before GC runs below: a nested
            // relocation allocate() seeing the stale full block would
            // push it onto closedBlocks a second time, and the
            // double-listed block eventually gets erased while it is
            // the active block again (mapping corruption).
            u.activeBlock = -1;
        }
        if (backgroundGcEnabled()) {
            if (!for_gc) {
                // Backpressure: the reserve belongs to GC relocation.
                // A foreground write that would dig into it stalls
                // until the background engine frees a block.
                if (u.freeBlocks.size() <= cfg.gcReserveBlocks)
                    at = reclaimForeground(pu, at);
                // Kick on the post-take level (size - 1): the machine
                // gets a full block of runway before the writer would
                // reach the reserve and stall. The pacer starts as
                // soon as the unit leaves the high watermark — it
                // collects gently up there — where the fixed-rate
                // engine waits for the low watermark.
                std::uint32_t kick_at = cfg.gcAdaptivePacing
                                            ? cfg.gcHighWater
                                            : cfg.gcLowWater + 1;
                if (u.freeBlocks.size() <= kick_at)
                    kickGc(pu, at, /*idle=*/false);
                // After taking the new active block this unit sits
                // below the high watermark: idle time should clean up.
                if (u.freeBlocks.size() <= cfg.gcHighWater)
                    idleArmWanted = true;
            }
        } else if (!inGc && u.freeBlocks.size() <= cfg.gcLowWater) {
            collect(pu, at);
        }
        // GC relocation may have opened a stream block of its own (and
        // possibly filled it): reuse it rather than leaking a
        // partially-written block off every list.
        if (u.activeBlock >= 0 &&
            blockOf(pu, static_cast<std::uint32_t>(u.activeBlock))
                .full(geom.pagesPerBlock)) {
            HAMS_LINT_SUPPRESS("closed-block list is bounded by the "
                               "unit's physical block count")
            u.closedBlocks.push_back(
                static_cast<std::uint32_t>(u.activeBlock));
            u.activeBlock = -1;
        }
        if (u.activeBlock < 0)
            u.activeBlock = takeFreeBlock(u, pu);
    }
    auto block = static_cast<std::uint32_t>(u.activeBlock);
    Block& b = blockOf(pu, block);
    ensureBlockArrays(b);
    std::uint32_t page = b.writePtr++;
    b.pageLpns[page] = std::numeric_limits<std::uint64_t>::max();
    return makePpn(pu, block, page);
}

void
PageFtl::place(std::uint64_t lpn, std::uint64_t ppn)
{
    Block& b = blocks[ppn / geom.pagesPerBlock];
    auto page = static_cast<std::uint32_t>(ppn % geom.pagesPerBlock);
    b.pageLpns[page] = lpn;
    b.validBits[page / 64] |= 1ull << (page % 64);
    ++b.validCount;
    l2p.set(lpn, ppn);
}

Tick
PageFtl::writePage(std::uint64_t lpn, std::uint32_t bytes, Tick at)
{
    if (lpn >= _logicalPages)
        fatal("LPN ", lpn, " beyond exported capacity (", _logicalPages,
              " pages)");
    ++_stats.hostWrites;
    if (gcActiveMachines > 0)
        ++_stats.gcForegroundOverlap;

    std::uint64_t old_ppn = l2p.get(lpn);
    if (old_ppn != L2pMap::unmapped)
        invalidate(old_ppn);

    std::uint64_t pu = nextPu;
    if (++nextPu == units.size())
        nextPu = 0;

    std::uint64_t ppn = allocate(pu, at, /*for_gc=*/false);
    place(lpn, ppn);

    Tick done = fil.submit({FlashOp::Type::Program, ppn, bytes}, at);
    if (backgroundGcEnabled())
        noteHostActivity(done);
    return done;
}

Tick
PageFtl::backgroundReadPage(std::uint64_t lpn, std::uint32_t bytes,
                            Tick at, FlashOpHandle& h)
{
    std::uint64_t ppn = l2p.get(lpn);
    if (ppn == L2pMap::unmapped)
        panic("backgroundReadPage on unmapped LPN ", lpn);
    ++_stats.tierBgReads;
    h = fil.submitTracked({FlashOp::Type::Read, ppn, bytes,
                           /*background=*/true}, at);
    return fil.completionOf(h);
}

Tick
PageFtl::backgroundWritePage(std::uint64_t lpn, std::uint32_t bytes,
                             Tick at, FlashOpHandle& h)
{
    if (lpn >= _logicalPages)
        fatal("LPN ", lpn, " beyond exported capacity (", _logicalPages,
              " pages)");
    ++_stats.tierBgWrites;

    std::uint64_t old_ppn = l2p.get(lpn);
    if (old_ppn != L2pMap::unmapped)
        invalidate(old_ppn);

    std::uint64_t pu = nextPu;
    if (++nextPu == units.size())
        nextPu = 0;

    // Foreground allocation semantics: never dips into the GC reserve.
    std::uint64_t ppn = allocate(pu, at, /*for_gc=*/false);
    place(lpn, ppn);

    h = fil.submitTracked({FlashOp::Type::Program, ppn, bytes,
                           /*background=*/true}, at);
    return fil.completionOf(h);
}

void
PageFtl::trim(std::uint64_t lpn)
{
    std::uint64_t ppn = l2p.get(lpn);
    if (ppn == L2pMap::unmapped)
        return;
    invalidate(ppn);
    l2p.erase(lpn);
}

bool
PageFtl::isMapped(std::uint64_t lpn) const
{
    return l2p.get(lpn) != L2pMap::unmapped;
}

std::uint64_t
PageFtl::physicalOf(std::uint64_t lpn) const
{
    std::uint64_t ppn = l2p.get(lpn);
    if (ppn == L2pMap::unmapped)
        panic("physicalOf on unmapped LPN ", lpn);
    return ppn;
}

void
PageFtl::collect(std::uint64_t pu, Tick& at)
{
    Unit& u = units[pu];
    inGc = true;
    bool collected = false;

    while (u.freeBlocks.size() < cfg.gcHighWater &&
           !u.closedBlocks.empty()) {
        std::int32_t victim_i = selectVictim(pu);
        if (victim_i < 0)
            break; // only fully-valid victims remain: nothing to gain
        auto victim = static_cast<std::uint32_t>(victim_i);
        collected = true;

        Block& vb = blockOf(pu, victim);
        ensureBlockArrays(vb);

        // Relocate surviving pages into the active stream of this unit.
        for (std::uint32_t page = 0; page < geom.pagesPerBlock; ++page) {
            if (!(vb.validBits[page / 64] & (1ull << (page % 64))))
                continue;
            std::uint64_t lpn = vb.pageLpns[page];
            std::uint64_t old_ppn = makePpn(pu, victim, page);
            at = fil.submit({FlashOp::Type::Read, old_ppn, geom.pageSize},
                            at);

            // for_gc routes the relocation into the dedicated GC
            // stream when one is configured; with gcStreamBlocks == 0
            // it is bit-identical to the plain foreground allocate
            // (the GC-trigger branch is already guarded by inGc).
            std::uint64_t new_ppn = allocate(pu, at, /*for_gc=*/true);
            place(lpn, new_ppn);
            ++_stats.gcRelocations;

            at = fil.submit({FlashOp::Type::Program, new_ppn,
                             geom.pageSize}, at);
        }

        // Erase the victim and return it to the free pool.
        vb.validCount = 0;
        vb.writePtr = 0;
        std::fill(vb.validBits.begin(), vb.validBits.end(), 0);
        ++vb.eraseCount;
        ++_stats.erases;
        at = fil.submit({FlashOp::Type::Erase,
                         makePpn(pu, victim, 0), 0}, at);
        pushFreeBlock(pu, victim);
    }
    // Count the run only when it actually collected a victim: an
    // invocation that found nothing to do is not a GC run.
    if (collected)
        ++_stats.gcRuns;
    inGc = false;
}

std::int32_t
PageFtl::selectVictim(std::uint64_t pu, std::uint32_t max_valid)
{
    Unit& u = units[pu];
    if (u.closedBlocks.empty())
        return -1;
    // Greedy: fewest valid pages.
    auto victim_it = u.closedBlocks.begin();
    std::uint32_t victim_valid = blockOf(pu, *victim_it).validCount;
    for (auto it = u.closedBlocks.begin(); it != u.closedBlocks.end();
         ++it) {
        std::uint32_t v = blockOf(pu, *it).validCount;
        if (v < victim_valid) {
            victim_it = it;
            victim_valid = v;
        }
    }
    // A fully valid victim frees nothing: relocating it would just
    // shuffle data forever (livelock). If even the best victim is
    // full, no closed block can yield space.
    if (victim_valid >= geom.pagesPerBlock)
        return -1;
    // The quality gate defers reclaimable-but-expensive victims while
    // the pool still has runway; the victim stays on the closed list.
    if (victim_valid > max_valid) {
        ++_stats.gcQualityDeferrals;
        return -1;
    }
    auto victim = static_cast<std::int32_t>(*victim_it);
    u.closedBlocks.erase(victim_it);
    return victim;
}

bool
PageFtl::canStartVictim(std::uint64_t pu) const
{
    // O(1) until the pool is exhausted; the closed-list scan below
    // (which selectVictim will repeat) runs only on that crisis path.
    const Unit& u = units[pu];
    if (!u.freeBlocks.empty())
        return true;
    if (cfg.gcStreamBlocks == 0 || u.gcStreamBlock < 0 ||
        u.closedBlocks.empty())
        return false;
    const Block& sb = blocks[blockGlobalIndex(
        pu, static_cast<std::uint32_t>(u.gcStreamBlock))];
    std::uint32_t slack = geom.pagesPerBlock - sb.writePtr;
    std::uint32_t best = geom.pagesPerBlock;
    for (std::uint32_t b : u.closedBlocks)
        best = std::min(best, blocks[blockGlobalIndex(pu, b)].validCount);
    return best < geom.pagesPerBlock && best <= slack;
}

bool
PageFtl::pickVictim(std::uint64_t pu)
{
    Unit& u = units[pu];
    std::int32_t victim = selectVictim(
        pu, victimAllowance(static_cast<std::uint32_t>(u.freeBlocks.size())));
    if (victim < 0)
        return false;
    u.gc.victim = victim;
    u.gc.nextPage = 0;
    if (!u.gc.countedRun) {
        ++_stats.gcRuns;
        u.gc.countedRun = true;
    }
    return true;
}

bool
PageFtl::gcSlice(std::uint64_t pu, Tick from, std::uint32_t batch)
{
    Unit& u = units[pu];
    GcMachine& g = u.gc;
    if (g.victim < 0)
        return false;
    auto victim = static_cast<std::uint32_t>(g.victim);
    Block& vb = blockOf(pu, victim);
    ensureBlockArrays(vb);

    // A new slice supersedes the previous slice's tracked op: its
    // completion has been consumed (the step that got us here waited
    // for it).
    if (g.sliceOp.valid()) {
        fil.release(g.sliceOp);
        g.sliceOp = {};
    }

    // Relocate up to a batch of surviving pages, pipelined: every read
    // issues at the slice start (they serialize on the die), each
    // program issues when its read's data is available. All ops carry
    // background priority, so foreground traffic can suspend them.
    // The program with the latest latched completion is tracked: a
    // foreground suspension extends every in-flight op on the die by
    // the same window, so the latest-latched op stays the latest and
    // one handle answers when the whole slice is really done.
    Tick batch_done = from;
    FlashOpHandle batch_op;
    std::uint32_t moved = 0;
    while (g.nextPage < geom.pagesPerBlock && moved < batch) {
        std::uint32_t page = g.nextPage++;
        if (!(vb.validBits[page / 64] & (1ull << (page % 64))))
            continue;
        std::uint64_t lpn = vb.pageLpns[page];
        std::uint64_t old_ppn = makePpn(pu, victim, page);
        Tick rd = fil.submit({FlashOp::Type::Read, old_ppn, geom.pageSize,
                              /*background=*/true}, from);
        // The source page is dead the moment its copy is in flight: a
        // concurrent trim/overwrite of the LPN must target the new
        // location (the L2P entry flips below, within this same
        // atomic slice).
        vb.validBits[page / 64] &= ~(1ull << (page % 64));
        --vb.validCount;

        Tick prog_at = rd;
        std::uint64_t new_ppn = allocate(pu, prog_at, /*for_gc=*/true);
        place(lpn, new_ppn);
        ++_stats.gcRelocations;

        FlashOpHandle ph =
            fil.submitTracked({FlashOp::Type::Program, new_ppn,
                               geom.pageSize, /*background=*/true},
                              prog_at);
        Tick prog_done = fil.completionOf(ph);
        if (prog_done >= batch_done) {
            if (batch_op.valid())
                fil.release(batch_op);
            batch_op = ph;
            batch_done = prog_done;
        } else {
            fil.release(ph);
        }
        ++moved;
    }

    if (g.nextPage >= geom.pagesPerBlock) {
        // Victim drained: erase it. The block re-enters the free pool
        // at the erase op's *true* completion: the credit is latched
        // as a hint (pendingFreeAt) but applied only once the tracked
        // handle confirms the erase — a later foreground op that
        // suspends it pushes the credit out by the stolen window
        // instead of leaving the pool optimistically early.
        vb.validCount = 0;
        vb.writePtr = 0;
        std::fill(vb.validBits.begin(), vb.validBits.end(), 0);
        ++vb.eraseCount;
        ++_stats.erases;
        FlashOpHandle eh =
            fil.submitTracked({FlashOp::Type::Erase,
                               makePpn(pu, victim, 0), 0,
                               /*background=*/true}, batch_done);
        Tick erased = fil.completionOf(eh);
        g.pendingFree = g.victim;
        g.pendingFreeAt = erased;
        g.pendingFreeOp = eh;
        g.victim = -1;
        g.readyAt = erased;
    } else {
        g.readyAt = batch_done;
    }
    g.sliceOp = batch_op;
    return true;
}

void
PageFtl::applyPendingFree(std::uint64_t pu)
{
    GcMachine& g = units[pu].gc;
    if (g.pendingFree < 0)
        return;
    if (g.pendingFreeOp.valid()) {
        fil.release(g.pendingFreeOp);
        g.pendingFreeOp = {};
    }
    pushFreeBlock(pu, static_cast<std::uint32_t>(g.pendingFree));
    g.pendingFree = -1;
}

Tick
PageFtl::trueReadyAt(std::uint64_t pu, Tick now) const
{
    const GcMachine& g = units[pu].gc;
    Tick ready = now;
    if (g.sliceOp.valid())
        ready = std::max(ready, fil.completionOf(g.sliceOp));
    if (g.pendingFreeOp.valid())
        ready = std::max(ready, fil.completionOf(g.pendingFreeOp));
    return ready;
}

std::uint32_t
PageFtl::paceLevelOf(std::uint32_t free_blocks) const
{
    if (free_blocks >= cfg.gcHighWater)
        return 0;
    std::uint32_t span = cfg.gcHighWater - cfg.gcReserveBlocks;
    return std::min(cfg.gcHighWater - free_blocks, span);
}

std::uint32_t
PageFtl::paceBatch(std::uint32_t free_blocks) const
{
    if (!cfg.gcAdaptivePacing)
        return cfg.gcBatchPages;
    // Linear ramp across the watermark band: one base batch just
    // under the high watermark, band-width batches at the reserve.
    std::uint32_t level = std::max(paceLevelOf(free_blocks), 1u);
    return cfg.gcBatchPages * level;
}

std::uint32_t
PageFtl::notePaceLevel(std::uint32_t free_blocks)
{
    if (cfg.gcAdaptivePacing) {
        _stats.paceLevel = paceLevelOf(free_blocks);
        _stats.paceLevelMax =
            std::max(_stats.paceLevelMax, _stats.paceLevel);
    }
    return paceBatch(free_blocks);
}

std::uint32_t
PageFtl::victimAllowance(std::uint32_t free_blocks) const
{
    if (!cfg.gcVictimQuality || !cfg.gcAdaptivePacing)
        return geom.pagesPerBlock; // gate open: only the livelock
                                   // reject in selectVictim applies
    // Linear in the pacer level: no tolerance for valid pages at the
    // high watermark, a full block's worth at the reserve. The crisis
    // path always sits at the deepest level, so the gate never blocks
    // a stalled writer.
    std::uint32_t span = cfg.gcHighWater - cfg.gcReserveBlocks;
    std::uint32_t level = paceLevelOf(free_blocks);
    return geom.pagesPerBlock * std::min(level, span) / span;
}

Tick
PageFtl::paceDelay(std::uint32_t free_blocks) const
{
    if (!cfg.gcAdaptivePacing)
        return 0;
    std::uint32_t span = cfg.gcHighWater - cfg.gcReserveBlocks;
    std::uint32_t level = paceLevelOf(free_blocks);
    return Tick(span - std::min(level, span)) * cfg.gcPaceQuantum;
}

void
PageFtl::deactivateGc(std::uint64_t pu)
{
    GcMachine& g = units[pu].gc;
    if (!g.active)
        return;
    // A dormant machine keeps no tracked ops: the slice's completion
    // was consumed by the step that decided to deactivate, and any
    // pending erase credit was applied before getting here.
    if (g.sliceOp.valid()) {
        fil.release(g.sliceOp);
        g.sliceOp = {};
    }
    g.active = false;
    g.idleKicked = false;
    --gcActiveMachines;
}

void
PageFtl::kickGc(std::uint64_t pu, Tick at, bool idle)
{
    Unit& u = units[pu];
    GcMachine& g = u.gc;
    if (g.active)
        return;
    if (u.closedBlocks.empty() && g.pendingFree < 0)
        return; // nothing collectable yet
    g.active = true;
    g.countedRun = false;
    g.idleKicked = idle;
    ++gcActiveMachines;
    if (idle)
        ++_stats.gcIdleKicks;
    g.stepEvent = eq->scheduleAt(std::max({eq->now(), at, g.readyAt}),
                                 [this, pu] { gcStep(pu); });
}

void
PageFtl::gcStep(std::uint64_t pu)
{
    Unit& u = units[pu];
    GcMachine& g = u.gc;
    g.stepEvent = 0;
    Tick now = eq->now();
    // Op-handle contract: the step was scheduled at the submit-time
    // latch, but a foreground op may have suspended the in-flight
    // work since. If the tracked completions moved past now, the
    // machine is not actually done — wait for the true tick (this is
    // what keeps the erase credit honest under suspension).
    Tick ready = trueReadyAt(pu, now);
    if (ready > now) {
        g.readyAt = ready;
        g.stepEvent = eq->scheduleAt(ready, [this, pu] { gcStep(pu); });
        return;
    }
    if (g.sliceOp.valid()) {
        fil.release(g.sliceOp);
        g.sliceOp = {};
    }
    applyPendingFree(pu);
    // Starting a victim needs relocation headroom (a free block, or a
    // stream block with enough slack); without it the machine goes
    // dormant and the foreground reclaim path drives any further
    // collection.
    if (g.victim < 0 &&
        (u.freeBlocks.size() >= cfg.gcHighWater || !canStartVictim(pu) ||
         !pickVictim(pu))) {
        deactivateGc(pu);
        return;
    }
    ++_stats.gcBatches;
    // The pacer reads the free level at step time: deeper depletion
    // means a bigger relocation batch now and a shorter breather
    // before the next step (both constant with pacing off).
    auto free = static_cast<std::uint32_t>(u.freeBlocks.size());
    gcSlice(pu, std::max(now, g.readyAt), notePaceLevel(free));
    g.stepEvent = eq->scheduleAt(std::max(now, g.readyAt) +
                                     paceDelay(free),
                                 [this, pu] { gcStep(pu); });
}

Tick
PageFtl::reclaimForeground(std::uint64_t pu, Tick at)
{
    Unit& u = units[pu];
    GcMachine& g = u.gc;
    ++_stats.gcWriteStalls;
    Tick avail = at;
    while (u.freeBlocks.size() <= cfg.gcReserveBlocks) {
        if (g.pendingFree >= 0) {
            // A victim's erase is in flight: the write waits for its
            // *true* completion — if a foreground op suspended the
            // erase after its tick was latched, the handle carries
            // the extended window and the stall is charged honestly.
            avail = std::max(avail, pendingFreeTrueAt(pu));
            applyPendingFree(pu);
            continue;
        }
        if (!g.active) {
            g.active = true;
            g.countedRun = false;
            g.idleKicked = false;
            ++gcActiveMachines;
        }
        if (g.victim < 0 &&
            (!canStartVictim(pu) || !pickVictim(pu)))
            break; // no headroom or nothing collectable: the caller's
                   // takeFreeBlock reports the exhaustion state
        // The crisis path runs at the deepest pacer levels; record
        // them like gcStep does or paceLevelMax under-reports.
        gcSlice(pu, std::max(at, g.readyAt),
                notePaceLevel(
                    static_cast<std::uint32_t>(u.freeBlocks.size())));
    }
    _stats.gcStallTicks += avail - at;

    // The machine advanced under its scheduled step's feet; rebuild
    // the pending event from the new state.
    if (g.stepEvent) {
        eq->deschedule(g.stepEvent);
        g.stepEvent = 0;
    }
    if (g.active) {
        bool work = g.victim >= 0 || g.pendingFree >= 0 ||
                    (u.freeBlocks.size() < cfg.gcHighWater &&
                     !u.closedBlocks.empty());
        if (work)
            g.stepEvent = eq->scheduleAt(std::max(eq->now(), g.readyAt),
                                         [this, pu] { gcStep(pu); });
        else
            deactivateGc(pu);
    }
    return avail;
}

void
PageFtl::noteHostActivity(Tick done)
{
    lastHostDone = std::max(lastHostDone, done);
    // Timer-wheel style: at most one idle event is ever pending. If
    // host activity moved the deadline, idleFire() re-posts itself
    // instead of this hot path descheduling/rescheduling per op.
    if (idleArmWanted && !idleEvent)
        idleEvent = eq->scheduleAt(
            std::max(eq->now(), lastHostDone + cfg.gcIdleThreshold),
            [this] { idleFire(); });
}

void
PageFtl::idleFire()
{
    idleEvent = 0;
    Tick now = eq->now();
    if (now < lastHostDone + cfg.gcIdleThreshold) {
        // A later host op re-posted the deadline after we were armed.
        idleEvent = eq->scheduleAt(lastHostDone + cfg.gcIdleThreshold,
                                   [this] { idleFire(); });
        return;
    }
    idleArmWanted = false;
    for (std::uint64_t pu = 0; pu < units.size(); ++pu) {
        Unit& u = units[pu];
        if (!u.gc.active && u.freeBlocks.size() < cfg.gcHighWater &&
            !u.closedBlocks.empty())
            kickGc(pu, now, /*idle=*/true);
    }
}

void
PageFtl::onPowerFail()
{
    for (std::uint64_t pu = 0; pu < units.size(); ++pu) {
        Unit& u = units[pu];
        GcMachine& g = u.gc;
        // An issued erase counts as done; a half-relocated victim goes
        // back to the closed list (its surviving pages are still
        // mapped there). Tracked-op handles die with the in-flight
        // work (released here, while the FIL still honours them).
        if (g.sliceOp.valid()) {
            fil.release(g.sliceOp);
            g.sliceOp = {};
        }
        applyPendingFree(pu);
        if (g.victim >= 0) {
            u.closedBlocks.push_back(static_cast<std::uint32_t>(g.victim));
            g.victim = -1;
        }
        g.nextPage = 0;
        g.active = false;
        g.idleKicked = false;
        g.countedRun = false;
        g.stepEvent = 0; // the owner reset the queue; ids are dead
        // The latched schedule hints die with the in-flight work: a
        // stale future readyAt would otherwise defer the first
        // post-recovery kick of this machine for no physical reason.
        g.readyAt = 0;
        g.pendingFreeAt = 0;
    }
    gcActiveMachines = 0;
    idleEvent = 0;
    idleArmWanted = false;
    inGc = false;
}

void
PageFtl::onFlashReset()
{
    for (Unit& u : units) {
        u.gc.sliceOp = {};
        u.gc.pendingFreeOp = {};
    }
}

bool
PageFtl::gcVictimLive() const
{
    for (const Unit& u : units)
        if (u.gc.victim >= 0)
            return true;
    return false;
}

bool
PageFtl::gcEraseInFlight() const
{
    for (const Unit& u : units)
        if (u.gc.pendingFree >= 0)
            return true;
    return false;
}

std::uint32_t
PageFtl::minFreeBlocks() const
{
    std::uint32_t lo = std::numeric_limits<std::uint32_t>::max();
    for (const Unit& u : units)
        lo = std::min(lo, static_cast<std::uint32_t>(u.freeBlocks.size()));
    return units.empty() ? 0 : lo;
}

PageFtl::UnitView
PageFtl::unitView(std::uint64_t pu) const
{
    const Unit& u = units[pu];
    UnitView v;
    v.freeBlocks.reserve(u.freeBlocks.size());
    for (std::uint64_t key : u.freeBlocks)
        v.freeBlocks.push_back(keyBlock(key));
    v.closedBlocks = u.closedBlocks;
    v.activeBlock = u.activeBlock;
    v.gcStreamBlock = u.gcStreamBlock;
    v.victim = u.gc.victim;
    v.pendingFree = u.gc.pendingFree;
    return v;
}

std::uint32_t
PageFtl::blockValidCount(std::uint64_t pu, std::uint32_t block) const
{
    return blocks[blockGlobalIndex(pu, block)].validCount;
}

std::uint32_t
PageFtl::blockEraseCount(std::uint64_t pu, std::uint32_t block) const
{
    return blocks[blockGlobalIndex(pu, block)].eraseCount;
}

Tick
PageFtl::pendingFreeTrueAt(std::uint64_t pu) const
{
    const GcMachine& g = units[pu].gc;
    if (g.pendingFree < 0)
        panic("pendingFreeTrueAt: unit ", pu, " has no pending free");
    return g.pendingFreeOp.valid() ? fil.completionOf(g.pendingFreeOp)
                                   : g.pendingFreeAt;
}

std::uint32_t
PageFtl::wearSpread() const
{
    std::uint32_t lo = std::numeric_limits<std::uint32_t>::max();
    std::uint32_t hi = 0;
    for (const auto& b : blocks) {
        lo = std::min(lo, b.eraseCount);
        hi = std::max(hi, b.eraseCount);
    }
    return blocks.empty() ? 0 : hi - lo;
}

} // namespace hams
