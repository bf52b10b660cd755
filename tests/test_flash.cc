/**
 * @file
 * Flash substrate tests: address codec, Z-NAND timing, FIL scheduling,
 * the parallelism properties the ULL-Flash design relies on, the
 * tracked-op extension contract, and configuration validation.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "flash/fil.hh"
#include "flash/nand_timing.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace hams {
namespace {

FlashGeometry
smallGeom()
{
    FlashGeometry g;
    g.channels = 4;
    g.packagesPerChannel = 1;
    g.diesPerPackage = 2;
    g.planesPerDie = 2;
    g.blocksPerPlane = 16;
    g.pagesPerBlock = 32;
    g.pageSize = 2048;
    return g;
}

TEST(FlashAddress, RoundTripsAllFields)
{
    FlashGeometry g = smallGeom();
    for (std::uint64_t ppn = 0; ppn < g.totalPages(); ppn += 97) {
        FlashAddress a = FlashAddress::decompose(ppn, g);
        EXPECT_EQ(a.flatten(g), ppn);
        EXPECT_LT(a.channel, g.channels);
        EXPECT_LT(a.die, g.diesPerPackage);
        EXPECT_LT(a.plane, g.planesPerDie);
        EXPECT_LT(a.block, g.blocksPerPlane);
        EXPECT_LT(a.page, g.pagesPerBlock);
    }
}

TEST(FlashAddress, ParallelUnitIndexIsDense)
{
    FlashGeometry g = smallGeom();
    std::vector<bool> seen(g.parallelUnits(), false);
    for (std::uint32_t ch = 0; ch < g.channels; ++ch)
        for (std::uint32_t d = 0; d < g.diesPerPackage; ++d)
            for (std::uint32_t pl = 0; pl < g.planesPerDie; ++pl) {
                FlashAddress a{ch, 0, d, pl, 0, 0};
                ASSERT_LT(a.parallelUnit(g), g.parallelUnits());
                seen[a.parallelUnit(g)] = true;
            }
    for (bool s : seen)
        EXPECT_TRUE(s);
}

TEST(FlashAddress, ConsecutiveUnitsRotateChannels)
{
    // Channel must be the innermost PU dimension so the FTL's
    // round-robin write allocation stripes across buses (the property
    // the ULL-Flash dual-channel split relies on).
    FlashGeometry g = smallGeom();
    std::uint64_t unit_pages = g.pagesPerPlane();
    FlashAddress u0 = FlashAddress::decompose(0, g);
    FlashAddress u1 = FlashAddress::decompose(unit_pages, g);
    EXPECT_NE(u0.channel, u1.channel);
}

TEST(FlashGeometry, CapacityArithmetic)
{
    FlashGeometry g = smallGeom();
    EXPECT_EQ(g.parallelUnits(), 16u);
    EXPECT_EQ(g.totalPages(), 16u * 16 * 32);
    EXPECT_EQ(g.rawCapacity(), g.totalPages() * 2048);
}

TEST(NandTiming, ZNandMatchesPaper)
{
    NandTiming z = NandTiming::zNand();
    EXPECT_EQ(z.tR, microseconds(3));
    EXPECT_EQ(z.tPROG, microseconds(100));
}

TEST(NandTiming, VNandRatiosMatchPaper)
{
    // V-NAND read/write are 15x/7x slower than Z-NAND (SSII-C).
    NandTiming z = NandTiming::zNand();
    NandTiming v = NandTiming::vNand();
    EXPECT_EQ(v.tR, z.tR * 15);
    EXPECT_EQ(v.tPROG, z.tPROG * 7);
}

TEST(NandTiming, TransferTimeScalesWithSize)
{
    NandTiming z = NandTiming::zNand();
    Tick t2k = z.transferTime(2048);
    Tick t4k = z.transferTime(4096);
    EXPECT_GT(t4k, t2k);
    EXPECT_NEAR(static_cast<double>(t4k - z.cmdOverhead),
                2.0 * static_cast<double>(t2k - z.cmdOverhead),
                static_cast<double>(t2k) * 0.01);
}

TEST(Fil, ReadLatencyIsCellPlusTransfer)
{
    Fil fil(smallGeom(), NandTiming::zNand());
    Tick done = fil.submit({FlashOp::Type::Read, 0, 2048}, 0);
    NandTiming z = NandTiming::zNand();
    Tick expected = z.cmdOverhead + z.tR + z.transferTime(2048);
    EXPECT_EQ(done, expected);
}

TEST(Fil, ProgramLatencyIsTransferPlusCell)
{
    Fil fil(smallGeom(), NandTiming::zNand());
    Tick done = fil.submit({FlashOp::Type::Program, 0, 2048}, 0);
    NandTiming z = NandTiming::zNand();
    EXPECT_GE(done, z.tPROG);
    EXPECT_LT(done, z.tPROG + microseconds(3));
}

TEST(Fil, DifferentChannelsRunConcurrently)
{
    FlashGeometry g = smallGeom();
    Fil fil(g, NandTiming::zNand());
    std::uint64_t other_ch = FlashAddress{1, 0, 0, 0, 0, 0}.flatten(g);
    Tick a = fil.submit({FlashOp::Type::Read, 0, 2048}, 0);
    Tick b = fil.submit({FlashOp::Type::Read, other_ch, 2048}, 0);
    // Full overlap: both finish at (almost) the same time.
    EXPECT_LT(b, a + microseconds(1));
}

TEST(Fil, SameDieSerialises)
{
    Fil fil(smallGeom(), NandTiming::zNand());
    Tick a = fil.submit({FlashOp::Type::Read, 0, 2048}, 0);
    Tick b = fil.submit({FlashOp::Type::Read, 1, 2048}, 0);
    EXPECT_GT(b, a); // same die register: the second waits
}

TEST(Fil, SameChannelTransfersSerialise)
{
    FlashGeometry g = smallGeom();
    Fil fil(g, NandTiming::zNand());
    // Same channel, different die: cell reads overlap but the channel
    // drains serially.
    std::uint64_t other_die = FlashAddress{0, 0, 1, 0, 0, 0}.flatten(g);
    Tick a = fil.submit({FlashOp::Type::Read, 0, 2048}, 0);
    Tick b = fil.submit({FlashOp::Type::Read, other_die, 2048}, 0);
    EXPECT_GT(b, a);
    EXPECT_LT(b, a + NandTiming::zNand().transferTime(2048) +
                     microseconds(1));
}

TEST(Fil, ProgramDoesNotHoldChannelDuringCellPhase)
{
    FlashGeometry g = smallGeom();
    Fil fil(g, NandTiming::zNand());
    std::uint64_t other_die = FlashAddress{0, 0, 1, 0, 0, 0}.flatten(g);
    Tick p = fil.submit({FlashOp::Type::Program, 0, 2048}, 0);
    // A read on a different die of the same channel should not wait for
    // the 100 us program, only for the data transfer.
    Tick r = fil.submit({FlashOp::Type::Read, other_die, 2048}, 0);
    EXPECT_LT(r, p);
}

TEST(Fil, EraseTakesMilliseconds)
{
    Fil fil(smallGeom(), NandTiming::zNand());
    Tick done = fil.submit({FlashOp::Type::Erase, 0, 0}, 0);
    EXPECT_GE(done, milliseconds(3));
}

TEST(Fil, ActivityCountersTrack)
{
    Fil fil(smallGeom(), NandTiming::zNand());
    fil.submit({FlashOp::Type::Read, 0, 2048}, 0);
    fil.submit({FlashOp::Type::Program, 64, 2048}, 0);
    fil.submit({FlashOp::Type::Erase, 0, 0}, 0);
    EXPECT_EQ(fil.activity().reads, 1u);
    EXPECT_EQ(fil.activity().programs, 1u);
    EXPECT_EQ(fil.activity().erases, 1u);
    EXPECT_EQ(fil.activity().bytesTransferred, 4096u);
}

TEST(Fil, ResetClearsBusyState)
{
    Fil fil(smallGeom(), NandTiming::zNand());
    fil.submit({FlashOp::Type::Program, 0, 2048}, 0);
    fil.reset();
    Tick done = fil.submit({FlashOp::Type::Read, 1, 2048}, 0);
    NandTiming z = NandTiming::zNand();
    EXPECT_EQ(done, z.cmdOverhead + z.tR + z.transferTime(2048));
}

TEST(Fil, OversizedOpPanics)
{
    Fil fil(smallGeom(), NandTiming::zNand());
    EXPECT_DEATH(fil.submit({FlashOp::Type::Read, 0, 999999}, 0),
                 "exceed page size");
}

TEST(Fil, OutOfRangePpnPanics)
{
    FlashGeometry g = smallGeom();
    Fil fil(g, NandTiming::zNand());
    EXPECT_DEATH(fil.submit({FlashOp::Type::Read, g.totalPages(), 2048}, 0),
                 "out of range");
    EXPECT_DEATH(fil.submitTracked({FlashOp::Type::Erase, g.totalPages(), 0,
                                    true},
                                   0),
                 "out of range");
    NandTiming z = NandTiming::zNand();
    EXPECT_EQ(fil.submit({FlashOp::Type::Read, g.totalPages() - 1, 2048}, 0),
              z.cmdOverhead + z.tR + z.transferTime(2048));
}

TEST(Fil, SiteMatchesDecomposeForEveryPpn)
{
    // The site table must agree with the address codec on every page,
    // including geometries whose counts are not powers of two.
    FlashGeometry odd = smallGeom();
    odd.channels = 3;
    odd.packagesPerChannel = 3;
    odd.diesPerPackage = 3;
    odd.blocksPerPlane = 17;
    odd.pagesPerBlock = 24;
    for (const FlashGeometry& g : {smallGeom(), odd}) {
        Fil fil(g, NandTiming::zNand());
        for (std::uint64_t ppn = 0; ppn < g.totalPages(); ++ppn) {
            FlashAddress a = FlashAddress::decompose(ppn, g);
            std::uint64_t die =
                (std::uint64_t(a.channel) * g.packagesPerChannel +
                 a.package) * g.diesPerPackage + a.die;
            const FlashSite& s = fil.siteOf(ppn);
            ASSERT_EQ(s.channel, a.channel) << "ppn " << ppn;
            ASSERT_EQ(s.die, die) << "ppn " << ppn;
            ASSERT_EQ(s.plane, die * g.planesPerDie + a.plane)
                << "ppn " << ppn;
        }
    }
}

// --- Tracked background ops ------------------------------------------
//
// A foreground suspension of a die extends that die's cell-tailed ops;
// a foreground bump of a channel extends that channel's transfer-tailed
// ops. Each extension applies only to an op still in flight past the
// suspension/bump point.

constexpr Tick kFrom = 1000;
constexpr Tick kDelta = 77;

FlashSite
dieSite(const NandPackagePool& pool, std::uint32_t ch, std::uint32_t die,
        std::uint32_t plane = 0)
{
    FlashAddress a{ch, 0, die, plane, 0, 0};
    return pool.site(a.parallelUnit(pool.geometry()));
}

TEST(TrackedOps, DieSuspensionExtendsSameDieCellOpsOnly)
{
    NandPackagePool pool(smallGeom());
    FlashOpHandle cell = pool.trackOp(dieSite(pool, 0, 0), 5000, false);
    FlashOpHandle other_plane =
        pool.trackOp(dieSite(pool, 0, 0, 1), 6000, false);
    FlashOpHandle xfer = pool.trackOp(dieSite(pool, 0, 0), 5000, true);
    FlashOpHandle other_die = pool.trackOp(dieSite(pool, 0, 1), 5000, false);
    FlashOpHandle other_ch = pool.trackOp(dieSite(pool, 1, 0), 5000, false);

    pool.pushBackgroundOut(dieSite(pool, 0, 0), kFrom, kDelta);

    EXPECT_EQ(pool.completionOf(cell), 5000 + kDelta);
    EXPECT_EQ(pool.completionOf(other_plane), 6000 + kDelta);
    EXPECT_EQ(pool.completionOf(xfer), 5000u);
    EXPECT_EQ(pool.completionOf(other_die), 5000u);
    EXPECT_EQ(pool.completionOf(other_ch), 5000u);
}

TEST(TrackedOps, ChannelBumpExtendsTransferTailedOpsOnly)
{
    NandPackagePool pool(smallGeom());
    FlashOpHandle xfer0 = pool.trackOp(dieSite(pool, 2, 0), 5000, true);
    FlashOpHandle xfer1 = pool.trackOp(dieSite(pool, 2, 1), 7000, true);
    FlashOpHandle cell = pool.trackOp(dieSite(pool, 2, 0), 5000, false);
    FlashOpHandle other_ch = pool.trackOp(dieSite(pool, 3, 0), 5000, true);

    pool.bumpChannelOps(2, kFrom, kDelta);

    EXPECT_EQ(pool.completionOf(xfer0), 5000 + kDelta);
    EXPECT_EQ(pool.completionOf(xfer1), 7000 + kDelta);
    EXPECT_EQ(pool.completionOf(cell), 5000u);
    EXPECT_EQ(pool.completionOf(other_ch), 5000u);
}

TEST(TrackedOps, OpDoneByFromIsNeverExtended)
{
    NandPackagePool pool(smallGeom());
    FlashOpHandle cell_at = pool.trackOp(dieSite(pool, 0, 0), kFrom, false);
    FlashOpHandle cell_before =
        pool.trackOp(dieSite(pool, 0, 0), kFrom - 1, false);
    FlashOpHandle cell_after =
        pool.trackOp(dieSite(pool, 0, 0), kFrom + 1, false);
    FlashOpHandle xfer_at = pool.trackOp(dieSite(pool, 0, 0), kFrom, true);
    FlashOpHandle xfer_after =
        pool.trackOp(dieSite(pool, 0, 0), kFrom + 1, true);

    pool.pushBackgroundOut(dieSite(pool, 0, 0), kFrom, kDelta);
    pool.bumpChannelOps(0, kFrom, kDelta);

    EXPECT_EQ(pool.completionOf(cell_at), kFrom);
    EXPECT_EQ(pool.completionOf(cell_before), kFrom - 1);
    EXPECT_EQ(pool.completionOf(cell_after), kFrom + 1 + kDelta);
    EXPECT_EQ(pool.completionOf(xfer_at), kFrom);
    EXPECT_EQ(pool.completionOf(xfer_after), kFrom + 1 + kDelta);
}

TEST(TrackedOps, ReleaseAnyListPositionKeepsTheOthers)
{
    // Three ops on one die list: release each position in turn (head,
    // middle, tail, whatever the internal order) and check the two
    // survivors still answer and still absorb the die's suspensions.
    for (int victim = 0; victim < 3; ++victim) {
        NandPackagePool pool(smallGeom());
        FlashOpHandle h[3];
        for (int i = 0; i < 3; ++i)
            h[i] = pool.trackOp(dieSite(pool, 1, 1), 5000 + 100 * i, false);
        pool.releaseOp(h[victim]);
        EXPECT_EQ(pool.liveTrackedOps(), 2u);
        pool.pushBackgroundOut(dieSite(pool, 1, 1), kFrom, kDelta);
        for (int i = 0; i < 3; ++i) {
            if (i != victim) {
                EXPECT_EQ(pool.completionOf(h[i]),
                          5000 + 100 * Tick(i) + kDelta)
                    << "victim " << victim << " survivor " << i;
            }
        }
        // A new op reuses the freed slot without disturbing the list.
        FlashOpHandle fresh = pool.trackOp(dieSite(pool, 1, 1), 9000, false);
        EXPECT_EQ(fresh.slot, h[victim].slot);
        EXPECT_NE(fresh.gen, h[victim].gen);
        pool.pushBackgroundOut(dieSite(pool, 1, 1), kFrom, kDelta);
        EXPECT_EQ(pool.completionOf(fresh), 9000 + kDelta);
        for (int i = 0; i < 3; ++i)
            if (i != victim)
                pool.releaseOp(h[i]);
        pool.releaseOp(fresh);
        EXPECT_EQ(pool.liveTrackedOps(), 0u);
    }
}

TEST(TrackedOps, ForegroundReadSuspendsTrackedErase)
{
    // End to end through the FIL: a foreground read on a die with a
    // tracked background erase suspends it at tick 0, so the erase
    // finishes later by the read's whole occupancy.
    Fil fil(smallGeom(), NandTiming::zNand());
    FlashOpHandle erase =
        fil.submitTracked({FlashOp::Type::Erase, 0, 0, true}, 0);
    Tick latched = fil.completionOf(erase);
    Tick fg_done = fil.submit({FlashOp::Type::Read, 1, 2048}, 0);
    EXPECT_EQ(fil.activity().suspensions, 1u);
    EXPECT_EQ(fil.completionOf(erase), latched + fg_done);
    fil.release(erase);
    EXPECT_EQ(fil.trackedOps(), 0u);
}

TEST(TrackedOps, ResetInvalidatesEveryHandle)
{
    Fil fil(smallGeom(), NandTiming::zNand());
    FlashOpHandle erase =
        fil.submitTracked({FlashOp::Type::Erase, 0, 0, true}, 0);
    FlashOpHandle read =
        fil.submitTracked({FlashOp::Type::Read, 5, 2048, true}, 0);
    EXPECT_EQ(fil.trackedOps(), 2u);
    fil.reset();
    EXPECT_EQ(fil.trackedOps(), 0u);
    EXPECT_DEATH(fil.completionOf(erase), "stale or invalid");
    EXPECT_DEATH(fil.completionOf(read), "stale or invalid");
    // Recycled slots carry fresh generations.
    FlashOpHandle again =
        fil.submitTracked({FlashOp::Type::Erase, 0, 0, true}, 0);
    EXPECT_EQ(fil.trackedOps(), 1u);
    EXPECT_NE(again.gen, erase.gen);
    fil.release(again);
}

/** O(live) reference registry: what the indexed pool must agree with. */
struct RefOp
{
    FlashOpHandle handle;
    FlashAddress addr;
    bool transferTailed;
    Tick completion;
};

TEST(TrackedOps, DifferentialAgainstNaiveRegistry)
{
    FlashGeometry g = smallGeom();
    g.packagesPerChannel = 2;
    NandPackagePool pool(g);
    auto siteOf = [&](const FlashAddress& a) {
        return pool.site(a.parallelUnit(g));
    };
    std::vector<RefOp> ref;
    Rng rng(0x7ac0ed);
    auto randomAddr = [&] {
        return FlashAddress{
            static_cast<std::uint32_t>(rng.below(g.channels)),
            static_cast<std::uint32_t>(rng.below(g.packagesPerChannel)),
            static_cast<std::uint32_t>(rng.below(g.diesPerPackage)),
            static_cast<std::uint32_t>(rng.below(g.planesPerDie)), 0, 0};
    };
    auto sameDie = [](const FlashAddress& x, const FlashAddress& y) {
        return x.channel == y.channel && x.package == y.package &&
               x.die == y.die;
    };
    constexpr int steps = 100000;
    for (int step = 0; step < steps; ++step) {
        std::uint64_t kind = rng.below(100);
        Tick from = rng.below(200000);
        Tick delta = 1 + rng.below(5000);
        if (kind < 35 && ref.size() < 96) {
            FlashAddress a = randomAddr();
            bool xfer = rng.chance(0.5);
            Tick completion = rng.below(200000);
            ref.push_back({pool.trackOp(siteOf(a), completion, xfer), a,
                           xfer, completion});
        } else if (kind < 65 && !ref.empty()) {
            std::size_t i = rng.below(ref.size());
            pool.releaseOp(ref[i].handle);
            ref[i] = ref.back();
            ref.pop_back();
        } else if (kind < 82) {
            FlashAddress a = randomAddr();
            pool.pushBackgroundOut(siteOf(a), from, delta);
            for (RefOp& r : ref)
                if (!r.transferTailed && sameDie(r.addr, a) &&
                    r.completion > from)
                    r.completion += delta;
        } else if (kind < 99) {
            auto ch = static_cast<std::uint32_t>(rng.below(g.channels));
            pool.bumpChannelOps(ch, from, delta);
            for (RefOp& r : ref)
                if (r.transferTailed && r.addr.channel == ch &&
                    r.completion > from)
                    r.completion += delta;
        } else {
            pool.reset();
            ref.clear();
        }
        ASSERT_EQ(pool.liveTrackedOps(), ref.size()) << "step " << step;
        for (const RefOp& r : ref)
            ASSERT_EQ(pool.completionOf(r.handle), r.completion)
                << "step " << step << " slot " << r.handle.slot;
    }
}

// --- Configuration validation ----------------------------------------

std::string
filFatal(const FlashGeometry& g, const NandTiming& t)
{
    try {
        Fil fil(g, t);
    } catch (const FatalError& e) {
        return e.what();
    }
    return "";
}

TEST(FilConfig, ZeroGeometryCountIsFatalNamingTheField)
{
    const struct
    {
        const char* name;
        std::uint32_t FlashGeometry::*field;
    } fields[] = {
        {"channels", &FlashGeometry::channels},
        {"packagesPerChannel", &FlashGeometry::packagesPerChannel},
        {"diesPerPackage", &FlashGeometry::diesPerPackage},
        {"planesPerDie", &FlashGeometry::planesPerDie},
        {"blocksPerPlane", &FlashGeometry::blocksPerPlane},
        {"pagesPerBlock", &FlashGeometry::pagesPerBlock},
        {"pageSize", &FlashGeometry::pageSize},
    };
    for (const auto& f : fields) {
        FlashGeometry g = smallGeom();
        g.*f.field = 0;
        EXPECT_EQ(filFatal(g, NandTiming::zNand()),
                  std::string("FlashGeometry::") + f.name +
                      " is 0; every flash geometry count must be "
                      "positive");
    }
}

TEST(FilConfig, OversizedGeometryIsFatalNamingTheField)
{
    // Each geometry overflows at one count. The fatal comes before the
    // pool sizes anything, so none of these allocates.
    const struct
    {
        const char* name;
        const char* what;
        std::uint32_t channels, packages, dies, planes, pages;
    } cases[] = {
        {"packagesPerChannel", "die", 1u << 16, 1u << 16, 1, 1, 1},
        {"diesPerPackage", "die", 1u << 16, 1u << 8, 1u << 8, 1, 1},
        {"diesPerPackage", "die", 1u << 16, 1, 0xffffu, 1, 1},
        {"planesPerDie", "plane", 1u << 16, 1, 1u << 8, 1u << 8, 1},
        {"pagesPerBlock", "page", 1u << 16, 1u << 8, 1u << 4, 1u << 3,
         1u << 4},
    };
    for (const auto& c : cases) {
        FlashGeometry g = smallGeom();
        g.channels = c.channels;
        g.packagesPerChannel = c.packages;
        g.diesPerPackage = c.dies;
        g.planesPerDie = c.planes;
        g.blocksPerPlane = 0x80000000u;
        g.pagesPerBlock = c.pages;
        std::string msg = filFatal(g, NandTiming::zNand());
        EXPECT_EQ(msg.rfind(std::string("FlashGeometry::") + c.name + " = ",
                            0),
                  0u)
            << msg;
        EXPECT_NE(msg.find(std::string("overflows the ") + c.what +
                           " count"),
                  std::string::npos)
            << msg;
    }
}

TEST(FilConfig, BadChannelBandwidthIsFatalNamingTheField)
{
    for (double bw : {0.0, -1.2e9, std::numeric_limits<double>::infinity(),
                      std::nan("")}) {
        NandTiming t = NandTiming::zNand();
        t.channelBandwidth = bw;
        std::string msg = filFatal(smallGeom(), t);
        EXPECT_EQ(msg.rfind("NandTiming::channelBandwidth is ", 0), 0u)
            << "bandwidth " << bw << ": '" << msg << "'";
        EXPECT_NE(msg.find("must be a finite positive bytes/s"),
                  std::string::npos)
            << msg;
    }
    EXPECT_EQ(filFatal(smallGeom(), NandTiming::zNand()), "");
}

} // namespace
} // namespace hams
