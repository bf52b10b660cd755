/**
 * @file
 * Hotness-aware tiering sweep on the mmap baseline: zipfian skew vs a
 * skew-oblivious page cache at equal DRAM.
 *
 * zipf θ ∈ {0.6, 0.8, 0.99, 1.2} × tiering mode {off, pin, mig, tier}:
 * a closed loop of 64 B accesses whose 4 KiB pages are drawn from a
 * Gray et al. zipfian generator over a window larger than the page
 * cache. Every mode of a θ group runs with the *same* DRAM budget and
 * FTL knobs — the only difference is the TieringConfig:
 *
 *  - off:  no consumer, no tracker — the skew-oblivious LRU.
 *  - pin:  hot-frame pinning (cold-first eviction) in the page cache
 *          and the SSD buffer only.
 *  - mig:  background promotion/demotion in the backing SSD only.
 *  - tier: both consumers.
 *
 * pin and mig show each consumer's share of the tier gain. Every cell
 * runs twice on a fresh platform; the integer-state fingerprints must
 * match (rerun_identical), at any HAMS_BENCH_THREADS. Gates: at high
 * skew (θ >= 0.99) tier must beat or match off — LRU wastes residency
 * on zipf-tail one-hit-wonders that the cold-first selector evicts
 * first — and the migration engine must move frames in some tier
 * cell. Results land in BENCH_tiering.json (HAMS_BENCH_JSON
 * overrides, HAMS_BENCH_SCALE enlarges the runs).
 */

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "baselines/mmap_platform.hh"
#include "bench_util.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "ssd/ssd.hh"
#include "workload/workload.hh"

namespace {

using namespace hams;
using namespace hams::bench;

enum class TierMode { Off, Pin, Mig, Tier };

constexpr TierMode modes[] = {TierMode::Off, TierMode::Pin, TierMode::Mig,
                              TierMode::Tier};
constexpr std::size_t modeCount = sizeof(modes) / sizeof(modes[0]);

const char*
modeName(TierMode m)
{
    switch (m) {
      case TierMode::Off: return "off";
      case TierMode::Pin: return "pin";
      case TierMode::Mig: return "mig";
      case TierMode::Tier: return "tier";
    }
    return "?";
}

struct TierCell
{
    double theta = 0;
    TierMode mode = TierMode::Off;
};

struct TierResult
{
    double opsPerSec = 0;
    double hitRate = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0; //!< page faults
    TieringStats tier;
    std::uint64_t hotFrames = 0; //!< tracker-hot frames at end of run
    /** Mix of every integer observable; rerun comparisons are exact
     *  equality on this, never on derived doubles. */
    std::uint64_t fingerprint = 0;
    bool rerunIdentical = false;
};

TieringConfig
tieringFor(TierMode mode)
{
    TieringConfig t;
    // Knobs scaled to the sweep: a long epoch + low threshold makes
    // hotness frequency-biased over the (scaled-down) run, so the hot
    // set grows to the same order as the contested cache.
    t.epochAccesses = 16384;
    t.hotThreshold = 2;
    t.pinHotFrames = mode == TierMode::Pin || mode == TierMode::Tier;
    t.pinScanLimit = 64;
    t.migration = mode == TierMode::Mig || mode == TierMode::Tier;
    t.migScanFrames = 512;
    // The closed loop keeps the device busy every ~10-20 us of
    // simulated time, so the stock 50 us quiet window would never
    // open; shrink it so background steps interleave with the load.
    t.migIdleDelay = microseconds(2);
    return t;
}

std::unique_ptr<MmapPlatform>
buildPlatform(const TierCell& cell, const BenchGeometry& geom)
{
    setQuiet(true);
    MmapConfig c;
    c.backend = MmapBackend::UllFlash;
    c.dramBytes = geom.hostMemBytes;
    // Page cache well under the zipf window so residency is the
    // contested resource the two policies fight over: LRU wastes
    // frames on zipf-tail one-hit-wonders streaming through.
    c.pageCacheBytes = geom.hostMemBytes / 16;
    c.ssdRawBytes = geom.ssdRawBytes;
    c.ssdBufferBytes = 4ull << 20;
    // Identical FTL knobs in every mode: background GC runs the same
    // engine with or without tiering.
    c.ftl.backgroundGc = true;
    c.ftl.gcStreamBlocks = 1;
    c.tiering = tieringFor(cell.mode);
    return std::make_unique<MmapPlatform>(c);
}

constexpr std::uint32_t queueDepth = 4;

std::uint64_t
mix64(std::uint64_t h, std::uint64_t v)
{
    h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
    h *= 0xBF58476D1CE4E5B9ull;
    return h ^ (h >> 31);
}

TierResult
runOnce(const TierCell& cell, const BenchGeometry& geom,
        std::uint64_t warmup, std::uint64_t measured)
{
    TierResult res;
    auto platform = buildPlatform(cell, geom);
    Ssd& ssd = platform->backingSsd();

    std::uint64_t window =
        std::min<std::uint64_t>(2 * geom.datasetBytes,
                                platform->capacity());
    std::uint64_t frames = window / 4096;

    // Lay the window out on flash first (mapped LPNs, busy-state then
    // cleared): faults read real pages and the migration engine has
    // mapped frames to promote.
    {
        PageFtl& ftl = ssd.pageFtl();
        std::uint32_t page_size = ssd.config().geom.pageSize;
        std::uint64_t lpns = window / page_size;
        Tick t = 0;
        for (std::uint64_t lpn = 0; lpn < lpns; ++lpn)
            t = ftl.writePage(lpn, page_size, t);
        ssd.flashLayer().reset();
        ftl.onFlashReset();
    }
    ZipfGenerator zipf(frames, cell.theta);
    EventQueue& eq = platform->eventQueue();
    Rng rng(1234);

    struct Slot
    {
        Tick nextIssue = 0;
        Tick issued = 0;
        Tick done = 0;
        bool inflight = false;
        bool arrived = false;
    };
    std::vector<Slot> slots(queueDepth);

    std::uint64_t completions = 0;
    Tick measure_start = 0;
    Tick last_done = 0;
    std::uint64_t lat_sum = 0;
    std::uint64_t lat_n = 0;

    auto harvest = [&]() -> bool {
        bool any = false;
        for (auto& s : slots) {
            if (!s.arrived)
                continue;
            if (completions == warmup)
                measure_start = s.issued;
            if (completions >= warmup && lat_n < measured) {
                lat_sum += s.done - s.issued;
                last_done = std::max(last_done, s.done);
                ++lat_n;
            }
            ++completions;
            s.nextIssue = s.done;
            s.inflight = false;
            s.arrived = false;
            any = true;
        }
        return any;
    };

    while (completions < warmup + measured) {
        Slot* next = nullptr;
        for (auto& s : slots)
            if (!s.inflight && (!next || s.nextIssue < next->nextIssue))
                next = &s;
        if (!next) {
            bool stepped = true;
            while (!harvest() && (stepped = eq.step())) {
            }
            if (!stepped)
                throw std::runtime_error("access never completed");
            continue;
        }
        while (eq.nextTick() < next->nextIssue && eq.step()) {
        }
        if (harvest())
            continue;
        next->inflight = true;
        next->arrived = false;
        next->issued = next->nextIssue;
        // One uniform draw for the page, one for the line, one for the
        // op: the stream is identical across modes and reruns.
        Addr addr = zipf.next(rng) * 4096 + rng.below(64) * 64;
        bool is_read = rng.uniform() < 0.8;
        MemAccess acc{addr, 64, is_read ? MemOp::Read : MemOp::Write};
        Slot* slot = next;
        platform->access(acc, next->nextIssue,
                         [slot](Tick w, const LatencyBreakdown&) {
                             slot->arrived = true;
                             slot->done = w;
                         });
    }

    res.hits = platform->pageCacheHits();
    res.misses = platform->pageFaults();
    if (const HotnessTracker* tracker = platform->hotnessTracker())
        for (std::uint64_t f = 0; f < tracker->frames(); ++f)
            res.hotFrames += tracker->isHotFrame(f) ? 1 : 0;

    res.tier = ssd.tieringStats();
    res.hitRate = res.hits + res.misses > 0
                      ? static_cast<double>(res.hits) /
                            static_cast<double>(res.hits + res.misses)
                      : 0;
    res.opsPerSec = static_cast<double>(lat_n) /
                    ticksToSeconds(last_done - measure_start);

    std::uint64_t fp = 0;
    fp = mix64(fp, lat_sum);
    fp = mix64(fp, last_done);
    fp = mix64(fp, measure_start);
    fp = mix64(fp, res.hits);
    fp = mix64(fp, res.misses);
    fp = mix64(fp, ssd.ftlStats().hostWrites);
    fp = mix64(fp, ssd.ftlStats().hostReads);
    fp = mix64(fp, ssd.ftlStats().gcRelocations);
    fp = mix64(fp, ssd.ftlStats().erases);
    fp = mix64(fp, ssd.stats().bufferHits);
    fp = mix64(fp, ssd.stats().bufferMisses);
    res.fingerprint = fp;
    return res;
}

TierResult
runCell(const TierCell& cell, const BenchGeometry& geom,
        std::uint64_t warmup, std::uint64_t measured)
{
    // Two complete runs on fresh platforms: the tiering machinery must
    // be deterministic, so the integer fingerprints match exactly.
    TierResult a = runOnce(cell, geom, warmup, measured);
    TierResult b = runOnce(cell, geom, warmup, measured);
    a.rerunIdentical = a.fingerprint == b.fingerprint;
    return a;
}

} // namespace

int
main()
{
    banner("tiering", "hotness-aware tiering vs skew-oblivious page cache "
                      "(mmap, zipf sweep at equal DRAM)");
    BenchGeometry geom = BenchGeometry::scaled();
    std::uint64_t warmup = 4000 * scale();
    std::uint64_t measured = 20000 * scale();

    const std::vector<double> thetas = {0.6, 0.8, 0.99, 1.2};

    std::vector<TierCell> cells;
    for (double t : thetas)
        for (TierMode m : modes)
            cells.push_back({t, m});

    std::vector<TierResult> results(cells.size());
    try {
        runCells(
            cells.size(),
            [&](std::size_t i) {
                return "theta " + std::to_string(cells[i].theta) + " " +
                       modeName(cells[i].mode);
            },
            [&](std::size_t i) {
                results[i] = runCell(cells[i], geom, warmup, measured);
            });
    } catch (const std::exception& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }

    Report rep("tiering",
               {{"name", "%s"},
                {nullptr, nullptr, "theta", "%5.2f"},
                {nullptr, nullptr, "mode", "%5s"},
                {"ops_per_sec", "%.1f", "ops/s", "%10.0f"},
                {nullptr, nullptr, "hit%", "%6.2f%%"},
                {"hit_rate", "%.5f"},
                {"hits", "%llu"},
                {"misses", "%llu"},
                {"hot_frames", "%llu", "hot", "%9llu"},
                {"promotions", "%llu", "promo", "%7llu"},
                {"demotions", "%llu", "demo", "%7llu"},
                {"mig_steps", "%llu"},
                {"pace_deferrals", "%llu"},
                {"fingerprint", "%llu"},
                {"rerun_identical", "%s"},
                {nullptr, nullptr, "rerun", "%8s"}});

    bool moved = false;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const TierCell& c = cells[i];
        const TierResult& r = results[i];
        std::string name =
            strf("tiering/mmap/theta%.2f/%s", c.theta, modeName(c.mode));
        rep.row({name, c.theta, modeName(c.mode), r.opsPerSec,
                 r.hitRate * 100, r.hitRate, r.hits, r.misses, r.hotFrames,
                 r.tier.promotions, r.tier.demotions, r.tier.migSteps,
                 r.tier.paceDeferrals, r.fingerprint, r.rerunIdentical,
                 r.rerunIdentical ? "ok" : "DIFF"});
        rep.gate(r.rerunIdentical, name + ": rerun diverged");
        if (c.mode == TierMode::Tier &&
            r.tier.promotions + r.tier.demotions > 0)
            moved = true;
    }

    // Headline: each consumer's share of the gain, and at high skew
    // the tiering cache must beat (or at worst match) the
    // skew-oblivious one at equal DRAM.
    std::printf("\nmode vs skew-oblivious cache (ops/s ratio, equal "
                "DRAM):\n");
    std::printf("%5s %12s %7s %7s %7s\n", "theta", "off ops/s", "pin",
                "mig", "tier");
    for (std::size_t i = 0; i < cells.size(); i += modeCount) {
        // A θ group holds one cell per mode, in modes[] order.
        auto ops = [&](TierMode m) {
            return results[i + static_cast<std::size_t>(m)].opsPerSec;
        };
        double off = ops(TierMode::Off);
        auto ratio = [&](TierMode m) { return off > 0 ? ops(m) / off : 0; };
        std::printf("%5.2f %12.0f %6.3fx %6.3fx %6.3fx\n", cells[i].theta,
                    off, ratio(TierMode::Pin), ratio(TierMode::Mig),
                    ratio(TierMode::Tier));
        if (cells[i].theta >= 0.99)
            rep.gate(ops(TierMode::Tier) >= off,
                     strf("theta %.2f: tiering below skew-oblivious at "
                          "high skew", cells[i].theta));
    }
    rep.gate(moved, "the migration engine never moved a frame in any "
                    "tier cell");
    return rep.finish();
}
