/**
 * @file
 * Scale-out tests: the DomainConductor's deterministic cross-domain
 * interleave; ShardedPlatform routing (range contiguity, hash balance
 * and injectivity); M = 1 bit-identity against the bare platform under
 * CoreModel and SmpModel; M > 1 rerun determinism with the inline fast
 * path on and off; the two-phase cross-shard flush barrier against
 * per-shard twin platforms; per-shard failure isolation; zero
 * allocations on the sharded hit path; and the stats-merge helpers'
 * sum-vs-max semantics.
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "baselines/sharded_platform.hh"
#include "core/hams_system.hh"
#include "cpu/core_model.hh"
#include "cpu/smp_model.hh"
#include "ftl/page_ftl.hh"
#include "sim/alloc_hook.hh"
#include "sim/domain_conductor.hh"
#include "sim/field_list.hh"
#include "ssd/ssd.hh"
#include "workload/workload.hh"

#include "same_run.hh"

namespace hams {
namespace {

std::unique_ptr<HamsSystem>
smallHams(HamsMode mode)
{
    HamsSystemConfig c = mode == HamsMode::Persist
                             ? HamsSystemConfig::tightPersist()
                             : HamsSystemConfig::tightExtend();
    c.nvdimm.capacity = 96ull << 20;
    c.ssdRawBytes = 1ull << 30;
    c.pinnedBytes = 32ull << 20;
    c.functionalData = false;
    return std::make_unique<HamsSystem>(c);
}

std::unique_ptr<ShardedPlatform>
shardedHams(std::uint32_t m, HamsMode mode, ShardedConfig cfg = {})
{
    std::vector<std::unique_ptr<MemoryPlatform>> shards;
    for (std::uint32_t s = 0; s < m; ++s)
        shards.push_back(smallHams(mode));
    return std::make_unique<ShardedPlatform>(std::move(shards), cfg);
}

/** Per-(shard, core) generators: core c drives shard c % M at its
 *  range base — the same placement the scale-out bench uses. */
SmpResult
runShardedSmp(ShardedPlatform& sp, const std::string& workload,
              std::uint32_t cores, bool inline_on, std::uint64_t budget)
{
    std::uint32_t m = sp.shardCount();
    std::vector<std::unique_ptr<WorkloadGenerator>> gens;
    std::vector<WorkloadGenerator*> raw;
    for (std::uint32_t c = 0; c < cores; ++c) {
        std::uint32_t shard = c % m;
        gens.push_back(makeShardCoreWorkload(workload, 32ull << 20, c / m,
                                             cores / m, shard,
                                             sp.rangeBase(shard)));
        raw.push_back(gens.back().get());
    }
    CoreConfig cfg;
    cfg.inlineFastPath = inline_on;
    SmpModel smp(sp, cfg);
    smp.run(raw, budget / 2);
    return smp.run(raw, budget);
}

// ---------------------------------------------------------------------
// DomainConductor: global tick order with the fixed domain tie-break,
// and single-domain delegation.
// ---------------------------------------------------------------------

TEST(DomainConductor, InterleavesByTickThenDomainId)
{
    EventQueue a, b, c;
    DomainConductor dc;
    dc.attach(a);
    dc.attach(b);
    dc.attach(c);
    EXPECT_EQ(a.domainId(), 0u);
    EXPECT_EQ(b.domainId(), 1u);
    EXPECT_EQ(c.domainId(), 2u);

    std::vector<int> order;
    // Same tick across domains: attach order must win. Different
    // ticks: global order regardless of schedule order.
    c.scheduleAt(10, [&] { order.push_back(30); });
    b.scheduleAt(10, [&] { order.push_back(20); });
    a.scheduleAt(10, [&] { order.push_back(10); });
    b.scheduleAt(5, [&] { order.push_back(21); });
    a.scheduleAt(20, [&] { order.push_back(11); });
    // Same tick within a domain stays FIFO.
    c.scheduleAt(10, [&] { order.push_back(31); });

    EXPECT_EQ(dc.pending(), 6u);
    EXPECT_EQ(dc.nextTick(), 5u);
    dc.run();
    EXPECT_EQ(order, (std::vector<int>{21, 10, 20, 30, 31, 11}));
    EXPECT_EQ(dc.now(), 20u);
    EXPECT_EQ(dc.fired(), 6u);
    EXPECT_TRUE(dc.empty());

    // Per-domain time: each domain's clock is its own last event.
    EXPECT_EQ(a.now(), 20u);
    EXPECT_EQ(b.now(), 10u);
    EXPECT_EQ(c.now(), 10u);
}

TEST(DomainConductor, SingleDomainDelegates)
{
    EventQueue solo, q;
    DomainConductor dc;
    dc.attach(q);

    int solo_sum = 0, dc_sum = 0;
    for (Tick t : {7u, 3u, 3u, 12u}) {
        solo.scheduleAt(t, [&, t] { solo_sum = solo_sum * 31 + int(t); });
        q.scheduleAt(t, [&, t] { dc_sum = dc_sum * 31 + int(t); });
    }
    solo.run();
    dc.run();
    EXPECT_EQ(solo_sum, dc_sum);
    EXPECT_EQ(solo.now(), dc.now());
    EXPECT_EQ(solo.fired(), dc.fired());
}

TEST(DomainConductor, RunUntilAdvancesAllDomains)
{
    EventQueue a, b;
    DomainConductor dc;
    dc.attach(a);
    dc.attach(b);
    int fired = 0;
    a.scheduleAt(10, [&] { ++fired; });
    b.scheduleAt(30, [&] { ++fired; });

    dc.runUntil(20);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(a.now(), 20u);
    EXPECT_EQ(b.now(), 20u);
    EXPECT_EQ(dc.now(), 20u);
    dc.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(dc.now(), 30u);
}

// ---------------------------------------------------------------------
// Routing tables.
// ---------------------------------------------------------------------

TEST(ShardedRouting, RangePolicyIsContiguous)
{
    auto sp = shardedHams(4, HamsMode::Extend);
    std::uint64_t shard_cap = sp->shard(0).capacity();
    EXPECT_EQ(sp->capacity(), 4 * shard_cap);

    for (std::uint32_t s = 0; s < 4; ++s) {
        EXPECT_EQ(sp->rangeBase(s), Addr(s) * shard_cap);
        // First and last stripe of the span, plus an interior offset.
        for (Addr off : {Addr(0), Addr(4096), shard_cap - 64}) {
            auto r = sp->route(sp->rangeBase(s) + off);
            EXPECT_EQ(r.shard, s);
            EXPECT_EQ(r.local, off);
        }
    }
}

TEST(ShardedRouting, HashPolicyBalancedAndInjective)
{
    ShardedConfig cfg;
    cfg.policy = ShardPolicy::Hash;
    auto sp = shardedHams(4, HamsMode::Extend, cfg);

    std::uint64_t stripe = cfg.stripeBytes;
    std::uint64_t stripes = sp->capacity() / stripe;
    std::vector<std::uint64_t> per_shard(4, 0);
    std::vector<std::vector<bool>> used(
        4, std::vector<bool>(stripes / 4, false));
    for (std::uint64_t i = 0; i < stripes; ++i) {
        auto r = sp->route(i * stripe);
        ASSERT_LT(r.shard, 4u);
        ASSERT_EQ(r.local % stripe, 0u);
        std::uint64_t slot = r.local / stripe;
        ASSERT_LT(slot, stripes / 4) << "local slot beyond shard";
        EXPECT_FALSE(used[r.shard][slot]) << "two stripes alias";
        used[r.shard][slot] = true;
        ++per_shard[r.shard];
    }
    for (std::uint32_t s = 0; s < 4; ++s)
        EXPECT_EQ(per_shard[s], stripes / 4) << "shard " << s;

    // Offsets within a stripe keep their position.
    auto base = sp->route(0);
    auto off = sp->route(4096 + 64);
    EXPECT_EQ(base.shard, sp->route(64).shard);
    EXPECT_EQ(sp->route(64).local, base.local + 64);
    (void)off;

    // Same seed, same table — a fresh instance routes identically.
    auto sp2 = shardedHams(4, HamsMode::Extend, cfg);
    for (std::uint64_t i = 0; i < stripes; i += 7) {
        auto r1 = sp->route(i * stripe);
        auto r2 = sp2->route(i * stripe);
        EXPECT_EQ(r1.shard, r2.shard);
        EXPECT_EQ(r1.local, r2.local);
    }
}

// ---------------------------------------------------------------------
// Shard seed streams.
// ---------------------------------------------------------------------

TEST(ShardSeeds, Shard0KeepsBaseSeedAndOthersDiffer)
{
    EXPECT_EQ(shardSeed(42, 0), 42u);
    EXPECT_EQ(shardSeed(1234567, 0), 1234567u);
    // Distinct shards, distinct seeds; the derivation has no shard
    // count input at all, so shard s's stream cannot depend on M.
    std::vector<std::uint64_t> seeds;
    for (std::uint32_t s = 0; s < 16; ++s) {
        std::uint64_t v = shardSeed(42, s);
        for (std::uint64_t prev : seeds)
            EXPECT_NE(v, prev) << "shard " << s;
        seeds.push_back(v);
    }
}

TEST(ShardSeeds, Shard0CoreStreamMatchesMakeCoreWorkload)
{
    auto a = makeCoreWorkload("rndWr", 32ull << 20, 1, 4);
    auto b = makeShardCoreWorkload("rndWr", 32ull << 20, 1, 4, 0, 0);
    WorkloadOp oa, ob;
    for (int i = 0; i < 5000; ++i) {
        ASSERT_TRUE(a->next(oa));
        ASSERT_TRUE(b->next(ob));
        EXPECT_EQ(oa.hasAccess, ob.hasAccess);
        EXPECT_EQ(oa.access.addr, ob.access.addr);
        EXPECT_EQ(int(oa.access.op), int(ob.access.op));
        EXPECT_EQ(oa.flushBarrier, ob.flushBarrier);
    }
}

TEST(ShardSeeds, BaseAddrOffsetsTheWholeStream)
{
    Addr base = 1ull << 30;
    auto a = makeShardCoreWorkload("rndRd", 32ull << 20, 0, 1, 2, 0);
    auto b = makeShardCoreWorkload("rndRd", 32ull << 20, 0, 1, 2, base);
    WorkloadOp oa, ob;
    for (int i = 0; i < 5000; ++i) {
        ASSERT_TRUE(a->next(oa));
        ASSERT_TRUE(b->next(ob));
        ASSERT_EQ(oa.hasAccess, ob.hasAccess);
        if (oa.hasAccess)
            EXPECT_EQ(oa.access.addr + base, ob.access.addr);
    }
}

TEST(ShardSeeds, DifferentShardsProduceDifferentStreams)
{
    auto a = makeShardCoreWorkload("rndRd", 32ull << 20, 0, 1, 1, 0);
    auto b = makeShardCoreWorkload("rndRd", 32ull << 20, 0, 1, 2, 0);
    WorkloadOp oa, ob;
    int diverged = 0;
    for (int i = 0; i < 2000; ++i) {
        a->next(oa);
        b->next(ob);
        if (oa.hasAccess && ob.hasAccess &&
            oa.access.addr != ob.access.addr)
            ++diverged;
    }
    EXPECT_GT(diverged, 0) << "shard streams identical";
}

// ---------------------------------------------------------------------
// M = 1: the sharded platform is bit-identical to the bare platform.
// ---------------------------------------------------------------------

TEST(ShardedM1, BitIdenticalUnderCoreModel)
{
    auto bare = smallHams(HamsMode::Extend);
    auto sp = shardedHams(1, HamsMode::Extend);
    EXPECT_EQ(sp->name(), bare->name());
    EXPECT_EQ(sp->capacity(), bare->capacity());

    auto gen_a = makeWorkload("update", 32ull << 20);
    auto gen_b = makeWorkload("update", 32ull << 20);
    CoreModel core_a(*bare);
    CoreModel core_b(*sp);
    RunResult warm_a = core_a.run(*gen_a, 200000);
    RunResult warm_b = core_b.run(*gen_b, 200000);
    RunResult meas_a = core_a.run(*gen_a, 400000);
    RunResult meas_b = core_b.run(*gen_b, 400000);

    expectIdentical(warm_a, warm_b, "M=1 CoreModel (warmup)");
    expectIdentical(meas_a, meas_b, "M=1 CoreModel (measure)");
    auto& shard = dynamic_cast<HamsSystem&>(sp->shard(0));
    expectIdentical(bare->stats(), shard.stats(), "M=1 HamsStats");
    EXPECT_EQ(bare->eventQueue().now(), shard.eventQueue().now());
    EXPECT_EQ(bare->eventQueue().fired(), shard.eventQueue().fired());
    // Pass-through: the sharding layer never counts M = 1 traffic.
    EXPECT_EQ(sp->shardedStats().routedAccesses, 0u);
    EXPECT_EQ(sp->shardedStats().flushBarriers, 0u);
}

TEST(ShardedM1, BitIdenticalUnderSmpModel)
{
    auto bare = smallHams(HamsMode::Persist);
    auto sp = shardedHams(1, HamsMode::Persist);

    auto run_bare = [&] {
        std::vector<std::unique_ptr<WorkloadGenerator>> gens;
        std::vector<WorkloadGenerator*> raw;
        for (std::uint32_t c = 0; c < 4; ++c) {
            gens.push_back(makeCoreWorkload("rndWr", 32ull << 20, c, 4));
            raw.push_back(gens.back().get());
        }
        SmpModel smp(*bare);
        smp.run(raw, 100000);
        return smp.run(raw, 200000);
    };
    SmpResult a = run_bare();
    SmpResult b = runShardedSmp(*sp, "rndWr", 4, true, 200000);

    for (std::uint32_t c = 0; c < 4; ++c)
        expectIdentical(a.perCore[c], b.perCore[c], "M=1 SMP per-core");
    expectIdentical(a.combined, b.combined, "M=1 SMP combined");
    auto& shard = dynamic_cast<HamsSystem&>(sp->shard(0));
    expectIdentical(bare->stats(), shard.stats(), "M=1 SMP HamsStats");
    EXPECT_EQ(bare->eventQueue().now(), shard.eventQueue().now());
}

// ---------------------------------------------------------------------
// M > 1 determinism: rerun-identical and inline-gate soundness.
// ---------------------------------------------------------------------

TEST(ShardedDeterminism, FourShardRerunIdentical)
{
    auto p1 = shardedHams(4, HamsMode::Extend);
    auto p2 = shardedHams(4, HamsMode::Extend);
    // Budget large enough for update's periodic durability barriers to
    // actually fire cross-shard flushes (pinned non-zero below).
    SmpResult r1 = runShardedSmp(*p1, "update", 8, true, 800000);
    SmpResult r2 = runShardedSmp(*p2, "update", 8, true, 800000);

    for (std::uint32_t c = 0; c < 8; ++c)
        expectIdentical(r1.perCore[c], r2.perCore[c], "rerun per-core");
    expectIdentical(r1.combined, r2.combined, "rerun combined");
    HamsStats s1{}, s2{};
    EXPECT_EQ(p1->aggregatedHamsStats(s1), 4u);
    EXPECT_EQ(p2->aggregatedHamsStats(s2), 4u);
    expectIdentical(s1, s2, "rerun aggregated HamsStats");
    EXPECT_EQ(p1->shardedStats().routedAccesses,
              p2->shardedStats().routedAccesses);
    EXPECT_EQ(p1->shardedStats().flushBarriers,
              p2->shardedStats().flushBarriers);
    EXPECT_EQ(p1->shardedStats().flushSkewTicks,
              p2->shardedStats().flushSkewTicks);
    EXPECT_EQ(p1->conductor().now(), p2->conductor().now());
    EXPECT_EQ(p1->conductor().fired(), p2->conductor().fired());
    EXPECT_GT(p1->shardedStats().routedAccesses, 0u);
    EXPECT_GT(p1->shardedStats().flushBarriers, 0u);
}

TEST(ShardedDeterminism, InlineFastPathOnOffIdentical)
{
    auto on = shardedHams(2, HamsMode::Extend);
    auto off = shardedHams(2, HamsMode::Extend);
    SmpResult r_on = runShardedSmp(*on, "rndWr", 4, true, 200000);
    SmpResult r_off = runShardedSmp(*off, "rndWr", 4, false, 200000);

    for (std::uint32_t c = 0; c < 4; ++c)
        expectIdentical(r_on.perCore[c], r_off.perCore[c],
                        "inline on vs off");
    expectIdentical(r_on.combined, r_off.combined,
                    "inline on vs off combined");
    HamsStats s_on{}, s_off{};
    on->aggregatedHamsStats(s_on);
    off->aggregatedHamsStats(s_off);
    expectIdentical(s_on, s_off, "inline on vs off HamsStats");
    EXPECT_EQ(on->conductor().now(), off->conductor().now());
}

// ---------------------------------------------------------------------
// Cross-shard flush: completes at max(shard done) + fence, after every
// shard is durable.
// ---------------------------------------------------------------------

TEST(ShardedFlush, BarrierCompletesAtMaxShardDonePlusFence)
{
    auto sp = shardedHams(2, HamsMode::Persist);
    auto t0 = smallHams(HamsMode::Persist);
    auto t1 = smallHams(HamsMode::Persist);

    // Same writes through the sharded platform and the twin bare
    // platforms: shard-local address == global - rangeBase.
    std::uint64_t done_writes = 0;
    auto count = [&](Tick, const LatencyBreakdown&) { ++done_writes; };
    for (std::uint32_t i = 0; i < 8; ++i) {
        Addr off = Addr(i) * 4096;
        MemAccess w{off, 64, MemOp::Write};
        sp->access(MemAccess{sp->rangeBase(0) + off, 64, MemOp::Write},
                   0, count);
        sp->access(MemAccess{sp->rangeBase(1) + off, 64, MemOp::Write},
                   0, count);
        t0->access(w, 0, {});
        t1->access(w, 0, {});
    }
    sp->conductor().run();
    t0->eventQueue().run();
    t1->eventQueue().run();
    EXPECT_EQ(done_writes, 16u);

    Tick issue = sp->conductor().now();
    Tick twin_issue = std::max(t0->eventQueue().now(),
                               t1->eventQueue().now());
    Tick d0 = 0, d1 = 0, sharded_done = 0;
    bool durable_at_cb = false;
    t0->flush(twin_issue, [&](Tick d, const LatencyBreakdown&) { d0 = d; });
    t1->flush(twin_issue, [&](Tick d, const LatencyBreakdown&) { d1 = d; });
    sp->flush(issue, [&](Tick d, const LatencyBreakdown&) {
        sharded_done = d;
        durable_at_cb = sp->persistent();
    });
    t0->eventQueue().run();
    t1->eventQueue().run();
    sp->conductor().run();

    ASSERT_GT(d0, 0u);
    ASSERT_GT(d1, 0u);
    Tick fence = sp->config().fenceLatency;
    EXPECT_EQ(sharded_done, std::max(d0, d1) + fence)
        << "barrier must complete at max(shard done) + fence";
    EXPECT_TRUE(durable_at_cb)
        << "fence released before every shard was durable";
    EXPECT_EQ(sp->shardedStats().flushBarriers, 1u);
    EXPECT_EQ(sp->shardedStats().fenceTicks, fence);
    EXPECT_EQ(sp->shardedStats().flushSkewTicks,
              std::max(d0, d1) - std::min(d0, d1));
}

TEST(ShardedFlush, FenceCostOnlyWithMultipleShards)
{
    // M = 1 hands the callback straight to the shard: no barrier, no
    // fence charge.
    auto sp = shardedHams(1, HamsMode::Persist);
    Tick done = 0;
    sp->access(MemAccess{0, 64, MemOp::Write}, 0, {});
    sp->conductor().run();
    sp->flush(sp->conductor().now(),
              [&](Tick d, const LatencyBreakdown&) { done = d; });
    sp->conductor().run();
    EXPECT_GT(done, 0u);
    EXPECT_EQ(sp->shardedStats().flushBarriers, 0u);
    EXPECT_EQ(sp->shardedStats().fenceTicks, 0u);
}

// ---------------------------------------------------------------------
// Per-shard failure domains: cutting one shard leaves siblings serving.
// ---------------------------------------------------------------------

TEST(ShardedFailure, CutShardLeavesSiblingServing)
{
    auto sp = shardedHams(2, HamsMode::Extend);
    // Touch both shards so each holds real state.
    std::uint64_t completed = 0;
    auto count = [&](Tick, const LatencyBreakdown&) { ++completed; };
    for (std::uint32_t i = 0; i < 4; ++i) {
        sp->access(MemAccess{sp->rangeBase(0) + Addr(i) * 4096, 64,
                             MemOp::Write},
                   0, count);
        sp->access(MemAccess{sp->rangeBase(1) + Addr(i) * 4096, 64,
                             MemOp::Write},
                   0, count);
    }
    sp->conductor().run();
    EXPECT_EQ(completed, 8u);

    // Cut ONLY shard 1 — shards share no state, so shard 0 must keep
    // serving while its sibling is dark.
    auto& failed = dynamic_cast<HamsSystem&>(sp->shard(1));
    failed.powerFail();

    completed = 0;
    Tick at = sp->conductor().now();
    for (std::uint32_t i = 0; i < 4; ++i)
        sp->access(MemAccess{sp->rangeBase(0) + Addr(i) * 4096, 64,
                             MemOp::Read},
                   at, count);
    sp->conductor().run();
    EXPECT_EQ(completed, 4u) << "healthy shard stopped serving";

    // Bring the cut shard back: it serves again.
    failed.recover();
    sp->conductor().run();
    completed = 0;
    at = sp->conductor().now();
    for (std::uint32_t i = 0; i < 4; ++i)
        sp->access(MemAccess{sp->rangeBase(1) + Addr(i) * 4096, 64,
                             MemOp::Read},
                   at, count);
    sp->conductor().run();
    EXPECT_EQ(completed, 4u) << "recovered shard not serving";
}

TEST(ShardedFailure, WholePlatformPowerFailFansOverShards)
{
    auto sp = shardedHams(2, HamsMode::Extend);
    auto count = [](Tick, const LatencyBreakdown&) {};
    for (std::uint32_t i = 0; i < 4; ++i) {
        sp->access(MemAccess{sp->rangeBase(0) + Addr(i) * 4096, 64,
                             MemOp::Write},
                   0, count);
        sp->access(MemAccess{sp->rangeBase(1) + Addr(i) * 4096, 64,
                             MemOp::Write},
                   0, count);
    }
    sp->conductor().run();

    sp->powerFail();
    Tick done = sp->recover();
    sp->conductor().run();
    EXPECT_GT(done, 0u);
    for (std::uint32_t s = 0; s < 2; ++s)
        EXPECT_TRUE(sp->shard(s).persistent());
}

// ---------------------------------------------------------------------
// Hot-path discipline: the sharded hit path allocates nothing.
// ---------------------------------------------------------------------

TEST(ShardedZeroAlloc, HitPathThroughRoutingAndConductor)
{
    // Per-shard working set fits each shard's NVDIMM cache: after
    // warmup every access is a routed extend-mode hit. Equal
    // allocation deltas between a short and a long measured run mean
    // routing + conductor + shard hit path cost zero allocations/op.
    auto sp = shardedHams(4, HamsMode::Extend);
    std::vector<std::unique_ptr<WorkloadGenerator>> gens;
    std::vector<WorkloadGenerator*> raw;
    for (std::uint32_t c = 0; c < 4; ++c) {
        gens.push_back(makeShardCoreWorkload("rndRd", 16ull << 20, 0, 1,
                                             c, sp->rangeBase(c)));
        raw.push_back(gens.back().get());
    }
    SmpModel smp(*sp);
    smp.run(raw, 150000); // warm caches, pools, arenas, routing tables

    alloc_hook::AllocCounter allocs;
    smp.run(raw, 50000);
    std::uint64_t small = allocs.delta();
    allocs.rebase();
    smp.run(raw, 200000);
    std::uint64_t large = allocs.delta();
    EXPECT_EQ(small, large)
        << "per-access allocations on the sharded hit path";
    HamsStats agg{};
    sp->aggregatedHamsStats(agg);
    EXPECT_GT(agg.hits, 0u);
    EXPECT_GT(sp->shardedStats().routedAccesses, 0u);
}

// ---------------------------------------------------------------------
// Field lists (sim/field_list.hh): each list tiles its struct, the
// merge combines every field the way these tests state independently
// of the list, and the equality names every field.
// ---------------------------------------------------------------------

/** Set a leaf to a value derived from @p k (distinct k, distinct value). */
template <class T>
void
setLeaf(T& v, unsigned k)
{
    if constexpr (std::is_same_v<T, std::string>)
        v = "label" + std::to_string(k);
    else
        v = static_cast<T>(k);
}

/** Byte offset of @p s's member @p m. */
template <class S, class T>
std::size_t
offsetIn(const S& s, T S::*m)
{
    return static_cast<std::size_t>(reinterpret_cast<const char*>(&(s.*m)) -
                                    reinterpret_cast<const char*>(&s));
}

/**
 * @p S's list tiles the struct: in list order, each field starts where
 * the previous one ended, and the last ends at sizeof(S). So the listed
 * sizes add up to sizeof(S) (none of these structs has padding), and a
 * field missing from the list leaves a gap.
 */
template <class S>
void
expectListTilesStruct(const char* what)
{
    S s{};
    std::size_t end = 0;
    auto one = [&](const auto& f) {
        EXPECT_EQ(offsetIn(s, f.member), end)
            << what << "::" << f.name
            << ": a field before it is missing from the list";
        end = offsetIn(s, f.member) + sizeof(s.*f.member);
    };
    std::apply([&](const auto&... f) { (one(f), ...); }, S::fields());
    EXPECT_EQ(end, sizeof(S))
        << what << ": a field after the last listed one is missing";
}

TEST(StatsFields, EachListTilesItsStruct)
{
    expectListTilesStruct<LatencyBreakdown>("LatencyBreakdown");
    expectListTilesStruct<HamsStats>("HamsStats");
    expectListTilesStruct<NvmeEngineStats>("NvmeEngineStats");
    expectListTilesStruct<FtlStats>("FtlStats");
    expectListTilesStruct<RunResult>("RunResult");
}

/**
 * Merge two structs whose every leaf is set (left values below right
 * ones) both ways round and expect each leaf combined as stated:
 * @p kept leaves keep the left-hand value, @p maxed take the larger
 * value whichever side holds it, every other leaf sums.
 */
template <class S>
void
expectMergedAsStated(const std::set<std::string>& maxed,
                     const std::set<std::string>& kept)
{
    S a{}, b{};
    unsigned k = 1;
    forEachField(
        [&](FieldPath, auto, auto& x, auto& y) {
            setLeaf(x, k);
            setLeaf(y, 1000 + 3 * k);
            k += 7;
        },
        a, b);

    auto check = [&](const S& left, const S& right, const char* order) {
        S merged = left;
        mergeFields(merged, right);
        std::size_t named = 0;
        forEachField(
            [&](FieldPath at, auto, const auto& got, const auto& x,
                const auto& y) {
                using T = std::decay_t<decltype(got)>;
                std::string name = at.path();
                named += maxed.count(name) + kept.count(name);
                if (kept.count(name))
                    EXPECT_EQ(got, x) << order << name << " must keep";
                else if (maxed.count(name))
                    EXPECT_EQ(got, std::max(x, y))
                        << order << name << " must take the max";
                else if constexpr (std::is_arithmetic_v<T>)
                    EXPECT_EQ(got, static_cast<T>(x + y))
                        << order << name << " must sum";
                else
                    ADD_FAILURE() << order << name << " cannot sum";
            },
            merged, left, right);
        EXPECT_EQ(named, maxed.size() + kept.size())
            << "a stated name is not a listed field";
    };
    check(a, b, "larger from: ");
    check(b, a, "larger into: ");
}

TEST(StatsMerge, EveryFieldCombinesAsStated)
{
    // Depth peaks are per-structure maxima, not sums: 3 + 9 = 12 would
    // report a depth no single wait list or gate queue ever reached.
    expectMergedAsStated<HamsStats>(
        {"waiterPeakDepth", "gateQueuePeakDepth"}, {});
    // Pacer levels are per-shard readings, not event counts.
    expectMergedAsStated<FtlStats>({"paceLevel", "paceLevelMax"}, {});
    expectMergedAsStated<NvmeEngineStats>({}, {});
    expectMergedAsStated<LatencyBreakdown>({}, {});
    // Parallel entities overlap in time: summing simTime would
    // double-count the wall. Labels keep the left side; rates and
    // energy wait for finalizeRunResult.
    expectMergedAsStated<RunResult>(
        {"simTime"}, {"workload", "platform", "ipc", "opsPerSec",
                      "pagesPerSec", "bytesPerSec", "cpuEnergyJ"});
}

/**
 * Perturb each leaf of a copy of a filled @p S in turn and expect the
 * equality to name exactly that leaf (RunResult: sameSimOutputs too).
 */
template <class S>
void
expectEveryLeafNamed()
{
    S a{};
    unsigned k = 1;
    std::size_t leaves = 0;
    forEachField(
        [&](FieldPath, auto, auto& v) {
            setLeaf(v, k += 5);
            ++leaves;
        },
        a);
    EXPECT_FALSE(firstDifference(a, a));
    for (std::size_t i = 0; i < leaves; ++i) {
        S b = a;
        std::size_t j = 0;
        std::string want;
        forEachField(
            [&](FieldPath at, auto, auto& v) {
                if (j++ != i)
                    return;
                setLeaf(v, 99999);
                want = at.path();
            },
            b);
        EXPECT_EQ(firstDifference(a, b).path(), want);
        if constexpr (std::is_same_v<S, RunResult>) {
            const char* field = nullptr;
            EXPECT_FALSE(sameSimOutputs(a, b, &field));
            EXPECT_STREQ(field, want.c_str());
        }
    }
}

TEST(StatsFields, EqualityNamesEveryField)
{
    expectEveryLeafNamed<LatencyBreakdown>();
    expectEveryLeafNamed<HamsStats>();
    expectEveryLeafNamed<NvmeEngineStats>();
    expectEveryLeafNamed<FtlStats>();
    expectEveryLeafNamed<RunResult>();
}

// Aggregation consistency: the sharded platform's aggregate equals
// merging each shard's stats by hand — one merge, no double counting.
TEST(StatsMerge, AggregatedMatchesManualShardMerge)
{
    auto sp = shardedHams(2, HamsMode::Extend);
    runShardedSmp(*sp, "rndWr", 2, true, 100000);

    HamsStats agg{};
    EXPECT_EQ(sp->aggregatedHamsStats(agg), 2u);
    HamsStats manual{};
    for (std::uint32_t s = 0; s < 2; ++s)
        mergeFields(manual,
                    dynamic_cast<HamsSystem&>(sp->shard(s)).stats());
    expectIdentical(agg, manual, "aggregate vs manual merge");
    EXPECT_EQ(agg.accesses,
              dynamic_cast<HamsSystem&>(sp->shard(0)).stats().accesses +
                  dynamic_cast<HamsSystem&>(sp->shard(1)).stats().accesses);
}

} // namespace
} // namespace hams
