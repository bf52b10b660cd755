/**
 * @file
 * Tests of the benchmark itself: the wrappers are transparent, the
 * percentile rule keeps only percentiles with enough samples beyond
 * them, and a seed reproduces exactly while another seed changes the
 * stream.
 */

#include <gtest/gtest.h>

#include <vector>

#include "metrics.hh"
#include "report.hh"
#include "tracer.hh"
#include "workloads.hh"

namespace {

using namespace perfbench;
using hams::Tick;

/** Everything simulated that a bare and a wrapped run must share. */
void
expectSameSimulation(const Snapshot& a, const Snapshot& b)
{
    EXPECT_EQ(a.simElapsed, b.simElapsed);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.simOps, b.simOps);
    EXPECT_EQ(a.loopLatencySum, b.loopLatencySum);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.platformAccesses, b.platformAccesses);
    EXPECT_EQ(a.l1Hits, b.l1Hits);
    EXPECT_EQ(a.l2Hits, b.l2Hits);
    EXPECT_EQ(a.stallTime, b.stallTime);
    EXPECT_EQ(a.memEnergyJ, b.memEnergyJ);
    EXPECT_EQ(a.hams.accesses, b.hams.accesses);
    EXPECT_EQ(a.hams.hits, b.hams.hits);
    EXPECT_EQ(a.hams.dirtyEvictions, b.hams.dirtyEvictions);
    EXPECT_EQ(a.nvme.submitted, b.nvme.submitted);
    EXPECT_EQ(a.ftl.hostWrites, b.ftl.hostWrites);
    EXPECT_EQ(a.ftl.gcRelocations, b.ftl.gcRelocations);
    EXPECT_EQ(a.flash.programs, b.flash.programs);
    EXPECT_EQ(a.flash.suspensions, b.flash.suspensions);
    EXPECT_EQ(a.mmapFaults, b.mmapFaults);
    EXPECT_EQ(a.mmapWritebacks, b.mmapWritebacks);
}

class PerWorkload : public ::testing::TestWithParam<std::string>
{
};

TEST_P(PerWorkload, WrappersAreTransparent)
{
    WorkloadRun bare(GetParam(), 7, nullptr, /*observe=*/false);
    Tracer tracer(1 << 10, 64);
    WorkloadRun wrapped(GetParam(), 7, &tracer);
    for (int i = 0; i < 2; ++i) {
        bare.runChunk();
        wrapped.runChunk();
    }
    expectSameSimulation(bare.snapshot(), wrapped.snapshot());
    EXPECT_GT(tracer.aggregate(Span::PlatformIssue).calls, 0u);
    EXPECT_TRUE(wrapped.finish().empty());
    EXPECT_TRUE(bare.finish().empty());
}

TEST_P(PerWorkload, SeedReproducesExactly)
{
    auto window = [&](std::uint64_t seed) {
        WorkloadRun run(GetParam(), seed);
        Window w;
        w.before = run.snapshot();
        run.observed().startWindow();
        run.runChunk();
        w.after = run.snapshot();
        w.latencies = run.observed().latencies();
        std::vector<Metric> v;
        layerCounts(w, v);
        workloadLayerCounts(run, w, v);
        v.push_back({"latency_samples", "count",
                     static_cast<double>(w.latencies.size())});
        return std::make_pair(v, w.latencies);
    };
    auto a = window(11);
    auto b = window(11);
    ASSERT_EQ(a.first.size(), b.first.size());
    for (std::size_t i = 0; i < a.first.size(); ++i)
        EXPECT_EQ(a.first[i].value, b.first[i].value) << a.first[i].name;
    EXPECT_EQ(a.second, b.second);
}

TEST_P(PerWorkload, OtherSeedChangesTheStream)
{
    auto firstAccesses = [&](std::uint64_t seed) {
        auto gen = makeStream(GetParam(), seed);
        std::vector<hams::Addr> addrs;
        hams::WorkloadOp op;
        while (addrs.size() < 256 && gen->next(op))
            if (op.hasAccess)
                addrs.push_back(op.access.addr);
        return addrs;
    };
    EXPECT_EQ(firstAccesses(3), firstAccesses(3));
    EXPECT_NE(firstAccesses(3), firstAccesses(4));
}

INSTANTIATE_TEST_SUITE_P(Workloads, PerWorkload,
                         ::testing::ValuesIn(workloadNames()));

TEST(PerfbenchWrappers, InlinePathStillTaken)
{
    WorkloadRun run("te_hit_read", 5);
    run.runChunk();
    const PlatformCounters& c = run.observed().counters();
    EXPECT_GT(c.inlineDone, c.eventIssued);
}

TEST(PercentileRule, NeedsTenSamplesBeyond)
{
    std::vector<int> v(1000);
    for (int i = 0; i < 1000; ++i)
        v[static_cast<std::size_t>(i)] = i;
    int out = -1;
    ASSERT_TRUE(percentile(v, 0.5, out));
    EXPECT_EQ(out, 499);
    ASSERT_TRUE(percentile(v, 0.99, out));
    EXPECT_EQ(out, 989); // 10 samples beyond rank 990
    EXPECT_FALSE(percentile(v, 0.999, out)); // only 1 beyond

    std::vector<int> w(9999, 1);
    EXPECT_FALSE(percentile(w, 0.999, out)); // rank 9990: 9 beyond
    w.push_back(1);
    EXPECT_TRUE(percentile(w, 0.999, out)); // rank 9990: 10 beyond
}

TEST(PercentileRule, EmptyHasNone)
{
    std::vector<Tick> v;
    Tick out = 0;
    EXPECT_FALSE(percentile(v, 0.5, out));
    EXPECT_EQ(median({}), 0.0);
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(Tracer, SelfTimeExcludesChildren)
{
    Tracer t(16, 1);
    t.begin(Span::Driver);
    t.begin(Span::WorkloadNext);
    t.end();
    t.end();
    const SpanAggregate& root = t.aggregate(Span::Driver);
    const SpanAggregate& child = t.aggregate(Span::WorkloadNext);
    EXPECT_EQ(root.calls, 1u);
    // The tracer's cost is taken out: the clock read inside each span
    // from its own self time, the rest of the child's pair from the
    // root's.
    EXPECT_GE(t.innerCostNs(), 0);
    EXPECT_GE(t.outerCostNs(), 0);
    EXPECT_EQ(child.selfNs, child.totalNs - t.innerCostNs());
    EXPECT_EQ(root.selfNs, root.totalNs - child.totalNs - t.outerCostNs() -
                               t.innerCostNs());
    ASSERT_EQ(t.records().size(), 2u);
    EXPECT_EQ(t.records()[0].parent, t.records()[1].id);
}

} // namespace
