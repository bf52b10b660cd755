/**
 * @file
 * Sweep-runner tests: a failing cell's error names the exact
 * (platform × workload) cell at any thread count and never yields a
 * partial table, and sweep tables are bit-identical across
 * HAMS_BENCH_THREADS settings — the property that lets the figure
 * harnesses print deterministic tables from parallel runs. Also the
 * HAMS_BENCH_SCALE / HAMS_BENCH_THREADS parsers and bench::Report, the
 * harnesses' one table, JSON and gate writer.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "sim/logging.hh"

#include "same_run.hh"

namespace hams {
namespace {

using bench::BenchGeometry;
using bench::SmpCellResult;
using bench::SmpSweepCell;
using bench::SweepCell;

/** Tiny geometry so a sweep cell runs in milliseconds. */
BenchGeometry
tinyGeom()
{
    BenchGeometry g;
    g.datasetBytes = 16ull << 20;
    g.hostMemBytes = 16ull << 20;
    g.ssdRawBytes = 1ull << 30;
    g.instructionBudget = 20000;
    return g;
}

/** Scoped environment-variable override. */
class ScopedEnv
{
  public:
    ScopedEnv(const char* var, const char* value) : var(var)
    {
        if (const char* old = std::getenv(var))
            saved = old;
        setenv(var, value, 1);
    }

    ~ScopedEnv()
    {
        if (saved.empty())
            unsetenv(var);
        else
            setenv(var, saved.c_str(), 1);
    }

  private:
    const char* var;
    std::string saved;
};

std::string
sweepErrorMessage(const std::vector<SweepCell>& cells)
{
    try {
        bench::runSweep(cells);
    } catch (const std::runtime_error& e) {
        return e.what();
    }
    return {};
}

// ---------------------------------------------------------------------
// Error identity and the no-partial-table guarantee.
// ---------------------------------------------------------------------

TEST(RunSweepErrors, UnknownPlatformNamesTheCellSerial)
{
    ScopedEnv env("HAMS_BENCH_THREADS", "1");
    std::vector<SweepCell> cells = {
        {"oracle", "rndRd", tinyGeom()},
        {"no-such-platform", "rndWr", tinyGeom()},
    };
    std::string msg = sweepErrorMessage(cells);
    ASSERT_FALSE(msg.empty()) << "sweep with a bogus cell must throw";
    EXPECT_NE(msg.find("no-such-platform"), std::string::npos) << msg;
    EXPECT_NE(msg.find("rndWr"), std::string::npos) << msg;
}

TEST(RunSweepErrors, UnknownPlatformNamesTheCellParallel)
{
    ScopedEnv env("HAMS_BENCH_THREADS", "4");
    std::vector<SweepCell> cells = {
        {"oracle", "rndRd", tinyGeom()},
        {"no-such-platform", "rndWr", tinyGeom()},
        {"oracle", "seqRd", tinyGeom()},
        {"mmap", "rndRd", tinyGeom()},
    };
    std::string msg = sweepErrorMessage(cells);
    ASSERT_FALSE(msg.empty()) << "sweep with a bogus cell must throw";
    EXPECT_NE(msg.find("no-such-platform"), std::string::npos) << msg;
    EXPECT_NE(msg.find("rndWr"), std::string::npos) << msg;
}

TEST(RunSweepErrors, LowestIndexFailureWinsDeterministically)
{
    // Two failing cells: the reported one must be the lower index no
    // matter which worker trips first.
    ScopedEnv env("HAMS_BENCH_THREADS", "4");
    std::vector<SweepCell> cells = {
        {"oracle", "rndRd", tinyGeom()},
        {"bogus-a", "seqWr", tinyGeom()},
        {"bogus-b", "rndWr", tinyGeom()},
    };
    for (int i = 0; i < 3; ++i) {
        std::string msg = sweepErrorMessage(cells);
        ASSERT_FALSE(msg.empty());
        EXPECT_NE(msg.find("bogus-a"), std::string::npos) << msg;
        EXPECT_EQ(msg.find("bogus-b"), std::string::npos) << msg;
    }
}

// ---------------------------------------------------------------------
// Determinism across thread counts.
// ---------------------------------------------------------------------

TEST(RunSweepDeterminism, TableIdenticalAcrossThreadCounts)
{
    std::vector<SweepCell> cells = {
        {"oracle", "rndRd", tinyGeom()},
        {"mmap", "rndWr", tinyGeom()},
        {"nvdimm-C", "seqRd", tinyGeom()},
        {"optane-P", "rndRd", tinyGeom()},
    };

    std::vector<RunResult> serial, parallel;
    {
        ScopedEnv env("HAMS_BENCH_THREADS", "1");
        serial = bench::runSweep(cells);
    }
    {
        ScopedEnv env("HAMS_BENCH_THREADS", "4");
        parallel = bench::runSweep(cells);
    }
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        expectIdentical(serial[i], parallel[i],
                        (cells[i].platform + " x " + cells[i].workload)
                            .c_str());
}

TEST(RunSweepDeterminism, PaperGridRunEqualsRunSweep)
{
    // runPaperSweep reads each cell's hit rate and flushes it for the
    // energy after the run; none of that may reach the RunResult the
    // figures print.
    std::vector<SweepCell> cells = {
        {"hams-TE", "rndWr", tinyGeom()},
        {"mmap", "rndWr", tinyGeom()},
    };
    for (const char* threads : {"1", "4"}) {
        ScopedEnv env("HAMS_BENCH_THREADS", threads);
        std::vector<RunResult> sweep = bench::runSweep(cells);
        std::vector<bench::PaperCell> grid = bench::runPaperSweep(cells);
        ASSERT_EQ(grid.size(), cells.size());
        for (std::size_t i = 0; i < cells.size(); ++i) {
            std::string what = cells[i].platform + " x " +
                               cells[i].workload + ", threads " + threads;
            expectIdentical(grid[i].run, sweep[i], what.c_str());
            EXPECT_EQ(grid[i].energy.cpu, grid[i].run.cpuEnergyJ) << what;
            EXPECT_GT(grid[i].energy.total(), grid[i].energy.cpu) << what;
        }
        EXPECT_GT(grid[0].hitRatePct, 0) << "hams-TE reads a hit rate";
        EXPECT_EQ(grid[1].hitRatePct, 0) << "mmap has none";
    }
}

TEST(RunSweepDeterminism, SmpSweepIdenticalAcrossThreadCounts)
{
    std::vector<SmpSweepCell> cells = {
        {"hams-TE", "rndRd", 2, tinyGeom()},
        {"hams-TE", "rndRd", 4, tinyGeom()},
        {"mmap", "rndRd", 2, tinyGeom()},
    };

    std::vector<SmpCellResult> serial, parallel;
    {
        ScopedEnv env("HAMS_BENCH_THREADS", "1");
        serial = bench::runSmpSweep(cells);
    }
    {
        ScopedEnv env("HAMS_BENCH_THREADS", "3");
        parallel = bench::runSmpSweep(cells);
    }
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        ASSERT_EQ(serial[i].smp.cores(), parallel[i].smp.cores());
        for (std::uint32_t c = 0; c < serial[i].smp.cores(); ++c)
            expectIdentical(serial[i].smp.perCore[c],
                            parallel[i].smp.perCore[c], "per-core");
        expectIdentical(serial[i].smp.combined, parallel[i].smp.combined,
                        "combined");
        ASSERT_EQ(serial[i].hasHamsStats, parallel[i].hasHamsStats);
        if (serial[i].hasHamsStats) {
            EXPECT_EQ(serial[i].hams.waitQueued,
                      parallel[i].hams.waitQueued);
            EXPECT_EQ(serial[i].hams.waiterPeakDepth,
                      parallel[i].hams.waiterPeakDepth);
        }
    }
}

// ---------------------------------------------------------------------
// HAMS_BENCH_SCALE / HAMS_BENCH_THREADS parsing.
// ---------------------------------------------------------------------

/** The FatalError message @p run throws, or "" if it throws none. */
template <typename Run>
std::string
fatalMessage(Run run)
{
    try {
        run();
    } catch (const FatalError& e) {
        return e.what();
    }
    return {};
}

TEST(BenchEnv, ScaleAcceptsPositiveDecimal)
{
    {
        ScopedEnv env("HAMS_BENCH_SCALE", "3");
        EXPECT_EQ(bench::scale(), 3u);
        EXPECT_EQ(BenchGeometry::scaled().ssdRawBytes,
                  3 * BenchGeometry{}.ssdRawBytes);
    }
    unsetenv("HAMS_BENCH_SCALE");
    EXPECT_EQ(bench::scale(), 1u);
}

TEST(BenchEnv, ScaleRejectsMalformedAndOverflowingValues)
{
    for (const char* bad : {"-1", "abc", "2x", "0", "", " 2", "+2",
                            "99999999999999999999999"}) {
        ScopedEnv env("HAMS_BENCH_SCALE", bad);
        std::string msg = fatalMessage([] { bench::scale(); });
        EXPECT_NE(msg.find("HAMS_BENCH_SCALE"), std::string::npos)
            << "'" << bad << "' accepted";
    }
    // Parses, but 2^62 x the 1 GiB SSD would wrap the scaled geometry.
    ScopedEnv env("HAMS_BENCH_SCALE", "4611686018427387904");
    std::string msg = fatalMessage([] { BenchGeometry::scaled(); });
    EXPECT_NE(msg.find("HAMS_BENCH_SCALE"), std::string::npos);
    EXPECT_NE(msg.find("overflows"), std::string::npos) << msg;
}

TEST(BenchEnv, ThreadsRejectsMalformedValues)
{
    std::vector<SweepCell> cells = {{"oracle", "rndRd", tinyGeom()}};
    for (const char* bad : {"-1", "abc", "2x", "0"}) {
        ScopedEnv env("HAMS_BENCH_THREADS", bad);
        std::string msg = fatalMessage([&] { bench::runSweep(cells); });
        EXPECT_NE(msg.find("HAMS_BENCH_THREADS"), std::string::npos)
            << "'" << bad << "' accepted";
    }
}

// ---------------------------------------------------------------------
// bench::Report: one column declaration -> stdout table + JSON + gates.
// ---------------------------------------------------------------------

/**
 * Minimal JSON syntax check (objects, arrays, strings, numbers,
 * literals): @return whether @p text is exactly one JSON value.
 */
class JsonChecker
{
  public:
    static bool valid(const std::string& text)
    {
        JsonChecker c{text};
        return c.value() && (c.ws(), c.pos == text.size());
    }

  private:
    explicit JsonChecker(const std::string& t) : text(t) {}

    void ws()
    {
        while (pos < text.size() &&
               std::isspace(static_cast<unsigned char>(text[pos])))
            ++pos;
    }
    bool eat(char c)
    {
        ws();
        if (pos < text.size() && text[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }
    bool string()
    {
        if (!eat('"'))
            return false;
        while (pos < text.size() && text[pos] != '"')
            pos += text[pos] == '\\' ? 2 : 1;
        return pos++ < text.size();
    }
    template <typename Item>
    bool list(char open, char close, Item item)
    {
        if (!eat(open))
            return false;
        if (eat(close))
            return true;
        do {
            if (!item())
                return false;
        } while (eat(','));
        return eat(close);
    }
    bool value()
    {
        ws();
        if (pos >= text.size())
            return false;
        char c = text[pos];
        if (c == '{')
            return list('{', '}',
                        [&] { return string() && eat(':') && value(); });
        if (c == '[')
            return list('[', ']', [&] { return value(); });
        if (c == '"')
            return string();
        for (const char* lit : {"true", "false", "null"})
            if (text.compare(pos, std::strlen(lit), lit) == 0) {
                pos += std::strlen(lit);
                return true;
            }
        std::size_t start = pos;
        if (text[pos] == '-')
            ++pos;
        while (pos < text.size() &&
               (std::isdigit(static_cast<unsigned char>(text[pos])) ||
                std::strchr(".eE+-", text[pos])))
            ++pos;
        return pos > start;
    }

    const std::string& text;
    std::size_t pos = 0;
};

std::string
readFile(const std::string& path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** A report over three columns declared in non-alphabetical order. */
struct ReportFixture : ::testing::Test
{
    std::string path = ::testing::TempDir() + "bench_report_test.json";
    ScopedEnv env{"HAMS_BENCH_JSON", path.c_str()};

    static std::vector<bench::Report::Column> columns()
    {
        return {{"name", "%s", "name", "%-6s"},
                {"zeta", "%.2f", "z", "%6.1f"},
                {"alpha", "%llu"},
                {nullptr, nullptr, "tbl", "%4llu"},
                {"ok", "%s", "ok?", "%4s"}};
    }

    /** Run a report with @p n rows; returns its stdout. */
    std::string run(std::size_t n, int& rc)
    {
        ::testing::internal::CaptureStdout();
        bench::Report rep("test", columns());
        rep.meta("note", "a \"quoted\" note");
        rep.meta("flag", true);
        for (std::size_t i = 0; i < n; ++i)
            rep.row({"r" + std::to_string(i), 1.5 * i, std::uint64_t{i},
                     std::uint64_t{7}, i % 2 == 0});
        rc = rep.finish();
        return ::testing::internal::GetCapturedStdout();
    }
};

TEST_F(ReportFixture, JsonParsesWithZeroOneAndManyRows)
{
    for (std::size_t n : {0u, 1u, 5u}) {
        int rc = -1;
        run(n, rc);
        EXPECT_EQ(rc, 0);
        std::string json = readFile(path);
        EXPECT_TRUE(JsonChecker::valid(json)) << n << " rows:\n" << json;
        std::size_t names = 0;
        for (std::size_t at = 0;
             (at = json.find("\"name\"", at)) != std::string::npos; ++at)
            ++names;
        EXPECT_EQ(names, n);
    }
    EXPECT_FALSE(JsonChecker::valid("{\"a\": 1,}")); // the checker bites
}

TEST_F(ReportFixture, KeysFollowDeclarationOrder)
{
    int rc = -1;
    std::string out = run(2, rc);
    EXPECT_EQ(readFile(path),
              "{\n"
              "  \"note\": \"a \\\"quoted\\\" note\",\n"
              "  \"flag\": true,\n"
              "  \"benchmarks\": [\n"
              "    {\"name\": \"r0\", \"zeta\": 0.00, \"alpha\": 0, "
              "\"ok\": true},\n"
              "    {\"name\": \"r1\", \"zeta\": 1.50, \"alpha\": 1, "
              "\"ok\": false}\n"
              "  ]\n"
              "}\n");
    // The table shows only the columns with a header, each header as
    // wide as its cells.
    EXPECT_NE(out.find("\nname        z  tbl  ok?\n"
                       "r0        0.0    7  yes\n"
                       "r1        1.5    7   NO\n"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("Results written to " + path), std::string::npos);
}

TEST_F(ReportFixture, FailingGateMakesFinishNonZero)
{
    ::testing::internal::CaptureStdout();
    bench::Report rep("test", columns());
    rep.gate(true, "holds");
    rep.gate(false, "cell x diverged");
    int rc = rep.finish();
    std::string out = ::testing::internal::GetCapturedStdout();
    EXPECT_NE(rc, 0);
    EXPECT_NE(out.find("FAIL: cell x diverged"), std::string::npos) << out;
    EXPECT_EQ(out.find("FAIL: holds"), std::string::npos) << out;
}

TEST_F(ReportFixture, UnwritableJsonPathFails)
{
    std::string bad = ::testing::TempDir() + "no_such_dir/BENCH_test.json";
    ScopedEnv unwritable("HAMS_BENCH_JSON", bad.c_str());
    ::testing::internal::CaptureStdout();
    bench::Report rep("test", columns());
    rep.row({"r0", 1.0, std::uint64_t{1}, std::uint64_t{1}, true});
    int rc = rep.finish();
    std::string out = ::testing::internal::GetCapturedStdout();
    EXPECT_NE(rc, 0);
    EXPECT_NE(out.find(bad), std::string::npos) << out;
}

TEST_F(ReportFixture, MisdeclaredRowsThrow)
{
    ::testing::internal::CaptureStdout();
    bench::Report rep("test", columns());
    // Too few values for the declared columns.
    EXPECT_THROW(rep.row({"r0", 1.0}), std::logic_error);
    // An integer where the declaration says %f.
    EXPECT_THROW(rep.row({"r0", std::uint64_t{1}, std::uint64_t{1},
                          std::uint64_t{1}, true}),
                 std::logic_error);
    ::testing::internal::GetCapturedStdout();
    EXPECT_THROW(bench::Report("test", {{"k", "%d", "k", "%5d"}}),
                 std::logic_error);
}

} // namespace
} // namespace hams
