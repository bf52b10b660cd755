/**
 * @file
 * The paper's evaluation grid: all eleven platforms over the twelve
 * Table III workloads, run once (runPaperSweep), and every figure that
 * reads it.
 *
 *  Fig. 7(a)  mmap execution breakdown and degradation vs NVDIMM
 *             (Fig. 7(b) needs custom FlatFlash configurations and
 *             stays in fig07_sw_overhead)
 *  Fig. 10(a) DMA share of baseline HAMS (hams-LE) memory stalls
 *  Fig. 16    application performance: micro + Rodinia in K pages/s,
 *             SQLite in ops/s
 *  Fig. 17    execution time breakdown (os/ssd/app), normalized to mmap;
 *             HAMS's storage-access time is part of app (it surfaces
 *             as load/store latency), so its bars have no OS/SSD part
 *  Fig. 18    memory delay breakdown (nvdimm/dma/ssd per access),
 *             normalized to hams-LP, and the hams-TE NVDIMM hit rate
 *  Fig. 19    system energy after a durability flush, normalized to mmap
 *
 * Every "measured vs paper" claim is one row of BENCH_paper.json
 * (HAMS_BENCH_JSON overrides): its figure, paper and measured values,
 * relative gap, and — for a comparison, a ratio against 1 or a signed
 * change against 0 — whether the measurement lies on the paper's side.
 * The binary exits non-zero if a comparison that holds today stops
 * holding: hams-TE beats mmap on micro+graph and on SQLite, flatflash-M
 * beats flatflash-P, hams-TE trails the oracle, hams-T stalls less than
 * hams-L, and persist mode delays more than extend. The cells are
 * independent, so tables are byte-identical at any HAMS_BENCH_THREADS.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bench_util.hh"

namespace {

using namespace hams;
using namespace hams::bench;

/**
 * Print one figure table: a row per @p rows label and a column per
 * @p cols label, cell(r, c) right-aligned to @p width.
 */
void
printTable(const std::string& title, const std::vector<std::string>& rows,
           const std::vector<std::string>& cols, int width,
           const std::function<std::string(std::size_t, std::size_t)>& cell)
{
    std::printf("\n%s\n%-12s", title.c_str(), "");
    for (const auto& c : cols)
        std::printf(" %*s", width, c.c_str());
    std::printf("\n");
    for (std::size_t r = 0; r < rows.size(); ++r) {
        std::printf("%-12s", rows[r].c_str());
        for (std::size_t c = 0; c < cols.size(); ++c)
            std::printf(" %*s", width, cell(r, c).c_str());
        std::printf("\n");
    }
}

std::vector<std::string>
concat(const std::vector<std::string>& a, const std::vector<std::string>& b)
{
    std::vector<std::string> out = a;
    out.insert(out.end(), b.begin(), b.end());
    return out;
}

/** Per-access memory delay of one run (Fig. 18): slower platforms
 *  complete fewer accesses in the fixed budget. */
struct Delay
{
    double nvd, dma, ssd, total;

    explicit Delay(const RunResult& r)
    {
        double per = r.platformAccesses
                         ? 1.0 / static_cast<double>(r.platformAccesses)
                         : 0.0;
        nvd = static_cast<double>(r.stallBreakdown.nvdimm) * per;
        dma = static_cast<double>(r.stallBreakdown.dma) * per;
        ssd = static_cast<double>(r.stallBreakdown.ssd) * per;
        total = nvd + dma + ssd;
    }
};

/**
 * A claim's kind fixes its unit, its printed precision and what the
 * paper's side is: a ratio against 1, a signed percent change against
 * 0, or a percent level that compares with nothing.
 */
enum class Kind { Ratio, Change, Level };

struct Claim
{
    std::string id;
    const char* figure;
    Kind kind;
    double paper;
    double measured;
    bool gated = false; //!< a gate holds the measurement on paper's side
    const char* note = "";
};

std::string
show(Kind kind, double v, bool paper)
{
    switch (kind) {
      case Kind::Ratio:
        return strf("%.2fx", v);
      case Kind::Change:
        return paper ? strf("%+.0f%%", v) : strf("%+.1f%%", v);
      case Kind::Level:
        return paper ? strf("%.0f%%", v) : strf("%.1f%%", v);
    }
    return {};
}

/** "yes"/"no" for a comparison, "-" for a level. */
const char*
paperSide(const Claim& c)
{
    if (c.kind == Kind::Level)
        return "-";
    double pivot = c.kind == Kind::Ratio ? 1.0 : 0.0;
    return (c.paper > pivot) == (c.measured > pivot) ? "yes" : "no";
}

const char* const energyWindow =
    "cpu covers the measured run only; memory energy covers warmup, run "
    "and flush";

} // namespace

int
main()
{
    banner("paper", "Figs. 7a, 10a, 16-19 from one 11 platforms x 12 "
                    "workloads grid");
    BenchGeometry geom = BenchGeometry::scaled();

    const std::vector<std::string>& platforms = allPlatformNames();
    const std::vector<std::string>& workloads = allWorkloadNames();
    std::vector<SweepCell> cells;
    for (const auto& p : platforms)
        for (const auto& w : workloads)
            cells.push_back({p, w, geom});
    std::vector<PaperCell> results = runPaperSweep(cells);
    std::map<std::string, std::map<std::string, const PaperCell*>> grid;
    for (std::size_t i = 0; i < cells.size(); ++i)
        grid[cells[i].platform][cells[i].workload] = &results[i];
    auto run = [&](const std::string& p,
                   const std::string& w) -> const RunResult& {
        return grid[p][w]->run;
    };

    const std::vector<std::string> micro_sqlite =
        concat(microWorkloadNames(), sqliteWorkloadNames());
    const std::vector<std::string> fig16_a =
        concat(microWorkloadNames(), rodiniaWorkloadNames());
    const std::vector<std::string>& fig16_b = sqliteWorkloadNames();
    const std::vector<std::string> mmap_hams = {"mmap", "hams-LP", "hams-LE",
                                                "hams-TP", "hams-TE"};
    const std::vector<std::string> hams(mmap_hams.begin() + 1,
                                        mmap_hams.end());
    std::vector<Claim> claims;

    // ---- Fig. 7(a): mmap breakdown (fractions), degradation vs oracle
    printTable("Fig. 7(a) mmap execution breakdown (fractions) and "
               "degradation vs NVDIMM",
               micro_sqlite, {"os", "ssd", "dma", "cpu", "perf-deg%"}, 9,
               [&](std::size_t r, std::size_t c) {
                   const RunResult& m = run("mmap", micro_sqlite[r]);
                   const RunResult& o = run("oracle", micro_sqlite[r]);
                   double total = static_cast<double>(m.simTime);
                   double os = (m.stallBreakdown.os +
                                static_cast<double>(m.flushTime)) /
                               total;
                   double ssd = m.stallBreakdown.ssd / total;
                   double dma = m.stallBreakdown.dma / total;
                   double v[] = {os, ssd, dma, 1.0 - os - ssd - dma,
                                 100.0 * (1.0 - m.opsPerSec / o.opsPerSec)};
                   return c < 4 ? strf("%.2f", v[c]) : strf("%.1f%%", v[c]);
               });
    std::printf("paper: mmap+I/O stack ~69%% of execution, SSD ~13%%; "
                "selects are ~83%% CPU\n");

    // ---- Fig. 10(a): DMA share of hams-LE stalls
    double share_sum = 0, share_max = 0;
    printTable("Fig. 10(a) DMA/interface share of AMAT in baseline HAMS "
               "(hams-LE)",
               micro_sqlite, {"stall-total(ms)", "dma(ms)", "dma-share"}, 15,
               [&](std::size_t r, std::size_t c) {
                   const RunResult& h = run("hams-LE", micro_sqlite[r]);
                   double total =
                       ticksToSeconds(h.stallBreakdown.os +
                                      h.stallBreakdown.nvdimm +
                                      h.stallBreakdown.dma +
                                      h.stallBreakdown.ssd) *
                       1e3;
                   double dma = ticksToSeconds(h.stallBreakdown.dma) * 1e3;
                   double share = total > 0 ? dma / total : 0;
                   if (c == 2) {
                       share_sum += share;
                       share_max = std::max(share_max, share);
                   }
                   return c < 2 ? strf("%.3f", c ? dma : total)
                                : strf("%.1f%%", 100.0 * share);
               });
    claims.push_back({"dma-share:hams-LE-avg", "10a", Kind::Level, 39,
                      100.0 * share_sum / micro_sqlite.size()});
    claims.push_back({"dma-share:hams-LE-max", "10a", Kind::Level, 47,
                      100.0 * share_max});

    // ---- Fig. 16: application performance
    std::map<std::string, double> avg_a, avg_b;
    for (const auto& p : platforms) {
        double sum = 0;
        for (const auto& w : fig16_a)
            sum += run(p, w).pagesPerSec / 1e3;
        avg_a[p] = sum / fig16_a.size();
        sum = 0;
        for (const auto& w : fig16_b)
            sum += run(p, w).opsPerSec;
        avg_b[p] = sum / fig16_b.size();
    }
    printTable("Fig. 16(a) micro + Rodinia performance (K pages/s)",
               platforms, concat(fig16_a, {"avg"}), 8,
               [&](std::size_t r, std::size_t c) {
                   const std::string& p = platforms[r];
                   return strf("%.1f", c < fig16_a.size()
                                           ? run(p, fig16_a[c]).pagesPerSec /
                                                 1e3
                                           : avg_a[p]);
               });
    printTable("Fig. 16(b) SQLite performance (ops/s)", platforms,
               concat(fig16_b, {"avg"}), 9,
               [&](std::size_t r, std::size_t c) {
                   const std::string& p = platforms[r];
                   return strf("%.0f", c < fig16_b.size()
                                           ? run(p, fig16_b[c]).opsPerSec
                                           : avg_b[p]);
               });
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    auto both = [&](const std::string& p) { return avg_a[p] + avg_b[p]; };
    claims.push_back({"perf:hams-TE/mmap:micro+graph", "16", Kind::Ratio,
                      2.54, ratio(avg_a["hams-TE"], avg_a["mmap"]), true});
    claims.push_back({"perf:hams-TE/mmap:sqlite", "16", Kind::Ratio, 1.37,
                      ratio(avg_b["hams-TE"], avg_b["mmap"]), true});
    claims.push_back({"perf:flatflash-M/flatflash-P", "16", Kind::Ratio,
                      2.36, ratio(both("flatflash-M"), both("flatflash-P")),
                      true});
    claims.push_back({"perf:hams-LE/flatflash-M", "16", Kind::Ratio, 1.26,
                      ratio(both("hams-LE"), both("flatflash-M"))});
    claims.push_back({"perf:optane-M/optane-P", "16", Kind::Ratio, 2.42,
                      ratio(both("optane-M"), both("optane-P"))});
    claims.push_back({"perf:hams-TE/oracle", "16", Kind::Ratio, 0.86,
                      ratio(both("hams-TE"), both("oracle")), true});

    // ---- Fig. 17: execution time breakdown, normalized to mmap
    printTable("Fig. 17 execution time breakdown (os/ssd/app), normalized "
               "to mmap",
               workloads, mmap_hams, 17, [&](std::size_t r, std::size_t c) {
                   const RunResult& x = run(mmap_hams[c], workloads[r]);
                   double total = static_cast<double>(x.simTime);
                   double os = 0, ssd = 0, app = total;
                   if (c == 0) {
                       os = static_cast<double>(x.stallBreakdown.os) +
                            static_cast<double>(x.flushTime);
                       ssd = static_cast<double>(x.stallBreakdown.ssd +
                                                 x.stallBreakdown.dma);
                       app = total - os - ssd;
                   }
                   double mmap_total =
                       static_cast<double>(run("mmap", workloads[r]).simTime);
                   double norm = mmap_total > 0 ? mmap_total : total;
                   return strf("%5.2f/%5.2f/%5.2f", os / norm, ssd / norm,
                               app / norm);
               });
    std::printf("paper shape: mmap dominated by OS+SSD stalls that cannot be "
                "hidden; every HAMS\nvariant's bar is pure app time, and "
                "hams-TE's app time is as short as mmap's\n");

    // ---- Fig. 18: memory delay breakdown, normalized to hams-LP
    std::map<std::string, double> delay_sum;
    double lp_nvdimm_sum = 0, lp_dma_sum = 0, hit_sum = 0;
    printTable("Fig. 18 memory delay breakdown (nvd/dma/ssd), normalized to "
               "hams-LP",
               workloads, concat(hams, {"hit-rate"}), 17,
               [&](std::size_t r, std::size_t c) {
                   const std::string& w = workloads[r];
                   if (c == hams.size()) {
                       double hit = grid["hams-TE"][w]->hitRatePct;
                       hit_sum += hit;
                       return strf("%.1f%%", hit);
                   }
                   Delay d(run(hams[c], w));
                   delay_sum[hams[c]] += d.total;
                   if (c == 0) {
                       lp_nvdimm_sum += d.nvd;
                       lp_dma_sum += d.dma;
                   }
                   double lp_total = Delay(run("hams-LP", w)).total;
                   double norm = lp_total > 0 ? lp_total : 1;
                   return strf("%5.2f/%5.2f/%5.2f", d.nvd / norm,
                               d.dma / norm, d.ssd / norm);
               });
    double lp = delay_sum["hams-LP"], le = delay_sum["hams-LE"];
    double tp = delay_sum["hams-TP"], te = delay_sum["hams-TE"];
    claims.push_back({"nvdimm-share:hams-LP-delay", "18", Kind::Level, 79,
                      100.0 * lp_nvdimm_sum / lp});
    claims.push_back({"dma-share:hams-LP-delay", "18", Kind::Level, 18,
                      100.0 * lp_dma_sum / lp});
    claims.push_back({"stalls:hams-T-vs-hams-L", "18", Kind::Change, -16,
                      100.0 * ((tp + te) / (lp + le) - 1.0), true});
    claims.push_back({"delay:persist-vs-extend", "18", Kind::Change, 34,
                      100.0 * ((lp + tp) / (le + te) - 1.0), true});
    claims.push_back({"hit-rate:hams-TE", "18", Kind::Level, 94,
                      hit_sum / workloads.size()});

    // ---- Fig. 19: system energy, normalized to mmap
    std::map<std::string, double> energy_sum, nvdimm_sum;
    printTable("Fig. 19 total system energy, normalized to mmap",
               workloads, mmap_hams, 8, [&](std::size_t r, std::size_t c) {
                   const std::string& w = workloads[r];
                   const EnergyBreakdownJ& e = grid[mmap_hams[c]][w]->energy;
                   double mmap_total = grid["mmap"][w]->energy.total();
                   double norm = mmap_total > 0 ? mmap_total : 1;
                   energy_sum[mmap_hams[c]] += e.total() / norm;
                   nvdimm_sum[mmap_hams[c]] += e.nvdimm;
                   return strf("%.2f", e.total() / norm);
               });
    double n = static_cast<double>(workloads.size());
    const double energy_paper[] = {-31, -41, -34, -45};
    for (std::size_t i = 0; i < hams.size(); ++i)
        claims.push_back({"energy:" + hams[i] + "-vs-mmap", "19",
                          Kind::Change, energy_paper[i],
                          100.0 * (energy_sum[hams[i]] / n - 1.0), false,
                          energyWindow});
    claims.push_back({"nvdimm-energy:hams-T-vs-hams-L", "19", Kind::Change, 8,
                      100.0 * ((nvdimm_sum["hams-TP"] + nvdimm_sum["hams-TE"]) /
                                   (nvdimm_sum["hams-LP"] +
                                    nvdimm_sum["hams-LE"]) -
                               1.0),
                      false, energyWindow});

    // ---- the claims ledger
    std::printf("\nmeasured vs paper:");
    Report rep("paper", {{"claim", "%s", "claim", "%-31s"},
                         {"figure", "%s", "fig", "%-4s"},
                         {"unit", "%s"},
                         {"paper", "%.4f"},
                         {nullptr, nullptr, "paper", "%7s"},
                         {"measured", "%.4f"},
                         {nullptr, nullptr, "measured", "%8s"},
                         {"rel_gap", "%.4f", "gap", "%+6.2f"},
                         {"on_paper_side", "%s", "side", "%4s"},
                         {"note", "%s", "note", "%s"}});
    for (const Claim& c : claims) {
        double gap = (c.measured - c.paper) / std::abs(c.paper);
        rep.row({c.id, c.figure, c.kind == Kind::Ratio ? "x" : "%", c.paper,
                 show(c.kind, c.paper, true), c.measured,
                 show(c.kind, c.measured, false), gap, paperSide(c), c.note});
        if (c.gated)
            rep.gate(std::string(paperSide(c)) == "yes",
                     c.id + ": measured " + show(c.kind, c.measured, false) +
                         " is not on the paper's side of " +
                         (c.kind == Kind::Ratio ? "1" : "0"));
    }
    return rep.finish();
}
