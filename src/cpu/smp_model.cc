#include "cpu/smp_model.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace hams {

void
finalizeRunResult(RunResult& res, double freq_ghz,
                  const CpuPowerModel& cpu_power)
{
    if (res.simTime == 0)
        res.simTime = 1;

    double secs = ticksToSeconds(res.simTime);
    double cycles_total =
        static_cast<double>(res.simTime) * freq_ghz / 1000.0;
    res.ipc = static_cast<double>(res.instructions) / cycles_total;
    res.opsPerSec = static_cast<double>(res.opsCompleted) / secs;
    res.pagesPerSec = static_cast<double>(res.pagesTouched) / secs;
    res.bytesPerSec =
        static_cast<double>(res.memInstructions) * 64.0 / secs;
    res.cpuEnergyJ = cpu_power.energyJ(res.activeTime, res.stallTime, 1);
}

void
mergeRunResult(RunResult& into, const RunResult& from)
{
    mergeFields(into, from);
}

/**
 * Everything one core carries through a run. Contexts are not moved
 * while the conductor runs, so completion callbacks may capture
 * {this, &ctx} (16 bytes, inside the inline budget).
 */
struct SmpModel::CoreCtx
{
    CoreCtx(const CoreConfig& cc, WorkloadGenerator& g,
            std::uint64_t budget)
        : l1(cc.l1), l2(cc.l2), gen(&g), budget(budget)
    {
    }

    CacheModel l1;
    CacheModel l2;
    WorkloadGenerator* gen;
    std::uint64_t budget;

    RunResult res;
    Tick now = 0;
    Tick issueAt = 0; //!< issue tick of the in-flight access/flush

    /** What the core needs from the platform next. */
    enum class Pending : std::uint8_t { None, Wb, Access, Flush };
    Pending pending = Pending::None;
    bool blocked = false;  //!< waiting on a completion event
    bool finished = false;

    /** Current op, parked while its platform interaction is pending. */
    WorkloadOp op;
    bool r2Hit = false; //!< saved L2 lookup behind a pending Wb
    MemAccess wb;
};

SmpModel::SmpModel(MemoryPlatform& platform, const CoreConfig& cfg)
    : platform(platform), eq(platform.conductor()), cfg(cfg)
{
    if (!(cfg.freqGhz > 0) || !std::isfinite(cfg.freqGhz))
        fatal("CoreConfig::freqGhz must be finite and > 0, got ",
              cfg.freqGhz);
    if (!(cfg.baseCpi >= 0) || !std::isfinite(cfg.baseCpi))
        fatal("CoreConfig::baseCpi must be finite and >= 0, got ",
              cfg.baseCpi);
}

void
SmpModel::drive(CoreCtx& c, Tick horizon, bool lone)
{
    using Pending = CoreCtx::Pending;
    for (bool picked = true;; picked = false) {
        // Issue the interaction the core stopped at: the pick granted
        // the first; later ones only while the pick would choose this
        // core anyway (horizon rule).
        if (c.pending != Pending::None) {
            if (!picked &&
                (c.now >= horizon || (!lone && eq.nextTick() < c.now)))
                return;
            Pending what = c.pending;
            c.pending = Pending::None;
            if (what == Pending::Access) {
                ++c.res.platformAccesses;
                c.issueAt = c.now;
                InlineCompletion ic;
                if (!(cfg.inlineFastPath && eq.empty() &&
                      platform.tryAccess(c.op.access, c.issueAt, ic))) {
                    c.blocked = true;
                    platform.access(
                        c.op.access, c.issueAt,
                        [this, &c](Tick done, const LatencyBreakdown& bd) {
                            onDone(c, done, &bd);
                        });
                    return;
                }
                if (lone)
                    eq.advanceTo(ic.done);
                c.res.stallTime += ic.done - c.issueAt;
                c.res.stallBreakdown += ic.bd;
                c.now = ic.done;
            } else if (what == Pending::Wb) {
                // Background drain of a dirty L2 victim: occupies
                // platform resources but never stalls the core. With the
                // queue empty the inline path applies the same side
                // effects without parking a dead completion event.
                InlineCompletion ic;
                if (!(cfg.inlineFastPath && eq.empty() &&
                      platform.tryAccess(c.wb, c.now, ic)))
                    platform.access(c.wb, c.now, nullptr);
                ++c.res.platformAccesses;
                // Finish the instruction the writeback interrupted.
                if (!c.r2Hit) {
                    c.pending = Pending::Access;
                    continue;
                }
                ++c.res.l2Hits;
                c.now += cfg.l2.hitLatency;
                c.res.activeTime += cfg.l2.hitLatency;
            } else {
                c.issueAt = c.now;
                c.blocked = true;
                platform.flush(c.issueAt,
                               [this, &c](Tick done, const LatencyBreakdown&) {
                                   onDone(c, done, nullptr);
                               });
                return;
            }
        }

        // Retire the next op, up to its first platform interaction.
        if (c.res.instructions >= c.budget || !c.gen->next(c.op)) {
            c.finished = true;
            return;
        }

        if (c.op.computeInstructions > 0) {
            c.res.instructions += c.op.computeInstructions;
            Tick t = cycles(c.op.computeInstructions * cfg.baseCpi);
            c.now += t;
            c.res.activeTime += t;
        }
        if (c.op.opBoundary)
            ++c.res.opsCompleted;
        if (c.op.newPage)
            ++c.res.pagesTouched;

        if (c.op.flushBarrier) {
            c.pending = Pending::Flush;
            continue;
        }
        if (!c.op.hasAccess)
            continue;

        ++c.res.instructions;
        ++c.res.memInstructions;
        bool is_write = c.op.access.op == MemOp::Write;

        CacheResult r1 = c.l1.access(c.op.access.addr, is_write);
        if (r1.hit) {
            ++c.res.l1Hits;
            c.now += cfg.l1.hitLatency;
            c.res.activeTime += cfg.l1.hitLatency;
            continue;
        }

        // L1 miss: the L1 victim (if dirty) writes into L2.
        if (r1.evictedDirty)
            c.l2.access(r1.evictedLine, /*is_write=*/true);

        CacheResult r2 = c.l2.access(c.op.access.addr, is_write);
        if (r2.evictedDirty) {
            // The dirty L2 victim's writeback goes to the platform
            // first; the saved L2 lookup then ends the instruction.
            c.wb = MemAccess{r2.evictedLine % platform.capacity(), 64,
                             MemOp::Write};
            c.r2Hit = r2.hit;
            c.pending = Pending::Wb;
            continue;
        }
        if (r2.hit) {
            ++c.res.l2Hits;
            c.now += cfg.l2.hitLatency;
            c.res.activeTime += cfg.l2.hitLatency;
            continue;
        }

        // L2 miss: the core stalls until the platform answers.
        c.pending = Pending::Access;
    }
}

void
SmpModel::onDone(CoreCtx& c, Tick done, const LatencyBreakdown* bd)
{
    // Flush time is charged to flushTime/stallTime but not to the
    // per-category stall breakdown.
    c.blocked = false;
    c.res.stallTime += done - c.issueAt;
    if (bd)
        c.res.stallBreakdown += *bd;
    else
        c.res.flushTime += done - c.issueAt;
    c.now = done;
    drive(c, /*horizon=*/0, false); // retire up to the next interaction
}

void
SmpModel::conduct(CoreCtx* cores, std::size_t n)
{
    CoreCtx* end = cores + n;
    bool lone = n == 1;
    Tick start = eq.now();
    for (CoreCtx* c = cores; c != end; ++c) {
        c->now = start;
        c->res.workload = c->gen->spec().name;
        c->res.platform = platform.name();
        drive(*c, /*horizon=*/0, false); // retire up to the first interaction
    }

    // The pick: serve the ready core with the lowest (issue tick,
    // index), but with several cores first let every event strictly
    // earlier than that tick fire — a landing completion may unblock
    // a core that belongs in front. The runner-up bounds how far the
    // chosen core may run on (horizon rule, smp_model.hh).
    for (;;) {
        CoreCtx* best = nullptr;
        CoreCtx* next = nullptr;
        bool alive = false;
        for (CoreCtx* c = cores; c != end; ++c) {
            if (c->finished)
                continue;
            alive = true;
            if (c->blocked)
                continue;
            if (!best || c->now < best->now) {
                next = best;
                best = c;
            } else if (!next || c->now < next->now) {
                next = c;
            }
        }
        if (!alive)
            break;
        if (!best) {
            // Every live core is parked on a completion event.
            if (!eq.step())
                panic("smp run: event queue drained with blocked cores");
            continue;
        }
        if (!lone && eq.nextTick() < best->now) {
            eq.step(); // may unblock a core: re-pick
            continue;
        }
        Tick horizon = !next ? maxTick : next->now + (best < next ? 1 : 0);
        drive(*best, horizon, lone);
    }

    // Resync simulated time to the cores (run boundary, smp_model.hh).
    Tick last = start;
    for (CoreCtx* c = cores; c != end; ++c)
        last = std::max(last, c->now);
    eq.runUntil(last);

    for (CoreCtx* c = cores; c != end; ++c) {
        c->res.simTime = c->now - start;
        finalizeRunResult(c->res, cfg.freqGhz, cpuPower);
    }
}

RunResult
SmpModel::runOne(WorkloadGenerator& gen, std::uint64_t instruction_budget)
{
    CoreCtx c(cfg, gen, instruction_budget);
    conduct(&c, 1);
    return std::move(c.res);
}

SmpResult
SmpModel::run(const std::vector<WorkloadGenerator*>& gens,
              std::uint64_t per_core_budget)
{
    if (gens.empty())
        fatal("SmpModel::run: gens is empty (no cores)");

    std::vector<CoreCtx> ctxs;
    ctxs.reserve(gens.size());
    for (std::size_t i = 0; i < gens.size(); ++i) {
        if (!gens[i])
            fatal("SmpModel::run: gens[", i, "] is null");
        HAMS_LINT_SUPPRESS("capacity reserved to the core count just above; per-run setup")
        ctxs.emplace_back(cfg, *gens[i], per_core_budget);
    }
    conduct(ctxs.data(), ctxs.size());

    // Aggregate view: summed counters over the longest core's time
    // (shared merge helper, so per-core and per-shard aggregation can
    // never drift apart).
    SmpResult result;
    RunResult& comb = result.combined;
    comb.workload = ctxs[0].res.workload;
    comb.platform = ctxs[0].res.platform;
    for (CoreCtx& c : ctxs) {
        mergeRunResult(comb, c.res);
        HAMS_LINT_SUPPRESS("per-run result assembly after the retire loop; not per-access work")
        result.perCore.push_back(std::move(c.res));
    }
    finalizeRunResult(comb, cfg.freqGhz, cpuPower);
    return result;
}

bool
sameSimOutputs(const RunResult& a, const RunResult& b, const char** field)
{
    FieldPath d = firstDifference(a, b);
    if (d && field) {
        thread_local std::string name;
        name = d.path();
        *field = name.c_str();
    }
    return !d;
}

} // namespace hams
