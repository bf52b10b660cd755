/**
 * @file
 * Per-die / per-plane busy-state tracking for a flash complex.
 *
 * Dies own a command/data register: a die is unavailable while a cell
 * operation (tR/tPROG/tERASE) runs or while its register is being
 * drained over the channel. Planes within a die operate independently
 * for cell work but share the die's register and channel port.
 *
 * Occupancy is tracked on two timelines per resource: foreground
 * (host I/O) and background (GC/housekeeping). A resource is busy
 * until the max of both, but the split lets the FIL grant foreground
 * ops suspend-style priority: when only background work blocks a die
 * or plane, the foreground op starts after a short suspend handshake
 * and the background occupancy is pushed out by the stolen window.
 *
 * Tracked background ops: the pool also keeps a registry of in-flight
 * background operations identified by stable FlashOpHandle values
 * (generation-tagged slots, never heap-allocated in steady state).
 * When a foreground op suspends background cell work or bumps a
 * background transfer off the channel, every live tracked op on the
 * affected die/channel has its completion pushed out by the stolen
 * window — so a handle always answers "when does this op *really*
 * finish", which is what lets the FTL's GC machines credit erased
 * blocks at the true erase-completion tick instead of the tick that
 * was latched at submit time.
 *
 * Live records are threaded on intrusive doubly-linked lists inside
 * the slot arena: one list per die holds its cell-tailed ops, one list
 * per channel its transfer-tailed ops — exactly the set each extension
 * touches. A suspension walks one die's list and a channel bump one
 * channel's list, never the whole complex; tracking and releasing an
 * op link and unlink it in O(1). Free slots form a LIFO stack through
 * the same `next` field. Each record's extension is independent of
 * every other's, so list order never affects a completion.
 */

#ifndef HAMS_FLASH_NAND_PACKAGE_HH_
#define HAMS_FLASH_NAND_PACKAGE_HH_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "flash/nand_timing.hh"
#include "sim/types.hh"

namespace hams {

/** Operation counters consumed by the flash energy model. */
struct FlashActivity
{
    std::uint64_t reads = 0;
    std::uint64_t programs = 0;
    std::uint64_t erases = 0;
    std::uint64_t bytesTransferred = 0;

    /** @name Background (GC) share of the totals above. */
    ///@{
    std::uint64_t gcReads = 0;
    std::uint64_t gcPrograms = 0;
    std::uint64_t gcErases = 0;
    ///@}
    /** Background ops suspended so a foreground op could run. */
    std::uint64_t suspensions = 0;
};

/**
 * Stable identifier of a tracked in-flight background flash op.
 * Returned by Fil::submitTracked; resolves to the op's *current*
 * completion tick (suspension-extended) until released. Value-type,
 * trivially copyable; a default-constructed handle is invalid.
 */
struct FlashOpHandle
{
    std::uint32_t slot = 0;
    std::uint32_t gen = 0; //!< 0 is never a live generation

    bool valid() const { return gen != 0; }
};

/**
 * The resources one parallel unit's ops contend for: its channel bus,
 * its die (a dense index over channel x package x die) and its plane
 * (die index x planesPerDie + plane). Every page of a unit shares one
 * site, since a PPN is laid out as [parallel unit | block | page].
 */
struct FlashSite
{
    std::uint32_t channel = 0;
    std::uint32_t die = 0;
    std::uint32_t plane = 0;
};

/**
 * Busy-until bookkeeping for every die and plane in the complex,
 * addressed by FlashSite. The pool builds the site of every parallel
 * unit once, at construction.
 */
class NandPackagePool
{
  public:
    explicit NandPackagePool(const FlashGeometry& geom);

    /** Site of parallel unit @p pu (< geometry().parallelUnits()). */
    const FlashSite& site(std::uint64_t pu) const { return sites[pu]; }

    /** Earliest tick die @p s.die can accept a command. */
    Tick
    dieFreeAt(const FlashSite& s) const
    {
        return std::max(dieFree[s.die], dieBgFree[s.die]);
    }

    /** Earliest tick plane @p s.plane can start a cell operation. */
    Tick
    planeFreeAt(const FlashSite& s) const
    {
        return std::max(planeFree[s.plane], planeBgFree[s.plane]);
    }

    /** @name Foreground-only timelines (suspend-priority admission). */
    ///@{
    Tick dieFgFreeAt(const FlashSite& s) const { return dieFree[s.die]; }
    Tick planeFgFreeAt(const FlashSite& s) const
    {
        return planeFree[s.plane];
    }
    ///@}

    /** @name Reserve the die or plane until @p until (Bg: background). */
    ///@{
    void occupyDie(const FlashSite& s, Tick until)
    {
        holdUntil(dieFree[s.die], until);
    }
    void occupyPlane(const FlashSite& s, Tick until)
    {
        holdUntil(planeFree[s.plane], until);
    }
    void occupyDieBg(const FlashSite& s, Tick until)
    {
        holdUntil(dieBgFree[s.die], until);
    }
    void occupyPlaneBg(const FlashSite& s, Tick until)
    {
        holdUntil(planeBgFree[s.plane], until);
    }
    ///@}

    /**
     * A foreground op suspended the background work pending on @p s:
     * push every background occupancy still live past @p from out by
     * @p delta (the stolen window, suspend handshake included), and
     * extend the completion of every tracked op on the same die that
     * was still in flight at @p from by the same window.
     */
    void pushBackgroundOut(const FlashSite& s, Tick from, Tick delta);

    /** @name Tracked background ops (FlashOpHandle registry). */
    ///@{
    /**
     * Register a background op on @p s completing at @p completion
     * (the submit-time latch). The record lives — and keeps absorbing
     * suspension/bus-bump extensions — until releaseOp(). Slot reuse
     * is generation-tagged, so stale handles are detected, and the
     * arena never allocates once grown to the high-water mark.
     * @p transfer_tailed marks an op whose completion is a channel
     * data transfer (a read draining the die register): only those
     * are extended by bumpChannelOps — a program/erase completion is
     * cell work, already covered by the die push.
     */
    FlashOpHandle trackOp(const FlashSite& s, Tick completion,
                          bool transfer_tailed);

    /** Current (suspension-extended) completion tick of a live op. */
    Tick completionOf(FlashOpHandle h) const;

    /**
     * Retire a tracked op: unlink it from its die or channel list and
     * push its slot on the free stack. Its handle becomes invalid.
     */
    void releaseOp(FlashOpHandle h);

    /**
     * A foreground transfer bumped pending background transfers off
     * channel @p ch: extend *transfer-tailed* tracked ops on that
     * channel still in flight past @p from by @p delta. Ops whose
     * completion is cell work are untouched — extending them here
     * would double-count with the die push when one foreground op
     * both claims the channel and suspends the die.
     */
    void bumpChannelOps(std::uint32_t ch, Tick from, Tick delta);

    /** Live tracked ops (leak check for tests). */
    std::size_t liveTrackedOps() const { return liveCount; }
    ///@}

    /** Clear all busy state and invalidate every handle (power cycle). */
    void reset();

    const FlashGeometry& geometry() const { return geom; }

  private:
    static void holdUntil(Tick& t, Tick until) { t = std::max(t, until); }

    /** End of a list (and of the free stack). */
    static constexpr std::uint32_t nil = ~std::uint32_t(0);

    /** One tracked in-flight background op (or a free arena slot). */
    struct OpRecord
    {
        std::uint32_t gen = 1;
        bool live = false;
        /**
         * Index into opHeads: the die's list (cell-tailed) or
         * dies + channel (transfer-tailed).
         */
        std::uint32_t list = 0;
        std::uint32_t prev = nil; //!< previous live record on the list
        std::uint32_t next = nil; //!< next live record, or next free slot
        Tick completion = 0;
    };

    /** opHeads index of channel @p ch's transfer-tailed list. */
    std::uint32_t
    channelList(std::uint32_t ch) const
    {
        return static_cast<std::uint32_t>(dieFree.size()) + ch;
    }

    /** Extend every op on list @p list still in flight past @p from. */
    void extendList(std::uint32_t list, Tick from, Tick delta);
    void unlinkOp(OpRecord& r);
    void pushFree(std::uint32_t slot);

    FlashGeometry geom;
    std::vector<FlashSite> sites; //!< indexed by parallel unit
    std::vector<Tick> dieFree;    //!< foreground timeline
    std::vector<Tick> planeFree;  //!< foreground timeline
    std::vector<Tick> dieBgFree;  //!< background timeline
    std::vector<Tick> planeBgFree;//!< background timeline

    std::vector<OpRecord> ops; //!< handle arena
    /**
     * List heads: [0, dies) hold each die's cell-tailed ops,
     * [dies, dies + channels) each channel's transfer-tailed ops.
     */
    std::vector<std::uint32_t> opHeads;
    std::uint32_t freeHead = nil; //!< top of the free-slot stack
    std::size_t liveCount = 0;
};

} // namespace hams

#endif // HAMS_FLASH_NAND_PACKAGE_HH_
