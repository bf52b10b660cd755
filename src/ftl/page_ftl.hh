/**
 * @file
 * Page-mapped Flash Translation Layer.
 *
 * Maintains the logical-to-physical page map, allocates writes round-robin
 * across every parallel unit (channel/die/plane) to maximise striping,
 * runs greedy garbage collection against an over-provisioned pool, and
 * tracks per-block wear. Timing flows through the FIL so GC relocation
 * traffic naturally delays foreground operations on the same resources.
 *
 * Garbage collection has two personalities:
 *
 *  - **Synchronous** (`backgroundGc = false`, the default): the caller
 *    that trips the low watermark absorbs the entire multi-block
 *    relocation burst inline, op-by-op on its own tick chain. This is
 *    the classic foreground "GC cliff" and is preserved bit-identically
 *    for reproducibility.
 *
 *  - **Background** (`backgroundGc = true` plus attachEventQueue()):
 *    each parallel unit owns a small GC state machine driven by events
 *    on the simulation queue. It activates at the low watermark or
 *    after the device has sat idle for `gcIdleThreshold`, relocates up
 *    to `gcBatchPages` pages per step as *background-priority* flash
 *    ops (the FIL lets foreground ops suspend them), and returns the
 *    erased victim to the free pool at the erase-completion tick.
 *    Foreground writes only stall — never panic — when a unit's free
 *    pool is down to `gcReserveBlocks`: the FTL then drives the unit's
 *    machine forward synchronously *along its background timeline* and
 *    charges the write the real wait (FtlStats::gcWriteStalls /
 *    gcStallTicks).
 *
 * Background collection rides the FIL's op-handle contract
 * (Fil::submitTracked): the machines keep FlashOpHandle values for the
 * last relocation program of a slice and for the victim's erase, and
 * consult the handle — not the tick latched at submit time — before
 * stepping or crediting the block back. A foreground op that suspends
 * a background erase therefore delays the block credit by exactly the
 * stolen window instead of leaving it optimistic.
 *
 * Three optional policies sharpen the background engine:
 *
 *  - **Adaptive pacing** (`gcAdaptivePacing = true`): collection
 *    intensity scales with pool depletion. The pacer maps the free
 *    level inside the [gcReserveBlocks, gcHighWater] band to a level
 *    in [0, band]; the per-step relocation batch grows linearly with
 *    the level (`gcBatchPages * level`) and the inter-step cadence
 *    slack shrinks to zero (`(band - level) * gcPaceQuantum`), so the
 *    collector idles politely near the high watermark and runs flat
 *    out at the reserve — the paper's hardware-automated rate
 *    limiting of device housekeeping against host pressure. Pacing
 *    also activates machines as soon as a unit drops below the high
 *    watermark rather than waiting for the low watermark. Off by
 *    default: the PR 4 trigger/batch/cadence behaviour is preserved.
 *
 *  - **Dedicated relocation streams** (`gcStreamBlocks > 0`): GC
 *    relocations pack into a per-unit GC stream block instead of the
 *    unit's shared active block. Foreground writes never land in a
 *    stream block, so relocation write amplification no longer churns
 *    the foreground stream, cold valid pages consolidate together,
 *    and tiny geometries sustain random churn at higher occupancy
 *    before exhausting consolidation headroom. Applies to both GC
 *    personalities; 0 (default) keeps the PR 4 shared-stream layout.
 *
 *  - **Victim quality** (`gcVictimQuality = true`, with pacing on):
 *    the paced collector refuses victims more valid than the level's
 *    allowance (victimAllowance()) while the free pool has runway,
 *    trading collection eagerness for write amplification — the
 *    deferral shows up as FtlStats::gcQualityDeferrals and a lower
 *    steady-state write_amp at high occupancy. Off by default.
 *
 * Determinism: every GC decision is a pure function of FTL state and
 * event order, which the EventQueue keeps deterministic; reruns are
 * bit-identical at any host thread count. Hot-path discipline: the GC
 * machines live in pre-sized per-unit state, step events capture only
 * {this, pu}, and steady-state GC performs no heap allocation.
 */

#ifndef HAMS_FTL_PAGE_FTL_HH_
#define HAMS_FTL_PAGE_FTL_HH_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "flash/fil.hh"
#include "sim/annotations.hh"
#include "sim/event_queue.hh"
#include "sim/field_list.hh"
#include "sim/types.hh"

namespace hams {

/** FTL tuning knobs. */
struct FtlConfig
{
    /** Fraction of raw capacity reserved for garbage collection. */
    double overProvision = 0.07;
    /** GC starts when a parallel unit's free blocks drop to this. */
    std::uint32_t gcLowWater = 2;
    /** GC stops once free blocks recover to this. */
    std::uint32_t gcHighWater = 4;

    /** @name Background GC (requires attachEventQueue()). */
    ///@{
    /**
     * Run GC as an asynchronous background activity on the simulation
     * event queue instead of inline on the triggering writer's tick.
     * Off by default: the synchronous path is preserved exactly.
     */
    bool backgroundGc = false;
    /**
     * Foreground writes stall (wait for background GC to free a
     * block) once a unit's free pool is at or below this. The reserve
     * keeps GC relocation always able to allocate. Must be below
     * gcLowWater.
     */
    std::uint32_t gcReserveBlocks = 1;
    /** Pages relocated per background GC step event. */
    std::uint32_t gcBatchPages = 8;
    /** Device idle time before proactive (idle-triggered) GC starts. */
    Tick gcIdleThreshold = milliseconds(1);
    /**
     * Scale collection intensity with pool depletion (see the header
     * comment): batch size ramps up and step cadence tightens as the
     * free level falls from gcHighWater toward gcReserveBlocks, and
     * machines activate already below the high watermark. Off
     * preserves the fixed-batch, low-watermark-triggered behaviour.
     */
    bool gcAdaptivePacing = false;
    /**
     * Dedicated GC relocation streams per unit: victims relocate into
     * a private stream block instead of the shared active block.
     * 0 disables (relocations share the foreground stream); any
     * positive value keeps one stream block open per unit.
     */
    std::uint32_t gcStreamBlocks = 0;
    /** Cadence slack per unused pacer level (gcAdaptivePacing). */
    Tick gcPaceQuantum = microseconds(25);
    /**
     * Victim-quality term of the adaptive pacer (requires
     * gcAdaptivePacing): while the free pool has runway, the
     * background collector only accepts victims whose valid-page
     * count fits the pacer level's allowance (victimAllowance()) —
     * near-full victims, whose relocation is nearly all write
     * amplification, are deferred until depletion justifies them.
     * The crisis path (foreground stall at the reserve) always runs
     * at full allowance, so the gate can never starve a writer. Off
     * (default) preserves the pure fewest-valid greedy policy
     * bit-identically.
     */
    bool gcVictimQuality = false;
    ///@}
};

/** FTL statistics. */
struct FtlStats
{
    std::uint64_t hostReads = 0;
    std::uint64_t hostWrites = 0;
    /** GC activations that collected at least one victim block. */
    std::uint64_t gcRuns = 0;
    std::uint64_t gcRelocations = 0;
    std::uint64_t erases = 0;

    /** @name Background-GC accounting. */
    ///@{
    std::uint64_t gcBatches = 0;     //!< background step events executed
    std::uint64_t gcIdleKicks = 0;   //!< activations from the idle trigger
    std::uint64_t gcWriteStalls = 0; //!< foreground writes that hit reserve
    Tick gcStallTicks = 0;           //!< total foreground stall time
    /** Host ops issued while at least one GC machine was active. */
    std::uint64_t gcForegroundOverlap = 0;
    /** Dedicated relocation stream blocks opened (gcStreamBlocks). */
    std::uint64_t gcStreamBlocks = 0;
    /** Victims deferred by the quality gate (gcVictimQuality). */
    std::uint64_t gcQualityDeferrals = 0;
    /** Pacer level at the most recent background step (0 = gentlest). */
    std::uint32_t paceLevel = 0;
    /** Deepest pacer level reached (pool closest to the reserve). */
    std::uint32_t paceLevelMax = 0;
    ///@}

    /** @name Tiering migration (Ssd::attachTiering()). */
    ///@{
    /** Background promotion reads issued for tiering. */
    std::uint64_t tierBgReads = 0;
    /** Background demotion writes issued for tiering. */
    std::uint64_t tierBgWrites = 0;
    ///@}

    /** The field list (sim/field_list.hh): pacer levels take the max. */
    static constexpr auto
    fields()
    {
        using S = FtlStats;
        return std::make_tuple(
            field("hostReads", &S::hostReads),
            field("hostWrites", &S::hostWrites),
            field("gcRuns", &S::gcRuns),
            field("gcRelocations", &S::gcRelocations),
            field("erases", &S::erases),
            field("gcBatches", &S::gcBatches),
            field("gcIdleKicks", &S::gcIdleKicks),
            field("gcWriteStalls", &S::gcWriteStalls),
            field("gcStallTicks", &S::gcStallTicks),
            field("gcForegroundOverlap", &S::gcForegroundOverlap),
            field("gcStreamBlocks", &S::gcStreamBlocks),
            field("gcQualityDeferrals", &S::gcQualityDeferrals),
            field<Combine::Max>("paceLevel", &S::paceLevel),
            field<Combine::Max>("paceLevelMax", &S::paceLevelMax),
            field("tierBgReads", &S::tierBgReads),
            field("tierBgWrites", &S::tierBgWrites));
    }
};

/**
 * The translation layer. One instance per SSD.
 *
 * Logical page numbers (LPNs) index 4 KiB pages of the exported
 * capacity. A physical page number (PPN) is laid out as
 * [parallel unit | block | page], so ppn / pagesPerBlock is the
 * block's index in `blocks` and ppn / pagesPerPlane its unit.
 */
class PageFtl
{
  public:
    PageFtl(const FlashGeometry& geom, Fil& fil, const FtlConfig& cfg = {});

    /**
     * Give the FTL a discrete-event queue to run background GC on.
     * Without one (or with cfg.backgroundGc == false) GC stays
     * synchronous. The queue must outlive the FTL.
     */
    void attachEventQueue(EventQueue* q) { eq = q; }

    /** True when GC runs as background events. */
    bool
    backgroundGcEnabled() const
    {
        return cfg.backgroundGc && eq != nullptr;
    }

    /** Number of logical pages exported to the host (raw minus OP). */
    std::uint64_t logicalPages() const { return _logicalPages; }

    /**
     * Read @p bytes of logical page @p lpn.
     * Unmapped pages return at once (zero data, no flash op).
     * @return completion tick.
     */
    HAMS_HOT_PATH Tick readPage(std::uint64_t lpn, std::uint32_t bytes, Tick at);

    /**
     * Write @p bytes of logical page @p lpn (read-modify-write semantics
     * are the HIL's job; the FTL always programs a fresh physical page).
     * @return completion tick.
     */
    HAMS_HOT_PATH Tick writePage(std::uint64_t lpn, std::uint32_t bytes, Tick at);

    /**
     * Background-priority read of @p lpn for tiering promotion: the
     * flash op is submitTracked'd (foreground traffic can suspend it)
     * and @p h receives the handle — the caller owns it and must
     * release() it (or consume completionOf()) before power failure,
     * exactly like the GC machines' slice ops. Counts toward
     * tierBgReads, not hostReads. Panics on an unmapped LPN: callers
     * check isMapped() first.
     * @return the submit-time completion latch.
     */
    Tick backgroundReadPage(std::uint64_t lpn, std::uint32_t bytes,
                            Tick at, FlashOpHandle& h);

    /**
     * Background-priority rewrite of @p lpn for tiering demotion
     * (early writeback of a cold dirty buffer frame). Allocation takes
     * the foreground path — demotion must never dip into the GC
     * reserve — but the program carries background priority and @p h
     * is a tracked handle with the same ownership contract as
     * backgroundReadPage(). Counts toward tierBgWrites, not
     * hostWrites.
     * @return the submit-time completion latch.
     */
    Tick backgroundWritePage(std::uint64_t lpn, std::uint32_t bytes,
                             Tick at, FlashOpHandle& h);

    /** Drop the mapping of @p lpn (TRIM). */
    HAMS_HOT_PATH void trim(std::uint64_t lpn);

    /** True if the LPN currently has a physical mapping. */
    HAMS_HOT_PATH bool isMapped(std::uint64_t lpn) const;

    /** Current physical page of @p lpn; panics if unmapped. */
    HAMS_HOT_PATH std::uint64_t physicalOf(std::uint64_t lpn) const;

    const FtlStats& stats() const { return _stats; }

    /** Max erase-count spread across blocks (wear-leveling check). */
    std::uint32_t wearSpread() const;

    /** @name Introspection for tests and benches. */
    ///@{
    /** True while any unit's background GC machine is active. */
    bool gcActive() const { return gcActiveMachines > 0; }

    /**
     * True while any machine is mid-victim: a block is checked out of
     * the closed list with its relocation cursor live. The state the
     * mid-GC-slice cut policy of the fault injector hunts for.
     */
    bool gcVictimLive() const;

    /**
     * True while any unit holds an issued-but-uncredited erase (the
     * pendingFree window). The mid-erase cut state.
     */
    bool gcEraseInFlight() const;

    /** Free blocks of parallel unit @p pu (excludes pending erases). */
    std::uint32_t
    freeBlocksOf(std::uint64_t pu) const
    {
        return static_cast<std::uint32_t>(units[pu].freeBlocks.size());
    }

    /** Smallest free-block pool across all parallel units. */
    std::uint32_t minFreeBlocks() const;

    std::uint64_t parallelUnits() const { return units.size(); }

    /** Unit @p pu's open GC relocation stream block (-1 = none). */
    std::int64_t
    gcStreamBlockOf(std::uint64_t pu) const
    {
        return units[pu].gcStreamBlock;
    }

    /**
     * Pacer transfer functions, exposed so tests can pin monotonicity
     * without driving a whole workload: relocation batch for a unit
     * sitting at @p free_blocks, and the cadence slack added after a
     * step at that level. With gcAdaptivePacing off these are the
     * constants gcBatchPages and 0.
     */
    HAMS_HOT_PATH std::uint32_t paceBatch(std::uint32_t free_blocks) const;
    HAMS_HOT_PATH Tick paceDelay(std::uint32_t free_blocks) const;

    /**
     * Victim-quality allowance at @p free_blocks free: the most valid
     * pages a background victim may carry before the quality gate
     * defers it. Ramps linearly with the pacer level — zero tolerance
     * at the high watermark, a full block at the reserve — and is the
     * whole block (gate open) whenever gcVictimQuality or
     * gcAdaptivePacing is off. Monotone non-increasing in free_blocks.
     */
    HAMS_HOT_PATH std::uint32_t victimAllowance(std::uint32_t free_blocks) const;

    /**
     * Shadow-model introspection: a copy of unit @p pu's block lists.
     * Every block of a unit must appear on exactly one of these lists
     * (free, closed, active, GC stream, in-relocation victim, pending
     * erase credit) — the partition invariant whose violation is how
     * mapping corruption (double-listed or leaked blocks) starts.
     */
    struct UnitView
    {
        std::vector<std::uint32_t> freeBlocks;  //!< decoded indices
        std::vector<std::uint32_t> closedBlocks;
        std::int64_t activeBlock = -1;
        std::int64_t gcStreamBlock = -1;
        std::int32_t victim = -1;
        std::int32_t pendingFree = -1;
    };
    UnitView unitView(std::uint64_t pu) const;

    /** Valid-page count the FTL believes block holds (shadow check). */
    std::uint32_t blockValidCount(std::uint64_t pu,
                                  std::uint32_t block) const;

    /** Erase count of one block (wear conservation check). */
    std::uint32_t blockEraseCount(std::uint64_t pu,
                                  std::uint32_t block) const;

    /**
     * True (suspension-extended) completion tick of unit @p pu's
     * pending erase credit, straight from the FIL's op handle; the
     * latched submit-time tick when no handle is live. Panics when
     * the unit has no pending free. Lets tests pin the credit-at-
     * true-completion contract without reaching into the machine.
     */
    Tick pendingFreeTrueAt(std::uint64_t pu) const;

    const FtlConfig& config() const { return cfg; }
    ///@}

    /**
     * Power loss: in-flight background GC work evaporates with the
     * event queue (the owner resets it); relocations already applied
     * to the map are durable, a victim whose erase was issued counts
     * as erased. Deactivates every machine.
     */
    HAMS_COLD_PATH void onPowerFail();

    /**
     * The FIL's busy-state was cleared under a live FTL
     * (`Fil::reset()`, the benches' prefill-then-start-idle idiom):
     * every FlashOpHandle died with the registry, so forget ours
     * without releasing. Machines keep their latched schedule
     * (readyAt / pendingFreeAt) — the in-flight work's *timing*
     * vanished with the busy-state, not its bookkeeping. Callers
     * resetting the FIL mid-churn must invoke this or the next GC
     * step panics on a stale handle.
     */
    HAMS_COLD_PATH void onFlashReset();

  private:
    struct Block
    {
        std::uint32_t writePtr = 0;   //!< next free page slot
        std::uint32_t validCount = 0;
        std::uint32_t eraseCount = 0;
        std::vector<std::uint64_t> pageLpns; //!< reverse map, lazy
        std::vector<std::uint64_t> validBits; //!< bitmap, lazy

        bool full(std::uint32_t pages_per_block) const
        {
            return writePtr >= pages_per_block;
        }
    };

    /**
     * Per-unit background GC state machine. All relocation decisions
     * happen at event (or forced catch-up) time against this state;
     * the pending step event captures only {this, pu}.
     */
    struct GcMachine
    {
        bool active = false;
        bool idleKicked = false;  //!< activation came from the idle timer
        bool countedRun = false;  //!< gcRuns charged for this activation
        std::int32_t victim = -1; //!< block being relocated, -1 = none
        std::uint32_t nextPage = 0; //!< relocation cursor in the victim
        Tick readyAt = 0; //!< latched completion tick of the last slice
        /** Victim erased but its erase op not yet complete. */
        std::int32_t pendingFree = -1;
        Tick pendingFreeAt = 0; //!< latched erase tick (scheduling hint)
        /** Tracked op of the last slice's latest relocation program. */
        FlashOpHandle sliceOp;
        /** Tracked erase op backing pendingFree: the block credit
         *  waits for this handle's *true* completion, so a foreground
         *  suspension of the erase delays the credit by exactly the
         *  stolen window. */
        FlashOpHandle pendingFreeOp;
        EventId stepEvent = 0;
    };

    /** Per-parallel-unit allocation state. */
    struct Unit
    {
        /**
         * Free blocks as packed (eraseCount << 32 | block) keys in a
         * min-heap, so the least-worn block pops in O(log n) (wear
         * leveling; ties to the lowest block index).
         */
        std::vector<std::uint64_t> freeBlocks;
        std::int64_t activeBlock = -1;
        /** Dedicated GC relocation stream block (-1 when none open or
         *  cfg.gcStreamBlocks == 0). Never hosts foreground writes. */
        std::int64_t gcStreamBlock = -1;
        std::vector<std::uint32_t> closedBlocks;
        GcMachine gc;
    };

    static std::uint64_t
    freeKey(std::uint32_t wear, std::uint32_t block)
    {
        return (std::uint64_t(wear) << 32) | block;
    }

    static std::uint32_t
    keyBlock(std::uint64_t key)
    {
        return static_cast<std::uint32_t>(key);
    }

    std::uint64_t blockGlobalIndex(std::uint64_t pu,
                                   std::uint32_t block) const;
    std::uint64_t makePpn(std::uint64_t pu, std::uint32_t block,
                          std::uint32_t page) const;

    HAMS_HOT_PATH Block& blockOf(std::uint64_t pu, std::uint32_t block);
    HAMS_HOT_PATH void ensureBlockArrays(Block& b);

    /** Mark a physical page invalid (after overwrite/trim). */
    HAMS_HOT_PATH void invalidate(std::uint64_t ppn);

    /** Record @p lpn at the just-allocated @p ppn: valid, and mapped. */
    HAMS_HOT_PATH void place(std::uint64_t lpn, std::uint64_t ppn);

    /**
     * Allocate the next physical page on @p pu. Foreground callers
     * (for_gc == false) trigger GC when needed — inline in synchronous
     * mode, kick-and-continue (or stall at the reserve) in background
     * mode. GC relocation (for_gc == true) may dip into the reserve,
     * and packs into the unit's relocation stream when
     * cfg.gcStreamBlocks > 0; foreground writes never use the stream.
     */
    HAMS_HOT_PATH std::uint64_t allocate(std::uint64_t pu, Tick& at, bool for_gc = false);

    /** Pop a free block for @p pu (wear-aware, O(log n)). */
    HAMS_HOT_PATH std::uint32_t takeFreeBlock(Unit& u, std::uint64_t pu);

    /** Return an erased block to @p pu's free pool (wear-aware). */
    HAMS_HOT_PATH void pushFreeBlock(std::uint64_t pu, std::uint32_t block);

    /** Greedy synchronous GC on one unit until the high watermark. */
    HAMS_HOT_PATH void collect(std::uint64_t pu, Tick& at);

    /** @name Background GC engine. */
    ///@{
    /** Activate unit @p pu's machine (no-op if already active). */
    HAMS_HOT_PATH void kickGc(std::uint64_t pu, Tick at, bool idle);

    /** Step event handler for unit @p pu. */
    HAMS_HOT_PATH void gcStep(std::uint64_t pu);

    /**
     * One GC slice starting no earlier than @p from: relocate up to
     * @p batch surviving pages of the current victim as background
     * flash ops, issue the erase when the victim drains. Advances
     * gc.readyAt and re-points gc.sliceOp / gc.pendingFreeOp at the
     * tracked ops. @return false when there was nothing to do.
     */
    HAMS_HOT_PATH bool gcSlice(std::uint64_t pu, Tick from, std::uint32_t batch);

    /**
     * Pacer level of a unit at @p free_blocks free: 0 at or above the
     * high watermark, ramping to the band width (gcHighWater -
     * gcReserveBlocks) as the pool falls to the reserve.
     */
    HAMS_HOT_PATH std::uint32_t paceLevelOf(std::uint32_t free_blocks) const;

    /**
     * Record the pacer level a collection slice is about to run at
     * (stats gauge + high-water mark; no-op with pacing off) and
     * return the slice's relocation batch. Shared by the event step
     * and the foreground crisis path so neither under-reports.
     */
    HAMS_HOT_PATH std::uint32_t notePaceLevel(std::uint32_t free_blocks);

    /**
     * Latest *true* completion among the machine's tracked ops, or
     * @p now when none are live. A value beyond now means a foreground
     * op extended the in-flight work after its ticks were latched, and
     * the step must wait.
     */
    HAMS_HOT_PATH Tick trueReadyAt(std::uint64_t pu, Tick now) const;

    /**
     * Greedy victim of @p pu: the closed block with the fewest valid
     * pages, removed from closedBlocks. Shared by the synchronous and
     * background collectors so the two modes can never diverge on
     * policy. @return -1 when nothing is reclaimable (no closed
     * blocks, or even the best victim is fully valid — collecting it
     * would shuffle data forever). @p max_valid additionally defers
     * victims past the quality gate's allowance (background paced
     * path only; the default admits every reclaimable victim).
     */
    HAMS_HOT_PATH std::int32_t selectVictim(std::uint64_t pu,
                              std::uint32_t max_valid = ~std::uint32_t(0));

    /** Start the machine's next victim. @return false if none. */
    HAMS_HOT_PATH bool pickVictim(std::uint64_t pu);

    /**
     * True when unit @p pu has the headroom to start a new victim: a
     * free block to draw on, or — in stream mode — enough slack in
     * the open GC stream block to absorb the least-valid victim
     * whole (foreground writes never touch the stream, so the slack
     * cannot be stolen mid-relocation).
     */
    HAMS_HOT_PATH bool canStartVictim(std::uint64_t pu) const;

    /** Credit a completed pending erase to the free pool. */
    HAMS_HOT_PATH void applyPendingFree(std::uint64_t pu);

    HAMS_HOT_PATH void deactivateGc(std::uint64_t pu);

    /**
     * Foreground write hit the reserve: drive @p pu's machine forward
     * along its background timeline until a block frees.
     * @return the tick the write may proceed at (>= @p at).
     */
    HAMS_HOT_PATH Tick reclaimForeground(std::uint64_t pu, Tick at);

    /** Record host activity / re-arm the idle-GC timer. */
    HAMS_HOT_PATH void noteHostActivity(Tick done);

    /** Idle timer fired: start GC on every unit that wants it. */
    HAMS_HOT_PATH void idleFire();
    ///@}

    /**
     * Two-level direct logical-to-physical map (no hashing): every
     * host I/O probes this once per FTL unit, so the lookup is a
     * shift, an index and a load. Leaves cover 512 LPNs and allocate
     * lazily, keeping sparsity for mostly-unmapped devices.
     */
    class L2pMap
    {
      public:
        static constexpr std::uint64_t unmapped = ~std::uint64_t(0);

        void
        init(std::uint64_t pages)
        {
            root.resize((pages + leafPages - 1) >> leafBits);
        }

        std::uint64_t
        get(std::uint64_t lpn) const
        {
            // Out-of-range LPNs read as unmapped (the public FTL API
            // tolerates them, as the old hash map did).
            std::uint64_t hi = lpn >> leafBits;
            if (hi >= root.size())
                return unmapped;
            const Leaf* leaf = root[hi].get();
            return leaf ? (*leaf)[lpn & (leafPages - 1)] : unmapped;
        }

        void
        set(std::uint64_t lpn, std::uint64_t ppn)
        {
            std::unique_ptr<Leaf>& leaf = root[lpn >> leafBits];
            if (!leaf) {
                HAMS_LINT_SUPPRESS("first-touch L2P leaf allocation; reused for the device's lifetime")
                leaf = std::make_unique<Leaf>();
                leaf->fill(unmapped);
            }
            (*leaf)[lpn & (leafPages - 1)] = ppn;
        }

        void
        erase(std::uint64_t lpn)
        {
            std::uint64_t hi = lpn >> leafBits;
            if (hi >= root.size())
                return;
            Leaf* leaf = root[hi].get();
            if (leaf)
                (*leaf)[lpn & (leafPages - 1)] = unmapped;
        }

      private:
        static constexpr std::uint32_t leafBits = 9;
        static constexpr std::uint32_t leafPages = 1u << leafBits;
        using Leaf = std::array<std::uint64_t, leafPages>;
        std::vector<std::unique_ptr<Leaf>> root;
    };

    FlashGeometry geom;
    Fil& fil;
    FtlConfig cfg;
    FtlStats _stats;

    std::uint64_t _logicalPages;
    std::uint64_t nextPu = 0; //!< round-robin write striping
    bool inGc = false;        //!< guards against GC re-entrancy

    /** @name Background-GC engine state. */
    ///@{
    EventQueue* eq = nullptr;
    std::uint32_t gcActiveMachines = 0;
    Tick lastHostDone = 0;
    /** Some unit dipped below the high watermark: keep the idle timer
     *  armed after each host op until the idle pass hands it to the
     *  per-unit machines. */
    bool idleArmWanted = false;
    EventId idleEvent = 0;
    ///@}

    std::vector<Unit> units;
    std::vector<Block> blocks; //!< all blocks, indexed globally
    L2pMap l2p;
};

} // namespace hams

#endif // HAMS_FTL_PAGE_FTL_HH_
