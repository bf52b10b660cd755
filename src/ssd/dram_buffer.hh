/**
 * @file
 * SSD-internal DRAM buffer/cache.
 *
 * Modern SSDs front their flash with a large DRAM that absorbs writes and
 * caches hot pages. The paper removes this DRAM in advanced HAMS because
 * the NVDIMM already caches everything; keeping it wastes energy (it
 * draws 17% more power than a 32-chip flash complex) and duplicates data.
 *
 * Timing here is a simple bandwidth/latency occupancy model; contents are
 * tracked at 4 KiB frame granularity with LRU replacement and a dirty
 * bit so power-failure behaviour (volatile unless a supercap drains it
 * to flash) is faithful.
 *
 * Hot-path discipline: every page-sized host I/O walks this cache once
 * per 4 KiB block, so lookup/insert/evict are allocation-free — an
 * intrusive doubly-linked LRU over a node arena, indexed by an
 * open-addressing hash table (linear probing, backward-shift delete).
 *
 * Dirty state lives in one place: a bitmap with one bit per arena node,
 * sized to the capacity at construction, so marking a frame dirty or
 * clean never allocates. Writeback rounds and msync (dirtyFrames) scan
 * its words instead of the LRU list, so finding d dirty frames costs
 * O(capacity / 64 + d log d), not O(resident).
 */

#ifndef HAMS_SSD_DRAM_BUFFER_HH_
#define HAMS_SSD_DRAM_BUFFER_HH_

#include <cstdint>
#include <vector>

#include "sim/annotations.hh"
#include "sim/inline_function.hh"
#include "sim/types.hh"

namespace hams {

class HotnessTracker;

/** Internal buffer parameters. */
struct DramBufferConfig
{
    std::uint64_t capacity = 512ull << 20;
    std::uint32_t frameSize = 4096;
    double bandwidth = 6.4e9;           //!< internal DDR bytes/s
    Tick accessLatency = nanoseconds(250); //!< array + controller latency
};

/** Result of a buffer insertion. */
struct BufferEviction
{
    bool happened = false;
    bool dirty = false;
    std::uint64_t frameKey = 0;
};

/**
 * LRU frame cache with timing. Keys are logical frame numbers (LBA-space
 * 4 KiB frames).
 */
class DramBuffer
{
  public:
    /** Sentinel node id ("no node") for the victim-selection seam. */
    static constexpr std::uint32_t nilNode = ~std::uint32_t(0);

    /**
     * Eviction policy seam: called when insert() must displace a frame.
     * Returns the arena node id of the victim (walk the LRU list with
     * lruTailNode()/lruPrevNode(), read keys with nodeKey()), or
     * nilNode to fall back to the exact LRU tail. The selector runs on
     * the per-access hot path, so it must be allocation-free and its
     * capture must fit InlineFunction's 48-byte inline budget.
     */
    using VictimSelector =
        InlineFunction<std::uint32_t(const DramBuffer&)>;

    explicit DramBuffer(const DramBufferConfig& cfg);

    /**
     * Install an eviction tie-break policy (empty restores exact LRU).
     * The default — no selector — evicts the exact LRU tail, and a
     * regression test pins that order.
     */
    void setVictimSelector(VictimSelector sel)
    {
        victimSel = std::move(sel);
    }

    /** Occupancy-modelled access: move @p bytes through the buffer. */
    HAMS_HOT_PATH Tick access(std::uint32_t bytes, Tick at);

    /** True if @p key is resident (updates LRU order). */
    HAMS_HOT_PATH bool lookup(std::uint64_t key);

    /** True if @p key is resident, WITHOUT touching LRU order (for
     *  policy probes — residency tests, migration candidate checks). */
    HAMS_HOT_PATH bool
    contains(std::uint64_t key) const
    {
        return table[findSlot(key)] != 0;
    }

    /** True if @p key is resident and dirty. */
    HAMS_HOT_PATH bool isDirty(std::uint64_t key) const;

    /**
     * Insert @p key (possibly already present; then just update state).
     * @return eviction descriptor if a frame had to be displaced.
     */
    HAMS_HOT_PATH BufferEviction insert(std::uint64_t key, bool dirty);

    /** Clear the dirty bit of a resident frame (after writeback). */
    HAMS_HOT_PATH void markClean(std::uint64_t key);

    /** Remove a frame (invalidate). */
    HAMS_HOT_PATH void erase(std::uint64_t key);

    /** All dirty frame keys, sorted (flush / supercap drain). */
    HAMS_COLD_PATH std::vector<std::uint64_t> dirtyFrames() const;

    /**
     * Allocation-free variant for per-access paths (the mmap
     * writeback watermark check runs on every newly dirtied page):
     * fills @p out — cleared, sorted by key — reusing its capacity.
     * Scans the dirty bitmap, not the LRU list: O(capacity / 64 +
     * d log d) for d dirty frames, however many are resident.
     */
    HAMS_HOT_PATH void dirtyFrames(std::vector<std::uint64_t>& out) const;

    /** Drop all contents (power loss without supercap). */
    HAMS_COLD_PATH void dropAll();

    std::size_t residentFrames() const { return resident; }
    std::size_t maxFrames() const { return capacityFrames; }
    std::uint64_t bytesAccessed() const { return _bytesAccessed; }
    const DramBufferConfig& config() const { return cfg; }

    /** @name LRU introspection for victim selectors (hot path). */
    ///@{
    /** Least-recently-used node, or nilNode when empty. */
    HAMS_HOT_PATH std::uint32_t lruTailNode() const { return lruTail; }
    /** Next-more-recent node after @p node, or nilNode at the head. */
    HAMS_HOT_PATH std::uint32_t
    lruPrevNode(std::uint32_t node) const
    {
        return nodes[node].prev;
    }
    HAMS_HOT_PATH std::uint64_t
    nodeKey(std::uint32_t node) const
    {
        return nodes[node].key;
    }
    HAMS_HOT_PATH bool
    nodeDirty(std::uint32_t node) const
    {
        return (dirtyBits[node >> 6] >> (node & 63)) & 1;
    }
    ///@}

  private:
    static constexpr std::uint32_t nil = nilNode;

    /** One resident frame: key + intrusive LRU links. */
    struct Node
    {
        std::uint64_t key;
        std::uint32_t prev;
        std::uint32_t next;
    };

    std::uint32_t idealSlot(std::uint64_t key) const
    {
        // Fibonacci hashing spreads sequential frame keys.
        return static_cast<std::uint32_t>(
                   (key * 0x9E3779B97F4A7C15ULL) >> 32) &
               tableMask;
    }

    /** Table slot holding @p key, or the empty slot to insert into. */
    std::uint32_t findSlot(std::uint64_t key) const;

    /** Backward-shift deletion keeps probe chains intact. */
    void eraseSlot(std::uint32_t slot);

    std::uint32_t allocNode();
    /** Return @p node to the free list; clears its dirty bit. */
    void freeNode(std::uint32_t node);

    void
    setDirty(std::uint32_t node, bool dirty)
    {
        std::uint64_t bit = std::uint64_t(1) << (node & 63);
        std::uint64_t& word = dirtyBits[node >> 6];
        word = dirty ? (word | bit) : (word & ~bit);
    }

    /** @name Intrusive LRU list (head = most recent). */
    ///@{
    void lruUnlink(std::uint32_t node);
    void lruPushFront(std::uint32_t node);
    ///@}

    DramBufferConfig cfg;
    std::size_t capacityFrames;
    double psPerByte; //!< precomputed occupancy multiplier
    Tick busyUntil = 0;
    std::uint64_t _bytesAccessed = 0;

    std::vector<Node> nodes;          //!< arena, grows to capacityFrames
    std::uint32_t freeHead = nil;     //!< free node list through next
    std::uint32_t lruHead = nil;
    std::uint32_t lruTail = nil;
    std::size_t resident = 0;
    /** Dirty bit per arena node; capacityFrames bits, never grows. */
    std::vector<std::uint64_t> dirtyBits;

    /** Open-addressing table of node index + 1 (0 = empty). */
    std::vector<std::uint32_t> table;
    std::uint32_t tableMask = 0;

    /** Eviction tie-break policy; empty = exact LRU tail. */
    VictimSelector victimSel;
};

/**
 * Cold-first victim selector: walk up to @p scan_limit frames from the
 * LRU tail and evict the first one @p hot does not consider hot; when
 * every scanned candidate is hot, fall back to the exact LRU tail
 * (bounded pinning — the cache can never wedge on an all-hot window).
 * Buffer frame keys are 4 KiB block numbers, i.e. tracker frames. The
 * returned functor captures {pointer, u32}, comfortably inside the
 * 48-byte inline budget (pinned by a static_assert in the tests).
 */
DramBuffer::VictimSelector
makeColdFirstSelector(const HotnessTracker& hot, std::uint32_t scan_limit);

} // namespace hams

#endif // HAMS_SSD_DRAM_BUFFER_HH_
