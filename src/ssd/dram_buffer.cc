#include "ssd/dram_buffer.hh"

#include <algorithm>

#include "core/hotness_tracker.hh"
#include "sim/logging.hh"

namespace hams {

DramBuffer::DramBuffer(const DramBufferConfig& cfg)
    : cfg(cfg), capacityFrames(cfg.capacity / cfg.frameSize),
      psPerByte(1e12 / cfg.bandwidth)
{
    if (capacityFrames == 0)
        fatal("DRAM buffer smaller than one frame");

    // Table at <= 50% load so linear probes stay short.
    std::uint64_t want = std::uint64_t(capacityFrames) * 2;
    std::uint64_t size = 16;
    while (size < want)
        size <<= 1;
    table.assign(size, 0);
    tableMask = static_cast<std::uint32_t>(size - 1);
    // The arena never outgrows capacityFrames, so neither does this.
    dirtyBits.assign((capacityFrames + 63) / 64, 0);
}

Tick
DramBuffer::access(std::uint32_t bytes, Tick at)
{
    Tick start = std::max(at, busyUntil);
    auto occupancy = static_cast<Tick>(
        static_cast<double>(bytes) * psPerByte);
    Tick done = start + cfg.accessLatency + occupancy;
    busyUntil = start + occupancy;
    _bytesAccessed += bytes;
    return done;
}

std::uint32_t
DramBuffer::findSlot(std::uint64_t key) const
{
    std::uint32_t slot = idealSlot(key);
    while (table[slot] != 0) {
        if (nodes[table[slot] - 1].key == key)
            return slot;
        slot = (slot + 1) & tableMask;
    }
    return slot;
}

void
DramBuffer::eraseSlot(std::uint32_t slot)
{
    // Backward-shift deletion (Knuth 6.4 R): pull displaced entries
    // into the hole so probe chains never break, without tombstones.
    for (;;) {
        table[slot] = 0;
        std::uint32_t hole = slot;
        std::uint32_t j = slot;
        for (;;) {
            j = (j + 1) & tableMask;
            if (table[j] == 0)
                return;
            std::uint32_t ideal = idealSlot(nodes[table[j] - 1].key);
            // If ideal lies cyclically in (hole, j], the entry is
            // already as close to home as it can get.
            bool stays = hole <= j ? (hole < ideal && ideal <= j)
                                   : (hole < ideal || ideal <= j);
            if (stays)
                continue;
            table[hole] = table[j];
            slot = j;
            break;
        }
    }
}

std::uint32_t
DramBuffer::allocNode()
{
    if (freeHead != nil) {
        std::uint32_t n = freeHead;
        freeHead = nodes[n].next;
        return n;
    }
    HAMS_LINT_SUPPRESS("node-arena growth to the resident high-water "
                       "mark; steady state recycles off the free list")
    nodes.emplace_back();
    return static_cast<std::uint32_t>(nodes.size() - 1);
}

void
DramBuffer::freeNode(std::uint32_t node)
{
    setDirty(node, false);
    nodes[node].next = freeHead;
    freeHead = node;
}

void
DramBuffer::lruUnlink(std::uint32_t node)
{
    Node& n = nodes[node];
    if (n.prev != nil)
        nodes[n.prev].next = n.next;
    else
        lruHead = n.next;
    if (n.next != nil)
        nodes[n.next].prev = n.prev;
    else
        lruTail = n.prev;
}

void
DramBuffer::lruPushFront(std::uint32_t node)
{
    Node& n = nodes[node];
    n.prev = nil;
    n.next = lruHead;
    if (lruHead != nil)
        nodes[lruHead].prev = node;
    lruHead = node;
    if (lruTail == nil)
        lruTail = node;
}

bool
DramBuffer::lookup(std::uint64_t key)
{
    std::uint32_t slot = findSlot(key);
    if (table[slot] == 0)
        return false;
    std::uint32_t node = table[slot] - 1;
    lruUnlink(node);
    lruPushFront(node);
    return true;
}

bool
DramBuffer::isDirty(std::uint64_t key) const
{
    std::uint32_t slot = findSlot(key);
    return table[slot] != 0 && nodeDirty(table[slot] - 1);
}

BufferEviction
DramBuffer::insert(std::uint64_t key, bool dirty)
{
    BufferEviction ev;
    std::uint32_t slot = findSlot(key);
    if (table[slot] != 0) {
        std::uint32_t node = table[slot] - 1;
        lruUnlink(node);
        lruPushFront(node);
        if (dirty)
            setDirty(node, true);
        return ev;
    }

    if (resident >= capacityFrames) {
        std::uint32_t victim = lruTail;
        if (victimSel) {
            std::uint32_t pick = victimSel(*this);
            if (pick != nil)
                victim = pick;
        }
        ev.happened = true;
        ev.dirty = nodeDirty(victim);
        ev.frameKey = nodes[victim].key;
        lruUnlink(victim);
        eraseSlot(findSlot(nodes[victim].key));
        freeNode(victim);
        --resident;
        // The backward shift may have moved entries; re-locate the
        // insertion slot for the new key.
        slot = findSlot(key);
    }

    std::uint32_t node = allocNode();
    nodes[node].key = key;
    setDirty(node, dirty);
    lruPushFront(node);
    table[slot] = node + 1;
    ++resident;
    return ev;
}

void
DramBuffer::markClean(std::uint64_t key)
{
    std::uint32_t slot = findSlot(key);
    if (table[slot] != 0)
        setDirty(table[slot] - 1, false);
}

void
DramBuffer::erase(std::uint64_t key)
{
    std::uint32_t slot = findSlot(key);
    if (table[slot] == 0)
        return;
    std::uint32_t node = table[slot] - 1;
    lruUnlink(node);
    eraseSlot(slot);
    freeNode(node);
    --resident;
}

std::vector<std::uint64_t>
DramBuffer::dirtyFrames() const
{
    std::vector<std::uint64_t> out;
    dirtyFrames(out);
    return out;
}

void
DramBuffer::dirtyFrames(std::vector<std::uint64_t>& out) const
{
    out.clear();
    // Keys are unique, so sorting makes the order independent of where
    // each frame's node sits in the arena.
    for (std::size_t w = 0; w < dirtyBits.size(); ++w)
        for (std::uint64_t bits = dirtyBits[w]; bits != 0; bits &= bits - 1)
            HAMS_LINT_SUPPRESS("caller-owned scratch grows to the dirty "
                               "high-water mark; capacity is reused "
                               "across calls")
            out.push_back(nodes[w * 64 + __builtin_ctzll(bits)].key);
    std::sort(out.begin(), out.end());
}

DramBuffer::VictimSelector
makeColdFirstSelector(const HotnessTracker& hot, std::uint32_t scan_limit)
{
    // The lambda runs per eviction on the hot path via InlineFunction
    // type erasure (audited manually per the annotations policy): it
    // walks bounded LRU links and probes the tracker — no allocation,
    // no hash, pure integer reads.
    const HotnessTracker* h = &hot;
    return [h, scan_limit](const DramBuffer& buf)
               -> std::uint32_t {
        std::uint32_t n = buf.lruTailNode();
        for (std::uint32_t i = 0; i < scan_limit && n != DramBuffer::nilNode;
             ++i, n = buf.lruPrevNode(n)) {
            if (!h->isHotFrame(buf.nodeKey(n)))
                return n;
        }
        return DramBuffer::nilNode; // all-hot window: exact LRU tail
    };
}

void
DramBuffer::dropAll()
{
    std::fill(table.begin(), table.end(), 0);
    std::fill(dirtyBits.begin(), dirtyBits.end(), 0);
    nodes.clear();
    freeHead = nil;
    lruHead = nil;
    lruTail = nil;
    resident = 0;
}

} // namespace hams
