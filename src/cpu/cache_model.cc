#include "cpu/cache_model.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace hams {

CacheModel::CacheModel(const CacheConfig& cfg) : cfg(cfg)
{
    if (cfg.ways == 0)
        fatal("CacheConfig::ways must be >= 1");
    if (cfg.lineBytes == 0)
        fatal("CacheConfig::lineBytes must be >= 1");
    std::uint64_t lines = cfg.sizeBytes / cfg.lineBytes;
    if (lines < cfg.ways)
        fatal("CacheConfig::sizeBytes (", cfg.sizeBytes,
              ") must hold at least one set of ways x lineBytes (",
              cfg.ways, " x ", cfg.lineBytes, ")");
    if (lines % cfg.ways != 0)
        fatal("CacheConfig::ways (", cfg.ways,
              ") must divide sizeBytes / lineBytes (", lines, ")");
    sets = static_cast<std::uint32_t>(lines / cfg.ways);
    tags.assign(std::size_t(sets) * cfg.ways, emptyTag);
    meta.assign(std::size_t(sets) * cfg.ways, Meta{});

    pow2 = isPow2(cfg.lineBytes) && isPow2(sets);
    if (pow2) {
        lineShift = log2u64(cfg.lineBytes);
        setShift = log2u64(sets);
        setMask = sets - 1;
    }
}

CacheResult
CacheModel::access(Addr addr, bool is_write)
{
    Addr line;
    std::uint32_t set;
    std::uint64_t tag;
    if (pow2) {
        line = addr >> lineShift;
        set = static_cast<std::uint32_t>(line & setMask);
        tag = line >> setShift;
    } else {
        line = addr / cfg.lineBytes;
        set = static_cast<std::uint32_t>(line % sets);
        tag = line / sets;
    }
    std::size_t base = std::size_t(set) * cfg.ways;
    std::uint64_t* set_tags = &tags[base];

    CacheResult res;
    ++lruClock;

    for (std::uint32_t w = 0; w < cfg.ways; ++w) {
        if (set_tags[w] == tag) {
            Meta& m = meta[base + w];
            m.lru = lruClock;
            m.dirty |= is_write;
            ++_hits;
            res.hit = true;
            return res;
        }
    }

    // Miss: pick the LRU (or first invalid) way.
    ++_misses;
    std::uint32_t victim = 0;
    for (std::uint32_t w = 0; w < cfg.ways; ++w) {
        if (set_tags[w] == emptyTag) {
            victim = w;
            break;
        }
        if (meta[base + w].lru < meta[base + victim].lru)
            victim = w;
    }

    Meta& vm = meta[base + victim];
    if (set_tags[victim] != emptyTag && vm.dirty) {
        res.evictedDirty = true;
        res.evictedLine =
            (set_tags[victim] * sets + set) * cfg.lineBytes;
    }
    set_tags[victim] = tag;
    vm.dirty = is_write;
    vm.lru = lruClock;
    return res;
}

void
CacheModel::flush()
{
    std::fill(tags.begin(), tags.end(), emptyTag);
    std::fill(meta.begin(), meta.end(), Meta{});
}

} // namespace hams
