#include "mem/cache.hh"

#include <bit>

namespace vgiw
{

Cache::Cache(std::string name, const CacheGeometry &geom)
    : name_(std::move(name)), geom_(geom)
{
    vgiw_assert(geom_.sizeBytes % (geom_.lineBytes * geom_.ways) == 0,
                "cache '", name_, "': size not divisible by line*ways");
    vgiw_assert(geom_.numSets() > 0, "cache '", name_, "': zero sets");
    vgiw_assert(std::has_single_bit(geom_.lineBytes),
                "cache '", name_, "': line size not a power of two");
    lines_.resize(size_t(geom_.numSets()) * geom_.ways);
    numSets_ = geom_.numSets();
    lineShift_ = uint32_t(std::countr_zero(geom_.lineBytes));
    setShift_ = std::has_single_bit(numSets_)
                    ? int32_t(std::countr_zero(numSets_))
                    : -1;
    bankMask_ = std::has_single_bit(geom_.banks) ? int32_t(geom_.banks - 1)
                                                 : -1;
}

Cache::Result
Cache::accessMiss(Line *base, uint32_t tag, bool is_write)
{
    Result res;
    if (is_write)
        ++stats_.writeMisses;
    else
        ++stats_.readMisses;

    const bool allocate =
        !is_write || geom_.allocPolicy == AllocPolicy::WriteAllocate;

    if (is_write &&
        (geom_.writePolicy == WritePolicy::WriteThrough || !allocate)) {
        // The word itself travels to the next level.
        ++stats_.writethroughs;
        res.forwardWrite = true;
    }

    if (!allocate)
        return res;

    // Victim selection: invalid way first, else LRU.
    Line *victim = &base[0];
    for (uint32_t w = 0; w < geom_.ways; ++w) {
        Line &ln = base[w];
        if (!ln.valid) {
            victim = &ln;
            break;
        }
        if (ln.lastUse < victim->lastUse)
            victim = &ln;
    }

    if (victim->valid && victim->dirty) {
        ++stats_.writebacks;
        res.writeback = true;
    }

    ++stats_.fills;
    res.fill = true;
    victim->valid = true;
    victim->tag = tag;
    victim->lastUse = tick_;
    victim->dirty =
        is_write && geom_.writePolicy == WritePolicy::WriteBack;

    return res;
}

void
Cache::reset()
{
    for (auto &ln : lines_)
        ln = Line{};
    stats_ = CacheStats{};
    tick_ = 0;
}

} // namespace vgiw
