/**
 * @file
 * The two-level cache hierarchy + DRAM shared by every core model.
 *
 * Table 1 / Section 3.6: a 64 KB 32-bank 4-way L1 (128 B lines), a 768 KB
 * 6-bank 16-way L2, and GDDR5 DRAM. VGIW uses write-back/write-allocate
 * L1 policies, Fermi write-through/write-no-allocate; the rest of the
 * hierarchy is identical — which is exactly how the paper isolates the
 * core's contribution.
 */

#ifndef VGIW_MEM_MEMORY_SYSTEM_HH
#define VGIW_MEM_MEMORY_SYSTEM_HH

#include <cstdint>

#include "mem/cache.hh"
#include "mem/dram.hh"

namespace vgiw
{

/** Latency composition parameters (core cycles @ 1.4 GHz). */
struct MemTimings
{
    uint32_t l1HitLatency = 28;
    uint32_t l2HitLatency = 160;
    // DRAM latency comes from the Dram model on top of the L2 latency.
};

/** Which level ultimately serviced an access. */
enum class MemLevel : uint8_t { L1, L2, Dram };

/** Result of one word access through the hierarchy. */
struct MemAccessResult
{
    uint32_t latency = 0;
    MemLevel servicedBy = MemLevel::L1;
};

/** Builds the Table 1 hierarchy with VGIW L1 policies. */
CacheGeometry vgiwL1Geometry();
/** Builds the Table 1 hierarchy with Fermi L1 policies. */
CacheGeometry fermiL1Geometry();
/** The shared 768 KB L2 (6 banks, 16-way, write-back). */
CacheGeometry l2Geometry();

/** L1 -> L2 -> DRAM hierarchy for one core. */
class MemorySystem
{
  public:
    MemorySystem(const CacheGeometry &l1_geom,
                 const CacheGeometry &l2_geom = l2Geometry(),
                 const DramConfig &dram_cfg = {},
                 const MemTimings &timings = {});

    /**
     * One word access; returns latency and the servicing level. The L1
     * hit — the common case of every replay loop — is inline; anything
     * that reaches the L2 takes the out-of-line miss path.
     */
    MemAccessResult
    access(uint32_t addr, bool is_write)
    {
        const Cache::Result r1 = l1_.access(addr, is_write);
        if (r1.hit && !r1.forwardWrite)
            return MemAccessResult{timings_.l1HitLatency, MemLevel::L1};
        return accessBeyondL1(addr, r1);
    }

    /**
     * An access that bypasses the L1 and goes straight to the L2 — the
     * path used by the Live Value Cache, which is backed by the L2
     * (Section 3.4).
     */
    MemAccessResult accessL2Direct(uint32_t addr, bool is_write);

    Cache &l1() { return l1_; }
    Cache &l2() { return l2_; }
    Dram &dram() { return dram_; }
    const Cache &l1() const { return l1_; }
    const Cache &l2() const { return l2_; }
    const Dram &dram() const { return dram_; }
    const MemTimings &timings() const { return timings_; }

    /** Bandwidth floor from the DRAM channels (see Dram). */
    uint64_t dramServiceCycles() const { return dram_.minServiceCycles(); }

    void reset();

  private:
    /** The rest of access() once the L1 has answered with @p r1. */
    MemAccessResult accessBeyondL1(uint32_t addr, const Cache::Result &r1);

    /** Run an L2-level access (line granularity) and return latency. */
    uint32_t accessL2(uint32_t addr, bool is_write, MemLevel &level);

    Cache l1_;
    Cache l2_;
    Dram dram_;
    MemTimings timings_;
};

} // namespace vgiw

#endif // VGIW_MEM_MEMORY_SYSTEM_HH
