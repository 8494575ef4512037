#include "mem/memory_system.hh"

namespace vgiw
{

CacheGeometry
vgiwL1Geometry()
{
    CacheGeometry g;
    g.sizeBytes = 64 * 1024;
    g.lineBytes = 128;
    g.ways = 4;
    g.banks = 32;
    g.writePolicy = WritePolicy::WriteBack;
    g.allocPolicy = AllocPolicy::WriteAllocate;
    return g;
}

CacheGeometry
fermiL1Geometry()
{
    CacheGeometry g = vgiwL1Geometry();
    g.writePolicy = WritePolicy::WriteThrough;
    g.allocPolicy = AllocPolicy::WriteNoAllocate;
    return g;
}

CacheGeometry
l2Geometry()
{
    CacheGeometry g;
    g.sizeBytes = 768 * 1024;
    g.lineBytes = 128;
    g.ways = 16;
    g.banks = 6;
    g.writePolicy = WritePolicy::WriteBack;
    g.allocPolicy = AllocPolicy::WriteAllocate;
    return g;
}

MemorySystem::MemorySystem(const CacheGeometry &l1_geom,
                           const CacheGeometry &l2_geom,
                           const DramConfig &dram_cfg,
                           const MemTimings &timings)
    : l1_("L1", l1_geom), l2_("L2", l2_geom), dram_(dram_cfg),
      timings_(timings)
{}

uint32_t
MemorySystem::accessL2(uint32_t addr, bool is_write, MemLevel &level)
{
    Cache::Result r2 = l2_.access(addr, is_write);
    uint32_t latency = timings_.l2HitLatency;
    if (r2.hit) {
        level = MemLevel::L2;
        return latency;
    }
    level = MemLevel::Dram;
    if (r2.writeback)
        dram_.access(addr);  // victim traffic occupies a channel slot
    if (r2.fill) {
        latency += dram_.access(addr);
    } else if (r2.forwardWrite) {
        // Write that bypasses allocation still travels to DRAM, but the
        // store completes without waiting for it.
        dram_.access(addr);
    }
    return latency;
}

MemAccessResult
MemorySystem::accessL2Direct(uint32_t addr, bool is_write)
{
    MemAccessResult out;
    MemLevel level = MemLevel::L2;
    out.latency = accessL2(addr, is_write, level);
    out.servicedBy = level;
    return out;
}

MemAccessResult
MemorySystem::accessBeyondL1(uint32_t addr, const Cache::Result &r1)
{
    MemAccessResult out;
    out.latency = timings_.l1HitLatency;
    out.servicedBy = MemLevel::L1;

    MemLevel level = MemLevel::L2;
    uint32_t deeper = 0;

    if (r1.writeback) {
        MemLevel wb_level;
        accessL2(addr, true, wb_level);  // victim line to L2
    }
    if (r1.fill) {
        deeper = accessL2(addr, false, level);
    } else if (r1.forwardWrite) {
        // The word goes to L2; a write-through store does not stall the
        // core on the deeper levels, so only the L1 latency is exposed,
        // but the traffic is recorded.
        MemLevel wt_level;
        accessL2(addr, true, wt_level);
        if (r1.hit)
            return out;
        level = wt_level;
    }

    out.servicedBy = level;
    if (r1.fill)
        out.latency += deeper;
    return out;
}

void
MemorySystem::reset()
{
    l1_.reset();
    l2_.reset();
    dram_.reset();
}

} // namespace vgiw
