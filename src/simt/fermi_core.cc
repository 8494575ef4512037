#include "simt/fermi_core.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <optional>
#include <vector>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "driver/artifact_store.hh"
#include "ir/post_dominators.hh"
#include "mem/memory_system.hh"
#include "simt/simt_stack.hh"

namespace vgiw
{

namespace
{

constexpr uint64_t kNever = std::numeric_limits<uint64_t>::max();

/** Per-warp execution state. */
struct Warp
{
    int cta = 0;
    int tid0 = 0;  ///< global tid of lane 0; lane l runs tid0 + l
    SimtStack stack{0, 0};
    size_t instrIdx = 0;
    bool blockStarted = false;
    uint64_t readyAt = 0;
    bool atBarrier = false;
    bool done = false;
};

/**
 * One block as the issue loop sees it, gathered once per run from the
 * kernel and the compile artifact so an issue reads a single table
 * entry instead of chasing the kernel's block and decode vectors.
 */
struct IssueBlock
{
    const FermiDecodedInstr *instrs = nullptr;
    size_t numInstrs = 0;
    bool branch = false;  ///< terminator is a branch instruction
    bool condRf = false;  ///< that branch reads a condition register
    bool barrier = false;
};

} // namespace

std::string
FermiConfig::validate() const
{
    if (warpSize < 1 || warpSize > 32) {
        return "fermi: warpSize (" + std::to_string(warpSize) +
               ") must be in [1, 32] (lane state is 32 wide)";
    }
    if (maxResidentWarps < 1)
        return "fermi: maxResidentWarps must be at least 1";
    if (maxResidentCtas < 1)
        return "fermi: maxResidentCtas must be at least 1";
    if (scuIssueCycles < 1)
        return "fermi: scuIssueCycles must be at least 1 (a zero-cost "
               "issue stalls the clock)";
    return {};
}

std::string
FermiCore::compileKey() const
{
    // Decode and the post-dominator tree depend on the kernel alone:
    // one artifact serves every Fermi configuration point.
    return "fermi";
}

std::string
FermiCore::replayKey() const
{
    // The scheduler limits and latencies the issue loop reads; the
    // compile artifact is configuration-independent (see compileKey).
    return "warp:" + std::to_string(cfg_.warpSize) +
           "|res:" + std::to_string(cfg_.maxResidentWarps) + "," +
           std::to_string(cfg_.maxResidentCtas) +
           "|scu:" + std::to_string(cfg_.scuIssueCycles) +
           "|dep:" + std::to_string(cfg_.aluDependencyLatency) +
           "|shm:" + std::to_string(cfg_.sharedLatency);
}

std::shared_ptr<const CompiledKernel>
FermiCore::compile(const Kernel &k) const
{
    auto ck = std::make_shared<FermiCompiledKernel>(k);
    ck->decoded.reserve(k.blocks.size());
    ck->branchCondRf.reserve(k.blocks.size());
    for (const auto &blk : k.blocks) {
        std::vector<FermiDecodedInstr> ds;
        ds.reserve(blk.instrs.size());
        for (const Instr &in : blk.instrs) {
            FermiDecodedInstr d;
            for (const auto &s : in.src)
                if (s.isRegisterRead())
                    ++d.rfAccesses;
            if (in.op != Opcode::Store)
                ++d.rfAccesses;  // destination write
            d.isMemory = in.isMemory();
            d.isShared = in.space == MemSpace::Shared;
            d.isStore = in.op == Opcode::Store;
            d.resource = opcodeResource(in.op, in.type);
            ds.push_back(d);
        }
        ck->decoded.push_back(std::move(ds));
        ck->branchCondRf.push_back(blk.term.kind == TermKind::Branch &&
                                   blk.term.cond.isRegisterRead());
    }
    return ck;
}

namespace
{
/** Bumped when the Fermi artifact payload layout changes. */
constexpr uint32_t kFermiArtifactVersion = 1;
} // namespace

std::string
FermiCore::serializeArtifact(const CompiledKernel &compiled) const
{
    const auto *ck = dynamic_cast<const FermiCompiledKernel *>(&compiled);
    if (!ck)
        return {};
    std::string out;
    ByteWriter w(out);
    w.u32(kFermiArtifactVersion);
    const std::vector<int> &ipd = ck->pd.ipdoms();
    w.u64(ipd.size());
    w.raw(ipd.data(), ipd.size() * sizeof(int));
    w.u64(ck->decoded.size());
    for (const auto &ds : ck->decoded) {
        w.u64(ds.size());
        for (const FermiDecodedInstr &d : ds) {
            w.u32(d.rfAccesses);
            w.u8(uint8_t(d.isMemory) | uint8_t(d.isShared) << 1 |
                 uint8_t(d.isStore) << 2);
            w.u8(uint8_t(d.resource));
        }
    }
    w.u64(ck->branchCondRf.size());
    w.raw(ck->branchCondRf.data(), ck->branchCondRf.size());
    return out;
}

std::shared_ptr<const CompiledKernel>
FermiCore::deserializeArtifact(std::string_view bytes) const
{
    ByteReader r(bytes.data(), bytes.size());
    if (r.u32() != kFermiArtifactVersion)
        return nullptr;
    const uint64_t n_ipd = r.u64();
    const uint8_t *p =
        r.ok() && n_ipd <= r.remaining() / sizeof(int)
            ? r.bytes(size_t(n_ipd) * sizeof(int))
            : nullptr;
    if (!p)
        return nullptr;
    std::vector<int> ipd;
    ipd.resize(size_t(n_ipd));
    if (n_ipd)  // memcpy into an empty vector's null data() is UB
        std::memcpy(ipd.data(), p, size_t(n_ipd) * sizeof(int));
    auto ck = std::make_shared<FermiCompiledKernel>(
        PostDominators::fromIpdoms(std::move(ipd)));

    const uint64_t n_blocks = r.u64();
    if (!r.ok() || n_blocks > r.remaining())
        return nullptr;
    ck->decoded.resize(size_t(n_blocks));
    for (auto &ds : ck->decoded) {
        const uint64_t n = r.u64();
        // 6 wire bytes per decoded instruction.
        if (!r.ok() || n > r.remaining() / 6)
            return nullptr;
        ds.resize(size_t(n));
        for (FermiDecodedInstr &d : ds) {
            d.rfAccesses = r.u32();
            const uint8_t flags = r.u8();
            const uint8_t res = r.u8();
            if (flags > 7 || res > uint8_t(ResourceClass::Mem))
                return nullptr;
            d.isMemory = flags & 1;
            d.isShared = (flags >> 1) & 1;
            d.isStore = (flags >> 2) & 1;
            d.resource = ResourceClass(res);
        }
    }
    const uint64_t n_br = r.u64();
    p = r.ok() && n_br <= r.remaining() ? r.bytes(size_t(n_br))
                                        : nullptr;
    if (!p)
        return nullptr;
    ck->branchCondRf.assign(p, p + n_br);
    if (!r.done())
        return nullptr;
    return ck;
}

RunStats
FermiCore::run(const TraceSet &traces, const CompiledKernel &compiled) const
{
    const auto *ck = dynamic_cast<const FermiCompiledKernel *>(&compiled);
    vgiw_assert(ck, "FermiCore::run needs a Fermi compile artifact");

    const Kernel &k = *traces.kernel;
    const LaunchParams &launch = traces.launch;
    const int num_threads = launch.numThreads();
    const EnergyTable &e = cfg_.energy;

    RunStats rs;
    rs.arch = "fermi";
    rs.kernelName = k.name;

    const PostDominators &pd = ck->pd;
    MemorySystem ms(fermiL1Geometry());

    vgiw_assert(ck->decoded.size() == k.blocks.size() &&
                    ck->branchCondRf.size() == k.blocks.size(),
                "compile artifact/kernel mismatch");
    std::vector<IssueBlock> blocks(k.blocks.size());
    for (size_t b = 0; b < blocks.size(); ++b) {
        const Terminator &term = k.blocks[b].term;
        vgiw_assert(ck->decoded[b].size() == k.blocks[b].instrs.size(),
                    "compile artifact/kernel mismatch");
        blocks[b] = IssueBlock{ck->decoded[b].data(), ck->decoded[b].size(),
                               term.kind == TermKind::Branch,
                               ck->branchCondRf[b] != 0, term.barrier};
    }

    // One forward-only decode cursor per thread: block entry peeks the
    // current exec, memory instructions pull its accesses lane by lane,
    // and the terminator advances it.
    std::vector<ThreadCursor> cursor(size_t{unsigned(num_threads)});
    for (int t = 0; t < num_threads; ++t)
        cursor[size_t(t)] = traces.thread(uint32_t(t));

    // Build warps. CTAs are scheduled in order under the residency
    // limits; warps of resident CTAs interleave on the issue port.
    const int warps_per_cta =
        (launch.ctaSize + cfg_.warpSize - 1) / cfg_.warpSize;
    const int total_warps = launch.numCtas * warps_per_cta;
    std::vector<Warp> warps(static_cast<size_t>(total_warps));
    for (int w = 0; w < total_warps; ++w) {
        Warp &warp = warps[w];
        warp.cta = w / warps_per_cta;
        const int first_in_cta = (w % warps_per_cta) * cfg_.warpSize;
        warp.tid0 = warp.cta * launch.ctaSize + first_in_cta;
        uint32_t mask = 0;
        for (int lane = 0; lane < cfg_.warpSize; ++lane) {
            if (first_in_cta + lane < launch.ctaSize &&
                warp.tid0 + lane < num_threads)
                mask |= uint32_t(1) << lane;
        }
        warp.stack = SimtStack(mask, 0);
        warp.done = warp.stack.done();
    }

    // CTA residency window [cta_lo, cta_hi).
    int resident_ctas = std::min(
        {launch.numCtas, cfg_.maxResidentCtas,
         std::max(1, cfg_.maxResidentWarps / warps_per_cta)});
    int cta_hi = resident_ctas;
    std::vector<int> live_warps_in_cta(size_t(launch.numCtas),
                                       warps_per_cta);

    uint64_t clock = 0;
    uint64_t shared_accesses = 0;
    uint64_t active_lane_slots = 0;  // Fig. 1b: occupied lanes per issue
    uint64_t issued_slots = 0;

    // Observability counters (deterministic scheduling statistics):
    // SIMT-stack pushes/pops across advance() — the divergence and
    // reconvergence events the paper's Fig. 1b waste stems from — and
    // the residency-window pick scans the round-robin issue performs.
    JobMetrics *jm = currentMetricSink();
    uint64_t m_divergence = 0;
    uint64_t m_reconvergence = 0;
    uint64_t m_scans = 0;
    uint64_t m_scan_steps = 0;

    // Scheduler candidate list: warp IDs not yet done, ascending. The
    // per-issue pick scan walks this instead of all warps — completed
    // warps can never be selected again, and without pruning them the
    // scan is O(total warps) per issued instruction (quadratic end-game
    // on large launches, the dominant cost of big SIMT replays).
    std::vector<int> alive;
    alive.reserve(size_t(total_warps));
    for (int w = 0; w < total_warps; ++w)
        if (!warps[w].done)
            alive.push_back(w);

    // Residency is a prefix of CTA (hence warp) IDs, so the resident
    // candidates are alive[0, resident): the bound moves only when a
    // warp finishes or a CTA is admitted. The round-robin pointer is
    // kept as a position in alive — the first candidate after the last
    // pick — so a pick costs no search.
    auto resident_bound = [&] {
        return size_t(std::lower_bound(alive.begin(), alive.end(),
                                       cta_hi * warps_per_cta) -
                      alive.begin());
    };
    size_t resident = resident_bound();
    size_t rr = 0;

    // Barrier release: when every live warp of a CTA is waiting. A
    // CTA's warps occupy the contiguous ID range [cta*warps_per_cta,
    // (cta+1)*warps_per_cta).
    auto try_release_barrier = [&](int cta) {
        const int lo = cta * warps_per_cta;
        const int hi = lo + warps_per_cta;
        int waiting = 0, live = 0;
        for (int w = lo; w < hi; ++w) {
            if (warps[w].done)
                continue;
            ++live;
            if (warps[w].atBarrier)
                ++waiting;
        }
        if (live > 0 && waiting == live) {
            for (int w = lo; w < hi; ++w) {
                if (!warps[w].done && warps[w].atBarrier) {
                    warps[w].atBarrier = false;
                    warps[w].readyAt = clock + 1;
                }
            }
        }
    };

    // Retire the warp at alive[pos] (the one just picked). Its
    // successor in alive slides into its slot, so that slot is now the
    // first candidate after the pick.
    auto on_warp_done = [&](size_t pos) {
        Warp &warp = warps[alive[pos]];
        warp.done = true;
        alive.erase(alive.begin() + long(pos));
        --resident;
        rr = pos;
        if (--live_warps_in_cta[warp.cta] == 0) {
            if (cta_hi < launch.numCtas) {
                ++cta_hi;
                resident = resident_bound();
            }
        } else {
            try_release_barrier(warp.cta);  // it may have been the straggler
        }
    };

    // Livelock containment: polled once per scheduler iteration (every
    // issue, terminator or idle-advance — the loop's unit of work).
    std::optional<Watchdog> wd;
    if (cfg_.watchdog.enabled())
        wd.emplace(cfg_.watchdog, "fermi replay of '" + k.name + "'");

    while (!alive.empty()) {
        if (wd)
            wd->poll(clock, rs.dynBlockExecs, rs.dynThreadOps);
        // Pick the next ready, resident warp: the first candidate in
        // circular warp-ID order after the last pick — round-robin
        // greedy, the same policy as scanning every warp, but bounded
        // by the resident window (<= maxResidentWarps) instead of the
        // launch size; the earliest-wakeup fallback folds into the same
        // pass.
        size_t pos = resident;
        uint64_t next = kNever;
        if (jm)
            ++m_scans;
        if (rr >= resident)
            rr = 0;  // past the window: wrap to the smallest ID
        for (size_t i = 0; i < resident; ++i) {
            size_t j = rr + i;
            if (j >= resident)
                j -= resident;
            if (jm)
                ++m_scan_steps;
            const Warp &warp = warps[alive[j]];
            if (warp.atBarrier)
                continue;
            if (warp.readyAt <= clock) {
                pos = j;
                break;
            }
            next = std::min(next, warp.readyAt);
        }
        if (pos == resident) {
            vgiw_assert(next != kNever, "kernel '", k.name,
                        "': SM deadlock (barrier without release?)");
            clock = next;
            continue;
        }
        const int pick = alive[pos];
        rr = pos + 1;

        Warp &warp = warps[pick];
        const int b = warp.stack.currentBlock();
        const IssueBlock &blk = blocks[size_t(b)];
        const uint32_t mask = warp.stack.activeMask();
        const int active = warp.stack.activeLanes();
        ThreadCursor *const lanes = cursor.data() + warp.tid0;

        // On block entry, check each active lane sits on its next trace
        // exec; the per-thread cursors already point at its accesses.
        if (!warp.blockStarted) {
            for (uint32_t m = mask; m; m &= m - 1) {
                const ThreadCursor &c = lanes[std::countr_zero(m)];
                vgiw_assert(!c.done(),
                            "trace underrun (SIMT replay diverged)");
                vgiw_assert(c.block() == b, "SIMT replay off-trace: warp ",
                            pick, " block ", b, " trace ", c.block());
            }
            warp.blockStarted = true;
            warp.instrIdx = 0;
        }

        if (warp.instrIdx < blk.numInstrs) {
            // ---- Issue one warp instruction. -------------------------
            const FermiDecodedInstr &in = blk.instrs[warp.instrIdx];
            ++warp.instrIdx;
            ++rs.dynWarpInstrs;
            rs.dynThreadOps += uint64_t(active);
            active_lane_slots += uint64_t(active);
            ++issued_slots;

            // Register file: one access per warp register operand plus
            // the result write (Fig. 3's counting rule), pre-counted at
            // decode time.
            const uint32_t rf = in.rfAccesses;
            rs.rfAccesses += rf;
            rs.energy.add(EnergyComponent::RegisterFile,
                          rf * e.rfAccessWarp);
            rs.energy.add(EnergyComponent::Frontend, e.frontendWarpInstr);

            uint64_t issue_cost = 1;

            if (in.isMemory) {
                const bool is_store = in.isStore;
                if (in.isShared) {
                    // Scratchpad: serialised by bank conflicts.
                    std::array<uint32_t, 32> bank{};
                    for (uint32_t m = mask; m; m &= m - 1) {
                        const MemAccess acc =
                            lanes[std::countr_zero(m)].nextAccess();
                        ++bank[(acc.addr / 4) % 32];
                    }
                    shared_accesses += uint64_t(active);
                    const uint32_t passes =
                        *std::max_element(bank.begin(), bank.end());
                    issue_cost = std::max<uint64_t>(1, passes);
                    if (!is_store) {
                        warp.readyAt =
                            clock + issue_cost + cfg_.sharedLatency;
                    }
                    rs.energy.add(EnergyComponent::Scratchpad,
                                  double(active) * e.sharedAccessWord);
                } else {
                    // Coalescer: merge the warp's accesses into 128 B
                    // transactions, issued in ascending line order. At
                    // most 32 lanes -> a sorted stack array, no heap.
                    std::array<uint32_t, 32> lines;
                    int num_lines = 0;
                    for (uint32_t m = mask; m; m &= m - 1) {
                        const MemAccess acc =
                            lanes[std::countr_zero(m)].nextAccess();
                        num_lines = int(bitops::insertSortedUnique(
                            lines.data(), size_t(num_lines),
                            acc.addr / 128));
                    }
                    uint32_t max_lat = 0;
                    for (int i = 0; i < num_lines; ++i) {
                        const MemAccessResult r =
                            ms.access(lines[i] * 128, is_store);
                        max_lat = std::max(max_lat, r.latency);
                        rs.energy.add(EnergyComponent::L1,
                                      e.l1AccessLine);
                    }
                    issue_cost = std::max<uint64_t>(1, uint64_t(num_lines));
                    if (!is_store)
                        warp.readyAt = clock + issue_cost + max_lat;
                    // Stores retire through the write-through path
                    // without stalling the warp.
                }
                rs.energy.add(EnergyComponent::Datapath,
                              double(active) * e.ldstIssue);
            } else {
                switch (in.resource) {
                  case ResourceClass::Scu:
                    issue_cost = uint64_t(cfg_.scuIssueCycles);
                    rs.energy.add(EnergyComponent::Datapath,
                                  double(active) * e.scuOp);
                    break;
                  case ResourceClass::FpAlu:
                    rs.energy.add(EnergyComponent::Datapath,
                                  double(active) * e.fpAluOp);
                    break;
                  default:
                    rs.energy.add(EnergyComponent::Datapath,
                                  double(active) * e.intAluOp);
                    break;
                }
                // The scoreboard blocks this warp until the result can
                // be forwarded to the (almost always dependent) next
                // instruction; other warps fill the gap.
                warp.readyAt = clock + cfg_.aluDependencyLatency;
            }

            clock += issue_cost;
            warp.readyAt = std::max(warp.readyAt, clock);
            continue;
        }

        // ---- Terminator: one branch instruction on the SM. -----------
        if (blk.branch) {
            ++rs.dynWarpInstrs;
            rs.energy.add(EnergyComponent::Frontend, e.frontendWarpInstr);
            if (blk.condRf) {
                ++rs.rfAccesses;
                rs.energy.add(EnergyComponent::RegisterFile,
                              e.rfAccessWarp);
            }
            clock += 1;
        }

        // Consume the execs and collect per-lane successors.
        std::array<int, 32> lane_succ;
        lane_succ.fill(SimtStack::kLaneInactive);
        for (uint32_t m = mask; m; m &= m - 1) {
            const int lane = std::countr_zero(m);
            ThreadCursor &c = lanes[lane];
            const int succ = c.succ();
            c.nextExec();
            lane_succ[size_t(lane)] =
                succ < 0 ? SimtStack::kLaneExit : succ;
        }
        rs.dynBlockExecs += uint64_t(active);

        if (jm) {
            const size_t before = warp.stack.depth();
            warp.stack.advance(lane_succ, pd);
            const size_t after = warp.stack.depth();
            if (after > before)
                m_divergence += after - before;
            else
                m_reconvergence += before - after;
        } else {
            warp.stack.advance(lane_succ, pd);
        }
        warp.blockStarted = false;
        warp.readyAt = std::max(warp.readyAt, clock);

        if (warp.stack.done()) {
            on_warp_done(pos);
        } else if (blk.barrier) {
            warp.atBarrier = true;
            try_release_barrier(warp.cta);
        }
    }

    rs.cycles = std::max(clock, ms.dramServiceCycles());
    rs.energy.add(EnergyComponent::L2,
                  ms.l2().stats().accesses() * e.l2AccessLine);
    rs.energy.add(EnergyComponent::Dram,
                  ms.dram().stats().accesses * e.dramAccessLine);

    rs.l1Stats = ms.l1().stats();
    rs.l2Stats = ms.l2().stats();
    rs.dramStats = ms.dram().stats();
    rs.extra.set("fermi.warps", double(total_warps));
    rs.extra.set("fermi.shared_accesses", double(shared_accesses));
    // SIMD lane occupancy: 1.0 means no divergence waste (Fig. 1b's
    // masked-off lanes push this below 1).
    rs.extra.set("fermi.lane_occupancy",
                 issued_slots ? double(active_lane_slots) /
                                    (32.0 * double(issued_slots))
                              : 0.0);

    if (jm) {
        jm->set("fermi.divergence_events", double(m_divergence));
        jm->set("fermi.reconvergence_events", double(m_reconvergence));
        jm->set("fermi.residency_scans", double(m_scans));
        jm->set("fermi.residency_scan_steps", double(m_scan_steps));
        jm->set("fermi.lane_occupancy",
                issued_slots ? double(active_lane_slots) /
                                   (32.0 * double(issued_slots))
                             : 0.0);
        jm->set("fermi.warps", double(total_warps));
    }
    return rs;
}

} // namespace vgiw
