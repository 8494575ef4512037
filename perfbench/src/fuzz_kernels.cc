#include "fuzz_kernels.hh"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>

#include "cgrf/block_splitter.hh"
#include "ir/builder.hh"

namespace perfbench
{

namespace
{

using namespace vgiw;

/** SplitMix64, frozen with the generator (see the header). */
class SplitMix
{
  public:
    explicit SplitMix(uint64_t seed) : s_(seed) {}

    uint64_t
    next()
    {
        uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, n). */
    uint32_t below(uint32_t n) { return uint32_t(next() % n); }

    /** Uniform in [lo, hi]. */
    uint32_t
    range(uint32_t lo, uint32_t hi)
    {
        return lo + below(hi - lo + 1);
    }

  private:
    uint64_t s_;
};

constexpr int kThreads = 512;
constexpr uint32_t kTableWords = 1024;  ///< gather table (power of two)

/** One accumulator update; every kind but Gather is invertible. */
enum class Op : uint8_t
{
    AddImm,  ///< v += imm
    SubImm,  ///< v -= imm
    MulImm,  ///< v *= imm (imm odd)
    XorImm,  ///< v ^= imm
    XorShr,  ///< v ^= v >> imm
    AddShl,  ///< v += v << imm
    Gather,  ///< v ^= table[(v >> imm) & (kTableWords - 1)]
};

struct Step
{
    Op op;
    uint32_t imm;
};
using Steps = std::vector<Step>;

enum class Kind : uint8_t
{
    Straight,     ///< a
    Diamond,      ///< bit ? a : b, then c
    Loop,         ///< (v >> shift) & mask trips of {v += i; a}, then c
    LoopDiamond,  ///< same trips of {v += i; bit ? a : b}, then c
    EarlyExit,    ///< bit ? store a and exit : b
};

struct Region
{
    Kind kind = Kind::Straight;
    Steps a, b, c;
    uint32_t bit = 0;
    uint32_t tripShift = 0;
    uint32_t tripMask = 0;
};

/** A generated kernel's description: the IR and the golden share it. */
struct Program
{
    std::string name;
    int ctaSize = 128;
    uint32_t active = kThreads;  ///< threads with tid < active do work
    std::vector<Region> regions;
    uint64_t dataSeed = 0;
};

Steps
randomSteps(SplitMix &rng, uint32_t lo, uint32_t hi)
{
    Steps steps(rng.range(lo, hi));
    for (Step &s : steps) {
        s.op = Op(rng.below(7));
        switch (s.op) {
          case Op::XorShr:
          case Op::AddShl:
            s.imm = rng.range(1, 19);
            break;
          case Op::Gather:
            s.imm = rng.range(0, 22);
            break;
          case Op::MulImm:
            s.imm = uint32_t(rng.next()) | 1u;
            break;
          default:
            s.imm = uint32_t(rng.next());
        }
    }
    return steps;
}

/**
 * Kernel @p index of a seed. Its shape class follows from the index, so
 * every seed has the same mix: one kernel in three is small (one or two
 * short regions, usually mappable by SGMF), the others have 4 to 10
 * regions, cycling with the index, and one in eight of those also gets a
 * long straight region (60 steps) that the block splitter must cut.
 */
Program
randomProgram(SplitMix &rng, int index)
{
    Program p;
    char name[16];
    std::snprintf(name, sizeof name, "fz%03d", index);
    p.name = name;
    static const int cta_sizes[] = {64, 128, 256};
    p.ctaSize = cta_sizes[rng.below(3)];
    p.active = rng.range(kThreads * 3 / 4, kThreads);
    p.dataSeed = rng.next();
    const bool small = index % 3 == 0;
    const uint32_t regions = small ? 1 + uint32_t(index / 3) % 2
                                   : 4 + uint32_t(index) % 7;
    const uint32_t max_steps = small ? 2 : 8;
    for (uint32_t r = 0; r < regions; ++r) {
        Region g;
        // Weights: straight 2, diamond 3, loop 2, loop+diamond 2,
        // early exit 1.
        static const Kind kinds[] = {
            Kind::Straight, Kind::Straight,    Kind::Diamond,
            Kind::Diamond,  Kind::Diamond,     Kind::Loop,
            Kind::Loop,     Kind::LoopDiamond, Kind::LoopDiamond,
            Kind::EarlyExit};
        g.kind = kinds[rng.below(10)];
        g.bit = rng.below(32);
        g.tripShift = rng.below(28);
        static const uint32_t masks[] = {1, 3, 7};
        g.tripMask = masks[rng.below(3)];
        g.a = randomSteps(rng, 1, max_steps);
        g.b = randomSteps(rng, 1, max_steps);
        g.c = randomSteps(rng, 1, std::min(max_steps, 3u));
        p.regions.push_back(std::move(g));
    }
    if (!small && index % 8 == 1) {
        Region g;
        g.a = randomSteps(rng, 60, 60);
        p.regions.insert(p.regions.begin() + rng.below(regions + 1),
                         std::move(g));
    }
    return p;
}

// ---------------------------------------------------------------------
// Native golden reference.
// ---------------------------------------------------------------------

/** Dynamic work of the golden model: steps applied plus blocks entered. */
struct Cost
{
    uint64_t steps = 0;
    uint64_t blocks = 0;
};

uint32_t
applySteps(const Steps &steps, uint32_t v,
           const std::vector<uint32_t> &table, Cost *cost = nullptr)
{
    if (cost) {
        cost->steps += steps.size();
        ++cost->blocks;
    }
    for (const Step &s : steps) {
        switch (s.op) {
          case Op::AddImm: v += s.imm; break;
          case Op::SubImm: v -= s.imm; break;
          case Op::MulImm: v *= s.imm; break;
          case Op::XorImm: v ^= s.imm; break;
          case Op::XorShr: v ^= v >> s.imm; break;
          case Op::AddShl: v += v << s.imm; break;
          case Op::Gather: v ^= table[(v >> s.imm) & (kTableWords - 1)];
            break;
        }
    }
    return v;
}

uint32_t
goldenThread(const Program &p, uint32_t v,
             const std::vector<uint32_t> &table, Cost *cost = nullptr)
{
    for (const Region &g : p.regions) {
        const uint32_t bit = 1u << g.bit;
        switch (g.kind) {
          case Kind::Straight:
            v = applySteps(g.a, v, table, cost);
            break;
          case Kind::Diamond:
            v = applySteps((v & bit) ? g.a : g.b, v, table, cost);
            v = applySteps(g.c, v, table, cost);
            break;
          case Kind::Loop:
          case Kind::LoopDiamond:
            for (uint32_t i = (v >> g.tripShift) & g.tripMask; i > 0; --i) {
                v += i;
                if (g.kind == Kind::Loop)
                    v = applySteps(g.a, v, table, cost);
                else
                    v = applySteps((v & bit) ? g.a : g.b, v, table, cost);
            }
            v = applySteps(g.c, v, table, cost);
            break;
          case Kind::EarlyExit:
            if (v & bit)
                return applySteps(g.a, v, table, cost);
            v = applySteps(g.b, v, table, cost);
            break;
        }
    }
    return v;
}

// ---------------------------------------------------------------------
// IR emission. Params: 0 = input base, 1 = output base, 2 = gather
// table base, 3 = active thread count.
// ---------------------------------------------------------------------

Operand
emitSteps(BlockRef &blk, const Steps &steps, Operand v)
{
    for (const Step &s : steps) {
        const Operand imm = Operand::constU32(s.imm);
        switch (s.op) {
          case Op::AddImm: v = blk.iadd(v, imm); break;
          case Op::SubImm: v = blk.isub(v, imm); break;
          case Op::MulImm: v = blk.imul(v, imm); break;
          case Op::XorImm: v = blk.ixor(v, imm); break;
          case Op::XorShr: v = blk.ixor(v, blk.ushr(v, imm)); break;
          case Op::AddShl: v = blk.iadd(v, blk.ishl(v, imm)); break;
          case Op::Gather: {
            const Operand idx = blk.iand(
                blk.ushr(v, imm), Operand::constU32(kTableWords - 1));
            const Operand x = blk.load(
                Type::I32, blk.elemAddr(Operand::param(2), idx));
            v = blk.ixor(v, x);
            break;
          }
        }
    }
    return v;
}

Kernel
buildKernel(const Program &p)
{
    KernelBuilder kb(p.name, 4);
    const uint16_t acc = kb.newLiveValue();
    const Operand tid = Operand::special(SpecialReg::Tid);
    int blocks = 0;
    auto fresh = [&kb, &blocks]() {
        return kb.block("b" + std::to_string(blocks++));
    };
    auto store_out = [&tid](BlockRef &blk, Operand v) {
        blk.store(Type::I32, blk.elemAddr(Operand::param(1), tid), v);
    };

    BlockRef guard = fresh();
    BlockRef load = fresh();
    BlockRef done = fresh();
    guard.branch(guard.ilt(tid, Operand::param(3)), load, done);
    done.exit();
    load.out(acc, load.load(Type::I32,
                            load.elemAddr(Operand::param(0), tid)));
    BlockRef cur = fresh();
    load.jump(cur);

    // Invariant: `cur` is a fresh, empty block with acc live in.
    for (const Region &g : p.regions) {
        const Operand bit = Operand::constU32(1u << g.bit);
        BlockRef next = fresh();
        switch (g.kind) {
          case Kind::Straight:
            cur.out(acc, emitSteps(cur, g.a, cur.in(acc)));
            cur.jump(next);
            break;
          case Kind::Diamond: {
            BlockRef t = fresh(), f = fresh(), j = fresh();
            cur.branch(cur.iand(cur.in(acc), bit), t, f);
            t.out(acc, emitSteps(t, g.a, t.in(acc)));
            t.jump(j);
            f.out(acc, emitSteps(f, g.b, f.in(acc)));
            f.jump(j);
            j.out(acc, emitSteps(j, g.c, j.in(acc)));
            j.jump(next);
            break;
          }
          case Kind::Loop:
          case Kind::LoopDiamond: {
            const uint16_t ctr = kb.newLiveValue();
            BlockRef head = fresh(), body = fresh(), exit_b = fresh();
            cur.out(ctr, cur.iand(cur.ushr(cur.in(acc),
                                           Operand::constU32(g.tripShift)),
                                  Operand::constU32(g.tripMask)));
            cur.jump(head);
            head.branch(head.igt(head.in(ctr), Operand::constI32(0)), body,
                        exit_b);
            const Operand v = body.iadd(body.in(acc), body.in(ctr));
            if (g.kind == Kind::Loop) {
                body.out(acc, emitSteps(body, g.a, v));
                body.out(ctr, body.isub(body.in(ctr), Operand::constI32(1)));
                body.jump(head);
            } else {
                BlockRef t = fresh(), f = fresh(), latch = fresh();
                body.out(acc, v);
                body.branch(body.iand(v, bit), t, f);
                t.out(acc, emitSteps(t, g.a, t.in(acc)));
                t.jump(latch);
                f.out(acc, emitSteps(f, g.b, f.in(acc)));
                f.jump(latch);
                latch.out(ctr,
                          latch.isub(latch.in(ctr), Operand::constI32(1)));
                latch.jump(head);
            }
            exit_b.out(acc, emitSteps(exit_b, g.c, exit_b.in(acc)));
            exit_b.jump(next);
            break;
          }
          case Kind::EarlyExit: {
            BlockRef ex = fresh(), cont = fresh();
            cur.branch(cur.iand(cur.in(acc), bit), ex, cont);
            store_out(ex, emitSteps(ex, g.a, ex.in(acc)));
            ex.exit();
            cont.out(acc, emitSteps(cont, g.b, cont.in(acc)));
            cont.jump(next);
            break;
          }
        }
        cur = next;
    }
    store_out(cur, cur.in(acc));
    cur.exit();
    return kb.finish();
}

struct Inputs
{
    std::vector<uint32_t> inputs;  ///< one word per thread
    std::vector<uint32_t> table;   ///< the gather table
};

Inputs
makeInputs(const Program &p)
{
    SplitMix rng(p.dataSeed);
    Inputs d{std::vector<uint32_t>(kThreads),
             std::vector<uint32_t>(kTableWords)};
    for (uint32_t &x : d.inputs)
        x = uint32_t(rng.next());
    for (uint32_t &x : d.table)
        x = uint32_t(rng.next());
    return d;
}

/** The golden model's dynamic work over every active thread. */
Cost
programCost(const Program &p)
{
    const Inputs d = makeInputs(p);
    Cost c;
    for (uint32_t t = 0; t < p.active; ++t)
        goldenThread(p, d.inputs[t], d.table, &c);
    return c;
}

WorkloadInstance
makeInstance(const std::shared_ptr<const Program> &prog)
{
    const Program &p = *prog;
    // Aggregate initialisation builds the small image in place; a
    // default-constructed WorkloadInstance would first zero-fill a
    // 16 MiB MemoryImage that this kernel never uses.
    WorkloadInstance w{"FUZZ", "Generated control flow",
                       splitOversizedBlocks(buildKernel(p)), LaunchParams{},
                       MemoryImage(32u << 10), {}};

    Inputs data = makeInputs(p);
    const uint32_t in = w.memory.allocWords(kThreads);
    const uint32_t out = w.memory.allocWords(kThreads);
    const uint32_t tab = w.memory.allocWords(kTableWords);
    for (uint32_t i = 0; i < kThreads; ++i)
        w.memory.storeWord(in + 4 * i, data.inputs[i]);
    for (uint32_t i = 0; i < kTableWords; ++i)
        w.memory.storeWord(tab + 4 * i, data.table[i]);

    w.launch.ctaSize = p.ctaSize;
    w.launch.numCtas = kThreads / p.ctaSize;
    w.launch.params = {Scalar::fromU32(in), Scalar::fromU32(out),
                       Scalar::fromU32(tab),
                       Scalar::fromI32(int32_t(p.active))};

    w.check = [prog, out, data = std::move(data)](const MemoryImage &mem,
                                                  std::string &err) {
        for (uint32_t t = 0; t < kThreads; ++t) {
            const uint32_t want =
                t < prog->active
                    ? goldenThread(*prog, data.inputs[t], data.table)
                    : 0;
            const uint32_t got = mem.loadWord(out + 4 * t);
            if (got != want) {
                std::ostringstream os;
                os << prog->name << ": out[" << t << "] = " << got
                   << ", want " << want;
                err = os.str();
                return false;
            }
        }
        return true;
    };
    return w;
}

} // namespace

std::vector<WorkloadEntry>
fuzzWorkloads(uint64_t seed, int count)
{
    SplitMix rng(seed);
    std::vector<WorkloadEntry> out;
    out.reserve(size_t(count));
    for (int i = 0; i < count; ++i) {
        // Redraw until the kernel's dynamic work sits in its class's
        // band, so the work of the whole set hardly depends on the seed
        // and jobs_per_s compares across seeds.
        const bool small = i % 3 == 0;
        const uint64_t lo = small ? 2500 : 30000, hi = small ? 10000 : 70000;
        Program p;
        for (;;) {
            p = randomProgram(rng, i);
            const Cost c = programCost(p);
            const uint64_t work = c.steps + 3 * c.blocks;
            if (work >= lo && work <= hi)
                break;
        }
        auto prog = std::make_shared<const Program>(std::move(p));
        out.push_back({"FUZZ/" + prog->name,
                       [prog]() { return makeInstance(prog); }});
    }
    return out;
}

} // namespace perfbench
