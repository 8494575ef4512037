/**
 * @file
 * Round-trip tests for the compressed trace codec: randomized
 * ThreadTraces through TraceSet::fromThreads and back via both the
 * materialising decoder (decodeThread) and the streaming ThreadCursor
 * must reproduce every block, successor and access exactly. Also pins
 * the shapes the run code exists for (tight loops) actually compress,
 * and that the exec-only blockExecCount walk matches a full decode.
 */

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "interp/trace.hh"

namespace vgiw
{
namespace
{

/** Append one execution with @p naccs random accesses. */
void
addExec(ThreadTrace &t, std::mt19937_64 &rng, int block, int succ,
        uint32_t naccs)
{
    BlockExec e;
    e.block = uint16_t(block);
    e.succ = int16_t(succ);
    e.accessBegin = uint32_t(t.accesses.size());
    for (uint32_t a = 0; a < naccs; ++a) {
        MemAccess m;
        m.isShared = (rng() % 4) == 0;
        m.isStore = (rng() % 3) == 0;
        // Mix strided progress with jumps; shared stays small.
        m.addr = m.isShared ? uint32_t(rng() % 4096)
                            : uint32_t(0x80000000u + (rng() % (1u << 20)));
        t.accesses.push_back(m);
    }
    e.accessEnd = uint32_t(t.accesses.size());
    t.execs.push_back(e);
}

ThreadTrace
randomTrace(std::mt19937_64 &rng)
{
    ThreadTrace t;
    const int num_blocks = 1 + int(rng() % 12);
    int block = int(rng() % num_blocks);
    const size_t len = rng() % 200;
    for (size_t i = 0; i < len; ++i) {
        const bool exit = i + 1 == len;
        const int succ = exit ? -1 : int(rng() % num_blocks);
        addExec(t, rng, block, succ, uint32_t(rng() % 5));
        if (!exit)
            block = succ;
    }
    return t;
}

void
expectEqual(const ThreadTrace &a, const ThreadTrace &b)
{
    ASSERT_EQ(a.execs.size(), b.execs.size());
    ASSERT_EQ(a.accesses.size(), b.accesses.size());
    for (size_t i = 0; i < a.execs.size(); ++i) {
        EXPECT_EQ(a.execs[i].block, b.execs[i].block) << "exec " << i;
        EXPECT_EQ(a.execs[i].succ, b.execs[i].succ) << "exec " << i;
        EXPECT_EQ(a.execs[i].accessBegin, b.execs[i].accessBegin);
        EXPECT_EQ(a.execs[i].accessEnd, b.execs[i].accessEnd);
    }
    for (size_t i = 0; i < a.accesses.size(); ++i) {
        EXPECT_EQ(a.accesses[i].addr, b.accesses[i].addr) << "acc " << i;
        EXPECT_EQ(a.accesses[i].isStore, b.accesses[i].isStore);
        EXPECT_EQ(a.accesses[i].isShared, b.accesses[i].isShared);
    }
}

TEST(TraceCodec, RandomizedRoundTrip)
{
    std::mt19937_64 rng(42);
    for (int round = 0; round < 20; ++round) {
        std::vector<ThreadTrace> threads(1 + rng() % 8);
        for (auto &t : threads)
            t = randomTrace(rng);
        const TraceSet ts =
            TraceSet::fromThreads(nullptr, LaunchParams{}, threads);
        ASSERT_EQ(ts.numThreads(), threads.size());
        uint64_t execs = 0, accs = 0;
        for (uint32_t tid = 0; tid < threads.size(); ++tid) {
            EXPECT_EQ(ts.numExecs(tid), threads[tid].execs.size());
            EXPECT_EQ(ts.numAccesses(tid), threads[tid].accesses.size());
            expectEqual(threads[tid], ts.decodeThread(tid));
            execs += threads[tid].execs.size();
            accs += threads[tid].accesses.size();
        }
        EXPECT_EQ(ts.totalBlockExecs(), execs);
        EXPECT_EQ(ts.totalAccesses(), accs);
    }
}

TEST(TraceCodec, CursorSkipsUnconsumedAccesses)
{
    // A replay model may advance without draining an execution's
    // accesses; the cursor must resynchronise the delta chains.
    std::mt19937_64 rng(7);
    ThreadTrace t = randomTrace(rng);
    const std::vector<ThreadTrace> threads{t};
    const TraceSet ts =
        TraceSet::fromThreads(nullptr, LaunchParams{}, threads);

    size_t i = 0;
    uint32_t consumed_phase = 0;
    for (ThreadCursor c = ts.thread(0); !c.done(); c.nextExec(), ++i) {
        ASSERT_LT(i, t.execs.size());
        EXPECT_EQ(c.block(), int(t.execs[i].block));
        EXPECT_EQ(c.succ(), int(t.execs[i].succ));
        const uint32_t nacc = c.numAccesses();
        ASSERT_EQ(nacc, t.execs[i].accessEnd - t.execs[i].accessBegin);
        // Consume a varying prefix: 0, all, half, 1, ...
        const uint32_t take = nacc == 0 ? 0 : consumed_phase % (nacc + 1);
        consumed_phase += 1;
        for (uint32_t a = 0; a < take; ++a) {
            const MemAccess got = c.nextAccess();
            const MemAccess &want = t.accesses[t.execs[i].accessBegin + a];
            EXPECT_EQ(got.addr, want.addr);
            EXPECT_EQ(got.isStore, want.isStore);
            EXPECT_EQ(got.isShared, want.isShared);
        }
    }
    EXPECT_EQ(i, t.execs.size());
}

TEST(TraceCodec, BlockExecCountMatchesFullDecode)
{
    std::mt19937_64 rng(11);
    std::vector<ThreadTrace> threads(6);
    for (auto &t : threads)
        t = randomTrace(rng);
    const TraceSet ts =
        TraceSet::fromThreads(nullptr, LaunchParams{}, threads);
    for (int b = 0; b < 12; ++b) {
        uint64_t want = 0;
        for (const auto &t : threads)
            for (const auto &e : t.execs)
                want += e.block == b;
        EXPECT_EQ(ts.blockExecCount(b), want) << "block " << b;
    }
}

TEST(TraceCodec, TightLoopCompresses)
{
    // The shape the run token exists for: a two-block loop body
    // iterated many times. The encoded stream must be far smaller
    // than the raw arrays (conservatively: at least 8x).
    std::mt19937_64 rng(3);
    ThreadTrace t;
    for (int it = 0; it < 1000; ++it) {
        addExec(t, rng, 4, 5, 0);
        addExec(t, rng, 5, it + 1 < 1000 ? 4 : -1, 0);
    }
    const std::vector<ThreadTrace> threads{t};
    const TraceSet ts =
        TraceSet::fromThreads(nullptr, LaunchParams{}, threads);
    expectEqual(t, ts.decodeThread(0));
    EXPECT_LT(ts.compressedBytes() * 8, ts.uncompressedBytes());
}

TEST(TraceCodec, CursorWalkMatchesDecodeAtSixteenBitBlockIds)
{
    // Block ids at the ends of the 16-bit range the cursor stores them
    // in (unsigned block, signed successor), inside loops long enough
    // for run tokens, with and without the access intern pool.
    std::mt19937_64 rng(16);
    std::vector<ThreadTrace> threads(3);
    for (int it = 0; it < 40; ++it) {
        addExec(threads[0], rng, 0, 32767, 2);
        addExec(threads[0], rng, 32767, 0, 1);
    }
    addExec(threads[0], rng, 0, -1, 0);
    // Repeated (block, successor, count) tuples: the loops encode as
    // run tokens. The successor need not name the next block here.
    for (int it = 0; it < 25; ++it) {
        addExec(threads[1], rng, 65535, 32767, 1);
        addExec(threads[1], rng, 32767, 0, 0);
        addExec(threads[1], rng, 65534, -32768, 3);
    }
    addExec(threads[1], rng, 65535, -1, 1);
    addExec(threads[2], rng, 65535, -1, 2);

    TraceSet ts = TraceSet::fromThreads(nullptr, LaunchParams{}, threads);

    for (int pass = 0; pass < 2; ++pass) {
        if (pass == 1)
            ts.buildAccessIntern();
        for (uint32_t tid = 0; tid < threads.size(); ++tid) {
            const ThreadTrace decoded = ts.decodeThread(tid);
            expectEqual(threads[tid], decoded);
            size_t i = 0, acc = 0;
            for (ThreadCursor c = ts.thread(tid); !c.done();
                 c.nextExec(), ++i) {
                ASSERT_LT(i, decoded.execs.size());
                const BlockExec &e = decoded.execs[i];
                EXPECT_EQ(c.block(), int(e.block)) << "exec " << i;
                EXPECT_EQ(c.succ(), int(e.succ)) << "exec " << i;
                ASSERT_EQ(c.numAccesses(), e.accessEnd - e.accessBegin);
                for (uint32_t a = 0; a < c.numAccesses(); ++a, ++acc) {
                    const MemAccess got = c.nextAccess();
                    EXPECT_EQ(got.addr, decoded.accesses[acc].addr);
                    EXPECT_EQ(got.isStore, decoded.accesses[acc].isStore);
                    EXPECT_EQ(got.isShared,
                              decoded.accesses[acc].isShared);
                }
            }
            EXPECT_EQ(i, decoded.execs.size());
        }
    }
}

TEST(TraceCodec, EmptyAndSingleExecThreads)
{
    std::vector<ThreadTrace> threads(3);
    std::mt19937_64 rng(9);
    // threads[0]: empty. threads[1]: one exec, no accesses.
    addExec(threads[1], rng, 2, -1, 0);
    // threads[2]: one exec with accesses.
    addExec(threads[2], rng, 0, -1, 3);
    const TraceSet ts =
        TraceSet::fromThreads(nullptr, LaunchParams{}, threads);
    EXPECT_TRUE(ts.thread(0).done());
    EXPECT_EQ(ts.numExecs(0), 0u);
    expectEqual(threads[1], ts.decodeThread(1));
    expectEqual(threads[2], ts.decodeThread(2));
}

} // namespace
} // namespace vgiw
