#include <gtest/gtest.h>

#include "helpers/test_kernels.hh"
#include "simt/simt_stack.hh"

namespace vgiw
{
namespace
{

std::array<int, 32>
succs(std::initializer_list<std::pair<int, int>> lane_to_succ)
{
    std::array<int, 32> out;
    out.fill(SimtStack::kLaneInactive);
    for (auto [lane, succ] : lane_to_succ)
        out[lane] = succ;
    return out;
}

TEST(SimtStack, StartsAtEntryWithFullMask)
{
    SimtStack s(0xff, 0);
    EXPECT_FALSE(s.done());
    EXPECT_EQ(s.currentBlock(), 0);
    EXPECT_EQ(s.activeMask(), 0xffu);
    EXPECT_EQ(s.activeLanes(), 8);
}

TEST(SimtStack, UniformBranchKeepsOneEntry)
{
    Kernel k = testing::makeFig1Kernel();
    PostDominators pd(k);
    SimtStack s(0b11, 0);
    s.advance(succs({{0, 1}, {1, 1}}), pd);
    EXPECT_EQ(s.currentBlock(), 1);
    EXPECT_EQ(s.activeMask(), 0b11u);
    EXPECT_EQ(s.depth(), 1u);
}

TEST(SimtStack, DivergenceExecutesBothPathsThenReconverges)
{
    Kernel k = testing::makeFig1Kernel();
    PostDominators pd(k);
    // Lanes 0-2 take BB2 (id 1), lanes 3-4 take BB3 (id 2); ipdom(BB1)
    // is BB6 (id 5).
    SimtStack s(0b11111, 0);
    s.advance(succs({{0, 1}, {1, 1}, {2, 1}, {3, 2}, {4, 2}}), pd);

    // Smallest block first: BB2 under mask {0,1,2}.
    EXPECT_EQ(s.currentBlock(), 1);
    EXPECT_EQ(s.activeMask(), 0b00111u);
    s.advance(succs({{0, 5}, {1, 5}, {2, 5}}), pd);

    // Then BB3 under the complementary mask.
    EXPECT_EQ(s.currentBlock(), 2);
    EXPECT_EQ(s.activeMask(), 0b11000u);
    s.advance(succs({{3, 5}, {4, 5}}), pd);

    // Reconverged: BB6 with the full mask.
    EXPECT_EQ(s.currentBlock(), 5);
    EXPECT_EQ(s.activeMask(), 0b11111u);
    EXPECT_EQ(s.depth(), 1u);
}

TEST(SimtStack, NestedDivergenceMatchesFig1b)
{
    Kernel k = testing::makeFig1Kernel();
    PostDominators pd(k);
    // The paper's 8-thread pattern: {0,2,7}->BB2, {1,6}->BB4, {3,4,5}->BB5.
    SimtStack s(0xff, 0);
    s.advance(succs({{0, 1}, {1, 2}, {2, 1}, {3, 2}, {4, 2},
                     {5, 2}, {6, 2}, {7, 1}}),
              pd);
    EXPECT_EQ(s.currentBlock(), 1);  // BB2 mask {0,2,7}
    EXPECT_EQ(s.activeMask(), 0b10000101u);
    s.advance(succs({{0, 5}, {2, 5}, {7, 5}}), pd);

    EXPECT_EQ(s.currentBlock(), 2);  // BB3 mask {1,3,4,5,6}
    EXPECT_EQ(s.activeMask(), 0b01111010u);
    s.advance(succs({{1, 3}, {3, 4}, {4, 4}, {5, 4}, {6, 3}}), pd);

    EXPECT_EQ(s.currentBlock(), 3);  // BB4 mask {1,6}
    EXPECT_EQ(s.activeMask(), 0b01000010u);
    s.advance(succs({{1, 5}, {6, 5}}), pd);

    EXPECT_EQ(s.currentBlock(), 4);  // BB5 mask {3,4,5}
    EXPECT_EQ(s.activeMask(), 0b00111000u);
    s.advance(succs({{3, 5}, {4, 5}, {5, 5}}), pd);

    EXPECT_EQ(s.currentBlock(), 5);  // BB6, everyone back
    EXPECT_EQ(s.activeMask(), 0xffu);
    s.advance(succs({{0, -1}, {1, -1}, {2, -1}, {3, -1}, {4, -1},
                     {5, -1}, {6, -1}, {7, -1}}),
              pd);
    EXPECT_TRUE(s.done());
}

TEST(SimtStack, LoopIteratesUntilAllLanesExit)
{
    Kernel k = testing::makeLoopKernel();
    PostDominators pd(k);
    // head=1, body=2, done=3. Lane 0 iterates twice, lane 1 once.
    SimtStack s(0b11, 1);
    s.advance(succs({{0, 2}, {1, 2}}), pd);   // both enter body
    EXPECT_EQ(s.currentBlock(), 2);
    s.advance(succs({{0, 1}, {1, 1}}), pd);   // back edge
    EXPECT_EQ(s.currentBlock(), 1);
    s.advance(succs({{0, 2}, {1, 3}}), pd);   // lane 1 leaves the loop
    EXPECT_EQ(s.currentBlock(), 2);           // body first (smaller id)
    EXPECT_EQ(s.activeMask(), 0b01u);
    s.advance(succs({{0, 1}}), pd);
    EXPECT_EQ(s.currentBlock(), 1);
    s.advance(succs({{0, 3}}), pd);           // lane 0 exits the loop
    EXPECT_EQ(s.currentBlock(), 3);
    EXPECT_EQ(s.activeMask(), 0b11u);         // reconverged in 'done'
}

TEST(SimtStack, ThreadExitDropsLanes)
{
    Kernel k = testing::makeFig1Kernel();
    PostDominators pd(k);
    SimtStack s(0b111, 5);
    s.advance(succs({{0, -1}, {1, -1}, {2, -1}}), pd);
    EXPECT_TRUE(s.done());
}

TEST(SimtStack, PartialExitKeepsRemainingLanes)
{
    Kernel k = testing::makeLoopKernel();
    PostDominators pd(k);
    SimtStack s(0b11, 1);
    // Lane 1's thread exits immediately (succ -1 through 'done' path is
    // modelled here as exit); lane 0 continues to body.
    s.advance(succs({{0, 2}, {1, -1}}), pd);
    EXPECT_EQ(s.currentBlock(), 2);
    EXPECT_EQ(s.activeMask(), 0b01u);
}

TEST(SimtStack, ThirtyTwoWayDivergenceThenNestedReconvergence)
{
    // A 32-arm switch inside a loop: head 0 branches lane l to arm
    // 1 + l, every arm joins the latch 33, and the latch either loops
    // back to 0 or leaves to 34. ipdom(head) = latch, ipdom(latch) =
    // exit, so the second trip's divergence nests inside the first
    // reconvergence entry.
    std::vector<int> ipd(35, 33);
    ipd[33] = 34;
    ipd[34] = PostDominators::kVirtualExit;
    const PostDominators pd = PostDominators::fromIpdoms(ipd);
    constexpr uint32_t kAll = 0xffffffffu;
    constexpr uint32_t kOdd = 0xaaaaaaaau;
    constexpr uint32_t kEven = 0x55555555u;

    std::array<int, 32> arms;
    for (int lane = 0; lane < 32; ++lane)
        arms[size_t(lane)] = 1 + lane;
    SimtStack s(kAll, 0);
    s.advance(arms, pd);
    // One entry per arm above the (still empty) latch entry.
    EXPECT_EQ(s.depth(), 33u);
    for (int lane = 0; lane < 32; ++lane) {
        // Smallest block first: arm 1 + lane runs lane alone.
        ASSERT_EQ(s.currentBlock(), 1 + lane);
        ASSERT_EQ(s.activeMask(), uint32_t(1) << lane);
        s.advance(succs({{lane, 33}}), pd);
    }
    EXPECT_EQ(s.currentBlock(), 33);
    EXPECT_EQ(s.activeMask(), kAll);
    EXPECT_EQ(s.depth(), 1u);

    // Latch: even lanes leave the loop, odd lanes take another trip.
    std::array<int, 32> latch;
    for (int lane = 0; lane < 32; ++lane)
        latch[size_t(lane)] = lane % 2 ? 0 : 34;
    s.advance(latch, pd);
    EXPECT_EQ(s.currentBlock(), 0);
    EXPECT_EQ(s.activeMask(), kOdd);
    EXPECT_EQ(s.depth(), 2u);  // exit entry (even lanes) + loop trip

    // Second trip: a 16-way divergence nested under the exit entry.
    std::array<int, 32> odd_arms;
    odd_arms.fill(SimtStack::kLaneInactive);
    for (int lane = 1; lane < 32; lane += 2)
        odd_arms[size_t(lane)] = 1 + lane;
    s.advance(odd_arms, pd);
    EXPECT_EQ(s.depth(), 1u + 1u + 16u);  // exit, latch, 16 arms
    for (int lane = 1; lane < 32; lane += 2) {
        ASSERT_EQ(s.currentBlock(), 1 + lane);
        ASSERT_EQ(s.activeMask(), uint32_t(1) << lane);
        s.advance(succs({{lane, 33}}), pd);
    }
    // Inner reconvergence at the latch: only the odd lanes.
    EXPECT_EQ(s.currentBlock(), 33);
    EXPECT_EQ(s.activeMask(), kOdd);
    EXPECT_EQ(s.depth(), 2u);

    // Outer reconvergence: the odd lanes rejoin the even ones.
    std::array<int, 32> leave;
    leave.fill(SimtStack::kLaneInactive);
    for (int lane = 1; lane < 32; lane += 2)
        leave[size_t(lane)] = 34;
    s.advance(leave, pd);
    EXPECT_EQ(s.currentBlock(), 34);
    EXPECT_EQ(s.activeMask(), kOdd | kEven);
    EXPECT_EQ(s.depth(), 1u);

    std::array<int, 32> exits;
    exits.fill(SimtStack::kLaneExit);
    s.advance(exits, pd);
    EXPECT_TRUE(s.done());
}

} // namespace
} // namespace vgiw
