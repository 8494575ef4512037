#include "simt/simt_stack.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace vgiw
{

namespace
{

/** Lanes of a warp that branch to the same successor. */
struct Group
{
    int succ;
    uint32_t mask;
};

} // namespace

SimtStack::SimtStack(uint32_t initial_mask, int entry_block)
{
    if (initial_mask)
        stack_.push_back(Entry{entry_block, kReconvergeAtExit,
                               initial_mask});
}

void
SimtStack::dropEmptyTop()
{
    while (!stack_.empty() && stack_.back().mask == 0)
        stack_.pop_back();
}

void
SimtStack::advance(const std::array<int, 32> &lane_succ,
                   const PostDominators &pd)
{
    vgiw_assert(!stack_.empty(), "advance on a finished warp");
    const Entry e = stack_.back();
    stack_.pop_back();

    // Partition the active lanes by successor block; exited lanes drop
    // out of the mask entirely. At most one group per lane, so a fixed
    // array holds them: the warp terminator path never touches the heap.
    std::array<Group, 32> groups;
    int n = 0;
    for (uint32_t m = e.mask; m; m &= m - 1) {
        const int lane = std::countr_zero(m);
        const int succ = lane_succ[size_t(lane)];
        vgiw_assert(succ != kLaneInactive,
                    "active lane reported as inactive");
        if (succ == kLaneExit)
            continue;
        int g = 0;
        while (g < n && groups[size_t(g)].succ != succ)
            ++g;
        if (g == n)
            groups[size_t(n++)] = Group{succ, 0};
        groups[size_t(g)].mask |= uint32_t(1) << lane;
    }

    if (n == 0) {
        dropEmptyTop();
        return;
    }

    if (n == 1) {
        const auto [succ, mask] = groups[0];
        bool merged = false;
        if (succ == e.rpc) {
            // Reconvergence: the lanes rejoin the entry pushed when the
            // warp diverged. Sibling divergent entries may still sit
            // above it, so search downwards for pc == rpc.
            for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
                if (it->pc == succ) {
                    it->mask |= mask;
                    merged = true;
                    break;
                }
            }
        }
        if (!merged)
            stack_.push_back(Entry{succ, e.rpc, mask});
        dropEmptyTop();
        return;
    }

    // Divergence: reconverge at the immediate post-dominator of the
    // branching block.
    const int ip = pd.ipdom(e.pc);
    const int rpc = ip == PostDominators::kVirtualExit ? kReconvergeAtExit
                                                       : ip;

    // Reconvergence entry (reuse the one below when it already targets
    // the same block, which happens for back-to-back divergence). Track
    // it by index: pushes may reallocate the stack.
    long reconv = -1;
    if (rpc != kReconvergeAtExit) {
        for (long i = long(stack_.size()) - 1; i >= 0; --i) {
            if (stack_[i].pc == rpc) {
                reconv = i;
                break;
            }
        }
        if (reconv < 0) {
            stack_.push_back(Entry{rpc, e.rpc, 0});
            reconv = long(stack_.size()) - 1;
        }
    }

    // Push target entries, larger block IDs first so the smallest block
    // ID executes first (matching GPGPU taken-path-first scheduling and
    // keeping loop bodies before loop exits).
    std::sort(groups.begin(), groups.begin() + n,
              [](const Group &a, const Group &b) {
                  return a.succ > b.succ;
              });
    for (int g = 0; g < n; ++g) {
        const auto [succ, mask] = groups[size_t(g)];
        if (reconv >= 0 && succ == rpc)
            stack_[size_t(reconv)].mask |= mask;
        else
            stack_.push_back(Entry{succ, rpc, mask});
    }
    dropEmptyTop();
}

} // namespace vgiw
