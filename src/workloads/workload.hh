/**
 * @file
 * Workload abstraction: a kernel hand-lowered into the VGIW IR, a launch
 * configuration, a pre-initialised memory image, and a golden check that
 * validates the functional execution against a native C++ reference —
 * the role the as-is Rodinia CUDA kernels play in the paper (Table 2).
 */

#ifndef VGIW_WORKLOADS_WORKLOAD_HH
#define VGIW_WORKLOADS_WORKLOAD_HH

#include <functional>
#include <string>
#include <vector>

#include "interp/memory_image.hh"
#include "ir/kernel.hh"

namespace vgiw
{

/** One benchmark kernel instance, ready to run. */
struct WorkloadInstance
{
    std::string suite;   ///< e.g. "BFS" (Table 2's Application column)
    std::string domain;  ///< e.g. "Graph Algorithms"
    Kernel kernel;
    LaunchParams launch;
    /**
     * Inputs laid out and initialised. Empty by default: every maker
     * assigns its own image, so a default of the full 16 MiB would be
     * zero-filled only to be thrown away.
     */
    MemoryImage memory{0};

    /**
     * Validates the post-run memory against a natively computed
     * reference. Returns true on success; on failure fills @p error.
     */
    std::function<bool(const MemoryImage &, std::string &error)> check;

    std::string
    fullName() const
    {
        return suite + "/" + kernel.name;
    }
};

/** A named workload constructor. */
struct WorkloadEntry
{
    std::string name;  ///< suite/kernel
    std::function<WorkloadInstance()> make;
};

/** All benchmark kernels of the evaluation (Table 2). */
const std::vector<WorkloadEntry> &workloadRegistry();

/** Look up one workload by its suite/kernel name; fatal if unknown. */
WorkloadInstance makeWorkload(const std::string &name);

} // namespace vgiw

#endif // VGIW_WORKLOADS_WORKLOAD_HH
