/**
 * @file
 * The fuzz_sweep kernel generator, frozen inside the benchmark.
 *
 * The kernels are divergent integer programs: chains of straight-line
 * regions, if/else diamonds on data bits, loops with data-dependent trip
 * counts (some with a diamond inside the body), early exits and
 * data-dependent gathers. They use no shared memory and no barriers, so
 * they drive the replay loops through control-flow shapes the registry
 * (dominated by LUD/NW barriers) lacks.
 *
 * The generator is deliberately a private copy, not the property tests'
 * random-kernel helper: the workload must not change when the tests'
 * generator grows. Its own PRNG is frozen here for the same reason. Any
 * edit to this file changes the fuzz_sweep workload and invalidates
 * comparisons with earlier commits.
 */

#ifndef PERFBENCH_FUZZ_KERNELS_HH
#define PERFBENCH_FUZZ_KERNELS_HH

#include <cstdint>
#include <vector>

#include "workloads/workload.hh"

namespace perfbench
{

/** Kernels fuzz_sweep generates for one seed. */
constexpr int kFuzzKernels = 256;

/**
 * @p count seeded kernels named "FUZZ/fzNNN". Each entry's make() builds
 * the kernel, runs the registry's splitOversizedBlocks pass, lays out
 * its inputs and attaches a golden check computed natively from the
 * same program description. The same seed gives the same entries.
 */
std::vector<vgiw::WorkloadEntry> fuzzWorkloads(uint64_t seed, int count);

} // namespace perfbench

#endif // PERFBENCH_FUZZ_KERNELS_HH
