/**
 * @file
 * DICE differential tests: from one shared trace set, the statically
 * scheduled CGRA must report exactly the functional work the other
 * three architectures report (predication changes timing and energy,
 * never semantics), and a dice sweep warm-started from the artifact
 * store must be bit-identical to the cold sweep that populated it.
 */

#include <gtest/gtest.h>

#include <filesystem>

#include "driver/artifact_store.hh"
#include "driver/experiment_engine.hh"
#include "driver/runner.hh"
#include "workloads/workload.hh"

namespace vgiw
{
namespace
{

TEST(DiceDifferential, FunctionalWorkMatchesAllArchsFromSharedTraces)
{
    // A divergence-heavy, a loop-heavy, a multi-kernel and a
    // shared-memory representative; the full registry is swept by
    // SuiteTest.IdenticalWorkAcrossArchitectures.
    const char *workloads[] = {"BFS/Kernel", "NN/euclid", "GE/Fan1",
                               "KMEANS/invert_mapping"};
    SystemConfig cfg;
    Runner runner(cfg);
    for (const char *name : workloads) {
        const ArchComparison c = runner.compare(makeWorkload(name));
        ASSERT_TRUE(c.goldenPassed) << name << ": " << c.goldenError;
        EXPECT_EQ(c.dice.dynBlockExecs, c.vgiw.dynBlockExecs) << name;
        EXPECT_EQ(c.dice.dynBlockExecs, c.fermi.dynBlockExecs) << name;
        if (c.sgmf.supported) {
            EXPECT_EQ(c.dice.dynBlockExecs, c.sgmf.dynBlockExecs)
                << name;
        }
        EXPECT_EQ(c.dice.dynThreadOps, c.vgiw.dynThreadOps) << name;
        // DICE folds oversized blocks instead of rejecting the kernel,
        // so unlike SGMF it must support everything.
        EXPECT_TRUE(c.dice.supported) << name;
    }
}

TEST(DiceDifferential, ColdAndWarmStoreSweepsAreBitIdentical)
{
    const std::string dir =
        ::testing::TempDir() + "vgiw_dice_warm_store";
    std::filesystem::remove_all(dir);

    std::vector<ExperimentJob> jobs;
    for (const char *w : {"BFS/Kernel", "NN/euclid", "GE/Fan1",
                          "KMEANS/invert_mapping"}) {
        ExperimentJob j;
        j.workload = w;
        j.arch = "dice";
        jobs.push_back(j);
    }

    auto sweep = [&](std::vector<std::string> &lines,
                     uint64_t &execs, uint64_t &comps) {
        ArtifactStore store;
        std::string err;
        ASSERT_TRUE(store.open(dir, &err)) << err;
        EngineOptions opts{2};
        opts.artifactStore = &store;
        ExperimentEngine engine(opts);
        auto results = engine.run(jobs);
        ASSERT_EQ(results.size(), jobs.size());
        for (const auto &r : results) {
            ASSERT_TRUE(r.ok()) << r.workload << ": " << r.error;
            lines.push_back(ExperimentEngine::toJsonLine(r));
        }
        execs = engine.traceCache().functionalExecutions();
        comps = engine.compileCache().compilations();
    };

    std::vector<std::string> cold, warm;
    uint64_t cold_execs = 0, cold_comps = 0;
    uint64_t warm_execs = 0, warm_comps = 0;
    sweep(cold, cold_execs, cold_comps);
    sweep(warm, warm_execs, warm_comps);

    // The cold sweep did real work and published dice.ck artifacts; the
    // warm sweep must be served entirely from the store...
    EXPECT_GT(cold_execs, 0u);
    EXPECT_GT(cold_comps, 0u);
    EXPECT_EQ(warm_execs, 0u);
    EXPECT_EQ(warm_comps, 0u);
    // ...and report byte-identical results, artifact serde included.
    ASSERT_EQ(cold.size(), warm.size());
    for (size_t i = 0; i < cold.size(); ++i)
        EXPECT_EQ(cold[i], warm[i]) << jobs[i].workload;

    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace vgiw
