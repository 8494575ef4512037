/**
 * @file
 * The traced run's re-drive of the experiment engine's job pipeline.
 *
 * The simulator library carries no tracing of its own, so the traced
 * run cannot look inside ExperimentEngine::run(). Instead it walks the
 * same job list through the same public calls the engine makes, in the
 * engine's order and with the engine's caching rules (one functional
 * execution per workload, make() before the name memo is published,
 * one compilation per (compile key, kernel)), and records one span per
 * layer call:
 *
 *   workloads.make       WorkloadEntry::make
 *   interp.trace         Runner::trace (interpreter + golden check)
 *   decode.intern        TraceSet::buildAccessIntern
 *   compile.<arch>       CoreModel::compile
 *   replay.<arch>        CoreModel::run
 *   driver.store_load    ArtifactStore::load + deserialisation
 *   driver.store_publish serialisation + ArtifactStore::publish
 *   driver.render        ResultTable::fill + renderRow
 *   driver.journal_append ResultJournal::append
 *   driver.cache_wait    waiting on another worker's cache entry
 *
 * each nested under a per-job "job" span whose self time is the
 * remaining bookkeeping. Its rendered rows must hash to the same digest
 * as the engine's, which proves the two did the same work.
 *
 * The decode and mem layers are not separable from replay from the
 * outside, so probeDecodeAndMem() measures them on their own: a
 * ThreadCursor walk over each replayed trace set, and every global
 * access of it through a fresh MemorySystem with each L1 policy.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "driver/artifact_store.hh"
#include "driver/experiment_engine.hh"
#include "spans.hh"

namespace perfbench
{

/** How a sweep reaches its artifact store. */
enum class StoreUse
{
    None,     ///< no store
    Publish,  ///< cold: publish every trace and compiled kernel
    Load,     ///< warm: load them, falling back to computing on a miss
};

struct TracedOptions
{
    unsigned workers = 1;
    StoreUse store = StoreUse::None;
    vgiw::ArtifactStore *artifacts = nullptr;  ///< open, when store != None
    vgiw::ResultJournal *journal = nullptr;    ///< open, or null
};

struct TracedOutcome
{
    double wallMs = 0;
    std::vector<vgiw::JobResult> results;
    uint64_t digest = 0;  ///< rowsDigest() of the rendered rows
    uint64_t functionalExecutions = 0;
    uint64_t compilations = 0;
    /** Traces of every workload the sweep ran, by workload name. */
    std::map<std::string, std::shared_ptr<const vgiw::TraceSet>> traces;
};

/** Run @p jobs through the engine's pipeline, one span per layer call. */
TracedOutcome runTracedSweep(const std::vector<vgiw::ExperimentJob> &jobs,
                             const TracedOptions &opts, SpanLog &log,
                             int phase);

struct ProbeCounts
{
    uint64_t execs = 0;     ///< block executions walked
    uint64_t accesses = 0;  ///< global accesses fed to one policy
    /** Probe times of one workload, summed over its config points. */
    struct Times
    {
        double decodeMs = 0;
        double memVgiwMs = 0;   ///< VGIW L1 policy (also SGMF, DICE)
        double memFermiMs = 0;  ///< Fermi L1 policy
    };
    std::map<std::string, Times> byWorkload;
};

/**
 * Spans "decode", "mem.vgiw_policy" and "mem.fermi_policy" for every
 * (workload, config point) of @p jobs, over the traces in @p traces —
 * the decode and memory work each arch's replay of that point contains.
 */
ProbeCounts probeDecodeAndMem(
    const std::vector<vgiw::ExperimentJob> &jobs,
    const std::map<std::string, std::shared_ptr<const vgiw::TraceSet>>
        &traces,
    SpanLog &log, int phase);

/**
 * FNV-1a over every rendered row plus its newline: the bytes
 * `vgiw_run --suite --json` writes for the same job list.
 */
uint64_t rowsDigest(vgiw::ResultTable &table);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
