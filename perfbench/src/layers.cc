#include "layers.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <future>
#include <mutex>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <tuple>

#include "ir/printer.hh"
#include "mem/memory_system.hh"

namespace perfbench
{

namespace
{

using namespace vgiw;

const char *
archSpan(const char *layer, const std::string &arch)
{
    // Span names need static storage; one table per layer.
    static const char *const replay[] = {"replay.vgiw", "replay.fermi",
                                         "replay.sgmf", "replay.dice"};
    static const char *const compile[] = {"compile.vgiw", "compile.fermi",
                                          "compile.sgmf", "compile.dice"};
    const auto &archs = knownArchitectures();
    for (size_t i = 0; i < archs.size() && i < 4; ++i) {
        if (archs[i] == arch)
            return std::string_view(layer) == "replay" ? replay[i]
                                                       : compile[i];
    }
    return layer;
}

std::string
hex64(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)v);
    return buf;
}

/** A traced workload: owns the instance its traces borrow the kernel of. */
struct TraceEntry
{
    WorkloadInstance instance;
    std::shared_ptr<const TraceSet> traces;
    bool golden = false;
    std::string error;
    SimErrorKind errorKind = SimErrorKind::None;
    std::string storeKey;  ///< kernel content hash + launch, when stored
};

struct CompileEntry
{
    std::shared_ptr<const CompiledKernel> compiled;
};

template <typename T>
using Slot = std::shared_future<std::shared_ptr<const T>>;

/** One traced sweep: the engine's two caches plus its job loop. */
class TracedSweep
{
  public:
    TracedSweep(const std::vector<ExperimentJob> &jobs,
                const TracedOptions &opts, SpanLog &log, int phase)
        : jobs_(jobs), opts_(opts), log_(log), phase_(phase)
    {
    }

    TracedOutcome
    run()
    {
        TracedOutcome out;
        out.results.resize(jobs_.size());
        results_ = &out.results;
        table_.reset(jobs_.size());
        for (size_t i = 0; i < jobs_.size(); ++i) {
            log_.setJobLabel(phase_, int(i),
                             ExperimentEngine::jobKey(jobs_[i]));
        }

        const uint64_t t0 = nowNs();
        const unsigned workers = std::max(
            1u, std::min(opts_.workers, unsigned(jobs_.size())));
        std::vector<SpanBuffer *> bufs;
        for (unsigned w = 0; w < workers; ++w)
            bufs.push_back(&log_.newBuffer());
        auto work = [this](SpanBuffer *buf) {
            for (size_t i; (i = next_.fetch_add(1)) < jobs_.size();)
                runJob(i, *buf);
        };
        if (workers == 1) {
            work(bufs[0]);
        } else {
            std::vector<std::jthread> pool;
            for (unsigned w = 0; w < workers; ++w)
                pool.emplace_back(work, bufs[w]);
        }
        out.digest = rowsDigest(table_);
        out.wallMs = double(nowNs() - t0) / 1e6;

        out.functionalExecutions = execs_.load();
        out.compilations = comps_.load();
        for (auto &[name, slot] : traces_) {
            auto entry = slot.get();
            if (entry->traces) {
                out.traces[name] = std::shared_ptr<const TraceSet>(
                    entry, entry->traces.get());
            }
        }
        return out;
    }

  private:
    void
    runJob(size_t i, SpanBuffer &buf)
    {
        const ExperimentJob &job = jobs_[i];
        ScopedSpan job_span(buf, "job", int(i), phase_);
        JobResult r;
        r.workload = job.workload;
        r.arch = job.arch;
        r.configLabel = job.configLabel;
        try {
            if (std::string msg = job.config.validate(job.arch);
                !msg.empty())
                throw std::runtime_error(msg);
            auto model = makeCoreModel(job.arch, job.config);
            if (!model)
                throw std::runtime_error("unknown arch " + job.arch);
            auto te = traced(job, buf, int(i));
            r.goldenPassed = te->golden;
            if (!te->traces || !te->golden) {
                r.error = te->error.empty() ? "functional execution failed"
                                            : te->error;
                r.errorKind = te->errorKind;
            } else {
                auto ck = compiled(*model, job, te, buf, int(i));
                ScopedSpan s(buf, archSpan("replay", job.arch), int(i),
                             phase_);
                r.stats = model->run(*te->traces, *ck->compiled);
                r.ran = true;
            }
        } catch (const std::exception &e) {
            r.error = e.what();
            r.errorKind = SimErrorKind::Internal;
        }
        {
            ScopedSpan s(buf, "driver.render", int(i), phase_);
            table_.fill(i, r);
            table_.renderRow(i);
        }
        if (opts_.journal) {
            ScopedSpan s(buf, "driver.journal_append", int(i), phase_);
            JournalEntry entry;
            entry.key = ExperimentEngine::jobKey(job);
            entry.ok = r.ok();
            entry.golden = r.goldenPassed;
            entry.jsonLine = std::string(table_.renderRow(i));
            opts_.journal->append(entry);
        }
        (*results_)[i] = std::move(r);
    }

    /** TraceCache::get with nameIsUnique, as the engine calls it. */
    std::shared_ptr<const TraceEntry>
    traced(const ExperimentJob &job, SpanBuffer &buf, int ji)
    {
        Slot<TraceEntry> slot;
        {
            std::lock_guard<std::mutex> lock(mu_);
            auto it = traces_.find(job.workload);
            if (it != traces_.end())
                slot = it->second;
        }
        if (slot.valid()) {
            ScopedSpan s(buf, "driver.cache_wait", ji, phase_);
            return slot.get();
        }

        auto e = std::make_shared<TraceEntry>();
        {
            ScopedSpan s(buf, "workloads.make", ji, phase_);
            e->instance = job.make();
        }
        std::promise<std::shared_ptr<const TraceEntry>> promise;
        bool miss = false;
        {
            std::lock_guard<std::mutex> lock(mu_);
            auto it = traces_.find(job.workload);
            if (it == traces_.end()) {
                miss = true;
                slot = promise.get_future().share();
                traces_.emplace(job.workload, slot);
            } else {
                slot = it->second;
            }
        }
        if (!miss) {
            ScopedSpan s(buf, "driver.cache_wait", ji, phase_);
            return slot.get();
        }

        if (opts_.store != StoreUse::None) {
            e->storeKey = "perfbench|" +
                          hex64(fnv1a(kernelToString(e->instance.kernel))) +
                          "|" + TraceCache::keyFor("", e->instance.launch);
        }
        if (opts_.store == StoreUse::Load && loadTraces(*e, buf, ji)) {
            promise.set_value(e);
            return e;
        }

        execs_.fetch_add(1);
        {
            ScopedSpan s(buf, "interp.trace", ji, phase_);
            try {
                TraceResult tr = Runner{}.trace(e->instance);
                e->traces = tr.traces;
                e->golden = tr.goldenPassed;
                e->error = tr.error;
                e->errorKind = tr.errorKind;
            } catch (const std::exception &ex) {
                e->error = ex.what();
                e->errorKind = SimErrorKind::Functional;
            }
        }
        if (e->traces) {
            // Sole owner until the promise is fulfilled, as in
            // TraceCache: intern before any replay can read the set.
            ScopedSpan s(buf, "decode.intern", ji, phase_);
            const_cast<TraceSet *>(e->traces.get())->buildAccessIntern();
        }
        if (opts_.store == StoreUse::Publish && e->traces && e->golden) {
            ScopedSpan s(buf, "driver.store_publish", ji, phase_);
            std::string payload;
            e->traces->serializeInto(payload);
            opts_.artifacts->publish("trace", e->storeKey, payload);
        }
        promise.set_value(e);
        return e;
    }

    bool
    loadTraces(TraceEntry &e, SpanBuffer &buf, int ji)
    {
        {
            ScopedSpan s(buf, "driver.store_load", ji, phase_);
            ArtifactStore::Blob blob;
            if (!opts_.artifacts->load("trace", e.storeKey, &blob))
                return false;
            auto ts = std::make_shared<TraceSet>();
            if (!TraceSet::deserialize(blob.payload, blob.size,
                                       blob.backing, &e.instance.kernel,
                                       e.instance.launch, *ts))
                return false;
            e.traces = std::move(ts);
        }
        ScopedSpan s(buf, "decode.intern", ji, phase_);
        const_cast<TraceSet *>(e.traces.get())->buildAccessIntern();
        e.golden = true;
        return true;
    }

    /** CompileCache::get, as the engine calls it. */
    std::shared_ptr<const CompileEntry>
    compiled(const CoreModel &model, const ExperimentJob &job,
             const std::shared_ptr<const TraceEntry> &te, SpanBuffer &buf,
             int ji)
    {
        const std::string key =
            model.compileKey() + "||" +
            TraceCache::keyFor(job.workload, te->traces->launch);
        std::promise<std::shared_ptr<const CompileEntry>> promise;
        Slot<CompileEntry> slot;
        bool miss = false;
        {
            std::lock_guard<std::mutex> lock(mu_);
            auto it = compiled_.find(key);
            if (it == compiled_.end()) {
                miss = true;
                slot = promise.get_future().share();
                compiled_.emplace(key, slot);
            } else {
                slot = it->second;
            }
        }
        if (!miss) {
            ScopedSpan s(buf, "driver.cache_wait", ji, phase_);
            return slot.get();
        }

        auto entry = std::make_shared<CompileEntry>();
        const std::string kind = model.name() + ".ck";
        const std::string store_key =
            te->storeKey + "|" + model.compileKey();
        if (opts_.store == StoreUse::Load) {
            ScopedSpan s(buf, "driver.store_load", ji, phase_);
            ArtifactStore::Blob blob;
            if (opts_.artifacts->load(kind, store_key, &blob)) {
                entry->compiled = model.deserializeArtifact(
                    std::string_view(
                        reinterpret_cast<const char *>(blob.payload),
                        blob.size));
            }
        }
        try {
            if (!entry->compiled) {
                comps_.fetch_add(1);
                {
                    ScopedSpan s(buf, archSpan("compile", job.arch), ji,
                                 phase_);
                    entry->compiled = model.compile(*te->traces->kernel);
                }
                if (opts_.store == StoreUse::Publish) {
                    ScopedSpan s(buf, "driver.store_publish", ji, phase_);
                    const std::string bytes =
                        model.serializeArtifact(*entry->compiled);
                    if (!bytes.empty())
                        opts_.artifacts->publish(kind, store_key, bytes);
                }
            }
        } catch (...) {
            promise.set_exception(std::current_exception());
            throw;
        }
        promise.set_value(entry);
        return entry;
    }

    const std::vector<ExperimentJob> &jobs_;
    const TracedOptions &opts_;
    SpanLog &log_;
    const int phase_;

    std::atomic<size_t> next_{0};
    std::atomic<uint64_t> execs_{0};
    std::atomic<uint64_t> comps_{0};
    std::mutex mu_;  ///< guards both cache maps
    std::map<std::string, Slot<TraceEntry>> traces_;
    std::map<std::string, Slot<CompileEntry>> compiled_;
    ResultTable table_;
    std::vector<JobResult> *results_ = nullptr;
};

} // namespace

TracedOutcome
runTracedSweep(const std::vector<ExperimentJob> &jobs,
               const TracedOptions &opts, SpanLog &log, int phase)
{
    return TracedSweep(jobs, opts, log, phase).run();
}

ProbeCounts
probeDecodeAndMem(
    const std::vector<ExperimentJob> &jobs,
    const std::map<std::string, std::shared_ptr<const TraceSet>> &traces,
    SpanLog &log, int phase)
{
    // One probe per (workload, config point): the decode and memory
    // work each arch's replay of that point contains.
    std::map<std::string, size_t> points;
    for (const auto &job : jobs)
        ++points[job.workload + "\n" + job.configLabel];

    SpanBuffer &buf = log.newBuffer();
    ProbeCounts counts;
    uint64_t sink = 0;
    int probe = 0;
    for (const auto &[workload, ts] : traces) {
        size_t reps = 0;
        for (const auto &[key, n] : points) {
            if (key.compare(0, workload.size() + 1, workload + "\n") == 0)
                ++reps;
        }
        // The global access stream, decoded once outside the mem spans
        // so that they time MemorySystem::access alone.
        std::vector<MemAccess> global;
        global.reserve(ts->totalAccesses());
        for (uint32_t t = 0; t < ts->numThreads(); ++t) {
            for (ThreadCursor c = ts->thread(t); !c.done(); c.nextExec()) {
                for (uint32_t a = c.numAccesses(); a > 0; --a) {
                    const MemAccess m = c.nextAccess();
                    if (!m.isShared)
                        global.push_back(m);
                }
            }
        }
        for (size_t r = 0; r < reps; ++r, ++probe) {
            log.setJobLabel(phase, probe, workload);
            ProbeCounts::Times &times = counts.byWorkload[workload];
            uint64_t t0 = nowNs();
            {
                ScopedSpan s(buf, "decode", probe, phase);
                for (uint32_t t = 0; t < ts->numThreads(); ++t) {
                    for (ThreadCursor c = ts->thread(t); !c.done();
                         c.nextExec()) {
                        sink += uint64_t(c.block()) + uint64_t(c.succ());
                        for (uint32_t a = c.numAccesses(); a > 0; --a)
                            sink += c.nextAccess().addr;
                        ++counts.execs;
                    }
                }
            }
            times.decodeMs += double(nowNs() - t0) / 1e6;
            const std::tuple<const char *, CacheGeometry, double *>
                policies[] = {
                    {"mem.vgiw_policy", vgiwL1Geometry(), &times.memVgiwMs},
                    {"mem.fermi_policy", fermiL1Geometry(),
                     &times.memFermiMs},
                };
            for (const auto &[name, l1, ms_out] : policies) {
                t0 = nowNs();
                {
                    ScopedSpan s(buf, name, probe, phase);
                    MemorySystem ms(l1);
                    for (const MemAccess &m : global)
                        sink += ms.access(m.addr, m.isStore).latency;
                }
                *ms_out += double(nowNs() - t0) / 1e6;
            }
            counts.accesses += global.size();
        }
    }
    // Keep the walks observable so they cannot be optimised away.
    if (sink == 0x5eed)
        std::fputs("", stderr);
    return counts;
}

uint64_t
rowsDigest(ResultTable &table)
{
    struct Hasher : ResultSink
    {
        uint64_t h = 14695981039346656037ull;
        void
        row(size_t, std::string_view line) override
        {
            h = fnv1a(line, h);
            h = fnv1a("\n", h);
        }
    } hasher;
    table.renderInto(hasher);
    return hasher.h;
}

} // namespace perfbench
