/**
 * @file
 * perfbench — the repository's benchmark (see perfbench/README.md).
 *
 *   perfbench --workload replay_sweep|cold_suite|fuzz_sweep
 *             [--seed N] [--seconds S] [--trace 0|1] [--quick]
 *             [--work-dir DIR] [--trace-out FILE]
 *
 * Every workload is a list of (workload x arch x config point) jobs run
 * through a fresh ExperimentEngine per timed iteration, as a user's
 * sweep would. With --trace 0 it prints the end-to-end metrics
 * (setup_s, jobs_per_s, peak_rss_mb, ok_frac); with --trace 1 it
 * alternates untraced engine iterations with traced re-drives of the
 * same jobs (layers.hh) and prints the per-layer metrics, writing the
 * spans as Chrome-trace JSON to --trace-out.
 *
 * Every iteration passes a correctness gate: every job golden-checked,
 * identical dynBlockExecs/dynThreadOps across the archs of each
 * (workload, point), zero tracing and compilation in warm iterations,
 * and an FNV-1a digest of the rendered result rows equal to the
 * reference. A violation counts its jobs as failed and makes the
 * command exit 1. The last stdout line is the result JSON.
 */

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <new>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/bitops.hh"
#include "common/json.hh"
#include "driver/artifact_store.hh"
#include "driver/experiment_engine.hh"
#include "driver/result_journal.hh"
#include "fuzz_kernels.hh"
#include "layers.hh"
#include "spans.hh"

// ---------------------------------------------------------------------
// Heap counter local to this binary (alloc.* metrics). It counts only
// while g_counting is set, so untraced end-to-end runs pay one relaxed
// load per allocation and share no written cache line between workers.
// ---------------------------------------------------------------------

namespace
{

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocs{0};
std::atomic<uint64_t> g_alloc_bytes{0};

void *
countedAlloc(std::size_t n, std::size_t align)
{
    if (g_counting.load(std::memory_order_relaxed)) {
        g_allocs.fetch_add(1, std::memory_order_relaxed);
        g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
    }
    void *p = align ? std::aligned_alloc(align, (n + align - 1) & ~(align - 1))
                    : std::malloc(n ? n : 1);
    if (!p)
        throw std::bad_alloc();
    return p;
}

/** Out of line, so no inlined delete pairs a new with free() for GCC. */
[[gnu::noinline]] void
release(void *p) noexcept
{
    std::free(p);
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n, 0); }
void *operator new[](std::size_t n) { return countedAlloc(n, 0); }
void *operator new(std::size_t n, std::align_val_t a)
{
    return countedAlloc(n, std::size_t(a));
}
void *operator new[](std::size_t n, std::align_val_t a)
{
    return countedAlloc(n, std::size_t(a));
}
void operator delete(void *p) noexcept { release(p); }
void operator delete[](void *p) noexcept { release(p); }
void operator delete(void *p, std::size_t) noexcept { release(p); }
void operator delete[](void *p, std::size_t) noexcept { release(p); }
void operator delete(void *p, std::align_val_t) noexcept { release(p); }
void operator delete[](void *p, std::align_val_t) noexcept { release(p); }
void operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    release(p);
}
void operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    release(p);
}

namespace
{

using namespace vgiw;
using namespace perfbench;
namespace fs = std::filesystem;

/** Seed used when --seed is absent (recorded in BENCHMARK.json). */
constexpr uint64_t kDefaultSeed = 1;

/** replay_sweep's replay-side config points per iteration. */
constexpr int kSweepPoints = 4;

struct Args
{
    std::string workload;
    uint64_t seed = kDefaultSeed;
    double seconds = 10;
    bool trace = false;
    bool quick = false;
    std::string workDir = ".bench_build/perfbench-work";
    std::string traceOut;
};

/** What one workload runs. Set-up and timed iterations are both sweeps. */
struct Plan
{
    std::vector<ExperimentJob> setupJobs;
    std::vector<ExperimentJob> jobs;  ///< one timed iteration
    unsigned workers = 1;
    bool setupDurable = false;  ///< set-up writes a fresh store + journal
    bool store = false;         ///< iterations use a store...
    bool warm = false;          ///< ...filled by set-up (else fresh)
    bool journal = false;       ///< iterations write a fresh journal
    bool setupIsIteration = false;  ///< set-up runs the timed job list
};

unsigned
hostWorkers()
{
    // cold_suite's worker count: nproc, capped at 4 so the workload (and
    // its memory) keeps the same shape on bigger hosts.
    const unsigned n = std::thread::hardware_concurrency();
    return std::clamp(n, 1u, 4u);
}

/**
 * replay_sweep's grid. Every point moves a replay-side knob of every
 * arch (VGIW LVC and CVT sizes, Fermi resident warps, SGMF and DICE miss
 * windows), so each job is distinct replay work and no result can be
 * served from a cache; compile keys are unchanged, so the store filled
 * at set-up serves every point. Each arch sees the same four settings
 * under every seed; the seed only permutes which point gets which, so
 * the work of an iteration does not depend on the seed.
 */
std::vector<SystemConfig>
sweepGrid(uint64_t seed)
{
    static const std::pair<uint32_t, uint32_t> vgiw_lvc_cvt[kSweepPoints] = {
        {16 * 1024, 32 * 1024},
        {32 * 1024, 64 * 1024},
        {64 * 1024, 32 * 1024},
        {128 * 1024, 64 * 1024}};
    static const int fermi_warps[kSweepPoints] = {24, 32, 40, 48};
    static const uint32_t windows[kSweepPoints] = {128, 256, 512, 1024};
    uint64_t s = seed;
    auto permutation = [&s]() {
        std::array<size_t, kSweepPoints> p{0, 1, 2, 3};
        for (size_t i = p.size() - 1; i > 0; --i) {
            s = s * 6364136223846793005ull + 1442695040888963407ull;
            std::swap(p[i], p[(s >> 33) % (i + 1)]);
        }
        return p;
    };
    const auto pv = permutation(), pf = permutation(), ps = permutation(),
               pd = permutation();
    std::vector<SystemConfig> grid(kSweepPoints);
    for (size_t i = 0; i < grid.size(); ++i) {
        grid[i].vgiw.lvcBytes = vgiw_lvc_cvt[pv[i]].first;
        grid[i].vgiw.cvtCapacityBits = vgiw_lvc_cvt[pv[i]].second;
        grid[i].fermi.maxResidentWarps = fermi_warps[pf[i]];
        grid[i].sgmf.missWindow = windows[ps[i]];
        grid[i].dice.missWindow = windows[pd[i]];
    }
    return grid;
}

std::vector<ExperimentJob>
registryJobs(const SystemConfig &cfg, const std::string &label)
{
    return ExperimentEngine::suiteJobs(cfg, knownArchitectures(), label);
}

/**
 * The traced re-drive calls each job's make() itself. Registry jobs
 * leave it empty (the engine looks the name up), so the re-drive gets a
 * copy with the registry's make attached.
 */
std::vector<ExperimentJob>
withMakes(std::vector<ExperimentJob> jobs)
{
    for (auto &job : jobs) {
        if (job.make)
            continue;
        for (const auto &e : workloadRegistry())
            if (e.name == job.workload)
                job.make = e.make;
    }
    return jobs;
}

std::vector<ExperimentJob>
fuzzJobs(uint64_t seed)
{
    std::vector<ExperimentJob> jobs;
    for (const auto &e : fuzzWorkloads(seed, kFuzzKernels)) {
        for (const auto &arch : knownArchitectures()) {
            ExperimentJob job;
            job.workload = e.name;
            job.arch = arch;
            job.make = e.make;
            jobs.push_back(std::move(job));
        }
    }
    return jobs;
}

bool
makePlan(const Args &a, Plan *p)
{
    if (a.workload == "replay_sweep") {
        p->setupJobs = registryJobs(SystemConfig{}, "");
        const auto grid = sweepGrid(a.seed);
        for (size_t i = 0; i < grid.size(); ++i) {
            auto pts = registryJobs(grid[i], "pt" + std::to_string(i));
            p->jobs.insert(p->jobs.end(), pts.begin(), pts.end());
        }
        p->setupDurable = true;
        p->store = p->warm = true;
    } else if (a.workload == "cold_suite") {
        p->setupJobs = p->jobs = registryJobs(SystemConfig{}, "");
        p->workers = hostWorkers();
        p->setupDurable = true;
        p->store = p->journal = true;
        p->setupIsIteration = true;
    } else if (a.workload == "fuzz_sweep") {
        // The kernels are generated inside each set-up (Bench::setup).
        p->setupIsIteration = true;
    } else {
        return false;
    }
    return true;
}

// ---------------------------------------------------------------------
// One engine sweep and its correctness gate.
// ---------------------------------------------------------------------

struct Sweep
{
    double wallMs = 0;
    std::vector<JobResult> results;
    uint64_t digest = 0;
    uint64_t functionalExecutions = 0;
    uint64_t compilations = 0;
    uint64_t storeHits = 0, storeMisses = 0, storeBytes = 0;
    uint64_t allocs = 0, allocBytes = 0;
};

/** Open the store rooted at @p dir; a failure ends the run. */
void
openStore(ArtifactStore &store, const std::string &dir)
{
    std::string err;
    if (!store.open(dir, &err)) {
        std::fprintf(stderr, "artifact store: %s\n", err.c_str());
        std::exit(1);
    }
}

/** Create a journal for @p jobs at @p path; a failure ends the run. */
void
openJournal(ResultJournal &journal, const std::string &path,
            const std::vector<ExperimentJob> &jobs)
{
    std::string err;
    if (!journal.create(path, ExperimentEngine::sweepHash(jobs), &err)) {
        std::fprintf(stderr, "journal: %s\n", err.c_str());
        std::exit(1);
    }
}

/**
 * One fresh ExperimentEngine over @p jobs. A fresh store or journal is
 * emptied before the clock starts; opening them is timed, as a user's
 * `vgiw_run --suite --artifact-dir --journal` pays for it.
 */
Sweep
engineSweep(const std::vector<ExperimentJob> &jobs, unsigned workers,
            const std::string &storeDir, bool freshStore,
            const std::string &journalPath)
{
    std::error_code ec;
    if (!storeDir.empty() && freshStore)
        fs::remove_all(storeDir, ec);
    if (!journalPath.empty())
        fs::remove(journalPath, ec);

    const uint64_t a0 = g_allocs.load(), b0 = g_alloc_bytes.load();
    const uint64_t t0 = nowNs();
    EngineOptions opts{workers};
    ArtifactStore store;
    if (!storeDir.empty()) {
        openStore(store, storeDir);
        opts.artifactStore = &store;
    }
    ResultJournal journal;
    if (!journalPath.empty()) {
        openJournal(journal, journalPath, jobs);
        opts.journal = &journal;
    }
    ExperimentEngine engine{opts};
    Sweep s;
    s.results = engine.run(jobs);
    s.digest = rowsDigest(engine.resultTable());
    journal.close();
    s.wallMs = double(nowNs() - t0) / 1e6;
    s.allocs = g_allocs.load() - a0;
    s.allocBytes = g_alloc_bytes.load() - b0;
    s.functionalExecutions = engine.traceCache().functionalExecutions();
    s.compilations = engine.compileCache().compilations();
    s.storeHits = store.hits();
    s.storeMisses = store.misses();
    s.storeBytes = store.bytesMapped();
    return s;
}

/** The gate's verdict on one sweep. */
struct Gate
{
    size_t failed = 0;
    std::vector<std::string> why;
};

Gate
gate(const std::vector<JobResult> &results, uint64_t digest,
     uint64_t refDigest, bool warm, uint64_t execs, uint64_t comps)
{
    std::set<size_t> bad;
    Gate g;
    auto note = [&g](std::string msg) {
        if (g.why.size() < 5)
            g.why.push_back(std::move(msg));
    };
    std::map<std::string, std::vector<size_t>> groups;
    for (size_t i = 0; i < results.size(); ++i) {
        const JobResult &r = results[i];
        if (!r.ok() || !r.goldenPassed) {
            bad.insert(i);
            note("job " + r.workload + " [" + r.arch + "] " + r.configLabel +
                 " failed: " + r.error);
        }
        groups[r.workload + "|" + r.configLabel].push_back(i);
    }
    // Cross-arch work identity: every arch replays the same traces.
    for (const auto &[key, idx] : groups) {
        const RunStats *ref = nullptr;
        bool same = true;
        for (size_t i : idx) {
            const RunStats &s = results[i].stats;
            if (!results[i].ran || !s.supported)
                continue;
            if (!ref)
                ref = &s;
            else if (s.dynBlockExecs != ref->dynBlockExecs ||
                     s.dynThreadOps != ref->dynThreadOps)
                same = false;
        }
        if (!same) {
            bad.insert(idx.begin(), idx.end());
            note("work identity broken across archs for " + key);
        }
    }
    bool all = false;
    if (warm && (execs != 0 || comps != 0)) {
        all = true;
        note("warm iteration traced " + std::to_string(execs) +
             " workloads and compiled " + std::to_string(comps));
    }
    if (digest != refDigest) {
        all = true;
        char buf[96];
        std::snprintf(buf, sizeof buf, "rows digest %016llx != %016llx",
                      (unsigned long long)digest,
                      (unsigned long long)refDigest);
        note(buf);
    }
    g.failed = all ? results.size() : bad.size();
    return g;
}

// ---------------------------------------------------------------------
// Statistics and reporting.
// ---------------------------------------------------------------------

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * double(v.size() - 1);
    const size_t lo = size_t(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double median(const std::vector<double> &v) { return quantile(v, 0.5); }

/** Highest order statistic with at least ten samples beyond it. */
double
tailValue(std::vector<double> v, double *percentile)
{
    std::sort(v.begin(), v.end());
    if (v.size() < 11) {
        *percentile = 50;
        return median(v);
    }
    const size_t k = v.size() - 11;
    *percentile = 100.0 * double(k + 1) / double(v.size());
    return v[k];
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("model name", 0) == 0) {
            const size_t c = line.find(':');
            if (c != std::string::npos) {
                size_t b = line.find_first_not_of(" \t", c + 1);
                return b == std::string::npos ? "unknown" : line.substr(b);
            }
        }
    }
    return "unknown";
}

std::string
compilerVersion()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

/**
 * Peak resident memory tracking per timed iteration. Each iteration
 * starts from a trimmed heap, as a fresh sweep process would, with the
 * kernel's high-water mark (VmHWM) reset to the current RSS; otherwise
 * the peak would mostly record where glibc happened to leave freed
 * set-up memory, which differs from seed to seed. Where the reset is
 * unavailable, the whole process's peak (ru_maxrss) is used.
 */
class PeakRss
{
  public:
    void
    start()
    {
        malloc_trim(0);
        std::ofstream out("/proc/self/clear_refs");
        out << "5";
        out.flush();
        reset_ = bool(out);
    }

    double
    peakMb() const
    {
        std::ifstream in("/proc/self/status");
        for (std::string line; reset_ && std::getline(in, line);)
            if (line.rfind("VmHWM:", 0) == 0)
                return std::atof(line.c_str() + 6) / 1024.0;
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        return double(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
    }

    bool perIteration() const { return reset_; }

  private:
    bool reset_ = false;
};

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Simulated-model summary over (workload, point) groups of a sweep. */
std::vector<Metric>
simMetrics(const std::vector<JobResult> &results)
{
    std::vector<Metric> out;
    const auto &archs = knownArchitectures();
    std::map<std::string, double> cycles;
    std::map<std::string, uint64_t> l1a, l1h, l2a, l2h;
    std::map<std::string, std::map<std::string, const RunStats *>> groups;
    std::set<std::string> unmappable;
    for (const auto &r : results) {
        if (!r.ran)
            continue;
        const RunStats &s = r.stats;
        cycles[r.arch] += double(s.cycles);
        l1a[r.arch] += s.l1Stats.accesses();
        l1h[r.arch] += s.l1Stats.accesses() - s.l1Stats.misses();
        l2a[r.arch] += s.l2Stats.accesses();
        l2h[r.arch] += s.l2Stats.accesses() - s.l2Stats.misses();
        groups[r.workload + "|" + r.configLabel][r.arch] = &s;
        if (r.arch == "sgmf" && !s.supported)
            unmappable.insert(r.workload);
    }
    for (const auto &a : archs)
        out.push_back({"sim.cycles." + a, cycles[a], "cycles"});
    for (const auto &a : archs) {
        out.push_back({"sim.l1_hit_ratio." + a,
                       l1a[a] ? double(l1h[a]) / double(l1a[a]) : 0,
                       "ratio"});
    }
    for (const auto &a : archs) {
        out.push_back({"sim.l2_hit_ratio." + a,
                       l2a[a] ? double(l2h[a]) / double(l2a[a]) : 0,
                       "ratio"});
    }
    std::vector<double> vf, vs, ef;
    for (const auto &[key, by] : groups) {
        auto v = by.find("vgiw"), f = by.find("fermi"), s = by.find("sgmf");
        if (v == by.end() || !v->second->cycles)
            continue;
        const RunStats &vg = *v->second;
        if (f != by.end()) {
            vf.push_back(double(f->second->cycles) / double(vg.cycles));
            if (vg.energy.systemPj() > 0)
                ef.push_back(f->second->energy.systemPj() /
                             vg.energy.systemPj());
        }
        if (s != by.end() && s->second->supported)
            vs.push_back(double(s->second->cycles) / double(vg.cycles));
    }
    auto means = [&out](const std::string &name,
                        const std::vector<double> &v) {
        double sum = 0, logs = 0;
        for (double x : v) {
            sum += x;
            logs += std::log(x);
        }
        const double n = double(v.size());
        out.push_back({name + ".amean", v.empty() ? 0 : sum / n, "x"});
        out.push_back({name + ".gmean", v.empty() ? 0 : std::exp(logs / n),
                       "x"});
    };
    means("sim.vgiw_vs_fermi_speedup", vf);
    means("sim.vgiw_vs_sgmf_speedup", vs);
    means("sim.energy_eff_vs_fermi", ef);
    out.push_back(
        {"sim.sgmf_unmappable", double(unmappable.size()), "count"});
    return out;
}

/** The sim.* summary next to the paper's figures. */
void
printSimReport(const std::string &workload,
               const std::vector<JobResult> &results)
{
    std::map<std::string, double> m;
    for (const auto &x : simMetrics(results))
        m[x.name] = x.value;
    std::set<std::string> names;
    for (const auto &r : results)
        names.insert(r.workload);
    std::printf("simulated model (%s, %zu workloads; NOT validated "
                "against hardware):\n",
                workload.c_str(), names.size());
    std::printf("  %-34s %10s %10s %14s\n", "metric", "here", "paper",
                "EXPERIMENTS.md");
    std::printf("  %-34s %9.2fx %10s %14s\n",
                "Fig. 7 speedup vs Fermi (amean)",
                m["sim.vgiw_vs_fermi_speedup.amean"], ">3x", "2.26x");
    std::printf("  %-34s %9.2fx %10s %14s\n",
                "Fig. 8 speedup vs SGMF (amean)",
                m["sim.vgiw_vs_sgmf_speedup.amean"], "~1.45x", "1.12x");
    std::printf("  %-34s %9.2fx %10s %14s\n",
                "Fig. 9 energy eff. vs Fermi (amean)",
                m["sim.energy_eff_vs_fermi.amean"], "1.75x", "1.96x");
    std::printf("  %-34s %6.0f/%-3zu %10s %14s\n", "SGMF unmappable",
                m["sim.sgmf_unmappable"], names.size(), "subset",
                "10/21");
    std::printf("  (the paper and EXPERIMENTS.md columns describe the 21 "
                "registry kernels at the default point: compare them with "
                "cold_suite)\n");
}

void
printProvenance(const Args &a, unsigned workers)
{
    std::printf(
        "provenance {\"cpu_model\": \"%s\", \"nproc\": %u, "
        "\"compiler\": \"%s\", \"build_type\": \"%s\", "
        "\"build_flags\": \"%s\", \"bitops_backend\": \"%s\", "
        "\"workload\": \"%s\", \"seed\": %llu, \"workers\": %u, "
        "\"trace\": %d}\n",
        jsonEscape(cpuModel()).c_str(), std::thread::hardware_concurrency(),
        jsonEscape(compilerVersion()).c_str(), PERFBENCH_BUILD_TYPE,
        jsonEscape(PERFBENCH_BUILD_FLAGS).c_str(), bitops::backendName(),
        a.workload.c_str(), (unsigned long long)a.seed, workers,
        a.trace ? 1 : 0);
}

void
printResult(bool correct, size_t attempted, size_t failed,
            const std::vector<Metric> &metrics)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    char buf[64];
    for (size_t i = 0; i < metrics.size(); ++i) {
        std::snprintf(buf, sizeof buf, "%.17g",
                      std::isfinite(metrics[i].value) ? metrics[i].value
                                                      : 0.0);
        out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
               buf + ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
}

// ---------------------------------------------------------------------
// The run.
// ---------------------------------------------------------------------

class Bench
{
  public:
    Bench(const Args &a, Plan p) : a_(a), p_(std::move(p)) {}

    int
    run()
    {
        fs::create_directories(a_.workDir);
        printProvenance(a_, p_.workers);
        const int reps = a_.quick ? 1 : 3;
        std::vector<double> setup_s;
        for (int r = 0; r < reps; ++r)
            setup_s.push_back(setup());
        std::printf("setup_s: median %.4f over %d set-ups (%s)\n",
                    median(setup_s), reps, digestHex(setupDigest_).c_str());
        const int rc = a_.trace ? traced(median(setup_s))
                                : untraced(median(setup_s));
        std::error_code ec;
        fs::remove_all(a_.workDir, ec);
        return rc;
    }

  private:
    std::string path(const std::string &leaf) const
    {
        return a_.workDir + "/" + leaf;
    }

    static std::string
    digestHex(uint64_t d)
    {
        char buf[32];
        std::snprintf(buf, sizeof buf, "rows digest %016llx",
                      (unsigned long long)d);
        return buf;
    }

    /** One set-up: the sweep every later iteration depends on. */
    double
    setup()
    {
        const uint64_t t0 = nowNs();
        if (a_.workload == "fuzz_sweep")
            p_.setupJobs = p_.jobs = fuzzJobs(a_.seed);
        Sweep s = engineSweep(p_.setupJobs, p_.workers,
                              p_.setupDurable ? path("store") : "", true,
                              p_.setupDurable ? path("journal.jsonl") : "");
        const double secs = double(nowNs() - t0) / 1e9;
        if (!haveSetupDigest_) {
            setupDigest_ = s.digest;
            haveSetupDigest_ = true;
        }
        account(gate(s.results, s.digest, setupDigest_, false, 0, 0),
                s.results.size(), "set-up");
        if (p_.setupIsIteration && !haveRef_) {
            ref_ = s.digest;
            haveRef_ = true;
        }
        return secs;
    }

    /** Timed iteration through the engine. */
    Sweep
    iteration()
    {
        rss_.start();
        Sweep s = engineSweep(p_.jobs, p_.workers,
                              p_.store ? path("store") : "", !p_.warm,
                              p_.journal ? path("journal.jsonl") : "");
        if (!haveRef_) {
            ref_ = s.digest;
            haveRef_ = true;
        }
        account(gate(s.results, s.digest, ref_, p_.warm,
                     s.functionalExecutions, s.compilations),
                s.results.size(), "iteration");
        lastResults_ = s.results;
        peaks_.push_back(rss_.peakMb());
        return s;
    }

    void
    account(const Gate &g, size_t jobs, const char *what)
    {
        attempted_ += jobs;
        failed_ += g.failed;
        for (const auto &w : g.why)
            std::fprintf(stderr, "GATE (%s): %s\n", what, w.c_str());
    }

    bool
    timeLeft(uint64_t t0, size_t done, size_t min_iters) const
    {
        const double elapsed = double(nowNs() - t0) / 1e9;
        return done < min_iters || elapsed < a_.seconds;
    }

    int
    untraced(double setup_s)
    {
        std::vector<double> jps;
        const uint64_t t0 = nowNs();
        const size_t min_iters = a_.quick ? 1 : 3;
        while (timeLeft(t0, jps.size(), min_iters)) {
            Sweep s = iteration();
            jps.push_back(double(s.results.size()) / (s.wallMs / 1e3));
            std::printf("iteration %zu: %zu jobs in %.1f ms (%.1f jobs/s), "
                        "%s\n",
                        jps.size() - 1, s.results.size(), s.wallMs,
                        jps.back(), digestHex(s.digest).c_str());
        }
        std::printf("jobs_per_s: median %.2f, q1 %.2f, q3 %.2f, n %zu "
                    "iterations of %zu jobs\n",
                    median(jps), quantile(jps, 0.25), quantile(jps, 0.75),
                    jps.size(), p_.jobs.size());
        std::printf("peak_rss_mb: median %.2f over %zu iterations (%s)\n",
                    median(peaks_), peaks_.size(),
                    rss_.perIteration() ? "VmHWM per iteration"
                                        : "whole process, ru_maxrss");
        const double failed_frac = double(failed_) / double(attempted_);
        std::printf("failed_frac: %.6f (%zu of %zu jobs)\n", failed_frac,
                    failed_, attempted_);
        printSimReport(a_.workload, lastResults_);
        const std::vector<Metric> metrics = {
            {"setup_s", setup_s, "s"},
            {"jobs_per_s", median(jps), "1/s"},
            {"peak_rss_mb", median(peaks_), "MB"},
            {"ok_frac", 1.0 - failed_frac, "ratio"},
        };
        return finish(metrics);
    }

    int
    finish(const std::vector<Metric> &metrics)
    {
        const bool correct = failed_ == 0;
        printResult(correct, attempted_, failed_, metrics);
        std::fflush(stdout);
        return correct ? 0 : 1;
    }

    int traced(double setup_s);

    const Args &a_;
    Plan p_;
    uint64_t setupDigest_ = 0, ref_ = 0;
    bool haveSetupDigest_ = false, haveRef_ = false;
    size_t attempted_ = 0, failed_ = 0;
    std::vector<JobResult> lastResults_;
    PeakRss rss_;
    std::vector<double> peaks_;
};

/**
 * Per-layer metrics of one (untraced, traced) iteration pair. @p t holds
 * the span totals of the traced iteration, its probes and, where set-up
 * is traced too, of the set-up. @p iterLayerMs is the layer time of the
 * traced iteration alone, @p tracedWallMs its wall time, and
 * @p replayedBy holds "arch|workload" for every replay the spans cover.
 */
std::vector<Metric>
layerMetrics(const std::map<std::string, SpanTotals> &t, double iterLayerMs,
             const Sweep &engine, double tracedWallMs,
             const std::set<std::string> &replayedBy, double threadOps, const ProbeCounts &probe, unsigned workers,
             std::map<std::string, double> *tails)
{
    auto ms = [&t](const std::string &name) {
        auto it = t.find(name);
        return it == t.end() ? 0.0 : it->second.ms;
    };
    std::vector<Metric> m;
    const double decode_ms = ms("decode");
    const double mem_vgiw = ms("mem.vgiw_policy");
    const double mem_fermi = ms("mem.fermi_policy");
    double replay_all = 0, replay_lud = 0;
    for (const auto &a : knownArchitectures()) {
        const std::string span = "replay." + a;
        const double r = ms(span);
        // The decode and mem work inside this arch's replays: the probes
        // of the workloads it actually replayed (SGMF skips the kernels
        // it cannot map).
        double inside = 0;
        for (const auto &[w, pt] : probe.byWorkload) {
            if (replayedBy.count(a + "|" + w))
                inside += pt.decodeMs +
                          (a == "fermi" ? pt.memFermiMs : pt.memVgiwMs);
        }
        m.push_back({"replay." + a + "_ms", r, "ms"});
        m.push_back({"replay." + a + "_self_ms", r - inside, "ms"});
        std::vector<double> d;
        auto it = t.find(span);
        if (it != t.end()) {
            d = it->second.durationsMs;
            for (size_t i = 0; i < d.size(); ++i) {
                replay_all += d[i];
                if (it->second.jobLabels[i].rfind("LUD/", 0) == 0)
                    replay_lud += d[i];
            }
        }
        double pct = 0;
        m.push_back({"replay." + a + "_job_ms_p50", median(d), "ms"});
        m.push_back({"replay." + a + "_job_ms_tail", tailValue(d, &pct),
                     "ms"});
        (*tails)[a] = pct;
    }
    m.push_back({"replay.lud_share",
                 replay_all > 0 ? replay_lud / replay_all : 0, "ratio"});
    m.push_back({"mem.vgiw_policy_ms", mem_vgiw, "ms"});
    m.push_back({"mem.fermi_policy_ms", mem_fermi, "ms"});
    m.push_back({"mem.accesses", double(probe.accesses), "count"});
    m.push_back({"decode.ms", decode_ms, "ms"});
    m.push_back({"decode.execs_per_s",
                 decode_ms > 0 ? double(probe.execs) / (decode_ms / 1e3) : 0,
                 "1/s"});
    m.push_back({"decode.intern_ms", ms("decode.intern"), "ms"});
    m.push_back({"workloads.make_ms", ms("workloads.make"), "ms"});
    const double trace_ms = ms("interp.trace");
    m.push_back({"interp.trace_ms", trace_ms, "ms"});
    m.push_back({"interp.thread_ops_per_s",
                 trace_ms > 0 ? threadOps / (trace_ms / 1e3) : 0, "1/s"});
    for (const auto &a : knownArchitectures())
        m.push_back({"compile." + a + "_ms", ms("compile." + a), "ms"});
    m.push_back({"driver.store_publish_ms", ms("driver.store_publish"), "ms"});
    m.push_back({"driver.store_load_ms", ms("driver.store_load"), "ms"});
    m.push_back(
        {"driver.journal_append_ms", ms("driver.journal_append"), "ms"});
    m.push_back({"driver.render_ms", ms("driver.render"), "ms"});
    m.push_back({"driver.cache_wait_ms", ms("driver.cache_wait"), "ms"});
    m.push_back({"driver.store_hits", double(engine.storeHits), "count"});
    m.push_back({"driver.store_misses", double(engine.storeMisses), "count"});
    m.push_back(
        {"driver.store_bytes_mapped", double(engine.storeBytes), "bytes"});
    m.push_back({"driver.functional_executions",
                 double(engine.functionalExecutions), "count"});
    m.push_back({"driver.compilations", double(engine.compilations),
                 "count"});
    // Thread time the untraced engine had, minus what the layers used
    // in the traced iteration: scheduling, caches, idle workers.
    m.push_back({"driver.engine_overhead_ms",
                 engine.wallMs * double(workers) - iterLayerMs, "ms"});
    const double njobs = double(engine.results.size());
    m.push_back({"alloc.count_per_job", double(engine.allocs) / njobs,
                 "count"});
    m.push_back({"alloc.bytes_per_job", double(engine.allocBytes) / njobs,
                 "bytes"});
    m.push_back({"trace.untraced_wall_ms", engine.wallMs, "ms"});
    m.push_back({"trace.traced_wall_ms", tracedWallMs, "ms"});
    m.push_back({"trace.overhead_ms", tracedWallMs - engine.wallMs, "ms"});
    for (auto &x : simMetrics(engine.results))
        m.push_back(std::move(x));
    return m;
}

/** Thread ops of every workload a traced sweep functionally executed. */
double
tracedThreadOps(const TracedOutcome &o)
{
    if (o.functionalExecutions == 0)
        return 0;
    std::map<std::string, double> ops;
    for (const auto &r : o.results)
        if (r.ran && r.arch == knownArchitectures().front())
            ops[r.workload] = double(r.stats.dynThreadOps);
    double sum = 0;
    for (const auto &[w, v] : ops)
        sum += v;
    return sum;
}

/** Adds "arch|workload" for every job of @p o that replayed. */
void
addReplayed(const TracedOutcome &o, std::set<std::string> *out)
{
    for (const auto &r : o.results)
        if (r.ran && r.stats.supported)
            out->insert(r.arch + "|" + r.workload);
}

int
Bench::traced(double setup_s)
{
    SpanLog log;
    // Where set-up is traced (replay_sweep), its spans, replays and
    // probes count with every iteration's: set-up is where that
    // workload's make, interp, publish and journal work happens.
    std::vector<int> setup_phases;
    double setup_ops = 0;
    std::set<std::string> setup_replayed;
    std::vector<ExperimentJob> probe_jobs;
    const std::string rstore = path("replica-store");
    const std::string rjournal = path("replica-journal.jsonl");
    std::error_code ec;
    if (p_.warm) {
        // The warm iterations load what a traced set-up published.
        fs::remove_all(rstore, ec);
        const int ph = log.addPhase("setup");
        ArtifactStore store;
        ResultJournal journal;
        openStore(store, rstore);
        openJournal(journal, rjournal, p_.setupJobs);
        TracedOptions o;
        o.workers = p_.workers;
        o.store = StoreUse::Publish;
        o.artifacts = &store;
        o.journal = &journal;
        TracedOutcome out =
            runTracedSweep(withMakes(p_.setupJobs), o, log, ph);
        account(gate(out.results, out.digest, setupDigest_, false, 0, 0),
                out.results.size(), "traced set-up");
        setup_phases.push_back(ph);
        setup_ops = tracedThreadOps(out);
        addReplayed(out, &setup_replayed);
        probe_jobs = p_.setupJobs;
    }
    probe_jobs.insert(probe_jobs.end(), p_.jobs.begin(), p_.jobs.end());

    const std::vector<ExperimentJob> replica_jobs = withMakes(p_.jobs);
    std::map<std::string, std::vector<double>> samples;
    std::vector<std::string> order;
    std::map<std::string, std::string> units;
    std::map<std::string, double> tails;
    const uint64_t t0 = nowNs();
    size_t pairs = 0;
    while (timeLeft(t0, pairs, a_.quick ? 1 : 2)) {
        g_counting = true;
        Sweep s = iteration();
        g_counting = false;

        const int ph = log.addPhase("iteration " + std::to_string(pairs));
        ArtifactStore store;
        ResultJournal journal;
        TracedOptions o;
        o.workers = p_.workers;
        if (p_.store) {
            if (!p_.warm)
                fs::remove_all(rstore, ec);
            openStore(store, rstore);
            o.store = p_.warm ? StoreUse::Load : StoreUse::Publish;
            o.artifacts = &store;
        }
        if (p_.journal) {
            fs::remove(rjournal, ec);
            openJournal(journal, rjournal, p_.jobs);
            o.journal = &journal;
        }
        malloc_trim(0);  // start from a heap like the untraced iteration's
        TracedOutcome out = runTracedSweep(replica_jobs, o, log, ph);
        account(gate(out.results, out.digest, s.digest, p_.warm,
                     out.functionalExecutions, out.compilations),
                out.results.size(), "traced iteration");

        const int probe_ph =
            log.addPhase("probe " + std::to_string(pairs));
        const ProbeCounts probe =
            probeDecodeAndMem(probe_jobs, out.traces, log, probe_ph);

        std::vector<int> phases = setup_phases;
        phases.push_back(ph);
        phases.push_back(probe_ph);
        const SpanTotals job = log.totals({ph})["job"];
        std::set<std::string> replayed = setup_replayed;
        addReplayed(out, &replayed);
        const auto metrics = layerMetrics(
            log.totals(phases), job.ms - job.selfMs, s, out.wallMs, replayed,
            setup_ops + tracedThreadOps(out), probe, p_.workers, &tails);
        for (const auto &x : metrics) {
            if (!units.count(x.name)) {
                order.push_back(x.name);
                units[x.name] = x.unit;
            }
            samples[x.name].push_back(x.value);
        }
        std::printf("pair %zu: untraced %.1f ms, traced %.1f ms\n", pairs,
                    s.wallMs, out.wallMs);
        ++pairs;
    }

    double max_self = 0, wall = 0;
    log.selfVsWall(&max_self, &wall);
    std::printf("spans: busiest thread self %.3f ms within wall %.3f ms\n",
                max_self, wall);
    std::printf("replay tails: vgiw p%.1f, fermi p%.1f, sgmf p%.1f, dice "
                "p%.1f (highest percentile with >= 10 jobs beyond it)\n",
                tails["vgiw"], tails["fermi"], tails["sgmf"], tails["dice"]);
    std::printf("setup_s (untraced): %.4f\n", setup_s);
    printSimReport(a_.workload, lastResults_);
    if (!a_.traceOut.empty()) {
        std::ofstream f(a_.traceOut, std::ios::binary);
        f << log.chromeTraceJson();
        if (!f) {
            std::fprintf(stderr, "cannot write %s\n", a_.traceOut.c_str());
            return 1;
        }
        std::printf("chrome trace: %s\n", a_.traceOut.c_str());
    }
    std::vector<Metric> metrics;
    for (const auto &name : order)
        metrics.push_back({name, median(samples[name]), units[name]});
    return finish(metrics);
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "%s\nusage: perfbench --workload "
                 "replay_sweep|cold_suite|fuzz_sweep [--seed N] "
                 "[--seconds S] [--trace 0|1] [--quick] [--work-dir DIR] "
                 "[--trace-out FILE]\n",
                 msg);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + arg).c_str());
            return argv[++i];
        };
        if (arg == "--workload")
            a.workload = value();
        else if (arg == "--seed")
            a.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (arg == "--seconds")
            a.seconds = std::atof(value().c_str());
        else if (arg == "--trace")
            a.trace = value() == "1";
        else if (arg == "--quick")
            a.quick = true;
        else if (arg == "--work-dir")
            a.workDir = value();
        else if (arg == "--trace-out")
            a.traceOut = value();
        else
            usage(("unknown option " + arg).c_str());
    }
    Plan plan;
    if (!makePlan(a, &plan))
        usage(("unknown workload '" + a.workload + "'").c_str());
    return Bench(a, std::move(plan)).run();
}
