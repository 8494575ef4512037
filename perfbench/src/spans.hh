/**
 * @file
 * In-memory span recording for the benchmark's traced run.
 *
 * Spans are recorded only from the benchmark's own files, around its
 * calls into each simulator module; the library carries no tracing of
 * its own here. Each worker thread owns one SpanBuffer, so recording
 * takes no lock. A span knows its name, start, end, parent (the span
 * open on the same thread when it began) and job id. Everything stays
 * in memory until the run ends and is then written as Chrome-trace JSON.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

/** Monotonic nanoseconds (steady_clock). */
inline uint64_t
nowNs()
{
    return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now().time_since_epoch())
                        .count());
}

struct Span
{
    const char *name;  ///< static storage
    uint64_t beginNs;
    uint64_t endNs;
    int parent;  ///< index in the same buffer, or -1
    int job;     ///< job index within its phase, or -1
    int phase;   ///< SpanLog phase id
};

/** One thread's spans; written only by that thread. */
class SpanBuffer
{
  public:
    explicit SpanBuffer(unsigned tid) : tid_(tid) {}

    int
    open(const char *name, int job, int phase)
    {
        const int parent = stack_.empty() ? -1 : stack_.back();
        spans_.push_back({name, nowNs(), 0, parent, job, phase});
        stack_.push_back(int(spans_.size()) - 1);
        return stack_.back();
    }

    void
    close(int index)
    {
        spans_[size_t(index)].endNs = nowNs();
        stack_.pop_back();
    }

    unsigned tid() const { return tid_; }
    const std::vector<Span> &spans() const { return spans_; }

  private:
    unsigned tid_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span on a buffer. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanBuffer &buf, const char *name, int job, int phase)
        : buf_(buf), index_(buf.open(name, job, phase))
    {
    }
    ~ScopedSpan() { buf_.close(index_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanBuffer &buf_;
    int index_;
};

/** Per-name totals over a set of spans. */
struct SpanTotals
{
    double ms = 0;      ///< sum of durations
    double selfMs = 0;  ///< sum of durations minus their children's
    uint64_t count = 0;
    std::vector<double> durationsMs;     ///< one per span, in record order
    std::vector<std::string> jobLabels;  ///< each span's job label
};

/** Every buffer of a run, grouped into named phases. */
class SpanLog
{
  public:
    /** Start a phase (e.g. "setup", "iteration 0"); returns its id. */
    int addPhase(std::string name);

    /** A new buffer for one worker thread; stable address. */
    SpanBuffer &newBuffer();

    /** Label a (phase, job) pair for the trace file. */
    void setJobLabel(int phase, int job, std::string label);

    /** Totals per span name over the phases accepted by @p phases. */
    std::map<std::string, SpanTotals>
    totals(const std::vector<int> &phases) const;

    /**
     * Sum of self times on the busiest thread, and that thread's wall
     * extent (first begin to last end). Self time never exceeds wall
     * time on one thread, which the self-test checks.
     */
    void selfVsWall(double *maxSelfMs, double *wallMs) const;

    /** Chrome trace-event JSON ("traceEvents" of complete events). */
    std::string chromeTraceJson() const;

  private:
    mutable std::mutex mu_;
    std::vector<std::string> phases_;
    std::deque<SpanBuffer> buffers_;
    std::map<std::pair<int, int>, std::string> labels_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
