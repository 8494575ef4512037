#include "spans.hh"

#include <algorithm>
#include <cstdio>

#include "common/json.hh"

namespace perfbench
{

int
SpanLog::addPhase(std::string name)
{
    std::lock_guard<std::mutex> lock(mu_);
    phases_.push_back(std::move(name));
    return int(phases_.size()) - 1;
}

SpanBuffer &
SpanLog::newBuffer()
{
    std::lock_guard<std::mutex> lock(mu_);
    return buffers_.emplace_back(unsigned(buffers_.size()));
}

void
SpanLog::setJobLabel(int phase, int job, std::string label)
{
    std::lock_guard<std::mutex> lock(mu_);
    labels_[{phase, job}] = std::move(label);
}

namespace
{

/** Self time of every span of @p buf (duration minus children). */
std::vector<double>
selfTimesMs(const SpanBuffer &buf)
{
    const auto &spans = buf.spans();
    std::vector<double> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i)
        self[i] = double(spans[i].endNs - spans[i].beginNs) / 1e6;
    for (const Span &s : spans) {
        if (s.parent >= 0)
            self[size_t(s.parent)] -= double(s.endNs - s.beginNs) / 1e6;
    }
    return self;
}

} // namespace

std::map<std::string, SpanTotals>
SpanLog::totals(const std::vector<int> &phases) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::map<std::string, SpanTotals> out;
    for (const SpanBuffer &buf : buffers_) {
        const std::vector<double> self = selfTimesMs(buf);
        for (size_t i = 0; i < buf.spans().size(); ++i) {
            const Span &s = buf.spans()[i];
            if (std::find(phases.begin(), phases.end(), s.phase) ==
                phases.end())
                continue;
            SpanTotals &t = out[s.name];
            const double ms = double(s.endNs - s.beginNs) / 1e6;
            t.ms += ms;
            t.selfMs += self[i];
            ++t.count;
            t.durationsMs.push_back(ms);
            auto label = labels_.find({s.phase, s.job});
            t.jobLabels.push_back(label == labels_.end() ? std::string()
                                                         : label->second);
        }
    }
    return out;
}

void
SpanLog::selfVsWall(double *maxSelfMs, double *wallMs) const
{
    std::lock_guard<std::mutex> lock(mu_);
    *maxSelfMs = 0;
    *wallMs = 0;
    for (const SpanBuffer &buf : buffers_) {
        if (buf.spans().empty())
            continue;
        double self_sum = 0;
        for (double s : selfTimesMs(buf))
            self_sum += s;
        uint64_t lo = ~uint64_t{0}, hi = 0;
        for (const Span &s : buf.spans()) {
            lo = std::min(lo, s.beginNs);
            hi = std::max(hi, s.endNs);
        }
        if (self_sum > *maxSelfMs) {
            *maxSelfMs = self_sum;
            *wallMs = double(hi - lo) / 1e6;
        }
    }
}

std::string
SpanLog::chromeTraceJson() const
{
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t base = ~uint64_t{0};
    for (const SpanBuffer &buf : buffers_)
        for (const Span &s : buf.spans())
            base = std::min(base, s.beginNs);

    std::string out = "{\"traceEvents\":[";
    bool first = true;
    char buf[160];
    for (const SpanBuffer &b : buffers_) {
        for (size_t i = 0; i < b.spans().size(); ++i) {
            const Span &s = b.spans()[i];
            if (!first)
                out += ",";
            first = false;
            std::snprintf(buf, sizeof buf,
                          "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                          "\"ts\":%.3f,\"dur\":%.3f,\"pid\":0,\"tid\":%u,",
                          s.name,
                          vgiw::jsonEscape(phases_[size_t(s.phase)]).c_str(),
                          double(s.beginNs - base) / 1e3,
                          double(s.endNs - s.beginNs) / 1e3, b.tid());
            out += buf;
            auto label = labels_.find({s.phase, s.job});
            std::snprintf(buf, sizeof buf,
                          "\"args\":{\"span\":%zu,\"parent\":%d,\"job\":%d,",
                          i, s.parent, s.job);
            out += buf;
            out += "\"job_label\":\"" +
                   (label == labels_.end()
                        ? std::string()
                        : vgiw::jsonEscape(label->second)) +
                   "\"}}";
        }
    }
    out += "]}\n";
    return out;
}

} // namespace perfbench
