#include "trace.h"

#include <cstdio>

namespace perfbench {

int64_t
nowNs()
{
    static const Clock::time_point epoch = Clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch)
        .count();
}

int
SpanRecorder::begin(const char *name, int request)
{
    Span s;
    s.name = name;
    s.start = nowNs();
    s.parent = open_.empty() ? -1 : open_.back();
    s.request = request;
    spans_.push_back(s);
    const int index = static_cast<int>(spans_.size()) - 1;
    open_.push_back(index);
    return index;
}

void
SpanRecorder::end(int index)
{
    spans_[static_cast<size_t>(index)].end = nowNs();
    if (!open_.empty() && open_.back() == index)
        open_.pop_back();
}

void
SpanFold::add(const SpanRecorder &rec)
{
    const auto &spans = rec.spans();
    // Children never overlap their siblings (one thread), so the time a
    // span's children cover is the sum of their durations.
    std::vector<int64_t> childNs(spans.size(), 0);
    for (const Span &s : spans) {
        if (s.parent >= 0)
            childNs[static_cast<size_t>(s.parent)] += s.end - s.start;
        else
            rootNs += s.end - s.start;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
        Row &row = rows[spans[i].name];
        const int64_t dur = spans[i].end - spans[i].start;
        row.count += 1;
        row.totalNs += dur;
        row.selfNs += dur - childNs[i];
    }
}

const SpanFold::Row &
SpanFold::at(const std::string &name) const
{
    static const Row empty;
    auto it = rows.find(name);
    return it == rows.end() ? empty : it->second;
}

bool
writeSpans(const std::string &path,
           const std::vector<const SpanRecorder *> &recorders)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "recorder\tname\tstart_ns\tend_ns\tparent\trequest\n");
    for (size_t r = 0; r < recorders.size(); ++r) {
        for (const Span &s : recorders[r]->spans()) {
            std::fprintf(f, "%zu\t%s\t%lld\t%lld\t%d\t%d\n", r, s.name,
                         static_cast<long long>(s.start),
                         static_cast<long long>(s.end), s.parent,
                         s.request);
        }
    }
    return std::fclose(f) == 0;
}

} // namespace perfbench
