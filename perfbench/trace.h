/**
 * @file
 * In-memory spans for the benchmark's traced run.
 *
 * Spans are recorded only in the benchmark's own code, around calls into
 * the library's public functions. Each span carries a name, wall start
 * and end, its parent span and the request it belongs to. A recorder is
 * single-threaded; concurrent clients each own one and the spans are
 * merged when the run ends.
 */
#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Nanoseconds since a process-wide epoch. */
int64_t nowNs();

struct Span
{
    const char *name; ///< static string, "<layer>.<what>"
    int64_t start = 0;
    int64_t end = 0;
    int32_t parent = -1; ///< index in the same recorder, -1 for roots
    int32_t request = -1;
};

class SpanRecorder
{
  public:
    SpanRecorder() { spans_.reserve(1 << 16); }

    /** Open a span under the innermost open one; returns its index. */
    int begin(const char *name, int request);
    void end(int index);

    const std::vector<Span> &spans() const { return spans_; }

  private:
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span. */
class Scoped
{
  public:
    Scoped(SpanRecorder *rec, const char *name, int request)
        : rec_(rec), index_(rec ? rec->begin(name, request) : -1)
    {}
    ~Scoped()
    {
        if (rec_)
            rec_->end(index_);
    }
    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;

  private:
    SpanRecorder *rec_;
    int index_;
};

/** Per-name totals of a set of recorders. */
struct SpanFold
{
    struct Row
    {
        int64_t count = 0;
        int64_t totalNs = 0; ///< sum of span durations
        int64_t selfNs = 0;  ///< durations minus time covered by children
    };
    std::map<std::string, Row> rows;
    int64_t rootNs = 0; ///< sum of root span durations

    void add(const SpanRecorder &rec);
    const Row &at(const std::string &name) const;
};

/** Write spans as TSV (name, start, end, parent, request). */
bool writeSpans(const std::string &path,
                const std::vector<const SpanRecorder *> &recorders);

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
