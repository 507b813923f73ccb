/**
 * @file
 * In-memory span recorder for bench_e2e's traced run.
 *
 * Spans are recorded only from the benchmark's own code, around its calls
 * into the system's public API; nothing inside the program is
 * instrumented. They stay in memory until the run ends, then two things
 * read them: writeChromeJson() emits Chrome trace-event JSON (open it in
 * Perfetto or chrome://tracing), and selfTimes() folds them into each
 * span name's self time, i.e. its duration minus the part its child spans
 * cover.
 *
 * Two span shapes are used. Synchronous spans (`X` events) nest by time
 * on their thread: `workload`, `client.progress`, `client.poll_wait`,
 * `admin.*` and `micro.*`. An `op` span overlaps the other ops in flight
 * on the same thread, so ops and their `client.issue` child are async
 * (`b`/`e`) events sharing the op's id, which is how Perfetto nests them
 * on one async track.
 */

#ifndef HERMES_BENCH_E2E_SPAN_TRACE_HH
#define HERMES_BENCH_E2E_SPAN_TRACE_HH

#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.hh"

namespace hermes::bench_e2e
{

/** One recorded span. Times are steady-clock nanoseconds. */
struct Span
{
    const char *name = "";
    uint64_t id = 0;     ///< unique per span; 0 = assign one
    uint64_t parent = 0; ///< id of the causing span, 0 for a root
    int tid = 0;         ///< bench thread lane (1 generator, 2 admin)
    bool async = false;  ///< op-track span (b/e pair) vs thread span (X)
    const char *kind = nullptr; ///< op kind attribute (op spans only)
    TimeNs start = 0;
    TimeNs end = 0;
};

/** Aggregate of one span name: how many spans, their total self time. */
struct SelfTime
{
    uint64_t count = 0;
    DurationNs selfNs = 0;
};

class SpanRecorder
{
  public:
    /** Record a finished span (thread-safe: the admin thread records
     *  while the generator does). */
    void
    add(Span span)
    {
        std::lock_guard<std::mutex> guard(mutex_);
        if (span.id == 0)
            span.id = kAssignedIds + spans_.size();
        spans_.push_back(span);
    }

    /** Self time per span name: duration minus the children's cover. */
    std::map<std::string, SelfTime>
    selfTimes() const
    {
        std::lock_guard<std::mutex> guard(mutex_);
        std::map<uint64_t, DurationNs> covered;
        for (const Span &span : spans_)
            if (span.parent != 0)
                covered[span.parent] += span.end - span.start;
        std::map<std::string, SelfTime> out;
        for (const Span &span : spans_) {
            DurationNs dur = span.end - span.start;
            auto it = covered.find(span.id);
            DurationNs cover = it == covered.end() ? 0 : it->second;
            SelfTime &agg = out[span.name];
            ++agg.count;
            agg.selfNs += dur > cover ? dur - cover : 0;
        }
        return out;
    }

    size_t
    size() const
    {
        std::lock_guard<std::mutex> guard(mutex_);
        return spans_.size();
    }

    /**
     * Write every span as Chrome trace-event JSON. Timestamps are made
     * relative to @p origin and written in microseconds, as the format
     * expects. @return false when the file cannot be written.
     */
    bool
    writeChromeJson(const std::string &path, TimeNs origin) const
    {
        std::lock_guard<std::mutex> guard(mutex_);
        FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"
                        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
                        "\"args\":{\"name\":\"bench_e2e\"}}");
        for (const Span &s : spans_) {
            double ts = (s.start - origin) / 1e3;
            double te = (s.end - origin) / 1e3;
            if (!s.async) {
                std::fprintf(f,
                             ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                             "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f}",
                             s.name, s.tid, ts, te - ts);
                continue;
            }
            // A child on the op track carries its op's id, so Perfetto
            // draws it nested inside the op.
            auto track = static_cast<unsigned long long>(
                s.parent != 0 ? s.parent : s.id);
            std::fprintf(f,
                         ",\n{\"name\":\"%s\",\"cat\":\"op\",\"ph\":\"b\","
                         "\"id\":%llu,\"pid\":1,\"tid\":%d,\"ts\":%.3f",
                         s.name, track, s.tid, ts);
            if (s.kind)
                std::fprintf(f, ",\"args\":{\"kind\":\"%s\"}", s.kind);
            std::fprintf(f,
                         "},\n{\"name\":\"%s\",\"cat\":\"op\",\"ph\":\"e\","
                         "\"id\":%llu,\"pid\":1,\"tid\":%d,\"ts\":%.3f}",
                         s.name, track, s.tid, te);
        }
        std::fprintf(f, "\n]}\n");
        return std::fclose(f) == 0;
    }

  private:
    /** Assigned ids start here, clear of op ids (session << 40 | token). */
    static constexpr uint64_t kAssignedIds = uint64_t{1} << 62;

    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

} // namespace hermes::bench_e2e

#endif // HERMES_BENCH_E2E_SPAN_TRACE_HH
