/**
 * @file
 * Hierarchical wall-clock profiler. Where the op ledger (op_ledger.h)
 * counts abstract operations for the MCU cycle model, the profiler
 * measures where *host* wall-clock time actually goes, so model-vs-
 * measured drift can be attributed to a pipeline stage (the MAESTRO
 * argument: stage-level attribution is what makes a cost model
 * actionable).
 *
 * Design mirrors the eventlog/faultpoint subsystems:
 *
 *  - Off by default. The hot-path gate is one relaxed atomic load per
 *    ProfSpan construction; the whole subsystem compiles out under
 *    GENREUSE_DISABLE_PROFILER (enabled() is constant false and every
 *    span folds away).
 *  - RAII ProfSpans push onto a thread-local span stack. A span's
 *    identity is its *path* — parent names joined with '/', e.g.
 *    "conv.forward/reuse.transform/lsh.cluster" — so the same kernel
 *    is attributed separately per call context.
 *  - Durations (steady clock, ns) accumulate into per-(thread, path)
 *    stats: count / total / min / max plus a fixed-size log2-bucket
 *    histogram from which p50/p95 are estimated. snapshot() merges
 *    the per-thread tracks deterministically (sorted by path).
 *
 * Two exporters:
 *
 *  - toJson(): schema "genreuse.prof/1" aggregate stats, merged into
 *    BENCH_*.json by bench_common so table3 can reconcile per-stage
 *    wall time against model cycles.
 *  - Chrome trace-event JSON: with timeline capture on (setTimeline-
 *    Capture, or GENREUSE_PROFILE=<path> which also enables the
 *    profiler and writes the file at process exit), every span
 *    additionally logs B/E events per thread and metrics updates log
 *    counter samples, producing a chrome://tracing / Perfetto-loadable
 *    timeline with one track per thread plus counter tracks.
 */

#ifndef GENREUSE_COMMON_PROFILER_H
#define GENREUSE_COMMON_PROFILER_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace genreuse {
namespace profiler {

namespace detail {
extern std::atomic<bool> g_enabled;
extern std::atomic<bool> g_timeline;
struct ThreadState;
ThreadState &threadState();
void beginSpan(const char *name);
void endSpan();
} // namespace detail

/** True when profiling is on. The hot-path gate: one relaxed atomic
 *  load, constant-false when compiled out. */
inline bool
enabled()
{
#ifdef GENREUSE_DISABLE_PROFILER
    return false;
#else
    return detail::g_enabled.load(std::memory_order_relaxed);
#endif
}

/** Turn runtime profiling on/off (warns and stays off under
 *  GENREUSE_DISABLE_PROFILER). */
void setEnabled(bool on);

/** True when Chrome-trace timeline capture is recording events. */
inline bool
timelineActive()
{
#ifdef GENREUSE_DISABLE_PROFILER
    return false;
#else
    return detail::g_timeline.load(std::memory_order_relaxed);
#endif
}

/** Record B/E span events and metric counter samples for the Chrome
 *  trace export (in addition to the aggregate stats). Implies nothing
 *  about enabled(); GENREUSE_PROFILE turns both on. */
void setTimelineCapture(bool on);

/**
 * RAII wall-clock span. @p name must outlive the span (string
 * literals; layer-name spans copy internally via the string overload
 * of beginSpan is intentionally not offered — keep names static so
 * the off-path stays allocation-free). Construction when profiling is
 * off is one relaxed load.
 */
class ProfSpan
{
  public:
    explicit ProfSpan(const char *name)
    {
        if (enabled()) {
            active_ = true;
            detail::beginSpan(name);
        }
    }

    ~ProfSpan()
    {
        if (active_)
            detail::endSpan();
    }

    ProfSpan(const ProfSpan &) = delete;
    ProfSpan &operator=(const ProfSpan &) = delete;

  private:
    bool active_ = false;
};

/** Number of log2(ns) histogram buckets; bucket i holds durations in
 *  [2^i, 2^(i+1)) ns, with the last bucket open-ended (~9 minutes). */
constexpr size_t kHistBuckets = 40;

/** Aggregated statistics for one span path (possibly merged across
 *  threads). */
struct SpanStats
{
    uint64_t count = 0;
    uint64_t totalNs = 0;
    uint64_t minNs = UINT64_MAX;
    uint64_t maxNs = 0;
    uint64_t hist[kHistBuckets] = {};

    void record(uint64_t ns);
    void merge(const SpanStats &o);
    /** Quantile estimate from the log2 histogram (geometric bucket
     *  midpoint, clamped to [minNs, maxNs]). @p q in [0, 1]. */
    uint64_t quantileNs(double q) const;
};

/** One snapshot entry: a span path and its merged stats. */
struct SpanEntry
{
    std::string path;
    SpanStats stats;
};

/** Merged per-path stats across all threads, sorted by path so the
 *  aggregate is deterministic regardless of thread scheduling. */
std::vector<SpanEntry> snapshot();

/** True when any span has been recorded since the last reset(). */
bool hasSpans();

/** Drop all recorded stats and timeline events. Threads keep their
 *  registration (track names are stable within a process). */
void reset();

/** Timeline events dropped because the capture buffer was full. */
uint64_t droppedEvents();

/** Schema-versioned JSON export of the aggregate snapshot
 *  (schema "genreuse.prof/1": per-path count/total/min/max/p50/p95
 *  and the dropped-event count). */
std::string toJson();

/** Chrome trace-event JSON document ({"traceEvents": [...]}) of the
 *  captured timeline: B/E duration events per thread track, counter
 *  tracks from metrics samples, thread-name metadata. */
std::string chromeTraceJson();

/** Write chromeTraceJson() to @p path (overwrites). */
void writeChromeTrace(const std::string &path);

/** Hook for metrics: append a counter sample to the timeline. */
void recordCounterSample(const std::string &name, double value);

} // namespace profiler
} // namespace genreuse

#endif // GENREUSE_COMMON_PROFILER_H
