/**
 * @file
 * Host-time spans recorded by the benchmark around its own calls into
 * the simulator's modules (trace, timing, sim, mem, nuca, nurapid,
 * sim/runner). Spans stay in memory and are written once, at the end
 * of a traced run, as a Chrome JSON trace that opens in
 * ui.perfetto.dev.
 *
 * Each span carries a name, start, end, its parent span (the
 * innermost open span on the same thread, or an explicit parent for
 * work fanned out to helper threads) and the id of the configuration
 * it belongs to (-1 when it spans several).
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds between two steady-clock points. */
inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

class SpanLog
{
  public:
    struct Rec
    {
        std::string name;
        std::int64_t id = 0;
        std::int64_t parent = -1;
        std::int64_t config = -1;
        std::uint64_t tid = 0;
        double start_us = 0;
        double end_us = 0;
    };

    /** Disabled logs record nothing (the untraced run). */
    explicit SpanLog(bool enabled);

    bool enabled() const { return on; }

    /** Opens a span; returns its id (-1 when disabled). */
    std::int64_t open(const std::string &name, std::int64_t config,
                      std::int64_t parent);
    void close(std::int64_t id);

    /** Innermost open span on the calling thread, or -1. */
    static std::int64_t current();

    /** Writes every closed span as a Chrome JSON trace. */
    bool writeChromeJson(const std::string &path) const;

  private:
    bool on;
    Clock::time_point origin;
    mutable std::mutex mtx;
    std::vector<Rec> recs;  //!< indexed by span id
};

/** RAII span; the parent defaults to the thread's innermost span. */
class Span
{
  public:
    Span(SpanLog &log, const std::string &name, std::int64_t config = -1,
         std::int64_t parent = SpanLog::current());
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    std::int64_t id() const { return sid; }

  private:
    SpanLog &log;
    std::int64_t sid;
    std::int64_t saved_current;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
