/**
 * @file
 * Process-wide metrics registry: named monotonic counters and
 * last/max-value gauges for the low-frequency health signals the op
 * ledger cannot see — guard rung transitions, fault-point fires,
 * cluster counts and the redundancy ratio r_t, the SRAM high-water
 * mark, suppressed warn-once volume.
 *
 * Design mirrors eventlog/faultpoint: updates are single relaxed atomic
 * RMWs on pre-resolved handles (look the handle up once with
 * counter()/gauge(), then add()/set() from the hot path), the registry
 * keeps first-seen order so exports are stable, and the whole
 * subsystem compiles out with the profiler under
 * GENREUSE_DISABLE_PROFILER (updates become no-ops; snapshots are
 * empty).
 *
 * While a profiler timeline capture is active (GENREUSE_PROFILE),
 * every update is also sampled into the Chrome-trace counter tracks,
 * so gauges/counters plot over time next to the span timeline.
 */

#ifndef GENREUSE_COMMON_METRICS_H
#define GENREUSE_COMMON_METRICS_H

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace genreuse {
namespace metrics {

/** Monotonic event counter. Obtain via metrics::counter(). */
class Counter
{
  public:
    explicit Counter(std::string name) : name_(std::move(name)) {}

    void add(uint64_t delta = 1);
    uint64_t get() const { return value_.load(std::memory_order_relaxed); }
    const std::string &name() const { return name_; }

    Counter(const Counter &) = delete;
    Counter &operator=(const Counter &) = delete;

  private:
    friend void reset();
    std::string name_;
    std::atomic<uint64_t> value_{0};
};

/** Last-value gauge with a monotonic-max variant (high-water marks). */
class Gauge
{
  public:
    explicit Gauge(std::string name) : name_(std::move(name)) {}

    void set(double v);
    /** Keep the maximum of the current and new value (high-water). */
    void setMax(double v);
    double get() const { return value_.load(std::memory_order_relaxed); }
    const std::string &name() const { return name_; }

    Gauge(const Gauge &) = delete;
    Gauge &operator=(const Gauge &) = delete;

  private:
    friend void reset();
    std::string name_;
    std::atomic<double> value_{0.0};
};

/**
 * Registry lookup: the counter/gauge named @p name, created on first
 * use. References stay valid for the process lifetime — resolve once
 * (e.g. into a function-local static) and reuse from hot paths.
 */
Counter &counter(const std::string &name);
Gauge &gauge(const std::string &name);

/** One exported registry entry. */
struct Sample
{
    std::string name;
    bool isCounter = false;
    double value = 0.0; //!< counters widen to double for a uniform table
};

/** All registered metrics in first-seen order. */
std::vector<Sample> snapshot();

/** True when at least one metric holds a non-zero value. */
bool anyNonZero();

/** Zero every registered value. Registrations (and therefore the
 *  first-seen export order) are kept — snapshot() after reset() lists
 *  the same names in the same order, all zeroed. Test-only: fixtures
 *  call this so assertions never depend on which tests ran earlier in
 *  the process; not meant for concurrent use with updaters and not
 *  part of the production API surface. */
void reset();

/** Schema-versioned JSON export (schema "genreuse.metrics/1"). */
std::string toJson();

} // namespace metrics
} // namespace genreuse

#endif // GENREUSE_COMMON_METRICS_H
